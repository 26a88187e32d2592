//! Matrix-multiply precision modes for the transformer body.
//!
//! * Table 2(a): FP32 body.
//! * Table 2(b): INT8 body ("the model is fine-tuned with INT8 matrix
//!   multiplication and FP32 non-linear operations").
//! * Table 3: FP16 body ("in all the cases, MatMul is computed in FP16").

use std::sync::Arc;

use nnlut_core::calibrate::RowCapture;
use nnlut_core::codebook::{BakedCodebook, CodebookSpec};
use nnlut_core::precision::f16_round;
use nnlut_tensor::quant::{quantized_matmul, QuantizedMatrix, Quantizer};
use nnlut_tensor::Matrix;

use crate::exec::{new_row_chunks, BatchExecutor, SerialExecutor};
use crate::gemm::PackedWeight;

/// The GEMM precision of the transformer body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatmulMode {
    /// FP32 reference GEMM.
    #[default]
    F32,
    /// Symmetric per-tensor INT8 GEMM (I-BERT style fake quantization at
    /// every layer boundary). The i8×i8 products are summed in f32, not
    /// in an INT32 accumulator; ROADMAP item 6 tracks the integer kernel.
    Int8,
    /// Binary16 GEMM: operands rounded to half, FP32 accumulation, result
    /// rounded to half (tensor-core semantics).
    F16,
    /// Centroid-codebook amortized GEMM (LUT-NN / TableNet direction):
    /// every *weight-stationary* linear layer evaluates by nearest-
    /// centroid assignment + partial-product table gather
    /// ([`nnlut_core::codebook::BakedCodebook`]). The codebook geometry
    /// and learned artifacts live on the model, stamped by
    /// [`crate::model::BertModel::bake_codebooks`] — this variant is only
    /// the selector. Dynamic activation·activation matmuls (attention
    /// `Q·Kᵀ` and `scores·V`) have no frozen operand to bake a table
    /// against and run exact FP32, matching the related work's scope.
    ///
    /// Applying this mode to an unbaked layer panics: serving a codebook
    /// model without its calibration artifacts is a deployment error, not
    /// a silent fallback.
    Codebook,
}

impl std::fmt::Display for MatmulMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MatmulMode::F32 => "FP32",
            MatmulMode::Int8 => "INT8",
            MatmulMode::F16 => "FP16",
            MatmulMode::Codebook => "CODEBOOK",
        })
    }
}

/// `a × b` under the selected precision mode.
///
/// This is the *dynamic* matmul entry point (both operands are
/// activations). [`MatmulMode::Codebook`] has nothing to amortize here —
/// codebook tables are baked against frozen weights — so it evaluates
/// exact FP32; the codebook path lives in [`Linear::apply`].
pub fn matmul(a: &Matrix, b: &Matrix, mode: MatmulMode) -> Matrix {
    match mode {
        MatmulMode::F32 | MatmulMode::Codebook => a.matmul(b),
        MatmulMode::Int8 => quantized_matmul(a, b),
        MatmulMode::F16 => {
            let ah = a.map(f16_round);
            let bh = b.map(f16_round);
            let mut out = ah.matmul(&bh);
            out.map_inplace(f16_round);
            out
        }
    }
}

/// A dense layer `y = x·W + b` evaluated under a precision mode.
///
/// The frozen weight is stored once, packed into 16-column panels for the
/// FP32/FP16 GEMM kernel (an AVX2 register tile where the CPU has it, a
/// scalar panel loop otherwise); every output keeps the exact op order of
/// [`Matrix::matmul`], so the packing changes no finite bit.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: PackedWeight,
    bias: Vec<f32>,
    /// The f16-rounded packed weight, cached on first F16-mode use: weights
    /// are frozen, and `f16_round` is deterministic, so caching the rounded
    /// copy only removes a per-call O(in·out) pass from the serving hot
    /// path — it cannot change a bit of any result.
    weight_f16: std::sync::OnceLock<PackedWeight>,
    /// The INT8-quantized weight, cached on first INT8-mode use for the
    /// same reason: [`quantized_matmul`] would re-fit and re-quantize the
    /// frozen weight on every call, which for a one-row decode projection
    /// costs far more than the product.
    weight_i8: std::sync::OnceLock<QuantizedMatrix>,
    /// The baked centroid-codebook engine, stamped by
    /// [`Linear::bake_codebook`] (usually via
    /// [`crate::model::BertModel::bake_codebooks`]). `Arc`-shared so
    /// cloning a baked model never copies the tables.
    codebook: Option<Arc<BakedCodebook>>,
}

/// The f16 and INT8 caches and the codebook are derived state; layer
/// identity is weights + bias (the packed weights compare like the
/// row-major ones).
impl PartialEq for Linear {
    fn eq(&self, other: &Self) -> bool {
        self.weight == other.weight && self.bias == other.bias
    }
}

impl Linear {
    /// Creates a layer from a `(in × out)` weight and a length-`out` bias.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.cols()`.
    pub fn new(weight: Matrix, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), weight.cols(), "bias/weight shape mismatch");
        Self {
            weight: PackedWeight::new(weight),
            bias,
            weight_f16: std::sync::OnceLock::new(),
            weight_i8: std::sync::OnceLock::new(),
            codebook: None,
        }
    }

    /// Learns and stamps this layer's centroid codebook from captured
    /// activation rows (see [`nnlut_core::codebook::BakedCodebook::bake`]).
    /// `site` disambiguates the k-means RNG stream between layers sharing
    /// one spec.
    ///
    /// # Panics
    ///
    /// Panics if `calib` holds no rows or its width is not `in_dim` (the
    /// bake validates shapes).
    pub fn bake_codebook(&mut self, calib: &RowCapture, spec: &CodebookSpec, site: u64) {
        assert_eq!(calib.width(), self.in_dim(), "calibration row width");
        let sited = CodebookSpec {
            seed: spec.site_seed(site),
            ..*spec
        };
        self.codebook = Some(Arc::new(BakedCodebook::bake(
            self.weight().as_slice(),
            self.in_dim(),
            self.out_dim(),
            &self.bias,
            calib.rows(),
            &sited,
        )));
    }

    /// The baked codebook engine, if [`Linear::bake_codebook`] ran.
    pub fn codebook(&self) -> Option<&Arc<BakedCodebook>> {
        self.codebook.as_ref()
    }

    /// True once this layer can serve [`MatmulMode::Codebook`].
    pub fn has_codebook(&self) -> bool {
        self.codebook.is_some()
    }

    /// The stamped codebook, or a loud deployment-error panic.
    fn codebook_or_panic(&self) -> &BakedCodebook {
        self.codebook.as_deref().expect(
            "MatmulMode::Codebook selected but this layer has no baked codebook — \
             run BertModel::bake_codebooks (or Linear::bake_codebook) before serving",
        )
    }

    /// The f16-rounded packed weight (computed once, then cached).
    fn rounded_weight(&self) -> &PackedWeight {
        self.weight_f16.get_or_init(|| self.weight.map(f16_round))
    }

    /// The weight quantized as [`quantized_matmul`] quantizes its right
    /// operand (computed once, then cached).
    fn quantized_weight(&self) -> &QuantizedMatrix {
        self.weight_i8.get_or_init(|| {
            let w = self.weight();
            Quantizer::fit(&w).quantize(&w)
        })
    }

    /// The row-major weight, unpacked — for the readers that are not the
    /// packed GEMM (the INT8 quantizer and the codebook bake).
    fn weight(&self) -> Matrix {
        self.weight.unpack()
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Applies the layer to a `(seq × in)` activation matrix on the
    /// calling thread: [`Linear::apply_exec`] under [`SerialExecutor`].
    ///
    /// # Panics
    ///
    /// Panics under [`MatmulMode::Codebook`] if no codebook was baked.
    pub fn apply(&self, x: &Matrix, mode: MatmulMode) -> Matrix {
        self.apply_exec(x, mode, &SerialExecutor)
    }

    /// [`Linear::apply`] with the GEMM split by output row ranges across
    /// `exec` — bit-identical to the serial path for every lane count.
    ///
    /// * `F32`: each lane runs the packed-panel GEMM on its rows (fixed
    ///   k-order per row, as [`Matrix::matmul_rows_into`]) and adds the
    ///   bias.
    /// * `F16`: operands are rounded to binary16 up front (element-local),
    ///   then the rounded GEMM is row-split the same way; the final f16
    ///   rounding of the product happens inside each lane's chunk, and the
    ///   f32 bias add afterwards — the exact serial op order.
    /// * `Int8`: runs the serial path unchanged. The per-tensor quantizer
    ///   is a whole-matrix reduction; splitting it would change the scale
    ///   (and the determinism contract forbids concurrent reductions), so
    ///   INT8 bodies parallelize at the attention/non-linearity stages
    ///   only.
    /// * `Codebook`: assignment and gather-accumulate are row-local by
    ///   construction, so each lane runs the baked kernel on its own row
    ///   range — bit-identical to the serial [`Linear::apply`] at every
    ///   lane count.
    pub fn apply_exec(&self, x: &Matrix, mode: MatmulMode, exec: &dyn BatchExecutor) -> Matrix {
        match mode {
            MatmulMode::F32 => self.row_split_gemm(x, &self.weight, exec, false),
            MatmulMode::F16 => {
                let xh = x.map(f16_round);
                self.row_split_gemm(&xh, self.rounded_weight(), exec, true)
            }
            MatmulMode::Int8 => {
                let mut out = Quantizer::fit(x)
                    .quantize(x)
                    .matmul(self.quantized_weight());
                out.add_row_bias(&self.bias);
                out
            }
            MatmulMode::Codebook => {
                let cb = self.codebook_or_panic();
                let in_dim = cb.in_dim();
                let cols = cb.out_dim();
                new_row_chunks(exec, x.rows(), cols, &|first_row, chunk| {
                    let n = chunk.len() / cols;
                    let x_rows = &x.as_slice()[first_row * in_dim..(first_row + n) * in_dim];
                    cb.apply_rows(x_rows, n, chunk);
                })
            }
        }
    }

    /// Row-range-parallel `x·w (+ bias)`, optionally rounding the product
    /// to binary16 before the bias add (the `F16` mode's serial op order).
    fn row_split_gemm(
        &self,
        x: &Matrix,
        w: &PackedWeight,
        exec: &dyn BatchExecutor,
        round_f16: bool,
    ) -> Matrix {
        let cols = w.cols();
        new_row_chunks(exec, x.rows(), cols, &|first_row, chunk| {
            let r1 = first_row + chunk.len() / cols;
            w.matmul_rows_into(x, first_row, r1, chunk);
            if round_f16 {
                for v in chunk.iter_mut() {
                    *v = f16_round(*v);
                }
            }
            for row in chunk.chunks_exact_mut(cols) {
                for (o, &b) in row.iter_mut().zip(&self.bias) {
                    *o += b;
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlut_tensor::init::normal_matrix;

    #[test]
    fn f32_mode_is_exact() {
        let a = normal_matrix(4, 6, 1.0, 1);
        let b = normal_matrix(6, 3, 1.0, 2);
        assert_eq!(matmul(&a, &b, MatmulMode::F32), a.matmul(&b));
    }

    #[test]
    fn int8_mode_is_close() {
        let a = normal_matrix(8, 16, 1.0, 3);
        let b = normal_matrix(16, 8, 1.0, 4);
        let exact = a.matmul(&b);
        let got = matmul(&a, &b, MatmulMode::Int8);
        let rel = (&exact - &got).frobenius_norm() / exact.frobenius_norm();
        assert!(rel < 0.05, "INT8 relative error {rel}");
    }

    #[test]
    fn f16_mode_is_close_and_rounded() {
        let a = normal_matrix(8, 16, 1.0, 5);
        let b = normal_matrix(16, 8, 1.0, 6);
        let exact = a.matmul(&b);
        let got = matmul(&a, &b, MatmulMode::F16);
        let rel = (&exact - &got).frobenius_norm() / exact.frobenius_norm();
        assert!(rel < 0.01, "FP16 relative error {rel}");
        // Every output must be representable in binary16.
        for &v in got.as_slice() {
            assert_eq!(v, f16_round(v));
        }
    }

    #[test]
    fn linear_applies_bias() {
        let w = Matrix::identity(3);
        let l = Linear::new(w, vec![1.0, 2.0, 3.0]);
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        let y = l.apply(&x, MatmulMode::F32);
        assert_eq!(y.row(0), &[2.0, 3.0, 4.0]);
        assert_eq!(l.in_dim(), 3);
        assert_eq!(l.out_dim(), 3);
    }

    #[test]
    fn packed_linear_matches_the_row_major_reference_in_every_mode() {
        // 33 output columns: two full panels and a 1-column tail.
        let w = normal_matrix(17, 33, 0.7, 21);
        let bias: Vec<f32> = (0..33).map(|i| 0.03 * i as f32 - 0.5).collect();
        let layer = Linear::new(w.clone(), bias.clone());
        for rows in [1, 3, 6] {
            let x = normal_matrix(rows, 17, 1.1, 22 + rows as u64);
            for mode in [MatmulMode::F32, MatmulMode::F16, MatmulMode::Int8] {
                let mut want = matmul(&x, &w, mode);
                want.add_row_bias(&bias);
                // Twice: the second call reads the F16/INT8 caches.
                for _ in 0..2 {
                    let got = layer.apply(&x, mode);
                    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                        assert_eq!(g.to_bits(), w.to_bits(), "{mode} rows {rows}");
                    }
                }
            }
        }
    }

    #[test]
    fn linear_equality_is_weights_and_bias() {
        let w = normal_matrix(5, 18, 1.0, 31);
        let bias = vec![0.25; 18];
        let layer = Linear::new(w.clone(), bias.clone());
        assert_eq!(layer, Linear::new(w.clone(), bias.clone()));
        let mut nudged = w.clone();
        nudged[(4, 17)] += 1.0;
        assert_ne!(layer, Linear::new(nudged, bias.clone()));
        assert_ne!(layer, Linear::new(w.clone(), vec![0.5; 18]));
        // Derived state is not identity.
        let _ = layer.apply(&normal_matrix(2, 5, 1.0, 32), MatmulMode::F16);
        assert_eq!(layer, Linear::new(w, bias));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn linear_bad_bias_panics() {
        let _ = Linear::new(Matrix::zeros(2, 3), vec![0.0; 2]);
    }

    #[test]
    fn apply_exec_matches_apply_bitwise_in_every_mode() {
        use crate::exec::tests::FakeLanes;
        let w = normal_matrix(16, 9, 0.8, 7);
        let bias: Vec<f32> = (0..9).map(|i| 0.1 * i as f32 - 0.3).collect();
        let mut layer = Linear::new(w, bias);
        let mut cap = RowCapture::new(16, 64, 3);
        cap.record_rows(normal_matrix(40, 16, 1.2, 9).as_slice());
        layer.bake_codebook(&cap, &CodebookSpec::default(), 0);
        let x = normal_matrix(5, 16, 1.3, 8);
        for mode in [
            MatmulMode::F32,
            MatmulMode::F16,
            MatmulMode::Int8,
            MatmulMode::Codebook,
        ] {
            let want = layer.apply(&x, mode);
            // Three lanes over five rows: chunks that do not divide evenly.
            let got = layer.apply_exec(&x, mode, &FakeLanes(3));
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "{mode} diverged");
            }
        }
    }

    #[test]
    fn codebook_apply_is_close_to_f32() {
        let w = normal_matrix(12, 8, 0.5, 17);
        let bias: Vec<f32> = (0..8).map(|i| 0.05 * i as f32).collect();
        let mut layer = Linear::new(w, bias);
        let calib = normal_matrix(300, 12, 1.0, 18);
        let mut cap = RowCapture::new(12, 256, 4);
        cap.record_rows(calib.as_slice());
        let spec = CodebookSpec {
            sub_len: 2,
            centroids: 32,
            iters: 10,
            seed: 12,
        };
        layer.bake_codebook(&cap, &spec, 0);
        let x = normal_matrix(20, 12, 1.0, 19);
        let exact = layer.apply(&x, MatmulMode::F32);
        let approx = layer.apply(&x, MatmulMode::Codebook);
        let rel = (&exact - &approx).frobenius_norm() / exact.frobenius_norm();
        assert!(rel < 0.5, "codebook relative error {rel}");
    }

    #[test]
    #[should_panic(expected = "no baked codebook")]
    fn codebook_mode_without_bake_panics() {
        let layer = Linear::new(Matrix::identity(3), vec![0.0; 3]);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let _ = layer.apply(&x, MatmulMode::Codebook);
    }
}
