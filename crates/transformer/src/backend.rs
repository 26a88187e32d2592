//! Pluggable non-linearity backends (the paper's replacement axis).
//!
//! Each of the three non-linear operation *sites* in the encoder — GELU,
//! Softmax, LayerNorm — can independently run on:
//!
//! * [`OpImpl::Exact`] — reference FP32 math (the paper's "Baseline");
//! * [`OpImpl::Lut`] — a [`nnlut_core::NnLutKit`], whose contents are
//!   either trained NN-LUT tables or curve-fit Linear-LUT tables (same
//!   hardware, different contents — paper Table 2a);
//! * [`OpImpl::IBert`] — the integer-only kernels of `nnlut-ibert`
//!   (paper Table 2b).
//!
//! This per-site independence is exactly what the "GELU only / Softmax
//! only / LayerNorm only / Altogether" rows of Table 2(a) vary.

use std::sync::Arc;
use std::time::Instant;

use nnlut_core::calibrate::ActivationCapture;
use nnlut_core::profile::{OpCounters, OpKind};
use nnlut_core::NnLutKit;
use nnlut_ibert::layernorm::i_layernorm_f32;
use nnlut_ibert::softmax::i_softmax_f32;
use nnlut_ibert::{fixed::scale_16bit, fixed::Quantized, i_gelu};
use nnlut_tensor::Matrix;

/// Runs `f`, recording one `(op, rows, elapsed)` sample into `sink` when
/// one is attached. The clock is read only when profiling is on; timing
/// never feeds back into the math, so outputs are bit-identical either
/// way.
#[inline]
fn profiled<T>(sink: Option<&OpCounters>, op: OpKind, rows: usize, f: impl FnOnce() -> T) -> T {
    match sink {
        Some(sink) => {
            let start = Instant::now();
            let out = f();
            sink.record(op, rows as u64, start.elapsed());
            out
        }
        None => f(),
    }
}

/// Implementation choice for one non-linear operation site.
// The kit variant inlines four tables (~a few hundred bytes); OpImpl values
// are created per model, not per op, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Default)]
pub enum OpImpl {
    /// Exact FP32 reference math.
    #[default]
    Exact,
    /// LUT kit (NN-LUT trained contents or Linear-LUT baseline contents).
    Lut(NnLutKit),
    /// I-BERT integer-only kernel.
    IBert,
    /// Softermax base-2 online softmax (softmax site only; falls back to
    /// exact math at the GELU/LayerNorm sites, which Softermax does not
    /// define).
    Softermax,
}

/// Per-site non-linearity selection for a whole model.
#[derive(Debug, Clone, Default)]
pub struct Nonlinearity {
    /// Feed-forward activation site.
    pub gelu: OpImpl,
    /// Attention softmax site.
    pub softmax: OpImpl,
    /// Block normalization site.
    pub layernorm: OpImpl,
    /// Optional op-profiling sink (see [`Nonlinearity::with_profile`]).
    /// Private so the field can stay out of every construction site:
    /// `None` — record nothing — is the default everywhere.
    profile: Option<Arc<OpCounters>>,
}

impl Nonlinearity {
    /// All-exact FP32 (the paper's baseline row).
    pub fn exact() -> Self {
        Self::default()
    }

    /// The same kit on all three sites ("Altogether" rows).
    pub fn all_lut(kit: &NnLutKit) -> Self {
        Self {
            gelu: OpImpl::Lut(kit.clone()),
            softmax: OpImpl::Lut(kit.clone()),
            layernorm: OpImpl::Lut(kit.clone()),
            ..Self::exact()
        }
    }

    /// I-BERT on all three sites (Table 2b's I-BERT row).
    pub fn all_ibert() -> Self {
        Self {
            gelu: OpImpl::IBert,
            softmax: OpImpl::IBert,
            layernorm: OpImpl::IBert,
            ..Self::exact()
        }
    }

    /// Attaches an op-profiling sink: every chunk-level kernel call
    /// (masked softmax, GELU, LayerNorm) records its call count, rows and
    /// elapsed nanoseconds into `sink`. Profiling is **passive** — the
    /// sink never influences outputs, chunking or scheduling — and cheap:
    /// one clock pair plus three relaxed atomic adds per chunk. The
    /// serving layer shares one sink across a whole replica fleet to
    /// attribute encode time per op site.
    pub fn with_profile(mut self, sink: Arc<OpCounters>) -> Self {
        self.profile = Some(sink);
        self
    }

    /// The attached profiling sink, if any.
    pub fn profile(&self) -> Option<&Arc<OpCounters>> {
        self.profile.as_ref()
    }

    /// Replaces only the GELU site ("GELU only" row).
    pub fn gelu_only(kit: &NnLutKit) -> Self {
        Self {
            gelu: OpImpl::Lut(kit.clone()),
            ..Self::exact()
        }
    }

    /// Replaces only the Softmax site ("Softmax only" row).
    pub fn softmax_only(kit: &NnLutKit) -> Self {
        Self {
            softmax: OpImpl::Lut(kit.clone()),
            ..Self::exact()
        }
    }

    /// Softermax at the softmax site, everything else exact (the extension
    /// baseline comparison).
    pub fn softermax_only() -> Self {
        Self {
            softmax: OpImpl::Softermax,
            ..Self::exact()
        }
    }

    /// Replaces only the LayerNorm site ("LayerNorm only" row).
    pub fn layernorm_only(kit: &NnLutKit) -> Self {
        Self {
            layernorm: OpImpl::Lut(kit.clone()),
            ..Self::exact()
        }
    }

    /// Applies the activation-site op (GELU) to every element.
    pub fn apply_gelu(&self, m: &mut Matrix) {
        let kernel = self.gelu_kernel(m);
        kernel.apply_chunk(m.as_mut_slice());
    }

    /// Resolves the GELU backend into a chunk-applicable kernel: any
    /// whole-matrix reduction (the I-BERT quantization scale) is taken
    /// here, up front and serially, so [`GeluKernel::apply_chunk`] is
    /// element-local and safe to run over disjoint chunks on any
    /// executor without changing a single output bit.
    pub fn gelu_kernel(&self, m: &Matrix) -> GeluKernel<'_> {
        let backend = match &self.gelu {
            OpImpl::Exact | OpImpl::Softermax => GeluBackend::Exact,
            OpImpl::Lut(kit) => GeluBackend::Lut(kit),
            OpImpl::IBert => GeluBackend::IBert {
                scale: scale_16bit(m.abs_max().max(1.0)),
            },
        };
        GeluKernel {
            backend,
            profile: self.profile.as_deref(),
        }
    }

    /// Applies the softmax-site op to one row.
    ///
    /// Deliberately unprofiled: attribution happens at chunk granularity
    /// ([`Nonlinearity::softmax_chunk`] and friends) so a profiling sink
    /// costs one clock pair per chunk, not per row.
    pub fn softmax_row(&self, row: &mut [f32]) {
        match &self.softmax {
            OpImpl::Exact => exact_softmax(row),
            OpImpl::Lut(kit) => kit.softmax(row),
            OpImpl::IBert => i_softmax_f32(row),
            OpImpl::Softermax => crate::softermax::softermax(row),
        }
    }

    /// Applies the softmax-site op to every row of `m`.
    pub fn apply_softmax_rows(&self, m: &mut Matrix) {
        let cols = m.cols();
        self.softmax_chunk(m.as_mut_slice(), cols);
    }

    /// Row-chunk softmax: `data` is a row-major `… × cols` buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of rows.
    pub fn softmax_chunk(&self, data: &mut [f32], cols: usize) {
        assert_eq!(data.len() % cols, 0, "chunk is not a whole number of rows");
        let rows = data.len() / cols;
        profiled(self.profile.as_deref(), OpKind::Softmax, rows, || {
            for row in data.chunks_exact_mut(cols) {
                self.softmax_row(row);
            }
        });
    }

    /// Mask-aware softmax over a row chunk: row `i` of the chunk is
    /// normalized over its first `valid[i]` entries only, and every entry
    /// past the valid prefix is written to `0.0`. A row with `valid == 0`
    /// (a padded query row) becomes all-zero instead of NaN — padded rows
    /// must never pollute downstream matmuls.
    ///
    /// The valid prefix is evaluated by the *same* per-row kernel as the
    /// unmasked path, so a masked row of length `v` produces exactly the
    /// bits an unpadded length-`v` row would.
    ///
    /// # Panics
    ///
    /// Panics if `valid` does not hold one entry per chunk row or any
    /// entry exceeds `cols`.
    pub fn softmax_chunk_masked(&self, data: &mut [f32], cols: usize, valid: &[usize]) {
        assert_eq!(
            data.len(),
            valid.len() * cols,
            "masked softmax valid-length count mismatch"
        );
        profiled(
            self.profile.as_deref(),
            OpKind::Softmax,
            valid.len(),
            || {
                for (row, &v) in data.chunks_exact_mut(cols).zip(valid) {
                    assert!(v <= cols, "valid length {v} exceeds row width {cols}");
                    if v > 0 {
                        self.softmax_row(&mut row[..v]);
                    }
                    row[v..].fill(0.0);
                }
            },
        );
    }

    /// Mask-aware softmax over every row of `m` (see
    /// [`Nonlinearity::softmax_chunk_masked`]).
    pub fn apply_softmax_rows_masked(&self, m: &mut Matrix, valid: &[usize]) {
        assert_eq!(valid.len(), m.rows(), "one valid length per row");
        let cols = m.cols();
        self.softmax_chunk_masked(m.as_mut_slice(), cols, valid);
    }

    /// Applies the layernorm-site op to every row, then the affine
    /// `γ∘x + β`. When `capture` is provided, the variance fed to the
    /// 1/√x computation of each row is recorded (the §3.3.3 calibration
    /// signal).
    pub fn apply_layer_norm_rows(
        &self,
        m: &mut Matrix,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        capture: Option<&mut ActivationCapture>,
    ) {
        if let Some(cap) = capture {
            // The exact and LUT backends feed their 1/√x step the input
            // row's two-pass variance plus `eps` (I-BERT records the same
            // value for parity), so it is read off the rows before they
            // are normalized in place.
            for row in m.rows_iter() {
                cap.record(row_variance(row) + eps);
            }
        }
        let cols = m.cols();
        self.layer_norm_chunk(m.as_mut_slice(), cols, gamma, beta, eps);
    }

    /// Row-chunk LayerNorm + affine, the one LayerNorm kernel:
    /// `data` is a row-major `… × cols` buffer. LayerNorm is row-local
    /// (mean/variance of one row only), so running disjoint chunks on any
    /// executor is bit-identical to one serial pass.
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` are not `cols` long or `data` is not a
    /// whole number of rows.
    pub fn layer_norm_chunk(
        &self,
        data: &mut [f32],
        cols: usize,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) {
        assert_eq!(gamma.len(), cols, "gamma length mismatch");
        assert_eq!(beta.len(), cols, "beta length mismatch");
        assert_eq!(data.len() % cols, 0, "chunk is not a whole number of rows");
        let rows = data.len() / cols;
        profiled(
            self.profile.as_deref(),
            OpKind::LayerNorm,
            rows,
            || match &self.layernorm {
                OpImpl::Exact | OpImpl::Softermax => {
                    for row in data.chunks_exact_mut(cols) {
                        exact_layer_norm(row, eps);
                        affine_row(row, gamma, beta);
                    }
                }
                OpImpl::Lut(kit) => {
                    // Fused norm+affine: bit-identical to the
                    // `layer_norm` + `affine_row` pair in fewer row
                    // passes.
                    for row in data.chunks_exact_mut(cols) {
                        kit.layer_norm_fused_affine(row, eps, gamma, beta);
                    }
                }
                OpImpl::IBert => {
                    for row in data.chunks_exact_mut(cols) {
                        i_layernorm_f32(row);
                        affine_row(row, gamma, beta);
                    }
                }
            },
        );
    }
}

/// A GELU backend resolved against one activation matrix; see
/// [`Nonlinearity::gelu_kernel`]. Element-local by construction, so it can
/// be applied to disjoint chunks of the same buffer in any order. Carries
/// the owning [`Nonlinearity`]'s profiling sink, so chunk applications on
/// worker threads record without touching the parent.
#[derive(Debug, Clone, Copy)]
pub struct GeluKernel<'a> {
    backend: GeluBackend<'a>,
    profile: Option<&'a OpCounters>,
}

/// The resolved per-site backend inside a [`GeluKernel`].
#[derive(Debug, Clone, Copy)]
enum GeluBackend<'a> {
    /// Exact FP32 GELU.
    Exact,
    /// Batched LUT kernel.
    Lut(&'a NnLutKit),
    /// I-BERT integer GELU with the pre-resolved quantization scale taken
    /// from the whole matrix before chunking.
    IBert { scale: f32 },
}

impl GeluKernel<'_> {
    /// Applies the kernel to one chunk in place. The profiled "rows"
    /// count is the element count — GELU is an element kernel, not a row
    /// kernel.
    pub fn apply_chunk(&self, data: &mut [f32]) {
        let elems = data.len();
        profiled(self.profile, OpKind::Gelu, elems, || match self.backend {
            GeluBackend::Exact => {
                for v in data {
                    *v = nnlut_core::funcs::gelu(*v);
                }
            }
            GeluBackend::Lut(kit) => kit.gelu_slice(data),
            GeluBackend::IBert { scale } => {
                for v in data {
                    *v = i_gelu(Quantized::quantize(*v, scale)).real();
                }
            }
        });
    }
}

/// The post-norm affine `γ∘x + β` over one row.
#[inline]
fn affine_row(row: &mut [f32], gamma: &[f32], beta: &[f32]) {
    for (v, (&g, &b)) in row.iter_mut().zip(gamma.iter().zip(beta)) {
        *v = *v * g + b;
    }
}

/// Reference FP32 softmax (in place).
pub fn exact_softmax(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = ((*v - max) as f64).exp() as f32;
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Two-pass population variance of one row: `Σ(x − mean)² / n`, the
/// exact arithmetic every LayerNorm backend feeds (plus `eps`) to 1/√x.
fn row_variance(row: &[f32]) -> f32 {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n
}

/// Reference FP32 LayerNorm (no affine, in place); returns the variance+eps
/// fed to the reciprocal square root.
pub fn exact_layer_norm(row: &mut [f32], eps: f32) -> f32 {
    if row.is_empty() {
        return 0.0;
    }
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    for v in row.iter_mut() {
        *v = (*v - mean) * inv;
    }
    var + eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlut_core::train::TrainConfig;

    fn kit() -> NnLutKit {
        NnLutKit::train_with(16, 77, &TrainConfig::fast())
    }

    #[test]
    fn exact_softmax_reference() {
        let mut row = [1.0f32, 2.0, 3.0];
        exact_softmax(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(row[2] > row[1]);
    }

    #[test]
    fn all_backends_agree_on_softmax_rows() {
        let base = Matrix::from_rows(&[&[0.1, -0.4, 1.2, 0.0], &[2.0, 1.0, -1.0, 0.5]]);
        let mut exact = base.clone();
        Nonlinearity::exact().apply_softmax_rows(&mut exact);
        for nl in [Nonlinearity::all_lut(&kit()), Nonlinearity::all_ibert()] {
            let mut m = base.clone();
            nl.apply_softmax_rows(&mut m);
            for (a, e) in m.as_slice().iter().zip(exact.as_slice()) {
                // Fast-config kit tolerance; the paper-config bound is
                // checked in tests/approximation.rs.
                assert!((a - e).abs() < 0.09, "{a} vs {e}");
            }
        }
    }

    #[test]
    fn all_backends_agree_on_gelu() {
        let base = Matrix::from_rows(&[&[-3.0, -1.0, 0.0, 0.5, 2.0, 4.0]]);
        let mut exact = base.clone();
        Nonlinearity::exact().apply_gelu(&mut exact);
        for nl in [Nonlinearity::all_lut(&kit()), Nonlinearity::all_ibert()] {
            let mut m = base.clone();
            nl.apply_gelu(&mut m);
            for (a, e) in m.as_slice().iter().zip(exact.as_slice()) {
                assert!((a - e).abs() < 0.06, "{a} vs {e}");
            }
        }
    }

    #[test]
    fn layer_norm_applies_affine_and_captures() {
        let gamma = vec![2.0f32; 8];
        let beta = vec![0.5f32; 8];
        let base = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]);
        let mut cap = ActivationCapture::new(8, 0);
        let mut m = base.clone();
        Nonlinearity::exact().apply_layer_norm_rows(&mut m, &gamma, &beta, 1e-5, Some(&mut cap));
        assert_eq!(cap.len(), 1);
        // Variance of 1..8 is 5.25.
        assert!((cap.samples()[0] - 5.25).abs() < 0.01);
        // Post-affine mean = beta (normalized mean is 0).
        let mean: f32 = m.row(0).iter().sum::<f32>() / 8.0;
        assert!((mean - 0.5).abs() < 1e-4);
    }

    #[test]
    fn lut_layernorm_close_to_exact() {
        let gamma = vec![1.0f32; 16];
        let beta = vec![0.0f32; 16];
        let base = Matrix::from_vec(
            1,
            16,
            (0..16).map(|i| (i as f32 * 0.7).sin() * 2.0).collect(),
        );
        let mut exact = base.clone();
        Nonlinearity::exact().apply_layer_norm_rows(&mut exact, &gamma, &beta, 1e-5, None);
        let mut lut = base.clone();
        Nonlinearity::all_lut(&kit()).apply_layer_norm_rows(&mut lut, &gamma, &beta, 1e-5, None);
        for (a, e) in lut.as_slice().iter().zip(exact.as_slice()) {
            assert!((a - e).abs() < 0.1, "{a} vs {e}");
        }
    }

    #[test]
    #[should_panic(expected = "gamma length mismatch")]
    fn wrong_gamma_length_panics() {
        let mut m = Matrix::zeros(1, 4);
        Nonlinearity::exact().apply_layer_norm_rows(&mut m, &[1.0], &[0.0], 1e-5, None);
    }

    #[test]
    fn masked_softmax_matches_unpadded_rows_bitwise() {
        for nl in [
            Nonlinearity::exact(),
            Nonlinearity::all_lut(&kit()),
            Nonlinearity::all_ibert(),
            Nonlinearity::softermax_only(),
        ] {
            // A padded 3-wide valid prefix inside a 6-wide row…
            let mut padded = Matrix::from_rows(&[&[0.3, -1.0, 2.0, 99.0, 99.0, 99.0], &[1.0; 6]]);
            nl.apply_softmax_rows_masked(&mut padded, &[3, 0]);
            // …must equal the unpadded row bit for bit…
            let mut bare = [0.3f32, -1.0, 2.0];
            nl.softmax_row(&mut bare);
            for (got, want) in padded.row(0)[..3].iter().zip(&bare) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
            // …with the masked tail and fully-masked rows exactly zero.
            assert_eq!(&padded.row(0)[3..], &[0.0, 0.0, 0.0]);
            assert_eq!(padded.row(1), &[0.0; 6]);
        }
    }

    #[test]
    #[should_panic(expected = "one valid length per row")]
    fn masked_softmax_wrong_valid_count_panics() {
        let mut m = Matrix::zeros(2, 4);
        Nonlinearity::exact().apply_softmax_rows_masked(&mut m, &[4]);
    }

    #[test]
    fn layer_norm_chunk_matches_whole_matrix_path() {
        let gamma: Vec<f32> = (0..8).map(|i| 0.8 + 0.05 * i as f32).collect();
        let beta: Vec<f32> = (0..8).map(|i| 0.01 * i as f32).collect();
        let base = Matrix::from_vec(4, 8, (0..32).map(|i| (i as f32 * 0.9).cos()).collect());
        for nl in [
            Nonlinearity::exact(),
            Nonlinearity::all_lut(&kit()),
            Nonlinearity::all_ibert(),
        ] {
            let mut whole = base.clone();
            nl.apply_layer_norm_rows(&mut whole, &gamma, &beta, 1e-5, None);
            // Two disjoint chunks through the chunk kernel.
            let mut chunked = base.clone();
            let (top, bottom) = chunked.as_mut_slice().split_at_mut(2 * 8);
            nl.layer_norm_chunk(top, 8, &gamma, &beta, 1e-5);
            nl.layer_norm_chunk(bottom, 8, &gamma, &beta, 1e-5);
            for (got, want) in chunked.as_slice().iter().zip(whole.as_slice()) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn capture_changes_no_bit_and_records_what_each_backend_feeds() {
        use nnlut_core::precision::Precision;
        let (rows, cols, eps) = (5, 24, 1e-5);
        let gamma: Vec<f32> = (0..cols).map(|i| 0.7 + 0.03 * i as f32).collect();
        let beta: Vec<f32> = (0..cols).map(|i| 0.02 * i as f32 - 0.2).collect();
        let base = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| (i as f32 * 0.61).sin() * (1 + i / cols) as f32 * 1.7)
                .collect(),
        );
        let kit = kit();
        let mut backends = vec![
            (Nonlinearity::exact(), None),
            (Nonlinearity::all_ibert(), None),
        ];
        for p in [Precision::F32, Precision::F16, Precision::Int32] {
            let k = kit.with_precision(p).unwrap();
            backends.push((Nonlinearity::all_lut(&k), Some(k)));
        }
        for (nl, lut) in &backends {
            let mut off = base.clone();
            nl.apply_layer_norm_rows(&mut off, &gamma, &beta, eps, None);
            let mut on = base.clone();
            let mut cap = ActivationCapture::new(rows, 0);
            nl.apply_layer_norm_rows(&mut on, &gamma, &beta, eps, Some(&mut cap));
            for (got, want) in on.as_slice().iter().zip(off.as_slice()) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
            assert_eq!(cap.len(), rows);
            for (r, &sample) in cap.samples().iter().enumerate() {
                let mut row = base.row(r).to_vec();
                let fed = match lut {
                    Some(k) => k.layer_norm(&mut row, eps),
                    None => exact_layer_norm(&mut row, eps),
                };
                assert_eq!(sample.to_bits(), fed.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn gelu_kernel_chunks_match_whole_matrix_path() {
        let base = Matrix::from_vec(3, 6, (0..18).map(|i| i as f32 * 0.37 - 3.0).collect());
        for nl in [
            Nonlinearity::exact(),
            Nonlinearity::all_lut(&kit()),
            Nonlinearity::all_ibert(),
        ] {
            let mut whole = base.clone();
            nl.apply_gelu(&mut whole);
            let mut chunked = base.clone();
            let kernel = nl.gelu_kernel(&base);
            let (a, b) = chunked.as_mut_slice().split_at_mut(7); // ragged split
            kernel.apply_chunk(a);
            kernel.apply_chunk(b);
            for (got, want) in chunked.as_slice().iter().zip(whole.as_slice()) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }
}
