//! Symmetric INT8 quantization and an INT8-operand matmul.
//!
//! The paper's Table 2(b) evaluates NN-LUT inside an INT8-quantized RoBERTa
//! (the I-BERT code base): matrix multiplications run on INT8 operands with
//! INT32 accumulators, while non-linear ops receive de-quantized (or
//! scale-carrying) values. This module reproduces the INT8 operands; its
//! matmul still sums the de-quantized products in f32 rather than in an
//! INT32 accumulator (ROADMAP item 6 tracks the integer kernel):
//!
//! * [`Quantizer`] derives a symmetric per-tensor scale from the max-abs value.
//! * [`QuantizedMatrix`] stores `i8` values plus their scale.
//! * [`QuantizedMatrix::matmul`] multiplies i8 pairs exactly and sums the
//!   de-quantized products in `f32` (output scale = product of input scales).

use crate::Matrix;

/// Derives symmetric per-tensor INT8 scales.
///
/// The scale maps `[-max_abs, +max_abs]` onto `[-127, 127]`; zero-point is
/// always 0 (symmetric scheme, as in I-BERT).
///
/// # Examples
///
/// ```
/// use nnlut_tensor::{Matrix, Quantizer};
///
/// let m = Matrix::from_rows(&[&[0.5, -1.0]]);
/// let q = Quantizer::fit(&m);
/// let qm = q.quantize(&m);
/// let back = qm.dequantize();
/// assert!((back[(0, 1)] - (-1.0)).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    scale: f32,
}

impl Quantizer {
    /// Builds a quantizer whose scale covers `m`'s max-abs value.
    ///
    /// An all-zero matrix gets a scale of 1.0 so that de-quantization is
    /// well defined.
    pub fn fit(m: &Matrix) -> Self {
        let max = m.abs_max();
        let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
        Self { scale }
    }

    /// Builds a quantizer from an explicit scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn with_scale(scale: f32) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "quantizer scale must be finite and positive"
        );
        Self { scale }
    }

    /// The `f32`-per-step scale factor.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes a single value to i8 with round-to-nearest and saturation.
    pub fn quantize_value(&self, v: f32) -> i8 {
        let q = (v / self.scale).round();
        q.clamp(-127.0, 127.0) as i8
    }

    /// Quantizes a whole matrix.
    pub fn quantize(&self, m: &Matrix) -> QuantizedMatrix {
        let data = m
            .as_slice()
            .iter()
            .map(|&v| self.quantize_value(v))
            .collect();
        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            scale: self.scale,
            data,
        }
    }
}

/// An INT8 matrix with its symmetric per-tensor scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    scale: f32,
    data: Vec<i8>,
}

impl QuantizedMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The per-step scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Borrow the raw INT8 buffer (row-major).
    pub fn as_slice(&self) -> &[i8] {
        &self.data
    }

    /// Maps the integer values back to `f32`.
    pub fn dequantize(&self) -> Matrix {
        let data = self.data.iter().map(|&q| q as f32 * self.scale).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// INT8 × INT8 matmul with an f32 sum: each exact integer product is
    /// scaled by `self.scale * rhs.scale` (I-BERT's output scale) and
    /// added in f32, in i-k-j order. I-BERT accumulates in INT32 and
    /// de-quantizes once; ROADMAP item 6 tracks that kernel.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &QuantizedMatrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "quantized matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let out_scale = self.scale * rhs.scale;
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k] as i32;
                if a == 0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.as_mut_slice()[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    // The product a*b fits in i16, so it is exact; the
                    // sum, though, is in f32, not i32.
                    *o += (a * b as i32) as f32 * out_scale;
                }
            }
        }
        out
    }
}

/// Quantizes both operands on the fly and multiplies them in INT8.
///
/// This is the "fake-quantized" matmul used by the INT8 transformer body:
/// activations are re-quantized per tensor at every layer boundary.
pub fn quantized_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let qa = Quantizer::fit(a).quantize(a);
    let qb = Quantizer::fit(b).quantize(b);
    qa.matmul(&qb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::normal_matrix;

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let m = normal_matrix(8, 8, 1.0, 11);
        let q = Quantizer::fit(&m);
        let back = q.quantize(&m).dequantize();
        let step = q.scale();
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 0.5 * step + 1e-6);
        }
    }

    #[test]
    fn zero_matrix_quantizes_cleanly() {
        let m = Matrix::zeros(3, 3);
        let q = Quantizer::fit(&m);
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.quantize(&m).dequantize(), m);
    }

    #[test]
    fn saturation_clamps_to_127() {
        let q = Quantizer::with_scale(0.01);
        assert_eq!(q.quantize_value(100.0), 127);
        assert_eq!(q.quantize_value(-100.0), -127);
    }

    #[test]
    fn quantized_matmul_close_to_fp32() {
        let a = normal_matrix(16, 24, 1.0, 1);
        let b = normal_matrix(24, 8, 1.0, 2);
        let exact = a.matmul(&b);
        let approx = quantized_matmul(&a, &b);
        // Relative Frobenius error of INT8 GEMM on Gaussian data is ~1%.
        let err = (&exact - &approx).frobenius_norm() / exact.frobenius_norm();
        assert!(err < 0.05, "relative error {err} too large");
    }

    #[test]
    fn output_scale_is_product_of_input_scales() {
        let a = Matrix::from_rows(&[&[127.0]]);
        let b = Matrix::from_rows(&[&[127.0]]);
        let qa = Quantizer::with_scale(1.0).quantize(&a);
        let qb = Quantizer::with_scale(2.0).quantize(&b);
        let out = qa.matmul(&qb);
        // 127 * 63 (saturated b/2=63.5 -> 64? round(127/2)=64) …
        // b quantizes to round(127/2)=64, product = 127*64*2 = 16256.
        assert_eq!(out[(0, 0)], 127.0 * 64.0 * 2.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn quantized_matmul_mismatch_panics() {
        let a = Quantizer::with_scale(1.0).quantize(&Matrix::zeros(2, 3));
        let b = Quantizer::with_scale(1.0).quantize(&Matrix::zeros(2, 3));
        let _ = a.matmul(&b);
    }
}
