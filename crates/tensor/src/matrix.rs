//! Owned, row-major `f32` matrices.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the workhorse of the transformer substrate: activations,
/// weights, and attention score maps are all `Matrix` values. It favours
/// clarity over raw speed: its `matmul` is the reference GEMM that the
/// transformer crate's packed-panel kernel is checked against bit for bit.
///
/// # Examples
///
/// ```
/// use nnlut_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning its row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Iterate over rows as mutable slices.
    pub fn rows_iter_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        self.data.chunks_exact_mut(self.cols)
    }

    /// Borrow rows `[r0, r1)` as one contiguous row-major slice — the
    /// row-range view the serving layer's pool hands to each worker.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > self.rows()`.
    pub fn row_block(&self, r0: usize, r1: usize) -> &[f32] {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row range {r0}..{r1} out of bounds ({})",
            self.rows
        );
        &self.data[r0 * self.cols..r1 * self.cols]
    }

    /// Mutably borrow rows `[r0, r1)` as one contiguous row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > self.rows()`.
    pub fn row_block_mut(&mut self, r0: usize, r1: usize) -> &mut [f32] {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row range {r0}..{r1} out of bounds ({})",
            self.rows
        );
        &mut self.data[r0 * self.cols..r1 * self.cols]
    }

    /// Returns the transpose.
    pub fn transposed(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Cache-blocked matrix multiplication `self * rhs`, in i-k-j order
    /// within each k-block: the inner loop is a unit-stride axpy
    /// (`out_row += a · rhs_row`), and the k-blocking keeps a ~32-row slab
    /// of `rhs` in cache across all output rows. At the default
    /// (baseline x86-64) target the axpy compiles to 4-lane SSE2.
    ///
    /// This is the reference GEMM: every output is `0.0`, then
    /// `+= self[i][k]·rhs[k][j]` for k ascending, one multiply and one add
    /// each. The serving model's linear layers, LM head and batched
    /// attention run a packed kernel that keeps exactly this per-element
    /// order and is tested against it; serial `BertModel::encode` still
    /// runs this loop, as the oracle.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Self::zeros(self.rows, rhs.cols);
        self.matmul_rows_into(rhs, 0, self.rows, &mut out.data);
        out
    }

    /// Computes output rows `[r0, r1)` of `self * rhs` into `out`, a
    /// `(r1 - r0) × rhs.cols()` row-major buffer, with the same k-blocked
    /// inner-loop order as [`Matrix::matmul`].
    ///
    /// Every output element is a function of one `self` row and all of
    /// `rhs`, accumulated in a fixed k order, so computing disjoint row
    /// ranges on different threads and computing the whole product serially
    /// produce bit-identical results — the determinism contract the
    /// serving layer's pool relies on (`matmul` itself is implemented as
    /// the full-range call of this kernel).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible, the row range is out of
    /// bounds, or `out` has the wrong length.
    pub fn matmul_rows_into(&self, rhs: &Self, r0: usize, r1: usize, out: &mut [f32]) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row range {r0}..{r1} out of bounds ({})",
            self.rows
        );
        assert_eq!(
            out.len(),
            (r1 - r0) * rhs.cols,
            "output buffer length mismatch"
        );
        out.fill(0.0);
        const BLOCK: usize = 32;
        for kk in (0..self.cols).step_by(BLOCK) {
            let k_end = (kk + BLOCK).min(self.cols);
            for i in r0..r1 {
                let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                let out_row = &mut out[(i - r0) * rhs.cols..(i - r0 + 1) * rhs.cols];
                for (k, &a) in a_row[kk..k_end]
                    .iter()
                    .enumerate()
                    .map(|(j, a)| (kk + j, a))
                {
                    let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                    for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// `self * rhs.T` without materializing the transpose: every output is
    /// `0.0`, then `+= self[i][k]·rhs[j][k]` for k ascending, one multiply
    /// and one add each, in one serial dot chain per output.
    ///
    /// This is the attention oracle for `Q·Kᵀ`. The serving model's
    /// batched and cached attention score on a packed kernel over Kᵀ
    /// panels that keeps exactly this per-element order and is tested
    /// against it; serial `BertModel::encode` still runs this loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_transpose(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Self::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Adds `bias` (a length-`cols` vector) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.rows_iter_mut() {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, f: F) -> Self {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Scales every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        self.map_inplace(|v| v * s);
    }

    /// Horizontally concatenates `self` and `rhs`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hcat(&self, rhs: &Self) -> Self {
        assert_eq!(self.rows, rhs.rows, "hcat row count mismatch");
        let mut out = Self::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Extracts columns `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.cols()`.
    pub fn col_slice(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.cols,
            "column range out of bounds"
        );
        let mut out = Self::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Maximum absolute value over all elements (0 for an empty matrix).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:+.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_transpose_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, -0.5, 0.0]]);
        let via_t = a.matmul(&b.transposed());
        let direct = a.matmul_transpose(&b);
        assert_eq!(via_t, direct);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn add_row_bias_adds_to_each_row() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_bias(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn hcat_and_col_slice_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let c = a.hcat(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.col_slice(0, 2), a);
        assert_eq!(c.col_slice(2, 3), b);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5]]);
        assert_eq!((&a + &b).row(0), &[1.5, -1.5]);
        assert_eq!((&a - &b).row(0), &[0.5, -2.5]);
        assert_eq!((&a * 2.0).row(0), &[2.0, -4.0]);
        assert_eq!(a.abs_max(), 2.0);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn row_block_views_are_contiguous_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.row_block(1, 3), &[3.0, 4.0, 5.0, 6.0]);
        let mut m = m;
        m.row_block_mut(0, 1).fill(9.0);
        assert_eq!(m.row(0), &[9.0, 9.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_block_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.row_block(1, 3);
    }

    #[test]
    fn matmul_rows_into_matches_full_matmul_bitwise() {
        // Awkward (non-multiple-of-block) shapes so the k-blocking tail and
        // uneven row splits are both exercised.
        let a = Matrix::from_vec(
            7,
            37,
            (0..7 * 37)
                .map(|i| ((i * 31) % 97) as f32 * 0.173 - 8.0)
                .collect(),
        );
        let b = Matrix::from_vec(
            37,
            5,
            (0..37 * 5)
                .map(|i| ((i * 17) % 89) as f32 * 0.091 - 4.0)
                .collect(),
        );
        let full = a.matmul(&b);
        for split in [1usize, 2, 3, 7] {
            let mut pieced = Matrix::zeros(7, 5);
            let base = 7 / split;
            let rem = 7 % split;
            let mut r0 = 0;
            for s in 0..split {
                let r1 = r0 + base + usize::from(s < rem);
                a.matmul_rows_into(&b, r0, r1, pieced.row_block_mut(r0, r1));
                r0 = r1;
            }
            for (g, w) in pieced.as_slice().iter().zip(full.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "split {split} diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "output buffer length mismatch")]
    fn matmul_rows_into_bad_out_len_panics() {
        let a = Matrix::zeros(3, 3);
        let b = Matrix::zeros(3, 3);
        let mut out = vec![0.0f32; 5];
        a.matmul_rows_into(&b, 0, 2, &mut out);
    }
}
