//! The packed-panel GEMM behind every FP32/FP16 [`crate::quant::Linear`]
//! site.
//!
//! A frozen `(k × n)` weight is stored once as 16-column *panels*: panel
//! `p` holds every k row of columns `16p … 16p+15`, row after row, with
//! the columns past `n` zero-padded. A product `x·W` then walks one panel
//! at a time and, inside it, a register tile of up to four `x` rows: each
//! 16-float panel row is loaded once and reused by all the tile's rows,
//! and the panel stays hot in cache across every row block of the call.
//! The row-major i-k-j loop ([`Matrix::matmul_rows_into`]) re-streams
//! every weight row for each output row instead.
//!
//! The tied token embedding `E` (`vocab × hidden`) is the LM head's weight
//! `Eᵀ`, and is stored the same way ([`PackedWeight::transposed`]): a
//! 16-row block of `E` is exactly one panel of `Eᵀ`. The greedy readout
//! ([`PackedWeight::argmax_cols`]) runs the same tiles and folds each
//! tile's outputs straight into a running per-row maximum, so no
//! `rows × vocab` logits buffer exists.
//!
//! # Dispatch
//!
//! The kernel is chosen **once, at pack time**, by the rule the LUT engine
//! follows ([`nnlut_core::engine::simd`]):
//!
//! * **AVX2 tile** ([`SimdLevel::Avx2`]): a `#[target_feature(enable =
//!   "avx2")]` tile holding two 8-lane accumulators per row, specialised
//!   for 1, 2, 3 and 4 rows, so a 1-row decode step computes no dead rows.
//! * **Scalar panel loop** ([`SimdLevel::Scalar`]): the same panels, one
//!   row at a time with a 16-float accumulator. Non-x86-64 targets, CPUs
//!   without AVX2 and `--no-default-features` builds always take it.
//!
//! # The bit-identity contract
//!
//! Every output is `0.0`, then `+= x[i][k]·w[k][j]` for k ascending, as
//! an IEEE multiply followed by an IEEE add (no FMA) — the per-element
//! order of [`Matrix::matmul_rows_into`], which stays the oracle. So both
//! paths equal the oracle bit for bit on every output that is not NaN,
//! and are NaN exactly where it is NaN; and any split of the row range
//! across threads reproduces the serial bits, because each output depends
//! on one `x` row and one weight column only.
//!
//! **NaN payloads are not part of the contract.** IEEE 754 leaves the
//! payload of an operation on two NaN operands unspecified, and x86
//! returns whichever NaN is the *first* operand, so the payload depends on
//! the operand order the compiler picks for `acc + prod` — which
//! the oracle does not pin either: recompiling its own source for AVX2
//! changed most of its NaN payloads, and its 1-column and 64-column
//! products disagree on most of theirs. Finite results, infinities,
//! signed zeros and NaN-ness are exact. (The LUT engines keep their full
//! bitwise contract, payloads included; see docs/PERFORMANCE.md.)

use std::ops::Range;

use nnlut_core::engine::simd::{self, SimdLevel};
use nnlut_tensor::Matrix;

/// Columns per panel: two 8-lane AVX2 registers.
const PANEL: usize = 16;

/// A frozen `(k × n)` weight stored as 16-column panels, with the kernel
/// chosen for it at pack time (see the module docs).
#[derive(Clone)]
pub(crate) struct PackedWeight {
    rows: usize,
    cols: usize,
    /// `⌈n/16⌉` panels of `k × 16` floats; entry `(p·k + r)·16 + c` is
    /// `w[r][16p + c]`, or `0.0` past column `n`.
    panels: Vec<f32>,
    level: SimdLevel,
}

/// Two packed weights are equal exactly when their row-major matrices
/// are: the same shape, and the same elements under `f32` `==` (the
/// padding is `0.0` on both sides). The kernel choice is not identity.
impl PartialEq for PackedWeight {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.panels == other.panels
    }
}

impl std::fmt::Debug for PackedWeight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PackedWeight {}x{} ({} panels, {})",
            self.rows,
            self.cols,
            self.cols.div_ceil(PANEL),
            self.level.name()
        )
    }
}

impl PackedWeight {
    /// Packs `w` for the strongest kernel the running CPU supports.
    pub(crate) fn new(w: Matrix) -> Self {
        Self::with_level(w, simd::detect())
    }

    /// Packs `w` for the kernel `level` (which the CPU must support), in
    /// `w`'s own buffer: a second copy of a large weight, even a transient
    /// one, fragments the heap and stays resident.
    fn with_level(w: Matrix, level: SimdLevel) -> Self {
        let (rows, cols) = w.shape();
        let width = cols.div_ceil(PANEL) * PANEL;
        let mut panels = w.into_vec();
        // Appended zeros become the padding, row after row.
        panels.resize(rows * width, 0.0);
        // Where the value at row-major slot `s` belongs.
        let dest = |s: usize| {
            let (r, c) = if s < rows * cols {
                (s / cols, s % cols)
            } else {
                let t = s - rows * cols;
                (t / (width - cols), cols + t % (width - cols))
            };
            ((c / PANEL) * rows + r) * PANEL + c % PANEL
        };
        // Follow each permutation cycle once, marking filled slots.
        let mut filled = vec![0u64; panels.len().div_ceil(64)];
        for start in 0..panels.len() {
            if filled[start / 64] >> (start % 64) & 1 == 1 {
                continue;
            }
            let (mut s, mut v) = (start, panels[start]);
            loop {
                let d = dest(s);
                v = std::mem::replace(&mut panels[d], v);
                filled[d / 64] |= 1 << (d % 64);
                if d == start {
                    break;
                }
                s = d;
            }
        }
        Self {
            rows,
            cols,
            panels,
            level,
        }
    }

    /// Packs `Wᵀ` for the running CPU's kernel, given the row-major `w`
    /// (`n × k`): row `j` of `w` becomes column `j` of the packed weight.
    ///
    /// A 16-row block of `w` is contiguous and holds exactly the values of
    /// one panel, in the panel's own place, so each block is transposed in
    /// place through a 16-row scratch: linear time, and no second copy of a
    /// large weight. Only the last panel's zero rows are appended.
    pub(crate) fn transposed(w: Matrix) -> Self {
        let (cols, rows) = w.shape();
        let block = rows * PANEL;
        let mut panels = w.into_vec();
        panels.resize(cols.div_ceil(PANEL) * block, 0.0);
        let mut scratch = vec![0.0f32; block];
        for panel in panels.chunks_exact_mut(block.max(1)) {
            scratch.copy_from_slice(panel);
            // `scratch` holds up to 16 rows of `w` (zeros past `n`); `w[j][r]`
            // belongs at panel entry `r·16 + j`.
            for (j, w_row) in scratch.chunks_exact(rows).enumerate() {
                for (r, &v) in w_row.iter().enumerate() {
                    panel[r * PANEL + j] = v;
                }
            }
        }
        Self {
            rows,
            cols,
            panels,
            level: simd::detect(),
        }
    }

    /// The row-major weight, bit for bit.
    pub(crate) fn unpack(&self) -> Matrix {
        let mut w = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (p, cells) in w.row_mut(r).chunks_mut(PANEL).enumerate() {
                let at = (p * self.rows + r) * PANEL;
                cells.copy_from_slice(&self.panels[at..at + cells.len()]);
            }
        }
        w
    }

    /// `f` applied to every element, padding included, keeping the kernel.
    pub(crate) fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            panels: self.panels.iter().map(|&v| f(v)).collect(),
            ..self.clone()
        }
    }

    /// Input dimension `k`.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Output dimension `n`.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Number of 16-column panels, `⌈n/16⌉`.
    pub(crate) fn panel_count(&self) -> usize {
        self.cols.div_ceil(PANEL)
    }

    /// Column `j`, top to bottom: a stride-16 walk down its panel.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n`.
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(j < self.cols, "column {j} out of {}", self.cols);
        let at = (j / PANEL) * self.rows * PANEL + j % PANEL;
        self.panels
            .iter()
            .skip(at)
            .step_by(PANEL)
            .take(self.rows)
            .copied()
    }

    /// For each of the `m` rows of `a` (`m × k`, row-major), the
    /// `(column, output)` of the row's greatest `x·W` output over the
    /// columns of `panels`: a fold from `(0, −inf)` over those columns in
    /// ascending order that takes a column only when its output is
    /// strictly `>` the best so far. So ties keep the lowest column, NaN
    /// outputs never win, and a row with nothing above `−inf` keeps
    /// `(0, −inf)`. Only the real columns count: a padding column's output
    /// is `0.0` and would otherwise beat an all-negative row. The outputs
    /// are the GEMM's, bit for bit (see the module docs), one tile of up to
    /// four rows and one panel at a time.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m·k` or a panel is out of range.
    pub(crate) fn argmax_cols(
        &self,
        a: &[f32],
        m: usize,
        panels: Range<usize>,
    ) -> Vec<(usize, f32)> {
        let k = self.rows;
        assert_eq!(a.len(), m * k, "argmax input length mismatch");
        assert!(
            panels.end <= self.panel_count(),
            "panel range out of bounds"
        );
        let mut best = vec![(0usize, f32::NEG_INFINITY); m];
        let mut tile = [0.0f32; 4 * PANEL];
        for p in panels {
            let c0 = p * PANEL;
            let width = (self.cols - c0).min(PANEL);
            for (i, best) in best.chunks_mut(4).enumerate() {
                let out = &mut tile[..best.len() * PANEL];
                self.panel_tile(&a[4 * i * k..(4 * i + best.len()) * k], p, out);
                for (b, logits) in best.iter_mut().zip(out.chunks_exact(PANEL)) {
                    for (j, &v) in logits[..width].iter().enumerate() {
                        if v > b.1 {
                            *b = (c0 + j, v);
                        }
                    }
                }
            }
        }
        best
    }

    /// Up to four rows of `a` times panel `p`: all 16 columns, padding
    /// included, into `out` (`rows × 16`).
    fn panel_tile(&self, a: &[f32], p: usize, out: &mut [f32]) {
        let k = self.rows;
        let rows = out.len() / PANEL;
        assert!(
            rows <= 4 && out.len() == rows * PANEL && a.len() == rows * k,
            "panel tile shape mismatch"
        );
        let panel = &self.panels[p * k * PANEL..(p + 1) * k * PANEL];
        match self.level {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            // SAFETY: `level` is `Avx2` only when the CPU has AVX2 (see
            // `matmul_rows_into`); the assert above sizes `a` and `out` to
            // `rows ≤ 4` rows, and `panel` is one whole `k × 16` panel.
            SimdLevel::Avx2 => unsafe {
                avx2::tile_rows(
                    rows,
                    a.as_ptr(),
                    k,
                    panel.as_ptr(),
                    out.as_mut_ptr(),
                    PANEL,
                    PANEL,
                )
            },
            _ => {
                for (r, acc) in out.chunks_exact_mut(PANEL).enumerate() {
                    scalar_row(&a[r * k..(r + 1) * k], panel, acc);
                }
            }
        }
    }

    /// Rows `[r0, r1)` of `x · W` into `out`, a `(r1 - r0) × n` row-major
    /// buffer — [`Matrix::matmul_rows_into`]'s contract, on the panels.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != k`, the row range is out of bounds, or `out`
    /// has the wrong length.
    pub(crate) fn matmul_rows_into(&self, x: &Matrix, r0: usize, r1: usize, out: &mut [f32]) {
        assert_eq!(
            x.cols(),
            self.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            x.rows(),
            x.cols(),
            self.rows,
            self.cols
        );
        let a = x.row_block(r0, r1);
        assert_eq!(
            out.len(),
            (r1 - r0) * self.cols,
            "output buffer length mismatch"
        );
        match self.level {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            // SAFETY: `level` is `Avx2` only when `simd::detect()` found
            // AVX2 (or a test that checked it); the shapes are asserted.
            SimdLevel::Avx2 => unsafe { avx2::gemm(self, a, out) },
            _ => self.gemm_scalar(a, out),
        }
    }

    /// The scalar panel loop: one row at a time, 16 accumulators.
    fn gemm_scalar(&self, a: &[f32], out: &mut [f32]) {
        let (k, n) = (self.rows, self.cols);
        for p in 0..n.div_ceil(PANEL) {
            let panel = &self.panels[p * k * PANEL..(p + 1) * k * PANEL];
            let c0 = p * PANEL;
            let width = (n - c0).min(PANEL);
            for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
                let mut acc = [0.0f32; PANEL];
                scalar_row(&a[i * k..(i + 1) * k], panel, &mut acc);
                out_row[c0..c0 + width].copy_from_slice(&acc[..width]);
            }
        }
    }
}

/// One row of `k` times one `k × 16` panel into `acc`: each output from
/// `0.0`, adding in k order.
fn scalar_row(a_row: &[f32], panel: &[f32], acc: &mut [f32]) {
    acc.fill(0.0);
    for (&av, w) in a_row.iter().zip(panel.chunks_exact(PANEL)) {
        for (o, &wv) in acc.iter_mut().zip(w) {
            *o += av * wv;
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use core::arch::x86_64::*;

    use super::{PackedWeight, PANEL};

    /// Every panel, then every block of up to four rows: the panel is
    /// read from memory once per call and reused across the row blocks.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; `a` holds `out.len() / n` rows of `k`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm(w: &PackedWeight, a: &[f32], out: &mut [f32]) {
        let (k, n) = (w.rows, w.cols);
        if n == 0 {
            return;
        }
        let m = out.len() / n;
        for p in 0..n.div_ceil(PANEL) {
            let panel = w.panels.as_ptr().add(p * k * PANEL);
            let width = (n - p * PANEL).min(PANEL);
            let mut i = 0;
            while i < m {
                let a = a.as_ptr().add(i * k);
                let o = out.as_mut_ptr().add(i * n + p * PANEL);
                tile_rows(m - i, a, k, panel, o, n, width);
                i += 4;
            }
        }
    }

    /// [`tile`] for `min(rows, 4)` rows.
    ///
    /// # Safety
    ///
    /// As [`tile`], for `min(rows, 4)` rows.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_rows(
        rows: usize,
        a: *const f32,
        k: usize,
        panel: *const f32,
        out: *mut f32,
        n: usize,
        width: usize,
    ) {
        match rows {
            0 => {}
            1 => tile::<1>(a, k, panel, out, n, width),
            2 => tile::<2>(a, k, panel, out, n, width),
            3 => tile::<3>(a, k, panel, out, n, width),
            _ => tile::<4>(a, k, panel, out, n, width),
        }
    }

    /// `R` rows × one panel: `R × 2` accumulators from `+0.0`, then per k
    /// row one panel-row load pair, shared by every row's broadcast
    /// multiply and add (no FMA). Stores `width` columns per row.
    ///
    /// # Safety
    ///
    /// AVX2; `a` points at `R` rows of `k` floats, `panel` at `k × 16`
    /// floats, `out` at `R` rows (stride `n`) with `width` writable floats.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize>(
        a: *const f32,
        k: usize,
        panel: *const f32,
        out: *mut f32,
        n: usize,
        width: usize,
    ) {
        let mut lo = [_mm256_setzero_ps(); R];
        let mut hi = [_mm256_setzero_ps(); R];
        for kk in 0..k {
            let w_lo = _mm256_loadu_ps(panel.add(kk * PANEL));
            let w_hi = _mm256_loadu_ps(panel.add(kk * PANEL + 8));
            for r in 0..R {
                let av = _mm256_set1_ps(*a.add(r * k + kk));
                lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, w_lo));
                hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, w_hi));
            }
        }
        for r in 0..R {
            let o = out.add(r * n);
            if width == PANEL {
                _mm256_storeu_ps(o, lo[r]);
                _mm256_storeu_ps(o.add(8), hi[r]);
            } else {
                let mut row = [0.0f32; PANEL];
                _mm256_storeu_ps(row.as_mut_ptr(), lo[r]);
                _mm256_storeu_ps(row.as_mut_ptr().add(8), hi[r]);
                core::ptr::copy_nonoverlapping(row.as_ptr(), o, width);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: a dependency-free stream for shapes, values and ranges.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A normal-ish value, or with probability `special` one of ±inf,
        /// −0.0, ±1e38 (products overflow) and NaN.
        fn value(&mut self, special: f64) -> f32 {
            const SPECIALS: [f32; 6] = [
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
                1e38,
                -1e38,
                f32::NAN,
            ];
            if (self.next() as f64 / u64::MAX as f64) < special {
                SPECIALS[self.below(SPECIALS.len())]
            } else {
                (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            }
        }

        fn matrix(&mut self, rows: usize, cols: usize, special: f64) -> Matrix {
            Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols).map(|_| self.value(special)).collect(),
            )
        }
    }

    /// The kernels under test: the dispatched one (AVX2 on AVX2 hosts with
    /// the `simd` feature) and the scalar panel loop.
    fn levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        if simd::detect() == SimdLevel::Avx2 {
            levels.push(SimdLevel::Avx2);
        }
        levels
    }

    #[test]
    fn packed_gemm_matches_the_row_major_oracle() {
        let mut rng = Mix(0x5EED);
        let mut checked = 0usize;
        for k in [1usize, 17, 768] {
            for n in [1usize, 15, 16, 17, 33, 770] {
                for m in 0..=9usize {
                    // Rare specials keep most outputs finite at k = 768;
                    // dense ones make NaN/inf the common case at small k.
                    let special = [0.0, 0.5 / k as f64, 0.3][rng.below(3)];
                    let x = rng.matrix(m, k, special);
                    let w = rng.matrix(k, n, special);
                    let mut ranges = vec![(0, m)];
                    for _ in 0..3 {
                        let r0 = rng.below(m + 1);
                        ranges.push((r0, r0 + rng.below(m - r0 + 1)));
                    }
                    for level in levels() {
                        let packed = PackedWeight::with_level(w.clone(), level);
                        for &(r0, r1) in &ranges {
                            let mut want = vec![0.0; (r1 - r0) * n];
                            let mut got = vec![f32::from_bits(0x7fc0_dead); want.len()];
                            x.matmul_rows_into(&w, r0, r1, &mut want);
                            packed.matmul_rows_into(&x, r0, r1, &mut got);
                            for (j, (g, o)) in got.iter().zip(&want).enumerate() {
                                let ok = if o.is_nan() {
                                    g.is_nan()
                                } else {
                                    g.to_bits() == o.to_bits()
                                };
                                assert!(
                                    ok,
                                    "{} {m}x{k}x{n} rows {r0}..{r1}, output {j}: {g:e} != {o:e}",
                                    level.name()
                                );
                            }
                            checked += want.len();
                        }
                    }
                }
            }
        }
        assert!(checked > 100_000, "only {checked} outputs compared");
    }

    #[test]
    fn unpack_inverts_pack_bitwise() {
        let mut rng = Mix(7);
        for (k, n) in [
            (0, 5),
            (3, 0),
            (1, 1),
            (17, 15),
            (17, 16),
            (5, 33),
            (9, 770),
        ] {
            let w = rng.matrix(k, n, 0.3);
            let packed = PackedWeight::new(w.clone());
            assert_eq!((packed.rows(), packed.cols()), (k, n));
            let back = packed.unpack();
            assert_eq!(back.shape(), w.shape());
            for (b, o) in back.as_slice().iter().zip(w.as_slice()) {
                assert_eq!(b.to_bits(), o.to_bits(), "{k}x{n}");
            }
        }
    }

    fn bits(v: impl IntoIterator<Item = f32>) -> Vec<u32> {
        v.into_iter().map(f32::to_bits).collect()
    }

    /// `transposed` packs exactly what the general pack makes of `Wᵀ`,
    /// padding included, and reads its columns back as `w`'s rows.
    #[test]
    fn transposed_pack_is_the_pack_of_the_transpose() {
        let mut rng = Mix(11);
        for (n, k) in [
            (0, 3),
            (3, 0),
            (1, 1),
            (15, 17),
            (16, 17),
            (37, 5),
            (129, 64),
        ] {
            let w = rng.matrix(n, k, 0.3);
            let packed = PackedWeight::transposed(w.clone());
            let general = PackedWeight::new(w.transposed());
            assert_eq!((packed.rows(), packed.cols()), (k, n));
            assert_eq!(
                bits(packed.panels.iter().copied()),
                bits(general.panels.iter().copied()),
                "{n}x{k}"
            );
            for j in 0..n {
                assert_eq!(
                    bits(packed.col(j)),
                    bits(w.row(j).iter().copied()),
                    "{n}x{k} col {j}"
                );
            }
        }
    }

    /// The greedy fold over `E·h` against a row-major loop over `E`: every
    /// logit bit for bit (NaN-ness for NaN), and the first strict maximum
    /// from `(0, −inf)`, on both kernels. Vocabularies leave a partial last
    /// panel; the rows include one whose logits are all negative and
    /// greatest in that panel (a padding column's `0.0` must not win), an
    /// all-zero row (every logit ties: id 0), and NaN and ±inf rows.
    #[test]
    fn argmax_matches_the_row_major_first_max() {
        let mut rng = Mix(0xA4);
        let k = 24;
        for n in [1usize, 15, 16, 17, 37, 129] {
            // Column 0 is positive and smallest at the last id, so the row
            // (−1, 0, …) has only negative logits, the greatest at n − 1.
            let mut e = rng.matrix(n, k, 0.0);
            for (t, row) in e.rows_iter_mut().enumerate() {
                row[0] = 1.0 + (n - 1 - t) as f32 / 64.0;
            }
            let mut negative = vec![0.0f32; k];
            negative[0] = -1.0;
            let mut pool = vec![negative, vec![0.0; k]];
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut row = rng.matrix(1, k, 0.0).into_vec();
                row[1] = special;
                pool.push(row);
            }
            pool.extend((0..4).map(|_| rng.matrix(1, k, 0.0).into_vec()));
            for level in levels() {
                let packed = PackedWeight {
                    level,
                    ..PackedWeight::transposed(e.clone())
                };
                for m in 0..=9usize {
                    let rows: Vec<f32> = (0..m)
                        .flat_map(|i| pool[(i + m) % pool.len()].clone())
                        .collect();
                    let x = Matrix::from_vec(m, k, rows);
                    let mut got = vec![0.0f32; m * n];
                    packed.matmul_rows_into(&x, 0, m, &mut got);
                    let best = packed.argmax_cols(x.as_slice(), m, 0..packed.panel_count());
                    for (i, h) in x.rows_iter().enumerate() {
                        let mut want = (0usize, f32::NEG_INFINITY);
                        for (t, e_row) in e.rows_iter().enumerate() {
                            let mut logit = 0.0f32;
                            for (&hv, &ev) in h.iter().zip(e_row) {
                                logit += hv * ev;
                            }
                            let g = got[i * n + t];
                            assert!(
                                if logit.is_nan() {
                                    g.is_nan()
                                } else {
                                    g.to_bits() == logit.to_bits()
                                },
                                "{} n {n} row {i} logit {t}: {g:e} != {logit:e}",
                                level.name()
                            );
                            if logit > want.1 {
                                want = (t, logit);
                            }
                        }
                        assert_eq!(
                            (best[i].0, best[i].1.to_bits()),
                            (want.0, want.1.to_bits()),
                            "{} n {n} m {m} row {i}",
                            level.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn equality_follows_the_row_major_matrix() {
        let w = Matrix::from_rows(&[&[1.0, -0.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut z = w.clone();
        z[(0, 1)] = 0.0;
        let mut nan = w.clone();
        nan[(1, 2)] = f32::NAN;
        let mut other = w.clone();
        other[(1, 0)] = 4.5;
        for (v, same) in [(&w, true), (&z, true), (&nan, false), (&other, false)] {
            assert_eq!(&w == v, same);
            assert_eq!(
                PackedWeight::new(w.clone()) == PackedWeight::new(v.clone()),
                same
            );
        }
        let packed = PackedWeight::new(w.clone());
        assert!(packed == PackedWeight::with_level(w.clone(), SimdLevel::Scalar));
        assert!(packed != PackedWeight::new(w.transposed()));
    }
}
