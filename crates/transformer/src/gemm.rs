//! The packed-panel GEMM behind every FP32/FP16 [`crate::quant::Linear`]
//! site, the LM head and both attention products.
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
//! # The LM head
//!
//! The tied token embedding `E` (`vocab × hidden`) is the LM head's weight
//! `Eᵀ`, stored as *split* panels ([`LmHead`]): a 16-row block of `E` is
//! exactly one panel of `Eᵀ`, held as the high 16 bits of its values (a
//! bf16 truncation) followed by their low 16 bits, and split in place. The
//! greedy readout ([`LmHead::argmax_cols`]) screens every column on the
//! high halves alone, half the bytes, with a per-column error bound fixed
//! at pack time. Only the columns the bound cannot rule out are rebuilt as
//! f32 and rescored by the tile, and their exact logits fold straight into
//! a running per-row maximum, so no `rows × vocab` logits buffer exists.
//!
//! # Attention
//!
//! The tile reads any operand laid out as 16-column panels ([`Panels`]:
//! a panel stride and a row stride), so attention's two
//! activation·activation products run on it without a frozen weight:
//!
//! * **Q·Kᵀ.** Kᵀ of an encode batch's (sequence, head) pair is packed as
//!   *Kᵀ blocks*: 16 positions per block, each block one `dh × 16` panel
//!   ([`pack_keys`], inside the lane that owns the pair). The decoder's
//!   KV cache stores each layer's keys the same way, all heads' channels
//!   in one `hidden × 16` block ([`push_key`], growing one whole block at
//!   a time inside the cache's reservation), and a head's Kᵀ is a view of
//!   its channels ([`key_panels`]).
//! * **scores·V.** A V row already holds a head's columns as runs of 16,
//!   so V is read where it lies ([`Panels::row_major`], row stride
//!   `hidden`), in a projection's output or the cache. A causal product
//!   takes its rows as the last of the cache's positions and sums each
//!   over its own prefix only.
//!
//! # Dispatch
//!
//! The kernel is chosen **once, at pack time** for a weight (and per
//! product for an attention operand), by the rule the LUT engine follows
//! ([`nnlut_core::engine::simd`]):
//!
//! * **AVX2 tile** ([`SimdLevel::Avx2`]): a `#[target_feature(enable =
//!   "avx2")]` tile holding two 8-lane accumulators per row, specialised
//!   for 1, 2, 3 and 4 rows, so a 1-row decode step computes no dead rows.
//! * **Scalar panel loop** ([`SimdLevel::Scalar`]): the same panels, one
//!   row at a time with a 16-float accumulator. Non-x86-64 targets, CPUs
//!   without AVX2 and `--no-default-features` builds always take it. So
//!   does a partial last panel read in place whose 16-float rows would run
//!   off the end of the buffer.
//!
//! The LM head's screen follows the same choice: an AVX2 kernel of the
//! tile's shape over the high halves (prefetching the next panel's, whose
//! place the hardware streams would not guess), or a scalar loop.
//!
//! # The bit-identity contract
//!
//! Every output is `0.0`, then `+= x[i][k]·w[k][j]` for k ascending, as
//! an IEEE multiply followed by an IEEE add (no FMA) — the per-element
//! order of [`Matrix::matmul_rows_into`] and, for Q·Kᵀ, of
//! [`Matrix::matmul_transpose`], which stay the oracles. So both paths
//! equal the oracle bit for bit on every output that is not NaN, and are
//! NaN exactly where it is NaN; and any split of the row range across
//! threads reproduces the serial bits, because each output depends on one
//! `x` row and one weight column only.
//!
//! The LM head's screened logits are not under the contract: only its
//! chosen tokens and their rescored logits are, which are the tile's
//! outputs over the rebuilt panels and so the oracle's, bit for bit.
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
        self.view()
            .product(a, self.rows, r1 - r0, false, out, self.cols);
    }

    /// The panels as a [`Panels`] operand, with this weight's kernel.
    fn view(&self) -> Panels<'_> {
        Panels {
            data: &self.panels,
            k: self.rows,
            n: self.cols,
            panel_stride: self.rows * PANEL,
            row_stride: PANEL,
            level: self.level,
        }
    }
}

/// Words per half of a split panel row: column `c` and column `c + 8`
/// share word `c`.
const HALF: usize = PANEL / 2;

/// The high 16 bits of a word's two values, as floats: the bf16
/// truncations of columns `c` (low half-word) and `c + 8` (high half-word).
const HIGH: u32 = 0xFFFF_0000;

/// `γ_k = k·u/(1 − k·u)` for f32's unit roundoff `u = 2⁻²⁴`, rounded up:
/// every k-term dot product, in any summation order, lies within
/// `γ_k·Σ|x_i·y_i|` of the exact sum when nothing overflows or underflows.
/// Infinite once `k·u ≥ 1/2`, where the bound no longer earns its keep.
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * f64::powi(2.0, -24);
    if ku >= 0.5 {
        f64::INFINITY
    } else {
        ku / (1.0 - ku) * (1.0 + f64::powi(2.0, -30))
    }
}

/// `x` as an f32 rounded up (`+inf` for NaN): `x`'s own f64 rounding error
/// is the caller's to cover.
fn f32_up(x: f64) -> f32 {
    let f = x as f32;
    if x.is_nan() {
        f32::INFINITY
    } else if (f as f64) < x {
        f.next_up()
    } else {
        f
    }
}

/// The tied LM head `Eᵀ` (`k × n`: hidden × vocab; token `t`'s embedding is
/// column `t`) as *split* 16-column panels, read by a screened greedy
/// readout ([`LmHead::argmax_cols`]; see the module docs).
///
/// Panel `p` is a *high* half then a *low* half, each `k × 8` words: word
/// `c` of a half's row `r` holds the high (or the low) 16 bits of
/// `Eᵀ[r][16p + c]` in its low half-word and of `Eᵀ[r][16p + c + 8]` in its
/// high half-word. The screen reads the high halves only, half the bytes,
/// and widens a word to two floats with one shift and one mask. Beside the
/// panels sits one float per column, the screen's error per unit of ‖h‖₂.
#[derive(Clone)]
pub(crate) struct LmHead {
    rows: usize,
    cols: usize,
    /// `⌈n/16⌉` panels of `16·k` words: word `16k·p + 8r + c` holds the
    /// high 16 bits of columns `16p + c` and `16p + c + 8` of row `r`, word
    /// `16k·p + 8k + 8r + c` their low 16 bits, zero past column `n`.
    words: Vec<u32>,
    /// Per column `t`, `c_t = ‖E_t − hi(E_t)‖₂ + 2γ_k‖E_t‖₂` rounded up, or
    /// `+inf` when `E_t` holds a non-finite value.
    slack: Vec<f32>,
    level: SimdLevel,
}

impl std::fmt::Debug for LmHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LmHead {}x{} ({} split panels, {})",
            self.rows,
            self.cols,
            self.panel_count(),
            self.level.name()
        )
    }
}

/// The two values `hi` and `lo` (a high-half word and its low-half twin)
/// hold: column `c`'s bits, then column `c + 8`'s.
fn join(hi: u32, lo: u32) -> [f32; 2] {
    [
        f32::from_bits(hi << 16 | lo & 0xFFFF),
        f32::from_bits(hi & HIGH | lo >> 16),
    ]
}

impl LmHead {
    /// Splits the row-major embedding `e` (`n × k`) for the running CPU's
    /// screen: row `t` of `e` becomes column `t`.
    pub(crate) fn new(e: Matrix) -> Self {
        Self::with_level(e, simd::detect())
    }

    /// Splits `e` for the screen `level` (which the CPU must support), in
    /// `e`'s own buffer. A 16-row block of `e` is contiguous and holds
    /// exactly the values of one panel, in the panel's own place, so each
    /// block is split in place through a one-panel scratch: linear time,
    /// and no second copy of a large weight. Only the last panel's zero
    /// rows are appended.
    fn with_level(e: Matrix, level: SimdLevel) -> Self {
        let (cols, rows) = e.shape();
        let block = rows * PANEL;
        let mut floats = e.into_vec();
        floats.resize(cols.div_ceil(PANEL) * block, 0.0);
        // Same size and alignment: the collect reuses the allocation.
        let mut words: Vec<u32> = floats.into_iter().map(f32::to_bits).collect();
        let mut scratch = vec![0u32; block];
        let mut slack = Vec::with_capacity(cols);
        let gamma = gamma(rows);
        for (p, panel) in words.chunks_exact_mut(block.max(1)).enumerate() {
            scratch.copy_from_slice(panel);
            let (high, low) = panel.split_at_mut(rows * HALF);
            // `scratch` holds up to 16 rows of `e` (zeros past `n`). Columns
            // `0..8` fill each word's low half-word, then `8..16` its high.
            for (j, e_row) in scratch.chunks_exact(rows).enumerate() {
                let (mut tail, mut norm) = (0.0f64, 0.0f64);
                for (r, &v) in e_row.iter().enumerate() {
                    let at = r * HALF + j % HALF;
                    if j < HALF {
                        (high[at], low[at]) = (v >> 16, v & 0xFFFF);
                    } else {
                        high[at] |= v & HIGH;
                        low[at] |= v << 16;
                    }
                    // Both terms are exact in f64; only the sums round.
                    let x = f32::from_bits(v) as f64;
                    let d = x - f32::from_bits(v & HIGH) as f64;
                    (tail, norm) = (tail + d * d, norm + x * x);
                }
                if p * PANEL + j < cols {
                    // A non-finite entry makes `tail` NaN: `+inf`.
                    let c = tail.sqrt() + 2.0 * gamma * norm.sqrt();
                    slack.push(f32_up(c * (1.0 + f64::powi(2.0, -30))));
                }
            }
        }
        // Zero-depth columns have no entries, so no slack.
        slack.resize(cols, 0.0);
        Self {
            rows,
            cols,
            words,
            slack,
            level,
        }
    }

    /// The `(high, low)` halves of panel `p`.
    fn halves(&self, p: usize) -> (&[u32], &[u32]) {
        let block = self.rows * PANEL;
        self.words[p * block..(p + 1) * block].split_at(self.rows * HALF)
    }

    /// `Eᵀ` (`k × n`, row-major), bit for bit.
    #[cfg(test)]
    pub(crate) fn unpack(&self) -> Matrix {
        let mut w = Matrix::zeros(self.rows, self.cols);
        let mut panel = vec![0.0f32; self.rows * PANEL];
        for p in 0..self.panel_count() {
            self.rebuild(p, &mut panel);
            let width = (self.cols - p * PANEL).min(PANEL);
            for (r, cells) in panel.chunks_exact(PANEL).enumerate() {
                w.row_mut(r)[p * PANEL..p * PANEL + width].copy_from_slice(&cells[..width]);
            }
        }
        w
    }

    /// Number of 16-column panels, `⌈n/16⌉`.
    pub(crate) fn panel_count(&self) -> usize {
        self.cols.div_ceil(PANEL)
    }

    /// Column `j` (token `j`'s embedding), top to bottom: each value is
    /// joined from its two halves, a stride-8 walk down each.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n`.
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(j < self.cols, "column {j} out of {}", self.cols);
        let (high, low) = self.halves(j / PANEL);
        let (c, side) = (j % HALF, j % PANEL / HALF);
        high.iter()
            .skip(c)
            .step_by(HALF)
            .zip(low.iter().skip(c).step_by(HALF))
            .map(move |(&hi, &lo)| join(hi, lo)[side])
    }

    /// Panel `p` as plain f32 panel rows (`k × 16`, the layout
    /// [`Panels::product`] reads) into `out`.
    fn rebuild(&self, p: usize, out: &mut [f32]) {
        let (high, low) = self.halves(p);
        let rows = out
            .chunks_exact_mut(PANEL)
            .zip(high.chunks_exact(HALF).zip(low.chunks_exact(HALF)));
        for (o, (high, low)) in rows {
            for c in 0..HALF {
                [o[c], o[c + HALF]] = join(high[c], low[c]);
            }
        }
    }

    /// The screened logits `S` of the `m ≤ 4` rows of `a` (rows `k` apart)
    /// over panel `p`'s high half: the bf16-truncated Eᵀ, summed in any
    /// order (see [`LmHead::argmax_cols`] for why any order will do).
    fn screen(&self, a: &[f32], m: usize, p: usize, s: &mut [[f32; PANEL]; 4]) {
        let k = self.rows;
        let (high, _) = self.halves(p);
        assert!(m <= 4 && a.len() >= m * k, "screen operand too short");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if self.level == SimdLevel::Avx2 && m > 0 {
            // SAFETY: `level` is `Avx2` only when `simd::detect()` found
            // AVX2 (or a test that checked it). The assert bounds the `m`
            // rows of `a` read; `high` and `next` are whole high halves, `k`
            // rows of 8 words; `s` holds four rows.
            // The next panel's high half, or this one's again at the last.
            let next = self.halves((p + 1).min(self.panel_count() - 1)).0;
            unsafe {
                let (a, high, s) = (a.as_ptr(), high.as_ptr(), s.as_mut_ptr());
                let next = next.as_ptr();
                match m {
                    1 => avx2::screen::<1>(a, k, high, next, s),
                    2 => avx2::screen::<2>(a, k, high, next, s),
                    3 => avx2::screen::<3>(a, k, high, next, s),
                    _ => avx2::screen::<4>(a, k, high, next, s),
                }
            }
            return;
        }
        for (r, out) in s[..m].iter_mut().enumerate() {
            let h = &a[r * k..(r + 1) * k];
            let mut acc = [0.0f32; PANEL];
            for (&hv, w) in h.iter().zip(high.chunks_exact(HALF)) {
                for c in 0..HALF {
                    acc[c] += hv * f32::from_bits(w[c] << 16);
                    acc[c + HALF] += hv * f32::from_bits(w[c] & HIGH);
                }
            }
            *out = acc;
        }
    }

    /// For each of the `m` rows of `a` (`m × k`, row-major), the
    /// `(column, logit)` of the row's greatest `x·Eᵀ` logit over the
    /// columns of `panels`: a fold from `(0, −inf)` over those columns in
    /// ascending order that takes a column only when its logit is strictly
    /// `>` the best so far. So ties keep the lowest column, NaN logits
    /// never win, and a row with nothing above `−inf` keeps `(0, −inf)`.
    /// Only the real columns count: a padding column's logit would
    /// otherwise beat an all-negative row. The logits are the GEMM's, bit
    /// for bit (see the module docs).
    ///
    /// Screen, then rescore. The screen runs the tile over the high halves
    /// only; every exact logit `L_t` of a row `h` lies within `B_t =
    /// ‖h‖₂·c_t + (k+1)·2⁻¹⁴⁸` of its screened `S_t` (rounded outward),
    /// and the interval is `(−inf, +inf)` when `h`, `E_t` or `S_t` is
    /// non-finite, or `B_t` so large that a sum could overflow. A column
    /// is kept when its upper bound reaches the greatest lower bound seen
    /// (an earlier column whose lower bound it cannot pass is dropped at
    /// once: it could tie that column at best, and ties keep the earlier).
    /// The kept columns' panels are rebuilt as f32 and their exact logits
    /// computed by [`Panels::product`], folded in ascending order; a kept
    /// column whose upper bound cannot pass the exact best is skipped.
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
        let gamma = gamma(k);
        // A bound past `γ_k·MAX` allows ‖h‖₂·‖E_t‖₂ ≥ MAX/2: a sum might
        // overflow, outside the error model.
        let limit = (gamma * f32::MAX as f64) as f32;
        let bounds: Vec<(f32, f32)> = (0..m).map(|i| row_bound(&a[i * k..(i + 1) * k])).collect();
        // Per row: the greatest lower bound so far, and the kept columns
        // `(column, row, upper bound)`, panel by panel.
        let mut floor = vec![f32::NEG_INFINITY; m];
        let mut kept: Vec<(usize, usize, f32)> = Vec::new();
        let mut s = [[0.0f32; PANEL]; 4];
        for p in panels.clone() {
            let c0 = p * PANEL;
            let width = (self.cols - c0).min(PANEL);
            let slack = &self.slack[c0..c0 + width];
            for i in (0..m).step_by(4) {
                let rows = (m - i).min(4);
                self.screen(&a[i * k..], rows, p, &mut s);
                for (row, s) in (i..i + rows).zip(&s) {
                    let ((scale, abs), floor) = (bounds[row], &mut floor[row]);
                    for ((j, &s), &c) in s[..width].iter().enumerate().zip(slack) {
                        let b = scale * c + abs;
                        if !(b <= limit && s.is_finite()) {
                            kept.push((c0 + j, row, f32::INFINITY));
                        } else if b == 0.0 {
                            // `h` is zero: `S_t` is the exact logit.
                            if s > *floor {
                                kept.push((c0 + j, row, s));
                                *floor = s;
                            }
                        } else {
                            // `fl(S + B) ≥ floor` exactly when its next float
                            // up, an upper bound, passes the floor.
                            let (up, lo) = (s + b, s - b);
                            if up >= *floor {
                                kept.push((c0 + j, row, up.next_up()));
                            }
                            if lo > *floor {
                                *floor = lo.next_down();
                            }
                        }
                    }
                }
            }
        }
        let mut best = vec![(0usize, f32::NEG_INFINITY); m];
        let mut panel = vec![0.0f32; k * PANEL];
        let mut built = usize::MAX;
        // Per row: the exact logits of one panel, and which.
        let mut exact = vec![([0.0f32; PANEL], usize::MAX); m];
        for (t, row, up) in kept {
            if up < floor[row] || up <= best[row].1 {
                continue;
            }
            let p = t / PANEL;
            if exact[row].1 != p {
                if built != p {
                    self.rebuild(p, &mut panel);
                    built = p;
                }
                let view = Panels {
                    level: self.level,
                    ..Panels::new(&panel, k, (self.cols - p * PANEL).min(PANEL), 0, PANEL)
                };
                view.product(&a[row * k..], k, 1, false, &mut exact[row].0, PANEL);
                exact[row].1 = p;
            }
            let logit = exact[row].0[t % PANEL];
            if logit > best[row].1 {
                best[row] = (t, logit);
            }
        }
        best
    }
}

/// A row `h`'s bound `B_t = scale·c_t + abs` as `(scale, abs)`: `(0, 0)`
/// for a zero row (its screen is exact), `scale = +inf` for a non-finite
/// or overflowing ‖h‖₂, else ‖h‖₂ and the underflow term, rounded up so
/// that `fl(scale·c_t + abs)` still bounds both dot products' error.
fn row_bound(h: &[f32]) -> (f32, f32) {
    let sq: f64 = h.iter().map(|&v| v as f64 * v as f64).sum();
    let norm = f32_up(sq.sqrt() * (1.0 + f64::powi(2.0, -30)));
    if norm == 0.0 {
        return (0.0, 0.0);
    }
    // Each of the two dot products' k underflowing products errs by at
    // most 2⁻¹⁵⁰; the factor and the spare term cover the roundings of
    // `scale·c_t + abs` itself.
    let scale = norm * (1.0 + f32::powi(2.0, -20));
    let abs = (h.len() as f32 + 1.0) * f32::from_bits(2);
    (scale, abs)
}

/// A `k × n` right-hand operand read as 16-column panels where it lies:
/// row `r` of panel `p` is the (up to) 16 floats that start at
/// `data[p·panel_stride + r·row_stride]`. A [`PackedWeight`] is one (rows
/// 16 apart, panels `k·16` apart); so are the Kᵀ blocks of [`push_key`]
/// (panels a whole block apart); and so is a row-major matrix read in
/// place, such as an attention head's V (rows its row stride apart,
/// panels 16 apart).
#[derive(Clone, Copy)]
pub(crate) struct Panels<'a> {
    data: &'a [f32],
    k: usize,
    n: usize,
    panel_stride: usize,
    row_stride: usize,
    level: SimdLevel,
}

impl<'a> Panels<'a> {
    /// The operand `data` holds at the given strides, for the strongest
    /// kernel the running CPU supports.
    ///
    /// # Panics
    ///
    /// Panics if an element of the operand lies past the end of `data`.
    fn new(data: &'a [f32], k: usize, n: usize, panel_stride: usize, row_stride: usize) -> Self {
        let panels = n.div_ceil(PANEL);
        // One past panel `p`'s last element; the last two panels bound all.
        let end = |p: usize| p * panel_stride + (k - 1) * row_stride + (n - p * PANEL).min(PANEL);
        assert!(
            k == 0
                || n == 0
                || (end(panels - 1) <= data.len() && (panels < 2 || end(panels - 2) <= data.len())),
            "panel operand out of bounds"
        );
        Self {
            data,
            k,
            n,
            panel_stride,
            row_stride,
            level: simd::detect(),
        }
    }

    /// The `k × n` row-major matrix at the start of `data`, its rows `ld`
    /// floats apart, read where it lies.
    ///
    /// # Panics
    ///
    /// Panics if the matrix runs past the end of `data`.
    pub(crate) fn row_major(data: &'a [f32], k: usize, n: usize, ld: usize) -> Self {
        Self::new(data, k, n, PANEL, ld)
    }

    /// `m` rows of `a` (row `i` from `a[i·lda]` on) times this operand,
    /// into `n` columns of `m` rows of `out` (row `i` from `out[i·ldo]`
    /// on). Output `(i, j)` is `0.0`, then `+= a[i][kk]·w[kk][j]` for `kk`
    /// ascending, an IEEE multiply then an IEEE add (no FMA), over every
    /// `kk < k` — or, when `causal`, over row `i`'s own prefix: the `m`
    /// rows are the last `m` of `k` positions, so row `i` sums its first
    /// `k − m + i + 1`. Panel by panel, up to four rows at a time, so each
    /// panel stays hot in cache across every row block of the call.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `out` is too short for its rows, or if `causal`
    /// and `m > k`.
    pub(crate) fn product(
        &self,
        a: &[f32],
        lda: usize,
        m: usize,
        causal: bool,
        out: &mut [f32],
        ldo: usize,
    ) {
        if m == 0 || self.n == 0 {
            return;
        }
        assert!(!causal || m <= self.k, "causal rows outrun the depth");
        // Row offsets and depths only grow with the row, and the last row
        // is `k` deep, so it bounds every read of `a` and write of `out`.
        assert!(
            (m - 1) * lda + self.k <= a.len() && (m - 1) * ldo + self.n <= out.len(),
            "product operand too short"
        );
        let panels = self.n.div_ceil(PANEL);
        let simd = match self.level {
            // The tile loads whole 16-float panel rows. Every panel but a
            // partial last one read in place has them; that one has them
            // only if its rows' tails stay inside the buffer.
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            SimdLevel::Avx2 => {
                let end = (panels - 1) * self.panel_stride + (self.k.max(1) - 1) * self.row_stride;
                let fits = end + PANEL <= self.data.len();
                let simd = if fits { panels } else { panels - 1 };
                // SAFETY: `level` is `Avx2` only when `simd::detect()` found
                // AVX2 (or a test that checked it). The asserts above bound
                // the rows of `a` read and of `out` written; `new` bounds the
                // operand's elements (a packed weight's panels are whole by
                // construction), and the panels `0..simd` have whole panel
                // rows: every panel before the last is 16 columns wide, and
                // the last one passed `fits`.
                unsafe { avx2::product(self, a, lda, m, causal, out, ldo, simd) };
                simd
            }
            _ => 0,
        };
        for p in simd..panels {
            let w = &self.data[p * self.panel_stride..];
            let width = (self.n - p * PANEL).min(PANEL);
            for i in 0..m {
                let depth = if causal { self.k - m + i + 1 } else { self.k };
                let mut acc = [0.0f32; PANEL];
                for (kk, &av) in a[i * lda..i * lda + depth].iter().enumerate() {
                    let w_row = &w[kk * self.row_stride..kk * self.row_stride + width];
                    for (o, &wv) in acc.iter_mut().zip(w_row) {
                        *o += av * wv;
                    }
                }
                let at = i * ldo + p * PANEL;
                out[at..at + width].copy_from_slice(&acc[..width]);
            }
        }
    }
}

/// Floats in the Kᵀ blocks of `positions` keys `width` channels wide:
/// whole blocks of 16 positions.
pub(crate) fn key_block_floats(width: usize, positions: usize) -> usize {
    positions.div_ceil(PANEL) * PANEL * width
}

/// Appends the key of position `pos` (its `row.len()` channels) to
/// `blocks`, a growing sequence's keys stored as Kᵀ blocks of 16 positions:
/// block `b` is one panel of `row.len() × 16` floats, whose entry `c·16 +
/// j` is channel `c` of position `16b + j`. A new block is appended whole,
/// zero-filled, by the position that starts it, so a buffer reserved to
/// [`key_block_floats`] never reallocates.
///
/// # Panics
///
/// Panics unless `blocks` ends in the block `pos` belongs to.
pub(crate) fn push_key(blocks: &mut Vec<f32>, pos: usize, row: &[f32]) {
    let block = row.len() * PANEL;
    if pos.is_multiple_of(PANEL) {
        blocks.resize(blocks.len() + block, 0.0);
    }
    assert_eq!(
        blocks.len(),
        (pos / PANEL + 1) * block,
        "key {pos} is not the next position"
    );
    let slots = &mut blocks[(pos / PANEL) * block + pos % PANEL..];
    for (slot, &v) in slots.iter_mut().step_by(PANEL).zip(row) {
        *slot = v;
    }
}

/// The Kᵀ blocks of rows `rows` of a row-major key buffer (rows `ld`
/// apart), restricted to channels `cols`: what [`push_key`] grows from
/// those keys one at a time.
pub(crate) fn pack_keys(k: &[f32], ld: usize, rows: Range<usize>, cols: Range<usize>) -> Vec<f32> {
    let mut blocks = Vec::with_capacity(key_block_floats(cols.len(), rows.len()));
    for (pos, r) in rows.enumerate() {
        push_key(&mut blocks, pos, &k[r * ld + cols.start..r * ld + cols.end]);
    }
    blocks
}

/// Kᵀ of channels `cols` over the first `n` positions of `blocks`, keys
/// `width` channels wide: the `cols.len() × n` operand of `q·Kᵀ`.
///
/// # Panics
///
/// Panics if `cols` runs past `width` or `blocks` holds fewer than `n`
/// positions.
pub(crate) fn key_panels(blocks: &[f32], width: usize, n: usize, cols: Range<usize>) -> Panels<'_> {
    assert!(cols.end <= width, "key channels out of range");
    let at = (cols.start * PANEL).min(blocks.len());
    Panels::new(&blocks[at..], cols.len(), n, width * PANEL, PANEL)
}

/// The first `n` keys of `blocks` (keys `width` channels wide) back as
/// `n × width` row-major rows.
#[cfg(test)]
pub(crate) fn key_rows(blocks: &[f32], width: usize, n: usize) -> Vec<f32> {
    let block = width * PANEL;
    (0..n)
        .flat_map(|pos| {
            (0..width).map(move |c| blocks[(pos / PANEL) * block + c * PANEL + pos % PANEL])
        })
        .collect()
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use core::arch::x86_64::*;

    use super::{Panels, HALF, HIGH, PANEL};

    /// The panels `0..panels` of [`Panels::product`], each for every block
    /// of up to four rows: the panel is read from memory once per call and
    /// reused across the row blocks.
    ///
    /// # Safety
    ///
    /// AVX2; `a` and `out` hold the product's `m` rows at their strides,
    /// and each of the panels has whole 16-float rows down to the deepest
    /// row's depth.
    #[allow(clippy::too_many_arguments)] // `Panels::product`'s arguments, and the panel count
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn product(
        w: &Panels,
        a: &[f32],
        lda: usize,
        m: usize,
        causal: bool,
        out: &mut [f32],
        ldo: usize,
        panels: usize,
    ) {
        for p in 0..panels {
            let panel = w.data.as_ptr().add(p * w.panel_stride);
            let width = (w.n - p * PANEL).min(PANEL);
            for i in (0..m).step_by(4) {
                let depths: [usize; 4] =
                    core::array::from_fn(|r| if causal { w.k - m + i + r + 1 } else { w.k });
                let a = a.as_ptr().add(i * lda);
                let o = out.as_mut_ptr().add(i * ldo + p * PANEL);
                let (row_stride, depths) = (w.row_stride, &depths[..(m - i).min(4)]);
                match depths.len() {
                    1 => tile::<1>(a, lda, depths, panel, row_stride, o, ldo, width),
                    2 => tile::<2>(a, lda, depths, panel, row_stride, o, ldo, width),
                    3 => tile::<3>(a, lda, depths, panel, row_stride, o, ldo, width),
                    _ => tile::<4>(a, lda, depths, panel, row_stride, o, ldo, width),
                }
            }
        }
    }

    /// The screen of `R` rows over one split panel's high half: per k row
    /// one 8-word load, widened to the bf16 values of columns `0..8` (a
    /// 16-bit shift) and `8..16` (a mask), shared by every row's broadcast
    /// multiply and add. One row runs two accumulator chains, even and odd
    /// k rows, summed at the end: the screen's error bound holds in any
    /// order. Each load prefetches the same row of `next`, the high half
    /// the following call will read: the halves are a panel apart, a gap
    /// the hardware's sequential prefetch does not cross.
    ///
    /// # Safety
    ///
    /// AVX2; `a` points at `R` rows `k` apart, each with `k` readable
    /// floats; `high` and `next` at `k` rows of 8 readable words each; `s`
    /// at `R` writable rows of 16 floats.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn screen<const R: usize>(
        a: *const f32,
        k: usize,
        high: *const u32,
        next: *const u32,
        s: *mut [f32; PANEL],
    ) {
        let mask = _mm256_set1_epi32(HIGH as i32);
        let widen = |kk: usize| {
            _mm_prefetch::<_MM_HINT_T0>(next.add(kk * HALF).cast());
            let w = _mm256_loadu_si256(high.add(kk * HALF).cast());
            (
                _mm256_castsi256_ps(_mm256_slli_epi32::<16>(w)),
                _mm256_castsi256_ps(_mm256_and_si256(w, mask)),
            )
        };
        let mut lo = [_mm256_setzero_ps(); R];
        let mut hi = [_mm256_setzero_ps(); R];
        let mut kk = 0;
        if R == 1 {
            let (mut lo2, mut hi2) = (_mm256_setzero_ps(), _mm256_setzero_ps());
            while kk + 1 < k {
                let ((w_lo, w_hi), (w_lo2, w_hi2)) = (widen(kk), widen(kk + 1));
                let (av, av2) = (_mm256_set1_ps(*a.add(kk)), _mm256_set1_ps(*a.add(kk + 1)));
                lo[0] = _mm256_add_ps(lo[0], _mm256_mul_ps(av, w_lo));
                hi[0] = _mm256_add_ps(hi[0], _mm256_mul_ps(av, w_hi));
                lo2 = _mm256_add_ps(lo2, _mm256_mul_ps(av2, w_lo2));
                hi2 = _mm256_add_ps(hi2, _mm256_mul_ps(av2, w_hi2));
                kk += 2;
            }
            lo[0] = _mm256_add_ps(lo[0], lo2);
            hi[0] = _mm256_add_ps(hi[0], hi2);
        }
        for kk in kk..k {
            let (w_lo, w_hi) = widen(kk);
            for r in 0..R {
                let av = _mm256_set1_ps(*a.add(r * k + kk));
                lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, w_lo));
                hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, w_hi));
            }
        }
        for r in 0..R {
            let row = (*s.add(r)).as_mut_ptr();
            _mm256_storeu_ps(row, lo[r]);
            _mm256_storeu_ps(row.add(HALF), hi[r]);
        }
    }

    /// `R` rows × one panel: `R × 2` accumulators from `+0.0`, then per k
    /// row one panel-row load pair, shared by every row's broadcast
    /// multiply and add (no FMA), down to the rows' common depth; then each
    /// deeper row's own tail, alone. Stores `width` columns per row.
    ///
    /// # Safety
    ///
    /// AVX2; `a` points at `R` rows `lda` apart, row `r` with `depths[r]`
    /// readable floats; `w` at `max(depths)` panel rows `ldw` apart, each
    /// with 16 readable floats; `out` at `R` rows `ldo` apart, each with
    /// `width` writable floats.
    #[allow(clippy::too_many_arguments)] // a strided tile: three pointers, their strides, its shape
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize>(
        a: *const f32,
        lda: usize,
        depths: &[usize],
        w: *const f32,
        ldw: usize,
        out: *mut f32,
        ldo: usize,
        width: usize,
    ) {
        let common = depths[..R].iter().copied().min().unwrap_or(0);
        let mut lo = [_mm256_setzero_ps(); R];
        let mut hi = [_mm256_setzero_ps(); R];
        for kk in 0..common {
            let w_lo = _mm256_loadu_ps(w.add(kk * ldw));
            let w_hi = _mm256_loadu_ps(w.add(kk * ldw + 8));
            for r in 0..R {
                let av = _mm256_set1_ps(*a.add(r * lda + kk));
                lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, w_lo));
                hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, w_hi));
            }
        }
        for r in 0..R {
            for kk in common..depths[r] {
                let av = _mm256_set1_ps(*a.add(r * lda + kk));
                let w_lo = _mm256_loadu_ps(w.add(kk * ldw));
                let w_hi = _mm256_loadu_ps(w.add(kk * ldw + 8));
                lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, w_lo));
                hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, w_hi));
            }
            let o = out.add(r * ldo);
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

    /// The split holds `e`'s bits where the layout says (high and low
    /// half-words, zero past column `n`), reads its columns back as `e`'s
    /// rows and unpacks to `eᵀ`, bit for bit; and each column's slack is
    /// at least `‖E_t − hi(E_t)‖₂ + 2γ_k‖E_t‖₂`, infinite exactly when the
    /// column holds a non-finite value.
    #[test]
    fn lm_head_split_follows_the_documented_layout() {
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
            let e = rng.matrix(n, k, 0.3);
            let head = LmHead::new(e.clone());
            assert_eq!(head.words.len(), n.div_ceil(PANEL) * k * PANEL, "{n}x{k}");
            for (i, &w) in head.words.iter().enumerate() {
                let (p, at) = (i / (k * PANEL), i % (k * PANEL));
                let (low, r, c) = (at >= k * HALF, at % (k * HALF) / HALF, at % HALF);
                let of = |j: usize| if j < n { e[(j, r)].to_bits() } else { 0 };
                let (a, b) = (of(p * PANEL + c), of(p * PANEL + c + HALF));
                let want = if low {
                    a & 0xFFFF | b << 16
                } else {
                    a >> 16 | b & HIGH
                };
                assert_eq!(w, want, "{n}x{k} word {i}");
            }
            assert_eq!(
                bits(head.unpack().into_vec()),
                bits(e.transposed().into_vec())
            );
            for (t, &c) in head.slack.iter().enumerate() {
                let col = e.row(t);
                assert_eq!(
                    bits(head.col(t)),
                    bits(col.iter().copied()),
                    "{n}x{k} col {t}"
                );
                if col.iter().all(|v| v.is_finite()) {
                    let sq = |f: fn(f32) -> f64| col.iter().map(|&v| f(v) * f(v)).sum::<f64>();
                    let tail = sq(|v| v as f64 - f32::from_bits(v.to_bits() & HIGH) as f64);
                    let want = tail.sqrt() + 2.0 * gamma(k) * sq(|v| v as f64).sqrt();
                    assert!(c.is_finite() && c as f64 >= want, "{n}x{k} col {t}: {c}");
                } else {
                    assert_eq!(c, f32::INFINITY, "{n}x{k} col {t}");
                }
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
                let head = LmHead::with_level(e.clone(), level);
                // The logits the rescore reproduces: the tile over `Eᵀ`.
                let packed = PackedWeight::with_level(head.unpack(), level);
                for m in 0..=9usize {
                    let rows: Vec<f32> = (0..m)
                        .flat_map(|i| pool[(i + m) % pool.len()].clone())
                        .collect();
                    let x = Matrix::from_vec(m, k, rows);
                    let mut got = vec![0.0f32; m * n];
                    packed.matmul_rows_into(&x, 0, m, &mut got);
                    let best = head.argmax_cols(x.as_slice(), m, 0..head.panel_count());
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

    /// The row-major first max of `h` over `e`'s rows `cols`: a fold from
    /// `(0, −inf)` that takes a strictly greater logit, each logit `0.0`
    /// then `+= h[c]·e[t][c]` for `c` ascending.
    fn first_max(e: &Matrix, h: &[f32], cols: Range<usize>) -> (usize, f32) {
        let mut best = (0usize, f32::NEG_INFINITY);
        for t in cols {
            let mut logit = 0.0f32;
            for (&hv, &ev) in h.iter().zip(e.row(t)) {
                logit += hv * ev;
            }
            if logit > best.1 {
                best = (t, logit);
            }
        }
        best
    }

    /// Columns of `e` that only their low halves rank, planted for the row
    /// `h` (finite and non-zero, `h[0] > 0`) at ids `at`: with `H =
    /// hi(4h)`, *up* is `H` with its smallest term one bf16 step larger
    /// and clean low halves, *heavy* is `H` with every low half all ones,
    /// *twin* is heavy again and *near* is heavy one ulp smaller in that
    /// term. So up screens above the other three by one bf16 step of one
    /// term, far past `2γ_k‖h‖‖E‖`, while heavy is the greater exact logit
    /// by the other terms' low halves; twin ties heavy exactly (the lower
    /// id must win) and near trails it by at most one ulp.
    fn plant(e: &mut Matrix, h: &[f32], at: [usize; 4]) {
        let high: Vec<u32> = h.iter().map(|&v| (4.0 * v).to_bits() & HIGH).collect();
        let term = |i: usize| (h[i] * f32::from_bits(high[i])).abs();
        let i0 = (1..h.len())
            .min_by(|&a, &b| term(a).total_cmp(&term(b)))
            .unwrap_or(0);
        let heavy: Vec<u32> = high.iter().map(|&w| w | 0xFFFF).collect();
        let mut up = high.clone();
        up[i0] += 1 << 16;
        let mut near = heavy.clone();
        near[i0] -= 1;
        for (t, col) in at.into_iter().zip([up, heavy.clone(), heavy, near]) {
            for (v, w) in e.row_mut(t).iter_mut().zip(col) {
                *v = f32::from_bits(w);
            }
        }
    }

    /// The screen-then-rescore readout against [`first_max`] over `E`'s
    /// rows, for every panel subrange a lane may own, on both kernels. The
    /// ids and the logits must match bit for bit, and so must the lanes'
    /// bests merged in lane order.
    ///
    /// `E` leaves a partial last panel and holds, for four rows of the
    /// pool (one of them tiny enough that its products underflow), the
    /// columns of [`plant`]: a screen that dropped the `‖E_t − hi(E_t)‖`
    /// term from its bound would keep *up* alone and read it. A second `E`
    /// adds, to the other columns, entries of ±inf, ±1e38 (the screen's
    /// partial sums overflow), subnormals and NaNs whose payload sits only
    /// in the low bits (so their high halves read ±inf). The rows include
    /// NaN, ±inf, one whose logits are all negative (the padding's `0.0`
    /// must not win), all-zero (every logit ties at `+0.0`: id 0), and a
    /// finite one whose ‖h‖₂ overflows f32.
    #[test]
    fn screened_argmax_matches_the_row_major_first_max() {
        const SPECIALS: [u32; 7] = [
            0x7F80_0000, // +inf
            0xFF80_0000, // −inf
            0x7E96_7699, // 1e38
            0xFE96_7699, // −1e38
            0x0000_0001, // the least subnormal
            0x7F80_0001, // NaN, payload in the low bits only
            0xFF80_0001,
        ];
        let mut rng = Mix(0x5C4EE2);
        let mut bites = 0;
        for k in [1usize, 17, 64] {
            let random = |rng: &mut Mix| rng.matrix(1, k, 0.0).into_vec();
            let mut planted: Vec<Vec<f32>> = (0..4).map(|_| random(&mut rng)).collect();
            for v in planted[3].iter_mut() {
                *v *= f32::powi(2.0, -66);
            }
            for h in planted.iter_mut() {
                h[0] = h[0].abs() + f32::powi(2.0, -64);
            }
            let mut pool = planted.clone();
            let mut negative = vec![0.0f32; k];
            negative[0] = -1.0;
            pool.extend([negative, vec![0.0; k], random(&mut rng)]);
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut row = random(&mut rng);
                row[rng.below(k)] = special;
                pool.push(row);
            }
            pool.push((0..k).map(|i| f32::MAX / [4.0, -4.0][i % 2]).collect());
            for n in [1usize, 15, 17, 40, 75, 130] {
                // Column 0 positive everywhere, so the negative row reads
                // only negative logits.
                let mut e = rng.matrix(n, k, 0.0);
                for (t, row) in e.rows_iter_mut().enumerate() {
                    row[0] = 1.0 + (n - 1 - t) as f32 / 64.0;
                }
                let plants = k >= 4 && n >= 16;
                let mut ids: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    ids.swap(i, rng.below(i + 1));
                }
                if plants {
                    for (h, at) in planted.iter().zip(ids.chunks_exact(4)) {
                        plant(&mut e, h, at.try_into().expect("four ids"));
                    }
                    for (h, at) in planted[..3].iter().zip(ids.chunks_exact(4)) {
                        let up = first_max(&e, h, at[0]..at[0] + 1);
                        let heavy = first_max(&e, h, at[1]..at[1] + 1);
                        assert!(heavy.1 > up.1, "k {k} n {n}: up outscores heavy");
                        bites += 1;
                    }
                }
                let mut special = e.clone();
                for &t in &ids[if plants { 16 } else { 0 }..] {
                    for _ in 0..k.min(3) {
                        let v = SPECIALS[rng.below(SPECIALS.len())];
                        special[(t, rng.below(k))] = f32::from_bits(v);
                    }
                    if k > 1 && rng.below(4) == 0 {
                        // Enough ±1e38 terms to overflow a partial sum.
                        for v in &mut special.row_mut(t)[1..] {
                            *v = [1e38, -1e38][rng.below(2)];
                        }
                    }
                }
                for (e, what) in [(&e, "clean"), (&special, "specials")] {
                    for level in levels() {
                        let head = LmHead::with_level(e.clone(), level);
                        let panels = head.panel_count();
                        for m in 0..=9usize {
                            let rows: Vec<f32> = (0..m)
                                .flat_map(|i| pool[(i * 5 + m) % pool.len()].clone())
                                .collect();
                            let cut = rng.below(panels + 1);
                            let lanes = [0..cut, cut..panels];
                            let mut merged = vec![(0usize, f32::NEG_INFINITY); m];
                            for (r, range) in std::iter::once(0..panels).chain(lanes).enumerate() {
                                let got = head.argmax_cols(&rows, m, range.clone());
                                let cols = range.start * PANEL..(range.end * PANEL).min(n);
                                for (i, (got, merged)) in got.iter().zip(&mut merged).enumerate() {
                                    let want =
                                        first_max(e, &rows[i * k..(i + 1) * k], cols.clone());
                                    assert_eq!(
                                        (got.0, got.1.to_bits()),
                                        (want.0, want.1.to_bits()),
                                        "{} {what} k {k} n {n} m {m} row {i} panels {range:?}",
                                        level.name()
                                    );
                                    if r > 0 && got.1 > merged.1 {
                                        *merged = *got;
                                    }
                                }
                            }
                            for (i, merged) in merged.iter().enumerate() {
                                let want = first_max(e, &rows[i * k..(i + 1) * k], 0..n);
                                assert_eq!(merged.0, want.0, "{what} k {k} n {n} m {m} row {i}");
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(bites, 3 * 2 * 4, "planted columns that bite");
    }

    /// Bitwise equality, except that NaN only has to meet NaN.
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (j, (g, o)) in got.iter().zip(want).enumerate() {
            let ok = if o.is_nan() {
                g.is_nan()
            } else {
                g.to_bits() == o.to_bits()
            };
            assert!(ok, "{what}, output {j}: {g:e} != {o:e}");
        }
    }

    /// Attention lengths: one position, a block's tail, edge and overrun,
    /// two blocks and a bit, and many blocks.
    const LENGTHS: [usize; 6] = [1, 15, 16, 17, 33, 129];

    /// Q·Kᵀ on the Kᵀ blocks == `Matrix::matmul_transpose`, on both
    /// kernels: the second sequence and both heads of a two-head row
    /// layout (so q and k are read at an offset, rows `2·dh` apart), head
    /// widths of one panel, one and a half (a partial panel) and four, at
    /// every length in [`LENGTHS`], over normal values and dense ±inf,
    /// −0.0, ±1e38 and NaN.
    #[test]
    fn key_panel_scores_match_matmul_transpose() {
        let mut rng = Mix(0x0A77);
        for dh in [16usize, 24, 64] {
            let d = 2 * dh;
            for len in LENGTHS {
                let special = [0.0, 0.3][rng.below(2)];
                let q = rng.matrix(2 * len, d, special);
                let k = rng.matrix(2 * len, d, special);
                for h in 0..2 {
                    let cols = h * dh..(h + 1) * dh;
                    let rows = len..2 * len;
                    let pick = |m: &Matrix| {
                        Matrix::from_vec(
                            len,
                            dh,
                            crate::model::copy_block(m.as_slice(), d, rows.clone(), cols.clone())
                                .into_vec(),
                        )
                    };
                    let want = pick(&q).matmul_transpose(&pick(&k));
                    let kt = pack_keys(k.as_slice(), d, rows.clone(), cols.clone());
                    for level in levels() {
                        let view = Panels {
                            level,
                            ..key_panels(&kt, dh, len, 0..dh)
                        };
                        let mut got = vec![f32::from_bits(0x7fc0_dead); len * len];
                        view.product(
                            &q.as_slice()[len * d + h * dh..],
                            d,
                            len,
                            false,
                            &mut got,
                            len,
                        );
                        let what = format!("{} dh {dh} L {len} head {h}", level.name());
                        assert_same(&got, want.as_slice(), &what);
                    }
                }
            }
        }
    }

    /// scores·V with V read where it lies == `Matrix::matmul` over the
    /// full depth, and, causally, == the per-row oracle a cached row
    /// stands for: `1 × (p+1)` probabilities times the `(p+1) × dh` V
    /// prefix, for the last `m` of `L` positions (`m` of 1, ⌈L/2⌉ and L).
    /// Both kernels, both heads of a two-head layout (the second head's
    /// partial panel at `dh = 24` ends the buffer, so its whole-row loads
    /// would run off it), every length in [`LENGTHS`], specials mixed in.
    #[test]
    fn in_place_v_matches_matmul_and_the_prefix_oracle() {
        let mut rng = Mix(0x0B0B);
        for dh in [16usize, 24, 64] {
            let d = 2 * dh;
            for len in LENGTHS {
                let special = [0.0, 0.3][rng.below(2)];
                let scores = rng.matrix(len, len, special);
                let v = rng.matrix(len, d, special);
                for h in 0..2 {
                    let vh = v.col_slice(h * dh, (h + 1) * dh);
                    let full = scores.matmul(&vh);
                    let mut prefix = Matrix::zeros(len, dh);
                    for p in 0..len {
                        let probs = Matrix::from_vec(1, p + 1, scores.row(p)[..p + 1].to_vec());
                        let vh_pre = Matrix::from_vec(p + 1, dh, vh.row_block(0, p + 1).to_vec());
                        prefix
                            .row_mut(p)
                            .copy_from_slice(probs.matmul(&vh_pre).row(0));
                    }
                    for level in levels() {
                        let view = Panels {
                            level,
                            ..Panels::row_major(&v.as_slice()[h * dh..], len, dh, d)
                        };
                        let what = format!("{} dh {dh} L {len} head {h}", level.name());
                        let mut got = vec![f32::from_bits(0x7fc0_dead); len * dh];
                        view.product(scores.as_slice(), len, len, false, &mut got, dh);
                        assert_same(&got, full.as_slice(), &what);
                        for m in [1, len.div_ceil(2), len] {
                            let mut got = vec![f32::from_bits(0x7fc0_dead); m * dh];
                            let last = &scores.as_slice()[(len - m) * len..];
                            view.product(last, len, m, true, &mut got, dh);
                            let want = prefix.row_block(len - m, len);
                            assert_same(&got, want, &format!("{what} last {m}"));
                        }
                    }
                }
            }
        }
    }

    /// A decode cache's keys, grown one position at a time across the
    /// 16- and 32-position block edges inside one reservation: after every
    /// push the blocks read back as the row-major keys, never reallocate,
    /// and a one-row step (q·Kᵀ over the blocks, then the probabilities
    /// times the V rows in place) equals the reference loops, per head, on
    /// both kernels, specials mixed in.
    #[test]
    fn key_blocks_grow_across_block_edges() {
        let mut rng = Mix(0xCA5E);
        let (heads, dh, max) = (3usize, 16usize, 40usize);
        let d = heads * dh;
        let keys = rng.matrix(max, d, 0.05);
        let values = rng.matrix(max, d, 0.05);
        let mut blocks = Vec::with_capacity(key_block_floats(d, max));
        let reserved = blocks.capacity();
        for n in 1..=max {
            push_key(&mut blocks, n - 1, keys.row(n - 1));
            assert_eq!(blocks.len(), key_block_floats(d, n));
            assert_eq!(blocks.capacity(), reserved, "reallocated at {n}");
            assert_same(
                &key_rows(&blocks, d, n),
                keys.row_block(0, n),
                "keys read back",
            );
            let q = rng.matrix(1, d, 0.05);
            for h in 0..heads {
                let (lo, hi) = (h * dh, (h + 1) * dh);
                let k_rows = Matrix::from_vec(n, d, keys.row_block(0, n).to_vec());
                let v_rows = Matrix::from_vec(n, d, values.row_block(0, n).to_vec());
                let scores = q
                    .col_slice(lo, hi)
                    .matmul_transpose(&k_rows.col_slice(lo, hi));
                let want = scores.matmul(&v_rows.col_slice(lo, hi));
                for level in levels() {
                    let what = format!("{} n {n} head {h}", level.name());
                    let kt = Panels {
                        level,
                        ..key_panels(&blocks, d, n, lo..hi)
                    };
                    let mut got = vec![0.0f32; n];
                    kt.product(&q.row(0)[lo..hi], dh, 1, false, &mut got, n);
                    assert_same(&got, scores.as_slice(), &format!("{what} scores"));
                    let v = Panels {
                        level,
                        ..Panels::row_major(&values.as_slice()[lo..], n, dh, d)
                    };
                    let mut ctx = vec![0.0f32; dh];
                    v.product(scores.as_slice(), n, 1, false, &mut ctx, dh);
                    assert_same(&ctx, want.as_slice(), &format!("{what} context"));
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
