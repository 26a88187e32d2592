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
//! The tied token embedding `E` (`vocab × hidden`) is the LM head's weight
//! `Eᵀ`, and is stored the same way ([`PackedWeight::transposed`]): a
//! 16-row block of `E` is exactly one panel of `Eᵀ`. The greedy readout
//! ([`PackedWeight::argmax_cols`]) runs the same tiles and folds each
//! tile's outputs straight into a running per-row maximum, so no
//! `rows × vocab` logits buffer exists.
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
    /// would otherwise beat an all-negative row. The outputs are the
    /// GEMM's, bit for bit (see the module docs), one tile of up to four
    /// rows and one panel at a time.
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
        let view = self.view();
        let mut best = vec![(0usize, f32::NEG_INFINITY); m];
        let mut tile = [0.0f32; 4 * PANEL];
        for p in panels {
            let c0 = p * PANEL;
            let width = (self.cols - c0).min(PANEL);
            for (i, best) in best.chunks_mut(4).enumerate() {
                let rows = best.len();
                view.panel(p)
                    .product(&a[4 * i * k..], k, rows, false, &mut tile, PANEL);
                for (b, logits) in best.iter_mut().zip(tile.chunks_exact(PANEL)) {
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

    /// Panel `p` alone, as a `k × width` operand.
    fn panel(&self, p: usize) -> Self {
        Self {
            data: &self.data[p * self.panel_stride..],
            n: (self.n - p * PANEL).min(PANEL),
            ..*self
        }
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

    use super::{Panels, PANEL};

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
