//! Batched, branchless LUT evaluation — the deployment-side engine.
//!
//! [`crate::LookupTable`] is the *reference* implementation of paper Eq. 4:
//! an AoS `Vec<Segment>` walked with a per-element binary search. That is
//! the right shape for training, conversion and auditing, but the wrong
//! shape for a software hot path: the `partition_point` branches are
//! data-dependent and the segment parameters are interleaved in memory.
//!
//! [`BakedLut`] "bakes" a table once at construction into:
//!
//! * structure-of-arrays `slopes` / `intercepts` vectors, and
//! * a **uniform-grid → segment-index** table: the breakpoint span is cut
//!   into equal cells, each cell recording the segment index at its left
//!   edge plus the (almost always empty) list of breakpoints falling
//!   inside it.
//!
//! Per-element evaluation is then `grid index → gather (s, t) → s·x + t`
//! with no data-dependent branch on the common path; only elements whose
//! grid cell contains a breakpoint take a short local scan (bounded by the
//! number of breakpoints sharing the cell). [`BakedLut::eval`] is
//! **bit-identical** to [`crate::LookupTable::eval`] for every input,
//! including NaN, infinities and breakpoint-exact values — the equivalence
//! is property-tested in `tests/engine_equivalence.rs`, and the batch
//! kernel ([`BakedLut::eval_slice`]) is measured against the scalar loop
//! by the `bench_lut_eval` bin (the `results` rows of `BENCH_lut_eval.json`).
//!
//! The same construction is repeated at the two reduced precisions
//! ([`BakedF16Lut`], [`BakedInt32Lut`]), each bit-identical to its
//! reference counterpart in [`crate::precision`]. Those engines reuse
//! the grid index (no binary search) but evaluate element-at-a-time:
//! their per-element cost is dominated by the bit-accurate rounding /
//! quantization steps, so the vectorized two-pass kernel — and the
//! measured multi-× speedup — is specific to the FP32 tier.
//!
//! # SIMD dispatch (the third tier)
//!
//! On top of reference → baked-scalar there is a third level: one
//! explicit `core::arch` AVX2 batch kernel in the [`simd`] submodule
//! (behind the `simd` cargo feature) for tables with at most 16 segments.
//! [`BakedLut::new`] makes the choice **once, at bake time**: it bakes
//! the kernel's register-resident parameter store only when
//! [`simd::detect`] finds AVX2 and the table fits, and
//! [`BakedLut::eval_slice`] runs the AVX2 kernel exactly when that store
//! exists. Every other table, CPU and build takes
//! [`BakedLut::eval_slice_scalar`] — the **bitwise** oracle the vector
//! kernel must match on every input (ULP-exact is not enough), and its
//! tail. See `docs/PERFORMANCE.md` for the dispatch matrix and the rules
//! that keep the bits identical.
//!
//! # Profiling
//!
//! The engines themselves carry no instrumentation — per-element hooks
//! in a branchless kernel would cost more than the op. Time attribution
//! happens one level up, at *chunk* granularity, through the passive
//! [`crate::profile::OpCounters`] seam: the transformer backends time
//! each softmax/GELU/LayerNorm chunk kernel around its calls into these
//! engines and bump relaxed atomic totals when a sink is attached.
//! Nothing here (or there) feeds timing back into the math or the chunk
//! map, so the bit-identity contract above is untouched.

pub mod simd;

use crate::lut::LookupTable;
use crate::precision::{f16_round, F16Lut, Int32Lut};
use std::ops::Range;

/// Splits `0..len` into `parts` contiguous ranges whose boundaries are a
/// pure function of `(len, parts)`: the first `len % parts` ranges get one
/// extra element. Empty ranges are omitted, so at most `min(len, parts)`
/// ranges come back (and none when `len == 0`).
///
/// This is the canonical chunk map of the whole workspace's determinism
/// contract: the serving pool, the transformer's executor seam and the
/// property tests all split work with this one function, so "parallel"
/// never means "different boundaries" — and since every kernel's
/// per-element math is independent of its chunk, it never means
/// "different bits" either.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let rem = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let end = start + base + usize::from(p < rem);
        if end > start {
            out.push(start..end);
        }
        start = end;
    }
    out
}

/// Splits `data` into the disjoint mutable chunks named by `ranges`,
/// which must be contiguous, ascending and covering (exactly what
/// [`chunk_ranges`] produces — possibly scaled, e.g. by a row width).
/// The one chunk-carving loop behind the transformer's executor seam.
///
/// # Panics
///
/// Panics if the ranges step outside `data` or out of order.
pub fn split_at_ranges<'a, T>(data: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut chunks = Vec::with_capacity(ranges.len());
    let mut rest = data;
    let mut consumed = 0;
    for r in ranges {
        assert_eq!(r.start, consumed, "ranges must be contiguous and ascending");
        let (chunk, tail) = rest.split_at_mut(r.end - consumed);
        consumed = r.end;
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

/// Number of grid cells per breakpoint. More cells mean fewer cells with
/// an interior breakpoint (fewer local scans) at the cost of memory; 8×
/// keeps the whole index well under a cache line per table entry while
/// making multi-breakpoint cells rare for the trained (non-pathological)
/// tables this engine serves.
const CELLS_PER_BREAKPOINT: usize = 8;

/// Hard cap on the grid size, so adversarial tables (breakpoints densely
/// packed at one end of a huge span) cannot blow up bake-time memory.
/// Must stay ≤ 2²² so cell indices fit the mantissa trick of
/// [`Grid::cell_of_raw`] (and well below it so the NaN mantissa bit is
/// always masked off).
const MAX_CELLS: usize = 1 << 14;

/// 2²³ — adding it to a float in `[0, 2²²)` leaves that value
/// (round-to-nearest) in the mantissa bits.
const MANTISSA_MAGIC: f32 = 8_388_608.0;

/// Chunk length of the two-pass scalar kernel: the cell-index buffer
/// stays a 512-byte stack array, and both passes touch at most a few
/// cache lines of the input per chunk.
const SCALAR_CHUNK: usize = 128;

/// One uniform-grid cell: the segment index at the cell's left edge and
/// how many breakpoints fall inside the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    /// Number of breakpoints mapped to cells strictly left of this one —
    /// equivalently, the segment index of any `x` in this cell that is
    /// smaller than every in-cell breakpoint.
    base: u32,
    /// Number of breakpoints mapped to this cell.
    count: u32,
}

/// The uniform-grid segment index over a sorted breakpoint array.
///
/// The cell map `x ↦ clamp(⌊(x − lo)·inv_w⌋, 0, cells−1)` is monotone
/// non-decreasing (float multiply/subtract by constants and saturating
/// truncation all preserve order), and breakpoints are assigned to cells
/// with the *same* map. Monotonicity gives the exactness argument:
/// breakpoints in cells left of `cell(x)` are `< x`, breakpoints in cells
/// right of it are `> x`, and the in-cell breakpoints are compared
/// explicitly — so `base + |{in-cell d ≤ x}|` equals
/// `partition_point(d ≤ x)` for every `x`, bit for bit, regardless of any
/// rounding inside the cell map itself.
#[derive(Debug, Clone, PartialEq)]
struct Grid {
    lo: f32,
    inv_w: f32,
    cells: Vec<Cell>,
}

impl Grid {
    fn build(breakpoints: &[f32]) -> Self {
        let n = breakpoints.len();
        if n == 0 {
            return Self {
                lo: 0.0,
                inv_w: 0.0,
                cells: vec![Cell { base: 0, count: 0 }],
            };
        }
        let lo = breakpoints[0];
        let hi = breakpoints[n - 1];
        let span = hi - lo;
        if span <= 0.0 || span.is_nan() {
            // All breakpoints coincide: a single cell holds them all.
            return Self::with_cells(breakpoints, lo, 0.0, 1);
        }
        // Start at the oversampling target and keep doubling while any
        // cell holds several breakpoints — non-uniformly spaced tables
        // (the EXP recipe log-clusters its breakpoints near zero) would
        // otherwise force a long in-cell scan on *every* lookup. Bake-time
        // cost is a handful of passes over ≤ a few hundred breakpoints.
        let mut n_cells = (n * CELLS_PER_BREAKPOINT)
            .next_power_of_two()
            .min(MAX_CELLS);
        loop {
            let inv_w = n_cells as f32 / span;
            if !inv_w.is_finite() {
                // Degenerate span (subnormal width): one cell, full scan.
                return Self::with_cells(breakpoints, lo, 0.0, 1);
            }
            let grid = Self::with_cells(breakpoints, lo, inv_w, n_cells);
            let worst = grid.cells.iter().map(|c| c.count).max().unwrap_or(0);
            if worst <= 1 || n_cells >= MAX_CELLS {
                return grid;
            }
            n_cells *= 2;
        }
    }

    fn with_cells(breakpoints: &[f32], lo: f32, inv_w: f32, n_cells: usize) -> Self {
        let mut cells = vec![Cell { base: 0, count: 0 }; n_cells];
        let mask = (n_cells - 1) as u32;
        for &d in breakpoints {
            let c = Self::cell_of_raw(d, lo, inv_w, mask);
            cells[c].count += 1;
        }
        let mut base = 0u32;
        for cell in &mut cells {
            cell.base = base;
            base += cell.count;
        }
        Self { lo, inv_w, cells }
    }

    /// The cell map: clamp in the float domain, then read the cell index
    /// out of the mantissa after adding 2²³ (for `0 ≤ t < 2²²`, the
    /// mantissa of `t + 2²³` is `t` rounded to nearest-even — the classic
    /// float→int trick). No float→int *cast* is involved, so the batch
    /// kernels' index pass is pure max/min/add/bitcast/mask and
    /// autovectorizes.
    ///
    /// Rounding to nearest (instead of truncating) only shifts every cell
    /// boundary by half a cell — the map stays monotone non-decreasing,
    /// which is the only property the exactness argument needs, and the
    /// bake assigns breakpoints with this same function. Specials: +∞
    /// clamps to the last cell; −∞ clamps to 0; NaN — *any* payload, not
    /// just the default quiet NaN — is squashed to `0.0` by the leading
    /// `max` (IEEE `maxNum`/Rust `f32::max` return the non-NaN operand)
    /// and therefore lands in cell 0, where the in-cell compare rejects
    /// every breakpoint and yields segment 0, matching `partition_point`
    /// on NaN. (`clamp` would NOT work here: it passes NaN through, and
    /// a payload's low mantissa bits would survive the mask and select
    /// an arbitrary cell.)
    #[inline(always)]
    fn cell_of_raw(x: f32, lo: f32, inv_w: f32, mask: u32) -> usize {
        let t = ((x - lo) * inv_w).max(0.0).min(mask as f32);
        (((t + MANTISSA_MAGIC).to_bits()) & mask) as usize
    }

    #[inline(always)]
    fn cell(&self, x: f32) -> Cell {
        let mask = (self.cells.len() - 1) as u32;
        self.cells[Self::cell_of_raw(x, self.lo, self.inv_w, mask)]
    }
}

/// A [`LookupTable`] baked for batched, branchless evaluation.
///
/// # Examples
///
/// ```
/// use nnlut_core::engine::BakedLut;
/// use nnlut_core::{LookupTable, Segment};
///
/// let lut = LookupTable::new(
///     vec![0.0],
///     vec![Segment::new(-1.0, 0.0), Segment::new(1.0, 0.0)],
/// )?;
/// let baked = BakedLut::new(lut.clone());
/// // Bit-identical to the reference evaluation…
/// for x in [-2.5f32, -0.0, 0.0, 1.0, f32::NAN, f32::INFINITY] {
///     assert_eq!(baked.eval(x).to_bits(), lut.eval(x).to_bits());
/// }
/// // …and batched.
/// let mut xs = vec![-3.0, 4.0];
/// baked.eval_slice(&mut xs);
/// assert_eq!(xs, vec![3.0, 4.0]);
/// # Ok::<(), nnlut_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BakedLut {
    table: LookupTable,
    /// The table's breakpoints followed by `scan_len` NaN sentinels, so
    /// the batch kernel can unconditionally compare `scan_len` entries
    /// from any cell's base: in-cell entries compare exactly; later-cell
    /// entries are `> x` by cell-map monotonicity; NaN sentinels compare
    /// false against everything. The comparison sum is therefore the
    /// exact in-cell count with no data-dependent branch. (The first
    /// `len − scan_len` entries are the breakpoints themselves — the
    /// scalar paths slice this array rather than keeping a second copy.)
    padded_breakpoints: Vec<f32>,
    /// Maximum number of breakpoints sharing one grid cell.
    scan_len: u32,
    /// The `(slope, intercept)` pairs, indexed by segment.
    params: Vec<[f32; 2]>,
    /// When at most one breakpoint lands in any cell (the typical trained
    /// table), each cell carries its comparison key *and both candidate
    /// parameter pairs*, so per-element evaluation is a single cell load
    /// with no second dependent gather. `key` is NaN for breakpoint-free
    /// cells (compares false against every input, selecting `lo`, and
    /// `hi` duplicates `lo`).
    fused: Option<Vec<FusedCell>>,
    /// Register-resident parameter store of the AVX2 kernel, baked only
    /// when [`simd::detect`] finds AVX2 and the table has at most
    /// [`REG_MAX_SEGMENTS`] segments (every paper-config 16-entry table
    /// qualifies). Its presence *is* the dispatch decision:
    /// [`BakedLut::eval_slice`] runs the AVX2 kernel exactly when it is
    /// `Some`. That kernel needs **no gathers**: the segment index is the
    /// global count of `breakpoint ≤ x` (bit-identical to the grid path —
    /// see [`Grid`]'s exactness argument), computed with broadcast
    /// compares, and the `(slope, intercept)` pair is selected from four
    /// in-register vectors with `vpermd` + blend.
    #[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
    reg: Option<RegParams>,
    grid: Grid,
}

/// Largest segment count the register-resident AVX2 kernel covers: 16
/// slopes + 16 intercepts is exactly two 8-lane vectors per array, one
/// `vpermd` pair + blend to select. Larger tables take the scalar
/// oracle.
const REG_MAX_SEGMENTS: usize = 16;

/// See [`BakedLut::reg`]: the per-segment `(slope, intercept)` pairs
/// split into SoA arrays and zero-padded to [`REG_MAX_SEGMENTS`], so the
/// AVX2 kernel can hold the entire parameter store in four vector
/// registers.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
struct RegParams {
    slopes: [f32; REG_MAX_SEGMENTS],
    intercepts: [f32; REG_MAX_SEGMENTS],
    /// The table's breakpoints NaN-padded to a fixed width, so the
    /// kernel's compare-count loop has a compile-time trip count (fully
    /// unrolled, broadcasts hoisted). The NaN padding compares false
    /// against every input under the ordered `≤`, contributing zero to
    /// the count — bit-identical to not comparing at all.
    breakpoints: [f32; REG_MAX_SEGMENTS],
}

/// See [`BakedLut::fused`]: one grid cell with its in-cell breakpoint key
/// and the `(slope, intercept)` pairs of the segments below (`lo`) and at
/// or above (`hi`) that breakpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FusedCell {
    key: f32,
    lo: [f32; 2],
    hi: [f32; 2],
}

impl BakedLut {
    /// Bakes `table` into SoA + uniform-grid form.
    pub fn new(table: LookupTable) -> Self {
        let breakpoints = table.breakpoints();
        let grid = Grid::build(breakpoints);
        let scan_len = grid.cells.iter().map(|c| c.count).max().unwrap_or(0);
        let mut padded_breakpoints = breakpoints.to_vec();
        padded_breakpoints.extend(std::iter::repeat_n(f32::NAN, scan_len as usize));
        let params: Vec<[f32; 2]> = table
            .segments()
            .iter()
            .map(|seg| [seg.slope, seg.intercept])
            .collect();
        let fused = (scan_len == 1).then(|| {
            grid.cells
                .iter()
                .map(|c| {
                    let base = c.base as usize;
                    if c.count == 1 {
                        FusedCell {
                            key: breakpoints[base],
                            lo: params[base],
                            hi: params[base + 1],
                        }
                    } else {
                        FusedCell {
                            key: f32::NAN,
                            lo: params[base],
                            hi: params[base],
                        }
                    }
                })
                .collect()
        });
        let avx2 = simd::detect() == simd::SimdLevel::Avx2;
        let reg = (avx2 && params.len() <= REG_MAX_SEGMENTS).then(|| {
            let mut slopes = [0.0f32; REG_MAX_SEGMENTS];
            let mut intercepts = [0.0f32; REG_MAX_SEGMENTS];
            let mut bps = [f32::NAN; REG_MAX_SEGMENTS];
            for (i, &[s, t]) in params.iter().enumerate() {
                slopes[i] = s;
                intercepts[i] = t;
            }
            for (slot, &b) in bps.iter_mut().zip(breakpoints) {
                *slot = b;
            }
            RegParams {
                slopes,
                intercepts,
                breakpoints: bps,
            }
        });
        Self {
            table,
            padded_breakpoints,
            scan_len,
            params,
            fused,
            reg,
            grid,
        }
    }

    /// The batch-kernel tier the running CPU supports ([`simd::detect`]).
    /// [`BakedLut::eval_slice`] runs the AVX2 kernel when this is
    /// [`simd::SimdLevel::Avx2`] and the table has at most 16 segments.
    pub fn simd_level(&self) -> simd::SimdLevel {
        simd::detect()
    }

    /// The breakpoints (the sentinel-free prefix of the padded array).
    #[inline]
    fn breakpoints(&self) -> &[f32] {
        &self.padded_breakpoints[..self.padded_breakpoints.len() - self.scan_len as usize]
    }

    /// The reference table this engine was baked from.
    pub fn table(&self) -> &LookupTable {
        &self.table
    }

    /// Number of table entries (segments).
    pub fn entries(&self) -> usize {
        self.params.len()
    }

    /// Index of the segment handling `x` — equal to
    /// [`LookupTable::segment_index`] for every input.
    #[inline(always)]
    pub fn segment_index(&self, x: f32) -> usize {
        let cell = self.grid.cell(x);
        let mut idx = cell.base as usize;
        if cell.count > 0 {
            // Short local scan: only cells containing a breakpoint take it.
            for &d in &self.breakpoints()[idx..idx + cell.count as usize] {
                idx += (d <= x) as usize;
            }
        }
        idx
    }

    /// Evaluates the table; bit-identical to [`LookupTable::eval`].
    #[inline(always)]
    pub fn eval(&self, x: f32) -> f32 {
        let i = self.segment_index(x);
        self.params[i][0] * x + self.params[i][1]
    }

    /// Batched in-place evaluation over a slice (row, matrix buffer, …):
    /// the AVX2 register kernel from [`simd`] when the bake chose it (AVX2
    /// host, `simd` feature, ≤ 16 segments), the scalar oracle otherwise.
    /// Both routes are **bit-identical** to
    /// [`BakedLut::eval_slice_scalar`] for every input — NaN payloads,
    /// infinities, breakpoint-exact values — so dispatch can never change
    /// an output bit (property-tested in `tests/engine_equivalence.rs`).
    ///
    /// # Examples
    ///
    /// ```
    /// use nnlut_core::engine::BakedLut;
    /// use nnlut_core::{LookupTable, Segment};
    ///
    /// let baked = BakedLut::new(LookupTable::new(
    ///     vec![0.0],
    ///     vec![Segment::new(-1.0, 0.0), Segment::new(1.0, 0.0)],
    /// )?);
    /// let xs = [-2.0f32, 0.5, f32::NAN, f32::NEG_INFINITY, 9.0];
    /// let (mut fast, mut oracle) = (xs.to_vec(), xs.to_vec());
    /// baked.eval_slice(&mut fast);
    /// baked.eval_slice_scalar(&mut oracle);
    /// for (f, o) in fast.iter().zip(&oracle) {
    ///     assert_eq!(f.to_bits(), o.to_bits());
    /// }
    /// # Ok::<(), nnlut_core::CoreError>(())
    /// ```
    pub fn eval_slice(&self, xs: &mut [f32]) {
        // Single-segment tables are a pure affine map (`scan_len == 0`
        // exactly when the table has no breakpoints); LLVM already turns
        // this loop into packed mul+add.
        if self.scan_len == 0 {
            let [s, t] = self.params[0];
            for x in xs {
                *x = s * *x + t;
            }
            return;
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if let Some(reg) = &self.reg {
            // SAFETY: the bake builds `reg` only after `simd::detect()`
            // saw `is_x86_feature_detected!("avx2")`.
            return unsafe { simd::eval_slice_avx2(self, reg, xs) };
        }
        self.eval_slice_scalar(xs);
    }

    /// The scalar batch kernel — the **bitwise oracle** the AVX2 kernel
    /// in [`simd`] is tested against, and the route for tables wider than
    /// 16 segments, CPUs without AVX2, non-x86 targets,
    /// `--no-default-features` builds and non-lane-multiple tails. Kept
    /// public precisely so callers (tests, benches) can pin the reference
    /// behaviour regardless of what [`BakedLut::eval_slice`] dispatches
    /// to.
    ///
    /// All grid state is hoisted into locals, and the lookups skip bounds
    /// checks: every index the grid produces is `base + k` with
    /// `k ≤ count`, and the bake established `base + count ≤
    /// breakpoints.len() < params.len()`, so the accesses are always in
    /// range (the equivalence property tests exercise exactly this
    /// invariant across adversarial tables).
    pub fn eval_slice_scalar(&self, xs: &mut [f32]) {
        // Same affine fast path as `eval_slice`, so this entry point is
        // complete on its own.
        if self.scan_len == 0 {
            let [s, t] = self.params[0];
            for x in xs {
                *x = s * *x + t;
            }
            return;
        }
        let lo = self.grid.lo;
        let inv_w = self.grid.inv_w;
        let mask = (self.grid.cells.len() - 1) as u32;
        let mask_f = mask as f32;
        let (cells, padded, params) = (
            &self.grid.cells[..],
            &self.padded_breakpoints[..],
            &self.params[..],
        );
        let scan = self.scan_len as usize;
        // Chunked two-pass kernel. Pass 1 is the cell map — a pure
        // elementwise sub·mul·clamp·cast that LLVM autovectorizes
        // (clamping in float space first keeps the cast's input in range,
        // so no scalar saturation fixups survive). Pass 2 is the gather
        // side: cell record → segment index → parameter pair → MAC, with
        // no data-dependent branches. Every `cell_idx` entry is clamped to
        // `≤ mask`, which is what the unchecked cell loads rely on.
        let mut cell_idx = [0u32; SCALAR_CHUNK];
        for chunk in xs.chunks_mut(SCALAR_CHUNK) {
            for (slot, &x) in cell_idx.iter_mut().zip(chunk.iter()) {
                let t = ((x - lo) * inv_w).max(0.0).min(mask_f);
                *slot = (t + MANTISSA_MAGIC).to_bits() & mask;
            }
            if let Some(fused) = &self.fused {
                // Dominant case: at most one breakpoint per cell (trained
                // tables, 8× oversampling). The cell record carries both
                // candidate parameter pairs, so the whole gather side is
                // one cell load plus a branchless select.
                for (o, &c) in chunk.iter_mut().zip(&cell_idx) {
                    let x = *o;
                    // SAFETY: pass 1 clamps `c ≤ fused.len() − 1`.
                    let cell = unsafe { fused.get_unchecked(c as usize) };
                    let p = if cell.key <= x { cell.hi } else { cell.lo };
                    *o = p[0] * x + p[1];
                }
                continue;
            }
            // General path: several breakpoints may share a cell; compare
            // a fixed `scan_len` window from the cell base (NaN sentinels
            // and later-cell breakpoints contribute 0), still branch-free.
            for (o, &c) in chunk.iter_mut().zip(&cell_idx) {
                let x = *o;
                // SAFETY: pass 1 clamps `c ≤ cells.len() − 1`.
                let base = unsafe { cells.get_unchecked(c as usize) }.base as usize;
                let mut idx = base;
                for j in 0..scan {
                    // SAFETY: `base + j < base + scan_len ≤
                    // padded_breakpoints.len()` (bake pads the array with
                    // `scan_len` NaN sentinels past the last breakpoint,
                    // and `base ≤ breakpoints.len()`).
                    idx += (unsafe { *padded.get_unchecked(base + j) } <= x) as usize;
                }
                // SAFETY: `idx ≤ breakpoints.len() = params.len() − 1` (at
                // most `count ≤ scan_len` in-cell comparisons can succeed,
                // and NaN / later-cell entries never do).
                let p = unsafe { *params.get_unchecked(idx) };
                *o = p[0] * x + p[1];
            }
        }
    }
}

impl From<&LookupTable> for BakedLut {
    fn from(table: &LookupTable) -> Self {
        Self::new(table.clone())
    }
}

/// Every baked field is a deterministic function of the source table, and
/// the NaN sentinels in `padded_breakpoints` would defeat a derived
/// field-wise comparison (NaN ≠ NaN), so equality is table equality.
impl PartialEq for BakedLut {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table
    }
}

/// A baked binary16 table: the f16-rounded constants evaluated through the
/// grid index, with the same per-step rounding as [`F16Lut::eval`] —
/// bit-identical to it for every input.
#[derive(Debug, Clone, PartialEq)]
pub struct BakedF16Lut {
    reference: F16Lut,
    baked: BakedLut,
}

impl BakedF16Lut {
    /// Bakes an [`F16Lut`] (whose stored constants are already f16-rounded).
    pub fn new(reference: F16Lut) -> Self {
        let baked = BakedLut::new(reference.table().clone());
        Self { reference, baked }
    }

    /// The reference half-precision table.
    pub fn reference(&self) -> &F16Lut {
        &self.reference
    }

    /// Evaluates with binary16 semantics; bit-identical to [`F16Lut::eval`].
    #[inline(always)]
    pub fn eval(&self, x: f32) -> f32 {
        let x16 = f16_round(x);
        let i = self.baked.segment_index(x16);
        let [slope, intercept] = self.baked.params[i];
        let prod = f16_round(slope * x16);
        f16_round(prod + intercept)
    }

    /// Batched in-place evaluation.
    pub fn eval_slice(&self, xs: &mut [f32]) {
        for x in xs {
            *x = self.eval(*x);
        }
    }
}

/// A baked integer table: grid-indexed segment select over the quantized
/// breakpoints plus the same integer MAC and de-quantization as
/// [`Int32Lut`] — bit-identical to [`Int32Lut::eval`] for every input.
#[derive(Debug, Clone, PartialEq)]
pub struct BakedInt32Lut {
    reference: Int32Lut,
    q_breakpoints: Vec<i32>,
    q_slopes: Vec<i32>,
    q_intercepts: Vec<i64>,
    grid: Grid,
    in_scale: f32,
    out_scale: f32,
}

impl BakedInt32Lut {
    /// Bakes an [`Int32Lut`].
    ///
    /// The grid keys are `q as f32`; the conversion is lossy for large
    /// magnitudes but monotone, which is all the cell map needs — in-cell
    /// comparisons happen on the exact `i32` values.
    pub fn new(reference: Int32Lut) -> Self {
        let q_breakpoints = reference.quantized_breakpoints().to_vec();
        let q_slopes = reference.quantized_slopes().to_vec();
        let q_intercepts = reference.quantized_intercepts().to_vec();
        let keys: Vec<f32> = q_breakpoints.iter().map(|&q| q as f32).collect();
        let grid = Grid::build(&keys);
        let in_scale = reference.input_scale();
        let out_scale = reference.output_scale();
        Self {
            reference,
            q_breakpoints,
            q_slopes,
            q_intercepts,
            grid,
            in_scale,
            out_scale,
        }
    }

    /// The reference integer table.
    pub fn reference(&self) -> &Int32Lut {
        &self.reference
    }

    /// Segment index of a pre-quantized input — equal to the
    /// `partition_point` in [`Int32Lut::eval_quantized`].
    #[inline(always)]
    pub fn segment_index_quantized(&self, q_x: i32) -> usize {
        let cell = self.grid.cell(q_x as f32);
        let mut idx = cell.base as usize;
        if cell.count > 0 {
            for &d in &self.q_breakpoints[idx..idx + cell.count as usize] {
                idx += (d <= q_x) as usize;
            }
        }
        idx
    }

    /// Integer-domain evaluation; bit-identical to
    /// [`Int32Lut::eval_quantized`].
    #[inline(always)]
    pub fn eval_quantized(&self, q_x: i32) -> i64 {
        let i = self.segment_index_quantized(q_x);
        self.q_slopes[i] as i64 * q_x as i64 + self.q_intercepts[i]
    }

    /// Real-domain evaluation; bit-identical to [`Int32Lut::eval`].
    #[inline(always)]
    pub fn eval(&self, x: f32) -> f32 {
        let q_x = crate::precision::quant_i32(x, self.in_scale);
        (self.eval_quantized(q_x) as f64 * self.out_scale as f64) as f32
    }

    /// Batched in-place evaluation.
    pub fn eval_slice(&self, xs: &mut [f32]) {
        for x in xs {
            *x = self.eval(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Segment;
    use crate::precision::input_scale_for_domain;

    fn table(bps: Vec<f32>, params: Vec<(f32, f32)>) -> LookupTable {
        LookupTable::new(
            bps,
            params
                .into_iter()
                .map(|(s, t)| Segment::new(s, t))
                .collect(),
        )
        .unwrap()
    }

    fn probe_points(lut: &LookupTable) -> Vec<f32> {
        let mut xs = vec![
            f32::NAN,
            // Payload-carrying NaNs: low mantissa bits must not leak into
            // the grid cell index (they once did, via `clamp`).
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0x7fc0_3fff),
            f32::from_bits(0xffc0_0001),
            f32::from_bits(0x7f80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN,
            f32::MAX,
            -0.0,
            0.0,
            1e-30,
            -1e-30,
        ];
        for &d in lut.breakpoints() {
            xs.push(d);
            xs.push(next_down(d));
            xs.push(next_up(d));
        }
        for i in -200..=200 {
            xs.push(i as f32 * 0.37);
        }
        xs
    }

    fn next_up(x: f32) -> f32 {
        f32::from_bits(if x >= 0.0 {
            x.to_bits() + 1
        } else {
            x.to_bits() - 1
        })
    }

    fn next_down(x: f32) -> f32 {
        f32::from_bits(if x > 0.0 {
            x.to_bits() - 1
        } else {
            x.to_bits() + 1
        })
    }

    fn assert_bitwise_equal(lut: &LookupTable) {
        let baked = BakedLut::new(lut.clone());
        for x in probe_points(lut) {
            assert_eq!(
                baked.segment_index(x),
                lut.segment_index(x),
                "segment index diverged at {x}"
            );
            assert_eq!(
                baked.eval(x).to_bits(),
                lut.eval(x).to_bits(),
                "eval diverged at {x}"
            );
        }
    }

    #[test]
    fn single_segment_table() {
        assert_bitwise_equal(&table(vec![], vec![(2.0, 1.0)]));
    }

    #[test]
    fn two_segment_abs() {
        assert_bitwise_equal(&table(vec![0.0], vec![(-1.0, 0.0), (1.0, 0.0)]));
    }

    #[test]
    fn duplicate_breakpoints() {
        assert_bitwise_equal(&table(
            vec![0.0, 0.0, 2.0],
            vec![(0.0, 1.0), (0.0, 99.0), (0.0, 2.0), (0.0, 3.0)],
        ));
    }

    #[test]
    fn all_breakpoints_coincident() {
        assert_bitwise_equal(&table(
            vec![1.0, 1.0, 1.0],
            vec![(1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)],
        ));
    }

    #[test]
    fn dense_irregular_breakpoints() {
        // Clustered near zero with one far outlier: stresses cells holding
        // multiple breakpoints and huge empty cell runs.
        assert_bitwise_equal(&table(
            vec![-1e-3, -1e-4, 0.0, 1e-4, 1e-3, 500.0],
            vec![
                (1.0, 0.0),
                (2.0, 0.1),
                (3.0, -0.2),
                (-1.0, 0.3),
                (0.5, 0.0),
                (0.25, 1.0),
                (0.0, 7.0),
            ],
        ));
    }

    #[test]
    fn subnormal_span() {
        // Span so small the grid width underflows: falls back to one cell.
        let lo = 1.0f32;
        let hi = next_up(1.0);
        assert_bitwise_equal(&table(
            vec![lo, hi],
            vec![(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)],
        ));
    }

    #[test]
    fn batch_kernels_match_scalar() {
        // A small table, the widest register-path table (16 segments, with
        // a duplicated breakpoint), and one segment past it (the oracle).
        let reg_edge = table(
            vec![
                -7.0, -6.0, -6.0, -5.0, -4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
            ],
            (0..16)
                .map(|i| (i as f32 * 0.13 - 1.0, i as f32 * 0.25 - 2.0))
                .collect(),
        );
        let oracle_edge = table(
            (0..16).map(|i| i as f32 * 0.75 - 6.0).collect(),
            (0..17)
                .map(|i| (0.9 - i as f32 * 0.11, i as f32 * 0.5 - 4.0))
                .collect(),
        );
        let small = table(
            vec![-2.0, -0.5, 0.0, 1.0, 3.0],
            vec![
                (0.1, 0.0),
                (0.2, 0.5),
                (-0.7, 0.1),
                (1.0, -1.0),
                (0.0, 4.0),
                (2.0, 0.0),
            ],
        );
        for lut in [small, reg_edge, oracle_edge] {
            let baked = BakedLut::new(lut.clone());
            assert_eq!(
                baked.reg.is_some(),
                baked.simd_level() == simd::SimdLevel::Avx2 && baked.entries() <= REG_MAX_SEGMENTS,
                "bake chose the wrong route for {} segments",
                baked.entries()
            );
            let all = probe_points(&lut);
            // Every tail length 0..=7 past the last full 8-lane block.
            let n8 = (all.len() - 8) & !7;
            for xs in (n8..n8 + 8).map(|len| &all[..len]) {
                let (mut got, mut oracle) = (xs.to_vec(), xs.to_vec());
                baked.eval_slice(&mut got);
                baked.eval_slice_scalar(&mut oracle);
                for ((&x, &y), &o) in xs.iter().zip(&got).zip(&oracle) {
                    let want = lut.eval(x).to_bits();
                    assert_eq!(y.to_bits(), want, "eval_slice at {x} (len {})", xs.len());
                    assert_eq!(o.to_bits(), want, "eval_slice_scalar at {x}");
                }
            }
        }
    }

    #[test]
    fn f16_baked_matches_reference() {
        let lut = table(
            vec![-1.5, 0.0, 2.0],
            vec![(0.5, 0.25), (-1.0, 0.0), (2.0, -0.5), (0.0, 3.0)],
        );
        let reference = F16Lut::from_lut(&lut).unwrap();
        let baked = BakedF16Lut::new(reference.clone());
        for x in probe_points(&lut) {
            assert_eq!(
                baked.eval(x).to_bits(),
                reference.eval(x).to_bits(),
                "f16 eval diverged at {x}"
            );
        }
    }

    #[test]
    fn int32_baked_matches_reference() {
        let lut = table(
            vec![-3.0, 0.0, 0.0, 4.0],
            vec![
                (0.5, 0.25),
                (-1.0, 0.0),
                (2.0, -0.5),
                (1.5, 2.0),
                (0.0, 3.0),
            ],
        );
        let reference = Int32Lut::from_lut(&lut, input_scale_for_domain((-8.0, 8.0)));
        let baked = BakedInt32Lut::new(reference.clone());
        for x in probe_points(&lut) {
            assert_eq!(
                baked.eval(x).to_bits(),
                reference.eval(x).to_bits(),
                "int32 eval diverged at {x}"
            );
        }
        for q in [-40_000i32, -1, 0, 1, 12_345, i32::MIN, i32::MAX] {
            assert_eq!(
                baked.eval_quantized(q),
                reference.eval_quantized(q),
                "int32 quantized eval diverged at {q}"
            );
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly_and_deterministically() {
        for (len, parts) in [
            (0usize, 4usize),
            (1, 4),
            (7, 3),
            (8, 3),
            (100, 8),
            (5, 1),
            (3, 9),
        ] {
            let ranges = chunk_ranges(len, parts);
            assert_eq!(ranges, chunk_ranges(len, parts), "not deterministic");
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "gap at {r:?} for ({len},{parts})");
                assert!(r.end > r.start, "empty range for ({len},{parts})");
                next = r.end;
            }
            assert_eq!(next, len, "ranges do not cover 0..{len}");
            assert!(ranges.len() <= parts.max(1));
            // Balanced: sizes differ by at most one.
            if let (Some(min), Some(max)) = (
                ranges.iter().map(|r| r.end - r.start).min(),
                ranges.iter().map(|r| r.end - r.start).max(),
            ) {
                assert!(max - min <= 1, "unbalanced split ({len},{parts})");
            }
        }
    }
}
