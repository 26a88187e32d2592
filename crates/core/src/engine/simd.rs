//! The explicit AVX2 batch kernel for the baked FP32 LUT engine.
//!
//! The scalar [`BakedLut::eval_slice_scalar`] kernel is already branchless
//! and autovectorizes its cell-map pass, but its gather side — cell record
//! → segment index → `(slope, intercept)` → multiply-add — is left to
//! whatever LLVM can prove. This module holds the engine's one explicit
//! `core::arch` kernel, under the rule
//! [`crate::codebook::BakedCodebook::apply_rows`] follows too: the AVX2
//! kernel when the bake says it applies, the scalar oracle otherwise.
//!
//! * **AVX2 register path** ([`SimdLevel::Avx2`], tables with ≤ 16
//!   segments — every paper-config table and every served kit): no gathers
//!   at all. A 4-level branchless binary search over broadcast breakpoint
//!   compares counts `breakpoint ≤ x` to get the segment index, then
//!   `vpermd` + blend selects `(slope, intercept)` from four in-register
//!   vectors.
//! * **Scalar oracle** ([`SimdLevel::Scalar`], or any table wider than 16
//!   segments): [`BakedLut::eval_slice_scalar`]. Non-x86-64 targets, CPUs
//!   without AVX2 and `--no-default-features` builds always take it.
//!
//! Wider tables run the oracle on purpose: AVX2 gather kernels for them
//! measured 0.67–1.34× of it (noise-bound), and an SSE2 cell-map-only
//! tier 0.84–1.09×, on a 2-vCPU AVX2 host — see docs/PERFORMANCE.md.
//!
//! # The bitwise contract
//!
//! The AVX2 kernel is **bit-identical** to the scalar oracle for every
//! input — NaN payloads, infinities, breakpoint-exact values, duplicate
//! breakpoints, non-multiple-of-lane-width tails. ULP-exact is *not* the
//! contract; the bits are. Two rules make that hold (and
//! docs/PERFORMANCE.md walks through why each one matters):
//!
//! 1. **No FMA.** The scalar kernel computes `s·x + t` as an IEEE multiply
//!    followed by an IEEE add, rounding twice. `vfmadd*` rounds once and
//!    would differ in the last bit on roughly one input in a thousand, so
//!    the kernel uses `mul` + `add` even where FMA would be faster.
//! 2. **Same selection index.** The binary search lands on
//!    `partition_point(breakpoint ≤ x)`, which is exactly the grid walk's
//!    `base + in-cell count` (see the exactness argument on the engine's
//!    `Grid`). Ordered compares fail on NaN, so a NaN input selects
//!    segment 0 on both paths.
//!
//! The contract is enforced by `tests/engine_equivalence.rs` (a
//! SIMD-vs-scalar property leg over adversarial tables) and inherited by
//! everything downstream: the serve determinism matrix and the chaos suite
//! run bit-identical with the feature on or off.
//!
//! # Dispatch
//!
//! The kernel choice is made **once, at bake time**: [`BakedLut::new`]
//! bakes the register-resident parameter store only when [`detect`]
//! returns [`SimdLevel::Avx2`] and the table fits it, and
//! [`BakedLut::eval_slice`] runs the AVX2 kernel exactly when that store
//! is present — no per-call CPUID, no per-element dispatch.

// Scalar-only builds name `BakedLut` in doc links alone.
#[cfg_attr(
    not(all(feature = "simd", target_arch = "x86_64")),
    allow(unused_imports)
)]
use super::BakedLut;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use super::RegParams;

/// The batch-kernel tier the running CPU supports (see [`detect`]).
///
/// Ordered weakest to strongest.
///
/// # Examples
///
/// ```
/// use nnlut_core::engine::simd::{self, SimdLevel};
///
/// // With the `simd` feature on x86-64, AVX2 exactly when the CPU has it…
/// #[cfg(all(feature = "simd", target_arch = "x86_64"))]
/// assert_eq!(
///     simd::detect() == SimdLevel::Avx2,
///     is_x86_feature_detected!("avx2")
/// );
/// // …and the scalar oracle everywhere else.
/// #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
/// assert_eq!(simd::detect(), SimdLevel::Scalar);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// The scalar oracle kernel (always available, always correct).
    Scalar,
    /// The 8-lane AVX2 register-resident kernel.
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name, used by the kernel ledger's `level` header
    /// field and the `bench_check` gate.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Detects the strongest kernel tier the running CPU supports.
///
/// Called once per bake by [`BakedLut::new`]. Returns
/// [`SimdLevel::Avx2`] when the `simd` cargo feature is enabled, the
/// target is x86-64 and `is_x86_feature_detected!("avx2")` holds;
/// [`SimdLevel::Scalar`] otherwise.
///
/// # Examples
///
/// ```
/// use nnlut_core::engine::BakedLut;
/// use nnlut_core::engine::simd;
/// use nnlut_core::{LookupTable, Segment};
///
/// let lut = LookupTable::new(
///     vec![0.0],
///     vec![Segment::new(-1.0, 0.0), Segment::new(1.0, 0.0)],
/// )?;
/// let baked = BakedLut::new(lut);
/// // The engine reports the detected level…
/// assert_eq!(baked.simd_level(), simd::detect());
/// // …and whatever that level is, the dispatched kernel is bit-identical
/// // to the scalar oracle.
/// let xs = [-2.5f32, -0.0, 3.75, f32::NAN, f32::INFINITY];
/// let mut dispatched = xs.to_vec();
/// let mut scalar = xs.to_vec();
/// baked.eval_slice(&mut dispatched);
/// baked.eval_slice_scalar(&mut scalar);
/// for (d, s) in dispatched.iter().zip(&scalar) {
///     assert_eq!(d.to_bits(), s.to_bits());
/// }
/// # Ok::<(), nnlut_core::CoreError>(())
/// ```
pub fn detect() -> SimdLevel {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if is_x86_feature_detected!("avx2") {
        return SimdLevel::Avx2;
    }
    SimdLevel::Scalar
}

/// The AVX2 batch kernel over the register-resident parameter store: 8
/// lanes per step, no gathers, bit-identical to
/// [`BakedLut::eval_slice_scalar`]. The non-multiple-of-8 tail runs on the
/// scalar oracle.
///
/// # Safety
///
/// The caller must guarantee the running CPU supports AVX2 (the bake only
/// builds `reg` after [`detect`] returned [`SimdLevel::Avx2`]).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
pub(super) unsafe fn eval_slice_avx2(lut: &BakedLut, reg: &RegParams, xs: &mut [f32]) {
    use core::arch::x86_64::*;

    let n8 = xs.len() & !7;
    // The segment index is the global count of `breakpoint ≤ x` —
    // bit-identical to the grid walk by the `Grid` exactness argument. The
    // `(slope, intercept)` pair is then selected from four vector
    // registers with `vpermd` + blend.
    let s_lo = _mm256_loadu_ps(reg.slopes.as_ptr());
    let s_hi = _mm256_loadu_ps(reg.slopes.as_ptr().add(8));
    let t_lo = _mm256_loadu_ps(reg.intercepts.as_ptr());
    let t_hi = _mm256_loadu_ps(reg.intercepts.as_ptr().add(8));
    let seven = _mm256_set1_epi32(7);
    let c8 = _mm256_set1_epi32(8);
    let c4 = _mm256_set1_epi32(4);
    let c2 = _mm256_set1_epi32(2);
    // Pivot registers of the 4-level branchless binary search over
    // the NaN-padded sorted breakpoints `b[0..16]`. Searching for
    // `partition_point(b ≤ x)` needs only `log2(16) = 4` ordered
    // compares per lane instead of 16: the predicate `b[i] ≤ x` is
    // monotone non-increasing in `i` (breakpoints are validated
    // sorted; the NaN tail always compares false), so the classic
    // stride-halving walk lands on the exact count — the same index
    // the scalar grid walk computes, NaN inputs included (every
    // probe fails, leaving index 0).
    let bp = &reg.breakpoints;
    let pivot8 = _mm256_set1_ps(bp[7]);
    let pivot4_lo = _mm256_set1_ps(bp[3]);
    let pivot4_hi = _mm256_set1_ps(bp[11]);
    // Stride-2 pivots `b[idx+1]` for `idx ∈ {0,4,8,12}`, fetched by
    // `vpermd` with `idx >> 2`; stride-1 pivots `b[idx]` for even
    // `idx`, fetched with `idx >> 1`.
    let pivot2 = _mm256_setr_ps(bp[1], bp[5], bp[9], bp[13], bp[1], bp[5], bp[9], bp[13]);
    let pivot1 = _mm256_setr_ps(bp[0], bp[2], bp[4], bp[6], bp[8], bp[10], bp[12], bp[14]);

    macro_rules! eval8 {
        ($p:expr) => {{
            let p = $p;
            let x = _mm256_loadu_ps(p);
            // Level 8: `b[7] ≤ x` ⟺ at least 8 breakpoints ≤ x.
            let m8 = _mm256_cmp_ps::<_CMP_LE_OQ>(pivot8, x);
            let mut idx = _mm256_and_si256(_mm256_castps_si256(m8), c8);
            // Level 4: probe `b[idx + 3]`, reusing `m8` as the select.
            let key = _mm256_blendv_ps(pivot4_lo, pivot4_hi, m8);
            let m4 = _mm256_cmp_ps::<_CMP_LE_OQ>(key, x);
            idx = _mm256_add_epi32(idx, _mm256_and_si256(_mm256_castps_si256(m4), c4));
            // Level 2: probe `b[idx + 1]`.
            let key = _mm256_permutevar8x32_ps(pivot2, _mm256_srli_epi32::<2>(idx));
            let m2 = _mm256_cmp_ps::<_CMP_LE_OQ>(key, x);
            idx = _mm256_add_epi32(idx, _mm256_and_si256(_mm256_castps_si256(m2), c2));
            // Level 1: probe `b[idx]`; cmp lanes are −1, so
            // subtracting adds the final 1.
            let key = _mm256_permutevar8x32_ps(pivot1, _mm256_srli_epi32::<1>(idx));
            let m1 = _mm256_cmp_ps::<_CMP_LE_OQ>(key, x);
            idx = _mm256_sub_epi32(idx, _mm256_castps_si256(m1));
            // `vpermd` reads the low 3 bits of each index lane; the
            // `idx > 7` mask picks the upper half of the 16-entry
            // parameter store.
            let hi = _mm256_castsi256_ps(_mm256_cmpgt_epi32(idx, seven));
            let s = _mm256_blendv_ps(
                _mm256_permutevar8x32_ps(s_lo, idx),
                _mm256_permutevar8x32_ps(s_hi, idx),
                hi,
            );
            let t = _mm256_blendv_ps(
                _mm256_permutevar8x32_ps(t_lo, idx),
                _mm256_permutevar8x32_ps(t_hi, idx),
                hi,
            );
            // mul + add, NOT fmadd: the scalar oracle rounds twice.
            _mm256_storeu_ps(p, _mm256_add_ps(_mm256_mul_ps(s, x), t));
        }};
    }

    let base = xs.as_mut_ptr();
    let n32 = xs.len() & !31;
    let mut i = 0;
    // 4×8 lanes per iteration: the four compare-count chains are
    // independent, so they overlap and hide each other's latency.
    while i < n32 {
        eval8!(base.add(i));
        eval8!(base.add(i + 8));
        eval8!(base.add(i + 16));
        eval8!(base.add(i + 24));
        i += 32;
    }
    while i < n8 {
        eval8!(base.add(i));
        i += 8;
    }
    if n8 < xs.len() {
        lut.eval_slice_scalar(&mut xs[n8..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_named() {
        let a = detect();
        let b = detect();
        assert_eq!(a, b, "detection must be deterministic");
        assert!(["scalar", "avx2"].contains(&a.name()));
    }

    #[test]
    fn level_ordering_matches_strength() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
    }
}
