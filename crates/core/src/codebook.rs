//! Centroid-codebook amortized GEMM (the LUT-NN / TableNet direction).
//!
//! NN-LUT replaces a transformer's *non-linearities* with table lookup;
//! this module replaces the *linear layers themselves*. The activation
//! vector entering a frozen `y = x·W + b` layer is split into `G`
//! sub-vectors of [`CodebookSpec::sub_len`] components; a k-means
//! calibration pass ([`kmeans`]) over captured activation rows learns `K`
//! centroids per sub-space; bake time precomputes every centroid's
//! partial product against the weight —
//!
//! ```text
//! T[g][c][o] = Σ_{j ∈ group g} centroid[g][c][j] · W[j][o]
//! ```
//!
//! — so inference is **assignment + gather + add**: find each sub-vector's
//! nearest centroid (G·K·L multiplies), then sum the G selected table rows
//! (G·out adds, no multiplies). For RoBERTa-base shapes with `sub_len = 4`
//! and `K = 16` that is ~4× fewer floating-point operations than the FP32
//! GEMM, at the cost of `G·K·out` table floats per layer and a
//! quantization error that shrinks as `K` grows (the accuracy-per-table-
//! size frontier recorded in the `codebook` bench ledger section).
//!
//! # Layout (mirrors [`crate::engine`]'s `Baked*` structure-of-arrays)
//!
//! * `centroids` — `[g][j][c]`: component `j` of every centroid of group
//!   `g` stored contiguously, so the AVX2 kernel computes 8 centroid
//!   distances per instruction with each lane performing the *same*
//!   sequential `j`-order multiply-add chain as the scalar oracle.
//! * `tables` — `[g][c][o]`: each partial-product row contiguous, so the
//!   accumulate pass is a straight 8-wide elementwise add in fixed `g`
//!   order.
//!
//! Groups are padded to a uniform `sub_len`: when `in_dim` does not divide
//! evenly, the tail group's missing components are stored as `0.0` in the
//! centroids and the input is treated as zero-extended, which adds exact
//! `(0 − 0)² = +0.0` terms to every distance — bit-neutral (a sum of
//! non-negative f32 terms is never `-0.0`, and `x + 0.0 == x` for every
//! non-negative finite, infinite, or NaN `x` under IEEE 754).
//!
//! # The bitwise contract
//!
//! [`BakedCodebook::apply_rows`] is **bit-identical** to the scalar oracle
//! [`BakedCodebook::apply_rows_scalar`] on every input — NaN and infinite
//! activations included — by the same three rules as
//! [`crate::engine::simd`]: no FMA (`mul` then `add`, rounding twice, per
//! rule 1), identical special-value routing (nearest-centroid uses only
//! ordered `<` compares, so a NaN distance never wins and an all-NaN group
//! deterministically assigns centroid 0), and identical reduction order
//! (the SIMD distance lanes accumulate in the scalar's `j` order; the
//! argmin itself runs scalar over the distance buffer in centroid order;
//! the gather-accumulate adds table rows in the scalar's `g` order).
//! Detection is stamped **once at bake time** ([`BakedCodebook::bake`]
//! stores [`simd::detect`]'s result), exactly like [`crate::engine::BakedLut`].
//!
//! Because assignment and accumulation are **row-local**, the transformer
//! layer can split batches by row ranges across any executor and inherit
//! the pooled == serial determinism contract unchanged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::simd::{self, SimdLevel};

/// Geometry and calibration hyper-parameters of a codebook bake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodebookSpec {
    /// Sub-vector length `L` (the last group may cover fewer real
    /// components when `in_dim % sub_len != 0`; see the module docs).
    pub sub_len: usize,
    /// Centroids per group (`K`). PIM-DL's LUTerize default is 16.
    pub centroids: usize,
    /// Lloyd iterations after k-means++ seeding.
    pub iters: usize,
    /// Base RNG seed; per-group and per-site seeds are derived from it,
    /// so one spec bakes an entire model deterministically.
    pub seed: u64,
}

impl Default for CodebookSpec {
    fn default() -> Self {
        Self {
            sub_len: 4,
            centroids: 16,
            iters: 8,
            seed: 0xC0DE_B00C,
        }
    }
}

impl CodebookSpec {
    /// The spec's seed mixed with a site identifier (layer index, linear
    /// index, group index…), so every k-means run in a model draws a
    /// distinct deterministic stream.
    pub fn site_seed(&self, site: u64) -> u64 {
        // SplitMix64 finalizer: cheap, well-mixed, stable.
        let mut z = self.seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Deterministic k-means (k-means++ seeding + Lloyd iterations) over
/// `n × dim` row-major samples. Returns `k × dim` row-major centroids.
///
/// Same `(samples, dim, k, iters, seed)` → bitwise-identical centroids:
/// every RNG draw, assignment compare (`<`, first-minimum tie-break) and
/// accumulation runs in a fixed serial order. Empty clusters are re-seeded
/// from the sample currently farthest from its assigned centroid
/// (first-maximum tie-break), which is also deterministic.
///
/// # Panics
///
/// Panics if `dim == 0`, `k == 0`, `samples.len()` is not a multiple of
/// `dim`, or no samples are given.
pub fn kmeans(samples: &[f32], dim: usize, k: usize, iters: usize, seed: u64) -> Vec<f32> {
    assert!(dim > 0, "kmeans: dim must be positive");
    assert!(k > 0, "kmeans: k must be positive");
    assert!(
        samples.len().is_multiple_of(dim),
        "kmeans: samples length {} not a multiple of dim {dim}",
        samples.len()
    );
    let n = samples.len() / dim;
    assert!(n > 0, "kmeans: need at least one sample");
    let row = |i: usize| &samples[i * dim..(i + 1) * dim];
    let dist2 = |a: &[f32], b: &[f32]| -> f64 {
        let mut d = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            let diff = (*x - *y) as f64;
            d += diff * diff;
        }
        d
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = vec![0.0f32; k * dim];

    // k-means++ seeding: first center uniform, the rest D²-weighted.
    let first = rng.gen_range(0..n);
    centroids[..dim].copy_from_slice(row(first));
    let mut best_d2: Vec<f64> = (0..n).map(|i| dist2(row(i), row(first))).collect();
    for c in 1..k {
        let total: f64 = best_d2.iter().sum();
        let pick = if total > 0.0 {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in best_d2.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        } else {
            // All mass on existing centers (duplicate-heavy data): any
            // sample works; a uniform draw keeps the stream moving.
            rng.gen_range(0..n)
        };
        centroids[c * dim..(c + 1) * dim].copy_from_slice(row(pick));
        for (i, best) in best_d2.iter_mut().enumerate() {
            let d = dist2(row(i), row(pick));
            if d < *best {
                *best = d;
            }
        }
    }

    // Lloyd iterations: assign (first-minimum), average (f64 sums in
    // sample order), re-seed empty clusters from the worst-fit sample.
    let mut assign = vec![0usize; n];
    for _ in 0..iters {
        for (i, slot) in assign.iter_mut().enumerate() {
            let r = row(i);
            let mut best = f64::INFINITY;
            let mut best_c = 0usize;
            for c in 0..k {
                let d = dist2(r, &centroids[c * dim..(c + 1) * dim]);
                if d < best {
                    best = d;
                    best_c = c;
                }
            }
            *slot = best_c;
        }
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (i, &c) in assign.iter().enumerate() {
            counts[c] += 1;
            for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(row(i)) {
                *s += x as f64;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..dim {
                    centroids[c * dim + j] = (sums[c * dim + j] / counts[c] as f64) as f32;
                }
            } else {
                // Re-seed from the sample farthest from its centroid.
                let mut worst = -1.0f64;
                let mut worst_i = 0usize;
                for i in 0..n {
                    let d = dist2(row(i), &centroids[assign[i] * dim..(assign[i] + 1) * dim]);
                    if d > worst {
                        worst = d;
                        worst_i = i;
                    }
                }
                centroids[c * dim..(c + 1) * dim].copy_from_slice(row(worst_i));
            }
        }
    }
    centroids
}

/// A baked centroid-codebook linear layer: learned per-group centroids
/// plus precomputed centroid·weight partial-product tables, in the SoA
/// layout the batch kernels want (see the module docs).
///
/// Built once by [`BakedCodebook::bake`] from a frozen weight, a bias,
/// and captured calibration rows; evaluated by [`BakedCodebook::apply_rows`]
/// (dispatched) or [`BakedCodebook::apply_rows_scalar`] (the oracle).
#[derive(Debug, Clone)]
pub struct BakedCodebook {
    in_dim: usize,
    out_dim: usize,
    sub_len: usize,
    groups: usize,
    k: usize,
    /// `[g][j][c]` — component-major transposed centroids, zero-padded in
    /// `j` for the tail group. Length `groups · sub_len · k`.
    centroids: Vec<f32>,
    /// `[g][c][o]` — partial-product rows. Length `groups · k · out_dim`.
    tables: Vec<f32>,
    bias: Vec<f32>,
    level: SimdLevel,
}

impl BakedCodebook {
    /// Learns the codebooks from `rows` (`n × in_dim` captured activation
    /// rows, row-major) and bakes the partial-product tables against
    /// `weight` (`in_dim × out_dim`, row-major) and `bias`.
    ///
    /// Deterministic: same inputs and spec → bitwise-identical engine
    /// (the stamped SIMD level only selects the kernel, never the bits).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches, a zero-dimension spec, or when `rows`
    /// is empty — calibration data is not optional.
    pub fn bake(
        weight: &[f32],
        in_dim: usize,
        out_dim: usize,
        bias: &[f32],
        rows: &[f32],
        spec: &CodebookSpec,
    ) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "codebook: empty weight");
        assert!(spec.sub_len > 0, "codebook: sub_len must be positive");
        assert!(spec.centroids > 0, "codebook: need at least one centroid");
        assert_eq!(weight.len(), in_dim * out_dim, "codebook: weight shape");
        assert_eq!(bias.len(), out_dim, "codebook: bias shape");
        assert!(
            rows.len().is_multiple_of(in_dim) && !rows.is_empty(),
            "codebook: calibration rows must be non-empty n × in_dim"
        );
        let n = rows.len() / in_dim;
        let sl = spec.sub_len;
        let k = spec.centroids;
        let groups = in_dim.div_ceil(sl);

        let mut centroids = vec![0.0f32; groups * sl * k];
        let mut tables = vec![0.0f32; groups * k * out_dim];
        let mut sub = Vec::with_capacity(n * sl);
        for g in 0..groups {
            let lo = g * sl;
            let glen = sl.min(in_dim - lo);
            // Gather this group's sub-vectors from every calibration row.
            sub.clear();
            for r in 0..n {
                sub.extend_from_slice(&rows[r * in_dim + lo..r * in_dim + lo + glen]);
            }
            let cb = kmeans(&sub, glen, k, spec.iters, spec.site_seed(g as u64));
            // Transpose into [j][c] (tail components stay zero-padded).
            for c in 0..k {
                for j in 0..glen {
                    centroids[(g * sl + j) * k + c] = cb[c * glen + j];
                }
            }
            // T[g][c][o] = Σ_j centroid[c][j] · W[lo + j][o].
            for c in 0..k {
                let t = &mut tables[(g * k + c) * out_dim..(g * k + c + 1) * out_dim];
                for j in 0..glen {
                    let cj = cb[c * glen + j];
                    let w = &weight[(lo + j) * out_dim..(lo + j + 1) * out_dim];
                    for (tv, &wv) in t.iter_mut().zip(w) {
                        *tv += cj * wv;
                    }
                }
            }
        }

        Self {
            in_dim,
            out_dim,
            sub_len: sl,
            groups,
            k,
            centroids,
            tables,
            bias: bias.to_vec(),
            level: simd::detect(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Sub-vector groups (`ceil(in_dim / sub_len)`).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Centroids per group.
    pub fn centroids(&self) -> usize {
        self.k
    }

    /// The kernel tier stamped at bake time.
    pub fn simd_level(&self) -> SimdLevel {
        self.level
    }

    /// Bytes held by the partial-product tables (the size axis of the
    /// accuracy-per-table-size frontier).
    pub fn table_bytes(&self) -> usize {
        self.tables.len() * core::mem::size_of::<f32>()
    }

    /// All `k` squared distances of row sub-vector `g`, in the oracle's
    /// op order: for each centroid, `j`-sequential `mul` + `add` over the
    /// zero-extended sub-vector.
    #[inline]
    fn group_distances_scalar(&self, row: &[f32], g: usize, dist: &mut [f32]) {
        let (sl, k) = (self.sub_len, self.k);
        let base = g * sl;
        let cb = &self.centroids[g * sl * k..(g + 1) * sl * k];
        for (c, d) in dist.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for j in 0..sl {
                let xv = if base + j < self.in_dim {
                    row[base + j]
                } else {
                    0.0
                };
                let diff = xv - cb[j * k + c];
                acc += diff * diff;
            }
            *d = acc;
        }
    }

    /// The scalar oracle: assignment + gather-accumulate for `rows` packed
    /// activation rows. `x` is `rows × in_dim`, `out` is `rows × out_dim`
    /// (overwritten). This kernel *defines* the bits; the dispatched
    /// [`BakedCodebook::apply_rows`] must match it exactly.
    pub fn apply_rows_scalar(&self, x: &[f32], rows: usize, out: &mut [f32]) {
        assert_eq!(x.len(), rows * self.in_dim, "codebook: input shape");
        assert_eq!(out.len(), rows * self.out_dim, "codebook: output shape");
        let mut dist = vec![0.0f32; self.k];
        for r in 0..rows {
            let row = &x[r * self.in_dim..(r + 1) * self.in_dim];
            let o = &mut out[r * self.out_dim..(r + 1) * self.out_dim];
            o.copy_from_slice(&self.bias);
            for g in 0..self.groups {
                self.group_distances_scalar(row, g, &mut dist);
                let mut best = f32::INFINITY;
                let mut best_c = 0usize;
                for (c, &d) in dist.iter().enumerate() {
                    if d < best {
                        best = d;
                        best_c = c;
                    }
                }
                let t = &self.tables[(g * self.k + best_c) * self.out_dim
                    ..(g * self.k + best_c + 1) * self.out_dim];
                for (ov, &tv) in o.iter_mut().zip(t) {
                    *ov += tv;
                }
            }
        }
    }

    /// The dispatched batch kernel: AVX2 when the bake stamped
    /// [`SimdLevel::Avx2`], the scalar oracle otherwise — the same rule
    /// the FP32 LUT engine's `eval_slice` follows. Bit-identical to
    /// [`BakedCodebook::apply_rows_scalar`] for every input, NaN/inf
    /// included.
    pub fn apply_rows(&self, x: &[f32], rows: usize, out: &mut [f32]) {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if self.level == SimdLevel::Avx2 {
            assert_eq!(x.len(), rows * self.in_dim, "codebook: input shape");
            assert_eq!(out.len(), rows * self.out_dim, "codebook: output shape");
            // SAFETY: the bake only stamps Avx2 after
            // `is_x86_feature_detected!("avx2")` returned true.
            unsafe { self.apply_rows_avx2(x, rows, out) };
            return;
        }
        self.apply_rows_scalar(x, rows, out);
    }

    /// The AVX2 batch kernel: 8 centroid-distance lanes per instruction
    /// plus 8-wide table accumulation, bit-identical to the scalar oracle
    /// (no FMA, scalar argmin in centroid order, `g`-order adds — see the
    /// module docs).
    ///
    /// # Safety
    ///
    /// The caller must guarantee the running CPU supports AVX2.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_rows_avx2(&self, x: &[f32], rows: usize, out: &mut [f32]) {
        use core::arch::x86_64::*;

        let (sl, k, groups) = (self.sub_len, self.k, self.groups);
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let k8 = k & !7;
        let o8 = out_dim & !7;
        let mut dist = vec![0.0f32; k];

        for r in 0..rows {
            let row = &x[r * in_dim..(r + 1) * in_dim];
            let o = &mut out[r * out_dim..(r + 1) * out_dim];
            o.copy_from_slice(&self.bias);
            for g in 0..groups {
                let base = g * sl;
                let cb = &self.centroids[g * sl * k..(g + 1) * sl * k];
                // Distances: 8 centroids per vector, each lane running the
                // scalar's j-sequential mul-then-add chain (no FMA).
                let mut c = 0;
                while c < k8 {
                    let mut acc = _mm256_setzero_ps();
                    for j in 0..sl {
                        let xv = if base + j < in_dim {
                            row[base + j]
                        } else {
                            0.0
                        };
                        let xs = _mm256_set1_ps(xv);
                        let cv = _mm256_loadu_ps(cb.as_ptr().add(j * k + c));
                        let diff = _mm256_sub_ps(xs, cv);
                        acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
                    }
                    _mm256_storeu_ps(dist.as_mut_ptr().add(c), acc);
                    c += 8;
                }
                // Centroid-count tail: the scalar formula, same j order.
                for c in k8..k {
                    let mut acc = 0.0f32;
                    for j in 0..sl {
                        let xv = if base + j < in_dim {
                            row[base + j]
                        } else {
                            0.0
                        };
                        let diff = xv - cb[j * k + c];
                        acc += diff * diff;
                    }
                    dist[c] = acc;
                }
                // Argmin stays scalar and in centroid order: identical
                // tie-breaks and NaN routing to the oracle.
                let mut best = f32::INFINITY;
                let mut best_c = 0usize;
                for (c, &d) in dist.iter().enumerate() {
                    if d < best {
                        best = d;
                        best_c = c;
                    }
                }
                // Gather-accumulate: one elementwise add per output lane,
                // in the scalar's g order.
                let t = &self.tables[(g * k + best_c) * out_dim..(g * k + best_c + 1) * out_dim];
                let mut i = 0;
                while i < o8 {
                    let ov = _mm256_loadu_ps(o.as_ptr().add(i));
                    let tv = _mm256_loadu_ps(t.as_ptr().add(i));
                    _mm256_storeu_ps(o.as_mut_ptr().add(i), _mm256_add_ps(ov, tv));
                    i += 8;
                }
                for i in o8..out_dim {
                    o[i] += t[i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect()
    }

    #[test]
    fn kmeans_is_deterministic_per_seed() {
        let data = sample_rows(200, 3, 11);
        let a = kmeans(&data, 3, 8, 6, 42);
        let b = kmeans(&data, 3, 8, 6, 42);
        assert_eq!(a, b, "same seed + data must give identical centroids");
        let c = kmeans(&data, 3, 8, 6, 43);
        assert_ne!(a, c, "different seeds should explore different inits");
    }

    #[test]
    fn kmeans_handles_fewer_samples_than_clusters() {
        let data = sample_rows(3, 2, 5);
        let cb = kmeans(&data, 2, 8, 4, 7);
        assert_eq!(cb.len(), 16);
        assert!(cb.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn kmeans_centers_obvious_clusters() {
        // Two tight blobs at ±10: k = 2 must land one center on each.
        let mut data = Vec::new();
        for i in 0..50 {
            let jitter = (i % 7) as f32 * 0.01;
            data.extend_from_slice(&[10.0 + jitter, 10.0 - jitter]);
            data.extend_from_slice(&[-10.0 - jitter, -10.0 + jitter]);
        }
        let cb = kmeans(&data, 2, 2, 10, 3);
        let mut mags: Vec<f32> = cb.chunks(2).map(|c| c[0] + c[1]).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(mags[0] < -19.0 && mags[1] > 19.0, "centers {cb:?}");
    }

    #[test]
    fn bake_shapes_and_tail_padding() {
        // in_dim = 10 with sub_len = 4 → groups = 3, tail covers 2 dims.
        let (in_dim, out_dim) = (10, 6);
        let weight = sample_rows(in_dim, out_dim, 1);
        let bias = vec![0.5; out_dim];
        let rows = sample_rows(32, in_dim, 2);
        let spec = CodebookSpec {
            sub_len: 4,
            centroids: 5, // not a multiple of the 8-lane width
            iters: 4,
            seed: 9,
        };
        let cb = BakedCodebook::bake(&weight, in_dim, out_dim, &bias, &rows, &spec);
        assert_eq!(cb.groups(), 3);
        assert_eq!(cb.centroids(), 5);
        assert_eq!(cb.table_bytes(), 3 * 5 * out_dim * 4);
        // Tail padding must be exactly zero in the stored centroids.
        for j in 2..4 {
            for c in 0..5 {
                assert_eq!(cb.centroids[(2 * 4 + j) * 5 + c], 0.0);
            }
        }
        let x = sample_rows(7, in_dim, 3);
        let mut out = vec![0.0; 7 * out_dim];
        cb.apply_rows(&x, 7, &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dispatched_matches_oracle_bitwise() {
        let (in_dim, out_dim) = (13, 9);
        let weight = sample_rows(in_dim, out_dim, 21);
        let bias: Vec<f32> = (0..out_dim).map(|i| i as f32 * 0.1 - 0.4).collect();
        let rows = sample_rows(64, in_dim, 22);
        let spec = CodebookSpec {
            sub_len: 4,
            centroids: 11,
            iters: 5,
            seed: 77,
        };
        let cb = BakedCodebook::bake(&weight, in_dim, out_dim, &bias, &rows, &spec);
        let mut x = sample_rows(9, in_dim, 23);
        // Adversarial specials: NaN, ±inf, -0.0 scattered through rows.
        x[0] = f32::NAN;
        x[in_dim + 3] = f32::INFINITY;
        x[2 * in_dim + 5] = f32::NEG_INFINITY;
        x[3 * in_dim] = -0.0;
        let mut got = vec![0.0f32; 9 * out_dim];
        let mut want = vec![0.0f32; 9 * out_dim];
        cb.apply_rows(&x, 9, &mut got);
        cb.apply_rows_scalar(&x, 9, &mut want);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "dispatched kernel diverged");
        }
    }

    #[test]
    fn nearest_centroid_reconstruction_beats_garbage() {
        // A codebook with plenty of centroids over low-dim groups should
        // reproduce y = x·W + b with modest relative error on in-
        // distribution rows.
        let (in_dim, out_dim) = (16, 8);
        let weight = sample_rows(in_dim, out_dim, 31);
        let bias = vec![0.1; out_dim];
        let rows = sample_rows(512, in_dim, 32);
        let spec = CodebookSpec {
            sub_len: 2,
            centroids: 32,
            iters: 10,
            seed: 5,
        };
        let cb = BakedCodebook::bake(&weight, in_dim, out_dim, &bias, &rows, &spec);
        let x = sample_rows(64, in_dim, 33);
        let mut approx = vec![0.0f32; 64 * out_dim];
        cb.apply_rows(&x, 64, &mut approx);
        // Exact reference.
        let mut exact = vec![0.0f32; 64 * out_dim];
        for r in 0..64 {
            for o in 0..out_dim {
                let mut acc = bias[o];
                for j in 0..in_dim {
                    acc += x[r * in_dim + j] * weight[j * out_dim + o];
                }
                exact[r * out_dim + o] = acc;
            }
        }
        let num: f32 = approx
            .iter()
            .zip(&exact)
            .map(|(a, e)| (a - e) * (a - e))
            .sum();
        let den: f32 = exact.iter().map(|e| e * e).sum();
        let rel = (num / den).sqrt();
        assert!(rel < 0.5, "codebook relative error {rel}");
    }

    #[test]
    fn bake_is_deterministic() {
        let (in_dim, out_dim) = (8, 4);
        let weight = sample_rows(in_dim, out_dim, 41);
        let bias = vec![0.0; out_dim];
        let rows = sample_rows(100, in_dim, 42);
        let spec = CodebookSpec::default();
        let a = BakedCodebook::bake(&weight, in_dim, out_dim, &bias, &rows, &spec);
        let b = BakedCodebook::bake(&weight, in_dim, out_dim, &bias, &rows, &spec);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.tables, b.tables);
    }

    #[test]
    #[should_panic(expected = "calibration rows")]
    fn bake_rejects_empty_calibration() {
        let _ = BakedCodebook::bake(&[1.0], 1, 1, &[0.0], &[], &CodebookSpec::default());
    }
}
