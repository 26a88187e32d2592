//! Property tests of the centroid-codebook (amortized-GEMM) engine:
//!
//! * **calibration determinism** — the same seed and the same sample set
//!   must produce bitwise-identical codebooks (and identical baked
//!   partial-product tables), because replica-sharded serving clones the
//!   bake and any divergence would silently break pooled == serial;
//! * **kernel equivalence** — the dispatched kernel (`apply_rows`, AVX2
//!   when baked at that tier) must match the scalar oracle
//!   (`apply_rows_scalar`) bit for bit, including NaN/±inf activations,
//!   signed zeros, and input widths that do not divide the sub-vector
//!   length (zero-padded tail groups);
//! * **served drift ceiling** — a seeded bake on a tiny model keeps the
//!   codebook-served hidden states within a fixed relative error of the
//!   F32-served ones.

use nn_lut::core::codebook::{kmeans, BakedCodebook, CodebookSpec};
use nn_lut::core::train::TrainConfig;
use nn_lut::core::NnLutKit;
use nn_lut::serve::{BatchPolicy, LutServer, ServerConfig};
use nn_lut::transformer::{BertModel, MatmulMode, Nonlinearity, TransformerConfig};
use proptest::prelude::*;

/// A spec kept small enough for property-test throughput while still
/// exercising the interesting shape axes (sub-vector length, centroid
/// count, RNG seed).
fn arb_spec() -> impl Strategy<Value = CodebookSpec> {
    (1usize..6, 2usize..10, 0u64..u64::MAX).prop_map(|(sub_len, centroids, seed)| CodebookSpec {
        sub_len,
        centroids,
        iters: 3,
        seed,
    })
}

/// Finite calibration rows: `n_rows` rows of width `in_dim`, seeded from
/// a proptest-chosen u64 so shrinking stays meaningful.
fn calib_rows(in_dim: usize, n_rows: usize, seed: u64) -> Vec<f32> {
    (0..in_dim * n_rows)
        .map(|i| {
            let z = (seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(0x2545_F491_4F6C_DD1D);
            ((z >> 40) as f32 / 16_777_216.0 - 0.5) * 6.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// k-means calibration is a pure function of (samples, shape, seed):
    /// two runs with identical inputs return bitwise-identical centroids.
    #[test]
    fn kmeans_same_seed_same_data_identical_codebooks(
        dim in 1usize..6,
        k in 1usize..9,
        iters in 0usize..6,
        seed in 0u64..u64::MAX,
        n in 1usize..40,
        data_seed in 0u64..u64::MAX,
    ) {
        let samples = calib_rows(dim, n, data_seed);
        let a = kmeans(&samples, dim, k, iters, seed);
        let b = kmeans(&samples, dim, k, iters, seed);
        prop_assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!(x.is_finite(), "centroid {} not finite", i);
            prop_assert_eq!(x.to_bits(), y.to_bits(), "centroid {} diverged across reruns", i);
        }
    }

    /// The whole bake — per-group k-means plus table precompute — is
    /// deterministic: two independent bakes from the same inputs agree on
    /// every table entry bit for bit.
    #[test]
    fn bake_is_deterministic(
        spec in arb_spec(),
        in_dim in 1usize..24,
        out_dim in 1usize..12,
        n_rows in 4usize..24,
        data_seed in 0u64..u64::MAX,
    ) {
        let weight = calib_rows(out_dim, in_dim, data_seed ^ 0xA5A5);
        let bias = calib_rows(out_dim, 1, data_seed ^ 0x5A5A);
        let rows = calib_rows(in_dim, n_rows, data_seed);
        let a = BakedCodebook::bake(&weight, in_dim, out_dim, &bias, &rows, &spec);
        let b = BakedCodebook::bake(&weight, in_dim, out_dim, &bias, &rows, &spec);
        let probe = calib_rows(in_dim, 3, data_seed ^ 0xBEEF);
        let mut out_a = vec![0.0f32; 3 * out_dim];
        let mut out_b = vec![0.0f32; 3 * out_dim];
        a.apply_rows_scalar(&probe, 3, &mut out_a);
        b.apply_rows_scalar(&probe, 3, &mut out_b);
        for (x, y) in out_a.iter().zip(&out_b) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "independent bakes diverged");
        }
    }

    /// Dispatched kernel == scalar oracle, bit for bit, on adversarial
    /// activations: NaNs (payload-carrying included), ±inf, ±0.0, and
    /// widths chosen so the last sub-vector group is a zero-padded tail.
    #[test]
    fn dispatched_kernel_matches_oracle_bitwise(
        spec in arb_spec(),
        in_dim in 1usize..24,
        out_dim in 1usize..12,
        rows in 1usize..7,
        data_seed in 0u64..u64::MAX,
        special_lane in 0usize..8,
    ) {
        let weight = calib_rows(out_dim, in_dim, data_seed ^ 0x17);
        let bias = calib_rows(out_dim, 1, data_seed ^ 0x23);
        let calib = calib_rows(in_dim, 16, data_seed);
        let baked = BakedCodebook::bake(&weight, in_dim, out_dim, &bias, &calib, &spec);

        let mut x = calib_rows(in_dim, rows, data_seed ^ 0x31);
        let specials = [
            f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MAX,
            1e-38,
        ];
        // Scatter specials so several rows / groups see them, starting at a
        // proptest-chosen lane.
        let len = x.len();
        for (i, s) in specials.into_iter().enumerate() {
            x[(special_lane + i * 5) % len] = s;
        }

        let mut want = vec![0.0f32; rows * out_dim];
        let mut got = vec![0.0f32; rows * out_dim];
        baked.apply_rows_scalar(&x, rows, &mut want);
        baked.apply_rows(&x, rows, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g.to_bits(), w.to_bits(),
                "dispatched ({:?}) diverged from oracle at flat index {}",
                baked.simd_level(), i
            );
        }
    }
}

/// Deterministic non-property pin of the tail-group contract: an input
/// width that never divides the sub-vector length produces a final group
/// that is zero-padded at bake *and* assign time, and the dispatched
/// kernel still matches the oracle exactly.
#[test]
fn tail_groups_are_bit_neutral() {
    let spec = CodebookSpec {
        sub_len: 4,
        centroids: 8,
        iters: 4,
        seed: 0xD15C0,
    };
    let in_dim = 13; // 13 = 3 full groups of 4 + a 1-wide tail
    let out_dim = 9;
    let weight = calib_rows(out_dim, in_dim, 1);
    let bias = calib_rows(out_dim, 1, 2);
    let calib = calib_rows(in_dim, 32, 3);
    let baked = BakedCodebook::bake(&weight, in_dim, out_dim, &bias, &calib, &spec);
    assert_eq!(baked.groups(), 4);

    let x = calib_rows(in_dim, 5, 4);
    let mut want = vec![0.0f32; 5 * out_dim];
    let mut got = vec![0.0f32; 5 * out_dim];
    baked.apply_rows_scalar(&x, 5, &mut want);
    baked.apply_rows(&x, 5, &mut got);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.to_bits(), w.to_bits(), "tail-group kernels diverged");
    }
    for w in &want {
        assert!(w.is_finite(), "tail-group output must stay finite");
    }
}

/// End-to-end drift of codebook serving: bake the default codebooks onto
/// the tiny model (calibrated on the served workload itself), serve the
/// workload in F32 and in Codebook mode, and bound the Frobenius
/// relative error of the codebook-served hidden states. Bake and serving
/// are seeded and deterministic, so the error is a fixed number (0.792).
/// The 1.5 ceiling is a sanity bound, not an accuracy claim: on random
/// weights the drift nears the size of the signal itself (~1.0 on a
/// deeper RoBERTa-shape model), and a broken bake (wrong site seeds,
/// stale tables) lands above it.
#[test]
fn served_codebook_drift_stays_under_ceiling() {
    // The model, kit and bake seed behind the 0.792 figure.
    const SEED: u64 = 20220712;
    let config = TransformerConfig::roberta_tiny();
    let lengths = [5, 11, 17, 29, 41, 64];
    let workload: Vec<Vec<usize>> = (0..16)
        .map(|r| {
            (0..lengths[r % lengths.len()])
                .map(|i| (i * 31 + r * 7) % config.vocab)
                .collect()
        })
        .collect();
    let kit = NnLutKit::train_with(16, SEED, &TrainConfig::fast());
    let mut model = BertModel::new_synthetic(config, SEED);
    model.bake_codebooks(
        &CodebookSpec::default(),
        &workload,
        &Nonlinearity::exact(),
        256,
    );
    let serve = |mode: MatmulMode| {
        let mut server = LutServer::new(
            model.clone(),
            kit.clone(),
            ServerConfig {
                threads: 1,
                policy: BatchPolicy {
                    max_batch: 8,
                    max_padded_tokens: 512,
                    bucket_edges: Vec::new(),
                },
                mode,
            },
        );
        server.serve(workload.clone())
    };
    let exact = serve(MatmulMode::F32);
    let approx = serve(MatmulMode::Codebook);
    let (mut err, mut norm) = (0.0f64, 0.0f64);
    for (a, e) in approx.iter().zip(&exact) {
        for (x, y) in a.hidden.as_slice().iter().zip(e.hidden.as_slice()) {
            err += f64::from(x - y).powi(2);
            norm += f64::from(*y).powi(2);
        }
    }
    let rel_err = (err / norm).sqrt();
    assert!(
        rel_err.is_finite() && rel_err <= 1.5,
        "codebook serving drifted {rel_err:.4} from F32, above the 1.5 ceiling"
    );
}
