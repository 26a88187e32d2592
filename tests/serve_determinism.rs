//! Property tests of the serving layer's determinism contract: pooled
//! evaluation must be **bit-identical** to serial evaluation —
//!
//! * at the engine level, for all three baked precisions
//!   (`par_eval_slice` vs `eval_slice`), across thread counts 1/2/4/8,
//!   with NaN/inf payloads and lengths that don't divide evenly;
//! * at the server level, where a pooled `LutServer` must reproduce the
//!   serial server's responses bit for bit at FP32/FP16/INT32 kit
//!   precisions.

use std::time::Duration;

use nn_lut::core::codebook::CodebookSpec;
use nn_lut::core::engine::{chunk_ranges, BakedF16Lut, BakedInt32Lut, BakedLut};
use nn_lut::core::lut::{LookupTable, Segment};
use nn_lut::core::precision::{input_scale_for_domain, F16Lut, Int32Lut, Precision};
use nn_lut::core::train::TrainConfig;
use nn_lut::core::NnLutKit;
use nn_lut::serve::{
    AsyncServerConfig, BatchPolicy, LutServer, ServerConfig, ShardConfig, ShardedServer,
};
use nn_lut::transformer::{BertModel, MatmulMode, Nonlinearity, TransformerConfig};
use proptest::prelude::*;

mod common;
use common::thread_counts;

/// Random valid tables (same construction as `engine_equivalence.rs`).
fn arb_table() -> impl Strategy<Value = LookupTable> {
    (
        proptest::collection::vec(
            (-50.0f32..50.0, -8.0f32..8.0, -20.0f32..20.0, 0u8..8),
            0..16,
        ),
        (-8.0f32..8.0, -20.0f32..20.0),
    )
        .prop_map(|(elems, last)| {
            let mut bps = Vec::new();
            let mut segs = Vec::new();
            for (d, s, t, dup) in elems {
                bps.push(d);
                segs.push(Segment::new(s, t));
                if dup == 0 {
                    bps.push(d);
                    segs.push(Segment::new(t * 0.25, s));
                }
            }
            bps.sort_by(f32::total_cmp);
            segs.push(Segment::new(last.0, last.1));
            LookupTable::new(bps, segs).expect("constructed table is valid")
        })
}

/// A batch long enough to cross the engines' parallel threshold, with an
/// odd (never evenly dividing) length and specials scattered through it.
fn adversarial_batch(random: Vec<f32>, extra_len: usize) -> Vec<f32> {
    let mut xs = random;
    let n = 3001 + extra_len; // odd, > the 1024 parallel threshold
    while xs.len() < n {
        let i = xs.len();
        xs.push((i as f32 - 1500.0) * 0.037);
    }
    let specials = [
        f32::NAN,
        f32::from_bits(0x7fc0_0001), // payload-carrying NaNs
        f32::from_bits(0xffc0_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
        -0.0,
        1e-38,
    ];
    let len = xs.len();
    for (k, s) in specials.into_iter().enumerate() {
        // Spread specials so every chunk of every split sees some.
        xs[(k * len / specials.len() + k) % len] = s;
    }
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FP32 engine: pooled == serial, bit for bit, at every thread count.
    #[test]
    fn par_eval_f32_is_bit_identical(
        lut in arb_table(),
        random in proptest::collection::vec(-200.0f32..200.0, 0..64),
        extra in 0usize..512,
    ) {
        let baked = BakedLut::new(lut);
        let xs = adversarial_batch(random, extra);
        let mut want = xs.clone();
        baked.eval_slice(&mut want);
        for threads in thread_counts() {
            let mut got = xs.clone();
            baked.par_eval_slice(&mut got, threads);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), w.to_bits(),
                    "f32 diverged at index {} with {} threads", i, threads
                );
            }
        }
    }

    /// FP16 engine: pooled == serial, bit for bit, at every thread count.
    #[test]
    fn par_eval_f16_is_bit_identical(
        lut in arb_table(),
        random in proptest::collection::vec(-200.0f32..200.0, 0..64),
        extra in 0usize..512,
    ) {
        let baked = BakedF16Lut::new(F16Lut::from_lut(&lut).expect("params fit binary16"));
        let xs = adversarial_batch(random, extra);
        let mut want = xs.clone();
        baked.eval_slice(&mut want);
        for threads in thread_counts() {
            let mut got = xs.clone();
            baked.par_eval_slice(&mut got, threads);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), w.to_bits(),
                    "f16 diverged at index {} with {} threads", i, threads
                );
            }
        }
    }

    /// INT32 engine: pooled == serial, bit for bit, at every thread count.
    #[test]
    fn par_eval_int32_is_bit_identical(
        lut in arb_table(),
        random in proptest::collection::vec(-200.0f32..200.0, 0..64),
        extra in 0usize..512,
    ) {
        let baked = BakedInt32Lut::new(Int32Lut::from_lut(
            &lut,
            input_scale_for_domain((-60.0, 60.0)),
        ));
        let xs = adversarial_batch(random, extra);
        let mut want = xs.clone();
        baked.eval_slice(&mut want);
        for threads in thread_counts() {
            let mut got = xs.clone();
            baked.par_eval_slice(&mut got, threads);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), w.to_bits(),
                    "int32 diverged at index {} with {} threads", i, threads
                );
            }
        }
    }

    /// The canonical chunk map covers any length exactly once for any part
    /// count — the boundary-correctness half of the determinism contract.
    #[test]
    fn chunk_ranges_partition_everything(len in 0usize..10_000, parts in 1usize..64) {
        let ranges = chunk_ranges(len, parts);
        let mut next = 0;
        for r in &ranges {
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end > r.start);
            next = r.end;
        }
        prop_assert_eq!(next, len);
    }
}

fn serve_workload() -> Vec<Vec<usize>> {
    // Mixed lengths 1..=29 that never divide evenly across 2/4/8 lanes.
    (0..13u64)
        .map(|r| {
            let len = 1 + ((r * 17 + 3) % 29) as usize;
            (0..len).map(|i| (i * 7 + r as usize) % 128).collect()
        })
        .collect()
}

fn server_with(kit: &NnLutKit, precision: Precision, threads: usize) -> LutServer {
    server_with_policy(
        kit,
        precision,
        threads,
        BatchPolicy {
            max_batch: 5,
            max_padded_tokens: 120,
            bucket_edges: Vec::new(),
        },
    )
}

fn server_with_policy(
    kit: &NnLutKit,
    precision: Precision,
    threads: usize,
    policy: BatchPolicy,
) -> LutServer {
    let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9);
    let kit = kit
        .with_precision(precision)
        .expect("fast kit converts to every precision");
    LutServer::new(
        model,
        kit,
        ServerConfig {
            threads,
            policy,
            ..ServerConfig::default()
        },
    )
}

/// End-to-end acceptance property: a pooled `LutServer` reproduces the
/// serial server bit for bit at all three baked kit precisions.
#[test]
fn pooled_server_matches_serial_at_all_precisions() {
    let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
    for precision in [Precision::F32, Precision::F16, Precision::Int32] {
        let want = server_with(&kit, precision, 1).serve(serve_workload());
        for threads in thread_counts() {
            let got = server_with(&kit, precision, threads).serve(serve_workload());
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id);
                for (a, b) in g.hidden.as_slice().iter().zip(w.hidden.as_slice()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{precision:?} kit: pooled ({threads} threads) diverged on request {}",
                        g.id
                    );
                }
            }
        }
    }
}

/// Bucketed admission keeps every guarantee: a length-bucketed pooled
/// server reproduces the serial FIFO server bit for bit at all three
/// baked kit precisions, across thread counts 1/2/4/8 — batch
/// *composition* changes with the buckets, but with the F32 body and
/// mask-aware attention the *responses* must not.
#[test]
fn bucketed_pooled_server_matches_serial_fifo_at_all_precisions() {
    let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
    let bucketed = BatchPolicy {
        max_batch: 5,
        max_padded_tokens: 120,
        bucket_edges: vec![8, 16, 24],
    };
    for precision in [Precision::F32, Precision::F16, Precision::Int32] {
        let want = server_with(&kit, precision, 1).serve(serve_workload());
        for threads in thread_counts() {
            let got = server_with_policy(&kit, precision, threads, bucketed.clone())
                .serve(serve_workload());
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "bucketed drain must restore submission order");
                for (a, b) in g.hidden.as_slice().iter().zip(w.hidden.as_slice()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{precision:?} kit: bucketed ({threads} threads) diverged on request {}",
                        g.id
                    );
                }
            }
        }
    }
}

/// The serving backend's LUT arms run the *fused* LayerNorm+affine
/// kernel and the kit's one softmax; this pins both against per-row
/// references at all three kit precisions, through the same backend
/// seams the servers above exercise:
///
/// * `softmax_chunk_masked` must equal trimming each row to its valid
///   prefix and running `kit.softmax`, with zeros past the prefix — i.e.
///   the mask preserves the per-row semantics exactly;
/// * `layer_norm_chunk` (fused underneath) must equal the unfused
///   `kit.layer_norm` followed by the affine `γ∘x + β`, bit for bit.
#[test]
fn fused_backend_kernels_match_unfused_reference_at_all_precisions() {
    let base = NnLutKit::train_with(16, 9, &TrainConfig::fast());
    let cols = 29; // never a lane multiple: SIMD tails + fusion tiles both hit
    let rows = 7;
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| ((i as f32) * 0.23 - 20.0).sin() * 5.0)
        .collect();
    let valid: Vec<usize> = (0..rows).map(|r| (r * 11) % (cols + 1)).collect();
    let gamma: Vec<f32> = (0..cols).map(|i| 0.9 + (i as f32) * 0.01).collect();
    let beta: Vec<f32> = (0..cols).map(|i| (i as f32) * 0.03 - 0.4).collect();
    for precision in [Precision::F32, Precision::F16, Precision::Int32] {
        let kit = base.with_precision(precision).expect("kit converts");
        let nl = Nonlinearity::all_lut(&kit);

        // Masked softmax through the backend…
        let mut got = data.clone();
        nl.softmax_chunk_masked(&mut got, cols, &valid);
        // …versus the per-row reference.
        let mut want = data.clone();
        for (row, &v) in want.chunks_exact_mut(cols).zip(&valid) {
            if v > 0 {
                kit.softmax(&mut row[..v]);
            }
            row[v..].fill(0.0);
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{precision:?} fused masked softmax diverged at flat index {i}"
            );
        }

        // LayerNorm+affine through the (fused) backend…
        let mut got = data.clone();
        nl.layer_norm_chunk(&mut got, cols, &gamma, &beta, 1e-5);
        // …versus the unfused norm-then-affine reference.
        let mut want = data.clone();
        for row in want.chunks_exact_mut(cols) {
            kit.layer_norm(row, 1e-5);
            for ((v, &g), &b) in row.iter_mut().zip(&gamma).zip(&beta) {
                *v = *v * g + b;
            }
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{precision:?} fused layer_norm+affine diverged at flat index {i}"
            );
        }
    }
}

/// A `roberta_tiny` body with codebooks calibrated on the serve workload
/// itself — the model every codebook serving test runs. Cloning it is
/// cheap (tables are `Arc`-shared), and the bake is deterministic, so
/// every caller sees the same artifacts.
fn baked_model() -> BertModel {
    let mut model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9);
    model.bake_codebooks(
        &CodebookSpec::default(),
        &serve_workload(),
        &Nonlinearity::exact(),
        256,
    );
    model
}

/// The full-body GEMM modes keep the pooled == serial guarantee too (INT8
/// keeps its per-tensor quantizer serial; FP16 rounds inside row chunks;
/// Codebook's assignment + gather is row-local by construction).
#[test]
fn pooled_server_matches_serial_in_every_matmul_mode() {
    let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
    let model = baked_model();
    for mode in [
        MatmulMode::F32,
        MatmulMode::F16,
        MatmulMode::Int8,
        MatmulMode::Codebook,
    ] {
        let make = |threads: usize| {
            LutServer::new(
                model.clone(),
                kit.clone(),
                ServerConfig {
                    threads,
                    policy: BatchPolicy::default_policy(),
                    mode,
                },
            )
            .serve(serve_workload())
        };
        let want = make(1);
        let got = make(4);
        for (g, w) in got.iter().zip(&want) {
            for (a, b) in g.hidden.as_slice().iter().zip(w.hidden.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{mode} pooled diverged");
            }
        }
    }
}

/// Dedicated codebook leg of the acceptance property: a pooled server in
/// `MatmulMode::Codebook` reproduces the serial server bit for bit at
/// every thread count — the amortized-GEMM gather is row-local, chunk
/// boundaries are schedule-independent, and the baked tables are
/// `Arc`-shared so every replica reads the identical artifact.
#[test]
fn pooled_codebook_server_matches_serial_bitwise() {
    let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
    let model = baked_model();
    let make = |threads: usize| {
        LutServer::new(
            model.clone(),
            kit.clone(),
            ServerConfig {
                threads,
                policy: BatchPolicy {
                    max_batch: 5,
                    max_padded_tokens: 120,
                    bucket_edges: vec![8, 16, 24],
                },
                mode: MatmulMode::Codebook,
            },
        )
        .serve(serve_workload())
    };
    let want = make(1);
    for threads in thread_counts() {
        let got = make(threads);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id);
            for (a, b) in g.hidden.as_slice().iter().zip(w.hidden.as_slice()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "codebook pooled ({threads} threads) diverged on request {}",
                    g.id
                );
            }
        }
    }
}

/// End-to-end codebook serving through the replicated front door: a
/// 2-replica `ShardedServer` (each replica with a pooled encode pool) in
/// `MatmulMode::Codebook` must reproduce the serial `LutServer` bit for
/// bit at threads 1/2/4 — JSQ routing and concurrent encoders change
/// *where* a request runs, never its bits.
#[test]
fn sharded_codebook_server_matches_serial_bitwise() {
    let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
    let model = baked_model();
    let want = LutServer::new(
        model.clone(),
        kit.clone(),
        ServerConfig {
            threads: 1,
            policy: BatchPolicy::default_policy(),
            mode: MatmulMode::Codebook,
        },
    )
    .serve(serve_workload());
    for threads in thread_counts() {
        let server = ShardedServer::new(
            model.clone(),
            kit.clone(),
            ShardConfig {
                replicas: 2,
                replica: AsyncServerConfig {
                    threads,
                    max_in_flight: 2,
                    mode: MatmulMode::Codebook,
                    ..AsyncServerConfig::default()
                },
                stall_timeout: Duration::from_secs(30),
                ..ShardConfig::default()
            },
        );
        let tickets: Vec<_> = serve_workload()
            .into_iter()
            .map(|t| server.submit(t))
            .collect();
        for (ticket, w) in tickets.into_iter().zip(&want) {
            let got = ticket
                .wait_timeout(Duration::from_secs(60))
                .expect("sharded codebook encode completes");
            for (a, b) in got.hidden.as_slice().iter().zip(w.hidden.as_slice()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "sharded codebook ({threads} threads) diverged"
                );
            }
        }
    }
}

/// The exact-FP32 backend (no LUTs) through the same pooled path — the
/// serving layer is backend-agnostic and stays deterministic.
#[test]
fn pooled_exact_backend_matches_serial() {
    let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 31);
    let make = |threads: usize| {
        LutServer::with_backend(
            model.clone(),
            Nonlinearity::exact(),
            ServerConfig {
                threads,
                policy: BatchPolicy::default_policy(),
                ..ServerConfig::default()
            },
        )
        .serve(serve_workload())
    };
    let want = make(1);
    let got = make(8);
    for (g, w) in got.iter().zip(&want) {
        for (a, b) in g.hidden.as_slice().iter().zip(w.hidden.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "exact backend pooled diverged");
        }
    }
}
