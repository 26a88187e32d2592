//! Decode-determinism suite: continuous batching never changes a bit.
//!
//! The claims under test, from `docs/ARCHITECTURE.md`'s decoding section:
//!
//! * **batched == serial, bit-for-bit** — a generation served through the
//!   continuous-batching decode plane (mixed into whatever decode widths
//!   and prefill chunks the scheduler happened to form) emits exactly the
//!   token sequence of a serial step-at-a-time
//!   [`BertModel::generate`](nn_lut::transformer::BertModel) run, at
//!   FP32 / FP16 / INT32 kit precisions, across the `NNLUT_THREADS`
//!   matrix and in-flight encoder counts;
//! * **interleaving is free** — prefill chunks and whole-sequence encodes
//!   sharing batches with decode steps perturb neither the encodes'
//!   hidden states nor the generations' tokens;
//! * **non-dividing widths are exact** — decode batches that split
//!   unevenly under the area budget (7 generations under a width-3
//!   budget) change nothing;
//! * **eviction is structural** — a finished generation leaves no
//!   residual per-sequence cache state behind
//!   ([`ShardedServer::active_generations`] returns to zero).

use std::time::Duration;

use nn_lut::core::precision::Precision;
use nn_lut::core::train::TrainConfig;
use nn_lut::core::NnLutKit;
use nn_lut::serve::{
    AsyncServerConfig, BatchPolicy, ClosePolicy, LutServer, ServerConfig, ShardConfig,
    ShardedServer,
};
use nn_lut::transformer::{BertModel, MatmulMode, Nonlinearity, TransformerConfig};

mod common;
use common::thread_counts;

fn tiny_model() -> BertModel {
    BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9)
}

fn tiny_kit() -> NnLutKit {
    NnLutKit::train_with(16, 9, &TrainConfig::fast())
}

/// The asynchronous door over one replica. Queue wait counts toward the
/// stall watchdog, so it sits far above any debug-build batch.
fn async_server(kit: NnLutKit, replica: AsyncServerConfig) -> ShardedServer {
    let config = ShardConfig {
        replicas: 1,
        replica,
        stall_timeout: Duration::from_secs(60),
        ..ShardConfig::default()
    };
    ShardedServer::new(tiny_model(), kit, config)
}

/// Generation workload: varied prompt lengths and token budgets, all
/// within `roberta_tiny`'s `max_seq` of 64.
fn generations() -> Vec<(Vec<usize>, usize)> {
    (0..7u64)
        .map(|r| {
            let len = 1 + ((r * 11 + 2) % 13) as usize;
            let prompt: Vec<usize> = (0..len).map(|i| (i * 5 + r as usize * 3) % 128).collect();
            let max_new = 3 + (r as usize % 6);
            (prompt, max_new)
        })
        .collect()
}

/// The serial oracle: step-at-a-time greedy decoding, one sequence at a
/// time, no batching, no threads — the reference every served stream
/// must match bit-for-bit.
fn serial_oracles(kit: &NnLutKit, precision: Precision) -> Vec<Vec<usize>> {
    let kit = kit
        .with_precision(precision)
        .expect("fast kit converts to every precision");
    let nl = Nonlinearity::all_lut(&kit);
    let model = tiny_model();
    generations()
        .iter()
        .map(|(prompt, max_new)| model.generate(prompt, *max_new, &nl, MatmulMode::F32))
        .collect()
}

/// A policy that forces interesting schedules: small buckets, a decode
/// width the workload does not divide, and fast age-based closes so
/// under-filled prefills still move.
fn decode_config(threads: usize, max_in_flight: usize) -> AsyncServerConfig {
    AsyncServerConfig {
        threads,
        max_in_flight,
        policy: BatchPolicy {
            max_batch: 3,
            max_padded_tokens: 96,
            bucket_edges: vec![8, 16],
        },
        close: ClosePolicy {
            max_batch_age: Duration::from_millis(1),
            deadline_slack: Duration::from_millis(1),
        },
        ..AsyncServerConfig::default()
    }
}

/// The tentpole claim: continuously-batched generation is bit-identical
/// to serial decoding at every kit precision, thread count and in-flight
/// encoder count. All generations are submitted before any is awaited,
/// so the decode plane genuinely mixes their steps into shared batches
/// (and `max_batch: 3` over 7 live generations forces non-dividing
/// decode widths throughout).
#[test]
fn continuous_batching_is_bit_identical_to_serial_decode() {
    let base_kit = tiny_kit();
    for precision in [Precision::F32, Precision::F16, Precision::Int32] {
        let oracles = serial_oracles(&base_kit, precision);
        let kit = base_kit
            .with_precision(precision)
            .expect("fast kit converts to every precision");
        for threads in thread_counts() {
            for in_flight in [1, 2] {
                let server = async_server(kit.clone(), decode_config(threads, in_flight));
                let tickets: Vec<_> = generations()
                    .into_iter()
                    .map(|(prompt, max_new)| server.submit_generate(prompt, max_new, None))
                    .collect();
                for (g, (mut ticket, want)) in tickets.into_iter().zip(&oracles).enumerate() {
                    // Stream the first generation token-by-token (the
                    // iterator seam); wait() the rest.
                    let got: Vec<usize> = if g == 0 {
                        std::iter::from_fn(|| ticket.next())
                            .map(|t| t.expect("no faults, no deadline"))
                            .collect()
                    } else {
                        ticket.wait().expect("no faults, no deadline").tokens
                    };
                    assert_eq!(
                        &got, want,
                        "generation {g} diverged from serial at {precision:?}, \
                         {threads} threads, {in_flight} in flight"
                    );
                }
                let m = server.metrics();
                assert_eq!(m.generations_completed(), 7);
                assert_eq!(
                    m.generated_tokens(),
                    oracles.iter().map(|o| o.len() as u64).sum::<u64>()
                );
                assert!(m.decode_batches() >= 1, "the decode plane must have run");
                assert_eq!(
                    server.active_generations(),
                    0,
                    "eviction is structural: finished generations leave no cache behind"
                );
            }
        }
    }
}

/// Prefill chunks, whole-sequence encodes and decode steps all share the
/// same queue and batch budget — and neither side perturbs the other:
/// encodes stay bit-identical to the unbatched serial server, streams
/// stay bit-identical to serial decoding.
#[test]
fn prefill_and_decode_interleaving_changes_no_bits() {
    let kit = tiny_kit();
    let encodes: Vec<Vec<usize>> = (0..10u64)
        .map(|r| {
            let len = 1 + ((r * 13 + 5) % 15) as usize;
            (0..len).map(|i| (i * 3 + r as usize) % 128).collect()
        })
        .collect();
    let want_encodes = LutServer::new(
        tiny_model(),
        kit.clone(),
        ServerConfig {
            threads: 1,
            policy: BatchPolicy::unbatched(),
            ..ServerConfig::default()
        },
    )
    .serve(encodes.clone());
    let want_gens = serial_oracles(&kit, Precision::F32);

    let server = async_server(kit, decode_config(2, 2));
    // Interleave submissions so prefills land while decode steps are
    // queued and vice versa.
    let mut enc_tickets = Vec::new();
    let mut gen_tickets = Vec::new();
    let mut gens = generations().into_iter();
    for tokens in &encodes {
        enc_tickets.push(server.submit(tokens.clone()));
        if let Some((prompt, max_new)) = gens.next() {
            gen_tickets.push(server.submit_generate(prompt, max_new, None));
        }
    }
    for (t, want) in enc_tickets.into_iter().zip(&want_encodes) {
        let got = t.wait().expect("no faults, no deadline");
        assert_eq!(got.hidden.shape(), want.hidden.shape());
        for (a, b) in got.hidden.as_slice().iter().zip(want.hidden.as_slice()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "encode {} perturbed by interleaved decoding",
                got.id
            );
        }
    }
    for (g, (t, want)) in gen_tickets.into_iter().zip(&want_gens).enumerate() {
        let got = t.wait().expect("no faults, no deadline");
        assert_eq!(
            &got.tokens, want,
            "generation {g} perturbed by interleaving"
        );
    }
    let m = server.metrics();
    assert!(
        m.batches_served() >= 1,
        "encodes went through bucket batches"
    );
    assert!(
        m.decode_batches() >= 1,
        "decode steps went through the plane"
    );
    assert_eq!(server.active_generations(), 0);
}

/// A decode budget the live-generation count does not divide (7 streams,
/// width ≤ 2, tight area) forces ragged decode batches every step; the
/// emitted tokens must not care.
#[test]
fn non_dividing_decode_widths_are_exact() {
    let kit = tiny_kit();
    let want = serial_oracles(&kit, Precision::F32);
    let server = async_server(
        kit,
        AsyncServerConfig {
            threads: 2,
            max_in_flight: 2,
            policy: BatchPolicy {
                max_batch: 2,
                max_padded_tokens: 40, // a long context fills this alone
                bucket_edges: vec![8, 16],
            },
            close: ClosePolicy {
                max_batch_age: Duration::from_millis(1),
                deadline_slack: Duration::from_millis(1),
            },
            ..AsyncServerConfig::default()
        },
    );
    let tickets: Vec<_> = generations()
        .into_iter()
        .map(|(prompt, max_new)| server.submit_generate(prompt, max_new, None))
        .collect();
    for (g, (t, want)) in tickets.into_iter().zip(&want).enumerate() {
        let got = t.wait().expect("no faults, no deadline");
        assert_eq!(
            &got.tokens, want,
            "generation {g} diverged under ragged widths"
        );
    }
    let m = server.metrics();
    let total_steps: u64 = want.iter().map(|o| o.len() as u64 - 1).sum();
    assert_eq!(
        m.decode_steps(),
        total_steps,
        "every non-prefill token is a step"
    );
    assert!(
        m.decode_batches() > total_steps / 2,
        "width ≤ 2 forces more batches than a full-width plane would: \
         {} batches for {} steps",
        m.decode_batches(),
        total_steps
    );
    assert_eq!(server.active_generations(), 0);
}
