//! Seeded fault-injection chaos suite for the sharded serving layer.
//!
//! The claims under test, from `docs/ARCHITECTURE.md`'s failure model:
//!
//! * **no abandoned tickets** — under injected replica panics, stalls and
//!   admission bounces, every submitted request resolves, to a response
//!   or a *typed* error;
//! * **failover determinism** — responses that survive faults (including
//!   retried ones) are bit-identical to a fault-free serial run, at
//!   FP32/FP16/INT32 kit precisions across the `NNLUT_THREADS` matrix;
//! * **quarantine and re-admission** — a replica that keeps failing
//!   leaves the rotation, and probe batches under exponential backoff
//!   bring it back;
//! * **generation failover rebuilds the cache** — a replica panic
//!   mid-generation re-prefills prompt + already-streamed tokens on a
//!   survivor, and the continued stream is bit-identical to a
//!   fault-free serial decode.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nn_lut::core::precision::Precision;
use nn_lut::core::train::TrainConfig;
use nn_lut::core::NnLutKit;
use nn_lut::serve::{
    AsyncServerConfig, BatchPolicy, ClosePolicy, FaultPlan, LutServer, ReplicaHealth, ServeError,
    ServerConfig, ShardConfig, ShardedServer, INJECTED_PANIC_PREFIX,
};
use nn_lut::transformer::{BertModel, MatmulMode, Nonlinearity, TransformerConfig};

mod common;
use common::thread_counts;

/// Injected panics are *supposed* to fire — silence their default-hook
/// stderr spew without hiding a real bug's backtrace.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains(INJECTED_PANIC_PREFIX) {
                default_hook(info);
            }
        }));
    });
}

fn tiny_model() -> BertModel {
    BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9)
}

fn tiny_kit() -> NnLutKit {
    NnLutKit::train_with(16, 9, &TrainConfig::fast())
}

/// Mixed lengths 1..=29 spread across several buckets of `[8, 16, 24]`.
fn workload() -> Vec<Vec<usize>> {
    (0..17u64)
        .map(|r| {
            let len = 1 + ((r * 17 + 3) % 29) as usize;
            (0..len).map(|i| (i * 7 + r as usize) % 128).collect()
        })
        .collect()
}

/// The fault-free serial reference: one thread, no batching, no shard.
fn serial_baseline(kit: &NnLutKit, precision: Precision) -> Vec<nn_lut::serve::EncodeResponse> {
    let kit = kit
        .with_precision(precision)
        .expect("fast kit converts to every precision");
    LutServer::new(
        tiny_model(),
        kit,
        ServerConfig {
            threads: 1,
            policy: BatchPolicy::unbatched(),
            ..ServerConfig::default()
        },
    )
    .serve(workload())
}

fn replica_config(threads: usize) -> AsyncServerConfig {
    AsyncServerConfig {
        threads,
        max_in_flight: 2,
        policy: BatchPolicy {
            max_batch: 5,
            max_padded_tokens: 120,
            bucket_edges: vec![8, 16, 24],
        },
        close: ClosePolicy {
            max_batch_age: Duration::from_millis(2),
            deadline_slack: Duration::from_millis(1),
        },
        ..AsyncServerConfig::default()
    }
}

fn assert_bit_identical(
    got: &nn_lut::serve::EncodeResponse,
    want: &nn_lut::serve::EncodeResponse,
    context: &str,
) {
    assert_eq!(got.id, want.id, "{context}: response id");
    assert_eq!(got.hidden.shape(), want.hidden.shape(), "{context}: shape");
    for (a, b) in got.hidden.as_slice().iter().zip(want.hidden.as_slice()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{context}: hidden state diverged on request {}",
            got.id
        );
    }
}

/// Replica 0's first two batches die (contained panics); every victim
/// fails over to replica 1 — and the *retried* responses are bit-identical
/// to the fault-free serial baseline, at every kit precision across the
/// thread matrix. This is the tentpole determinism claim: response
/// identity is independent of replica, batch composition, and injected
/// faults.
#[test]
fn panic_failover_is_bit_identical_to_fault_free_serial() {
    quiet_injected_panics();
    let base_kit = tiny_kit();
    let plan = Arc::new(FaultPlan::new().panic_at(0, 0).panic_at(0, 1));
    for precision in [Precision::F32, Precision::F16, Precision::Int32] {
        let want = serial_baseline(&base_kit, precision);
        let kit = base_kit
            .with_precision(precision)
            .expect("fast kit converts to every precision");
        for threads in thread_counts() {
            let server = ShardedServer::new(
                tiny_model(),
                kit.clone(),
                ShardConfig {
                    replicas: 2,
                    replica: replica_config(threads),
                    // No stalls injected: keep the watchdog far above any
                    // honest debug-build encode so it cannot trip.
                    stall_timeout: Duration::from_secs(30),
                    fault_plan: Some(Arc::clone(&plan)),
                    ..ShardConfig::default()
                },
            );
            let tickets: Vec<_> = workload().into_iter().map(|t| server.submit(t)).collect();
            for (ticket, w) in tickets.into_iter().zip(&want) {
                let got = ticket
                    .wait_timeout(Duration::from_secs(60))
                    .expect("failover onto the healthy replica must serve every request");
                assert_bit_identical(&got, w, &format!("{precision:?}/{threads} threads"));
            }
            let m = server.shard_metrics();
            assert!(
                m.failovers >= 1,
                "two panicked batches must have produced failovers"
            );
            assert_eq!(m.retries_exhausted, 0, "one healthy replica is enough");
        }
    }
}

/// A wedged encoder (3 s injected stall against a 500 ms watchdog — wide
/// margins so honest debug-build encode times can't masquerade as stalls)
/// gets its requests pulled and re-served elsewhere; the stale result is
/// discarded. The caller sees one correct response, bit-identical to the
/// serial baseline.
#[test]
fn stall_watchdog_requeues_onto_survivor() {
    quiet_injected_panics();
    let want = serial_baseline(&tiny_kit(), Precision::F32);
    let plan = Arc::new(FaultPlan::new().stall_at(0, 0, Duration::from_secs(3)));
    let server = ShardedServer::new(
        tiny_model(),
        tiny_kit(),
        ShardConfig {
            replicas: 2,
            replica: replica_config(2),
            stall_timeout: Duration::from_millis(500),
            retry_budget: 4,
            fault_plan: Some(Arc::clone(&plan)),
            ..ShardConfig::default()
        },
    );
    let tickets: Vec<_> = workload().into_iter().map(|t| server.submit(t)).collect();
    for (ticket, w) in tickets.into_iter().zip(&want) {
        let got = ticket
            .wait_timeout(Duration::from_secs(60))
            .expect("stalled work is requeued, not lost");
        assert_bit_identical(&got, w, "stall failover");
    }
    let m = server.shard_metrics();
    assert!(m.stalls >= 1, "the 3 s stall must trip the 500 ms watchdog");
    let status = server.status();
    assert!(
        status[0].stalls >= 1,
        "replica 0 takes the stall on its record"
    );
}

/// An injected admission bounce never reaches the replica: the router
/// retries elsewhere immediately and the request still succeeds.
#[test]
fn admission_bounce_fails_over_without_touching_the_replica() {
    quiet_injected_panics();
    let plan = Arc::new(FaultPlan::new().reject_at(0, 0));
    let server = ShardedServer::new(
        tiny_model(),
        tiny_kit(),
        ShardConfig {
            replicas: 2,
            replica: replica_config(1),
            stall_timeout: Duration::from_secs(30),
            fault_plan: Some(plan),
            ..ShardConfig::default()
        },
    );
    let response = server
        .submit(vec![1, 2, 3, 4])
        .wait_timeout(Duration::from_secs(30))
        .expect("the bounce fails over");
    assert_eq!(response.tokens, 4);
    let status = server.status();
    assert_eq!(
        status[0].rejections, 1,
        "the bounce lands on replica 0's record"
    );
    assert!(
        server.shard_metrics().failovers >= 1,
        "a bounce consumes a failover, like any failure"
    );
}

/// The full quarantine cycle: one strike quarantines replica 0
/// (`quarantine_after: 1`), probe batches under backoff re-admit it, and
/// the fleet ends fully healthy — the acceptance criterion's re-admission
/// clause.
#[test]
fn quarantined_replica_is_readmitted_by_probe_backoff() {
    quiet_injected_panics();
    let plan = Arc::new(FaultPlan::new().panic_at(0, 0));
    let server = ShardedServer::new(
        tiny_model(),
        tiny_kit(),
        ShardConfig {
            replicas: 2,
            replica: replica_config(1),
            quarantine_after: 1,
            stall_timeout: Duration::from_secs(30),
            probe_backoff: Duration::from_millis(5),
            max_probe_backoff: Duration::from_millis(100),
            fault_plan: Some(plan),
            ..ShardConfig::default()
        },
    );
    // The first request rides replica 0's batch 0, which panics: one
    // strike, quarantined; the retry serves it from replica 1.
    let response = server
        .submit(vec![7; 6])
        .wait_timeout(Duration::from_secs(30))
        .expect("failover serves the victim");
    assert_eq!(response.tokens, 6);

    // Probes re-admit replica 0 within the event budget.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = server.status();
        if status[0].health == ReplicaHealth::Healthy {
            assert!(status[0].quarantines >= 1, "it must have been quarantined");
            assert!(
                status[0].probes_sent >= 1,
                "re-admission goes through a probe"
            );
            assert!(status[0].readmissions >= 1);
            assert!(server.shard_metrics().readmissions >= 1);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica 0 was not re-admitted within 30 s: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // The re-admitted replica takes traffic again and serves correctly.
    let again = server
        .submit(vec![3; 4])
        .wait_timeout(Duration::from_secs(30))
        .expect("healthy fleet");
    assert_eq!(again.tokens, 4);
}

/// With one replica whose every batch panics and quarantine disabled, the
/// retry budget bounds the damage: the ticket resolves to the typed
/// [`ServeError::RetriesExhausted`], never hangs, never panics the
/// caller.
#[test]
fn exhausted_retry_budget_is_a_typed_error() {
    quiet_injected_panics();
    let mut plan = FaultPlan::new();
    for batch in 0..16 {
        plan = plan.panic_at(0, batch);
    }
    let server = ShardedServer::new(
        tiny_model(),
        tiny_kit(),
        ShardConfig {
            replicas: 1,
            replica: replica_config(1),
            retry_budget: 2,
            stall_timeout: Duration::from_secs(30),
            quarantine_after: u32::MAX, // stay routable so retries land
            fault_plan: Some(Arc::new(plan)),
            ..ShardConfig::default()
        },
    );
    match server
        .submit(vec![1, 2, 3])
        .wait_timeout(Duration::from_secs(30))
    {
        Err(ServeError::RetriesExhausted { id, attempts }) => {
            assert_eq!(id, 0);
            assert_eq!(attempts, 3, "initial attempt + retry budget of 2");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(server.shard_metrics().retries_exhausted, 1);
    // The error composes: Display is human-readable, source() is wired.
    let err = ServeError::RetriesExhausted { id: 0, attempts: 3 };
    let text = format!("{err}");
    assert!(text.contains("3 attempts"), "{text}");
    let _: &dyn std::error::Error = &err;
}

/// Property-style sweep: seeded random fault plans (panics, stalls,
/// bounces across 3 replicas) against the full workload. Every ticket
/// resolves — success or typed error, zero abandoned — and every success
/// is bit-identical to the fault-free serial baseline.
#[test]
fn seeded_chaos_never_abandons_and_survivors_match_serial() {
    quiet_injected_panics();
    let base_kit = tiny_kit();
    let want = serial_baseline(&base_kit, Precision::F32);
    for seed in [1u64, 7, 23] {
        // Intensity 0.2 over a 48-batch horizon: plenty of faults, while
        // 3 replicas × a retry budget of 3 keep most requests servable.
        let plan = Arc::new(FaultPlan::seeded(seed, 3, 48, 0.2));
        let server = ShardedServer::new(
            tiny_model(),
            base_kit.clone(),
            ShardConfig {
                replicas: 3,
                replica: replica_config(2),
                retry_budget: 3,
                // Injected stalls are 1–20 ms: far below this watchdog,
                // they slow batches without tripping it; panics and
                // bounces do the failing.
                stall_timeout: Duration::from_secs(10),
                quarantine_after: 2,
                probe_backoff: Duration::from_millis(5),
                max_probe_backoff: Duration::from_millis(200),
                fault_plan: Some(Arc::clone(&plan)),
                ..ShardConfig::default()
            },
        );
        let tickets: Vec<_> = workload().into_iter().map(|t| server.submit(t)).collect();
        let mut served = 0usize;
        let mut failed = 0usize;
        for (ticket, w) in tickets.into_iter().zip(&want) {
            // The wait itself is bounded: a hang here is an abandoned
            // ticket, which is exactly what the suite forbids.
            match ticket.wait_timeout(Duration::from_secs(120)) {
                Ok(got) => {
                    assert_bit_identical(&got, w, &format!("chaos seed {seed}"));
                    served += 1;
                }
                Err(ServeError::WaitTimeout { id, .. }) => {
                    panic!("seed {seed}: ticket {id} abandoned (2-minute hang)")
                }
                Err(
                    ServeError::RetriesExhausted { .. }
                    | ServeError::ServerFailed { .. }
                    | ServeError::Overloaded { .. }
                    | ServeError::DeadlineExceeded { .. },
                ) => failed += 1,
            }
        }
        assert_eq!(served + failed, 17, "every ticket resolved");
        assert!(
            served >= 1,
            "seed {seed}: a 3-replica fleet should serve at least something"
        );
        let m = server.shard_metrics();
        assert_eq!(
            m.completed + m.retries_exhausted + m.deadline_misses,
            17,
            "seed {seed}: shard ledger accounts for every admitted request: {m:?}"
        );
    }
}

/// Generation-only workload: varied prompts and budgets, all within
/// `roberta_tiny`'s `max_seq` of 64.
fn gen_workload() -> Vec<(Vec<usize>, usize)> {
    (0..5u64)
        .map(|r| {
            let len = 2 + ((r * 7 + 1) % 9) as usize;
            let prompt: Vec<usize> = (0..len).map(|i| (i * 3 + r as usize * 5) % 128).collect();
            (prompt, 4 + (r as usize % 5))
        })
        .collect()
}

/// Replica 0 dies mid-decode (its batch 1 and 2 — with a generation-only
/// workload those are decode or prefill batches of live generations).
/// The supervisor has received the tokens streamed so far on the report
/// channel; it re-prefills `prompt ++ tokens` on the survivor — a full
/// KV-cache rebuild — and
/// because decoding is deterministic the continued stream is
/// bit-identical to a fault-free serial [`BertModel::generate`] run.
#[test]
fn replica_panic_mid_generation_rebuilds_cache_bit_identically() {
    quiet_injected_panics();
    let base_kit = tiny_kit();
    let model = tiny_model();
    let nl = Nonlinearity::all_lut(&base_kit);
    let want: Vec<Vec<usize>> = gen_workload()
        .iter()
        .map(|(p, n)| model.generate(p, *n, &nl, MatmulMode::F32))
        .collect();

    for threads in thread_counts() {
        let plan = FaultPlan::new().panic_at(0, 1).panic_at(0, 2);
        let server = ShardedServer::new(
            tiny_model(),
            base_kit.clone(),
            ShardConfig {
                replicas: 2,
                replica: replica_config(threads),
                retry_budget: 3,
                stall_timeout: Duration::from_secs(10),
                fault_plan: Some(Arc::new(plan)),
                ..ShardConfig::default()
            },
        );
        let tickets: Vec<_> = gen_workload()
            .into_iter()
            .map(|(p, n)| server.submit_generate(p, n, None))
            .collect();
        for (g, (ticket, want)) in tickets.into_iter().zip(&want).enumerate() {
            match ticket.wait_timeout(Duration::from_secs(120)) {
                Ok(got) => assert_eq!(
                    &got.tokens, want,
                    "{threads} threads: generation {g} diverged after cache rebuild"
                ),
                Err(ServeError::WaitTimeout { id, .. }) => {
                    panic!("{threads} threads: generation ticket {id} abandoned")
                }
                Err(e) => panic!("{threads} threads: generation {g} failed: {e}"),
            }
        }
        let m = server.shard_metrics();
        assert_eq!(m.generations, 5, "{threads} threads: ledger: {m:?}");
        assert_eq!(m.completed, 5, "{threads} threads: ledger: {m:?}");
        assert!(
            m.failovers >= 1,
            "{threads} threads: panics must have triggered failover: {m:?}"
        );
        assert!(
            m.cache_rebuilds >= 1,
            "{threads} threads: generation failover must rebuild the cache: {m:?}"
        );
        assert_eq!(server.active_generations(), 0);
    }
}

/// Replica 0 wedges mid-decode: its batch 1 (a decode step or prefill of
/// a live generation) stalls 3 s against a 500 ms watchdog. The watchdog
/// takes every generation stuck behind it away, and each one's cache is
/// rebuilt on replica 1 from the tokens streamed so far; the stitched
/// streams equal the fault-free serial decode. The server then outlives
/// the stall: replica 0 resumes and finishes the generations it was
/// robbed of, reporting tokens under keys no longer in flight — and
/// those late tokens change nothing.
#[test]
fn stalled_mid_generation_drops_late_tokens() {
    quiet_injected_panics();
    let base_kit = tiny_kit();
    let model = tiny_model();
    let nl = Nonlinearity::all_lut(&base_kit);
    let want: Vec<Vec<usize>> = gen_workload()
        .iter()
        .map(|(p, n)| model.generate(p, *n, &nl, MatmulMode::F32))
        .collect();
    let plan = FaultPlan::new().stall_at(0, 1, Duration::from_secs(3));
    let server = ShardedServer::new(
        tiny_model(),
        base_kit,
        ShardConfig {
            replicas: 2,
            replica: replica_config(2),
            retry_budget: 4,
            stall_timeout: Duration::from_millis(500),
            fault_plan: Some(Arc::new(plan)),
            ..ShardConfig::default()
        },
    );
    // Tickets stay alive (not consumed by `wait`) so their streams can be
    // read again after the late tokens arrive.
    let tickets: Vec<_> = gen_workload()
        .into_iter()
        .map(|(p, n)| server.submit_generate(p, n, None))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    while !tickets.iter().all(|t| t.is_done()) {
        assert!(
            Instant::now() < deadline,
            "a generation ticket was abandoned"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let streams: Vec<Vec<usize>> = tickets.iter().map(|t| t.tokens_so_far()).collect();
    assert_eq!(streams, want, "stitched streams equal serial generate");
    let m = server.shard_metrics();
    assert_eq!(m.completed, 5, "ledger: {m:?}");
    assert!(m.stalls >= 1, "the 3 s stall must trip the watchdog: {m:?}");
    assert!(
        m.cache_rebuilds >= 1,
        "the stall must rebuild a cache: {m:?}"
    );

    // Outlive the stall: each stalled-away generation also completes on
    // replica 0 once it resumes, so the fleet's replica-side count
    // reaches 5 + stalls only after every late token has been reported.
    let late_done = 5 + m.stalls;
    while server.metrics().generations_completed() < late_done {
        assert!(Instant::now() < deadline, "replica 0 never resumed");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Reports are consumed in order, so once a fresh request resolves the
    // late tokens have been applied — dropped. It resolving at all also
    // shows the supervisor survived them: in debug builds a late token
    // pushed into a finished stream trips `push_token`'s assertion and
    // kills the supervisor, and nothing would resolve this ticket.
    let fresh = server
        .submit(vec![1, 2, 3])
        .wait_timeout(Duration::from_secs(30))
        .expect("the fleet still serves after the late tokens");
    assert_eq!(fresh.tokens, 3);
    for (ticket, stream) in tickets.iter().zip(&streams) {
        assert_eq!(&ticket.tokens_so_far(), stream, "a late token leaked");
    }
    let after = server.shard_metrics();
    assert_eq!(
        after.completed,
        m.completed + 1,
        "only the fresh request completed; late outcomes were dropped: {after:?}"
    );
    assert_eq!(server.active_generations(), 0);
}
