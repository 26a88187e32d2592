//! Request-lifecycle tracing integration tests: the per-stage breakdown
//! accounts for the observed end-to-end latency, failovers land on the
//! same trace as the admission, incidents freeze the flight recorder,
//! and — the load-bearing property — tracing is *passive*: results with
//! the recorder on are bit-identical to results with it off, and (in an
//! ignored, timing-based test) cost at most 5% of throughput.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nn_lut::core::train::TrainConfig;
use nn_lut::core::NnLutKit;
use nn_lut::serve::{
    AsyncServerConfig, BatchPolicy, ClosePolicy, FaultPlan, ReplicaHealth, ShardConfig,
    ShardedServer, Stage, TraceConfig,
};
use nn_lut::transformer::{BertModel, TransformerConfig};

/// The asynchronous door over one replica. Queue wait counts toward the
/// stall watchdog, so it sits far above any debug-build batch.
fn tiny_async(replica: AsyncServerConfig) -> ShardedServer {
    tiny_sharded(ShardConfig {
        replicas: 1,
        replica,
        stall_timeout: Duration::from_secs(60),
        ..ShardConfig::default()
    })
}

fn tiny_sharded(config: ShardConfig) -> ShardedServer {
    let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9);
    let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
    ShardedServer::new(model, kit, config)
}

/// The acceptance property: per-stage durations sum to the trace's total
/// *exactly* (interval attribution is lossless by construction), and the
/// trace total matches the externally observed end-to-end latency within
/// clock slack (the trace is born inside `submit`, after our stopwatch
/// starts, and sealed before `wait` returns). The door records
/// `Admitted` and the replica every later stage, each exactly once.
#[test]
fn stage_durations_sum_to_end_to_end_latency() {
    let server = tiny_async(AsyncServerConfig {
        trace: TraceConfig::enabled(),
        ..AsyncServerConfig::default()
    });
    let started = Instant::now();
    let ticket = server.submit(vec![1, 2, 3, 4]);
    let trace = ticket.trace_handle();
    ticket.wait().expect("no faults, no deadline");
    let observed = started.elapsed();

    let b = trace.breakdown();
    let stage_sum: Duration = Stage::ALL.iter().map(|&s| b.stage(s)).sum();
    assert_eq!(
        stage_sum,
        b.total(),
        "interval attribution must be lossless: {b}"
    );
    assert!(
        b.total() <= observed,
        "the trace lives strictly inside the observed window"
    );
    assert!(
        observed - b.total() < Duration::from_millis(250),
        "observed {observed:?} vs traced {:?}: submit/wait overhead should be tiny",
        b.total()
    );

    // The happy path walks the full pipeline, in order.
    let stages: Vec<Stage> = trace.events().iter().map(|e| e.stage).collect();
    assert_eq!(
        stages,
        vec![
            Stage::Admitted,
            Stage::Queued,
            Stage::Assembled,
            Stage::Dispatched,
            Stage::Encoded,
            Stage::Reordered,
            Stage::Resolved,
        ]
    );
    assert_eq!(trace.last_stage(), Some(Stage::Resolved));
    // Monotonic stage sketches made it into the metrics.
    let m = server.metrics();
    assert_eq!(m.stage_count(Stage::Resolved), 1);
}

/// One trace per shard request, across failovers: the injected panic
/// shows up as a `Requeued(panic)` event on the *same* trace that was
/// admitted, followed by a `Retried` on the surviving replica, and the
/// request still resolves with the shard's id.
#[test]
fn failover_rides_one_trace_with_cause_notes() {
    let mut config = ShardConfig {
        replicas: 2,
        // Replica 0 panics its first batch; replica 1 is clean.
        fault_plan: Some(Arc::new(FaultPlan::new().panic_at(0, 0))),
        retry_budget: 2,
        quarantine_after: 1,
        // Keep the quarantine observable: no probe fires mid-test.
        probe_backoff: Duration::from_secs(60),
        max_probe_backoff: Duration::from_secs(60),
        ..ShardConfig::default()
    };
    config.replica.trace = TraceConfig::enabled();
    let server = tiny_sharded(config);

    // Single request: deterministic JSQ routes it to replica 0 (empty
    // queues tie to the lowest index), where the panic fires.
    let ticket = server.submit(vec![1, 2, 3]);
    let id = ticket.id();
    let trace = ticket.trace_handle();
    let resp = ticket.wait().expect("one retry is inside the budget");
    assert_eq!(resp.id, id);

    let events = trace.events();
    let requeue = events
        .iter()
        .find(|e| e.stage == Stage::Requeued)
        .expect("the panicked attempt must journal a requeue");
    assert_eq!(requeue.note, Some("panic"));
    assert_eq!(requeue.replica, Some(0));
    let retried = events
        .iter()
        .find(|e| e.stage == Stage::Retried)
        .expect("the second attempt must journal a retry");
    assert_eq!(retried.replica, Some(1), "failover avoids the panicker");
    assert_eq!(events.last().map(|e| e.stage), Some(Stage::Resolved));

    // The quarantine transition froze an incident snapshot whose journal
    // contains the batch panic that caused it.
    let recorder = server.recorder().expect("tracing enabled");
    let incident = recorder
        .last_incident()
        .expect("quarantine_after=1 must trip an incident");
    assert!(
        incident.trigger == "quarantined" || incident.trigger == "batch-panic",
        "unexpected trigger {:?}",
        incident.trigger
    );
    assert!(
        incident.events.iter().any(|e| e.kind == "batch-panic"),
        "the snapshot must contain the panic that tripped it"
    );
    assert_eq!(
        server.status()[0].health,
        ReplicaHealth::Quarantined,
        "one strike quarantines under quarantine_after=1"
    );
}

/// Tracing is passive: the same workload served with the recorder on and
/// off produces bit-identical hidden states.
#[test]
fn tracing_is_bit_passive() {
    let run = |trace: TraceConfig| -> Vec<Vec<u8>> {
        let server = tiny_async(AsyncServerConfig {
            trace,
            ..AsyncServerConfig::default()
        });
        let tickets: Vec<_> = (1..=6)
            .map(|n| server.submit((0..n).map(|i| i * 3 % 64).collect()))
            .collect();
        tickets
            .into_iter()
            .map(|t| {
                let resp = t.wait().expect("no faults");
                resp.hidden
                    .as_slice()
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes())
                    .collect()
            })
            .collect()
    };
    assert_eq!(
        run(TraceConfig::enabled()),
        run(TraceConfig::disabled()),
        "the recorder must never influence results"
    );
}

/// Tracing is passive in cost too: a mixed burst served through a
/// one-replica door with the flight recorder on runs at most 5% slower
/// than with it off. After one discarded warm-up, off and on runs
/// interleave in pairs; the overhead compares the median throughput of
/// each side (robust to a single noisy run) and is clamped at zero,
/// since a negative delta is noise. Timing-based, so it is ignored by
/// default; run it in release:
/// `cargo test --release -q --test serve_trace -- --ignored`.
#[test]
#[ignore = "timing-based; run in release with --ignored"]
fn tracing_costs_at_most_five_percent_of_throughput() {
    // Each run is a ~25 ms burst, so one stretch of host contention can
    // sway a short series; 101 pairs keep the medians steady.
    const PAIRS: usize = 101;
    let config = TransformerConfig::roberta_tiny();
    let model = BertModel::new_synthetic(config.clone(), 9);
    let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
    let lengths = [5, 11, 17, 29, 41, 64];
    let burst: Vec<Vec<usize>> = (0..24)
        .map(|r| {
            (0..lengths[r % lengths.len()])
                .map(|i| (i * 31 + r * 7) % config.vocab)
                .collect()
        })
        .collect();
    let tokens_per_sec = |trace: TraceConfig| -> f64 {
        let server = ShardedServer::new(
            model.clone(),
            kit.clone(),
            ShardConfig {
                replicas: 1,
                replica: AsyncServerConfig {
                    threads: 1,
                    max_in_flight: 2,
                    policy: BatchPolicy {
                        max_batch: 8,
                        max_padded_tokens: 512,
                        bucket_edges: vec![8, 16, 32],
                    },
                    close: ClosePolicy {
                        max_batch_age: Duration::from_millis(2),
                        deadline_slack: Duration::from_millis(1),
                    },
                    trace,
                    ..AsyncServerConfig::default()
                },
                stall_timeout: Duration::from_secs(120),
                ..ShardConfig::default()
            },
        );
        let start = Instant::now();
        let tickets: Vec<_> = burst.iter().map(|t| server.submit(t.clone())).collect();
        let tokens: usize = tickets
            .into_iter()
            .map(|t| t.wait().expect("no deadlines in play").tokens)
            .sum();
        tokens as f64 / start.elapsed().as_secs_f64()
    };
    tokens_per_sec(TraceConfig::disabled()); // warm-up, discarded
    let (mut off, mut on) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for pair in 0..PAIRS {
        // Alternate which side runs first, so a position effect (say, a
        // slower run right after a server teardown) cancels out.
        if pair % 2 == 0 {
            off.push(tokens_per_sec(TraceConfig::disabled()));
            on.push(tokens_per_sec(TraceConfig::enabled()));
        } else {
            on.push(tokens_per_sec(TraceConfig::enabled()));
            off.push(tokens_per_sec(TraceConfig::disabled()));
        }
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let (off, on) = (median(&mut off), median(&mut on));
    let overhead_pct = ((1.0 - on / off) * 100.0).max(0.0);
    println!("trace overhead: off {off:.1} tok/s, on {on:.1} tok/s, {overhead_pct:.2}%");
    assert!(
        overhead_pct <= 5.0,
        "tracing cost {overhead_pct:.2}% of throughput (off {off:.1} tok/s, on {on:.1} tok/s), \
         above the 5% ceiling"
    );
}
