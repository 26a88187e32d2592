//! Request-lifecycle tracing integration tests: the per-stage breakdown
//! accounts for the observed end-to-end latency, failovers land on the
//! same trace as the admission, incidents freeze the flight recorder,
//! and — the load-bearing property — tracing is *passive*: results with
//! the recorder on are bit-identical to results with it off.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nn_lut::core::train::TrainConfig;
use nn_lut::core::NnLutKit;
use nn_lut::serve::{
    AsyncServerConfig, FaultPlan, ReplicaHealth, ShardConfig, ShardedServer, Stage, TraceConfig,
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
