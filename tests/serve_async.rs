//! Integration tests of the asynchronous serving front door
//! (`ShardedServer`, here over one replica): deadlines expire as errors
//! (never hangs), timed closes flush partial batches, shutdown drains,
//! and the bucketed async pipeline reproduces the serial synchronous
//! server bit for bit across thread counts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nn_lut::core::precision::Precision;
use nn_lut::core::train::TrainConfig;
use nn_lut::core::NnLutKit;
use nn_lut::serve::{
    AsyncServerConfig, BatchPolicy, ClosePolicy, CloseReason, FaultPlan, LutServer, ServeError,
    ServerConfig, ShardConfig, ShardedServer, Stage,
};
use nn_lut::transformer::{BertModel, TransformerConfig};

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
fn one_replica(replica: AsyncServerConfig) -> ShardConfig {
    ShardConfig {
        replicas: 1,
        replica,
        stall_timeout: Duration::from_secs(60),
        ..ShardConfig::default()
    }
}

fn async_server(config: AsyncServerConfig) -> ShardedServer {
    ShardedServer::new(tiny_model(), tiny_kit(), one_replica(config))
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

/// An already-expired deadline resolves to a timeout *error* — the ticket
/// must never hang and the request must never be encoded.
#[test]
fn expired_deadline_returns_timeout_error_not_a_hang() {
    let server = async_server(AsyncServerConfig::default());
    let doomed = server.submit_with_deadline(vec![1, 2, 3], Some(Duration::ZERO));
    let id = doomed.id();
    match doomed.wait() {
        Err(ServeError::DeadlineExceeded { id: got, .. }) => assert_eq!(got, id),
        other => panic!("a zero deadline must expire, got {other:?}"),
    }
    assert_eq!(server.shard_metrics().deadline_misses, 1);
    let m = server.metrics();
    assert_eq!(m.total_tokens(), 0, "expired requests are never encoded");
}

/// A deadline that expires while the queue idles is culled by the timed
/// wakeup, not only on the next dispatch.
#[test]
fn deadline_expires_even_when_nothing_else_arrives() {
    let server = async_server(AsyncServerConfig {
        close: ClosePolicy {
            // Age far beyond the deadline: only deadline handling can act.
            max_batch_age: Duration::from_secs(3600),
            deadline_slack: Duration::ZERO,
        },
        ..AsyncServerConfig::default()
    });
    let t = server.submit_with_deadline(vec![1; 4], Some(Duration::from_millis(5)));
    // With zero slack the close plan fires exactly at the deadline; the
    // batch still closed before expiry means Ok, after means the error —
    // both are deadline-correct, neither may hang.
    match t.wait() {
        Ok(r) => assert_eq!(r.tokens, 4),
        Err(ServeError::DeadlineExceeded { waited, .. }) => {
            assert!(waited >= Duration::from_millis(5));
        }
        Err(e) => panic!("unbounded admission cannot reject and the worker must not fail: {e}"),
    }
}

/// An under-filled batch flushes once `max_batch_age` elapses — no
/// further submissions required.
#[test]
fn age_triggered_close_flushes_partial_batch() {
    let server = async_server(AsyncServerConfig {
        policy: BatchPolicy {
            max_batch: 16,
            max_padded_tokens: usize::MAX,
            bucket_edges: Vec::new(),
        },
        close: ClosePolicy {
            max_batch_age: Duration::from_millis(10),
            deadline_slack: Duration::from_millis(1),
        },
        ..AsyncServerConfig::default()
    });
    let tickets: Vec<_> = (0..3).map(|n| server.submit(vec![1; n + 2])).collect();
    for t in tickets {
        t.wait().expect("no deadlines in play");
    }
    let m = server.metrics();
    assert_eq!(m.total_sequences(), 3, "all requests served");
    assert!(
        m.closes_for(CloseReason::Aged) >= 1,
        "3 of 16 sequences cannot close Full; only age can flush: \
         full {} aged {} deadline {} drain {}",
        m.closes_for(CloseReason::Full),
        m.closes_for(CloseReason::Aged),
        m.closes_for(CloseReason::Deadline),
        m.closes_for(CloseReason::Drain),
    );
}

/// A bucket that can fill the budget closes immediately (Full), without
/// waiting out the batch age.
#[test]
fn full_budget_closes_without_waiting_for_age() {
    let server = async_server(AsyncServerConfig {
        policy: BatchPolicy {
            max_batch: 4,
            max_padded_tokens: usize::MAX,
            bucket_edges: Vec::new(),
        },
        close: ClosePolicy {
            max_batch_age: Duration::from_secs(3600),
            deadline_slack: Duration::from_millis(1),
        },
        ..AsyncServerConfig::default()
    });
    let tickets: Vec<_> = (0..4).map(|_| server.submit(vec![1; 6])).collect();
    for t in tickets {
        t.wait().expect("no deadlines in play");
    }
    let m = server.metrics();
    assert!(
        m.closes_for(CloseReason::Full) >= 1,
        "an hour-long age cannot have flushed; {} batches closed, {} Full",
        m.batches_served(),
        m.closes_for(CloseReason::Full),
    );
}

/// The async, length-bucketed, pooled, multi-in-flight pipeline returns
/// bit-identical hidden states to the serial synchronous server at all
/// three baked kit precisions, across thread counts 1/2/4/8 and 1 or 2
/// batches in flight — batch composition differs (timing, buckets,
/// overlap), responses must not.
#[test]
fn async_bucketed_pipeline_is_bit_identical_to_serial_sync() {
    let model = tiny_model();
    let base_kit = tiny_kit();
    for precision in [Precision::F32, Precision::F16, Precision::Int32] {
        let kit = base_kit
            .with_precision(precision)
            .expect("fast kit converts to every precision");
        let mut reference = LutServer::new(
            model.clone(),
            kit.clone(),
            ServerConfig {
                threads: 1,
                policy: BatchPolicy::unbatched(),
                ..ServerConfig::default()
            },
        );
        let want = reference.serve(workload());

        for threads in thread_counts() {
            for max_in_flight in [1usize, 2] {
                let server = ShardedServer::new(
                    model.clone(),
                    kit.clone(),
                    one_replica(AsyncServerConfig {
                        threads,
                        max_in_flight,
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
                    }),
                );
                let tickets: Vec<_> = workload().into_iter().map(|t| server.submit(t)).collect();
                for (ticket, w) in tickets.into_iter().zip(&want) {
                    let got = ticket.wait().expect("no deadlines in play");
                    assert_eq!(got.id, w.id);
                    assert_eq!(got.hidden.shape(), w.hidden.shape());
                    for (a, b) in got.hidden.as_slice().iter().zip(w.hidden.as_slice()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "async bucketed ({precision:?}, {threads} threads, \
                             {max_in_flight} in flight) diverged on request {}",
                            got.id
                        );
                    }
                }
            }
        }
    }
}

/// `wait_timeout` bounds the caller's blocking with a typed error when
/// nothing resolves the ticket in time — and returns the result normally
/// when something does.
#[test]
fn wait_timeout_bounds_blocking_with_a_typed_error() {
    let server = async_server(AsyncServerConfig {
        close: ClosePolicy {
            // Nothing closes on its own: the ticket cannot resolve.
            max_batch_age: Duration::from_secs(3600),
            deadline_slack: Duration::from_millis(1),
        },
        policy: BatchPolicy {
            max_batch: 16,
            max_padded_tokens: usize::MAX,
            bucket_edges: Vec::new(),
        },
        ..AsyncServerConfig::default()
    });
    let stuck = server.submit(vec![1, 2, 3]);
    let id = stuck.id();
    // The supervisor routes the request onto the replica's queue.
    let routed_by = Instant::now() + Duration::from_secs(10);
    while stuck.last_stage() != Some(Stage::Queued) {
        assert!(Instant::now() < routed_by, "the request was never routed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let start = Instant::now();
    match stuck.wait_timeout(Duration::from_millis(30)) {
        Err(ServeError::WaitTimeout {
            id: got,
            waited,
            last_stage,
        }) => {
            assert_eq!(got, id);
            assert!(waited >= Duration::from_millis(30));
            assert!(start.elapsed() >= Duration::from_millis(30));
            // The request was admitted and queued but its batch never
            // closed — the error names the stage it is stuck behind.
            assert_eq!(last_stage, Some(Stage::Queued));
        }
        other => panic!("an hour-long batch age cannot resolve in 30 ms: {other:?}"),
    }
    // A resolvable ticket returns Ok well before a generous timeout; the
    // drain also proves the timed-out request above was never abandoned.
    drop(server);
}

/// Dropping the server mid-flight resolves every outstanding ticket
/// (drain-on-shutdown) — nobody is left blocked.
#[test]
fn drop_resolves_every_outstanding_ticket() {
    let server = async_server(AsyncServerConfig {
        close: ClosePolicy {
            max_batch_age: Duration::from_secs(3600),
            deadline_slack: Duration::from_millis(1),
        },
        ..AsyncServerConfig::default()
    });
    let tickets: Vec<_> = workload().into_iter().map(|t| server.submit(t)).collect();
    drop(server);
    for t in tickets {
        t.wait().expect("shutdown drains, it does not abandon");
    }
}

/// With two batches in flight, a batch that finishes is reported at once,
/// not held behind an earlier batch that is still running: B's encode
/// resolves while A's batch sleeps in an injected 3 s stall.
#[test]
fn finished_batch_is_not_held_behind_a_stalled_one() {
    let server = ShardedServer::new(
        tiny_model(),
        tiny_kit(),
        ShardConfig {
            fault_plan: Some(Arc::new(FaultPlan::new().stall_at(
                0,
                0,
                Duration::from_secs(3),
            ))),
            ..one_replica(AsyncServerConfig {
                max_in_flight: 2,
                close: ClosePolicy {
                    max_batch_age: Duration::ZERO,
                    ..ClosePolicy::default_policy()
                },
                ..AsyncServerConfig::default()
            })
        },
    );
    let a = server.submit(vec![1, 2, 3]);
    let dispatched_by = Instant::now() + Duration::from_secs(10);
    while a.last_stage() != Some(Stage::Dispatched) {
        assert!(Instant::now() < dispatched_by, "A was never dispatched");
        std::thread::sleep(Duration::from_millis(1));
    }
    // A's batch (dispatch sequence 0) is now stalled on one worker.
    let b = server.submit(vec![4, 5, 6]);
    let got = b
        .wait_timeout(Duration::from_secs(2))
        .expect("B's finished batch is reported without waiting for A's");
    assert_eq!(got.tokens, 3);
    assert_eq!(
        a.wait()
            .expect("the stall delays A, it does not fail it")
            .tokens,
        3
    );
}
