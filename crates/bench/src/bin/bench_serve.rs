//! End-to-end encoder serving throughput: pushes a mixed-length request
//! workload through `LutServer` at 1/2/4 pool threads, compares FIFO
//! against length-bucketed admission on the same workload, and records
//! real tokens/sec plus padding efficiency into the `serve` section of
//! `BENCH_lut_eval.json` — the ROADMAP's "end-to-end encoder tokens/sec"
//! and "reduce padding waste" trajectory items.
//!
//! The model uses RoBERTa-base *shapes* (hidden 768, 12 heads, FFN 3072)
//! with the layer count cut to 2 so a full sweep finishes in well under a
//! minute on a laptop core; tokens/sec scales ~1/layers, and the
//! serial-vs-pooled *ratio* (the number under test) does not depend on
//! depth. The recorded `machine_cores` field is the honest context for
//! that ratio: on a single-core container the pooled configurations time-
//! slice one CPU and the speedup sits near 1.0 by construction — the
//! determinism contract (pooled bits == serial bits) is what the tests
//! enforce there, and the >1.5x criterion is only observable on ≥2 cores.
//! The padding-efficiency comparison has no such caveat: padded area is a
//! pure function of admission order, identical on any machine.
//!
//! A third part exercises **sustained** serving through the asynchronous
//! front door (`ShardedServer` over one replica):
//! steady-state metrics memory (the RSS proxy a long-lived deployment
//! cares about), overload reject rate at a deliberately tight
//! backpressure watermark, and 1-vs-2 batches in flight. It lands in the
//! `serve.sustained` section of the ledger and is what `bench_check`
//! gates CI on.
//!
//! A fourth part exercises **replica-sharded** serving through
//! `ShardedServer`: a clean two-replica run measures join-shortest-queue
//! routing balance (min/max requests routed per replica) and fleet
//! tokens/sec, and a faulted run — replica 0's first batch panics, one
//! strike quarantines — measures the failover → probe → re-admission
//! recovery time. It lands in `serve.sharded` and is likewise gated by
//! `bench_check`.
//!
//! A fifth part measures the **cost of observability**: the sustained
//! workload with the flight recorder off vs on, in interleaved pairs,
//! reported as a median overhead percentage in `serve.trace_overhead` —
//! `bench_check` fails the build past 5%.
//!
//! A sixth part measures **autoregressive decoding** through the
//! continuous-batching plane: concurrent generations at growing KV-cache
//! contexts (the model is rebuilt with `max_seq` stretched to hold the
//! longest), reporting generated tokens/sec, decode-plane steps/sec,
//! mean decode batch width and inter-token latency p50/p95 per context,
//! plus a prefill:decode request-mix sweep — encode traffic and
//! generations sharing one queue — in `serve.decode`, gated by
//! `bench_check`.
//!
//! A seventh part measures **codebook serving**: centroid codebooks are
//! baked onto the bench model (calibrated on the serve workload), and the
//! same workload is served in `MatmulMode::Codebook` vs `F32` on one
//! thread — throughput ratio, end-to-end relative error of the served
//! hidden states, table memory and one-time bake cost land in
//! `serve.codebook`, gated by `bench_check`.
//!
//! Run: `cargo run --release -p nnlut-bench --bin bench_serve`
//! Smoke: `cargo run --release -p nnlut-bench --bin bench_serve -- --quick`
//! (tiny model, `BENCH_lut_eval.json` untouched — CI keeps the path alive
//! without overwriting real measurements). `--out <path>` additionally
//! writes the run's own section JSON to `path` (any mode) — CI's
//! bench-regression gate diffs a fresh `--quick --out` run against the
//! committed `BENCH_serve_quick.json` baseline via `bench_check`.

use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use nnlut_bench::upsert_json_key;
use nnlut_core::codebook::CodebookSpec;
use nnlut_core::train::TrainConfig;
use nnlut_core::NnLutKit;
use nnlut_serve::{
    AsyncServerConfig, BatchPolicy, ClosePolicy, FaultPlan, LutServer, ReplicaHealth, ServeError,
    ServePolicy, ServerConfig, ShardConfig, ShardedServer, TraceConfig, INJECTED_PANIC_PREFIX,
};
use nnlut_transformer::Nonlinearity;
use nnlut_transformer::{BertModel, MatmulMode, TransformerConfig};

struct Config {
    label: &'static str,
    model: TransformerConfig,
    requests: usize,
    /// Request lengths cycle through this mix (mixed on purpose: the
    /// batcher's padding decisions are part of what is being timed).
    lengths: &'static [usize],
    threads: &'static [usize],
    policy: BatchPolicy,
    /// Length-bucket edges for the bucketed-admission comparison.
    bucket_edges: &'static [usize],
    /// Requests in the sustained async scenario (per in-flight setting).
    sustained_requests: usize,
    /// Queue-depth watermark of the sustained overload burst.
    overload_watermark: usize,
    /// KV-cache contexts (prompt lengths) of the decode sweep.
    decode_contexts: &'static [usize],
    /// Concurrent generations per decode-sweep leg.
    decode_streams: usize,
    /// Tokens generated per stream in the decode sweep.
    decode_max_new: usize,
    /// The prefill:decode mix sweep: `(encodes, generations)` per leg.
    decode_mixes: &'static [(usize, usize)],
    write_json: bool,
}

fn quick_config() -> Config {
    Config {
        label: "quick (roberta_tiny × 4 layers)",
        model: TransformerConfig::roberta_tiny(),
        requests: 16,
        lengths: &[5, 11, 17, 29, 41, 64],
        threads: &[1, 2],
        policy: BatchPolicy {
            max_batch: 8,
            max_padded_tokens: 512,
            bucket_edges: Vec::new(),
        },
        bucket_edges: &[8, 16, 32],
        sustained_requests: 24,
        overload_watermark: 4,
        decode_contexts: &[16, 32],
        decode_streams: 2,
        decode_max_new: 4,
        decode_mixes: &[(6, 2), (4, 4), (2, 6)],
        write_json: false,
    }
}

fn full_config() -> Config {
    // RoBERTa-base shapes, depth cut to 2 (see module docs) — shared
    // with bench_lut_eval's layer shapes via nnlut_bench so the `serve`
    // and `simd` ledger sections can't drift apart.
    Config {
        label: "roberta_base shapes × 2 layers",
        model: nnlut_bench::roberta_bench_config(),
        requests: 32,
        lengths: &[16, 32, 48, 64, 96, 128],
        threads: &[1, 2, 4],
        policy: BatchPolicy {
            max_batch: 8,
            max_padded_tokens: 1024,
            bucket_edges: Vec::new(),
        },
        bucket_edges: &[16, 32, 64],
        sustained_requests: 48,
        overload_watermark: 8,
        decode_contexts: &[64, 256, 1024],
        decode_streams: 2,
        decode_max_new: 8,
        decode_mixes: &[(12, 4), (8, 8), (4, 12)],
        write_json: true,
    }
}

fn workload(cfg: &Config) -> Vec<Vec<usize>> {
    (0..cfg.requests)
        .map(|r| {
            let len = cfg.lengths[r % cfg.lengths.len()];
            (0..len)
                .map(|i| (i * 31 + r * 7) % cfg.model.vocab)
                .collect()
        })
        .collect()
}

#[derive(Clone)]
struct Measurement {
    threads: usize,
    tokens_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    wall_s: f64,
}

fn run_once(
    cfg: &Config,
    model: &BertModel,
    kit: &NnLutKit,
    threads: usize,
    policy: BatchPolicy,
) -> (Measurement, f64) {
    let mut server = LutServer::new(
        model.clone(),
        kit.clone(),
        ServerConfig {
            threads,
            policy,
            mode: MatmulMode::F32,
        },
    );
    let start = Instant::now();
    let responses = server.serve(workload(cfg));
    let wall = start.elapsed();
    assert_eq!(responses.len(), cfg.requests, "lost responses");
    let m = server.metrics();
    (
        Measurement {
            threads,
            tokens_per_sec: m.tokens_per_sec(),
            p50_ms: m.latency_percentile(50.0).unwrap_or_default().as_secs_f64() * 1e3,
            p95_ms: m.latency_percentile(95.0).unwrap_or_default().as_secs_f64() * 1e3,
            wall_s: wall.as_secs_f64(),
        },
        m.padding_efficiency(),
    )
}

struct SustainedRun {
    max_in_flight: usize,
    tokens_per_sec: f64,
    wall_s: f64,
    metrics_bytes: usize,
    sketch_capacity: usize,
}

/// The asynchronous door over one replica behind `admission`. Queue wait
/// counts toward the stall watchdog, so it sits at the benchmark's
/// 120 s, far beyond any honest batch.
fn async_server(
    model: &BertModel,
    kit: &NnLutKit,
    replica: AsyncServerConfig,
    admission: ServePolicy,
) -> ShardedServer {
    let config = ShardConfig {
        replicas: 1,
        replica,
        admission,
        stall_timeout: Duration::from_secs(120),
        ..ShardConfig::default()
    };
    ShardedServer::new(model.clone(), kit.clone(), config)
}

/// Pushes the mixed-length workload through the asynchronous door with
/// `max_in_flight` concurrent batches and reports end-to-end throughput
/// plus the steady-state metrics footprint (the RSS proxy).
fn run_sustained(
    cfg: &Config,
    model: &BertModel,
    kit: &NnLutKit,
    max_in_flight: usize,
) -> SustainedRun {
    let server = async_server(
        model,
        kit,
        AsyncServerConfig {
            threads: 1,
            max_in_flight,
            policy: cfg.policy.clone().with_buckets(cfg.bucket_edges.to_vec()),
            close: ClosePolicy {
                max_batch_age: Duration::from_millis(2),
                deadline_slack: Duration::from_millis(1),
            },
            ..AsyncServerConfig::default()
        },
        ServePolicy::unbounded(),
    );
    let requests: Vec<Vec<usize>> = (0..cfg.sustained_requests)
        .map(|r| {
            let len = cfg.lengths[r % cfg.lengths.len()];
            (0..len)
                .map(|i| (i * 31 + r * 7) % cfg.model.vocab)
                .collect()
        })
        .collect();
    let start = Instant::now();
    let tickets: Vec<_> = requests.into_iter().map(|t| server.submit(t)).collect();
    let mut tokens = 0usize;
    for t in tickets {
        tokens += t.wait().expect("no deadlines in play").tokens;
    }
    let wall = start.elapsed().as_secs_f64();
    let m = server.metrics();
    SustainedRun {
        max_in_flight,
        tokens_per_sec: tokens as f64 / wall,
        wall_s: wall,
        metrics_bytes: m.approx_bytes(),
        sketch_capacity: m.sketch_capacity(),
    }
}

struct TraceOverheadRun {
    runs: usize,
    tokens_per_sec_off: f64,
    tokens_per_sec_on: f64,
    overhead_pct: f64,
    recorder_capacity: usize,
    recorder_bytes: usize,
}

/// Part 5: the cost of observability. After one discarded warm-up, the
/// sustained workload runs with the flight recorder off and on in
/// interleaved pairs; the reported overhead compares the *medians* of
/// the two populations (robust to a single noisy run on a busy box),
/// clamped at zero — tracing cannot make encodes faster, a negative
/// delta is noise. `bench_check` gates this at ≤ 5%: the tracing layer
/// must stay passive in cost, not just in semantics.
fn run_trace_overhead(cfg: &Config, model: &BertModel, kit: &NnLutKit) -> TraceOverheadRun {
    let one = |trace: TraceConfig| -> (f64, usize, usize) {
        let server = async_server(
            model,
            kit,
            AsyncServerConfig {
                threads: 1,
                max_in_flight: 2,
                policy: cfg.policy.clone().with_buckets(cfg.bucket_edges.to_vec()),
                close: ClosePolicy {
                    max_batch_age: Duration::from_millis(2),
                    deadline_slack: Duration::from_millis(1),
                },
                trace,
                ..AsyncServerConfig::default()
            },
            ServePolicy::unbounded(),
        );
        let requests: Vec<Vec<usize>> = (0..cfg.sustained_requests)
            .map(|r| {
                let len = cfg.lengths[r % cfg.lengths.len()];
                (0..len)
                    .map(|i| (i * 31 + r * 7) % cfg.model.vocab)
                    .collect()
            })
            .collect();
        let start = Instant::now();
        let tickets: Vec<_> = requests.into_iter().map(|t| server.submit(t)).collect();
        let mut tokens = 0usize;
        for t in tickets {
            tokens += t.wait().expect("no deadlines in play").tokens;
        }
        let wall = start.elapsed().as_secs_f64();
        let (capacity, bytes) = server
            .recorder()
            .map_or((0, 0), |r| (r.capacity(), r.approx_bytes()));
        (tokens as f64 / wall, capacity, bytes)
    };

    let runs = 3usize;
    let mut offs = Vec::with_capacity(runs);
    let mut ons = Vec::with_capacity(runs);
    let mut capacity = 0usize;
    let mut bytes = 0usize;
    one(TraceConfig::disabled()); // warm-up: page in the model, discard
    for _ in 0..runs {
        let (off, _, _) = one(TraceConfig::disabled());
        let (on, cap, b) = one(TraceConfig::enabled());
        offs.push(off);
        ons.push(on);
        capacity = cap;
        bytes = b;
    }
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let off = median(&mut offs);
    let on = median(&mut ons);
    TraceOverheadRun {
        runs,
        tokens_per_sec_off: off,
        tokens_per_sec_on: on,
        overhead_pct: ((1.0 - on / off) * 100.0).max(0.0),
        recorder_capacity: capacity,
        recorder_bytes: bytes,
    }
}

struct OverloadRun {
    watermark: usize,
    submitted: usize,
    rejected: usize,
    served_ok: usize,
    recovered: bool,
}

/// Slams a tight queue-depth watermark with an un-paced burst, counts
/// reject-at-door outcomes, then verifies the door reopens once the
/// burst drains.
fn run_overload(cfg: &Config, model: &BertModel, kit: &NnLutKit) -> OverloadRun {
    let server = async_server(
        model,
        kit,
        AsyncServerConfig {
            threads: 1,
            policy: cfg.policy.clone().with_buckets(cfg.bucket_edges.to_vec()),
            close: ClosePolicy {
                max_batch_age: Duration::from_millis(2),
                deadline_slack: Duration::from_millis(1),
            },
            ..AsyncServerConfig::default()
        },
        ServePolicy::with_max_queue_depth(cfg.overload_watermark),
    );
    let submitted = cfg.sustained_requests;
    let shortest = *cfg.lengths.iter().min().expect("lengths are non-empty");
    let tickets: Vec<_> = (0..submitted)
        .map(|r| {
            let tokens: Vec<usize> = (0..shortest)
                .map(|i| (i * 31 + r * 7) % cfg.model.vocab)
                .collect();
            server.submit(tokens)
        })
        .collect();
    let mut rejected = 0usize;
    let mut served_ok = 0usize;
    for t in tickets {
        match t.wait() {
            Ok(_) => served_ok += 1,
            Err(ServeError::Overloaded { .. }) => rejected += 1,
            Err(e) => panic!("overload burst saw an unexpected failure: {e}"),
        }
    }
    // The burst is fully resolved, so the queue is back under the
    // watermark: admission must recover.
    let recovered = server.submit(vec![1; shortest]).wait().is_ok();
    OverloadRun {
        watermark: cfg.overload_watermark,
        submitted,
        rejected,
        served_ok,
        recovered,
    }
}

struct ShardedRun {
    replicas: usize,
    requests: usize,
    routed: Vec<u64>,
    balance: f64,
    tokens_per_sec: f64,
    recovery_ms: f64,
    all_served: bool,
    recovered: bool,
}

/// Part 4: replica-sharded serving. A clean two-replica run measures
/// join-shortest-queue routing balance and fleet throughput; a faulted
/// run — replica 0's first batch panics, one strike quarantines —
/// measures how long failover → probe → re-admission takes end to end.
fn run_sharded(cfg: &Config, model: &BertModel, kit: &NnLutKit) -> ShardedRun {
    // The faulted run's panic is supposed to fire; keep the default
    // hook's stderr spew out of the bench output.
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
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

    let replicas = 2usize;
    let replica_cfg = AsyncServerConfig {
        threads: 1,
        policy: cfg.policy.clone().with_buckets(cfg.bucket_edges.to_vec()),
        close: ClosePolicy {
            max_batch_age: Duration::from_millis(2),
            deadline_slack: Duration::from_millis(1),
        },
        ..AsyncServerConfig::default()
    };
    let requests: Vec<Vec<usize>> = (0..cfg.sustained_requests)
        .map(|r| {
            let len = cfg.lengths[r % cfg.lengths.len()];
            (0..len)
                .map(|i| (i * 31 + r * 7) % cfg.model.vocab)
                .collect()
        })
        .collect();

    // Clean run: routing balance + throughput across the fleet. The
    // stall watchdog is parked far beyond any honest encode time — on a
    // slow single-core runner a full-config batch takes seconds, and a
    // watchdog trip here would masquerade as a failure.
    let mut server = ShardedServer::new(
        model.clone(),
        kit.clone(),
        ShardConfig {
            replicas,
            replica: replica_cfg.clone(),
            stall_timeout: Duration::from_secs(120),
            ..ShardConfig::default()
        },
    );
    let start = Instant::now();
    let tickets: Vec<_> = requests.iter().cloned().map(|t| server.submit(t)).collect();
    let mut tokens = 0usize;
    for t in tickets {
        tokens += t.wait().expect("no faults in the clean run").tokens;
    }
    let wall = start.elapsed().as_secs_f64();
    let routed: Vec<u64> = server.status().iter().map(|s| s.routed).collect();
    let max_routed = routed.iter().copied().max().unwrap_or(0);
    let min_routed = routed.iter().copied().min().unwrap_or(0);
    let balance = if max_routed == 0 {
        1.0
    } else {
        min_routed as f64 / max_routed as f64
    };
    let tokens_per_sec = tokens as f64 / wall;
    server.shutdown();

    // Faulted run: replica 0's first batch dies, it quarantines on the
    // strike, and the probe cycle re-admits it. Recovery time is from
    // first submission to the replica standing Healthy again.
    let mut server = ShardedServer::new(
        model.clone(),
        kit.clone(),
        ShardConfig {
            replicas,
            replica: replica_cfg,
            quarantine_after: 1,
            probe_backoff: Duration::from_millis(5),
            stall_timeout: Duration::from_secs(120),
            fault_plan: Some(Arc::new(FaultPlan::new().panic_at(0, 0))),
            ..ShardConfig::default()
        },
    );
    let start = Instant::now();
    let tickets: Vec<_> = requests.into_iter().map(|t| server.submit(t)).collect();
    let all_served = tickets.into_iter().all(|t| t.wait().is_ok());
    let deadline = Instant::now() + Duration::from_secs(30);
    let recovered = loop {
        let status = server.status();
        let s0 = &status[0];
        if s0.readmissions >= 1 && s0.health == ReplicaHealth::Healthy {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
    server.shutdown();

    ShardedRun {
        replicas,
        requests: cfg.sustained_requests,
        routed,
        balance,
        tokens_per_sec,
        recovery_ms,
        all_served,
        recovered,
    }
}

struct CodebookRun {
    bake_s: f64,
    table_mib: f64,
    tokens_per_sec_f32: f64,
    tokens_per_sec: f64,
    speedup_vs_f32: f64,
    rel_err_vs_f32: f64,
}

/// Part 7: codebook serving. Bakes centroid codebooks onto the bench
/// model (calibrated on the serve workload itself), then pushes the same
/// workload through `LutServer` in `MatmulMode::Codebook` vs `F32` on one
/// pool thread, reporting the throughput ratio, the end-to-end relative
/// (Frobenius) error of the served hidden states, and the one-time bake
/// cost. The speedup is recorded-level context like the `simd` section:
/// on a scalar build the gather kernel is the oracle and the ratio mostly
/// reflects arithmetic savings alone.
fn run_codebook(cfg: &Config, model: &BertModel, kit: &NnLutKit) -> CodebookRun {
    let bake_start = Instant::now();
    let mut baked = model.clone();
    baked.bake_codebooks(
        &CodebookSpec::default(),
        &workload(cfg),
        &Nonlinearity::exact(),
        256,
    );
    let bake_s = bake_start.elapsed().as_secs_f64();
    let table_mib = baked.codebook_table_bytes() as f64 / (1024.0 * 1024.0);

    let serve = |mode: MatmulMode| {
        let mut server = LutServer::new(
            baked.clone(),
            kit.clone(),
            ServerConfig {
                threads: 1,
                policy: cfg.policy.clone(),
                mode,
            },
        );
        let responses = server.serve(workload(cfg));
        (responses, server.metrics().tokens_per_sec())
    };
    let (exact, f32_tps) = serve(MatmulMode::F32);
    let (approx, cb_tps) = serve(MatmulMode::Codebook);
    let mut err = 0.0f64;
    let mut norm = 0.0f64;
    for (a, e) in approx.iter().zip(&exact) {
        for (x, y) in a.hidden.as_slice().iter().zip(e.hidden.as_slice()) {
            err += ((x - y) as f64).powi(2);
            norm += (*y as f64).powi(2);
        }
    }
    CodebookRun {
        bake_s,
        table_mib,
        tokens_per_sec_f32: f32_tps,
        tokens_per_sec: cb_tps,
        speedup_vs_f32: cb_tps / f32_tps,
        rel_err_vs_f32: (err / norm.max(f64::MIN_POSITIVE)).sqrt(),
    }
}

struct DecodeRun {
    context: usize,
    tokens_per_sec: f64,
    steps_per_sec: f64,
    inter_p50_ms: f64,
    inter_p95_ms: f64,
    batch_width: f64,
    wall_s: f64,
}

struct MixRun {
    encodes: usize,
    generations: usize,
    tokens_per_sec: f64,
    steps_per_sec: f64,
    wall_s: f64,
}

/// The model of part 6: the bench shapes with `max_seq` stretched to
/// hold the longest decode context plus its token budget, so the KV
/// cache genuinely reaches the swept depths.
fn decode_model(cfg: &Config) -> BertModel {
    let longest = cfg.decode_contexts.iter().max().expect("non-empty sweep");
    let model_cfg = TransformerConfig {
        // Never below the base shapes' max_seq: the mix leg still pushes
        // the ordinary encode workload through this model.
        max_seq: (longest + cfg.decode_max_new).max(cfg.model.max_seq),
        ..cfg.model.clone()
    };
    BertModel::new_synthetic(model_cfg, nnlut_bench::KIT_SEED)
}

/// One decode-sweep leg: `decode_streams` concurrent generations, each
/// prefilling a `context`-token prompt and decoding `decode_max_new`
/// tokens through the continuous-batching plane. A fresh server per leg
/// keeps the inter-token sketch scoped to this context depth.
fn run_decode_context(
    cfg: &Config,
    model: &BertModel,
    kit: &NnLutKit,
    context: usize,
) -> DecodeRun {
    let server = async_server(
        model,
        kit,
        AsyncServerConfig {
            threads: 1,
            max_in_flight: 2,
            policy: BatchPolicy {
                max_batch: cfg.decode_streams.max(2),
                max_padded_tokens: context * cfg.decode_streams + 64,
                bucket_edges: Vec::new(),
            },
            close: ClosePolicy {
                max_batch_age: Duration::from_millis(2),
                deadline_slack: Duration::from_millis(1),
            },
            ..AsyncServerConfig::default()
        },
        ServePolicy::unbounded(),
    );
    let start = Instant::now();
    let tickets: Vec<_> = (0..cfg.decode_streams)
        .map(|s| {
            let prompt: Vec<usize> = (0..context)
                .map(|i| (i * 31 + s * 97) % cfg.model.vocab)
                .collect();
            server.submit_generate(prompt, cfg.decode_max_new, None)
        })
        .collect();
    let mut generated = 0usize;
    for t in tickets {
        generated += t.wait().expect("no deadlines in play").tokens.len();
    }
    let wall = start.elapsed().as_secs_f64();
    let m = server.metrics();
    DecodeRun {
        context,
        tokens_per_sec: generated as f64 / wall,
        steps_per_sec: m.decode_steps_per_sec(),
        inter_p50_ms: m
            .inter_token_percentile(50.0)
            .unwrap_or_default()
            .as_secs_f64()
            * 1e3,
        inter_p95_ms: m
            .inter_token_percentile(95.0)
            .unwrap_or_default()
            .as_secs_f64()
            * 1e3,
        batch_width: m.decode_batch_width(),
        wall_s: wall,
    }
}

/// One prefill:decode mix leg: `encodes` whole-sequence requests and
/// `generations` streams interleaved into one queue — the number under
/// test is how much encode traffic and the decode plane cost each other.
fn run_decode_mix(
    cfg: &Config,
    model: &BertModel,
    kit: &NnLutKit,
    encodes: usize,
    generations: usize,
) -> MixRun {
    let context = cfg.decode_contexts[0];
    let server = async_server(
        model,
        kit,
        AsyncServerConfig {
            threads: 1,
            max_in_flight: 2,
            policy: cfg.policy.clone().with_buckets(cfg.bucket_edges.to_vec()),
            close: ClosePolicy {
                max_batch_age: Duration::from_millis(2),
                deadline_slack: Duration::from_millis(1),
            },
            ..AsyncServerConfig::default()
        },
        ServePolicy::unbounded(),
    );
    let start = Instant::now();
    let mut enc_tickets = Vec::with_capacity(encodes);
    let mut gen_tickets = Vec::with_capacity(generations);
    for r in 0..encodes.max(generations) {
        if r < encodes {
            let len = cfg.lengths[r % cfg.lengths.len()];
            enc_tickets.push(
                server.submit(
                    (0..len)
                        .map(|i| (i * 31 + r * 7) % cfg.model.vocab)
                        .collect(),
                ),
            );
        }
        if r < generations {
            let prompt: Vec<usize> = (0..context)
                .map(|i| (i * 13 + r * 5) % cfg.model.vocab)
                .collect();
            gen_tickets.push(server.submit_generate(prompt, cfg.decode_max_new, None));
        }
    }
    let mut tokens = 0usize;
    for t in enc_tickets {
        tokens += t.wait().expect("no deadlines in play").tokens;
    }
    for t in gen_tickets {
        let r = t.wait().expect("no deadlines in play");
        tokens += context + r.tokens.len();
    }
    let wall = start.elapsed().as_secs_f64();
    let m = server.metrics();
    MixRun {
        encodes,
        generations,
        tokens_per_sec: tokens as f64 / wall,
        steps_per_sec: m.decode_steps_per_sec(),
        wall_s: wall,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out takes a path").clone());
    let cfg = if quick { quick_config() } else { full_config() };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "bench_serve: {} · {} requests · lengths {:?} · machine cores {}",
        cfg.label, cfg.requests, cfg.lengths, cores
    );
    println!("training a fast-config 16-entry kit (contents don't affect throughput) …");
    let kit = NnLutKit::train_with(16, nnlut_bench::KIT_SEED, &TrainConfig::fast());
    let model = BertModel::new_synthetic(cfg.model.clone(), nnlut_bench::KIT_SEED);

    // Part 1: pooled-thread sweep (FIFO admission, the PR-2 trajectory).
    // The threads==1 run doubles as the FIFO baseline of part 2.
    let mut rows: Vec<Measurement> = Vec::new();
    let mut fifo_serial: Option<(Measurement, f64)> = None;
    for &threads in cfg.threads {
        let (m, eff) = run_once(&cfg, &model, &kit, threads, cfg.policy.clone());
        println!(
            "  threads {:>2}: {:>9.1} tok/s · p50 {:>8.2} ms · p95 {:>8.2} ms · wall {:>6.2} s",
            m.threads, m.tokens_per_sec, m.p50_ms, m.p95_ms, m.wall_s
        );
        if threads == 1 {
            fifo_serial = Some((m.clone(), eff));
        }
        rows.push(m);
    }
    let serial = rows[0].tokens_per_sec;
    for m in &rows[1..] {
        println!(
            "  pooled speedup at {} threads: {:.2}x",
            m.threads,
            m.tokens_per_sec / serial
        );
    }

    // Part 2: admission comparison — the same mixed-length workload packed
    // FIFO vs through length buckets, serial pool (padding is a pure
    // function of admission order; threads don't move it). The FIFO
    // baseline is part 1's threads==1 run; only bucketed runs fresh.
    let bucketed_policy = cfg.policy.clone().with_buckets(cfg.bucket_edges.to_vec());
    let (fifo_m, fifo_eff) = fifo_serial.expect("thread sweep always includes threads == 1");
    let (bucketed_m, bucketed_eff) = run_once(&cfg, &model, &kit, 1, bucketed_policy);
    println!("  admission (1 thread, same workload):");
    println!(
        "    fifo     : padding eff {:.3} · {:>9.1} tok/s",
        fifo_eff, fifo_m.tokens_per_sec
    );
    println!(
        "    bucketed : padding eff {:.3} · {:>9.1} tok/s  (edges {:?})",
        bucketed_eff, bucketed_m.tokens_per_sec, cfg.bucket_edges
    );
    println!(
        "    padding-efficiency gain: {:+.1}% · throughput gain: {:+.1}%",
        (bucketed_eff / fifo_eff - 1.0) * 100.0,
        (bucketed_m.tokens_per_sec / fifo_m.tokens_per_sec - 1.0) * 100.0
    );
    // Part 3: sustained async serving — 1 vs 2 batches in flight on the
    // same workload, the steady-state metrics footprint (RSS proxy), and
    // an overload burst against a tight watermark.
    println!("  sustained (async, {} requests):", cfg.sustained_requests);
    let sustained: Vec<SustainedRun> = [1usize, 2]
        .iter()
        .map(|&mif| {
            let run = run_sustained(&cfg, &model, &kit, mif);
            println!(
                "    in-flight {}: {:>9.1} tok/s · wall {:>6.2} s · metrics {} B (sketch {})",
                run.max_in_flight,
                run.tokens_per_sec,
                run.wall_s,
                run.metrics_bytes,
                run.sketch_capacity
            );
            run
        })
        .collect();
    assert_eq!(
        sustained[0].metrics_bytes, sustained[1].metrics_bytes,
        "metrics footprint is a function of configuration, not of the run"
    );
    let overload = run_overload(&cfg, &model, &kit);
    println!(
        "    overload : watermark {} · {}/{} rejected at the door · {} served · door reopened: {}",
        overload.watermark,
        overload.rejected,
        overload.submitted,
        overload.served_ok,
        overload.recovered
    );

    // Part 5 measurement runs before part 4's panic-hook installation is
    // needed; order in the printout follows the ledger.
    let trace_overhead = run_trace_overhead(&cfg, &model, &kit);
    println!(
        "  trace overhead ({} paired runs): off {:>9.1} tok/s · on {:>9.1} tok/s · {:.2}% \
         (recorder {} events, {} B)",
        trace_overhead.runs,
        trace_overhead.tokens_per_sec_off,
        trace_overhead.tokens_per_sec_on,
        trace_overhead.overhead_pct,
        trace_overhead.recorder_capacity,
        trace_overhead.recorder_bytes,
    );

    // Part 4: replica-sharded serving — routing balance on a clean fleet,
    // recovery time through a deterministic failure.
    let sharded = run_sharded(&cfg, &model, &kit);
    println!(
        "  sharded ({} replicas, {} requests):",
        sharded.replicas, sharded.requests
    );
    println!(
        "    routing  : {:?} routed · balance {:.3} · {:>9.1} tok/s",
        sharded.routed, sharded.balance, sharded.tokens_per_sec
    );
    println!(
        "    failover : recovery {:.1} ms · all served: {} · replica re-admitted: {}",
        sharded.recovery_ms, sharded.all_served, sharded.recovered
    );

    // Part 7: codebook serving — measured before part 6 spins up the
    // stretched decode model; printout order follows the ledger.
    let codebook = run_codebook(&cfg, &model, &kit);
    println!("  codebook (1 thread, same workload):");
    println!(
        "    bake {:.2} s · tables {:.2} MiB · f32 {:>9.1} tok/s · codebook {:>9.1} tok/s · {:.2}x · rel err {:.4}",
        codebook.bake_s,
        codebook.table_mib,
        codebook.tokens_per_sec_f32,
        codebook.tokens_per_sec,
        codebook.speedup_vs_f32,
        codebook.rel_err_vs_f32
    );

    // Part 6: autoregressive decoding through the continuous-batching
    // plane — context sweep, then the prefill:decode mix.
    let dmodel = decode_model(&cfg);
    println!(
        "  decode ({} streams × {} tokens, contexts {:?}):",
        cfg.decode_streams, cfg.decode_max_new, cfg.decode_contexts
    );
    let decode_runs: Vec<DecodeRun> = cfg
        .decode_contexts
        .iter()
        .map(|&context| {
            let run = run_decode_context(&cfg, &dmodel, &kit, context);
            println!(
                "    context {:>5}: {:>8.1} tok/s · steps {:>8.1}/s · inter-token p50 {:>8.2} ms · p95 {:>8.2} ms · width {:.2} · wall {:>6.2} s",
                run.context,
                run.tokens_per_sec,
                run.steps_per_sec,
                run.inter_p50_ms,
                run.inter_p95_ms,
                run.batch_width,
                run.wall_s
            );
            run
        })
        .collect();
    let mix_runs: Vec<MixRun> = cfg
        .decode_mixes
        .iter()
        .map(|&(encodes, generations)| {
            let run = run_decode_mix(&cfg, &dmodel, &kit, encodes, generations);
            println!(
                "    mix {:>2}:{:<2}   : {:>8.1} tok/s · decode steps {:>8.1}/s · wall {:>6.2} s",
                run.encodes, run.generations, run.tokens_per_sec, run.steps_per_sec, run.wall_s
            );
            run
        })
        .collect();

    let mcfg = &cfg.model;
    {
        let mut section = format!(
            "{{\n    \"machine_cores\": {cores},\n    \"model\": {{\"hidden\": {}, \"heads\": {}, \"ffn\": {}, \"layers\": {}}},\n    \"requests\": {},\n    \"configs\": [\n",
            mcfg.hidden, mcfg.heads, mcfg.ffn, mcfg.layers, cfg.requests
        );
        for (i, m) in rows.iter().enumerate() {
            section.push_str(&format!(
                "      {{\"threads\": {}, \"tokens_per_sec\": {:.1}, \"p50_ms\": {:.2}, \"p95_ms\": {:.2}, \"speedup_vs_serial\": {:.3}}}{}\n",
                m.threads,
                m.tokens_per_sec,
                m.p50_ms,
                m.p95_ms,
                m.tokens_per_sec / serial,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        section.push_str("    ],\n");
        section.push_str(&format!(
            "    \"admission\": {{\n      \"lengths\": {:?},\n      \"bucket_edges\": {:?},\n      \"fifo\": {{\"padding_efficiency\": {:.4}, \"tokens_per_sec\": {:.1}}},\n      \"bucketed\": {{\"padding_efficiency\": {:.4}, \"tokens_per_sec\": {:.1}}},\n      \"padding_efficiency_gain\": {:.4}\n    }},\n",
            cfg.lengths,
            cfg.bucket_edges,
            fifo_eff,
            fifo_m.tokens_per_sec,
            bucketed_eff,
            bucketed_m.tokens_per_sec,
            bucketed_eff / fifo_eff,
        ));
        section.push_str(&format!(
            "    \"sustained\": {{\n      \"requests\": {},\n      \"in_flight\": [\n",
            cfg.sustained_requests
        ));
        for (i, run) in sustained.iter().enumerate() {
            section.push_str(&format!(
                "        {{\"max_in_flight\": {}, \"tokens_per_sec\": {:.1}, \"wall_s\": {:.3}}}{}\n",
                run.max_in_flight,
                run.tokens_per_sec,
                run.wall_s,
                if i + 1 == sustained.len() { "" } else { "," }
            ));
        }
        section.push_str(&format!(
            "      ],\n      \"metrics_bytes_steady\": {},\n      \"sketch_capacity\": {},\n      \"overload\": {{\"watermark_depth\": {}, \"submitted\": {}, \"rejected\": {}, \"served_ok\": {}, \"reject_rate\": {:.4}, \"recovered\": {}}}\n    }},\n",
            sustained[0].metrics_bytes,
            sustained[0].sketch_capacity,
            overload.watermark,
            overload.submitted,
            overload.rejected,
            overload.served_ok,
            overload.rejected as f64 / overload.submitted as f64,
            overload.recovered,
        ));
        section.push_str(&format!(
            "    \"sharded\": {{\n      \"replicas\": {},\n      \"requests\": {},\n      \"routed\": {:?},\n      \"balance\": {:.4},\n      \"tokens_per_sec\": {:.1},\n      \"failover\": {{\"recovery_ms\": {:.1}, \"all_served\": {}, \"recovered\": {}}}\n    }},\n",
            sharded.replicas,
            sharded.requests,
            sharded.routed,
            sharded.balance,
            sharded.tokens_per_sec,
            sharded.recovery_ms,
            sharded.all_served,
            sharded.recovered,
        ));
        section.push_str(&format!(
            "    \"decode\": {{\n      \"streams\": {},\n      \"max_new\": {},\n      \"max_seq\": {},\n      \"contexts\": [\n",
            cfg.decode_streams,
            cfg.decode_max_new,
            (cfg.decode_contexts.iter().max().expect("non-empty sweep") + cfg.decode_max_new)
                .max(cfg.model.max_seq),
        ));
        for (i, run) in decode_runs.iter().enumerate() {
            section.push_str(&format!(
                "        {{\"context\": {}, \"tokens_per_sec\": {:.1}, \"decode_steps_per_sec\": {:.1}, \"inter_token_p50_ms\": {:.3}, \"inter_token_p95_ms\": {:.3}, \"batch_width\": {:.2}, \"wall_s\": {:.3}}}{}\n",
                run.context,
                run.tokens_per_sec,
                run.steps_per_sec,
                run.inter_p50_ms,
                run.inter_p95_ms,
                run.batch_width,
                run.wall_s,
                if i + 1 == decode_runs.len() { "" } else { "," }
            ));
        }
        section.push_str("      ],\n      \"mix\": [\n");
        for (i, run) in mix_runs.iter().enumerate() {
            section.push_str(&format!(
                "        {{\"encodes\": {}, \"generations\": {}, \"tokens_per_sec\": {:.1}, \"decode_steps_per_sec\": {:.1}, \"wall_s\": {:.3}}}{}\n",
                run.encodes,
                run.generations,
                run.tokens_per_sec,
                run.steps_per_sec,
                run.wall_s,
                if i + 1 == mix_runs.len() { "" } else { "," }
            ));
        }
        section.push_str("      ]\n    },\n");
        section.push_str(&format!(
            "    \"codebook\": {{\n      \"bake_s\": {:.3},\n      \"table_mib\": {:.3},\n      \"tokens_per_sec_f32\": {:.1},\n      \"tokens_per_sec\": {:.1},\n      \"speedup_vs_f32\": {:.4},\n      \"rel_err_vs_f32\": {:.5}\n    }},\n",
            codebook.bake_s,
            codebook.table_mib,
            codebook.tokens_per_sec_f32,
            codebook.tokens_per_sec,
            codebook.speedup_vs_f32,
            codebook.rel_err_vs_f32,
        ));
        section.push_str(&format!(
            "    \"trace_overhead\": {{\n      \"runs\": {},\n      \"requests\": {},\n      \"tokens_per_sec_off\": {:.1},\n      \"tokens_per_sec_on\": {:.1},\n      \"overhead_pct\": {:.2},\n      \"recorder_capacity\": {},\n      \"recorder_bytes\": {}\n    }}\n  }}",
            trace_overhead.runs,
            cfg.sustained_requests,
            trace_overhead.tokens_per_sec_off,
            trace_overhead.tokens_per_sec_on,
            trace_overhead.overhead_pct,
            trace_overhead.recorder_capacity,
            trace_overhead.recorder_bytes,
        ));
        if let Some(path) = &out_path {
            std::fs::write(path, format!("{}\n", section.trim_start()))
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("\nwrote this run's serve section to {path}");
        }
        if cfg.write_json {
            let existing = std::fs::read_to_string("BENCH_lut_eval.json").unwrap_or_default();
            let json = upsert_json_key(&existing, "serve", &section);
            std::fs::write("BENCH_lut_eval.json", &json).expect("write BENCH_lut_eval.json");
            println!("wrote serve section of BENCH_lut_eval.json");
        } else {
            println!("--quick: smoke run, BENCH_lut_eval.json untouched");
        }
    }

    // Regression guard *after* the ledger write, so a failing comparison
    // still leaves the measurements on disk (and fails CI's --quick run).
    assert!(
        bucketed_eff >= fifo_eff,
        "bucketed admission must not pad more than FIFO on the mixed workload \
         (bucketed {bucketed_eff:.3} < fifo {fifo_eff:.3})"
    );
    for run in &decode_runs {
        assert!(
            run.tokens_per_sec > 0.0 && run.inter_p50_ms > 0.0,
            "decode @ context {}: degenerate measurement",
            run.context
        );
        assert!(
            run.inter_p95_ms >= run.inter_p50_ms,
            "decode @ context {}: p95 {:.3} ms below p50 {:.3} ms",
            run.context,
            run.inter_p95_ms,
            run.inter_p50_ms
        );
    }
}
