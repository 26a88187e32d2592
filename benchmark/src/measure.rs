//! Numbers from a driven run: the end-to-end metrics, and the per-layer
//! metrics the serving layers' own counters and the request traces give.

use std::time::{Duration, Instant};

use nnlut_core::{OpKind, OpProfile};
use nnlut_serve::{CloseReason, ReplicaStatus, ServeMetrics, ShardMetrics, Stage};

use crate::drive::{Done, Driven, Source};
use crate::stats::percentile;

/// `(name, value, unit)` rows, in print order.
pub type Metrics = Vec<(String, f64, &'static str)>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn pct(xs: &[f64], p: f64) -> f64 {
    percentile(xs, p).unwrap_or(f64::NAN)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Share of the interval `[s, e]` inside `[lo, hi]`.
fn share_inside(s: Instant, e: Instant, lo: Instant, hi: Instant) -> f64 {
    if e <= s {
        return f64::from(u8::from((lo..=hi).contains(&e)));
    }
    e.min(hi).saturating_duration_since(s.max(lo)).as_secs_f64() / (e - s).as_secs_f64()
}

/// The saturated fleet's throughput over the window: generated tokens
/// per second where the workload generates, else encoded tokens per
/// second. Each token is credited pro rata to the part of the interval
/// that produced it lying inside the window — an encode's tokens over its
/// batch's compute interval, a generated token over the time since the
/// sequence's previous token (or since it was sent) — so a window edge
/// cutting through a one-second batch does not swing the figure by a
/// whole batch.
pub fn tok_s(driven: &Driven) -> f64 {
    let (lo, hi) = (driven.start, driven.end);
    let generates = driven.done.iter().any(|d| d.source == Source::Generate);
    let mut tokens = 0.0f64;
    for d in driven.done.iter().filter(|d| d.ok) {
        match d.source {
            Source::Encode if !generates => {
                if let Some((s, e)) = d.compute() {
                    tokens += d.tokens as f64 * share_inside(s, e, lo, hi);
                }
            }
            Source::Generate => {
                let mut prev = d.sent;
                for e in d.emissions() {
                    tokens += share_inside(prev, e, lo, hi);
                    prev = e;
                }
            }
            Source::Encode => {}
        }
    }
    tokens / (hi - lo).as_secs_f64()
}

/// Latencies of `source`'s requests in ms, each from its scheduled send
/// time to its ticket resolving (a generation's after its last token).
pub fn latencies(done: &[Done], source: Source) -> Vec<f64> {
    done.iter()
        .filter(|d| d.ok && d.source == source)
        .filter_map(|d| d.completed().map(|c| ms(c - d.due)))
        .collect()
}

/// `(time to first token from scheduled send, gaps between tokens)`, ms.
pub fn generation_latencies(done: &[Done]) -> (Vec<f64>, Vec<f64>) {
    let (mut ttft, mut itl) = (Vec::new(), Vec::new());
    for d in done.iter().filter(|d| d.ok && d.source == Source::Generate) {
        let e = d.emissions();
        if let Some(first) = e.first() {
            ttft.push(ms(*first - d.due));
        }
        itl.extend(e.windows(2).map(|w| ms(w[1] - w[0])));
    }
    (ttft, itl)
}

/// How late the load generator sent each request, ms.
pub fn lateness(done: &[Done]) -> Vec<f64> {
    done.iter()
        .map(|d| ms(d.sent.saturating_duration_since(d.due)))
        .collect()
}

/// Per-request time attributed to `stage` (the interval before each of
/// its events, summed over a generation's steps), ms.
fn stage_ms(done: &[Done], stage: Stage) -> Vec<f64> {
    done.iter()
        .filter(|d| d.ok)
        .map(|d| {
            let (mut prev, mut total) = (Duration::ZERO, Duration::ZERO);
            for e in &d.events {
                if e.stage == stage {
                    total += e.at.saturating_sub(prev);
                }
                prev = e.at;
            }
            ms(total)
        })
        .collect()
}

/// The live run's per-layer metrics: the batcher's and async server's
/// own counters, the shard's routing, the op-profiling sink's totals and
/// the generator's lateness.
pub fn live_layers(
    driven: &Driven,
    serve: &ServeMetrics,
    status: &[ReplicaStatus],
    shard: &ShardMetrics,
    lut: &OpProfile,
) -> Metrics {
    let mut m: Metrics = Vec::new();
    let qw = |p| serve.queue_wait_percentile(p).map_or(f64::NAN, ms);
    m.push(("batcher.queue_wait_p50_ms".into(), qw(50.0), "ms"));
    m.push(("batcher.queue_wait_p95_ms".into(), qw(95.0), "ms"));
    m.push((
        "batcher.padding_eff".into(),
        serve.padding_efficiency(),
        "ratio",
    ));
    let batches = serve.batches_served().max(1) as f64;
    m.push((
        "batcher.seqs_per_batch".into(),
        serve.total_sequences() as f64 / batches,
        "seq",
    ));
    // Zero where nothing decodes (the encode workloads).
    let decode_width = if serve.decode_batches() > 0 {
        serve.decode_batch_width()
    } else {
        0.0
    };
    m.push(("batcher.decode_width".into(), decode_width, "seq"));
    let closes = (serve.batches_served() + serve.decode_batches()).max(1) as f64;
    m.push((
        "batcher.aged_frac".into(),
        serve.closes_for(CloseReason::Aged) as f64 / closes,
        "ratio",
    ));

    let stage = |s, p| pct(&stage_ms(&driven.done, s), p);
    m.push((
        "async.dispatch_wait_p95_ms".into(),
        stage(Stage::Dispatched, 95.0),
        "ms",
    ));
    m.push((
        "async.encode_p50_ms".into(),
        stage(Stage::Encoded, 50.0),
        "ms",
    ));
    m.push((
        "async.reorder_p95_ms".into(),
        stage(Stage::Reordered, 95.0),
        "ms",
    ));

    let routed = status.iter().map(|s| s.routed);
    let (lo, hi) = (routed.clone().min().unwrap_or(0), routed.max().unwrap_or(0));
    m.push((
        "shard.balance".into(),
        lo as f64 / hi.max(1) as f64,
        "ratio",
    ));
    m.push(("shard.requeues".into(), shard.failovers as f64, "count"));
    m.push(("shard.stalls".into(), shard.stalls as f64, "count"));

    let per = |k: OpKind| {
        let s = lut.get(k);
        s.nanos as f64 / s.rows.max(1) as f64
    };
    m.push(("lut.softmax_ns_row".into(), per(OpKind::Softmax), "ns/row"));
    m.push(("lut.gelu_ns_elem".into(), per(OpKind::Gelu), "ns/elem"));
    m.push((
        "lut.layernorm_ns_row".into(),
        per(OpKind::LayerNorm),
        "ns/row",
    ));
    // Busy time: encode/prefill batches plus decode batches, both replicas.
    let decode_s = if serve.decode_steps_per_sec() > 0.0 {
        serve.decode_steps() as f64 / serve.decode_steps_per_sec()
    } else {
        0.0
    };
    let busy_ns = (serve.total_latency().as_secs_f64() + decode_s) * 1e9;
    m.push((
        "lut.share".into(),
        lut.total_elapsed().as_nanos() as f64 / busy_ns,
        "ratio",
    ));
    m.push((
        "bench.late_p95_ms".into(),
        pct(&lateness(&driven.done), 95.0),
        "ms",
    ));
    m
}
