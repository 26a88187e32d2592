//! Ops-plane HTTP integration: `/metrics` speaks well-formed Prometheus
//! text exposition with stable metric names and agrees with the
//! in-process metrics snapshots, `/healthz` carries
//! uptime/version/transition fields, and `/trace` + `/incident`
//! round-trip the flight recorder.
//!
//! The Prometheus parser here is deliberately minimal — exactly the
//! lexical rules a scraper relies on — so a malformed line or a renamed
//! metric fails the build, not the dashboard.

use std::collections::HashMap;
use std::time::Duration;

use nn_lut::core::train::TrainConfig;
use nn_lut::core::NnLutKit;
use nn_lut::serve::{
    http, ServeError, ServePolicy, ShardConfig, ShardedServer, TraceConfig,
    DEFAULT_RECORDER_CAPACITY,
};
use nn_lut::transformer::{BertModel, TransformerConfig};

/// One `name{labels} value` sample line.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: String,
    value: f64,
}

fn is_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses a Prometheus text-exposition body, asserting well-formedness:
/// every line is a HELP/TYPE comment or a sample, names are legal, TYPE
/// kinds are known, values parse as finite floats, and every sample is
/// preceded by a TYPE declaration for its family.
fn parse_prometheus(body: &str) -> (Vec<Sample>, HashMap<String, String>) {
    let mut samples = Vec::new();
    let mut types: HashMap<String, String> = HashMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP names a metric");
            assert!(is_metric_name(name), "bad HELP name: {line}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a metric");
            let kind = parts.next().expect("TYPE states a kind");
            assert!(is_metric_name(name), "bad TYPE name: {line}");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ),
                "unknown TYPE kind: {line}"
            );
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");
        // Sample: name[{labels}] value
        let (name_part, value_part) = match line.find('{') {
            Some(brace) => {
                let close = line.rfind('}').expect("unclosed label set: {line}");
                assert!(close > brace, "malformed labels: {line}");
                let labels = &line[brace + 1..close];
                for pair in labels.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').expect("label without '='");
                    assert!(is_metric_name(k), "bad label key in: {line}");
                    assert!(
                        v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                        "unquoted label value in: {line}"
                    );
                }
                (
                    format!("{}{{{labels}}}", &line[..brace]),
                    line[close + 1..].trim(),
                )
            }
            None => {
                let (name, value) = line.split_once(' ').expect("sample without value");
                (name.to_string(), value.trim())
            }
        };
        let bare = name_part.split('{').next().expect("non-empty").to_string();
        let labels = name_part
            .split_once('{')
            .map(|(_, l)| l.trim_end_matches('}').to_string())
            .unwrap_or_default();
        assert!(is_metric_name(&bare), "bad sample name: {line}");
        let value: f64 = value_part
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        assert!(value.is_finite(), "non-finite sample: {line}");
        // Summary child lines (`_sum`/`_count`) belong to their family.
        let family = bare
            .strip_suffix("_sum")
            .or_else(|| bare.strip_suffix("_count"))
            .filter(|f| types.contains_key(*f))
            .unwrap_or(&bare)
            .to_string();
        assert!(
            types.contains_key(&family),
            "sample without a TYPE declaration: {line}"
        );
        samples.push(Sample {
            name: bare,
            labels,
            value,
        });
    }
    (samples, types)
}

fn sample(samples: &[Sample], name: &str, labels_contains: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.contains(labels_contains))
        .unwrap_or_else(|| panic!("no sample {name} with labels containing {labels_contains:?}"))
        .value
}

/// Pulls `"key":<integer>` out of a flat JSON body (enough for the
/// hand-written `/trace` format).
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-integer {key}"))
}

#[test]
fn prometheus_exposition_is_well_formed_and_consistent_with_snapshots() {
    let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9);
    let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
    let mut config = ShardConfig {
        replicas: 2,
        // Admits the traffic below, which never holds more than 21
        // tokens at once; a 48-token request is rejected at the door.
        admission: ServePolicy::with_max_queued_tokens(32),
        ..ShardConfig::default()
    };
    config.replica.trace = TraceConfig::enabled();
    let server = ShardedServer::new(model, kit, config);
    let tickets: Vec<_> = (1..=6).map(|n| server.submit(vec![2; n])).collect();
    for t in tickets {
        t.wait().expect("no faults, no deadline");
    }
    // One generation, so the decode-plane families carry real traffic.
    let gen = server.submit_generate(vec![3, 1, 4], 4, None);
    let generated = gen.wait().expect("no faults, no deadline");
    assert_eq!(generated.tokens.len(), 4);
    let handle = server.serve_http("127.0.0.1:0").expect("ephemeral bind");

    // --- /metrics: Prometheus text exposition ---
    let (status, text) = http::get(handle.addr(), "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    let (samples, types) = parse_prometheus(&text);
    assert!(!samples.is_empty());
    // The stable-name contract: dashboards key on these.
    for name in [
        "nnlut_serve_uptime_seconds",
        "nnlut_serve_batches_total",
        "nnlut_serve_sequences_total",
        "nnlut_serve_tokens_total",
        "nnlut_serve_tokens_per_second",
        "nnlut_serve_padding_efficiency",
        "nnlut_serve_batch_latency_seconds",
        "nnlut_serve_stage_seconds",
        "nnlut_serve_decode_batches_total",
        "nnlut_serve_decode_steps_total",
        "nnlut_serve_generated_tokens_total",
        "nnlut_serve_generations_completed_total",
        "nnlut_serve_decode_batch_width",
        "nnlut_serve_inter_token_seconds",
        "nnlut_shard_submitted_total",
        "nnlut_shard_completed_total",
        "nnlut_shard_generations_total",
        "nnlut_shard_cache_rebuilds_total",
        "nnlut_serve_replica_health",
        "nnlut_op_calls_total",
        "nnlut_serve_recorder_events_total",
    ] {
        assert!(types.contains_key(name), "missing metric family {name}");
    }
    // The generation's traffic shows up in the decode families.
    assert_eq!(
        sample(&samples, "nnlut_serve_generated_tokens_total", "") as u64,
        4
    );
    assert_eq!(
        sample(&samples, "nnlut_serve_generations_completed_total", "") as u64,
        1
    );
    assert!(sample(&samples, "nnlut_serve_decode_steps_total", "") >= 3.0);
    assert_eq!(
        sample(&samples, "nnlut_shard_generations_total", "") as u64,
        1
    );
    assert_eq!(
        sample(&samples, "nnlut_shard_cache_rebuilds_total", "") as u64,
        0
    );
    assert_eq!(types["nnlut_serve_batches_total"], "counter");
    assert_eq!(types["nnlut_serve_stage_seconds"], "summary");
    // Per-replica gauges: both replicas healthy (0).
    assert_eq!(
        sample(&samples, "nnlut_serve_replica_health", "replica=\"0\""),
        0.0
    );
    assert_eq!(
        sample(&samples, "nnlut_serve_replica_health", "replica=\"1\""),
        0.0
    );
    // Stage summaries carry quantile labels and a count for the happy path.
    assert!(
        sample(
            &samples,
            "nnlut_serve_stage_seconds",
            "stage=\"resolved\",quantile=\"0.5\""
        ) >= 0.0
    );
    // 6 encodes + 1 generation all resolved.
    assert_eq!(
        sample(
            &samples,
            "nnlut_serve_stage_seconds_count",
            "stage=\"resolved\""
        ) as u64,
        7
    );
    // The generation's per-token events use the decoded stage.
    assert!(
        sample(
            &samples,
            "nnlut_serve_stage_seconds_count",
            "stage=\"decoded\""
        ) >= 1.0
    );
    // The op profile saw real kernel traffic.
    assert!(sample(&samples, "nnlut_op_calls_total", "op=\"softmax\"") > 0.0);

    // --- /metrics agrees with the in-process snapshots ---
    // Every request resolved before the scrape, so both are quiescent.
    let merged = server.metrics();
    let shard = server.shard_metrics();
    assert_eq!(
        sample(&samples, "nnlut_serve_batches_total", "") as u64,
        merged.batches_served(),
        "Prometheus and the in-process metrics must expose the same snapshot"
    );
    assert_eq!(
        sample(&samples, "nnlut_serve_tokens_total", "") as usize,
        merged.total_tokens()
    );
    assert_eq!(
        sample(&samples, "nnlut_shard_submitted_total", "") as u64,
        7
    );
    assert_eq!(shard.submitted, 7);
    assert_eq!(
        sample(&samples, "nnlut_shard_completed_total", "") as u64,
        shard.completed
    );
    assert_eq!(shard.completed, 7);

    // --- door events: only the shard door can count them ---
    let rejected = server.submit(vec![1; 48]).wait();
    assert!(matches!(rejected, Err(ServeError::Overloaded { .. })));
    let expired = server.submit_with_deadline(vec![1, 2], Some(Duration::ZERO));
    assert!(matches!(
        expired.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    let (status, text) = http::get(handle.addr(), "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    let (samples, types) = parse_prometheus(&text);
    assert_eq!(
        sample(&samples, "nnlut_shard_overload_rejections_total", ""),
        1.0
    );
    assert_eq!(
        sample(&samples, "nnlut_shard_deadline_misses_total", ""),
        1.0
    );
    assert!(
        !types.contains_key("nnlut_serve_overload_rejections_total"),
        "the replicas have no admission door to count"
    );

    // --- /healthz: uptime, version, per-replica transitions ---
    let (status, healthz) = http::get(handle.addr(), "/healthz").expect("GET /healthz");
    assert_eq!(status, 200);
    assert!(healthz.contains("\"status\":\"ok\""));
    assert!(
        healthz.contains("\"uptime_ms\":"),
        "missing uptime: {healthz}"
    );
    assert!(
        healthz.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
        "missing crate version: {healthz}"
    );
    assert_eq!(
        healthz.matches("\"last_transition_ms\":").count(),
        2,
        "one transition stamp per replica: {healthz}"
    );

    // --- /trace: the flight-recorder ring ---
    let (status, trace) = http::get(handle.addr(), "/trace").expect("GET /trace");
    assert_eq!(status, 200);
    assert!(trace.contains("\"enabled\":true"));
    assert_eq!(
        json_u64(&trace, "capacity"),
        DEFAULT_RECORDER_CAPACITY as u64
    );
    assert!(
        trace.contains("\"kind\":\"batch-dispatched\""),
        "served batches must appear in the journal: {trace}"
    );

    // --- /incident: nothing tripped on a clean run ---
    let (status, incident) = http::get(handle.addr(), "/incident").expect("GET /incident");
    assert_eq!(status, 200);
    assert_eq!(incident.trim(), "{\"incident\":null}");
}

/// With tracing off (the default), the observability routes degrade
/// gracefully rather than 404ing.
#[test]
fn trace_routes_report_disabled_when_tracing_is_off() {
    let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9);
    let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
    let mut config = ShardConfig::default();
    config.replica.trace = TraceConfig::disabled();
    let server = ShardedServer::new(model, kit, config);
    let t = server.submit(vec![1, 2]);
    t.wait().expect("no faults");
    let handle = server.serve_http("127.0.0.1:0").expect("ephemeral bind");

    let (status, trace) = http::get(handle.addr(), "/trace").expect("GET /trace");
    assert_eq!(status, 200);
    assert!(trace.contains("\"enabled\":false"));
    let (status, incident) = http::get(handle.addr(), "/incident").expect("GET /incident");
    assert_eq!(status, 200);
    assert_eq!(incident.trim(), "{\"incident\":null}");
    // Prometheus still parses; the recorder/op families are simply absent.
    let (status, text) = http::get(handle.addr(), "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    let (_, types) = parse_prometheus(&text);
    assert!(!types.contains_key("nnlut_serve_recorder_events_total"));
    assert!(!types.contains_key("nnlut_op_calls_total"));
}
