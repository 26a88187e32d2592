//! # nnlut-bench
//!
//! The benchmark harness regenerating every table and figure of the NN-LUT
//! paper. One binary per artifact (see `src/bin/`), plus Criterion
//! micro-benchmarks (see `benches/`). DESIGN.md §4 maps each paper
//! artifact to its binary; EXPERIMENTS.md records paper-vs-measured.
//!
//! This library crate holds the pieces the binaries share: paper-config kit
//! construction and small table-formatting helpers.

use nnlut_core::linear_lut::BreakpointMode;
use nnlut_core::train::TrainConfig;
use nnlut_core::NnLutKit;
use nnlut_transformer::TransformerConfig;

pub mod json;
pub use json::Json;

/// The seed all reproduction binaries use for kit training.
pub const KIT_SEED: u64 = 20220712;

/// Encoder depth of the RoBERTa-shaped serving benchmark: base shapes
/// with the layer count cut to 2, so a full sweep finishes in well under
/// a minute on one core. Tokens/sec scales ~1/layers and every gated
/// quantity is a ratio, so depth doesn't move the numbers under test.
pub const ROBERTA_BENCH_LAYERS: usize = 2;

/// Sequence length shared by every RoBERTa-shaped bench workload: the
/// serve sweep's `max_seq`, the lut-eval layer shapes and the codebook
/// section's row count all derive from this one constant.
pub const ROBERTA_BENCH_SEQ: usize = 128;

/// The single source of the benches' RoBERTa-base model shapes
/// ([`ROBERTA_BENCH_LAYERS`] deep, [`ROBERTA_BENCH_SEQ`] tokens).
/// `bench_serve` and `bench_lut_eval` used to derive these independently
/// (and could silently drift apart); both now call this, so the `serve`
/// and `simd` ledger sections always describe the same model.
pub fn roberta_bench_config() -> TransformerConfig {
    TransformerConfig {
        layers: ROBERTA_BENCH_LAYERS,
        max_seq: ROBERTA_BENCH_SEQ,
        ..TransformerConfig::roberta_base()
    }
}

/// Trains the standard 16-entry NN-LUT kit with the paper's full training
/// configuration (100 K samples, Adam @ 1e-3 multi-step, L1).
pub fn paper_kit() -> NnLutKit {
    NnLutKit::train_with(16, KIT_SEED, &TrainConfig::paper())
}

/// Builds the 16-entry Linear-LUT baseline kit (equally spaced breakpoints,
/// least-squares segment fits).
pub fn linear_kit() -> NnLutKit {
    NnLutKit::linear_baseline(16)
}

/// Builds the exponential-mode Linear-LUT kit (log-spaced breakpoints) for
/// the AB-BP ablation.
pub fn exponential_kit() -> NnLutKit {
    NnLutKit::linear_baseline_with_mode(16, BreakpointMode::Exponential)
}

/// Formats one numeric table row: a left-aligned label and fixed-width
/// columns with one decimal.
pub fn fmt_row(label: &str, values: &[f32]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:>7.1}")).collect();
    format!("{label:<28}{}", cells.join(" "))
}

/// Formats a header row to match [`fmt_row`] alignment.
pub fn fmt_header(label: &str, names: &[&str]) -> String {
    let cells: Vec<String> = names.iter().map(|n| format!("{n:>7}")).collect();
    format!("{label:<28}{}", cells.join(" "))
}

/// Deterministic GELU-domain inputs shared by the `batch_eval` criterion
/// bench and the `bench_lut_eval` trajectory bin, so the two measurement
/// paths always time the same workload.
pub fn gelu_inputs(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 37) % 1024) as f32 / 64.0 - 8.0)
        .collect()
}

/// Deterministic EXP-domain inputs; see [`gelu_inputs`].
pub fn exp_inputs(n: usize) -> Vec<f32> {
    (0..n).map(|i| -(((i * 53) % 4096) as f32) / 16.0).collect()
}

/// Mean of a slice (benchmark summary columns).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Inserts or replaces one top-level key of a JSON object file, preserving
/// every other key's text verbatim.
///
/// `BENCH_lut_eval.json` is written by two bins (`bench_lut_eval` owns
/// `results`, `bench_serve` owns `serve`), and the offline workspace has
/// no serde — so each bin updates only its own section through this
/// helper. `rendered` must be the value's JSON text (object, array, …).
/// If `text` is empty/blank, a fresh `{}` object is assumed.
///
/// This is not a JSON parser: it only tracks brace/bracket depth and
/// string escapes well enough to find top-level `"key":` spans, which is
/// all the flat schemas in this repo need.
///
/// # Panics
///
/// Panics if `text` is not a `{ … }` object.
pub fn upsert_json_key(text: &str, key: &str, rendered: &str) -> String {
    let trimmed = text.trim();
    let body = if trimmed.is_empty() {
        ""
    } else {
        assert!(
            trimmed.starts_with('{') && trimmed.ends_with('}'),
            "not a JSON object"
        );
        trimmed[1..trimmed.len() - 1].trim()
    };
    // Split the object body into top-level `"key": value` spans.
    let mut entries: Vec<(String, String)> = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in body.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                // A stray closer means the file is corrupt (e.g. a
                // truncated earlier write): fail loudly rather than
                // mis-split entries and write a mangled file.
                depth = depth.checked_sub(1).expect("brace-imbalanced JSON object");
            }
            ',' if depth == 0 => {
                push_entry(&mut entries, &body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    assert!(depth == 0 && !in_str, "truncated JSON object");
    push_entry(&mut entries, &body[start..]);
    let normalized = rendered.trim().to_string();
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = normalized,
        None => entries.push((key.to_string(), normalized)),
    }
    let mut out = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push_str(&format!("  \"{k}\": {v}"));
        out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

fn push_entry(entries: &mut Vec<(String, String)>, span: &str) {
    let span = span.trim();
    if span.is_empty() {
        return;
    }
    let (key_part, value) = span
        .split_once(':')
        .expect("top-level entry has a `key: value` shape");
    let key = key_part.trim().trim_matches('"').to_string();
    entries.push((key, value.trim().to_string()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_preserves_other_sections() {
        let original = "{\n  \"bench\": \"lut_eval\",\n  \"results\": [\n    {\"a\": 1, \"b\": [2, 3]},\n    {\"a\": 4}\n  ]\n}\n";
        let updated = upsert_json_key(original, "serve", "{\"tokens_per_sec\": 123.4}");
        assert!(updated.contains("\"bench\": \"lut_eval\""));
        assert!(updated.contains("{\"a\": 1, \"b\": [2, 3]}"));
        assert!(updated.contains("\"serve\": {\"tokens_per_sec\": 123.4}"));
        // Replacing an existing key keeps one copy.
        let replaced = upsert_json_key(&updated, "serve", "{\"tokens_per_sec\": 99.0}");
        assert_eq!(replaced.matches("\"serve\"").count(), 1);
        assert!(replaced.contains("99.0"));
        assert!(!replaced.contains("123.4"));
        // And the result stays machine-updatable.
        let again = upsert_json_key(&replaced, "bench", "\"lut_eval\"");
        assert_eq!(again.matches("\"bench\"").count(), 1);
    }

    #[test]
    fn upsert_starts_from_empty() {
        let out = upsert_json_key("", "serve", "{}");
        assert_eq!(out, "{\n  \"serve\": {}\n}\n");
    }

    #[test]
    fn upsert_handles_colons_and_commas_inside_strings() {
        let original = "{\n  \"note\": \"a, b: c\"\n}\n";
        let out = upsert_json_key(original, "x", "1");
        assert!(out.contains("\"note\": \"a, b: c\""));
        assert!(out.contains("\"x\": 1"));
    }

    #[test]
    fn formatting_helpers() {
        let row = fmt_row("Baseline", &[87.5, 79.4]);
        assert!(row.starts_with("Baseline"));
        assert!(row.contains("87.5"));
        let head = fmt_header("Method", &["MRPC", "RTE"]);
        assert!(head.contains("MRPC"));
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
