//! # nnlut-bench
//!
//! The benchmark harness regenerating every table and figure of the NN-LUT
//! paper, one binary per artifact (see `src/bin/`). Kernel timings are
//! recorded only by `bench_lut_eval` into the `BENCH_lut_eval.json` ledger,
//! which `bench_check` gates; docs/ARCHITECTURE.md maps the crates.
//!
//! This library crate holds the pieces the binaries share: paper-config kit
//! construction, the RoBERTa bench shape, small table-formatting helpers,
//! and the [`Json`] ledger reader that `bench_check` and the end-to-end
//! benchmark (`benchmark/`) use.

use nnlut_core::linear_lut::BreakpointMode;
use nnlut_core::train::TrainConfig;
use nnlut_core::NnLutKit;
use nnlut_transformer::TransformerConfig;

pub mod json;
pub use json::Json;

/// The seed all reproduction binaries use for kit training.
pub const KIT_SEED: u64 = 20220712;

/// Encoder depth of the RoBERTa-shaped bench model: base shapes with the
/// layer count cut to 2, so a run finishes in well under a minute on one
/// core. Tokens/sec scales ~1/layers, so depth doesn't change which op
/// dominates.
pub const ROBERTA_BENCH_LAYERS: usize = 2;

/// Sequence length shared by every RoBERTa-shaped bench workload: the
/// lut-eval layer shapes and the codebook section's row count both
/// derive from this one constant.
pub const ROBERTA_BENCH_SEQ: usize = 128;

/// The single source of the benches' RoBERTa-base model shapes
/// ([`ROBERTA_BENCH_LAYERS`] deep, [`ROBERTA_BENCH_SEQ`] tokens).
/// `bench_lut_eval` and the end-to-end benchmark (`benchmark/`) both
/// call this, so the `simd` ledger section and the benchmark always
/// describe the same model.
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

/// Deterministic GELU-domain inputs the `bench_lut_eval` trajectory bin
/// times, so every ledger re-record measures the same workload.
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

#[cfg(test)]
mod tests {
    use super::*;

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
