//! # nnlut-bench
//!
//! The benchmark harness regenerating every table and figure of the NN-LUT
//! paper. Two binaries write ledgers and one gates them
//! (docs/ARCHITECTURE.md maps the crates):
//!
//! * `paper` computes every reproduced artifact (Fig. 2, Tables 2–5, the
//!   §4.1 ablations and two extensions) as one [`Table`] type, prints
//!   them, and records a full run in `BENCH_paper.json`;
//! * `bench_lut_eval` times the LUT kernels into the [`kernels`] tables,
//!   prints them and records them in `BENCH_lut_eval.json`;
//! * `bench_check` gates both committed ledgers.
//!
//! This library crate holds the pieces the binaries share: paper-config kit
//! construction, the RoBERTa bench shape, the one [`Table`] type with its
//! [`paper`] ledger writer, cell reader and shape gate, the [`kernels`]
//! ledger's tables and claim gates, and the [`Json`] reader that
//! `bench_check` and the end-to-end benchmark (`benchmark/`) use.

use nnlut_core::train::TrainConfig;
use nnlut_core::NnLutKit;
use nnlut_transformer::TransformerConfig;

pub mod json;
pub mod kernels;
pub mod paper;
pub use json::Json;
pub use paper::{Column, Gate, Row, Table};

/// The seed every paper reproduction uses for kit training.
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
/// call this, so the kernel ledger and the benchmark always describe the
/// same model.
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

/// Deterministic GELU-domain inputs the `bench_lut_eval` binary times,
/// so every ledger re-record measures the same workload.
pub fn gelu_inputs(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 37) % 1024) as f32 / 64.0 - 8.0)
        .collect()
}

/// Deterministic EXP-domain inputs; see [`gelu_inputs`].
pub fn exp_inputs(n: usize) -> Vec<f32> {
    (0..n).map(|i| -(((i * 53) % 4096) as f32) / 16.0).collect()
}
