//! **T2A** — Table 2(a) reproduction: direct approximation on the FP32
//! RoBERTa-like body across eight synthetic GLUE-like tasks.
//!
//! Grid: Baseline / Linear-LUT / NN-LUT, each LUT method applied to
//! GELU only, Softmax only, LayerNorm only, and Altogether. Input scaling
//! is applied to both LUT methods for LayerNorm, exactly as in the paper.
//!
//! Run: `cargo run --release -p nnlut-bench --bin table2a_glue_direct`

use nnlut_bench::{fmt_header, fmt_row, linear_kit, mean, paper_kit};
use nnlut_transformer::eval::{BenchConfig, TaskBench};
use nnlut_transformer::tasks::GlueTask;
use nnlut_transformer::Nonlinearity;

fn main() {
    println!("== Table 2(a): direct approximation on FP32 RoBERTa-like body ==");
    println!("   (synthetic GLUE-like tasks; see nnlut_transformer::tasks for the substitution)\n");

    let nn = paper_kit();
    let lin = linear_kit();
    let cfg = BenchConfig::default();

    let benches: Vec<TaskBench> = GlueTask::ALL
        .iter()
        .map(|&t| {
            eprintln!("building frozen model for {t} …");
            TaskBench::new(t, &cfg)
        })
        .collect();

    let names: Vec<&str> = GlueTask::ALL.iter().map(|t| t.name()).collect();
    let mut header_names = names.clone();
    header_names.push("Avg");
    println!("{}", fmt_header("Method", &header_names));

    let emit = |label: &str, nl: &Nonlinearity| {
        let scores: Vec<f32> = benches.iter().map(|b| b.score(nl)).collect();
        let mut cells = scores.clone();
        cells.push(mean(&scores));
        println!("{}", fmt_row(label, &cells));
    };

    emit("Baseline", &Nonlinearity::exact());
    println!("Linear-LUT(FP32)");
    emit("  GELU only", &Nonlinearity::gelu_only(&lin));
    emit("  Softmax only", &Nonlinearity::softmax_only(&lin));
    emit("  LayerNorm only", &Nonlinearity::layernorm_only(&lin));
    emit("  Altogether", &Nonlinearity::all_lut(&lin));
    println!("NN-LUT(FP32)");
    emit("  GELU only", &Nonlinearity::gelu_only(&nn));
    emit("  Softmax only", &Nonlinearity::softmax_only(&nn));
    emit("  LayerNorm only", &Nonlinearity::layernorm_only(&nn));
    emit("  Altogether", &Nonlinearity::all_lut(&nn));

    println!("\nPaper shape to check: NN-LUT rows ≈ Baseline on every task;");
    println!("Linear-LUT degrades, with its worst rows involving LayerNorm.");
}
