//! The CI gate on both committed ledgers.
//!
//! The kernel ledger `BENCH_lut_eval.json` (written by `bench_lut_eval`)
//! goes through [`nnlut_bench::kernels::check_ledger`]: the shared shape
//! gate on its four sections, then the kernel claims (speedup floors at
//! an AVX2 recording, the codebook error ceiling and frontier). The paper
//! ledger `BENCH_paper.json` (written by a full `paper` run) is read from
//! beside it and must hold every section, each value a finite number
//! ([`nnlut_bench::paper::check_ledger`]). Both gates are library code,
//! tested with the crate.
//!
//! Serving throughput and latency are measured by the end-to-end
//! benchmark (`benchmark/`, declared by `BENCHMARK.json`); the serving
//! layer's deterministic properties are pinned by tests.
//!
//! Usage (CI runs exactly this):
//!
//! ```text
//! cargo run --release -p nnlut-bench --bin bench_check
//! ```
//!
//! Flag: `--ledger <path>` (default `BENCH_lut_eval.json`); the paper
//! ledger is `BENCH_paper.json` in the same directory. Exits non-zero
//! listing every violated check.

use nnlut_bench::paper::{self, SECTIONS};
use nnlut_bench::{kernels, Gate, Json};

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read the ledger at {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("the ledger at {path} is not valid JSON: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ledger_path = match args.iter().position(|a| a == "--ledger") {
        Some(i) => args.get(i + 1).expect("--ledger takes a value").clone(),
        None => "BENCH_lut_eval.json".to_string(),
    };
    let paper_path = std::path::Path::new(&ledger_path).with_file_name("BENCH_paper.json");

    let mut gate = Gate::default();
    kernels::check_ledger(&mut gate, &load(&ledger_path));
    paper::check_ledger(&mut gate, &load(&paper_path.to_string_lossy()), SECTIONS);

    if gate.failures.is_empty() {
        println!("bench_check: all {} checks passed", gate.checks());
    } else {
        let (failed, checks) = (gate.failures.len(), gate.checks());
        println!("bench_check: {failed} of {checks} checks FAILED");
        std::process::exit(1);
    }
}
