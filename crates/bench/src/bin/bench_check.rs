//! The CI gate on both committed ledgers.
//!
//! The paper ledger `BENCH_paper.json` (written by a full `paper` run)
//! is read from beside the kernel ledger and must hold every section,
//! each value a finite number ([`nnlut_bench::paper::check_ledger`]).
//!
//! The kernel ledger `BENCH_lut_eval.json` (written by `bench_lut_eval`)
//! must still carry every section the repo's trajectory claims
//! (`results`, `simd`, `codebook`); a PR that drops or mangles a section
//! fails here, not months later. The `simd` kernel rows are gated at a
//! ≥ 1.5× scalar→AVX2 floor on the 64k-element gelu/exp workloads
//! (skipped with a note when the recording machine's kernel tier wasn't
//! AVX2). The `codebook` section gets the same treatment: every row's
//! relative error vs the exact FP32 GEMM is capped, the
//! accuracy-per-table-size frontier must slope the right way, and the
//! FFN-shape speedup floor carries the same recorded-level caveat as the
//! SIMD gate.
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

use nnlut_bench::paper::check_ledger as check_paper_ledger;
use nnlut_bench::{Gate, Json};

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read the ledger at {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("the ledger at {path} is not valid JSON: {e}"))
}

/// Checks that `path` is a non-empty array and returns it.
fn rows<'a>(gate: &mut Gate, ledger: &'a Json, path: &str) -> Option<&'a [Json]> {
    match ledger.path(path).and_then(Json::as_array) {
        Some(rows) if !rows.is_empty() => {
            gate.pass(format!("{path}: {} rows", rows.len()));
            Some(rows)
        }
        _ => {
            gate.fail(format!("{path}: missing or empty"));
            None
        }
    }
}

/// Checks that `path` is a string (a recorded kernel tier) and returns it.
fn level(gate: &mut Gate, ledger: &Json, path: &str) -> Option<String> {
    let level = ledger.path(path).and_then(Json::as_str);
    match level {
        Some(l) => gate.pass(format!("{path}: {l}")),
        None => gate.fail(format!("{path}: missing string")),
    }
    level.map(str::to_string)
}

/// A speedup floor that applies only to an AVX2 recording: at any other
/// recorded `level` the dispatched side is the scalar kernel itself, so
/// the floor would be meaningless and the check passes with a skip note.
fn avx2_floor(gate: &mut Gate, row: &str, speedup: Option<f64>, floor: f64, level: &str) {
    match speedup {
        Some(s) if level == "avx2" && s >= floor => gate.pass(format!("{row}: {s:.2}x ≥ {floor}x")),
        Some(s) if level == "avx2" => {
            gate.fail(format!("{row}: {s:.2}x below the {floor}x avx2 floor"))
        }
        Some(s) => gate.pass(format!(
            "{row}: {s:.2}x (floor skipped — level is `{level}`, not avx2)"
        )),
        None => gate.fail(format!("{row}: no such row")),
    }
}

/// The first row whose string `key` and numeric `n_key` match, and its
/// numeric `field`.
fn find(
    rows: &[Json],
    (key, name): (&str, &str),
    (n_key, n): (&str, f64),
    field: &str,
) -> Option<f64> {
    rows.iter().find_map(|row| {
        let hit = row.get(key).and_then(Json::as_str)? == name
            && row.get(n_key).and_then(Json::as_f64)? == n;
        hit.then(|| row.get(field).and_then(Json::as_f64))?
    })
}

/// Structural checks on the committed ledger: every trajectory section
/// the repo has earned must still be present and sane.
fn check_ledger(gate: &mut Gate, ledger: &Json) {
    println!("ledger integrity:");
    let results = rows(gate, ledger, "results").unwrap_or(&[]);
    for (i, row) in results.iter().enumerate() {
        let speedup = row.get("speedup").and_then(Json::as_f64);
        if !speedup.is_some_and(|s| s > 0.0) {
            gate.fail(format!("results[{i}]: missing positive `speedup`"));
        }
    }
    check_simd_section(gate, ledger);
    check_codebook_section(gate, ledger);
}

/// The `codebook` section of the ledger (written by `bench_lut_eval`):
/// the centroid-codebook amortized GEMM against FP32/INT8 GEMM on the
/// frozen RoBERTa-base linear shapes.
///
/// Three gates:
/// * every row's relative error vs the exact FP32 product must sit under
///   [`CODEBOOK_REL_ERR_CEILING`];
/// * within each shape, growing the centroid count may not *increase*
///   the recorded error — the accuracy-per-table-size frontier must
///   slope the right way (the sweep is deterministic: seeded k-means on
///   seeded data);
/// * like the `simd` gate, the [`CODEBOOK_SPEEDUP_FLOOR`] on the
///   FFN-shape (`768x3072`, k=16) codebook-vs-F32 speedup only applies
///   when the recording machine's kernel tier was AVX2 — a scalar
///   recording passes with a skip note, since the gather kernel *is*
///   the oracle there.
fn check_codebook_section(gate: &mut Gate, ledger: &Json) {
    let Some(level) = level(gate, ledger, "codebook.level") else {
        return;
    };
    let Some(rows) = rows(gate, ledger, "codebook.rows") else {
        return;
    };
    let mut last: Option<(&str, f64)> = None;
    for (i, row) in rows.iter().enumerate() {
        let shape = row.get("shape").and_then(Json::as_str).unwrap_or("?");
        let k = row.get("k").and_then(Json::as_f64).unwrap_or(0.0);
        let at = format!("codebook.rows[{shape} k={k}]");
        match row.get("rel_err_vs_f32").and_then(Json::as_f64) {
            Some(e) if e.is_finite() && e <= CODEBOOK_REL_ERR_CEILING => {
                gate.pass(format!("{at}: rel err {e:.4} ≤ {CODEBOOK_REL_ERR_CEILING}"));
                if let Some((_, prev)) = last.filter(|&(s, p)| s == shape && e > p) {
                    gate.fail(format!(
                        "{at}: rel err {e:.4} above the smaller-k row's {prev:.4} — the \
                         accuracy-per-table-size frontier slopes the wrong way"
                    ));
                }
                last = Some((shape, e));
            }
            Some(e) => gate.fail(format!(
                "{at}: rel err {e:.4} exceeds the {CODEBOOK_REL_ERR_CEILING} ceiling"
            )),
            None => gate.fail(format!(
                "codebook.rows[{i}]: missing numeric `rel_err_vs_f32`"
            )),
        }
        let bytes = row.get("table_bytes").and_then(Json::as_f64);
        if !bytes.is_some_and(|b| b > 0.0) {
            gate.fail(format!(
                "codebook.rows[{i}]: missing positive `table_bytes`"
            ));
        }
    }
    let ffn = find(rows, ("shape", "768x3072"), ("k", 16.0), "speedup_vs_f32");
    avx2_floor(
        gate,
        "codebook.rows[768x3072 k=16] vs f32",
        ffn,
        CODEBOOK_SPEEDUP_FLOOR,
        &level,
    );
}

/// The `simd` section of the ledger (written by `bench_lut_eval`,
/// explained in docs/PERFORMANCE.md): the recorded kernel tier, the
/// scalar-oracle-vs-dispatched kernel rows, and the fused LayerNorm row.
///
/// The ≥ [`SIMD_KERNEL_FLOOR`] gate on the 64k-element gelu/exp rows only
/// applies when the recording machine dispatched the AVX2 kernel — on a
/// scalar recording (no AVX2, or `--no-default-features`) the dispatched
/// side is the scalar kernel itself and a vectorization floor would be
/// meaningless, so the gate passes with a skip note.
fn check_simd_section(gate: &mut Gate, ledger: &Json) {
    let Some(level) = level(gate, ledger, "simd.level") else {
        return;
    };
    let Some(rows) = rows(gate, ledger, "simd.kernels") else {
        return;
    };
    for table in ["gelu", "exp"] {
        let speedup = find(rows, ("table", table), ("elems", 65536.0), "speedup");
        avx2_floor(
            gate,
            &format!("simd.kernels[{table} @ 65536]"),
            speedup,
            SIMD_KERNEL_FLOOR,
            &level,
        );
    }
    for key in ["speedup", "unfused_ns_per_row", "fused_ns_per_row"] {
        let path = format!("simd.fused.layernorm.{key}");
        if ledger.path(&path).and_then(Json::as_f64).is_none() {
            gate.fail(format!("ledger: missing numeric `{path}`"));
        }
    }
}

/// Minimum dispatched-vs-scalar-oracle speedup the ledger's 64k-element
/// FP32 gelu/exp kernel rows must record when the recording machine's
/// kernel tier was AVX2. The register-resident kernel holds ~1.6x on the
/// noisiest shared-core hosts, so 1.5x leaves real margin without
/// tolerating a vectorization regression.
const SIMD_KERNEL_FLOOR: f64 = 1.5;

/// Maximum relative (Frobenius) error any `codebook.rows` entry may
/// record against the exact FP32 product. The k=8 end of the recorded
/// sweep sits at ~0.65 on the synthetic activations; 0.8 leaves margin
/// without tolerating a calibration regression (an unbaked or mis-seeded
/// codebook lands well above 1.0).
const CODEBOOK_REL_ERR_CEILING: f64 = 0.8;

/// Minimum codebook-vs-F32 GEMM speedup the FFN-shape (`768x3072`, k=16)
/// ledger row must record when the recording machine's kernel tier was
/// AVX2. Recorded ~2.1x; 1.2x leaves the same kind of shared-host margin
/// as [`SIMD_KERNEL_FLOOR`].
const CODEBOOK_SPEEDUP_FLOOR: f64 = 1.2;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ledger_path = match args.iter().position(|a| a == "--ledger") {
        Some(i) => args.get(i + 1).expect("--ledger takes a value").clone(),
        None => "BENCH_lut_eval.json".to_string(),
    };
    let paper_path = std::path::Path::new(&ledger_path).with_file_name("BENCH_paper.json");

    let mut gate = Gate::default();
    check_ledger(&mut gate, &load(&ledger_path));
    check_paper_ledger(&mut gate, &load(&paper_path.to_string_lossy()));

    if gate.failures.is_empty() {
        println!("bench_check: all {} checks passed", gate.checks);
    } else {
        let (failed, checks) = (gate.failures.len(), gate.checks);
        println!("bench_check: {failed} of {checks} checks FAILED");
        std::process::exit(1);
    }
}
