//! The CI kernel-ledger gate.
//!
//! The committed `BENCH_lut_eval.json` (written by `bench_lut_eval`)
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
//! Flag: `--ledger <path>` (default `BENCH_lut_eval.json`). Exits
//! non-zero listing every violated check.

use nnlut_bench::Json;

struct Gate {
    failures: Vec<String>,
    checks: usize,
}

impl Gate {
    fn new() -> Self {
        Self {
            failures: Vec::new(),
            checks: 0,
        }
    }

    fn fail(&mut self, message: String) {
        self.checks += 1;
        println!("  FAIL  {message}");
        self.failures.push(message);
    }

    fn pass(&mut self, message: String) {
        self.checks += 1;
        println!("  ok    {message}");
    }

    /// Asserts `doc.path(path)` exists and is a number; returns it.
    fn require_num(&mut self, doc: &Json, path: &str) -> Option<f64> {
        match doc.path(path).and_then(Json::as_f64) {
            Some(v) => Some(v),
            None => {
                self.fail(format!("ledger: missing numeric `{path}`"));
                None
            }
        }
    }
}

fn flag(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{name} takes a value"))
                .clone()
        })
        .unwrap_or_else(|| default.to_string())
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read the ledger at {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("the ledger at {path} is not valid JSON: {e}"))
}

/// Structural checks on the committed ledger: every trajectory section
/// the repo has earned must still be present and sane.
fn check_ledger(gate: &mut Gate, ledger: &Json) {
    println!("ledger integrity:");
    match ledger.get("results").and_then(Json::as_array) {
        Some(rows) if !rows.is_empty() => {
            gate.pass(format!("results: {} rows", rows.len()));
            for (i, row) in rows.iter().enumerate() {
                match row.get("speedup").and_then(Json::as_f64) {
                    Some(s) if s > 0.0 => {}
                    _ => gate.fail(format!("results[{i}]: missing positive `speedup`")),
                }
            }
        }
        _ => gate.fail("results: missing or empty".into()),
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
    let level = match ledger.path("codebook.level").and_then(Json::as_str) {
        Some(l) => {
            gate.pass(format!("codebook.level: {l}"));
            l.to_string()
        }
        None => {
            gate.fail("codebook.level: missing string".into());
            return;
        }
    };
    let rows = match ledger.path("codebook.rows").and_then(Json::as_array) {
        Some(rows) if !rows.is_empty() => {
            gate.pass(format!("codebook.rows: {} rows", rows.len()));
            rows
        }
        _ => {
            gate.fail("codebook.rows: missing or empty".into());
            return;
        }
    };
    let mut last: Option<(String, f64)> = None;
    for (i, row) in rows.iter().enumerate() {
        let shape = row.get("shape").and_then(Json::as_str).unwrap_or("?");
        let k = row.get("k").and_then(Json::as_f64).unwrap_or(0.0);
        match row.get("rel_err_vs_f32").and_then(Json::as_f64) {
            Some(e) if e.is_finite() && e <= CODEBOOK_REL_ERR_CEILING => {
                gate.pass(format!(
                    "codebook.rows[{shape} k={k}]: rel err {e:.4} ≤ {CODEBOOK_REL_ERR_CEILING}"
                ));
                if let Some((ref prev_shape, prev_err)) = last {
                    if prev_shape == shape && e > prev_err {
                        gate.fail(format!(
                            "codebook.rows[{shape} k={k}]: rel err {e:.4} above the smaller-k row's \
                             {prev_err:.4} — the accuracy-per-table-size frontier slopes the wrong way"
                        ));
                    }
                }
                last = Some((shape.to_string(), e));
            }
            Some(e) => gate.fail(format!(
                "codebook.rows[{shape} k={k}]: rel err {e:.4} exceeds the \
                 {CODEBOOK_REL_ERR_CEILING} ceiling"
            )),
            None => gate.fail(format!(
                "codebook.rows[{i}]: missing numeric `rel_err_vs_f32`"
            )),
        }
        match row.get("table_bytes").and_then(Json::as_f64) {
            Some(b) if b > 0.0 => {}
            _ => gate.fail(format!(
                "codebook.rows[{i}]: missing positive `table_bytes`"
            )),
        }
    }
    let ffn_speedup = rows.iter().find_map(|row| {
        let s = row.get("shape").and_then(Json::as_str)?;
        let k = row.get("k").and_then(Json::as_f64)?;
        (s == "768x3072" && k == 16.0).then(|| row.get("speedup_vs_f32").and_then(Json::as_f64))?
    });
    match ffn_speedup {
        Some(s) if level == "avx2" => {
            if s >= CODEBOOK_SPEEDUP_FLOOR {
                gate.pass(format!(
                    "codebook.rows[768x3072 k=16]: {s:.2}x ≥ {CODEBOOK_SPEEDUP_FLOOR}x vs f32"
                ));
            } else {
                gate.fail(format!(
                    "codebook.rows[768x3072 k=16]: {s:.2}x below the {CODEBOOK_SPEEDUP_FLOOR}x \
                     avx2 floor vs f32"
                ));
            }
        }
        Some(s) => gate.pass(format!(
            "codebook.rows[768x3072 k=16]: {s:.2}x (floor skipped — level is `{level}`, not avx2)"
        )),
        None => gate.fail("codebook.rows: no `768x3072` k=16 row".into()),
    }
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
    let level = match ledger.path("simd.level").and_then(Json::as_str) {
        Some(l) => {
            gate.pass(format!("simd.level: {l}"));
            l.to_string()
        }
        None => {
            gate.fail("simd.level: missing string".into());
            return;
        }
    };
    let rows = match ledger.path("simd.kernels").and_then(Json::as_array) {
        Some(rows) if !rows.is_empty() => {
            gate.pass(format!("simd.kernels: {} rows", rows.len()));
            rows
        }
        _ => {
            gate.fail("simd.kernels: missing or empty".into());
            return;
        }
    };
    for table in ["gelu", "exp"] {
        let speedup = rows.iter().find_map(|row| {
            let t = row.get("table").and_then(Json::as_str)?;
            let n = row.get("elems").and_then(Json::as_f64)?;
            (t == table && n == 65536.0).then(|| row.get("speedup").and_then(Json::as_f64))?
        });
        match speedup {
            Some(s) if level == "avx2" => {
                if s >= SIMD_KERNEL_FLOOR {
                    gate.pass(format!(
                        "simd.kernels[{table} @ 65536]: {s:.2}x ≥ {SIMD_KERNEL_FLOOR}x"
                    ));
                } else {
                    gate.fail(format!(
                        "simd.kernels[{table} @ 65536]: {s:.2}x below the {SIMD_KERNEL_FLOOR}x avx2 floor"
                    ));
                }
            }
            Some(s) => gate.pass(format!(
                "simd.kernels[{table} @ 65536]: {s:.2}x (floor skipped — level is `{level}`, not avx2)"
            )),
            None => gate.fail(format!("simd.kernels: no 65536-element `{table}` row")),
        }
    }
    for key in ["speedup", "unfused_ns_per_row", "fused_ns_per_row"] {
        gate.require_num(ledger, &format!("simd.fused.layernorm.{key}"));
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
    let ledger_path = flag(&args, "--ledger", "BENCH_lut_eval.json");

    let mut gate = Gate::new();
    check_ledger(&mut gate, &load(&ledger_path));

    if gate.failures.is_empty() {
        println!("bench_check: all {} checks passed", gate.checks);
    } else {
        println!(
            "bench_check: {} of {} checks FAILED",
            gate.failures.len(),
            gate.checks
        );
        std::process::exit(1);
    }
}
