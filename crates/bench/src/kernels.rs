//! The kernel ledger: the LUT kernels' timings that `bench_lut_eval`
//! records in `BENCH_lut_eval.json`, as [`Table`]s through the paper
//! ledger's writer, and the claims `bench_check` gates on that file
//! (docs/PERFORMANCE.md explains how to read it). Its sections:
//!
//! * `results`: the reference table loop (`LookupTable::eval_slice`)
//!   against the baked engine (`BakedLut::eval_slice`), FP32;
//! * `simd_kernels`: the baked scalar oracle against the kernel
//!   `eval_slice` dispatches to at the recorded `level`;
//! * `simd_fused`: LayerNorm + affine, unfused against fused;
//! * `codebook`: a frozen RoBERTa-base linear layer as FP32, INT8 and
//!   centroid-codebook GEMM, with the codebook's error and table bytes.

use nnlut_core::codebook::CodebookSpec;

use crate::paper::{self, cells, Gate, Row, Table};
use crate::{Json, ROBERTA_BENCH_SEQ};

/// The kernel ledger's sections, in run order, separated by spaces.
pub const SECTIONS: &str = "results simd_kernels simd_fused codebook";

/// Minimum dispatched-vs-scalar-oracle speedup the 64k-element gelu/exp
/// `simd_kernels` rows must record when the recording machine's kernel
/// tier was AVX2. The register-resident kernel holds ~1.6x on the
/// noisiest shared-core hosts, so 1.5x leaves real margin without
/// tolerating a vectorization regression.
pub const SIMD_KERNEL_FLOOR: f64 = 1.5;

/// Maximum relative (Frobenius) error any `codebook` row may record
/// against the exact FP32 product. The k=8 end of the recorded sweep sits
/// at ~0.65 on the synthetic activations; 0.8 leaves margin without
/// tolerating a calibration regression (an unbaked or mis-seeded
/// codebook lands well above 1.0).
pub const CODEBOOK_REL_ERR_CEILING: f64 = 0.8;

/// Minimum codebook-vs-F32 GEMM speedup the FFN-shape (`768x3072 k=16`)
/// row must record when the recording machine's kernel tier was AVX2.
/// Recorded ~2.1x; 1.2x leaves the same kind of shared-host margin as
/// [`SIMD_KERNEL_FLOOR`].
pub const CODEBOOK_SPEEDUP_FLOOR: f64 = 1.2;

/// A `results` or `simd_kernels` row, labelled `table@elems`: one table
/// evaluated over `elems` inputs by a reference kernel and a faster one,
/// each in ns per element.
pub fn speedup_row(table: &str, elems: usize, reference_ns: f64, fast_ns: f64) -> Row {
    let values = [elems as f64, reference_ns, fast_ns, reference_ns / fast_ns];
    Row::new(format!("{table}@{elems}"), values)
}

/// The `simd_fused` row: LayerNorm + affine over `rows` rows of `row_len`,
/// unfused and fused, each in ns per row. The unfused sequence makes five
/// passes over a row (mean, variance, subtract, scale, affine); the fused
/// one makes three (mean, variance, one normalize·affine sweep).
pub fn fused_row(row_len: usize, rows: usize, unfused_ns: f64, fused_ns: f64) -> Row {
    let (len, rows, ratio) = (row_len as f64, rows as f64, unfused_ns / fused_ns);
    let values = [len, rows, unfused_ns, fused_ns, ratio, 5.0, 3.0];
    Row::new("layernorm", values)
}

/// A `codebook` row, labelled `{in}x{out} k={k}`: the `[f32, int8,
/// codebook]` GEMM timings in ns per activation row, the codebook's
/// speedups over the first two, its relative error `err` against the
/// FP32 product and its table bytes.
pub fn codebook_row(shape: (usize, usize), k: usize, ns: [f64; 3], err: f64, bytes: usize) -> Row {
    let [f, i, c] = ns;
    let values = [k as f64, f, i, c, f / c, i / c, err, bytes as f64];
    Row::new(format!("{}x{} k={k}", shape.0, shape.1), values)
}

/// The kernel ledger's tables, one per section of [`SECTIONS`], from the
/// rows [`speedup_row`], [`fused_row`] and [`codebook_row`] build. Each
/// column keeps the key and the precision of the ledger's earlier
/// hand-written layout.
pub fn tables([results, kernels, fused, codebook]: [Vec<Row>; 4]) -> [Table; 4] {
    let (per_elem, rows) = ("FP32, ns per element", ROBERTA_BENCH_SEQ);
    let results_title = format!("reference table loop vs baked engine, {per_elem}");
    let kernels_title = format!("baked scalar oracle vs dispatched kernel, {per_elem}");
    let fused_title = "LayerNorm + affine, unfused vs fused, ns per row";
    let cb_title = format!("FP32 vs INT8 vs codebook GEMM, ns per row of a {rows}-row batch");
    let ns = ["scalar_kernel_ns_per_elem", "simd_ns_per_elem", "speedup"];
    let cb_ns = ["f32_ns_per_row", "int8_ns_per_row", "codebook_ns_per_row"];
    [
        Table::new("results", results_title, "table@elems", results)
            .cols(0, ["elems"])
            .cols(4, ["scalar_ns_per_elem", "baked_ns_per_elem", "speedup"]),
        Table::new("simd_kernels", kernels_title, "table@elems", kernels)
            .cols(0, ["elems"])
            .cols(4, ns),
        Table::new("simd_fused", fused_title, "op", fused)
            .cols(0, ["row_len", "rows"])
            .cols(1, ["unfused_ns_per_row", "fused_ns_per_row"])
            .cols(4, ["speedup"])
            .cols(0, ["row_passes_unfused", "row_passes_fused"]),
        Table::new("codebook", cb_title, "shape k", codebook)
            .cols(0, ["k"])
            .cols(1, cb_ns)
            .cols(4, ["speedup_vs_f32", "speedup_vs_int8"])
            .cols(5, ["rel_err_vs_f32"])
            .cols(0, ["table_bytes"]),
    ]
}

/// The `BENCH_lut_eval.json` text for the kernel `tables`, recorded at
/// the kernel tier `level`, with the paper kit's 16 entries, the
/// codebook's sub-vector length and its batch rows in the header.
pub fn ledger(level: &str, tables: &[Table]) -> String {
    let header = [
        ("level", Json::Str(level.into())),
        ("entries", Json::Num(16.0)),
        ("sub_len", Json::Num(CodebookSpec::default().sub_len as f64)),
        ("batch_rows", Json::Num(ROBERTA_BENCH_SEQ as f64)),
    ];
    paper::ledger("lut_eval", &header, tables)
}

/// The kernel ledger's gate: the shared shape gate on [`SECTIONS`], then
/// every claim the ledger records.
///
/// * every `results` speedup is positive;
/// * at an `avx2` `level`, the `gelu@65536` and `exp@65536` kernel rows
///   hold [`SIMD_KERNEL_FLOOR`] and the `768x3072 k=16` codebook row
///   holds [`CODEBOOK_SPEEDUP_FLOOR`] against FP32. At any other level
///   the dispatched side is the scalar kernel itself, so these floors
///   pass with a skip note;
/// * the `simd_fused` LayerNorm row is present;
/// * every codebook row's error is at most [`CODEBOOK_REL_ERR_CEILING`],
///   every table size is positive, and within a shape the error does not
///   rise as k grows: the accuracy-per-table-size frontier slopes the
///   right way (the sweep is deterministic: seeded k-means, seeded data).
pub fn check_ledger(gate: &mut Gate, ledger: &Json) {
    paper::check_ledger(gate, ledger, SECTIONS);
    let level = ledger.get("level").and_then(Json::as_str);
    match level {
        Some(l) => gate.pass(format!("level: {l}")),
        None => gate.fail("level: missing string".into()),
    }
    let level = level.unwrap_or("?");
    positive(gate, ledger, "results", "speedup");
    for table in ["gelu", "exp"] {
        let row = format!("{table}@65536");
        let at = ("simd_kernels", row.as_str(), "speedup");
        avx2_floor(gate, ledger, level, at, SIMD_KERNEL_FLOOR);
    }
    match cell(ledger, "simd_fused", "layernorm", "speedup") {
        Some(s) => gate.pass(format!("simd_fused[layernorm]: {s:.2}x")),
        None => gate.fail("simd_fused[layernorm]: no such row".into()),
    }
    let mut last: Option<(&str, f64)> = None;
    for (label, err) in cells(ledger, "codebook", "rel_err_vs_f32") {
        let (shape, err) = (
            label.split(" k=").next().unwrap_or(label),
            err.unwrap_or(f64::NAN),
        );
        let at = format!("codebook[{label}]");
        if let Some((_, prev)) = last.filter(|&(s, prev)| s == shape && err > prev) {
            gate.fail(format!(
                "{at}: rel err {err:.4} above the smaller-k row's {prev:.4}: the \
                 accuracy-per-table-size frontier slopes the wrong way"
            ));
        }
        match err <= CODEBOOK_REL_ERR_CEILING {
            true => gate.pass(format!(
                "{at}: rel err {err:.4} ≤ {CODEBOOK_REL_ERR_CEILING}"
            )),
            false => gate.fail(format!(
                "{at}: rel err {err:.4} exceeds the {CODEBOOK_REL_ERR_CEILING} ceiling"
            )),
        }
        last = Some((shape, err));
    }
    positive(gate, ledger, "codebook", "table_bytes");
    let at = ("codebook", "768x3072 k=16", "speedup_vs_f32");
    avx2_floor(gate, ledger, level, at, CODEBOOK_SPEEDUP_FLOOR);
}

/// The `column` cell of the row labelled `label` in `section`.
fn cell(ledger: &Json, section: &str, label: &str, column: &str) -> Option<f64> {
    let rows = cells(ledger, section, column);
    rows.into_iter().find(|&(l, _)| l == label)?.1
}

/// One check that every row of `section` holds a positive `column`.
fn positive(gate: &mut Gate, ledger: &Json, section: &str, column: &str) {
    let rows = cells(ledger, section, column);
    match rows.iter().find(|(_, v)| !v.is_some_and(|v| v > 0.0)) {
        Some((label, _)) => gate.fail(format!("{section}[{label}]: {column} not positive")),
        None => gate.pass(format!("{section}: every {column} positive")),
    }
}

/// A speedup floor on one cell that applies only to an AVX2 recording.
fn avx2_floor(gate: &mut Gate, ledger: &Json, level: &str, at: (&str, &str, &str), floor: f64) {
    let (section, label, column) = at;
    let name = format!("{section}[{label}] {column}");
    match cell(ledger, section, label, column) {
        Some(s) if level != "avx2" => gate.pass(format!(
            "{name}: {s:.2}x (floor skipped: level is `{level}`, not avx2)"
        )),
        Some(s) if s >= floor => gate.pass(format!("{name}: {s:.2}x ≥ {floor}x")),
        Some(s) => gate.fail(format!("{name}: {s:.2}x below the {floor}x avx2 floor")),
        None => gate.fail(format!("{name}: no such row")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel tables from fixed measurements near the committed ones.
    fn measured() -> [Table; 4] {
        let codebook = [(768, [0.652, 0.539, 0.465]), (3072, [0.653, 0.540, 0.464])]
            .into_iter()
            .flat_map(|(out, errs)| {
                [8, 16, 32].into_iter().zip(errs).map(move |(k, err)| {
                    let ns = [300_000.0, 1_000_000.0, 120_000.0 + 2_000.0 * k as f64];
                    codebook_row((768, out), k, ns, err, k * out * 768)
                })
            });
        tables([
            vec![
                speedup_row("gelu", 256, 3.85, 0.72),
                speedup_row("exp", 65536, 4.15, 0.72),
            ],
            vec![
                speedup_row("gelu", 65536, 0.98, 0.61),
                speedup_row("exp", 65536, 0.93, 0.59),
            ],
            vec![fused_row(768, 16, 1343.9, 1278.3)],
            codebook.collect(),
        ])
    }

    /// The gate's failures on `tables` recorded at `level`, and whether
    /// it noted a skipped floor.
    fn gate(level: &str, tables: &[Table]) -> (Vec<String>, bool) {
        let mut gate = Gate::default();
        let doc = Json::parse(&ledger(level, tables)).expect("valid JSON");
        check_ledger(&mut gate, &doc);
        let skipped = gate.passes.iter().any(|p| p.contains("floor skipped"));
        (gate.failures, skipped)
    }

    #[test]
    fn the_measured_kernel_ledger_passes() {
        let tables = measured();
        assert_eq!(gate("avx2", &tables), (vec![], false));
        let doc = Json::parse(&ledger("avx2", &tables)).expect("valid JSON");
        let header = ["level", "entries", "sub_len", "batch_rows"].map(|k| doc.get(k).cloned());
        let want = [
            Json::Str("avx2".into()),
            Json::Num(16.0),
            Json::Num(4.0),
            Json::Num(128.0),
        ];
        assert_eq!(header, want.map(Some));
        assert_eq!(
            cells(&doc, "simd_fused", "row_passes_unfused"),
            [("layernorm", Some(5.0))]
        );
        assert_eq!(
            cell(&doc, "codebook", "768x3072 k=16", "speedup_vs_f32"),
            Some(1.9737)
        );
    }

    #[test]
    fn each_kernel_gate_fails_on_its_own_mangled_input() {
        let mangled = |section: usize, row: usize, col: usize, value: f64| {
            let mut tables = measured();
            tables[section].rows[row].values[col] = value;
            tables
        };
        let fails = |level: &str, tables: &[Table]| gate(level, tables).0;
        assert_eq!(
            fails("avx2", &measured()[1..]),
            ["results: missing section"]
        );
        assert_eq!(
            fails("avx2", &mangled(0, 1, 1, f64::INFINITY)),
            ["results: rows[1] does not hold 4 finite numbers"]
        );
        let slow = mangled(1, 0, 3, 1.4);
        assert_eq!(
            fails("avx2", &slow),
            ["simd_kernels[gelu@65536] speedup: 1.40x below the 1.5x avx2 floor"]
        );
        assert_eq!(gate("scalar", &slow), (vec![], true));
        assert_eq!(
            fails("avx2", &mangled(3, 3, 6, 0.85)),
            ["codebook[768x3072 k=8]: rel err 0.8500 exceeds the 0.8 ceiling"]
        );
        assert_eq!(
            fails("avx2", &mangled(3, 4, 6, 0.7)),
            [
                "codebook[768x3072 k=16]: rel err 0.7000 above the smaller-k row's 0.6530: \
              the accuracy-per-table-size frontier slopes the wrong way"
            ]
        );
        assert_eq!(
            fails("avx2", &mangled(3, 4, 4, 1.1)),
            ["codebook[768x3072 k=16] speedup_vs_f32: 1.10x below the 1.2x avx2 floor"]
        );
        let mut no_fused = measured();
        no_fused[2].rows[0].label = "softmax".into();
        assert_eq!(
            fails("avx2", &no_fused),
            ["simd_fused[layernorm]: no such row"]
        );
    }
}
