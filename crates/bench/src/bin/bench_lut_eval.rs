//! LUT-evaluation throughput trajectory: times the scalar reference loop
//! (`LookupTable::eval_slice`) against the baked batch engine
//! (`BakedLut::eval_slice`) on the paper's 16-entry GELU and EXP tables,
//! at fixed power-of-two sizes *and* at the batch shapes a real encoder
//! layer produces (derived from the `nnlut-npu` RoBERTa-base workload),
//! then writes the measurements to `BENCH_lut_eval.json` so the perf
//! trajectory of the repo is recorded run over run.
//!
//! A second part measures the **`simd` section** of the ledger
//! (`docs/PERFORMANCE.md` explains how to read it):
//!
//! * kernel rows — the baked *scalar oracle* (`eval_slice_scalar`)
//!   against whatever `eval_slice` dispatches to at the recorded
//!   `simd.level` (`avx2` or `scalar`, detected at bake time), on the
//!   same tables and shapes as the trajectory rows. With
//!   `--no-default-features` both sides are the same kernel and the
//!   speedups sit at ~1.0 by construction.
//! * fused row — the unfused LayerNorm+affine op sequence against its
//!   fused single-sweep counterpart, per encoder row (LayerNorm row =
//!   hidden), with the row-pass counts that explain the delta.
//!
//! `bench_check` requires the section and, when the level is `avx2`,
//! gates the 64k-element gelu/exp kernel rows at a ≥ 1.5× floor.
//!
//! Run: `cargo run --release -p nnlut-bench --bin bench_lut_eval`

use std::time::Instant;

use nnlut_bench::{exp_inputs, gelu_inputs, paper_kit, roberta_bench_config, ROBERTA_BENCH_SEQ};
use nnlut_core::calibrate::RowCapture;
use nnlut_core::codebook::CodebookSpec;
use nnlut_core::engine::BakedLut;
use nnlut_core::{LookupTable, NnLutKit};
use nnlut_npu::{transformer_workload, ModelShape};
use nnlut_tensor::Matrix;
use nnlut_transformer::{Linear, MatmulMode};

/// Median ns/element of `f` applied to a fresh copy of `xs`, over
/// `samples` timed repetitions (each long enough to dominate timer noise).
fn time_ns_per_elem<F: FnMut(&mut [f32])>(xs: &[f32], samples: usize, mut f: F) -> f64 {
    let mut buf = xs.to_vec();
    // Warm-up + calibration: target ~2 ms per sample.
    let start = Instant::now();
    f(&mut buf);
    let once = start.elapsed().as_nanos().max(1) as f64;
    let reps = ((2e6 / once) as usize).clamp(1, 1_000_000);
    let mut results: Vec<f64> = (0..samples.max(3))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                buf.copy_from_slice(xs);
                f(std::hint::black_box(&mut buf));
            }
            start.elapsed().as_nanos() as f64 / (reps * xs.len()) as f64
        })
        .collect();
    results.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    results[results.len() / 2]
}

struct Row {
    table: &'static str,
    n: usize,
    scalar_ns: f64,
    baked_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.baked_ns
    }
}

fn measure(table: &'static str, lut: &LookupTable, xs: &[f32]) -> Row {
    let baked = BakedLut::new(lut.clone());
    let scalar_ns = time_ns_per_elem(xs, 7, |buf| lut.eval_slice(buf));
    let baked_ns = time_ns_per_elem(xs, 7, |buf| baked.eval_slice(buf));
    Row {
        table,
        n: xs.len(),
        scalar_ns,
        baked_ns,
    }
}

/// One `simd.kernels` row: the baked scalar oracle against the dispatched
/// kernel on the same inputs. Distinct from [`Row`], which times the
/// *reference table* against the baked engine — this one isolates the
/// vectorization win inside the baked tier.
struct SimdRow {
    table: &'static str,
    n: usize,
    scalar_kernel_ns: f64,
    simd_ns: f64,
}

impl SimdRow {
    fn speedup(&self) -> f64 {
        self.scalar_kernel_ns / self.simd_ns
    }
}

/// Best-of-N ns/element of `f` applied **in place** — no per-rep input
/// copy, unlike [`time_ns_per_elem`]. The baked kernels are branchless
/// and constant-time in their input distribution, so re-evaluating the
/// evolving buffer times the identical instruction stream while keeping
/// a 256 KiB memcpy out of the measured loop: the `simd` section gates
/// on kernel-vs-kernel *ratios*, and an additive copy term would
/// compress them. Best-of rather than median because scheduler noise on
/// a shared benchmark host is strictly additive.
fn time_kernel_ns_per_elem<F: FnMut(&mut [f32])>(xs: &[f32], samples: usize, mut f: F) -> f64 {
    let mut buf = xs.to_vec();
    let start = Instant::now();
    f(&mut buf);
    let once = start.elapsed().as_nanos().max(1) as f64;
    let reps = ((2e6 / once) as usize).clamp(1, 1_000_000);
    (0..samples.max(3))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f(std::hint::black_box(&mut buf));
            }
            start.elapsed().as_nanos() as f64 / (reps * xs.len()) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn measure_simd(table: &'static str, lut: &LookupTable, xs: &[f32]) -> SimdRow {
    let baked = BakedLut::new(lut.clone());
    let scalar_kernel_ns = time_kernel_ns_per_elem(xs, 9, |buf| baked.eval_slice_scalar(buf));
    let simd_ns = time_kernel_ns_per_elem(xs, 9, |buf| baked.eval_slice(buf));
    SimdRow {
        table,
        n: xs.len(),
        scalar_kernel_ns,
        simd_ns,
    }
}

/// One `simd.fused` row: the unfused op sequence against its fused
/// counterpart, timed over a buffer of encoder-shaped rows and reported
/// per row.
struct FusedRow {
    op: &'static str,
    row_len: usize,
    rows: usize,
    unfused_ns_per_row: f64,
    fused_ns_per_row: f64,
    passes_unfused: u32,
    passes_fused: u32,
}

impl FusedRow {
    fn speedup(&self) -> f64 {
        self.unfused_ns_per_row / self.fused_ns_per_row
    }
}

fn measure_fused_layernorm(kit: &NnLutKit, row_len: usize, rows: usize) -> FusedRow {
    let xs = gelu_inputs(row_len * rows);
    let gamma: Vec<f32> = (0..row_len).map(|i| 0.9 + (i as f32) * 0.0002).collect();
    let beta: Vec<f32> = (0..row_len).map(|i| (i as f32) * 0.0005 - 0.2).collect();
    let unfused = time_ns_per_elem(&xs, 7, |buf| {
        for row in buf.chunks_exact_mut(row_len) {
            kit.layer_norm(row, 1e-5);
            for ((v, &g), &b) in row.iter_mut().zip(&gamma).zip(&beta) {
                *v = *v * g + b;
            }
        }
    });
    let fused = time_ns_per_elem(&xs, 7, |buf| {
        for row in buf.chunks_exact_mut(row_len) {
            kit.layer_norm_fused_affine(row, 1e-5, &gamma, &beta);
        }
    });
    FusedRow {
        op: "layernorm",
        row_len,
        rows,
        unfused_ns_per_row: unfused * row_len as f64,
        fused_ns_per_row: fused * row_len as f64,
        // mean, variance, subtract, scale, affine — vs — mean, variance,
        // one normalize·affine sweep.
        passes_unfused: 5,
        passes_fused: 3,
    }
}

/// One `codebook` section row: a frozen-weight linear layer of RoBERTa-base
/// shape applied to a seq-length batch of activation rows, timed as FP32
/// GEMM, INT8 GEMM and the centroid-codebook amortized GEMM, with the
/// codebook's relative (Frobenius) error against the exact FP32 product
/// and the bytes its partial-product tables occupy — the accuracy-per-
/// table-size frontier of `docs/ARCHITECTURE.md`.
struct CodebookRow {
    shape: String,
    k: usize,
    f32_ns_per_row: f64,
    int8_ns_per_row: f64,
    codebook_ns_per_row: f64,
    rel_err: f64,
    table_bytes: usize,
}

impl CodebookRow {
    fn speedup_vs_f32(&self) -> f64 {
        self.f32_ns_per_row / self.codebook_ns_per_row
    }

    fn speedup_vs_int8(&self) -> f64 {
        self.int8_ns_per_row / self.codebook_ns_per_row
    }
}

/// Deterministic synthetic activations/weights for the codebook GEMM
/// comparison (SplitMix64-mixed, roughly centered, ±3 range).
fn codebook_synth(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((z >> 40) as f32 / 16_777_216.0 - 0.5) * 6.0
        })
        .collect()
}

/// Median ns/row of `f` over `samples` timed repetitions.
fn time_ns_per_row<F: FnMut()>(rows: usize, samples: usize, mut f: F) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1) as f64;
    let reps = ((5e6 / once) as usize).clamp(1, 10_000);
    let mut results: Vec<f64> = (0..samples.max(3))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_nanos() as f64 / (reps * rows) as f64
        })
        .collect();
    results.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    results[results.len() / 2]
}

fn measure_codebook(in_dim: usize, out_dim: usize, k: usize, rows: usize) -> CodebookRow {
    let weight = Matrix::from_vec(
        in_dim,
        out_dim,
        codebook_synth(
            in_dim * out_dim,
            0xC0DE ^ ((in_dim as u64) << 20) ^ out_dim as u64,
        ),
    );
    let bias = codebook_synth(out_dim, 0xB1A5);
    let mut lin = Linear::new(weight, bias);
    let spec = CodebookSpec {
        centroids: k,
        ..CodebookSpec::default()
    };
    let mut calib = RowCapture::new(in_dim, 256, 7);
    calib.record_rows(&codebook_synth(in_dim * 256, 0xCA11B));
    lin.bake_codebook(&calib, &spec, 0);

    let x = Matrix::from_vec(
        rows,
        in_dim,
        codebook_synth(rows * in_dim, 0xAC7 ^ k as u64),
    );
    let exact = lin.apply(&x, MatmulMode::F32);
    let approx = lin.apply(&x, MatmulMode::Codebook);
    let mut err = 0.0f64;
    let mut norm = 0.0f64;
    for (a, e) in approx.as_slice().iter().zip(exact.as_slice()) {
        err += ((a - e) as f64).powi(2);
        norm += (*e as f64).powi(2);
    }
    let rel_err = (err / norm.max(f64::MIN_POSITIVE)).sqrt();

    let f32_ns = time_ns_per_row(rows, 5, || {
        std::hint::black_box(lin.apply(std::hint::black_box(&x), MatmulMode::F32));
    });
    let int8_ns = time_ns_per_row(rows, 5, || {
        std::hint::black_box(lin.apply(std::hint::black_box(&x), MatmulMode::Int8));
    });
    let codebook_ns = time_ns_per_row(rows, 5, || {
        std::hint::black_box(lin.apply(std::hint::black_box(&x), MatmulMode::Codebook));
    });
    CodebookRow {
        shape: format!("{in_dim}x{out_dim}"),
        k,
        f32_ns_per_row: f32_ns,
        int8_ns_per_row: int8_ns,
        codebook_ns_per_row: codebook_ns,
        rel_err,
        table_bytes: lin.codebook().expect("codebook just baked").table_bytes(),
    }
}

fn main() {
    println!("training the paper-config 16-entry kit …");
    let kit = paper_kit();
    let gelu = &kit.tables().gelu;
    let exp = &kit.tables().exp;

    // Fixed sizes for the trajectory, plus the per-layer batch shapes an
    // encoder actually evaluates (RoBERTa-base at the shared bench seq):
    // every GELU element of one layer, and one attention softmax row.
    let shape = ModelShape::roberta_base();
    let layer = transformer_workload(&shape, ROBERTA_BENCH_SEQ).layer;
    let gelu_layer_elems = layer.gelu_elems as usize;
    let softmax_row_len = layer.softmax_row_len as usize;

    let mut rows = Vec::new();
    for n in [256usize, 4096, 65536] {
        rows.push(measure("gelu", gelu, &gelu_inputs(n)));
        rows.push(measure("exp", exp, &exp_inputs(n)));
    }
    rows.push(measure("gelu_layer", gelu, &gelu_inputs(gelu_layer_elems)));
    rows.push(measure(
        "exp_softmax_row",
        exp,
        &exp_inputs(softmax_row_len),
    ));

    println!(
        "\n{:<18}{:>10}{:>16}{:>16}{:>10}",
        "table", "elems", "scalar ns/el", "baked ns/el", "speedup"
    );
    for r in &rows {
        println!(
            "{:<18}{:>10}{:>16.3}{:>16.3}{:>9.2}x",
            r.table,
            r.n,
            r.scalar_ns,
            r.baked_ns,
            r.speedup()
        );
    }

    // Hand-rolled JSON: the offline workspace has no serde, and the schema
    // is flat enough that formatting it directly is clearer anyway. This
    // bin owns every key of the file and renders the whole object.
    let mut results = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        results.push_str(&format!(
            "    {{\"table\": \"{}\", \"elems\": {}, \"scalar_ns_per_elem\": {:.4}, \"baked_ns_per_elem\": {:.4}, \"speedup\": {:.4}}}{}\n",
            r.table,
            r.n,
            r.scalar_ns,
            r.baked_ns,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    results.push_str("  ]");
    // Part 2: the `simd` section — dispatched kernel vs scalar oracle,
    // and fused vs unfused LayerNorm, at the shared RoBERTa bench shapes.
    let level = nnlut_core::engine::simd::detect();
    println!("\nsimd level: {} (detected at bake time)", level.name());
    let mut simd_rows = Vec::new();
    for n in [4096usize, 65536] {
        simd_rows.push(measure_simd("gelu", gelu, &gelu_inputs(n)));
        simd_rows.push(measure_simd("exp", exp, &exp_inputs(n)));
    }
    simd_rows.push(measure_simd(
        "gelu_layer",
        gelu,
        &gelu_inputs(gelu_layer_elems),
    ));
    println!(
        "{:<18}{:>10}{:>16}{:>16}{:>10}",
        "table", "elems", "oracle ns/el", "simd ns/el", "speedup"
    );
    for r in &simd_rows {
        println!(
            "{:<18}{:>10}{:>16.3}{:>16.3}{:>9.2}x",
            r.table,
            r.n,
            r.scalar_kernel_ns,
            r.simd_ns,
            r.speedup()
        );
    }

    let hidden = roberta_bench_config().hidden;
    let fused_rows = [measure_fused_layernorm(&kit, hidden, 16)];
    println!(
        "{:<18}{:>10}{:>16}{:>16}{:>10}",
        "fused op", "row len", "unfused ns/row", "fused ns/row", "speedup"
    );
    for r in &fused_rows {
        println!(
            "{:<18}{:>10}{:>16.1}{:>16.1}{:>9.2}x  ({} -> {} row passes)",
            r.op,
            r.row_len,
            r.unfused_ns_per_row,
            r.fused_ns_per_row,
            r.speedup(),
            r.passes_unfused,
            r.passes_fused
        );
    }

    let mut simd_section = format!(
        "{{\n    \"level\": \"{}\",\n    \"kernels\": [\n",
        level.name()
    );
    for (i, r) in simd_rows.iter().enumerate() {
        simd_section.push_str(&format!(
            "      {{\"table\": \"{}\", \"elems\": {}, \"scalar_kernel_ns_per_elem\": {:.4}, \"simd_ns_per_elem\": {:.4}, \"speedup\": {:.4}}}{}\n",
            r.table,
            r.n,
            r.scalar_kernel_ns,
            r.simd_ns,
            r.speedup(),
            if i + 1 == simd_rows.len() { "" } else { "," }
        ));
    }
    simd_section.push_str("    ],\n    \"fused\": {\n");
    for (i, r) in fused_rows.iter().enumerate() {
        simd_section.push_str(&format!(
            "      \"{}\": {{\"row_len\": {}, \"rows\": {}, \"unfused_ns_per_row\": {:.1}, \"fused_ns_per_row\": {:.1}, \"speedup\": {:.4}, \"row_passes_unfused\": {}, \"row_passes_fused\": {}}}{}\n",
            r.op,
            r.row_len,
            r.rows,
            r.unfused_ns_per_row,
            r.fused_ns_per_row,
            r.speedup(),
            r.passes_unfused,
            r.passes_fused,
            if i + 1 == fused_rows.len() { "" } else { "," }
        ));
    }
    simd_section.push_str("    }\n  }");

    // Part 3: the `codebook` section — centroid-codebook amortized GEMM
    // vs FP32/INT8 GEMM on the frozen RoBERTa-base linear shapes
    // (attention projection hidden×hidden, FFN expand hidden×ffn), across
    // the centroid-count sweep that traces the accuracy-per-table-size
    // frontier. `bench_check` requires the section, gates every row's
    // relative error, and — at a recorded avx2 level — floors the large
    // shape's codebook-vs-F32 speedup.
    let ffn = roberta_bench_config().ffn;
    println!(
        "\ncodebook amortized GEMM ({} rows per apply):",
        ROBERTA_BENCH_SEQ
    );
    let mut codebook_rows = Vec::new();
    for (in_dim, out_dim) in [(hidden, hidden), (hidden, ffn)] {
        for k in [8usize, 16, 32] {
            let r = measure_codebook(in_dim, out_dim, k, ROBERTA_BENCH_SEQ);
            println!(
                "  {:<10} k={:<3} f32 {:>9.1} ns/row · int8 {:>9.1} ns/row · codebook {:>9.1} ns/row · {:>5.2}x vs f32 · rel err {:.4} · tables {} KiB",
                r.shape,
                r.k,
                r.f32_ns_per_row,
                r.int8_ns_per_row,
                r.codebook_ns_per_row,
                r.speedup_vs_f32(),
                r.rel_err,
                r.table_bytes / 1024
            );
            codebook_rows.push(r);
        }
    }
    let mut codebook_section = format!(
        "{{\n    \"level\": \"{}\",\n    \"sub_len\": {},\n    \"batch_rows\": {},\n    \"rows\": [\n",
        level.name(),
        CodebookSpec::default().sub_len,
        ROBERTA_BENCH_SEQ
    );
    for (i, r) in codebook_rows.iter().enumerate() {
        codebook_section.push_str(&format!(
            "      {{\"shape\": \"{}\", \"k\": {}, \"f32_ns_per_row\": {:.1}, \"int8_ns_per_row\": {:.1}, \"codebook_ns_per_row\": {:.1}, \"speedup_vs_f32\": {:.4}, \"speedup_vs_int8\": {:.4}, \"rel_err_vs_f32\": {:.5}, \"table_bytes\": {}}}{}\n",
            r.shape,
            r.k,
            r.f32_ns_per_row,
            r.int8_ns_per_row,
            r.codebook_ns_per_row,
            r.speedup_vs_f32(),
            r.speedup_vs_int8(),
            r.rel_err,
            r.table_bytes,
            if i + 1 == codebook_rows.len() { "" } else { "," }
        ));
    }
    codebook_section.push_str("    ]\n  }");

    let json = format!(
        "{{\n  \"bench\": \"lut_eval\",\n  \"entries\": 16,\n  \"results\": {results},\n  \"simd\": {simd_section},\n  \"codebook\": {codebook_section}\n}}\n"
    );
    std::fs::write("BENCH_lut_eval.json", &json).expect("write BENCH_lut_eval.json");
    println!("\nwrote BENCH_lut_eval.json");

    let big = rows
        .iter()
        .filter(|r| r.n >= 4096)
        .map(Row::speedup)
        .fold(f64::INFINITY, f64::min);
    println!("minimum speedup at >=4k elements: {big:.2}x");
}
