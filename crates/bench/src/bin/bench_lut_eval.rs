//! Times the LUT kernels into the kernel ledger `BENCH_lut_eval.json`
//! (in the working directory), section by section as
//! [`nnlut_bench::kernels`] lays it out, and prints the same tables:
//!
//! * `results`: the scalar reference loop (`LookupTable::eval_slice`)
//!   against the baked batch engine (`BakedLut::eval_slice`) on the
//!   paper's 16-entry GELU and EXP tables, at fixed power-of-two sizes
//!   and at the batch shapes a RoBERTa-base encoder layer produces
//!   (derived from the `nnlut-npu` workload);
//! * `simd_kernels`: the baked *scalar oracle* (`eval_slice_scalar`)
//!   against whatever `eval_slice` dispatches to at the recorded `level`
//!   (`avx2` or `scalar`, detected at bake time). With
//!   `--no-default-features` both sides are the same kernel and the
//!   speedups sit at ~1.0 by construction;
//! * `simd_fused`: the unfused LayerNorm+affine op sequence against its
//!   fused single-sweep counterpart, per encoder row;
//! * `codebook`: a frozen-weight linear layer of RoBERTa-base shape as
//!   FP32, INT8 and centroid-codebook GEMM over the centroid-count sweep.
//!
//! `bench_check` gates the recorded ledger; docs/PERFORMANCE.md explains
//! how to read it.
//!
//! Run: `cargo run --release -p nnlut-bench --bin bench_lut_eval`

use std::time::Instant;

use nnlut_bench::kernels::{self, codebook_row, fused_row, speedup_row};
use nnlut_bench::ROBERTA_BENCH_SEQ;
use nnlut_bench::{exp_inputs, gelu_inputs, paper_kit, roberta_bench_config, Row};
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

/// One `results` row: the reference table against the baked engine.
fn measure(table: &str, lut: &LookupTable, xs: &[f32]) -> Row {
    let baked = BakedLut::new(lut.clone());
    let scalar_ns = time_ns_per_elem(xs, 7, |buf| lut.eval_slice(buf));
    let baked_ns = time_ns_per_elem(xs, 7, |buf| baked.eval_slice(buf));
    speedup_row(table, xs.len(), scalar_ns, baked_ns)
}

/// Best-of-N ns/element of `f` applied **in place** — no per-rep input
/// copy, unlike [`time_ns_per_elem`]. The baked kernels are branchless
/// and constant-time in their input distribution, so re-evaluating the
/// evolving buffer times the identical instruction stream while keeping
/// a 256 KiB memcpy out of the measured loop: the `simd_kernels` section gates
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

/// One `simd_kernels` row: the baked scalar oracle against the
/// dispatched kernel on the same inputs. Distinct from [`measure`], which
/// times the *reference table* against the baked engine: this one
/// isolates the vectorization win inside the baked tier.
fn measure_simd(table: &str, lut: &LookupTable, xs: &[f32]) -> Row {
    let baked = BakedLut::new(lut.clone());
    let scalar_kernel_ns = time_kernel_ns_per_elem(xs, 9, |buf| baked.eval_slice_scalar(buf));
    let simd_ns = time_kernel_ns_per_elem(xs, 9, |buf| baked.eval_slice(buf));
    speedup_row(table, xs.len(), scalar_kernel_ns, simd_ns)
}

/// The `simd_fused` row: the unfused op sequence against its fused
/// counterpart, timed over a buffer of encoder-shaped rows and reported
/// per row.
fn measure_fused_layernorm(kit: &NnLutKit, row_len: usize, rows: usize) -> Row {
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
    fused_row(
        row_len,
        rows,
        unfused * row_len as f64,
        fused * row_len as f64,
    )
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

/// One `codebook` row: a frozen-weight linear layer of `shape` applied to
/// a seq-length batch of activation rows, timed as FP32 GEMM, INT8 GEMM
/// and the centroid-codebook amortized GEMM, with the codebook's relative
/// (Frobenius) error against the exact FP32 product and the bytes its
/// partial-product tables occupy: the accuracy-per-table-size frontier of
/// `docs/ARCHITECTURE.md`.
fn measure_codebook((in_dim, out_dim): (usize, usize), k: usize, rows: usize) -> Row {
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
    let bytes = lin.codebook().expect("codebook just baked").table_bytes();
    codebook_row(
        (in_dim, out_dim),
        k,
        [f32_ns, int8_ns, codebook_ns],
        rel_err,
        bytes,
    )
}

fn main() {
    println!("training the paper-config 16-entry kit …");
    let kit = paper_kit();
    let (gelu, exp) = (&kit.tables().gelu, &kit.tables().exp);

    // Fixed sizes, plus the per-layer batch shapes an encoder actually
    // evaluates (RoBERTa-base at the shared bench seq): every GELU
    // element of one layer, and one attention softmax row.
    let layer = transformer_workload(&ModelShape::roberta_base(), ROBERTA_BENCH_SEQ).layer;
    let gelu_layer = gelu_inputs(layer.gelu_elems as usize);
    let softmax_row = exp_inputs(layer.softmax_row_len as usize);
    println!("timing the kernels …");
    let mut results = Vec::new();
    for n in [256usize, 4096, 65536] {
        results.push(measure("gelu", gelu, &gelu_inputs(n)));
        results.push(measure("exp", exp, &exp_inputs(n)));
    }
    results.push(measure("gelu_layer", gelu, &gelu_layer));
    results.push(measure("exp_softmax_row", exp, &softmax_row));

    // The dispatched kernel vs the scalar oracle, and fused vs unfused
    // LayerNorm, at the shared RoBERTa bench shapes.
    let mut simd = Vec::new();
    for n in [4096usize, 65536] {
        simd.push(measure_simd("gelu", gelu, &gelu_inputs(n)));
        simd.push(measure_simd("exp", exp, &exp_inputs(n)));
    }
    simd.push(measure_simd("gelu_layer", gelu, &gelu_layer));
    let config = roberta_bench_config();
    let fused = vec![measure_fused_layernorm(&kit, config.hidden, 16)];

    // The codebook GEMM on the frozen RoBERTa-base linear shapes
    // (attention projection hidden×hidden, FFN expand hidden×ffn),
    // across the centroid-count sweep that traces the
    // accuracy-per-table-size frontier.
    let shapes = [(config.hidden, config.hidden), (config.hidden, config.ffn)];
    let sweep = shapes
        .into_iter()
        .flat_map(|shape| [8, 16, 32].map(|k| (shape, k)));
    let codebook = sweep.map(|(shape, k)| measure_codebook(shape, k, ROBERTA_BENCH_SEQ));

    let tables = kernels::tables([results, simd, fused, codebook.collect()]);
    for table in &tables {
        println!("{}", table.render());
    }
    let level = nnlut_core::engine::simd::detect().name();
    println!("simd level: {level} (detected at bake time)");
    let text = kernels::ledger(level, &tables);
    std::fs::write("BENCH_lut_eval.json", text).expect("write BENCH_lut_eval.json");
    println!("wrote BENCH_lut_eval.json");
}
