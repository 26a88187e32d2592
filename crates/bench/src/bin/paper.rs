//! Regenerates the NN-LUT paper's tables: Fig. 2, Tables 2(a), 2(b), 3, 4
//! and 5, the §4.1 ablations and two extensions. Each artifact is one
//! function returning [`Table`]s; one formatter prints them, and a full
//! run records them in `BENCH_paper.json` (in the working directory),
//! which `bench_check` gates.
//!
//! Run: `cargo run --release -p nnlut-bench --bin paper [ARTIFACT...]`
//!
//! With no names every artifact runs and the ledger is written; naming
//! artifacts (`fig2 table5` …) prints only those and writes nothing.
//! Inputs shared between artifacts (the paper kit, the FP32 GLUE-like
//! task benches) are built once, on first use.

use std::cell::OnceCell;

use nnlut_bench::paper::{ledger, SECTIONS};
use nnlut_bench::{paper_kit, Json, Row, Table, KIT_SEED};
use nnlut_core::calibrate::CalibrationConfig;
use nnlut_core::convert::nn_to_lut;
use nnlut_core::funcs::TargetFunction::{self, Exp, Gelu, Recip, Rsqrt};
use nnlut_core::linear_lut::BreakpointMode;
use nnlut_core::metrics::{max_abs_error, mean_abs_error};
use nnlut_core::precision::Precision;
use nnlut_core::recipe::{recipe_for, train_recipe, Recipe};
use nnlut_core::train::{Loss, SamplingMode, TrainConfig};
use nnlut_core::NnLutKit;
use nnlut_npu::{simulate, CycleBreakdown, ModelShape, NonlinearImpl, NpuConfig};
use nnlut_transformer::eval::{BenchConfig, SquadBench, TaskBench};
use nnlut_transformer::tasks::GlueTask;
use nnlut_transformer::{backend, softermax, MatmulMode, Nonlinearity as Nl, TransformerConfig};

/// Inputs more than one artifact reads, each built on first use.
#[derive(Default)]
struct Inputs {
    kit: OnceCell<NnLutKit>,
    /// FP32-body benches, indexed by task discriminant.
    benches: [OnceCell<TaskBench>; 8],
}

impl Inputs {
    /// The paper-config 16-entry NN-LUT kit.
    fn kit(&self) -> &NnLutKit {
        self.kit.get_or_init(paper_kit)
    }

    /// The frozen FP32-body model and data of `task`.
    fn bench(&self, task: GlueTask) -> &TaskBench {
        self.benches[task as usize].get_or_init(|| TaskBench::new(task, &BenchConfig::default()))
    }
}

/// The 16-entry Linear-LUT baseline kit (equally spaced breakpoints,
/// least-squares segment fits).
fn linear_kit() -> NnLutKit {
    NnLutKit::linear_baseline(16)
}

/// A kit's approximation of one non-linear operator.
type KitOp = fn(&NnLutKit, f32) -> f32;

/// An exact reference function.
type Exact = fn(f32) -> f32;

/// One row of per-task scores followed by their mean.
fn task_row((label, nl): (&str, Nl), benches: &[&TaskBench]) -> Row {
    let mut scores: Vec<f32> = benches.iter().map(|b| b.score(&nl)).collect();
    scores.push(scores.iter().sum::<f32>() / scores.len() as f32);
    Row::new(label, scores)
}

/// A Table 2 layout: one column per GLUE-like task, then their mean.
fn glue_table(section: &'static str, title: &str, label: &'static str, rows: Vec<Row>) -> Table {
    let tasks = GlueTask::ALL.map(GlueTask::name);
    Table::new(section, title, label, rows).cols(1, tasks.into_iter().chain(["Avg"]))
}

/// L1 error over `range` of the `n`-entry LUT trained from `recipe`.
fn recipe_l1(recipe: Recipe, n: usize, cfg: &TrainConfig, seed: u64, range: (f32, f32)) -> f32 {
    let lut = nn_to_lut(&train_recipe(&recipe, n, cfg, seed).0);
    mean_abs_error(|x| lut.eval(x), |x| recipe.func.eval(x), range, 8_000)
}

/// **FIG2**: NN-LUT vs Linear-LUT approximation accuracy for GELU,
/// Softmax (exp/div) and LayerNorm (1/√x): the figure's bottom row (L1
/// and max error) and its top row's curves as 33 samples per operator.
fn fig2(inputs: &Inputs) -> Vec<Table> {
    let (nn, lin) = (inputs.kit(), &linear_kit());
    let panels: [(&str, KitOp, TargetFunction, (f32, f32)); 4] = [
        ("GELU", NnLutKit::gelu, Gelu, (-5.0, 5.0)),
        ("Softmax(exp)", NnLutKit::exp, Exp, (-12.0, 0.0)),
        ("Softmax(div)", NnLutKit::recip, Recip, (1.0, 64.0)),
        ("LayerNorm(1/sqrt)", NnLutKit::inv_sqrt, Rsqrt, (0.01, 64.0)),
    ];
    let (mut errors, mut samples) = (Vec::new(), Vec::new());
    for (name, op, f, range) in panels {
        let l1 = |kit| mean_abs_error(|x| op(kit, x), |x| f.eval(x), range, 8000);
        let max = |kit| max_abs_error(|x| op(kit, x), |x| f.eval(x), range, 8000);
        errors.push(Row::new(name, [l1(nn), l1(lin), max(nn), max(lin)]));
        for i in 0..=32 {
            let x = range.0 + (range.1 - range.0) * i as f32 / 32.0;
            samples.push(Row::new(name, [x, f.eval(x), op(nn, x), op(lin, x)]));
        }
    }
    let title = "Figure 2: approximation accuracy of 16-entry LUTs, L1 / max error";
    let curves = "Figure 2 curves: 33 samples per operator, for replotting";
    let samples = Table::new("fig2_samples", curves, "operator", samples).cols(4, ["x"]);
    vec![
        Table::new("fig2", title, "operator", errors)
            .cols(5, ["NN-LUT L1", "Linear L1", "NN-LUT max", "Linear max"]),
        samples.cols(5, ["exact", "nn_lut", "linear_lut"]),
    ]
}

const T2A_SHAPE: &str = "NN-LUT rows ≈ Baseline on every task;\n\
    Linear-LUT degrades, with its worst rows involving LayerNorm.";

/// **T2A**: direct approximation on the FP32 RoBERTa-like body across the
/// eight synthetic GLUE-like tasks (see `nnlut_transformer::tasks` for the
/// substitution): each LUT method on GELU only, Softmax only, LayerNorm
/// only, and all three (input scaling applied to both LUT methods for
/// LayerNorm, as in the paper).
fn table2a(inputs: &Inputs) -> Vec<Table> {
    let benches = GlueTask::ALL.map(|t| inputs.bench(t));
    let mut rows = vec![task_row(("Baseline", Nl::exact()), &benches)];
    let lin = linear_kit();
    for (method, kit) in [("Linear-LUT(FP32)", &lin), ("NN-LUT(FP32)", inputs.kit())] {
        let sites = [
            ("GELU only", Nl::gelu_only(kit)),
            ("Softmax only", Nl::softmax_only(kit)),
            ("LayerNorm only", Nl::layernorm_only(kit)),
            ("Altogether", Nl::all_lut(kit)),
        ];
        for (site, nl) in sites {
            rows.push(task_row((&format!("{method} {site}"), nl), &benches));
        }
    }
    let title = "Table 2(a): direct approximation on FP32 RoBERTa-like body";
    vec![glue_table("table2a", title, "Method", rows).shape(T2A_SHAPE)]
}

const T2B_SHAPE: &str = "NN-LUT FP32 on par with I-BERT; INT32 slightly below FP32;\n\
    calibration (+C) lifts both, surpassing I-BERT on average.";

/// **T2B**: the INT8-body RoBERTa-like model: FP32 non-linear baseline,
/// I-BERT's integer kernels, and NN-LUT at FP32 and INT32, each with and
/// without §3.3.3 calibration ("+C"). As in the paper, only the LayerNorm
/// 1/√x table is calibrated, on activations captured with the NN-LUT
/// backend in place.
fn table2b(inputs: &Inputs) -> Vec<Table> {
    let cfg = BenchConfig {
        body_mode: MatmulMode::Int8,
        ..BenchConfig::default()
    };
    let benches = GlueTask::ALL.map(|t| TaskBench::new(t, &cfg));
    let (benches, kit) = (benches.each_ref(), inputs.kit());
    let mut samples = Vec::new();
    for b in benches {
        let cap = b.capture_layernorm(&Nl::all_lut(kit), 2048, 16);
        samples.extend_from_slice(cap.samples());
    }
    let (mut cal, config) = (kit.clone(), CalibrationConfig::default());
    cal.calibrate(Rsqrt, &samples, &config, KIT_SEED)
        .expect("calibration on a non-empty capture");
    let int32 = |k: &NnLutKit| k.with_precision(Precision::Int32).expect("an INT32 kit");
    let int32 = |k: &NnLutKit| Nl::all_lut(&int32(k));
    let rows = [
        ("Baseline (FP32 ops)", Nl::exact()),
        ("I-BERT (INT32)", Nl::all_ibert()),
        ("NN-LUT FP32", Nl::all_lut(kit)),
        ("NN-LUT FP32+C", Nl::all_lut(&cal)),
        ("NN-LUT INT32", int32(kit)),
        ("NN-LUT INT32+C", int32(&cal)),
    ];
    let title = "Table 2(b): INT8 RoBERTa-like body (non-linear ops as labelled)";
    let rows = rows.map(|r| task_row(r, &benches)).to_vec();
    vec![glue_table("table2b", title, "Method / Precision", rows).shape(T2B_SHAPE)]
}

/// **T3**: Softmax approximated in the MobileBERT-like span model on the
/// SQuAD-like task. MobileBERT uses NoNorm + ReLU, so Softmax is its only
/// non-linear op; MatMul runs in FP16 and the softmax tables in FP32 and
/// FP16.
fn table3(inputs: &Inputs) -> Vec<Table> {
    let bench = SquadBench::new(&BenchConfig {
        config: TransformerConfig::mobilebert_tiny(),
        seq_len: 32,
        n_train: 256,
        n_eval: 128,
        body_mode: MatmulMode::F16,
        ..BenchConfig::default()
    });
    let fp16 = |k: &NnLutKit| k.with_precision(Precision::F16).expect("an FP16 kit");
    let (nn, lin) = (inputs.kit(), &linear_kit());
    let baseline = bench.f1(&Nl::exact());
    let rows = [
        ("Baseline (FP32 softmax)", None),
        ("Linear-LUT FP32", Some(lin.clone())),
        ("Linear-LUT FP16", Some(fp16(lin))),
        ("NN-LUT FP32", Some(nn.clone())),
        ("NN-LUT FP16", Some(fp16(nn))),
    ]
    .map(|(label, kit)| {
        let f1 = kit.map_or(baseline, |k| bench.f1(&Nl::softmax_only(&k)));
        Row::new(label, [f1, f1 - baseline])
    });
    let title = "Table 3: MobileBERT-like SQuAD-like span task, Softmax approximation \
                 (MatMul computed in FP16 in all cases)";
    let shape = "NN-LUT matches the baseline in both precisions; Linear-LUT loses F1 in both.";
    let table = Table::new("table3", title, "Approx. type", rows);
    vec![table.cols(1, ["F1", "(loss)"]).shape(shape)]
}

/// **T4**: arithmetic-unit cost from the 7 nm-class component cost model
/// (see `nnlut-hw` for the synthesis-flow substitution): the units, the
/// headline I-BERT / NN-LUT(INT32) ratios beside the paper's, and each
/// INT32 unit's per-stage breakdown.
fn table4(_: &Inputs) -> Vec<Table> {
    let units = nnlut_hw::table4().into_iter().map(|r| {
        let values = [r.area_um2, r.power_mw, r.delay_ns];
        let cycles = r.latency_cycles.map(f64::from);
        let label = format!("{} {}", r.unit, r.precision);
        Row::new(label, values.into_iter().chain(cycles))
    });
    let (area, power, delay) = nnlut_hw::report::table4_ratios();
    let mut ratios = Row::new("I-BERT / NN-LUT(INT32)", [area, power, delay]);
    ratios.paper = Some(vec![2.63, 36.4, 3.93]);
    let (nn, ib) = nnlut_hw::report::units();
    let mut stages = Vec::new();
    for unit in [nn, ib] {
        for (stage, c) in unit.stage_breakdown() {
            let label = format!("{}: {stage}", unit.name);
            stages.push(Row::new(label, [c.area_um2, c.delay_ns]));
        }
    }
    let title = "Table 4: arithmetic-unit comparison (7nm-class cost model)";
    let units = Table::new("table4", title, "Approximation / Precision", units);
    let units = units.cols(2, ["Area (um2)"]).cols(4, ["Power (mW)"]);
    let units = units.cols(2, ["Delay (ns)"]);
    let ratios = Table::new("table4_ratios", "Table 4 ratios", "ratio", [ratios]);
    let ratios = ratios.cols(2, ["area"]).cols(1, ["power"]);
    let stages = Table::new("table4_stages", "Table 4 stages", "unit: stage", stages);
    vec![
        units.cols(0, ["GELU cyc", "EXP cyc", "SQRT cyc"]),
        ratios.cols(2, ["delay"]),
        stages.cols(1, ["area (um2)"]).cols(2, ["delay (ns)"]),
    ]
}

const T5_SHAPE: &str = "I-BERT non-linear share grows to ~38% at SL=1024 (softmax is quadratic\n\
    in SL); NN-LUT cuts it roughly in half, yielding up to ~1.26x end-to-end speedup.";

/// **T5**: system-level cycle breakdown (percent per op) of RoBERTa-base
/// on the Fig. 3c mobile NPU across sequence lengths 16 … 1024, with the
/// NN-LUT-over-I-BERT speedup row.
fn table5(_: &Inputs) -> Vec<Table> {
    let entries = nnlut_npu::table5();
    let pct = |c: &CycleBreakdown| {
        let p = c.percentages();
        [p.0, p.1, p.2, p.3, p.4]
    };
    let ops = ["GELU", "LayerNorm", "Softmax", "MatMul", "etc."];
    let mut rows = Vec::new();
    for (name, side) in [("I-BERT", 0), ("NN-LUT", 1)] {
        for (i, op) in ops.iter().enumerate() {
            let share = entries.iter().map(|e| pct([&e.ibert, &e.nnlut][side])[i]);
            rows.push(Row::new(format!("{name}  {op}"), share));
        }
    }
    let speedups = entries.iter().map(|e| e.speedup);
    rows.push(Row::new("Speedup (times)", speedups));
    let title = "Table 5: system-level performance comparison, RoBERTa relative computation \
                 cycles (%)";
    let lengths = entries.iter().map(|e| e.seq_len.to_string());
    let table = Table::new("table5", title, "Ops / Seq-Length", rows);
    vec![table.cols(2, lengths).shape(T5_SHAPE)]
}

/// **AB-ENT**: L1 error of the trained NN-LUT per Table-1 function as the
/// entry count sweeps 4 … 64 ("16-entries are enough", paper §4.1).
fn ablation_entries(_: &Inputs) -> Vec<Table> {
    let entries = [4usize, 8, 16, 32, 64];
    let rows = TargetFunction::TABLE1.map(|func| {
        let r = recipe_for(func);
        let paper = TrainConfig::paper();
        let errs = entries.map(|e| recipe_l1(r, e, &paper, 0xab ^ e as u64, r.domain));
        Row::new(func.name(), errs)
    });
    let title = "Ablation: LUT entry count vs L1 approximation error";
    let shape = "error falls steeply up to 16 entries and flattens beyond — 16 entries \
                 suffice, as the paper concludes.";
    let table = Table::new("ablation_entries", title, "function", rows);
    vec![table.cols(6, entries.map(|e| e.to_string())).shape(shape)]
}

/// **AB-LOSS**: each Table-1 approximator trained under L1 and L2 loss,
/// scored by L1 approximation error ("L1 loss slightly outperforms the
/// other choices", paper §4.1).
fn ablation_loss(_: &Inputs) -> Vec<Table> {
    let rows = TargetFunction::TABLE1.map(|func| {
        let r = recipe_for(func);
        let errs = [Loss::L1, Loss::L2].map(|loss| {
            let cfg = TrainConfig {
                loss,
                ..TrainConfig::paper()
            };
            recipe_l1(r, 16, &cfg, 0x1055, r.domain)
        });
        Row::new(func.name(), errs)
    });
    let title = "Ablation: L1 vs L2 training loss (L1 approximation error)";
    let shape = "L1 wins or ties on most functions (the paper reports a slight L1 advantage).";
    let table = Table::new("ablation_loss", title, "function", rows);
    vec![table.cols(6, ["L1-trained", "L2-trained"]).shape(shape)]
}

const AB_BP_SHAPE: &str = "Linear mode fails on the large-dynamic-range functions; Exponential\n\
    mode fixes exactly those (it matches the power-law curvature) but is undefined on\n\
    sign-crossing domains like GELU's — learned breakpoints are the only placement that\n\
    handles every function with one mechanism (paper §3.1).";

/// **AB-BP**: breakpoint placement (paper §3.1): pre-determined Linear
/// and Exponential modes vs NN-LUT's learned breakpoints.
fn ablation_breakpoints(inputs: &Inputs) -> Vec<Table> {
    let exponential = NnLutKit::linear_baseline_with_mode(16, BreakpointMode::Exponential);
    let kits = [&linear_kit(), &exponential, inputs.kit()];
    let (exp, rsqrt): (Exact, Exact) = (|x| (x as f64).exp() as f32, |x| 1.0 / x.sqrt());
    let panels: [(&str, KitOp, Exact, (f32, f32)); 4] = [
        ("gelu", NnLutKit::gelu, nnlut_core::funcs::gelu, (-5.0, 5.0)),
        ("exp", NnLutKit::exp, exp, (-12.0, 0.0)),
        ("recip", NnLutKit::recip, |x| 1.0 / x, (1.0, 1024.0)),
        ("rsqrt", NnLutKit::inv_sqrt, rsqrt, (0.01, 1024.0)),
    ];
    let rows = panels.map(|(name, op, exact, range)| {
        let errs = kits.map(|k| mean_abs_error(|x| op(k, x), exact, range, 8_000));
        Row::new(name, errs)
    });
    let title = "Ablation: breakpoint placement (L1 error, 16 entries)";
    let table = Table::new("ablation_breakpoints", title, "function", rows);
    let table = table.cols(6, ["Linear mode", "Exponential", "NN-LUT (learned)"]);
    vec![table.shape(AB_BP_SHAPE)]
}

/// **AB-SAMP**: uniform (the paper's text) vs log-uniform (this
/// reproduction's default for exp, 1/x, 1/√x) training-input sampling,
/// scored on the knee ranges where the composed Softmax and LayerNorm
/// kernels evaluate them: the deviation `recipe_for` documents.
fn ablation_sampling(_: &Inputs) -> Vec<Table> {
    let knees = [
        (Exp, (-8.0, 0.0)),
        (Recip, (1.0, 32.0)),
        (Rsqrt, (1.0, 32.0)),
    ];
    let rows = knees.map(|(func, knee)| {
        let errs = [SamplingMode::Uniform, SamplingMode::LogUniform].map(|sampling| {
            let recipe = Recipe {
                sampling,
                ..recipe_for(func)
            };
            recipe_l1(recipe, 16, &TrainConfig::paper(), 0x5a, knee)
        });
        Row::new(func.name(), errs)
    });
    let title = "Ablation: uniform vs log-uniform training-input sampling";
    let shape = "log-uniform sampling cuts the knee-region error several-fold, justifying \
                 the documented deviation.";
    let table = Table::new("ablation_sampling", title, "function", rows);
    let table = table.cols(6, ["uniform (knee L1 err)", "log-uniform (knee L1 err)"]);
    vec![table.shape(shape)]
}

const AB_CAL_SHAPE: &str = "a handful of unlabeled examples repairs the weakly-trained knee\n\
    (error falls toward the log-uniform kit's), and the budget saturates quickly —\n\
    calibration is cheap, as the paper claims (<5% of fine-tuning time).";

/// **AB-CAL** (extension): the calibration budget. Starting from the
/// paper-literal kit (uniform input sampling, whose 1/√x knee is weakly
/// trained), sweep the number of unlabeled MRPC examples whose captured
/// LayerNorm variances feed §3.3.3 calibration. Errors are scored on a
/// held-out capture: the distribution the model's LayerNorms produce.
fn ablation_calibration(inputs: &Inputs) -> Vec<Table> {
    let bench = inputs.bench(GlueTask::Mrpc);
    let paper = TrainConfig::paper();
    let base = NnLutKit::train_with_sampling(16, KIT_SEED, &paper, SamplingMode::Uniform);
    let holdout = bench.capture_layernorm(&Nl::all_lut(&base), 8192, 64);
    let row = |label: &str, kit: &NnLutKit| {
        let mut acc = 0.0f64;
        for &v in holdout.samples() {
            let exact = 1.0 / v.sqrt();
            acc += ((kit.inv_sqrt(v) - exact).abs() / exact) as f64;
        }
        let err = acc as f32 / holdout.len() as f32;
        Row::new(label, [err, bench.score(&Nl::all_lut(kit))])
    };
    let mut rows = vec![row("0 (direct)", &base)];
    for examples in [2usize, 8, 32, 64] {
        let mut kit = base.clone();
        let cap = bench.capture_layernorm(&Nl::all_lut(&kit), 8192, examples);
        let config = CalibrationConfig::default();
        kit.calibrate(Rsqrt, cap.samples(), &config, 11)
            .expect("calibration on a non-empty capture");
        rows.push(row(&examples.to_string(), &kit));
    }
    // For reference: the log-uniform (paper) kit needs no calibration.
    rows.push(row("(log-unif)", inputs.kit()));
    let title = "Ablation: calibration sample budget (LayerNorm 1/sqrt), starting from \
                 paper-literal uniform sampling (weak knee)";
    let table = Table::new("ablation_calibration", title, "examples", rows);
    let table = table.cols(6, ["empirical rel. err"]).shape(AB_CAL_SHAPE);
    vec![table.cols(1, ["task score"])]
}

const EXT_DEC_SHAPE: &str = "decoder speedups exceed the encoder-mode Table 5, and NN-LUT \
    reaches throughput parity with fewer SFU lanes.";

/// **EXT-DEC** (extension): the Fig. 3c NPU model on single-token decoder
/// steps with a KV cache, where the GEMMs collapse to matrix–vector
/// products while Softmax still scans the whole context; and the SFU lanes
/// each implementation needs before its non-linear ops hide behind the
/// MAC arrays (a workload no lane count matches records `null`, which the
/// ledger gate rejects).
fn ext_decoder(_: &Inputs) -> Vec<Table> {
    let (npu, shape) = (NpuConfig::mobile_soc(), ModelShape::roberta_base());
    let share = |c: &CycleBreakdown| (c.gelu + c.layernorm + c.softmax) / c.total() * 100.0;
    let steps = [64usize, 256, 1024, 4096].map(|context| {
        let w = nnlut_npu::decoder_step_workload(&shape, context);
        let ib = simulate(&npu, &w, NonlinearImpl::IBert);
        let nn = simulate(&npu, &w, NonlinearImpl::NnLut);
        let (i, n) = (ib.total(), nn.total());
        Row::new(context.to_string(), [i, n, i / n, share(&ib), share(&nn)])
    });
    let encoder = nnlut_npu::transformer_workload(&shape, 512);
    let lanes = [NonlinearImpl::NnLut, NonlinearImpl::IBert].map(|imp| {
        let lanes = nnlut_npu::sfu_lanes_for_throughput_match(&npu, &encoder, imp);
        Row::new(imp.to_string(), [lanes.map_or(f64::NAN, |l| l as f64)])
    });
    let title = "Extension: decoder-step (KV-cached generation) breakdown; nl % is the \
                 non-linear share of cycles";
    let sfu = "Extension: SFU lanes that hide the non-linear ops behind the GEMMs (encoder, \
               SL = 512; searched up to 4096)";
    let steps = Table::new("ext_decoder", title, "context", steps);
    let (cycles, shares) = (["I-BERT cyc", "NN-LUT cyc"], ["I-BERT nl %", "NN-LUT nl %"]);
    let lanes = Table::new("ext_decoder_sfu", sfu, "implementation", lanes);
    vec![
        steps.cols(0, cycles).cols(2, ["speedup"]).cols(1, shares),
        lanes.cols(0, ["SFU lanes"]).shape(EXT_DEC_SHAPE),
    ]
}

const EXT_SM_SHAPE: &str = "at the operator level NN-LUT tracks exact softmax ~7x more closely\n\
    than drop-in Softermax (whose base-2 temperature shift is meant to be absorbed by\n\
    fine-tuning). At the task level the synthetic substrate is tolerant of temperature\n\
    changes, so both survive — the operator-level gap is the reproducible signal here.";

/// **EXT-SM** (extension): Softermax (Stevens et al., DAC 2021, the
/// paper's reference \[19\]) beside NN-LUT, at the operator and the task
/// level. Softermax is meant to be fine-tuned into the model; used
/// drop-in (the NN-LUT paper's setting) its base-2 temperature shift
/// costs accuracy.
fn ext_softermax(inputs: &Inputs) -> Vec<Table> {
    let kit = inputs.kit();
    let logits = |r: usize| (0..128).map(move |i| (((i * 37 + r * 13) % 97) as f32) * 0.12 - 5.0);
    let rows: Vec<Vec<f32>> = (0..64).map(|r| logits(r).collect()).collect();
    let n = rows.len() * 128;
    // Mean |Δp| against exact softmax over every row, summed in order.
    let mean_err = |softmax: &dyn Fn(&mut [f32])| {
        let errs = rows.iter().flat_map(|row| {
            let (mut exact, mut approx) = (row.clone(), row.clone());
            backend::exact_softmax(&mut exact);
            softmax(&mut approx);
            approx.into_iter().zip(exact).map(|(a, e)| (a - e).abs())
        });
        errs.sum::<f32>() / n as f32
    };
    let exp2 = |x: f32| (x as f64).exp2() as f32;
    let exp2_err = mean_abs_error(softermax::exp2_linear, exp2, (-8.0, 0.0), 4000);
    let softermax_err = mean_err(&softermax::softermax);
    let operator = [
        ("NN-LUT mean |Δp|", mean_err(&|xs| kit.softmax(xs))),
        ("Softermax (base-2) mean |Δp|", softermax_err),
        ("exp2 kernel L1", exp2_err),
    ];
    let sites = [Nl::exact(), Nl::softmax_only(kit), Nl::softermax_only()];
    let tasks = [GlueTask::Sst2, GlueTask::Qqp, GlueTask::StsB].map(|task| {
        let bench = inputs.bench(task);
        Row::new(task.name(), sites.each_ref().map(|nl| bench.score(nl)))
    });
    let title = format!(
        "Extension: softmax baselines, operator level: mean |Δp| vs exact softmax over {n} \
         attention weights, and the exp2 piecewise-linear kernel's L1 error on (-8,0)"
    );
    let task_title = "Extension: softmax baselines, task level (Softmax site only)";
    let operator = operator.map(|(label, err)| Row::new(label, [err]));
    let tasks = Table::new("ext_softermax", task_title, "task", tasks).shape(EXT_SM_SHAPE);
    vec![
        Table::new("ext_softermax_operator", title, "kernel", operator).cols(6, ["error"]),
        tasks.cols(1, ["baseline", "NN-LUT", "Softermax"]),
    ]
}

/// An artifact computes its tables from the shared inputs.
type Artifact = fn(&Inputs) -> Vec<Table>;

/// Every artifact, by its command-line name, in run order.
const ARTIFACTS: [(&str, Artifact); 13] = [
    ("fig2", fig2),
    ("table2a", table2a),
    ("table2b", table2b),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("ablation_entries", ablation_entries),
    ("ablation_loss", ablation_loss),
    ("ablation_breakpoints", ablation_breakpoints),
    ("ablation_sampling", ablation_sampling),
    ("ablation_calibration", ablation_calibration),
    ("ext_decoder", ext_decoder),
    ("ext_softermax", ext_softermax),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known = ARTIFACTS.map(|(name, _)| name);
    if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
        let known = known.join(" ");
        eprintln!("paper: unknown artifact `{bad}`; expected any of: {known}");
        std::process::exit(2);
    }
    let (inputs, mut tables) = (Inputs::default(), Vec::new());
    for (name, artifact) in ARTIFACTS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            eprintln!("computing {name} …");
            for table in artifact(&inputs) {
                println!("{}", table.render());
                tables.push(table);
            }
        }
    }
    if names.is_empty() {
        let sections: Vec<&str> = tables.iter().map(|t| t.section).collect();
        assert_eq!(sections, SECTIONS.split_whitespace().collect::<Vec<_>>());
        let header = [("kit_seed", Json::Num(KIT_SEED as f64))];
        let text = ledger("paper", &header, &tables);
        std::fs::write("BENCH_paper.json", text).expect("write BENCH_paper.json");
        println!("wrote BENCH_paper.json");
    }
}
