//! The traced replay and the span journal.
//!
//! No program code is instrumented. The replay re-runs a traced run's own
//! inputs through public functions: `Batcher` packs them under the
//! replicas' policy, `BertModel::encode_batch` and `prefill` run on a
//! timing executor whose every `run_n` call is one op, and `decode_step`
//! and `greedy_token` are timed directly. The op of a call is known from
//! its position: `encode_batch` makes 1 + 12·layers calls (embedding,
//! then per layer q, k, v, attention, wo, residual, LayerNorm, FFN1,
//! GELU, FFN2, residual, LayerNorm) and `prefill` makes 12·layers (its
//! embedding is not lane-split). A batch whose call count differs aborts
//! the replay rather than mislabel a single op.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nnlut_core::{OpCounters, OpKind};
use nnlut_npu::{simulate, transformer_workload, ModelShape, NonlinearImpl, NpuConfig};
use nnlut_serve::{Batcher, CloseReason, Stage};
use nnlut_transformer::{BatchExecutor, BertModel, MatmulMode, Nonlinearity, PaddedBatch};

use crate::drive::{batch_policy, Done, Source};
use crate::measure::Metrics;

/// Per-layer op order inside one encoder layer, as the executor sees it.
const LAYER_OPS: [&str; 12] = [
    "qkv", "qkv", "qkv", "attn", "wo", "residual", "ln", "ffn1", "gelu", "ffn2", "residual", "ln",
];

/// Ops reported as `model.<op>_ns_tok`, in print order.
const MODEL_OPS: [&str; 9] = [
    "embed", "qkv", "attn", "wo", "ffn1", "gelu", "ffn2", "ln", "residual",
];

/// The op of the `j`-th per-layer executor call, and its span name
/// (`layer<l>.<op>`).
fn layer_op(j: usize) -> (&'static str, String) {
    let op = LAYER_OPS[j % LAYER_OPS.len()];
    (op, format!("layer{}.{op}", j / LAYER_OPS.len()))
}

/// Real tokens of encode batches to replay (about 2 s of FP32 work on one
/// core at the bench shapes).
const ENCODE_TOKENS: usize = 1024;
/// Prompt tokens to prefill in the decode replay.
const PREFILL_TOKENS: usize = 256;
/// Decode steps (each followed by an LM-head read) to time.
const DECODE_STEPS: usize = 4;

/// One span of the journal; times are nanoseconds from the run origin.
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans in memory until the run ends.
pub struct Journal {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Journal {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        parent: Option<u64>,
        name: String,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            start_ns,
            end_ns,
        });
        id
    }

    /// Request spans from each finished request's lifecycle trace: a root
    /// from its due time to its last event, with one child per stage
    /// interval (the interval before an event belongs to that event's
    /// stage, as in `RequestTrace::breakdown`) plus the generator's own
    /// lateness.
    pub fn add_requests(&mut self, done: &[Done]) {
        for d in done {
            let Some(last) = d.events.last() else {
                continue;
            };
            let name = match d.source {
                Source::Generate => "generate",
                _ => "encode",
            };
            let root = self.push(
                None,
                name.into(),
                "bench",
                self.ns(d.due),
                self.ns(d.sent + last.at),
            );
            if d.sent > d.due {
                self.push(
                    Some(root),
                    "late".into(),
                    "bench",
                    self.ns(d.due),
                    self.ns(d.sent),
                );
            }
            let mut prev = self.ns(d.sent);
            for e in &d.events {
                let at = self.ns(d.sent + e.at);
                self.push(
                    Some(root),
                    e.stage.as_str().into(),
                    stage_layer(e.stage, e.replica),
                    prev,
                    at,
                );
                prev = at;
            }
        }
    }

    /// Writes the journal as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.layer, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }

    /// Self time (span minus the part its children cover) summed per
    /// `(layer, name)`, largest first. Layer-indexed op names
    /// (`layer1.ffn1`) fold into their op.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut totals: BTreeMap<String, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let op = s.name.rsplit('.').next().unwrap_or(&s.name);
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
            *totals.entry(format!("{}/{op}", s.layer)).or_default() += own as f64 / 1e6;
        }
        let mut out: Vec<(String, f64)> = totals.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// The module a stage's waiting or work belongs to.
fn stage_layer(stage: Stage, replica: Option<usize>) -> &'static str {
    match stage {
        Stage::Assembled => "serve.batcher",
        Stage::Dispatched | Stage::Reordered => "serve.async_server",
        Stage::Encoded => "transformer.model",
        Stage::Decoded => "transformer.decode",
        Stage::Resolved if replica.is_some() => "serve.async_server",
        _ => "serve.shard",
    }
}

/// A two-lane executor that runs its lanes inline and records each
/// call's interval. Two lanes, because with one `run_row_chunks` skips
/// the executor and the ops would go unseen.
struct TimingExec {
    origin: Instant,
    calls: Mutex<Vec<(u64, u64)>>,
}

impl TimingExec {
    fn take(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.calls.lock().expect("timing executor poisoned"))
    }
}

impl BatchExecutor for TimingExec {
    fn lanes(&self) -> usize {
        2
    }

    fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        self.run_n(2, f);
    }

    fn run_n(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        let start = self.origin.elapsed().as_nanos() as u64;
        for lane in 0..n {
            f(lane);
        }
        let end = self.origin.elapsed().as_nanos() as u64;
        self.calls
            .lock()
            .expect("timing executor poisoned")
            .push((start, end));
    }
}

fn gemm_flops(model: &BertModel, rows: usize) -> f64 {
    let c = model.config();
    let (d, f) = (c.hidden as f64, c.ffn as f64);
    // q, k, v, wo: 4·(2·rows·d·d); ffn1 + ffn2: 2·(2·rows·d·f); per layer.
    c.layers as f64 * rows as f64 * (8.0 * d * d + 4.0 * d * f)
}

fn median(xs: &[f64]) -> f64 {
    crate::stats::median(xs).unwrap_or(0.0)
}

/// Runs the replay on `encodes` (packed into batches) and `prompts`
/// (prefilled, then decoded a few steps), journaling batch → op spans.
pub fn replay(
    model: &BertModel,
    nl: &Nonlinearity,
    mode: MatmulMode,
    encodes: &[Vec<usize>],
    prompts: &[Vec<usize>],
    journal: &mut Journal,
) -> Result<Metrics, String> {
    let layers = model.config().layers;
    let counters = Arc::new(OpCounters::new());
    let nl = nl.clone().with_profile(Arc::clone(&counters));
    let exec = TimingExec {
        origin: journal.origin,
        calls: Mutex::new(Vec::new()),
    };

    // Encode: the replicas' policy packs the inputs, drained oldest-first.
    let mut batcher = Batcher::new(batch_policy());
    for (i, t) in encodes.iter().enumerate() {
        batcher.push(i as u64, t.clone());
    }
    let mut batches: Vec<PaddedBatch> = Vec::new();
    let mut tokens = 0usize;
    while tokens < ENCODE_TOKENS {
        let Some(bucket) = batcher.plan_drain() else {
            break;
        };
        let closed = batcher.close_bucket(bucket, Instant::now(), CloseReason::Drain);
        tokens += closed.batch.tokens();
        batches.push(closed.batch);
    }
    let mut op_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut wall_ns, mut flops, mut seqs) = (0.0f64, 0.0f64, 0usize);
    for batch in &batches {
        let start = journal.ns(Instant::now());
        std::hint::black_box(model.encode_batch(batch, &nl, mode, &exec));
        let end = journal.ns(Instant::now());
        let calls = exec.take();
        if calls.len() != 1 + LAYER_OPS.len() * layers {
            return Err(format!(
                "encode_batch made {} executor calls, expected {} — the op labels no longer line up",
                calls.len(),
                1 + LAYER_OPS.len() * layers
            ));
        }
        let root = journal.push(None, "encode_batch".into(), "transformer.model", start, end);
        let (s, e) = calls[0];
        *op_ns.entry("embed").or_default() += (e - s) as f64;
        journal.push(Some(root), "embed".into(), "transformer.model", s, e);
        for (j, &(s, e)) in calls[1..].iter().enumerate() {
            let (op, name) = layer_op(j);
            *op_ns.entry(op).or_default() += (e - s) as f64;
            journal.push(Some(root), name, "transformer.model", s, e);
        }
        wall_ns += (end - start) as f64;
        flops += gemm_flops(model, batch.padded_tokens());
        seqs += batch.sequences();
    }
    let lut = counters.snapshot();
    let lut_ns: f64 = [OpKind::Softmax, OpKind::Gelu, OpKind::LayerNorm]
        .iter()
        .map(|&k| lut.get(k).nanos as f64)
        .sum();
    let tok = tokens.max(1) as f64;
    let mut m: Metrics = Vec::new();
    for op in MODEL_OPS {
        m.push((
            format!("model.{op}_ns_tok"),
            op_ns.get(op).copied().unwrap_or(0.0) / tok,
            "ns/tok",
        ));
    }
    m.push(("model.encode_ns_tok".into(), wall_ns / tok, "ns/tok"));
    let covered: f64 = op_ns.values().sum();
    m.push(("model.coverage".into(), covered / wall_ns, "ratio"));
    let gemm_ns: f64 = ["qkv", "wo", "ffn1", "ffn2"]
        .iter()
        .filter_map(|o| op_ns.get(o))
        .sum();
    m.push(("model.gemm_gflops".into(), flops / gemm_ns, "GFLOP/s"));
    m.push(("model.nonlinear_share".into(), lut_ns / wall_ns, "ratio"));

    // Table 5 at the replayed shape: the NPU model's predicted share.
    let cfg = model.config();
    let shape = ModelShape {
        layers: cfg.layers,
        hidden: cfg.hidden,
        heads: cfg.heads,
        ffn: cfg.ffn,
    };
    let mean_seq = (tokens as f64 / seqs.max(1) as f64).round().max(1.0) as usize;
    let sim = simulate(
        &NpuConfig::mobile_soc(),
        &transformer_workload(&shape, mean_seq),
        NonlinearImpl::NnLut,
    );
    let (g, ln, sm, _, _) = sim.percentages();
    println!(
        "table5: measured CPU non-linear share {:.2}% vs nnlut_npu NN-LUT model {:.2}% \
         (layers {}, hidden {}, heads {}, ffn {}, mean seq {mean_seq})",
        100.0 * lut_ns / wall_ns,
        g + ln + sm,
        cfg.layers,
        cfg.hidden,
        cfg.heads,
        cfg.ffn
    );

    // Decode: prefill on the timing executor, then steps and LM-head
    // reads timed one by one.
    let (mut prefill_ns, mut prefill_tok) = (0.0f64, 0usize);
    let mut steps_ms = Vec::new();
    let mut head_ms = Vec::new();
    let mut first: Option<(nnlut_transformer::KvCache, usize)> = None;
    for prompt in prompts {
        if prefill_tok >= PREFILL_TOKENS {
            break;
        }
        let mut cache = model.new_cache();
        let start = journal.ns(Instant::now());
        let hidden = model.prefill(prompt, &mut cache, &nl, mode, &exec);
        let end = journal.ns(Instant::now());
        let calls = exec.take();
        if calls.len() != LAYER_OPS.len() * layers {
            return Err(format!(
                "prefill made {} executor calls, expected {}",
                calls.len(),
                LAYER_OPS.len() * layers
            ));
        }
        let root = journal.push(None, "prefill".into(), "transformer.decode", start, end);
        for (j, &(s, e)) in calls.iter().enumerate() {
            journal.push(Some(root), layer_op(j).1, "transformer.decode", s, e);
        }
        prefill_ns += (end - start) as f64;
        prefill_tok += prompt.len();
        let t = Instant::now();
        let token = model.greedy_token(&hidden);
        let t_end = Instant::now();
        head_ms.push((t_end - t).as_secs_f64() * 1e3);
        journal.push(
            Some(root),
            "lm_head".into(),
            "transformer.decode",
            journal.ns(t),
            journal.ns(t_end),
        );
        first.get_or_insert((cache, token));
    }
    let (mut cache, mut token) = first.ok_or("no prompt to replay")?;
    for _ in 0..DECODE_STEPS {
        let t0 = Instant::now();
        let hidden = model.decode_step(&mut cache, token, &nl, mode);
        let t1 = Instant::now();
        token = model.greedy_token(&hidden);
        let t2 = Instant::now();
        steps_ms.push((t1 - t0).as_secs_f64() * 1e3);
        head_ms.push((t2 - t1).as_secs_f64() * 1e3);
        let root = journal.push(
            None,
            "decode".into(),
            "transformer.decode",
            journal.ns(t0),
            journal.ns(t2),
        );
        journal.push(
            Some(root),
            "decode_step".into(),
            "transformer.decode",
            journal.ns(t0),
            journal.ns(t1),
        );
        journal.push(
            Some(root),
            "lm_head".into(),
            "transformer.decode",
            journal.ns(t1),
            journal.ns(t2),
        );
    }
    let (step, head) = (median(&steps_ms), median(&head_ms));
    m.push((
        "decode.prefill_ns_tok".into(),
        prefill_ns / prefill_tok.max(1) as f64,
        "ns/tok",
    ));
    m.push(("decode.step_ms".into(), step, "ms"));
    m.push(("decode.lm_head_ms".into(), head, "ms"));
    m.push(("decode.lm_head_share".into(), head / (head + step), "ratio"));
    Ok(m)
}
