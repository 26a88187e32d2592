//! The front door under load: builds the serving stack, runs one
//! load-generator thread through the timed window, and keeps what the
//! report and the output check need.
//!
//! Thread budget: two replicas × one encode thread × one batch in flight
//! is two compute threads, one per core of the 2-core recording machine.
//! The load generator sleeps 1 ms between polls and the replica
//! dispatchers and shard supervisor mostly wait, so they add little
//! contention.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nnlut_core::codebook::CodebookSpec;
use nnlut_core::train::TrainConfig;
use nnlut_core::{NnLutKit, OpCounters};
use nnlut_serve::{
    AsyncServerConfig, BatchPolicy, ClosePolicy, GenerateTicket, RequestTrace, ShardConfig,
    ShardedServer, Stage, Ticket, TraceConfig, TraceEvent,
};
use nnlut_tensor::Matrix;
use nnlut_transformer::{BertModel, MatmulMode, Nonlinearity, TransformerConfig};

use crate::inputs::{Inputs, Workload, MAX_NEW};

/// The model every workload serves: RoBERTa-base shapes cut to two
/// layers, with `max_seq` stretched past the longest prompt any workload
/// sends. `--smoke` swaps in the tiny body.
pub fn model_config(smoke: bool) -> TransformerConfig {
    let base = if smoke {
        TransformerConfig::roberta_tiny()
    } else {
        nnlut_bench::roberta_bench_config()
    };
    TransformerConfig {
        max_seq: 640,
        ..base
    }
}

/// Admission policy of every replica (also what the replay packs with).
pub fn batch_policy() -> BatchPolicy {
    BatchPolicy {
        max_batch: 8,
        max_padded_tokens: 1024,
        bucket_edges: vec![16, 32, 64],
    }
}

fn shard_config(mode: MatmulMode, traced: bool) -> ShardConfig {
    ShardConfig {
        replicas: 2,
        replica: AsyncServerConfig {
            threads: 1,
            max_in_flight: 1,
            policy: batch_policy(),
            close: ClosePolicy {
                max_batch_age: Duration::from_millis(2),
                deadline_slack: Duration::from_millis(1),
            },
            mode,
            // Pinned either way, so `NNLUT_TRACE` in the environment
            // cannot switch the recorder on in an untraced run.
            trace: if traced {
                TraceConfig::enabled()
            } else {
                TraceConfig::disabled()
            },
            ..AsyncServerConfig::default()
        },
        // Far above any honest batch time, so load alone never trips the
        // stall watchdog.
        stall_timeout: Duration::from_secs(120),
        ..ShardConfig::default()
    }
}

/// The kit and model a run serves — deterministic, so the output check
/// rebuilds the identical pair after the server is gone.
pub fn build_model(
    workload: Workload,
    cfg: &TransformerConfig,
    calib: &[Vec<usize>],
) -> (NnLutKit, BertModel) {
    let kit = NnLutKit::train_with(16, nnlut_bench::KIT_SEED, &TrainConfig::fast());
    let mut model = BertModel::new_synthetic(cfg.clone(), nnlut_bench::KIT_SEED);
    if workload.mode() == MatmulMode::Codebook {
        model.bake_codebooks(&CodebookSpec::default(), calib, &Nonlinearity::exact(), 256);
    }
    (kit, model)
}

/// A running fleet plus the op-profiling sink attached in traced runs.
pub struct Stack {
    pub server: ShardedServer,
    pub profile: Option<Arc<OpCounters>>,
}

/// Builds the kit and model, starts the fleet and warms it up: the
/// whole set-up a deployment pays before its first request.
pub fn start(
    workload: Workload,
    cfg: &TransformerConfig,
    inputs: &Inputs,
    traced: bool,
) -> Result<Stack, String> {
    let (kit, model) = build_model(workload, cfg, &inputs.calib);
    let profile = traced.then(|| Arc::new(OpCounters::new()));
    let mut nl = Nonlinearity::all_lut(&kit);
    if let Some(sink) = &profile {
        nl = nl.with_profile(Arc::clone(sink));
    }
    let server = ShardedServer::with_backend(model, nl, shard_config(workload.mode(), traced));
    let tickets: Vec<Ticket> = inputs
        .warmup
        .iter()
        .map(|t| server.submit(t.clone()))
        .collect();
    for t in tickets {
        t.wait()
            .map_err(|e| format!("warm-up request failed: {e}"))?;
    }
    Ok(Stack { server, profile })
}

/// Which kind of client sent a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Encode,
    Generate,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::Encode => "encode",
            Source::Generate => "generate",
        }
    }
}

/// One finished request.
pub struct Done {
    pub source: Source,
    /// When it should have been sent: when the client's previous request
    /// resolved, or the window's start for its first.
    pub due: Instant,
    pub sent: Instant,
    pub tokens: usize,
    pub ok: bool,
    /// The request's lifecycle trace, offsets from `sent`.
    pub events: Vec<TraceEvent>,
}

impl Done {
    fn at(&self, e: &TraceEvent) -> Instant {
        self.sent + e.at
    }

    /// When the caller's ticket resolved (the last `resolved` event).
    pub fn completed(&self) -> Option<Instant> {
        self.events
            .iter()
            .rev()
            .find(|e| e.stage == Stage::Resolved)
            .map(|e| self.at(e))
    }

    /// Emission instants of generated tokens.
    pub fn emissions(&self) -> Vec<Instant> {
        self.events
            .iter()
            .filter(|e| e.stage == Stage::Decoded)
            .map(|e| self.at(e))
            .collect()
    }

    /// The encode compute interval (last dispatch to its `encoded`).
    pub fn compute(&self) -> Option<(Instant, Instant)> {
        let d = self
            .events
            .iter()
            .rposition(|e| e.stage == Stage::Dispatched)?;
        let e = self.events[d..]
            .iter()
            .find(|e| e.stage == Stage::Encoded)?;
        Some((self.at(&self.events[d]), self.at(e)))
    }
}

/// Everything one driven window leaves behind.
pub struct Driven {
    pub start: Instant,
    pub end: Instant,
    /// Every request sent, once resolved.
    pub done: Vec<Done>,
    /// Verified encodes: tokens and served hidden states.
    pub kept_encodes: Vec<(Vec<usize>, Matrix)>,
    /// Verified generations: prompt and served tokens.
    pub kept_gens: Vec<(Vec<usize>, Vec<usize>)>,
}

enum Handle {
    Encode(Ticket, Option<Vec<usize>>),
    Generate(GenerateTicket, Option<Vec<usize>>),
}

struct InFlight {
    source: Source,
    due: Instant,
    sent: Instant,
    tokens: usize,
    trace: Arc<RequestTrace>,
    handle: Handle,
}

impl InFlight {
    fn ready(&self) -> bool {
        match &self.handle {
            Handle::Encode(t, _) => t.is_ready(),
            Handle::Generate(t, _) => t.is_done(),
        }
    }
}

/// Runs the clients of `inputs` against `server` for `secs` seconds
/// from one thread that sleeps 1 ms between polls, then waits for every
/// request sent in the window to resolve.
pub fn drive(server: &ShardedServer, inputs: &Inputs, secs: f64) -> Driven {
    // The `i`-th request of each client pool; a kept one carries its
    // tokens (or prompt) for the output check.
    let encode = |i: usize, due: Instant| {
        let tokens = &inputs.encodes[i % inputs.encodes.len()];
        let keep = inputs.verify_encodes.contains(&i).then(|| tokens.clone());
        let sent = Instant::now();
        let ticket = server.submit(tokens.clone());
        InFlight {
            source: Source::Encode,
            due,
            sent,
            tokens: tokens.len(),
            trace: ticket.trace_handle(),
            handle: Handle::Encode(ticket, keep),
        }
    };
    let generate = |i: usize, due: Instant| {
        let prompt = &inputs.prompts[i % inputs.prompts.len()];
        let keep = inputs.verify_prompts.contains(&i).then(|| prompt.clone());
        let sent = Instant::now();
        let ticket = server.submit_generate(prompt.clone(), MAX_NEW, None);
        InFlight {
            source: Source::Generate,
            due,
            sent,
            tokens: prompt.len(),
            trace: ticket.trace_handle(),
            handle: Handle::Generate(ticket, keep),
        }
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let mut out = Driven {
        start,
        end,
        done: Vec::new(),
        kept_encodes: Vec::new(),
        kept_gens: Vec::new(),
    };
    let mut inflight: Vec<InFlight> = (0..inputs.load.encode_clients)
        .map(|i| encode(i, start))
        .chain((0..inputs.load.gen_clients).map(|i| generate(i, start)))
        .collect();
    let (mut next_encode, mut next_prompt) = (inputs.load.encode_clients, inputs.load.gen_clients);
    while !inflight.is_empty() {
        let now = Instant::now();
        let mut i = 0;
        while i < inflight.len() {
            if !inflight[i].ready() {
                i += 1;
                continue;
            }
            let f = inflight.swap_remove(i);
            let mut done = Done {
                source: f.source,
                due: f.due,
                sent: f.sent,
                tokens: f.tokens,
                ok: false,
                events: f.trace.events(),
            };
            match f.handle {
                Handle::Encode(ticket, keep) => {
                    if let Ok(resp) = ticket.wait() {
                        done.ok = true;
                        if let Some(tokens) = keep {
                            out.kept_encodes.push((tokens, resp.hidden));
                        }
                    }
                }
                Handle::Generate(ticket, keep) => {
                    if let Ok(resp) = ticket.wait() {
                        done.ok = true;
                        if let Some(prompt) = keep {
                            out.kept_gens.push((prompt, resp.tokens));
                        }
                    }
                }
            }
            // A client sends its next request the moment its previous one
            // resolved; the poll delay shows up as lateness.
            let due = done.completed().unwrap_or(now);
            if now < end {
                match done.source {
                    Source::Encode => {
                        inflight.push(encode(next_encode, due));
                        next_encode += 1;
                    }
                    Source::Generate => {
                        inflight.push(generate(next_prompt, due));
                        next_prompt += 1;
                    }
                }
            }
            out.done.push(done);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    out
}
