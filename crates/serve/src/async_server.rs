//! The asynchronous replica behind [`ShardedServer`](crate::ShardedServer),
//! and the ticket and error types of the asynchronous door.
//!
//! `AsyncLutServer` is crate-private: the shard is its only caller. It
//! decouples admission from execution — `enqueue` returns the request's
//! replica-local id immediately, the replica's background **workers**
//! drain the length-bucketed [`Batcher`] as batches close, and every
//! emitted token and final outcome goes back to the shard as a `Report`
//! on its channel. A batch closes when the **first** of three
//! conditions fires:
//!
//! 1. **area budget** — a bucket can fill the
//!    [`BatchPolicy`] sequence/padded-area budget
//!    ([`CloseReason::Full`]);
//! 2. **batch age** — the oldest queued request has waited
//!    [`ClosePolicy::max_batch_age`] ([`CloseReason::Aged`]);
//! 3. **deadline pressure** — a queued request's deadline is within
//!    [`ClosePolicy::deadline_slack`] ([`CloseReason::Deadline`]).
//!
//! Requests whose deadline passes while still queued are never encoded:
//! they are reported as [`ServeError::DeadlineExceeded`]. Deadlines
//! shape *when* batches close, never the packing order — admission stays
//! FIFO within a bucket, so the determinism story of the synchronous
//! server carries over unchanged (and with an FP32/FP16 body the
//! responses are bit-identical to a serial, unbatched server;
//! `tests/serve_async.rs` proves it through the shard door).
//!
//! # Multiple batches in flight
//!
//! A replica runs [`AsyncServerConfig::max_in_flight`] identical
//! **worker threads** (each with its own [`ThreadPool`]), so batch *k+1*
//! encodes while *k* is still running. Each worker loops over one cycle:
//! under the replica lock it expires deadlines and closes a batch, runs
//! the batch with the lock released, then takes the lock back to report
//! the batch's outcomes — or, with nothing to close, sleeps until the
//! next batch timer or arrival. Batch *composition* stays a pure function
//! of queue contents at close time, because a batch is only ever packed
//! under the lock. Outcomes are reported in **completion order**: a fast
//! batch never waits behind a slow earlier one, and the
//! bit-identical-to-serial contract is unchanged, because each response
//! goes to its own ticket and mask-aware attention makes it independent
//! of its batch-mates (see `docs/ARCHITECTURE.md`).
//!
//! Once the shard starts shutting down it tells each replica to
//! **drain**: batches close without waiting for age or deadline timers,
//! while the replica still accepts the supervisor's retries. Dropping
//! the replica drains every queued request and joins every worker once
//! its batch has resolved, so every request gets its final report.
//!
//! # Continuous batching
//!
//! A generation's prompt enters the length-bucketed queue as a
//! **prefill**; once prefilled (KV cache populated, first token read
//! greedily), the sequence rejoins the batcher's **decode plane** after
//! every emitted token, so many generations advance one token per batch
//! while prefills keep streaming in. The workers mix wide decode
//! batches with prefill/encode batches under the same padded-area
//! budget: decode-priority closes keep inter-token latency flat, and
//! [`ClosePolicy::max_prefill_wait`] bounds how long a queued prefill
//! can be deferred (the starvation guard). Tokens are reported as each
//! step resolves; a deadline covers the **whole** generation (a
//! lapsed deadline culls the sequence from whichever plane holds it and
//! frees its KV cache), a drain *finishes* in-flight generations (the
//! token budget bounds it), and a panic mid-step fails the generation
//! with [`ServeError::ServerFailed`] — its cache is lost, and the shard
//! rebuilds it on a healthy replica by re-prefilling the prompt plus the
//! tokens already emitted.
//!
//! Both planes run the same way. Each batch member is either an encode
//! or a generation's **extend** — a fresh KV cache with its prompt, or
//! its parked cache with its last token — and a batch runs its encodes
//! through one [`BertModel::encode_batch`] call, every extend through one
//! [`BertModel::extend`] call, and reads each generation's next token
//! from its last new row in one [`BertModel::greedy_tokens`] pass. The
//! two planes differ only in how a finished batch is recorded in the
//! metrics.
//!
//! Because every decoder row is row-local in the token dimension
//! (masked attention over a per-sequence cache, per-row quantization on
//! the INT8 paths), a continuously-batched generation is **bit-identical
//! to serial step-at-a-time decoding** at all three precisions, any
//! thread count and any in-flight depth — `tests/serve_decode.rs` pins
//! the claim.

use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nnlut_tensor::Matrix;
use nnlut_transformer::{
    BertModel, KvCache, MatmulMode, Nonlinearity, PaddedBatch, TransformerConfig,
};

use crate::batcher::{
    BatchPolicy, Batcher, ClosePolicy, CloseReason, CloseTarget, ClosedBatch, ClosedDecodeBatch,
};
use crate::fault::FaultInjector;
use crate::metrics::{BatchRecord, ServeMetrics, DEFAULT_SKETCH_CAPACITY};
use crate::pool::ThreadPool;
use crate::server::{validate_generate, validate_request, EncodeResponse, RequestId};
use crate::trace::{FlightRecorder, RequestTrace, Stage, TraceBreakdown, TraceConfig};

/// Why an asynchronous request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request's deadline passed while it was still queued; it was
    /// culled without being encoded.
    DeadlineExceeded {
        /// The request's id.
        id: RequestId,
        /// How long it waited before expiring.
        waited: Duration,
    },
    /// The shard door was at its [`ServePolicy`](crate::ServePolicy)
    /// watermark when the request arrived; it was rejected at the door,
    /// never queued, never encoded.
    /// Back off and resubmit — already-queued requests are unaffected.
    Overloaded {
        /// The request's id.
        id: RequestId,
        /// Queue depth at rejection time (at or above the watermark).
        queue_depth: usize,
    },
    /// The worker failed (a panic escaped the encode path) before this
    /// request could complete. The server stays up; the request was not
    /// encoded.
    ServerFailed {
        /// The request's id.
        id: RequestId,
    },
    /// [`Ticket::wait_timeout`] gave up before the worker resolved the
    /// ticket. The request itself is **still in flight** — this bounds
    /// the caller's blocking, it does not cancel the work.
    WaitTimeout {
        /// The request's id.
        id: RequestId,
        /// How long the caller waited before giving up.
        waited: Duration,
        /// The request's last recorded lifecycle stage at timeout —
        /// how far it got (`None` if nothing was recorded yet).
        last_stage: Option<Stage>,
    },
    /// Every attempt within the sharded retry budget failed (replica
    /// panics, stalls or admission bounces on each try). The request was
    /// never successfully encoded.
    RetriesExhausted {
        /// The request's id.
        id: RequestId,
        /// Attempts made (initial route + retries).
        attempts: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::DeadlineExceeded { id, waited } => write!(
                f,
                "request {id} missed its deadline after waiting {:.2} ms",
                waited.as_secs_f64() * 1e3
            ),
            ServeError::Overloaded { id, queue_depth } => write!(
                f,
                "request {id} rejected at the door: queue at watermark (depth {queue_depth})"
            ),
            ServeError::ServerFailed { id } => {
                write!(f, "the serving worker failed before request {id} completed")
            }
            ServeError::WaitTimeout {
                id,
                waited,
                last_stage,
            } => write!(
                f,
                "gave up waiting on request {id} after {:.2} ms (request still in flight, last stage: {})",
                waited.as_secs_f64() * 1e3,
                last_stage.map_or("none recorded", |s| s.as_str()),
            ),
            ServeError::RetriesExhausted { id, attempts } => write!(
                f,
                "request {id} failed on all {attempts} attempts (retry budget exhausted)"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Locks a mutex, recovering from poisoning: every critical section here
/// either mutates nothing before its last fallible statement or leaves
/// the state consistent, so a panicked peer (e.g. a doorstep validation
/// failure) must not abort the worker or the destructor.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-replica construction knobs of the asynchronous door (see
/// [`ShardConfig::replica`](crate::ShardConfig::replica)).
#[derive(Debug, Clone)]
pub struct AsyncServerConfig {
    /// Worker threads in each encode pool (`1` = serial reference path).
    pub threads: usize,
    /// Dynamic batching policy (area budget + length buckets).
    pub policy: BatchPolicy,
    /// When under-filled batches close anyway.
    pub close: ClosePolicy,
    /// Batches that may encode concurrently (`0` is clamped to `1`).
    /// Each in-flight slot is one worker thread with its own
    /// [`ThreadPool`] of [`AsyncServerConfig::threads`] lanes, so total
    /// encode threads = `max_in_flight × threads`.
    pub max_in_flight: usize,
    /// Retention of each metrics percentile sketch (the metrics memory
    /// bound; see [`ServeMetrics::sketch_capacity`]).
    pub sketch_capacity: usize,
    /// GEMM precision of the transformer body.
    pub mode: MatmulMode,
    /// Tracing configuration. Per-request lifecycle traces are always on
    /// (part of the [`Ticket`] contract); this decides whether the fleet
    /// runs one shared flight recorder. Default: [`TraceConfig::from_env`]
    /// (`NNLUT_TRACE=1`).
    pub trace: TraceConfig,
}

impl Default for AsyncServerConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            policy: BatchPolicy::default_policy(),
            close: ClosePolicy::default_policy(),
            max_in_flight: 1,
            sketch_capacity: DEFAULT_SKETCH_CAPACITY,
            mode: MatmulMode::F32,
            trace: TraceConfig::from_env(),
        }
    }
}

/// How a replica is wired into its sharded fleet.
#[derive(Debug, Clone)]
pub(crate) struct Wiring {
    /// Replica index: the first half of every report's key, and the id
    /// stamped on this server's trace events and journal entries.
    pub(crate) replica: usize,
    /// Deterministic fault injection hook, consulted by the worker
    /// threads just before each batch encode (inside the per-batch panic
    /// containment). See [`crate::fault`].
    pub(crate) fault: Option<FaultInjector>,
    /// The fleet's shared flight recorder: one ring across every replica
    /// (`None` when tracing is off).
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    /// The shard supervisor's channel. Replicas send `Some(report)`;
    /// `None` is the shard door's own wake-up call.
    pub(crate) reports: Sender<Option<Report>>,
}

/// What a submission asks for — the one difference between the two
/// request kinds, at the door and on a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestKind {
    /// A whole-sequence encode.
    Encode,
    /// An autoregressive generation of `max_new` greedy tokens.
    Generate {
        /// Tokens to generate.
        max_new: usize,
    },
}

impl RequestKind {
    /// Door-step validation for this kind of request.
    ///
    /// # Panics
    ///
    /// See [`validate_request`] and [`validate_generate`].
    pub(crate) fn validate(self, cfg: &TransformerConfig, tokens: &[usize]) {
        match self {
            RequestKind::Encode => validate_request(cfg, tokens),
            RequestKind::Generate { max_new } => validate_generate(cfg, tokens, max_new),
        }
    }
}

/// How a request ended: an encode's response, or `None` for a
/// generation (its tokens already streamed one [`Progress::Token`] at a
/// time).
pub(crate) type Outcome = Result<Option<EncodeResponse>, ServeError>;

/// What a replica tells the shard about one of its requests.
#[derive(Debug)]
pub(crate) enum Progress {
    /// A generation emitted its next token.
    Token(usize),
    /// The request ended; always its last report.
    Done(Outcome),
}

/// One replica report, keyed by replica index and replica-local id.
pub(crate) type Report = (usize, RequestId, Progress);

#[derive(Debug, Default)]
struct SlotState {
    /// Tokens a generation has emitted so far (always empty for an
    /// encode).
    tokens: Vec<usize>,
    /// The terminal outcome, once the request has resolved.
    done: Option<Outcome>,
}

/// The response slot behind every [`Ticket`] and [`GenerateTicket`],
/// shared between the caller and the shard, which fills it from its
/// replicas' reports.
#[derive(Debug)]
pub(crate) struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
    /// The request's lifecycle journal, shared with every writer along
    /// the request path (and, in the sharded layer, across failover
    /// attempts — one trace per *request*, not per replica submission).
    pub(crate) trace: Arc<RequestTrace>,
}

impl Slot {
    pub(crate) fn new(trace: Arc<RequestTrace>) -> Self {
        Self {
            state: Mutex::new(SlotState::default()),
            ready: Condvar::new(),
            trace,
        }
    }

    /// Appends one emitted token and wakes streaming readers.
    pub(crate) fn push_token(&self, token: usize) {
        let mut state = lock(&self.state);
        debug_assert!(state.done.is_none(), "token emitted after completion");
        state.tokens.push(token);
        self.ready.notify_all();
    }

    /// Terminates the request. Exactly-once per slot.
    pub(crate) fn resolve(&self, outcome: Outcome) {
        let mut state = lock(&self.state);
        debug_assert!(state.done.is_none(), "request resolved twice");
        state.done = Some(outcome);
        self.ready.notify_all();
    }

    fn is_resolved(&self) -> bool {
        lock(&self.state).done.is_some()
    }

    /// The one blocking loop behind every ticket wait: blocks until
    /// `poll` yields, or until `timeout` lapses
    /// ([`ServeError::WaitTimeout`]); `None` waits for as long as it
    /// takes.
    fn wait_for<R>(
        &self,
        id: RequestId,
        timeout: Option<Duration>,
        mut poll: impl FnMut(&mut SlotState) -> Option<R>,
    ) -> Result<R, ServeError> {
        let start = Instant::now();
        let mut state = lock(&self.state);
        loop {
            if let Some(value) = poll(&mut state) {
                return Ok(value);
            }
            let waited = start.elapsed();
            state = match timeout {
                None => self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(limit) if waited >= limit => {
                    return Err(ServeError::WaitTimeout {
                        id,
                        waited,
                        last_stage: self.trace.last_stage(),
                    })
                }
                Some(limit) => {
                    self.ready
                        .wait_timeout(state, limit - waited)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }
}

/// Handle to one in-flight asynchronous request, resolved by the worker
/// on completion (or expiry/rejection). Obtained from
/// [`ShardedServer::submit`](crate::ShardedServer::submit).
#[derive(Debug)]
pub struct Ticket {
    id: RequestId,
    slot: Arc<Slot>,
}

impl Ticket {
    pub(crate) fn new(id: RequestId, slot: Arc<Slot>) -> Self {
        Self { id, slot }
    }

    /// The request id this ticket tracks.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// The request's lifecycle trace — live while the request is in
    /// flight, final once the ticket resolves.
    pub fn trace(&self) -> &RequestTrace {
        &self.slot.trace
    }

    /// A shared handle to the same trace that survives [`Ticket::wait`]
    /// (which consumes the ticket) — grab it before waiting to read the
    /// final breakdown afterwards.
    pub fn trace_handle(&self) -> Arc<RequestTrace> {
        Arc::clone(&self.slot.trace)
    }

    /// The request's per-stage latency breakdown so far (final once the
    /// ticket resolves; see [`RequestTrace::breakdown`]).
    pub fn breakdown(&self) -> TraceBreakdown {
        self.slot.trace.breakdown()
    }

    /// The request's most recently recorded lifecycle stage.
    pub fn last_stage(&self) -> Option<Stage> {
        self.slot.trace.last_stage()
    }

    /// True once the worker has resolved this ticket ([`Ticket::wait`]
    /// will not block).
    pub fn is_ready(&self) -> bool {
        self.slot.is_resolved()
    }

    /// Blocks until the request completes, expires, or is rejected.
    /// Never hangs: every ticket is resolved — on completion (`Ok`),
    /// deadline expiry ([`ServeError::DeadlineExceeded`]), overload
    /// rejection ([`ServeError::Overloaded`], already resolved when
    /// `submit` returned), and even a worker failure
    /// ([`ServeError::ServerFailed`], from the per-batch panic
    /// containment or the shutdown sweep).
    pub fn wait(self) -> Result<EncodeResponse, ServeError> {
        self.wait_for(None)
    }

    /// Like [`Ticket::wait`], but gives up after `timeout` with
    /// [`ServeError::WaitTimeout`] instead of blocking forever on a lost
    /// response. The timeout bounds only the *caller's* blocking — the
    /// request stays in flight and its eventual result is discarded, so
    /// the no-abandoned-ticket guarantee is unaffected.
    pub fn wait_timeout(self, timeout: Duration) -> Result<EncodeResponse, ServeError> {
        self.wait_for(Some(timeout))
    }

    fn wait_for(self, timeout: Option<Duration>) -> Result<EncodeResponse, ServeError> {
        let outcome = self.slot.wait_for(self.id, timeout, |s| s.done.take())?;
        outcome.map(|response| response.expect("an encode resolves with its response"))
    }
}

/// A completed generation: the full emitted token sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerateResponse {
    /// The generation request's id.
    pub id: RequestId,
    /// Every generated token, in emission order (never the prompt).
    pub tokens: Vec<usize>,
}

/// Handle to one in-flight generation, streaming tokens as the worker
/// resolves each decode step. Obtained from
/// [`ShardedServer::submit_generate`](crate::ShardedServer::submit_generate).
///
/// Consume it either as a stream ([`GenerateTicket::next`] per token) or
/// in one blocking call ([`GenerateTicket::wait`] for the whole
/// sequence). Like [`Ticket`], every generation resolves — completion,
/// deadline expiry, overload rejection or worker failure — so neither
/// call can hang.
#[derive(Debug)]
pub struct GenerateTicket {
    id: RequestId,
    slot: Arc<Slot>,
    /// Tokens already yielded through [`GenerateTicket::next`].
    cursor: usize,
    /// The terminal error was already yielded; the stream is exhausted.
    error_yielded: bool,
}

impl GenerateTicket {
    pub(crate) fn new(id: RequestId, slot: Arc<Slot>) -> Self {
        Self {
            id,
            slot,
            cursor: 0,
            error_yielded: false,
        }
    }

    /// The generation request's id.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// The generation's lifecycle trace (`decoded` events accumulate as
    /// tokens resolve).
    pub fn trace(&self) -> &RequestTrace {
        &self.slot.trace
    }

    /// A shared handle to the trace that survives [`GenerateTicket::wait`].
    pub fn trace_handle(&self) -> Arc<RequestTrace> {
        Arc::clone(&self.slot.trace)
    }

    /// The generation's per-stage latency breakdown so far.
    pub fn breakdown(&self) -> TraceBreakdown {
        self.slot.trace.breakdown()
    }

    /// The most recently recorded lifecycle stage.
    pub fn last_stage(&self) -> Option<Stage> {
        self.slot.trace.last_stage()
    }

    /// True once the generation has terminated (successfully or not);
    /// [`GenerateTicket::wait`] will not block.
    pub fn is_done(&self) -> bool {
        self.slot.is_resolved()
    }

    /// Tokens emitted so far (a snapshot; the stream may still be live).
    pub fn tokens_so_far(&self) -> Vec<usize> {
        lock(&self.slot.state).tokens.clone()
    }

    /// Blocks until the generation terminates and returns the full token
    /// sequence (or the terminal error — tokens emitted before a failure
    /// are observable through [`GenerateTicket::next`] /
    /// [`GenerateTicket::tokens_so_far`] before waiting).
    pub fn wait(self) -> Result<GenerateResponse, ServeError> {
        self.wait_for(None)
    }

    /// Like [`GenerateTicket::wait`], but gives up after `timeout` with
    /// [`ServeError::WaitTimeout`]. Bounds only the caller's blocking —
    /// the generation stays in flight and still resolves.
    pub fn wait_timeout(self, timeout: Duration) -> Result<GenerateResponse, ServeError> {
        self.wait_for(Some(timeout))
    }

    fn wait_for(self, timeout: Option<Duration>) -> Result<GenerateResponse, ServeError> {
        let tokens = self.slot.wait_for(self.id, timeout, |s| {
            let done = s.done.clone()?;
            Some(done.map(|_| s.tokens.clone()))
        })??;
        Ok(GenerateResponse {
            id: self.id,
            tokens,
        })
    }
}

/// Blocking token stream: each `next` call blocks for the next token.
/// Yields `Some(Ok(token))` per emitted token in order; after the last
/// token of a successful generation, `None`. A failed generation yields
/// its tokens, then the error once (`Some(Err(_))`), then `None`.
impl Iterator for GenerateTicket {
    type Item = Result<usize, ServeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (cursor, error_yielded) = (&mut self.cursor, &mut self.error_yielded);
        let polled = self.slot.wait_for(self.id, None, |s| {
            if let Some(&token) = s.tokens.get(*cursor) {
                *cursor += 1;
                return Some(Some(Ok(token)));
            }
            match &s.done {
                None => None,
                Some(Err(e)) if !*error_yielded => {
                    *error_yielded = true;
                    Some(Some(Err(e.clone())))
                }
                Some(_) => Some(None),
            }
        });
        // Without a timeout the wait only returns once `poll` yields.
        polled.ok().flatten()
    }
}

/// Worker-side bookkeeping of one live generation. The KV cache parks
/// here between steps and **moves into the batch** while a step is
/// in flight — one step per sequence at a time, by construction.
#[derive(Debug)]
struct GenState {
    /// Tokens emitted so far.
    emitted: usize,
    /// Total tokens to generate.
    max_new: usize,
    /// The sequence's KV cache; `None` while a step is in flight.
    cache: Option<KvCache>,
    /// Token the next decode step feeds (the last emitted token).
    next_token: usize,
    /// Absolute deadline for the whole generation, if any.
    deadline: Option<Instant>,
    /// When the previous token was emitted (inter-token gap metrics).
    last_emit: Option<Instant>,
}

/// One unresolved request: the shard request's lifecycle trace, plus
/// the generation bookkeeping when it is one.
#[derive(Debug)]
struct Entry {
    trace: Arc<RequestTrace>,
    gen: Option<GenState>,
}

/// What one batch member runs.
#[derive(Debug)]
enum Work {
    /// An encode of these tokens.
    Encode(Vec<usize>),
    /// A generation's tokens fed after its KV cache: a fresh cache and
    /// the prompt for a bucket member, the parked cache and the last
    /// emitted token for a decode step. The cache grows in place.
    Extend(KvCache, Vec<usize>),
}

/// The plane a batch closed on — all that differs in reporting it.
#[derive(Debug)]
enum Closed {
    Bucket(ClosedBatch),
    Decode(ClosedDecodeBatch),
}

impl Closed {
    /// The batch's member ids, in member order.
    fn ids(&self) -> &[RequestId] {
        match self {
            Closed::Bucket(closed) => &closed.ids,
            Closed::Decode(closed) => &closed.ids,
        }
    }
}

/// Everything the submitter side and the worker threads share, behind
/// one lock.
#[derive(Debug)]
struct State {
    batcher: Batcher,
    /// Every unresolved request, encodes and generations alike. Insertion
    /// at admission; removal on completion, expiry or failure — and
    /// removal drops a generation's KV cache, so "no residual allocation
    /// after eviction" is structural.
    requests: HashMap<RequestId, Entry>,
    metrics: ServeMetrics,
    next_id: RequestId,
    /// The shard is shutting down: close batches without waiting for age
    /// or deadline timers, but keep admitting its retries.
    draining: bool,
    /// The replica is being dropped: drain, then exit.
    shutdown: bool,
    /// Next dispatch sequence number — the fault plan's batch coordinate.
    next_seq: u64,
    /// This replica's index, the first half of every report's key.
    replica: usize,
    /// Where reports go (see [`report`]).
    reports: Sender<Option<Report>>,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Signalled on new arrivals, on drain and shutdown, and when a
    /// worker leaves closable work behind — everything an idle worker
    /// sleeps on.
    work: Condvar,
}

/// One asynchronous, deadline-aware batching replica of a
/// [`ShardedServer`](crate::ShardedServer) fleet.
#[derive(Debug)]
pub(crate) struct AsyncLutServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl AsyncLutServer {
    /// Builds the replica over **already-shared** model weights and
    /// backend, and starts its `max_in_flight` workers. This is how the
    /// shard keeps N replicas over one copy of the weights: every
    /// replica's workers read the same `Arc`s, so replica count is a
    /// topology knob, not a memory multiplier.
    pub(crate) fn with_shared(
        model: Arc<BertModel>,
        nl: Arc<Nonlinearity>,
        config: AsyncServerConfig,
        wiring: Wiring,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                batcher: Batcher::new(config.policy.clone()),
                requests: HashMap::new(),
                metrics: ServeMetrics::with_sketch_capacity(config.sketch_capacity),
                next_id: 0,
                draining: false,
                shutdown: false,
                next_seq: 0,
                replica: wiring.replica,
                reports: wiring.reports.clone(),
            }),
            work: Condvar::new(),
        });
        let workers = (0..config.max_in_flight.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let (model, nl) = (Arc::clone(&model), Arc::clone(&nl));
                let (close, mode) = (config.close, config.mode);
                let pool = ThreadPool::new(config.threads);
                let wiring = wiring.clone();
                std::thread::Builder::new()
                    .name(format!("nnlut-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared, model, nl, close, mode, pool, wiring))
                    .expect("spawn serving worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Queues one request and returns its replica-local id, the second
    /// half of the key its reports carry. The shard door has already
    /// validated and admitted it. `trace` is the shard request's lifecycle
    /// trace: one [`RequestTrace`] per shard request, accumulating stages
    /// across every failover attempt. `deadline` (measured from now)
    /// bounds the time queued — on either plane, for a generation; see
    /// [`ServeError::DeadlineExceeded`].
    pub(crate) fn enqueue(
        &self,
        tokens: Vec<usize>,
        deadline: Option<Duration>,
        kind: RequestKind,
        trace: Arc<RequestTrace>,
    ) -> RequestId {
        let now = Instant::now();
        let deadline = deadline.map(|d| now + d);
        let id = {
            let mut st = lock(&self.shared.state);
            let id = st.next_id;
            st.next_id += 1;
            trace.record(Stage::Queued, Some(st.replica), None);
            let gen = match kind {
                RequestKind::Encode => None,
                RequestKind::Generate { max_new } => Some(GenState {
                    emitted: 0,
                    max_new,
                    cache: None,
                    next_token: 0,
                    deadline,
                    last_emit: None,
                }),
            };
            st.requests.insert(id, Entry { trace, gen });
            st.batcher.push_at(id, tokens, now, deadline);
            id
        };
        self.shared.work.notify_one();
        id
    }

    /// Stops waiting on batch timers: from now on every batch closes as
    /// soon as a worker is free, and enqueues are still accepted. Called
    /// once the shard starts shutting down, so its drain never waits out
    /// a replica's `max_batch_age`.
    pub(crate) fn drain(&self) {
        lock(&self.shared.state).draining = true;
        self.shared.work.notify_all();
    }

    /// A snapshot of the serving metrics so far. The shared lock is held
    /// only for the O(sketch-capacity) copy — every percentile is
    /// computed on the snapshot, outside the lock, so this call's cost is
    /// independent of how many batches the server has dispatched
    /// (`tests/serve_soak.rs` pins that down).
    pub(crate) fn metrics(&self) -> ServeMetrics {
        lock(&self.shared.state).metrics.clone()
    }
}

/// Stops admission, drains every queued request (reporting every
/// outcome, waiting out every in-flight batch) and joins the workers.
///
/// Then every still-unresolved request is failed with
/// [`ServeError::ServerFailed`]. After a clean drain there is none; after
/// a worker died abnormally (a panic that escaped even the per-batch
/// containment) the sweep stands in for its report, so no waiter is left
/// hanging — and a drop during unwinding never double-panics.
impl Drop for AsyncLutServer {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that panicked left its batch unreported: the sweep
            // below resolves it.
            let _ = worker.join();
        }
        fail_all(&mut lock(&self.shared.state));
    }
}

/// Sends one report to the shard. Replica threads hold only this
/// replica's lock while they send, never the shard's. A replica drained
/// after the shard's supervisor exited has no one left to tell, so a
/// failed send is ignored.
fn report(st: &State, id: RequestId, progress: Progress) {
    let _ = st.reports.send(Some((st.replica, id, progress)));
}

/// The one terminal-failure path, for either request kind: records the
/// failure stage, folds the stage breakdown into the metrics, reports
/// `err` and drops the entry (a generation's KV cache included). Called
/// under the shared lock; a no-op if the request already resolved.
fn fail_request(st: &mut State, id: RequestId, note: &'static str, err: ServeError) {
    if let Some(entry) = st.requests.remove(&id) {
        entry
            .trace
            .record(Stage::Failed, Some(st.replica), Some(note));
        st.metrics.record_stages(&entry.trace.breakdown());
        report(st, id, Progress::Done(Err(err)));
    }
}

/// Fails every unresolved request with [`ServeError::ServerFailed`] —
/// the sweep that guarantees no ticket is left hanging.
fn fail_all(st: &mut State) {
    let ids: Vec<RequestId> = st.requests.keys().copied().collect();
    for id in ids {
        fail_request(st, id, "server-failed", ServeError::ServerFailed { id });
    }
}

/// Advances one generation by its freshly emitted token: records the
/// `decoded` stage and the inter-token gap, reports the token, then
/// either finishes the generation (dropping its cache) or parks the
/// cache and rejoins the decode plane. Called under the shared lock.
fn advance_generation(st: &mut State, id: RequestId, cache: KvCache, token: usize) {
    let now = Instant::now();
    let replica = Some(st.replica);
    let Some(Entry {
        trace,
        gen: Some(gen),
    }) = st.requests.get_mut(&id)
    else {
        // The generation resolved while its step was in flight (only the
        // worker-death sweep can do that); drop the cache and move on.
        return;
    };
    let gap = gen.last_emit.map(|t| now.saturating_duration_since(t));
    st.metrics.record_token_emitted(gap);
    gen.last_emit = Some(now);
    gen.emitted += 1;
    gen.next_token = token;
    trace.record(Stage::Decoded, replica, None);
    let finished = gen.emitted >= gen.max_new;
    if !finished {
        let context = cache.len();
        gen.cache = Some(cache);
        st.batcher.push_decode(id, context, now, gen.deadline);
    }
    report(st, id, Progress::Token(token));
    if finished {
        let entry = st.requests.remove(&id).expect("looked up above");
        entry.trace.record(Stage::Resolved, replica, None);
        st.metrics.record_stages(&entry.trace.breakdown());
        st.metrics.record_generation_complete();
        report(st, id, Progress::Done(Ok(None)));
        // `entry` (and the cache) drop here — eviction on completion.
    }
}

/// Reports one finished batch: records its metrics and stages and
/// reports every member's outcome at once. Called under the shared lock.
/// After a panic every member fails, and the generations' caches drop
/// here: they cannot continue on this replica (the shard rebuilds them).
fn resolve_batch(
    st: &mut State,
    closed: Closed,
    work: Vec<Work>,
    outcome: Result<(Vec<Matrix>, Vec<usize>), ()>,
    depth: usize,
    latency: Duration,
    traces: &[Arc<RequestTrace>],
) {
    let replica = Some(st.replica);
    let Ok((hidden, tokens)) = outcome else {
        for &id in closed.ids() {
            fail_request(st, id, "panic", ServeError::ServerFailed { id });
        }
        return;
    };
    let (ids, bucket) = match closed {
        Closed::Bucket(closed) => {
            // The area `run` computed: the encodes packed to their own
            // longest member, the prompts unpadded through `extend`.
            let (encodes, longest, prompts) =
                work.iter().fold((0, 0, 0), |(n, max, p), w| match w {
                    Work::Encode(t) => (n + 1, max.max(t.len()), p),
                    Work::Extend(_, t) => (n, max, p + t.len()),
                });
            st.metrics.record(BatchRecord {
                sequences: closed.batch.sequences(),
                tokens: closed.batch.tokens(),
                padded_tokens: encodes * longest + prompts,
                queue_depth: depth,
                latency,
                bucket: closed.bucket,
                reason: closed.reason,
                queue_waits: closed.queue_waits,
            });
            (closed.ids, true)
        }
        Closed::Decode(closed) => {
            st.metrics.record_decode_batch(
                closed.ids.len(),
                closed.context_tokens,
                latency,
                closed.reason,
            );
            (closed.ids, false)
        }
    };
    let (mut hidden, mut tokens) = (hidden.into_iter(), tokens.into_iter());
    for ((id, work), trace) in ids.into_iter().zip(work).zip(traces) {
        if bucket {
            trace.record(Stage::Reordered, replica, None);
        }
        match work {
            Work::Encode(_) => {
                let hidden = hidden.next().expect("one result per encode");
                trace.record(Stage::Resolved, replica, None);
                st.metrics.record_stages(&trace.breakdown());
                if st.requests.remove(&id).is_some() {
                    let response = EncodeResponse {
                        id,
                        tokens: hidden.rows(),
                        hidden,
                        latency,
                    };
                    report(st, id, Progress::Done(Ok(Some(response))));
                }
            }
            Work::Extend(cache, _) => {
                let token = tokens.next().expect("one token per generation");
                advance_generation(st, id, cache, token);
            }
        }
    }
}

/// Runs one closed batch: the encodes in one [`BertModel::encode_batch`]
/// call, every generation member — prefills and decode steps alike —
/// through one [`BertModel::extend`] call, and each generation's next
/// token from its last new row in one [`BertModel::greedy_tokens`] pass.
/// Returns the encodes' hidden states and the generations' next tokens,
/// each in member order. Every member's result is bit-identical to
/// running it alone (see `docs/ARCHITECTURE.md`).
fn run(
    model: &BertModel,
    work: &mut [Work],
    nl: &Nonlinearity,
    mode: MatmulMode,
    pool: &ThreadPool,
) -> (Vec<Matrix>, Vec<usize>) {
    let encodes: Vec<Vec<usize>> = work
        .iter()
        .filter_map(|w| match w {
            Work::Encode(tokens) => Some(tokens.clone()),
            Work::Extend(..) => None,
        })
        .collect();
    let hidden = if encodes.is_empty() {
        Vec::new()
    } else {
        model.encode_batch(&PaddedBatch::pack(&encodes), nl, mode, pool)
    };
    let mut seqs: Vec<(&mut KvCache, &[usize])> = work
        .iter_mut()
        .filter_map(|w| match w {
            Work::Extend(cache, tokens) => Some((cache, tokens.as_slice())),
            Work::Encode(_) => None,
        })
        .collect();
    if seqs.is_empty() {
        return (hidden, Vec::new());
    }
    let rows = model.extend(&mut seqs, nl, mode, pool);
    let mut last = Matrix::zeros(seqs.len(), rows.cols());
    let mut end = 0;
    for ((_, tokens), row) in seqs.iter().zip(last.rows_iter_mut()) {
        end += tokens.len();
        row.copy_from_slice(rows.row(end - 1));
    }
    (hidden, model.greedy_tokens(&last, pool))
}

/// Closes the planned batch under the shared lock. A bucket batch gives
/// each generation a fresh KV cache for its prompt; a decode batch moves
/// each member's parked cache into the job for the step.
fn close_batch(
    st: &mut State,
    model: &BertModel,
    target: CloseTarget,
    reason: CloseReason,
    now: Instant,
) -> (Closed, Vec<Work>) {
    match target {
        CloseTarget::Bucket(bucket) => {
            let closed = st.batcher.close_bucket(bucket, now, reason);
            // The batcher keeps each member's tokens only in the padded
            // batch.
            let (padded, max_len) = (closed.batch.ids(), closed.batch.max_len());
            let work = closed
                .ids
                .iter()
                .zip(closed.batch.lens())
                .enumerate()
                .map(|(i, (id, &len))| {
                    let tokens = padded[i * max_len..i * max_len + len].to_vec();
                    if st.requests.get(id).is_some_and(|e| e.gen.is_some()) {
                        Work::Extend(model.new_cache(), tokens)
                    } else {
                        Work::Encode(tokens)
                    }
                })
                .collect();
            (Closed::Bucket(closed), work)
        }
        CloseTarget::Decode => {
            let closed = st.batcher.close_decode(now, reason);
            let work = closed
                .ids
                .iter()
                .map(|id| {
                    let gen = st
                        .requests
                        .get_mut(id)
                        .and_then(|e| e.gen.as_mut())
                        .expect("queued decode step belongs to a live generation");
                    let cache = gen
                        .cache
                        .take()
                        .expect("cache parked while the step queued");
                    Work::Extend(cache, vec![gen.next_token])
                })
                .collect();
            (Closed::Decode(closed), work)
        }
    }
}

/// Runs one batch's work inside the per-batch panic containment, after
/// the fault plan's hook for dispatch sequence number `seq`. `Err(())`
/// means the work panicked.
fn contain<R>(fault: Option<&FaultInjector>, seq: u64, run: impl FnOnce() -> R) -> Result<R, ()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(injector) = fault {
            injector.before_encode(seq);
        }
        run()
    }))
    .map_err(|_| ())
}

/// One replica worker, `max_in_flight` of them per replica. Under the
/// shared lock: expire deadlines, close a batch, and otherwise sleep
/// until the next timed event or arrival. Then run the batch with the
/// lock released (the only expensive step) and take the lock back to
/// report its outcomes at once.
fn worker_loop(
    shared: Arc<Shared>,
    model: Arc<BertModel>,
    nl: Arc<Nonlinearity>,
    close: ClosePolicy,
    mode: MatmulMode,
    pool: ThreadPool,
    wiring: Wiring,
) {
    let replica = Some(wiring.replica);
    let Wiring {
        fault, recorder, ..
    } = wiring;
    let fault = fault.as_ref();
    let mut st = lock(&shared.state);
    loop {
        let now = Instant::now();
        // Expire deadlines first — an expired request must never be
        // packed, whatever else this wakeup does. Both planes: a queued
        // prefill (generation or encode) and a queued decode step die
        // the same way.
        let expired = st.batcher.take_expired(now);
        if !expired.is_empty() {
            for (id, queued_at) in expired {
                let waited = now.saturating_duration_since(queued_at);
                st.metrics.record_deadline_miss();
                if let Some(rec) = &recorder {
                    rec.record(
                        "deadline-miss",
                        replica,
                        Some(id),
                        waited.as_millis() as u64,
                    );
                }
                let err = ServeError::DeadlineExceeded { id, waited };
                fail_request(&mut st, id, "deadline", err);
            }
            continue; // re-plan against the culled queue
        }
        let plan = if st.draining || st.shutdown {
            // Flush: ignore timers. The decode plane drains first —
            // in-flight generations *finish* under shutdown (their token
            // budget bounds the drain), and their steps are the cheapest
            // way to retire queued work.
            if st.batcher.decode_depth() > 0 {
                Some((CloseTarget::Decode, CloseReason::Drain))
            } else {
                st.batcher
                    .plan_drain()
                    .map(|b| (CloseTarget::Bucket(b), CloseReason::Drain))
            }
        } else {
            st.batcher.plan_close(now, &close)
        };
        let Some((target, reason)) = plan else {
            if st.shutdown && st.batcher.is_empty() {
                // Drained with admission closed. A peer still running a
                // batch closes whatever that batch feeds back itself.
                return;
            }
            st = match st.batcher.next_event(&close) {
                Some(at) => {
                    // Floor the sleep so a just-elapsed timer cannot spin
                    // the loop at zero-duration waits.
                    let wait = at
                        .saturating_duration_since(now)
                        .max(Duration::from_micros(50));
                    shared
                        .work
                        .wait_timeout(st, wait)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => shared.work.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
            continue;
        };
        let depth = st.batcher.queue_depth();
        let (closed, mut work) = close_batch(&mut st, &model, target, reason, now);
        let seq = st.next_seq;
        st.next_seq += 1;
        // Clone the members' traces now, under the lock: the run then
        // records on them lock-free.
        let traces: Vec<Arc<RequestTrace>> = closed
            .ids()
            .iter()
            .map(|id| {
                st.requests.get(id).map_or_else(
                    || Arc::new(RequestTrace::new(*id)),
                    |e| Arc::clone(&e.trace),
                )
            })
            .collect();
        let is_decode = matches!(closed, Closed::Decode(_));
        for trace in &traces {
            // A decode step skips `Assembled` — there is no packing
            // phase; it keeps per-token event volume down (traces cap at
            // `RequestTrace::MAX_EVENTS`).
            if !is_decode {
                trace.record(Stage::Assembled, None, None);
            }
            trace.record(Stage::Dispatched, replica, None);
        }
        if let Some(rec) = &recorder {
            rec.record("batch-dispatched", replica, None, traces.len() as u64);
        }
        if !st.batcher.is_empty() {
            // Work is left behind: an idle peer may close it.
            shared.work.notify_one();
        }
        drop(st);

        // The expensive part, lock released: submitters keep admitting
        // and the peers keep closing and reporting their own batches. A
        // panic here is contained (submit validates at the door, so none
        // is expected): the batch's tickets resolve to `ServerFailed`
        // instead of leaving waiters hanging, and the replica lives on.
        // Only the members' caches are mutated across the unwind boundary
        // — the model, backends and pool are all shared-immutable — and a
        // panicked batch's caches are only dropped, so `AssertUnwindSafe`
        // is honest. Injected faults fire here too — inside the
        // containment, keyed on the dispatch sequence number (the
        // replica-local batch coordinate) — so a chaos plan exercises the
        // exact same failure path a real encode panic takes.
        let start = Instant::now();
        let outcome = contain(fault, seq, || run(&model, &mut work, &nl, mode, &pool));
        let latency = start.elapsed();
        // Stage recording and journaling happen outside the lock.
        let panicked = outcome.is_err();
        let note = panicked.then_some("panic");
        for trace in &traces {
            trace.record(Stage::Encoded, replica, note);
        }
        if let Some(rec) = &recorder {
            let members = traces.len() as u64;
            if panicked {
                rec.record("batch-panic", replica, None, members);
                // The incident freezes the ring *as of the panic* —
                // before later traffic wraps past the lead-up events.
                rec.snapshot_incident("batch-panic", replica);
            } else {
                rec.record("batch-encoded", replica, None, members);
            }
        }
        st = lock(&shared.state);
        resolve_batch(&mut st, closed, work, outcome, depth, latency, &traces);
    }
}
