//! The asynchronous replica behind [`ShardedServer`](crate::ShardedServer),
//! and the ticket and error types of the asynchronous door.
//!
//! `AsyncLutServer` is crate-private: the shard supervisor is its only
//! caller. It decouples admission from execution — `enqueue` returns the
//! request's response slot immediately, and a dedicated background
//! **dispatcher** thread drains the length-bucketed [`Batcher`] as
//! batches close. A batch closes when the **first** of three conditions
//! fires:
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
//! their slots resolve to [`ServeError::DeadlineExceeded`]. Deadlines
//! shape *when* batches close, never the packing order — admission stays
//! FIFO within a bucket, so the determinism story of the synchronous
//! server carries over unchanged (and with an FP32/FP16 body the
//! responses are bit-identical to a serial, unbatched server;
//! `tests/serve_async.rs` proves it through the shard door).
//!
//! # Multiple batches in flight
//!
//! With [`AsyncServerConfig::max_in_flight`] > 1 the dispatcher hands
//! closed batches to that many **encoder threads** (each with its own
//! [`ThreadPool`]), so batch *k+1* encodes while *k* is still running.
//! Batch *composition* stays a pure function of queue contents at close
//! time — only the dispatcher, under the shared lock, ever packs a batch.
//! Completions flow through an **ordered completion queue**: results are
//! recorded and slots resolved strictly in dispatch order, so a fast
//! batch never overtakes a slow earlier one observably, and the
//! bit-identical-to-serial contract is unchanged (mask-aware attention
//! makes each response independent of batch composition; see
//! `docs/ARCHITECTURE.md`).
//!
//! Once the shard starts shutting down it tells each replica to
//! **drain**: batches close without waiting for age or deadline timers,
//! while the replica still accepts the supervisor's retries. Dropping
//! the replica drains every queued request and waits out every in-flight
//! batch before the dispatcher exits, so no slot is left unresolved.
//!
//! # Continuous batching
//!
//! A generation's prompt enters the length-bucketed queue as a
//! **prefill**; once prefilled (KV cache populated, first token read
//! greedily), the sequence rejoins the batcher's **decode plane** after
//! every emitted token, so many generations advance one token per batch
//! while prefills keep streaming in. The dispatcher mixes wide decode
//! batches with prefill/encode batches under the same padded-area
//! budget: decode-priority closes keep inter-token latency flat, and
//! [`ClosePolicy::max_prefill_wait`] bounds how long a queued prefill
//! can be deferred (the starvation guard). Tokens stream into the slot
//! as each step resolves; a deadline covers the **whole** generation (a
//! lapsed deadline culls the sequence from whichever plane holds it and
//! frees its KV cache), a drain *finishes* in-flight generations (the
//! token budget bounds it), and a panic mid-step fails the generation
//! with [`ServeError::ServerFailed`] — its cache is lost, and the shard
//! rebuilds it on a healthy replica by re-prefilling the prompt plus the
//! tokens already emitted.
//!
//! Because every decode step is row-local in the token dimension
//! (masked attention over a per-sequence cache, per-row quantization on
//! the INT8 paths), a continuously-batched generation is **bit-identical
//! to serial step-at-a-time decoding** at all three precisions, any
//! thread count and any in-flight depth — `tests/serve_decode.rs` pins
//! the claim.

use std::collections::{BTreeMap, HashMap, VecDeque};
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
    /// Each in-flight slot is one encoder thread with its own
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
    /// Replica id stamped on this server's trace events and journal
    /// entries.
    pub(crate) label: Option<usize>,
    /// Deterministic fault injection hook, consulted by the encoder
    /// threads just before each batch encode (inside the per-batch panic
    /// containment). See [`crate::fault`].
    pub(crate) fault: Option<FaultInjector>,
    /// The fleet's shared flight recorder: one ring across every replica
    /// (`None` when tracing is off).
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
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
/// generation (its tokens already streamed through the [`Slot`]).
pub(crate) type Outcome = Result<Option<EncodeResponse>, ServeError>;

#[derive(Debug, Default)]
struct SlotState {
    /// Tokens a generation has emitted so far (always empty for an
    /// encode).
    tokens: Vec<usize>,
    /// The terminal outcome, once the request has resolved.
    done: Option<Outcome>,
}

/// The response slot behind every [`Ticket`] and [`GenerateTicket`],
/// shared between the submitter and the worker (and, in the sharded
/// layer, between the shard door and its supervisor).
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

    /// Tokens emitted at or past `cursor`, plus the terminal outcome if
    /// the request has ended — *taken*, so only a slot's sole reader (the
    /// sharded supervisor, polling a replica attempt) may call this.
    pub(crate) fn harvest(&self, cursor: usize) -> (Vec<usize>, Option<Outcome>) {
        let mut state = lock(&self.state);
        let fresh = state.tokens.get(cursor..).unwrap_or_default().to_vec();
        (fresh, state.done.take())
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
/// here between steps and **moves into the decode job** while a step is
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

/// One unresolved request: its response slot, plus the generation
/// bookkeeping when it is one.
#[derive(Debug)]
struct Entry {
    slot: Arc<Slot>,
    gen: Option<GenState>,
}

/// What a dispatched batch actually runs: a length-bucket batch (pure
/// encodes, or encodes mixed with generation prefills) or a decode-plane
/// batch advancing many generations one token each.
#[derive(Debug)]
enum JobWork {
    /// A closed length-bucket batch. `is_gen[i]` marks member `i` as a
    /// generation prefill.
    Bucket {
        closed: ClosedBatch,
        is_gen: Vec<bool>,
    },
    /// A closed decode batch: each member's cache and input token, moved
    /// out of its [`GenState`] for the duration of the step.
    Decode {
        closed: ClosedDecodeBatch,
        steps: Vec<(KvCache, usize)>,
    },
}

/// Per-member result of a bucket batch.
#[derive(Debug)]
enum MemberResult {
    /// An encode member's hidden states.
    Encoded(Matrix),
    /// A generation prefill: populated cache + greedily-read first token.
    Prefilled { cache: KvCache, token: usize },
}

/// The outcome side of [`JobWork`], parked in the ordered completion
/// queue. `Err(())` = the encode panicked (contained); members fail (a
/// decode batch's caches are lost in the unwind — the generation cannot
/// continue here; the sharded layer rebuilds).
#[derive(Debug)]
enum DoneWork {
    Bucket {
        closed: ClosedBatch,
        outcome: Result<Vec<MemberResult>, ()>,
    },
    Decode {
        closed: ClosedDecodeBatch,
        outcome: Result<Vec<(KvCache, usize)>, ()>,
    },
}

/// One closed batch on its way to an encoder thread.
#[derive(Debug)]
struct EncodeJob {
    /// Dispatch sequence number — the ordered-completion key.
    seq: u64,
    work: JobWork,
    /// Queue depth at close time (metrics bookkeeping).
    depth: usize,
    /// Member traces, parallel to the work's member ids, cloned under
    /// the lock at dispatch so the encoder records `Encoded` without
    /// touching the ticket map.
    traces: Vec<Arc<RequestTrace>>,
}

/// One encoded batch waiting in the ordered completion queue.
#[derive(Debug)]
struct Completion {
    work: DoneWork,
    depth: usize,
    latency: Duration,
    /// Member traces, parallel to the work's member ids.
    traces: Vec<Arc<RequestTrace>>,
}

/// Everything the submitter side, the dispatcher and the encoder threads
/// share, behind one lock.
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
    /// Closed batches awaiting an encoder, in dispatch order.
    encode_queue: VecDeque<EncodeJob>,
    /// Batches dispatched but not yet resolved (queued-for-encode,
    /// encoding, or parked in `completions` behind an earlier batch).
    in_flight: usize,
    /// Next dispatch sequence number.
    next_seq: u64,
    /// Sequence number the ordered resolver will resolve next.
    next_resolve: u64,
    /// Out-of-order completions parked until their turn.
    completions: BTreeMap<u64, Completion>,
    /// Tells idle encoder threads to exit (set once, at the end of the
    /// shutdown drain).
    encoders_exit: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Signalled on new arrivals, on shutdown, and whenever a completion
    /// frees an in-flight slot — everything the dispatcher sleeps on.
    work: Condvar,
    /// Signalled when a job lands in `encode_queue` (and at
    /// `encoders_exit`) — everything the encoder threads sleep on.
    encode: Condvar,
}

/// One asynchronous, deadline-aware batching replica of a
/// [`ShardedServer`](crate::ShardedServer) fleet.
#[derive(Debug)]
pub(crate) struct AsyncLutServer {
    shared: Arc<Shared>,
    /// Kept for door-step validation; the model itself lives on the worker.
    config: TransformerConfig,
    worker: Option<JoinHandle<()>>,
    /// Replica id stamped on this server's trace events.
    label: Option<usize>,
}

impl AsyncLutServer {
    /// Builds the replica over **already-shared** model weights and
    /// backend, and starts its background worker. This is how the shard
    /// keeps N replicas over one copy of the weights: every replica's
    /// encoder threads read the same `Arc`s, so replica count is a
    /// topology knob, not a memory multiplier.
    pub(crate) fn with_shared(
        model: Arc<BertModel>,
        nl: Arc<Nonlinearity>,
        config: AsyncServerConfig,
        wiring: Wiring,
    ) -> Self {
        let model_config = model.config().clone();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                batcher: Batcher::new(config.policy.clone()),
                requests: HashMap::new(),
                metrics: ServeMetrics::with_sketch_capacity(config.sketch_capacity),
                next_id: 0,
                draining: false,
                shutdown: false,
                encode_queue: VecDeque::new(),
                in_flight: 0,
                next_seq: 0,
                next_resolve: 0,
                completions: BTreeMap::new(),
                encoders_exit: false,
            }),
            work: Condvar::new(),
            encode: Condvar::new(),
        });
        let label = wiring.label;
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("nnlut-serve-dispatch".into())
            .spawn(move || dispatcher_loop(worker_shared, model, nl, config, wiring))
            .expect("spawn serving dispatcher");
        Self {
            shared,
            config: model_config,
            worker: Some(worker),
            label,
        }
    }

    /// The one admission path for both request kinds: validate, then
    /// queue. Admission control is the shard door's job. `trace` is the
    /// shard request's lifecycle trace: one [`RequestTrace`] per shard
    /// request, accumulating stages across every failover attempt, while
    /// each replica submission still gets its own replica-local id.
    /// `deadline` (measured from now) bounds the time queued — on either
    /// plane, for a generation; see [`ServeError::DeadlineExceeded`].
    ///
    /// # Panics
    ///
    /// Panics if the request is malformed for its kind (see
    /// [`RequestKind::validate`]).
    pub(crate) fn enqueue(
        &self,
        tokens: Vec<usize>,
        deadline: Option<Duration>,
        kind: RequestKind,
        trace: Arc<RequestTrace>,
    ) -> Arc<Slot> {
        kind.validate(&self.config, &tokens);
        let now = Instant::now();
        let deadline = deadline.map(|d| now + d);
        let slot = Arc::new(Slot::new(trace));
        {
            let mut st = lock(&self.shared.state);
            let id = st.next_id;
            st.next_id += 1;
            slot.trace.record(Stage::Queued, self.label, None);
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
            let entry = Entry {
                slot: Arc::clone(&slot),
                gen,
            };
            st.requests.insert(id, entry);
            st.batcher.push_at(id, tokens, now, deadline);
        }
        self.shared.work.notify_one();
        slot
    }

    /// Stops waiting on batch timers: from now on every batch closes as
    /// soon as an in-flight slot is free, and enqueues are still
    /// accepted. Called once the shard starts shutting down, so its drain
    /// never waits out a replica's `max_batch_age`.
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

/// Stops admission, drains every queued request (resolving every slot,
/// waiting out every in-flight batch) and joins the worker.
///
/// If the worker died abnormally (a panic that escaped even the per-batch
/// containment), every still-unresolved request is failed with
/// [`ServeError::ServerFailed`] rather than re-panicking — a drop during
/// unwinding must never double-panic, and no waiter may be left hanging.
impl Drop for AsyncLutServer {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        if let Some(worker) = self.worker.take() {
            if worker.join().is_err() {
                fail_all(&mut lock(&self.shared.state), None);
            }
        }
    }
}

/// The one terminal-failure path, for either request kind: records the
/// failure stage, folds the stage breakdown into the metrics, resolves
/// the slot with `err` and drops the entry (a generation's KV cache
/// included). Called under the shared lock; a no-op if the request
/// already resolved.
fn fail_request(
    st: &mut State,
    id: RequestId,
    replica: Option<usize>,
    note: &'static str,
    err: ServeError,
) {
    if let Some(entry) = st.requests.remove(&id) {
        entry.slot.trace.record(Stage::Failed, replica, Some(note));
        st.metrics.record_stages(&entry.slot.trace.breakdown());
        entry.slot.resolve(Err(err));
    }
}

/// Fails every unresolved request with [`ServeError::ServerFailed`] —
/// the sweep that guarantees no ticket is left hanging.
fn fail_all(st: &mut State, replica: Option<usize>) {
    let ids: Vec<RequestId> = st.requests.keys().copied().collect();
    for id in ids {
        fail_request(
            st,
            id,
            replica,
            "server-failed",
            ServeError::ServerFailed { id },
        );
    }
}

/// Advances one generation by its freshly emitted token: streams the
/// token to the ticket, records the `decoded` stage and the inter-token
/// gap, then either finishes the generation (dropping its cache) or
/// parks the cache and rejoins the decode plane. Called under the shared
/// lock.
fn advance_generation(
    st: &mut State,
    id: RequestId,
    cache: KvCache,
    token: usize,
    replica: Option<usize>,
) {
    let now = Instant::now();
    let Some(Entry {
        slot,
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
    slot.trace.record(Stage::Decoded, replica, None);
    slot.push_token(token);
    if gen.emitted >= gen.max_new {
        let entry = st.requests.remove(&id).expect("looked up above");
        entry.slot.trace.record(Stage::Resolved, replica, None);
        st.metrics.record_stages(&entry.slot.trace.breakdown());
        st.metrics.record_generation_complete();
        entry.slot.resolve(Ok(None));
        // `entry` (and the cache) drop here — eviction on completion.
    } else {
        let context = cache.len();
        gen.cache = Some(cache);
        st.batcher.push_decode(id, context, now, gen.deadline);
    }
}

/// Resolves the in-order prefix of the completion queue: records metrics
/// and resolves tickets strictly in dispatch-sequence order, freeing one
/// in-flight slot per batch. Called under the shared lock.
fn resolve_ready_completions(st: &mut State, replica: Option<usize>) {
    while let Some(done) = st.completions.remove(&st.next_resolve) {
        st.next_resolve += 1;
        st.in_flight -= 1;
        let Completion {
            work,
            depth,
            latency,
            traces,
        } = done;
        match work {
            // The unwind consumed a decode batch's caches: these
            // generations cannot continue on this server.
            DoneWork::Bucket {
                closed: ClosedBatch { ids, .. },
                outcome: Err(()),
            }
            | DoneWork::Decode {
                closed: ClosedDecodeBatch { ids, .. },
                outcome: Err(()),
            } => {
                for id in ids {
                    fail_request(st, id, replica, "panic", ServeError::ServerFailed { id });
                }
            }
            DoneWork::Bucket {
                closed,
                outcome: Ok(results),
            } => {
                st.metrics.record(BatchRecord {
                    sequences: closed.batch.sequences(),
                    tokens: closed.batch.tokens(),
                    padded_tokens: closed.batch.padded_tokens(),
                    queue_depth: depth,
                    latency,
                    bucket: closed.bucket,
                    reason: closed.reason,
                    queue_waits: closed.queue_waits,
                });
                for ((id, result), trace) in closed.ids.iter().zip(results).zip(&traces) {
                    trace.record(Stage::Reordered, replica, None);
                    match result {
                        MemberResult::Encoded(hidden) => {
                            trace.record(Stage::Resolved, replica, None);
                            st.metrics.record_stages(&trace.breakdown());
                            if let Some(entry) = st.requests.remove(id) {
                                entry.slot.resolve(Ok(Some(EncodeResponse {
                                    id: *id,
                                    tokens: hidden.rows(),
                                    hidden,
                                    latency,
                                })));
                            }
                        }
                        MemberResult::Prefilled { cache, token } => {
                            advance_generation(st, *id, cache, token, replica);
                        }
                    }
                }
            }
            DoneWork::Decode {
                closed,
                outcome: Ok(stepped),
            } => {
                st.metrics.record_decode_batch(
                    closed.ids.len(),
                    closed.context_tokens,
                    latency,
                    closed.reason,
                );
                for (id, (cache, token)) in closed.ids.iter().zip(stepped) {
                    advance_generation(st, *id, cache, token, replica);
                }
            }
        }
    }
}

/// Runs one closed bucket batch: the pure-encode fast path is the
/// original [`BertModel::encode_batch`] call; a batch with generation
/// prefills splits by member kind — encodes re-pack and run wide,
/// prefills run through [`BertModel::prefill_batch`] (per-sequence
/// serial inside its lane, so results are composition-independent
/// bitwise) with the first token read greedily. Results return in member
/// order.
fn run_bucket(
    model: &BertModel,
    closed: &ClosedBatch,
    is_gen: &[bool],
    nl: &Nonlinearity,
    mode: MatmulMode,
    pool: &ThreadPool,
) -> Vec<MemberResult> {
    if !is_gen.contains(&true) {
        return model
            .encode_batch(&closed.batch, nl, mode, pool)
            .into_iter()
            .map(MemberResult::Encoded)
            .collect();
    }
    // Recover each member's tokens from the padded storage (the batcher
    // does not keep the originals past packing).
    let ids = closed.batch.ids();
    let max_len = closed.batch.max_len();
    let seqs: Vec<Vec<usize>> = closed
        .batch
        .lens()
        .iter()
        .enumerate()
        .map(|(i, &len)| ids[i * max_len..i * max_len + len].to_vec())
        .collect();
    let mut out: Vec<Option<MemberResult>> = (0..seqs.len()).map(|_| None).collect();
    let enc_idx: Vec<usize> = (0..seqs.len()).filter(|&i| !is_gen[i]).collect();
    if !enc_idx.is_empty() {
        let enc_seqs: Vec<Vec<usize>> = enc_idx.iter().map(|&i| seqs[i].clone()).collect();
        let batch = PaddedBatch::pack(&enc_seqs);
        for (&i, hidden) in enc_idx
            .iter()
            .zip(model.encode_batch(&batch, nl, mode, pool))
        {
            out[i] = Some(MemberResult::Encoded(hidden));
        }
    }
    let pre_idx: Vec<usize> = (0..seqs.len()).filter(|&i| is_gen[i]).collect();
    if !pre_idx.is_empty() {
        let pre_seqs: Vec<Vec<usize>> = pre_idx.iter().map(|&i| seqs[i].clone()).collect();
        for (&i, (cache, hidden)) in pre_idx
            .iter()
            .zip(model.prefill_batch(&pre_seqs, nl, mode, pool))
        {
            let token = model.greedy_token(&hidden);
            out[i] = Some(MemberResult::Prefilled { cache, token });
        }
    }
    out.into_iter()
        .map(|r| r.expect("every member computed"))
        .collect()
}

/// Runs one closed decode batch: every sequence advances one token
/// ([`BertModel::decode_batch`], lane-split, bit-identical to stepping
/// alone) and its next token is read greedily. Caches return with their
/// new K/V rows appended.
fn run_decode(
    model: &BertModel,
    mut steps: Vec<(KvCache, usize)>,
    nl: &Nonlinearity,
    mode: MatmulMode,
    pool: &ThreadPool,
) -> Vec<(KvCache, usize)> {
    let hiddens = {
        let mut refs: Vec<(&mut KvCache, usize)> = steps.iter_mut().map(|(c, t)| (c, *t)).collect();
        model.decode_batch(&mut refs, nl, mode, pool)
    };
    steps
        .into_iter()
        .zip(hiddens)
        .map(|((cache, _), hidden)| {
            let token = model.greedy_token(&hidden);
            (cache, token)
        })
        .collect()
}

/// One encoder thread: pop a job, encode it (the only expensive step —
/// outside the lock), park the result in the ordered completion queue and
/// resolve whatever prefix is ready.
fn encoder_loop(
    shared: Arc<Shared>,
    model: Arc<BertModel>,
    nl: Arc<Nonlinearity>,
    mode: MatmulMode,
    pool: ThreadPool,
    wiring: Wiring,
) {
    let Wiring {
        label: replica,
        fault,
        recorder,
    } = wiring;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(job) = st.encode_queue.pop_front() {
                    break job;
                }
                if st.encoders_exit {
                    return;
                }
                st = shared
                    .encode
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The expensive part, lock released: submitters keep admitting and
        // the dispatcher keeps closing batches for the other encoders. A
        // panic here is contained (submit validates at the door, so none
        // is expected): the batch's tickets resolve to `ServerFailed`
        // instead of leaving waiters hanging, and the server lives on.
        // Nothing is mutated across the unwind boundary — the model,
        // backends and pool are all shared-immutable — so
        // `AssertUnwindSafe` is honest.
        // Injected faults fire here too — inside the containment, keyed
        // on the dispatch sequence number (the replica-local batch
        // coordinate) — so a chaos plan exercises the exact same failure
        // path a real encode panic takes.
        let start = Instant::now();
        let seq = job.seq;
        let work = match job.work {
            JobWork::Bucket { closed, is_gen } => {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(injector) = &fault {
                        injector.before_encode(seq);
                    }
                    run_bucket(&model, &closed, &is_gen, &nl, mode, &pool)
                }));
                DoneWork::Bucket {
                    closed,
                    outcome: outcome.map_err(|_| ()),
                }
            }
            JobWork::Decode { closed, steps } => {
                // `steps` moves into the closure: a panic consumes the
                // caches in the unwind, which is exactly the failure
                // contract (the generations cannot continue here).
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(injector) = &fault {
                        injector.before_encode(seq);
                    }
                    run_decode(&model, steps, &nl, mode, &pool)
                }));
                DoneWork::Decode {
                    closed,
                    outcome: outcome.map_err(|_| ()),
                }
            }
        };
        let latency = start.elapsed();
        // Stage recording and journaling happen outside the lock — the
        // traces were cloned into the job at dispatch.
        let (panicked, members) = match &work {
            DoneWork::Bucket { closed, outcome } => (outcome.is_err(), closed.ids.len()),
            DoneWork::Decode { closed, outcome } => (outcome.is_err(), closed.ids.len()),
        };
        let note = panicked.then_some("panic");
        for trace in &job.traces {
            trace.record(Stage::Encoded, replica, note);
        }
        if let Some(rec) = &recorder {
            if panicked {
                rec.record("batch-panic", replica, None, members as u64);
                // The incident freezes the ring *as of the panic* —
                // before later traffic wraps past the lead-up events.
                rec.snapshot_incident("batch-panic", replica);
            } else {
                rec.record("batch-encoded", replica, None, members as u64);
            }
        }
        let mut st = lock(&shared.state);
        st.completions.insert(
            seq,
            Completion {
                work,
                depth: job.depth,
                latency,
                traces: job.traces,
            },
        );
        resolve_ready_completions(&mut st, replica);
        drop(st);
        // A slot may have been freed and the queue may have moved: wake
        // the dispatcher (and any shutdown waiter).
        shared.work.notify_all();
    }
}

/// The background dispatcher: expire deadlines, close batches, hand them
/// to the encoder threads, sleep until the next timed event or arrival.
fn dispatcher_loop(
    shared: Arc<Shared>,
    model: Arc<BertModel>,
    nl: Arc<Nonlinearity>,
    config: AsyncServerConfig,
    wiring: Wiring,
) {
    let (close, mode) = (config.close, config.mode);
    let max_in_flight = config.max_in_flight.max(1);
    let encoders: Vec<JoinHandle<()>> = (0..max_in_flight)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let model = Arc::clone(&model);
            let nl = Arc::clone(&nl);
            let pool = ThreadPool::new(config.threads);
            let wiring = wiring.clone();
            std::thread::Builder::new()
                .name(format!("nnlut-serve-encode-{i}"))
                .spawn(move || encoder_loop(shared, model, nl, mode, pool, wiring))
                .expect("spawn serving encoder")
        })
        .collect();
    let Wiring {
        label: replica,
        recorder,
        ..
    } = wiring;

    let mut st = lock(&shared.state);
    loop {
        let now = Instant::now();
        // Expire deadlines first — an expired request must never be
        // packed, whatever else this wakeup does. Both planes: a queued
        // prefill (generation or encode) and a queued decode step die
        // the same way.
        let expired: Vec<(RequestId, Instant)> = st
            .batcher
            .take_expired(now)
            .into_iter()
            .map(|req| (req.id, req.queued_at))
            .chain(
                st.batcher
                    .take_expired_decode(now)
                    .into_iter()
                    .map(|step| (step.id, step.queued_at)),
            )
            .collect();
        if !expired.is_empty() {
            for (id, queued_at) in expired {
                let waited = now.saturating_duration_since(queued_at);
                st.metrics.record_deadline_miss(waited);
                if let Some(rec) = &recorder {
                    rec.record(
                        "deadline-miss",
                        replica,
                        Some(id),
                        waited.as_millis() as u64,
                    );
                }
                let err = ServeError::DeadlineExceeded { id, waited };
                fail_request(&mut st, id, replica, "deadline", err);
            }
            continue; // re-plan against the culled queue
        }
        // Dispatch while an in-flight slot is free and a close fires.
        if st.in_flight < max_in_flight {
            let plan = if st.draining || st.shutdown {
                // Flush: ignore timers. The decode plane drains first —
                // in-flight generations *finish* under shutdown (their
                // token budget bounds the drain), and their steps are
                // the cheapest way to retire queued work.
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
            if let Some((target, reason)) = plan {
                let depth = st.batcher.queue_depth();
                let (work, member_ids) = match target {
                    CloseTarget::Bucket(bucket) => {
                        let closed = st.batcher.close_bucket(bucket, now, reason);
                        let is_gen: Vec<bool> = closed
                            .ids
                            .iter()
                            .map(|id| st.requests.get(id).is_some_and(|e| e.gen.is_some()))
                            .collect();
                        let ids = closed.ids.clone();
                        (JobWork::Bucket { closed, is_gen }, ids)
                    }
                    CloseTarget::Decode => {
                        let closed = st.batcher.close_decode(now, reason);
                        let steps: Vec<(KvCache, usize)> = closed
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
                                (cache, gen.next_token)
                            })
                            .collect();
                        let ids = closed.ids.clone();
                        (JobWork::Decode { closed, steps }, ids)
                    }
                };
                let seq = st.next_seq;
                st.next_seq += 1;
                st.in_flight += 1;
                // Clone the members' traces now, under the lock: the
                // encoder then records on them lock-free.
                let traces: Vec<Arc<RequestTrace>> = member_ids
                    .iter()
                    .map(|id| {
                        st.requests.get(id).map_or_else(
                            || Arc::new(RequestTrace::new(*id)),
                            |e| Arc::clone(&e.slot.trace),
                        )
                    })
                    .collect();
                let is_decode = matches!(work, JobWork::Decode { .. });
                for trace in &traces {
                    // A decode step skips `Assembled` — there is no
                    // packing phase; it keeps per-token event volume down
                    // (traces cap at `RequestTrace::MAX_EVENTS`).
                    if !is_decode {
                        trace.record(Stage::Assembled, None, None);
                    }
                    trace.record(Stage::Dispatched, replica, None);
                }
                if let Some(rec) = &recorder {
                    rec.record("batch-dispatched", replica, None, member_ids.len() as u64);
                }
                st.encode_queue.push_back(EncodeJob {
                    seq,
                    work,
                    depth,
                    traces,
                });
                shared.encode.notify_one();
                continue; // a further slot may be free
            }
        }
        if st.shutdown && st.batcher.is_empty() && st.in_flight == 0 {
            // Queue drained, every batch resolved, admission closed. No
            // request can be live here (each is always either queued, in
            // flight, or resolved) — but a sweep costs nothing and
            // guarantees no ticket is ever left hanging.
            fail_all(&mut st, replica);
            // Tell the idle encoders to exit and join them.
            st.encoders_exit = true;
            drop(st);
            shared.encode.notify_all();
            break;
        }
        // With a free slot, wake for the next close *or* deadline event.
        // Saturated (every in-flight slot busy), an elapsed close timer
        // can't be acted on — sleeping on it would spin at the floor
        // duration for the whole encode — so only deadline expiry keeps a
        // timer; a completion wakes the dispatcher through `work`.
        let timer = if st.in_flight < max_in_flight {
            st.batcher.next_event(&close)
        } else {
            st.batcher.earliest_deadline()
        };
        st = match timer {
            Some(at) => {
                // Floor the sleep so a just-elapsed timer cannot spin the
                // loop at zero-duration waits.
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
    }
    for handle in encoders {
        if handle.join().is_err() {
            // An encoder died outside the per-batch containment. Propagate
            // so the drop's sweep fails the orphaned tickets instead of
            // leaving waiters hanging.
            panic!("serving encoder thread panicked");
        }
    }
}
