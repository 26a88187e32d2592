//! Replica-sharded serving: N asynchronous replicas over one copy of the
//! weights, behind one door — the crate's only asynchronous front door.
//!
//! [`ShardedServer`] makes "more traffic" a topology knob: every replica's
//! encoder threads read the same `Arc`-shared model and backend, so
//! replica count multiplies *threads*, never *memory*. One **supervisor**
//! thread owns routing and failure handling:
//!
//! * **Routing** is join-shortest-queue by *outstanding padded area*: a
//!   request goes to the non-quarantined replica with the fewest tokens
//!   routed-but-unresolved (ties to the lowest index — deterministic
//!   given a load picture).
//! * **Backpressure** rolls up into a single door: replicas have no
//!   admission control of their own, and the shard's [`ServePolicy`] is
//!   checked against `pending + outstanding` depth/area, so a rejection
//!   means the *fleet* is saturated, not one unlucky replica.
//! * **Health** is a per-replica state machine
//!   `Healthy → Degraded → Quarantined`: batch failures, stall-watchdog
//!   trips and admission bounces advance it; any success resets it. At
//!   [`ShardConfig::quarantine_after`] consecutive failures the replica
//!   stops receiving traffic and is probed back to life with synthetic
//!   single-token batches under exponential backoff
//!   ([`ShardConfig::probe_backoff`] doubling to
//!   [`ShardConfig::max_probe_backoff`]).
//! * **Failover**: a failed or stalled attempt requeues its request at
//!   the *front* of the pending queue, avoiding the replica that just
//!   failed it, under a per-request retry budget
//!   ([`ShardConfig::retry_budget`]); past the budget the ticket resolves
//!   to [`ServeError::RetriesExhausted`]. A stalled attempt's original
//!   replica ticket is simply dropped — when the wedged encode eventually
//!   finishes, its result resolves into a slot nobody reads.
//! * **Generation failover rebuilds the KV cache**: a generation
//!   ([`ShardedServer::submit_generate`]) lives on one replica as a
//!   prefill plus a stream of decode steps, its KV cache held in that
//!   replica's memory. The supervisor harvests emitted tokens every tick
//!   (via the replica ticket's shared stream state), so when the replica
//!   panics or stalls mid-generation the shard re-submits
//!   `prompt ++ tokens-emitted-so-far` with the *remaining* token budget
//!   to a healthy replica — the retry's prefill rebuilds the cache from
//!   the harvested prefix, and because decoding is deterministic the
//!   continuation is bit-identical to one that never failed over. Each
//!   such rebuild is counted in [`ShardMetrics::cache_rebuilds`].
//!
//! # Determinism across the shard
//!
//! The layer below guarantees responses are bit-independent of batch
//! composition and thread count; sharing the weights makes them
//! bit-independent of **which replica** served the request, and discarding
//! stale results makes them bit-independent of **injected faults that
//! were retried**. `tests/serve_chaos.rs` drives seeded
//! [`FaultPlan`]s through the fleet and asserts
//! surviving responses are bit-identical to a fault-free serial run.
//!
//! # Graceful degradation
//!
//! With every replica quarantined the shard parks pending work and keeps
//! probing; deadlines and [`Ticket::wait_timeout`] bound the callers.
//! Shutdown drains: pending work is routed (to quarantined replicas if
//! nothing else survives — drain beats purity), every attempt is waited
//! out — each replica closes its batches without waiting for age or
//! deadline timers while it does — and if the supervisor itself died
//! every unresolved ticket is failed with [`ServeError::ServerFailed`]
//! rather than abandoned.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nnlut_core::profile::{OpCounters, OpProfile};
use nnlut_core::NnLutKit;
use nnlut_transformer::{BertModel, Nonlinearity, TransformerConfig};

use crate::async_server::{
    lock, AsyncLutServer, AsyncServerConfig, GenerateTicket, Outcome, RequestKind, ServeError,
    Slot, Ticket, Wiring,
};
use crate::batcher::ServePolicy;
use crate::fault::{FaultInjector, FaultPlan};
use crate::metrics::ServeMetrics;
use crate::server::RequestId;
use crate::trace::{FlightEvent, FlightRecorder, RequestTrace, Stage};

/// Construction knobs for the sharded server.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Replica count (`0` is clamped to `1`).
    pub replicas: usize,
    /// Per-replica configuration; `trace` also decides whether the fleet
    /// runs one shared flight recorder.
    pub replica: AsyncServerConfig,
    /// The single rolled-up admission door, checked against
    /// pending + outstanding depth and padded area across the fleet.
    pub admission: ServePolicy,
    /// Retries allowed per request after its first failed attempt.
    /// `2` means a request may be attempted three times in total.
    pub retry_budget: u32,
    /// How long an attempt may sit unresolved on a replica before the
    /// stall watchdog requeues it elsewhere.
    ///
    /// **Footgun:** this must comfortably exceed a real batch encode, or
    /// healthy replicas get their work yanked mid-encode, stall strikes
    /// accumulate, and the fleet quarantines itself under pure load (no
    /// fault anywhere). Big models, deep contexts, or heavier matmul
    /// modes (e.g. a first-bake [`nnlut_transformer::MatmulMode::Codebook`]
    /// bench) can silently cross a default that was fine before. Debug
    /// builds warn once when an attempt completes slower than a quarter
    /// of `stall_timeout`.
    pub stall_timeout: Duration,
    /// Consecutive failures (batch panics, stalls, admission bounces)
    /// that quarantine a replica. `1` quarantines on the first failure;
    /// below that is clamped to `1`.
    pub quarantine_after: u32,
    /// Initial delay before a quarantined replica's first probe batch.
    pub probe_backoff: Duration,
    /// Ceiling of the exponential probe backoff.
    pub max_probe_backoff: Duration,
    /// Deterministic fault schedule for chaos runs; `None` (the default)
    /// injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            replica: AsyncServerConfig::default(),
            admission: ServePolicy::unbounded(),
            retry_budget: 2,
            stall_timeout: Duration::from_secs(2),
            quarantine_after: 2,
            probe_backoff: Duration::from_millis(25),
            max_probe_backoff: Duration::from_secs(2),
            fault_plan: None,
        }
    }
}

/// A replica's position in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Serving normally.
    Healthy,
    /// Recent failure(s), still routable; one more strike may quarantine.
    Degraded,
    /// Out of rotation; re-admitted only by a successful probe batch.
    Quarantined,
}

impl ReplicaHealth {
    /// Lower-case name (`"healthy"` / `"degraded"` / `"quarantined"`) —
    /// what `/healthz` reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReplicaHealth::Healthy => "healthy",
            ReplicaHealth::Degraded => "degraded",
            ReplicaHealth::Quarantined => "quarantined",
        }
    }
}

/// Point-in-time snapshot of one replica's health bookkeeping (see
/// [`ShardedServer::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Replica index.
    pub replica: usize,
    /// Current health state.
    pub health: ReplicaHealth,
    /// Consecutive failures since the last success.
    pub consecutive_failures: u32,
    /// Requests successfully routed to this replica (not bounced).
    pub routed: u64,
    /// Attempts this replica completed successfully.
    pub completed: u64,
    /// Attempts that failed on this replica (batch panics).
    pub failures: u64,
    /// Attempts the stall watchdog pulled off this replica.
    pub stalls: u64,
    /// Routing decisions bounced by an injected admission rejection.
    pub rejections: u64,
    /// Times this replica entered quarantine.
    pub quarantines: u64,
    /// Times a probe re-admitted this replica.
    pub readmissions: u64,
    /// Probe batches sent while quarantined.
    pub probes_sent: u64,
    /// Padded area (tokens) routed to this replica and not yet resolved —
    /// the join-shortest-queue signal.
    pub outstanding_tokens: usize,
    /// Milliseconds since this replica's last health *transition*
    /// (construction counts as one) — lets a probe distinguish a fresh
    /// quarantine from a stuck one.
    pub last_transition_ms: u64,
}

/// Shard-level counters — the failure-handling ledger `/metrics` reports
/// alongside the merged [`ServeMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Requests admitted through the shard door.
    pub submitted: u64,
    /// Requests resolved successfully.
    pub completed: u64,
    /// Failed attempts that were requeued onto another replica.
    pub failovers: u64,
    /// Requests that ran out of retry budget ([`ServeError::RetriesExhausted`]).
    pub retries_exhausted: u64,
    /// Attempts the stall watchdog requeued.
    pub stalls: u64,
    /// Probe batches sent to quarantined replicas.
    pub probes_sent: u64,
    /// Quarantined replicas re-admitted by a successful probe.
    pub readmissions: u64,
    /// Requests rejected at the shard door ([`ServeError::Overloaded`]).
    pub overload_rejections: u64,
    /// Requests that expired at their deadline (queued at the shard or
    /// inside a replica).
    pub deadline_misses: u64,
    /// Generation requests admitted through the shard door (a subset of
    /// `submitted`).
    pub generations: u64,
    /// Generation failovers that re-prefilled their harvested prefix on
    /// another replica — each one is a KV-cache rebuild.
    pub cache_rebuilds: u64,
}

/// One admitted request waiting to be routed (or re-routed).
#[derive(Debug)]
struct ShardRequest {
    id: RequestId,
    /// For a generation, across failovers: `prompt ++
    /// every-token-harvested-so-far`, with `max_new` in `kind` the
    /// *remaining* budget — so a retry rebuilds the KV cache by
    /// re-prefilling exactly the prefix the caller already streamed.
    tokens: Vec<usize>,
    deadline: Option<Instant>,
    queued_at: Instant,
    /// Failed attempts so far.
    attempts: u32,
    /// The replica that just failed this request — avoided on the next
    /// route when any alternative exists.
    avoid: Option<usize>,
    kind: RequestKind,
}

impl ShardRequest {
    /// The padded-area charge this request puts on the door and the JSQ
    /// signal: its current tokens, plus — for a generation — the decode
    /// budget it has reserved. Symmetric on admit/route/resolve as long
    /// as callers charge and discharge through the same call.
    fn area(&self) -> usize {
        self.tokens.len()
            + match self.kind {
                RequestKind::Encode => 0,
                RequestKind::Generate { max_new } => max_new,
            }
    }
}

/// Internal per-replica bookkeeping (the mutable side of [`ReplicaStatus`]).
#[derive(Debug)]
struct ReplicaCtl {
    health: ReplicaHealth,
    consecutive_failures: u32,
    routed: u64,
    completed: u64,
    failures: u64,
    stalls: u64,
    rejections: u64,
    quarantines: u64,
    readmissions: u64,
    probes_sent: u64,
    outstanding_tokens: usize,
    /// When the next probe may go out (quarantined replicas only).
    next_probe_at: Option<Instant>,
    /// Current probe backoff (doubles per failed probe).
    backoff: Duration,
    /// When the health state last *changed* (construction counts).
    last_transition: Instant,
}

impl ReplicaCtl {
    fn new(backoff: Duration) -> Self {
        Self {
            health: ReplicaHealth::Healthy,
            consecutive_failures: 0,
            routed: 0,
            completed: 0,
            failures: 0,
            stalls: 0,
            rejections: 0,
            quarantines: 0,
            readmissions: 0,
            probes_sent: 0,
            outstanding_tokens: 0,
            next_probe_at: None,
            backoff,
            last_transition: Instant::now(),
        }
    }

    fn snapshot(&self, replica: usize) -> ReplicaStatus {
        ReplicaStatus {
            replica,
            health: self.health,
            consecutive_failures: self.consecutive_failures,
            routed: self.routed,
            completed: self.completed,
            failures: self.failures,
            stalls: self.stalls,
            rejections: self.rejections,
            quarantines: self.quarantines,
            readmissions: self.readmissions,
            probes_sent: self.probes_sent,
            outstanding_tokens: self.outstanding_tokens,
            last_transition_ms: self.last_transition.elapsed().as_millis() as u64,
        }
    }

    /// A success (served attempt or probe) fully restores the replica.
    fn on_success(&mut self, now: Instant) -> bool {
        let readmitted = self.health == ReplicaHealth::Quarantined;
        if readmitted {
            self.readmissions += 1;
        }
        if self.health != ReplicaHealth::Healthy {
            self.last_transition = now;
        }
        self.health = ReplicaHealth::Healthy;
        self.consecutive_failures = 0;
        self.next_probe_at = None;
        readmitted
    }

    /// A failure advances the state machine; returns true on the
    /// Degraded/Healthy → Quarantined edge.
    fn on_failure(&mut self, config: &SupervisorConfig, now: Instant) -> bool {
        self.consecutive_failures += 1;
        if self.consecutive_failures >= config.quarantine_after {
            let newly = self.health != ReplicaHealth::Quarantined;
            if newly {
                self.health = ReplicaHealth::Quarantined;
                self.quarantines += 1;
                self.backoff = config.probe_backoff;
                self.last_transition = now;
            } else {
                // A failed probe: back off harder.
                self.backoff = (self.backoff * 2).min(config.max_probe_backoff);
            }
            self.next_probe_at = Some(now + self.backoff);
            newly
        } else {
            if self.health != ReplicaHealth::Degraded {
                self.last_transition = now;
            }
            self.health = ReplicaHealth::Degraded;
            false
        }
    }
}

/// Advances `replica`'s health machine after a failure, journaling any
/// state transition and — per the incident contract — freezing the
/// flight recorder on the edge itself, so the events *leading up to* the
/// degradation survive the ring.
fn fail_health(st: &mut ShardState, replica: usize, config: &SupervisorConfig, now: Instant) {
    let before = st.replicas[replica].health;
    st.replicas[replica].on_failure(config, now);
    let after = st.replicas[replica].health;
    if after != before {
        if let Some(rec) = &config.recorder {
            rec.record(after.as_str(), Some(replica), None, 0);
            rec.snapshot_incident(after.as_str(), Some(replica));
        }
    }
}

/// Everything the door and the supervisor share, behind one lock.
#[derive(Debug)]
struct ShardState {
    pending: VecDeque<ShardRequest>,
    pending_tokens: usize,
    /// Attempts currently on replicas (count / padded area) — the other
    /// half of the rolled-up door signal.
    outstanding: usize,
    outstanding_tokens: usize,
    /// Every request the shard still owes an answer, encodes and
    /// generations alike.
    requests: HashMap<RequestId, Entry>,
    next_id: RequestId,
    shutdown: bool,
    replicas: Vec<ReplicaCtl>,
    metrics: ShardMetrics,
    /// Merged replica metrics frozen at shutdown, so
    /// [`ShardedServer::metrics`] keeps answering after the fleet is gone.
    final_metrics: Option<ServeMetrics>,
}

/// One unresolved shard request.
#[derive(Debug)]
struct Entry {
    /// The state behind the caller's ticket. Tokens harvested from
    /// whichever replica attempt is current are spliced into a
    /// generation's slot, so the caller's stream is seamless across
    /// failovers.
    slot: Arc<Slot>,
    /// Whether the request is a generation (the KV-cache residency
    /// gauge counts these).
    generation: bool,
}

#[derive(Debug)]
struct ShardShared {
    state: Mutex<ShardState>,
    /// Signalled on arrivals and shutdown — what the supervisor sleeps on
    /// when it has nothing in flight.
    work: Condvar,
}

/// The knobs the supervisor thread needs (a copy of the relevant
/// [`ShardConfig`] fields).
#[derive(Debug, Clone)]
struct SupervisorConfig {
    retry_budget: u32,
    stall_timeout: Duration,
    quarantine_after: u32,
    probe_backoff: Duration,
    max_probe_backoff: Duration,
    fault_plan: Option<Arc<FaultPlan>>,
    recorder: Option<Arc<FlightRecorder>>,
}

/// One request currently riding a replica.
#[derive(Debug)]
struct Attempt {
    req: ShardRequest,
    replica: usize,
    /// The replica submission's slot, which the supervisor alone reads
    /// (tokens land here as the replica decodes).
    replica_slot: Arc<Slot>,
    /// The shard-owned slot the caller's ticket reads.
    sink: Arc<Slot>,
    /// Tokens already forwarded from `replica_slot` to `sink`.
    harvested: usize,
    /// The padded-area charge recorded when this attempt was routed —
    /// discharged verbatim on resolution (the request's own area may have
    /// grown since, as harvested tokens fold into `req.tokens`).
    area: usize,
    /// Last sign of life: resolution progress for encodes is binary, but
    /// a generation resets this on every harvested token, so the stall
    /// watchdog measures time-without-progress, not total runtime.
    last_progress: Instant,
}

/// N async replicas over one copy of the weights, one submit API, one
/// door, health-aware failover. See the module docs for the design.
///
/// # Examples
///
/// ```
/// use nnlut_core::{train::TrainConfig, NnLutKit};
/// use nnlut_serve::{ShardConfig, ShardedServer};
/// use nnlut_transformer::{BertModel, TransformerConfig};
///
/// let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 3);
/// let kit = NnLutKit::train_with(16, 3, &TrainConfig::fast());
/// let server = ShardedServer::new(model, kit, ShardConfig {
///     replicas: 2,
///     ..ShardConfig::default()
/// });
/// let ticket = server.submit(vec![1, 2, 3]);
/// let response = ticket.wait().expect("no faults, no deadline");
/// assert_eq!(response.hidden.shape(), (3, 64));
/// assert_eq!(server.status().len(), 2);
/// ```
#[derive(Debug)]
pub struct ShardedServer {
    shared: Arc<ShardShared>,
    /// Dropped (last `Arc`) on shutdown, which drains every replica.
    servers: Option<Arc<Vec<AsyncLutServer>>>,
    config: TransformerConfig,
    admission: ServePolicy,
    supervisor: Option<JoinHandle<()>>,
    /// Fleet-wide flight recorder (one ring shared by every replica and
    /// the supervisor); `None` when tracing is off.
    recorder: Option<Arc<FlightRecorder>>,
    /// Op-level profiling sink attached to the shared backend when
    /// tracing is on; snapshot exposed over `/metrics`.
    op_counters: Option<Arc<OpCounters>>,
    /// When this shard came up — `/healthz` reports the elapsed time.
    started: Instant,
}

impl ShardedServer {
    /// Builds the fleet ("Altogether" deployment: every non-linearity on
    /// the kit's baked LUT engines) and starts the supervisor.
    pub fn new(model: BertModel, kit: NnLutKit, config: ShardConfig) -> Self {
        let nl = Nonlinearity::all_lut(&kit);
        Self::with_backend(model, nl, config)
    }

    /// Builds the fleet with an explicit per-site backend selection. The
    /// model and backend are shared (`Arc`) across every replica — N
    /// replicas cost one copy of the weights.
    ///
    /// # Panics
    ///
    /// Panics if `config.replica.mode` is
    /// [`MatmulMode::Codebook`](nnlut_transformer::MatmulMode::Codebook)
    /// and the model has no baked codebooks.
    pub fn with_backend(model: BertModel, nl: Nonlinearity, config: ShardConfig) -> Self {
        crate::check_codebook_mode(&model, config.replica.mode);
        let model = Arc::new(model);
        let trace_cfg = config.replica.trace;
        // One fleet-wide recorder: replicas and the supervisor journal
        // into the same ring, so an incident snapshot shows the whole
        // shard's recent history, not one replica's.
        let recorder = trace_cfg
            .recorder
            .then(|| Arc::new(FlightRecorder::new(trace_cfg.recorder_capacity)));
        // Attach the op-profiling sink when tracing is on (and the caller
        // didn't wire their own) — relaxed counters, read only by /metrics.
        let mut nl = nl;
        if recorder.is_some() && nl.profile().is_none() {
            nl = nl.with_profile(Arc::new(OpCounters::new()));
        }
        let op_counters = nl.profile().cloned();
        let nl = Arc::new(nl);
        let model_config = model.config().clone();
        let replicas = config.replicas.max(1);
        let servers: Vec<AsyncLutServer> = (0..replicas)
            .map(|r| {
                let wiring = Wiring {
                    label: Some(r),
                    fault: config
                        .fault_plan
                        .as_ref()
                        .map(|plan| FaultInjector::new(Arc::clone(plan), r)),
                    recorder: recorder.clone(),
                };
                let (model, nl) = (Arc::clone(&model), Arc::clone(&nl));
                AsyncLutServer::with_shared(model, nl, config.replica.clone(), wiring)
            })
            .collect();
        let servers = Arc::new(servers);
        let shared = Arc::new(ShardShared {
            state: Mutex::new(ShardState {
                pending: VecDeque::new(),
                pending_tokens: 0,
                outstanding: 0,
                outstanding_tokens: 0,
                requests: HashMap::new(),
                next_id: 0,
                shutdown: false,
                replicas: (0..replicas)
                    .map(|_| ReplicaCtl::new(config.probe_backoff))
                    .collect(),
                metrics: ShardMetrics::default(),
                final_metrics: None,
            }),
            work: Condvar::new(),
        });
        let sup_shared = Arc::clone(&shared);
        let sup_servers = Arc::clone(&servers);
        let sup_config = SupervisorConfig {
            retry_budget: config.retry_budget,
            stall_timeout: config.stall_timeout,
            quarantine_after: config.quarantine_after.max(1),
            probe_backoff: config.probe_backoff,
            max_probe_backoff: config.max_probe_backoff,
            fault_plan: config.fault_plan,
            recorder: recorder.clone(),
        };
        let supervisor = std::thread::Builder::new()
            .name("nnlut-shard-supervisor".into())
            .spawn(move || supervisor_loop(sup_shared, sup_servers, sup_config))
            .expect("spawn shard supervisor");
        Self {
            shared,
            servers: Some(servers),
            config: model_config,
            admission: config.admission,
            supervisor: Some(supervisor),
            recorder,
            op_counters,
            started: Instant::now(),
        }
    }

    /// Enqueues a request with no deadline; the [`Ticket`] resolves when
    /// some replica serves it (possibly after failovers).
    ///
    /// # Panics
    ///
    /// Panics if the request is empty, overlong, out-of-vocabulary, or
    /// submitted after [`ShardedServer::shutdown`].
    pub fn submit(&self, tokens: Vec<usize>) -> Ticket {
        self.submit_with_deadline(tokens, None)
    }

    /// Enqueues a request whose total time-to-route-and-queue is bounded
    /// by `deadline` (measured from now). The deadline follows the
    /// request across failovers: each retry carries only the *remaining*
    /// budget to its replica, and a request that expires while pending at
    /// the shard resolves to [`ServeError::DeadlineExceeded`] without
    /// being encoded.
    ///
    /// If admitting the request would push the fleet-wide
    /// pending + outstanding load past the shard's [`ServePolicy`]
    /// watermark, the ticket resolves immediately to
    /// [`ServeError::Overloaded`].
    ///
    /// # Panics
    ///
    /// Panics if the request is empty, overlong, out-of-vocabulary, or
    /// submitted after [`ShardedServer::shutdown`].
    pub fn submit_with_deadline(&self, tokens: Vec<usize>, deadline: Option<Duration>) -> Ticket {
        let (id, slot) = self.enqueue(tokens, deadline, RequestKind::Encode);
        Ticket::new(id, slot)
    }

    /// Enqueues an autoregressive generation: `max_new` greedy tokens
    /// continuing `prompt`, streamed through the returned
    /// [`GenerateTicket`] as some replica decodes them.
    ///
    /// The generation rides one replica as a prefill plus per-token
    /// decode steps (continuous batching: decode steps share batches with
    /// prefills and encodes, and the stream is bit-identical to
    /// [`BertModel::generate`]). The supervisor harvests
    /// emitted tokens every tick, so if the replica panics or stalls
    /// mid-generation the shard re-submits `prompt ++ harvested-tokens`
    /// with the remaining budget to a healthy replica: the retry's
    /// prefill **rebuilds the KV cache** from the harvested prefix and,
    /// decoding being deterministic, the caller's stream continues
    /// bit-identically to a fault-free run. Retries consume the same
    /// [`ShardConfig::retry_budget`] as encodes; past it the ticket
    /// fails with [`ServeError::RetriesExhausted`].
    ///
    /// `deadline` bounds the *whole* generation (measured from now); the
    /// shard door charges `prompt.len() + max_new` padded area against
    /// its [`ServePolicy`], reserving the decode budget up front.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty, out-of-vocabulary, `max_new` is 0,
    /// `prompt.len() + max_new` exceeds the model's `max_seq`, or the
    /// shard is shut down.
    pub fn submit_generate(
        &self,
        prompt: Vec<usize>,
        max_new: usize,
        deadline: Option<Duration>,
    ) -> GenerateTicket {
        let (id, slot) = self.enqueue(prompt, deadline, RequestKind::Generate { max_new });
        GenerateTicket::new(id, slot)
    }

    /// The one admission path for both request kinds: validate, charge
    /// the request's area (a generation reserves its decode budget)
    /// against the rolled-up door, then queue it for routing or reject it
    /// at the door.
    fn enqueue(
        &self,
        tokens: Vec<usize>,
        deadline: Option<Duration>,
        kind: RequestKind,
    ) -> (RequestId, Arc<Slot>) {
        kind.validate(&self.config, &tokens);
        let now = Instant::now();
        let (id, slot, rejected_at_depth) = {
            let mut st = lock(&self.shared.state);
            assert!(!st.shutdown, "cannot submit after shutdown");
            let id = st.next_id;
            st.next_id += 1;
            // The trace is born inside the lock so its id matches the
            // shard ticket; it rides the request across every failover.
            // `Admitted` covers routing: the replica records `Queued`.
            let slot = Arc::new(Slot::new(Arc::new(RequestTrace::new(id))));
            slot.trace.record(Stage::Admitted, None, None);
            let req = ShardRequest {
                id,
                tokens,
                deadline: deadline.map(|d| now + d),
                queued_at: now,
                attempts: 0,
                avoid: None,
                kind,
            };
            let depth = st.pending.len() + st.outstanding;
            let area = st.pending_tokens + st.outstanding_tokens;
            if !self.admission.admits(depth + 1, area + req.area()) {
                st.metrics.overload_rejections += 1;
                (id, slot, Some(depth))
            } else {
                st.metrics.submitted += 1;
                let generation = kind != RequestKind::Encode;
                st.metrics.generations += u64::from(generation);
                let entry = Entry {
                    slot: Arc::clone(&slot),
                    generation,
                };
                st.requests.insert(id, entry);
                st.pending_tokens += req.area();
                st.pending.push_back(req);
                (id, slot, None)
            }
        };
        // Resolved outside the shared lock; the slot's own lock orders
        // the handoff.
        match rejected_at_depth {
            Some(queue_depth) => {
                slot.trace.record(Stage::Failed, None, Some("overloaded"));
                if let Some(rec) = &self.recorder {
                    rec.record("overload-rejection", None, Some(id), queue_depth as u64);
                }
                slot.resolve(Err(ServeError::Overloaded { id, queue_depth }));
            }
            None => self.shared.work.notify_all(),
        }
        (id, slot)
    }

    /// Generations admitted and not yet finished (their KV caches are
    /// resident on some replica, or about to be rebuilt on one).
    pub fn active_generations(&self) -> usize {
        let st = lock(&self.shared.state);
        st.requests.values().filter(|e| e.generation).count()
    }

    /// Requests admitted but not yet routed to a replica.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.state).pending.len()
    }

    /// Fleet-wide in-flight load: pending + on-replica padded area — the
    /// signal the rolled-up admission door runs on.
    pub fn queued_tokens(&self) -> usize {
        let st = lock(&self.shared.state);
        st.pending_tokens + st.outstanding_tokens
    }

    /// Per-replica health snapshots, indexed by replica.
    pub fn status(&self) -> Vec<ReplicaStatus> {
        let st = lock(&self.shared.state);
        st.replicas
            .iter()
            .enumerate()
            .map(|(r, ctl)| ctl.snapshot(r))
            .collect()
    }

    /// The shard-level failure-handling counters.
    pub fn shard_metrics(&self) -> ShardMetrics {
        lock(&self.shared.state).metrics
    }

    /// Serving metrics merged across every replica (see
    /// [`ServeMetrics::merge`] for the rollup semantics). Keeps answering
    /// after [`ShardedServer::shutdown`] with the final pre-shutdown
    /// snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        match &self.servers {
            Some(servers) => merged_metrics(servers),
            None => lock(&self.shared.state)
                .final_metrics
                .clone()
                .unwrap_or_default(),
        }
    }

    /// Starts the ops-plane HTTP listener on `addr` (use
    /// `"127.0.0.1:0"` for an ephemeral port; the bound address is on the
    /// returned handle):
    ///
    /// * `GET /healthz` — fleet health JSON: `uptime_ms`, crate
    ///   `version`, and per-replica state including `last_transition_ms`;
    ///   status `200` while any replica is routable, `503` once the whole
    ///   fleet is quarantined.
    /// * `GET /metrics` — Prometheus text exposition
    ///   (`text/plain; version=0.0.4`): merged [`ServeMetrics`] counters
    ///   and latency summaries, per-[`Stage`] breakdown summaries,
    ///   [`ShardMetrics`] failure-handling counters, per-replica gauges,
    ///   and (when tracing is on) op-level profile totals and recorder
    ///   occupancy.
    /// * `GET /trace` — the flight recorder's current ring, oldest
    ///   event first; `{"enabled":false}` when tracing is off.
    /// * `GET /incident` — the last [`crate::trace::IncidentReport`]
    ///   frozen by a health transition, batch panic or stall trip;
    ///   `{"incident":null}` if none has fired.
    ///
    /// The listener holds snapshots' sources (`Arc`s), not the server:
    /// dropping the [`HttpHandle`](crate::http::HttpHandle) stops it
    /// independently of the serving fleet, and it must be dropped before
    /// (or simply not outlive) meaningful shutdown reporting is needed —
    /// after [`ShardedServer::shutdown`] it reports the frozen final
    /// snapshot.
    pub fn serve_http(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<crate::http::HttpHandle> {
        let health_shared = Arc::clone(&self.shared);
        let health_started = self.started;
        let healthz: Arc<dyn Fn() -> crate::http::HttpResponse + Send + Sync> =
            Arc::new(move || {
                let st = lock(&health_shared.state);
                let replicas: Vec<String> = st
                    .replicas
                    .iter()
                    .enumerate()
                    .map(|(r, ctl)| {
                        format!(
                            "{{\"replica\":{r},\"health\":\"{}\",\"consecutive_failures\":{},\
                             \"routed\":{},\"completed\":{},\"failures\":{},\"stalls\":{},\
                             \"rejections\":{},\"quarantines\":{},\"readmissions\":{},\
                             \"probes_sent\":{},\"outstanding_tokens\":{},\
                             \"last_transition_ms\":{}}}",
                            ctl.health.as_str(),
                            ctl.consecutive_failures,
                            ctl.routed,
                            ctl.completed,
                            ctl.failures,
                            ctl.stalls,
                            ctl.rejections,
                            ctl.quarantines,
                            ctl.readmissions,
                            ctl.probes_sent,
                            ctl.outstanding_tokens,
                            ctl.last_transition.elapsed().as_millis(),
                        )
                    })
                    .collect();
                let any_routable = st
                    .replicas
                    .iter()
                    .any(|c| c.health != ReplicaHealth::Quarantined);
                let status = if any_routable { 200 } else { 503 };
                let body = format!(
                    "{{\"status\":\"{}\",\"uptime_ms\":{},\"version\":\"{}\",\"replicas\":[{}]}}\n",
                    if any_routable { "ok" } else { "quarantined" },
                    health_started.elapsed().as_millis(),
                    env!("CARGO_PKG_VERSION"),
                    replicas.join(",")
                );
                crate::http::HttpResponse::json_with_status(status, body)
            });

        let prom_shared = Arc::clone(&self.shared);
        let prom_servers = self.servers.clone();
        let prom_op = self.op_counters.clone();
        let prom_recorder = self.recorder.clone();
        let prom_started = self.started;
        let prometheus: Arc<dyn Fn() -> crate::http::HttpResponse + Send + Sync> =
            Arc::new(move || {
                let merged = match &prom_servers {
                    Some(servers) => merged_metrics(servers),
                    None => ServeMetrics::default(),
                };
                let (shard, replicas) = {
                    let st = lock(&prom_shared.state);
                    let replicas: Vec<ReplicaStatus> = st
                        .replicas
                        .iter()
                        .enumerate()
                        .map(|(r, ctl)| ctl.snapshot(r))
                        .collect();
                    (st.metrics, replicas)
                };
                let body = render_prometheus(
                    &merged,
                    &shard,
                    &replicas,
                    prom_op.as_deref().map(OpCounters::snapshot),
                    prom_recorder.as_deref(),
                    prom_started.elapsed(),
                );
                crate::http::HttpResponse::prometheus(body)
            });

        let trace_recorder = self.recorder.clone();
        let trace_route: Arc<dyn Fn() -> crate::http::HttpResponse + Send + Sync> =
            Arc::new(move || {
                let body = match &trace_recorder {
                    Some(rec) => format!(
                        "{{\"enabled\":true,\"capacity\":{},\"recorded\":{},\
                         \"approx_bytes\":{},\"events\":{}}}\n",
                        rec.capacity(),
                        rec.recorded(),
                        rec.approx_bytes(),
                        flight_events_json(&rec.snapshot()),
                    ),
                    None => "{\"enabled\":false,\"events\":[]}\n".to_string(),
                };
                crate::http::HttpResponse::json(body)
            });

        let incident_recorder = self.recorder.clone();
        let incident_route: Arc<dyn Fn() -> crate::http::HttpResponse + Send + Sync> =
            Arc::new(move || {
                let body = match incident_recorder.as_ref().and_then(|r| r.last_incident()) {
                    Some(incident) => format!(
                        "{{\"incident\":{{\"trigger\":\"{}\",\"replica\":{},\"seq\":{},\
                         \"at_ms\":{:.3},\"events\":{}}}}}\n",
                        incident.trigger,
                        incident
                            .replica
                            .map_or_else(|| "null".to_string(), |r| r.to_string()),
                        incident.incident_seq,
                        incident.at.as_secs_f64() * 1e3,
                        flight_events_json(&incident.events),
                    ),
                    None => "{\"incident\":null}\n".to_string(),
                };
                crate::http::HttpResponse::json(body)
            });

        crate::http::spawn(
            addr,
            vec![
                ("/healthz".into(), healthz),
                ("/metrics".into(), prometheus),
                ("/trace".into(), trace_route),
                ("/incident".into(), incident_route),
            ],
        )
    }

    /// The fleet-wide flight recorder, when tracing is on (`NNLUT_TRACE=1`
    /// or `trace.recorder` in the replica config).
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Snapshot of the op-level profile (baked-kernel call counts, rows
    /// and elapsed time) accumulated by the shared backend since startup;
    /// `None` when tracing is off and no sink was pre-attached.
    pub fn op_profile(&self) -> Option<OpProfile> {
        self.op_counters.as_deref().map(OpCounters::snapshot)
    }

    /// Stops admission, drains every pending and in-flight request
    /// (resolving all tickets — success, typed error, never abandonment),
    /// joins the supervisor and shuts every replica down. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        // The supervisor only exits once every attempt resolves, so the
        // replicas must stop waiting on batch timers first.
        for server in self.servers.iter().flat_map(|s| s.iter()) {
            server.drain();
        }
        if let Some(supervisor) = self.supervisor.take() {
            if supervisor.join().is_err() {
                // The supervisor died: fail every unresolved ticket
                // rather than leaving waiters hanging.
                let mut st = lock(&self.shared.state);
                let orphaned: Vec<RequestId> = st.requests.keys().copied().collect();
                for id in orphaned {
                    let err = ServeError::ServerFailed { id };
                    fail_terminal(&mut st, id, None, "server-failed", err);
                }
            }
        }
        if let Some(servers) = self.servers.take() {
            let frozen = merged_metrics(&servers);
            lock(&self.shared.state).final_metrics = Some(frozen);
            // Last Arc: dropping drains and joins every replica.
            drop(servers);
        }
    }
}

impl Drop for ShardedServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn merged_metrics(servers: &[AsyncLutServer]) -> ServeMetrics {
    let mut merged: Option<ServeMetrics> = None;
    for server in servers {
        let snapshot = server.metrics();
        match &mut merged {
            Some(m) => m.merge(&snapshot),
            None => merged = Some(snapshot),
        }
    }
    merged.unwrap_or_default()
}

/// Flight-recorder events as a JSON array (oldest first).
fn flight_events_json(events: &[FlightEvent]) -> String {
    let items: Vec<String> = events
        .iter()
        .map(|ev| {
            format!(
                "{{\"seq\":{},\"at_ms\":{:.3},\"kind\":\"{}\",\"replica\":{},\
                 \"request\":{},\"value\":{}}}",
                ev.seq,
                ev.at.as_secs_f64() * 1e3,
                ev.kind,
                ev.replica
                    .map_or_else(|| "null".to_string(), |r| r.to_string()),
                ev.request
                    .map_or_else(|| "null".to_string(), |id| id.to_string()),
                ev.value,
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Renders the `/metrics` Prometheus text-exposition body. Metric names
/// are a stability contract (`tests/serve_http.rs` parses and pins them):
/// `nnlut_serve_*` for the merged serving layer, `nnlut_shard_*` for the
/// failure-handling ledger, `nnlut_op_*` for the baked-kernel profile.
fn render_prometheus(
    merged: &ServeMetrics,
    shard: &ShardMetrics,
    replicas: &[ReplicaStatus],
    op: Option<OpProfile>,
    recorder: Option<&FlightRecorder>,
    uptime: Duration,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    fn head(out: &mut String, name: &str, kind: &str, help: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }

    head(
        &mut out,
        "nnlut_serve_uptime_seconds",
        "gauge",
        "Seconds since the shard came up.",
    );
    let _ = writeln!(
        out,
        "nnlut_serve_uptime_seconds {:.3}",
        uptime.as_secs_f64()
    );

    for (name, help, value) in [
        (
            "nnlut_serve_batches_total",
            "Batches encoded across the fleet.",
            merged.batches_served(),
        ),
        (
            "nnlut_serve_sequences_total",
            "Sequences served across the fleet.",
            merged.total_sequences() as u64,
        ),
        (
            "nnlut_serve_tokens_total",
            "Real (unpadded) tokens served across the fleet.",
            merged.total_tokens() as u64,
        ),
        (
            "nnlut_serve_deadline_misses_total",
            "Requests that expired while queued inside a replica \
             (nnlut_shard_deadline_misses_total counts every expiry).",
            merged.deadline_misses() as u64,
        ),
        (
            "nnlut_serve_decode_batches_total",
            "Continuous-batching decode batches run across the fleet.",
            merged.decode_batches(),
        ),
        (
            "nnlut_serve_decode_steps_total",
            "Single-token decode steps run across the fleet.",
            merged.decode_steps(),
        ),
        (
            "nnlut_serve_generated_tokens_total",
            "Tokens emitted by generations across the fleet.",
            merged.generated_tokens(),
        ),
        (
            "nnlut_serve_generations_completed_total",
            "Generations that emitted their full token budget.",
            merged.generations_completed(),
        ),
    ] {
        head(&mut out, name, "counter", help);
        let _ = writeln!(out, "{name} {value}");
    }

    head(
        &mut out,
        "nnlut_serve_decode_batch_width",
        "gauge",
        "Mean decode steps per decode batch (continuous-batching width).",
    );
    let _ = writeln!(
        out,
        "nnlut_serve_decode_batch_width {:.3}",
        merged.decode_batch_width()
    );
    head(
        &mut out,
        "nnlut_serve_inter_token_seconds",
        "summary",
        "Gap between consecutive tokens of a generation.",
    );
    for (q, p) in [("0.5", 50.0), ("0.95", 95.0)] {
        let _ = writeln!(
            out,
            "nnlut_serve_inter_token_seconds{{quantile=\"{q}\"}} {:.6}",
            merged
                .inter_token_percentile(p)
                .unwrap_or_default()
                .as_secs_f64()
        );
    }

    head(
        &mut out,
        "nnlut_serve_tokens_per_second",
        "gauge",
        "End-to-end token throughput since startup.",
    );
    let _ = writeln!(
        out,
        "nnlut_serve_tokens_per_second {:.3}",
        merged.tokens_per_sec()
    );
    head(
        &mut out,
        "nnlut_serve_padding_efficiency",
        "gauge",
        "Real tokens / padded area, weighted across buckets.",
    );
    let _ = writeln!(
        out,
        "nnlut_serve_padding_efficiency {:.6}",
        merged.padding_efficiency()
    );

    head(
        &mut out,
        "nnlut_serve_batch_latency_seconds",
        "summary",
        "Per-batch encode latency.",
    );
    for (q, p) in [("0.5", 50.0), ("0.95", 95.0)] {
        let _ = writeln!(
            out,
            "nnlut_serve_batch_latency_seconds{{quantile=\"{q}\"}} {:.6}",
            merged
                .latency_percentile(p)
                .unwrap_or_default()
                .as_secs_f64()
        );
    }
    let _ = writeln!(
        out,
        "nnlut_serve_batch_latency_seconds_sum {:.6}",
        merged.total_latency().as_secs_f64()
    );
    let _ = writeln!(
        out,
        "nnlut_serve_batch_latency_seconds_count {}",
        merged.batches_served()
    );

    head(
        &mut out,
        "nnlut_serve_stage_seconds",
        "summary",
        "Per-request time spent in each lifecycle stage (from request traces).",
    );
    for stage in Stage::ALL {
        let count = merged.stage_count(stage);
        if count == 0 {
            continue;
        }
        for (q, p) in [("0.5", 50.0), ("0.95", 95.0)] {
            let _ = writeln!(
                out,
                "nnlut_serve_stage_seconds{{stage=\"{}\",quantile=\"{q}\"}} {:.6}",
                stage.as_str(),
                merged
                    .stage_percentile(stage, p)
                    .unwrap_or_default()
                    .as_secs_f64()
            );
        }
        let _ = writeln!(
            out,
            "nnlut_serve_stage_seconds_sum{{stage=\"{}\"}} {:.6}",
            stage.as_str(),
            merged.stage_total(stage).as_secs_f64()
        );
        let _ = writeln!(
            out,
            "nnlut_serve_stage_seconds_count{{stage=\"{}\"}} {count}",
            stage.as_str()
        );
    }

    for (name, help, value) in [
        (
            "nnlut_shard_submitted_total",
            "Requests admitted through the shard door.",
            shard.submitted,
        ),
        (
            "nnlut_shard_completed_total",
            "Requests resolved successfully.",
            shard.completed,
        ),
        (
            "nnlut_shard_failovers_total",
            "Failed attempts requeued onto another replica.",
            shard.failovers,
        ),
        (
            "nnlut_shard_retries_exhausted_total",
            "Requests that ran out of retry budget.",
            shard.retries_exhausted,
        ),
        (
            "nnlut_shard_stalls_total",
            "Attempts the stall watchdog requeued.",
            shard.stalls,
        ),
        (
            "nnlut_shard_probes_sent_total",
            "Probe batches sent to quarantined replicas.",
            shard.probes_sent,
        ),
        (
            "nnlut_shard_readmissions_total",
            "Quarantined replicas re-admitted by a probe.",
            shard.readmissions,
        ),
        (
            "nnlut_shard_overload_rejections_total",
            "Requests rejected at the shard door.",
            shard.overload_rejections,
        ),
        (
            "nnlut_shard_deadline_misses_total",
            "Requests that expired at their deadline.",
            shard.deadline_misses,
        ),
        (
            "nnlut_shard_generations_total",
            "Generation requests admitted through the shard door.",
            shard.generations,
        ),
        (
            "nnlut_shard_cache_rebuilds_total",
            "Generation failovers that re-prefilled on another replica.",
            shard.cache_rebuilds,
        ),
    ] {
        head(&mut out, name, "counter", help);
        let _ = writeln!(out, "{name} {value}");
    }

    head(
        &mut out,
        "nnlut_serve_replica_health",
        "gauge",
        "Replica health state: 0 healthy, 1 degraded, 2 quarantined.",
    );
    for status in replicas {
        let _ = writeln!(
            out,
            "nnlut_serve_replica_health{{replica=\"{}\"}} {}",
            status.replica,
            match status.health {
                ReplicaHealth::Healthy => 0,
                ReplicaHealth::Degraded => 1,
                ReplicaHealth::Quarantined => 2,
            }
        );
    }
    head(
        &mut out,
        "nnlut_serve_replica_routed_total",
        "counter",
        "Requests routed to each replica (not bounced).",
    );
    for status in replicas {
        let _ = writeln!(
            out,
            "nnlut_serve_replica_routed_total{{replica=\"{}\"}} {}",
            status.replica, status.routed
        );
    }
    head(
        &mut out,
        "nnlut_serve_replica_outstanding_tokens",
        "gauge",
        "Padded area routed-but-unresolved per replica (the JSQ signal).",
    );
    for status in replicas {
        let _ = writeln!(
            out,
            "nnlut_serve_replica_outstanding_tokens{{replica=\"{}\"}} {}",
            status.replica, status.outstanding_tokens
        );
    }

    if let Some(profile) = op {
        head(
            &mut out,
            "nnlut_op_calls_total",
            "counter",
            "Baked-kernel invocations by op.",
        );
        for stats in &profile.ops {
            let _ = writeln!(
                out,
                "nnlut_op_calls_total{{op=\"{}\"}} {}",
                stats.op.as_str(),
                stats.calls
            );
        }
        head(
            &mut out,
            "nnlut_op_rows_total",
            "counter",
            "Rows (elements for gelu) processed by op.",
        );
        for stats in &profile.ops {
            let _ = writeln!(
                out,
                "nnlut_op_rows_total{{op=\"{}\"}} {}",
                stats.op.as_str(),
                stats.rows
            );
        }
        head(
            &mut out,
            "nnlut_op_seconds_total",
            "counter",
            "Wall-clock seconds inside each op's kernel.",
        );
        for stats in &profile.ops {
            let _ = writeln!(
                out,
                "nnlut_op_seconds_total{{op=\"{}\"}} {:.6}",
                stats.op.as_str(),
                stats.nanos as f64 / 1e9
            );
        }
    }

    if let Some(rec) = recorder {
        head(
            &mut out,
            "nnlut_serve_recorder_events_total",
            "counter",
            "Events journaled by the flight recorder since startup.",
        );
        let _ = writeln!(out, "nnlut_serve_recorder_events_total {}", rec.recorded());
        head(
            &mut out,
            "nnlut_serve_recorder_bytes",
            "gauge",
            "Fixed memory ceiling of the flight recorder.",
        );
        let _ = writeln!(out, "nnlut_serve_recorder_bytes {}", rec.approx_bytes());
    }

    out
}

/// How often the supervisor polls in-flight attempts. Replica tickets
/// have no completion callback by design (the replica layer predates the
/// shard), so the supervisor ticks; the tick also paces stall detection
/// and probe scheduling.
const SUPERVISOR_TICK: Duration = Duration::from_micros(500);

/// Headroom factor for the debug-build stall-margin warning: warn when an
/// attempt completes slower than `stall_timeout / STALL_WARN_MULTIPLE`.
#[cfg(debug_assertions)]
const STALL_WARN_MULTIPLE: u32 = 4;

/// The supervisor: routes pending requests (JSQ over healthy replicas,
/// with fault-plan admission bounces applied), harvests finished
/// attempts, trips the stall watchdog, advances the health machines and
/// probes quarantined replicas back to life.
fn supervisor_loop(
    shared: Arc<ShardShared>,
    servers: Arc<Vec<AsyncLutServer>>,
    config: SupervisorConfig,
) {
    let n = servers.len();
    let mut attempts: Vec<Attempt> = Vec::new();
    // One-shot latch for the debug-build stall-margin warning (see
    // `STALL_WARN_MULTIPLE`).
    #[cfg(debug_assertions)]
    let mut stall_margin_warned = false;
    // In-flight probe slots, by replica.
    let mut probes: Vec<Option<Arc<Slot>>> = (0..n).map(|_| None).collect();
    // Routing decisions targeting each replica, including bounced ones —
    // the fault plan's submission coordinate.
    let mut routed_to: Vec<u64> = vec![0; n];

    loop {
        let now = Instant::now();

        // Harvest outside the lock: polling a slot never blocks, and
        // collecting first keeps the locked section short.
        let mut finished = Vec::new();
        let mut stalled = Vec::new();
        let mut i = 0;
        while i < attempts.len() {
            // Poll for progress; fold any freshly decoded tokens into the
            // caller's stream *and* the request's failover state before
            // deciding the attempt's fate, so a failure observed in the
            // same snapshot still rebuilds from the full emitted prefix.
            let a = &mut attempts[i];
            let (fresh, done) = a.replica_slot.harvest(a.harvested);
            if !fresh.is_empty() {
                a.harvested += fresh.len();
                for &token in &fresh {
                    a.sink.push_token(token);
                }
                a.last_progress = now;
                if let RequestKind::Generate { max_new } = &mut a.req.kind {
                    *max_new = max_new.saturating_sub(fresh.len());
                }
                a.req.tokens.extend(fresh);
            }
            if let Some(outcome) = done {
                // Stall-margin check (debug builds, once): an attempt
                // that *completed* after `stall_timeout / multiple` means
                // the watchdog is within one bad batch of requeueing
                // healthy work — a config footgun, not a replica fault.
                #[cfg(debug_assertions)]
                if !stall_margin_warned {
                    let took = now.saturating_duration_since(a.last_progress);
                    if config.stall_timeout < took * STALL_WARN_MULTIPLE {
                        stall_margin_warned = true;
                        eprintln!(
                            "nnlut-shard warning: an attempt completed in {took:?} but \
                             stall_timeout is only {:?} (< {STALL_WARN_MULTIPLE}x observed) — \
                             raise ShardConfig::stall_timeout or spurious stall requeues and \
                             quarantines will follow under load",
                            config.stall_timeout,
                        );
                    }
                }
                finished.push((attempts.swap_remove(i), outcome));
            } else if now.saturating_duration_since(a.last_progress) >= config.stall_timeout {
                stalled.push(attempts.swap_remove(i));
            } else {
                i += 1;
            }
        }
        let mut probe_results = Vec::new();
        for (r, probe) in probes.iter_mut().enumerate() {
            if let Some(outcome) = probe.as_ref().and_then(|slot| slot.harvest(0).1) {
                *probe = None;
                probe_results.push((r, outcome));
            }
        }

        let mut st = lock(&shared.state);

        for (a, outcome) in finished {
            let Attempt {
                req, replica, area, ..
            } = a;
            st.outstanding -= 1;
            st.outstanding_tokens -= area;
            st.replicas[replica].outstanding_tokens -= area;
            match outcome {
                Ok(mut response) => {
                    // Response identity is the shard's: same id whichever
                    // replica (or retry) produced it. A generation's
                    // tokens were already harvested into the caller's
                    // stream; ending it is all that's left.
                    if let Some(r) = &mut response {
                        r.id = req.id;
                    }
                    st.replicas[replica].completed += 1;
                    st.replicas[replica].on_success(now);
                    st.metrics.completed += 1;
                    resolve(&mut st, req.id, Ok(response));
                }
                Err(ServeError::DeadlineExceeded { .. }) => {
                    // Expired inside the replica: terminal, not a replica
                    // fault — the request was simply too old.
                    st.metrics.deadline_misses += 1;
                    let waited = now.saturating_duration_since(req.queued_at);
                    resolve(
                        &mut st,
                        req.id,
                        Err(ServeError::DeadlineExceeded { id: req.id, waited }),
                    );
                }
                Err(_) => {
                    // ServerFailed (a contained batch panic — possibly
                    // injected) or any other replica-side failure: the
                    // replica takes the health hit, the request fails
                    // over. (The replica's encoder already journaled the
                    // panic and froze an incident snapshot.) A failed
                    // generation requeues with its harvested prefix — the
                    // retry re-prefills it, rebuilding the KV cache.
                    st.replicas[replica].failures += 1;
                    fail_health(&mut st, replica, &config, now);
                    fail_over(&mut st, req, replica, &config, "panic");
                }
            }
        }

        for a in stalled {
            let req = a.req;
            st.outstanding -= 1;
            st.outstanding_tokens -= a.area;
            st.replicas[a.replica].outstanding_tokens -= a.area;
            st.replicas[a.replica].stalls += 1;
            st.metrics.stalls += 1;
            if let Some(rec) = &config.recorder {
                rec.record(
                    "stall",
                    Some(a.replica),
                    Some(req.id),
                    req.attempts as u64 + 1,
                );
                rec.snapshot_incident("stall", Some(a.replica));
            }
            fail_health(&mut st, a.replica, &config, now);
            fail_over(&mut st, req, a.replica, &config, "stall");
            // a.replica_slot drops here: when the wedged encode eventually
            // finishes, its result resolves into a slot nobody reads.
        }

        for (r, result) in probe_results {
            match result {
                Ok(_) => {
                    if st.replicas[r].on_success(now) {
                        st.metrics.readmissions += 1;
                        if let Some(rec) = &config.recorder {
                            rec.record("readmitted", Some(r), None, 0);
                        }
                    }
                }
                Err(_) => {
                    fail_health(&mut st, r, &config, now);
                }
            }
        }

        // Deadlines are judged by a clock read under the lock, after every
        // pending request's admission: a zero deadline never reaches a
        // replica with time to spare.
        let now = Instant::now();

        // Cull pending requests whose deadline passed while unrouted.
        if st.pending.iter().any(|req| expired(req, now)) {
            let mut keep = VecDeque::with_capacity(st.pending.len());
            let mut culled = Vec::new();
            for req in st.pending.drain(..) {
                if expired(&req, now) {
                    culled.push(req);
                } else {
                    keep.push_back(req);
                }
            }
            st.pending = keep;
            for req in culled {
                st.pending_tokens -= req.area();
                st.metrics.deadline_misses += 1;
                let waited = now.saturating_duration_since(req.queued_at);
                if let Some(rec) = &config.recorder {
                    rec.record(
                        "deadline-miss",
                        None,
                        Some(req.id),
                        waited.as_millis() as u64,
                    );
                }
                fail_terminal(
                    &mut st,
                    req.id,
                    None,
                    "deadline",
                    ServeError::DeadlineExceeded { id: req.id, waited },
                );
            }
        }

        // Route as much of the pending queue as current health allows.
        while let Some(req) = st.pending.pop_front() {
            st.pending_tokens -= req.area();
            match route(&mut st, &servers, &mut routed_to, &config, req, now) {
                Routed::Attempt(a) => attempts.push(a),
                Routed::Resolved => {}
                Routed::NoCandidate(req) => {
                    // Every replica quarantined (and not draining): park
                    // the request; probes are the way back.
                    st.pending_tokens += req.area();
                    st.pending.push_front(req);
                    break;
                }
            }
        }

        // Probe quarantined replicas whose backoff has elapsed. Skipped
        // while draining — shutdown routes to quarantined replicas
        // directly rather than waiting out a probe cycle.
        if !st.shutdown {
            for (r, slot) in probes.iter_mut().enumerate() {
                let ctl = &mut st.replicas[r];
                if ctl.health == ReplicaHealth::Quarantined
                    && slot.is_none()
                    && ctl.next_probe_at.is_some_and(|at| now >= at)
                {
                    ctl.probes_sent += 1;
                    let sent = ctl.probes_sent;
                    ctl.next_probe_at = Some(now + ctl.backoff);
                    st.metrics.probes_sent += 1;
                    if let Some(rec) = &config.recorder {
                        rec.record("probe", Some(r), None, sent);
                    }
                    // A minimal in-vocabulary batch; its result is only a
                    // health signal.
                    let trace = Arc::new(RequestTrace::new(0));
                    *slot = Some(servers[r].enqueue(vec![0], None, RequestKind::Encode, trace));
                }
            }
        }

        if st.shutdown && st.pending.is_empty() && attempts.is_empty() {
            debug_assert!(
                st.requests.is_empty(),
                "drained shard still holds unresolved requests"
            );
            break;
            // In-flight probes (if any) are dropped with `probes`; their
            // results resolve into slots nobody reads when the replicas
            // drain.
        }

        // Anything time-driven in flight? Tick. Otherwise sleep until an
        // arrival or shutdown.
        let time_driven = !attempts.is_empty()
            || probes.iter().any(Option::is_some)
            || st
                .replicas
                .iter()
                .any(|c| c.health == ReplicaHealth::Quarantined)
            || st.pending.iter().any(|req| req.deadline.is_some());
        if time_driven {
            let (guard, _) = shared
                .work
                .wait_timeout(st, SUPERVISOR_TICK)
                .unwrap_or_else(PoisonError::into_inner);
            drop(guard);
        } else if st.pending.is_empty() && !st.shutdown {
            let guard = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            drop(guard);
        }
        // (pending non-empty without being time-driven can only mean new
        // work arrived while routing — loop around immediately.)
    }
}

fn expired(req: &ShardRequest, now: Instant) -> bool {
    req.deadline.is_some_and(|d| now >= d)
}

/// Records a requeue on an unresolved request's trace.
fn record_requeue(st: &ShardState, id: RequestId, replica: usize, cause: &'static str) {
    if let Some(entry) = st.requests.get(&id) {
        entry
            .slot
            .trace
            .record(Stage::Requeued, Some(replica), Some(cause));
    }
}

/// Resolves an unresolved request's caller slot and drops its entry; a
/// no-op if it already resolved.
fn resolve(st: &mut ShardState, id: RequestId, outcome: Outcome) {
    if let Some(entry) = st.requests.remove(&id) {
        entry.slot.resolve(outcome);
    }
}

/// The one terminal-failure path, for either request kind: records the
/// failure on the request's trace and resolves its slot with `err`.
fn fail_terminal(
    st: &mut ShardState,
    id: RequestId,
    replica: Option<usize>,
    note: &'static str,
    err: ServeError,
) {
    if let Some(entry) = st.requests.get(&id) {
        entry.slot.trace.record(Stage::Failed, replica, Some(note));
    }
    resolve(st, id, Err(err));
}

/// Requeues a failed attempt at the front of the pending queue (retry
/// priority — a victim of a fault should not also lose its place), or
/// resolves [`ServeError::RetriesExhausted`] past the budget. A
/// generation requeues with its harvested prefix folded into `tokens`,
/// so the retry rebuilds the KV cache by re-prefilling it.
fn fail_over(
    st: &mut ShardState,
    mut req: ShardRequest,
    failed_on: usize,
    config: &SupervisorConfig,
    cause: &'static str,
) {
    req.attempts += 1;
    req.avoid = Some(failed_on);
    if let Some(rec) = &config.recorder {
        rec.record(
            "failover",
            Some(failed_on),
            Some(req.id),
            req.attempts as u64,
        );
    }
    if req.attempts > config.retry_budget {
        st.metrics.retries_exhausted += 1;
        fail_terminal(
            st,
            req.id,
            Some(failed_on),
            "retries-exhausted",
            ServeError::RetriesExhausted {
                id: req.id,
                attempts: req.attempts,
            },
        );
    } else {
        record_requeue(st, req.id, failed_on, cause);
        if let RequestKind::Generate { .. } = req.kind {
            st.metrics.cache_rebuilds += 1;
            if let Some(rec) = &config.recorder {
                rec.record(
                    "cache-rebuild",
                    Some(failed_on),
                    Some(req.id),
                    req.tokens.len() as u64,
                );
            }
        }
        st.metrics.failovers += 1;
        st.pending_tokens += req.area();
        st.pending.push_front(req);
    }
}

enum Routed {
    /// Submitted to a replica.
    Attempt(Attempt),
    /// Terminal without touching a replica (deadline, retries exhausted).
    Resolved,
    /// Nowhere to send it right now.
    NoCandidate(ShardRequest),
}

/// Routes one request: JSQ by outstanding padded area over non-quarantined
/// replicas (during a shutdown drain, over *all* replicas), preferring to
/// avoid the replica that just failed it, applying the fault plan's
/// admission bounces. Bounces consume retry budget like any other
/// failure, so a fully-bounced request terminates typed, never spins.
fn route(
    st: &mut ShardState,
    servers: &[AsyncLutServer],
    routed_to: &mut [u64],
    config: &SupervisorConfig,
    mut req: ShardRequest,
    now: Instant,
) -> Routed {
    loop {
        if expired(&req, now) {
            st.metrics.deadline_misses += 1;
            let waited = now.saturating_duration_since(req.queued_at);
            if let Some(rec) = &config.recorder {
                rec.record(
                    "deadline-miss",
                    None,
                    Some(req.id),
                    waited.as_millis() as u64,
                );
            }
            fail_terminal(
                st,
                req.id,
                None,
                "deadline",
                ServeError::DeadlineExceeded { id: req.id, waited },
            );
            return Routed::Resolved;
        }
        let candidates: Vec<usize> = (0..servers.len())
            .filter(|&r| st.shutdown || st.replicas[r].health != ReplicaHealth::Quarantined)
            .collect();
        if candidates.is_empty() {
            return Routed::NoCandidate(req);
        }
        let preferred: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&r| Some(r) != req.avoid)
            .collect();
        let pool = if preferred.is_empty() {
            &candidates
        } else {
            &preferred
        };
        let target = pool
            .iter()
            .copied()
            .min_by_key(|&r| (st.replicas[r].outstanding_tokens, r))
            .expect("pool is non-empty");
        let submission = routed_to[target];
        routed_to[target] += 1;
        let bounced = config
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.rejects_submission(target, submission));
        if bounced {
            st.replicas[target].rejections += 1;
            fail_health(st, target, config, now);
            req.attempts += 1;
            req.avoid = Some(target);
            if let Some(rec) = &config.recorder {
                rec.record("bounce", Some(target), Some(req.id), submission);
            }
            if req.attempts > config.retry_budget {
                st.metrics.retries_exhausted += 1;
                fail_terminal(
                    st,
                    req.id,
                    Some(target),
                    "retries-exhausted",
                    ServeError::RetriesExhausted {
                        id: req.id,
                        attempts: req.attempts,
                    },
                );
                return Routed::Resolved;
            }
            record_requeue(st, req.id, target, "bounce");
            st.metrics.failovers += 1;
            continue;
        }
        let Some(sink) = st.requests.get(&req.id).map(|e| Arc::clone(&e.slot)) else {
            // Already resolved terminally (caller raced a deadline cull)
            // — nothing left to route.
            return Routed::Resolved;
        };
        if req.kind == (RequestKind::Generate { max_new: 0 }) {
            // Every budgeted token was harvested before the failed
            // attempt died; the stream just needs its end.
            st.metrics.completed += 1;
            sink.trace.record(Stage::Resolved, None, None);
            resolve(st, req.id, Ok(None));
            return Routed::Resolved;
        }
        if req.attempts > 0 {
            sink.trace.record(Stage::Retried, Some(target), None);
        }
        // The shard trace rides into the replica: the attempt's stage
        // events (queued, assembled, dispatched, encoded, …) land on the
        // same journal the shard has been writing since admission. A
        // generation resubmits prompt ++ harvested prefix, which
        // re-prefills it on the target — the KV-cache rebuild.
        let remaining = req.deadline.map(|d| d.saturating_duration_since(now));
        let replica_slot = servers[target].enqueue(
            req.tokens.clone(),
            remaining,
            req.kind,
            Arc::clone(&sink.trace),
        );
        let area = req.area();
        st.replicas[target].routed += 1;
        st.replicas[target].outstanding_tokens += area;
        st.outstanding += 1;
        st.outstanding_tokens += area;
        return Routed::Attempt(Attempt {
            req,
            replica: target,
            replica_slot,
            sink,
            harvested: 0,
            area,
            last_progress: now,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::ClosePolicy;
    use nnlut_core::train::TrainConfig;
    use nnlut_transformer::MatmulMode;

    fn tiny_sharded(config: ShardConfig) -> ShardedServer {
        let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9);
        let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
        ShardedServer::new(model, kit, config)
    }

    /// A one-replica door, its stall watchdog far above any debug-build
    /// batch.
    fn one_replica(replica: AsyncServerConfig, admission: ServePolicy) -> ShardedServer {
        tiny_sharded(ShardConfig {
            replicas: 1,
            replica,
            admission,
            stall_timeout: Duration::from_secs(60),
            ..ShardConfig::default()
        })
    }

    /// Nothing closes on age: only a drain (or a deadline) can flush.
    fn untimed() -> ClosePolicy {
        ClosePolicy {
            max_batch_age: Duration::from_secs(3600),
            deadline_slack: Duration::from_millis(1),
        }
    }

    #[test]
    fn serves_across_replicas_with_shard_ids() {
        let server = tiny_sharded(ShardConfig {
            replicas: 3,
            ..ShardConfig::default()
        });
        let tickets: Vec<Ticket> = (1..=9).map(|n| server.submit(vec![2; n])).collect();
        for (n, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.id(), n as u64);
            let r = t.wait().expect("no faults, no deadline");
            assert_eq!(r.id, n as u64, "response carries the shard id");
            assert_eq!(r.tokens, n + 1);
        }
        let m = server.shard_metrics();
        assert_eq!(m.submitted, 9);
        assert_eq!(m.completed, 9);
        assert_eq!(m.failovers, 0);
        assert_eq!(server.metrics().total_sequences(), 9);
        assert!(server
            .status()
            .iter()
            .all(|s| s.health == ReplicaHealth::Healthy));
    }

    /// Join-shortest-queue spreads a burst over both replicas. Nothing
    /// closes on age and the burst fills no batch, so no request resolves
    /// before the drain: every routing decision sees only the area routed
    /// so far, and the spread does not depend on timing.
    #[test]
    fn burst_reaches_every_replica() {
        let mut server = tiny_sharded(ShardConfig {
            replicas: 2,
            replica: AsyncServerConfig {
                close: untimed(),
                ..AsyncServerConfig::default()
            },
            stall_timeout: Duration::from_secs(60),
            ..ShardConfig::default()
        });
        let tickets: Vec<Ticket> = (0..6).map(|n| server.submit(vec![1; 1 + n])).collect();
        let routed = || {
            server
                .status()
                .iter()
                .map(|s| s.routed)
                .collect::<Vec<u64>>()
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while routed().iter().sum::<u64>() < 6 {
            assert!(Instant::now() < deadline, "burst never fully routed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let spread = routed();
        assert!(
            spread.iter().all(|&r| r > 0),
            "a replica got no traffic: {spread:?}"
        );
        server.shutdown();
        for t in tickets {
            t.wait().expect("shutdown drains, it does not abandon");
        }
    }

    #[test]
    fn rolled_up_door_rejects_fleet_saturation() {
        // An area watermark of 0 admits nothing: replica drain speed
        // cannot race the assertion, and the rejection path (resolve
        // before queueing, counted in shard metrics) is fully exercised.
        let server = tiny_sharded(ShardConfig {
            replicas: 2,
            admission: ServePolicy::with_max_queued_tokens(0),
            replica: AsyncServerConfig {
                trace: crate::TraceConfig::enabled(),
                ..AsyncServerConfig::default()
            },
            ..ShardConfig::default()
        });
        let t = server.submit(vec![1, 2, 3]);
        assert!(t.is_ready(), "door rejection resolves immediately");
        let Err(ServeError::Overloaded { queue_depth, .. }) = t.wait() else {
            panic!("expected Overloaded");
        };
        assert_eq!(server.shard_metrics().overload_rejections, 1);
        assert_eq!(server.shard_metrics().submitted, 0);
        // The journal records the queue depth the request met, as a
        // replica door does — not the request's token count.
        let journal = server.recorder().expect("tracing enabled").snapshot();
        let rejection = journal
            .iter()
            .find(|ev| ev.kind == "overload-rejection")
            .expect("the rejection is journaled");
        assert_eq!(rejection.value, queue_depth as u64);
        assert_eq!(rejection.value, 0);
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let mut server = tiny_sharded(ShardConfig {
            replicas: 2,
            ..ShardConfig::default()
        });
        let tickets: Vec<Ticket> = (0..6).map(|n| server.submit(vec![1; 1 + n])).collect();
        server.shutdown();
        for t in tickets {
            t.wait().expect("shutdown drains, it does not abandon");
        }
        // Metrics survive shutdown (frozen snapshot).
        assert_eq!(server.metrics().total_sequences(), 6);
    }

    #[test]
    fn generation_streams_across_the_shard() {
        let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9);
        let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
        let nl = Nonlinearity::all_lut(&kit);
        let oracle = model.generate(&[3, 1, 4, 1, 5], 6, &nl, MatmulMode::F32);
        let server = ShardedServer::new(
            model,
            kit,
            ShardConfig {
                replicas: 2,
                ..ShardConfig::default()
            },
        );
        let ticket = server.submit_generate(vec![3, 1, 4, 1, 5], 6, None);
        let response = ticket.wait().expect("no faults, no deadline");
        assert_eq!(response.tokens, oracle, "shard serves the serial decode");
        let m = server.shard_metrics();
        assert_eq!(m.submitted, 1);
        assert_eq!(m.generations, 1);
        assert_eq!(m.completed, 1);
        assert_eq!(m.cache_rebuilds, 0);
        assert_eq!(
            server.active_generations(),
            0,
            "cache evicted on completion"
        );
        let served = server.metrics();
        assert_eq!(served.generations_completed(), 1);
        assert_eq!(
            served.decode_steps(),
            5,
            "first token comes from the prefill"
        );
        assert!(served
            .inter_token_percentile(50.0)
            .is_some_and(|gap| gap > Duration::ZERO));
    }

    #[test]
    fn multi_in_flight_resolves_everything_in_id_order() {
        let server = one_replica(
            AsyncServerConfig {
                max_in_flight: 3,
                threads: 2,
                ..AsyncServerConfig::default()
            },
            ServePolicy::unbounded(),
        );
        let tickets: Vec<Ticket> = (0..12).map(|n| server.submit(vec![2; 1 + n % 7])).collect();
        for (n, t) in tickets.into_iter().enumerate() {
            let r = t.wait().expect("no deadline set");
            assert_eq!(r.id, n as u64);
            assert_eq!(r.tokens, 1 + n % 7);
        }
        assert_eq!(server.metrics().total_sequences(), 12);
        assert_eq!(server.shard_metrics().deadline_misses, 0);
    }

    #[test]
    fn depth_watermark_rejects_and_shutdown_serves_the_admitted() {
        let mut server = one_replica(
            AsyncServerConfig {
                close: untimed(),
                ..AsyncServerConfig::default()
            },
            ServePolicy::with_max_queue_depth(2),
        );
        let a = server.submit(vec![1; 3]);
        let b = server.submit(vec![2; 3]);
        let rejected = server.submit(vec![3; 3]);
        // The rejection is immediate — no worker involvement.
        assert!(rejected.is_ready());
        match rejected.wait() {
            Err(ServeError::Overloaded { id, queue_depth }) => {
                assert_eq!(id, 2);
                assert_eq!(queue_depth, 2);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(server.shard_metrics().overload_rejections, 1);
        // Queued requests are unaffected by the rejection (FIFO fairness):
        // the shutdown drain serves both.
        server.shutdown();
        assert_eq!(a.wait().unwrap().tokens, 3);
        assert_eq!(b.wait().unwrap().tokens, 3);
    }

    #[test]
    fn area_watermark_admits_exactly_at_the_limit() {
        let server = one_replica(
            AsyncServerConfig {
                close: untimed(),
                ..AsyncServerConfig::default()
            },
            ServePolicy::with_max_queued_tokens(10),
        );
        let _a = server.submit(vec![1; 8]); // 8 of 10 queued tokens
        let rejected = server.submit(vec![2; 3]); // would be 11 — rejected
        assert!(matches!(
            rejected.wait(),
            Err(ServeError::Overloaded { .. })
        ));
        let small = server.submit(vec![2; 2]); // exactly 10 — admitted
        assert_eq!(server.queued_tokens(), 10);
        drop(server); // shutdown drain serves the admitted requests
        assert_eq!(small.wait().unwrap().tokens, 2);
    }

    #[test]
    fn mixed_encodes_and_generations_share_batches() {
        let server = one_replica(
            AsyncServerConfig {
                threads: 2,
                max_in_flight: 2,
                ..AsyncServerConfig::default()
            },
            ServePolicy::unbounded(),
        );
        let gens: Vec<GenerateTicket> = (0..3)
            .map(|i| server.submit_generate(vec![1 + i, 2, 3], 4, None))
            .collect();
        let encodes: Vec<Ticket> = (0..4).map(|n| server.submit(vec![2; 3 + n])).collect();
        for t in encodes {
            let r = t.wait().expect("no deadline set");
            assert_eq!(r.hidden.rows(), r.tokens);
        }
        for g in gens {
            let r = g.wait().expect("no deadline set");
            assert_eq!(r.tokens.len(), 4);
        }
        let m = server.metrics();
        assert_eq!(m.generations_completed(), 3);
        assert_eq!(m.generated_tokens(), 12);
        assert_eq!(server.active_generations(), 0);
    }

    #[test]
    fn generation_deadline_expires_cleanly() {
        let server = one_replica(
            AsyncServerConfig {
                close: ClosePolicy {
                    // Nothing closes on age: the prefill sits queued until
                    // its deadline lapses.
                    max_batch_age: Duration::from_secs(3600),
                    deadline_slack: Duration::ZERO,
                },
                ..AsyncServerConfig::default()
            },
            ServePolicy::unbounded(),
        );
        let ticket = server.submit_generate(vec![1, 2], 4, Some(Duration::from_millis(1)));
        match ticket.wait() {
            Err(ServeError::DeadlineExceeded { id, .. }) => assert_eq!(id, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(server.active_generations(), 0, "expiry freed the cache");
        assert_eq!(server.shard_metrics().deadline_misses, 1);
    }

    /// Shutdown must not wait out a replica's batch timers: the replicas
    /// drain what they hold — a generation to its last token — while the
    /// supervisor still owes answers, so nothing stalls or fails over.
    #[test]
    fn shutdown_drains_untimed_work_including_generations() {
        let mut server = tiny_sharded(ShardConfig {
            replicas: 2,
            replica: AsyncServerConfig {
                close: untimed(),
                ..AsyncServerConfig::default()
            },
            ..ShardConfig::default()
        });
        let g = server.submit_generate(vec![7, 8, 9], 5, None);
        let e = server.submit(vec![1; 4]);
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert_eq!(g.wait().expect("drained, not dropped").tokens.len(), 5);
        assert_eq!(e.wait().expect("drained").tokens, 4);
        assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
        assert_eq!(server.shard_metrics().failovers, 0);
    }

    #[test]
    fn replica_panic_mid_generation_rebuilds_the_cache() {
        let model = BertModel::new_synthetic(TransformerConfig::roberta_tiny(), 9);
        let kit = NnLutKit::train_with(16, 9, &TrainConfig::fast());
        let nl = Nonlinearity::all_lut(&kit);
        let oracle = model.generate(&[2, 7, 1], 8, &nl, MatmulMode::F32);
        // The lone generation JSQ-routes to replica 0 (tie → lowest
        // index); its prefill is that replica's batch 0 and decode steps
        // follow, so a panic at batch 2 lands mid-generation with tokens
        // already streamed.
        let plan = Arc::new(FaultPlan::new().panic_at(0, 2));
        let server = ShardedServer::new(
            model,
            kit,
            ShardConfig {
                replicas: 2,
                fault_plan: Some(plan),
                ..ShardConfig::default()
            },
        );
        let ticket = server.submit_generate(vec![2, 7, 1], 8, None);
        let response = ticket.wait().expect("failover absorbs the panic");
        assert_eq!(
            response.tokens, oracle,
            "the rebuilt cache continues the stream bit-identically"
        );
        let m = server.shard_metrics();
        assert_eq!(m.completed, 1);
        assert!(m.failovers >= 1, "the panic must have failed over");
        assert!(m.cache_rebuilds >= 1, "the failover re-prefilled");
        assert_eq!(server.active_generations(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn submit_generate_validates_the_token_budget() {
        // roberta_tiny max_seq = 64: 60 prompt + 5 new cannot fit.
        tiny_sharded(ShardConfig::default()).submit_generate(vec![1; 60], 5, None);
    }

    #[test]
    #[should_panic(expected = "after shutdown")]
    fn submit_after_shutdown_panics() {
        let mut server = tiny_sharded(ShardConfig::default());
        server.shutdown();
        server.submit(vec![1]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn shard_door_validates() {
        tiny_sharded(ShardConfig::default()).submit(vec![10_000]);
    }
}
