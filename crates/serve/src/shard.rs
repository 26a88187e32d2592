//! Replica-sharded serving: N asynchronous replicas over one copy of the
//! weights, behind one door — the crate's only asynchronous front door.
//!
//! [`ShardedServer`] makes "more traffic" a topology knob: every replica's
//! worker threads read the same `Arc`-shared model and backend, so
//! replica count multiplies *threads*, never *memory*. There is one path
//! into a replica and one path back:
//!
//! * **Routing happens at the door**: `submit` routes the request before
//!   it returns, join-shortest-queue by *outstanding padded area* — the
//!   non-quarantined replica with the fewest tokens routed-but-unresolved
//!   (ties to the lowest index — deterministic given a load picture).
//!   Only a request admitted while every replica is quarantined waits at
//!   the shard, *parked*.
//! * **Replicas report on a channel**: each emitted token and each final
//!   outcome comes back as a report keyed by `(replica, replica-local
//!   id)`. One **supervisor** thread consumes them and owns the timers:
//!   it sleeps until a report arrives or the earliest stall deadline,
//!   probe time or parked deadline comes due.
//! * **Lock order** is the shard lock, then a replica's. Replica threads
//!   never take the shard lock; they only send reports.
//! * **Backpressure** rolls up into a single door: replicas have no
//!   admission control of their own, and the shard's [`ServePolicy`] is
//!   checked against `parked + outstanding` depth/area, so a rejection
//!   means the *fleet* is saturated, not one unlucky replica.
//! * **Health** is a per-replica state machine
//!   `Healthy → Degraded → Quarantined`: batch failures, stall-watchdog
//!   trips and admission bounces advance it; any success resets it. At
//!   [`ShardConfig::quarantine_after`] consecutive failures the replica
//!   stops receiving traffic and is probed back to life with synthetic
//!   single-token batches under exponential backoff
//!   ([`ShardConfig::probe_backoff`] doubling to
//!   [`ShardConfig::max_probe_backoff`]).
//! * **Failover**: a failed or stalled attempt is routed again at once,
//!   avoiding the replica that just failed it (parked at the *front* if
//!   no replica is routable), under a per-request retry budget
//!   ([`ShardConfig::retry_budget`]); past the budget the ticket resolves
//!   to [`ServeError::RetriesExhausted`]. A stalled attempt leaves the
//!   in-flight set, so when the wedged encode eventually finishes, its
//!   reports carry a key nobody holds and are dropped.
//! * **Generation failover rebuilds the KV cache**: a generation
//!   ([`ShardedServer::submit_generate`]) lives on one replica as a
//!   prefill plus a stream of decode steps, its KV cache held in that
//!   replica's memory. The supervisor forwards each reported token to the
//!   caller and folds it into the request, so when the replica panics or
//!   stalls mid-generation the shard re-submits
//!   `prompt ++ tokens-emitted-so-far` with the *remaining* token budget
//!   to a healthy replica — the retry's prefill rebuilds the cache from
//!   that prefix, and because decoding is deterministic the
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
//! With every replica quarantined the shard parks new work and keeps
//! probing; deadlines and [`Ticket::wait_timeout`] bound the callers.
//! Shutdown drains: parked work is routed (to quarantined replicas if
//! nothing else survives — drain beats purity), every attempt is waited
//! out — each replica closes its batches without waiting for age or
//! deadline timers while it does — and if the supervisor itself died
//! every unresolved ticket is failed with [`ServeError::ServerFailed`]
//! rather than abandoned.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nnlut_core::profile::{OpCounters, OpProfile};
use nnlut_core::NnLutKit;
use nnlut_transformer::{BertModel, Nonlinearity, TransformerConfig};

use crate::async_server::{
    lock, AsyncLutServer, AsyncServerConfig, GenerateTicket, Outcome, Progress, Report,
    RequestKind, ServeError, Slot, Ticket, Wiring,
};
use crate::batcher::ServePolicy;
use crate::fault::{FaultInjector, FaultPlan};
use crate::metrics::ServeMetrics;
use crate::server::RequestId;
use crate::trace::{FlightEvent, FlightRecorder, RequestTrace, Stage, DEFAULT_RECORDER_CAPACITY};

/// Construction knobs for the sharded server.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Replica count (`0` is clamped to `1`).
    pub replicas: usize,
    /// Per-replica configuration; `trace` also decides whether the fleet
    /// runs one shared flight recorder.
    pub replica: AsyncServerConfig,
    /// The single rolled-up admission door, checked against
    /// parked + outstanding depth and padded area across the fleet.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaHealth {
    /// Serving normally (a fresh replica's state).
    #[default]
    Healthy,
    /// Recent failure(s), still routable; one more strike may quarantine.
    Degraded,
    /// Out of rotation; re-admitted by a successful probe batch (or,
    /// while draining at shutdown, a successful served attempt).
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
/// [`ShardedServer::status`]). The default is a fresh, healthy replica
/// with every counter at zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
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
    /// Times a success (a probe, or a served attempt while draining)
    /// re-admitted this replica from quarantine.
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
    /// Quarantine exits: successes (probes, or served attempts while
    /// draining) that re-admitted a quarantined replica.
    pub readmissions: u64,
    /// Requests rejected at the shard door ([`ServeError::Overloaded`]).
    pub overload_rejections: u64,
    /// Requests that expired at their deadline (queued at the shard or
    /// inside a replica).
    pub deadline_misses: u64,
    /// Generation requests admitted through the shard door (a subset of
    /// `submitted`).
    pub generations: u64,
    /// Generation failovers that re-prefilled their streamed prefix on
    /// another replica — each one is a KV-cache rebuild.
    pub cache_rebuilds: u64,
}

/// One admitted request, parked or riding a replica.
#[derive(Debug)]
struct ShardRequest {
    id: RequestId,
    /// For a generation, across failovers: `prompt ++
    /// every-token-reported-so-far`, with `max_new` in `kind` the
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
    /// budget it has reserved. Reported tokens move from the budget to
    /// the tokens, so the area stays put across a generation.
    fn area(&self) -> usize {
        self.tokens.len().saturating_add(match self.kind {
            RequestKind::Encode => 0,
            RequestKind::Generate { max_new } => max_new,
        })
    }
}

/// Internal per-replica bookkeeping: the [`ReplicaStatus`] ledger plus
/// the probe timer and the transition clock.
#[derive(Debug)]
struct ReplicaCtl {
    /// Every counter a snapshot reports; `last_transition_ms` is filled
    /// in from `last_transition` when the snapshot is taken.
    status: ReplicaStatus,
    /// When the next probe may go out (quarantined replicas only).
    next_probe_at: Option<Instant>,
    /// Current probe backoff (doubles per failed probe).
    backoff: Duration,
    /// When the health state last *changed* (construction counts).
    last_transition: Instant,
}

impl ReplicaCtl {
    fn new(replica: usize, backoff: Duration) -> Self {
        Self {
            status: ReplicaStatus {
                replica,
                ..ReplicaStatus::default()
            },
            next_probe_at: None,
            backoff,
            last_transition: Instant::now(),
        }
    }

    /// A success (served attempt or probe) fully restores the replica;
    /// returns true on the Quarantined → Healthy edge.
    fn on_success(&mut self, now: Instant) -> bool {
        let s = &mut self.status;
        let readmitted = s.health == ReplicaHealth::Quarantined;
        if readmitted {
            s.readmissions += 1;
        }
        if s.health != ReplicaHealth::Healthy {
            self.last_transition = now;
        }
        s.health = ReplicaHealth::Healthy;
        s.consecutive_failures = 0;
        self.next_probe_at = None;
        readmitted
    }

    /// A failure advances the state machine; returns true on the
    /// Degraded/Healthy → Quarantined edge.
    fn on_failure(&mut self, config: &SupervisorConfig, now: Instant) -> bool {
        let s = &mut self.status;
        s.consecutive_failures += 1;
        if s.consecutive_failures >= config.quarantine_after {
            let newly = s.health != ReplicaHealth::Quarantined;
            if newly {
                s.health = ReplicaHealth::Quarantined;
                s.quarantines += 1;
                self.backoff = config.probe_backoff;
                self.last_transition = now;
            } else {
                // A failed probe: back off harder.
                self.backoff = (self.backoff * 2).min(config.max_probe_backoff);
            }
            self.next_probe_at = Some(now + self.backoff);
            newly
        } else {
            if s.health != ReplicaHealth::Degraded {
                self.last_transition = now;
            }
            s.health = ReplicaHealth::Degraded;
            false
        }
    }

    /// The point-in-time [`ReplicaStatus`].
    fn snapshot(&self) -> ReplicaStatus {
        ReplicaStatus {
            last_transition_ms: self.last_transition.elapsed().as_millis() as u64,
            ..self.status.clone()
        }
    }
}

/// Advances `replica`'s health machine after a success (a served attempt
/// or a probe). On the Quarantined → Healthy edge it counts the
/// readmission in the shard metrics and journals it, whichever path
/// brought the success.
fn succeed_health(st: &mut ShardState, replica: usize, config: &SupervisorConfig, now: Instant) {
    if st.replicas[replica].on_success(now) {
        st.metrics.readmissions += 1;
        if let Some(rec) = &config.recorder {
            rec.record("readmitted", Some(replica), None, 0);
        }
    }
}

/// Advances `replica`'s health machine after a failure, journaling any
/// state transition and — per the incident contract — freezing the
/// flight recorder on the edge itself, so the events *leading up to* the
/// degradation survive the ring.
fn fail_health(st: &mut ShardState, replica: usize, config: &SupervisorConfig, now: Instant) {
    let before = st.replicas[replica].status.health;
    st.replicas[replica].on_failure(config, now);
    let after = st.replicas[replica].status.health;
    if after != before {
        if let Some(rec) = &config.recorder {
            rec.record(after.as_str(), Some(replica), None, 0);
            rec.snapshot_incident(after.as_str(), Some(replica));
        }
    }
}

/// One point-in-time [`ReplicaStatus`] per replica, indexed by replica —
/// what [`ShardedServer::status`], `/healthz` and `/metrics` all render.
fn replica_statuses(st: &ShardState) -> Vec<ReplicaStatus> {
    st.replicas.iter().map(ReplicaCtl::snapshot).collect()
}

/// Everything the door and the supervisor share, behind one lock. Lock
/// order: this lock, then a replica's.
#[derive(Debug)]
struct ShardState {
    /// Parked requests: admitted, or failed over, while every replica was
    /// quarantined. Empty whenever a replica is routable.
    pending: VecDeque<ShardRequest>,
    /// Attempts riding replicas, keyed by `(replica, replica-local id)`
    /// — the key their reports carry.
    attempts: BTreeMap<(usize, RequestId), Attempt>,
    /// Every request the shard still owes an answer, encodes and
    /// generations alike.
    requests: HashMap<RequestId, Entry>,
    next_id: RequestId,
    shutdown: bool,
    replicas: Vec<ReplicaCtl>,
    /// Routing decisions targeting each replica, bounced ones included —
    /// the fault plan's submission coordinate.
    routed_to: Vec<u64>,
    metrics: ShardMetrics,
    /// Merged replica metrics frozen at shutdown, so
    /// [`ShardedServer::metrics`] keeps answering after the fleet is gone.
    final_metrics: Option<ServeMetrics>,
    /// The supervisor's report channel, on which the door sends `None`
    /// to wake it.
    reports: mpsc::Sender<Option<Report>>,
}

impl ShardState {
    /// The rolled-up door signal: parked + in-flight request count and
    /// padded area.
    fn load(&self) -> (usize, usize) {
        let parked: usize = self.pending.iter().map(ShardRequest::area).sum();
        let outstanding: usize = self
            .replicas
            .iter()
            .map(|c| c.status.outstanding_tokens)
            .sum();
        (
            self.pending.len() + self.attempts.len(),
            parked + outstanding,
        )
    }

    /// Wakes the supervisor so it recomputes its timer. A supervisor
    /// that already exited needs no wake-up.
    fn wake(&self) {
        let _ = self.reports.send(None);
    }
}

/// One unresolved shard request.
#[derive(Debug)]
struct Entry {
    /// The state behind the caller's ticket. Tokens reported by whichever
    /// replica attempt is current are spliced into a generation's slot,
    /// so the caller's stream is seamless across failovers.
    slot: Arc<Slot>,
    /// Whether the request is a generation (the KV-cache residency
    /// gauge counts these).
    generation: bool,
}

#[derive(Debug)]
struct ShardShared {
    state: Mutex<ShardState>,
    config: SupervisorConfig,
}

/// The shard's immutable failure-handling knobs (a copy of the relevant
/// [`ShardConfig`] fields), read by the door and the supervisor.
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
    /// Last sign of life: resolution progress for encodes is binary, but
    /// a generation resets this on every reported token, so the stall
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
            .then(|| Arc::new(FlightRecorder::new(DEFAULT_RECORDER_CAPACITY)));
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
        let (reports, reports_rx) = mpsc::channel();
        let servers: Vec<AsyncLutServer> = (0..replicas)
            .map(|replica| {
                let wiring = Wiring {
                    replica,
                    fault: config
                        .fault_plan
                        .as_ref()
                        .map(|plan| FaultInjector::new(Arc::clone(plan), replica)),
                    recorder: recorder.clone(),
                    reports: reports.clone(),
                };
                let (model, nl) = (Arc::clone(&model), Arc::clone(&nl));
                AsyncLutServer::with_shared(model, nl, config.replica.clone(), wiring)
            })
            .collect();
        let servers = Arc::new(servers);
        let shared = Arc::new(ShardShared {
            state: Mutex::new(ShardState {
                pending: VecDeque::new(),
                attempts: BTreeMap::new(),
                requests: HashMap::new(),
                next_id: 0,
                shutdown: false,
                replicas: (0..replicas)
                    .map(|r| ReplicaCtl::new(r, config.probe_backoff))
                    .collect(),
                routed_to: vec![0; replicas],
                metrics: ShardMetrics::default(),
                final_metrics: None,
                reports,
            }),
            config: SupervisorConfig {
                retry_budget: config.retry_budget,
                stall_timeout: config.stall_timeout,
                quarantine_after: config.quarantine_after.max(1),
                probe_backoff: config.probe_backoff,
                max_probe_backoff: config.max_probe_backoff,
                fault_plan: config.fault_plan,
                recorder,
            },
        });
        let sup_shared = Arc::clone(&shared);
        let sup_servers = Arc::clone(&servers);
        let supervisor = std::thread::Builder::new()
            .name("nnlut-shard-supervisor".into())
            .spawn(move || supervisor_loop(sup_shared, sup_servers, reports_rx))
            .expect("spawn shard supervisor");
        Self {
            shared,
            servers: Some(servers),
            config: model_config,
            admission: config.admission,
            supervisor: Some(supervisor),
            op_counters,
            started: Instant::now(),
        }
    }

    /// Routes a request with no deadline; the [`Ticket`] resolves when
    /// some replica serves it (possibly after failovers).
    ///
    /// # Panics
    ///
    /// Panics if the request is empty, overlong, out-of-vocabulary, or
    /// submitted after [`ShardedServer::shutdown`].
    pub fn submit(&self, tokens: Vec<usize>) -> Ticket {
        self.submit_with_deadline(tokens, None)
    }

    /// Routes a request whose total time-to-route-and-queue is bounded
    /// by `deadline` (measured from now). The deadline follows the
    /// request across failovers: each retry carries only the *remaining*
    /// budget to its replica, and a request that expires at the shard (a
    /// zero deadline, or while parked) resolves to
    /// [`ServeError::DeadlineExceeded`] without being encoded.
    ///
    /// If admitting the request would push the fleet-wide
    /// parked + outstanding load past the shard's [`ServePolicy`]
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

    /// Routes an autoregressive generation: `max_new` greedy tokens
    /// continuing `prompt`, streamed through the returned
    /// [`GenerateTicket`] as some replica decodes them.
    ///
    /// The generation rides one replica as a prefill plus per-token
    /// decode steps (continuous batching: decode steps share batches with
    /// prefills and encodes, and the stream is bit-identical to
    /// [`BertModel::generate`]). The replica reports each token as it is
    /// emitted and the supervisor folds it into the request, so if the
    /// replica panics or stalls mid-generation the shard re-submits
    /// `prompt ++ streamed-tokens` with the remaining budget to a healthy
    /// replica: the retry's prefill **rebuilds the KV cache** from that
    /// prefix and,
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
    /// against the rolled-up door, then route it — or park it, or reject
    /// it at the door — before returning.
    fn enqueue(
        &self,
        tokens: Vec<usize>,
        deadline: Option<Duration>,
        kind: RequestKind,
    ) -> (RequestId, Arc<Slot>) {
        kind.validate(&self.config, &tokens);
        let servers = self
            .servers
            .as_deref()
            .expect("cannot submit after shutdown");
        let now = Instant::now();
        let mut st = lock(&self.shared.state);
        let id = st.next_id;
        st.next_id += 1;
        // The trace is born inside the lock so its id matches the shard
        // ticket; it rides the request across every failover. `Admitted`
        // covers routing: the replica records `Queued`.
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
        let (depth, area) = st.load();
        if !self.admission.admits(depth + 1, area + req.area()) {
            st.metrics.overload_rejections += 1;
            drop(st);
            slot.trace.record(Stage::Failed, None, Some("overloaded"));
            if let Some(rec) = &self.shared.config.recorder {
                rec.record("overload-rejection", None, Some(id), depth as u64);
            }
            let err = ServeError::Overloaded {
                id,
                queue_depth: depth,
            };
            slot.resolve(Err(err));
            return (id, slot);
        }
        st.metrics.submitted += 1;
        let generation = kind != RequestKind::Encode;
        st.metrics.generations += u64::from(generation);
        let entry = Entry {
            slot: Arc::clone(&slot),
            generation,
        };
        st.requests.insert(id, entry);
        if let Err(req) = route(&mut st, servers, &self.shared.config, req, now) {
            st.pending.push_back(req);
        }
        // The supervisor recomputes its sleep: routing may have put the
        // first attempt in flight (a stall deadline), parked a request (its
        // deadline) or quarantined a bounced replica (a probe time).
        st.wake();
        (id, slot)
    }

    /// Generations admitted and not yet finished (their KV caches are
    /// resident on some replica, or about to be rebuilt on one).
    pub fn active_generations(&self) -> usize {
        let st = lock(&self.shared.state);
        st.requests.values().filter(|e| e.generation).count()
    }

    /// Requests parked at the shard: admitted, or failed over, while
    /// every replica was quarantined. Every other admitted request is
    /// routed before `submit` returns, so this is 0 whenever a replica is
    /// routable.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.state).pending.len()
    }

    /// Fleet-wide in-flight load: parked + on-replica padded area — the
    /// signal the rolled-up admission door runs on.
    pub fn queued_tokens(&self) -> usize {
        lock(&self.shared.state).load().1
    }

    /// Per-replica health snapshots, indexed by replica.
    pub fn status(&self) -> Vec<ReplicaStatus> {
        replica_statuses(&lock(&self.shared.state))
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
    /// The listener holds snapshots' sources, not the server: the shared
    /// state and recorder (`Arc`s) and only a `Weak` to the replicas.
    /// Dropping the [`HttpHandle`](crate::http::HttpHandle) stops it
    /// independently of the serving fleet, and a live listener never keeps
    /// the replicas alive: [`ShardedServer::shutdown`] still joins them,
    /// and `/metrics` then reports the frozen final snapshot, as
    /// [`ShardedServer::metrics`] does.
    pub fn serve_http(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<crate::http::HttpHandle> {
        let health_shared = Arc::clone(&self.shared);
        let health_started = self.started;
        let healthz: Arc<dyn Fn() -> crate::http::HttpResponse + Send + Sync> =
            Arc::new(move || {
                let statuses = replica_statuses(&lock(&health_shared.state));
                let replicas: Vec<String> = statuses
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"replica\":{},\"health\":\"{}\",\"consecutive_failures\":{},\
                             \"routed\":{},\"completed\":{},\"failures\":{},\"stalls\":{},\
                             \"rejections\":{},\"quarantines\":{},\"readmissions\":{},\
                             \"probes_sent\":{},\"outstanding_tokens\":{},\
                             \"last_transition_ms\":{}}}",
                            s.replica,
                            s.health.as_str(),
                            s.consecutive_failures,
                            s.routed,
                            s.completed,
                            s.failures,
                            s.stalls,
                            s.rejections,
                            s.quarantines,
                            s.readmissions,
                            s.probes_sent,
                            s.outstanding_tokens,
                            s.last_transition_ms,
                        )
                    })
                    .collect();
                let any_routable = statuses
                    .iter()
                    .any(|s| s.health != ReplicaHealth::Quarantined);
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
        let prom_servers = self.servers.as_ref().map(Arc::downgrade);
        let prom_op = self.op_counters.clone();
        let prom_recorder = self.shared.config.recorder.clone();
        let prom_started = self.started;
        let prometheus: Arc<dyn Fn() -> crate::http::HttpResponse + Send + Sync> =
            Arc::new(move || {
                let merged = match prom_servers.as_ref().and_then(Weak::upgrade) {
                    Some(servers) => merged_metrics(&servers),
                    None => lock(&prom_shared.state)
                        .final_metrics
                        .clone()
                        .unwrap_or_default(),
                };
                let (shard, replicas) = {
                    let st = lock(&prom_shared.state);
                    (st.metrics, replica_statuses(&st))
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

        let trace_recorder = self.shared.config.recorder.clone();
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

        let incident_recorder = self.shared.config.recorder.clone();
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
        self.shared.config.recorder.as_ref()
    }

    /// Stops admission, drains every parked and in-flight request
    /// (resolving all tickets — success, typed error, never abandonment),
    /// joins the supervisor and shuts every replica down. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            st.wake();
        }
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
            "Quarantined replicas re-admitted by a successful probe or attempt.",
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

/// Headroom factor for the debug-build stall-margin warning: warn when an
/// attempt completes slower than `stall_timeout / STALL_WARN_MULTIPLE`.
#[cfg(debug_assertions)]
const STALL_WARN_MULTIPLE: u32 = 4;

/// The supervisor: the one consumer of replica reports and the shard's
/// timer thread. It forwards reported tokens to the callers, applies
/// outcomes (failing over at once), trips the stall watchdog, culls and
/// routes parked requests, and probes quarantined replicas back to life.
/// Between rounds it sleeps until the next report or the earliest due
/// time, with no timer at all when nothing is due.
fn supervisor_loop(
    shared: Arc<ShardShared>,
    servers: Arc<Vec<AsyncLutServer>>,
    reports: Receiver<Option<Report>>,
) {
    let config = &shared.config;
    // In-flight probes' replica-local ids, by replica.
    let mut probes: Vec<Option<RequestId>> = vec![None; servers.len()];
    // One-shot latch for the debug-build stall-margin warning (see
    // `STALL_WARN_MULTIPLE`).
    #[cfg(debug_assertions)]
    let mut stall_margin_warned = false;
    let mut received = None;

    loop {
        let mut guard = lock(&shared.state);
        let st = &mut *guard;
        let now = Instant::now();

        // `None` reports are the door's wake-ups: nothing to apply.
        for (replica, id, progress) in received.into_iter().chain(reports.try_iter()).flatten() {
            if probes[replica] == Some(id) {
                // A probe is an encode: its one report is its outcome,
                // and only a health signal.
                probes[replica] = None;
                if matches!(progress, Progress::Done(Ok(_))) {
                    succeed_health(st, replica, config, now);
                } else {
                    fail_health(st, replica, config, now);
                }
                continue;
            }
            // A key no longer in flight belongs to an attempt the stall
            // watchdog already took away: its late reports are dropped.
            let Some(a) = st.attempts.get_mut(&(replica, id)) else {
                continue;
            };
            let outcome = match progress {
                Progress::Token(token) => {
                    // Fold the token into the caller's stream *and* the
                    // request's failover state, so a later failure
                    // rebuilds from the full emitted prefix.
                    a.last_progress = now;
                    if let RequestKind::Generate { max_new } = &mut a.req.kind {
                        *max_new = max_new.saturating_sub(1);
                    }
                    a.req.tokens.push(token);
                    if let Some(entry) = st.requests.get(&a.req.id) {
                        entry.slot.push_token(token);
                    }
                    continue;
                }
                Progress::Done(outcome) => outcome,
            };
            // Stall-margin check (debug builds, once): an attempt that
            // *completed* after `stall_timeout / multiple` means the
            // watchdog is within one bad batch of requeueing healthy
            // work — a config footgun, not a replica fault.
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
            let req = discharge(st, replica, id);
            match outcome {
                Ok(mut response) => {
                    // Response identity is the shard's: same id whichever
                    // replica (or retry) produced it. A generation's
                    // tokens were already forwarded to the caller's
                    // stream; ending it is all that's left.
                    if let Some(r) = &mut response {
                        r.id = req.id;
                    }
                    st.replicas[replica].status.completed += 1;
                    succeed_health(st, replica, config, now);
                    st.metrics.completed += 1;
                    resolve(st, req.id, Ok(response));
                }
                Err(ServeError::DeadlineExceeded { .. }) => {
                    // Expired inside the replica: terminal, not a replica
                    // fault — the request was simply too old.
                    st.metrics.deadline_misses += 1;
                    let waited = now.saturating_duration_since(req.queued_at);
                    resolve(
                        st,
                        req.id,
                        Err(ServeError::DeadlineExceeded { id: req.id, waited }),
                    );
                }
                Err(_) => {
                    // ServerFailed (a contained batch panic — possibly
                    // injected) or any other replica-side failure: the
                    // replica takes the health hit, the request fails
                    // over. (The replica's worker already journaled the
                    // panic and froze an incident snapshot.) A failed
                    // generation fails over with its streamed prefix —
                    // the retry re-prefills it, rebuilding the KV cache.
                    st.replicas[replica].status.failures += 1;
                    fail_health(st, replica, config, now);
                    fail_over(st, &servers, config, req, replica, "panic", now);
                }
            }
        }

        // The stall watchdog: an attempt without progress for
        // `stall_timeout` leaves the in-flight set and fails over.
        let stalled: Vec<(usize, RequestId)> = st
            .attempts
            .iter()
            .filter(|(_, a)| now.saturating_duration_since(a.last_progress) >= config.stall_timeout)
            .map(|(&key, _)| key)
            .collect();
        for (replica, id) in stalled {
            let req = discharge(st, replica, id);
            st.replicas[replica].status.stalls += 1;
            st.metrics.stalls += 1;
            if let Some(rec) = &config.recorder {
                rec.record(
                    "stall",
                    Some(replica),
                    Some(req.id),
                    req.attempts as u64 + 1,
                );
                rec.snapshot_incident("stall", Some(replica));
            }
            fail_health(st, replica, config, now);
            fail_over(st, &servers, config, req, replica, "stall", now);
        }

        // Route parked requests as far as health allows, in order;
        // `route` also culls the ones whose deadline passed.
        for req in std::mem::take(&mut st.pending) {
            if let Err(req) = route(st, &servers, config, req, now) {
                st.pending.push_back(req);
            }
        }

        // Probe quarantined replicas whose backoff has elapsed. Skipped
        // while draining — shutdown routes to quarantined replicas
        // directly rather than waiting out a probe cycle.
        let probe_due = |ctl: &ReplicaCtl, probe: &Option<RequestId>| {
            (!st.shutdown && probe.is_none()).then_some(ctl.next_probe_at)?
        };
        for (r, probe) in probes.iter_mut().enumerate() {
            if probe_due(&st.replicas[r], probe).is_none_or(|at| now < at) {
                continue;
            }
            let ctl = &mut st.replicas[r];
            ctl.status.probes_sent += 1;
            ctl.next_probe_at = Some(now + ctl.backoff);
            st.metrics.probes_sent += 1;
            if let Some(rec) = &config.recorder {
                rec.record("probe", Some(r), None, ctl.status.probes_sent);
            }
            // A minimal in-vocabulary batch; its result is only a
            // health signal.
            let trace = Arc::new(RequestTrace::new(0));
            *probe = Some(servers[r].enqueue(vec![0], None, RequestKind::Encode, trace));
        }

        if st.shutdown && st.pending.is_empty() && st.attempts.is_empty() {
            debug_assert!(
                st.requests.is_empty(),
                "drained shard still holds unresolved requests"
            );
            // In-flight probes' reports (if any) find the channel closed
            // when the replicas drain.
            break;
        }

        // Sleep until a report, or the earliest due time: a stall
        // deadline, a probe, or a parked request's deadline. Every one of
        // them lies ahead: this round acted on the ones already due.
        let wake_at = st
            .attempts
            .values()
            .map(|a| a.last_progress + config.stall_timeout)
            .chain(
                st.replicas
                    .iter()
                    .zip(&probes)
                    .filter_map(|(ctl, probe)| probe_due(ctl, probe)),
            )
            .chain(st.pending.iter().filter_map(|req| req.deadline))
            .min();
        drop(guard);
        // The shard state holds a sender, so the channel outlives this
        // thread and neither call fails.
        received = match wake_at {
            Some(at) => reports
                .recv_timeout(at.saturating_duration_since(Instant::now()))
                .ok(),
            None => reports.recv().ok(),
        };
    }
}

/// Takes an attempt out of the in-flight set and discharges its padded
/// area from its replica's JSQ signal.
fn discharge(st: &mut ShardState, replica: usize, id: RequestId) -> ShardRequest {
    let a = st
        .attempts
        .remove(&(replica, id))
        .expect("attempt in flight");
    st.replicas[replica].status.outstanding_tokens -= a.req.area();
    a.req
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

/// Charges one failed attempt on `failed_on` — a panic, stall or
/// admission bounce — to the request's retry budget. Within budget, the
/// requeue is recorded on the request's trace and `true` returned;
/// past it, the request resolves to [`ServeError::RetriesExhausted`].
fn charge_retry(
    st: &mut ShardState,
    config: &SupervisorConfig,
    req: &mut ShardRequest,
    failed_on: usize,
    cause: &'static str,
) -> bool {
    req.attempts += 1;
    req.avoid = Some(failed_on);
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
        return false;
    }
    if let Some(entry) = st.requests.get(&req.id) {
        let trace = &entry.slot.trace;
        trace.record(Stage::Requeued, Some(failed_on), Some(cause));
    }
    st.metrics.failovers += 1;
    true
}

/// Routes a failed attempt's request again at once, or parks it at the
/// *front* if no replica is routable (retry priority — a victim of a
/// fault should not also lose its place), or resolves
/// [`ServeError::RetriesExhausted`] past the budget. A generation fails
/// over with its streamed prefix folded into `tokens`, so the retry
/// rebuilds the KV cache by re-prefilling it.
fn fail_over(
    st: &mut ShardState,
    servers: &[AsyncLutServer],
    config: &SupervisorConfig,
    mut req: ShardRequest,
    failed_on: usize,
    cause: &'static str,
    now: Instant,
) {
    if let Some(rec) = &config.recorder {
        let attempts = req.attempts as u64 + 1;
        rec.record("failover", Some(failed_on), Some(req.id), attempts);
    }
    if !charge_retry(st, config, &mut req, failed_on, cause) {
        return;
    }
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
    if let Err(req) = route(st, servers, config, req, now) {
        st.pending.push_front(req);
    }
}

/// Routes one request: JSQ by outstanding padded area over non-quarantined
/// replicas (during a shutdown drain, over *all* replicas), preferring to
/// avoid the replica that just failed it, applying the fault plan's
/// admission bounces. Bounces consume retry budget like any other
/// failure, so a fully-bounced request terminates typed, never spins.
/// `Ok` means the request is on a replica or resolved (deadline, retries
/// exhausted); `Err` hands it back to be parked, every replica being
/// quarantined.
fn route(
    st: &mut ShardState,
    servers: &[AsyncLutServer],
    config: &SupervisorConfig,
    mut req: ShardRequest,
    now: Instant,
) -> Result<(), ShardRequest> {
    loop {
        if req.deadline.is_some_and(|d| now >= d) {
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
            return Ok(());
        }
        let routable =
            |r: &usize| st.shutdown || st.replicas[*r].status.health != ReplicaHealth::Quarantined;
        let Some(target) = (0..servers.len())
            .filter(routable)
            .filter(|&r| Some(r) != req.avoid)
            .min_by_key(|&r| (st.replicas[r].status.outstanding_tokens, r))
            .or_else(|| req.avoid.filter(routable))
        else {
            return Err(req);
        };
        let submission = st.routed_to[target];
        st.routed_to[target] += 1;
        let bounced = config
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.rejects_submission(target, submission));
        if bounced {
            st.replicas[target].status.rejections += 1;
            fail_health(st, target, config, now);
            if let Some(rec) = &config.recorder {
                rec.record("bounce", Some(target), Some(req.id), submission);
            }
            if !charge_retry(st, config, &mut req, target, "bounce") {
                return Ok(());
            }
            continue;
        }
        let Some(trace) = st.requests.get(&req.id).map(|e| Arc::clone(&e.slot.trace)) else {
            // Already resolved terminally — nothing left to route.
            return Ok(());
        };
        if req.kind == (RequestKind::Generate { max_new: 0 }) {
            // Every budgeted token was streamed before the failed
            // attempt died; the stream just needs its end.
            st.metrics.completed += 1;
            trace.record(Stage::Resolved, None, None);
            resolve(st, req.id, Ok(None));
            return Ok(());
        }
        if req.attempts > 0 {
            trace.record(Stage::Retried, Some(target), None);
        }
        // The shard trace rides into the replica: the attempt's stage
        // events (queued, assembled, dispatched, encoded, …) land on the
        // same journal the shard has been writing since admission. A
        // generation resubmits prompt ++ streamed prefix, which
        // re-prefills it on the target — the KV-cache rebuild.
        let remaining = req.deadline.map(|d| d.saturating_duration_since(now));
        let local = servers[target].enqueue(req.tokens.clone(), remaining, req.kind, trace);
        st.replicas[target].status.routed += 1;
        st.replicas[target].status.outstanding_tokens += req.area();
        let attempt = Attempt {
            req,
            last_progress: now,
        };
        st.attempts.insert((target, local), attempt);
        return Ok(());
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
    /// so far, and the spread does not depend on timing. Routing happens
    /// at the door, so the burst is fully routed — nothing parked — the
    /// moment the last `submit` returns.
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
        assert_eq!(server.queue_depth(), 0, "nothing parks on a healthy fleet");
        let spread: Vec<u64> = server.status().iter().map(|s| s.routed).collect();
        assert_eq!(
            spread.iter().sum::<u64>(),
            6,
            "routed before submit returned"
        );
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

    /// A quarantined replica re-admitted by a *served* attempt (the
    /// shutdown drain routes the parked victim onto it, no probe ever
    /// goes out) counts the readmission in the shard metrics and the
    /// journal, exactly as a probe's readmission does.
    #[test]
    fn drain_readmission_is_counted_like_a_probe_readmission() {
        let mut server = tiny_sharded(ShardConfig {
            replicas: 1,
            replica: AsyncServerConfig {
                trace: crate::TraceConfig::enabled(),
                ..AsyncServerConfig::default()
            },
            stall_timeout: Duration::from_secs(60),
            quarantine_after: 1,
            probe_backoff: Duration::from_secs(60),
            fault_plan: Some(Arc::new(FaultPlan::new().panic_at(0, 0))),
            ..ShardConfig::default()
        });
        let ticket = server.submit(vec![2; 5]);
        let parked_by = Instant::now() + Duration::from_secs(30);
        while server.queue_depth() == 0 {
            assert!(Instant::now() < parked_by, "the victim never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.status()[0].health, ReplicaHealth::Quarantined);
        server.shutdown();
        ticket.wait().expect("the drain serves the parked victim");
        let status = &server.status()[0];
        assert_eq!(status.health, ReplicaHealth::Healthy);
        assert_eq!(status.probes_sent, 0, "no probe went out");
        assert_eq!(status.readmissions, 1);
        assert_eq!(
            server.shard_metrics().readmissions,
            status.readmissions,
            "the shard counter and the replica's disagree"
        );
        let journal = server.recorder().expect("tracing enabled").snapshot();
        assert_eq!(
            journal.iter().filter(|ev| ev.kind == "readmitted").count(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn submit_generate_validates_the_token_budget() {
        // roberta_tiny max_seq = 64: 60 prompt + 5 new cannot fit.
        tiny_sharded(ShardConfig::default()).submit_generate(vec![1; 60], 5, None);
    }

    /// A budget whose sum with the prompt wraps `usize` is refused at the
    /// door like any other overlong one, before any replica sees it.
    #[test]
    fn a_wrapping_token_budget_is_refused_at_the_door() {
        let server = one_replica(AsyncServerConfig::default(), ServePolicy::default());
        let submit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.submit_generate(vec![1, 2, 3], usize::MAX - 1, None)
        }));
        let err = submit.expect_err("the door admitted a wrapping budget");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("exceeds max_seq"), "panicked with {msg:?}");
        // The door refused it: nothing reached, failed or quarantined a
        // replica.
        for status in server.status() {
            assert_eq!(
                (status.routed, status.failures, status.quarantines),
                (0, 0, 0)
            );
        }
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

    /// A live `/metrics` listener holds only a `Weak` to the replicas:
    /// `shutdown` still drops the last strong reference, joining every
    /// replica, and the listener then serves the frozen final snapshot.
    #[test]
    fn shutdown_releases_the_replicas_while_metrics_is_served() {
        let mut server = tiny_sharded(ShardConfig::default());
        server
            .submit(vec![2; 5])
            .wait()
            .expect("no faults, no deadline");
        let replicas = Arc::downgrade(server.servers.as_ref().expect("serving"));
        let http = server.serve_http("127.0.0.1:0").expect("bind");
        server.shutdown();
        assert!(
            replicas.upgrade().is_none(),
            "the /metrics listener kept the replicas alive"
        );
        let (status, body) = crate::http::get(http.addr(), "/metrics").expect("scrape");
        assert_eq!(status, 200);
        assert!(
            body.lines().any(|l| l == "nnlut_serve_sequences_total 1"),
            "/metrics lost the final snapshot:\n{body}"
        );
    }
}
