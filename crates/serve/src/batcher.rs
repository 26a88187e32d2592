//! The dynamic request batcher: length-bucketed admission, FIFO within a
//! bucket, deadline-aware batch-close planning.
//!
//! Requests arrive with arbitrary token lengths; padded-batch compute cost
//! scales with `sequences × max_len`, so packing a 3-token request next to
//! a 128-token one wastes 125 padded rows. The batcher therefore keeps one
//! FIFO queue per **length bucket** ([`BatchPolicy::bucket_edges`]): a
//! request is admitted to the narrowest bucket that fits its length, and a
//! batch is always packed from a *single* bucket, so members have similar
//! lengths and the padded area stays close to the real token count. With
//! no edges configured there is exactly one bucket and the batcher
//! degrades to the plain FIFO of the synchronous server's first iteration.
//!
//! Two invariants keep the serving layer's determinism and fairness story
//! intact:
//!
//! 1. **FIFO within a bucket** — requests inside one bucket are packed in
//!    arrival order, and the bucket chosen for the next batch is the one
//!    whose *front* request is oldest, so the oldest waiting request is
//!    always in the next batch. Deadlines shape *when* a batch closes
//!    ([`ClosePolicy`]), never *what order* requests are packed.
//! 2. **Composition is a pure function of queue contents + policy** — no
//!    randomness, no load feedback. And because the batched encoder masks
//!    attention, with an FP32/FP16 body and exact/LUT backends the
//!    *responses* don't depend on composition at all — batching is purely
//!    a throughput decision. The per-tensor-scaled paths (INT8 GEMM
//!    bodies, the I-BERT GELU backend) see their quantization scales shift
//!    with the batch, as they would on real hardware.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use nnlut_transformer::PaddedBatch;

use crate::server::RequestId;

/// Admission budget for one packed batch, plus the length-bucket layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum sequences per batch.
    pub max_batch: usize,
    /// Maximum padded area (`sequences × max_len`) per batch. A single
    /// over-budget request still forms its own batch — the server must
    /// never deadlock on a long input.
    pub max_padded_tokens: usize,
    /// Length-bucket upper edges, strictly increasing. A request of
    /// length `L` is admitted to the first bucket whose edge is `≥ L`;
    /// longer requests land in the implicit overflow bucket, so there are
    /// always `bucket_edges.len() + 1` buckets. Empty (the default) means
    /// one bucket: plain FIFO admission.
    pub bucket_edges: Vec<usize>,
}

impl BatchPolicy {
    /// A policy sized for the synthetic RoBERTa-class workloads: up to 16
    /// sequences or 2048 padded positions, whichever binds first, single
    /// FIFO bucket.
    pub fn default_policy() -> Self {
        Self {
            max_batch: 16,
            max_padded_tokens: 2048,
            bucket_edges: Vec::new(),
        }
    }

    /// Serve one request per batch (the no-batching baseline).
    pub fn unbatched() -> Self {
        Self {
            max_batch: 1,
            max_padded_tokens: usize::MAX,
            bucket_edges: Vec::new(),
        }
    }

    /// The default budget with length-bucketed admission at `edges`.
    pub fn bucketed(edges: Vec<usize>) -> Self {
        Self {
            bucket_edges: edges,
            ..Self::default_policy()
        }
    }

    /// Number of buckets (always `bucket_edges.len() + 1`; the last is
    /// the overflow bucket).
    pub fn bucket_count(&self) -> usize {
        self.bucket_edges.len() + 1
    }

    /// The bucket a request of length `len` is admitted to.
    pub fn bucket_index(&self, len: usize) -> usize {
        self.bucket_edges
            .iter()
            .position(|&edge| len <= edge)
            .unwrap_or(self.bucket_edges.len())
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// When an *under-filled* batch should close anyway (the full-budget close
/// is always armed). Used by the asynchronous front door's worker; the
/// synchronous server closes unconditionally on `drain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosePolicy {
    /// Close once the oldest queued request has waited this long —
    /// the latency floor a lone request pays under light traffic.
    pub max_batch_age: Duration,
    /// Close early when any queued request's deadline is within this
    /// slack — the headroom left for the batch to actually encode.
    pub deadline_slack: Duration,
}

impl ClosePolicy {
    /// Batches wait at most 20 ms for company; deadline-pressured batches
    /// close 5 ms before the deadline.
    pub fn default_policy() -> Self {
        Self {
            max_batch_age: Duration::from_millis(20),
            deadline_slack: Duration::from_millis(5),
        }
    }

    /// The prefill-starvation bound: under continuous decode pressure
    /// (decode-priority closes firing back to back), a queued
    /// encode/prefill request still closes once its bucket's front has
    /// waited this long — `3 × max_batch_age`. Without decode pressure
    /// the ordinary [`ClosePolicy::max_batch_age`] close fires first, so
    /// this bound is only visible when a generation stream would
    /// otherwise monopolize the worker (the starvation regression test
    /// pins it).
    pub fn max_prefill_wait(&self) -> Duration {
        self.max_batch_age * 3
    }
}

impl Default for ClosePolicy {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// Admission watermarks for reject-at-door backpressure.
///
/// A queue with no ceiling grows without bound under sustained overload:
/// every queued request waits longer, deadlines die in bulk, and the
/// server melts instead of shedding. `ServePolicy` caps what the queue may
/// hold — a submission that would push **either** watermark over its limit
/// is rejected *immediately* (`ServeError::Overloaded` at the
/// [`ShardedServer`](crate::ShardedServer) door), leaving every
/// already-queued request untouched. Rejection is strictly newest-arrival-first: the door
/// closes, the queue never reshuffles, so FIFO fairness is preserved.
///
/// The default is unbounded (both watermarks at `usize::MAX`) — existing
/// callers see no behavior change until they opt in.
///
/// # Examples
///
/// ```
/// use nnlut_serve::ServePolicy;
///
/// let policy = ServePolicy::with_max_queue_depth(128);
/// assert!(policy.admits(128, 10_000));   // at the watermark: fine
/// assert!(!policy.admits(129, 10_000));  // above it: reject at the door
/// assert!(ServePolicy::unbounded().admits(usize::MAX, usize::MAX));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePolicy {
    /// Maximum requests the queue may hold. A submission that would make
    /// the depth exceed this is rejected. `usize::MAX` = unbounded.
    pub max_queue_depth: usize,
    /// Maximum **queued area** — the sum of queued requests' token
    /// lengths (the lower bound of the padded compute the backlog
    /// represents). A submission that would push the sum past this is
    /// rejected. `usize::MAX` = unbounded.
    pub max_queued_tokens: usize,
}

impl ServePolicy {
    /// No backpressure: every valid request is admitted (the default).
    pub fn unbounded() -> Self {
        Self {
            max_queue_depth: usize::MAX,
            max_queued_tokens: usize::MAX,
        }
    }

    /// Depth watermark only: at most `depth` requests queued.
    pub fn with_max_queue_depth(depth: usize) -> Self {
        Self {
            max_queue_depth: depth,
            ..Self::unbounded()
        }
    }

    /// Area watermark only: at most `tokens` real tokens queued.
    pub fn with_max_queued_tokens(tokens: usize) -> Self {
        Self {
            max_queued_tokens: tokens,
            ..Self::unbounded()
        }
    }

    /// Whether a queue at `depth` requests / `queued_tokens` real tokens
    /// (*after* admitting the candidate) is within both watermarks.
    pub fn admits(&self, depth: usize, queued_tokens: usize) -> bool {
        depth <= self.max_queue_depth && queued_tokens <= self.max_queued_tokens
    }
}

impl Default for ServePolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Why a batch was closed — recorded per batch in the serving metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The area/count budget was the binding constraint.
    Full,
    /// The oldest member hit [`ClosePolicy::max_batch_age`].
    Aged,
    /// A queued deadline came within [`ClosePolicy::deadline_slack`].
    Deadline,
    /// Unconditional flush: a synchronous `drain`/`step`, or the
    /// asynchronous server shutting down.
    Drain,
    /// A decode-priority close: generation steps were waiting and inter-
    /// token latency outranks packing density, so the decode plane closed
    /// as soon as the worker could take it.
    Decode,
}

impl std::fmt::Display for CloseReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CloseReason::Full => "full",
            CloseReason::Aged => "aged",
            CloseReason::Deadline => "deadline",
            CloseReason::Drain => "drain",
            CloseReason::Decode => "decode",
        })
    }
}

/// One queued encode request.
#[derive(Debug, Clone)]
struct PendingRequest {
    /// The id handed back to the submitter.
    id: RequestId,
    /// The token sequence to encode.
    tokens: Vec<usize>,
    /// When the request entered the queue (queue-wait metrics run off
    /// this).
    queued_at: Instant,
    /// Absolute completion deadline, if the submitter set one. Expired
    /// requests are culled by [`Batcher::take_expired`], never encoded.
    deadline: Option<Instant>,
}

/// One queued single-token decode step — the scheduling record of a
/// generation rejoining the queue after emitting a token. The serving
/// layer owns the sequence's KV cache and next token; the batcher only
/// decides *when* the step runs and with which batch-mates.
#[derive(Debug, Clone)]
struct DecodeStep {
    /// The generation request this step advances.
    id: RequestId,
    /// Cached positions the step's attention spans — its compute-cost
    /// signal. The step contributes `context_len + 1` to the decode
    /// batch's area (the new row attends over the context plus itself).
    context_len: usize,
    /// When the step rejoined the queue (inter-token latency runs off
    /// this).
    queued_at: Instant,
    /// The generation's absolute deadline, if any. A lapsed deadline
    /// culls the step via [`Batcher::take_expired`].
    deadline: Option<Instant>,
}

/// One closed batch of decode steps, as produced by
/// [`Batcher::close_decode`]. Parallel arrays in FIFO (rejoin) order.
#[derive(Debug, Clone)]
pub struct ClosedDecodeBatch {
    /// Member generation ids.
    pub ids: Vec<RequestId>,
    /// Queue wait of each step at close time, parallel to `ids`.
    pub queue_waits: Vec<Duration>,
    /// Total attention area of the batch: `Σ (context_len + 1)` — the
    /// analog of a padded batch's `sequences × max_len`.
    pub context_tokens: usize,
    /// Why the batch closed.
    pub reason: CloseReason,
}

/// Which plane [`Batcher::plan_close`] decided to close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseTarget {
    /// Close length bucket `i` via [`Batcher::close_bucket`].
    Bucket(usize),
    /// Close the decode plane via [`Batcher::close_decode`].
    Decode,
}

/// One packed batch plus its admission bookkeeping, as produced by
/// [`Batcher::close_bucket`].
#[derive(Debug, Clone)]
pub struct ClosedBatch {
    /// Member request ids, in FIFO (arrival) order.
    pub ids: Vec<RequestId>,
    /// Queue wait of each member at close time, parallel to `ids`.
    pub queue_waits: Vec<Duration>,
    /// The packed, padded batch.
    pub batch: PaddedBatch,
    /// Bucket the batch was packed from.
    pub bucket: usize,
    /// Why the batch closed.
    pub reason: CloseReason,
}

/// Length-bucketed admission queue + greedy per-bucket packer.
///
/// # Examples
///
/// ```
/// use nnlut_serve::{BatchPolicy, Batcher};
///
/// // Two length buckets (≤4 tokens, >4 tokens), up to 2 sequences each.
/// let mut b = Batcher::new(BatchPolicy {
///     max_batch: 2,
///     max_padded_tokens: 64,
///     bucket_edges: vec![4],
/// });
/// b.push(0, vec![1, 2, 3]);
/// b.push(1, vec![9; 40]);     // long request: overflow bucket
/// b.push(2, vec![4]);
/// let (ids, batch) = b.next_batch().unwrap();
/// assert_eq!(ids, vec![0, 2]);     // short bucket packs together…
/// assert_eq!(batch.max_len(), 3);  // …so padding stays tight
/// let (ids, batch) = b.next_batch().unwrap();
/// assert_eq!(ids, vec![1]);        // the long request rides alone
/// assert_eq!(batch.max_len(), 40);
/// assert_eq!(b.queue_depth(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Batcher {
    policy: BatchPolicy,
    buckets: Vec<VecDeque<PendingRequest>>,
    /// The decode plane: FIFO of single-token generation steps, separate
    /// from the length buckets because a decode step's cost profile is a
    /// different shape (one new row, attention over a cached context) and
    /// its latency target is per-token, not per-request.
    decode: VecDeque<DecodeStep>,
}

impl Batcher {
    /// An empty batcher under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy admits nothing (`max_batch == 0` or
    /// `max_padded_tokens == 0`) or the bucket edges are not strictly
    /// increasing positive lengths.
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(policy.max_batch > 0, "max_batch must be positive");
        assert!(
            policy.max_padded_tokens > 0,
            "max_padded_tokens must be positive"
        );
        for pair in policy.bucket_edges.windows(2) {
            assert!(
                pair[0] < pair[1],
                "bucket edges must be strictly increasing: {:?}",
                policy.bucket_edges
            );
        }
        if let Some(&first) = policy.bucket_edges.first() {
            assert!(first > 0, "bucket edges must be positive lengths");
        }
        let buckets = (0..policy.bucket_count())
            .map(|_| VecDeque::new())
            .collect();
        Self {
            policy,
            buckets,
            decode: VecDeque::new(),
        }
    }

    /// The admission policy.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Enqueues a request with no deadline, timestamped now.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty (there is nothing to encode).
    pub fn push(&mut self, id: RequestId, tokens: Vec<usize>) {
        self.push_at(id, tokens, Instant::now(), None);
    }

    /// Enqueues a request with an explicit arrival timestamp and optional
    /// absolute deadline. FIFO order within a bucket is push order;
    /// `queued_at` only feeds the age/wait bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn push_at(
        &mut self,
        id: RequestId,
        tokens: Vec<usize>,
        queued_at: Instant,
        deadline: Option<Instant>,
    ) {
        assert!(!tokens.is_empty(), "cannot enqueue an empty request");
        let bucket = self.policy.bucket_index(tokens.len());
        self.buckets[bucket].push_back(PendingRequest {
            id,
            tokens,
            queued_at,
            deadline,
        });
    }

    /// Number of requests waiting across all buckets.
    pub fn queue_depth(&self) -> usize {
        self.buckets.iter().map(VecDeque::len).sum()
    }

    /// Enqueues one generation decode step (the sequence rejoining the
    /// queue after a token). Decode steps never count against the
    /// [`ServePolicy`] door watermarks — the generation was admitted
    /// once, at submit time.
    pub fn push_decode(
        &mut self,
        id: RequestId,
        context_len: usize,
        queued_at: Instant,
        deadline: Option<Instant>,
    ) {
        self.decode.push_back(DecodeStep {
            id,
            context_len,
            queued_at,
            deadline,
        });
    }

    /// Decode steps waiting in the decode plane.
    pub fn decode_depth(&self) -> usize {
        self.decode.len()
    }

    /// True when nothing is queued on either plane.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(VecDeque::is_empty) && self.decode.is_empty()
    }

    /// Removes every queued request and decode step whose deadline is at
    /// or before `now` and returns their `(id, queued_at)`: the length
    /// buckets' in arrival order, then the decode plane's in rejoin order.
    /// The caller resolves them with a timeout error (freeing a
    /// generation's KV cache); they never run.
    pub fn take_expired(&mut self, now: Instant) -> Vec<(RequestId, Instant)> {
        // Fast path: the worker calls this on every wakeup, so a queue
        // with no lapsed deadline must not pay the scans below.
        if self.earliest_deadline().is_none_or(|d| d > now) {
            return Vec::new();
        }
        let lapsed = |deadline: Option<Instant>| deadline.is_some_and(|d| d <= now);
        let mut expired = Vec::new();
        for bucket in &mut self.buckets {
            let culled = bucket.iter().filter(|r| lapsed(r.deadline));
            expired.extend(culled.map(|r| (r.id, r.queued_at)));
            bucket.retain(|r| !lapsed(r.deadline));
        }
        expired.sort_by_key(|&(id, queued_at)| (queued_at, id));
        let culled = self.decode.iter().filter(|s| lapsed(s.deadline));
        expired.extend(culled.map(|s| (s.id, s.queued_at)));
        self.decode.retain(|s| !lapsed(s.deadline));
        expired
    }

    /// The earliest deadline among queued requests — both planes, so a
    /// deadline riding a decode step shapes close planning and worker
    /// wakeups exactly like one riding a queued prefill.
    pub fn earliest_deadline(&self) -> Option<Instant> {
        self.buckets
            .iter()
            .flatten()
            .filter_map(|r| r.deadline)
            .chain(self.decode.iter().filter_map(|s| s.deadline))
            .min()
    }

    /// Arrival time of the oldest front request (the next batch's oldest
    /// member under FIFO-within-bucket packing).
    pub fn oldest_front(&self) -> Option<Instant> {
        self.front_keys().map(|(at, _, _)| at).min()
    }

    /// `(queued_at, id, bucket)` for each non-empty bucket's front.
    fn front_keys(&self) -> impl Iterator<Item = (Instant, RequestId, usize)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, q)| q.front().map(|r| (r.queued_at, r.id, b)))
    }

    /// The bucket the next unconditional (`Drain`) batch should come
    /// from: the one whose front request is oldest (ties broken by id),
    /// so the longest-waiting request is always served next.
    pub fn plan_drain(&self) -> Option<usize> {
        self.front_keys().min().map(|(_, _, b)| b)
    }

    /// Greedy pack size of `bucket` under the policy: `(count, budget_limited)`.
    fn pack_plan(&self, bucket: usize) -> (usize, bool) {
        let queue = &self.buckets[bucket];
        let mut count = 0usize;
        let mut max_len = 0usize;
        for req in queue {
            let candidate_max = max_len.max(req.tokens.len());
            let candidate_area = (count + 1).saturating_mul(candidate_max);
            let fits = count < self.policy.max_batch
                && (count == 0 || candidate_area <= self.policy.max_padded_tokens);
            if !fits {
                return (count, true);
            }
            count += 1;
            max_len = candidate_max;
        }
        // Queue exhausted — but a batch that already hit the sequence cap
        // is budget-limited even with nothing left behind it.
        (count, count == self.policy.max_batch && count > 0)
    }

    /// Decides whether an asynchronous worker should close a batch *now*,
    /// and from which plane/bucket. Checks, in priority order:
    ///
    /// 1. any queued deadline within `close.deadline_slack`, on either
    ///    plane ([`CloseReason::Deadline`] — closing the plane or bucket
    ///    *containing* the pressured request);
    /// 2. a bucket front that has waited past
    ///    [`ClosePolicy::max_prefill_wait`] ([`CloseReason::Aged`]) — the
    ///    anti-starvation guard that lets a queued prefill preempt an
    ///    otherwise-endless stream of decode-priority closes;
    /// 3. a non-empty decode plane ([`CloseReason::Decode`]) — generation
    ///    steps close as soon as the worker can take them, keeping
    ///    inter-token latency flat while prefills stream in;
    /// 4. the oldest front request exceeding `close.max_batch_age`
    ///    ([`CloseReason::Aged`]);
    /// 5. a bucket whose greedy pack is budget-limited
    ///    ([`CloseReason::Full`]).
    ///
    /// Urgency outranks throughput on purpose: under sustained arrivals
    /// one bucket can be permanently `Full`, and checking it first would
    /// starve deadline-pressured or aged requests sitting in *other*
    /// buckets until they expire. (Under that same overload the aged
    /// bucket is deep, so its close still packs a full batch — the
    /// ordering costs essentially no padding efficiency.) Decode sits
    /// between the urgency closes and the throughput closes for the same
    /// reason in mirror image: it wins the common race against `Aged`
    /// so token cadence never stalls behind a filling prefill batch, but
    /// rule 2 bounds how long it can keep winning. Returns `None` when no
    /// condition fires (the worker should sleep until
    /// [`Batcher::next_event`]).
    pub fn plan_close(
        &self,
        now: Instant,
        close: &ClosePolicy,
    ) -> Option<(CloseTarget, CloseReason)> {
        // Deadline pressure: some queued request (anywhere on either
        // plane) is within slack of its deadline; close what holds it.
        let bucket_pressured = self
            .buckets
            .iter()
            .enumerate()
            .flat_map(|(b, q)| q.iter().map(move |r| (r, b)))
            .filter_map(|(r, b)| r.deadline.map(|d| (d, r.id, CloseTarget::Bucket(b))))
            .min_by_key(|&(d, id, _)| (d, id));
        let decode_pressured = self
            .decode
            .iter()
            .filter_map(|s| s.deadline.map(|d| (d, s.id, CloseTarget::Decode)))
            .min_by_key(|&(d, id, _)| (d, id));
        let pressured = match (bucket_pressured, decode_pressured) {
            (Some(a), Some(b)) => Some(if (a.0, a.1) <= (b.0, b.1) { a } else { b }),
            (a, b) => a.or(b),
        };
        if let Some((deadline, _, target)) = pressured {
            if deadline.saturating_duration_since(now) <= close.deadline_slack {
                return Some((target, CloseReason::Deadline));
            }
        }
        // Anti-starvation: a bucket front that has out-waited even the
        // prefill bound preempts the decode plane.
        if let Some((queued_at, _, bucket)) = self.front_keys().min() {
            if now.saturating_duration_since(queued_at) >= close.max_prefill_wait() {
                return Some((CloseTarget::Bucket(bucket), CloseReason::Aged));
            }
        }
        // Decode priority: waiting generation steps go next.
        if !self.decode.is_empty() {
            return Some((CloseTarget::Decode, CloseReason::Decode));
        }
        // Aged: the globally oldest front has waited long enough.
        if let Some((queued_at, _, bucket)) = self.front_keys().min() {
            if now.saturating_duration_since(queued_at) >= close.max_batch_age {
                return Some((CloseTarget::Bucket(bucket), CloseReason::Aged));
            }
        }
        // Full: among budget-limited buckets, pick the oldest front.
        let full = self
            .front_keys()
            .filter(|&(_, _, b)| self.pack_plan(b).1)
            .min();
        if let Some((_, _, bucket)) = full {
            return Some((CloseTarget::Bucket(bucket), CloseReason::Full));
        }
        None
    }

    /// The next instant at which [`Batcher::plan_close`] could start
    /// firing without a new arrival: the earlier of the oldest front
    /// aging out and the earliest deadline (either plane) entering its
    /// slack window. `None` when the queue is empty (sleep until woken).
    /// A non-empty decode plane never needs a timer — `plan_close` fires
    /// for it immediately, so the worker only consults this after a
    /// `None` plan, which implies the decode plane is empty.
    pub fn next_event(&self, close: &ClosePolicy) -> Option<Instant> {
        let aged = self.oldest_front().map(|at| at + close.max_batch_age);
        let pressured = self
            .earliest_deadline()
            .map(|d| d.checked_sub(close.deadline_slack).unwrap_or(d));
        match (aged, pressured) {
            (Some(a), Some(p)) => Some(a.min(p)),
            (a, p) => a.or(p),
        }
    }

    /// Packs and removes the next batch from `bucket`: takes requests
    /// from the bucket front while the running `count × max_len` stays
    /// within the policy (the first request is always admitted). The
    /// recorded close reason is [`CloseReason::Full`] whenever the budget
    /// was the binding constraint, otherwise `fallback`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range or empty.
    pub fn close_bucket(
        &mut self,
        bucket: usize,
        now: Instant,
        fallback: CloseReason,
    ) -> ClosedBatch {
        let (count, budget_limited) = self.pack_plan(bucket);
        assert!(count > 0, "cannot close an empty bucket {bucket}");
        let mut ids = Vec::with_capacity(count);
        let mut queue_waits = Vec::with_capacity(count);
        let mut seqs: Vec<Vec<usize>> = Vec::with_capacity(count);
        for _ in 0..count {
            let req = self.buckets[bucket]
                .pop_front()
                .expect("pack_plan counted it");
            ids.push(req.id);
            queue_waits.push(now.saturating_duration_since(req.queued_at));
            seqs.push(req.tokens);
        }
        ClosedBatch {
            ids,
            queue_waits,
            batch: PaddedBatch::pack(&seqs),
            bucket,
            reason: if budget_limited {
                CloseReason::Full
            } else {
                fallback
            },
        }
    }

    /// Greedy pack size of the decode plane under the policy:
    /// `(count, budget_limited)`. A decode step's area is
    /// `context_len + 1`; the batch packs from the front while the
    /// running area total stays within `max_padded_tokens` and the count
    /// within `max_batch` (the first step is always admitted).
    fn decode_pack_plan(&self) -> (usize, bool) {
        let mut count = 0usize;
        let mut area = 0usize;
        for step in &self.decode {
            let candidate_area = area + step.context_len + 1;
            let fits = count < self.policy.max_batch
                && (count == 0 || candidate_area <= self.policy.max_padded_tokens);
            if !fits {
                return (count, true);
            }
            count += 1;
            area = candidate_area;
        }
        (count, count == self.policy.max_batch && count > 0)
    }

    /// Packs and removes the next batch of decode steps (FIFO from the
    /// decode plane, under the same count/area budget as
    /// [`Batcher::close_bucket`] — see the private `decode_pack_plan`).
    /// The recorded reason upgrades to [`CloseReason::Full`] when the
    /// budget was the binding constraint, mirroring the bucket close.
    ///
    /// # Panics
    ///
    /// Panics if the decode plane is empty.
    pub fn close_decode(&mut self, now: Instant, fallback: CloseReason) -> ClosedDecodeBatch {
        let (count, budget_limited) = self.decode_pack_plan();
        assert!(count > 0, "cannot close an empty decode plane");
        let mut ids = Vec::with_capacity(count);
        let mut queue_waits = Vec::with_capacity(count);
        let mut context_tokens = 0usize;
        for _ in 0..count {
            let step = self
                .decode
                .pop_front()
                .expect("decode_pack_plan counted it");
            context_tokens += step.context_len + 1;
            ids.push(step.id);
            queue_waits.push(now.saturating_duration_since(step.queued_at));
        }
        ClosedDecodeBatch {
            ids,
            queue_waits,
            context_tokens,
            reason: if budget_limited {
                CloseReason::Full
            } else {
                fallback
            },
        }
    }

    /// Convenience for synchronous callers: closes the next `Drain` batch
    /// (oldest front bucket first). Returns the member ids alongside the
    /// padded batch, or `None` when the queue is empty.
    pub fn next_batch(&mut self) -> Option<(Vec<RequestId>, PaddedBatch)> {
        let closed = self.next_closed_batch()?;
        Some((closed.ids, closed.batch))
    }

    /// [`Batcher::next_batch`] with the full bookkeeping attached.
    pub fn next_closed_batch(&mut self) -> Option<ClosedBatch> {
        let bucket = self.plan_drain()?;
        Some(self.close_bucket(bucket, Instant::now(), CloseReason::Drain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_ids(b: &mut Batcher) -> Vec<Vec<RequestId>> {
        let mut out = Vec::new();
        while let Some((ids, _)) = b.next_batch() {
            out.push(ids);
        }
        out
    }

    fn fifo_policy(max_batch: usize, max_padded_tokens: usize) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_padded_tokens,
            bucket_edges: Vec::new(),
        }
    }

    #[test]
    fn fifo_order_is_preserved_across_batches() {
        let mut b = Batcher::new(fifo_policy(2, usize::MAX));
        for id in 0..5 {
            b.push(id, vec![1; 4]);
        }
        assert_eq!(drain_ids(&mut b), vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn padded_area_budget_closes_batches() {
        // 10-token budget: [3-tok, 3-tok] pads to 2×3=6 ✓, adding a 4-tok
        // request would pad to 3×4=12 ✗.
        let mut b = Batcher::new(fifo_policy(16, 10));
        b.push(0, vec![1; 3]);
        b.push(1, vec![1; 3]);
        b.push(2, vec![1; 4]);
        let (ids, batch) = b.next_batch().unwrap();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(batch.padded_tokens(), 6);
        let (ids, _) = b.next_batch().unwrap();
        assert_eq!(ids, vec![2]);
    }

    #[test]
    fn over_budget_request_still_forms_a_singleton_batch() {
        let mut b = Batcher::new(fifo_policy(16, 4));
        b.push(7, vec![1; 9]);
        let (ids, batch) = b.next_batch().unwrap();
        assert_eq!(ids, vec![7]);
        assert_eq!(batch.max_len(), 9);
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn packing_is_deterministic() {
        let make = || {
            let mut b = Batcher::new(BatchPolicy::bucketed(vec![8, 32, 64]));
            for id in 0..40 {
                b.push(id, vec![1; 1 + (id as usize * 37) % 100]);
            }
            drain_ids(&mut b)
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn buckets_separate_lengths_and_keep_fifo_within() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_padded_tokens: usize::MAX,
            bucket_edges: vec![4, 16],
        });
        // Interleaved short/medium/long arrivals.
        b.push(0, vec![1; 2]); // short
        b.push(1, vec![1; 10]); // medium
        b.push(2, vec![1; 30]); // long (overflow bucket)
        b.push(3, vec![1; 4]); // short
        b.push(4, vec![1; 16]); // medium

        // Oldest front first: short (id 0), then medium (id 1), then long.
        assert_eq!(drain_ids(&mut b), vec![vec![0, 3], vec![1, 4], vec![2]]);
    }

    /// Padding efficiency (real / padded tokens) of draining a burst of
    /// `requests` requests whose lengths cycle through `lengths`.
    fn burst_efficiency(policy: BatchPolicy, requests: u64, lengths: &[usize]) -> f64 {
        let mut b = Batcher::new(policy);
        for id in 0..requests {
            b.push(id, vec![1; lengths[id as usize % lengths.len()]]);
        }
        let (mut tokens, mut padded) = (0, 0);
        while let Some((_, batch)) = b.next_batch() {
            tokens += batch.tokens();
            padded += batch.padded_tokens();
        }
        tokens as f64 / padded as f64
    }

    /// Drains the burst FIFO and through `edges`: bucketing must pad no
    /// worse, and each efficiency stays above 0.9x the `(fifo, bucketed)`
    /// value the burst has always produced.
    fn check_burst(
        requests: u64,
        lengths: &[usize],
        budget: usize,
        edges: Vec<usize>,
        was: (f64, f64),
    ) {
        let fifo = burst_efficiency(fifo_policy(8, budget), requests, lengths);
        let bucketed = burst_efficiency(
            BatchPolicy {
                bucket_edges: edges,
                ..fifo_policy(8, budget)
            },
            requests,
            lengths,
        );
        assert!(
            bucketed >= fifo,
            "{lengths:?}: bucketed {bucketed:.4} pads worse than fifo {fifo:.4}"
        );
        assert!(fifo >= 0.9 * was.0, "{lengths:?}: fifo {fifo:.4}");
        assert!(
            bucketed >= 0.9 * was.1,
            "{lengths:?}: bucketed {bucketed:.4}"
        );
    }

    #[test]
    fn buckets_pad_a_mixed_burst_no_worse_than_fifo() {
        // A tiny-model burst and a RoBERTa-shape burst.
        check_burst(
            16,
            &[5, 11, 17, 29, 41, 64],
            512,
            vec![8, 16, 32],
            (0.3867, 0.8285),
        );
        check_burst(
            32,
            &[16, 32, 48, 64, 96, 128],
            1024,
            vec![16, 32, 64],
            (0.4805, 0.8913),
        );
    }

    #[test]
    fn bucket_index_maps_lengths_to_edges() {
        let p = BatchPolicy::bucketed(vec![4, 16, 64]);
        assert_eq!(p.bucket_count(), 4);
        assert_eq!(p.bucket_index(1), 0);
        assert_eq!(p.bucket_index(4), 0);
        assert_eq!(p.bucket_index(5), 1);
        assert_eq!(p.bucket_index(16), 1);
        assert_eq!(p.bucket_index(64), 2);
        assert_eq!(p.bucket_index(65), 3);
    }

    #[test]
    fn take_expired_culls_by_deadline_in_arrival_order() {
        let mut b = Batcher::new(BatchPolicy::bucketed(vec![4]));
        let t0 = Instant::now();
        let soon = t0 + Duration::from_millis(1);
        let late = t0 + Duration::from_secs(60);
        b.push_at(0, vec![1; 2], t0, Some(soon));
        b.push_at(1, vec![1; 8], t0, Some(late));
        b.push_at(2, vec![1; 8], t0, Some(soon));
        b.push_at(3, vec![1; 2], t0, None);
        let expired = b.take_expired(t0 + Duration::from_millis(5));
        let ids: Vec<RequestId> = expired.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(b.queue_depth(), 2);
        assert_eq!(b.earliest_deadline(), Some(late));
    }

    #[test]
    fn plan_close_fires_full_then_aged_then_deadline() {
        let close = ClosePolicy {
            max_batch_age: Duration::from_millis(10),
            deadline_slack: Duration::from_millis(2),
        };
        let t0 = Instant::now();
        // Nothing queued: no close, no next event.
        let b = Batcher::new(BatchPolicy::bucketed(vec![4]));
        assert_eq!(b.plan_close(t0, &close), None);
        assert_eq!(b.next_event(&close), None);

        // A bucket that can fill the sequence cap closes Full immediately.
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 2,
            max_padded_tokens: usize::MAX,
            bucket_edges: vec![4],
        });
        b.push_at(0, vec![1; 2], t0, None);
        assert_eq!(b.plan_close(t0, &close), None);
        b.push_at(1, vec![1; 2], t0, None);
        assert_eq!(
            b.plan_close(t0, &close),
            Some((CloseTarget::Bucket(0), CloseReason::Full))
        );

        // An under-filled batch closes once its front ages out…
        let mut b = Batcher::new(BatchPolicy::bucketed(vec![4]));
        b.push_at(0, vec![1; 2], t0, None);
        assert_eq!(b.plan_close(t0 + Duration::from_millis(5), &close), None);
        assert_eq!(
            b.plan_close(t0 + Duration::from_millis(10), &close),
            Some((CloseTarget::Bucket(0), CloseReason::Aged))
        );
        assert_eq!(b.next_event(&close), Some(t0 + close.max_batch_age));

        // …and a deadline inside its slack window closes the bucket that
        // holds the pressured request, even if another bucket is older.
        let mut b = Batcher::new(BatchPolicy::bucketed(vec![4]));
        b.push_at(0, vec![1; 2], t0, None);
        let deadline = t0 + Duration::from_millis(6);
        b.push_at(1, vec![1; 8], t0, Some(deadline));
        assert_eq!(b.plan_close(t0 + Duration::from_millis(3), &close), None);
        assert_eq!(
            b.plan_close(t0 + Duration::from_millis(4), &close),
            Some((CloseTarget::Bucket(1), CloseReason::Deadline))
        );
        assert_eq!(
            b.next_event(&close),
            Some(deadline - close.deadline_slack),
            "deadline slack fires before the 10 ms age"
        );
    }

    #[test]
    fn urgency_outranks_a_full_bucket() {
        let close = ClosePolicy {
            max_batch_age: Duration::from_millis(10),
            deadline_slack: Duration::from_millis(2),
        };
        let t0 = Instant::now();
        // Bucket 0 can fill the 2-sequence cap; bucket 1 holds one aged
        // request. Closing Full first would starve bucket 1 under
        // sustained short-request arrivals — Aged must win.
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 2,
            max_padded_tokens: usize::MAX,
            bucket_edges: vec![4],
        });
        b.push_at(0, vec![1; 8], t0, None);
        b.push_at(1, vec![1; 2], t0 + Duration::from_millis(9), None);
        b.push_at(2, vec![1; 2], t0 + Duration::from_millis(9), None);
        let late = t0 + Duration::from_millis(12);
        assert_eq!(
            b.plan_close(late, &close),
            Some((CloseTarget::Bucket(1), CloseReason::Aged))
        );
        // A deadline inside its slack outranks both.
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 2,
            max_padded_tokens: usize::MAX,
            bucket_edges: vec![4],
        });
        b.push_at(0, vec![1; 2], t0, None);
        b.push_at(1, vec![1; 2], t0, None);
        b.push_at(2, vec![1; 8], t0, Some(late + Duration::from_millis(1)));
        assert_eq!(
            b.plan_close(late, &close),
            Some((CloseTarget::Bucket(1), CloseReason::Deadline))
        );
    }

    #[test]
    fn close_bucket_records_waits_and_upgrades_reason_to_full() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 2,
            max_padded_tokens: usize::MAX,
            bucket_edges: Vec::new(),
        });
        let t0 = Instant::now();
        b.push_at(0, vec![1; 3], t0, None);
        b.push_at(1, vec![1; 5], t0, None);
        b.push_at(2, vec![1; 5], t0, None);
        let closed = b.close_bucket(0, t0 + Duration::from_millis(3), CloseReason::Aged);
        assert_eq!(closed.ids, vec![0, 1]);
        assert_eq!(closed.reason, CloseReason::Full, "cap-limited ⇒ Full");
        assert_eq!(closed.queue_waits, vec![Duration::from_millis(3); 2]);
        assert_eq!(closed.batch.max_len(), 5);
        // The remaining singleton is not budget-limited: fallback sticks.
        let closed = b.close_bucket(0, t0, CloseReason::Aged);
        assert_eq!(closed.ids, vec![2]);
        assert_eq!(closed.reason, CloseReason::Aged);
    }

    #[test]
    fn serve_policy_watermarks() {
        assert!(ServePolicy::unbounded().admits(1_000_000, usize::MAX));
        let depth = ServePolicy::with_max_queue_depth(2);
        assert!(depth.admits(2, 999));
        assert!(!depth.admits(3, 0));
        let area = ServePolicy::with_max_queued_tokens(100);
        assert!(area.admits(usize::MAX, 100));
        assert!(!area.admits(0, 101));
        assert_eq!(ServePolicy::default(), ServePolicy::unbounded());
    }

    #[test]
    fn decode_plane_closes_with_priority_over_aged() {
        let close = ClosePolicy {
            max_batch_age: Duration::from_millis(10),
            deadline_slack: Duration::from_millis(2),
        };
        let t0 = Instant::now();
        let mut b = Batcher::new(BatchPolicy::bucketed(vec![4]));
        // An aged prefill is waiting, but a decode step is too: decode
        // wins (token cadence outranks a filling prefill batch)…
        b.push_at(0, vec![1; 2], t0, None);
        b.push_decode(100, 7, t0 + Duration::from_millis(11), None);
        let now = t0 + Duration::from_millis(12);
        assert_eq!(
            b.plan_close(now, &close),
            Some((CloseTarget::Decode, CloseReason::Decode))
        );
        let closed = b.close_decode(now, CloseReason::Decode);
        assert_eq!(closed.ids, vec![100]);
        assert_eq!(closed.context_tokens, 8, "context 7 + the new row");
        assert_eq!(closed.reason, CloseReason::Decode);
        assert_eq!(b.decode_depth(), 0);
        // …after which the aged prefill close fires as usual.
        assert_eq!(
            b.plan_close(now, &close),
            Some((CloseTarget::Bucket(0), CloseReason::Aged))
        );
    }

    /// The ISSUE's starvation regression: a continuous stream of cheap
    /// decode steps must not starve a queued prefill forever. Once the
    /// prefill's wait crosses `max_prefill_wait`, it preempts the decode
    /// plane even though decode steps are still queued.
    #[test]
    fn continuous_decode_stream_cannot_starve_queued_prefills() {
        let close = ClosePolicy {
            max_batch_age: Duration::from_millis(10),
            deadline_slack: Duration::from_millis(2),
        };
        let t0 = Instant::now();
        let mut b = Batcher::new(BatchPolicy::bucketed(vec![4]));
        b.push_at(0, vec![1; 3], t0, None); // the prefill that must not starve
        let mut now = t0;
        let mut decode_closes = 0usize;
        // Simulate the worker loop: every time a decode batch closes, the
        // generating sequences immediately rejoin — the decode plane is
        // never empty.
        b.push_decode(100, 5, now, None);
        loop {
            now += Duration::from_millis(5);
            let (target, reason) = b.plan_close(now, &close).expect("work is queued");
            match target {
                CloseTarget::Decode => {
                    b.close_decode(now, reason);
                    decode_closes += 1;
                    assert!(decode_closes < 50, "prefill starved behind decode closes");
                    b.push_decode(100, 5, now, None); // continuous generation
                }
                CloseTarget::Bucket(bucket) => {
                    // The anti-starvation close: the prefill got through
                    // while decode steps were still queued.
                    assert_eq!(reason, CloseReason::Aged);
                    assert!(b.decode_depth() > 0, "decode pressure was continuous");
                    let closed = b.close_bucket(bucket, now, reason);
                    assert_eq!(closed.ids, vec![0]);
                    assert!(
                        now.saturating_duration_since(t0)
                            <= close.max_prefill_wait() + Duration::from_millis(5),
                        "prefill waited past the starvation bound"
                    );
                    break;
                }
            }
        }
    }

    #[test]
    fn decode_close_respects_count_and_area_budget() {
        let t0 = Instant::now();
        // Area budget 20: steps with context 8 cost 9 each → two fit.
        let mut b = Batcher::new(fifo_policy(16, 20));
        for id in 0..3 {
            b.push_decode(id, 8, t0, None);
        }
        let closed = b.close_decode(t0, CloseReason::Decode);
        assert_eq!(closed.ids, vec![0, 1]);
        assert_eq!(closed.context_tokens, 18);
        assert_eq!(closed.reason, CloseReason::Full, "budget-limited ⇒ Full");
        let closed = b.close_decode(t0, CloseReason::Decode);
        assert_eq!(closed.ids, vec![2]);
        assert_eq!(closed.reason, CloseReason::Decode);
        // Count budget binds too.
        let mut b = Batcher::new(fifo_policy(2, usize::MAX));
        for id in 0..5 {
            b.push_decode(id, 0, t0, None);
        }
        assert_eq!(b.close_decode(t0, CloseReason::Decode).ids, vec![0, 1]);
        assert_eq!(b.decode_depth(), 3);
    }

    #[test]
    fn decode_deadlines_shape_planning_and_expiry() {
        let close = ClosePolicy {
            max_batch_age: Duration::from_millis(10),
            deadline_slack: Duration::from_millis(2),
        };
        let t0 = Instant::now();
        let mut b = Batcher::new(BatchPolicy::bucketed(vec![4]));
        let deadline = t0 + Duration::from_millis(6);
        b.push_decode(100, 3, t0, Some(deadline));
        // The decode deadline is visible to the shared planning signals…
        assert_eq!(b.earliest_deadline(), Some(deadline));
        assert_eq!(
            b.plan_close(t0 + Duration::from_millis(4), &close),
            Some((CloseTarget::Decode, CloseReason::Deadline)),
            "a decode deadline inside slack closes with Deadline, not Decode"
        );
        // …and a lapsed deadline culls the step without running it.
        let expired = b.take_expired(t0 + Duration::from_millis(7));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, 100);
        assert_eq!(b.decode_depth(), 0);
        assert!(b.is_empty());
        assert!(b.take_expired(t0 + Duration::from_secs(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty request")]
    fn empty_request_panics() {
        Batcher::new(BatchPolicy::default_policy()).push(0, vec![]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bucket_edges_panic() {
        Batcher::new(BatchPolicy::bucketed(vec![16, 8]));
    }
}
