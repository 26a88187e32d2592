//! Serving metrics: what the operator of a heavy-traffic deployment would
//! watch — per-batch latency, queue depth at dispatch, padding efficiency
//! (overall and per length bucket), queue-wait percentiles, deadline
//! misses and end-to-end tokens/sec. Overload rejections happen at the
//! shard door and are counted in [`crate::ShardMetrics`].
//!
//! # Bounded by design
//!
//! A long-lived server dispatches millions of batches, so [`ServeMetrics`]
//! keeps **O(sketch capacity) memory, not O(batches served)**: every
//! aggregate is a streaming count/sum/peak counter, and percentiles
//! come from fixed-capacity [`QuantileSketch`] ring buffers over the most
//! recent observations. Recording a batch is O(members); taking a
//! snapshot ([`ServeMetrics::clone`]) copies a fixed-size struct and never
//! grows with uptime — the asynchronous server clones under its shared
//! lock and computes percentiles on the snapshot *outside* it.
//! [`ServeMetrics::approx_bytes`] is the self-reported footprint the soak
//! test and this module's unit tests pin down.

use std::time::Duration;

use crate::batcher::CloseReason;
use crate::trace::{Stage, TraceBreakdown};

/// Default number of recent samples each percentile sketch retains.
pub const DEFAULT_SKETCH_CAPACITY: usize = 512;

/// A fixed-capacity ring buffer percentile estimator.
///
/// Keeps the most recent `capacity` observations; a percentile query is
/// exact nearest-rank over that window. Until the window fills this
/// matches exact quantiles of *everything* observed; after that it is the
/// exact quantile of the **trailing window** — the sliding-window
/// semantics an operator dashboard wants, with memory and snapshot cost
/// independent of how long the server has been up.
///
/// Vendored by design: the offline workspace has no crates.io, and a ring
/// buffer (unlike P²) supports *arbitrary* percentile queries after the
/// fact, which is what the existing accessor API promises.
///
/// # Accuracy
///
/// For `n ≤ capacity` observations the estimator is **exact** (bit-equal
/// to nearest-rank over the sorted full history). For `n > capacity` it is
/// exact over the last `capacity` observations and carries no guarantee
/// about older ones — `tests/serve_metrics_props.rs` property-tests both
/// regimes against a sorted oracle.
///
/// # Examples
///
/// ```
/// use nnlut_serve::QuantileSketch;
/// use std::time::Duration;
///
/// let mut q = QuantileSketch::new(128);
/// for ms in [30u64, 10, 20] {
///     q.observe(Duration::from_millis(ms));
/// }
/// assert_eq!(q.percentile(50.0), Some(Duration::from_millis(20)));
/// assert_eq!(q.count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Most recent observations, ring-ordered (query order is irrelevant:
    /// nearest-rank sorts a scratch copy).
    window: Vec<Duration>,
    /// Next write slot once the window is full.
    head: usize,
    /// Ring capacity (fixed at construction; the memory bound).
    capacity: usize,
    /// Total observations ever, including ones that fell off the window.
    count: u64,
}

impl QuantileSketch {
    /// An empty sketch retaining the most recent `capacity` observations
    /// (`0` is clamped to `1`).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            // Allocated up front: the fill phase must not reallocate
            // under a server's shared lock, and `approx_bytes`' bound
            // must match the real heap footprint exactly.
            window: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            count: 0,
        }
    }

    /// Records one observation, evicting the oldest once full. O(1).
    pub fn observe(&mut self, sample: Duration) {
        if self.window.len() < self.capacity {
            self.window.push(sample);
        } else {
            self.window[self.head] = sample;
            self.head = (self.head + 1) % self.capacity;
        }
        self.count += 1;
    }

    /// Nearest-rank percentile over the retained window; `None` before
    /// any observation. O(capacity log capacity) — intended to run on a
    /// *snapshot*, never under a server's shared lock.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.window.is_empty() {
            return None;
        }
        let mut sorted = self.window.clone();
        sorted.sort_unstable();
        // Nearest-rank: ceil(p/100 · n), clamped to [1, n].
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// Total observations ever recorded (not capped by capacity).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations currently retained (`min(count, capacity)`).
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True before the first observation.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The fixed retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes this sketch can ever occupy (capacity, not fill level — the
    /// memory *bound*, so the figure is stable from the first batch).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.capacity * std::mem::size_of::<Duration>()
    }

    /// The retained window in observation order (oldest first).
    fn ordered_window(&self) -> impl Iterator<Item = Duration> + '_ {
        // Before the ring wraps, insertion order *is* slice order; after,
        // the oldest retained sample sits at `head`.
        let (older, newer) = self.window.split_at(if self.window.len() < self.capacity {
            0
        } else {
            self.head
        });
        newer.iter().chain(older.iter()).copied()
    }

    /// Folds another sketch into this one: `other`'s retained window is
    /// replayed in observation order (so this window ends with the merged
    /// recency semantics a rollup wants), and observations that had
    /// already fallen off `other`'s window still count toward
    /// [`QuantileSketch::count`]. Merged percentiles are approximate —
    /// they interleave the two windows by replay order, not by true
    /// arrival time.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for sample in other.ordered_window() {
            self.observe(sample);
        }
        self.count += other.count - other.window.len() as u64;
    }
}

/// One dispatched batch, as observed by the server — the *event* fed to
/// [`ServeMetrics::record`]. The metrics fold it into streaming aggregates
/// and drop it; nothing retains these per batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Sequences packed into the batch.
    pub sequences: usize,
    /// Real (unpadded) tokens encoded.
    pub tokens: usize,
    /// Positions actually computed: `sequences × max_len` for a packed
    /// batch; the async server packs only the encodes and runs the
    /// generation prompts unpadded.
    pub padded_tokens: usize,
    /// Queue depth at the moment the batch was packed (including its own
    /// members) — the backlog signal.
    pub queue_depth: usize,
    /// Wall-clock encode latency of the batch.
    pub latency: Duration,
    /// Length bucket the batch was packed from (0 for a FIFO batcher).
    pub bucket: usize,
    /// Why the batch closed.
    pub reason: CloseReason,
    /// How long each member waited in the queue before dispatch.
    pub queue_waits: Vec<Duration>,
}

/// Per-bucket padding/throughput aggregate (see
/// [`ServeMetrics::per_bucket`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BucketStats {
    /// Batches dispatched from this bucket.
    pub batches: usize,
    /// Sequences those batches carried.
    pub sequences: usize,
    /// Real tokens encoded.
    pub tokens: usize,
    /// Padded positions computed.
    pub padded_tokens: usize,
}

impl BucketStats {
    /// Fraction of this bucket's computed positions that were real tokens
    /// (0 before any batch has run).
    pub fn padding_efficiency(&self) -> f64 {
        if self.padded_tokens == 0 {
            return 0.0;
        }
        self.tokens as f64 / self.padded_tokens as f64
    }
}

fn reason_index(reason: CloseReason) -> usize {
    match reason {
        CloseReason::Full => 0,
        CloseReason::Aged => 1,
        CloseReason::Deadline => 2,
        CloseReason::Drain => 3,
        CloseReason::Decode => 4,
    }
}

/// Streaming serving metrics over every batch a server has dispatched.
///
/// Memory is **O(sketch capacity + bucket count)** — constant for a given
/// configuration, regardless of how many batches have been served. See
/// the module docs for the design.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    batches: u64,
    sequences: usize,
    tokens: usize,
    padded_tokens: usize,
    total_latency: Duration,
    peak_queue_depth: usize,
    close_counts: [u64; 5],
    /// Indexed by bucket; extends to the highest bucket that has
    /// dispatched a batch (bounded by the policy's bucket count).
    per_bucket: Vec<BucketStats>,
    deadline_misses: usize,
    latency_sketch: QuantileSketch,
    queue_wait_sketch: QuantileSketch,
    /// Per-lifecycle-stage latency sketches, indexed like
    /// [`Stage::ALL`], fed from resolved requests' [`TraceBreakdown`]s.
    stage_sketches: [QuantileSketch; Stage::COUNT],
    /// Total time attributed to each stage across every folded
    /// breakdown (the Prometheus `_sum` series).
    stage_totals: [Duration; Stage::COUNT],
    /// Decode batches dispatched (generation steps, not encodes).
    decode_batches: u64,
    /// Single-token decode steps run across every decode batch.
    decode_steps: u64,
    /// Total attention area of decode batches (`Σ context_len + 1`).
    decode_context_tokens: u64,
    /// Wall-clock time spent running decode batches.
    decode_latency: Duration,
    /// Tokens emitted to generation tickets (including each prefill's
    /// first token).
    generated_tokens: u64,
    /// Generations that ran to completion (emitted their full budget).
    generations_completed: u64,
    /// Gap between consecutive token emissions of a sequence — the
    /// inter-token latency the decode-priority close policy protects.
    inter_token_sketch: QuantileSketch,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// No batches yet, sketches at [`DEFAULT_SKETCH_CAPACITY`].
    pub fn new() -> Self {
        Self::with_sketch_capacity(DEFAULT_SKETCH_CAPACITY)
    }

    /// No batches yet, every percentile sketch retaining the most recent
    /// `capacity` observations.
    pub fn with_sketch_capacity(capacity: usize) -> Self {
        Self {
            batches: 0,
            sequences: 0,
            tokens: 0,
            padded_tokens: 0,
            total_latency: Duration::ZERO,
            peak_queue_depth: 0,
            close_counts: [0; 5],
            per_bucket: Vec::new(),
            deadline_misses: 0,
            latency_sketch: QuantileSketch::new(capacity),
            queue_wait_sketch: QuantileSketch::new(capacity),
            stage_sketches: std::array::from_fn(|_| QuantileSketch::new(capacity)),
            stage_totals: [Duration::ZERO; Stage::COUNT],
            decode_batches: 0,
            decode_steps: 0,
            decode_context_tokens: 0,
            decode_latency: Duration::ZERO,
            generated_tokens: 0,
            generations_completed: 0,
            inter_token_sketch: QuantileSketch::new(capacity),
        }
    }

    /// Folds one dispatched decode batch into the aggregates: `steps`
    /// sequences advanced one token each over a total attention area of
    /// `context_tokens`, in `latency` wall-clock, closed for `reason`.
    pub fn record_decode_batch(
        &mut self,
        steps: usize,
        context_tokens: usize,
        latency: Duration,
        reason: CloseReason,
    ) {
        self.decode_batches += 1;
        self.decode_steps += steps as u64;
        self.decode_context_tokens += context_tokens as u64;
        self.decode_latency += latency;
        self.close_counts[reason_index(reason)] += 1;
    }

    /// Records one token emitted to a generation ticket. `gap` is the
    /// time since the same sequence's previous token (`None` for its
    /// first token, which has no predecessor).
    pub fn record_token_emitted(&mut self, gap: Option<Duration>) {
        self.generated_tokens += 1;
        if let Some(g) = gap {
            self.inter_token_sketch.observe(g);
        }
    }

    /// Records one generation that emitted its full token budget.
    pub fn record_generation_complete(&mut self) {
        self.generations_completed += 1;
    }

    /// Folds one resolved request's per-stage breakdown into the stage
    /// sketches. Stages with zero attributed time (untaken paths like
    /// `Requeued` on a fault-free request) are skipped, so each stage's
    /// sketch holds only requests that actually passed through it.
    pub fn record_stages(&mut self, breakdown: &TraceBreakdown) {
        for stage in Stage::ALL {
            let d = breakdown.stage(stage);
            if !d.is_zero() {
                self.stage_sketches[stage.index()].observe(d);
                self.stage_totals[stage.index()] += d;
            }
        }
    }

    /// Folds one dispatched batch into the aggregates. O(members), no
    /// allocation beyond the first touch of a new bucket index.
    pub fn record(&mut self, record: BatchRecord) {
        self.batches += 1;
        self.sequences += record.sequences;
        self.tokens += record.tokens;
        self.padded_tokens += record.padded_tokens;
        self.total_latency += record.latency;
        self.peak_queue_depth = self.peak_queue_depth.max(record.queue_depth);
        self.close_counts[reason_index(record.reason)] += 1;
        if record.bucket >= self.per_bucket.len() {
            self.per_bucket
                .resize(record.bucket + 1, BucketStats::default());
        }
        let b = &mut self.per_bucket[record.bucket];
        b.batches += 1;
        b.sequences += record.sequences;
        b.tokens += record.tokens;
        b.padded_tokens += record.padded_tokens;
        self.latency_sketch.observe(record.latency);
        for wait in record.queue_waits {
            self.queue_wait_sketch.observe(wait);
        }
    }

    /// Records one request expired unserved at its deadline.
    pub fn record_deadline_miss(&mut self) {
        self.deadline_misses += 1;
    }

    /// Batches dispatched so far.
    pub fn batches_served(&self) -> u64 {
        self.batches
    }

    /// Sequences dispatched so far (across every batch).
    pub fn total_sequences(&self) -> usize {
        self.sequences
    }

    /// Requests that expired unserved at their deadline.
    pub fn deadline_misses(&self) -> usize {
        self.deadline_misses
    }

    /// Total real tokens encoded.
    pub fn total_tokens(&self) -> usize {
        self.tokens
    }

    /// Total wall-clock time spent encoding.
    pub fn total_latency(&self) -> Duration {
        self.total_latency
    }

    /// End-to-end throughput in real tokens per second (0 before any
    /// batch has run).
    pub fn tokens_per_sec(&self) -> f64 {
        let secs = self.total_latency.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.tokens as f64 / secs
    }

    /// Fraction of computed positions that were real tokens (1.0 = no
    /// padding waste; 0 before any batch has run).
    pub fn padding_efficiency(&self) -> f64 {
        if self.padded_tokens == 0 {
            return 0.0;
        }
        self.tokens as f64 / self.padded_tokens as f64
    }

    /// Padding/throughput aggregates per length bucket, indexed by
    /// bucket. The slice extends only to the **highest bucket that has
    /// dispatched a batch** — interior idle buckets report zeros, but
    /// trailing idle buckets are omitted (the metrics don't know the
    /// policy's bucket count), so treat an out-of-range index as "no
    /// traffic yet" rather than indexing unchecked. Empty before any
    /// batch has run.
    pub fn per_bucket(&self) -> Vec<BucketStats> {
        self.per_bucket.clone()
    }

    /// How many batches closed for `reason`.
    pub fn closes_for(&self, reason: CloseReason) -> usize {
        self.close_counts[reason_index(reason)] as usize
    }

    /// Batch-latency percentile — nearest-rank over the most recent
    /// [`ServeMetrics::sketch_capacity`] batches (exact over the full
    /// history until the window fills); `None` before any batch has run.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        self.latency_sketch.percentile(p)
    }

    /// Queue-wait percentile over the most recent *dispatched* requests'
    /// time in queue (sliding window, see [`QuantileSketch`]); `None`
    /// before any request was served. Expired requests never count here;
    /// [`ServeMetrics::deadline_misses`] counts them.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn queue_wait_percentile(&self, p: f64) -> Option<Duration> {
        self.queue_wait_sketch.percentile(p)
    }

    /// Per-stage latency percentile over recently resolved requests that
    /// passed through `stage` (sliding window, see [`QuantileSketch`]);
    /// `None` before any such request.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn stage_percentile(&self, stage: Stage, p: f64) -> Option<Duration> {
        self.stage_sketches[stage.index()].percentile(p)
    }

    /// How many folded breakdowns passed through `stage`.
    pub fn stage_count(&self, stage: Stage) -> u64 {
        self.stage_sketches[stage.index()].count()
    }

    /// Total time attributed to `stage` across every folded breakdown.
    pub fn stage_total(&self, stage: Stage) -> Duration {
        self.stage_totals[stage.index()]
    }

    /// Largest queue depth seen at dispatch time.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue_depth
    }

    /// Decode batches dispatched so far.
    pub fn decode_batches(&self) -> u64 {
        self.decode_batches
    }

    /// Single-token decode steps run so far.
    pub fn decode_steps(&self) -> u64 {
        self.decode_steps
    }

    /// Mean decode batch width (steps per decode batch; 0 before any).
    pub fn decode_batch_width(&self) -> f64 {
        if self.decode_batches == 0 {
            return 0.0;
        }
        self.decode_steps as f64 / self.decode_batches as f64
    }

    /// Generation throughput in decode steps per second of decode
    /// wall-clock (0 before any decode batch has run).
    pub fn decode_steps_per_sec(&self) -> f64 {
        let secs = self.decode_latency.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.decode_steps as f64 / secs
    }

    /// Tokens emitted to generation tickets so far.
    pub fn generated_tokens(&self) -> u64 {
        self.generated_tokens
    }

    /// Generations that emitted their full token budget.
    pub fn generations_completed(&self) -> u64 {
        self.generations_completed
    }

    /// Inter-token latency percentile over recently emitted tokens
    /// (sliding window, see [`QuantileSketch`]); `None` until some
    /// sequence has emitted at least two tokens.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn inter_token_percentile(&self, p: f64) -> Option<Duration> {
        self.inter_token_sketch.percentile(p)
    }

    /// The retention capacity of each percentile sketch.
    pub fn sketch_capacity(&self) -> usize {
        self.latency_sketch.capacity()
    }

    /// Self-reported memory footprint: the bytes this struct can ever
    /// occupy, counting every sketch at full *capacity* (not fill level)
    /// and the per-bucket table at its current length. The figure is a
    /// function of configuration (sketch capacity, bucket count), **not**
    /// of batches served — the soak test and this module's unit tests
    /// assert exactly that, and bound it at the default capacity.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.latency_sketch.approx_bytes()
            + self.queue_wait_sketch.approx_bytes()
            + self.inter_token_sketch.approx_bytes()
            + self
                .stage_sketches
                .iter()
                .map(|s| s.approx_bytes())
                .sum::<usize>()
            + self.per_bucket.len() * std::mem::size_of::<BucketStats>()
    }

    /// Folds another server's metrics into this one — the cross-replica
    /// rollup the sharded layer's `/metrics` endpoint reports. Counters,
    /// totals and per-bucket tables add; peaks combine; percentile
    /// sketches merge **approximately** (each replica's retained window is
    /// replayed into this one, so recency interleaving is by replay order,
    /// not true arrival time — see [`QuantileSketch::merge`]). Note that
    /// [`ServeMetrics::tokens_per_sec`] on a merged snapshot divides by
    /// the *sum* of per-replica encode time, which undercounts aggregate
    /// throughput when replicas encode concurrently.
    pub fn merge(&mut self, other: &ServeMetrics) {
        self.batches += other.batches;
        self.sequences += other.sequences;
        self.tokens += other.tokens;
        self.padded_tokens += other.padded_tokens;
        self.total_latency += other.total_latency;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        for (mine, theirs) in self.close_counts.iter_mut().zip(other.close_counts) {
            *mine += theirs;
        }
        if other.per_bucket.len() > self.per_bucket.len() {
            self.per_bucket
                .resize(other.per_bucket.len(), BucketStats::default());
        }
        for (mine, theirs) in self.per_bucket.iter_mut().zip(&other.per_bucket) {
            mine.batches += theirs.batches;
            mine.sequences += theirs.sequences;
            mine.tokens += theirs.tokens;
            mine.padded_tokens += theirs.padded_tokens;
        }
        self.deadline_misses += other.deadline_misses;
        self.latency_sketch.merge(&other.latency_sketch);
        self.queue_wait_sketch.merge(&other.queue_wait_sketch);
        for (mine, theirs) in self.stage_sketches.iter_mut().zip(&other.stage_sketches) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.stage_totals.iter_mut().zip(other.stage_totals) {
            *mine += theirs;
        }
        self.decode_batches += other.decode_batches;
        self.decode_steps += other.decode_steps;
        self.decode_context_tokens += other.decode_context_tokens;
        self.decode_latency += other.decode_latency;
        self.generated_tokens += other.generated_tokens;
        self.generations_completed += other.generations_completed;
        self.inter_token_sketch.merge(&other.inter_token_sketch);
    }

    /// One-line human summary (the bench and the examples print this).
    pub fn summary(&self) -> String {
        let p50 = self.latency_percentile(50.0).unwrap_or_default();
        let p95 = self.latency_percentile(95.0).unwrap_or_default();
        let w50 = self.queue_wait_percentile(50.0).unwrap_or_default();
        let w95 = self.queue_wait_percentile(95.0).unwrap_or_default();
        format!(
            "{} batches · {} tokens · {:.1} tok/s · p50 {:.2} ms · p95 {:.2} ms · wait p50 {:.2} ms · wait p95 {:.2} ms · padding eff {:.2} · peak queue {} · deadline misses {}",
            self.batches,
            self.tokens,
            self.tokens_per_sec(),
            p50.as_secs_f64() * 1e3,
            p95.as_secs_f64() * 1e3,
            w50.as_secs_f64() * 1e3,
            w95.as_secs_f64() * 1e3,
            self.padding_efficiency(),
            self.peak_queue_depth,
            self.deadline_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tokens: usize, padded: usize, ms: u64) -> BatchRecord {
        BatchRecord {
            sequences: 2,
            tokens,
            padded_tokens: padded,
            queue_depth: 5,
            latency: Duration::from_millis(ms),
            bucket: 0,
            reason: CloseReason::Drain,
            queue_waits: vec![Duration::from_millis(ms / 2); 2],
        }
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ServeMetrics::new();
        assert_eq!(m.tokens_per_sec(), 0.0);
        assert_eq!(m.padding_efficiency(), 0.0);
        assert_eq!(m.latency_percentile(50.0), None);
        assert_eq!(m.queue_wait_percentile(50.0), None);
        assert_eq!(m.peak_queue_depth(), 0);
        assert_eq!(m.deadline_misses(), 0);
        assert_eq!(m.batches_served(), 0);
        assert!(m.per_bucket().is_empty());
    }

    #[test]
    fn throughput_and_efficiency() {
        let mut m = ServeMetrics::new();
        m.record(rec(100, 125, 500));
        m.record(rec(100, 175, 500));
        assert!((m.tokens_per_sec() - 200.0).abs() < 1e-9);
        assert!((m.padding_efficiency() - 200.0 / 300.0).abs() < 1e-9);
        assert_eq!(m.total_tokens(), 200);
        assert_eq!(m.total_sequences(), 4);
        assert_eq!(m.peak_queue_depth(), 5);
        assert_eq!(m.batches_served(), 2);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut m = ServeMetrics::new();
        for ms in [10u64, 20, 30, 40] {
            m.record(rec(1, 1, ms));
        }
        assert_eq!(m.latency_percentile(50.0), Some(Duration::from_millis(20)));
        assert_eq!(m.latency_percentile(95.0), Some(Duration::from_millis(40)));
        assert_eq!(m.latency_percentile(0.0), Some(Duration::from_millis(10)));
        assert_eq!(m.latency_percentile(100.0), Some(Duration::from_millis(40)));
        // Queue waits are half the latency in `rec`, two members each.
        assert_eq!(
            m.queue_wait_percentile(50.0),
            Some(Duration::from_millis(10))
        );
        assert_eq!(
            m.queue_wait_percentile(100.0),
            Some(Duration::from_millis(20))
        );
    }

    #[test]
    fn per_bucket_splits_padding_efficiency() {
        let mut m = ServeMetrics::new();
        m.record(BatchRecord {
            bucket: 0,
            ..rec(10, 10, 5)
        });
        m.record(BatchRecord {
            bucket: 2,
            ..rec(30, 60, 5)
        });
        let stats = m.per_bucket();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].batches, 1);
        assert!((stats[0].padding_efficiency() - 1.0).abs() < 1e-12);
        assert_eq!(stats[1], BucketStats::default());
        assert!((stats[2].padding_efficiency() - 0.5).abs() < 1e-12);
        assert_eq!(stats[2].sequences, 2);
    }

    #[test]
    fn deadline_misses_and_close_reasons_are_counted() {
        let mut m = ServeMetrics::new();
        m.record(BatchRecord {
            reason: CloseReason::Aged,
            ..rec(4, 4, 1)
        });
        m.record(rec(4, 4, 1));
        m.record_deadline_miss();
        assert_eq!(m.deadline_misses(), 1);
        assert_eq!(m.closes_for(CloseReason::Aged), 1);
        assert_eq!(m.closes_for(CloseReason::Drain), 1);
        assert_eq!(m.closes_for(CloseReason::Full), 0);
    }

    #[test]
    fn memory_is_bounded_by_sketch_capacity_not_batches() {
        let mut m = ServeMetrics::with_sketch_capacity(64);
        m.record(rec(1, 1, 1));
        let steady = m.approx_bytes();
        for ms in 0..10_000u64 {
            m.record(rec(1, 2, ms % 97));
            m.record_deadline_miss();
        }
        assert_eq!(m.batches_served(), 10_001);
        assert_eq!(m.approx_bytes(), steady, "footprint grew with batches");
        assert_eq!(m.sketch_capacity(), 64);
        // The sliding window really slid: the sketch saw everything but
        // kept only the last 64 latencies.
        assert_eq!(m.latency_sketch.count(), 10_001);
        assert_eq!(m.latency_sketch.len(), 64);
    }

    /// The footprint of a four-bucket server at the default sketch
    /// capacity, after a mixed burst has touched every bucket, stays
    /// within 10% of the 124,848 B it has always reported.
    #[test]
    fn bucketed_footprint_at_default_capacity_is_bounded() {
        use crate::batcher::{BatchPolicy, Batcher};

        let lengths = [5, 11, 17, 29, 41, 64];
        let mut batcher = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_padded_tokens: 512,
            bucket_edges: vec![8, 16, 32],
        });
        for id in 0..16 {
            batcher.push(id, vec![1; lengths[id as usize % lengths.len()]]);
        }
        let mut m = ServeMetrics::with_sketch_capacity(512);
        while let Some(closed) = batcher.next_closed_batch() {
            m.record(BatchRecord {
                sequences: closed.batch.sequences(),
                tokens: closed.batch.tokens(),
                padded_tokens: closed.batch.padded_tokens(),
                queue_depth: 0,
                latency: Duration::from_millis(1),
                bucket: closed.bucket,
                reason: closed.reason,
                queue_waits: closed.queue_waits,
            });
        }
        assert_eq!(m.per_bucket().len(), 4, "every bucket dispatched");
        assert!(
            m.approx_bytes() <= 137_332,
            "metrics footprint {} B exceeds 137,332 B",
            m.approx_bytes()
        );
    }

    #[test]
    fn sketch_is_exact_until_full_then_windows() {
        let mut q = QuantileSketch::new(4);
        for ms in [40u64, 10, 30, 20] {
            q.observe(Duration::from_millis(ms));
        }
        assert_eq!(q.percentile(50.0), Some(Duration::from_millis(20)));
        assert_eq!(q.percentile(100.0), Some(Duration::from_millis(40)));
        // Two more evict the oldest two (40, 10): window = {30, 20, 99, 98}.
        q.observe(Duration::from_millis(99));
        q.observe(Duration::from_millis(98));
        assert_eq!(q.percentile(100.0), Some(Duration::from_millis(99)));
        assert_eq!(q.percentile(0.0), Some(Duration::from_millis(20)));
        assert_eq!(q.count(), 6);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn zero_capacity_sketch_clamps_to_one() {
        let mut q = QuantileSketch::new(0);
        assert_eq!(q.capacity(), 1);
        q.observe(Duration::from_millis(3));
        q.observe(Duration::from_millis(9));
        assert_eq!(q.percentile(50.0), Some(Duration::from_millis(9)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_percentile_panics() {
        ServeMetrics::new().latency_percentile(120.0);
    }

    #[test]
    fn merge_adds_counters_and_combines_extremes() {
        let mut a = ServeMetrics::new();
        a.record(BatchRecord {
            bucket: 1,
            ..rec(10, 20, 5)
        });
        let mut b = ServeMetrics::new();
        b.record(BatchRecord {
            reason: CloseReason::Aged,
            ..rec(30, 30, 50)
        });
        b.record_deadline_miss();
        a.merge(&b);
        assert_eq!(a.batches_served(), 2);
        assert_eq!(a.total_tokens(), 40);
        assert_eq!(a.total_sequences(), 4);
        assert_eq!(a.deadline_misses(), 1);
        assert_eq!(a.closes_for(CloseReason::Drain), 1);
        assert_eq!(a.closes_for(CloseReason::Aged), 1);
        // b's bucket-0 batch lands in the bucket table a already had.
        let buckets = a.per_bucket();
        assert_eq!(buckets[0].batches, 1);
        assert_eq!(buckets[1].batches, 1);
        // Merged sketches see both windows (max = b's 50 ms batch).
        assert_eq!(a.latency_percentile(100.0), Some(Duration::from_millis(50)));
    }

    #[test]
    fn sketch_merge_preserves_total_count_and_window_order() {
        let mut a = QuantileSketch::new(4);
        let mut b = QuantileSketch::new(4);
        for ms in [1u64, 2, 3, 4, 5, 6] {
            b.observe(Duration::from_millis(ms)); // window {3,4,5,6}, count 6
        }
        a.merge(&b);
        assert_eq!(a.count(), 6, "evicted observations still count");
        assert_eq!(a.len(), 4);
        assert_eq!(a.percentile(0.0), Some(Duration::from_millis(3)));
        assert_eq!(a.percentile(100.0), Some(Duration::from_millis(6)));
        // Replay order is oldest-first: two more evict 3 then 4.
        a.observe(Duration::from_millis(9));
        a.observe(Duration::from_millis(9));
        assert_eq!(a.percentile(0.0), Some(Duration::from_millis(5)));
    }

    #[test]
    fn stage_sketches_record_and_merge() {
        let mut bd = TraceBreakdown {
            id: 1,
            stages: [Duration::ZERO; Stage::COUNT],
            total: Duration::from_millis(30),
            events: 3,
        };
        bd.stages[Stage::Queued.index()] = Duration::from_millis(10);
        bd.stages[Stage::Encoded.index()] = Duration::from_millis(20);

        let mut m = ServeMetrics::with_sketch_capacity(16);
        let empty = m.approx_bytes();
        m.record_stages(&bd);
        m.record_stages(&bd);
        assert_eq!(m.stage_count(Stage::Queued), 2);
        assert_eq!(m.stage_total(Stage::Encoded), Duration::from_millis(40));
        assert_eq!(
            m.stage_percentile(Stage::Queued, 50.0),
            Some(Duration::from_millis(10))
        );
        // Untaken stages record nothing.
        assert_eq!(m.stage_count(Stage::Requeued), 0);
        assert_eq!(m.stage_percentile(Stage::Requeued, 50.0), None);
        // Still configuration-pure.
        assert_eq!(m.approx_bytes(), empty);

        let mut rollup = ServeMetrics::with_sketch_capacity(16);
        rollup.merge(&m);
        assert_eq!(rollup.stage_count(Stage::Encoded), 2);
        assert_eq!(rollup.stage_total(Stage::Queued), Duration::from_millis(20));
    }

    #[test]
    fn summary_mentions_throughput() {
        let mut m = ServeMetrics::new();
        m.record(rec(50, 60, 100));
        let s = m.summary();
        assert!(s.contains("tok/s"), "{s}");
        assert!(s.contains("1 batches"), "{s}");
        assert!(s.contains("deadline misses 0"), "{s}");
    }
}
