//! Request-lifecycle tracing and the flight recorder — the serving
//! stack's zero-dependency structured-observability layer.
//!
//! Two complementary views of the same system:
//!
//! * **Per-request** — every request owns a [`RequestTrace`]: a
//!   monotonic-clock journal of [`Stage`] events from admission to
//!   resolution, including every failover requeue and retry. The trace
//!   rides inside the request's `Ticket`, so a caller can ask *where did
//!   my request spend its time* ([`RequestTrace::breakdown`]) or *how far
//!   did it get before timing out* ([`RequestTrace::last_stage`]).
//! * **Fleet-wide** — one shared [`FlightRecorder`]: a bounded ring
//!   buffer of [`FlightEvent`]s recorded by the batcher, the async
//!   servers and the shard supervisor. On an incident (health
//!   transition, batch panic, stall-watchdog trip) the ring is frozen
//!   into an [`IncidentReport`] so the moments *leading up to* the
//!   failure survive after the ring has wrapped past them.
//!
//! # Passivity
//!
//! Tracing is strictly write-only from the serving path's perspective:
//! stage events and ring entries are appended, never read back into any
//! admission, batching, routing or retry decision. Batch composition
//! stays a pure function of arrival order, lengths and policy, and every
//! bit-identity suite passes unchanged with the recorder on
//! (`NNLUT_TRACE=1` in CI).
//!
//! # Cost model
//!
//! A stage event is one `Instant::now()` plus a short mutex-guarded
//! `Vec` push (capped — see [`RequestTrace::MAX_EVENTS`]). A flight
//! event is one clock read plus an O(1) ring write. Both structures
//! report their worst-case footprint via `approx_bytes`, which — like
//! `ServeMetrics::approx_bytes` — is a pure function of configuration,
//! not of traffic.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::server::RequestId;

/// Lifecycle stages a request moves through. A request records these in
/// order on the happy path; faults add [`Stage::Requeued`] /
/// [`Stage::Retried`] excursions, and every request terminates with
/// exactly one of [`Stage::Resolved`] or [`Stage::Failed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Passed the admission door.
    Admitted,
    /// Parked in a length bucket awaiting batch assembly.
    Queued,
    /// Chosen into a concrete padded batch.
    Assembled,
    /// Batch closed by a replica worker, about to run.
    Dispatched,
    /// Encode finished on the replica (success or panic — see the note).
    Encoded,
    /// The finished batch is back under the replica lock, about to
    /// report. Outcomes are reported in completion order, so this spans
    /// only the wait for that lock.
    Reordered,
    /// Response delivered to the ticket.
    Resolved,
    /// Terminal failure delivered to the ticket.
    Failed,
    /// Pushed back to the front of the shard queue after a fault.
    Requeued,
    /// Re-routed to a replica after a requeue.
    Retried,
    /// One generated token emitted to a streaming ticket (recorded once
    /// per decode step, including the prefill's first token; long
    /// generations saturate the [`RequestTrace::MAX_EVENTS`] cap and
    /// further events are counted-by-omission).
    Decoded,
}

impl Stage {
    /// Every stage, in lifecycle order — the index order used by the
    /// per-stage sketches in `ServeMetrics`.
    pub const ALL: [Stage; 11] = [
        Stage::Admitted,
        Stage::Queued,
        Stage::Assembled,
        Stage::Dispatched,
        Stage::Encoded,
        Stage::Reordered,
        Stage::Resolved,
        Stage::Failed,
        Stage::Requeued,
        Stage::Retried,
        Stage::Decoded,
    ];

    /// Number of stages (the per-stage sketch array length).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lower-case name — the `stage` label in Prometheus
    /// exposition and the string shown in `WaitTimeout` errors.
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::Admitted => "admitted",
            Stage::Queued => "queued",
            Stage::Assembled => "assembled",
            Stage::Dispatched => "dispatched",
            Stage::Encoded => "encoded",
            Stage::Reordered => "reordered",
            Stage::Resolved => "resolved",
            Stage::Failed => "failed",
            Stage::Requeued => "requeued",
            Stage::Retried => "retried",
            Stage::Decoded => "decoded",
        }
    }

    /// Index into [`Stage::ALL`]-ordered arrays.
    pub fn index(&self) -> usize {
        *self as usize
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded lifecycle event inside a [`RequestTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which stage was reached.
    pub stage: Stage,
    /// When, as an offset from the trace origin (admission time).
    pub at: Duration,
    /// The replica involved, when the stage is replica-specific.
    pub replica: Option<usize>,
    /// A static annotation — the fault cause on `Requeued`
    /// (`"panic"` / `"stall"` / `"bounce"`), the failure reason on
    /// `Failed` (`"deadline"` / `"retries-exhausted"` / …).
    pub note: Option<&'static str>,
}

/// The monotonic-clock journal one request carries through the stack.
///
/// Shared as an `Arc` between the ticket (reader) and the serving
/// internals (writers); the event list lives behind a mutex that is held
/// only for a push or a copy-out, never across any serving decision.
#[derive(Debug)]
pub struct RequestTrace {
    id: RequestId,
    origin: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl RequestTrace {
    /// Hard cap on recorded events per request. Failover loops under a
    /// generous retry budget could otherwise grow a trace without bound;
    /// past the cap new events are counted-by-omission (dropped), which
    /// keeps the journal a fixed worst-case size. 64 covers a full
    /// lifecycle plus ~14 requeue/retry excursions.
    pub const MAX_EVENTS: usize = 64;

    /// A fresh trace whose origin (time zero) is now.
    pub fn new(id: RequestId) -> Self {
        Self {
            id,
            origin: Instant::now(),
            events: Mutex::new(Vec::with_capacity(8)),
        }
    }

    /// The traced request's id.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Appends a stage event stamped against the trace origin. O(1)
    /// amortized; silently drops once [`Self::MAX_EVENTS`] is reached.
    pub fn record(&self, stage: Stage, replica: Option<usize>, note: Option<&'static str>) {
        let at = self.origin.elapsed();
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() < Self::MAX_EVENTS {
            events.push(TraceEvent {
                stage,
                at,
                replica,
                note,
            });
        }
    }

    /// A copy of every recorded event, in record order (which is also
    /// time order — `at` is non-decreasing).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The most recently recorded stage, if any — what a timed-out
    /// caller sees in the `WaitTimeout` error.
    pub fn last_stage(&self) -> Option<Stage> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .last()
            .map(|e| e.stage)
    }

    /// Folds the journal into a per-stage latency breakdown. The
    /// interval between consecutive events is attributed to the *later*
    /// event's stage ("time spent reaching that stage"), so the stage
    /// durations sum to [`TraceBreakdown::total`] exactly, by
    /// construction. The interval from origin to the first event belongs
    /// to that first event (normally `Admitted`, at ≈ 0).
    pub fn breakdown(&self) -> TraceBreakdown {
        let events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let mut stages = [Duration::ZERO; Stage::COUNT];
        let mut prev = Duration::ZERO;
        for ev in events.iter() {
            stages[ev.stage.index()] += ev.at.saturating_sub(prev);
            prev = ev.at;
        }
        TraceBreakdown {
            id: self.id,
            stages,
            total: prev,
            events: events.len(),
        }
    }
}

/// Per-stage latency attribution for one request (see
/// [`RequestTrace::breakdown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceBreakdown {
    /// The traced request's id.
    pub id: RequestId,
    /// Time attributed to each stage, indexed like [`Stage::ALL`].
    pub stages: [Duration; Stage::COUNT],
    /// Origin-to-last-event span. Equals the sum of `stages` exactly.
    pub total: Duration,
    /// Number of journal events folded in.
    pub events: usize,
}

impl TraceBreakdown {
    /// Time attributed to one stage.
    pub fn stage(&self, stage: Stage) -> Duration {
        self.stages[stage.index()]
    }

    /// Total span from admission to the last recorded event.
    pub fn total(&self) -> Duration {
        self.total
    }
}

impl fmt::Display for TraceBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request {} ({:?} total):", self.id, self.total)?;
        for stage in Stage::ALL {
            let d = self.stage(stage);
            if !d.is_zero() {
                write!(f, " {}={:?}", stage, d)?;
            }
        }
        Ok(())
    }
}

/// Tracing configuration, resolved once at server construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether to run a flight recorder (per-request traces are always
    /// on — they are part of the ticket contract).
    pub recorder: bool,
}

/// Flight-recorder ring capacity (events).
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

impl TraceConfig {
    /// Reads `NNLUT_TRACE` from the environment: `1` or `true` enables
    /// the flight recorder (a ring of [`DEFAULT_RECORDER_CAPACITY`]
    /// events); anything else (or unset) disables it.
    pub fn from_env() -> Self {
        let on = std::env::var("NNLUT_TRACE")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        if on {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// Recorder on.
    pub fn enabled() -> Self {
        Self { recorder: true }
    }

    /// Recorder off (per-request traces still run).
    pub fn disabled() -> Self {
        Self { recorder: false }
    }
}

impl Default for TraceConfig {
    /// The environment-driven default (see [`TraceConfig::from_env`]).
    fn default() -> Self {
        Self::from_env()
    }
}

/// One fleet-wide journal entry in the [`FlightRecorder`] ring. Fully
/// fixed-size (`Copy`, static strings only) so the ring's memory is
/// exactly `capacity × size_of::<FlightEvent>()` forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number (total events ever recorded when this
    /// one was written; survives ring wrap, so gaps reveal overwrites).
    pub seq: u64,
    /// Offset from the recorder's construction instant.
    pub at: Duration,
    /// Static event kind, e.g. `"batch-panic"`, `"failover"`,
    /// `"quarantined"`.
    pub kind: &'static str,
    /// The replica involved, when replica-specific.
    pub replica: Option<usize>,
    /// The request involved, when request-specific.
    pub request: Option<RequestId>,
    /// Kind-specific magnitude (batch size, queue depth, attempt count —
    /// whatever the kind documents).
    pub value: u64,
}

/// A frozen copy of the recorder taken at an incident (see
/// [`FlightRecorder::snapshot_incident`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentReport {
    /// What tripped the snapshot: a health transition
    /// (`"quarantined"`…), `"batch-panic"`, or `"stall"`.
    pub trigger: &'static str,
    /// The replica at fault, when known.
    pub replica: Option<usize>,
    /// When the snapshot was taken, as an offset from the recorder's
    /// construction instant.
    pub at: Duration,
    /// Which incident this is (1 = first since construction).
    pub incident_seq: u64,
    /// The ring contents at snapshot time, oldest first.
    pub events: Vec<FlightEvent>,
}

/// Interior state of the recorder ring.
#[derive(Debug)]
struct RecorderInner {
    /// The ring storage; grows to `capacity` once, then stays put.
    events: Vec<FlightEvent>,
    /// Next write position once the ring is full.
    head: usize,
    /// Total events ever recorded.
    seq: u64,
    /// Total incidents ever snapshotted.
    incident_seq: u64,
    /// The most recent incident snapshot, if any.
    last_incident: Option<IncidentReport>,
}

/// Bounded fleet-wide event journal: a fixed-capacity ring with O(1)
/// record, shared (via `Arc`) by the batcher, every async server and the
/// shard supervisor.
///
/// # Examples
///
/// ```
/// use nnlut_serve::trace::FlightRecorder;
///
/// let rec = FlightRecorder::new(4);
/// for i in 0..6 {
///     rec.record("routed", Some(0), Some(i), i);
/// }
/// let snap = rec.snapshot();
/// assert_eq!(snap.len(), 4); // ring holds the newest 4
/// assert_eq!(snap[0].seq, 2); // oldest surviving event
/// assert_eq!(snap[3].seq, 5);
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
    capacity: usize,
    origin: Instant,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(RecorderInner {
                events: Vec::with_capacity(capacity),
                head: 0,
                seq: 0,
                incident_seq: 0,
                last_incident: None,
            }),
            capacity,
            origin: Instant::now(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one event, overwriting the oldest once the ring is full.
    /// O(1): one clock read, one mutex-guarded slot write.
    pub fn record(
        &self,
        kind: &'static str,
        replica: Option<usize>,
        request: Option<RequestId>,
        value: u64,
    ) {
        let at = self.origin.elapsed();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = inner.seq;
        inner.seq += 1;
        let event = FlightEvent {
            seq,
            at,
            kind,
            replica,
            request,
            value,
        };
        if inner.events.len() < self.capacity {
            inner.events.push(event);
        } else {
            let head = inner.head;
            inner.events[head] = event;
            inner.head = (head + 1) % self.capacity;
        }
    }

    /// Total events ever recorded (including ones the ring has dropped).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).seq
    }

    /// The current ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.ordered(&inner)
    }

    fn ordered(&self, inner: &RecorderInner) -> Vec<FlightEvent> {
        if inner.events.len() < self.capacity {
            inner.events.clone()
        } else {
            let mut out = Vec::with_capacity(inner.events.len());
            out.extend_from_slice(&inner.events[inner.head..]);
            out.extend_from_slice(&inner.events[..inner.head]);
            out
        }
    }

    /// Freezes the current ring into the `last_incident` slot and
    /// returns a copy. Called by the supervisor on health transitions
    /// and stall trips, and by replica workers on batch panics.
    pub fn snapshot_incident(
        &self,
        trigger: &'static str,
        replica: Option<usize>,
    ) -> IncidentReport {
        let at = self.origin.elapsed();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.incident_seq += 1;
        let report = IncidentReport {
            trigger,
            replica,
            at,
            incident_seq: inner.incident_seq,
            events: self.ordered(&inner),
        };
        inner.last_incident = Some(report.clone());
        report
    }

    /// The most recent incident snapshot, if any.
    pub fn last_incident(&self) -> Option<IncidentReport> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .last_incident
            .clone()
    }

    /// Worst-case resident footprint: the full ring **plus** one full
    /// incident snapshot, counted whether or not either has filled yet —
    /// a pure function of `capacity`, so soak tests can assert it never
    /// moves under load.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of::<IncidentReport>()
            + 2 * self.capacity * std::mem::size_of::<FlightEvent>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn trace_records_in_order_and_breaks_down_exactly() {
        let t = RequestTrace::new(7);
        t.record(Stage::Admitted, None, None);
        t.record(Stage::Queued, None, None);
        thread::sleep(Duration::from_millis(2));
        t.record(Stage::Dispatched, Some(1), None);
        t.record(Stage::Resolved, None, None);
        let events = t.events();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(events[2].replica, Some(1));
        assert_eq!(t.last_stage(), Some(Stage::Resolved));

        let b = t.breakdown();
        assert_eq!(b.id, 7);
        assert_eq!(b.events, 4);
        // Attribution is exhaustive by construction: stage durations sum
        // to the total span exactly.
        let sum: Duration = Stage::ALL.iter().map(|s| b.stage(*s)).sum();
        assert_eq!(sum, b.total());
        assert!(b.total() >= Duration::from_millis(2));
        assert!(b.stage(Stage::Dispatched) >= Duration::from_millis(2));
    }

    #[test]
    fn trace_event_cap_holds() {
        let t = RequestTrace::new(1);
        for _ in 0..(RequestTrace::MAX_EVENTS + 10) {
            t.record(Stage::Requeued, Some(0), Some("panic"));
        }
        assert_eq!(t.events().len(), RequestTrace::MAX_EVENTS);
    }

    #[test]
    fn recorder_ring_wraps_and_keeps_newest() {
        let rec = FlightRecorder::new(3);
        for i in 0..7u64 {
            rec.record("routed", Some(0), Some(i), i);
        }
        assert_eq!(rec.recorded(), 7);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert!(snap.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn incident_snapshot_freezes_ring() {
        let rec = FlightRecorder::new(4);
        rec.record("routed", Some(0), Some(1), 5);
        rec.record("batch-panic", Some(0), None, 1);
        let report = rec.snapshot_incident("batch-panic", Some(0));
        assert_eq!(report.incident_seq, 1);
        assert_eq!(report.events.len(), 2);
        // Later traffic does not disturb the frozen snapshot.
        for i in 0..10 {
            rec.record("routed", Some(1), Some(i), 0);
        }
        let stored = rec.last_incident().expect("incident stored");
        assert_eq!(stored, report);
        // A second incident replaces it.
        let second = rec.snapshot_incident("stall", Some(1));
        assert_eq!(second.incident_seq, 2);
        assert_eq!(rec.last_incident().unwrap().trigger, "stall");
    }

    #[test]
    fn recorder_bytes_are_configuration_pure() {
        let rec = FlightRecorder::new(64);
        let empty = rec.approx_bytes();
        for i in 0..1000 {
            rec.record("routed", None, Some(i), i);
        }
        rec.snapshot_incident("stall", None);
        assert_eq!(rec.approx_bytes(), empty);
        // Capacity is the only input.
        assert!(FlightRecorder::new(128).approx_bytes() > empty);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Arc::new(FlightRecorder::new(32));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rec = Arc::clone(&rec);
                thread::spawn(move || {
                    for i in 0..100 {
                        rec.record("routed", Some(t), Some(i), 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.recorded(), 400);
        assert_eq!(rec.snapshot().len(), 32);
    }

    #[test]
    fn trace_config_modes() {
        assert!(TraceConfig::enabled().recorder);
        assert!(!TraceConfig::disabled().recorder);
    }

    #[test]
    fn stage_names_and_order_are_stable() {
        assert_eq!(Stage::COUNT, 11);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Stage::Admitted.as_str(), "admitted");
        assert_eq!(Stage::Requeued.as_str(), "requeued");
        assert_eq!(format!("{}", Stage::Encoded), "encoded");
    }
}
