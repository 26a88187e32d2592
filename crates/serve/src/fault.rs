//! Deterministic fault injection for the sharded serving layer.
//!
//! A serving robustness claim is only credible if every failure path can
//! be *exercised on demand and reproducibly* — "we retry on panic" means
//! nothing if the panic only ever fires in production. This module
//! provides that switchboard: a [`FaultPlan`] is an explicit, finite list
//! of faults, each keyed to a **deterministic event coordinate** rather
//! than to wall-clock time:
//!
//! * [`Fault::Panic`] / [`Fault::Stall`] fire when replica `r` encodes its
//!   `k`-th dispatched batch (the replica's dispatch sequence number — a
//!   pure function of that replica's arrival order, never of the
//!   scheduler);
//! * [`Fault::RejectAdmission`] fires when the shard router routes its
//!   `n`-th request to replica `r` (the router's per-replica submission
//!   counter), simulating a door that bounces under load.
//!
//! Because the coordinates are event counters, the *same plan against the
//! same per-replica traffic* fires the same faults — and because the
//! serving layer's responses are bit-independent of batch composition,
//! replica choice, and retries, a chaos run's surviving responses are
//! **bit-identical to a fault-free serial run** regardless of how the
//! faults perturbed the schedule. `tests/serve_chaos.rs` asserts exactly
//! that.
//!
//! Plans are built explicitly ([`FaultPlan::panic_at`] and friends) or
//! generated from a seed ([`FaultPlan::seeded`]) for property-style chaos
//! sweeps. The injection point in the encode path is a crate-private
//! `FaultInjector`: one per replica, handed to each replica the
//! [`ShardedServer`](crate::ShardedServer) builds from
//! [`ShardConfig::fault_plan`](crate::ShardConfig::fault_plan), consulted
//! by the replica worker *inside* its panic-containment boundary.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected fault, keyed to a deterministic event coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The encoder panics just before encoding the replica's `batch`-th
    /// dispatched batch (0-based dispatch sequence). Contained by the
    /// per-batch `catch_unwind`; the batch's tickets fail and the shard
    /// layer retries them elsewhere.
    Panic {
        /// Replica the fault targets.
        replica: usize,
        /// The replica's dispatch sequence number the fault fires on.
        batch: u64,
    },
    /// The encoder sleeps `stall` just before encoding the replica's
    /// `batch`-th dispatched batch — a wedged kernel, a page-cache storm,
    /// a GC pause. The shard's stall watchdog requeues the batch's
    /// requests once the stall outlives the timeout.
    Stall {
        /// Replica the fault targets.
        replica: usize,
        /// The replica's dispatch sequence number the fault fires on.
        batch: u64,
        /// How long the encoder is wedged.
        stall: Duration,
    },
    /// The shard router's `submission`-th route to `replica` (0-based
    /// per-replica count) is bounced as if the replica's door had
    /// rejected it; the router fails over to another replica.
    RejectAdmission {
        /// Replica the fault targets.
        replica: usize,
        /// The router's per-replica submission count the fault fires on.
        submission: u64,
    },
}

/// What a batch-coordinate fault does to the encoder (the resolved view
/// [`FaultPlan::batch_fault`] hands the injector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFault {
    /// Panic inside the encode (contained per batch).
    Panic,
    /// Sleep this long before encoding.
    Stall(Duration),
}

/// A finite, deterministic schedule of injected faults.
///
/// # Examples
///
/// ```
/// use nnlut_serve::{BatchFault, FaultPlan};
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .panic_at(0, 0)                                  // replica 0's first batch dies
///     .stall_at(1, 2, Duration::from_millis(50))       // replica 1's third batch wedges
///     .reject_at(1, 0);                                // first route to replica 1 bounces
/// assert_eq!(plan.batch_fault(0, 0), Some(BatchFault::Panic));
/// assert_eq!(plan.batch_fault(0, 1), None);
/// assert!(plan.rejects_submission(1, 0));
/// assert!(!plan.rejects_submission(0, 0));
/// assert_eq!(plan.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds [`Fault::Panic`] at `(replica, batch)`.
    pub fn panic_at(mut self, replica: usize, batch: u64) -> Self {
        self.faults.push(Fault::Panic { replica, batch });
        self
    }

    /// Adds [`Fault::Stall`] of `stall` at `(replica, batch)`.
    pub fn stall_at(mut self, replica: usize, batch: u64, stall: Duration) -> Self {
        self.faults.push(Fault::Stall {
            replica,
            batch,
            stall,
        });
        self
    }

    /// Adds [`Fault::RejectAdmission`] at `(replica, submission)`.
    pub fn reject_at(mut self, replica: usize, submission: u64) -> Self {
        self.faults.push(Fault::RejectAdmission {
            replica,
            submission,
        });
        self
    }

    /// A reproducible random plan for chaos sweeps: every `(replica,
    /// batch)` coordinate below `horizon` independently draws a fault with
    /// probability `intensity` (split evenly between panic, stall of
    /// 1–20 ms, and admission rejection, the latter keyed on the same
    /// index as a submission coordinate). The same `(seed, replicas,
    /// horizon, intensity)` always yields the same plan.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= intensity <= 1.0`.
    pub fn seeded(seed: u64, replicas: usize, horizon: u64, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "intensity {intensity} outside [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::new();
        for replica in 0..replicas {
            for coord in 0..horizon {
                let roll: f64 = rng.gen();
                if roll >= intensity {
                    continue;
                }
                match rng.gen_range(0u32..3) {
                    0 => plan.faults.push(Fault::Panic {
                        replica,
                        batch: coord,
                    }),
                    1 => plan.faults.push(Fault::Stall {
                        replica,
                        batch: coord,
                        stall: Duration::from_millis(rng.gen_range(1u64..=20)),
                    }),
                    _ => plan.faults.push(Fault::RejectAdmission {
                        replica,
                        submission: coord,
                    }),
                }
            }
        }
        plan
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no fault will ever fire.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The batch-coordinate fault at `(replica, batch)`, if any. The
    /// first matching entry wins (plans normally have at most one fault
    /// per coordinate).
    pub fn batch_fault(&self, replica: usize, batch: u64) -> Option<BatchFault> {
        self.faults.iter().find_map(|f| match *f {
            Fault::Panic {
                replica: r,
                batch: b,
            } if r == replica && b == batch => Some(BatchFault::Panic),
            Fault::Stall {
                replica: r,
                batch: b,
                stall,
            } if r == replica && b == batch => Some(BatchFault::Stall(stall)),
            _ => None,
        })
    }

    /// Whether the router's `submission`-th route to `replica` is bounced.
    pub fn rejects_submission(&self, replica: usize, submission: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(*f, Fault::RejectAdmission { replica: r, submission: s }
                if r == replica && s == submission)
        })
    }
}

/// The sentinel prefix of every injected panic's message — test panic
/// hooks use it to keep chaos-run stderr quiet without hiding real bugs.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// One replica's view of a [`FaultPlan`]: the hook the replica's workers
/// consult just before encoding each dispatched batch. Cheap to clone
/// (the plan is shared behind an `Arc`).
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: Arc<FaultPlan>,
    replica: usize,
}

impl FaultInjector {
    /// The injector for `replica` under `plan`.
    pub(crate) fn new(plan: Arc<FaultPlan>, replica: usize) -> Self {
        Self { plan, replica }
    }

    /// Called by a replica worker just before encoding the replica's
    /// `batch`-th dispatched batch, *inside* the per-batch panic
    /// containment: panics for [`Fault::Panic`], sleeps for
    /// [`Fault::Stall`], returns immediately otherwise.
    pub(crate) fn before_encode(&self, batch: u64) {
        match self.plan.batch_fault(self.replica, batch) {
            Some(BatchFault::Panic) => panic!(
                "{INJECTED_PANIC_PREFIX} panic at batch {batch} on replica {}",
                self.replica
            ),
            Some(BatchFault::Stall(stall)) => std::thread::sleep(stall),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_round_trips() {
        let plan = FaultPlan::new()
            .panic_at(2, 7)
            .stall_at(0, 3, Duration::from_millis(9))
            .reject_at(1, 0);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.batch_fault(2, 7), Some(BatchFault::Panic));
        assert_eq!(
            plan.batch_fault(0, 3),
            Some(BatchFault::Stall(Duration::from_millis(9)))
        );
        assert_eq!(plan.batch_fault(1, 0), None, "rejects are not batch faults");
        assert!(plan.rejects_submission(1, 0));
        assert!(!plan.rejects_submission(1, 1));
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(11, 3, 64, 0.25);
        let b = FaultPlan::seeded(11, 3, 64, 0.25);
        assert_eq!(a, b, "same seed must yield the same plan");
        let c = FaultPlan::seeded(12, 3, 64, 0.25);
        assert_ne!(a, c, "different seeds should perturb the plan");
        // Intensity 0 yields nothing; intensity 1 faults every coordinate.
        assert!(FaultPlan::seeded(5, 2, 32, 0.0).is_empty());
        assert_eq!(FaultPlan::seeded(5, 2, 32, 1.0).len(), 64);
    }

    #[test]
    fn injector_fires_only_on_its_replica_coordinates() {
        let plan = Arc::new(FaultPlan::new().stall_at(1, 0, Duration::from_micros(1)));
        // Replica 0 sees nothing; replica 1 stalls (returns, briefly).
        FaultInjector::new(Arc::clone(&plan), 0).before_encode(0);
        FaultInjector::new(plan, 1).before_encode(0);
    }

    #[test]
    #[should_panic(expected = "injected fault: panic at batch 4 on replica 2")]
    fn injector_panics_on_a_panic_coordinate() {
        let plan = Arc::new(FaultPlan::new().panic_at(2, 4));
        FaultInjector::new(plan, 2).before_encode(4);
    }
}
