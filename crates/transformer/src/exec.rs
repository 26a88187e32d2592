//! Execution strategy for the batched encode path.
//!
//! The batched encoder ([`crate::BertModel::encode_batch`]) expresses every
//! stage as "apply this row-local kernel to a row range"; *where* those row
//! ranges run is delegated to a [`BatchExecutor`]. The crate ships the
//! serial implementation ([`SerialExecutor`]); `nnlut-serve` provides the
//! scoped-thread pool. Keeping the trait here (below the pool) lets the
//! model crate stay free of any threading machinery while still exposing a
//! parallelizable batch path.
//!
//! # Determinism contract
//!
//! Implementations only choose *which lane runs where* — chunk boundaries
//! are fixed by [`nnlut_core::engine::chunk_ranges`] inside
//! [`run_row_chunks`] (and its new-output form `new_row_chunks`, which the
//! linear layers use, and the crate's item-level `par_map`, which the
//! attention and the batched decode entry points use), and every kernel
//! handed to them is row-local (an output row depends only on its own
//! input row plus shared read-only state). Together that makes the batch
//! path **bit-identical across executors and lane counts**;
//! `tests/serve_determinism.rs` asserts it.
//!
//! The op-profiling seam (`nnlut_core::profile`, attached via
//! `Nonlinearity::with_profile`) is equally passive here: kernels record
//! elapsed time *after* running, never consult the counters, and chunk
//! assignment is computed before any kernel starts — so profiling cannot
//! perturb which lane runs which rows, let alone the bits they produce.

use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::Mutex;

use nnlut_core::engine::chunk_ranges;
use nnlut_tensor::Matrix;

/// One lane's work item: its chunk's first row plus the chunk itself,
/// behind a take-once mutex (see [`run_row_chunks`]).
type ChunkSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

/// Runs a fixed number of independent lanes, possibly concurrently.
pub trait BatchExecutor: Sync {
    /// Number of parallel lanes this executor drives (`1` = serial).
    fn lanes(&self) -> usize;

    /// Invokes `f(lane)` exactly once for every `lane in 0..lanes()`.
    /// Lanes may run concurrently and in any order; `f` must therefore be
    /// safe to call from multiple threads (it is `Sync`) and must not
    /// depend on lane ordering.
    fn run(&self, f: &(dyn Fn(usize) + Sync));

    /// Invokes `f(lane)` exactly once for every `lane in 0..n` — unlike
    /// [`BatchExecutor::run`], the work count is the caller's, not the
    /// executor's. Implementations may use fewer than `n` concurrent
    /// workers (oversubscription) or skip spawning idle ones (`n <`
    /// lanes), but every lane below `n` must run. `f` must still tolerate
    /// being called with `lane >= n` as a no-op, because the default
    /// routes `n <= lanes()` through [`BatchExecutor::run`].
    fn run_n(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n <= self.lanes() {
            self.run(f);
        } else {
            // More work items than lanes: serial fallback keeps the
            // exactly-once contract.
            for lane in 0..n {
                f(lane);
            }
        }
    }
}

/// The serial executor: one lane, run inline on the caller's thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl BatchExecutor for SerialExecutor {
    fn lanes(&self) -> usize {
        1
    }

    fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        f(0);
    }
}

/// Splits a `rows × cols` row-major buffer into one contiguous row chunk
/// per lane (boundaries from [`chunk_ranges`], so they are a pure function
/// of `(rows, lanes)`) and runs `f(first_row, chunk)` on each chunk via
/// `exec`. Chunks are disjoint `&mut` views, so no locking guards the
/// kernel itself — the per-lane mutex only hands each lane its chunk once.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub fn run_row_chunks(
    exec: &dyn BatchExecutor,
    data: &mut [f32],
    rows: usize,
    cols: usize,
    f: &(dyn Fn(usize, &mut [f32]) + Sync),
) {
    run_chunks(exec, data, rows, cols, f);
}

/// [`run_row_chunks`] over a new `rows × cols` matrix: each lane
/// zero-fills its own chunk, then runs `f` on it. A GEMM's output is as
/// large as its result, so filling it serially before the call would add
/// a pass that no lane shares.
pub(crate) fn new_row_chunks(
    exec: &dyn BatchExecutor,
    rows: usize,
    cols: usize,
    f: &(dyn Fn(usize, &mut [f32]) + Sync),
) -> Matrix {
    let len = rows * cols;
    let mut data = Vec::with_capacity(len);
    run_chunks(
        exec,
        &mut data.spare_capacity_mut()[..len],
        rows,
        cols,
        &|first_row, chunk: &mut [MaybeUninit<f32>]| {
            chunk.fill(MaybeUninit::new(0.0));
            // SAFETY: every element was just initialized, and
            // `MaybeUninit<f32>` has the layout of `f32`.
            let chunk = unsafe { &mut *(chunk as *mut [MaybeUninit<f32>] as *mut [f32]) };
            f(first_row, chunk);
        },
    );
    // SAFETY: the chunks partition `0..len`, and `run_chunks` returns only
    // once every chunk was handed to its lane, which fills it first.
    unsafe { data.set_len(len) };
    Matrix::from_vec(rows, cols, data)
}

/// The body of [`run_row_chunks`], for any element type. Returns only
/// after every chunk was taken by its lane (it asserts so, rather than
/// trust the executor's exactly-once contract).
fn run_chunks<T: Send>(
    exec: &dyn BatchExecutor,
    data: &mut [T],
    rows: usize,
    cols: usize,
    f: &(dyn Fn(usize, &mut [T]) + Sync),
) {
    assert_eq!(data.len(), rows * cols, "row-chunk buffer length mismatch");
    let ranges = chunk_ranges(rows, exec.lanes());
    if ranges.len() <= 1 {
        if rows > 0 {
            f(0, data);
        }
        return;
    }
    let slots: Vec<ChunkSlot<'_, T>> = split_row_ranges(data, cols, &ranges)
        .into_iter()
        .zip(&ranges)
        .map(|(chunk, r)| Mutex::new(Some((r.start, chunk))))
        .collect();
    exec.run_n(slots.len(), &|lane| {
        if let Some(slot) = slots.get(lane) {
            let (first_row, chunk) = slot
                .lock()
                .expect("row-chunk slot poisoned")
                .take()
                .expect("each lane takes its slot exactly once");
            f(first_row, chunk);
        }
    });
    for slot in &slots {
        let untaken = slot.lock().expect("row-chunk slot poisoned").is_some();
        assert!(!untaken, "the executor skipped a lane");
    }
}

/// Maps `f` over the items `0..n` with exactly one
/// [`BatchExecutor::run_n`] call: lane `i` computes the items of the
/// `i`-th [`chunk_ranges`]`(n, lanes)` range in order, and the results come
/// back in item order. An item's value never depends on which lane ran it,
/// so for a deterministic `f` the result is the same on every executor.
pub(crate) fn par_map<T: Send>(
    exec: &dyn BatchExecutor,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let ranges = chunk_ranges(n, exec.lanes());
    let slots: Vec<Mutex<Vec<T>>> = ranges.iter().map(|_| Mutex::new(Vec::new())).collect();
    exec.run_n(ranges.len(), &|lane| {
        if let Some(range) = ranges.get(lane) {
            let items: Vec<T> = range.clone().map(&f).collect();
            *slots[lane].lock().expect("par_map slot poisoned") = items;
        }
    });
    let out: Vec<T> = slots
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect("par_map slot poisoned"))
        .collect();
    assert_eq!(out.len(), n, "every item was computed");
    out
}

/// Splits `data` into the disjoint mutable row blocks named by `ranges`
/// (which must be contiguous and ascending, as [`chunk_ranges`] produces):
/// the row ranges scaled to element ranges, carved by the workspace's one
/// chunk-splitting helper.
fn split_row_ranges<'a, T>(
    data: &'a mut [T],
    cols: usize,
    ranges: &[Range<usize>],
) -> Vec<&'a mut [T]> {
    let scaled: Vec<Range<usize>> = ranges
        .iter()
        .map(|r| r.start * cols..r.end * cols)
        .collect();
    nnlut_core::engine::split_at_ranges(data, &scaled)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A test executor that runs its lanes serially but reports many lanes,
    /// exercising the chunked path without threads.
    pub(crate) struct FakeLanes(pub(crate) usize);

    impl BatchExecutor for FakeLanes {
        fn lanes(&self) -> usize {
            self.0
        }

        fn run(&self, f: &(dyn Fn(usize) + Sync)) {
            for lane in 0..self.0 {
                f(lane);
            }
        }
    }

    #[test]
    fn serial_executor_runs_one_lane() {
        let calls = AtomicUsize::new(0);
        SerialExecutor.run(&|lane| {
            assert_eq!(lane, 0);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn row_chunks_cover_every_row_once() {
        let rows = 7;
        let cols = 3;
        let mut data = vec![0.0f32; rows * cols];
        run_row_chunks(&FakeLanes(3), &mut data, rows, cols, &|first_row, chunk| {
            for (i, row) in chunk.chunks_exact_mut(cols).enumerate() {
                for v in row {
                    *v += (first_row + i) as f32 + 1.0;
                }
            }
        });
        for (r, row) in data.chunks_exact(cols).enumerate() {
            assert!(row.iter().all(|&v| v == r as f32 + 1.0), "row {r}: {row:?}");
        }
    }

    /// A [`FakeLanes`] that also counts its `run_n` calls.
    struct CountingLanes(FakeLanes, AtomicUsize);

    impl BatchExecutor for CountingLanes {
        fn lanes(&self) -> usize {
            self.0.lanes()
        }

        fn run(&self, f: &(dyn Fn(usize) + Sync)) {
            self.0.run(f);
        }

        fn run_n(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.run_n(n, f);
        }
    }

    #[test]
    fn par_map_returns_items_in_order_from_one_call() {
        // (lanes, items): one lane, fewer items than lanes, a non-dividing
        // split, and no items at all.
        for (lanes, n) in [(1, 5), (3, 2), (3, 7), (8, 3), (1, 0), (3, 0)] {
            let exec = CountingLanes(FakeLanes(lanes), AtomicUsize::new(0));
            let computed: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = par_map(&exec, n, |i| {
                computed[i].fetch_add(1, Ordering::Relaxed);
                i * 10
            });
            assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
            for (i, c) in computed.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "item {i} at {lanes} lanes");
            }
            assert_eq!(
                exec.1.load(Ordering::Relaxed),
                1,
                "{lanes} lanes, {n} items"
            );
        }
    }

    #[test]
    fn more_lanes_than_rows_is_fine() {
        let mut data = vec![1.0f32; 2 * 4];
        run_row_chunks(&FakeLanes(8), &mut data, 2, 4, &|_, chunk| {
            for v in chunk {
                *v *= 2.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn zero_rows_is_a_noop() {
        let mut data: Vec<f32> = vec![];
        run_row_chunks(&SerialExecutor, &mut data, 0, 4, &|_, _| {
            panic!("kernel must not run on an empty batch")
        });
    }
}
