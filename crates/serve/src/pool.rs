//! The scoped-thread worker pool.
//!
//! std-only (the offline container has no rayon): each parallel region
//! opens a [`std::thread::scope`], runs lane 0 on the caller's thread and
//! lanes `1..n` on freshly spawned scoped threads, then joins them all
//! before returning. Threads therefore live exactly as long as one region
//! — a deliberate trade: a few tens of microseconds of spawn cost per
//! region (negligible against an encoder batch) buys zero `unsafe`, zero
//! channels, and no lifetime laundering of borrowed activation buffers.
//!
//! # Determinism
//!
//! The pool assigns lane `i` the `i`-th chunk of
//! [`nnlut_core::engine::chunk_ranges`] — chunk *assignment* is a pure
//! function of `(work, threads)`, and the kernels it runs are row-local,
//! so results are bit-identical to serial execution no matter how the OS
//! schedules the lanes. The pool contains no reductions of its own (and
//! the workspace forbids atomics-ordered ones), so there is no order to
//! get wrong.
//!
//! Both front doors drive this pool: the synchronous
//! [`LutServer`](crate::LutServer) from the caller's thread, each replica
//! of the asynchronous [`ShardedServer`](crate::ShardedServer) from its
//! encoder threads — one parallel region per encoded batch either way.

use nnlut_transformer::BatchExecutor;

/// A deterministic scoped-thread pool driving [`BatchExecutor`] lanes.
///
/// # Examples
///
/// ```
/// use nnlut_serve::ThreadPool;
/// use nnlut_transformer::BatchExecutor;
///
/// let pool = ThreadPool::new(4);
/// assert_eq!(pool.lanes(), 4);
/// let sums: Vec<std::sync::Mutex<u64>> = (0..4).map(|_| 0.into()).collect();
/// pool.run(&|lane| *sums[lane].lock().unwrap() += lane as u64 + 1);
/// let total: u64 = sums.iter().map(|s| *s.lock().unwrap()).sum();
/// assert_eq!(total, 10);
/// ```
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool with `threads` lanes (`0` is clamped to `1`).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A single-lane pool: runs everything inline, spawning nothing.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Number of worker lanes.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl BatchExecutor for ThreadPool {
    fn lanes(&self) -> usize {
        self.threads
    }

    fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        self.run_n(self.threads, f);
    }

    fn run_n(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        // Spawn only workers that carry work (an 8-thread pool driving a
        // 2-chunk region opens 1 thread, not 7), but run *every* lane
        // below `n` even when `n` exceeds the pool width: worker `w`
        // strides through lanes `w, w+workers, …` — a pure function of
        // `(n, workers)`, preserving determinism under oversubscription.
        let n = n.max(1);
        let workers = n.min(self.threads);
        let strided = |w: usize| {
            let mut lane = w;
            while lane < n {
                f(lane);
                lane += workers;
            }
        };
        if workers == 1 {
            strided(0);
            return;
        }
        std::thread::scope(|scope| {
            for w in 1..workers {
                scope.spawn(move || strided(w));
            }
            // Worker 0 runs on the caller's thread: one fewer spawn, and
            // the caller is busy instead of blocked at the join.
            strided(0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ThreadPool::new(0).lanes(), 1);
        assert_eq!(ThreadPool::serial().lanes(), 1);
    }

    #[test]
    fn every_lane_runs_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            pool.run(&|lane| seen.lock().unwrap().push(lane));
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), threads, "{threads}-lane pool ran {seen:?}");
            let distinct: BTreeSet<usize> = seen.iter().copied().collect();
            assert_eq!(distinct, (0..threads).collect(), "lanes {seen:?}");
        }
    }

    #[test]
    fn run_n_drives_only_working_lanes() {
        let pool = ThreadPool::new(8);
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        pool.run_n(2, &|lane| seen.lock().unwrap().push(lane));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
        // Oversubscription: every declared lane still runs exactly once,
        // strided across the available workers.
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        ThreadPool::new(2).run_n(9, &|lane| seen.lock().unwrap().push(lane));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        pool.run_n(0, &|lane| seen.lock().unwrap().push(lane));
        assert_eq!(seen.into_inner().unwrap(), vec![0]);
    }

    #[test]
    fn pooled_row_chunks_match_serial_bitwise() {
        use nnlut_transformer::exec::run_row_chunks;
        use nnlut_transformer::SerialExecutor;
        // A row-local kernel with rounding-sensitive math: if chunking
        // changed per-element op order, bits would differ.
        let rows = 37;
        let cols = 19;
        let base: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 29) % 101) as f32 * 0.317 - 13.0)
            .collect();
        let kernel = |_first: usize, chunk: &mut [f32]| {
            for row in chunk.chunks_exact_mut(cols) {
                let mean = row.iter().sum::<f32>() / cols as f32;
                for v in row {
                    *v = (*v - mean) * 1.7 + 0.3;
                }
            }
        };
        let mut want = base.clone();
        run_row_chunks(&SerialExecutor, &mut want, rows, cols, &kernel);
        for threads in [2usize, 3, 4, 8] {
            let mut got = base.clone();
            run_row_chunks(&ThreadPool::new(threads), &mut got, rows, cols, &kernel);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "{threads} threads diverged");
            }
        }
    }
}
