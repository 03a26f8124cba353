//! A reusable work-stealing worker pool for embarrassingly parallel
//! experiment batches.
//!
//! Every parallel surface of the workspace — the fault-engine loss and
//! size sweeps, the multicore injection sweeps, the multi-rank collective
//! drivers, and figure regeneration in `repro` — has the same shape: a
//! finite batch of independent tasks whose per-task cost is wildly uneven
//! (a 2-rank barrier vs. a 128-rank alltoall differ by orders of
//! magnitude). Static chunking leaves threads idle behind the worker that
//! drew the expensive chunk; this pool instead distributes tasks
//! round-robin across per-worker deques and lets idle workers steal from
//! the back of busy ones, so the batch finishes in max-task time rather
//! than max-chunk time.
//!
//! # Determinism
//!
//! Results are written back by task index, so [`WorkerPool::map`] returns
//! exactly what a serial `items.into_iter().map(f)` would, in the same
//! order, regardless of thread count or steal interleaving. For stochastic
//! tasks the caller must also make the *work* order-independent: derive a
//! fresh RNG per task from `(base_seed, task index)` (e.g.
//! [`crate::Pcg64::fork`] with the index in the label) instead of threading
//! one RNG through the batch. Every call site in this workspace follows
//! that rule, which is what makes parallel runs bit-identical to
//! `--serial` ones.
//!
//! Workers are scoped threads (std offers no borrowing persistent pool
//! without lifetime erasure); the pool value itself just carries the
//! configured width, so it is cheap to construct and share.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A batch-parallel work-stealing thread pool.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// A pool sized by [`std::thread::available_parallelism`] (capped at
    /// 16: the batches here saturate memory bandwidth well before that).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16);
        Self::with_threads(threads)
    }

    /// A pool with an explicit width. `threads == 1` runs every batch
    /// serially on the calling thread (no spawns at all), which is what
    /// `--serial` modes use.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "pool needs at least one worker");
        WorkerPool { threads }
    }

    /// Apply `f` to every item and return the results in input order.
    ///
    /// `f` receives the task's index alongside the item so stochastic
    /// tasks can derive a per-task RNG stream (see the module docs).
    /// Panics in `f` propagate to the caller.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }

        let workers = self.threads.min(n);
        // Round-robin the batch across per-worker deques: neighbouring
        // (usually similar-cost) tasks land on different workers, which
        // keeps the initial distribution balanced before stealing starts.
        let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (idx, item) in items.into_iter().enumerate() {
            queues[idx % workers].lock().unwrap().push_back((idx, item));
        }

        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let queues = &queues;
        let f = &f;
        let done: Vec<(usize, R)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    s.spawn(move || {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            // Own queue first (front: cache-warm order)…
                            let task = queues[me].lock().unwrap().pop_front();
                            let task = match task {
                                Some(t) => Some(t),
                                // …then steal from the back of the first
                                // non-empty victim, scanning from the next
                                // worker over to spread contention.
                                None => (1..workers).find_map(|off| {
                                    queues[(me + off) % workers].lock().unwrap().pop_back()
                                }),
                            };
                            match task {
                                Some((idx, item)) => local.push((idx, f(idx, item))),
                                // All queues empty: the batch is finite and
                                // nothing respawns, so we are done.
                                None => break,
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("pool worker panicked"))
                .collect()
        });
        for (idx, r) in done {
            out[idx] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every task produces a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_input_order() {
        let pool = WorkerPool::with_threads(4);
        let out = pool.map((0..1000u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..1000u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = WorkerPool::with_threads(1);
        let caller = std::thread::current().id();
        let out = pool.map(vec![(); 64], |i, ()| {
            assert_eq!(std::thread::current().id(), caller);
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_tasks_all_complete() {
        // Skewed costs force stealing; every result must still line up.
        let pool = WorkerPool::with_threads(4);
        let out = pool.map((0..64u64).collect(), |_, x| {
            if x % 16 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let pool = WorkerPool::with_threads(8);
        pool.map(vec![(); 257], |_, ()| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn matches_serial_map_bit_for_bit() {
        // The determinism contract: per-task forked RNG streams give the
        // same answer at any thread count.
        let run = |threads: usize| {
            WorkerPool::with_threads(threads).map((0..48u64).collect(), |i, x| {
                let mut rng = crate::Pcg64::new(0xB0B).fork(i as u64);
                (0..100)
                    .map(|_| rng.next_f64() * x as f64)
                    .sum::<f64>()
                    .to_bits()
            })
        };
        let serial = run(1);
        assert_eq!(run(2), serial);
        assert_eq!(run(7), serial);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = WorkerPool::new();
        assert!(pool.map(Vec::<u8>::new(), |_, x| x).is_empty());
        assert_eq!(pool.map(vec![9u8], |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn worker_panics_propagate() {
        WorkerPool::with_threads(2).map(vec![0, 1, 2, 3], |_, x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
