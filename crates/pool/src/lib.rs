//! # `mmpool` — a deterministic parallel `map` over `std::thread::scope`
//!
//! The host-parallelism counterpart to the `mpsoc` platform simulator:
//! where `mpsoc` *models* a task graph spread across N processing
//! elements, this crate *runs* the same staged work (per-rung ladder
//! encodes, capacity-sweep shards) on N OS threads, so the measured
//! core-count curves sit next to the modeled PE-count ones.
//!
//! [`WorkerPool::map`] fans one closure out over a slice and returns
//! the results **in input order**, whatever the worker count and
//! whatever order the elements finished in; the delivery stack's
//! bit-identical parallel drivers are built on this. Runners are scoped
//! threads, so `f` may borrow from the caller's stack, and a `map`
//! nested in another `map`, on the same pool or not, simply runs.
//!
//! # Example
//!
//! ```
//! use mmpool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let inputs = [1u64, 2, 3, 4, 5];
//! let squares = pool.map(&inputs, |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many runners a [`WorkerPool::map`] uses at most.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` concurrent runners (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Number of concurrent runners a `map` uses.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every element of `items` and returns the results
    /// **in input order**.
    ///
    /// Runs `min(workers, items.len())` runners: the calling thread and
    /// one fewer scoped threads (a 1-worker map spawns none). Each
    /// runner claims the next unclaimed index from one shared counter,
    /// so items of unequal cost still balance across the runners.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-index element whose `f`
    /// panicked, once every other element has run and every thread has
    /// joined.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // Relaxed: it only hands out indexes; the joins order the results.
        let next = AtomicUsize::new(0);
        let run = || {
            std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
                .map_while(|i| Some((i, items.get(i)?)))
                .map(|(i, item)| (i, catch_unwind(AssertUnwindSafe(|| f(item)))))
                .collect::<Vec<_>>()
        };
        let runs = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..self.workers.min(items.len()))
                .map(|_| s.spawn(run))
                .collect();
            let mut runs = vec![run()];
            runs.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
            );
            runs
        });
        let mut results: Vec<_> = runs.into_iter().flatten().collect();
        results.sort_unstable_by_key(|&(i, _)| i);
        results
            .into_iter()
            .map(|(_, r)| r.unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_input_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..100).collect();
        let doubled = pool.map(&items, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_is_identical_across_worker_counts() {
        let items: Vec<u32> = (0..64).collect();
        let expect: Vec<u32> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            assert_eq!(
                pool.map(&items, |&x| x.wrapping_mul(2654435761)),
                expect,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn jobs_may_borrow_stack_data() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (1..=32).collect();
        let chunks: Vec<&[u64]> = data.chunks(8).collect();
        let sums = pool.map(&chunks, |chunk| chunk.iter().sum::<u64>());
        assert_eq!(sums.len(), 4);
        assert_eq!(sums.iter().sum::<u64>(), 32 * 33 / 2);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.worker_count(), 1);
        assert_eq!(pool.map(&[1, 2, 3], |&x: &i32| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = WorkerPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&[1], |_: &i32| -> i32 { panic!("job boom") });
        }));
        assert!(outcome.is_err(), "map must re-raise the element panic");
        // The same pool keeps serving.
        assert_eq!(pool.map(&[10, 20], |&x: &i32| x / 2), vec![5, 10]);
    }

    #[test]
    fn sequential_scopes_reuse_the_same_workers() {
        let pool = WorkerPool::new(2);
        for round in 0..10 {
            let got = pool.map(&[round], |&r: &usize| r * r);
            assert_eq!(got, vec![round * round]);
        }
    }

    #[test]
    fn debug_formats() {
        let pool = WorkerPool::new(2);
        assert!(format!("{pool:?}").contains("workers"));
    }

    #[test]
    fn drop_right_after_work_does_not_hang() {
        // Dropping a pool right after a map must not block: every
        // runner has joined before `map` returns.
        for round in 0..200 {
            let pool = WorkerPool::new(4);
            let got = pool.map(&[round], |&r: &usize| r + 1);
            assert_eq!(got, vec![round + 1]);
        }
    }

    #[test]
    fn scope_on_a_different_pool_from_a_worker_is_allowed() {
        let outer = WorkerPool::new(2);
        let inner = WorkerPool::new(2);
        let got = outer.map(&[1u64, 2, 3], |&x| inner.map(&[x], |&y| y * 2)[0]);
        assert_eq!(got, vec![2, 4, 6]);
    }

    #[test]
    fn an_empty_slice_maps_to_an_empty_vec() {
        for workers in [1, 4] {
            let got = WorkerPool::new(workers).map(&[] as &[u8], |_| -> u8 { unreachable!() });
            assert!(got.is_empty());
        }
    }

    #[test]
    fn a_map_nested_on_the_same_pool_returns_the_right_results() {
        let pool = WorkerPool::new(2);
        let rows: Vec<Vec<u64>> = (0..6)
            .map(|r| (0..5).map(|c| r * 10 + c).collect())
            .collect();
        let got = pool.map(&rows, |row| pool.map(row, |&x| x * x).iter().sum::<u64>());
        let expect: Vec<u64> = rows
            .iter()
            .map(|row| row.iter().map(|&x| x * x).sum())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn a_panicking_element_panics_map_after_the_others_ran() {
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let ran = AtomicUsize::new(0);
            let items: Vec<usize> = (0..16).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.map(&items, |&i| {
                    assert_ne!(i, 3, "element boom");
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            }));
            assert!(outcome.is_err(), "{workers} workers: map must panic");
            assert_eq!(ran.load(Ordering::SeqCst), 15, "{workers} workers");
            assert_eq!(pool.map(&items, |&i| i + 1), (1..=16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn unequal_cost_items_come_back_in_input_order() {
        // Item i spins for a cost that varies by two orders of
        // magnitude, so runners finish them far out of input order.
        let items: Vec<u64> = (0..24)
            .map(|i| if i % 5 == 0 { 200_000 } else { 2_000 })
            .collect();
        let work = |&n: &u64| (0..n).fold(n, |acc, k| acc.rotate_left(5) ^ k);
        let expect: Vec<u64> = items.iter().map(work).collect();
        for workers in [1, 2, 4, 8] {
            assert_eq!(
                WorkerPool::new(workers).map(&items, work),
                expect,
                "{workers} workers"
            );
        }
    }
}
