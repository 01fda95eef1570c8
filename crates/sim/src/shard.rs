//! Intra-run shard fan-out: the engine's input-indexed per-item map.
//!
//! A [`ShardPool`] maps *pure, per-item* work over a slice and writes each
//! result into its input-indexed slot, so the output is a pure function
//! of the input. The engine uses it at each batch admission for the
//! per-job estimate precompute, read against the frozen post-barrier
//! model, before the next sequential decision step.
//!
//! Every fan-out runs on the caller's thread, whatever the worker count.
//! One engine item (an estimate plus an RMSE quote) costs about 0.1 µs,
//! and admissions are 10–15 jobs on the paper and serve workloads and
//! ~10k on megascale. Scoped worker threads cost ~40 µs per call to spawn
//! and merge, and even a 10k-item megascale admission measured slower
//! with two workers than inline on a 2-core host. The worker count is
//! kept as a recorded policy so configs that set `shard_workers` still
//! decode and run unchanged.
//!
//! Steady-state allocation: nothing beyond the caller's reusable output
//! buffer, which stops growing once its capacity has warmed up.

use std::sync::OnceLock;

/// The machine's available parallelism, resolved once per process: the
/// query reads cgroup files on every call.
fn auto_workers() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// A worker-count policy for deterministic intra-run fan-out.
///
/// The pool holds no threads and starts none: the count is recorded, and
/// every fan-out runs inline on the caller's thread.
#[derive(Clone, Copy, Debug)]
pub struct ShardPool {
    workers: usize,
}

impl ShardPool {
    /// Creates a pool with the given worker count; `0` means "auto" (the
    /// machine's available parallelism). The count never changes results
    /// or the thread a fan-out runs on.
    pub fn new(workers: usize) -> ShardPool {
        let workers = if workers == 0 { auto_workers() } else { workers };
        ShardPool { workers }
    }

    /// The resolved worker count (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items`, writing `f(i, &items[i])` into `out[i]`.
    /// `out` is cleared and refilled to `items.len()`; reusing the same
    /// buffer across calls makes the map allocation-free once its
    /// capacity has warmed up.
    pub fn map_ordered_into<T, R, F>(&self, items: &[T], out: &mut Vec<R>, mut f: F)
    where
        F: FnMut(usize, &T) -> R,
    {
        out.clear();
        out.extend(items.iter().enumerate().map(|(i, item)| f(i, item)));
    }
}

impl Default for ShardPool {
    /// The auto-sized pool (available parallelism).
    fn default() -> ShardPool {
        ShardPool::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn map_is_identical_across_worker_counts() {
        let items: Vec<u64> = (0..1_037).collect();
        let f = |i: usize, &x: &u64| {
            assert_eq!(i as u64, x);
            // A result whose bytes would expose any index mix-up.
            (x * 2654435761) ^ (x << 7)
        };
        let mut reference: Vec<u64> = Vec::new();
        ShardPool::new(1).map_ordered_into(&items, &mut reference, f);
        for workers in [2, 3, 4, 8] {
            let mut out: Vec<u64> = Vec::new();
            ShardPool::new(workers).map_ordered_into(&items, &mut out, f);
            assert_eq!(out, reference, "workers={workers}");
        }
    }

    #[test]
    fn every_item_runs_on_the_caller() {
        let caller = thread::current().id();
        let items: Vec<u64> = (0..10_000).collect();
        let mut out: Vec<bool> = Vec::new();
        ShardPool::new(8)
            .map_ordered_into(&items, &mut out, |_, _| thread::current().id() == caller);
        assert!(out.iter().all(|&on_caller| on_caller), "a fan-out left the caller's thread");
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let pool = ShardPool::new(8);
        let mut out: Vec<u64> = vec![99; 5];
        pool.map_ordered_into(&[], &mut out, |_, &x: &u64| x);
        assert!(out.is_empty());
        pool.map_ordered_into(&[7u64], &mut out, |_, &x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn map_reuses_output_capacity() {
        let pool = ShardPool::new(1);
        let items: Vec<u64> = (0..256).collect();
        let mut out: Vec<u64> = Vec::new();
        pool.map_ordered_into(&items, &mut out, |_, &x| x);
        let cap = out.capacity();
        for _ in 0..4 {
            pool.map_ordered_into(&items, &mut out, |_, &x| x * 2);
            assert_eq!(out.capacity(), cap, "warm buffer must not reallocate");
        }
    }

    #[test]
    fn auto_pool_resolves_to_at_least_one_worker() {
        assert!(ShardPool::new(0).workers() >= 1);
        assert!(ShardPool::default().workers() >= 1);
        assert_eq!(ShardPool::new(3).workers(), 3);
    }
}
