//! Shared batched worker pool (work-stealing over fixed chunks).
//!
//! Pipeline stages — pairwise inference first and foremost — process long
//! slices of independent items. Splitting such a slice into one contiguous
//! chunk per thread serializes the whole run on the slowest chunk when per
//! item cost is skewed (e.g. candidate pairs of long, identifier-heavy
//! records cost several times more to featurize than short ones). The
//! [`WorkerPool`] instead cuts the input into *fixed-size* chunks and lets
//! workers pull the next unclaimed chunk from a shared atomic cursor, so a
//! worker that finishes early steals remaining work instead of idling.
//!
//! Output order always matches input order: workers tag each produced chunk
//! with its index and the pool reassembles them.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many worker threads a parallel step should use.
///
/// `Auto` applies the small-input heuristic (below
/// [`SEQUENTIAL_CUTOFF`] items the fixed cost of spawning scoped threads
/// exceeds the work itself, so the step runs sequentially). `Fixed(n)` is an
/// explicit override and is honored *regardless of input size* — callers
/// that measured their workload can force parallelism where the heuristic
/// would decline it, or force `Fixed(1)` for deterministic profiling.
///
/// The incremental apply path sizes every pool by the **batch's record
/// count**, not by the live population or the records a batch reaches: a
/// delta batch of a few records runs on the writer's one core (two
/// workers measured no faster there, and they would take the core the
/// concurrent lookups are served from), while a bootstrap or a shard's
/// first full block — one insert-only batch of every record — fans out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Pick a worker count from `std::thread::available_parallelism`,
    /// falling back to sequential for small inputs.
    #[default]
    Auto,
    /// Exactly this many workers (minimum 1), even for small inputs.
    Fixed(usize),
}

/// Inputs shorter than this run sequentially under [`Parallelism::Auto`].
///
/// The value is the break-even point measured for pairwise scoring: below
/// ~1K pairs, thread spawn + join overhead (tens of microseconds per
/// thread) dominates the per-pair scoring cost. On the incremental apply
/// path the item count is the batch's record count (see [`Parallelism`]),
/// so every delta batch below this size runs on one thread.
pub const SEQUENTIAL_CUTOFF: usize = 1024;

/// Default number of items per stealable work chunk.
///
/// Small enough that skewed chunks rebalance (a slice of 1M pairs yields
/// ~1000 steal opportunities), large enough that cursor contention is
/// negligible.
pub const DEFAULT_CHUNK_SIZE: usize = 1024;

impl Parallelism {
    /// Resolve to a concrete worker count for an input of `num_items`.
    pub fn worker_count(&self, num_items: usize) -> usize {
        match self {
            Parallelism::Fixed(n) => (*n).max(1),
            Parallelism::Auto => {
                if num_items < SEQUENTIAL_CUTOFF {
                    1
                } else {
                    std::thread::available_parallelism().map_or(4, |n| n.get())
                }
            }
        }
    }

    /// A pool sized for an input of `num_items`.
    pub fn pool_for(&self, num_items: usize) -> WorkerPool {
        WorkerPool::new(self.worker_count(num_items))
    }
}

/// A batched map executor shared by pipeline stages.
///
/// The pool is a cheap value (two integers); "shared" means all stages of a
/// pipeline run size their parallel steps through the same pool instance,
/// not that OS threads persist between calls — each [`WorkerPool::map`]
/// spawns scoped workers and joins them before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
    chunk_size: usize,
}

impl WorkerPool {
    /// Pool with `workers` threads (minimum 1) and the default chunk size.
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// Override the steal-chunk size (minimum 1).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Number of worker threads `map` will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Map `f` over `items`, preserving input order in the output.
    ///
    /// Runs sequentially when the pool has one worker or the input fits in
    /// a single chunk; otherwise workers steal fixed-size chunks from a
    /// shared cursor until the input is drained. `f` must be pure with
    /// respect to ordering: it receives items in an unspecified schedule.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.map_init(items, || (), move |(), item| f(item))
    }

    /// Like [`WorkerPool::map`], but each worker thread builds one scratch
    /// state with `init` and reuses it across every chunk it steals —
    /// `f(&mut state, item)` can keep allocations (hash maps, buffers)
    /// alive for the whole run instead of paying per item. Output order
    /// matches input order; the per-worker states are dropped at the end,
    /// so `f` must fold everything it wants to keep into its return value.
    pub fn map_init<T, U, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> U + Sync,
    {
        self.filter_map_init(items, init, move |state, item| Some(f(state, item)))
    }

    /// Run `f(worker_index)` once on each of the pool's workers
    /// concurrently and collect the results in worker order.
    ///
    /// Where [`WorkerPool::map`] splits one input across workers,
    /// `broadcast` gives every worker the *same* long-running job — the
    /// shape of serving threads and closed-loop load clients, where each
    /// worker owns a loop over shared state rather than a slice of items.
    /// With a single worker the closure runs on the calling thread.
    pub fn broadcast<U, F>(&self, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if self.workers == 1 {
            return vec![f(0)];
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|index| scope.spawn(move || f(index)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("broadcast worker panicked"))
                .collect()
        })
    }

    /// [`WorkerPool::map_init`] with a pool-side filter: items mapped to
    /// `None` never allocate an output slot — workers drop them inside
    /// their chunks instead of materializing a full-width intermediate
    /// vector for the caller to filter. The surviving items keep input
    /// order. This is the shape of threshold scoring, where the
    /// overwhelming majority of candidate pairs are negative.
    pub fn filter_map_init<T, U, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> Option<U> + Sync,
    {
        if self.workers == 1 || items.len() < 2 {
            let mut state = init();
            return items
                .iter()
                .filter_map(|item| f(&mut state, item))
                .collect();
        }

        // Honor multi-worker pools even for inputs smaller than the default
        // chunk: shrink chunks until every worker can claim at least one
        // (an explicit `Parallelism::Fixed(n)` must actually parallelize).
        let chunk_size = self
            .chunk_size
            .min(items.len().div_ceil(self.workers))
            .max(1);
        let num_chunks = items.len().div_ceil(chunk_size);
        let workers = self.workers.min(num_chunks);
        let cursor = AtomicUsize::new(0);
        let f = &f;
        let init = &init;

        let mut tagged: Vec<(usize, Vec<U>)> = Vec::with_capacity(num_chunks);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let cursor = &cursor;
                handles.push(scope.spawn(move || {
                    let mut state = init();
                    let mut produced: Vec<(usize, Vec<U>)> = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= num_chunks {
                            return produced;
                        }
                        let start = index * chunk_size;
                        let end = (start + chunk_size).min(items.len());
                        produced.push((
                            index,
                            items[start..end]
                                .iter()
                                .filter_map(|item| f(&mut state, item))
                                .collect(),
                        ));
                    }
                }));
            }
            for handle in handles {
                tagged.extend(handle.join().expect("worker panicked"));
            }
        });

        tagged.sort_unstable_by_key(|(index, _)| *index);
        let mut out = Vec::with_capacity(tagged.iter().map(|(_, chunk)| chunk.len()).sum());
        for (_, chunk) in tagged {
            out.extend(chunk);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 4, 7] {
            let pool = WorkerPool::new(workers).with_chunk_size(256);
            assert_eq!(
                pool.map(&items, |x| x * 3 + 1),
                expected,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn skewed_costs_still_ordered() {
        // Early items are much slower; stealing must not scramble output.
        let items: Vec<usize> = (0..4_096).collect();
        let pool = WorkerPool::new(4).with_chunk_size(64);
        let out = pool.map(&items, |&i| {
            if i < 64 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = WorkerPool::new(8);
        assert!(pool.map(&[] as &[u32], |&x| x).is_empty());
        assert_eq!(pool.map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn auto_parallelism_heuristic() {
        assert_eq!(Parallelism::Auto.worker_count(SEQUENTIAL_CUTOFF - 1), 1);
        assert!(Parallelism::Auto.worker_count(SEQUENTIAL_CUTOFF) >= 1);
    }

    #[test]
    fn fixed_overrides_small_inputs() {
        // The explicit override is honored even below the cutoff.
        assert_eq!(Parallelism::Fixed(3).worker_count(10), 3);
        assert_eq!(Parallelism::Fixed(0).worker_count(10), 1);
    }

    #[test]
    fn map_init_reuses_state_within_workers() {
        // The scratch buffer must survive across chunks: count how many
        // items each state instance saw — total must equal the input size,
        // and with 4 workers at most 4 states are ever built.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let states = AtomicUsize::new(0);
        let items: Vec<u64> = (0..10_000).collect();
        let pool = WorkerPool::new(4).with_chunk_size(128);
        let out = pool.map_init(
            &items,
            || {
                states.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |scratch, &x| {
                scratch.clear();
                scratch.push(x);
                scratch[0] * 2
            },
        );
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert!(states.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn filter_map_init_drops_and_keeps_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().copied().filter(|x| x % 3 == 0).collect();
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers).with_chunk_size(128);
            let out = pool.filter_map_init(&items, || (), |(), &x| (x % 3 == 0).then_some(x));
            assert_eq!(out, expected, "{workers} workers");
        }
        // All-dropped and all-kept edges.
        let pool = WorkerPool::new(4).with_chunk_size(64);
        assert!(pool
            .filter_map_init(&items, || (), |(), _| None::<u64>)
            .is_empty());
        assert_eq!(pool.filter_map_init(&items, || (), |(), &x| Some(x)), items);
    }

    #[test]
    fn map_init_sequential_single_state() {
        let items: Vec<u32> = (0..10).collect();
        let pool = WorkerPool::new(1);
        // The sequential path threads one state through all items.
        let out = pool.map_init(
            &items,
            || 0u32,
            |seen, &x| {
                *seen += 1;
                (x, *seen)
            },
        );
        assert_eq!(out.last(), Some(&(9, 10)));
    }

    #[test]
    fn broadcast_runs_every_worker_once() {
        let pool = WorkerPool::new(4);
        let mut out = pool.broadcast(|index| index * 10);
        out.sort_unstable();
        assert_eq!(out, vec![0, 10, 20, 30]);
        // Single-worker pools run inline.
        assert_eq!(WorkerPool::new(1).broadcast(|index| index + 7), vec![7]);
    }

    #[test]
    fn broadcast_workers_share_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let pool = WorkerPool::new(3);
        pool.broadcast(|_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pool_is_shared_value() {
        let pool = Parallelism::Fixed(2).pool_for(10);
        assert_eq!(pool.workers(), 2);
        let a = pool.map(&[1, 2, 3], |&x: &i32| x);
        let b = pool.map(&[4, 5], |&x: &i32| x * 2);
        assert_eq!((a, b), (vec![1, 2, 3], vec![8, 10]));
    }
}
