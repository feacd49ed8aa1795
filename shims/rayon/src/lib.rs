//! Offline shim for `rayon`.
//!
//! Implements the slice of rayon's data-parallel API this workspace uses on
//! top of `std::thread::scope`: `par_iter` / `par_iter_mut` / `into_par_iter`
//! on slices, vectors and ranges, `par_chunks` / `par_chunks_mut`, and the
//! `map` / `enumerate` / `for_each` / `collect` adapters.
//!
//! Work distribution is dynamic (an atomic cursor over the item list), so
//! uneven tasks — e.g. federated clients with different local dataset sizes —
//! load-balance across cores just like under real rayon's work stealing.
//! Parallelism is real: closures run on scoped OS threads, one per available
//! core, and panics propagate to the caller exactly as rayon's do.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide thread-count override (0 = unset). Set by
/// [`set_num_threads`]; checked before `RAYON_NUM_THREADS` and
/// `available_parallelism`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for all subsequent parallel operations
/// (real rayon configures this through `ThreadPoolBuilder`; the shim exposes
/// a direct setter). Passing 0 clears the override.
///
/// The determinism sanitizer sweeps this across {1, 2, 4} to prove that
/// trajectories do not depend on the schedule. Changing it mid-run is safe
/// by construction: results land in index-addressed slots regardless of
/// which worker computes them.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Number of worker threads used by parallel operations: the
/// [`set_num_threads`] override if set, else the default pool size.
pub fn current_num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    *DEFAULT_THREADS.get_or_init(default_num_threads)
}

/// The default pool size, read once per process as real rayon does when
/// its global pool starts (`available_parallelism` reads cgroup files, far
/// too slow to repeat on every parallel call).
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// `RAYON_NUM_THREADS` from the environment (matching real rayon's default
/// pool), else the machine's available parallelism.
fn default_num_threads() -> usize {
    if let Ok(value) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

std::thread_local! {
    /// This thread's index among the workers of the parallel call it serves,
    /// or `None` outside the shim's workers.
    ///
    /// Real rayon runs nested parallel calls on its one shared pool; this
    /// shim has no pool, so a nested call from inside a worker (e.g. a
    /// parallel matmul reached from the parallel per-client training loop)
    /// runs serially instead of spawning `workers²` threads and paying a
    /// thread-spawn per inner kernel invocation. The outer loop already
    /// saturates the cores.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The index of the current thread among the workers of the parallel call
/// it runs, or `None` when called outside one — real rayon's
/// `current_thread_index`. Unlike real rayon, a call that runs on one
/// thread spawns no worker, so its items see `None`. A kernel reached from
/// inside a worker can use it to skip splitting work that would run
/// serially anyway.
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

/// Runs `f` over every item, distributing items dynamically across threads.
fn drive<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: F) {
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 || current_thread_index().is_some() {
        items.into_iter().for_each(f);
        return;
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let (slots, cursor, f) = (&slots, &cursor, &f);
    std::thread::scope(|scope| {
        for index in 0..threads {
            scope.spawn(move || {
                WORKER_INDEX.with(|w| w.set(Some(index)));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("worker poisoned a job slot")
                        .take()
                        .expect("each job slot is taken exactly once");
                    f(item);
                }
            });
        }
    });
}

/// Maps every item in parallel, preserving order.
fn drive_map<T: Send, U: Send, F: Fn(T) -> U + Sync>(items: Vec<T>, f: F) -> Vec<U> {
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 || current_thread_index().is_some() {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let (slots, results, cursor, f) = (&slots, &out, &cursor, &f);
    std::thread::scope(|scope| {
        for index in 0..threads {
            scope.spawn(move || {
                WORKER_INDEX.with(|w| w.set(Some(index)));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("worker poisoned a job slot")
                        .take()
                        .expect("each job slot is taken exactly once");
                    let result = f(item);
                    *results[i].lock().expect("worker poisoned a result slot") = Some(result);
                }
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot unpoisoned")
                .expect("every result slot is filled")
        })
        .collect()
}

/// A not-yet-consumed parallel iterator over an ordered list of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pairs every item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Lazily maps every item (runs at `collect` / `for_each` time).
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` over every item on the worker pool.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        drive(self.items, f);
    }

    /// Collects the items (after adapters) into a container.
    pub fn collect<C: FromParallel<T>>(self) -> C {
        C::from_ordered(self.items)
    }
}

/// The result of [`ParIter::map`]: items plus the pending transform.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, U: Send, F: Fn(T) -> U + Sync> ParMap<T, F> {
    /// Applies the map in parallel and collects in input order.
    pub fn collect<C: FromParallel<U>>(self) -> C {
        C::from_ordered(drive_map(self.items, self.f))
    }

    /// Applies the map in parallel, discarding results.
    pub fn for_each<G: Fn(U) + Sync>(self, g: G) {
        let f = self.f;
        drive(self.items, move |t| g(f(t)));
    }
}

/// Containers constructible from an ordered parallel result.
pub trait FromParallel<T> {
    /// Builds the container from items already in order.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T> FromParallel<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items
    }
}

/// `into_par_iter()` for owned collections.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Borrowing parallel iteration over slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> ParIter<&T>;
    /// Parallel iterator over non-overlapping chunks.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync + Send> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

/// Mutably borrowing parallel iteration over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over exclusive references.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    /// Parallel iterator over non-overlapping mutable chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// The glob import every rayon user reaches for.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_writes_every_chunk() {
        let mut v = vec![0usize; 103];
        v.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for x in chunk {
                *x = i;
            }
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[99], 9);
        assert_eq!(v[102], 10);
    }

    #[test]
    fn par_iter_mut_touches_every_item() {
        let mut v = vec![1i64; 64];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn range_par_iter_collects() {
        let squares: Vec<usize> = (0..50usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[7], 49);
        assert_eq!(squares.len(), 50);
    }

    #[test]
    fn uneven_workloads_complete() {
        let work: Vec<usize> = (0..37).collect();
        let out: Vec<usize> = work
            .into_par_iter()
            .map(|i| {
                // Simulate uneven task cost.
                let mut acc = 0usize;
                for j in 0..(i * 1000) {
                    acc = acc.wrapping_add(j);
                }
                std::hint::black_box(acc);
                i
            })
            .collect();
        assert_eq!(out, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_calls_run_serially_and_correctly() {
        // An inner parallel map inside a worker must not explode the thread
        // count — and must still produce correct, ordered results.
        let outer: Vec<usize> = (0..8).collect();
        let results: Vec<Vec<usize>> = outer
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..16usize).collect();
                inner.into_par_iter().map(move |j| i * 100 + j).collect()
            })
            .collect();
        for (i, inner) in results.iter().enumerate() {
            assert_eq!(inner.len(), 16);
            assert_eq!(inner[0], i * 100);
            assert_eq!(inner[15], i * 100 + 15);
        }
    }

    /// Serialises the tests that set the process-wide thread count.
    static THREAD_COUNT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn thread_override_is_respected_and_results_stay_ordered() {
        let _serial = THREAD_COUNT.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2, 4] {
            crate::set_num_threads(threads);
            assert_eq!(crate::current_num_threads(), threads);
            let v: Vec<usize> = (0..101).collect();
            let out: Vec<usize> = v.into_par_iter().map(|x| x + 1).collect();
            assert_eq!(out, (1..102).collect::<Vec<_>>());
        }
        crate::set_num_threads(0);
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn clearing_the_override_restores_the_default_count() {
        let _serial = THREAD_COUNT.lock().unwrap_or_else(|e| e.into_inner());
        let default = crate::current_num_threads();
        assert!(default >= 1);
        crate::set_num_threads(default + 3);
        assert_eq!(crate::current_num_threads(), default + 3);
        crate::set_num_threads(0);
        assert_eq!(crate::current_num_threads(), default);
    }

    #[test]
    fn current_thread_index_names_the_worker() {
        let _serial = THREAD_COUNT.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_num_threads(2);
        assert_eq!(crate::current_thread_index(), None);
        let v: Vec<usize> = (0..16).collect();
        let indices: Vec<Option<usize>> = v
            .par_iter()
            .map(|_| crate::current_thread_index())
            .collect();
        assert_eq!(crate::current_thread_index(), None);
        crate::set_num_threads(0);
        for index in indices {
            assert!(matches!(index, Some(i) if i < 2), "{index:?}");
        }
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let v: Vec<usize> = (0..16).collect();
        v.into_par_iter().for_each(|i| {
            if i == 7 {
                panic!("boom");
            }
        });
    }
}
