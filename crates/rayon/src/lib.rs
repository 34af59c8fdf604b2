#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Offline, API-compatible subset of `rayon` — the workspace's parallel
//! execution layer.
//!
//! The build environment has no crates.io access, so this crate provides the
//! `rayon` call-site API the optimization stack uses (`par_iter`,
//! `into_par_iter`, `par_chunks`, `with_min_len`, `map`, `collect`, `sum`,
//! `ThreadPoolBuilder`, `ThreadPool::install`, `current_num_threads`) on top of
//! `std::thread::scope`. Swapping the real `rayon` back in later is a
//! one-line `Cargo.toml` change at unchanged call sites.
//!
//! # Execution model
//!
//! Every parallel pipeline is **index-based over a fixed-length source**
//! (a slice or a `Range<usize>`). A terminal operation runs on at most
//! `current_num_threads()` scoped threads, the caller among them, which
//! **claim runs of indices from one shared cursor** until none is left:
//! about eight claims per thread, none shorter than `with_min_len`. A thread
//! that starts late or runs on a slower core simply takes fewer claims. The
//! claims are then put back in index order and the **order-preserved**
//! per-element results combined serially. Two consequences the optimizer
//! relies on:
//!
//! 1. **Determinism by construction** — which thread maps which claim
//!    depends on timing, but the combine step is a serial left-to-right pass
//!    over results in source order, so every terminal operation returns
//!    *bit-identical* values for any thread count (including 1).
//!    Floating-point sums and collected vectors cannot depend on scheduling.
//!    This is the contract behind `CmmfConfig::threads` and the
//!    `deterministic_given_seed` tests.
//! 2. **No nested oversubscription** — a parallel call made from inside a
//!    worker runs serially (a thread-local flag marks pool workers), so a
//!    parallel map nested in another never multiplies the thread count.
//!
//! Both thread-locals (that flag and [`ThreadPool::install`]'s count) are
//! restored when a panic unwinds through a parallel call or `install`, so a
//! thread that catches the panic goes on at its own thread count; a worker's
//! panic is re-raised on the caller.
//!
//! Threads are spawned per terminal operation: a pool that outlives the call
//! would have to run borrowed closures on `'static` threads, which needs
//! `unsafe`. On a 2-vCPU x86-64 host a call with about 1 ms of work costs its
//! caller 29–43 µs to spawn the helper, which starts 75–99 µs after the call
//! and whose exit takes 54–90 µs more to reach the join; with a fixed share
//! per thread the caller then waited 130–160 µs for it, longer when the two
//! vCPUs ran at different speeds. Claims take the uneven start and speed out
//! of that wait, and callers make few, large calls: the fidelity chain and
//! the optimizer's candidate pools take one map per pass, over pieces that
//! each climb the whole chain on one thread. When every core is already busy
//! a spawn buys only contention, so such callers run at fewer threads (the
//! `cmmf-serve` daemon divides the cores among the sessions running when a
//! session starts); `with_min_len` guards the fine-grained calls.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::LocalKey;

/// Everything needed at a `rayon` call site.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMethods};
}

// --------------------------------------------------------------------------
// Thread-count control
// --------------------------------------------------------------------------

/// Global default set by [`ThreadPoolBuilder::build_global`] (0 = unset).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`] (0 = unset).
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Set while this thread is mapping claims of a parallel operation;
    /// nested parallel calls then run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of threads a parallel operation started *now* on this thread would
/// use: 1 inside a worker, otherwise the innermost
/// [`ThreadPool::install`] override, the [`ThreadPoolBuilder::build_global`]
/// default, or the hardware parallelism.
pub fn current_num_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let local = LOCAL_THREADS.with(Cell::get);
    if local != 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global != 0 {
        return global;
    }
    hardware_threads()
}

/// The hardware parallelism (`std::thread::available_parallelism`), at least 1.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Error from [`ThreadPoolBuilder::build`]. The offline shim cannot fail; the
/// type exists for call-site compatibility with real `rayon`.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (all hardware threads).
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the pool at `n` threads; 0 means all hardware threads.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds a pool handle.
    ///
    /// # Errors
    ///
    /// Never fails in this shim; the `Result` mirrors real `rayon`.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            hardware_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { n })
    }

    /// Sets the process-wide default thread count.
    ///
    /// # Errors
    ///
    /// Never fails in this shim; the `Result` mirrors real `rayon`.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// A handle fixing the thread count for closures run through
/// [`ThreadPool::install`]. This shim spawns scoped threads per operation, so
/// the handle carries only the count.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    n: usize,
}

impl ThreadPool {
    /// Runs `f` with parallel operations capped at this pool's thread count.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _count = Restore::set(&LOCAL_THREADS, self.n);
        f()
    }

    /// This pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.n
    }
}

// --------------------------------------------------------------------------
// The executor
// --------------------------------------------------------------------------

/// Sets a thread-local to a value until dropped, then puts back what it
/// held: on a normal return and when a panic unwinds through the scope alike.
struct Restore<T: Copy + 'static>(&'static LocalKey<Cell<T>>, T);

impl<T: Copy + 'static> Restore<T> {
    fn set(key: &'static LocalKey<Cell<T>>, value: T) -> Self {
        Restore(key, key.with(|c| c.replace(value)))
    }
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        // `try_with` fails only while the thread's locals are being torn
        // down, when there is nothing left to restore.
        let _ = self.0.try_with(|c| c.set(self.1));
    }
}

/// Maps `0..len` through `f` into a `Vec` in index order on at most
/// `current_num_threads()` scoped threads, each with at least `min_len`
/// indices of work: every thread, the caller included, claims the next run of
/// indices from one cursor until none is left, and the claims are put back in
/// index order. The building block for every adapter below.
fn par_map_indices<R: Send>(len: usize, min_len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads().min(len / min_len.max(1)).max(1);
    if threads == 1 || len <= 1 {
        let _worker = Restore::set(&IN_WORKER, true);
        return (0..len).map(f).collect();
    }

    // About eight claims per thread, so the threads finish within a claim of
    // one another, and none shorter than `min_len`.
    let claim = min_len.max(len.div_ceil(8 * threads));
    let n_claims = len.div_ceil(claim);
    // The cursor publishes no data (each claim's results travel back through
    // the join), so `Relaxed` suffices: the read-modify-write alone makes
    // every claim number unique.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let _worker = Restore::set(&IN_WORKER, true);
        let mut claimed = Vec::new();
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= n_claims {
                return claimed;
            }
            let lo = k * claim;
            claimed.push((lo, (lo..len.min(lo + claim)).map(&f).collect::<Vec<R>>()));
        }
    };

    let mut claims = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut claims = work();
        for h in helpers {
            // cmmf-lint: allow(P1) -- re-raising a worker's panic on the calling thread is join's contract; swallowing it would silently drop a chunk of results
            claims.extend(h.join().expect("parallel worker panicked"));
        }
        claims
    });
    claims.sort_unstable_by_key(|&(lo, _)| lo);
    claims.into_iter().flat_map(|(_, c)| c).collect()
}

// --------------------------------------------------------------------------
// Sources
// --------------------------------------------------------------------------

/// A fixed-length random-access source of items (slice or index range).
pub trait Source {
    /// Item yielded per index.
    type Item;

    /// Number of items.
    fn len(&self) -> usize;

    /// Whether the source yields no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The item at `i` (`i < self.len()`).
    fn get(&self, i: usize) -> Self::Item;
}

/// Source over `&[T]`, yielding `&T`.
pub struct SliceSource<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Source for SliceSource<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn get(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// Source over `Range<usize>`, yielding `usize`.
pub struct RangeSource {
    start: usize,
    len: usize,
}

impl Source for RangeSource {
    type Item = usize;

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> usize {
        self.start + i
    }
}

/// Source over chunks of a slice, yielding `&[T]`.
pub struct ChunksSource<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> Source for ChunksSource<'a, T> {
    type Item = &'a [T];

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn get(&self, i: usize) -> &'a [T] {
        let lo = i * self.chunk;
        let hi = (lo + self.chunk).min(self.slice.len());
        &self.slice[lo..hi]
    }
}

// --------------------------------------------------------------------------
// Entry points: par_iter / into_par_iter / par_chunks
// --------------------------------------------------------------------------

/// `.par_iter()` on slices (and anything that derefs to a slice).
pub trait ParallelSlice<T: Sync> {
    /// A parallel iterator over references to the elements.
    fn par_iter(&self) -> ParIter<SliceSource<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<SliceSource<'_, T>> {
        ParIter {
            source: SliceSource { slice: self },
            min_len: 1,
        }
    }
}

impl<T: Sync> ParallelSlice<T> for Vec<T> {
    fn par_iter(&self) -> ParIter<SliceSource<'_, T>> {
        self.as_slice().par_iter()
    }
}

/// `.par_chunks(n)` on slices.
pub trait ParallelSliceMethods<T: Sync> {
    /// A parallel iterator over contiguous chunks of at most `chunk` elements.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    fn par_chunks(&self, chunk: usize) -> ParIter<ChunksSource<'_, T>>;
}

impl<T: Sync> ParallelSliceMethods<T> for [T] {
    fn par_chunks(&self, chunk: usize) -> ParIter<ChunksSource<'_, T>> {
        assert!(chunk > 0, "chunk size must be non-zero");
        ParIter {
            source: ChunksSource { slice: self, chunk },
            min_len: 1,
        }
    }
}

/// `.into_par_iter()` on index ranges.
pub trait IntoParallelIterator {
    /// The source the parallel iterator draws from.
    type Source: Source;

    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Source>;
}

impl IntoParallelIterator for Range<usize> {
    type Source = RangeSource;

    fn into_par_iter(self) -> ParIter<RangeSource> {
        ParIter {
            source: RangeSource {
                start: self.start,
                len: self.end.saturating_sub(self.start),
            },
            min_len: 1,
        }
    }
}

// --------------------------------------------------------------------------
// Adapters and terminal operations
// --------------------------------------------------------------------------

/// A parallel iterator over a [`Source`], optionally mapped. Terminal
/// operations materialize per-element results in source order and combine
/// them serially (see the crate docs for why).
pub struct ParIter<S> {
    source: S,
    min_len: usize,
}

/// A mapped parallel iterator.
pub struct MapIter<S, F> {
    source: S,
    f: F,
    min_len: usize,
}

impl<S: Source + Sync> ParIter<S>
where
    S::Item: Send,
{
    /// Requires at least `n` items per claim, and per thread (caps the
    /// fan-out for fine-grained work).
    pub fn with_min_len(mut self, n: usize) -> Self {
        self.min_len = n.max(1);
        self
    }

    /// Maps every item through `f`.
    pub fn map<R, F: Fn(S::Item) -> R + Sync>(self, f: F) -> MapIter<S, F> {
        MapIter {
            source: self.source,
            f,
            min_len: self.min_len,
        }
    }
}

impl<S: Source + Sync, R: Send, F: Fn(S::Item) -> R + Sync> MapIter<S, F> {
    /// Requires at least `n` items per claim, and per thread.
    pub fn with_min_len(mut self, n: usize) -> Self {
        self.min_len = n.max(1);
        self
    }

    /// Materializes all mapped items in source order.
    fn run(self) -> Vec<R> {
        let src = &self.source;
        let f = &self.f;
        par_map_indices(src.len(), self.min_len, |i| f(src.get(i)))
    }

    /// Collects into `C` preserving source order. Supports `Vec<R>` and
    /// `Result<Vec<T>, E>` (short-circuiting on the first error *in source
    /// order*, after the parallel map).
    pub fn collect<C: FromParallelMap<R>>(self) -> C {
        C::from_ordered(self.run())
    }

    /// Sums the mapped items **in source order** (bit-identical for any
    /// thread count).
    pub fn sum<T>(self) -> T
    where
        T: std::iter::Sum<R>,
    {
        self.run().into_iter().sum()
    }
}

/// Collection targets for [`MapIter::collect`].
pub trait FromParallelMap<R>: Sized {
    /// Builds the collection from items in source order.
    fn from_ordered(items: Vec<R>) -> Self;
}

impl<R> FromParallelMap<R> for Vec<R> {
    fn from_ordered(items: Vec<R>) -> Self {
        items
    }
}

impl<T, E> FromParallelMap<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Marker trait so generic code can name "any parallel iterator" in bounds;
/// the concrete adapters above carry the real API.
pub trait ParallelIterator {}
impl<S> ParallelIterator for ParIter<S> {}
impl<S, F> ParallelIterator for MapIter<S, F> {}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_into_par_iter() {
        let squares: Vec<usize> = (5..20).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, (5..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sum_is_bit_identical_across_thread_counts() {
        let v: Vec<f64> = (0..10_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let serial: f64 = ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| v.par_iter().map(|&x| x.sin()).sum());
        for n in [2, 3, 8] {
            let parallel: f64 = ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
                .install(|| v.par_iter().map(|&x| x.sin()).sum());
            assert_eq!(serial.to_bits(), parallel.to_bits(), "n={n}");
        }
    }

    #[test]
    fn collect_result_short_circuits_in_order() {
        let v: Vec<usize> = (0..100).collect();
        let r: Result<Vec<usize>, usize> = v
            .par_iter()
            .map(|&x| if x % 30 == 29 { Err(x) } else { Ok(x) })
            .collect();
        assert_eq!(r, Err(29));
        let ok: Result<Vec<usize>, usize> = v.par_iter().map(|&x| Ok::<_, usize>(x)).collect();
        assert_eq!(ok.unwrap().len(), 100);
    }

    #[test]
    fn par_chunks_cover_everything_once() {
        let v: Vec<usize> = (0..103).collect();
        let sums: Vec<usize> = v.par_chunks(10).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.iter().sum::<usize>(), (0..103).sum::<usize>());
    }

    #[test]
    fn nested_parallelism_runs_serially() {
        let outer: Vec<usize> = (0..8)
            .into_par_iter()
            .map(|i| {
                // Inside a worker chunk this must not spawn again.
                assert_eq!(current_num_threads(), 1);
                (0..100).into_par_iter().map(|j| i + j).sum::<usize>()
            })
            .collect();
        assert_eq!(outer.len(), 8);
    }

    #[test]
    fn install_scopes_the_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let outside = current_num_threads();
        pool.install(|| assert_eq!(current_num_threads(), 3));
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn with_min_len_caps_fanout_without_changing_results() {
        let v: Vec<usize> = (0..50).collect();
        let a: Vec<usize> = v.par_iter().map(|&x| x + 1).collect();
        let b: Vec<usize> = v.par_iter().with_min_len(64).map(|&x| x + 1).collect();
        assert_eq!(a, b);
    }

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the shim's builder cannot fail")
    }

    #[test]
    fn every_index_is_mapped_once_in_source_order() {
        // Every fan-out and claim size a small map can get: each index is
        // mapped exactly once, results come back in source order, and an
        // ordered sum keeps the serial sum's bits.
        let term = |i: usize| 1.0 / (i as f64 + 1.0);
        for threads in 1..=7 {
            pool(threads).install(|| {
                for len in 0..=70 {
                    let serial: f64 = (0..len).map(term).sum();
                    for min_len in 1..=9 {
                        let label = format!("threads={threads} len={len} min_len={min_len}");
                        let calls: Vec<AtomicUsize> =
                            (0..len).map(|_| AtomicUsize::new(0)).collect();
                        let out: Vec<usize> = (0..len)
                            .into_par_iter()
                            .with_min_len(min_len)
                            .map(|i| {
                                calls[i].fetch_add(1, Ordering::Relaxed);
                                i
                            })
                            .collect();
                        assert_eq!(out, (0..len).collect::<Vec<_>>(), "{label}");
                        for (i, c) in calls.iter().enumerate() {
                            assert_eq!(c.load(Ordering::Relaxed), 1, "{label} index {i}");
                        }
                        let sum: f64 = (0..len)
                            .into_par_iter()
                            .with_min_len(min_len)
                            .map(term)
                            .sum();
                        assert_eq!(sum.to_bits(), serial.to_bits(), "{label}");
                    }
                }
            });
        }
    }

    #[test]
    fn a_stalled_claim_does_not_hold_back_the_others() {
        // Index 0 waits until every other index has run. A thread holding a
        // fixed half of the range would hold indices 1–7 behind it and the
        // wait would time out; the other thread must be able to take them.
        const LEN: usize = 16;
        let others_done = AtomicUsize::new(0);
        let timed_out = AtomicBool::new(false);
        pool(2).install(|| {
            (0..LEN)
                .into_par_iter()
                .with_min_len(1)
                .map(|i| {
                    if i > 0 {
                        others_done.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                    // A test's timeout, off every result path (cmmf-lint D2
                    // spares tests).
                    #[allow(clippy::disallowed_methods)]
                    let waiting = Instant::now();
                    while others_done.load(Ordering::SeqCst) < LEN - 1 {
                        if waiting.elapsed() > Duration::from_secs(10) {
                            timed_out.store(true, Ordering::SeqCst);
                            return;
                        }
                        std::thread::yield_now();
                    }
                })
                .collect::<Vec<()>>()
        });
        assert!(
            !timed_out.load(Ordering::SeqCst),
            "index 0 waited 10 s for indices it held back"
        );
        assert_eq!(others_done.load(Ordering::SeqCst), LEN - 1);
    }

    #[test]
    fn a_panicking_index_re_raises_on_the_caller() {
        for threads in [1, 3] {
            let result = std::panic::catch_unwind(|| {
                pool(threads).install(|| {
                    (0..64)
                        .into_par_iter()
                        .map(|i| {
                            if i == 37 {
                                panic!("index 37 panics")
                            } else {
                                i
                            }
                        })
                        .collect::<Vec<usize>>()
                })
            });
            assert!(result.is_err(), "threads={threads}: the panic was lost");
        }
    }

    #[test]
    fn a_caught_panic_leaves_the_thread_counts_as_they_were() {
        // A daemon worker catches a session's panic and runs the next
        // session on the same thread, which must still see its thread count.
        let before = current_num_threads();
        for threads in [1, 2] {
            let result = std::panic::catch_unwind(|| {
                pool(threads).install(|| {
                    (0..16)
                        .into_par_iter()
                        .map(|_| -> usize { panic!("every index panics") })
                        .collect::<Vec<usize>>()
                })
            });
            assert!(result.is_err(), "threads={threads}: the panic was lost");
            assert_eq!(current_num_threads(), before, "after a map at {threads}");
            assert_eq!(
                pool(2).install(current_num_threads),
                2,
                "after a map at {threads}"
            );
        }
        let result = std::panic::catch_unwind(|| pool(3).install(|| panic!("install panics")));
        assert!(result.is_err(), "the panic in install was lost");
        assert_eq!(current_num_threads(), before, "after install");
        assert_eq!(pool(2).install(current_num_threads), 2, "after install");
    }
}
