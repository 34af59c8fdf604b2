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
//! (a slice or a `Range<usize>`). A terminal operation splits the index range
//! into at most `current_num_threads()` contiguous chunks, maps them on
//! scoped threads, and then combines the **order-preserved** per-element
//! results serially. Two consequences the optimizer relies on:
//!
//! 1. **Determinism by construction** — because the combine step is a serial
//!    left-to-right pass over results in source order, every terminal
//!    operation returns *bit-identical* values for any thread count
//!    (including 1). Floating-point sums and collected vectors cannot depend
//!    on scheduling. This is the contract behind
//!    `CmmfConfig::threads` and the `deterministic_given_seed` tests.
//! 2. **No nested oversubscription** — a parallel call made from inside a
//!    worker chunk runs serially (a thread-local flag marks pool workers), so
//!    a parallel map nested in another never multiplies the thread count.
//!
//! Threads are spawned per terminal operation rather than kept in a
//! work-stealing pool. A spawning call costs about 40–50 µs on a 2-vCPU
//! x86-64 host, more when the cores are busy. A Table-I optimizer step
//! (10–25 ms of GP fitting, prediction and Monte-Carlo scoring) makes about
//! ten such calls, so there spawns cost a few percent. They matter when the
//! work per call is small or every core is already busy: a quick daemon
//! session makes about 70 spawning calls, and with several sessions running
//! at once a spawn buys no parallelism, only contention. Callers in that
//! position run at fewer threads (the `cmmf-serve` daemon divides the cores
//! among the sessions running when a session starts); `with_min_len` guards
//! the fine-grained calls.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// Set while this thread is executing a chunk of a parallel operation;
    /// nested parallel calls then run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of threads a parallel operation started *now* on this thread would
/// use: 1 inside a worker chunk, otherwise the innermost
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
        let prev = LOCAL_THREADS.with(|c| c.replace(self.n));
        let out = f();
        LOCAL_THREADS.with(|c| c.set(prev));
        out
    }

    /// This pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.n
    }
}

// --------------------------------------------------------------------------
// The executor
// --------------------------------------------------------------------------

/// Maps `0..len` through `f` into a `Vec` in index order, splitting across at
/// most `current_num_threads()` scoped threads with at least `min_len` indices
/// per chunk. The building block for every adapter below.
fn par_map_indices<R: Send>(len: usize, min_len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads().min(len / min_len.max(1)).max(1);
    if threads == 1 || len <= 1 {
        let was = IN_WORKER.with(|c| c.replace(true));
        let out = (0..len).map(f).collect();
        IN_WORKER.with(|c| c.set(was));
        return out;
    }

    // Contiguous chunk per thread, sized within one index of each other.
    let base = len / threads;
    let extra = len % threads;
    let mut bounds = Vec::with_capacity(threads + 1);
    let mut acc = 0;
    bounds.push(0);
    for t in 0..threads {
        acc += base + usize::from(t < extra);
        bounds.push(acc);
    }

    let run_chunk = |range: Range<usize>| -> Vec<R> {
        let was = IN_WORKER.with(|c| c.replace(true));
        let out = range.map(&f).collect();
        IN_WORKER.with(|c| c.set(was));
        out
    };

    let mut chunks: Vec<Vec<R>> = Vec::with_capacity(threads);
    let run_chunk = &run_chunk;
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .skip(1)
            .map(|w| {
                let (lo, hi) = (w[0], w[1]);
                scope.spawn(move || run_chunk(lo..hi))
            })
            .collect();
        // The calling thread takes the first chunk.
        chunks.push(run_chunk(bounds[0]..bounds[1]));
        for h in handles {
            // cmmf-lint: allow(P1) -- re-raising a worker's panic on the calling thread is join's contract; swallowing it would silently drop a chunk of results
            chunks.push(h.join().expect("parallel worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(len);
    for c in chunks {
        out.extend(c);
    }
    out
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
    /// Requires at least `n` items per worker chunk (caps the fan-out for
    /// fine-grained work).
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
    /// Requires at least `n` items per worker chunk.
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
}
