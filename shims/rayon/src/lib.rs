//! Offline stand-in for the `rayon` crate.
//!
//! The simulated-GPU crate drives block execution through
//! `into_par_iter().for_each(..)` and the primitives use `par_iter` /
//! `par_chunks` adapter chains. This shim keeps the exact call-site API.
//! Adapter chains (`map`, `fold`, `reduce`, ...) run sequentially, since
//! they delegate to `Iterator`. Only the terminal `for_each` runs in
//! parallel, on one process-global pool, as real rayon's does:
//!
//! - `available_parallelism() - 1` workers start on first use and park on
//!   a condition variable between calls. The calling thread works too.
//! - Items are claimed in chunks through one atomic cursor. A call is cut
//!   into about eight chunks per thread, so a launch of thousands of
//!   blocks costs a few dozen claims, not thousands.
//! - The caller posts the job, runs chunks itself, and retracts the job
//!   when none is left. It then waits only for the workers that joined.
//! - A call runs inline on the calling thread when the pool is already
//!   held: a `for_each` nested inside an item, or one made by another
//!   thread while a call is in flight. One-item calls and one-core hosts
//!   run inline as well.
//! - A panicking item is caught and the call drains. The panic is then
//!   resumed on the caller with its original payload, and the pool keeps
//!   serving later calls.
//!
//! The pool lives here rather than in the device crate because the
//! benchmark package's lock file pins `rayon` as a dependency of
//! `spbla-core`, `spbla-generic` and `spbla-gpu-sim`.

use std::any::Any;
use std::cell::UnsafeCell;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Chunks per thread a parallel call is cut into: enough for the caller
/// and the workers to even out uneven items, few enough that claiming
/// stays cheap on launches of thousands of blocks.
const CHUNKS_PER_THREAD: usize = 8;

/// Number of threads parallel sections use (the pool's workers plus the
/// caller), matching `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    pool().width
}

/// A "parallel" iterator: wraps a sequential iterator, delegates the whole
/// `Iterator` vocabulary, and parallelises the terminal `for_each`.
pub struct Par<I> {
    inner: I,
}

impl<I: Iterator> Iterator for Par<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<I: Iterator> Par<I> {
    /// Indexed variant that keeps the parallel `for_each` available.
    pub fn enumerate(self) -> Par<std::iter::Enumerate<I>> {
        Par {
            inner: self.inner.enumerate(),
        }
    }

    /// Mapping adapter that stays a parallel iterator, so rayon-only
    /// terminals (`reduce`, parallel `for_each`) remain reachable after it.
    pub fn map<T, F: FnMut(I::Item) -> T>(self, f: F) -> Par<std::iter::Map<I, F>> {
        Par {
            inner: self.inner.map(f),
        }
    }

    /// Rayon-style identity-plus-operator reduction.
    pub fn reduce<ID, F>(self, identity: ID, op: F) -> I::Item
    where
        ID: Fn() -> I::Item,
        F: Fn(I::Item, I::Item) -> I::Item,
    {
        let mut acc = identity();
        for item in self.inner {
            acc = op(acc, item);
        }
        acc
    }

    /// Parallel consumption on the global pool (inline when nested, when
    /// the pool is busy, or for a single item).
    pub fn for_each<F>(self, f: F)
    where
        I::Item: Send,
        F: Fn(I::Item) + Sync,
    {
        let items: Vec<I::Item> = self.inner.collect();
        run_parallel(items, &f);
    }

    /// Rayon-style two-closure fold; the per-split accumulators collapse to
    /// one here, so `reduce` just folds the identity back in.
    pub fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> FoldResult<T>
    where
        ID: Fn() -> T,
        F: Fn(T, I::Item) -> T,
    {
        let mut acc = identity();
        for item in self.inner {
            acc = fold_op(acc, item);
        }
        FoldResult { value: acc }
    }
}

/// Result of [`Par::fold`], awaiting its `reduce`.
pub struct FoldResult<T> {
    value: T,
}

impl<T> FoldResult<T> {
    pub fn reduce<ID, F>(self, identity: ID, op: F) -> T
    where
        ID: Fn() -> T,
        F: Fn(T, T) -> T,
    {
        op(identity(), self.value)
    }
}

fn run_parallel<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: &F) {
    let pool = pool();
    if items.len() <= 1 || pool.width <= 1 || !pool.try_acquire() {
        items.into_iter().for_each(f);
        return;
    }
    let len = items.len();
    let slots = Slots(
        items
            .into_iter()
            .map(|t| UnsafeCell::new(Some(t)))
            .collect(),
    );
    let item = |i: usize| {
        // SAFETY: `Job::run` hands every index in `0..len` to exactly one
        // thread: one `fetch_add` on the cursor claims it.
        if let Some(t) = unsafe { slots.take(i) } {
            f(t);
        }
    };
    pool.run(&Job {
        cursor: AtomicUsize::new(0),
        len,
        chunk: len.div_ceil(CHUNKS_PER_THREAD * pool.width),
        item: &item,
        panic: Mutex::new(None),
    });
    // Items left in `slots` (the rest of a chunk whose item panicked) are
    // dropped here, after every thread has left the job.
}

/// One item per slot; the job's cursor gives each slot to one thread.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: a slot is only touched by the one thread that claimed its index
// (see `run_parallel`), and items may move to that thread since `T: Send`.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// Move the item out of slot `i`.
    ///
    /// # Safety
    /// No other thread may access slot `i` during or after this call.
    unsafe fn take(&self, i: usize) -> Option<T> {
        (*self.0[i].get()).take()
    }
}

/// One parallel call as the pool sees it: `len` items, claimed `chunk` at
/// a time through `cursor`.
struct Job<'a> {
    cursor: AtomicUsize,
    len: usize,
    chunk: usize,
    item: &'a (dyn Fn(usize) + Sync),
    /// The first panic any thread caught while running this job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claim and run chunks until none is left or an item panics. Never
    /// unwinds: a panic is stored for the caller to resume.
    fn run(&self) {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| loop {
            // Relaxed suffices: the claim only has to be unique, and the
            // items themselves were published under the pool's mutex.
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.len {
                return;
            }
            for i in start..(start + self.chunk).min(self.len) {
                (self.item)(i);
            }
        }));
        if let Err(payload) = ran {
            lock(&self.panic).get_or_insert(payload);
        }
    }
}

/// A posted job, with its lifetime erased so the global state can hold it.
#[derive(Clone, Copy)]
struct JobRef(NonNull<Job<'static>>);

// SAFETY: `Job` is `Sync`, so workers may share it; `Pool::run` keeps the
// job alive until every worker that read this pointer has left it.
unsafe impl Send for JobRef {}

struct Pool {
    /// Threads that run a call: the parked workers plus the caller.
    width: usize,
    /// Held by the one call the workers serve; other calls run inline.
    busy: AtomicBool,
    state: Mutex<State>,
    /// Workers park here until a job is posted.
    posted: Condvar,
    /// The caller parks here until the last joined worker leaves.
    drained: Condvar,
}

struct State {
    job: Option<JobRef>,
    /// Bumped on every post, so a worker joins each job at most once.
    seq: u64,
    /// Workers inside the current job.
    active: usize,
}

/// No code panics while holding the pool's locks (items run outside them
/// and their panics are caught), so a poisoned lock still guards valid
/// state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let width = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            width,
            busy: AtomicBool::new(false),
            state: Mutex::new(State {
                job: None,
                seq: 0,
                active: 0,
            }),
            posted: Condvar::new(),
            drained: Condvar::new(),
        }));
        // The workers serve for the life of the process, like rayon's
        // global pool, so their handles are not kept.
        for i in 1..width {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || pool.serve())
                .expect("spawn a pool worker");
        }
        pool
    })
}

impl Pool {
    fn try_acquire(&self) -> bool {
        self.busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Run `job` on the caller and every worker that joins in time, then
    /// release the pool. The caller holds the pool (`try_acquire`).
    fn run(&self, job: &Job<'_>) {
        {
            let mut st = lock(&self.state);
            st.job = Some(JobRef(NonNull::from(job).cast()));
            st.seq += 1;
        }
        self.posted.notify_all();
        job.run();
        // Retract, then wait for the workers that joined: after this no
        // thread holds a reference to `job`.
        let mut st = lock(&self.state);
        st.job = None;
        while st.active > 0 {
            st = self
                .drained
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(st);
        self.busy.store(false, Ordering::Release);
        if let Some(payload) = lock(&job.panic).take() {
            panic::resume_unwind(payload);
        }
    }

    /// A worker's life: join each posted job once, park in between.
    fn serve(&self) {
        let mut seen = 0;
        let mut st = lock(&self.state);
        loop {
            match st.job {
                Some(job) if st.seq != seen => {
                    seen = st.seq;
                    st.active += 1;
                    drop(st);
                    // SAFETY: the pointer was read while the job was
                    // posted, and `Pool::run` keeps the job alive until
                    // `active` is back to zero.
                    unsafe { job.0.as_ref() }.run();
                    st = lock(&self.state);
                    st.active -= 1;
                    if st.active == 0 && st.job.is_none() {
                        self.drained.notify_one();
                    }
                }
                _ => {
                    st = self.posted.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

pub mod prelude {
    use super::Par;

    /// `into_par_iter` for anything iterable (ranges, vectors, zips).
    pub trait IntoParallelIterator: Sized {
        type Item;
        type Iter: Iterator<Item = Self::Item>;
        fn into_par_iter(self) -> Par<Self::Iter>;
    }

    impl<T: IntoIterator> IntoParallelIterator for T {
        type Item = T::Item;
        type Iter = T::IntoIter;
        fn into_par_iter(self) -> Par<T::IntoIter> {
            Par {
                inner: self.into_iter(),
            }
        }
    }

    /// `par_iter` — shared-reference parallel iteration.
    pub trait IntoParallelRefIterator<'data> {
        type Item;
        type Iter: Iterator<Item = Self::Item>;
        fn par_iter(&'data self) -> Par<Self::Iter>;
    }

    impl<'data, T: 'data + ?Sized> IntoParallelRefIterator<'data> for T
    where
        &'data T: IntoIterator,
    {
        type Item = <&'data T as IntoIterator>::Item;
        type Iter = <&'data T as IntoIterator>::IntoIter;
        fn par_iter(&'data self) -> Par<Self::Iter> {
            Par {
                inner: self.into_iter(),
            }
        }
    }

    /// `par_iter_mut` — unique-reference parallel iteration.
    pub trait IntoParallelRefMutIterator<'data> {
        type Item;
        type Iter: Iterator<Item = Self::Item>;
        fn par_iter_mut(&'data mut self) -> Par<Self::Iter>;
    }

    impl<'data, T: 'data + ?Sized> IntoParallelRefMutIterator<'data> for T
    where
        &'data mut T: IntoIterator,
    {
        type Item = <&'data mut T as IntoIterator>::Item;
        type Iter = <&'data mut T as IntoIterator>::IntoIter;
        fn par_iter_mut(&'data mut self) -> Par<Self::Iter> {
            Par {
                inner: self.into_iter(),
            }
        }
    }

    /// `par_chunks` on slices.
    pub trait ParallelSlice<T> {
        fn par_chunks(&self, chunk_size: usize) -> Par<std::slice::Chunks<'_, T>>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk_size: usize) -> Par<std::slice::Chunks<'_, T>> {
            Par {
                inner: self.chunks(chunk_size),
            }
        }
    }

    /// `par_chunks_mut` on slices.
    pub trait ParallelSliceMut<T> {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<std::slice::ChunksMut<'_, T>>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<std::slice::ChunksMut<'_, T>> {
            Par {
                inner: self.chunks_mut(chunk_size),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn parallel_for_each_visits_everything() {
        for n in [0usize, 1, 2, 17, 100_000] {
            let seen: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            (0..n).into_par_iter().for_each(|i| {
                seen[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                seen.iter().all(|s| s.load(Ordering::Relaxed) == 1),
                "n = {n}: an item was skipped or run twice"
            );
        }
    }

    #[test]
    fn adapter_chains_behave_like_iterators() {
        let v: Vec<u64> = (0..100).collect();
        let s: u64 = v.par_iter().sum();
        assert_eq!(s, 4950);
        let or_all = v
            .par_iter()
            .fold(|| 0u64, |a, &k| a | k)
            .reduce(|| 0, |a, b| a | b);
        assert_eq!(or_all, 127);
        let mut w = vec![0u32; 8];
        w.par_iter_mut().for_each(|x| *x = 7);
        assert!(w.iter().all(|&x| x == 7));
    }

    #[test]
    fn chunked_mutation_covers_slice() {
        let mut data = vec![0usize; 1000];
        data.par_chunks_mut(100).enumerate().for_each(|(b, slice)| {
            for x in slice {
                *x = b;
            }
        });
        assert_eq!(data[999], 9);
        assert_eq!(data[0], 0);
        assert_eq!(data.par_chunks(100).count(), 10);
    }

    #[test]
    fn panic_reaches_caller_with_its_message_and_pool_keeps_serving() {
        let payload = std::panic::catch_unwind(|| {
            (0..1000u32).into_par_iter().for_each(|i| {
                if i == 637 {
                    panic!("item 637 failed");
                }
            });
        })
        .expect_err("the item's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 637 failed"));

        let count = AtomicUsize::new(0);
        (0..1000u32).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn concurrent_callers_both_finish() {
        let start = Barrier::new(2);
        let counts = [AtomicUsize::new(0), AtomicUsize::new(0)];
        std::thread::scope(|s| {
            for count in &counts {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        (0..64u32).into_par_iter().for_each(|_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        for count in &counts {
            assert_eq!(count.load(Ordering::Relaxed), 200 * 64);
        }
    }

    #[test]
    fn nested_for_each_runs_inline() {
        let count = AtomicUsize::new(0);
        (0..16u32).into_par_iter().for_each(|_| {
            (0..16u32).into_par_iter().for_each(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 256);
    }
}
