//! The workspace's fork-join runtime: a persistent pool of `std::thread`
//! workers behind the familiar data-parallel method names the kernels use
//! (`par_iter`, `par_iter_mut`, `par_chunks(_mut)`, `into_par_iter`,
//! [`join`], [`current_num_threads`], `par_sort_unstable(_by)`), so a
//! kernel imports [`prelude`] and reads like sequential iterator code.
//!
//! # Execution model
//!
//! The paper's OpenMP `schedule(dynamic)`: a parallel loop's items are
//! fixed by the data (vertices, frontier chunks, row blocks), and threads
//! claim runs of consecutive items, the submitter from the front and its
//! helpers from the back, so successive loops over the same data keep each
//! part on the thread whose cache holds it. How many items a claim takes
//! depends on the width; what an item computes does not.
//!
//! # Determinism
//!
//! Every item's output is combined in item order, exactly as a sequential
//! fold over the items would: `collect` writes item `i` to slot `i` of one
//! buffer sized in advance, and `sum`/`reduce` fold that buffer in order
//! on the calling thread. So results are bitwise the same at every width;
//! call sites that want fewer slots already chunk their items (`blas1`).
//!
//! # Width
//!
//! A thread's width is [`threads::run_with_threads`](crate::threads)'s
//! argument while it runs, else `PARHDE_THREADS`, else the host's
//! available parallelism. Forked work runs at its submitter's width, and
//! one submitter's forks, nested ones included, never occupy more threads
//! than its width. The pool grows to the widest request. A loop runs
//! inline at width 1 or when it has fewer than two items.
//!
//! # Run context and panics
//!
//! Forked work runs under its submitter's [`RunCtx`](crate::supervisor::RunCtx):
//! its budget and its run record. A kernel therefore polls
//! [`should_stop`](crate::supervisor::should_stop) and records trace events
//! inside a closure exactly as on the calling thread. A panic in forked
//! work resumes on the submitter once every helper has left the fork; the
//! pool stays usable.

mod iter;
pub(crate) mod pool;

pub use iter::{
    Enumerate, IntoParallelIterator, Map, Par, ParallelSlice, ParallelSliceMut, Producer,
    RangeProducer, Zip,
};

use std::cmp::Ordering as CmpOrdering;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Everything a kernel imports: the conversion and slice traits.
pub mod prelude {
    pub use super::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Claims per thread a loop is cut into: enough to balance uneven items,
/// few enough that the shared counter stays cold.
const CLAIMS_PER_THREAD: usize = 16;

/// The calling thread's width: how many threads its parallel loops and
/// joins may occupy.
pub fn current_num_threads() -> usize {
    pool::width()
}

/// Runs `body` over consecutive ranges covering `0..len`, on up to the
/// calling thread's width of threads. The submitter claims ranges from the
/// front and helpers from the back, so loop after loop over the same data
/// each thread tends to get the same part, still in its cache.
pub(crate) fn for_ranges(len: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
    let width = current_num_threads();
    if width == 1 || len < 2 {
        body(0..len);
        return;
    }
    let grain = len.div_ceil(width * CLAIMS_PER_THREAD);
    let claims = len.div_ceil(grain);
    // Unclaimed claims are `front..back`, packed as `back << 32 | front`.
    let ends = AtomicU64::new((claims as u64) << 32);
    let claim = |from_front: bool| {
        let mut cur = ends.load(Ordering::Relaxed);
        loop {
            let (front, back) = (cur & u64::from(u32::MAX), cur >> 32);
            if front >= back {
                return None;
            }
            let (next, c) = if from_front {
                (cur + 1, front)
            } else {
                (cur - (1 << 32), back - 1)
            };
            match ends.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(c as usize),
                Err(seen) => cur = seen,
            }
        }
    };
    let run = |from_front| {
        while let Some(c) = claim(from_front) {
            body(c * grain..((c + 1) * grain).min(len));
        }
    };
    pool::fork(claims - 1, &|| run(false), || run(true));
}

/// Runs `a` on the calling thread and `b` on an idle worker if one takes
/// it in time, else on the calling thread after `a`; returns both results.
/// Never waits for `b` unless it has started, so nested joins cannot
/// deadlock. A panic in either resumes here once both have finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    // Whichever thread takes `b` first runs it. Neither lock is held while
    // user code runs, so neither can be poisoned.
    const HELD: &str = "join slots are never locked across a panic";
    let b = Mutex::new(Some(b));
    let rb = Mutex::new(None);
    let work = || {
        let b = b.lock().expect(HELD).take();
        if let Some(b) = b {
            let r = b();
            *rb.lock().expect(HELD) = Some(r);
        }
    };
    let ra = pool::fork(1, &work, a);
    let rb = rb.into_inner().expect(HELD);
    (ra, rb.expect("the second closure ran"))
}

/// Sorts `v` by `cmp`: the halves around a median split sort in parallel.
/// The result is the sorted order, as from `sort_unstable_by`; elements
/// that compare equal may land in another order.
fn sort_by<T: Send, F: Fn(&T, &T) -> CmpOrdering + Sync>(v: &mut [T], cmp: &F, min_len: usize) {
    if v.len() <= min_len {
        v.sort_unstable_by(cmp);
        return;
    }
    let mid = v.len() / 2;
    v.select_nth_unstable_by(mid, cmp);
    let (lo, hi) = v.split_at_mut(mid);
    join(|| sort_by(lo, cmp, min_len), || sort_by(hi, cmp, min_len));
}

/// Entry point of the slice sorts: sequential at width 1, else cut into
/// about two pieces per thread.
fn par_sort_by<T: Send, F: Fn(&T, &T) -> CmpOrdering + Sync>(v: &mut [T], cmp: F) {
    const MIN_PIECE: usize = 1 << 14;
    let width = current_num_threads();
    if width == 1 {
        v.sort_unstable_by(cmp);
        return;
    }
    sort_by(v, &cmp, (v.len() / (2 * width)).max(MIN_PIECE));
}
