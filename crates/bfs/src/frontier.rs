//! Frontier containers shared by the parallel BFS variants.
//!
//! Two representations, as in the GAP implementation: a *queue* (dense list
//! of frontier vertices, natural for top-down) and a *bitmap* (one bit per
//! vertex, natural for bottom-up, where membership tests dominate). The
//! direction-optimizing driver converts between them when it switches
//! direction. The queue is GAP's sliding queue ([`SlidingQueue`]): one
//! array holds every top-down frontier of a traversal.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Number of `u64` lane words needed to hold `lanes` one-bit BFS lanes
/// (`⌈lanes/64⌉`). The batched multi-source kernel allocates
/// `n × lane_words(s)` words per bit-vector.
#[inline]
pub fn lane_words(lanes: usize) -> usize {
    lanes.div_ceil(64)
}

/// Splits a lane index into its `(word, bit mask)` coordinates within a
/// per-vertex row of lane words.
#[inline]
pub fn lane_coords(lane: usize) -> (usize, u64) {
    (lane / 64, 1u64 << (lane % 64))
}

/// Calls `f(lane)` for every set bit of `word`, where `word` is the
/// `word_index`-th lane word of a row (so bit `b` is lane
/// `word_index * 64 + b`). Iterates set bits only, ascending.
#[inline]
pub fn for_each_lane(word: u64, word_index: usize, mut f: impl FnMut(usize)) {
    let mut bits = word;
    while bits != 0 {
        let b = bits.trailing_zeros() as usize;
        f(word_index * 64 + b);
        bits &= bits - 1;
    }
}

/// A fixed-capacity concurrent bitmap over vertex ids.
///
/// `set` uses a relaxed `fetch_or`; readers use relaxed loads. BFS level
/// synchronization provides the necessary happens-before edges (each level
/// ends with a fork-join, which synchronizes all workers), so relaxed
/// per-bit operations are sufficient — the same reasoning GAP's C++ code
/// uses with its unsynchronized bitmap plus barrier.
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// Creates an all-zero bitmap over `len` ids.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, len }
    }

    /// Number of ids covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero ids.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` (idempotent, thread-safe).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64].fetch_or(1 << (i % 64), Ordering::Relaxed);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) != 0
    }

    /// Clears all bits (single-threaded use between levels).
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Collects set bit indices ascending (bitmap → queue conversion).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, w) in self.words.iter().enumerate() {
            let mut bits = w.load(Ordering::Relaxed);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push((wi * 64 + b) as u32);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Builds a bitmap with the given bits set (queue → bitmap conversion).
    pub fn from_ids(len: usize, ids: &[u32]) -> Self {
        let bm = Self::new(len);
        for &i in ids {
            bm.set(i as usize);
        }
        bm
    }
}

/// GAP's sliding queue: every top-down frontier of one traversal in one
/// array. The frontier is the *window*; a level appends the vertices it
/// claims past the window's end, and [`slide_window`](Self::slide_window)
/// makes them the next window. A vertex enters at most once per traversal,
/// so `n` slots serve the whole traversal and no level allocates.
///
/// Slots are relaxed atomics: in a parallel level workers read the window
/// while they append past it, and the level-end join orders both — the same
/// reasoning as [`AtomicBitmap`].
#[derive(Debug)]
pub struct SlidingQueue {
    slots: Vec<AtomicU32>,
    /// First free slot; appends claim slots from here.
    tail: AtomicUsize,
    start: usize,
    end: usize,
}

impl SlidingQueue {
    /// An empty queue (and empty window) with room for `capacity` appends.
    pub fn new(capacity: usize) -> Self {
        let slots = (0..capacity).map(|_| AtomicU32::new(0)).collect();
        Self { slots, tail: AtomicUsize::new(0), start: 0, end: 0 }
    }

    /// Number of vertices in the window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The window: the current frontier.
    pub fn window(&self) -> &[AtomicU32] {
        &self.slots[self.start..self.end]
    }

    /// Appends `ids` from any thread, with one `fetch_add` on the tail.
    ///
    /// # Panics
    /// Panics if the queue is full.
    pub fn append(&self, ids: &[u32]) {
        let at = self.tail.fetch_add(ids.len(), Ordering::Relaxed);
        for (slot, &v) in self.slots[at..at + ids.len()].iter().zip(ids) {
            slot.store(v, Ordering::Relaxed);
        }
    }

    /// Makes everything appended since the last slide the window.
    pub fn slide_window(&mut self) {
        self.start = self.end;
        self.end = *self.tail.get_mut();
    }

    /// The window's vertices, in window order.
    pub fn to_vec(&self) -> Vec<u32> {
        self.window().iter().map(|v| v.load(Ordering::Relaxed)).collect()
    }
}

/// Vertices a [`QueueBuffer`] stages before it appends them.
const QUEUE_BUFFER: usize = 1024;

/// A worker's staging buffer for a [`SlidingQueue`]: it appends in batches
/// of [`QUEUE_BUFFER`] vertices, one `fetch_add` each, instead of one
/// atomic per vertex. Call [`flush`](Self::flush) before dropping it.
pub struct QueueBuffer<'a> {
    queue: &'a SlidingQueue,
    buf: [u32; QUEUE_BUFFER],
    len: usize,
}

impl<'a> QueueBuffer<'a> {
    /// An empty buffer appending to `queue`.
    pub fn new(queue: &'a SlidingQueue) -> Self {
        Self { queue, buf: [0; QUEUE_BUFFER], len: 0 }
    }

    /// Stages `v`, appending the buffer first if it is full.
    #[inline]
    pub fn push(&mut self, v: u32) {
        if self.len == QUEUE_BUFFER {
            self.flush();
        }
        self.buf[self.len] = v;
        self.len += 1;
    }

    /// Appends every staged vertex to the queue.
    pub fn flush(&mut self) {
        self.queue.append(&self.buf[..self.len]);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parhde_util::par::prelude::*;

    #[test]
    fn set_get_roundtrip() {
        let bm = AtomicBitmap::new(130);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(65) && !bm.get(128));
        assert_eq!(bm.count_ones(), 4);
    }

    #[test]
    fn to_vec_is_sorted_and_complete() {
        let bm = AtomicBitmap::from_ids(200, &[150, 3, 64, 3, 199]);
        assert_eq!(bm.to_vec(), vec![3, 64, 150, 199]);
    }

    #[test]
    fn clear_resets() {
        let mut bm = AtomicBitmap::from_ids(100, &[1, 2, 3]);
        bm.clear();
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn concurrent_sets_are_all_visible() {
        let bm = AtomicBitmap::new(10_000);
        (0..10_000usize).into_par_iter().for_each(|i| {
            if i % 3 == 0 {
                bm.set(i);
            }
        });
        assert_eq!(bm.count_ones(), 10_000 / 3 + 1);
        assert!(bm.get(9999));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        AtomicBitmap::new(10).set(10);
    }

    #[test]
    fn empty_bitmap() {
        let bm = AtomicBitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.to_vec(), Vec::<u32>::new());
    }

    #[test]
    fn sliding_queue_windows_follow_appends() {
        let mut q = SlidingQueue::new(6);
        assert!(q.is_empty());
        q.append(&[4]);
        assert!(q.is_empty(), "an append joins the window only on a slide");
        q.slide_window();
        assert_eq!(q.to_vec(), vec![4]);
        q.append(&[1, 5]);
        q.append(&[0]);
        q.slide_window();
        assert_eq!(q.len(), 3);
        assert_eq!(q.to_vec(), vec![1, 5, 0]);
        q.slide_window();
        assert!(q.is_empty());
    }

    #[test]
    fn queue_buffers_append_every_vertex_once() {
        // Three workers' buffers each overflow QUEUE_BUFFER at least once.
        let per = 2 * QUEUE_BUFFER + 7;
        let mut q = SlidingQueue::new(3 * per);
        (0..3u32).into_par_iter().for_each(|w| {
            let mut out = QueueBuffer::new(&q);
            for i in 0..per as u32 {
                out.push(w * per as u32 + i);
            }
            out.flush();
        });
        q.slide_window();
        let mut ids = q.to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (0..3 * per as u32).collect::<Vec<_>>());
    }

    #[test]
    fn lane_words_rounds_up() {
        assert_eq!(lane_words(0), 0);
        assert_eq!(lane_words(1), 1);
        assert_eq!(lane_words(63), 1);
        assert_eq!(lane_words(64), 1);
        assert_eq!(lane_words(65), 2);
        assert_eq!(lane_words(128), 2);
        assert_eq!(lane_words(129), 3);
    }

    #[test]
    fn lane_coords_roundtrip() {
        for lane in [0usize, 1, 63, 64, 65, 127, 128, 200] {
            let (w, mask) = lane_coords(lane);
            assert_eq!(w * 64 + mask.trailing_zeros() as usize, lane);
            assert_eq!(mask.count_ones(), 1);
        }
    }

    #[test]
    fn for_each_lane_visits_set_bits_ascending() {
        let word = (1u64 << 3) | (1 << 40) | (1 << 63);
        let mut seen = Vec::new();
        for_each_lane(word, 2, |lane| seen.push(lane));
        assert_eq!(seen, vec![128 + 3, 128 + 40, 128 + 63]);
        for_each_lane(0, 5, |_| panic!("no bits set"));
    }
}
