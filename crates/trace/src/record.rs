//! The run record: what one run observed, written once.
//!
//! A record keeps, in first-seen order, **always** its [`Totals`] — phase
//! time (from [`phase`] guards), counter sums, the last value of each
//! gauge and warnings — and, **only when a
//! [`TraceSession`](crate::TraceSession) asked for it**, a timeline: every
//! span and event with its timestamp, plus the phases' peak-RSS samples.
//!
//! Records belong to threads. Each thread has a *current record* in a
//! thread-local slot; recording outside one is a single thread-local read
//! and nothing else, so kernels stay instrumented at all times.
//! [`Record::open`] nests a record in the thread's current one (sharing
//! its timeline); closing it returns its totals and adds them to the
//! enclosing record, so a pipeline call reads back exactly what it
//! recorded while its caller's record still holds everything. Work forked
//! off a recording thread enters the record captured before the fork
//! ([`current_record`]; the workspace's pool, `parhde_util::par`, does
//! this for every job).
//!
//! The hot path never serializes pool workers: each thread keeps its own
//! counter and gauge sums (and timeline buffer) per record, behind a mutex
//! only that thread takes until the record closes. Phases and warnings, a
//! few hundred per run, go to one list per record, in the order they
//! happened.

use crate::phases::PhaseAccumulator;
use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// Locks `m`, ignoring poisoning: every critical section here is a push,
/// an add or a take, which a panic cannot leave half done.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A warning as a record keeps it: its message, and the typed value it
/// was recorded from, so a caller that knows the type gets it back.
#[derive(Clone)]
pub struct Note {
    message: String,
    value: Arc<dyn Any + Send + Sync>,
}

impl Note {
    /// The warning's display text.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The recorded value, if it is a `T`.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.value.downcast_ref()
    }
}

impl fmt::Debug for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.message, f)
    }
}

/// What a record keeps for every run, timeline or not.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Wall time per phase, in first-seen order.
    pub phases: PhaseAccumulator,
    /// Sum of deltas per counter, in first-seen order (by recording
    /// thread, then record order).
    pub counters: Vec<(&'static str, u64)>,
    /// The last sample of each gauge, in first-seen order. Samples from
    /// threads recording at once are not ordered: the merge takes threads
    /// in the order they first recorded.
    pub gauges: Vec<(&'static str, f64)>,
    /// Warnings, in the order they were recorded.
    pub warnings: Vec<Note>,
}

impl Totals {
    /// The total of counter `name`, if it was recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The last sample of gauge `name`, if it was recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    #[inline]
    fn add(&mut self, name: &'static str, delta: u64) {
        match slot(&self.counters, name) {
            Some(i) => self.counters[i].1 += delta,
            None => self.counters.push((name, delta)),
        }
    }

    #[inline]
    fn set(&mut self, name: &'static str, value: f64) {
        match slot(&self.gauges, name) {
            Some(i) => self.gauges[i].1 = value,
            None => self.gauges.push((name, value)),
        }
    }

    fn absorb_sums(&mut self, other: &Totals) {
        for &(name, delta) in &other.counters {
            self.add(name, delta);
        }
        for &(name, value) in &other.gauges {
            self.set(name, value);
        }
    }
}

/// Index of `name` in `entries`: a pointer compare first (a literal
/// recorded again is the same `&'static str`), then by content.
#[inline]
fn slot<V>(entries: &[(&'static str, V)], name: &str) -> Option<usize> {
    entries
        .iter()
        .position(|(n, _)| std::ptr::eq(*n, name))
        .or_else(|| entries.iter().position(|(n, _)| *n == name))
}

/// A raw timeline event. Names are `&'static str` so recording never
/// allocates (warnings, which are rare, are the exception); `t` is in
/// nanoseconds since the timeline's anchor.
#[derive(Debug)]
pub(crate) enum Raw {
    Begin { name: &'static str, t: u64 },
    /// Closes the innermost open span on this thread.
    End { t: u64 },
    Counter { name: &'static str, delta: u64, t: u64 },
    Gauge { name: &'static str, value: f64, t: u64 },
    Warn { message: String, t: u64 },
}

/// One buffer per thread that recorded, in first-record order.
type PerThread<B> = Mutex<Vec<(ThreadId, Arc<Mutex<B>>)>>;

/// The calling thread's buffer in `list`, registered on first use.
fn per_thread<B: Default>(list: &PerThread<B>) -> Arc<Mutex<B>> {
    let me = std::thread::current().id();
    let mut list = lock(list);
    if let Some((_, buf)) = list.iter().find(|(id, _)| *id == me) {
        return Arc::clone(buf);
    }
    let buf = Arc::new(Mutex::new(B::default()));
    list.push((me, Arc::clone(&buf)));
    buf
}

/// The timeline a [`TraceSession`](crate::TraceSession) keeps, shared by
/// every record nested in its own.
#[derive(Debug)]
pub(crate) struct Timeline {
    anchor: Instant,
    threads: PerThread<Vec<Raw>>,
}

impl Timeline {
    /// Takes every thread's events, in first-record order.
    pub(crate) fn drain(&self) -> Vec<Vec<Raw>> {
        let threads = std::mem::take(&mut *lock(&self.threads));
        threads.into_iter().map(|(_, events)| std::mem::take(&mut *lock(&events))).collect()
    }
}

/// The state one record shares with every thread that enters it.
#[derive(Debug)]
pub(crate) struct Shared {
    /// Each thread's counter and gauge sums.
    sums: PerThread<Totals>,
    /// The phases and warnings, in the order they happened.
    ordered: Mutex<Totals>,
    timeline: Option<Arc<Timeline>>,
}

impl Shared {
    fn new(timeline: Option<Arc<Timeline>>) -> Arc<Shared> {
        let (sums, ordered) = (Mutex::default(), Mutex::default());
        Arc::new(Shared { sums, ordered, timeline })
    }

    /// Takes the record's totals, per-thread sums merged in thread order.
    fn drain(&self) -> Totals {
        let mut totals = std::mem::take(&mut *lock(&self.ordered));
        for (_, sums) in std::mem::take(&mut *lock(&self.sums)) {
            totals.absorb_sums(&lock(&sums));
        }
        totals
    }
}

/// A thread's current record and, once it recorded there, its buffers.
#[derive(Debug)]
struct Current {
    record: Arc<Shared>,
    sums: Option<Arc<Mutex<Totals>>>,
    line: Option<Arc<Mutex<Vec<Raw>>>>,
}

impl Current {
    #[inline]
    fn sums(&mut self) -> MutexGuard<'_, Totals> {
        let record = &self.record;
        lock(self.sums.get_or_insert_with(|| per_thread(&record.sums)))
    }

    /// Appends a timeline event stamped now, when the record keeps one.
    #[inline]
    fn push(&mut self, make: impl FnOnce(u64) -> Raw) {
        let Some(timeline) = &self.record.timeline else { return };
        let t = timeline.anchor.elapsed().as_nanos() as u64;
        lock(self.line.get_or_insert_with(|| per_thread(&timeline.threads))).push(make(t));
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Current>> = const { RefCell::new(None) };
}

#[inline]
fn with_current(f: impl FnOnce(&mut Current)) {
    CURRENT.with(|c| {
        if let Some(cur) = c.borrow_mut().as_mut() {
            f(cur);
        }
    });
}

fn replace(next: Option<Current>) -> Option<Current> {
    CURRENT.with(|c| c.replace(next))
}

/// True while the calling thread records into a record. The disabled fast
/// path of every recording call is exactly this thread-local read; callers
/// may also use it to gate derived-value computation.
#[inline]
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// True while the calling thread's record keeps a timeline, i.e. inside a
/// [`TraceSession`](crate::TraceSession).
#[inline]
pub fn timeline_enabled() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|cur| cur.record.timeline.is_some()))
}

/// A handle to the record a thread records into, captured with
/// [`current_record`] before a fork so the forked closure or spawned
/// thread can [`enter`](RecordRef::enter) it. Empty when the capturing
/// thread had none; entering an empty handle stops recording.
#[derive(Clone, Debug)]
pub struct RecordRef(Option<Arc<Shared>>);

/// The calling thread's current record.
pub fn current_record() -> RecordRef {
    CURRENT.with(|c| RecordRef(c.borrow().as_ref().map(|cur| Arc::clone(&cur.record))))
}

impl RecordRef {
    /// Makes this the calling thread's record until the guard drops, which
    /// restores the record entered before (also on unwind).
    pub fn enter(&self) -> RecordGuard {
        let next = self.0.clone().map(|record| Current { record, sums: None, line: None });
        RecordGuard { prev: replace(next), _thread: PhantomData }
    }
}

/// Keeps a record entered on the thread that entered it; restores the
/// previous one on drop. Not `Send`: the slot it restores is the entering
/// thread's.
#[must_use = "dropping the guard leaves the record at once"]
#[derive(Debug)]
pub struct RecordGuard {
    prev: Option<Current>,
    _thread: PhantomData<*const ()>,
}

impl Drop for RecordGuard {
    fn drop(&mut self) {
        replace(self.prev.take());
    }
}

/// A record open on the calling thread. Not `Send`: closing it restores
/// the opening thread's previous record.
#[must_use = "dropping the record closes it at once"]
#[derive(Debug)]
pub struct Record {
    shared: Arc<Shared>,
    /// The thread's previous record; `None` once closed.
    prev: Option<Option<Current>>,
    /// Whether closing adds the totals to the previous record.
    nested: bool,
    _thread: PhantomData<*const ()>,
}

impl Record {
    /// Opens a record nested in the calling thread's current one (a root
    /// record if it has none) and makes it current. It shares the
    /// enclosing record's timeline, and closing it adds its totals to the
    /// enclosing record.
    pub fn open() -> Record {
        let (timeline, line) = CURRENT.with(|c| {
            let c = c.borrow();
            let cur = c.as_ref();
            cur.map(|cur| (cur.record.timeline.clone(), cur.line.clone())).unwrap_or_default()
        });
        Record::enter(Shared::new(timeline), line, true)
    }

    /// Opens a root record that keeps a fresh timeline, shadowing the
    /// thread's current record until it closes.
    pub(crate) fn traced() -> Record {
        let timeline = Timeline { anchor: Instant::now(), threads: Mutex::new(Vec::new()) };
        Record::enter(Shared::new(Some(Arc::new(timeline))), None, false)
    }

    fn enter(shared: Arc<Shared>, line: Option<Arc<Mutex<Vec<Raw>>>>, nested: bool) -> Record {
        let prev = replace(Some(Current { record: Arc::clone(&shared), sums: None, line }));
        Record { shared, prev: Some(prev), nested, _thread: PhantomData }
    }

    pub(crate) fn timeline(&self) -> Option<Arc<Timeline>> {
        self.shared.timeline.clone()
    }

    /// Closes the record: restores the thread's previous record, adds this
    /// one's totals to it (for a nested record) and returns them.
    pub fn close(mut self) -> Totals {
        self.leave()
    }

    fn leave(&mut self) -> Totals {
        replace(self.prev.take().flatten());
        let totals = self.shared.drain();
        if self.nested {
            with_current(|cur| {
                let mut ordered = lock(&cur.record.ordered);
                ordered.phases.merge(&totals.phases);
                ordered.warnings.extend(totals.warnings.iter().cloned());
                drop(ordered);
                cur.sums().absorb_sums(&totals);
            });
        }
        totals
    }
}

impl Drop for Record {
    /// A record dropped unclosed (a panic unwinding through its run) still
    /// hands its totals to the enclosing record.
    fn drop(&mut self) {
        if self.prev.is_some() {
            self.leave();
        }
    }
}

/// RAII guard returned by [`span`]; records the span's end when dropped.
/// Inert when no timeline was kept at open time.
#[must_use = "a span guard dropped immediately closes the span immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            with_current(|cur| cur.push(|t| Raw::End { t }));
        }
    }
}

/// Opens a timeline span named `name` on the current thread; the returned
/// guard closes it on drop. Spans nest: a span opened while another is
/// open on the same thread becomes its child in the merged
/// [`Trace`](crate::Trace). Spans exist only on a timeline; they add
/// nothing to a record's totals.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let mut armed = false;
    with_current(|cur| {
        armed = cur.record.timeline.is_some();
        cur.push(|t| Raw::Begin { name, t });
    });
    SpanGuard { armed }
}

/// Adds `delta` to counter `name` in the thread's record.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    with_current(|cur| {
        cur.sums().add(name, delta);
        cur.push(|t| Raw::Counter { name, delta, t });
    });
}

/// Records a sample of gauge `name`; the record keeps the last one.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    with_current(|cur| {
        cur.sums().set(name, value);
        cur.push(|t| Raw::Gauge { name, value, t });
    });
}

/// Records a warning. The record keeps the value itself ([`Note::get`])
/// beside its message.
pub fn warning<W: fmt::Display + Any + Send + Sync>(value: W) {
    if !enabled() {
        return;
    }
    // Rendered outside the thread-local borrow: `Display` is caller code.
    let note = Note { message: value.to_string(), value: Arc::new(value) };
    with_current(|cur| {
        cur.push(|t| Raw::Warn { message: note.message.clone(), t });
        lock(&cur.record.ordered).warnings.push(note);
    });
}

/// Times one phase of a run: on drop, adds its wall time to the thread's
/// record under `name`; on a timeline it is also a span, and records the
/// process's peak-RSS growth across the phase as counter `rss_counter`
/// (0 for a phase that ran inside memory already reserved).
#[must_use = "a phase guard dropped immediately times nothing"]
#[derive(Debug)]
pub struct PhaseGuard {
    name: &'static str,
    rss_counter: &'static str,
    start: Instant,
    rss_begin: Option<u64>,
    _span: SpanGuard,
}

/// Starts phase `name`; see [`PhaseGuard`].
pub fn phase(name: &'static str, rss_counter: &'static str) -> PhaseGuard {
    let rss_begin = if timeline_enabled() { crate::peak_rss_bytes() } else { None };
    PhaseGuard { name, rss_counter, start: Instant::now(), rss_begin, _span: span(name) }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        if let (Some(begin), Some(end)) = (self.rss_begin, crate::peak_rss_bytes()) {
            counter(self.rss_counter, end.saturating_sub(begin));
        }
        with_current(|cur| lock(&cur.record.ordered).phases.add(self.name, elapsed));
    }
}
