//! Run supervision: wall-clock deadlines, soft memory budgets, and
//! cooperative cancellation for long layout runs.
//!
//! A [`RunBudget`] bundles the three bounds a production layout service
//! needs on every run: a **deadline** (wall-clock instant after which the
//! run must unwind), a **soft memory budget** (bytes; enforced by the
//! caller's admission estimator and by RSS polls at phase boundaries) and a
//! **cancellation token** (tripped by signal handlers or by a peer thread).
//!
//! # Per-thread installation
//!
//! The hot loops that must honor a budget — BFS level sweeps, Δ-stepping
//! buckets, GEMM row-block recursion, Gram-Schmidt columns, eigensolver
//! sweeps — sit behind public kernel signatures shared with unbudgeted
//! callers, so the budget is not a parameter: [`install`] makes it the
//! calling thread's budget until the returned guard drops, and kernels
//! poll [`should_stop`], one thread-local read when none is installed.
//! Installs belong to a thread, not to the process: two runs on two
//! threads each poll their own budget, an `install` inside an `install`
//! nests and returns at once, and dropping a guard (also on unwind)
//! restores the budget installed before it.
//!
//! # Fork points
//!
//! A budget installed on one thread is invisible to the pool workers its
//! kernels fork onto, and a worker may help jobs from several runs in
//! turn. So the pool ([`crate::par`]) captures the submitter's [`RunCtx`]
//! — its budget and its run record — with every job it posts, and a
//! worker [`RunCtx::enter`]s it for as long as it helps that job. Forked
//! work therefore polls [`should_stop`] and records trace events as if it
//! ran on the submitter, and no call site captures anything.
//!
//! # Cooperative contract
//!
//! Kernels never unwind themselves. A kernel that observes
//! `should_stop() == true` abandons its remaining work *cheaply* (breaking
//! out of its loop, leaving its output partial or zeroed) and returns
//! normally; the owning pipeline phase then calls [`trip`] at its next
//! phase boundary and converts the recorded [`TripReason`] into its own
//! typed error. This keeps the unwinding path on code that already returns
//! `Result` and keeps the kernels panic-free.
//!
//! # Determinism
//!
//! An *untripped* budget never changes results: checks read time and flags
//! but never data. The [`RunBudget::cancel_after_checks`] hook trips the
//! cancellation token after exactly N cooperative checks, giving tests a
//! deterministic way to cut a run at any internal boundary.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A shareable cancellation flag a [`RunBudget`] can be linked to with
/// [`RunBudget::with_external_cancel`]. A connection watchdog (or any other
/// observer that outlives no budget in particular) sets it with a single
/// atomic store and every linked budget trips at its next cooperative
/// check.
pub type CancelFlag = Arc<AtomicBool>;

/// A fresh, untripped [`CancelFlag`].
pub fn cancel_flag() -> CancelFlag {
    Arc::new(AtomicBool::new(false))
}

/// Why a budget tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cancellation token was tripped (signal handler, peer thread, or
    /// the deterministic `cancel_after_checks` test hook).
    Cancelled,
    /// The soft memory budget was exceeded (recorded by the owning
    /// pipeline's phase-boundary RSS poll via [`RunBudget::trip_memory`]).
    Memory,
}

impl TripReason {
    /// Stable lowercase label used in trace counters and reports.
    pub fn label(self) -> &'static str {
        match self {
            TripReason::Deadline => "deadline",
            TripReason::Cancelled => "cancelled",
            TripReason::Memory => "memory",
        }
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_CANCELLED: u8 = 2;
const TRIP_MEMORY: u8 = 3;

fn decode_trip(v: u8) -> Option<TripReason> {
    match v {
        TRIP_DEADLINE => Some(TripReason::Deadline),
        TRIP_CANCELLED => Some(TripReason::Cancelled),
        TRIP_MEMORY => Some(TripReason::Memory),
        _ => None,
    }
}

/// Deadlines are stored as nanoseconds after a per-budget anchor instant so
/// they fit an atomic (re-armable per ladder rung). `u64::MAX` means "no
/// deadline".
const NO_DEADLINE: u64 = u64::MAX;

/// `cancel_after_checks` sentinel for "hook disabled".
const NO_TRIP_AFTER: u64 = u64::MAX;

struct BudgetCore {
    /// Fixed at construction; deadlines are offsets from here.
    anchor: Instant,
    /// Nanoseconds after `anchor`, or [`NO_DEADLINE`].
    deadline_nanos: AtomicU64,
    /// Soft memory budget in bytes (`u64::MAX` = none). Enforced by the
    /// caller (admission estimate + RSS polls), not by `should_stop`.
    mem_budget_bytes: u64,
    /// Cancellation token.
    cancelled: AtomicBool,
    /// An external cancellation flag this budget also observes (a service
    /// daemon's per-request disconnect watchdog), if linked.
    external_cancel: Option<CancelFlag>,
    /// Whether process-wide cancellation (signal handlers) trips this budget.
    honor_global_cancel: bool,
    /// Cooperative checks performed so far.
    checks: AtomicU64,
    /// Test hook: trip cancellation once `checks` reaches this value.
    trip_after: AtomicU64,
    /// First recorded trip ([`TRIP_NONE`] until one happens).
    tripped: AtomicU8,
}

/// First-trip outcome counters in the global metrics registry, resolved
/// once: `record_trip` sits on the cooperative-check path, so it must not
/// take the registry's registration lock per call.
fn trip_counters() -> &'static [Arc<parhde_trace::registry::Counter>; 3] {
    static COUNTERS: OnceLock<[Arc<parhde_trace::registry::Counter>; 3]> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = parhde_trace::registry::global();
        [
            reg.counter("parhde_supervisor_trips_deadline_total"),
            reg.counter("parhde_supervisor_trips_cancelled_total"),
            reg.counter("parhde_supervisor_trips_memory_total"),
        ]
    })
}

impl BudgetCore {
    /// Records `reason` if no trip is recorded yet; returns the reason that
    /// ends up recorded. The *first* trip of each budget is counted in the
    /// global metrics registry under its reason.
    fn record_trip(&self, reason: u8) -> u8 {
        match self.tripped.compare_exchange(
            TRIP_NONE,
            reason,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                trip_counters()[(reason - 1) as usize].inc();
                reason
            }
            Err(prev) => prev,
        }
    }

    /// A fresh core with the same configuration and state (the builder
    /// methods rebuild the core because its plain fields are immutable
    /// post-construction; budgets are configured before being shared).
    fn reconfigured(&self) -> BudgetCore {
        BudgetCore {
            anchor: self.anchor,
            deadline_nanos: AtomicU64::new(self.deadline_nanos.load(Ordering::Relaxed)),
            mem_budget_bytes: self.mem_budget_bytes,
            cancelled: AtomicBool::new(self.cancelled.load(Ordering::Relaxed)),
            external_cancel: self.external_cancel.clone(),
            honor_global_cancel: self.honor_global_cancel,
            checks: AtomicU64::new(self.checks.load(Ordering::Relaxed)),
            trip_after: AtomicU64::new(self.trip_after.load(Ordering::Relaxed)),
            tripped: AtomicU8::new(self.tripped.load(Ordering::Relaxed)),
        }
    }

    /// One cooperative check; returns true when the run should unwind.
    /// Cold, like the slow path it is: the kernels that poll stay small.
    #[cold]
    fn check(&self) -> bool {
        let k = self.checks.fetch_add(1, Ordering::Relaxed) + 1;
        if k >= self.trip_after.load(Ordering::Relaxed) {
            self.cancelled.store(true, Ordering::Relaxed);
        }
        if self.cancelled.load(Ordering::Relaxed)
            || (self.honor_global_cancel && global_cancel_requested())
            || self
                .external_cancel
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
        {
            self.record_trip(TRIP_CANCELLED);
            return true;
        }
        if self.tripped.load(Ordering::Relaxed) != TRIP_NONE {
            return true;
        }
        let dl = self.deadline_nanos.load(Ordering::Relaxed);
        if dl != NO_DEADLINE {
            let now = self.anchor.elapsed().as_nanos() as u64;
            if now >= dl {
                self.record_trip(TRIP_DEADLINE);
                return true;
            }
        }
        false
    }
}

/// A run budget: deadline + soft memory budget + cancellation token.
///
/// Cloning is cheap and shares state — a clone held by a watcher thread
/// sees (and can trigger) the same trips as the installed original.
#[derive(Clone)]
pub struct RunBudget {
    core: Arc<BudgetCore>,
}

impl Default for RunBudget {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl std::fmt::Debug for RunBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunBudget")
            .field("deadline", &self.remaining())
            .field("mem_budget_bytes", &self.mem_budget_bytes())
            .field("cancelled", &self.is_cancelled())
            .field("tripped", &self.trip())
            .finish()
    }
}

impl RunBudget {
    /// A budget with no bounds at all (checks always pass). Useful as a
    /// carrier for the cancellation token alone.
    pub fn unbounded() -> Self {
        Self {
            core: Arc::new(BudgetCore {
                anchor: Instant::now(),
                deadline_nanos: AtomicU64::new(NO_DEADLINE),
                mem_budget_bytes: u64::MAX,
                cancelled: AtomicBool::new(false),
                external_cancel: None,
                honor_global_cancel: false,
                checks: AtomicU64::new(0),
                trip_after: AtomicU64::new(NO_TRIP_AFTER),
                tripped: AtomicU8::new(TRIP_NONE),
            }),
        }
    }

    /// Returns a copy of this budget with a deadline `d` from now.
    #[must_use]
    pub fn with_deadline(self, d: Duration) -> Self {
        self.arm_deadline_at(Instant::now() + d);
        self
    }

    /// Returns a copy of this budget with a soft memory budget in bytes.
    #[must_use]
    pub fn with_mem_budget(self, bytes: u64) -> Self {
        let mut core = self.core.reconfigured();
        core.mem_budget_bytes = bytes;
        Self { core: Arc::new(core) }
    }

    /// Returns a copy of this budget that also trips on process-wide
    /// cancellation requests ([`request_global_cancel`], signal handlers).
    #[must_use]
    pub fn honoring_global_cancel(self) -> Self {
        let mut core = self.core.reconfigured();
        core.honor_global_cancel = true;
        Self { core: Arc::new(core) }
    }

    /// Returns a copy of this budget that also trips when `flag` is set.
    /// The flag is shared, not consumed: a connection watchdog keeps its
    /// own handle and cancels the run with a single atomic store, without
    /// needing a clone of the budget itself.
    #[must_use]
    pub fn with_external_cancel(self, flag: CancelFlag) -> Self {
        let mut core = self.core.reconfigured();
        core.external_cancel = Some(flag);
        Self { core: Arc::new(core) }
    }

    /// (Re-)arms the deadline to the absolute instant `at`. Used by the
    /// degraded-retry ladder to give each rung its own slice of the overall
    /// deadline; also clears a previously recorded *deadline* trip so the
    /// next rung starts clean (cancellation stays sticky).
    pub fn arm_deadline_at(&self, at: Instant) {
        let nanos = at
            .checked_duration_since(self.core.anchor)
            .map_or(0, |d| d.as_nanos() as u64);
        self.core.deadline_nanos.store(nanos, Ordering::Relaxed);
        let _ = self.core.tripped.compare_exchange(
            TRIP_DEADLINE,
            TRIP_NONE,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        let _ = self.core.tripped.compare_exchange(
            TRIP_MEMORY,
            TRIP_NONE,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Removes the deadline (the cancellation token keeps working).
    pub fn disarm_deadline(&self) {
        self.core.deadline_nanos.store(NO_DEADLINE, Ordering::Relaxed);
    }

    /// Trips the cancellation token. Safe from any thread.
    pub fn cancel(&self) {
        self.core.cancelled.store(true, Ordering::Relaxed);
        self.core.record_trip(TRIP_CANCELLED);
    }

    /// Whether the cancellation token is tripped.
    pub fn is_cancelled(&self) -> bool {
        self.core.cancelled.load(Ordering::Relaxed)
            || (self.core.honor_global_cancel && global_cancel_requested())
            || self
                .core
                .external_cancel
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Records a memory-budget trip (called by the owning pipeline when an
    /// RSS poll exceeds the soft budget).
    pub fn trip_memory(&self) {
        self.core.record_trip(TRIP_MEMORY);
    }

    /// The soft memory budget in bytes, if one is set.
    pub fn mem_budget_bytes(&self) -> Option<u64> {
        (self.core.mem_budget_bytes != u64::MAX).then_some(self.core.mem_budget_bytes)
    }

    /// Time left before the deadline (None when no deadline is armed;
    /// `Some(ZERO)` once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        let dl = self.core.deadline_nanos.load(Ordering::Relaxed);
        if dl == NO_DEADLINE {
            return None;
        }
        let now = self.core.anchor.elapsed().as_nanos() as u64;
        Some(Duration::from_nanos(dl.saturating_sub(now)))
    }

    /// The first recorded trip, if any.
    pub fn trip(&self) -> Option<TripReason> {
        decode_trip(self.core.tripped.load(Ordering::Relaxed))
    }

    /// One cooperative check against *this* budget (kernels normally use
    /// the installed one through [`should_stop`] instead). Returns true
    /// when tripped.
    pub fn check(&self) -> bool {
        self.core.check()
    }

    /// Cooperative checks performed so far (across all threads).
    pub fn checks(&self) -> u64 {
        self.core.checks.load(Ordering::Relaxed)
    }

    /// Deterministic fault-injection hook: trip the cancellation token at
    /// the `n`-th cooperative check (1-indexed). `u64::MAX` disables.
    pub fn cancel_after_checks(&self, n: u64) {
        self.core.trip_after.store(n, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Per-thread installation
// ---------------------------------------------------------------------------

thread_local! {
    /// The calling thread's installed budget.
    static BUDGET: RefCell<Option<Arc<BudgetCore>>> = const { RefCell::new(None) };
}

/// Sets the calling thread's budget, returning the one it replaces.
fn swap_budget(next: Option<Arc<BudgetCore>>) -> Option<Arc<BudgetCore>> {
    BUDGET.with(|b| b.replace(next))
}

fn with_installed<T>(f: impl FnOnce(&BudgetCore) -> T) -> Option<T> {
    BUDGET.with(|b| b.borrow().as_deref().map(f))
}

/// Keeps a budget installed on the thread that installed it; restores the
/// previous one on drop. Not `Send`: the slot it restores is the
/// installing thread's.
pub struct Installed {
    prev: Option<Arc<BudgetCore>>,
    _thread: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        swap_budget(self.prev.take());
    }
}

fn install_core(core: Option<Arc<BudgetCore>>) -> Installed {
    Installed { prev: swap_budget(core), _thread: PhantomData }
}

/// Installs `budget` as the calling thread's budget, polled by
/// [`should_stop`] and captured by [`RunCtx::capture`]. Never blocks: an
/// install inside another nests, and the returned guard restores the
/// outer budget on drop.
pub fn install(budget: &RunBudget) -> Installed {
    parhde_trace::registry::global()
        .counter("parhde_supervisor_installs_total")
        .inc();
    install_core(Some(Arc::clone(&budget.core)))
}

/// Cooperative cancellation point: true when the calling thread's budget
/// has tripped (deadline passed, cancellation requested, or memory trip
/// recorded). A pool worker helping a job polls the job's submitter's
/// budget (see the module docs). A single thread-local read when none is
/// installed, so unbudgeted runs pay essentially nothing.
#[inline]
pub fn should_stop() -> bool {
    with_installed(BudgetCore::check).unwrap_or(false)
}

/// The calling thread's budget's recorded trip, if one is installed and
/// has tripped. Pipelines call this at phase boundaries to convert a
/// kernel's early exit into their own typed error.
pub fn ambient_trip() -> Option<TripReason> {
    with_installed(|c| decode_trip(c.tripped.load(Ordering::Relaxed))).flatten()
}

/// The calling thread's budget's soft memory budget, if any. Used by
/// pipelines for phase-boundary RSS polls.
pub fn ambient_mem_budget() -> Option<u64> {
    with_installed(|c| c.mem_budget_bytes).filter(|&b| b != u64::MAX)
}

/// Records a memory trip on the calling thread's budget (no-op when none
/// is installed).
pub fn ambient_trip_memory() {
    with_installed(|c| c.record_trip(TRIP_MEMORY));
}

/// The calling thread's run context — its installed budget and its run
/// record — which the pool captures with every job so the forked work
/// polls and records into the run that forked it (see the module docs).
/// Cheap to clone.
#[derive(Clone)]
pub struct RunCtx {
    budget: Option<Arc<BudgetCore>>,
    record: parhde_trace::RecordRef,
}

impl RunCtx {
    /// Captures the calling thread's budget and run record.
    pub fn capture() -> RunCtx {
        RunCtx {
            budget: BUDGET.with(|b| b.borrow().clone()),
            record: parhde_trace::current_record(),
        }
    }

    /// Makes the captured budget and run record the calling thread's
    /// until the guard drops (also on unwind), which restores what the
    /// thread had before. An empty context is entered too: a worker that
    /// runs another run's job must not keep polling the budget its previous
    /// job installed.
    pub fn enter(&self) -> Entered {
        Entered {
            _budget: install_core(self.budget.clone()),
            _record: self.record.enter(),
        }
    }
}

/// Keeps a [`RunCtx`] entered; restores the thread's previous budget and
/// run record on drop.
pub struct Entered {
    _budget: Installed,
    _record: parhde_trace::RecordGuard,
}

// ---------------------------------------------------------------------------
// Process-wide cancellation (signal handlers)
// ---------------------------------------------------------------------------

/// Set by [`request_global_cancel`]; consulted by budgets built with
/// [`RunBudget::honoring_global_cancel`].
static GLOBAL_CANCEL: AtomicBool = AtomicBool::new(false);

/// Requests process-wide cancellation. Async-signal-safe (a single atomic
/// store), so signal handlers may call it directly.
pub fn request_global_cancel() {
    GLOBAL_CANCEL.store(true, Ordering::SeqCst);
}

/// Whether process-wide cancellation has been requested.
pub fn global_cancel_requested() -> bool {
    GLOBAL_CANCEL.load(Ordering::Relaxed)
}

/// Clears the process-wide cancellation flag (tests only).
#[doc(hidden)]
pub fn reset_global_cancel() {
    GLOBAL_CANCEL.store(false, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that request process-wide cancellation
/// ([`request_global_cancel`]) on the first signal and restore the default
/// disposition, so a second signal terminates the process immediately.
/// Budgets built with [`RunBudget::honoring_global_cancel`] then trip at
/// their next cooperative check and the run unwinds cleanly — flushing run
/// reports and checkpoints — instead of dying mid-write.
///
/// No-op on non-Unix platforms.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        const SIG_DFL: usize = 0;

        unsafe extern "C" {
            // libc `signal(2)`; linked from the C runtime every Rust binary
            // already carries, so no new dependency is involved.
            fn signal(signum: i32, handler: usize) -> usize;
        }

        extern "C" fn on_signal(signum: i32) {
            // Only async-signal-safe operations here: one atomic store plus
            // re-arming the default disposition so a second signal kills.
            request_global_cancel();
            unsafe {
                signal(signum, SIG_DFL);
            }
        }

        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

// ---------------------------------------------------------------------------
// Two-stage drain (long-running daemons)
// ---------------------------------------------------------------------------

/// Set by the first signal under [`install_two_stage_handlers`].
static DRAIN: AtomicBool = AtomicBool::new(false);

/// Whether a drain has been requested (first SIGINT/SIGTERM under the
/// two-stage handlers, or [`request_drain`]).
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::Relaxed)
}

/// Requests a drain programmatically — the same observable effect as the
/// first signal under the two-stage handlers. Async-signal-safe.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Clears the drain flag (tests only).
#[doc(hidden)]
pub fn reset_drain() {
    DRAIN.store(false, Ordering::SeqCst);
}

/// Installs the *two-stage* SIGINT/SIGTERM handlers a long-running daemon
/// needs, where the single-shot [`install_signal_handlers`] contract
/// ("request cancel, re-arm `SIG_DFL`") cannot distinguish **drain** from
/// **die**:
///
/// * the **first** signal sets the drain flag ([`drain_requested`]) and
///   returns — in-flight work keeps running, the accept loop stops taking
///   new work and the process exits 0 once drained;
/// * the **second** signal force-exits the process with status **130**
///   immediately (`_exit`, async-signal-safe — no destructors, no flush),
///   for operators who need the process gone *now*.
///
/// Unlike the single-shot handlers this does **not** request global
/// cancellation: budgets keep running until the daemon's own drain logic
/// decides to checkpoint or cancel them. No-op on non-Unix platforms.
pub fn install_two_stage_handlers() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;

        unsafe extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            // libc `_exit(2)`: terminates without running atexit handlers
            // or unwinding — the only safe way out of a signal handler.
            fn _exit(status: i32) -> !;
        }

        extern "C" fn on_signal(_signum: i32) {
            // Async-signal-safe: one atomic swap, and on the second signal
            // an immediate `_exit`. The handler stays armed between the
            // two stages (no SIG_DFL re-arm — stage two is ours).
            if DRAIN.swap(true, Ordering::SeqCst) {
                unsafe { _exit(130) }
            }
        }

        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_budget_never_trips() {
        let b = RunBudget::unbounded();
        for _ in 0..1000 {
            assert!(!b.check());
        }
        assert_eq!(b.trip(), None);
        assert_eq!(b.checks(), 1000);
    }

    #[test]
    fn deadline_trips_and_rearms() {
        let b = RunBudget::unbounded().with_deadline(Duration::from_millis(0));
        assert!(b.check());
        assert_eq!(b.trip(), Some(TripReason::Deadline));
        // Re-arming for a later slice clears the deadline trip.
        b.arm_deadline_at(Instant::now() + Duration::from_secs(3600));
        assert!(!b.check());
        assert_eq!(b.trip(), None);
    }

    #[test]
    fn cancellation_is_sticky_across_rearm() {
        let b = RunBudget::unbounded();
        b.cancel();
        assert!(b.check());
        b.arm_deadline_at(Instant::now() + Duration::from_secs(3600));
        assert!(b.check(), "cancellation must survive deadline re-arming");
        assert_eq!(b.trip(), Some(TripReason::Cancelled));
    }

    #[test]
    fn cancel_after_checks_is_deterministic() {
        let b = RunBudget::unbounded();
        b.cancel_after_checks(5);
        for _ in 0..4 {
            assert!(!b.check());
        }
        assert!(b.check());
        assert_eq!(b.trip(), Some(TripReason::Cancelled));
    }

    #[test]
    fn memory_trip_records_reason() {
        let b = RunBudget::unbounded().with_mem_budget(1 << 20);
        assert_eq!(b.mem_budget_bytes(), Some(1 << 20));
        b.trip_memory();
        assert!(b.check());
        assert_eq!(b.trip(), Some(TripReason::Memory));
    }

    #[test]
    fn ambient_install_round_trip() {
        assert!(!should_stop(), "no budget installed");
        let b = RunBudget::unbounded().with_deadline(Duration::from_millis(0));
        {
            let _g = install(&b);
            assert!(should_stop());
            assert_eq!(ambient_trip(), Some(TripReason::Deadline));
        }
        assert!(!should_stop(), "uninstalled on drop");
        assert_eq!(ambient_trip(), None);
    }

    #[test]
    fn ambient_mem_budget_visible() {
        let b = RunBudget::unbounded().with_mem_budget(123);
        let _g = install(&b);
        assert_eq!(ambient_mem_budget(), Some(123));
        ambient_trip_memory();
        assert_eq!(ambient_trip(), Some(TripReason::Memory));
    }

    #[test]
    fn global_cancel_flag_only_affects_opted_in_budgets() {
        reset_global_cancel();
        let plain = RunBudget::unbounded();
        let opted = RunBudget::unbounded().honoring_global_cancel();
        request_global_cancel();
        assert!(!plain.check());
        assert!(opted.check());
        assert_eq!(opted.trip(), Some(TripReason::Cancelled));
        reset_global_cancel();
    }

    #[test]
    fn external_cancel_flag_trips_linked_budgets() {
        let flag = cancel_flag();
        let plain = RunBudget::unbounded();
        let linked = RunBudget::unbounded().with_external_cancel(Arc::clone(&flag));
        assert!(!linked.check() && !linked.is_cancelled());
        flag.store(true, Ordering::SeqCst);
        assert!(!plain.check(), "unlinked budgets must not observe the flag");
        assert!(linked.is_cancelled());
        assert!(linked.check());
        assert_eq!(linked.trip(), Some(TripReason::Cancelled));
    }

    #[test]
    fn external_cancel_survives_budget_reshaping() {
        let flag = cancel_flag();
        let b = RunBudget::unbounded()
            .with_external_cancel(Arc::clone(&flag))
            .with_mem_budget(1 << 20)
            .honoring_global_cancel();
        flag.store(true, Ordering::SeqCst);
        assert!(b.check());
        assert_eq!(b.trip(), Some(TripReason::Cancelled));
    }

    #[test]
    fn drain_flag_round_trip() {
        reset_drain();
        assert!(!drain_requested());
        request_drain();
        assert!(drain_requested());
        reset_drain();
        assert!(!drain_requested());
    }

    #[test]
    fn remaining_counts_down() {
        let b = RunBudget::unbounded().with_deadline(Duration::from_secs(3600));
        let r = b.remaining().unwrap();
        assert!(r <= Duration::from_secs(3600) && r > Duration::from_secs(3500));
        assert_eq!(RunBudget::unbounded().remaining(), None);
    }

    #[test]
    fn captured_context_follows_the_work_onto_another_thread() {
        let b = RunBudget::unbounded();
        b.cancel();
        let _g = install(&b);
        let ctx = RunCtx::capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!should_stop(), "nothing installed on this thread");
                let empty = RunCtx::capture();
                {
                    let _e = ctx.enter();
                    assert!(should_stop());
                    // An empty context hides the entered one.
                    let _none = empty.enter();
                    assert!(!should_stop());
                }
                assert!(!should_stop(), "left on drop");
            });
        });
    }

    #[test]
    fn first_trips_are_counted_in_the_global_registry() {
        let counted = |name: &str| {
            parhde_trace::registry::global()
                .snapshot()
                .counter(name)
                .unwrap_or(0)
        };
        let before = counted("parhde_supervisor_trips_deadline_total");
        let b = RunBudget::unbounded().with_deadline(Duration::from_millis(0));
        assert!(b.check());
        assert!(b.check(), "still tripped");
        let after = counted("parhde_supervisor_trips_deadline_total");
        // Exactly one increment for this budget, however many checks ran
        // (other tests may trip their own budgets concurrently, so compare
        // against a per-test baseline with ≥).
        assert!(after > before, "{after} vs {before}");

        let before = counted("parhde_supervisor_trips_memory_total");
        let m = RunBudget::unbounded();
        m.trip_memory();
        m.trip_memory();
        assert!(counted("parhde_supervisor_trips_memory_total") > before);
    }

    #[test]
    fn trip_reason_labels_are_stable() {
        assert_eq!(TripReason::Deadline.label(), "deadline");
        assert_eq!(TripReason::Cancelled.label(), "cancelled");
        assert_eq!(TripReason::Memory.label(), "memory");
    }
}
