//! The shared soft memory budget (DESIGN.md §13.3).
//!
//! The supervisor's per-run memory admission
//! ([`parhde::supervise::admit_stored`]) assumes one run per process; a
//! daemon runs many at once, so admission must be *across* concurrent
//! requests: each reserves its estimated working set from one shared pool
//! before running and releases it when done (RAII, so a panicking worker
//! still releases). Two distinct rejections fall out:
//!
//! * **never fits** — even the smallest usable subspace exceeds the whole
//!   configured budget → 413, retrying is pointless;
//! * **does not fit now** — it would fit an idle server, but concurrent
//!   reservations hold too much → 429 with a retry-after hint derived
//!   from an EWMA of recent service times.
//!
//! Bytes that outlive one request — the resident index of a packed
//! snapshot the daemon keeps open — sit on the same pool as a [`Hold`].

use parhde::config::ParHdeConfig;
use parhde::supervise::estimate_run_bytes_stored;
use parhde_graph::GraphStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why admission refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The request exceeds the total budget even at the minimum subspace.
    NeverFits {
        /// Estimated bytes at the smallest usable subspace.
        min_bytes: u64,
        /// The total configured budget.
        total: u64,
    },
    /// The request fits the total budget but not what is free right now.
    Busy {
        /// Estimated bytes at the smallest usable subspace.
        min_bytes: u64,
        /// Bytes currently free.
        free: u64,
    },
}

/// Bytes taken from the budget; dropping the hold releases them.
pub struct Hold {
    budget: Arc<SharedSoftBudget>,
    /// The bytes held.
    pub bytes: u64,
}

impl Drop for Hold {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// A successful admission: the subspace that fits and the bytes reserved
/// for it. Dropping the reservation releases the bytes.
pub struct Reservation {
    /// The reserved bytes.
    pub hold: Hold,
    /// The admitted subspace dimension (≤ requested).
    pub subspace: usize,
    /// Whether the requested subspace had to shrink to fit.
    pub downscaled: bool,
}

/// The process-wide soft budget concurrent requests draw from.
pub struct SharedSoftBudget {
    total: u64,
    reserved: AtomicU64,
}

impl SharedSoftBudget {
    /// A budget of `total` bytes.
    pub fn new(total: u64) -> Arc<Self> {
        Arc::new(SharedSoftBudget { total, reserved: AtomicU64::new(0) })
    }

    /// The configured total.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes currently reserved by in-flight requests.
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Relaxed)
    }

    /// Bytes currently free.
    pub fn free(&self) -> u64 {
        self.total.saturating_sub(self.reserved())
    }

    /// Tries to reserve exactly `bytes` (CAS loop, no lock).
    fn try_reserve(&self, bytes: u64) -> bool {
        let mut cur = self.reserved.load(Ordering::Relaxed);
        loop {
            let Some(next) = cur.checked_add(bytes) else { return false };
            if next > self.total {
                return false;
            }
            match self.reserved.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    fn release(&self, bytes: u64) {
        self.reserved.fetch_sub(bytes, Ordering::AcqRel);
    }

    /// Holds `bytes` that are already resident, whether or not they fit:
    /// requests see that much less free until the hold drops, and a hold
    /// past the total leaves nothing free.
    pub fn hold(self: &Arc<Self>, bytes: u64) -> Hold {
        self.reserved.fetch_add(bytes, Ordering::AcqRel);
        Hold { budget: Arc::clone(self), bytes }
    }

    /// Admits one layout request on `g` against the budget: walks the
    /// subspace down by halving (never below `max(p, 2)`) until the
    /// working set [`estimate_run_bytes_stored`] prices fits the currently
    /// free bytes, and reserves it. The price is the request's actual
    /// graph store: a packed mmap-backed snapshot reserves its (much
    /// smaller) resident footprint, not the plain-CSR bytes it never
    /// allocates, so more such requests run concurrently under the same
    /// pool.
    ///
    /// `held` is the part of that price already on the budget under a
    /// [`Hold`] (an open snapshot's resident bytes, shared by every
    /// request on it); the request reserves the rest. Whether it can ever
    /// fit is still judged on the whole price.
    ///
    /// # Errors
    /// [`AdmitError::NeverFits`] when the minimum subspace exceeds the
    /// *total* budget; [`AdmitError::Busy`] when it exceeds only what is
    /// free right now.
    pub fn admit_stored<G: GraphStore>(
        self: &Arc<Self>,
        g: &G,
        cfg: &ParHdeConfig,
        p: usize,
        held: u64,
    ) -> Result<Reservation, AdmitError> {
        let estimate = |s| estimate_run_bytes_stored(g, s, p, cfg.bfs_mode, cfg.linalg_mode);
        let floor = p.max(2);
        let requested = cfg.subspace.max(floor);
        let min_bytes = estimate(floor);
        if min_bytes > self.total {
            return Err(AdmitError::NeverFits { min_bytes, total: self.total });
        }
        // Failpoint: a chaos schedule can make an otherwise-admissible
        // request shed as Busy — the retryable rejection — to exercise
        // the client backoff path. Placed after the NeverFits check so
        // the *permanent* rejection stays deterministic under chaos.
        if parhde_util::failpoint::check("budget.reserve").is_some() {
            return Err(AdmitError::Busy { min_bytes, free: self.free() });
        }
        let mut s = requested;
        loop {
            let bytes = estimate(s);
            let own = bytes.saturating_sub(held);
            if bytes <= self.total && self.try_reserve(own) {
                return Ok(Reservation {
                    hold: Hold { budget: Arc::clone(self), bytes: own },
                    subspace: s,
                    downscaled: s != requested,
                });
            }
            if s == floor {
                // Fits the total (checked above) but not what is free now.
                return Err(AdmitError::Busy { min_bytes, free: self.free() });
            }
            s = (s / 2).max(floor);
        }
    }
}

/// EWMA of recent request service times, feeding the 429 retry-after hint:
/// a shed client should come back after roughly the time it takes the
/// requests ahead of it to finish.
///
/// The sample count is tracked explicitly: before the first completed
/// request there is *no* estimate, and the hint is the documented
/// [`RETRY_AFTER_MIN_MS`] floor deterministically — the old
/// `ewma == 0.0` sentinel conflated "no history" with a genuine
/// sub-millisecond sample, and multiplied the uninitialized estimate by
/// the queue depth before clamping.
pub struct ServiceClock {
    ewma_ms: Mutex<(f64, u64)>,
}

/// Floor of the retry-after hint (ms): even an idle-looking server wants
/// clients to jitter, not hammer.
pub const RETRY_AFTER_MIN_MS: u64 = 50;
/// Ceiling of the retry-after hint (ms).
pub const RETRY_AFTER_MAX_MS: u64 = 30_000;

impl Default for ServiceClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceClock {
    /// A clock with no history (hints start at the floor).
    pub fn new() -> Self {
        ServiceClock { ewma_ms: Mutex::new((0.0, 0)) }
    }

    /// Records one completed request's service time. Non-finite or
    /// negative samples (a clock went backwards, an overflowed
    /// conversion) are dropped rather than poisoning the estimate; a
    /// genuine 0.0 ms sample *does* count as history.
    pub fn record_ms(&self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        let mut state = self.ewma_ms.lock().unwrap_or_else(|e| e.into_inner());
        let (ewma, samples) = *state;
        *state = if samples == 0 {
            (ms, 1)
        } else {
            (0.8 * ewma + 0.2 * ms, samples.saturating_add(1))
        };
    }

    /// The retry-after hint for a shed request, given how much work is
    /// ahead of it (queued + in-flight requests). With no completed
    /// request yet this is exactly [`RETRY_AFTER_MIN_MS`], independent of
    /// `ahead`.
    pub fn retry_after_ms(&self, ahead: usize) -> u64 {
        let (ewma, samples) = *self.ewma_ms.lock().unwrap_or_else(|e| e.into_inner());
        if samples == 0 {
            return RETRY_AFTER_MIN_MS;
        }
        let hint = ewma * (ahead as f64 + 1.0);
        (hint as u64).clamp(RETRY_AFTER_MIN_MS, RETRY_AFTER_MAX_MS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use parhde_graph::gen::grid2d;

    fn cfg(s: usize) -> ParHdeConfig {
        ParHdeConfig::with_subspace(s)
    }

    #[test]
    fn reservations_release_on_drop() {
        let b = SharedSoftBudget::new(1 << 30);
        let r = b.admit_stored(&grid2d(100, 100), &cfg(16), 2, 0).unwrap();
        assert!(b.reserved() == r.hold.bytes && r.hold.bytes > 0);
        assert!(!r.downscaled);
        drop(r);
        assert_eq!(b.reserved(), 0);
    }

    #[test]
    fn impossible_requests_are_never_fits() {
        let b = SharedSoftBudget::new(1024);
        match b.admit_stored(&grid2d(100, 100), &cfg(16), 2, 0) {
            Err(AdmitError::NeverFits { min_bytes, total }) => {
                assert!(min_bytes > total);
            }
            Ok(r) => panic!("expected NeverFits, admitted subspace {}", r.subspace),
            Err(e) => panic!("expected NeverFits, got {e:?}"),
        }
    }

    #[test]
    fn contention_downscales_then_sheds_busy() {
        let g = grid2d(250, 200);
        let one_full = estimate_run_bytes_stored(&g, 32, 2, cfg(32).bfs_mode, cfg(32).linalg_mode);
        // Room for one full run and change, but not two.
        let b = SharedSoftBudget::new(one_full + one_full / 4);
        let first = b.admit_stored(&g, &cfg(32), 2, 0).unwrap();
        assert!(!first.downscaled);
        // The second fits only by shrinking.
        let second = b.admit_stored(&g, &cfg(32), 2, 0);
        match &second {
            Ok(r) => assert!(r.downscaled && r.subspace < 32),
            Err(AdmitError::Busy { .. }) => {}
            Err(e) => panic!("unexpected {e:?}"),
        }
        drop(second);
        drop(first);
        assert_eq!(b.reserved(), 0);
        // With the pool free again, the same request is admitted in full.
        assert!(!b.admit_stored(&g, &cfg(32), 2, 0).unwrap().downscaled);
    }

    #[test]
    fn held_bytes_are_reserved_once() {
        let g = grid2d(100, 100);
        let (mode, linalg) = (cfg(16).bfs_mode, cfg(16).linalg_mode);
        let whole = estimate_run_bytes_stored(&g, 16, 2, mode, linalg);
        let b = SharedSoftBudget::new(1 << 30);
        let held = b.hold(g.resident_bytes() as u64);
        let r = b.admit_stored(&g, &cfg(16), 2, held.bytes).unwrap();
        assert_eq!(r.hold.bytes, whole - held.bytes);
        assert_eq!(b.reserved(), whole);
        drop((r, held));
        assert_eq!(b.reserved(), 0);

        // A hold past the total leaves nothing free: a request that fits
        // the total waits (busy) rather than never fitting.
        let b = SharedSoftBudget::new(whole);
        let over = b.hold(2 * whole);
        assert_eq!(b.free(), 0);
        assert!(matches!(b.admit_stored(&g, &cfg(16), 2, 0), Err(AdmitError::Busy { .. })));
        drop(over);
        assert_eq!(b.reserved(), 0);
    }

    #[test]
    fn cold_start_hint_is_the_floor_regardless_of_queue_depth() {
        // Before the first completed request there is no estimate: the
        // hint must be the documented floor deterministically, not the
        // uninitialized EWMA scaled by whatever is ahead.
        let clock = ServiceClock::new();
        for ahead in [0, 1, 7, 1000] {
            assert_eq!(clock.retry_after_ms(ahead), RETRY_AFTER_MIN_MS);
        }
        // A genuine 0.0 ms sample counts as history (and still clamps to
        // the floor), rather than being mistaken for "no samples".
        clock.record_ms(0.0);
        assert_eq!(clock.retry_after_ms(0), RETRY_AFTER_MIN_MS);
        // A later real sample blends with the zero instead of replacing it.
        clock.record_ms(1000.0);
        let hint = clock.retry_after_ms(0);
        assert!((150..=250).contains(&hint), "0.8*0 + 0.2*1000 = 200, got {hint}");
    }

    #[test]
    fn hostile_samples_never_poison_the_estimate() {
        let clock = ServiceClock::new();
        clock.record_ms(f64::NAN);
        clock.record_ms(f64::INFINITY);
        clock.record_ms(-5.0);
        assert_eq!(clock.retry_after_ms(3), RETRY_AFTER_MIN_MS, "still cold");
        clock.record_ms(100.0);
        clock.record_ms(f64::NAN);
        assert!(clock.retry_after_ms(0) >= 80, "NaN after history is dropped");
    }

    #[test]
    fn retry_hints_track_service_time_and_clamp() {
        let clock = ServiceClock::new();
        assert_eq!(clock.retry_after_ms(0), RETRY_AFTER_MIN_MS);
        clock.record_ms(200.0);
        let one = clock.retry_after_ms(0);
        let five = clock.retry_after_ms(4);
        assert!((150..=250).contains(&one), "one={one}");
        assert!(five > one);
        clock.record_ms(1e9);
        assert_eq!(clock.retry_after_ms(100), RETRY_AFTER_MAX_MS);
    }
}
