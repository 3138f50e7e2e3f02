//! **parhde-trace** — structured observability for the ParHDE workspace.
//!
//! The paper's whole evaluation (Figures 3, 5, 6; Tables 3–5) is built on
//! *per-phase breakdowns*: how much of a run went to BFS, to
//! D-Orthogonalization, to the TripleProd products, to everything else.
//! This crate is the measurement substrate behind those numbers and every
//! future performance PR:
//!
//! * **The run record** ([`Record`]) — phase times, counter sums, last
//!   gauge values and warnings of one run, written once and read by every
//!   view: `HdeStats`, the run report ([`report`]), the Figure-3 table
//!   ([`phases`]) and the daemon's `STATS` histograms. Records belong to a
//!   thread and nest: every pipeline call opens one inside the thread's
//!   current record and adds its totals to it on close. Work forked off a
//!   recording thread enters the record captured before the fork
//!   ([`RecordRef`]); on a thread with no record, recording is a single
//!   thread-local read and nothing else — kernels stay instrumented at
//!   all times with negligible overhead.
//! * **Counters and gauges** — typed work metrics ([`counter!`],
//!   [`gauge!`]): edges scanned per BFS direction, Δ-stepping relaxations,
//!   Gram-Schmidt projection counts, GEMM/SpMM FLOPs, frontier sizes.
//!   Counters are deltas that sum; a record keeps each gauge's last sample.
//! * **The timeline** — hierarchical RAII spans ([`span!`]) and every
//!   event with its timestamp, kept only by a record a [`TraceSession`]
//!   opened, merged into a [`Trace`] at the end. The Chrome `trace_event`
//!   export ([`chrome`], viewable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)) and the NDJSON event stream
//!   ([`ndjson`]) render it.
//!
//! The crate is dependency-free.
//!
//! # Example
//!
//! ```
//! let session = parhde_trace::TraceSession::begin();
//! {
//!     let _outer = parhde_trace::span!("bfs");
//!     {
//!         let _inner = parhde_trace::span!("bfs.top_down");
//!         parhde_trace::counter!("bfs.top_down_edges", 128);
//!     }
//! }
//! let trace = session.finish();
//! assert_eq!(trace.totals.counter("bfs.top_down_edges"), Some(128));
//! let mut out = Vec::new();
//! parhde_trace::chrome::write_chrome_trace(&trace, &mut out).unwrap();
//! assert!(String::from_utf8(out).unwrap().contains("\"bfs.top_down\""));
//! ```

#![warn(missing_docs)]

mod record;
mod session;

pub mod chrome;
pub mod json;
pub mod ndjson;
pub mod phases;
pub mod registry;
pub mod report;

pub use record::{
    counter, current_record, enabled, gauge, phase, span, timeline_enabled, warning, Note,
    PhaseGuard, Record, RecordGuard, RecordRef, SpanGuard, Totals,
};
pub use phases::PhaseAccumulator;
pub use report::RunReport;
pub use session::{
    CounterEvent, GaugeEvent, SpanEvent, ThreadTrace, Trace, TraceEvent, TraceSession,
    WarningEvent,
};

/// Opens a hierarchical span named by a `&'static str`; returns an RAII
/// guard that closes the span when dropped. A no-op (and allocation-free)
/// unless the thread's record keeps a timeline ([`TraceSession`]).
///
/// ```
/// let _g = parhde_trace::span!("dortho");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Adds a delta to a named counter in the thread's record (on a timeline,
/// attributed to the innermost open span). No-op when the thread records
/// into no record.
///
/// ```
/// parhde_trace::counter!("gemm.flops", 1024);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        $crate::counter($name, $delta)
    };
}

/// Records a point sample of a named gauge (frontier size, bandwidth,
/// RSS…). No-op when the thread records into no record.
///
/// ```
/// parhde_trace::gauge!("bfs.frontier", 4096.0);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        $crate::gauge($name, $value)
    };
}

/// Peak resident set size of the current process in bytes, read from
/// `/proc/self/status` (`VmHWM`). Returns `None` off Linux or if the
/// pseudo-file is unreadable — callers treat the gauge as best-effort.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

/// Current resident set size of the current process in bytes, read from
/// `/proc/self/status` (`VmRSS`). Unlike [`peak_rss_bytes`] this can go
/// *down* when large allocations are returned to the OS, which is what the
/// run supervisor's phase-boundary memory polls need: after a
/// budget-tripped attempt frees its matrices, a cheaper retry must not be
/// condemned by the old attempt's high-water mark.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS:")
}

fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(rss) = super::peak_rss_bytes() {
            // More than a page, less than a terabyte.
            assert!(rss > 4096 && rss < (1 << 40), "implausible RSS {rss}");
        }
    }

    #[test]
    fn current_rss_is_at_most_peak() {
        if let (Some(cur), Some(peak)) =
            (super::current_rss_bytes(), super::peak_rss_bytes())
        {
            assert!(cur > 4096 && cur < (1 << 40), "implausible RSS {cur}");
            assert!(cur <= peak, "current {cur} above high-water mark {peak}");
        }
    }
}
