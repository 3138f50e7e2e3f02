//! Per-run statistics, the phase vocabulary and the run report.
//!
//! Figures 3, 5 and 6 of the paper are percentage breakdowns over four
//! canonical buckets — BFS, TripleProd, DOrtho, Other — with Figure 5
//! additionally splitting BFS into traversal vs. overhead and TripleProd
//! into `LS` vs. `Sᵀ(LS)`. The pipelines time their fine-grained phases
//! with [`begin`] guards into the thread's run record
//! ([`parhde_trace::Record`]); every pipeline call opens its own record
//! ([`recorded`]) and reads [`HdeStats::phases`], counters, gauges and
//! warnings back from it, and [`HdeStats::grouped`] folds the phases into
//! the canonical buckets. [`render_report`] renders run report v1 from a
//! record for both binaries.

use crate::error::Warning;
use parhde_trace::{PhaseAccumulator, RunReport, Totals};

/// The phase vocabulary: every name a pipeline records a phase under.
pub mod phase {
    /// Writes each phase once: its constant and its [`ALL`] entry.
    macro_rules! vocabulary {
        ($($(#[$doc:meta])* $konst:ident = $name:literal in $bucket:literal;)*) => {
            $($(#[$doc])* pub const $konst: &str = $name;)*

            /// Every phase, in vocabulary order: its name, the Figure-3
            /// bucket it folds into (`BFS`, `TripleProd`, `DOrtho` or
            /// `Other`) and the counter a traced run records its peak-RSS
            /// growth in.
            pub const ALL: &[(&str, &str, &str)] =
                &[$(($name, $bucket, concat!("process.peak_rss_delta.", $name))),*];
        };
    }

    vocabulary! {
        /// BFS/SSSP traversal proper.
        BFS = "bfs" in "BFS";
        /// Source-selection overhead (min-distance update + farthest argmax).
        BFS_OTHER = "bfs_other" in "BFS";
        /// Gram-Schmidt (D-)orthogonalization.
        DORTHO = "dortho" in "DOrtho";
        /// The `P = L·S` implicit SpMM.
        LS = "ls" in "TripleProd";
        /// The `Z = Sᵀ·P` dense product ("dgemm" in the paper).
        GEMM = "gemm" in "TripleProd";
        /// The fused one-pass TripleProd `Z = Sᵀ·L·S` (replaces `ls` +
        /// `gemm` under `--linalg-mode fused`).
        FUSED = "fused_triple" in "TripleProd";
        /// Column centering (PHDE).
        COL_CENTER = "col_center" in "TripleProd";
        /// Double centering (PivotMDS).
        DBL_CENTER = "dbl_center" in "TripleProd";
        /// The small eigensolve.
        EIGEN = "eigensolve" in "Other";
        /// Final projection to coordinates.
        PROJECT = "project" in "Other";
        /// Initialization (allocation, seeding).
        INIT = "init" in "Other";
        /// Post-BFS checkpoint serialization.
        CHECKPOINT = "checkpoint" in "Other";
    }

    /// The [`ALL`] entry of phase `name`.
    pub fn lookup(name: &str) -> Option<&'static (&'static str, &'static str, &'static str)> {
        ALL.iter().find(|(n, _, _)| *n == name)
    }
}

/// Starts phase `name` of the [`phase`] vocabulary in the thread's record;
/// the guard adds the phase's wall time when dropped.
pub(crate) fn begin(name: &'static str) -> parhde_trace::PhaseGuard {
    let entry = phase::lookup(name);
    debug_assert!(entry.is_some(), "phase {name} is outside the vocabulary");
    parhde_trace::phase(name, entry.map_or("process.peak_rss_delta.other", |e| e.2))
}

/// Records a degradation in the thread's record, where the call's
/// [`HdeStats::warnings`] and every report read it back.
pub(crate) fn warn(w: Warning) {
    parhde_trace::warning(w);
}

/// A pipeline result that carries the [`HdeStats`] of its call.
pub(crate) trait Recorded {
    /// The call's stats, if it produced any.
    fn stats_mut(&mut self) -> Option<&mut HdeStats>;
}

impl<T> Recorded for (T, HdeStats) {
    fn stats_mut(&mut self) -> Option<&mut HdeStats> {
        Some(&mut self.1)
    }
}

impl<T: Recorded, E> Recorded for Result<T, E> {
    fn stats_mut(&mut self) -> Option<&mut HdeStats> {
        self.as_mut().ok().and_then(Recorded::stats_mut)
    }
}

/// Runs one pipeline call in its own record, nested in the thread's
/// current one, and reads the call's phases, counters, gauges and warnings
/// back into its stats. Closing the record adds its totals to the
/// enclosing record, also when the call fails.
pub(crate) fn recorded<T: Recorded>(call: impl FnOnce() -> T) -> T {
    let record = parhde_trace::Record::open();
    let mut out = call();
    let totals = record.close();
    if let Some(stats) = out.stats_mut() {
        stats.read(totals);
    }
    out
}

/// The four canonical breakdown buckets of Figures 3/5/6.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupedBreakdown {
    /// BFS traversal + source selection, seconds.
    pub bfs: f64,
    /// `LS` + `Sᵀ(LS)` (or the centering + matmul stages for PHDE/PivotMDS),
    /// seconds.
    pub triple_prod: f64,
    /// (D-)orthogonalization, seconds.
    pub dortho: f64,
    /// Everything else (eigensolve, projection, init, checkpoint), seconds.
    pub other: f64,
}

impl GroupedBreakdown {
    /// Folds `phases` into the buckets their [`phase::ALL`] entries name;
    /// a name outside the vocabulary counts as Other.
    pub fn of(phases: &PhaseAccumulator) -> GroupedBreakdown {
        let mut g = GroupedBreakdown { bfs: 0.0, triple_prod: 0.0, dortho: 0.0, other: 0.0 };
        for (name, d) in phases.iter() {
            let bucket = match phase::lookup(name).map(|e| e.1) {
                Some("BFS") => &mut g.bfs,
                Some("TripleProd") => &mut g.triple_prod,
                Some("DOrtho") => &mut g.dortho,
                _ => &mut g.other,
            };
            *bucket += d.as_secs_f64();
        }
        g
    }

    /// Total seconds across buckets.
    pub fn total(&self) -> f64 {
        self.bfs + self.triple_prod + self.dortho + self.other
    }

    /// The buckets as named `(label, seconds)` entries in canonical order —
    /// the rows of the Figure-3 breakdown table and of the run report.
    pub fn entries(&self) -> Vec<(String, f64)> {
        vec![
            ("BFS".to_string(), self.bfs),
            ("TripleProd".to_string(), self.triple_prod),
            ("DOrtho".to_string(), self.dortho),
            ("Other".to_string(), self.other),
        ]
    }

    /// Percentages in bucket order `[bfs, triple_prod, dortho, other]`
    /// (all zeros if nothing was recorded).
    pub fn percentages(&self) -> [f64; 4] {
        let t = self.total();
        if t <= 0.0 {
            return [0.0; 4];
        }
        [
            100.0 * self.bfs / t,
            100.0 * self.triple_prod / t,
            100.0 * self.dortho / t,
            100.0 * self.other / t,
        ]
    }
}

/// Statistics from one layout-pipeline call. `phases`, `counters`,
/// `gauges` and `warnings` are read back from the call's run record, so
/// they cover every attempt the call made (abandoned re-pivot attempts and
/// supervisor rungs included); the other fields describe the attempt that
/// produced the layout.
#[derive(Clone, Debug, Default)]
pub struct HdeStats {
    /// Fine-grained phase times, in first-seen order.
    pub phases: PhaseAccumulator,
    /// Counter totals (work metrics such as `bfs.top_down_edges`), in
    /// first-seen order.
    pub counters: Vec<(&'static str, u64)>,
    /// The last sample of each gauge, in first-seen order.
    pub gauges: Vec<(&'static str, f64)>,
    /// Requested subspace dimension `s`.
    pub s_requested: usize,
    /// Columns surviving orthogonalization (excluding the constant column).
    pub s_kept: usize,
    /// Degenerate columns dropped by DOrtho.
    pub dropped_columns: usize,
    /// The eigenvalues selected for the two layout axes (generalized
    /// Rayleigh quotients for ParHDE; `CᵀC` eigenvalues for PHDE/PivotMDS).
    pub axis_eigenvalues: Vec<f64>,
    /// The pivot vertices used, in selection order.
    pub sources: Vec<u32>,
    /// The BFS execution mode the planner resolved to (`"direction_opt"`,
    /// `"per_source"` or `"batched"`); `None` when no BFS phase ran.
    pub bfs_mode: Option<&'static str>,
    /// The TripleProd execution mode (`"fused"` or `"staged"`); `None`
    /// when the pipeline has no TripleProd-shaped phase.
    pub linalg_mode: Option<&'static str>,
    /// The compute-backend knob the run was configured with (`"auto"`,
    /// `"scalar"` or `"simd"`); `None` when the pipeline never installed
    /// one.
    pub backend: Option<&'static str>,
    /// The backend that actually served the kernels after `auto`
    /// resolution (`"scalar"` or `"simd"`); `None` when none was installed.
    pub backend_executed: Option<&'static str>,
    /// Degradations the fail-soft pipeline absorbed, in the order they
    /// happened (empty on a clean run; the strict entry points record only
    /// `NanDistances`).
    pub warnings: Vec<Warning>,
}

impl HdeStats {
    /// Folds fine-grained phases into the four canonical buckets.
    pub fn grouped(&self) -> GroupedBreakdown {
        GroupedBreakdown::of(&self.phases)
    }

    /// Total wall seconds across all recorded phases.
    pub fn total_seconds(&self) -> f64 {
        self.phases.total().as_secs_f64()
    }

    /// The total of counter `name`, if the call recorded it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Takes the call's phases, counters, gauges and typed warnings from
    /// its record's totals.
    fn read(&mut self, totals: Totals) {
        self.phases = totals.phases;
        self.counters = totals.counters;
        self.gauges = totals.gauges;
        let typed = totals.warnings.iter().filter_map(|n| n.get::<Warning>().cloned());
        self.warnings = typed.collect();
    }
}

/// Renders run report v1 from a run's record: `head` carries what only
/// the caller knows (binary, algorithm, graph, configuration, exit and
/// wall time), the record supplies the phases, their Figure-3 buckets, the
/// counters, the gauges and the warnings. Both binaries write their
/// reports through this one function.
pub fn render_report(head: RunReport, totals: &Totals) -> RunReport {
    RunReport {
        phases: totals.phases.iter().map(|(n, d)| (n.to_string(), d.as_secs_f64())).collect(),
        grouped: GroupedBreakdown::of(&totals.phases).entries(),
        counters: totals.counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        gauges: totals.gauges.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        warnings: totals.warnings.iter().map(|w| w.message().to_string()).collect(),
        ..head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn grouping_folds_correctly() {
        let mut s = HdeStats::default();
        s.phases.add(phase::BFS, Duration::from_millis(60));
        s.phases.add(phase::BFS_OTHER, Duration::from_millis(40));
        s.phases.add(phase::LS, Duration::from_millis(30));
        s.phases.add(phase::GEMM, Duration::from_millis(20));
        s.phases.add(phase::DORTHO, Duration::from_millis(25));
        s.phases.add(phase::EIGEN, Duration::from_millis(5));
        let g = s.grouped();
        assert!((g.bfs - 0.1).abs() < 1e-9);
        assert!((g.triple_prod - 0.05).abs() < 1e-9);
        assert!((g.dortho - 0.025).abs() < 1e-9);
        assert!((g.other - 0.005).abs() < 1e-9);
        assert!((g.total() - 0.18).abs() < 1e-9);
        let pct = g.percentages();
        assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn vocabulary_lists_each_phase_once_with_its_bucket_and_rss_counter() {
        for (i, (name, bucket, rss)) in phase::ALL.iter().enumerate() {
            assert!(phase::ALL[..i].iter().all(|(n, _, _)| n != name), "{name} twice");
            assert!(["BFS", "TripleProd", "DOrtho", "Other"].contains(bucket), "{bucket}");
            assert_eq!(*rss, format!("process.peak_rss_delta.{name}"));
        }
        assert_eq!(phase::lookup(phase::CHECKPOINT).map(|e| e.1), Some("Other"));
        assert_eq!(phase::lookup("parhde"), None, "root spans are not phases");
    }

    #[test]
    fn the_report_renders_the_record() {
        let record = parhde_trace::Record::open();
        drop(begin(phase::BFS));
        drop(begin(phase::DORTHO));
        parhde_trace::counter!("bfs.top_down_edges", 7);
        parhde_trace::gauge!("bfs.frontier", 3.0);
        warn(Warning::TrivialLayout { n: 1 });
        let totals = record.close();
        let head = RunReport { binary: "test".into(), exit_code: 3, ..RunReport::default() };
        let report = render_report(head, &totals);
        assert_eq!((report.binary.as_str(), report.exit_code), ("test", 3));
        let names: Vec<&str> = report.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["bfs", "dortho"]);
        assert_eq!(report.grouped.len(), 4);
        assert_eq!(report.counters, vec![("bfs.top_down_edges".to_string(), 7)]);
        assert_eq!(report.gauges, vec![("bfs.frontier".to_string(), 3.0)]);
        assert_eq!(report.warnings, vec![Warning::TrivialLayout { n: 1 }.to_string()]);
    }

    #[test]
    fn fused_phase_folds_into_triple_prod() {
        let mut s = HdeStats::default();
        s.phases.add(phase::FUSED, Duration::from_millis(50));
        let g = s.grouped();
        assert!((g.triple_prod - 0.05).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let s = HdeStats::default();
        let g = s.grouped();
        assert_eq!(g.total(), 0.0);
        assert_eq!(g.percentages(), [0.0; 4]);
        assert_eq!(s.total_seconds(), 0.0);
    }
}
