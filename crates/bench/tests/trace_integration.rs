//! End-to-end observability tests: a [`TraceSession`] wrapped around the
//! real pipelines must hold exactly what the pipelines report in their
//! stats, its timeline must agree with both, counter totals must be
//! invariant to the thread count (they measure *work*, not schedule), and
//! sessions live on two threads at once must each hold only their own run.

use parhde::config::ParHdeConfig;
use parhde::{try_par_hde, try_pivot_mds, PhdeConfig};
use parhde_graph::gen;
use parhde_graph::prep::largest_component;
use parhde_trace::{Trace, TraceEvent, TraceSession};
use parhde_util::threads::run_with_threads;
use std::collections::HashMap;
use std::sync::Barrier;

fn cfg() -> ParHdeConfig {
    ParHdeConfig { subspace: 10, ..ParHdeConfig::default() }
}

/// Sorted counter totals of the work counters. Work counters must not
/// depend on the schedule; the process.* family measures OS memory
/// (peak-RSS deltas), which legitimately varies, so it is exempt.
fn work_totals(trace: &Trace) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = trace
        .totals
        .counters
        .iter()
        .copied()
        .filter(|(name, _)| !name.starts_with("process."))
        .collect();
    totals.sort();
    totals
}

/// Seconds per span name on the timeline, outermost occurrences only.
fn span_seconds(trace: &Trace) -> HashMap<String, f64> {
    let mut totals = HashMap::new();
    for th in &trace.threads {
        let mut stack: Vec<&str> = Vec::new();
        for ev in &th.events {
            if let TraceEvent::Span(s) = ev {
                stack.truncate(s.depth);
                let shadowed = stack.contains(&s.name.as_str());
                stack.push(&s.name);
                if !shadowed {
                    let secs = s.end_ns.saturating_sub(s.begin_ns) as f64 / 1e9;
                    *totals.entry(s.name.clone()).or_insert(0.0) += secs;
                }
            }
        }
    }
    totals
}

fn has_span(trace: &Trace, name: &str) -> bool {
    trace
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .any(|e| matches!(e, TraceEvent::Span(s) if s.name == name))
}

#[test]
fn trace_phase_seconds_agree_with_stats_breakdown() {
    let g = largest_component(&gen::kron(10, 16, 42)).graph;
    let session = TraceSession::begin();
    let (_, stats) = try_par_hde(&g, &cfg()).unwrap();
    let trace = session.finish();

    // The session's record holds exactly what the call read back.
    assert_eq!(trace.totals.phases, stats.phases);
    let traced = span_seconds(&trace);
    assert!(!stats.phases.is_empty(), "pipeline recorded no phases");
    for (name, d) in stats.phases.iter() {
        let wall = d.as_secs_f64();
        let span = *traced
            .get(name)
            .unwrap_or_else(|| panic!("phase {name} missing from trace: {traced:?}"));
        // The phase guard times the same interval its span covers; allow
        // scheduler noise between the two clock reads.
        let diff = (span - wall).abs();
        assert!(
            diff < 0.005 + 0.05 * wall.max(span),
            "phase {name}: trace says {span} s, stats say {wall} s"
        );
    }
    // The root span covers every phase.
    let root = traced.get("parhde").copied().unwrap_or(0.0);
    let phase_sum: f64 =
        stats.phases.iter().map(|(_, d)| d.as_secs_f64()).sum();
    assert!(
        root >= phase_sum * 0.95,
        "root span ({root} s) shorter than the phases it encloses ({phase_sum} s)"
    );
}

#[test]
fn trace_captures_pipeline_counters_and_root_span() {
    let g = gen::grid2d(30, 30);
    let session = TraceSession::begin();
    let (_, stats) = try_par_hde(&g, &cfg()).unwrap();
    let trace = session.finish();

    assert_eq!(trace.totals.counters, stats.counters);
    let totals: HashMap<&str, u64> = trace.totals.counters.iter().copied().collect();
    // The BFS phase traversed the graph once per pivot: edge counters must
    // reflect real work on a connected grid.
    let edges = totals.get("bfs.top_down_edges").copied().unwrap_or(0)
        + totals.get("bfs.bottom_up_edges").copied().unwrap_or(0);
    assert!(edges > 0, "no BFS edge work recorded: {totals:?}");
    // DOrtho kept the surviving columns the stats report.
    assert_eq!(
        totals.get("dortho.kept_columns").copied(),
        Some(stats.s_kept as u64 + 1),
        "kept-column counter disagrees with stats (constant column included)"
    );
    assert!(totals.contains_key("gemm.flops"), "missing gemm.flops: {totals:?}");
    // The default fused TripleProd reports its own flop/pack counters in
    // place of the staged pair's spmm.flops.
    assert!(
        totals.contains_key("linalg.fused.flops"),
        "missing linalg.fused.flops: {totals:?}"
    );
    assert!(
        totals.contains_key("linalg.fused.pack_bytes"),
        "missing linalg.fused.pack_bytes: {totals:?}"
    );
}

#[test]
fn counter_totals_are_thread_count_invariant() {
    let g = largest_component(&gen::kron(9, 12, 7)).graph;
    let mut baseline: Option<Vec<(&str, u64)>> = None;
    for threads in [1usize, 2, 4] {
        let session = TraceSession::begin();
        let result = run_with_threads(threads, || try_par_hde(&g, &cfg()));
        let trace = session.finish();
        result.unwrap();
        let totals = work_totals(&trace);
        match &baseline {
            None => baseline = Some(totals),
            Some(b) => assert_eq!(
                &totals, b,
                "counter totals changed between 1 and {threads} threads"
            ),
        }
    }
}

#[test]
fn session_isolated_runs_do_not_leak_between_sessions() {
    let g = gen::grid2d(12, 12);
    let s1 = TraceSession::begin();
    try_par_hde(&g, &cfg()).unwrap();
    let t1 = s1.finish();
    assert!(t1.num_events() > 0);
    // A fresh session starts empty even though the same threads recorded
    // into the previous one.
    let s2 = TraceSession::begin();
    let t2 = s2.finish();
    assert_eq!(t2.num_events(), 0, "events leaked across sessions");
}

#[test]
fn untraced_run_produces_identical_layout() {
    // Tracing must be observationally side-effect free: the layout from a
    // traced run is bit-identical to an untraced one.
    let g = gen::grid2d(20, 20);
    let (plain, _) = try_par_hde(&g, &cfg()).unwrap();
    let session = TraceSession::begin();
    let (traced, _) = try_par_hde(&g, &cfg()).unwrap();
    session.finish();
    assert_eq!(plain, traced);
}

#[test]
fn two_live_sessions_on_two_threads_record_only_their_own_run() {
    let hde_graph = gen::grid2d(30, 30);
    let mds_graph = largest_component(&gen::kron(9, 8, 3)).graph;
    let run_hde = || {
        let session = TraceSession::begin();
        try_par_hde(&hde_graph, &cfg()).unwrap();
        session.finish()
    };
    let run_mds = || {
        let session = TraceSession::begin();
        try_pivot_mds(&mds_graph, &PhdeConfig::default()).unwrap();
        session.finish()
    };
    let (solo_hde, solo_mds) = (run_hde(), run_mds());
    let barrier = Barrier::new(2);
    let (hde, mds) = std::thread::scope(|scope| {
        let hde = scope.spawn(|| {
            barrier.wait();
            run_hde()
        });
        let mds = scope.spawn(|| {
            barrier.wait();
            run_mds()
        });
        (hde.join().unwrap(), mds.join().unwrap())
    });
    assert_eq!(work_totals(&hde), work_totals(&solo_hde), "ParHDE session totals");
    assert_eq!(work_totals(&mds), work_totals(&solo_mds), "PivotMDS session totals");
    assert!(has_span(&hde, "parhde") && !has_span(&hde, "pivotmds"));
    assert!(has_span(&mds, "pivotmds") && !has_span(&mds, "parhde"));
}
