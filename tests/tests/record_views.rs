//! Every view of a run renders from its one record. For each pipeline the
//! golden digests pin, run inside a [`TraceSession`]: the call's
//! [`HdeStats`], the run report rendered from the session's record and the
//! session's timeline must list the same phases, the same warnings in the
//! same order, and the same counter totals.

use parhde::config::{BfsMode, LinalgMode, OrthoMethod, ParHdeConfig, PivotStrategy};
use parhde::coupled::par_hde_coupled;
use parhde::prior::prior_hde;
use parhde::stats::render_report;
use parhde::{
    try_par_hde, try_par_hde_nd, try_par_hde_nd_supervised, try_par_hde_resume,
    try_par_hde_weighted_with, try_phde, try_pivot_mds, Checkpoint, CheckpointSpec, HdeStats,
    PhdeConfig, SuperviseOptions, WeightSemantics,
};
use parhde_graph::builder::build_weighted_from_edges;
use parhde_graph::gen::{self, poison};
use parhde_trace::{RunReport, Trace, TraceEvent, TraceSession};
use parhde_util::Xoshiro256StarStar;
use std::collections::BTreeMap;

/// Runs `call` in a session and checks that the stats, the rendered report
/// and the timeline agree.
fn agree(name: &str, call: impl FnOnce() -> HdeStats) {
    let session = TraceSession::begin();
    let stats = call();
    let trace = session.finish();
    let report = render_report(RunReport::default(), &trace.totals);

    // Phases: the same names in the same order, the same times.
    assert!(!stats.phases.is_empty(), "{name}: no phases");
    assert_eq!(trace.totals.phases, stats.phases, "{name}: session record");
    let phases: Vec<(String, f64)> =
        stats.phases.iter().map(|(n, d)| (n.to_string(), d.as_secs_f64())).collect();
    assert_eq!(report.phases, phases, "{name}: report phases");
    for (phase, _) in &phases {
        assert!(parhde::stats::phase::lookup(phase).is_some(), "{name}: {phase} not a phase");
        assert!(spans(&trace).contains_key(phase.as_str()), "{name}: no {phase} span");
    }

    // Warnings: the same messages in the same order.
    let warnings: Vec<String> = stats.warnings.iter().map(|w| w.to_string()).collect();
    assert_eq!(report.warnings, warnings, "{name}: report warnings");
    let traced: Vec<String> = events(&trace)
        .filter_map(|e| match e {
            TraceEvent::Warning(w) => Some(w.message.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(traced, warnings, "{name}: timeline warnings");

    // Counters: the same totals, and the timeline's deltas sum to them.
    assert!(!stats.counters.is_empty(), "{name}: no counters");
    assert_eq!(trace.totals.counters, stats.counters, "{name}: session counters");
    let reported: Vec<(&str, u64)> =
        report.counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    assert_eq!(reported, stats.counters, "{name}: report counters");
    let mut summed: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events(&trace) {
        if let TraceEvent::Counter(c) = e {
            *summed.entry(c.name.as_str()).or_default() += c.delta;
        }
    }
    let totals: BTreeMap<&str, u64> = stats.counters.iter().copied().collect();
    assert_eq!(summed, totals, "{name}: timeline counters");
    assert_eq!(trace.totals.gauges, stats.gauges, "{name}: session gauges");
}

fn events(trace: &Trace) -> impl Iterator<Item = &TraceEvent> {
    trace.threads.iter().flat_map(|t| &t.events)
}

/// Span names on the timeline, with their occurrence counts.
fn spans(trace: &Trace) -> BTreeMap<&str, usize> {
    let mut out = BTreeMap::new();
    for e in events(trace) {
        if let TraceEvent::Span(s) = e {
            *out.entry(s.name.as_str()).or_default() += 1;
        }
    }
    out
}

fn cfg(seed: u64) -> ParHdeConfig {
    ParHdeConfig { seed, ..ParHdeConfig::with_subspace(10) }
}

#[test]
fn stats_reports_and_timelines_render_one_record() {
    let none = SuperviseOptions::default();
    let grid = gen::grid2d(40, 40);
    for (name, g) in [
        ("grid", &grid),
        ("kron", &gen::kron(9, 8, 3)),
        ("pref", &gen::pref_attach(1000, 4, 5)),
    ] {
        agree(name, || try_par_hde_nd_supervised(g, &cfg(1), 2, &none).unwrap().stats);
    }
    let variants = [
        ("project_from_raw", ParHdeConfig { project_from_raw: true, ..cfg(1) }),
        ("cgs", ParHdeConfig { ortho: OrthoMethod::Cgs, ..cfg(1) }),
        ("staged", ParHdeConfig { linalg_mode: LinalgMode::Staged, ..cfg(1) }),
        ("plain_ortho", ParHdeConfig { d_orthogonalize: false, ..cfg(1) }),
        (
            "random_batched",
            ParHdeConfig { pivots: PivotStrategy::Random, bfs_mode: BfsMode::Batched, ..cfg(1) },
        ),
        ("kcenters_batched", ParHdeConfig { bfs_mode: BfsMode::Batched, ..cfg(1) }),
    ];
    for (name, c) in &variants {
        agree(name, || try_par_hde_nd(&grid, c, 2).unwrap().1);
    }
    agree("p3", || try_par_hde_nd(&grid, &cfg(1), 3).unwrap().1);
    agree("coupled", || par_hde_coupled(&grid, &cfg(1)).1);
    agree("prior", || prior_hde(&grid, &cfg(1)).1);

    let pca = PhdeConfig { seed: 1, subspace: 10, ..PhdeConfig::default() };
    agree("phde", || try_phde(&grid, &pca).unwrap().1);
    agree("pivotmds", || try_pivot_mds(&grid, &pca).unwrap().1);

    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed);
    let edges = grid.edges().map(|(u, v)| (u, v, 0.5 + 4.5 * rng.next_f64())).collect();
    let wg = build_weighted_from_edges(grid.num_vertices(), edges);
    let delta = parhde_sssp::suggest_delta(&wg);
    for (name, semantics) in [
        ("weighted_lengths", WeightSemantics::Lengths),
        ("weighted_similarities", WeightSemantics::Similarities),
    ] {
        agree(name, || try_par_hde_weighted_with(&wg, &cfg(1), delta, semantics).unwrap().1);
    }

    // Degraded runs: a disconnected input and a clamped subspace.
    agree("two_paths", || try_par_hde(&poison::two_paths(300, 100), &cfg(1)).unwrap().1);
    let clamped = ParHdeConfig { subspace: 99, ..cfg(1) };
    agree("clamped", || try_par_hde(&gen::grid2d(8, 8), &clamped).unwrap().1);

    // A checkpointed supervised run, then its resume.
    let dir = std::env::temp_dir().join(format!("parhde-record-views-{}", std::process::id()));
    let spec = CheckpointSpec::in_dir(&dir);
    let opts = SuperviseOptions { checkpoint: Some(spec.clone()), ..SuperviseOptions::default() };
    agree("checkpointed", || try_par_hde_nd_supervised(&grid, &cfg(1), 2, &opts).unwrap().stats);
    let ckpt = Checkpoint::read(&spec.file_path()).expect("checkpoint written");
    let _ = std::fs::remove_dir_all(&dir);
    agree("resumed", || try_par_hde_resume(&grid, &cfg(1), 2, &ckpt).unwrap().1);
}
