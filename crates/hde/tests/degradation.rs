//! Degradation-contract tests: every fail-soft entry point must degrade
//! the way DESIGN.md §8 documents — a trivial line layout for graphs too
//! small to lay out, clamping equal to the strict run at the clamped
//! subspace, a largest-component fallback equal to an explicit
//! `prep::largest_component` run — and every degraded path stays
//! deterministic under a fixed seed.

use parhde::config::{BfsMode, ParHdeConfig};
use parhde::{
    par_hde, par_hde_weighted, phde, pivot_mds, try_par_hde, try_par_hde_nd_checkpointed,
    try_par_hde_resume, try_par_hde_weighted, try_phde, try_pivot_mds, Checkpoint,
    CheckpointSpec, HdeError, HdeStats, Layout, PhdeConfig, Warning,
};
use parhde_graph::gen::poison;
use parhde_graph::{builder, gen, prep, CsrGraph, WeightedCsr};
use parhde_linalg::dense::ColMajorMatrix;
use parhde_trace::{TraceEvent, TraceSession};
use std::sync::atomic::{AtomicUsize, Ordering};

type FailSoft = fn(&CsrGraph, usize) -> Result<(Layout, HdeStats), HdeError>;

/// A fail-soft entry point, and the strict run its degraded result must
/// reproduce; both take the graph and the subspace dimension `s`.
struct Entry {
    name: &'static str,
    failsoft: FailSoft,
    strict: fn(&CsrGraph, usize) -> Layout,
}

fn cfg(s: usize) -> ParHdeConfig {
    ParHdeConfig::with_subspace(s)
}

fn pca(s: usize) -> PhdeConfig {
    PhdeConfig { subspace: s, ..PhdeConfig::default() }
}

fn unit(g: &CsrGraph) -> WeightedCsr {
    WeightedCsr::unit_weights(g.clone())
}

fn entries() -> [Entry; 5] {
    [
        Entry {
            name: "try_par_hde",
            failsoft: |g, s| try_par_hde(g, &cfg(s)),
            strict: |g, s| par_hde(g, &cfg(s)).0,
        },
        Entry {
            name: "try_phde",
            failsoft: |g, s| try_phde(g, &pca(s)),
            strict: |g, s| phde(g, &pca(s)).0,
        },
        Entry {
            name: "try_pivot_mds",
            failsoft: |g, s| try_pivot_mds(g, &pca(s)),
            strict: |g, s| pivot_mds(g, &pca(s)).0,
        },
        Entry {
            name: "try_par_hde_weighted",
            failsoft: |g, s| try_par_hde_weighted(&unit(g), &cfg(s), 1.0),
            strict: |g, s| par_hde_weighted(&unit(g), &cfg(s), 1.0).0,
        },
        Entry {
            name: "try_par_hde_resume",
            failsoft: resume,
            strict: |g, s| par_hde(g, &cfg(s)).0,
        },
    ]
}

/// Writes a checkpoint with [`try_par_hde_nd_checkpointed`] on `g`, then
/// resumes from it on the same input.
fn resume(g: &CsrGraph, s: usize) -> Result<(Layout, HdeStats), HdeError> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "parhde-degradation-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let spec = CheckpointSpec::in_dir(&dir);
    let written = try_par_hde_nd_checkpointed(g, &cfg(s), 2, &spec);
    let read = Checkpoint::read(&spec.file_path());
    let _ = std::fs::remove_dir_all(&dir);
    written?;
    let ckpt = if g.num_vertices() <= 2 {
        // Too small to lay out: no checkpoint is written, and the trivial
        // rule fires before resume consults one, so an empty one serves.
        assert!(read.is_err(), "a trivial run wrote a checkpoint");
        Checkpoint {
            graph_digest: 0,
            seed: 0,
            embed_dim: 2,
            config_fingerprint: 0,
            sources: Vec::new(),
            b: ColMajorMatrix::zeros(0, 0),
        }
    } else {
        read?
    };
    let (coords, stats) = try_par_hde_resume(g, &cfg(s), 2, &ckpt)?;
    Ok((Layout::new(coords.col(0).to_vec(), coords.col(1).to_vec()), stats))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn tiny_graphs_get_exactly_the_trivial_layout() {
    for g in [poison::singleton(), builder::build_from_edges(2, vec![(0, 1)])] {
        let n = g.num_vertices();
        for e in entries() {
            let (layout, stats) =
                (e.failsoft)(&g, 10).unwrap_or_else(|err| panic!("{} on n = {n}: {err}", e.name));
            assert_eq!(stats.warnings, vec![Warning::TrivialLayout { n }], "{}", e.name);
            let line: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(bits(&layout.x), bits(&line), "{}", e.name);
            assert_eq!(bits(&layout.y), bits(&vec![0.0; n]), "{}", e.name);
        }
    }
}

#[test]
fn subspace_clamp_matches_explicit_feasible_run() {
    let g = gen::grid2d(5, 5); // n = 25
    for e in entries() {
        let (clamped, stats) =
            (e.failsoft)(&g, 25).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(
            stats.warnings,
            vec![Warning::SubspaceClamped { requested: 25, clamped: 24 }],
            "{}",
            e.name
        );
        let explicit = (e.strict)(&g, 24);
        assert_eq!(bits(&clamped.x), bits(&explicit.x), "{}: x moved", e.name);
        assert_eq!(bits(&clamped.y), bits(&explicit.y), "{}: y moved", e.name);
    }
}

#[test]
fn disconnected_fallback_matches_explicit_largest_component_run() {
    let g = poison::two_paths(24, 7);
    let ext = prep::largest_component(&g);
    let kept: std::collections::HashSet<u32> = ext.old_ids.iter().copied().collect();
    for e in entries() {
        let (fallback, stats) =
            (e.failsoft)(&g, 10).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(
            stats.warnings,
            vec![Warning::DisconnectedFallback { components: 2, kept: 24, n: 31 }],
            "{}",
            e.name
        );

        // The degraded layout must be exactly what a user doing the
        // paper's §4.1 preprocessing by hand would get on the kept
        // component…
        let explicit = (e.strict)(&ext.graph, 10);
        for (v, &orig) in ext.old_ids.iter().enumerate() {
            let orig = orig as usize;
            assert_eq!(fallback.x[orig].to_bits(), explicit.x[v].to_bits(), "{}: x", e.name);
            assert_eq!(fallback.y[orig].to_bits(), explicit.y[v].to_bits(), "{}: y", e.name);
        }

        // …with every vertex outside the component parked at its centroid.
        let n_kept = ext.graph.num_vertices() as f64;
        let cx = explicit.x.iter().sum::<f64>() / n_kept;
        let cy = explicit.y.iter().sum::<f64>() / n_kept;
        for v in (0..g.num_vertices()).filter(|&v| !kept.contains(&(v as u32))) {
            assert_eq!(fallback.x[v].to_bits(), cx.to_bits(), "{}: straggler {v}", e.name);
            assert_eq!(fallback.y[v].to_bits(), cy.to_bits(), "{}: straggler {v}", e.name);
        }
    }
}

/// On a 3-vertex path with s = 2, k-centers picking both endpoints yields
/// distance columns that sum to a constant — a genuinely degenerate
/// subspace (rank 2 with the constant column). The first attempt then
/// fails and the re-pivot retry must rescue it deterministically.
#[test]
fn repivot_retry_is_deterministic_under_fixed_seed() {
    let (g, seed) = repivoting_run();
    let cfg_for = |seed: u64| ParHdeConfig { seed, ..ParHdeConfig::with_subspace(2) };

    // Two runs with the identical seed: identical warnings, identical layout.
    let (a, sa) = try_par_hde(&g, &cfg_for(seed)).unwrap();
    let (b, sb) = try_par_hde(&g, &cfg_for(seed)).unwrap();
    assert_eq!(sa.warnings, sb.warnings);
    assert!(sa.warnings.iter().any(|w| matches!(w, Warning::RepivotRetry { .. })));
    assert_eq!(a.x, b.x);
    assert_eq!(a.y, b.y);
}

/// The 3-vertex path of [`repivot_retry_is_deterministic_under_fixed_seed`]
/// and the first seed whose run needs a re-pivot retry.
fn repivoting_run() -> (CsrGraph, u64) {
    let g = builder::build_from_edges(3, vec![(0, 1), (1, 2)]);
    for seed in 0..200 {
        let cfg = ParHdeConfig { seed, ..ParHdeConfig::with_subspace(2) };
        match try_par_hde(&g, &cfg) {
            Ok((_, stats)) => {
                if stats.warnings.iter().any(|w| matches!(w, Warning::RepivotRetry { .. })) {
                    return (g, seed);
                }
            }
            // All retries exhausted: must report the full retry budget.
            Err(HdeError::DegenerateSubspace { retries, .. }) => {
                assert_eq!(retries, 3, "seed {seed} gave up early");
            }
            Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
        }
    }
    panic!("no seed in 0..200 exercised the re-pivot retry");
}

#[test]
fn a_repivoted_run_keeps_its_abandoned_attempts_in_order() {
    let (g, seed) = repivoting_run();
    let cfg = ParHdeConfig { seed, ..ParHdeConfig::with_subspace(2) };
    let session = TraceSession::begin();
    let (_, stats) = try_par_hde(&g, &cfg).unwrap();
    let trace = session.finish();

    // The call's stats are its record: every attempt's phases and
    // counters, not only the last one's.
    assert_eq!(trace.totals.phases, stats.phases);
    let retries = stats
        .warnings
        .iter()
        .filter(|w| matches!(w, Warning::RepivotRetry { .. }))
        .count();
    assert!(retries >= 1);
    let kept = stats.counter("dortho.kept_columns").expect("DOrtho counted its columns");
    assert!(kept > stats.s_kept as u64 + 1, "only the last attempt was counted: {kept}");

    // On the timeline each attempt ran DOrtho, and each retry warning
    // sits between the attempt it abandoned and the next one.
    let events = || trace.threads.iter().flat_map(|t| &t.events);
    let mut dortho: Vec<u64> = events()
        .filter_map(|e| match e {
            TraceEvent::Span(s) if s.name == "dortho" => Some(s.begin_ns),
            _ => None,
        })
        .collect();
    dortho.sort_unstable();
    assert_eq!(dortho.len(), retries + 1);
    let retried: Vec<u64> = events()
        .filter_map(|e| match e {
            TraceEvent::Warning(w) if w.message.starts_with("re-pivot retry") => Some(w.t_ns),
            _ => None,
        })
        .collect();
    assert_eq!(retried.len(), retries);
    for (i, t) in retried.iter().enumerate() {
        assert!(dortho[i] < *t && *t < dortho[i + 1], "retry {i} out of order");
    }
}

#[test]
fn batched_bfs_with_k_centers_pivots_is_a_recorded_warning() {
    // K-centers pivots depend on each other, so forcing the batched kernel
    // falls back to direction-optimizing traversals — and says so in the
    // stats like every other degradation.
    let g = gen::grid2d(12, 12);
    let cfg = ParHdeConfig { bfs_mode: BfsMode::Batched, ..cfg(8) };
    let (layout, stats) = try_par_hde(&g, &cfg).unwrap();
    assert_eq!(stats.warnings, vec![Warning::BatchedBfsUnavailable]);
    assert_eq!(stats.bfs_mode, Some("direction_opt"));
    assert_eq!(layout, par_hde(&g, &self::cfg(8)).0, "the fallback is the default traversal");
}

#[test]
fn degraded_runs_are_reproducible_end_to_end() {
    // The multi-layer degradation (clamp + fallback + trivial sub-cases)
    // must also be bitwise reproducible.
    for g in [
        poison::two_paths(16, 5),
        poison::grid_with_stragglers(5, 7),
        poison::isolated(20),
    ] {
        let cfg = ParHdeConfig::with_subspace(40); // forces a clamp too
        let (a, sa) = try_par_hde(&g, &cfg).unwrap();
        let (b, sb) = try_par_hde(&g, &cfg).unwrap();
        assert_eq!(sa.warnings, sb.warnings);
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
    }
}

#[test]
fn for_graph_builds_a_feasible_config() {
    for n in [1usize, 2, 3, 5, 8, 100] {
        let cfg = ParHdeConfig::for_graph(n);
        if n >= 2 {
            cfg.validate(n).unwrap();
        }
    }
    // A for_graph config on a small connected graph runs strictly, with no
    // clamp warning on the fail-soft path.
    let g = builder::build_from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    let cfg = ParHdeConfig::for_graph(5);
    let (layout, stats) = try_par_hde(&g, &cfg).unwrap();
    assert_eq!(layout.len(), 5);
    assert!(
        !stats.warnings.iter().any(|w| matches!(w, Warning::SubspaceClamped { .. })),
        "for_graph config should never need clamping: {:?}",
        stats.warnings
    );
}
