//! Weighted-graph ParHDE: SSSP distances instead of BFS levels (§3.3).
//!
//! The pipeline is Algorithm 3 with two substitutions: the traversal is
//! Δ-stepping SSSP, and `D`/`L` use weighted degrees. Note the edge-weight
//! convention flip the paper inherits from HDE vs. PHDE (§2.1 vs. §2.3):
//! for the *distance* computation, weights are lengths (lower = closer),
//! while for the Laplacian they are similarities (higher = closer). Using
//! the same numbers for both makes the two effects cancel, so
//! [`WeightSemantics`] states which convention the input uses and the
//! pipeline derives the other side as the reciprocal — with a
//! [`WeightSemantics::Raw`] escape hatch that feeds the numbers to both
//! sides unchanged (the literal reading of §3.3).
//!
//! The SSSP phase and the weight handling are this module's own. The
//! fail-soft policy, the re-pivot loop and the post-BFS tail are
//! `crate::driver`'s, the tail running on the similarity-weighted
//! Laplacian.

use crate::bfs_phase::{kcenters, random_pivots};
use crate::config::{ParHdeConfig, PivotStrategy};
use crate::driver::{self, pipeline_from_s, strict, Mode, Prepared, Similarities};
use crate::error::HdeError;
use crate::layout::Layout;
use crate::stats::{recorded, HdeStats};
use parhde_graph::{prep, CsrGraph, WeightedCsr};
use parhde_linalg::dense::ColMajorMatrix;
use parhde_sssp::delta_stepping::delta_stepping_into_f64;
use parhde_util::par::prelude::*;
use parhde_util::Xoshiro256StarStar;

/// How the input edge weights should be interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WeightSemantics {
    /// Weights are **lengths** (SSSP convention: lower = closer). The
    /// Laplacian/D side uses reciprocal weights as similarities. Requires
    /// strictly positive weights.
    #[default]
    Lengths,
    /// Weights are **similarities** (Laplacian convention, §2.1: heavier =
    /// more similar). SSSP runs on reciprocal weights as lengths. Requires
    /// strictly positive weights.
    Similarities,
    /// Feed the raw numbers to both sides — the literal reading of the
    /// paper's §3.3. The SSSP stretch and the Laplacian pull then largely
    /// cancel; useful mainly for performance experiments.
    Raw,
}

/// Runs weighted ParHDE with Δ-stepping SSSP for the distance phase.
///
/// `delta` is the Δ-stepping bucket width **in length units**; pass
/// [`parhde_sssp::suggest_delta`]'s output (computed on the length-weighted
/// graph) when in doubt (§4.4 notes performance "is dependent on the
/// setting for Δ").
///
/// # Panics
/// Panics under the same conditions as [`crate::par_hde`], if `delta` is
/// not positive, or if a non-positive weight appears under a reciprocal
/// semantics.
pub fn par_hde_weighted(
    g: &WeightedCsr,
    cfg: &ParHdeConfig,
    delta: f64,
) -> (Layout, HdeStats) {
    par_hde_weighted_with(g, cfg, delta, WeightSemantics::default())
}

/// [`par_hde_weighted`] with an explicit [`WeightSemantics`].
///
/// # Panics
/// See [`par_hde_weighted`].
pub fn par_hde_weighted_with(
    g: &WeightedCsr,
    cfg: &ParHdeConfig,
    delta: f64,
    semantics: WeightSemantics,
) -> (Layout, HdeStats) {
    let strict_run = || run_weighted(g, cfg, delta, semantics, Mode::Strict);
    let (coords, stats) = strict(recorded(strict_run));
    (Layout::from_coords(&coords), stats)
}

/// Fail-soft [`par_hde_weighted`] with default ([`WeightSemantics::Lengths`])
/// semantics; see [`try_par_hde_weighted_with`].
///
/// # Errors
/// See [`try_par_hde_weighted_with`].
pub fn try_par_hde_weighted(
    g: &WeightedCsr,
    cfg: &ParHdeConfig,
    delta: f64,
) -> Result<(Layout, HdeStats), HdeError> {
    try_par_hde_weighted_with(g, cfg, delta, WeightSemantics::default())
}

/// Fail-soft weighted ParHDE: never panics on untrusted input. Carries the
/// same degradation contract as [`crate::try_par_hde`] — largest-component
/// fallback, subspace clamping, trivial layout for tiny graphs, re-pivot
/// retries — plus upfront weight validation: non-finite weights are a
/// typed error (phase `"weights"`, row = arc index), and non-positive
/// weights are rejected under the reciprocal semantics.
///
/// # Errors
/// [`HdeError::NonFiniteValue`], [`HdeError::InvalidConfig`], or
/// [`HdeError::DegenerateSubspace`] when retries are exhausted.
pub fn try_par_hde_weighted_with(
    g: &WeightedCsr,
    cfg: &ParHdeConfig,
    delta: f64,
    semantics: WeightSemantics,
) -> Result<(Layout, HdeStats), HdeError> {
    let (coords, stats) = recorded(|| run_weighted(g, cfg, delta, semantics, Mode::FailSoft))?;
    Ok((Layout::from_coords(&coords), stats))
}

/// The weighted driver behind every entry point: upfront validation, the
/// shared fail-soft policy, then [`sssp_phase`] and the shared tail under
/// the re-pivot loop. Each entry point runs it in the call's own run
/// record.
fn run_weighted(
    g: &WeightedCsr,
    cfg: &ParHdeConfig,
    delta: f64,
    semantics: WeightSemantics,
    mode: Mode,
) -> Result<(ColMajorMatrix, HdeStats), HdeError> {
    let _root = parhde_trace::span!("parhde_weighted");
    let n = g.num_vertices();
    // Upfront weight/parameter validation (both modes — a NaN weight would
    // otherwise smear through every phase before being noticed).
    if let Some(idx) = g.weights().iter().position(|w| !w.is_finite()) {
        return Err(HdeError::NonFiniteValue { phase: "weights", column: 0, row: idx });
    }
    if !(delta > 0.0 && delta.is_finite()) {
        return Err(HdeError::InvalidConfig(format!(
            "Δ bucket width must be positive and finite, got {delta}"
        )));
    }
    let mut cfg = cfg.clone();
    let largest = |_: &CsrGraph| prep::largest_component_weighted(g);
    let run = match driver::prepare(n, 2, mode, &mut cfg.subspace, Some(g.graph()), largest)? {
        Prepared::Trivial(done) => return Ok(*done),
        Prepared::Component(part, fallback) => {
            return Ok(fallback.scatter(run_weighted(&part, &cfg, delta, semantics, mode)?));
        }
        Prepared::Run(run) => run,
    };
    cfg.validate(n)?;

    // Derive the length-weighted graph (for SSSP) and the
    // similarity-weighted graph (for D and L) from the declared semantics.
    let needs_reciprocal = matches!(
        semantics,
        WeightSemantics::Lengths | WeightSemantics::Similarities
    );
    if needs_reciprocal && !g.weights().iter().all(|&x| x > 0.0) {
        return Err(HdeError::InvalidConfig(
            "reciprocal weight semantics require strictly positive weights".into(),
        ));
    }
    let reciprocal = |w: &WeightedCsr| -> WeightedCsr {
        let inv: Vec<f64> = w.weights().iter().map(|x| 1.0 / x).collect();
        WeightedCsr::from_parts_unchecked(w.graph().clone(), inv)
    };
    let (lengths, sims) = match semantics {
        WeightSemantics::Lengths => (g.clone(), reciprocal(g)),
        WeightSemantics::Similarities => (reciprocal(g), g.clone()),
        WeightSemantics::Raw => (g.clone(), g.clone()),
    };

    run.retry(mode, cfg.backend, cfg.seed, |seed, stats| {
        let smat = sssp_phase(&lengths, &cfg, delta, seed, stats)?;
        pipeline_from_s(&Similarities(&sims), &cfg, 2, smat, None, stats)
    })
}

/// The SSSP phase of one attempt: `S` with the Δ-stepping distances from
/// the pivots in columns `1..=s` (column 0 is the tail's).
fn sssp_phase(
    g: &WeightedCsr,
    cfg: &ParHdeConfig,
    delta: f64,
    seed: u64,
    stats: &mut HdeStats,
) -> Result<ColMajorMatrix, HdeError> {
    let n = g.num_vertices();
    let s = cfg.subspace;
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut smat = ColMajorMatrix::zeros(n, s + 1);
    match cfg.pivots {
        PivotStrategy::KCenters => {
            let sssp = |src, col: &mut [f64]| delta_stepping_into_f64(g, src, delta, col);
            kcenters(&mut smat, 1, &mut rng, stats, sssp, |_, _| Ok(()))?;
        }
        PivotStrategy::Random => random_pivots(&mut smat, 1, &mut rng, stats, |sources, b| {
            let reached: Vec<usize> = sources
                .par_iter()
                .zip(b.par_chunks_mut(n))
                .map(|(&src, col)| delta_stepping_into_f64(g, src, delta, col))
                .collect();
            reached.first().copied().unwrap_or(n)
        })?,
    }
    Ok(smat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parhde::par_hde;
    use parhde_graph::builder::build_weighted_from_edges;
    use parhde_graph::gen::grid2d;
    use parhde_util::Xoshiro256StarStar as Rng;

    #[test]
    fn dropped_nan_distances_reach_the_stats_warnings_in_both_modes() {
        use crate::config::LinalgBackend;
        use crate::error::Warning;
        use crate::stats::{recorded, render_report};
        use parhde_trace::{RunReport, TraceEvent, TraceSession};
        // Δ-stepping on finite weights never yields NaN, so the traversal
        // poisons one distance per pivot after the real SSSP; the
        // k-centers fold drops it and warns. That warning must reach the
        // call's stats, the run report and the trace, after the policy's
        // own.
        let wg = WeightedCsr::unit_weights(grid2d(6, 6));
        let n = wg.num_vertices();
        for (mode, requested) in [(Mode::Strict, 8), (Mode::FailSoft, 50)] {
            let mut s = requested;
            let session = TraceSession::begin();
            let (_, stats) = recorded(|| {
                let largest = driver::largest_component;
                let prepared = driver::prepare(n, 2, mode, &mut s, Some(wg.graph()), largest);
                let Ok(Prepared::Run(run)) = prepared else { panic!("expected a plain run") };
                run.retry(mode, LinalgBackend::default(), 7, |seed, stats| {
                    let mut b = ColMajorMatrix::zeros(n, s);
                    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
                    let sssp = |src, col: &mut [f64]| {
                        let reached = delta_stepping_into_f64(&wg, src, 1.0, col);
                        col[(src as usize + 1) % n] = f64::NAN;
                        reached
                    };
                    kcenters(&mut b, 0, &mut rng, stats, sssp, |_, _| Ok(()))
                })
            })
            .unwrap();
            let trace = session.finish();
            let nan = Warning::NanDistances { count: s };
            let expected = match mode {
                Mode::Strict => vec![nan],
                Mode::FailSoft => vec![Warning::SubspaceClamped { requested, clamped: n - 1 }, nan],
            };
            assert_eq!(stats.warnings, expected, "{mode:?}");
            let messages: Vec<String> = expected.iter().map(|w| w.to_string()).collect();
            let report = render_report(RunReport::default(), &trace.totals);
            assert_eq!(report.warnings, messages, "{mode:?}: run report");
            let traced: Vec<String> = trace
                .threads
                .iter()
                .flat_map(|t| &t.events)
                .filter_map(|e| match e {
                    TraceEvent::Warning(w) => Some(w.message.clone()),
                    _ => None,
                })
                .collect();
            assert_eq!(traced, messages, "{mode:?}: trace");
        }
    }

    #[test]
    fn unit_weights_reproduce_unweighted_layout() {
        // §4.4 runs SSSP with unit weights as a consistency check; the
        // distances (and thus the layout) must match the BFS pipeline.
        // Both projections, from the orthonormal basis and from the raw
        // distances, must agree.
        let g = grid2d(12, 12);
        let wg = WeightedCsr::unit_weights(g.clone());
        for project_from_raw in [false, true] {
            let cfg = ParHdeConfig { project_from_raw, ..ParHdeConfig::default() };
            let (a, sa) = par_hde(&g, &cfg);
            let (b, sb) = par_hde_weighted(&wg, &cfg, 1.0);
            assert_eq!(sa.sources, sb.sources);
            for (x, y) in a.x.iter().zip(&b.x).chain(a.y.iter().zip(&b.y)) {
                assert!((x - y).abs() < 1e-8, "project_from_raw {project_from_raw}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn random_weights_produce_sane_layout() {
        let base = grid2d(10, 10);
        let mut rng = Rng::seed_from_u64(5);
        let edges: Vec<(u32, u32, f64)> = base
            .edges()
            .map(|(u, v)| (u, v, 0.5 + rng.next_f64() * 4.5))
            .collect();
        let wg = build_weighted_from_edges(100, edges);
        let delta = parhde_sssp::suggest_delta(&wg);
        let (layout, stats) = par_hde_weighted(&wg, &ParHdeConfig::default(), delta);
        assert_eq!(layout.len(), 100);
        assert!(stats.s_kept >= 2);
        let (sx, sy) = layout.axis_stddev();
        assert!(sx > 1e-9 && sy > 1e-9);
    }

    #[test]
    fn semantics_modes_agree_on_unit_weights() {
        // 1/1 = 1, so all three semantics coincide for unit weights.
        let g = WeightedCsr::unit_weights(grid2d(8, 8));
        let cfg = ParHdeConfig::default();
        let (a, _) = par_hde_weighted_with(&g, &cfg, 1.0, WeightSemantics::Lengths);
        let (b, _) =
            par_hde_weighted_with(&g, &cfg, 1.0, WeightSemantics::Similarities);
        let (c, _) = par_hde_weighted_with(&g, &cfg, 1.0, WeightSemantics::Raw);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn length_semantics_stretch_the_long_edges() {
        // Grid whose vertical edges are 5× longer than horizontal ones
        // (similarity 1/5 after reciprocation — enough that the two
        // cheapest Laplacian modes are both vertical). The cheap variation
        // directions are then vertical, so the drawing separates vertical
        // neighbors much more than horizontal ones. (Note the global
        // aspect ratio stays ≈ 1 — spectral axes are individually
        // normalized — the weighting shows in per-direction edge lengths.)
        let base = grid2d(30, 30);
        let edges: Vec<(u32, u32, f64)> = base
            .edges()
            .map(|(u, v)| (u, v, if v == u + 1 { 1.0 } else { 5.0 }))
            .collect();
        let wg = build_weighted_from_edges(900, edges);
        let cfg = ParHdeConfig::with_subspace(15);
        let direction_ratio = |layout: &Layout| {
            let (mut h, mut hn, mut v, mut vn) = (0.0, 0usize, 0.0, 0usize);
            for (u, w) in base.edges() {
                let d = layout.distance(u, w);
                if w == u + 1 {
                    h += d;
                    hn += 1;
                } else {
                    v += d;
                    vn += 1;
                }
            }
            (v / vn as f64) / (h / hn as f64)
        };
        let (long_v, _) =
            par_hde_weighted_with(&wg, &cfg, 2.0, WeightSemantics::Lengths);
        let ratio = direction_ratio(&long_v);
        assert!(
            ratio > 2.0,
            "vertical edges should draw much longer than horizontal: {ratio:.2}"
        );
        // Raw semantics cancel and keep the two directions comparable.
        let (raw, _) = par_hde_weighted_with(&wg, &cfg, 2.0, WeightSemantics::Raw);
        let raw_ratio = direction_ratio(&raw);
        assert!(
            raw_ratio < ratio / 1.5,
            "raw ratio {raw_ratio:.2} should sit below lengths ratio {ratio:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn reciprocal_semantics_reject_zero_weights() {
        let wg = build_weighted_from_edges(3, vec![(0, 1, 0.0), (1, 2, 1.0)]);
        par_hde_weighted_with(
            &wg,
            &ParHdeConfig::with_subspace(1),
            1.0,
            WeightSemantics::Lengths,
        );
    }

    #[test]
    fn random_pivot_strategy_works_weighted() {
        let g = WeightedCsr::unit_weights(grid2d(9, 9));
        let cfg = ParHdeConfig {
            pivots: PivotStrategy::Random,
            subspace: 6,
            ..ParHdeConfig::default()
        };
        let (layout, stats) = par_hde_weighted(&g, &cfg, 1.0);
        assert_eq!(stats.sources.len(), 6);
        assert_eq!(layout.len(), 81);
    }
}
