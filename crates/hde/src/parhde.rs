//! The ParHDE pipeline (Algorithm 3), in strict and fail-soft flavors.
//!
//! [`par_hde`]/[`par_hde_nd`] are the historical strict entry points: any
//! defect panics with the same messages the seed releases used. The
//! [`try_par_hde`]/[`try_par_hde_nd`] entry points never panic: defects come
//! back as typed [`HdeError`]s, and recoverable ones degrade gracefully
//! (DESIGN.md §8) — disconnected inputs fall back to the largest component
//! (paper §4.1), oversized subspaces are clamped, degenerate subspaces
//! re-pivot with a reseeded RNG — with every degradation recorded as a
//! [`Warning`](crate::Warning) in the returned stats.
//!
//! What is ParHDE's own lives here: the BFS phase straight into `S` and the
//! post-BFS checkpoint. The degradation policy, the re-pivot loop and the
//! post-BFS tail are `crate::driver`'s, shared with weighted ParHDE, PHDE,
//! PivotMDS and the coupled and prior-work ablations.

use crate::bfs_phase::run_bfs_phase;
use crate::checkpoint::{self, Checkpoint, CheckpointSpec};
use crate::config::ParHdeConfig;
use crate::driver::{self, largest_component, pipeline_from_s, strict, Mode, Prepared};
use crate::error::HdeError;
use crate::layout::Layout;
use crate::stats::{begin, phase, recorded, HdeStats};
use crate::supervise::budget_check;
use parhde_graph::store::GraphStore;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_util::Xoshiro256StarStar;

/// Runs ParHDE on a connected unweighted graph, producing a 2-D layout and
/// per-phase statistics.
///
/// # Panics
/// Panics if the configuration is invalid for the graph, if the graph is
/// not connected (run [`parhde_graph::prep::largest_component`] first —
/// the paper's §4.1 preprocessing), or if fewer than two independent
/// subspace directions survive orthogonalization. Use [`try_par_hde`] for
/// a non-panicking, gracefully degrading variant.
pub fn par_hde<G: GraphStore>(g: &G, cfg: &ParHdeConfig) -> (Layout, HdeStats) {
    let (coords, stats) = par_hde_nd(g, cfg, 2);
    (Layout::from_coords(&coords), stats)
}

/// ParHDE generalized to a `p`-dimensional embedding (§2.1: "in practice,
/// `p` is chosen to be 2 or 3 for screen layouts"). Returns the `n×p`
/// coordinate matrix (column `k` is the `k`-th axis, ordered by ascending
/// generalized eigenvalue) and the phase statistics.
///
/// # Panics
/// As [`par_hde`]; additionally requires `1 ≤ p` and at least `p`
/// surviving subspace directions.
pub fn par_hde_nd<G: GraphStore>(
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
) -> (ColMajorMatrix, HdeStats) {
    assert!(p >= 1, "embedding dimension must be at least 1");
    strict(recorded(|| run_nd(g, cfg, p, Mode::Strict, Source::Bfs(None))))
}

/// Fail-soft ParHDE: like [`par_hde`] but never panics on untrusted input.
///
/// Recoverable defects degrade with a recorded [`Warning`](crate::Warning)
/// instead of failing: disconnected graphs are laid out on their largest
/// component (remaining vertices at the centroid), `subspace ≥ n` is
/// clamped to `n − 1`, graphs too small for a spectral layout get a
/// deterministic line layout, and degenerate subspaces are retried with
/// reseeded pivots before giving up.
///
/// # Errors
/// [`HdeError::InvalidConfig`] for unusable parameters,
/// [`HdeError::DegenerateSubspace`] when re-pivot retries are exhausted,
/// and [`HdeError::NonFiniteValue`] if a numeric phase produces NaN/∞.
pub fn try_par_hde<G: GraphStore>(
    g: &G,
    cfg: &ParHdeConfig,
) -> Result<(Layout, HdeStats), HdeError> {
    let (coords, stats) = try_par_hde_nd(g, cfg, 2)?;
    Ok((Layout::from_coords(&coords), stats))
}

/// Fail-soft [`par_hde_nd`]: `p`-dimensional embedding with graceful
/// degradation; see [`try_par_hde`] for the degradation contract.
///
/// # Errors
/// As [`try_par_hde`].
pub fn try_par_hde_nd<G: GraphStore>(
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
) -> Result<(ColMajorMatrix, HdeStats), HdeError> {
    recorded(|| run_nd(g, cfg, p, Mode::FailSoft, Source::Bfs(None)))
}

/// [`try_par_hde_nd`] that additionally writes a post-BFS checkpoint of
/// every pipeline attempt into `spec`'s directory (atomically — a killed
/// run never leaves a torn checkpoint under the canonical name). Resume
/// with [`try_par_hde_resume`] to reproduce the uninterrupted result
/// bit-identically without re-running the BFS phase.
///
/// # Errors
/// As [`try_par_hde_nd`], plus [`HdeError::Io`] if the checkpoint cannot
/// be written.
pub fn try_par_hde_nd_checkpointed<G: GraphStore>(
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    spec: &CheckpointSpec,
) -> Result<(ColMajorMatrix, HdeStats), HdeError> {
    recorded(|| run_nd(g, cfg, p, Mode::FailSoft, Source::Bfs(Some(spec))))
}

/// Resumes a run from a post-BFS [`Checkpoint`]: replays the deterministic
/// downstream phases (DOrtho → TripleProd → eigensolve → projection) on
/// the stored distance matrix, reproducing the layout the uninterrupted
/// run would have produced **bit-identically**.
///
/// `g`, `cfg` and `p` must match the original invocation; the checkpoint's
/// graph digest and configuration fingerprint are verified after the same
/// fail-soft preprocessing (subspace clamping, largest-component
/// extraction) the original run applied, so passing the original
/// disconnected input resumes correctly.
///
/// # Errors
/// [`HdeError::CheckpointMismatch`] if the checkpoint does not belong to
/// this (graph, configuration, dimension) triple; otherwise as
/// [`try_par_hde_nd`], except that a degenerate subspace is not retried —
/// re-pivoting would need a fresh BFS phase, which is exactly what a
/// resume avoids.
pub fn try_par_hde_resume<G: GraphStore>(
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    ckpt: &Checkpoint,
) -> Result<(ColMajorMatrix, HdeStats), HdeError> {
    recorded(|| run_nd(g, cfg, p, Mode::FailSoft, Source::Checkpoint(ckpt)))
}

/// Where a run's distance matrix `B` comes from.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    /// The BFS phase; with a spec, every attempt writes a post-BFS
    /// checkpoint.
    Bfs(Option<&'a CheckpointSpec>),
    /// A post-BFS checkpoint, resumed in a single attempt.
    Checkpoint(&'a Checkpoint),
}

/// The ParHDE driver behind every entry point (and the supervised ladder):
/// the shared fail-soft policy, then one pipeline attempt per seed of the
/// re-pivot loop, or a single resumed attempt. Each entry point runs it in
/// the call's own run record.
pub(crate) fn run_nd<G: GraphStore>(
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    mode: Mode,
    source: Source<'_>,
) -> Result<(ColMajorMatrix, HdeStats), HdeError> {
    let _root = parhde_trace::span!("parhde");
    let n = g.num_vertices();
    let mut cfg = cfg.clone();
    let run = match driver::prepare(n, p, mode, &mut cfg.subspace, g.as_csr(), largest_component)? {
        Prepared::Trivial(done) => return Ok(*done),
        Prepared::Component(part, fallback) => {
            return Ok(fallback.scatter(run_nd(&part, &cfg, p, mode, source)?));
        }
        Prepared::Run(run) => run,
    };
    cfg.validate(n)?;
    match source {
        Source::Bfs(spec) => run.retry(mode, cfg.backend, cfg.seed, |seed, stats| {
            pipeline_once(g, &cfg, p, seed, spec, stats)
        }),
        Source::Checkpoint(ckpt) => {
            // Verified against the clamped configuration and the extracted
            // component: exactly what the original attempt saw.
            ckpt.validate_for(g, &cfg, p)?;
            run.once(cfg.backend, |stats| {
                parhde_trace::counter!("supervisor.checkpoint.resume", 1);
                stats.sources = ckpt.sources.clone();
                stats.bfs_mode = Some("resumed");
                // S = [1/√n | B], with B copied out of the checkpoint.
                let ph = begin(phase::INIT);
                let mut smat = ColMajorMatrix::zeros(n, cfg.subspace + 1);
                smat.data_mut()[n..].copy_from_slice(ckpt.b.data());
                drop(ph);
                pipeline_from_s(g, &cfg, p, smat, None, stats)
            })
        }
    }
}

/// One attempt at the full Algorithm 3 pipeline. All defects surface as
/// typed errors; the degradation policy is [`run_nd`]'s.
fn pipeline_once<G: GraphStore>(
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    seed: u64,
    ckpt: Option<&CheckpointSpec>,
    stats: &mut HdeStats,
) -> Result<ColMajorMatrix, HdeError> {
    let n = g.num_vertices();
    let s = cfg.subspace;

    // ---- Init -----------------------------------------------------------
    budget_check(phase::INIT)?;
    let ph = begin(phase::INIT);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    // S = [1/√n | B]; B is never a matrix of its own.
    let mut smat = ColMajorMatrix::zeros(n, s + 1);
    drop(ph);

    // ---- BFS phase: B straight into columns 1..=s of S -----------------
    run_bfs_phase(g, &mut smat, 1, cfg.pivots, cfg.bfs_mode, &mut rng, stats)?;

    // ---- Checkpoint (post-BFS: everything after is deterministic in B) --
    if let Some(spec) = ckpt {
        let _ph = begin(phase::CHECKPOINT);
        checkpoint::write_post_bfs(spec, g, cfg, p, seed, &stats.sources, &smat.data()[n..])?;
    }

    pipeline_from_s(g, cfg, p, smat, None, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OrthoMethod, PivotStrategy};
    use crate::quality;
    use parhde_graph::gen::{barth5_like, grid2d, pref_attach};

    #[test]
    fn grid_layout_is_sane() {
        let g = grid2d(20, 20);
        let (layout, stats) = par_hde(&g, &ParHdeConfig::default());
        assert_eq!(layout.len(), 400);
        // Not collapsed.
        let (sx, sy) = layout.axis_stddev();
        assert!(sx > 1e-6 && sy > 1e-6, "layout collapsed: {sx} {sy}");
        // All s vectors independent on a grid.
        assert_eq!(stats.s_kept, 10);
        assert_eq!(stats.sources.len(), 10);
        // Edges should be much shorter than random pairs.
        let q = quality::layout_quality(&g, &layout, 500, 1);
        assert!(
            q.mean_edge_length < 0.5 * q.mean_random_pair_distance,
            "edges not shorter than random pairs: {q:?}"
        );
    }

    #[test]
    fn kcenters_sources_are_distinct_and_spread() {
        let g = grid2d(15, 15);
        let (_, stats) = par_hde(&g, &ParHdeConfig::default());
        let set: std::collections::HashSet<_> = stats.sources.iter().collect();
        assert_eq!(set.len(), stats.sources.len(), "pivots must be distinct");
    }

    #[test]
    fn random_pivots_produce_sane_layout() {
        let g = barth5_like();
        let cfg = ParHdeConfig {
            pivots: PivotStrategy::Random,
            subspace: 12,
            ..ParHdeConfig::default()
        };
        let (layout, stats) = par_hde(&g, &cfg);
        assert_eq!(stats.sources.len(), 12);
        let q = quality::layout_quality(&g, &layout, 500, 2);
        assert!(q.mean_edge_length < 0.5 * q.mean_random_pair_distance);
    }

    #[test]
    fn cgs_matches_mgs_quality() {
        let g = grid2d(16, 16);
        let mgs_cfg = ParHdeConfig::default();
        let cgs_cfg = ParHdeConfig { ortho: OrthoMethod::Cgs, ..ParHdeConfig::default() };
        let (la, sa) = par_hde(&g, &mgs_cfg);
        let (lb, sb) = par_hde(&g, &cgs_cfg);
        assert_eq!(sa.s_kept, sb.s_kept);
        // Same pivots (same seed) ⇒ nearly identical axis eigenvalues.
        for (x, y) in sa.axis_eigenvalues.iter().zip(&sb.axis_eigenvalues) {
            assert!((x - y).abs() < 1e-6);
        }
        let qa = quality::layout_quality(&g, &la, 300, 3);
        let qb = quality::layout_quality(&g, &lb, 300, 3);
        let ra = qa.mean_edge_length / qa.mean_random_pair_distance;
        let rb = qb.mean_edge_length / qb.mean_random_pair_distance;
        assert!((ra - rb).abs() < 0.1, "quality diverged: {ra} vs {rb}");
    }

    #[test]
    fn plain_orthogonalization_variant_works() {
        // §4.5.1: orthogonalization instead of D-orthogonalization
        // approximates the Laplacian eigenvectors. On a near-regular grid
        // the layouts are "more or less identical".
        let g = grid2d(14, 14);
        let cfg = ParHdeConfig { d_orthogonalize: false, ..ParHdeConfig::default() };
        let (layout, _) = par_hde(&g, &cfg);
        let q = quality::layout_quality(&g, &layout, 300, 4);
        assert!(q.mean_edge_length < 0.5 * q.mean_random_pair_distance);
    }

    #[test]
    fn raw_projection_variant_works() {
        let g = grid2d(12, 12);
        let cfg = ParHdeConfig { project_from_raw: true, ..ParHdeConfig::default() };
        let (layout, _) = par_hde(&g, &cfg);
        let (sx, sy) = layout.axis_stddev();
        assert!(sx > 1e-9 && sy > 1e-9);
    }

    #[test]
    fn skewed_graph_layout_completes() {
        let g = pref_attach(2000, 4, 9);
        let (layout, stats) = par_hde(&g, &ParHdeConfig::default());
        assert_eq!(layout.len(), 2000);
        // Direction optimization must have engaged on this graph, and the
        // bottom-up levels must have scanned fewer arcs than ten top-down
        // sweeps over the whole graph would.
        assert!(stats.counter("bfs.switch_to_bottom_up") > Some(0), "{:?}", stats.counters);
        let scanned = stats.counter("bfs.top_down_edges").unwrap_or(0)
            + stats.counter("bfs.bottom_up_edges").unwrap_or(0);
        assert!(scanned < (g.num_arcs() * 10) as u64, "{scanned} arcs scanned");
    }

    #[test]
    fn axis_eigenvalues_are_small_and_ordered() {
        // The two smallest generalized eigenvalues approximate μ₂, μ₃ of
        // Lx = μDx — nonnegative and below the trivial upper bound 2.
        let g = grid2d(18, 18);
        let (_, stats) = par_hde(&g, &ParHdeConfig::default());
        let mu = &stats.axis_eigenvalues;
        assert_eq!(mu.len(), 2);
        assert!(mu[0] <= mu[1] + 1e-12, "axes must be ascending in μ");
        assert!(mu[0] > -1e-9, "generalized eigenvalue must be ≥ 0");
        assert!(mu[1] < 2.0 + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid2d(10, 10);
        let cfg = ParHdeConfig::default();
        let (a, _) = par_hde(&g, &cfg);
        let (b, _) = par_hde(&g, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn three_dimensional_embedding_works() {
        let g = grid2d(15, 15);
        let (coords, stats) = par_hde_nd(&g, &ParHdeConfig::default(), 3);
        assert_eq!(coords.rows(), 225);
        assert_eq!(coords.cols(), 3);
        assert_eq!(stats.axis_eigenvalues.len(), 3);
        // Ascending eigenvalues; no collapsed axis.
        for w in stats.axis_eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        for c in 0..3 {
            let col = coords.col(c);
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / col.len() as f64;
            assert!(var > 1e-12, "axis {c} collapsed");
        }
        // First two axes of the 3-D run equal the 2-D run.
        let (flat, _) = par_hde(&g, &ParHdeConfig::default());
        assert_eq!(coords.col(0), flat.x.as_slice());
        assert_eq!(coords.col(1), flat.y.as_slice());
    }

    #[test]
    fn one_dimensional_embedding_works() {
        let g = grid2d(10, 12);
        let (coords, stats) = par_hde_nd(&g, &ParHdeConfig::default(), 1);
        assert_eq!(coords.cols(), 1);
        assert_eq!(stats.axis_eigenvalues.len(), 1);
    }

    #[test]
    #[should_panic(expected = "connected graph")]
    fn disconnected_graph_rejected() {
        let g = parhde_graph::builder::build_from_edges(
            40,
            (0..19u32)
                .map(|i| (i, i + 1))
                .chain((20..39u32).map(|i| (i, i + 1)))
                .collect(),
        );
        par_hde(&g, &ParHdeConfig::with_subspace(4));
    }

    #[test]
    #[should_panic(expected = "must be below")]
    fn oversized_subspace_rejected() {
        par_hde(&grid2d(2, 3), &ParHdeConfig::with_subspace(6));
    }
}
