//! PHDE — the original PCA-based high-dimensional embedding (Algorithm 2),
//! and the PCA driver it shares with PivotMDS.
//!
//! PHDE shares ParHDE's BFS phase but replaces the Laplacian machinery with
//! principal components analysis of the distance matrix: column-center `B`
//! into `C`, compute `CᵀC`, take its **top two** eigenvectors, and project
//! `[x, y] = C·Y` — which maximizes the scatter of the drawing (the
//! denominator of Equation 1 without D-normalization). Unlike ParHDE there
//! is no `L·S` product, so the matmul stage is just the `CᵀC` gemm
//! (Figure 6 right shows the resulting breakdown: BFS, ColCenter, MatMul,
//! Other).
//!
//! PivotMDS differs only in its centering step (§3.2: "the computational
//! costs of PivotMDS and PHDE are identical, but they differ in their
//! derivation"), so both run through `run_pca`, each with its own `Pca`
//! description; the fail-soft policy is `crate::driver`'s.

use crate::bfs_phase::run_bfs_phase;
use crate::config::{BfsMode, LinalgMode, ParHdeConfig, PivotStrategy};
use crate::driver::{self, largest_component, project, strict, Mode, Prepared};
use crate::error::HdeError;
use crate::layout::Layout;
use crate::stats::{begin, phase, recorded, HdeStats};
use crate::supervise::budget_check;
use parhde_graph::CsrGraph;
use parhde_linalg::center::column_center;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_linalg::eig::jacobi::try_symmetric_eigen;
use parhde_linalg::gemm::at_b;
use parhde_util::Xoshiro256StarStar;

/// Configuration for PHDE / PivotMDS: the subset of [`ParHdeConfig`]
/// options these PCA-based pipelines use.
#[derive(Clone, Debug)]
pub struct PhdeConfig {
    /// Number of BFS pivots `s` (Algorithm 2 uses 50 by default in the
    /// original paper; the reproduction defaults to 10 to match Table 5's
    /// timing setup).
    pub subspace: usize,
    /// Pivot selection strategy.
    pub pivots: PivotStrategy,
    /// BFS execution mode for the BFS phase (default: planner-chosen).
    pub bfs_mode: BfsMode,
    /// MatMul execution mode: SYRK self-product vs staged `at_b(c, c)`
    /// (bit-identical results either way).
    pub linalg_mode: LinalgMode,
    /// Compute backend for the linalg hot kernels (see
    /// [`crate::config::LinalgBackend`]).
    pub backend: crate::config::LinalgBackend,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for PhdeConfig {
    fn default() -> Self {
        Self {
            subspace: 10,
            pivots: PivotStrategy::KCenters,
            bfs_mode: BfsMode::Auto,
            linalg_mode: LinalgMode::Fused,
            backend: crate::config::LinalgBackend::Auto,
            seed: 0x9a_7de,
        }
    }
}

impl From<&ParHdeConfig> for PhdeConfig {
    fn from(c: &ParHdeConfig) -> Self {
        Self {
            subspace: c.subspace,
            pivots: c.pivots,
            bfs_mode: c.bfs_mode,
            linalg_mode: c.linalg_mode,
            backend: c.backend,
            seed: c.seed,
        }
    }
}

/// What sets one PCA pipeline apart from the other.
pub(crate) struct Pca {
    /// Name of the run's root trace span.
    pub(crate) root: &'static str,
    /// Phase name of the centering step.
    pub(crate) phase: &'static str,
    /// Centers the distance matrix `B` into `C`, in place.
    pub(crate) center: fn(&mut ColMajorMatrix),
    /// The configuration error for fewer than two pivots.
    pub(crate) too_few_pivots: &'static str,
}

/// PHDE: column centering makes every column zero-mean (two-phase, §3.2).
pub(crate) const PHDE: Pca = Pca {
    root: "phde",
    phase: phase::COL_CENTER,
    center: |c| {
        column_center(c);
    },
    too_few_pivots: "PHDE needs at least two pivots",
};

/// Runs PHDE on a connected unweighted graph.
///
/// # Panics
/// Panics if the graph is disconnected or the configuration is invalid.
/// Use [`try_phde`] for a non-panicking, gracefully degrading variant.
pub fn phde(g: &CsrGraph, cfg: &PhdeConfig) -> (Layout, HdeStats) {
    let (coords, stats) = strict(recorded(|| run_pca(g, cfg, &PHDE, Mode::Strict)));
    (Layout::from_coords(&coords), stats)
}

/// Fail-soft PHDE: never panics on untrusted input. Disconnected graphs
/// fall back to their largest component, oversized subspaces are clamped
/// to `n − 1`, and graphs with fewer than three vertices get a trivial
/// line layout — each degradation recorded in
/// [`HdeStats::warnings`](crate::HdeStats::warnings).
///
/// # Errors
/// [`HdeError::InvalidConfig`] for unusable parameters and
/// [`HdeError::NonFiniteValue`] if a numeric phase produces NaN/∞.
pub fn try_phde(g: &CsrGraph, cfg: &PhdeConfig) -> Result<(Layout, HdeStats), HdeError> {
    let (coords, stats) = recorded(|| run_pca(g, cfg, &PHDE, Mode::FailSoft))?;
    Ok((Layout::from_coords(&coords), stats))
}

/// The PCA driver of PHDE and PivotMDS: the shared fail-soft policy, the
/// BFS phase, `pca`'s centering, the covariance `CᵀC`, its top two
/// eigenvectors and the projection `[x, y] = C·Y`. Each entry point runs
/// it in the call's own run record.
///
/// # Errors
/// [`HdeError::InvalidConfig`] for unusable parameters, a budget trip, or
/// a non-finite value.
pub(crate) fn run_pca(
    g: &CsrGraph,
    cfg: &PhdeConfig,
    pca: &Pca,
    mode: Mode,
) -> Result<(ColMajorMatrix, HdeStats), HdeError> {
    let _root = parhde_trace::span!(pca.root);
    let n = g.num_vertices();
    let mut cfg = cfg.clone();
    let run = match driver::prepare(n, 2, mode, &mut cfg.subspace, Some(g), largest_component)? {
        Prepared::Trivial(done) => return Ok(*done),
        Prepared::Component(part, fallback) => {
            return Ok(fallback.scatter(run_pca(&part, &cfg, pca, mode)?));
        }
        Prepared::Run(run) => run,
    };
    if cfg.subspace < 2 {
        return Err(HdeError::InvalidConfig(pca.too_few_pivots.into()));
    }
    if cfg.subspace >= n {
        return Err(HdeError::InvalidConfig(format!(
            "subspace must be below n (s = {}, n = {n})",
            cfg.subspace
        )));
    }
    run.once(cfg.backend, |stats| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);

        // BFS phase (shared with ParHDE).
        let mut c = ColMajorMatrix::zeros(n, cfg.subspace);
        run_bfs_phase(g, &mut c, 0, cfg.pivots, cfg.bfs_mode, &mut rng, stats)?;

        let ph = begin(pca.phase);
        (pca.center)(&mut c);
        drop(ph);
        budget_check(pca.phase)?;

        // MatMul: the small covariance CᵀC — SYRK computes only the lower
        // triangle and mirrors it, bitwise identical to `at_b(c, c)`.
        stats.linalg_mode = Some(cfg.linalg_mode.label());
        let ph = begin(phase::GEMM);
        let z = match cfg.linalg_mode {
            LinalgMode::Fused => parhde_linalg::syrk::at_a(&c),
            LinalgMode::Staged => at_b(&c, &c),
        };
        drop(ph);
        // A tripped gemm returns zeroed (finite but meaningless) blocks.
        budget_check(phase::GEMM)?;

        // Eigensolve: top two eigenvectors of CᵀC (PCA axes).
        let ph = begin(phase::EIGEN);
        let (vals, y) = try_symmetric_eigen(&z)?.top(2);
        stats.axis_eigenvalues = vals;
        stats.s_kept = c.cols();
        drop(ph);
        budget_check(phase::EIGEN)?;

        project(&c, &y)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::layout_quality;
    use parhde_graph::gen::{barth5_like, grid2d};

    #[test]
    fn phde_layout_is_sane_on_grid() {
        let g = grid2d(18, 18);
        let (layout, stats) = phde(&g, &PhdeConfig::default());
        assert_eq!(layout.len(), 324);
        let q = layout_quality(&g, &layout, 400, 1);
        assert!(
            q.contraction() < 0.5,
            "PHDE failed to contract edges: {}",
            q.contraction()
        );
        assert_eq!(stats.sources.len(), 10);
        // PCA eigenvalues are nonnegative, descending.
        assert!(stats.axis_eigenvalues[0] >= stats.axis_eigenvalues[1]);
        assert!(stats.axis_eigenvalues[1] >= -1e-9);
    }

    #[test]
    fn phde_handles_mesh_with_holes() {
        let g = barth5_like();
        let (layout, _) = phde(&g, &PhdeConfig { subspace: 8, ..Default::default() });
        let (sx, sy) = layout.axis_stddev();
        assert!(sx > 1e-9 && sy > 1e-9);
    }

    #[test]
    fn phde_records_colcenter_phase() {
        let g = grid2d(10, 10);
        let (_, stats) = phde(&g, &PhdeConfig::default());
        assert!(stats.phases.get(phase::COL_CENTER).is_some());
        assert!(stats.phases.get(phase::LS).is_none(), "PHDE has no LS product");
    }

    #[test]
    fn phde_deterministic() {
        let g = grid2d(9, 9);
        let cfg = PhdeConfig::default();
        assert_eq!(phde(&g, &cfg).0, phde(&g, &cfg).0);
    }

    #[test]
    #[should_panic(expected = "at least two pivots")]
    fn rejects_tiny_subspace() {
        phde(&grid2d(4, 4), &PhdeConfig { subspace: 1, ..Default::default() });
    }
}
