//! PivotMDS (Brandes & Pich) — fast approximate classical MDS.
//!
//! Computationally a sibling of PHDE (§3.2: "the computational costs of
//! PivotMDS and PHDE are identical, but they differ in their derivation"):
//! the `n×s` pivot distance matrix is **double-centered** on its *squared*
//! entries (`c_ij = −½(d²_ij − rowmean − colmean + totalmean)`) instead of
//! column-centered, and the drawing axes are again the top two eigenvectors
//! of `CᵀC` projected through `C`. Figure 6 (left/middle) shows its
//! breakdown as BFS / DblCntr / MatMul / Other. It runs through PHDE's PCA
//! driver (`phde::run_pca`); this module holds only what sets it apart.

use crate::driver::{strict, Mode};
use crate::error::HdeError;
use crate::layout::Layout;
use crate::phde::{run_pca, Pca, PhdeConfig};
use crate::stats::{phase, recorded, HdeStats};
use parhde_graph::CsrGraph;
use parhde_linalg::center::{double_center_squared, square_entries};

/// PivotMDS: double centering of the squared distances.
const PIVOT_MDS: Pca = Pca {
    root: "pivotmds",
    phase: phase::DBL_CENTER,
    center: |c| {
        square_entries(c);
        double_center_squared(c);
    },
    too_few_pivots: "PivotMDS needs at least two pivots",
};

/// Runs PivotMDS on a connected unweighted graph.
///
/// # Panics
/// Panics if the graph is disconnected or the configuration is invalid.
/// Use [`try_pivot_mds`] for a non-panicking, gracefully degrading variant.
pub fn pivot_mds(g: &CsrGraph, cfg: &PhdeConfig) -> (Layout, HdeStats) {
    let (coords, stats) = strict(recorded(|| run_pca(g, cfg, &PIVOT_MDS, Mode::Strict)));
    (Layout::from_coords(&coords), stats)
}

/// Fail-soft PivotMDS: never panics on untrusted input, with the same
/// degradation contract as [`crate::try_phde`] (largest-component fallback,
/// subspace clamping, trivial layout for tiny graphs — all recorded in
/// [`HdeStats::warnings`](crate::HdeStats::warnings)).
///
/// # Errors
/// [`HdeError::InvalidConfig`] for unusable parameters and
/// [`HdeError::NonFiniteValue`] if a numeric phase produces NaN/∞.
pub fn try_pivot_mds(
    g: &CsrGraph,
    cfg: &PhdeConfig,
) -> Result<(Layout, HdeStats), HdeError> {
    let (coords, stats) = recorded(|| run_pca(g, cfg, &PIVOT_MDS, Mode::FailSoft))?;
    Ok((Layout::from_coords(&coords), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::layout_quality;
    use parhde_graph::gen::{barth5_like, chain, grid2d};

    #[test]
    fn pivot_mds_layout_is_sane_on_grid() {
        let g = grid2d(18, 18);
        let (layout, stats) = pivot_mds(&g, &PhdeConfig::default());
        let q = layout_quality(&g, &layout, 400, 1);
        assert!(
            q.contraction() < 0.5,
            "PivotMDS failed to contract edges: {}",
            q.contraction()
        );
        assert!(stats.phases.get(phase::DBL_CENTER).is_some());
        assert!(stats.phases.get(phase::COL_CENTER).is_none());
    }

    #[test]
    fn pivot_mds_recovers_chain_geometry() {
        // Classical MDS on a path should lay it out along a line: the first
        // axis dominates the second by a large factor.
        let g = chain(200);
        let (layout, stats) = pivot_mds(
            &g,
            &PhdeConfig { subspace: 8, ..Default::default() },
        );
        let (sx, sy) = layout.axis_stddev();
        let (big, small) = if sx > sy { (sx, sy) } else { (sy, sx) };
        assert!(
            big > 5.0 * small,
            "chain should be essentially 1-D: spread {big} vs {small}"
        );
        assert!(stats.axis_eigenvalues[0] > stats.axis_eigenvalues[1]);
    }

    #[test]
    fn pivot_mds_handles_mesh_with_holes() {
        let g = barth5_like();
        let (layout, _) =
            pivot_mds(&g, &PhdeConfig { subspace: 8, ..Default::default() });
        let (sx, sy) = layout.axis_stddev();
        assert!(sx > 1e-9 && sy > 1e-9);
    }

    #[test]
    fn pivot_mds_deterministic() {
        let g = grid2d(9, 9);
        let cfg = PhdeConfig::default();
        assert_eq!(pivot_mds(&g, &cfg).0, pivot_mds(&g, &cfg).0);
    }
}
