//! Multilevel ParHDE — the paper's stated future-work direction.
//!
//! "In future work, we will adapt ParHDE to be compatible with the
//! multilevel approach" (§5); the prior work [27, 33] already ran HDE
//! inside a multilevel pipeline. The classic scheme, implemented here:
//!
//! 1. **Coarsen** with matching contraction until the graph is small
//!    ([`parhde_graph::coarsen`]);
//! 2. **Layout** the coarsest graph with plain ParHDE;
//! 3. **Prolong + refine**: broadcast coarse positions to fine vertices and
//!    run a few weighted-centroid sweeps ([`crate::refine`]) per level to
//!    recover local detail.
//!
//! The payoff is robustness on graphs where a small BFS subspace misses
//! structure, and an overall near-linear cost profile.

use crate::config::ParHdeConfig;
use crate::layout::Layout;
use crate::parhde::par_hde;
use crate::refine::refined_axes;
use crate::stats::HdeStats;
use parhde_graph::coarsen::build_hierarchy;
use parhde_graph::CsrGraph;
use parhde_util::Xoshiro256StarStar;

/// Options for the multilevel driver.
#[derive(Clone, Debug)]
pub struct MultilevelConfig {
    /// Base ParHDE configuration (used at the coarsest level; its seed
    /// also drives coarsening and jitter).
    pub base: ParHdeConfig,
    /// Stop coarsening at or below this many vertices.
    pub coarsest_size: usize,
    /// Maximum number of coarsening levels.
    pub max_levels: usize,
    /// Centroid-refinement sweeps applied after each prolongation.
    pub refine_sweeps: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self {
            base: ParHdeConfig::default(),
            coarsest_size: 256,
            max_levels: 24,
            refine_sweeps: 8,
        }
    }
}

/// Statistics from a multilevel run.
#[derive(Clone, Debug)]
pub struct MultilevelStats {
    /// Vertex counts per level, finest first.
    pub level_sizes: Vec<usize>,
    /// The coarsest-level ParHDE statistics.
    pub coarsest: HdeStats,
}

/// Runs multilevel ParHDE on a connected graph.
///
/// # Panics
/// Panics if the graph is disconnected or too small for the coarsest-level
/// ParHDE (fewer than 8 vertices).
pub fn multilevel_hde(g: &CsrGraph, cfg: &MultilevelConfig) -> (Layout, MultilevelStats) {
    let n = g.num_vertices();
    assert!(n >= 8, "multilevel layout needs at least 8 vertices");
    let hierarchy = build_hierarchy(g, cfg.coarsest_size, cfg.max_levels, cfg.base.seed);
    let level_sizes: Vec<usize> = hierarchy.graphs.iter().map(|g| g.num_vertices()).collect();

    // Coarsest layout with plain ParHDE (clamp s to the coarse size).
    let coarsest = hierarchy.coarsest();
    let mut base = cfg.base.clone();
    base.subspace = base.subspace.min(coarsest.num_vertices() / 2).max(2);
    let (mut layout, coarsest_stats) = par_hde(coarsest, &base);

    // Walk back up: prolong, jitter (matched pairs start coincident —
    // a deterministic nudge lets refinement separate them), refine.
    let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.base.seed ^ 0x3117);
    for level in (0..hierarchy.maps.len()).rev() {
        // One cooperative check per prolongation level (strict pipeline:
        // a budget trip panics like any other defect here).
        crate::driver::strict(crate::supervise::budget_check(crate::stats::phase::INIT));
        let x = hierarchy.prolong(level, &layout.x);
        let y = hierarchy.prolong(level, &layout.y);
        let (sx, sy) = Layout::new(x.clone(), y.clone()).axis_stddev();
        let eps = 1e-3 * (sx + sy).max(f64::MIN_POSITIVE);
        let jittered = Layout::new(
            x.into_iter().map(|v| v + eps * (rng.next_f64() - 0.5)).collect(),
            y.into_iter().map(|v| v + eps * (rng.next_f64() - 0.5)).collect(),
        );
        layout = refined_axes(&hierarchy.graphs[level], &jittered, cfg.refine_sweeps);
    }

    (
        layout,
        MultilevelStats { level_sizes, coarsest: coarsest_stats },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{energy_objective, layout_quality};
    use parhde_graph::gen::{barth5_like, grid2d};

    #[test]
    fn multilevel_produces_quality_layout_on_grid() {
        let g = grid2d(50, 50);
        let (layout, stats) = multilevel_hde(&g, &MultilevelConfig::default());
        assert_eq!(layout.len(), 2500);
        assert!(stats.level_sizes.len() >= 2, "should actually coarsen");
        assert_eq!(stats.level_sizes[0], 2500);
        assert!(*stats.level_sizes.last().unwrap() <= 256);
        let q = layout_quality(&g, &layout, 400, 1);
        assert!(
            q.contraction() < 0.3,
            "multilevel layout weak: contraction {:.3}",
            q.contraction()
        );
    }

    #[test]
    fn multilevel_energy_is_competitive_with_direct() {
        let g = barth5_like();
        let (direct, _) = par_hde(&g, &ParHdeConfig::default());
        let (ml, _) = multilevel_hde(&g, &MultilevelConfig::default());
        let ed = energy_objective(&g, &direct);
        let em = energy_objective(&g, &ml);
        assert!(
            em < ed * 5.0,
            "multilevel energy {em:.6} far above direct {ed:.6}"
        );
    }

    #[test]
    fn multilevel_on_small_graph_degenerates_to_direct() {
        let g = grid2d(6, 6); // 36 < coarsest_size
        let (layout, stats) = multilevel_hde(&g, &MultilevelConfig::default());
        assert_eq!(stats.level_sizes, vec![36]);
        assert_eq!(layout.len(), 36);
    }

    #[test]
    fn multilevel_is_deterministic() {
        let g = grid2d(30, 30);
        let cfg = MultilevelConfig::default();
        let (a, _) = multilevel_hde(&g, &cfg);
        let (b, _) = multilevel_hde(&g, &cfg);
        assert_eq!(a, b);
    }
}
