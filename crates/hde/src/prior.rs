//! The prior-work baseline of Table 3.
//!
//! Kirmani & Madduri's earlier parallel HDE implementation [27, 33] differs
//! from ParHDE in two load-bearing ways the paper calls out (§4.2):
//!
//! * it "does not use parallel BFS" — each of the `s` traversals is a
//!   sequential queue BFS;
//! * it materializes the Laplacian through a generic sparse-matrix library
//!   ("the use of an Eigen function for constructing the Laplacian matrix
//!   leads to a significant increase in the peak memory footprint"), and
//!   runs the triple product through that explicit matrix.
//!
//! Everything else (pivot selection, D-orthogonalization, eigensolve,
//! projection) matches ParHDE, so the measured gap between the two isolates
//! exactly the contributions the paper claims. Expect the baseline's
//! breakdown to be BFS-dominated (Figure 3, right chart).
//!
//! So the baseline is ParHDE pinned to the prior code's choices — one
//! sequential BFS per pivot, MGS, the staged triple product and projection
//! from `S` — with its materialized Laplacian plugged into the shared
//! driver's tail.

use crate::bfs_phase::run_bfs_phase;
use crate::config::{BfsMode, LinalgMode, OrthoMethod, ParHdeConfig};
use crate::driver::{pipeline_from_s, strict, Laplacian, Run};
use crate::error::HdeError;
use crate::layout::Layout;
use crate::stats::{begin, phase, recorded, HdeStats};
use parhde_graph::CsrGraph;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_linalg::spmm::ExplicitLaplacian;
use parhde_linalg::LinalgError;
use parhde_util::Xoshiro256StarStar;

/// Runs the prior-work HDE baseline.
///
/// # Panics
/// Panics under the same conditions as [`crate::par_hde`].
pub fn prior_hde(g: &CsrGraph, cfg: &ParHdeConfig) -> (Layout, HdeStats) {
    let (coords, stats) = strict(recorded(|| prior(g, cfg)));
    (Layout::from_coords(&coords), stats)
}

fn prior(g: &CsrGraph, cfg: &ParHdeConfig) -> Result<(ColMajorMatrix, HdeStats), HdeError> {
    let n = g.num_vertices();
    cfg.validate(n)?;
    let cfg = ParHdeConfig {
        bfs_mode: BfsMode::PerSource,
        ortho: OrthoMethod::Mgs,
        linalg_mode: LinalgMode::Staged,
        project_from_raw: false,
        ..cfg.clone()
    };
    let _root = parhde_trace::span!("prior_hde");
    Run::strict(cfg.subspace).once(cfg.backend, |stats| {
        // Sequential BFS phase (the decisive difference), straight into
        // columns 1..=s of S.
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);
        let mut smat = ColMajorMatrix::zeros(n, cfg.subspace + 1);
        run_bfs_phase(g, &mut smat, 1, cfg.pivots, cfg.bfs_mode, &mut rng, stats)?;

        // Materialize the Laplacian the way the prior code does.
        let ph = begin(phase::INIT);
        let lap = Materialized { g, lap: ExplicitLaplacian::build(g) };
        drop(ph);
        pipeline_from_s(&lap, &cfg, 2, smat, None, stats)
    })
}

/// The prior code's Laplacian: built once as an explicit sparse matrix,
/// then multiplied as one.
struct Materialized<'g> {
    g: &'g CsrGraph,
    lap: ExplicitLaplacian,
}

impl Laplacian for Materialized<'_> {
    fn degrees(&self) -> Vec<f64> {
        self.g.degree_vector()
    }

    fn spmm(&self, _: &[f64], s: &ColMajorMatrix) -> Result<ColMajorMatrix, LinalgError> {
        Ok(self.lap.spmm(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parhde::par_hde;
    use parhde_graph::gen::grid2d;

    #[test]
    fn prior_matches_parhde_result() {
        // Same pivots (deterministic BFS distances), same math ⇒ the two
        // implementations must agree numerically; only speed differs.
        let g = grid2d(15, 15);
        let cfg = ParHdeConfig::default();
        let (la, sa) = par_hde(&g, &cfg);
        let (lb, sb) = prior_hde(&g, &cfg);
        assert_eq!(sa.sources, sb.sources);
        assert_eq!(sa.s_kept, sb.s_kept);
        for (a, b) in la.x.iter().zip(&lb.x) {
            assert!((a - b).abs() < 1e-8);
        }
        for (a, b) in la.y.iter().zip(&lb.y) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn prior_reports_no_direction_opt_stats() {
        let g = grid2d(10, 10);
        let (_, stats) = prior_hde(&g, &ParHdeConfig::default());
        // Sequential BFS records no traversal counters.
        assert!(stats.counters.iter().all(|(n, _)| !n.starts_with("bfs.")), "{:?}", stats.counters);
        assert!(stats.counter("dortho.kept_columns").is_some(), "{:?}", stats.counters);
    }
}
