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

use crate::bfs_phase::run_bfs_phase;
use crate::config::ParHdeConfig;
use crate::driver::{eigensolve, project, strict};
use crate::layout::Layout;
use crate::stats::{begin, phase, recorded, HdeStats};
use parhde_graph::CsrGraph;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_linalg::gemm::at_b;
use parhde_linalg::ortho::mgs;
use parhde_linalg::spmm::ExplicitLaplacian;
use parhde_util::Xoshiro256StarStar;

/// Runs the prior-work HDE baseline.
///
/// # Panics
/// Panics under the same conditions as [`crate::par_hde`].
pub fn prior_hde(g: &CsrGraph, cfg: &ParHdeConfig) -> (Layout, HdeStats) {
    recorded(|| prior(g, cfg))
}

fn prior(g: &CsrGraph, cfg: &ParHdeConfig) -> (Layout, HdeStats) {
    let n = g.num_vertices();
    strict(cfg.validate(n));
    let s = cfg.subspace;
    let _root = parhde_trace::span!("prior_hde");
    let mut stats = HdeStats { s_requested: s, ..HdeStats::default() };
    let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);

    // Sequential BFS phase (the decisive difference), straight into
    // columns 1..=s of S. Budget trips inside the phase surface as the
    // panic below, like every other strict defect.
    let mut smat = ColMajorMatrix::zeros(n, s + 1);
    let b = &mut smat.data_mut()[n..];
    strict(run_bfs_phase(g, b, cfg.pivots, cfg.bfs_mode, &mut rng, false, &mut stats));

    // Finish S and materialize the Laplacian the way the prior code does.
    let ph = begin(phase::INIT);
    smat.col_mut(0).fill(1.0 / (n as f64).sqrt());
    let degrees = g.degree_vector();
    let laplacian = ExplicitLaplacian::build(g);
    drop(ph);

    // D-orthogonalization (MGS, as in the prior code).
    let ph = begin(phase::DORTHO);
    let weights = cfg.d_orthogonalize.then_some(degrees.as_slice());
    let outcome = mgs(&mut smat, weights, cfg.drop_tolerance);
    debug_assert_eq!(outcome.kept.first(), Some(&0));
    let survivors: Vec<usize> = (1..smat.cols()).collect();
    smat.retain_columns(&survivors);
    stats.dropped_columns = outcome.dropped.len();
    stats.s_kept = smat.cols();
    drop(ph);
    // Trip wins over the spurious degeneracy an abandoned ortho creates.
    crate::supervise::budget_check_strict(phase::DORTHO);
    assert!(smat.cols() >= 2, "fewer than two directions survived");

    // TripleProd through the explicit Laplacian.
    let ph = begin(phase::LS);
    let p = laplacian.spmm(&smat);
    drop(ph);
    crate::supervise::budget_check_strict(phase::LS);
    let ph = begin(phase::GEMM);
    let z = at_b(&smat, &p);
    drop(ph);
    crate::supervise::budget_check_strict(phase::GEMM);

    // Eigensolve + projection, ParHDE's own steps.
    let y = strict(eigensolve(&smat, &z, weights, 2, &mut stats));
    let coords = strict(project(&smat, &y));
    (Layout::from_coords(&coords), stats)
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
