//! Coupled BFS + D-orthogonalization (§4.4).
//!
//! Table 7's discussion notes that CGS "requires all distance vectors to be
//! precomputed ... whereas the default procedure can also be executed with
//! a coupled BFS and D-orthogonalization steps". The coupled schedule
//! orthogonalizes each distance vector the moment its BFS completes,
//! overlapping the O(s²n) DOrtho work across the BFS phase instead of
//! concentrating it afterwards — attractive for streaming/incremental use,
//! with byte-identical results to the decoupled MGS pipeline (same
//! operations in the same order). Pivot selection still folds the *raw*
//! distances, so the k-centers sequence is unchanged.

use crate::config::{OrthoMethod, ParHdeConfig, PivotStrategy};
use crate::driver::{eigensolve, project, strict, triple_prod};
use crate::error::Warning;
use crate::layout::Layout;
use crate::parhde::assert_connected;
use crate::pivots::{farthest_vertex, fold_min_distance};
use crate::stats::{begin, phase, recorded, warn, HdeStats};
use parhde_bfs::direction_opt::bfs_direction_opt_into_f64;
use parhde_graph::CsrGraph;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_linalg::ortho::IncrementalMgs;
use parhde_util::Xoshiro256StarStar;

/// Runs ParHDE with the coupled BFS/DOrtho schedule.
///
/// Only the k-centers pivot strategy and MGS are compatible with coupling
/// (random pivots batch all BFSes; CGS needs the full matrix).
///
/// # Panics
/// Panics like [`crate::par_hde`], or if the configuration requests random
/// pivots, CGS, or raw-basis projection.
pub fn par_hde_coupled(g: &CsrGraph, cfg: &ParHdeConfig) -> (Layout, HdeStats) {
    recorded(|| coupled(g, cfg))
}

fn coupled(g: &CsrGraph, cfg: &ParHdeConfig) -> (Layout, HdeStats) {
    let n = g.num_vertices();
    strict(cfg.validate(n));
    assert_eq!(
        cfg.pivots,
        PivotStrategy::KCenters,
        "coupled mode requires k-centers pivots"
    );
    assert_eq!(cfg.ortho, OrthoMethod::Mgs, "coupled mode requires MGS");
    assert!(
        !cfg.project_from_raw,
        "coupled mode discards raw distance columns; use the S-basis projection"
    );
    let s = cfg.subspace;
    let _root = parhde_trace::span!("parhde_coupled");
    let backend_executed = strict(crate::config::install_backend(cfg.backend));
    let mut stats = HdeStats {
        s_requested: s,
        backend: Some(cfg.backend.label()),
        backend_executed: Some(backend_executed),
        ..HdeStats::default()
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);

    let ph = begin(phase::INIT);
    let mut smat = ColMajorMatrix::zeros(n, s + 1);
    smat.col_mut(0).fill(1.0 / (n as f64).sqrt());
    let degrees = g.degree_vector();
    let weights = cfg.d_orthogonalize.then_some(degrees.as_slice());
    // Process the constant column through the same MGS step the decoupled
    // pipeline uses, so the floating-point operation sequence (and thus the
    // result) is bit-identical.
    let mut ortho = IncrementalMgs::new(weights, cfg.drop_tolerance);
    let kept0 = ortho.step(&mut smat, 0);
    debug_assert!(kept0, "the constant column has unit norm");
    let mut dropped = 0usize;
    let mut min_dist = vec![f64::INFINITY; n];
    let mut src = rng.next_index(n) as u32;
    let mut nan_dropped = 0usize;
    drop(ph);

    for i in 1..=s {
        stats.sources.push(src);
        // BFS straight into column i; pivot selection folds the raw
        // distances before the MGS step overwrites them.
        let ph = begin(phase::BFS);
        let (reached, _) = bfs_direction_opt_into_f64(g, src, smat.col_mut(i));
        drop(ph);
        // Budget check before the connectivity assert: an abandoned
        // traversal reaches fewer than n vertices, and the trip must win
        // over the spurious "disconnected" panic that would cause.
        crate::supervise::budget_check_strict(phase::BFS);
        assert_connected(reached, n);

        let ph = begin(phase::BFS_OTHER);
        // BFS levels are finite; a nonzero count means a kernel regression
        // and is worth a warning even in this strict pipeline.
        nan_dropped += fold_min_distance(&mut min_dist, smat.col(i));
        src = farthest_vertex(&min_dist);
        drop(ph);

        // Coupled DOrtho: orthogonalize this column immediately.
        let ph = begin(phase::DORTHO);
        if !ortho.step(&mut smat, i) {
            dropped += 1;
        }
        drop(ph);
    }

    // Compact to the kept non-constant columns.
    let ph = begin(phase::DORTHO);
    smat.retain_columns(ortho.kept());
    let survivors: Vec<usize> = (1..smat.cols()).collect();
    smat.retain_columns(&survivors);
    stats.dropped_columns = dropped;
    stats.s_kept = smat.cols();
    if nan_dropped > 0 {
        warn(Warning::NanDistances { count: nan_dropped });
    }
    drop(ph);
    crate::supervise::budget_check_strict(phase::DORTHO);
    assert!(smat.cols() >= 2, "fewer than two directions survived");

    // TripleProd + eigensolve + projection, the decoupled path's own steps.
    let z = strict(triple_prod(g, &degrees, &smat, cfg.linalg_mode, &mut stats));
    let y = strict(eigensolve(&smat, &z, weights, 2, &mut stats));
    let coords = strict(project(&smat, &y));
    (Layout::from_coords(&coords), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parhde::par_hde;
    use parhde_graph::gen::{barth5_like, grid2d};

    #[test]
    fn coupled_equals_decoupled_mgs() {
        // Same operations in the same order ⇒ identical layouts.
        for g in [grid2d(20, 20), barth5_like()] {
            let cfg = ParHdeConfig::default();
            let (a, sa) = par_hde(&g, &cfg);
            let (b, sb) = par_hde_coupled(&g, &cfg);
            assert_eq!(sa.sources, sb.sources, "pivot sequences differ");
            assert_eq!(sa.s_kept, sb.s_kept);
            assert_eq!(a, b, "coupled layout must be identical");
        }
    }

    #[test]
    fn coupled_interleaves_phase_time() {
        let g = grid2d(30, 30);
        let (_, stats) = par_hde_coupled(&g, &ParHdeConfig::default());
        // Both phases recorded, once per BFS iteration.
        assert!(stats.phases.seconds(phase::BFS) > 0.0);
        assert!(stats.phases.seconds(phase::DORTHO) > 0.0);
        assert_eq!(stats.sources.len(), 10);
    }

    #[test]
    #[should_panic(expected = "requires MGS")]
    fn coupled_rejects_cgs() {
        let g = grid2d(8, 8);
        let cfg = ParHdeConfig { ortho: OrthoMethod::Cgs, ..ParHdeConfig::default() };
        par_hde_coupled(&g, &cfg);
    }

    #[test]
    #[should_panic(expected = "k-centers")]
    fn coupled_rejects_random_pivots() {
        let g = grid2d(8, 8);
        let cfg = ParHdeConfig {
            pivots: PivotStrategy::Random,
            ..ParHdeConfig::default()
        };
        par_hde_coupled(&g, &cfg);
    }
}
