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
//!
//! The schedule is ParHDE's own phases in another order: the k-centers
//! loop ([`crate::bfs_phase`]) runs each column's DOrtho step as its
//! per-pivot hook, and the shared driver's tail takes over from the
//! orthogonalized `S`.

use crate::bfs_phase::kcenters_bfs;
use crate::config::{OrthoMethod, ParHdeConfig, PivotStrategy};
use crate::driver::{pipeline_from_s, strict, Coupled, Run};
use crate::error::HdeError;
use crate::layout::Layout;
use crate::stats::{begin, phase, recorded, HdeStats};
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
    let (coords, stats) = strict(recorded(|| coupled(g, cfg)));
    (Layout::from_coords(&coords), stats)
}

/// ParHDE's k-centers BFS phase with each column's DOrtho step as its
/// per-pivot hook, then the shared tail.
fn coupled(g: &CsrGraph, cfg: &ParHdeConfig) -> Result<(ColMajorMatrix, HdeStats), HdeError> {
    let n = g.num_vertices();
    cfg.validate(n)?;
    if cfg.pivots != PivotStrategy::KCenters {
        return Err(HdeError::InvalidConfig("coupled mode requires k-centers pivots".into()));
    }
    if cfg.ortho != OrthoMethod::Mgs {
        return Err(HdeError::InvalidConfig("coupled mode requires MGS".into()));
    }
    if cfg.project_from_raw {
        return Err(HdeError::InvalidConfig(
            "coupled mode discards raw distance columns; use the S-basis projection".into(),
        ));
    }
    let s = cfg.subspace;
    let _root = parhde_trace::span!("parhde_coupled");
    Run::strict(s).once(cfg.backend, |stats| {
        let ph = begin(phase::INIT);
        let mut smat = ColMajorMatrix::zeros(n, s + 1);
        smat.col_mut(0).fill(1.0 / (n as f64).sqrt());
        let degrees = g.degree_vector();
        let weights = cfg.d_orthogonalize.then_some(degrees.as_slice());
        // The constant column goes through the same MGS step the decoupled
        // pipeline gives it, so the floating-point operation sequence (and
        // thus the result) is bit-identical.
        let mut steps = IncrementalMgs::new(weights, cfg.drop_tolerance);
        let kept0 = steps.step(&mut smat, 0);
        debug_assert!(kept0, "the constant column has unit norm");
        drop(ph);

        // Each column is orthogonalized the moment its traversal is folded
        // into the pivot choice, which reads the raw distances.
        let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);
        kcenters_bfs(g, &mut smat, 1, cfg.bfs_mode, &mut rng, stats, |smat, i| {
            let _ph = begin(phase::DORTHO);
            steps.step(smat, i);
            Ok(())
        })?;
        pipeline_from_s(g, cfg, 2, smat, Some(Coupled { degrees: &degrees, steps }), stats)
    })
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
