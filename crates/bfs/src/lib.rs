//! Parallel breadth-first search for the ParHDE reproduction.
//!
//! The BFS phase dominates ParHDE's running time on most inputs (Figure 3),
//! and the paper's speedup over prior work comes largely from swapping a
//! sequential BFS for the **direction-optimizing** BFS of Beamer et al. as
//! implemented in the GAP Benchmark Suite (§3.1). This crate reproduces that
//! design in safe Rust:
//!
//! * [`serial`] — the textbook sequential queue BFS (the prior-work
//!   baseline and the per-source kernel of the random-pivot strategy);
//! * [`top_down`] — level-synchronous parallel expansion of the frontier
//!   on a sliding queue, claiming vertices with compare-and-swap;
//! * [`bottom_up`] — unvisited vertices scan their own adjacency for a
//!   frontier parent, writing distances without atomics (each distance cell
//!   is written only by its owning vertex's iteration — the "atomic-free"
//!   distance update of §3.1);
//! * [`direction_opt`] — the α/β heuristic driver that switches between the
//!   two (bottom-up only while the frontier grows), plus traversal
//!   statistics (edge-scan counts) that expose the work-reduction factor γ
//!   of Table 1;
//! * [`multi`] — concurrently running independent BFSes (one sequential BFS
//!   per thread), the original random-pivot execution mode of Table 6;
//! * [`batch`] — bit-parallel batched multi-source BFS: up to 64 sources
//!   per `u64` lane word advance through one shared graph sweep (MS-BFS),
//!   so edge data is streamed once per level instead of once per source;
//! * [`frontier`] — the shared frontier containers (sliding queue, atomic
//!   bitmap, lane-word helpers).
//!
//! Callers producing a distance matrix should not pick among [`serial`],
//! [`multi`] and [`batch`] by hand: the `parhde` crate's BFS-phase planner
//! (`parhde::bfs_phase::plan_bfs_phase`) selects the mode from `n`, `m`,
//! `s` and the thread count, and is the advertised entry point.
//!
//! Distances are `u32`; unreached vertices get [`UNREACHED`].
//!
//! # Example
//!
//! ```
//! use parhde_bfs::direction_opt::bfs_direction_opt;
//! use parhde_graph::gen::grid2d;
//!
//! let g = grid2d(10, 10);
//! let (result, stats) = bfs_direction_opt(&g, 0);
//! assert_eq!(result.dist[99], 18);       // corner-to-corner Manhattan hops
//! assert_eq!(result.reached, 100);
//! assert!(stats.total_edges() > 0);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod bottom_up;
pub mod direction_opt;
pub mod frontier;
pub mod multi;
pub mod serial;
pub mod top_down;

/// Distance value for vertices not reached by the traversal.
pub const UNREACHED: u32 = u32::MAX;

/// Writes hop distances into an `f64` column of the embedding matrix,
/// unreached vertices as `f64::INFINITY`. Fixed chunks are written in
/// parallel, so the column's first-touch page faults spread over the pool
/// instead of landing on one thread.
///
/// # Panics
/// Panics if the lengths differ.
pub(crate) fn write_distances_f64(dist: &[u32], out: &mut [f64]) {
    use parhde_util::par::prelude::*;
    const CHUNK: usize = 1 << 15;
    assert_eq!(out.len(), dist.len(), "output column length mismatch");
    out.par_chunks_mut(CHUNK).zip(dist.par_chunks(CHUNK)).for_each(|(out, dist)| {
        for (o, &d) in out.iter_mut().zip(dist) {
            *o = if d == UNREACHED { f64::INFINITY } else { d as f64 };
        }
    });
}

/// The result of a (single-source) BFS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsResult {
    /// `dist[v]` is the hop distance from the source, or [`UNREACHED`].
    pub dist: Vec<u32>,
    /// Number of vertices reached (including the source).
    pub reached: usize,
    /// Number of levels processed (eccentricity of the source + 1).
    pub levels: usize,
}

impl BfsResult {
    /// The farthest distance reached (0 for a lone source).
    pub fn eccentricity(&self) -> u32 {
        self.levels.saturating_sub(1) as u32
    }
}

/// Statistics from a direction-optimizing run, used to validate the
/// γ work-reduction claim of Table 1 and the Figure 5 BFS-phase split.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Level-steps executed in the top-down direction.
    pub top_down_steps: usize,
    /// Level-steps executed in the bottom-up direction.
    pub bottom_up_steps: usize,
    /// Directed edges examined by top-down steps.
    pub top_down_edges: usize,
    /// Directed edges examined by bottom-up steps (including early exits).
    pub bottom_up_edges: usize,
}

impl TraversalStats {
    /// Total directed edges examined.
    pub fn total_edges(&self) -> usize {
        self.top_down_edges + self.bottom_up_edges
    }

    /// The effective work fraction γ relative to a plain top-down traversal
    /// that examines every directed edge once (`2m` scans). Table 1 bounds
    /// this as `n/m ≤ γ ≤ 1` for direction-optimizing BFS.
    pub fn gamma(&self, num_arcs: usize) -> f64 {
        if num_arcs == 0 {
            return 0.0;
        }
        self.total_edges() as f64 / num_arcs as f64
    }
}
