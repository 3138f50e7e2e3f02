//! Concurrent multi-source BFS — the random-pivot execution mode.
//!
//! Table 6 of the paper compares two ways to produce the `s` distance
//! vectors: the default strategy (k-centers pivots, each BFS internally
//! parallel, BFSes strictly sequential because the next pivot depends on
//! previous distances) and the *random pivots* strategy, where pivots are
//! chosen up front "uniformly at random without repetition, and threads
//! concurrently perform multiple BFSes". This module implements the latter:
//! each source is traversed by an independent **sequential** BFS and the
//! pool schedules the sources across threads. It wins for small graphs and
//! when `s` exceeds the thread count, because it has no per-level
//! synchronization overhead.
//!
//! # When this mode loses
//!
//! Parallelism here is *only* across sources, so whenever
//! `sources.len() < threads` the surplus cores sit idle for the whole
//! phase — each BFS is sequential and cannot be subdivided. And even at
//! full occupancy every traversal streams the entire CSR independently, so
//! the edge array is pulled through the cache hierarchy `s` times where the
//! batched kernel ([`crate::batch`]) streams it once per level. Callers
//! should not select this function directly: the `parhde` crate's BFS-phase
//! planner (`parhde::bfs_phase::plan_bfs_phase`) is the advertised entry
//! point and picks per-source execution only in the regimes where it
//! actually wins (tiny graphs; high-diameter graphs with `s ≥ threads`).

use crate::serial::bfs_serial;
use crate::{BfsResult, UNREACHED};
use parhde_graph::store::GraphStore;
use parhde_util::par::prelude::*;

/// Runs one independent sequential BFS per source, concurrently.
///
/// Results are in source order.
///
/// # Panics
/// Panics if any source is out of range.
pub fn bfs_multi_source<G: GraphStore>(g: &G, sources: &[u32]) -> Vec<BfsResult> {
    sources.par_iter().map(|&s| bfs_serial(g, s)).collect()
}

/// Concurrent multi-source BFS writing each distance vector into the
/// corresponding column slice of a column-major matrix buffer.
///
/// `columns` must contain exactly `sources.len()` disjoint column slices of
/// length `n` (as produced by `chunks_mut` on a column-major allocation).
/// Unreached vertices get `f64::INFINITY`. Returns reached counts.
///
/// # Panics
/// Panics on length mismatches or out-of-range sources.
pub fn bfs_multi_source_into_f64<G: GraphStore>(
    g: &G,
    sources: &[u32],
    columns: &mut [&mut [f64]],
) -> Vec<usize> {
    assert_eq!(
        sources.len(),
        columns.len(),
        "one output column required per source"
    );
    let n = g.num_vertices();
    let _span = parhde_trace::span!("bfs.multi_source");
    sources
        .par_iter()
        .zip(columns.par_iter_mut())
        .map(|(&s, col)| {
            let _src = parhde_trace::span!("bfs.source");
            assert_eq!(col.len(), n, "column length mismatch");
            // Cooperative cancellation point (once per source, on top of
            // the per-level check inside `bfs_serial`): sources not yet
            // started are skipped wholesale, their columns set INFINITY.
            if parhde_util::supervisor::should_stop() {
                col.fill(f64::INFINITY);
                return 0;
            }
            let r = bfs_serial(g, s);
            if parhde_trace::enabled() {
                // Undirected CSR: every arc of the reached component is
                // examined exactly once by a sequential BFS — all of them
                // when it reached every vertex.
                parhde_trace::counter!("bfs.top_down_edges", {
                    if r.reached == n {
                        g.num_arcs() as u64
                    } else {
                        let reached = r.dist.iter().enumerate().filter(|(_, &d)| d != UNREACHED);
                        reached.map(|(v, _)| g.degree(v as u32) as u64).sum()
                    }
                });
            }
            for (o, &d) in col.iter_mut().zip(&r.dist) {
                *o = if d == UNREACHED { f64::INFINITY } else { d as f64 };
            }
            r.reached
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parhde_graph::gen::{chain, grid2d};

    #[test]
    fn multi_matches_individual_runs() {
        let g = grid2d(10, 10);
        let sources = [0u32, 37, 99];
        let rs = bfs_multi_source(&g, &sources);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(rs[i], bfs_serial(&g, s));
        }
    }

    #[test]
    fn multi_into_columns() {
        let g = chain(8);
        let n = g.num_vertices();
        let mut buf = vec![0.0f64; n * 2];
        let mut cols: Vec<&mut [f64]> = buf.chunks_mut(n).collect();
        let reached = bfs_multi_source_into_f64(&g, &[0, 7], &mut cols);
        assert_eq!(reached, vec![8, 8]);
        assert_eq!(&buf[..n], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(&buf[n..], &[7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn empty_sources_is_empty() {
        let g = chain(4);
        assert!(bfs_multi_source(&g, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "one output column required")]
    fn column_count_mismatch_panics() {
        let g = chain(4);
        let mut buf = [0.0f64; 4];
        let mut cols: Vec<&mut [f64]> = buf.chunks_mut(4).collect();
        bfs_multi_source_into_f64(&g, &[0, 1], &mut cols);
    }
}
