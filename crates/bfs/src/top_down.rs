//! Parallel top-down BFS expansion.
//!
//! Each level expands the window of the traversal's [`SlidingQueue`] and
//! appends what it discovers past it, so one `n`-slot array serves every
//! level (GAP's sliding queue). Workers partition the window and claim
//! each unvisited neighbor with a compare-and-swap on its distance cell —
//! the same single-CAS-per-vertex scheme GAP uses for parent claiming
//! (§3.1: "GAP already uses the compare-and-swap atomic primitive ... we do
//! not introduce additional overhead"); the reproduction claims the
//! *distance* cell directly, which subsumes the parent CAS. Winners stage
//! the vertex in a per-chunk [`QueueBuffer`], which appends with one
//! `fetch_add` per flush.

use crate::frontier::{QueueBuffer, SlidingQueue};
use crate::UNREACHED;
use parhde_graph::store::{GraphStore, NeighborScratch};
use parhde_util::par::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Grain size for frontier chunking: large enough to amortize fork
/// overhead, small enough to balance skewed-degree frontiers.
const FRONTIER_CHUNK: usize = 256;

/// Runs one top-down level step.
///
/// Expands the queue's window, setting each newly discovered vertex's
/// `dist` cell to `level` and appending the vertex past the window (call
/// [`SlidingQueue::slide_window`] to make them the next frontier). Returns
/// `(edges_scanned, scout_count)`, where `scout_count` is the summed degree
/// of the discovered vertices. A parallel level appends in claim order,
/// which depends on timing; the set appended does not.
pub fn top_down_step<G: GraphStore>(
    g: &G,
    queue: &SlidingQueue,
    dist: &[AtomicU32],
    level: u32,
) -> (usize, usize) {
    queue
        .window()
        .par_chunks(FRONTIER_CHUNK)
        .map(|chunk| {
            let mut out = QueueBuffer::new(queue);
            let (mut scanned, mut scout) = (0usize, 0usize);
            // One decode scratch per chunk: compressed stores reuse its
            // allocation across the whole chunk (plain CSR ignores it).
            let mut scratch = NeighborScratch::new();
            for v in chunk {
                let nb = g.neighbors_in(v.load(Ordering::Relaxed), &mut scratch);
                scanned += nb.len();
                for &u in nb {
                    if dist[u as usize].load(Ordering::Relaxed) == UNREACHED
                        && dist[u as usize]
                            .compare_exchange(
                                UNREACHED,
                                level,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        out.push(u);
                        scout += g.degree(u);
                    }
                }
            }
            out.flush();
            (scanned, scout)
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction_opt::{bfs_direction_opt_params, BETA};
    use crate::serial::bfs_serial;
    use crate::BfsResult;
    use parhde_graph::builder::build_from_edges;
    use parhde_graph::gen::{binary_tree, chain, grid2d};
    use parhde_util::threads::run_with_threads;
    use parhde_util::Xoshiro256StarStar;

    /// Pure top-down traversal: the direction-optimizing BFS with the
    /// bottom-up switch disabled.
    fn top_down<G: GraphStore>(g: &G, source: u32) -> BfsResult {
        bfs_direction_opt_params(g, source, 0, BETA).0
    }

    #[test]
    fn matches_serial_on_chain() {
        let g = chain(64);
        assert_eq!(top_down(&g, 0), bfs_serial(&g, 0));
    }

    #[test]
    fn matches_serial_on_grid() {
        let g = grid2d(20, 30);
        for s in [0u32, 300, 599] {
            assert_eq!(top_down(&g, s), bfs_serial(&g, s));
        }
    }

    #[test]
    fn matches_serial_on_tree() {
        let g = binary_tree(127);
        assert_eq!(top_down(&g, 0), bfs_serial(&g, 0));
    }

    #[test]
    fn matches_serial_on_random_graphs() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        for trial in 0..10 {
            let n = 200 + trial * 37;
            let edges: Vec<(u32, u32)> = (0..n * 3)
                .map(|_| (rng.next_index(n) as u32, rng.next_index(n) as u32))
                .collect();
            let g = build_from_edges(n, edges);
            let s = rng.next_index(n) as u32;
            assert_eq!(top_down(&g, s), bfs_serial(&g, s), "trial {trial}");
        }
    }

    fn fresh_dist(n: usize, source: u32) -> Vec<AtomicU32> {
        let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
        dist[source as usize].store(0, Ordering::Relaxed);
        dist
    }

    #[test]
    fn step_counts_scanned_edges() {
        let g = chain(5);
        let dist = fresh_dist(5, 0);
        let mut queue = SlidingQueue::new(5);
        queue.append(&[0]);
        queue.slide_window();
        let (scanned, scout) = top_down_step(&g, &queue, &dist, 1);
        assert_eq!(scanned, 1); // degree of vertex 0
        assert_eq!(scout, 2); // degree of vertex 1
        queue.slide_window();
        assert_eq!(queue.to_vec(), vec![1]);
    }

    #[test]
    fn parallel_step_appends_each_pendant_once() {
        // A hub with 1000 leaves, each carrying one pendant. At width 2 the
        // level from the leaves spans four chunks, so workers may append
        // concurrently; every pendant must land in the next window once.
        const LEAVES: u32 = 1000;
        let edges = (1..=LEAVES).flat_map(|l| [(0, l), (l, LEAVES + l)]).collect();
        let g = build_from_edges(2 * LEAVES as usize + 1, edges);
        let n = g.num_vertices();
        let dist = fresh_dist(n, 0);
        let mut queue = SlidingQueue::new(n);
        queue.append(&[0]);
        queue.slide_window();
        run_with_threads(2, || {
            assert_eq!(top_down_step(&g, &queue, &dist, 1), (1000, 2000));
            queue.slide_window();
            // Each leaf probes the hub and its pendant.
            assert_eq!(top_down_step(&g, &queue, &dist, 2), (2000, 1000));
            queue.slide_window();
        });
        let mut pendants = queue.to_vec();
        pendants.sort_unstable();
        assert_eq!(pendants, (LEAVES + 1..=2 * LEAVES).collect::<Vec<_>>());
    }
}
