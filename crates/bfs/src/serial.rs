//! Sequential queue-based BFS.
//!
//! This is both the correctness oracle for the parallel variants and the
//! building block of two measured configurations: the prior-work baseline
//! of Table 3 ("does not use parallel BFS") and the random-pivot strategy of
//! Table 6 (many *sequential* BFSes run concurrently).

use crate::{BfsResult, UNREACHED};
use parhde_graph::store::{GraphStore, NeighborScratch};

/// Runs a sequential BFS from `source`, returning hop distances.
///
/// Generic over [`GraphStore`]: the traversal streams adjacency through a
/// single reused decode scratch, so compressed (and mmap-backed) graphs
/// run without materializing their adjacency.
///
/// # Panics
/// Panics if `source` is out of range.
pub fn bfs_serial<G: GraphStore>(g: &G, source: u32) -> BfsResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source {source} out of range");
    let mut dist = vec![UNREACHED; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut next = Vec::new();
    let mut scratch = NeighborScratch::new();
    let mut reached = 1usize;
    let mut levels = 1usize;
    let mut level = 0u32;
    while !frontier.is_empty() {
        // Cooperative cancellation point (once per level): many sequential
        // BFSes run concurrently under the multi-source scheduler, so
        // per-level polling keeps even single long traversals responsive
        // to a tripped run budget.
        if parhde_util::supervisor::should_stop() {
            break;
        }
        level += 1;
        for &v in &frontier {
            for &u in g.neighbors_in(v, &mut scratch) {
                if dist[u as usize] == UNREACHED {
                    dist[u as usize] = level;
                    next.push(u);
                }
            }
        }
        reached += next.len();
        if next.is_empty() {
            break;
        }
        levels += 1;
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    BfsResult { dist, reached, levels }
}

/// Sequential BFS that writes distances into a caller-provided `f64` column
/// (the layout matrix `B` stores distance vectors as `f64` columns; writing
/// directly avoids an extra `u32` buffer per source in the prior-work
/// baseline). Unreached vertices get `f64::INFINITY`. Returns the number of
/// vertices reached.
pub fn bfs_serial_into_f64<G: GraphStore>(g: &G, source: u32, out: &mut [f64]) -> usize {
    let r = bfs_serial(g, source);
    crate::write_distances_f64(&r.dist, out);
    r.reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use parhde_graph::builder::build_from_edges;
    use parhde_graph::gen::{binary_tree, chain, complete, star};

    #[test]
    fn chain_distances() {
        let g = chain(5);
        let r = bfs_serial(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.reached, 5);
        assert_eq!(r.levels, 5);
        assert_eq!(r.eccentricity(), 4);
    }

    #[test]
    fn chain_from_middle() {
        let g = chain(5);
        let r = bfs_serial(&g, 2);
        assert_eq!(r.dist, vec![2, 1, 0, 1, 2]);
        assert_eq!(r.eccentricity(), 2);
    }

    #[test]
    fn star_is_one_hop() {
        let r = bfs_serial(&star(10), 0);
        assert_eq!(r.dist[0], 0);
        assert!((1..10).all(|v| r.dist[v] == 1));
        assert_eq!(r.levels, 2);
    }

    #[test]
    fn complete_is_one_hop_from_anywhere() {
        let r = bfs_serial(&complete(8), 5);
        assert_eq!(r.reached, 8);
        assert_eq!(r.eccentricity(), 1);
    }

    #[test]
    fn binary_tree_depths() {
        let r = bfs_serial(&binary_tree(15), 0);
        assert_eq!(r.dist[0], 0);
        assert_eq!(r.dist[1], 1);
        assert_eq!(r.dist[6], 2);
        assert_eq!(r.dist[14], 3);
    }

    #[test]
    fn disconnected_marks_unreached() {
        let g = build_from_edges(4, vec![(0, 1)]);
        let r = bfs_serial(&g, 0);
        assert_eq!(r.dist[2], UNREACHED);
        assert_eq!(r.dist[3], UNREACHED);
        assert_eq!(r.reached, 2);
    }

    #[test]
    fn isolated_source() {
        let g = build_from_edges(3, vec![(1, 2)]);
        let r = bfs_serial(&g, 0);
        assert_eq!(r.reached, 1);
        assert_eq!(r.levels, 1);
        assert_eq!(r.eccentricity(), 0);
    }

    #[test]
    fn f64_column_conversion() {
        let g = build_from_edges(4, vec![(0, 1), (1, 2)]);
        let mut col = vec![0.0; 4];
        let reached = bfs_serial_into_f64(&g, 0, &mut col);
        assert_eq!(reached, 3);
        assert_eq!(col, vec![0.0, 1.0, 2.0, f64::INFINITY]);
    }

    #[test]
    fn f64_columns_across_write_chunks_match_at_every_width() {
        use crate::direction_opt::bfs_direction_opt_into_f64;
        use parhde_util::threads::run_with_threads;
        // A 100 000-vertex path plus 7 isolated vertices: distances span
        // several parallel write chunks, unreached ones the last.
        let n = 100_007;
        let g = build_from_edges(n, (0..99_999u32).map(|v| (v, v + 1)).collect());
        let want: Vec<u64> = bfs_serial(&g, 0)
            .dist
            .iter()
            .map(|&d| if d == UNREACHED { f64::INFINITY } else { d as f64 }.to_bits())
            .collect();
        for threads in [1, 2, 4] {
            let mut serial = vec![0.0; n];
            let mut dopt = vec![0.0; n];
            run_with_threads(threads, || {
                assert_eq!(bfs_serial_into_f64(&g, 0, &mut serial), 100_000);
                assert_eq!(bfs_direction_opt_into_f64(&g, 0, &mut dopt).0, 100_000);
            });
            for col in [&serial, &dopt] {
                let got: Vec<u64> = col.iter().map(|x| x.to_bits()).collect();
                assert!(got == want, "{threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        bfs_serial(&chain(3), 3);
    }
}
