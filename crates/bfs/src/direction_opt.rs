//! Direction-optimizing BFS (Beamer et al., as shipped in GAP).
//!
//! The driver runs top-down while the frontier is small, and switches to
//! bottom-up when the frontier's outgoing edge count grows past a fraction
//! of the unexplored edges — the moment when most top-down probes would hit
//! already-visited vertices. Beamer et al.'s switch rule, with GAP's
//! constants:
//!
//! * switch **top-down → bottom-up** when `scout_count > edges_to_check / α`
//!   (α = 15) *and the frontier is growing* (larger than the level before
//!   it), where `scout_count` is the sum of frontier degrees and
//!   `edges_to_check` counts arcs out of still-unexplored vertices;
//! * switch **bottom-up → top-down** when the frontier shrinks below
//!   `n / β` (β = 18).
//!
//! The growth condition matters at the end of a traversal: `edges_to_check`
//! falls to almost nothing in the last levels of a high-diameter graph, so
//! the α test alone would send a dwindling frontier bottom-up — a sweep of
//! all `n` vertices to find a handful — and straight back. With it, grids
//! never switch and road-like graphs seldom do: direction optimization
//! saves them little — exactly the paper's explanation for road_usa's
//! modest 2.9× speedup in Table 3.
//!
//! Top-down levels run on one [`SlidingQueue`] per traversal; bottom-up
//! levels on a pair of bitmaps.

use crate::bottom_up::bottom_up_step;
use crate::frontier::{AtomicBitmap, SlidingQueue};
use crate::top_down::top_down_step;
use crate::{BfsResult, TraversalStats, UNREACHED};
use parhde_graph::store::GraphStore;
use std::sync::atomic::{AtomicU32, Ordering};

/// GAP's α: top-down → bottom-up threshold divisor.
pub const ALPHA: usize = 15;
/// GAP's β: bottom-up → top-down threshold divisor.
pub const BETA: usize = 18;

/// Runs a direction-optimizing parallel BFS from `source`.
///
/// # Panics
/// Panics if `source` is out of range.
pub fn bfs_direction_opt<G: GraphStore>(g: &G, source: u32) -> (BfsResult, TraversalStats) {
    bfs_direction_opt_params(g, source, ALPHA, BETA)
}

/// Direction-optimizing BFS with explicit α/β. Larger α switches to
/// bottom-up *sooner* (the switch threshold is `edges_to_check / α`);
/// `alpha = 0` disables the switch entirely, degenerating to a pure
/// top-down traversal with statistics.
///
/// # Panics
/// Panics if `source` is out of range or `beta` is zero.
pub fn bfs_direction_opt_params<G: GraphStore>(
    g: &G,
    source: u32,
    alpha: usize,
    beta: usize,
) -> (BfsResult, TraversalStats) {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source {source} out of range");
    assert!(beta > 0, "beta must be positive");

    let _span = parhde_trace::span!("bfs.traversal");
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    dist[source as usize].store(0, Ordering::Relaxed);

    let mut stats = TraversalStats::default();
    // Top-down frontiers: every vertex enters at most once.
    let mut queue = SlidingQueue::new(n);
    queue.append(&[source]);
    queue.slide_window();
    let mut reached = 1usize;
    let mut levels = 1usize;
    let mut level = 0u32;
    // Arcs out of unexplored vertices; spent as vertices are discovered.
    let mut edges_to_check = g.num_arcs().saturating_sub(g.degree(source));
    let mut scout_count = g.degree(source);
    let mut bottom_up_mode = false;
    // In bottom-up mode the frontier lives in a bitmap.
    let mut current_bm: Option<AtomicBitmap> = None;
    let mut frontier_len = 1usize;
    // The previous level's frontier size. It starts at the source's own 1,
    // so a lone source does not count as a growing frontier.
    let mut prev_len = 1usize;

    while frontier_len > 0 {
        // Cooperative cancellation point (once per level): a tripped run
        // budget abandons the traversal with `reached < n`; callers consult
        // `supervisor::ambient_trip()` before treating that as disconnected.
        if parhde_util::supervisor::should_stop() {
            break;
        }
        level += 1;
        if !bottom_up_mode
            && alpha > 0
            && scout_count > edges_to_check / alpha
            && frontier_len > prev_len
        {
            // Convert queue → bitmap and switch down.
            current_bm = Some(AtomicBitmap::from_ids(n, &queue.to_vec()));
            bottom_up_mode = true;
            parhde_trace::counter!("bfs.switch_to_bottom_up", 1);
        }

        if bottom_up_mode {
            let cur = current_bm.take().expect("bitmap present in bottom-up mode");
            let next = AtomicBitmap::new(n);
            let (awakened, scanned) = bottom_up_step(g, &cur, &next, &dist, level);
            stats.bottom_up_steps += 1;
            stats.bottom_up_edges += scanned;
            reached += awakened;
            prev_len = frontier_len;
            frontier_len = awakened;
            parhde_trace::counter!("bfs.bottom_up_edges", scanned as u64);
            parhde_trace::gauge!("bfs.frontier", frontier_len as f64);
            if frontier_len == 0 {
                break;
            }
            levels += 1;
            if frontier_len < n / beta.max(1) {
                // Convert bitmap → queue and switch back up.
                let frontier = next.to_vec();
                scout_count = frontier.iter().map(|&v| g.degree(v)).sum();
                queue.append(&frontier);
                queue.slide_window();
                edges_to_check = edges_to_check.saturating_sub(scout_count);
                bottom_up_mode = false;
                parhde_trace::counter!("bfs.switch_to_top_down", 1);
            } else {
                current_bm = Some(next);
            }
        } else {
            let (scanned, scout) = top_down_step(g, &queue, &dist, level);
            queue.slide_window();
            stats.top_down_steps += 1;
            stats.top_down_edges += scanned;
            reached += queue.len();
            prev_len = frontier_len;
            frontier_len = queue.len();
            parhde_trace::counter!("bfs.top_down_edges", scanned as u64);
            parhde_trace::gauge!("bfs.frontier", frontier_len as f64);
            if frontier_len == 0 {
                break;
            }
            levels += 1;
            scout_count = scout;
            edges_to_check = edges_to_check.saturating_sub(scout_count);
        }
    }

    let dist = dist.into_iter().map(AtomicU32::into_inner).collect();
    (BfsResult { dist, reached, levels }, stats)
}

/// Direction-optimizing BFS writing distances straight into an `f64` column
/// of the embedding matrix `B` (unreached → `f64::INFINITY`); returns the
/// number of reached vertices and the traversal stats.
pub fn bfs_direction_opt_into_f64<G: GraphStore>(
    g: &G,
    source: u32,
    out: &mut [f64],
) -> (usize, TraversalStats) {
    let (r, stats) = bfs_direction_opt(g, source);
    crate::write_distances_f64(&r.dist, out);
    (r.reached, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::bfs_serial;
    use parhde_graph::builder::build_from_edges;
    use parhde_graph::gen::{chain, complete, grid2d, kron, pref_attach, star};
    use parhde_util::Xoshiro256StarStar;

    #[test]
    fn matches_serial_on_basics() {
        for g in [chain(50), star(40), complete(12), grid2d(9, 13)] {
            let (r, _) = bfs_direction_opt(&g, 0);
            assert_eq!(r, bfs_serial(&g, 0));
        }
    }

    #[test]
    fn matches_serial_on_skewed_graphs() {
        let g = pref_attach(3000, 4, 5);
        for s in [0u32, 17, 2999] {
            let (r, _) = bfs_direction_opt(&g, s);
            assert_eq!(r, bfs_serial(&g, s), "source {s}");
        }
    }

    #[test]
    fn matches_serial_on_kron() {
        let g = kron(10, 8, 2);
        let (r, _) = bfs_direction_opt(&g, 3);
        assert_eq!(r, bfs_serial(&g, 3));
    }

    #[test]
    fn matches_serial_on_random_graphs() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        for trial in 0..12 {
            let n = 100 + trial * 53;
            let edges: Vec<(u32, u32)> = (0..n * 2)
                .map(|_| (rng.next_index(n) as u32, rng.next_index(n) as u32))
                .collect();
            let g = build_from_edges(n, edges);
            let s = rng.next_index(n) as u32;
            let (r, _) = bfs_direction_opt(&g, s);
            assert_eq!(r, bfs_serial(&g, s), "trial {trial}");
        }
    }

    #[test]
    fn dense_graph_uses_bottom_up_and_saves_work() {
        // kron-like low-diameter graph: direction optimization must engage
        // and γ must be < 1 (Table 1: n/m ≤ γ ≤ 1).
        let g = pref_attach(20_000, 16, 1);
        let (_, stats) = bfs_direction_opt(&g, 0);
        assert!(stats.bottom_up_steps > 0, "expected a bottom-up switch");
        let gamma = stats.gamma(g.num_arcs());
        assert!(
            gamma < 0.6,
            "γ = {gamma:.3}; direction optimization saved no work"
        );
    }

    #[test]
    fn chain_never_switches_to_bottom_up() {
        // High-diameter, tiny frontier: the α test never trips (the
        // road_usa case of Table 3).
        let g = chain(5000);
        let (_, stats) = bfs_direction_opt(&g, 0);
        assert_eq!(stats.bottom_up_steps, 0);
        // 4999 productive expansions plus the final empty one.
        assert_eq!(stats.top_down_steps, 5000);
    }

    #[test]
    fn shrinking_grid_frontier_stays_top_down() {
        // In the last levels of a grid traversal `edges_to_check` nearly
        // runs out, so the α test holds for a shrinking frontier; without
        // the growth condition each such level is an n-vertex bottom-up
        // sweep (30 from the corner, 31 from the centre).
        let g = grid2d(190, 190);
        for s in [0u32, 95 * 190 + 95] {
            let (r, stats) = bfs_direction_opt(&g, s);
            assert_eq!(stats.bottom_up_steps, 0, "source {s}");
            assert_eq!(stats.top_down_edges, g.num_arcs(), "source {s}");
            assert_eq!(r, bfs_serial(&g, s), "source {s}");
        }
    }

    #[test]
    fn alpha_zero_is_pure_top_down() {
        let g = pref_attach(2000, 8, 3);
        let (r, stats) = bfs_direction_opt_params(&g, 0, 0, BETA);
        assert_eq!(stats.bottom_up_steps, 0);
        assert_eq!(r, bfs_serial(&g, 0));
        // Pure top-down scans every arc of the connected graph exactly once.
        assert_eq!(stats.top_down_edges, g.num_arcs());
    }

    #[test]
    fn disconnected_reaches_component_only() {
        let g = build_from_edges(10, vec![(0, 1), (1, 2), (5, 6)]);
        let (r, _) = bfs_direction_opt(&g, 5);
        assert_eq!(r.reached, 2);
        assert_eq!(r.dist[6], 1);
        assert_eq!(r.dist[0], UNREACHED);
    }

    #[test]
    fn f64_output_matches() {
        let g = grid2d(6, 6);
        let mut col = vec![0.0; 36];
        let (reached, _) = bfs_direction_opt_into_f64(&g, 0, &mut col);
        assert_eq!(reached, 36);
        let serial = bfs_serial(&g, 0);
        for (c, d) in col.iter().zip(&serial.dist) {
            assert_eq!(*c, *d as f64);
        }
    }
}
