//! Width-equivalence tests: the direction-optimizing BFS returns the same
//! distances and the same traversal statistics at every pool width.
//!
//! At width ≥ 2 a parallel top-down level appends its discoveries to the
//! sliding queue in claim order, which depends on timing. What may not
//! depend on it: the distances (each level's vertex set is fixed), the
//! switch decisions and the edge-scan counts. The graphs are chosen so
//! that frontiers span many 256-vertex chunks and levels run in parallel:
//! a grid from a corner and from its centre (top-down throughout), and two
//! skewed graphs that switch to bottom-up.

use parhde_bfs::direction_opt::bfs_direction_opt;
use parhde_bfs::serial::bfs_serial;
use parhde_bfs::TraversalStats;
use parhde_graph::gen::{grid2d, kron, pref_attach};
use parhde_graph::prep::largest_component;
use parhde_graph::store::GraphStore;
use parhde_graph::CompressedCsr;
use parhde_util::threads::run_with_threads;

/// Runs `bfs_direction_opt(g, source)` at widths 1, 2 and 4; each must
/// equal `bfs_serial`, and all must report the same statistics.
fn same_at_every_width<G: GraphStore>(name: &str, g: &G, source: u32) -> TraversalStats {
    let serial = bfs_serial(g, source);
    let mut stats = Vec::new();
    for width in [1, 2, 4] {
        let (r, s) = run_with_threads(width, || bfs_direction_opt(g, source));
        assert_eq!(r, serial, "{name} source {source}: distances at width {width}");
        stats.push(s);
    }
    assert!(
        stats.iter().all(|s| *s == stats[0]),
        "{name} source {source}: stats differ across widths: {stats:?}"
    );
    stats[0]
}

#[test]
fn grid_traversals_are_width_independent() {
    let g = grid2d(400, 400);
    for source in [0u32, 200 * 400 + 200] {
        let stats = same_at_every_width("grid2d(400, 400)", &g, source);
        assert_eq!(stats.bottom_up_steps, 0);
        assert_eq!(stats.top_down_edges, g.num_arcs());
    }
}

#[test]
fn skewed_traversals_are_width_independent() {
    let kron = largest_component(&kron(14, 16, 3)).graph;
    let pref = pref_attach(20_000, 8, 5);
    for (name, g) in [("kron(14, 16)", &kron), ("pref_attach(20000, 8)", &pref)] {
        for source in [0u32, g.num_vertices() as u32 / 2] {
            let stats = same_at_every_width(name, g, source);
            assert!(stats.bottom_up_steps > 0, "{name} source {source}: no switch");
        }
    }
}

#[test]
fn compressed_traversals_are_width_independent() {
    let g = largest_component(&kron(14, 16, 3)).graph;
    let c = CompressedCsr::from_csr(&g);
    for source in [0u32, g.num_vertices() as u32 / 2] {
        assert_eq!(
            same_at_every_width("compressed kron(14, 16)", &c, source),
            same_at_every_width("kron(14, 16)", &g, source),
            "storage changed the traversal"
        );
    }
}
