//! Cross-algorithm oracle tests: independent implementations of the same
//! quantity must agree.

use parhde_bfs::direction_opt::{bfs_direction_opt, bfs_direction_opt_params, BETA};
use parhde_bfs::multi::bfs_multi_source;
use parhde_bfs::serial::bfs_serial;
use parhde_graph::builder::build_weighted_from_edges;
use parhde_graph::gen;
use parhde_graph::prep::largest_component;
use parhde_graph::WeightedCsr;
use parhde_sssp::{delta_stepping, dijkstra};
use parhde_util::Xoshiro256StarStar;

/// All three BFS implementations agree on every generator family.
#[test]
fn bfs_implementations_agree_across_families() {
    let graphs = [gen::urand(2000, 6, 1),
        largest_component(&gen::kron(10, 8, 2)).graph,
        gen::pref_attach(2000, 4, 3),
        gen::geometric(2000, 3.0, 4),
        gen::grid2d(40, 50),
        gen::binary_tree(2047)];
    for (i, g) in graphs.iter().enumerate() {
        let src = (i as u32 * 97) % g.num_vertices() as u32;
        let serial = bfs_serial(g, src);
        // α = 0: pure top-down.
        let (td, _) = bfs_direction_opt_params(g, src, 0, BETA);
        let (dopt, _) = bfs_direction_opt(g, src);
        assert_eq!(serial, td, "graph {i}: top-down mismatch");
        assert_eq!(serial, dopt, "graph {i}: direction-opt mismatch");
    }
}

/// Multi-source BFS equals per-source serial BFS.
#[test]
fn multi_source_matches_individual() {
    let g = gen::geometric(3000, 3.5, 6);
    let sources: Vec<u32> = (0..25).map(|i| i * 113 % 3000).collect();
    let multi = bfs_multi_source(&g, &sources);
    for (r, &s) in multi.iter().zip(&sources) {
        assert_eq!(*r, bfs_serial(&g, s));
    }
}

/// Δ-stepping equals Dijkstra on unit weights equals BFS hop counts.
#[test]
fn sssp_bfs_equivalence_on_unit_weights() {
    let g = largest_component(&gen::web_locality(3000, 8, 7)).graph;
    let wg = WeightedCsr::unit_weights(g.clone());
    let bfs = bfs_serial(&g, 11);
    let dij = dijkstra(&wg, 11);
    let ds = delta_stepping(&wg, 11, 1.0);
    for v in 0..g.num_vertices() {
        let hop = bfs.dist[v];
        let expect = if hop == parhde_bfs::UNREACHED {
            f64::INFINITY
        } else {
            hop as f64
        };
        assert_eq!(dij.dist[v], expect, "Dijkstra at {v}");
        assert_eq!(ds.dist[v], expect, "Δ-stepping at {v}");
    }
}

/// Δ-stepping equals Dijkstra on many random weighted graphs and Δ values.
#[test]
fn delta_stepping_matches_dijkstra_extensively() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(42);
    for trial in 0..6 {
        let n = 300 + trial * 150;
        let base = gen::geometric(n, 5.0, trial as u64);
        let edges: Vec<(u32, u32, f64)> = base
            .edges()
            .map(|(u, v)| (u, v, 0.05 + rng.next_f64() * 10.0))
            .collect();
        let wg = build_weighted_from_edges(n, edges);
        let src = rng.next_index(n) as u32;
        let reference = dijkstra(&wg, src);
        for delta in [0.1, 1.0, 5.0, 100.0] {
            let result = delta_stepping(&wg, src, delta);
            assert_eq!(result.reached, reference.reached, "trial {trial} Δ={delta}");
            for v in 0..n {
                let (a, b) = (result.dist[v], reference.dist[v]);
                if a.is_finite() || b.is_finite() {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "trial {trial} Δ={delta} vertex {v}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// BFS distance columns obey the edge-Lipschitz property: distances of
/// adjacent vertices differ by at most 1.
#[test]
fn bfs_distances_are_edge_lipschitz() {
    let g = largest_component(&gen::kron(11, 8, 9)).graph;
    let (r, _) = bfs_direction_opt(&g, 0);
    for (u, v) in g.edges() {
        let (du, dv) = (r.dist[u as usize], r.dist[v as usize]);
        assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
    }
}

/// The k-centers pivot sequence maximizes coverage: each new pivot is at
/// least as far from previous pivots as any later pivot will be (the
/// farthest-first invariant, checked via BFS distances).
#[test]
fn kcenters_pivots_are_farthest_first() {
    use parhde::config::ParHdeConfig;
    let g = gen::grid2d(30, 30);
    let (_, stats) = parhde::par_hde(&g, &ParHdeConfig::with_subspace(6));
    let sources = &stats.sources;
    // Recompute min-distances incrementally and verify each chosen pivot
    // attains the maximum.
    let mut min_dist = vec![u32::MAX; g.num_vertices()];
    for (i, &s) in sources.iter().enumerate() {
        if i > 0 {
            let best = *min_dist.iter().max().unwrap();
            assert_eq!(
                min_dist[s as usize], best,
                "pivot {i} ({s}) is not farthest (d = {} vs max {best})",
                min_dist[s as usize]
            );
        }
        let r = bfs_serial(&g, s);
        for (m, &d) in min_dist.iter_mut().zip(&r.dist) {
            *m = (*m).min(d);
        }
    }
}

/// Eigen-projection (plain orthogonalization) and D-orthogonalization give
/// near-identical layouts on a regular graph (§4.5.1: "for graphs with
/// uniform degree distributions, the results are more or less identical").
#[test]
fn plain_and_d_ortho_agree_on_regular_graph() {
    use parhde::config::ParHdeConfig;
    use parhde::quality::energy_objective;
    // A cycle is 2-regular: D = 2I, so the two inner products coincide up
    // to scaling and both pipelines must produce the same subspace.
    let g = gen::cycle(500);
    let cfg_d = ParHdeConfig::with_subspace(8);
    let cfg_plain = ParHdeConfig { d_orthogonalize: false, ..cfg_d.clone() };
    let (a, _) = parhde::par_hde(&g, &cfg_d);
    let (b, _) = parhde::par_hde(&g, &cfg_plain);
    let ea = energy_objective(&g, &a);
    let eb = energy_objective(&g, &b);
    assert!(
        (ea - eb).abs() < 1e-6 * (ea + eb).max(1e-12),
        "energies diverge on a regular graph: {ea} vs {eb}"
    );
}
