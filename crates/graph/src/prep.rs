//! Graph preprocessing: connected components, largest-component extraction,
//! induced subgraphs, and k-hop neighborhoods.
//!
//! Matches the paper's §4.1 pipeline: "we ... extract the largest connected
//! component. ... When extracting the largest connected component, we remove
//! vertices not in the component and renumber the vertices to be contiguous,
//! but preserving the original implied ordering." Order preservation matters
//! because Figure 2 / §4.4 show vertex ordering dominates SpMM locality.

use crate::csr::{CsrGraph, WeightedCsr};

/// Labels each vertex with a component id in `[0, num_components)`;
/// components are numbered in order of first appearance by vertex id.
#[derive(Clone, Debug)]
pub struct Components {
    /// `labels[v]` is the component id of vertex `v`.
    pub labels: Vec<u32>,
    /// Number of vertices in each component, indexed by component id.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Id of the largest component (lowest id wins ties).
    pub fn largest(&self) -> u32 {
        self.sizes
            .iter()
            .enumerate()
            .max_by_key(|&(i, &s)| (s, std::cmp::Reverse(i)))
            .map(|(i, _)| i as u32)
            .expect("graph has at least one vertex")
    }
}

/// Computes connected components with an iterative BFS sweep.
///
/// Sequential by design: component labeling is a one-off preprocessing step
/// and the iterative frontier loop keeps memory traffic minimal.
///
/// # Panics
/// Panics if the graph has no vertices.
pub fn connected_components(g: &CsrGraph) -> Components {
    let n = g.num_vertices();
    assert!(n > 0, "connected_components requires at least one vertex");
    const UNSET: u32 = u32::MAX;
    let mut labels = vec![UNSET; n];
    let mut sizes = Vec::new();
    let mut queue = Vec::new();
    for start in 0..n as u32 {
        if labels[start as usize] != UNSET {
            continue;
        }
        let id = sizes.len() as u32;
        let mut size = 0usize;
        labels[start as usize] = id;
        queue.clear();
        queue.push(start);
        while let Some(v) = queue.pop() {
            size += 1;
            for &u in g.neighbors(v) {
                if labels[u as usize] == UNSET {
                    labels[u as usize] = id;
                    queue.push(u);
                }
            }
        }
        sizes.push(size);
    }
    Components { labels, sizes }
}

/// Result of extracting a vertex-induced subgraph: the subgraph plus the
/// mapping from new contiguous ids back to the ids in the original graph.
#[derive(Clone, Debug)]
pub struct Extracted {
    /// The induced subgraph with contiguous vertex ids `0..k`.
    pub graph: CsrGraph,
    /// `old_ids[new]` is the original id of subgraph vertex `new`.
    /// Ascending, so original relative order is preserved.
    pub old_ids: Vec<u32>,
}

impl Extracted {
    /// Maps an original vertex id to its new id, if it survived extraction.
    pub fn new_id(&self, old: u32) -> Option<u32> {
        self.old_ids.binary_search(&old).ok().map(|i| i as u32)
    }
}

/// Extracts the subgraph induced by `keep` (original ids; need not be
/// sorted; duplicates ignored), renumbering vertices contiguously while
/// preserving the original relative order.
pub fn induced_subgraph(g: &CsrGraph, keep: &[u32]) -> Extracted {
    let n = g.num_vertices();
    let mut old_ids: Vec<u32> = keep.to_vec();
    old_ids.sort_unstable();
    old_ids.dedup();
    assert!(
        old_ids.last().is_none_or(|&v| (v as usize) < n),
        "kept vertex out of range"
    );
    const ABSENT: u32 = u32::MAX;
    let mut remap = vec![ABSENT; n];
    for (new, &old) in old_ids.iter().enumerate() {
        remap[old as usize] = new as u32;
    }
    let mut offsets = Vec::with_capacity(old_ids.len() + 1);
    offsets.push(0usize);
    let mut adj = Vec::new();
    for &old in &old_ids {
        for &nb in g.neighbors(old) {
            let mapped = remap[nb as usize];
            if mapped != ABSENT {
                adj.push(mapped);
            }
        }
        offsets.push(adj.len());
    }
    Extracted {
        graph: CsrGraph::from_parts_unchecked(offsets, adj),
        old_ids,
    }
}

/// Extracts the largest connected component, renumbering contiguously and
/// preserving the original vertex order (§4.1).
pub fn largest_component(g: &CsrGraph) -> Extracted {
    let comps = connected_components(g);
    let big = comps.largest();
    let keep: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| comps.labels[v as usize] == big)
        .collect();
    induced_subgraph(g, &keep)
}

/// Extracts the largest connected component of a weighted graph, carrying
/// edge weights over.
pub fn largest_component_weighted(w: &WeightedCsr) -> (WeightedCsr, Vec<u32>) {
    let ex = largest_component(w.graph());
    let mut weights = Vec::with_capacity(ex.graph.num_arcs());
    for new_u in 0..ex.graph.num_vertices() as u32 {
        let old_u = ex.old_ids[new_u as usize];
        for &new_v in ex.graph.neighbors(new_u) {
            let old_v = ex.old_ids[new_v as usize];
            weights.push(
                w.weight(old_u, old_v)
                    .expect("edge present in induced subgraph"),
            );
        }
    }
    (
        WeightedCsr::from_parts_unchecked(ex.graph, weights),
        ex.old_ids,
    )
}

/// Returns all vertices within `hops` BFS levels of `center` (inclusive of
/// `center`), ascending. This is the vertex set behind the paper's "zoom"
/// feature (§4.5.2, Figure 8: "the 10-hop neighborhood of a random vertex").
pub fn k_hop_neighborhood(g: &CsrGraph, center: u32, hops: usize) -> Vec<u32> {
    assert!((center as usize) < g.num_vertices(), "center out of range");
    let mut dist = vec![u32::MAX; g.num_vertices()];
    dist[center as usize] = 0;
    let mut frontier = vec![center];
    let mut out = vec![center];
    for level in 1..=hops as u32 {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in g.neighbors(v) {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = level;
                    next.push(u);
                    out.push(u);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    out.sort_unstable();
    out
}

/// Estimates the graph diameter with the double-sweep heuristic: BFS from
/// `start`, then BFS again from the farthest vertex found; the second
/// eccentricity is a lower bound on the diameter (exact on trees) and the
/// standard cheap estimate used when reporting graph properties.
///
/// # Panics
/// Panics if `start` is out of range.
pub fn pseudo_diameter(g: &CsrGraph, start: u32) -> u32 {
    let n = g.num_vertices();
    assert!((start as usize) < n, "start out of range");
    let first = bfs_distances(g, start);
    let far = argmax_finite(&first);
    let second = bfs_distances(g, far);
    second
        .iter()
        .copied()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0)
}

fn bfs_distances(g: &CsrGraph, source: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_vertices()];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in g.neighbors(v) {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = level;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    dist
}

fn argmax_finite(dist: &[u32]) -> u32 {
    let mut best = 0u32;
    let mut best_d = 0u32;
    for (v, &d) in dist.iter().enumerate() {
        if d != u32::MAX && d > best_d {
            best_d = d;
            best = v as u32;
        }
    }
    best
}

/// Whether the graph is connected (true for the empty single-vertex graph).
pub fn is_connected(g: &CsrGraph) -> bool {
    g.num_vertices() == 0 || connected_components(g).count() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_from_edges;

    /// Two components: a triangle {0,1,2} and an edge {3,4}; 5 is isolated.
    fn two_comp() -> CsrGraph {
        build_from_edges(6, vec![(0, 1), (1, 2), (2, 0), (3, 4)])
    }

    #[test]
    fn components_found() {
        let c = connected_components(&two_comp());
        assert_eq!(c.count(), 3);
        assert_eq!(c.sizes, vec![3, 2, 1]);
        assert_eq!(c.largest(), 0);
        assert_eq!(c.labels[0], c.labels[2]);
        assert_ne!(c.labels[0], c.labels[3]);
    }

    #[test]
    fn largest_component_extracts_triangle() {
        let ex = largest_component(&two_comp());
        assert_eq!(ex.graph.num_vertices(), 3);
        assert_eq!(ex.graph.num_edges(), 3);
        assert_eq!(ex.old_ids, vec![0, 1, 2]);
        assert_eq!(ex.new_id(2), Some(2));
        assert_eq!(ex.new_id(4), None);
    }

    #[test]
    fn largest_component_tie_prefers_lower_id() {
        // Two components of equal size 2.
        let g = build_from_edges(4, vec![(0, 1), (2, 3)]);
        let ex = largest_component(&g);
        assert_eq!(ex.old_ids, vec![0, 1]);
    }

    #[test]
    fn induced_subgraph_preserves_order_and_edges() {
        let g = build_from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let ex = induced_subgraph(&g, &[4, 0, 1]); // unsorted input
        assert_eq!(ex.old_ids, vec![0, 1, 4]);
        assert_eq!(ex.graph.num_edges(), 2); // (0,1) and (4,0)
        assert!(ex.graph.has_edge(0, 1));
        assert!(ex.graph.has_edge(0, 2)); // old (0,4) → new (0,2)
        // Validates CSR invariants.
        let _ = CsrGraph::new(
            ex.graph.offsets().to_vec(),
            ex.graph.adjacency().to_vec(),
        );
    }

    #[test]
    fn induced_subgraph_of_everything_is_identity() {
        let g = two_comp();
        let all: Vec<u32> = (0..6).collect();
        let ex = induced_subgraph(&g, &all);
        assert_eq!(&ex.graph, &g);
    }

    #[test]
    fn k_hop_neighborhood_of_path() {
        let g = build_from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(k_hop_neighborhood(&g, 2, 0), vec![2]);
        assert_eq!(k_hop_neighborhood(&g, 2, 1), vec![1, 2, 3]);
        assert_eq!(k_hop_neighborhood(&g, 2, 2), vec![0, 1, 2, 3, 4]);
        assert_eq!(k_hop_neighborhood(&g, 2, 100), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn k_hop_stops_at_component_boundary() {
        let g = two_comp();
        assert_eq!(k_hop_neighborhood(&g, 3, 10), vec![3, 4]);
    }

    #[test]
    fn connectivity_predicate() {
        assert!(!is_connected(&two_comp()));
        let tri = build_from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        assert!(is_connected(&tri));
        let single = build_from_edges(1, vec![]);
        assert!(is_connected(&single));
    }

    #[test]
    fn pseudo_diameter_exact_on_paths_and_trees() {
        use crate::gen::{binary_tree, chain, complete, cycle};
        assert_eq!(pseudo_diameter(&chain(50), 25), 49);
        assert_eq!(pseudo_diameter(&complete(10), 0), 1);
        // Complete binary tree of depth 3: diameter 6.
        assert_eq!(pseudo_diameter(&binary_tree(15), 0), 6);
        // Cycles: double sweep gives the exact n/2 diameter.
        assert_eq!(pseudo_diameter(&cycle(20), 3), 10);
    }

    #[test]
    fn pseudo_diameter_is_a_lower_bound_on_grid() {
        use crate::gen::grid2d;
        // True diameter of a 7×9 grid is 6 + 8 = 14; double sweep finds it.
        assert_eq!(pseudo_diameter(&grid2d(7, 9), 30), 14);
    }

    #[test]
    fn weighted_extraction_carries_weights() {
        use crate::builder::build_weighted_from_edges;
        let w = build_weighted_from_edges(
            5,
            vec![(0, 1, 2.5), (1, 2, 1.5), (3, 4, 9.0)],
        );
        let (big, old_ids) = largest_component_weighted(&w);
        assert_eq!(big.num_vertices(), 3);
        assert_eq!(old_ids, vec![0, 1, 2]);
        assert_eq!(big.weight(0, 1), Some(2.5));
        assert_eq!(big.weight(1, 2), Some(1.5));
    }
}
