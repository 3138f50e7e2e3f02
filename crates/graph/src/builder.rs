//! Edge-list ingestion and CSR construction.
//!
//! Implements the paper's preprocessing contract (§4.1): "we preprocess the
//! matrices and graphs to remove self loops and parallel edges. We also
//! ignore edge direction for directed graphs". Construction is sort-based
//! and parallel: arcs for both directions are materialized, sorted with
//! a parallel sort (`parhde_util::par`), deduplicated, and sliced into CSR.

use crate::csr::{CsrGraph, WeightedCsr};
use parhde_util::par::prelude::*;

/// Accumulates (possibly messy) edges and builds a clean [`CsrGraph`].
///
/// Accepts self-loops, duplicates, and both orientations of the same edge;
/// all are normalized away at [`GraphBuilder::build`] time.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        assert!(
            num_vertices <= u32::MAX as usize,
            "vertex identifiers are u32"
        );
        Self { num_vertices, edges: Vec::new() }
    }

    /// Creates a builder with pre-reserved capacity for `num_edges` edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        let mut b = Self::new(num_vertices);
        b.edges.reserve(num_edges);
        b
    }

    /// Adds an undirected edge; direction and duplicates are irrelevant.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    #[inline]
    pub fn add_edge(&mut self, u: u32, v: u32) {
        debug_assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u},{v}) out of range for n={}",
            self.num_vertices
        );
        self.edges.push((u, v));
    }

    /// Builds the CSR graph: symmetrizes, removes self-loops and parallel
    /// edges, and produces sorted adjacency lists.
    pub fn build(self) -> CsrGraph {
        build_from_edges(self.num_vertices, self.edges)
    }
}

/// Builds a clean undirected CSR graph from an arbitrary edge list
/// (self-loops and duplicates permitted; they are removed).
pub fn build_from_edges(num_vertices: usize, edges: Vec<(u32, u32)>) -> CsrGraph {
    assert!(
        num_vertices <= u32::MAX as usize + 1,
        "vertex count {num_vertices} exceeds the u32 vertex-id space"
    );
    // Materialize both arc directions, dropping self-loops.
    let mut arcs: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
    for &(u, v) in &edges {
        assert!(
            (u as usize) < num_vertices && (v as usize) < num_vertices,
            "edge ({u},{v}) out of range for n={num_vertices}"
        );
        if u != v {
            arcs.push((u, v));
            arcs.push((v, u));
        }
    }
    drop(edges);
    arcs.par_sort_unstable();
    arcs.dedup();

    let mut offsets = vec![0usize; num_vertices + 1];
    for &(u, _) in &arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..num_vertices {
        offsets[i + 1] += offsets[i];
    }
    let adj: Vec<u32> = arcs.iter().map(|&(_, v)| v).collect();
    release_arcs(arcs);
    CsrGraph::from_parts_unchecked(offsets, adj)
}

/// Arc lists smaller than this are freed without a trim: what they can
/// leave resident is under a MiB, and the trim is a process-wide call.
const TRIM_FLOOR_BYTES: usize = 1 << 20;

/// Drops a build's arc list and returns its heap pages to the system.
/// glibc keeps freed memory mapped until its heap top outgrows a threshold
/// that rises with each large block it unmaps, so in a process that builds
/// more than one graph the dropped arc list (twice the edge list) could
/// otherwise stay resident for the life of the process, wherever other
/// threads' handles keep the heap from shrinking.
fn release_arcs<T>(arcs: Vec<T>) {
    let bytes = arcs.capacity() * std::mem::size_of::<T>();
    drop(arcs);
    if bytes >= TRIM_FLOOR_BYTES {
        trim_heap();
    }
}

/// glibc's `malloc_trim(0)`; a no-op off linux-gnu.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        unsafe extern "C" {
            // glibc's `malloc_trim(3)`, in the C runtime every Rust binary
            // on this target already links.
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: takes no pointers and only releases unused pages.
        unsafe { malloc_trim(0) };
    }
}

/// Builds a weighted undirected CSR graph from `(u, v, w)` triples.
///
/// Self-loops are dropped. When parallel edges appear (in either direction),
/// the **minimum** weight wins — matching shortest-path semantics, where a
/// heavier parallel edge can never matter.
///
/// # Panics
/// Panics if an endpoint is out of range or a weight is negative/non-finite.
pub fn build_weighted_from_edges(
    num_vertices: usize,
    edges: Vec<(u32, u32, f64)>,
) -> WeightedCsr {
    let mut arcs: Vec<(u32, u32, f64)> = Vec::with_capacity(edges.len() * 2);
    for &(u, v, w) in &edges {
        assert!(
            (u as usize) < num_vertices && (v as usize) < num_vertices,
            "edge ({u},{v}) out of range for n={num_vertices}"
        );
        assert!(w.is_finite() && w >= 0.0, "weight {w} must be finite, ≥ 0");
        if u != v {
            arcs.push((u, v, w));
            arcs.push((v, u, w));
        }
    }
    drop(edges);
    // Sort by (u, v, w): after dedup-by-endpoint the first (minimal-weight)
    // copy of each arc survives.
    arcs.par_sort_unstable_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then(a.2.partial_cmp(&b.2).expect("weights are finite"))
    });
    arcs.dedup_by_key(|&mut (u, v, _)| (u, v));

    let mut offsets = vec![0usize; num_vertices + 1];
    for &(u, _, _) in &arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..num_vertices {
        offsets[i + 1] += offsets[i];
    }
    let adj: Vec<u32> = arcs.iter().map(|&(_, v, _)| v).collect();
    let weights: Vec<f64> = arcs.iter().map(|&(_, _, w)| w).collect();
    release_arcs(arcs);
    let graph = CsrGraph::from_parts_unchecked(offsets, adj);
    WeightedCsr::from_parts_unchecked(graph, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_deduplicates_and_symmetrizes() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // reverse duplicate
        b.add_edge(0, 1); // exact duplicate
        b.add_edge(2, 2); // self loop
        b.add_edge(3, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert!(g.has_edge(1, 3) && g.has_edge(3, 1));
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn builder_validates_against_csr_invariants() {
        // Round-trip through the validating constructor.
        let mut b = GraphBuilder::new(5);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let check = CsrGraph::new(g.offsets().to_vec(), g.adjacency().to_vec());
        assert_eq!(check.num_edges(), 10);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let g = build_from_edges(5, vec![(4, 0), (2, 0), (0, 3), (1, 0)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn empty_builder_builds_edgeless_graph() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        build_from_edges(2, vec![(0, 5)]);
    }

    #[test]
    fn weighted_build_min_weight_wins() {
        let w = build_weighted_from_edges(
            3,
            vec![(0, 1, 5.0), (1, 0, 2.0), (1, 2, 1.0), (1, 1, 9.0)],
        );
        assert_eq!(w.num_edges(), 2);
        assert_eq!(w.weight(0, 1), Some(2.0));
        assert_eq!(w.weight(1, 0), Some(2.0));
        assert_eq!(w.weight(1, 2), Some(1.0));
        // Validate symmetry through the checking constructor.
        let revalidated = WeightedCsr::new(w.graph().clone(), w.weights().to_vec());
        assert_eq!(revalidated.weighted_degree(1), 3.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn weighted_build_rejects_nan() {
        build_weighted_from_edges(2, vec![(0, 1, f64::NAN)]);
    }

    #[test]
    fn large_random_build_roundtrip() {
        use parhde_util::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        let n = 500usize;
        let edges: Vec<(u32, u32)> = (0..4000)
            .map(|_| (rng.next_index(n) as u32, rng.next_index(n) as u32))
            .collect();
        let g = build_from_edges(n, edges);
        // Full invariant validation.
        let _ = CsrGraph::new(g.offsets().to_vec(), g.adjacency().to_vec());
    }
}
