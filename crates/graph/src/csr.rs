//! Compressed sparse row (CSR) graph representation.
//!
//! An undirected simple graph is stored as a flat offset array plus a flat
//! adjacency array, the layout the paper uses (§3.1). Both directions of
//! every undirected edge are stored, so the adjacency array has length `2m`.
//! Vertex identifiers are `u32` (the paper's largest preprocessed graph has
//! `n = 134,217,728 < 2³²`), offsets are `usize`.
//!
//! Adjacency lists are kept **sorted ascending**. Sortedness is what makes
//! the adjacency-gap analysis of Figure 2 well-defined, enables binary-search
//! `has_edge`, and gives the SpMM kernels predictable access patterns.

/// An immutable undirected simple graph in CSR form.
///
/// Invariants (enforced by [`CsrGraph::new`] and preserved by construction
/// everywhere else in the workspace):
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, monotonically non-decreasing,
///   `offsets[n] == adj.len()`;
/// * every entry of `adj` is `< n`;
/// * each adjacency list is sorted strictly ascending (no parallel edges)
///   and never contains the owning vertex (no self-loops);
/// * symmetry: `v ∈ Adj(u)  ⟺  u ∈ Adj(v)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    adj: Vec<u32>,
}

impl CsrGraph {
    /// Wraps raw CSR arrays, validating every structural invariant.
    ///
    /// # Panics
    /// Panics if any invariant listed in the type-level docs is violated.
    pub fn new(offsets: Vec<usize>, adj: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n+1 ≥ 1");
        let n = offsets.len() - 1;
        assert_eq!(offsets[0], 0, "offsets[0] must be 0");
        assert_eq!(offsets[n], adj.len(), "offsets[n] must equal adj.len()");
        for v in 0..n {
            assert!(offsets[v] <= offsets[v + 1], "offsets must be monotone");
            let list = &adj[offsets[v]..offsets[v + 1]];
            for w in list.windows(2) {
                assert!(w[0] < w[1], "adjacency of {v} not strictly ascending");
            }
            for &u in list {
                assert!((u as usize) < n, "neighbor {u} out of range");
                assert!(u as usize != v, "self-loop at {v}");
            }
        }
        let g = Self { offsets, adj };
        for v in 0..n as u32 {
            for &u in g.neighbors(v) {
                assert!(
                    g.has_edge(u, v),
                    "asymmetric edge ({v},{u}): reverse direction missing"
                );
            }
        }
        g
    }

    /// Wraps raw CSR arrays without validating (for internal builders that
    /// construct the invariants directly and for large generated graphs
    /// where O(m log n) validation would dominate).
    ///
    /// # Safety-adjacent contract
    /// Not `unsafe` (no memory unsafety is possible — all accesses remain
    /// bounds-checked) but callers must uphold the structural invariants or
    /// algorithm results are meaningless. Violations are caught by
    /// `debug_assert`s in debug builds.
    pub fn from_parts_unchecked(offsets: Vec<usize>, adj: Vec<u32>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets[0], 0);
        debug_assert_eq!(*offsets.last().unwrap(), adj.len());
        Self { offsets, adj }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Number of stored directed arcs (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.adj.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// True if the undirected edge `(u, v)` is present.
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The raw offsets array (`n + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw adjacency array (`2m` entries).
    #[inline]
    pub fn adjacency(&self) -> &[u32] {
        &self.adj
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices() as u32).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The weighted degree array as `f64` (for unweighted graphs the
    /// weighted degree is the plain degree). This is the diagonal of `D`,
    /// which stands in for the never-materialized Laplacian (§3.1: "we use
    /// a dense degrees array to calculate the diagonal entry").
    pub fn degree_vector(&self) -> Vec<f64> {
        (0..self.num_vertices() as u32)
            .map(|v| self.degree(v) as f64)
            .collect()
    }
}

/// An undirected graph with non-negative `f64` edge weights, CSR layout.
///
/// The weight array is parallel to the adjacency array of the embedded
/// [`CsrGraph`]: `weights[k]` is the weight of the arc `adj[k]`. Symmetry of
/// weights (`w(u,v) == w(v,u)`) is an invariant.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedCsr {
    graph: CsrGraph,
    weights: Vec<f64>,
}

impl WeightedCsr {
    /// Wraps a CSR graph plus a parallel weight array.
    ///
    /// # Panics
    /// Panics if lengths mismatch, any weight is negative or non-finite, or
    /// weights are asymmetric.
    pub fn new(graph: CsrGraph, weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            graph.num_arcs(),
            "weights must parallel the adjacency array"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let w = Self { graph, weights };
        for u in 0..w.graph.num_vertices() as u32 {
            for (v, wt) in w.neighbors(u) {
                let back = w
                    .weight(v, u)
                    .expect("asymmetric adjacency in WeightedCsr");
                assert_eq!(wt, back, "asymmetric weight on edge ({u},{v})");
            }
        }
        w
    }

    /// Wraps parts without the O(m log n) symmetry validation.
    pub fn from_parts_unchecked(graph: CsrGraph, weights: Vec<f64>) -> Self {
        debug_assert_eq!(weights.len(), graph.num_arcs());
        Self { graph, weights }
    }

    /// Builds a unit-weight version of an unweighted graph (paper §4.4:
    /// "when using unit weights for road_usa ...").
    pub fn unit_weights(graph: CsrGraph) -> Self {
        let weights = vec![1.0; graph.num_arcs()];
        Self { graph, weights }
    }

    /// The underlying unweighted structure.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Iterates `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.graph.offsets()[v as usize];
        let hi = self.graph.offsets()[v as usize + 1];
        self.graph.adjacency()[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Weight of edge `(u, v)` if present.
    pub fn weight(&self, u: u32, v: u32) -> Option<f64> {
        let lo = self.graph.offsets()[u as usize];
        let list = self.graph.neighbors(u);
        list.binary_search(&v).ok().map(|i| self.weights[lo + i])
    }

    /// The raw weight array (parallel to [`CsrGraph::adjacency`]).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Weighted degree of `v` (sum of incident edge weights) — the diagonal
    /// `D(v, v)` of the weighted degrees matrix (§2.1).
    pub fn weighted_degree(&self, v: u32) -> f64 {
        let lo = self.graph.offsets()[v as usize];
        let hi = self.graph.offsets()[v as usize + 1];
        self.weights[lo..hi].iter().sum()
    }

    /// Weighted degree vector — the diagonal of `D`.
    pub fn weighted_degree_vector(&self) -> Vec<f64> {
        (0..self.num_vertices() as u32)
            .map(|v| self.weighted_degree(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0 –– 1 –– 2.
    fn path3() -> CsrGraph {
        CsrGraph::new(vec![0, 1, 3, 4], vec![1, 0, 2, 1])
    }

    #[test]
    fn path_counts() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_and_has_edge() {
        let g = path3();
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = path3();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn degree_vector_matches_degrees() {
        let g = path3();
        assert_eq!(g.degree_vector(), vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrGraph::new(vec![0], vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn singleton_graph_is_valid() {
        let g = CsrGraph::new(vec![0, 0], vec![]);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        CsrGraph::new(vec![0, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_edge_rejected() {
        CsrGraph::new(vec![0, 2, 4], vec![1, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn asymmetric_rejected() {
        // 0 → 1 present, 1 → 0 missing.
        CsrGraph::new(vec![0, 1, 1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_neighbor_rejected() {
        CsrGraph::new(vec![0, 1], vec![5]);
    }

    #[test]
    fn weighted_unit_graph() {
        let w = WeightedCsr::unit_weights(path3());
        assert_eq!(w.weighted_degree(1), 2.0);
        assert_eq!(w.weight(0, 1), Some(1.0));
        assert_eq!(w.weight(0, 2), None);
        assert_eq!(w.weighted_degree_vector(), vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn weighted_neighbors_iterate_pairs() {
        let g = path3();
        let w = WeightedCsr::new(g, vec![2.0, 2.0, 3.0, 3.0]);
        let nb: Vec<_> = w.neighbors(1).collect();
        assert_eq!(nb, vec![(0, 2.0), (2, 3.0)]);
        assert_eq!(w.weighted_degree(1), 5.0);
    }

    #[test]
    #[should_panic(expected = "asymmetric weight")]
    fn asymmetric_weights_rejected() {
        let g = path3();
        WeightedCsr::new(g, vec![2.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_rejected() {
        let g = path3();
        WeightedCsr::new(g, vec![-1.0, -1.0, 3.0, 3.0]);
    }
}
