//! Storage-agnostic neighbor access: the [`GraphStore`] trait.
//!
//! The BFS kernels and the Laplacian/SpMM row scans only ever need one
//! thing from a graph: the sorted adjacency list of a vertex, one vertex at
//! a time. [`GraphStore`] abstracts exactly that access pattern so the same
//! monomorphized kernels run over the plain in-RAM [`CsrGraph`] *and* over
//! the byte-coded gap-compressed [`crate::compressed::CompressedCsr`]
//! (possibly mmap-backed, larger than RAM) without materializing the full
//! `Vec<u32>` adjacency.
//!
//! The central method is [`GraphStore::neighbors_in`]: it hands back a
//! `&[u32]` slice of the vertex's sorted neighbors, borrowing either from
//! the graph itself (plain CSR — zero copy) or from a caller-provided
//! [`NeighborScratch`] decode buffer (compressed CSR — one small per-vertex
//! decode, reused across calls so steady-state allocates nothing). Every
//! kernel therefore keeps its exact arithmetic: the slice it iterates is
//! bit-for-bit the slice the plain path iterates, which is what makes
//! layouts from compressed and plain storage bit-identical.
//!
//! Parallel kernels own one scratch per work item (closure-local),
//! never shared — the trait requires `Sync` on the graph, not on scratches.

use crate::csr::CsrGraph;
use parhde_util::durable::Fnv64;

/// A reusable per-worker decode buffer for [`GraphStore::neighbors_in`].
///
/// Plain CSR ignores it entirely. Compressed CSR decodes each requested
/// vertex's neighbor block into `buf` and returns a slice of it; the buffer
/// grows to the largest degree seen and is then reused allocation-free.
#[derive(Debug, Default)]
pub struct NeighborScratch {
    /// The decode target. Contents are only meaningful between a
    /// `neighbors_in` call and the next use of the scratch.
    pub buf: Vec<u32>,
}

impl NeighborScratch {
    /// An empty scratch; grows on first use.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// A scratch pre-sized for degrees up to `max_degree` (avoids the one
    /// regrow on first decode of a high-degree vertex).
    pub fn with_capacity(max_degree: usize) -> Self {
        Self { buf: Vec::with_capacity(max_degree) }
    }
}

/// How a [`GraphStore`]'s adjacency is physically held.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageKind {
    /// Uncompressed `Vec<u32>` adjacency in RAM ([`CsrGraph`]).
    Plain,
    /// Byte-coded gap-compressed blocks in RAM.
    CompressedHeap,
    /// Byte-coded gap-compressed blocks in a read-only file mapping; pages
    /// stream in on demand and can be evicted under memory pressure.
    CompressedMmap,
}

impl StorageKind {
    /// Stable lowercase label for reports and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            StorageKind::Plain => "plain",
            StorageKind::CompressedHeap => "compressed",
            StorageKind::CompressedMmap => "compressed_mmap",
        }
    }

    /// True for both compressed variants.
    pub fn is_compressed(self) -> bool {
        !matches!(self, StorageKind::Plain)
    }
}

/// Read-only neighbor access over an undirected simple graph in some
/// storage format.
///
/// Implementations uphold the same structural invariants as [`CsrGraph`]:
/// adjacency lists sorted strictly ascending, no self-loops or parallel
/// edges, symmetric. The slice returned by [`neighbors_in`] for a given
/// vertex is identical across implementations of the same graph — kernels
/// generic over `GraphStore` are bit-reproducible across storage formats.
///
/// [`neighbors_in`]: GraphStore::neighbors_in
pub trait GraphStore: Sync {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges `m`.
    fn num_edges(&self) -> usize;

    /// Number of stored directed arcs (`2m`).
    fn num_arcs(&self) -> usize {
        2 * self.num_edges()
    }

    /// Degree of vertex `v`. O(1) for every implementation.
    fn degree(&self, v: u32) -> usize;

    /// Sorted adjacency list of `v`, possibly decoded into `scratch`.
    ///
    /// The returned slice borrows from `self` (plain CSR) or from
    /// `scratch.buf` (compressed CSR) — either way it is valid until the
    /// scratch is next used and contains exactly `self.degree(v)` entries.
    fn neighbors_in<'a>(&'a self, v: u32, scratch: &'a mut NeighborScratch) -> &'a [u32];

    /// Streams the neighbors of `v` in ascending order into `f`, stopping
    /// early when `f` returns `false`.
    ///
    /// Compressed implementations override this to stop *decoding* early —
    /// the bottom-up BFS step exits on the first frontier parent and on
    /// low-diameter graphs touches only a prefix of most lists.
    fn neighbors_while<F: FnMut(u32) -> bool>(
        &self,
        v: u32,
        scratch: &mut NeighborScratch,
        mut f: F,
    ) {
        for &u in self.neighbors_in(v, scratch) {
            if !f(u) {
                return;
            }
        }
    }

    /// Average degree `2m / n` (0 for the empty graph).
    fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The degree array as `f64` — the diagonal of `D` (§3.1).
    fn degree_vector(&self) -> Vec<f64> {
        (0..self.num_vertices() as u32)
            .map(|v| self.degree(v) as f64)
            .collect()
    }

    /// Calls `f` once per undirected edge `(u, v)` with `u < v`, decoding
    /// each vertex's block through one shared scratch. The storage-agnostic
    /// way to enumerate edges (drawing, export); hot kernels iterate
    /// per-vertex instead.
    fn for_each_edge<F: FnMut(u32, u32)>(&self, mut f: F) {
        let mut scratch = NeighborScratch::new();
        for u in 0..self.num_vertices() as u32 {
            for &v in self.neighbors_in(u, &mut scratch) {
                if u < v {
                    f(u, v);
                }
            }
        }
    }

    /// Bytes of process RAM this graph holds resident (offset/degree
    /// arrays, heap-compressed blocks, plain adjacency). Excludes mmapped
    /// file bytes — those are [`mapped_bytes`](GraphStore::mapped_bytes).
    fn resident_bytes(&self) -> usize;

    /// Bytes of read-only file mapping backing this graph (0 unless
    /// [`StorageKind::CompressedMmap`]). The kernel pages these in and out
    /// on demand; they are not charged against the memory-admission budget
    /// the way resident bytes are.
    fn mapped_bytes(&self) -> usize {
        0
    }

    /// The physical storage format.
    fn storage(&self) -> StorageKind;

    /// The plain CSR view, if this store *is* one.
    ///
    /// Fail-soft paths that must rebuild a graph (largest-component
    /// extraction) only apply to plain storage; compressed inputs surface a
    /// typed error instead of silently materializing an uncompressed copy.
    fn as_csr(&self) -> Option<&CsrGraph> {
        None
    }

    /// Digest of the graph's exact structure: FNV-1a over `n`, `m`, the
    /// offset array and the adjacency array. Two graphs collide only if
    /// they are structurally identical (up to hash collision); relabeling
    /// vertices changes the digest, which is intentional — checkpointed
    /// distance rows are indexed by vertex id.
    ///
    /// Offsets are recomputed cumulatively from degrees and the adjacency
    /// is streamed through a decode scratch, so plain and compressed
    /// storage of one graph hash the same byte stream to the same value:
    /// they share cache entries and checkpoints. O(m) per call on plain
    /// CSR; [`crate::CompressedCsr`] computes it once and memoizes it.
    fn digest(&self) -> u64 {
        stream_digest(self)
    }
}

/// The byte stream behind [`GraphStore::digest`].
pub(crate) fn stream_digest<G: GraphStore + ?Sized>(g: &G) -> u64 {
    let n = g.num_vertices();
    let mut h = Fnv64::new();
    h.update(&(n as u64).to_le_bytes());
    h.update(&(g.num_edges() as u64).to_le_bytes());
    let mut off = 0u64;
    h.update(&off.to_le_bytes());
    for v in 0..n as u32 {
        off += g.degree(v) as u64;
        h.update(&off.to_le_bytes());
    }
    let mut scratch = NeighborScratch::new();
    for v in 0..n as u32 {
        for &u in g.neighbors_in(v, &mut scratch) {
            h.update(&u.to_le_bytes());
        }
    }
    h.finish()
}

impl GraphStore for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        CsrGraph::num_arcs(self)
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn neighbors_in<'a>(&'a self, v: u32, _scratch: &'a mut NeighborScratch) -> &'a [u32] {
        self.neighbors(v)
    }

    #[inline]
    fn neighbors_while<F: FnMut(u32) -> bool>(
        &self,
        v: u32,
        _scratch: &mut NeighborScratch,
        mut f: F,
    ) {
        for &u in self.neighbors(v) {
            if !f(u) {
                return;
            }
        }
    }

    fn average_degree(&self) -> f64 {
        CsrGraph::average_degree(self)
    }

    fn max_degree(&self) -> usize {
        CsrGraph::max_degree(self)
    }

    fn degree_vector(&self) -> Vec<f64> {
        CsrGraph::degree_vector(self)
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets()) + std::mem::size_of_val(self.adjacency())
    }

    fn storage(&self) -> StorageKind {
        StorageKind::Plain
    }

    fn as_csr(&self) -> Option<&CsrGraph> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid2d;

    #[test]
    fn csr_store_matches_direct_access() {
        let g = grid2d(5, 7);
        let mut scratch = NeighborScratch::new();
        assert_eq!(GraphStore::num_vertices(&g), 35);
        assert_eq!(GraphStore::num_edges(&g), g.num_edges());
        assert_eq!(GraphStore::num_arcs(&g), g.num_arcs());
        for v in 0..35u32 {
            assert_eq!(g.neighbors_in(v, &mut scratch), g.neighbors(v));
            assert_eq!(GraphStore::degree(&g, v), g.degree(v));
        }
        assert_eq!(GraphStore::degree_vector(&g), g.degree_vector());
        assert_eq!(g.storage(), StorageKind::Plain);
        assert!(g.as_csr().is_some());
        assert!(g.resident_bytes() >= g.num_arcs() * 4);
        assert_eq!(g.mapped_bytes(), 0);
    }

    #[test]
    fn neighbors_while_stops_early() {
        let g = grid2d(4, 4);
        let mut scratch = NeighborScratch::new();
        let mut seen = Vec::new();
        g.neighbors_while(5, &mut scratch, |u| {
            seen.push(u);
            seen.len() < 2
        });
        assert_eq!(seen.len(), 2);
        assert_eq!(&seen[..], &g.neighbors(5)[..2]);
    }

    #[test]
    fn storage_kind_labels() {
        assert_eq!(StorageKind::Plain.label(), "plain");
        assert_eq!(StorageKind::CompressedHeap.label(), "compressed");
        assert_eq!(StorageKind::CompressedMmap.label(), "compressed_mmap");
        assert!(!StorageKind::Plain.is_compressed());
        assert!(StorageKind::CompressedMmap.is_compressed());
    }
}
