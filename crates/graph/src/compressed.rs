//! Byte-coded gap-compressed CSR and the `PHDEGRF` v1 snapshot format.
//!
//! The Figure 2 analysis ([`crate::gaps`]) shows adjacency gaps of real and
//! synthetic graphs concentrate at small values — exactly the regime where
//! GBBS-style byte codes shine. [`CompressedCsr`] stores each vertex's
//! sorted neighbor list as a *gap-coded varint block*:
//!
//! * the first neighbor is stored as the zigzag varint of `v₁ − v` (signed:
//!   a vertex's first neighbor may precede it);
//! * every subsequent neighbor is stored as the varint of `vᵢ − vᵢ₋₁ − 1`
//!   (gaps are ≥ 1 because lists are strictly ascending, so the code spends
//!   its cheapest symbol, `0x00`, on the most common gap).
//!
//! Varints are LEB128: 7 value bits per byte, high bit set on continuation.
//! A gap < 128 — the overwhelming majority after Figure 2 — costs one byte
//! instead of the four a `u32` costs in plain CSR.
//!
//! Blocks are addressed by a `(n+1)`-entry byte-offset array plus an
//! `n`-entry degree array, both kept uncompressed in RAM (O(1) degree is
//! load-bearing for the BFS planner, direction-optimizing scout counts and
//! `degree_vector`). The blocks themselves live either on the heap or
//! behind a read-only file mapping of a `PHDEGRF` v1 snapshot, so graphs
//! whose *adjacency* exceeds RAM stream through BFS/SpMM page by page.
//!
//! # `PHDEGRF` v1 snapshot layout (little-endian)
//!
//! ```text
//! magic       8 bytes   b"PHDEGRF1"
//! checksum    u64       FNV-1a over every byte after this field
//! n           u64       number of vertices
//! m           u64       number of undirected edges
//! blocks_len  u64       total bytes of the varint block region
//! max_degree  u64       maximum degree (validated against the blocks)
//! offsets     (n+1)·u64 byte offset of each vertex's block
//! degrees     n·u32     degree of each vertex
//! blocks      blocks_len bytes of gap-coded varint data
//! ```
//!
//! Snapshots are written with [`durable::publish`], the steps the serve
//! cache uses (DESIGN.md §16.4), so a crash never publishes a torn file,
//! and readers may treat a present snapshot as immutable — the safety
//! contract the mmap path relies on.
//!
//! Reading is fully defensive (mirrors the checkpoint reader): declared
//! sizes are checked against the real payload length with overflow-safe
//! arithmetic *before any allocation*, the
//! checksum is verified, and every block is decoded once to validate
//! sortedness, range and degree agreement. Per-list invariants are fully
//! checked; cross-list symmetry is the writer's contract (checking it
//! would cost O(m·deg) decodes — the checksum plus the durable writer
//! stand in for it, and kernels remain memory-safe regardless).

use crate::csr::CsrGraph;
use crate::io::GraphIoError;
use crate::store::{self, GraphStore, NeighborScratch, StorageKind};
use parhde_util::durable::{self, fnv64, Reader};
use parhde_util::par::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The 8-byte `PHDEGRF` v1 snapshot magic. Callers sniff this on raw file
/// bytes to route packed inputs before attempting any text decode.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PHDEGRF1";
/// Bytes before the offsets array: magic + checksum + n + m + blocks_len +
/// max_degree.
const HEADER_LEN: usize = 48;

// ---------------------------------------------------------------------------
// Varint codec
// ---------------------------------------------------------------------------

/// Encoded length of `x` as a LEB128 varint (1–10 bytes).
#[inline]
pub fn varint_len(x: u64) -> usize {
    // ⌈bits/7⌉ with a 1-byte floor for x == 0.
    (64 - (x | 1).leading_zeros() as usize).div_ceil(7)
}

/// Appends the LEB128 encoding of `x` to `out`.
#[inline]
fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads one LEB128 varint at `*pos`, advancing it. `None` on truncation
/// or a continuation chain longer than a u64 can hold.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        x |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Zigzag-maps a signed delta to an unsigned varint payload.
#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Appends the gap-coded block for vertex `v` with sorted neighbors `nbrs`.
fn encode_block(v: u32, nbrs: &[u32], out: &mut Vec<u8>) {
    let Some((&first, rest)) = nbrs.split_first() else {
        return;
    };
    push_varint(out, zigzag(first as i64 - v as i64));
    let mut prev = first;
    for &u in rest {
        push_varint(out, (u - prev - 1) as u64);
        prev = u;
    }
}

/// Exact encoded byte length of the block [`encode_block`] would emit.
pub(crate) fn encoded_block_len(v: u32, nbrs: &[u32]) -> usize {
    let Some((&first, rest)) = nbrs.split_first() else {
        return 0;
    };
    let mut len = varint_len(zigzag(first as i64 - v as i64));
    let mut prev = first;
    for &u in rest {
        len += varint_len((u - prev - 1) as u64);
        prev = u;
    }
    len
}

/// Decodes the block of vertex `v` into `out` (cleared first), validating
/// every structural invariant: exactly `deg` neighbors consuming exactly
/// the whole block, strictly ascending, in `[0, n)`, never `v` itself.
fn decode_block_into(
    v: u32,
    deg: usize,
    n: usize,
    block: &[u8],
    out: &mut Vec<u32>,
) -> Result<(), &'static str> {
    out.clear();
    if deg == 0 {
        return if block.is_empty() { Ok(()) } else { Err("bytes in a degree-0 block") };
    }
    out.reserve(deg);
    let mut pos = 0usize;
    let first = unzigzag(read_varint(block, &mut pos).ok_or("truncated varint")?)
        .checked_add(v as i64)
        .ok_or("first-neighbor delta overflows")?;
    if first < 0 || first as u64 >= n as u64 {
        return Err("neighbor out of range");
    }
    if first == v as i64 {
        return Err("self-loop");
    }
    let mut prev = first as u32;
    out.push(prev);
    for _ in 1..deg {
        let gap = read_varint(block, &mut pos).ok_or("truncated varint")?;
        let next = (prev as u64)
            .checked_add(gap)
            .and_then(|x| x.checked_add(1))
            .ok_or("gap overflows")?;
        if next >= n as u64 {
            return Err("neighbor out of range");
        }
        prev = next as u32;
        out.push(prev);
    }
    if pos != block.len() {
        return Err("trailing bytes after last neighbor");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Read-only file mappings (dependency-free mmap)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod mapping {
    //! A minimal read-only `mmap(2)` wrapper declared directly against the
    //! C library (the workspace adds no dependencies). The mapping is
    //! `PROT_READ`/`MAP_PRIVATE`; since snapshots are published by atomic
    //! rename and never mutated in place, the bytes behind the mapping are
    //! stable for its lifetime.

    use std::fs::File;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 0x1;
    const MAP_PRIVATE: c_int = 0x2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// An owned read-only mapping of a whole file.
    #[derive(Debug)]
    pub struct MmapRegion {
        ptr: *mut c_void,
        len: usize,
    }

    // The mapping is read-only and owned; sharing &self across threads only
    // ever reads immutable bytes.
    unsafe impl Send for MmapRegion {}
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        /// Maps `file` (of known size `len`) read-only.
        pub fn map(file: &File, len: usize) -> std::io::Result<MmapRegion> {
            if len == 0 {
                // mmap(2) rejects zero-length maps; model it as a dangling
                // empty region.
                return Ok(MmapRegion { ptr: std::ptr::null_mut(), len: 0 });
            }
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as usize == usize::MAX {
                return Err(std::io::Error::last_os_error());
            }
            Ok(MmapRegion { ptr, len })
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        /// Mapping size in bytes.
        pub fn len(&self) -> usize {
            self.len
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            if self.len != 0 {
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CompressedCsr
// ---------------------------------------------------------------------------

/// Where the varint block region physically lives.
enum Blocks {
    /// Blocks held in RAM.
    Heap(Vec<u8>),
    /// Blocks behind a read-only file mapping (`blocks` region starts at
    /// `start` within the mapping).
    #[cfg(unix)]
    Mapped { map: mapping::MmapRegion, start: usize },
}

impl Blocks {
    fn bytes(&self) -> &[u8] {
        match self {
            Blocks::Heap(v) => v,
            #[cfg(unix)]
            Blocks::Mapped { map, start } => &map.as_slice()[*start..],
        }
    }
}

impl std::fmt::Debug for Blocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Blocks::Heap(v) => write!(f, "Blocks::Heap({} bytes)", v.len()),
            #[cfg(unix)]
            Blocks::Mapped { map, start } => {
                write!(f, "Blocks::Mapped({} bytes)", map.len() - start)
            }
        }
    }
}

/// An undirected simple graph with byte-coded gap-compressed adjacency.
///
/// Structurally equivalent to a [`CsrGraph`] — same invariants, same
/// neighbor order — but the adjacency array is stored as per-vertex varint
/// gap blocks (see the module docs), decoded on demand into a
/// [`NeighborScratch`]. Construct with [`CompressedCsr::from_csr`], or
/// reopen a packed snapshot with [`CompressedCsr::open_heap`] /
/// [`CompressedCsr::open_mmap`].
#[derive(Debug)]
pub struct CompressedCsr {
    n: usize,
    m: usize,
    max_degree: usize,
    /// Byte offset of each vertex's block; `n + 1` entries.
    offsets: Vec<u64>,
    /// Degree of each vertex; `n` entries.
    degrees: Vec<u32>,
    blocks: Blocks,
    /// Decode telemetry.
    stats: DecodeStats,
    /// [`GraphStore::digest`], computed on first use: the store never
    /// changes, so one O(m) decode serves every later caller.
    digest: OnceLock<u64>,
}

/// Decode telemetry, one shard per thread slot: every decode adds to its
/// thread's own cache line, so threads decoding at once never contend.
#[derive(Debug, Default)]
struct DecodeStats(Box<[DecodeShard; 16]>);

#[derive(Debug, Default)]
#[repr(align(128))]
struct DecodeShard {
    /// Number of `neighbors_in`/`neighbors_while` decode calls.
    calls: AtomicU64,
    /// Neighbor entries decoded (early exits count only what was
    /// actually produced).
    arcs: AtomicU64,
}

impl DecodeStats {
    fn record(&self, calls: u64, arcs: u64) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
        }
        let shard = &self.0[SLOT.with(|s| *s) % self.0.len()];
        shard.calls.fetch_add(calls, Ordering::Relaxed);
        shard.arcs.fetch_add(arcs, Ordering::Relaxed);
    }

    fn take(&self) -> (u64, u64) {
        let take = |f: fn(&DecodeShard) -> &AtomicU64| {
            self.0.iter().map(|s| f(s).swap(0, Ordering::Relaxed)).sum()
        };
        (take(|s| &s.calls), take(|s| &s.arcs))
    }
}

impl CompressedCsr {
    /// Compresses an in-RAM CSR graph. O(m); the input is not consumed.
    pub fn from_csr(g: &CsrGraph) -> CompressedCsr {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut degrees = Vec::with_capacity(n);
        // Typical Figure 2 graphs land between 1 and 2 bytes per arc.
        let mut blocks = Vec::with_capacity(g.num_arcs() + g.num_arcs() / 2);
        offsets.push(0u64);
        for v in 0..n as u32 {
            let nbrs = g.neighbors(v);
            encode_block(v, nbrs, &mut blocks);
            offsets.push(blocks.len() as u64);
            degrees.push(nbrs.len() as u32);
        }
        blocks.shrink_to_fit();
        CompressedCsr {
            n,
            m: g.num_edges(),
            max_degree: g.max_degree(),
            offsets,
            degrees,
            blocks: Blocks::Heap(blocks),
            stats: DecodeStats::default(),
            digest: OnceLock::new(),
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Number of stored directed arcs (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        2 * self.m
    }

    /// Degree of vertex `v` — O(1), from the uncompressed degree array.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.degrees[v as usize] as usize
    }

    /// Maximum degree (recorded at pack time, validated on open).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Total bytes of the varint block region.
    pub fn encoded_bytes(&self) -> usize {
        self.blocks.bytes().len()
    }

    /// Average encoded bytes per stored arc.
    pub fn bytes_per_arc(&self) -> f64 {
        if self.num_arcs() == 0 {
            0.0
        } else {
            self.encoded_bytes() as f64 / self.num_arcs() as f64
        }
    }

    /// Adjacency compression ratio: plain `u32` adjacency bytes over
    /// encoded block bytes (> 1 means the code is winning).
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes() == 0 {
            1.0
        } else {
            (self.num_arcs() * 4) as f64 / self.encoded_bytes() as f64
        }
    }

    /// Decompresses back to a plain [`CsrGraph`] (tests and tooling; the
    /// kernels never need this).
    pub fn to_csr(&self) -> CsrGraph {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut adj = Vec::with_capacity(self.num_arcs());
        offsets.push(0usize);
        let mut scratch = NeighborScratch::new();
        for v in 0..self.n as u32 {
            adj.extend_from_slice(self.neighbors_in(v, &mut scratch));
            offsets.push(adj.len());
        }
        CsrGraph::from_parts_unchecked(offsets, adj)
    }

    /// Decode telemetry: `(calls, arcs)` — how many neighbor-list decodes
    /// have run since the last take and how many neighbor entries they
    /// produced. Taking swaps the counters to zero, so callers sharing one
    /// store each take what was decoded since, and their takes sum to
    /// every decode counted exactly once.
    pub fn take_decode_stats(&self) -> (u64, u64) {
        self.stats.take()
    }

    // -- Snapshot I/O -------------------------------------------------------

    /// Serializes to the `PHDEGRF` v1 byte image.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let blocks = self.blocks.bytes();
        let total = HEADER_LEN + (self.n + 1) * 8 + self.n * 4 + blocks.len();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&[0u8; 8]); // checksum patched below
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        out.extend_from_slice(&(self.m as u64).to_le_bytes());
        out.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.max_degree as u64).to_le_bytes());
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for &d in &self.degrees {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(blocks);
        let sum = fnv64(&out[16..]);
        out[8..16].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Writes a `PHDEGRF` v1 snapshot with [`durable::publish`]
    /// (DESIGN.md §16.4), so a crash never leaves a torn snapshot under
    /// the final name and a failed write leaves no staging file.
    ///
    /// # Errors
    /// Propagates I/O errors from any step.
    pub fn write_snapshot(&self, path: &Path) -> std::io::Result<()> {
        durable::publish(path, durable::Sites::default(), || self.snapshot_bytes()).map(drop)
    }

    /// Parses a snapshot from an in-RAM byte image, holding the block
    /// region on the heap.
    ///
    /// # Errors
    /// Any structural, size or checksum defect as a typed [`GraphIoError`];
    /// never panics and never allocates more than the payload justifies.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<CompressedCsr, GraphIoError> {
        let parsed = parse_snapshot(bytes)?;
        let blocks = bytes[parsed.blocks_start..].to_vec();
        Ok(parsed.into_compressed(Blocks::Heap(blocks)))
    }

    /// Opens a snapshot file fully into RAM (block region on the heap).
    ///
    /// # Errors
    /// I/O errors as [`GraphIoError::Invalid`]; format defects typed.
    pub fn open_heap(path: &Path) -> Result<CompressedCsr, GraphIoError> {
        let bytes = std::fs::read(path)
            .map_err(|e| GraphIoError::Invalid(format!("reading {}: {e}", path.display())))?;
        Self::from_snapshot_bytes(&bytes)
    }

    /// Opens a snapshot file with the block region mmap-backed: only the
    /// offset and degree arrays are copied into RAM; adjacency bytes
    /// stream from the page cache on demand, so the graph may exceed RAM.
    ///
    /// Validation is identical to [`open_heap`](Self::open_heap) — one
    /// sequential pass over the mapping (checksum + per-block decode
    /// check), after which pages may be evicted and re-faulted freely.
    ///
    /// On non-unix platforms this falls back to [`open_heap`](Self::open_heap).
    ///
    /// # Errors
    /// I/O errors as [`GraphIoError::Invalid`]; format defects typed.
    #[cfg(unix)]
    pub fn open_mmap(path: &Path) -> Result<CompressedCsr, GraphIoError> {
        let file = std::fs::File::open(path)
            .map_err(|e| GraphIoError::Invalid(format!("opening {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| GraphIoError::Invalid(format!("stat {}: {e}", path.display())))?
            .len();
        let len = usize::try_from(len)
            .map_err(|_| GraphIoError::Invalid("snapshot larger than address space".into()))?;
        let map = mapping::MmapRegion::map(&file, len)
            .map_err(|e| GraphIoError::Invalid(format!("mmap {}: {e}", path.display())))?;
        let parsed = parse_snapshot(map.as_slice())?;
        let start = parsed.blocks_start;
        Ok(parsed.into_compressed(Blocks::Mapped { map, start }))
    }

    /// Opens a snapshot file (non-unix fallback: fully in RAM).
    #[cfg(not(unix))]
    pub fn open_mmap(path: &Path) -> Result<CompressedCsr, GraphIoError> {
        Self::open_heap(path)
    }
}

/// Everything [`parse_snapshot`] extracts before the block storage choice.
struct ParsedSnapshot {
    n: usize,
    m: usize,
    max_degree: usize,
    offsets: Vec<u64>,
    degrees: Vec<u32>,
    blocks_start: usize,
}

impl ParsedSnapshot {
    fn into_compressed(self, blocks: Blocks) -> CompressedCsr {
        CompressedCsr {
            n: self.n,
            m: self.m,
            max_degree: self.max_degree,
            offsets: self.offsets,
            degrees: self.degrees,
            blocks,
            stats: DecodeStats::default(),
            digest: OnceLock::new(),
        }
    }
}

/// Defensive `PHDEGRF` v1 parse + full validation over a byte image
/// (heap-resident or mmapped). See the module docs for the threat model.
fn parse_snapshot(bytes: &[u8]) -> Result<ParsedSnapshot, GraphIoError> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(GraphIoError::Header(
            "bad magic: not a PHDEGRF graph snapshot".into(),
        ));
    }
    let mut r = Reader::new(&bytes[8..]);
    // Cannot fail: the header length was checked above.
    let mut field = || r.u64().unwrap_or_default();
    let checksum = field();
    let n64 = field();
    let m64 = field();
    let blocks_len64 = field();
    let max_degree64 = field();

    // Vertex ids are u32; anything larger cannot address its own edges.
    if n64 > u32::MAX as u64 + 1 {
        return Err(GraphIoError::TooLarge {
            what: "vertex count",
            value: n64,
            max: u32::MAX as u64 + 1,
        });
    }
    let n = n64 as usize;
    // Declared sizes are untrusted: establish the exact required payload
    // length with overflow-safe arithmetic before allocating anything.
    let blocks_len = usize::try_from(blocks_len64).map_err(|_| GraphIoError::TooLarge {
        what: "block-region length",
        value: blocks_len64,
        max: usize::MAX as u64,
    })?;
    let need = n
        .checked_add(1)
        .and_then(|o| o.checked_mul(8))
        .and_then(|o| n.checked_mul(4).map(|d| (o, d)))
        .and_then(|(o, d)| o.checked_add(d))
        .and_then(|a| a.checked_add(HEADER_LEN))
        .and_then(|a| a.checked_add(blocks_len))
        .ok_or(GraphIoError::Truncated { needed: usize::MAX, available: bytes.len() })?;
    if bytes.len() != need {
        return Err(GraphIoError::Truncated { needed: need, available: bytes.len() });
    }
    if fnv64(&bytes[16..]) != checksum {
        return Err(GraphIoError::Invalid("checksum mismatch: snapshot corrupt".into()));
    }
    let m = usize::try_from(m64).map_err(|_| GraphIoError::TooLarge {
        what: "edge count",
        value: m64,
        max: usize::MAX as u64,
    })?;
    let max_degree = usize::try_from(max_degree64).map_err(|_| GraphIoError::TooLarge {
        what: "max degree",
        value: max_degree64,
        max: usize::MAX as u64,
    })?;

    // Copy out the index arrays (bounded by the already-verified payload).
    let truncated = || GraphIoError::Truncated {
        needed: need,
        available: bytes.len(),
    };
    let offsets = r.u64s(n + 1).ok_or_else(truncated)?;
    let degrees = r.u32s(n).ok_or_else(truncated)?;
    let blocks_start = bytes.len() - r.remaining();

    // Index-array invariants.
    if offsets[0] != 0 {
        return Err(GraphIoError::Invalid("offsets[0] != 0".into()));
    }
    if offsets[n] != blocks_len64 {
        return Err(GraphIoError::Invalid("offsets[n] != blocks_len".into()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphIoError::Invalid("offsets not monotone".into()));
    }
    let degree_sum: u64 = degrees.iter().map(|&d| d as u64).sum();
    if degree_sum != 2 * m64 {
        return Err(GraphIoError::Invalid(format!(
            "degree sum {degree_sum} != 2m = {}",
            2 * m64
        )));
    }
    let seen_max = degrees.iter().copied().max().unwrap_or(0) as u64;
    if seen_max != max_degree64 {
        return Err(GraphIoError::Invalid(format!(
            "recorded max_degree {max_degree64} != actual {seen_max}"
        )));
    }

    // Per-block decode validation: sorted, in range, no self-loop, exact
    // degree, exact byte consumption. One parallel pass; nothing retained.
    let blocks = &bytes[blocks_start..];
    const CHUNK: usize = 1 << 14;
    (0..n.div_ceil(CHUNK)).into_par_iter().try_for_each(|c| {
        let lo = c * CHUNK;
        let hi = (lo + CHUNK).min(n);
        let mut buf: Vec<u32> = Vec::new();
        for v in lo..hi {
            let (b0, b1) = (offsets[v] as usize, offsets[v + 1] as usize);
            let block = &blocks[b0..b1];
            decode_block_into(v as u32, degrees[v] as usize, n, block, &mut buf)
                .map_err(|msg| GraphIoError::Invalid(format!("block of vertex {v}: {msg}")))?;
        }
        Ok::<(), GraphIoError>(())
    })?;

    Ok(ParsedSnapshot { n, m, max_degree, offsets, degrees, blocks_start })
}

impl GraphStore for CompressedCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.m
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        self.degrees[v as usize] as usize
    }

    fn neighbors_in<'a>(&'a self, v: u32, scratch: &'a mut NeighborScratch) -> &'a [u32] {
        let deg = self.degrees[v as usize] as usize;
        let (b0, b1) = (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
        let block = &self.blocks.bytes()[b0..b1];
        // Validated at construction/open; a failure here means the backing
        // bytes changed underneath us.
        if let Err(msg) = decode_block_into(v, deg, self.n, block, &mut scratch.buf) {
            panic!("corrupt compressed block for vertex {v}: {msg}");
        }
        self.stats.record(1, deg as u64);
        &scratch.buf
    }

    fn neighbors_while<F: FnMut(u32) -> bool>(
        &self,
        v: u32,
        _scratch: &mut NeighborScratch,
        mut f: F,
    ) {
        // Streaming decode: stop pulling varints as soon as `f` says stop —
        // the bottom-up BFS step usually exits within a few neighbors.
        let deg = self.degrees[v as usize] as usize;
        if deg == 0 {
            return;
        }
        let (b0, b1) = (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
        let block = &self.blocks.bytes()[b0..b1];
        let mut pos = 0usize;
        let mut produced = 0u64;
        let mut prev = match read_varint(block, &mut pos) {
            Some(x) => (v as i64 + unzigzag(x)) as u32,
            None => panic!("corrupt compressed block for vertex {v}: truncated varint"),
        };
        produced += 1;
        if f(prev) {
            for _ in 1..deg {
                let gap = match read_varint(block, &mut pos) {
                    Some(g) => g,
                    None => panic!("corrupt compressed block for vertex {v}: truncated varint"),
                };
                prev = (prev as u64 + gap + 1) as u32;
                produced += 1;
                if !f(prev) {
                    break;
                }
            }
        }
        self.stats.record(1, produced);
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }

    fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| store::stream_digest(self))
    }

    fn resident_bytes(&self) -> usize {
        let idx = self.offsets.len() * 8 + self.degrees.len() * 4;
        match &self.blocks {
            Blocks::Heap(v) => idx + v.len(),
            #[cfg(unix)]
            Blocks::Mapped { .. } => idx,
        }
    }

    fn mapped_bytes(&self) -> usize {
        match &self.blocks {
            Blocks::Heap(_) => 0,
            #[cfg(unix)]
            Blocks::Mapped { map, .. } => map.len(),
        }
    }

    fn storage(&self) -> StorageKind {
        match &self.blocks {
            Blocks::Heap(_) => StorageKind::CompressedHeap,
            #[cfg(unix)]
            Blocks::Mapped { .. } => StorageKind::CompressedMmap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{chain, complete, grid2d, kron, pref_attach};

    fn assert_equivalent(g: &CsrGraph, c: &CompressedCsr) {
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.num_arcs(), g.num_arcs());
        assert_eq!(CompressedCsr::max_degree(c), g.max_degree());
        let mut scratch = NeighborScratch::new();
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(c.neighbors_in(v, &mut scratch), g.neighbors(v), "vertex {v}");
            assert_eq!(CompressedCsr::degree(c, v), g.degree(v));
        }
        assert_eq!(GraphStore::degree_vector(c), g.degree_vector());
    }

    #[test]
    fn roundtrip_families() {
        for g in [chain(50), grid2d(9, 11), complete(17), kron(7, 6, 1), pref_attach(300, 3, 9)] {
            let c = CompressedCsr::from_csr(&g);
            assert_equivalent(&g, &c);
            assert_eq!(c.to_csr(), g);
        }
    }

    #[test]
    fn empty_and_singleton() {
        for g in [CsrGraph::new(vec![0], vec![]), CsrGraph::new(vec![0, 0], vec![])] {
            let c = CompressedCsr::from_csr(&g);
            assert_equivalent(&g, &c);
            let b = c.snapshot_bytes();
            let r = CompressedCsr::from_snapshot_bytes(&b).unwrap();
            assert_equivalent(&g, &r);
        }
    }

    #[test]
    fn chain_compresses_four_to_one() {
        // Chain gaps are all 2 → every arc costs exactly one byte.
        let g = chain(1000);
        let c = CompressedCsr::from_csr(&g);
        assert_eq!(c.encoded_bytes(), g.num_arcs());
        assert!((c.compression_ratio() - 4.0).abs() < 1e-12);
        assert!((c.bytes_per_arc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_roundtrip_heap_and_mmap() {
        let g = kron(8, 7, 5);
        let c = CompressedCsr::from_csr(&g);
        let dir = std::env::temp_dir().join(format!("parhde-grf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.phdegrf");
        c.write_snapshot(&path).unwrap();

        let heap = CompressedCsr::open_heap(&path).unwrap();
        assert_equivalent(&g, &heap);
        assert_eq!(heap.storage(), StorageKind::CompressedHeap);

        let mapped = CompressedCsr::open_mmap(&path).unwrap();
        assert_equivalent(&g, &mapped);
        #[cfg(unix)]
        {
            assert_eq!(mapped.storage(), StorageKind::CompressedMmap);
            assert!(mapped.mapped_bytes() > 0);
            assert!(mapped.resident_bytes() < heap.resident_bytes());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_snapshot_write_leaves_no_staging_file() {
        let dir = std::env::temp_dir().join(format!("parhde-grf-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The target name is taken by a directory, so the rename fails.
        let path = dir.join("g.phdegrf");
        std::fs::create_dir_all(&path).unwrap();
        assert!(CompressedCsr::from_csr(&grid2d(3, 3))
            .write_snapshot(&path)
            .is_err());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["g.phdegrf"], "staging file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn neighbors_while_streams_and_stops() {
        let g = complete(40);
        let c = CompressedCsr::from_csr(&g);
        let mut scratch = NeighborScratch::new();
        let mut seen = Vec::new();
        c.neighbors_while(20, &mut scratch, |u| {
            seen.push(u);
            seen.len() < 5
        });
        assert_eq!(&seen[..], &g.neighbors(20)[..5]);
        let (calls, arcs) = c.take_decode_stats();
        assert_eq!(calls, 1);
        assert_eq!(arcs, 5); // early exit decoded only what it consumed

        // Full stream matches the whole list.
        seen.clear();
        c.neighbors_while(7, &mut scratch, |u| {
            seen.push(u);
            true
        });
        assert_eq!(&seen[..], g.neighbors(7));
    }

    #[test]
    fn digest_matches_plain_and_is_decoded_once() {
        for g in [grid2d(7, 9), kron(8, 6, 2), CsrGraph::new(vec![0], vec![])] {
            let c = CompressedCsr::from_csr(&g);
            let one_pass = (g.num_vertices() as u64, g.num_arcs() as u64);
            assert_eq!(c.digest(), g.digest());
            assert_eq!(c.take_decode_stats(), one_pass);
            assert_eq!(c.digest(), g.digest());
            assert_eq!(c.take_decode_stats(), (0, 0));
        }
    }

    #[test]
    fn truncation_rejected() {
        let c = CompressedCsr::from_csr(&grid2d(6, 6));
        let b = c.snapshot_bytes();
        for cut in [0, 7, HEADER_LEN - 1, b.len() - 1] {
            assert!(CompressedCsr::from_snapshot_bytes(&b[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bitflip_rejected_by_checksum() {
        let c = CompressedCsr::from_csr(&grid2d(6, 6));
        let base = c.snapshot_bytes();
        // Flip one bit in every region past the magic: checksum, header
        // fields, offsets, degrees, blocks.
        for at in [9, 17, 33, HEADER_LEN + 3, base.len() - 2] {
            let mut b = base.clone();
            b[at] ^= 0x40;
            assert!(CompressedCsr::from_snapshot_bytes(&b).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn oversized_declared_sizes_never_allocate() {
        let c = CompressedCsr::from_csr(&grid2d(4, 4));
        let base = c.snapshot_bytes();
        // Claim astronomically large n / blocks_len; the parser must
        // reject on size arithmetic before any allocation.
        for (at, val) in [(16usize, u64::MAX / 2), (32, u64::MAX - 7), (16, u32::MAX as u64)] {
            let mut b = base.clone();
            b[at..at + 8].copy_from_slice(&val.to_le_bytes());
            assert!(CompressedCsr::from_snapshot_bytes(&b).is_err(), "field at {at}");
        }
    }

    #[test]
    fn varint_len_matches_encoding() {
        let mut buf = Vec::new();
        for x in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, x);
            assert_eq!(buf.len(), varint_len(x), "x = {x}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(x));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrips() {
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }
}
