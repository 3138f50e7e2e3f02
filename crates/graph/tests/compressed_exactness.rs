//! Decode-exactness suite for [`CompressedCsr`] (ISSUE 10 satellite): on
//! **every** generator family in `parhde_graph::gen` — connected analogues
//! and disconnected poison shapes alike — the gap-coded store must decode
//! each vertex's neighbor list *bit-identically* to the plain [`CsrGraph`]
//! it was built from, through every access path (heap-resident, snapshot
//! round-trip, and the mmap-backed open the out-of-core pipeline uses).
//!
//! Neighbor ids are exact integers, so "bit-identical" is the right bar:
//! any deviation is a codec bug, not roundoff — and because the layout
//! pipeline's bit-identical-coordinates guarantee rests on identical
//! neighbor slices, a single wrong gap here would silently skew layouts.
//! A seeded randomized sweep drives arbitrary messy edge lists
//! ([`poison::messy`]: duplicates, self-loops, isolated vertices) through
//! the same three paths.

use parhde_graph::builder::build_from_edges;
use parhde_graph::gen::{
    barth5_like, binary_tree, chain, complete, cycle, geometric, grid2d, kron,
    mesh_with_holes, poison, pref_attach, star, urand, web_locality,
};
use parhde_graph::store::{GraphStore, NeighborScratch, StorageKind};
use parhde_graph::{CompressedCsr, CsrGraph};
use parhde_util::Xoshiro256StarStar;
use std::path::PathBuf;

/// Unique temp path for one test case's snapshot file.
fn scratch_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "parhde-exact-{tag}-{}.phdegrf",
        std::process::id()
    ))
}

/// Asserts `c` decodes every vertex of `g` bit-identically, plus the
/// structural accessors the kernels rely on.
fn assert_decodes_exactly(g: &CsrGraph, c: &CompressedCsr, label: &str) {
    assert_eq!(c.num_vertices(), g.num_vertices(), "{label}: n");
    assert_eq!(c.num_edges(), g.num_edges(), "{label}: m");
    assert_eq!(c.num_arcs(), g.num_arcs(), "{label}: arcs");
    assert_eq!(c.max_degree(), g.max_degree(), "{label}: max degree");
    let mut scratch = NeighborScratch::new();
    for v in 0..g.num_vertices() as u32 {
        assert_eq!(c.degree(v), g.degree(v), "{label}: degree of {v}");
        assert_eq!(
            c.neighbors_in(v, &mut scratch),
            g.neighbors(v),
            "{label}: neighbor list of vertex {v}"
        );
    }
    // The lossless inverse: decompressing the whole store reproduces the
    // exact CSR arrays.
    let back = c.to_csr();
    assert_eq!(back.offsets(), g.offsets(), "{label}: to_csr offsets");
    assert_eq!(back.adjacency(), g.adjacency(), "{label}: to_csr adjacency");
}

/// Drives one graph through all three access paths: heap compression,
/// in-RAM snapshot round-trip, and file-backed mmap open.
fn exercise(g: &CsrGraph, tag: &str) {
    let c = CompressedCsr::from_csr(g);
    assert_eq!(c.storage(), StorageKind::CompressedHeap, "{tag}: heap kind");
    assert_decodes_exactly(g, &c, &format!("{tag}/heap"));

    let roundtrip = CompressedCsr::from_snapshot_bytes(&c.snapshot_bytes())
        .unwrap_or_else(|e| panic!("{tag}: snapshot bytes rejected: {e}"));
    assert_decodes_exactly(g, &roundtrip, &format!("{tag}/bytes"));

    let path = scratch_file(tag);
    c.write_snapshot(&path)
        .unwrap_or_else(|e| panic!("{tag}: snapshot write failed: {e}"));
    let mapped = CompressedCsr::open_mmap(&path)
        .unwrap_or_else(|e| panic!("{tag}: mmap open failed: {e}"));
    let _ = std::fs::remove_file(&path);
    #[cfg(unix)]
    assert_eq!(mapped.storage(), StorageKind::CompressedMmap, "{tag}: mmap kind");
    assert_decodes_exactly(g, &mapped, &format!("{tag}/mmap"));
    #[cfg(unix)]
    assert!(mapped.mapped_bytes() > 0, "{tag}: mmap reports no mapped bytes");
}

#[test]
fn every_generator_family_decodes_exactly() {
    let cases: Vec<(&str, CsrGraph)> = vec![
        ("chain", chain(37)),
        ("cycle", cycle(29)),
        ("star", star(41)),
        ("complete", complete(17)),
        ("tree", binary_tree(63)),
        ("grid", grid2d(13, 9)),
        ("mesh", mesh_with_holes(12, 10, &[])),
        ("barth5", barth5_like()),
        ("kron", kron(9, 7, 0xfeed)),
        ("urand", urand(700, 9, 0xfeed)),
        ("pref", pref_attach(600, 5, 0xfeed)),
        ("geom", geometric(500, 6.0, 0xfeed)),
        ("web", web_locality(800, 10, 0xfeed)),
    ];
    for (tag, g) in &cases {
        exercise(g, tag);
    }
}

#[test]
fn poison_shapes_decode_exactly() {
    let cases: Vec<(&str, CsrGraph)> = vec![
        ("empty", poison::empty()),
        ("singleton", poison::singleton()),
        ("isolated", poison::isolated(23)),
        ("two-paths", poison::two_paths(11, 7)),
        ("stragglers", poison::grid_with_stragglers(6, 9)),
        ("cycles", poison::many_cycles(5, 6)),
        (
            "dup-heavy",
            build_from_edges(40, poison::duplicate_heavy_edges(40, 6)),
        ),
    ];
    for (tag, g) in &cases {
        exercise(g, tag);
    }
}

/// Arbitrary messy graphs survive compression, snapshot round-trip, and
/// mmap open with bit-identical neighbor lists (256 seeded cases).
#[test]
fn arbitrary_graphs_decode_exactly() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x09a7_de10);
    for case in 0..256 {
        let g = poison::messy(&mut rng);
        let tag = format!("messy-{case}");
        exercise(&g, &tag);
    }
}

/// The decode counters advance with every scan: after `k` full passes a
/// take reads exactly `k·n` calls and `k·2m` arcs, and the next reads none.
#[test]
fn decode_stats_count_scans() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x09a7_de11);
    for case in 0..16 {
        let g = poison::messy(&mut rng);
        let passes = 1 + case % 3;
        let c = CompressedCsr::from_csr(&g);
        let mut scratch = NeighborScratch::new();
        for _ in 0..passes {
            for v in 0..g.num_vertices() as u32 {
                let _ = c.neighbors_in(v, &mut scratch);
            }
        }
        let (calls, arcs) = c.take_decode_stats();
        assert_eq!(calls, (passes * g.num_vertices()) as u64, "case {case}: calls");
        assert_eq!(arcs, (passes * g.num_arcs()) as u64, "case {case}: arcs");
        assert_eq!(c.take_decode_stats(), (0, 0), "case {case}: taken twice");
    }
}
