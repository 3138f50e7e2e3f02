//! Storage-equivalence tests: every BFS kernel must produce bit-identical
//! results whether the graph is plain CSR or gap-coded [`CompressedCsr`].
//! This is the property the whole out-of-core path leans on — layouts from
//! a `.phdegrf` snapshot must match layouts from RAM exactly.

use parhde_bfs::batch::bfs_batched;
use parhde_bfs::direction_opt::{bfs_direction_opt, bfs_direction_opt_params, BETA};
use parhde_bfs::multi::bfs_multi_source;
use parhde_bfs::serial::bfs_serial;
use parhde_graph::gen::{chain, grid2d, kron, pref_attach, star};
use parhde_graph::{CompressedCsr, CsrGraph};

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("chain", chain(257)),
        ("star", star(100)),
        ("grid", grid2d(17, 23)),
        ("kron", kron(10, 8, 7)),
        ("pref", pref_attach(2000, 6, 11)),
    ]
}

#[test]
fn serial_identical_across_storages() {
    for (name, g) in graphs() {
        let c = CompressedCsr::from_csr(&g);
        for s in [0u32, (g.num_vertices() as u32 - 1) / 2] {
            assert_eq!(bfs_serial(&g, s), bfs_serial(&c, s), "{name} source {s}");
        }
    }
}

#[test]
fn top_down_identical_across_storages() {
    for (name, g) in graphs() {
        let c = CompressedCsr::from_csr(&g);
        // α = 0: the direction-optimizing BFS never leaves top-down.
        assert_eq!(
            bfs_direction_opt_params(&g, 0, 0, BETA),
            bfs_direction_opt_params(&c, 0, 0, BETA),
            "{name}"
        );
    }
}

#[test]
fn direction_opt_identical_across_storages() {
    for (name, g) in graphs() {
        let c = CompressedCsr::from_csr(&g);
        let (rp, sp) = bfs_direction_opt(&g, 1);
        let (rc, sc) = bfs_direction_opt(&c, 1);
        assert_eq!(rp, rc, "{name} result");
        // Identical adjacency order ⇒ identical heuristic decisions and
        // identical scan counts, not just identical distances.
        assert_eq!(sp, sc, "{name} traversal stats");
    }
}

#[test]
fn multi_source_identical_across_storages() {
    for (name, g) in graphs() {
        let c = CompressedCsr::from_csr(&g);
        let n = g.num_vertices() as u32;
        let sources = [0, n / 3, n / 2, n - 1];
        assert_eq!(
            bfs_multi_source(&g, &sources),
            bfs_multi_source(&c, &sources),
            "{name}"
        );
    }
}

#[test]
fn batched_identical_across_storages() {
    for (name, g) in graphs() {
        let c = CompressedCsr::from_csr(&g);
        let n = g.num_vertices() as u32;
        let sources: Vec<u32> = (0..8).map(|i| i * (n / 8)).collect();
        assert_eq!(bfs_batched(&g, &sources), bfs_batched(&c, &sources), "{name}");
    }
}

#[test]
fn snapshot_roundtrip_preserves_traversal() {
    let g = kron(9, 10, 3);
    let c = CompressedCsr::from_csr(&g);
    let dir = std::env::temp_dir().join("parhde-bfs-store-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.phdegrf");
    c.write_snapshot(&path).unwrap();
    let mapped = CompressedCsr::open_mmap(&path).unwrap();
    assert_eq!(bfs_serial(&g, 5), bfs_serial(&mapped, 5));
    let (rp, _) = bfs_direction_opt(&g, 5);
    let (rm, _) = bfs_direction_opt(&mapped, 5);
    assert_eq!(rp, rm);
    drop(mapped);
    std::fs::remove_file(&path).ok();
}
