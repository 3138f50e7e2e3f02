//! Adversarial checkpoint-loader sweep (ISSUE 6 satellite): the PHDECKPT
//! parser must survive truncated, bit-flipped, and hostile-length inputs
//! without panicking or over-allocating — every failure is the typed
//! [`HdeError::CheckpointMismatch`] (or `Io` for unreadable files), never
//! a crash. The daemon feeds the loader files from a cache directory that
//! a crash, a concurrent writer, or an operator's stray `dd` may have
//! mangled, so "garbage in → typed error out" is a load-bearing contract.

use parhde::checkpoint::{write_post_bfs, MAGIC};
use parhde::config::ParHdeConfig;
use parhde::{Checkpoint, CheckpointSpec, HdeError};
use parhde_graph::gen::grid2d;
use parhde_graph::GraphStore;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_util::durable::Fnv64;
use std::path::PathBuf;

/// A valid checkpoint's bytes, produced through the real writer.
fn valid_bytes(tag: &str) -> Vec<u8> {
    let g = grid2d(5, 4);
    let cfg = ParHdeConfig::with_subspace(4);
    let sources = vec![0u32, 7, 13, 19];
    let mut b = ColMajorMatrix::zeros(20, 4);
    for c in 0..4 {
        for r in 0..20 {
            b.set(r, c, (r * 4 + c) as f64 * 0.125 - 3.0);
        }
    }
    let dir = std::env::temp_dir().join(format!(
        "parhde-ckpt-hostile-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CheckpointSpec::in_dir(&dir);
    let path = write_post_bfs(&spec, &g, &cfg, 2, 99, &sources, b.data()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    // Sanity: the untampered bytes parse and carry the expected digest.
    let ck = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(ck.graph_digest, g.digest());
    bytes
}

/// Replaces the trailing whole-file checksum so that only the *structural*
/// validation under test can reject the tampered bytes.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let mut h = Fnv64::new();
    h.update(&bytes[..body]);
    bytes[body..].copy_from_slice(&h.finish().to_le_bytes());
}

/// Byte offsets of every section boundary in the version-1 layout.
fn section_boundaries(total: usize) -> Vec<usize> {
    // magic 8 | version 4 | flags 4 | digest 8 | seed 8 | p 4 | reserved 4
    // | config fp 8 | n 8 | s 8 | pivot count 8 | pivots | B | checksum 8
    let mut cuts = vec![0, 8, 12, 16, 24, 32, 36, 40, 48, 56, 64, 72];
    cuts.push(72 + 4 * 4); // after the 4 pivots
    cuts.push(total - 8); // after the matrix, before the checksum
    cuts.push(total - 1); // one byte short
    cuts.retain(|&c| c < total);
    cuts
}

#[test]
fn truncation_at_every_section_boundary_is_typed() {
    let bytes = valid_bytes("trunc");
    for cut in section_boundaries(bytes.len()) {
        match Checkpoint::from_bytes(&bytes[..cut]) {
            Err(HdeError::CheckpointMismatch(_)) => {}
            Err(other) => panic!("cut at {cut}: wrong error type {other:?}"),
            Ok(_) => panic!("cut at {cut}: truncated checkpoint accepted"),
        }
    }
}

#[test]
fn every_single_byte_truncation_is_rejected() {
    let bytes = valid_bytes("trunc-all");
    for cut in 0..bytes.len() {
        assert!(
            Checkpoint::from_bytes(&bytes[..cut]).is_err(),
            "{cut}-byte prefix accepted"
        );
    }
}

#[test]
fn bit_flips_at_every_byte_are_typed_errors() {
    let bytes = valid_bytes("flip");
    for pos in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut evil = bytes.clone();
            evil[pos] ^= bit;
            match Checkpoint::from_bytes(&evil) {
                Err(HdeError::CheckpointMismatch(_)) => {}
                Err(other) => {
                    panic!("flip at {pos}/{bit:#x}: wrong error {other:?}")
                }
                // A flip in the f64 payload with a colliding checksum is
                // astronomically unlikely; anything accepted must at least
                // not be the original file.
                Ok(_) => panic!("flip at {pos}/{bit:#x} accepted"),
            }
        }
    }
}

/// Writes hostile values into the three u64 length fields (n at offset 48,
/// s at 56, pivot count at 64), reseals the checksum, and asserts the
/// parser refuses without over-allocating. Before the loader used fully
/// checked arithmetic, `4 * n_sources + 8 * n * s` could wrap `usize` in a
/// release build, pass the bounds test, and hand `Vec::with_capacity` a
/// near-`usize::MAX` request — an allocator abort from a 300-byte file.
#[test]
fn hostile_length_fields_never_over_allocate() {
    let bytes = valid_bytes("hostile");
    let hostile: [(usize, u64); 7] = [
        (48, u64::MAX),                  // n
        (56, u64::MAX),                  // s
        (64, u64::MAX),                  // pivot count: 4·c wraps to < len
        (64, (usize::MAX / 4) as u64 + 1), // 4·c wraps exactly past zero
        (48, u64::MAX / 8),              // 8·n·s wraps
        (56, 1 << 62),                   // n·s overflows the product itself
        (64, 1 << 61),                   // pivots alone exceed any file
    ];
    for (off, v) in hostile {
        let mut evil = bytes.clone();
        evil[off..off + 8].copy_from_slice(&v.to_le_bytes());
        reseal(&mut evil);
        match Checkpoint::from_bytes(&evil) {
            Err(HdeError::CheckpointMismatch(m)) => assert!(
                m.contains("exceeds") || m.contains("overflows") || m.contains("truncated"),
                "field at {off}={v:#x}: unexpected message {m:?}"
            ),
            Err(other) => panic!("field at {off}={v:#x}: wrong error {other:?}"),
            Ok(_) => panic!("field at {off}={v:#x}: hostile sizes accepted"),
        }
    }
}

#[test]
fn consistent_lies_that_fit_the_file_still_fail_structurally() {
    // Shrink the declared matrix while growing the pivot list so the total
    // byte count still matches: the parser must notice the mismatch (here
    // via the pivots/data split) rather than return a frankenstein.
    let bytes = valid_bytes("lies");
    let mut evil = bytes.clone();
    // n=20,s=4 (640 matrix bytes) + 4 pivots (16 bytes) -> declare the
    // matrix as 20x3 (480 bytes) and 44 pivots (176 bytes): same total.
    evil[56..64].copy_from_slice(&3u64.to_le_bytes());
    evil[64..72].copy_from_slice(&44u64.to_le_bytes());
    reseal(&mut evil);
    match Checkpoint::from_bytes(&evil) {
        // Structurally self-consistent lies parse, but validate_for must
        // refuse them against the real graph/config.
        Ok(ck) => {
            let g = grid2d(5, 4);
            let cfg = ParHdeConfig::with_subspace(4);
            assert!(matches!(
                ck.validate_for(&g, &cfg, 2),
                Err(HdeError::CheckpointMismatch(_))
            ));
        }
        Err(HdeError::CheckpointMismatch(_)) => {}
        Err(other) => panic!("wrong error {other:?}"),
    }
}

#[test]
fn empty_and_tiny_files_are_rejected() {
    for len in 0..MAGIC.len() + 8 {
        let junk = vec![0x50u8; len];
        assert!(Checkpoint::from_bytes(&junk).is_err(), "{len}-byte junk accepted");
    }
    let mut almost = Vec::from(MAGIC);
    almost.extend_from_slice(&[0u8; 8]);
    assert!(Checkpoint::from_bytes(&almost).is_err());
}

#[test]
fn unreadable_path_is_io_not_panic() {
    let path = PathBuf::from("/nonexistent/parhde/never/here.ckpt");
    assert!(matches!(Checkpoint::read(&path), Err(HdeError::Io(_))));
}
