//! Versioned binary checkpoints of the post-BFS pipeline state.
//!
//! The BFS phase dominates ParHDE's runtime (Table 5); everything after it
//! — DOrtho, TripleProd, the eigensolve, the projection — is deterministic
//! given the distance matrix `B`. A checkpoint therefore captures exactly
//! the pipeline state at the BFS/DOrtho boundary: the `n×s` matrix `B`,
//! the pivot list, the seed of the attempt that produced them, and enough
//! fingerprints to refuse resumption against a different graph or
//! configuration. Resuming from a checkpoint replays the downstream phases
//! and reproduces the uninterrupted layout **bit-identically**.
//!
//! # On-disk format (version 1, all fields little-endian)
//!
//! | field | size |
//! |---|---|
//! | magic `"PHDECKPT"` | 8 |
//! | format version (`u32`) | 4 |
//! | reserved flags (`u32`) | 4 |
//! | graph digest (`u64`) | 8 |
//! | pipeline seed (`u64`) | 8 |
//! | embedding dimension `p` (`u32`) | 4 |
//! | reserved (`u32`) | 4 |
//! | config fingerprint (`u64`) | 8 |
//! | rows `n` (`u64`) | 8 |
//! | cols `s` (`u64`) | 8 |
//! | pivot count (`u64`) | 8 |
//! | pivots (`u32` × count) | 4·count |
//! | `B` column-major (`f64` × n·s) | 8·n·s |
//! | FNV-1a checksum of all preceding bytes (`u64`) | 8 |
//!
//! Writes go through [`durable::publish`], so a run killed mid-write
//! leaves either the previous checkpoint or a uniquely named `.tmp` file
//! that readers ignore — never a torn checkpoint under the canonical name.

use crate::config::{BfsMode, OrthoMethod, ParHdeConfig, PivotStrategy};
use crate::error::HdeError;
use parhde_graph::store::GraphStore;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_util::durable::{self, Fnv64, Reader};
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 8] = *b"PHDECKPT";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;
/// Canonical file name written inside a `--checkpoint` directory.
pub const CHECKPOINT_FILE: &str = "parhde-post-bfs.ckpt";

/// Where the pipeline should write its post-BFS checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// Directory receiving [`CHECKPOINT_FILE`] (created if absent).
    pub dir: PathBuf,
}

impl CheckpointSpec {
    /// The spec for a checkpoint directory.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// Full path of the checkpoint file this spec writes.
    pub fn file_path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }
}

/// A parsed checkpoint: the post-BFS state of one pipeline attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// [`GraphStore::digest`] of the graph the BFS phase actually
    /// traversed (after any largest-component extraction).
    pub graph_digest: u64,
    /// Seed of the pipeline attempt (differs from `cfg.seed` on re-pivot
    /// retries).
    pub seed: u64,
    /// Embedding dimension `p` the run was started with.
    pub embed_dim: u32,
    /// [`config_fingerprint`] of the (post-clamp) configuration.
    pub config_fingerprint: u64,
    /// The BFS pivots, in traversal order.
    pub sources: Vec<u32>,
    /// The `n×s` distance matrix `B`.
    pub b: ColMajorMatrix,
}

/// Digest of every configuration field that influences the layout: the
/// BFS-producing fields pin what `B` means, the downstream fields pin what
/// resume will do with it. Resuming under a different fingerprint would
/// silently produce a layout no uninterrupted run could — refused instead.
pub fn config_fingerprint(cfg: &ParHdeConfig) -> u64 {
    let mut h = Fnv64::new();
    h.update(&(cfg.subspace as u64).to_le_bytes());
    h.update(&[match cfg.pivots {
        PivotStrategy::KCenters => 0u8,
        PivotStrategy::Random => 1,
    }]);
    h.update(&[match cfg.bfs_mode {
        BfsMode::Auto => 0u8,
        BfsMode::DirectionOpt => 1,
        BfsMode::PerSource => 2,
        BfsMode::Batched => 3,
    }]);
    h.update(&[match cfg.ortho {
        OrthoMethod::Mgs => 0u8,
        OrthoMethod::Cgs => 1,
    }]);
    // `cfg.linalg_mode` is deliberately NOT hashed: fused and staged
    // TripleProd are bit-identical (tested), so resuming a staged
    // checkpoint under the fused kernels (or vice versa) yields exactly
    // the layout an uninterrupted run would.
    // `cfg.backend` is likewise NOT hashed: the scalar and SIMD kernels
    // are bit-identical where the accumulation order permits, and the
    // dot-family tolerance never changes a kept/dropped decision — a
    // checkpoint written under one backend resumes byte-identically under
    // the other (tested in tests/tests/backend_equiv.rs).
    h.update(&[u8::from(cfg.d_orthogonalize)]);
    h.update(&cfg.seed.to_le_bytes());
    h.update(&cfg.drop_tolerance.to_bits().to_le_bytes());
    h.update(&[u8::from(cfg.project_from_raw)]);
    h.finish()
}

/// The failpoint sites of a checkpoint write; its rename has none.
const SITES: durable::Sites = durable::Sites {
    write: Some("checkpoint.write"),
    fsync: Some("checkpoint.fsync"),
    rename: None,
};

/// Serializes a post-BFS checkpoint and publishes it into `dir` with
/// [`durable::publish`], the same steps as the serve cache (DESIGN.md
/// §16.4), so a power cut can neither tear the file nor un-publish the
/// rename. Returns the final path.
///
/// `b` is the column-major `n×s` distance matrix with `n =
/// g.num_vertices()` — in a live run, the contiguous columns `1..=s` of
/// the basis `S` the BFS phase wrote into.
///
/// Failpoint sites `checkpoint.write` and `checkpoint.fsync` let the
/// chaos suite fail the stages.
///
/// # Errors
/// [`HdeError::Io`] if the directory cannot be created or any write
/// stage fails.
pub fn write_post_bfs<G: GraphStore>(
    spec: &CheckpointSpec,
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    seed: u64,
    sources: &[u32],
    b: &[f64],
) -> Result<PathBuf, HdeError> {
    std::fs::create_dir_all(&spec.dir).map_err(|e| {
        HdeError::Io(format!(
            "creating checkpoint directory {}: {e}",
            spec.dir.display()
        ))
    })?;
    let final_path = spec.file_path();
    let bytes = durable::publish(&final_path, SITES, || {
        serialize(g, cfg, p, seed, sources, b)
    })
    .map_err(|e| HdeError::Io(format!("writing checkpoint {}: {e}", final_path.display())))?;
    parhde_trace::counter!("supervisor.checkpoint.write", 1);
    parhde_trace::counter!("supervisor.checkpoint.bytes", bytes as u64);
    Ok(final_path)
}

fn serialize<G: GraphStore>(
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    seed: u64,
    sources: &[u32],
    b: &[f64],
) -> Vec<u8> {
    let n = g.num_vertices();
    let s = b.len().checked_div(n).unwrap_or(0);
    assert_eq!(b.len(), n * s, "B must hold whole columns");
    let mut out = Vec::with_capacity(64 + 4 * sources.len() + 8 * n * s + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved flags
    out.extend_from_slice(&g.digest().to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&(p as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    out.extend_from_slice(&config_fingerprint(cfg).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(s as u64).to_le_bytes());
    out.extend_from_slice(&(sources.len() as u64).to_le_bytes());
    for &src in sources {
        out.extend_from_slice(&src.to_le_bytes());
    }
    for &x in b {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    durable::seal(&mut out);
    out
}

impl Checkpoint {
    /// Reads and validates a checkpoint file: magic, version, structural
    /// bounds and the trailing whole-file checksum.
    ///
    /// # Errors
    /// [`HdeError::Io`] if the file cannot be read;
    /// [`HdeError::CheckpointMismatch`] if it is not a checkpoint, is a
    /// different format version, is truncated, or fails its checksum.
    pub fn read(path: &Path) -> Result<Checkpoint, HdeError> {
        let bytes = std::fs::read(path).map_err(|e| {
            HdeError::Io(format!("reading checkpoint {}: {e}", path.display()))
        })?;
        Self::from_bytes(&bytes)
    }

    /// Parses checkpoint bytes; see [`Checkpoint::read`].
    ///
    /// # Errors
    /// [`HdeError::CheckpointMismatch`] as for [`Checkpoint::read`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, HdeError> {
        if bytes.len() < MAGIC.len() + 8 || bytes[..MAGIC.len()] != MAGIC {
            return Err(HdeError::CheckpointMismatch(
                "not a ParHDE checkpoint (bad magic)".into(),
            ));
        }
        let payload = durable::unseal(bytes).ok_or_else(|| {
            HdeError::CheckpointMismatch("checksum mismatch (file corrupt or torn)".into())
        })?;
        let mut cur = Reader::new(&payload[MAGIC.len()..]);
        let truncated = || HdeError::CheckpointMismatch("truncated checkpoint file".into());
        let version = cur.u32().ok_or_else(truncated)?;
        if version != FORMAT_VERSION {
            return Err(HdeError::CheckpointMismatch(format!(
                "format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let _flags = cur.u32().ok_or_else(truncated)?;
        let graph_digest = cur.u64().ok_or_else(truncated)?;
        let seed = cur.u64().ok_or_else(truncated)?;
        let embed_dim = cur.u32().ok_or_else(truncated)?;
        let _reserved = cur.u32().ok_or_else(truncated)?;
        let config_fingerprint = cur.u64().ok_or_else(truncated)?;
        let n = usize::try_from(cur.u64().ok_or_else(truncated)?).map_err(oversized)?;
        let s = usize::try_from(cur.u64().ok_or_else(truncated)?).map_err(oversized)?;
        let n_sources = usize::try_from(cur.u64().ok_or_else(truncated)?).map_err(oversized)?;
        // The three length fields are hostile input: a 50-byte file may
        // declare u64::MAX-sized sections. The reader refuses any count the
        // payload cannot hold before allocating for it.
        let exceeds = || {
            HdeError::CheckpointMismatch(format!(
                "declared {n}×{s} matrix with {n_sources} pivots exceeds file size"
            ))
        };
        let sources = cur.u32s(n_sources).ok_or_else(exceeds)?;
        let data = n
            .checked_mul(s)
            .and_then(|cells| cur.f64s(cells))
            .ok_or_else(exceeds)?;
        if cur.remaining() != 0 {
            return Err(HdeError::CheckpointMismatch(format!(
                "{} trailing bytes after matrix data",
                cur.remaining()
            )));
        }
        Ok(Checkpoint {
            graph_digest,
            seed,
            embed_dim,
            config_fingerprint,
            sources,
            b: ColMajorMatrix::from_data(n, s, data),
        })
    }

    /// Validates this checkpoint against the graph, configuration and
    /// embedding dimension of a resume attempt. `g` and `cfg` must be the
    /// *post-preprocessing* graph and the *post-clamp* configuration — the
    /// exact inputs the original pipeline attempt saw.
    ///
    /// # Errors
    /// [`HdeError::CheckpointMismatch`] naming the first mismatching field.
    pub fn validate_for<G: GraphStore>(
        &self,
        g: &G,
        cfg: &ParHdeConfig,
        p: usize,
    ) -> Result<(), HdeError> {
        if self.embed_dim as usize != p {
            return Err(HdeError::CheckpointMismatch(format!(
                "embedding dimension {} recorded, resume requested {p}",
                self.embed_dim
            )));
        }
        let digest = g.digest();
        if self.graph_digest != digest {
            return Err(HdeError::CheckpointMismatch(format!(
                "graph digest {digest:#018x} does not match recorded \
                 {:#018x}; checkpoint belongs to a different graph",
                self.graph_digest
            )));
        }
        let fp = config_fingerprint(cfg);
        if self.config_fingerprint != fp {
            return Err(HdeError::CheckpointMismatch(format!(
                "config fingerprint {fp:#018x} does not match recorded \
                 {:#018x}; checkpoint was produced under different settings",
                self.config_fingerprint
            )));
        }
        if self.b.rows() != g.num_vertices() || self.b.cols() != cfg.subspace {
            return Err(HdeError::CheckpointMismatch(format!(
                "matrix is {}×{}, resume expects {}×{}",
                self.b.rows(),
                self.b.cols(),
                g.num_vertices(),
                cfg.subspace
            )));
        }
        Ok(())
    }
}

fn oversized(_: std::num::TryFromIntError) -> HdeError {
    HdeError::CheckpointMismatch("dimension overflows this platform".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parhde_graph::gen::grid2d;
    use parhde_graph::CsrGraph;

    fn sample() -> (CsrGraph, ParHdeConfig, Vec<u32>, ColMajorMatrix) {
        let g = grid2d(4, 4);
        let cfg = ParHdeConfig::with_subspace(3);
        let sources = vec![0, 5, 15];
        let mut b = ColMajorMatrix::zeros(16, 3);
        for c in 0..3 {
            for r in 0..16 {
                b.set(r, c, (r * 3 + c) as f64 * 0.25);
            }
        }
        (g, cfg, sources, b)
    }

    #[test]
    fn roundtrips_through_bytes() {
        let (g, cfg, sources, b) = sample();
        let bytes = serialize(&g, &cfg, 2, 42, &sources, b.data());
        let ck = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ck.graph_digest, g.digest());
        assert_eq!(ck.seed, 42);
        assert_eq!(ck.embed_dim, 2);
        assert_eq!(ck.config_fingerprint, config_fingerprint(&cfg));
        assert_eq!(ck.sources, sources);
        assert_eq!(ck.b.data(), b.data());
        ck.validate_for(&g, &cfg, 2).unwrap();
    }

    #[test]
    fn write_is_atomic_and_readable() {
        let (g, cfg, sources, b) = sample();
        let dir = std::env::temp_dir().join("parhde-ckpt-test-atomic");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CheckpointSpec::in_dir(&dir);
        let path = write_post_bfs(&spec, &g, &cfg, 2, 7, &sources, b.data()).unwrap();
        assert_eq!(path, spec.file_path());
        // No staging file survives a successful write.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(!name.to_string_lossy().ends_with(".tmp"), "stray {name:?}");
        }
        let ck = Checkpoint::read(&path).unwrap();
        assert_eq!(ck.b.data(), b.data());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_never_touches_another_writers_staging_file() {
        // A second writer into the same directory must not truncate, or
        // rename away, the staging file of a write already in flight.
        let (g, cfg, sources, b) = sample();
        let dir =
            std::env::temp_dir().join(format!("parhde-ckpt-test-staging-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let planted = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        std::fs::write(&planted, b"in flight").unwrap();
        let spec = CheckpointSpec::in_dir(&dir);
        write_post_bfs(&spec, &g, &cfg, 2, 7, &sources, b.data()).unwrap();
        assert_eq!(std::fs::read(&planted).unwrap(), b"in flight");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let (g, cfg, sources, b) = sample();
        let mut bytes = serialize(&g, &cfg, 2, 7, &sources, b.data());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, HdeError::CheckpointMismatch(m) if m.contains("checksum")));
    }

    #[test]
    fn truncation_is_detected() {
        let (g, cfg, sources, b) = sample();
        let bytes = serialize(&g, &cfg, 2, 7, &sources, b.data());
        for cut in [3, 12, 40, bytes.len() - 9] {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let (g, cfg, sources, b) = sample();
        let bytes = serialize(&g, &cfg, 2, 7, &sources, b.data());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&wrong).unwrap_err(),
            HdeError::CheckpointMismatch(m) if m.contains("magic")
        ));
        // Bump the version and re-seal the checksum so only the version
        // check can fire.
        let mut vers = bytes;
        vers[8] = 99;
        let body = vers.len() - 8;
        let mut h = Fnv64::new();
        h.update(&vers[..body]);
        let sum = h.finish().to_le_bytes();
        vers[body..].copy_from_slice(&sum);
        assert!(matches!(
            Checkpoint::from_bytes(&vers).unwrap_err(),
            HdeError::CheckpointMismatch(m) if m.contains("version 99")
        ));
    }

    #[test]
    fn validate_rejects_other_graph_config_and_dim() {
        let (g, cfg, sources, b) = sample();
        let bytes = serialize(&g, &cfg, 2, 7, &sources, b.data());
        let ck = Checkpoint::from_bytes(&bytes).unwrap();
        let other_g = grid2d(4, 5);
        assert!(matches!(
            ck.validate_for(&other_g, &cfg, 2).unwrap_err(),
            HdeError::CheckpointMismatch(m) if m.contains("different graph")
        ));
        let other_cfg = ParHdeConfig { seed: 1, ..cfg.clone() };
        assert!(matches!(
            ck.validate_for(&g, &other_cfg, 2).unwrap_err(),
            HdeError::CheckpointMismatch(m) if m.contains("different settings")
        ));
        assert!(matches!(
            ck.validate_for(&g, &cfg, 3).unwrap_err(),
            HdeError::CheckpointMismatch(m) if m.contains("dimension")
        ));
    }

    #[test]
    fn config_fingerprints_are_pinned() {
        // Daemon cache keys and PHDECKPT files hash the fingerprint, so a
        // renumbered enum arm would orphan every stored entry.
        let mgs = ParHdeConfig::default();
        let cgs = ParHdeConfig { ortho: OrthoMethod::Cgs, ..mgs.clone() };
        assert_eq!(config_fingerprint(&mgs), 0x11b4_a30e_4dbc_c2e4);
        assert_eq!(config_fingerprint(&cgs), 0xf0c2_40a8_5859_e007);
    }

    #[test]
    fn digest_identical_across_storages() {
        // The digest must not depend on how the adjacency is stored: a
        // checkpoint written against plain CSR resumes against the
        // compressed (or mmap-backed) store of the same graph, and back.
        for g in [grid2d(7, 9), parhde_graph::gen::kron(8, 6, 2)] {
            let c = parhde_graph::CompressedCsr::from_csr(&g);
            let cfg = ParHdeConfig::with_subspace(2);
            let b = vec![0.5; 2 * g.num_vertices()];
            let plain = Checkpoint::from_bytes(&serialize(&g, &cfg, 2, 7, &[0, 1], &b)).unwrap();
            plain.validate_for(&c, &cfg, 2).unwrap();
            let packed = Checkpoint::from_bytes(&serialize(&c, &cfg, 2, 7, &[0, 1], &b)).unwrap();
            assert_eq!(packed, plain);
            packed.validate_for(&g, &cfg, 2).unwrap();
        }
    }

    #[test]
    fn digests_are_sensitive_to_structure() {
        let a = grid2d(6, 6);
        let b = grid2d(6, 7);
        assert_ne!(a.digest(), b.digest());
        let base = ParHdeConfig::default();
        let fp = config_fingerprint(&base);
        for variant in [
            ParHdeConfig { subspace: 11, ..base.clone() },
            ParHdeConfig { seed: base.seed + 1, ..base.clone() },
            ParHdeConfig { project_from_raw: true, ..base.clone() },
            ParHdeConfig { d_orthogonalize: false, ..base.clone() },
        ] {
            assert_ne!(config_fingerprint(&variant), fp);
        }
    }
}
