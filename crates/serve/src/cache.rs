//! The crash-safe, digest-keyed layout cache (DESIGN.md §13.4).
//!
//! Results are keyed by the FNV-1a digests the checkpoint layer already
//! computes — [`GraphStore::digest`] of the preprocessed graph combined
//! with [`parhde::checkpoint::config_fingerprint`] and the embedding
//! dimension — so a cache hit is *definitionally* the layout an
//! uninterrupted run of that request would produce (the pipeline is
//! deterministic given graph + config + seed).
//!
//! Crash safety is the whole point of the design:
//!
//! * writes stage to a uniquely named `.tmp` in the cache directory and
//!   `rename(2)` into place — a crash mid-write leaves a `.tmp` readers
//!   ignore, never a torn entry under the canonical name;
//! * every entry carries a whole-file FNV-1a checksum; a corrupt or
//!   truncated entry (power loss after rename, disk rot, stray writes) is
//!   detected on load, **deleted**, and treated as a miss — the daemon
//!   recomputes rather than serving poison;
//! * alongside each entry key the cache owns a checkpoint subdirectory:
//!   a request that was cancelled or degraded after its BFS phase leaves a
//!   post-BFS checkpoint there, and the next identical request resumes
//!   from it (warm start) instead of repaying the BFS;
//! * the cache is optionally *bounded*: with a byte budget set, `store`
//!   evicts the oldest entries (and their checkpoint directories) until
//!   the total fits — the daemon's disk footprint stays observable and
//!   capped instead of growing with every distinct request ever served.

use parhde::checkpoint::config_fingerprint;
use parhde::config::ParHdeConfig;
use parhde::CheckpointSpec;
use parhde_graph::GraphStore;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_util::durable::{self, Fnv64, Reader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic bytes opening every cache entry.
pub const MAGIC: [u8; 8] = *b"PHDELAYT";
/// Current entry format version.
pub const FORMAT_VERSION: u32 = 1;

/// The failpoint sites of an entry write, one per publish step.
const SITES: durable::Sites = durable::Sites {
    write: Some("cache.write_entry"),
    fsync: Some("cache.fsync"),
    rename: Some("cache.rename"),
};

/// A cached layout: the coordinates plus the ladder rung that produced
/// them (reported to clients as provenance).
#[derive(Clone, Debug, PartialEq)]
pub struct CachedLayout {
    /// The `n×p` coordinates.
    pub coords: ColMajorMatrix,
    /// Rung label recorded at store time (`"full"`, `"phde"`, …).
    pub rung: String,
}

/// A directory of layout entries and per-key checkpoint subdirectories.
pub struct LayoutCache {
    dir: PathBuf,
    /// Byte budget for entry files; `None` means unbounded (the seed
    /// behavior). Checkpoint directories don't count against the budget —
    /// they are bounded by it indirectly, since eviction removes them
    /// alongside their entry.
    max_bytes: Option<u64>,
    /// Entry index in eviction order (oldest first), rebuilt from the
    /// directory at open so a restarted daemon keeps honoring the bound.
    index: Mutex<Vec<IndexEntry>>,
    evictions: AtomicU64,
    /// Keys with a layout run in flight, one element per run.
    running: Mutex<Vec<u64>>,
}

/// A layout run marked in flight by [`LayoutCache::mark_running`]; unmarks
/// on drop.
pub struct Running<'a> {
    cache: &'a LayoutCache,
    key: u64,
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let mut running = self.cache.lock_running();
        if let Some(i) = running.iter().position(|&k| k == self.key) {
            running.swap_remove(i);
        }
    }
}

/// One indexed entry: its key and its on-disk entry-file size.
struct IndexEntry {
    key: u64,
    bytes: u64,
}

/// A point-in-time view of the cache's footprint, for gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheUsage {
    /// Number of live entry files.
    pub entries: u64,
    /// Total bytes across live entry files.
    pub bytes: u64,
    /// Entries evicted to honor the byte bound since open (monotonic).
    pub evictions: u64,
}

/// The cache key of one (graph, config, dimension) request. Generic over
/// storage: the digest streams degrees and adjacency, so plain and packed
/// representations of the same graph share cache entries and warm starts.
pub fn cache_key<G: GraphStore>(g: &G, cfg: &ParHdeConfig, p: usize) -> u64 {
    let mut h = Fnv64::new();
    h.update(&g.digest().to_le_bytes());
    h.update(&config_fingerprint(cfg).to_le_bytes());
    h.update(&(p as u64).to_le_bytes());
    h.finish()
}

impl LayoutCache {
    /// Opens (creating if needed) an unbounded cache rooted at `dir`.
    ///
    /// # Errors
    /// [`std::io::Error`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<LayoutCache> {
        Self::open_bounded(dir, None)
    }

    /// Opens a cache with an optional byte budget over its entry files.
    /// Existing entries are indexed oldest-first by modification time, so
    /// the bound survives a daemon restart.
    ///
    /// # Errors
    /// [`std::io::Error`] if the directory cannot be created or scanned.
    pub fn open_bounded(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<LayoutCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut found: Vec<(std::time::SystemTime, IndexEntry)> = Vec::new();
        for entry in std::fs::read_dir(&dir)?.flatten() {
            let path = entry.path();
            let Some(key) = entry_key_from_path(&path) else { continue };
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            found.push((mtime, IndexEntry { key, bytes: meta.len() }));
        }
        found.sort_by_key(|(mtime, _)| *mtime);
        let cache = LayoutCache {
            dir,
            max_bytes,
            index: Mutex::new(found.into_iter().map(|(_, e)| e).collect()),
            evictions: AtomicU64::new(0),
            running: Mutex::new(Vec::new()),
        };
        cache.evict_over_budget();
        Ok(cache)
    }

    /// The cache's current footprint and eviction total.
    pub fn usage(&self) -> CacheUsage {
        let index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        CacheUsage {
            entries: index.len() as u64,
            bytes: index.iter().map(|e| e.bytes).sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Canonical entry path for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("layout-{key:016x}.bin"))
    }

    /// The checkpoint spec identical requests share: a cold run writes its
    /// post-BFS checkpoint here, and later identical requests warm-start
    /// from it.
    pub fn checkpoint_spec(&self, key: u64) -> CheckpointSpec {
        CheckpointSpec::in_dir(self.dir.join(format!("ckpt-{key:016x}")))
    }

    /// Marks a layout run for `key` in flight until the guard drops. A
    /// run publishes its post-BFS checkpoint into the key's checkpoint
    /// directory, so while any run for the key is marked, eviction removes
    /// the key's entry file but leaves that directory alone.
    pub fn mark_running(&self, key: u64) -> Running<'_> {
        self.lock_running().push(key);
        Running { cache: self, key }
    }

    fn lock_running(&self) -> std::sync::MutexGuard<'_, Vec<u64>> {
        self.running.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Loads the entry for `key`. A missing entry is a miss; a corrupt or
    /// torn entry is deleted and reported as a miss, counted in the
    /// process-global registry as `parhde_cache_corrupt_evicted_total`
    /// (which a daemon's `STATS` scrape folds in), so one bad file can
    /// never wedge the key. An injected read fault (failpoint
    /// `cache.read_entry`) is a plain miss — the entry itself is healthy,
    /// so it is *not* evicted.
    pub fn load(&self, key: u64) -> Option<CachedLayout> {
        use parhde_util::failpoint;
        if matches!(
            failpoint::check("cache.read_entry"),
            Some(failpoint::Fired::Err | failpoint::Fired::Partial)
        ) {
            return None;
        }
        let path = self.entry_path(key);
        let bytes = std::fs::read(&path).ok()?;
        match decode(&bytes, key) {
            Some(hit) => Some(hit),
            None => {
                parhde_trace::registry::global()
                    .counter("parhde_cache_corrupt_evicted_total")
                    .inc();
                let _ = std::fs::remove_file(&path);
                self.index
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .retain(|e| e.key != key);
                None
            }
        }
    }

    /// Stores an entry durably ([`durable::publish`], DESIGN.md §16.4),
    /// then evicts the oldest entries as needed to honor the byte budget.
    /// Returns how many entries were evicted. Failpoint sites
    /// `cache.write_entry` / `cache.fsync` / `cache.rename` let the chaos
    /// suite fail each step.
    ///
    /// # Errors
    /// [`std::io::Error`] from any stage; a failed store never leaves a
    /// stray `.tmp`.
    pub fn store(
        &self,
        key: u64,
        coords: &ColMajorMatrix,
        rung: &str,
    ) -> std::io::Result<u64> {
        let bytes = durable::publish(&self.entry_path(key), SITES, || encode(key, coords, rung))?;
        parhde_trace::counter!("serve.cache.store", 1);
        {
            let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
            index.retain(|e| e.key != key); // overwrite: re-age the entry
            index.push(IndexEntry {
                key,
                bytes: bytes as u64,
            });
        }
        Ok(self.evict_over_budget())
    }

    /// Evicts oldest-first until the entry files fit the budget, always
    /// keeping the newest entry (so a fresh store is never self-defeating).
    /// Each eviction removes the entry file *and* the key's checkpoint
    /// directory — a warm start from an evicted key would resurrect the
    /// very footprint the bound just reclaimed — unless a run for the key
    /// is in flight ([`LayoutCache::mark_running`]). The directories go
    /// under the running-set lock, so a run marked before keeps its
    /// directory and a run marked after creates a fresh one.
    fn evict_over_budget(&self) -> u64 {
        let Some(max) = self.max_bytes else { return 0 };
        let mut victims = Vec::new();
        {
            let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
            let mut total: u64 = index.iter().map(|e| e.bytes).sum();
            while total > max && index.len() > 1 {
                let oldest = index.remove(0);
                total -= oldest.bytes;
                victims.push(oldest.key);
            }
        }
        let running = self.lock_running();
        for &key in &victims {
            let _ = std::fs::remove_file(self.entry_path(key));
            if !running.contains(&key) {
                let _ = std::fs::remove_dir_all(self.dir.join(format!("ckpt-{key:016x}")));
            }
            parhde_trace::counter!("serve.cache.evicted", 1);
        }
        let n = victims.len() as u64;
        self.evictions.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// Leftover `.tmp` staging files under the cache root (recursive) —
    /// the chaos harness's atomic-write probe. A clean daemon lifecycle
    /// leaves none.
    pub fn stray_tmp_files(&self) -> Vec<PathBuf> {
        fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
            let Ok(entries) = std::fs::read_dir(dir) else { return };
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else if p.extension().is_some_and(|x| x == "tmp") {
                    out.push(p);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.dir, &mut out);
        out
    }
}

/// Parses `layout-<16 hex>.bin` back to its key; `None` for anything else
/// (checkpoint dirs, staging files, strangers).
fn entry_key_from_path(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("layout-")?.strip_suffix(".bin")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn encode(key: u64, coords: &ColMajorMatrix, rung: &str) -> Vec<u8> {
    let n = coords.rows();
    let p = coords.cols();
    let mut out = Vec::with_capacity(64 + rung.len() + 8 * n * p);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(rung.len() as u32).to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(p as u64).to_le_bytes());
    out.extend_from_slice(rung.as_bytes());
    for &x in coords.data() {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    durable::seal(&mut out);
    out
}

/// Decodes and fully validates an entry; `None` on any violation. The
/// checksum runs first, so the structural fields below it are trusted-ish;
/// the arithmetic is still checked — a colliding corruption must fail
/// closed, not wrap a bounds test.
fn decode(bytes: &[u8], want_key: u64) -> Option<CachedLayout> {
    let mut r = Reader::new(durable::unseal(bytes)?);
    if r.take(MAGIC.len())? != MAGIC || r.u32()? != FORMAT_VERSION {
        return None;
    }
    let rung_len = r.u32()? as usize;
    if r.u64()? != want_key {
        return None;
    }
    let n = usize::try_from(r.u64()?).ok()?;
    let p = usize::try_from(r.u64()?).ok()?;
    let rung = std::str::from_utf8(r.take(rung_len)?).ok()?.to_string();
    let data = r.f64s(n.checked_mul(p)?)?;
    (r.remaining() == 0).then(|| CachedLayout {
        coords: ColMajorMatrix::from_data(n, p, data),
        rung,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parhde_graph::gen::grid2d;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("parhde-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_coords() -> ColMajorMatrix {
        let mut m = ColMajorMatrix::zeros(6, 2);
        for c in 0..2 {
            for r in 0..6 {
                m.set(r, c, (r * 2 + c) as f64 * 0.5 - 1.0);
            }
        }
        m
    }

    #[test]
    fn store_load_roundtrip_bit_identical() {
        let dir = scratch("roundtrip");
        let cache = LayoutCache::open(&dir).unwrap();
        let g = grid2d(2, 3);
        let key = cache_key(&g, &ParHdeConfig::default(), 2);
        assert!(cache.load(key).is_none());
        let coords = sample_coords();
        cache.store(key, &coords, "full").unwrap();
        let hit = cache.load(key).unwrap();
        assert_eq!(hit.coords.data(), coords.data());
        assert_eq!(hit.rung, "full");
        assert!(cache.stray_tmp_files().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_evicted_not_served() {
        let dir = scratch("corrupt");
        let cache = LayoutCache::open(&dir).unwrap();
        let key = 0xdead_beef;
        cache.store(key, &sample_coords(), "full").unwrap();
        let path = cache.entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        for pos in (0..bytes.len()).step_by(7) {
            let mut evil = bytes.clone();
            evil[pos] ^= 0x10;
            std::fs::write(&path, &evil).unwrap();
            assert!(cache.load(key).is_none(), "corruption at {pos} served");
            // The poisoned entry was evicted.
            assert!(!path.exists(), "corruption at {pos} not evicted");
            cache.store(key, &sample_coords(), "full").unwrap();
            bytes = std::fs::read(&path).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entries_are_misses() {
        let dir = scratch("trunc");
        let cache = LayoutCache::open(&dir).unwrap();
        let key = 7;
        cache.store(key, &sample_coords(), "trivial").unwrap();
        let path = cache.entry_path(key);
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 5, 17, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(cache.load(key).is_none(), "cut at {cut} served");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_under_right_name_is_a_miss() {
        // An entry renamed (or hash-collided) onto the wrong path must not
        // be served: the embedded key is validated against the request's.
        let dir = scratch("wrongkey");
        let cache = LayoutCache::open(&dir).unwrap();
        cache.store(1, &sample_coords(), "full").unwrap();
        std::fs::rename(cache.entry_path(1), cache.entry_path(2)).unwrap();
        assert!(cache.load(2).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_bound_evicts_oldest_first_with_checkpoints() {
        let dir = scratch("bounded");
        let one_entry = encode(0, &sample_coords(), "full").len() as u64;
        // Room for two entries, not three.
        let cache =
            LayoutCache::open_bounded(&dir, Some(2 * one_entry + one_entry / 2)).unwrap();
        for key in [1u64, 2, 3] {
            // Plant a checkpoint dir alongside each entry; eviction must
            // reclaim it too.
            std::fs::create_dir_all(dir.join(format!("ckpt-{key:016x}"))).unwrap();
            cache.store(key, &sample_coords(), "full").unwrap();
        }
        let usage = cache.usage();
        assert_eq!(usage.entries, 2);
        assert_eq!(usage.evictions, 1);
        assert!(usage.bytes <= 2 * one_entry + one_entry / 2);
        // Oldest went, with its checkpoint dir; newest two survive.
        assert!(cache.load(1).is_none());
        assert!(!dir.join(format!("ckpt-{:016x}", 1u64)).exists());
        assert!(cache.load(2).is_some());
        assert!(cache.load(3).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_spares_the_checkpoint_dir_of_a_running_key() {
        let dir = scratch("evict-running");
        let one_entry = encode(0, &sample_coords(), "full").len() as u64;
        let cache = LayoutCache::open_bounded(&dir, Some(one_entry + one_entry / 2)).unwrap();
        let ckpt = |key: u64| dir.join(format!("ckpt-{key:016x}"));
        for key in [1u64, 2] {
            std::fs::create_dir_all(ckpt(key)).unwrap();
        }
        cache.store(1, &sample_coords(), "full").unwrap();
        {
            // A run for key 1 is publishing into its checkpoint dir while
            // storing key 2 evicts key 1's entry.
            let _running = cache.mark_running(1);
            assert_eq!(cache.store(2, &sample_coords(), "full").unwrap(), 1);
            assert!(cache.load(1).is_none());
            assert!(ckpt(1).exists(), "evicted a running key's checkpoint dir");
        }
        // Unmarked again: the next eviction of key 2 takes its dir as usual.
        cache.store(3, &sample_coords(), "full").unwrap();
        assert!(!ckpt(2).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_bound_always_keeps_the_newest_entry() {
        let dir = scratch("keep-newest");
        // A budget smaller than a single entry: store still caches the
        // latest result rather than deleting what it just wrote.
        let cache = LayoutCache::open_bounded(&dir, Some(16)).unwrap();
        cache.store(9, &sample_coords(), "full").unwrap();
        assert!(cache.load(9).is_some());
        assert_eq!(cache.usage().entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_rebuilds_the_index_and_enforces_the_bound() {
        let dir = scratch("reopen");
        let one_entry = encode(0, &sample_coords(), "full").len() as u64;
        {
            let unbounded = LayoutCache::open(&dir).unwrap();
            for key in 1..=4u64 {
                unbounded.store(key, &sample_coords(), "full").unwrap();
                // Distinct mtimes so eviction order is deterministic.
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            assert_eq!(unbounded.usage().entries, 4);
        }
        let bounded =
            LayoutCache::open_bounded(&dir, Some(2 * one_entry + one_entry / 2)).unwrap();
        let usage = bounded.usage();
        assert_eq!(usage.entries, 2, "reopen must trim to the bound");
        assert!(bounded.load(3).is_some());
        assert!(bounded.load(4).is_some());
        assert!(bounded.load(1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_graph_config_and_dimension() {
        let g1 = grid2d(3, 3);
        let g2 = grid2d(3, 4);
        let cfg = ParHdeConfig::default();
        let other_cfg = ParHdeConfig { seed: cfg.seed + 1, ..cfg.clone() };
        let base = cache_key(&g1, &cfg, 2);
        assert_ne!(base, cache_key(&g2, &cfg, 2));
        assert_ne!(base, cache_key(&g1, &other_cfg, 2));
        assert_ne!(base, cache_key(&g1, &cfg, 3));
    }
}
