//! Bit-parallel batched multi-source BFS (MS-BFS).
//!
//! [`multi`](crate::multi) answers `s` sources by running `s` independent
//! sequential traversals, so the CSR is streamed through the cache `s`
//! times. This module instead advances **all sources in one shared sweep**,
//! in the style of Then et al.'s MS-BFS and the batching principle of
//! BatchLayout: each vertex row carries `⌈s/64⌉` *lane words* whose bit `i`
//! means "reached by source `i`", and a single scan of an edge `(v, u)` ORs
//! `v`'s frontier word into `u`'s next-frontier word — 64 traversals per
//! word operation.
//!
//! Three bit-vectors of `n × lane_words(s)` words are kept:
//!
//! * `seen` — lanes that have reached each vertex (any level);
//! * `frontier` — lanes that reached it exactly at the previous level;
//! * `next` — lanes arriving at the current level (built by `fetch_or`).
//!
//! Every level runs two parallel sweeps: an **expand** sweep over the
//! shared frontier vertex list (one edge scan advances every active lane),
//! and an **update** sweep over row blocks that claims `next & !seen`,
//! scatters the level as an `f64` distance directly into the column-major
//! `B` matrix, and rebuilds the frontier list in deterministic block order.
//! Row blocks untouched by the expansion are skipped via per-block dirty
//! flags, so high-diameter graphs do not pay an `O(n)` scan per level.
//!
//! Total work is `O(levels · words)` full-array passes plus one shared edge
//! sweep per level — versus `s` independent edge sweeps for
//! [`multi::bfs_multi_source`](crate::multi::bfs_multi_source). The batched
//! kernel wins when `s` is large relative to the graph's effective diameter
//! (low-diameter graphs, mid-size `s`); see the planner decision table in
//! DESIGN.md §10.

use crate::frontier::{for_each_lane, lane_coords, lane_words};
use crate::{BfsResult, UNREACHED};
use parhde_graph::store::{GraphStore, NeighborScratch};
use parhde_util::par::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Rows per update-sweep work unit (and per dirty-flag granule).
const ROW_BLOCK: usize = 2048;

/// Frontier vertices per expand-sweep work unit. Chunking (rather than
/// per-vertex items) lets each item reuse one decode scratch across
/// the whole chunk when the graph is compressed.
const EXPAND_CHUNK: usize = 256;

/// Geometry and work counters from one batched multi-source traversal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchBfsStats {
    /// Number of bit lanes (= number of sources, including duplicates).
    pub lanes: usize,
    /// Lane words per vertex row (`⌈lanes/64⌉`).
    pub words: usize,
    /// Levels processed (max source eccentricity + 1), as in
    /// [`BfsResult::levels`].
    pub levels: usize,
    /// Frontier lane-words ORed along adjacency arcs by the expansion
    /// sweeps (the batched analogue of edges-examined; a per-source BFS
    /// ensemble would pay one word per arc per *source*).
    pub words_scanned: u64,
    /// Vertices reached per lane, in source order (including the source).
    pub reached: Vec<usize>,
}

/// Batched multi-source BFS writing each lane's distance vector into the
/// corresponding column slice of a column-major matrix buffer.
///
/// `columns` must contain exactly `sources.len()` disjoint column slices of
/// length `n` (as produced by `chunks_mut` on a column-major allocation).
/// Unreached vertices get `f64::INFINITY`. Distances are bit-identical to
/// [`bfs_serial_into_f64`](crate::serial::bfs_serial_into_f64) per column:
/// hop counts are integers, and `level as f64` is exact for any graph that
/// fits in memory.
///
/// # Panics
/// Panics on length mismatches or out-of-range sources.
pub fn bfs_batched_into_f64<G: GraphStore>(
    g: &G,
    sources: &[u32],
    columns: &mut [&mut [f64]],
) -> BatchBfsStats {
    let n = g.num_vertices();
    assert_eq!(
        sources.len(),
        columns.len(),
        "one output column required per source"
    );
    let lanes = sources.len();
    let words = lane_words(lanes);
    for &s in sources {
        assert!((s as usize) < n, "source {s} out of range {n}");
    }
    let _span = parhde_trace::span!("bfs.batched");

    // Initialize every column: all-unreached except the lane's own source.
    columns
        .par_iter_mut()
        .zip(sources.par_iter())
        .for_each(|(col, &src)| {
            assert_eq!(col.len(), n, "column length mismatch");
            col.fill(f64::INFINITY);
            col[src as usize] = 0.0;
        });
    if lanes == 0 || n == 0 {
        return BatchBfsStats { lanes, words, ..BatchBfsStats::default() };
    }

    let mut seen = vec![0u64; n * words];
    let mut frontier: Vec<AtomicU64> =
        (0..n * words).map(|_| AtomicU64::new(0)).collect();
    let mut next: Vec<AtomicU64> =
        (0..n * words).map(|_| AtomicU64::new(0)).collect();
    for (lane, &src) in sources.iter().enumerate() {
        let (w, mask) = lane_coords(lane);
        seen[src as usize * words + w] |= mask;
        *frontier[src as usize * words + w].get_mut() |= mask;
    }
    let mut frontier_verts: Vec<u32> = {
        let mut v = sources.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };

    let nblocks = n.div_ceil(ROW_BLOCK);
    let dirty: Vec<AtomicBool> = (0..nblocks).map(|_| AtomicBool::new(false)).collect();
    let mut reached = vec![1usize; lanes];
    let mut words_scanned = 0u64;
    let mut max_level = 0u32;
    let mut level = 0u32;

    while !frontier_verts.is_empty() {
        // Cooperative cancellation point (once per shared level sweep): a
        // tripped run budget abandons the batch, leaving unvisited lanes at
        // INFINITY. Callers consult `supervisor::ambient_trip()` before
        // interpreting the partial columns.
        if parhde_util::supervisor::should_stop() {
            break;
        }
        level += 1;
        for d in &dirty {
            d.store(false, Ordering::Relaxed);
        }

        // Expand: one scan of each frontier vertex's adjacency advances all
        // of its active lanes at once.
        let scanned: u64 = frontier_verts
            .par_chunks(EXPAND_CHUNK)
            .map(|chunk| {
                let mut scratch = NeighborScratch::new();
                let mut active: Vec<(usize, u64)> = Vec::with_capacity(words);
                let mut scanned = 0u64;
                for &v in chunk {
                    let base = v as usize * words;
                    if words == 1 {
                        let fw = frontier[base].load(Ordering::Relaxed);
                        let nb = g.neighbors_in(v, &mut scratch);
                        for &u in nb {
                            next[u as usize].fetch_or(fw, Ordering::Relaxed);
                            dirty[u as usize / ROW_BLOCK]
                                .store(true, Ordering::Relaxed);
                        }
                        scanned += nb.len() as u64;
                    } else {
                        active.clear();
                        active.extend((0..words).filter_map(|w| {
                            let fw = frontier[base + w].load(Ordering::Relaxed);
                            (fw != 0).then_some((w, fw))
                        }));
                        let nb = g.neighbors_in(v, &mut scratch);
                        for &u in nb {
                            let ubase = u as usize * words;
                            for &(w, fw) in &active {
                                next[ubase + w].fetch_or(fw, Ordering::Relaxed);
                            }
                            dirty[u as usize / ROW_BLOCK]
                                .store(true, Ordering::Relaxed);
                        }
                        scanned += (nb.len() * active.len()) as u64;
                    }
                }
                scanned
            })
            .sum();
        words_scanned += scanned;

        // Update: per row block, claim `next & !seen`, scatter the level
        // into each newly-reached lane's column, and record the block's new
        // frontier vertices. Blocks the expansion never touched are skipped.
        let mut per_block: Vec<Vec<&mut [f64]>> =
            (0..nblocks).map(|_| Vec::with_capacity(lanes)).collect();
        for col in columns.iter_mut() {
            for (b, chunk) in col.chunks_mut(ROW_BLOCK).enumerate() {
                per_block[b].push(chunk);
            }
        }
        let block_results: Vec<(Vec<u32>, Vec<usize>)> = seen
            .par_chunks_mut(ROW_BLOCK * words)
            .zip(per_block.par_iter_mut())
            .enumerate()
            .map(|(b, (seen_chunk, cols))| {
                if !dirty[b].load(Ordering::Relaxed) {
                    return (Vec::new(), Vec::new());
                }
                let base_row = b * ROW_BLOCK;
                let mut newly = Vec::new();
                let mut lane_counts = vec![0usize; lanes];
                for (r, row) in seen_chunk.chunks_mut(words).enumerate() {
                    let ubase = (base_row + r) * words;
                    let mut any = false;
                    for (w, seen_word) in row.iter_mut().enumerate() {
                        let nx =
                            next[ubase + w].load(Ordering::Relaxed) & !*seen_word;
                        // Leave exactly the claimed bits behind: after the
                        // swap below, `frontier` must hold only this level's
                        // discoveries.
                        next[ubase + w].store(nx, Ordering::Relaxed);
                        if nx != 0 {
                            any = true;
                            *seen_word |= nx;
                            for_each_lane(nx, w, |lane| {
                                cols[lane][r] = level as f64;
                                lane_counts[lane] += 1;
                            });
                        }
                    }
                    if any {
                        newly.push((base_row + r) as u32);
                    }
                }
                (newly, lane_counts)
            })
            .collect();

        // Zero the old frontier rows so the buffer is all-zero again when it
        // becomes `next` after the swap (only frontier rows are nonzero).
        frontier_verts.par_iter().for_each(|&v| {
            let base = v as usize * words;
            for w in 0..words {
                frontier[base + w].store(0, Ordering::Relaxed);
            }
        });

        // Merge per-block results in block order — deterministic regardless
        // of thread count or scheduling.
        frontier_verts.clear();
        let mut discovered = 0usize;
        for (newly, lane_counts) in block_results {
            frontier_verts.extend_from_slice(&newly);
            for (lane, c) in lane_counts.into_iter().enumerate() {
                reached[lane] += c;
                discovered += c;
            }
        }
        if discovered > 0 {
            max_level = level;
        }
        std::mem::swap(&mut frontier, &mut next);
    }

    let stats = BatchBfsStats {
        lanes,
        words,
        levels: max_level as usize + 1,
        words_scanned,
        reached,
    };
    parhde_trace::counter!("bfs.batch.lanes", stats.lanes as u64);
    parhde_trace::counter!("bfs.batch.words", stats.words as u64);
    parhde_trace::counter!("bfs.batch.levels", stats.levels as u64);
    parhde_trace::counter!("bfs.batch.words_scanned", stats.words_scanned);
    stats
}

/// Batched multi-source BFS returning one [`BfsResult`] per source, in
/// source order — a drop-in for
/// [`multi::bfs_multi_source`](crate::multi::bfs_multi_source) backed by the
/// shared-sweep kernel.
///
/// # Panics
/// Panics if any source is out of range.
pub fn bfs_batched<G: GraphStore>(g: &G, sources: &[u32]) -> Vec<BfsResult> {
    let n = g.num_vertices();
    if sources.is_empty() {
        return Vec::new();
    }
    let mut buf = vec![0.0f64; n.max(1) * sources.len()];
    let mut cols: Vec<&mut [f64]> = buf.chunks_mut(n.max(1)).collect();
    if n == 0 {
        // All sources would be out of range; keep the same panic as the
        // distance-writing entry point.
        for &s in sources {
            assert!((s as usize) < n, "source {s} out of range {n}");
        }
    }
    let stats = bfs_batched_into_f64(g, sources, &mut cols);
    drop(cols);
    (0..sources.len())
        .map(|i| {
            let col = &buf[i * n..i * n + n];
            let mut max_d = 0u32;
            let dist: Vec<u32> = col
                .iter()
                .map(|&d| {
                    if d.is_finite() {
                        let d = d as u32;
                        max_d = max_d.max(d);
                        d
                    } else {
                        UNREACHED
                    }
                })
                .collect();
            BfsResult {
                dist,
                reached: stats.reached[i],
                levels: max_d as usize + 1,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::bfs_serial;
    use parhde_graph::gen::{chain, grid2d, star};

    #[test]
    fn matches_serial_on_grid() {
        let g = grid2d(12, 9);
        let sources = [0u32, 37, 99, 107];
        let rs = bfs_batched(&g, &sources);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(rs[i], bfs_serial(&g, s), "source {s}");
        }
    }

    #[test]
    fn duplicate_sources_get_independent_lanes() {
        let g = star(6);
        let rs = bfs_batched(&g, &[3, 3, 0]);
        assert_eq!(rs[0], rs[1]);
        assert_eq!(rs[0], bfs_serial(&g, 3));
        assert_eq!(rs[2], bfs_serial(&g, 0));
    }

    #[test]
    fn into_f64_matches_multi_source_layout() {
        let g = chain(8);
        let n = g.num_vertices();
        let mut buf = vec![0.0f64; n * 2];
        let mut cols: Vec<&mut [f64]> = buf.chunks_mut(n).collect();
        let stats = bfs_batched_into_f64(&g, &[0, 7], &mut cols);
        assert_eq!(stats.lanes, 2);
        assert_eq!(stats.words, 1);
        assert_eq!(stats.levels, 8);
        assert_eq!(stats.reached, vec![8, 8]);
        assert_eq!(&buf[..n], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(&buf[n..], &[7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn empty_sources_is_empty() {
        let g = chain(4);
        assert!(bfs_batched(&g, &[]).is_empty());
        let mut cols: Vec<&mut [f64]> = Vec::new();
        let stats = bfs_batched_into_f64(&g, &[], &mut cols);
        assert_eq!(stats.lanes, 0);
        assert_eq!(stats.words_scanned, 0);
    }

    #[test]
    fn words_scanned_is_one_sweep_per_level_not_per_source() {
        // Star graph, many sources: per-source BFS would scan ~s·2m arcs,
        // the batch scans each arc once per level it is on the frontier.
        let g = star(100);
        let sources: Vec<u32> = (0..64).collect();
        let stats = {
            let n = g.num_vertices();
            let mut buf = vec![0.0f64; n * sources.len()];
            let mut cols: Vec<&mut [f64]> = buf.chunks_mut(n).collect();
            bfs_batched_into_f64(&g, &sources, &mut cols)
        };
        assert_eq!(stats.words, 1);
        // Per-source cost would be 64 full arc sweeps = 64 · 2m words.
        let per_source_words = 64 * g.num_arcs() as u64;
        assert!(
            stats.words_scanned < per_source_words / 8,
            "batch scanned {} words, per-source ensemble would scan {}",
            stats.words_scanned,
            per_source_words
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = chain(4);
        bfs_batched(&g, &[4]);
    }

    #[test]
    #[should_panic(expected = "one output column required")]
    fn column_count_mismatch_panics() {
        let g = chain(4);
        let mut buf = [0.0f64; 4];
        let mut cols: Vec<&mut [f64]> = buf.chunks_mut(4).collect();
        bfs_batched_into_f64(&g, &[0, 1], &mut cols);
    }
}
