//! Parallel Δ-stepping (Meyer & Sanders), GAP-style.
//!
//! Structure per the paper's description (§3.3): "Each iteration proceeds
//! in two phases. In the first phase each thread picks a vertex out of the
//! current shared bucket and tries to relax its neighbours. If they are
//! updated, the vertices are added to the thread-local bucket. In the next
//! phase, the threads add vertices in their local bucket to the
//! corresponding shared bucket. The implementation does not recycle the
//! buckets and ignores settled vertices."
//!
//! Distances live in an array of atomic `u64` bit-patterns of `f64` so
//! concurrent relaxations can CAS-minimize without locks. Stale bucket
//! entries (a vertex whose distance no longer falls in the bucket) are
//! skipped at deletion time.

use crate::{SsspResult, UNREACHABLE};
use parhde_graph::WeightedCsr;
use parhde_util::par::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Grain for parallel bucket processing.
const BUCKET_CHUNK: usize = 128;

#[inline]
fn load_dist(cell: &AtomicU64) -> f64 {
    f64::from_bits(cell.load(Ordering::Relaxed))
}

/// CAS-minimize `cell` to `new`; returns true if this call improved it.
#[inline]
fn relax_min(cell: &AtomicU64, new: f64) -> bool {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) <= new {
            return false;
        }
        match cell.compare_exchange_weak(
            cur,
            new.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
}

/// A reasonable Δ for a weighted graph: average edge weight × average
/// degree — the classic heuristic balancing bucket count against
/// re-relaxation (Δ = 1 recovers Dijkstra-like behaviour for unit weights;
/// Δ = ∞ degenerates to Bellman-Ford).
pub fn suggest_delta(g: &WeightedCsr) -> f64 {
    let arcs = g.graph().num_arcs();
    if arcs == 0 {
        return 1.0;
    }
    let avg_w: f64 = g.weights().iter().sum::<f64>() / arcs as f64;
    let avg_deg = g.graph().average_degree();
    (avg_w * avg_deg).max(f64::MIN_POSITIVE)
}

/// Execution statistics of a Δ-stepping run — the quantities that explain
/// the Δ sensitivity the paper observes ("the performance is dependent on
/// the setting for Δ", §4.4): small Δ ⇒ many buckets; large Δ ⇒ many
/// re-relaxations inside a bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Distinct bucket indices processed.
    pub buckets_processed: usize,
    /// Inner light-edge rounds (bucket refills) summed over all buckets.
    pub light_rounds: usize,
    /// Successful light-edge relaxations.
    pub light_relaxations: usize,
    /// Successful heavy-edge relaxations.
    pub heavy_relaxations: usize,
    /// Bucket entries skipped as stale (vertex already settled elsewhere).
    pub stale_entries: usize,
}

/// Computes single-source shortest paths with parallel Δ-stepping.
///
/// # Panics
/// Panics if `source` is out of range or `delta` is not positive/finite.
pub fn delta_stepping(g: &WeightedCsr, source: u32, delta: f64) -> SsspResult {
    delta_stepping_with_stats(g, source, delta).0
}

/// [`delta_stepping`] also returning execution statistics.
///
/// # Panics
/// See [`delta_stepping`].
pub fn delta_stepping_with_stats(
    g: &WeightedCsr,
    source: u32,
    delta: f64,
) -> (SsspResult, DeltaStats) {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source {source} out of range");
    assert!(
        delta.is_finite() && delta > 0.0,
        "delta must be positive and finite"
    );

    let _span = parhde_trace::span!("sssp.delta_stepping");
    let dist: Vec<AtomicU64> = (0..n)
        .map(|_| AtomicU64::new(UNREACHABLE.to_bits()))
        .collect();
    dist[source as usize].store(0.0f64.to_bits(), Ordering::Relaxed);

    // Shared buckets, grown on demand; not recycled (GAP).
    let mut buckets: Vec<Vec<u32>> = vec![vec![source]];
    let bucket_of = |d: f64| (d / delta) as usize;
    let mut stats = DeltaStats::default();

    let mut i = 0usize;
    while i < buckets.len() {
        // Cooperative cancellation point (once per bucket): a tripped run
        // budget abandons the traversal, leaving unsettled vertices at
        // UNREACHABLE. Callers consult `supervisor::ambient_trip()` before
        // treating the partial tentative distances as final.
        if parhde_util::supervisor::should_stop() {
            break;
        }
        // Vertices removed from bucket i in this round (for heavy phase).
        let mut deleted: Vec<u32> = Vec::new();
        let mut bucket_was_active = false;

        // Light-edge phase: iterate until bucket i stops refilling.
        loop {
            let frontier = std::mem::take(&mut buckets[i]);
            if frontier.is_empty() {
                break;
            }
            bucket_was_active = true;
            stats.light_rounds += 1;
            // Phase 1: relax light edges into thread-local buckets.
            let locals: Vec<(Vec<(usize, u32)>, usize)> = frontier
                .par_chunks(BUCKET_CHUNK)
                .map(|chunk| {
                    let mut local: Vec<(usize, u32)> = Vec::new();
                    let mut stale = 0usize;
                    for &v in chunk {
                        let dv = load_dist(&dist[v as usize]);
                        // Settled elsewhere (stale entry): ignore.
                        if !dv.is_finite() || bucket_of(dv) != i {
                            stale += 1;
                            continue;
                        }
                        for (u, w) in g.neighbors(v) {
                            if w <= delta && relax_min(&dist[u as usize], dv + w) {
                                local.push((bucket_of(dv + w), u));
                            }
                        }
                    }
                    (local, stale)
                })
                .collect();
            deleted.extend_from_slice(&frontier);

            // Phase 2: merge thread-local buckets into shared buckets.
            for (local, stale) in locals {
                stats.stale_entries += stale;
                stats.light_relaxations += local.len();
                for (b, u) in local {
                    if b >= buckets.len() {
                        buckets.resize(b + 1, Vec::new());
                    }
                    buckets[b].push(u);
                }
            }
        }
        if bucket_was_active {
            stats.buckets_processed += 1;
        }

        // Heavy-edge phase over everything deleted from bucket i.
        deleted.sort_unstable();
        deleted.dedup();
        let locals: Vec<Vec<(usize, u32)>> = deleted
            .par_chunks(BUCKET_CHUNK)
            .map(|chunk| {
                let mut local: Vec<(usize, u32)> = Vec::new();
                for &v in chunk {
                    let dv = load_dist(&dist[v as usize]);
                    if !dv.is_finite() || bucket_of(dv) != i {
                        continue;
                    }
                    for (u, w) in g.neighbors(v) {
                        if w > delta && relax_min(&dist[u as usize], dv + w) {
                            local.push((bucket_of(dv + w), u));
                        }
                    }
                }
                local
            })
            .collect();
        for local in locals {
            stats.heavy_relaxations += local.len();
            for (b, u) in local {
                if b >= buckets.len() {
                    buckets.resize(b + 1, Vec::new());
                }
                buckets[b].push(u);
            }
        }

        i += 1;
    }

    let dist: Vec<f64> = dist
        .into_iter()
        .map(|c| f64::from_bits(c.into_inner()))
        .collect();
    let reached = dist.iter().filter(|d| d.is_finite()).count();
    parhde_trace::counter!("sssp.buckets_processed", stats.buckets_processed as u64);
    parhde_trace::counter!("sssp.light_rounds", stats.light_rounds as u64);
    parhde_trace::counter!("sssp.light_relaxations", stats.light_relaxations as u64);
    parhde_trace::counter!("sssp.heavy_relaxations", stats.heavy_relaxations as u64);
    parhde_trace::counter!("sssp.stale_entries", stats.stale_entries as u64);
    (SsspResult { dist, reached }, stats)
}

/// Δ-stepping writing distances into an `f64` embedding column; returns the
/// reached count (the SSSP analogue of the BFS column writers, §3.3).
pub fn delta_stepping_into_f64(
    g: &WeightedCsr,
    source: u32,
    delta: f64,
    out: &mut [f64],
) -> usize {
    let r = delta_stepping(g, source, delta);
    assert_eq!(out.len(), r.dist.len(), "output column length mismatch");
    out.copy_from_slice(&r.dist);
    r.reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use parhde_graph::builder::build_weighted_from_edges;
    use parhde_graph::gen::{chain, grid2d, pref_attach};
    use parhde_graph::WeightedCsr;
    use parhde_util::Xoshiro256StarStar;

    fn assert_matches_dijkstra(g: &WeightedCsr, source: u32, delta: f64) {
        let a = delta_stepping(g, source, delta);
        let b = dijkstra(g, source);
        assert_eq!(a.reached, b.reached);
        for (i, (x, y)) in a.dist.iter().zip(&b.dist).enumerate() {
            if x.is_finite() || y.is_finite() {
                assert!(
                    (x - y).abs() < 1e-9,
                    "vertex {i}: Δ-stepping {x} vs Dijkstra {y}"
                );
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_unit_chain() {
        let g = WeightedCsr::unit_weights(chain(50));
        for delta in [0.5, 1.0, 3.0, 100.0] {
            assert_matches_dijkstra(&g, 0, delta);
        }
    }

    #[test]
    fn matches_dijkstra_on_weighted_grid() {
        let base = grid2d(12, 12);
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let edges: Vec<(u32, u32, f64)> = base
            .edges()
            .map(|(u, v)| (u, v, 0.1 + rng.next_f64() * 9.9))
            .collect();
        let g = build_weighted_from_edges(144, edges);
        for delta in [0.3, 2.0, suggest_delta(&g), 50.0] {
            assert_matches_dijkstra(&g, 0, delta);
            assert_matches_dijkstra(&g, 143, delta);
        }
    }

    #[test]
    fn matches_dijkstra_on_skewed_graph() {
        let base = pref_attach(800, 3, 4);
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        let edges: Vec<(u32, u32, f64)> = base
            .edges()
            .map(|(u, v)| (u, v, (1 + rng.next_below(255)) as f64))
            .collect();
        let g = build_weighted_from_edges(800, edges);
        assert_matches_dijkstra(&g, 0, suggest_delta(&g));
    }

    #[test]
    fn disconnected_vertices_stay_unreachable() {
        let g = build_weighted_from_edges(5, vec![(0, 1, 2.0), (3, 4, 1.0)]);
        let r = delta_stepping(&g, 0, 1.0);
        assert_eq!(r.reached, 2);
        assert!(r.dist[3].is_infinite());
    }

    #[test]
    fn zero_weight_edges_share_bucket() {
        let g = build_weighted_from_edges(3, vec![(0, 1, 0.0), (1, 2, 3.0)]);
        let r = delta_stepping(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 0.0, 3.0]);
    }

    #[test]
    fn stats_track_delta_tradeoff() {
        // More buckets for small Δ; at huge Δ everything lands in bucket 0.
        let base = grid2d(15, 15);
        let mut rng = Xoshiro256StarStar::seed_from_u64(41);
        let edges: Vec<(u32, u32, f64)> = base
            .edges()
            .map(|(u, v)| (u, v, 0.5 + rng.next_f64() * 4.5))
            .collect();
        let g = build_weighted_from_edges(225, edges);
        let (_, small) = delta_stepping_with_stats(&g, 0, 0.5);
        let (_, big) = delta_stepping_with_stats(&g, 0, 1e6);
        assert!(small.buckets_processed > big.buckets_processed);
        assert_eq!(big.buckets_processed, 1);
        assert_eq!(big.heavy_relaxations, 0, "no heavy edges at huge Δ");
        // Every vertex except the source is discovered by some relaxation.
        assert!(small.light_relaxations + small.heavy_relaxations >= 224);
    }

    #[test]
    fn unit_chain_stats_are_exact() {
        let g = WeightedCsr::unit_weights(chain(10));
        let (_, stats) = delta_stepping_with_stats(&g, 0, 1.0);
        // Each vertex beyond the source relaxed exactly once; one bucket
        // per distance value 0..=9 holds a frontier vertex.
        assert_eq!(stats.light_relaxations, 9);
        assert_eq!(stats.heavy_relaxations, 0);
        assert_eq!(stats.buckets_processed, 10);
    }

    #[test]
    fn suggest_delta_is_positive() {
        let g = WeightedCsr::unit_weights(chain(10));
        assert!(suggest_delta(&g) > 0.0);
        // Unit weights, avg degree ≈ 1.8 ⇒ Δ ≈ 1.8.
        assert!((suggest_delta(&g) - 1.8).abs() < 1e-9);
    }

    #[test]
    fn into_f64_column() {
        let g = WeightedCsr::unit_weights(chain(4));
        let mut col = vec![0.0; 4];
        let reached = delta_stepping_into_f64(&g, 0, 1.0, &mut col);
        assert_eq!(reached, 4);
        assert_eq!(col, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn bad_delta_panics() {
        let g = WeightedCsr::unit_weights(chain(3));
        delta_stepping(&g, 0, 0.0);
    }
}
