//! The shared BFS phase: produce the distance matrix `B ∈ R^{n×s}`.
//!
//! ParHDE, PHDE and PivotMDS all begin identically (compare Algorithms 2
//! and 3): `s` BFS traversals from pivots chosen either by the
//! farthest-first k-centers heuristic or uniformly at random. This module
//! hosts that phase once; the pipelines differ only in what they do with
//! `B` afterwards.
//!
//! # The pivot loops
//!
//! Each pivot strategy is written once, over any traversal: `kcenters`
//! is the only farthest-first loop and `random_pivots` the only draw of
//! random pivots. The BFS phase and the weighted pipeline's SSSP phase
//! (§3.3) run both. `kcenters` takes a per-pivot hook, run on each column
//! once its distances are folded into the pivot choice: a no-op for those
//! two phases, and the column's DOrtho step for the coupled schedule
//! (§4.4), which is otherwise ParHDE's own k-centers BFS phase.
//!
//! # The planner
//!
//! Three execution modes can fill the columns, with very different
//! constants (DESIGN.md §10):
//!
//! * **direction-opt** — each traversal is the internally parallel
//!   direction-optimizing BFS, traversals serialized. Mandatory for
//!   k-centers pivots (the next pivot depends on the previous distances);
//!   for random pivots it only wins when `s` is small relative to the
//!   thread count, since each BFS can use the whole machine.
//! * **per-source** — one sequential queue BFS per source, sources
//!   scheduled across threads ([`parhde_bfs::multi`]). No per-level
//!   synchronization, but the CSR is streamed `s` times and cores idle
//!   whenever `s` is below the thread count.
//! * **batched** — the bit-parallel MS-BFS kernel
//!   ([`parhde_bfs::batch`]): all sources advance through one shared sweep,
//!   64 lanes per word, so edge data is streamed once per *level* instead
//!   of once per *source*.
//!
//! [`plan_bfs_phase`] picks among them from `n`, `m`, `s` and the
//! thread count; [`crate::config::BfsMode`] forces a specific mode. This
//! planner is the advertised entry point for multi-source distance-matrix
//! construction — pipelines should not call the `parhde_bfs` kernels
//! directly.

use crate::config::{BfsMode, PivotStrategy};
use crate::error::{HdeError, Warning};
use crate::pivots::{farthest_vertex, fold_min_distance};
use crate::stats::{begin, phase, warn, HdeStats};
use crate::supervise::budget_check;
use parhde_bfs::batch::bfs_batched_into_f64;
use parhde_bfs::direction_opt::bfs_direction_opt_into_f64;
use parhde_bfs::frontier::lane_words;
use parhde_bfs::multi::bfs_multi_source_into_f64;
use parhde_bfs::serial::bfs_serial_into_f64;
use parhde_graph::store::{GraphStore, StorageKind};
use parhde_linalg::dense::ColMajorMatrix;
use parhde_util::Xoshiro256StarStar;

/// A concrete BFS execution mode chosen by the planner (the resolution of
/// [`BfsMode`], which may be `Auto`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedBfsMode {
    /// Internally parallel direction-optimizing BFS, one source at a time.
    DirectionOpt,
    /// Independent sequential BFSes scheduled across threads.
    PerSource,
    /// Bit-parallel batched multi-source BFS (shared sweep).
    Batched,
}

impl PlannedBfsMode {
    /// Stable lowercase label used in stats, trace counters and reports.
    pub fn label(self) -> &'static str {
        match self {
            PlannedBfsMode::DirectionOpt => "direction_opt",
            PlannedBfsMode::PerSource => "per_source",
            PlannedBfsMode::Batched => "batched",
        }
    }
}

/// The planner's decision for one BFS phase: the mode plus the batch
/// geometry it implies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsPlan {
    /// Chosen execution mode.
    pub mode: PlannedBfsMode,
    /// Bit lanes a batched run would use (= `s`).
    pub lanes: usize,
    /// Lane words per vertex row (`⌈s/64⌉`).
    pub words: usize,
    /// One-line justification, surfaced through trace warnings/reports.
    pub reason: &'static str,
}

/// Graphs at or below this vertex count are traversed per-source: every
/// working set is cache-resident and the batch bit-plumbing costs more than
/// it saves.
const TINY_GRAPH_N: usize = 4096;

/// Average-degree threshold below which a graph is presumed high-diameter
/// (roads, grids, meshes): a shared sweep then pays ~diameter frontier
/// rounds, and independent per-source traversals win (paper Table 6).
///
/// 6.5 rather than 4.0: BENCH_pr3 measured the batched kernel 8.8× slower
/// than per-source on grid_160x125 (avg degree 3.97) and 3.8× slower on
/// road_geometric_20k — both mesh-like graphs sitting at or just below the
/// old cutoff. Triangulated meshes (avg degree ≈ 6) share the same
/// high-diameter geometry, so the margin covers them too; genuinely
/// low-diameter graphs (kron at avg 19, pref-attach at 16) stay far above.
const LOW_DEGREE_AVG: f64 = 6.5;

/// Minimum source count for the batched kernel to amortize its shared
/// sweeps (below this, too few lanes share each word operation).
const MIN_BATCH_LANES: usize = 8;

/// Compressed-storage overrides of the two crossover constants above.
///
/// On a gap-coded store every adjacency scan pays a varint decode on top of
/// the memory traffic, and that cost is *per scan*: the per-source ensemble
/// decodes the whole graph once per source, while the batched kernel decodes
/// each frontier vertex once per level regardless of lane count. Decode
/// cost therefore scales exactly like the memory-traffic term the planner
/// already reasons about, only larger — so the batched-vs-per-source
/// crossover shifts toward batched. Concretely: fewer lanes suffice to
/// amortize a shared sweep, and moderately sparse graphs (avg degree 4–6.5)
/// that were borderline on plain CSR now favor the shared sweep because the
/// s-fold re-decode dwarfs the per-level sync rounds.
const COMPRESSED_MIN_BATCH_LANES: usize = 4;

/// Compressed-storage high-diameter cutoff (see [`LOW_DEGREE_AVG`]): only
/// genuinely road-like graphs (avg degree < 4) keep per-source traversals,
/// since their diameter-many frontier rounds still dominate decode cost.
const COMPRESSED_LOW_DEGREE_AVG: f64 = 4.0;

/// Picks the BFS execution mode for a random-pivot phase with `s` sources
/// on a graph of `n` vertices and `m` undirected edges, given `threads`
/// threads. A non-`Auto` `knob` forces that mode.
///
/// Decision table (in order, first match wins — see DESIGN.md §10):
///
/// | condition | mode |
/// |---|---|
/// | knob forced | that mode |
/// | `n ≤ 4096` | per-source |
/// | `2m/n < 6.5` (high-diameter proxy) | per-source if `s ≥ threads`, else direction-opt |
/// | `s ≥ 8` | batched |
/// | `s < threads` | direction-opt |
/// | otherwise | per-source |
pub fn plan_bfs_phase(
    n: usize,
    m: usize,
    s: usize,
    threads: usize,
    knob: BfsMode,
) -> BfsPlan {
    plan_bfs_phase_stored(n, m, s, threads, knob, StorageKind::Plain)
}

/// Storage-aware planner: like [`plan_bfs_phase`] but with the graph's
/// [`StorageKind`] in the decision. On compressed stores the per-scan varint
/// decode shifts the batched-vs-per-source crossover toward batched (see
/// [`COMPRESSED_MIN_BATCH_LANES`] / [`COMPRESSED_LOW_DEGREE_AVG`] for the
/// model); plain storage reproduces the original decision table exactly.
pub fn plan_bfs_phase_stored(
    n: usize,
    m: usize,
    s: usize,
    threads: usize,
    knob: BfsMode,
    storage: StorageKind,
) -> BfsPlan {
    let lanes = s;
    let words = lane_words(s);
    let plan = |mode, reason| BfsPlan { mode, lanes, words, reason };
    let (low_degree_avg, min_batch_lanes) = if storage.is_compressed() {
        (COMPRESSED_LOW_DEGREE_AVG, COMPRESSED_MIN_BATCH_LANES)
    } else {
        (LOW_DEGREE_AVG, MIN_BATCH_LANES)
    };
    match knob {
        BfsMode::DirectionOpt => {
            plan(PlannedBfsMode::DirectionOpt, "forced by BfsMode::DirectionOpt")
        }
        BfsMode::PerSource => {
            plan(PlannedBfsMode::PerSource, "forced by BfsMode::PerSource")
        }
        BfsMode::Batched => plan(PlannedBfsMode::Batched, "forced by BfsMode::Batched"),
        BfsMode::Auto => {
            let avg_deg = if n == 0 { 0.0 } else { 2.0 * m as f64 / n as f64 };
            if n <= TINY_GRAPH_N {
                plan(
                    PlannedBfsMode::PerSource,
                    "tiny graph: traversals are cache-resident, no sync overhead",
                )
            } else if avg_deg < low_degree_avg {
                if s >= threads {
                    plan(
                        PlannedBfsMode::PerSource,
                        "high-diameter graph with s >= threads: independent BFSes \
                         saturate the pool without per-level rounds",
                    )
                } else {
                    plan(
                        PlannedBfsMode::DirectionOpt,
                        "high-diameter graph with s < threads: only an internally \
                         parallel BFS keeps all cores busy",
                    )
                }
            } else if s >= min_batch_lanes {
                plan(
                    PlannedBfsMode::Batched,
                    if storage.is_compressed() {
                        "low-diameter compressed graph: a shared sweep decodes \
                         each frontier block once per level, not once per source"
                    } else {
                        "low-diameter graph, enough lanes to amortize shared sweeps"
                    },
                )
            } else if s < threads {
                plan(
                    PlannedBfsMode::DirectionOpt,
                    "few sources: per-source scheduling would idle cores",
                )
            } else {
                plan(
                    PlannedBfsMode::PerSource,
                    "few lanes, s >= threads: independent BFSes fill the pool",
                )
            }
        }
    }
}

/// Emits the chosen mode and batch geometry as trace counters so run
/// reports explain the planner's decision.
fn trace_plan(plan: &BfsPlan) {
    let mode_counter = match plan.mode {
        PlannedBfsMode::DirectionOpt => "bfs.mode.direction_opt",
        PlannedBfsMode::PerSource => "bfs.mode.per_source",
        PlannedBfsMode::Batched => "bfs.mode.batched",
    };
    parhde_trace::counter!(mode_counter, 1);
    if plan.mode == PlannedBfsMode::Batched {
        parhde_trace::counter!("bfs.plan.lanes", plan.lanes as u64);
        parhde_trace::counter!("bfs.plan.words", plan.words as u64);
    }
}

/// Runs the BFS phase: fills columns `first..` of `smat`, one column per
/// pivot, recording pivots and the executed BFS mode into `stats` and
/// phase times, traversal counters and warnings into the thread's run
/// record. ParHDE passes its basis `S` with `first = 1`, so `B` is never
/// a matrix of its own; PHDE and PivotMDS pass `C` with `first = 0`.
/// `rng` supplies the random start vertex / random pivots; `mode` is the
/// user-facing planner knob.
///
/// # Errors
/// [`HdeError::Disconnected`] if a traversal fails to reach every vertex,
/// or a budget trip.
pub(crate) fn run_bfs_phase<G: GraphStore>(
    g: &G,
    smat: &mut ColMajorMatrix,
    first: usize,
    strategy: PivotStrategy,
    mode: BfsMode,
    rng: &mut Xoshiro256StarStar,
    stats: &mut HdeStats,
) -> Result<(), HdeError> {
    match strategy {
        PivotStrategy::KCenters => kcenters_bfs(g, smat, first, mode, rng, stats, |_, _| Ok(())),
        PivotStrategy::Random => {
            let n = g.num_vertices();
            let plan = plan_bfs_phase_stored(
                n,
                g.num_edges(),
                smat.cols() - first,
                parhde_util::par::current_num_threads(),
                mode,
                g.storage(),
            );
            stats.bfs_mode = Some(plan.mode.label());
            trace_plan(&plan);
            random_pivots(smat, first, rng, stats, |sources, b| {
                let mut cols: Vec<&mut [f64]> = b.chunks_mut(n).collect();
                let reached = match plan.mode {
                    PlannedBfsMode::PerSource => bfs_multi_source_into_f64(g, sources, &mut cols),
                    PlannedBfsMode::Batched => bfs_batched_into_f64(g, sources, &mut cols).reached,
                    PlannedBfsMode::DirectionOpt => sources
                        .iter()
                        .zip(cols)
                        .map(|(&src, col)| bfs_direction_opt_into_f64(g, src, col).0)
                        .collect(),
                };
                reached.first().copied().unwrap_or(n)
            })
        }
    }
}

/// The k-centers BFS phase: [`kcenters`] with one traversal per pivot,
/// the sequential queue BFS under [`BfsMode::PerSource`] and the
/// direction-optimizing BFS otherwise. The pivots are sequentially
/// dependent, so a forced [`BfsMode::Batched`] falls back with a warning.
/// `after` is [`kcenters`]' per-pivot hook.
///
/// # Errors
/// As [`kcenters`].
pub(crate) fn kcenters_bfs<G: GraphStore>(
    g: &G,
    smat: &mut ColMajorMatrix,
    first: usize,
    mode: BfsMode,
    rng: &mut Xoshiro256StarStar,
    stats: &mut HdeStats,
    after: impl FnMut(&mut ColMajorMatrix, usize) -> Result<(), HdeError>,
) -> Result<(), HdeError> {
    if mode == BfsMode::Batched {
        warn(Warning::BatchedBfsUnavailable);
    }
    let serial = mode == BfsMode::PerSource;
    let executed = if serial { PlannedBfsMode::PerSource } else { PlannedBfsMode::DirectionOpt };
    stats.bfs_mode = Some(executed.label());
    let traverse = |src, col: &mut [f64]| {
        if serial {
            bfs_serial_into_f64(g, src, col)
        } else {
            bfs_direction_opt_into_f64(g, src, col).0
        }
    };
    kcenters(smat, first, rng, stats, traverse, after)
}

/// Farthest-first k-centers pivots (Algorithm 3 line 8): fills columns
/// `first..` of `smat` one traversal at a time, each from the vertex
/// farthest from all earlier pivots. `traverse(src, col)` writes the
/// distances from `src` into `col` and returns how many vertices it
/// reached. Once a column's distances are folded into the pivot choice,
/// `after(smat, i)` runs on it: a no-op for the BFS and SSSP phases, the
/// column's DOrtho step for the coupled schedule (§4.4), which may then
/// overwrite it. Shared by the BFS phase and the weighted pipeline's SSSP
/// phase.
///
/// # Errors
/// [`HdeError::Disconnected`] if a traversal fails to reach every vertex,
/// a budget trip, or the first error of `after`, which ends the loop.
pub(crate) fn kcenters(
    smat: &mut ColMajorMatrix,
    first: usize,
    rng: &mut Xoshiro256StarStar,
    stats: &mut HdeStats,
    mut traverse: impl FnMut(u32, &mut [f64]) -> usize,
    mut after: impl FnMut(&mut ColMajorMatrix, usize) -> Result<(), HdeError>,
) -> Result<(), HdeError> {
    let n = smat.rows();
    let mut min_dist = vec![f64::INFINITY; n];
    let mut src = rng.next_index(n) as u32;
    let mut nan_dropped = 0usize;
    for i in first..smat.cols() {
        stats.sources.push(src);
        let ph = begin(phase::BFS);
        let reached = traverse(src, smat.col_mut(i));
        drop(ph);
        // Budget check BEFORE the connectivity check: an abandoned
        // traversal reaches fewer than n vertices, and the trip must win
        // over the spurious "disconnected" that creates.
        budget_check(phase::BFS)?;
        if reached != n {
            return Err(HdeError::Disconnected { reached, n });
        }
        let ph = begin(phase::BFS_OTHER);
        // BFS levels are finite by construction, but Δ-stepping on poisoned
        // weights can emit NaN distances; both reductions exclude (and
        // count) them rather than let a NaN pivot corrupt the whole
        // k-centers sequence.
        nan_dropped += fold_min_distance(&mut min_dist, smat.col(i));
        src = farthest_vertex(&min_dist);
        drop(ph);
        after(smat, i)?;
    }
    if nan_dropped > 0 {
        warn(Warning::NanDistances { count: nan_dropped });
    }
    Ok(())
}

/// Random pivots (§4.4, Table 6): one distinct source per column `first..`
/// of `smat`, all drawn up front into `stats.sources`, so the traversals
/// are independent. `traverse(sources, b)` fills `b`, those columns back
/// to back, one per source, and returns how many vertices the first
/// traversal reached. Shared by the BFS phase and the weighted pipeline's
/// SSSP phase.
///
/// # Errors
/// [`HdeError::Disconnected`] if the first traversal fails to reach every
/// vertex, or a budget trip.
pub(crate) fn random_pivots(
    smat: &mut ColMajorMatrix,
    first: usize,
    rng: &mut Xoshiro256StarStar,
    stats: &mut HdeStats,
    traverse: impl FnOnce(&[u32], &mut [f64]) -> usize,
) -> Result<(), HdeError> {
    let n = smat.rows();
    let ph = begin(phase::BFS_OTHER);
    stats.sources = rng
        .sample_distinct(n, smat.cols() - first)
        .into_iter()
        .map(|v| v as u32)
        .collect();
    drop(ph);
    let ph = begin(phase::BFS);
    let reached = traverse(&stats.sources, &mut smat.data_mut()[first * n..]);
    drop(ph);
    // As in `kcenters`: the trip outranks the partial reach it causes.
    budget_check(phase::BFS)?;
    if reached != n {
        return Err(HdeError::Disconnected { reached, n });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parhde_graph::gen::{grid2d, pref_attach};
    use parhde_linalg::dense::ColMajorMatrix;

    /// Runs the phase into a fresh `n×s` matrix.
    fn phase_matrix<G: GraphStore>(
        g: &G,
        s: usize,
        strategy: PivotStrategy,
        mode: BfsMode,
        seed: u64,
        stats: &mut HdeStats,
    ) -> Result<ColMajorMatrix, HdeError> {
        let mut b = ColMajorMatrix::zeros(g.num_vertices(), s);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        run_bfs_phase(g, &mut b, 0, strategy, mode, &mut rng, stats)?;
        Ok(b)
    }

    #[test]
    fn kcenters_phase_fills_all_columns() {
        let g = grid2d(10, 10);
        let mut stats = HdeStats::default();
        let b = phase_matrix(&g, 5, PivotStrategy::KCenters, BfsMode::Auto, 1, &mut stats)
            .unwrap();
        assert_eq!(b.cols(), 5);
        assert_eq!(stats.sources.len(), 5);
        assert_eq!(stats.bfs_mode, Some("direction_opt"));
        // Every column holds finite distances with a zero at its source.
        for (i, &src) in stats.sources.iter().enumerate() {
            assert_eq!(b.get(src as usize, i), 0.0);
            assert!(b.col(i).iter().all(|d| d.is_finite()));
        }
    }

    #[test]
    fn serial_and_parallel_phases_agree() {
        let g = grid2d(9, 9);
        let mut sa = HdeStats::default();
        let mut sb = HdeStats::default();
        let ba = phase_matrix(&g, 4, PivotStrategy::KCenters, BfsMode::Auto, 2, &mut sa)
            .unwrap();
        let bb = phase_matrix(&g, 4, PivotStrategy::KCenters, BfsMode::PerSource, 2, &mut sb)
            .unwrap();
        assert_eq!(sb.bfs_mode, Some("per_source"));
        assert_eq!(sa.sources, sb.sources);
        assert_eq!(ba.data(), bb.data());
    }

    #[test]
    fn kcenters_runs_its_hook_after_each_fold_and_stops_at_its_error() {
        // A hook that zeroes its column: had it run before the fold, every
        // later pivot would be vertex 0, the argmax of an all-zero
        // minimum. `first = 1` leaves column 0 to the caller.
        let g = grid2d(12, 12);
        let n = g.num_vertices();
        let traverse = |src, col: &mut [f64]| bfs_serial_into_f64(&g, src, col);
        let run = |after: &mut dyn FnMut(&mut ColMajorMatrix, usize) -> Result<(), HdeError>| {
            let mut smat = ColMajorMatrix::zeros(n, 7);
            let mut rng = Xoshiro256StarStar::seed_from_u64(4);
            let mut stats = HdeStats::default();
            let out = kcenters(&mut smat, 1, &mut rng, &mut stats, traverse, after);
            (out, stats.sources, smat)
        };
        let (out, plain, _) = run(&mut |_, _| Ok(()));
        out.unwrap();
        let mut calls = Vec::new();
        let (out, zeroed, smat) = run(&mut |s, i| {
            calls.push(i);
            s.col_mut(i).fill(0.0);
            Ok(())
        });
        out.unwrap();
        assert_eq!(calls, (1..7).collect::<Vec<_>>(), "once per column, ascending");
        assert_eq!(zeroed, plain, "the hook ran before the fold");
        assert!(smat.data()[n..].iter().all(|&d| d == 0.0));
        // An error from the hook ends the loop: no further traversal.
        let mut calls = Vec::new();
        let stop = HdeError::Internal("stop".into());
        let (out, sources, _) = run(&mut |_, i| {
            calls.push(i);
            if i == 2 {
                Err(stop.clone())
            } else {
                Ok(())
            }
        });
        assert_eq!(out, Err(stop));
        assert_eq!(calls, [1, 2]);
        assert_eq!(sources, plain[..2]);
    }

    #[test]
    fn random_phase_uses_distinct_sources() {
        let g = grid2d(8, 8);
        let mut stats = HdeStats::default();
        let _ = phase_matrix(&g, 6, PivotStrategy::Random, BfsMode::Auto, 3, &mut stats);
        let set: std::collections::HashSet<_> = stats.sources.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn all_random_modes_produce_identical_matrices() {
        let g = pref_attach(2000, 3, 7);
        let mut reference: Option<Vec<f64>> = None;
        for mode in [BfsMode::PerSource, BfsMode::Batched, BfsMode::DirectionOpt] {
            let mut stats = HdeStats::default();
            let b = phase_matrix(&g, 12, PivotStrategy::Random, mode, 11, &mut stats).unwrap();
            match &reference {
                None => reference = Some(b.data().to_vec()),
                Some(r) => assert_eq!(
                    r.as_slice(),
                    b.data(),
                    "mode {:?} disagrees with per-source distances",
                    mode
                ),
            }
        }
    }

    #[test]
    fn planner_decision_table() {
        use PlannedBfsMode::*;
        // Forced knobs always win.
        for (knob, want) in [
            (BfsMode::DirectionOpt, DirectionOpt),
            (BfsMode::PerSource, PerSource),
            (BfsMode::Batched, Batched),
        ] {
            assert_eq!(plan_bfs_phase(1 << 20, 1 << 23, 50, 8, knob).mode, want);
        }
        // Tiny graphs are always per-source.
        assert_eq!(
            plan_bfs_phase(1000, 100_000, 50, 64, BfsMode::Auto).mode,
            PerSource
        );
        // High-diameter proxy (avg degree < 4): road-like graphs.
        assert_eq!(
            plan_bfs_phase(1 << 20, (1 << 20) * 3 / 2, 50, 8, BfsMode::Auto).mode,
            PerSource
        );
        assert_eq!(
            plan_bfs_phase(1 << 20, (1 << 20) * 3 / 2, 4, 8, BfsMode::Auto).mode,
            DirectionOpt
        );
        // Low-diameter with mid-size s: batched.
        let plan = plan_bfs_phase(1 << 20, 1 << 23, 50, 8, BfsMode::Auto);
        assert_eq!(plan.mode, Batched);
        assert_eq!(plan.lanes, 50);
        assert_eq!(plan.words, 1);
        // Low-diameter, few sources, many threads: direction-opt.
        assert_eq!(
            plan_bfs_phase(1 << 20, 1 << 23, 2, 16, BfsMode::Auto).mode,
            DirectionOpt
        );
        // Low-diameter, few sources, few threads: per-source.
        assert_eq!(
            plan_bfs_phase(1 << 20, 1 << 23, 4, 2, BfsMode::Auto).mode,
            PerSource
        );
    }

    #[test]
    fn planner_avoids_batched_on_mesh_like_graphs() {
        use PlannedBfsMode::*;
        // Regression for the BENCH_pr3 mispick risk: the bench trio's two
        // mesh-like graphs, at their exact (n, m), where batched measured
        // 8.8× (grid) and 3.8× (road) slower than per-source. Generated
        // graphs pin the shapes so a generator change re-checks the plan.
        let grid = grid2d(160, 125);
        assert_eq!(grid.num_vertices(), 20_000);
        let plan = plan_bfs_phase(
            grid.num_vertices(),
            grid.num_edges(),
            50,
            8,
            BfsMode::Auto,
        );
        assert_eq!(plan.mode, PerSource, "gen:grid:160x125 must not batch");
        let road = parhde_graph::gen::geometric(20_000, 3.0, 3);
        let plan = plan_bfs_phase(
            road.num_vertices(),
            road.num_edges(),
            50,
            8,
            BfsMode::Auto,
        );
        assert_eq!(plan.mode, PerSource, "gen:road (geometric) must not batch");
        // A triangulated-mesh proxy (avg degree ≈ 6) now also lands on the
        // high-diameter side of the 6.5 cutoff.
        assert_eq!(
            plan_bfs_phase(1 << 20, 3 << 20, 50, 8, BfsMode::Auto).mode,
            PerSource
        );
    }

    #[test]
    fn compressed_storage_shifts_batched_crossover() {
        use PlannedBfsMode::*;
        // Moderately sparse (avg degree 6 — mesh-like): per-source on plain
        // CSR, batched when every re-scan would pay a varint decode.
        let (n, m) = (1 << 20, 3 << 20);
        assert_eq!(plan_bfs_phase(n, m, 50, 8, BfsMode::Auto).mode, PerSource);
        for kind in [StorageKind::CompressedHeap, StorageKind::CompressedMmap] {
            assert_eq!(
                plan_bfs_phase_stored(n, m, 50, 8, BfsMode::Auto, kind).mode,
                Batched,
                "{kind:?}"
            );
        }
        // Few lanes (s = 5): below the plain MIN_BATCH_LANES but above the
        // compressed one.
        let (n, m) = (1 << 20, 1 << 23);
        assert_eq!(plan_bfs_phase(n, m, 5, 2, BfsMode::Auto).mode, PerSource);
        assert_eq!(
            plan_bfs_phase_stored(n, m, 5, 2, BfsMode::Auto, StorageKind::CompressedHeap)
                .mode,
            Batched
        );
        // Genuinely road-like (avg degree 3): per-source either way.
        let (n, m) = (1 << 20, (1 << 20) * 3 / 2);
        assert_eq!(
            plan_bfs_phase_stored(n, m, 50, 8, BfsMode::Auto, StorageKind::CompressedMmap)
                .mode,
            PerSource
        );
        // Plain storage reproduces the original table exactly.
        assert_eq!(
            plan_bfs_phase_stored(n, m, 50, 8, BfsMode::Auto, StorageKind::Plain),
            plan_bfs_phase(n, m, 50, 8, BfsMode::Auto)
        );
    }

    #[test]
    fn planner_geometry_covers_word_boundaries() {
        for (s, words) in [(1, 1), (63, 1), (64, 1), (65, 2), (129, 3)] {
            let plan = plan_bfs_phase(1 << 20, 1 << 23, s, 8, BfsMode::Batched);
            assert_eq!(plan.lanes, s);
            assert_eq!(plan.words, words);
        }
    }
}
