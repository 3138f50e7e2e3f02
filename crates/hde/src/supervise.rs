//! Run supervision: cooperative budget checks, memory admission, and the
//! degraded-retry ladder (DESIGN.md §11).
//!
//! The [`parhde_util::supervisor`] layer owns the per-thread [`RunBudget`]
//! install; this module is the pipeline side of the contract:
//!
//! * [`budget_check`] converts a budget trip into a typed
//!   [`HdeError`] at a phase boundary, and polls resident-set size against
//!   the soft memory budget (kernels never poll memory — an RSS read is a
//!   `/proc` file read, far too slow for a hot loop);
//! * [`estimate_run_bytes_stored`]/[`admit_stored`] implement pre-run
//!   memory admission: the run is rejected or its subspace dimension shrunk
//!   *before* the big allocations happen, so the soft budget is respected
//!   by construction rather than by after-the-fact unwinding;
//! * [`try_par_hde_nd_supervised`] walks the degraded-retry ladder: when a
//!   rung trips its slice of the deadline (or the memory budget), the next
//!   rung retries with a cheaper configuration, ending at a trivial layout
//!   that always succeeds. Cancellation is sticky and never retried.
//!
//! # Deadline slicing
//!
//! A single wall-clock deadline `D` covers the *whole* supervised run, not
//! each rung. The ladder arms per-rung deadlines at fixed fractions of `D`
//! measured from the supervised start — 0.55·D for the full run, 0.75·D
//! after one halving, 0.9·D for the random-pivots rung, 0.97·D for the PHDE
//! fallback — so even a run that exhausts every rung produces its trivial
//! layout and returns within a small overshoot of `D` (the distance the
//! active kernel travels between two cooperative checks).

use crate::checkpoint::CheckpointSpec;
use crate::config::{BfsMode, LinalgMode, ParHdeConfig, PivotStrategy};
use crate::driver::Mode;
use crate::error::{trivial_coords, HdeError, Warning};
use crate::parhde::{run_nd, Source};
use crate::phde::{run_pca, PhdeConfig, PHDE};
use crate::stats::{recorded, warn, HdeStats, Recorded};
use parhde_graph::store::GraphStore;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_util::supervisor;
use parhde_util::RunBudget;
use std::time::{Duration, Instant};

/// Converts a trip of the calling thread's budget into a typed error at a
/// phase boundary, after polling resident-set size against the soft memory
/// budget.
///
/// Fail-soft pipelines call this between phases; the cooperative kernels
/// only *abandon* work (cheap partial results), and this is where the
/// abandonment becomes a typed [`HdeError`] instead of garbage flowing
/// downstream.
///
/// # Errors
/// [`HdeError::DeadlineExceeded`], [`HdeError::MemoryBudgetExceeded`] or
/// [`HdeError::Cancelled`], tagged with `phase`.
pub(crate) fn budget_check(phase: &'static str) -> Result<(), HdeError> {
    poll_memory();
    supervisor::should_stop();
    match supervisor::ambient_trip() {
        Some(reason) => Err(HdeError::from_trip(reason, phase)),
        None => Ok(()),
    }
}

/// One RSS-vs-budget poll. `VmRSS` (not the `VmHWM` high-water mark) so a
/// rung retried after freeing the tripped allocation is not condemned by
/// history it no longer occupies. RSS measures the whole process, so runs
/// sharing a process see each other's memory here; the daemon therefore
/// gives its runs no memory budget and admits them through its shared
/// budget instead.
fn poll_memory() {
    if let Some(budget) = supervisor::ambient_mem_budget() {
        if let Some(rss) = parhde_trace::current_rss_bytes() {
            if rss > budget {
                supervisor::ambient_trip_memory();
            }
        }
    }
}

/// Estimated peak working set, in bytes, of a ParHDE run on `g` using `s`
/// pivots and a `p`-dimensional embedding — the input to memory
/// admission.
///
/// Counts the graph as the store holds it: its resident footprint (a plain
/// CSR's offsets plus adjacency; heap-held varint blocks, or just the
/// offset/degree sidecars when the blocks live in a file mapping the
/// kernel pages on demand) plus, on compressed storage, one max-degree
/// decode scratch per worker thread, which is what the chunked kernels
/// actually allocate. Then the `n×(s+1)` basis `S` (the BFS phase writes
/// the distance matrix `B` straight into its columns, so `B` costs nothing
/// of its own), the TripleProd working set (under [`LinalgMode::Staged`]
/// the materialized `L·S` product plus the SpMM's collected row-block
/// partials plus the packed row-major copy of `S` — peak 3×`n×(s+1)`;
/// under [`LinalgMode::Fused`] just the pack), the degree vector, per-mode
/// BFS scratch (bit-lane rows for [`BfsMode::Batched`], a distance buffer
/// otherwise), the small `s×s` matrices, and the output coordinates.
/// Deliberately a slight *over*-estimate: admission should err toward
/// downscaling, since the runtime RSS trip that backstops it is much more
/// disruptive.
///
/// Prices the default pipeline; a `project_from_raw` run also keeps its
/// own copy of `B`, which [`admit_stored`] adds when told so.
pub fn estimate_run_bytes_stored<G: GraphStore>(
    g: &G,
    s: usize,
    p: usize,
    mode: BfsMode,
    linalg: LinalgMode,
) -> u64 {
    stored_estimate(g, s, p, mode, linalg, false)
}

/// [`estimate_run_bytes_stored`], plus the raw distance columns when
/// `keeps_raw` (a `project_from_raw` run).
fn stored_estimate<G: GraphStore>(
    g: &G,
    s: usize,
    p: usize,
    mode: BfsMode,
    linalg: LinalgMode,
    keeps_raw: bool,
) -> u64 {
    let decode_scratch = if g.storage().is_compressed() {
        parhde_util::par::current_num_threads() as u64 * g.max_degree() as u64 * 4
    } else {
        0
    };
    g.resident_bytes() as u64
        + decode_scratch
        + estimate_workspace_bytes(g.num_vertices(), s, p, mode, linalg, keeps_raw)
}

/// The non-graph share of the peak working set: everything
/// [`estimate_run_bytes_stored`] counts except the graph's own storage,
/// plus the `n×s` copy of `B` when `keeps_raw`.
fn estimate_workspace_bytes(
    n: usize,
    s: usize,
    p: usize,
    mode: BfsMode,
    linalg: LinalgMode,
    keeps_raw: bool,
) -> u64 {
    const F: u64 = 8; // bytes per f64 / usize / lane word
    let n = n as u64;
    let s = s as u64;
    let p = p as u64;
    // DOrtho rewrites S in place, so projecting from the raw distances
    // needs them copied out first.
    let raw = if keeps_raw { n * s * F } else { 0 };
    let smat = n * (s + 1) * F;
    let prod = match linalg {
        // laplacian_spmm collects per-block partials and then assembles
        // the output, and reads `S` through a packed row-major copy, so
        // three `S`-shaped buffers coexist at peak.
        LinalgMode::Staged => 3 * n * (s + 1) * F,
        // The fused kernel never materializes `L·S`; its only n-sized
        // allocation is the packed row-major copy of `S`.
        LinalgMode::Fused => n * (s + 1) * F,
    };
    let degrees = n * F;
    let bfs_scratch = match mode {
        // seen/frontier/next lane-row triple of ⌈s/64⌉ words per vertex.
        BfsMode::Batched => 3 * n * s.div_ceil(64) * F,
        // Distance/frontier buffers for the traversal kernels.
        _ => 2 * n * F,
    };
    let small = 3 * (s + 1) * (s + 1) * F; // Z, T and the eigenvector matrix
    let coords = n * p * F;
    raw + smat + prod + degrees + bfs_scratch + small + coords
}

/// Memory admission's verdict for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// The admitted subspace dimension (≤ the requested one).
    pub subspace: usize,
    /// Estimated bytes at the admitted dimension.
    pub estimated_bytes: u64,
    /// Whether the requested dimension had to shrink to fit.
    pub downscaled: bool,
}

/// Decides whether a run on `g` fits `budget_bytes`, priced by
/// [`estimate_run_bytes_stored`], halving the subspace dimension (never
/// below `max(p, 2)`) until the estimate fits. A compressed or mmap-backed
/// graph's smaller resident footprint admits larger subspaces under the
/// same budget. `keeps_raw` (the run's `project_from_raw`) adds the copy
/// of `B` that configuration keeps beside `S`. Returns `None` when even
/// the smallest usable subspace does not fit — the caller degrades
/// straight to a trivial layout.
pub fn admit_stored<G: GraphStore>(
    g: &G,
    s: usize,
    p: usize,
    mode: BfsMode,
    linalg: LinalgMode,
    keeps_raw: bool,
    budget_bytes: u64,
) -> Option<Admission> {
    admit_with(s, p, budget_bytes, |cur| stored_estimate(g, cur, p, mode, linalg, keeps_raw))
}

fn admit_with(
    s: usize,
    p: usize,
    budget_bytes: u64,
    estimate: impl Fn(usize) -> u64,
) -> Option<Admission> {
    let floor = p.max(2);
    let mut cur = s.max(floor);
    loop {
        let estimated = estimate(cur);
        if estimated <= budget_bytes {
            return Some(Admission {
                subspace: cur,
                estimated_bytes: estimated,
                downscaled: cur != s,
            });
        }
        if cur == floor {
            return None;
        }
        cur = (cur / 2).max(floor);
    }
}

/// Knobs of a supervised run.
#[derive(Clone, Debug, Default)]
pub struct SuperviseOptions {
    /// Wall-clock deadline for the whole run (all ladder rungs included).
    pub deadline: Option<Duration>,
    /// Soft memory budget in bytes: gates admission up front and arms the
    /// runtime RSS backstop.
    pub mem_budget_bytes: Option<u64>,
    /// Directory receiving the post-BFS checkpoint of every attempted rung.
    pub checkpoint: Option<CheckpointSpec>,
    /// Trip the budget when [`parhde_util::supervisor::request_global_cancel`]
    /// fires (set by the CLI signal handlers).
    pub honor_global_cancel: bool,
    /// External cancellation flag linked into the run's budget: the serve
    /// layer sets it from a connection watchdog when the requesting client
    /// disconnects mid-run.
    pub cancel_flag: Option<parhde_util::CancelFlag>,
}

/// The result of a supervised run: the coordinates, the rung that
/// produced them, and the run's stats.
#[derive(Clone, Debug)]
pub struct Supervised {
    /// The `n×p` layout coordinates.
    pub coords: ColMajorMatrix,
    /// The run's stats. Phases, counters and warnings cover the whole
    /// supervised call: the admission decision, every abandoned rung (its
    /// own phases and warnings, then a [`Warning::LadderStep`]) and the
    /// rung that succeeded, in that order. The other fields describe the
    /// successful rung.
    pub stats: HdeStats,
    /// Label of the rung that produced `coords`: `"full"`,
    /// `"halved_pivots"`, `"random_pivots"`, `"phde"` or `"trivial"`.
    pub rung: &'static str,
}

impl Recorded for Supervised {
    fn stats_mut(&mut self) -> Option<&mut HdeStats> {
        Some(&mut self.stats)
    }
}

/// The spectral rungs of the ladder, cheapest last, each with the
/// fraction of the total deadline by which it must be done.
const RUNGS: [(&str, f64); 4] =
    [("full", 0.55), ("halved_pivots", 0.75), ("random_pivots", 0.90), ("phde", 0.97)];

/// Supervised fail-soft ParHDE: runs [`crate::try_par_hde_nd`] under a
/// [`RunBudget`] and degrades through the retry ladder instead of failing
/// when the deadline or memory budget trips.
///
/// The ladder, cheapest-last: the full configuration → half the pivots →
/// random pivots, whose traversals the BFS-phase planner schedules side
/// by side → the PHDE pipeline (2-D runs only) → a trivial line layout.
/// Only *budget* trips (deadline, memory) descend the ladder; cancellation
/// and every ordinary pipeline error return immediately. Each abandoned
/// rung is recorded as one [`Warning::LadderStep`], and the trivial rung
/// as a [`Warning::BudgetSpent`] naming the budget that ran out. Every
/// attempted rung writes `opts.checkpoint` after its BFS phase, so even an
/// interrupted degraded run leaves a resumable checkpoint behind.
///
/// Installs the run's budget on the calling thread for its whole duration
/// ([`supervisor::install`]); an install the caller holds is shadowed
/// meanwhile and restored on return.
///
/// Works on any [`GraphStore`]; memory admission prices the store's actual
/// resident footprint ([`admit_stored`]), and the PHDE rung — whose
/// coarsening pipeline rebuilds plain CSR graphs — is skipped silently on
/// compressed storage, the same way it is skipped for non-2-D runs.
///
/// # Errors
/// [`HdeError::Cancelled`] if the run is cancelled; otherwise any
/// non-budget error of [`crate::try_par_hde_nd`]. Budget trips themselves
/// never surface: the trivial rung always succeeds.
pub fn try_par_hde_nd_supervised<G: GraphStore>(
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    opts: &SuperviseOptions,
) -> Result<Supervised, HdeError> {
    let _root = parhde_trace::span!("parhde_supervised");
    let mut budget = RunBudget::unbounded();
    if let Some(bytes) = opts.mem_budget_bytes {
        budget = budget.with_mem_budget(bytes);
    }
    if opts.honor_global_cancel {
        budget = budget.honoring_global_cancel();
    }
    if let Some(flag) = &opts.cancel_flag {
        budget = budget.with_external_cancel(std::sync::Arc::clone(flag));
    }
    let _installed = supervisor::install(&budget);
    recorded(|| {
        let out = supervised(g, cfg, p, opts, &budget);
        parhde_trace::counter!("supervisor.checks", budget.checks());
        out
    })
}

/// The supervised run under its installed `budget`: admission, the
/// ladder, and the trivial rung.
fn supervised<G: GraphStore>(
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    opts: &SuperviseOptions,
    budget: &RunBudget,
) -> Result<Supervised, HdeError> {
    let start = Instant::now();
    let n = g.num_vertices();

    // ---- Memory admission (before any large allocation) -----------------
    let mut cfg = cfg.clone();
    // The admission model's prediction, exported beside the measured
    // `process.peak_rss_bytes`: for the requested configuration, then for
    // the admitted one if admission shrinks it.
    let estimate = stored_estimate(
        g,
        cfg.subspace,
        p,
        cfg.bfs_mode,
        cfg.linalg_mode,
        cfg.project_from_raw,
    );
    parhde_trace::gauge!("supervisor.estimate_bytes", estimate as f64);
    if let Some(bytes) = opts.mem_budget_bytes {
        let keeps_raw = cfg.project_from_raw;
        match admit_stored(g, cfg.subspace, p, cfg.bfs_mode, cfg.linalg_mode, keeps_raw, bytes) {
            Some(a) if a.downscaled => {
                parhde_trace::gauge!("supervisor.estimate_bytes", a.estimated_bytes as f64);
                parhde_trace::counter!("supervisor.admission.downscaled", 1);
                warn(Warning::AdmissionDownscaled {
                    requested: cfg.subspace,
                    admitted: a.subspace,
                    estimated_bytes: a.estimated_bytes,
                    budget_bytes: bytes,
                });
                cfg.subspace = a.subspace;
            }
            Some(_) => {
                parhde_trace::counter!("supervisor.admission.admitted", 1);
            }
            None => {
                parhde_trace::counter!("supervisor.admission.rejected", 1);
                let budget = format!("the {bytes}-byte memory budget");
                return Ok(trivial(n, p, cfg.subspace, budget));
            }
        }
    }

    // ---- The ladder ------------------------------------------------------
    let mut rung_cfg = cfg.clone();
    let mut spent = String::from("the run budget");
    for (rung, slice) in RUNGS {
        let Some(next) = rung_config(rung, &rung_cfg, g, p) else { continue };
        rung_cfg = next;
        if let Some(d) = opts.deadline {
            budget.arm_deadline_at(start + d.mul_f64(slice));
        }
        let attempt = if rung == "phde" {
            // The rung-selection arm above guarantees plain storage here.
            let csr = g.as_csr().expect("phde rung is gated on as_csr()");
            let phde_cfg = PhdeConfig::from(&rung_cfg);
            run_pca(csr, &phde_cfg, &PHDE, Mode::FailSoft)
        } else {
            run_nd(g, &rung_cfg, p, Mode::FailSoft, Source::Bfs(opts.checkpoint.as_ref()))
        };
        match attempt {
            Ok((coords, stats)) => return Ok(Supervised { coords, stats, rung }),
            Err(e) if e.is_budget_trip() => {
                parhde_trace::counter!("supervisor.ladder.step", 1);
                match &e {
                    HdeError::DeadlineExceeded { .. } => {
                        parhde_trace::counter!("supervisor.trip.deadline", 1);
                        if let Some(d) = opts.deadline {
                            spent = format!("the {} ms deadline", d.as_millis());
                        }
                    }
                    HdeError::MemoryBudgetExceeded { budget_bytes, .. } => {
                        parhde_trace::counter!("supervisor.trip.memory", 1);
                        spent = format!("the {budget_bytes}-byte memory budget");
                    }
                    _ => {}
                }
                warn(Warning::LadderStep { rung, cause: e.to_string() });
            }
            Err(e) => {
                if matches!(e, HdeError::Cancelled { .. }) {
                    parhde_trace::counter!("supervisor.trip.cancelled", 1);
                }
                return Err(e);
            }
        }
    }

    // ---- Trivial rung (always succeeds, no budget needed) ----------------
    budget.disarm_deadline();
    Ok(trivial(n, p, cfg.subspace, spent))
}

/// The configuration `rung` runs, specialized from the previous rung's
/// `prev`, or `None` where the rung would change nothing or does not apply
/// (the ladder then skips it silently).
fn rung_config<G: GraphStore>(
    rung: &str,
    prev: &ParHdeConfig,
    g: &G,
    p: usize,
) -> Option<ParHdeConfig> {
    let mut cfg = prev.clone();
    match rung {
        "full" => {}
        "halved_pivots" => {
            let floor = p.max(2).min(cfg.subspace);
            let halved = (cfg.subspace / 2).max(floor);
            if halved == cfg.subspace {
                return None;
            }
            cfg.subspace = halved;
        }
        "random_pivots" => {
            // K-centers pivots serialize the traversals; independent ones
            // let the planner run them side by side, per source or batched,
            // whichever suits the graph.
            if cfg.pivots == PivotStrategy::Random && cfg.bfs_mode == BfsMode::Auto {
                return None;
            }
            cfg.pivots = PivotStrategy::Random;
            cfg.bfs_mode = BfsMode::Auto;
        }
        "phde" => {
            if p != 2 || g.num_vertices() < 3 || g.as_csr().is_none() {
                return None;
            }
        }
        _ => unreachable!("unknown rung"),
    }
    Some(cfg)
}

/// The trivial rung: the line layout, recorded with a warning that names
/// the `budget` no spectral rung fit.
fn trivial(n: usize, p: usize, s_requested: usize, budget: String) -> Supervised {
    warn(Warning::BudgetSpent { budget });
    Supervised {
        coords: trivial_coords(n, p),
        stats: HdeStats { s_requested, ..HdeStats::default() },
        rung: "trivial",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_phase::{plan_bfs_phase_stored, PlannedBfsMode};
    use parhde_graph::gen::{grid2d, pref_attach};
    use parhde_graph::CsrGraph;

    /// The estimate under the default, fused TripleProd.
    fn estimate(g: &CsrGraph, s: usize, p: usize) -> u64 {
        estimate_run_bytes_stored(g, s, p, BfsMode::Auto, LinalgMode::Fused)
    }

    #[test]
    fn estimate_grows_with_every_dimension() {
        let g = pref_attach(10_000, 2, 1);
        let base = estimate(&g, 10, 2);
        assert!(estimate(&pref_attach(20_000, 2, 1), 10, 2) > base);
        assert!(estimate(&pref_attach(10_000, 4, 1), 10, 2) > base);
        assert!(estimate(&g, 20, 2) > base);
        assert!(estimate(&g, 10, 3) > base);
    }

    #[test]
    fn fused_estimate_is_below_staged() {
        // The fused TripleProd skips the materialized L·S product; the
        // estimate must reflect that so admission admits larger subspaces.
        let g = grid2d(400, 250);
        let staged = estimate_run_bytes_stored(&g, 50, 2, BfsMode::Auto, LinalgMode::Staged);
        // Two S-shaped buffers of difference: the materialized product's
        // partials and its assembled output (both paths share the packed
        // row-major copy of `S`).
        assert_eq!(staged - estimate(&g, 50, 2), 2 * 100_000 * 51 * 8);
    }

    #[test]
    fn estimate_is_plausible_for_a_known_shape() {
        // 100k vertices, 10 pivots: S alone is 100_000 × 11 × 8 = 8.8 MB;
        // the total should be the same order of magnitude, not wildly off.
        let g = grid2d(400, 250);
        assert_eq!((g.num_vertices(), g.num_edges()), (100_000, 199_350));
        let est = estimate(&g, 10, 2);
        assert!(est > 8_800_000, "below the S matrix alone: {est}");
        assert!(est < 80_000_000, "order of magnitude too high: {est}");
        // Term by term: graph 2_394_808 (offsets 800_008, adjacency
        // 1_594_800), S 8_800_000, the fused pack of S 8_800_000, degrees
        // 800_000, BFS buffers 1_600_000, the small matrices 2_904,
        // coordinates 1_600_000. B has no term of its own: the BFS writes
        // it into S.
        assert_eq!(est, 23_997_712);
    }

    #[test]
    fn only_raw_projection_prices_a_copy_of_b() {
        let g = grid2d(40, 30);
        let (mode, linalg) = (BfsMode::Auto, LinalgMode::Fused);
        let plain = admit_stored(&g, 12, 2, mode, linalg, false, u64::MAX).unwrap();
        let raw = admit_stored(&g, 12, 2, mode, linalg, true, u64::MAX).unwrap();
        assert_eq!(plain.estimated_bytes, estimate_run_bytes_stored(&g, 12, 2, mode, linalg));
        assert_eq!(raw.estimated_bytes - plain.estimated_bytes, 1200 * 12 * 8);
    }

    #[test]
    fn admission_accepts_when_budget_is_ample() {
        let g = grid2d(100, 100);
        let a = admit_stored(&g, 10, 2, BfsMode::Auto, LinalgMode::Fused, false, u64::MAX).unwrap();
        assert_eq!(a.subspace, 10);
        assert!(!a.downscaled);
    }

    #[test]
    fn admission_downscales_by_halving() {
        let g = grid2d(400, 250);
        let full = estimate(&g, 48, 2);
        let a = admit_stored(&g, 48, 2, BfsMode::Auto, LinalgMode::Fused, false, full - 1).unwrap();
        assert!(a.downscaled);
        assert!(a.subspace < 48 && a.subspace >= 2);
        assert!(a.estimated_bytes < full);
    }

    #[test]
    fn admission_rejects_impossible_budgets() {
        let g = grid2d(400, 250);
        assert_eq!(admit_stored(&g, 10, 2, BfsMode::Auto, LinalgMode::Fused, false, 1024), None);
    }

    #[test]
    fn admission_floor_is_embedding_dimension() {
        let g = grid2d(250, 200);
        let floor = estimate(&g, 3, 3);
        let a = admit_stored(&g, 40, 3, BfsMode::Auto, LinalgMode::Fused, false, floor).unwrap();
        assert!(a.subspace >= 3);
    }

    #[test]
    fn stored_estimate_matches_formula_on_plain_csr() {
        // A plain CSR's resident bytes are exactly its offsets and its
        // symmetric u32 adjacency, so that is the whole graph term.
        let g = grid2d(40, 30);
        let (n, m) = (g.num_vertices(), g.num_edges());
        let workspace = estimate_workspace_bytes(n, 12, 2, BfsMode::Auto, LinalgMode::Fused, false);
        let formula = (n as u64 + 1) * 8 + 2 * m as u64 * 4 + workspace;
        assert_eq!(estimate(&g, 12, 2), formula);
    }

    #[test]
    fn the_random_pivots_rung_lets_the_planner_keep_a_grid_per_source() {
        // On a mesh the shared sweep of the batched kernel pays one round
        // per level; the planner keeps such graphs per-source, and the
        // rung must leave it that choice.
        let g = grid2d(100, 100);
        let cfg = rung_config("random_pivots", &ParHdeConfig::default(), &g, 2).unwrap();
        assert_eq!(cfg.pivots, PivotStrategy::Random);
        let (n, m) = (g.num_vertices(), g.num_edges());
        let plan = plan_bfs_phase_stored(n, m, cfg.subspace, 2, cfg.bfs_mode, g.storage());
        assert_eq!(plan.mode, PlannedBfsMode::PerSource, "{}", plan.reason);
        // Random pivots under the planner already: the rung changes nothing.
        assert!(rung_config("random_pivots", &cfg, &g, 2).is_none());
        let forced = ParHdeConfig { bfs_mode: BfsMode::Batched, ..cfg };
        assert_eq!(rung_config("random_pivots", &forced, &g, 2).unwrap().bfs_mode, BfsMode::Auto);
    }

    #[test]
    fn compressed_estimate_is_below_plain() {
        let g = parhde_graph::gen::kron(10, 8, 5);
        let c = parhde_graph::CompressedCsr::from_csr(&g);
        let plain = estimate_run_bytes_stored(&g, 16, 2, BfsMode::Auto, LinalgMode::Fused);
        let comp = estimate_run_bytes_stored(&c, 16, 2, BfsMode::Auto, LinalgMode::Fused);
        assert!(
            comp < plain,
            "compressed residency must shrink the estimate: {comp} vs {plain}"
        );
    }

    #[test]
    fn compressed_admission_admits_larger_subspaces() {
        // Pin the budget just under the plain estimate at the requested
        // subspace: plain admission halves, compressed admission fits.
        let g = parhde_graph::gen::kron(10, 8, 5);
        let c = parhde_graph::CompressedCsr::from_csr(&g);
        let budget =
            estimate_run_bytes_stored(&g, 32, 2, BfsMode::Auto, LinalgMode::Fused) - 1;
        let plain =
            admit_stored(&g, 32, 2, BfsMode::Auto, LinalgMode::Fused, false, budget).unwrap();
        let comp =
            admit_stored(&c, 32, 2, BfsMode::Auto, LinalgMode::Fused, false, budget).unwrap();
        assert!(plain.downscaled);
        assert!(!comp.downscaled, "compressed store must fit the same budget");
        assert_eq!(comp.subspace, 32);
    }
}
