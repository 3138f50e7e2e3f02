//! **ParHDE** — shared-memory parallel High-Dimensional Embedding graph
//! layout, a from-scratch Rust reproduction of Mishra, Kirmani & Madduri,
//! *Fast Spectral Graph Layout on Multicore Platforms*, ICPP 2020.
//!
//! # The algorithm
//!
//! HDE (Koren) computes a 2-D graph layout by eigen-projection *in a
//! subspace*: instead of solving the full `n×n` spectral problem, it spans a
//! small subspace with `s` graph-distance vectors (BFS from pivot vertices),
//! D-orthogonalizes them, and solves the spectral layout problem restricted
//! to that subspace — an `s×s` eigenproblem. ParHDE parallelizes the three
//! compute-intensive phases:
//!
//! 1. **BFS phase** — `s` traversals with the direction-optimizing parallel
//!    BFS, each writing a column of `B ∈ R^{n×s}`; pivots are chosen by the
//!    farthest-first k-centers heuristic (or uniformly at random);
//! 2. **DOrtho phase** — Gram-Schmidt D-orthogonalization of the columns
//!    (Modified by default, Classical as the faster BLAS-2 option),
//!    dropping degenerate vectors;
//! 3. **TripleProd phase** — `P = L·S` as an implicit-Laplacian SpMM
//!    followed by the small dense product `Z = Sᵀ·P`.
//!
//! A negligible `s×s` eigensolve and the projection `[x, y]` finish the
//! layout.
//!
//! # Asymptotics (paper Table 1)
//!
//! | Phase | Work | Depth |
//! |---|---|---|
//! | ParallelBFS | `s(d_max·n + γm)` | `s·max(d_max, log n)` |
//! | BFS: other | `sn` | `s·log n` |
//! | DOrtho | `s²n` | `s²·log n` |
//! | TripleProd: LS | `s(m+n)` | `log n` |
//! | TripleProd: matmul | `s²n` | `log n` |
//!
//! The empirical `ops-count` mode of the benchmark harness validates the
//! `s` / `s²` scaling split (Table 1 / Figure 5).
//!
//! # Variants provided
//!
//! * [`parhde::par_hde`] — the main algorithm (Algorithm 3);
//! * [`phde::phde`] — the older PCA-based HDE (Algorithm 2);
//! * [`pivot_mds::pivot_mds`] — PivotMDS (double-centered distances);
//! * plain orthogonalization instead of D-orthogonalization via
//!   [`config::ParHdeConfig::d_orthogonalize`] (§4.5.1 eigen-projection);
//! * weighted graphs via Δ-stepping SSSP ([`weighted`], §3.3);
//! * [`prior`] — the prior-work baseline of Table 3: ParHDE pinned to
//!   sequential BFS, MGS and the staged triple product through an
//!   explicitly materialized Laplacian;
//! * [`zoom`] — k-hop neighborhood re-layout (§4.5.2);
//! * [`refine`] — weighted-centroid refinement and eigensolver
//!   preconditioning (§4.5.3);
//! * [`coupled`] — the coupled BFS + D-orthogonalization schedule (§4.4),
//!   ParHDE with each column's DOrtho step run as the k-centers loop's
//!   per-pivot hook;
//! * [`partition`] — geometric partitioning from layout coordinates
//!   (§4.5.4);
//! * [`stress`] — sparse stress majorization seeded by ParHDE (§4.5.4);
//! * [`multilevel`] — multilevel ParHDE (§5 future work).
//!
//! # Fail-soft entry points
//!
//! Every pipeline has a `try_*` twin ([`try_par_hde`], [`try_phde`],
//! [`try_pivot_mds`], [`try_par_hde_weighted`]) that never panics on
//! untrusted input: defects come back as typed [`HdeError`]s, and
//! recoverable ones (disconnected input, oversized subspace, tiny graphs,
//! degenerate subspaces) degrade gracefully with a [`Warning`] recorded in
//! [`HdeStats::warnings`]. See DESIGN.md's "Error handling & degradation
//! contract" for the full policy.
//!
//! # Run records
//!
//! Every pipeline call records its phases, work counters, gauges and
//! warnings once, into its own run record nested in the caller's
//! ([`parhde_trace::Record`]), and reads them back into its
//! [`HdeStats`]; a degraded call's stats therefore include its abandoned
//! attempts. [`stats::render_report`] renders run report v1 from a record,
//! and [`stats::phase::ALL`] is the phase vocabulary every view shares.
//! See DESIGN.md §9.
//!
//! # Supervised runs
//!
//! [`try_par_hde_nd_supervised`] runs the pipeline under a
//! [`parhde_util::RunBudget`] — a wall-clock deadline, a soft memory
//! budget with pre-run admission, and cooperative cancellation — and
//! degrades through a retry ladder (fewer pivots → random pivots → PHDE →
//! trivial layout) instead of failing when a budget trips.
//! [`try_par_hde_nd_checkpointed`] / [`try_par_hde_resume`] persist the
//! post-BFS state so an interrupted run restarts bit-identically without
//! repeating the dominant BFS phase. See DESIGN.md §11 ("Supervision
//! contract").
//!
//! # Example
//!
//! ```
//! use parhde::{par_hde, config::ParHdeConfig};
//! use parhde_graph::gen::grid2d;
//!
//! let graph = grid2d(20, 20);
//! let (layout, stats) = par_hde(&graph, &ParHdeConfig::default());
//! assert_eq!(layout.len(), 400);
//! assert_eq!(stats.sources.len(), 10);          // s = 10 BFS pivots
//! // Edges land much closer together than random vertex pairs:
//! let q = parhde::quality::layout_quality(&graph, &layout, 200, 7);
//! assert!(q.contraction() < 0.5);
//! ```

#![warn(missing_docs)]

pub mod bfs_phase;
pub mod checkpoint;
pub mod config;
pub mod coupled;
mod driver;
pub mod error;
pub mod layout;
pub mod multilevel;
pub mod parhde;
pub mod partition;
pub mod phde;
pub mod pivot_mds;
pub mod pivots;
pub mod prior;
pub mod quality;
pub mod refine;
pub mod stats;
pub mod stress;
pub mod supervise;
pub mod weighted;
pub mod zoom;

pub use bfs_phase::{plan_bfs_phase, BfsPlan, PlannedBfsMode};
pub use checkpoint::{Checkpoint, CheckpointSpec};
pub use config::{BfsMode, OrthoMethod, ParHdeConfig, PivotStrategy};
pub use error::{HdeError, Warning};
pub use layout::Layout;
pub use parhde::{
    par_hde, par_hde_nd, try_par_hde, try_par_hde_nd,
    try_par_hde_nd_checkpointed, try_par_hde_resume,
};
pub use phde::{phde, try_phde, PhdeConfig};
pub use pivot_mds::{pivot_mds, try_pivot_mds};
pub use stats::HdeStats;
pub use supervise::{
    try_par_hde_nd_supervised, Supervised, SuperviseOptions,
};
pub use weighted::{
    par_hde_weighted, par_hde_weighted_with, try_par_hde_weighted,
    try_par_hde_weighted_with, WeightSemantics,
};
