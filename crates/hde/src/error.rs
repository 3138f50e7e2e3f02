//! Typed errors, degradation warnings, and fail-soft helpers.
//!
//! The `try_*` pipeline entry points ([`crate::try_par_hde`],
//! [`crate::try_phde`], [`crate::try_pivot_mds`], …) never panic on
//! untrusted input: every defect either comes back as an [`HdeError`] or is
//! absorbed by a documented degradation recorded as a [`Warning`] in
//! [`crate::HdeStats::warnings`]. The legacy panicking APIs remain as thin
//! wrappers that `panic!` with the error's `Display` text, preserving the
//! historical messages.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use parhde_graph::io::GraphIoError;
use parhde_linalg::dense::ColMajorMatrix;
use parhde_linalg::LinalgError;

/// A failure anywhere in a layout pipeline, typed by cause.
#[derive(Debug, Clone, PartialEq)]
pub enum HdeError {
    /// The configuration is unusable for the given graph (zero subspace,
    /// `s ≥ n` in strict mode, negative tolerance, non-positive Δ, …).
    InvalidConfig(String),
    /// The graph is not connected and the caller asked for strict behavior.
    Disconnected {
        /// Vertices reached from the first pivot.
        reached: usize,
        /// Total vertices in the graph.
        n: usize,
    },
    /// Fewer than `needed` subspace directions survived D-orthogonalization,
    /// even after `retries` re-pivot attempts.
    DegenerateSubspace {
        /// Directions that survived.
        kept: usize,
        /// Directions the embedding dimension requires.
        needed: usize,
        /// The subspace dimension `s` that was attempted.
        subspace: usize,
        /// Re-pivot retries performed before giving up.
        retries: usize,
    },
    /// A NaN or ±∞ appeared mid-pipeline; names the phase and position.
    NonFiniteValue {
        /// Pipeline phase whose data went bad (e.g. `"dortho"`, `"spmm"`).
        phase: &'static str,
        /// Column of the first bad entry.
        column: usize,
        /// Row of the first bad entry.
        row: usize,
    },
    /// Malformed input text at a 1-indexed line and column.
    Parse {
        /// 1-indexed line of the defect.
        line: usize,
        /// 1-indexed column of the defect.
        column: usize,
        /// Description of the defect.
        message: String,
    },
    /// An I/O or non-positional format failure while loading input.
    Io(String),
    /// The run's wall-clock deadline passed; names the phase that was
    /// interrupted. Produced by the run supervisor (DESIGN.md §11).
    DeadlineExceeded {
        /// Pipeline phase that was executing when the budget tripped.
        phase: &'static str,
    },
    /// The soft memory budget was exceeded — either rejected up front by
    /// the admission estimator or tripped by a phase-boundary RSS poll.
    MemoryBudgetExceeded {
        /// Bytes the run needs (estimate) or currently holds (RSS poll).
        needed_bytes: u64,
        /// The configured soft budget in bytes.
        budget_bytes: u64,
    },
    /// The run was cancelled (SIGINT/SIGTERM or a peer thread); names the
    /// phase that was interrupted.
    Cancelled {
        /// Pipeline phase that was executing when cancellation landed.
        phase: &'static str,
    },
    /// A checkpoint file is unusable for this run: wrong magic/version,
    /// corrupt payload, or written for a different graph/configuration.
    CheckpointMismatch(String),
    /// A forced compute backend (`--backend simd`) cannot run on this CPU.
    BackendUnavailable {
        /// The backend the caller demanded (e.g. `"simd"`).
        requested: &'static str,
        /// Why it cannot be selected here.
        reason: String,
    },
    /// An internal invariant failed — a bug, not a user error.
    Internal(String),
}

impl std::fmt::Display for HdeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            Self::Disconnected { reached, n } => write!(
                f,
                "ParHDE requires a connected graph ({reached} of {n} vertices \
                 reached); extract the largest component first (paper §4.1) or \
                 use a try_* entry point for automatic fallback"
            ),
            Self::DegenerateSubspace { kept, needed, subspace, retries } => write!(
                f,
                "only {kept} independent subspace directions survived for a \
                 {needed}-D embedding; increase the subspace dimension \
                 (s = {subspace}, {retries} re-pivot retries)"
            ),
            Self::NonFiniteValue { phase, column, row } => write!(
                f,
                "non-finite value in phase {phase} at column {column}, row {row}"
            ),
            Self::Parse { line, column, message } => {
                write!(f, "parse error at line {line}, column {column}: {message}")
            }
            Self::Io(m) => write!(f, "input error: {m}"),
            Self::DeadlineExceeded { phase } => {
                write!(f, "wall-clock deadline exceeded during phase {phase}")
            }
            Self::MemoryBudgetExceeded { needed_bytes, budget_bytes } => write!(
                f,
                "memory budget exceeded: run needs ~{needed_bytes} bytes, \
                 soft budget is {budget_bytes} bytes"
            ),
            Self::Cancelled { phase } => {
                write!(f, "run cancelled during phase {phase}")
            }
            Self::CheckpointMismatch(m) => write!(f, "unusable checkpoint: {m}"),
            Self::BackendUnavailable { requested, reason } => {
                write!(f, "compute backend {requested:?} unavailable: {reason}")
            }
            Self::Internal(m) => write!(f, "internal error (bug): {m}"),
        }
    }
}

impl std::error::Error for HdeError {}

impl HdeError {
    /// The process exit code the binaries map this error to (distinct per
    /// cause; `1` is reserved for generic failure, `2` for CLI usage).
    pub fn exit_code(&self) -> i32 {
        match self {
            Self::Io(_) => 3,
            Self::Parse { .. } => 4,
            Self::InvalidConfig(_) => 5,
            Self::Disconnected { .. } => 6,
            Self::DegenerateSubspace { .. } => 7,
            Self::NonFiniteValue { .. } => 8,
            Self::DeadlineExceeded { .. } => 9,
            Self::MemoryBudgetExceeded { .. } => 10,
            Self::CheckpointMismatch(_) => 11,
            Self::BackendUnavailable { .. } => 12,
            Self::Cancelled { .. } => 130, // 128 + SIGINT, the shell convention
            Self::Internal(_) => 70,       // EX_SOFTWARE
        }
    }

    /// The pipeline phase associated with the failure, when one is known.
    pub fn phase(&self) -> Option<&'static str> {
        match self {
            Self::NonFiniteValue { phase, .. } => Some(phase),
            Self::Disconnected { .. } => Some("bfs"),
            Self::DegenerateSubspace { .. } => Some("dortho"),
            Self::DeadlineExceeded { phase } | Self::Cancelled { phase } => Some(phase),
            _ => None,
        }
    }

    /// Converts a supervisor trip into the matching typed error, tagging it
    /// with the phase that was interrupted.
    pub fn from_trip(reason: parhde_util::TripReason, phase: &'static str) -> Self {
        match reason {
            parhde_util::TripReason::Deadline => Self::DeadlineExceeded { phase },
            parhde_util::TripReason::Cancelled => Self::Cancelled { phase },
            parhde_util::TripReason::Memory => {
                let needed = parhde_trace::current_rss_bytes().unwrap_or(0);
                let budget = parhde_util::supervisor::ambient_mem_budget().unwrap_or(0);
                Self::MemoryBudgetExceeded {
                    needed_bytes: needed,
                    budget_bytes: budget,
                }
            }
        }
    }

    /// Whether this error is a run-supervisor budget trip that the
    /// degraded-retry ladder may respond to with a cheaper configuration
    /// (cancellation is deliberately excluded: a cancelled run must stop,
    /// not retry).
    pub fn is_budget_trip(&self) -> bool {
        matches!(
            self,
            Self::DeadlineExceeded { .. } | Self::MemoryBudgetExceeded { .. }
        )
    }
}

impl From<LinalgError> for HdeError {
    fn from(e: LinalgError) -> Self {
        match e {
            LinalgError::NonFinite { phase, column, row } => {
                Self::NonFiniteValue { phase, column, row }
            }
            LinalgError::BackendUnavailable { requested, reason } => {
                Self::BackendUnavailable { requested, reason }
            }
            // Shape/symmetry violations inside the pipeline mean we built a
            // bad matrix ourselves — surface as a bug, not a user error.
            other => Self::Internal(other.to_string()),
        }
    }
}

impl From<GraphIoError> for HdeError {
    fn from(e: GraphIoError) -> Self {
        match e {
            GraphIoError::Parse { line, column, message } => {
                Self::Parse { line, column, message }
            }
            other => Self::Io(other.to_string()),
        }
    }
}

impl From<std::io::Error> for HdeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// A degradation the fail-soft pipeline absorbed instead of erroring;
/// recorded in [`crate::HdeStats::warnings`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Warning {
    /// The input was disconnected; the layout was computed on the largest
    /// component (paper §4.1) and the remaining vertices were placed at the
    /// layout centroid.
    DisconnectedFallback {
        /// Number of connected components in the input.
        components: usize,
        /// Vertices in the component that was laid out.
        kept: usize,
        /// Total vertices in the input.
        n: usize,
    },
    /// `subspace` was at or above `n` and was clamped to `n − 1`.
    SubspaceClamped {
        /// The requested subspace dimension.
        requested: usize,
        /// The dimension actually used.
        clamped: usize,
    },
    /// A degenerate subspace triggered a re-pivot retry with a reseeded RNG.
    RepivotRetry {
        /// 1-indexed retry attempt.
        attempt: usize,
        /// Directions that survived the failed attempt.
        kept: usize,
        /// Directions required.
        needed: usize,
    },
    /// The graph was too small for a spectral layout; vertices were placed
    /// on a deterministic line instead.
    TrivialLayout {
        /// Number of vertices.
        n: usize,
    },
    /// The supervisor's budget fit no spectral layout — memory admission
    /// rejected the run, or every rung of the degraded-retry ladder gave
    /// up on a budget trip — so vertices were placed on the deterministic
    /// line instead (DESIGN.md §11).
    BudgetSpent {
        /// The budget that ran out, e.g. `"the 2000 ms deadline"`.
        budget: String,
    },
    /// A supervised rung failed on a budget trip and the run moved to the
    /// next (cheaper) rung of the degraded-retry ladder (DESIGN.md §11).
    LadderStep {
        /// The rung that failed (`"full"`, `"halved_pivots"`, …).
        rung: &'static str,
        /// Display text of the budget trip that ended the rung.
        cause: String,
    },
    /// The memory-admission estimator shrank the subspace dimension to fit
    /// the soft memory budget before the run started.
    AdmissionDownscaled {
        /// The subspace dimension the caller asked for.
        requested: usize,
        /// The dimension admitted under the budget.
        admitted: usize,
        /// Estimated bytes at the admitted dimension.
        estimated_bytes: u64,
        /// The soft memory budget in bytes.
        budget_bytes: u64,
    },
    /// NaN entries appeared in a pivot-selection distance array (poisoned
    /// weighted input); they were excluded from the farthest-vertex argmax
    /// under a documented total order instead of panicking.
    NanDistances {
        /// NaN entries observed.
        count: usize,
    },
    /// Batched BFS was requested with k-centers pivots, which are
    /// sequentially dependent; each traversal ran direction-optimizing
    /// instead.
    BatchedBfsUnavailable,
}

impl std::fmt::Display for Warning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DisconnectedFallback { components, kept, n } => write!(
                f,
                "input has {components} components; laid out the largest \
                 ({kept} of {n} vertices), rest placed at the centroid"
            ),
            Self::SubspaceClamped { requested, clamped } => write!(
                f,
                "subspace dimension {requested} clamped to {clamped} (must be below n)"
            ),
            Self::RepivotRetry { attempt, kept, needed } => write!(
                f,
                "re-pivot retry {attempt}: only {kept} of {needed} needed \
                 directions survived; reseeding pivots"
            ),
            Self::TrivialLayout { n } => write!(
                f,
                "graph with {n} vertices is below the spectral minimum; \
                 produced a trivial line layout"
            ),
            Self::BudgetSpent { budget } => write!(
                f,
                "no spectral layout fit {budget}; produced a trivial line layout"
            ),
            Self::LadderStep { rung, cause } => write!(
                f,
                "supervisor ladder step: rung {rung} gave up ({cause}); \
                 retrying with a cheaper configuration"
            ),
            Self::AdmissionDownscaled {
                requested,
                admitted,
                estimated_bytes,
                budget_bytes,
            } => write!(
                f,
                "memory admission downscaled subspace {requested} -> {admitted} \
                 (~{estimated_bytes} bytes estimated, {budget_bytes} byte budget)"
            ),
            Self::NanDistances { count } => write!(
                f,
                "{count} NaN entries in pivot distances were excluded from \
                 farthest-vertex selection (poisoned weighted input?)"
            ),
            Self::BatchedBfsUnavailable => write!(
                f,
                "k-centers pivots are sequentially dependent; batched BFS \
                 unavailable, using direction-optimizing BFS"
            ),
        }
    }
}

/// Deterministic reseeding for re-pivot retries: SplitMix64-style mixing of
/// the base seed with the attempt number, so retry sequences are
/// reproducible run-to-run (fixed seed ⇒ identical layouts).
pub(crate) fn reseed(seed: u64, attempt: usize) -> u64 {
    let mut z = seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic placement used when a graph is too small for the
/// spectral pipeline: vertex `i` at `(i, 0, …)`.
pub(crate) fn trivial_coords(n: usize, p: usize) -> ColMajorMatrix {
    let mut m = ColMajorMatrix::zeros(n, p);
    if p > 0 {
        for (i, x) in m.col_mut(0).iter_mut().enumerate() {
            *x = i as f64;
        }
    }
    m
}

/// Scatters an `old_ids`-indexed sub-layout back over the full vertex set:
/// laid-out vertices keep their coordinates, everything else sits at the
/// sub-layout's centroid.
pub(crate) fn scatter_coords(
    n: usize,
    sub: &ColMajorMatrix,
    old_ids: &[u32],
) -> ColMajorMatrix {
    let p = sub.cols();
    let mut full = ColMajorMatrix::zeros(n, p);
    for c in 0..p {
        let col = sub.col(c);
        let centroid = if col.is_empty() {
            0.0
        } else {
            col.iter().sum::<f64>() / col.len() as f64
        };
        full.col_mut(c).fill(centroid);
        for (sub_row, &old) in old_ids.iter().enumerate() {
            full.set(old as usize, c, col[sub_row]);
        }
    }
    full
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct() {
        let errs = [
            HdeError::Io("x".into()),
            HdeError::Parse { line: 1, column: 1, message: "x".into() },
            HdeError::InvalidConfig("x".into()),
            HdeError::Disconnected { reached: 1, n: 2 },
            HdeError::DegenerateSubspace { kept: 1, needed: 2, subspace: 3, retries: 0 },
            HdeError::NonFiniteValue { phase: "spmm", column: 0, row: 0 },
            HdeError::DeadlineExceeded { phase: "bfs" },
            HdeError::MemoryBudgetExceeded { needed_bytes: 2, budget_bytes: 1 },
            HdeError::CheckpointMismatch("x".into()),
            HdeError::BackendUnavailable { requested: "simd", reason: "x".into() },
            HdeError::Cancelled { phase: "gemm" },
            HdeError::Internal("x".into()),
        ];
        let codes: std::collections::HashSet<i32> =
            errs.iter().map(|e| e.exit_code()).collect();
        assert_eq!(codes.len(), errs.len());
        assert!(!codes.contains(&0) && !codes.contains(&1) && !codes.contains(&2));
    }

    #[test]
    fn trips_convert_to_typed_errors() {
        use parhde_util::TripReason;
        let e = HdeError::from_trip(TripReason::Deadline, "bfs");
        assert_eq!(e, HdeError::DeadlineExceeded { phase: "bfs" });
        assert_eq!(e.exit_code(), 9);
        assert_eq!(e.phase(), Some("bfs"));
        assert!(e.is_budget_trip());
        let e = HdeError::from_trip(TripReason::Cancelled, "dortho");
        assert_eq!(e, HdeError::Cancelled { phase: "dortho" });
        assert_eq!(e.exit_code(), 130);
        assert!(!e.is_budget_trip(), "cancellation must not walk the ladder");
        let e = HdeError::from_trip(TripReason::Memory, "ls");
        assert!(e.is_budget_trip());
        assert_eq!(e.exit_code(), 10);
    }

    #[test]
    fn conversions_preserve_position() {
        let e: HdeError = LinalgError::NonFinite { phase: "spmm", column: 3, row: 9 }.into();
        assert_eq!(e, HdeError::NonFiniteValue { phase: "spmm", column: 3, row: 9 });
        assert_eq!(e.phase(), Some("spmm"));
        let e: HdeError = GraphIoError::Parse {
            line: 12,
            column: 4,
            message: "bad weight".into(),
        }
        .into();
        assert_eq!(
            e,
            HdeError::Parse { line: 12, column: 4, message: "bad weight".into() }
        );
        assert_eq!(e.exit_code(), 4);
    }

    #[test]
    fn reseed_is_deterministic_and_spreads() {
        assert_eq!(reseed(7, 1), reseed(7, 1));
        assert_ne!(reseed(7, 1), reseed(7, 2));
        assert_ne!(reseed(7, 1), reseed(8, 1));
    }

    #[test]
    fn scatter_places_missing_vertices_at_centroid() {
        let mut sub = ColMajorMatrix::zeros(2, 2);
        sub.set(0, 0, 0.0);
        sub.set(1, 0, 4.0);
        sub.set(0, 1, 2.0);
        sub.set(1, 1, 6.0);
        let full = scatter_coords(4, &sub, &[0, 3]);
        assert_eq!(full.get(0, 0), 0.0);
        assert_eq!(full.get(3, 0), 4.0);
        assert_eq!(full.get(1, 0), 2.0); // centroid of column 0
        assert_eq!(full.get(2, 1), 4.0); // centroid of column 1
    }

    #[test]
    fn legacy_message_substrings_preserved() {
        // Seed tests assert on these substrings via the panicking wrappers.
        let d = HdeError::Disconnected { reached: 3, n: 9 }.to_string();
        assert!(d.contains("connected graph"));
        let c = HdeError::InvalidConfig("subspace dimension 9 must be below n = 9".into())
            .to_string();
        assert!(c.contains("must be below"));
        let g = HdeError::DegenerateSubspace { kept: 1, needed: 2, subspace: 4, retries: 2 }
            .to_string();
        assert!(g.contains("subspace directions survived"));
    }
}
