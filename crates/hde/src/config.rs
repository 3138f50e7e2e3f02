//! Configuration for the ParHDE pipeline and its variants.

use crate::error::HdeError;

/// How pivot (source) vertices are selected for the BFS phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PivotStrategy {
    /// Farthest-first 2-approximation to k-centers (Algorithm 3 line 8):
    /// each next source is the vertex maximizing the minimum distance to all
    /// previous sources. BFSes are serialized (each internally parallel)
    /// because of the dependency between iterations.
    KCenters,
    /// Uniformly random distinct pivots chosen up front; the BFSes are
    /// independent, so "threads concurrently perform multiple BFSes" (§4.4,
    /// Table 6). Wins for small graphs and when `s` exceeds thread count.
    Random,
}

/// How the BFS phase executes its traversals (the planner knob).
///
/// The default `Auto` lets the BFS-phase planner
/// ([`crate::bfs_phase::plan_bfs_phase`]) choose from `n`, `m`, `s` and the
/// thread count; the other variants force one mode. All modes produce
/// bit-identical distance matrices — only the schedule differs. With
/// k-centers pivots the batched kernel is infeasible (pivots are
/// sequentially dependent); forcing `Batched` there falls back to
/// direction-optimizing BFS with a trace warning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BfsMode {
    /// Let the planner pick (default).
    #[default]
    Auto,
    /// Direction-optimizing parallel BFS per source, sources serialized.
    DirectionOpt,
    /// One sequential queue BFS per source, sources scheduled concurrently.
    PerSource,
    /// Bit-parallel batched multi-source BFS (64 sources per lane word).
    Batched,
}

impl std::str::FromStr for BfsMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(BfsMode::Auto),
            "direction-opt" | "diropt" => Ok(BfsMode::DirectionOpt),
            "per-source" => Ok(BfsMode::PerSource),
            "batched" => Ok(BfsMode::Batched),
            other => Err(format!(
                "unknown BFS mode {other:?} (expected auto, direction-opt, \
                 per-source or batched)"
            )),
        }
    }
}

/// Which Gram-Schmidt procedure the DOrtho phase uses (Table 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrthoMethod {
    /// Modified Gram-Schmidt, BLAS-1 only — the paper's default.
    Mgs,
    /// Classical Gram-Schmidt, BLAS-2 — 2.1–2.8× faster than the paper's
    /// textbook MGS (its Table 7), but slower than this workspace's fused,
    /// panelled MGS (EXPERIMENTS.md); requires all distance vectors
    /// precomputed.
    Cgs,
}

impl std::str::FromStr for OrthoMethod {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mgs" => Ok(OrthoMethod::Mgs),
            "cgs" => Ok(OrthoMethod::Cgs),
            other => Err(format!("unknown ortho method {other:?} (expected mgs or cgs)")),
        }
    }
}

/// How the TripleProd linear algebra executes (`Z = Sᵀ·L·S` and the
/// symmetric covariance products).
///
/// Both modes produce **bit-identical** results at any thread count — the
/// fused kernels replay the staged kernels' exact floating-point operation
/// order (see `crates/linalg/src/fused.rs`) — so this is purely a
/// performance/memory knob, and it is deliberately excluded from the
/// checkpoint config fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LinalgMode {
    /// One-pass fused TripleProd + SYRK self-products (default): `L·S`
    /// streams through cache-resident row panels instead of being
    /// materialized at `n×s`.
    #[default]
    Fused,
    /// The staged PR≤4 schedule: `laplacian_spmm` materializes `P = L·S`,
    /// then `at_b` reduces it. Kept as the ablation baseline and for
    /// memory-traffic comparisons.
    Staged,
}

impl LinalgMode {
    /// Stable lowercase label for reports and trace counters.
    pub fn label(self) -> &'static str {
        match self {
            LinalgMode::Fused => "fused",
            LinalgMode::Staged => "staged",
        }
    }
}

impl std::str::FromStr for LinalgMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fused" => Ok(LinalgMode::Fused),
            "staged" => Ok(LinalgMode::Staged),
            other => Err(format!(
                "unknown linalg mode {other:?} (expected fused or staged)"
            )),
        }
    }
}

/// Which compute backend serves the linalg hot kernels (`auto` resolves by
/// CPU-feature detection at install time). Re-exported from
/// [`parhde_linalg::backend`]: the knob is process-wide — the pipelines
/// install it once per run, before the first kernel call. Like
/// [`LinalgMode`] it is a performance knob excluded from the checkpoint
/// config fingerprint: the exact-class kernels are bit-identical across
/// backends and the dot-family tolerance (≤1e-13·‖x‖‖y‖) never changes a
/// kept/dropped/reorth decision (tested), so resuming a checkpoint under a
/// different backend is legitimate.
pub use parhde_linalg::backend::Choice as LinalgBackend;

/// Installs the configured compute backend process-wide (every pipeline
/// entry point calls this before its first kernel call) and returns the
/// *executed* backend's label for [`crate::HdeStats::backend_executed`].
///
/// # Errors
/// [`HdeError::BackendUnavailable`] when `simd` is forced on a CPU without
/// the required features — a typed error, never a panic.
pub(crate) fn install_backend(choice: LinalgBackend) -> Result<&'static str, HdeError> {
    parhde_linalg::backend::install(choice).map_err(HdeError::from)
}

/// Configuration of a ParHDE run.
#[derive(Clone, Debug)]
pub struct ParHdeConfig {
    /// Subspace dimension `s` — the number of BFS pivots. The paper uses
    /// `s = 10` for timing tables and notes `s = 50` is a common layout
    /// choice.
    pub subspace: usize,
    /// Pivot selection strategy.
    pub pivots: PivotStrategy,
    /// BFS execution mode for the BFS phase (default: planner-chosen).
    pub bfs_mode: BfsMode,
    /// Gram-Schmidt variant for DOrtho.
    pub ortho: OrthoMethod,
    /// TripleProd execution mode (fused one-pass vs staged SpMM + GEMM);
    /// bit-identical results either way.
    pub linalg_mode: LinalgMode,
    /// Compute backend for the linalg hot kernels (scalar reference vs
    /// explicit SIMD; `auto` picks by CPU detection). Forcing `simd` on a
    /// CPU without AVX2+FMA is rejected with a typed error at validation.
    pub backend: LinalgBackend,
    /// `true` (default) for D-orthogonalization — approximating the
    /// generalized eigenproblem `Lx = μDx` (degree-normalized vectors).
    /// `false` for plain orthogonalization — approximating the Laplacian
    /// eigenvectors instead (§4.5.1; "for graphs with uniform degree
    /// distributions the results are more or less identical").
    pub d_orthogonalize: bool,
    /// PRNG seed for the start vertex / random pivots.
    pub seed: u64,
    /// Degenerate-vector drop threshold (Algorithm 3 line 12; paper: 1e-3).
    pub drop_tolerance: f64,
    /// `false` (default): project the layout from the orthonormal basis,
    /// `[x, y] = S·Y` — the formulation of Koren's subspace optimization.
    /// `true`: project from the raw distance matrix, `[x, y] = B·Y`, the
    /// literal final line of the paper's Algorithm 1/3 listings. The two
    /// differ by the (triangular) Gram-Schmidt change of basis; `S·Y` is
    /// used by default because it is the mathematically consistent
    /// projection for the subspace eigenproblem (see DESIGN.md).
    pub project_from_raw: bool,
}

impl Default for ParHdeConfig {
    fn default() -> Self {
        Self {
            subspace: 10,
            pivots: PivotStrategy::KCenters,
            bfs_mode: BfsMode::Auto,
            ortho: OrthoMethod::Mgs,
            linalg_mode: LinalgMode::Fused,
            backend: LinalgBackend::Auto,
            d_orthogonalize: true,
            seed: 0x9a_7de,
            drop_tolerance: 1e-3,
            project_from_raw: false,
        }
    }
}

impl ParHdeConfig {
    /// A config with the given subspace dimension, other fields default.
    pub fn with_subspace(s: usize) -> Self {
        Self { subspace: s, ..Self::default() }
    }

    /// A default config pre-clamped for a graph of `n` vertices: the
    /// subspace dimension is `min(10, n − 1)` (at least 1), so the result
    /// always passes [`ParHdeConfig::validate`] for any `n ≥ 2`.
    pub fn for_graph(n: usize) -> Self {
        let s = Self::default().subspace.min(n.saturating_sub(1)).max(1);
        Self::with_subspace(s)
    }

    /// Validates parameter sanity against a graph of `n` vertices.
    ///
    /// # Errors
    /// [`HdeError::InvalidConfig`] if `subspace` is 0 or ≥ `n`, or the
    /// drop tolerance is not a non-negative number.
    pub fn validate(&self, n: usize) -> Result<(), HdeError> {
        if self.subspace == 0 {
            return Err(HdeError::InvalidConfig(
                "subspace dimension must be positive".into(),
            ));
        }
        if self.subspace >= n {
            return Err(HdeError::InvalidConfig(format!(
                "subspace dimension {} must be below n = {n}",
                self.subspace
            )));
        }
        if self.drop_tolerance.is_nan() || self.drop_tolerance < 0.0 {
            return Err(HdeError::InvalidConfig(
                "drop tolerance must be ≥ 0".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = ParHdeConfig::default();
        assert_eq!(c.subspace, 10);
        assert_eq!(c.pivots, PivotStrategy::KCenters);
        assert_eq!(c.bfs_mode, BfsMode::Auto);
        assert_eq!(c.ortho, OrthoMethod::Mgs);
        assert_eq!(c.linalg_mode, LinalgMode::Fused);
        assert!(c.d_orthogonalize);
        assert_eq!(c.drop_tolerance, 1e-3);
    }

    #[test]
    fn with_subspace_overrides() {
        assert_eq!(ParHdeConfig::with_subspace(50).subspace, 50);
    }

    #[test]
    fn bfs_mode_parses_from_str() {
        assert_eq!("auto".parse(), Ok(BfsMode::Auto));
        assert_eq!("direction-opt".parse(), Ok(BfsMode::DirectionOpt));
        assert_eq!("diropt".parse(), Ok(BfsMode::DirectionOpt));
        assert_eq!("per-source".parse(), Ok(BfsMode::PerSource));
        assert_eq!("batched".parse(), Ok(BfsMode::Batched));
        assert!("bogus".parse::<BfsMode>().is_err());
    }

    #[test]
    fn ortho_method_parses_from_str() {
        assert_eq!("mgs".parse(), Ok(OrthoMethod::Mgs));
        assert_eq!("cgs".parse(), Ok(OrthoMethod::Cgs));
        assert!("bcgs2".parse::<OrthoMethod>().is_err());
        assert!("gram".parse::<OrthoMethod>().is_err());
    }

    #[test]
    fn linalg_mode_parses_from_str() {
        assert_eq!("fused".parse(), Ok(LinalgMode::Fused));
        assert_eq!("staged".parse(), Ok(LinalgMode::Staged));
        assert_eq!(LinalgMode::default(), LinalgMode::Fused);
        assert_eq!(LinalgMode::Fused.label(), "fused");
        assert_eq!(LinalgMode::Staged.label(), "staged");
        assert!("blocked".parse::<LinalgMode>().is_err());
    }

    #[test]
    fn backend_parses_from_str() {
        assert_eq!("auto".parse(), Ok(LinalgBackend::Auto));
        assert_eq!("scalar".parse(), Ok(LinalgBackend::Scalar));
        assert_eq!("simd".parse(), Ok(LinalgBackend::Simd));
        assert_eq!(LinalgBackend::default(), LinalgBackend::Auto);
        assert_eq!(ParHdeConfig::default().backend, LinalgBackend::Auto);
        assert!("gpu".parse::<LinalgBackend>().is_err());
    }

    #[test]
    fn validate_accepts_sane() {
        assert_eq!(ParHdeConfig::default().validate(100), Ok(()));
    }

    #[test]
    fn validate_rejects_oversized_subspace() {
        let err = ParHdeConfig::with_subspace(10).validate(10).unwrap_err();
        assert!(matches!(err, HdeError::InvalidConfig(m) if m.contains("must be below")));
    }

    #[test]
    fn validate_rejects_zero_subspace() {
        let err = ParHdeConfig::with_subspace(0).validate(10).unwrap_err();
        assert!(matches!(err, HdeError::InvalidConfig(m) if m.contains("must be positive")));
    }

    #[test]
    fn validate_rejects_nan_tolerance() {
        let cfg = ParHdeConfig { drop_tolerance: f64::NAN, ..ParHdeConfig::default() };
        assert!(cfg.validate(100).is_err());
    }

    #[test]
    fn for_graph_clamps_subspace() {
        assert_eq!(ParHdeConfig::for_graph(100).subspace, 10);
        assert_eq!(ParHdeConfig::for_graph(5).subspace, 4);
        assert_eq!(ParHdeConfig::for_graph(1).subspace, 1);
        assert_eq!(ParHdeConfig::for_graph(0).subspace, 1);
        assert_eq!(ParHdeConfig::for_graph(6).validate(6), Ok(()));
    }
}
