//! The decisions every layout pipeline shares, each written once.
//!
//! ParHDE (Algorithm 3), its weighted SSSP variant (§3.3), checkpoint
//! resume, PHDE (Algorithm 2) and PivotMDS run one skeleton: a fail-soft
//! policy, a BFS-shaped phase, then a fixed tail of dense steps. The
//! pipelines keep only what differs between them and call this module for
//! the rest:
//!
//! * [`prepare`] applies DESIGN.md §8 rules 1–3 — the trivial line layout
//!   for `n ≤ p`, the subspace clamp into `[p, n − 1]` and the
//!   largest-component fallback — and [`Run::retry`] applies rule 4, the
//!   re-pivot loop. [`Run`] also installs the backend and starts every
//!   attempt's [`HdeStats`] from the same header. Each degradation goes
//!   straight into the call's run record, so no step carries warnings.
//! * [`pipeline_from_s`] is the post-BFS tail of the Laplacian pipelines:
//!   DOrtho, [`triple_prod`], [`eigensolve`] and [`project`]. The
//!   prior-work ablation plugs its materialized Laplacian into it through
//!   [`Laplacian`], and the coupled one hands it a DOrtho already done
//!   ([`Coupled`]).

use crate::config::{install_backend, LinalgBackend, LinalgMode, OrthoMethod, ParHdeConfig};
use crate::error::{reseed, scatter_coords, trivial_coords, HdeError, Warning};
use crate::stats::{begin, phase, warn, HdeStats};
use crate::supervise::budget_check;
use parhde_graph::store::GraphStore;
use parhde_graph::{prep, CsrGraph, WeightedCsr};
use parhde_linalg::blas1::{dot, dot_weighted};
use parhde_linalg::dense::ColMajorMatrix;
use parhde_linalg::eig::jacobi::try_symmetric_eigen;
use parhde_linalg::error::check_matrix_finite;
use parhde_linalg::gemm::{a_small, at_b};
use parhde_linalg::ortho::{try_cgs, try_mgs, IncrementalMgs};
use parhde_linalg::LinalgError;

/// How a pipeline responds to defective input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// No degradation: the first defect is returned as an error (and the
    /// legacy wrappers turn it into a panic). Matches seed behavior.
    Strict,
    /// Degrade where a documented fallback exists; error otherwise.
    FailSoft,
}

/// Re-pivot attempts made in fail-soft mode when fewer than `p` subspace
/// directions survive D-orthogonalization.
const MAX_REPIVOT_RETRIES: usize = 3;

/// The strict entry points' error handling: a defect panics with the typed
/// error's message.
pub(crate) fn strict<T>(r: Result<T, HdeError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// What the fail-soft policy decided for one input.
pub(crate) enum Prepared<H> {
    /// Rule 1: the input is too small; this is the finished line layout.
    Trivial(Box<(ColMajorMatrix, HdeStats)>),
    /// Rule 3: lay out `H`, the largest component, with the clamped
    /// configuration, and hand the result to [`Fallback::scatter`].
    Component(H, Fallback),
    /// Run the pipeline.
    Run(Run),
}

/// Applies DESIGN.md §8 rules 1–3 for a `p`-dimensional layout of an
/// `n`-vertex input, clamping `subspace` in place. `topology` is the
/// input's plain adjacency, or `None` where components cannot be extracted
/// (compressed storage: a disconnected graph then surfaces as the BFS
/// phase's `Disconnected` error); `largest` extracts the largest component
/// and its vertices' original ids. Strict mode applies no rule.
///
/// # Errors
/// [`HdeError::InvalidConfig`] if `p` is 0.
pub(crate) fn prepare<H>(
    n: usize,
    p: usize,
    mode: Mode,
    subspace: &mut usize,
    topology: Option<&CsrGraph>,
    largest: impl FnOnce(&CsrGraph) -> (H, Vec<u32>),
) -> Result<Prepared<H>, HdeError> {
    if p < 1 {
        return Err(HdeError::InvalidConfig("embedding dimension must be at least 1".into()));
    }
    let s_requested = *subspace;
    if mode == Mode::FailSoft {
        // A layout needs s ≥ p surviving directions and s ≤ n − 1, i.e.
        // n ≥ p + 1. Anything smaller gets the line layout.
        if n <= p {
            warn(Warning::TrivialLayout { n });
            let stats = HdeStats { s_requested, ..HdeStats::default() };
            return Ok(Prepared::Trivial(Box::new((trivial_coords(n, p), stats))));
        }
        let clamped = s_requested.clamp(p, n - 1);
        if clamped != s_requested {
            warn(Warning::SubspaceClamped { requested: s_requested, clamped });
            *subspace = clamped;
        }
        // Disconnected input: lay out the largest component (paper §4.1)
        // and park the remaining vertices at the layout centroid.
        if let Some(csr) = topology.filter(|csr| !prep::is_connected(csr)) {
            let components = prep::connected_components(csr).count();
            let (part, old_ids) = largest(csr);
            let kept = old_ids.len();
            warn(Warning::DisconnectedFallback { components, kept, n });
            return Ok(Prepared::Component(part, Fallback { n, old_ids }));
        }
    }
    Ok(Prepared::Run(Run { s_requested }))
}

/// `largest` for plain graphs: [`prep::largest_component`].
pub(crate) fn largest_component(csr: &CsrGraph) -> (CsrGraph, Vec<u32>) {
    let ext = prep::largest_component(csr);
    (ext.graph, ext.old_ids)
}

/// Rule 3's bookkeeping, kept while the component is laid out.
pub(crate) struct Fallback {
    n: usize,
    old_ids: Vec<u32>,
}

impl Fallback {
    /// Scatters the component's layout back over all `n` input vertices,
    /// the rest at its centroid.
    pub(crate) fn scatter(
        self,
        (sub, stats): (ColMajorMatrix, HdeStats),
    ) -> (ColMajorMatrix, HdeStats) {
        (scatter_coords(self.n, &sub, &self.old_ids), stats)
    }
}

/// A run the policy let through, with the requested subspace dimension
/// for the stats header.
pub(crate) struct Run {
    s_requested: usize,
}

impl Run {
    /// The run of a strict pipeline with no fail-soft twin (the coupled
    /// and prior-work ablations), to which the policy applies no rule.
    pub(crate) fn strict(s_requested: usize) -> Run {
        Run { s_requested }
    }

    /// Installs `backend`, then runs `attempt` once on a fresh stats header
    /// — for pipelines that never re-pivot.
    ///
    /// # Errors
    /// [`HdeError::BackendUnavailable`], or the attempt's error.
    pub(crate) fn once<T>(
        self,
        backend: LinalgBackend,
        mut attempt: impl FnMut(&mut HdeStats) -> Result<T, HdeError>,
    ) -> Result<(T, HdeStats), HdeError> {
        // The strict loop makes exactly one attempt; the seed is unused.
        self.retry(Mode::Strict, backend, 0, |_, stats| attempt(stats))
    }

    /// Installs `backend`, then runs `attempt(seed, stats)` on a fresh stats
    /// header. Rule 4: in fail-soft mode a degenerate subspace is retried
    /// up to [`MAX_REPIVOT_RETRIES`] times with a reseeded RNG, each retry
    /// recorded as a warning after the abandoned attempt's own phases and
    /// warnings.
    ///
    /// # Errors
    /// [`HdeError::DegenerateSubspace`] once the retries are exhausted, or
    /// any other error of an attempt.
    pub(crate) fn retry<T>(
        self,
        mode: Mode,
        backend: LinalgBackend,
        seed: u64,
        mut attempt: impl FnMut(u64, &mut HdeStats) -> Result<T, HdeError>,
    ) -> Result<(T, HdeStats), HdeError> {
        let backend_executed = install_backend(backend)?;
        let attempts = match mode {
            Mode::Strict => 1,
            Mode::FailSoft => 1 + MAX_REPIVOT_RETRIES,
        };
        for i in 0..attempts {
            let mut stats = HdeStats {
                s_requested: self.s_requested,
                backend: Some(backend.label()),
                backend_executed: Some(backend_executed),
                ..HdeStats::default()
            };
            let seed = if i == 0 { seed } else { reseed(seed, i) };
            match attempt(seed, &mut stats) {
                Ok(out) => return Ok((out, stats)),
                Err(HdeError::DegenerateSubspace { kept, needed, subspace, .. }) => {
                    if i + 1 == attempts {
                        return Err(HdeError::DegenerateSubspace {
                            kept,
                            needed,
                            subspace,
                            retries: i,
                        });
                    }
                    warn(Warning::RepivotRetry { attempt: i + 1, kept, needed });
                }
                Err(e) => return Err(e),
            }
        }
        Err(HdeError::Internal("re-pivot retry loop fell through".into()))
    }
}

/// The Laplacian `L = D − A` the tail multiplies by.
pub(crate) trait Laplacian {
    /// The diagonal `D`: (weighted) vertex degrees.
    fn degrees(&self) -> Vec<f64>;
    /// Staged `P = L·S`.
    fn spmm(&self, d: &[f64], s: &ColMajorMatrix) -> Result<ColMajorMatrix, LinalgError>;
    /// Fused `Z = Sᵀ·L·S`. By default the staged composition `Sᵀ·(L·S)`,
    /// which the fused kernels replay bit for bit without materializing
    /// `L·S`.
    fn triple_product(&self, d: &[f64], s: &ColMajorMatrix) -> Result<ColMajorMatrix, LinalgError> {
        Ok(at_b(s, &self.spmm(d, s)?))
    }
}

impl<G: GraphStore> Laplacian for G {
    fn degrees(&self) -> Vec<f64> {
        self.degree_vector()
    }

    fn triple_product(&self, d: &[f64], s: &ColMajorMatrix) -> Result<ColMajorMatrix, LinalgError> {
        parhde_linalg::fused::try_triple_product(self, d, s)
    }

    fn spmm(&self, d: &[f64], s: &ColMajorMatrix) -> Result<ColMajorMatrix, LinalgError> {
        parhde_linalg::spmm::try_laplacian_spmm(self, d, s)
    }
}

/// A weighted graph's Laplacian under its weights read as similarities.
pub(crate) struct Similarities<'a>(pub(crate) &'a WeightedCsr);

impl Laplacian for Similarities<'_> {
    fn degrees(&self) -> Vec<f64> {
        self.0.weighted_degree_vector()
    }

    fn triple_product(&self, d: &[f64], s: &ColMajorMatrix) -> Result<ColMajorMatrix, LinalgError> {
        parhde_linalg::fused::try_triple_product_weighted(self.0, d, s)
    }

    fn spmm(&self, d: &[f64], s: &ColMajorMatrix) -> Result<ColMajorMatrix, LinalgError> {
        parhde_linalg::spmm::try_laplacian_spmm_weighted(self.0, d, s)
    }
}

/// A DOrtho done during the BFS phase: the coupled schedule (§4.4).
/// `steps`, over the weights `degrees` gives it, orthogonalized the
/// constant column of `S` first, then each distance column the moment its
/// traversal finished.
pub(crate) struct Coupled<'d> {
    pub(crate) degrees: &'d [f64],
    pub(crate) steps: IncrementalMgs<'d>,
}

/// The deterministic post-BFS tail: DOrtho → TripleProd → eigensolve →
/// projection, given `smat` with the distance matrix `B` in columns
/// `1..=s` (column 0 is set here) or, with `coupled`, the whole of `S`
/// orthogonalized already. DOrtho rewrites `S` in place, so the
/// `project_from_raw` ablation copies `B` out first. A live run and a
/// checkpoint resume both end here, so they execute the same
/// floating-point operations in the same order, which is what makes
/// resume bit-identical.
///
/// # Errors
/// [`HdeError::DegenerateSubspace`] when fewer than `p` directions survive
/// DOrtho, a budget trip, or a non-finite value.
pub(crate) fn pipeline_from_s(
    lap: &impl Laplacian,
    cfg: &ParHdeConfig,
    p: usize,
    mut smat: ColMajorMatrix,
    coupled: Option<Coupled<'_>>,
    stats: &mut HdeStats,
) -> Result<ColMajorMatrix, HdeError> {
    let n = smat.rows();
    let s = cfg.subspace;

    // ---- Finish S = [1/√n | B] ------------------------------------------
    let ph = begin(phase::INIT);
    let raw = cfg
        .project_from_raw
        .then(|| ColMajorMatrix::from_data(n, s, smat.data()[n..].to_vec()));
    let owned;
    let (degrees, steps) = match coupled {
        Some(Coupled { degrees, steps }) => (degrees, Some(steps)),
        None => {
            smat.col_mut(0).fill(1.0 / (n as f64).sqrt());
            owned = lap.degrees();
            (owned.as_slice(), None)
        }
    };
    drop(ph);

    // ---- DOrtho phase ---------------------------------------------------
    let ph = begin(phase::DORTHO);
    let weights = cfg.d_orthogonalize.then_some(degrees);
    let cols = smat.cols();
    let kept = match steps {
        Some(steps) => {
            smat.retain_columns(steps.kept());
            steps.kept().to_vec()
        }
        None => {
            let tol = cfg.drop_tolerance;
            let outcome = match cfg.ortho {
                OrthoMethod::Mgs => try_mgs(&mut smat, weights, tol, "dortho")?,
                OrthoMethod::Cgs => try_cgs(&mut smat, weights, tol, "dortho")?,
            };
            outcome.kept
        }
    };
    // Drop the 0th (degenerate constant) column — Algorithm 3 line 16. It
    // always survives orthogonalization (it is processed first and has unit
    // norm), landing at physical index 0 of the compacted matrix — unless a
    // budget trip stopped the kernel before it, which the check below
    // reports.
    debug_assert!(
        kept.first() == Some(&0) || parhde_util::supervisor::ambient_trip().is_some()
    );
    let survivors: Vec<usize> = (1..smat.cols()).collect();
    smat.retain_columns(&survivors);
    stats.dropped_columns = cols - kept.len();
    stats.s_kept = smat.cols();
    drop(ph);
    // Budget check BEFORE the degenerate-subspace check: a tripped ortho
    // kernel abandons its remaining columns, and the trip must win over the
    // spurious degeneracy that abandonment creates.
    budget_check(phase::DORTHO)?;
    if smat.cols() < p {
        return Err(HdeError::DegenerateSubspace {
            kept: smat.cols(),
            needed: p,
            subspace: s,
            retries: 0,
        });
    }

    let z = triple_prod(lap, degrees, &smat, cfg.linalg_mode, stats)?;
    let y = eigensolve(&smat, &z, weights, p, stats)?;
    match &raw {
        Some(b) => {
            // [x, y] = B·Y (the literal Algorithm 3 line 20): map each kept
            // S column back to the raw distance column it originated from.
            // `kept` lists original indices in [0, s]; index 0 is the
            // constant column, original index i ≥ 1 is B's column i − 1.
            let mut b_kept = ColMajorMatrix::zeros(n, kept.len() - 1);
            for (dst, &src) in kept[1..].iter().enumerate() {
                b_kept.col_mut(dst).copy_from_slice(b.col(src - 1));
            }
            project(&b_kept, &y)
        }
        None => project(&smat, &y),
    }
}

/// TripleProd `Z = Sᵀ·L·S`, fused or staged. Both produce bit-identical
/// `Z` (the fused kernel replays the staged operation order); only the
/// schedule and the memory traffic differ.
///
/// # Errors
/// A budget trip or a non-finite value.
pub(crate) fn triple_prod(
    lap: &impl Laplacian,
    degrees: &[f64],
    smat: &ColMajorMatrix,
    mode: LinalgMode,
    stats: &mut HdeStats,
) -> Result<ColMajorMatrix, HdeError> {
    stats.linalg_mode = Some(mode.label());
    match mode {
        LinalgMode::Fused => {
            let _ph = begin(phase::FUSED);
            let z = lap.triple_product(degrees, smat)?;
            // Budget check before use: a tripped fused kernel returns
            // zeroed partials, which are finite but meaningless.
            budget_check(phase::FUSED)?;
            Ok(z)
        }
        LinalgMode::Staged => {
            let ph = begin(phase::LS);
            let prod = lap.spmm(degrees, smat)?;
            drop(ph);
            budget_check(phase::LS)?;
            let _ph = begin(phase::GEMM);
            let z = at_b(smat, &prod);
            // Budget check before the finiteness check: a tripped gemm
            // returns zeroed blocks, which are finite but meaningless.
            budget_check(phase::GEMM)?;
            check_matrix_finite(&z, "gemm")?;
            Ok(z)
        }
    }
}

/// Solves the subspace layout problem for the `p` drawing axes.
///
/// In the subspace spanned by the columns of `S`, the layout objective of
/// Equation 1 becomes the generalized problem `(SᵀLS) y = μ (SᵀDS) y`
/// (or `SᵀS` on the right for plain orthogonalization). `S` is
/// (D-)orthogonal with unit Euclidean columns, so the right-hand matrix is
/// diagonal up to round-off; the diagonal scaling reduces the problem to an
/// ordinary symmetric eigensolve. The `p` **smallest** generalized
/// eigenvalues, ascending, give the drawing axes — the paper's "top two
/// eigenvectors" follows the transition-matrix ordering convention where
/// these same vectors are the *top* of `D⁻¹A` (§2.1: "the eigenvalues of
/// this matrix are in reverse order"). Records them as the axis
/// eigenvalues.
///
/// # Errors
/// A budget trip, or [`HdeError::Internal`] for a non-positive subspace
/// metric (`SᵀDS` diagonal): the pipeline assembled a bad basis, which a
/// connected graph cannot cause.
pub(crate) fn eigensolve(
    smat: &ColMajorMatrix,
    z: &ColMajorMatrix,
    weights: Option<&[f64]>,
    p: usize,
    stats: &mut HdeStats,
) -> Result<ColMajorMatrix, HdeError> {
    let ph = begin(phase::EIGEN);
    let k = smat.cols();
    if p < 1 || p > k {
        return Err(HdeError::InvalidConfig(format!("need 1 ≤ p ≤ {k} axes, got {p}")));
    }
    // Diagonal of SᵀDS (resp. SᵀS).
    let diag: Vec<f64> = (0..k)
        .map(|i| match weights {
            Some(w) => dot_weighted(smat.col(i), w, smat.col(i)),
            None => dot(smat.col(i), smat.col(i)),
        })
        .collect();
    if !diag.iter().all(|&d| d > 0.0) {
        return Err(HdeError::Internal(
            "degenerate subspace metric; graph may have isolated vertices".into(),
        ));
    }
    let inv_sqrt: Vec<f64> = diag.iter().map(|d| 1.0 / d.sqrt()).collect();
    // T = W^{-1/2} Z W^{-1/2}, symmetrized against round-off.
    let mut tmat = ColMajorMatrix::zeros(k, k);
    for i in 0..k {
        for j in 0..k {
            let v = 0.5 * (z.get(i, j) + z.get(j, i)) * inv_sqrt[i] * inv_sqrt[j];
            tmat.set(i, j, v);
        }
    }
    let eig = try_symmetric_eigen(&tmat)?;
    // The p smallest eigenvalues = the last p in descending order; report
    // them ascending (axis 0 = smoothest direction).
    let mut y = ColMajorMatrix::zeros(k, p);
    let mut mus = Vec::with_capacity(p);
    for axis in 0..p {
        let src = k - 1 - axis;
        mus.push(eig.values[src]);
        #[allow(clippy::needless_range_loop)] // r indexes two containers at once
        for r in 0..k {
            y.set(r, axis, eig.vectors.get(r, src) * inv_sqrt[r]);
        }
    }
    stats.axis_eigenvalues = mus;
    drop(ph);
    budget_check(phase::EIGEN)?;
    Ok(y)
}

/// Projection: the coordinates `basis·Y`.
///
/// # Errors
/// A budget trip, or a non-finite coordinate.
pub(crate) fn project(
    basis: &ColMajorMatrix,
    y: &ColMajorMatrix,
) -> Result<ColMajorMatrix, HdeError> {
    let _ph = begin(phase::PROJECT);
    let coords = a_small(basis, y);
    budget_check(phase::PROJECT)?;
    check_matrix_finite(&coords, "project")?;
    Ok(coords)
}
