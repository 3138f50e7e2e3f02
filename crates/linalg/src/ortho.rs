//! Gram-Schmidt orthogonalization — the DOrtho phase.
//!
//! Algorithm 3 lines 9–15: each column `s_i` is made D-orthogonal to all
//! earlier kept columns, dropped if its norm falls below `10⁻³` (linearly
//! dependent — the degenerate-vector rule), and otherwise normalized to
//! unit Euclidean length.
//!
//! Two procedures, compared in Table 7:
//!
//! * **MGS** (Modified Gram-Schmidt, the default): for each earlier column
//!   `j`, compute one coefficient and immediately update `s_i` — BLAS-1
//!   only. Numerically the more stable classic choice, and the variant that
//!   can run *coupled* with BFS (each new distance vector orthogonalized on
//!   arrival). [`IncrementalMgs`] makes each projection a single pass over
//!   `s_i` — the axpy fused with the next coefficient's dot, denominators
//!   cached when a column is kept — and [`mgs`] applies each earlier
//!   column's projection to a whole panel of 8 columns per pass over it.
//!   Both stay bit-identical to the textbook dot, dot, axpy loop, because
//!   every chunk makes the same kernel calls in the same order and the
//!   partials share one ordered reduction.
//! * **CGS** (Classical Gram-Schmidt): compute **all** coefficients against
//!   the earlier columns with one matrix-vector product, then apply them
//!   with a second — BLAS-2. Fewer, bigger kernels made it ~2–3× faster in
//!   the paper, but it requires all distance vectors precomputed.
//!
//! Plain orthogonalization is the `d = None` case; passing the degree
//! vector gives D-orthogonalization (the paper's §4.5.1 "trivial change").

use crate::backend::{self, Family, Kernels};
use crate::blas1::{dot, dot_weighted, norm2, reduce_chunks_mut, scale, ChunkedPanel};
use crate::dense::ColMajorMatrix;
use crate::error::{check_matrix_finite, LinalgError};
use std::ops::Range;

/// The paper's degeneracy threshold: drop `s_i` when `‖s_i‖ ≤ 10⁻³`
/// (Algorithm 3 line 12).
pub const DROP_TOLERANCE: f64 = 1e-3;

/// Outcome of an orthogonalization pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrthoOutcome {
    /// Indices (in the original matrix) of the columns that survived.
    pub kept: Vec<usize>,
    /// Indices of dropped (degenerate) columns.
    pub dropped: Vec<usize>,
}

/// In-place Modified Gram-Schmidt over the columns of `s`.
///
/// With `d = Some(w)`, inner products are D-weighted (`xᵀ D y`); with
/// `None` they are Euclidean. Degenerate columns (post-projection norm ≤
/// `tol`) are removed from the matrix; survivors are normalized to unit
/// 2-norm. Returns which original columns survived.
///
/// The projection coefficient follows Algorithm 3 line 11 exactly:
/// `s_i ← s_i − (s_jᵀ D s_i / s_jᵀ D s_j) s_j` — the denominator is kept
/// explicit rather than assumed 1, so the procedure is correct even before
/// normalization.
///
/// Columns go in panels of [`PANEL`]. Every column kept before a panel
/// but the last is streamed **once** for the whole panel: chunk by chunk,
/// its projection is applied to each panel column and the next kept
/// column's numerator taken from the updated chunk while it is in cache.
/// [`IncrementalMgs`] then finishes the panel one column at a time: the
/// last prefix projection (whose fused reduction needs the panel's own
/// first kept column), the projections onto the panel's earlier kept
/// columns, and the drop/normalize rules. Per projection a panel column
/// streams about 2 + 3/8 vectors — itself, read and written, plus its
/// share of the kept column, the next one and `d` — where one column at a
/// time streams 5 and the textbook dot, dot, axpy loop 8. Every column
/// gets the same projections in the same order, with the same kernel calls
/// on the same chunks and the same ordered reductions, so the result is
/// bit-identical to both.
///
/// # Panics
/// Panics if `d` has the wrong length or `tol` is negative.
pub fn mgs(s: &mut ColMajorMatrix, d: Option<&[f64]>, tol: f64) -> OrthoOutcome {
    let _span = parhde_trace::span!("dortho.mgs");
    let mut steps = IncrementalMgs::new(d, tol);
    if let Some(w) = d {
        assert_eq!(w.len(), s.rows(), "weight vector length mismatch");
    }
    let cols = s.cols();
    let mut dropped = Vec::new();
    let (mut from, mut numerators) = (0, None);
    for i in 0..cols {
        // Cooperative cancellation point (once per column, the first of a
        // panel before its prefix step): a tripped run budget leaves the
        // remaining columns unorthogonalized and reports them dropped; the
        // caller discards the outcome at its next phase boundary.
        if parhde_util::supervisor::should_stop() {
            dropped.extend(i..cols);
            break;
        }
        if i % PANEL == 0 {
            numerators = mgs_prefix(s, &steps, i..(i + PANEL).min(cols));
            from = steps.kept.len() - usize::from(numerators.is_some());
        }
        let numerator = numerators.as_ref().map(|acc| acc[i % PANEL]);
        if !steps.step_from(s, i, from, numerator) {
            dropped.push(i);
        }
    }
    // Kept columns stayed at their physical index during the pass; the
    // matrix is compacted once, here.
    let kept = steps.kept;
    s.retain_columns(&kept);
    parhde_trace::counter!("dortho.kept_columns", kept.len() as u64);
    parhde_trace::counter!("dortho.dropped_columns", dropped.len() as u64);
    OrthoOutcome { kept, dropped }
}

/// Panel width of [`mgs`]: each column kept before a panel is read once
/// per panel instead of once per panel column, while the panel's chunks
/// (8 columns of `PAR_CHUNK` rows, 1 MB) stay in cache beside the kept
/// columns'.
const PANEL: usize = 8;

/// MGS's prefix step: the first numerators, then every projection onto
/// the columns kept before the panel but the last, each kept column
/// streamed once for all panel columns. The last projection's pass ends in
/// the numerator of the panel's first kept column, which only the
/// in-panel pass knows, so it is left to [`IncrementalMgs`]. Returns that
/// last projection's numerator for each panel column, or `None` when no
/// column was kept before the panel.
fn mgs_prefix(
    s: &mut ColMajorMatrix,
    steps: &IncrementalMgs,
    panel: Range<usize>,
) -> Option<Vec<f64>> {
    let last = steps.kept.len().checked_sub(1)?;
    let (rows, d) = (s.rows(), steps.d);
    let (prefix, cols) = s.prefix_and_panel_mut(panel.start, panel.end);
    let col = |t: usize| {
        let j = steps.kept[t];
        &prefix[j * rows..(j + 1) * rows]
    };
    parhde_trace::counter!("dortho.projections", (last * panel.len()) as u64);
    let mut cols = ChunkedPanel::new(cols, rows, panel.len());
    let mut acc = project_panel(&mut cols, None, col(0), d);
    for t in 0..last {
        let den = steps.dens[t];
        let alphas: Vec<f64> = acc.iter().map(|&a| -a / den).collect();
        let axpy = (den > 0.0).then_some((alphas.as_slice(), col(t)));
        acc = project_panel(&mut cols, axpy, col(t + 1), d);
    }
    Some(acc)
}

/// Incremental Modified Gram-Schmidt: orthogonalizes the columns of one
/// matrix one at a time, in ascending order, against the columns it kept
/// before. It holds the kept columns (by physical index) and each kept
/// column's D-norm² `s_jᵀ D s_j`, computed once when the column is kept —
/// a kept column never changes again, so recomputing it per projection
/// (as the textbook loop does) only re-reads two vectors.
///
/// This is the in-panel pass of [`mgs`], and the step of the *coupled*
/// BFS + D-orthogonalization mode (§4.4: the default MGS procedure "can
/// also be executed with a coupled BFS and D-orthogonalization steps"),
/// where each distance vector is orthogonalized the moment its BFS
/// finishes.
///
/// A step on `s_i` against kept `s_{j1} … s_{jk}` makes `k + 2` passes:
/// one for the first numerator `s_{j1}ᵀ D s_i`; one per projection, which
/// applies the axpy chunk by chunk and takes the next numerator (or, after
/// the last, `‖s_i‖²`) from the updated chunk while it is in cache; and,
/// if `s_i` is kept, one that scales it to unit length and takes its own
/// D-norm². Every chunk makes the kernel calls the three-pass loop makes,
/// with the same arguments, and the partials go through the same ordered
/// reduction, so the two are bit-identical.
#[derive(Debug)]
pub struct IncrementalMgs<'d> {
    d: Option<&'d [f64]>,
    tol: f64,
    kept: Vec<usize>,
    /// `s_jᵀ D s_j` (or `s_jᵀ s_j`) of each kept column, in `kept` order.
    dens: Vec<f64>,
}

impl<'d> IncrementalMgs<'d> {
    /// An empty pass with weights `d` (`None` for plain Euclidean
    /// orthogonalization) and drop tolerance `tol`.
    ///
    /// # Panics
    /// Panics if `tol` is negative.
    pub fn new(d: Option<&'d [f64]>, tol: f64) -> Self {
        assert!(tol >= 0.0, "tolerance must be non-negative");
        Self { d, tol, kept: Vec::new(), dens: Vec::new() }
    }

    /// Physical indices of the columns kept so far, ascending.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Orthogonalizes column `i` of `s` against the kept columns, then
    /// normalizes and keeps it, or rejects it when its norm is ≤ the
    /// tolerance. Returns whether it was kept.
    ///
    /// # Panics
    /// Panics if `i` is out of range or not above every kept index, or if
    /// `d` has the wrong length.
    pub fn step(&mut self, s: &mut ColMajorMatrix, i: usize) -> bool {
        self.step_from(s, i, 0, None)
    }

    /// [`step`](Self::step) on a column whose projections onto the first
    /// `from` kept columns are applied already. `numerator`, when given, is
    /// what the pass that applied the last of them took from the column:
    /// the next projection's numerator, or `‖s_i‖²` if none is left.
    fn step_from(
        &mut self,
        s: &mut ColMajorMatrix,
        i: usize,
        from: usize,
        numerator: Option<f64>,
    ) -> bool {
        let rows = s.rows();
        if let Some(w) = self.d {
            assert_eq!(w.len(), rows, "weight vector length mismatch");
        }
        assert!(
            self.kept.last().is_none_or(|&j| j < i),
            "columns must be stepped in ascending order"
        );
        parhde_trace::counter!("dortho.projections", (self.kept.len() - from) as u64);
        let d = self.d;
        let (prefix, ci) = s.prefix_and_col_mut(i);
        let col = |j: usize| &prefix[j * rows..(j + 1) * rows];
        let next = |t: usize| self.kept.get(t).map(|&j| col(j));
        // `acc` is the next projection's numerator ⟨s_j, s_i⟩_D, and after
        // the last projection ‖s_i‖².
        let mut acc = match numerator {
            Some(acc) => acc,
            None => project(None, next(from), d, ci),
        };
        for (t, (&j, &den)) in self.kept.iter().zip(&self.dens).enumerate().skip(from) {
            let axpy = (den > 0.0).then(|| (-acc / den, col(j)));
            acc = project(axpy, next(t + 1), d, ci);
        }
        let norm = acc.sqrt();
        if norm <= self.tol {
            return false;
        }
        self.dens.push(normalize(1.0 / norm, d, ci));
        self.kept.push(i);
        true
    }
}

/// One projection pass over `ci`: `ci ← ci + α·cj` when `axpy` is
/// `Some((α, cj))` (`None` when the denominator was not positive, or for
/// a column's first pass), then the reduction of the updated vector
/// against `next` — `nextᵀ D ci`, or `ciᵀ ci` when `next` is `None`.
fn project(
    axpy: Option<(f64, &[f64])>,
    next: Option<&[f64]>,
    d: Option<&[f64]>,
    ci: &mut [f64],
) -> f64 {
    let be = backend::active();
    count_projection(axpy.is_some(), ci.len());
    reduce_chunks_mut(ci, |r, c| project_chunk(be, axpy, next, d, r, c))
}

/// [`project`] on every column of a panel at once, streaming `cj`, `next`
/// and `d` once for all of them: column `u` gets `α = alphas[u]` (no
/// column gets an axpy when `axpy` is `None`). Each column's result is
/// bitwise what [`project`] gives on it alone.
fn project_panel(
    cols: &mut ChunkedPanel<'_>,
    axpy: Option<(&[f64], &[f64])>,
    next: &[f64],
    d: Option<&[f64]>,
) -> Vec<f64> {
    let be = backend::active();
    count_projection(axpy.is_some(), next.len() * cols.width());
    cols.reduce(|r, u, c| {
        let axpy = axpy.map(|(alphas, cj)| (alphas[u], cj));
        project_chunk(be, axpy, Some(next), d, r, c)
    })
}

/// Counts a projection pass over `n` entries as the separate axpy and dot
/// calls would count.
fn count_projection(axpy: bool, n: usize) {
    if axpy {
        backend::count(Family::Blas1, n as u64);
    }
    backend::count(Family::Blas1, n as u64);
}

/// The chunk body of a projection pass: `c` is rows `r` of the updated
/// vector.
#[inline]
fn project_chunk(
    be: &dyn Kernels,
    axpy: Option<(f64, &[f64])>,
    next: Option<&[f64]>,
    d: Option<&[f64]>,
    r: Range<usize>,
    c: &mut [f64],
) -> f64 {
    if let Some((alpha, cj)) = axpy {
        be.axpy_chunk(alpha, &cj[r.clone()], c);
    }
    match (next, d) {
        (Some(x), Some(w)) => be.dot_weighted_chunk(&x[r.clone()], &w[r], c),
        (Some(x), None) => be.dot_chunk(&x[r], c),
        (None, _) => be.dot_chunk(c, c),
    }
}

/// The last pass of a kept column: `ci ← ci·inv_norm`, then its own
/// `ciᵀ D ci` (or `ciᵀ ci`) — the denominator of every later projection
/// onto it.
fn normalize(inv_norm: f64, d: Option<&[f64]>, ci: &mut [f64]) -> f64 {
    let be = backend::active();
    // Counted as the separate scale and dot calls would count.
    backend::count(Family::Blas1, 2 * ci.len() as u64);
    reduce_chunks_mut(ci, |r, c| {
        be.scale_chunk(inv_norm, c);
        match d {
            Some(w) => be.dot_weighted_chunk(c, &w[r], c),
            None => be.dot_chunk(c, c),
        }
    })
}

/// In-place Classical Gram-Schmidt (BLAS-2 formulation, Table 7's "CGS").
///
/// For each column `i`, all coefficients against the kept prefix are
/// computed in **one fused matrix-vector pass** (`c = S_keptᵀ D s_i`) and
/// applied in a second (`s_i ← s_i − S_kept · ĉ`). Compared with the
/// textbook MGS loop this replaces `2k` small parallel kernels (and their
/// barriers) per column with 2 large ones, and reads `s_i` twice instead
/// of `2k` times — the fewer-bigger-kernels effect behind the paper's 2–3×
/// Table 7 speedups. [`mgs`] fuses and panels its passes instead, and is
/// the faster of the two here. Denominators `s_jᵀ D s_j` of kept columns
/// are computed once and cached.
/// Same drop/normalize rules as [`mgs`].
///
/// # Panics
/// Panics if `d` has the wrong length or `tol` is negative.
pub fn cgs(s: &mut ColMajorMatrix, d: Option<&[f64]>, tol: f64) -> OrthoOutcome {
    use parhde_util::par::prelude::*;
    const CHUNK: usize = 1 << 13;

    assert!(tol >= 0.0, "tolerance must be non-negative");
    if let Some(w) = d {
        assert_eq!(w.len(), s.rows(), "weight vector length mismatch");
    }
    let _span = parhde_trace::span!("dortho.cgs");
    let cols = s.cols();
    let rows = s.rows();
    let mut kept: Vec<usize> = Vec::with_capacity(cols);
    let mut dens: Vec<f64> = Vec::with_capacity(cols);
    let mut dropped = Vec::new();
    let mut ciw = vec![0.0; rows];
    for i in 0..cols {
        // Cooperative cancellation point (once per column), as in `mgs`.
        if parhde_util::supervisor::should_stop() {
            dropped.extend(i..cols);
            break;
        }
        parhde_trace::counter!("dortho.projections", kept.len() as u64);
        if !kept.is_empty() {
            // D·s_i (or a plain copy), computed before the prefix borrow.
            match d {
                Some(w) => {
                    for ((out, &x), &wi) in ciw.iter_mut().zip(s.col(i)).zip(w) {
                        *out = x * wi;
                    }
                }
                None => ciw.copy_from_slice(s.col(i)),
            }
            let (prefix, ci) = s.prefix_and_col_mut(i);
            let k = kept.len();

            // Pass 1 (fused GEMV): num_j = s_jᵀ (D s_i) for all kept j.
            // Deterministic: fixed row chunks, partials summed in order.
            let partials: Vec<Vec<f64>> = (0..rows)
                .step_by(CHUNK)
                .collect::<Vec<_>>()
                .par_iter()
                .map(|&lo| {
                    let hi = (lo + CHUNK).min(rows);
                    let mut local = vec![0.0; k];
                    for (slot, &j) in local.iter_mut().zip(&kept) {
                        let cj = &prefix[j * rows..j * rows + rows];
                        let mut acc = 0.0;
                        for r in lo..hi {
                            acc += cj[r] * ciw[r];
                        }
                        *slot = acc;
                    }
                    local
                })
                .collect();
            let mut coeffs = vec![0.0; k];
            for part in partials {
                for (c, p) in coeffs.iter_mut().zip(part) {
                    *c += p;
                }
            }
            for (c, &den) in coeffs.iter_mut().zip(&dens) {
                *c = if den > 0.0 { *c / den } else { 0.0 };
            }

            // Pass 2 (fused GEMV): s_i ← s_i − S_kept·c.
            ci.par_chunks_mut(CHUNK)
                .enumerate()
                .for_each(|(chunk_idx, ci_chunk)| {
                    let lo = chunk_idx * CHUNK;
                    for (&j, &c) in kept.iter().zip(&coeffs) {
                        if c == 0.0 {
                            continue;
                        }
                        let cj = &prefix[j * rows + lo..j * rows + lo + ci_chunk.len()];
                        for (x, &v) in ci_chunk.iter_mut().zip(cj) {
                            *x -= c * v;
                        }
                    }
                });
        }
        let norm = norm2(s.col(i));
        if norm <= tol {
            dropped.push(i);
        } else {
            scale(1.0 / norm, s.col_mut(i));
            let den = match d {
                Some(w) => dot_weighted(s.col(i), w, s.col(i)),
                None => 1.0, // unit 2-norm ⇒ sᵀs = 1
            };
            dens.push(den);
            kept.push(i);
        }
    }
    s.retain_columns(&kept);
    parhde_trace::counter!("dortho.kept_columns", kept.len() as u64);
    parhde_trace::counter!("dortho.dropped_columns", dropped.len() as u64);
    OrthoOutcome { kept, dropped }
}

/// Argument validation shared by the guarded orthogonalization wrappers.
fn ortho_args_ok(
    s: &ColMajorMatrix,
    d: Option<&[f64]>,
    tol: f64,
) -> Result<(), LinalgError> {
    if tol.is_nan() || tol < 0.0 {
        return Err(LinalgError::InvalidArgument(format!(
            "tolerance must be non-negative, got {tol}"
        )));
    }
    if let Some(w) = d {
        if w.len() != s.rows() {
            return Err(LinalgError::InvalidArgument(format!(
                "weight vector length {} != row count {}",
                w.len(),
                s.rows()
            )));
        }
        if let Some(row) = w.iter().position(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite { phase: "dortho weights", column: 0, row });
        }
    }
    Ok(())
}

/// Guarded [`mgs`]: validates arguments, rejects non-finite input **before**
/// the pass can smear a NaN across later columns, and checks the output.
/// The error names the `phase` label the caller is running under and the
/// first bad column.
///
/// # Errors
/// [`LinalgError::NonFinite`] on bad data, [`LinalgError::InvalidArgument`]
/// on dimension/tolerance misuse. Never panics.
pub fn try_mgs(
    s: &mut ColMajorMatrix,
    d: Option<&[f64]>,
    tol: f64,
    phase: &'static str,
) -> Result<OrthoOutcome, LinalgError> {
    ortho_args_ok(s, d, tol)?;
    check_matrix_finite(s, phase)?;
    let out = mgs(s, d, tol);
    check_matrix_finite(s, phase)?;
    Ok(out)
}

/// Guarded [`cgs`]; same contract as [`try_mgs`].
///
/// # Errors
/// [`LinalgError::NonFinite`] on bad data, [`LinalgError::InvalidArgument`]
/// on dimension/tolerance misuse. Never panics.
pub fn try_cgs(
    s: &mut ColMajorMatrix,
    d: Option<&[f64]>,
    tol: f64,
    phase: &'static str,
) -> Result<OrthoOutcome, LinalgError> {
    ortho_args_ok(s, d, tol)?;
    check_matrix_finite(s, phase)?;
    let out = cgs(s, d, tol);
    check_matrix_finite(s, phase)?;
    Ok(out)
}

/// Maximum absolute pairwise (optionally D-weighted) inner product between
/// distinct columns — the orthogonality residual used by tests and the
/// quality harness.
pub fn max_cross_product(s: &ColMajorMatrix, d: Option<&[f64]>) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 0..s.cols() {
        for j in 0..i {
            let v = match d {
                Some(w) => dot_weighted(s.col(i), w, s.col(j)),
                None => dot(s.col(i), s.col(j)),
            };
            worst = worst.max(v.abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas1::axpy;
    use parhde_util::Xoshiro256StarStar;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> ColMajorMatrix {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.next_f64() - 0.5).collect();
        ColMajorMatrix::from_data(rows, cols, data)
    }

    #[test]
    fn mgs_produces_orthonormal_columns() {
        let mut m = random_matrix(500, 8, 1);
        let out = mgs(&mut m, None, DROP_TOLERANCE);
        assert_eq!(out.kept.len(), 8);
        assert!(out.dropped.is_empty());
        assert!(max_cross_product(&m, None) < 1e-10);
        for c in 0..m.cols() {
            assert!((norm2(m.col(c)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cgs_produces_orthonormal_columns() {
        let mut m = random_matrix(500, 8, 2);
        let out = cgs(&mut m, None, DROP_TOLERANCE);
        assert_eq!(out.kept.len(), 8);
        assert!(max_cross_product(&m, None) < 1e-8);
    }

    #[test]
    fn mgs_drops_duplicate_column() {
        let base: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut m = ColMajorMatrix::from_columns(&[
            base.clone(),
            base.iter().map(|x| 2.0 * x).collect(), // linearly dependent
            (0..100).map(|i| (i * i) as f64).collect(),
        ]);
        let out = mgs(&mut m, None, DROP_TOLERANCE);
        assert_eq!(out.kept, vec![0, 2]);
        assert_eq!(out.dropped, vec![1]);
        assert_eq!(m.cols(), 2);
        assert!(max_cross_product(&m, None) < 1e-8);
    }

    #[test]
    fn cgs_drops_duplicate_column() {
        let base: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let mut m = ColMajorMatrix::from_columns(&[
            base.clone(),
            base.clone(),
        ]);
        let out = cgs(&mut m, None, DROP_TOLERANCE);
        assert_eq!(out.kept, vec![0]);
        assert_eq!(out.dropped, vec![1]);
    }

    #[test]
    fn d_orthogonalization_respects_weights() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let d: Vec<f64> = (0..200).map(|_| 1.0 + rng.next_f64() * 9.0).collect();
        let mut m = random_matrix(200, 6, 3);
        mgs(&mut m, Some(&d), DROP_TOLERANCE);
        // Columns must be D-orthogonal, not merely orthogonal.
        assert!(max_cross_product(&m, Some(&d)) < 1e-9);
        // Euclidean-normalized per Algorithm 3 line 15.
        for c in 0..m.cols() {
            assert!((norm2(m.col(c)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mgs_and_cgs_agree_on_well_conditioned_input() {
        let m0 = random_matrix(300, 6, 4);
        let d: Vec<f64> = (0..300).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut a = m0.clone();
        let mut b = m0.clone();
        let oa = mgs(&mut a, Some(&d), DROP_TOLERANCE);
        let ob = cgs(&mut b, Some(&d), DROP_TOLERANCE);
        assert_eq!(oa.kept, ob.kept);
        for i in 0..a.data().len() {
            assert!(
                (a.data()[i] - b.data()[i]).abs() < 1e-6,
                "MGS/CGS divergence at {i}"
            );
        }
    }

    #[test]
    fn first_column_is_only_normalized() {
        let mut m = ColMajorMatrix::from_columns(&[vec![3.0, 4.0]]);
        mgs(&mut m, None, DROP_TOLERANCE);
        assert!((m.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((m.get(1, 0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn try_variants_reject_nan_with_position() {
        let mut m = random_matrix(50, 4, 11);
        m.set(7, 2, f64::NAN);
        let backup = m.clone();
        let err = try_mgs(&mut m, None, DROP_TOLERANCE, "dortho").unwrap_err();
        assert_eq!(
            err,
            crate::error::LinalgError::NonFinite { phase: "dortho", column: 2, row: 7 }
        );
        let mut m = backup;
        let err = try_cgs(&mut m, None, DROP_TOLERANCE, "dortho").unwrap_err();
        assert!(matches!(
            err,
            crate::error::LinalgError::NonFinite { column: 2, row: 7, .. }
        ));
    }

    #[test]
    fn try_variants_reject_bad_arguments_without_panicking() {
        let mut m = random_matrix(10, 2, 12);
        assert!(try_mgs(&mut m, None, -1.0, "dortho").is_err());
        assert!(try_mgs(&mut m, Some(&[1.0; 3]), 0.0, "dortho").is_err());
        assert!(try_cgs(&mut m, Some(&[f64::NAN; 10]), 0.0, "dortho").is_err());
        // Well-formed input still goes through and matches the raw kernel.
        let mut a = random_matrix(40, 3, 13);
        let mut b = a.clone();
        let oa = try_mgs(&mut a, None, DROP_TOLERANCE, "dortho").unwrap();
        let ob = mgs(&mut b, None, DROP_TOLERANCE);
        assert_eq!(oa, ob);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn mgs_keeps_orthonormal_survivors_of_nearly_dependent_columns() {
        // Twelve copies of one column with small independent perturbations,
        // across a panel edge (8 + 4 columns). Perturbed by 1e-9, the copies
        // fall below the drop tolerance once the first is projected out; by
        // 1e-2 they all survive, and must come out orthonormal.
        for (eps, survivors) in [(1e-9, 1), (1e-2, 12)] {
            let mut rng = Xoshiro256StarStar::seed_from_u64(77);
            let base: Vec<f64> = (0..400).map(|_| rng.next_f64() - 0.5).collect();
            let columns: Vec<Vec<f64>> = (0..12)
                .map(|_| base.iter().map(|&x| x + eps * (rng.next_f64() - 0.5)).collect())
                .collect();
            let mut m = ColMajorMatrix::from_columns(&columns);
            let out = mgs(&mut m, None, DROP_TOLERANCE);
            assert_eq!(out.kept, (0..survivors).collect::<Vec<_>>(), "eps {eps}");
            let residual = max_cross_product(&m, None);
            assert!(residual < 1e-8, "eps {eps}: {residual}");
            for c in 0..m.cols() {
                assert!((norm2(m.col(c)) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_column_is_dropped() {
        let mut m = ColMajorMatrix::from_columns(&[vec![1.0, 0.0], vec![0.0, 0.0]]);
        let out = mgs(&mut m, None, DROP_TOLERANCE);
        assert_eq!(out.dropped, vec![1]);
    }

    #[test]
    fn span_is_preserved() {
        // Orthogonalized columns must span the same space: project original
        // columns back; residual should vanish.
        let m0 = random_matrix(60, 4, 8);
        let mut q = m0.clone();
        mgs(&mut q, None, DROP_TOLERANCE);
        for c in 0..4 {
            let orig = m0.col(c);
            let mut residual = orig.to_vec();
            for k in 0..q.cols() {
                let coeff = dot(q.col(k), orig);
                axpy(-coeff, q.col(k), &mut residual);
            }
            assert!(
                norm2(&residual) < 1e-8,
                "column {c} left the span (residual {})",
                norm2(&residual)
            );
        }
    }
}
