//! Sparse matrix × dense multi-vector products.
//!
//! The dominant TripleProd step (§3, §4.4) is `P = L·S`, viewed as `s`
//! SpMVs. The paper never materializes the Laplacian: `L = D − A`, so
//! `(L·S)[v,·] = deg(v)·S[v,·] − Σ_{u ∈ Adj(v)} S[u,·]`, computed straight
//! off the CSR adjacency and a dense degrees array (§4.4: "MKL requires
//! allocating a sparse Laplacian matrix ... which our implementation avoids
//! by using a dense degrees array to calculate the diagonal entry"). An
//! explicit-Laplacian variant is provided as the ablation baseline, and the
//! normalized-adjacency product serves the eigensolver (Figure 1 bottom).
//!
//! The staged kernels read `S` through the same packed row-major copy the
//! fused TripleProd uses (`fused::pack_row_major` — a value-exact relayout),
//! so every neighbor row is `s` contiguous doubles and the inner loops
//! dispatch through [`crate::backend`]'s bit-exact row ops. The ablation
//! variants keep their original column-major loops: they exist to measure
//! schedules, not to be fast.

use crate::dense::ColMajorMatrix;
use crate::error::LinalgError;
use parhde_graph::store::{GraphStore, NeighborScratch};
use parhde_graph::{CsrGraph, WeightedCsr};
use parhde_util::par::prelude::*;
use parhde_util::supervisor::should_stop;

/// Row-block grain for parallel SpMM sweeps.
const ROW_CHUNK: usize = 512;

/// Computes `P = L·S` with the implicit Laplacian (no matrix materialized).
///
/// `degrees` must be the (weighted) degree vector; for unweighted graphs
/// pass [`CsrGraph::degree_vector`]. `S` is column-major `n × s`; the result
/// has the same shape.
///
/// Parallel over row blocks; each row's `s` accumulators live in a small
/// stack-local buffer, giving the `O(s)` arithmetic intensity the paper
/// notes for the `m/n ≫ s` regime.
///
/// Generic over [`GraphStore`]: each row block decodes adjacency through a
/// reused per-block scratch, so compressed and mmap-backed graphs stream
/// through the product without materializing plain CSR.
///
/// # Panics
/// Panics if dimensions disagree.
pub fn laplacian_spmm<G: GraphStore>(
    g: &G,
    degrees: &[f64],
    s: &ColMajorMatrix,
) -> ColMajorMatrix {
    let n = g.num_vertices();
    assert_eq!(s.rows(), n, "S row count must equal n");
    assert_eq!(degrees.len(), n, "degree vector length must equal n");
    let k = s.cols();
    let _span = parhde_trace::span!("spmm.laplacian");
    parhde_trace::counter!("spmm.flops", (2 * (g.num_arcs() + n) * k) as u64);
    crate::backend::count(crate::backend::Family::Spmm, ((g.num_arcs() + n) * k) as u64);
    let mut p = ColMajorMatrix::zeros(n, k);
    let pack = crate::fused::pack_row_major(s);
    let be = crate::backend::active();

    // SAFETY-free parallel writes: split the output into row blocks by
    // temporarily viewing P as per-column chunks is awkward column-major;
    // instead compute into a row-block-local buffer and scatter.
    let blocks: Vec<(usize, Vec<f64>)> = (0..n)
        .step_by(ROW_CHUNK)
        .collect::<Vec<_>>()
        .par_iter()
        .map(|&lo| {
            let hi = (lo + ROW_CHUNK).min(n);
            let mut block = vec![0.0; (hi - lo) * k];
            // Cooperative cancellation point (once per row block): remaining
            // blocks stay zero; the caller discards the poisoned product at
            // its next phase boundary.
            if should_stop() {
                return (lo, block);
            }
            let mut acc = vec![0.0; k];
            let mut scratch = NeighborScratch::new();
            for v in lo..hi {
                be.laplacian_row(
                    &mut acc,
                    degrees[v],
                    &pack[v * k..(v + 1) * k],
                    &pack,
                    g.neighbors_in(v as u32, &mut scratch),
                );
                for c in 0..k {
                    block[c * (hi - lo) + (v - lo)] = acc[c];
                }
            }
            (lo, block)
        })
        .collect();

    let pdata = p.data_mut();
    for (lo, block) in blocks {
        let rows = block.len() / k;
        for c in 0..k {
            pdata[c * n + lo..c * n + lo + rows]
                .copy_from_slice(&block[c * rows..(c + 1) * rows]);
        }
    }
    p
}

/// Guarded [`laplacian_spmm`]: validates dimensions, checks the degree
/// vector and input matrix for non-finite values, and scans the product —
/// an overflow in the accumulation is reported as phase `"spmm"` with the
/// first bad column instead of flowing into the eigensolve.
///
/// # Errors
/// [`LinalgError::InvalidArgument`] on shape mismatch,
/// [`LinalgError::NonFinite`] on poison data. Never panics.
pub fn try_laplacian_spmm<G: GraphStore>(
    g: &G,
    degrees: &[f64],
    s: &ColMajorMatrix,
) -> Result<ColMajorMatrix, LinalgError> {
    guarded(g.num_vertices(), degrees, s, || laplacian_spmm(g, degrees, s))
}

/// Guarded [`laplacian_spmm_weighted`]; see [`try_laplacian_spmm`].
///
/// # Errors
/// [`LinalgError::InvalidArgument`] on shape mismatch,
/// [`LinalgError::NonFinite`] on poison data. Never panics.
pub fn try_laplacian_spmm_weighted(
    g: &WeightedCsr,
    degrees: &[f64],
    s: &ColMajorMatrix,
) -> Result<ColMajorMatrix, LinalgError> {
    guarded(g.num_vertices(), degrees, s, || laplacian_spmm_weighted(g, degrees, s))
}

/// The validation ladder of the guarded products around `product`.
fn guarded(
    n: usize,
    degrees: &[f64],
    s: &ColMajorMatrix,
    product: impl FnOnce() -> ColMajorMatrix,
) -> Result<ColMajorMatrix, LinalgError> {
    if s.rows() != n {
        return Err(LinalgError::InvalidArgument(format!(
            "S row count {} != n = {n}",
            s.rows()
        )));
    }
    if degrees.len() != n {
        return Err(LinalgError::InvalidArgument(format!(
            "degree vector length {} != n = {n}",
            degrees.len()
        )));
    }
    crate::error::check_slice_finite(degrees, "spmm degrees", 0)?;
    crate::error::check_matrix_finite(s, "spmm input")?;
    let p = product();
    crate::error::check_matrix_finite(&p, "spmm")?;
    Ok(p)
}

/// Weighted-graph variant: `L = D − A` with `A(u,v) = w(u,v)` and `D` the
/// weighted degrees (§3.3 extension).
///
/// # Panics
/// Panics if dimensions disagree.
pub fn laplacian_spmm_weighted(
    g: &WeightedCsr,
    degrees: &[f64],
    s: &ColMajorMatrix,
) -> ColMajorMatrix {
    let n = g.num_vertices();
    assert_eq!(s.rows(), n, "S row count must equal n");
    assert_eq!(degrees.len(), n, "degree vector length must equal n");
    let k = s.cols();
    let _span = parhde_trace::span!("spmm.laplacian_weighted");
    parhde_trace::counter!("spmm.flops", (2 * (g.graph().num_arcs() + n) * k) as u64);
    crate::backend::count(
        crate::backend::Family::Spmm,
        ((g.graph().num_arcs() + n) * k) as u64,
    );
    let mut p = ColMajorMatrix::zeros(n, k);
    let pack = crate::fused::pack_row_major(s);
    let be = crate::backend::active();
    let blocks: Vec<(usize, Vec<f64>)> = (0..n)
        .step_by(ROW_CHUNK)
        .collect::<Vec<_>>()
        .par_iter()
        .map(|&lo| {
            let hi = (lo + ROW_CHUNK).min(n);
            let mut block = vec![0.0; (hi - lo) * k];
            // Cooperative cancellation point, as in `laplacian_spmm`.
            if should_stop() {
                return (lo, block);
            }
            let mut acc = vec![0.0; k];
            for v in lo..hi {
                be.row_scale(&mut acc, degrees[v], &pack[v * k..(v + 1) * k]);
                for (u, w) in g.neighbors(v as u32) {
                    let ui = u as usize;
                    be.row_sub_scaled(&mut acc, w, &pack[ui * k..(ui + 1) * k]);
                }
                for c in 0..k {
                    block[c * (hi - lo) + (v - lo)] = acc[c];
                }
            }
            (lo, block)
        })
        .collect();
    let pdata = p.data_mut();
    for (lo, block) in blocks {
        let rows = block.len() / k;
        for c in 0..k {
            pdata[c * n + lo..c * n + lo + rows]
                .copy_from_slice(&block[c * rows..(c + 1) * rows]);
        }
    }
    p
}

/// An explicitly materialized CSR Laplacian — the ablation baseline that
/// mirrors MKL's `mkl_sparse_d_mm` requirement (§4.4) and the prior
/// implementation's Eigen-built Laplacian, whose allocation the paper calls
/// out as the prior code's memory bottleneck.
#[derive(Clone, Debug)]
pub struct ExplicitLaplacian {
    offsets: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    n: usize,
}

impl ExplicitLaplacian {
    /// Materializes `L = D − A` in CSR form (diagonal entry first in each
    /// row for cache friendliness; order within a row is irrelevant).
    pub fn build(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut cols = Vec::with_capacity(g.num_arcs() + n);
        let mut vals = Vec::with_capacity(g.num_arcs() + n);
        for v in 0..n as u32 {
            cols.push(v);
            vals.push(g.degree(v) as f64);
            for &u in g.neighbors(v) {
                cols.push(u);
                vals.push(-1.0);
            }
            offsets.push(cols.len());
        }
        Self { offsets, cols, vals, n }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// `P = L·S` through the explicit values (generic CSR SpMM).
    ///
    /// # Panics
    /// Panics if `S` has the wrong row count.
    pub fn spmm(&self, s: &ColMajorMatrix) -> ColMajorMatrix {
        let n = self.n;
        assert_eq!(s.rows(), n, "S row count must equal n");
        let k = s.cols();
        let mut p = ColMajorMatrix::zeros(n, k);
        let sdata = s.data();
        let blocks: Vec<(usize, Vec<f64>)> = (0..n)
            .step_by(ROW_CHUNK)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&lo| {
                let hi = (lo + ROW_CHUNK).min(n);
                let mut block = vec![0.0; (hi - lo) * k];
                let mut acc = vec![0.0; k];
                for v in lo..hi {
                    acc.fill(0.0);
                    for idx in self.offsets[v]..self.offsets[v + 1] {
                        let u = self.cols[idx] as usize;
                        let w = self.vals[idx];
                        for (c, a) in acc.iter_mut().enumerate() {
                            *a += w * sdata[c * n + u];
                        }
                    }
                    for c in 0..k {
                        block[c * (hi - lo) + (v - lo)] = acc[c];
                    }
                }
                (lo, block)
            })
            .collect();
        let pdata = p.data_mut();
        for (lo, block) in blocks {
            let rows = block.len() / k;
            for c in 0..k {
                pdata[c * n + lo..c * n + lo + rows]
                    .copy_from_slice(&block[c * rows..(c + 1) * rows]);
            }
        }
        p
    }
}

/// SpMV with the symmetric normalized adjacency `N = D^{-1/2} A D^{-1/2}`:
/// `y_v = Σ_u x_u / √(d_v d_u)`. `inv_sqrt_deg[v]` must be `1/√deg(v)`
/// (0 for isolated vertices). The dominant eigenvectors of `N` map to the
/// degree-normalized eigenvectors of the walk matrix `D^{-1}A` via
/// `u = D^{-1/2} w` — the Figure 1 "exact" baseline.
///
/// # Panics
/// Panics on length mismatches.
pub fn normalized_adjacency_spmv(g: &CsrGraph, inv_sqrt_deg: &[f64], x: &[f64]) -> Vec<f64> {
    let n = g.num_vertices();
    assert_eq!(x.len(), n, "x length must equal n");
    assert_eq!(inv_sqrt_deg.len(), n, "scaling vector length must equal n");
    (0..n)
        .into_par_iter()
        .map(|v| {
            let mut acc = 0.0;
            for &u in g.neighbors(v as u32) {
                acc += x[u as usize] * inv_sqrt_deg[u as usize];
            }
            acc * inv_sqrt_deg[v]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parhde_graph::builder::build_weighted_from_edges;
    use parhde_graph::gen::{chain, complete, grid2d, kron};
    use parhde_util::Xoshiro256StarStar;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> ColMajorMatrix {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.next_f64() - 0.5).collect();
        ColMajorMatrix::from_data(rows, cols, data)
    }

    /// Dense reference: L·S with L assembled entry by entry.
    fn dense_laplacian_spmm(g: &CsrGraph, s: &ColMajorMatrix) -> ColMajorMatrix {
        let n = g.num_vertices();
        let mut out = ColMajorMatrix::zeros(n, s.cols());
        for c in 0..s.cols() {
            for v in 0..n {
                let mut acc = g.degree(v as u32) as f64 * s.get(v, c);
                for &u in g.neighbors(v as u32) {
                    acc -= s.get(u as usize, c);
                }
                out.set(v, c, acc);
            }
        }
        out
    }

    use parhde_graph::CsrGraph;

    #[test]
    fn implicit_matches_dense_reference() {
        for g in [chain(37), grid2d(8, 9), complete(15), kron(8, 6, 1)] {
            let s = random_matrix(g.num_vertices(), 5, 42);
            let fast = laplacian_spmm(&g, &g.degree_vector(), &s);
            let slow = dense_laplacian_spmm(&g, &s);
            for i in 0..fast.data().len() {
                assert!(
                    (fast.data()[i] - slow.data()[i]).abs() < 1e-9,
                    "mismatch at flat index {i}"
                );
            }
        }
    }

    #[test]
    fn implicit_matches_explicit() {
        let g = kron(9, 8, 2);
        let s = random_matrix(g.num_vertices(), 7, 3);
        let imp = laplacian_spmm(&g, &g.degree_vector(), &s);
        let exp = ExplicitLaplacian::build(&g).spmm(&s);
        for i in 0..imp.data().len() {
            assert!((imp.data()[i] - exp.data()[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn explicit_laplacian_nnz() {
        let g = chain(5);
        let l = ExplicitLaplacian::build(&g);
        assert_eq!(l.nnz(), g.num_arcs() + 5);
    }

    #[test]
    fn laplacian_annihilates_constant_vector() {
        // L·1 = 0 — the defining property (1 is the 0-eigenvector).
        let g = grid2d(6, 6);
        let ones = ColMajorMatrix::from_data(36, 1, vec![1.0; 36]);
        let p = laplacian_spmm(&g, &g.degree_vector(), &ones);
        assert!(p.frobenius_norm() < 1e-12);
    }

    #[test]
    fn laplacian_quadratic_form_is_edge_sum() {
        // yᵀLy = Σ_{(i,j)∈E} (y_i − y_j)² (§2.1).
        let g = chain(4);
        let y = vec![1.0, 3.0, 0.0, 2.0];
        let ym = ColMajorMatrix::from_data(4, 1, y.clone());
        let ly = laplacian_spmm(&g, &g.degree_vector(), &ym);
        let quad: f64 = y.iter().zip(ly.col(0)).map(|(a, b)| a * b).sum();
        let expected: f64 = g
            .edges()
            .map(|(u, v)| (y[u as usize] - y[v as usize]).powi(2))
            .sum();
        assert!((quad - expected).abs() < 1e-12);
    }

    #[test]
    fn weighted_laplacian_with_unit_weights_matches_unweighted() {
        let g = grid2d(5, 7);
        let wg = parhde_graph::WeightedCsr::unit_weights(g.clone());
        let s = random_matrix(35, 4, 9);
        let a = laplacian_spmm(&g, &g.degree_vector(), &s);
        let b = laplacian_spmm_weighted(&wg, &wg.weighted_degree_vector(), &s);
        for i in 0..a.data().len() {
            assert!((a.data()[i] - b.data()[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_laplacian_annihilates_constant() {
        let base = grid2d(4, 4);
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let edges: Vec<(u32, u32, f64)> = base
            .edges()
            .map(|(u, v)| (u, v, rng.next_f64() + 0.5))
            .collect();
        let wg = build_weighted_from_edges(16, edges);
        let ones = ColMajorMatrix::from_data(16, 1, vec![1.0; 16]);
        let p = laplacian_spmm_weighted(&wg, &wg.weighted_degree_vector(), &ones);
        assert!(p.frobenius_norm() < 1e-12);
    }

    #[test]
    fn normalized_spmv_preserves_principal_eigenvector() {
        // N · (D^{1/2} 1) = D^{1/2} 1 for any graph (eigenvalue 1).
        let g = grid2d(5, 5);
        let n = g.num_vertices();
        let deg = g.degree_vector();
        let inv_sqrt: Vec<f64> = deg.iter().map(|d| 1.0 / d.sqrt()).collect();
        let principal: Vec<f64> = deg.iter().map(|d| d.sqrt()).collect();
        let y = normalized_adjacency_spmv(&g, &inv_sqrt, &principal);
        for (a, b) in y.iter().zip(&principal) {
            assert!((a - b).abs() < 1e-12);
        }
        let _ = n;
    }
}
