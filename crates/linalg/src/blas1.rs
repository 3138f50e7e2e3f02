//! Parallel BLAS-1 vector kernels.
//!
//! These are the inner operations of the DOrtho phase (Algorithm 3 line 11:
//! dot products and axpy updates on O(n) vectors, parallelized across
//! threads; the `log n` depth term in Table 1 is the reduction tree of the
//! dot-product sum).
//!
//! Reductions are **deterministic**: vectors are cut into fixed-size chunks,
//! each chunk is summed in a schedule-independent order, and the per-chunk
//! partials are summed in chunk order. Determinism costs nothing here and
//! makes every layout in the test suite reproducible bit-for-bit across
//! thread counts.
//!
//! Chunk bodies dispatch through [`crate::backend`]: `axpy`/`scale` are
//! bit-exact across backends (elementwise mul+add); the dot/sum family
//! carries the documented ≤1e-13·‖x‖‖y‖ backend tolerance (SIMD widens the
//! summation chain into lanes and contracts with FMA). Whatever the
//! backend, results stay bitwise thread-count-independent — the chunk
//! decomposition is fixed and each chunk is summed by one backend call.

use crate::backend::{self, Family};
use parhde_util::par::prelude::*;
use std::ops::Range;

/// Chunk length for parallel reductions; below this, kernels run scalar
/// (fork overhead would dominate for short vectors).
pub const PAR_CHUNK: usize = 1 << 14;

/// Dot product `xᵀ y`.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let be = backend::active();
    backend::count(Family::Blas1, x.len() as u64);
    reduce_chunks(x, |r, cx| be.dot_chunk(cx, &y[r]))
}

/// D-weighted dot product `xᵀ D y = Σ_i x_i d_i y_i` — the inner product of
/// the D-orthogonalization (Algorithm 3 line 11 uses `s'_j D s_i`).
///
/// # Panics
/// Panics if lengths differ.
pub fn dot_weighted(x: &[f64], d: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_weighted length mismatch");
    assert_eq!(x.len(), d.len(), "weight vector length mismatch");
    let be = backend::active();
    backend::count(Family::Blas1, x.len() as u64);
    reduce_chunks(x, |r, cx| be.dot_weighted_chunk(cx, &d[r.clone()], &y[r]))
}

/// `y ← y + α·x`.
///
/// # Panics
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    let be = backend::active();
    backend::count(Family::Blas1, x.len() as u64);
    if x.len() < PAR_CHUNK {
        be.axpy_chunk(alpha, x, y);
        return;
    }
    y.par_chunks_mut(PAR_CHUNK)
        .zip(x.par_chunks(PAR_CHUNK))
        .for_each(|(cy, cx)| be.axpy_chunk(alpha, cx, cy));
}

/// `x ← α·x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    let be = backend::active();
    backend::count(Family::Blas1, x.len() as u64);
    if x.len() < PAR_CHUNK {
        be.scale_chunk(alpha, x);
        return;
    }
    x.par_chunks_mut(PAR_CHUNK).for_each(|c| be.scale_chunk(alpha, c));
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Fills `x` with a constant.
pub fn fill(x: &mut [f64], v: f64) {
    if x.len() < PAR_CHUNK {
        x.fill(v);
        return;
    }
    x.par_chunks_mut(PAR_CHUNK).for_each(|c| c.fill(v));
}

/// Sum of all entries.
pub fn sum(x: &[f64]) -> f64 {
    let be = backend::active();
    backend::count(Family::Blas1, x.len() as u64);
    reduce_chunks(x, |_, c| be.sum_chunk(c))
}

/// Sums per-chunk partials in chunk order: the one reduction behind every
/// chunked kernel, so a result depends on the fixed [`PAR_CHUNK`]
/// partition alone, never on the schedule. A single chunk's partial is
/// returned as is.
pub(crate) fn ordered_sum(partials: &[f64]) -> f64 {
    match partials {
        [one] => *one,
        _ => partials.iter().sum(),
    }
}

/// Evaluates `partial(range, chunk)` on every [`PAR_CHUNK`] chunk of `x`
/// (in parallel when there are several) and reduces with [`ordered_sum`].
fn reduce_chunks(x: &[f64], partial: impl Fn(Range<usize>, &[f64]) -> f64 + Sync) -> f64 {
    if x.len() <= PAR_CHUNK {
        return partial(0..x.len(), x);
    }
    let partials: Vec<f64> = x
        .par_chunks(PAR_CHUNK)
        .enumerate()
        .map(|(c, chunk)| partial(c * PAR_CHUNK..c * PAR_CHUNK + chunk.len(), chunk))
        .collect();
    ordered_sum(&partials)
}

/// [`reduce_chunks`] over a vector the chunk body may update: the fused
/// update-then-reduce passes of the DOrtho phase, which rewrite a chunk and
/// take its partial while it is still in cache.
pub(crate) fn reduce_chunks_mut(
    x: &mut [f64],
    partial: impl Fn(Range<usize>, &mut [f64]) -> f64 + Sync,
) -> f64 {
    if x.len() <= PAR_CHUNK {
        return partial(0..x.len(), x);
    }
    let partials: Vec<f64> = x
        .par_chunks_mut(PAR_CHUNK)
        .enumerate()
        .map(|(c, chunk)| partial(c * PAR_CHUNK..c * PAR_CHUNK + chunk.len(), chunk))
        .collect();
    ordered_sum(&partials)
}

/// A panel of equal-length columns cut once into the chunks
/// [`reduce_chunks_mut`] cuts each column into, chunk-major, so that one
/// task owns chunk `r` of every column: the panel passes of the DOrtho
/// phase, which stream a shared vector chunk once for all the columns.
pub(crate) struct ChunkedPanel<'a> {
    width: usize,
    chunks: Vec<(Range<usize>, Vec<&'a mut [f64]>)>,
}

impl<'a> ChunkedPanel<'a> {
    /// Cuts the `width` columns of `rows` rows stored one after another in
    /// `panel`.
    ///
    /// # Panics
    /// Panics if `panel` holds fewer than `width · rows` entries.
    pub(crate) fn new(mut panel: &'a mut [f64], rows: usize, width: usize) -> Self {
        // The partition of `reduce_chunks_mut`: one chunk (empty columns
        // included) when it fits.
        let size = if rows <= PAR_CHUNK { rows.max(1) } else { PAR_CHUNK };
        let mut chunks: Vec<_> = (0..rows.max(1))
            .step_by(size)
            .map(|lo| (lo..(lo + size).min(rows), Vec::with_capacity(width)))
            .collect();
        for _ in 0..width {
            let (mut col, rest) = std::mem::take(&mut panel).split_at_mut(rows);
            panel = rest;
            for (r, pieces) in &mut chunks {
                let (piece, tail) = std::mem::take(&mut col).split_at_mut(r.len());
                col = tail;
                pieces.push(piece);
            }
        }
        Self { width, chunks }
    }

    /// Number of columns.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// [`reduce_chunks_mut`] on every column at once: `partial(r, u, c)`
    /// gets chunk `r` of column `u`, and column `u`'s result is bitwise the
    /// one `reduce_chunks_mut` gives for `|r, c| partial(r, u, c)` on that
    /// column alone. A task runs its chunk's columns in order.
    pub(crate) fn reduce(
        &mut self,
        partial: impl Fn(Range<usize>, usize, &mut [f64]) -> f64 + Sync,
    ) -> Vec<f64> {
        let partials: Vec<Vec<f64>> = self
            .chunks
            .par_iter_mut()
            .map(|(r, cols)| {
                cols.iter_mut().enumerate().map(|(u, c)| partial(r.clone(), u, c)).collect()
            })
            .collect();
        (0..self.width)
            .map(|u| ordered_sum(&partials.iter().map(|p| p[u]).collect::<Vec<_>>()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parhde_util::Xoshiro256StarStar;

    fn random_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }

    #[test]
    fn dot_small() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
    }

    #[test]
    fn dot_large_matches_scalar() {
        let n = PAR_CHUNK * 3 + 17;
        let x = random_vec(n, 1);
        let y = random_vec(n, 2);
        let scalar: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - scalar).abs() < 1e-9 * n as f64);
    }

    #[test]
    fn dot_is_deterministic_across_pool_sizes() {
        let n = PAR_CHUNK * 4 + 5;
        let x = random_vec(n, 3);
        let y = random_vec(n, 4);
        let a = parhde_util::threads::run_with_threads(1, || dot(&x, &y));
        let b = parhde_util::threads::run_with_threads(4, || dot(&x, &y));
        assert_eq!(a.to_bits(), b.to_bits(), "parallel dot must be bitwise deterministic");
    }

    #[test]
    fn weighted_dot_matches_definition() {
        let x = [1., 2.];
        let d = [3., 4.];
        let y = [5., 6.];
        assert_eq!(dot_weighted(&x, &d, &y), 1. * 3. * 5. + 2. * 4. * 6.);
    }

    #[test]
    fn weighted_dot_with_unit_weights_is_dot() {
        let n = PAR_CHUNK + 100;
        let x = random_vec(n, 5);
        let y = random_vec(n, 6);
        let d = vec![1.0; n];
        assert!((dot_weighted(&x, &d, &y) - dot(&x, &y)).abs() < 1e-9);
    }

    #[test]
    fn axpy_small_and_large() {
        let mut y = vec![1.0; 3];
        axpy(2.0, &[1., 2., 3.], &mut y);
        assert_eq!(y, vec![3., 5., 7.]);

        let n = PAR_CHUNK * 2 + 9;
        let x = random_vec(n, 7);
        let mut y1 = random_vec(n, 8);
        let mut y2 = y1.clone();
        axpy(-0.5, &x, &mut y1);
        for (yi, xi) in y2.iter_mut().zip(&x) {
            *yi += -0.5 * xi;
        }
        assert_eq!(y1, y2);
    }

    #[test]
    fn scale_and_norm() {
        let mut x = vec![3.0, 4.0];
        assert_eq!(norm2(&x), 5.0);
        scale(2.0, &mut x);
        assert_eq!(x, vec![6.0, 8.0]);
    }

    #[test]
    fn fill_and_sum() {
        let mut x = vec![0.0; PAR_CHUNK + 3];
        fill(&mut x, 2.5);
        assert!((sum(&x) - 2.5 * x.len() as f64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
