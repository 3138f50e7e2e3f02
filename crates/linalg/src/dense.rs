//! Column-major dense matrices.
//!
//! Algorithm 3 line 2 specifies the embedding matrix `B ∈ R^{n×s}` in
//! "column-major format": each BFS writes one contiguous column, and the
//! DOrtho phase's vector ops stream over contiguous columns. This type is
//! that layout plus the handful of accessors the pipeline needs.

/// A dense matrix stored column-major: entry `(row, col)` lives at
/// `data[col * rows + row]`.
#[derive(Clone, Debug, PartialEq)]
pub struct ColMajorMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl ColMajorMatrix {
    /// Allocates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Wraps an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Builds from column slices.
    ///
    /// # Panics
    /// Panics if columns have differing lengths.
    pub fn from_columns(columns: &[Vec<f64>]) -> Self {
        assert!(!columns.is_empty(), "at least one column required");
        let rows = columns[0].len();
        let mut data = Vec::with_capacity(rows * columns.len());
        for c in columns {
            assert_eq!(c.len(), rows, "ragged columns");
            data.extend_from_slice(c);
        }
        Self { rows, cols: columns.len(), data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[c * self.rows + r]
    }

    /// Sets entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[c * self.rows + r] = v;
    }

    /// Column `c` as a contiguous slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Column `c` as a mutable contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Disjoint mutable column `i` plus shared earlier column `j < i`
    /// (the DOrtho access pattern: update column i against column j).
    ///
    /// # Panics
    /// Panics unless `j < i < cols`.
    pub fn col_pair(&mut self, j: usize, i: usize) -> (&[f64], &mut [f64]) {
        assert!(j < i && i < self.cols, "need j < i < cols");
        let (head, tail) = self.data.split_at_mut(i * self.rows);
        (
            &head[j * self.rows..(j + 1) * self.rows],
            &mut tail[..self.rows],
        )
    }

    /// All columns strictly before `i` as one contiguous column-major slice,
    /// plus mutable column `i` — the Classical Gram-Schmidt access pattern
    /// (read the whole kept prefix, update one column).
    ///
    /// # Panics
    /// Panics if `i ≥ cols`.
    pub fn prefix_and_col_mut(&mut self, i: usize) -> (&[f64], &mut [f64]) {
        assert!(i < self.cols, "column {i} out of range");
        let (head, tail) = self.data.split_at_mut(i * self.rows);
        (&head[..], &mut tail[..self.rows])
    }

    /// All columns strictly before `i0` as one contiguous column-major
    /// slice, plus the mutable column panel `i0..i1` — the block
    /// Gram-Schmidt access pattern (project a whole panel against the kept
    /// prefix at once).
    ///
    /// # Panics
    /// Panics unless `i0 ≤ i1 ≤ cols`.
    pub fn prefix_and_panel_mut(&mut self, i0: usize, i1: usize) -> (&[f64], &mut [f64]) {
        assert!(i0 <= i1 && i1 <= self.cols, "need i0 ≤ i1 ≤ cols");
        let (head, tail) = self.data.split_at_mut(i0 * self.rows);
        (&head[..], &mut tail[..(i1 - i0) * self.rows])
    }

    /// The full backing buffer (column-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The full mutable backing buffer (column-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Splits the buffer into per-column mutable slices (for concurrent
    /// column writers like the multi-source BFS).
    pub fn columns_mut(&mut self) -> Vec<&mut [f64]> {
        self.data.chunks_mut(self.rows).collect()
    }

    /// Keeps only the columns whose indices appear in `keep` (ascending),
    /// compacting in place. Used when DOrtho drops degenerate vectors.
    ///
    /// # Panics
    /// Panics if `keep` is not strictly ascending or out of range.
    pub fn retain_columns(&mut self, keep: &[usize]) {
        for w in keep.windows(2) {
            assert!(w[0] < w[1], "keep must be strictly ascending");
        }
        if let Some(&last) = keep.last() {
            assert!(last < self.cols, "kept column out of range");
        }
        let rows = self.rows;
        for (dst, &src) in keep.iter().enumerate() {
            if dst != src {
                let (a, b) = self.data.split_at_mut(src * rows);
                a[dst * rows..(dst + 1) * rows].copy_from_slice(&b[..rows]);
            }
        }
        self.cols = keep.len();
        self.data.truncate(self.cols * rows);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = ColMajorMatrix::zeros(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        m.set(2, 1, 7.5);
        assert_eq!(m.get(2, 1), 7.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn column_major_layout() {
        let m = ColMajorMatrix::from_data(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.col(0), &[1., 2.]);
        assert_eq!(m.col(2), &[5., 6.]);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn from_columns_roundtrip() {
        let m = ColMajorMatrix::from_columns(&[vec![1., 2.], vec![3., 4.]]);
        assert_eq!(m.col(1), &[3., 4.]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        ColMajorMatrix::from_columns(&[vec![1.], vec![2., 3.]]);
    }

    #[test]
    fn col_pair_gives_disjoint_views() {
        let mut m = ColMajorMatrix::from_columns(&[vec![1., 1.], vec![5., 5.]]);
        let (j, i) = m.col_pair(0, 1);
        assert_eq!(j, &[1., 1.]);
        i[0] = 9.0;
        assert_eq!(m.get(0, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "need j < i")]
    fn col_pair_order_enforced() {
        let mut m = ColMajorMatrix::zeros(2, 2);
        let _ = m.col_pair(1, 1);
    }

    #[test]
    fn retain_columns_compacts() {
        let mut m = ColMajorMatrix::from_columns(&[
            vec![1., 1.],
            vec![2., 2.],
            vec![3., 3.],
            vec![4., 4.],
        ]);
        m.retain_columns(&[0, 2, 3]);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.col(0), &[1., 1.]);
        assert_eq!(m.col(1), &[3., 3.]);
        assert_eq!(m.col(2), &[4., 4.]);
    }

    #[test]
    fn retain_nothing_empties() {
        let mut m = ColMajorMatrix::zeros(2, 2);
        m.retain_columns(&[]);
        assert_eq!(m.cols(), 0);
        assert!(m.data().is_empty());
    }

    #[test]
    fn frobenius_norm_matches() {
        let m = ColMajorMatrix::from_data(1, 2, vec![3., 4.]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn columns_mut_are_disjoint_slices() {
        let mut m = ColMajorMatrix::zeros(3, 2);
        {
            let mut cols = m.columns_mut();
            assert_eq!(cols.len(), 2);
            cols[1][2] = 8.0;
        }
        assert_eq!(m.get(2, 1), 8.0);
    }
}
