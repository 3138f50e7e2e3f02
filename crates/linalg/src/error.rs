//! Typed errors and non-finite guards for the numeric kernels.
//!
//! The panicking kernels stay as-is for trusted internal callers; the
//! `try_*` wrappers in [`crate::ortho`], [`crate::spmm`], and
//! [`crate::eig::jacobi`] run the same code behind guards that report
//! *which phase and column* first went non-finite — so a NaN is caught at
//! its source instead of surfacing as a blank PNG three phases later.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::dense::ColMajorMatrix;

/// A failure inside a numeric kernel, attributed to a pipeline phase.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A NaN or ±∞ appeared in `phase` at the given column and row.
    NonFinite {
        /// The pipeline phase whose data went bad (e.g. `"dortho"`).
        phase: &'static str,
        /// Column index of the first non-finite entry.
        column: usize,
        /// Row index of the first non-finite entry.
        row: usize,
    },
    /// A square-matrix kernel was given a non-square input.
    NotSquare {
        /// Rows of the offending matrix.
        rows: usize,
        /// Columns of the offending matrix.
        cols: usize,
    },
    /// A symmetric kernel was given an asymmetric input.
    NotSymmetric {
        /// Row of the first asymmetric pair.
        row: usize,
        /// Column of the first asymmetric pair.
        col: usize,
    },
    /// Mismatched dimensions or an invalid scalar argument.
    InvalidArgument(String),
    /// A forced compute backend cannot run on this CPU.
    BackendUnavailable {
        /// The backend the caller demanded (e.g. `"simd"`).
        requested: &'static str,
        /// Why it cannot be selected here.
        reason: String,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite { phase, column, row } => write!(
                f,
                "non-finite value in {phase} at column {column}, row {row}"
            ),
            Self::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}×{cols}")
            }
            Self::NotSymmetric { row, col } => {
                write!(f, "matrix not symmetric at ({row},{col})")
            }
            Self::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            Self::BackendUnavailable { requested, reason } => {
                write!(f, "backend {requested:?} unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Entries per task of [`first_non_finite`]'s scan.
const SCAN_CHUNK: usize = 1 << 16;

/// Returns the (column, row) of the first non-finite entry, scanning
/// column-major — i.e. in the order the BFS/DOrtho phases produced the
/// data — or `None` if the matrix is entirely finite.
///
/// Fixed chunks are scanned in parallel, and the lowest chunk holding a
/// bad entry answers, so the result is the serial scan's at any width.
pub fn first_non_finite(m: &ColMajorMatrix) -> Option<(usize, usize)> {
    use parhde_util::par::prelude::*;
    let rows = m.rows().max(1);
    let scan = m.data().par_chunks(SCAN_CHUNK).enumerate().try_for_each(|(c, chunk)| {
        match chunk.iter().position(|x| !x.is_finite()) {
            Some(i) => Err(c * SCAN_CHUNK + i),
            None => Ok(()),
        }
    });
    scan.err().map(|idx| (idx / rows, idx % rows))
}

/// Guards a whole matrix: `Err(NonFinite)` naming `phase` and the first
/// bad column/row, `Ok(())` otherwise.
pub fn check_matrix_finite(m: &ColMajorMatrix, phase: &'static str) -> Result<(), LinalgError> {
    match first_non_finite(m) {
        None => Ok(()),
        Some((column, row)) => Err(LinalgError::NonFinite { phase, column, row }),
    }
}

/// Guards a vector treated as column `column` of `phase`.
pub fn check_slice_finite(
    v: &[f64],
    phase: &'static str,
    column: usize,
) -> Result<(), LinalgError> {
    match v.iter().position(|x| !x.is_finite()) {
        None => Ok(()),
        Some(row) => Err(LinalgError::NonFinite { phase, column, row }),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn locates_first_bad_entry_column_major() {
        let mut m = ColMajorMatrix::zeros(3, 2);
        m.set(1, 1, f64::NAN);
        assert_eq!(first_non_finite(&m), Some((1, 1)));
        m.set(2, 0, f64::INFINITY);
        assert_eq!(first_non_finite(&m), Some((0, 2)));
        assert!(check_matrix_finite(&ColMajorMatrix::zeros(2, 2), "x").is_ok());
    }

    #[test]
    fn parallel_scan_reports_the_first_bad_entry_at_every_width() {
        use parhde_util::threads::run_with_threads;
        // 3 columns spanning 5 scan chunks; bad entries in chunks 1, 3
        // and 4, so later chunks hold bad entries too.
        let rows = 2 * SCAN_CHUNK - 7;
        let mut m = ColMajorMatrix::zeros(rows, 3);
        assert_eq!(first_non_finite(&m), None);
        let bad = [
            (0, SCAN_CHUNK + 3, f64::NAN),
            (1, SCAN_CHUNK + 1, f64::INFINITY),
            (2, 5, f64::NEG_INFINITY),
        ];
        for (col, row, value) in bad.into_iter().rev() {
            m.set(row, col, value);
            let serial = m.data().iter().position(|x| !x.is_finite()).unwrap();
            for threads in [1, 2, 4] {
                let got = run_with_threads(threads, || first_non_finite(&m));
                assert_eq!(got, Some((serial / rows, serial % rows)), "{threads} threads");
                assert_eq!(got, Some((col, row)), "{threads} threads");
            }
        }
        let err = check_matrix_finite(&m, "dortho").unwrap_err();
        assert_eq!(
            err,
            LinalgError::NonFinite { phase: "dortho", column: 0, row: SCAN_CHUNK + 3 }
        );
    }

    #[test]
    fn slice_guard_names_phase_and_column() {
        let err = check_slice_finite(&[0.0, f64::NEG_INFINITY], "project", 1).unwrap_err();
        assert_eq!(
            err,
            LinalgError::NonFinite { phase: "project", column: 1, row: 1 }
        );
        assert!(err.to_string().contains("project"));
    }
}
