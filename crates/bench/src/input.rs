//! Graph inputs shared by `parhde-layout` and `parhde-pack`: the `gen:`
//! pseudo-input grammar and the Matrix Market / edge-list text loader.
//!
//! Both return what the binaries report rather than reporting it: a bad
//! generator spec is a usage message (exit 2), a read or parse failure the
//! context and the typed error whose exit code the binary uses. Each binary
//! formats and exits its own way.

use parhde::HdeError;
use parhde_graph::io::{parse_edge_list, parse_matrix_market, GraphIoError};
use parhde_graph::{gen, CsrGraph};
use std::path::Path;

/// A read or parse failure of a text input.
#[derive(Debug)]
pub struct LoadError {
    /// What was being done (`cannot read <path>`, `edge-list parse error`).
    pub context: String,
    /// The typed error, which carries the exit code.
    pub error: HdeError,
}

/// Builds a graph from a `gen:` pseudo-input: `gen:kron:<scale>[:<ef>]`
/// (defaults 10 and 16, scale at most 24), `gen:grid:<rows>[x<cols>]` (a
/// bare `N` is `NxN`, at least 8 vertices) or `gen:pref:<n>[:<attach>]`
/// (defaults 10 000 and 8). Kronecker and preferential-attachment graphs
/// draw from `seed`.
///
/// # Errors
/// The usage message for a spec outside the grammar.
pub fn generate(spec: &str, seed: u64) -> Result<CsrGraph, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let bad = || {
        format!(
            "bad generator spec {spec:?} (want gen:kron:<scale>[:<ef>], \
             gen:grid:<rows>[x<cols>], or gen:pref:<n>[:<attach>])"
        )
    };
    match parts.as_slice() {
        ["gen", "kron", rest @ ..] => {
            let scale: u32 = rest.first().and_then(|v| v.parse().ok()).unwrap_or(10);
            let ef: usize = rest.get(1).and_then(|v| v.parse().ok()).unwrap_or(16);
            if scale > 24 {
                return Err("gen:kron scale capped at 24".into());
            }
            Ok(gen::kron(scale, ef, seed))
        }
        ["gen", "grid", dims] => {
            let (r, c) = match dims.split_once('x') {
                Some((r, c)) => (r.parse().ok(), c.parse().ok()),
                None => (dims.parse().ok(), dims.parse().ok()),
            };
            match (r, c) {
                (Some(r), Some(c)) if r * c >= 8 => Ok(gen::grid2d(r, c)),
                _ => Err(bad()),
            }
        }
        ["gen", "pref", rest @ ..] => {
            let n: usize = rest.first().and_then(|v| v.parse().ok()).unwrap_or(10_000);
            let attach: usize = rest.get(1).and_then(|v| v.parse().ok()).unwrap_or(8);
            Ok(gen::pref_attach(n, attach.max(1), seed))
        }
        _ => Err(bad()),
    }
}

/// Reads a Matrix Market file (recognized by its `%%MatrixMarket` banner)
/// or a whitespace edge list.
///
/// # Errors
/// A [`LoadError`] naming the failed read or parse.
pub fn read_text(path: &Path) -> Result<CsrGraph, LoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| LoadError {
        context: format!("cannot read {}", path.display()),
        error: HdeError::from(e),
    })?;
    if text.trim_start().starts_with("%%MatrixMarket") {
        parse_matrix_market(&text).map_err(|e| LoadError {
            context: "MatrixMarket parse error".into(),
            error: HdeError::from(GraphIoError::from(e)),
        })
    } else {
        parse_edge_list(&text, 0).map_err(|e| LoadError {
            context: "edge-list parse error".into(),
            error: HdeError::from(e),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kron_and_pref_specs_fill_in_their_defaults() {
        assert_eq!(generate("gen:kron", 3), Ok(gen::kron(10, 16, 3)));
        assert_eq!(generate("gen:kron:9", 3), Ok(gen::kron(9, 16, 3)));
        assert_eq!(generate("gen:kron:9:4", 3), Ok(gen::kron(9, 4, 3)));
        assert_eq!(generate("gen:pref", 5), Ok(gen::pref_attach(10_000, 8, 5)));
        assert_eq!(
            generate("gen:pref:500:3", 5),
            Ok(gen::pref_attach(500, 3, 5))
        );
        // An attachment of zero is raised to one.
        assert_eq!(
            generate("gen:pref:500:0", 5),
            Ok(gen::pref_attach(500, 1, 5))
        );
    }

    #[test]
    fn grid_specs_take_rows_by_cols_or_one_side() {
        assert_eq!(generate("gen:grid:3x5", 0), Ok(gen::grid2d(3, 5)));
        assert_eq!(generate("gen:grid:4", 0), Ok(gen::grid2d(4, 4)));
        // The floor is eight vertices.
        assert_eq!(generate("gen:grid:2x4", 0), Ok(gen::grid2d(2, 4)));
        assert!(generate("gen:grid:2x3", 0).is_err());
        assert!(generate("gen:grid:2", 0).is_err());
    }

    #[test]
    fn kron_scale_is_capped_at_24() {
        assert_eq!(
            generate("gen:kron:25", 0),
            Err("gen:kron scale capped at 24".into())
        );
    }

    #[test]
    fn a_spec_outside_the_grammar_names_the_grammar() {
        for spec in ["gen:ring:10", "gen:grid", "gen:grid:4xq", "gen:grid:4:4"] {
            let msg = generate(spec, 0).unwrap_err();
            assert_eq!(
                msg,
                format!(
                    "bad generator spec {spec:?} (want gen:kron:<scale>[:<ef>], \
                     gen:grid:<rows>[x<cols>], or gen:pref:<n>[:<attach>])"
                )
            );
        }
    }

    #[test]
    fn a_missing_file_is_a_typed_read_error() {
        let path = std::env::temp_dir().join("parhde-input-test-no-such-file.mtx");
        let err = read_text(&path).unwrap_err();
        assert_eq!(err.context, format!("cannot read {}", path.display()));
        assert!(matches!(err.error, HdeError::Io(_)), "{:?}", err.error);
    }
}
