//! Workload definitions for the `reproduce` binary.
//!
//! [`collection`] defines the ten-graph benchmark collection mirroring the
//! paper's Table 2 at laptop scale; [`collection::GraphSpec::scale_factor`]
//! lets the same harness regenerate paper-sized instances on bigger
//! hardware. [`reports`] reads back the machine-readable run reports the
//! binaries emit (`--json-report`) for summaries and cross-run comparison.
//! [`input`] loads the graphs `parhde-layout` and `parhde-pack` take: the
//! `gen:` pseudo-inputs and Matrix Market / edge-list text.

#![warn(missing_docs)]

pub mod collection;
pub mod input;
pub mod reports;
