//! Shared utilities for the ParHDE reproduction.
//!
//! This crate deliberately has no heavy dependencies: it provides the small,
//! deterministic building blocks every other crate in the workspace leans on:
//!
//! * [`rng`] — seedable, reproducible pseudo-random number generators
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`]) used by the graph
//!   generators and pivot selection. Experiments in the paper are rerun with
//!   fixed seeds, so all randomness in the workspace flows through these.
//! * [`timing`] — wall-clock timers.
//! * [`fmt`] — human-friendly formatting of counts and durations for the
//!   table-reproduction harness.
//! * [`par`] — the fork-join runtime: a persistent pool of worker threads
//!   behind data-parallel method names (`par_iter`, `join`, ...), bitwise
//!   deterministic at every width.
//! * [`threads`] — runs a closure at an exact width, which the scaling
//!   experiments (Table 4, Figure 4) sweep.
//! * [`supervisor`] — run budgets (wall-clock deadlines, soft memory
//!   budgets, cancellation tokens) polled cooperatively by the kernel hot
//!   loops, their per-thread installation and the [`supervisor::RunCtx`]
//!   that [`par`] carries to the workers running forked work, plus signal
//!   handlers.
//! * [`failpoint`] — process-wide deterministic fault injection: named
//!   sites compiled to one relaxed atomic load when disarmed, armed from
//!   a seed-reproducible schedule (`PARHDE_FAILPOINTS`) for chaos tests.
//! * [`durable`] — what the on-disk formats share: FNV-1a, the durable
//!   publish steps, the trailing checksum and a bounds-checked reader.
//! * [`shortest`] — shortest round-trip `f64` printing, byte for byte
//!   what `{}` prints, for the coordinate CSVs.

#![warn(missing_docs)]

pub mod durable;
pub mod failpoint;
pub mod fmt;
pub mod par;
pub mod rng;
pub mod shortest;
pub mod supervisor;
pub mod threads;
pub mod timing;

pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use supervisor::{cancel_flag, CancelFlag, RunBudget, TripReason};
pub use timing::Timer;
