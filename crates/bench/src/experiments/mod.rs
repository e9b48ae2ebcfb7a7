//! Registered experiment definitions, one module per family.
//!
//! Each module exposes constructor functions returning
//! [`crate::registry::Experiment`] values; [`crate::registry::registry`]
//! lists them all. A cell derives its seeds from its own values, never
//! from its position in a grid, so a singleton-grid cell is
//! number-for-number the matching point of one whole-grid library call
//! (asserted by `tests/registry_differential.rs`).

pub mod coflow_replay;
pub mod figures;
pub mod probe;
pub mod saturation;
pub mod tables;
pub mod trace_replay;
