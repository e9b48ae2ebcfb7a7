//! Registered experiment definitions, one module per family.
//!
//! Each module exposes constructor functions returning
//! [`crate::registry::Experiment`] values; [`crate::registry::registry`]
//! lists them all. A cell derives its seeds from its own values, never
//! from its position in a grid or a run, so a cell is number-for-number
//! the direct library call its id and params spell out (asserted by
//! `tests/registry_differential.rs`).

pub mod coflow_replay;
pub mod figures;
pub mod saturation;
pub mod tables;
pub mod trace_replay;
