//! # fss-linalg — dense linear algebra substrate
//!
//! A small, dependency-free dense linear algebra toolkit backing the
//! workspace's LP solver:
//!
//! * [`Matrix`] — dense row-major `f64` matrix (the simplex tableau);
//! * [`elim`] — Gaussian elimination with partial pivoting: linear solves
//!   (the simplex proptest's vertex enumeration).
//!
//! Everything is `f64` with explicit tolerances; the LP layer owns the
//! decisions about what counts as zero.

pub mod elim;
pub mod matrix;

pub use elim::solve;
pub use matrix::Matrix;

/// Default comparison tolerance used across the workspace's numeric code.
pub const EPS: f64 = 1e-9;
