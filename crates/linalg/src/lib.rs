//! # fss-linalg — dense linear algebra substrate
//!
//! A small, dependency-free dense linear algebra toolkit backing the
//! workspace's LP solver:
//!
//! * [`Matrix`] — dense row-major `f64` matrix (the simplex tableau);
//! * [`solve`] — Gaussian elimination with partial pivoting: linear solves
//!   (the simplex proptest's vertex enumeration).
//!
//! Everything is `f64` with explicit tolerances; the LP layer owns the
//! decisions about what counts as zero.

#![warn(unreachable_pub)]

mod elim;
mod matrix;

pub use elim::solve;
pub use matrix::Matrix;
