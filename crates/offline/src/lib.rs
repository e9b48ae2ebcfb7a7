//! # fss-offline — the paper's offline approximation algorithms
//!
//! Implements both main results of *Scheduling Flows on a Switch to
//! Optimize Response Times* (SPAA 2020):
//!
//! * [`art`] — **average response time** (§3): the LP (1)–(4) lower bound
//!   (Lemma 3.1), the Bansal–Kulkarni-style iterative rounding cascade
//!   LP(ℓ) producing a low-backlog pseudo-schedule (Lemma 3.3), and the
//!   window/edge-coloring realization that turns it into a valid schedule
//!   under a `(1+c)` capacity blow-up (Theorem 1);
//! * [`mrt`] — **maximum response time** (§4): the time-constrained LP
//!   (19)–(21), dependent rounding to an integral schedule with additive
//!   port augmentation `≤ 2·dmax − 1` (Theorem 3), a binary-search driver
//!   for the minimum feasible response bound, and the deadline-model
//!   generalization (Remark 4.2);
//! * [`hardness`] — the Theorem 2 reduction gadget (Restricted Timetable)
//!   and the Figure 4 lower-bound instances for the online section;
//! * [`greedy_schedule`] — FIFO list scheduling (feasible baseline; also supplies
//!   finite LP horizons);
//! * [`exact`] — branch-and-bound optimal solvers for tiny instances, used
//!   to validate optimality claims and integrality gaps in tests.

#![warn(unreachable_pub)]

pub mod art;
pub mod exact;
mod greedy;
pub mod hardness;
pub mod mrt;

pub use greedy::greedy_schedule;
