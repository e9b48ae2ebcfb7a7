//! # fss-online — online flow scheduling
//!
//! The paper's §5: the scheduler learns about a flow only at its release
//! round and must pick, each round, a set of waiting flows forming a
//! feasible round (a matching, for unit capacities).
//!
//! * [`OnlinePolicy`] — the policy trait, and the paper's three
//!   heuristics (§5.2): **MaxCard** (maximum-cardinality matching),
//!   **MinRTime** (maximum-weight matching, weight = waiting time) and
//!   **MaxWeight** (maximum-weight matching, weight = endpoint queue
//!   sizes), plus a FIFO-greedy baseline;
//! * [`weighted`] — the incremental weighted-matching core behind
//!   MinRTime/MaxWeight: persistent dual potentials carried across
//!   rounds, re-solving only the rows dirtied by arrivals and dispatches;
//! * [`run_policy`] — the round-by-round online execution loop shared by the
//!   test-suite and the simulator crate;
//! * [`amrt_schedule`] — the batching algorithm of Lemma 5.3: a constant-competitive
//!   algorithm for maximum response time under constant-factor resource
//!   augmentation, built on the offline Theorem 3 solver.

#![warn(unreachable_pub)]

mod amrt;
mod policy;
mod policy_ext;
mod runner;
pub mod weighted;

pub use amrt::{amrt_schedule, AmrtResult};
pub use policy::{FifoGreedy, MaxCard, MaxWeight, MinRTime, OnlinePolicy, QueueState, WaitingFlow};
pub use policy_ext::AgedMaxWeight;
pub use runner::{run_policy, run_policy_under};
pub use weighted::{WeightModel, WeightedCore};
