//! # fss-matching — bipartite matching substrate
//!
//! The paper's simulator leans on LEMON 1.3.1 for "various graph algorithms
//! such as traversals and matchings" (§5.2.2), and the offline algorithm for
//! average response time needs Birkhoff–von Neumann-style decompositions and
//! the b-matching ↔ matching replication transform (Theorem 1). This crate
//! provides all of it from scratch:
//!
//! * [`BipartiteGraph`] — a bipartite multigraph with edge identities;
//! * [`hopcroft_karp`] — maximum-cardinality matching in `O(E sqrt(V))`
//!   (the **MaxCard** heuristic);
//! * [`hungarian`] — maximum-weight matching in `O(V^3)` via the
//!   Jonker–Volgenant shortest-augmenting-path form of the Hungarian
//!   algorithm: the differential-test oracle for the **MinRTime** and
//!   **MaxWeight** heuristics, which run on [`HungarianScratch`] through
//!   `fss_online::weighted`;
//! * [`greedy`] — ordered maximal matching (FIFO baseline);
//! * [`koenig`] — König edge coloring: every bipartite multigraph is
//!   Δ-edge-colorable; each color class is a matching (this is the
//!   constructive Birkhoff–von Neumann step of Theorem 1);
//! * [`bmatching`] — port-replication transform turning capacity-`c` ports
//!   into `c` unit replicas so a coloring yields b-matchings;
//! * [`bitset`] — the row-bitset layout the matching kernels share
//!   ([`HungarianScratch`] here, the incremental and exact MaxCard
//!   matchers in `fss-engine`), with König's cover as their one
//!   maximality check.

pub mod bitset;
pub mod bmatching;
pub mod graph;
pub mod greedy;
pub mod hopcroft_karp;
pub mod hungarian;
pub mod koenig;
pub mod scratch;

pub use bmatching::decompose_into_b_matchings;
pub use graph::BipartiteGraph;
pub use greedy::{greedy_matching, greedy_matching_into};
pub use hopcroft_karp::{max_cardinality_matching, max_cardinality_matching_into};
pub use hungarian::{max_weight_matching, total_weight};
pub use koenig::edge_coloring;
pub use scratch::{HungarianScratch, SolverWork};
