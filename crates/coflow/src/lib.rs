//! # fss-coflow — co-flow scheduling on a switch
//!
//! The paper's future-work section (§6) asks for extensions "to more
//! general types of flows (e.g., co-flows)", and its related-work section
//! is anchored in the co-flow literature (Varys, and the completion-time
//! approximation algorithms it cites). This crate provides that layer on
//! top of the `fss-core` model:
//!
//! * a [`CoflowInstance`] groups flows into co-flows — a co-flow completes
//!   when its *last* member flow completes (the semantics of a distributed
//!   shuffle stage);
//! * [`evaluate`] computes co-flow response times (CCT analogs) for any
//!   flow-level [`fss_core::Schedule`];
//! * [`schedule_coflows`] runs co-flow-aware round-based schedulers:
//!   **SEBF** (smallest effective bottleneck first, the Varys ordering),
//!   **FIFO** (arrival order), and **fair** round-robin sharing;
//! * [`bottleneck_lower_bound`] sums the per-coflow bottleneck bound
//!   `Γ = max_port load/capacity` that CCT cannot beat.

#![warn(unreachable_pub)]

mod bound;
pub mod instance;
mod metrics;
mod schedulers;

pub use bound::bottleneck_lower_bound;
pub use instance::{CoflowId, CoflowInstance};
pub use metrics::{evaluate, CoflowMetrics};
pub use schedulers::{schedule_coflows, CoflowOrdering};
