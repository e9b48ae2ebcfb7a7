//! # fss-core — the switch / flow scheduling model
//!
//! This crate defines the problem model from *Scheduling Flows on a Switch to
//! Optimize Response Times* (Jahanjou, Rajaraman, Stalfa — SPAA 2020, §2):
//!
//! * a [`Switch`] is a bipartite set of capacitated input and output ports
//!   (the "one big switch" abstraction of a datacenter network);
//! * a [`Flow`] is a demand between one input and one output port with a
//!   release round;
//! * an [`Instance`] bundles a switch with a set of flows;
//! * a [`Schedule`] assigns every flow to a single round (the paper's
//!   integral schedules place each flow entirely in one round);
//! * [`metrics`] computes response-time objectives (FS-ART, FS-MRT) and
//!   [`validate`] checks feasibility against (possibly augmented) capacities.
//!
//! All heavier machinery — LP solvers, matchings, rounding, the algorithms
//! themselves — lives in sibling crates and consumes these types.
//!
//! ```
//! use fss_core::prelude::*;
//!
//! // A 2x2 switch with unit capacities and three unit flows.
//! let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
//! b.flow(0, 0, 1, 0); // input 0 -> output 0, demand 1, released at round 0
//! b.flow(0, 1, 1, 0);
//! b.flow(1, 1, 1, 0);
//! let inst = b.build().unwrap();
//!
//! // Schedule: rounds are 0-based; flows 0 and 2 don't conflict.
//! let sched = Schedule::from_rounds(vec![0, 1, 0]);
//! assert!(validate::check(&inst, &sched, &inst.switch).is_ok());
//! let m = metrics::evaluate(&inst, &sched);
//! assert_eq!(m.total_response, 4); // rho = 1, 2, 1
//! assert_eq!(m.max_response, 2);
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod arrival;
mod error;
mod failure;
mod flow;
pub mod gen;
mod instance;
pub mod metrics;
mod schedule;
mod switch;
pub mod transform;
pub mod validate;

pub use arrival::Arrival;
pub use error::{ModelError, ValidationError};
pub use failure::{FailurePlan, Outage};
pub use flow::{Flow, FlowId};
pub use instance::{Instance, InstanceBuilder};
pub use metrics::ResponseMetrics;
pub use schedule::{PseudoSchedule, Round, Schedule};
pub use switch::{PortSide, Switch};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::arrival::Arrival;
    pub use crate::error::{ModelError, ValidationError};
    pub use crate::failure::{FailurePlan, Outage};
    pub use crate::flow::{Flow, FlowId};
    pub use crate::instance::{Instance, InstanceBuilder};
    pub use crate::metrics::{self, ResponseMetrics};
    pub use crate::schedule::{PseudoSchedule, Round, Schedule};
    pub use crate::switch::{PortSide, Switch};
    pub use crate::validate;
}
