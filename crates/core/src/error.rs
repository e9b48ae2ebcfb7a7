//! Error types for model construction and schedule validation.

use std::fmt;

/// Errors raised while constructing an [`crate::Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A flow references an input port index `>= m`.
    BadInputPort {
        /// Index of the offending flow.
        flow: usize,
        /// The out-of-range port index.
        port: u32,
        /// Number of input ports.
        m: u32,
    },
    /// A flow references an output port index `>= m'`.
    BadOutputPort {
        /// Index of the offending flow.
        flow: usize,
        /// The out-of-range port index.
        port: u32,
        /// Number of output ports.
        m_out: u32,
    },
    /// A flow's demand exceeds `kappa_e = min(c_src, c_dst)` (paper §2
    /// assumes `d_e <= kappa_e` throughout).
    DemandExceedsKappa {
        /// Index of the offending flow.
        flow: usize,
        /// The flow's demand.
        demand: u32,
        /// The endpoint capacity bound `min(c_src, c_dst)`.
        kappa: u32,
    },
    /// A flow has zero demand; the model requires positive demands.
    ZeroDemand {
        /// Index of the offending flow.
        flow: usize,
    },
    /// A port was declared with zero capacity.
    ZeroCapacity {
        /// Which side of the switch the port is on.
        side: crate::switch::PortSide,
        /// The zero-capacity port index.
        port: u32,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelError::BadInputPort { flow, port, m } => {
                write!(f, "flow {flow}: input port {port} out of range (m = {m})")
            }
            ModelError::BadOutputPort { flow, port, m_out } => {
                write!(
                    f,
                    "flow {flow}: output port {port} out of range (m' = {m_out})"
                )
            }
            ModelError::DemandExceedsKappa {
                flow,
                demand,
                kappa,
            } => {
                write!(f, "flow {flow}: demand {demand} exceeds kappa = {kappa}")
            }
            ModelError::ZeroDemand { flow } => write!(f, "flow {flow}: zero demand"),
            ModelError::ZeroCapacity { side, port } => {
                write!(f, "{side:?} port {port}: zero capacity")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Errors raised while validating a [`crate::Schedule`] against an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Schedule length does not match the number of flows.
    LengthMismatch {
        /// Flows in the instance.
        flows: usize,
        /// Assignments in the schedule.
        assignments: usize,
    },
    /// A flow is scheduled strictly before its release round.
    ScheduledBeforeRelease {
        /// Index of the offending flow.
        flow: usize,
        /// The round it was scheduled in.
        round: u64,
        /// Its release round.
        release: u64,
    },
    /// A port's capacity is exceeded in some round.
    CapacityExceeded {
        /// Which side of the switch the port is on.
        side: crate::switch::PortSide,
        /// The overloaded port index.
        port: u32,
        /// The round the overload occurs in.
        round: u64,
        /// Scheduled load on the port in that round.
        load: u64,
        /// The port's (possibly augmented) capacity.
        capacity: u64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValidationError::LengthMismatch { flows, assignments } => {
                write!(f, "schedule covers {assignments} flows, instance has {flows}")
            }
            ValidationError::ScheduledBeforeRelease { flow, round, release } => {
                write!(f, "flow {flow} scheduled at round {round} before release {release}")
            }
            ValidationError::CapacityExceeded { side, port, round, load, capacity } => write!(
                f,
                "{side:?} port {port} overloaded at round {round}: load {load} > capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}
