//! Zero-allocation observability primitives for the flow-switch stack.
//!
//! The crate is deliberately tiny and dependency-free (the in-tree `serde`
//! shim is its only dependency, for artifact persistence). It provides:
//!
//! - [`Counter`]: a lock-free atomic cell for cross-thread metrics
//!   (flows/s) registered in a [`Registry`].
//! - [`LatencyHisto`]: a log2-bucketed histogram over a fixed 64-bucket
//!   array — zero allocation after construction, mergeable, with
//!   p50/p90/p99 estimation whose error is bounded by the bucket width
//!   (an estimate never exceeds 2x the exact quantile; proptested in
//!   `tests/histo_props.rs`).
//! - [`EngineTelemetry`] + [`span!`]: a `&mut`-handle stage timer for the
//!   engine's round loop (ingest → queue update → matching repair →
//!   dispatch). A disabled handle skips every `Instant::now()` call, so
//!   uninstrumented runs pay one branch per stage — measured-zero
//!   overhead — and produce bit-identical schedules.
//! - [`TelemetrySnapshot`]: the serializable, mergeable export format that
//!   rides in `BENCH_*.json` cells, renderable as a
//!   Prometheus text-format export via [`to_prometheus`].
//!
//! Stage taxonomy (fixed, see [`Stage`]): `ingest`, `queue_update`,
//! `match_repair`, `dispatch`.
//!
//! Span-level tracing (the *when*, not just the *how much*) lives in
//! the sibling `fss-flight` crate; [`EngineTelemetry`] carries an
//! optional [`FlightHandle`] so stage activations and rounds record as
//! spans under the same one-branch-when-disabled contract. The handle
//! types are re-exported here so the engine only depends on this crate.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod histo;
mod prom;
mod registry;
mod snapshot;
mod stage;

pub use histo::{HistoSnapshot, LatencyHisto};
pub use prom::to_prometheus;
pub use registry::{Counter, Registry};
pub use snapshot::{StageStat, TelemetrySnapshot};
pub use stage::{EngineTelemetry, Stage};

pub use fss_flight::{FlightHandle, FlightRecorder, SpanKind, TraceSink};
