//! # flow-switch — umbrella crate
//!
//! A from-scratch Rust reproduction of *Scheduling Flows on a Switch to
//! Optimize Response Times* (Jahanjou, Rajaraman, Stalfa — SPAA 2020).
//!
//! This crate re-exports the workspace's public surface:
//!
//! * [`core`] — the switch / flow / schedule model and metrics;
//! * [`lp`] — the linear-programming substrate (two-phase simplex);
//! * [`matching`] — bipartite matching, edge coloring, BvN decomposition;
//! * [`rounding`] — dependent rounding (iterative LP relaxation);
//! * [`offline`] — the paper's offline approximation algorithms
//!   (FS-ART iterative rounding, FS-MRT LP rounding);
//! * [`online`] — online heuristics (MaxCard / MinRTime / MaxWeight) and
//!   the AMRT algorithm, plus the reference round-by-round runner (kept
//!   for differential testing);
//! * [`engine`] — the event-driven incremental scheduling engine: one
//!   round loop whose clock jumps between arrival, dispatch and
//!   outage-end rounds and so skips idle ones, an incremental matcher
//!   that maintains the maximum matching across rounds and repairs only
//!   augmenting paths from ports dirtied by arrivals/departures, the
//!   [`engine::FlowSource`] streaming-arrival trait (batch instance
//!   adapter + unbounded Poisson generator), and per-port sharded queue
//!   state. This is the hot path behind every figure and table binary;
//!   its exact mode is round-for-round identical to the reference runner;
//! * [`sim`] — the flow-level simulator and the paper's experiment
//!   runner (heuristic execution routes through [`engine`]);
//! * [`coflow`] — the co-flow generalization (§6 future work): grouped
//!   flows, CCT-style metrics, SEBF / FIFO / fair schedulers;
//! * [`serve`] — the live serving path (`flowsched serve`): JSONL
//!   arrival ingest over a socket or stdin, bounded admission control
//!   with explicit backpressure, a streaming dispatch-decision
//!   response, a Prometheus `/metrics` endpoint, and the soak harness
//!   that strict-diffs live schedules against `run_scenario`;
//! * [`flight`] — the flight recorder: per-thread lock-free span rings
//!   drained into a bounded on-disk spool, a Chrome Trace Format
//!   exporter (load the JSON in Perfetto), and the stall watchdog that
//!   dumps a post-mortem when the round counter stops advancing.
//!   Wired through `--flight-trace` on `stream`/`bench`/`serve` and
//!   the `flowsched flight` subcommands; disabled tracing is
//!   measured-zero overhead and never changes schedules.
//!
//! See `examples/quickstart.rs` for an end-to-end tour, and
//! `flowsched stream` for driving unbounded streaming workloads.

pub use fss_coflow as coflow;
pub use fss_core as core;
pub use fss_engine as engine;
pub use fss_flight as flight;
pub use fss_lp as lp;
pub use fss_matching as matching;
pub use fss_offline as offline;
pub use fss_online as online;
pub use fss_rounding as rounding;
pub use fss_serve as serve;
pub use fss_sim as sim;
pub use fss_telemetry as telemetry;
pub use fss_trace as trace;

/// One-stop import for examples and integration tests.
pub mod prelude {
    pub use fss_core::prelude::*;
}
