//! # fss-flight — span tracing, flight recorder, and stall watchdog
//!
//! Aggregate telemetry (`fss-telemetry`) says *how much* time each
//! stage took; this crate says *when* — which round was slow, which
//! bench cells overlapped, what the process was doing when it hung.
//! The design follows the timely-dataflow logging idea:
//! every worker thread appends fixed-size events to its own lock-free
//! ring, a sink drains the rings into a bounded on-disk spool, and an
//! exporter renders the spool as Chrome Trace Format JSON (loadable in
//! `chrome://tracing` / Perfetto) with one track per thread.
//!
//! The pieces:
//!
//! - [`SpanEvent`]/[`SpanKind`] — the fixed-size closed-span record
//!   (`span_id, parent, kind, round, t_start_ns, t_end_ns, thread`).
//! - `SpanRing` — per-thread single-producer ring keeping the last N
//!   events (lapping drops the oldest, never blocks the hot path).
//! - [`FlightRecorder`]/[`FlightHandle`] — the registry + the cheap
//!   per-thread handle. A disabled handle is one branch per
//!   instrumentation point: schedules are bit-identical traced vs not
//!   and the disabled path is measured-zero overhead (the
//!   `EngineTelemetry` contract).
//! - [`TraceSink`]/[`read_spool`] — bounded JSONL spool, crash-readable.
//! - [`to_chrome`]/[`check_chrome`]/[`stats`] — export, the CI
//!   validator (required keys, monotonic ts, balanced B/E pairs), and
//!   the `flight stats` top-k report.
//! - [`StallWatchdog`] — monitor thread that dumps a post-mortem (the
//!   last spans) when the round counter stops advancing within a
//!   budget.
//!
//! Surfaced as `--flight-trace OUT.json` on `stream`/`bench`/`serve`
//! and the `flowsched flight` subcommand.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod chrome;
mod event;
mod recorder;
mod ring;
mod spool;
mod watchdog;

pub use chrome::{check_chrome, render_stats, stats, to_chrome, ChromeCheck, StatsReport};
pub use event::{SpanEvent, SpanKind};
pub use recorder::{FlightHandle, FlightRecorder, StallInject};
pub use spool::{
    read_spool, Spool, SpoolSummary, SpoolWriter, TraceSink, WatchdogNote, DEFAULT_SPOOL_MAX_EVENTS,
};
pub use watchdog::{StallWatchdog, DEFAULT_STALL_BUDGET};

/// Environment variable arming the deliberate match-stage stall for
/// the watchdog e2e (`<round>:<millis>`, e.g. `FSS_FLIGHT_FAIL_STALL=50:1500`).
pub(crate) const FAIL_STALL_ENV: &str = "FSS_FLIGHT_FAIL_STALL";

/// Parse `FAIL_STALL_ENV` if set (the CLI arms handles with it).
pub fn stall_inject_from_env() -> Result<Option<StallInject>, String> {
    match std::env::var(FAIL_STALL_ENV) {
        Ok(v) if !v.trim().is_empty() => StallInject::parse(&v)
            .map(Some)
            .map_err(|e| format!("{FAIL_STALL_ENV}: {e}")),
        _ => Ok(None),
    }
}
