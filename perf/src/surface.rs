//! The benchmark surface: every public item of the workspace the harness
//! links, in one place, so a later refactor knows exactly what must keep
//! compiling (or must be re-pointed here). Nothing else in `perf/` names
//! an `fss-*` crate.

pub use fss_engine::{
    run_stream_cores, run_stream_telemetry, run_stream_with, Arrival, BuiltinPolicy, EngineMode,
    EngineTelemetry, FlowSource, PoissonSource, ShardedQueues, StreamStats,
};
pub use fss_matching::{max_cardinality_matching_into, BipartiteGraph, HungarianScratch};
pub use fss_serve::{
    parse_ingest, run_server_on, serve_reader, ServeMetrics, ServeMsg, ServeOptions, Sink,
};
pub use fss_sim::PolicyKind;
pub use fss_telemetry::TelemetrySnapshot;
pub use fss_trace::{parse_trace_event, scan, StreamingTraceSource, TraceWriter};
