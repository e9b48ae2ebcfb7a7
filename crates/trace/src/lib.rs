//! `fss-trace`: the streaming giant-trace subsystem.
//!
//! Everything trace-shaped in the workspace flows through this crate:
//!
//! - **Wire format** ([`mod@line`]) — the `{"ports":N}` header and
//!   `{"release":R,"src":S,"dst":D}` arrival line grammar
//!   ([`parse_trace_event`]), shared by the trace reader and the serve
//!   ingest loop; the port-range / sorted-release rule
//!   ([`line::ArrivalCheck`]) reader and writer both apply; and the
//!   [`TraceFileError`] they report through.
//! - **Streaming replay** (`stream`) — [`Lines`], the workspace's one
//!   bounded line reader (trace files, coflow CSV, `flowsched serve`'s
//!   ingest and its clients, the bench checkpoint), and
//!   [`StreamingTraceSource`], the workspace's one trace reader: a [`fss_engine::FlowSource`]
//!   replaying arbitrarily large trace files one line at a time (O(1)
//!   memory in the trace length) with full incremental validation;
//!   [`scan`] runs the same validator over a whole file without keeping
//!   any of it.
//! - **Emission** (`writer`) — [`TraceWriter`], the workspace's one
//!   trace writer: the validating sink the generator, converter,
//!   morpher and `fss_sim::ArrivalTrace::save` write through, so
//!   anything it produces is guaranteed to load.
//! - **Ingestion** (`convert`) — [`convert_file`] turns coflow-CSV
//!   workloads (the datacenter-trace schema of the coflow literature)
//!   into arrival traces by deterministic port folding and byte →
//!   unit-flow quantization.
//! - **Morphing** (`morph`) — composable O(1)-memory transforms
//!   (rate scale, dilation, seeded Zipf skew, port fold,
//!   window/truncate) over files ([`morph_file`]) or live sources
//!   ([`MorphedSource`]).
//! - **Generation** (`gen`) — [`write_trace`] drains any
//!   [`fss_engine::FlowSource`] straight to disk ([`write_poisson_trace`]:
//!   a seeded synthetic one), the manufacturing step for traces larger
//!   than RAM.
//! - **Statistics** (`stats`) — [`scan_stats`] one-pass summaries
//!   (flows, horizon, per-round burstiness histogram, hot ports) for
//!   `flowsched trace stats`.
//! - **Sharding** (`split`) — [`split_file`] fans one giant trace out
//!   into `N` release-sorted sub-traces, round-robin by port shard
//!   (`src % N`), at O(shards) memory.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod convert;
mod gen;
pub mod line;
mod morph;
mod split;
mod stats;
mod stream;
mod writer;

pub use convert::{convert_file, convert_stream, units_per_pair, ConvertOptions};
pub use gen::{write_poisson_trace, write_trace};
pub use line::{
    arrival_line, header_line, parse_trace_event, push_u64, TraceEvent, TraceFileError, MAX_PORTS,
    MAX_RELEASE,
};
pub use morph::{morph_file, MorphPipeline, MorphSpec, MorphedSource};
pub use split::split_file;
pub use stats::{scan_stats, TraceStats};
pub use stream::{
    scan, scan_with, Lines, StreamingTraceReader, StreamingTraceSource, TraceErrorHandle,
    TraceSummary,
};
pub use writer::TraceWriter;
