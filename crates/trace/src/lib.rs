//! `fss-trace`: the streaming giant-trace subsystem.
//!
//! Everything trace-shaped in the workspace flows through this crate:
//!
//! - **Wire format** ([`mod@line`]) — the `{"ports":N}` header and
//!   `{"release":R,"src":S,"dst":D}` arrival line grammar
//!   ([`parse_trace_event`]), shared by the in-memory loader
//!   (`fss_sim::ArrivalTrace`), the streaming reader, and the serve
//!   ingest loop; plus the [`TraceFileError`] every reader reports
//!   through.
//! - **Streaming replay** ([`stream`]) — [`StreamingTraceSource`], a
//!   chunk-buffered [`fss_engine::FlowSource`] replaying arbitrarily
//!   large trace files at O(chunk) memory with full incremental
//!   validation; [`scan`] runs the same validator over a whole file
//!   without keeping any of it.
//! - **Emission** ([`writer`]) — [`TraceWriter`], the validating sink
//!   the generator, converter, and morpher write through: anything
//!   this crate produces is guaranteed to load.
//! - **Ingestion** ([`convert`]) — [`convert_file`] turns coflow-CSV
//!   workloads (the datacenter-trace schema of the coflow literature)
//!   into arrival traces by deterministic port folding and byte →
//!   unit-flow quantization.
//! - **Morphing** ([`morph`]) — composable O(1)-memory transforms
//!   (rate scale, dilation, seeded Zipf skew, port fold,
//!   window/truncate) over files ([`morph_file`]) or live sources
//!   ([`MorphedSource`]).
//! - **Generation** ([`gen`]) — [`write_poisson_trace`] streams seeded
//!   synthetic workloads straight to disk, the manufacturing step for
//!   traces larger than RAM.
//! - **Statistics** ([`stats`]) — [`scan_stats`] one-pass summaries
//!   (flows, horizon, per-round burstiness histogram, hot ports) for
//!   `flowsched trace stats`.
//! - **Sharding** ([`split`]) — [`split_file`] fans one giant trace out
//!   into `N` release-sorted sub-traces, round-robin by port shard
//!   (`src % N`, the pipelined engine's sharding rule), at O(chunk)
//!   memory.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod convert;
pub mod gen;
pub mod line;
pub mod morph;
pub mod split;
pub mod stats;
pub mod stream;
pub mod writer;

pub use convert::{convert_file, convert_stream, units_per_pair, ConvertOptions};
pub use gen::write_poisson_trace;
pub use line::{
    arrival_line, header_line, parse_trace_event, push_u64, TraceEvent, TraceFileError, MAX_PORTS,
};
pub use morph::{morph_file, MorphPipeline, MorphSpec, MorphedSource};
pub use split::{shard_of, shard_path, split_file};
pub use stats::{scan_stats, TraceStats};
pub use stream::{
    scan, scan_with, StreamingTraceReader, StreamingTraceSource, TraceErrorHandle, TraceSummary,
    DEFAULT_CHUNK,
};
pub use writer::TraceWriter;
