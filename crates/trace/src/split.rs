//! Trace sharding: split one giant trace into `N` release-sorted
//! sub-traces, round-robin by port shard.
//!
//! [`split_file`] distributes a giant workload across processes:
//! arrivals go to shard `src % N`, so shard `k`'s sub-trace contains
//! exactly the arrivals of the input ports congruent to `k`.
//!
//! Guarantees, by construction:
//!
//! - **Each sub-trace is a valid trace.** Output goes through
//!   [`TraceWriter`], so port range and nondecreasing releases are
//!   enforced on the way out — and releases within a shard are a
//!   subsequence of the (sorted) input stream, so the sort invariant
//!   holds automatically.
//! - **The split is a partition.** Every input arrival lands in exactly
//!   one sub-trace; flow counts across the shards sum to the input's.
//! - **O(shards) memory.** One streaming reader, `N` buffered writers;
//!   nothing is materialized, so traces far larger than RAM split fine.

use std::path::{Path, PathBuf};

use crate::line::TraceFileError;
use crate::stream::{StreamingTraceSource, TraceSummary};
use crate::writer::TraceWriter;
use fss_engine::FlowSource;

/// The shard an arrival with input port `src` belongs to (round-robin
/// by port): `src % shards`.
pub(crate) fn shard_of(src: u32, shards: usize) -> usize {
    src as usize % shards
}

/// The sub-trace path for shard `k` of `prefix`: `<prefix>.<k>.jsonl`.
pub(crate) fn shard_path(prefix: &str, k: usize) -> PathBuf {
    PathBuf::from(format!("{prefix}.{k}.jsonl"))
}

/// Split `input` into `shards` sub-traces `<prefix>.<k>.jsonl`,
/// round-robin by port shard (`src % shards`). Each sub-trace keeps the
/// input's port header, so it replays on the same switch. Returns one
/// `(path, summary)` per shard, in shard order.
///
/// The input is fully validated as it streams (a malformed line fails
/// the split with the line cited); outputs are validated by
/// [`TraceWriter`] on the way out.
pub fn split_file(
    input: impl AsRef<Path>,
    prefix: &str,
    shards: usize,
) -> Result<Vec<(PathBuf, TraceSummary)>, TraceFileError> {
    let input = input.as_ref();
    if shards == 0 {
        return Err(TraceFileError::ZeroOption { option: "shards" });
    }
    let mut source = StreamingTraceSource::open(input)?;
    let ports = source.ports();
    let errors = source.error_handle();
    let mut writers = Vec::with_capacity(shards);
    for k in 0..shards {
        writers.push(TraceWriter::create(shard_path(prefix, k), ports)?);
    }
    while let Some(a) = source.next_arrival() {
        writers[shard_of(a.src, shards)].write_arrival(a.release, a.src, a.dst)?;
    }
    // A mid-stream validation failure ends the source early and parks
    // the error in the handle; surface it instead of a silent short
    // split.
    if let Some(e) = errors.get() {
        return Err(e);
    }
    let mut out = Vec::with_capacity(shards);
    for (k, w) in writers.into_iter().enumerate() {
        out.push((shard_path(prefix, k), w.finish()?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::write_poisson_trace;
    use crate::stream::scan;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fss-trace-split-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn split_partitions_by_port_shard() {
        let input = tmp("in.jsonl");
        let s = write_poisson_trace(&input, 6, 4.0, 30, 7).unwrap();
        let prefix = tmp("shard").display().to_string();
        let parts = split_file(&input, &prefix, 3).unwrap();
        assert_eq!(parts.len(), 3);
        let total: u64 = parts.iter().map(|(_, p)| p.flows).sum();
        assert_eq!(total, s.flows, "split must be a partition");
        for (k, (path, part)) in parts.iter().enumerate() {
            assert_eq!(part.ports, 6, "shards keep the input's switch size");
            // Re-scan from disk: every sub-trace must be a valid trace,
            // and hold only its shard's ports.
            let rescan = scan(path).unwrap();
            assert_eq!(rescan.flows, part.flows);
            let mut src = StreamingTraceSource::open(path).unwrap();
            while let Some(a) = src.next_arrival() {
                assert_eq!(shard_of(a.src, 3), k, "arrival on the wrong shard");
            }
            assert_eq!(src.error_handle().get(), None);
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let input = tmp("in0.jsonl");
        write_poisson_trace(&input, 2, 1.0, 4, 1).unwrap();
        let prefix = tmp("none").display().to_string();
        let err = split_file(&input, &prefix, 0).unwrap_err();
        assert_eq!(err, TraceFileError::ZeroOption { option: "shards" });
        assert_eq!(err.to_string(), "shards must be at least 1");
        assert!(!shard_path(&prefix, 0).exists(), "no shard is created");
    }

    #[test]
    fn single_shard_copies_the_trace() {
        let input = tmp("in1.jsonl");
        let s = write_poisson_trace(&input, 4, 3.0, 12, 9).unwrap();
        let prefix = tmp("one").display().to_string();
        let parts = split_file(&input, &prefix, 1).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].1.flows, s.flows);
        assert_eq!(parts[0].1.horizon, s.horizon);
    }
}
