//! In-memory arrival traces and their replay source.
//!
//! An arrival trace is the serialized form of a workload: a JSON-lines
//! file whose header names the switch size and whose remaining lines are
//! one arrival each, sorted by release round —
//!
//! ```text
//! {"ports":8}
//! {"release":0,"src":3,"dst":5}
//! {"release":0,"src":1,"dst":1}
//! {"release":2,"src":7,"dst":0}
//! ```
//!
//! Traces make workloads *replayable*: any synthetic scenario can be
//! dumped to a trace ([`crate::scenario::ScenarioSpec::dump_trace`]) and
//! replayed later — on another machine, against another policy — with
//! bit-identical schedules, and real datacenter arrival logs can be
//! converted to the same format.
//!
//! The format itself — grammar, validation, reader, writer — belongs to
//! `fss-trace`. [`ArrivalTrace`] is only the value a caller holds when
//! it wants the whole (small) trace at once, to replay it several times
//! or hand it to the batch paths: it decodes by draining
//! [`fss_trace::StreamingTraceReader`] and saves through
//! [`fss_trace::TraceWriter`]. Scenario replay never builds one (see
//! [`crate::scenario::ScenarioSpec::source`]).

use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use fss_core::prelude::*;
use fss_engine::FlowSource;
use fss_trace::line::ArrivalCheck;
use fss_trace::{StreamingTraceReader, TraceWriter};

use crate::scenario::ScenarioError;

// Re-exported because `fss-serve` reaches the line grammar through this
// crate (its ingest loop parses with `parse_trace_event`, its response
// renderer writes integers with `push_u64`, its admission gate bounds
// releases by `MAX_RELEASE`, a session bounds its port count by
// `MAX_PORTS`) rather than through a manifest edge of its own.
pub use fss_trace::{parse_trace_event, push_u64, TraceEvent, MAX_PORTS, MAX_RELEASE};

/// A validated, in-memory arrival trace: a square unit-capacity switch
/// plus arrivals sorted by release round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTrace {
    /// Switch size (`ports x ports`, unit capacities).
    pub ports: usize,
    /// The arrivals, sorted by `release`; `id`s are the sequence numbers
    /// `0..n` in file order.
    pub arrivals: Vec<Arrival>,
}

impl ArrivalTrace {
    /// Build a trace from raw arrivals (ids are reassigned to sequence
    /// numbers). Returns an error if a port is out of range or the
    /// releases are not sorted.
    pub fn new(ports: usize, mut arrivals: Vec<Arrival>) -> Result<ArrivalTrace, ScenarioError> {
        if ports == 0 {
            return Err(ScenarioError::BadSpec(
                "trace needs at least one port".into(),
            ));
        }
        let mut check = ArrivalCheck::new(ports);
        for (i, a) in arrivals.iter_mut().enumerate() {
            // Errors cite the line the arrival would occupy on disk
            // (1-based, after the header).
            check.admit(i + 2, a.release, a.src, a.dst)?;
            a.id = i as u64;
        }
        Ok(ArrivalTrace { ports, arrivals })
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Encode as JSON lines (header, then one line per arrival).
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        // The fields hold a validated trace and a `Vec` takes every
        // write, so neither step can fail.
        let writer = TraceWriter::from_writer(&mut out, "<jsonl>", self.ports)
            .expect("a validated trace has at least one port");
        self.write(writer)
            .expect("a validated trace passes the writer's checks");
        String::from_utf8(out).expect("trace lines are ASCII")
    }

    /// Decode and validate the JSON-lines form. Blank lines are ignored;
    /// errors carry 1-based line numbers.
    pub fn from_jsonl(text: &str) -> Result<ArrivalTrace, ScenarioError> {
        let reader = StreamingTraceReader::from_reader(text.as_bytes(), "<jsonl>")?;
        let mut arrivals = Vec::new();
        let summary = reader.drain(|a| arrivals.push(*a))?;
        Ok(ArrivalTrace {
            ports: summary.ports,
            arrivals,
        })
    }

    /// Write the trace to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ScenarioError> {
        self.write(TraceWriter::create(path, self.ports)?)
    }

    /// Feed the writer every arrival and flush it.
    fn write<W: Write>(&self, mut writer: TraceWriter<W>) -> Result<(), ScenarioError> {
        for a in &self.arrivals {
            writer.write_arrival(a.release, a.src, a.dst)?;
        }
        writer.finish()?;
        Ok(())
    }

    /// Materialize the trace as a batch [`Instance`] (flow index == trace
    /// sequence number), for the batch paths and differential tests.
    pub fn to_instance(&self) -> Instance {
        let mut b = InstanceBuilder::new(Switch::uniform(self.ports, self.ports, 1));
        for a in &self.arrivals {
            b.unit_flow(a.src, a.dst, a.release);
        }
        b.build()
            .expect("validated trace respects model invariants")
    }
}

/// Streaming replay of an [`ArrivalTrace`]: implements [`FlowSource`], so
/// a trace drives the engine exactly like a synthetic generator. The
/// trace is shared via [`Arc`], so many replays (one per policy, say) pay
/// for one load.
pub struct TraceSource {
    trace: Arc<ArrivalTrace>,
    next: usize,
}

impl TraceSource {
    /// Replay the whole trace.
    pub fn new(trace: Arc<ArrivalTrace>) -> TraceSource {
        TraceSource { trace, next: 0 }
    }
}

impl FlowSource for TraceSource {
    fn m_in(&self) -> usize {
        self.trace.ports
    }

    fn m_out(&self) -> usize {
        self.trace.ports
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = *self.trace.arrivals.get(self.next)?;
        self.next += 1;
        Some(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_trace::TraceFileError;

    impl ArrivalTrace {
        /// One past the last release round (0 for an empty trace).
        fn horizon(&self) -> u64 {
            self.arrivals.last().map_or(0, |a| a.release + 1)
        }
    }

    fn arr(release: u64, src: u32, dst: u32) -> Arrival {
        Arrival {
            id: 0,
            src,
            dst,
            release,
        }
    }

    #[test]
    fn a_trace_file_is_a_valid_event_stream() {
        // The bridge invariant: every line of a dumped trace parses as
        // a TraceEvent, header first, arrivals after.
        let trace = ArrivalTrace::new(4, vec![arr(0, 0, 1), arr(2, 3, 2)]).unwrap();
        let events: Vec<TraceEvent> = trace
            .to_jsonl()
            .lines()
            .map(|l| parse_trace_event(l).unwrap())
            .collect();
        assert_eq!(events[0], TraceEvent::Header { ports: 4 });
        assert_eq!(events.len(), 3);
        assert!(events[1..]
            .iter()
            .all(|e| matches!(e, TraceEvent::Arrival { .. })));
    }

    #[test]
    fn jsonl_round_trip() {
        let trace = ArrivalTrace::new(4, vec![arr(0, 0, 1), arr(0, 3, 2), arr(5, 1, 1)]).unwrap();
        let text = trace.to_jsonl();
        assert!(text.starts_with("{\"ports\":4}\n"));
        let back = ArrivalTrace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.horizon(), 6);
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn ids_are_sequence_numbers() {
        let trace = ArrivalTrace::new(2, vec![arr(0, 0, 0), arr(1, 1, 1)]).unwrap();
        let ids: Vec<u64> = trace.arrivals.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn unsorted_releases_are_rejected() {
        // `new` applies the file reader's rule, citing the would-be file
        // line (the reader's own case is pinned in `fss-trace`).
        assert_eq!(
            ArrivalTrace::new(2, vec![arr(4, 0, 1), arr(3, 1, 0)]),
            Err(ScenarioError::Trace(TraceFileError::UnsortedRelease {
                line: 3,
                prev: 4,
                next: 3,
            }))
        );
    }

    #[test]
    fn loader_reports_the_readers_diagnosis() {
        // The loader owns no grammar: what stops the reader — even
        // mid-stream, where the reader can only park the error — is the
        // load error, and the first offending line wins whatever kind
        // of mistake it is. (The loader this replaced parsed every line
        // before checking any port, and blamed line 3 here.)
        let text = "{\"ports\":2}\n{\"release\":0,\"src\":7,\"dst\":1}\nnot json\n";
        assert_eq!(
            ArrivalTrace::from_jsonl(text),
            Err(ScenarioError::Trace(TraceFileError::PortOutOfRange {
                line: 2,
                port: 7,
                ports: 2,
            }))
        );
    }

    #[test]
    fn source_respects_contract_and_horizon() {
        let trace =
            Arc::new(ArrivalTrace::new(3, vec![arr(0, 0, 1), arr(2, 1, 2), arr(7, 2, 0)]).unwrap());
        let mut s = TraceSource::new(trace.clone());
        assert_eq!(s.m_in(), 3);
        let all: Vec<Arrival> = std::iter::from_fn(|| s.next_arrival()).collect();
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].release <= w[1].release));
        assert!(all.windows(2).all(|w| w[0].id < w[1].id));
        // The replay runs to the trace's own horizon and stays ended.
        assert_eq!(all[2].release + 1, trace.horizon());
        assert_eq!(s.next_arrival(), None);
    }

    #[test]
    fn to_instance_matches_trace_order() {
        let trace = ArrivalTrace::new(2, vec![arr(0, 0, 1), arr(4, 1, 0)]).unwrap();
        let inst = trace.to_instance();
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.flows[1].release, 4);
        assert!(inst.is_unit_demand());
    }
}
