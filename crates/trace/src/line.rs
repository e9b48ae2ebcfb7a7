//! The trace wire format, one line at a time.
//!
//! This module owns the line-level grammar of arrival traces — the
//! `{"ports":N}` header and `{"release":R,"src":S,"dst":D}` arrival
//! shapes — and the error type every trace reader in the workspace
//! reports through. The in-memory loader (`fss_sim::ArrivalTrace`), the
//! streaming reader ([`crate::StreamingTraceSource`]), and the serve
//! ingest loop all recognize lines through [`parse_trace_event`], so a
//! file that loads as a trace replays identically as a live stream.

use std::fmt;

use serde::{Deserialize, Serialize};

/// One trace arrival line (the on-disk form of an
/// [`fss_core::Arrival`]; ids are implicit sequence numbers, assigned
/// by the consumer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct TraceLine {
    pub(crate) release: u64,
    pub(crate) src: u32,
    pub(crate) dst: u32,
}

/// The trace header: the switch size the arrivals are addressed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct TraceHeader {
    pub(crate) ports: usize,
}

/// Largest switch a trace header (or a scenario spec) may declare.
///
/// Engine state is `O(ports²)` words, allocated up front from this one
/// number — at most 29 bytes per `(input, output)` cell in the weighted
/// modes (queue count/head/tail, oldest release, Hungarian weight, dirty
/// mark) — so an unchecked header is an unbounded allocation on a length
/// field: `{"ports":3000000}` asks for 36 TB and aborts the process. At
/// 2048 ports the worst case is ~116 MiB, under the 256 MiB RSS ceiling
/// the giant-trace replay is held to, and 13x the paper's `m = 150`.
pub const MAX_PORTS: usize = 2048;

/// One parsed line of the trace wire format — the trace → live event
/// bridge: the same JSONL lines that make up an on-disk trace can be
/// streamed to a live consumer (`flowsched serve`) one event at a time,
/// so a raw trace file *is* a valid ingest stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The `{"ports":N}` header line.
    Header {
        /// Declared switch size (`ports x ports`).
        ports: usize,
    },
    /// One `{"release":R,"src":S,"dst":D}` arrival line (the id is a
    /// sequence number, assigned by the consumer).
    Arrival {
        /// Release round.
        release: u64,
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
    },
}

/// Parse one line of the trace schema into a [`TraceEvent`].
///
/// This is the one place the line shapes are recognized: the in-memory
/// loader, the streaming reader, and the serve ingest loop all go
/// through it. Validation (port range, sorted releases) stays with the
/// consumer, which knows the stream context — except the header's
/// [`MAX_PORTS`] bound, checked here so no consumer can size engine
/// state from an unchecked count.
///
/// A line that parses as neither shape reports **both** candidate
/// errors: a malformed arrival (`{"release":0,"src":3}`, say) would
/// otherwise surface only the irrelevant header complaint, leaving the
/// actual field mistake undiagnosable.
pub fn parse_trace_event(line: &str) -> Result<TraceEvent, String> {
    // Arrivals outnumber the single header a million to one: try them
    // first.
    let arrival_err = match serde_json::from_str::<TraceLine>(line) {
        Ok(rec) => {
            return Ok(TraceEvent::Arrival {
                release: rec.release,
                src: rec.src,
                dst: rec.dst,
            })
        }
        Err(e) => e,
    };
    match serde_json::from_str::<TraceHeader>(line) {
        Ok(h) if h.ports > MAX_PORTS => Err(format!(
            "header declares {} ports; the limit is {MAX_PORTS}",
            h.ports
        )),
        Ok(h) => Ok(TraceEvent::Header { ports: h.ports }),
        Err(header_err) => Err(format!(
            "not a trace event: as arrival {{\"release\":R,\"src\":S,\"dst\":D}}: {arrival_err}; \
             as header {{\"ports\":N}}: {header_err}"
        )),
    }
}

/// Render an arrival as its canonical trace line (no trailing newline).
pub fn arrival_line(release: u64, src: u32, dst: u32) -> String {
    serde_json::to_string(&TraceLine { release, src, dst }).expect("line is serializable")
}

/// Render the canonical `{"ports":N}` header line (no trailing newline).
pub fn header_line(ports: usize) -> String {
    serde_json::to_string(&TraceHeader { ports }).expect("header is serializable")
}

/// Errors raised while reading, validating, converting, or writing a
/// trace file.
///
/// The variants mirror `fss_sim::ScenarioError`'s trace subset exactly
/// (the sim crate converts losslessly), so the streaming reader rejects
/// a malformed file with the *same* diagnosis — down to the 1-based
/// line number — as the in-memory loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFileError {
    /// Reading or writing a file failed.
    Io {
        /// The offending path.
        path: String,
        /// The OS error.
        msg: String,
    },
    /// A line failed to parse (1-based line; 0 = whole file).
    Parse {
        /// Line the error was detected on.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// An arrival references a port outside the header's range.
    PortOutOfRange {
        /// Line the arrival is on.
        line: usize,
        /// The out-of-range port.
        port: u32,
        /// Ports declared by the header.
        ports: usize,
    },
    /// Releases must be nondecreasing (the `FlowSource` contract).
    UnsortedRelease {
        /// Line the violation is on.
        line: usize,
        /// The previous release round.
        prev: u64,
        /// The offending (smaller) release round.
        next: u64,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io { path, msg } => write!(f, "{path}: {msg}"),
            TraceFileError::Parse { line: 0, msg } => write!(f, "parse error: {msg}"),
            TraceFileError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            TraceFileError::PortOutOfRange { line, port, ports } => write!(
                f,
                "line {line}: port {port} out of range (trace declares {ports} ports)"
            ),
            TraceFileError::UnsortedRelease { line, prev, next } => write!(
                f,
                "line {line}: release {next} after {prev} (traces must be sorted by release)"
            ),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl TraceFileError {
    /// Wrap an I/O error with its path.
    pub fn io(path: impl fmt::Display, err: impl fmt::Display) -> TraceFileError {
        TraceFileError::Io {
            path: path.to_string(),
            msg: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_events_parse_line_by_line() {
        assert_eq!(
            parse_trace_event("{\"ports\":8}").unwrap(),
            TraceEvent::Header { ports: 8 }
        );
        assert_eq!(
            parse_trace_event("{\"release\":3,\"src\":1,\"dst\":7}").unwrap(),
            TraceEvent::Arrival {
                release: 3,
                src: 1,
                dst: 7
            }
        );
        assert!(parse_trace_event("{\"kind\":\"Finish\"}").is_err());
        assert!(parse_trace_event("not json").is_err());
    }

    #[test]
    fn oversized_header_is_rejected_at_the_limit() {
        assert_eq!(
            parse_trace_event(&header_line(MAX_PORTS)).unwrap(),
            TraceEvent::Header { ports: MAX_PORTS }
        );
        let err = parse_trace_event("{\"ports\":3000000}").unwrap_err();
        assert!(err.contains("3000000 ports"), "{err}");
        assert!(err.contains("limit is 2048"), "{err}");
    }

    #[test]
    fn malformed_arrival_reports_both_candidate_errors() {
        // A typo'd arrival line must surface the *arrival* shape's
        // complaint, not only the header's (the pre-fix behavior).
        let err = parse_trace_event("{\"release\":3,\"src\":1}").unwrap_err();
        assert!(err.contains("as arrival"), "{err}");
        assert!(err.contains("dst"), "must name the missing field: {err}");
        assert!(err.contains("as header"), "{err}");
    }

    #[test]
    fn canonical_lines_round_trip() {
        assert_eq!(header_line(8), "{\"ports\":8}");
        assert_eq!(arrival_line(3, 1, 7), "{\"release\":3,\"src\":1,\"dst\":7}");
        assert_eq!(
            parse_trace_event(&arrival_line(3, 1, 7)).unwrap(),
            TraceEvent::Arrival {
                release: 3,
                src: 1,
                dst: 7
            }
        );
        assert_eq!(
            parse_trace_event(&header_line(4)).unwrap(),
            TraceEvent::Header { ports: 4 }
        );
    }

    #[test]
    fn errors_render_with_line_context() {
        let e = TraceFileError::PortOutOfRange {
            line: 7,
            port: 9,
            ports: 4,
        };
        assert_eq!(
            e.to_string(),
            "line 7: port 9 out of range (trace declares 4 ports)"
        );
        let e = TraceFileError::UnsortedRelease {
            line: 3,
            prev: 5,
            next: 2,
        };
        assert!(e.to_string().contains("release 2 after 5"));
    }
}
