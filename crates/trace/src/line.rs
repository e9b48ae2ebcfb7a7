//! The trace wire format, one line at a time.
//!
//! This module owns the line-level grammar of arrival traces — the
//! `{"ports":N}` header and `{"release":R,"src":S,"dst":D}` arrival
//! shapes — the rule a sequence of arrivals must obey
//! ([`ArrivalCheck`]: ports in range, releases sorted and at most
//! [`MAX_RELEASE`]), and the error
//! type every trace reader and writer reports through. The trace reader
//! ([`crate::StreamingTraceReader`]) and the serve ingest loop both
//! recognize lines through [`parse_trace_event`], so a file that loads
//! as a trace replays identically as a live stream.
//!
//! The *canonical* form of a line is the exact bytes this module writes:
//! no whitespace, keys in the order above, plain decimal integers. It has
//! one writer (`push_arrival_line`, over [`push_u64`]) and one
//! recognizer (`canonical_arrival_prefix`) side by side here, neither of
//! which builds a `serde` tree or allocates. The recognizer reads an
//! arrival off the front of a byte slice and hands back what follows its
//! last number, so it has two callers that differ only in what they
//! demand of that rest: [`parse_trace_event`] wants a whole line (`}`
//! and nothing after it), and the trace reader's framed path
//! (`framed_canonical_arrival`) wants `}\n` at the head of the reader's
//! block, so a machine-written line is parsed where it lies, without
//! being copied into a line buffer. Every other spelling of a line goes
//! through the tolerant `serde_json` parse, which is also the oracle the
//! recognizer is property-tested against.

use std::fmt;

use serde::Deserialize;

/// One trace arrival line (the on-disk form of an
/// [`fss_core::Arrival`]; ids are implicit sequence numbers, assigned
/// by the consumer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub(crate) struct TraceLine {
    pub(crate) release: u64,
    pub(crate) src: u32,
    pub(crate) dst: u32,
}

/// The trace header: the switch size the arrivals are addressed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
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

/// Largest release round an arrival may carry.
///
/// The round loop steps its clock with `t + 1` and reports a makespan
/// one past the last dispatch round. A run ends at most one round per
/// waiting flow after its last release, and no run holds `u64::MAX / 2`
/// flows, so below this bound every such sum fits; at `u64::MAX` the
/// clock wraps to 0 and a flow is dispatched before its release.
pub const MAX_RELEASE: u64 = u64::MAX / 2;

/// Longest line, terminator included, a trace file may contain.
///
/// The reader buffers one line at a time, so without a bound a "trace"
/// with no newline in it is an allocation the size of the file (or, on
/// a pipe, one that never ends). A canonical arrival line is at most 66
/// bytes before its newline (`u64::MAX` release, two `u32::MAX` ports);
/// 4 KiB leaves room for any hand-written spelling with extra fields.
pub(crate) const MAX_LINE_BYTES: usize = 4096;

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
/// This is the one place the line shapes are recognized: the trace
/// reader (for every line its framed path declines) and the serve
/// ingest loop both go through it. Validation
/// (port range, sorted releases) stays with the consumer, which knows
/// the stream context — except the header's [`MAX_PORTS`] bound,
/// checked here so no consumer can size engine state from an unchecked
/// count.
///
/// A line that parses as neither shape reports **both** candidate
/// errors: a malformed arrival (`{"release":0,"src":3}`, say) would
/// otherwise surface only the irrelevant header complaint, leaving the
/// actual field mistake undiagnosable.
///
/// A line in canonical form (what [`arrival_line`] writes — nearly
/// every line of a machine-written trace) is recognized without building
/// a `serde` tree; the line's own bytes select that path, and any line it
/// declines gets the tolerant parse, error texts included.
pub fn parse_trace_event(line: &str) -> Result<TraceEvent, String> {
    match canonical_arrival(line.as_bytes()) {
        Some(event) => Ok(event),
        None => parse_tolerant(line),
    }
}

/// The general parse: any JSON spelling of either line shape.
fn parse_tolerant(line: &str) -> Result<TraceEvent, String> {
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

/// Append `v` in plain decimal: the integer writer behind every
/// canonical line (trace arrivals and headers here, `Dispatch` lines in
/// `fss-serve`).
pub fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The canonical arrival line's three key tokens, in order; a number
/// follows each and `}` closes the line.
const ARRIVAL_KEYS: [&[u8]; 3] = [b"{\"release\":", b",\"src\":", b",\"dst\":"];

/// Append an arrival's canonical trace line (no trailing newline).
pub(crate) fn push_arrival_line(out: &mut Vec<u8>, release: u64, src: u32, dst: u32) {
    for (key, v) in ARRIVAL_KEYS
        .iter()
        .zip([release, u64::from(src), u64::from(dst)])
    {
        out.extend_from_slice(key);
        push_u64(out, v);
    }
    out.push(b'}');
}

/// The one canonical recognizer: the arrival [`push_arrival_line`]
/// writes at the start of `bytes`, up to its last field's digits, and
/// the bytes after them — `}` on a whole line, `}\n…` in a reader's
/// block. `None` for anything else, however valid (the tolerant parse
/// decides those).
#[inline]
fn canonical_arrival_prefix(bytes: &[u8]) -> Option<(TraceLine, &[u8])> {
    let mut rest = bytes;
    let mut fields = [0u64; 3];
    for (key, field) in ARRIVAL_KEYS.iter().zip(&mut fields) {
        (*field, rest) = canonical_u64(rest.strip_prefix(*key)?)?;
    }
    let [release, src, dst] = fields;
    let line = TraceLine {
        release,
        src: u32::try_from(src).ok()?,
        dst: u32::try_from(dst).ok()?,
    };
    Some((line, rest))
}

/// Recognize exactly the bytes [`push_arrival_line`] writes (a whole
/// line, terminator stripped).
fn canonical_arrival(line: &[u8]) -> Option<TraceEvent> {
    match canonical_arrival_prefix(line)? {
        (TraceLine { release, src, dst }, b"}") => Some(TraceEvent::Arrival { release, src, dst }),
        _ => None,
    }
}

/// The canonical arrival line that opens `block`, if all of it and its
/// `\n` are there: the arrival and the line's length, newline included.
/// `None` sends the caller to its line path (a CRLF line, a line cut by
/// the end of the block, any other spelling).
#[inline]
pub(crate) fn framed_canonical_arrival(block: &[u8]) -> Option<(TraceLine, usize)> {
    let (line, rest) = canonical_arrival_prefix(block)?;
    let len = block.len() - rest.len() + 2;
    rest.starts_with(b"}\n").then_some((line, len))
}

/// The leading digits of `bytes` if they are what [`push_u64`] writes —
/// at least one, no leading zero, within `u64` — and what follows them.
/// One pass: nineteen digits cannot overflow, so only a 20th (or later)
/// one is checked.
#[inline]
fn canonical_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let mut v = 0u64;
    let mut len = 0;
    for &b in bytes {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        v = if len < 19 {
            v * 10 + u64::from(digit)
        } else {
            v.checked_mul(10)?.checked_add(u64::from(digit))?
        };
        len += 1;
    }
    if len == 0 || (len > 1 && bytes[0] == b'0') {
        return None;
    }
    Some((v, &bytes[len..]))
}

/// Render an arrival as its canonical trace line (no trailing newline).
pub fn arrival_line(release: u64, src: u32, dst: u32) -> String {
    let mut line = Vec::with_capacity(48);
    push_arrival_line(&mut line, release, src, dst);
    String::from_utf8(line).expect("canonical lines are ASCII")
}

/// Render the canonical `{"ports":N}` header line (no trailing newline).
pub fn header_line(ports: usize) -> String {
    let mut line = b"{\"ports\":".to_vec();
    push_u64(&mut line, ports as u64);
    line.push(b'}');
    String::from_utf8(line).expect("canonical lines are ASCII")
}

/// The rule a sequence of arrivals obeys on a `ports x ports` switch:
/// every port inside the header's range, releases nondecreasing (the
/// `FlowSource` contract) and at most [`MAX_RELEASE`]. Written once
/// here; the reader, the writer and
/// `fss_sim::ArrivalTrace::new` each feed their arrivals through one.
#[derive(Debug, Clone)]
pub struct ArrivalCheck {
    ports: usize,
    prev_release: u64,
}

impl ArrivalCheck {
    /// A fresh check for a switch of `ports` ports.
    pub fn new(ports: usize) -> ArrivalCheck {
        ArrivalCheck {
            ports,
            prev_release: 0,
        }
    }

    /// Switch size the arrivals are checked against.
    pub(crate) fn ports(&self) -> usize {
        self.ports
    }

    /// Admit the next arrival of the sequence, or say what is wrong
    /// with it; `line` is the 1-based file line the error cites.
    pub fn admit(
        &mut self,
        line: usize,
        release: u64,
        src: u32,
        dst: u32,
    ) -> Result<(), TraceFileError> {
        if src as usize >= self.ports || dst as usize >= self.ports {
            return Err(TraceFileError::PortOutOfRange {
                line,
                port: src.max(dst),
                ports: self.ports,
            });
        }
        if release < self.prev_release {
            return Err(TraceFileError::UnsortedRelease {
                line,
                prev: self.prev_release,
                next: release,
            });
        }
        if release > MAX_RELEASE {
            return Err(TraceFileError::ReleaseTooLate { line, release });
        }
        self.prev_release = release;
        Ok(())
    }
}

/// Errors raised while reading, validating, converting, or writing a
/// trace file; 1-based line numbers in every diagnosis.
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
    /// A release past [`MAX_RELEASE`].
    ReleaseTooLate {
        /// Line the arrival is on.
        line: usize,
        /// The offending release round.
        release: u64,
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
            TraceFileError::ReleaseTooLate { line, release } => write!(
                f,
                "line {line}: release {release} is past {MAX_RELEASE}, the largest release a trace may carry"
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
    use proptest::prelude::*;

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
            arrival_line(u64::MAX, 0, u32::MAX),
            format!(
                "{{\"release\":{},\"src\":0,\"dst\":{}}}",
                u64::MAX,
                u32::MAX
            )
        );
        assert_eq!(
            canonical_arrival(arrival_line(u64::MAX, 0, u32::MAX).as_bytes()),
            Some(TraceEvent::Arrival {
                release: u64::MAX,
                src: 0,
                dst: u32::MAX
            })
        );
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
    fn non_canonical_spellings_fall_through_to_the_tolerant_parser() {
        let arrival = |release, src, dst| Ok(TraceEvent::Arrival { release, src, dst });
        let cases: [(&str, Result<TraceEvent, &str>); 10] = [
            ("{\"release\": 3, \"src\": 1, \"dst\": 7}", arrival(3, 1, 7)),
            ("{\"src\":1,\"dst\":7,\"release\":3}", arrival(3, 1, 7)),
            ("{\"release\":007,\"src\":1,\"dst\":7}", arrival(7, 1, 7)),
            ("{\"release\":-0,\"src\":1,\"dst\":7}", arrival(0, 1, 7)),
            ("{\"release\":1.0,\"src\":1,\"dst\":7}", arrival(1, 1, 7)),
            (
                "{\"release\":3,\"src\":1,\"dst\":7,\"coflow\":9}",
                arrival(3, 1, 7),
            ),
            (
                "{\"release\":100000000000000000000,\"src\":1,\"dst\":7}",
                Err("expected unsigned integer"),
            ),
            (
                "{\"release\":3,\"src\":4294967296,\"dst\":7}",
                Err("4294967296 out of range for u32"),
            ),
            (
                "{\"release\":3,\"src\":1,\"dst\":7}x",
                Err("trailing characters at byte 29"),
            ),
            ("{\"release\":3,\"src\":1,\"dst\":}", Err("as arrival")),
        ];
        for (line, want) in cases {
            assert_eq!(canonical_arrival(line.as_bytes()), None, "{line}");
            let got = parse_trace_event(line);
            assert_eq!(got, parse_tolerant(line), "{line}");
            match want {
                Ok(event) => assert_eq!(got, Ok(event), "{line}"),
                Err(text) => {
                    let err = got.expect_err(line);
                    assert!(err.contains(text), "{line}: {err}");
                }
            }
        }
    }

    /// One field's number text: mostly what `push_u64` writes, else one
    /// of the spellings around its edges.
    fn number_text() -> impl Strategy<Value = String> {
        let edge = |text: &str| Just(text.to_string());
        prop_oneof![
            (0u64..u64::MAX).prop_map(|v| v.to_string()),
            (0u64..u64::from(u32::MAX)).prop_map(|v| v.to_string()),
            (0u64..3000).prop_map(|v| v.to_string()),
            prop_oneof![
                edge(""),
                edge("00"),
                edge("007"),
                edge("-0"),
                edge("1.0"),
                edge("1e3"),
                edge("4294967295"),
                edge("4294967296"),
                edge("18446744073709551615"),
                edge("18446744073709551616"),
                edge("100000000000000000000"),
            ],
        ]
    }

    /// An arrival line built from [`number_text`] fields with up to two
    /// printable-ASCII byte edits: mostly canonical or one step from it.
    fn near_canonical_line() -> impl Strategy<Value = String> {
        let edit = (0usize..64, 0u8..3, 0x20u8..0x7f);
        (
            number_text(),
            number_text(),
            number_text(),
            proptest::collection::vec(edit, 0..=2),
        )
            .prop_map(|(release, src, dst, edits)| {
                let mut line =
                    format!("{{\"release\":{release},\"src\":{src},\"dst\":{dst}}}").into_bytes();
                for (at, op, byte) in edits {
                    let at = at % (line.len() + 1);
                    match op {
                        0 => line.insert(at, byte),
                        1 if at < line.len() => drop(line.remove(at)),
                        _ if at < line.len() => line[at] = byte,
                        _ => {}
                    }
                }
                String::from_utf8(line).expect("edits are ASCII")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// The recognizer is invisible: what it accepts, the tolerant
        /// parser reads identically; what it declines, the tolerant
        /// parser answers, error text and all.
        #[test]
        fn canonical_recognizer_agrees_with_the_tolerant_parser(line in near_canonical_line()) {
            if let Some(event) = canonical_arrival(line.as_bytes()) {
                prop_assert_eq!(parse_tolerant(&line), Ok(event), "{}", line);
            }
            prop_assert_eq!(parse_trace_event(&line), parse_tolerant(&line), "{}", line);
        }

        #[test]
        fn every_written_arrival_is_recognized(
            release in 0u64..u64::MAX,
            src in 0u32..u32::MAX,
            dst in 0u32..u32::MAX,
        ) {
            prop_assert_eq!(
                canonical_arrival(arrival_line(release, src, dst).as_bytes()),
                Some(TraceEvent::Arrival { release, src, dst })
            );
        }

        #[test]
        fn parse_trace_event_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..80),
        ) {
            let _ = parse_trace_event(&String::from_utf8_lossy(&bytes));
        }
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
