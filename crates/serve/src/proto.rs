//! The serve-session JSONL protocol.
//!
//! **Ingest** (client → server) reuses the on-disk arrival-trace schema
//! verbatim — a `{"ports":N}` header followed by
//! `{"release":R,"src":S,"dst":D}` arrival lines — so a dumped trace
//! file pipes straight into a live session (`flowsched trace dump ... |
//! flowsched serve`). Control lines are [`ServeMsg`]s with a `"kind"`
//! tag: `Finish` ends the session cleanly, `Metrics` requests an inline
//! metrics snapshot. [`parse_ingest`] sniffs the three shapes by
//! try-parse order: trace events first (arrivals dominate by volume),
//! then control messages. A pathological line carrying *both* shapes
//! (`release`/`src`/`dst` *and* `kind`) parses as an arrival.
//!
//! **Response** (server → client) lines are [`ServeMsg`]s.
//! Serialization **omits** `None` payload fields instead of writing
//! `null`: at soak scale the stream is millions of `Dispatch` lines,
//! and `{"kind":"Dispatch","id":..,"release":..,"round":..}` is less
//! than half the bytes of the null-padded form. Reads stay tolerant
//! (only `kind` required; missing-or-`null` → `None`). The session does
//! not build a [`ServeMsg`] per `Dispatch` line: it appends the same
//! bytes with `ServeMsg::push_dispatch_line`, property-tested against
//! [`ServeMsg::to_line`], which remains the writer for the other nine
//! kinds.

use fss_sim::PolicyKind;
use serde::{Deserialize, Serialize};

/// Serve protocol version, reported in the `Started` banner. Bump on
/// any change to [`ServeMsg`] shape or semantics.
pub const SERVE_PROTO_VERSION: u32 = 1;

/// Response-line discriminator (serialized as the variant name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeKind {
    /// Server → client: session banner — protocol version, port count,
    /// policy, and admission configuration. First line on every
    /// connection.
    Started,
    /// Server → client: one dispatch decision (flow `id` admitted at
    /// `release` left the switch in round `round`).
    Dispatch,
    /// Server → client: admission control shed this arrival
    /// (`AdmissionMode::Drop` with the ingest queue full). Carries the
    /// arrival's coordinates so the loss is attributable, never silent.
    Dropped,
    /// Server → client: admission control is blocking the producer
    /// (`AdmissionMode::Pause` with the ingest queue full).
    Paused,
    /// Server → client: the paused arrival was admitted; ingest
    /// continues.
    Resumed,
    /// Server → client: stream marker written when the client
    /// connection goes away mid-session; later dispatch lines buffer
    /// until a client reattaches.
    Detached,
    /// Server → client: inline metrics snapshot (Prometheus text in
    /// `text`), in reply to a `Metrics` control line.
    Metrics,
    /// Server → client: final session accounting after `Finish`.
    Stats,
    /// Server → client: fatal protocol error (e.g. out-of-range port,
    /// time running backwards); the session is dead.
    Error,
    /// Client → server: drain the queue, stop the engine, report
    /// `Stats`, and end the session.
    Finish,
}

/// One response/control message: a `kind` tag plus the union of all
/// payload fields (unused ones `None` and omitted from the wire).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeMsg {
    /// Which message this is.
    pub kind: ServeKind,
    /// `Started`: protocol version ([`SERVE_PROTO_VERSION`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub proto: Option<u32>,
    /// `Started`: switch port count the session is running with.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ports: Option<usize>,
    /// `Started`: the scheduling policy driving dispatch.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub policy: Option<PolicyKind>,
    /// `Started`: ingest queue capacity (admission bound).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub queue_cap: Option<usize>,
    /// `Started`: admission mode name (`"pause"` or `"drop"`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub admission: Option<String>,
    /// `Dispatch`/`Resumed`: flow id (dense admission sequence).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub id: Option<u64>,
    /// `Dispatch`/`Dropped`: the arrival's release round.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub release: Option<u64>,
    /// `Dispatch`: the round the flow was dispatched in.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub round: Option<u64>,
    /// `Dropped`: the arrival's input port.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub src: Option<u32>,
    /// `Dropped`: the arrival's output port.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dst: Option<u32>,
    /// `Dropped`/`Paused`/`Resumed`: ingest queue depth at the event.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub queued: Option<u64>,
    /// `Metrics`: Prometheus text exposition of the live registry.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub text: Option<String>,
    /// `Stats`: arrivals offered to admission.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub arrived: Option<u64>,
    /// `Stats`: arrivals admitted into the engine.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub admitted: Option<u64>,
    /// `Stats`: arrivals shed by `Drop`-mode admission.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dropped: Option<u64>,
    /// `Stats`: flows dispatched by the engine.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dispatched: Option<u64>,
    /// `Stats`: times `Pause`-mode admission blocked the producer.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub pauses: Option<u64>,
    /// `Stats`: last dispatch round.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub makespan: Option<u64>,
    /// `Stats`: sum of per-flow response times (saturated to `u64`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub total_response: Option<u64>,
    /// `Stats`: worst single-flow response time.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_response: Option<u64>,
    /// `Stats`: peak engine backlog (pending + active flows).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub peak_queue: Option<u64>,
    /// `Error`: what went wrong.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

/// Final session accounting, flattened into the `Stats` line.
///
/// The conservation law the admission tests pin down:
/// `arrived == admitted + dropped` and (once the engine drains)
/// `admitted == dispatched` — every offered arrival is accounted for,
/// either dispatched or explicitly reported dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Arrivals offered to admission control.
    pub arrived: u64,
    /// Arrivals admitted into the engine's ingest queue.
    pub admitted: u64,
    /// Arrivals shed (with a `Dropped` line each).
    pub dropped: u64,
    /// Flows dispatched by the engine.
    pub dispatched: u64,
    /// Times the producer was blocked by `Pause`-mode admission.
    pub pauses: u64,
    /// Last dispatch round.
    pub makespan: u64,
    /// Sum of per-flow response times (saturated to `u64`).
    pub total_response: u64,
    /// Worst single-flow response time.
    pub max_response: u64,
    /// Peak engine backlog (pending + active flows).
    pub peak_queue: u64,
}

impl ServeMsg {
    fn base(kind: ServeKind) -> ServeMsg {
        ServeMsg {
            kind,
            proto: None,
            ports: None,
            policy: None,
            queue_cap: None,
            admission: None,
            id: None,
            release: None,
            round: None,
            src: None,
            dst: None,
            queued: None,
            text: None,
            arrived: None,
            admitted: None,
            dropped: None,
            dispatched: None,
            pauses: None,
            makespan: None,
            total_response: None,
            max_response: None,
            peak_queue: None,
            error: None,
        }
    }

    /// Build the `Started` session banner.
    pub fn started(
        ports: usize,
        policy: PolicyKind,
        queue_cap: usize,
        admission: &str,
    ) -> ServeMsg {
        ServeMsg {
            proto: Some(SERVE_PROTO_VERSION),
            ports: Some(ports),
            policy: Some(policy),
            queue_cap: Some(queue_cap),
            admission: Some(admission.to_string()),
            ..ServeMsg::base(ServeKind::Started)
        }
    }

    /// Build a `Dispatch` decision line.
    pub fn dispatch(id: u64, release: u64, round: u64) -> ServeMsg {
        ServeMsg {
            id: Some(id),
            release: Some(release),
            round: Some(round),
            ..ServeMsg::base(ServeKind::Dispatch)
        }
    }

    /// Append the line [`ServeMsg::dispatch`]`(id, release, round)`
    /// serializes to — the same bytes as its [`ServeMsg::to_line`] —
    /// without building the message or its `serde` tree. `Dispatch` is
    /// one line per flow; the other nine kinds are rare and go through
    /// `to_line`.
    pub(crate) fn push_dispatch_line(out: &mut Vec<u8>, id: u64, release: u64, round: u64) {
        out.extend_from_slice(b"{\"kind\":\"Dispatch\",\"id\":");
        fss_sim::push_u64(out, id);
        out.extend_from_slice(b",\"release\":");
        fss_sim::push_u64(out, release);
        out.extend_from_slice(b",\"round\":");
        fss_sim::push_u64(out, round);
        out.push(b'}');
    }

    /// Build a `Dropped` admission report.
    pub fn dropped(release: u64, src: u32, dst: u32, queued: u64) -> ServeMsg {
        ServeMsg {
            release: Some(release),
            src: Some(src),
            dst: Some(dst),
            queued: Some(queued),
            ..ServeMsg::base(ServeKind::Dropped)
        }
    }

    /// Build a `Paused` backpressure marker.
    pub fn paused(queued: u64) -> ServeMsg {
        ServeMsg {
            queued: Some(queued),
            ..ServeMsg::base(ServeKind::Paused)
        }
    }

    /// Build a `Resumed` backpressure marker.
    pub fn resumed(id: u64, queued: u64) -> ServeMsg {
        ServeMsg {
            id: Some(id),
            queued: Some(queued),
            ..ServeMsg::base(ServeKind::Resumed)
        }
    }

    /// Build a `Detached` stream marker.
    pub fn detached() -> ServeMsg {
        ServeMsg::base(ServeKind::Detached)
    }

    /// Build a `Metrics` reply carrying the Prometheus exposition.
    pub fn metrics(text: impl Into<String>) -> ServeMsg {
        ServeMsg {
            text: Some(text.into()),
            ..ServeMsg::base(ServeKind::Metrics)
        }
    }

    /// Build the final `Stats` accounting line.
    pub fn stats(s: &ServeStats) -> ServeMsg {
        ServeMsg {
            arrived: Some(s.arrived),
            admitted: Some(s.admitted),
            dropped: Some(s.dropped),
            dispatched: Some(s.dispatched),
            pauses: Some(s.pauses),
            makespan: Some(s.makespan),
            total_response: Some(s.total_response),
            max_response: Some(s.max_response),
            peak_queue: Some(s.peak_queue),
            ..ServeMsg::base(ServeKind::Stats)
        }
    }

    /// Build an `Error` report.
    pub fn error(message: impl Into<String>) -> ServeMsg {
        ServeMsg {
            error: Some(message.into()),
            ..ServeMsg::base(ServeKind::Error)
        }
    }

    /// Build a `Finish` control line (client → server).
    pub fn finish() -> ServeMsg {
        ServeMsg::base(ServeKind::Finish)
    }

    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("serve messages contain only finite numbers")
    }

    /// [`ServeMsg::to_line`] plus its newline, as the bytes of one
    /// write: on a socket, line and newline written apart are two
    /// segments.
    pub(crate) fn to_frame(&self) -> Vec<u8> {
        let mut frame = self.to_line().into_bytes();
        frame.push(b'\n');
        frame
    }

    /// Parse one JSONL line.
    pub fn parse(line: &str) -> Result<ServeMsg, String> {
        serde_json::from_str(line).map_err(|e| format!("bad serve line: {e}"))
    }
}

/// One sniffed ingest line (see [`parse_ingest`]).
#[derive(Debug, Clone, PartialEq)]
pub enum IngestLine {
    /// A `{"ports":N}` trace header.
    Header {
        /// Switch port count.
        ports: usize,
    },
    /// A `{"release":R,"src":S,"dst":D}` arrival event.
    Arrival {
        /// Release round (must be nondecreasing across the session).
        release: u64,
        /// Input port.
        src: u32,
        /// Output port.
        dst: u32,
    },
    /// A `{"kind":...}` control message (`Finish`, `Metrics`, ...).
    /// Boxed: control lines are rare next to arrivals, and the box
    /// keeps the hot-path enum two words wide.
    Control(Box<ServeMsg>),
}

/// Sniff one ingest line: trace events first (headers and arrivals —
/// the hot path at soak scale), then `{"kind":...}` control messages.
pub fn parse_ingest(line: &str) -> Result<IngestLine, String> {
    let trace_err = match fss_sim::parse_trace_event(line) {
        Ok(fss_sim::TraceEvent::Header { ports }) => return Ok(IngestLine::Header { ports }),
        Ok(fss_sim::TraceEvent::Arrival { release, src, dst }) => {
            return Ok(IngestLine::Arrival { release, src, dst })
        }
        Err(e) => e,
    };
    // Both diagnoses: a header over the port limit is a trace-event
    // error the control-message complaint alone would hide.
    ServeMsg::parse(line)
        .map(|msg| IngestLine::Control(Box::new(msg)))
        .map_err(|e| {
            format!(
                "not an ingest line (expected a trace header, an arrival, or a control \
                 message): {e}; {trace_err}"
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_message_kind_round_trips_through_jsonl() {
        let stats = ServeStats {
            arrived: 10,
            admitted: 9,
            dropped: 1,
            dispatched: 9,
            pauses: 2,
            makespan: 17,
            total_response: 40,
            max_response: 8,
            peak_queue: 5,
        };
        let msgs = vec![
            ServeMsg::started(8, PolicyKind::MaxCard, 1024, "pause"),
            ServeMsg::dispatch(3, 1, 4),
            ServeMsg::dropped(5, 2, 6, 1024),
            ServeMsg::paused(1024),
            ServeMsg::resumed(7, 1023),
            ServeMsg::detached(),
            ServeMsg::metrics("fss_serve_flows_ingested_total 10\n"),
            ServeMsg::stats(&stats),
            ServeMsg::error("port 9 out of range"),
            ServeMsg::finish(),
        ];
        for msg in msgs {
            let line = msg.to_line();
            assert!(!line.contains('\n') || msg.text.is_some());
            let parsed = ServeMsg::parse(&line).expect("round trip");
            assert_eq!(parsed, msg);
        }
    }

    #[test]
    fn serialization_omits_absent_fields() {
        // Dispatch lines dominate the stream at soak scale; they must
        // not carry two dozen null payload keys.
        let line = ServeMsg::dispatch(3, 1, 4).to_line();
        assert_eq!(line, r#"{"kind":"Dispatch","id":3,"release":1,"round":4}"#);
        assert_eq!(ServeMsg::finish().to_line(), r#"{"kind":"Finish"}"#);
    }

    /// `u64`s that change the rendered width: 0, the powers of ten and
    /// their predecessors, `u64::MAX`, and anything between.
    fn any_u64() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            (0u32..20).prop_map(|k| 10u64.pow(k)),
            (0u32..20).prop_map(|k| 10u64.pow(k) - 1),
            0u64..u64::MAX,
        ]
    }

    /// One of each line a session can meet on ingest or emit, with up to
    /// three printable-ASCII byte edits.
    fn mutated_valid_line() -> impl Strategy<Value = String> {
        let valid: proptest::Union<String> = prop_oneof![
            Just(r#"{"ports":8}"#.to_string()),
            (any_u64(), 0u32..u32::MAX, 0u32..u32::MAX).prop_map(|(release, src, dst)| format!(
                r#"{{"release":{release},"src":{src},"dst":{dst}}}"#
            )),
            (any_u64(), any_u64(), any_u64())
                .prop_map(|(id, release, round)| ServeMsg::dispatch(id, release, round).to_line()),
            Just(ServeMsg::finish().to_line()),
            Just(ServeMsg::metrics("a 1\nb 2\n").to_line()),
            Just(ServeMsg::started(8, PolicyKind::MaxCard, 1024, "pause").to_line()),
            Just(ServeMsg::stats(&ServeStats::default()).to_line()),
        ];
        let edit = (0usize..256, 0u8..3, 0x20u8..0x7f);
        (valid, proptest::collection::vec(edit, 0..=3)).prop_map(|(line, edits)| {
            let mut line = line.into_bytes();
            for (at, op, byte) in edits {
                let at = at % (line.len() + 1);
                match op {
                    0 => line.insert(at, byte),
                    1 if at < line.len() => drop(line.remove(at)),
                    _ if at < line.len() => line[at] = byte,
                    _ => {}
                }
            }
            String::from_utf8(line).expect("valid lines and edits are ASCII")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn dispatch_renderer_matches_to_line(
            id in any_u64(),
            release in any_u64(),
            round in any_u64(),
        ) {
            let mut line = b"kept".to_vec();
            ServeMsg::push_dispatch_line(&mut line, id, release, round);
            prop_assert_eq!(
                String::from_utf8(line).unwrap(),
                format!("kept{}", ServeMsg::dispatch(id, release, round).to_line())
            );
        }

        #[test]
        fn parse_ingest_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..96),
        ) {
            let _ = parse_ingest(&String::from_utf8_lossy(&bytes));
        }

        /// Whatever an edit does to a valid line, ingest answers with a
        /// line or an error, and agrees with the trace parser on which
        /// lines are trace events.
        #[test]
        fn parse_ingest_never_panics_on_mutated_valid_lines(line in mutated_valid_line()) {
            let ingest = parse_ingest(&line);
            match fss_sim::parse_trace_event(&line) {
                Ok(fss_sim::TraceEvent::Arrival { release, src, dst }) => {
                    prop_assert_eq!(ingest, Ok(IngestLine::Arrival { release, src, dst }));
                }
                Ok(fss_sim::TraceEvent::Header { ports }) => {
                    prop_assert_eq!(ingest, Ok(IngestLine::Header { ports }));
                }
                Err(_) => prop_assert!(!matches!(
                    ingest,
                    Ok(IngestLine::Arrival { .. } | IngestLine::Header { .. })
                )),
            }
        }
    }

    #[test]
    fn reads_are_tolerant_of_missing_and_null_fields() {
        // Only `kind` is required; null and missing are the same.
        let msg = ServeMsg::parse(r#"{"kind":"Dispatch","id":1,"queued":null}"#).unwrap();
        assert_eq!(msg.kind, ServeKind::Dispatch);
        assert_eq!(msg.id, Some(1));
        assert_eq!(msg.queued, None);
        assert_eq!(msg.release, None);
        assert!(ServeMsg::parse(r#"{"id":1}"#).is_err(), "kind is required");
    }

    #[test]
    fn ingest_sniffing_prefers_trace_events() {
        assert_eq!(
            parse_ingest(r#"{"ports":8}"#).unwrap(),
            IngestLine::Header { ports: 8 }
        );
        assert_eq!(
            parse_ingest(r#"{"release":2,"src":1,"dst":3}"#).unwrap(),
            IngestLine::Arrival {
                release: 2,
                src: 1,
                dst: 3
            }
        );
        assert_eq!(
            parse_ingest(r#"{"kind":"Finish"}"#).unwrap(),
            IngestLine::Control(Box::new(ServeMsg::finish()))
        );
        // A pathological line carrying both shapes sniffs as an arrival
        // (trace events win the try-parse order).
        assert!(matches!(
            parse_ingest(r#"{"release":2,"src":1,"dst":3,"kind":"Finish"}"#).unwrap(),
            IngestLine::Arrival { .. }
        ));
        assert!(parse_ingest("not json").is_err());
        assert!(parse_ingest(r#"{"proto":1}"#).is_err());
        // An unpinned session sizes its engine from the header: one over
        // the port limit must be refused here, and say why.
        let err = parse_ingest(r#"{"ports":3000000}"#).unwrap_err();
        assert!(err.contains("limit is 2048"), "{err}");
    }
}
