//! The coordinator/worker wire protocol: newline-delimited JSON
//! messages over the worker's stdin (coordinator → worker) and stdout
//! (worker → coordinator).
//!
//! The protocol is deliberately dumb — TimelyDataflow-style systems
//! show that at this scale a deterministic shard assignment plus an
//! append-only progress log beats any clever dynamic protocol:
//!
//! ```text
//! coordinator → worker   Hello    { proto, worker, config, fail_after, slow_ms }
//! worker → coordinator   Ready    { proto, cells }           (universe size check)
//! coordinator → worker   Assign   { assign: [fingerprints] } (repeatable)
//! worker → coordinator   Result   { cell }                   (one per executed cell)
//! worker → coordinator   Heartbeat { seq, snapshot }         (periodic liveness + progress)
//! coordinator → worker   Shutdown
//! worker → coordinator   Done     { flight_spool?, flight_spans?, flight_dropped? }
//! worker → coordinator   Error    { error }                  (protocol/registry failure)
//! ```
//!
//! Heartbeats carry a payload since proto v2: a per-worker sequence
//! number (strictly increasing, so a wedged-then-replayed pipe is
//! detectable) and the worker's **cumulative** telemetry snapshot —
//! completed-cell telemetry merged with a `worker_cells_done` counter.
//! Cumulative means the coordinator keeps the *latest* snapshot per
//! worker (replace, not add); the authoritative run-level merge still
//! comes from the checkpointed cells themselves.
//!
//! Every message is one [`WireMsg`]: a `kind` tag plus optional payload
//! fields (serialized as `null` when absent). Reads are **tolerant**:
//! only `kind` is required, and a payload field that is missing *or*
//! `null` deserializes to `None` — so a v1 peer's `Heartbeat` (no
//! `seq`/`snapshot`/`slow_ms` keys) still parses, the same way
//! `report.rs` reads schema-v2 bench cells under
//! `BENCH_SCHEMA_READ_MIN`. The version handshake still rejects a v1
//! *session* up front; tolerant parsing is what makes that rejection a
//! polite `Error` message instead of a parse failure, and what lets
//! checkpoint/log readers consume mixed-version streams. Workers never
//! write *results* to the filesystem; the coordinator owns the
//! `BENCH_cells.jsonl` checkpoint stream and the merged artifacts. The
//! one exception (v3) is the flight spool: when the run config carries
//! a `flight_dir`, each worker spools its own span trace locally —
//! traces are too big to ship over the result pipe, so only the spool
//! path and its bounded accounting travel in the `Done` goodbye.

use fss_bench::BenchOptions;
use fss_sim::report::BenchCell;
use fss_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

/// Protocol version; both sides must agree exactly. Bump on any change
/// to [`WireMsg`] / [`RunConfig`] shape or semantics.
///
/// v2 added the heartbeat payload (`seq` + `snapshot`), the
/// `progress` / `heartbeat_ms` run-config knobs, and per-worker
/// `slow_ms` fault injection.
///
/// v3 added flight tracing: the `flight_dir` run-config knob (workers
/// spool span traces locally under it) and the goodbye payload on
/// `Done` (`flight_spool` / `flight_spans` / `flight_dropped`), which
/// ships the bounded spool accounting — never the spans themselves —
/// back to the coordinator for the merged-trace export.
pub const PROTO_VERSION: u32 = 3;

/// Message discriminator (serialized as the variant name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsgKind {
    /// Coordinator → worker: handshake carrying the run configuration.
    Hello,
    /// Worker → coordinator: handshake reply with the universe size.
    Ready,
    /// Coordinator → worker: execute these fingerprints, in order.
    Assign,
    /// Worker → coordinator: one executed cell.
    Result,
    /// Worker → coordinator: periodic liveness signal.
    Heartbeat,
    /// Coordinator → worker: finish up and exit cleanly.
    Shutdown,
    /// Worker → coordinator: clean goodbye after `Shutdown`.
    Done,
    /// Worker → coordinator: fatal worker-side failure (best effort —
    /// a crashed worker sends nothing and is detected by pipe EOF).
    Error,
}

/// The subset of [`BenchOptions`] a worker needs to expand the *same*
/// flat cell list as the coordinator. Serializable, so it travels in
/// the `Hello` message; paths are passed through as strings (workers
/// inherit the coordinator's working directory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Experiment filter (exact id, else substring; `None` = all).
    pub filter: Option<String>,
    /// CI-sized grids.
    #[serde(default)]
    pub smoke: bool,
    /// Paper-scale grids (overrides `smoke`).
    #[serde(default)]
    pub paper: bool,
    /// Trials-per-cell override.
    pub trials: Option<u64>,
    /// Arrival-trace path for the `trace_replay` experiment.
    pub trace: Option<String>,
    /// Record round-loop telemetry while cells execute (the
    /// coordinator's `--progress`): instrumented cells carry a
    /// `telemetry` snapshot in their `Result`. Absent in v1 configs.
    #[serde(default)]
    pub progress: bool,
    /// Heartbeat interval override in milliseconds (`None` = the
    /// worker default, [`crate::worker::HEARTBEAT_INTERVAL`]). Tests
    /// shrink this so one cell spans many heartbeats.
    pub heartbeat_ms: Option<u64>,
    /// Directory the worker spools its flight trace into
    /// (`<flight_dir>/w<id>.spool.jsonl`); `None` = tracing off. The
    /// coordinator's `--flight-trace`. Absent in pre-v3 configs.
    pub flight_dir: Option<String>,
}

impl RunConfig {
    /// Extract the worker-relevant options from a bench run.
    pub fn from_bench(opts: &BenchOptions) -> Result<RunConfig, String> {
        let trace = match &opts.trace {
            None => None,
            Some(p) => Some(
                p.to_str()
                    .ok_or_else(|| format!("non-UTF-8 trace path {}", p.display()))?
                    .to_string(),
            ),
        };
        Ok(RunConfig {
            filter: opts.filter.clone(),
            smoke: opts.smoke,
            paper: opts.paper,
            trials: opts.trials,
            trace,
            progress: opts.progress,
            heartbeat_ms: None,
            flight_dir: None,
        })
    }

    /// Rebuild [`BenchOptions`] on the worker side. Workers never write
    /// artifacts, so `out_dir` is irrelevant (set to the temp dir), and
    /// `jobs` stays 0 here because the coordinator forwards the
    /// per-worker thread cap through the `RAYON_NUM_THREADS`
    /// environment instead (cells can fan out internally via rayon;
    /// cross-cell parallelism is the coordinator's worker count).
    pub fn to_bench(&self) -> BenchOptions {
        BenchOptions {
            filter: self.filter.clone(),
            smoke: self.smoke,
            paper: self.paper,
            jobs: 0,
            out_dir: std::env::temp_dir(),
            trials: self.trials,
            trace: self.trace.as_ref().map(std::path::PathBuf::from),
            progress: self.progress,
            // Worker-side tracing runs off `flight_dir`, not the bench
            // orchestrator's own exporter.
            flight_trace: None,
        }
    }
}

/// One protocol message: a `kind` tag plus the union of all payload
/// fields (unused ones `None`). See the module docs for which fields
/// each kind carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireMsg {
    /// Which message this is.
    pub kind: MsgKind,
    /// `Hello`/`Ready`: protocol version.
    pub proto: Option<u32>,
    /// `Hello`: this worker's index (stable, for logs and fault
    /// injection).
    pub worker: Option<u64>,
    /// `Hello`: the run configuration to expand the registry from.
    pub config: Option<RunConfig>,
    /// `Hello`: fault injection — crash (no goodbye) after this many
    /// results. Used by tests and the CI kill-mid-run job.
    pub fail_after: Option<u64>,
    /// `Ready`: size of the worker's expanded cell universe (must match
    /// the coordinator's, or the binaries/registries have diverged).
    pub cells: Option<u64>,
    /// `Assign`: fingerprints of the cells to execute.
    pub assign: Option<Vec<String>>,
    /// `Result`: the executed cell.
    pub cell: Option<BenchCell>,
    /// `Error`: what went wrong.
    pub error: Option<String>,
    /// `Heartbeat`: per-worker sequence number, strictly increasing.
    pub seq: Option<u64>,
    /// `Heartbeat`: the worker's cumulative telemetry snapshot
    /// (completed-cell telemetry + a `worker_cells_done` counter).
    pub snapshot: Option<TelemetrySnapshot>,
    /// `Hello`: fault injection — sleep this long before each cell
    /// (a slow-but-alive worker for the heartbeat tests).
    pub slow_ms: Option<u64>,
    /// `Done`: where this worker's flight spool lives (only when the
    /// run config carried a `flight_dir`).
    pub flight_spool: Option<String>,
    /// `Done`: span events written to the spool.
    pub flight_spans: Option<u64>,
    /// `Done`: span events lost (ring laps + spool truncation).
    pub flight_dropped: Option<u64>,
}

impl WireMsg {
    fn base(kind: MsgKind) -> WireMsg {
        WireMsg {
            kind,
            proto: None,
            worker: None,
            config: None,
            fail_after: None,
            cells: None,
            assign: None,
            cell: None,
            error: None,
            seq: None,
            snapshot: None,
            slow_ms: None,
            flight_spool: None,
            flight_spans: None,
            flight_dropped: None,
        }
    }

    /// Build a `Hello` handshake.
    pub fn hello(worker: u64, config: RunConfig, fail_after: Option<u64>) -> WireMsg {
        WireMsg {
            proto: Some(PROTO_VERSION),
            worker: Some(worker),
            config: Some(config),
            fail_after,
            ..WireMsg::base(MsgKind::Hello)
        }
    }

    /// Fault injection: make the receiving worker sleep `ms` before
    /// each cell (slow but alive). Builder on a `Hello`.
    pub fn with_slow_ms(mut self, ms: Option<u64>) -> WireMsg {
        self.slow_ms = ms;
        self
    }

    /// Build a `Ready` handshake reply.
    pub fn ready(cells: u64) -> WireMsg {
        WireMsg {
            proto: Some(PROTO_VERSION),
            cells: Some(cells),
            ..WireMsg::base(MsgKind::Ready)
        }
    }

    /// Build an `Assign` batch.
    pub fn assign(fingerprints: Vec<String>) -> WireMsg {
        WireMsg {
            assign: Some(fingerprints),
            ..WireMsg::base(MsgKind::Assign)
        }
    }

    /// Build a `Result` carrying one executed cell.
    pub fn result(cell: BenchCell) -> WireMsg {
        WireMsg {
            cell: Some(cell),
            ..WireMsg::base(MsgKind::Result)
        }
    }

    /// Build a `Heartbeat` carrying its sequence number and the
    /// worker's cumulative telemetry snapshot.
    pub fn heartbeat(seq: u64, snapshot: TelemetrySnapshot) -> WireMsg {
        WireMsg {
            seq: Some(seq),
            snapshot: Some(snapshot),
            ..WireMsg::base(MsgKind::Heartbeat)
        }
    }

    /// Build a `Shutdown`.
    pub fn shutdown() -> WireMsg {
        WireMsg::base(MsgKind::Shutdown)
    }

    /// Build a `Done` goodbye.
    pub fn done() -> WireMsg {
        WireMsg::base(MsgKind::Done)
    }

    /// Attach the flight-spool accounting to a `Done` goodbye (builder,
    /// used when the run config carried a `flight_dir`).
    pub fn with_flight(mut self, spool: String, spans: u64, dropped: u64) -> WireMsg {
        self.flight_spool = Some(spool);
        self.flight_spans = Some(spans);
        self.flight_dropped = Some(dropped);
        self
    }

    /// Build an `Error` report.
    pub fn error(message: impl Into<String>) -> WireMsg {
        WireMsg {
            error: Some(message.into()),
            ..WireMsg::base(MsgKind::Error)
        }
    }

    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("wire messages contain only finite numbers")
    }

    /// Parse one JSONL line.
    pub fn parse(line: &str) -> Result<WireMsg, String> {
        serde_json::from_str(line).map_err(|e| format!("bad protocol line: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> RunConfig {
        RunConfig {
            filter: Some("fig6".into()),
            smoke: true,
            paper: false,
            trials: Some(2),
            trace: None,
            progress: false,
            heartbeat_ms: None,
            flight_dir: None,
        }
    }

    #[test]
    fn every_message_kind_round_trips_through_jsonl() {
        let cell = BenchCell::new(
            "fig6/MaxCard/M50/T10",
            vec![("M".into(), "50".into())],
            vec![("avg_response".into(), 3.25)],
            0.5,
            100,
            "engine",
        );
        let mut beat_snap = TelemetrySnapshot::new();
        beat_snap.add_counter("worker_cells_done", 3);
        beat_snap.add_stage_ns("dispatch", 42);
        let msgs = vec![
            WireMsg::hello(3, sample_config(), Some(2)).with_slow_ms(Some(25)),
            WireMsg::ready(42),
            WireMsg::assign(vec!["aa".into(), "bb".into()]),
            WireMsg::result(cell),
            WireMsg::heartbeat(7, beat_snap),
            WireMsg::shutdown(),
            WireMsg::done(),
            WireMsg::done().with_flight("/tmp/flight/w3.spool.jsonl".into(), 1200, 7),
            WireMsg::error("boom"),
        ];
        for msg in msgs {
            let line = msg.to_line();
            assert!(!line.contains('\n'), "JSONL messages must be single-line");
            let parsed = WireMsg::parse(&line).expect("round trip");
            assert_eq!(parsed, msg);
        }
    }

    #[test]
    fn parse_rejects_garbage_and_truncation() {
        assert!(WireMsg::parse("not json").is_err());
        let line = WireMsg::heartbeat(0, TelemetrySnapshot::new()).to_line();
        assert!(WireMsg::parse(&line[..line.len() - 2]).is_err());
    }

    #[test]
    fn v1_heartbeat_without_seq_or_snapshot_still_parses() {
        // Byte-for-byte what a proto-v1 worker emitted: no `seq`,
        // `snapshot`, or `slow_ms` keys existed before v2. Locks in the
        // tolerant read the way report.rs locks in schema v2 -> v3.
        let line = concat!(
            r#"{"kind":"Heartbeat","proto":null,"worker":null,"config":null,"#,
            r#""fail_after":null,"cells":null,"assign":null,"cell":null,"error":null}"#,
        );
        let msg = WireMsg::parse(line).expect("v1 heartbeat parses under v2 reader");
        assert_eq!(msg.kind, MsgKind::Heartbeat);
        assert_eq!(msg.seq, None);
        assert_eq!(msg.snapshot, None);
        assert_eq!(msg.slow_ms, None);
    }

    #[test]
    fn minimal_and_v1_messages_parse_tolerantly() {
        // Only `kind` is required.
        let msg = WireMsg::parse(r#"{"kind":"Shutdown"}"#).unwrap();
        assert_eq!(msg, WireMsg::shutdown());
        // ...and `kind` really is required.
        assert!(WireMsg::parse(r#"{"proto":2}"#).is_err());

        // A v1 Hello: its RunConfig predates `progress`/`heartbeat_ms`.
        let line = concat!(
            r#"{"kind":"Hello","proto":1,"worker":0,"config":{"filter":null,"#,
            r#""smoke":true,"paper":false,"trials":1,"trace":null},"fail_after":null}"#,
        );
        let msg = WireMsg::parse(line).expect("v1 hello parses under v2 reader");
        assert_eq!(msg.proto, Some(1), "version check still sees the mismatch");
        let config = msg.config.unwrap();
        assert!(config.smoke);
        assert!(!config.progress, "missing v2 field defaults to false");
        assert_eq!(config.heartbeat_ms, None);
        assert_eq!(config.flight_dir, None, "missing v3 field defaults to None");
    }

    #[test]
    fn v2_done_without_flight_fields_still_parses() {
        // Byte-for-byte what a proto-v2 worker said goodbye with: no
        // flight keys existed before v3.
        let line = concat!(
            r#"{"kind":"Done","proto":null,"worker":null,"config":null,"fail_after":null,"#,
            r#""cells":null,"assign":null,"cell":null,"error":null,"seq":null,"#,
            r#""snapshot":null,"slow_ms":null}"#,
        );
        let msg = WireMsg::parse(line).expect("v2 done parses under v3 reader");
        assert_eq!(msg.kind, MsgKind::Done);
        assert_eq!(msg.flight_spool, None);
        assert_eq!(msg.flight_spans, None);
        assert_eq!(msg.flight_dropped, None);
    }

    #[test]
    fn run_config_round_trips_through_bench_options() {
        let config = sample_config();
        let opts = config.to_bench();
        assert_eq!(opts.filter.as_deref(), Some("fig6"));
        assert!(opts.smoke);
        assert_eq!(opts.trials, Some(2));
        let back = RunConfig::from_bench(&opts).unwrap();
        assert_eq!(back, config);

        let with_trace = BenchOptions {
            trace: Some(std::path::PathBuf::from("examples/sample_trace.jsonl")),
            ..BenchOptions::default()
        };
        let config = RunConfig::from_bench(&with_trace).unwrap();
        assert_eq!(config.trace.as_deref(), Some("examples/sample_trace.jsonl"));
        assert_eq!(
            config.to_bench().trace.as_deref(),
            Some(std::path::Path::new("examples/sample_trace.jsonl"))
        );
    }
}
