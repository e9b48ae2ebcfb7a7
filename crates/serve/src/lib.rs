//! # fss-serve — the live flow-scheduler service behind `flowsched serve`
//!
//! The batch paths (`run_scenario`, the bench registry) answer "what
//! would the scheduler have done"; this crate answers "what should the
//! switch do *now*". A serve process ingests JSONL arrival events on a
//! socket or stdin — the same line schema as an on-disk arrival trace,
//! so a raw trace file pipes straight in — drives the engine's round
//! loop with the incremental matchers on a dedicated thread, and
//! streams every dispatch decision back as a JSONL response line.
//!
//! The load-bearing design decision is **parity by construction**: the
//! engine thread consumes a blocking [`fss_engine::ChannelSource`]
//! through [`fss_sim::run_source`] — the *same* dispatch core
//! every batch run uses — and the drive loops pull exactly one arrival
//! ahead, so the schedule depends only on the admitted arrival
//! *sequence*, never on timing. Feed serve the lines of a dumped trace
//! and its dispatch stream is bit-identical to `run_scenario` on the
//! same spec, for all four §5 policies, with or without failure plans
//! (`tests/differential.rs` pins this down).
//!
//! The per-flow wire path builds no message objects: a canonical
//! arrival line is recognized byte-wise (any other spelling takes the
//! tolerant `serde_json` parse), and `Dispatch` lines are rendered into
//! a byte buffer on the engine thread that reaches the writer in one
//! `write` + `flush` when the engine goes **idle** (ingest queue empty),
//! when it passes **16 KiB**, and at **drain** — so a client that waits
//! for its dispatches always gets them, with no timer and no option
//! (`session` has the full rule).
//!
//! * `proto` — the JSONL serve protocol: ingest line sniffing
//!   (header / arrival / control), the [`ServeMsg`] response lines, and
//!   the allocation-free `Dispatch` renderer pinned to them;
//! * `admission` — the bounded ingest queue: an [`AdmissionGate`]
//!   that either blocks the producer ([`AdmissionMode::Pause`],
//!   lossless backpressure) or sheds load with explicit
//!   `{"kind":"Dropped",...}` reports ([`AdmissionMode::Drop`]) —
//!   never silent loss, property-tested in `tests/admission.rs`;
//! * `session` — the transport-free `ServeSession` driver (sink +
//!   gate + engine thread) that tests run over byte buffers, and the
//!   rule for when buffered `Dispatch` lines reach the writer;
//! * `metrics` — the [`ServeMetrics`] registry and its Prometheus
//!   rendering (flows/s, live queue depth, p50/p99 decision latency,
//!   admission counters) served over an HTTP `/metrics` listener;
//! * `server` — the blocking TCP accept loop with mid-run client
//!   disconnect/reconnect (dispatch lines buffer while detached; a
//!   `Detached` marker closes each connection's stream cleanly);
//! * `soak` — the configurable soak harness: stream millions of
//!   flows through a real socket server under injected outages, with
//!   one disconnect/reconnect and a metrics scrape, then strict-diff
//!   the dispatch stream against the single-process reference.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod admission;
mod metrics;
mod proto;
mod server;
mod session;
mod soak;

pub use admission::{Admission, AdmissionGate, AdmissionMode};
pub use metrics::ServeMetrics;
pub use proto::{parse_ingest, IngestLine, ServeKind, ServeMsg, ServeStats};
pub use server::{run_server_on, serve_stdio};
pub use session::{serve_reader, ServeOptions, Sink};
pub use soak::{run_soak, SoakOptions, SoakReport};
