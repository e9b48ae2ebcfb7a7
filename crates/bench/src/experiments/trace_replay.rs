//! Trace replay: run every policy over an on-disk arrival trace.
//!
//! Unlike the static registry entries, this experiment is built at
//! runtime from a trace file (`flowsched bench --trace FILE`). The file
//! is validated once, by a streaming scan when the experiment is built;
//! each `(policy, trace)` cell then re-reads it through
//! [`fss_trace::StreamingTraceSource`] at O(1) memory, so traces far
//! larger than RAM go through the registry.
//!
//! Cells carry a `("source", "stream")` param: it is part of their
//! fingerprint, and checkpoints and the checked-in trace baseline were
//! written with it.

use std::path::Path;
use std::sync::Arc;

use fss_sim::PolicyKind;

use crate::registry::{engine_telemetry, CellOutcome, CellSpec, Experiment};

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::MaxCard,
    PolicyKind::MinRTime,
    PolicyKind::MaxWeight,
    PolicyKind::FifoGreedy,
];

/// What one replay cell measured.
fn outcome(
    stats: fss_engine::StreamStats,
    flows: u64,
    tele: fss_engine::EngineTelemetry,
    instrument: bool,
) -> CellOutcome {
    CellOutcome {
        metrics: vec![
            ("mean_response".into(), stats.mean_response()),
            ("max_response".into(), stats.max_response as f64),
            ("makespan".into(), stats.makespan as f64),
            ("peak_queue".into(), stats.peak_queue as f64),
        ],
        flows,
        engine_mode: "stream",
        telemetry: instrument.then(|| tele.snapshot()),
    }
}

/// Build the trace-replay experiment from a trace file: validate it
/// once by scan, then let each cell re-read it.
pub fn trace_replay(path: &Path) -> Result<Experiment, String> {
    let name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let summary = fss_trace::scan(path).map_err(|e| format!("trace {}: {e}", path.display()))?;
    let path = Arc::new(path.to_path_buf());
    Ok(Experiment::new(
        "trace_replay",
        "replay an arrival trace through every policy via the streaming engine",
        move |scale| {
            let instrument = scale.telemetry;
            POLICIES
                .iter()
                .map(|&policy| {
                    let path = path.clone();
                    let name = name.clone();
                    CellSpec::new(
                        format!("trace_replay/{}/{name}", policy.name()),
                        vec![
                            ("policy", policy.name().to_string()),
                            ("trace", name.clone()),
                            ("source", "stream".to_string()),
                            ("ports", summary.ports.to_string()),
                            ("horizon", summary.horizon.to_string()),
                        ],
                        move || {
                            let mut tele = engine_telemetry(instrument);
                            // The builder's scan already validated the
                            // file; a mid-replay error here means it
                            // changed under us — fail loudly.
                            let source = fss_trace::StreamingTraceSource::open(path.as_ref())
                                .unwrap_or_else(|e| panic!("reopen trace {}: {e}", path.display()));
                            let errors = source.error_handle();
                            let stats = fss_engine::run(
                                source,
                                policy.to_engine().into(),
                                None,
                                &mut tele,
                                |_, _, _| {},
                            );
                            if let Some(e) = errors.get() {
                                panic!("trace {} changed mid-replay: {e}", path.display());
                            }
                            outcome(stats, summary.flows, tele, instrument)
                        },
                    )
                })
                .collect()
        },
    ))
}
