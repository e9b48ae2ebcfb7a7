//! The live serve-process metrics registry and its Prometheus
//! rendering.
//!
//! Two telemetry planes merge here. The **session plane** is a set of
//! pre-created lock-free cells ([`fss_telemetry::Registry`]) bumped
//! from the ingest loop and the engine's dispatch callback: flows
//! ingested/admitted/dropped/dispatched, pause and reconnect counts.
//! The **engine plane** is the round-loop's own
//! [`fss_telemetry::TelemetrySnapshot`] (stage timings, the
//! decision-latency histogram, round counters), published periodically
//! into a shared slot by `EngineTelemetry::publish_every` — the scrape
//! path never touches the hot loop.
//!
//! [`ServeMetrics::render`] merges both planes, adds the derived
//! gauges (`serve_queue_depth` from the admission gate's live counter,
//! `serve_flows_per_s`, decision p50/p99 copied out of the histogram),
//! and renders Prometheus text with a `source="serve"` label — the
//! same exposition `flowsched telemetry export` produces for batch
//! artifacts, so dashboards work on either.

use fss_flight::{read_spool, to_chrome, TraceSink};
use fss_telemetry::{to_prometheus, Counter, Registry, TelemetrySnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shared metric cells for one serve process (cheaply cloneable handles
/// inside an `Arc`; every field is lock-free except the engine slot).
pub struct ServeMetrics {
    registry: Registry,
    /// Ingest lines recognized as arrivals (before admission).
    pub ingested: Arc<Counter>,
    /// Arrivals admitted into the engine queue.
    pub admitted: Arc<Counter>,
    /// Arrivals shed by `Drop`-mode admission.
    pub dropped: Arc<Counter>,
    /// Dispatch decisions streamed out.
    pub dispatched: Arc<Counter>,
    /// Times `Pause`-mode admission blocked the producer.
    pub pauses: Arc<Counter>,
    /// Client connections accepted after the first (reattaches).
    pub reconnects: Arc<Counter>,
    /// Stalls the flight watchdog detected (round counter frozen past
    /// its budget; each one also dumped a post-mortem to the spool).
    pub stalls: Arc<Counter>,
    /// The session's live trace sink, when `--flight-trace` is on —
    /// the `/trace` endpoint drains and renders it.
    pub flight: Arc<Mutex<Option<TraceSink>>>,
    /// Live ingest queue depth, shared with the [`crate::AdmissionGate`].
    pub queue_depth: Arc<AtomicU64>,
    /// The engine round-loop's periodically-published snapshot
    /// (`EngineTelemetry::publish_every` writes it; the final snapshot
    /// is stored when the engine thread drains).
    pub engine: Arc<Mutex<TelemetrySnapshot>>,
    started: Instant,
}

impl ServeMetrics {
    /// A fresh registry with every cell pre-created (cell registration
    /// needs `&mut`; rendering is `&self` and thread-safe).
    pub fn new() -> ServeMetrics {
        let mut registry = Registry::new();
        let ingested = registry.counter("serve_flows_ingested");
        let admitted = registry.counter("serve_flows_admitted");
        let dropped = registry.counter("serve_flows_dropped");
        let dispatched = registry.counter("serve_flows_dispatched");
        let pauses = registry.counter("serve_ingest_pauses");
        let reconnects = registry.counter("serve_client_reconnects");
        let stalls = registry.counter("serve_stalls");
        ServeMetrics {
            registry,
            ingested,
            admitted,
            dropped,
            dispatched,
            pauses,
            reconnects,
            stalls,
            flight: Arc::new(Mutex::new(None)),
            queue_depth: Arc::new(AtomicU64::new(0)),
            engine: Arc::new(Mutex::new(TelemetrySnapshot::new())),
            started: Instant::now(),
        }
    }

    /// Render the merged live snapshot as Prometheus text (the
    /// `/metrics` endpoint body and the `Metrics` control-line reply).
    pub(crate) fn render(&self) -> String {
        let mut snap = self.registry.snapshot();
        if let Ok(engine) = self.engine.lock() {
            if !engine.is_empty() {
                snap.merge(&engine);
            }
        }
        snap.max_gauge(
            "serve_queue_depth",
            self.queue_depth.load(Ordering::Relaxed),
        );
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            let rate = self.dispatched.get() as f64 / elapsed;
            snap.max_gauge("serve_flows_per_s", rate as u64);
        }
        // Copy the percentile values out before mutating the snapshot
        // again (the histogram lookup borrows it).
        let latency = snap
            .histo("decision_latency_ns")
            .map(|h| (h.p50_ns, h.p99_ns));
        if let Some((p50, p99)) = latency {
            snap.max_gauge("serve_decision_p50_ns", p50);
            snap.max_gauge("serve_decision_p99_ns", p99);
        }
        to_prometheus(&snap, &[("source", "serve")])
    }

    /// Render the current span trace as Chrome Trace Format JSON (the
    /// `/trace` endpoint body): drains the rings into the spool, reads
    /// it back, and exports. `None` when the session runs untraced.
    pub(crate) fn trace_json(&self) -> Option<Result<String, String>> {
        let path = {
            let guard = self.flight.lock().ok()?;
            let sink = guard.as_ref()?;
            sink.drain();
            let w = sink.writer();
            let path = w.lock().ok()?.path().to_path_buf();
            path
        };
        Some(read_spool(&path).map(|spool| to_chrome(&spool)))
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_exposes_session_cells_and_derived_gauges() {
        let m = ServeMetrics::new();
        m.ingested.add(10);
        m.admitted.add(9);
        m.dropped.inc();
        m.dispatched.add(7);
        m.queue_depth.store(3, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("fss_serve_flows_ingested_total{source=\"serve\"} 10"));
        assert!(text.contains("fss_serve_flows_admitted_total{source=\"serve\"} 9"));
        assert!(text.contains("fss_serve_flows_dropped_total{source=\"serve\"} 1"));
        assert!(text.contains("fss_serve_flows_dispatched_total{source=\"serve\"} 7"));
        assert!(text.contains("fss_serve_queue_depth{source=\"serve\"} 3"));
        assert!(text.contains("fss_serve_flows_per_s{source=\"serve\"}"));
    }

    #[test]
    fn engine_snapshot_merges_into_the_scrape() {
        let m = ServeMetrics::new();
        {
            let mut slot = m.engine.lock().unwrap();
            slot.add_counter("flows_dispatched", 42);
            slot.add_stage_ns("dispatch", 1000);
        }
        let text = m.render();
        assert!(text.contains("fss_flows_dispatched_total{source=\"serve\"} 42"));
        assert!(text.contains("stage=\"dispatch\""));
    }

    #[test]
    fn decision_percentiles_surface_as_gauges_when_published() {
        use fss_telemetry::EngineTelemetry;
        let mut tele = EngineTelemetry::enabled();
        tele.decision(|| std::thread::sleep(std::time::Duration::from_micros(10)));
        tele.round();
        let m = ServeMetrics::new();
        *m.engine.lock().unwrap() = tele.snapshot();
        let text = m.render();
        assert!(text.contains("fss_serve_decision_p50_ns{source=\"serve\"}"));
        assert!(text.contains("fss_serve_decision_p99_ns{source=\"serve\"}"));
    }
}
