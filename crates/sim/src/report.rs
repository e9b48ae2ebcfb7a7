//! ASCII rendering of experiment results, plus the persisted
//! `BENCH_*.json` artifact schema the benchmark orchestrator emits.

use std::fmt::Write as _;

use fss_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

use crate::experiment::{CellResult, LpBoundResult};

/// Version stamp written into every `BENCH_*.json` artifact, and the
/// only version this build reads. Bump when the shape of
/// [`BenchReport`] / [`BenchCell`] changes incompatibly.
///
/// v2 added the `fingerprint` field to [`BenchCell`] (the stable cell
/// identity the distributed runner checkpoints and resumes on). v3
/// added the optional `telemetry` field (per-cell stage timings and
/// decision-latency quantiles).
pub const BENCH_SCHEMA_VERSION: u32 = 3;

/// Stable fingerprint of a cell: a 64-bit FNV-1a hash (hex) over the
/// cell id and its ordered grid parameters.
///
/// Because every cell's RNG seeds are derived from its id/parameter
/// values (not from run order), the fingerprint pins down the exact
/// workload: two processes that compute the same fingerprint will
/// execute the same cell and produce the same metrics. The distributed
/// runner uses fingerprints as assignment and checkpoint keys, so
/// scale-dependent knobs (ports, horizon, trials) must appear in the id
/// or the params — cells from different tiers must never collide.
pub fn cell_fingerprint(cell_id: &str, params: &[(String, String)]) -> String {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = FNV_OFFSET;
    eat(&mut h, cell_id.as_bytes());
    eat(&mut h, &[0xff]);
    for (k, v) in params {
        eat(&mut h, k.as_bytes());
        eat(&mut h, &[0x00]);
        eat(&mut h, v.as_bytes());
        eat(&mut h, &[0x01]);
    }
    format!("{h:016x}")
}

/// One executed benchmark cell: a single point of an experiment grid.
///
/// Cells are self-describing — `params` carries the grid coordinates as
/// ordered key/value strings and `metrics` the measured objective values
/// as ordered name/value pairs — so the schema covers every experiment
/// (figures, tables, sweeps) without per-experiment structs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCell {
    /// Unique id within the run, e.g. `fig6/MaxCard/M50/T10`.
    pub cell_id: String,
    /// Stable identity hash of `(cell_id, params)` — see
    /// [`cell_fingerprint`]. Checkpoint/resume and shard assignment key
    /// on this, so validation requires it to match the recomputation.
    pub fingerprint: String,
    /// Grid coordinates, e.g. `[("policy","MaxCard"),("M","50")]`.
    pub params: Vec<(String, String)>,
    /// Measured objective values, e.g. `[("avg_response", 3.2)]`.
    pub metrics: Vec<(String, f64)>,
    /// Wall-clock seconds spent executing the cell.
    pub wall_s: f64,
    /// Work units (flows, instances, LP solves) processed by the cell;
    /// `0` when throughput is not meaningful for the experiment.
    pub flows: u64,
    /// Execution substrate, e.g. `engine`, `lp`, `exact`.
    pub engine_mode: String,
    /// Per-cell telemetry snapshot (stage timings, decision-latency
    /// quantiles) captured when the run was instrumented. `None` for
    /// uninstrumented runs (schema v3 addition).
    /// Timing data: excluded from [`cells_eq_modulo_timing`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub telemetry: Option<TelemetrySnapshot>,
}

impl BenchCell {
    /// Build a cell, stamping the fingerprint from `(cell_id, params)`.
    pub fn new(
        cell_id: impl Into<String>,
        params: Vec<(String, String)>,
        metrics: Vec<(String, f64)>,
        wall_s: f64,
        flows: u64,
        engine_mode: impl Into<String>,
    ) -> BenchCell {
        let cell_id = cell_id.into();
        let fingerprint = cell_fingerprint(&cell_id, &params);
        BenchCell {
            cell_id,
            fingerprint,
            params,
            metrics,
            wall_s,
            flows,
            engine_mode: engine_mode.into(),
            telemetry: None,
        }
    }

    /// Attach (or clear) a telemetry snapshot; builder-style.
    pub fn with_telemetry(mut self, telemetry: Option<TelemetrySnapshot>) -> BenchCell {
        self.telemetry = telemetry;
        self
    }

    /// Throughput in work units per second (`0.0` when `flows == 0`).
    /// The denominator clamps to the 1 ms timer resolution so a cell
    /// finishing under it reports a bounded rate, not a ~1e9x garbage
    /// one.
    pub(crate) fn flows_per_s(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.flows as f64 / self.wall_s.max(1e-3)
        }
    }

    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Look up a grid parameter by key.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Aggregated result of one experiment run: the persisted form of
/// `BENCH_<experiment>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`BENCH_SCHEMA_VERSION`] for artifacts written by this
    /// build; readers reject other versions.
    pub schema_version: u32,
    /// Registry id of the experiment, e.g. `fig6`.
    pub experiment: String,
    /// One-line human description of what the experiment measures.
    pub description: String,
    /// Whether the run used the smoke (CI-sized) grids rather than the
    /// paper's (`bench --paper`).
    pub smoke: bool,
    /// Worker threads the orchestrator ran cells on.
    pub jobs: u64,
    /// Wall-clock seconds for the whole experiment (its cells may share
    /// the executor with other experiments, so this is end-to-end time,
    /// not the sum of `wall_s`).
    pub total_wall_s: f64,
    /// Every executed cell, in registry (declaration) order.
    pub cells: Vec<BenchCell>,
}

impl BenchReport {
    /// Total work units across all cells.
    pub fn total_flows(&self) -> u64 {
        self.cells.iter().map(|c| c.flows).sum()
    }

    /// The canonical artifact file name, `BENCH_<experiment>.json`.
    pub fn artifact_name(&self) -> String {
        bench_artifact_name(&self.experiment)
    }
}

/// The canonical artifact file name for an experiment id.
pub fn bench_artifact_name(experiment: &str) -> String {
    format!("BENCH_{experiment}.json")
}

/// Serialize a report to pretty JSON (the on-disk artifact form).
pub fn bench_report_to_json(report: &BenchReport) -> String {
    serde_json::to_string_pretty(report).expect("bench reports contain only finite numbers")
}

/// Serialize one cell to a single compact JSON line (the JSONL stream
/// form; callers append the newline).
pub fn bench_cell_to_jsonl(cell: &BenchCell) -> String {
    serde_json::to_string(cell).expect("bench cells contain only finite numbers")
}

/// Parse and schema-validate a `BENCH_*.json` artifact.
pub fn bench_report_from_json(text: &str) -> Result<BenchReport, String> {
    let report: BenchReport = serde_json::from_str(text).map_err(|e| e.to_string())?;
    validate_bench_report(&report)?;
    Ok(report)
}

/// Structural checks beyond what deserialization enforces: version match,
/// at least one cell, unique non-empty cell ids, finite metric values and
/// timings.
pub fn validate_bench_report(report: &BenchReport) -> Result<(), String> {
    if report.schema_version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema version {} (this build reads {BENCH_SCHEMA_VERSION})",
            report.schema_version
        ));
    }
    if report.experiment.is_empty() {
        return Err("empty experiment id".into());
    }
    if report.cells.is_empty() {
        return Err(format!("experiment {}: no cells", report.experiment));
    }
    if !report.total_wall_s.is_finite() || report.total_wall_s < 0.0 {
        return Err(format!(
            "experiment {}: bad total_wall_s",
            report.experiment
        ));
    }
    let mut seen: Vec<&str> = Vec::with_capacity(report.cells.len());
    for cell in &report.cells {
        if cell.cell_id.is_empty() {
            return Err(format!("experiment {}: empty cell id", report.experiment));
        }
        if seen.contains(&cell.cell_id.as_str()) {
            return Err(format!("duplicate cell id {}", cell.cell_id));
        }
        seen.push(&cell.cell_id);
        let expected = cell_fingerprint(&cell.cell_id, &cell.params);
        if cell.fingerprint != expected {
            return Err(format!(
                "cell {}: fingerprint {} does not match recomputed {expected}",
                cell.cell_id, cell.fingerprint
            ));
        }
        if !cell.wall_s.is_finite() || cell.wall_s < 0.0 {
            return Err(format!("cell {}: bad wall_s", cell.cell_id));
        }
        for (name, value) in &cell.metrics {
            if name.is_empty() {
                return Err(format!("cell {}: empty metric name", cell.cell_id));
            }
            if !value.is_finite() {
                return Err(format!("cell {}: metric {name} not finite", cell.cell_id));
            }
        }
    }
    Ok(())
}

/// Timing-insensitive cell equality: everything except `wall_s` and
/// `telemetry` (both machine- and run-dependent) must match. The
/// distributed runner's differential tests compare merged multi-worker
/// artifacts against a single-process run with this, and the
/// instrumented-vs-disabled differential test relies on telemetry being
/// excluded here.
pub fn cells_eq_modulo_timing(a: &BenchCell, b: &BenchCell) -> bool {
    a.cell_id == b.cell_id
        && a.fingerprint == b.fingerprint
        && a.params == b.params
        && a.metrics == b.metrics
        && a.flows == b.flows
        && a.engine_mode == b.engine_mode
}

/// Timing-insensitive report equality: cell-for-cell
/// [`cells_eq_modulo_timing`] in the same order, ignoring `jobs` and
/// `total_wall_s` (thread count and wall clock differ by design
/// between a resumed run and an uninterrupted one).
pub fn reports_eq_modulo_timing(a: &BenchReport, b: &BenchReport) -> bool {
    a.schema_version == b.schema_version
        && a.experiment == b.experiment
        && a.description == b.description
        && a.smoke == b.smoke
        && a.cells.len() == b.cells.len()
        && a.cells
            .iter()
            .zip(&b.cells)
            .all(|(x, y)| cells_eq_modulo_timing(x, y))
}

/// Result of replaying a `BENCH_cells.jsonl` checkpoint stream.
#[derive(Debug, Clone)]
pub struct CellsReplay {
    /// Every cell recovered from a fully-written line, in file order.
    pub cells: Vec<BenchCell>,
    /// Warning describing a skipped final line that did not parse — the
    /// signature of a crash mid-write. `None` when every line parsed.
    pub truncated_tail: Option<String>,
}

/// Parse a `BENCH_cells.jsonl` stream, tolerating a truncated final
/// line.
///
/// A crash while the orchestrator appends to the stream
/// can leave a partially-written last line; resumable runs must treat
/// that as "this cell was not checkpointed", not as a corrupt file. So:
/// an unparseable **final** line is skipped and reported in
/// [`CellsReplay::truncated_tail`]; an unparseable line anywhere else —
/// which appends can not produce — is a hard error, as is any cell
/// whose fingerprint fails validation (a truncated write can not forge
/// a valid JSON cell, so a mismatch means real corruption).
pub fn parse_cells_jsonl(text: &str) -> Result<CellsReplay, String> {
    let lines: Vec<&str> = text.lines().collect();
    let last_nonempty = lines.iter().rposition(|l| !l.trim().is_empty());
    let mut cells = Vec::new();
    let mut truncated_tail = None;
    for (i, line) in lines.iter().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<BenchCell>(line) {
            Ok(cell) => {
                let expected = cell_fingerprint(&cell.cell_id, &cell.params);
                if cell.fingerprint != expected {
                    return Err(format!(
                        "line {}: cell {} carries fingerprint {} but recomputes to {expected}",
                        i + 1,
                        cell.cell_id,
                        cell.fingerprint
                    ));
                }
                cells.push(cell);
            }
            Err(e) if Some(i) == last_nonempty => {
                truncated_tail = Some(format!(
                    "final line {} does not parse ({e}); treating it as a truncated \
                     crash tail and skipping it",
                    i + 1
                ));
            }
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(CellsReplay {
        cells,
        truncated_tail,
    })
}

/// Read and [`parse_cells_jsonl`] an on-disk checkpoint stream.
pub fn read_cells_jsonl(path: &std::path::Path) -> Result<CellsReplay, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_cells_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Render a report as an aligned ASCII table (one row per cell), for the
/// thin CLI wrappers that used to hand-format their own output.
pub fn bench_table(report: &BenchReport) -> String {
    let mut out = format!(
        "{} — {} ({} cells, {:.2}s total)\n",
        report.experiment,
        report.description,
        report.cells.len(),
        report.total_wall_s
    );
    for cell in &report.cells {
        let _ = write!(out, "{:<40}", cell.cell_id);
        for (name, value) in &cell.metrics {
            let _ = write!(out, "  {name}={value:.4}");
        }
        if cell.flows > 0 {
            let _ = write!(out, "  ({:.0} flows/s)", cell.flows_per_s());
        }
        out.push('\n');
    }
    out
}

/// Render one figure-style series table: rows = T values, columns =
/// policies (plus the LP bound when provided), values chosen by `metric`
/// (`avg` or `max`). One table per `M` value, like the panels of
/// Figures 6 and 7.
pub fn figure_table(
    cells: &[CellResult],
    bounds: &[LpBoundResult],
    mean_arrivals: f64,
    use_max: bool,
) -> String {
    let mut policies: Vec<&'static str> = Vec::new();
    for c in cells {
        if c.mean_arrivals == mean_arrivals && !policies.contains(&c.policy.name()) {
            policies.push(c.policy.name());
        }
    }
    let mut t_values: Vec<u64> = cells
        .iter()
        .filter(|c| c.mean_arrivals == mean_arrivals)
        .map(|c| c.rounds)
        .collect();
    t_values.sort_unstable();
    t_values.dedup();

    let metric_name = if use_max {
        "max response"
    } else {
        "avg response"
    };
    let mut out = format!("M = {mean_arrivals} ({metric_name})\n");
    let _ = write!(out, "{:>6}", "T");
    for p in &policies {
        let _ = write!(out, "{p:>12}");
    }
    if !bounds.is_empty() {
        let _ = write!(out, "{:>12}", "LP bound");
    }
    out.push('\n');
    for &t in &t_values {
        let _ = write!(out, "{t:>6}");
        for p in &policies {
            let v = cells
                .iter()
                .find(|c| {
                    c.mean_arrivals == mean_arrivals && c.rounds == t && c.policy.name() == *p
                })
                .map(|c| {
                    if use_max {
                        c.max_response
                    } else {
                        c.avg_response
                    }
                });
            match v {
                Some(v) => {
                    let _ = write!(out, "{v:>12.3}");
                }
                None => {
                    let _ = write!(out, "{:>12}", "-");
                }
            }
        }
        if !bounds.is_empty() {
            let v = bounds
                .iter()
                .find(|b| b.mean_arrivals == mean_arrivals && b.rounds == t)
                .map(|b| {
                    if use_max {
                        b.max_response_bound
                    } else {
                        b.avg_response_bound
                    }
                });
            match v {
                Some(v) => {
                    let _ = write!(out, "{v:>12.3}");
                }
                None => {
                    let _ = write!(out, "{:>12}", "-");
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PolicyKind;

    fn cell(policy: PolicyKind, m: f64, t: u64, avg: f64, max: f64) -> CellResult {
        CellResult {
            policy,
            mean_arrivals: m,
            rounds: t,
            trials: 2,
            avg_response: avg,
            max_response: max,
            mean_flows: 10.0,
        }
    }

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "fig6".into(),
            description: "average response vs LP bound".into(),
            smoke: true,
            jobs: 4,
            total_wall_s: 0.25,
            cells: vec![
                BenchCell::new(
                    "fig6/MaxCard/M50/T10",
                    vec![
                        ("policy".into(), "MaxCard".into()),
                        ("M".into(), "50".into()),
                        ("T".into(), "10".into()),
                    ],
                    vec![("avg_response".into(), 3.25), ("max_response".into(), 9.0)],
                    0.125,
                    500,
                    "engine",
                ),
                BenchCell::new(
                    "fig6/lp/M50/T10",
                    vec![("M".into(), "50".into()), ("T".into(), "10".into())],
                    vec![("avg_response_bound".into(), 2.5)],
                    0.0625,
                    0,
                    "lp",
                ),
            ],
        }
    }

    #[test]
    fn bench_report_round_trips_through_json() {
        let report = sample_report();
        let json = bench_report_to_json(&report);
        let parsed = bench_report_from_json(&json).expect("valid artifact");
        assert_eq!(parsed, report);
    }

    #[test]
    fn bench_cell_jsonl_round_trips() {
        let cell = sample_report().cells.remove(0);
        let line = bench_cell_to_jsonl(&cell);
        assert!(!line.contains('\n'), "JSONL lines must be single-line");
        let parsed: BenchCell = serde_json::from_str(&line).expect("valid line");
        assert_eq!(parsed, cell);
    }

    #[test]
    fn bench_cell_accessors() {
        let report = sample_report();
        let cell = &report.cells[0];
        assert_eq!(cell.param("policy"), Some("MaxCard"));
        assert_eq!(cell.metric("avg_response"), Some(3.25));
        assert_eq!(cell.metric("missing"), None);
        assert!((cell.flows_per_s() - 4000.0).abs() < 1e-6);
        assert_eq!(report.cells[1].flows_per_s(), 0.0);
        assert_eq!(report.total_flows(), 500);
        assert_eq!(report.artifact_name(), "BENCH_fig6.json");
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let mut r = sample_report();
        r.schema_version += 1;
        assert!(validate_bench_report(&r).is_err(), "wrong version");

        let mut r = sample_report();
        r.cells.clear();
        assert!(validate_bench_report(&r).is_err(), "no cells");

        let mut r = sample_report();
        r.cells[1].cell_id = r.cells[0].cell_id.clone();
        assert!(validate_bench_report(&r).is_err(), "duplicate cell id");

        let mut r = sample_report();
        r.cells[0].metrics[0].1 = f64::NAN;
        assert!(validate_bench_report(&r).is_err(), "non-finite metric");

        let mut r = sample_report();
        r.cells[0].fingerprint = "0000000000000000".into();
        let err = validate_bench_report(&r).expect_err("forged fingerprint");
        assert!(err.contains("fingerprint"), "{err}");
    }

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut histo = fss_telemetry::LatencyHisto::new();
        for v in [3u64, 17, 170, 9000] {
            histo.record(v);
        }
        let mut snap = TelemetrySnapshot::new();
        snap.add_counter("rounds", 42);
        snap.add_counter("flows_dispatched", 500);
        snap.max_gauge("peak_queue_depth", 31);
        snap.add_stage_ns("ingest", 1_000);
        snap.add_stage_ns("match_repair", 9_000);
        snap.merge_histo("decision_latency_ns", &histo.snapshot());
        snap
    }

    #[test]
    fn uninstrumented_cells_carry_no_telemetry_key() {
        let report = sample_report();
        let json = bench_report_to_json(&report);
        assert!(
            !json.contains("telemetry"),
            "uninstrumented cells must not emit a telemetry key"
        );
        let parsed = bench_report_from_json(&json).expect("artifact reads");
        assert!(parsed.cells.iter().all(|c| c.telemetry.is_none()));
    }

    #[test]
    fn telemetry_snapshot_round_trips_through_cell_json() {
        let cell = sample_report()
            .cells
            .remove(0)
            .with_telemetry(Some(sample_snapshot()));
        let line = bench_cell_to_jsonl(&cell);
        assert!(line.contains("telemetry"));
        let parsed: BenchCell = serde_json::from_str(&line).expect("valid line");
        assert_eq!(parsed, cell);
        let snap = parsed.telemetry.expect("snapshot survived");
        assert_eq!(snap.counter("rounds"), Some(42));
        assert_eq!(snap.stage_ns("match_repair"), Some(9_000));
        assert_eq!(snap.slowest_stage().unwrap().stage, "match_repair");
        let histo = snap.histo("decision_latency_ns").expect("histo survived");
        assert_eq!(histo.count, 4);
    }

    #[test]
    fn eq_modulo_timing_ignores_telemetry() {
        let a = sample_report().cells.remove(0);
        let b = a.clone().with_telemetry(Some(sample_snapshot()));
        assert_ne!(a, b, "telemetry participates in strict equality");
        assert!(
            cells_eq_modulo_timing(&a, &b),
            "telemetry is timing data and must not affect modulo-timing equality"
        );
    }

    #[test]
    fn validation_accepts_exactly_the_current_version() {
        let mut r = sample_report();
        assert!(validate_bench_report(&r).is_ok());
        for version in [BENCH_SCHEMA_VERSION - 1, BENCH_SCHEMA_VERSION + 1] {
            r.schema_version = version;
            let err = validate_bench_report(&r).unwrap_err();
            assert!(err.contains(&format!("schema version {version}")), "{err}");
        }
    }

    #[test]
    fn fingerprints_are_stable_and_param_sensitive() {
        let params = vec![("M".to_string(), "50".to_string())];
        let a = cell_fingerprint("fig6/MaxCard/M50/T10", &params);
        let b = cell_fingerprint("fig6/MaxCard/M50/T10", &params);
        assert_eq!(a, b, "deterministic");
        assert_eq!(a.len(), 16, "16 hex chars");
        // Any change to id or params moves the fingerprint.
        assert_ne!(a, cell_fingerprint("fig6/MaxCard/M50/T12", &params));
        let other = vec![("M".to_string(), "51".to_string())];
        assert_ne!(a, cell_fingerprint("fig6/MaxCard/M50/T10", &other));
        // Key/value boundaries are separated: ("ab","c") != ("a","bc").
        let kv1 = vec![("ab".to_string(), "c".to_string())];
        let kv2 = vec![("a".to_string(), "bc".to_string())];
        assert_ne!(cell_fingerprint("x", &kv1), cell_fingerprint("x", &kv2));
    }

    #[test]
    fn eq_modulo_timing_ignores_wall_clock_and_topology() {
        let a = sample_report();
        let mut b = sample_report();
        b.jobs = 7;
        b.total_wall_s = 99.0;
        b.cells[0].wall_s = 42.0;
        assert!(reports_eq_modulo_timing(&a, &b));
        b.cells[0].metrics[0].1 += 1.0;
        assert!(!reports_eq_modulo_timing(&a, &b), "metric drift detected");
        let mut c = sample_report();
        c.cells.pop();
        assert!(!reports_eq_modulo_timing(&a, &c), "cell count detected");
    }

    #[test]
    fn jsonl_replay_recovers_full_lines_and_skips_truncated_tail() {
        let report = sample_report();
        let full: Vec<String> = report.cells.iter().map(bench_cell_to_jsonl).collect();
        // Intact stream: everything parses, no warning.
        let intact = format!("{}\n{}\n", full[0], full[1]);
        let replay = parse_cells_jsonl(&intact).expect("intact stream");
        assert_eq!(replay.cells.len(), 2);
        assert!(replay.truncated_tail.is_none());

        // Crash tail: final line cut mid-JSON is skipped with a warning.
        let half = &full[1][..full[1].len() / 2];
        let crashed = format!("{}\n{half}", full[0]);
        let replay = parse_cells_jsonl(&crashed).expect("crash tail tolerated");
        assert_eq!(replay.cells.len(), 1);
        assert_eq!(replay.cells[0].cell_id, report.cells[0].cell_id);
        let warn = replay.truncated_tail.expect("warning reported");
        assert!(warn.contains("truncated"), "{warn}");

        // A trailing newline after the truncated tail changes nothing.
        let replay = parse_cells_jsonl(&format!("{crashed}\n")).expect("tail + newline");
        assert_eq!(replay.cells.len(), 1);
        assert!(replay.truncated_tail.is_some());

        // Blank lines are ignored, including after the tail.
        let replay = parse_cells_jsonl(&format!("{crashed}\n\n  \n")).expect("blank padding");
        assert_eq!(replay.cells.len(), 1);
        assert!(replay.truncated_tail.is_some());
    }

    #[test]
    fn jsonl_replay_rejects_mid_stream_corruption_and_forged_cells() {
        let report = sample_report();
        let full: Vec<String> = report.cells.iter().map(bench_cell_to_jsonl).collect();
        // Corruption that is NOT the final line can not come from a
        // truncated append: hard error.
        let corrupt_middle = format!("{}garbage\n{}\n", &full[0][..10], full[1]);
        let err = parse_cells_jsonl(&corrupt_middle).expect_err("mid-stream corruption");
        assert!(err.contains("line 1"), "{err}");

        // A fully-written cell with a forged fingerprint is corruption
        // even on the final line.
        let mut forged = report.cells[0].clone();
        forged.fingerprint = "1111111111111111".into();
        let text = format!("{}\n{}\n", full[0], bench_cell_to_jsonl(&forged));
        let err = parse_cells_jsonl(&text).expect_err("forged fingerprint");
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn jsonl_file_reader_reports_path_on_errors() {
        let dir = std::env::temp_dir().join("fss-sim-report-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cells.jsonl");
        let cell = sample_report().cells.remove(0);
        std::fs::write(
            &path,
            format!("{}\n{{\"cell_id", bench_cell_to_jsonl(&cell)),
        )
        .unwrap();
        let replay = read_cells_jsonl(&path).expect("tolerant read");
        assert_eq!(replay.cells.len(), 1);
        assert!(replay.truncated_tail.is_some());
        let missing = dir.join("no-such-stream.jsonl");
        let err = read_cells_jsonl(&missing).expect_err("missing file");
        assert!(err.contains("no-such-stream"), "{err}");
    }

    #[test]
    fn bench_table_renders_all_cells() {
        let report = sample_report();
        let table = bench_table(&report);
        assert!(table.contains("fig6/MaxCard/M50/T10"));
        assert!(table.contains("avg_response=3.2500"));
        assert!(table.contains("flows/s"));
    }

    #[test]
    fn figure_table_lays_out_series() {
        let cells = vec![
            cell(PolicyKind::MaxCard, 50.0, 10, 1.5, 3.0),
            cell(PolicyKind::MinRTime, 50.0, 10, 1.8, 2.0),
            cell(PolicyKind::MaxCard, 50.0, 12, 1.6, 3.5),
            cell(PolicyKind::MinRTime, 50.0, 12, 1.9, 2.2),
        ];
        let bounds = vec![LpBoundResult {
            mean_arrivals: 50.0,
            rounds: 10,
            trials: 2,
            avg_response_bound: 1.0,
            max_response_bound: 2.0,
        }];
        let table = figure_table(&cells, &bounds, 50.0, false);
        assert!(table.contains("MaxCard"));
        assert!(table.contains("LP bound"));
        assert!(table.contains("1.500"));
        // T=12 has no bound: dash.
        assert!(table.lines().last().unwrap().trim_end().ends_with('-'));
    }
}
