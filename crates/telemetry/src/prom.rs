//! Prometheus text-format rendering of a [`TelemetrySnapshot`].

use std::fmt::Write as _;

use crate::snapshot::TelemetrySnapshot;

/// Sanitize a metric-name fragment to `[a-zA-Z0-9_]`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and line feed must be escaped (`\\`, `\"`, `\n`) — a literal
/// newline would split the sample line and emit invalid exposition
/// text.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a label set (`{k="v",...}`), empty string when no labels.
fn label_str(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize(k), escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Merge extra labels onto a base label set.
fn with(labels: &[(&str, &str)], extra: (&str, &str)) -> String {
    let mut all: Vec<(&str, &str)> = labels.to_vec();
    all.push(extra);
    label_str(&all)
}

/// Render a snapshot in the Prometheus text exposition format.
///
/// Counters become `fss_<name>_total`, gauges `fss_<name>`, stage
/// totals a single `fss_stage_ns_total{stage="..."}` family, and each
/// histogram a `fss_<name>` family with cumulative `_bucket{le="..."}`
/// lines plus `_sum` and `_count`. `labels` (e.g. `cell_id`) are
/// attached to every sample line.
pub fn to_prometheus(snap: &TelemetrySnapshot, labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    let ls = label_str(labels);
    for (name, v) in &snap.counters {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE fss_{n}_total counter");
        let _ = writeln!(out, "fss_{n}_total{ls} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE fss_{n} gauge");
        let _ = writeln!(out, "fss_{n}{ls} {v}");
    }
    if !snap.stages.is_empty() {
        let _ = writeln!(out, "# TYPE fss_stage_ns_total counter");
        for s in &snap.stages {
            let l = with(labels, ("stage", &s.stage));
            let _ = writeln!(out, "fss_stage_ns_total{l} {}", s.total_ns);
        }
    }
    for (name, h) in &snap.histos {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE fss_{n} histogram");
        let mut cum = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum = cum.saturating_add(c);
            let hi = if i == 0 {
                0
            } else if i >= 63 {
                u64::MAX
            } else {
                (1u64 << i) - 1
            };
            let l = with(labels, ("le", &hi.to_string()));
            let _ = writeln!(out, "fss_{n}_bucket{l} {cum}");
        }
        let l = with(labels, ("le", "+Inf"));
        let _ = writeln!(out, "fss_{n}_bucket{l} {}", h.count);
        let _ = writeln!(out, "fss_{n}_sum{ls} {}", h.sum_ns);
        let _ = writeln!(out, "fss_{n}_count{ls} {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyHisto;

    #[test]
    fn renders_all_families() {
        let mut s = TelemetrySnapshot::new();
        s.add_counter("rounds", 12);
        s.max_gauge("peak_queue_depth", 4);
        s.add_stage_ns("ingest", 1000);
        let mut h = LatencyHisto::new();
        h.record(5);
        h.record(300);
        s.merge_histo("decision_latency_ns", &h.snapshot());

        let text = to_prometheus(&s, &[("cell_id", "fig6/a")]);
        assert!(text.contains("# TYPE fss_rounds_total counter"));
        assert!(text.contains("fss_rounds_total{cell_id=\"fig6/a\"} 12"));
        assert!(text.contains("fss_peak_queue_depth{cell_id=\"fig6/a\"} 4"));
        assert!(text.contains("fss_stage_ns_total{cell_id=\"fig6/a\",stage=\"ingest\"} 1000"));
        assert!(text.contains("fss_decision_latency_ns_bucket{cell_id=\"fig6/a\",le=\"+Inf\"} 2"));
        assert!(text.contains("fss_decision_latency_ns_count{cell_id=\"fig6/a\"} 2"));
    }

    #[test]
    fn label_values_escape_quotes_backslashes_and_newlines() {
        let mut s = TelemetrySnapshot::new();
        s.add_counter("rounds", 1);
        s.add_stage_ns("weird\"stage\\with\nnewline", 5);
        let text = to_prometheus(&s, &[("artifact", "runs/\"q1\"\\cell\nline2")]);
        // Every sample stays on one physical line...
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains(' '),
                "torn sample line: {line:?}"
            );
        }
        // ...and the value is escaped exactly per the exposition format.
        assert!(
            text.contains(r#"artifact="runs/\"q1\"\\cell\nline2""#),
            "{text}"
        );
        assert!(
            text.contains(r#"stage="weird\"stage\\with\nnewline""#),
            "{text}"
        );
        // No raw newline survives inside any label value.
        assert_eq!(text.matches("line2").count(), 2);
        for line in text.lines() {
            let quotes = line.matches('"').count() - line.matches("\\\"").count();
            assert!(quotes % 2 == 0, "unbalanced quotes in {line:?}");
        }
    }

    #[test]
    fn bucket_lines_are_cumulative() {
        let mut h = LatencyHisto::new();
        for v in [1u64, 2, 2, 900] {
            h.record(v);
        }
        let mut s = TelemetrySnapshot::new();
        s.merge_histo("lat", &h.snapshot());
        let text = to_prometheus(&s, &[]);
        assert!(text.contains("fss_lat_bucket{le=\"1\"} 1"));
        assert!(text.contains("fss_lat_bucket{le=\"3\"} 3"));
        assert!(text.contains("fss_lat_bucket{le=\"1023\"} 4"));
        assert!(text.contains("fss_lat_bucket{le=\"+Inf\"} 4"));
    }
}
