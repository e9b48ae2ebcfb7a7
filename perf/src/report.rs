//! What the benchmark prints and writes: metrics by name with their unit,
//! the sample count and spread beside each, the machine fingerprint, and
//! the one-line result the driver reads.

use serde::Serialize;

use crate::stats::Summary;

/// One reported number.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The reported estimate (for timings: the fast-side quartile).
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the estimate (repetitions, or rounds for a
    /// within-repetition percentile).
    pub samples: u64,
    /// Across-repetition median of the same quantity.
    pub median: f64,
    /// Across-repetition interquartile distance as a share of the median.
    pub iqr_share: f64,
}

impl Metric {
    /// A count or a single measurement: no spread to report.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: 1,
            median: value,
            iqr_share: 0.0,
        }
    }

    /// `value` is derived from `s` by `f` (identity, a unit change, or
    /// "flows per this many seconds"); the median goes through the same
    /// `f`.
    pub fn of(
        name: &'static str,
        unit: &'static str,
        s: &Summary,
        pick: f64,
        f: impl Fn(f64) -> f64,
    ) -> Metric {
        Metric {
            name,
            value: f(pick),
            unit,
            samples: s.n as u64,
            median: f(s.median),
            iqr_share: s.iqr_share,
        }
    }
}

/// Where and how the numbers were taken.
#[derive(Debug, Clone, Serialize)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub hw_threads: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `git rev-parse --short HEAD` of the checkout, if it is one.
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

impl Fingerprint {
    /// Read the machine.
    pub fn read() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            hw_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_commit: command_line(
                "git",
                &[
                    "-C",
                    env!("CARGO_MANIFEST_DIR"),
                    "rev-parse",
                    "--short",
                    "HEAD",
                ],
            ),
        }
    }
}

/// One workload's share of the ledger.
#[derive(Debug, Serialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Why it exists.
    pub why: &'static str,
    /// Flows one repetition dispatches.
    pub flows: u64,
    /// Flows offered in every checked repetition: timed and traced ones
    /// (aggregate statistics, or every line on `serve-socket`) and the
    /// verification pass (the whole dispatch log).
    pub attempted: u64,
    /// Of those, not correctly dispatched.
    pub failed: u64,
    /// `failed / attempted`.
    pub failed_share: f64,
    /// Untraced pass.
    pub end_to_end: Vec<Metric>,
    /// Traced pass.
    pub per_layer: Vec<Metric>,
}

/// `perf/out/BENCH_perf.json`.
#[derive(Debug, Serialize)]
pub struct Ledger {
    /// Bump on any change of shape.
    pub schema: u32,
    /// The machine.
    pub fingerprint: Fingerprint,
    /// `--seed`.
    pub seed: u64,
    /// Timed cycles (after one warm-up cycle).
    pub repetitions: u64,
    /// Wall of the whole command, seconds.
    pub wall_s: f64,
    /// Per workload.
    pub workloads: Vec<WorkloadReport>,
    /// The layer suite, run once after the traced pass.
    pub layers: Vec<Metric>,
    /// How far to trust this run.
    pub harness: Vec<Metric>,
}

/// Print metrics as an aligned table.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}");
    for m in metrics {
        println!(
            "    {:<40} {:>16.4} {:<8} n={:<5} median {:.4}  iqr {:.1}%",
            m.name,
            m.value,
            m.unit,
            m.samples,
            m.median,
            m.iqr_share * 100.0
        );
    }
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
