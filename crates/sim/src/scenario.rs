//! The declarative `Scenario` API: one serializable description of a
//! workload that every consumer — engine, saturation sweep, failure
//! runner, bench registry, CLI — constructs its [`FlowSource`] from.
//!
//! A [`ScenarioSpec`] names the switch size, the horizon, the arrival
//! process (synthetic Poisson or an on-disk arrival trace), an
//! optional [`FailurePlan`], and the RNG seed. From a spec you can:
//!
//! * [`ScenarioSpec::source`] — open the streaming arrival source;
//! * [`run_scenario`] — execute a policy over it through the event-driven
//!   engine in `O(peak queue)` memory (horizons in the millions are fine);
//! * [`ScenarioSpec::instance`] — materialize the batch [`Instance`] for
//!   the LP bounds and differential tests;
//! * [`ScenarioSpec::dump_trace`] — freeze the workload into an arrival
//!   trace for exact replay anywhere.
//!
//! The JSON form (see [`ScenarioSpec::to_json`]) keeps scenarios
//! versionable and shareable:
//!
//! ```json
//! {
//!   "ports": 150,
//!   "horizon": 1000,
//!   "arrivals": {"poisson": {"rate": 600.0}},
//!   "failures": {"outages": [{"side": "Input", "port": 0, "from": 10, "to": 40}]},
//!   "seed": 42
//! }
//! ```

use std::fmt;
use std::path::Path;

use fss_core::prelude::*;
use fss_engine::{FlowSource, PoissonSource, StreamStats};
use fss_trace::TraceFileError;
use serde::{Content, DeError, Deserialize, Serialize};

use crate::arrival_trace::ArrivalTrace;
use crate::experiment::PolicyKind;

/// Largest Poisson rate (mean arrivals per round) a spec may ask for.
/// The sampler's work per round grows with the rate (`rate / 30` Knuth
/// draws, then one arrival per flow), so a finite but absurd rate would
/// spin on its first round; the paper's heaviest cell is 600.
const MAX_POISSON_RATE: f64 = 1e6;

/// Errors raised while loading, validating, or running a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A trace or spec file could not be read, parsed or validated: the
    /// trace subsystem's own diagnosis (path or 1-based line included).
    Trace(TraceFileError),
    /// The spec itself is invalid (zero ports, bad rate, ...).
    BadSpec(String),
    /// A bounded workload is required but the spec is endless
    /// (Poisson with no horizon).
    Unbounded,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Trace(e) => e.fmt(f),
            ScenarioError::BadSpec(msg) => write!(f, "bad scenario: {msg}"),
            ScenarioError::Unbounded => {
                write!(f, "scenario is unbounded (poisson arrivals need a horizon)")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TraceFileError> for ScenarioError {
    fn from(e: TraceFileError) -> ScenarioError {
        ScenarioError::Trace(e)
    }
}

/// The arrival process of a scenario.
///
/// With real serde this would be a `#[derive(Serialize, Deserialize)]`
/// externally-tagged enum; the in-tree shim's derive only covers unit
/// enums, so the (identical) tagged representation is implemented by
/// hand below.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// `Poisson(rate)` unit flows per round on uniformly random port
    /// pairs (the paper's §5.2.1 workload).
    Poisson {
        /// Mean arrivals per round (`M` in the paper).
        rate: f64,
    },
    /// Replay an on-disk arrival trace, streamed from the file
    /// ([`fss_trace::StreamingTraceSource`]): memory is O(1) in the
    /// trace length, so traces far larger than RAM replay.
    Trace {
        /// Path to the JSONL trace file.
        path: String,
    },
}

impl Serialize for ArrivalSpec {
    fn to_content(&self) -> serde::Content {
        let (tag, body) = match self {
            ArrivalSpec::Poisson { rate } => (
                "poisson",
                Content::Map(vec![("rate".to_string(), rate.to_content())]),
            ),
            ArrivalSpec::Trace { path } => (
                "trace",
                Content::Map(vec![("path".to_string(), path.to_content())]),
            ),
        };
        Content::Map(vec![(tag.to_string(), body)])
    }
}

impl Deserialize for ArrivalSpec {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        let Content::Map(m) = c else {
            return Err(DeError::expected("map", "ArrivalSpec"));
        };
        let [(tag, body)] = m.as_slice() else {
            return Err(DeError::msg(
                "ArrivalSpec must have exactly one variant key (`poisson` or `trace`)",
            ));
        };
        match tag.as_str() {
            "poisson" => {
                let Content::Map(fields) = body else {
                    return Err(DeError::expected("map", "ArrivalSpec::Poisson"));
                };
                Ok(ArrivalSpec::Poisson {
                    rate: serde::field(fields, "rate")?,
                })
            }
            "trace" => {
                let Content::Map(fields) = body else {
                    return Err(DeError::expected("map", "ArrivalSpec::Trace"));
                };
                // Other keys are ignored: a spec file that carries the
                // retired `"streaming"` key must still load.
                Ok(ArrivalSpec::Trace {
                    path: serde::field(fields, "path")?,
                })
            }
            other => Err(DeError::msg(format!(
                "unknown arrival kind `{other}` (use `poisson` or `trace`)"
            ))),
        }
    }
}

/// A complete, serializable workload description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Square switch size (`ports x ports`, unit capacities). For trace
    /// arrivals, 0 means "inherit from the trace header"; a nonzero value
    /// must match the header.
    pub ports: usize,
    /// Arrival rounds. Required for Poisson arrivals to be bounded; for
    /// traces, `None` replays the whole file and `Some(h)` truncates at
    /// release `h`.
    pub horizon: Option<u64>,
    /// The arrival process.
    pub arrivals: ArrivalSpec,
    /// Optional port-outage plan injected during execution.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub failures: Option<FailurePlan>,
    /// RNG seed (synthetic arrivals only; ignored for traces).
    #[serde(default)]
    pub seed: u64,
}

impl ScenarioSpec {
    /// A bounded Poisson scenario: the paper's §5.2.1 workload as a spec.
    pub fn poisson(ports: usize, rate: f64, horizon: u64, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            ports,
            horizon: Some(horizon),
            arrivals: ArrivalSpec::Poisson { rate },
            failures: None,
            seed,
        }
    }

    /// A trace-replay scenario over the given file (ports inherited from
    /// the trace header).
    pub fn trace(path: impl Into<String>) -> ScenarioSpec {
        ScenarioSpec {
            ports: 0,
            horizon: None,
            arrivals: ArrivalSpec::Trace { path: path.into() },
            failures: None,
            seed: 0,
        }
    }

    /// Attach a failure plan.
    pub fn with_failures(mut self, plan: FailurePlan) -> ScenarioSpec {
        self.failures = Some(plan);
        self
    }

    /// Structural validity: ports/rate/horizon make sense together.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match &self.arrivals {
            ArrivalSpec::Poisson { rate } => {
                if self.ports == 0 {
                    return Err(ScenarioError::BadSpec(
                        "poisson scenario needs ports >= 1".into(),
                    ));
                }
                // Same bound, same reason, as a trace header's.
                if self.ports > fss_trace::MAX_PORTS {
                    return Err(ScenarioError::BadSpec(format!(
                        "poisson scenario declares {} ports; the limit is {}",
                        self.ports,
                        fss_trace::MAX_PORTS
                    )));
                }
                if !rate.is_finite() || *rate < 0.0 {
                    return Err(ScenarioError::BadSpec(format!(
                        "poisson rate must be finite and nonnegative, got {rate}"
                    )));
                }
                if *rate > MAX_POISSON_RATE {
                    return Err(ScenarioError::BadSpec(format!(
                        "poisson rate {rate} arrivals per round; the limit is {MAX_POISSON_RATE}"
                    )));
                }
            }
            ArrivalSpec::Trace { path } => {
                if path.is_empty() {
                    return Err(ScenarioError::BadSpec("empty trace path".into()));
                }
            }
        }
        if let Some(plan) = &self.failures {
            for o in &plan.outages {
                // Dispatch rounds are open-ended (`round + 1` arithmetic);
                // an outage ending near u64::MAX would push dispatches
                // into overflow territory. Reject it as a spec mistake.
                if o.to > u64::MAX / 2 {
                    return Err(ScenarioError::BadSpec(format!(
                        "outage on {:?} port {} recovers at {}, beyond the supported range",
                        o.side, o.port, o.to
                    )));
                }
            }
        }
        Ok(())
    }

    /// Does the scenario produce finitely many arrivals?
    pub fn is_bounded(&self) -> bool {
        match self.arrivals {
            ArrivalSpec::Poisson { .. } => self.horizon.is_some(),
            ArrivalSpec::Trace { .. } => true,
        }
    }

    /// Open the streaming arrival source this spec describes (for trace
    /// arrivals, validating the whole file first).
    pub fn source(&self) -> Result<Box<dyn FlowSource>, ScenarioError> {
        self.validate()?;
        match &self.arrivals {
            ArrivalSpec::Poisson { rate } => Ok(Box::new(PoissonSource::new(
                self.ports,
                *rate,
                self.horizon,
                self.seed,
            ))),
            ArrivalSpec::Trace { path } => {
                // A full validation pass up front (one extra read of
                // the file, still O(1) memory), so a bad file fails
                // here with its line cited — not silently mid-run.
                let source = fss_trace::StreamingTraceSource::open_validated(path)?;
                if self.ports != 0 && self.ports != source.ports() {
                    return Err(ScenarioError::BadSpec(format!(
                        "spec declares {} ports but trace {path} declares {}",
                        self.ports,
                        source.ports()
                    )));
                }
                Ok(Box::new(source.with_horizon(self.horizon)))
            }
        }
    }

    /// Materialize the scenario as a batch [`Instance`] (flow index ==
    /// arrival order), for the LP bounds and differential tests.
    /// Fails on unbounded scenarios.
    pub fn instance(&self) -> Result<Instance, ScenarioError> {
        if !self.is_bounded() {
            return Err(ScenarioError::Unbounded);
        }
        let mut source = self.source()?;
        let mut b = InstanceBuilder::new(Switch::uniform(source.m_in(), source.m_out(), 1));
        while let Some(a) = source.next_arrival() {
            b.unit_flow(a.src, a.dst, a.release);
        }
        Ok(b.build()
            .expect("scenario arrivals respect model invariants"))
    }

    /// Freeze the workload into an [`ArrivalTrace`] for exact replay
    /// (the generator behind `flowsched trace`). Fails on unbounded
    /// scenarios.
    pub fn dump_trace(&self) -> Result<ArrivalTrace, ScenarioError> {
        if !self.is_bounded() {
            return Err(ScenarioError::Unbounded);
        }
        let mut source = self.source()?;
        let ports = source.m_in();
        let mut arrivals = Vec::new();
        while let Some(a) = source.next_arrival() {
            arrivals.push(a);
        }
        ArrivalTrace::new(ports, arrivals)
    }

    /// Execute `policy` over this scenario through the streaming engine
    /// ([`run_scenario`] on one core, statistics only).
    pub fn run(&self, policy: PolicyKind) -> Result<StreamStats, ScenarioError> {
        let mut tele = fss_engine::EngineTelemetry::disabled();
        run_scenario(self, policy, &mut tele, |_, _, _| {})
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs contain only serializable data")
    }

    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        serde_json::from_str(text).map_err(|e| {
            ScenarioError::Trace(TraceFileError::Parse {
                line: 0,
                msg: e.to_string(),
            })
        })
    }

    /// Load a spec file.
    pub fn load(path: impl AsRef<Path>) -> Result<ScenarioSpec, ScenarioError> {
        let path = path.as_ref();
        let text =
            std::fs::read_to_string(path).map_err(|e| TraceFileError::io(path.display(), e))?;
        ScenarioSpec::from_json(&text)
    }

    /// Write the spec to a file as pretty JSON.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ScenarioError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json())
            .map_err(|e| TraceFileError::io(path.display(), e).into())
    }
}

/// Execute `policy` over the scenario through the event-driven engine in
/// `O(peak queue)` memory ([`fss_engine::run`] on the calling thread).
/// `on_dispatch(id, release, round)` fires once per flow in dispatch
/// order, for consumers that need the schedule, not just the statistics;
/// `tele` records round-loop telemetry (pass
/// [`fss_engine::EngineTelemetry::disabled`] for a measured-zero no-op).
///
/// Schedules are round-for-round identical to the reference batch runners
/// on the same workload (the engine's exact rules, with and without an
/// outage plan, are differentially tested), so aggregate statistics
/// agree exactly with materialize-then-run, telemetry on or off.
pub fn run_scenario(
    spec: &ScenarioSpec,
    policy: PolicyKind,
    tele: &mut fss_engine::EngineTelemetry,
    on_dispatch: impl FnMut(u64, u64, u64),
) -> Result<StreamStats, ScenarioError> {
    let source = spec.source()?;
    let failures = spec.failures.as_ref();
    Ok(run_source(source, policy, failures, tele, on_dispatch))
}

/// Drive an already-open [`FlowSource`] through the engine under
/// `policy`, optionally under a [`FailurePlan`].
///
/// This is the single dispatch core every execution path shares:
/// [`run_scenario`] opens its source from a spec and calls it, and the
/// live `flowsched serve` loop feeds it a channel-backed source. One
/// code path is what makes the service's schedule provably identical,
/// round for round, to a batch run over the same arrival sequence —
/// the serve crate's differential suite pins this down for all four
/// §5 policies, with and without failure plans.
pub fn run_source(
    source: Box<dyn FlowSource>,
    policy: PolicyKind,
    failures: Option<&FailurePlan>,
    tele: &mut fss_engine::EngineTelemetry,
    on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    let rule = policy.to_engine().into();
    fss_engine::run(source, rule, failures, tele, on_dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_spec_round_trips_through_json() {
        let spec = ScenarioSpec::poisson(8, 6.5, 40, 9).with_failures(FailurePlan {
            outages: vec![Outage {
                side: PortSide::Input,
                port: 2,
                from: 3,
                to: 11,
            }],
        });
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn trace_spec_round_trips_and_defaults_apply() {
        let spec = ScenarioSpec::trace("examples/sample_trace.jsonl");
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        // Hand-written minimal JSON: failures and seed may be omitted.
        let minimal = r#"{"ports": 4, "horizon": 10, "arrivals": {"poisson": {"rate": 2.0}}}"#;
        let spec = ScenarioSpec::from_json(minimal).unwrap();
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.failures, None);
        assert_eq!(spec.horizon, Some(10));
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(matches!(
            ScenarioSpec::poisson(0, 1.0, 5, 0).validate(),
            Err(ScenarioError::BadSpec(_))
        ));
        assert!(matches!(
            ScenarioSpec::poisson(4, f64::NAN, 5, 0).validate(),
            Err(ScenarioError::BadSpec(_))
        ));
        // A finite rate the sampler would never get through is rejected
        // before a source draws its first round from it.
        assert!(ScenarioSpec::poisson(4, MAX_POISSON_RATE, 5, 0)
            .validate()
            .is_ok());
        match ScenarioSpec::poisson(4, 1e18, 1, 0).source() {
            Err(ScenarioError::BadSpec(msg)) => assert!(msg.contains("limit is 1000000"), "{msg}"),
            other => panic!("expected BadSpec, got {:?}", other.map(|_| "a source")),
        }
        // Engine state is O(ports²): an absurd port count is rejected
        // here, before any source (or allocation) is built from it.
        match ScenarioSpec::poisson(3_000_000, 1.0, 5, 0).source() {
            Err(ScenarioError::BadSpec(msg)) => assert!(msg.contains("limit is 2048"), "{msg}"),
            other => panic!("expected BadSpec, got {:?}", other.map(|_| "a source")),
        }
        assert!(matches!(
            ScenarioSpec::from_json(r#"{"ports": 4, "arrivals": {"bogus": {}}}"#),
            Err(ScenarioError::Trace(TraceFileError::Parse { line: 0, .. }))
        ));
        let endless = ScenarioSpec {
            horizon: None,
            ..ScenarioSpec::poisson(4, 1.0, 5, 0)
        };
        assert!(!endless.is_bounded());
        assert!(matches!(endless.instance(), Err(ScenarioError::Unbounded)));
        // Outage windows recovering outside the supported round range are
        // spec mistakes, not something to spin on.
        let absurd = ScenarioSpec::poisson(4, 1.0, 5, 0).with_failures(FailurePlan {
            outages: vec![Outage {
                side: PortSide::Input,
                port: 0,
                from: 0,
                to: u64::MAX,
            }],
        });
        assert!(matches!(absurd.validate(), Err(ScenarioError::BadSpec(_))));
    }

    #[test]
    fn scenario_instance_matches_workload_generator() {
        // The spec's materialization must equal the historical
        // `poisson_workload` output for the same seed — the contract that
        // lets old seed formulas be re-expressed as ScenarioSpecs.
        use rand::{rngs::SmallRng, SeedableRng};
        let spec = ScenarioSpec::poisson(6, 4.0, 15, 33);
        let inst = spec.instance().unwrap();
        let mut rng = SmallRng::seed_from_u64(33);
        let want = crate::workload::poisson_workload(
            &mut rng,
            &crate::workload::WorkloadParams {
                m: 6,
                mean_arrivals: 4.0,
                rounds: 15,
            },
        );
        assert_eq!(inst, want);
    }

    #[test]
    fn run_scenario_agrees_with_batch_metrics() {
        let spec = ScenarioSpec::poisson(7, 5.0, 20, 4);
        let inst = spec.instance().unwrap();
        for policy in [
            PolicyKind::MaxCard,
            PolicyKind::MinRTime,
            PolicyKind::MaxWeight,
            PolicyKind::FifoGreedy,
        ] {
            let stats = spec.run(policy).unwrap();
            let rule = policy.to_engine().into();
            let mut tele = fss_engine::EngineTelemetry::disabled();
            let sched = fss_engine::run_instance(&inst, rule, None, &mut tele);
            let met = fss_core::metrics::evaluate(&inst, &sched);
            assert_eq!(stats.dispatched as usize, met.n, "{}", policy.name());
            assert_eq!(stats.total_response, u128::from(met.total_response));
            assert_eq!(stats.max_response, met.max_response);
            assert_eq!(stats.makespan, met.makespan);
        }
    }

    #[test]
    fn dump_trace_replays_identically() {
        let dir = std::env::temp_dir().join("fss-scenario-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        let spec = ScenarioSpec::poisson(5, 3.0, 12, 8);
        let trace = spec.dump_trace().unwrap();
        trace.save(&path).unwrap();
        let replay = ScenarioSpec::trace(path.to_string_lossy());
        assert_eq!(replay.instance().unwrap(), spec.instance().unwrap());
        let a = replay.run(PolicyKind::MinRTime).unwrap();
        let b = spec.run(PolicyKind::MinRTime).unwrap();
        assert_eq!(a, b);
        // A horizon on a trace spec cuts the replay at that release.
        let capped = ScenarioSpec {
            horizon: Some(6),
            ..replay
        };
        let all = spec.instance().unwrap().flows;
        let kept = all.iter().filter(|f| f.release < 6).count();
        assert!(0 < kept && kept < all.len());
        assert_eq!(capped.instance().unwrap().flows, all[..kept]);
    }

    #[test]
    fn spec_files_with_the_old_streaming_key_still_load_and_replay() {
        let dir = std::env::temp_dir().join("fss-scenario-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream-knob.jsonl");
        let poisson = ScenarioSpec::poisson(6, 4.0, 25, 17);
        poisson.dump_trace().unwrap().save(&path).unwrap();

        let plain = ScenarioSpec::trace(path.to_string_lossy());
        for old_value in ["true", "false"] {
            let json = format!(
                r#"{{"ports": 0, "arrivals": {{"trace": {{"path": {:?}, "streaming": {old_value}}}}}}}"#,
                path.to_string_lossy()
            );
            let spec = ScenarioSpec::from_json(&json).unwrap();
            assert_eq!(spec, plain, "the key is read past, not into the spec");
            assert!(!spec.to_json().contains("streaming"));
            assert_eq!(
                spec.run(PolicyKind::MinRTime).unwrap(),
                poisson.run(PolicyKind::MinRTime).unwrap()
            );
        }
    }

    #[test]
    fn streaming_source_reports_load_style_errors() {
        let dir = std::env::temp_dir().join("fss-scenario-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streaming-bad.jsonl");
        std::fs::write(
            &path,
            "{\"ports\":2}\n{\"release\":0,\"src\":0,\"dst\":1}\n{\"release\":1,\"src\":5,\"dst\":0}\n",
        )
        .unwrap();
        let spec = ScenarioSpec::trace(path.to_string_lossy());
        assert_eq!(
            spec.source().err(),
            Some(ScenarioError::Trace(TraceFileError::PortOutOfRange {
                line: 3,
                port: 5,
                ports: 2
            })),
            "a line-3 mistake is a load error, not a short replay"
        );
        // Port mismatch against the spec is caught before any replay.
        std::fs::write(&path, "{\"ports\":2}\n").unwrap();
        let spec = ScenarioSpec {
            ports: 4,
            ..ScenarioSpec::trace(path.to_string_lossy())
        };
        assert!(matches!(spec.source(), Err(ScenarioError::BadSpec(_))));
    }

    #[test]
    fn failures_route_through_the_failure_drive() {
        let plan = FailurePlan {
            outages: vec![Outage {
                side: PortSide::Input,
                port: 0,
                from: 0,
                to: 6,
            }],
        };
        let spec = ScenarioSpec::poisson(4, 2.0, 10, 21).with_failures(plan.clone());
        let inst = spec.instance().unwrap();
        let stats = spec.run(PolicyKind::MaxCard).unwrap();
        let sched = crate::failures::run_policy_with_failures(
            &inst,
            &mut fss_online::MaxCard::default(),
            &plan,
        );
        let met = fss_core::metrics::evaluate(&inst, &sched);
        assert_eq!(stats.dispatched as usize, met.n);
        assert_eq!(stats.total_response, u128::from(met.total_response));
        assert_eq!(stats.max_response, met.max_response);
    }
}
