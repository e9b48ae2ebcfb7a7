//! Streaming trace generation.
//!
//! [`write_trace`] drains any [`FlowSource`] straight to disk through
//! the validating [`TraceWriter`] — arrivals are written as they are
//! produced, so a 10⁸-flow trace costs the same peak memory as a
//! 10³-flow one. It is the one loop behind `flowsched trace` and
//! `flowsched trace gen`; [`write_poisson_trace`] feeds it a seeded
//! Poisson workload (the paper's §5.2.1 generator, via
//! [`fss_engine::PoissonSource`]), which is how the giant-trace tests
//! manufacture inputs far larger than memory.

use std::path::Path;

use fss_engine::{FlowSource, PoissonSource};

use crate::line::TraceFileError;
use crate::stream::TraceSummary;
use crate::writer::TraceWriter;

/// Freeze the workload `source` produces into a trace file at `path`
/// (the header declares `source.m_in()` ports). The source must be
/// bounded.
pub fn write_trace(
    path: impl AsRef<Path>,
    source: &mut dyn FlowSource,
) -> Result<TraceSummary, TraceFileError> {
    let mut writer = TraceWriter::create(path, source.m_in())?;
    while let Some(a) = source.next_arrival() {
        writer.write_arrival(a.release, a.src, a.dst)?;
    }
    writer.finish()
}

/// Stream a Poisson(`rate`) workload on an `m×m` switch for `rounds`
/// rounds into a trace file at `path`. Fully seeded: same arguments,
/// byte-identical file.
pub fn write_poisson_trace(
    path: impl AsRef<Path>,
    m: usize,
    rate: f64,
    rounds: u64,
    seed: u64,
) -> Result<TraceSummary, TraceFileError> {
    if m == 0 {
        return Err(TraceFileError::Parse {
            line: 0,
            msg: "switch needs at least one port".into(),
        });
    }
    if !(rate >= 0.0 && rate.is_finite()) {
        return Err(TraceFileError::Parse {
            line: 0,
            msg: format!("rate must be nonnegative and finite, got {rate}"),
        });
    }
    write_trace(path, &mut PoissonSource::new(m, rate, Some(rounds), seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::scan;

    fn dir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join("fss-trace-gen-tests");
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn generated_traces_validate_and_are_seed_deterministic() {
        let a = dir().join("gen-a.jsonl");
        let b = dir().join("gen-b.jsonl");
        let c = dir().join("gen-c.jsonl");
        let sa = write_poisson_trace(&a, 8, 4.0, 50, 7).unwrap();
        let sb = write_poisson_trace(&b, 8, 4.0, 50, 7).unwrap();
        write_poisson_trace(&c, 8, 4.0, 50, 8).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert_ne!(std::fs::read(&a).unwrap(), std::fs::read(&c).unwrap());
        // The file passes the full streaming validator.
        assert_eq!(scan(&a).unwrap(), sa);
        assert_eq!(sa.ports, 8);
        assert!(sa.horizon <= 50);
        assert!(sa.flows > 0, "rate 4 over 50 rounds is never empty");
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let p = dir().join("never.jsonl");
        assert!(write_poisson_trace(&p, 0, 1.0, 10, 0).is_err());
        assert!(write_poisson_trace(&p, 4, f64::NAN, 10, 0).is_err());
        assert!(write_poisson_trace(&p, 4, -1.0, 10, 0).is_err());
    }
}
