//! Composable streaming trace morphing.
//!
//! A [`MorphPipeline`] turns one workload into a family: take a
//! converted datacenter trace and produce a 2×-load variant, a
//! hotspot-skewed variant, a folded-down-to-32-ports variant, or a
//! one-day window — each a single reader→writer pass at O(1) memory,
//! so the transforms compose on traces far larger than RAM.
//!
//! Every transform maps arrivals *in order* and preserves release
//! sortedness (each release map is a nondecreasing function of the
//! input release), so the output of any pipeline is again a valid
//! trace. Skew injection is the only randomized transform and is
//! seeded: the same spec on the same input is bit-for-bit
//! deterministic.

use fss_core::prelude::*;
use fss_engine::FlowSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

use crate::line::TraceFileError;
use crate::stream::{StreamingTraceSource, TraceSummary};
use crate::writer::TraceWriter;

/// One streaming transform. Applied in sequence by [`MorphPipeline`],
/// in the order given (which is the CLI flag order for
/// `flowsched trace morph`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MorphSpec {
    /// Compress time: `release / factor` (a rate scale-up — the same
    /// flows arrive in fewer rounds). Factor must be ≥ 1.
    ScaleRate(f64),
    /// Stretch time: `release * factor` (a rate scale-down). Factor
    /// must be ≥ 1; integral factors keep rounds exact.
    Dilate(f64),
    /// Resample `src` and `dst` from a Zipf(theta) distribution over
    /// the current port range, seeded — injects hotspot ports while
    /// keeping releases (and hence load-in-time) intact.
    Skew {
        /// Zipf exponent (larger = more skewed). Must be > 0.
        theta: f64,
        /// RNG seed; same seed + input → identical output.
        seed: u64,
    },
    /// Fold onto a smaller switch: ports map to `p % m`, and the
    /// stream's declared port count becomes `m`.
    Fold(usize),
    /// Keep only releases in `[from, to)` and rebase them to start at
    /// 0. Exhausts the stream at `to` (sorted input), so windowing a
    /// giant trace reads only the prefix it needs.
    Window {
        /// First release kept (inclusive).
        from: u64,
        /// First release dropped (exclusive end).
        to: u64,
    },
    /// Keep only the first `n` arrivals.
    Truncate(u64),
}

impl MorphSpec {
    /// The declared port count downstream of this transform, given the
    /// count upstream.
    fn ports_out(&self, ports_in: usize) -> usize {
        match self {
            MorphSpec::Fold(m) => *m,
            _ => ports_in,
        }
    }

    fn validate(&self, ports_in: usize) -> Result<(), String> {
        match self {
            MorphSpec::ScaleRate(f) | MorphSpec::Dilate(f) => {
                if !f.is_finite() || *f < 1.0 {
                    return Err(format!("morph factor must be >= 1, got {f}"));
                }
            }
            MorphSpec::Skew { theta, .. } => {
                if !theta.is_finite() || *theta <= 0.0 {
                    return Err(format!("zipf theta must be > 0, got {theta}"));
                }
            }
            MorphSpec::Fold(m) => {
                if *m == 0 {
                    return Err("cannot fold onto a zero-port switch".into());
                }
                if *m > ports_in {
                    return Err(format!(
                        "fold target {m} exceeds current {ports_in} ports (folding only shrinks)"
                    ));
                }
            }
            MorphSpec::Window { from, to } => {
                if from >= to {
                    return Err(format!("empty window [{from}, {to})"));
                }
            }
            MorphSpec::Truncate(0) => return Err("truncate to zero flows".into()),
            MorphSpec::Truncate(_) => {}
        }
        Ok(())
    }
}

/// Zipf(theta) sampler over `0..n` by inverse-CDF lookup (binary
/// search over the cumulative weights). Built once per skew stage:
/// O(n) memory in the *port count*, never in the trace length.
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, theta: f64) -> ZipfSampler {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        ZipfSampler { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> u32 {
        let u: f64 = rng.gen();
        // First bucket whose cumulative weight covers u.
        self.cdf.partition_point(|&w| w < u) as u32
    }
}

/// Per-transform streaming state.
enum Stage {
    ScaleRate(f64),
    Dilate(f64),
    Skew { sampler: ZipfSampler, rng: SmallRng },
    Fold(u32),
    Window { from: u64, to: u64, exhausted: bool },
    Truncate { left: u64 },
}

impl Stage {
    fn new(spec: &MorphSpec, ports_in: usize) -> Stage {
        match *spec {
            MorphSpec::ScaleRate(f) => Stage::ScaleRate(f),
            MorphSpec::Dilate(f) => Stage::Dilate(f),
            MorphSpec::Skew { theta, seed } => Stage::Skew {
                sampler: ZipfSampler::new(ports_in, theta),
                rng: SmallRng::seed_from_u64(seed),
            },
            MorphSpec::Fold(m) => Stage::Fold(m as u32),
            MorphSpec::Window { from, to } => Stage::Window {
                from,
                to,
                exhausted: false,
            },
            MorphSpec::Truncate(n) => Stage::Truncate { left: n },
        }
    }

    /// Map one arrival. `None` drops it; setting `stop` ends the whole
    /// stream (sorted input means nothing later can pass).
    fn apply(&mut self, mut a: Arrival, stop: &mut bool) -> Option<Arrival> {
        match self {
            Stage::ScaleRate(f) => {
                a.release = (a.release as f64 / *f).floor() as u64;
                Some(a)
            }
            Stage::Dilate(f) => {
                a.release = (a.release as f64 * *f).floor() as u64;
                Some(a)
            }
            Stage::Skew { sampler, rng } => {
                a.src = sampler.sample(rng);
                a.dst = sampler.sample(rng);
                Some(a)
            }
            Stage::Fold(m) => {
                a.src %= *m;
                a.dst %= *m;
                Some(a)
            }
            Stage::Window {
                from,
                to,
                exhausted,
            } => {
                if a.release >= *to {
                    *exhausted = true;
                    *stop = true;
                    return None;
                }
                if a.release < *from {
                    return None;
                }
                a.release -= *from;
                Some(a)
            }
            Stage::Truncate { left } => {
                if *left == 0 {
                    *stop = true;
                    return None;
                }
                *left -= 1;
                Some(a)
            }
        }
    }
}

/// A validated, instantiated sequence of morph stages.
pub struct MorphPipeline {
    stages: Vec<Stage>,
    ports_out: usize,
    stopped: bool,
}

impl MorphPipeline {
    /// Build a pipeline over a stream currently declaring `ports_in`
    /// ports. Stages apply in the order given; each stage sees the
    /// port count left by the stages before it (a skew after a fold
    /// samples over the folded range).
    pub fn new(specs: &[MorphSpec], ports_in: usize) -> Result<MorphPipeline, String> {
        let mut ports = ports_in;
        let mut stages = Vec::with_capacity(specs.len());
        for spec in specs {
            spec.validate(ports)?;
            stages.push(Stage::new(spec, ports));
            ports = spec.ports_out(ports);
        }
        Ok(MorphPipeline {
            stages,
            ports_out: ports,
            stopped: false,
        })
    }

    /// The port count the morphed stream declares.
    pub fn ports_out(&self) -> usize {
        self.ports_out
    }

    /// True once a stage has ended the stream (window passed, truncate
    /// count reached) — the upstream reader can stop.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Run one arrival through every stage. `None` means dropped (or
    /// stream over — check [`MorphPipeline::stopped`]).
    pub fn apply(&mut self, mut a: Arrival) -> Option<Arrival> {
        if self.stopped {
            return None;
        }
        for stage in &mut self.stages {
            let mut stop = false;
            let out = stage.apply(a, &mut stop);
            if stop {
                self.stopped = true;
            }
            a = out?;
        }
        Some(a)
    }
}

/// A [`FlowSource`] adapter running an upstream source through a morph
/// pipeline, reassigning dense sequence ids to the survivors.
pub struct MorphedSource<S: FlowSource> {
    inner: S,
    pipeline: MorphPipeline,
    next_id: u64,
}

impl<S: FlowSource> MorphedSource<S> {
    /// Wrap `inner` with the given morph specs.
    pub fn new(inner: S, specs: &[MorphSpec]) -> Result<MorphedSource<S>, String> {
        if inner.m_in() != inner.m_out() {
            return Err("morphing requires a square (m x m) source".into());
        }
        let pipeline = MorphPipeline::new(specs, inner.m_in())?;
        Ok(MorphedSource {
            inner,
            pipeline,
            next_id: 0,
        })
    }
}

impl<S: FlowSource> FlowSource for MorphedSource<S> {
    fn m_in(&self) -> usize {
        self.pipeline.ports_out()
    }

    fn m_out(&self) -> usize {
        self.pipeline.ports_out()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        while !self.pipeline.stopped() {
            let a = self.inner.next_arrival()?;
            if let Some(mut out) = self.pipeline.apply(a) {
                out.id = self.next_id;
                self.next_id += 1;
                return Some(out);
            }
        }
        None
    }
}

/// Stream `input` through a morph pipeline into `output`: one
/// reader→writer pass at O(1) memory (plus O(ports) for skew tables).
pub fn morph_file(
    input: impl AsRef<Path>,
    output: impl AsRef<Path>,
    specs: &[MorphSpec],
) -> Result<TraceSummary, TraceFileError> {
    let mut source = StreamingTraceSource::open(input)?;
    let mut pipeline = MorphPipeline::new(specs, source.ports())
        .map_err(|msg| TraceFileError::Parse { line: 0, msg })?;
    let mut writer = TraceWriter::create(output, pipeline.ports_out())?;
    while let Some(a) = source.next_arrival() {
        if let Some(out) = pipeline.apply(a) {
            writer.write_arrival(out.release, out.src, out.dst)?;
        }
        if pipeline.stopped() {
            break;
        }
    }
    if let Some(err) = source.error_handle().get() {
        return Err(err);
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(pairs: &[(u64, u32, u32)]) -> Vec<Arrival> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(release, src, dst))| Arrival {
                id: i as u64,
                src,
                dst,
                release,
            })
            .collect()
    }

    fn run(specs: &[MorphSpec], ports: usize, input: &[(u64, u32, u32)]) -> Vec<(u64, u32, u32)> {
        let mut p = MorphPipeline::new(specs, ports).unwrap();
        let mut out = Vec::new();
        for a in arrivals(input) {
            if let Some(b) = p.apply(a) {
                out.push((b.release, b.src, b.dst));
            }
            if p.stopped() {
                break;
            }
        }
        out
    }

    #[test]
    fn scale_and_dilate_remap_releases_monotonically() {
        let input = [(0, 0, 1), (1, 0, 1), (5, 1, 0), (9, 1, 0)];
        assert_eq!(
            run(&[MorphSpec::ScaleRate(2.0)], 2, &input),
            vec![(0, 0, 1), (0, 0, 1), (2, 1, 0), (4, 1, 0)]
        );
        assert_eq!(
            run(&[MorphSpec::Dilate(3.0)], 2, &input),
            vec![(0, 0, 1), (3, 0, 1), (15, 1, 0), (27, 1, 0)]
        );
    }

    #[test]
    fn fold_shrinks_ports_and_updates_declared_size() {
        let p = MorphPipeline::new(&[MorphSpec::Fold(2)], 8).unwrap();
        assert_eq!(p.ports_out(), 2);
        assert_eq!(
            run(&[MorphSpec::Fold(2)], 8, &[(0, 5, 6), (1, 2, 7)]),
            vec![(0, 1, 0), (1, 0, 1)]
        );
    }

    #[test]
    fn window_keeps_rebases_and_stops_early() {
        let input = [(0, 0, 1), (3, 0, 1), (4, 1, 0), (7, 1, 0), (9, 0, 1)];
        assert_eq!(
            run(&[MorphSpec::Window { from: 3, to: 8 }], 2, &input),
            vec![(0, 0, 1), (1, 1, 0), (4, 1, 0)]
        );
        let mut p = MorphPipeline::new(&[MorphSpec::Window { from: 0, to: 4 }], 2).unwrap();
        for a in arrivals(&input) {
            p.apply(a);
        }
        assert!(p.stopped(), "window end exhausts the stream");
    }

    #[test]
    fn truncate_stops_after_n() {
        let input = [(0, 0, 1), (1, 0, 1), (2, 1, 0)];
        assert_eq!(
            run(&[MorphSpec::Truncate(2)], 2, &input),
            vec![(0, 0, 1), (1, 0, 1)]
        );
    }

    #[test]
    fn skew_is_seed_deterministic_and_in_range() {
        let input: Vec<(u64, u32, u32)> = (0..200).map(|i| (i / 4, 0, 1)).collect();
        let spec = [MorphSpec::Skew {
            theta: 1.2,
            seed: 42,
        }];
        let a = run(&spec, 16, &input);
        let b = run(&spec, 16, &input);
        assert_eq!(a, b, "same seed, same skew");
        assert!(a.iter().all(|&(_, s, d)| s < 16 && d < 16));
        // Zipf concentrates mass on low ranks: port 0 must dominate.
        let zeros = a.iter().filter(|&&(_, s, _)| s == 0).count();
        assert!(zeros > a.len() / 4, "port 0 drew {zeros}/{}", a.len());
        let c = run(
            &[MorphSpec::Skew {
                theta: 1.2,
                seed: 43,
            }],
            16,
            &input,
        );
        assert_ne!(a, c, "different seed, different skew");
    }

    #[test]
    fn stages_compose_in_order_with_running_port_count() {
        // Fold-then-skew samples over the folded range.
        let specs = [
            MorphSpec::Fold(4),
            MorphSpec::Skew {
                theta: 1.0,
                seed: 1,
            },
        ];
        let input: Vec<(u64, u32, u32)> = (0..64).map(|i| (i, (i % 16) as u32, 0)).collect();
        let out = run(&specs, 16, &input);
        assert!(out.iter().all(|&(_, s, d)| s < 4 && d < 4));
        // Skew-then-fold must differ from fold-then-skew (order matters).
        let rev = [specs[1], specs[0]];
        assert_ne!(run(&rev, 16, &input), out);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(MorphPipeline::new(&[MorphSpec::ScaleRate(0.5)], 4).is_err());
        assert!(MorphPipeline::new(&[MorphSpec::Fold(8)], 4).is_err());
        assert!(MorphPipeline::new(&[MorphSpec::Fold(0)], 4).is_err());
        assert!(MorphPipeline::new(
            &[MorphSpec::Skew {
                theta: 0.0,
                seed: 0
            }],
            4
        )
        .is_err());
        assert!(MorphPipeline::new(&[MorphSpec::Window { from: 5, to: 5 }], 4).is_err());
        assert!(MorphPipeline::new(&[MorphSpec::Truncate(0)], 4).is_err());
        // Fold target validated against the *running* count.
        assert!(MorphPipeline::new(&[MorphSpec::Fold(2), MorphSpec::Fold(3)], 8).is_err());
    }

    #[test]
    fn morphed_source_reassigns_dense_ids() {
        use crate::stream::StreamingTraceReader;
        use std::io::Cursor;
        let text = "{\"ports\":4}\n{\"release\":0,\"src\":0,\"dst\":1}\n{\"release\":3,\"src\":2,\"dst\":3}\n{\"release\":6,\"src\":1,\"dst\":2}\n";
        let inner = StreamingTraceReader::from_reader(Cursor::new(text.as_bytes()), "<t>").unwrap();
        let mut src = MorphedSource::new(inner, &[MorphSpec::Window { from: 3, to: 7 }]).unwrap();
        let a = src.next_arrival().unwrap();
        let b = src.next_arrival().unwrap();
        assert_eq!((a.id, a.release), (0, 0));
        assert_eq!((b.id, b.release), (1, 3));
        assert!(src.next_arrival().is_none());
    }
}
