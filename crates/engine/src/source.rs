//! Streaming arrival sources: the [`FlowSource`] trait and its two stock
//! implementations — a batch [`Instance`] adapter and an unbounded Poisson
//! generator.
//!
//! A source yields [`Arrival`]s with **nondecreasing release rounds**, and
//! within one release round **increasing flow ids**. That ordering contract
//! is what lets the engine's exact mode replay the reference runner's queue
//! discipline bit-for-bit (the reference loop ingests flows sorted by
//! `(release, index)`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;

use fss_core::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

pub use fss_core::Arrival;

/// A stream of flow arrivals.
///
/// Contract: releases are nondecreasing, and ids are increasing within a
/// release round. The engine validates this in debug builds.
pub trait FlowSource {
    /// Number of input ports.
    fn m_in(&self) -> usize;

    /// Number of output ports.
    fn m_out(&self) -> usize;

    /// Pop the next arrival, or `None` when the stream is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;
}

impl<S: FlowSource + ?Sized> FlowSource for Box<S> {
    fn m_in(&self) -> usize {
        (**self).m_in()
    }

    fn m_out(&self) -> usize {
        (**self).m_out()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        (**self).next_arrival()
    }
}

/// Adapter: replay a batch [`Instance`] as a stream, sorted by
/// `(release, flow index)` exactly like the reference runner's ingest order.
pub struct InstanceSource<'a> {
    inst: &'a Instance,
    order: Vec<u32>,
    next: usize,
}

impl<'a> InstanceSource<'a> {
    /// Build the sorted replay order (`O(n log n)` once).
    pub fn new(inst: &'a Instance) -> Self {
        let mut order: Vec<u32> = (0..inst.n() as u32).collect();
        order.sort_by_key(|&i| (inst.flows[i as usize].release, i));
        InstanceSource {
            inst,
            order,
            next: 0,
        }
    }
}

impl FlowSource for InstanceSource<'_> {
    fn m_in(&self) -> usize {
        self.inst.switch.num_inputs()
    }

    fn m_out(&self) -> usize {
        self.inst.switch.num_outputs()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let &i = self.order.get(self.next)?;
        self.next += 1;
        let f = &self.inst.flows[i as usize];
        Some(Arrival {
            id: u64::from(i),
            src: f.src,
            dst: f.dst,
            release: f.release,
        })
    }
}

/// Unbounded (or round-limited) Poisson workload generator: each round,
/// `Poisson(rate)` unit flows arrive on uniformly random port pairs —
/// the workload of §5.2.1, without materializing an [`Instance`].
///
/// The sampler uses Knuth's product method below `λ = 30` and splits
/// larger rates into chunks (Poisson additivity keeps the sum exactly
/// distributed), so `M = 4m = 600` and far beyond stay exact.
pub struct PoissonSource {
    m_in: u32,
    m_out: u32,
    rate: f64,
    rounds: Option<u64>,
    rng: SmallRng,
    round: u64,
    batch_left: u64,
    next_id: u64,
}

impl PoissonSource {
    /// A generator on an `m x m` switch with `rate` mean arrivals per
    /// round for `rounds` rounds (`None` = endless).
    pub fn new(m: usize, rate: f64, rounds: Option<u64>, seed: u64) -> Self {
        assert!(m > 0, "switch needs at least one port");
        assert!(rate >= 0.0 && rate.is_finite(), "rate must be nonnegative");
        let mut src = PoissonSource {
            m_in: m as u32,
            m_out: m as u32,
            rate,
            rounds,
            rng: SmallRng::seed_from_u64(seed),
            round: 0,
            batch_left: 0,
            next_id: 0,
        };
        if rounds != Some(0) {
            src.batch_left = src.draw_batch();
        }
        src
    }

    fn draw_batch(&mut self) -> u64 {
        poisson(&mut self.rng, self.rate)
    }
}

impl FlowSource for PoissonSource {
    fn m_in(&self) -> usize {
        self.m_in as usize
    }

    fn m_out(&self) -> usize {
        self.m_out as usize
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        loop {
            if self.batch_left > 0 {
                self.batch_left -= 1;
                let id = self.next_id;
                self.next_id += 1;
                return Some(Arrival {
                    id,
                    src: self.rng.gen_range(0..self.m_in),
                    dst: self.rng.gen_range(0..self.m_out),
                    release: self.round,
                });
            }
            self.round += 1;
            if let Some(limit) = self.rounds {
                if self.round >= limit {
                    return None;
                }
            }
            self.batch_left = self.draw_batch();
        }
    }
}

/// A [`FlowSource`] fed live by another thread over an mpsc channel —
/// the bridge between an ingest loop (`flowsched serve`) and the
/// engine's drive loops.
///
/// `next_arrival` **blocks** until the producer sends the next arrival
/// or drops its sender (end of stream). The drive loops pull exactly
/// one arrival ahead, so blocking here means "the decision for round
/// `t` waits until an arrival with a later release proves round `t` is
/// complete" — which is precisely what makes a live run's schedule
/// depend only on the arrival *sequence*, never on timing, and hence
/// bit-identical to replaying the same sequence from a trace.
///
/// The producer owns the ordering contract (nondecreasing releases,
/// increasing ids); `flowsched serve`'s admission gate enforces it at
/// ingest. The optional `depth` gauge is decremented once per received
/// arrival so the producer side can expose live queue depth.
pub struct ChannelSource {
    m_in: usize,
    m_out: usize,
    rx: Receiver<Arrival>,
    depth: Option<Arc<AtomicU64>>,
    on_idle: Option<Box<dyn FnMut() + Send>>,
}

impl ChannelSource {
    /// A source on an `m x m` switch reading from `rx`.
    pub fn new(ports: usize, rx: Receiver<Arrival>) -> ChannelSource {
        assert!(ports > 0, "switch needs at least one port");
        ChannelSource {
            m_in: ports,
            m_out: ports,
            rx,
            depth: None,
            on_idle: None,
        }
    }

    /// Like [`ChannelSource::new`], decrementing `depth` on every
    /// received arrival (the producer increments it on every send).
    pub fn with_depth(ports: usize, rx: Receiver<Arrival>, depth: Arc<AtomicU64>) -> ChannelSource {
        let mut s = ChannelSource::new(ports, rx);
        s.depth = Some(depth);
        s
    }

    /// Call `hook` each time the channel is found empty, just before
    /// `next_arrival` blocks on it: the moment the consuming thread is
    /// about to sleep for as long as the producer likes, and so the last
    /// chance to hand on whatever it has been batching.
    pub fn on_idle(mut self, hook: impl FnMut() + Send + 'static) -> ChannelSource {
        self.on_idle = Some(Box::new(hook));
        self
    }
}

impl FlowSource for ChannelSource {
    fn m_in(&self) -> usize {
        self.m_in
    }

    fn m_out(&self) -> usize {
        self.m_out
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = match self.rx.try_recv() {
            Ok(a) => a,
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => {
                if let Some(hook) = &mut self.on_idle {
                    hook();
                }
                self.rx.recv().ok()?
            }
        };
        if let Some(d) = &self.depth {
            d.fetch_sub(1, Ordering::Relaxed);
        }
        Some(a)
    }
}

/// Sample `Poisson(lambda)` (chunked Knuth; exact for any finite rate).
/// This is the workspace's canonical sampler; `fss_sim::workload`
/// re-exports it so both crates draw from the same distribution code.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "rate must be nonnegative"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda <= 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
    let chunks = (lambda / 30.0).ceil() as u64;
    let per = lambda / chunks as f64;
    (0..chunks).map(|_| poisson(rng, per)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_source_replays_in_legacy_order() {
        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
        b.unit_flow(0, 0, 5);
        b.unit_flow(1, 1, 0);
        b.unit_flow(0, 1, 5);
        let inst = b.build().unwrap();
        let mut s = InstanceSource::new(&inst);
        let ids: Vec<u64> = std::iter::from_fn(|| s.next_arrival())
            .map(|a| a.id)
            .collect();
        // Sorted by (release, index): flow 1 (r=0), then flows 0 and 2 (r=5).
        assert_eq!(ids, vec![1, 0, 2]);
    }

    #[test]
    fn poisson_source_is_ordered_and_bounded() {
        let mut s = PoissonSource::new(8, 3.0, Some(20), 42);
        let mut last_release = 0u64;
        let mut last_id = None;
        let mut n = 0u64;
        while let Some(a) = s.next_arrival() {
            assert!(a.release >= last_release, "releases must be nondecreasing");
            if a.release > last_release {
                last_release = a.release;
            }
            if let Some(prev) = last_id {
                assert!(a.id > prev, "ids must increase");
            }
            last_id = Some(a.id);
            assert!(a.src < 8 && a.dst < 8);
            assert!(a.release < 20);
            n += 1;
        }
        // ~60 expected.
        assert!(n > 20 && n < 140, "n = {n}");
    }

    #[test]
    fn poisson_source_reproducible() {
        let collect = |seed| {
            let mut s = PoissonSource::new(5, 2.0, Some(10), seed);
            std::iter::from_fn(move || s.next_arrival()).collect::<Vec<_>>()
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }

    #[test]
    fn channel_source_streams_until_sender_drops() {
        let (tx, rx) = std::sync::mpsc::sync_channel(4);
        let depth = Arc::new(AtomicU64::new(0));
        let mut s = ChannelSource::with_depth(3, rx, Arc::clone(&depth));
        let feeder = std::thread::spawn(move || {
            for id in 0..6u64 {
                depth.fetch_add(1, Ordering::Relaxed);
                tx.send(Arrival {
                    id,
                    src: (id % 3) as u32,
                    dst: ((id + 1) % 3) as u32,
                    release: id / 2,
                })
                .unwrap();
            }
            depth
        });
        let got: Vec<u64> = std::iter::from_fn(|| s.next_arrival())
            .map(|a| a.id)
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        let depth = feeder.join().unwrap();
        assert_eq!(depth.load(Ordering::Relaxed), 0, "every recv decrements");
        assert!(s.next_arrival().is_none(), "closed channel stays exhausted");
    }

    #[test]
    fn idle_hook_fires_before_each_blocking_receive_only() {
        use std::sync::mpsc::{channel, sync_channel};
        use std::time::Duration;

        let (tx, rx) = sync_channel(4);
        let (idle_tx, idle_rx) = channel();
        let arrival = |id| Arrival {
            id,
            src: 0,
            dst: 1,
            release: id,
        };
        tx.send(arrival(0)).unwrap();
        tx.send(arrival(1)).unwrap();
        let mut s = ChannelSource::new(2, rx).on_idle(move || idle_tx.send(()).unwrap());
        // The third arrival is sent only once the hook has said the
        // consumer found the channel empty; if it never does, the sender
        // is dropped and the stream ends short.
        let feeder = std::thread::spawn(move || {
            if idle_rx.recv_timeout(Duration::from_secs(10)).is_ok() {
                tx.send(arrival(2)).unwrap();
            }
            idle_rx
        });
        let ids: Vec<u64> = (0..3)
            .map_while(|_| s.next_arrival())
            .map(|a| a.id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let idle_rx = feeder.join().unwrap();
        assert!(
            idle_rx.try_recv().is_err(),
            "no hook call while arrivals were queued"
        );
        assert!(s.next_arrival().is_none(), "sender gone: end of stream");
    }

    #[test]
    fn zero_rate_source_is_empty() {
        let mut s = PoissonSource::new(3, 0.0, Some(50), 1);
        assert!(s.next_arrival().is_none());
    }

    #[test]
    fn zero_rounds_source_is_empty() {
        // Regression: the constructor used to draw round 0's batch before
        // the round limit was ever consulted.
        let mut s = PoissonSource::new(3, 100.0, Some(0), 1);
        assert!(s.next_arrival().is_none());
    }
}
