//! The 3-stage pipe: the round loop with its two ends on other threads.
//!
//! The sequential run ([`crate::stream`]) walks one thread through four
//! stages per round: **arrival ingest → queue update → matching repair →
//! dispatch/metrics** (the [`Stage`] taxonomy). Matching repair is
//! inherently global and ~78 % of a serial round, so the stages that can
//! leave the thread are the two that touch the outside world: at 2 cores
//! the source is pulled (and, for trace files, parsed) on an ingest
//! thread; at 3 the `on_dispatch` callback also moves to a sink thread.
//! Bounded SPSC channels connect them. A core budget above 3 runs this
//! same pipe.
//!
//! An earlier design also fanned the queue updates across `cores − 3`
//! shard workers. It never recorded a single-stream speedup on any
//! machine — on the ledger's 2-hw-thread box it ran at 0.54x of one core
//! (`pipeline.speedup_cores2`, perf ledger @ 35d1fa5; no ≥ 4-thread
//! fingerprint was ever recorded, so that case is unverified) — and was
//! deleted by ROADMAP item 2's own rule.
//!
//! ## Determinism is the contract
//!
//! The round loop itself runs unchanged in the middle of the pipe, so
//! every `cores` value produces **bit-identical schedules** (pinned by
//! the `pipeline_differential` suite, all four §5 policies ± failure
//! plans ± telemetry): ingest moves behind a channel-backed
//! `BatchSource` (same arrival sequence, by construction) and the
//! dispatch callback drains a FIFO channel (same dispatch order).
//! Channels form a line (ingest → round loop → dispatch) and every
//! consumer drains in order, so no cycle can stall.

use std::sync::mpsc::{sync_channel, Receiver};
use std::thread;

use crate::source::{Arrival, FlowSource};
use crate::stream::{run_local, StreamStats};
use crate::Rule;
use fss_core::FailurePlan;
use fss_telemetry::{span, ChanId, EngineTelemetry, FlightHandle, Stage, WaitDir};

/// Arrivals per ingest batch (amortizes one channel op over many
/// arrivals; batches may straddle round boundaries — the round loop
/// re-slices by release, so chunking is invisible to the schedule).
const ARRIVAL_BATCH: usize = 1024;
/// Ingest batches in flight.
const ARRIVAL_DEPTH: usize = 8;
/// Dispatch-offload triples per batch.
const DISPATCH_BATCH: usize = 1024;
/// Dispatch-offload batches in flight.
const DISPATCH_DEPTH: usize = 8;

/// A [`FlowSource`] replaying arrival batches received over a channel —
/// the downstream half of the ingest stage. The arrival *sequence* is
/// identical to the upstream source's (batches are concatenated in
/// order), so any drive running over a `BatchSource` produces the same
/// schedule as over the original source, by construction.
struct BatchSource {
    m_in: usize,
    m_out: usize,
    len_hint: Option<usize>,
    rx: Receiver<Vec<Arrival>>,
    cur: std::vec::IntoIter<Arrival>,
    /// Span handle for the blocking batch receives (its own ring: the
    /// consumer thread's main handle is mutably borrowed by the drive
    /// while this source is polled).
    flight: FlightHandle,
    chan: ChanId,
}

impl FlowSource for BatchSource {
    fn m_in(&self) -> usize {
        self.m_in
    }

    fn m_out(&self) -> usize {
        self.m_out
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        loop {
            if let Some(a) = self.cur.next() {
                return Some(a);
            }
            let (flight, chan) = (&mut self.flight, self.chan);
            match flight.wait(WaitDir::Recv, chan, || self.rx.recv()) {
                Ok(batch) => self.cur = batch.into_iter(),
                Err(_) => return None,
            }
        }
    }

    fn len_hint(&self) -> Option<usize> {
        self.len_hint
    }
}

/// Move `source` onto a dedicated ingest thread inside `scope`,
/// returning the channel-backed replacement plus the thread's telemetry
/// handle (joined by the caller).
fn spawn_ingest<'scope, S: FlowSource + Send + 'scope>(
    scope: &'scope thread::Scope<'scope, '_>,
    source: S,
    tele: &mut EngineTelemetry,
) -> (
    BatchSource,
    thread::ScopedJoinHandle<'scope, EngineTelemetry>,
) {
    let (m_in, m_out, len_hint) = (source.m_in(), source.m_out(), source.len_hint());
    let (tx, rx) = sync_channel::<Vec<Arrival>>(ARRIVAL_DEPTH);
    let arr_chan = tele.flight_chan("arrivals");
    let mut tele_i = tele.sibling("ingest");
    let handle = scope.spawn(move || {
        let mut source = source;
        loop {
            let batch = span!(tele_i, Stage::Ingest, {
                let mut batch = Vec::with_capacity(ARRIVAL_BATCH);
                while batch.len() < ARRIVAL_BATCH {
                    match source.next_arrival() {
                        Some(a) => batch.push(a),
                        None => break,
                    }
                }
                batch
            });
            if batch.is_empty() {
                break;
            }
            // Ingest learns rounds second-hand: tag this thread's
            // subsequent spans with the batch tail's release round.
            if let Some(a) = batch.last() {
                tele_i.flight_round_tag(a.release);
            }
            if tele_i.chan_send(arr_chan, || tx.send(batch)).is_err() {
                break;
            }
        }
        tele_i
    });
    (
        BatchSource {
            m_in,
            m_out,
            len_hint,
            rx,
            cur: Vec::new().into_iter(),
            flight: tele.flight().sibling("arrivals"),
            chan: arr_chan,
        },
        handle,
    )
}

/// Run the round loop with ingest moved to its own thread (2 cores)
/// and, when `offload_dispatch`, the user dispatch callback moved to a
/// sink thread as well (3 cores). The loop itself is the unchanged
/// sequential one, so the schedule is identical by construction.
pub(crate) fn run_staged<S: FlowSource + Send>(
    source: S,
    rule: Rule<'_>,
    failures: Option<&FailurePlan>,
    offload_dispatch: bool,
    tele: &mut EngineTelemetry,
    mut on_dispatch: impl FnMut(u64, u64, u64) + Send,
) -> StreamStats {
    thread::scope(|scope| {
        let (batch_source, ingest) = spawn_ingest(scope, source, tele);
        let stats;
        let mut sink_tele = None;
        if offload_dispatch {
            let (tx, rx) = sync_channel::<Vec<(u64, u64, u64)>>(DISPATCH_DEPTH);
            let disp_chan = tele.flight_chan("dispatch");
            let mut tele_d = tele.sibling("dispatch");
            let sink = scope.spawn(move || {
                while let Ok(batch) = tele_d.chan_recv(disp_chan, || rx.recv()) {
                    if let Some(&(_, _, round)) = batch.first() {
                        tele_d.flight_round_tag(round);
                    }
                    span!(tele_d, Stage::Dispatch, {
                        for (id, release, round) in batch {
                            on_dispatch(id, release, round);
                        }
                    });
                }
                tele_d
            });
            // Buffer triples per round; flush on round change or a full
            // batch. FIFO channel + in-order flushes preserve the
            // dispatch order exactly.
            let mut buf: Vec<(u64, u64, u64)> = Vec::with_capacity(DISPATCH_BATCH);
            let mut last_round = u64::MAX;
            stats = run_local(batch_source, rule, failures, tele, |id, release, round| {
                if (round != last_round || buf.len() >= DISPATCH_BATCH) && !buf.is_empty() {
                    tx.send(std::mem::replace(
                        &mut buf,
                        Vec::with_capacity(DISPATCH_BATCH),
                    ))
                    .expect("dispatch sink alive");
                }
                last_round = round;
                buf.push((id, release, round));
            });
            if !buf.is_empty() {
                tx.send(buf).expect("dispatch sink alive");
            }
            drop(tx);
            sink_tele = Some(sink.join().expect("dispatch sink"));
        } else {
            stats = run_local(batch_source, rule, failures, tele, on_dispatch);
        }
        tele.merge(&ingest.join().expect("ingest stage"));
        if let Some(t) = &sink_tele {
            tele.merge(t);
        }
        stats
    })
}

#[cfg(test)]
mod tests {
    use crate::source::PoissonSource;
    use crate::{run_stream_cores, BuiltinPolicy, EngineMode, EngineTelemetry};

    /// Every cores level reproduces the 1-core stats and dispatch
    /// sequence on a Poisson stream, per mode (the full differential
    /// suite lives in `tests/pipeline_differential.rs`).
    #[test]
    fn cores_levels_agree_on_stats_and_schedule() {
        for mode in [
            EngineMode::Incremental,
            EngineMode::Exact(BuiltinPolicy::MaxCard),
            EngineMode::Exact(BuiltinPolicy::MinRTime),
            EngineMode::Exact(BuiltinPolicy::MaxWeight),
            EngineMode::Exact(BuiltinPolicy::FifoGreedy),
        ] {
            let run = |cores: usize| {
                let mut schedule = Vec::new();
                let stats = run_stream_cores(
                    PoissonSource::new(6, 5.0, Some(40), 11),
                    mode,
                    cores,
                    &mut EngineTelemetry::disabled(),
                    |id, release, round| schedule.push((id, release, round)),
                );
                (stats, schedule)
            };
            let base = run(1);
            for cores in [2, 3, 4, 6] {
                assert_eq!(run(cores), base, "mode {mode:?} at {cores} cores");
            }
        }
    }
}
