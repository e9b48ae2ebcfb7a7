//! The stall watchdog: a monitor thread that notices when the round
//! counter stops advancing within a budget, drains the last window of
//! spans into the spool as a post-mortem, and notifies the embedder
//! (serve bumps its `Stalled` metric) — turning "the soak hung" into an
//! artifact on disk.

use crate::recorder::FlightRecorder;
use crate::spool::TraceSink;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default stall budget when none is configured.
pub const DEFAULT_STALL_BUDGET: Duration = Duration::from_secs(10);

/// Guard for the monitor thread; stops and joins on drop.
pub struct StallWatchdog {
    stop: Arc<AtomicBool>,
    stalls: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StallWatchdog {
    /// Spawn a monitor over `recorder`'s round-progress cell. If the
    /// cell does not advance for `budget`, the watchdog drains every
    /// ring through `sink`, appends a watchdog marker, and calls
    /// `on_stall(progress)`. It re-arms when
    /// progress resumes, so one run can capture several distinct
    /// stalls (each dumped once).
    pub fn spawn(
        recorder: &FlightRecorder,
        sink: &TraceSink,
        budget: Duration,
        on_stall: impl Fn(u64) + Send + 'static,
    ) -> StallWatchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let stalls = Arc::new(AtomicU64::new(0));
        let recorder = recorder.clone();
        let sink = sink.clone();
        let flag = Arc::clone(&stop);
        let stall_count = Arc::clone(&stalls);
        let budget = budget.max(Duration::from_millis(10));
        let handle = std::thread::spawn(move || {
            let poll = (budget / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
            let mut last_progress = recorder.round_progress();
            let mut last_change = Instant::now();
            let mut dumped = false;
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(poll);
                let progress = recorder.round_progress();
                if progress != last_progress {
                    last_progress = progress;
                    last_change = Instant::now();
                    dumped = false;
                    continue;
                }
                // No rounds yet: the engine hasn't started; don't cry
                // stall before the first round completes.
                if progress == 0 || dumped || last_change.elapsed() < budget {
                    continue;
                }
                dumped = true;
                stall_count.fetch_add(1, Ordering::Relaxed);
                {
                    let writer = sink.writer();
                    let mut w = writer.lock().unwrap();
                    w.drain_from(&recorder);
                    w.note_watchdog(recorder.now_ns(), progress);
                }
                on_stall(progress);
            }
        });
        StallWatchdog {
            stop,
            stalls,
            handle: Some(handle),
        }
    }

    /// Stalls detected so far.
    pub(crate) fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Stop and join the monitor, returning the stall count.
    pub fn finish(mut self) -> u64 {
        self.join();
        self.stalls()
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StallWatchdog {
    fn drop(&mut self) {
        self.join();
    }
}

impl std::fmt::Debug for StallWatchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StallWatchdog(stalls={})", self.stalls())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;
    use crate::spool::read_spool;
    use std::sync::Mutex;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fss-flight-wd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}.spool.jsonl"))
    }

    #[test]
    fn a_stalled_round_counter_produces_a_post_mortem_dump() {
        let rec = FlightRecorder::new();
        let mut h = rec.handle("match");
        let path = tmp("stall");
        let sink = TraceSink::create(&rec, &path, 10_000).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let wd = StallWatchdog::spawn(&rec, &sink, Duration::from_millis(40), move |p| {
            seen2.lock().unwrap().push(p);
        });

        // Two rounds of progress, then silence.
        h.round_start(1);
        h.round_start(2);
        std::thread::sleep(Duration::from_millis(400));
        let stalls = wd.finish();
        assert_eq!(stalls, 1, "dumps once per stall, not once per poll");
        assert_eq!(seen.lock().unwrap().as_slice(), &[2]);

        sink.finish();
        let spool = read_spool(&path).unwrap();
        assert_eq!(spool.watchdogs.len(), 1);
        assert_eq!(spool.watchdogs[0].progress, 2);
        assert!(
            spool.events.iter().any(|e| e.kind == SpanKind::Round),
            "the dump carries the spans recorded before the stall"
        );
    }

    #[test]
    fn steady_progress_never_trips_the_watchdog() {
        let rec = FlightRecorder::new();
        let mut h = rec.handle("m");
        let path = tmp("steady");
        let sink = TraceSink::create(&rec, &path, 10_000).unwrap();
        let wd = StallWatchdog::spawn(&rec, &sink, Duration::from_millis(60), |_| {});
        for t in 1..=20u64 {
            h.round_start(t);
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(wd.finish(), 0);
    }

    #[test]
    fn an_idle_engine_that_never_rounds_is_not_a_stall() {
        let rec = FlightRecorder::new();
        let _h = rec.handle("m");
        let path = tmp("idle");
        let sink = TraceSink::create(&rec, &path, 10_000).unwrap();
        let wd = StallWatchdog::spawn(&rec, &sink, Duration::from_millis(20), |_| {});
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(wd.finish(), 0);
    }
}
