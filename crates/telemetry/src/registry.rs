//! Lock-free metric cells and the registry that snapshots them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::snapshot::TelemetrySnapshot;

/// A monotonic, lock-free counter cell (relaxed atomics — counters are
/// statistics, not synchronization).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub(crate) fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named collection of shared [`Counter`] cells that freezes into a
/// [`TelemetrySnapshot`].
///
/// Cells are handed out as `Arc`s so producer threads update them
/// lock-free while the owner snapshots at any time.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(String, Arc<Counter>)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&mut self, name: &str) -> Arc<Counter> {
        if let Some((_, c)) = self.counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        self.counters.push((name.to_string(), Arc::clone(&c)));
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        c
    }

    /// Freeze every registered cell into a snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        for (n, c) in &self.counters {
            s.add_counter(n, c.get());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_cells_feed_the_snapshot() {
        let mut r = Registry::new();
        let flows = r.counter("flows");
        let h = {
            let flows = Arc::clone(&flows);
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    flows.inc();
                }
            })
        };
        flows.add(5);
        h.join().unwrap();
        let s = r.snapshot();
        assert_eq!(s.counter("flows"), Some(1005));
    }

    #[test]
    fn registering_twice_returns_the_same_cell() {
        let mut r = Registry::new();
        r.counter("x").inc();
        r.counter("x").inc();
        assert_eq!(r.snapshot().counter("x"), Some(2));
    }
}
