//! Span tracing: structured events in a bounded, lock-sharded ring
//! buffer.
//!
//! Events carry **virtual** timestamps — the DES clock in
//! `albireo-runtime` or the cumulative-latency clock in the core
//! engine — so a fixed seed reproduces the trace byte-for-byte at any
//! thread count. Wall-clock nanoseconds are an opt-in side channel
//! ([`Event::wall_ns`]) that never participates in digests or in the
//! deterministic drain order.
//!
//! The buffer is sharded by track (one mutexed ring per shard) to keep
//! recording cheap under concurrency; each shard is bounded and drops
//! its oldest events when full, counting the drops. [`TraceBuffer::drain_sorted`]
//! merges the shards into one totally ordered stream keyed by
//! `(ts_bits, track, phase rank, seq)` — ends before begins at equal
//! timestamps, so zero-gap adjacent spans nest correctly in viewers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default per-shard capacity (events) of the ring buffer.
pub const DEFAULT_SHARD_CAPACITY: usize = 1 << 14;

/// Number of shards in the ring buffer.
pub const SHARDS: usize = 8;

/// Event kind, mirroring the Chrome `trace_event` phases we export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Start of a span (`ph: "B"` semantics; exported paired as `"X"`).
    Begin,
    /// End of a span.
    End,
    /// A point event (`ph: "i"`).
    Instant,
    /// A sampled counter value (`ph: "C"`).
    Counter,
}

impl Phase {
    /// Sort rank at equal timestamps: ends drain before begins so that
    /// back-to-back spans on one track close before the next opens.
    pub fn rank(self) -> u8 {
        match self {
            Phase::End => 0,
            Phase::Counter => 1,
            Phase::Instant => 2,
            Phase::Begin => 3,
        }
    }

    /// Stable numeric tag folded into digests.
    pub fn tag(self) -> u64 {
        match self {
            Phase::Begin => 1,
            Phase::End => 2,
            Phase::Instant => 3,
            Phase::Counter => 4,
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical track (exported as the Chrome `tid`): a chip index, a
    /// worker, or one of the reserved tracks in `crate::track`.
    pub track: u32,
    /// Global record sequence number (tie-breaker of last resort).
    pub seq: u64,
    /// Virtual timestamp in seconds.
    pub ts_s: f64,
    /// Event kind.
    pub phase: Phase,
    /// Event (or counter) name.
    pub name: String,
    /// Integer arguments (indices, sizes, counts), in recording order.
    pub args: Vec<(&'static str, u64)>,
    /// Opt-in wall-clock nanoseconds since the `Obs` epoch. Excluded
    /// from digests and ordering.
    pub wall_ns: Option<u64>,
}

impl Event {
    /// Sort key for the deterministic total order.
    fn key(&self) -> (u64, u32, u8, u64) {
        (self.ts_s.to_bits(), self.track, self.phase.rank(), self.seq)
    }
}

/// Bounded, lock-sharded ring buffer of [`Event`]s.
#[derive(Debug)]
pub struct TraceBuffer {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
}

#[derive(Debug, Default)]
struct Shard {
    events: std::collections::VecDeque<Event>,
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::with_capacity(DEFAULT_SHARD_CAPACITY)
    }
}

impl TraceBuffer {
    /// A buffer holding up to `capacity_per_shard` events in each of
    /// [`SHARDS`] shards.
    pub fn with_capacity(capacity_per_shard: usize) -> TraceBuffer {
        TraceBuffer {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one event, dropping the shard's oldest if full.
    pub fn record(
        &self,
        track: u32,
        ts_s: f64,
        phase: Phase,
        name: &str,
        args: Vec<(&'static str, u64)>,
        wall_ns: Option<u64>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            track,
            seq,
            ts_s,
            phase,
            name: name.to_string(),
            args,
            wall_ns,
        };
        let shard = &self.shards[track as usize % SHARDS];
        let mut guard = shard.lock().expect("trace shard lock");
        if guard.events.len() >= self.capacity_per_shard {
            guard.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        guard.events.push_back(event);
    }

    /// Events recorded and still buffered.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("trace shard lock").events.len())
            .sum()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped to ring-buffer bounds so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Removes and returns every buffered event in the deterministic
    /// total order `(ts_bits, track, phase rank, seq)`.
    pub fn drain_sorted(&self) -> Vec<Event> {
        let mut all: Vec<Event> = Vec::new();
        for shard in &self.shards {
            let mut guard = shard.lock().expect("trace shard lock");
            all.extend(guard.events.drain(..));
        }
        all.sort_by_key(Event::key);
        all
    }
}

/// Order-sensitive digest of a drained event stream, using the
/// workspace fold convention. Wall-clock fields are excluded so traces
/// digest identically with and without `--wall-clock`.
pub fn events_digest(events: &[Event]) -> u64 {
    let mut d = 0x0B5E_7ACEu64;
    for e in events {
        d = crate::fold(d, crate::fnv1a(e.name.as_bytes()));
        d = crate::fold(d, e.ts_s.to_bits());
        d = crate::fold(d, u64::from(e.track));
        d = crate::fold(d, e.phase.tag());
        for (k, v) in &e.args {
            d = crate::fold(d, crate::fnv1a(k.as_bytes()));
            d = crate::fold(d, *v);
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(buf: &TraceBuffer, track: u32, ts: f64, phase: Phase, name: &str) {
        buf.record(track, ts, phase, name, Vec::new(), None);
    }

    #[test]
    fn drain_orders_by_time_then_track_then_phase() {
        let buf = TraceBuffer::default();
        ev(&buf, 1, 2.0, Phase::Begin, "b");
        ev(&buf, 0, 1.0, Phase::Begin, "a");
        ev(&buf, 0, 2.0, Phase::End, "a");
        let drained = buf.drain_sorted();
        let keys: Vec<(f64, &str)> = drained.iter().map(|e| (e.ts_s, e.name.as_str())).collect();
        assert_eq!(keys, vec![(1.0, "a"), (2.0, "a"), (2.0, "b")]);
        // End ranks before Begin at the same instant.
        assert_eq!(drained[1].phase, Phase::End);
        assert!(buf.is_empty());
    }

    #[test]
    fn ring_bound_drops_oldest_and_counts() {
        let buf = TraceBuffer::with_capacity(2);
        for i in 0..5 {
            ev(&buf, 0, i as f64, Phase::Instant, "x");
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
        let drained = buf.drain_sorted();
        assert_eq!(drained[0].ts_s, 3.0);
        assert_eq!(drained[1].ts_s, 4.0);
    }

    #[test]
    fn digest_ignores_wall_clock() {
        let a = TraceBuffer::default();
        let b = TraceBuffer::default();
        a.record(0, 1.0, Phase::Instant, "x", vec![("k", 7)], None);
        b.record(0, 1.0, Phase::Instant, "x", vec![("k", 7)], Some(123));
        assert_eq!(
            events_digest(&a.drain_sorted()),
            events_digest(&b.drain_sorted())
        );
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mk = |ts: f64, name: &str| Event {
            track: 0,
            seq: 0,
            ts_s: ts,
            phase: Phase::Instant,
            name: name.to_string(),
            args: Vec::new(),
            wall_ns: None,
        };
        let ab = [mk(1.0, "a"), mk(2.0, "b")];
        let ba = [mk(2.0, "b"), mk(1.0, "a")];
        assert_ne!(events_digest(&ab), events_digest(&ba));
    }
}
