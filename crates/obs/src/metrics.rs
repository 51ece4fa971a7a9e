//! The metrics registry: monotonic counters, gauges, and quantile
//! sketches.
//!
//! Every metric is designed around the workspace's determinism contract:
//!
//! * **Counters** are monotonic `u64` sums. Parallel increments commute
//!   exactly (integer addition), so the final value is a function of the
//!   work performed, never of thread interleaving. Quantities that are
//!   physically fractional (energy, time) are recorded in fixed integer
//!   units (nanojoules, nanoseconds) for the same reason.
//! * **Gauges** are last-writer-wins `f64` values, only written from
//!   deterministic (serial or per-run) code paths.
//! * **Distributions** are [`QuantileSketch`]es, the registry's one
//!   distribution type: a fixed log-linear bucket layout whose merge is
//!   exact (counts add, extrema take extrema, nothing is re-binned), so
//!   the state is a function of the multiset of samples
//!   (property-tested in `tests/proptest_sketch.rs`).
//!
//! Snapshots ([`MetricsSnapshot`]) order every metric by name, so their
//! JSON rendering and digest are byte-stable.

use crate::json::{Doc, Sci};
use crate::sketch::QuantileSketch;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins `f64` gauge (stored as IEEE-754 bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A registry-resident [`QuantileSketch`] behind a lock: the sketch's
/// state is a bucket window, so unlike counters it cannot be updated
/// with lone atomics. A hot recording site builds a local sketch and
/// [`SketchCell::merge_from`]s it once (merge is exact, so sharding
/// does not change the state).
#[derive(Debug, Default)]
pub struct SketchCell {
    inner: Mutex<QuantileSketch>,
}

impl SketchCell {
    /// Records one sample.
    pub fn observe(&self, v: f64) {
        self.inner.lock().expect("sketch lock").observe(v);
    }

    /// Merges a locally-built sketch into the cell (exact, commutative).
    pub fn merge_from(&self, other: &QuantileSketch) {
        self.inner.lock().expect("sketch lock").merge_from(other);
    }

    /// A plain copy of the current state.
    pub fn data(&self) -> QuantileSketch {
        self.inner.lock().expect("sketch lock").clone()
    }
}

/// The named-metric registry. Lookup is by name; snapshots iterate in
/// name order, so renderings and digests are byte-stable.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    sketches: Mutex<BTreeMap<String, Arc<SketchCell>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry lock");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry lock");
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// The quantile sketch named `name`, created on first use.
    pub fn sketch(&self, name: &str) -> Arc<SketchCell> {
        let mut map = self.sketches.lock().expect("registry lock");
        if let Some(s) = map.get(name) {
            return Arc::clone(s);
        }
        let s = Arc::new(SketchCell::default());
        map.insert(name.to_string(), Arc::clone(&s));
        s
    }

    /// A point-in-time snapshot of every metric, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let sketches = self
            .sketches
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, s)| (name.clone(), s.data()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            sketches,
        }
    }
}

/// A point-in-time view of a [`Registry`], ordered by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` for every quantile sketch.
    pub sketches: Vec<(String, QuantileSketch)>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.sketches.is_empty()
    }

    /// Order-sensitive digest over every metric, with the workspace's
    /// `rotate_left(7) ^ bits` fold.
    pub fn digest(&self) -> u64 {
        let mut d = 0x0B5E_0B5Eu64;
        for (name, v) in &self.counters {
            d = crate::fold(d, crate::fnv1a(name.as_bytes()));
            d = crate::fold(d, *v);
        }
        for (name, v) in &self.gauges {
            d = crate::fold(d, crate::fnv1a(name.as_bytes()));
            d = crate::fold(d, v.to_bits());
        }
        for (name, s) in &self.sketches {
            d = crate::fold(d, crate::fnv1a(name.as_bytes()));
            d = crate::fold(d, s.digest());
        }
        d
    }

    /// JSON under the `albireo.obs/v1` schema. Counters are integers;
    /// gauges use scientific notation (oracle relative errors span many
    /// decades); sketches list only occupied buckets.
    pub fn to_json(&self) -> String {
        self.json_members(Doc::new()).finish()
    }

    /// Appends the [`to_json`](MetricsSnapshot::to_json) members to
    /// `doc`, so a report can nest the snapshot as one of its members.
    pub fn json_members(&self, doc: Doc) -> Doc {
        doc.field("schema", crate::SCHEMA)
            .doc("counters", |d| {
                self.counters
                    .iter()
                    .fold(d, |d, (name, v)| d.field(name, v))
            })
            .doc("gauges", |d| {
                self.gauges
                    .iter()
                    .fold(d, |d, (name, v)| d.field(name, Sci(*v)))
            })
            .doc("sketches", |d| {
                self.sketches
                    .iter()
                    .fold(d, |d, (name, sk)| d.field(name, sk))
            })
            .field("digest", format!("{:016x}", self.digest()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        r.gauge("g").set(1.25);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 7)]);
        assert_eq!(snap.gauges, vec![("g".to_string(), 1.25)]);
    }

    #[test]
    fn snapshot_json_is_schema_versioned_and_stable() {
        let r = Registry::new();
        r.counter("ops").add(42);
        r.gauge("err").set(1.5e-4);
        r.sketch("wait_s").observe(0.001);
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"albireo.obs/v1\""));
        assert!(json.contains("\"ops\": 42"));
        assert!(json.contains("1.500000e-4"));
        assert_eq!(json, r.snapshot().to_json());
        assert_eq!(snap.digest(), r.snapshot().digest());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        let json = Registry::new().snapshot().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"sketches\": {}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn sketch_cells_round_trip_and_render() {
        let r = Registry::new();
        r.sketch("latency_ms").observe(1.25);
        r.sketch("latency_ms").observe(2.5);
        let mut local = QuantileSketch::new();
        local.observe(10.0);
        r.sketch("latency_ms").merge_from(&local);
        let snap = r.snapshot();
        assert_eq!(snap.sketches.len(), 1);
        assert_eq!(snap.sketches[0].1.count(), 3);
        let json = snap.to_json();
        assert!(json.contains("\"latency_ms\": {\"count\": 3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Registering a sketch changes the digest; an empty section does
        // not (existing digests stay stable).
        assert_ne!(snap.digest(), Registry::new().snapshot().digest());
    }
}
