//! The metrics registry: monotonic counters, gauges, and fixed-bucket
//! log-scale histograms with exact merge.
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
//! * **Histograms** use a *fixed* bucket layout — one bucket per binary
//!   order of magnitude, `[2^e, 2^(e+1))` for `e ∈ [-64, 63]` — so two
//!   histograms always share boundaries and [`HistogramData::merge`] is
//!   exact: bucket counts add, min/max take extrema, nothing is
//!   re-binned. Merge is associative and commutative by construction
//!   (property-tested in `tests/proptest_obs.rs`).
//!
//! Snapshots ([`MetricsSnapshot`]) order every metric by name, so their
//! JSON rendering and digest are byte-stable.

use crate::json::{Doc, Obj, Sci};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log-scale buckets: one per binary exponent in `[-64, 63]`.
pub const HISTOGRAM_BUCKETS: usize = 128;

/// Smallest binary exponent with its own bucket; values below
/// `2^MIN_EXP` land in bucket 0.
pub const HISTOGRAM_MIN_EXP: i32 = -64;

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

/// The binary exponent of a positive finite `f64`, clamped to the
/// histogram's bucket range. Subnormals all clamp to the bottom bucket.
fn bucket_exp(v: f64) -> i32 {
    debug_assert!(v > 0.0 && v.is_finite());
    let biased = ((v.to_bits() >> 52) & 0x7FF) as i32;
    let exp = if biased == 0 { -1023 } else { biased - 1023 };
    exp.clamp(
        HISTOGRAM_MIN_EXP,
        HISTOGRAM_MIN_EXP + HISTOGRAM_BUCKETS as i32 - 1,
    )
}

/// The bucket index a positive finite value lands in.
pub fn bucket_index(v: f64) -> usize {
    (bucket_exp(v) - HISTOGRAM_MIN_EXP) as usize
}

/// The inclusive lower bound of bucket `i` (`2^(MIN_EXP + i)`).
pub fn bucket_lower_bound(i: usize) -> f64 {
    assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
    (2.0f64).powi(HISTOGRAM_MIN_EXP + i as i32)
}

/// A fixed-bucket log-scale histogram of non-negative values.
///
/// Thread-safe recording; zero and non-finite/negative values are
/// counted separately so the bucketed population is exactly the positive
/// finite one.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    zeros: AtomicU64,
    invalid: AtomicU64,
    /// Min over valid (non-negative finite) samples, as bits;
    /// `u64::MAX` = empty. Bit order equals numeric order for
    /// non-negative floats.
    min_bits: AtomicU64,
    /// Max over valid samples, as bits; meaningful only when non-empty.
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            zeros: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            min_bits: AtomicU64::new(u64::MAX),
            max_bits: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            self.invalid.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if v == 0.0 {
            self.zeros.fetch_add(1, Ordering::Relaxed);
        } else {
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
        self.min_bits.fetch_min(v.to_bits(), Ordering::Relaxed);
        self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Folds a previously captured [`HistogramData`] into this histogram
    /// — the write-side half of exact merge, used when a resumed run
    /// restores a snapshot into a live registry. Counts add and extrema
    /// take extrema, so absorbing a snapshot and then recording the
    /// remaining samples yields the same state as one uninterrupted run.
    pub fn absorb(&self, data: &HistogramData) {
        for (bucket, &c) in self.buckets.iter().zip(&data.buckets) {
            if c > 0 {
                bucket.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.zeros.fetch_add(data.zeros, Ordering::Relaxed);
        self.invalid.fetch_add(data.invalid, Ordering::Relaxed);
        self.min_bits.fetch_min(data.min_bits, Ordering::Relaxed);
        self.max_bits.fetch_max(data.max_bits, Ordering::Relaxed);
    }

    /// A plain, mergeable copy of the current state.
    pub fn data(&self) -> HistogramData {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistogramData {
            buckets,
            zeros: self.zeros.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            min_bits: self.min_bits.load(Ordering::Relaxed),
            max_bits: self.max_bits.load(Ordering::Relaxed),
        }
    }
}

/// A plain histogram state: the unit of exact merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramData {
    /// Per-bucket counts (bucket `i` covers `[2^(MIN_EXP+i), 2^(MIN_EXP+i+1))`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Samples exactly zero.
    pub zeros: u64,
    /// Rejected samples (negative or non-finite).
    pub invalid: u64,
    /// Min of valid samples as bits (`u64::MAX` = empty).
    pub min_bits: u64,
    /// Max of valid samples as bits (0 when empty).
    pub max_bits: u64,
}

impl Default for HistogramData {
    fn default() -> HistogramData {
        HistogramData {
            buckets: [0; HISTOGRAM_BUCKETS],
            zeros: 0,
            invalid: 0,
            min_bits: u64::MAX,
            max_bits: 0,
        }
    }
}

impl HistogramData {
    /// Valid (non-negative finite) samples recorded.
    pub fn count(&self) -> u64 {
        self.zeros + self.buckets.iter().sum::<u64>()
    }

    /// Minimum valid sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.min_bits))
    }

    /// Maximum valid sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.max_bits))
    }

    /// Exact merge: counts add, extrema take extrema. Associative and
    /// commutative because every term is.
    pub fn merge(&self, other: &HistogramData) -> HistogramData {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i] + other.buckets[i];
        }
        HistogramData {
            buckets,
            zeros: self.zeros + other.zeros,
            invalid: self.invalid + other.invalid,
            min_bits: self.min_bits.min(other.min_bits),
            max_bits: self.max_bits.max(other.max_bits),
        }
    }

    /// Geometric-midpoint estimate of the mean over positive samples
    /// (zeros contribute zero). Deterministic function of the counts.
    pub fn mean_estimate(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = bucket_lower_bound(i);
                c as f64 * lo * std::f64::consts::SQRT_2
            })
            .sum();
        sum / count as f64
    }

    /// `(exponent, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(i32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (HISTOGRAM_MIN_EXP + i as i32, c))
            .collect()
    }
}

/// A registry-resident [`QuantileSketch`](crate::sketch::QuantileSketch) behind a lock: the sketch's
/// state is a sparse map, so unlike counters/histograms it cannot be
/// updated with lone atomics. Recording sites are expected to build a
/// local sketch and [`SketchCell::merge_from`] it once (merge is exact,
/// so sharding does not change the state).
#[derive(Debug, Default)]
pub struct SketchCell {
    inner: Mutex<crate::sketch::QuantileSketch>,
}

impl SketchCell {
    /// Records one sample.
    pub fn observe(&self, v: f64) {
        self.inner.lock().expect("sketch lock").observe(v);
    }

    /// Merges a locally-built sketch into the cell (exact, commutative).
    pub fn merge_from(&self, other: &crate::sketch::QuantileSketch) {
        self.inner.lock().expect("sketch lock").merge_from(other);
    }

    /// A plain copy of the current state.
    pub fn data(&self) -> crate::sketch::QuantileSketch {
        self.inner.lock().expect("sketch lock").clone()
    }
}

/// The named-metric registry. Lookup is by name; snapshots iterate in
/// name order, so renderings and digests are byte-stable.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
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

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry lock");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_string(), Arc::clone(&h));
        h
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
        let histograms = self
            .histograms
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, h)| (name.clone(), h.data()))
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
            histograms,
            sketches,
        }
    }

    /// Folds a previously captured snapshot into the live registry:
    /// counters add, gauges overwrite (last-writer-wins, matching
    /// [`Gauge::set`]), histograms and sketches merge exactly. Absorbing
    /// a checkpoint's snapshot and then recording the rest of the run
    /// produces the same final snapshot as one uninterrupted run —
    /// every operation is the metric's own exact-merge monoid.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        for (name, v) in &snapshot.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &snapshot.gauges {
            self.gauge(name).set(*v);
        }
        for (name, data) in &snapshot.histograms {
            self.histogram(name).absorb(data);
        }
        for (name, sketch) in &snapshot.sketches {
            self.sketch(name).merge_from(sketch);
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
    /// `(name, data)` for every histogram.
    pub histograms: Vec<(String, HistogramData)>,
    /// `(name, state)` for every quantile sketch.
    pub sketches: Vec<(String, crate::sketch::QuantileSketch)>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.sketches.is_empty()
    }

    /// Exact merge of two snapshots: counters add, gauges take `other`'s
    /// value when present (`other` is the later shard), histograms and
    /// sketches merge per their own monoids. Metric names union; the
    /// result stays name-ordered, so its JSON and digest are stable.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        fn merge_by_name<T: Clone>(
            a: &[(String, T)],
            b: &[(String, T)],
            combine: impl Fn(&T, &T) -> T,
        ) -> Vec<(String, T)> {
            let mut out: BTreeMap<String, T> =
                a.iter().map(|(n, v)| (n.clone(), v.clone())).collect();
            for (name, v) in b {
                match out.get_mut(name) {
                    Some(existing) => *existing = combine(existing, v),
                    None => {
                        out.insert(name.clone(), v.clone());
                    }
                }
            }
            out.into_iter().collect()
        }
        MetricsSnapshot {
            counters: merge_by_name(&self.counters, &other.counters, |a, b| a + b),
            gauges: merge_by_name(&self.gauges, &other.gauges, |_, b| *b),
            histograms: merge_by_name(&self.histograms, &other.histograms, |a, b| a.merge(b)),
            sketches: merge_by_name(&self.sketches, &other.sketches, |a, b| a.merge(b)),
        }
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
        for (name, h) in &self.histograms {
            d = crate::fold(d, crate::fnv1a(name.as_bytes()));
            d = crate::fold(d, h.count());
            d = crate::fold(d, h.zeros);
            d = crate::fold(d, h.invalid);
            d = crate::fold(d, h.min_bits);
            d = crate::fold(d, h.max_bits);
            for (exp, c) in h.nonzero_buckets() {
                d = crate::fold(d, exp as u64);
                d = crate::fold(d, c);
            }
        }
        for (name, s) in &self.sketches {
            d = crate::fold(d, crate::fnv1a(name.as_bytes()));
            d = crate::fold(d, s.digest());
        }
        d
    }

    /// JSON under the `albireo.obs/v1` schema. Counters are integers;
    /// gauges use scientific notation (oracle relative errors span many
    /// decades); histograms list only non-empty buckets.
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
            .doc("histograms", |d| {
                self.histograms.iter().fold(d, |d, (name, h)| {
                    d.field(
                        name,
                        Obj::new()
                            .field("count", h.count())
                            .field("zeros", h.zeros)
                            .field("invalid", h.invalid)
                            .field("min", Sci(h.min().unwrap_or(0.0)))
                            .field("max", Sci(h.max().unwrap_or(0.0)))
                            .field("mean_est", Sci(h.mean_estimate()))
                            .field("buckets", h.nonzero_buckets()),
                    )
                })
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
    fn bucket_layout_is_binary_log() {
        assert_eq!(bucket_index(1.0), 64);
        assert_eq!(bucket_index(1.5), 64);
        assert_eq!(bucket_index(2.0), 65);
        assert_eq!(bucket_index(0.5), 63);
        assert_eq!(bucket_lower_bound(64), 1.0);
        assert_eq!(bucket_lower_bound(65), 2.0);
        // Extremes clamp instead of overflowing.
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 2.0), 0);
        assert_eq!(bucket_index(f64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_counts_and_extrema() {
        let h = Histogram::default();
        for v in [0.0, 1e-6, 3.0, 4.0, f64::NAN, -1.0] {
            h.observe(v);
        }
        let d = h.data();
        assert_eq!(d.count(), 4);
        assert_eq!(d.zeros, 1);
        assert_eq!(d.invalid, 2);
        assert_eq!(d.min(), Some(0.0));
        assert_eq!(d.max(), Some(4.0));
        assert!(d.mean_estimate() > 0.0);
    }

    #[test]
    fn merge_is_exact() {
        let a = Histogram::default();
        let b = Histogram::default();
        let all = Histogram::default();
        for (i, v) in [1e-9, 0.25, 7.0, 1e12, 0.0].iter().enumerate() {
            if i % 2 == 0 {
                a.observe(*v)
            } else {
                b.observe(*v)
            }
            all.observe(*v);
        }
        assert_eq!(a.data().merge(&b.data()), all.data());
        assert_eq!(b.data().merge(&a.data()), all.data());
    }

    #[test]
    fn snapshot_json_is_schema_versioned_and_stable() {
        let r = Registry::new();
        r.counter("ops").add(42);
        r.gauge("err").set(1.5e-4);
        r.histogram("wait_s").observe(0.001);
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
    fn absorbing_a_snapshot_equals_an_uninterrupted_run() {
        // Record half the samples, snapshot, absorb into a fresh
        // registry, record the other half: the final snapshot must equal
        // one registry that saw everything.
        let samples = [0.0, 1e-6, 0.25, 3.0, 4.0, 7.5, 1e3];
        let record = |r: &Registry, v: f64| {
            r.counter("ops").add(1);
            r.histogram("h").observe(v);
            r.sketch("s").observe(v);
            r.gauge("g").set(v);
        };
        let full = Registry::new();
        let first = Registry::new();
        for &v in &samples {
            record(&full, v);
        }
        for &v in &samples[..3] {
            record(&first, v);
        }
        // Resume: a fresh registry absorbs the checkpointed state, then
        // the remaining samples land on it.
        let resumed = Registry::new();
        resumed.absorb(&first.snapshot());
        for &v in &samples[3..] {
            record(&resumed, v);
        }
        assert_eq!(resumed.snapshot().digest(), full.snapshot().digest());
        assert_eq!(resumed.snapshot().to_json(), full.snapshot().to_json());
    }

    #[test]
    fn snapshot_merge_unions_names_and_adds_counts() {
        let a = Registry::new();
        a.counter("shared").add(2);
        a.counter("only_a").add(1);
        a.histogram("h").observe(1.0);
        let b = Registry::new();
        b.counter("shared").add(3);
        b.gauge("g").set(9.0);
        b.histogram("h").observe(4.0);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(
            merged.counters,
            vec![("only_a".to_string(), 1), ("shared".to_string(), 5)]
        );
        assert_eq!(merged.gauges, vec![("g".to_string(), 9.0)]);
        let h = &merged.histograms[0].1;
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(4.0));
        // Identity and commutativity of the count-carrying parts.
        let empty = MetricsSnapshot::default();
        assert_eq!(a.snapshot().merge(&empty), a.snapshot());
        assert_eq!(merged.counters, b.snapshot().merge(&a.snapshot()).counters);
    }

    #[test]
    fn sketch_cells_round_trip_and_render() {
        let r = Registry::new();
        r.sketch("latency_ms").observe(1.25);
        r.sketch("latency_ms").observe(2.5);
        let mut local = crate::sketch::QuantileSketch::new();
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
