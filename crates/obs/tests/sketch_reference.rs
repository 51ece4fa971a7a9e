//! Pins the quantile sketch's contiguous bucket window to the ordered
//! map it replaced: after every step of any observe / merge /
//! `from_parts` sequence, the sketch must report the same occupied
//! buckets, count, extrema, quantiles, digest and JSON as a
//! `BTreeMap<u16, u64>` reference kept here, and must be `Eq` to the
//! sketch rebuilt from the reference's parts. CI runs it at
//! `PROPTEST_CASES=256`.

use albireo_obs::json::{Obj, Sci};
use albireo_obs::sketch::{bucket_bounds, bucket_index, MAX_BUCKETS};
use albireo_obs::QuantileSketch;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

/// The sketch state as it was kept before: a sparse ordered map.
#[derive(Debug, Clone)]
struct Reference {
    buckets: BTreeMap<u16, u64>,
    zeros: u64,
    invalid: u64,
    min_bits: u64,
    max_bits: u64,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            buckets: BTreeMap::new(),
            zeros: 0,
            invalid: 0,
            min_bits: u64::MAX,
            max_bits: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            self.invalid += 1;
            return;
        }
        if v == 0.0 {
            self.zeros += 1;
        } else {
            *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        }
        self.min_bits = self.min_bits.min(v.to_bits());
        self.max_bits = self.max_bits.max(v.to_bits());
    }

    fn merge_from(&mut self, other: &Reference) {
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
        self.zeros += other.zeros;
        self.invalid += other.invalid;
        self.min_bits = self.min_bits.min(other.min_bits);
        self.max_bits = self.max_bits.max(other.max_bits);
    }

    fn from_parts(parts: &Parts) -> Reference {
        let mut buckets = BTreeMap::new();
        for &(idx, c) in &parts.buckets {
            if c > 0 {
                buckets.insert(idx, c);
            }
        }
        Reference {
            buckets,
            zeros: parts.zeros,
            invalid: parts.invalid,
            min_bits: parts.min_bits,
            max_bits: parts.max_bits,
        }
    }

    fn count(&self) -> u64 {
        self.zeros + self.buckets.values().sum::<u64>()
    }

    fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
        if rank <= self.zeros {
            return 0.0;
        }
        let mut cum = self.zeros;
        for (&idx, &c) in &self.buckets {
            cum += c;
            if cum >= rank {
                let (lo, hi) = bucket_bounds(idx);
                let (min, max) = (f64::from_bits(self.min_bits), f64::from_bits(self.max_bits));
                return (lo * hi).sqrt().clamp(min, max);
            }
        }
        f64::from_bits(self.max_bits)
    }

    fn digest(&self) -> u64 {
        let mut d = 0x5CE7_C4A1u64;
        for v in [self.zeros, self.invalid, self.min_bits, self.max_bits] {
            d = albireo_obs::fold(d, v);
        }
        for (&idx, &c) in &self.buckets {
            d = albireo_obs::fold(d, idx as u64);
            d = albireo_obs::fold(d, c);
        }
        d
    }

    fn json(&self) -> String {
        let nonempty = self.count() > 0;
        let extreme = |bits: u64| if nonempty { f64::from_bits(bits) } else { 0.0 };
        let buckets: Vec<(u16, u64)> = self.buckets.iter().map(|(&i, &c)| (i, c)).collect();
        Obj::new()
            .field("count", self.count())
            .field("zeros", self.zeros)
            .field("invalid", self.invalid)
            .field("min", Sci(extreme(self.min_bits)))
            .field("max", Sci(extreme(self.max_bits)))
            .field("p50", Sci(self.quantile(0.50)))
            .field("p95", Sci(self.quantile(0.95)))
            .field("p99", Sci(self.quantile(0.99)))
            .field("p999", Sci(self.quantile(0.999)))
            .field("buckets", buckets)
            .finish()
    }
}

/// Arguments of one `from_parts` call. Bucket lists may repeat an
/// index, carry zero counts and come in any order.
#[derive(Debug, Clone)]
struct Parts {
    buckets: Vec<(u16, u64)>,
    zeros: u64,
    invalid: u64,
    min_bits: u64,
    max_bits: u64,
}

#[derive(Debug, Clone)]
enum Op {
    Observe(f64),
    /// Merge in a sketch of these samples, in place or by value.
    Merge(Vec<f64>, bool),
    /// Replace the state with `from_parts`.
    FromParts(Parts),
}

/// Samples over the whole bucket space: both clamped ends, subnormals,
/// a narrow band that keeps the window small, and the rejected values.
fn sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => 0.5f64..4.0,
        4 => 1e-12f64..1e12,
        1 => Just(0.0f64),
        1 => Just(f64::MIN_POSITIVE / 8.0),
        1 => 1e-300f64..1e-200,
        1 => 1e200f64..f64::MAX,
        1 => -1e6f64..0.0,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
    ]
}

fn parts() -> impl Strategy<Value = Parts> {
    (
        prop::collection::vec(
            (
                prop_oneof![0u16..(MAX_BUCKETS as u16), 2040u16..2120],
                0u64..4,
            ),
            0..12,
        ),
        0u64..3,
        0u64..3,
        (1e-6f64..1e6, 1e-6f64..1e6),
    )
        .prop_map(|(buckets, zeros, invalid, (a, b))| Parts {
            buckets,
            zeros,
            invalid,
            min_bits: a.min(b).to_bits(),
            max_bits: a.max(b).to_bits(),
        })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            12 => sample().prop_map(Op::Observe),
            3 => (prop::collection::vec(sample(), 0..16), prop::bool::ANY)
                .prop_map(|(v, in_place)| Op::Merge(v, in_place)),
            1 => parts().prop_map(Op::FromParts),
        ],
        0..60,
    )
}

fn agrees(s: &QuantileSketch, r: &Reference) -> Result<(), TestCaseError> {
    let want: Vec<(u16, u64)> = r.buckets.iter().map(|(&i, &c)| (i, c)).collect();
    prop_assert_eq!(s.nonzero_buckets(), want.clone());
    prop_assert_eq!(s.occupied_buckets(), r.buckets.len());
    prop_assert_eq!(s.count(), r.count());
    prop_assert_eq!((s.zeros(), s.invalid()), (r.zeros, r.invalid));
    prop_assert_eq!((s.min_bits(), s.max_bits()), (r.min_bits, r.max_bits));
    for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
        let (got, want) = (s.quantile(q), r.quantile(q));
        prop_assert!(got.to_bits() == want.to_bits(), "q={q}: {got} vs {want}");
    }
    prop_assert_eq!(s.digest(), r.digest());
    prop_assert_eq!(s.to_json_fragment(), r.json());
    let rebuilt = QuantileSketch::from_parts(&want, r.zeros, r.invalid, r.min_bits, r.max_bits);
    prop_assert_eq!(&rebuilt, s);
    Ok(())
}

proptest! {
    /// Every step of any operation sequence matches the map reference.
    #[test]
    fn window_matches_btreemap_reference(ops in ops()) {
        let mut sketch = QuantileSketch::new();
        let mut reference = Reference::new();
        agrees(&sketch, &reference)?;
        for op in &ops {
            match op {
                Op::Observe(v) => {
                    sketch.observe(*v);
                    reference.observe(*v);
                }
                Op::Merge(samples, in_place) => {
                    let mut other = QuantileSketch::new();
                    let mut other_ref = Reference::new();
                    for &v in samples {
                        other.observe(v);
                        other_ref.observe(v);
                    }
                    agrees(&other, &other_ref)?;
                    if *in_place {
                        sketch.merge_from(&other);
                    } else {
                        sketch = other.merge(&sketch);
                    }
                    reference.merge_from(&other_ref);
                }
                Op::FromParts(p) => {
                    sketch = QuantileSketch::from_parts(
                        &p.buckets, p.zeros, p.invalid, p.min_bits, p.max_bits,
                    );
                    reference = Reference::from_parts(p);
                }
            }
            agrees(&sketch, &reference)?;
        }
    }
}
