//! Streaming quantile sketches: O(1)-memory percentiles with exact,
//! order-independent merge.
//!
//! [`QuantileSketch`] is a log-linear bucket sketch (the HDR-histogram
//! layout): every positive finite sample is binned by its binary
//! exponent plus the top [`SUBBUCKET_BITS`] mantissa bits, read straight
//! from the IEEE-754 bit pattern — no float arithmetic, no rounding, no
//! platform dependence. With 5 mantissa bits each octave splits into 32
//! sub-buckets, so adjacent bucket boundaries are at most a factor of
//! 33/32 apart and any quantile estimate (the geometric midpoint of the
//! bucket holding the target rank, clamped to the observed `[min, max]`)
//! is within [`RELATIVE_ERROR_BOUND`] ≈ 1.6 % of the exact nearest-rank
//! value — at *any* stream length, for *any* distribution.
//!
//! The state is one contiguous array of bucket counts over the occupied
//! bucket-index window `[lowest, highest]` plus exact `zeros`/`invalid`/
//! `min`/`max`, so the sketch obeys the same **exact abelian monoid**
//! discipline as [`crate::metrics::HistogramData`]: counts add, extrema
//! take extrema, nothing is re-binned. Both ends of the window hold a
//! nonzero count, so equal states have equal arrays and `Eq` is the
//! derived field-wise comparison. Merge is associative and
//! commutative by construction, the identity is the empty sketch, and
//! two states built from the same multiset of samples are `Eq` — hence
//! digest-stable — no matter how the samples were sharded or in which
//! order the shards were merged (property-tested in
//! `tests/proptest_sketch.rs`).
//!
//! Memory is bounded by the bucket space, not the stream: the window is
//! at most [`MAX_BUCKETS`] (4096) counts wide over the full positive
//! `f64` range, and a real latency distribution spanning six decades
//! spans a few hundred. A `Vec<f64>` of 10⁷ latency samples costs
//! 80 MB and O(n log n) to sort; the sketch costs a few KB and O(1)
//! per observation — one bounds check and one increment, except when a
//! sample lands outside the window and widens it (at most once per
//! bucket over the sketch's life).

use crate::json::{Obj, Sci, ToJson};

/// Mantissa bits used for sub-bucketing (32 sub-buckets per octave).
pub const SUBBUCKET_BITS: u32 = 5;

/// Sub-buckets per binary order of magnitude.
pub const SUBBUCKETS: u64 = 1 << SUBBUCKET_BITS;

/// Smallest binary exponent with its own octave; values below
/// `2^MIN_EXP` clamp into bucket 0. Matches the metrics histogram range.
pub const MIN_EXP: i32 = -64;

/// Octaves covered (exponents `MIN_EXP ..= MIN_EXP + OCTAVES - 1`).
pub const OCTAVES: i32 = 128;

/// Total bucket space: 128 octaves × 32 sub-buckets.
pub const MAX_BUCKETS: usize = (OCTAVES as usize) * (SUBBUCKETS as usize);

/// Guaranteed bound on the relative error of [`QuantileSketch::quantile`]
/// versus the exact nearest-rank quantile of the observed samples:
/// `sqrt(33/32) - 1` ≈ 0.0155. The estimate is the geometric midpoint of
/// a bucket whose boundary ratio is at most `33/32`, and the exact value
/// lies in the same bucket.
pub const RELATIVE_ERROR_BOUND: f64 = 0.015_505; // sqrt(33/32) - 1, rounded up

/// The bucket a positive finite value lands in: binary exponent (clamped
/// to the sketch range) concatenated with the top mantissa bits.
/// Subnormals clamp into bucket 0.
pub fn bucket_index(v: f64) -> u16 {
    debug_assert!(v > 0.0 && v.is_finite());
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7FF) as i32;
    if biased == 0 {
        return 0; // subnormal: below 2^-1022, far under 2^MIN_EXP
    }
    let exp = biased - 1023;
    if exp < MIN_EXP {
        return 0;
    }
    if exp >= MIN_EXP + OCTAVES {
        return (MAX_BUCKETS - 1) as u16;
    }
    let sub = (bits >> (52 - SUBBUCKET_BITS)) & (SUBBUCKETS - 1);
    (((exp - MIN_EXP) as u64 * SUBBUCKETS) + sub) as u16
}

/// The half-open value range `[lo, hi)` bucket `i` covers.
pub fn bucket_bounds(i: u16) -> (f64, f64) {
    assert!((i as usize) < MAX_BUCKETS, "bucket index out of range");
    let exp = MIN_EXP + (i as i32) / (SUBBUCKETS as i32);
    let sub = (i as u64) % SUBBUCKETS;
    let base = (2.0f64).powi(exp);
    let lo = base * (1.0 + sub as f64 / SUBBUCKETS as f64);
    let hi = base * (1.0 + (sub + 1) as f64 / SUBBUCKETS as f64);
    (lo, hi)
}

/// A mergeable streaming quantile sketch of non-negative samples.
///
/// Zeros are counted exactly in their own slot; negative and non-finite
/// samples are rejected into `invalid` (mirroring
/// [`crate::metrics::Histogram`]), so the bucketed population is exactly
/// the positive finite one and quantiles are taken over the valid
/// (zero + positive) population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Counts of buckets `lowest .. lowest + counts.len()`; empty when no
    /// positive sample was seen, otherwise nonzero at both ends.
    counts: Vec<u64>,
    /// Bucket index of `counts[0]` (0 when `counts` is empty).
    lowest: u16,
    zeros: u64,
    invalid: u64,
    /// Min over valid samples as bits (`u64::MAX` = empty); bit order
    /// equals numeric order for non-negative floats.
    min_bits: u64,
    /// Max over valid samples as bits (0 when empty).
    max_bits: u64,
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch {
            counts: Vec::new(),
            lowest: 0,
            zeros: 0,
            invalid: 0,
            min_bits: u64::MAX,
            max_bits: 0,
        }
    }
}

impl QuantileSketch {
    /// The empty sketch (the monoid identity).
    pub fn new() -> QuantileSketch {
        QuantileSketch::default()
    }

    /// Records one sample. O(1): a bounds check and an increment, plus a
    /// window widening the first time a bucket outside it is hit.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            self.invalid += 1;
            return;
        }
        if v == 0.0 {
            self.zeros += 1;
        } else {
            let idx = bucket_index(v);
            let offset = (idx as usize).wrapping_sub(self.lowest as usize);
            match self.counts.get_mut(offset) {
                Some(c) => *c += 1,
                None => *self.widen_to(idx) += 1,
            }
        }
        let bits = v.to_bits();
        self.min_bits = self.min_bits.min(bits);
        self.max_bits = self.max_bits.max(bits);
    }

    /// Widens the window to cover bucket `idx` (new slots count zero)
    /// and returns that bucket's slot.
    fn widen_to(&mut self, idx: u16) -> &mut u64 {
        if self.counts.is_empty() {
            self.lowest = idx;
            self.counts.push(0);
        } else if idx < self.lowest {
            let grow = (self.lowest - idx) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.lowest = idx;
        } else {
            let len = (idx - self.lowest) as usize + 1;
            if len > self.counts.len() {
                self.counts.resize(len, 0);
            }
        }
        &mut self.counts[(idx - self.lowest) as usize]
    }

    /// `(bucket index, count)` of every occupied bucket, ascending.
    fn occupied(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.lowest + i as u16, c))
    }

    /// Valid (non-negative finite) samples recorded.
    pub fn count(&self) -> u64 {
        self.zeros + self.counts.iter().sum::<u64>()
    }

    /// Samples exactly zero.
    pub fn zeros(&self) -> u64 {
        self.zeros
    }

    /// Rejected samples (negative or non-finite).
    pub fn invalid(&self) -> u64 {
        self.invalid
    }

    /// Minimum valid sample, if any (exact).
    pub fn min(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.min_bits))
    }

    /// Maximum valid sample, if any (exact).
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.max_bits))
    }

    /// Occupied buckets — the sketch's resident size, bounded by
    /// [`MAX_BUCKETS`] regardless of stream length.
    pub fn occupied_buckets(&self) -> usize {
        self.occupied().count()
    }

    /// The nearest-rank `q`-quantile estimate (`q ∈ [0, 1]`), within
    /// [`RELATIVE_ERROR_BOUND`] of the exact nearest-rank value.
    ///
    /// Edge cases are exact: an empty sketch returns 0.0, a rank inside
    /// the zero population returns 0.0, and clamping to the observed
    /// `[min, max]` makes single-sample (and single-bucket-extremum)
    /// quantiles exact rather than interpolated.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
        if rank <= self.zeros {
            return 0.0;
        }
        let mut cum = self.zeros;
        for (idx, c) in self.occupied() {
            cum += c;
            if cum >= rank {
                let (lo, hi) = bucket_bounds(idx);
                let mid = (lo * hi).sqrt();
                let min = f64::from_bits(self.min_bits);
                let max = f64::from_bits(self.max_bits);
                return mid.clamp(min, max);
            }
        }
        // Unreachable: cum == count >= rank by the clamp above.
        f64::from_bits(self.max_bits)
    }

    /// Exact merge: bucket counts add, extrema take extrema.
    /// Associative and commutative because every term is; the empty
    /// sketch is the identity.
    pub fn merge(&self, other: &QuantileSketch) -> QuantileSketch {
        let mut out = self.clone();
        out.merge_from(other);
        out
    }

    /// In-place [`QuantileSketch::merge`].
    pub fn merge_from(&mut self, other: &QuantileSketch) {
        if let Some(span) = other.counts.len().checked_sub(1) {
            // Widen to cover both windows, then add slot by slot.
            self.widen_to(other.lowest);
            self.widen_to(other.lowest + span as u16);
            let at = (other.lowest - self.lowest) as usize;
            for (mine, &theirs) in self.counts[at..].iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        }
        self.zeros += other.zeros;
        self.invalid += other.invalid;
        self.min_bits = self.min_bits.min(other.min_bits);
        self.max_bits = self.max_bits.max(other.max_bits);
    }

    /// `(bucket index, count)` for every occupied bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u16, u64)> {
        self.occupied().collect()
    }

    /// Min over valid samples as IEEE-754 bits (`u64::MAX` = empty).
    /// Together with [`QuantileSketch::from_parts`] this exposes the
    /// sketch's exact state for snapshot serialization.
    pub fn min_bits(&self) -> u64 {
        self.min_bits
    }

    /// Max over valid samples as IEEE-754 bits (0 when empty).
    pub fn max_bits(&self) -> u64 {
        self.max_bits
    }

    /// Rebuilds a sketch from previously captured state — the exact
    /// inverse of reading [`QuantileSketch::nonzero_buckets`], `zeros`,
    /// `invalid`, [`min_bits`](QuantileSketch::min_bits), and
    /// [`max_bits`](QuantileSketch::max_bits). A sketch round-tripped
    /// through its parts is `Eq` to the original, so quantiles, digests,
    /// and merges continue byte-identically. Zero counts are skipped, and
    /// a repeated index keeps its last count.
    pub fn from_parts(
        buckets: &[(u16, u64)],
        zeros: u64,
        invalid: u64,
        min_bits: u64,
        max_bits: u64,
    ) -> QuantileSketch {
        let mut sketch = QuantileSketch {
            zeros,
            invalid,
            min_bits,
            max_bits,
            ..QuantileSketch::default()
        };
        for &(idx, c) in buckets {
            assert!((idx as usize) < MAX_BUCKETS, "bucket index out of range");
            if c > 0 {
                *sketch.widen_to(idx) = c;
            }
        }
        sketch
    }

    /// Order-sensitive digest over the canonical (name-ordered) state,
    /// with the workspace fold convention. Two sketches digest equal iff
    /// they hold the same state — regardless of observation sharding or
    /// merge order.
    pub fn digest(&self) -> u64 {
        let mut d = 0x5CE7_C4A1u64;
        d = crate::fold(d, self.zeros);
        d = crate::fold(d, self.invalid);
        d = crate::fold(d, self.min_bits);
        d = crate::fold(d, self.max_bits);
        for (idx, c) in self.occupied() {
            d = crate::fold(d, idx as u64);
            d = crate::fold(d, c);
        }
        d
    }

    /// One-line JSON fragment (an object, no trailing newline) used by
    /// [`crate::MetricsSnapshot::to_json`].
    pub fn to_json_fragment(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl ToJson for QuantileSketch {
    fn write_json(&self, out: &mut String) {
        Obj::new()
            .field("count", self.count())
            .field("zeros", self.zeros)
            .field("invalid", self.invalid)
            .field("min", Sci(self.min().unwrap_or(0.0)))
            .field("max", Sci(self.max().unwrap_or(0.0)))
            .field("p50", Sci(self.quantile(0.50)))
            .field("p95", Sci(self.quantile(0.95)))
            .field("p99", Sci(self.quantile(0.99)))
            .field("p999", Sci(self.quantile(0.999)))
            .field("buckets", self.nonzero_buckets())
            .write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_nearest_rank(sorted: &[f64], q: f64) -> f64 {
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn bucket_layout_is_log_linear() {
        // 1.0 = 2^0 × (1 + 0/32) → octave 64, sub-bucket 0.
        assert_eq!(bucket_index(1.0), 64 * SUBBUCKETS as u16);
        // Within one octave the sub-bucket advances with the mantissa.
        assert_eq!(bucket_index(1.0 + 1.0 / 32.0), 64 * SUBBUCKETS as u16 + 1);
        assert!(bucket_index(1.999) > bucket_index(1.001));
        assert_eq!(bucket_index(2.0), 65 * SUBBUCKETS as u16);
        // Bounds invert the index.
        for v in [1e-9, 0.37, 1.0, 1.5, 42.0, 9.9e11] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
            assert!(hi / lo <= 33.0 / 32.0 + 1e-12);
        }
        // Extremes clamp instead of overflowing.
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 2.0), 0);
        assert_eq!(bucket_index(f64::MAX), (MAX_BUCKETS - 1) as u16);
    }

    #[test]
    fn empty_sketch_is_all_zero() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.occupied_buckets(), 0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut s = QuantileSketch::new();
        s.observe(3.7);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile(q), 3.7, "q={q}");
        }
    }

    #[test]
    fn quantiles_meet_the_relative_error_bound() {
        let mut s = QuantileSketch::new();
        let mut samples: Vec<f64> = (0..5000)
            .map(|i| 1e-4 * (1.0031f64).powi(i % 2500) + i as f64 * 1e-9)
            .collect();
        for &v in &samples {
            s.observe(v);
        }
        samples.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let exact = exact_nearest_rank(&samples, q);
            let est = s.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= RELATIVE_ERROR_BOUND,
                "q={q}: {est} vs {exact} ({rel})"
            );
        }
    }

    #[test]
    fn zeros_and_invalid_are_segregated() {
        let mut s = QuantileSketch::new();
        for v in [0.0, 0.0, 5.0, f64::NAN, -1.0, f64::INFINITY] {
            s.observe(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.zeros(), 2);
        assert_eq!(s.invalid(), 3);
        assert_eq!(s.quantile(0.5), 0.0); // rank 2 of 3 lands in the zeros
        assert_eq!(s.quantile(1.0), 5.0);
    }

    #[test]
    fn merge_equals_union_and_commutes() {
        let (mut a, mut b, mut all) = (
            QuantileSketch::new(),
            QuantileSketch::new(),
            QuantileSketch::new(),
        );
        for (i, v) in [1e-9, 0.25, 7.0, 1e12, 0.0, 3.3].iter().enumerate() {
            if i % 2 == 0 {
                a.observe(*v);
            } else {
                b.observe(*v);
            }
            all.observe(*v);
        }
        assert_eq!(a.merge(&b), all);
        assert_eq!(b.merge(&a), all);
        assert_eq!(a.merge(&b).digest(), all.digest());
        assert_eq!(a.merge(&QuantileSketch::new()), a);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut s = QuantileSketch::new();
        for i in 0..1000 {
            s.observe(0.1 + (i as f64) * 0.013);
        }
        let qs: Vec<f64> = [0.1, 0.5, 0.9, 0.99, 0.999]
            .iter()
            .map(|&q| s.quantile(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let mut s = QuantileSketch::new();
        for v in [0.0, 1e-9, 0.25, 7.0, 1e12, f64::NAN, -3.0] {
            s.observe(v);
        }
        let rebuilt = QuantileSketch::from_parts(
            &s.nonzero_buckets(),
            s.zeros(),
            s.invalid(),
            s.min_bits(),
            s.max_bits(),
        );
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.digest(), s.digest());
        assert_eq!(rebuilt.quantile(0.99), s.quantile(0.99));
        // The empty sketch round-trips to the identity.
        let empty = QuantileSketch::new();
        assert_eq!(QuantileSketch::from_parts(&[], 0, 0, u64::MAX, 0), empty);
    }

    #[test]
    fn json_fragment_is_balanced_and_carries_percentiles() {
        let mut s = QuantileSketch::new();
        s.observe(1.5);
        s.observe(2.5);
        let j = s.to_json_fragment();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"p99\""));
        assert!(j.contains("\"count\": 2"));
    }
}
