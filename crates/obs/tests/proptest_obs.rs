//! Property tests for the observability invariants everything downstream
//! leans on: histogram merge must behave like an exact abelian monoid
//! (so parallel workers can combine shards in any grouping and order),
//! the span layer must hand every consumer a balanced, time-ordered
//! event stream no matter how events were interleaved when recorded,
//! and whatever the JSON writer renders, the JSON reader reads back.

use albireo_obs::json::{num, Doc, Fixed, Obj, Sci};
use albireo_obs::jsonv::{parse, Value};
use albireo_obs::metrics::{bucket_index, bucket_lower_bound, Histogram, HistogramData};
use albireo_obs::span::Phase;
use albireo_obs::Obs;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Builds a histogram data block from raw samples (including zeros,
/// negatives, and non-finite values — `observe` must sort them itself).
fn observed(samples: &[f64]) -> HistogramData {
    let h = Histogram::default();
    for &s in samples {
        h.observe(s);
    }
    h.data()
}

/// Arbitrary sample sets: finite magnitudes across the full bucket range
/// plus the special cases (zero, subnormals, negatives, NaN, infinity).
fn samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            8 => 1e-18f64..1e18,
            1 => Just(0.0f64),
            1 => -1e9f64..0.0,
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
            1 => (1u64..(1u64 << 52)).prop_map(f64::from_bits),
        ],
        0..64,
    )
}

/// Arbitrary Unicode: controls, quotes, backslashes, printable ASCII,
/// the rest of the BMP around the surrogate gap, and astral characters.
fn text() -> impl Strategy<Value = String> {
    let code = |r: std::ops::Range<u32>| r.prop_map(|c| char::from_u32(c).expect("scalar value"));
    prop::collection::vec(
        prop_oneof![
            2 => code(0..0x20),
            1 => Just('"'),
            1 => Just('\\'),
            4 => code(0x20..0x7f),
            1 => code(0x7f..0xd800),
            1 => code(0xe000..0x1_0000),
            1 => code(0x1_0000..0x11_0000),
        ],
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Arbitrary `f64`: any bit pattern, plus the values that need care.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => (0..=u64::MAX).prop_map(f64::from_bits),
        2 => -1e6f64..1e6,
        1 => (1u64..(1u64 << 52)).prop_map(f64::from_bits),
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

/// One document exercising every writer shape: escaped keys and string
/// values, nested `Doc`s, one-line `Obj` rows, and every float format.
fn document(entries: &[(String, String, f64)]) -> String {
    let rows = entries.iter().map(|(k, v, x)| {
        Obj::new()
            .field("key", k)
            .field("value", v)
            .field("fixed", num(*x))
            .field("fixed9", Fixed(*x, 9))
            .field("sci", Sci(*x))
            .field("opt", (!x.is_nan()).then_some(Sci(*x)))
    });
    Doc::new()
        .field("schema", "albireo.prop/v1")
        .doc("outer", |d| {
            d.doc("strings", |d| {
                entries
                    .iter()
                    .enumerate()
                    .fold(d, |d, (i, (k, v, _))| d.field(&format!("{i}{k}"), v))
            })
            .rows("rows", rows)
        })
        .field(
            "floats",
            entries.iter().map(|e| Sci(e.2)).collect::<Vec<_>>(),
        )
        .finish()
}

/// Whether a float read back as the writer meant it: `null` exactly
/// when non-finite, and otherwise a number.
fn number_matches(v: &Value, x: f64) -> bool {
    match v {
        Value::Null => !x.is_finite(),
        Value::Num(_) => x.is_finite(),
        _ => false,
    }
}

proptest! {
    /// Writer output is ASCII and reads back through `jsonv`: strings
    /// (keys included) round-trip exactly, non-finite floats are
    /// `null`, scientific floats keep their six-decimal mantissa. Cut
    /// or corrupted output makes `parse` return, never panic.
    #[test]
    fn writer_output_reads_back(
        entries in prop::collection::vec((text(), text(), float()), 0..6),
        cuts in prop::collection::vec(0.0f64..1.0, 4),
        flips in prop::collection::vec((0.0f64..1.0, 0u8..0x80), 4),
    ) {
        let out = document(&entries);
        prop_assert!(out.is_ascii(), "{}", out);
        let doc = parse(&out).map_err(|e| TestCaseError::fail(format!("{e}: {out}")))?;
        let outer = doc.get("outer").expect("outer");
        let strings = outer.get("strings").and_then(Value::as_obj).expect("strings");
        let rows = outer.get("rows").and_then(Value::as_arr).expect("rows");
        let floats = doc.get("floats").and_then(Value::as_arr).expect("floats");
        prop_assert_eq!(strings.len(), entries.len());
        prop_assert_eq!(rows.len(), entries.len());
        for (i, (k, v, x)) in entries.iter().enumerate() {
            prop_assert_eq!(&strings[i].0, &format!("{i}{k}"));
            prop_assert_eq!(strings[i].1.as_str(), Some(v.as_str()));
            let row = &rows[i];
            prop_assert_eq!(row.get("key").and_then(Value::as_str), Some(k.as_str()));
            prop_assert_eq!(row.get("value").and_then(Value::as_str), Some(v.as_str()));
            for key in ["fixed", "fixed9", "sci", "opt"] {
                prop_assert!(number_matches(row.get(key).expect("float member"), *x), "{key}: {x}");
            }
            prop_assert!(number_matches(&floats[i], *x));
            if x.is_normal() {
                let back = floats[i].as_f64().expect("finite");
                prop_assert!(((back - x) / x).abs() <= 1e-6, "{x} read back as {back}");
            }
        }
        for cut in cuts {
            let _ = parse(&out[..(cut * out.len() as f64) as usize]);
        }
        for (at, byte) in flips {
            let mut bytes = out.clone().into_bytes();
            let i = (at * bytes.len() as f64) as usize;
            bytes[i] = byte;
            let flipped = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            let _ = parse(&flipped);
        }
    }

    /// Merging preserves the total count exactly: every observation lands
    /// in exactly one of buckets / zeros / invalid, and merge adds them.
    #[test]
    fn merge_preserves_counts(a in samples(), b in samples()) {
        let (da, db) = (observed(&a), observed(&b));
        let merged = da.merge(&db);
        prop_assert_eq!(merged.count(), da.count() + db.count());
        prop_assert_eq!(merged.zeros, da.zeros + db.zeros);
        prop_assert_eq!(merged.invalid, da.invalid + db.invalid);
        // Valid = finite and non-negative (zeros count; negatives and
        // non-finite land in `invalid`).
        let valid = |v: &&f64| v.is_finite() && **v >= 0.0;
        let expected: u64 =
            a.iter().filter(valid).count() as u64 + b.iter().filter(valid).count() as u64;
        prop_assert_eq!(merged.count(), expected);
        let invalid_expected =
            (a.len() as u64 - a.iter().filter(valid).count() as u64)
                + (b.len() as u64 - b.iter().filter(valid).count() as u64);
        prop_assert_eq!(merged.invalid, invalid_expected);
    }

    /// Merge is commutative: shard order must not matter.
    #[test]
    fn merge_is_commutative(a in samples(), b in samples()) {
        let (da, db) = (observed(&a), observed(&b));
        prop_assert_eq!(da.merge(&db), db.merge(&da));
    }

    /// Merge is associative: the reduction tree shape must not matter.
    #[test]
    fn merge_is_associative(a in samples(), b in samples(), c in samples()) {
        let (da, db, dc) = (observed(&a), observed(&b), observed(&c));
        prop_assert_eq!(da.merge(&db).merge(&dc), da.merge(&db.merge(&dc)));
    }

    /// The empty histogram is the identity element.
    #[test]
    fn empty_is_identity(a in samples()) {
        let da = observed(&a);
        let empty = HistogramData::default();
        prop_assert_eq!(da.merge(&empty), da.clone());
        prop_assert_eq!(empty.merge(&da), da);
    }

    /// Merged extrema equal the extrema of the union of samples.
    #[test]
    fn merge_tracks_extrema(a in samples(), b in samples()) {
        let merged = observed(&a).merge(&observed(&b));
        let valid: Vec<f64> = a.iter().chain(&b).copied()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .collect();
        match (merged.min(), merged.max()) {
            (Some(lo), Some(hi)) => {
                let want_lo = valid.iter().copied().fold(f64::INFINITY, f64::min);
                let want_hi = valid.iter().copied().fold(0.0f64, f64::max);
                prop_assert_eq!(lo, want_lo);
                prop_assert_eq!(hi, want_hi);
            }
            _ => prop_assert!(valid.is_empty()),
        }
    }

    /// Bucket boundaries are monotonically increasing, and every sample
    /// lands in a bucket whose range actually contains it (away from the
    /// clamped ends of the exponent range).
    #[test]
    fn buckets_are_monotone_and_contain_their_samples(v in 1e-15f64..1e15) {
        let idx = bucket_index(v);
        let lo = bucket_lower_bound(idx);
        let hi = bucket_lower_bound(idx + 1);
        prop_assert!(hi > lo, "bucket bounds not increasing at {idx}");
        prop_assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi}) at bucket {idx}");
    }

    /// Spans drained from an Obs are balanced per track (every Begin has
    /// a matching later End) with non-decreasing virtual timestamps in
    /// the drained order, regardless of recording interleavings.
    /// Durations are strictly positive: at equal timestamps Ends sort
    /// before Begins (so back-to-back spans nest cleanly), which makes a
    /// zero-width span degenerate by design.
    #[test]
    fn spans_drain_balanced_and_time_ordered(
        spans in prop::collection::vec(
            (0u32..6, 0.0f64..100.0, 1e-6f64..10.0),
            0..40,
        ),
    ) {
        let obs = Obs::enabled();
        for &(track, begin, dur) in &spans {
            obs.record_span(track, begin, begin + dur, "work", Vec::new());
        }
        let events = obs.drain_events();
        prop_assert_eq!(events.len(), spans.len() * 2);
        let mut depth = std::collections::BTreeMap::new();
        let mut last_ts = f64::NEG_INFINITY;
        for ev in &events {
            prop_assert!(ev.ts_s >= last_ts, "timestamps went backwards");
            last_ts = ev.ts_s;
            let d = depth.entry(ev.track).or_insert(0i64);
            match ev.phase {
                Phase::Begin => *d += 1,
                Phase::End => {
                    *d -= 1;
                    prop_assert!(*d >= 0, "End before Begin on track {}", ev.track);
                }
                _ => {}
            }
        }
        for (track, d) in depth {
            prop_assert!(d == 0, "unbalanced spans on track {}", track);
        }
    }

    /// Subnormal observations are *valid* samples: they clamp into the
    /// bottom bucket (never `invalid`, never `zeros`) and set exact
    /// extrema, so a duration of a few femtoseconds cannot silently
    /// vanish from a histogram.
    #[test]
    fn subnormal_observations_land_in_the_bottom_bucket(
        bits in 1u64..(1u64 << 52),
    ) {
        let v = f64::from_bits(bits); // every such pattern is subnormal
        prop_assert!(v > 0.0 && !v.is_normal());
        let h = Histogram::default();
        h.observe(v);
        let d = h.data();
        prop_assert_eq!(d.count(), 1);
        prop_assert_eq!(d.zeros, 0);
        prop_assert_eq!(d.invalid, 0);
        prop_assert_eq!(bucket_index(v), 0);
        prop_assert_eq!(d.buckets[0], 1);
        prop_assert_eq!(d.min(), Some(v));
        prop_assert_eq!(d.max(), Some(v));
        prop_assert!(d.mean_estimate() > 0.0 && d.mean_estimate().is_finite());
    }

    /// Zero-duration observations count in `zeros` (not any bucket) and
    /// participate in extrema; negative durations land in `invalid` and
    /// must not poison count, extrema, or the mean estimate.
    #[test]
    fn zeros_and_negative_durations_stay_segregated(
        zeros in 0usize..5,
        negatives in prop::collection::vec(-1e12f64..0.0, 0..5),
        positives in prop::collection::vec(1e-9f64..1e9, 0..5),
    ) {
        let h = Histogram::default();
        for _ in 0..zeros {
            h.observe(0.0);
        }
        for &v in negatives.iter().chain(&positives) {
            h.observe(v);
        }
        let d = h.data();
        prop_assert_eq!(d.zeros, zeros as u64);
        prop_assert_eq!(d.invalid, negatives.len() as u64);
        prop_assert_eq!(d.count(), (zeros + positives.len()) as u64);
        prop_assert!(d.buckets.iter().sum::<u64>() == positives.len() as u64);
        if zeros > 0 {
            prop_assert_eq!(d.min(), Some(0.0));
        } else if let Some(min) = d.min() {
            // Negatives never become the minimum.
            prop_assert!(min > 0.0);
        }
        if let Some(max) = d.max() {
            prop_assert!(max >= 0.0);
        }
        let mean = d.mean_estimate();
        prop_assert!(mean.is_finite() && mean >= 0.0);
        // A histogram of only zeros and rejects reports a zero mean.
        if positives.is_empty() {
            prop_assert_eq!(mean, 0.0);
        }
    }
}
