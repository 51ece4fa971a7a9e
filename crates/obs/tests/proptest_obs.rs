//! Property tests for the observability invariants everything downstream
//! leans on: the span layer must hand every consumer a balanced,
//! time-ordered event stream no matter how events were interleaved when
//! recorded, and whatever the JSON writer renders, the JSON reader reads
//! back. The quantile sketch's merge laws live in `proptest_sketch.rs`.

use albireo_obs::json::{num, Doc, Fixed, Obj, Sci};
use albireo_obs::jsonv::{parse, Value};
use albireo_obs::span::Phase;
use albireo_obs::Obs;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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
}
