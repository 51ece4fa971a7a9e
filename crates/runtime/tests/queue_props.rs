//! Property tests pinning the packed event key to the order the serving
//! engine's event heap relies on: the `u128` packing round-trips its
//! three fields, and comparing packed keys equals comparing the
//! `(time, class, seq)` triples lexicographically.

use albireo_runtime::EventKey;
use proptest::prelude::*;

proptest! {
    /// Keys round-trip their three fields through the u128 packing for
    /// every representable (time, class, seq) triple the engine can emit.
    #[test]
    fn key_packing_round_trips(
        t in 0.0f64..1e12,
        class in 0u8..=255,
        seq in 0u64..(1 << 56),
    ) {
        let k = EventKey::new(t.to_bits(), class, seq);
        prop_assert_eq!(k.time_bits(), t.to_bits());
        prop_assert_eq!(k.time_s(), t);
        prop_assert_eq!(k.class(), class);
        prop_assert_eq!(k.seq(), seq);
    }

    /// Packed-key comparison equals lexicographic comparison of the
    /// unpacked triples — the property the whole total order rests on.
    #[test]
    fn key_order_is_lexicographic(
        a in (0.0f64..100.0, 0u8..4, 0u64..1000),
        b in (0.0f64..100.0, 0u8..4, 0u64..1000),
    ) {
        let ka = EventKey::new(a.0.to_bits(), a.1, a.2);
        let kb = EventKey::new(b.0.to_bits(), b.1, b.2);
        let ta = (a.0.to_bits(), a.1, a.2);
        let tb = (b.0.to_bits(), b.1, b.2);
        prop_assert_eq!(ka.cmp(&kb), ta.cmp(&tb));
    }
}
