//! The serving engine's event order: a packed key and the entry type of
//! the engine's pending-event heap.
//!
//! Keys are `(time_bits, class, seq)` packed into one `u128`
//! ([`EventKey`]), so every comparison is a single integer compare
//! instead of a three-field lexicographic one. The engine keeps its
//! pending events in a `std::collections::BinaryHeap` of `Pending`
//! entries, which order by key alone, earliest first. Keys are unique by
//! construction (`seq` is an insertion counter), so the pop order — and
//! therefore the whole simulation — is total and deterministic.

use std::cmp::Ordering;

/// A packed `(time_bits, class, seq)` event key. Total order =
/// lexicographic over the three fields; `seq` must stay below 2^56
/// (an insertion counter never gets close).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey(u128);

impl EventKey {
    /// Packs a key. `time_bits` must come from a non-negative finite
    /// `f64` (where bit order equals numeric order).
    pub fn new(time_bits: u64, class: u8, seq: u64) -> EventKey {
        debug_assert!(seq < 1 << 56, "sequence counter overflow");
        EventKey(((time_bits as u128) << 64) | ((class as u128) << 56) | seq as u128)
    }

    /// The event's `f64` timestamp bits.
    pub fn time_bits(&self) -> u64 {
        (self.0 >> 64) as u64
    }

    /// The event's timestamp in seconds (exact round-trip of the bits).
    pub fn time_s(&self) -> f64 {
        f64::from_bits(self.time_bits())
    }

    /// The tie-break class.
    pub fn class(&self) -> u8 {
        ((self.0 >> 56) & 0xFF) as u8
    }

    /// The insertion sequence number.
    pub fn seq(&self) -> u64 {
        (self.0 & ((1 << 56) - 1)) as u64
    }
}

/// A pending event in the engine's `BinaryHeap`. Entries compare by key
/// alone, reversed, so std's max-heap pops the smallest key first; the
/// payload `T` never decides.
#[derive(Debug)]
pub(crate) struct Pending<T> {
    pub(crate) key: EventKey,
    pub(crate) item: T,
}

impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Pending<T>) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Pending<T>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Pending<T>) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Pending<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn key(t: f64, class: u8, seq: u64) -> EventKey {
        EventKey::new(t.to_bits(), class, seq)
    }

    #[test]
    fn key_packs_and_unpacks() {
        let k = key(1.5, 3, 42);
        assert_eq!(k.time_s(), 1.5);
        assert_eq!(k.class(), 3);
        assert_eq!(k.seq(), 42);
    }

    #[test]
    fn key_order_is_lexicographic() {
        assert!(key(1.0, 3, 0) < key(2.0, 0, 0), "time dominates class");
        assert!(key(1.0, 0, 9) < key(1.0, 1, 0), "class dominates seq");
        assert!(key(1.0, 2, 3) < key(1.0, 2, 4), "seq breaks final ties");
    }

    #[test]
    fn interleaved_streams_merge_in_key_order() {
        let mut heap = BinaryHeap::new();
        // Monotone arrivals interleaved with out-of-order completions.
        // Each payload is the event's push rank from last to first, so an
        // order decided by the payload would pop them reversed.
        for (seq, (t, class)) in [
            (0.1, 2u8),
            (0.2, 2),
            (0.15, 1), // out of order
            (0.3, 2),
            (0.05, 0), // far out of order
            (0.3, 1),  // same time as an arrival, lower class
        ]
        .into_iter()
        .enumerate()
        {
            heap.push(Pending {
                key: key(t, class, seq as u64),
                item: 5 - seq,
            });
        }
        let mut popped = Vec::new();
        while let Some(Pending { key, .. }) = heap.pop() {
            popped.push((key.time_s(), key.class()));
        }
        assert_eq!(
            popped,
            vec![(0.05, 0), (0.1, 2), (0.15, 1), (0.2, 2), (0.3, 1), (0.3, 2)]
        );
    }
}
