//! The serving engine's event queue: a monotone-run / 4-ary-heap hybrid
//! that pops in exactly the total order the old `BinaryHeap<Reverse<_>>`
//! used, but is fast at depth.
//!
//! Keys are `(time_bits, class, seq)` packed into one `u128`
//! ([`EventKey`]), so every comparison is a single integer compare
//! instead of a three-field lexicographic one. Two structural ideas make
//! the queue cheap for DES workloads:
//!
//! * **Monotone run.** Discrete-event simulators push most events in
//!   nondecreasing key order (the one deadline timer at the FIFO queue
//!   head's `arrival + max_wait`, faults pre-sorted, completions from a
//!   monotone clock). A push whose key is ≥ the newest run entry
//!   appends to a `VecDeque` — O(1), cache linear, no sifting. This is
//!   the calendar-queue insight (events arrive roughly in time order)
//!   without its bucket-width tuning problem.
//! * **4-ary heap.** Out-of-order pushes go to a 4-ary implicit min-heap:
//!   half the tree depth of a binary heap, and the four children share a
//!   cache line of keys, so deep queues cost fewer, cheaper levels.
//!
//! `pop` takes the smaller of the run head and the heap root. Keys are
//! unique by construction (`seq` is an insertion counter), so the merge
//! order — and therefore the whole simulation — is total and
//! deterministic; `tests/queue_props.rs` proves pop order equals the old
//! `BinaryHeap` on random event streams, including same-timestamp ties.

use std::collections::VecDeque;

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

/// The hybrid event queue. `T` is the event payload.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Entries pushed in nondecreasing key order (invariant: keys are
    /// nondecreasing front → back).
    run: VecDeque<(EventKey, T)>,
    /// Out-of-order entries, as an implicit 4-ary min-heap.
    heap: Vec<(EventKey, T)>,
    /// High-water mark of `len()`, for bounded-memory accounting.
    peak_len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue {
            run: VecDeque::new(),
            heap: Vec::new(),
            peak_len: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue::default()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// The deepest the queue has been — the number to bound when
    /// proving O(1) memory at 10⁶⁺ requests.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Inserts an event. O(1) when keys arrive in nondecreasing order,
    /// O(log₄ n) otherwise.
    pub fn push(&mut self, key: EventKey, item: T) {
        let _prof = albireo_obs::profile::scope("runtime.queue.push");
        if self.run.back().is_none_or(|(back, _)| key >= *back) {
            self.run.push_back((key, item));
        } else {
            self.heap.push((key, item));
            self.sift_up(self.heap.len() - 1);
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// The smallest pending key, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        match (self.run.front(), self.heap.first()) {
            (Some((r, _)), Some((h, _))) => Some(*r.min(h)),
            (Some((r, _)), None) => Some(*r),
            (None, Some((h, _))) => Some(*h),
            (None, None) => None,
        }
    }

    /// Removes and returns the smallest-keyed event.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        let _prof = albireo_obs::profile::scope("runtime.queue.pop");
        let from_run = match (self.run.front(), self.heap.first()) {
            (Some((r, _)), Some((h, _))) => r < h,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if from_run {
            self.run.pop_front()
        } else {
            self.pop_heap()
        }
    }

    fn pop_heap(&mut self) -> Option<(EventKey, T)> {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let out = self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        out
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[i].0 < self.heap[parent].0 {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first_child = 4 * i + 1;
            if first_child >= self.heap.len() {
                return;
            }
            let mut smallest = i;
            for c in first_child..(first_child + 4).min(self.heap.len()) {
                if self.heap[c].0 < self.heap[smallest].0 {
                    smallest = c;
                }
            }
            if smallest == i {
                return;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn monotone_pushes_stay_in_the_run() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(key(i as f64, 2, i), i);
        }
        assert_eq!(q.heap.len(), 0, "sorted stream must not touch the heap");
        for i in 0..100u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_streams_merge_in_key_order() {
        let mut q = EventQueue::new();
        // Monotone arrivals interleaved with out-of-order completions.
        for (seq, (t, class)) in [
            (0.1, 2u8),
            (0.2, 2),
            (0.15, 1), // out of order: heap
            (0.3, 2),
            (0.05, 0), // far out of order: heap
            (0.3, 1),  // same time as an arrival, lower class
        ]
        .into_iter()
        .enumerate()
        {
            q.push(key(t, class, seq as u64), (t, class));
        }
        let mut popped = Vec::new();
        while let Some((k, _)) = q.pop() {
            popped.push((k.time_s(), k.class()));
        }
        assert_eq!(
            popped,
            vec![(0.05, 0), (0.1, 2), (0.15, 1), (0.2, 2), (0.3, 1), (0.3, 2)]
        );
    }

    #[test]
    fn peak_len_tracks_the_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(key(i as f64, 0, i), ());
        }
        for _ in 0..10 {
            q.pop();
        }
        assert_eq!(q.peak_len(), 10);
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
    }
}
