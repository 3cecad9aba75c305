//! The engine's deterministic discrete-event queue.
//!
//! The simulator advances by popping the earliest pending event. Ties are
//! broken by insertion order (FIFO), which keeps runs bit-reproducible no
//! matter how the heap happens to reorganize internally.
//!
//! [`HybridQueue`] is the engine's hot-loop queue: a fixed set of
//! *periodic slots* (one armed firing each, O(1) to arm and pop) merged
//! against a small heap of irregular events. Both halves draw sequence
//! numbers from one shared counter, so the merged pop order — including
//! FIFO tie order — is exactly what a single time-ordered heap holding the
//! same schedule would produce (the plain heap reference lives with the
//! tests that check this).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the queue: a payload scheduled at an instant.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest
        // sequence number) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// What a [`HybridQueue::pop`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped<E> {
    /// The periodic stream armed at this slot index fired.
    Periodic(usize),
    /// An irregular event scheduled through [`HybridQueue::schedule`].
    Irregular(E),
}

/// A two-tier event queue for loops dominated by a few periodic streams.
///
/// `N` slots each hold at most one armed firing of a periodic stream —
/// arming and popping a slot is O(1) array work, no heap traffic — while
/// irregular events go through an ordinary binary heap. A single sequence
/// counter spans both tiers, so interleaving [`HybridQueue::arm`] and
/// [`HybridQueue::schedule`] calls produces exactly the pop order (times,
/// then FIFO ties) of a single time-ordered heap receiving the same
/// `schedule` calls in the same order.
///
/// # Examples
///
/// ```
/// use fingrav_sim::event::{HybridQueue, Popped};
/// use fingrav_sim::time::SimTime;
///
/// let mut q: HybridQueue<&str, 2> = HybridQueue::new();
/// q.arm(0, SimTime::from_nanos(20));
/// q.schedule(SimTime::from_nanos(10), "irregular");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), Popped::Irregular("irregular"))));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), Popped::Periodic(0))));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct HybridQueue<E, const N: usize> {
    /// One pending firing per periodic slot: `(time, seq)`.
    slots: [Option<(SimTime, u64)>; N],
    armed: usize,
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    high_water: usize,
}

impl<E, const N: usize> HybridQueue<E, N> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HybridQueue {
            slots: [None; N],
            armed: 0,
            heap: BinaryHeap::new(),
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Arms periodic slot `slot` to fire at `at`, consuming the next
    /// sequence number exactly as a [`HybridQueue::schedule`] call would.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= N`. Debug-asserts the slot is not already armed
    /// (a periodic stream has at most one pending firing).
    pub fn arm(&mut self, slot: usize, at: SimTime) {
        debug_assert!(self.slots[slot].is_none(), "slot {slot} already armed");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots[slot] = Some((at, seq));
        self.armed += 1;
        self.high_water = self.high_water.max(self.len());
    }

    /// Schedules an irregular `payload` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
        self.high_water = self.high_water.max(self.len());
    }

    /// Removes and returns the earliest pending entry — minimal `(time,
    /// seq)` across both tiers — if any.
    pub fn pop(&mut self) -> Option<(SimTime, Popped<E>)> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some((at, seq)) = *slot {
                if best.is_none_or(|(bt, bs, _)| (at, seq) < (bt, bs)) {
                    best = Some((at, seq, i));
                }
            }
        }
        match (best, self.heap.peek()) {
            (Some((at, seq, _)), Some(h)) if (h.at, h.seq) < (at, seq) => {
                let s = self.heap.pop().expect("peeked entry");
                Some((s.at, Popped::Irregular(s.payload)))
            }
            (Some((at, _, i)), _) => {
                self.slots[i] = None;
                self.armed -= 1;
                Some((at, Popped::Periodic(i)))
            }
            (None, Some(_)) => {
                let s = self.heap.pop().expect("peeked entry");
                Some((s.at, Popped::Irregular(s.payload)))
            }
            (None, None) => None,
        }
    }

    /// The time of the earliest pending entry.
    pub fn peek_time(&self) -> Option<SimTime> {
        let slot_min = self.slots.iter().flatten().map(|&(at, _)| at).min();
        match (slot_min, self.heap.peek().map(|s| s.at)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending entries (armed slots plus heap events).
    pub fn len(&self) -> usize {
        self.armed + self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most entries ever pending at once since construction (survives
    /// [`HybridQueue::clear`], like the sequence counter).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Drops every pending entry. The sequence counter keeps counting, so
    /// FIFO order stays well-defined across clears.
    pub fn clear(&mut self) {
        self.slots = [None; N];
        self.armed = 0;
        self.heap.clear();
    }
}

impl<E, const N: usize> Default for HybridQueue<E, N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_pops_slots_and_heap_in_time_order() {
        let mut q: HybridQueue<&str, 3> = HybridQueue::new();
        q.arm(1, SimTime::from_nanos(30));
        q.arm(0, SimTime::from_nanos(10));
        q.schedule(SimTime::from_nanos(20), "mid");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(
            q.pop(),
            Some((SimTime::from_nanos(10), Popped::Periodic(0)))
        );
        assert_eq!(
            q.pop(),
            Some((SimTime::from_nanos(20), Popped::Irregular("mid")))
        );
        assert_eq!(
            q.pop(),
            Some((SimTime::from_nanos(30), Popped::Periodic(1)))
        );
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn hybrid_ties_break_by_shared_sequence_counter() {
        // At the same instant, whoever was armed/scheduled first pops
        // first — across tiers, exactly like one time-ordered heap.
        let t = SimTime::from_nanos(100);
        let mut q: HybridQueue<u32, 2> = HybridQueue::new();
        q.arm(1, t); // seq 0
        q.schedule(t, 7); // seq 1
        q.arm(0, t); // seq 2
        q.schedule(t, 8); // seq 3
        assert_eq!(q.pop(), Some((t, Popped::Periodic(1))));
        assert_eq!(q.pop(), Some((t, Popped::Irregular(7))));
        assert_eq!(q.pop(), Some((t, Popped::Periodic(0))));
        assert_eq!(q.pop(), Some((t, Popped::Irregular(8))));
    }

    #[test]
    fn hybrid_clear_keeps_the_sequence_counter() {
        let t = SimTime::from_nanos(5);
        let mut q: HybridQueue<u32, 1> = HybridQueue::new();
        q.arm(0, t);
        q.schedule(t, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // Post-clear arms keep drawing later sequence numbers: an event
        // scheduled before the clear in a reference queue would still win
        // the tie, which is what the engine's cross-script FIFO relies on.
        q.schedule(t, 2); // seq 2
        q.arm(0, t); // seq 3
        assert_eq!(q.pop(), Some((t, Popped::Irregular(2))));
        assert_eq!(q.pop(), Some((t, Popped::Periodic(0))));
    }
}
