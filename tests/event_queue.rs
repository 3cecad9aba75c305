//! The heap reference (`common::event_queue::EventQueue`) keeps its own
//! contract — time order, FIFO ties — and the engine's `HybridQueue`
//! pops exactly as it does on a dense, tie-heavy schedule.

mod common;

use common::event_queue::EventQueue;
use fingrav::sim::event::{HybridQueue, Popped};
use fingrav::sim::{SimDuration, SimTime};

#[test]
fn pops_earliest_first_then_runs_dry() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_nanos(20), "late");
    q.schedule(SimTime::from_nanos(10), "early");
    assert_eq!(q.pop().unwrap().1, "early");
    assert_eq!(q.pop().unwrap().1, "late");
    assert!(q.pop().is_none());
}

#[test]
fn pops_in_time_order() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_nanos(30), 3);
    q.schedule(SimTime::from_nanos(10), 1);
    q.schedule(SimTime::from_nanos(20), 2);
    let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
    assert_eq!(order, vec![1, 2, 3]);
}

#[test]
fn ties_break_fifo() {
    let mut q = EventQueue::new();
    let t = SimTime::from_nanos(5);
    for i in 0..100 {
        q.schedule(t, i);
    }
    let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
    assert_eq!(order, (0..100).collect::<Vec<_>>());
}

#[test]
fn interleaved_schedule_and_pop() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_nanos(10), "a");
    assert_eq!(q.pop().unwrap().1, "a");
    q.schedule(SimTime::from_nanos(5), "b");
    q.schedule(SimTime::from_nanos(1), "c");
    assert_eq!(q.pop().unwrap().1, "c");
    q.schedule(SimTime::from_nanos(2), "d");
    assert_eq!(q.pop().unwrap().1, "d");
    assert_eq!(q.pop().unwrap().1, "b");
}

#[test]
fn peek_does_not_remove() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_micros(1), ());
    assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
    assert_eq!(q.len(), 1);
    assert!(!q.is_empty());
    q.clear();
    assert!(q.is_empty());
    assert_eq!(q.peek_time(), None);
}

#[test]
fn never_pops_backwards_under_load() {
    let mut q = EventQueue::new();
    // Pseudo-random but deterministic schedule.
    let mut x = 0x12345678_u64;
    for i in 0..5_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let at = SimTime::ZERO + SimDuration::from_nanos(x % 1_000_000);
        q.schedule(at, i);
    }
    let mut last = SimTime::ZERO;
    while let Some((t, _)) = q.pop() {
        assert!(t >= last);
        last = t;
    }
}

#[test]
fn hybrid_matches_the_heap_reference_on_a_random_schedule() {
    // Mirror every operation into an EventQueue; the merged pop stream
    // (time, kind) must be identical, including tie order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Slot(usize),
        Irregular(u64),
    }
    let mut hybrid: HybridQueue<u64, 4> = HybridQueue::new();
    let mut reference: EventQueue<Kind> = EventQueue::new();
    // `HybridQueue` keeps its slot state private, so mirror which cursors
    // are armed: a slot is re-armed only after it has popped, exactly as
    // the engine re-arms its streams.
    let mut armed = [false; 4];
    let mut x = 0xDEADBEEF_u64;
    let mut lcg = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        x
    };
    for round in 0..200 {
        for _ in 0..(round % 7) + 1 {
            let at = SimTime::from_nanos(lcg() % 64); // dense times force ties
            let draw = lcg();
            let slot = (draw % 8) as usize;
            if slot < 4 {
                if !armed[slot] {
                    hybrid.arm(slot, at);
                    reference.schedule(at, Kind::Slot(slot));
                    armed[slot] = true;
                }
            } else {
                hybrid.schedule(at, draw);
                reference.schedule(at, Kind::Irregular(draw));
            }
        }
        // Drain a few, interleaved with scheduling.
        for _ in 0..(round % 5) {
            let got = hybrid.pop().map(|(t, p)| match p {
                Popped::Periodic(s) => {
                    armed[s] = false;
                    (t, Kind::Slot(s))
                }
                Popped::Irregular(p) => (t, Kind::Irregular(p)),
            });
            assert_eq!(got, reference.pop());
        }
    }
    while let Some(want) = reference.pop() {
        let got = hybrid.pop().expect("hybrid drained early");
        assert_eq!(got.0, want.0);
    }
    assert!(hybrid.pop().is_none());
}
