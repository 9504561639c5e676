//! The discrete-event kernel shared by `sdnav-sim` and the consensus DES.
//!
//! [`EventQueue`] decides two things only: events pop by time, ties by
//! push order (`f64::total_cmp`), and an event pushed into a *slot* (an
//! element, a node, an election seat) is dropped if [`EventQueue::cancel`]
//! bumps that slot's generation before it fires. Stale events are dropped
//! inside [`EventQueue::pop_before`], so they never advance an engine's
//! counters or draw randomness. The kernel holds no clock, RNG or
//! statistics; generations are `u32` and wrap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Slot value of events no cancellation can reach.
const NO_SLOT: u32 = u32::MAX;

/// `f64::total_cmp`'s bit trick, which is its own inverse: maps a time's
/// bits to a key whose integer order is the total order of the times,
/// and a key back to the time's bits.
#[inline]
fn flip(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

#[derive(Debug)]
struct Entry<K> {
    /// `flip` of the event time's bits, so the heap compares integers.
    key: i64,
    seq: u64,
    slot: u32,
    gen: u32,
    kind: K,
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K> Eq for Entry<K> {}

impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Entry<K> {
    // Reversed: `BinaryHeap` pops its maximum, the kernel wants the
    // earliest time, ties broken by push order.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key).then(other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with per-slot generation cancellation.
#[derive(Debug)]
pub struct EventQueue<K> {
    heap: BinaryHeap<Entry<K>>,
    seq: u64,
    gens: Vec<u32>,
}

impl<K> EventQueue<K> {
    /// An empty queue whose cancellable events live in slots
    /// `0..slots`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` does not fit below `u32::MAX`.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        assert!(
            u32::try_from(slots).is_ok_and(|s| s < NO_SLOT),
            "event queue supports fewer than {NO_SLOT} slots"
        );
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            gens: vec![0; slots],
        }
    }

    /// Schedules `kind` at `time`. With `Some(slot)` the event is dropped
    /// if [`EventQueue::cancel`] is called on that slot before it fires.
    #[inline]
    pub fn push(&mut self, time: f64, slot: Option<usize>, kind: K) {
        let (slot, gen) = match slot {
            Some(s) => (s as u32, self.gens[s]),
            None => (NO_SLOT, 0),
        };
        self.heap.push(Entry {
            key: flip(time.to_bits() as i64),
            seq: self.seq,
            slot,
            gen,
            kind,
        });
        self.seq += 1;
    }

    /// Cancels every event `slot` has pending.
    #[inline]
    pub fn cancel(&mut self, slot: usize) {
        self.gens[slot] = self.gens[slot].wrapping_add(1);
    }

    /// The earliest live event strictly before `horizon`, or `None` once
    /// the next event is at or past it.
    #[inline]
    pub fn pop_before(&mut self, horizon: f64) -> Option<(f64, K)> {
        loop {
            let time = f64::from_bits(flip(self.heap.peek()?.key) as u64);
            if time >= horizon {
                return None;
            }
            let e = self.heap.pop()?;
            if e.slot == NO_SLOT || e.gen == self.gens[e.slot as usize] {
                return Some((time, e.kind));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Pair(usize, usize),
        One(usize),
    }

    #[test]
    fn pops_by_time_then_push_order_and_drops_cancelled_events() {
        // Same-time ties by push order keep the sim's rediscovery
        // scheduling deterministic when it lands on another transition.
        let mut q = EventQueue::new(2);
        q.push(5.0, None, Kind::One(1));
        q.push(5.0, Some(1), Kind::Pair(1, 1));
        q.push(4.0, Some(0), Kind::One(3));
        q.push(1.0, Some(0), Kind::One(0));
        q.cancel(0);
        q.push(5.0, Some(0), Kind::One(4));
        let order: Vec<_> = std::iter::from_fn(|| q.pop_before(f64::INFINITY)).collect();
        let expected = [
            (5.0, Kind::One(1)),
            (5.0, Kind::Pair(1, 1)),
            (5.0, Kind::One(4)),
        ];
        assert_eq!(order, expected);
    }

    #[test]
    fn time_order_is_total_cmp() {
        let times = [3.5, -0.0, 7e300, -2.0, 0.0, 1e-300, -f64::INFINITY];
        let mut q = EventQueue::new(0);
        for (i, &t) in times.iter().enumerate() {
            q.push(t, None, Kind::One(i));
        }
        let mut sorted = times;
        sorted.sort_by(f64::total_cmp);
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop_before(f64::INFINITY))
            .map(|(t, _)| t.to_bits())
            .collect();
        assert_eq!(popped, sorted.map(f64::to_bits));
    }

    #[test]
    fn pop_before_stops_at_the_horizon() {
        let mut q = EventQueue::new(1);
        q.push(1.0, None, Kind::One(0));
        q.push(2.0, Some(0), Kind::One(1));
        q.push(3.0, None, Kind::One(2));
        q.cancel(0);
        assert_eq!(q.pop_before(2.5), Some((1.0, Kind::One(0))));
        // The cancelled event is skipped, the next one is past the horizon.
        assert_eq!(q.pop_before(2.5), None);
        assert_eq!(q.pop_before(3.0), None);
        assert_eq!(q.pop_before(3.5), Some((3.0, Kind::One(2))));
        assert_eq!(q.pop_before(f64::INFINITY), None);
    }

    #[test]
    fn entry_keeps_the_simulators_48_byte_footprint() {
        // Time, push order, slot and generation plus a two-index payload,
        // which covers every event kind of both engines.
        assert_eq!(std::mem::size_of::<Entry<Kind>>(), 48);
    }
}
