//! The hybrid simulation engine.
//!
//! The measured system in the paper has two kinds of actors:
//!
//! * **software** (MPI/UCP/UCT on a core) executes *sequentially*: each call
//!   costs CPU time, and the next call starts when the previous returns;
//! * **hardware** (root complex, NIC, wire, switch) is a *pipeline*: it has
//!   multiple outstanding transactions, and its work overlaps CPU time —
//!   the paper's Figure 5 shows `PCIe` of message *i* overlapping
//!   `CPU_time` of message *i+1*.
//!
//! We model this with a [`CpuClock`] per simulated core (software advances
//! it explicitly) and an [`EventQueue`] shared by the hardware components
//! (events fire in timestamp order, FIFO-stable for equal timestamps).
//! Software drains hardware events up to its own clock whenever it needs to
//! observe hardware state (e.g. polling a completion queue), which is
//! precisely what a real core does when it loads a CQ entry from memory.

use crate::time::{SimDuration, SimTime};

/// One pending event. Equal-time events keep insertion order (`seq`), so
/// the simulation is deterministic. The order key packs both into one
/// integer, `at_ps << 64 | seq`: the same 16 bytes as the pair, compared
/// in one `u128` comparison, and unique per queue.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    /// When the event fires.
    #[inline]
    fn at(&self) -> SimTime {
        SimTime::from_ps((self.key >> 64) as u64)
    }

    /// The insertion sequence number, which is also its [`EventKey`].
    #[inline]
    fn seq(&self) -> u64 {
        self.key as u64
    }
}

/// Children per node of the implicit heap. A 4-ary layout halves the tree
/// depth of a binary heap, and all four children of a node share one or
/// two cache lines, so `pop` does fewer, cheaper levels of sift-down — the
/// classic d-ary-heap trade for discrete-event queues, whose pop:push
/// ratio is exactly 1 and whose pops dominate (each sift-down is
/// O(d·log_d n) comparisons but O(log_d n) line fetches).
const ARITY: usize = 4;

/// Handle to a scheduled event, returned by [`EventQueue::push`]. Pass it
/// to [`EventQueue::cancel`] to retract the event before it fires. Keys are
/// never reused, so a stale key (for an event that already fired or was
/// cancelled) cancels nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

/// A total-ordered, FIFO-stable event queue over payload type `E`.
///
/// An implicit 4-ary min-heap on the packed `(time, seq)` key in a flat
/// `Vec`, each payload inside its entry. Sifts carry the moving entry in
/// hand and shift each entry they pass over once, into the hole it
/// leaves, instead of swapping pairs; that is why the payload must be
/// `Copy` (hardware events are plain data). The heap
/// holds exactly the pending events: [`EventQueue::cancel`] finds its
/// entry by a linear scan and removes it, so `len`, `is_empty` and
/// `peek_time` are exact and nothing else is stored per event. The hot
/// path never allocates once the vector has grown to the simulation's
/// high-water mark.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    next_seq: u64,
    /// Time of the most recently popped event; pushes earlier than this are
    /// causality violations and panic.
    watermark: SimTime,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedule `event` to fire at absolute time `at`. Returns a key that
    /// can retract the event via [`EventQueue::cancel`].
    ///
    /// # Panics
    /// If `at` is earlier than the last popped event's time (an effect
    /// scheduled before its cause).
    pub fn push(&mut self, at: SimTime, event: E) -> EventKey {
        assert!(
            at >= self.watermark,
            "causality violation: scheduling at {at} behind watermark {}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            key: u128::from(at.as_ps()) << 64 | u128::from(seq),
            event,
        };
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
        EventKey(seq)
    }

    /// Retract a still-pending event. Returns `false`, changing nothing,
    /// if `key`'s event already fired or was already cancelled.
    ///
    /// The entry is found by a linear scan. Its one caller, the fault
    /// engine's retransmission timer, cancels with a handful of events
    /// pending, so the queue keeps no position index for every sift to
    /// update.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        match self.heap.iter().position(|e| e.seq() == key.0) {
            Some(i) => {
                self.remove(i);
                true
            }
            None => false,
        }
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(Entry::at)
    }

    /// Pop the earliest event if it is due at or before `limit`.
    ///
    /// The due check is one comparison against the root — the entry is
    /// then extracted directly, with no second peek.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.heap.first()?.at() > limit {
            return None;
        }
        let ev = self.remove(0);
        self.watermark = ev.at();
        Some((ev.at(), ev.event))
    }

    /// Take the entry at `i` out of the heap. The last entry fills the
    /// hole and sifts whichever way restores the heap order.
    fn remove(&mut self, i: usize) -> Entry<E> {
        let taken = self.heap[i];
        let last = self.heap.pop().expect("entry i exists");
        if i < self.heap.len() {
            if i > 0 && last.key < self.heap[(i - 1) / ARITY].key {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
        taken
    }

    /// Place `entry` at or above the hole at `i`: each larger parent on
    /// the way up moves down one level into the hole.
    #[inline]
    fn sift_up(&mut self, mut i: usize, entry: Entry<E>) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if entry.key > self.heap[parent].key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    /// Place `entry` at or below the hole at `i`: each smaller least
    /// child on the way down moves up one level into the hole.
    #[inline]
    fn sift_down(&mut self, mut i: usize, entry: Entry<E>) {
        let len = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let min = first + self.least_child(first);
            if entry.key < self.heap[min].key {
                break;
            }
            self.heap[i] = self.heap[min];
            i = min;
        }
        self.heap[i] = entry;
    }

    /// Offset of the least key among the children starting at `first`.
    /// A full set of four is a tournament of conditional selects, two
    /// pairs and a final, so the comparisons' outcomes feed no branch;
    /// only the last parent can have fewer than four.
    #[inline]
    fn least_child(&self, first: usize) -> usize {
        let children = &self.heap[first..];
        if let Some(c) = children.first_chunk::<ARITY>() {
            let a = usize::from(c[1].key < c[0].key);
            let b = 2 + usize::from(c[3].key < c[2].key);
            if c[b].key < c[a].key {
                b
            } else {
                a
            }
        } else {
            (1..children.len()).fold(0, |m, i| {
                if children[i].key < children[m].key {
                    i
                } else {
                    m
                }
            })
        }
    }

    /// Pop the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Time of the last fired event.
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }
}

/// The sequential clock of one simulated core.
///
/// Software-layer code (the `llp`, `hlp`, `mpi` crates) advances this clock
/// by the sampled cost of each instruction sequence it "executes". Hardware
/// interaction points read the clock to timestamp MMIO writes and drain the
/// hardware event queue up to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuClock {
    now: SimTime,
}

impl Default for CpuClock {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuClock {
    /// A core whose local time starts at zero.
    pub fn new() -> Self {
        CpuClock { now: SimTime::ZERO }
    }

    /// Current local time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Execute work costing `d`; returns the completion instant.
    #[inline]
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        self.now += d;
        self.now
    }

    /// Block until at least `t` (no-op if already past). Models waiting on
    /// an external condition; returns the new local time.
    #[inline]
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        self.now = self.now.max_of(t);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), "c");
        q.push(SimTime::from_ns(10), "a");
        q.push(SimTime::from_ns(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_limit() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(
            q.pop_due(SimTime::from_ns(15)),
            Some((SimTime::from_ns(10), 1))
        );
        assert_eq!(q.pop_due(SimTime::from_ns(15)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_due(SimTime::from_ns(20)),
            Some((SimTime::from_ns(20), 2))
        );
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn push_behind_watermark_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(5), ());
    }

    #[test]
    fn push_at_watermark_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1);
        q.pop();
        q.push(SimTime::from_ns(10), 2); // same instant: fine
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 2)));
    }

    #[test]
    fn cpu_clock_advances_monotonically() {
        let mut cpu = CpuClock::new();
        assert_eq!(cpu.now(), SimTime::ZERO);
        cpu.advance(SimDuration::from_ns(100));
        cpu.advance_to(SimTime::from_ns(50)); // earlier: no-op
        assert_eq!(cpu.now(), SimTime::from_ns(100));
        cpu.advance_to(SimTime::from_ns(150));
        assert_eq!(cpu.now(), SimTime::from_ns(150));
    }

    #[test]
    fn interleaved_push_pop_respects_watermark() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 'a');
        assert_eq!(q.pop_due(SimTime::from_ns(5)), None);
        // Nothing popped yet: earlier pushes are still legal.
        q.push(SimTime::from_ns(2), 'b');
        assert_eq!(q.pop(), Some((SimTime::from_ns(2), 'b')));
        // Now the watermark is 2: same-time pushes fine, earlier panics.
        assert_eq!(q.watermark(), SimTime::from_ns(2));
        q.push(SimTime::from_ns(2), 'c');
        assert_eq!(q.pop(), Some((SimTime::from_ns(2), 'c')));
    }

    #[test]
    fn cancel_suppresses_delivery() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_ns(10), "a");
        q.push(SimTime::from_ns(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancelling_a_fired_key_changes_nothing() {
        let mut q = EventQueue::new();
        let first = q.push(SimTime::from_ns(10), 10);
        q.push(SimTime::from_ns(20), 20);
        q.push(SimTime::from_ns(30), 30);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 10)));
        assert!(!q.cancel(first), "a fired key cancels nothing");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), 20)));
        assert!(!q.is_empty(), "the 30 ns event is still queued");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ns(30), 30)));
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_root_does_not_advance_watermark() {
        let mut q = EventQueue::new();
        let late = q.push(SimTime::from_ns(100), "late");
        q.cancel(late);
        // Cancelling must not move the watermark to 100.
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(5), "early");
        assert_eq!(q.pop(), Some((SimTime::from_ns(5), "early")));
    }

    #[test]
    fn peek_time_skips_cancelled_events() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_ns(1), 'a');
        q.push(SimTime::from_ns(7), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(7), 'b')));
    }

    #[test]
    fn repeated_cancel_repush_keeps_heap_bounded() {
        // The RTO-reset pattern: every state change retracts the old timer
        // deadline and arms a new one. The heap must not keep one dead
        // entry per reset.
        let mut q = EventQueue::new();
        let mut key = q.push(SimTime::from_ns(1), ());
        for i in 2..10_000u64 {
            assert!(q.cancel(key));
            key = q.push(SimTime::from_ns(i), ());
            assert_eq!(q.len(), 1, "heap grew at reset {i}");
        }
        assert_eq!(q.pop(), Some((SimTime::from_ns(9_999), ())));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_preserves_order_of_survivors() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..100u64)
            .map(|i| q.push(SimTime::from_ns(i), i))
            .collect();
        // Cancel every even entry, from all depths of the heap.
        for k in keys.iter().step_by(2) {
            assert!(q.cancel(*k));
        }
        assert_eq!(q.len(), 50);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (1..100).step_by(2).collect::<Vec<_>>());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The model's pop: its least `(time, seq)` pair (the vector is
        /// kept sorted), if due by `limit`.
        fn model_pop(
            model: &mut Vec<(SimTime, u64)>,
            watermark: &mut SimTime,
            limit: SimTime,
        ) -> Option<(SimTime, u64)> {
            let &(at, seq) = model.first().filter(|e| e.0 <= limit)?;
            model.remove(0);
            *watermark = at;
            Some((at, seq))
        }

        proptest! {
            #[test]
            fn interleaved_ops_match_reference_model(
                ops in proptest::collection::vec((0u8..8, 0u64..64), 1..400)
            ) {
                // Drive the heap and a sorted-vec model with the same
                // stream of pushes (a quarter of them onto a handful of
                // instants, so many times tie), pop_due at limits below,
                // at and past the earliest event, pop, peek_time and
                // cancel of pending, fired and already-cancelled keys.
                // They must agree exactly after every operation, payload,
                // len and is_empty included.
                let mut q = EventQueue::new();
                let mut model: Vec<(SimTime, u64)> = Vec::new();
                let mut keys: Vec<EventKey> = Vec::new();
                let mut watermark = SimTime::ZERO;
                for (op, arg) in ops {
                    let seq = keys.len() as u64;
                    let step = SimDuration::from_ns(arg);
                    match op {
                        0..=2 => {
                            let at = watermark + step;
                            keys.push(q.push(at, seq));
                            model.push((at, seq));
                        }
                        3 => {
                            let at = watermark + SimDuration::from_ns(arg % 3);
                            keys.push(q.push(at, seq));
                            model.push((at, seq));
                        }
                        4 => {
                            let limit = watermark + step;
                            let want = model_pop(&mut model, &mut watermark, limit);
                            prop_assert_eq!(q.pop_due(limit), want);
                        }
                        5 => {
                            let want = model_pop(&mut model, &mut watermark, SimTime::MAX);
                            prop_assert_eq!(q.pop(), want);
                        }
                        6 => prop_assert_eq!(q.peek_time(), model.first().map(|e| e.0)),
                        _ => {
                            if !keys.is_empty() {
                                let seq = arg % keys.len() as u64;
                                let pending = model.iter().position(|e| e.1 == seq);
                                if let Some(i) = pending {
                                    model.remove(i);
                                }
                                prop_assert_eq!(q.cancel(keys[seq as usize]), pending.is_some());
                            }
                        }
                    }
                    model.sort();
                    prop_assert_eq!(q.len(), model.len());
                    prop_assert_eq!(q.is_empty(), model.is_empty());
                    prop_assert_eq!(q.watermark(), watermark);
                }
            }

            #[test]
            fn pops_are_sorted_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_ns(t), i);
                }
                let mut prev: Option<(SimTime, usize)> = None;
                while let Some((at, idx)) = q.pop() {
                    if let Some((pt, pidx)) = prev {
                        prop_assert!(at >= pt);
                        if at == pt {
                            prop_assert!(idx > pidx, "FIFO stability violated");
                        }
                    }
                    prev = Some((at, idx));
                }
            }
        }
    }
}
