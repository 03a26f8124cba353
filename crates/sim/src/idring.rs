//! Tables keyed by ids issued in increasing order and retired soon after.
//!
//! A NIC numbers its TLPs, transfers and operations from one counter and
//! retires each within a hardware round trip, so the ids live in a table
//! at any instant span a short window. [`IdRing`] stores that window
//! directly: the value for id `i` sits in slot `i − base` of a ring, and
//! a lookup is a subtraction and an index instead of a hash. Ids in the
//! window that were never inserted, or were removed out of order, are
//! empty slots; they leave the ring once they reach its front.

use std::collections::VecDeque;

/// A map from increasing ids to values, stored as the window of ids
/// between the oldest live one and the newest (see the module docs).
/// Build one with `IdRing::default()`.
#[derive(Debug, Clone)]
pub struct IdRing<V> {
    /// The id of the front slot, the oldest live id while any is live.
    base: u64,
    /// Slot `i` holds id `base + i`. The front slot is never empty.
    slots: VecDeque<Option<V>>,
}

impl<V> Default for IdRing<V> {
    fn default() -> Self {
        IdRing {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<V> IdRing<V> {
    /// The slot of `id`, if it lies inside the window.
    #[inline]
    fn slot(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// Store `value` under `id`. An empty ring starts its window at `id`;
    /// otherwise the window grows to reach it.
    ///
    /// # Panics
    /// If `id` is older than the oldest live id: the table's ids must be
    /// inserted in increasing order.
    pub fn insert(&mut self, id: u64, value: V) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let Some(i) = self.slot(id) else {
            panic!(
                "IdRing: id {id} inserted behind the oldest live id {}",
                self.base
            );
        };
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(value);
    }

    /// The value stored under `id`, if any, for in-place update.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        let i = self.slot(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Take the value stored under `id`, if any. Empty slots that reach
    /// the front leave the ring, so the window starts at the oldest live
    /// id again.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let i = self.slot(id)?;
        let value = self.slots.get_mut(i)?.take();
        if i == 0 {
            while self.slots.front().is_some_and(Option::is_none) {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        value
    }

    /// Number of slots in the window, live or empty.
    #[cfg(test)]
    fn window(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_removal_leaves_holes_that_pop_at_the_front() {
        let mut r = IdRing::default();
        for id in 10..15u64 {
            r.insert(id, id * 100);
        }
        assert_eq!(r.remove(12), Some(1200));
        assert_eq!(r.remove(11), Some(1100));
        assert_eq!(r.window(), 5, "holes behind a live front stay");
        assert_eq!(r.get_mut(12), None);
        assert_eq!(r.remove(10), Some(1000));
        assert_eq!(r.window(), 2, "10, 11 and 12 left together");
        assert_eq!(r.get_mut(13), Some(&mut 1300));
        *r.get_mut(14).expect("live") += 1;
        assert_eq!(r.remove(14), Some(1401));
        assert_eq!(r.remove(13), Some(1300));
        assert_eq!(r.window(), 0);
    }

    #[test]
    fn lookups_outside_the_window_return_none() {
        let mut r = IdRing::default();
        assert_eq!(r.get_mut(0), None, "empty ring");
        r.insert(5, 'a');
        r.insert(8, 'b');
        assert_eq!(r.get_mut(4), None, "below the base");
        assert_eq!(r.get_mut(9), None, "past the end");
        assert_eq!(r.get_mut(u64::MAX), None, "far past the end");
        assert_eq!(r.get_mut(6), None, "never inserted");
        assert_eq!(r.remove(4), None);
        assert_eq!(r.remove(9), None);
        assert_eq!(r.remove(7), None);
        assert_eq!(r.window(), 4, "failed lookups change nothing");
        assert_eq!(r.remove(5), Some('a'));
        assert_eq!(r.window(), 1, "the front moved straight to 8");
        assert_eq!(r.remove(5), None, "a removed id is gone");
    }

    #[test]
    fn an_emptied_ring_restarts_its_window_at_the_next_id() {
        let mut r = IdRing::default();
        r.insert(1 << 62 | 7, ());
        r.remove(1 << 62 | 7);
        r.insert(3, ());
        assert_eq!(r.window(), 1);
        assert_eq!(r.remove(3), Some(()));
    }

    #[test]
    #[should_panic(expected = "id 4 inserted behind the oldest live id 5")]
    fn insert_behind_the_oldest_live_id_panics() {
        let mut r = IdRing::default();
        r.insert(5, ());
        r.insert(6, ());
        r.insert(4, ());
    }
}
