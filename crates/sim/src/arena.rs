//! Slab arena for event payloads.
//!
//! The scheduling structure ([`crate::ladder::LadderQueue`]) orders events
//! by a small `Copy` key; the fat part of an event — the boxed model
//! closure in [`EventKind`] — lives here, addressed by slot. Sorting and
//! re-bucketing therefore move 32-byte keys instead of whole events,
//! and a cancelled event's payload is reclaimed the moment its tombstone is
//! discovered instead of riding along in the queue. The layout follows the
//! `QueuedEvent` / side-table idiom of trainspotting's scheduler.

use crate::event::EventKind;

/// Slab of event payloads with a free list. Slots are reused, so a long run
/// holds roughly `queue depth` payloads regardless of how many events it
/// schedules in total.
#[derive(Default)]
pub(crate) struct EventArena {
    slots: Vec<Option<EventKind>>,
    free: Vec<u32>,
}

impl EventArena {
    /// Store a payload, returning its slot.
    pub fn insert(&mut self, kind: EventKind) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none(), "free slot occupied");
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event arena slot overflow");
                self.slots.push(Some(kind));
                slot
            }
        }
    }

    /// Take a payload out, freeing the slot.
    pub fn take(&mut self, slot: u32) -> EventKind {
        let kind = self.slots[slot as usize]
            .take()
            .expect("event arena slot taken twice");
        self.free.push(slot);
        kind
    }

    /// Drop a payload (cancelled event), freeing the slot.
    pub fn discard(&mut self, slot: u32) {
        let _ = self.take(slot);
    }

    /// Borrow a payload without freeing it (queue head inspection).
    pub fn get(&self, slot: u32) -> &EventKind {
        self.slots[slot as usize]
            .as_ref()
            .expect("event arena slot empty")
    }

    /// Number of live payloads.
    #[allow(dead_code)] // invariant checks in tests
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call() -> EventKind {
        EventKind::Call(Box::new(|_| {}))
    }

    #[test]
    fn slots_are_reused_after_take_and_discard() {
        let mut a = EventArena::default();
        let s0 = a.insert(call());
        let s1 = a.insert(call());
        assert_ne!(s0, s1);
        assert_eq!(a.len(), 2);
        a.discard(s0);
        assert_eq!(a.len(), 1);
        let s2 = a.insert(call());
        assert_eq!(s2, s0, "freed slot reused");
        let _ = a.take(s1);
        let _ = a.take(s2);
        assert_eq!(a.len(), 0);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let mut a = EventArena::default();
        let s = a.insert(call());
        let _ = a.take(s);
        let _ = a.take(s);
    }
}
