//! The kernel event queue.
//!
//! Events are totally ordered by `(time, tiekey, seq)`. The sequence number
//! is assigned when the event is scheduled; because simulated execution is
//! sequential and cooperative, scheduling order — and therefore tie-breaking
//! among same-time events — is deterministic.
//!
//! The order is kept by a **ladder queue** ([`crate::ladder`]) — a sorted
//! bottom under a stack of bucketed calendar rungs, O(1) per event both for
//! the dense same/near-time traffic the checkpoint protocols generate and
//! for the long-horizon populations of 10⁵-rank jobs. The ladder orders
//! 32-byte [`Key`](crate::ladder::Key)s; event payloads (boxed model
//! closures) live in an [`EventArena`](crate::arena::EventArena) addressed
//! by slot, so no closure is ever moved by a sort. The unit tests below
//! check the queue against a binary-heap reference over 10⁵ mixed ops.

use crate::arena::EventArena;
use crate::kernel::SimCtx;
use crate::ladder::{Key, LadderQueue};
use crate::process::Pid;
use crate::time::SimTime;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u64);

pub(crate) enum EventKind {
    /// Run a model closure on the kernel loop.
    Call(Box<dyn FnOnce(&SimCtx)>),
    /// Hand the execution token to a parked process.
    Resume(Pid, crate::process::WakeKind),
    /// Apply a scheduled network-fault transition (link down / degrade /
    /// restore, partition start / heal). Dispatched exactly like `Call`;
    /// kept as its own variant so the lane audit can prove that fault
    /// transitions — which race with every flow chunk touching the same
    /// link — are never scheduled laneless.
    LinkFault(Box<dyn FnOnce(&SimCtx)>),
}

pub(crate) struct Event {
    pub time: SimTime,
    pub seq: u64,
    /// Secondary sort key among same-time events. Equal to `seq` in normal
    /// runs; a seeded permutation of it under tiebreak perturbation (the
    /// race detector's probe for schedule-sensitive model state).
    pub tiekey: u64,
    pub kind: EventKind,
}

/// SplitMix64 finalizer: a cheap, well-mixed bijection on `u64` used to
/// derive perturbed tiebreak keys from (seed, seq). Tiekey derivation is
/// confined to [`EventQueue::tiekey`] — the lane audit enforces that no
/// other sim-crate code (in particular the ladder) re-derives one.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Default tombstone count below which [`EventQueue::cancel`] never
/// compacts; keeps small queues (the common case: a handful of pending
/// timers) from paying rebuild costs for no win. Configurable per queue for
/// the kernel microbenchmark ([`EventQueue::set_compact_min_tombstones`]).
const COMPACT_MIN_TOMBSTONES: usize = 64;

/// Min-queue of pending events plus a tombstone set for cancellation.
pub(crate) struct EventQueue {
    ladder: LadderQueue,
    arena: EventArena,
    next_seq: u64,
    cancelled: std::collections::HashSet<u64>,
    /// When set, same-time tiebreaks follow a seeded permutation of the
    /// scheduling order instead of the scheduling order itself. Causality is
    /// preserved (an event scheduled by another still runs after it); only
    /// the order of *independent* same-time events changes.
    tiebreak_seed: Option<u64>,
    compact_min_tombstones: usize,
    /// Side-map `seq → lane`, maintained only in exploration mode
    /// ([`EventQueue::record_lanes`]): the schedule-policy hook needs each
    /// pending event's tiebreak lane to build per-lane candidate fronts,
    /// and `Key` deliberately does not carry it. Empty (and untouched) in
    /// ordinary runs, so the hot push/pop paths pay nothing.
    lanes: Option<std::collections::HashMap<u64, Option<u64>>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            ladder: LadderQueue::new(),
            arena: EventArena::default(),
            next_seq: 0,
            cancelled: std::collections::HashSet::new(),
            tiebreak_seed: None,
            compact_min_tombstones: COMPACT_MIN_TOMBSTONES,
            lanes: None,
        }
    }
}

impl EventQueue {
    /// Start recording each event's tiebreak lane (exploration mode). Must
    /// be enabled before the first push so every pending event is covered.
    pub fn record_lanes(&mut self) {
        debug_assert_eq!(self.next_seq, 0, "record_lanes after pushes");
        self.lanes = Some(std::collections::HashMap::new());
    }

    /// The recorded lane of a pending event (exploration mode only).
    pub fn lane_of(&self, seq: u64) -> Option<u64> {
        self.lanes.as_ref().and_then(|m| m.get(&seq).copied())?
    }

    /// Perturb same-time event ordering with `seed` (race detection).
    pub fn set_tiebreak_seed(&mut self, seed: u64) {
        self.tiebreak_seed = Some(seed);
    }

    /// Override the compaction trigger (kernel microbenchmark knob; the
    /// default is [`COMPACT_MIN_TOMBSTONES`]).
    #[allow(dead_code)] // microbench / tests
    pub fn set_compact_min_tombstones(&mut self, n: usize) {
        self.compact_min_tombstones = n.max(1);
    }

    /// Schedule an event. `lane` groups events that race on shared state
    /// (e.g. everything targeting one process): same-time events in the same
    /// lane always pop in scheduling order, even under a perturbation seed,
    /// because their relative order is defined model semantics. Unkeyed
    /// (`None`) events are treated as independent and permute freely.
    pub fn push(&mut self, time: SimTime, lane: Option<u64>, kind: EventKind) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tiekey = self.tiekey(seq, lane);
        if let Some(m) = self.lanes.as_mut() {
            m.insert(seq, lane);
        }
        let slot = self.arena.insert(kind);
        self.ladder.push(Key {
            time_ns: time.as_nanos(),
            tiekey,
            seq,
            slot,
        });
        EventId(seq)
    }

    /// The tiebreak key of event `seq` scheduled on `lane`.
    fn tiekey(&self, seq: u64, lane: Option<u64>) -> u64 {
        match self.tiebreak_seed {
            None => seq,
            // Same lane ⇒ same tiekey ⇒ the `seq` tiebreak preserves the
            // scheduling order; distinct lanes land in a seeded order.
            Some(seed) => splitmix64(seed ^ lane.unwrap_or(seq)),
        }
    }

    /// Mark an event cancelled; it is skipped when popped.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
        // Once tombstones rival live events, pops spend more time skipping
        // corpses than returning work and `len`/`is_empty` drift (a tombstone
        // for an already-popped event is never reclaimed). Rebuilding is
        // O(queue) but amortized: compaction empties the tombstone set, so it
        // takes as many fresh cancellations as there are live events before
        // it can trigger again.
        if self.cancelled.len() >= self.compact_min_tombstones
            && self.cancelled.len() * 2 >= self.ladder.len()
        {
            self.compact();
        }
    }

    /// Drop every cancelled event from the ladder and clear the tombstone
    /// set, reclaiming the corpses' arena slots.
    ///
    /// Tombstones that match nothing in the ladder belong to events that
    /// were already executed; discarding them restores exact
    /// `len`/`is_empty` accounting.
    fn compact(&mut self) {
        let cancelled = std::mem::take(&mut self.cancelled);
        let mut keys = Vec::with_capacity(self.ladder.len());
        self.ladder.drain_into(&mut keys);
        keys.retain(|k| {
            if cancelled.contains(&k.seq) {
                self.arena.discard(k.slot);
                if let Some(m) = self.lanes.as_mut() {
                    m.remove(&k.seq);
                }
                false
            } else {
                true
            }
        });
        self.ladder.rebuild(keys);
    }

    /// Forget a key's lane record (the event left the queue).
    fn forget_lane(&mut self, seq: u64) {
        if let Some(m) = self.lanes.as_mut() {
            m.remove(&seq);
        }
    }

    /// Reassemble the event at `k`, taking its payload out of the arena.
    fn assemble(&mut self, k: Key) -> Event {
        self.forget_lane(k.seq);
        Event {
            time: SimTime::from_nanos(k.time_ns),
            seq: k.seq,
            tiekey: k.tiekey,
            kind: self.arena.take(k.slot),
        }
    }

    /// Pop and reclaim the cancelled corpse at the queue head iff `k` is
    /// one. `true` means the caller must re-examine the new head.
    fn discard_if_corpse(&mut self, k: Key) -> bool {
        // A single hash probe: `remove` both tests and clears the tombstone.
        if self.cancelled.remove(&k.seq) {
            self.ladder.pop();
            self.arena.discard(k.slot);
            self.forget_lane(k.seq);
            true
        } else {
            false
        }
    }

    pub fn pop(&mut self) -> Option<Event> {
        loop {
            let k = self.ladder.pop()?;
            if self.cancelled.remove(&k.seq) {
                self.arena.discard(k.slot);
                self.forget_lane(k.seq);
                continue;
            }
            return Some(self.assemble(k));
        }
    }

    /// The time of the next live (non-cancelled) event, without consuming
    /// it. Corpses discovered at the head are reclaimed on the way.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let k = self.ladder.peek()?;
            if self.discard_if_corpse(k) {
                continue;
            }
            return Some(SimTime::from_nanos(k.time_ns));
        }
    }

    /// Pop every live key at the earliest pending instant, in canonical
    /// pop order (exploration mode). The caller inspects them through
    /// [`EventQueue::peek_kind`], executes exactly one via
    /// [`EventQueue::take_key`], and pushes the rest back with
    /// [`EventQueue::unpop`] — which exercises the ladder's push-below-
    /// current-minimum paths. Cancelled corpses encountered on the way are
    /// reclaimed.
    pub fn pop_ready_keys(&mut self) -> Vec<Key> {
        let mut out = Vec::new();
        let Some(t) = self.peek_time() else {
            return out;
        };
        let t = t.as_nanos();
        while let Some(k) = self.ladder.peek() {
            if k.time_ns != t {
                break;
            }
            self.ladder.pop();
            if self.cancelled.remove(&k.seq) {
                self.arena.discard(k.slot);
                self.forget_lane(k.seq);
                continue;
            }
            out.push(k);
        }
        out
    }

    /// Borrow the payload behind a popped-but-unconsumed key.
    pub fn peek_kind(&self, k: Key) -> &EventKind {
        self.arena.get(k.slot)
    }

    /// Consume a key popped by [`EventQueue::pop_ready_keys`].
    pub fn take_key(&mut self, k: Key) -> Event {
        self.assemble(k)
    }

    /// Drop a key popped by [`EventQueue::pop_ready_keys`] without running
    /// it (stale resumes for dead processes).
    pub fn discard_key(&mut self, k: Key) {
        self.arena.discard(k.slot);
        self.forget_lane(k.seq);
    }

    /// Return unconsumed ready keys to the ladder.
    pub fn unpop(&mut self, keys: impl IntoIterator<Item = Key>) {
        for k in keys {
            self.ladder.push(k);
        }
    }

    #[allow(dead_code)] // used by tests and future schedulers
    pub fn is_empty(&self) -> bool {
        // Cancelled-but-unpopped events don't count as pending work.
        self.ladder.len() <= self.cancelled.len()
    }

    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.ladder.len().saturating_sub(self.cancelled.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call() -> EventKind {
        EventKind::Call(Box::new(|_| {}))
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_nanos(20), None, call());
        q.push(SimTime::from_nanos(10), None, call());
        q.push(SimTime::from_nanos(10), None, call());
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        let c = q.pop().unwrap();
        assert_eq!(a.time, SimTime::from_nanos(10));
        assert_eq!(b.time, SimTime::from_nanos(10));
        assert!(a.seq < b.seq, "same-time events pop in scheduling order");
        assert_eq!(c.time, SimTime::from_nanos(20));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::default();
        let id = q.push(SimTime::from_nanos(5), None, call());
        q.push(SimTime::from_nanos(6), None, call());
        q.cancel(id);
        assert_eq!(q.len(), 1);
        let ev = q.pop().unwrap();
        assert_eq!(ev.time, SimTime::from_nanos(6));
    }

    #[test]
    fn peek_time_reports_the_live_head_without_consuming() {
        let mut q = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        let a = q.push(SimTime::from_nanos(5), None, call());
        q.push(SimTime::from_nanos(8), None, call());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.len(), 2, "peek consumes nothing");
        q.cancel(a);
        // The corpse at the head is reclaimed on the way to the answer.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(8)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().time.as_nanos(), 8);
    }

    #[test]
    fn empty_accounts_for_cancellations() {
        let mut q = EventQueue::default();
        let id = q.push(SimTime::from_nanos(5), None, call());
        assert!(!q.is_empty());
        q.cancel(id);
        assert!(q.is_empty());
    }

    #[test]
    fn compaction_drops_tombstones_and_keeps_len_exact() {
        let mut q = EventQueue::default();
        let ids: Vec<EventId> = (0..200)
            .map(|i| q.push(SimTime::from_nanos(i), None, call()))
            .collect();
        // Cancelling half the queue crosses both thresholds (>= 64 tombstones
        // and tombstones >= half the ladder) exactly at the 100th cancel.
        for id in &ids[..100] {
            q.cancel(*id);
        }
        assert!(q.cancelled.is_empty(), "compaction should clear tombstones");
        assert_eq!(q.ladder.len(), 100, "cancelled events physically removed");
        assert_eq!(q.arena.len(), 100, "corpse payloads reclaimed");
        // Below-threshold cancels stay lazy but len() remains exact.
        for id in &ids[100..150] {
            q.cancel(*id);
        }
        assert_eq!(q.cancelled.len(), 50);
        assert_eq!(q.len(), 50);
        // Survivors pop in order with no skipped corpses in between.
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|ev| ev.time.as_nanos())
            .collect();
        assert_eq!(times, (150u64..200).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert_eq!(q.arena.len(), 0, "every payload taken or reclaimed");
    }

    #[test]
    fn compaction_threshold_is_configurable() {
        let mut q = EventQueue::default();
        q.set_compact_min_tombstones(2);
        let a = q.push(SimTime::from_nanos(1), None, call());
        let b = q.push(SimTime::from_nanos(2), None, call());
        q.push(SimTime::from_nanos(3), None, call());
        q.push(SimTime::from_nanos(4), None, call());
        q.cancel(a);
        assert_eq!(q.cancelled.len(), 1, "below the lowered threshold");
        q.cancel(b);
        assert!(q.cancelled.is_empty(), "2 tombstones vs 4 events compacts");
        assert_eq!(q.ladder.len(), 2);
    }

    #[test]
    fn compaction_purges_stale_tombstones_from_executed_events() {
        let mut q = EventQueue::default();
        let stale: Vec<EventId> = (0..super::COMPACT_MIN_TOMBSTONES as u64)
            .map(|i| q.push(SimTime::from_nanos(i), None, call()))
            .collect();
        while q.pop().is_some() {}
        // Cancelling already-popped events leaves tombstones that match
        // nothing; without compaction they would make len() undercount the
        // live events pushed afterwards.
        for id in &stale {
            q.cancel(*id);
        }
        assert!(q.cancelled.is_empty(), "stale tombstones purged");
        for i in 0..10 {
            q.push(SimTime::from_nanos(1_000 + i), None, call());
        }
        assert_eq!(q.len(), 10);
        assert!(!q.is_empty());
    }

    #[test]
    fn tiebreak_seed_permutes_only_same_time_events() {
        let order_with = |seed: Option<u64>| {
            let mut q = EventQueue::default();
            if let Some(s) = seed {
                q.set_tiebreak_seed(s);
            }
            // Four events at t=10 (a permutable tie), one each at 5 and 20.
            for t in [10, 5, 10, 10, 20, 10] {
                q.push(SimTime::from_nanos(t), None, call());
            }
            std::iter::from_fn(|| q.pop())
                .map(|ev| (ev.time.as_nanos(), ev.seq))
                .collect::<Vec<_>>()
        };
        let baseline = order_with(None);
        // Time order always holds, and the unperturbed tie order is seq.
        let times: Vec<u64> = baseline.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, [5, 10, 10, 10, 10, 20]);
        assert_eq!(
            baseline.iter().map(|(_, s)| *s).collect::<Vec<_>>(),
            [1, 0, 2, 3, 5, 4]
        );
        // A seed keeps the time order but permutes within the t=10 bucket;
        // the same seed reproduces the same permutation.
        let perturbed = order_with(Some(7));
        assert_eq!(perturbed.iter().map(|(t, _)| *t).collect::<Vec<_>>(), times);
        assert_eq!(perturbed, order_with(Some(7)));
        let mid: std::collections::BTreeSet<u64> =
            perturbed[1..5].iter().map(|(_, s)| *s).collect();
        assert_eq!(mid, [0u64, 2, 3, 5].into_iter().collect());
    }

    #[test]
    fn same_lane_events_keep_scheduling_order_under_any_seed() {
        for seed in 0..32 {
            let mut q = EventQueue::default();
            q.set_tiebreak_seed(seed);
            // Two lanes interleaved at one instant: intra-lane order must
            // survive every seed, inter-lane order is fair game.
            let a0 = q.push(SimTime::from_nanos(10), Some(1), call()).0;
            let b0 = q.push(SimTime::from_nanos(10), Some(2), call()).0;
            let a1 = q.push(SimTime::from_nanos(10), Some(1), call()).0;
            let b1 = q.push(SimTime::from_nanos(10), Some(2), call()).0;
            let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|ev| ev.seq).collect();
            let pos = |s: u64| order.iter().position(|&x| x == s).unwrap();
            assert!(pos(a0) < pos(a1), "lane 1 order violated under seed {seed}");
            assert!(pos(b0) < pos(b1), "lane 2 order violated under seed {seed}");
        }
    }

    #[test]
    fn ready_keys_collect_the_tied_instant_and_unpop_restores_order() {
        let mut q = EventQueue::default();
        q.record_lanes();
        let a = q.push(SimTime::from_nanos(10), Some(1), call());
        let b = q.push(SimTime::from_nanos(10), None, call());
        let c = q.push(SimTime::from_nanos(10), Some(1), call());
        let d = q.push(SimTime::from_nanos(20), Some(2), call());
        let corpse = q.push(SimTime::from_nanos(10), None, call());
        q.cancel(corpse);
        let ready = q.pop_ready_keys();
        assert_eq!(
            ready.iter().map(|k| k.seq).collect::<Vec<_>>(),
            [a.0, b.0, c.0],
            "ready set is the live t=10 bucket in pop order"
        );
        assert_eq!(q.lane_of(a.0), Some(1));
        assert_eq!(q.lane_of(b.0), None);
        assert!(matches!(q.peek_kind(ready[0]), EventKind::Call(_)));
        // Execute the *middle* candidate, push the rest back: the ladder
        // must accept keys at (or below) its drained minimum.
        let ev = q.take_key(ready[1]);
        assert_eq!(ev.seq, b.0);
        q.unpop([ready[0], ready[2]]);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, [a.0, c.0, d.0], "unpopped keys keep their order");
        assert_eq!(q.lane_of(d.0), None, "consumed events forget lanes");
    }

    #[test]
    fn discard_key_reclaims_without_running() {
        let mut q = EventQueue::default();
        q.record_lanes();
        q.push(SimTime::from_nanos(5), Some(3), call());
        let ready = q.pop_ready_keys();
        assert_eq!(ready.len(), 1);
        q.discard_key(ready[0]);
        assert_eq!(q.arena.len(), 0, "payload reclaimed");
        assert!(q.is_empty());
        assert_eq!(q.lane_of(ready[0].seq), None);
    }

    #[test]
    fn small_queues_skip_compaction() {
        let mut q = EventQueue::default();
        let id = q.push(SimTime::from_nanos(1), None, call());
        q.cancel(id);
        // Below the compaction threshold the tombstone stays; lazily skipped
        // on pop as before.
        assert_eq!(q.cancelled.len(), 1);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    /// Deterministic xorshift64* generator for the differential test (no
    /// external RNG crates in the offline build).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// Reference min-queue for the differential test: a binary heap of
    /// `(time, tiekey, seq)` plus a tombstone set, the textbook realization
    /// of the order the ladder must reproduce.
    #[derive(Default)]
    struct Reference {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u64)>>,
        cancelled: std::collections::HashSet<u64>,
    }

    impl Reference {
        fn pop(&mut self) -> Option<(u64, u64, u64)> {
            while let Some(std::cmp::Reverse((t, tiekey, seq))) = self.heap.pop() {
                if !self.cancelled.remove(&seq) {
                    return Some((t, seq, tiekey));
                }
            }
            None
        }

        fn len(&self) -> usize {
            // Every tombstone names a still-queued event: the driver never
            // cancels an event it has seen popped.
            self.heap.len() - self.cancelled.len()
        }
    }

    /// Push one event into both the queue and the reference.
    fn push_both(q: &mut EventQueue, r: &mut Reference, t: u64, lane: Option<u64>) -> EventId {
        let tiekey = q.tiekey(q.next_seq, lane);
        let id = q.push(SimTime::from_nanos(t), lane, call());
        r.heap.push(std::cmp::Reverse((t, tiekey, id.0)));
        id
    }

    /// Drive the queue and the reference through one pseudo-random op and
    /// assert their answers match.
    fn differential_step(
        rng: &mut XorShift,
        now: &mut u64,
        live: &mut Vec<EventId>,
        popped: &mut std::collections::HashSet<u64>,
        q: &mut EventQueue,
        reference: &mut Reference,
    ) {
        let digest = |ev: &Event| (ev.time.as_nanos(), ev.seq, ev.tiekey);
        match rng.next() % 10 {
            // Pushes dominate, with a gap spectrum from exact ties to
            // far-future: the mix that exercises the bottom, the rungs and
            // the overflow. The last arm is the long horizon, small
            // same-instant groups up to 49 s out, which keeps the overflow
            // and the top rung populated while child rungs come and go.
            0..=4 => {
                let r = rng.next();
                let gap = match r % 18 {
                    0..=6 => 0,
                    7..=10 => r % 1_000,
                    11..=13 => r % 1_000_000,
                    14..=15 => r % 2_000_000_000,
                    _ => (r % 4_096) * 12_000_000,
                };
                let lane = match rng.next() % 4 {
                    0 => None,
                    l => Some(l),
                };
                live.push(push_both(q, reference, *now + gap, lane));
            }
            // A same-instant burst across lanes: the marker-storm shape.
            5 => {
                let t = *now + rng.next() % 50;
                for lane in 0..8u64 {
                    live.push(push_both(q, reference, t, Some(lane)));
                }
            }
            6..=8 => {
                let a = q.pop();
                let b = reference.pop();
                assert_eq!(a.as_ref().map(digest), b, "pop sequences diverged");
                if let Some(ev) = a {
                    *now = ev.time.as_nanos();
                    popped.insert(ev.seq);
                }
            }
            _ => {
                if !live.is_empty() {
                    // Stale cancellations (of already-popped events) are
                    // covered by the compaction tests; here they are
                    // skipped so `len` stays exact on both sides.
                    let id = live.swap_remove((rng.next() % live.len() as u64) as usize);
                    if !popped.remove(&id.0) {
                        q.cancel(id);
                        reference.cancelled.insert(id.0);
                    }
                }
            }
        }
        assert_eq!(q.len(), reference.len(), "len accounting diverged");
    }

    #[test]
    fn ladder_pops_like_a_reference_heap_over_1e5_mixed_ops() {
        for (seed, tiebreak) in [(0x5EED_0001u64, None), (0x5EED_0002, Some(42))] {
            let mut q = EventQueue::default();
            if let Some(s) = tiebreak {
                q.set_tiebreak_seed(s);
            }
            let mut reference = Reference::default();
            let mut rng = XorShift(seed);
            let mut now = 0u64;
            let mut live: Vec<EventId> = Vec::new();
            let mut popped = std::collections::HashSet::new();
            for _ in 0..100_000 {
                differential_step(
                    &mut rng,
                    &mut now,
                    &mut live,
                    &mut popped,
                    &mut q,
                    &mut reference,
                );
            }
            // Drain the survivors: the tails must agree too.
            loop {
                let a = q.pop().map(|e| (e.time.as_nanos(), e.seq, e.tiekey));
                let b = reference.pop();
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
