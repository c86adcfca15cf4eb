//! Ladder queue: the event queue's O(1) backend (Tang, Goh & Thng,
//! "Ladder Queue: An O(1) priority queue structure for large-scale discrete
//! event simulation", ACM TOMACS 2005).
//!
//! Pending keys live in three tiers, nearest first:
//!
//! * **bottom** — a sorted `Vec<Key>` with a head cursor, holding every key
//!   at or below `drained_through`. Pop is a cursor bump; a push at or after
//!   the current tail (the overwhelmingly common case: same-instant events
//!   appended in `seq` order) is a `Vec::push`.
//! * **rungs** — a stack of calendars, each [`BUCKETS`] unsorted buckets over
//!   an inclusive time range `[start, last]`. A push goes to the deepest
//!   rung whose range holds its time, an O(1) bucket append. When the bottom
//!   drains, the deepest rung's first non-empty bucket is sorted and spilled
//!   into it, and `drained_through` moves to the latest key spilled; the
//!   bucket keeps taking pushes above that point until it is found empty. A
//!   rung whose buckets are used up is popped.
//! * **overflow** — an unsorted `Vec` of keys beyond the top rung.
//!
//! Once every rung has drained, the overflow is re-anchored: a new top rung
//! spans its whole horizon `[min, max]`, so every overflow key lands in one
//! pass, and the overflow afterwards collects only keys pushed beyond that
//! horizon. A bucket about to spill more than [`SPLIT_SPILL`] keys at two or
//! more distinct times spawns a **child rung** over exactly that bucket
//! instead, at O(bucket) cost; the parent's later buckets and the overflow
//! stay where they are. A key is therefore moved once when its
//! overflow is re-anchored and once per child rung spawned over it: at most
//! eight moves however far ahead it was scheduled, since a top rung's
//! buckets are at most 2⁵⁶ ns wide and each child is 256× narrower.
//!
//! Every structural decision depends only on the keys pushed so far, never
//! on wall-clock or memory state, and ordering is total on [`Key`]
//! `(time, tiekey, seq)` — identical to the heap backend, which is what the
//! differential test in `event.rs` pins.

/// Buckets per rung.
const BUCKETS: usize = 256;

/// A bucket about to spill more keys than this, at two or more distinct
/// times, spawns a child rung instead. The bound keeps each spill to a
/// narrow span of time: a push that falls inside the spilled span (at or
/// below `drained_through`, but not at the bottom's tail) pays a binary
/// search and an O(len) insert into the sorted bottom instead of an O(1)
/// bucket append. On the fig5 and fig7 `--fast` jobs, 2.5–2.7% of pushes
/// take that path at 16, 7–15% at 32 and 37–40% at 64.
const SPLIT_SPILL: usize = 16;

/// Scheduling key: the total event order `(time, tiekey, seq)` plus the
/// arena slot of the payload. Sorting moves only this 32-byte `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    pub time_ns: u64,
    pub tiekey: u64,
    pub seq: u64,
    pub slot: u32,
}

/// One calendar over the inclusive range `[start, last]`, in buckets of
/// `width = (last − start) / BUCKETS + 1` ns. Buckets below `cur` are empty:
/// spilled, spawned into a child, or skipped. Bucket `cur` holds only keys
/// above `drained_through`.
struct Rung {
    buckets: Vec<Vec<Key>>,
    start: u64,
    last: u64,
    width: u64,
    cur: usize,
}

impl Rung {
    /// Append `k`, whose time lies in `[start, last]` — which keeps the
    /// bucket index below [`BUCKETS`].
    fn place(&mut self, k: Key) {
        self.buckets[((k.time_ns - self.start) / self.width) as usize].push(k);
    }
}

pub(crate) struct LadderQueue {
    /// Sorted ascending; `bottom[head..]` are pending.
    bottom: Vec<Key>,
    head: usize,
    /// Times at or below this belong to the bottom: the latest key spilled
    /// into it. `None` before the first spill.
    drained_through: Option<u64>,
    /// `rungs[..depth]` are live, top first, each child covering one
    /// bucket of its parent. Popped rungs keep their bucket storage for the
    /// next spawn.
    rungs: Vec<Rung>,
    depth: usize,
    /// Unsorted keys beyond the top rung's `last`.
    overflow: Vec<Key>,
    len: usize,
    /// Keys moved by re-anchors and spawns (the amortized-cost test).
    #[cfg(test)]
    replaced: u64,
}

impl LadderQueue {
    pub fn new() -> LadderQueue {
        LadderQueue {
            bottom: Vec::new(),
            head: 0,
            drained_through: None,
            rungs: Vec::new(),
            depth: 0,
            overflow: Vec::new(),
            len: 0,
            #[cfg(test)]
            replaced: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn push(&mut self, k: Key) {
        self.len += 1;
        if Some(k.time_ns) <= self.drained_through {
            // In the drained past: the key must enter the sorted bottom.
            // Appending covers the dense same-time case (new events carry
            // fresh `seq`s, sorting at or after the current tail); anything
            // else binary-searches into the live suffix.
            if self.bottom.last().is_none_or(|tail| *tail <= k) {
                self.bottom.push(k);
            } else {
                let at = match self.bottom[self.head..].binary_search(&k) {
                    Ok(i) | Err(i) => self.head + i,
                };
                self.bottom.insert(at, k);
            }
            return;
        }
        // Every live rung's unspilled range starts at or below any time
        // past `drained_through`, so the first rung whose `last` reaches
        // the key, deepest first, holds it.
        match self.rungs[..self.depth]
            .iter_mut()
            .rev()
            .find(|r| k.time_ns <= r.last)
        {
            Some(rung) => rung.place(k),
            None => self.overflow.push(k),
        }
    }

    pub fn peek(&mut self) -> Option<Key> {
        if self.ensure_head() {
            Some(self.bottom[self.head])
        } else {
            None
        }
    }

    pub fn pop(&mut self) -> Option<Key> {
        if !self.ensure_head() {
            return None;
        }
        let k = self.bottom[self.head];
        self.head += 1;
        self.len -= 1;
        // Reclaim the consumed prefix once it dominates the vector, so a
        // long run through one spilled bucket doesn't pin its memory.
        if self.head >= 64 && self.head * 2 >= self.bottom.len() {
            self.bottom.drain(..self.head);
            self.head = 0;
        }
        Some(k)
    }

    /// Make `bottom[head]` the queue minimum: spill the deepest rung's next
    /// bucket, spawning a child over a dense one, popping used-up rungs and
    /// re-anchoring from the overflow once none is left. `false` iff empty.
    fn ensure_head(&mut self) -> bool {
        while self.head == self.bottom.len() {
            self.bottom.clear();
            self.head = 0;
            let Some(rung) = self.depth.checked_sub(1).map(|d| &mut self.rungs[d]) else {
                if self.overflow.is_empty() {
                    return false;
                }
                let (lo, hi) = self.overflow.iter().fold((u64::MAX, 0), |(lo, hi), k| {
                    (lo.min(k.time_ns), hi.max(k.time_ns))
                });
                let keys = std::mem::take(&mut self.overflow);
                self.push_rung(lo, hi, keys);
                continue;
            };
            let Some(i) = (rung.cur..BUCKETS).find(|&i| !rung.buckets[i].is_empty()) else {
                self.depth -= 1;
                continue;
            };
            // Bucket `i` stays open after a spill: pushes above the drain
            // point keep landing in it until it is found empty here.
            rung.cur = i;
            let bucket = &mut rung.buckets[i];
            if bucket.len() > SPLIT_SPILL {
                // Too many to spill: spawn a child over distinct times, or
                // hand a same-instant group's storage to the bottom. Either
                // way the bucket lets go of its large buffer, so rungs
                // retain at most `SPLIT_SPILL`-key buffers across laps.
                let keys = std::mem::take(bucket);
                if keys.iter().any(|k| k.time_ns != keys[0].time_ns) {
                    // The child covers the bucket, clipped to this rung's
                    // range: later times belong to the ancestors. Bucket `i`
                    // holds a key, so `i · width ≤ last − start`.
                    rung.cur = i + 1;
                    let lo = rung.start + i as u64 * rung.width;
                    let hi = lo.saturating_add(rung.width - 1).min(rung.last);
                    self.push_rung(lo, hi, keys);
                    continue;
                }
                self.bottom = keys;
            } else {
                // Small buffers stay in the rung, recycled on the next lap.
                self.bottom.append(bucket);
            }
            self.bottom.sort_unstable();
            self.drained_through = self.bottom.last().map(|k| k.time_ns);
        }
        true
    }

    /// Push a rung over `[start, last]` below the deepest live one and move
    /// `keys`, all within that range, into it.
    fn push_rung(&mut self, start: u64, last: u64, keys: Vec<Key>) {
        if self.rungs.len() == self.depth {
            self.rungs.push(Rung {
                buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
                start: 0,
                last: 0,
                width: 1,
                cur: 0,
            });
        }
        let rung = &mut self.rungs[self.depth];
        self.depth += 1;
        rung.start = start;
        rung.last = last;
        rung.width = (last - start) / BUCKETS as u64 + 1;
        rung.cur = 0;
        #[cfg(test)]
        {
            self.replaced += keys.len() as u64;
        }
        for k in keys {
            rung.place(k);
        }
    }

    /// Move every pending key into `out` (compaction support). The queue is
    /// left empty but keeps its rungs, so a rebuild re-places keys where
    /// they were.
    pub fn drain_into(&mut self, out: &mut Vec<Key>) {
        out.extend_from_slice(&self.bottom[self.head..]);
        self.bottom.clear();
        self.head = 0;
        for rung in &mut self.rungs[..self.depth] {
            for bucket in &mut rung.buckets[rung.cur..] {
                out.append(bucket);
            }
        }
        out.append(&mut self.overflow);
        self.len = 0;
    }

    /// Rebuild from a key set (compaction support).
    pub fn rebuild(&mut self, keys: Vec<Key>) {
        debug_assert_eq!(self.len, 0, "rebuild on a non-empty ladder");
        for k in keys {
            self.push(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn key(time_ns: u64, seq: u64) -> Key {
        Key {
            time_ns,
            tiekey: seq,
            seq,
            slot: seq as u32,
        }
    }

    fn drain(q: &mut LadderQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop()).map(|k| k.seq).collect()
    }

    /// xorshift64*: the tests' deterministic generator.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x >> 12;
        *x ^= *x << 25;
        *x ^= *x >> 27;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A ladder driven in lockstep with a model heap; every pop is checked.
    struct Checked {
        q: LadderQueue,
        model: BinaryHeap<Reverse<Key>>,
        seq: u64,
    }

    impl Checked {
        fn new() -> Checked {
            Checked {
                q: LadderQueue::new(),
                model: BinaryHeap::new(),
                seq: 0,
            }
        }

        fn push(&mut self, time_ns: u64) {
            let k = key(time_ns, self.seq);
            self.seq += 1;
            self.q.push(k);
            self.model.push(Reverse(k));
        }

        fn pop(&mut self) -> Key {
            let want = self.model.pop().map(|Reverse(k)| k);
            assert_eq!(self.q.pop(), want);
            assert_eq!(self.q.len(), self.model.len());
            want.expect("pop from an empty model")
        }

        fn finish(mut self) {
            while !self.model.is_empty() {
                self.pop();
            }
            assert!(self.q.pop().is_none());
        }
    }

    /// 100 keys 1 ns apart from t = 1 000, plus one at 1 000 000. The top
    /// rung covers `[1_000, 1_000_000]` in 3 903 ns buckets; its bucket 0
    /// is dense and spawns a child over `[1_000, 4_902]` in 16 ns buckets,
    /// whose first bucket spills. Returns with the first key popped.
    fn with_live_child() -> Checked {
        let mut c = Checked::new();
        for t in 1_000..1_100 {
            c.push(t);
        }
        c.push(1_000_000);
        assert_eq!(c.pop().time_ns, 1_000);
        assert_eq!(c.q.depth, 2);
        let child = &c.q.rungs[1];
        assert_eq!((child.start, child.last, child.width), (1_000, 4_902, 16));
        assert_eq!(c.q.drained_through, Some(1_015));
        c
    }

    #[test]
    fn pops_in_total_key_order() {
        let mut q = LadderQueue::new();
        // Mixed placement: same-time burst, near future, and far future.
        let times = [5u64, 5, 5, 900, 2_500, 40_000_000, 40_000_000, 7];
        for (seq, t) in times.iter().enumerate() {
            q.push(key(*t, seq as u64));
        }
        assert_eq!(q.len(), times.len());
        assert_eq!(drain(&mut q), vec![0, 1, 2, 7, 3, 4, 5, 6]);
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pushes_below_the_drain_point_sort_into_the_bottom() {
        let mut q = LadderQueue::new();
        q.push(key(10, 0));
        q.push(key(10, 1));
        q.push(key(500, 2));
        assert_eq!(q.pop().unwrap().seq, 0); // spills the instant 10
        assert_eq!(q.drained_through, Some(10));
        // A same-instant follow-up (the dense hot path) appends; an earlier
        // time lands before the pending head.
        q.push(key(10, 3));
        q.push(key(5, 4));
        assert_eq!(drain(&mut q), vec![4, 1, 3, 2]);
    }

    #[test]
    fn reanchor_handles_wide_and_extreme_times() {
        let mut q = LadderQueue::new();
        q.push(key(u64::MAX, 0));
        q.push(key(1 << 50, 1));
        q.push(key(3, 2));
        assert_eq!(drain(&mut q), vec![2, 1, 0]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order_against_a_model_heap() {
        let mut c = Checked::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut now = 0u64;
        for _ in 0..20_000 {
            let r = xorshift(&mut x);
            if !r.is_multiple_of(4) {
                // Push at now + a spread of gaps: 0 (ties), ns, µs, ms.
                let gap = match r % 16 {
                    0..=7 => 0,
                    8..=11 => r % 1_000,
                    12..=14 => r % 1_000_000,
                    _ => r % 1_000_000_000,
                };
                c.push(now + gap);
            } else if !c.model.is_empty() {
                now = c.pop().time_ns;
            }
        }
        c.finish();
    }

    #[test]
    fn dense_buckets_spawn_child_rungs_instead_of_flooding_the_bottom() {
        // The near-time steady state that motivates spawning: thousands of
        // events inside one microsecond, popped and replenished at the
        // head, with an occasional key a millisecond out so the rung stack
        // keeps parents and children live at once.
        let mut c = Checked::new();
        let mut x = 0xdeadbeefcafef00du64;
        for _ in 0..4_000 {
            c.push(xorshift(&mut x) % 1_000);
        }
        let mut now = 0u64;
        for _ in 0..8_000 {
            let r = xorshift(&mut x);
            c.push(
                now + if r.is_multiple_of(32) {
                    r % 1_000_000
                } else {
                    r % 1_000
                },
            );
            now = c.pop().time_ns;
            assert!(c.q.bottom.len() - c.q.head <= SPLIT_SPILL + 1);
        }
        c.finish();
    }

    #[test]
    fn push_into_a_parent_bucket_while_a_child_is_live() {
        let mut c = with_live_child();
        c.push(500_000);
        c.push(4_903);
        c.push(1_050);
        // Past the child's range the key belongs to its parent's later
        // buckets, not to the child.
        assert_eq!(c.q.rungs[0].buckets[127].len(), 1);
        assert_eq!(c.q.rungs[0].buckets[1].len(), 1);
        assert_eq!(c.q.rungs[1].buckets[3].len(), 17); // 1_048..=1_063 and 1_050
        c.finish();
    }

    #[test]
    fn a_key_at_a_child_rungs_last_instant_stays_in_the_child() {
        let mut c = with_live_child();
        c.push(4_902); // the child's last instant: its bucket 243
        c.push(4_903); // one past: the parent's bucket 1
        assert_eq!(c.q.rungs[1].buckets[243].len(), 1);
        assert_eq!(c.q.rungs[0].buckets[1].len(), 1);
        while c.pop().time_ns != 4_902 {}
        // The drain point stops at the child's end, so a second key at
        // 4 903 queues behind the first one in the parent instead of
        // jumping ahead through the bottom.
        assert_eq!(c.q.drained_through, Some(4_902));
        c.push(4_903);
        assert_eq!(c.q.rungs[0].buckets[1].len(), 2);
        c.finish();
    }

    #[test]
    fn a_child_of_a_clipped_last_bucket_ends_where_its_parent_does() {
        // The top rung [0, 10_219] has 40 ns buckets; bucket 255 would run
        // to 10 239 but the rung ends at 10 219, and so must its child.
        let mut c = Checked::new();
        c.push(0);
        for t in 10_200..=10_219 {
            c.push(t);
        }
        assert_eq!(c.pop().time_ns, 0);
        c.push(10_225); // beyond the top rung: overflow
        assert_eq!(c.pop().time_ns, 10_200);
        assert_eq!((c.q.rungs[1].start, c.q.rungs[1].last), (10_200, 10_219));
        c.push(10_230); // must queue behind 10 225 in the overflow
        assert_eq!(c.q.overflow.len(), 2);
        c.finish();
    }

    #[test]
    fn push_below_the_drain_point_after_a_child_is_used_up() {
        let mut c = with_live_child();
        for _ in 1_001..1_100 {
            c.pop();
        }
        assert_eq!(c.q.depth, 2, "the used-up child is popped lazily");
        c.push(700_000);
        assert_eq!(c.pop().time_ns, 700_000);
        assert_eq!(c.q.depth, 1);
        assert_eq!(c.q.drained_through, Some(700_000));
        c.push(600_000);
        c.push(700_000);
        c.push(2_000);
        assert_eq!(c.q.bottom.len() - c.q.head, 3);
        // Parent bucket 179 spilled up to 700 000 and stays open above it.
        c.push(700_001);
        assert_eq!(
            (c.q.rungs[0].cur, c.q.rungs[0].buckets[179].len()),
            (179, 1)
        );
        c.push(2_000_000); // beyond the top rung: overflow
        assert_eq!(c.q.overflow.len(), 1);
        c.finish();
    }

    #[test]
    fn an_open_bucket_spawns_a_child_once_it_refills() {
        let mut c = Checked::new();
        c.push(1_000);
        c.push(1_000_000);
        assert_eq!(c.pop().time_ns, 1_000); // spills bucket 0 of [1_000, 4_902]
        assert_eq!((c.q.rungs[0].cur, c.q.drained_through), (0, Some(1_000)));
        for t in 1_001..=1_020 {
            c.push(t);
        }
        c.push(2_000);
        assert_eq!(c.q.rungs[0].buckets[0].len(), 21);
        assert_eq!(c.pop().time_ns, 1_001);
        let child = &c.q.rungs[1];
        assert_eq!((child.start, child.last, child.width), (1_000, 4_902, 16));
        c.push(1_001); // below the drain point again: the bottom
        c.push(4_903); // the parent's bucket 1
        c.finish();
    }

    #[test]
    fn drain_and_rebuild_with_a_live_child_rung() {
        let mut c = with_live_child();
        c.push(4_903);
        c.push(3_000_000);
        let mut keys = Vec::new();
        c.q.drain_into(&mut keys);
        assert_eq!(keys.len(), c.model.len());
        assert_eq!(c.q.len(), 0);
        keys.retain(|k| k.seq % 3 != 0);
        c.model.retain(|Reverse(k)| k.seq % 3 != 0);
        c.q.rebuild(keys);
        assert_eq!(c.q.depth, 2, "a rebuild keeps the live child");
        c.push(1_050);
        c.finish();
    }

    #[test]
    fn max_times_with_width_one_rungs() {
        let mut c = Checked::new();
        c.push(0);
        c.push(1 << 40);
        // The top rung spans [0, u64::MAX]; the dense tail spawns children
        // down to width 1, and the 102-key group at u64::MAX spills as one.
        for t in u64::MAX - 99..=u64::MAX {
            c.push(t);
            c.push(t);
        }
        for _ in 0..100 {
            c.push(u64::MAX);
        }
        assert_eq!(c.pop().time_ns, 0);
        assert_eq!(c.pop().time_ns, 1 << 40);
        assert_eq!(c.pop().time_ns, u64::MAX - 99);
        assert_eq!(c.q.rungs[c.q.depth - 1].width, 1);
        let mut x = 7u64;
        while c.pop().time_ns < u64::MAX {
            if xorshift(&mut x).is_multiple_of(2) {
                c.push(u64::MAX);
            }
        }
        assert_eq!(c.q.drained_through, Some(u64::MAX));
        c.push(u64::MAX);
        c.push(u64::MAX - 1);
        c.finish();
    }

    #[test]
    fn moves_per_push_stay_constant_over_a_long_horizon() {
        // The 10⁵-rank ring's shape: ~16 k pending keys in small
        // same-instant groups over 49 s (4 096 instants 12 ms apart),
        // churned pop-one/push-one. A single calendar re-anchored at the
        // overflow minimum re-scans most of the population on every lap.
        let mut q = LadderQueue::new();
        let mut x = 0x5EED_0003u64;
        let mut now = 0u64;
        let pushes = 100_000u64;
        for seq in 0..pushes {
            let gap = (xorshift(&mut x) % 4_096) * 12_000_000;
            q.push(key(now + gap, seq));
            if seq >= 16_384 {
                now = q.pop().expect("non-empty").time_ns;
            }
        }
        assert!(
            q.replaced <= 8 * pushes,
            "{:.1} keys moved per push",
            q.replaced as f64 / pushes as f64
        );
    }
}
