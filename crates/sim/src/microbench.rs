//! Op driver for the kernel event-queue microbenchmark.
//!
//! The sim crates forbid wall-clock reads (the determinism lint), so this
//! module only *drives* a queue through a deterministic operation mix;
//! the `ftmpi-bench kernel` subcommand wraps it with timing and emits
//! `BENCH_kernel.json`. Keeping the driver here lets it use the crate-private
//! [`EventQueue`](crate::event) directly — the benchmark measures the real
//! queue, tombstones, arena and all, not a stripped-down model of it.

use crate::event::{EventId, EventKind, EventQueue};
use crate::time::SimTime;

/// Event-time density profile of a drive run. The profiles bracket the
/// kernel's real workloads: coordinated-checkpoint marker storms put
/// thousands of events at one instant, chunked flows cluster within
/// microseconds, timers/retries scatter across seconds, and a 10⁵-rank
/// ring keeps small same-instant groups pending across its whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Density {
    /// Dense same-instant bursts: every event lands at the current time.
    SameTime,
    /// Near time: gaps up to one microsecond.
    NearTime,
    /// Wide spread: gaps up to two simulated seconds.
    WideSpread,
    /// Long horizon: 4 096 instants 12 ms apart, spanning 49 simulated
    /// seconds, so the steady population sits in small same-instant groups.
    Horizon,
}

impl Density {
    /// All profiles, in reporting order.
    pub const ALL: [Density; 4] = [
        Density::SameTime,
        Density::NearTime,
        Density::WideSpread,
        Density::Horizon,
    ];

    /// Short machine-readable name (used as the JSON key in
    /// `BENCH_kernel.json`).
    pub fn name(self) -> &'static str {
        match self {
            Density::SameTime => "same_time",
            Density::NearTime => "near_time",
            Density::WideSpread => "wide_spread",
            Density::Horizon => "horizon",
        }
    }

    /// Gap in nanoseconds between "now" and a pushed event, derived from one
    /// draw `r` of the driver's generator.
    fn gap(self, r: u64) -> u64 {
        match self {
            Density::SameTime => 0,
            Density::NearTime => r % 1_000,
            Density::WideSpread => r % 2_000_000_000,
            Density::Horizon => (r % 4_096) * 12_000_000,
        }
    }
}

/// xorshift64* step: the driver's deterministic generator (kept distinct
/// from the queue's own tiekey derivation, which the lane audit pins to the
/// event module).
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s >> 12;
    *s ^= *s << 25;
    *s ^= *s >> 27;
    s.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Drive `ops` operations against a fresh queue, holding the pending-event
/// count near `steady`. The mix is one push + one pop per iteration with a 1-in-16
/// chance of cancelling a random recent event (including already-popped ones
/// — stale timer cancellations are part of the real workload), with
/// compaction triggered at `compact_min_tombstones`.
///
/// Returns a checksum over the popped sequence so the work cannot be
/// optimized away and so tests can pin the popped sequence. Each pop's
/// position in that sequence is folded in, so the checksum pins the order
/// even where an event's own terms cancel (same-instant pops with no
/// perturbation seed have `tiekey == seq` at time 0).
pub fn drive(density: Density, steady: usize, ops: u64, compact_min_tombstones: usize) -> u64 {
    let mut q = EventQueue::default();
    q.set_compact_min_tombstones(compact_min_tombstones);
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (steady as u64) ^ ops.rotate_left(17);
    let mut now = 0u64;
    let mut checksum = 0u64;
    let mut pops = 0u64;
    let mut recent: Vec<EventId> = Vec::with_capacity(steady.max(1));
    let noop = || EventKind::Call(Box::new(|_| {}));
    for _ in 0..steady {
        let r = xorshift(&mut rng);
        let t = SimTime::from_nanos(now + density.gap(r));
        recent.push(q.push(t, Some(r % 64), noop()));
    }
    for _ in 0..ops {
        let r = xorshift(&mut rng);
        let t = SimTime::from_nanos(now + density.gap(r));
        let id = q.push(t, Some(r % 64), noop());
        if recent.len() == recent.capacity() {
            recent.swap_remove(0);
        }
        recent.push(id);
        if r.is_multiple_of(16) {
            let victim = recent[(xorshift(&mut rng) % recent.len() as u64) as usize];
            q.cancel(victim);
        }
        if let Some(ev) = q.pop() {
            now = ev.time.as_nanos();
            pops += 1;
            let position = pops.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            checksum ^=
                ev.seq.rotate_left((now % 63) as u32) ^ ev.tiekey ^ ev.seq.wrapping_mul(position);
        }
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checksums of the ladder's pop sequences. The `NearTime`,
    /// `WideSpread` and `Horizon` sequences are ones a binary-heap backend,
    /// run beside the ladder, also produced; `SameTime` was first pinned
    /// order-sensitively after that backend was gone.
    #[test]
    fn checksums_match_the_pinned_heap_equivalent_values() {
        let pinned = [
            (Density::SameTime, 0x0938_c99d_0668_b029),
            (Density::NearTime, 0xbc04_60aa_4974_ac12),
            (Density::WideSpread, 0x3dcb_3c65_0d50_3622),
            (Density::Horizon, 0xff3d_a7d0_535a_e8f9),
        ];
        for (density, want) in pinned {
            assert_eq!(
                drive(density, 512, 10_000, 64),
                want,
                "checksum moved for {density:?}"
            );
        }
    }

    #[test]
    fn checksum_is_deterministic_and_workload_sensitive() {
        let a = drive(Density::NearTime, 256, 5_000, 64);
        assert_eq!(a, drive(Density::NearTime, 256, 5_000, 64));
        assert_ne!(a, drive(Density::WideSpread, 256, 5_000, 64));
    }
}
