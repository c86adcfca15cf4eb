//! Order-canonical trace fingerprints for the race detector.
//!
//! Two runs of the same configuration under different same-time event
//! tiebreaks execute independent events in a different order, which
//! permutes trace records *within* a virtual instant without changing the
//! protocol's behaviour. The fingerprint therefore buckets protocol events
//! by identical timestamp and sorts each bucket before hashing: schedules
//! that differ only in the order of independent same-instant events hash
//! identically, while any semantic divergence (different timings, counts,
//! or event contents) changes the digest.
//!
//! Only protocol events contribute. Kernel records (spawn/exit/kill) carry
//! pids, and restart-time spawn ties can permute pid assignment without
//! any semantic difference.

use ftmpi_sim::{TraceEvent, TraceKind};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn flush_bucket(h: &mut u64, time: u64, bucket: &mut Vec<String>) {
    bucket.sort_unstable();
    mix(h, &time.to_le_bytes());
    for s in bucket.drain(..) {
        mix(h, s.as_bytes());
        mix(h, b"\n");
    }
}

/// Plain FNV-1a (64-bit) over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    mix(&mut h, bytes);
    h
}

/// FNV-1a digest of a trace's protocol content, canonical under
/// permutations of same-instant events.
pub fn trace_fingerprint(trace: &[TraceEvent]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut bucket: Vec<String> = Vec::new();
    let mut bucket_time: Option<u64> = None;
    for te in trace {
        if let TraceKind::Proto(ev) = te.kind {
            let t = te.time.as_nanos();
            if bucket_time != Some(t) {
                if let Some(pt) = bucket_time {
                    flush_bucket(&mut h, pt, &mut bucket);
                }
                bucket_time = Some(t);
            }
            bucket.push(format!("{ev:?}"));
        }
    }
    if let Some(pt) = bucket_time {
        flush_bucket(&mut h, pt, &mut bucket);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmpi_sim::{ProtoEvent, SimTime};

    fn te(t: u64, ev: ProtoEvent) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(t),
            kind: TraceKind::Proto(ev),
            pid: None,
            detail: String::new(),
        }
    }

    #[test]
    fn same_instant_permutations_hash_identically() {
        let a = ProtoEvent::WaveStart { wave: 1 };
        let b = ProtoEvent::Fork {
            wave: 1,
            rank: 0,
            ops: 7,
        };
        let fwd = vec![te(10, a), te(10, b), te(20, a)];
        let rev = vec![te(10, b), te(10, a), te(20, a)];
        assert_eq!(trace_fingerprint(&fwd), trace_fingerprint(&rev));
    }

    #[test]
    fn cross_instant_moves_change_the_hash() {
        let a = ProtoEvent::WaveStart { wave: 1 };
        let b = ProtoEvent::Fork {
            wave: 1,
            rank: 0,
            ops: 7,
        };
        let x = vec![te(10, a), te(20, b)];
        let y = vec![te(10, b), te(20, a)];
        assert_ne!(trace_fingerprint(&x), trace_fingerprint(&y));
    }

    #[test]
    fn content_changes_change_the_hash() {
        let base = vec![te(10, ProtoEvent::WaveCommit { wave: 1 })];
        let other = vec![te(10, ProtoEvent::WaveCommit { wave: 2 })];
        assert_ne!(trace_fingerprint(&base), trace_fingerprint(&other));
        assert_ne!(trace_fingerprint(&base), trace_fingerprint(&[]));
    }
}
