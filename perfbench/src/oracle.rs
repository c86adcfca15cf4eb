//! Correctness oracle: committed FNV-1a digests of every job's encoded
//! result (and of the figure record files), plus a tally of failed jobs.
//!
//! A job fails on a `JobError`, an invariant violation, leftover unexpected
//! or posted messages, a digest that differs from the committed one, or a
//! digest that differs between two repetitions of the same run.

use std::collections::BTreeMap;

use ftmpi_core::{JobError, JobResult};

/// 64-bit FNV-1a.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a job result's stable encoding.
pub(crate) fn result_digest(res: &JobResult) -> u64 {
    fnv1a64(res.encode().as_bytes())
}

/// Committed digests: one `<key> <16 hex digits>` line per job or record
/// file; `#` starts a comment line.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Golden {
    entries: BTreeMap<String, u64>,
}

impl Golden {
    /// Parse the committed file format.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("line {}: expected '<key> <digest>'", n + 1))?;
            let digest = u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("line {}: bad digest '{hex}': {e}", n + 1))?;
            if entries.insert(key.to_string(), digest).is_some() {
                return Err(format!("line {}: duplicate key '{key}'", n + 1));
            }
        }
        Ok(Golden { entries })
    }

    /// Compare `digest` with the committed entry for `key`.
    pub fn check(&self, key: &str, digest: u64) -> Result<(), String> {
        match self.entries.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!(
                "{key}: digest {digest:016x} differs from committed {want:016x}"
            )),
            None => Err(format!("{key}: no committed digest")),
        }
    }
}

/// Format one golden line.
pub fn golden_line(key: &str, digest: u64) -> String {
    format!("{key} {digest:016x}")
}

/// Failed items counted against attempted ones.
#[derive(Debug, Default)]
pub struct Tally {
    /// Items checked.
    pub attempted: u64,
    /// Items that failed a check.
    pub failed: u64,
    /// One line per failure, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one item with its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.reasons.push(why);
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The result-level checks every job gets: it ran, and it left no
/// unconsumed messages or unmatched receives. Returns the result digest.
pub(crate) fn check_result(label: &str, res: &Result<JobResult, JobError>) -> Result<u64, String> {
    let res = res
        .as_ref()
        .map_err(|e| format!("{label}: job error: {e}"))?;
    check_ok(label, res)
}

/// [`check_result`] for a job that ran.
pub(crate) fn check_ok(label: &str, res: &JobResult) -> Result<u64, String> {
    if res.leftover_unexpected != 0 || res.leftover_posted != 0 {
        return Err(format!(
            "{label}: {} unexpected and {} posted messages left over",
            res.leftover_unexpected, res.leftover_posted
        ));
    }
    Ok(result_digest(res))
}

/// Digests seen for each job across the repetitions of one run: every
/// repetition must reproduce the first one's digest bit for bit.
#[derive(Debug, Default)]
pub struct RepeatCheck {
    first: BTreeMap<String, u64>,
}

impl RepeatCheck {
    /// Record `digest` for `key`, failing if an earlier repetition saw a
    /// different one.
    pub fn check(&mut self, key: &str, digest: u64) -> Result<(), String> {
        match self.first.get(key) {
            Some(&seen) if seen != digest => Err(format!(
                "{key}: digest {digest:016x} differs from the run's first repetition {seen:016x}"
            )),
            Some(_) => Ok(()),
            None => {
                self.first.insert(key.to_string(), digest);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmpi_core::FtStats;
    use ftmpi_mpi::RuntimeStats;
    use ftmpi_sim::SimDuration;

    fn result(completion_ns: u64) -> JobResult {
        JobResult {
            completion: SimDuration::from_nanos(completion_ns),
            ft: FtStats::default(),
            rt: RuntimeStats::default(),
            events: 10,
            leftover_unexpected: 0,
            leftover_posted: 0,
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn golden_parses_and_rejects_malformed_lines() {
        let g = Golden::parse("# c\nfig5/nockpt 00000000000000ff\n\nx 1\n").unwrap();
        assert!(g.check("fig5/nockpt", 255).is_ok());
        assert!(g.check("x", 1).is_ok());
        assert!(Golden::parse("nodigest\n").is_err());
        assert!(Golden::parse("k zz\n").is_err());
        assert!(Golden::parse("k 1\nk 2\n").is_err());
        assert_eq!(
            Golden::parse(&golden_line("k", 0xabc))
                .unwrap()
                .check("k", 0xabc),
            Ok(())
        );
    }

    #[test]
    fn digest_mismatch_counts_toward_failed_frac() {
        let ok = result(1_000);
        let golden = Golden::parse(&golden_line("job/a", result_digest(&ok))).unwrap();
        let mut tally = Tally::default();
        let d = check_result("job/a", &Ok(ok)).unwrap();
        tally.record(golden.check("job/a", d));
        let drifted = result(1_001);
        let d = check_result("job/a", &Ok(drifted)).unwrap();
        tally.record(golden.check("job/a", d));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_frac(), 0.5);
        assert!(tally.reasons[0].contains("differs from committed"));
    }

    #[test]
    fn job_error_leftovers_and_unknown_keys_count_as_failed() {
        let mut tally = Tally::default();
        let err: Result<JobResult, JobError> = Err(JobError::Sim("deadlock".into()));
        tally.record(check_result("job/err", &err).map(|_| ()));
        let mut leaky = result(5);
        leaky.leftover_posted = 1;
        tally.record(check_result("job/leak", &Ok(leaky)).map(|_| ()));
        tally.record(Golden::default().check("job/new", 1));
        assert_eq!((tally.attempted, tally.failed), (3, 3));
        assert_eq!(tally.failed_frac(), 1.0);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn repetitions_must_agree() {
        let mut rep = RepeatCheck::default();
        assert!(rep.check("a", 1).is_ok());
        assert!(rep.check("a", 1).is_ok());
        assert!(rep.check("a", 2).is_err());
        assert!(rep.check("b", 2).is_ok());
    }
}
