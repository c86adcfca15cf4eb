//! `ftmpi-check explore`: exhaustive schedule exploration (DPOR).
//!
//! The perturbation pass (PR 2) *samples* same-instant event orders with
//! random seeds; this module *enumerates* them. A schedule is identified
//! by its decision prefix — the list of candidate indices a
//! [`ftmpi_sim::PrescribedPolicy`] feeds the kernel, canonical (index 0)
//! beyond the prefix — so the schedule space is a tree of prescriptions
//! explored depth-first:
//!
//! 1. Run the current prescription to completion; record its trace, its
//!    [`ScheduleLog`] (every choice point and executed step), its
//!    canonical fingerprint, and its invariant-checker verdict.
//! 2. For every decision at or beyond the prescription's end, consider
//!    each non-chosen candidate:
//!    * **Sleep/memo pruning**: the pair `(state fingerprint at the
//!      decision, candidate identity)` is memoized; a pair already
//!      expanded anywhere in the tree is not expanded again.
//!    * **Persistent-set pruning**: if the candidate's own effect window
//!      (observed later in this very run — every same-instant candidate
//!      executes within the instant) commutes with every step that ran
//!      between the decision and the candidate's own execution, then
//!      running the candidate first yields a Mazurkiewicz-equivalent
//!      execution of this run, and the branch is pruned.
//!    * Otherwise the branch `prefix + [candidate]` joins the frontier.
//! 3. A *violation* is an invariant-checker failure, a run error (a
//!    schedule-induced deadlock), or a canonical-fingerprint divergence
//!    from the prescription-free run — the observable outcome depended
//!    on scheduler freedom, which the determinism contract forbids.
//!    Violating schedules are shrunk to a minimal prescription (greedily
//!    zeroing choices from the back, then dropping the canonical tail)
//!    and dumped as a replayable `key=value` artifact.
//!
//! The state fingerprint is the trace-prefix fingerprint
//! ([`crate::fingerprint::trace_fingerprint`]), which buckets and sorts
//! same-instant records — so commuting reorders collapse to one state,
//! and proto-silent steps don't split states at all. It is an
//! *abstraction*: exploration is exhaustive relative to this reduction
//! (memoized states are not re-expanded), which is exactly the
//! partial-order-reduction bargain.
//!
//! Exploration pops every same-instant candidate out of the queue and
//! pushes the losers back, exercising the ladder's push-below-drained-
//! minimum path on every decision; the state counts of the clean configs
//! are pinned as literals (`tests/explore.rs`, `tests/golden.rs`), captured
//! while a binary-heap queue backend still ran beside the ladder and both
//! visited exactly these states.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use ftmpi_core::{
    run_job_explored, FtConfig, JobError, JobSpec, ProtocolChoice, RunOptions, ScheduleLog,
};
use ftmpi_mpi::RaceFixture;
use ftmpi_sim::{Candidate, ProtoEvent, SimDuration, SimTime, TraceEvent, TraceKind};

use crate::fingerprint::trace_fingerprint;
use crate::hb::commutes;
use crate::invariants::check_trace;
use crate::suite::{ring_app, stream_app};

/// One explorable configuration: a small job plus the fixture (if any)
/// that re-opens a historical race in it.
pub struct ExploreConfig {
    /// Stable config name (artifact and report key).
    pub name: &'static str,
    /// Protocol under test (redundant with the spec; kept for reports).
    pub protocol: ProtocolChoice,
    /// Ranks (redundant with the spec; kept for reports).
    pub nranks: usize,
    /// The race fixture driving this config, if any.
    pub fixture: Option<RaceFixture>,
    /// Whether exploration is expected to find a violation.
    pub expect_violation: bool,
    mk: fn() -> Result<JobSpec, JobError>,
}

impl ExploreConfig {
    /// Build the config's job spec (may run deterministic probe
    /// simulations — the laneless-markers fixture tunes its wave delay so
    /// a marker provably collides with a data delivery).
    pub fn spec(&self) -> Result<JobSpec, JobError> {
        (self.mk)()
    }
}

/// Exploration budget and mode.
pub struct ExploreOptions {
    /// Abort (non-exhausted) after this many complete runs.
    pub max_runs: u64,
    /// Minimize violating schedules before reporting.
    pub shrink: bool,
    /// Where to dump reproducer artifacts (`None`: don't).
    pub artifact_dir: Option<PathBuf>,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            max_runs: 4000,
            shrink: true,
            artifact_dir: None,
        }
    }
}

/// A violating schedule, minimized and (optionally) dumped to disk.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// The prescription that first exhibited the violation.
    pub schedule: Vec<usize>,
    /// The shrunk prescription (still violating; no shorter zero-suffix
    /// form exists under the greedy shrinker).
    pub minimized: Vec<usize>,
    /// What went wrong: `divergence`, `invariant:<...>`, or `error:<...>`.
    pub kind: String,
    /// Reproducer file, when an artifact dir was configured.
    pub artifact: Option<PathBuf>,
}

/// The result of exploring one config.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Config name.
    pub name: String,
    /// Complete runs executed (including canonical and shrink runs).
    pub runs: u64,
    /// Distinct terminal fingerprints observed (1 for a deterministic,
    /// race-free config).
    pub distinct_outcomes: usize,
    /// Most decisions recorded by any single run.
    pub max_decisions: usize,
    /// Branches pruned by the commutation argument.
    pub pruned: u64,
    /// Branches skipped by the state-memo.
    pub deduped: u64,
    /// `true` when the frontier emptied within budget.
    pub exhausted: bool,
    /// First violation found, if any.
    pub violation: Option<ViolationReport>,
    /// Wall-clock milliseconds spent.
    pub wall_ms: u64,
    /// Terminal fingerprint of the canonical schedule.
    pub canonical_fp: u64,
}

/// One run's classification, internal to the DFS.
struct RunOutcome {
    fp: u64,
    trace: Vec<TraceEvent>,
    log: ScheduleLog,
    /// `Some(kind)` when the run violated (invariant or error). Divergence
    /// is judged by the caller against the canonical fingerprint.
    broken: Option<String>,
}

fn run_one(
    cfg: &ExploreConfig,
    spec: &JobSpec,
    prescription: Vec<usize>,
) -> Result<RunOutcome, JobError> {
    let run_opts = RunOptions {
        trace: true,
        tiebreak_seed: None,
        schedule: Some(prescription.clone()),
        race_fixture: cfg.fixture,
    };
    match run_job_explored(spec.clone(), run_opts) {
        Ok((_res, trace, log)) => {
            let report = check_trace(cfg.protocol, cfg.nranks, &trace);
            let broken = report
                .violations
                .first()
                .map(|v| format!("invariant:{v:?}"));
            Ok(RunOutcome {
                fp: trace_fingerprint(&trace),
                trace,
                log,
                broken,
            })
        }
        Err(e) if prescription.is_empty() => Err(e),
        Err(e) => Ok(RunOutcome {
            // A schedule-induced failure (e.g. a reorder deadlocking the
            // protocol) is a violation of the strongest kind, not a tool
            // error: record it and keep the canonical run authoritative.
            fp: 0,
            trace: Vec::new(),
            log: ScheduleLog::default(),
            broken: Some(format!("error:{e}")),
        }),
    }
}

/// The proto events of step `i`'s effect window.
fn step_effects(trace: &[TraceEvent], log: &ScheduleLog, i: usize) -> Vec<ProtoEvent> {
    let lo = log.steps[i].trace_lo;
    let hi = log
        .steps
        .get(i + 1)
        .map(|s| s.trace_lo)
        .unwrap_or(trace.len());
    trace[lo..hi]
        .iter()
        .filter_map(|te| match te.kind {
            TraceKind::Proto(ev) => Some(ev),
            _ => None,
        })
        .collect()
}

/// A candidate's run-independent identity at a decision: its lane, its
/// kind, and its occurrence index among look-alike candidates (sequence
/// numbers are an accident of scheduling history and would defeat the
/// memo across different prefixes).
type CandidateDigest = (Option<u64>, ftmpi_sim::CandidateKind, usize);

fn candidate_digest(cands: &[Candidate], idx: usize) -> CandidateDigest {
    let c = cands[idx];
    let occ = cands[..idx]
        .iter()
        .filter(|o| o.lane == c.lane && o.kind == c.kind)
        .count();
    (c.lane, c.kind, occ)
}

/// Explore one config's schedule space exhaustively (up to the budget).
pub fn explore(cfg: &ExploreConfig, opts: &ExploreOptions) -> Result<ExploreOutcome, JobError> {
    let wall = std::time::Instant::now();
    let spec = cfg.spec()?;
    let mut outcome = ExploreOutcome {
        name: cfg.name.to_string(),
        runs: 0,
        distinct_outcomes: 0,
        max_decisions: 0,
        pruned: 0,
        deduped: 0,
        exhausted: false,
        violation: None,
        wall_ms: 0,
        canonical_fp: 0,
    };
    let mut fps: HashSet<u64> = HashSet::new();
    let mut expanded: HashSet<(u64, CandidateDigest)> = HashSet::new();
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    let mut canonical_fp: Option<u64> = None;

    while let Some(prescription) = frontier.pop() {
        if outcome.runs >= opts.max_runs {
            frontier.clear();
            break;
        }
        let run = run_one(cfg, &spec, prescription.clone())?;
        outcome.runs += 1;
        outcome.max_decisions = outcome.max_decisions.max(run.log.decisions.len());
        let canonical = *canonical_fp.get_or_insert(run.fp);
        if run.broken.is_none() {
            fps.insert(run.fp);
        }
        let kind = run
            .broken
            .clone()
            .or_else(|| (run.fp != canonical).then(|| "divergence".to_string()));
        if let Some(kind) = kind {
            let minimized = if opts.shrink {
                shrink(cfg, &spec, canonical, &mut outcome.runs, &prescription)
            } else {
                prescription.clone()
            };
            let artifact = opts
                .artifact_dir
                .as_ref()
                .map(|dir| write_artifact(dir, cfg, &minimized, &kind, canonical, run.fp));
            outcome.violation = Some(ViolationReport {
                schedule: prescription,
                minimized,
                kind,
                artifact,
            });
            break;
        }
        // Expand every decision this run made beyond its prescription.
        let step_of: std::collections::HashMap<u64, usize> = run
            .log
            .steps
            .iter()
            .enumerate()
            .map(|(i, s)| (s.seq, i))
            .collect();
        for d in prescription.len()..run.log.decisions.len() {
            let dec = &run.log.decisions[d];
            let state_fp = trace_fingerprint(&run.trace[..run.log.steps[dec.step].trace_lo]);
            for (a, _) in dec.candidates.iter().enumerate() {
                if a == dec.chosen {
                    continue;
                }
                let key = (state_fp, candidate_digest(&dec.candidates, a));
                if expanded.contains(&key) {
                    outcome.deduped += 1;
                    continue;
                }
                expanded.insert(key);
                // Persistent-set argument: if the candidate commutes with
                // every step that executed between this decision and its
                // own execution in this run, candidate-first is
                // Mazurkiewicz-equivalent to this run — prune.
                let alt = dec.candidates[a];
                let equivalent = step_of.get(&alt.seq).is_some_and(|&sa| {
                    let alt_fx = step_effects(&run.trace, &run.log, sa);
                    (dec.step..sa)
                        .all(|i| commutes(&alt_fx, &step_effects(&run.trace, &run.log, i)))
                });
                if equivalent {
                    outcome.pruned += 1;
                    continue;
                }
                let mut branch: Vec<usize> =
                    run.log.decisions[..d].iter().map(|x| x.chosen).collect();
                branch.push(a);
                frontier.push(branch);
            }
        }
    }
    outcome.exhausted = frontier.is_empty() && outcome.violation.is_none();
    outcome.distinct_outcomes = fps.len();
    outcome.canonical_fp = canonical_fp.unwrap_or(0);
    outcome.wall_ms = wall.elapsed().as_millis() as u64;
    Ok(outcome)
}

/// `true` when `prescription` still exhibits a violation.
fn violates(
    cfg: &ExploreConfig,
    spec: &JobSpec,
    canonical: u64,
    runs: &mut u64,
    prescription: &[usize],
) -> bool {
    *runs += 1;
    match run_one(cfg, spec, prescription.to_vec()) {
        Ok(r) => r.broken.is_some() || r.fp != canonical,
        Err(_) => false,
    }
}

/// Greedy shrinker: set nonzero choices to 0 (back to front) while the
/// violation persists, to a fixpoint; trailing zeros are then dropped —
/// a prescription is canonical beyond its end, so they are no-ops.
fn shrink(
    cfg: &ExploreConfig,
    spec: &JobSpec,
    canonical: u64,
    runs: &mut u64,
    schedule: &[usize],
) -> Vec<usize> {
    let mut best: Vec<usize> = schedule.to_vec();
    loop {
        let mut improved = false;
        for i in (0..best.len()).rev() {
            if best[i] == 0 {
                continue;
            }
            let mut cand = best.clone();
            cand[i] = 0;
            if violates(cfg, spec, canonical, runs, &cand) {
                best = cand;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    while best.last() == Some(&0) {
        best.pop();
    }
    best
}

/// Serialize a reproducer (see [`parse_artifact`] for the format) into
/// `dir/<config>.default.repro`, creating the directory as needed.
fn write_artifact(
    dir: &Path,
    cfg: &ExploreConfig,
    minimized: &[usize],
    kind: &str,
    canonical_fp: u64,
    observed_fp: u64,
) -> PathBuf {
    let schedule = minimized
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let text = format!(
        "# ftmpi-check explore reproducer\n\
         config={}\n\
         schedule={schedule}\n\
         kind={kind}\n\
         canonical_fp={canonical_fp:016x}\n\
         observed_fp={observed_fp:016x}\n",
        cfg.name
    );
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{}.default.repro", cfg.name));
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// A parsed reproducer artifact.
#[derive(Debug, PartialEq, Eq)]
pub struct Repro {
    /// Config name (must match an [`explore_configs`] entry).
    pub config: String,
    /// The minimized prescription.
    pub schedule: Vec<usize>,
    /// Violation kind at dump time.
    pub kind: String,
}

/// Parse a reproducer written by the explorer. Unknown keys (including
/// the `backend=` line older reproducers carry) and comment lines are
/// ignored; missing mandatory keys are an error.
pub fn parse_artifact(text: &str) -> Result<Repro, String> {
    let mut config = None;
    let mut schedule = None;
    let mut kind = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            return Err(format!("malformed line: {line}"));
        };
        match k {
            "config" => config = Some(v.to_string()),
            "schedule" => {
                let parsed: Result<Vec<usize>, _> = if v.is_empty() {
                    Ok(Vec::new())
                } else {
                    v.split(',').map(|c| c.trim().parse()).collect()
                };
                schedule = Some(parsed.map_err(|e| format!("bad schedule: {e}"))?);
            }
            "kind" => kind = Some(v.to_string()),
            _ => {}
        }
    }
    Ok(Repro {
        config: config.ok_or("missing config=")?,
        schedule: schedule.ok_or("missing schedule=")?,
        kind: kind.ok_or("missing kind=")?,
    })
}

/// Re-run a reproducer and report whether the violation still shows.
pub fn replay(repro: &Repro) -> Result<Option<String>, String> {
    let cfg = explore_configs()
        .into_iter()
        .find(|c| c.name == repro.config)
        .ok_or_else(|| format!("unknown explore config `{}`", repro.config))?;
    let spec = cfg.spec().map_err(|e| e.to_string())?;
    let canonical = run_one(&cfg, &spec, Vec::new()).map_err(|e| e.to_string())?;
    if let Some(kind) = canonical.broken {
        return Ok(Some(format!("canonical run itself violates: {kind}")));
    }
    let run = run_one(&cfg, &spec, repro.schedule.clone()).map_err(|e| e.to_string())?;
    Ok(run
        .broken
        .or_else(|| (run.fp != canonical.fp).then(|| "divergence".to_string())))
}

// --- Config registry ---------------------------------------------------

/// A small ring job: `nranks` ranks, a handful of iterations, exactly one
/// checkpoint wave mid-run.
fn tiny_ring(nranks: usize, protocol: ProtocolChoice) -> JobSpec {
    let mut spec = JobSpec::new(
        nranks,
        protocol,
        ring_app(4, 1_000, SimDuration::from_millis(50)),
    );
    spec.servers = 1;
    spec.ft = FtConfig {
        period: SimDuration::from_secs(30),
        first_wave_delay: SimDuration::from_millis(60),
        image_bytes: 256 << 10,
        ..FtConfig::default()
    };
    spec.max_virtual_time = Some(SimTime::from_nanos(120_000_000_000));
    spec
}

/// The stream job hosting the laneless-markers fixture, parameterized by
/// the wave delay (tuned by [`tuned_laneless_spec`]).
fn laneless_base(first_wave_delay: SimDuration) -> JobSpec {
    let mut spec = JobSpec::new(
        2,
        ProtocolChoice::Vcl,
        stream_app(40, 64 << 10, SimDuration::from_millis(1)),
    );
    spec.servers = 1;
    spec.ft = FtConfig {
        period: SimDuration::from_secs(30),
        first_wave_delay,
        image_bytes: 128 << 10,
        ..FtConfig::default()
    };
    spec.max_virtual_time = Some(SimTime::from_nanos(120_000_000_000));
    spec
}

/// Rank 1's control-marker arrival instant in a trace. The scheduler's
/// control marker is not itself a traced proto event, but it triggers the
/// local checkpoint in the nanosecond it arrives — `Fork { rank: 1 }` is
/// its same-instant proxy. (The *channel* marker `MarkerRecv { to: 1 }`
/// is useless here: it rides the data channel FIFO and by construction
/// arrives strictly after every queued message.)
fn rank1_fork_ns(trace: &[TraceEvent]) -> Option<u64> {
    trace.iter().find_map(|te| match te.kind {
        TraceKind::Proto(ProtoEvent::Fork { rank: 1, .. }) => Some(te.time.as_nanos()),
        _ => None,
    })
}

/// Tune the laneless-markers fixture so the scheduler's control marker
/// arrives at rank 1 in the *same nanosecond* as a data delivery — the
/// collision whose arbitration the fixture un-pins. Two deterministic
/// probe runs suffice: one with the wave pushed past completion
/// (collecting the undisturbed delivery instants) and one with an early
/// wave (measuring the wave-start → control-arrival latency, which is
/// delay-independent). Candidate targets are then verified — the first
/// delivery instant whose implied wave delay really yields a same-instant
/// fork+delivery pair wins — so the returned spec provably collides.
fn tuned_laneless_spec() -> Result<JobSpec, JobError> {
    let run = |fwd: SimDuration| {
        run_job_explored(
            laneless_base(fwd),
            RunOptions {
                trace: true,
                ..RunOptions::default()
            },
        )
    };
    let (_r, quiet, _) = run(SimDuration::from_secs(100))?;
    let delivers: Vec<u64> = quiet
        .iter()
        .filter_map(|te| match te.kind {
            TraceKind::Proto(ProtoEvent::Deliver { dst: 1, .. }) => Some(te.time.as_nanos()),
            _ => None,
        })
        .collect();
    let d0 = SimDuration::from_millis(3);
    let (_r, probe, _) = run(d0)?;
    let f0 = rank1_fork_ns(&probe)
        .ok_or_else(|| JobError::Sim("laneless probe: rank 1 never forked".into()))?;
    let latency = f0.saturating_sub(d0.as_nanos());
    for &target in delivers.iter().filter(|&&t| t > latency) {
        let delay = SimDuration::from_nanos(target - latency);
        let (_r, t, _) = run(delay)?;
        let Some(fork_at) = rank1_fork_ns(&t) else {
            continue;
        };
        let collides = t.iter().any(|te| {
            te.time.as_nanos() == fork_at
                && matches!(
                    te.kind,
                    TraceKind::Proto(ProtoEvent::Deliver { dst: 1, .. })
                )
        });
        if collides {
            return Ok(laneless_base(delay));
        }
    }
    Err(JobError::Sim(
        "laneless-markers fixture: no wave delay collides the control marker with a delivery"
            .into(),
    ))
}

/// Every explorable config: the two clean 3-rank jobs (expected to
/// exhaust without violations) and the two
/// historical-race fixtures (expected to violate, minimally).
pub fn explore_configs() -> Vec<ExploreConfig> {
    vec![
        ExploreConfig {
            name: "pcl3.ring",
            protocol: ProtocolChoice::Pcl,
            nranks: 3,
            fixture: None,
            expect_violation: false,
            mk: || Ok(tiny_ring(3, ProtocolChoice::Pcl)),
        },
        ExploreConfig {
            name: "vcl3.ring",
            protocol: ProtocolChoice::Vcl,
            nranks: 3,
            fixture: None,
            expect_violation: false,
            mk: || Ok(tiny_ring(3, ProtocolChoice::Vcl)),
        },
        ExploreConfig {
            name: "vcl2.laneless-markers",
            protocol: ProtocolChoice::Vcl,
            nranks: 2,
            fixture: Some(RaceFixture::LanelessMarkers),
            expect_violation: true,
            mk: tuned_laneless_spec,
        },
        ExploreConfig {
            name: "pcl3.unstaggered-flows",
            protocol: ProtocolChoice::Pcl,
            nranks: 3,
            fixture: Some(RaceFixture::UnstaggeredFlows),
            expect_violation: true,
            mk: || Ok(tiny_ring(3, ProtocolChoice::Pcl)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips() {
        let text = "# ftmpi-check explore reproducer\n\
                    config=pcl3.ring\n\
                    backend=ladder\n\
                    schedule=2,0,1\n\
                    kind=divergence\n\
                    canonical_fp=00000000deadbeef\n\
                    observed_fp=0000000012345678\n";
        let r = parse_artifact(text).expect("parse");
        assert_eq!(
            r,
            Repro {
                config: "pcl3.ring".into(),
                schedule: vec![2, 0, 1],
                kind: "divergence".into(),
            }
        );
        assert_eq!(
            parse_artifact("config=x\nschedule=\nkind=k\n")
                .expect("empty schedule")
                .schedule,
            Vec::<usize>::new()
        );
        assert!(parse_artifact("config=x\n").is_err());
        assert!(parse_artifact("schedule=1,x\nconfig=c\nbackend=heap\nkind=k").is_err());
    }

    #[test]
    fn digest_counts_lookalikes() {
        use ftmpi_sim::CandidateKind;
        let cands = [
            Candidate {
                seq: 10,
                lane: None,
                kind: CandidateKind::Call,
            },
            Candidate {
                seq: 11,
                lane: Some(3),
                kind: CandidateKind::Call,
            },
            Candidate {
                seq: 12,
                lane: None,
                kind: CandidateKind::Call,
            },
        ];
        assert_eq!(candidate_digest(&cands, 0), (None, CandidateKind::Call, 0));
        assert_eq!(
            candidate_digest(&cands, 1),
            (Some(3), CandidateKind::Call, 0)
        );
        assert_eq!(candidate_digest(&cands, 2), (None, CandidateKind::Call, 1));
    }
}
