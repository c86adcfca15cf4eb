//! Failure-storm campaigns: seeded fault-injection over the failure paths
//! the paper's experiments never stress.
//!
//! A *storm* is a schedule of rank kills and checkpoint-server failures
//! aimed at the protocol's most fragile windows — mid-wave (partial images
//! on the servers), mid-recovery (a second failure while the first restart
//! is still respawning), and the detection-lag gap between a kill and the
//! dispatcher noticing it. Every storm run is traced and pushed through the
//! [`crate::invariants`] checker; on top of the per-wave cut proofs the
//! campaign asserts the robustness contract end-to-end:
//!
//! * every run completes (no deadlock, no panic, no fatal recovery error);
//! * no wave is both aborted and committed (partial commits);
//! * rollback depth never exceeds the configured retention;
//! * the server bookkeeping ends with zero orphaned partial images;
//! * lost work grows monotonically with detection lag.
//!
//! Correlated failures and network partitions get their own scenario
//! families: node kills (every colocated rank and server dies atomically),
//! partitions that heal inside the heartbeat grace window (the watchdog
//! must suppress the false positive — zero rollbacks, zero aborted waves),
//! partitions that outlive it (one correlated rollback of the cut-off
//! side), and partitions straddling a restart's image fetch (the probe
//! chain must resume across the heal without duplicating a fetch). On top
//! of the invariant checker these assert:
//!
//! * no wave commits while a partition cuts a participant off;
//! * link retries stay bounded (no livelock spinning on a dead path);
//! * a heal inside the grace window causes zero restarts;
//! * recovery across a heal fetches each image exactly once.
//!
//! [`storm_campaign`] runs deterministic scenarios covering each window for
//! both protocols, then seeded randomized storms whose kill times are
//! biased toward wave and recovery windows measured from a clean profiling
//! run of the same workload.

use ftmpi_core::{run_job_with, FailurePlan, JobSpec, ProtocolChoice, RunOptions};
use ftmpi_net::{CutDirection, LinkFlapSpec, NetFaultPlan, NodeId};
use ftmpi_sim::{ProtoEvent, SimDuration, SimTime, TraceEvent, TraceKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fingerprint::fnv1a;
use crate::invariants::{check_trace, CheckReport};
use crate::suite::{ring_app, stream_app};

/// Outcome of one storm run: the invariant-checker verdict plus the
/// robustness counters and any scenario-level assertion failures.
#[derive(Debug)]
pub struct StormOutcome {
    /// Scenario label.
    pub name: String,
    /// Committed checkpoint waves.
    pub waves: u64,
    /// Failure-restarts performed.
    pub restarts: u64,
    /// In-flight waves aborted (restarts and server losses).
    pub waves_aborted: u64,
    /// Deepest rollback past the newest committed wave.
    pub rollback_depth_max: u64,
    /// Computation discarded by rollbacks, in seconds.
    pub lost_work_secs: f64,
    /// Partial images left in the server bookkeeping at the end.
    pub orphan_images_end: u64,
    /// Flow chunks / restore probes that paused on an unreachable path.
    pub link_retries: u64,
    /// Partition watchdog firings suppressed because the cut healed first.
    pub partitions_suppressed: u64,
    /// Partition watchdog grace windows that expired with the cut active.
    pub partitions_expired: u64,
    /// Bounded retry ladders that ran out (pushes rerouted, replica walks).
    pub retries_exhausted: u64,
    /// Deepest replica index a restore fetch had to walk to.
    pub replica_depth_max: u64,
    /// Image pushes re-aimed at another server after retry exhaustion.
    pub images_rerouted: u64,
    /// Images fetched back from servers during restores.
    pub images_refetched: u64,
    /// Damaged replicas caught by verify-on-fetch or the scrubber.
    pub images_corrupt_detected: u64,
    /// Slots walked past damage to a verified copy, or re-replicated.
    pub images_repaired: u64,
    /// Servers quarantined for exceeding the corruption threshold.
    pub servers_quarantined: u64,
    /// FNV-1a of the run's full `JobResult::encode()` (0 when the run
    /// failed): pins every counter, not just the ones printed above.
    pub result_fnv: u64,
    /// The invariant-checker verdict (`None` when the run itself failed).
    pub report: Option<CheckReport>,
    /// Scenario assertions that did not hold, including run errors.
    pub failures: Vec<String>,
}

impl StormOutcome {
    /// `true` when the run completed, every invariant held, and every
    /// scenario assertion passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.report.as_ref().is_some_and(CheckReport::ok)
    }

    fn expect(&mut self, cond: bool, msg: String) {
        if !cond {
            self.failures.push(msg);
        }
    }
}

/// Wave windows and completion time measured from a clean (failure-free)
/// run, used to aim storms at the protocol's fragile windows.
pub(crate) struct CleanProfile {
    /// Completion time of the clean run, ns.
    pub(crate) end_ns: u64,
    /// `(start_ns, commit_ns)` of every committed wave, in commit order.
    pub(crate) waves: Vec<(u64, u64)>,
}

pub(crate) fn profile(spec: JobSpec) -> Result<CleanProfile, String> {
    let (res, trace) = run_job_with(
        spec,
        RunOptions {
            trace: true,
            tiebreak_seed: None,
            ..RunOptions::default()
        },
    )
    .map_err(|e| format!("clean profiling run failed: {e}"))?;
    let mut starts: Vec<(u64, u64)> = Vec::new();
    let mut waves = Vec::new();
    for te in &trace {
        if let TraceKind::Proto(ev) = te.kind {
            match ev {
                ProtoEvent::WaveStart { wave } => starts.push((wave, te.time.as_nanos())),
                ProtoEvent::WaveCommit { wave } => {
                    if let Some(&(_, s)) = starts.iter().find(|&&(w, _)| w == wave) {
                        waves.push((s, te.time.as_nanos()));
                    }
                }
                _ => {}
            }
        }
    }
    Ok(CleanProfile {
        end_ns: res.completion.as_nanos(),
        waves,
    })
}

/// The storm workload: the smoke ring at 8 ranks over two servers, long
/// enough for several waves, short enough to run dozens of variants.
pub(crate) fn ring_spec(proto: ProtocolChoice) -> JobSpec {
    let mut spec = JobSpec::new(
        8,
        proto,
        ring_app(100, 10_000, SimDuration::from_millis(200)),
    );
    spec.servers = 2;
    spec.ft.period = SimDuration::from_secs(4);
    spec.ft.first_wave_delay = SimDuration::from_secs(2);
    spec.ft.image_bytes = 4 << 20;
    spec.max_virtual_time = Some(SimTime::from_nanos(900_000_000_000));
    spec
}

/// The logging-heavy two-rank Vcl stream (messages genuinely in the
/// channel when the wave cuts through).
fn stream_spec() -> JobSpec {
    let mut spec = JobSpec::new(
        2,
        ProtocolChoice::Vcl,
        stream_app(200, 256 << 10, SimDuration::from_millis(2)),
    );
    spec.servers = 2;
    spec.ft.period = SimDuration::from_secs(1);
    spec.ft.first_wave_delay = SimDuration::from_millis(200);
    spec.ft.image_bytes = 4 << 20;
    spec.max_virtual_time = Some(SimTime::from_nanos(900_000_000_000));
    spec
}

/// Run one storm scenario: trace it, check every invariant, and apply the
/// campaign-wide robustness assertions (bounded rollback, empty server
/// bookkeeping).
pub fn run_storm(name: &str, spec: JobSpec) -> StormOutcome {
    run_storm_traced(name, spec).0
}

/// Like [`run_storm`] but hands the protocol trace back too, so scenario
/// code can assert time-window properties (no wave commits across a
/// partition cut) on top of the campaign-wide checks. The trace is empty
/// when the run itself failed.
pub fn run_storm_traced(name: &str, spec: JobSpec) -> (StormOutcome, Vec<TraceEvent>) {
    let nranks = spec.nranks;
    let protocol = spec.protocol;
    let retained = spec.ft.retained_waves.max(1) as u64;
    match run_job_with(
        spec,
        RunOptions {
            trace: true,
            tiebreak_seed: None,
            ..RunOptions::default()
        },
    ) {
        Ok((res, trace)) => {
            let mut o = StormOutcome {
                name: name.to_string(),
                waves: res.waves(),
                restarts: res.rt.restarts,
                waves_aborted: res.ft.waves_aborted,
                rollback_depth_max: res.ft.rollback_depth_max,
                lost_work_secs: res.ft.lost_work_secs(),
                orphan_images_end: res.ft.orphan_images_end,
                link_retries: res.rt.link_retries,
                partitions_suppressed: res.ft.partitions_suppressed,
                partitions_expired: res.ft.partitions_expired,
                retries_exhausted: res.ft.retries_exhausted,
                replica_depth_max: res.ft.replica_depth_max,
                images_rerouted: res.ft.images_rerouted,
                images_refetched: res.ft.images_refetched,
                images_corrupt_detected: res.ft.images_corrupt_detected,
                images_repaired: res.ft.images_repaired,
                servers_quarantined: res.ft.servers_quarantined,
                result_fnv: fnv1a(res.encode().as_bytes()),
                report: Some(check_trace(protocol, nranks, &trace)),
                failures: Vec::new(),
            };
            let depth = o.rollback_depth_max;
            o.expect(
                depth <= retained,
                format!("rollback depth {depth} exceeds the {retained} retained wave(s)"),
            );
            let orphans = o.orphan_images_end;
            o.expect(
                orphans == 0,
                format!("{orphans} orphan image(s) left in the server bookkeeping"),
            );
            (o, trace)
        }
        Err(e) => (
            profile_failure(name, format!("run failed: {e}")),
            Vec::new(),
        ),
    }
}

pub(crate) fn profile_failure(name: &str, msg: String) -> StormOutcome {
    StormOutcome {
        name: name.to_string(),
        waves: 0,
        restarts: 0,
        waves_aborted: 0,
        rollback_depth_max: 0,
        lost_work_secs: 0.0,
        orphan_images_end: 0,
        link_retries: 0,
        partitions_suppressed: 0,
        partitions_expired: 0,
        retries_exhausted: 0,
        replica_depth_max: 0,
        images_rerouted: 0,
        images_refetched: 0,
        images_corrupt_detected: 0,
        images_repaired: 0,
        servers_quarantined: 0,
        result_fnv: 0,
        report: None,
        failures: vec![msg],
    }
}

/// Wave ids whose `WaveCommit` lands strictly inside `(start_ns, end_ns)`.
fn commits_within(trace: &[TraceEvent], start_ns: u64, end_ns: u64) -> Vec<u64> {
    trace
        .iter()
        .filter_map(|te| match te.kind {
            TraceKind::Proto(ProtoEvent::WaveCommit { wave })
                if te.time.as_nanos() > start_ns && te.time.as_nanos() < end_ns =>
            {
                Some(wave)
            }
            _ => None,
        })
        .collect()
}

/// Retry-boundedness guard: a handful of stalled flows backing off over a
/// few-second cut land well under this; a zero-delay livelock spinning on a
/// dead path blows through it immediately.
const RETRY_BOUND: u64 = 512;

/// Deterministic scenarios for one protocol on the ring workload.
fn ring_scenarios(proto: ProtocolChoice, out: &mut Vec<StormOutcome>) {
    let tag = match proto {
        ProtocolChoice::Pcl => "pcl",
        _ => "vcl",
    };
    let base = ring_spec(proto);
    let prof = match profile(base.clone()) {
        Ok(p) => p,
        Err(e) => {
            out.push(profile_failure(&format!("storm.profile.{tag}"), e));
            return;
        }
    };
    if prof.waves.len() < 2 {
        out.push(profile_failure(
            &format!("storm.profile.{tag}"),
            format!("clean run committed only {} wave(s)", prof.waves.len()),
        ));
        return;
    }
    let n = base.nranks;
    let (w0s, w0c) = prof.waves[0];
    let (_, w1c) = prof.waves[1];

    // Mid-wave rank kill: partial images must be garbage-collected and the
    // wave aborted, not committed.
    let mut spec = base.clone();
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(w0s + (w0c - w0s) * 3 / 10), n - 1);
    let mut o = run_storm(&format!("storm.midwave.kill.{tag}"), spec);
    let (restarts, aborted) = (o.restarts, o.waves_aborted);
    o.expect(restarts == 1, format!("expected 1 restart, got {restarts}"));
    o.expect(
        aborted >= 1,
        "a mid-wave kill must abort the in-flight wave".to_string(),
    );
    out.push(o);

    // Mid-recovery kill: a second failure lands while the first restart is
    // still respawning; the nested restart must recover cleanly.
    let k1 = w0c + (prof.end_ns - w0c) / 4;
    let k2 = k1 + base.ft.restart_delay.as_nanos() / 2;
    let mut spec = base.clone();
    spec.failures =
        FailurePlan::kill_at(SimTime::from_nanos(k1), 1).with_kill(SimTime::from_nanos(k2), 2);
    let mut o = run_storm(&format!("storm.midrecovery.kill.{tag}"), spec);
    let restarts = o.restarts;
    o.expect(
        restarts == 2,
        format!("expected 2 restarts, got {restarts}"),
    );
    out.push(o);

    // Detection lag: the same kill with growing heartbeat-timeout lag; the
    // work the survivors do while the victim sits undetected is discarded
    // by the restart, so lost work must grow with the lag. The kill sits in
    // the quiet zone right after a commit so no wave commits during any lag
    // window (which would legitimately shrink the rollback).
    let lag_kill = SimTime::from_nanos(w0c + 500_000_000);
    let mut lag_outcomes = Vec::new();
    for (label, lag) in [("0", 0.0), ("200ms", 0.2), ("1s", 1.0)] {
        let mut spec = base.clone();
        spec.ft = spec.ft.with_detection_delay_secs(lag);
        spec.failures = FailurePlan::kill_at(lag_kill, 1);
        let mut o = run_storm(&format!("storm.lag.{label}.{tag}"), spec);
        let restarts = o.restarts;
        o.expect(restarts == 1, format!("expected 1 restart, got {restarts}"));
        lag_outcomes.push(o);
    }
    let lost: Vec<f64> = lag_outcomes.iter().map(|o| o.lost_work_secs).collect();
    for i in 1..lost.len() {
        if lost[i] + 1e-9 < lost[i - 1] {
            lag_outcomes[i].failures.push(format!(
                "lost work shrank as detection lag grew ({} < {})",
                lost[i],
                lost[i - 1]
            ));
        }
    }
    out.append(&mut lag_outcomes);

    // Server loss, single copy: rank 1's images live on server 1 only, so
    // killing that server forces the restore past every retained wave.
    let sk = SimTime::from_nanos(w1c + 200_000_000);
    let rk = SimTime::from_nanos(w1c + 500_000_000);
    let mut spec = base.clone();
    spec.ft = spec.ft.with_retained_waves(2);
    spec.failures = FailurePlan::server_kill_at(sk, 1).with_kill(rk, 1);
    let mut o = run_storm(&format!("storm.serverloss.fallback.{tag}"), spec);
    let depth = o.rollback_depth_max;
    o.expect(
        depth >= 1,
        "losing the victim's only server must roll back past the newest wave".to_string(),
    );
    out.push(o);

    // Server loss, two replicas: the surviving copy keeps the newest wave
    // restorable — no rollback at all.
    let mut spec = base.clone();
    spec.ft = spec.ft.with_replicas(2);
    spec.failures = FailurePlan::server_kill_at(sk, 1).with_kill(rk, 1);
    let mut o = run_storm(&format!("storm.serverloss.replicas.{tag}"), spec);
    let depth = o.rollback_depth_max;
    o.expect(
        depth == 0,
        format!("a surviving replica should keep the newest wave restorable (depth {depth})"),
    );
    out.push(o);

    // Server loss mid-wave, no rank failure: the in-flight wave aborts, its
    // partial images are collected, and checkpointing continues on the
    // surviving server without any restart.
    let mut spec = base.clone();
    spec.failures = FailurePlan::server_kill_at(SimTime::from_nanos(w0s + (w0c - w0s) / 2), 0);
    let mut o = run_storm(&format!("storm.serverloss.midwave.{tag}"), spec);
    let (restarts, aborted, waves) = (o.restarts, o.waves_aborted, o.waves);
    o.expect(
        restarts == 0,
        format!("expected no restart, got {restarts}"),
    );
    o.expect(
        aborted >= 1,
        "a mid-wave server loss must abort the in-flight wave".to_string(),
    );
    o.expect(
        waves >= 1,
        "checkpointing must continue on the surviving server".to_string(),
    );
    out.push(o);
}

/// Partition scenarios for one protocol on the ring workload. Node 0
/// (hosting rank 0) is split from the rest of the platform — servers,
/// dispatcher and every peer — so checkpoint pushes, wave control traffic
/// and restore fetches touching it must pause, retry with bounded backoff,
/// and resume at heal.
fn partition_scenarios(proto: ProtocolChoice, out: &mut Vec<StormOutcome>) {
    let tag = match proto {
        ProtocolChoice::Pcl => "pcl",
        _ => "vcl",
    };
    let base = ring_spec(proto);
    let prof = match profile(base.clone()) {
        Ok(p) => p,
        Err(e) => {
            out.push(profile_failure(
                &format!("storm.partition.profile.{tag}"),
                e,
            ));
            return;
        }
    };
    if prof.waves.len() < 2 {
        out.push(profile_failure(
            &format!("storm.partition.profile.{tag}"),
            format!("clean run committed only {} wave(s)", prof.waves.len()),
        ));
        return;
    }
    let cut_node = vec![NodeId(0)];
    let (w0s, _) = prof.waves[0];
    let (_, w1c) = prof.waves[1];

    // Heal inside the grace window: the cut opens just before wave 0's
    // first marker so none of rank 0's contribution precedes it, stalls the
    // wave for 1.5 s, and heals 1.5 s before the 3 s watchdog. A false
    // positive the layer must fully suppress: no restart, no aborted wave,
    // no commit across the cut, every stall a bounded link retry, and zero
    // image fetches (acceptance criterion for partition tolerance).
    let cut = w0s - 1_000_000;
    let heal = cut + 1_500_000_000;
    let mut spec = base.clone();
    spec.ft = spec.ft.with_partition_rollback_after_secs(3.0);
    spec.net_faults = NetFaultPlan::none().with_partition(
        "storm-heal",
        cut_node.clone(),
        SimTime::from_nanos(cut),
        Some(SimTime::from_nanos(heal)),
    );
    let (mut o, trace) = run_storm_traced(&format!("storm.partition.heal.{tag}"), spec);
    let (restarts, aborted, suppressed) = (o.restarts, o.waves_aborted, o.partitions_suppressed);
    let (retries, refetched, waves) = (o.link_retries, o.images_refetched, o.waves);
    o.expect(
        restarts == 0,
        format!("a cut healing inside the grace window must not restart anyone (got {restarts})"),
    );
    o.expect(
        aborted == 0,
        format!("a cut healing inside the grace window must not abort a wave (got {aborted})"),
    );
    o.expect(
        suppressed == 1,
        format!("the watchdog must record exactly one suppressed cut (got {suppressed})"),
    );
    o.expect(
        retries >= 1,
        "the stalled wave must show link retries".to_string(),
    );
    o.expect(
        retries <= RETRY_BOUND,
        format!("{retries} link retries for a 1.5 s cut — retry loop unbounded?"),
    );
    o.expect(
        refetched == 0,
        format!("no restart happened, so no image may be refetched (got {refetched})"),
    );
    o.expect(
        waves >= 1,
        "the stalled wave must still commit after the heal".to_string(),
    );
    let crossing = commits_within(&trace, cut, heal);
    o.expect(
        crossing.is_empty(),
        format!("wave(s) {crossing:?} committed across the partition cut"),
    );
    out.push(o);

    // Cut outliving the grace, mid-wave: the watchdog rolls the cut-off
    // rank back (one correlated restart, the in-flight wave aborted), and
    // still nothing commits while the cut stands.
    let heal = cut + 3_000_000_000;
    let mut spec = base.clone();
    spec.ft = spec.ft.with_partition_rollback_after_secs(1.0);
    spec.net_faults = NetFaultPlan::none().with_partition(
        "storm-rollback",
        cut_node.clone(),
        SimTime::from_nanos(cut),
        Some(SimTime::from_nanos(heal)),
    );
    let (mut o, trace) = run_storm_traced(&format!("storm.partition.midwave.{tag}"), spec);
    let (restarts, aborted, suppressed) = (o.restarts, o.waves_aborted, o.partitions_suppressed);
    o.expect(
        restarts == 1,
        format!("a cut outliving the grace must cost one correlated restart (got {restarts})"),
    );
    o.expect(
        aborted >= 1,
        "the wave in flight when the watchdog fired must abort".to_string(),
    );
    o.expect(
        suppressed == 0,
        format!("nothing to suppress when the cut outlives the grace (got {suppressed})"),
    );
    let retries = o.link_retries;
    o.expect(
        retries <= RETRY_BOUND,
        format!("{retries} link retries for a 3 s cut — retry loop unbounded?"),
    );
    let crossing = commits_within(&trace, cut, heal);
    o.expect(
        crossing.is_empty(),
        format!("wave(s) {crossing:?} committed across the partition cut"),
    );
    out.push(o);

    // Cut outliving the grace in the quiet zone after a commit: the
    // watchdog restart needs rank 0's image back from its server, but the
    // rank is still cut off when the fetch first tries to reserve (the cut
    // covers watchdog + restart delay) — the fetch rides the probe chain
    // and lands after the heal (partition healing mid-recovery). Exactly
    // one fetch.
    let cut = w1c + 300_000_000;
    let heal = cut + 6_000_000_000;
    let mut spec = base.clone();
    spec.ft = spec.ft.with_partition_rollback_after_secs(1.0);
    spec.net_faults = NetFaultPlan::none().with_partition(
        "storm-recovery",
        cut_node.clone(),
        SimTime::from_nanos(cut),
        Some(SimTime::from_nanos(heal)),
    );
    let (mut o, trace) = run_storm_traced(&format!("storm.partition.recovery.{tag}"), spec);
    let (restarts, refetched, retries) = (o.restarts, o.images_refetched, o.link_retries);
    o.expect(
        restarts == 1,
        format!("expected the watchdog's single correlated restart, got {restarts}"),
    );
    o.expect(
        refetched == 1,
        format!("the blocked restore must fetch the victim's image exactly once (got {refetched})"),
    );
    o.expect(
        retries >= 1,
        "the blocked restore fetch must show probe retries".to_string(),
    );
    o.expect(
        retries <= RETRY_BOUND,
        format!("{retries} link retries for a 6 s cut — retry loop unbounded?"),
    );
    let crossing = commits_within(&trace, cut, heal);
    o.expect(
        crossing.is_empty(),
        format!("wave(s) {crossing:?} committed across the partition cut"),
    );
    out.push(o);

    // Rank kill with its node partitioned across the restart window (the
    // cut covers the kill and the fetch's first reservation attempt),
    // against a partition-free control: the probe chain must not duplicate
    // the image fetch — both runs fetch exactly the same number of images.
    let k = w1c + 500_000_000;
    let mut control = base.clone();
    control.failures = FailurePlan::kill_at(SimTime::from_nanos(k), 1);
    let mut c = run_storm(&format!("storm.partition.fetchdup.control.{tag}"), control);
    let (restarts, retries) = (c.restarts, c.link_retries);
    c.expect(restarts == 1, format!("expected 1 restart, got {restarts}"));
    c.expect(
        retries == 0,
        format!("the partition-free control saw {retries} link retries"),
    );
    let control_refetched = c.images_refetched;
    out.push(c);
    let mut spec = base.clone();
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(k), 1);
    spec.net_faults = NetFaultPlan::none().with_partition(
        "storm-fetchdup",
        vec![NodeId(1)],
        SimTime::from_nanos(k - 200_000_000),
        Some(SimTime::from_nanos(k + 4_200_000_000)),
    );
    let mut o = run_storm(&format!("storm.partition.fetchdup.{tag}"), spec);
    let (restarts, retries, refetched) = (o.restarts, o.link_retries, o.images_refetched);
    o.expect(restarts == 1, format!("expected 1 restart, got {restarts}"));
    o.expect(
        retries >= 1,
        "the partitioned fetch must ride the probe chain".to_string(),
    );
    o.expect(
        refetched == control_refetched,
        format!(
            "recovery across the heal fetched {refetched} image(s), control fetched \
             {control_refetched} — duplicate fetch after heal"
        ),
    );
    out.push(o);
}

/// Correlated node-death scenarios for one protocol: a node kill takes out
/// everything the node hosted in one atomic event.
fn node_kill_scenarios(proto: ProtocolChoice, out: &mut Vec<StormOutcome>) {
    let tag = match proto {
        ProtocolChoice::Pcl => "pcl",
        _ => "vcl",
    };

    // Colocated ranks: two ranks per node (threshold forced down), so one
    // node death kills both in a single correlated restart.
    let mut base = ring_spec(proto);
    base.single_threshold = 4;
    match profile(base.clone()) {
        Ok(prof) if !prof.waves.is_empty() => {
            let (_, w0c) = prof.waves[0];
            let mut spec = base.clone();
            spec.failures = FailurePlan::node_kill_at(SimTime::from_nanos(w0c + 500_000_000), 0);
            let mut o = run_storm(&format!("storm.nodekill.colocated.{tag}"), spec);
            let (restarts, refetched) = (o.restarts, o.images_refetched);
            o.expect(
                restarts == 1,
                format!("both colocated ranks must die in one correlated restart (got {restarts})"),
            );
            o.expect(
                refetched == 2,
                format!("both colocated victims must refetch their image (got {refetched})"),
            );
            out.push(o);
        }
        Ok(prof) => out.push(profile_failure(
            &format!("storm.nodekill.colocated.{tag}"),
            format!("clean run committed only {} wave(s)", prof.waves.len()),
        )),
        Err(e) => out.push(profile_failure(
            &format!("storm.nodekill.colocated.{tag}"),
            e,
        )),
    }

    // Server node and rank node die together, and the dead server held the
    // victim's only replica (round-robin puts every one of rank 0's images
    // on server 0): the restore must roll back past every retained wave.
    let base = ring_spec(proto);
    match profile(base.clone()) {
        Ok(prof) if prof.waves.len() >= 2 => {
            let (_, w1c) = prof.waves[1];
            let t = SimTime::from_nanos(w1c + 300_000_000);
            let mut spec = base.clone();
            spec.ft = spec.ft.with_retained_waves(2);
            // Node 8 hosts server 0; node 0 hosts rank 0 (its client).
            spec.failures = FailurePlan::node_kill_at(t, 8).with_node_kill(t, 0);
            let mut o = run_storm(&format!("storm.nodekill.soloreplica.{tag}"), spec);
            let (restarts, depth) = (o.restarts, o.rollback_depth_max);
            o.expect(
                restarts == 1,
                format!("expected one correlated restart, got {restarts}"),
            );
            o.expect(
                depth >= 1,
                "losing the victim's only replica server must roll back past the newest wave"
                    .to_string(),
            );
            out.push(o);
        }
        Ok(prof) => out.push(profile_failure(
            &format!("storm.nodekill.soloreplica.{tag}"),
            format!("clean run committed only {} wave(s)", prof.waves.len()),
        )),
        Err(e) => out.push(profile_failure(
            &format!("storm.nodekill.soloreplica.{tag}"),
            e,
        )),
    }
}

/// Asymmetric-fault scenarios for one protocol: flapping push links,
/// one-directional partitions, and server-group cuts. These exercise the
/// directed reachability model end-to-end — transport must stall (not
/// double-send) across half-open cuts, pushes must reroute or walk replicas
/// when a server group goes dark, and the watchdog must classify every
/// grace window as suppressed or expired.
fn asymmetry_scenarios(proto: ProtocolChoice, out: &mut Vec<StormOutcome>) {
    let tag = match proto {
        ProtocolChoice::Pcl => "pcl",
        _ => "vcl",
    };
    let base = ring_spec(proto);
    let prof = match profile(base.clone()) {
        Ok(p) => p,
        Err(e) => {
            out.push(profile_failure(&format!("storm.asym.profile.{tag}"), e));
            return;
        }
    };
    if prof.waves.len() < 2 {
        out.push(profile_failure(
            &format!("storm.asym.profile.{tag}"),
            format!("clean run committed only {} wave(s)", prof.waves.len()),
        ));
        return;
    }
    let (w0s, _) = prof.waves[0];
    let (_, w1c) = prof.waves[1];

    // Flapping push link: rank 0's image path (node 0 → server node 8)
    // alternates seeded up/down intervals across the first two waves. The
    // retry ladder must ride every down interval out — no restart, no
    // unbounded spinning, and checkpointing still makes progress.
    let mut spec = base.clone();
    spec.net_faults = NetFaultPlan::none().with_link_flap(LinkFlapSpec {
        from: NodeId(0),
        to: NodeId(8),
        start: SimTime::from_nanos(w0s.saturating_sub(500_000_000)),
        end: SimTime::from_nanos(w1c + 2_000_000_000),
        mttf: SimDuration::from_secs(2),
        mttr: SimDuration::from_millis(300),
        seed: 11,
    });
    let mut o = run_storm(&format!("storm.flap.push.{tag}"), spec);
    let (restarts, retries, waves) = (o.restarts, o.link_retries, o.waves);
    o.expect(
        restarts == 0,
        format!("a flapping push link must not kill anyone (got {restarts} restarts)"),
    );
    o.expect(
        retries <= RETRY_BOUND,
        format!("{retries} link retries across a flap window — retry loop unbounded?"),
    );
    o.expect(
        waves >= 1,
        "checkpointing must make progress through the flap window".to_string(),
    );
    out.push(o);

    // Outbound-only cut of rank 0's node, healing inside the grace window:
    // data still reaches node 0 but nothing (pushes, acks) gets out — at
    // the wave controller this is indistinguishable from a full cut, so
    // the same false-positive suppression contract applies, and nothing
    // may commit across the half-open window.
    let cut = w0s - 1_000_000;
    let heal = cut + 1_500_000_000;
    let mut spec = base.clone();
    spec.ft = spec.ft.with_partition_rollback_after_secs(3.0);
    spec.net_faults = NetFaultPlan::none().with_partition_directed(
        "storm-outbound",
        vec![NodeId(0)],
        CutDirection::Outbound,
        SimTime::from_nanos(cut),
        Some(SimTime::from_nanos(heal)),
    );
    let (mut o, trace) = run_storm_traced(&format!("storm.partition.outbound.{tag}"), spec);
    let (restarts, aborted, suppressed) = (o.restarts, o.waves_aborted, o.partitions_suppressed);
    o.expect(
        restarts == 0,
        format!(
            "a half-open cut healing inside the grace must not restart anyone (got {restarts})"
        ),
    );
    o.expect(
        aborted == 0,
        format!("a half-open cut healing inside the grace must not abort a wave (got {aborted})"),
    );
    o.expect(
        suppressed == 1,
        format!("the watchdog must suppress exactly one half-open cut (got {suppressed})"),
    );
    let retries = o.link_retries;
    o.expect(
        retries >= 1,
        "the stalled outbound traffic must show link retries".to_string(),
    );
    o.expect(
        retries <= RETRY_BOUND,
        format!("{retries} link retries for a 1.5 s half-open cut — retry loop unbounded?"),
    );
    let crossing = commits_within(&trace, cut, heal);
    o.expect(
        crossing.is_empty(),
        format!("wave(s) {crossing:?} committed across the half-open cut"),
    );
    out.push(o);

    // Server-group partition, single replica: checkpoint server 0 goes
    // dark behind a cut while the ranks and dispatcher stay connected. The
    // watchdog's grace expires without victims (no rank is cut off), and
    // every push aimed at the dark server must exhaust its ladder and
    // reroute to the surviving server — checkpointing continues.
    let cut = w0s.saturating_sub(200_000_000);
    let mut spec = base.clone();
    spec.ft = spec.ft.with_partition_rollback_after_secs(1.5);
    spec.net_faults = NetFaultPlan::none().with_server_partition(
        "storm-server-dark",
        vec![0],
        CutDirection::Both,
        SimTime::from_nanos(cut),
        Some(SimTime::from_nanos(cut + 8_000_000_000)),
    );
    let mut o = run_storm(&format!("storm.serverpart.reroute.{tag}"), spec);
    let (restarts, expired, exhausted, rerouted, waves) = (
        o.restarts,
        o.partitions_expired,
        o.retries_exhausted,
        o.images_rerouted,
        o.waves,
    );
    o.expect(
        restarts == 0,
        format!("a server-only cut must not restart any rank (got {restarts})"),
    );
    o.expect(
        expired == 1,
        format!("the grace window must expire exactly once, without victims (got {expired})"),
    );
    o.expect(
        exhausted >= 1,
        "pushes at the dark server must exhaust their retry ladder".to_string(),
    );
    o.expect(
        rerouted >= 1,
        "pushes must reroute to the surviving server".to_string(),
    );
    o.expect(
        waves >= 1,
        "checkpointing must continue on the surviving server".to_string(),
    );
    out.push(o);

    // Server-group partition plus a rank kill: rank 0's primary server is
    // dark when its restore fetch fires, so the probe chain must exhaust
    // the primary's ladder and walk to the replica copy on the surviving
    // server (replica depth 1) instead of waiting out the cut.
    let kill = w1c + 300_000_000;
    let mut spec = base.clone();
    spec.ft = spec.ft.with_replicas(2);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(kill), 0);
    spec.net_faults = NetFaultPlan::none().with_server_partition(
        "storm-server-fetch",
        vec![0],
        CutDirection::Both,
        SimTime::from_nanos(w1c + 100_000_000),
        Some(SimTime::from_nanos(w1c + 20_000_000_000)),
    );
    let mut o = run_storm(&format!("storm.serverpart.fetch.{tag}"), spec);
    let (restarts, depth, rdepth, exhausted) = (
        o.restarts,
        o.rollback_depth_max,
        o.replica_depth_max,
        o.retries_exhausted,
    );
    o.expect(restarts == 1, format!("expected 1 restart, got {restarts}"));
    o.expect(
        rdepth >= 1,
        format!("the restore must walk to a replica copy (replica depth {rdepth})"),
    );
    o.expect(
        exhausted >= 1,
        "the dark primary's ladder must exhaust before the replica walk".to_string(),
    );
    o.expect(
        depth == 0,
        format!("the replica copy keeps the newest wave restorable (depth {depth})"),
    );
    out.push(o);
}

/// Checkpoint-image integrity scenarios for one protocol: injected
/// bit-flips, torn writes behind tearing cuts, the scrubber racing a
/// restart, and a newest wave whose only replica is damaged. On top of the
/// invariant checker's whole-trace integrity rules (no restore from a
/// damaged replica, no placement on a quarantined server) these assert the
/// repair accounting: every injected corruption is either walked past /
/// re-replicated (counted) or pushes the restore to an older retained wave.
fn integrity_scenarios(proto: ProtocolChoice, out: &mut Vec<StormOutcome>) {
    let tag = match proto {
        ProtocolChoice::Pcl => "pcl",
        _ => "vcl",
    };
    let base = ring_spec(proto);

    // Flip-under-restore and scrubber-races-restart share a two-replica
    // spec; its wave windows differ from the single-replica base (a second
    // stream per rank), so profile the spec actually run.
    let mut twin = base.clone();
    twin.ft = twin.ft.with_replicas(2);
    match profile(twin.clone()) {
        Ok(prof) if prof.waves.len() >= 2 => {
            let (_, w1c) = prof.waves[1];

            // Flip-under-restore: rank 1's newest image is damaged on its
            // primary server right before the rank dies. Verify-on-fetch
            // must walk to the intact replica on the other server — the
            // newest wave stays restorable, the damage is detected and
            // counted as repaired-by-walk.
            let mut spec = twin.clone();
            spec.failures = FailurePlan::none()
                .with_corruption(SimTime::from_nanos(w1c + 100_000_000), 1, 1)
                .with_kill(SimTime::from_nanos(w1c + 300_000_000), 1);
            let mut o = run_storm(&format!("storm.corrupt.flipfetch.{tag}"), spec);
            let (restarts, depth) = (o.restarts, o.rollback_depth_max);
            let (detected, repaired) = (o.images_corrupt_detected, o.images_repaired);
            o.expect(restarts == 1, format!("expected 1 restart, got {restarts}"));
            o.expect(
                depth == 0,
                format!("the intact replica keeps the newest wave restorable (depth {depth})"),
            );
            o.expect(
                detected >= 1,
                "the damaged replica must be detected at fetch".to_string(),
            );
            o.expect(
                repaired >= 1,
                "walking past the damaged replica must count as a repair".to_string(),
            );
            out.push(o);

            // Scrubber-races-restart: same damage, but a 500 ms scrub pass
            // runs concurrently and the kill lands right around a tick, so
            // the repair flow and the restart's fetch race. Whichever wins,
            // the damage is detected, the slot ends verified, and the
            // restore never consumes corrupt bits (checker-proven).
            let mut spec = twin.clone();
            spec.ft = spec.ft.with_scrub_interval_secs(0.5);
            spec.failures = FailurePlan::none()
                .with_corruption(SimTime::from_nanos(w1c + 100_000_000), 1, 1)
                .with_kill(SimTime::from_nanos(w1c + 550_000_000), 1);
            let mut o = run_storm(&format!("storm.corrupt.scrubrace.{tag}"), spec);
            let (restarts, depth) = (o.restarts, o.rollback_depth_max);
            let (detected, repaired) = (o.images_corrupt_detected, o.images_repaired);
            o.expect(restarts == 1, format!("expected 1 restart, got {restarts}"));
            o.expect(
                depth == 0,
                format!("scrub or walk must keep the newest wave restorable (depth {depth})"),
            );
            o.expect(
                detected >= 1,
                "the scrubber or the fetch must detect the damage".to_string(),
            );
            o.expect(
                repaired >= 1,
                "the race must end with the slot repaired or walked past".to_string(),
            );
            out.push(o);
        }
        Ok(prof) => out.push(profile_failure(
            &format!("storm.corrupt.flipfetch.{tag}"),
            format!("clean run committed only {} wave(s)", prof.waves.len()),
        )),
        Err(e) => out.push(profile_failure(
            &format!("storm.corrupt.flipfetch.{tag}"),
            e,
        )),
    }

    let prof = match profile(base.clone()) {
        Ok(p) => p,
        Err(e) => {
            out.push(profile_failure(&format!("storm.corrupt.profile.{tag}"), e));
            return;
        }
    };
    if prof.waves.len() < 2 {
        out.push(profile_failure(
            &format!("storm.corrupt.profile.{tag}"),
            format!("clean run committed only {} wave(s)", prof.waves.len()),
        ));
        return;
    }
    let (w0s, w0c) = prof.waves[0];
    let (_, w1c) = prof.waves[1];

    // All replicas corrupt: the single copy of rank 1's newest image is
    // damaged, so the restore must reject the newest wave and fall back to
    // the older retained one — rollback past the corruption, never through
    // it.
    let mut spec = base.clone();
    spec.ft = spec.ft.with_retained_waves(2);
    spec.failures = FailurePlan::none()
        .with_corruption(SimTime::from_nanos(w1c + 200_000_000), 1, 1)
        .with_kill(SimTime::from_nanos(w1c + 500_000_000), 1);
    let mut o = run_storm(&format!("storm.corrupt.allreplicas.{tag}"), spec);
    let (restarts, depth) = (o.restarts, o.rollback_depth_max);
    let (detected, repaired) = (o.images_corrupt_detected, o.images_repaired);
    o.expect(restarts == 1, format!("expected 1 restart, got {restarts}"));
    o.expect(
        depth >= 1,
        "a fully-damaged newest wave must roll back to the older retained one".to_string(),
    );
    o.expect(
        detected >= 1,
        "the damaged copy must be detected while planning the restore".to_string(),
    );
    o.expect(
        repaired >= 1,
        "salvaging the slot from the older wave must count as a repair".to_string(),
    );
    out.push(o);

    // Torn-write-then-fallback: a *tearing* cut darkens server 0 across a
    // wave, so the severed push leaves a truncated replica there and
    // reroutes to server 1. The scrubber keeps re-detecting the torn copy
    // (and re-replicates it after the heal); the post-heal restart must
    // restore from verified bits only.
    let cut = w0s.saturating_sub(200_000_000);
    let heal = cut + 8_000_000_000;
    let mut spec = base.clone();
    spec.ft = spec
        .ft
        .with_retained_waves(2)
        .with_torn_writes()
        .with_scrub_interval_secs(0.5)
        .with_partition_rollback_after_secs(1.5);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(heal + 1_000_000_000), 0);
    spec.net_faults = NetFaultPlan::none().with_server_partition_tearing(
        "storm-torn",
        vec![0],
        CutDirection::Both,
        SimTime::from_nanos(cut),
        Some(SimTime::from_nanos(heal)),
    );
    let mut o = run_storm(&format!("storm.corrupt.tornwrite.{tag}"), spec);
    let (restarts, exhausted, rerouted) = (o.restarts, o.retries_exhausted, o.images_rerouted);
    let detected = o.images_corrupt_detected;
    o.expect(restarts == 1, format!("expected 1 restart, got {restarts}"));
    o.expect(
        exhausted >= 1,
        "pushes at the dark server must exhaust their retry ladder".to_string(),
    );
    o.expect(
        rerouted >= 1,
        "the severed push must reroute to the surviving server".to_string(),
    );
    o.expect(
        detected >= 1,
        "the torn replica must be detected (scrub or fetch walk)".to_string(),
    );
    out.push(o);

    // Quarantine: whole-disk rot on server 0 with a threshold of one
    // detection. The scrubber's first pass over the damage must quarantine
    // the server; every later placement lands on server 1 only
    // (checker-proven via `QuarantinedPlacement`), and checkpointing
    // continues.
    let mut spec = base.clone();
    spec.ft = spec
        .ft
        .with_scrub_interval_secs(0.5)
        .with_quarantine_threshold(1);
    spec.failures =
        FailurePlan::none().with_server_corruption(SimTime::from_nanos(w0c + 200_000_000), 0);
    let mut o = run_storm(&format!("storm.corrupt.quarantine.{tag}"), spec);
    let (restarts, detected, quarantined, waves) = (
        o.restarts,
        o.images_corrupt_detected,
        o.servers_quarantined,
        o.waves,
    );
    o.expect(
        restarts == 0,
        format!("disk rot alone must not restart anyone (got {restarts})"),
    );
    o.expect(
        detected >= 1,
        "the scrubber must detect the rotted replicas".to_string(),
    );
    o.expect(
        quarantined == 1,
        format!("one detection must quarantine the server exactly once (got {quarantined})"),
    );
    o.expect(
        waves >= 1,
        "checkpointing must continue on the surviving server".to_string(),
    );
    out.push(o);
}

/// Build a seeded random failure schedule biased toward the measured wave
/// windows (partial-image exposure) and recovery windows (nested restarts).
fn random_plan(rng: &mut StdRng, prof: &CleanProfile, spec: &JobSpec) -> FailurePlan {
    let mut plan = FailurePlan::none();
    let restart_ns = spec.ft.restart_delay.as_nanos().max(2);
    let mut last_kill = 0u64;
    for _ in 0..rng.gen_range(1usize..4) {
        let at = match rng.gen_range(0u32..4) {
            // Half the kills land inside a wave window.
            0 | 1 => {
                let (s, c) = prof.waves[rng.gen_range(0..prof.waves.len())];
                rng.gen_range(s..c.max(s + 1))
            }
            // A quarter land inside the previous kill's recovery window.
            2 if last_kill > 0 => last_kill + rng.gen_range(1..restart_ns),
            // The rest anywhere in the clean run's lifetime.
            _ => rng.gen_range(1..prof.end_ns),
        };
        last_kill = at;
        plan = plan.with_kill(SimTime::from_nanos(at), rng.gen_range(0..spec.nranks));
    }
    // Half the storms also lose a checkpoint server (at most one, so the
    // fleet keeps a survivor and checkpointing can continue).
    if spec.servers > 1 && rng.gen_range(0u32..2) == 0 {
        plan = plan.with_server_kill(
            SimTime::from_nanos(rng.gen_range(1..prof.end_ns)),
            rng.gen_range(0..spec.servers),
        );
    }
    plan
}

/// Seeded randomized storms for one protocol.
fn random_storms(proto: ProtocolChoice, seeds: &[u64], out: &mut Vec<StormOutcome>) {
    let tag = match proto {
        ProtocolChoice::Pcl => "pcl",
        _ => "vcl",
    };
    let base = ring_spec(proto);
    let prof = match profile(base.clone()) {
        Ok(p) => p,
        Err(e) => {
            out.push(profile_failure(&format!("storm.random.{tag}"), e));
            return;
        }
    };
    if prof.waves.is_empty() {
        out.push(profile_failure(
            &format!("storm.random.{tag}"),
            "clean run committed no waves".to_string(),
        ));
        return;
    }
    for &seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spec = base.clone();
        spec.failures = random_plan(&mut rng, &prof, &spec);
        // Half the storms run with a 200 ms heartbeat-timeout lag.
        if rng.gen_range(0u32..2) == 0 {
            spec.ft = spec.ft.with_detection_delay_secs(0.2);
        }
        out.push(run_storm(&format!("storm.random.{tag}.seed{seed}"), spec));
    }
}

/// Mid-wave kill on the logging-heavy Vcl stream: the aborted wave holds
/// real channel-log state.
fn stream_scenario(out: &mut Vec<StormOutcome>) {
    let base = stream_spec();
    let prof = match profile(base.clone()) {
        Ok(p) => p,
        Err(e) => {
            out.push(profile_failure("storm.midwave.kill.stream2", e));
            return;
        }
    };
    let Some(&(w0s, w0c)) = prof.waves.first() else {
        out.push(profile_failure(
            "storm.midwave.kill.stream2",
            "clean stream run committed no waves".to_string(),
        ));
        return;
    };
    // The stream's wave can outlive the application (acks land after the
    // last receive): aim inside the wave window but before completion.
    let kill = w0s + (w0c.min(prof.end_ns) - w0s.min(prof.end_ns)) / 2;
    let mut spec = base.clone();
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(kill), 1);
    let mut o = run_storm("storm.midwave.kill.stream2", spec);
    let (restarts, aborted) = (o.restarts, o.waves_aborted);
    o.expect(restarts == 1, format!("expected 1 restart, got {restarts}"));
    o.expect(
        aborted >= 1,
        "a mid-wave kill must abort the in-flight wave".to_string(),
    );
    out.push(o);
}

/// Run the whole campaign: deterministic window scenarios for both
/// protocols (kills, partitions, node deaths), the stream variant, and
/// seeded randomized storms (`smoke` uses fewer seeds; CI runs the smoke
/// set — the partition and node-kill families are deterministic and run in
/// both modes).
pub fn storm_campaign(smoke: bool) -> Vec<StormOutcome> {
    let seeds: &[u64] = if smoke { &[1, 2] } else { &[1, 2, 3, 4, 5] };
    let mut out = Vec::new();
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        ring_scenarios(proto, &mut out);
    }
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        partition_scenarios(proto, &mut out);
        node_kill_scenarios(proto, &mut out);
        asymmetry_scenarios(proto, &mut out);
        integrity_scenarios(proto, &mut out);
    }
    stream_scenario(&mut out);
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        random_storms(proto, seeds, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_profile_measures_a_wave_window() {
        let p = profile(stream_spec()).expect("profile");
        assert!(p.end_ns > 0);
        let (start, commit) = *p.waves.first().expect("a committed wave");
        assert!(start < commit);
    }

    #[test]
    fn random_plans_are_seed_deterministic_and_in_range() {
        let spec = ring_spec(ProtocolChoice::Pcl);
        let prof = CleanProfile {
            end_ns: 40_000_000_000,
            waves: vec![
                (2_000_000_000, 4_000_000_000),
                (9_000_000_000, 11_000_000_000),
            ],
        };
        let mk = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            random_plan(&mut rng, &prof, &spec)
        };
        let (a, b) = (mk(7), mk(7));
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.server_kills, b.server_kills);
        assert!(!a.kills.is_empty() && a.kills.len() <= 3);
        for &(_, victim) in &a.kills {
            assert!(victim < spec.nranks);
        }
        for &(_, server) in &a.server_kills {
            assert!(server < spec.servers);
        }
    }
}
