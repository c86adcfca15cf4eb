//! Job assembly and execution: platform + deployment + protocol + workload
//! in one call, returning the metrics every experiment consumes.

use std::sync::Arc;

use ftmpi_mpi::{
    spawn_rank, AppFn, DummyProtocol, Placement, RaceFixture, RuntimeConfig, RuntimeCore,
    RuntimeStats, World, WorldRef,
};
use ftmpi_net::{fault_lane, LinkConfig, LinkFaultKind, NetFaultPlan, NetModel, SoftwareStack};
use ftmpi_sim::{Sim, SimDuration, SimTime};

use crate::config::FtConfig;
use crate::deploy::Deployment;
use crate::engine::{split, CheckpointEngine};
use crate::failure::FailurePlan;
use crate::mlog::Mlog;
use crate::pcl::Pcl;
use crate::recovery::{arm_scrubber, corrupt_images, inject_kill_many, partition_cut, server_fail};
use crate::stats::FtStats;
use crate::vcl::Vcl;

/// Which fault-tolerance implementation runs the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// No fault tolerance (Vdummy / plain MPICH2 runs).
    Dummy,
    /// Non-blocking coordinated checkpointing (MPICH-Vcl).
    Vcl,
    /// Blocking coordinated checkpointing (MPICH2-Pcl).
    Pcl,
    /// Uncoordinated checkpointing + pessimistic receiver-based message
    /// logging (the §2 alternative; single-rank recovery).
    Mlog,
}

/// Which platform hosts the job.
#[derive(Debug, Clone)]
pub enum Platform {
    /// A single cluster with the given intra-cluster link.
    Cluster(LinkConfig),
    /// The six-cluster Grid5000 subset of §5.4.
    Grid,
}

/// Everything needed to run one experiment configuration. Cloning is cheap
/// — the application closure is shared through its `Arc`.
#[derive(Clone)]
pub struct JobSpec {
    /// Number of MPI ranks.
    pub nranks: usize,
    /// Protocol under test.
    pub protocol: ProtocolChoice,
    /// Software stack carrying messages. `None` picks the protocol's
    /// natural stack: the Vcl daemon stack for Vcl, TCP sockets otherwise.
    pub stack: Option<SoftwareStack>,
    /// Checkpointing parameters.
    pub ft: FtConfig,
    /// Platform.
    pub platform: Platform,
    /// Checkpoint servers (total for clusters, per cluster for the grid).
    pub servers: usize,
    /// Ranks above this use two-per-node placement (clusters; paper: 144).
    pub single_threshold: usize,
    /// The application every rank runs.
    pub app: AppFn,
    /// Failure schedule.
    pub failures: FailurePlan,
    /// Network-fault schedule (link down/degrade/restore events and named
    /// partitions). Empty by default: the fault machinery is inert and the
    /// run is byte-identical to a fault-free one.
    pub net_faults: NetFaultPlan,
    /// Abort the run at this virtual time (guard against protocol bugs).
    pub max_virtual_time: Option<SimTime>,
    /// Override the deployment's rank→node placement (platform
    /// characterization tools that pin ranks to specific nodes).
    pub placement_override: Option<Vec<ftmpi_net::NodeId>>,
    /// Proactive checkpoint triggers: a wave is initiated at each time
    /// (failure-prediction hooks from the paper's conclusion). No-ops for
    /// the Dummy protocol or while a wave is already in flight.
    pub wave_triggers: Vec<SimTime>,
}

impl JobSpec {
    /// A spec with paper-style defaults on a GigE cluster.
    pub fn new(nranks: usize, protocol: ProtocolChoice, app: AppFn) -> JobSpec {
        JobSpec {
            nranks,
            protocol,
            stack: None,
            ft: FtConfig::default(),
            platform: Platform::Cluster(LinkConfig::gige()),
            servers: 1,
            single_threshold: 144,
            app,
            failures: FailurePlan::none(),
            net_faults: NetFaultPlan::none(),
            max_virtual_time: None,
            placement_override: None,
            wave_triggers: Vec::new(),
        }
    }
}

/// Metrics of a completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job completion time (first spawn to last finalize).
    pub completion: SimDuration,
    /// Fault-tolerance statistics (all-zero for the Dummy protocol).
    pub ft: FtStats,
    /// Runtime statistics.
    pub rt: RuntimeStats,
    /// Kernel events executed (simulation cost indicator).
    pub events: u64,
    /// Messages delivered but never consumed (must be 0 for well-formed
    /// applications; nonzero after a restart indicates a broken cut).
    pub leftover_unexpected: usize,
    /// Receives posted but never matched (0 for well-formed applications).
    pub leftover_posted: usize,
}

impl JobResult {
    /// Committed checkpoint waves.
    pub fn waves(&self) -> u64 {
        self.ft.waves_committed
    }

    /// Completion time in seconds.
    pub fn completion_secs(&self) -> f64 {
        self.completion.as_secs_f64()
    }

    /// Serialize for the persistent memo cache: one `key=value` line per
    /// field, integers only (virtual times are raw nanosecond counts), so a
    /// disk round-trip reproduces the result bit-for-bit and cached figure
    /// output stays byte-identical to a fresh simulation.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut line = |k: &str, v: u64| {
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
            out.push('\n');
        };
        line("completion_ns", self.completion.as_nanos());
        line("ft.waves_started", self.ft.waves_started);
        line("ft.waves_committed", self.ft.waves_committed);
        line("ft.image_bytes_sent", self.ft.image_bytes_sent);
        line("ft.log_bytes_sent", self.ft.log_bytes_sent);
        line("ft.msgs_logged", self.ft.msgs_logged);
        line("ft.sends_delayed", self.ft.sends_delayed);
        line("ft.arrivals_delayed", self.ft.arrivals_delayed);
        line("ft.restarts", self.ft.restarts);
        line("ft.waves_aborted", self.ft.waves_aborted);
        line("ft.rollback_depth_max", self.ft.rollback_depth_max);
        line("ft.lost_work_ns", self.ft.lost_work.as_nanos());
        line("ft.images_refetched", self.ft.images_refetched);
        line("ft.orphan_images_end", self.ft.orphan_images_end);
        line("ft.images_rerouted", self.ft.images_rerouted);
        line("ft.partitions_suppressed", self.ft.partitions_suppressed);
        line("ft.partitions_expired", self.ft.partitions_expired);
        line("ft.retries_exhausted", self.ft.retries_exhausted);
        line("ft.replica_depth_max", self.ft.replica_depth_max);
        line(
            "ft.images_corrupt_detected",
            self.ft.images_corrupt_detected,
        );
        line("ft.images_repaired", self.ft.images_repaired);
        line("ft.servers_quarantined", self.ft.servers_quarantined);
        line("rt.msgs_sent", self.rt.msgs_sent);
        line("rt.bytes_sent", self.rt.bytes_sent);
        line("rt.msgs_delivered", self.rt.msgs_delivered);
        line("rt.finished_ranks", self.rt.finished_ranks as u64);
        line("rt.restarts", self.rt.restarts);
        line("rt.link_retries", self.rt.link_retries);
        line("events", self.events);
        line("leftover_unexpected", self.leftover_unexpected as u64);
        line("leftover_posted", self.leftover_posted as u64);
        out.push_str("rt.completion_time_ns=");
        match self.rt.completion_time {
            Some(t) => out.push_str(&t.as_nanos().to_string()),
            None => out.push_str("none"),
        }
        out.push('\n');
        out.push_str("ft.wave_timings=");
        for (i, w) in self.ft.wave_timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{}:{}",
                w.wave,
                w.started_at.as_nanos(),
                w.committed_at.as_nanos()
            ));
        }
        out.push('\n');
        out
    }

    /// Parse [`JobResult::encode`] output. Strict: every field must appear
    /// exactly once with a well-formed value, and unknown keys are rejected,
    /// so truncated or garbled cache entries decode to `None` (and get
    /// recomputed) instead of yielding corrupt results.
    pub fn decode(text: &str) -> Option<JobResult> {
        let mut ints = std::collections::HashMap::new();
        let mut completion_time: Option<Option<SimTime>> = None;
        let mut wave_timings: Option<Vec<crate::stats::WaveTiming>> = None;
        for raw in text.lines() {
            let line = raw.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=')?;
            match key {
                "rt.completion_time_ns" => {
                    let parsed = if value == "none" {
                        None
                    } else {
                        Some(SimTime::from_nanos(value.parse().ok()?))
                    };
                    if completion_time.replace(parsed).is_some() {
                        return None; // duplicate key
                    }
                }
                "ft.wave_timings" => {
                    let mut timings = Vec::new();
                    if !value.is_empty() {
                        for item in value.split(',') {
                            let mut parts = item.split(':');
                            let wave = parts.next()?.parse().ok()?;
                            let started = parts.next()?.parse().ok()?;
                            let committed = parts.next()?.parse().ok()?;
                            if parts.next().is_some() {
                                return None;
                            }
                            timings.push(crate::stats::WaveTiming {
                                wave,
                                started_at: SimTime::from_nanos(started),
                                committed_at: SimTime::from_nanos(committed),
                            });
                        }
                    }
                    if wave_timings.replace(timings).is_some() {
                        return None;
                    }
                }
                _ => {
                    let v: u64 = value.parse().ok()?;
                    if ints.insert(key, v).is_some() {
                        return None;
                    }
                }
            }
        }
        let mut take = |k: &str| ints.remove(k);
        let result = JobResult {
            completion: SimDuration::from_nanos(take("completion_ns")?),
            ft: FtStats {
                waves_started: take("ft.waves_started")?,
                waves_committed: take("ft.waves_committed")?,
                wave_timings: wave_timings?,
                image_bytes_sent: take("ft.image_bytes_sent")?,
                log_bytes_sent: take("ft.log_bytes_sent")?,
                msgs_logged: take("ft.msgs_logged")?,
                sends_delayed: take("ft.sends_delayed")?,
                arrivals_delayed: take("ft.arrivals_delayed")?,
                restarts: take("ft.restarts")?,
                waves_aborted: take("ft.waves_aborted")?,
                rollback_depth_max: take("ft.rollback_depth_max")?,
                lost_work: SimDuration::from_nanos(take("ft.lost_work_ns")?),
                images_refetched: take("ft.images_refetched")?,
                orphan_images_end: take("ft.orphan_images_end")?,
                images_rerouted: take("ft.images_rerouted")?,
                partitions_suppressed: take("ft.partitions_suppressed")?,
                partitions_expired: take("ft.partitions_expired")?,
                retries_exhausted: take("ft.retries_exhausted")?,
                replica_depth_max: take("ft.replica_depth_max")?,
                images_corrupt_detected: take("ft.images_corrupt_detected")?,
                images_repaired: take("ft.images_repaired")?,
                servers_quarantined: take("ft.servers_quarantined")?,
            },
            rt: RuntimeStats {
                msgs_sent: take("rt.msgs_sent")?,
                bytes_sent: take("rt.bytes_sent")?,
                msgs_delivered: take("rt.msgs_delivered")?,
                finished_ranks: take("rt.finished_ranks")? as usize,
                completion_time: completion_time?,
                restarts: take("rt.restarts")?,
                link_retries: take("rt.link_retries")?,
            },
            events: take("events")?,
            leftover_unexpected: take("leftover_unexpected")? as usize,
            leftover_posted: take("leftover_posted")? as usize,
        };
        if !ints.is_empty() {
            return None; // unknown keys: not something encode() produced
        }
        Some(result)
    }
}

/// Why a job could not run or finish.
#[derive(Debug)]
pub enum JobError {
    /// The Vcl implementation does not scale past its `select()` limit
    /// (the paper could not run Vcl beyond ~300 processes).
    VclProcessLimit {
        /// Requested job size.
        requested: usize,
        /// Implementation limit.
        limit: usize,
    },
    /// The simulation failed (deadlock or panic — a protocol/model bug).
    Sim(String),
    /// Recovery hit a fatal dead end (every replica of an image corrupt,
    /// missing or unreachable); the message names the stuck rank.
    Recovery(String),
    /// The run ended without every rank finishing (hit the time guard).
    /// Carries a per-rank status dump for diagnosis.
    Incomplete {
        /// One line per rank: status, ops completed, blocked flag.
        ranks: Vec<String>,
    },
    /// The job's network-fault plan is structurally invalid (see
    /// [`ftmpi_net::FaultPlanError`]); nothing was scheduled.
    FaultPlan(ftmpi_net::FaultPlanError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::VclProcessLimit { requested, limit } => write!(
                f,
                "Vcl cannot run {requested} processes: select() multiplexing \
                 caps it at {limit} (see §5.4)"
            ),
            JobError::Sim(e) => write!(f, "simulation error: {e}"),
            JobError::Recovery(e) => write!(f, "recovery error: {e}"),
            JobError::Incomplete { ranks } => {
                write!(f, "job did not complete; ranks: {}", ranks.join("; "))
            }
            JobError::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Build the deployment for a spec.
pub fn build_deployment(spec: &JobSpec) -> Deployment {
    match &spec.platform {
        Platform::Cluster(link) => Deployment::cluster(
            spec.nranks,
            spec.servers.max(1),
            link.clone(),
            spec.single_threshold,
        ),
        Platform::Grid => Deployment::grid(spec.nranks, spec.servers.max(1)),
    }
}

/// Observation and perturbation knobs for a run (see [`run_job_with`]).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Record the structured protocol trace (checker input). Off by
    /// default: tracing is behind a lock-free gate and costs nothing when
    /// disabled.
    pub trace: bool,
    /// Perturb same-time event tiebreaks with this seed (race detection).
    /// `None` keeps the canonical deterministic schedule.
    pub tiebreak_seed: Option<u64>,
    /// Drive the run under a prescribed schedule (exploration mode): at
    /// each multi-candidate instant the kernel takes the next index from
    /// this list, falling back to 0 (the canonical order) beyond its end.
    /// `None` leaves the kernel policy-free — the ordinary fast path.
    pub schedule: Option<Vec<usize>>,
    /// Force the event-queue backend (`true` = ladder), overriding the
    /// `FTMPI_NO_LADDER` environment default (the explorer's differential-
    /// backend mode). `None` keeps the default.
    pub ladder: Option<bool>,
    /// Re-open one of the two historical races as a regression fixture for
    /// the schedule explorer (see [`RaceFixture`]). `None` — always, outside
    /// explorer tests — leaves every protocol path exactly as shipped.
    pub race_fixture: Option<RaceFixture>,
}

/// The scheduling record of an explored run: every multi-candidate choice
/// point and every executed step, as recorded by the kernel (see
/// [`ftmpi_sim::Decision`] / [`ftmpi_sim::StepRecord`]). Empty unless
/// [`RunOptions::schedule`] engaged exploration mode.
#[derive(Debug, Default)]
pub struct ScheduleLog {
    /// Choice points in execution order.
    pub decisions: Vec<ftmpi_sim::Decision>,
    /// Executed steps with trace-effect windows.
    pub steps: Vec<ftmpi_sim::StepRecord>,
}

/// Run one job to completion and collect its metrics.
pub fn run_job(spec: JobSpec) -> Result<JobResult, JobError> {
    run_job_with(spec, RunOptions::default()).map(|(res, _)| res)
}

/// Like [`run_job`] but with observation options, also returning the
/// recorded trace (empty unless `opts.trace` is set).
pub fn run_job_with(
    spec: JobSpec,
    opts: RunOptions,
) -> Result<(JobResult, Vec<ftmpi_sim::TraceEvent>), JobError> {
    run_job_explored(spec, opts).map(|(res, trace, _)| (res, trace))
}

/// Like [`run_job_with`] but also returning the [`ScheduleLog`] — the
/// explorer's view of a run's choice points. Costs nothing extra when
/// exploration mode is off (the log is empty).
pub fn run_job_explored(
    spec: JobSpec,
    opts: RunOptions,
) -> Result<(JobResult, Vec<ftmpi_sim::TraceEvent>, ScheduleLog), JobError> {
    if spec.protocol == ProtocolChoice::Vcl && spec.nranks > spec.ft.vcl_process_limit {
        return Err(JobError::VclProcessLimit {
            requested: spec.nranks,
            limit: spec.ft.vcl_process_limit,
        });
    }
    let dep = build_deployment(&spec);
    let stack = spec.stack.unwrap_or(match spec.protocol {
        // Both MPICH-V protocol families ride the daemon architecture.
        ProtocolChoice::Vcl | ProtocolChoice::Mlog => SoftwareStack::VclDaemon,
        _ => SoftwareStack::TcpSock,
    });
    let placement: Placement = match &spec.placement_override {
        Some(nodes) => Placement::explicit(nodes.clone()),
        None => dep.placement.clone(),
    };
    // Effective placement, kept for resolving node-kill victims below.
    let placement_roles = placement.clone();
    let mut rt = RuntimeCore::new(
        NetModel::new(dep.topo.clone()),
        placement,
        RuntimeConfig::for_stack(stack),
    );
    rt.race_fixture = opts.race_fixture;
    let mut engine: Box<dyn CheckpointEngine> = match spec.protocol {
        ProtocolChoice::Dummy => Box::new(DummyProtocol),
        ProtocolChoice::Vcl => Box::new(Vcl::new(spec.ft.clone(), &dep)),
        ProtocolChoice::Pcl => Box::new(Pcl::new(spec.ft.clone(), &dep)),
        ProtocolChoice::Mlog => Box::new(Mlog::new(spec.ft.clone(), &dep)),
    };
    let coordinated = engine.coordinated().is_some();
    let world: WorldRef = World::new_ref(rt, engine);

    let mut sim = Sim::new();
    // Backend override first (it replaces the still-empty queue), then the
    // policy (it starts lane recording on whichever queue survives).
    if let Some(ladder) = opts.ladder {
        sim.force_queue_backend(ladder);
    }
    if let Some(prefix) = opts.schedule {
        sim.set_schedule_policy(Box::new(ftmpi_sim::PrescribedPolicy::new(prefix)));
    }
    if let Some(t) = spec.max_virtual_time {
        sim.set_max_time(t);
    }
    if opts.trace {
        sim.enable_trace();
    }
    if let Some(seed) = opts.tiebreak_seed {
        sim.set_tiebreak_seed(seed);
    }

    let w2 = Arc::clone(&world);
    let app = Arc::clone(&spec.app);
    let nranks = spec.nranks;
    sim.schedule(SimTime::ZERO, move |sc| {
        for r in 0..nranks {
            spawn_rank(sc, &w2, r, Arc::clone(&app));
        }
        let mut w = w2.lock();
        let (engine, rt) = split(&mut w);
        engine.start(rt, sc);
    });

    for &at in &spec.wave_triggers {
        let w2 = Arc::clone(&world);
        sim.schedule(at, move |sc| {
            let mut w = w2.lock();
            let (engine, rt) = split(&mut w);
            engine.trigger(rt, sc);
        });
    }

    // Server kills are scheduled before rank kills so that at equal times
    // the server's images vanish first: a rank kill in the same nanosecond
    // must not plan its restore against a server that is dying with it
    // (independent Poisson schedules can legally collide — see
    // `FailurePlan::merged`).
    for (at, server) in spec.failures.server_kills.clone() {
        let w2 = Arc::clone(&world);
        sim.schedule(at, move |sc| server_fail(sc, &w2, server));
    }

    for (at, victim) in spec.failures.kills.clone() {
        let w2 = Arc::clone(&world);
        let app = Arc::clone(&spec.app);
        let ft = spec.ft.clone();
        sim.schedule(at, move |sc| {
            inject_kill_many(sc, &w2, &app, &[victim], &ft)
        });
    }

    // Node deaths: the node's colocated server fails first (its replicas
    // vanish before the restore wave is planned), then every rank the node
    // hosted dies in one correlated kill. Roles are resolved eagerly from
    // the deployment so the scheduled closure carries plain indices.
    for (at, node) in spec.failures.node_kills.clone() {
        let victims: Vec<usize> = (0..spec.nranks)
            .filter(|&r| placement_roles.node_of(r).0 == node)
            .collect();
        let server_idx = dep.server_nodes.iter().position(|n| n.0 == node);
        let w2 = Arc::clone(&world);
        let app = Arc::clone(&spec.app);
        let ft = spec.ft.clone();
        sim.schedule(at, move |sc| {
            if let Some(idx) = server_idx {
                server_fail(sc, &w2, idx);
            }
            inject_kill_many(sc, &w2, &app, &victims, &ft);
        });
    }

    // Network-fault schedule. Every transition runs as a `LinkFault` event
    // on its own fault lane — the lane audit proves none is laneless, and a
    // perturbation seed cannot reorder a transition against itself. The
    // plan is validated up front (and flaps expanded): a structurally
    // broken schedule is a spec bug, not a silent last-writer-wins run.
    if !spec.net_faults.is_empty() {
        spec.net_faults.validate().map_err(JobError::FaultPlan)?;
    }
    let mut fault_idx = 0u64;
    for ev in spec.net_faults.expanded_link_events() {
        let w2 = Arc::clone(&world);
        sim.schedule_link_fault(ev.at, fault_lane(fault_idx), move |_sc| {
            let mut w = w2.lock();
            match ev.kind {
                LinkFaultKind::Down => w.rt.net.set_link_down(ev.from, ev.to),
                LinkFaultKind::Degrade(f) => w.rt.net.degrade_link(ev.from, ev.to, f),
                LinkFaultKind::Restore => w.rt.net.restore_link(ev.from, ev.to),
            }
        });
        fault_idx += 1;
    }
    let service_node = dep.service_node;
    // Server-group partitions resolve their fleet indices to nodes now that
    // placement is known, then schedule exactly like node-set partitions.
    let mut partitions = spec.net_faults.partitions.clone();
    for sp in &spec.net_faults.server_partitions {
        let mut nodes = Vec::with_capacity(sp.servers.len());
        for &idx in &sp.servers {
            match dep.server_nodes.get(idx) {
                Some(&n) => nodes.push(n),
                None => {
                    return Err(JobError::FaultPlan(
                        ftmpi_net::FaultPlanError::BadServerIndex {
                            name: sp.name.clone(),
                            index: idx,
                            fleet: dep.server_nodes.len(),
                        },
                    ))
                }
            }
        }
        partitions.push(ftmpi_net::PartitionSpec {
            name: sp.name.clone(),
            nodes,
            direction: sp.direction,
            start: sp.start,
            heal: sp.heal,
            tear: sp.tear,
        });
    }
    for p in partitions {
        let w2 = Arc::clone(&world);
        let app = Arc::clone(&spec.app);
        let ft = spec.ft.clone();
        let name = p.name.clone();
        let nodes = p.nodes.clone();
        let direction = p.direction;
        let tear = p.tear;
        sim.schedule_link_fault(p.start, fault_lane(fault_idx), move |sc| {
            partition_cut(
                sc,
                &w2,
                &app,
                &ft,
                &name,
                &nodes,
                direction,
                tear,
                service_node,
            );
        });
        fault_idx += 1;
        if let Some(heal) = p.heal {
            let w2 = Arc::clone(&world);
            let name = p.name.clone();
            sim.schedule_link_fault(heal, fault_lane(fault_idx), move |_sc| {
                w2.lock().rt.net.heal_partition(&name);
            });
            fault_idx += 1;
        }
    }

    // Corruption schedule: explicit bit-flips plus expanded silent-rot
    // events, each on its own fault lane (continuing the network-fault
    // counter — corruption races flows and fetch probes touching the same
    // replica exactly like a link transition would).
    for ev in spec.failures.expanded_corruptions() {
        let w2 = Arc::clone(&world);
        sim.schedule_link_fault(ev.at, fault_lane(fault_idx), move |sc| {
            corrupt_images(sc, &w2, ev.server, ev.rank);
        });
        fault_idx += 1;
    }

    // Background scrubber (off by default; only a server fleet has
    // replicas to scrub).
    if let Some(interval) = spec.ft.scrub_interval.filter(|_| coordinated) {
        let w2 = Arc::clone(&world);
        sim.schedule(SimTime::ZERO, move |sc| arm_scrubber(sc, &w2, interval));
    }

    let report = sim.run().map_err(|e| JobError::Sim(e.to_string()))?;

    let mut w = world.lock();
    if let Some(e) = &w.rt.fatal_error {
        return Err(JobError::Recovery(e.clone()));
    }
    let completion = match w.rt.stats.completion_time {
        Some(t) => t.saturating_since(SimTime::ZERO),
        None => {
            let ranks =
                w.rt.ranks
                    .iter()
                    .enumerate()
                    .map(|(r, rs)| format!("r{r}: {}", rs.debug_summary()))
                    .collect();
            return Err(JobError::Incomplete { ranks });
        }
    };
    let rt_stats = w.rt.stats.clone();
    let (leftover_unexpected, leftover_posted) = w.rt.leftover_messages();
    let ft_stats = split(&mut w).0.final_stats();
    drop(w);
    Ok((
        JobResult {
            completion,
            ft: ft_stats,
            rt: rt_stats,
            events: report.events_executed,
            leftover_unexpected,
            leftover_posted,
        },
        report.trace,
        ScheduleLog {
            decisions: report.decisions,
            steps: report.steps,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::WaveTiming;

    fn sample() -> JobResult {
        JobResult {
            completion: SimDuration::from_nanos(123_456_789_012),
            ft: FtStats {
                waves_started: 7,
                waves_committed: 6,
                wave_timings: vec![
                    WaveTiming {
                        wave: 1,
                        started_at: SimTime::from_nanos(10),
                        committed_at: SimTime::from_nanos(999),
                    },
                    WaveTiming {
                        wave: 2,
                        started_at: SimTime::from_nanos(2_000),
                        committed_at: SimTime::from_nanos(3_500),
                    },
                ],
                image_bytes_sent: 1 << 40,
                log_bytes_sent: 42,
                msgs_logged: 9,
                sends_delayed: 3,
                arrivals_delayed: 1,
                restarts: 2,
                waves_aborted: 1,
                rollback_depth_max: 1,
                lost_work: SimDuration::from_nanos(7_654_321),
                images_refetched: 2,
                orphan_images_end: 0,
                images_rerouted: 1,
                partitions_suppressed: 3,
                partitions_expired: 1,
                retries_exhausted: 4,
                replica_depth_max: 2,
                images_corrupt_detected: 5,
                images_repaired: 3,
                servers_quarantined: 1,
            },
            rt: RuntimeStats {
                msgs_sent: 1000,
                bytes_sent: u64::MAX,
                msgs_delivered: 998,
                finished_ranks: 64,
                completion_time: Some(SimTime::from_nanos(123_456_789_012)),
                restarts: 2,
                link_retries: 17,
            },
            events: 555_555,
            leftover_unexpected: 0,
            leftover_posted: 0,
        }
    }

    #[test]
    fn encode_decode_roundtrips_bit_for_bit() {
        let r = sample();
        let decoded = JobResult::decode(&r.encode()).expect("decode");
        // Integer-only fields: equality here is bit-for-bit identity.
        assert_eq!(decoded.completion, r.completion);
        assert_eq!(decoded.ft, r.ft);
        assert_eq!(decoded.rt.msgs_sent, r.rt.msgs_sent);
        assert_eq!(decoded.rt.bytes_sent, r.rt.bytes_sent);
        assert_eq!(decoded.rt.msgs_delivered, r.rt.msgs_delivered);
        assert_eq!(decoded.rt.finished_ranks, r.rt.finished_ranks);
        assert_eq!(decoded.rt.completion_time, r.rt.completion_time);
        assert_eq!(decoded.rt.restarts, r.rt.restarts);
        assert_eq!(decoded.rt.link_retries, r.rt.link_retries);
        assert_eq!(decoded.events, r.events);
        assert_eq!(decoded.leftover_unexpected, r.leftover_unexpected);
        assert_eq!(decoded.leftover_posted, r.leftover_posted);
        // And the encoding itself is stable.
        assert_eq!(decoded.encode(), r.encode());
    }

    #[test]
    fn decode_roundtrips_empty_timings_and_running_job() {
        let mut r = sample();
        r.ft.wave_timings.clear();
        r.rt.completion_time = None;
        let decoded = JobResult::decode(&r.encode()).expect("decode");
        assert!(decoded.ft.wave_timings.is_empty());
        assert_eq!(decoded.rt.completion_time, None);
    }

    #[test]
    fn decode_rejects_malformed_input() {
        let good = sample().encode();
        // Truncation (drop the last line).
        let truncated = good.lines().take(10).collect::<Vec<_>>().join("\n");
        assert!(JobResult::decode(&truncated).is_none());
        // Garbled value.
        assert!(JobResult::decode(&good.replace("events=", "events=x")).is_none());
        // Unknown key.
        assert!(JobResult::decode(&format!("{good}bogus=1\n")).is_none());
        // Duplicate key.
        assert!(JobResult::decode(&format!("{good}events=1\n")).is_none());
        // Missing separator.
        assert!(JobResult::decode(&good.replace("ft.restarts=", "ft.restarts ")).is_none());
        assert!(JobResult::decode("").is_none());
    }
}
