//! The three workloads: their inputs (set-up) and their measured phase.
//!
//! * `paper_sweep` — the `--fast` job sets of figures 5 and 7, run cold
//!   through the harness's public figure entry points with one worker.
//! * `rank_scale` — the `scale_bench` ring under Mlog at 10⁵ ranks.
//! * `fault_recovery` — BT.B/64 under seeded rank kills and silent image
//!   corruption, each job traced and checked by `check_trace`.
//!
//! Only `fault_recovery` draws from the seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ftmpi_bench::figures::{fig5_servers, fig7_myrinet};
use ftmpi_bench::{
    bt_workload, cg_workload, cluster_spec, myrinet_spec, proto_name, spec_fingerprint,
    HarnessArgs, MemoCache,
};
use ftmpi_check::check_trace;
use ftmpi_core::{
    run_job, run_job_with, FailurePlan, FtConfig, JobResult, JobSpec, ProtocolChoice, RunOptions,
    SilentCorruptionSpec,
};
use ftmpi_mpi::{app_fn, AppFn};
use ftmpi_nas::NasClass;
use ftmpi_net::SoftwareStack;
use ftmpi_sim::{SimDuration, SimTime, TraceEvent};

use crate::oracle::{check_ok, check_result, fnv1a64};
use crate::spans::Spans;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 5 and 7, `--fast`.
    PaperSweep,
    /// The 10⁵-rank Mlog ring.
    RankScale,
    /// Seeded failures and corruption under both coordinated protocols.
    FaultRecovery,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::RankScale,
        Workload::FaultRecovery,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::RankScale => "rank_scale",
            Workload::FaultRecovery => "fault_recovery",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed digests for this workload (default seed).
    pub fn golden(self) -> &'static str {
        match self {
            Workload::PaperSweep => include_str!("../golden/paper_sweep.txt"),
            Workload::RankScale => include_str!("../golden/rank_scale.txt"),
            Workload::FaultRecovery => include_str!("../golden/fault_recovery.txt"),
        }
    }

    /// Whether the committed digests apply at `seed`: the two fixed paper
    /// configurations ignore the seed.
    pub fn golden_applies(self, seed: u64) -> bool {
        self != Workload::FaultRecovery || seed == DEFAULT_SEED
    }
}

/// The seed the committed `fault_recovery` digests were made with.
pub(crate) const DEFAULT_SEED: u64 = 0;

/// One job of a workload.
#[derive(Clone)]
pub struct Job {
    /// Stable label; the key of its committed digest.
    pub label: String,
    /// Application tag for [`spec_fingerprint`].
    pub tag: String,
    /// What to run.
    pub spec: JobSpec,
    /// Run with the protocol trace on and check it with `check_trace`.
    pub traced: bool,
}

/// Everything the benchmark builds before its first `run_job*` call.
pub struct Setup {
    /// The workload's jobs, in run order.
    pub jobs: Vec<Job>,
    /// `spec_fingerprint` of each job (the memo-cache key).
    pub keys: Vec<String>,
}

/// Time `f` under span `name` when a recorder is given.
fn timed<T>(spans: &mut Option<&mut Spans>, name: &str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(rec) => rec.time(name, f).0,
        None => f(),
    }
}

/// Build the workload's inputs: NAS apps, spec builders, failure-plan
/// expansion, and fingerprints. Spans go to `spans` when given.
pub fn setup(w: Workload, seed: u64, mut spans: Option<&mut Spans>) -> Setup {
    let jobs = match w {
        Workload::PaperSweep => paper_sweep_jobs(&mut spans),
        Workload::RankScale => rank_scale_jobs(&mut spans),
        Workload::FaultRecovery => fault_recovery_jobs(seed, &mut spans),
    };
    let keys = timed(&mut spans, "bench.fingerprint", || {
        jobs.iter()
            .map(|j| spec_fingerprint(&j.tag, &j.spec))
            .collect()
    });
    Setup { jobs, keys }
}

/// Figures 5 and 7 `--fast`, spec for spec and in the same order as
/// `fig5_servers::run` and `fig7_myrinet::run` queue them, so their
/// fingerprints find the figures' results in the memo cache.
fn paper_sweep_jobs(spans: &mut Option<&mut Spans>) -> Vec<Job> {
    let nranks = 64;
    let (bt, cg) = timed(spans, "nas.build", || {
        (
            bt_workload(NasClass::B, nranks),
            cg_workload(NasClass::C, nranks),
        )
    });
    let mut jobs = Vec::new();
    let mut push = |label: String, tag: &str, mut spec: JobSpec| {
        spec.single_threshold = 32;
        jobs.push(Job {
            label,
            tag: tag.to_string(),
            spec,
            traced: false,
        });
    };
    let period = SimDuration::from_secs(30);
    push(
        "fig5/nockpt".into(),
        &bt.name,
        cluster_spec(&bt, nranks, ProtocolChoice::Dummy, 1, period),
    );
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        for servers in [1, 2, 4, 8] {
            push(
                format!("fig5/{}x{servers}", proto_name(proto)),
                &bt.name,
                cluster_spec(&bt, nranks, proto, servers, period),
            );
        }
    }
    let series = [
        ("pcl-socket", ProtocolChoice::Pcl, SoftwareStack::TcpSock),
        ("vcl", ProtocolChoice::Vcl, SoftwareStack::VclDaemon),
        ("pcl-nemesis", ProtocolChoice::Pcl, SoftwareStack::NemesisGm),
    ];
    for (label, proto, stack) in series {
        for p in [f64::INFINITY, 15.0, 5.0] {
            let (proto, period) = if p.is_infinite() {
                (ProtocolChoice::Dummy, SimDuration::from_secs(3600))
            } else {
                (proto, SimDuration::from_secs_f64(p))
            };
            push(
                format!("fig7/{label}/{p}"),
                &cg.name,
                myrinet_spec(&cg, nranks, proto, stack, 2, period),
            );
        }
    }
    jobs
}

/// Ranks in the `rank_scale` ring.
pub(crate) const RING_RANKS: usize = 100_000;
/// Ring iterations: sizes one job to a few seconds of host time.
pub(crate) const RING_ITERS: usize = 4;

/// The `scale_bench` ring: every iteration each rank shifts 1 KiB to its
/// right neighbour, then computes.
pub(crate) fn ring_app(iters: usize) -> AppFn {
    let compute = SimDuration::from_millis(1_500);
    app_fn(move |mut mpi| async move {
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for i in 0..iters {
            mpi.shift(right, left, (i % 997) as i32, 1_024).await;
            mpi.compute(compute);
        }
        mpi
    })
}

/// `scale_bench`'s Mlog spec: 4 servers, 256 KiB images, 2 s per-rank
/// checkpoint period.
pub(crate) fn ring_spec(nranks: usize, app: AppFn) -> JobSpec {
    let mut spec = JobSpec::new(nranks, ProtocolChoice::Mlog, app);
    spec.servers = 4;
    spec.ft = FtConfig {
        period: SimDuration::from_secs(2),
        first_wave_delay: SimDuration::from_millis(500),
        image_bytes: 256 << 10,
        ..FtConfig::default()
    };
    spec
}

fn rank_scale_jobs(spans: &mut Option<&mut Spans>) -> Vec<Job> {
    // The ring stands in for a NAS skeleton here, so its construction is
    // timed under the same span name: `nas.build_s` is application
    // construction on every workload.
    let app = timed(spans, "nas.build", || ring_app(RING_ITERS));
    vec![Job {
        label: format!("ring/{RING_RANKS}/mlog"),
        tag: format!("ring.i{RING_ITERS}.b1024"),
        spec: ring_spec(RING_RANKS, app),
        traced: false,
    }]
}

/// Failure-plan draws per seed in `fault_recovery`; each runs under Pcl
/// and Vcl.
pub(crate) const FAULT_DRAWS: u64 = 4;
/// Mean time to failure of the rank-kill process.
const MTTF_S: f64 = 30.0;
/// Rank kills per plan: one per MTTF window over the first 120 s.
const KILLS: u64 = 4;
/// Mean time between silent corruptions on server 0.
const MTBC_S: f64 = 10.0;

/// The seeded failure plan of draw `draw`: rank kills at an MTTF of 30 s
/// over the first 120 s, stratified to one uniformly placed kill in each
/// 30 s window, merged with a silent-corruption process on server 0 over
/// the same window. Stratifying keeps seeds from differing in how many
/// failures strike or how they cluster, which would otherwise dominate the
/// run-to-run spread of `wall_s` and `peak_rss_mb`; they still differ in
/// when, whom, and which images rot.
pub(crate) fn fault_plan(seed: u64, draw: u64, nranks: usize) -> FailurePlan {
    let mut state = fnv1a64(format!("fault_recovery/{seed}/{draw}").as_bytes());
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let window_ns = (MTTF_S * 1e9) as u64;
    let mut plan = FailurePlan::none();
    for k in 0..KILLS {
        let at = SimTime::from_nanos(k * window_ns + next() % window_ns);
        plan = plan.with_kill(at, (next() % nranks as u64) as usize);
    }
    plan.with_silent_corruption(SilentCorruptionSpec {
        server: 0,
        mtbc: SimDuration::from_secs_f64(MTBC_S),
        start: SimTime::ZERO,
        end: SimTime::from_nanos(KILLS * window_ns),
        ranks: nranks,
        seed: next(),
    })
}

fn fault_recovery_jobs(seed: u64, spans: &mut Option<&mut Spans>) -> Vec<Job> {
    let nranks = 64;
    let bt = timed(spans, "nas.build", || bt_workload(NasClass::B, nranks));
    let mut jobs = Vec::new();
    for draw in 0..FAULT_DRAWS {
        let plan = timed(spans, "core.failure_plan", || {
            let plan = fault_plan(seed, draw, nranks);
            // Expand the corruption process once here, as the runner will.
            let _ = plan.expanded_corruptions();
            plan
        });
        for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
            let mut spec = cluster_spec(&bt, nranks, proto, 4, SimDuration::from_secs(20));
            spec.single_threshold = 32;
            spec.ft = spec
                .ft
                .with_replicas(2)
                .with_retained_waves(2)
                .with_scrub_interval_secs(5.0)
                .with_quarantine_threshold(8);
            spec.failures = plan.clone();
            jobs.push(Job {
                label: format!("fault/{draw}/{}", proto_name(proto)),
                tag: bt.name.clone(),
                spec,
                traced: true,
            });
        }
    }
    jobs
}

/// What one repetition of a measured phase produced.
pub struct Rep {
    /// Host time of the measured phase.
    pub wall: Duration,
    /// `(key, digest or failure)` per job, then per figure record file.
    pub items: Vec<(String, Result<u64, String>)>,
}

/// `check_trace`'s verdict on a job's protocol trace.
pub(crate) fn check_job_trace(
    label: &str,
    spec: &JobSpec,
    trace: &[TraceEvent],
) -> Result<(), String> {
    let report = check_trace(spec.protocol, spec.nranks, trace);
    match report.violations.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{label}: {} invariant violations, first: {first:?}",
            report.violations.len()
        )),
    }
}

/// What running one job produced.
pub(crate) struct Checked {
    /// The result, if the job ran.
    pub result: Option<JobResult>,
    /// The result digest, or why the job failed.
    pub verdict: Result<u64, String>,
    /// Protocol-trace events checked (0 for untraced jobs).
    pub trace_events: u64,
}

/// Run one job the way its workload does: untraced through `run_job`, or
/// traced through `run_job_with` and checked by `check_trace`. With a
/// recorder, the run and the check get `core.run_job` and
/// `check.check_trace` spans.
pub(crate) fn run_checked(job: &Job, mut spans: Option<&mut Spans>) -> Checked {
    if !job.traced {
        let res = timed(&mut spans, "core.run_job", || run_job(job.spec.clone()));
        return Checked {
            verdict: check_result(&job.label, &res),
            result: res.ok(),
            trace_events: 0,
        };
    }
    let opts = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    match timed(&mut spans, "core.run_job", || {
        run_job_with(job.spec.clone(), opts)
    }) {
        Ok((res, trace)) => {
            let checked = timed(&mut spans, "check.check_trace", || {
                check_job_trace(&job.label, &job.spec, &trace)
            });
            let trace_events = trace.len() as u64;
            drop(trace);
            Checked {
                verdict: checked.and_then(|()| check_ok(&job.label, &res)),
                result: Some(res),
                trace_events,
            }
        }
        Err(e) => Checked {
            result: None,
            verdict: Err(format!("{}: job error: {e}", job.label)),
            trace_events: 0,
        },
    }
}

/// The harness arguments and a fresh, empty memo cache rooted at `dir`
/// (no committed seed entries: the seed tier points at an empty path).
pub(crate) fn fresh_harness(dir: &Path) -> (HarnessArgs, Arc<MemoCache>) {
    let args = HarnessArgs {
        fast: true,
        out_dir: dir.to_path_buf(),
        jobs: 1,
    };
    let cache = MemoCache::persistent_with_seed(dir.join(".cache"), dir.join("no-seed"));
    (args, cache)
}

/// Run figures 5 and 7 through their entry points; `false` if one panicked
/// (a job error inside a figure aborts it).
pub(crate) fn run_figures(args: &HarnessArgs, cache: &Arc<MemoCache>) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        fig5_servers::run(args, cache);
        fig7_myrinet::run(args, cache);
    }))
    .is_ok()
}

/// The figure record files `paper_sweep` checks.
pub(crate) const RECORDS: [&str; 2] = ["fig5.json", "fig7.json"];

/// Digest of each figure record file in `dir`.
pub(crate) fn record_items(dir: &Path) -> Vec<(String, Result<u64, String>)> {
    RECORDS
        .iter()
        .map(|name| {
            let key = format!("record:{name}");
            let digest = std::fs::read(dir.join(name))
                .map(|bytes| fnv1a64(&bytes))
                .map_err(|e| format!("{key}: {e}"));
            (key, digest)
        })
        .collect()
}

/// One repetition of the workload's measured phase, in a fresh directory
/// `dir` (created here, removed by the caller).
pub fn measure(w: Workload, setup: &Setup, dir: &Path) -> Rep {
    std::fs::create_dir_all(dir).expect("create repetition directory");
    match w {
        Workload::PaperSweep => {
            let (args, cache) = fresh_harness(dir);
            let start = Instant::now();
            let ok = run_figures(&args, &cache);
            let wall = start.elapsed();
            let mut items = Vec::new();
            for (job, key) in setup.jobs.iter().zip(&setup.keys) {
                let verdict = match &cache.get(key) {
                    Some(r) => check_ok(&job.label, r),
                    None if ok => Err(format!("{}: the figures did not run this job", job.label)),
                    None => Err(format!("{}: figure aborted before this job", job.label)),
                };
                items.push((job.label.clone(), verdict));
            }
            items.extend(record_items(dir));
            Rep { wall, items }
        }
        Workload::RankScale | Workload::FaultRecovery => {
            let start = Instant::now();
            let outcomes: Vec<_> = setup.jobs.iter().map(|j| run_checked(j, None)).collect();
            let wall = start.elapsed();
            let items = setup
                .jobs
                .iter()
                .zip(outcomes)
                .map(|(job, c)| (job.label.clone(), c.verdict))
                .collect();
            Rep { wall, items }
        }
    }
}

/// Directory for repetition `rep` of a run under `out`.
pub fn rep_dir(out: &Path, rep: usize) -> PathBuf {
    out.join(format!("rep-{rep}"))
}
