//! Integration tests for the checkpointing protocols: failure-free overhead
//! behaviour, wave mechanics, and end-to-end recovery correctness.

use std::sync::Arc;

use ftmpi_core::{run_job, FailurePlan, FtConfig, JobError, JobResult, JobSpec, ProtocolChoice};
use ftmpi_mpi::{app_fn, AppFn};
use ftmpi_net::{CutDirection, LinkFlapSpec, NetFaultPlan, NodeId, SoftwareStack};
use ftmpi_sim::{SimDuration, SimTime};

/// Ring workload: each iteration sends `bytes` to the right neighbour,
/// receives from the left, then computes.
fn ring_app(iters: usize, bytes: u64, compute: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for i in 0..iters {
            let req = mpi.irecv(Some(left), Some(i as i32)).await;
            mpi.send(right, i as i32, bytes).await;
            mpi.wait(req).await;
            mpi.compute(compute);
        }
        mpi
    })
}

/// Allreduce-heavy workload (CG-like: latency bound, frequent syncs).
fn allreduce_app(iters: usize, bytes: u64, compute: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        for _ in 0..iters {
            mpi.compute(compute);
            mpi.allreduce(bytes).await;
        }
        mpi
    })
}

fn base_spec(nranks: usize, protocol: ProtocolChoice, app: AppFn) -> JobSpec {
    let mut spec = JobSpec::new(nranks, protocol, app);
    spec.servers = 2;
    spec.ft = FtConfig {
        period: SimDuration::from_secs(5),
        first_wave_delay: SimDuration::from_secs(2),
        image_bytes: 4 << 20,
        ..FtConfig::default()
    };
    spec
}

fn run(spec: JobSpec) -> JobResult {
    run_job(spec).expect("job failed")
}

fn assert_clean(res: &JobResult) {
    assert_eq!(res.leftover_unexpected, 0, "stray unconsumed messages");
    assert_eq!(res.leftover_posted, 0, "unmatched posted receives");
}

#[test]
fn dummy_baseline_runs_without_waves() {
    let res = run(base_spec(
        8,
        ProtocolChoice::Dummy,
        ring_app(20, 10_000, SimDuration::from_millis(100)),
    ));
    assert_eq!(res.waves(), 0);
    assert!(res.completion_secs() > 1.9, "{}", res.completion_secs());
    assert_clean(&res);
}

#[test]
fn vcl_checkpoints_with_modest_overhead() {
    let app = |p| base_spec(8, p, ring_app(100, 10_000, SimDuration::from_millis(200)));
    let dummy = run(app(ProtocolChoice::Dummy));
    let vcl = run(app(ProtocolChoice::Vcl));
    assert!(vcl.waves() >= 2, "expected waves, got {}", vcl.waves());
    assert!(vcl.ft.image_bytes_sent > 0);
    // Non-blocking: communication continues; overhead stays bounded.
    let ratio = vcl.completion_secs() / dummy.completion_secs();
    assert!(ratio < 1.6, "Vcl overhead too high: {ratio}");
    assert_clean(&vcl);
}

#[test]
fn pcl_checkpoints_and_synchronizes() {
    let app = |p| base_spec(8, p, ring_app(100, 10_000, SimDuration::from_millis(200)));
    let dummy = run(app(ProtocolChoice::Dummy));
    let pcl = run(app(ProtocolChoice::Pcl));
    assert!(pcl.waves() >= 2, "expected waves, got {}", pcl.waves());
    assert!(pcl.completion_secs() > dummy.completion_secs());
    assert_clean(&pcl);
}

#[test]
fn pcl_overhead_grows_with_checkpoint_frequency() {
    let mk = |period_s: f64| {
        let mut spec = base_spec(
            8,
            ProtocolChoice::Pcl,
            allreduce_app(300, 4_000, SimDuration::from_millis(100)),
        );
        spec.ft.period = SimDuration::from_secs_f64(period_s);
        run(spec)
    };
    let frequent = mk(1.0);
    let rare = mk(15.0);
    assert!(frequent.waves() > rare.waves());
    assert!(
        frequent.completion_secs() > rare.completion_secs(),
        "frequent {} vs rare {}",
        frequent.completion_secs(),
        rare.completion_secs()
    );
}

/// Producer/consumer stream: rank 0 fires `count` eager sends back-to-back
/// (building a deep NIC backlog), rank 1 consumes slowly. A checkpoint wave
/// arriving mid-stream finds messages genuinely *in the channel*.
fn stream_app(count: usize, bytes: u64, consume: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        match mpi.rank() {
            0 => {
                for i in 0..count {
                    mpi.send(1, (i % 1000) as i32, bytes).await;
                }
            }
            1 => {
                for i in 0..count {
                    mpi.recv(Some(0), Some((i % 1000) as i32)).await;
                    mpi.compute(consume);
                }
            }
            _ => {}
        }
        mpi
    })
}

#[test]
fn vcl_logs_in_transit_messages() {
    let mut spec = base_spec(
        2,
        ProtocolChoice::Vcl,
        stream_app(200, 256 << 10, SimDuration::from_millis(2)),
    );
    // Strike while ~50 MB of sends are still queued on the channel.
    spec.ft.first_wave_delay = SimDuration::from_millis(200);
    spec.ft.period = SimDuration::from_secs(1);
    let res = run(spec);
    assert!(res.waves() >= 1);
    assert!(
        res.ft.msgs_logged > 0,
        "Chandy–Lamport should log channel state"
    );
    assert!(res.ft.log_bytes_sent > 0);
    assert_clean(&res);
}

#[test]
fn vcl_recovers_with_logged_channel_state() {
    // Burst (builds channel backlog caught by the wave's log), long quiet
    // phase (lets the wave commit), then more exchanges. Killing during the
    // quiet phase forces a restart whose correctness depends on replaying
    // the logged channel state.
    let app: AppFn = app_fn(|mut mpi| async move {
        let count = 100usize;
        match mpi.rank() {
            0 => {
                for i in 0..count {
                    mpi.send(1, (i % 1000) as i32, 256 << 10).await;
                }
                mpi.compute(SimDuration::from_secs(3));
                for i in 0..10 {
                    mpi.send(1, 2000 + i, 64).await;
                    mpi.recv(Some(1), Some(3000 + i)).await;
                }
            }
            _ => {
                for i in 0..count {
                    mpi.recv(Some(0), Some((i % 1000) as i32)).await;
                    mpi.compute(SimDuration::from_millis(2));
                }
                mpi.compute(SimDuration::from_secs(3));
                for i in 0..10 {
                    mpi.recv(Some(0), Some(2000 + i)).await;
                    mpi.send(0, 3000 + i, 64).await;
                }
            }
        }
        mpi
    });
    let mut spec = base_spec(2, ProtocolChoice::Vcl, app);
    spec.ft.first_wave_delay = SimDuration::from_millis(100);
    spec.ft.period = SimDuration::from_secs(60); // exactly one wave
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(1_500_000_000), 1);
    spec.max_virtual_time = Some(SimTime::from_nanos(120_000_000_000));
    let res = run(spec);
    assert_eq!(res.rt.restarts, 1);
    assert_eq!(res.waves(), 1);
    assert!(res.ft.msgs_logged > 0, "wave should have logged messages");
    assert_clean(&res);
}

#[test]
fn pcl_delays_traffic_during_waves() {
    let res = run(base_spec(
        8,
        ProtocolChoice::Pcl,
        ring_app(2_000, 50_000, SimDuration::from_millis(10)),
    ));
    assert!(res.waves() >= 1);
    assert!(
        res.ft.sends_delayed > 0,
        "blocking protocol should delay send posts"
    );
    assert_clean(&res);
}

#[test]
fn wave_timings_are_ordered_and_disjoint() {
    let res = run(base_spec(
        6,
        ProtocolChoice::Pcl,
        ring_app(150, 20_000, SimDuration::from_millis(150)),
    ));
    let w = &res.ft.wave_timings;
    assert!(w.len() >= 2);
    for t in w {
        assert!(t.committed_at > t.started_at);
    }
    for pair in w.windows(2) {
        // Next wave starts only after the previous committed (+period).
        assert!(pair[1].started_at > pair[0].committed_at);
    }
}

#[test]
fn vcl_recovers_from_a_failure() {
    let app = ring_app(120, 10_000, SimDuration::from_millis(200));
    let mut spec = base_spec(6, ProtocolChoice::Vcl, Arc::clone(&app));
    let clean = run_job(JobSpec {
        app: Arc::clone(&app),
        ..base_spec(6, ProtocolChoice::Vcl, Arc::clone(&app))
    })
    .unwrap();
    // Kill rank 3 mid-run (after at least one wave should have committed).
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(12_000_000_000), 3);
    let failed = run(spec);
    assert_eq!(failed.ft.restarts, 1);
    assert_eq!(failed.rt.restarts, 1);
    assert!(
        failed.completion_secs() > clean.completion_secs(),
        "failure must cost time: {} vs {}",
        failed.completion_secs(),
        clean.completion_secs()
    );
    // Rollback bounded: lost work ≤ period + wave + restart costs. Allow 3×.
    assert!(
        failed.completion_secs() < clean.completion_secs() * 3.0,
        "recovery too expensive: {} vs {}",
        failed.completion_secs(),
        clean.completion_secs()
    );
    assert_clean(&failed);
}

#[test]
fn pcl_recovers_from_a_failure() {
    let app = ring_app(120, 10_000, SimDuration::from_millis(200));
    let clean = run(base_spec(6, ProtocolChoice::Pcl, Arc::clone(&app)));
    let mut spec = base_spec(6, ProtocolChoice::Pcl, app);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(12_000_000_000), 2);
    let failed = run(spec);
    assert_eq!(failed.ft.restarts, 1);
    assert!(failed.completion_secs() > clean.completion_secs());
    assert!(failed.completion_secs() < clean.completion_secs() * 3.0);
    assert_clean(&failed);
}

#[test]
fn failure_before_first_commit_restarts_from_scratch() {
    let app = ring_app(40, 10_000, SimDuration::from_millis(100));
    let mut spec = base_spec(6, ProtocolChoice::Pcl, app);
    spec.ft.first_wave_delay = SimDuration::from_secs(1_000); // never checkpoints
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(2_000_000_000), 0);
    let res = run(spec);
    assert_eq!(res.waves(), 0);
    assert_eq!(res.rt.restarts, 1);
    // Completed from scratch: roughly 2 s wasted + full rerun.
    assert!(res.completion_secs() > 4.0);
    assert_clean(&res);
}

#[test]
fn dummy_protocol_restarts_from_scratch() {
    let app = ring_app(40, 10_000, SimDuration::from_millis(100));
    let clean = run(base_spec(6, ProtocolChoice::Dummy, Arc::clone(&app)));
    let mut spec = base_spec(6, ProtocolChoice::Dummy, app);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(3_000_000_000), 1);
    let res = run(spec);
    assert_eq!(res.rt.restarts, 1);
    assert!(res.completion_secs() > clean.completion_secs() * 1.5);
    assert_clean(&res);
}

#[test]
fn survives_multiple_failures() {
    let app = ring_app(150, 10_000, SimDuration::from_millis(150));
    let mut spec = base_spec(6, ProtocolChoice::Vcl, app);
    spec.failures = FailurePlan {
        kills: vec![
            (SimTime::from_nanos(10_000_000_000), 1),
            (SimTime::from_nanos(25_000_000_000), 4),
        ],
        ..FailurePlan::default()
    };
    let res = run(spec);
    assert_eq!(res.rt.restarts, 2);
    assert_clean(&res);
}

#[test]
fn failure_after_completion_is_ignored() {
    let app = ring_app(5, 1_000, SimDuration::from_millis(10));
    let mut spec = base_spec(4, ProtocolChoice::Pcl, app);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(3_600_000_000_000), 0);
    let res = run(spec);
    assert_eq!(res.rt.restarts, 0);
}

#[test]
fn vcl_rejects_jobs_beyond_select_limit() {
    let app = ring_app(1, 100, SimDuration::ZERO);
    let spec = JobSpec::new(301, ProtocolChoice::Vcl, app);
    match run_job(spec) {
        Err(JobError::VclProcessLimit { requested, limit }) => {
            assert_eq!(requested, 301);
            assert_eq!(limit, 300);
        }
        other => panic!("expected VclProcessLimit, got {other:?}"),
    }
}

#[test]
fn protocol_runs_are_deterministic() {
    let mk = || {
        let res = run(base_spec(
            6,
            ProtocolChoice::Pcl,
            allreduce_app(100, 4_000, SimDuration::from_millis(50)),
        ));
        (res.completion.as_nanos(), res.waves(), res.ft.sends_delayed)
    };
    assert_eq!(mk(), mk());
}

#[test]
fn nemesis_stack_outperforms_daemon_stack_on_latency_bound_app() {
    // CG-like latency-bound workload: Pcl/Nemesis vs Vcl/daemon without
    // any checkpoints (pure stack comparison, as in the paper's no-ckpt
    // baselines of Fig. 7).
    let app = allreduce_app(400, 2_000, SimDuration::from_millis(5));
    let mut nem = base_spec(8, ProtocolChoice::Dummy, Arc::clone(&app));
    nem.stack = Some(SoftwareStack::NemesisGm);
    let mut vcl = base_spec(8, ProtocolChoice::Dummy, app);
    vcl.stack = Some(SoftwareStack::VclDaemon);
    let t_nem = run(nem).completion_secs();
    let t_vcl = run(vcl).completion_secs();
    assert!(
        t_nem < t_vcl,
        "OS-bypass should beat the daemon stack: {t_nem} vs {t_vcl}"
    );
}

#[test]
fn restore_from_a_wave_committed_after_an_earlier_restart() {
    // Regression: a checkpoint image captured *after* a restart must record
    // the rank's total logical progress, not ops-since-restart; otherwise a
    // second failure restores a corrupted cut (skip points at the start of
    // the program while the channel state belongs to a late iteration).
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let app = ring_app(200, 8_192, SimDuration::from_millis(60));
        let mut spec = base_spec(5, proto, app);
        spec.ft.period = SimDuration::from_secs(2);
        spec.ft.first_wave_delay = SimDuration::from_millis(500);
        spec.failures = FailurePlan {
            kills: vec![
                // First kill: restore from an epoch-0 wave.
                (SimTime::from_nanos(4_000_000_000), 1),
                // Second kill: restore from a wave committed after restart 1.
                (SimTime::from_nanos(14_000_000_000), 3),
            ],
            ..FailurePlan::default()
        };
        spec.max_virtual_time = Some(SimTime::from_nanos(600_000_000_000));
        let res = run(spec);
        assert_eq!(res.rt.restarts, 2, "{proto:?}");
        assert!(res.waves() >= 2, "{proto:?}");
        assert_clean(&res);
    }
}

#[test]
fn single_rank_vcl_commits_waves() {
    // Regression: a solo job has no channels, so log_done must not wait for
    // channel markers that will never arrive.
    let app: AppFn = app_fn(|mut mpi| async move {
        for _ in 0..40 {
            mpi.compute(SimDuration::from_millis(100));
        }
        mpi
    });
    let mut spec = base_spec(1, ProtocolChoice::Vcl, app);
    spec.ft.first_wave_delay = SimDuration::from_millis(200);
    spec.ft.period = SimDuration::from_millis(800);
    let res = run(spec);
    assert!(
        res.waves() >= 2,
        "solo Vcl must commit waves, got {}",
        res.waves()
    );
}

#[test]
fn kill_at_time_zero_restarts_from_scratch() {
    // Degenerate timing: the victim dies the instant it is spawned, before
    // a single message or checkpoint exists.
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let app = ring_app(20, 10_000, SimDuration::from_millis(100));
        let mut spec = base_spec(4, proto, app);
        spec.failures = FailurePlan::kill_at(SimTime::ZERO, 0);
        let res = run(spec);
        assert_eq!(res.rt.restarts, 1, "{proto:?}");
        assert_eq!(
            res.ft.rollback_depth_max, 0,
            "{proto:?}: scratch restore of zero committed waves costs no depth"
        );
        assert_clean(&res);
    }
}

#[test]
fn kill_after_completion_is_ignored_despite_detection_lag() {
    // The lagged detection event must be absorbed too, not fire a restart
    // of a job that already finished.
    let app = ring_app(5, 1_000, SimDuration::from_millis(10));
    let mut spec = base_spec(4, ProtocolChoice::Vcl, app);
    spec.ft = spec.ft.with_detection_delay_secs(1.0);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(3_600_000_000_000), 0);
    let res = run(spec);
    assert_eq!(res.rt.restarts, 0);
    assert!(res.ft.lost_work.is_zero());
}

#[test]
fn second_kill_of_dead_rank_during_detection_lag_is_absorbed() {
    // Two kills of the same victim inside one heartbeat window: the task
    // cannot die twice, so exactly one detection → one restart.
    let app = ring_app(150, 10_000, SimDuration::from_millis(150));
    let mut spec = base_spec(6, ProtocolChoice::Vcl, app);
    spec.ft = spec.ft.with_detection_delay_secs(1.0);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(12_000_000_000), 2)
        .with_kill(SimTime::from_nanos(12_300_000_000), 2);
    let res = run(spec);
    assert_eq!(res.rt.restarts, 1);
    assert_clean(&res);
}

#[test]
fn same_victim_back_to_back_kills_restart_twice() {
    // With zero detection lag the first kill restarts immediately; the
    // second lands mid-recovery on the revived rank and must produce a
    // clean nested restart, not a panic or a double-count.
    let app = ring_app(150, 10_000, SimDuration::from_millis(150));
    let mut spec = base_spec(6, ProtocolChoice::Pcl, app);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(12_000_000_000), 2)
        .with_kill(SimTime::from_nanos(12_000_000_100), 2);
    let res = run(spec);
    assert_eq!(res.rt.restarts, 2);
    assert_clean(&res);
}

#[test]
fn detection_lag_grows_lost_work() {
    // Same kill, longer heartbeat timeout: everything computed between the
    // restored wave's commit and the (later) rollback is thrown away.
    let mk = |lag_s: f64| {
        let app = ring_app(150, 10_000, SimDuration::from_millis(150));
        let mut spec = base_spec(6, ProtocolChoice::Vcl, app);
        spec.ft = spec.ft.with_detection_delay_secs(lag_s);
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(12_000_000_000), 1);
        run(spec)
    };
    let instant = mk(0.0);
    let lagged = mk(2.0);
    assert_eq!(instant.rt.restarts, 1);
    assert_eq!(lagged.rt.restarts, 1);
    assert!(
        lagged.ft.lost_work_secs() > instant.ft.lost_work_secs() + 1.9,
        "lag must show up in lost work: {} vs {}",
        lagged.ft.lost_work_secs(),
        instant.ft.lost_work_secs()
    );
    assert!(
        lagged.completion_secs() > instant.completion_secs(),
        "and in completion time: {} vs {}",
        lagged.completion_secs(),
        instant.completion_secs()
    );
}

#[test]
fn midwave_kill_aborts_wave_and_leaves_no_orphan_images() {
    // A huge image makes the wave slow enough that a kill reliably lands
    // while it is streaming to the servers: the partial wave aborts, its
    // images are garbage-collected, and the restart uses the previous cut.
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let app = ring_app(200, 10_000, SimDuration::from_millis(150));
        let mut spec = base_spec(6, proto, app);
        spec.ft.image_bytes = 64 << 20;
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(2_100_000_000), 3);
        let res = run(spec);
        assert_eq!(res.rt.restarts, 1, "{proto:?}");
        assert!(
            res.ft.waves_aborted >= 1,
            "{proto:?}: kill at 2.1 s should land in the wave starting at 2 s"
        );
        assert_eq!(
            res.ft.orphan_images_end, 0,
            "{proto:?}: aborted images must be garbage-collected"
        );
        assert_clean(&res);
    }
}

#[test]
fn server_loss_falls_back_to_scratch_without_replicas() {
    // One copy per image: killing the victim's primary server destroys all
    // of its committed images, so the next restart starts from scratch.
    let app = ring_app(100, 10_000, SimDuration::from_millis(100));
    let mut spec = base_spec(6, ProtocolChoice::Vcl, app);
    spec.failures = FailurePlan::server_kill_at(SimTime::from_nanos(4_000_000_000), 1)
        .with_kill(SimTime::from_nanos(4_500_000_000), 1);
    let res = run(spec);
    assert_eq!(res.rt.restarts, 1);
    assert!(
        res.ft.rollback_depth_max >= 1,
        "rank 1's images lived on server 1; rollback must reach past the lost wave, got depth {}",
        res.ft.rollback_depth_max
    );
    assert_clean(&res);
}

#[test]
fn partition_from_time_zero_delays_the_first_wave_without_rollback() {
    // Degenerate timing: rank 0's node is unreachable from the instant the
    // job is spawned, healing shortly after the first wave starts. Without
    // a partition watchdog this is pure delay: the wave's traffic to the
    // cut-off node pauses and retries, nobody restarts, and the wave still
    // commits once the cut heals.
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let app = ring_app(100, 10_000, SimDuration::from_millis(200));
        let mut spec = base_spec(6, proto, app);
        spec.net_faults = NetFaultPlan::none().with_partition(
            "from-boot",
            vec![NodeId(0)],
            SimTime::ZERO,
            Some(SimTime::from_nanos(2_500_000_000)),
        );
        let res = run(spec);
        assert_eq!(
            res.rt.restarts, 0,
            "{proto:?}: a healed cut must not restart anyone"
        );
        assert!(
            res.waves() >= 1,
            "{proto:?}: waves must resume after the heal"
        );
        assert!(
            res.rt.link_retries >= 1,
            "{proto:?}: the wave starting at 2 s must stall on the cut"
        );
        assert_clean(&res);
    }
}

#[test]
fn partition_outliving_the_job_surrenders_waves_but_completes() {
    // Degenerate timing: the cut never heals. Every checkpoint wave needs
    // rank 0's image, every push attempt exhausts its bounded retry budget
    // and surrenders, so no wave ever commits — but application traffic is
    // out of the partition's scope (it models stalled checkpoint transport,
    // not node death), so the job itself must still finish.
    let app = ring_app(100, 10_000, SimDuration::from_millis(200));
    let mut spec = base_spec(6, ProtocolChoice::Pcl, app);
    spec.net_faults = NetFaultPlan::none().with_partition(
        "forever",
        vec![NodeId(0)],
        SimTime::from_nanos(1_500_000_000),
        None,
    );
    // Paused control traffic to the dead side keeps probing until the cap.
    spec.max_virtual_time = Some(SimTime::from_nanos(120_000_000_000));
    let res = run(spec);
    assert_eq!(res.waves(), 0, "no wave can commit without rank 0's image");
    assert!(
        res.ft.waves_aborted >= 1,
        "the push retry budget must surrender, aborting the wave"
    );
    assert_eq!(res.rt.restarts, 0);
    assert!(res.rt.link_retries >= u64::from(FtConfig::default().link_retry_limit));
    assert_clean(&res);
}

#[test]
fn heal_exactly_at_the_retry_deadline_lands_the_probe() {
    // Degenerate timing: the victim's restore fetch is blocked by a cut
    // that heals in the same nanosecond as a scheduled retry probe. Setup-
    // scheduled fault transitions win same-time ties against runtime-
    // scheduled probes, so that exact probe must see the healed link and
    // succeed: two failed probes, not three. One nanosecond later and the
    // probe loses the race, costing exactly one more rung of the ladder.
    let kill = 9_000_000_000u64; // quiet zone: two waves committed by 9 s
    let ft = FtConfig::default();
    let first_probe = kill + ft.restart_delay.as_nanos();
    // Failed probes at +0 and +base; the +3·base probe ties with the heal.
    let deadline = first_probe + 3 * ft.link_retry_base.as_nanos();
    for (heal, want_retries) in [(deadline, 2), (deadline + 1, 3)] {
        let app = ring_app(100, 10_000, SimDuration::from_millis(200));
        let mut spec = base_spec(6, ProtocolChoice::Vcl, app);
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(kill), 1);
        spec.net_faults = NetFaultPlan::none().with_partition(
            "fetch-window",
            vec![NodeId(1)],
            SimTime::from_nanos(kill - 100_000_000),
            Some(SimTime::from_nanos(heal)),
        );
        let res = run(spec);
        assert_eq!(res.rt.restarts, 1);
        assert_eq!(
            res.rt.link_retries,
            want_retries,
            "heal at first_probe+{} ns must cost exactly {want_retries} probe retries",
            heal - first_probe
        );
        assert_eq!(res.ft.images_refetched, 1, "one victim, one fetch");
        assert_clean(&res);
    }
}

#[test]
fn node_kill_of_an_already_partitioned_node_recovers_after_heal() {
    // Degenerate composition: the node dies while it is already cut off.
    // The correlated restart's image fetch cannot reach the servers until
    // the heal, so it rides the probe chain across it — one restart, one
    // fetch, bounded retries, clean completion.
    let t0 = 8_500_000_000u64;
    let app = ring_app(100, 10_000, SimDuration::from_millis(200));
    let mut spec = base_spec(6, ProtocolChoice::Vcl, app);
    spec.failures = FailurePlan::node_kill_at(SimTime::from_nanos(t0 + 500_000_000), 2);
    spec.net_faults = NetFaultPlan::none().with_partition(
        "pre-cut",
        vec![NodeId(2)],
        SimTime::from_nanos(t0),
        Some(SimTime::from_nanos(t0 + 6_500_000_000)),
    );
    let res = run(spec);
    assert_eq!(res.rt.restarts, 1, "one node death, one correlated restart");
    assert_eq!(res.ft.images_refetched, 1);
    assert!(
        res.rt.link_retries >= 1,
        "the fetch must probe the cut before the heal lets it through"
    );
    assert!(
        res.rt.link_retries <= u64::from(FtConfig::default().link_retry_limit) * 2,
        "retries must stay on the bounded ladder, got {}",
        res.rt.link_retries
    );
    assert_clean(&res);
}

#[test]
fn coincident_server_and_rank_kill_falls_back_to_scratch() {
    // Independent Poisson schedules can legally collide on the same
    // nanosecond (see `FailurePlan::merged`). The runner orders the server
    // kill first, so the rank's restore must already see its only image
    // copy gone and fall back past it — never fetch from the dying server.
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let t = SimTime::from_nanos(9_000_000_000);
        let app = ring_app(100, 10_000, SimDuration::from_millis(200));
        let mut spec = base_spec(6, proto, app);
        spec.failures = FailurePlan::server_kill_at(t, 0).with_kill(t, 0);
        let res = run(spec);
        assert_eq!(res.rt.restarts, 1, "{proto:?}");
        assert!(
            res.ft.rollback_depth_max >= 1,
            "{proto:?}: rank 0's images lived on server 0 alone; the same-instant \
             restore must roll back past the lost wave, got depth {}",
            res.ft.rollback_depth_max
        );
        assert_clean(&res);
    }
}

#[test]
fn coincident_server_and_rank_kill_restores_from_surviving_replica() {
    // Same collision with two copies per image: the restore skips the
    // just-dead primary and fetches the newest wave from the survivor.
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let t = SimTime::from_nanos(9_000_000_000);
        let app = ring_app(100, 10_000, SimDuration::from_millis(200));
        let mut spec = base_spec(6, proto, app);
        spec.ft = spec.ft.with_replicas(2);
        spec.failures = FailurePlan::server_kill_at(t, 0).with_kill(t, 0);
        let res = run(spec);
        assert_eq!(res.rt.restarts, 1, "{proto:?}");
        assert_eq!(
            res.ft.rollback_depth_max, 0,
            "{proto:?}: the surviving replica keeps the newest wave usable"
        );
        assert!(res.ft.images_refetched >= 1, "{proto:?}");
        assert_clean(&res);
    }
}

#[test]
fn server_loss_with_replicas_restores_from_survivor() {
    // Two copies per image: the same server loss costs nothing — the
    // restart fetches the victim's image from the surviving replica.
    let app = ring_app(100, 10_000, SimDuration::from_millis(100));
    let mut spec = base_spec(6, ProtocolChoice::Vcl, app);
    spec.ft = spec.ft.with_replicas(2);
    spec.failures = FailurePlan::server_kill_at(SimTime::from_nanos(4_000_000_000), 1)
        .with_kill(SimTime::from_nanos(4_500_000_000), 1);
    let res = run(spec);
    assert_eq!(res.rt.restarts, 1);
    assert_eq!(
        res.ft.rollback_depth_max, 0,
        "the surviving replica keeps the newest wave usable"
    );
    assert!(res.ft.images_refetched >= 1);
    assert_clean(&res);
}

#[test]
fn flap_period_shorter_than_the_retry_ladder_base_still_converges() {
    // Degenerate timing: the push link flaps with a full up/down period of
    // ~25 ms — half the 50 ms retry-ladder base — so a paused chunk's
    // retry probe lands a whole flap period (or more) later and samples an
    // essentially independent link state. The ladder must neither lock
    // onto the flap phase (livelock) nor surrender spuriously: nobody
    // restarts, retries stay bounded, and waves keep committing.
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let base = FtConfig::default().link_retry_base;
        let app = ring_app(100, 10_000, SimDuration::from_millis(200));
        let mut spec = base_spec(6, proto, app);
        spec.net_faults = NetFaultPlan::none().with_link_flap(LinkFlapSpec {
            from: NodeId(0),
            to: NodeId(6), // rank 0's push path to server 0
            start: SimTime::from_nanos(1_500_000_000),
            end: SimTime::from_nanos(9_000_000_000),
            mttf: SimDuration::from_nanos(base.as_nanos() / 4),
            mttr: SimDuration::from_nanos(base.as_nanos() / 4),
            seed: 23,
        });
        let res = run(spec);
        assert_eq!(
            res.rt.restarts, 0,
            "{proto:?}: a flapping push link must not kill anyone"
        );
        assert!(
            res.rt.link_retries >= 1,
            "{proto:?}: a sub-period flap across two waves must stall at least one chunk"
        );
        assert!(
            res.rt.link_retries <= 2_000,
            "{proto:?}: {} retries across a 7.5 s flap window — phase-locked livelock?",
            res.rt.link_retries
        );
        assert!(
            res.waves() >= 1,
            "{proto:?}: checkpointing must make progress through the flap"
        );
        assert_clean(&res);
    }
}

#[test]
fn directed_heal_exactly_at_the_retry_deadline_lands_the_probe() {
    // Degenerate timing, asymmetric edition: the victim's restore fetch is
    // blocked by an *outbound-only* cut (requests can't leave the node;
    // inbound delivery is fine) that heals in the same nanosecond as a
    // scheduled retry probe. Fetches need the round trip, so a half-open
    // cut must cost exactly the same probe schedule as a full cut: the
    // tie-winning heal lands the +3·base probe, one nanosecond later costs
    // one more rung.
    let kill = 9_000_000_000u64; // quiet zone: two waves committed by 9 s
    let ft = FtConfig::default();
    let first_probe = kill + ft.restart_delay.as_nanos();
    let deadline = first_probe + 3 * ft.link_retry_base.as_nanos();
    for (heal, want_retries) in [(deadline, 2), (deadline + 1, 3)] {
        let app = ring_app(100, 10_000, SimDuration::from_millis(200));
        let mut spec = base_spec(6, ProtocolChoice::Vcl, app);
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(kill), 1);
        spec.net_faults = NetFaultPlan::none().with_partition_directed(
            "fetch-window-outbound",
            vec![NodeId(1)],
            CutDirection::Outbound,
            SimTime::from_nanos(kill - 100_000_000),
            Some(SimTime::from_nanos(heal)),
        );
        let res = run(spec);
        assert_eq!(res.rt.restarts, 1);
        assert_eq!(
            res.rt.link_retries,
            want_retries,
            "outbound-only heal at first_probe+{} ns must cost exactly {want_retries} probe \
             retries, same as a symmetric cut",
            heal - first_probe
        );
        assert_eq!(res.ft.images_refetched, 1, "one victim, one fetch");
        assert_clean(&res);
    }
}

#[test]
fn server_partition_coinciding_with_midwave_kill_walks_to_the_replica() {
    // Degenerate composition: a rank dies mid-wave while a never-healing
    // partition isolates its primary checkpoint server. The tie matters:
    // at exact coincidence the restart's detection-time reachability check
    // samples the pre-cut state and the restore fetches synchronously from
    // the primary (no walk); start the cut one nanosecond earlier and the
    // fetch blocks, so the probe ladder must exhaust on the dark primary
    // and walk to the replica copy on the surviving server. Either way the
    // newest wave stays restorable and nobody waits for a heal that never
    // comes.
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let t = 7_200_000_000u64; // inside the second wave (period 5 s)
        for (cut, want_walk) in [(t, false), (t - 1, true)] {
            let app = ring_app(100, 10_000, SimDuration::from_millis(200));
            let mut spec = base_spec(6, proto, app);
            spec.ft = spec.ft.with_replicas(2);
            spec.failures = FailurePlan::kill_at(SimTime::from_nanos(t), 0);
            spec.net_faults = NetFaultPlan::none().with_server_partition(
                "primary-dark",
                vec![0],
                CutDirection::Both,
                SimTime::from_nanos(cut),
                None,
            );
            spec.max_virtual_time = Some(SimTime::from_nanos(300_000_000_000));
            let res = run(spec);
            assert_eq!(res.rt.restarts, 1, "{proto:?} cut@{cut}");
            if want_walk {
                assert!(
                    res.ft.replica_depth_max >= 1,
                    "{proto:?}: a cut 1 ns ahead of the kill must force the replica walk"
                );
                assert!(
                    res.ft.images_rerouted >= 1,
                    "{proto:?}: the walked fetch counts as a reroute"
                );
            } else {
                assert_eq!(
                    res.ft.replica_depth_max, 0,
                    "{proto:?}: at exact coincidence the pre-cut fetch wins the tie"
                );
            }
            assert!(
                res.ft.retries_exhausted >= 1,
                "{proto:?} cut@{cut}: pushes at the dark primary must exhaust a ladder"
            );
            assert!(
                res.ft.waves_aborted >= 1,
                "{proto:?} cut@{cut}: with both replicas required, waves behind the cut abort"
            );
            assert_eq!(
                res.ft.rollback_depth_max, 0,
                "{proto:?} cut@{cut}: the newest committed wave stays restorable"
            );
            assert!(res.ft.images_refetched >= 1, "{proto:?} cut@{cut}");
            assert_clean(&res);
        }
    }
}

#[test]
fn corruption_landing_at_the_exact_retry_deadline_walks_to_the_replica() {
    // Degenerate timing: the victim's restore fetch is blocked by a cut
    // that heals in the same nanosecond as a scheduled retry probe — and
    // in that same nanosecond the primary replica's stored bits flip.
    // Setup-scheduled fault transitions win same-time ties against
    // runtime-scheduled probes, so the probe that finally finds the link
    // up must also find the damage: verify-on-fetch rejects the primary
    // with a typed mismatch and the walk salvages the sibling copy, with
    // no extra rungs of the probe ladder.
    let kill = 9_000_000_000u64; // quiet zone: two waves committed by 9 s
    let ft = FtConfig::default();
    let first_probe = kill + ft.restart_delay.as_nanos();
    // Failed probes at +0 and +base; the +3·base probe ties with the heal.
    let deadline = first_probe + 3 * ft.link_retry_base.as_nanos();
    let app = ring_app(100, 10_000, SimDuration::from_millis(200));
    let mut spec = base_spec(6, ProtocolChoice::Vcl, app);
    spec.ft = spec.ft.with_replicas(2);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(kill), 1)
        // The walk visits servers in ascending node order, so fleet
        // index 0 is the copy the planned fetch tries first.
        .with_corruption(SimTime::from_nanos(deadline), 0, 1);
    spec.net_faults = NetFaultPlan::none().with_partition(
        "fetch-window",
        vec![NodeId(1)],
        SimTime::from_nanos(kill - 100_000_000),
        Some(SimTime::from_nanos(deadline)),
    );
    let res = run(spec);
    assert_eq!(res.rt.restarts, 1);
    assert_eq!(
        res.rt.link_retries, 2,
        "the corrupt copy is rejected at verify time, not by more probes"
    );
    assert_eq!(res.ft.images_corrupt_detected, 1, "one flip, one detection");
    assert_eq!(res.ft.images_repaired, 1, "the walk salvages the sibling");
    assert_eq!(res.ft.images_rerouted, 1);
    assert_eq!(res.ft.replica_depth_max, 1);
    assert_clean(&res);
}

#[test]
fn scrub_tick_coinciding_with_the_restart_fetch_stays_clean() {
    // Degenerate timing: a 500 ms scrubber ticks exactly at 12 s — the
    // same instant the restart's image fetch goes out (kill at 9 s plus
    // the 3 s restart delay) — and both race for a replica damaged after
    // the previous tick. Whichever sees the mismatch first, the damage is
    // detected, a good copy serves the restore, and the slot ends the run
    // repaired; the coincidence must not deadlock, double-respawn, or
    // leave the restart consuming damaged bits.
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let kill = 9_000_000_000u64;
        let app = ring_app(100, 10_000, SimDuration::from_millis(200));
        let mut spec = base_spec(6, proto, app);
        spec.ft = spec.ft.with_replicas(2).with_scrub_interval_secs(0.5);
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(kill), 1)
            // After the 11.5 s tick, before the 12.0 s tick-and-fetch tie.
            .with_corruption(SimTime::from_nanos(11_750_000_000), 0, 1);
        let res = run(spec);
        assert_eq!(res.rt.restarts, 1, "{proto:?}");
        assert!(
            res.ft.images_corrupt_detected >= 1,
            "{proto:?}: the damaged replica must be noticed by scrub or fetch"
        );
        assert!(
            res.ft.images_repaired >= 1,
            "{proto:?}: the slot must end the run salvaged"
        );
        assert_eq!(res.rt.link_retries, 0, "{proto:?}: no cuts, no probes");
        assert_clean(&res);
    }
}

#[test]
fn corrupting_an_empty_store_at_time_zero_is_a_noop() {
    // Degenerate timing: corruption events for every rank on both servers
    // fire at t=0, before any wave has stored a single byte. An empty
    // slot cannot be damaged — the events must expand, schedule, and
    // apply as no-ops, and a later kill restores from the (untouched)
    // images pushed afterwards exactly like a corruption-free twin.
    let mk = |corrupt: bool| {
        let app = ring_app(100, 10_000, SimDuration::from_millis(200));
        let mut spec = base_spec(6, ProtocolChoice::Vcl, app);
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(9_000_000_000), 2);
        if corrupt {
            spec.failures = spec
                .failures
                .with_server_corruption(SimTime::ZERO, 0)
                .with_server_corruption(SimTime::ZERO, 1);
        }
        run(spec)
    };
    let twin = mk(false);
    let res = mk(true);
    assert_eq!(
        res.ft.images_corrupt_detected, 0,
        "nothing stored, nothing damaged"
    );
    assert_eq!(res.ft.images_repaired, 0);
    assert_eq!(res.rt.restarts, 1);
    assert_eq!(
        res.completion_secs(),
        twin.completion_secs(),
        "a no-op corruption schedule must not perturb the restart timing"
    );
    assert_clean(&res);
}

/// Checkpoint-server faults touch only the coordinated engines' fleet:
/// under Dummy (no checkpoints) and Mlog (images kept in-engine) a server
/// kill, a targeted corruption, whole-server rot and a scrub interval
/// change nothing about the run. Each injection is still one kernel event
/// of its own (the scrubber is never armed), so the event count grows by
/// exactly three and every other encoded field stays put.
#[test]
fn coordinated_faults_are_noops_for_dummy_and_mlog() {
    fn without_events(res: &JobResult) -> String {
        let encoded = res.encode();
        encoded
            .lines()
            .filter(|l| !l.starts_with("events="))
            .collect::<Vec<_>>()
            .join("\n")
    }
    for proto in [ProtocolChoice::Dummy, ProtocolChoice::Mlog] {
        let spec = base_spec(4, proto, ring_app(60, 8_192, SimDuration::from_millis(200)));
        let clean = run(spec.clone());
        let mut faulty = spec;
        faulty.failures = FailurePlan::server_kill_at(SimTime::from_nanos(3_000_000_000), 0)
            .with_corruption(SimTime::from_nanos(4_000_000_000), 1, 2)
            .with_server_corruption(SimTime::from_nanos(5_000_000_000), 1);
        faulty.ft.scrub_interval = Some(SimDuration::from_secs(1));
        let faulty = run(faulty);
        assert_eq!(without_events(&faulty), without_events(&clean), "{proto:?}");
        assert_eq!(faulty.events, clean.events + 3, "{proto:?}");
    }
}
