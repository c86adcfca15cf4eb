//! Golden digests of the rank executor. Each probe's committed values were
//! captured while a thread-per-rank backend still ran beside the coroutine
//! kernel, and both backends produced exactly these values; the digests now
//! pin that equivalence without the second backend. A probe asserts the
//! FNV-1a of the full encoded [`ftmpi_core::JobResult`] (the byte
//! representation the persistent memo cache stores), the order-canonical
//! fingerprint of the structured protocol trace, and the trace length — the
//! same evidence the figure JSONs and the invariant checker consume.
//!
//! A deliberate model change that moves a digest must re-derive the values
//! from a run whose equivalence is argued afresh; a digest that moves
//! without one is a kernel regression.

use ftmpi_check::{
    check_trace, explore, explore_configs, smoke_probes, trace_fingerprint, ExploreOptions,
};
use ftmpi_core::{
    run_job_with, FailurePlan, FtConfig, JobResult, JobSpec, ProtocolChoice, RunOptions,
};
use ftmpi_mpi::{app_fn, AppFn};
use ftmpi_sim::{SimDuration, SimTime, TraceEvent};

/// Committed values of one probe run.
struct Golden {
    /// FNV-1a (64-bit) of `JobResult::encode()`.
    encoded: u64,
    /// `trace_fingerprint` of the traced run.
    trace_fp: u64,
    /// Number of trace events.
    trace_len: usize,
}

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `spec` traced and assert its golden values; returns the run for
/// further scenario assertions.
fn assert_golden(name: &str, spec: JobSpec, golden: &Golden) -> (JobResult, Vec<TraceEvent>) {
    let (res, trace) = run_job_with(
        spec,
        RunOptions {
            trace: true,
            ..RunOptions::default()
        },
    )
    .expect("golden run");
    assert_eq!(
        fnv1a(&res.encode()),
        golden.encoded,
        "{name}: encoded result digest moved"
    );
    assert_eq!(trace.len(), golden.trace_len, "{name}: trace length moved");
    assert_eq!(
        trace_fingerprint(&trace),
        golden.trace_fp,
        "{name}: trace fingerprint moved"
    );
    (res, trace)
}

#[test]
fn smoke_probe_set_matches_golden_digests() {
    let golden = [
        (
            "smoke.ring8.pcl",
            Golden {
                encoded: 0xf17a_aa7d_4eb0_2166,
                trace_fp: 0xf407_2c97_b281_e8bb,
                trace_len: 2266,
            },
        ),
        (
            "smoke.ring8.vcl",
            Golden {
                encoded: 0x0f13_aae2_5a44_a3e1,
                trace_fp: 0xc2c9_68dd_8a52_f734,
                trace_len: 2266,
            },
        ),
        (
            "smoke.stream2.vcl",
            Golden {
                encoded: 0x9aba_ebc6_4f0e_df0f,
                trace_fp: 0xa871_6da4_173c_e949,
                trace_len: 521,
            },
        ),
    ];
    let probes = smoke_probes();
    assert_eq!(probes.len(), golden.len(), "smoke probe set changed");
    for ((name, spec), (golden_name, digests)) in probes.into_iter().zip(&golden) {
        assert_eq!(name, *golden_name, "smoke probe order changed");
        let (protocol, nranks) = (spec.protocol, spec.nranks);
        let (_, trace) = assert_golden(&name, spec, digests);
        let report = check_trace(protocol, nranks, &trace);
        assert!(report.ok(), "{name}: {:?}", report.violations);
    }
}

#[test]
fn vcl3_ring_exploration_matches_golden_counts() {
    let cfg = explore_configs()
        .into_iter()
        .find(|c| c.name == "vcl3.ring")
        .expect("vcl3.ring explore config");
    let out = explore(&cfg, &ExploreOptions::default()).expect("exploration runs");
    assert!(out.exhausted);
    assert!(out.violation.is_none());
    assert_eq!(out.runs, 143, "explored a different space");
    assert_eq!(out.canonical_fp, 0x863a_37b6_9085_4cb7);
    assert_eq!(out.distinct_outcomes, 1);
    assert_eq!(out.pruned, 29, "commutation pruning moved");
    assert_eq!(out.deduped, 9304, "state memoization moved");
    assert_eq!(out.max_decisions, 80);
}

fn ring_app(iters: usize, bytes: u64, compute: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for i in 0..iters {
            let req = mpi.irecv(Some(left), Some((i % 997) as i32)).await;
            mpi.send(right, (i % 997) as i32, bytes).await;
            mpi.wait(req).await;
            mpi.compute(compute);
        }
        mpi
    })
}

fn killable_spec(proto: ProtocolChoice) -> JobSpec {
    let mut spec = JobSpec::new(8, proto, ring_app(80, 8_192, SimDuration::from_millis(200)));
    spec.servers = 2;
    spec.ft = FtConfig {
        period: SimDuration::from_secs(3),
        first_wave_delay: SimDuration::from_secs(1),
        image_bytes: 4 << 20,
        ..FtConfig::default()
    };
    spec.max_virtual_time = Some(SimTime::from_nanos(900_000_000_000));
    spec
}

/// A kill landing while the victim is parked in a blocked receive: the
/// kernel drops the rank's suspended future, and recovery must reproduce
/// the golden run.
#[test]
fn kill_while_suspended_matches_golden_digests() {
    for (proto, golden) in [
        (
            ProtocolChoice::Pcl,
            Golden {
                encoded: 0x55b7_2aec_babc_69d6,
                trace_fp: 0xf089_96ef_f532_1195,
                trace_len: 2058,
            },
        ),
        (
            ProtocolChoice::Vcl,
            Golden {
                encoded: 0x898f_df64_7c04_9dba,
                trace_fp: 0xcbc2_c73f_e6aa_3c6f,
                trace_len: 2100,
            },
        ),
    ] {
        let mut spec = killable_spec(proto);
        // Mid-compute/wait, well inside the run and clear of wave windows.
        spec.failures = FailurePlan::kill_at(SimTime::from_nanos(5_700_000_000), 3);
        let (protocol, nranks) = (spec.protocol, spec.nranks);
        let (res, trace) = assert_golden("kill-suspended", spec, &golden);
        assert_eq!(res.rt.restarts, 1);
        assert_eq!(res.leftover_unexpected, 0);
        let report = check_trace(protocol, nranks, &trace);
        assert!(report.ok(), "{proto:?}: {:?}", report.violations);
    }
}

/// A second rank dies while the first failure's recovery is still in
/// flight (inside the dispatcher's `restart_delay` window): the restart
/// state machine must take the golden transitions.
#[test]
fn kill_during_recovery_matches_golden_digests() {
    for (proto, golden) in [
        (
            ProtocolChoice::Pcl,
            Golden {
                encoded: 0xcce9_eaa5_b447_04e0,
                trace_fp: 0x76a3_8ded_4d24_4eff,
                trace_len: 2060,
            },
        ),
        (
            ProtocolChoice::Vcl,
            Golden {
                encoded: 0x4966_e13c_4254_8bf9,
                trace_fp: 0x5e13_180e_e230_87d8,
                trace_len: 2102,
            },
        ),
    ] {
        let mut spec = killable_spec(proto);
        let first = SimTime::from_nanos(5_700_000_000);
        // Default restart_delay is 3 s: the second kill lands 800 ms into
        // the first recovery.
        let second = SimTime::from_nanos(6_500_000_000);
        spec.failures = FailurePlan::kill_at(first, 3).with_kill(second, 6);
        let (protocol, nranks) = (spec.protocol, spec.nranks);
        let (res, trace) = assert_golden("kill-mid-recovery", spec, &golden);
        assert_eq!(res.rt.restarts, 2);
        assert_eq!(res.leftover_unexpected, 0);
        let report = check_trace(protocol, nranks, &trace);
        assert!(report.ok(), "{proto:?}: {:?}", report.violations);
    }
}

/// The uncoordinated logging protocol's per-rank checkpoint cycles and
/// synchronous log writes under a kill.
#[test]
fn mlog_restart_matches_golden_digests() {
    let mut spec = killable_spec(ProtocolChoice::Mlog);
    spec.failures = FailurePlan::kill_at(SimTime::from_nanos(5_700_000_000), 3);
    let golden = Golden {
        encoded: 0xbc02_ec7c_04ee_9584,
        trace_fp: 0x5e65_fb12_2d67_f42c,
        trace_len: 1305,
    };
    let (res, _) = assert_golden("mlog-kill", spec, &golden);
    assert_eq!(res.rt.restarts, 1);
    assert_eq!(res.leftover_unexpected, 0);
}
