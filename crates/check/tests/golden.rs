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
    check_trace, explore, explore_configs, fnv1a, smoke_probes, storm_campaign, trace_fingerprint,
    ExploreOptions,
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
        fnv1a(res.encode().as_bytes()),
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

/// `(run name, StormOutcome::result_fnv)` of every `storm --smoke` run, in
/// campaign order. The smoke campaign is what drives server loss, push
/// reroutes, torn writes, replica walks, scrub and quarantine; its stdout
/// prints only some of the counters, the digest pins all of them.
const STORM_SMOKE: &[(&str, u64)] = &[
    ("storm.midwave.kill.pcl", 0x24ec_e55c_fc80_01a4),
    ("storm.midrecovery.kill.pcl", 0x4f72_5eb0_4f61_ee6d),
    ("storm.lag.0.pcl", 0x1737_e3d9_2e6d_8e5f),
    ("storm.lag.200ms.pcl", 0xd048_0faf_b4fc_2e22),
    ("storm.lag.1s.pcl", 0xb9c6_09cd_59c1_40ae),
    ("storm.serverloss.fallback.pcl", 0x7324_680d_78f2_7dde),
    ("storm.serverloss.replicas.pcl", 0x78e0_6f37_251e_8cc7),
    ("storm.serverloss.midwave.pcl", 0xcb89_45c3_2e44_f4d8),
    ("storm.midwave.kill.vcl", 0x9df3_b80f_4790_9b2c),
    ("storm.midrecovery.kill.vcl", 0x8255_a486_828b_d9c1),
    ("storm.lag.0.vcl", 0xa4fc_2a0d_2971_e681),
    ("storm.lag.200ms.vcl", 0x9544_35e5_bc24_767a),
    ("storm.lag.1s.vcl", 0x3d7e_bed9_264f_a1b4),
    ("storm.serverloss.fallback.vcl", 0xf071_a0c1_1785_de05),
    ("storm.serverloss.replicas.vcl", 0xaa3f_0c22_187a_1db6),
    ("storm.serverloss.midwave.vcl", 0x6613_c59d_9e9b_2b6e),
    ("storm.partition.heal.pcl", 0x7895_ac4b_cad3_1864),
    ("storm.partition.midwave.pcl", 0xc893_b9b8_ecad_05da),
    ("storm.partition.recovery.pcl", 0xe1d5_5d9c_6331_03e1),
    (
        "storm.partition.fetchdup.control.pcl",
        0x74cf_4111_c45c_5861,
    ),
    ("storm.partition.fetchdup.pcl", 0x1445_d5b0_acbf_b7cb),
    ("storm.nodekill.colocated.pcl", 0xbbe3_6018_0ec5_e477),
    ("storm.nodekill.soloreplica.pcl", 0x5b00_b75a_4f70_e052),
    ("storm.flap.push.pcl", 0xdf90_84bc_2b6b_72c1),
    ("storm.partition.outbound.pcl", 0xb108_1933_8239_0b9b),
    ("storm.serverpart.reroute.pcl", 0x6059_477d_beea_e38f),
    ("storm.serverpart.fetch.pcl", 0xc787_5f7c_d6fc_5eeb),
    ("storm.corrupt.flipfetch.pcl", 0x1a48_4418_1bc9_e289),
    ("storm.corrupt.scrubrace.pcl", 0x1835_a3ac_af51_6abb),
    ("storm.corrupt.allreplicas.pcl", 0xb0e2_0d36_738c_3347),
    ("storm.corrupt.tornwrite.pcl", 0x8fb5_2d92_6f88_5ac2),
    ("storm.corrupt.quarantine.pcl", 0x88f0_6f9d_25be_7c1b),
    ("storm.partition.heal.vcl", 0x8e83_3bab_76c6_26bc),
    ("storm.partition.midwave.vcl", 0x9cd9_f44c_47e6_c626),
    ("storm.partition.recovery.vcl", 0x8836_6d68_64da_1e1e),
    (
        "storm.partition.fetchdup.control.vcl",
        0xf902_227f_ee05_c428,
    ),
    ("storm.partition.fetchdup.vcl", 0xc317_f2d9_74e6_796f),
    ("storm.nodekill.colocated.vcl", 0x93b1_972d_64d6_2bd9),
    ("storm.nodekill.soloreplica.vcl", 0x52eb_3d9e_f0bf_bae7),
    ("storm.flap.push.vcl", 0xa459_5413_72e2_8432),
    ("storm.partition.outbound.vcl", 0xb6bf_928c_10fe_e8ef),
    ("storm.serverpart.reroute.vcl", 0xdce3_bbda_cd8f_33f8),
    ("storm.serverpart.fetch.vcl", 0x7a92_7c0a_aae3_3f31),
    ("storm.corrupt.flipfetch.vcl", 0xfd2f_582f_2902_9847),
    ("storm.corrupt.scrubrace.vcl", 0xcc69_3ded_d593_8af3),
    ("storm.corrupt.allreplicas.vcl", 0xcbb5_fc53_0627_92a0),
    ("storm.corrupt.tornwrite.vcl", 0xd300_5bd1_ec2f_98b2),
    ("storm.corrupt.quarantine.vcl", 0x0075_72b1_d3e1_7784),
    ("storm.midwave.kill.stream2", 0x6c09_fc9a_ff93_e7bf),
    ("storm.random.pcl.seed1", 0xb902_c5f7_9998_1f9c),
    ("storm.random.pcl.seed2", 0x2ef1_bc86_4064_96cc),
    ("storm.random.vcl.seed1", 0x6990_3b6e_43a2_7a71),
    ("storm.random.vcl.seed2", 0x952f_cd3d_7abf_8159),
];

#[test]
fn storm_smoke_matches_golden_digests() {
    let found: Vec<(String, u64)> = storm_campaign(true)
        .into_iter()
        .map(|o| (o.name, o.result_fnv))
        .collect();
    let matches = found.len() == STORM_SMOKE.len()
        && found
            .iter()
            .zip(STORM_SMOKE)
            .all(|((name, fnv), (gname, gfnv))| name == gname && fnv == gfnv);
    if !matches {
        let table: String = found
            .iter()
            .map(|(name, fnv)| {
                let hex = format!("{fnv:016x}");
                let (a, b, c, d) = (&hex[..4], &hex[4..8], &hex[8..12], &hex[12..]);
                format!("    (\"{name}\", 0x{a}_{b}_{c}_{d}),\n")
            })
            .collect();
        panic!("storm --smoke digests moved; found:\n{table}");
    }
}
