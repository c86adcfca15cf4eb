//! End-to-end integration tests spanning all crates: NAS workloads under
//! each protocol, on each platform, with and without failures.

use std::sync::Arc;

use ftmpi_bench::SweepRunner;

use ftmpi::ft::{run_job, FailurePlan, FtConfig, JobSpec, Platform, ProtocolChoice};
use ftmpi::nas::{bt, cg, ftb, lu, mg, synth, Machine, NasClass};
use ftmpi::net::{LinkConfig, SoftwareStack};
use ftmpi::sim::{SimDuration, SimTime};

fn machine() -> Machine {
    Machine::mflops(400.0) // fast machine: keep test workloads short
}

fn spec_for(
    wl: &ftmpi::nas::Workload,
    nranks: usize,
    proto: ProtocolChoice,
    period_s: f64,
) -> JobSpec {
    let mut spec = JobSpec::new(nranks, proto, Arc::clone(&wl.app));
    spec.servers = 2;
    spec.ft = FtConfig {
        period: SimDuration::from_secs_f64(period_s),
        first_wave_delay: SimDuration::from_millis(100),
        image_bytes: wl.image_bytes.min(8 << 20),
        ..FtConfig::default()
    };
    spec
}

const PROTOS: [ProtocolChoice; 3] = [
    ProtocolChoice::Dummy,
    ProtocolChoice::Vcl,
    ProtocolChoice::Pcl,
];

#[test]
fn bt_runs_under_all_protocols() {
    let wl = bt::workload(NasClass::S, 4, machine());
    let mut runner = SweepRunner::new(PROTOS.len());
    for proto in PROTOS {
        let spec = spec_for(&wl, 4, proto, 0.5);
        runner.add(format!("bt/{proto:?}"), move || spec);
    }
    for (proto, result) in PROTOS.into_iter().zip(runner.run()) {
        let res = result.expect("bt run");
        assert_eq!(res.leftover_unexpected, 0);
        assert_eq!(res.leftover_posted, 0);
        if proto != ProtocolChoice::Dummy {
            assert!(res.waves() >= 1, "{proto:?} took no checkpoints");
        }
    }
}

#[test]
fn cg_runs_under_all_protocols() {
    let wl = cg::workload(NasClass::S, 8, machine());
    let mut runner = SweepRunner::new(PROTOS.len());
    for proto in PROTOS {
        let spec = spec_for(&wl, 8, proto, 0.2);
        runner.add(format!("cg/{proto:?}"), move || spec);
    }
    for result in runner.run() {
        let res = result.expect("cg run");
        assert_eq!(res.leftover_unexpected, 0);
        assert_eq!(res.leftover_posted, 0);
    }
}

#[test]
fn extra_nas_kernels_complete() {
    let m = machine();
    let workloads = vec![
        lu::workload(NasClass::S, 6, m),
        mg::workload(NasClass::S, 4, m),
        ftb::workload(NasClass::S, 4, m),
    ];
    let names: Vec<String> = workloads.iter().map(|wl| wl.name.clone()).collect();
    let mut runner = SweepRunner::new(workloads.len());
    for wl in workloads {
        let spec = spec_for(&wl, wl_nranks(&wl.name), ProtocolChoice::Pcl, 0.5);
        runner.add(wl.name.clone(), move || spec);
    }
    for (name, result) in names.into_iter().zip(runner.run()) {
        let res = result.unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert_eq!(res.leftover_unexpected, 0, "{name}");
    }
}

fn wl_nranks(name: &str) -> usize {
    name.rsplit('.').next().unwrap().parse().unwrap()
}

#[test]
fn bt_recovers_from_failure_under_both_protocols() {
    let wl = bt::workload(NasClass::S, 4, Machine::mflops(50.0)); // longer run
    for proto in [ProtocolChoice::Vcl, ProtocolChoice::Pcl] {
        let clean = run_job(spec_for(&wl, 4, proto, 1.0)).expect("clean");
        let mut spec = spec_for(&wl, 4, proto, 1.0);
        let kill = SimTime::from_nanos((clean.completion_secs() * 0.5 * 1e9) as u64);
        spec.failures = FailurePlan::kill_at(kill, 1);
        let failed = run_job(spec).expect("failed run");
        assert_eq!(failed.rt.restarts, 1, "{proto:?}");
        assert!(
            failed.completion_secs() > clean.completion_secs(),
            "{proto:?}"
        );
        assert_eq!(failed.leftover_unexpected, 0, "{proto:?}");
        assert_eq!(failed.leftover_posted, 0, "{proto:?}");
    }
}

#[test]
fn cg_recovers_from_failure() {
    let wl = cg::workload(NasClass::S, 4, Machine::mflops(20.0));
    let clean = run_job(spec_for(&wl, 4, ProtocolChoice::Pcl, 0.5)).expect("clean");
    let mut spec = spec_for(&wl, 4, ProtocolChoice::Pcl, 0.5);
    let kill = SimTime::from_nanos((clean.completion_secs() * 0.6 * 1e9) as u64);
    spec.failures = FailurePlan::kill_at(kill, 2);
    let failed = run_job(spec).expect("failed run");
    assert_eq!(failed.rt.restarts, 1);
    assert_eq!(failed.leftover_unexpected, 0);
}

#[test]
fn grid_platform_runs_bt() {
    // A slow machine keeps the run long enough for several waves.
    let wl = bt::workload(NasClass::S, 25, Machine::mflops(5.0));
    let mut spec = spec_for(&wl, 25, ProtocolChoice::Pcl, 0.5);
    spec.platform = Platform::Grid;
    spec.servers = 1;
    let res = run_job(spec).expect("grid run");
    assert!(res.waves() >= 1);
    assert_eq!(res.leftover_unexpected, 0);
}

#[test]
fn grid_is_slower_than_cluster_for_the_same_job() {
    // 64 ranks overflow the first grid cluster (47 compute nodes), so the
    // job genuinely crosses WAN links.
    let wl = bt::workload(NasClass::S, 64, machine());
    let cluster = run_job(spec_for(&wl, 64, ProtocolChoice::Dummy, 10.0)).expect("cluster");
    let mut spec = spec_for(&wl, 64, ProtocolChoice::Dummy, 10.0);
    spec.platform = Platform::Grid;
    let grid = run_job(spec).expect("grid");
    assert!(
        grid.completion_secs() > cluster.completion_secs(),
        "grid {} !> cluster {}",
        grid.completion_secs(),
        cluster.completion_secs()
    );
}

#[test]
fn myrinet_beats_gige_for_latency_bound_cg() {
    let wl = cg::workload(NasClass::S, 8, machine());
    let mut gige = spec_for(&wl, 8, ProtocolChoice::Dummy, 10.0);
    gige.platform = Platform::Cluster(LinkConfig::gige());
    let mut myri = spec_for(&wl, 8, ProtocolChoice::Dummy, 10.0);
    myri.platform = Platform::Cluster(LinkConfig::myrinet2000());
    myri.stack = Some(SoftwareStack::NemesisGm);
    let t_gige = run_job(gige).expect("gige").completion_secs();
    let t_myri = run_job(myri).expect("myri").completion_secs();
    assert!(t_myri < t_gige, "myrinet {t_myri} !< gige {t_gige}");
}

#[test]
fn netpipe_ratios_match_the_paper() {
    use std::sync::Mutex;
    let measure = |nodes: [usize; 2]| {
        let results: synth::PingPongResults = Arc::new(Mutex::new(Vec::new()));
        let app = synth::netpipe_app(1 << 20, 2, Arc::clone(&results));
        let mut spec = JobSpec::new(2, ProtocolChoice::Dummy, app);
        spec.platform = Platform::Grid;
        spec.placement_override = Some(vec![
            ftmpi::net::NodeId(nodes[0]),
            ftmpi::net::NodeId(nodes[1]),
        ]);
        run_job(spec).expect("netpipe");
        let out = results.lock().expect("results poisoned").clone();
        out
    };
    let intra = measure([101, 102]);
    let inter = measure([0, 101]);
    let bw_ratio = intra.last().unwrap().bandwidth / inter.last().unwrap().bandwidth;
    assert!(
        (10.0..40.0).contains(&bw_ratio),
        "intra/inter bandwidth ratio {bw_ratio} out of the paper's ~20× range"
    );
    let lat_ratio = inter[0].one_way_secs / intra[0].one_way_secs;
    assert!(lat_ratio > 30.0, "latency ratio {lat_ratio} too small");
}

#[test]
fn token_ring_is_strictly_serialized() {
    let app = synth::token_ring(10, 64);
    let res = run_job(JobSpec::new(5, ProtocolChoice::Dummy, app)).expect("ring");
    // 10 laps × 5 hops.
    assert_eq!(res.rt.msgs_sent, 50);
}

#[test]
fn full_stack_determinism_with_failures() {
    let run_once = || {
        let wl = bt::workload(NasClass::S, 9, Machine::mflops(50.0));
        let mut spec = spec_for(&wl, 9, ProtocolChoice::Vcl, 1.0);
        spec.failures = FailurePlan {
            kills: vec![
                (SimTime::from_nanos(3_000_000_000), 2),
                (SimTime::from_nanos(9_000_000_000), 7),
            ],
            ..FailurePlan::default()
        };
        let res = run_job(spec).expect("run");
        (res.completion.as_nanos(), res.waves(), res.events)
    };
    assert_eq!(run_once(), run_once());
}
