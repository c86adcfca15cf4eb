//! The traced pass: per-layer metrics from spans recorded around the
//! benchmark's own calls into each layer's public functions.
//!
//! Nothing inside the program is instrumented. Layer costs are separated
//! by running twins of each job that remove one layer's work: a Dummy-
//! protocol twin removes checkpointing (`core`), a failure-free twin
//! removes failures and recovery, an untraced twin removes protocol-trace
//! emission. Kernel dispatch and the network model are timed directly
//! through `Sim` and `NetModel`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use ftmpi_bench::MemoCache;
use ftmpi_core::runner::build_deployment;
use ftmpi_core::{
    run_job, run_job_with, FailurePlan, JobResult, JobSpec, ProtocolChoice, RunOptions,
};
use ftmpi_net::{NetModel, NodeId, SoftwareStack};
use ftmpi_sim::{Sim, SimDuration, SimTime, TraceEvent};

use crate::oracle::{check_result, result_digest, Golden, RepeatCheck, Tally};
use crate::spans::{self_secs_by_layer, to_chrome_json, total_secs, Spans};
use crate::workloads::{
    check_job_trace, fresh_harness, measure, record_items, rep_dir, run_checked, run_figures,
    setup, Job, Workload,
};

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The layers, named after the workspace crates.
pub(crate) const LAYERS: [&str; 7] = ["sim", "net", "mpi", "core", "nas", "bench", "check"];

/// Every per-layer metric, in report order (`BENCHMARK.json`'s `per_layer`).
pub(crate) const PER_LAYER: [&str; 34] = [
    "sim.events",
    "sim.events_per_s",
    "sim.dispatch_events_per_s.n512",
    "sim.dispatch_events_per_s.n100k",
    "sim.trace_overhead_s",
    "net.transfer_ns",
    "mpi.baseline_s",
    "mpi.msgs_per_s",
    "mpi.msgs_sent",
    "mpi.bytes_sent",
    "core.ft_overhead_s",
    "core.ft_extra_events",
    "core.image_bytes_sent",
    "core.failure_cost_s",
    "core.restarts",
    "core.lost_work_s",
    "core.images_corrupt_detected",
    "core.images_repaired",
    "nas.build_s",
    "bench.fingerprint_s",
    "bench.cache_put_s",
    "bench.cache_warm_s",
    "bench.codec_us",
    "check.check_trace_s",
    "check.trace_events",
    "check.trace_events_per_s",
    "self.sim_s",
    "self.net_s",
    "self.mpi_s",
    "self.core_s",
    "self.nas_s",
    "self.bench_s",
    "self.check_s",
    "bench.span_overhead_s",
];

/// Transfers in the network-model replay.
const NET_REPLAY: u64 = 200_000;

/// The stack a spec runs on once `run_job` resolves its default.
fn effective_stack(spec: &JobSpec) -> SoftwareStack {
    spec.stack.unwrap_or(match spec.protocol {
        ProtocolChoice::Vcl | ProtocolChoice::Mlog => SoftwareStack::VclDaemon,
        _ => SoftwareStack::TcpSock,
    })
}

/// The job with checkpointing removed: same app, platform, stack and
/// deployment under the Dummy protocol.
fn dummy_twin(spec: &JobSpec) -> JobSpec {
    let mut twin = spec.clone();
    twin.stack = Some(effective_stack(spec));
    twin.protocol = ProtocolChoice::Dummy;
    twin.failures = FailurePlan::none();
    twin
}

/// Run `spec` traced, returning the result and trace.
fn run_traced(spec: JobSpec) -> Result<(JobResult, Vec<TraceEvent>), String> {
    let opts = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    run_job_with(spec, opts).map_err(|e| format!("job error: {e}"))
}

/// Kernel-only dispatch probe: `n` coroutines each sleeping `steps`
/// times. Returns events per host second.
fn dispatch_probe(spans: &mut Spans, n: usize, steps: u32) -> f64 {
    let mut sim = Sim::new();
    for i in 0..n {
        sim.spawn(format!("p{i}"), move |mut ctx| async move {
            for s in 0..steps {
                let ns = 1_000 + (i as u64 * 7 + u64::from(s) * 13) % 1_000;
                ctx.sleep(SimDuration::from_nanos(ns)).await;
            }
        });
    }
    let (report, dur) = spans.time(format!("sim.dispatch.n{n}"), || sim.run());
    let report = report.expect("dispatch probe runs to completion");
    report.events_executed as f64 / dur.as_secs_f64()
}

/// Mean host nanoseconds per `NetModel::transfer` over a fixed replay on
/// the deployment's topology.
fn net_replay(spans: &mut Spans, spec: &JobSpec) -> f64 {
    let topo = build_deployment(spec).topo;
    let nodes = topo.node_count() as u64;
    let mut model = NetModel::new(topo);
    let sizes = [64u64, 1_024, 16 << 10, 256 << 10, 1 << 20];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 17
    };
    let plan: Vec<(NodeId, NodeId, u64, SimTime)> = (0..NET_REPLAY)
        .map(|i| {
            let src = next() % nodes;
            let dst = (src + 1 + next() % (nodes - 1).max(1)) % nodes;
            let bytes = sizes[(next() % sizes.len() as u64) as usize];
            (
                NodeId(src as usize),
                NodeId(dst as usize),
                bytes,
                SimTime::from_nanos(i * 5_000),
            )
        })
        .collect();
    let (sum, dur) = spans.time("net.transfer_replay", || {
        plan.iter().fold(0u64, |acc, &(src, dst, bytes, at)| {
            let d = model.transfer(src, dst, bytes, at);
            acc.wrapping_add(d.delivered.as_nanos())
        })
    });
    black_box(sum);
    dur.as_nanos() as f64 / NET_REPLAY as f64
}

/// Sums over the workload's jobs and their twins.
#[derive(Default)]
struct Totals {
    events: u64,
    job_secs: f64,
    msgs: u64,
    bytes: u64,
    image_bytes: u64,
    restarts: u64,
    lost_work_s: f64,
    corrupt: u64,
    repaired: u64,
    baseline_s: f64,
    ft_overhead_s: f64,
    ft_extra_events: i64,
    failure_cost_s: f64,
    trace_events: u64,
    codec_s: f64,
    codec_n: u64,
}

impl Totals {
    /// Add one workload job's exact counts.
    fn add(&mut self, res: &JobResult) {
        self.events += res.events;
        self.msgs += res.rt.msgs_sent;
        self.bytes += res.rt.bytes_sent;
        self.image_bytes += res.ft.image_bytes_sent;
        self.restarts += res.rt.restarts;
        self.lost_work_s += res.ft.lost_work.as_secs_f64();
        self.corrupt += res.ft.images_corrupt_detected;
        self.repaired += res.ft.images_repaired;
    }
}

/// Run the traced pass for `w` and return every per-layer metric. Spans
/// are written to `trace_file` as Chrome trace-event JSON at the end.
pub fn traced_pass(
    w: Workload,
    seed: u64,
    out: &Path,
    trace_file: &Path,
    golden: Option<&Golden>,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut spans = Spans::new();
    // The set-up span's self time is the spec builders (`ftmpi_bench`).
    let setup_span = spans.begin("bench.setup");
    let inputs = setup(w, seed, Some(&mut spans));
    spans.end(setup_span);

    // Untraced reference repetition, outside any span: the tracing-overhead
    // baseline, and for paper_sweep the filled cache the warm replay reads.
    let ref_dir = rep_dir(out, 0);
    let reference = measure(w, &inputs, &ref_dir);
    let mut repeat = RepeatCheck::default();
    for (key, item) in &reference.items {
        tally.record(item.clone().and_then(|d| {
            repeat.check(key, d)?;
            golden.map_or(Ok(()), |g| g.check(key, d))
        }));
    }

    let cache_dir = out.join("traced-cache");
    let cache = MemoCache::persistent_with_seed(&cache_dir, out.join("no-seed"));
    let mut t = Totals::default();
    let mut results: Vec<Option<JobResult>> = Vec::new();
    for (i, (job, key)) in inputs.jobs.iter().zip(&inputs.keys).enumerate() {
        spans.set_run(i as u64 + 1);
        let job_span = spans.begin("bench.job");
        let c = run_checked(job, Some(&mut spans));
        t.job_secs += job_secs(&spans, i);
        t.trace_events += c.trace_events;
        tally.record(c.verdict.and_then(|d| repeat.check(&job.label, d)));
        let Some(res) = c.result else {
            spans.end(job_span);
            results.push(None);
            continue;
        };
        t.add(&res);
        let (_, codec) = spans.time("bench.codec", || {
            JobResult::decode(&black_box(res.encode())).expect("encoded result decodes")
        });
        t.codec_s += codec.as_secs_f64();
        t.codec_n += 1;
        spans.time("bench.cache_put", || cache.put(key.clone(), res.clone()));
        if job.spec.protocol != ProtocolChoice::Dummy {
            let twin = dummy_twin(&job.spec);
            let (twin_res, dur) = spans.time("mpi.dummy_twin", || run_job(twin));
            match twin_res {
                Ok(tr) => {
                    t.baseline_s += dur.as_secs_f64();
                    t.ft_overhead_s += job_secs(&spans, i) - dur.as_secs_f64();
                    t.ft_extra_events += res.events as i64 - tr.events as i64;
                }
                Err(e) => tally.record(Err(format!("{}: Dummy twin: {e}", job.label))),
            }
        }
        if !job.spec.failures.is_empty() {
            let mut free = job.spec.clone();
            free.failures = FailurePlan::none();
            let (free_res, dur) = spans.time("core.failure_free_twin", || run_traced(free));
            match free_res {
                Ok(_) => t.failure_cost_s += job_secs(&spans, i) - dur.as_secs_f64(),
                Err(e) => tally.record(Err(format!("{}: failure-free twin: {e}", job.label))),
            }
        }
        spans.end(job_span);
        results.push(Some(res));
    }
    spans.set_run(0);

    let rep = representative(&inputs.jobs);
    let trace_overhead_s = trace_probe(&mut spans, &inputs.jobs[rep], &mut t, tally);
    if !inputs.jobs.iter().any(|j| !j.spec.failures.is_empty()) {
        if let Some(res) = &results[rep] {
            t.failure_cost_s = failure_probe(&mut spans, &inputs.jobs[rep], rep, res, tally);
        }
    }
    let cache_warm_s = if w == Workload::PaperSweep {
        warm_figures(
            &mut spans,
            &ref_dir,
            &reference.items,
            inputs.jobs.len(),
            tally,
        )
    } else {
        warm_cache(&mut spans, &cache_dir, &inputs.keys, &results, tally)
    };
    let transfer_ns = net_replay(&mut spans, &inputs.jobs[0].spec);
    let n512 = dispatch_probe(&mut spans, 512, 1_000);
    let n100k = dispatch_probe(&mut spans, 100_000, 5);
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);

    let all = spans.spans();
    if let Some(dir) = trace_file.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(trace_file, to_chrome_json(all)) {
        tally.record(Err(format!("writing {}: {e}", trace_file.display())));
    }
    let check_s = total_secs(all, "check.check_trace");
    let job_phase_s = t.job_secs
        + if w == Workload::FaultRecovery {
            check_s
        } else {
            0.0
        };
    let self_by_layer = self_secs_by_layer(all);
    let mut metrics = vec![
        Metric::new("sim.events", t.events as f64, "count"),
        Metric::new("sim.events_per_s", t.events as f64 / t.job_secs, "1/s"),
        Metric::new("sim.dispatch_events_per_s.n512", n512, "1/s"),
        Metric::new("sim.dispatch_events_per_s.n100k", n100k, "1/s"),
        Metric::new("sim.trace_overhead_s", trace_overhead_s, "s"),
        Metric::new("net.transfer_ns", transfer_ns, "ns"),
        Metric::new("mpi.baseline_s", t.baseline_s, "s"),
        Metric::new("mpi.msgs_per_s", t.msgs as f64 / t.job_secs, "1/s"),
        Metric::new("mpi.msgs_sent", t.msgs as f64, "count"),
        Metric::new("mpi.bytes_sent", t.bytes as f64, "B"),
        Metric::new("core.ft_overhead_s", t.ft_overhead_s, "s"),
        Metric::new("core.ft_extra_events", t.ft_extra_events as f64, "count"),
        Metric::new("core.image_bytes_sent", t.image_bytes as f64, "B"),
        Metric::new("core.failure_cost_s", t.failure_cost_s, "s"),
        Metric::new("core.restarts", t.restarts as f64, "count"),
        Metric::new("core.lost_work_s", t.lost_work_s, "sim_s"),
        Metric::new("core.images_corrupt_detected", t.corrupt as f64, "count"),
        Metric::new("core.images_repaired", t.repaired as f64, "count"),
        Metric::new("nas.build_s", total_secs(all, "nas.build"), "s"),
        Metric::new(
            "bench.fingerprint_s",
            total_secs(all, "bench.fingerprint"),
            "s",
        ),
        Metric::new("bench.cache_put_s", total_secs(all, "bench.cache_put"), "s"),
        Metric::new("bench.cache_warm_s", cache_warm_s, "s"),
        Metric::new(
            "bench.codec_us",
            t.codec_s * 1e6 / t.codec_n.max(1) as f64,
            "us",
        ),
        Metric::new("check.check_trace_s", check_s, "s"),
        Metric::new("check.trace_events", t.trace_events as f64, "count"),
        Metric::new(
            "check.trace_events_per_s",
            t.trace_events as f64 / check_s,
            "1/s",
        ),
    ];
    for layer in LAYERS {
        let secs = self_by_layer.get(layer).copied().unwrap_or(0.0);
        metrics.push(Metric::new(format!("self.{layer}_s"), secs, "s"));
    }
    metrics.push(Metric::new(
        "bench.span_overhead_s",
        job_phase_s - reference.wall.as_secs_f64(),
        "s",
    ));
    assert!(
        metrics.iter().map(|m| m.name.as_str()).eq(PER_LAYER),
        "traced pass must report exactly PER_LAYER"
    );
    metrics
}

/// Seconds of job `i`'s own `core.run_job` span.
fn job_secs(spans: &Spans, i: usize) -> f64 {
    spans
        .spans()
        .iter()
        .rev()
        .find(|s| s.name == "core.run_job" && s.run == i as u64 + 1)
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
}

/// Index of the job that stands in for the workload on single-job probes:
/// the first checkpointing job.
fn representative(jobs: &[Job]) -> usize {
    jobs.iter()
        .position(|j| j.spec.protocol != ProtocolChoice::Dummy)
        .unwrap_or(0)
}

/// Traced minus untraced wall of one job with the same spec. Workloads
/// whose jobs run untraced also get that job's trace checked, so the
/// checker is timed on every workload.
fn trace_probe(spans: &mut Spans, job: &Job, t: &mut Totals, tally: &mut Tally) -> f64 {
    let (untraced, u) = spans.time("sim.untraced_twin", || run_job(job.spec.clone()));
    let (traced, tr) = spans.time("sim.traced_twin", || run_traced(job.spec.clone()));
    match (untraced, traced) {
        (Ok(a), Ok((b, trace))) => {
            tally.record(if result_digest(&a) == result_digest(&b) {
                Ok(())
            } else {
                Err(format!("{}: tracing changed the result", job.label))
            });
            if !job.traced {
                let (verdict, _) = spans.time("check.check_trace", || {
                    check_job_trace(&job.label, &job.spec, &trace)
                });
                tally.record(verdict);
                t.trace_events += trace.len() as u64;
            }
        }
        (a, b) => tally.record(Err(format!(
            "{}: trace probe failed: {:?} / {:?}",
            job.label,
            a.err().map(|e| e.to_string()),
            b.err()
        ))),
    }
    tr.as_secs_f64() - u.as_secs_f64()
}

/// Cost of one failure on a failure-free workload: its representative job
/// with rank 0 killed halfway through, minus the job itself.
fn failure_probe(
    spans: &mut Spans,
    job: &Job,
    i: usize,
    res: &JobResult,
    tally: &mut Tally,
) -> f64 {
    let mut spec = job.spec.clone();
    let half = SimTime::from_nanos(res.completion.as_nanos() / 2);
    spec.failures = FailurePlan::kill_at(half, 0);
    let (out, dur) = spans.time("core.failure_probe", || run_job(spec));
    tally.record(check_result(&format!("{}+kill", job.label), &out).map(|_| ()));
    dur.as_secs_f64() - job_secs(spans, i)
}

/// Warm replay of both figures against the reference repetition's cache
/// directory: every job must be a disk hit (zero simulations) and the
/// record files must come out identical to the cold run's.
fn warm_figures(
    spans: &mut Spans,
    ref_dir: &Path,
    ref_items: &[(String, Result<u64, String>)],
    jobs: usize,
    tally: &mut Tally,
) -> f64 {
    let (args, cache) = fresh_harness(ref_dir);
    let (ok, dur) = spans.time("bench.cache_warm", || run_figures(&args, &cache));
    let (_, misses) = cache.stats();
    tally.record(if ok && misses == 0 && cache.disk_hits() == jobs as u64 {
        Ok(())
    } else {
        Err(format!(
            "warm replay: {misses} misses, {} disk hits of {jobs}",
            cache.disk_hits()
        ))
    });
    let want: BTreeMap<_, _> = ref_items.iter().cloned().collect();
    for (key, digest) in record_items(ref_dir) {
        tally.record(match (digest, want.get(&key)) {
            (Ok(d), Some(Ok(w))) if d == *w => Ok(()),
            _ => Err(format!("warm replay: {key} differs from the cold run")),
        });
    }
    dur.as_secs_f64()
}

/// Serve every result again from the disk cache the traced pass filled;
/// each must decode to the identical result.
fn warm_cache(
    spans: &mut Spans,
    cache_dir: &Path,
    keys: &[String],
    results: &[Option<JobResult>],
    tally: &mut Tally,
) -> f64 {
    let cache = MemoCache::persistent_with_seed(cache_dir, cache_dir.join("no-seed"));
    let (hits, dur) = spans.time("bench.cache_warm", || {
        keys.iter().map(|k| cache.get(k)).collect::<Vec<_>>()
    });
    for ((key, hit), res) in keys.iter().zip(hits).zip(results) {
        let Some(res) = res else { continue };
        tally.record(match hit {
            Some(h) if result_digest(&h) == result_digest(res) => Ok(()),
            _ => Err(format!("warm cache: {key} not served identically")),
        });
    }
    dur.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the interaction map list exactly the metrics
    /// the traced pass reports.
    #[test]
    fn per_layer_names_match_benchmark_json_and_interaction_map() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let bench = std::fs::read_to_string(format!("{dir}/../BENCHMARK.json")).unwrap();
        let map = std::fs::read_to_string(format!("{dir}/interactions.json")).unwrap();
        for name in PER_LAYER {
            assert!(bench.contains(&format!("{{\"name\": \"{name}\"")), "{name}");
            assert!(map.contains(&format!("\"{name}\": {{")), "{name}");
        }
        assert_eq!(bench.matches("\"better\"").count(), PER_LAYER.len() + 3);
        assert_eq!(map.matches("\"moves\"").count(), PER_LAYER.len());
    }

    #[test]
    fn dummy_twin_keeps_the_stack_and_drops_checkpointing() {
        let spec = crate::workloads::ring_spec(8, crate::workloads::ring_app(1));
        let twin = dummy_twin(&spec);
        assert_eq!(twin.protocol, ProtocolChoice::Dummy);
        assert_eq!(twin.stack, Some(SoftwareStack::VclDaemon));
        assert!(twin.failures.is_empty());
    }
}
