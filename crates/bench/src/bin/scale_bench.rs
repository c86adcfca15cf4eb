//! Rank-scale benchmark: events/s of the coroutine kernel from a moderate
//! ring up to 10⁵-rank topologies.
//!
//! Two campaigns, both under the uncoordinated message-logging protocol
//! (per-rank staggered checkpoints keep the wave machinery O(n)):
//!
//! 1. **Moderate ring** — the ring job at 512 (and, without `--quick`,
//!    2 048) ranks: the small-scale anchor of the per-event cost curve.
//! 2. **Scale runs** — ring and 2-D halo topologies at ≥10⁵ ranks; the
//!    bench asserts every ring rank committed at least two checkpoint
//!    cycles.
//!
//! Each record carries wall time, events/s, virtual completion, committed
//! waves and peak RSS. Writes `BENCH_scale.json` to the current directory
//! (run it from the repository root). Under `--quick` the two scale runs'
//! event counts, committed waves and completion times must equal committed
//! constants, so a kernel change that alters these runs fails the bench
//! instead of only writing different numbers.
//!
//! ```sh
//! cargo run --release -p ftmpi-bench --bin scale_bench [-- --quick]
//! ```

use std::time::Instant;

use ftmpi_bench::json::{to_string_pretty, JsonObject, JsonValue};
use ftmpi_core::{run_job, FtConfig, JobSpec, ProtocolChoice};
use ftmpi_mpi::{app_fn, AppFn};
use ftmpi_sim::SimDuration;

/// Ring: every iteration each rank shifts `bytes` to its right neighbour.
fn ring_app(iters: usize, bytes: u64, compute: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for i in 0..iters {
            mpi.shift(right, left, (i % 997) as i32, bytes).await;
            mpi.compute(compute);
        }
        mpi
    })
}

/// 2-D periodic halo exchange on a `side × side` grid: every iteration each
/// rank shifts east then south (each shift also receives from the opposite
/// neighbour, covering all four halo edges).
fn halo_app(side: usize, iters: usize, bytes: u64, compute: SimDuration) -> AppFn {
    app_fn(move |mut mpi| async move {
        let (r, c) = (mpi.rank() / side, mpi.rank() % side);
        let east = r * side + (c + 1) % side;
        let west = r * side + (c + side - 1) % side;
        let south = ((r + 1) % side) * side + c;
        let north = ((r + side - 1) % side) * side + c;
        for i in 0..iters {
            let tag = (i % 499) as i32;
            mpi.shift(east, west, tag, bytes).await;
            mpi.shift(south, north, tag, bytes).await;
            mpi.compute(compute);
        }
        mpi
    })
}

/// Mlog spec sized so the run spans at least two per-rank checkpoint
/// cycles: small images (one chunk each) keep the server traffic linear in
/// the rank count rather than in image bytes.
fn scale_spec(nranks: usize, app: AppFn) -> JobSpec {
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

/// Peak-RSS high-water mark from `/proc/self/status` (kB), if available.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reset the RSS high-water mark so each campaign phase reports its own
/// peak. Best-effort: a read-only `/proc` just leaves `VmHWM` cumulative.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `--quick` scale-run results as `(events, waves_committed,
/// completion_ns)`: the 10⁵-rank ring and the 320×320 halo.
const QUICK_RING: (u64, u64, u64) = (2_747_355, 249_118, 80_685_920_937);
const QUICK_HALO: (u64, u64, u64) = (4_454_503, 256_034, 83_052_964_735);

struct Measured {
    wall_s: f64,
    events: u64,
    completion_ns: u64,
    waves: u64,
    peak_rss_kb: Option<u64>,
}

/// Run one job and collect the scale counters.
fn measure(spec: JobSpec) -> Measured {
    reset_peak_rss();
    let start = Instant::now();
    let res = run_job(spec).expect("scale run");
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(res.leftover_unexpected, 0);
    assert_eq!(res.leftover_posted, 0);
    Measured {
        wall_s,
        events: res.events,
        completion_ns: res.completion.as_nanos(),
        waves: res.ft.waves_committed,
        peak_rss_kb: peak_rss_kb(),
    }
}

fn record(topology: &str, nranks: usize, m: &Measured) -> JsonObject {
    let mut rec: JsonObject = vec![
        ("bench", JsonValue::Str("rank_scale".into())),
        ("topology", JsonValue::Str(topology.into())),
        ("nranks", JsonValue::UInt(nranks as u64)),
        ("events", JsonValue::UInt(m.events)),
        (
            "events_per_sec",
            JsonValue::Float(m.events as f64 / m.wall_s),
        ),
        ("wall_s", JsonValue::Float(m.wall_s)),
        ("completion_ns", JsonValue::UInt(m.completion_ns)),
        ("waves_committed", JsonValue::UInt(m.waves)),
    ];
    if let Some(kb) = m.peak_rss_kb {
        rec.push(("peak_rss_kb", JsonValue::UInt(kb)));
    }
    rec
}

/// Fail unless `m` reproduces the pinned `(events, waves, completion)`.
fn assert_pinned(label: &str, m: &Measured, pinned: (u64, u64, u64)) {
    assert_eq!(
        (m.events, m.waves, m.completion_ns),
        pinned,
        "{label}: (events, waves_committed, completion_ns) moved from the pinned --quick run"
    );
}

fn print_row(label: &str, m: &Measured) {
    println!(
        "  {label:26} {:9.2}s wall  {:>11} events ({:6.2} M/s)  {:>4} waves  \
         peak {} MiB",
        m.wall_s,
        m.events,
        m.events as f64 / m.wall_s / 1e6,
        m.waves,
        m.peak_rss_kb
            .map_or_else(|| "?".into(), |kb| (kb / 1024).to_string()),
    );
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let mut records: Vec<JsonObject> = Vec::new();

    // Campaign 1: moderate-scale ring jobs.
    let moderate: &[usize] = if quick { &[512] } else { &[512, 2_048] };
    let iters = if quick { 8 } else { 16 };
    println!("moderate ring (Mlog):");
    for &n in moderate {
        let m = measure(scale_spec(
            n,
            ring_app(iters, 1_024, SimDuration::from_millis(400)),
        ));
        print_row(&format!("ring n={n}"), &m);
        records.push(record("ring", n, &m));
    }

    // Campaign 2: 10⁵-rank scale runs.
    let scale_iters = if quick { 4 } else { 8 };
    let compute = SimDuration::from_millis(1_500);
    println!("\nscale runs:");
    let ring_n = 100_000;
    let ring = measure(scale_spec(ring_n, ring_app(scale_iters, 1_024, compute)));
    print_row(&format!("ring n={ring_n}"), &ring);
    assert!(
        ring.waves >= 2 * ring_n as u64,
        "expected two checkpoint cycles per rank, saw {} waves",
        ring.waves
    );
    if quick {
        assert_pinned("ring", &ring, QUICK_RING);
    }
    records.push(record("ring", ring_n, &ring));

    let side = 320; // 320 × 320 = 102 400 ranks
    let halo = measure(scale_spec(
        side * side,
        halo_app(side, scale_iters.min(4), 1_024, compute),
    ));
    print_row(&format!("halo {side}x{side}"), &halo);
    if quick {
        assert_pinned("halo", &halo, QUICK_HALO);
    }
    records.push(record("halo2d", side * side, &halo));

    let path = "BENCH_scale.json";
    std::fs::write(path, to_string_pretty(&records) + "\n").expect("write BENCH_scale.json");
    println!("[records written to {path}]");
}
