//! Kernel event-queue microbenchmark: ladder vs. binary-heap backend across
//! the four event-time densities the kernel actually sees (same-instant
//! marker storms, near-time chunked flows, wide-spread timers, and the
//! long-horizon population of a 10⁵-rank job), plus one end-to-end anchor:
//! a cold `fig5_servers --fast` wall measurement proving the O(1) queue
//! shows up in figure time, not just in queue ops.
//!
//! The deterministic op driver lives in [`ftmpi_sim::microbench`] (the sim
//! crates forbid wall-clock reads, so the timing lives here); both backends
//! run the identical op sequence and must produce the identical pop-order
//! checksum, so the speedup is measured on provably equivalent work.
//!
//! Writes `BENCH_kernel.json` to the current directory (run it from the
//! repository root).
//!
//! ```sh
//! cargo run --release -p ftmpi-bench --bin kernel_bench [-- --quick]
//! ```

use std::time::Instant;

use ftmpi_bench::json::{to_string_pretty, JsonObject, JsonValue};
use ftmpi_bench::{figures, HarnessArgs, MemoCache};
use ftmpi_sim::microbench::{drive, Density};

/// Pending-event population held by the driver — the order of magnitude a
/// paper-sized figure run keeps in flight.
const STEADY: usize = 16_384;

/// Tombstone compaction threshold: the queue's default.
const COMPACT: usize = 64;

/// Best-of-`reps` wall seconds for one backend/density, plus the pop-order
/// checksum (cross-checked between backends).
fn time_backend(ladder: bool, density: Density, ops: u64, reps: usize) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        checksum = drive(ladder, density, STEADY, ops, COMPACT);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, checksum)
}

/// Cold `fig5_servers --fast` wall seconds: fresh memory-only cache, so
/// every job simulates — the end-to-end number the queue work must not
/// regress.
fn fig5_cold_wall() -> f64 {
    let out = std::env::temp_dir().join(format!("ftmpi-kernel-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let args = HarnessArgs {
        fast: true,
        out_dir: out.clone(),
        ..HarnessArgs::default()
    };
    let cache = MemoCache::new();
    let start = Instant::now();
    figures::fig5_servers::run(&args, &cache);
    let wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&out);
    wall
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let (ops, reps) = if quick {
        (200_000u64, 3)
    } else {
        (2_000_000u64, 5)
    };

    println!(
        "kernel queue microbench: {ops} ops/run, steady {STEADY}, best of {reps}{}",
        if quick { " (--quick)" } else { "" }
    );
    let mut records: Vec<JsonObject> = Vec::new();
    for density in Density::ALL {
        let (heap_s, heap_sum) = time_backend(false, density, ops, reps);
        let (ladder_s, ladder_sum) = time_backend(true, density, ops, reps);
        assert_eq!(
            heap_sum,
            ladder_sum,
            "backends diverged on {} — benchmark invalid",
            density.name()
        );
        let heap_mops = ops as f64 / heap_s / 1e6;
        let ladder_mops = ops as f64 / ladder_s / 1e6;
        let speedup = heap_s / ladder_s;
        println!(
            "  {:11}  heap {heap_mops:7.2} Mops/s   ladder {ladder_mops:7.2} Mops/s   speedup {speedup:.2}x",
            density.name()
        );
        records.push(vec![
            ("bench", JsonValue::Str("event_queue".into())),
            ("density", JsonValue::Str(density.name().into())),
            ("ops", JsonValue::UInt(ops)),
            ("steady_events", JsonValue::UInt(STEADY as u64)),
            ("heap_mops_per_s", JsonValue::Float(heap_mops)),
            ("ladder_mops_per_s", JsonValue::Float(ladder_mops)),
            ("speedup", JsonValue::Float(speedup)),
        ]);
    }

    println!("\ncold fig5_servers --fast (fresh cache, ladder backend):");
    let wall = fig5_cold_wall();
    println!("\n  fig5 cold wall: {wall:.2} s");
    records.push(vec![
        ("bench", JsonValue::Str("fig5_cold_fast".into())),
        ("wall_s", JsonValue::Float(wall)),
    ]);

    let path = "BENCH_kernel.json";
    std::fs::write(path, to_string_pretty(&records) + "\n").expect("write BENCH_kernel.json");
    println!("[records written to {path}]");
}
