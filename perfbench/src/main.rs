//! Benchmark driver: `--workload W --seed N --seconds S --trace 0|1`.
//!
//! See the crate docs (`src/lib.rs`) and `BENCHMARK.json` at the
//! repository root for the workloads and metrics.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ftmpi_perfbench::layers::{traced_pass, Metric};
use ftmpi_perfbench::oracle::{golden_line, Golden, RepeatCheck, Tally};
use ftmpi_perfbench::stats::{iqr_share, median};
use ftmpi_perfbench::workloads::{measure, rep_dir, setup, Rep, Workload};

const USAGE: &str = "usage: perfbench --workload <paper_sweep|rank_scale|fault_recovery> \
                     --seed <n> --seconds <s> --trace <0|1> [--out DIR] [--print-digests]";

/// Set-up is timed in bursts of at least `SETUP_BURST_REPS` repetitions
/// and `SETUP_BURST_SECS`, one burst before the first repetition of the
/// measured phase and one after each; `setup_s` is the median of all of
/// them. Spreading the bursts over the run keeps a few seconds of slow
/// memory on a shared host from deciding the whole run's figure.
const SETUP_BURST_REPS: usize = 5;
const SETUP_BURST_SECS: f64 = 0.1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    print_digests: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    let mut print_digests = false;
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        print_digests,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time one burst of set-ups of the workload into `samples` (seconds).
fn setup_burst(w: Workload, seed: u64, samples: &mut Vec<f64>) {
    let begin = Instant::now();
    let mut n = 0;
    while n < SETUP_BURST_REPS || begin.elapsed().as_secs_f64() < SETUP_BURST_SECS {
        let start = Instant::now();
        let s = setup(w, seed, None);
        samples.push(start.elapsed().as_secs_f64());
        drop(s);
        n += 1;
    }
}

/// Apply the oracle to one repetition's items.
fn judge(rep: &Rep, golden: Option<&Golden>, repeat: &mut RepeatCheck, tally: &mut Tally) {
    for (key, item) in &rep.items {
        let verdict = item.clone().and_then(|digest| {
            repeat.check(key, digest)?;
            golden.map_or(Ok(()), |g| g.check(key, digest))
        });
        tally.record(verdict);
    }
}

/// The untraced pass: set-up, then repetitions of the measured phase for
/// about `seconds`, each in a fresh directory with a fresh cache.
fn untraced(args: &Args, out: &Path, golden: Option<&Golden>, tally: &mut Tally) -> Vec<Metric> {
    let mut setup_samples = Vec::new();
    setup_burst(args.workload, args.seed, &mut setup_samples);
    let inputs = setup(args.workload, args.seed, None);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut repeat = RepeatCheck::default();
    loop {
        let dir = rep_dir(out, walls.len());
        let rep = measure(args.workload, &inputs, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        judge(&rep, golden, &mut repeat, tally);
        if args.print_digests && walls.is_empty() {
            for (key, item) in &rep.items {
                if let Ok(d) = item {
                    println!("{}", golden_line(key, *d));
                }
            }
        }
        walls.push(rep.wall.as_secs_f64());
        setup_burst(args.workload, args.seed, &mut setup_samples);
        // Start another repetition only if it should end within budget.
        let last = rep.wall;
        if start.elapsed() + last > budget {
            break;
        }
    }
    eprintln!(
        "{}: {} repetitions, walls {walls:?}, spread (IQR/median) {:.4}; \
         {} set-ups, spread {:.4}",
        args.workload.name(),
        walls.len(),
        iqr_share(&walls).unwrap_or(0.0),
        setup_samples.len(),
        iqr_share(&setup_samples).unwrap_or(0.0),
    );
    vec![
        Metric::new("wall_s", median(&walls).expect("one repetition"), "s"),
        Metric::new("setup_s", median(&setup_samples).expect("one set-up"), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A rate over zero seconds (every job failed) is not a number.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Measurements must see the shipped defaults: every FTMPI_* toggle
    // changes a backend, a cache tier or a kill switch.
    let toggles: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FTMPI_"))
        .collect();
    if !toggles.is_empty() {
        eprintln!("error: refusing to measure with {} set", toggles.join(", "));
        return ExitCode::from(2);
    }
    let golden = if args.workload.golden_applies(args.seed) {
        match Golden::parse(args.workload.golden()) {
            Ok(g) => Some(g),
            Err(e) => {
                eprintln!("error: committed digests for {}: {e}", args.workload.name());
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let golden = golden.filter(|_| !args.print_digests);

    let out = args.out.join(format!(
        "{}-seed{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&out);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        let trace_file = args.out.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        traced_pass(
            args.workload,
            args.seed,
            &out,
            &trace_file,
            golden.as_ref(),
            &mut tally,
        )
    } else {
        untraced(&args, &out, golden.as_ref(), &mut tally)
    };
    let _ = std::fs::remove_dir_all(&out);

    for why in &tally.reasons {
        eprintln!("FAILED {why}");
    }
    println!(
        "\n{} seed {} ({}):",
        args.workload.name(),
        args.seed,
        if args.trace {
            "traced pass"
        } else {
            "untraced"
        }
    );
    for m in &metrics {
        println!("  {:34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:34} {:>16.6} share ({} of {} failed)",
        "failed_frac",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("{}", json_line(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
