//! `ftmpi-check` — protocol invariant checker, schedule-perturbation race
//! detector, and workspace lint.
//!
//! Subcommands:
//!
//! * `lint` — scan the workspace sources for determinism hazards
//!   (wall-clock reads in sim crates, HashMap iteration order, `unwrap`
//!   in protocol code). Exits non-zero on any finding.
//! * `smoke` — run the CI probe set (both protocols, 8 ranks, one
//!   failure each) through the invariant checker, plus a perturbation
//!   pass over seeded tiebreak schedules. Exits non-zero on violations.
//! * `storm [--smoke]` — seeded fault-injection campaigns: rank kills,
//!   checkpoint-server failures, correlated node deaths, and network
//!   partitions aimed at mid-wave, mid-recovery, and detection-lag
//!   windows, every run re-checked against the trace invariants. `--smoke`
//!   runs the reduced CI seed set (the deterministic partition and
//!   node-kill families run in both modes).
//! * `storm --mine [--smoke]` — the coverage-guided failure-storm miner:
//!   seeded mutation over fault schedules (kills, directed partitions,
//!   server-group cuts, link flaps), keeping a corpus of schedules that
//!   light new coverage states under `results/storm/` and shrinking any
//!   violation to a minimal reproducer. Emits `BENCH_storm.json`.
//!   `FTMPI_MINE_BUDGET` overrides the mutation budget; `FTMPI_NO_MINE`
//!   skips the pass. `storm --replay FILE` re-runs a mined reproducer.
//! * `figures [--full]` — drive every figure workload family through the
//!   checker with churn variants. `--full` uses the paper-sized classes.
//! * `explore [--smoke] [--replay FILE]` — exhaustively enumerate the
//!   schedule space of the small explore configs (DPOR over the kernel's
//!   schedule-policy hook). Clean configs must exhaust without violations;
//!   the two historical-race fixtures must be rediscovered with minimized
//!   reproducers (dumped under `results/explore/`). Emits
//!   `BENCH_explore.json`. `--replay FILE` re-runs one reproducer.

use std::path::PathBuf;
use std::process::ExitCode;

use ftmpi_bench::json::{to_string_pretty, JsonObject, JsonValue};
use ftmpi_check::{
    encode_artifact, explore, explore_configs, figure_smoke_probes, figures_suite, mine,
    parse_artifact, perturbation_check, replay, run_checked_with_churn, run_lint, smoke_probes,
    storm_campaign, ExploreOptions, ExploreOutcome, MineOptions, ProbeOutcome,
};

fn workspace_root() -> PathBuf {
    // The binary runs from the workspace (CI, `cargo run`); fall back to
    // the manifest's parent-of-parent for out-of-tree invocations.
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("crates").is_dir() {
        cwd
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(PathBuf::from)
            .unwrap_or(cwd)
    }
}

fn cmd_lint() -> ExitCode {
    let root = workspace_root();
    let hits = run_lint(&root);
    if hits.is_empty() {
        println!("lint: ok ({})", root.display());
        ExitCode::SUCCESS
    } else {
        for h in &hits {
            println!("{h}");
        }
        eprintln!("lint: {} finding(s)", hits.len());
        ExitCode::FAILURE
    }
}

fn print_outcome(o: &ProbeOutcome) {
    println!(
        "{:32} waves={:<3} restarts={:<2} proto-events={:<7} {}",
        o.name,
        o.waves,
        o.restarts,
        o.report.proto_events,
        if o.ok() { "ok" } else { "FAIL" }
    );
    for v in &o.report.violations {
        println!("    violation: {v}");
    }
}

fn cmd_smoke() -> ExitCode {
    let mut failed = false;
    for (name, _) in smoke_probes() {
        let mk = {
            let name = name.clone();
            move || {
                smoke_probes()
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .expect("probe name stable")
                    .1
            }
        };
        match run_checked_with_churn(&name, mk) {
            Ok(outcomes) => {
                for o in &outcomes {
                    print_outcome(o);
                    if !o.ok() || o.report.waves_checked == 0 {
                        failed = true;
                        if o.report.waves_checked == 0 {
                            println!("    violation: no wave committed — probe too short");
                        }
                    }
                }
            }
            Err(e) => {
                println!("{name:32} error: {e:?}");
                failed = true;
            }
        }
    }

    // Perturbation pass: every clean probe plus one class-S figure
    // workload per covered family (GigE cluster, Myrinet stack), three
    // seeded tiebreak schedules each.
    type SpecMk = Box<dyn Fn() -> ftmpi_core::JobSpec>;
    let mut perturb_targets: Vec<(String, SpecMk)> = smoke_probes()
        .into_iter()
        .map(|(name, _)| {
            let wanted = name.clone();
            let mk: SpecMk = Box::new(move || {
                smoke_probes()
                    .into_iter()
                    .find(|(n, _)| *n == wanted)
                    .expect("probe name stable")
                    .1
            });
            (name, mk)
        })
        .collect();
    for (fig_name, _) in figure_smoke_probes() {
        let wanted = fig_name.clone();
        perturb_targets.push((
            fig_name,
            Box::new(move || {
                figure_smoke_probes()
                    .into_iter()
                    .find(|(n, _)| *n == wanted)
                    .expect("figure probe name stable")
                    .1
            }),
        ));
    }
    for (label, mk) in perturb_targets {
        match perturbation_check(mk, &[1, 2, 3]) {
            Ok(rep) => {
                let div = rep.divergent();
                println!(
                    "{:32} fingerprint={:016x} seeds=3 {}",
                    format!("perturb.{label}"),
                    rep.baseline,
                    if div.is_empty() {
                        "ok".to_string()
                    } else {
                        failed = true;
                        format!("DIVERGENT under seeds {div:?}")
                    }
                );
            }
            Err(e) => {
                println!("perturb.{label:24} error: {e:?}");
                failed = true;
            }
        }
    }

    if failed {
        eprintln!("smoke: FAILED");
        ExitCode::FAILURE
    } else {
        println!("smoke: ok");
        ExitCode::SUCCESS
    }
}

fn cmd_storm(smoke: bool) -> ExitCode {
    let outcomes = storm_campaign(smoke);
    let mut failed = false;
    for o in &outcomes {
        println!(
            "{:40} waves={:<3} restarts={:<2} aborted={:<2} depth={:<2} retries={:<3} \
             suppr={:<2} lost={:<9.3} {}",
            o.name,
            o.waves,
            o.restarts,
            o.waves_aborted,
            o.rollback_depth_max,
            o.link_retries,
            o.partitions_suppressed,
            o.lost_work_secs,
            if o.ok() { "ok" } else { "FAIL" }
        );
        if let Some(rep) = &o.report {
            for v in &rep.violations {
                println!("    violation: {v}");
            }
        }
        for f in &o.failures {
            println!("    failure: {f}");
        }
        if !o.ok() {
            failed = true;
        }
    }
    let ran = outcomes.len();
    if failed {
        eprintln!("storm: FAILED ({ran} runs)");
        ExitCode::FAILURE
    } else {
        println!("storm: ok ({ran} runs)");
        ExitCode::SUCCESS
    }
}

fn mine_record(report: &ftmpi_check::MineReport) -> Vec<JsonObject> {
    // No wall-clock fields: two invocations with the same seed and budget
    // must produce a byte-identical file (CI diffs it across backends).
    vec![vec![
        ("runs", JsonValue::UInt(report.runs)),
        ("discarded", JsonValue::UInt(report.discarded)),
        (
            "coverage_states",
            JsonValue::UInt(report.coverage.len() as u64),
        ),
        ("corpus", JsonValue::UInt(report.corpus.len() as u64)),
        (
            "violations",
            JsonValue::UInt(report.violations.len() as u64),
        ),
    ]]
}

fn cmd_mine(smoke: bool) -> ExitCode {
    // CI off-switch: skip the mining pass entirely under FTMPI_NO_MINE.
    if std::env::var_os("FTMPI_NO_MINE").is_some() {
        println!("mine: skipped (FTMPI_NO_MINE)");
        return ExitCode::SUCCESS;
    }
    // Mutation budget per protocol; FTMPI_MINE_BUDGET overrides.
    let rounds = std::env::var("FTMPI_MINE_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 12 } else { 96 });
    let report = mine(MineOptions {
        rounds,
        seed: 0xf17a,
    });
    let root = workspace_root();
    let dir = root.join("results").join("storm");
    let mut failed = false;
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("mine: could not create {}: {e}", dir.display());
        failed = true;
    }
    let mut corpus_text = String::from("# ftmpi-check storm miner corpus\n");
    for (g, class) in &report.corpus {
        println!("mine.corpus {:16} {}", class.as_str(), g.encode());
        corpus_text.push_str(&g.encode());
        corpus_text.push_str(&format!(" kind={}\n", class.as_str()));
    }
    let corpus_path = dir.join("corpus.txt");
    if let Err(e) = std::fs::write(&corpus_path, corpus_text) {
        eprintln!("mine: could not write {}: {e}", corpus_path.display());
        failed = true;
    }
    for (i, v) in report.violations.iter().enumerate() {
        let path = dir.join(format!("mine-{}-{i}.repro", v.class.as_str()));
        println!(
            "mine.violation {}: {} ({})",
            v.class.as_str(),
            v.genome.encode(),
            v.detail
        );
        if let Err(e) = std::fs::write(&path, encode_artifact(v)) {
            eprintln!("mine: could not write {}: {e}", path.display());
        } else {
            println!("    reproducer: {}", path.display());
        }
        failed = true;
    }
    let bench_path = root.join("BENCH_storm.json");
    let json = to_string_pretty(&mine_record(&report)) + "\n";
    if let Err(e) = std::fs::write(&bench_path, json) {
        eprintln!("mine: could not write {}: {e}", bench_path.display());
        failed = true;
    } else {
        println!("wrote {}", bench_path.display());
    }
    println!(
        "mine: {} runs ({} mutants discarded), {} coverage states, corpus {}, {} violation(s)",
        report.runs,
        report.discarded,
        report.coverage.len(),
        report.corpus.len(),
        report.violations.len()
    );
    if failed {
        eprintln!("mine: FAILED");
        ExitCode::FAILURE
    } else {
        println!("mine: ok");
        ExitCode::SUCCESS
    }
}

fn cmd_mine_replay(path: &str) -> ExitCode {
    match ftmpi_check::miner::replay(std::path::Path::new(path)) {
        Ok((class, reproduces)) => {
            if reproduces {
                println!("replay {path}: still reproduces ({})", class.as_str());
                ExitCode::SUCCESS
            } else {
                eprintln!("replay {path}: outcome changed (now {})", class.as_str());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("replay: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_figures(full: bool) -> ExitCode {
    match figures_suite(!full) {
        Ok(outcomes) => {
            let mut failed = false;
            for o in &outcomes {
                print_outcome(o);
                if !o.ok() || o.report.waves_checked == 0 {
                    failed = true;
                    if o.report.waves_checked == 0 {
                        println!("    violation: no wave committed — probe too short");
                    }
                }
            }
            let checked = outcomes.len();
            if failed {
                eprintln!("figures: FAILED ({checked} probes)");
                ExitCode::FAILURE
            } else {
                println!("figures: ok ({checked} probes)");
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("figures: error: {e:?}");
            ExitCode::FAILURE
        }
    }
}

fn explore_record(o: &ExploreOutcome, backend: &str) -> JsonObject {
    let (kind, minimized) = match &o.violation {
        Some(v) => (
            v.kind.clone(),
            v.minimized
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        ),
        None => ("none".to_string(), String::new()),
    };
    vec![
        ("config", JsonValue::Str(o.name.clone())),
        ("backend", JsonValue::Str(backend.to_string())),
        ("runs", JsonValue::UInt(o.runs)),
        (
            "distinct_outcomes",
            JsonValue::UInt(o.distinct_outcomes as u64),
        ),
        ("max_decisions", JsonValue::UInt(o.max_decisions as u64)),
        ("pruned", JsonValue::UInt(o.pruned)),
        ("deduped", JsonValue::UInt(o.deduped)),
        ("exhausted", JsonValue::UInt(o.exhausted as u64)),
        ("violation", JsonValue::Str(kind)),
        ("minimized_schedule", JsonValue::Str(minimized)),
        (
            "canonical_fp",
            JsonValue::Str(format!("{:016x}", o.canonical_fp)),
        ),
        ("wall_ms", JsonValue::UInt(o.wall_ms)),
    ]
}

fn print_explore(o: &ExploreOutcome, backend: &str) {
    println!(
        "{:36} runs={:<5} outcomes={:<2} decisions<={:<3} pruned={:<5} memo={:<5} {}",
        format!("explore.{}.{backend}", o.name),
        o.runs,
        o.distinct_outcomes,
        o.max_decisions,
        o.pruned,
        o.deduped,
        match (&o.violation, o.exhausted) {
            (Some(v), _) => format!("VIOLATION {} (minimized: [{}])", v.kind, {
                v.minimized
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            }),
            (None, true) => "exhausted".to_string(),
            (None, false) => "BUDGET EXCEEDED".to_string(),
        }
    );
}

fn cmd_explore(smoke: bool) -> ExitCode {
    let root = workspace_root();
    let artifact_dir = root.join("results").join("explore");
    let max_runs = if smoke { 1500 } else { 6000 };
    let mut failed = false;
    let mut records: Vec<JsonObject> = Vec::new();
    for cfg in explore_configs() {
        let opts = ExploreOptions {
            max_runs,
            artifact_dir: Some(artifact_dir.clone()),
            ..ExploreOptions::default()
        };
        if cfg.expect_violation {
            // Fixture configs: the historical race must be rediscovered,
            // minimized, under the default backend.
            match explore(&cfg, &opts) {
                Ok(o) => {
                    print_explore(&o, "default");
                    match &o.violation {
                        Some(v) => {
                            if let Some(p) = &v.artifact {
                                println!("    reproducer: {}", p.display());
                            }
                        }
                        None => {
                            println!("    FAIL: fixture race not rediscovered");
                            failed = true;
                        }
                    }
                    records.push(explore_record(&o, "default"));
                }
                Err(e) => {
                    println!("explore.{:26} error: {e}", cfg.name);
                    failed = true;
                }
            }
        } else {
            // Clean configs: exhaust without violation. The `ladder` label
            // keeps the report lines, and their pinned digest, stable.
            match explore(&cfg, &opts) {
                Ok(o) => {
                    print_explore(&o, "ladder");
                    if o.violation.is_some() {
                        println!("    FAIL: clean config violated");
                        failed = true;
                    }
                    if !o.exhausted {
                        println!("    FAIL: clean config not exhausted within {max_runs} runs");
                        failed = true;
                    }
                    records.push(explore_record(&o, "ladder"));
                }
                Err(e) => {
                    println!("explore.{:26} error: {e}", cfg.name);
                    failed = true;
                }
            }
        }
    }
    let bench_path = root.join("BENCH_explore.json");
    let json = to_string_pretty(&records) + "\n";
    if let Err(e) = std::fs::write(&bench_path, json) {
        eprintln!("explore: could not write {}: {e}", bench_path.display());
        failed = true;
    } else {
        println!("wrote {}", bench_path.display());
    }
    if failed {
        eprintln!("explore: FAILED");
        ExitCode::FAILURE
    } else {
        println!("explore: ok");
        ExitCode::SUCCESS
    }
}

fn cmd_replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replay: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let repro = match parse_artifact(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    match replay(&repro) {
        Ok(Some(kind)) => {
            println!(
                "replay {path}: schedule [{}] still violates: {kind}",
                repro
                    .schedule
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            ExitCode::SUCCESS
        }
        Ok(None) => {
            eprintln!("replay {path}: violation no longer reproduces");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("replay: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(),
        Some("smoke") => cmd_smoke(),
        Some("storm") => {
            if let Some(at) = args.iter().position(|a| a == "--replay") {
                match args.get(at + 1) {
                    Some(path) => cmd_mine_replay(path),
                    None => {
                        eprintln!("usage: ftmpi-check storm --replay FILE");
                        ExitCode::FAILURE
                    }
                }
            } else if args.iter().any(|a| a == "--mine") {
                cmd_mine(args.iter().any(|a| a == "--smoke"))
            } else {
                cmd_storm(args.iter().any(|a| a == "--smoke"))
            }
        }
        Some("figures") => cmd_figures(args.iter().any(|a| a == "--full")),
        Some("explore") => {
            if let Some(at) = args.iter().position(|a| a == "--replay") {
                match args.get(at + 1) {
                    Some(path) => cmd_replay(path),
                    None => {
                        eprintln!("usage: ftmpi-check explore --replay FILE");
                        ExitCode::FAILURE
                    }
                }
            } else {
                cmd_explore(args.iter().any(|a| a == "--smoke"))
            }
        }
        _ => {
            eprintln!(
                "usage: ftmpi-check <lint|smoke|storm [--mine] [--smoke] [--replay FILE]|\
                 figures [--full]|explore [--smoke] [--replay FILE]>"
            );
            ExitCode::FAILURE
        }
    }
}
