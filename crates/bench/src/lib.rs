//! Experiment harness shared by the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the paper
//! (see DESIGN.md §3 for the index). This library holds what they share:
//! experiment records, an aligned-table printer, JSON persistence under
//! `results/`, spec builders for the paper's standard configurations, the
//! parallel [`sweep`] engine every harness runs on, and the [`figures`]
//! modules the thin binaries delegate to.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

pub mod figures;
pub mod json;
pub mod sweep;

pub use sweep::{spec_fingerprint, JobOutcome, MemoCache, SweepRunner};

use ftmpi_core::{FtConfig, JobResult, JobSpec, Platform, ProtocolChoice};
use ftmpi_nas::{bt, cg, Machine, NasClass, Workload};
use ftmpi_net::{LinkConfig, SoftwareStack};
use ftmpi_sim::{SimDuration, SimTime};

use json::JsonValue;

/// One measured configuration, persisted as JSON for EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct Record {
    /// Experiment id, e.g. `"fig5"`.
    pub experiment: String,
    /// Workload name, e.g. `"bt.B.64"`.
    pub workload: String,
    /// Protocol name: `dummy` / `vcl` / `pcl`.
    pub protocol: String,
    /// Software stack.
    pub stack: String,
    /// Sweep variable name.
    pub x_name: String,
    /// Sweep variable value.
    pub x: f64,
    /// Completion time in seconds.
    pub completion_secs: f64,
    /// Committed checkpoint waves.
    pub waves: u64,
    /// Mean committed-wave duration in seconds (0 if none).
    pub wave_secs_mean: f64,
    /// Checkpoint bytes shipped.
    pub ckpt_bytes: u64,
    /// Messages logged (Vcl channel state).
    pub msgs_logged: u64,
    /// Sends delayed (Pcl blocking).
    pub sends_delayed: u64,
    /// Restarts performed.
    pub restarts: u64,
}

impl Record {
    /// Build a record from a job result.
    #[allow(clippy::too_many_arguments)]
    pub fn from_result(
        experiment: &str,
        workload: &str,
        protocol: ProtocolChoice,
        stack: &str,
        x_name: &str,
        x: f64,
        res: &JobResult,
    ) -> Record {
        Record {
            experiment: experiment.to_string(),
            workload: workload.to_string(),
            protocol: proto_name(protocol).to_string(),
            stack: stack.to_string(),
            x_name: x_name.to_string(),
            x,
            completion_secs: res.completion_secs(),
            waves: res.waves(),
            wave_secs_mean: res
                .ft
                .mean_wave_duration()
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0),
            ckpt_bytes: res.ft.image_bytes_sent + res.ft.log_bytes_sent,
            msgs_logged: res.ft.msgs_logged,
            sends_delayed: res.ft.sends_delayed,
            restarts: res.rt.restarts,
        }
    }

    /// The record as an ordered JSON object (field order matches the seed
    /// repo's serde layout, keeping `results/*.json` stable).
    fn to_json(&self) -> json::JsonObject {
        vec![
            ("experiment", JsonValue::Str(self.experiment.clone())),
            ("workload", JsonValue::Str(self.workload.clone())),
            ("protocol", JsonValue::Str(self.protocol.clone())),
            ("stack", JsonValue::Str(self.stack.clone())),
            ("x_name", JsonValue::Str(self.x_name.clone())),
            ("x", JsonValue::Float(self.x)),
            ("completion_secs", JsonValue::Float(self.completion_secs)),
            ("waves", JsonValue::UInt(self.waves)),
            ("wave_secs_mean", JsonValue::Float(self.wave_secs_mean)),
            ("ckpt_bytes", JsonValue::UInt(self.ckpt_bytes)),
            ("msgs_logged", JsonValue::UInt(self.msgs_logged)),
            ("sends_delayed", JsonValue::UInt(self.sends_delayed)),
            ("restarts", JsonValue::UInt(self.restarts)),
        ]
    }
}

/// Short protocol label.
pub fn proto_name(p: ProtocolChoice) -> &'static str {
    match p {
        ProtocolChoice::Dummy => "dummy",
        ProtocolChoice::Vcl => "vcl",
        ProtocolChoice::Pcl => "pcl",
        ProtocolChoice::Mlog => "mlog",
    }
}

/// Parsed common CLI flags.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Reduced sweep for quick runs (the default); `--full` restores the
    /// paper's complete parameter grid.
    pub fast: bool,
    /// Where to write the JSON records.
    pub out_dir: PathBuf,
    /// Worker threads for the sweep engine (`--jobs N`); defaults to the
    /// machine's available parallelism.
    pub jobs: usize,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            fast: true,
            out_dir: PathBuf::from("results"),
            jobs: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }
}

const USAGE: &str = "supported flags: --fast | --full | --out DIR | --jobs N";

impl HarnessArgs {
    /// Parse `std::env::args`; prints a usage message and exits non-zero on
    /// unknown or malformed flags.
    pub fn parse() -> HarnessArgs {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Flag parsing proper, separated from process exit for testing.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<HarnessArgs, String> {
        let mut out = HarnessArgs::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => out.fast = false,
                "--fast" => out.fast = true,
                "--out" => {
                    out.out_dir =
                        PathBuf::from(args.next().ok_or("--out needs a directory argument")?);
                }
                "--jobs" => {
                    let n = args.next().ok_or("--jobs needs a worker count")?;
                    out.jobs = n
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--jobs needs a positive integer, got '{n}'"))?;
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(out)
    }

    /// A sweep runner honouring `--jobs`, wired to `cache`.
    pub fn sweep(&self, cache: &Arc<MemoCache>) -> SweepRunner {
        SweepRunner::new(self.jobs).with_cache(Arc::clone(cache))
    }

    /// The harness's result cache: persistent under `<out_dir>/.cache/`
    /// unless `FTMPI_NO_CACHE` is set (then memory-only). A warm rerun of
    /// any figure against the same output directory performs zero
    /// simulations.
    pub fn cache(&self) -> Arc<MemoCache> {
        MemoCache::persistent(self.out_dir.join(".cache"))
    }
}

/// Write records as pretty JSON to `results/<name>.json`.
pub fn save_records(args: &HarnessArgs, name: &str, records: &[Record]) {
    std::fs::create_dir_all(&args.out_dir).expect("create results dir");
    let path = args.out_dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create results file");
    let objects: Vec<json::JsonObject> = records.iter().map(|r| r.to_json()).collect();
    let json = json::to_string_pretty(&objects);
    f.write_all(json.as_bytes()).expect("write records");
    println!("\n[records written to {}]", path.display());
}

/// Print an aligned table: header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The paper's BT machine calibration (memory-bound NPB on Opteron 248).
pub fn bt_machine() -> Machine {
    Machine::mflops(100.0)
}

/// The paper's CG machine calibration (CG sustains less than BT).
pub fn cg_machine() -> Machine {
    Machine::mflops(80.0)
}

/// Standard GigE-cluster spec around a workload (paper §5.2).
pub fn cluster_spec(
    wl: &Workload,
    nranks: usize,
    protocol: ProtocolChoice,
    servers: usize,
    period: SimDuration,
) -> JobSpec {
    let mut spec = JobSpec::new(nranks, protocol, Arc::clone(&wl.app));
    spec.platform = Platform::Cluster(LinkConfig::gige());
    spec.servers = servers;
    spec.ft = FtConfig {
        period,
        image_bytes: wl.image_bytes,
        ..FtConfig::default()
    };
    spec.max_virtual_time = Some(SimTime::from_nanos(4 * 3_600 * 1_000_000_000));
    spec
}

/// Myrinet-cluster spec (paper §5.3).
pub fn myrinet_spec(
    wl: &Workload,
    nranks: usize,
    protocol: ProtocolChoice,
    stack: SoftwareStack,
    servers: usize,
    period: SimDuration,
) -> JobSpec {
    let mut spec = cluster_spec(wl, nranks, protocol, servers, period);
    spec.platform = Platform::Cluster(LinkConfig::myrinet2000());
    spec.stack = Some(stack);
    spec
}

/// Grid spec (paper §5.4): local checkpoint servers per cluster.
pub fn grid_spec(
    wl: &Workload,
    nranks: usize,
    protocol: ProtocolChoice,
    period: SimDuration,
) -> JobSpec {
    let mut spec = JobSpec::new(nranks, protocol, Arc::clone(&wl.app));
    spec.platform = Platform::Grid;
    // The paper deployed several checkpoint servers local to each cluster
    // ("a local machine (among 4)"); four per cluster keeps the per-server
    // fan-in near the paper's ratio for the largest cluster.
    spec.servers = 4;
    spec.ft = FtConfig {
        period,
        image_bytes: wl.image_bytes,
        ..FtConfig::default()
    };
    spec.max_virtual_time = Some(SimTime::from_nanos(8 * 3_600 * 1_000_000_000));
    spec
}

/// BT workload at the harness calibration.
pub fn bt_workload(class: NasClass, nranks: usize) -> Workload {
    bt::workload(class, nranks, bt_machine())
}

/// CG workload at the harness calibration.
pub fn cg_workload(class: NasClass, nranks: usize) -> Workload {
    cg::workload(class, nranks, cg_machine())
}

/// Format seconds with 1 decimal.
pub fn secs(x: f64) -> String {
    format!("{x:.1}")
}

/// Checker probe configurations: one spec per figure-workload family
/// (GigE cluster, Myrinet stacks, grid) for each checkpointing protocol,
/// shrunk enough to re-run several times under perturbation seeds.
///
/// `fast` selects the tiny sample class (CI smoke); the full set runs
/// class A at the paper's smallest rank counts. Periods are compressed so
/// every probe commits multiple waves within its short runtime. Each call
/// returns fresh specs, so callers can request two copies and attach a
/// failure schedule to one.
pub fn figure_probe_specs(fast: bool) -> Vec<(String, JobSpec)> {
    let class = if fast { NasClass::S } else { NasClass::A };
    let cls = if fast { "S" } else { "A" };
    let (bt_n, cg_n) = if fast { (4, 4) } else { (9, 8) };
    let mut probes = Vec::new();
    let mut push = |name: String, mut spec: JobSpec, period_s: f64| {
        spec.ft.period = SimDuration::from_secs_f64(period_s);
        spec.ft.first_wave_delay = SimDuration::from_secs_f64(period_s / 2.0);
        probes.push((name, spec));
    };
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let p = proto_name(proto);
        let bt = bt_workload(class, bt_n);
        let cg = cg_workload(class, cg_n);
        // §5.2 GigE cluster (figures 5/6/8).
        push(
            format!("bt.{cls}.{bt_n}.gige.{p}"),
            cluster_spec(
                &bt,
                bt_n,
                proto,
                2,
                SimDuration::from_secs_f64(if fast { 0.25 } else { 30.0 }),
            ),
            if fast { 0.25 } else { 30.0 },
        );
        // CG.A on 8 ranks finishes in under 3 simulated seconds, so the
        // full probe's period must be short enough to commit waves in it.
        push(
            format!("cg.{cls}.{cg_n}.gige.{p}"),
            cluster_spec(
                &cg,
                cg_n,
                proto,
                2,
                SimDuration::from_secs_f64(if fast { 0.1 } else { 1.0 }),
            ),
            if fast { 0.1 } else { 1.0 },
        );
        // §5.3 Myrinet with the protocol's natural stack (figure 7).
        let stack = match proto {
            ProtocolChoice::Vcl | ProtocolChoice::Mlog => SoftwareStack::VclDaemon,
            _ => SoftwareStack::TcpSock,
        };
        push(
            format!("bt.{cls}.{bt_n}.myri.{p}"),
            myrinet_spec(
                &bt,
                bt_n,
                proto,
                stack,
                2,
                SimDuration::from_secs_f64(if fast { 0.25 } else { 30.0 }),
            ),
            if fast { 0.25 } else { 30.0 },
        );
        // §5.4 grid deployment (figure 9).
        push(
            format!("bt.{cls}.{bt_n}.grid.{p}"),
            grid_spec(
                &bt,
                bt_n,
                proto,
                SimDuration::from_secs_f64(if fast { 0.25 } else { 30.0 }),
            ),
            if fast { 0.25 } else { 30.0 },
        );
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_args_are_fast_with_machine_parallelism() {
        let a = parse(&[]).unwrap();
        assert!(a.fast);
        assert_eq!(a.out_dir, PathBuf::from("results"));
        assert!(a.jobs >= 1);
    }

    #[test]
    fn all_flags_round_trip() {
        let a = parse(&["--full", "--out", "tmp", "--jobs", "3"]).unwrap();
        assert!(!a.fast);
        assert_eq!(a.out_dir, PathBuf::from("tmp"));
        assert_eq!(a.jobs, 3);
        assert!(parse(&["--fast"]).unwrap().fast);
    }

    #[test]
    fn malformed_flags_are_rejected_not_panicked() {
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--out"]).is_err());
    }
}
