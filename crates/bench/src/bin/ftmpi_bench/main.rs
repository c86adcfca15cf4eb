//! `ftmpi-bench`: the experiment harness's one binary. Every figure and
//! table of the paper is a subcommand driven by the registry
//! [`figures::ALL`], next to the two benches and the cache maintenance:
//!
//! ```sh
//! # One figure (fast sweep by default; --full widens it).
//! cargo run --release -p ftmpi-bench -- fig fig5_servers [--fast|--full|--out DIR|--jobs N]
//!
//! # Every figure in one process, sharing one result cache.
//! cargo run --release -p ftmpi-bench -- fig all
//!
//! # Event-queue microbenchmark (BENCH_kernel.json) and rank-scale bench
//! # (BENCH_scale.json); both write to the current directory.
//! cargo run --release -p ftmpi-bench -- kernel [--quick]
//! cargo run --release -p ftmpi-bench -- scale [--quick]
//!
//! # Show what the cache holds; drop invalid/stale entries and orphaned
//! # temp files; additionally evict oldest entries down to a byte budget.
//! cargo run --release -p ftmpi-bench -- cache
//! cargo run --release -p ftmpi-bench -- cache --prune
//! cargo run --release -p ftmpi-bench -- cache --prune --max-bytes 10000000
//! ```
//!
//! Every figure run reads and writes the persistent memo cache under
//! `<out>/.cache/` (disable with `FTMPI_NO_CACHE`), so a warm rerun
//! replays its figure without simulating. Unknown subcommands, figure
//! names and flags print a usage line and exit 2.

mod kernel;
mod scale;

use std::path::PathBuf;

use ftmpi_bench::figures::{self, FigureFn};
use ftmpi_bench::sweep::prune_cache;
use ftmpi_bench::HarnessArgs;

/// One parsed command line.
enum Command {
    /// One entry of [`figures::ALL`], or all of them (`None`).
    Fig(Option<&'static (&'static str, FigureFn)>, HarnessArgs),
    Kernel {
        quick: bool,
    },
    Scale {
        quick: bool,
    },
    Cache(CacheCmd),
}

struct CacheCmd {
    prune: bool,
    max_bytes: Option<u64>,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = figures::ALL.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: ftmpi-bench fig <all|{}> [--fast|--full|--out DIR|--jobs N]\n       \
         ftmpi-bench kernel [--quick]\n       \
         ftmpi-bench scale [--quick]\n       \
         ftmpi-bench cache [--prune] [--max-bytes N] [--out DIR]",
        names.join("|")
    )
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    match args.next().as_deref() {
        Some("fig") => {
            let name = args.next().ok_or("fig needs a figure name")?;
            let entry = match name.as_str() {
                "all" => None,
                _ => Some(
                    figures::ALL
                        .iter()
                        .find(|(n, _)| *n == name)
                        .ok_or_else(|| format!("unknown figure '{name}'"))?,
                ),
            };
            Ok(Command::Fig(entry, HarnessArgs::parse_from(args)?))
        }
        Some("kernel") => Ok(Command::Kernel {
            quick: parse_quick(args)?,
        }),
        Some("scale") => Ok(Command::Scale {
            quick: parse_quick(args)?,
        }),
        Some("cache") => parse_cache(args).map(Command::Cache),
        Some(other) => Err(format!("unknown subcommand '{other}'")),
        None => Err("missing subcommand".into()),
    }
}

/// The benches' one flag: `--quick` (CI-sized runs).
fn parse_quick(args: impl IntoIterator<Item = String>) -> Result<bool, String> {
    let mut quick = false;
    for a in args {
        match a.as_str() {
            "--quick" => quick = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(quick)
}

fn parse_cache(args: impl IntoIterator<Item = String>) -> Result<CacheCmd, String> {
    let mut cmd = CacheCmd {
        prune: false,
        max_bytes: None,
        out_dir: PathBuf::from("results"),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--prune" => cmd.prune = true,
            "--max-bytes" => {
                let n = args.next().ok_or("--max-bytes needs a byte count")?;
                cmd.max_bytes = Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("--max-bytes: not a byte count: {n}"))?,
                );
            }
            "--out" => {
                cmd.out_dir = PathBuf::from(args.next().ok_or("--out needs a directory")?);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if cmd.max_bytes.is_some() && !cmd.prune {
        return Err("--max-bytes only makes sense with --prune".into());
    }
    Ok(cmd)
}

/// Run one figure (then report the cache), or every figure under the
/// `################ name ################` section headers that
/// `scripts/fill_experiments.py` splits on.
fn fig(entry: Option<&(&str, FigureFn)>, args: &HarnessArgs) {
    let cache = args.cache();
    if let Some((_, run)) = entry {
        run(args, &cache);
        println!("\n{}", cache.summary());
        return;
    }
    for (name, run) in figures::ALL {
        println!("\n################ {name} ################");
        run(args, &cache);
    }
    println!("\nAll experiments done; records in results/*.json");
    println!("{}", cache.summary());
}

/// Directory size and file count, ignoring subdirectories (the cache is
/// flat).
fn dir_stats(dir: &std::path::Path) -> (usize, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
}

fn cache(cmd: CacheCmd) {
    let dir = cmd.out_dir.join(".cache");
    if !cmd.prune {
        let (files, bytes) = dir_stats(&dir);
        println!("cache {}: {files} files, {bytes} bytes", dir.display());
        return;
    }
    match prune_cache(&dir, cmd.max_bytes) {
        Ok(r) => {
            println!(
                "pruned {}: scanned {} files ({} bytes), removed {}, kept {} ({} bytes)",
                dir.display(),
                r.scanned,
                r.bytes_before,
                r.removed,
                r.kept,
                r.bytes_after
            );
        }
        Err(e) => {
            eprintln!("error: prune {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let cmd = match parse(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}\n{}", usage());
            std::process::exit(2);
        }
    };
    match cmd {
        Command::Fig(entry, args) => fig(entry, &args),
        Command::Kernel { quick } => kernel::run(quick),
        Command::Scale { quick } => scale::run(quick),
        Command::Cache(cmd) => cache(cmd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn every_registered_figure_name_resolves() {
        for (name, _) in figures::ALL {
            match parse_strs(&["fig", name, "--full", "--jobs", "2"]) {
                Ok(Command::Fig(Some((got, _)), args)) => {
                    assert_eq!(got, name);
                    assert!(!args.fast);
                    assert_eq!(args.jobs, 2);
                }
                _ => panic!("fig {name} did not resolve to its registry entry"),
            }
        }
        assert!(matches!(
            parse_strs(&["fig", "all", "--out", "tmp"]),
            Ok(Command::Fig(None, args)) if args.out_dir == std::path::Path::new("tmp")
        ));
    }

    #[test]
    fn unknown_names_and_flags_are_rejected() {
        for bad in [
            &[][..],
            &["figs"],
            &["fig"],
            &["fig", "no_such_figure"],
            &["fig", "fig5"],
            &["fig", "fig5_servers", "--quick"],
            &["fig", "all", "--jobs", "0"],
            &["kernel", "--full"],
            &["kernel", "quick"],
            &["scale", "--quick", "--out"],
            &["cache", "--max-bytes", "10"],
            &["cache", "--bogus"],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn bench_subcommands_take_only_quick() {
        assert!(matches!(
            parse_strs(&["kernel"]),
            Ok(Command::Kernel { quick: false })
        ));
        assert!(matches!(
            parse_strs(&["kernel", "--quick"]),
            Ok(Command::Kernel { quick: true })
        ));
        assert!(matches!(
            parse_strs(&["scale", "--quick"]),
            Ok(Command::Scale { quick: true })
        ));
        assert!(matches!(
            parse_strs(&["cache", "--prune", "--max-bytes", "10", "--out", "r"]),
            Ok(Command::Cache(CacheCmd {
                prune: true,
                max_bytes: Some(10),
                ..
            }))
        ));
    }
}
