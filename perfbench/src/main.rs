//! Command-line entry point of the chainiq benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <seg-sweep|baseline-sweep-warm|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Progress and diagnostics go to stderr;
//! stdout gets one line per metric and, last, the JSON result line.
//! `--write-golden <file>` regenerates the default-seed fingerprints.

use std::path::PathBuf;
use std::process::ExitCode;

use chainiq_perfbench::{report, Opts};

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

fn usage() -> String {
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
     perfbench --write-golden <file>"
        .to_string()
}

fn parse(args: &[String]) -> Result<(Opts, Option<PathBuf>), String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::new(),
        spans: PathBuf::new(),
    };
    let mut golden_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {what}: {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload.clone_from(value),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--write-golden" => golden_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if opts.workload.is_empty() && golden_out.is_none() {
        return Err(usage());
    }
    Ok((opts, golden_out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut opts, golden_out) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from("perfbench");
    if !root.join("Cargo.toml").is_file() {
        eprintln!("run from the repository root (no perfbench/Cargo.toml here)");
        return ExitCode::from(2);
    }
    let work = WorkDir(root.join(".work").join(std::process::id().to_string()));
    opts.work.clone_from(&work.0);
    opts.spans = root.join(".spans").join(format!("{}.jsonl", opts.workload));

    if let Some(out) = golden_out {
        return match chainiq_perfbench::golden_file(&work.0).and_then(|text| {
            std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))
        }) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (gate, metrics) = match chainiq_perfbench::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report::json_line(gate.correct(), gate.attempted, gate.failed, &metrics, opts.trace) {
        Ok(line) => {
            report::print_table(&metrics, opts.trace);
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
