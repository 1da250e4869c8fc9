//! End-to-end benchmark of the DogmatiX pipeline and of `dogmatixd`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (see `perfbench/run.py`, which builds
//! this package and checks its output). Workloads (`workload.rs`):
//!
//! * `batch_cd_exhaustive`, `batch_cd_qgram`, `batch_movie_lsh` — the
//!   batch pipeline, single-threaded (`batch.rs`);
//! * `serve_cd_mixed` — a live durable server under closed-loop ingest
//!   and open-loop probes (`serve.rs`).
//!
//! Everything is generated from `--seed`. With `--trace 0` the run
//! measures the end-to-end metrics for `--seconds`; with `--trace 1` it
//! replays the work layer by layer inside spans and reports per-layer
//! metrics, writing the spans to `.perfbench/`. Every run checks its
//! outputs and prints one JSON object as its last line of stdout.

mod batch;
mod report;
mod serve;
mod speed;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where runs put spans and temporary WAL files (relative to the
/// working directory, the repository root).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn run(args: &Args) -> Result<String, String> {
    let w = workload::Workload::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{}' (known: {})",
            args.workload,
            names.join(", ")
        )
    })?;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = if w.serve {
        serve::run(w, args)?
    } else {
        batch::run(w, args)?
    };
    report.json(args.trace)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
