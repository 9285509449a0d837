//! The repository benchmark: three workloads that drive the scheduler
//! only through its public APIs (`polytops_ir`, `polytops_deps`,
//! `polytops_core`, `polytops_codegen`) and `polytopsd` over TCP, gate
//! every output for correctness, and report end-to-end metrics
//! (untraced runs) or per-layer metrics (traced runs). See `README.md`.

#![forbid(unsafe_code)]

pub mod daemon;
pub mod gate;
pub mod inputs;
pub mod layers;
pub mod offline;
pub mod report;
pub mod speed;
pub mod stats;

use std::path::PathBuf;

use report::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sweep", "tile", "daemon"];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
    /// Tiny inputs and a single set-up, for the self-tests.
    pub smoke: bool,
}

/// Where the Chrome trace and the daemon's snapshot directories go:
/// `perfbench/out` of the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--smoke]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }

    /// Set-ups per run: the reported `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            3
        }
    }
}

/// Runs one workload and returns its outcome.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("daemon", false) => daemon::run(args),
        ("daemon", true) => daemon::run_traced(args),
        (_, false) => Ok(offline::run(args)),
        (_, true) => Ok(offline::run_traced(args)),
    }
}

/// The metric set a run reports.
pub fn declared(args: &Args) -> &'static [(&'static str, &'static str)] {
    if args.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
