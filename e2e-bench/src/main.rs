//! End-to-end benchmark of the dependence analyzer's user paths.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--quick] [--spans PATH]
//! ```
//!
//! Without `--workload`, every workload runs, each in a child process of
//! its own so that `peak_rss_mb` is per workload. Each run prints
//! `workload metric value unit` lines and, last, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of the traced run.
//! See `README.md` for the workloads, the metrics and the program API the
//! benchmark calls.

mod batch;
mod calib;
mod check;
mod corpus;
mod layers;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, in run order.
const WORKLOADS: [&str; 4] = [
    "perfect-cold",
    "unique-solve",
    "incremental-warm",
    "serve-open",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    workload: Option<String>,
    /// Workload seed: nest order, edits, request bodies, unique corpus.
    pub seed: u64,
    /// Measurement budget per run, in seconds.
    pub seconds: f64,
    /// Run the traced (per-layer) variant.
    pub traced: bool,
    /// Smoke sizes and fixed small operation counts.
    pub quick: bool,
    /// Where the traced run writes its span JSONL.
    pub spans: Option<PathBuf>,
}

const USAGE: &str = "usage: dda-e2e-bench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--traced] [--quick] [--spans PATH]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: 15.0,
        traced: false,
        quick: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                opts.workload = Some(w);
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => match value("--trace")?.as_str() {
                "0" => opts.traced = false,
                "1" => opts.traced = true,
                v => return Err(format!("bad --trace `{v}` (0 or 1)")),
            },
            "--traced" => opts.traced = true,
            "--quick" => opts.quick = true,
            "--spans" => opts.spans = Some(PathBuf::from(value("--spans")?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// A scratch directory beside the executable (inside the build
/// directory), private to this process.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("e2e-work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs one workload in this process and prints its result.
fn run_one(workload: &str, mut opts: Opts) -> ExitCode {
    if opts.traced && opts.spans.is_none() {
        if let Ok(exe) = std::env::current_exe() {
            if let Some(dir) = exe.parent() {
                opts.spans = Some(
                    dir.join("e2e-spans")
                        .join(format!("{workload}-seed{}.jsonl", opts.seed)),
                );
            }
        }
    }
    let work = match work_dir() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result: Result<Outcome, String> = match workload {
        "perfect-cold" => batch::run(batch::Kind::PerfectCold, &opts, &work),
        "unique-solve" => batch::run(batch::Kind::UniqueSolve, &opts, &work),
        "incremental-warm" => batch::run(batch::Kind::IncrementalWarm, &opts, &work),
        _ => serve::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
        Ok(out) => {
            let table: &[(&str, &str)] = if opts.traced { &PER_LAYER } else { &END_TO_END };
            out.print(workload, table);
            if let Some(path) = opts.spans.as_ref().filter(|_| opts.traced) {
                eprintln!("{workload}: spans written to {}", path.display());
            }
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Value of `"key": <value>` in a flat JSON object line.
fn json_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Runs every workload in a child process of its own, passes the
/// children's lines through, and prints one combined JSON object whose
/// metrics are named `workload.metric`.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let child = Command::new(&exe)
            .args(args)
            .args(["--workload", workload])
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut last = "";
        for line in stdout.lines() {
            if line.starts_with('{') {
                last = line;
                continue;
            }
            println!("{line}");
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [w, name, value, unit] = f[..] {
                metrics.push(format!(
                    "\"{w}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        correct &= child.status.success() && json_value(last, "correct") == Some("true");
        attempted += json_value(last, "attempted")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        failed += json_value(last, "failed")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match opts.workload.clone() {
        Some(w) => run_one(&w, opts),
        None => run_all(&args),
    }
}
