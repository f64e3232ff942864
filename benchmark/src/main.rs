//! `bam-benchmark`: the host-cost benchmark of the whole bam-rs stack.
//!
//! ```text
//! bam-benchmark [run] [--workload <name>] [--seed <n>] [--seconds <s>]
//!               [--trace [0|1]] [--layers] [--out <file>]
//! bam-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` measures the named workload (all six without `--workload`), prints
//! every metric by name with its unit, and ends each workload with the
//! one-line JSON result the benchmark driver reads. It exits non-zero if any
//! operation failed or any output check did not match. See `README.md`.

mod alloc;
mod compare;
mod functional;
mod json;
mod layers;
mod measure;
mod report;
mod simload;
mod trace;
mod workload;

use std::process::ExitCode;

use json::Json;
use workload::WORKLOADS;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is not given; `baseline.json` was measured with it.
const DEFAULT_SEED: u64 = 42;
/// Seconds of timed repetitions when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;
/// Where traces are written, relative to the repository root `run.sh` runs
/// the binary from.
const RESULTS_DIR: &str = "benchmark/results";
/// Share of `--seconds` the untraced repetitions get in a traced run; the
/// traced pass and the layer rows take the rest.
const TRACED_SHARE: f64 = 0.4;

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    layers: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().map(|w| w.0).collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        layers: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().map(|w| w.0).find(|w| *w == name);
                parsed.workloads = vec![known.ok_or_else(|| format!("unknown workload {name}"))?];
            }
            "--seed" => {
                parsed.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: not a non-negative number")?;
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace 0|1`.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--layers" => parsed.layers = true,
            "--out" => parsed.out = Some(value("a file path")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn run(args: &RunArgs) -> Result<bool, String> {
    // A traced run reports the per-layer metrics, which include the rows.
    let rows = (args.layers || args.trace).then(|| layers::measure(args.seed));
    if let Some(rows) = &rows {
        report::print_layers(rows);
    }
    let mut all_correct = true;
    let mut documents = Vec::new();
    for &name in &args.workloads {
        let seconds = if args.trace {
            args.seconds * TRACED_SHARE
        } else {
            args.seconds
        };
        let outcome = workload::run(name, args.seed, seconds, 1, args.trace);
        if let Some(trace) = &outcome.trace {
            std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
            let path = format!("{RESULTS_DIR}/trace-{name}.json");
            std::fs::write(&path, trace.render()).map_err(|e| format!("{path}: {e}"))?;
            println!("trace written to {path}");
        }
        let counts = report::workload_counts(&outcome);
        report::print_outcome(&outcome, &counts);
        all_correct &= outcome.failed == 0;
        documents.push((name, report::outcome_json(&outcome, &counts)));
        let layer_rows = if args.trace { rows.as_deref() } else { None };
        println!("{}", report::driver_line(&outcome, &counts, layer_rows));
    }
    if let Some(path) = &args.out {
        let doc = report::results_json(args.seed, args.seconds, documents, rows.as_deref());
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (lines, pass) = compare::compare(&load(a)?, &load(b)?);
    for line in lines {
        println!("{line}");
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("usage: bam-benchmark compare <a.json> <b.json>".to_string()),
        },
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)),
        _ => parse_run(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bam-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
