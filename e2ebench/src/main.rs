//! One seeded benchmark for immune locks.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <fastpath_mix|fleet_nested|async_inversions|phone_apps> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the separate
//! traced run of the same seeded inputs that reports the per-layer metrics.
//! Every run checks its outputs first: a failed check prints the failure
//! to standard error and exits with code 1 instead of reporting numbers.
//! The last line of standard output is the result object; the line before
//! it is the host stamp (CPUs, shard count, seed, estimators, sample
//! counts and commit).

mod asyncw;
mod fastpath;
mod fleet;
mod gen;
mod layers;
mod phone;
mod report;
mod stats;
mod threads;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "fastpath_mix",
    "fleet_nested",
    "async_inversions",
    "phone_apps",
];

const ESTIMATOR: &str = "timed rounds: all, except on phone_apps the fastest 5% by time per op; \
throughput: ops of the timed rounds / their summed wall time, except on phone_apps the median of \
their own rates; \
op latency: nearest-rank p50/p99 of a seeded sample of ops, per round then the median over the \
timed rounds when every round has 1000 samples (always on phone_apps, 108 launches a round), \
else pooled; \
overhead: median over all interleaved round pairs of immune / bare wall time; \
setup: median of the fastest 10% of repeated set-ups; \
memory: median over rounds at round end";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The benchmark package directory (where `out/` lives) and the
/// repository root above it.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The checked-out commit, read from `.git` without running git; "none"
/// outside a git checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(args: &Args, outcome: &Outcome, root: &Path) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cpus\": {cpus}, \"shard_count\": {}, \"estimator\": \"{ESTIMATOR}\", \
         \"samples\": {{{}}}, \"commit\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome
            .shard_count
            .map_or_else(|| "null".to_string(), |n| n.to_string()),
        samples.join(", "),
        commit(root)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let pkg = package_dir();
    let root = pkg
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| pkg.clone());
    let scratch = pkg
        .join("out")
        .join(format!("tmp-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("e2ebench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }

    let (outcome, tracers) = match args.workload.as_str() {
        "fastpath_mix" => fastpath::run(args.seed, args.seconds, args.trace),
        "fleet_nested" => fleet::run(args.seed, args.seconds, args.trace, &scratch),
        "async_inversions" => asyncw::run(args.seed, args.seconds, args.trace, &scratch),
        _ => phone::run(args.seed, args.seconds, args.trace, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);

    if args.trace {
        let path = pkg
            .join("out")
            .join(format!("spans-{}.jsonl", args.workload));
        let refs: Vec<&trace::Tracer> = tracers.iter().collect();
        if let Err(e) = trace::write_spans(&path, &refs) {
            eprintln!("e2ebench: cannot write spans to {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut failures = outcome.checks.failures().to_vec();
    for name in outcome.metrics.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            failures.push(format!("metric {name} is not in the reported table"));
        }
    }
    if !args.trace {
        for (name, _) in END_TO_END {
            if !outcome.metrics.contains_key(name) {
                failures.push(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    if outcome.attempted == 0 {
        failures.push("no op was attempted".into());
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("e2ebench: check failed: {f}");
        }
        return ExitCode::from(1);
    }
    println!("{}", stamp(&args, &outcome, &root));
    println!("{}", report::result_line(&outcome, table));
    ExitCode::SUCCESS
}
