//! cosmobench: the COSMO stack measured end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path cosmobench/Cargo.toml -- \
//!     --workload hot_read|cold_fill|offline --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints each figure by name with its unit, then, as the last line, one
//! JSON object: `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits
//! non-zero when an output check fails. Results are also written, stamped,
//! under `cosmobench/out/results/`.

#![forbid(unsafe_code)]

mod load;
mod probe;
mod report;
mod setup;
mod util;
mod workloads;

use report::{Report, Stamp, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Run;

const USAGE: &str = "usage: cosmobench --workload hot_read|cold_fill|offline \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// Internal: build the workload's system once, print the time, exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => traced = number()? != 0,
            "--setup-only" => setup_only = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        traced,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cosmobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload: fn(&Run) -> Report = match args.workload.as_str() {
        "hot_read" => workloads::hot_read,
        "cold_fill" => workloads::cold_fill,
        "offline" => workloads::offline,
        other => {
            eprintln!("cosmobench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let dir = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cosmobench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    if args.setup_only {
        let took = workloads::setup_once(&args.workload, args.seed, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        println!("setup_s {took}");
        return ExitCode::SUCCESS;
    }
    let stamp = Stamp {
        workload: args.workload.clone(),
        seed: args.seed,
        traced: args.traced,
        seconds: args.seconds,
    };
    println!("stamp: {}", stamp.to_json());
    let run = Run {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.traced,
        dir: dir.clone(),
    };
    let memory = util::AnonPeak::start();
    let mut report = workload(&run);
    report.set("rss_mb", memory.finish());
    let _ = std::fs::remove_dir_all(&dir);

    for (name, value, unit) in &report.named {
        println!("{name}: {value} {unit}");
    }
    let list: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in list {
        if !report.metrics.contains_key(name) {
            eprintln!("cosmobench: {name} was not measured");
        }
        println!(
            "{name}: {} {unit}",
            report.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    let results = out.join("results");
    if args.traced {
        let traced_p50 = report.metrics.get("p50_us").copied();
        match (traced_p50, report::untraced_p50(&results, &stamp)) {
            (Some(t), Some(u)) => println!(
                "tracing overhead: p50_us traced {t:.2} - untraced {u:.2} = {:.2} us",
                t - u
            ),
            _ => println!(
                "tracing overhead: run --trace 0 with this workload and seed first to compare"
            ),
        }
    }
    for e in &report.errors {
        eprintln!("cosmobench: CHECK FAILED: {e}");
    }
    let line = report.result_line(list);
    if let Err(e) = report::write_result(&results, &stamp, &line) {
        eprintln!("cosmobench: could not write the result file: {e}");
    }
    println!("{line}");
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
