//! Open-loop end-to-end benchmark of the Eleos KVS serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kvs-hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload runs in simulated time against the repository's
//! public APIs. With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it runs the nominal phase once untraced
//! and once traced, checks that their simulated results are equal,
//! writes the spans to `.bench_out/`, and prints the per-layer
//! metrics. The last line of standard output is the result object.
//! See `perfbench/README.md` for the workloads and metrics.

mod client;
mod fleet;
mod gen;
mod oracle;
mod quant;
mod report;
mod search;
mod single;
mod trace;
mod workload;

use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let outcome = workload::run(&w, args.seed, args.seconds, args.trace);
    println!(
        "{}",
        report::result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
