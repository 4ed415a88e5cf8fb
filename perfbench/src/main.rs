//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <flow_medical|flow_synth64|serve_edit> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the library the `modref` CLI wraps, checks
//! its outputs, and prints human-readable lines followed by one JSON
//! object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer ledger with `--trace 1`. See
//! `README.md` beside this package for what each metric measures.

mod flow;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;

use report::{Report, PER_LAYER};

/// The command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: &[&str] = &["flow_medical", "flow_synth64", "serve_edit"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} `{value}`: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.note(format!(
        "workload {} seed {} seconds {} trace {} | nproc {nproc} profile {profile} \
         flow threads {} serve workers {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        flow::THREADS,
        serve::WORKERS,
    ));
    let input = match args.workload.as_str() {
        "flow_medical" => Some(flow::Input::Medical),
        "flow_synth64" => Some(flow::Input::Synth64),
        _ => None,
    };
    match (input, args.trace) {
        (Some(input), false) => flow::run(input, args, report),
        (Some(input), true) => {
            flow::run_traced(input, args, report)?;
            // No serve layer runs in a designer flow.
            zero_unless(report, |name| !name.starts_with("serve."));
            Ok(())
        }
        (None, false) => serve::run(args, report),
        (None, true) => {
            serve::run_traced(args, report)?;
            // No flow layer runs in the serve loop's ledger.
            let serve_side = |name: &str| {
                name.starts_with("serve.") || name == "fail_ratio" || name == "obs.overhead_pct"
            };
            zero_unless(report, serve_side);
            Ok(())
        }
    }
}

/// Reports 0 for every per-layer metric outside the workload's layers.
fn zero_unless(report: &mut Report, measured: impl Fn(&str) -> bool) {
    for (name, _) in PER_LAYER {
        if !measured(name) {
            report.metric(name, 0.0);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(args.trace);
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    match report.json_line() {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_edit --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_edit", 7, 20.0, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload serve_edit --seed x --seconds 1",
            "--workload serve_edit --seed 1 --seconds 0",
            "--workload serve_edit --seed 1 --seconds 1 --trace 2",
            "--workload serve_edit --seconds 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
