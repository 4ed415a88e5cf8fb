//! `modref` — the command-line driver for the codesign flow.
//!
//! ```text
//! modref check    <spec>                 parse + validate, print stats
//! modref lint     <spec>                 static analysis: all lint families
//! modref print    <spec>                 re-print the canonical form
//! modref graph    <spec>                 list derived channels
//! modref simulate <spec>                 run and print final state
//! modref refine   <spec> -p <part> -m N  refine to ModelN, print result
//! modref rates    <spec> -p <part>       Figure 9 rate table, all models
//! modref explore  <spec> [--seeds K]     parallel multi-start exploration
//! modref serve    --stdio|--listen ADDR  concurrent JSONL codesign service
//! modref report   <trace.jsonl>          render a recorded trace
//! modref demo     <dir>                  write the example files
//! ```
//!
//! Every spec-taking command goes through one [`Codesign`] session: the
//! spec is loaded and validated once, the access graph derived once,
//! and failures are structured [`ModrefError`]s.
//!
//! Global flags (any command): `--trace <file.jsonl>` records spans and
//! metrics for the run, `-v`/`--verbose` adds diagnostics, `-q`/`--quiet`
//! drops informational output. Unknown flags are rejected with a
//! closest-match suggestion.

use std::env;
use std::fs;
use std::process::ExitCode;

use modref_core::api::{Codesign, LintOpts, ModrefError, SimOpts};

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("modref: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Options shared by every subcommand, stripped before dispatch.
struct Global {
    /// Record a trace of the run and write it here as JSONL.
    trace: Option<String>,
    /// 0 = quiet, 1 = normal, 2 = verbose.
    verbosity: u8,
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (args, global) = split_global(args)?;
    commands::set_verbosity(global.verbosity);
    // `--help` anywhere asks for usage; it is never a file or directory.
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return Ok(());
    }
    let cmd = &args[0];
    validate_flags(cmd, &args)?;

    let Some(path) = &global.trace else {
        return dispatch(cmd, &args);
    };
    modref_obs::init(modref_obs::ClockMode::Wall);
    let result = dispatch(cmd, &args);
    let trace = modref_obs::shutdown();
    fs::write(path, modref_obs::jsonl::write(&trace))
        .map_err(|e| format!("writing {path}: {e}"))?;
    if global.verbosity > 0 {
        eprintln!(
            "wrote trace to {path} ({} events); render with `modref report {path}`",
            trace.events.len()
        );
    }
    result
}

fn dispatch(cmd: &str, args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        "check" => commands::check_source(&load_session_lenient(args, 1)?),
        "lint" => {
            // `--explain` documents a lint from the registry; it needs
            // no spec file and ignores every other flag.
            if let Some(code) = flag_value(args, "--explain") {
                return commands::explain_lint(&code);
            }
            let cd = load_session_lenient(args, 1)?;
            let mut opts = LintOpts::new();
            if flag_value(args, "-p").is_some() {
                opts = opts.with_part(read_flag_file(args, "-p")?);
            }
            if args.iter().any(|a| a == "-m") {
                if opts.part.is_none() {
                    return Err(
                        "`-m` requires `-p <part>` (conformance lints need a partition)".into(),
                    );
                }
                opts = opts.with_model(parse_model(args)?);
            }
            let json = match flag_value(args, "--format").as_deref() {
                None | Some("human") => false,
                Some("json") => true,
                Some(other) => {
                    return Err(format!("invalid --format `{other}` (expected human|json)").into())
                }
            };
            for v in flag_values(args, "--deny")
                .into_iter()
                .chain(flag_values(args, "-D"))
            {
                opts = opts.with_deny(v);
            }
            for v in flag_values(args, "--allow") {
                opts = opts.with_allow(v);
            }
            commands::lint(&cd, &opts, json)
        }
        "print" => commands::print_spec(&load_session(args, 1)?),
        "graph" => {
            let dot = args.iter().any(|a| a == "--dot");
            commands::graph(&load_session(args, 1)?, dot)
        }
        "simulate" => {
            let cd = load_session(args, 1)?;
            let profile = args.iter().any(|a| a == "--profile");
            let stats = args.iter().any(|a| a == "--stats");
            let vcd = flag_value(args, "--vcd");
            let mut opts = SimOpts::new();
            if let Some(v) = flag_value(args, "--max-steps") {
                opts = opts
                    .with_max_steps(v.parse().map_err(|e| format!("invalid --max-steps: {e}"))?);
            }
            opts = opts.with_kernel(parse_kernel(args)?);
            commands::simulate(&cd, profile, stats, vcd.as_deref(), &opts)
        }
        "refine" => {
            let cd = load_session(args, 1)?;
            let part_text = read_flag_file(args, "-p")?;
            let model = parse_model(args)?;
            let out = flag_value(args, "-o");
            let dot = flag_value(args, "--dot");
            commands::refine(&cd, &part_text, model, out.as_deref(), dot.as_deref())
        }
        "vhdl" => commands::vhdl(&load_session(args, 1)?),
        "cgen" => {
            let cd = load_session(args, 1)?;
            let process =
                flag_value(args, "--process").ok_or("missing `--process <behavior>` argument")?;
            commands::cgen(&cd, &process)
        }
        "estimate" => {
            let cd = load_session(args, 1)?;
            let part_text = read_flag_file(args, "-p")?;
            commands::estimate(&cd, &part_text)
        }
        "rates" => {
            let cd = load_session(args, 1)?;
            let part_text = read_flag_file(args, "-p")?;
            commands::rates(&cd, &part_text)
        }
        "explore" => {
            let cd = load_session(args, 1)?;
            let part_text = match flag_value(args, "-p") {
                Some(_) => Some(read_flag_file(args, "-p")?),
                None => None,
            };
            let seeds = flag_value(args, "--seeds")
                .map(|v| v.parse::<u64>())
                .transpose()
                .map_err(|e| format!("invalid --seeds: {e}"))?
                .unwrap_or(4);
            let threads = flag_value(args, "--threads")
                .map(|v| v.parse::<usize>())
                .transpose()
                .map_err(|e| format!("invalid --threads: {e}"))?;
            let top = flag_value(args, "--top")
                .map(|v| v.parse::<usize>())
                .transpose()
                .map_err(|e| format!("invalid --top: {e}"))?
                .unwrap_or(10);
            let verify_traces = args.iter().any(|a| a == "--verify-traces");
            // --verify-traces subsumes --verify: the trace check runs
            // inside the verification pass.
            let verify = verify_traces || args.iter().any(|a| a == "--verify");
            let kernel = parse_kernel(args)?;
            let out = flag_value(args, "-o");
            commands::explore(
                &cd,
                part_text.as_deref(),
                seeds,
                threads,
                top,
                verify,
                verify_traces,
                kernel,
                out.as_deref(),
            )
        }
        "serve" => {
            let stdio = args.iter().any(|a| a == "--stdio");
            let listen = flag_value(args, "--listen");
            let mut cfg = modref_core::serve::ServeConfig::default();
            if let Some(v) = flag_value(args, "--workers") {
                cfg = cfg.workers(v.parse().map_err(|e| format!("invalid --workers: {e}"))?);
            }
            if let Some(v) = flag_value(args, "--queue") {
                cfg = cfg.queue(v.parse().map_err(|e| format!("invalid --queue: {e}"))?);
            }
            if let Some(v) = flag_value(args, "--deadline-ms") {
                cfg = cfg.default_deadline_ms(
                    v.parse()
                        .map_err(|e| format!("invalid --deadline-ms: {e}"))?,
                );
            }
            if let Some(v) = flag_value(args, "--max-conns") {
                cfg = cfg
                    .max_connections(v.parse().map_err(|e| format!("invalid --max-conns: {e}"))?);
            }
            if let Some(v) = flag_value(args, "--cache") {
                cfg = cfg.cache(v.parse().map_err(|e| format!("invalid --cache: {e}"))?);
            }
            commands::serve(stdio, listen.as_deref(), cfg)
        }
        "report" => {
            let path = args.get(1).ok_or("usage: modref report <trace.jsonl>")?;
            commands::report(path)
        }
        "demo" => {
            let dir = args.get(1).ok_or("usage: modref demo <directory>")?.clone();
            commands::demo(&dir)
        }
        "help" => {
            print_usage();
            Ok(())
        }
        other => {
            let mut msg = format!("unknown command `{other}`");
            if let Some(s) = closest(other, COMMANDS.iter().copied()) {
                msg.push_str(&format!(" (did you mean `{s}`?)"));
            }
            msg.push_str(" — try `modref help`");
            Err(msg.into())
        }
    }
}

/// Every subcommand name, for `unknown command` suggestions.
const COMMANDS: &[&str] = &[
    "check", "lint", "print", "graph", "simulate", "refine", "vhdl", "cgen", "estimate", "rates",
    "explore", "serve", "report", "demo", "help",
];

/// Flags accepted by every command. `true` = the flag consumes a value.
const GLOBAL_FLAGS: &[(&str, bool)] = &[
    ("--trace", true),
    ("-v", false),
    ("--verbose", false),
    ("-q", false),
    ("--quiet", false),
    ("--help", false),
    ("-h", false),
];

/// The per-command flag tables `validate_flags` checks against.
fn command_flags(cmd: &str) -> Option<&'static [(&'static str, bool)]> {
    Some(match cmd {
        "check" | "print" | "vhdl" | "report" | "demo" | "help" => &[],
        "lint" => &[
            ("-p", true),
            ("-m", true),
            ("--format", true),
            ("--deny", true),
            ("--allow", true),
            ("-D", true),
            ("--explain", true),
        ],
        "graph" => &[("--dot", false)],
        "simulate" => &[
            ("--profile", false),
            ("--stats", false),
            ("--max-steps", true),
            ("--kernel", true),
            ("--vcd", true),
        ],
        "refine" => &[("-p", true), ("-m", true), ("-o", true), ("--dot", true)],
        "cgen" => &[("--process", true)],
        "estimate" | "rates" => &[("-p", true)],
        "explore" => &[
            ("-p", true),
            ("--seeds", true),
            ("--threads", true),
            ("--top", true),
            ("--verify", false),
            ("--verify-traces", false),
            ("--kernel", true),
            ("-o", true),
        ],
        "serve" => &[
            ("--stdio", false),
            ("--listen", true),
            ("--workers", true),
            ("--queue", true),
            ("--deadline-ms", true),
            ("--max-conns", true),
            ("--cache", true),
        ],
        _ => return None,
    })
}

/// Strips the global flags out of the argument list.
fn split_global(args: &[String]) -> Result<(Vec<String>, Global), String> {
    let mut rest = Vec::new();
    let mut global = Global {
        trace: None,
        verbosity: 1,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                i += 1;
                let path = args.get(i).ok_or("missing `--trace <file.jsonl>` value")?;
                global.trace = Some(path.clone());
            }
            "-v" | "--verbose" => global.verbosity = 2,
            "-q" | "--quiet" => global.verbosity = 0,
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    Ok((rest, global))
}

/// Rejects flags the command does not know, suggesting the closest match.
/// Unknown *commands* are reported by `dispatch` instead.
fn validate_flags(cmd: &str, args: &[String]) -> Result<(), String> {
    let Some(cmd_flags) = command_flags(cmd) else {
        return Ok(());
    };
    let known: Vec<(&str, bool)> = cmd_flags.iter().chain(GLOBAL_FLAGS).copied().collect();
    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        if arg.starts_with('-') && arg.len() > 1 {
            match known.iter().find(|(f, _)| f == arg) {
                Some((_, true)) => i += 1,
                Some((_, false)) => {}
                None => {
                    let mut msg = format!("unknown flag `{arg}` for `modref {cmd}`");
                    if let Some(s) = closest(arg, known.iter().map(|(f, _)| *f)) {
                        msg.push_str(&format!(" (did you mean `{s}`?)"));
                    }
                    msg.push_str(" — try `modref help`");
                    return Err(msg);
                }
            }
        }
        i += 1;
    }
    Ok(())
}

/// The candidate closest to `input` by edit distance, when close enough
/// to plausibly be a typo (distance ≤ 2, or ≤ 3 for long names).
fn closest<'a>(input: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    let limit = if input.len() > 6 { 3 } else { 2 };
    candidates
        .map(|c| (levenshtein(input, c), c))
        .filter(|(d, _)| *d <= limit)
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

/// Classic two-row edit distance.
fn levenshtein(a: &str, b: &str) -> usize {
    let b_chars: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b_chars.len()).collect();
    let mut curr = vec![0; b_chars.len() + 1];
    for (i, ca) in a.chars().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b_chars.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != *cb);
            curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b_chars.len()]
}

fn print_usage() {
    println!(
        "modref — model refinement for hardware-software codesign

USAGE:
  modref check    <spec>                      parse + validate, print stats
  modref lint     <spec> [-p <part> [-m N]]   static analysis: structural,
                  [--format human|json]       dataflow, race, deadlock +
                  [--deny L] [-D L]           (with -p) the conformance lints;
                  [--allow L]                 `--deny warnings` fails on any
                                              warning, -D is short for --deny
  modref lint     --explain CODE              print one lint's documentation
                                              (e.g. DL04 or circular-wait)
  modref print    <spec>                      re-print the canonical form
  modref graph    <spec> [--dot]              list channels (or emit DOT)
  modref simulate <spec> [--profile]          run and print final state
                  [--max-steps N] [--stats]   (+ activations / scheduler stats)
                  [--kernel event|roundrobin|compiled]
                                              pick the simulation kernel
                                              (default compiled)
                  [--vcd FILE]                record an event trace and write
                                              an IEEE 1364 waveform (GTKWave)
  modref refine   <spec> -p <part> -m <1..4>  refine, print spec
                  [-o FILE] [--dot FILE]      write spec / architecture DOT
  modref rates    <spec> -p <part>            Figure 9 rate tables, all models
  modref explore  <spec> [-p <part>]          parallel multi-start exploration
                  [--seeds K] [--threads N]   K seeds x algorithms x 4 models,
                  [--top M] [-o FILE]         ranked with Pareto front flagged
                  [--verify]                  simulate original vs refined for
                                              every Pareto-front candidate
                  [--verify-traces]           --verify + require each refined
                                              trace to be a stuttering
                                              refinement of the original's
                  [--kernel event|roundrobin|compiled]
                                              kernel for --verify simulations
                                              (default compiled)
  modref estimate <spec> -p <part>            lifetimes + channel rates report
  modref serve    --stdio | --listen ADDR     concurrent JSONL codesign service:
                  [--workers N] [--queue N]   one request per line on stdin (or
                  [--deadline-ms MS]          per TCP connection, multiplexed
                  [--max-conns N] [--cache N] onto one shared pool), one JSON
                                              response per line, tagged by id;
                                              protocol v1 + v2 ops: parse
                                              load_spec refine estimate explore
                                              verify lint batch cancel; --cache
                                              bounds the shared parsed-spec LRU
  modref vhdl     <spec>                      export to VHDL (refined specs)
  modref cgen     <spec> --process <name>     export a process to C + bus HAL
  modref report   <trace.jsonl>               render a trace recorded with
                                              --trace: profile tree + metrics
  modref demo     <dir>                       write the medical + fig2 examples

GLOBAL FLAGS (any command):
  --trace <file.jsonl>   record spans and metrics for the run as JSONL
  -v, --verbose          extra diagnostic output
  -q, --quiet            suppress informational output

Unknown flags are errors (with a closest-match suggestion), so typos
never silently change a run.

The <part> file format is documented in modref-partition's textfmt module:
  component PROC processor 65536
  component ASIC asic 10000 75
  default PROC
  behavior Sample -> ASIC
  var samples     -> ASIC"
    );
}

/// Opens a validated [`Codesign`] session on the spec file at `pos`,
/// rendering parse errors as `path:line:col: message`.
fn load_session(args: &[String], pos: usize) -> Result<Codesign, Box<dyn std::error::Error>> {
    let path = args.get(pos).ok_or("missing specification file argument")?;
    Codesign::load(path).map_err(|e| render_load_error(path, e))
}

/// Like [`load_session`], but skips validation — `check` and `lint`
/// report validation problems themselves, with positions, instead of
/// stopping at the first one.
fn load_session_lenient(
    args: &[String],
    pos: usize,
) -> Result<Codesign, Box<dyn std::error::Error>> {
    let path = args.get(pos).ok_or("missing specification file argument")?;
    Codesign::load_lenient(path).map_err(|e| render_load_error(path, e))
}

fn render_load_error(path: &str, e: ModrefError) -> Box<dyn std::error::Error> {
    match e {
        ModrefError::Parse(p) => format!("{path}:{}:{}: {}", p.line, p.col, p.message).into(),
        other => Box::new(other),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Every value of a flag that may repeat (`--deny A --deny B`).
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

fn read_flag_file(args: &[String], flag: &str) -> Result<String, Box<dyn std::error::Error>> {
    let path = flag_value(args, flag)
        .ok_or_else(|| format!("missing `{flag} <partition-file>` argument"))?;
    Ok(fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?)
}

/// Resolves the optional `--kernel` flag; absent means the default
/// compiled kernel. Every kernel shares one event scheduler except the
/// round-robin reference.
fn parse_kernel(args: &[String]) -> Result<modref_sim::SimKernel, Box<dyn std::error::Error>> {
    match flag_value(args, "--kernel") {
        None => Ok(modref_sim::SimKernel::default()),
        Some(name) => modref_sim::SimKernel::from_name(&name).ok_or_else(|| {
            format!("invalid --kernel `{name}` (expected event|roundrobin|compiled)").into()
        }),
    }
}

fn parse_model(args: &[String]) -> Result<modref_core::ImplModel, Box<dyn std::error::Error>> {
    let value = flag_value(args, "-m").ok_or("missing `-m <1..4>` argument")?;
    Ok(match value.as_str() {
        "1" => modref_core::ImplModel::Model1,
        "2" => modref_core::ImplModel::Model2,
        "3" => modref_core::ImplModel::Model3,
        "4" => modref_core::ImplModel::Model4,
        other => return Err(format!("invalid model `{other}` (expected 1..4)").into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(items: &[&str]) -> Vec<String> {
        items.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("--seed", "--seeds"), 1);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn unknown_flag_suggests_closest() {
        let err = validate_flags("explore", &s(&["explore", "x.spec", "--seed", "4"]))
            .expect_err("typo must be rejected");
        assert!(err.contains("--seed"), "{err}");
        assert!(err.contains("did you mean `--seeds`"), "{err}");
    }

    #[test]
    fn known_flags_pass_and_values_are_skipped() {
        // `--top 10` — the value `10` must not be flag-checked; and a
        // value that looks like a flag is skipped for value-taking flags.
        validate_flags("explore", &s(&["explore", "x.spec", "--top", "10"])).unwrap();
        validate_flags("simulate", &s(&["simulate", "x.spec", "--kernel", "event"])).unwrap();
    }

    #[test]
    fn global_flags_are_stripped() {
        let (rest, g) =
            split_global(&s(&["-q", "explore", "x.spec", "--trace", "t.jsonl"])).unwrap();
        assert_eq!(rest, s(&["explore", "x.spec"]));
        assert_eq!(g.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(g.verbosity, 0);
        assert!(split_global(&s(&["explore", "--trace"])).is_err());
    }

    #[test]
    fn every_default_kernel_is_compiled() {
        use modref_sim::SimKernel;
        assert_eq!(modref_sim::SimConfig::default().kernel, SimKernel::Compiled);
        assert_eq!(modref_core::api::SimOpts::new().kernel, SimKernel::Compiled);
        assert_eq!(
            modref_core::api::VerifyOpts::new().kernel,
            SimKernel::Compiled
        );
        let absent = parse_kernel(&s(&["simulate", "x.spec"])).expect("no flag is valid");
        assert_eq!(absent, SimKernel::Compiled);
    }

    #[test]
    fn every_kernel_name_still_parses() {
        use modref_sim::SimKernel::{Compiled, EventDriven, RoundRobin};
        for (name, kernel) in [
            ("event", EventDriven),
            ("event-driven", EventDriven),
            ("roundrobin", RoundRobin),
            ("round-robin", RoundRobin),
            ("compiled", Compiled),
        ] {
            let args = s(&["simulate", "x.spec", "--kernel", name]);
            assert_eq!(parse_kernel(&args).expect(name), kernel);
        }
    }

    #[test]
    fn unknown_command_suggests_closest() {
        let err = dispatch("exlpore", &s(&["exlpore"])).expect_err("unknown command");
        assert!(err.to_string().contains("did you mean `explore`"), "{err}");
    }
}
