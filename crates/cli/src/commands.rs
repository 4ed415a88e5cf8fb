//! The CLI subcommand implementations, all running through the
//! [`Codesign`] facade — one spec load, one lazily derived access
//! graph, structured [`ModrefError`] failures.

use std::fs;
use std::sync::atomic::{AtomicU8, Ordering};

use modref_analyze::{render_json_lines, Totals};
use modref_core::api::{Codesign, ExploreOpts, LintOpts, SimOpts, VerifyOpts};
use modref_core::{ImplModel, ModrefError};
use modref_graph::ChannelKind;
use modref_partition::textfmt::render_partition;
use modref_partition::Allocation;
use modref_spec::printer;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// Output verbosity: 0 = quiet, 1 = normal, 2 = verbose. Set once from
/// the global `-q`/`-v` flags before dispatch.
static VERBOSITY: AtomicU8 = AtomicU8::new(1);

/// Installs the verbosity level parsed from the global flags.
pub fn set_verbosity(level: u8) {
    VERBOSITY.store(level, Ordering::Relaxed);
}

fn verbose() -> bool {
    VERBOSITY.load(Ordering::Relaxed) >= 2
}

fn quiet() -> bool {
    VERBOSITY.load(Ordering::Relaxed) == 0
}

/// `modref check`: the session already validated; print stats.
pub fn check(cd: &Codesign) -> CmdResult {
    let s = cd.stats();
    println!("spec `{}` is valid", s.name);
    println!("  behaviors:     {} ({} leaves)", s.behaviors, s.leaves);
    println!("  variables:     {}", s.variables);
    println!("  signals:       {}", s.signals);
    println!("  subroutines:   {}", s.subroutines);
    println!("  statements:    {}", s.statements);
    println!("  printed lines: {}", s.printed_lines);
    println!(
        "  channels:      {} data, {} control",
        s.data_channels, s.control_channels
    );
    Ok(())
}

/// `modref check` front end: report *every* validation violation with a
/// `file:line:col` position, or fall through to the stats printout when
/// the spec is well-formed.
pub fn check_source(cd: &Codesign) -> CmdResult {
    let diags = cd.check();
    if !diags.is_empty() {
        for d in &diags {
            eprintln!("{}", d.render_human(cd.name()));
        }
        return Err(format!("{} validation error(s)", diags.len()).into());
    }
    check(cd)
}

/// `modref lint`: the full static-analysis suite over a spec, plus the
/// refinement-conformance lints when the options carry a partition.
pub fn lint(cd: &Codesign, opts: &LintOpts, json: bool) -> CmdResult {
    let diags = cd.lint(opts)?;
    let totals = Totals::of(&diags);
    if json {
        print!("{}", render_json_lines(&diags, cd.name()));
    } else {
        for d in &diags {
            println!("{}", d.render_human(cd.name()));
        }
        if !quiet() {
            println!(
                "{} error(s), {} warning(s), {} note(s)",
                totals.errors, totals.warnings, totals.notes
            );
        }
    }
    if totals.errors > 0 {
        return Err(ModrefError::Lint {
            errors: totals.errors,
        }
        .into());
    }
    Ok(())
}

/// `modref lint --explain CODE`: print one lint's full documentation.
/// Needs no spec file — the registry is the source of truth.
pub fn explain_lint(code_or_name: &str) -> CmdResult {
    let Some(l) = modref_analyze::lint(code_or_name) else {
        let mut msg = format!("unknown lint `{code_or_name}`");
        let known = modref_analyze::LINTS
            .iter()
            .flat_map(|l| [l.code, l.name])
            .collect::<Vec<_>>()
            .join(", ");
        msg.push_str(&format!(" — known lints: {known}"));
        return Err(msg.into());
    };
    println!(
        "{} ({}), default severity: {}",
        l.code, l.name, l.default_severity
    );
    println!("  {}", l.description);
    println!();
    // Re-wrap the registry text to the terminal-friendly width used
    // throughout the CLI output.
    let mut line = String::from(" ");
    for word in l.explain.split_whitespace() {
        if line.len() + word.len() + 1 > 76 {
            println!("{line}");
            line = String::from(" ");
        }
        line.push(' ');
        line.push_str(word);
    }
    if line.trim().is_empty() {
        return Ok(());
    }
    println!("{line}");
    Ok(())
}

/// `modref print`: canonical re-print.
pub fn print_spec(cd: &Codesign) -> CmdResult {
    print!("{}", cd.pretty());
    Ok(())
}

/// `modref graph`: list every derived channel (or emit DOT).
pub fn graph(cd: &Codesign, dot: bool) -> CmdResult {
    let spec = cd.spec();
    let graph = cd.graph();
    if dot {
        print!("{}", modref_graph::dot::to_dot(spec, graph));
        return Ok(());
    }
    for ch in graph.channels() {
        match ch.kind() {
            ChannelKind::Data {
                behavior,
                var,
                direction,
                accesses,
                bits_per_access,
                in_guard,
            } => {
                let arrow = match direction {
                    modref_graph::Direction::Read => "<-",
                    modref_graph::Direction::Write => "->",
                };
                println!(
                    "{}: {} {} {} ({:.1} accesses x {} bits{})",
                    ch.id(),
                    spec.behavior(*behavior).name(),
                    arrow,
                    spec.variable(*var).name(),
                    accesses,
                    bits_per_access,
                    if *in_guard { ", in guard" } else { "" }
                );
            }
            ChannelKind::Control { from, to } => {
                println!(
                    "{}: {} => {} (control)",
                    ch.id(),
                    spec.behavior(*from).name(),
                    spec.behavior(*to).name()
                );
            }
        }
    }
    Ok(())
}

/// `modref simulate`: run to completion, print final state.
pub fn simulate(
    cd: &Codesign,
    profile: bool,
    stats: bool,
    vcd: Option<&str>,
    opts: &SimOpts,
) -> CmdResult {
    let kernel_name = opts.kernel.name();
    if verbose() {
        eprintln!("simulating with the {kernel_name} kernel");
    }
    let mut opts = opts.clone();
    if vcd.is_some() {
        opts = opts.with_trace(true);
    }
    let result = cd.simulate(&opts)?;
    if let Some(path) = vcd {
        let trace = result
            .trace
            .as_ref()
            .ok_or("simulation recorded no trace")?;
        // Render fully before touching the filesystem: a write failure
        // exits nonzero without leaving a partial waveform behind.
        let text = modref_sim::vcd::export(cd.spec(), cd.source_map(), trace);
        fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        if !quiet() {
            eprintln!("wrote {path} ({} trace events)", trace.len());
        }
    }
    println!(
        "completed at t={} after {} micro-steps ({} var writes, {} signal writes)",
        result.time, result.steps, result.var_writes, result.signal_writes
    );
    for (name, value) in result.scalar_vars() {
        println!("  {name} = {value}");
    }
    if stats {
        let s = result.sched;
        println!("scheduler stats ({kernel_name} kernel):");
        println!("  rounds:      {}", s.rounds);
        println!("  cond evals:  {}", s.cond_evals);
        println!("  wakeups:     {}", s.wakeups);
        println!("  timer pops:  {}", s.timer_pops);
    }
    if profile {
        println!("activation profile:");
        for (name, count) in result.activations() {
            if count > 0 {
                println!("  {name} x{count}");
            }
        }
    }
    Ok(())
}

/// `modref refine`: refine under a partition file, report and print.
pub fn refine(
    cd: &Codesign,
    part_text: &str,
    model: ImplModel,
    out: Option<&str>,
    dot: Option<&str>,
) -> CmdResult {
    let refined = cd.refine(part_text, model)?;

    if !quiet() {
        eprintln!(
            "refined `{}` under {model}: {} behaviors, {} lines",
            cd.spec().name(),
            refined.spec.behavior_count(),
            printer::line_count(&refined.spec)
        );
        eprintln!("architecture:");
        for line in modref_core::report::describe(&refined).lines() {
            eprintln!("  {line}");
        }
    }

    if let Some(path) = dot {
        fs::write(path, modref_core::dot::to_dot(&refined))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    let text = printer::print(&refined.spec);
    match out {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `modref vhdl`: export a (refined) specification to VHDL.
pub fn vhdl(cd: &Codesign) -> CmdResult {
    print!("{}", modref_spec::vhdl::export(cd.spec())?);
    Ok(())
}

/// `modref cgen`: export one process to C with a bus HAL.
pub fn cgen(cd: &Codesign, process: &str) -> CmdResult {
    print!(
        "{}",
        modref_spec::cgen::export_software(cd.spec(), process)?
    );
    Ok(())
}

/// `modref estimate`: lifetimes and channel-rate report.
pub fn estimate(cd: &Codesign, part_text: &str) -> CmdResult {
    print!("{}", cd.estimate(part_text)?);
    Ok(())
}

/// `modref rates`: Figure 9 tables for all four models.
pub fn rates(cd: &Codesign, part_text: &str) -> CmdResult {
    let (_, partition) = cd.partition(part_text)?;
    let (locals, globals) = partition.classify_all(cd.spec(), cd.graph());
    println!(
        "{} local / {} global variables",
        locals.len(),
        globals.len()
    );
    for model in ImplModel::ALL {
        let table = cd.rates(part_text, model)?;
        let cells: Vec<String> = table
            .iter()
            .map(|(bus, rate)| format!("{bus}={rate:.0}"))
            .collect();
        println!(
            "{model}: [{}] Mbit/s, hot spot {}",
            cells.join(", "),
            table
                .hot_spot()
                .map(|(b, r)| format!("{b} @ {r:.0}"))
                .unwrap_or_else(|| "-".into())
        );
    }
    Ok(())
}

/// `modref explore`: parallel multi-start design-space exploration.
///
/// Runs K seeds × {annealing, migration} plus the constructive methods,
/// crosses every candidate with the four implementation models, and
/// prints the ranked design points with the Pareto front flagged. With
/// `-o`, writes the best candidate's partition file.
#[allow(clippy::too_many_arguments)] // mirrors the CLI flag surface
pub fn explore(
    cd: &Codesign,
    part_text: Option<&str>,
    seeds: u64,
    threads: Option<usize>,
    top: usize,
    verify: bool,
    verify_traces: bool,
    kernel: modref_sim::SimKernel,
    out: Option<&str>,
) -> CmdResult {
    let mut eopts = ExploreOpts::new().with_seeds(seeds);
    if let Some(text) = part_text {
        eopts = eopts.with_part(text);
    }
    if let Some(t) = threads {
        eopts = eopts.with_threads(t);
    }
    let workers = modref_partition::thread_count(threads);

    if verbose() {
        eprintln!(
            "explore config: seeds={seeds} threads={workers} top={top} verify={verify} \
             tracing={}",
            if modref_obs::enabled() { "on" } else { "off" }
        );
    }
    let started = std::time::Instant::now();
    let result = cd.explore(&eopts)?;
    let elapsed = started.elapsed();

    let n = result.points.len();
    let per_sec = n as f64 / elapsed.as_secs_f64().max(1e-9);
    if !quiet() {
        println!(
            "explored {n} design points ({seeds} seeds x algorithms x 4 models) \
             on {workers} thread(s) in {:.2?} — {per_sec:.0} candidates/sec",
            elapsed
        );
        println!();
    }
    println!(
        "{:<4} {:<2} {:<17} {:>4}  {:<6} {:>12} {:>10} {:>10} {:>12} {:>5}",
        "rank",
        "",
        "algorithm",
        "seed",
        "model",
        "cost",
        "cut bits",
        "imbal ns",
        "rate Mbit/s",
        "buses"
    );
    for (i, p) in result.points.iter().take(top.max(1)).enumerate() {
        println!(
            "{:<4} {:<2} {:<17} {:>4}  {:<6} {:>12.1} {:>10.1} {:>10.0} {:>12.1} {:>5}",
            i + 1,
            if p.pareto { "*" } else { "" },
            p.algorithm,
            p.seed,
            p.model,
            p.cost.total,
            p.cost.cut_bits,
            p.cost.imbalance_ns,
            p.max_bus_rate,
            p.bus_count
        );
    }
    if !quiet() {
        if n > top {
            println!("... {} more (use --top to show)", n - top);
        }
        println!("* = Pareto-optimal over (cost, max bus rate)");
    }

    if verify {
        let mut vopts = VerifyOpts::new()
            .with_kernel(kernel)
            .with_check_traces(verify_traces);
        if let Some(text) = part_text {
            vopts = vopts.with_part(text);
        }
        if let Some(t) = threads {
            vopts = vopts.with_threads(t);
        }
        let started = std::time::Instant::now();
        let v = cd.verify(&result, &vopts)?;
        let elapsed = started.elapsed();
        println!();
        println!(
            "verified {} front candidate x model pairs by simulation{} in {:.2?} \
             ({} kernel; original: t={}, {} steps)",
            v.records.len(),
            if verify_traces {
                " + stuttering-refinement trace check"
            } else {
                ""
            },
            elapsed,
            kernel.name(),
            v.original_time,
            v.original_steps
        );
        println!(
            "{:<17} {:>4}  {:<6} {:<6} {:>12} {:>12} {:>12}  detail",
            "algorithm", "seed", "model", "equiv", "sim time", "sim steps", "bus writes"
        );
        for r in &v.records {
            println!(
                "{:<17} {:>4}  {:<6} {:<6} {:>12} {:>12} {:>12}  {}",
                r.algorithm,
                r.seed,
                r.model.to_string(),
                if r.equivalent { "pass" } else { "FAIL" },
                r.refined_time,
                r.refined_steps,
                r.bus_traffic,
                r.detail
            );
        }
        match v.failures() {
            0 => println!("all Pareto-front refinements simulate equivalent to the original"),
            n => println!("{n} candidate x model pairs FAILED equivalence"),
        }
    }

    if let Some(path) = out {
        let best = result
            .points
            .first()
            .ok_or("exploration produced no design points")?;
        let alloc = match part_text {
            Some(text) => cd.partition(text)?.0,
            None => Allocation::proc_plus_asic(),
        };
        let text = render_partition(cd.spec(), &alloc, &best.partition);
        fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote best partition ({} seed {} under {}) to {path}",
            best.algorithm, best.seed, best.model
        );
    }
    Ok(())
}

/// `modref serve`: run the concurrent JSONL codesign service over
/// stdin/stdout or TCP. Responses go to stdout; the summary goes to
/// stderr so it never corrupts the protocol stream.
pub fn serve(stdio: bool, listen: Option<&str>, cfg: modref_core::serve::ServeConfig) -> CmdResult {
    let cfg = cfg.workload_resolver(modref_workloads::named_spec);
    let stats = if let Some(addr) = listen {
        let listener =
            std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        if !quiet() {
            eprintln!("modref serve listening on {}", listener.local_addr()?);
        }
        modref_core::serve::serve_listener(listener, &cfg)?
    } else if stdio {
        if verbose() {
            eprintln!(
                "modref serve reading JSONL requests from stdin ({} workers, queue {})",
                cfg.workers, cfg.queue
            );
        }
        modref_core::serve::serve_stdio(&cfg)
    } else {
        return Err("serve needs a transport: `--stdio` or `--listen <addr>`".into());
    };
    if !quiet() {
        eprintln!(
            "served {} request(s): {} ok, {} failed ({} cancelled, {} timed out), \
             {} overloaded, {} malformed",
            stats.accepted,
            stats.completed,
            stats.errors,
            stats.cancelled,
            stats.timeouts,
            stats.overloaded,
            stats.malformed
        );
    }
    Ok(())
}

/// `modref report`: render a JSONL trace recorded with `--trace` as a
/// profile tree plus metric summary.
pub fn report(path: &str) -> CmdResult {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = modref_obs::jsonl::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if verbose() {
        eprintln!("parsed {} events from {path}", trace.events.len());
    }
    print!("{}", modref_obs::report::render(&trace));
    Ok(())
}

/// `modref demo`: write the medical spec + Design1/2/3 partition files,
/// plus the Figure 2 spec and its published partition.
pub fn demo(dir: &str) -> CmdResult {
    use modref_workloads::{
        fig2_partition, fig2_spec, medical_allocation, medical_partition, medical_spec, Design,
    };
    fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let cd = Codesign::from_spec(medical_spec());
    let alloc = medical_allocation();
    let spec_path = format!("{dir}/medical.spec");
    fs::write(&spec_path, cd.pretty())?;
    println!("wrote {spec_path}");
    for design in Design::ALL {
        let part = medical_partition(cd.spec(), &alloc, design);
        let path = format!("{dir}/medical_{}.part", design.to_string().to_lowercase());
        // Insert the `default` line between the component declarations
        // and the assignments.
        let rendered = render_partition(cd.spec(), &alloc, &part);
        let split = rendered.find("behavior ").unwrap_or(rendered.len());
        let (components, assignments) = rendered.split_at(split);
        let text = format!(
            "# {}\n{components}default PROC\n{assignments}",
            design.label()
        );
        fs::write(&path, text)?;
        println!("wrote {path}");
    }

    let fig2 = Codesign::from_spec(fig2_spec());
    let fig2_spec_path = format!("{dir}/fig2.spec");
    fs::write(&fig2_spec_path, fig2.pretty())?;
    println!("wrote {fig2_spec_path}");
    let fig2_part = fig2_partition(fig2.spec(), &alloc);
    let rendered = render_partition(fig2.spec(), &alloc, &fig2_part);
    let split = rendered.find("behavior ").unwrap_or(rendered.len());
    let (components, assignments) = rendered.split_at(split);
    let fig2_part_path = format!("{dir}/fig2.part");
    fs::write(
        &fig2_part_path,
        format!("# Figure 2 partition\n{components}default PROC\n{assignments}"),
    )?;
    println!("wrote {fig2_part_path}");

    if !quiet() {
        println!("\ntry:");
        println!("  modref check {dir}/medical.spec");
        println!("  modref rates {dir}/medical.spec -p {dir}/medical_design1.part");
        println!(
            "  modref refine {dir}/medical.spec -p {dir}/medical_design1.part -m 2 -o refined.spec"
        );
        println!("  modref simulate refined.spec");
        println!("  modref explore {dir}/fig2.spec --trace fig2.jsonl");
        println!("  modref report fig2.jsonl");
        println!("  modref serve --stdio");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_workloads::fig2_spec;

    #[test]
    fn unwritable_vcd_path_fails_without_partial_file() {
        let cd = Codesign::from_spec(fig2_spec());
        let path = "/nonexistent-dir/out.vcd";
        let err = simulate(&cd, false, false, Some(path), &SimOpts::new())
            .expect_err("unwritable path must fail");
        let msg = err.to_string();
        assert!(msg.contains("writing /nonexistent-dir/out.vcd"), "{msg}");
        assert!(
            !std::path::Path::new(path).exists(),
            "no partial file may be left behind"
        );
    }

    #[test]
    fn vcd_is_written_for_a_writable_path() {
        let cd = Codesign::from_spec(fig2_spec());
        let dir = std::env::temp_dir().join("modref-vcd-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fig2.vcd");
        let path_str = path.to_str().expect("utf8 path");
        simulate(&cd, false, false, Some(path_str), &SimOpts::new()).expect("simulate");
        let text = fs::read_to_string(&path).expect("vcd written");
        assert!(text.starts_with("$version modref $end"));
        assert!(text.contains("$enddefinitions $end"));
        fs::remove_file(&path).ok();
    }
}
