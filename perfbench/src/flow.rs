//! The designer-flow workloads: `Codesign::parse` of printed spec text,
//! `explore` with default options, then `verify` with the default kernel,
//! in a closed loop (the designer waits for each verdict).
//!
//! The traced run replays the same flow one layer call at a time, at one
//! thread, and checks that the replay reproduces the facade exactly.

use std::time::{Duration, Instant};

use modref_core::api::{Codesign, ExploreOpts, ModrefError, VerifyOpts};
use modref_core::{figure9_rates, refine, static_reject, ImplModel};
use modref_core::{DesignPoint, Exploration, Verification, VerifyRecord};
use modref_partition::explore::ExploreConfig;
use modref_partition::{Allocation, CostConfig, Partition};
use modref_rng::Rng;
use modref_sim::{SimConfig, SimKernel, SimResult, Simulator};
use modref_workloads::{SynthConfig, SynthSpec};

use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile, sorted, tail, Latencies};
use crate::Args;

/// Worker threads for explore and verify: the container's two cores.
pub const THREADS: usize = 2;

/// The synthetic design of `flow_synth64`: about 96 behaviors.
const SYNTH64: SynthConfig = SynthConfig {
    leaves: 64,
    vars: 64,
    stmts_per_leaf: 6,
    fanout: 3,
    loop_percent: 30,
};

/// `SynthSpec` generation seeds `flow_synth64` draws from. Seeds below
/// 64 are left out when their flow does not verify at the commit that
/// defined the benchmark, so that no operation of the workload fails
/// there: under seed 4 the Model1 refinement of the greedy candidate
/// exceeds the simulator's step limit.
const SYNTH_EXCLUDED: &[u64] = &[4];
const SYNTH_POOL: u64 = 64;

/// Designs per `flow_synth64` run. Flow time differs by ±20% between
/// generated designs, so a run averages over several.
const SYNTH_DESIGNS: usize = 10;

/// Set-up repeats until it has run at least this many times and for
/// [`SETUP_MIN_S`]; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.25;

/// Which design set a flow workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The paper's medical system.
    Medical,
    /// `SynthSpec` designs with 64 leaves.
    Synth64,
}

/// One generated design: a name and its printed specification text.
struct Design {
    name: String,
    text: String,
}

/// The generation seeds a run uses, drawn from the pool by `seed`.
fn synth_seeds(seed: u64) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..SYNTH_POOL)
        .filter(|s| !SYNTH_EXCLUDED.contains(s))
        .collect();
    Rng::seed_from_u64(seed).shuffle(&mut pool);
    pool.truncate(SYNTH_DESIGNS);
    pool
}

/// Builds the run's inputs from its seed — the designs as printed
/// text, each parsed and its access graph derived to validate it — and
/// runs one flow of the first design so that lazy initialisation ends
/// before measuring. That flow is the first design's reference.
fn set_up(input: Input, seed: u64) -> Result<(Vec<Design>, Flow), ModrefError> {
    let designs: Vec<Design> = match input {
        Input::Medical => vec![Design {
            name: "medical".into(),
            text: modref_spec::printer::print(&modref_workloads::medical_spec()),
        }],
        Input::Synth64 => synth_seeds(seed)
            .into_iter()
            .map(|s| Design {
                name: format!("synth64_{s}"),
                text: modref_spec::printer::print(&SynthSpec::generate(s, &SYNTH64).spec),
            })
            .collect(),
    };
    for d in &designs {
        Codesign::parse(d.name.as_str(), &d.text)?.graph();
    }
    let warm = facade_flow(&designs[0], THREADS)?;
    Ok((designs, warm))
}

/// Sets up repeatedly and returns the last set-up's designs and
/// reference flow, the median set-up time in seconds and the
/// repetition count.
fn timed_set_up(input: Input, seed: u64) -> Result<(Vec<Design>, Flow, f64, usize), ModrefError> {
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let (designs, warm) = set_up(input, seed)?;
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= SETUP_MIN_REPS && secs.iter().sum::<f64>() >= SETUP_MIN_S {
            let reps = secs.len();
            return Ok((
                designs,
                warm,
                median(&secs).expect("at least one set-up"),
                reps,
            ));
        }
    }
}

/// One complete designer flow and its phase times.
struct Flow {
    parse_ms: f64,
    explore_ms: f64,
    verify_ms: f64,
    exploration: Exploration,
    verification: Verification,
}

impl Flow {
    fn total_ms(&self) -> f64 {
        self.parse_ms + self.explore_ms + self.verify_ms
    }

    /// Simulated micro-steps per host second of verification: the
    /// original run plus every refined run.
    fn verify_steps_per_s(&self) -> f64 {
        let v = &self.verification;
        let steps = v.original_steps + v.records.iter().map(|r| r.refined_steps).sum::<u64>();
        steps as f64 / (self.verify_ms / 1e3)
    }
}

/// Runs parse → explore → verify through the facade at `threads`.
fn facade_flow(d: &Design, threads: usize) -> Result<Flow, ModrefError> {
    let t0 = Instant::now();
    let cd = Codesign::parse(d.name.as_str(), &d.text)?;
    let t1 = Instant::now();
    let exploration = cd.explore(&ExploreOpts::new().with_threads(threads))?;
    let t2 = Instant::now();
    let verification = cd.verify(&exploration, &VerifyOpts::new().with_threads(threads))?;
    let t3 = Instant::now();
    Ok(Flow {
        parse_ms: ms(t1 - t0),
        explore_ms: ms(t2 - t1),
        verify_ms: ms(t3 - t2),
        exploration,
        verification,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The untraced run: a closed loop of facade flows over the designs
/// for `args.seconds`, then the correctness checks.
pub fn run(input: Input, args: &Args, report: &mut Report) -> Result<(), String> {
    let (designs, warm, setup_s, reps) =
        timed_set_up(input, args.seed).map_err(|e| e.to_string())?;
    report.note(format!(
        "designs: {} (threads {THREADS}, setup median of {reps})",
        designs
            .iter()
            .map(|d| d.name.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let mut reference: Vec<Option<(Exploration, Verification)>> =
        designs.iter().map(|_| None).collect();
    reference[0] = Some((warm.exploration, warm.verification));
    let mut flows = Latencies::default();
    let (mut explore, mut verify, mut steps_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    while Instant::now() < deadline || i < designs.len() {
        let k = i % designs.len();
        i += 1;
        let flow = match facade_flow(&designs[k], THREADS) {
            Ok(f) => f,
            Err(e) => {
                report.problem(format!("{}: flow failed: {e}", designs[k].name));
                flows.fail();
                continue;
            }
        };
        if flow.verification.all_equivalent() {
            flows.ok(flow.total_ms());
        } else {
            report.problem(format!(
                "{}: {} non-equivalent verify records",
                designs[k].name,
                flow.verification.failures()
            ));
            flows.fail();
        }
        explore.push(flow.explore_ms);
        verify.push(flow.verify_ms);
        steps_per_s.push(flow.verify_steps_per_s());
        match &reference[k] {
            None => reference[k] = Some((flow.exploration, flow.verification)),
            Some((e, v)) => report.check(*e == flow.exploration && *v == flow.verification, || {
                format!("{}: flow {i} differs from the first run's", designs[k].name)
            }),
        }
    }

    // The oracle kernel, outside the timed and set-up windows.
    for (d, r) in designs.iter().zip(&reference) {
        let Some((e, v)) = r else { continue };
        let oracle = Codesign::parse(d.name.as_str(), &d.text).and_then(|cd| {
            cd.verify(
                e,
                &VerifyOpts::new()
                    .with_threads(THREADS)
                    .with_kernel(SimKernel::RoundRobin),
            )
        });
        report.check(oracle.as_ref() == Ok(v), || {
            format!("{}: round-robin oracle verification differs", d.name)
        });
    }

    // A failed flow sorts as unbounded; reported, it reads as the whole
    // measured window.
    let window_ms = args.seconds * 1e3;
    let all: Vec<f64> = flows
        .sorted_with_failures()
        .into_iter()
        .map(|v| v.min(window_ms))
        .collect();
    let (tail_pct, tail_ms) = tail(&all).unwrap_or((100.0, all[all.len() - 1]));
    let p50 = percentile(&all, 50.0).expect("at least one flow");
    report.count(flows.attempted(), flows.failed());
    report.metric("setup_s", setup_s);
    report.metric("peak_rss_mb", peak_rss_mb()?);
    report.metric("p50_ms", p50);
    report.metric("search_ms", median(&explore).expect("flows ran"));
    // One designer waits for each flow: the loop's rate is one flow per
    // median flow time.
    report.metric("throughput_per_s", 1e3 / p50);
    report.note(format!(
        "flow_ms p50 {p50:.3} p{tail_pct} {tail_ms:.3} (n={}); explore_ms p50 {:.3}; \
         verify_ms p50 {:.3}; verify sim steps/s p50 {:.0}; fail_ratio {}",
        all.len(),
        median(&explore).unwrap_or(0.0),
        median(&verify).unwrap_or(0.0),
        median(&steps_per_s).unwrap_or(0.0),
        flows.fail_ratio()
    ));
    Ok(())
}

/// Host time spent in each layer during one replayed flow, plus the
/// layers' work counts.
#[derive(Debug, Default, Clone)]
struct Ledger {
    parse_us: f64,
    derive_us: f64,
    search_ms: f64,
    job_ms_sum: f64,
    job_ms_max: f64,
    move_evals: f64,
    anneal_moves: f64,
    anneal_accepts: f64,
    rates_ms: f64,
    rates_calls: f64,
    lifetime_hits: f64,
    lifetime_lookups: f64,
    refine_ms: f64,
    refine_calls: f64,
    behaviors_out: f64,
    lint_ms: f64,
    lint_calls: f64,
    lint_rejects: f64,
    sim_ms: f64,
    steps: f64,
    rounds: f64,
    wakeups: f64,
    cond_evals: f64,
    timer_pops: f64,
    signal_writes: f64,
    jobs: f64,
    passes: f64,
}

impl Ledger {
    /// The sum of the layers' self times, in ms.
    fn layers_ms(&self) -> f64 {
        (self.parse_us + self.derive_us) / 1e3
            + self.search_ms
            + self.rates_ms
            + self.refine_ms
            + self.lint_ms
            + self.sim_ms
    }

    fn add_sim(&mut self, r: &SimResult, took: Duration) {
        self.sim_ms += ms(took);
        self.steps += r.steps as f64;
        self.rounds += r.sched.rounds as f64;
        self.wakeups += r.sched.wakeups as f64;
        self.cond_evals += r.sched.cond_evals as f64;
        self.timer_pops += r.sched.timer_pops as f64;
        self.signal_writes += r.signal_writes as f64;
    }
}

fn counter(name: &str) -> f64 {
    modref_obs::counter(name).get() as f64
}

/// Replays one flow at one thread through the public layer calls,
/// timing each call from here. Returns the ledger and the exploration
/// and verification the layers produced.
fn replay(d: &Design) -> Result<(Ledger, Exploration, Verification), ModrefError> {
    let mut l = Ledger::default();
    let t = Instant::now();
    let cd = Codesign::parse(d.name.as_str(), &d.text)?;
    l.parse_us = ms(t.elapsed()) * 1e3;
    let t = Instant::now();
    let graph = cd.graph();
    l.derive_us = ms(t.elapsed()) * 1e3;
    let spec = cd.spec();
    let alloc = Allocation::proc_plus_asic();
    let cost = CostConfig::default();
    let expl = ExploreConfig {
        threads: Some(1),
        ..ExploreConfig::default()
    };

    let t = Instant::now();
    let candidates = modref_partition::explore(spec, graph, &alloc, &cost, &expl);
    l.search_ms = ms(t.elapsed());
    let jobs = modref_obs::histogram("explore.job_ns").snapshot();
    l.job_ms_sum = jobs.sum as f64 / 1e6;
    l.job_ms_max = jobs.max as f64 / 1e6;
    l.move_evals = counter("cache.move_evals");
    l.anneal_moves = counter("anneal.moves");
    l.anneal_accepts = counter("anneal.accepts");

    let (hits, misses) = (counter("lifetime.hit"), counter("lifetime.miss"));
    let mut points = Vec::new();
    for cand in &candidates {
        for &model in ImplModel::ALL.iter() {
            let t = Instant::now();
            let table = figure9_rates(spec, graph, &alloc, &cand.partition, model, &cost.lifetime)?;
            l.rates_ms += ms(t.elapsed());
            l.rates_calls += 1.0;
            points.push(DesignPoint {
                algorithm: cand.algorithm,
                seed: cand.seed,
                model,
                cost: cand.cost,
                max_bus_rate: table.max_rate(),
                bus_count: table.bus_count(),
                pareto: false,
                partition: cand.partition.clone(),
            });
        }
    }
    l.lifetime_hits = counter("lifetime.hit") - hits;
    l.lifetime_lookups = l.lifetime_hits + counter("lifetime.miss") - misses;
    rank(&mut points);
    mark_pareto(&mut points);
    let exploration = Exploration { points };

    let config = SimConfig::default();
    let t = Instant::now();
    let original = Simulator::with_config(spec, config).run();
    if let Ok(r) = &original {
        l.add_sim(r, t.elapsed());
    }
    let mut front: Vec<(&'static str, u64, &Partition)> = Vec::new();
    for p in exploration.pareto_front() {
        if !front
            .iter()
            .any(|&(a, s, _)| a == p.algorithm && s == p.seed)
        {
            front.push((p.algorithm, p.seed, &p.partition));
        }
    }
    let mut records = Vec::new();
    for &(algorithm, seed, partition) in &front {
        for &model in ImplModel::ALL.iter() {
            let mut rec = VerifyRecord {
                algorithm,
                seed,
                model,
                equivalent: false,
                detail: String::new(),
                refined_time: 0,
                refined_steps: 0,
                bus_traffic: 0,
            };
            verify_job(&cd, &alloc, partition, &original, &mut rec, &mut l);
            l.jobs += 1.0;
            l.passes += f64::from(u8::from(rec.equivalent));
            records.push(rec);
        }
    }
    let (original_time, original_steps) = original.as_ref().map_or((0, 0), |r| (r.time, r.steps));
    let verification = Verification {
        records,
        original_time,
        original_steps,
    };
    Ok((l, exploration, verification))
}

/// One candidate × model verification job: refine, lint gate, simulate,
/// compare. Mirrors the verdicts and details `Codesign::verify` reports.
fn verify_job(
    cd: &Codesign,
    alloc: &Allocation,
    partition: &Partition,
    original: &Result<SimResult, modref_sim::SimError>,
    rec: &mut VerifyRecord,
    l: &mut Ledger,
) {
    let t = Instant::now();
    let refined = refine(cd.spec(), cd.graph(), alloc, partition, rec.model);
    l.refine_ms += ms(t.elapsed());
    l.refine_calls += 1.0;
    let refined = match refined {
        Ok(r) => r,
        Err(e) => {
            rec.detail = format!("refinement failed: {e}");
            return;
        }
    };
    l.behaviors_out += refined.spec.behavior_count() as f64;
    let t = Instant::now();
    let rejected = static_reject(&cd.lint_refined(&refined));
    l.lint_ms += ms(t.elapsed());
    l.lint_calls += 1.0;
    if let Some(codes) = rejected {
        l.lint_rejects += 1.0;
        rec.detail = format!("static analysis rejected: {codes}");
        return;
    }
    let orig = match original {
        Ok(r) => r,
        Err(e) => {
            rec.detail = format!("original simulation failed: {e}");
            return;
        }
    };
    let t = Instant::now();
    let result = match Simulator::with_config(&refined.spec, SimConfig::default()).run() {
        Ok(r) => r,
        Err(e) => {
            l.sim_ms += ms(t.elapsed());
            rec.detail = format!("refined simulation failed: {e}");
            return;
        }
    };
    l.add_sim(&result, t.elapsed());
    rec.refined_time = result.time;
    rec.refined_steps = result.steps;
    rec.bus_traffic = result.signal_writes.saturating_sub(orig.signal_writes);
    let diffs = orig.diff_common_vars(&result);
    if !diffs.is_empty() {
        rec.detail = format!("vars diverged: {}", diffs.join(", "));
        return;
    }
    rec.equivalent = true;
}

/// The facade's ranking: cost, peak bus rate, model, algorithm, seed.
fn rank(points: &mut [DesignPoint]) {
    points.sort_by(|a, b| {
        a.cost
            .total
            .total_cmp(&b.cost.total)
            .then_with(|| a.max_bus_rate.total_cmp(&b.max_bus_rate))
            .then_with(|| a.model.number().cmp(&b.model.number()))
            .then_with(|| a.algorithm.cmp(b.algorithm))
            .then_with(|| a.seed.cmp(&b.seed))
    });
}

/// The facade's Pareto flags over `(cost.total, max_bus_rate)`.
fn mark_pareto(points: &mut [DesignPoint]) {
    let m: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.cost.total, p.max_bus_rate))
        .collect();
    for (i, p) in points.iter_mut().enumerate() {
        let (ci, ri) = m[i];
        p.pareto = !m
            .iter()
            .enumerate()
            .any(|(j, &(cj, rj))| j != i && cj <= ci && rj <= ri && (cj < ci || rj < ri));
    }
}

/// One traced round over a design: the facade at one thread and the
/// replay (recorder on), then the facade at [`THREADS`] with the
/// recorder on and off.
struct Round {
    ledger: Ledger,
    facade1_ms: f64,
    facade2_on_ms: f64,
    facade2_off_ms: f64,
    explore2_ms: f64,
    verify2_ms: f64,
    parallel_eff: f64,
    passes: f64,
    jobs: f64,
    failed: bool,
}

fn traced_round(d: &Design, report: &mut Report) -> Result<Round, ModrefError> {
    modref_obs::init(modref_obs::ClockMode::Wall);
    let facade1 = facade_flow(d, 1);
    let facade1_trace = modref_obs::shutdown();
    let facade1 = facade1?;

    modref_obs::init(modref_obs::ClockMode::Wall);
    let replayed = replay(d);
    modref_obs::shutdown();
    let (ledger, exploration, verification) = replayed?;
    report.check(exploration == facade1.exploration, || {
        format!("{}: replayed points differ from the facade's", d.name)
    });
    report.check(verification == facade1.verification, || {
        format!(
            "{}: replayed verify records differ from the facade's",
            d.name
        )
    });

    modref_obs::init(modref_obs::ClockMode::Wall);
    let facade2 = facade_flow(d, THREADS);
    let trace2 = modref_obs::shutdown();
    let facade2 = facade2?;
    let search2_ns: u64 = trace2
        .spans_named("explore")
        .iter()
        .map(|e| match e {
            modref_obs::Event::Span { dur_ns, .. } => *dur_ns,
            _ => 0,
        })
        .sum();
    let job_sum2 = trace2
        .events
        .iter()
        .find_map(|e| match e {
            modref_obs::Event::Hist { name, sum, .. } if name == "explore.job_ns" => Some(*sum),
            _ => None,
        })
        .unwrap_or(0);
    let off = facade_flow(d, THREADS)?;

    let passes = facade1_trace.counter("verify.pass").unwrap_or(0) as f64;
    let jobs = passes + facade1_trace.counter("verify.fail").unwrap_or(0) as f64;
    Ok(Round {
        failed: !facade1.verification.all_equivalent(),
        facade1_ms: facade1.total_ms(),
        facade2_on_ms: facade2.total_ms(),
        facade2_off_ms: off.total_ms(),
        explore2_ms: off.explore_ms,
        verify2_ms: off.verify_ms,
        parallel_eff: job_sum2 as f64 / (THREADS as f64 * search2_ns.max(1) as f64),
        passes,
        jobs,
        ledger,
    })
}

/// The traced run: rounds over every design until `args.seconds` pass
/// (at least one), each layer reported as its median per design.
pub fn run_traced(input: Input, args: &Args, report: &mut Report) -> Result<(), String> {
    let (designs, ..) = timed_set_up(input, args.seed).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut failed = 0;
    while rounds.is_empty() || Instant::now() < deadline {
        for d in &designs {
            let round = traced_round(d, report).map_err(|e| format!("{}: {e}", d.name))?;
            failed += usize::from(round.failed);
            rounds.push(round);
        }
    }
    report.count(rounds.len(), failed);
    report.check(failed == 0, || {
        format!("{failed} traced flows had non-equivalent records")
    });

    // Per design, the median over its rounds; then the mean over designs.
    let per_design = |f: &dyn Fn(&Round) -> f64| -> f64 {
        let k = designs.len();
        (0..k)
            .map(|i| {
                let v: Vec<f64> = rounds.iter().skip(i).step_by(k).map(f).collect();
                median(&v).expect("every design ran")
            })
            .sum::<f64>()
            / k as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let l = |f: fn(&Ledger) -> f64| per_design(&|r: &Round| f(&r.ledger));
    let layers = l(Ledger::layers_ms);
    let facade1 = per_design(&|r| r.facade1_ms);
    let sim_ms = l(|x| x.sim_ms);
    let steps = l(|x| x.steps);

    report.metric("fail_ratio", ratio(failed as f64, rounds.len() as f64));
    report.metric("spec.parse_us", l(|x| x.parse_us));
    report.metric("graph.derive_us", l(|x| x.derive_us));
    report.metric("partition.search_ms", l(|x| x.search_ms));
    report.metric("partition.job_ms_sum", l(|x| x.job_ms_sum));
    report.metric("partition.job_ms_max", l(|x| x.job_ms_max));
    report.metric("partition.parallel_eff", per_design(&|r| r.parallel_eff));
    report.metric("partition.move_evals", l(|x| x.move_evals));
    report.metric(
        "partition.anneal_accept_ratio",
        ratio(l(|x| x.anneal_accepts), l(|x| x.anneal_moves)),
    );
    report.metric("rates.eval_ms", l(|x| x.rates_ms));
    report.metric("rates.calls", l(|x| x.rates_calls));
    report.metric(
        "rates.lifetime_hit_ratio",
        ratio(l(|x| x.lifetime_hits), l(|x| x.lifetime_lookups)),
    );
    report.metric("refine.ms", l(|x| x.refine_ms));
    report.metric("refine.calls", l(|x| x.refine_calls));
    report.metric("refine.behaviors_out", l(|x| x.behaviors_out));
    report.metric("lint_gate.ms", l(|x| x.lint_ms));
    report.metric("lint_gate.calls", l(|x| x.lint_calls));
    report.metric(
        "lint_gate.reject_ratio",
        ratio(l(|x| x.lint_rejects), l(|x| x.lint_calls)),
    );
    report.metric("sim.ms", sim_ms);
    report.metric("sim.steps", steps);
    report.metric("sim.ns_per_step", ratio(sim_ms * 1e6, steps));
    report.metric("sim.rounds", l(|x| x.rounds));
    report.metric("sim.wakeups", l(|x| x.wakeups));
    report.metric("sim.cond_evals", l(|x| x.cond_evals));
    report.metric("sim.timer_pops", l(|x| x.timer_pops));
    report.metric("sim.signal_writes", l(|x| x.signal_writes));
    report.metric("verify.jobs", per_design(&|r| r.jobs));
    report.metric(
        "verify.pass_ratio",
        ratio(per_design(&|r| r.passes), per_design(&|r| r.jobs)),
    );
    report.metric("flow.explore_ms", per_design(&|r| r.explore2_ms));
    report.metric("flow.verify_ms", per_design(&|r| r.verify2_ms));
    let off: Vec<f64> = sorted(&rounds.iter().map(|r| r.facade2_off_ms).collect::<Vec<_>>());
    let (tail_pct, tail_ms) = tail(&off).unwrap_or((100.0, off[off.len() - 1]));
    report.metric("flow.tail_ms", tail_ms);
    report.note(format!(
        "flow.tail_ms is p{tail_pct} of {} untraced flows",
        off.len()
    ));
    report.metric("flow.unattributed_ms", facade1 - layers);
    report.metric(
        "flow.parallel_speedup",
        ratio(facade1, per_design(&|r| r.facade2_on_ms)),
    );
    report.metric(
        "obs.overhead_pct",
        100.0
            * (ratio(
                per_design(&|r| r.facade2_on_ms),
                per_design(&|r| r.facade2_off_ms),
            ) - 1.0),
    );
    report.note(format!(
        "traced rounds {} over {} designs; 1-thread facade flow {facade1:.3} ms = layers {layers:.3} ms \
         + unattributed {:.3} ms",
        rounds.len(),
        designs.len(),
        facade1 - layers
    ));
    let share = |name: &str, v: f64| format!("{name} {:.1}%", 100.0 * ratio(v, facade1));
    report.note(format!(
        "layer shares of the 1-thread flow: {}, {}, {}, {}, {}, {}, {}, {}",
        share("parse", l(|x| x.parse_us) / 1e3),
        share("derive", l(|x| x.derive_us) / 1e3),
        share("partition", l(|x| x.search_ms)),
        share("rates", l(|x| x.rates_ms)),
        share("refine", l(|x| x.refine_ms)),
        share("lint_gate", l(|x| x.lint_ms)),
        share("sim", sim_ms),
        share("unattributed", facade1 - layers),
    ));
    Ok(())
}
