//! Verification runs each distinct Pareto-front partition once per model
//! and copies its outcome to every front candidate with that partition.
//! This suite checks that `Codesign::verify` equals a reference loop that
//! verifies every `(algorithm, seed)` candidate × model separately, built
//! from the public `refine` / `lint_refined` / `static_reject` /
//! `Simulator` calls, and that the counters and progress events still
//! count records while `verify.sims` counts the jobs run.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use modref::core::api::{Codesign, ExploreOpts, ProgressFn, VerifyOpts};
use modref::core::{
    check_stuttering_refinement, refine, static_reject, DesignPoint, Exploration, ImplModel,
    Verification, VerifyRecord,
};
use modref::obs::{self, ClockMode};
use modref::partition::{Allocation, CostReport, Partition};
use modref::sim::{SimConfig, SimError, SimResult, Simulator};
use modref::workloads::{
    medical_partition, named_partition, named_spec, Design, SynthConfig, SynthSpec,
};

/// The recorder and its counters are process-wide: one test at a time.
fn hold() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `flow_synth64` design shape.
const SYNTH64: SynthConfig = SynthConfig {
    leaves: 64,
    vars: 64,
    stmts_per_leaf: 6,
    fanout: 3,
    loop_percent: 30,
};

/// One verification case: a session, the partition text its allocation
/// comes from (the default PROC+ASIC allocation when `None`) and the
/// exploration whose front is verified.
struct Case {
    name: String,
    cd: Codesign,
    part: Option<String>,
    exploration: Exploration,
}

impl Case {
    fn explored(name: String, cd: Codesign, part: Option<String>) -> Self {
        let mut opts = ExploreOpts::new().with_threads(2);
        if let Some(text) = &part {
            opts = opts.with_part(text.clone());
        }
        let exploration = cd.explore(&opts).expect("exploration succeeds");
        Self {
            name,
            cd,
            part,
            exploration,
        }
    }

    fn allocation(&self) -> Allocation {
        match &self.part {
            Some(text) => self.cd.partition(text).expect("partition parses").0,
            None => Allocation::proc_plus_asic(),
        }
    }

    fn opts(&self, threads: usize, check_traces: bool) -> VerifyOpts {
        let opts = VerifyOpts::new()
            .with_threads(threads)
            .with_check_traces(check_traces);
        match &self.part {
            Some(text) => opts.with_part(text.clone()),
            None => opts,
        }
    }
}

/// Front candidates in rank order, one per `(algorithm, seed)`.
fn front(exploration: &Exploration) -> Vec<&DesignPoint> {
    let mut out: Vec<&DesignPoint> = Vec::new();
    for p in exploration.pareto_front() {
        if !out
            .iter()
            .any(|q| q.algorithm == p.algorithm && q.seed == p.seed)
        {
            out.push(p);
        }
    }
    out
}

/// The number of distinct partitions among the front candidates.
fn distinct_partitions(exploration: &Exploration) -> usize {
    let mut seen: Vec<&Partition> = Vec::new();
    for p in front(exploration) {
        if !seen.contains(&&p.partition) {
            seen.push(&p.partition);
        }
    }
    seen.len()
}

/// Verifies every front candidate × model separately, with the verdicts
/// and details `Codesign::verify` reports.
fn reference(case: &Case, check_traces: bool) -> Verification {
    let config = SimConfig {
        trace: check_traces,
        ..SimConfig::default()
    };
    let alloc = case.allocation();
    let original = Simulator::with_config(case.cd.spec(), config).run();
    let mut records = Vec::new();
    for p in front(&case.exploration) {
        for model in ImplModel::ALL {
            let mut rec = VerifyRecord {
                algorithm: p.algorithm,
                seed: p.seed,
                model,
                equivalent: false,
                detail: String::new(),
                refined_time: 0,
                refined_steps: 0,
                bus_traffic: 0,
            };
            verify_one(case, &alloc, &p.partition, &original, config, &mut rec);
            records.push(rec);
        }
    }
    let (original_time, original_steps) = original.as_ref().map_or((0, 0), |r| (r.time, r.steps));
    Verification {
        records,
        original_time,
        original_steps,
    }
}

fn verify_one(
    case: &Case,
    alloc: &Allocation,
    partition: &Partition,
    original: &Result<SimResult, SimError>,
    config: SimConfig,
    rec: &mut VerifyRecord,
) {
    let cd = &case.cd;
    let refined = match refine(cd.spec(), cd.graph(), alloc, partition, rec.model) {
        Ok(r) => r,
        Err(e) => {
            rec.detail = format!("refinement failed: {e}");
            return;
        }
    };
    if let Some(codes) = static_reject(&cd.lint_refined(&refined)) {
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
    let result = match Simulator::with_config(&refined.spec, config).run() {
        Ok(r) => r,
        Err(e) => {
            rec.detail = format!("refined simulation failed: {e}");
            return;
        }
    };
    rec.refined_time = result.time;
    rec.refined_steps = result.steps;
    rec.bus_traffic = result.signal_writes.saturating_sub(orig.signal_writes);
    let diffs = orig.diff_common_vars(&result);
    if !diffs.is_empty() {
        rec.detail = format!("vars diverged: {}", diffs.join(", "));
        return;
    }
    if let (Some(ot), Some(rt)) = (&orig.trace, &result.trace) {
        if let Err(m) =
            check_stuttering_refinement(cd.spec(), ot, &refined.spec, rt, cd.source_map())
        {
            rec.detail = m.to_string();
            return;
        }
    }
    rec.equivalent = true;
}

/// What one facade verification reported besides its records.
struct Observed {
    verification: Verification,
    /// `(done, total)` of every `verify.job` progress event.
    progress: Vec<(u64, u64)>,
    pass: u64,
    fail: u64,
    sims: u64,
}

fn observe(case: &Case, threads: usize, check_traces: bool) -> Observed {
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = events.clone();
    let opts = case
        .opts(threads, check_traces)
        .with_progress(ProgressFn::new(move |p| {
            if p.phase == "verify.job" {
                sink.lock().unwrap().push((p.done, p.total));
            }
        }));
    obs::init(ClockMode::Logical);
    let verification = case.cd.verify(&case.exploration, &opts);
    let trace = obs::shutdown();
    let verification = verification.expect("verification runs");
    let mut progress = events.lock().unwrap().clone();
    progress.sort_unstable();
    let counter = |name: &str| trace.counter(name).unwrap_or(0);
    Observed {
        verification,
        progress,
        pass: counter("verify.pass"),
        fail: counter("verify.fail"),
        sims: counter("verify.sims"),
    }
}

/// Checks one case against the reference at 1 and 2 threads, with the
/// trace check off and on.
fn assert_matches_reference(case: &Case) {
    let records = front(&case.exploration).len() as u64 * 4;
    let sims = distinct_partitions(&case.exploration) as u64 * 4;
    for check_traces in [false, true] {
        let want = reference(case, check_traces);
        for threads in [1, 2] {
            let what = format!("{} (threads {threads}, traces {check_traces})", case.name);
            let got = observe(case, threads, check_traces);
            assert_eq!(got.verification, want, "{what}: records differ");
            assert_eq!(got.pass + got.fail, records, "{what}: pass + fail");
            assert_eq!(got.sims, sims, "{what}: verify.sims");
            let expected: Vec<(u64, u64)> = (1..=records).map(|d| (d, records)).collect();
            assert_eq!(got.progress, expected, "{what}: progress events");
        }
    }
}

#[test]
fn verify_equals_per_candidate_reference_on_shipped_workloads() {
    let _l = hold();
    for name in ["medical", "fig2", "dsp"] {
        let cd = Codesign::from_spec(named_spec(name).expect("shipped workload"));
        let part = named_partition(name).expect("published partition");
        assert_matches_reference(&Case::explored(name.into(), cd, Some(part)));
    }
}

#[test]
fn verify_equals_per_candidate_reference_on_synth64_designs() {
    let _l = hold();
    for seed in [0, 1, 2] {
        let cd = Codesign::from_spec(SynthSpec::generate(seed, &SYNTH64).spec);
        let case = Case::explored(format!("synth64 seed {seed}"), cd, None);
        // Several algorithms return the same partition on every design;
        // seed 0's front holds two distinct partitions.
        assert!(
            distinct_partitions(&case.exploration) < front(&case.exploration).len(),
            "{}: no shared partition on the front",
            case.name
        );
        if seed == 0 {
            assert_eq!(distinct_partitions(&case.exploration), 2);
        }
        assert_matches_reference(&case);
    }
}

/// A hand-built front over the medical system: one point per
/// `(algorithm, seed, partition)`, all Pareto-optimal.
fn hand_built(points: &[(&'static str, u64, &Partition)]) -> Exploration {
    let points = points
        .iter()
        .map(|&(algorithm, seed, partition)| DesignPoint {
            algorithm,
            seed,
            model: ImplModel::Model1,
            cost: CostReport {
                cut_bits: 0.0,
                imbalance_ns: 0.0,
                violation: 0.0,
                total: 0.0,
            },
            max_bus_rate: 0.0,
            bus_count: 1,
            pareto: true,
            partition: partition.clone(),
        })
        .collect();
    Exploration { points }
}

#[test]
fn shared_partitions_run_once_and_distinct_ones_each() {
    let _l = hold();
    let cd = || Codesign::from_spec(named_spec("medical").expect("shipped workload"));
    let part = named_partition("medical").expect("published partition");
    let (alloc, design1) = cd().partition(&part).expect("partition parses");
    let design2 = medical_partition(cd().spec(), &alloc, Design::ALL[1]);
    assert_ne!(design1, design2);

    // Two identities share design1; the first also appears under a
    // second model, which adds no candidate.
    let shared = hand_built(&[("a", 0, &design1), ("a", 0, &design1), ("b", 7, &design1)]);
    let differ = hand_built(&[("a", 0, &design1), ("b", 7, &design2)]);
    for (name, exploration, sims) in [("shared", shared, 4), ("differ", differ, 8)] {
        let case = Case {
            name: name.into(),
            cd: cd(),
            part: Some(part.clone()),
            exploration,
        };
        assert_eq!(front(&case.exploration).len(), 2);
        assert_eq!(distinct_partitions(&case.exploration) as u64 * 4, sims);
        assert_matches_reference(&case);
        let got = observe(&case, 2, false);
        assert_eq!(got.sims, sims, "{name}");
        assert_eq!(got.progress.len(), 8, "{name}");
        assert_eq!(got.progress.last(), Some(&(8, 8)), "{name}");
        // Each candidate's records carry its own identity.
        let ids: Vec<(&str, u64)> = got
            .verification
            .records
            .iter()
            .map(|r| (r.algorithm, r.seed))
            .collect();
        assert_eq!(ids, [[("a", 0); 4], [("b", 7); 4]].concat(), "{name}");
    }
}
