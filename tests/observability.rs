//! Observability integration: a traced exploration of the medical system
//! emits well-formed JSONL with non-trivial cache-hit counters, and —
//! the determinism guard — aggregated metrics are identical whether the
//! exploration ran on one thread or many.

use std::sync::{Mutex, MutexGuard, PoisonError};

use modref::core::api::{Codesign, ExploreOpts, VerifyOpts};
use modref::obs::{self, ClockMode, Event};
use modref::workloads::medical_spec;

/// The recorder is process-global; tests that flip it must not overlap.
static RECORDER: Mutex<()> = Mutex::new(());

fn hold() -> MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn explore_medical(seeds: u64, threads: usize) {
    let cd = Codesign::from_spec(medical_spec());
    let result = cd
        .explore(&ExploreOpts::new().with_seeds(seeds).with_threads(threads))
        .expect("exploration succeeds");
    assert!(!result.points.is_empty());
}

fn counter_value(trace: &obs::Trace, name: &str) -> u64 {
    trace
        .events
        .iter()
        .find_map(|e| match e {
            Event::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or_else(|| panic!("counter `{name}` missing from trace"))
}

#[test]
fn traced_explore_emits_wellformed_jsonl_with_cache_hits() {
    let _l = hold();
    obs::init(ClockMode::Wall);
    explore_medical(2, 2);
    let trace = obs::shutdown();

    // The JSONL sink round-trips the whole trace exactly.
    let text = obs::jsonl::write(&trace);
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    let back = obs::jsonl::parse(&text).expect("trace parses back");
    assert_eq!(trace.events, back.events);

    // Span structure: one explore root with per-seed job children under it.
    let explore_id = trace
        .events
        .iter()
        .find_map(|e| match e {
            Event::Span { name, id, .. } if name == "explore" => Some(*id),
            _ => None,
        })
        .expect("explore span recorded");
    let jobs = trace
        .events
        .iter()
        .filter(|e| {
            matches!(e, Event::Span { name, parent, .. }
                if name == "explore.job" && *parent == explore_id)
        })
        .count();
    assert!(jobs >= 5, "expected >=5 explore jobs, saw {jobs}");

    // The warm lifetime table makes cache hits real work saved, not an
    // artifact: every job starts from the pre-computed leaf lifetimes.
    let hits = counter_value(&trace, "lifetime.hit");
    let misses = counter_value(&trace, "lifetime.miss");
    assert!(hits > 0, "expected non-zero lifetime cache hits");
    assert!(misses > 0, "warm-up itself must count misses");
    assert!(counter_value(&trace, "cache.move_evals") > 0);
    assert!(counter_value(&trace, "anneal.moves") > 0);

    // The report renderer accepts the trace and summarizes it.
    let rendered = obs::report::render(&trace);
    assert!(rendered.contains("explore"), "{rendered}");
    assert!(rendered.contains("lifetime.hit"), "{rendered}");
}

/// Verification traces its static gate: every `verify.job` span holds
/// exactly one `lint_gate` span, so a report can set the gate's self time
/// beside `refine` and `sim.run`.
#[test]
fn traced_verify_has_one_lint_gate_span_per_job() {
    let _l = hold();
    obs::init(ClockMode::Wall);
    let cd = Codesign::from_spec(medical_spec());
    let exploration = cd
        .explore(&ExploreOpts::new().with_seeds(1))
        .expect("exploration succeeds");
    cd.verify(&exploration, &VerifyOpts::new())
        .expect("verification runs");
    let trace = obs::shutdown();

    let spans = |wanted: &str| -> Vec<(u64, u64)> {
        trace
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Span {
                    name, id, parent, ..
                } if name == wanted => Some((*id, *parent)),
                _ => None,
            })
            .collect()
    };
    let jobs = spans("verify.job");
    let gates = spans("lint_gate");
    assert!(!jobs.is_empty(), "verification ran no jobs");
    assert_eq!(gates.len(), jobs.len(), "one gate per job");
    for (job, _) in &jobs {
        let under = gates.iter().filter(|&&(_, parent)| parent == *job).count();
        assert_eq!(under, 1, "verify.job {job} holds {under} lint_gate spans");
    }
    let rendered = obs::report::render(&trace);
    assert!(rendered.contains("lint_gate"), "{rendered}");
}

/// Determinism guard: under the logical clock, the aggregated metrics of
/// a 1-thread and a 4-thread exploration are bit-identical — counters
/// commute, durations are zero, and ids never leak into aggregation.
#[test]
fn aggregated_metrics_identical_across_thread_counts() {
    let _l = hold();

    let metrics_of = |threads: usize| {
        obs::init(ClockMode::Logical);
        explore_medical(2, threads);
        let trace = obs::shutdown();
        trace
            .events
            .into_iter()
            .filter(|e| match e {
                Event::Counter { .. } | Event::Hist { .. } => true,
                // The thread-count gauge *should* differ between runs;
                // every other gauge must match.
                Event::Gauge { name, .. } => name != "explore.threads",
                _ => false,
            })
            .collect::<Vec<_>>()
    };

    let single = metrics_of(1);
    let multi = metrics_of(4);
    assert!(
        single
            .iter()
            .any(|e| matches!(e, Event::Counter { name, value }
            if name == "lifetime.hit" && *value > 0)),
        "sanity: the runs did real work"
    );
    assert_eq!(
        single, multi,
        "aggregated metrics must not depend on thread count"
    );
}
