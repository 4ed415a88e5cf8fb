//! Exploration determinism: the ranked design points are identical across
//! repeated runs and across every way of choosing the thread count —
//! explicit config, the `MODREF_THREADS` environment override, and the
//! machine default. Runs through the [`Codesign`]
//! facade, the entry point the CLI and `modref serve` share.
//!
//! This lives in its own integration-test binary (its own process) so the
//! environment-variable manipulation cannot race other tests; the single
//! `#[test]` keeps the env mutations sequential within the process too.

use modref_core::api::{Codesign, ExploreOpts, VerifyOpts};
use modref_workloads::medical_spec;

#[test]
fn ranked_results_are_identical_across_runs_and_thread_counts() {
    let cd = Codesign::from_spec(medical_spec());
    let opts = |threads: Option<usize>| {
        let mut o = ExploreOpts::new()
            .with_seeds(2)
            .with_anneal_iterations(120)
            .with_migration_passes(3);
        if let Some(t) = threads {
            o = o.with_threads(t);
        }
        o
    };

    // Two identical runs agree point-for-point.
    let first = cd.explore(&opts(None)).expect("run 1");
    let second = cd.explore(&opts(None)).expect("run 2");
    assert_eq!(first, second, "repeat runs must be identical");

    // Explicit thread counts, serial through oversubscribed.
    for threads in [1, 2, 5, 16] {
        let run = cd
            .explore(&opts(Some(threads)))
            .unwrap_or_else(|e| panic!("{threads}-thread run: {e}"));
        assert_eq!(first, run, "results differ at {threads} threads");
    }

    // The MODREF_THREADS override versus the unconstrained default.
    std::env::set_var("MODREF_THREADS", "3");
    assert_eq!(modref_partition::thread_count(None), 3);
    let overridden = cd.explore(&opts(None)).expect("override run");
    std::env::remove_var("MODREF_THREADS");
    assert_eq!(first, overridden, "MODREF_THREADS=3 changed the results");

    // Sanity: the ranking is a total order over the evaluated points.
    for w in first.points.windows(2) {
        assert!(
            (w[0].cost.total, w[0].max_bus_rate) <= (w[1].cost.total, w[1].max_bus_rate),
            "points out of order"
        );
    }

    // The `--verify` stage is deterministic too: the simulation-backed
    // verdict set for the Pareto front is identical for 1 thread and any
    // oversubscribed count, and under the env-var knobs. `Verification`
    // derives `Eq` over exact fields only (no floats), so equality here
    // really is byte-for-byte.
    let verified_single = cd
        .verify(&first, &VerifyOpts::new().with_threads(1))
        .expect("verify 1 thread");
    assert!(
        !verified_single.records.is_empty(),
        "front must produce verification records"
    );
    assert!(
        verified_single.all_equivalent(),
        "medical front refinements must verify: {:?}",
        verified_single.records
    );
    for threads in [2, 5, 16] {
        let run = cd
            .verify(&first, &VerifyOpts::new().with_threads(threads))
            .expect("verify");
        assert_eq!(
            verified_single, run,
            "verification differs at {threads} threads"
        );
    }
    std::env::set_var("MODREF_THREADS", "4");
    let enved = cd.verify(&first, &VerifyOpts::new()).expect("verify env");
    std::env::remove_var("MODREF_THREADS");
    assert_eq!(
        verified_single, enved,
        "MODREF_THREADS=4 changed the verification"
    );
}
