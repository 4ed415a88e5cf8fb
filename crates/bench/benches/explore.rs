//! Exploration throughput: full-recompute versus incremental move
//! evaluation, end-to-end multi-start exploration, and Figure 9 rate
//! evaluation per candidate.
//!
//! The tentpole claim is that `CostCache` makes single-object move
//! evaluation cheap enough for multi-start search: each trial move costs
//! an O(degree) cut-flag update plus a re-sum of cached tables instead of
//! a full statement-tree walk. This bench measures both paths on the same
//! deterministic move schedule over the medical workload and a larger
//! synthetic design, then times `explore()` itself at one and at many
//! threads — and records everything in `BENCH_explore.json` at the repo
//! root, including the full/incremental speedup the acceptance criteria
//! gate on. The rate row times one candidate's Figure 9 tables under all
//! four models (`figure9_row`) over seeded random partitions. Every
//! point, the 256-behavior synthetic design included, also times
//! `explore()`.

use std::time::Instant;

use modref_bench::harness::Criterion;
use modref_bench::{build_profile, criterion_group, criterion_main, nproc};

use modref_core::figure9_row;
use modref_graph::AccessGraph;
use modref_partition::explore::{explore, ExploreConfig};
use modref_partition::{partition_cost, Allocation, CostCache, CostConfig, Partition};
use modref_rng::Rng;
use modref_spec::Spec;
use modref_workloads::{
    medical_allocation, medical_partition, medical_spec, Design, SynthConfig, SynthSpec,
};

/// One workload's measurements.
struct Record {
    name: &'static str,
    behaviors: usize,
    leaves: usize,
    evals: u64,
    full_ns_per_eval: f64,
    incremental_ns_per_eval: f64,
    speedup: f64,
    data_channels: usize,
    rate_partitions: usize,
    rate_ms_per_candidate: f64,
    explore: Option<ExploreTiming>,
}

/// End-to-end `explore()` at one and at many threads.
struct ExploreTiming {
    candidates: usize,
    secs_serial: f64,
    secs_parallel: f64,
    threads: usize,
}

/// `n` partitions drawn uniformly at random: every leaf and variable
/// on a seeded random component.
fn random_partitions(spec: &Spec, alloc: &Allocation, n: usize) -> Vec<Partition> {
    let ids = alloc.ids();
    let mut rng = Rng::seed_from_u64(7);
    (0..n)
        .map(|_| {
            let mut part = Partition::with_default(ids[0]);
            for leaf in spec.leaves() {
                part.assign_behavior(leaf, ids[rng.gen_range(0..ids.len())]);
            }
            for (v, _) in spec.variables() {
                part.assign_var(v, ids[rng.gen_range(0..ids.len())]);
            }
            part
        })
        .collect()
}

/// Milliseconds per candidate to evaluate its Figure 9 tables under all
/// four models, over `parts`, repeated for at least 50 ms.
fn time_rates(spec: &Spec, graph: &AccessGraph, alloc: &Allocation, parts: &[Partition]) -> f64 {
    let config = CostConfig::default().lifetime;
    let row = |part: &Partition| figure9_row(spec, graph, alloc, part, &config).expect("rates");
    for part in parts {
        row(part);
    }
    let (mut evals, start) = (0usize, Instant::now());
    while evals == 0 || start.elapsed().as_secs_f64() < 0.05 {
        for part in parts {
            assert!(row(part).iter().all(|t| t.bus_count() > 0));
        }
        evals += parts.len();
    }
    start.elapsed().as_secs_f64() * 1e3 / evals as f64
}

/// Times `evals` move evaluations via full `partition_cost` recompute:
/// assign the object, recompute, assign it back — the pre-cache idiom.
fn time_full(
    spec: &Spec,
    graph: &AccessGraph,
    alloc: &Allocation,
    part: &Partition,
    config: &CostConfig,
    evals: u64,
) -> f64 {
    let leaves = spec.leaves();
    let ids = alloc.ids();
    let mut part = part.clone();
    let mut acc = 0.0;
    let start = Instant::now();
    for i in 0..evals {
        let leaf = leaves[(i as usize) % leaves.len()];
        let to = ids[(i as usize) % ids.len()];
        let back = part
            .component_of_behavior(spec, leaf)
            .expect("complete partition");
        part.assign_behavior(leaf, to);
        acc += partition_cost(spec, graph, alloc, &part, config).total;
        part.assign_behavior(leaf, back);
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / evals as f64;
    assert!(acc.is_finite());
    ns
}

/// Times the same move schedule through the incremental cache.
fn time_incremental(
    spec: &Spec,
    graph: &AccessGraph,
    alloc: &Allocation,
    part: &Partition,
    config: &CostConfig,
    evals: u64,
) -> f64 {
    let mut cache = CostCache::new(spec, graph, alloc, part, config);
    let leaves = cache.leaves().to_vec();
    let ids = alloc.ids();
    let mut acc = 0.0;
    let start = Instant::now();
    for i in 0..evals {
        let leaf = leaves[(i as usize) % leaves.len()];
        let to = ids[(i as usize) % ids.len()];
        let back = cache.component_of_leaf(leaf);
        acc += cache.move_leaf(leaf, to);
        cache.move_leaf(leaf, back);
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / evals as f64;
    assert!(acc.is_finite());
    ns
}

fn measure(
    name: &'static str,
    spec: &Spec,
    graph: &AccessGraph,
    alloc: &Allocation,
    part: &Partition,
    evals: u64,
    with_explore: bool,
) -> Record {
    let config = CostConfig::default();
    // Warm both paths once so allocation noise stays out of the timing.
    time_full(spec, graph, alloc, part, &config, evals / 10 + 1);
    time_incremental(spec, graph, alloc, part, &config, evals / 10 + 1);
    let full = time_full(spec, graph, alloc, part, &config, evals);
    let incremental = time_incremental(spec, graph, alloc, part, &config, evals);
    let parts = random_partitions(spec, alloc, 8);
    let rate_ms_per_candidate = time_rates(spec, graph, alloc, &parts);

    Record {
        name,
        behaviors: spec.behavior_count(),
        leaves: spec.leaves().len(),
        evals,
        full_ns_per_eval: full,
        incremental_ns_per_eval: incremental,
        speedup: full / incremental,
        data_channels: graph.data_channel_count(),
        rate_partitions: parts.len(),
        rate_ms_per_candidate,
        explore: with_explore.then(|| time_explore(spec, graph, alloc, &config)),
    }
}

fn time_explore(
    spec: &Spec,
    graph: &AccessGraph,
    alloc: &Allocation,
    config: &CostConfig,
) -> ExploreTiming {
    let expl = ExploreConfig {
        seeds: 4,
        anneal_iterations: 300,
        migration_passes: 6,
        threads: Some(1),
    };
    let start = Instant::now();
    let serial = explore(spec, graph, alloc, config, &expl);
    let secs_serial = start.elapsed().as_secs_f64();
    let threads = nproc();
    let start = Instant::now();
    let parallel = explore(
        spec,
        graph,
        alloc,
        config,
        &ExploreConfig {
            threads: Some(threads),
            ..expl
        },
    );
    let secs_parallel = start.elapsed().as_secs_f64();
    assert_eq!(
        serial, parallel,
        "exploration must be thread-count invariant"
    );
    ExploreTiming {
        candidates: serial.len(),
        secs_serial,
        secs_parallel,
        threads,
    }
}

fn json(records: &[Record]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"explore\",\n  \"nproc\": {},\n  \"profile\": \"{}\",\n  \"workloads\": [\n",
        nproc(),
        build_profile()
    );
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"behaviors\": {},\n      \"leaves\": {},\n      \"move_evals\": {},\n      \"full_ns_per_eval\": {:.1},\n      \"incremental_ns_per_eval\": {:.1},\n      \"speedup\": {:.2},\n      \"data_channels\": {},\n      \"rate_partitions\": {},\n      \"rate_ms_per_candidate\": {:.4}",
            r.name,
            r.behaviors,
            r.leaves,
            r.evals,
            r.full_ns_per_eval,
            r.incremental_ns_per_eval,
            r.speedup,
            r.data_channels,
            r.rate_partitions,
            r.rate_ms_per_candidate,
        ));
        if let Some(e) = &r.explore {
            out.push_str(&format!(
                ",\n      \"explore_candidates\": {},\n      \"explore_secs_serial\": {:.4},\n      \"explore_secs_parallel\": {:.4},\n      \"explore_threads\": {},\n      \"explore_candidates_per_sec\": {:.1}",
                e.candidates,
                e.secs_serial,
                e.secs_parallel,
                e.threads,
                e.candidates as f64 / e.secs_parallel.max(1e-9),
            ));
        }
        out.push_str(&format!(
            "\n    }}{}\n",
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn bench_explore(c: &mut Criterion) {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let med_part = medical_partition(&spec, &alloc, Design::Design1);

    let synth_cfg = SynthConfig {
        leaves: 24,
        vars: 16,
        stmts_per_leaf: 6,
        fanout: 4,
        loop_percent: 30,
    };
    let synth = SynthSpec::generate(11, &synth_cfg);
    let synth_graph = synth.graph();
    let synth_part = Partition::with_default(alloc.ids()[0]);

    // The harness-timed view (respects MODREF_BENCH_MS).
    let config = CostConfig::default();
    let mut group = c.benchmark_group("move_eval_medical");
    group.bench_function("full_recompute", |b| {
        b.iter(|| time_full(&spec, &graph, &alloc, &med_part, &config, 32))
    });
    group.bench_function("incremental", |b| {
        b.iter(|| time_incremental(&spec, &graph, &alloc, &med_part, &config, 32))
    });
    group.finish();

    // The 256-behavior point, where rate evaluation used to redo
    // O(spec) work per model and clustering rescanned every cluster pair
    // per merge.
    let synth256 = SynthSpec::generate(
        11,
        &SynthConfig {
            leaves: 192,
            vars: 128,
            stmts_per_leaf: 6,
            fanout: 4,
            loop_percent: 30,
        },
    );
    let synth256_graph = synth256.graph();

    // The recorded comparison the acceptance criteria read.
    let records = vec![
        measure("medical", &spec, &graph, &alloc, &med_part, 4000, true),
        measure(
            "synth24",
            &synth.spec,
            &synth_graph,
            &alloc,
            &synth_part,
            2000,
            true,
        ),
        measure(
            "synth256",
            &synth256.spec,
            &synth256_graph,
            &alloc,
            &synth_part,
            200,
            true,
        ),
    ];
    for r in &records {
        eprintln!(
            "{:<8} {:>3} behaviors: full {:>10.0} ns/eval, incremental {:>8.0} ns/eval — {:>5.1}x; \
             rates {:.4} ms/candidate (4 models)",
            r.name,
            r.behaviors,
            r.full_ns_per_eval,
            r.incremental_ns_per_eval,
            r.speedup,
            r.rate_ms_per_candidate,
        );
        if let Some(e) = &r.explore {
            eprintln!(
                "         explore {} candidates in {:.3}s serial / {:.3}s on {} threads",
                e.candidates, e.secs_serial, e.secs_parallel, e.threads,
            );
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    std::fs::write(path, json(&records)).expect("write BENCH_explore.json");
    eprintln!("wrote {path}");
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
