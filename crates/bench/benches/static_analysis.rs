//! Cost of the static analysis pipeline — the price `modref lint` and
//! the `explore --verify` static gate pay per specification.
//!
//! Two figures per workload, recorded to `BENCH_static_analysis.json`:
//!
//! * **analyze_ns** — the full `analyze_spec` battery (structural,
//!   dataflow, race and deadlock families, sorted and deduplicated);
//! * **deadlock_ns** — the `DL01`–`DL05` deadlock/liveness analysis
//!   alone (interval fixpoint + wait-dependency greatest fixpoint),
//!   the part the verify gate added.
//!
//! A synthetic scaling row (leaf count doubling from 8 to 64) covers
//! original specifications as they grow.
//!
//! The verify gate lints *refined* candidates, which are far larger
//! than the specs they come from, so the refined rows time
//! `deadlock_lints` alone on what the gate actually sees: the medical
//! Design1 partition under Models 1–4, and all-processor `SynthSpec`
//! designs (generation seed 0, the `flow_synth64` shape) under Model1
//! at 64, 256 and 512 leaves. Each refined row records the median of
//! many single calls, since single reads on a shared host vary widely.

use std::time::Instant;

use modref_bench::harness::Criterion;
use modref_bench::{build_profile, criterion_group, criterion_main, nproc};

use modref_analyze::{analyze_spec, deadlock_lints};
use modref_core::{refine, ImplModel};
use modref_graph::AccessGraph;
use modref_partition::{Allocation, Partition};
use modref_spec::{SourceMap, Spec};
use modref_workloads::{
    medical_allocation, medical_partition, medical_spec, named_spec, Design, SynthConfig,
    SynthSpec, WORKLOAD_NAMES,
};

/// Mean ns/iteration of `f` over `iters` calls.
fn time_ns<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Best mean over several batches — noise only adds time.
fn best_time_ns<R>(batches: u32, iters: u64, mut f: impl FnMut() -> R) -> f64 {
    (0..batches)
        .map(|_| time_ns(iters, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Median ns of `reps` single calls of `f`.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}

struct RefinedRow {
    name: String,
    behaviors: usize,
    reps: usize,
    deadlock_median_ns: f64,
}

fn measure_refined(name: &str, spec: &Spec, reps: usize) -> RefinedRow {
    deadlock_lints(spec, None); // warm up off the clock
    RefinedRow {
        name: name.to_string(),
        behaviors: spec.behaviors().count(),
        reps,
        deadlock_median_ns: median_ns(reps, || deadlock_lints(spec, None)),
    }
}

/// The medical Design1 partition refined to `model`.
fn medical_refined(model: ImplModel) -> Spec {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);
    refine(&spec, &graph, &alloc, &part, model)
        .expect("medical refines")
        .spec
}

/// An all-processor `SynthSpec` of `leaves` leaves (generation seed 0,
/// as many variables, 6 statements per leaf, fanout 3, 30% loops)
/// refined to Model1.
fn synth_model1(leaves: usize) -> Spec {
    let config = SynthConfig {
        leaves,
        vars: leaves,
        stmts_per_leaf: 6,
        fanout: 3,
        loop_percent: 30,
    };
    let synth = SynthSpec::generate(0, &config);
    let alloc = Allocation::proc_plus_asic();
    let part = Partition::with_default(alloc.ids()[0]);
    refine(
        &synth.spec,
        &synth.graph(),
        &alloc,
        &part,
        ImplModel::Model1,
    )
    .expect("synthetic design refines")
    .spec
}

struct Row {
    name: String,
    behaviors: usize,
    analyze_ns: f64,
    deadlock_ns: f64,
}

fn measure(name: &str, spec: &Spec) -> Row {
    let map = SourceMap::new();
    let (batches, iters) = (5, 32);
    analyze_spec(spec, &map); // warm up off the clock
    Row {
        name: name.to_string(),
        behaviors: spec.behaviors().count(),
        analyze_ns: best_time_ns(batches, iters, || analyze_spec(spec, &map)),
        deadlock_ns: best_time_ns(batches, iters, || deadlock_lints(spec, None)),
    }
}

fn bench_static_analysis(c: &mut Criterion) {
    // Harness-timed view (respects MODREF_BENCH_MS) over the shipped
    // workloads.
    let mut group = c.benchmark_group("static_analysis");
    for name in WORKLOAD_NAMES {
        let spec = named_spec(name).expect("known workload");
        let map = SourceMap::new();
        group.bench_function(format!("analyze/{name}"), |b| {
            b.iter(|| analyze_spec(&spec, &map))
        });
        group.bench_function(format!("deadlock/{name}"), |b| {
            b.iter(|| deadlock_lints(&spec, None))
        });
    }
    group.finish();

    // The recorded comparison: fixed schedule, best-of-batches.
    let mut rows: Vec<Row> = WORKLOAD_NAMES
        .iter()
        .map(|name| measure(name, &named_spec(name).expect("known workload")))
        .collect();
    for leaves in [8usize, 16, 32, 64] {
        let config = SynthConfig {
            leaves,
            vars: leaves,
            stmts_per_leaf: 6,
            fanout: 3,
            loop_percent: 30,
        };
        let spec = SynthSpec::generate(0xbeef, &config).spec;
        rows.push(measure(&format!("synth{leaves}"), &spec));
    }

    let mut refined: Vec<RefinedRow> = ImplModel::ALL
        .iter()
        .map(|&model| {
            let name = format!("medical_{}", model.name().to_lowercase());
            measure_refined(&name, &medical_refined(model), 101)
        })
        .collect();
    for (leaves, reps) in [(64usize, 51usize), (256, 21), (512, 11)] {
        let name = format!("synth{leaves}_model1");
        refined.push(measure_refined(&name, &synth_model1(leaves), reps));
    }

    let mut json = format!(
        "{{\n  \"bench\": \"static_analysis\",\n  \"nproc\": {},\n  \"profile\": \"{}\",\n  \"rows\": [\n",
        nproc(),
        build_profile()
    );
    for (i, row) in rows.iter().enumerate() {
        eprintln!(
            "{:>10}: {:>3} behaviors, analyze {:>9.1} ns, deadlock family {:>9.1} ns",
            row.name, row.behaviors, row.analyze_ns, row.deadlock_ns
        );
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"behaviors\": {}, \"analyze_ns\": {:.1}, \"deadlock_ns\": {:.1}}}{}\n",
            row.name,
            row.behaviors,
            row.analyze_ns,
            row.deadlock_ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"refined_rows\": [\n");
    for (i, row) in refined.iter().enumerate() {
        eprintln!(
            "{:>20}: {:>4} behaviors, deadlock family {:>11.1} ns (median of {})",
            row.name, row.behaviors, row.deadlock_median_ns, row.reps
        );
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"behaviors\": {}, \"reps\": {}, \"deadlock_median_ns\": {:.1}}}{}\n",
            row.name,
            row.behaviors,
            row.reps,
            row.deadlock_median_ns,
            if i + 1 < refined.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_static_analysis.json"
    );
    std::fs::write(path, json).expect("write BENCH_static_analysis.json");
    eprintln!("wrote {path}");
}

criterion_group!(benches, bench_static_analysis);
criterion_main!(benches);
