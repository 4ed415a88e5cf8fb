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
//! A synthetic scaling row (leaf count doubling from 8 to 64) checks
//! the analysis stays far below simulation cost as designs grow — the
//! gate is only worth running before the simulator if it is orders of
//! magnitude cheaper.

use std::time::Instant;

use modref_bench::harness::Criterion;
use modref_bench::{build_profile, criterion_group, criterion_main, nproc};

use modref_analyze::{analyze_spec, deadlock_lints};
use modref_spec::{SourceMap, Spec};
use modref_workloads::{named_spec, SynthConfig, SynthSpec, WORKLOAD_NAMES};

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
