//! Ablation: architecture-related refinement overheads, measured on the
//! simulator. Arbitration and the Model4 interface chain cost handshake
//! steps per access; this bench quantifies the simulated micro-step
//! overhead each implementation model pays for the same workload — the
//! communication-cost dimension the paper's Section 5 weighs against bus
//! counts.

use modref_bench::harness::{BenchmarkId, Criterion};
use modref_bench::{criterion_group, criterion_main};

use modref_core::{refine, ImplModel};
use modref_graph::AccessGraph;
use modref_sim::Simulator;
use modref_workloads::{medical_allocation, medical_partition, medical_spec, Design};

fn bench_model_overheads(c: &mut Criterion) {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);

    // Baseline: the unrefined functional model.
    c.bench_function("simulate/original", |b| {
        b.iter(|| Simulator::new(&spec).run().expect("completes"))
    });

    let mut group = c.benchmark_group("simulate_refined");
    for model in ImplModel::ALL {
        let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
        let steps = Simulator::new(&refined.spec)
            .run()
            .expect("completes")
            .steps;
        eprintln!("{model}: {steps} simulated micro-steps");
        group.bench_with_input(BenchmarkId::from_parameter(model), &refined, |b, r| {
            b.iter(|| Simulator::new(&r.spec).run().expect("completes"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_model_overheads);
criterion_main!(benches);
