//! Isolation harness separating a kernel's two cost centers: `spin_1M`
//! is a single process in a tight loop (pure dispatch/interpreter cost,
//! the scheduler never runs), while `ring128` is scheduler-bound (two
//! rounds, a timer pop and a wake per eight instructions). The `event`
//! and `compiled` kernels run the same event scheduler over different
//! executors (AST interpreter, bytecode), so the spread between a
//! kernel's two numbers is the shared scheduler residue that lowering
//! cannot remove. Run with
//! `cargo run --release -p modref-bench --example profile_kernel`.
//! Not part of the recorded benches — `BENCH_sim.json` comes from the
//! `sim_kernel` bench.

use std::time::Instant;

use modref_sim::{SimConfig, SimKernel, Simulator};
use modref_spec::builder::SpecBuilder;
use modref_spec::{expr, stmt, Spec};
use modref_workloads::ring_spec;

fn time(name: &str, spec: &Spec, kernel: SimKernel, reps: u32) {
    let mut best = f64::INFINITY;
    let mut steps = 0;
    for _ in 0..reps {
        let start = Instant::now();
        let r = Simulator::with_config(
            spec,
            SimConfig {
                kernel,
                max_steps: 100_000_000,
                ..SimConfig::default()
            },
        )
        .run()
        .expect("completes");
        let ns = start.elapsed().as_secs_f64() * 1e9 / r.steps as f64;
        best = best.min(ns);
        steps = r.steps;
    }
    println!("{name:<24} {kernel:?}: {best:6.2} ns/step ({steps} steps)");
}

/// A single process spinning in a for loop: no waits, no signals beyond
/// the loop variable — measures the raw dispatch/interpreter loop.
fn spin_spec(iters: i64) -> Spec {
    let mut b = SpecBuilder::new("spin");
    let i = b.var_int("i", 32, 0);
    let x = b.var_int("x", 32, 0);
    let a = b.leaf(
        "A",
        vec![stmt::for_loop(
            i,
            expr::lit(0),
            expr::lit(iters),
            vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
        )],
    );
    let top = b.seq_in_order("Top", vec![a]);
    b.finish(top).expect("valid")
}

fn main() {
    let spin = spin_spec(1_000_000);
    let ring = ring_spec(128, 64);
    for kernel in [SimKernel::EventDriven, SimKernel::Compiled] {
        time("spin_1M", &spin, kernel, 5);
        time("ring128", &ring, kernel, 5);
    }
}
