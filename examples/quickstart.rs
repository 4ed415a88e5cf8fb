//! Quickstart: build a small specification, partition it over a
//! processor + ASIC, refine it to an implementation model, and verify by
//! simulation that the refined model behaves identically.
//!
//! Run with: `cargo run --example quickstart`

use modref::core::{bus_name, refine, ImplModel};
use modref::graph::AccessGraph;
use modref::partition::{Allocation, Partition};
use modref::sim::Simulator;
use modref::spec::builder::SpecBuilder;
use modref::spec::{expr, printer, stmt};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A tiny functional model: the paper's Figure 1 shape.
    //    A runs, then (x > 1 ? B : C); B and the variable x will live on
    //    the ASIC, A and C stay on the processor.
    let mut b = SpecBuilder::new("quickstart");
    let x = b.var_int("x", 16, 0);
    let a = b.leaf("A", vec![stmt::assign(x, expr::lit(5))]);
    let bb = b.leaf(
        "B",
        vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(37)))],
    );
    let c = b.leaf("C", vec![stmt::assign(x, expr::lit(-1))]);
    let arcs = vec![
        b.arc_when(a, expr::gt(expr::var(x), expr::lit(1)), bb),
        b.arc_when(a, expr::le(expr::var(x), expr::lit(1)), c),
        b.arc_complete(bb),
        b.arc_complete(c),
    ];
    let top = b.seq("Top", vec![a, bb, c], arcs);
    let spec = b.finish(top)?;

    println!("=== original specification ===");
    println!("{}", printer::print(&spec));

    // 2. Derive the access graph (channels are implicit in the spec).
    let graph = AccessGraph::derive(&spec);
    println!(
        "derived {} data channels, {} control channels",
        graph.data_channels().count(),
        graph.control_channels().count()
    );

    // 3. Allocate components and partition: B and x to the ASIC.
    let alloc = Allocation::proc_plus_asic();
    let proc = alloc.by_name("PROC").expect("allocated");
    let asic = alloc.by_name("ASIC").expect("allocated");
    let mut part = Partition::with_default(proc);
    part.assign_behavior(bb, asic);
    part.assign_var(x, asic);

    // 4. Refine to Model2 (local + single-port global memory).
    let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model2)?;
    println!("=== refined specification (Model2) ===");
    println!("{}", printer::print(&refined.spec));
    println!("architecture:");
    for (idx, bus) in refined.architecture.buses.iter().enumerate() {
        println!(
            "  {}: {} master(s), {} slave(s), {} pins",
            bus_name(idx),
            bus.masters.len(),
            bus.slaves.len(),
            bus.pins()
        );
    }
    for mem in &refined.architecture.memories {
        println!(
            "  {}: {} words, {} bits, {} port(s)",
            refined.memory_name(mem),
            mem.words,
            mem.bits,
            mem.ports.len()
        );
    }

    // 5. Verify functional equivalence by simulation.
    let original = Simulator::new(&spec).run()?;
    let result = Simulator::new(&refined.spec).run()?;
    let diffs = original.diff_common_vars(&result);
    println!(
        "original x = {:?}, refined x = {:?}, diffs = {:?}",
        original.var_by_name("x"),
        result.var_by_name("x"),
        diffs
    );
    assert!(diffs.is_empty(), "refined model must match the original");
    println!("refined model is functionally equivalent to the original");
    Ok(())
}
