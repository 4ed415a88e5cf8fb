//! Three-component generalization: the paper's bus-count formulas and
//! the refinement engine are parameterized by the number of partitions
//! `p`; everything in Section 3 is stated for general `p`. These tests
//! run the full pipeline over one processor and two ASICs.

use modref::core::{refine, ImplModel};
use modref::graph::AccessGraph;
use modref::partition::{Allocation, Component, Partition};
use modref::sim::Simulator;
use modref::spec::builder::SpecBuilder;
use modref::spec::{expr, stmt, Spec};

/// A pipeline across three components: produce (ASIC1) → transform
/// (ASIC2) → consume (PROC), with stage-local scratch variables and
/// global hand-off variables.
fn three_way() -> (Spec, Allocation, Partition) {
    let mut b = SpecBuilder::new("three");
    let raw = b.var_int("raw", 16, 0);
    let mid = b.var_int("mid", 16, 0);
    let out = b.var_int("out", 16, 0);
    let s1 = b.var_int("scratch1", 16, 0);
    let s2 = b.var_int("scratch2", 16, 0);

    let produce = b.leaf(
        "Produce",
        vec![
            stmt::assign(s1, expr::lit(21)),
            stmt::assign(raw, expr::mul(expr::var(s1), expr::lit(2))),
        ],
    );
    let transform = b.leaf(
        "Transform",
        vec![
            stmt::assign(s2, expr::add(expr::var(raw), expr::lit(8))),
            stmt::assign(mid, expr::var(s2)),
        ],
    );
    let consume = b.leaf(
        "Consume",
        vec![stmt::assign(out, expr::sub(expr::var(mid), expr::lit(7)))],
    );
    let top = b.seq_in_order("Pipeline", vec![produce, transform, consume]);
    let spec = b.finish(top).expect("valid");

    let mut alloc = Allocation::new();
    let proc = alloc.add(Component::processor("PROC", 64 * 1024));
    let asic1 = alloc.add(Component::asic("ASIC1", 10_000, 75));
    let asic2 = alloc.add(Component::asic("ASIC2", 10_000, 75));

    let mut part = Partition::with_default(proc);
    part.assign_behavior(spec.behavior_by_name("Produce").unwrap(), asic1);
    part.assign_behavior(spec.behavior_by_name("Transform").unwrap(), asic2);
    part.assign_var(spec.variable_by_name("scratch1").unwrap(), asic1);
    part.assign_var(spec.variable_by_name("scratch2").unwrap(), asic2);
    part.assign_var(spec.variable_by_name("raw").unwrap(), asic1);
    part.assign_var(spec.variable_by_name("mid").unwrap(), asic2);
    part.assign_var(spec.variable_by_name("out").unwrap(), proc);
    (spec, alloc, part)
}

#[test]
fn three_way_refinement_is_equivalent_under_all_models() {
    let (spec, alloc, part) = three_way();
    let graph = AccessGraph::derive(&spec);
    let original = Simulator::new(&spec).run().expect("original completes");
    assert_eq!(original.var_by_name("out"), Some(43)); // 21*2+8-7

    for model in ImplModel::ALL {
        let refined =
            refine(&spec, &graph, &alloc, &part, model).unwrap_or_else(|e| panic!("{model}: {e}"));
        let result = Simulator::new(&refined.spec)
            .run()
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        assert!(
            original.diff_common_vars(&result).is_empty(),
            "{model} diverges"
        );
    }
}

#[test]
fn three_way_bus_counts_respect_p3_formulas() {
    let (spec, alloc, part) = three_way();
    let graph = AccessGraph::derive(&spec);
    let p = alloc.len();
    assert_eq!(p, 3);
    for model in ImplModel::ALL {
        let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
        let buses = refined.architecture.bus_count();
        assert!(
            buses <= model.max_buses(p),
            "{model}: {buses} > {}",
            model.max_buses(p)
        );
    }
    // Model3's maximum is p + p^2 = 12; here: three local memories
    // (scratch1, scratch2, out) and two global memories (raw on ASIC1,
    // mid on ASIC2) with 3 ports each -> 3 + 6 = 9 buses.
    let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model3).expect("refines");
    assert_eq!(refined.architecture.bus_count(), 9);
    // And each global memory has p ports.
    for mem in refined.architecture.memories.iter().filter(|m| m.global) {
        assert_eq!(mem.ports.len(), 3, "{}", refined.memory_name(mem));
    }
}

#[test]
fn three_way_model4_chains_hop_between_all_components() {
    let (spec, alloc, part) = three_way();
    let graph = AccessGraph::derive(&spec);
    let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model4).expect("refines");
    // Transform (ASIC2) reads raw (homed ASIC1): a 3-hop chain exists,
    // and Consume (PROC) reads mid (ASIC2): another chain from a third
    // component.
    let chains: Vec<&Vec<usize>> = refined
        .channel_buses
        .values()
        .filter(|b| b.len() == 3)
        .collect();
    assert!(chains.len() >= 2, "expected at least two remote chains");
    // All chains share the single inter-component bus in the middle.
    let inter: std::collections::HashSet<usize> = chains.iter().map(|c| c[1]).collect();
    assert_eq!(inter.len(), 1, "one inter-component bus");
    // Interfaces exist for every component that sends or serves.
    assert!(refined.architecture.interfaces.len() >= 4);
}
