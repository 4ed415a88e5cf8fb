//! Full-pipeline integration tests: spec → access graph → partition →
//! refine (all four implementation models) → simulate, asserting
//! functional equivalence and the paper's architectural invariants.

use modref::core::{refine, ImplModel};
use modref::graph::AccessGraph;
use modref::sim::Simulator;
use modref::spec::printer;
use modref::workloads::{medical_allocation, medical_partition, medical_spec, Design};

#[test]
fn medical_system_refines_equivalently_under_all_designs_and_models() {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let original = Simulator::new(&spec).run().expect("original completes");

    for design in Design::ALL {
        let part = medical_partition(&spec, &alloc, design);
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model)
                .unwrap_or_else(|e| panic!("{design} {model}: refine failed: {e}"));
            let result = Simulator::new(&refined.spec)
                .run()
                .unwrap_or_else(|e| panic!("{design} {model}: simulation failed: {e}"));
            let diffs = original.diff_common_vars(&result);
            assert!(
                diffs.is_empty(),
                "{design} {model}: refined model diverges on {diffs:?}"
            );
        }
    }
}

#[test]
fn bus_counts_follow_the_section3_formulas() {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let p = alloc.len();
    for design in Design::ALL {
        let part = medical_partition(&spec, &alloc, design);
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
            let buses = refined.architecture.bus_count();
            assert!(
                buses <= model.max_buses(p),
                "{design} {model}: {buses} buses exceeds the formula's {}",
                model.max_buses(p)
            );
            // Model1 always uses exactly one bus.
            if model == ImplModel::Model1 {
                assert_eq!(buses, 1, "{design}");
            }
        }
    }
}

#[test]
fn memory_module_counts_match_the_section5_discussion() {
    // "In Model1 and Model4, two memory modules are required. However, in
    // Model2 and Model3, four memory modules are required."
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    for design in Design::ALL {
        let part = medical_partition(&spec, &alloc, design);
        for (model, expected) in [
            (ImplModel::Model1, 2),
            (ImplModel::Model2, 4),
            (ImplModel::Model3, 4),
            (ImplModel::Model4, 2),
        ] {
            let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
            assert_eq!(
                refined.architecture.memory_count(),
                expected,
                "{design} {model}"
            );
        }
    }
}

#[test]
fn model3_global_memories_have_one_port_per_partition() {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);
    let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model3).expect("refines");
    for mem in &refined.architecture.memories {
        if mem.global {
            assert_eq!(mem.ports.len(), alloc.len(), "{}", refined.memory_name(mem));
        } else {
            assert_eq!(mem.ports.len(), 1, "{}", refined.memory_name(mem));
        }
    }
}

#[test]
fn refined_specs_expand_substantially() {
    // Figure 10's qualitative claim: the refined specification is an
    // order of magnitude larger than the original.
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let original_lines = printer::line_count(&spec);
    for design in Design::ALL {
        let part = medical_partition(&spec, &alloc, design);
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
            let lines = printer::line_count(&refined.spec);
            let ratio = lines as f64 / original_lines as f64;
            assert!(
                ratio >= 5.0,
                "{design} {model}: only {ratio:.1}x larger ({lines} vs {original_lines})"
            );
        }
    }
}

#[test]
fn refined_specs_reparse_through_the_textual_syntax() {
    // The refined output is a real specification: print → parse →
    // print must be a fixpoint.
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);
    for model in ImplModel::ALL {
        let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
        let text = printer::print(&refined.spec);
        let reparsed = modref::spec::parser::parse(&text)
            .unwrap_or_else(|e| panic!("{model}: refined spec does not reparse: {e}"));
        assert_eq!(printer::print(&reparsed), text, "{model}");
    }
}

#[test]
fn reparsed_refined_spec_still_simulates_equivalently() {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design2);
    let original = Simulator::new(&spec).run().expect("original completes");
    let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model2).expect("refines");
    let text = printer::print(&refined.spec);
    let reparsed = modref::spec::parser::parse(&text).expect("reparses");
    let result = Simulator::new(&reparsed).run().expect("reparsed runs");
    assert!(original.diff_common_vars(&result).is_empty());
}

#[test]
fn arbiters_exist_exactly_on_multimaster_buses() {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);
    for model in ImplModel::ALL {
        let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
        for (idx, bus) in refined.architecture.buses.iter().enumerate() {
            let has_arbiter = refined.architecture.arbiters.iter().any(|a| a.bus == idx);
            assert_eq!(
                has_arbiter,
                bus.needs_arbiter(),
                "{model} bus b{}: {} masters",
                idx + 1,
                bus.masters.len()
            );
        }
    }
}

#[test]
fn model4_is_the_only_model_with_interfaces() {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design3);
    for model in ImplModel::ALL {
        let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
        let has_interfaces = !refined.architecture.interfaces.is_empty();
        assert_eq!(has_interfaces, model == ImplModel::Model4, "{model}");
    }
}
