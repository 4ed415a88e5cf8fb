//! Smoke tests for the Graphviz exports: structurally valid DOT with the
//! expected nodes for both the access graph and the architecture.

use modref::core::{refine, ImplModel};
use modref::graph::AccessGraph;
use modref::workloads::{medical_allocation, medical_partition, medical_spec, Design};

fn balanced(text: &str, open: char, close: char) -> bool {
    let mut depth = 0i64;
    for c in text.chars() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth < 0 {
                return false;
            }
        }
    }
    depth == 0
}

#[test]
fn access_graph_dot_is_well_formed() {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let dot = modref::graph::dot::to_dot(&spec, &graph);
    assert!(dot.starts_with("digraph \"medical\" {"));
    assert!(balanced(&dot, '{', '}'));
    assert!(balanced(&dot, '[', ']'));
    // Every behavior and variable with traffic appears as a node.
    for name in ["Sample", "Lowpass", "Log"] {
        assert!(dot.contains(&format!("\"b_{name}\"")), "{name} missing");
    }
    for var in ["samples", "volume", "cycle"] {
        assert!(dot.contains(&format!("\"v_{var}\"")), "{var} missing");
    }
}

#[test]
fn architecture_dot_is_well_formed_for_every_model() {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);
    for model in ImplModel::ALL {
        let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
        let dot = modref::core::dot::to_dot(&refined);
        assert!(dot.starts_with("graph architecture {"), "{model}");
        assert!(balanced(&dot, '{', '}'), "{model}");
        for idx in 0..refined.architecture.buses.len() {
            let name = modref::core::bus_name(idx);
            assert!(dot.contains(&format!("\"{name}\"")), "{model}: {name}");
        }
        for mem in &refined.architecture.memories {
            let name = refined.memory_name(mem);
            assert!(dot.contains(&format!("\"{name}\"")), "{model}: {name}");
        }
    }
}
