//! Graphviz (DOT) export of the refined architecture — the emerging
//! netlist pictures of the paper's Figure 3: components and memories as
//! boxes, buses as bus-shaped nodes, arbiters and interfaces attached to
//! the buses they guard/serve.

use std::fmt::Write as _;

use crate::arch::{bus_name, BusKind};
use crate::refine::Refined;

/// Renders the refined architecture netlist in DOT format, naming each
/// behavior as the refined spec does.
pub fn to_dot(refined: &Refined) -> String {
    let arch = &refined.architecture;
    let mut out = String::new();
    let _ = writeln!(out, "graph architecture {{");
    let _ = writeln!(out, "  node [fontname=\"Helvetica\"];");

    for (idx, bus) in arch.buses.iter().enumerate() {
        let name = bus_name(idx);
        let color = match bus.kind {
            BusKind::Local(_) => "gray70",
            BusKind::Global => "black",
            BusKind::InterfaceAccess(_) => "steelblue",
            BusKind::InterComponent => "firebrick",
        };
        let _ = writeln!(
            out,
            "  \"{name}\" [label=\"{name} ({}d+{}a)\", shape=underline, color={color}];",
            bus.data_bits, bus.addr_bits
        );
        for &master in &bus.masters {
            let master = refined.name(master);
            let _ = writeln!(out, "  \"m_{master}\" [label=\"{master}\", shape=box];");
            let _ = writeln!(out, "  \"m_{master}\" -- \"{name}\";");
        }
    }

    for mem in &arch.memories {
        let name = refined.memory_name(mem);
        let shape = if mem.global { "box3d" } else { "cylinder" };
        let _ = writeln!(
            out,
            "  \"{name}\" [label=\"{name}\\n{} words\", shape={shape}];",
            mem.words
        );
        for &bus in &mem.port_buses {
            let _ = writeln!(out, "  \"{name}\" -- \"{}\";", bus_name(bus));
        }
    }

    for arb in &arch.arbiters {
        let name = refined.name(arb.behavior);
        let _ = writeln!(out, "  \"{name}\" [label=\"{name}\", shape=diamond];");
        let _ = writeln!(
            out,
            "  \"{name}\" -- \"{}\" [style=dotted];",
            bus_name(arb.bus)
        );
    }

    for ifc in &arch.interfaces {
        let name = refined.name(ifc.behavior);
        let _ = writeln!(out, "  \"{name}\" [label=\"{name}\", shape=component];");
        let _ = writeln!(out, "  \"{name}\" -- \"{}\";", bus_name(ifc.serves_bus));
        let _ = writeln!(out, "  \"{name}\" -- \"{}\";", bus_name(ifc.masters_bus));
    }

    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine;
    use crate::ImplModel;
    use modref_graph::AccessGraph;
    use modref_partition::{Allocation, Partition};
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    #[test]
    fn architecture_dot_lists_buses_memories_arbiters() {
        let mut b = SpecBuilder::new("archdot");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![stmt::assign(x, expr::lit(1))]);
        let c = b.leaf("C", vec![stmt::assign(x, expr::lit(2))]);
        let top = b.concurrent("Top", vec![a, c]);
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let part = Partition::with_default(alloc.by_name("PROC").unwrap());
        let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model1).unwrap();
        let dot = to_dot(&refined);
        assert!(dot.starts_with("graph architecture {"));
        assert!(dot.contains("\"b1\""));
        assert!(dot.contains("Gmem_p0"));
        assert!(dot.contains("shape=diamond"), "arbiter rendered");
        assert!(dot.contains("\"m_A\" -- \"b1\";"));
    }

    #[test]
    fn model4_dot_shows_interfaces() {
        let mut b = SpecBuilder::new("ifcdot");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![stmt::assign(x, expr::lit(1))]);
        let c = b.leaf("C", vec![stmt::assign(x, expr::lit(2))]);
        let top = b.seq_in_order("Top", vec![a, c]);
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let proc = alloc.by_name("PROC").unwrap();
        let asic = alloc.by_name("ASIC").unwrap();
        let mut part = Partition::with_default(proc);
        part.assign_behavior(spec.behavior_by_name("C").unwrap(), asic);
        part.assign_var(spec.variable_by_name("x").unwrap(), proc);
        let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model4).unwrap();
        let dot = to_dot(&refined);
        assert!(dot.contains("shape=component"), "interfaces rendered");
    }
}
