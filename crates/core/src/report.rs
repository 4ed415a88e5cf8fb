//! Architecture reports: the design-cost summary of the paper's
//! Section 5 discussion ("we need to take into account not only the
//! number of buses, the bus transfer rate required for each bus, but
//! also the cost of bus interfaces ... the number of memories and the
//! sizes of the memories required in each model").

use std::fmt;
use std::fmt::Write as _;

use crate::arch::{bus_name, Architecture};
use crate::refine::Refined;

/// Aggregate cost indicators of a refined architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostSummary {
    /// Number of buses.
    pub buses: usize,
    /// Total pins consumed by all buses at component boundaries.
    pub bus_pins: u32,
    /// Number of memory modules.
    pub memories: usize,
    /// Total memory bits across modules.
    pub memory_bits: u64,
    /// Total memory ports (multi-port memories cost more).
    pub memory_ports: usize,
    /// Number of arbiters.
    pub arbiters: usize,
    /// Number of bus interfaces.
    pub interfaces: usize,
}

impl CostSummary {
    /// Computes the summary for an architecture.
    pub fn of(arch: &Architecture) -> Self {
        Self {
            buses: arch.bus_count(),
            bus_pins: arch.buses.iter().map(|b| b.pins()).sum(),
            memories: arch.memory_count(),
            memory_bits: arch.total_memory_bits(),
            memory_ports: arch.memories.iter().map(|m| m.port_buses.len()).sum(),
            arbiters: arch.arbiters.len(),
            interfaces: arch.interfaces.len(),
        }
    }
}

impl fmt::Display for CostSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} buses ({} pins), {} memories ({} bits, {} ports), {} arbiters, {} interfaces",
            self.buses,
            self.bus_pins,
            self.memories,
            self.memory_bits,
            self.memory_ports,
            self.arbiters,
            self.interfaces
        )
    }
}

/// Renders a full textual netlist description of a refined
/// architecture, naming each behavior as the refined spec does.
pub fn describe(refined: &Refined) -> String {
    let arch = &refined.architecture;
    let buses = |ids: &[usize]| {
        ids.iter()
            .map(|&b| bus_name(b))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::new();
    for (idx, bus) in arch.buses.iter().enumerate() {
        let _ = writeln!(
            out,
            "bus {} ({:?}): {} data + {} addr bits, masters [{}], slaves [{}]",
            bus_name(idx),
            bus.kind,
            bus.data_bits,
            bus.addr_bits,
            refined.names(&bus.masters),
            refined.names(&bus.slaves)
        );
    }
    for mem in &arch.memories {
        let _ = writeln!(
            out,
            "memory {}: {} words / {} bits, {} port(s) on [{}]",
            refined.memory_name(mem),
            mem.words,
            mem.bits,
            mem.port_buses.len(),
            buses(&mem.port_buses)
        );
    }
    for arb in &arch.arbiters {
        let _ = writeln!(
            out,
            "arbiter {} on {} over [{}]",
            refined.name(arb.behavior),
            bus_name(arb.bus),
            refined.names(&arch.buses[arb.bus].masters)
        );
    }
    for ifc in &arch.interfaces {
        let _ = writeln!(
            out,
            "interface {}: serves {}, masters {}",
            refined.name(ifc.behavior),
            bus_name(ifc.serves_bus),
            bus_name(ifc.masters_bus)
        );
    }
    let _ = writeln!(out, "cost: {}", CostSummary::of(arch));
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

    fn refined(model: ImplModel) -> crate::Refined {
        let mut b = SpecBuilder::new("cost");
        let x = b.var_int("x", 16, 0);
        let y = b.var_int("y", 16, 0);
        let a = b.leaf("A", vec![stmt::assign(x, expr::lit(1))]);
        let c = b.leaf("C", vec![stmt::assign(y, expr::var(x))]);
        let top = b.seq_in_order("Top", vec![a, c]);
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let proc = alloc.by_name("PROC").unwrap();
        let asic = alloc.by_name("ASIC").unwrap();
        let mut part = Partition::with_default(proc);
        part.assign_behavior(spec.behavior_by_name("C").unwrap(), asic);
        part.assign_var(spec.variable_by_name("x").unwrap(), proc);
        part.assign_var(spec.variable_by_name("y").unwrap(), asic);
        refine(&spec, &graph, &alloc, &part, model).unwrap()
    }

    #[test]
    fn summary_counts_everything() {
        let r = refined(ImplModel::Model4);
        let cost = CostSummary::of(&r.architecture);
        assert_eq!(cost.buses, r.architecture.bus_count());
        assert!(cost.bus_pins > 0);
        assert_eq!(cost.memories, 2);
        assert_eq!(cost.memory_bits, 32);
        assert!(cost.interfaces >= 2);
        assert!(cost.to_string().contains("memories"));
    }

    #[test]
    fn model3_pays_for_extra_ports() {
        let c1 = CostSummary::of(&refined(ImplModel::Model1).architecture);
        let c3 = CostSummary::of(&refined(ImplModel::Model3).architecture);
        assert!(c3.memory_ports > c1.memory_ports);
        assert!(c3.buses > c1.buses);
    }

    #[test]
    fn describe_mentions_every_section() {
        let r = refined(ImplModel::Model4);
        let text = describe(&r);
        assert!(text.contains("bus b1"));
        assert!(text.contains("memory Lmem_p0"));
        assert!(text.contains("interface Bus_interface_"));
        assert!(text.contains("cost: "));
    }
}
