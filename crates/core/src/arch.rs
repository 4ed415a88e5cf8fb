//! The architecture netlist that emerges from refinement: buses, memory
//! modules, arbiters and bus interfaces.
//!
//! The netlist names no object twice. Its behaviors are [`BehaviorId`]s
//! of the refined specification ([`Refined::spec`]), so their names are
//! the spec's own, and its buses are indices into
//! [`Architecture::buses`], named by [`bus_name`].
//!
//! [`Refined::spec`]: crate::Refined::spec

use modref_partition::ComponentId;
use modref_spec::{BehaviorId, VarId};

/// The name of bus `index`: `b1`, `b2`, ... in paper order. Bus wires,
/// protocol subroutines, arbiters, reports and lints all take a bus's
/// name from here.
pub fn bus_name(index: usize) -> String {
    format!("b{}", index + 1)
}

/// What role a bus plays in the refined architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusKind {
    /// A per-component local bus between its behaviors and its local
    /// memory (and, under Model4, its inbound bus interface).
    Local(ComponentId),
    /// A shared bus reaching a global memory (Model1/Model2), or one of
    /// Model3's dedicated component→global-memory buses.
    Global,
    /// Model4: the bus between a component's behaviors and its outbound
    /// bus interface.
    InterfaceAccess(ComponentId),
    /// Model4: the inter-component bus linking the bus interfaces.
    InterComponent,
}

/// A bus in the refined architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Bus {
    /// Role.
    pub kind: BusKind,
    /// Data-line width in bits.
    pub data_bits: u32,
    /// Address-line width in bits.
    pub addr_bits: u32,
    /// The behaviors issuing this bus's calls, one per master slot in
    /// arbiter priority order (index 0 = highest). A leaf that also runs
    /// a guard fetch on the bus holds two slots.
    pub masters: Vec<BehaviorId>,
    /// The memory ports and bus interfaces serving this bus.
    pub slaves: Vec<BehaviorId>,
}

impl Bus {
    /// Pins the bus occupies crossing a chip boundary (data + address + 4
    /// control lines of the Figure 5(d) handshake).
    pub fn pins(&self) -> u32 {
        modref_estimate::memory::bus_pins(self.data_bits, self.addr_bits)
    }

    /// Whether more than one master shares the bus (arbiter required).
    pub fn needs_arbiter(&self) -> bool {
        self.masters.len() > 1
    }
}

/// A memory module in the refined architecture. Its name is that of its
/// first port behavior (`Gmem_p0`, `Lmem_p1`, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModule {
    /// The component the memory sits on.
    pub component: ComponentId,
    /// Whether this is a global memory (holds globals) or local.
    pub global: bool,
    /// The buses its ports serve, one per port, as bus indices.
    pub port_buses: Vec<usize>,
    /// The port behaviors serving `port_buses`, in the same order; the
    /// first also scopes the module's variables. Empty in a
    /// [`RefinePlan`](crate::RefinePlan): refinement creates them.
    pub ports: Vec<BehaviorId>,
    /// The variables stored in the module.
    pub vars: Vec<VarId>,
    /// Addressable words.
    pub words: u64,
    /// Total size in bits.
    pub bits: u64,
}

/// An arbiter inserted on a multi-master bus (Figure 7). It grants the
/// bus's masters in [`Bus::masters`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbiterDesc {
    /// The generated arbiter behavior.
    pub behavior: BehaviorId,
    /// The bus it guards.
    pub bus: usize,
}

/// A bus interface inserted for message passing (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterfaceDesc {
    /// The generated interface behavior.
    pub behavior: BehaviorId,
    /// The bus it serves (listens on) as a slave.
    pub serves_bus: usize,
    /// The bus it masters to forward requests.
    pub masters_bus: usize,
}

/// The complete emerging architecture of a refined design.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Architecture {
    /// All buses, in paper naming order (`b1`, `b2`, ...).
    pub buses: Vec<Bus>,
    /// All memory modules.
    pub memories: Vec<MemoryModule>,
    /// All arbiters.
    pub arbiters: Vec<ArbiterDesc>,
    /// All bus interfaces (Model4 only).
    pub interfaces: Vec<InterfaceDesc>,
}

impl Architecture {
    /// Number of buses — compare against
    /// [`ImplModel::max_buses`](crate::ImplModel::max_buses).
    pub fn bus_count(&self) -> usize {
        self.buses.len()
    }

    /// Number of memory modules — the Section 5 cost discussion counts 2
    /// for Model1/Model4 and 4 for Model2/Model3 on the medical example.
    pub fn memory_count(&self) -> usize {
        self.memories.len()
    }

    /// Total memory bits across all modules.
    pub fn total_memory_bits(&self) -> u64 {
        self.memories.iter().map(|m| m.bits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u32) -> BehaviorId {
        BehaviorId::from_raw(raw)
    }

    #[test]
    fn bus_names_follow_paper_order() {
        assert_eq!(bus_name(0), "b1");
        assert_eq!(bus_name(9), "b10");
    }

    #[test]
    fn bus_pins_and_arbiter_need() {
        let bus = Bus {
            kind: BusKind::Global,
            data_bits: 16,
            addr_bits: 5,
            masters: vec![id(0), id(1)],
            slaves: vec![id(2)],
        };
        assert_eq!(bus.pins(), 16 + 5 + 4);
        assert!(bus.needs_arbiter());
    }

    #[test]
    fn architecture_queries() {
        let mut a = Architecture::default();
        a.buses.push(Bus {
            kind: BusKind::Local(ComponentId::from_raw(0)),
            data_bits: 8,
            addr_bits: 3,
            masters: vec![id(0)],
            slaves: vec![],
        });
        a.memories.push(MemoryModule {
            component: ComponentId::from_raw(0),
            global: false,
            port_buses: vec![0],
            ports: vec![id(1)],
            vars: vec![],
            words: 4,
            bits: 32,
        });
        assert_eq!(a.bus_count(), 1);
        assert!(!a.buses[0].needs_arbiter());
        assert_eq!(a.memory_count(), 1);
        assert_eq!(a.total_memory_bits(), 32);
        assert_eq!(a.memories[0].ports.len(), 1);
    }
}
