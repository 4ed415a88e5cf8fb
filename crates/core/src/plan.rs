//! The refinement plan: the pure analysis behind the spec transformer,
//! and the bus assignment it shares with the Figure 9 rate tables.
//!
//! [`BusAssignment`] is the model-specific decision. From each
//! variable's *home component* and its local/global class under a
//! partition (a [`Placement`]) it decides:
//!
//! * which **memory modules** exist and which one holds each variable
//!   (grouped by home component and local/global class, matching the
//!   paper's Gmem/Lmem split — Model1 maps everything to global
//!   memories, Model4 everything to local memories);
//! * which **buses** exist, in the paper's canonical order for each
//!   model (Figure 3), named by their index
//!   ([`bus_name`](crate::arch::bus_name));
//! * which bus (or bus *chain*, for Model4 remote accesses) carries each
//!   access, and which buses each memory's ports serve.
//!
//! A [`Placement`] does not depend on the model, so the rate path
//! ([`crate::rates`]) computes it once per candidate partition and
//! derives all four models' bus tables from one [`BusAssignment`] each.
//!
//! [`RefinePlan`] composes a [`BusAssignment`] with what only
//! refinement needs: the architecture's [`MemoryModule`]s — with their
//! variables, port buses and sizes — the **global address map**
//! (each memory occupies a contiguous range so slaves can range-decode
//! shared buses) and the bus widths.

use std::collections::HashMap;

use modref_graph::{AccessGraph, ChannelId};
use modref_partition::{Allocation, ComponentId, Partition, VarClass};
use modref_spec::{BehaviorId, Spec, VarId};

use crate::address::AddressMap;
use crate::arch::{BusKind, MemoryModule};
use crate::error::RefineError;
use crate::model::ImplModel;

/// The model-independent facts of one partition that bus assignment
/// and the Figure 9 rates need: each variable's home component and
/// local/global class, and the component running each data channel's
/// behavior (its *accessor*).
///
/// The class follows the paper's Section 3 rule, as
/// [`Partition::classify_var`] does: a variable is **global** when some
/// behavior accessing it runs on a component other than its home.
/// Computing it from the data channels resolves each behavior's
/// component once for all variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// `(home, class)` per variable, indexed by [`VarId::index`].
    homes: Vec<(ComponentId, VarClass)>,
    /// The accessor per data channel, in [`AccessGraph::data_channels`]
    /// order; `None` when the channel's behavior has no component.
    accessors: Vec<Option<ComponentId>>,
}

impl Placement {
    /// Places every variable and data channel of `spec` under
    /// `partition`.
    ///
    /// # Errors
    ///
    /// * [`RefineError::EmptyAllocation`] for an empty allocation;
    /// * [`RefineError::UnassignedBehavior`] / `UnassignedVar` when the
    ///   partition leaves objects without a component;
    /// * [`RefineError::UnknownComponent`] when it names a component the
    ///   allocation lacks.
    pub fn new(
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        partition: &Partition,
    ) -> Result<Self, RefineError> {
        if allocation.is_empty() {
            return Err(RefineError::EmptyAllocation);
        }
        let mut resolved: Vec<Option<Option<ComponentId>>> = vec![None; spec.behavior_count()];
        let mut component_of = |b: BehaviorId| {
            *resolved[b.index()].get_or_insert_with(|| partition.component_of_behavior(spec, b))
        };
        let p = allocation.len();
        for b in spec.reachable() {
            match component_of(b) {
                Some(c) if c.index() >= p => return Err(RefineError::UnknownComponent(c)),
                None if spec.behavior(b).is_leaf() => {
                    return Err(RefineError::UnassignedBehavior(b))
                }
                _ => {}
            }
        }
        let mut homes = spec
            .variables()
            .map(|(v, _)| {
                let home = partition
                    .component_of_var(spec, v)
                    .ok_or(RefineError::UnassignedVar(v))?;
                if home.index() >= p {
                    return Err(RefineError::UnknownComponent(home));
                }
                Ok((home, VarClass::Local))
            })
            .collect::<Result<Vec<_>, RefineError>>()?;
        let accessors = graph
            .data_channels()
            .map(|ch| {
                let accessor = component_of(ch.behavior()?);
                if let Some(v) = ch.var() {
                    let (home, class) = &mut homes[v.index()];
                    if accessor != Some(*home) {
                        *class = VarClass::Global;
                    }
                }
                accessor
            })
            .collect();
        Ok(Self { homes, accessors })
    }

    /// `(home, class)` per variable, indexed by [`VarId::index`].
    pub fn homes(&self) -> &[(ComponentId, VarClass)] {
        &self.homes
    }

    /// The accessor of each data channel, in
    /// [`AccessGraph::data_channels`] order.
    pub fn accessors(&self) -> &[Option<ComponentId>] {
        &self.accessors
    }
}

/// The buses one access travels, as indices into
/// [`BusAssignment::buses`]: one bus for shared-memory models, and
/// `[interface-access, inter-component, remote local]` for Model4 remote
/// accesses. The first element is the bus the *master behavior* itself
/// drives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusChain {
    hops: [usize; 3],
    len: usize,
}

impl BusChain {
    fn one(bus: usize) -> Self {
        Self {
            hops: [bus, 0, 0],
            len: 1,
        }
    }

    /// The bus indices in travel order.
    pub fn as_slice(&self) -> &[usize] {
        &self.hops[..self.len]
    }
}

/// One implementation model's memory modules, buses and access routes.
/// See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct BusAssignment {
    model: ImplModel,
    /// `(home, global)` per memory module, by component, locals first.
    memories: Vec<(ComponentId, bool)>,
    /// The memory module per variable, indexed by [`VarId::index`].
    var_memory: Vec<Option<usize>>,
    buses: Vec<BusKind>,
    /// Per component index.
    local: Vec<Option<usize>>,
    ifc: Vec<Option<usize>>,
    /// Model3's dedicated buses, indexed `memory * components + accessor`.
    gmem: Vec<Option<usize>>,
    shared_global: Option<usize>,
    inter: Option<usize>,
}

impl BusAssignment {
    /// Assigns memories and buses for `model` from each variable's
    /// `(home, class)` as [`Placement::homes`] gives them. Variables
    /// homed outside the allocation get no memory.
    pub fn new(
        model: ImplModel,
        allocation: &Allocation,
        homes: &[(ComponentId, VarClass)],
    ) -> Self {
        let p = allocation.len();
        let global_mem = |class: VarClass| match model {
            ImplModel::Model1 => true,
            ImplModel::Model2 | ImplModel::Model3 => class == VarClass::Global,
            ImplModel::Model4 => false,
        };
        let slot_of = |&(home, class): &(ComponentId, VarClass)| {
            (home.index() < p).then(|| 2 * home.index() + usize::from(global_mem(class)))
        };
        let mut present = vec![false; 2 * p];
        for slot in homes.iter().filter_map(slot_of) {
            present[slot] = true;
        }
        let mut slots = vec![None; 2 * p];
        let mut memories = Vec::new();
        for slot in (0..2 * p).filter(|&slot| present[slot]) {
            slots[slot] = Some(memories.len());
            memories.push((component(slot / 2), slot % 2 == 1));
        }
        let var_memory = homes
            .iter()
            .map(|h| slot_of(h).and_then(|slot| slots[slot]))
            .collect();
        let mut a = Self {
            model,
            gmem: vec![None; memories.len() * p],
            memories,
            var_memory,
            buses: Vec::new(),
            local: vec![None; p],
            ifc: vec![None; p],
            shared_global: None,
            inter: None,
        };
        a.plan_buses(&slots, p);
        a
    }

    fn next_bus(&mut self, kind: BusKind) -> usize {
        self.buses.push(kind);
        self.buses.len() - 1
    }

    /// Plans a local bus for component `c` when it has a local memory.
    fn local_bus(&mut self, slots: &[Option<usize>], c: usize) {
        if slots[2 * c].is_some() {
            self.local[c] = Some(self.next_bus(BusKind::Local(component(c))));
        }
    }

    fn plan_buses(&mut self, slots: &[Option<usize>], p: usize) {
        match self.model {
            ImplModel::Model1 => {
                self.shared_global = Some(self.next_bus(BusKind::Global));
            }
            ImplModel::Model2 => {
                // Paper order (Figure 3(b), p = 2): b1 local0, b2 global,
                // b3 local1 — first local bus, shared global bus, then the
                // remaining local buses.
                if p > 0 {
                    self.local_bus(slots, 0);
                }
                if self.memories.iter().any(|&(_, global)| global) {
                    self.shared_global = Some(self.next_bus(BusKind::Global));
                }
                for c in 1..p {
                    self.local_bus(slots, c);
                }
            }
            ImplModel::Model3 => {
                // Paper order (Figure 3(c), p = 2): b1 local0, b2..b5 the
                // dedicated component->global-memory buses, b6 local1.
                if p > 0 {
                    self.local_bus(slots, 0);
                }
                for mem in 0..self.memories.len() {
                    if self.memories[mem].1 {
                        for accessor in 0..p {
                            self.gmem[mem * p + accessor] = Some(self.next_bus(BusKind::Global));
                        }
                    }
                }
                for c in 1..p {
                    self.local_bus(slots, c);
                }
            }
            ImplModel::Model4 => {
                // Paper order (Figure 3(d), p = 2): b1 local0, b2 ifc0,
                // b3 inter, b4 ifc1, b5 local1.
                if p > 0 {
                    self.local_bus(slots, 0);
                    self.ifc[0] = Some(self.next_bus(BusKind::InterfaceAccess(component(0))));
                }
                self.inter = Some(self.next_bus(BusKind::InterComponent));
                for c in 1..p {
                    self.ifc[c] = Some(self.next_bus(BusKind::InterfaceAccess(component(c))));
                    self.local_bus(slots, c);
                }
            }
        }
    }

    /// The buses' roles, in naming order (`b1`, `b2`, ...).
    pub fn buses(&self) -> &[BusKind] {
        &self.buses
    }

    /// `(home, global)` per memory module, in module order: by
    /// component, locals before globals.
    pub fn memories(&self) -> &[(ComponentId, bool)] {
        &self.memories
    }

    /// The index into [`BusAssignment::memories`] of the module holding
    /// `var`.
    pub fn memory_of(&self, var: VarId) -> Option<usize> {
        self.var_memory.get(var.index()).copied().flatten()
    }

    /// The bus chain an access travels when a behavior on `accessor`
    /// touches `var`; empty when `var` has no memory or `accessor` is
    /// outside the allocation.
    pub fn chain(&self, accessor: ComponentId, var: VarId) -> BusChain {
        self.memory_of(var)
            .and_then(|mem| self.route(accessor.index(), mem))
            .unwrap_or_default()
    }

    fn route(&self, accessor: usize, mem: usize) -> Option<BusChain> {
        let (home, global) = self.memories[mem];
        let local = || self.local[home.index()].map(BusChain::one);
        match self.model {
            ImplModel::Model1 => self.shared_global.map(BusChain::one),
            ImplModel::Model2 if global => self.shared_global.map(BusChain::one),
            ImplModel::Model3 if global => {
                if accessor >= self.local.len() {
                    return None;
                }
                self.gmem[mem * self.local.len() + accessor].map(BusChain::one)
            }
            ImplModel::Model2 | ImplModel::Model3 => local(),
            ImplModel::Model4 if accessor == home.index() => local(),
            ImplModel::Model4 => Some(BusChain {
                hops: [
                    (*self.ifc.get(accessor)?)?,
                    self.inter?,
                    self.local[home.index()]?,
                ],
                len: 3,
            }),
        }
    }

    /// The buses the ports of memory module `mem` serve: one per
    /// component for Model3's global memories, else the home
    /// component's own route to it.
    pub fn memory_ports(&self, mem: usize) -> Vec<usize> {
        let (home, global) = self.memories[mem];
        if self.model == ImplModel::Model3 && global {
            (0..self.local.len())
                .filter_map(|accessor| self.route(accessor, mem))
                .map(|chain| chain.hops[0])
                .collect()
        } else {
            self.route(home.index(), mem)
                .map_or_else(Vec::new, |chain| chain.as_slice().to_vec())
        }
    }

    /// The per-component local bus, if planned.
    pub fn local_bus_of(&self, cid: ComponentId) -> Option<usize> {
        self.local.get(cid.index()).copied().flatten()
    }

    /// Model4's interface-access bus for a component.
    pub fn ifc_bus_of(&self, cid: ComponentId) -> Option<usize> {
        self.ifc.get(cid.index()).copied().flatten()
    }

    /// Model4's inter-component bus, if planned.
    pub fn inter_bus(&self) -> Option<usize> {
        self.inter
    }
}

/// The component at position `index` of an allocation.
fn component(index: usize) -> ComponentId {
    ComponentId::from_raw(index as u32)
}

/// The complete analysis result. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinePlan {
    /// The implementation model planned for.
    pub model: ImplModel,
    /// Global address map over all memory-resident variables.
    pub addr: AddressMap,
    /// The memory modules, in [`BusAssignment::memories`] order.
    pub memories: Vec<MemoryModule>,
    /// Data-line width shared by all buses (widest single access).
    pub data_bits: u32,
    /// Address-line width shared by all buses.
    pub addr_bits: u32,
    assignment: BusAssignment,
}

impl RefinePlan {
    /// Builds the plan.
    ///
    /// # Errors
    ///
    /// * [`RefineError::EmptyAllocation`] for an empty allocation;
    /// * [`RefineError::UnassignedVar`] / `UnassignedBehavior` when the
    ///   partition leaves objects without a component;
    /// * [`RefineError::UnknownComponent`] when it names a component the
    ///   allocation lacks.
    pub fn build(
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        partition: &Partition,
        model: ImplModel,
    ) -> Result<Self, RefineError> {
        let placement = Placement::new(spec, graph, allocation, partition)?;
        let assignment = BusAssignment::new(model, allocation, placement.homes());

        let mut memories: Vec<MemoryModule> = assignment
            .memories()
            .iter()
            .enumerate()
            .map(|(i, &(home, global))| MemoryModule {
                component: home,
                global,
                port_buses: assignment.memory_ports(i),
                ports: Vec::new(),
                vars: Vec::new(),
                words: 0,
                bits: 0,
            })
            .collect();
        for (v, var) in spec.variables() {
            if let Some(m) = assignment.memory_of(v) {
                let mem = &mut memories[m];
                mem.vars.push(v);
                mem.words += u64::from(var.ty().element_count());
                mem.bits += var.ty().bit_width();
            }
        }

        // Address map, contiguous per module.
        let mut addr = AddressMap::new();
        for m in &memories {
            for &v in &m.vars {
                addr.assign(spec, v);
            }
        }
        let addr_bits = addr.addr_bits();
        Ok(Self {
            model,
            addr,
            memories,
            data_bits: spec
                .variables()
                .map(|(_, v)| v.ty().access_width())
                .max()
                .unwrap_or(8)
                .max(1),
            addr_bits,
            assignment,
        })
    }

    /// The planned buses' roles, in naming order.
    pub fn buses(&self) -> &[BusKind] {
        self.assignment.buses()
    }

    /// The bus assignment: every bus, memory and route by index.
    pub(crate) fn assignment(&self) -> &BusAssignment {
        &self.assignment
    }

    /// The memory module holding `var`.
    pub fn memory_of(&self, var: VarId) -> Option<&MemoryModule> {
        self.assignment.memory_of(var).map(|i| &self.memories[i])
    }

    /// The buses an access travels when a behavior on `accessor` touches
    /// `var`, as indices into [`RefinePlan::buses`] in travel order.
    pub fn access_buses(&self, accessor: ComponentId, var: VarId) -> Vec<usize> {
        self.assignment.chain(accessor, var).as_slice().to_vec()
    }

    /// Maps every data channel of the access graph to the buses carrying
    /// it, as indices into [`RefinePlan::buses`] — the Figure 9
    /// accounting. Channels to variables that end up as registers (none
    /// today; kept for forward compatibility) map to no bus.
    pub fn channel_buses(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        partition: &Partition,
    ) -> HashMap<ChannelId, Vec<usize>> {
        let mut out = HashMap::new();
        for ch in graph.data_channels() {
            let (Some(b), Some(v)) = (ch.behavior(), ch.var()) else {
                continue;
            };
            let Some(accessor) = partition.component_of_behavior(spec, b) else {
                continue;
            };
            out.insert(ch.id(), self.access_buses(accessor, v));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    /// Two components; x local to PROC, g global (PROC-homed, read by
    /// ASIC), y local to ASIC.
    fn fixture() -> (Spec, AccessGraph, Allocation, Partition) {
        let mut b = SpecBuilder::new("plan");
        let x = b.var_int("x", 16, 0);
        let g = b.var_int("g", 16, 0);
        let y = b.var_int("y", 16, 0);
        let b1 = b.leaf(
            "B1",
            vec![stmt::assign(x, expr::lit(1)), stmt::assign(g, expr::var(x))],
        );
        let b2 = b.leaf("B2", vec![stmt::assign(y, expr::var(g))]);
        let top = b.concurrent("Top", vec![b1, b2]);
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let proc = alloc.by_name("PROC").unwrap();
        let asic = alloc.by_name("ASIC").unwrap();
        let mut part = Partition::new();
        part.assign_behavior(top, proc);
        part.assign_behavior(b1, proc);
        part.assign_behavior(b2, asic);
        part.assign_var(x, proc);
        part.assign_var(g, proc);
        part.assign_var(y, asic);
        (spec, graph, alloc, part)
    }

    fn proc_asic(alloc: &Allocation) -> (ComponentId, ComponentId) {
        (
            alloc.by_name("PROC").unwrap(),
            alloc.by_name("ASIC").unwrap(),
        )
    }

    #[test]
    fn model1_maps_everything_to_global_memories_on_one_bus() {
        let (spec, graph, alloc, part) = fixture();
        let plan = RefinePlan::build(&spec, &graph, &alloc, &part, ImplModel::Model1).unwrap();
        assert_eq!(plan.buses().len(), 1);
        assert!(plan.memories.iter().all(|m| m.global));
        assert_eq!(plan.memories.len(), 2); // Gmem_p0 {x,g}, Gmem_p1 {y}
        let (proc, _) = proc_asic(&alloc);
        let x = spec.variable_by_name("x").unwrap();
        assert_eq!(plan.access_buses(proc, x), vec![0]);
    }

    #[test]
    fn model2_splits_local_and_global() {
        let (spec, graph, alloc, part) = fixture();
        let plan = RefinePlan::build(&spec, &graph, &alloc, &part, ImplModel::Model2).unwrap();
        // Memories: Lmem_p0 {x}, Gmem_p0 {g}, Lmem_p1 {y}.
        assert_eq!(plan.memories.len(), 3);
        // Buses: b1 local0, b2 global, b3 local1 — paper order.
        assert_eq!(plan.buses().len(), 3);
        assert!(matches!(plan.buses()[0], BusKind::Local(_)));
        assert!(matches!(plan.buses()[1], BusKind::Global));
        let (proc, asic) = proc_asic(&alloc);
        let g = spec.variable_by_name("g").unwrap();
        let y = spec.variable_by_name("y").unwrap();
        assert_eq!(plan.access_buses(proc, g), vec![1]);
        assert_eq!(plan.access_buses(asic, g), vec![1]);
        assert_eq!(plan.access_buses(asic, y), vec![2]);
    }

    #[test]
    fn model3_gives_each_component_a_dedicated_global_bus() {
        let (spec, graph, alloc, part) = fixture();
        let plan = RefinePlan::build(&spec, &graph, &alloc, &part, ImplModel::Model3).unwrap();
        // One Gmem (on PROC) with 2 ports -> 2 dedicated buses + 2 locals.
        assert_eq!(plan.buses().len(), 4);
        let (proc, asic) = proc_asic(&alloc);
        let g = spec.variable_by_name("g").unwrap();
        let from_proc = plan.access_buses(proc, g);
        let from_asic = plan.access_buses(asic, g);
        assert_ne!(from_proc, from_asic, "dedicated buses per component");
        let gmem = plan.memory_of(g).unwrap();
        assert_eq!(gmem.port_buses.len(), 2);
    }

    #[test]
    fn model4_routes_remote_accesses_through_the_interface_chain() {
        let (spec, graph, alloc, part) = fixture();
        let plan = RefinePlan::build(&spec, &graph, &alloc, &part, ImplModel::Model4).unwrap();
        // Buses: b1 local0, b2 ifc0, b3 inter, b4 ifc1, b5 local1.
        assert_eq!(plan.buses().len(), 5);
        let (proc, asic) = proc_asic(&alloc);
        let g = spec.variable_by_name("g").unwrap();
        // g homed on PROC: local access from PROC is one bus...
        assert_eq!(plan.access_buses(proc, g).len(), 1);
        // ...remote access from ASIC traverses ifc1 -> inter -> local0.
        let chain = plan.access_buses(asic, g);
        assert_eq!(chain.len(), 3);
        let a = plan.assignment();
        assert_eq!(Some(chain[1]), a.inter_bus());
        // All memories are local under Model4.
        assert!(plan.memories.iter().all(|m| !m.global));
    }

    #[test]
    fn addresses_are_contiguous_per_memory() {
        let (spec, graph, alloc, part) = fixture();
        let plan = RefinePlan::build(&spec, &graph, &alloc, &part, ImplModel::Model2).unwrap();
        for m in &plan.memories {
            let (lo, hi) = plan.addr.range_of(&spec, &m.vars).unwrap();
            assert!(hi >= lo);
            // Each var's base lies within the module range.
            for &v in &m.vars {
                let base = plan.addr.base(v).unwrap();
                assert!(base >= lo && base <= hi);
            }
        }
        assert_eq!(plan.addr.words(), 3);
    }

    #[test]
    fn channel_buses_covers_every_data_channel() {
        let (spec, graph, alloc, part) = fixture();
        for model in ImplModel::ALL {
            let plan = RefinePlan::build(&spec, &graph, &alloc, &part, model).unwrap();
            let map = plan.channel_buses(&spec, &graph, &part);
            assert_eq!(map.len(), graph.data_channel_count(), "{model}");
            assert!(map.values().all(|buses| !buses.is_empty()), "{model}");
        }
    }

    #[test]
    fn bus_counts_respect_paper_maxima() {
        let (spec, graph, alloc, part) = fixture();
        for model in ImplModel::ALL {
            let plan = RefinePlan::build(&spec, &graph, &alloc, &part, model).unwrap();
            assert!(
                plan.buses().len() <= model.max_buses(alloc.len()),
                "{model}: {} buses",
                plan.buses().len()
            );
        }
    }

    #[test]
    fn components_outside_the_allocation_are_rejected() {
        let outside = ComponentId::from_raw(2);
        let (spec, graph, alloc, mut part) = fixture();
        part.assign_behavior(spec.top(), outside);
        assert_eq!(
            RefinePlan::build(&spec, &graph, &alloc, &part, ImplModel::Model1),
            Err(RefineError::UnknownComponent(outside))
        );
        let (spec, graph, alloc, mut part) = fixture();
        part.assign_var(spec.variable_by_name("y").unwrap(), outside);
        assert_eq!(
            RefinePlan::build(&spec, &graph, &alloc, &part, ImplModel::Model3),
            Err(RefineError::UnknownComponent(outside))
        );
    }

    #[test]
    fn empty_allocation_is_rejected() {
        let (spec, graph, _, part) = fixture();
        let empty = Allocation::new();
        assert!(matches!(
            RefinePlan::build(&spec, &graph, &empty, &part, ImplModel::Model1),
            Err(RefineError::EmptyAllocation)
        ));
    }
}
