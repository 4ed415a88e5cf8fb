//! The refinement orchestrator: applies control-, data- and
//! architecture-related refinement to produce the implementation model.
//!
//! [`refine`] rebuilds the specification from scratch:
//!
//! 1. memory-module placeholder behaviors are created for the plan's
//!    [`MemoryModule`]s and every original variable is re-declared
//!    inside its module;
//! 2. bus wires are generated, the bus masters are enumerated (leaf
//!    bodies and guard fetches that touch memory, plus the Model4 bus
//!    interfaces their remote accesses pass through), and each bus gets
//!    its master protocol subroutines — per-master variants with
//!    request/acknowledge wires and a bus arbiter (Figure 7) where a bus
//!    has more than one master;
//! 3. the behavior hierarchy is copied: children assigned to a different
//!    component than their parent become `B_CTRL` stubs plus concurrent
//!    `B_NEW` wrappers (control refinement), leaf bodies have their
//!    variable accesses replaced by protocol calls (data refinement,
//!    Figure 5), and transition guards read register temporaries fetched
//!    at the end of predecessor children (non-leaf scheme, Figure 6);
//! 4. memory-port serve loops and Model4 bus interfaces (Figure 8) are
//!    generated;
//! 5. the refined top is a concurrent composite of the copied hierarchy
//!    and every server behavior, and the architecture lists the buses
//!    with their masters and slaves next to the plan's memory modules.
//!
//! Every step reads buses, memories and access routes as indices from
//! the plan's [`BusAssignment`](crate::plan::BusAssignment); bus names
//! appear only where a signal or subroutine is named. The architecture
//! records each master, slave, arbiter and interface as the id of the
//! refined behavior, taken when that behavior is created or filled: a
//! leaf's master is its copy, or its `B_NEW` when control refinement
//! moved it; a guard fetch's master is the occupant leaf it is appended
//! to, or the interposed `{child}_fetch` leaf.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use modref_graph::{AccessGraph, ChannelId};
use modref_partition::{Allocation, ComponentId, Partition};
use modref_spec::stmt::CallArg;
use modref_spec::subroutine::Subroutine;
use modref_spec::{
    expr, validate, Behavior, BehaviorId, BehaviorKind, Expr, LValue, SignalId, Spec, Stmt,
    SubroutineId, Transition, TransitionTarget, VarId, WaitCond,
};

use crate::arbiter::make_arbiter;
use crate::arch::{bus_name, ArbiterDesc, Architecture, Bus, InterfaceDesc, MemoryModule};
use crate::control::{make_bctrl, make_bnew_composite, make_bnew_leaf, ControlSignals};
use crate::data::{fetch_call, DataRefiner, VarAccess};
use crate::error::RefineError;
use crate::interface::{make_interface, ForwardSubs};
use crate::memory::{memory_port_body, MemoryVar, SlvSubs};
use crate::model::ImplModel;
use crate::plan::RefinePlan;
use crate::protocol::{
    make_mst_receive, make_mst_send, make_slv_receive, make_slv_send, BusWires, ReqAck,
};

/// The output of refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct Refined {
    /// The refined, implementation-model specification.
    pub spec: Spec,
    /// The emerging architecture (buses, memories, arbiters, interfaces).
    pub architecture: Architecture,
    /// The analysis plan the refinement followed.
    pub plan: RefinePlan,
    /// For every original data channel, the buses that now carry it, as
    /// indices into `architecture.buses`.
    pub channel_buses: HashMap<ChannelId, Vec<usize>>,
}

impl Refined {
    /// The name of refined behavior `id`.
    pub fn name(&self, id: BehaviorId) -> &str {
        self.spec.behavior(id).name()
    }

    /// The names of `ids`, comma-separated.
    pub fn names(&self, ids: &[BehaviorId]) -> String {
        let names: Vec<&str> = ids.iter().map(|&id| self.name(id)).collect();
        names.join(", ")
    }

    /// The name of a memory module: its first port behavior's.
    ///
    /// # Panics
    ///
    /// Panics when `mem` has no port behavior, as the modules of a
    /// [`RefinePlan`] have before refinement creates them.
    pub fn memory_name(&self, mem: &MemoryModule) -> &str {
        self.name(mem.ports[0])
    }
}

/// Refines `spec` into the implementation model `model` under the given
/// allocation and partition. See the [module docs](self) for the steps.
///
/// # Errors
///
/// Propagates planning errors ([`RefineError::EmptyAllocation`],
/// unassigned objects) and reports internal inconsistencies as
/// [`RefineError::InvalidOutput`].
pub fn refine(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    partition: &Partition,
    model: ImplModel,
) -> Result<Refined, RefineError> {
    let _span = modref_obs::span("refine").attr("model", model.name());
    let plan = {
        let _s = modref_obs::span("refine.plan");
        RefinePlan::build(spec, graph, allocation, partition, model)?
    };
    Builder::new(spec, graph, partition, plan).build()
}

/// Identifies one bus-master context in the refined design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum CtxKey {
    /// The body of an original leaf behavior.
    LeafBody(BehaviorId),
    /// The guard-fetch code appended after child `1` of composite `0`.
    GuardFetch(BehaviorId, BehaviorId),
    /// Model4 outbound interface of a component (masters the inter bus).
    IfcOut(ComponentId),
    /// Model4 inbound interface of a component (masters its local bus).
    IfcIn(ComponentId),
}

#[derive(Debug, Clone)]
struct MasterCtx {
    key: CtxKey,
    /// The buses the context drives, as
    /// [`BusAssignment`](crate::plan::BusAssignment) indices.
    buses: BTreeSet<usize>,
}

struct Builder<'a> {
    orig: &'a Spec,
    graph: &'a AccessGraph,
    part: &'a Partition,
    plan: RefinePlan,
    out: Spec,
    vmap: HashMap<VarId, VarId>,
    smap: HashMap<SignalId, SignalId>,
    submap: HashMap<SubroutineId, SubroutineId>,
    /// Per bus index.
    wires: Vec<BusWires>,
    contexts: Vec<MasterCtx>,
    ctx_subs: HashMap<(usize, CtxKey), (SubroutineId, SubroutineId)>,
    /// The refined behavior issuing each context's bus calls.
    masters: HashMap<CtxKey, BehaviorId>,
    mem_port0: Vec<BehaviorId>,
    /// Per bus index, created with the bus's first memory port.
    slv_subs: Vec<Option<SlvSubs>>,
    servers: Vec<BehaviorId>,
    arch: Architecture,
    guard_tmp: HashMap<(BehaviorId, VarId), VarId>,
}

impl<'a> Builder<'a> {
    fn new(orig: &'a Spec, graph: &'a AccessGraph, part: &'a Partition, plan: RefinePlan) -> Self {
        Self {
            orig,
            graph,
            part,
            plan,
            out: Spec::new(format!("{}_refined", orig.name())),
            vmap: HashMap::new(),
            smap: HashMap::new(),
            submap: HashMap::new(),
            wires: Vec::new(),
            contexts: Vec::new(),
            ctx_subs: HashMap::new(),
            masters: HashMap::new(),
            mem_port0: Vec::new(),
            slv_subs: Vec::new(),
            servers: Vec::new(),
            arch: Architecture::default(),
            guard_tmp: HashMap::new(),
        }
    }

    fn component_of(&self, behavior: BehaviorId) -> Result<ComponentId, RefineError> {
        self.part
            .component_of_behavior(self.orig, behavior)
            .ok_or(RefineError::UnassignedBehavior(behavior))
    }

    fn build(mut self) -> Result<Refined, RefineError> {
        // Each refinement pass runs under its own span, so `modref
        // report` breaks refine time down per procedure per model.
        fn pass<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
            let _s = modref_obs::span(name);
            f()
        }
        pass("refine.copy_signals", || self.copy_signals());
        pass("refine.create_memory_placeholders", || {
            self.create_memory_placeholders()
        });
        pass("refine.copy_variables", || self.copy_variables());
        pass("refine.copy_subroutines", || self.copy_subroutines());
        pass("refine.create_bus_wires", || self.create_bus_wires());
        pass("refine.enumerate_contexts", || self.enumerate_contexts())?;
        pass("refine.create_protocols_and_arbiters", || {
            self.create_protocols_and_arbiters()
        });

        let root = pass("refine.copy_behaviors", || {
            self.copy_behavior(self.orig.top())
        })?;
        pass("refine.fill_memories", || self.fill_memories());
        pass("refine.create_interfaces", || self.create_interfaces());

        let mut children = vec![root];
        children.extend(self.servers.iter().copied());
        let system_name = self.out.fresh_behavior_name("System");
        let system = self.out.add_behavior(Behavior::new(
            system_name,
            BehaviorKind::Concurrent { children },
        ));
        self.out.set_top(system);

        pass("refine.validate", || validate::check(&self.out))?;
        pass("refine.populate_architecture", || {
            self.populate_architecture()
        });

        let channel_buses = self.plan.channel_buses(self.orig, self.graph, self.part);
        Ok(Refined {
            spec: self.out,
            architecture: self.arch,
            plan: self.plan,
            channel_buses,
        })
    }

    // --- step 1: signals, memories, variables, subroutines ---

    fn copy_signals(&mut self) {
        for (id, s) in self.orig.signals() {
            let new = self.out.add_signal(s.name().to_string(), *s.ty(), s.init());
            self.smap.insert(id, new);
        }
    }

    fn create_memory_placeholders(&mut self) {
        for mem in &self.plan.memories {
            let class = if mem.global { "G" } else { "L" };
            let id = self.out.add_behavior(Behavior::new_server(
                format!("{class}mem_p{}", mem.component.index()),
                BehaviorKind::Leaf { body: Vec::new() },
            ));
            self.mem_port0.push(id);
        }
    }

    fn copy_variables(&mut self) {
        // Iterate memories so variables land scoped to their module's
        // first port behavior, in address order.
        for (mem, &scope) in self.plan.memories.iter().zip(&self.mem_port0) {
            for &v in &mem.vars {
                let var = self.orig.variable(v);
                let new = self.out.add_variable(
                    var.name().to_string(),
                    *var.ty(),
                    var.init(),
                    Some(scope),
                );
                self.vmap.insert(v, new);
            }
        }
    }

    fn copy_subroutines(&mut self) {
        // User subroutines are copied verbatim (id-remapped). Accesses to
        // memory-resident variables inside user subroutines are not data-
        // refined (a documented limitation; protocol subroutines are
        // generated fresh, and the workloads keep computation in leaves).
        for (id, sub) in self.orig.subroutines() {
            let new = self.out.add_subroutine(Subroutine::new(
                sub.name().to_string(),
                sub.params().to_vec(),
                Vec::new(),
            ));
            self.submap.insert(id, new);
        }
        for (id, sub) in self.orig.subroutines() {
            let body = self.remap_stmts(sub.body());
            *self.out.subroutine_mut(self.submap[&id]).body_mut() = body;
        }
    }

    fn create_bus_wires(&mut self) {
        let (addr_bits, data_bits) = (self.plan.addr_bits, self.plan.data_bits);
        for bus in 0..self.plan.buses().len() {
            let wires = BusWires::create(&mut self.out, &bus_name(bus), addr_bits, data_bits);
            self.wires.push(wires);
        }
        self.slv_subs = vec![None; self.wires.len()];
    }

    // --- step 2: master contexts, protocols, arbiters ---

    /// Enumerates the bus masters: leaf bodies and guard fetches that
    /// touch memory, then the Model4 interfaces their remote accesses
    /// pass through (outbound ones first).
    fn enumerate_contexts(&mut self) -> Result<(), RefineError> {
        let orig = self.orig;
        let mut ifc_out: BTreeSet<ComponentId> = BTreeSet::new();
        let mut ifc_in: BTreeSet<ComponentId> = BTreeSet::new();

        for leaf in orig.leaves() {
            let comp = self.component_of(leaf)?;
            let vars = collect_body_vars(orig, leaf);
            let buses = self.master_buses(comp, vars, &mut ifc_out, &mut ifc_in);
            if !buses.is_empty() {
                self.contexts.push(MasterCtx {
                    key: CtxKey::LeafBody(leaf),
                    buses,
                });
            }
        }

        for composite in orig.reachable() {
            let b = orig.behavior(composite);
            if b.is_leaf() {
                continue;
            }
            let comp = self.component_of(composite)?;
            for (child, vars) in guard_reads(b) {
                let buses = self.master_buses(comp, vars, &mut ifc_out, &mut ifc_in);
                self.contexts.push(MasterCtx {
                    key: CtxKey::GuardFetch(composite, child),
                    buses,
                });
            }
        }

        let a = self.plan.assignment();
        for comp in ifc_out {
            self.contexts.push(MasterCtx {
                key: CtxKey::IfcOut(comp),
                buses: a.inter_bus().into_iter().collect(),
            });
        }
        for comp in ifc_in {
            self.contexts.push(MasterCtx {
                key: CtxKey::IfcIn(comp),
                buses: a.local_bus_of(comp).into_iter().collect(),
            });
        }
        Ok(())
    }

    /// The buses a master on `comp` drives to reach `vars` — the first
    /// bus of each access's chain. A Model4 remote access also makes
    /// `comp`'s outbound interface and the memory home's inbound
    /// interface masters.
    fn master_buses(
        &self,
        comp: ComponentId,
        vars: impl IntoIterator<Item = VarId>,
        ifc_out: &mut BTreeSet<ComponentId>,
        ifc_in: &mut BTreeSet<ComponentId>,
    ) -> BTreeSet<usize> {
        let a = self.plan.assignment();
        let mut buses = BTreeSet::new();
        for v in vars {
            let chain = a.chain(comp, v);
            let Some(&first) = chain.as_slice().first() else {
                continue;
            };
            buses.insert(first);
            if chain.as_slice().len() == 3 {
                ifc_out.insert(comp);
                if let Some(mem) = a.memory_of(v) {
                    ifc_in.insert(a.memories()[mem].0);
                }
            }
        }
        buses
    }

    /// Generates each bus's master protocol subroutines: one plain pair
    /// for a single master, else a pair per master slot with its
    /// request/acknowledge wires and a bus arbiter (Figure 7).
    fn create_protocols_and_arbiters(&mut self) {
        let (addr_bits, data_bits) = (self.plan.addr_bits, self.plan.data_bits);
        for bus in 0..self.plan.buses().len() {
            let name = &bus_name(bus);
            let masters: Vec<&MasterCtx> = self
                .contexts
                .iter()
                .filter(|c| c.buses.contains(&bus))
                .collect();
            let shared = masters.len() >= 2;
            let wires = self.wires[bus];
            let mut reqacks = Vec::new();
            for (slot, ctx) in masters.iter().enumerate() {
                let ra = shared.then(|| ReqAck::create(&mut self.out, name, slot));
                let suffix = if shared {
                    format!("_m{slot}")
                } else {
                    String::new()
                };
                let recv = make_mst_receive(
                    &mut self.out,
                    name,
                    wires,
                    addr_bits,
                    data_bits,
                    &suffix,
                    ra,
                );
                let send = make_mst_send(
                    &mut self.out,
                    name,
                    wires,
                    addr_bits,
                    data_bits,
                    &suffix,
                    ra,
                );
                self.ctx_subs.insert((bus, ctx.key), (recv, send));
                reqacks.extend(ra);
            }
            if shared {
                let behavior = make_arbiter(&mut self.out, name, &reqacks);
                self.servers.push(behavior);
                self.arch.arbiters.push(ArbiterDesc { behavior, bus });
            }
        }
    }

    /// The protocol table for one context: refined-variable id →
    /// address/subroutine info, for every memory variable the context may
    /// touch.
    fn access_table(
        &self,
        key: CtxKey,
        comp: ComponentId,
        vars: impl IntoIterator<Item = VarId>,
    ) -> HashMap<VarId, VarAccess> {
        let a = self.plan.assignment();
        vars.into_iter()
            .filter_map(|v| {
                let &first = a.chain(comp, v).as_slice().first()?;
                let &(recv, send) = self.ctx_subs.get(&(first, key))?;
                let access = VarAccess {
                    base: self.plan.addr.base(v).expect("memory vars are mapped"),
                    elems: self.orig.variable(v).ty().element_count(),
                    recv,
                    send,
                };
                Some((self.vmap[&v], access))
            })
            .collect()
    }

    // --- step 3: hierarchy copy (control + data refinement) ---

    fn copy_behavior(&mut self, id: BehaviorId) -> Result<BehaviorId, RefineError> {
        let b = self.orig.behavior(id);
        match b.kind() {
            BehaviorKind::Leaf { .. } => {
                let refined = self.refine_leaf_body(id)?;
                let copy = self.add_copy(Behavior::new(
                    b.name().to_string(),
                    BehaviorKind::Leaf { body: refined },
                ));
                self.masters.insert(CtxKey::LeafBody(id), copy);
                Ok(copy)
            }
            BehaviorKind::Seq {
                children,
                transitions,
            } => {
                let comp = self.component_of(id)?;
                let mut occupant: HashMap<BehaviorId, BehaviorId> = HashMap::new();
                let mut new_children = Vec::new();
                for &c in children {
                    let o = self.copy_child(comp, c)?;
                    occupant.insert(c, o);
                    new_children.push(o);
                }
                let mut new_transitions = Vec::new();
                for t in transitions {
                    let cond = t.cond.as_ref().map(|cond| self.refine_guard_expr(id, cond));
                    new_transitions.push(Transition {
                        from: occupant[&t.from],
                        cond,
                        to: match t.to {
                            TransitionTarget::Behavior(to) => {
                                TransitionTarget::Behavior(occupant[&to])
                            }
                            TransitionTarget::Complete => TransitionTarget::Complete,
                        },
                    });
                }
                let new_id = self.add_copy(Behavior::new(
                    b.name().to_string(),
                    BehaviorKind::Seq {
                        children: new_children,
                        transitions: new_transitions,
                    },
                ));
                self.insert_guard_fetches(id, comp, new_id, &occupant);
                Ok(new_id)
            }
            BehaviorKind::Concurrent { children } => {
                let comp = self.component_of(id)?;
                let mut new_children = Vec::new();
                for &c in children {
                    new_children.push(self.copy_child(comp, c)?);
                }
                Ok(self.add_copy(Behavior::new(
                    b.name().to_string(),
                    BehaviorKind::Concurrent {
                        children: new_children,
                    },
                )))
            }
        }
    }

    /// Adds the copy of an original behavior under its own name. A
    /// behavior generated earlier under that name (a memory, arbiter or
    /// control-refinement behavior) takes a fresh name instead, so
    /// original names survive and generated ones stay unique.
    fn add_copy(&mut self, behavior: Behavior) -> BehaviorId {
        if let Some(clash) = self.out.behavior_by_name(behavior.name()) {
            let name = self.out.fresh_behavior_name(behavior.name());
            self.out.behavior_mut(clash).set_name(name);
        }
        self.out.add_behavior(behavior)
    }

    /// Copies child `c` of a composite on component `parent_comp`,
    /// applying control refinement when the child is assigned elsewhere.
    fn copy_child(
        &mut self,
        parent_comp: ComponentId,
        c: BehaviorId,
    ) -> Result<BehaviorId, RefineError> {
        let child_comp = self.component_of(c)?;
        if child_comp == parent_comp {
            return self.copy_behavior(c);
        }
        // Control-related refinement: B_CTRL here, B_NEW concurrently.
        let base = self.orig.behavior(c).name();
        let sigs = ControlSignals::create(&mut self.out, base);
        let bctrl = make_bctrl(&mut self.out, base, sigs);
        let bnew = if self.orig.behavior(c).is_leaf() {
            let refined = self.refine_leaf_body(c)?;
            let bnew = make_bnew_leaf(&mut self.out, base, sigs, refined);
            self.masters.insert(CtxKey::LeafBody(c), bnew);
            bnew
        } else {
            let inner = self.copy_behavior(c)?;
            make_bnew_composite(&mut self.out, base, sigs, inner)
        };
        self.servers.push(bnew);
        Ok(bctrl)
    }

    /// Data refinement of one original leaf's body (Figure 5).
    fn refine_leaf_body(&mut self, leaf: BehaviorId) -> Result<Vec<Stmt>, RefineError> {
        let comp = self.component_of(leaf)?;
        let b = self.orig.behavior(leaf);
        let remapped = self.remap_stmts(b.body().expect("leaf"));
        let vars = collect_body_vars(self.orig, leaf);
        let table = self.access_table(CtxKey::LeafBody(leaf), comp, vars);
        Ok(DataRefiner::new(&mut self.out, b.name(), table).refine_body(remapped))
    }

    /// Rewrites an original transition guard of `composite`: memory
    /// variables read the composite's guard temporaries (Figure 6), and
    /// every other id is remapped. An index is visited before its array,
    /// as evaluation order creates the temporaries.
    fn refine_guard_expr(&mut self, composite: BehaviorId, e: &Expr) -> Expr {
        match e {
            Expr::Var(v) if self.plan.memory_of(*v).is_some() => {
                Expr::Var(self.guard_tmp_for(composite, *v))
            }
            Expr::Index(v, idx) => {
                let idx = self.refine_guard_expr(composite, idx);
                // Guards over array elements fetch the element into the
                // same temporary (one per array variable).
                if self.plan.memory_of(*v).is_some() {
                    Expr::Var(self.guard_tmp_for(composite, *v))
                } else {
                    Expr::Index(self.vmap[v], Box::new(idx))
                }
            }
            Expr::Unary(op, inner) => {
                Expr::Unary(*op, Box::new(self.refine_guard_expr(composite, inner)))
            }
            Expr::Binary(op, l, r) => Expr::Binary(
                *op,
                Box::new(self.refine_guard_expr(composite, l)),
                Box::new(self.refine_guard_expr(composite, r)),
            ),
            other => self.remap_expr(other),
        }
    }

    fn guard_tmp_for(&mut self, composite: BehaviorId, orig_var: VarId) -> VarId {
        if let Some(&t) = self.guard_tmp.get(&(composite, orig_var)) {
            return t;
        }
        let var = self.orig.variable(orig_var);
        let name = self.out.fresh_variable_name(&format!(
            "{}_tmp_{}",
            self.orig.behavior(composite).name(),
            var.name()
        ));
        let t = self
            .out
            .add_variable(name, var.ty().access_scalar().into(), 0, None);
        self.guard_tmp.insert((composite, orig_var), t);
        t
    }

    /// Appends the Figure 6 guard fetches to each predecessor child's
    /// occupant (into the leaf body, or via an interposed fetch leaf for
    /// composite occupants).
    fn insert_guard_fetches(
        &mut self,
        composite: BehaviorId,
        comp: ComponentId,
        new_composite: BehaviorId,
        occupant: &HashMap<BehaviorId, BehaviorId>,
    ) {
        for (child, vars) in guard_reads(self.orig.behavior(composite)) {
            let key = CtxKey::GuardFetch(composite, child);
            let table = self.access_table(key, comp, vars.iter().copied());
            // Fetch each guard variable into the composite's shared tmp.
            let mut fetches = Vec::new();
            for v in vars {
                let tmp = self.guard_tmp_for(composite, v);
                if let Some(&access) = table.get(&self.vmap[&v]) {
                    fetches.push(fetch_call(access, expr::lit(access.base as i64), tmp));
                }
            }
            if fetches.is_empty() {
                continue;
            }
            let o = occupant[&child];
            if let Some(body) = self.out.behavior_mut(o).body_mut() {
                body.extend(fetches);
                self.masters.insert(key, o);
                continue;
            }
            // Interpose a fetch leaf after the composite occupant.
            let fetch_name = self
                .out
                .fresh_behavior_name(&format!("{}_fetch", self.orig.behavior(child).name()));
            let fetch_leaf = self.out.add_behavior(Behavior::new(
                fetch_name,
                BehaviorKind::Leaf { body: fetches },
            ));
            self.masters.insert(key, fetch_leaf);
            let BehaviorKind::Seq {
                children,
                transitions,
            } = self.out.behavior_mut(new_composite).kind_mut()
            else {
                unreachable!("guard fetches only occur in seq composites")
            };
            let pos = children
                .iter()
                .position(|&c| c == o)
                .expect("occupant is a child");
            children.insert(pos + 1, fetch_leaf);
            for t in transitions.iter_mut() {
                if t.from == o {
                    t.from = fetch_leaf;
                }
            }
            transitions.push(Transition {
                from: o,
                cond: None,
                to: TransitionTarget::Behavior(fetch_leaf),
            });
        }
    }

    // --- step 4: memories and interfaces ---

    /// Fills each memory's ports with serve loops: port 0 fills the
    /// placeholder its variables are scoped to, and Model3's
    /// multi-port global memories get one more behavior per port. The
    /// architecture's modules record each port behavior.
    fn fill_memories(&mut self) {
        self.arch.memories = self.plan.memories.clone();
        let data_bits = self.plan.data_bits;
        for (idx, mem) in self.plan.memories.iter().enumerate() {
            let vars: Vec<MemoryVar> = mem
                .vars
                .iter()
                .map(|&v| MemoryVar {
                    var: self.vmap[&v],
                    base: self.plan.addr.base(v).expect("mapped"),
                    elems: self.orig.variable(v).ty().element_count(),
                })
                .collect();
            let decode = self.plan.addr.range_of(self.orig, &mem.vars);
            let port0 = self.mem_port0[idx];
            for (port, &bus) in mem.port_buses.iter().enumerate() {
                let wires = self.wires[bus];
                let slv = *self.slv_subs[bus].get_or_insert_with(|| SlvSubs {
                    send: make_slv_send(&mut self.out, &bus_name(bus), wires, data_bits),
                    recv: make_slv_receive(&mut self.out, &bus_name(bus), wires, data_bits),
                });
                let body = memory_port_body(wires, &vars, decode, Some(slv));
                let id = if port == 0 {
                    *self.out.behavior_mut(port0).kind_mut() = BehaviorKind::Leaf { body };
                    port0
                } else {
                    // `add_copy` may have renamed the placeholder; the
                    // ports carry its current name.
                    let base = format!("{}_port{port}", self.out.behavior(port0).name());
                    let name = self.out.fresh_behavior_name(&base);
                    self.out
                        .add_behavior(Behavior::new_server(name, BehaviorKind::Leaf { body }))
                };
                self.servers.push(id);
                self.arch.memories[idx].ports.push(id);
            }
        }
    }

    /// Generates the Model4 bus interfaces (Figure 8) in context order:
    /// an outbound interface serves its component's interface-access bus
    /// and masters the inter-component bus; an inbound one serves the
    /// inter-component bus, decodes its component's memory range and
    /// masters its local bus.
    fn create_interfaces(&mut self) {
        let a = self.plan.assignment();
        for ctx in &self.contexts {
            let (comp, dir, serves, masters, decode) = match ctx.key {
                CtxKey::IfcOut(comp) => (
                    comp,
                    "out",
                    a.ifc_bus_of(comp).expect("Model4 plans interface buses"),
                    a.inter_bus().expect("Model4 plans an inter bus"),
                    None,
                ),
                CtxKey::IfcIn(comp) => {
                    let mem_vars: Vec<VarId> = self
                        .plan
                        .memories
                        .iter()
                        .filter(|m| m.component == comp)
                        .flat_map(|m| m.vars.iter().copied())
                        .collect();
                    (
                        comp,
                        "in",
                        a.inter_bus().expect("Model4 plans an inter bus"),
                        a.local_bus_of(comp)
                            .expect("remote target has a local memory"),
                        self.plan.addr.range_of(self.orig, &mem_vars),
                    )
                }
                CtxKey::LeafBody(_) | CtxKey::GuardFetch(..) => continue,
            };
            let (recv, send) = self.ctx_subs[&(masters, ctx.key)];
            let (behavior, _) = make_interface(
                &mut self.out,
                &format!("Bus_interface_p{}_{dir}", comp.index()),
                self.wires[serves],
                decode,
                ForwardSubs { recv, send },
            );
            self.servers.push(behavior);
            self.masters.insert(ctx.key, behavior);
            self.arch.interfaces.push(InterfaceDesc {
                behavior,
                serves_bus: serves,
                masters_bus: masters,
            });
        }
    }

    /// Lists each bus with its masters, in slot order, and its slaves:
    /// the memory ports on it, then the interfaces serving it.
    fn populate_architecture(&mut self) {
        for (idx, &kind) in self.plan.buses().iter().enumerate() {
            let masters = self
                .contexts
                .iter()
                .filter(|c| c.buses.contains(&idx))
                .map(|c| self.masters[&c.key])
                .collect();
            let ports = self.arch.memories.iter().flat_map(|m| {
                m.port_buses
                    .iter()
                    .zip(&m.ports)
                    .filter(|&(&bus, _)| bus == idx)
                    .map(|(_, &port)| port)
            });
            let interfaces = self.arch.interfaces.iter().filter(|i| i.serves_bus == idx);
            let slaves = ports.chain(interfaces.map(|i| i.behavior)).collect();
            self.arch.buses.push(Bus {
                kind,
                data_bits: self.plan.data_bits,
                addr_bits: self.plan.addr_bits,
                masters,
                slaves,
            });
        }
    }

    // --- id remapping helpers ---

    fn remap_stmts(&self, stmts: &[Stmt]) -> Vec<Stmt> {
        stmts.iter().map(|s| self.remap_stmt(s)).collect()
    }

    fn remap_stmt(&self, s: &Stmt) -> Stmt {
        match s {
            Stmt::Assign { target, value } => Stmt::Assign {
                target: self.remap_lvalue(target),
                value: self.remap_expr(value),
            },
            Stmt::SignalSet { signal, value } => Stmt::SignalSet {
                signal: self.smap[signal],
                value: self.remap_expr(value),
            },
            Stmt::Wait(WaitCond::Until(e)) => Stmt::Wait(WaitCond::Until(self.remap_expr(e))),
            Stmt::Wait(WaitCond::For(n)) => Stmt::Wait(WaitCond::For(*n)),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => Stmt::If {
                cond: self.remap_expr(cond),
                then_body: self.remap_stmts(then_body),
                else_body: self.remap_stmts(else_body),
            },
            Stmt::While {
                cond,
                body,
                trip_hint,
            } => Stmt::While {
                cond: self.remap_expr(cond),
                body: self.remap_stmts(body),
                trip_hint: *trip_hint,
            },
            Stmt::For {
                var,
                from,
                to,
                body,
            } => Stmt::For {
                var: self.vmap[var],
                from: self.remap_expr(from),
                to: self.remap_expr(to),
                body: self.remap_stmts(body),
            },
            Stmt::Loop { body } => Stmt::Loop {
                body: self.remap_stmts(body),
            },
            Stmt::Call { sub, args } => Stmt::Call {
                sub: self.submap[sub],
                args: args
                    .iter()
                    .map(|a| match a {
                        CallArg::In(e) => CallArg::In(self.remap_expr(e)),
                        CallArg::Out(lv) => CallArg::Out(self.remap_lvalue(lv)),
                    })
                    .collect(),
            },
            Stmt::Delay(n) => Stmt::Delay(*n),
            Stmt::Skip => Stmt::Skip,
        }
    }

    fn remap_lvalue(&self, lv: &LValue) -> LValue {
        match lv {
            LValue::Var(v) => LValue::Var(self.vmap[v]),
            LValue::Index(v, idx) => LValue::Index(self.vmap[v], self.remap_expr(idx)),
            LValue::Param(name) => LValue::Param(name.clone()),
        }
    }

    fn remap_expr(&self, e: &Expr) -> Expr {
        match e {
            Expr::Lit(v) => Expr::Lit(*v),
            Expr::Var(v) => Expr::Var(self.vmap[v]),
            Expr::Index(v, idx) => Expr::Index(self.vmap[v], Box::new(self.remap_expr(idx))),
            Expr::Signal(s) => Expr::Signal(self.smap[s]),
            Expr::Param(name) => Expr::Param(name.clone()),
            Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(self.remap_expr(inner))),
            Expr::Binary(op, l, r) => Expr::Binary(
                *op,
                Box::new(self.remap_expr(l)),
                Box::new(self.remap_expr(r)),
            ),
        }
    }
}

/// Every variable a leaf behavior's body reads or writes, recursively.
fn collect_body_vars(spec: &Spec, leaf: BehaviorId) -> BTreeSet<VarId> {
    let mut vars = BTreeSet::new();
    if let Some(body) = spec.behavior(leaf).body() {
        modref_spec::visit::for_each_stmt(body, &mut |s| {
            vars.extend(s.direct_reads());
            vars.extend(s.direct_writes());
        });
    }
    vars
}

/// The variables each child's outgoing transition guards read, for
/// the children of `b` whose guards read any — the reads a guard fetch
/// after that child supplies (Figure 6).
fn guard_reads(b: &Behavior) -> BTreeMap<BehaviorId, BTreeSet<VarId>> {
    let mut reads: BTreeMap<BehaviorId, BTreeSet<VarId>> = BTreeMap::new();
    for t in b.transitions() {
        if let Some(cond) = &t.cond {
            reads.entry(t.from).or_default().extend(cond.reads());
        }
    }
    reads.retain(|_, vars| !vars.is_empty());
    reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    fn fig1() -> (Spec, AccessGraph, Allocation, Partition) {
        // The paper's Figure 1: A, B, C sequential with guarded arcs on
        // x; B and x on the ASIC, A and C on the processor.
        let mut b = SpecBuilder::new("fig1");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![stmt::assign(x, expr::lit(5))]);
        let bb = b.leaf(
            "B",
            vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
        );
        let c = b.leaf("C", vec![stmt::assign(x, expr::lit(2))]);
        let arcs = vec![
            b.arc_when(a, expr::gt(expr::var(x), expr::lit(1)), bb),
            b.arc_when(a, expr::lt(expr::var(x), expr::lit(1)), c),
            b.arc_complete(bb),
            b.arc_complete(c),
        ];
        let top = b.seq("Top", vec![a, bb, c], arcs);
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let proc = alloc.by_name("PROC").unwrap();
        let asic = alloc.by_name("ASIC").unwrap();
        let mut part = Partition::new();
        part.assign_behavior(top, proc);
        part.assign_behavior(bb, asic);
        part.assign_var(x, asic);
        (spec, graph, alloc, part)
    }

    #[test]
    fn figure1_refines_under_every_model() {
        let (spec, graph, alloc, part) = fig1();
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model)
                .unwrap_or_else(|e| panic!("{model}: {e}"));
            // Control refinement happened: B_CTRL + B_NEW exist.
            assert!(refined.spec.behavior_by_name("B_CTRL").is_some(), "{model}");
            assert!(refined.spec.behavior_by_name("B_NEW").is_some(), "{model}");
            // The refined spec is strictly larger.
            assert!(
                refined.spec.total_statements() > spec.total_statements(),
                "{model}"
            );
            // Bus count respects the paper's formula.
            assert!(
                refined.architecture.bus_count() <= model.max_buses(alloc.len()),
                "{model}"
            );
        }
    }

    #[test]
    fn refined_behavior_is_equivalent_to_original() {
        let (spec, graph, alloc, part) = fig1();
        let original = modref_sim::Simulator::new(&spec)
            .run()
            .expect("original runs");
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
            let result = modref_sim::Simulator::new(&refined.spec)
                .run()
                .unwrap_or_else(|e| panic!("{model}: {e}"));
            assert_eq!(
                result.var_by_name("x"),
                original.var_by_name("x"),
                "{model}: refined x differs"
            );
        }
    }

    #[test]
    fn guard_fetches_are_inserted_for_nonleaf_scheme() {
        let (spec, graph, alloc, part) = fig1();
        let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model1).expect("refines");
        // The guard on x must now read a temporary, fetched at the end of
        // A's body (A is the predecessor of both guarded arcs).
        let top = refined.spec.behavior_by_name("Top").unwrap();
        let guards: Vec<_> = refined.spec.behavior(top).transitions().to_vec();
        assert!(guards.iter().any(|t| t.cond.is_some()));
        let tmp = refined.spec.variable_by_name("Top_tmp_x");
        assert!(tmp.is_some(), "guard temporary exists");
        // A's copied body ends with a protocol call (the fetch).
        let a = refined.spec.behavior_by_name("A").unwrap();
        let body = refined.spec.behavior(a).body().unwrap();
        assert!(
            matches!(body.last(), Some(Stmt::Call { .. })),
            "fetch appended to A"
        );
    }

    #[test]
    fn model3_creates_multiport_memory_behaviors() {
        let (spec, graph, alloc, part) = fig1();
        let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model3).expect("refines");
        // x is global (accessed from both components) -> Gmem with 2
        // ports -> a second port behavior exists.
        let gmem_ports = refined
            .spec
            .behaviors()
            .filter(|(_, b)| b.name().starts_with("Gmem_"))
            .count();
        assert!(gmem_ports >= 2, "expected 2+ Gmem port behaviors");
    }

    #[test]
    fn model4_creates_interfaces_when_remote_access_exists() {
        let (spec, graph, alloc, part) = fig1();
        let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model4).expect("refines");
        assert!(
            !refined.architecture.interfaces.is_empty(),
            "remote accesses require interfaces"
        );
        assert!(refined
            .spec
            .behaviors()
            .any(|(_, b)| b.name().contains("Bus_interface")));
    }

    #[test]
    fn channel_buses_cover_all_data_channels() {
        let (spec, graph, alloc, part) = fig1();
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
            assert_eq!(
                refined.channel_buses.len(),
                graph.data_channel_count(),
                "{model}"
            );
        }
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    #[test]
    fn unassigned_behavior_is_reported() {
        let mut b = SpecBuilder::new("err");
        let x = b.var_int("x", 16, 0);
        let leaf = b.leaf("L", vec![stmt::assign(x, expr::lit(1))]);
        let top = b.seq_in_order("Top", vec![leaf]);
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        // No default, no assignments: nothing resolves.
        let part = Partition::new();
        match refine(&spec, &graph, &alloc, &part, ImplModel::Model1) {
            Err(RefineError::UnassignedBehavior(_)) => {}
            other => panic!("expected unassigned-behavior error, got {other:?}"),
        }
    }

    #[test]
    fn empty_allocation_is_reported() {
        let mut b = SpecBuilder::new("err2");
        let leaf = b.leaf("L", vec![]);
        let top = b.seq_in_order("Top", vec![leaf]);
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let part = Partition::new();
        match refine(&spec, &graph, &Allocation::new(), &part, ImplModel::Model2) {
            Err(RefineError::EmptyAllocation) => {}
            other => panic!("expected empty-allocation error, got {other:?}"),
        }
    }

    #[test]
    fn refined_names_never_collide_with_hostile_originals() {
        // The original spec already uses the names refinement would like
        // to mint; fresh-name generation must keep everything unique and
        // the output valid.
        let mut b = SpecBuilder::new("hostile");
        let x = b.var_int("B_tmp_x", 16, 0); // looks like a tmp
        let ctrl = b.leaf("B_CTRL", vec![stmt::assign(x, expr::lit(1))]);
        let bb = b.leaf(
            "B",
            vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
        );
        let top = b.seq_in_order("System", vec![ctrl, bb]); // steals "System"
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let proc = alloc.by_name("PROC").unwrap();
        let asic = alloc.by_name("ASIC").unwrap();
        let mut part = Partition::with_default(proc);
        part.assign_behavior(spec.behavior_by_name("B").unwrap(), asic);
        part.assign_var(spec.variable_by_name("B_tmp_x").unwrap(), asic);
        let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model1)
            .expect("hostile names still refine");
        // Validation inside refine() already guarantees uniqueness; also
        // check behavior equivalence.
        let orig = modref_sim::Simulator::new(&spec).run().expect("orig");
        let res = modref_sim::Simulator::new(&refined.spec)
            .run()
            .expect("refined");
        assert!(orig.diff_common_vars(&res).is_empty());
    }
}
