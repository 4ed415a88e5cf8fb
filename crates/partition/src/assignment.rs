//! Partitions: mapping behaviors and variables to components.
//!
//! A [`Partition`] records explicit assignments; behaviors without one
//! inherit their parent's component, so a design can be partitioned at any
//! granularity of the hierarchy. Variables are classified *local* (all
//! accessors live on the variable's home component) or *global* (accessed
//! across partition boundaries) — the paper's Section 3 definitions, and
//! the axis along which Design1/2/3 differ.

use std::collections::HashMap;

use modref_graph::AccessGraph;
use modref_spec::{BehaviorId, Spec, VarId};

use crate::component::{Allocation, ComponentId};

/// Local/global classification of a variable under a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarClass {
    /// Every accessor resides on the variable's home component.
    Local,
    /// Some accessor resides on another component.
    Global,
}

/// A mapping of behaviors and variables to allocated components.
///
/// # Example
///
/// ```
/// use modref_partition::{Allocation, Partition};
/// use modref_spec::builder::SpecBuilder;
///
/// let mut b = SpecBuilder::new("p");
/// let leaf = b.leaf("A", vec![]);
/// let top = b.seq_in_order("Top", vec![leaf]);
/// let spec = b.finish(top)?;
/// let alloc = Allocation::proc_plus_asic();
/// let asic = alloc.by_name("ASIC").unwrap();
/// let mut part = Partition::with_default(alloc.by_name("PROC").unwrap());
/// part.assign_behavior(leaf, asic);
/// assert_eq!(part.component_of_behavior(&spec, leaf), Some(asic));
/// assert!(part.is_complete(&spec, &alloc));
/// # Ok::<(), modref_spec::SpecError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Partition {
    behaviors: HashMap<BehaviorId, ComponentId>,
    vars: HashMap<VarId, ComponentId>,
    default: Option<ComponentId>,
}

impl Partition {
    /// Creates an empty partition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a partition whose unassigned behaviors fall back to
    /// `default` (typically the processor, mirroring a software-first
    /// flow).
    pub fn with_default(default: ComponentId) -> Self {
        Self {
            default: Some(default),
            ..Self::default()
        }
    }

    /// Assigns a behavior (and implicitly its unassigned descendants) to a
    /// component.
    pub fn assign_behavior(&mut self, behavior: BehaviorId, component: ComponentId) {
        self.behaviors.insert(behavior, component);
    }

    /// Assigns a variable's home to a component.
    pub fn assign_var(&mut self, var: VarId, component: ComponentId) {
        self.vars.insert(var, component);
    }

    /// The component a behavior executes on: its explicit assignment,
    /// else the nearest ancestor's, else the partition default.
    pub fn component_of_behavior(&self, spec: &Spec, behavior: BehaviorId) -> Option<ComponentId> {
        let mut cur = Some(behavior);
        while let Some(b) = cur {
            if let Some(&c) = self.behaviors.get(&b) {
                return Some(c);
            }
            cur = spec.parent_of(b);
        }
        self.default
    }

    /// The component a variable is stored on: its explicit assignment,
    /// else its declaring behavior's component, else the default.
    pub fn component_of_var(&self, spec: &Spec, var: VarId) -> Option<ComponentId> {
        if let Some(&c) = self.vars.get(&var) {
            return Some(c);
        }
        if let Some(scope) = spec.variable(var).scope() {
            return self.component_of_behavior(spec, scope);
        }
        self.default
    }

    /// Classifies a variable as local or global under this partition.
    ///
    /// A variable is **global** when at least one behavior accessing it
    /// resides on a component other than the variable's home; otherwise it
    /// is **local** (Section 3 of the paper).
    pub fn classify_var(&self, spec: &Spec, graph: &AccessGraph, var: VarId) -> VarClass {
        let home = self.component_of_var(spec, var);
        for b in graph.behaviors_accessing(var) {
            if self.component_of_behavior(spec, b) != home {
                return VarClass::Global;
            }
        }
        VarClass::Local
    }

    /// All variables of the spec classified under this partition,
    /// returned as `(locals, globals)`.
    pub fn classify_all(&self, spec: &Spec, graph: &AccessGraph) -> (Vec<VarId>, Vec<VarId>) {
        let mut locals = Vec::new();
        let mut globals = Vec::new();
        for (v, _) in spec.variables() {
            match self.classify_var(spec, graph, v) {
                VarClass::Local => locals.push(v),
                VarClass::Global => globals.push(v),
            }
        }
        (locals, globals)
    }

    /// The variables homed on a given component.
    pub fn vars_on(&self, spec: &Spec, component: ComponentId) -> Vec<VarId> {
        spec.variables()
            .filter(|(v, _)| self.component_of_var(spec, *v) == Some(component))
            .map(|(v, _)| v)
            .collect()
    }

    /// The leaf behaviors executing on a given component.
    pub fn leaves_on(&self, spec: &Spec, component: ComponentId) -> Vec<BehaviorId> {
        spec.leaves()
            .into_iter()
            .filter(|&b| self.component_of_behavior(spec, b) == Some(component))
            .collect()
    }

    /// Whether a behavior's component differs from its parent's — the
    /// trigger for the paper's control-related refinement (Figure 4).
    pub fn crosses_parent(&self, spec: &Spec, behavior: BehaviorId) -> bool {
        match spec.parent_of(behavior) {
            Some(parent) => {
                self.component_of_behavior(spec, behavior)
                    != self.component_of_behavior(spec, parent)
            }
            None => false,
        }
    }

    /// Iterates over explicit behavior assignments.
    pub fn behavior_assignments(&self) -> impl Iterator<Item = (BehaviorId, ComponentId)> + '_ {
        self.behaviors.iter().map(|(&b, &c)| (b, c))
    }

    /// Iterates over explicit variable assignments.
    pub fn var_assignments(&self) -> impl Iterator<Item = (VarId, ComponentId)> + '_ {
        self.vars.iter().map(|(&v, &c)| (v, c))
    }

    /// Validates that every referenced component exists in `allocation`
    /// and that every leaf behavior and variable resolves to a component.
    pub fn is_complete(&self, spec: &Spec, allocation: &Allocation) -> bool {
        let valid =
            |c: Option<ComponentId>| c.map(|c| c.index() < allocation.len()).unwrap_or(false);
        spec.leaves()
            .into_iter()
            .all(|b| valid(self.component_of_behavior(spec, b)))
            && spec
                .variables()
                .all(|(v, _)| valid(self.component_of_var(spec, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Allocation;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    /// Figure 2 of the paper, reduced: B1 on PROC accesses v4 (global) and
    /// v1 (local); B3 on ASIC accesses v4 and v5.
    fn fig2() -> (Spec, AccessGraph, Partition, Allocation, [VarId; 3]) {
        let mut b = SpecBuilder::new("fig2");
        let v1 = b.var_int("v1", 16, 0);
        let v4 = b.var_int("v4", 16, 0);
        let v5 = b.var_int("v5", 16, 0);
        let b1 = b.leaf(
            "B1",
            vec![
                stmt::assign(v1, expr::lit(1)),
                stmt::assign(v4, expr::var(v1)),
            ],
        );
        let b3 = b.leaf("B3", vec![stmt::assign(v5, expr::var(v4))]);
        let top = b.concurrent("Top", vec![b1, b3]);
        let spec = b.finish(top).expect("valid");
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let proc = alloc.by_name("PROC").unwrap();
        let asic = alloc.by_name("ASIC").unwrap();
        let mut part = Partition::new();
        part.assign_behavior(b1, proc);
        part.assign_behavior(b3, asic);
        part.assign_behavior(top, proc);
        part.assign_var(v1, proc);
        part.assign_var(v4, proc);
        part.assign_var(v5, asic);
        (spec, graph, part, alloc, [v1, v4, v5])
    }

    #[test]
    fn classifies_local_and_global() {
        let (spec, graph, part, _, [v1, v4, v5]) = fig2();
        assert_eq!(part.classify_var(&spec, &graph, v1), VarClass::Local);
        // v4 lives on PROC but B3 (ASIC) reads it -> global.
        assert_eq!(part.classify_var(&spec, &graph, v4), VarClass::Global);
        // v5 lives on ASIC and only B3 (ASIC) touches it -> local.
        assert_eq!(part.classify_var(&spec, &graph, v5), VarClass::Local);
        let (locals, globals) = part.classify_all(&spec, &graph);
        assert_eq!(locals, vec![v1, v5]);
        assert_eq!(globals, vec![v4]);
    }

    #[test]
    fn inheritance_falls_back_to_parent() {
        let mut b = SpecBuilder::new("inherit");
        let leaf = b.leaf("L", vec![]);
        let top = b.seq_in_order("Top", vec![leaf]);
        let spec = b.finish(top).expect("valid");
        let alloc = Allocation::proc_plus_asic();
        let asic = alloc.by_name("ASIC").unwrap();
        let mut part = Partition::new();
        part.assign_behavior(top, asic);
        assert_eq!(part.component_of_behavior(&spec, leaf), Some(asic));
        assert!(!part.crosses_parent(&spec, leaf));
    }

    #[test]
    fn crosses_parent_detects_moved_behavior() {
        let (spec, _, part, _, _) = fig2();
        let b3 = spec.behavior_by_name("B3").unwrap();
        assert!(part.crosses_parent(&spec, b3));
        let b1 = spec.behavior_by_name("B1").unwrap();
        assert!(!part.crosses_parent(&spec, b1));
    }

    #[test]
    fn vars_on_and_leaves_on() {
        let (spec, _, part, alloc, [v1, v4, v5]) = fig2();
        let proc = alloc.by_name("PROC").unwrap();
        let asic = alloc.by_name("ASIC").unwrap();
        let mut on_proc = part.vars_on(&spec, proc);
        on_proc.sort();
        assert_eq!(on_proc, vec![v1, v4]);
        assert_eq!(part.vars_on(&spec, asic), vec![v5]);
        assert_eq!(part.leaves_on(&spec, proc).len(), 1);
    }

    #[test]
    fn completeness_requires_every_leaf_mapped() {
        let (spec, _, part, alloc, _) = fig2();
        assert!(part.is_complete(&spec, &alloc));
        let empty = Partition::new();
        assert!(!empty.is_complete(&spec, &alloc));
        let defaulted = Partition::with_default(alloc.by_name("PROC").unwrap());
        assert!(defaulted.is_complete(&spec, &alloc));
    }
}
