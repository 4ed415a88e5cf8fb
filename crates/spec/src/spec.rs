//! The [`Spec`] container: arenas of behaviors, variables, signals and
//! subroutines plus the designated top behavior.

use std::collections::HashMap;

use crate::behavior::{Behavior, BehaviorKind};
use crate::error::SpecError;
use crate::ids::{Arena, BehaviorId, SignalId, SubroutineId, VarId};
use crate::subroutine::Subroutine;
use crate::types::DataType;

/// A variable: named data storage declared in a behavior's scope.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    pub(crate) name: String,
    pub(crate) ty: DataType,
    pub(crate) init: i64,
    /// The behavior whose scope declares this variable, if any. Variables
    /// introduced by refinement for memories live at spec scope (`None`).
    pub(crate) scope: Option<BehaviorId>,
}

impl Variable {
    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The variable's data type.
    pub fn ty(&self) -> &DataType {
        &self.ty
    }

    /// Initial value (applied to every element for arrays).
    pub fn init(&self) -> i64 {
        self.init
    }

    /// The declaring behavior, or `None` for spec-scope variables.
    pub fn scope(&self) -> Option<BehaviorId> {
        self.scope
    }
}

/// A signal: a wire visible to all behaviors, used for synchronization.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    pub(crate) name: String,
    pub(crate) ty: DataType,
    pub(crate) init: i64,
}

impl Signal {
    /// The signal's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The signal's data type.
    pub fn ty(&self) -> &DataType {
        &self.ty
    }

    /// Initial (reset) value.
    pub fn init(&self) -> i64 {
        self.init
    }
}

/// A complete specification.
///
/// Construct one with [`builder::SpecBuilder`](crate::builder::SpecBuilder)
/// or by parsing text with [`parser::parse`](crate::parser::parse).
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    name: String,
    behaviors: Arena<Behavior>,
    variables: Arena<Variable>,
    signals: Arena<Signal>,
    subroutines: Arena<Subroutine>,
    top: Option<BehaviorId>,
}

impl Spec {
    /// Creates an empty specification with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            behaviors: Arena::new(),
            variables: Arena::new(),
            signals: Arena::new(),
            subroutines: Arena::new(),
            top: None,
        }
    }

    /// The specification's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the specification; refinement derives `<name>_refined`.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The top (root) behavior.
    ///
    /// # Panics
    ///
    /// Panics if no top behavior has been set; `Spec`s produced by the
    /// builder or parser always have one.
    pub fn top(&self) -> BehaviorId {
        self.top.expect("spec has no top behavior")
    }

    /// The top behavior, or `None` if not yet set.
    pub fn top_opt(&self) -> Option<BehaviorId> {
        self.top
    }

    /// Sets the top behavior.
    pub fn set_top(&mut self, top: BehaviorId) {
        self.top = Some(top);
    }

    // --- behaviors ---

    /// Adds a behavior, returning its id.
    pub fn add_behavior(&mut self, behavior: Behavior) -> BehaviorId {
        BehaviorId(self.behaviors.push(behavior))
    }

    /// Looks up a behavior.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this spec.
    pub fn behavior(&self, id: BehaviorId) -> &Behavior {
        self.behaviors.get(id.0).expect("behavior id out of range")
    }

    /// Mutable behavior lookup.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this spec.
    pub fn behavior_mut(&mut self, id: BehaviorId) -> &mut Behavior {
        self.behaviors
            .get_mut(id.0)
            .expect("behavior id out of range")
    }

    /// Fallible behavior lookup.
    pub fn try_behavior(&self, id: BehaviorId) -> Result<&Behavior, SpecError> {
        self.behaviors
            .get(id.0)
            .ok_or(SpecError::UnknownBehavior(id))
    }

    /// Number of behaviors.
    pub fn behavior_count(&self) -> usize {
        self.behaviors.len()
    }

    /// Iterates over `(id, behavior)` pairs in insertion order.
    pub fn behaviors(&self) -> impl Iterator<Item = (BehaviorId, &Behavior)> {
        self.behaviors
            .iter()
            .enumerate()
            .map(|(i, b)| (BehaviorId(i as u32), b))
    }

    /// Finds a behavior by name.
    pub fn behavior_by_name(&self, name: &str) -> Option<BehaviorId> {
        self.behaviors()
            .find(|(_, b)| b.name() == name)
            .map(|(id, _)| id)
    }

    // --- variables ---

    /// Adds a variable scoped to `scope` (or spec scope if `None`).
    pub fn add_variable(
        &mut self,
        name: impl Into<String>,
        ty: DataType,
        init: i64,
        scope: Option<BehaviorId>,
    ) -> VarId {
        let id = VarId(self.variables.push(Variable {
            name: name.into(),
            ty,
            init,
            scope,
        }));
        if let Some(b) = scope {
            self.behavior_mut(b).declare_var(id);
        }
        id
    }

    /// Looks up a variable.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this spec.
    pub fn variable(&self, id: VarId) -> &Variable {
        self.variables.get(id.0).expect("variable id out of range")
    }

    /// Fallible variable lookup.
    pub fn try_variable(&self, id: VarId) -> Result<&Variable, SpecError> {
        self.variables.get(id.0).ok_or(SpecError::UnknownVar(id))
    }

    /// Number of variables.
    pub fn variable_count(&self) -> usize {
        self.variables.len()
    }

    /// Iterates over `(id, variable)` pairs.
    pub fn variables(&self) -> impl Iterator<Item = (VarId, &Variable)> {
        self.variables
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId(i as u32), v))
    }

    /// Finds a variable by name.
    pub fn variable_by_name(&self, name: &str) -> Option<VarId> {
        self.variables()
            .find(|(_, v)| v.name() == name)
            .map(|(id, _)| id)
    }

    // --- signals ---

    /// Adds a signal.
    pub fn add_signal(&mut self, name: impl Into<String>, ty: DataType, init: i64) -> SignalId {
        SignalId(self.signals.push(Signal {
            name: name.into(),
            ty,
            init,
        }))
    }

    /// Looks up a signal.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this spec.
    pub fn signal(&self, id: SignalId) -> &Signal {
        self.signals.get(id.0).expect("signal id out of range")
    }

    /// Fallible signal lookup.
    pub fn try_signal(&self, id: SignalId) -> Result<&Signal, SpecError> {
        self.signals.get(id.0).ok_or(SpecError::UnknownSignal(id))
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Iterates over `(id, signal)` pairs.
    pub fn signals(&self) -> impl Iterator<Item = (SignalId, &Signal)> {
        self.signals
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId(i as u32), s))
    }

    /// Finds a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals()
            .find(|(_, s)| s.name() == name)
            .map(|(id, _)| id)
    }

    // --- subroutines ---

    /// Adds a subroutine.
    pub fn add_subroutine(&mut self, sub: Subroutine) -> SubroutineId {
        SubroutineId(self.subroutines.push(sub))
    }

    /// Looks up a subroutine.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this spec.
    pub fn subroutine(&self, id: SubroutineId) -> &Subroutine {
        self.subroutines
            .get(id.0)
            .expect("subroutine id out of range")
    }

    /// Mutable subroutine lookup.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this spec.
    pub fn subroutine_mut(&mut self, id: SubroutineId) -> &mut Subroutine {
        self.subroutines
            .get_mut(id.0)
            .expect("subroutine id out of range")
    }

    /// Number of subroutines.
    pub fn subroutine_count(&self) -> usize {
        self.subroutines.len()
    }

    /// Iterates over `(id, subroutine)` pairs.
    pub fn subroutines(&self) -> impl Iterator<Item = (SubroutineId, &Subroutine)> {
        self.subroutines
            .iter()
            .enumerate()
            .map(|(i, s)| (SubroutineId(i as u32), s))
    }

    /// Finds a subroutine by name.
    pub fn subroutine_by_name(&self, name: &str) -> Option<SubroutineId> {
        self.subroutines()
            .find(|(_, s)| s.name() == name)
            .map(|(id, _)| id)
    }

    // --- structural queries ---

    /// Builds the child → parent map of the behavior hierarchy.
    pub fn parent_map(&self) -> HashMap<BehaviorId, BehaviorId> {
        let mut map = HashMap::new();
        for (id, b) in self.behaviors() {
            for &c in b.children() {
                map.insert(c, id);
            }
        }
        map
    }

    /// The parent of a behavior, or `None` for the top and orphans.
    pub fn parent_of(&self, id: BehaviorId) -> Option<BehaviorId> {
        self.behaviors()
            .find(|(_, b)| b.children().contains(&id))
            .map(|(pid, _)| pid)
    }

    /// All leaf behaviors reachable from the top, in preorder.
    pub fn leaves(&self) -> Vec<BehaviorId> {
        let mut out = Vec::new();
        if let Some(top) = self.top {
            self.collect_leaves(top, &mut out);
        }
        out
    }

    fn collect_leaves(&self, id: BehaviorId, out: &mut Vec<BehaviorId>) {
        let b = self.behavior(id);
        if b.is_leaf() {
            out.push(id);
        } else {
            for &c in b.children() {
                self.collect_leaves(c, out);
            }
        }
    }

    /// All behaviors reachable from the top, in preorder.
    pub fn reachable(&self) -> Vec<BehaviorId> {
        let mut out = Vec::new();
        if let Some(top) = self.top {
            self.collect_reachable(top, &mut out);
        }
        out
    }

    fn collect_reachable(&self, id: BehaviorId, out: &mut Vec<BehaviorId>) {
        out.push(id);
        for &c in self.behavior(id).children() {
            self.collect_reachable(c, out);
        }
    }

    /// Recursive statement count of a behavior subtree.
    pub fn behavior_size(&self, id: BehaviorId) -> usize {
        let b = self.behavior(id);
        match b.kind() {
            BehaviorKind::Leaf { .. } => b.statement_count(),
            _ => b.children().iter().map(|&c| self.behavior_size(c)).sum(),
        }
    }

    /// Total statement count of the whole spec (reachable from top) plus
    /// subroutine bodies. A size proxy used by estimators and tests; the
    /// paper's Figure 10 uses printed *lines* instead — see
    /// [`printer::line_count`](crate::printer::line_count).
    pub fn total_statements(&self) -> usize {
        let behaviors: usize = self.top.map(|t| self.behavior_size(t)).unwrap_or_default();
        let subs: usize = self
            .subroutines
            .iter()
            .map(|s| s.body().iter().map(crate::stmt::Stmt::size).sum::<usize>())
            .sum();
        behaviors + subs
    }

    /// Generates a name not used by any behavior, of the form
    /// `base`, `base_1`, `base_2`, ...
    pub fn fresh_behavior_name(&self, base: &str) -> String {
        fresh_name(base, |n| self.behavior_by_name(n).is_some())
    }

    /// Generates a variable name not used by any variable or signal:
    /// expressions name both, so the printed text must tell them apart.
    pub fn fresh_variable_name(&self, base: &str) -> String {
        fresh_name(base, |n| self.names_data(n))
    }

    /// Generates a signal name not used by any signal or variable.
    pub fn fresh_signal_name(&self, base: &str) -> String {
        fresh_name(base, |n| self.names_data(n))
    }

    /// Generates a subroutine name not used by any subroutine.
    pub fn fresh_subroutine_name(&self, base: &str) -> String {
        fresh_name(base, |n| self.subroutine_by_name(n).is_some())
    }

    /// Whether a variable or a signal is named `name`.
    fn names_data(&self, name: &str) -> bool {
        self.variable_by_name(name).is_some() || self.signal_by_name(name).is_some()
    }
}

/// The first of `base`, `base_1`, `base_2`, ... that `taken` rejects.
fn fresh_name(base: &str, taken: impl Fn(&str) -> bool) -> String {
    if !taken(base) {
        return base.to_string();
    }
    (1..)
        .map(|i| format!("{base}_{i}"))
        .find(|candidate| !taken(candidate))
        .expect("some suffix is free")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::BehaviorKind;
    use crate::stmt::skip;

    fn leaf(name: &str) -> Behavior {
        Behavior::new(name, BehaviorKind::Leaf { body: vec![skip()] })
    }

    fn two_level_spec() -> (Spec, BehaviorId, BehaviorId, BehaviorId) {
        let mut s = Spec::new("t");
        let a = s.add_behavior(leaf("A"));
        let b = s.add_behavior(leaf("B"));
        let top = s.add_behavior(Behavior::new(
            "Top",
            BehaviorKind::Seq {
                children: vec![a, b],
                transitions: vec![],
            },
        ));
        s.set_top(top);
        (s, top, a, b)
    }

    #[test]
    fn lookup_by_name_and_id() {
        let (s, top, a, _) = two_level_spec();
        assert_eq!(s.behavior_by_name("A"), Some(a));
        assert_eq!(s.behavior(top).name(), "Top");
        assert_eq!(s.behavior_count(), 3);
    }

    #[test]
    fn parent_and_leaves() {
        let (s, top, a, b) = two_level_spec();
        assert_eq!(s.parent_of(a), Some(top));
        assert_eq!(s.parent_of(top), None);
        assert_eq!(s.leaves(), vec![a, b]);
        assert_eq!(s.reachable(), vec![top, a, b]);
    }

    #[test]
    fn variables_register_in_scope() {
        let (mut s, top, _, _) = two_level_spec();
        let v = s.add_variable("x", DataType::int(16), 0, Some(top));
        assert_eq!(s.variable(v).name(), "x");
        assert!(s.behavior(top).declared_vars().contains(&v));
        assert_eq!(s.variable_by_name("x"), Some(v));
    }

    #[test]
    fn behavior_size_is_recursive() {
        let (s, top, a, _) = two_level_spec();
        assert_eq!(s.behavior_size(a), 1);
        assert_eq!(s.behavior_size(top), 2);
        assert_eq!(s.total_statements(), 2);
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let (s, _, _, _) = two_level_spec();
        assert_eq!(s.fresh_behavior_name("C"), "C");
        assert_eq!(s.fresh_behavior_name("A"), "A_1");
    }

    #[test]
    fn fresh_names_avoid_their_namespace() {
        let (mut s, _, _, _) = two_level_spec();
        s.add_signal("go", DataType::Bit, 0);
        s.add_signal("go_1", DataType::Bit, 0);
        s.add_subroutine(Subroutine::new("MST_send", vec![], vec![]));
        assert_eq!(s.fresh_signal_name("go"), "go_2");
        assert_eq!(s.fresh_subroutine_name("MST_send"), "MST_send_1");
        assert_eq!(s.fresh_subroutine_name("go"), "go");
        // Expressions name variables and signals alike.
        assert_eq!(s.fresh_variable_name("go"), "go_2");
    }

    #[test]
    fn signals_and_subroutines() {
        let (mut s, _, _, _) = two_level_spec();
        let sig = s.add_signal("B_start", DataType::Bit, 0);
        assert_eq!(s.signal(sig).name(), "B_start");
        assert_eq!(s.signal_by_name("B_start"), Some(sig));
        let sub = s.add_subroutine(Subroutine::new("MST_send", vec![], vec![]));
        assert_eq!(s.subroutine(sub).name(), "MST_send");
        assert_eq!(s.subroutine_by_name("MST_send"), Some(sub));
    }

    #[test]
    fn try_lookups_report_unknown_ids() {
        let (s, _, _, _) = two_level_spec();
        assert!(s.try_behavior(BehaviorId::from_raw(99)).is_err());
        assert!(s.try_variable(VarId::from_raw(99)).is_err());
        assert!(s.try_signal(SignalId::from_raw(99)).is_err());
    }
}
