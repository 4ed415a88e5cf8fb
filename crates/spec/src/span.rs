//! Source spans and the side-table mapping IR objects back to them.
//!
//! The IR enums ([`Stmt`](crate::Stmt), [`Expr`](crate::Expr)) carry no
//! positions — they are compared, hashed and rewritten structurally by
//! the refinement engine, and most specs are built programmatically with
//! no source text at all. Positions therefore live in a *side table*: the
//! parser's [`parse_with_spans`](crate::parser::parse_with_spans) records
//! a [`SourceMap`] keyed by entity id (declarations, transitions) or by
//! [`StmtPath`] (statements, addressed by their structural position),
//! and diagnostics look positions up on demand. Builder-constructed
//! specs simply have an empty map and render without locations.

use std::collections::HashMap;
use std::fmt;

use crate::error::SpecError;
use crate::ids::{BehaviorId, SignalId, SubroutineId, VarId};
use crate::spec::Spec;

/// A source position: 1-based line and column of the first token of the
/// construct (matching the lexer's convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Span {
    /// Creates a span at the given position.
    pub fn new(line: u32, col: u32) -> Self {
        Self { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// The body a statement lives in: a leaf behavior's or a subroutine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StmtOwner {
    /// A leaf behavior's body.
    Behavior(BehaviorId),
    /// A subroutine's body.
    Subroutine(SubroutineId),
}

/// One step of a [`StmtPath`]: which nested block of the parent
/// statement (`0` = first/only body, `1` = the `else` body of an `if`)
/// and the statement's index within that block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtStep {
    /// Block index within the parent statement's child bodies.
    pub block: u8,
    /// Statement index within the block.
    pub index: u32,
}

/// The structural address of a statement: its owner body plus the chain
/// of (block, index) steps from the body root. Stable for a given parsed
/// spec, which is all a lint pass needs — analyses walk the same
/// statement tree the parser recorded.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StmtPath {
    /// The body containing the statement.
    pub owner: StmtOwner,
    /// Steps from the body root down to the statement.
    pub steps: Vec<StmtStep>,
}

impl StmtPath {
    /// The path addressing the root block of `owner` (no steps yet).
    pub fn root(owner: StmtOwner) -> Self {
        Self {
            owner,
            steps: Vec::new(),
        }
    }

    /// The path of statement `index` in child block `block` of `self`.
    pub fn child(&self, block: u8, index: u32) -> Self {
        let mut steps = self.steps.clone();
        steps.push(StmtStep { block, index });
        Self {
            owner: self.owner,
            steps,
        }
    }
}

/// Side table mapping IR objects to source positions. Produced by
/// [`parse_with_spans`](crate::parser::parse_with_spans); empty for
/// builder-constructed specs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceMap {
    behaviors: HashMap<BehaviorId, Span>,
    variables: HashMap<VarId, Span>,
    signals: HashMap<SignalId, Span>,
    subroutines: HashMap<SubroutineId, Span>,
    transitions: HashMap<(BehaviorId, usize), Span>,
    stmts: HashMap<StmtPath, Span>,
}

impl SourceMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a behavior declaration's position.
    pub fn record_behavior(&mut self, id: BehaviorId, span: Span) {
        self.behaviors.insert(id, span);
    }

    /// Records a variable declaration's position.
    pub fn record_variable(&mut self, id: VarId, span: Span) {
        self.variables.insert(id, span);
    }

    /// Records a signal declaration's position.
    pub fn record_signal(&mut self, id: SignalId, span: Span) {
        self.signals.insert(id, span);
    }

    /// Records a subroutine declaration's position.
    pub fn record_subroutine(&mut self, id: SubroutineId, span: Span) {
        self.subroutines.insert(id, span);
    }

    /// Records the position of arc `index` of composite `behavior`.
    pub fn record_transition(&mut self, behavior: BehaviorId, index: usize, span: Span) {
        self.transitions.insert((behavior, index), span);
    }

    /// Records a statement's position.
    pub fn record_stmt(&mut self, path: StmtPath, span: Span) {
        self.stmts.insert(path, span);
    }

    /// The position of a behavior declaration, if recorded.
    pub fn behavior_span(&self, id: BehaviorId) -> Option<Span> {
        self.behaviors.get(&id).copied()
    }

    /// The position of a variable declaration, if recorded.
    pub fn variable_span(&self, id: VarId) -> Option<Span> {
        self.variables.get(&id).copied()
    }

    /// The position of a signal declaration, if recorded.
    pub fn signal_span(&self, id: SignalId) -> Option<Span> {
        self.signals.get(&id).copied()
    }

    /// The position of a subroutine declaration, if recorded.
    pub fn subroutine_span(&self, id: SubroutineId) -> Option<Span> {
        self.subroutines.get(&id).copied()
    }

    /// The position of arc `index` of composite `behavior`, if recorded.
    pub fn transition_span(&self, behavior: BehaviorId, index: usize) -> Option<Span> {
        self.transitions.get(&(behavior, index)).copied()
    }

    /// The position of a statement, if recorded.
    pub fn stmt_span(&self, path: &StmtPath) -> Option<Span> {
        self.stmts.get(path).copied()
    }

    /// Whether the map holds no positions at all (builder-built spec).
    pub fn is_empty(&self) -> bool {
        self.behaviors.is_empty()
            && self.variables.is_empty()
            && self.signals.is_empty()
            && self.subroutines.is_empty()
            && self.transitions.is_empty()
            && self.stmts.is_empty()
    }
}

/// Best-effort source position for a structural [`SpecError`]: the
/// declaration of the entity the error names. For [`SpecError::DuplicateName`]
/// this is the *second* declaration with that name (the one a user would
/// delete or rename). Returns `None` when the map has no entry (e.g. a
/// builder-constructed spec) or the error carries no locatable object.
pub fn spec_error_span(spec: &Spec, map: &SourceMap, err: &SpecError) -> Option<Span> {
    match err {
        SpecError::UnknownBehavior(b)
        | SpecError::SharedChild(b)
        | SpecError::HierarchyCycle(b)
        | SpecError::TopIsChild(b)
        | SpecError::HierarchyTooDeep(b) => map.behavior_span(*b),
        SpecError::TransitionNotSibling { parent, .. } => map.behavior_span(*parent),
        SpecError::UnknownVar(v) | SpecError::IndexingMismatch(v) => map.variable_span(*v),
        SpecError::UnknownSignal(s) => map.signal_span(*s),
        SpecError::UnknownSubroutine(s) | SpecError::CallArityMismatch { sub: s, .. } => {
            map.subroutine_span(*s)
        }
        SpecError::DuplicateName { kind, name } => match *kind {
            "behavior" => spec
                .behaviors()
                .filter(|(_, b)| b.name() == name)
                .nth(1)
                .and_then(|(id, _)| map.behavior_span(id)),
            "variable" => spec
                .variables()
                .filter(|(_, v)| v.name() == name)
                .nth(1)
                .and_then(|(id, _)| map.variable_span(id)),
            "signal" => spec
                .signals()
                .filter(|(_, s)| s.name() == name)
                .nth(1)
                .and_then(|(id, _)| map.signal_span(id)),
            "subroutine" => spec
                .subroutines()
                .filter(|(_, s)| s.name() == name)
                .nth(1)
                .and_then(|(id, _)| map.subroutine_span(id)),
            _ => None,
        },
        SpecError::UnresolvedName(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stmt_paths_distinguish_blocks() {
        let owner = StmtOwner::Behavior(BehaviorId::from_raw(0));
        let root = StmtPath::root(owner);
        let then_first = root.child(0, 2).child(0, 0);
        let else_first = root.child(0, 2).child(1, 0);
        assert_ne!(then_first, else_first);
        assert_eq!(then_first.steps.len(), 2);
    }

    #[test]
    fn map_round_trips_positions() {
        let mut map = SourceMap::new();
        assert!(map.is_empty());
        let b = BehaviorId::from_raw(3);
        map.record_behavior(b, Span::new(4, 1));
        assert_eq!(map.behavior_span(b), Some(Span::new(4, 1)));
        assert_eq!(map.behavior_span(BehaviorId::from_raw(9)), None);
        assert!(!map.is_empty());
        assert_eq!(Span::new(4, 1).to_string(), "4:1");
    }
}
