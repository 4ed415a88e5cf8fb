//! Static sensitivity analysis for `wait until` conditions.
//!
//! The event scheduler re-evaluates a blocked condition only when
//! something it *reads* was written. This module derives that read set —
//! the condition's **sensitivity set** of variables and signals — with a
//! read-set walk over [`Expr`], and pre-derives it for every `wait until`
//! condition appearing in a specification (leaf bodies and subroutine
//! bodies alike, via [`modref_spec::visit::for_each_stmt`]).
//!
//! A condition's value can only change when a member of its sensitivity
//! set is written: expressions are side-effect free, and subroutine
//! parameters (the only other thing a condition can read) are bound per
//! call frame, so they cannot change while the owning process is blocked.
//! Conditions with an *empty* sensitivity set are constant while blocked
//! — they were false when the process blocked and can never become true,
//! so the kernel never needs to revisit them.

use std::collections::HashMap;

use modref_spec::visit::for_each_stmt;
use modref_spec::{Expr, SignalId, Spec, Stmt, VarId, WaitCond};

/// The read set of one `wait until` condition: every variable and signal
/// whose value the condition depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensitivitySet {
    /// Variables read by the condition (sorted, deduplicated).
    pub vars: Vec<VarId>,
    /// Signals read by the condition (sorted, deduplicated).
    pub signals: Vec<SignalId>,
}

impl SensitivitySet {
    /// Derives the sensitivity set of a condition expression.
    pub fn of(cond: &Expr) -> Self {
        let mut vars = cond.reads();
        vars.sort_unstable();
        vars.dedup();
        let mut signals = cond.signal_reads();
        signals.sort_unstable();
        signals.dedup();
        Self { vars, signals }
    }

    /// Whether the condition reads nothing mutable — a constant while the
    /// waiting process is blocked.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty() && self.signals.is_empty()
    }
}

/// One `wait until` site as the event scheduler sees it: the executor's
/// form of the condition plus the condition's sensitivity lists as
/// variable and signal slot indices (sorted, deduplicated).
#[derive(Debug, Clone)]
pub(crate) struct WaitSite<C> {
    pub cond: C,
    pub vars: Box<[u32]>,
    pub sigs: Box<[u32]>,
}

impl<C> WaitSite<C> {
    /// A site executing `cond`, sensitive to what `source` reads.
    pub(crate) fn new(cond: C, source: &Expr) -> Self {
        let sens = SensitivitySet::of(source);
        Self {
            cond,
            vars: sens.vars.iter().map(|v| v.index() as u32).collect(),
            sigs: sens.signals.iter().map(|s| s.index() as u32).collect(),
        }
    }
}

/// A cache of sensitivity sets keyed by condition expression, pre-filled
/// from a specification's statically known `wait until` statements.
#[derive(Debug)]
pub struct SensitivityMap {
    map: HashMap<Expr, SensitivitySet>,
}

impl SensitivityMap {
    /// Walks every behavior body and subroutine body of `spec`, deriving
    /// the sensitivity set of each distinct `wait until` condition.
    pub fn build(spec: &Spec) -> Self {
        let mut map = HashMap::new();
        let mut collect = |stmts: &[Stmt]| {
            for_each_stmt(stmts, &mut |s| {
                if let Stmt::Wait(WaitCond::Until(cond)) = s {
                    map.entry(cond.clone())
                        .or_insert_with(|| SensitivitySet::of(cond));
                }
            });
        };
        for (_, b) in spec.behaviors() {
            if let Some(body) = b.body() {
                collect(body);
            }
        }
        for (_, sub) in spec.subroutines() {
            collect(sub.body());
        }
        Self { map }
    }

    /// The sensitivity set of `cond`, derived on first use if the
    /// condition was not statically visible (defensive; every condition a
    /// process can block on appears in some body).
    pub fn of(&mut self, cond: &Expr) -> &SensitivitySet {
        self.map
            .entry(cond.clone())
            .or_insert_with(|| SensitivitySet::of(cond))
    }

    /// Number of distinct conditions analyzed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no conditions were found.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    #[test]
    fn read_set_covers_vars_and_signals() {
        let mut b = SpecBuilder::new("s");
        let x = b.var_int("x", 16, 0);
        let y = b.var_int("y", 16, 0);
        let sig = b.signal_bit("req");
        let cond = expr::and(
            expr::gt(expr::add(expr::var(x), expr::var(y)), expr::lit(1)),
            expr::eq(expr::signal(sig), expr::lit(1)),
        );
        let s = SensitivitySet::of(&cond);
        assert_eq!(s.vars, vec![x, y]);
        assert_eq!(s.signals, vec![sig]);
        assert!(!s.is_empty());
        // Needed for the builder to be used.
        let leaf = b.leaf("L", vec![stmt::wait_until(cond)]);
        let top = b.seq_in_order("Top", vec![leaf]);
        let spec = b.finish(top).expect("valid");
        let map = SensitivityMap::build(&spec);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn duplicate_reads_are_deduplicated() {
        let v = modref_spec::VarId::from_raw(3);
        let cond = expr::and(
            expr::gt(expr::var(v), expr::lit(0)),
            expr::lt(expr::var(v), expr::lit(9)),
        );
        let s = SensitivitySet::of(&cond);
        assert_eq!(s.vars.len(), 1);
    }

    #[test]
    fn literal_condition_is_empty() {
        let s = SensitivitySet::of(&expr::lit(0));
        assert!(s.is_empty());
    }

    #[test]
    fn map_collects_conditions_from_subroutines() {
        let mut b = SpecBuilder::new("s");
        let sig = b.signal_bit("ack");
        let leaf = b.leaf(
            "L",
            vec![stmt::if_then(
                expr::lit(1),
                vec![stmt::wait_until(expr::eq(expr::signal(sig), expr::lit(1)))],
            )],
        );
        let top = b.seq_in_order("Top", vec![leaf]);
        let spec = b.finish(top).expect("valid");
        let mut map = SensitivityMap::build(&spec);
        // Nested wait was found statically.
        assert_eq!(map.len(), 1);
        // Fallback path still derives unseen conditions.
        let fresh = expr::eq(expr::signal(sig), expr::lit(0));
        assert_eq!(map.of(&fresh).signals, vec![sig]);
        assert_eq!(map.len(), 2);
    }
}
