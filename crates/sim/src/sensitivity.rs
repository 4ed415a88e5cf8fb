//! Static sensitivity analysis for `wait until` conditions.
//!
//! The event scheduler re-evaluates a blocked condition only when
//! something it *reads* was written. This module derives that read set —
//! the condition's **sensitivity set** of variables and signals — with a
//! read-set walk over [`Expr`]. Each executor derives it once per `wait
//! until` site when it lowers the site to a `WaitSite`.
//!
//! A condition's value can only change when a member of its sensitivity
//! set is written: expressions are side-effect free, and subroutine
//! parameters (the only other thing a condition can read) are bound per
//! call frame, so they cannot change while the owning process is blocked.
//! Conditions with an *empty* sensitivity set are constant while blocked
//! — they were false when the process blocked and can never become true,
//! so the kernel never needs to revisit them.

use modref_spec::{Expr, SignalId, VarId};

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

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::expr;

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
}
