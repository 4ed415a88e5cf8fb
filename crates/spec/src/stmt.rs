//! Sequential statements for leaf behaviors and subroutine bodies.
//!
//! The statement set mirrors the VHDL sequential subset SpecCharts uses:
//! variable assignment, branching, loops, waits and signal assignment —
//! plus subroutine calls, which the refinement engine inserts when it
//! replaces direct variable accesses with bus protocols
//! (`MST_send`/`MST_receive`/...).

use crate::expr::Expr;
use crate::ids::{SignalId, SubroutineId, VarId};

/// The target of a variable assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LValue {
    /// A scalar variable.
    Var(VarId),
    /// One element of an array variable.
    Index(VarId, Expr),
    /// An `out` parameter of the enclosing subroutine, by name. Parameter
    /// storage is per-call-frame, so concurrent behaviors can execute the
    /// same protocol subroutine simultaneously without interference.
    Param(String),
}

impl LValue {
    /// The variable being written, or `None` for frame-local parameter
    /// targets.
    pub fn var_opt(&self) -> Option<VarId> {
        match self {
            LValue::Var(v) => Some(*v),
            LValue::Index(v, _) => Some(*v),
            LValue::Param(_) => None,
        }
    }

    /// The variable being written, regardless of indexing.
    ///
    /// # Panics
    ///
    /// Panics on [`LValue::Param`] targets, which have no variable.
    pub fn var(&self) -> VarId {
        self.var_opt().expect("parameter lvalue has no variable")
    }

    /// Variables *read* while evaluating the target (index expressions).
    pub fn reads(&self) -> Vec<VarId> {
        match self {
            LValue::Var(_) | LValue::Param(_) => Vec::new(),
            LValue::Index(_, idx) => idx.reads(),
        }
    }
}

/// What a [`Stmt::Wait`] statement blocks on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WaitCond {
    /// Block until the expression (over signals and variables) is non-zero.
    /// Re-evaluated whenever any signal changes.
    Until(Expr),
    /// Block for the given number of simulation time units.
    For(u64),
}

/// An actual argument to a subroutine call.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CallArg {
    /// An input argument: any expression, evaluated at call time.
    In(Expr),
    /// An output argument: an lvalue written when the callee assigns the
    /// corresponding `out` parameter.
    Out(LValue),
}

/// A sequential statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `target := value;` — variable assignment.
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// `set sig := value;` — signal assignment, visible to other concurrent
    /// behaviors at the next delta cycle.
    SignalSet {
        /// Signal to drive.
        signal: SignalId,
        /// New value.
        value: Expr,
    },
    /// `wait until (cond);` or `wait for n;`
    Wait(WaitCond),
    /// `if (cond) { .. } else { .. }`
    If {
        /// Branch condition.
        cond: Expr,
        /// Statements executed when the condition is non-zero.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise (empty for a plain `if`).
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition, tested before each iteration.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Static trip-count hint used by the estimator when the bound is
        /// not a compile-time constant. `None` means "unknown"; the
        /// estimator falls back to a default.
        trip_hint: Option<u32>,
    },
    /// `for v in from .. to { .. }` — inclusive of `from`, exclusive of `to`.
    For {
        /// Loop induction variable (a declared variable).
        var: VarId,
        /// Lower bound (inclusive).
        from: Expr,
        /// Upper bound (exclusive).
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `loop { .. }` — an infinite loop. The control-related refinement of
    /// the paper wraps moved behaviors in one of these (Figure 4(b)).
    Loop {
        /// Loop body, repeated forever.
        body: Vec<Stmt>,
    },
    /// `call sub(args...);` — invoke a subroutine (protocol operation).
    Call {
        /// The subroutine to invoke.
        sub: SubroutineId,
        /// Actual arguments, positionally matched to the declaration.
        args: Vec<CallArg>,
    },
    /// `delay n;` — consume n time units (models computation latency).
    Delay(u64),
    /// `skip;` — no operation.
    Skip,
}

impl Stmt {
    /// Variables read by this statement (not recursing into nested bodies).
    pub fn direct_reads(&self) -> Vec<VarId> {
        match self {
            Stmt::Assign { target, value } => {
                let mut r = target.reads();
                r.extend(value.reads());
                r
            }
            Stmt::SignalSet { value, .. } => value.reads(),
            Stmt::Wait(WaitCond::Until(e)) => e.reads(),
            Stmt::Wait(WaitCond::For(_)) => Vec::new(),
            Stmt::If { cond, .. } => cond.reads(),
            Stmt::While { cond, .. } => cond.reads(),
            Stmt::For { from, to, .. } => {
                let mut r = from.reads();
                r.extend(to.reads());
                r
            }
            Stmt::Loop { .. } => Vec::new(),
            Stmt::Call { args, .. } => {
                let mut r = Vec::new();
                for a in args {
                    match a {
                        CallArg::In(e) => r.extend(e.reads()),
                        CallArg::Out(lv) => r.extend(lv.reads()),
                    }
                }
                r
            }
            Stmt::Delay(_) | Stmt::Skip => Vec::new(),
        }
    }

    /// Variables written by this statement (not recursing into bodies).
    pub fn direct_writes(&self) -> Vec<VarId> {
        match self {
            Stmt::Assign { target, .. } => target.var_opt().into_iter().collect(),
            Stmt::For { var, .. } => vec![*var],
            Stmt::Call { args, .. } => args
                .iter()
                .filter_map(|a| match a {
                    CallArg::Out(lv) => lv.var_opt(),
                    CallArg::In(_) => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Child statement bodies, for generic traversal: the two branches
    /// of an `if`, the body of a loop, none otherwise. Walking them
    /// allocates nothing.
    pub fn bodies(&self) -> impl Iterator<Item = &[Stmt]> {
        let (bodies, count): ([&[Stmt]; 2], usize) = match self {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => ([then_body, else_body], 2),
            Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Loop { body } => {
                ([body, &[]], 1)
            }
            _ => ([&[], &[]], 0),
        };
        bodies.into_iter().take(count)
    }

    /// Total number of statements in this statement including itself and
    /// everything nested inside it.
    pub fn size(&self) -> usize {
        1 + self
            .bodies()
            .flat_map(|b| b.iter())
            .map(Stmt::size)
            .sum::<usize>()
    }
}

// --- free constructor helpers ---

/// `v := e;`
pub fn assign(v: VarId, e: Expr) -> Stmt {
    Stmt::Assign {
        target: LValue::Var(v),
        value: e,
    }
}

/// `v[i] := e;`
pub fn assign_index(v: VarId, i: Expr, e: Expr) -> Stmt {
    Stmt::Assign {
        target: LValue::Index(v, i),
        value: e,
    }
}

/// `set s := e;`
pub fn set_signal(s: SignalId, e: Expr) -> Stmt {
    Stmt::SignalSet {
        signal: s,
        value: e,
    }
}

/// `wait until (e);`
pub fn wait_until(e: Expr) -> Stmt {
    Stmt::Wait(WaitCond::Until(e))
}

/// `wait for n;`
pub fn wait_for(n: u64) -> Stmt {
    Stmt::Wait(WaitCond::For(n))
}

/// `if (cond) { then_body }`
pub fn if_then(cond: Expr, then_body: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_body,
        else_body: Vec::new(),
    }
}

/// `if (cond) { then_body } else { else_body }`
pub fn if_else(cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_body,
        else_body,
    }
}

/// `while (cond) { body }`
pub fn while_loop(cond: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::While {
        cond,
        body,
        trip_hint: None,
    }
}

/// `while (cond) { body }` with a static trip-count hint for the estimator.
pub fn while_loop_hinted(cond: Expr, body: Vec<Stmt>, trips: u32) -> Stmt {
    Stmt::While {
        cond,
        body,
        trip_hint: Some(trips),
    }
}

/// `for v in from..to { body }`
pub fn for_loop(v: VarId, from: Expr, to: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        var: v,
        from,
        to,
        body,
    }
}

/// `loop { body }`
pub fn infinite_loop(body: Vec<Stmt>) -> Stmt {
    Stmt::Loop { body }
}

/// `call sub(args);`
pub fn call(sub: SubroutineId, args: Vec<CallArg>) -> Stmt {
    Stmt::Call { sub, args }
}

/// `delay n;`
pub fn delay(n: u64) -> Stmt {
    Stmt::Delay(n)
}

/// `skip;`
pub fn skip() -> Stmt {
    Stmt::Skip
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{self, lit, var};

    fn v(i: u32) -> VarId {
        VarId::from_raw(i)
    }

    #[test]
    fn assign_reads_and_writes() {
        let s = assign(v(0), expr::add(var(v(1)), lit(1)));
        assert_eq!(s.direct_writes(), vec![v(0)]);
        assert_eq!(s.direct_reads(), vec![v(1)]);
    }

    #[test]
    fn indexed_assign_reads_index_expr() {
        let s = assign_index(v(0), var(v(1)), var(v(2)));
        assert_eq!(s.direct_writes(), vec![v(0)]);
        assert_eq!(s.direct_reads(), vec![v(1), v(2)]);
    }

    #[test]
    fn call_out_args_are_writes() {
        let sub = SubroutineId::from_raw(0);
        let s = call(
            sub,
            vec![CallArg::In(var(v(1))), CallArg::Out(LValue::Var(v(2)))],
        );
        assert_eq!(s.direct_reads(), vec![v(1)]);
        assert_eq!(s.direct_writes(), vec![v(2)]);
    }

    #[test]
    fn size_counts_nested_statements() {
        let s = if_else(
            lit(1),
            vec![skip(), skip()],
            vec![while_loop(lit(0), vec![skip()])],
        );
        // if + 2 skips + while + 1 skip = 5
        assert_eq!(s.size(), 5);
    }

    #[test]
    fn bodies_exposes_nested_blocks() {
        let s = while_loop(lit(1), vec![skip(), delay(3)]);
        let bodies: Vec<_> = s.bodies().collect();
        assert_eq!(bodies.len(), 1);
        assert_eq!(bodies[0].len(), 2);
    }

    #[test]
    fn for_writes_induction_var() {
        let s = for_loop(v(3), lit(0), var(v(4)), vec![]);
        assert_eq!(s.direct_writes(), vec![v(3)]);
        assert_eq!(s.direct_reads(), vec![v(4)]);
    }

    #[test]
    fn wait_until_reads_vars() {
        let s = wait_until(expr::gt(var(v(0)), lit(1)));
        assert_eq!(s.direct_reads(), vec![v(0)]);
        assert!(s.direct_writes().is_empty());
    }
}
