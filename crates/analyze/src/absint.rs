//! Interval abstract interpretation over specification expressions.
//!
//! The liveness lints ([`crate::deadlock`]) need to answer one question
//! about a wait condition: *can this expression ever evaluate non-zero?*
//! This module supplies the machinery: a classic interval domain
//! ([`Interval`], a non-empty `[lo, hi]` range with saturating
//! arithmetic), expression evaluation over an environment of per-entity
//! ranges ([`eval`]), and a whole-spec value-range fixpoint
//! ([`global_ranges`]) that joins every reachable write's right-hand
//! side into its target, widening after a few rounds so convergence is
//! immediate even for counting loops.
//!
//! Everything here errs toward *over*-approximation: `TOP` (the full
//! `i64` range) is always a sound answer, subroutine parameters are
//! `TOP`, array variables collapse to one interval per array, and
//! operators the simulator implements with bit-twiddling (`&`, `|`,
//! `^`, shifts, division) return `TOP` rather than risk disagreeing
//! with it. A *bigger* range can only make a wait condition look *more*
//! satisfiable, so over-approximation never produces a false deadlock
//! report — the soundness direction the DL lints need.

use modref_spec::expr::{BinOp, UnOp};
use modref_spec::stmt::CallArg;
use modref_spec::{visit, Expr, LValue, SignalId, Spec, Stmt, VarId};

/// Rounds of plain joining before [`Interval::widen`] kicks in.
const WIDEN_AFTER: usize = 4;

/// Hard cap on fixpoint rounds; widening makes this unreachable in
/// practice, it only guards against a domain bug looping forever.
const MAX_ROUNDS: usize = 64;

/// A non-empty inclusive integer range `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest value the entity may hold.
    pub lo: i64,
    /// Largest value the entity may hold.
    pub hi: i64,
}

impl Interval {
    /// The full `i64` range — "no information".
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The single value `v`.
    pub fn exact(v: i64) -> Self {
        Self { lo: v, hi: v }
    }

    /// An arbitrary range; swaps the bounds if given reversed.
    pub fn new(lo: i64, hi: i64) -> Self {
        if lo <= hi {
            Self { lo, hi }
        } else {
            Self { lo: hi, hi: lo }
        }
    }

    /// The boolean range `[0, 1]` — an unknown truth value.
    pub fn boolean() -> Self {
        Self { lo: 0, hi: 1 }
    }

    /// Whether this is the full range.
    pub fn is_top(self) -> bool {
        self == Self::TOP
    }

    /// Whether `v` lies within the range.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Interpreted as a condition value: can never be non-zero.
    pub fn definitely_false(self) -> bool {
        self.lo == 0 && self.hi == 0
    }

    /// Interpreted as a condition value: can never be zero.
    pub fn definitely_true(self) -> bool {
        !self.contains(0)
    }

    /// Least upper bound of two ranges.
    pub fn join(self, other: Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Classic interval widening: any bound still growing after the
    /// initial joining rounds jumps straight to infinity, so ascending
    /// chains (counting loops) converge in one step.
    pub fn widen(self, next: Self) -> Self {
        Self {
            lo: if next.lo < self.lo { i64::MIN } else { self.lo },
            hi: if next.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    fn add(self, o: Self) -> Self {
        Self {
            lo: self.lo.saturating_add(o.lo),
            hi: self.hi.saturating_add(o.hi),
        }
    }

    fn sub(self, o: Self) -> Self {
        Self {
            lo: self.lo.saturating_sub(o.hi),
            hi: self.hi.saturating_sub(o.lo),
        }
    }

    fn mul(self, o: Self) -> Self {
        if self.is_top() || o.is_top() {
            return Self::TOP;
        }
        let products = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        Self {
            lo: *products.iter().min().expect("nonempty"),
            hi: *products.iter().max().expect("nonempty"),
        }
    }

    fn neg(self) -> Self {
        Self {
            lo: self.hi.checked_neg().unwrap_or(i64::MIN),
            hi: self.lo.checked_neg().unwrap_or(i64::MAX),
        }
    }

    /// `[0,0]`, `[1,1]`, or `[0,1]` from a definite/unknown truth value.
    fn from_truth(definitely_true: bool, definitely_false: bool) -> Self {
        match (definitely_true, definitely_false) {
            (true, _) => Self::exact(1),
            (_, true) => Self::exact(0),
            _ => Self::boolean(),
        }
    }

    fn cmp_eq(self, o: Self) -> Self {
        let always = self.lo == self.hi && o.lo == o.hi && self.lo == o.lo;
        let never = self.hi < o.lo || o.hi < self.lo;
        Self::from_truth(always, never)
    }

    fn cmp_lt(self, o: Self) -> Self {
        Self::from_truth(self.hi < o.lo, self.lo >= o.hi)
    }

    fn cmp_le(self, o: Self) -> Self {
        Self::from_truth(self.hi <= o.lo, self.lo > o.hi)
    }

    fn logic_not(self) -> Self {
        Self::from_truth(self.definitely_false(), self.definitely_true())
    }

    fn logic_and(self, o: Self) -> Self {
        Self::from_truth(
            self.definitely_true() && o.definitely_true(),
            self.definitely_false() || o.definitely_false(),
        )
    }

    fn logic_or(self, o: Self) -> Self {
        Self::from_truth(
            self.definitely_true() || o.definitely_true(),
            self.definitely_false() && o.definitely_false(),
        )
    }
}

/// Per-entity value ranges for a whole specification, indexed by the
/// raw arena indices of [`VarId`] and [`SignalId`].
#[derive(Debug, Clone)]
pub struct Ranges {
    /// One interval per variable (whole array for array variables).
    pub vars: Vec<Interval>,
    /// One interval per signal.
    pub signals: Vec<Interval>,
}

impl Ranges {
    /// The range of a variable (`TOP` for foreign ids).
    pub fn var(&self, v: VarId) -> Interval {
        self.vars.get(v.index()).copied().unwrap_or(Interval::TOP)
    }

    /// The range of a signal (`TOP` for foreign ids).
    pub fn signal(&self, s: SignalId) -> Interval {
        self.signals
            .get(s.index())
            .copied()
            .unwrap_or(Interval::TOP)
    }

    fn slot(&mut self, entity: Entity) -> &mut Interval {
        match entity {
            Entity::Var(v) => &mut self.vars[v.index()],
            Entity::Signal(s) => &mut self.signals[s.index()],
        }
    }

    /// Joins `written` into `entity`'s range; returns whether it grew.
    pub fn join(&mut self, entity: Entity, written: Interval) -> bool {
        let slot = self.slot(entity);
        let next = slot.join(written);
        let grew = next != *slot;
        *slot = next;
        grew
    }
}

/// Evaluates an expression over `ranges`, with per-signal `overrides`
/// taking precedence (the DL05 check pins an acknowledge line low or
/// high and asks what a wait condition can still do).
pub fn eval_with(e: &Expr, ranges: &Ranges, overrides: &[(SignalId, Interval)]) -> Interval {
    match e {
        Expr::Lit(v) => Interval::exact(*v),
        Expr::Var(v) | Expr::Index(v, _) => ranges.var(*v),
        Expr::Signal(s) => overrides
            .iter()
            .find(|(id, _)| id == s)
            .map(|&(_, iv)| iv)
            .unwrap_or_else(|| ranges.signal(*s)),
        // Parameters are bound per call frame; without tracking call
        // sites the only sound answer is "anything".
        Expr::Param(_) => Interval::TOP,
        Expr::Unary(op, inner) => {
            let iv = eval_with(inner, ranges, overrides);
            match op {
                UnOp::Neg => iv.neg(),
                UnOp::Not => iv.logic_not(),
            }
        }
        Expr::Binary(op, l, r) => {
            let a = eval_with(l, ranges, overrides);
            let b = eval_with(r, ranges, overrides);
            match op {
                BinOp::Add => a.add(b),
                BinOp::Sub => a.sub(b),
                BinOp::Mul => a.mul(b),
                BinOp::Eq => a.cmp_eq(b),
                BinOp::Ne => a.cmp_eq(b).logic_not(),
                BinOp::Lt => a.cmp_lt(b),
                BinOp::Le => a.cmp_le(b),
                BinOp::Gt => b.cmp_lt(a),
                BinOp::Ge => b.cmp_le(a),
                BinOp::And => a.logic_and(b),
                BinOp::Or => a.logic_or(b),
                // Bit-level and division operators: modelling them
                // precisely would have to match the simulator's exact
                // semantics (division by zero yields 0, shifts mask);
                // `TOP` is sound and these rarely appear in guards.
                BinOp::Div
                | BinOp::Rem
                | BinOp::BitAnd
                | BinOp::BitOr
                | BinOp::BitXor
                | BinOp::Shl
                | BinOp::Shr => Interval::TOP,
            }
        }
    }
}

/// Evaluates an expression over `ranges` with no overrides.
pub fn eval(e: &Expr, ranges: &Ranges) -> Interval {
    eval_with(e, ranges, &[])
}

/// The target of one write site: a variable or a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Entity {
    /// A variable (arrays write the whole-array interval).
    Var(VarId),
    /// A signal.
    Signal(SignalId),
}

/// Collects the `(entity, value)` writes a statement itself performs,
/// where `None` means "unknown value" (a call's `out` argument). Nested
/// bodies are not entered: their statements are visited on their own
/// (as their own CFG nodes, or by [`visit::for_each_stmt`]).
pub fn collect_writes<'a>(stmt: &'a Stmt, out: &mut Vec<(Entity, Option<&'a Expr>)>) {
    match stmt {
        Stmt::Assign { target, value } => match target {
            LValue::Var(v) | LValue::Index(v, _) => out.push((Entity::Var(*v), Some(value))),
            LValue::Param(_) => {}
        },
        Stmt::SignalSet { signal, value } => out.push((Entity::Signal(*signal), Some(value))),
        Stmt::Call { args, .. } => {
            for a in args {
                if let CallArg::Out(LValue::Var(v) | LValue::Index(v, _)) = a {
                    out.push((Entity::Var(*v), None));
                }
            }
        }
        Stmt::For { var, from, to, .. } => {
            // The induction variable sweeps `from ..= to`; joining both
            // bound expressions covers every value it takes.
            out.push((Entity::Var(*var), Some(from)));
            out.push((Entity::Var(*var), Some(to)));
        }
        _ => {}
    }
}

/// Every entity at its declared initial value.
pub fn initial_ranges(spec: &Spec) -> Ranges {
    Ranges {
        vars: spec
            .variables()
            .map(|(_, v)| Interval::exact(v.init()))
            .collect(),
        signals: spec
            .signals()
            .map(|(_, s)| Interval::exact(s.init()))
            .collect(),
    }
}

/// Computes sound value ranges for every variable and signal: the
/// initial value joined with the abstract value of every write anywhere
/// in the spec (all behavior bodies and all subroutine bodies),
/// iterated to a fixpoint with widening.
pub fn global_ranges(spec: &Spec) -> Ranges {
    // Parents before their nested bodies: the widening below is
    // order-sensitive, so the write order is part of the result.
    let mut writes: Vec<(Entity, Option<&Expr>)> = Vec::new();
    let bodies = spec
        .behaviors()
        .filter_map(|(_, b)| b.body())
        .chain(spec.subroutines().map(|(_, sub)| sub.body()));
    for body in bodies {
        visit::for_each_stmt(body, &mut |s| collect_writes(s, &mut writes));
    }
    ranges_of_writes(spec, &writes)
}

/// The fixpoint of [`global_ranges`] over writes the caller collected:
/// every body's [`collect_writes`] in pre-order (a statement before its
/// nested blocks), behavior bodies first, then subroutines, each in
/// arena order. Another order may widen differently.
pub fn ranges_of_writes(spec: &Spec, writes: &[(Entity, Option<&Expr>)]) -> Ranges {
    let mut ranges = initial_ranges(spec);
    // A write whose value reads no entity joins the same interval every
    // round, into a range that holds it after round 0; later rounds
    // evaluate only the others, in the same order.
    let varying: Vec<(Entity, Option<&Expr>)> = writes
        .iter()
        .copied()
        .filter(|(_, value)| value.is_some_and(|e| e.const_value().is_none()))
        .collect();
    for round in 0..MAX_ROUNDS {
        let mut changed = false;
        let pass = if round == 0 { writes } else { &varying };
        for (entity, value) in pass {
            let written = match value {
                Some(e) => eval(e, &ranges),
                None => Interval::TOP,
            };
            let slot = ranges.slot(*entity);
            let mut next = slot.join(written);
            if round >= WIDEN_AFTER {
                next = slot.widen(next);
            }
            if next != *slot {
                *slot = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::behavior::{Behavior, BehaviorKind};
    use modref_spec::expr::{self, lit, signal, var};
    use modref_spec::stmt::{assign, if_then, set_signal, while_loop};
    use modref_spec::DataType;

    #[test]
    fn interval_comparisons_are_three_valued() {
        let a = Interval::new(0, 5);
        let b = Interval::new(10, 20);
        assert!(a.cmp_lt(b).definitely_true());
        assert!(b.cmp_lt(a).definitely_false());
        assert_eq!(a.cmp_eq(b), Interval::exact(0));
        assert_eq!(a.cmp_eq(Interval::new(3, 7)), Interval::boolean());
        assert!(Interval::exact(4)
            .cmp_eq(Interval::exact(4))
            .definitely_true());
    }

    #[test]
    fn widening_jumps_growing_bounds_to_infinity() {
        let prev = Interval::new(0, 10);
        let grown = Interval::new(0, 11);
        let w = prev.widen(grown);
        assert_eq!(w.lo, 0);
        assert_eq!(w.hi, i64::MAX);
    }

    #[test]
    fn saturating_arithmetic_never_wraps() {
        let big = Interval::exact(i64::MAX);
        assert_eq!(big.add(Interval::exact(1)).hi, i64::MAX);
        assert_eq!(Interval::exact(i64::MIN).neg().hi, i64::MAX);
    }

    #[test]
    fn global_ranges_join_writes_and_widen_loops() {
        let mut spec = Spec::new("t");
        let leaf = spec.add_behavior(Behavior::new("L", BehaviorKind::Leaf { body: vec![] }));
        let x = spec.add_variable("x", DataType::int(16), 0, Some(leaf));
        let m = spec.add_variable("mode", DataType::int(8), 1, Some(leaf));
        let s = spec.add_signal("go", DataType::Bit, 0);
        *spec.behavior_mut(leaf).body_mut().unwrap() = vec![
            assign(m, lit(2)),
            while_loop(
                expr::lt(var(x), lit(10)),
                vec![assign(x, expr::add(var(x), lit(1)))],
            ),
            set_signal(s, lit(1)),
        ];
        spec.set_top(leaf);
        let r = global_ranges(&spec);
        // mode holds 1 (init) or 2 (the write); never 3.
        assert_eq!(r.var(m), Interval::new(1, 2));
        assert!(!eval(&expr::eq(var(m), lit(3)), &r).contains(1));
        // x grows without a static bound on the joins -> widened above.
        assert!(r.var(x).hi >= 10);
        assert_eq!(r.var(x).lo, 0);
        // go is written 1, initialized 0.
        assert_eq!(r.signal(s), Interval::new(0, 1));
    }

    #[test]
    fn eval_with_overrides_pins_signals() {
        let mut spec = Spec::new("t");
        let leaf = spec.add_behavior(Behavior::new("L", BehaviorKind::Leaf { body: vec![] }));
        let ack = spec.add_signal("ack", DataType::Bit, 0);
        *spec.behavior_mut(leaf).body_mut().unwrap() = vec![set_signal(ack, lit(1))];
        spec.set_top(leaf);
        let r = global_ranges(&spec);
        let cond = expr::eq(signal(ack), lit(1));
        assert_eq!(eval(&cond, &r), Interval::boolean());
        let pinned = eval_with(&cond, &r, &[(ack, Interval::exact(0))]);
        assert!(pinned.definitely_false());
    }

    #[test]
    fn collect_writes_stays_in_its_statement() {
        let mut spec = Spec::new("t");
        let leaf = spec.add_behavior(Behavior::new("L", BehaviorKind::Leaf { body: vec![] }));
        let x = spec.add_variable("x", DataType::int(16), 0, Some(leaf));
        let body = vec![if_then(lit(1), vec![assign(x, lit(7))])];
        let mut out = Vec::new();
        collect_writes(&body[0], &mut out);
        assert!(out.is_empty(), "the nested assign is its own statement");
        visit::for_each_stmt(&body, &mut |s| collect_writes(s, &mut out));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Entity::Var(x));
        assert!(out[0].1.is_some());
    }
}
