//! Static access counting: how many times does a behavior read or write
//! each variable per activation?
//!
//! Loop bodies multiply their contents by an estimated trip count
//! ([`loop_trips`]): `for` loops with constant bounds are exact, `while`
//! loops use their `@hint` annotation or 4, and each arm of an `if` is
//! weighted by [`BRANCH_WEIGHT`]. The counts feed the channel-transfer-rate
//! estimator (`modref-estimate`), which implements the paper's Figure 9
//! metric and weights its lifetimes with the same two functions.

use std::collections::HashMap;

use modref_spec::stmt::CallArg;
use modref_spec::{BehaviorId, Spec, Stmt, VarId, WaitCond};

/// Weight of each arm of an `if`: both arms are taken to be equally likely.
pub const BRANCH_WEIGHT: f64 = 0.5;

/// Estimated passes through a loop statement's body per execution of the
/// statement. A `for` loop whose bounds are constants with `from < to`
/// runs `to - from` times (taken in `i128`, so it never wraps); any other
/// `for` and a `while` without an `@hint` run 4 times, and a hinted
/// `while` runs its hint. A `loop` (an infinite server loop) counts one
/// pass, as does any other statement: the estimators scale by activation
/// frequency separately.
pub fn loop_trips(s: &Stmt) -> f64 {
    const DEFAULT_TRIPS: f64 = 4.0;
    match s {
        Stmt::While { trip_hint, .. } => trip_hint.map_or(DEFAULT_TRIPS, f64::from),
        Stmt::For { from, to, .. } => match (from.const_value(), to.const_value()) {
            (Some(f), Some(t)) if t > f => (i128::from(t) - i128::from(f)) as f64,
            _ => DEFAULT_TRIPS,
        },
        _ => 1.0,
    }
}

/// Read/write access counts of one behavior, per variable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessCounts {
    /// Estimated reads per activation, by variable.
    pub reads: HashMap<VarId, f64>,
    /// Estimated writes per activation, by variable.
    pub writes: HashMap<VarId, f64>,
    /// Variables accessed from transition guards (composite behaviors
    /// only); a subset of `reads` keys.
    pub guard_reads: HashMap<VarId, f64>,
}

impl AccessCounts {
    /// Total estimated accesses (reads + writes) to `var`.
    pub fn total(&self, var: VarId) -> f64 {
        self.reads.get(&var).copied().unwrap_or(0.0) + self.writes.get(&var).copied().unwrap_or(0.0)
    }

    /// Every variable with a non-zero count.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self
            .reads
            .keys()
            .chain(self.writes.keys())
            .copied()
            .collect();
        vars.sort();
        vars.dedup();
        vars
    }

    fn add_read(&mut self, var: VarId, weight: f64) {
        *self.reads.entry(var).or_insert(0.0) += weight;
    }

    fn add_write(&mut self, var: VarId, weight: f64) {
        *self.writes.entry(var).or_insert(0.0) += weight;
    }

    fn add_guard_read(&mut self, var: VarId, weight: f64) {
        *self.guard_reads.entry(var).or_insert(0.0) += weight;
        self.add_read(var, weight);
    }
}

/// Counts the accesses a behavior makes per activation.
///
/// For leaf behaviors this walks the statement body. For composites it
/// counts only the accesses in transition guards — each child behavior
/// owns its own accesses (and gets its own channels).
pub fn count_accesses(spec: &Spec, behavior: BehaviorId) -> AccessCounts {
    let mut counts = AccessCounts::default();
    let b = spec.behavior(behavior);
    if let Some(body) = b.body() {
        count_stmts(spec, body, 1.0, &mut counts);
    }
    for t in b.transitions() {
        if let Some(cond) = &t.cond {
            for v in cond.reads() {
                counts.add_guard_read(v, 1.0);
            }
        }
    }
    counts
}

fn count_stmts(spec: &Spec, stmts: &[Stmt], weight: f64, counts: &mut AccessCounts) {
    for s in stmts {
        count_stmt(spec, s, weight, counts);
    }
}

fn count_stmt(spec: &Spec, s: &Stmt, weight: f64, counts: &mut AccessCounts) {
    match s {
        Stmt::Assign { target, value } => {
            for v in value.reads() {
                counts.add_read(v, weight);
            }
            for v in target.reads() {
                counts.add_read(v, weight);
            }
            if let Some(v) = target.var_opt() {
                counts.add_write(v, weight);
            }
        }
        Stmt::SignalSet { value, .. } => {
            for v in value.reads() {
                counts.add_read(v, weight);
            }
        }
        Stmt::Wait(WaitCond::Until(e)) => {
            for v in e.reads() {
                counts.add_read(v, weight);
            }
        }
        Stmt::Wait(WaitCond::For(_)) | Stmt::Delay(_) | Stmt::Skip => {}
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            for v in cond.reads() {
                counts.add_read(v, weight);
            }
            count_stmts(spec, then_body, weight * BRANCH_WEIGHT, counts);
            count_stmts(spec, else_body, weight * BRANCH_WEIGHT, counts);
        }
        Stmt::While { cond, body, .. } => {
            let trips = loop_trips(s);
            // The condition is evaluated trips+1 times.
            for v in cond.reads() {
                counts.add_read(v, weight * (trips + 1.0));
            }
            count_stmts(spec, body, weight * trips, counts);
        }
        Stmt::For {
            var,
            from,
            to,
            body,
        } => {
            for v in from.reads().into_iter().chain(to.reads()) {
                counts.add_read(v, weight);
            }
            let trips = loop_trips(s);
            counts.add_write(*var, weight * trips);
            count_stmts(spec, body, weight * trips, counts);
        }
        Stmt::Loop { body } => count_stmts(spec, body, weight * loop_trips(s), counts),
        Stmt::Call { sub, args } => {
            for a in args {
                match a {
                    CallArg::In(e) => {
                        for v in e.reads() {
                            counts.add_read(v, weight);
                        }
                    }
                    CallArg::Out(lv) => {
                        for v in lv.reads() {
                            counts.add_read(v, weight);
                        }
                        if let Some(v) = lv.var_opt() {
                            counts.add_write(v, weight);
                        }
                    }
                }
            }
            // Subroutine bodies access shared variables too (protocol
            // bodies touch signals only, but user subroutines may not).
            count_stmts(spec, spec.subroutine(*sub).body(), weight, counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt, Expr};

    #[test]
    fn straight_line_counts_are_exact() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let y = b.var_int("y", 16, 0);
        let a = b.leaf(
            "A",
            vec![
                stmt::assign(x, expr::add(expr::var(x), expr::lit(5))),
                stmt::assign(y, expr::var(x)),
            ],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let c = count_accesses(&spec, a);
        assert_eq!(c.reads[&x], 2.0); // x read in both statements
        assert_eq!(c.writes[&x], 1.0);
        assert_eq!(c.writes[&y], 1.0);
    }

    #[test]
    fn for_loop_with_constant_bounds_multiplies() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let i = b.var_int("i", 8, 0);
        let a = b.leaf(
            "A",
            vec![stmt::for_loop(
                i,
                expr::lit(0),
                expr::lit(10),
                vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
            )],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let c = count_accesses(&spec, a);
        assert_eq!(c.reads[&x], 10.0);
        assert_eq!(c.writes[&x], 10.0);
    }

    #[test]
    fn while_uses_hint_and_counts_condition() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf(
            "A",
            vec![stmt::while_loop_hinted(
                expr::lt(expr::var(x), expr::lit(8)),
                vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
                8,
            )],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let c = count_accesses(&spec, a);
        // condition: 9 reads; body: 8 reads + 8 writes
        assert_eq!(c.reads[&x], 17.0);
        assert_eq!(c.writes[&x], 8.0);
    }

    #[test]
    fn branches_weighted_by_factor() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let y = b.var_int("y", 16, 0);
        let a = b.leaf(
            "A",
            vec![stmt::if_else(
                expr::gt(expr::var(x), expr::lit(0)),
                vec![stmt::assign(y, expr::lit(1))],
                vec![stmt::assign(y, expr::lit(2))],
            )],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let c = count_accesses(&spec, a);
        assert_eq!(c.reads[&x], 1.0); // condition always evaluated
        assert_eq!(c.writes[&y], 1.0); // 0.5 + 0.5
    }

    #[test]
    fn guard_reads_attributed_to_composite() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![]);
        let c_ = b.leaf("C", vec![]);
        let arcs = vec![b.arc_when(a, expr::gt(expr::var(x), expr::lit(1)), c_)];
        let top = b.seq("Top", vec![a, c_], arcs);
        let spec = b.finish(top).expect("valid");
        let counts = count_accesses(&spec, top);
        assert_eq!(counts.guard_reads[&x], 1.0);
        assert_eq!(counts.reads[&x], 1.0);
    }

    #[test]
    fn for_trips_are_exact_and_never_wrap() {
        let i = VarId::from_raw(0);
        let trips = |from: Expr, to: Expr| loop_trips(&stmt::for_loop(i, from, to, vec![]));
        assert_eq!(trips(expr::lit(2), expr::lit(12)), 10.0);
        // Empty or unknown ranges take the default.
        assert_eq!(trips(expr::lit(5), expr::lit(5)), 4.0);
        assert_eq!(trips(expr::var(i), expr::lit(5)), 4.0);
        // `to - from` overflows `i64` here; the count must stay positive.
        let min_plus_one = expr::sub(expr::lit(0), expr::lit(i64::MAX));
        // 2^64 - 2 trips, which rounds to 2^64 as an `f64`.
        assert_eq!(trips(min_plus_one, expr::lit(i64::MAX)), 2f64.powi(64));
    }

    #[test]
    fn total_and_vars_helpers() {
        let mut c = AccessCounts::default();
        c.add_read(VarId::from_raw(1), 2.0);
        c.add_write(VarId::from_raw(1), 1.0);
        c.add_write(VarId::from_raw(0), 1.0);
        assert_eq!(c.total(VarId::from_raw(1)), 3.0);
        assert_eq!(c.vars(), vec![VarId::from_raw(0), VarId::from_raw(1)]);
    }
}
