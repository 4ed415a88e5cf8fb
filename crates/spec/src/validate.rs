//! Structural validation of a [`Spec`].
//!
//! [`check_all`] verifies the invariants the rest of the toolchain relies
//! on — unique names per entity kind, a tree-shaped behavior hierarchy
//! rooted at the top and at most [`MAX_NESTING`] levels deep,
//! transitions that stay within their composite's children, call-site
//! arity matching subroutine signatures, and array/scalar access
//! consistency — and collects *every* violation.
//! [`check`] is the `Result`-returning shim that reports only the first,
//! for callers that just need pass/fail.

use std::collections::{HashMap, HashSet};

use crate::behavior::TransitionTarget;
use crate::error::SpecError;
use crate::expr::Expr;
use crate::ids::{BehaviorId, VarId};
use crate::parser::MAX_NESTING;
use crate::spec::Spec;
use crate::stmt::{LValue, Stmt};
use crate::visit;

/// Checks all structural invariants of a spec.
///
/// # Errors
///
/// Returns the first violation found as a [`SpecError`]. Use
/// [`check_all`] to collect every violation instead.
pub fn check(spec: &Spec) -> Result<(), SpecError> {
    match check_all(spec).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Checks all structural invariants of a spec, collecting **every**
/// violation instead of stopping at the first. The order is deterministic
/// (names, hierarchy, transitions, bodies) and the first element equals
/// the error [`check`] would return.
pub fn check_all(spec: &Spec) -> Vec<SpecError> {
    let mut out = Vec::new();
    check_unique_names(spec, &mut out);
    check_hierarchy(spec, &mut out);
    check_transitions(spec, &mut out);
    check_bodies(spec, &mut out);
    out
}

fn check_unique_names(spec: &Spec, out: &mut Vec<SpecError>) {
    let mut seen = HashSet::new();
    for (_, b) in spec.behaviors() {
        if !seen.insert(b.name().to_string()) {
            out.push(SpecError::DuplicateName {
                kind: "behavior",
                name: b.name().to_string(),
            });
        }
    }
    // Variables may shadow across scopes in concrete syntax, but the flat
    // arena keeps globally unique names for printability.
    let mut seen = HashSet::new();
    for (_, v) in spec.variables() {
        if !seen.insert(v.name().to_string()) {
            out.push(SpecError::DuplicateName {
                kind: "variable",
                name: v.name().to_string(),
            });
        }
    }
    let mut seen = HashSet::new();
    for (_, s) in spec.signals() {
        if !seen.insert(s.name().to_string()) {
            out.push(SpecError::DuplicateName {
                kind: "signal",
                name: s.name().to_string(),
            });
        }
    }
    let mut seen = HashSet::new();
    for (_, s) in spec.subroutines() {
        if !seen.insert(s.name().to_string()) {
            out.push(SpecError::DuplicateName {
                kind: "subroutine",
                name: s.name().to_string(),
            });
        }
    }
}

fn check_hierarchy(spec: &Spec, out: &mut Vec<SpecError>) {
    // Every behavior is a child of at most one composite.
    let mut parent: HashMap<BehaviorId, BehaviorId> = HashMap::new();
    for (id, b) in spec.behaviors() {
        for &c in b.children() {
            if let Err(e) = spec.try_behavior(c) {
                out.push(e);
                continue;
            }
            if parent.insert(c, id).is_some() {
                out.push(SpecError::SharedChild(c));
            }
        }
    }
    if let Some(top) = spec.top_opt() {
        if let Err(e) = spec.try_behavior(top) {
            out.push(e);
            return;
        }
        if parent.contains_key(&top) {
            out.push(SpecError::TopIsChild(top));
        }
        // Each behavior's depth (1 at a root), or `None` when its chain of
        // parents runs into a cycle. The walk up from a behavior stops at
        // the first ancestor of known depth, or after behavior_count steps
        // on a cycle, so all behaviors take linear time in total and no
        // recursion: a hierarchy deeper than the simulator can descend is
        // reported, not overflowed.
        let mut depth: HashMap<BehaviorId, Option<usize>> = HashMap::new();
        let mut path = Vec::new();
        let mut too_deep = false;
        for (id, _) in spec.behaviors() {
            let mut cur = id;
            let base = loop {
                if let Some(&d) = depth.get(&cur) {
                    break d;
                }
                if path.len() > spec.behavior_count() {
                    break None;
                }
                path.push(cur);
                match parent.get(&cur) {
                    Some(&p) => cur = p,
                    None => break Some(0),
                }
            };
            let mut d = base;
            for &b in path.iter().rev() {
                d = d.map(|d| d + 1);
                depth.insert(b, d);
            }
            path.clear();
            match depth[&id] {
                None => out.push(SpecError::HierarchyCycle(id)),
                Some(d) if d > MAX_NESTING && !too_deep => {
                    too_deep = true;
                    out.push(SpecError::HierarchyTooDeep(id));
                }
                Some(_) => {}
            }
        }
    }
}

fn check_transitions(spec: &Spec, out: &mut Vec<SpecError>) {
    for (id, b) in spec.behaviors() {
        let children: HashSet<_> = b.children().iter().copied().collect();
        for t in b.transitions() {
            if !children.contains(&t.from) {
                out.push(SpecError::TransitionNotSibling {
                    parent: id,
                    endpoint: t.from,
                });
            }
            if let TransitionTarget::Behavior(to) = t.to {
                if !children.contains(&to) {
                    out.push(SpecError::TransitionNotSibling {
                        parent: id,
                        endpoint: to,
                    });
                }
            }
        }
    }
}

fn check_bodies(spec: &Spec, out: &mut Vec<SpecError>) {
    let check_stmts = |stmts: &[Stmt], out: &mut Vec<SpecError>| {
        visit::for_each_stmt(stmts, &mut |s| {
            if let Err(e) = check_stmt(spec, s) {
                out.push(e);
            }
        });
        visit::for_each_expr(stmts, &mut |e| {
            if let Err(err) = check_expr(spec, e) {
                out.push(err);
            }
        });
    };
    for (_, b) in spec.behaviors() {
        if let Some(body) = b.body() {
            check_stmts(body, out);
        }
    }
    for (_, sub) in spec.subroutines() {
        check_stmts(sub.body(), out);
    }
    // Transition guards.
    for (_, b) in spec.behaviors() {
        for t in b.transitions() {
            if let Some(cond) = &t.cond {
                walk_guard(spec, cond, out);
            }
        }
    }
}

fn walk_guard(spec: &Spec, e: &Expr, out: &mut Vec<SpecError>) {
    if let Err(err) = check_expr(spec, e) {
        out.push(err);
    }
    match e {
        Expr::Index(_, idx) => walk_guard(spec, idx, out),
        Expr::Unary(_, inner) => walk_guard(spec, inner, out),
        Expr::Binary(_, l, r) => {
            walk_guard(spec, l, out);
            walk_guard(spec, r, out);
        }
        _ => {}
    }
}

fn check_stmt(spec: &Spec, s: &Stmt) -> Result<(), SpecError> {
    match s {
        Stmt::Assign { target, .. } => check_lvalue(spec, target),
        Stmt::SignalSet { signal, .. } => spec.try_signal(*signal).map(|_| ()),
        Stmt::For { var, .. } => {
            let v = spec.try_variable(*var)?;
            if v.ty().is_array() {
                return Err(SpecError::IndexingMismatch(*var));
            }
            Ok(())
        }
        Stmt::Call { sub, args } => {
            let subroutine = spec
                .subroutines()
                .find(|(id, _)| id == sub)
                .map(|(_, s)| s)
                .ok_or(SpecError::UnknownSubroutine(*sub))?;
            if subroutine.params().len() != args.len() {
                return Err(SpecError::CallArityMismatch {
                    sub: *sub,
                    expected: subroutine.params().len(),
                    found: args.len(),
                });
            }
            for a in args {
                if let crate::stmt::CallArg::Out(lv) = a {
                    check_lvalue(spec, lv)?;
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn check_lvalue(spec: &Spec, lv: &LValue) -> Result<(), SpecError> {
    match lv {
        LValue::Var(v) => {
            let var = spec.try_variable(*v)?;
            if var.ty().is_array() {
                return Err(SpecError::IndexingMismatch(*v));
            }
            Ok(())
        }
        LValue::Index(v, _) => {
            let var = spec.try_variable(*v)?;
            if !var.ty().is_array() {
                return Err(SpecError::IndexingMismatch(*v));
            }
            Ok(())
        }
        // Parameter targets are frame-local; resolvable only at call time.
        LValue::Param(_) => Ok(()),
    }
}

fn check_expr(spec: &Spec, e: &Expr) -> Result<(), SpecError> {
    match e {
        Expr::Var(v) => {
            let var = spec.try_variable(*v)?;
            if var.ty().is_array() {
                return Err(SpecError::IndexingMismatch(*v));
            }
            Ok(())
        }
        Expr::Index(v, _) => {
            let var = spec.try_variable(*v)?;
            if !var.ty().is_array() {
                return Err(SpecError::IndexingMismatch(*v));
            }
            Ok(())
        }
        Expr::Signal(s) => spec.try_signal(*s).map(|_| ()),
        _ => Ok(()),
    }
}

/// Returns the set of variables accessed (read or written) by a behavior's
/// own leaf body — a convenience shared by validation-adjacent analyses.
pub fn accessed_vars(spec: &Spec, behavior: BehaviorId) -> HashSet<VarId> {
    let mut out = HashSet::new();
    if let Some(body) = spec.behavior(behavior).body() {
        visit::for_each_stmt(body, &mut |s| {
            out.extend(s.direct_reads());
            out.extend(s.direct_writes());
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{Behavior, BehaviorKind, Transition};
    use crate::builder::SpecBuilder;
    use crate::expr::{lit, var};
    use crate::stmt::{assign, assign_index};
    use crate::types::{DataType, ScalarType};

    #[test]
    fn valid_spec_passes() {
        let mut b = SpecBuilder::new("ok");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![assign(x, lit(1))]);
        let top = b.seq_in_order("Top", vec![a]);
        assert!(b.finish(top).is_ok());
    }

    #[test]
    fn scalar_indexed_as_array_fails() {
        let mut b = SpecBuilder::new("bad");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![assign_index(x, lit(0), lit(1))]);
        let top = b.seq_in_order("Top", vec![a]);
        assert!(matches!(b.finish(top), Err(SpecError::IndexingMismatch(_))));
    }

    #[test]
    fn array_read_without_index_fails() {
        let mut b = SpecBuilder::new("bad2");
        let arr = b.var("a", DataType::array(ScalarType::Int(8), 4), 0);
        let x = b.var_int("x", 16, 0);
        let leaf = b.leaf("A", vec![assign(x, var(arr))]);
        let top = b.seq_in_order("Top", vec![leaf]);
        assert!(matches!(b.finish(top), Err(SpecError::IndexingMismatch(_))));
    }

    #[test]
    fn transition_to_non_child_fails() {
        let mut b = SpecBuilder::new("bad3");
        let a = b.leaf("A", vec![]);
        let orphan = b.leaf("Orphan", vec![]);
        let arc = Transition {
            from: a,
            cond: None,
            to: TransitionTarget::Behavior(orphan),
        };
        let top = b.seq("Top", vec![a], vec![arc]);
        // Note: `orphan` is not a child of Top.
        assert!(matches!(
            b.finish(top),
            Err(SpecError::TransitionNotSibling { .. })
        ));
    }

    #[test]
    fn shared_child_fails() {
        let mut spec = Spec::new("shared");
        let a = spec.add_behavior(Behavior::new("A", BehaviorKind::Leaf { body: vec![] }));
        let p1 = spec.add_behavior(Behavior::new(
            "P1",
            BehaviorKind::Seq {
                children: vec![a],
                transitions: vec![],
            },
        ));
        let _p2 = spec.add_behavior(Behavior::new(
            "P2",
            BehaviorKind::Seq {
                children: vec![a],
                transitions: vec![],
            },
        ));
        let top = spec.add_behavior(Behavior::new(
            "Top",
            BehaviorKind::Seq {
                children: vec![p1],
                transitions: vec![],
            },
        ));
        spec.set_top(top);
        assert!(matches!(check(&spec), Err(SpecError::SharedChild(_))));
    }

    /// A chain of single-child `seq` behaviors `levels` deep, top last.
    fn chain(levels: usize) -> Spec {
        let mut b = SpecBuilder::new("chain");
        let x = b.var_int("x", 16, 0);
        let mut cur = b.leaf("B0", vec![assign(x, lit(1))]);
        for i in 1..levels {
            cur = b.seq_in_order(format!("B{i}"), vec![cur]);
        }
        b.finish_unchecked(cur)
    }

    #[test]
    fn hierarchy_depth_is_bounded_by_max_nesting() {
        assert_eq!(check_all(&chain(MAX_NESTING)), vec![]);
        // One error for the deepest chain, reported at its first member.
        let deep = chain(MAX_NESTING + 1);
        let b0 = deep.behavior_by_name("B0").unwrap();
        assert_eq!(check_all(&deep), vec![SpecError::HierarchyTooDeep(b0)]);
        assert_eq!(check_all(&chain(50_000)).len(), 1);
    }

    #[test]
    fn hierarchy_cycles_are_reported_per_behavior() {
        // Top -> A -> B -> C -> B: B and C lie on the cycle, D hangs off
        // it; each is reported once, in arena order.
        let mut spec = Spec::new("cycle");
        let seq = |children| BehaviorKind::Seq {
            children,
            transitions: vec![],
        };
        let ids: Vec<_> = ["Top", "A", "B", "C", "D"]
            .iter()
            .map(|n| spec.add_behavior(Behavior::new(*n, seq(vec![]))))
            .collect();
        for (p, c) in [(0, 1), (2, 3), (3, 2), (3, 4)] {
            let kids = spec.behavior(ids[p]).children().to_vec();
            *spec.behavior_mut(ids[p]).kind_mut() = seq([kids, vec![ids[c]]].concat());
        }
        spec.set_top(ids[0]);
        let cycles: Vec<_> = check_all(&spec)
            .into_iter()
            .filter(|e| matches!(e, SpecError::HierarchyCycle(_)))
            .collect();
        assert_eq!(
            cycles,
            [2, 3, 4]
                .map(|i| SpecError::HierarchyCycle(ids[i]))
                .to_vec()
        );
    }

    #[test]
    fn check_all_collects_multiple_violations() {
        // Two independent defects: `x` (scalar) indexed as array AND
        // `a` (array) read without an index. `check` sees only the first;
        // `check_all` reports both.
        let mut b = SpecBuilder::new("multi");
        let x = b.var_int("x", 16, 0);
        let arr = b.var("a", DataType::array(ScalarType::Int(8), 4), 0);
        let leaf = b.leaf(
            "A",
            vec![assign_index(x, lit(0), lit(1)), assign(x, var(arr))],
        );
        let top = b.seq_in_order("Top", vec![leaf]);
        let spec = b.finish_unchecked(top);
        let all = check_all(&spec);
        assert_eq!(all.len(), 2, "{all:?}");
        assert!(all
            .iter()
            .all(|e| matches!(e, SpecError::IndexingMismatch(_))));
        // First element equals what the shim reports.
        assert_eq!(check(&spec).unwrap_err(), all[0]);
    }

    #[test]
    fn accessed_vars_reports_reads_and_writes() {
        let mut b = SpecBuilder::new("acc");
        let x = b.var_int("x", 16, 0);
        let y = b.var_int("y", 16, 0);
        let a = b.leaf("A", vec![assign(x, var(y))]);
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let acc = accessed_vars(&spec, a);
        assert!(acc.contains(&x));
        assert!(acc.contains(&y));
    }
}
