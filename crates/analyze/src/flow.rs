//! Dataflow-powered lints (`DF01`–`DF06`): use-before-def, dead stores,
//! unused variables/subroutines, unreachable behaviors and shadowed
//! transitions.

use std::collections::HashSet;

use modref_spec::visit;
use modref_spec::{
    BehaviorId, BehaviorKind, LValue, SourceMap, Spec, Stmt, StmtOwner, SubroutineId,
    TransitionTarget, VarId,
};

use crate::cfg::Cfg;
use crate::dataflow::{effects, entry_exposed, liveness, maybe_uninit_uses};
use crate::diag::{Diagnostic, Severity};

/// Runs every dataflow lint over the spec. The spec must have a sane
/// hierarchy (no `ST02` findings) — the caller gates on that.
pub fn flow_lints(spec: &Spec, map: &SourceMap) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    per_body_lints(spec, map, &mut out);
    unused_decl_lints(spec, map, &mut out);
    unreachable_behavior_lints(spec, map, &mut out);
    transition_lints(spec, map, &mut out);
    out
}

/// The behavior-private scalar variables of `b` — the only variables a
/// per-body analysis can reason about completely.
fn private_scalars(spec: &Spec, b: BehaviorId) -> HashSet<VarId> {
    spec.variables()
        .filter(|(_, v)| v.scope() == Some(b) && !v.ty().is_array())
        .map(|(id, _)| id)
        .collect()
}

fn var_name(spec: &Spec, v: VarId) -> String {
    spec.variable(v).name().to_string()
}

/// DF01 (use-before-def) + DF02 (dead store), per leaf body.
fn per_body_lints(spec: &Spec, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    for (bid, b) in spec.behaviors() {
        let Some(body) = b.body() else { continue };
        let private = private_scalars(spec, bid);
        if private.is_empty() {
            continue;
        }
        let cfg = Cfg::build(StmtOwner::Behavior(bid), body, Some(map));
        let fx = effects(&cfg);

        // DF01: only for private scalars the body *does* assign somewhere —
        // reading a variable the body never writes just uses its declared
        // initializer, which is the normal way to consume a constant.
        let defined_somewhere: HashSet<VarId> = fx
            .iter()
            .flat_map(|n| n.defs.iter().copied())
            .filter(|v| private.contains(v))
            .collect();
        let mut reported: HashSet<VarId> = HashSet::new();
        for u in maybe_uninit_uses(&cfg, &fx, &defined_somewhere) {
            // `x := x + 1` reads the initializer on purpose; skip
            // self-updates.
            if fx[u.node].defs.contains(&u.var) {
                continue;
            }
            if !reported.insert(u.var) {
                continue;
            }
            let name = var_name(spec, u.var);
            out.push(
                Diagnostic::new(
                    "DF01",
                    Severity::Warning,
                    format!(
                        "variable `{name}` may be read before `{}` assigns it; only the declared initializer is available on that path",
                        b.name()
                    ),
                )
                .with_span(cfg.span(u.node).or_else(|| map.variable_span(u.var)))
                .with_object(name.clone())
                .with_fix(format!("assign `{name}` before the first read")),
            );
        }

        // DF02: a scalar store whose value no later read (nor a
        // re-activation of the behavior) can observe.
        let exposed = entry_exposed(&cfg, &fx, &private);
        let live_out = liveness(&cfg, &fx, &private, &exposed);
        for (id, stmt) in cfg.stmts().iter().enumerate() {
            // Only a plain `v := e` scalar assignment: calls and loops
            // have other effects.
            let Some(Stmt::Assign {
                target: LValue::Var(v),
                ..
            }) = stmt
            else {
                continue;
            };
            let v = *v;
            if !private.contains(&v) || live_out[id].contains(&v) {
                continue;
            }
            let name = var_name(spec, v);
            out.push(
                Diagnostic::new(
                    "DF02",
                    Severity::Warning,
                    format!("value assigned to `{name}` in `{}` is never read", b.name()),
                )
                .with_span(cfg.span(id).or_else(|| map.variable_span(v)))
                .with_object(name.clone())
                .with_fix(format!("remove the assignment or use `{name}` afterwards")),
            );
        }
    }
}

/// DF03 (unused variable) + DF04 (unused subroutine): declarations no
/// body, guard or call ever touches.
fn unused_decl_lints(spec: &Spec, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    let mut used_vars: HashSet<VarId> = HashSet::new();
    let mut called: HashSet<SubroutineId> = HashSet::new();
    fn scan(
        stmts: &[modref_spec::Stmt],
        used_vars: &mut HashSet<VarId>,
        called: &mut HashSet<SubroutineId>,
    ) {
        visit::for_each_stmt(stmts, &mut |s| {
            used_vars.extend(s.direct_reads());
            used_vars.extend(s.direct_writes());
            if let modref_spec::Stmt::Call { sub, .. } = s {
                called.insert(*sub);
            }
        });
    }
    for (_, b) in spec.behaviors() {
        if let Some(body) = b.body() {
            scan(body, &mut used_vars, &mut called);
        }
        for t in b.transitions() {
            if let Some(cond) = &t.cond {
                used_vars.extend(cond.reads());
            }
        }
    }
    for (_, sub) in spec.subroutines() {
        scan(sub.body(), &mut used_vars, &mut called);
    }

    for (id, v) in spec.variables() {
        if !used_vars.contains(&id) {
            out.push(
                Diagnostic::new(
                    "DF03",
                    Severity::Warning,
                    format!("variable `{}` is never used", v.name()),
                )
                .with_span(map.variable_span(id))
                .with_object(v.name().to_string())
                .with_fix("remove the declaration".to_string()),
            );
        }
    }
    for (id, s) in spec.subroutines() {
        if !called.contains(&id) {
            out.push(
                Diagnostic::new(
                    "DF04",
                    Severity::Warning,
                    format!("subroutine `{}` is never called", s.name()),
                )
                .with_span(map.subroutine_span(id))
                .with_object(s.name().to_string())
                .with_fix("remove the subroutine".to_string()),
            );
        }
    }
}

/// DF05: behaviors that can never become active — either not part of the
/// hierarchy under top at all, or children of a `seq` composite no
/// transition path reaches.
fn unreachable_behavior_lints(spec: &Spec, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    let reachable: HashSet<BehaviorId> = spec.reachable().into_iter().collect();
    for (id, b) in spec.behaviors() {
        if !reachable.contains(&id) {
            out.push(
                Diagnostic::new(
                    "DF05",
                    Severity::Warning,
                    format!(
                        "behavior `{}` is not reachable from the top hierarchy",
                        b.name()
                    ),
                )
                .with_span(map.behavior_span(id))
                .with_object(b.name().to_string())
                .with_fix("add it as a child of a reachable composite, or remove it".to_string()),
            );
        }
    }

    // Within each reachable seq composite, replay the scheduler's arc
    // semantics: execution starts at children[0]; when a child completes,
    // the first matching declared arc from it fires; a child with arcs
    // none of which fire completes the composite; a child with *no* arcs
    // falls through to the next child in declaration order.
    for (cid, b) in spec.behaviors() {
        if !reachable.contains(&cid) {
            continue;
        }
        let BehaviorKind::Seq {
            children,
            transitions,
        } = b.kind()
        else {
            continue;
        };
        let (Some(&first), false) = (children.first(), transitions.is_empty()) else {
            continue;
        };
        let mut active: HashSet<BehaviorId> = HashSet::new();
        let mut work = vec![first];
        while let Some(c) = work.pop() {
            if !active.insert(c) {
                continue;
            }
            let arcs: Vec<_> = transitions.iter().filter(|t| t.from == c).collect();
            if arcs.is_empty() {
                // Fall through to the next sibling by index.
                if let Some(pos) = children.iter().position(|&x| x == c) {
                    if let Some(&next) = children.get(pos + 1) {
                        work.push(next);
                    }
                }
                continue;
            }
            for t in arcs {
                let fires = match &t.cond {
                    None => Some(true),
                    Some(c) => c.const_value().map(|v| v != 0),
                };
                if fires != Some(false) {
                    if let TransitionTarget::Behavior(to) = t.to {
                        work.push(to);
                    }
                }
                if fires == Some(true) {
                    // Later arcs from this child can never be consulted.
                    break;
                }
            }
        }
        for &c in children {
            if !active.contains(&c) {
                let name = spec.behavior(c).name().to_string();
                out.push(
                    Diagnostic::new(
                        "DF05",
                        Severity::Warning,
                        format!(
                            "behavior `{name}` can never become active: no transition path in `{}` reaches it",
                            b.name()
                        ),
                    )
                    .with_span(map.behavior_span(c))
                    .with_object(name)
                    .with_fix("add a transition targeting it, or remove it from the composite".to_string()),
                );
            }
        }
    }
}

/// DF06: transitions that can never fire — shadowed by an earlier
/// always-firing arc from the same source, or guarded by a constant-false
/// expression.
fn transition_lints(spec: &Spec, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    for (cid, b) in spec.behaviors() {
        let mut always_fired: HashSet<BehaviorId> = HashSet::new();
        for (i, t) in b.transitions().iter().enumerate() {
            let from_name = spec.behavior(t.from).name().to_string();
            let span = map.transition_span(cid, i);
            if always_fired.contains(&t.from) {
                out.push(
                    Diagnostic::new(
                        "DF06",
                        Severity::Warning,
                        format!(
                            "transition {i} from `{from_name}` in `{}` can never fire; an earlier arc from `{from_name}` always fires first",
                            b.name()
                        ),
                    )
                    .with_span(span)
                    .with_object(from_name.clone())
                    .with_fix("reorder the arcs or tighten the earlier guard".to_string()),
                );
                continue;
            }
            match &t.cond {
                None => {
                    always_fired.insert(t.from);
                }
                Some(c) => match c.const_value() {
                    Some(0) => {
                        out.push(
                            Diagnostic::new(
                                "DF06",
                                Severity::Warning,
                                format!(
                                    "transition {i} from `{from_name}` in `{}` can never fire; its guard is constant false",
                                    b.name()
                                ),
                            )
                            .with_span(span)
                            .with_object(from_name.clone())
                            .with_fix("remove the arc or fix the guard".to_string()),
                        );
                    }
                    Some(_) => {
                        always_fired.insert(t.from);
                    }
                    None => {}
                },
            }
        }
    }
}
