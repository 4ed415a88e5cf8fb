//! Worklist dataflow over a [`Cfg`]: may-be-uninitialized (forward,
//! reaching-definitions flavored) and liveness (backward).
//!
//! Both analyses track a caller-supplied set of variables only — the
//! lints restrict themselves to behavior-private scalars, so there is no
//! point propagating facts about globals the body cannot reason about
//! alone. Their per-node use/def facts ([`Effects`]) are derived from the
//! CFG's statements by [`effects`], once per body.

use std::collections::HashSet;

use modref_spec::stmt::CallArg;
use modref_spec::{LValue, Stmt, VarId};

use crate::cfg::{Cfg, NodeId};

/// The variables one CFG node reads and writes.
#[derive(Debug, Clone, Default)]
pub struct Effects {
    /// Variables read when the node executes (guards, rhs, indices).
    pub uses: Vec<VarId>,
    /// Variables definitely (re)defined: scalar writes, which kill
    /// previous definitions.
    pub defs: Vec<VarId>,
    /// Variables partially defined: array-element writes, which define
    /// but do not kill (other elements survive).
    pub weak_defs: Vec<VarId>,
    /// A `for` head's loop variable: written *before* it is read on every
    /// iteration, so liveness treats it as used (the increment/compare
    /// read it) while may-uninit does not.
    pub loop_var: Option<VarId>,
}

impl Effects {
    /// The effects of executing `stmt` itself (nested bodies are their
    /// own nodes); entry and exit (`None`) have none.
    pub fn of(stmt: Option<&Stmt>) -> Self {
        let Some(s) = stmt else {
            return Self::default();
        };
        let mut fx = Self {
            uses: s.direct_reads(),
            ..Self::default()
        };
        let def = |lv: &LValue, fx: &mut Self| match lv {
            LValue::Var(v) => fx.defs.push(*v),
            LValue::Index(v, _) => fx.weak_defs.push(*v),
            LValue::Param(_) => {}
        };
        match s {
            Stmt::Assign { target, .. } => def(target, &mut fx),
            Stmt::For { var, .. } => {
                fx.defs.push(*var);
                fx.loop_var = Some(*var);
            }
            Stmt::Call { args, .. } => {
                for a in args {
                    if let CallArg::Out(lv) = a {
                        def(lv, &mut fx);
                    }
                }
            }
            _ => {}
        }
        fx
    }
}

/// The [`Effects`] of every node of `cfg`, indexed by node.
pub fn effects(cfg: &Cfg) -> Vec<Effects> {
    cfg.stmts().iter().map(|&s| Effects::of(s)).collect()
}

/// A use of `var` at `node` that may execute before any assignment to
/// `var` on some path from entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UninitUse {
    /// The node performing the read.
    pub node: NodeId,
    /// The variable read.
    pub var: VarId,
}

/// Forward may-be-uninitialized analysis: at entry every tracked variable
/// is "uninitialized" (holds only its declared initializer); a strong def
/// clears the fact, a weak (array-element) def does not. Returns every
/// `(node, var)` where a tracked variable is read while possibly
/// uninitialized, in node order.
pub fn maybe_uninit_uses(cfg: &Cfg, fx: &[Effects], tracked: &HashSet<VarId>) -> Vec<UninitUse> {
    let n = cfg.node_count();
    // IN[entry] = tracked; everything else starts empty (bottom) and grows.
    let mut input: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
    input[cfg.entry] = tracked.clone();
    let mut work: Vec<NodeId> = vec![cfg.entry];
    while let Some(node) = work.pop() {
        // OUT = IN - strong defs.
        let mut out = input[node].clone();
        for d in &fx[node].defs {
            out.remove(d);
        }
        for s in cfg.succs(node) {
            let before = input[s].len();
            input[s].extend(out.iter().copied());
            if input[s].len() != before {
                work.push(s);
            }
        }
    }
    let mut found = Vec::new();
    for (id, node) in fx.iter().enumerate() {
        for &u in &node.uses {
            if tracked.contains(&u) && input[id].contains(&u) {
                found.push(UninitUse { node: id, var: u });
            }
        }
    }
    found
}

/// The set of tracked variables whose first use on some path precedes any
/// strong def — the "entry-exposed" uses. A behavior may re-activate, so
/// anything entry-exposed must be considered live at exit.
pub fn entry_exposed(cfg: &Cfg, fx: &[Effects], tracked: &HashSet<VarId>) -> HashSet<VarId> {
    maybe_uninit_uses(cfg, fx, tracked)
        .into_iter()
        .map(|u| u.var)
        .collect()
}

/// Backward liveness restricted to `tracked`. Returns per-node live-*out*
/// sets: `live_out[n]` holds the tracked variables whose current value may
/// be read after `n` executes. `live_at_exit` seeds the exit node (e.g.
/// entry-exposed vars, to model behavior re-activation).
pub fn liveness(
    cfg: &Cfg,
    fx: &[Effects],
    tracked: &HashSet<VarId>,
    live_at_exit: &HashSet<VarId>,
) -> Vec<HashSet<VarId>> {
    let n = cfg.node_count();
    let mut live_out: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
    let mut live_in: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
    live_in[cfg.exit] = live_at_exit
        .iter()
        .copied()
        .filter(|v| tracked.contains(v))
        .collect();
    // Sweep backwards until nothing changes: statements come in
    // pre-order, so one sweep settles straight-line code and each level
    // of loop nesting costs at most one more.
    let mut changed = true;
    while changed {
        changed = false;
        for node in (0..n).rev().filter(|&node| node != cfg.exit) {
            let mut out: HashSet<VarId> = HashSet::new();
            for s in cfg.succs(node) {
                out.extend(live_in[s].iter().copied());
            }
            // IN = (OUT - strong defs) ∪ uses ∪ weak defs. A weak def
            // both reads and writes part of the variable, so it keeps it
            // live.
            let mut inn = out.clone();
            for d in &fx[node].defs {
                inn.remove(d);
            }
            for u in fx[node]
                .uses
                .iter()
                .chain(&fx[node].weak_defs)
                .chain(fx[node].loop_var.as_ref())
            {
                if tracked.contains(u) {
                    inn.insert(*u);
                }
            }
            if out != live_out[node] || inn != live_in[node] {
                live_out[node] = out;
                live_in[node] = inn;
                changed = true;
            }
        }
    }
    live_out[cfg.exit] = live_in[cfg.exit].clone();
    live_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::expr::{gt, lit, var};
    use modref_spec::ids::BehaviorId;
    use modref_spec::stmt::{assign, if_then, while_loop};
    use modref_spec::StmtOwner;

    fn build(body: &[modref_spec::Stmt]) -> Cfg<'_> {
        Cfg::build(StmtOwner::Behavior(BehaviorId::from_raw(0)), body, None)
    }

    #[test]
    fn read_before_write_is_flagged_and_after_is_not() {
        let x = VarId::from_raw(0);
        let y = VarId::from_raw(1);
        // y := x; x := 1; y := x  — first read of x precedes its def.
        let body = vec![assign(y, var(x)), assign(x, lit(1)), assign(y, var(x))];
        let cfg = build(&body);
        let tracked: HashSet<_> = [x].into();
        let fx = effects(&cfg);
        let uses = maybe_uninit_uses(&cfg, &fx, &tracked);
        assert_eq!(uses.len(), 1);
        assert_eq!(uses[0].var, x);
        assert_eq!(entry_exposed(&cfg, &fx, &tracked), [x].into());
    }

    #[test]
    fn branch_that_skips_the_def_still_counts() {
        let x = VarId::from_raw(0);
        let y = VarId::from_raw(1);
        // if (y > 0) { x := 1 }  ... y := x — x uninit on the else path.
        let body = vec![
            if_then(gt(var(y), lit(0)), vec![assign(x, lit(1))]),
            assign(y, var(x)),
        ];
        let cfg = build(&body);
        let uses = maybe_uninit_uses(&cfg, &effects(&cfg), &[x].into());
        assert_eq!(uses.len(), 1);
    }

    #[test]
    fn dead_store_has_empty_live_out() {
        let x = VarId::from_raw(0);
        let y = VarId::from_raw(1);
        // x := 1 (dead: overwritten); x := 2; y := x.
        let body = vec![assign(x, lit(1)), assign(x, lit(2)), assign(y, var(x))];
        let cfg = build(&body);
        let tracked: HashSet<_> = [x].into();
        let live_out = liveness(&cfg, &effects(&cfg), &tracked, &HashSet::new());
        // Node ids: 0 entry, 1 exit, 2..4 statements.
        assert!(!live_out[2].contains(&x), "first store is dead");
        assert!(live_out[3].contains(&x), "second store is read");
    }

    #[test]
    fn loop_keeps_loop_carried_values_live() {
        let x = VarId::from_raw(0);
        // while (x > 0) { x := x - 1 } — the body's store feeds the head.
        let body = vec![while_loop(
            gt(var(x), lit(0)),
            vec![assign(x, modref_spec::expr::sub(var(x), lit(1)))],
        )];
        let cfg = build(&body);
        let tracked: HashSet<_> = [x].into();
        let live_out = liveness(&cfg, &effects(&cfg), &tracked, &HashSet::new());
        assert!(live_out[3].contains(&x), "store in body feeds loop head");
    }
}
