//! Worklist dataflow over a [`Cfg`]: may-be-uninitialized (forward,
//! reaching-definitions flavored) and liveness (backward).
//!
//! Both analyses track a caller-supplied set of variables only — the
//! lints restrict themselves to behavior-private scalars, so there is no
//! point propagating facts about globals the body cannot reason about
//! alone.

use std::collections::HashSet;

use modref_spec::VarId;

use crate::cfg::{Cfg, NodeId};

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
pub fn maybe_uninit_uses(cfg: &Cfg, tracked: &HashSet<VarId>) -> Vec<UninitUse> {
    let n = cfg.nodes.len();
    // IN[entry] = tracked; everything else starts empty (bottom) and grows.
    let mut input: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
    input[cfg.entry] = tracked.clone();
    let mut work: Vec<NodeId> = vec![cfg.entry];
    while let Some(node) = work.pop() {
        // OUT = IN - strong defs.
        let mut out = input[node].clone();
        for d in &cfg.nodes[node].defs {
            out.remove(d);
        }
        for &s in &cfg.nodes[node].succs {
            let before = input[s].len();
            input[s].extend(out.iter().copied());
            if input[s].len() != before {
                work.push(s);
            }
        }
    }
    let mut found = Vec::new();
    for (id, node) in cfg.nodes.iter().enumerate() {
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
pub fn entry_exposed(cfg: &Cfg, tracked: &HashSet<VarId>) -> HashSet<VarId> {
    maybe_uninit_uses(cfg, tracked)
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
    tracked: &HashSet<VarId>,
    live_at_exit: &HashSet<VarId>,
) -> Vec<HashSet<VarId>> {
    let n = cfg.nodes.len();
    let mut live_out: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
    let mut live_in: Vec<HashSet<VarId>> = vec![HashSet::new(); n];
    live_in[cfg.exit] = live_at_exit
        .iter()
        .copied()
        .filter(|v| tracked.contains(v))
        .collect();
    let mut work: Vec<NodeId> = (0..n).collect();
    while let Some(node) = work.pop() {
        let mut out: HashSet<VarId> = HashSet::new();
        for &s in &cfg.nodes[node].succs {
            out.extend(live_in[s].iter().copied());
        }
        if node == cfg.exit {
            out.extend(live_in[cfg.exit].iter().copied());
        }
        // IN = (OUT - strong defs) ∪ uses ∪ weak defs. A weak def both
        // reads and writes part of the variable, so it keeps it live.
        let mut inn = out.clone();
        for d in &cfg.nodes[node].defs {
            inn.remove(d);
        }
        for u in cfg.nodes[node]
            .uses
            .iter()
            .chain(&cfg.nodes[node].weak_defs)
            .chain(cfg.nodes[node].loop_var.as_ref())
        {
            if tracked.contains(u) {
                inn.insert(*u);
            }
        }
        let changed = out != live_out[node] || inn != live_in[node];
        live_out[node] = out;
        if changed {
            live_in[node] = inn;
            for &p in &cfg.nodes[node].preds {
                work.push(p);
            }
        }
    }
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
        let uses = maybe_uninit_uses(&cfg, &tracked);
        assert_eq!(uses.len(), 1);
        assert_eq!(uses[0].var, x);
        assert_eq!(entry_exposed(&cfg, &tracked), [x].into());
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
        let uses = maybe_uninit_uses(&cfg, &[x].into());
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
        let live_out = liveness(&cfg, &tracked, &HashSet::new());
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
        let live_out = liveness(&cfg, &tracked, &HashSet::new());
        assert!(live_out[3].contains(&x), "store in body feeds loop head");
    }
}
