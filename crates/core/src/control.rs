//! Control-related refinement — the paper's Figure 4.
//!
//! When behavior `B` is assigned to a different component than its parent
//! composite, the execution sequence must be preserved across the chip
//! boundary. Two signals are introduced — `B_start` and `B_done` — plus:
//!
//! * a **`B_CTRL`** leaf at `B`'s original position, which raises
//!   `B_start`, waits for `B_done`, and completes the four-phase
//!   handshake so `B` can run again on the next activation;
//! * a **`B_NEW`** wrapper running concurrently on the other component:
//!   the *leaf scheme* (Figure 4(b)) encloses `B`'s statements in an
//!   infinite `loop { wait start; body; set done; }`; the *non-leaf
//!   scheme* (Figure 4(c)) builds a sequential composite
//!   `[wait-leaf, B, done-leaf]` looped by a transition arc, because a
//!   composite's children cannot be enclosed in a leaf's loop.

use modref_spec::{
    expr, stmt, Behavior, BehaviorId, BehaviorKind, DataType, SignalId, Spec, Stmt, Transition,
    TransitionTarget,
};

use crate::protocol::add_fresh_signal;

/// The start/done signal pair guarding a moved behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlSignals {
    /// Raised by `B_CTRL` to start the moved behavior.
    pub start: SignalId,
    /// Raised by the moved behavior on completion.
    pub done: SignalId,
}

impl ControlSignals {
    /// Declares `B_start`/`B_done` for the behavior named `base`.
    pub fn create(spec: &mut Spec, base: &str) -> Self {
        Self {
            start: add_fresh_signal(spec, &format!("{base}_start"), DataType::Bit),
            done: add_fresh_signal(spec, &format!("{base}_done"), DataType::Bit),
        }
    }
}

/// Builds the `B_CTRL` stub that occupies the moved behavior's original
/// position (Figure 4(a) right side).
pub fn make_bctrl(spec: &mut Spec, base: &str, sigs: ControlSignals) -> BehaviorId {
    let name = spec.fresh_behavior_name(&format!("{base}_CTRL"));
    let body = vec![
        stmt::set_signal(sigs.start, expr::lit(1)),
        stmt::wait_until(expr::eq(expr::signal(sigs.done), expr::lit(1))),
        stmt::set_signal(sigs.start, expr::lit(0)),
        stmt::wait_until(expr::eq(expr::signal(sigs.done), expr::lit(0))),
    ];
    spec.add_behavior(Behavior::new(name, BehaviorKind::Leaf { body }))
}

/// Builds `B_NEW` with the **leaf scheme** (Figure 4(b)): the moved
/// behavior's statements wrapped in a guarded infinite loop. `body` is the
/// already-refined statement list of the original leaf.
pub fn make_bnew_leaf(
    spec: &mut Spec,
    base: &str,
    sigs: ControlSignals,
    body: Vec<Stmt>,
) -> BehaviorId {
    let name = spec.fresh_behavior_name(&format!("{base}_NEW"));
    let mut looped = vec![stmt::wait_until(expr::eq(
        expr::signal(sigs.start),
        expr::lit(1),
    ))];
    looped.extend(body);
    looped.extend([
        stmt::set_signal(sigs.done, expr::lit(1)),
        stmt::wait_until(expr::eq(expr::signal(sigs.start), expr::lit(0))),
        stmt::set_signal(sigs.done, expr::lit(0)),
    ]);
    spec.add_behavior(Behavior::new_server(
        name,
        BehaviorKind::Leaf {
            body: vec![stmt::infinite_loop(looped)],
        },
    ))
}

/// Builds `B_NEW` with the **non-leaf scheme** (Figure 4(c)): a looping
/// sequential composite `[wait, inner, done]` where `inner` is the copied
/// (already refined) composite behavior.
pub fn make_bnew_composite(
    spec: &mut Spec,
    base: &str,
    sigs: ControlSignals,
    inner: BehaviorId,
) -> BehaviorId {
    let wait_name = spec.fresh_behavior_name(&format!("{base}_wait"));
    let wait_leaf = spec.add_behavior(Behavior::new(
        wait_name,
        BehaviorKind::Leaf {
            body: vec![stmt::wait_until(expr::eq(
                expr::signal(sigs.start),
                expr::lit(1),
            ))],
        },
    ));
    let done_name = spec.fresh_behavior_name(&format!("{base}_set_done"));
    let done_leaf = spec.add_behavior(Behavior::new(
        done_name,
        BehaviorKind::Leaf {
            body: vec![
                stmt::set_signal(sigs.done, expr::lit(1)),
                stmt::wait_until(expr::eq(expr::signal(sigs.start), expr::lit(0))),
                stmt::set_signal(sigs.done, expr::lit(0)),
            ],
        },
    ));
    let name = spec.fresh_behavior_name(&format!("{base}_NEW"));
    spec.add_behavior(Behavior::new_server(
        name,
        BehaviorKind::Seq {
            children: vec![wait_leaf, inner, done_leaf],
            transitions: vec![Transition {
                from: done_leaf,
                cond: None,
                to: TransitionTarget::Behavior(wait_leaf),
            }],
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_sim::Simulator;
    use modref_spec::builder::SpecBuilder;

    /// Rebuilds the paper's Figure 4 by hand: A; B; C sequential, with B
    /// moved to another partition. The refined spec must execute B after
    /// A and before C — twice, to prove the handshake re-arms.
    #[test]
    fn moved_leaf_preserves_execution_order_across_activations() {
        let mut b = SpecBuilder::new("fig4");
        let trace = b.var_int("trace", 32, 0);
        let push = |v: i64| {
            stmt::assign(
                modref_spec::VarId::from_raw(0),
                expr::add(
                    expr::mul(expr::var(modref_spec::VarId::from_raw(0)), expr::lit(10)),
                    expr::lit(v),
                ),
            )
        };
        assert_eq!(trace.index(), 0);
        let a = b.leaf("A", vec![push(1)]);
        let c = b.leaf("C", vec![push(3)]);
        let round = b.seq_in_order("Round", vec![a, c]); // B_CTRL inserted below
        let top = b.seq_in_order("Main", vec![round]);
        let mut spec = b.finish_unchecked(top);

        // Move "B" (body pushes 2) out: create signals, ctrl, wrapper.
        let sigs = ControlSignals::create(&mut spec, "B");
        let bctrl = make_bctrl(&mut spec, "B", sigs);
        let bnew = make_bnew_leaf(&mut spec, "B", sigs, vec![push(2)]);

        // Splice B_CTRL between A and C.
        match spec.behavior_mut(round).kind_mut() {
            BehaviorKind::Seq { children, .. } => children.insert(1, bctrl),
            _ => unreachable!(),
        }
        // Run the Round twice to check the handshake re-arms.
        match spec.behavior_mut(top).kind_mut() {
            BehaviorKind::Seq { children, .. } => {
                let again = children[0];
                children.push(again);
            }
            _ => unreachable!(),
        }
        // Re-adding the same child violates the tree invariant; instead
        // loop via a transition.
        match spec.behavior_mut(top).kind_mut() {
            BehaviorKind::Seq { children, .. } => {
                children.pop();
            }
            _ => unreachable!(),
        }
        let counter = spec.add_variable("rounds", modref_spec::DataType::int(8), 0, None);
        let bump = spec.add_behavior(Behavior::new(
            "Bump",
            BehaviorKind::Leaf {
                body: vec![stmt::assign(
                    counter,
                    expr::add(expr::var(counter), expr::lit(1)),
                )],
            },
        ));
        match spec.behavior_mut(top).kind_mut() {
            BehaviorKind::Seq {
                children,
                transitions,
            } => {
                children.push(bump);
                transitions.push(Transition {
                    from: bump,
                    cond: Some(expr::lt(expr::var(counter), expr::lit(2))),
                    to: TransitionTarget::Behavior(round),
                });
            }
            _ => unreachable!(),
        }

        let system = spec.add_behavior(Behavior::new(
            "System",
            BehaviorKind::Concurrent {
                children: vec![top, bnew],
            },
        ));
        spec.set_top(system);
        modref_spec::validate::check(&spec).unwrap();

        let r = Simulator::new(&spec).run().expect("completes");
        // Two rounds of 1,2,3: trace = 123123.
        assert_eq!(r.var_by_name("trace"), Some(123_123));
    }

    /// The non-leaf scheme: a moved composite (two sequential leaves)
    /// wrapped per Figure 4(c).
    #[test]
    fn moved_composite_uses_nonleaf_scheme() {
        let mut b = SpecBuilder::new("fig4c");
        let x = b.var_int("x", 16, 0);
        let inner1 = b.leaf(
            "I1",
            vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(5)))],
        );
        let inner2 = b.leaf(
            "I2",
            vec![stmt::assign(x, expr::mul(expr::var(x), expr::lit(2)))],
        );
        let moved = b.seq_in_order("Moved", vec![inner1, inner2]);
        let before = b.leaf("Before", vec![stmt::assign(x, expr::lit(1))]);
        let main = b.seq_in_order("Main", vec![before]);
        let mut spec = b.finish_unchecked(main);

        let sigs = ControlSignals::create(&mut spec, "Moved");
        let bctrl = make_bctrl(&mut spec, "Moved", sigs);
        let bnew = make_bnew_composite(&mut spec, "Moved", sigs, moved);
        match spec.behavior_mut(main).kind_mut() {
            BehaviorKind::Seq { children, .. } => children.push(bctrl),
            _ => unreachable!(),
        }
        let system = spec.add_behavior(Behavior::new(
            "System",
            BehaviorKind::Concurrent {
                children: vec![main, bnew],
            },
        ));
        spec.set_top(system);
        modref_spec::validate::check(&spec).unwrap();

        let r = Simulator::new(&spec).run().expect("completes");
        assert_eq!(r.var_by_name("x"), Some(12)); // (1+5)*2
                                                  // Wrapper shape: seq server with 3 children and a loop-back arc.
        let wrapper = spec.behavior(bnew);
        assert!(wrapper.is_server());
        assert_eq!(wrapper.children().len(), 3);
        assert_eq!(wrapper.transitions().len(), 1);
    }

    #[test]
    fn control_signal_names_follow_paper_convention() {
        let mut b = SpecBuilder::new("names");
        let leaf = b.leaf("L", vec![]);
        let top = b.seq_in_order("Top", vec![leaf]);
        let mut spec = b.finish_unchecked(top);
        let sigs = ControlSignals::create(&mut spec, "B");
        assert_eq!(spec.signal(sigs.start).name(), "B_start");
        assert_eq!(spec.signal(sigs.done).name(), "B_done");
        let ctrl = make_bctrl(&mut spec, "B", sigs);
        assert_eq!(spec.behavior(ctrl).name(), "B_CTRL");
    }
}
