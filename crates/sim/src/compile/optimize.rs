//! Optimization: constant folding, operand fusion, short-circuit chains
//! and branch rewrites on folded conditions.
//!
//! Folding uses the interpreter's operator semantics ([`BinOp::eval`] and
//! [`UnOp::eval`]), so a folded program computes bit-identical values.
//! Only full-literal subtrees fold: algebraic identities like `x * 0 → 0`
//! are unsound here because the eliminated operand could fault at runtime
//! (out-of-bounds index, unbound parameter) and the interpreter always
//! evaluates both sides. The same rule bounds short-circuiting: a `||` or
//! `&&` chain may skip a term only when that term cannot fault (contains
//! no `Elem`, `Param` or `ParamErr`), so every fault the interpreter
//! raises is still raised, in the same left-to-right order. Every rewrite
//! also preserves instruction count at each point a pc can observe,
//! keeping micro-step parity with the interpreters.

use modref_spec::{BinOp, UnOp};

use super::lower::Lowered;
use super::{EOp, ExprRef, Instr};

/// Pushes a unary operation onto a postfix buffer, folding when the
/// operand already reduced to a constant.
pub(crate) fn push_un(buf: &mut Vec<EOp>, op: UnOp) {
    if let Some(EOp::Const(v)) = buf.last() {
        *buf.last_mut().expect("just matched") = EOp::Const(op.eval(*v));
    } else {
        buf.push(EOp::Un(op));
    }
}

/// Pushes a binary operation, folding when both operands reduced to
/// constants and fusing a signal or variable operand with a literal one.
/// In postfix, the right operand folded to a single constant exactly when
/// the last op is `Const`, and then the left operand ends one op earlier:
/// two trailing `Const`s identify a full-literal subtree, and a trailing
/// `Sig`/`Var` before the `Const` is the whole left operand.
pub(crate) fn push_bin(buf: &mut Vec<EOp>, op: BinOp) {
    let fused = match buf.as_slice() {
        [.., EOp::Const(l), EOp::Const(r)] => EOp::Const(op.eval(*l, *r)),
        [.., EOp::Sig(slot), EOp::Const(k)] => EOp::SigC {
            slot: *slot,
            op,
            k: *k,
        },
        [.., EOp::Var(slot), EOp::Const(k)] => EOp::VarC {
            slot: *slot,
            op,
            k: *k,
        },
        _ => {
            buf.push(EOp::Bin(op));
            return;
        }
    };
    buf.pop();
    *buf.last_mut().expect("just matched") = fused;
}

/// Pushes a flattened `||`/`&&` chain: `operands` are its terms in source
/// order, each already linearized. Runs of terms that cannot fault
/// become one [`EOp::Any`]/[`EOp::All`] operand (terms interned into
/// `pool`, their references into `terms`) whose first term is everything
/// to their left, which always evaluates. A term that can fault joins
/// with a plain [`EOp::Bin`], so it is never skipped.
pub(crate) fn push_logic(
    pool: &mut Vec<EOp>,
    terms: &mut Vec<ExprRef>,
    buf: &mut Vec<EOp>,
    op: BinOp,
    operands: Vec<Vec<EOp>>,
) {
    debug_assert!(matches!(op, BinOp::Or | BinOp::And));
    let mut operands = operands.into_iter();
    let mut acc = operands.next().expect("a chain has terms");
    let mut skippable = Vec::new();
    for term in operands {
        if can_fault(pool, terms, &term) {
            close_chain(pool, terms, &mut acc, op, &mut skippable);
            acc.extend(term);
            push_bin(&mut acc, op);
        } else {
            skippable.push(term);
        }
    }
    close_chain(pool, terms, &mut acc, op, &mut skippable);
    buf.extend(acc);
}

/// Joins `acc` with the fault-free `rest`. Two single ops, or literals
/// only, go through [`push_bin`] (fused or folded); anything longer
/// becomes one chain operand.
fn close_chain(
    pool: &mut Vec<EOp>,
    terms: &mut Vec<ExprRef>,
    acc: &mut Vec<EOp>,
    op: BinOp,
    rest: &mut Vec<Vec<EOp>>,
) {
    if rest.is_empty() {
        return;
    }
    let is_const = |t: &[EOp]| matches!(t, [EOp::Const(_)]);
    let pair = rest.len() == 1 && acc.len() == 1 && rest[0].len() == 1;
    if pair || (is_const(acc) && rest.iter().all(|t| is_const(t))) {
        for term in rest.drain(..) {
            acc.extend(term);
            push_bin(acc, op);
        }
        return;
    }
    let off = terms.len() as u32;
    for term in std::iter::once(std::mem::take(acc)).chain(rest.drain(..)) {
        terms.push(ExprRef {
            off: pool.len() as u32,
            len: term.len() as u32,
        });
        pool.extend(term);
    }
    let len = terms.len() as u32 - off;
    acc.push(match op {
        BinOp::Or => EOp::Any { off, len },
        _ => EOp::All { off, len },
    });
}

/// Whether evaluating `ops` can raise an error: an array index (out of
/// bounds) or a parameter read (unbound), directly or inside a chain.
fn can_fault(pool: &[EOp], terms: &[ExprRef], ops: &[EOp]) -> bool {
    ops.iter().any(|op| match *op {
        EOp::Elem(_) | EOp::Param { .. } | EOp::ParamErr { .. } => true,
        EOp::Any { off, len } | EOp::All { off, len } => terms[off as usize..(off + len) as usize]
            .iter()
            .any(|r| can_fault(pool, terms, r.ops(pool))),
        _ => false,
    })
}

/// The constant value of a fully folded expression, if it is one.
fn as_const(pool: &[EOp], r: ExprRef) -> Option<i64> {
    match r.ops(pool) {
        [EOp::Const(v)] => Some(*v),
        _ => None,
    }
}

/// Rewrites branches whose conditions folded to constants. Operates on
/// label-form code: rewrites are strictly in place (never added or
/// removed instructions), so label addresses stay valid.
///
/// * `JumpIfZero` on a constant becomes `Jump` (zero) or `Nop`
///   (non-zero) — same single step, no evaluation.
/// * `wait until <non-zero constant>` becomes `Nop`: the interpreter
///   evaluates true and falls through in one step. The constant-*false*
///   case stays a wait site — it blocks forever with an empty
///   sensitivity set, and the deadlock report must still see it.
pub(crate) fn peephole(lowered: &mut Lowered) {
    for instr in &mut lowered.code {
        match instr {
            Instr::JumpIfZero { cond, to } => {
                if let Some(v) = as_const(&lowered.pool, *cond) {
                    *instr = if v == 0 { Instr::Jump(*to) } else { Instr::Nop };
                }
            }
            Instr::WaitUntil { site } => {
                let cond = lowered.waits[*site as usize].cond;
                if as_const(&lowered.pool, cond).is_some_and(|v| v != 0) {
                    *instr = Instr::Nop;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_folds_constants() {
        let mut buf = vec![EOp::Const(5)];
        push_un(&mut buf, UnOp::Neg);
        assert_eq!(buf, vec![EOp::Const(-5)]);
        push_un(&mut buf, UnOp::Not);
        assert_eq!(buf, vec![EOp::Const(0)]);
    }

    #[test]
    fn binary_folds_literal_pairs() {
        let mut buf = vec![EOp::Const(6), EOp::Const(7)];
        push_bin(&mut buf, BinOp::Mul);
        assert_eq!(buf, vec![EOp::Const(42)]);
    }

    #[test]
    fn binary_preserves_non_literal_operands() {
        let mut buf = vec![EOp::Var(0), EOp::Const(0)];
        push_bin(&mut buf, BinOp::Mul);
        // `x * 0` must NOT fold to a constant: the fused op still reads
        // the variable.
        assert_eq!(
            buf,
            vec![EOp::VarC {
                slot: 0,
                op: BinOp::Mul,
                k: 0
            }]
        );
    }

    #[test]
    fn binary_fuses_only_a_whole_left_operand() {
        // `(s == 1) == 1`: the left operand is the fused op, not `Sig`.
        let mut buf = vec![EOp::Sig(3), EOp::Const(1)];
        push_bin(&mut buf, BinOp::Eq);
        buf.push(EOp::Const(1));
        push_bin(&mut buf, BinOp::Eq);
        let inner = EOp::SigC {
            slot: 3,
            op: BinOp::Eq,
            k: 1,
        };
        assert_eq!(buf, vec![inner, EOp::Const(1), EOp::Bin(BinOp::Eq)]);
        // A literal on the left stays a plain operator.
        let mut buf = vec![EOp::Const(1), EOp::Sig(3)];
        push_bin(&mut buf, BinOp::Eq);
        assert_eq!(buf, vec![EOp::Const(1), EOp::Sig(3), EOp::Bin(BinOp::Eq)]);
    }

    /// Runs [`push_logic`] over `operands` on empty tables.
    fn logic(op: BinOp, operands: Vec<Vec<EOp>>) -> (Vec<EOp>, Vec<ExprRef>, Vec<EOp>) {
        let (mut pool, mut terms, mut buf) = (Vec::new(), Vec::new(), Vec::new());
        push_logic(&mut pool, &mut terms, &mut buf, op, operands);
        (pool, terms, buf)
    }

    #[test]
    fn logic_chains_fault_free_terms_into_one_operand() {
        let (pool, terms, buf) = logic(
            BinOp::Or,
            vec![vec![EOp::Sig(0)], vec![EOp::Sig(1)], vec![EOp::Var(2)]],
        );
        assert_eq!(buf, vec![EOp::Any { off: 0, len: 3 }]);
        assert_eq!(pool, vec![EOp::Sig(0), EOp::Sig(1), EOp::Var(2)]);
        assert_eq!(terms.len(), 3);
        // The chain is one operand: `(p || q || s) == 1` compares it as a
        // whole instead of fusing its last term with the literal.
        let mut cmp = buf.clone();
        cmp.push(EOp::Const(1));
        push_bin(&mut cmp, BinOp::Eq);
        assert_eq!(
            cmp,
            vec![
                EOp::Any { off: 0, len: 3 },
                EOp::Const(1),
                EOp::Bin(BinOp::Eq)
            ]
        );
        // Two single ops stay a fast-path binary; literals fold.
        let (_, terms, buf) = logic(BinOp::And, vec![vec![EOp::Sig(0)], vec![EOp::Var(1)]]);
        assert_eq!(buf, vec![EOp::Sig(0), EOp::Var(1), EOp::Bin(BinOp::And)]);
        assert!(terms.is_empty());
        let (_, _, buf) = logic(
            BinOp::Or,
            vec![
                vec![EOp::Const(0)],
                vec![EOp::Const(0)],
                vec![EOp::Const(2)],
            ],
        );
        assert_eq!(buf, vec![EOp::Const(1)]);
    }

    #[test]
    fn logic_never_skips_a_term_that_can_fault() {
        // `false || a[9]`: the index is evaluated as the interpreter does.
        let (_, terms, buf) = logic(
            BinOp::Or,
            vec![vec![EOp::Const(0)], vec![EOp::Const(9), EOp::Elem(0)]],
        );
        assert_eq!(
            buf,
            vec![
                EOp::Const(0),
                EOp::Const(9),
                EOp::Elem(0),
                EOp::Bin(BinOp::Or)
            ]
        );
        assert!(terms.is_empty());
        // `p || $x || q || s`: the parameter joins with a plain `||`, and
        // the fault-free tail becomes a chain headed by everything before.
        let param = EOp::Param { slot: 0, name: 0 };
        let (pool, terms, buf) = logic(
            BinOp::Or,
            vec![
                vec![EOp::Sig(0)],
                vec![param],
                vec![EOp::Sig(1)],
                vec![EOp::Sig(2)],
            ],
        );
        assert_eq!(buf, vec![EOp::Any { off: 0, len: 3 }]);
        assert_eq!(
            terms[0].ops(&pool),
            &[EOp::Sig(0), param, EOp::Bin(BinOp::Or)]
        );
        // A chain over a faulting term can itself fault.
        assert!(can_fault(&pool, &terms, &buf));
    }

    #[test]
    fn division_by_zero_folds_to_zero() {
        let mut buf = vec![EOp::Const(9), EOp::Const(0)];
        push_bin(&mut buf, BinOp::Div);
        assert_eq!(buf, vec![EOp::Const(0)]);
    }
}
