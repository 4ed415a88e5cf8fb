//! Optimization: constant folding and branch rewrites on folded
//! conditions.
//!
//! Folding uses the interpreter's operator semantics ([`BinOp::eval`] and
//! [`UnOp::eval`]), so a folded program computes bit-identical values.
//! Only full-literal subtrees fold: algebraic identities like `x * 0 → 0`
//! are unsound here because the eliminated operand could fault at runtime
//! (out-of-bounds index, unbound parameter) and the interpreter always
//! evaluates both sides. Every rewrite also preserves instruction count at each point a
//! pc can observe, keeping micro-step parity with the interpreters.

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
/// constants. In postfix, the right operand folded to a single constant
/// exactly when the last op is `Const`, and then the left operand ends
/// one op earlier — so two trailing `Const`s identify a full-literal
/// subtree.
pub(crate) fn push_bin(buf: &mut Vec<EOp>, op: BinOp) {
    if let [.., EOp::Const(l), EOp::Const(r)] = buf.as_slice() {
        let folded = op.eval(*l, *r);
        buf.pop();
        *buf.last_mut().expect("just matched") = EOp::Const(folded);
    } else {
        buf.push(EOp::Bin(op));
    }
}

/// The constant value of a fully folded expression, if it is one.
fn as_const(pool: &[EOp], r: ExprRef) -> Option<i64> {
    if r.len == 1 {
        if let EOp::Const(v) = pool[r.off as usize] {
            return Some(v);
        }
    }
    None
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
        // `x * 0` must NOT fold: the variable read is kept.
        assert_eq!(buf, vec![EOp::Var(0), EOp::Const(0), EOp::Bin(BinOp::Mul)]);
    }

    #[test]
    fn division_by_zero_folds_to_zero() {
        let mut buf = vec![EOp::Const(9), EOp::Const(0)];
        push_bin(&mut buf, BinOp::Div);
        assert_eq!(buf, vec![EOp::Const(0)]);
    }
}
