//! Expressions used in assignments, guards and wait conditions.
//!
//! Expressions are side-effect free. They may read variables and signals;
//! all mutation happens through statements ([`crate::Stmt`]). Free helper
//! constructors ([`var`], [`lit`], [`add`], ...) keep builder code and tests
//! terse.

use crate::ids::{SignalId, VarId};

/// A side-effect-free expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// An integer literal. Booleans and bits are the literals `0`/`1`.
    Lit(i64),
    /// The current value of a scalar variable.
    Var(VarId),
    /// The current value of one element of an array variable.
    Index(VarId, Box<Expr>),
    /// The current value of a signal.
    Signal(SignalId),
    /// A reference to a subroutine parameter by name; only valid inside
    /// subroutine bodies, where parameters are bound at call time.
    Param(String),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical/bitwise not (on bits and bools: `1 - x`).
    Not,
}

impl UnOp {
    /// What the operator computes: wrapping negation, and logical not
    /// yielding 0/1. The simulators and every constant folder use this.
    #[inline]
    pub fn eval(self, v: i64) -> i64 {
        match self {
            UnOp::Neg => v.wrapping_neg(),
            UnOp::Not => i64::from(v == 0),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division. Division by zero yields 0 in the simulator (a
    /// pragmatic choice matching "X" propagation in RTL simulators).
    Div,
    /// Remainder. Remainder by zero yields 0.
    Rem,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Logical and (non-zero is true).
    And,
    /// Logical or.
    Or,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
}

impl BinOp {
    /// What the operator computes: wrapping integer arithmetic,
    /// division/remainder by zero yielding 0, shift amounts masked to the
    /// `i64` width, comparisons and logical ops yielding 0/1. The
    /// simulators and every constant folder use this.
    #[inline]
    pub fn eval(self, l: i64, r: i64) -> i64 {
        match self {
            BinOp::Add => l.wrapping_add(r),
            BinOp::Sub => l.wrapping_sub(r),
            BinOp::Mul => l.wrapping_mul(r),
            BinOp::Div if r == 0 => 0,
            BinOp::Div => l.wrapping_div(r),
            BinOp::Rem if r == 0 => 0,
            BinOp::Rem => l.wrapping_rem(r),
            BinOp::Eq => i64::from(l == r),
            BinOp::Ne => i64::from(l != r),
            BinOp::Lt => i64::from(l < r),
            BinOp::Le => i64::from(l <= r),
            BinOp::Gt => i64::from(l > r),
            BinOp::Ge => i64::from(l >= r),
            BinOp::And => i64::from(l != 0 && r != 0),
            BinOp::Or => i64::from(l != 0 || r != 0),
            BinOp::BitAnd => l & r,
            BinOp::BitOr => l | r,
            BinOp::BitXor => l ^ r,
            BinOp::Shl => l.wrapping_shl(r as u32 & 63),
            BinOp::Shr => l.wrapping_shr(r as u32 & 63),
        }
    }

    /// Whether the operator yields a boolean (0/1) result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The concrete-syntax token for this operator.
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }

    /// Binding power for the printer/parser; higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::BitOr => 3,
            BinOp::BitXor => 4,
            BinOp::BitAnd => 5,
            BinOp::Eq | BinOp::Ne => 6,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 7,
            BinOp::Shl | BinOp::Shr => 8,
            BinOp::Add | BinOp::Sub => 9,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
        }
    }
}

impl Expr {
    /// Collects every variable this expression reads (including arrays
    /// indexed into, and variables appearing in index expressions).
    pub fn reads(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Lit(_) | Expr::Signal(_) | Expr::Param(_) => {}
            Expr::Var(v) => out.push(*v),
            Expr::Index(v, idx) => {
                out.push(*v);
                idx.collect_reads(out);
            }
            Expr::Unary(_, e) => e.collect_reads(out),
            Expr::Binary(_, l, r) => {
                l.collect_reads(out);
                r.collect_reads(out);
            }
        }
    }

    /// Collects every signal this expression reads.
    pub fn signal_reads(&self) -> Vec<SignalId> {
        let mut out = Vec::new();
        self.collect_signal_reads(&mut out);
        out
    }

    fn collect_signal_reads(&self, out: &mut Vec<SignalId>) {
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Param(_) => {}
            Expr::Signal(s) => out.push(*s),
            Expr::Index(_, idx) => idx.collect_signal_reads(out),
            Expr::Unary(_, e) => e.collect_signal_reads(out),
            Expr::Binary(_, l, r) => {
                l.collect_signal_reads(out);
                r.collect_signal_reads(out);
            }
        }
    }

    /// The expression's value if it reads no variable, signal or
    /// parameter, folded with [`UnOp::eval`] and [`BinOp::eval`].
    pub fn const_value(&self) -> Option<i64> {
        match self {
            Expr::Lit(v) => Some(*v),
            Expr::Unary(op, e) => Some(op.eval(e.const_value()?)),
            Expr::Binary(op, l, r) => Some(op.eval(l.const_value()?, r.const_value()?)),
            Expr::Var(_) | Expr::Index(..) | Expr::Signal(_) | Expr::Param(_) => None,
        }
    }

    /// Returns `true` if the expression mentions the given variable.
    pub fn mentions_var(&self, var: VarId) -> bool {
        self.reads().contains(&var)
    }

    /// Counts the operator nodes in the tree (a proxy for evaluation cost,
    /// used by the estimator).
    pub fn op_count(&self) -> u32 {
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Signal(_) | Expr::Param(_) => 0,
            Expr::Index(_, idx) => 1 + idx.op_count(),
            Expr::Unary(_, e) => 1 + e.op_count(),
            Expr::Binary(_, l, r) => 1 + l.op_count() + r.op_count(),
        }
    }
}

// --- free constructor helpers (used pervasively by builders and tests) ---

/// An integer literal expression.
pub fn lit(v: i64) -> Expr {
    Expr::Lit(v)
}

/// A variable read.
pub fn var(v: VarId) -> Expr {
    Expr::Var(v)
}

/// An array element read.
pub fn index(v: VarId, idx: Expr) -> Expr {
    Expr::Index(v, Box::new(idx))
}

/// A signal read.
pub fn signal(s: SignalId) -> Expr {
    Expr::Signal(s)
}

/// A subroutine parameter read (valid only inside subroutine bodies).
pub fn param(name: impl Into<String>) -> Expr {
    Expr::Param(name.into())
}

/// Builds a binary expression.
pub fn binary(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr::Binary(op, Box::new(l), Box::new(r))
}

/// `l + r`
pub fn add(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Add, l, r)
}

/// `l - r`
pub fn sub(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Sub, l, r)
}

/// `l * r`
pub fn mul(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Mul, l, r)
}

/// `l / r`
pub fn div(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Div, l, r)
}

/// `l == r`
pub fn eq(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Eq, l, r)
}

/// `l != r`
pub fn ne(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Ne, l, r)
}

/// `l < r`
pub fn lt(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Lt, l, r)
}

/// `l <= r`
pub fn le(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Le, l, r)
}

/// `l > r`
pub fn gt(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Gt, l, r)
}

/// `l >= r`
pub fn ge(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Ge, l, r)
}

/// `l && r`
pub fn and(l: Expr, r: Expr) -> Expr {
    binary(BinOp::And, l, r)
}

/// `l || r`
pub fn or(l: Expr, r: Expr) -> Expr {
    binary(BinOp::Or, l, r)
}

/// `!e`
pub fn not(e: Expr) -> Expr {
    Expr::Unary(UnOp::Not, Box::new(e))
}

/// `-e`
pub fn neg(e: Expr) -> Expr {
    Expr::Unary(UnOp::Neg, Box::new(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId::from_raw(i)
    }

    #[test]
    fn reads_collects_all_variables() {
        let e = add(var(v(0)), mul(var(v(1)), index(v(2), var(v(3)))));
        let reads = e.reads();
        assert_eq!(reads, vec![v(0), v(1), v(2), v(3)]);
    }

    #[test]
    fn signal_reads_ignore_variables() {
        let s = SignalId::from_raw(5);
        let e = and(eq(signal(s), lit(1)), gt(var(v(0)), lit(3)));
        assert_eq!(e.signal_reads(), vec![s]);
        assert_eq!(e.reads(), vec![v(0)]);
    }

    #[test]
    fn mentions_var_is_exact() {
        let e = add(var(v(1)), lit(2));
        assert!(e.mentions_var(v(1)));
        assert!(!e.mentions_var(v(0)));
    }

    #[test]
    fn op_count_counts_operators() {
        assert_eq!(lit(1).op_count(), 0);
        assert_eq!(add(lit(1), lit(2)).op_count(), 1);
        assert_eq!(not(add(lit(1), mul(lit(2), lit(3)))).op_count(), 3);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(BinOp::Div.eval(5, 0), 0);
        assert_eq!(BinOp::Rem.eval(5, 0), 0);
    }

    #[test]
    fn const_value_folds_arithmetic() {
        assert_eq!(mul(add(lit(2), lit(3)), lit(4)).const_value(), Some(20));
        assert_eq!(var(v(0)).const_value(), None);
        assert_eq!(add(lit(1), var(v(0))).const_value(), None);
        assert_eq!(div(lit(1), lit(0)).const_value(), Some(0));
    }

    #[test]
    fn const_value_wraps_where_plain_arithmetic_overflows() {
        let min = sub(sub(lit(0), lit(i64::MAX)), lit(1));
        assert_eq!(min.const_value(), Some(i64::MIN));
        assert_eq!(div(min.clone(), lit(-1)).const_value(), Some(i64::MIN));
        assert_eq!(
            binary(BinOp::Rem, min.clone(), lit(-1)).const_value(),
            Some(0)
        );
        assert_eq!(neg(min).const_value(), Some(i64::MIN));
    }

    #[test]
    fn precedence_orders_mul_over_add_over_cmp() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Ge.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::And.is_comparison());
    }
}
