//! Pretty-printer for the textual specification language.
//!
//! The printed form is the system's *measurable output*: the paper's
//! Figure 10 compares implementation models by the number of lines in the
//! refined specification, so the printer emits a stable, one-construct-
//! per-line layout. [`print()`](print()) renders a [`Spec`]; [`line_count`] is the
//! Figure 10 metric. The output parses back with
//! [`parser::parse`](crate::parser::parse) (round-trip is property-tested).
//!
//! ## Concrete syntax sketch
//!
//! ```text
//! spec medical;
//!
//! signal B_start : bit = 0;
//! var g : int<16> = 0;
//!
//! subroutine MST_receive(in addr : uint<8>, out data : int<16>) {
//!   ...
//! }
//!
//! behavior A leaf {
//!   var tmp : int<16> = 0;
//!   x := x + 5;
//! }
//!
//! behavior Top seq {
//!   children { A; B; C; }
//!   transitions {
//!     A -> B when (x > 1);
//!     B -> complete;
//!   }
//! }
//!
//! top Top;
//! ```

use crate::behavior::{BehaviorKind, TransitionTarget};
use crate::expr::{Expr, UnOp};
use crate::spec::Spec;
use crate::stmt::{CallArg, LValue, Stmt, WaitCond};
use crate::subroutine::ParamDir;

/// Renders a spec to its textual form.
pub fn print(spec: &Spec) -> String {
    let mut p = Printer::new(spec);
    p.print_spec();
    p.out
}

/// Number of lines in the printed form of `spec` — the Figure 10 metric.
pub fn line_count(spec: &Spec) -> usize {
    print(spec).lines().count()
}

struct Printer<'a> {
    spec: &'a Spec,
    out: String,
    indent: usize,
}

impl<'a> Printer<'a> {
    fn new(spec: &'a Spec) -> Self {
        Self {
            spec,
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn blank(&mut self) {
        self.out.push('\n');
    }

    fn print_spec(&mut self) {
        self.line(&format!("spec {};", self.spec.name()));
        self.blank();

        for (_, s) in self.spec.signals() {
            self.line(&format!("signal {} : {} = {};", s.name(), s.ty(), s.init()));
        }
        for (_, v) in self.spec.variables() {
            if v.scope().is_none() && !self.is_subroutine_local(v.name()) {
                self.line(&format!("var {} : {} = {};", v.name(), v.ty(), v.init()));
            }
        }
        self.blank();

        for (_, sub) in self.spec.subroutines() {
            self.print_subroutine(sub);
            self.blank();
        }

        for (id, _) in self.spec.behaviors() {
            self.print_behavior(id);
            self.blank();
        }

        if let Some(top) = self.spec.top_opt() {
            self.line(&format!("top {};", self.spec.behavior(top).name()));
        }
    }

    fn is_subroutine_local(&self, var_name: &str) -> bool {
        self.spec.subroutines().any(|(_, s)| {
            s.locals()
                .iter()
                .any(|&l| self.spec.variable(l).name() == var_name)
        })
    }

    fn print_subroutine(&mut self, sub: &crate::subroutine::Subroutine) {
        let params: Vec<String> = sub
            .params()
            .iter()
            .map(|p| {
                let dir = match p.dir {
                    ParamDir::In => "in",
                    ParamDir::Out => "out",
                };
                format!("{dir} {} : {}", p.name, p.ty)
            })
            .collect();
        self.line(&format!(
            "subroutine {}({}) {{",
            sub.name(),
            params.join(", ")
        ));
        self.indent += 1;
        for &local in sub.locals() {
            let v = self.spec.variable(local);
            self.line(&format!("var {} : {} = {};", v.name(), v.ty(), v.init()));
        }
        let body = sub.body().to_vec();
        for s in &body {
            self.print_stmt(s);
        }
        self.indent -= 1;
        self.line("}");
    }

    fn print_behavior(&mut self, id: crate::ids::BehaviorId) {
        let b = self.spec.behavior(id);
        let kind_word = match b.kind() {
            BehaviorKind::Leaf { .. } => "leaf",
            BehaviorKind::Seq { .. } => "seq",
            BehaviorKind::Concurrent { .. } => "conc",
        };
        let server = if b.is_server() { " server" } else { "" };
        self.line(&format!("behavior {} {kind_word}{server} {{", b.name()));
        self.indent += 1;
        for &vid in b.declared_vars() {
            let v = self.spec.variable(vid);
            self.line(&format!("var {} : {} = {};", v.name(), v.ty(), v.init()));
        }
        match b.kind() {
            BehaviorKind::Leaf { body } => {
                let body = body.clone();
                for s in &body {
                    self.print_stmt(s);
                }
            }
            BehaviorKind::Seq {
                children,
                transitions,
            } => {
                let names: Vec<String> = children
                    .iter()
                    .map(|&c| format!("{};", self.spec.behavior(c).name()))
                    .collect();
                self.line(&format!("children {{ {} }}", names.join(" ")));
                if !transitions.is_empty() {
                    let transitions = transitions.clone();
                    self.line("transitions {");
                    self.indent += 1;
                    for t in &transitions {
                        let from = self.spec.behavior(t.from).name().to_string();
                        let to = match t.to {
                            TransitionTarget::Behavior(b) => {
                                self.spec.behavior(b).name().to_string()
                            }
                            TransitionTarget::Complete => "complete".to_string(),
                        };
                        match &t.cond {
                            Some(c) => {
                                let cond = self.expr(c);
                                self.line(&format!("{from} -> {to} when ({cond});"));
                            }
                            None => self.line(&format!("{from} -> {to};")),
                        }
                    }
                    self.indent -= 1;
                    self.line("}");
                }
            }
            BehaviorKind::Concurrent { children } => {
                let names: Vec<String> = children
                    .iter()
                    .map(|&c| format!("{};", self.spec.behavior(c).name()))
                    .collect();
                self.line(&format!("children {{ {} }}", names.join(" ")));
            }
        }
        self.indent -= 1;
        self.line("}");
    }

    fn print_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { target, value } => {
                let t = self.lvalue(target);
                let v = self.expr(value);
                self.line(&format!("{t} := {v};"));
            }
            Stmt::SignalSet { signal, value } => {
                let name = self.spec.signal(*signal).name().to_string();
                let v = self.expr(value);
                self.line(&format!("set {name} := {v};"));
            }
            Stmt::Wait(WaitCond::Until(e)) => {
                let c = self.expr(e);
                self.line(&format!("wait until ({c});"));
            }
            Stmt::Wait(WaitCond::For(n)) => {
                self.line(&format!("wait for {n};"));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond);
                self.line(&format!("if ({c}) {{"));
                self.indent += 1;
                for s in then_body {
                    self.print_stmt(s);
                }
                self.indent -= 1;
                if else_body.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    for s in else_body {
                        self.print_stmt(s);
                    }
                    self.indent -= 1;
                    self.line("}");
                }
            }
            Stmt::While {
                cond,
                body,
                trip_hint,
            } => {
                let c = self.expr(cond);
                match trip_hint {
                    Some(h) => self.line(&format!("while ({c}) @{h} {{")),
                    None => self.line(&format!("while ({c}) {{")),
                }
                self.indent += 1;
                for s in body {
                    self.print_stmt(s);
                }
                self.indent -= 1;
                self.line("}");
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let name = self.spec.variable(*var).name().to_string();
                let f = self.expr(from);
                let t = self.expr(to);
                self.line(&format!("for {name} := {f} to {t} {{"));
                self.indent += 1;
                for s in body {
                    self.print_stmt(s);
                }
                self.indent -= 1;
                self.line("}");
            }
            Stmt::Loop { body } => {
                self.line("loop {");
                self.indent += 1;
                for s in body {
                    self.print_stmt(s);
                }
                self.indent -= 1;
                self.line("}");
            }
            Stmt::Call { sub, args } => {
                let name = self.spec.subroutine(*sub).name().to_string();
                let args: Vec<String> = args
                    .iter()
                    .map(|a| match a {
                        CallArg::In(e) => format!("in {}", self.expr(e)),
                        CallArg::Out(lv) => format!("out {}", self.lvalue(lv)),
                    })
                    .collect();
                self.line(&format!("call {name}({});", args.join(", ")));
            }
            Stmt::Delay(n) => self.line(&format!("delay {n};")),
            Stmt::Skip => self.line("skip;"),
        }
    }

    fn lvalue(&self, lv: &LValue) -> String {
        match lv {
            LValue::Var(v) => self.spec.variable(*v).name().to_string(),
            LValue::Index(v, idx) => {
                format!("{}[{}]", self.spec.variable(*v).name(), self.expr(idx))
            }
            LValue::Param(name) => format!("${name}"),
        }
    }

    fn expr(&self, e: &Expr) -> String {
        self.expr_prec(e, 0)
    }

    fn expr_prec(&self, e: &Expr, min_prec: u8) -> String {
        match e {
            Expr::Lit(v) => v.to_string(),
            Expr::Var(v) => self.spec.variable(*v).name().to_string(),
            Expr::Index(v, idx) => {
                format!("{}[{}]", self.spec.variable(*v).name(), self.expr(idx))
            }
            Expr::Signal(s) => self.spec.signal(*s).name().to_string(),
            Expr::Param(name) => format!("${name}"),
            Expr::Unary(op, inner) => {
                let op_str = match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "!",
                };
                format!("{op_str}{}", self.expr_prec(inner, 11))
            }
            Expr::Binary(op, l, r) => {
                let prec = op.precedence();
                let text = format!(
                    "{} {} {}",
                    self.expr_prec(l, prec),
                    op.token(),
                    self.expr_prec(r, prec + 1)
                );
                if prec < min_prec {
                    format!("({text})")
                } else {
                    text
                }
            }
        }
    }
}

/// Convenience: render just an expression against a spec's name tables,
/// used in reports and error messages.
pub fn expr_to_string(spec: &Spec, e: &Expr) -> String {
    Printer::new(spec).expr(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpecBuilder;
    use crate::expr::{add, gt, lit, var};
    use crate::stmt::{assign, if_else, skip, while_loop_hinted};

    #[test]
    fn prints_assignment_with_precedence() {
        let mut b = SpecBuilder::new("p");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf(
            "A",
            vec![assign(x, crate::expr::mul(add(var(x), lit(1)), lit(2)))],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let text = print(&spec);
        assert!(text.contains("x := (x + 1) * 2;"), "got:\n{text}");
    }

    #[test]
    fn line_count_counts_lines() {
        let mut b = SpecBuilder::new("p");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![assign(x, lit(1)), skip()]);
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        assert_eq!(line_count(&spec), print(&spec).lines().count());
        assert!(line_count(&spec) >= 8);
    }

    #[test]
    fn prints_if_else_and_hinted_while() {
        let mut b = SpecBuilder::new("p");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf(
            "A",
            vec![if_else(
                gt(var(x), lit(1)),
                vec![skip()],
                vec![while_loop_hinted(gt(var(x), lit(0)), vec![skip()], 7)],
            )],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let text = print(&spec);
        assert!(text.contains("if (x > 1) {"));
        assert!(text.contains("} else {"));
        assert!(text.contains("while (x > 0) @7 {"));
    }

    #[test]
    fn prints_transitions_with_guards() {
        let mut b = SpecBuilder::new("p");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![]);
        let c = b.leaf("C", vec![]);
        let arcs = vec![b.arc_when(a, gt(var(x), lit(1)), c), b.arc_complete(c)];
        let top = b.seq("Top", vec![a, c], arcs);
        let spec = b.finish(top).expect("valid");
        let text = print(&spec);
        assert!(text.contains("A -> C when (x > 1);"));
        assert!(text.contains("C -> complete;"));
    }

    #[test]
    fn expr_to_string_renders_params() {
        let spec = Spec::new("e");
        let e = Expr::Param("addr".into());
        assert_eq!(expr_to_string(&spec, &e), "$addr");
    }
}
