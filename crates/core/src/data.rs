//! Data-related refinement — the paper's Figures 5 and 6.
//!
//! Once a variable is mapped to a memory module, behaviors can no longer
//! name it directly: every access becomes a protocol transaction. The
//! [`DataRefiner`] rewrites one *master context* (a leaf body, or the
//! guard-fetch code of a composite) so that:
//!
//! * each read of a memory variable is preceded by
//!   `call MST_receive(addr, tmp)` and the expression reads `tmp` — the
//!   paper's temporary variable;
//! * each write becomes `tmp := value; call MST_send(addr, tmp)`;
//! * array elements are addressed as `base + index`;
//! * `while` conditions re-fetch their variables at the end of each
//!   iteration; `wait until` conditions poll;
//! * `for` loops over a memory-resident induction variable run on a
//!   register copy and store the index back each iteration, preserving
//!   the observable per-iteration writes.
//!
//! Variables absent from the refiner's table (refinement-introduced
//! registers) pass through untouched.

use std::collections::HashMap;

use modref_spec::stmt::CallArg;
use modref_spec::{expr, stmt, DataType, Expr, LValue, Spec, Stmt, SubroutineId, VarId, WaitCond};

/// How one memory-resident variable is accessed from this master context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarAccess {
    /// Base word address in the global address map.
    pub base: u64,
    /// Element count (1 for scalars).
    pub elems: u32,
    /// The `MST_receive` subroutine for the bus this context uses.
    pub recv: SubroutineId,
    /// The `MST_send` subroutine for the bus this context uses.
    pub send: SubroutineId,
}

/// Rewrites the statements of one master context.
#[derive(Debug)]
pub struct DataRefiner<'a> {
    spec: &'a mut Spec,
    /// Memory-resident variables (refined-spec ids) this context touches.
    table: HashMap<VarId, VarAccess>,
    /// Name prefix for generated temporaries (the context's name).
    prefix: String,
    /// Lazily created scalar temporaries, one per variable.
    tmp_of: HashMap<VarId, VarId>,
    /// Counter for array-element temporaries.
    elem_tmps: u32,
    /// Counter for loop-bound temporaries.
    bound_tmps: u32,
}

impl<'a> DataRefiner<'a> {
    /// Creates a refiner for one context over the (refined) spec.
    pub fn new(
        spec: &'a mut Spec,
        prefix: impl Into<String>,
        table: HashMap<VarId, VarAccess>,
    ) -> Self {
        Self {
            spec,
            table,
            prefix: prefix.into(),
            tmp_of: HashMap::new(),
            elem_tmps: 0,
            bound_tmps: 0,
        }
    }

    /// The register temporary mirroring `var` (created on first use).
    pub fn tmp_for(&mut self, var: VarId) -> VarId {
        if let Some(&t) = self.tmp_of.get(&var) {
            return t;
        }
        let base_name = format!("{}_tmp_{}", self.prefix, self.spec.variable(var).name());
        let name = self.spec.fresh_variable_name(&base_name);
        let ty = self.spec.variable(var).ty().access_scalar().into();
        let t = self.spec.add_variable(name, ty, 0, None);
        self.tmp_of.insert(var, t);
        t
    }

    fn fresh_elem_tmp(&mut self, var: VarId) -> VarId {
        let n = self.elem_tmps;
        self.elem_tmps += 1;
        let base_name = format!(
            "{}_tmp_{}_e{n}",
            self.prefix,
            self.spec.variable(var).name()
        );
        let name = self.spec.fresh_variable_name(&base_name);
        let ty = self.spec.variable(var).ty().access_scalar().into();
        self.spec.add_variable(name, ty, 0, None)
    }

    fn fresh_bound_tmp(&mut self) -> VarId {
        let n = self.bound_tmps;
        self.bound_tmps += 1;
        let name = self
            .spec
            .fresh_variable_name(&format!("{}_bound_{n}", self.prefix));
        self.spec.add_variable(name, DataType::int(32), 0, None)
    }

    /// Rewrites an expression: every memory-variable read is replaced by
    /// its temporary and the required fetches are appended to `pre`, in
    /// evaluation order. `cache` dedupes scalar fetches within one
    /// statement.
    fn rewrite_expr(
        &mut self,
        e: Expr,
        pre: &mut Vec<Stmt>,
        cache: &mut HashMap<VarId, VarId>,
    ) -> Expr {
        match e {
            Expr::Var(v) => {
                if let Some(&access) = self.table.get(&v) {
                    if let Some(&tmp) = cache.get(&v) {
                        return Expr::Var(tmp);
                    }
                    let tmp = self.tmp_for(v);
                    pre.push(fetch_call(access, expr::lit(access.base as i64), tmp));
                    cache.insert(v, tmp);
                    Expr::Var(tmp)
                } else {
                    Expr::Var(v)
                }
            }
            Expr::Index(v, idx) => {
                let idx = self.rewrite_expr(*idx, pre, cache);
                if let Some(&access) = self.table.get(&v) {
                    let tmp = self.fresh_elem_tmp(v);
                    let addr = expr::add(expr::lit(access.base as i64), idx);
                    pre.push(fetch_call(access, addr, tmp));
                    Expr::Var(tmp)
                } else {
                    Expr::Index(v, Box::new(idx))
                }
            }
            Expr::Unary(op, inner) => {
                Expr::Unary(op, Box::new(self.rewrite_expr(*inner, pre, cache)))
            }
            Expr::Binary(op, l, r) => Expr::Binary(
                op,
                Box::new(self.rewrite_expr(*l, pre, cache)),
                Box::new(self.rewrite_expr(*r, pre, cache)),
            ),
            leaf @ (Expr::Lit(_) | Expr::Signal(_) | Expr::Param(_)) => leaf,
        }
    }

    fn rewrite_cond(&mut self, e: &Expr) -> (Vec<Stmt>, Expr) {
        let mut pre = Vec::new();
        let mut cache = HashMap::new();
        let e = self.rewrite_expr(e.clone(), &mut pre, &mut cache);
        (pre, e)
    }

    /// Rewrites a whole statement list.
    pub fn refine_body(&mut self, body: Vec<Stmt>) -> Vec<Stmt> {
        let mut out = Vec::new();
        for s in body {
            self.refine_stmt(s, &mut out);
        }
        out
    }

    fn refine_stmt(&mut self, s: Stmt, out: &mut Vec<Stmt>) {
        match s {
            Stmt::Assign { target, value } => {
                let mut cache = HashMap::new();
                let mut pre = Vec::new();
                let value = self.rewrite_expr(value, &mut pre, &mut cache);
                match target {
                    LValue::Var(v) => {
                        if let Some(&access) = self.table.get(&v) {
                            let tmp = self.tmp_for(v);
                            out.extend(pre);
                            out.push(stmt::assign(tmp, value));
                            out.push(send_call(
                                access,
                                expr::lit(access.base as i64),
                                expr::var(tmp),
                            ));
                        } else {
                            out.extend(pre);
                            out.push(stmt::assign(v, value));
                        }
                    }
                    LValue::Index(v, idx) => {
                        let idx = self.rewrite_expr(idx, &mut pre, &mut cache);
                        if let Some(&access) = self.table.get(&v) {
                            let tmp = self.tmp_for(v);
                            out.extend(pre);
                            out.push(stmt::assign(tmp, value));
                            let addr = expr::add(expr::lit(access.base as i64), idx);
                            out.push(send_call(access, addr, expr::var(tmp)));
                        } else {
                            out.extend(pre);
                            out.push(Stmt::Assign {
                                target: LValue::Index(v, idx),
                                value,
                            });
                        }
                    }
                    LValue::Param(name) => {
                        out.extend(pre);
                        out.push(Stmt::Assign {
                            target: LValue::Param(name),
                            value,
                        });
                    }
                }
            }
            Stmt::SignalSet { signal, value } => {
                let (pre, value) = self.rewrite_cond(&value);
                out.extend(pre);
                out.push(Stmt::SignalSet { signal, value });
            }
            Stmt::Wait(WaitCond::Until(cond)) => {
                let (pre, cond) = self.rewrite_cond(&cond);
                if pre.is_empty() {
                    out.push(stmt::wait_until(cond));
                } else {
                    // Poll: fetch, then while the condition is false,
                    // pause one tick and re-fetch.
                    let mut poll = vec![stmt::delay(1)];
                    poll.extend(pre.clone());
                    out.extend(pre);
                    out.push(stmt::while_loop(expr::eq(cond, expr::lit(0)), poll));
                }
            }
            Stmt::Wait(WaitCond::For(n)) => out.push(stmt::wait_for(n)),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (pre, cond) = self.rewrite_cond(&cond);
                out.extend(pre);
                out.push(Stmt::If {
                    cond,
                    then_body: self.refine_body(then_body),
                    else_body: self.refine_body(else_body),
                });
            }
            Stmt::While {
                cond,
                body,
                trip_hint,
            } => {
                let (pre, cond) = self.rewrite_cond(&cond);
                let mut new_body = self.refine_body(body);
                // Re-fetch the condition's variables before re-testing.
                new_body.extend(pre.clone());
                out.extend(pre);
                out.push(Stmt::While {
                    cond,
                    body: new_body,
                    trip_hint,
                });
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let mut cache = HashMap::new();
                let mut pre = Vec::new();
                let from = self.rewrite_expr(from, &mut pre, &mut cache);
                let to = self.rewrite_expr(to, &mut pre, &mut cache);
                if let Some(&access) = self.table.get(&var) {
                    // Register-resident induction with per-iteration
                    // store-back, preserving observable writes.
                    let tmp_i = self.tmp_for(var);
                    let bound = self.fresh_bound_tmp();
                    let trip_hint = match (&from, &to) {
                        (Expr::Lit(f), Expr::Lit(t)) if t > f => Some((t - f) as u32),
                        _ => None,
                    };
                    out.extend(pre);
                    out.push(stmt::assign(tmp_i, from));
                    out.push(stmt::assign(bound, to));
                    let mut loop_body = vec![send_call(
                        access,
                        expr::lit(access.base as i64),
                        expr::var(tmp_i),
                    )];
                    loop_body.extend(self.refine_body(body));
                    loop_body.push(stmt::assign(
                        tmp_i,
                        expr::add(expr::var(tmp_i), expr::lit(1)),
                    ));
                    out.push(Stmt::While {
                        cond: expr::lt(expr::var(tmp_i), expr::var(bound)),
                        body: loop_body,
                        trip_hint,
                    });
                } else {
                    out.extend(pre);
                    out.push(Stmt::For {
                        var,
                        from,
                        to,
                        body: self.refine_body(body),
                    });
                }
            }
            Stmt::Loop { body } => {
                out.push(Stmt::Loop {
                    body: self.refine_body(body),
                });
            }
            Stmt::Call { sub, args } => {
                let mut cache = HashMap::new();
                let mut pre = Vec::new();
                let mut post = Vec::new();
                let args = args
                    .into_iter()
                    .map(|a| match a {
                        CallArg::In(e) => CallArg::In(self.rewrite_expr(e, &mut pre, &mut cache)),
                        CallArg::Out(LValue::Var(v)) => {
                            if let Some(&access) = self.table.get(&v) {
                                let tmp = self.tmp_for(v);
                                post.push(send_call(
                                    access,
                                    expr::lit(access.base as i64),
                                    expr::var(tmp),
                                ));
                                CallArg::Out(LValue::Var(tmp))
                            } else {
                                CallArg::Out(LValue::Var(v))
                            }
                        }
                        CallArg::Out(other) => CallArg::Out(other),
                    })
                    .collect();
                out.extend(pre);
                out.push(Stmt::Call { sub, args });
                out.extend(post);
            }
            other @ (Stmt::Delay(_) | Stmt::Skip) => out.push(other),
        }
    }
}

/// `call MST_receive(addr, out target)`: fetches the word at `addr`
/// into `target`.
pub(crate) fn fetch_call(access: VarAccess, addr: Expr, target: VarId) -> Stmt {
    stmt::call(
        access.recv,
        vec![CallArg::In(addr), CallArg::Out(LValue::Var(target))],
    )
}

/// `call MST_send(addr, in value)`: stores `value` at `addr`.
fn send_call(access: VarAccess, addr: Expr, value: Expr) -> Stmt {
    stmt::call(access.send, vec![CallArg::In(addr), CallArg::In(value)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::subroutine::{param_in, param_out, Subroutine};

    fn setup() -> (Spec, VarId, SubroutineId, SubroutineId) {
        let mut b = SpecBuilder::new("d");
        let x = b.var_int("x", 16, 0);
        let leaf = b.leaf("L", vec![]);
        let top = b.seq_in_order("Top", vec![leaf]);
        let mut spec = b.finish_unchecked(top);
        let recv = spec.add_subroutine(Subroutine::new(
            "MST_receive_b1",
            vec![
                param_in("addr", DataType::uint(4)),
                param_out("data", DataType::int(16)),
            ],
            vec![],
        ));
        let send = spec.add_subroutine(Subroutine::new(
            "MST_send_b1",
            vec![
                param_in("addr", DataType::uint(4)),
                param_in("data", DataType::int(16)),
            ],
            vec![],
        ));
        (spec, x, recv, send)
    }

    fn table(x: VarId, recv: SubroutineId, send: SubroutineId) -> HashMap<VarId, VarAccess> {
        let mut t = HashMap::new();
        t.insert(
            x,
            VarAccess {
                base: 3,
                elems: 1,
                recv,
                send,
            },
        );
        t
    }

    #[test]
    fn read_modify_write_matches_figure5() {
        let (mut spec, x, recv, send) = setup();
        let mut refiner = DataRefiner::new(&mut spec, "L", table(x, recv, send));
        // x := x + 5  ==>  receive(3, tmp); tmp := tmp + 5; send(3, tmp)
        let out = refiner.refine_body(vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(5)))]);
        assert_eq!(out.len(), 3);
        assert!(matches!(&out[0], Stmt::Call { sub, .. } if *sub == recv));
        assert!(matches!(&out[1], Stmt::Assign { .. }));
        assert!(matches!(&out[2], Stmt::Call { sub, .. } if *sub == send));
    }

    #[test]
    fn repeated_reads_fetch_once_per_statement() {
        let (mut spec, x, recv, send) = setup();
        let mut refiner = DataRefiner::new(&mut spec, "L", table(x, recv, send));
        // y-not-mapped := x * x  => one fetch, product of tmp by tmp.
        let y = refiner.spec.add_variable("y", DataType::int(16), 0, None);
        let out = refiner.refine_body(vec![stmt::assign(y, expr::mul(expr::var(x), expr::var(x)))]);
        let fetches = out
            .iter()
            .filter(|s| matches!(s, Stmt::Call { sub, .. } if *sub == recv))
            .count();
        assert_eq!(fetches, 1);
    }

    #[test]
    fn while_condition_refetches_each_iteration() {
        let (mut spec, x, recv, send) = setup();
        let mut refiner = DataRefiner::new(&mut spec, "L", table(x, recv, send));
        let out = refiner.refine_body(vec![stmt::while_loop(
            expr::lt(expr::var(x), expr::lit(5)),
            vec![stmt::skip()],
        )]);
        // pre-fetch + while
        assert_eq!(out.len(), 2);
        match &out[1] {
            Stmt::While { body, .. } => {
                // skip + re-fetch at end of body
                assert!(matches!(body.last(), Some(Stmt::Call { sub, .. }) if *sub == recv));
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn for_loop_rewrites_to_register_while() {
        let (mut spec, x, recv, send) = setup();
        let mut refiner = DataRefiner::new(&mut spec, "L", table(x, recv, send));
        let out = refiner.refine_body(vec![stmt::for_loop(
            x,
            expr::lit(0),
            expr::lit(4),
            vec![stmt::skip()],
        )]);
        // tmp := 0; bound := 4; while ...
        assert!(out.len() >= 3);
        match out.last().unwrap() {
            Stmt::While {
                body, trip_hint, ..
            } => {
                assert_eq!(*trip_hint, Some(4));
                // store-back send at loop head.
                assert!(matches!(&body[0], Stmt::Call { sub, .. } if *sub == send));
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn untracked_variables_pass_through() {
        let (mut spec, _x, recv, send) = setup();
        let reg = spec.add_variable("reg", DataType::int(16), 0, None);
        let mut refiner = DataRefiner::new(&mut spec, "L", HashMap::new());
        let body = vec![stmt::assign(reg, expr::lit(1))];
        let out = refiner.refine_body(body.clone());
        assert_eq!(out, body);
        let _ = (recv, send);
    }

    #[test]
    fn wait_until_polls_memory() {
        let (mut spec, x, recv, send) = setup();
        let mut refiner = DataRefiner::new(&mut spec, "L", table(x, recv, send));
        let out = refiner.refine_body(vec![stmt::wait_until(expr::gt(expr::var(x), expr::lit(0)))]);
        // fetch + poll-while
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0], Stmt::Call { sub, .. } if *sub == recv));
        assert!(matches!(&out[1], Stmt::While { .. }));
        let _ = send;
    }
}
