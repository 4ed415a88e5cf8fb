//! Lowering: statement/expression trees → flat label-form bytecode.
//!
//! Code is emitted append-only, so instruction addresses are final as
//! soon as they are written; only *forward* control-flow targets need
//! indirection. Those are emitted as label ids in the instructions' pc
//! fields and patched to absolute addresses by [`super::emit`]. Expression
//! trees linearize to postfix over the shared operation pool, with
//! literal subtrees folded, comparisons against literals fused and
//! `||`/`&&` runs flattened into short-circuit chains as they are pushed
//! (see [`super::optimize`]).
//!
//! Every lowering rule preserves the interpreter's micro-step count; the
//! per-construct layouts are documented inline where they are emitted.

use std::collections::HashMap;

use modref_spec::stmt::CallArg;
use modref_spec::{
    BehaviorKind, BinOp, Expr, LValue, Spec, Stmt, Subroutine, TransitionTarget, WaitCond,
};

use super::optimize;
use super::{
    CallSite, EOp, ExprRef, ForSite, FrameArg, Instr, OutTarget, Pc, TransAction, TransSite,
    WaitSite,
};

/// A label id, stored in pc-typed instruction fields until emit patches
/// them to addresses.
type Label = Pc;

/// The label-form program produced by [`lower`], consumed by
/// [`super::emit::emit`].
#[derive(Debug)]
pub(crate) struct Lowered {
    pub code: Vec<Instr>,
    /// Label id → bound address (`Pc::MAX` = never bound; emit panics).
    pub labels: Vec<Pc>,
    pub pool: Vec<EOp>,
    pub terms: Vec<ExprRef>,
    pub names: Vec<String>,
    pub waits: Vec<WaitSite>,
    pub fors: Vec<ForSite>,
    pub calls: Vec<CallSite>,
    pub trans: Vec<TransSite>,
    pub groups: Vec<Vec<modref_spec::BehaviorId>>,
    pub entries: Vec<Pc>,
}

/// Lowers every subroutine body and every process-root behavior of
/// `spec` into one label-form program.
pub(crate) fn lower(spec: &Spec) -> Lowered {
    let mut lo = Lowerer {
        spec,
        out: Lowered {
            code: Vec::new(),
            labels: Vec::new(),
            pool: Vec::new(),
            terms: Vec::new(),
            names: Vec::new(),
            waits: Vec::new(),
            fors: Vec::new(),
            calls: Vec::new(),
            trans: Vec::new(),
            groups: Vec::new(),
            entries: vec![Pc::MAX; spec.behavior_count()],
        },
        name_map: HashMap::new(),
        sub_entries: Vec::new(),
    };

    // Subroutine bodies are emitted once and shared by every call site:
    // they are context-free (parameters resolve within their own frame,
    // return addresses live on the call stack). Labels for all entries
    // are created up front so bodies can call subroutines emitted later.
    for _ in 0..spec.subroutine_count() {
        let l = lo.new_label();
        lo.sub_entries.push(l);
    }
    for (id, sub) in spec.subroutines() {
        lo.bind(lo.sub_entries[id.index()]);
        lo.block(sub.body(), Some(sub));
        // The body's final block pop returns to the call site.
        lo.push(Instr::Return);
    }

    // Process roots: the top behavior plus every concurrent-composite
    // child (children of *sequential* composites run inline in their
    // parent's program and need no standalone entry).
    let mut is_root = vec![false; spec.behavior_count()];
    is_root[spec.top().index()] = true;
    for (_, b) in spec.behaviors() {
        if matches!(b.kind(), BehaviorKind::Concurrent { .. }) {
            for &c in b.children() {
                is_root[c.index()] = true;
            }
        }
    }
    let mut roots: Vec<usize> = vec![spec.top().index()];
    roots.extend((0..spec.behavior_count()).filter(|&i| is_root[i] && i != spec.top().index()));
    for i in roots {
        let b = modref_spec::BehaviorId::from_raw(i as u32);
        lo.out.entries[i] = lo.here();
        lo.behavior(b);
        // The interpreter's final step: the frame stack empties and the
        // process reports completion.
        lo.push(Instr::Halt);
    }
    lo.out
}

struct Lowerer<'a> {
    spec: &'a Spec,
    out: Lowered,
    name_map: HashMap<&'a str, u32>,
    /// Entry label per subroutine index.
    sub_entries: Vec<Label>,
}

impl<'a> Lowerer<'a> {
    fn here(&self) -> Pc {
        self.out.code.len() as Pc
    }

    fn push(&mut self, i: Instr) {
        self.out.code.push(i);
    }

    fn new_label(&mut self) -> Label {
        self.out.labels.push(Pc::MAX);
        (self.out.labels.len() - 1) as Label
    }

    fn bind(&mut self, l: Label) {
        debug_assert_eq!(self.out.labels[l as usize], Pc::MAX, "label bound twice");
        self.out.labels[l as usize] = self.here();
    }

    fn intern(&mut self, name: &'a str) -> u32 {
        *self.name_map.entry(name).or_insert_with(|| {
            self.out.names.push(name.to_string());
            (self.out.names.len() - 1) as u32
        })
    }

    /// Emits the code of `behavior` (leaf body, sequential schedule or
    /// concurrent spawn), ending at the point where the interpreter
    /// would pop the behavior's root frame.
    fn behavior(&mut self, id: modref_spec::BehaviorId) {
        match self.spec.behavior(id).kind() {
            // Leaf: the body, then the block-pop step.
            BehaviorKind::Leaf { body } => {
                self.block(body, None);
                self.push(Instr::Nop);
            }
            // Sequential composite: `Enter` (the not-started step that
            // counts the first child's activation), then one segment per
            // child — the child's own code followed by its `Transition`
            // (the parent's running step). Arc targets jump to segment
            // starts; completion jumps past the last segment.
            BehaviorKind::Seq {
                children,
                transitions,
            } => {
                if children.is_empty() {
                    // Not-started step with nothing to run: the frame pops.
                    self.push(Instr::Nop);
                    return;
                }
                let seg_labels: Vec<Label> = children.iter().map(|_| self.new_label()).collect();
                let end = self.new_label();
                self.push(Instr::Enter { child: children[0] });
                for (idx, &child) in children.iter().enumerate() {
                    self.bind(seg_labels[idx]);
                    self.behavior(child);
                    let mut arcs = Vec::new();
                    let mut has_arcs = false;
                    for t in transitions {
                        if t.from != child {
                            continue;
                        }
                        has_arcs = true;
                        let cond = t.cond.as_ref().map(|c| self.expr(c, None));
                        let action = match &t.to {
                            TransitionTarget::Behavior(to) => {
                                match children.iter().position(|c| c == to) {
                                    Some(j) => TransAction {
                                        pc: seg_labels[j],
                                        activate: Some(children[j]),
                                    },
                                    // Arc to a non-child: the composite
                                    // completes (interpreter fallback).
                                    None => TransAction {
                                        pc: end,
                                        activate: None,
                                    },
                                }
                            }
                            TransitionTarget::Complete => TransAction {
                                pc: end,
                                activate: None,
                            },
                        };
                        arcs.push((cond, action));
                    }
                    let default = if has_arcs || idx + 1 >= children.len() {
                        // Arcs declared but none fired, or last child:
                        // the composite completes.
                        TransAction {
                            pc: end,
                            activate: None,
                        }
                    } else {
                        TransAction {
                            pc: seg_labels[idx + 1],
                            activate: Some(children[idx + 1]),
                        }
                    };
                    let site = self.out.trans.len() as u32;
                    self.out.trans.push(TransSite {
                        arcs: arcs.into_boxed_slice(),
                        default,
                    });
                    self.push(Instr::Transition { site });
                }
                self.bind(end);
            }
            // Concurrent composite: the spawn step, then the post-wake
            // frame-pop step.
            BehaviorKind::Concurrent { children } => {
                let group = self.out.groups.len() as u32;
                self.out.groups.push(children.clone());
                self.push(Instr::Spawn { group });
                self.push(Instr::Nop);
            }
        }
    }

    fn block(&mut self, stmts: &'a [Stmt], sub: Option<&'a Subroutine>) {
        for s in stmts {
            self.stmt(s, sub);
        }
    }

    fn stmt(&mut self, s: &'a Stmt, sub: Option<&'a Subroutine>) {
        match s {
            Stmt::Assign { target, value } => {
                let value = self.expr(value, sub);
                let instr = match target {
                    LValue::Var(v) => Instr::StoreVar {
                        slot: v.index() as u32,
                        ty: self.spec.variable(*v).ty().access_scalar(),
                        value,
                    },
                    LValue::Index(v, idx) => Instr::StoreElem {
                        slot: v.index() as u32,
                        ty: self.spec.variable(*v).ty().access_scalar(),
                        index: self.expr(idx, sub),
                        value,
                    },
                    LValue::Param(name) => match Self::param_slot(sub, name) {
                        Some(slot) => Instr::StoreParam {
                            slot,
                            name: self.intern(name),
                            value,
                        },
                        None => Instr::StoreParamErr {
                            name: self.intern(name),
                            value,
                        },
                    },
                };
                self.push(instr);
            }
            Stmt::SignalSet { signal, value } => {
                let value = self.expr(value, sub);
                self.push(Instr::SetSignal {
                    slot: signal.index() as u32,
                    ty: self.spec.signal(*signal).ty().access_scalar(),
                    value,
                });
            }
            Stmt::Wait(WaitCond::Until(cond)) => {
                // Sensitivity comes from the source condition; folding
                // only removes literal subtrees, which read nothing.
                let lowered = self.expr(cond, sub);
                let site = self.out.waits.len() as u32;
                self.out.waits.push(WaitSite::new(lowered, cond));
                self.push(Instr::WaitUntil { site });
            }
            Stmt::Wait(WaitCond::For(n)) | Stmt::Delay(n) => self.push(Instr::WaitFor(*n)),
            // if: [JumpIfZero else] then.. [Jump end] else.. [Jump end].
            // Either path costs 1 (branch) + body + 1 (block pop), the
            // interpreter's statement step + branch-block pop.
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.expr(cond, sub);
                let l_else = self.new_label();
                let l_end = self.new_label();
                self.push(Instr::JumpIfZero { cond, to: l_else });
                self.block(then_body, sub);
                self.push(Instr::Jump(l_end));
                self.bind(l_else);
                self.block(else_body, sub);
                self.push(Instr::Jump(l_end));
                self.bind(l_end);
            }
            // while: [Nop] check: [JumpIfZero end] body.. [Jump check].
            // Entry costs 2 (statement + first check), each iteration
            // body + 2 (body-block pop + re-check) — the interpreter's
            // `While` continuation frame accounting.
            Stmt::While { cond, body, .. } => {
                self.push(Instr::Nop);
                let l_check = self.new_label();
                let l_end = self.new_label();
                self.bind(l_check);
                let cond = self.expr(cond, sub);
                self.push(Instr::JumpIfZero { cond, to: l_end });
                self.block(body, sub);
                self.push(Instr::Jump(l_check));
                self.bind(l_end);
            }
            // for: [ForInit] next: [ForNext] body.. [Jump next].
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let from = self.expr(from, sub);
                let to = self.expr(to, sub);
                let l_next = self.new_label();
                let l_end = self.new_label();
                let site = self.out.fors.len() as u32;
                self.out.fors.push(ForSite {
                    slot: var.index() as u32,
                    ty: self.spec.variable(*var).ty().access_scalar(),
                    from,
                    to,
                    end: l_end,
                });
                self.push(Instr::ForInit { site });
                self.bind(l_next);
                self.push(Instr::ForNext { site });
                self.block(body, sub);
                self.push(Instr::Jump(l_next));
                self.bind(l_end);
            }
            // loop: [Nop] head: [Nop] body.. [Jump head]. Statement step,
            // then per iteration the `Forever` restart + body + pop.
            Stmt::Loop { body } => {
                self.push(Instr::Nop);
                let l_head = self.new_label();
                self.bind(l_head);
                self.push(Instr::Nop);
                self.block(body, sub);
                self.push(Instr::Jump(l_head));
            }
            // call: [Call site] [EndCall site], callee body shared. The
            // `Call` step evaluates `in` arguments in the caller's
            // context and jumps to the entry; the callee's `Return` (its
            // body-block pop) comes back to `EndCall` (the frame pop and
            // out-copy step).
            Stmt::Call { sub: callee, args } => {
                let def = self.spec.subroutine(*callee);
                let mut frame_args = Vec::with_capacity(args.len());
                let mut outs = Vec::new();
                // Frame slot names, for duplicate-aware out-value lookup
                // (the interpreter reads the *last* binding of a name).
                let names: Vec<&str> = def
                    .params()
                    .iter()
                    .zip(args)
                    .map(|(p, _)| p.name.as_str())
                    .collect();
                for (i, (param, arg)) in def.params().iter().zip(args).enumerate() {
                    match arg {
                        CallArg::In(e) => frame_args.push(FrameArg::In {
                            value: self.expr(e, sub),
                            ty: param.ty.access_scalar(),
                        }),
                        CallArg::Out(lv) => {
                            frame_args.push(FrameArg::Out);
                            let value_slot =
                                names.iter().rposition(|n| *n == param.name).unwrap_or(i) as u16;
                            let target = match lv {
                                LValue::Var(v) => OutTarget::Var {
                                    slot: v.index() as u32,
                                    ty: self.spec.variable(*v).ty().access_scalar(),
                                },
                                LValue::Index(v, idx) => OutTarget::Elem {
                                    slot: v.index() as u32,
                                    ty: self.spec.variable(*v).ty().access_scalar(),
                                    index: self.expr(idx, sub),
                                },
                                LValue::Param(name) => match Self::param_slot(sub, name) {
                                    Some(slot) => OutTarget::Param {
                                        slot,
                                        name: self.intern(name),
                                    },
                                    None => OutTarget::ParamErr {
                                        name: self.intern(name),
                                    },
                                },
                            };
                            outs.push((value_slot, target));
                        }
                    }
                }
                let site = self.out.calls.len() as u32;
                self.out.calls.push(CallSite {
                    entry: self.sub_entries[callee.index()],
                    args: frame_args.into_boxed_slice(),
                    outs: outs.into_boxed_slice(),
                });
                self.push(Instr::Call { site });
                self.push(Instr::EndCall { site });
            }
            Stmt::Skip => self.push(Instr::Nop),
        }
    }

    /// Resolves a parameter name against the enclosing subroutine's
    /// formals. Scanning from the end matches the interpreter's
    /// last-binding-wins duplicate resolution.
    fn param_slot(sub: Option<&Subroutine>, name: &str) -> Option<u16> {
        sub?.params()
            .iter()
            .rposition(|p| p.name == name)
            .map(|i| i as u16)
    }

    /// Linearizes an expression to postfix, folding literal subtrees,
    /// and interns the result in the pool.
    fn expr(&mut self, e: &'a Expr, sub: Option<&'a Subroutine>) -> ExprRef {
        let mut buf = Vec::new();
        self.push_expr(&mut buf, e, sub);
        let off = self.out.pool.len() as u32;
        let len = buf.len() as u32;
        self.out.pool.extend(buf);
        ExprRef { off, len }
    }

    fn push_expr(&mut self, buf: &mut Vec<EOp>, e: &'a Expr, sub: Option<&'a Subroutine>) {
        match e {
            Expr::Lit(v) => buf.push(EOp::Const(*v)),
            Expr::Var(v) => buf.push(EOp::Var(v.index() as u32)),
            Expr::Index(v, idx) => {
                self.push_expr(buf, idx, sub);
                buf.push(EOp::Elem(v.index() as u32));
            }
            Expr::Signal(s) => buf.push(EOp::Sig(s.index() as u32)),
            Expr::Param(name) => match Self::param_slot(sub, name) {
                Some(slot) => buf.push(EOp::Param {
                    slot,
                    name: self.intern(name),
                }),
                None => buf.push(EOp::ParamErr {
                    name: self.intern(name),
                }),
            },
            Expr::Unary(op, inner) => {
                self.push_expr(buf, inner, sub);
                optimize::push_un(buf, *op);
            }
            Expr::Binary(op @ (BinOp::Or | BinOp::And), ..) => {
                let mut chain = Vec::new();
                flatten(*op, e, &mut chain);
                let operands = chain
                    .into_iter()
                    .map(|term| {
                        let mut t = Vec::new();
                        self.push_expr(&mut t, term, sub);
                        t
                    })
                    .collect();
                let out = &mut self.out;
                optimize::push_logic(&mut out.pool, &mut out.terms, buf, *op, operands);
            }
            Expr::Binary(op, l, r) => {
                self.push_expr(buf, l, sub);
                self.push_expr(buf, r, sub);
                optimize::push_bin(buf, *op);
            }
        }
    }
}

/// Collects the terms of the `op` chain rooted at `e`, in source order:
/// `a || (b || c)` and `(a || b) || c` both give `[a, b, c]`.
fn flatten<'e>(op: BinOp, e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Binary(o, l, r) if *o == op => {
            flatten(op, l, out);
            flatten(op, r, out);
        }
        _ => out.push(e),
    }
}
