//! Execution of compiled programs: the bytecode executor the event
//! scheduler ([`crate::simulator`]) runs for [`SimKernel::Compiled`].
//!
//! The scheduler is the one the AST interpreter also runs under, so the
//! work counters (`rounds`, `cond_evals`, `wakeups`, `timer_pops`) match
//! the `EventDriven` kernel's exactly. What changes is the inner loop:
//! instead of micro-stepping a frame-stack interpreter one statement at a
//! time, a ready process *resumes* at its saved program counter and runs
//! flat instructions until it blocks. Dispatch is a single `match` per
//! instruction — one indirect branch, no tree recursion, no frame
//! allocation; expression operands are pre-resolved slot indices
//! evaluated postfix over one shared scratch stack.
//!
//! [`SimKernel::Compiled`]: crate::SimKernel::Compiled

use modref_spec::{BehaviorId, Spec, VarId};

use super::{CompiledSpec, EOp, ExprRef, FrameArg, Instr, OutTarget, Pc};
use crate::error::SimError;
use crate::process::SharedState;
use crate::simulator::{Executor, Yield};
use crate::value::{wrap_scalar, Storage};

/// One subroutine call frame: return address plus the frame's extent in
/// the process's parameter stack.
#[derive(Debug, Clone, Copy)]
struct CallRec {
    ret: Pc,
    base: u32,
    len: u16,
}

/// A `for` loop record: next induction value and the exclusive bound.
#[derive(Debug, Clone, Copy)]
struct LoopRec {
    next: i64,
    to: i64,
}

/// A compiled process: a resumable program counter plus call/loop stacks.
#[derive(Debug)]
pub(crate) struct CProc {
    /// At a `wait until` the pc rests *on* the wait instruction, which
    /// re-executes on wake.
    pc: Pc,
    calls: Vec<CallRec>,
    /// Parameter value stack; frames are `base..base+len` slices.
    params: Vec<i64>,
    loops: Vec<LoopRec>,
}

/// The bytecode executor over one compiled program.
#[derive(Debug)]
pub(crate) struct Bytecode<'a> {
    prog: &'a CompiledSpec,
    spec: &'a Spec,
    /// The postfix evaluation stack, shared by every process.
    stack: Vec<i64>,
}

impl<'a> Bytecode<'a> {
    pub(crate) fn new(spec: &'a Spec, prog: &'a CompiledSpec) -> Self {
        Self {
            prog,
            spec,
            stack: Vec::with_capacity(16),
        }
    }
}

impl<'a> Executor<'a> for Bytecode<'a> {
    type Proc = CProc;
    const COUNTS_INSTRS: bool = true;

    fn spawn(&mut self, behavior: BehaviorId) -> CProc {
        debug_assert!(
            self.prog.has_entry(behavior),
            "spawned behavior has no entry"
        );
        CProc {
            pc: self.prog.entries[behavior.index()],
            calls: Vec::new(),
            params: Vec::new(),
            loops: Vec::new(),
        }
    }

    /// Runs `proc` from its saved pc until it blocks, spawns or
    /// completes. Each executed instruction is one micro-step, counted
    /// and limited exactly like the interpreter's statement steps.
    ///
    /// With `woken`, the pc rests on the `WaitUntil` whose condition
    /// `eval_site` just found true with nothing written since: that
    /// instruction passes as one counted step without evaluating again.
    ///
    /// `#[inline]` (here and on `eval_site`) lets the generic scheduler,
    /// which lives in another module, inline the dispatch loop.
    #[inline]
    fn run(
        &mut self,
        proc: &mut CProc,
        state: &mut SharedState,
        now: u64,
        steps: &mut u64,
        max_steps: u64,
        woken: bool,
    ) -> Result<Yield<'a>, SimError> {
        let (prog, spec, stack) = (self.prog, self.spec, &mut self.stack);
        if woken {
            debug_assert!(matches!(
                prog.code[proc.pc as usize],
                Instr::WaitUntil { .. }
            ));
            *steps += 1;
            if *steps > max_steps {
                return Err(SimError::StepLimitExceeded { limit: max_steps });
            }
            proc.pc += 1;
        }
        loop {
            *steps += 1;
            if *steps > max_steps {
                return Err(SimError::StepLimitExceeded { limit: max_steps });
            }
            match &prog.code[proc.pc as usize] {
                Instr::Nop => proc.pc += 1,
                Instr::Jump(to) => proc.pc = *to,
                Instr::JumpIfZero { cond, to } => {
                    let v = eval(prog, spec, &proc.calls, &proc.params, state, stack, *cond)?;
                    proc.pc = if v == 0 { *to } else { proc.pc + 1 };
                }
                Instr::StoreVar { slot, ty, value } => {
                    let v = eval(prog, spec, &proc.calls, &proc.params, state, stack, *value)?;
                    let w = wrap_scalar(v, *ty);
                    state.vars[*slot as usize] = Storage::Scalar(w);
                    state.note_var_write(*slot as usize);
                    state.trace_var(*slot as usize, w);
                    proc.pc += 1;
                }
                Instr::StoreElem {
                    slot,
                    ty,
                    index,
                    value,
                } => {
                    // Value before index: the interpreter evaluates the
                    // right-hand side before resolving the target.
                    let v = eval(prog, spec, &proc.calls, &proc.params, state, stack, *value)?;
                    let i = eval(prog, spec, &proc.calls, &proc.params, state, stack, *index)?;
                    store_elem(spec, state, *slot, *ty, i, v)?;
                    proc.pc += 1;
                }
                Instr::StoreParam { slot, name, value } => {
                    let v = eval(prog, spec, &proc.calls, &proc.params, state, stack, *value)?;
                    match proc.calls.last() {
                        Some(rec) if *slot < rec.len => {
                            proc.params[rec.base as usize + *slot as usize] = v;
                        }
                        _ => return Err(unbound(prog, *name)),
                    }
                    proc.pc += 1;
                }
                Instr::StoreParamErr { name, value } => {
                    // Evaluate the value first: its errors take precedence,
                    // as in the interpreter's assign-then-resolve order.
                    eval(prog, spec, &proc.calls, &proc.params, state, stack, *value)?;
                    return Err(unbound(prog, *name));
                }
                Instr::SetSignal { slot, ty, value } => {
                    let v = eval(prog, spec, &proc.calls, &proc.params, state, stack, *value)?;
                    let w = wrap_scalar(v, *ty);
                    state.signals[*slot as usize] = w;
                    state.note_signal_write(*slot as usize);
                    state.trace_signal(*slot as usize, w);
                    proc.pc += 1;
                }
                Instr::WaitUntil { site } => {
                    let cond = prog.waits[*site as usize].cond;
                    let v = eval(prog, spec, &proc.calls, &proc.params, state, stack, cond)?;
                    if v != 0 {
                        proc.pc += 1;
                    } else {
                        // Pc stays on the wait: re-executes on wake, like the
                        // interpreter re-running the statement.
                        return Ok(Yield::Wait(*site));
                    }
                }
                Instr::WaitFor(n) => {
                    proc.pc += 1;
                    return Ok(Yield::Sleep(now + n));
                }
                Instr::ForInit { site } => {
                    let s = &prog.fors[*site as usize];
                    let from = eval(prog, spec, &proc.calls, &proc.params, state, stack, s.from)?;
                    let to = eval(prog, spec, &proc.calls, &proc.params, state, stack, s.to)?;
                    proc.loops.push(LoopRec { next: from, to });
                    proc.pc += 1;
                }
                Instr::ForNext { site } => {
                    let s = &prog.fors[*site as usize];
                    let rec = proc.loops.last_mut().expect("for record");
                    if rec.next < rec.to {
                        let v = rec.next;
                        rec.next += 1;
                        let w = wrap_scalar(v, s.ty);
                        state.vars[s.slot as usize] = Storage::Scalar(w);
                        state.note_var_write(s.slot as usize);
                        state.trace_var(s.slot as usize, w);
                        proc.pc += 1;
                    } else {
                        proc.loops.pop();
                        proc.pc = s.end;
                    }
                }
                Instr::Call { site } => {
                    let s = &prog.calls[*site as usize];
                    let base = proc.params.len() as u32;
                    for arg in s.args.iter() {
                        let v = match arg {
                            FrameArg::In { value, ty } => {
                                // The caller's frame is still innermost, so
                                // argument expressions see its parameters.
                                let v = eval(
                                    prog,
                                    spec,
                                    &proc.calls,
                                    &proc.params,
                                    state,
                                    stack,
                                    *value,
                                )?;
                                wrap_scalar(v, *ty)
                            }
                            FrameArg::Out => 0,
                        };
                        proc.params.push(v);
                    }
                    proc.calls.push(CallRec {
                        ret: proc.pc + 1,
                        base,
                        len: s.args.len() as u16,
                    });
                    proc.pc = s.entry;
                }
                Instr::Return => {
                    // The callee body's block pop: back to the call site's
                    // continuation; the frame stays for the out-copy step.
                    proc.pc = proc.calls.last().expect("call record").ret;
                }
                Instr::EndCall { site } => {
                    let rec = proc.calls.pop().expect("call record");
                    let s = &prog.calls[*site as usize];
                    for (value_slot, target) in s.outs.iter() {
                        let value = proc.params[rec.base as usize + *value_slot as usize];
                        match target {
                            OutTarget::Var { slot, ty } => {
                                let w = wrap_scalar(value, *ty);
                                state.vars[*slot as usize] = Storage::Scalar(w);
                                state.note_var_write(*slot as usize);
                                state.trace_var(*slot as usize, w);
                            }
                            OutTarget::Elem { slot, ty, index } => {
                                // Index evaluates in the caller's context,
                                // after the frame popped.
                                let i = eval(
                                    prog,
                                    spec,
                                    &proc.calls,
                                    &proc.params,
                                    state,
                                    stack,
                                    *index,
                                )?;
                                store_elem(spec, state, *slot, *ty, i, value)?;
                            }
                            OutTarget::Param { slot, name } => match proc.calls.last() {
                                Some(caller) if *slot < caller.len => {
                                    proc.params[caller.base as usize + *slot as usize] = value;
                                }
                                _ => return Err(unbound(prog, *name)),
                            },
                            OutTarget::ParamErr { name } => return Err(unbound(prog, *name)),
                        }
                    }
                    proc.params.truncate(rec.base as usize);
                    proc.pc += 1;
                }
                Instr::Spawn { group } => {
                    proc.pc += 1;
                    return Ok(Yield::Spawn(&prog.groups[*group as usize]));
                }
                Instr::Enter { child } => {
                    state.activations[child.index()] += 1;
                    proc.pc += 1;
                }
                Instr::Transition { site } => {
                    let s = &prog.trans[*site as usize];
                    let mut action = None;
                    for (cond, a) in s.arcs.iter() {
                        let fires = match cond {
                            None => true,
                            Some(c) => {
                                eval(prog, spec, &proc.calls, &proc.params, state, stack, *c)? != 0
                            }
                        };
                        if fires {
                            action = Some(*a);
                            break;
                        }
                    }
                    let action = action.unwrap_or(s.default);
                    if let Some(b) = action.activate {
                        state.activations[b.index()] += 1;
                    }
                    proc.pc = action.pc;
                }
                Instr::Halt => return Ok(Yield::Completed),
            }
        }
    }

    #[inline]
    fn eval_site(
        &mut self,
        proc: &CProc,
        site: u32,
        state: &SharedState,
    ) -> Result<bool, SimError> {
        let cond = self.prog.waits[site as usize].cond;
        let v = eval(
            self.prog,
            self.spec,
            &proc.calls,
            &proc.params,
            state,
            &mut self.stack,
            cond,
        )?;
        Ok(v != 0)
    }

    fn sensitivity(&self, site: u32) -> (&[u32], &[u32]) {
        let w = &self.prog.waits[site as usize];
        (&w.vars, &w.sigs)
    }
}

/// Evaluates a postfix expression in a process's context. `calls` and
/// `params` give the parameter environment (the innermost frame wins,
/// like the interpreter's frame scan — but resolved to a slot already).
#[inline]
fn eval(
    prog: &CompiledSpec,
    spec: &Spec,
    calls: &[CallRec],
    params: &[i64],
    state: &SharedState,
    stack: &mut Vec<i64>,
    r: ExprRef,
) -> Result<i64, SimError> {
    // Single operands (the common case after folding and fusion: `sig ==
    // 1`, `x < n`, a whole `||` chain) skip the stack, as does the next
    // most common shape: one binary operator over two operands.
    match r.ops(&prog.pool) {
        [op] => operand(prog, spec, calls, params, state, stack, op),
        [a, b, EOp::Bin(op)] if !pops(a) && !pops(b) => {
            let l = operand(prog, spec, calls, params, state, stack, a)?;
            let r = operand(prog, spec, calls, params, state, stack, b)?;
            Ok(op.eval(l, r))
        }
        ops => eval_stack(prog, spec, calls, params, state, stack, ops),
    }
}

/// Evaluates a postfix expression over the shared value stack: the
/// general case of [`eval`], kept out of line. It works above the
/// stack's current height, so a chain term evaluated in the middle of
/// an enclosing expression leaves that expression's operands in place.
fn eval_stack(
    prog: &CompiledSpec,
    spec: &Spec,
    calls: &[CallRec],
    params: &[i64],
    state: &SharedState,
    stack: &mut Vec<i64>,
    ops: &[EOp],
) -> Result<i64, SimError> {
    for op in ops {
        let v = match op {
            EOp::Elem(slot) => {
                let i = stack.pop().unwrap_or(0);
                index_var(spec, state, *slot, i)?
            }
            EOp::Un(op) => op.eval(stack.pop().unwrap_or(0)),
            EOp::Bin(op) => {
                let r = stack.pop().unwrap_or(0);
                let l = stack.pop().unwrap_or(0);
                op.eval(l, r)
            }
            op => operand(prog, spec, calls, params, state, stack, op)?,
        };
        stack.push(v);
    }
    Ok(stack.pop().unwrap_or(0))
}

/// Whether an op pops operands (i.e. is not a plain operand itself).
#[inline]
fn pops(op: &EOp) -> bool {
    matches!(op, EOp::Elem(_) | EOp::Un(_) | EOp::Bin(_))
}

/// Evaluates a non-popping (operand) op.
#[inline]
fn operand(
    prog: &CompiledSpec,
    spec: &Spec,
    calls: &[CallRec],
    params: &[i64],
    state: &SharedState,
    stack: &mut Vec<i64>,
    op: &EOp,
) -> Result<i64, SimError> {
    Ok(match *op {
        EOp::Const(v) => v,
        EOp::Var(slot) => read_var(state, slot),
        EOp::Sig(slot) => state.signals[slot as usize],
        EOp::SigC { slot, op, k } => op.eval(state.signals[slot as usize], k),
        EOp::VarC { slot, op, k } => op.eval(read_var(state, slot), k),
        EOp::Param { slot, name } => read_param(prog, calls, params, slot, name)?,
        EOp::ParamErr { name } => return Err(unbound(prog, name)),
        EOp::Any { off, len } => {
            eval_chain(prog, spec, calls, params, state, stack, off, len, true)?
        }
        EOp::All { off, len } => {
            eval_chain(prog, spec, calls, params, state, stack, off, len, false)?
        }
        EOp::Elem(_) | EOp::Un(_) | EOp::Bin(_) => unreachable!("popping op as operand"),
    })
}

/// Evaluates a short-circuit chain: `any` for `||` (stop at the first
/// non-zero term), else `&&` (stop at the first zero term). Lowering
/// only lets terms that cannot fault follow the first, so skipping them
/// hides no error the interpreter would raise.
#[allow(clippy::too_many_arguments)]
fn eval_chain(
    prog: &CompiledSpec,
    spec: &Spec,
    calls: &[CallRec],
    params: &[i64],
    state: &SharedState,
    stack: &mut Vec<i64>,
    off: u32,
    len: u32,
    any: bool,
) -> Result<i64, SimError> {
    for &term in &prog.terms[off as usize..(off + len) as usize] {
        if (eval(prog, spec, calls, params, state, stack, term)? != 0) == any {
            return Ok(i64::from(any));
        }
    }
    Ok(i64::from(!any))
}

/// Reads a scalar variable (array storage reads 0: the validator rejects
/// unindexed array reads; defensive).
#[inline]
fn read_var(state: &SharedState, slot: u32) -> i64 {
    match &state.vars[slot as usize] {
        Storage::Scalar(x) => *x,
        Storage::Array(_) => 0,
    }
}

/// Reads one element of an array variable (scalar storage reads the
/// scalar, matching the interpreter's defensive path).
#[inline]
fn index_var(spec: &Spec, state: &SharedState, slot: u32, i: i64) -> Result<i64, SimError> {
    match &state.vars[slot as usize] {
        Storage::Array(items) => usize::try_from(i)
            .ok()
            .and_then(|x| items.get(x))
            .copied()
            .ok_or_else(|| SimError::IndexOutOfBounds {
                var: spec.variable(VarId::from_raw(slot)).name().to_string(),
                index: i,
                len: items.len() as u32,
            }),
        Storage::Scalar(x) => Ok(*x),
    }
}

#[inline]
fn read_param(
    prog: &CompiledSpec,
    calls: &[CallRec],
    params: &[i64],
    slot: u16,
    name: u32,
) -> Result<i64, SimError> {
    match calls.last() {
        Some(rec) if slot < rec.len => Ok(params[rec.base as usize + slot as usize]),
        _ => Err(unbound(prog, name)),
    }
}

fn unbound(prog: &CompiledSpec, name: u32) -> SimError {
    SimError::UnboundParam(prog.names[name as usize].clone())
}

/// Stores into an element of an array variable (or the scalar itself on
/// scalar storage — the interpreter's defensive path).
fn store_elem(
    spec: &Spec,
    state: &mut SharedState,
    slot: u32,
    ty: modref_spec::types::ScalarType,
    i: i64,
    value: i64,
) -> Result<(), SimError> {
    let w = wrap_scalar(value, ty);
    match &mut state.vars[slot as usize] {
        Storage::Array(items) => {
            let len = items.len();
            let at = usize::try_from(i)
                .ok()
                .filter(|&x| x < len)
                .ok_or_else(|| SimError::IndexOutOfBounds {
                    var: spec.variable(VarId::from_raw(slot)).name().to_string(),
                    index: i,
                    len: len as u32,
                })?;
            items[at] = w;
            state.note_var_write(slot as usize);
            state.trace_elem(slot as usize, at, w);
        }
        Storage::Scalar(x) => {
            *x = w;
            state.note_var_write(slot as usize);
            state.trace_var(slot as usize, w);
        }
    }
    Ok(())
}
