//! The per-process interpreter: frame stack, expression evaluation and
//! statement micro-stepping. The round-robin reference scheduler steps it
//! directly; the `EventDriven` kernel runs it under the shared event
//! scheduler as the `Interpreter` executor.
//!
//! Frames borrow their statement bodies, wait conditions and parameter
//! names directly from the [`Spec`] instead of deep-cloning them: entering
//! an `if`/`while`/`for`/`loop` body or a subroutine call pushes a slice
//! reference, not a copy of the statement vector. On call-heavy refined
//! models (bus protocols run on every access) this removes the dominant
//! per-step allocation cost — see the medical_model4 investigation in
//! EXPERIMENTS.md. Parameter frames are small `(name, value)` vectors
//! scanned from the innermost end, matching the insertion-order-overwrite
//! semantics a per-call name map would have.

use std::collections::HashMap;

use modref_spec::stmt::CallArg;
use modref_spec::{
    BehaviorId, BehaviorKind, Expr, LValue, Spec, Stmt, TransitionTarget, VarId, WaitCond,
};

use crate::error::SimError;
use crate::sensitivity::WaitSite;
use crate::simulator::{Executor, Yield};
use crate::trace::{SimTrace, TraceId, TraceSink};
use crate::value::{truthy, wrap_scalar, Storage};

/// Shared mutable simulation state: variable and signal values.
#[derive(Debug)]
pub(crate) struct SharedState {
    pub vars: Vec<Storage>,
    pub signals: Vec<i64>,
    /// Total variable writes performed (a progress/stats counter).
    pub var_writes: u64,
    /// Total signal writes performed.
    pub signal_writes: u64,
    /// Number of times each behavior started executing, indexed by
    /// behavior id — a dynamic activation profile.
    pub activations: Vec<u64>,
    /// Variables written since the event scheduler last drained the
    /// queue (deduplicated via `var_dirty`). The round-robin kernel never
    /// drains it, which is fine: the dedup flags bound it at one entry
    /// per variable.
    dirty_vars: Vec<usize>,
    /// Signals written since the last drain (deduplicated).
    dirty_signals: Vec<usize>,
    var_dirty: Vec<bool>,
    sig_dirty: Vec<bool>,
    /// Opt-in trace recorder (see [`crate::trace`]). `None` — the
    /// default — keeps every trace hook to a single discriminant check.
    pub(crate) trace: Option<Box<TraceSink>>,
}

/// The most variable elements (a scalar is one, an array one per entry)
/// a simulated specification may hold in total. Storage is allocated up
/// front, so the simulator checks the bound before it builds any state:
/// a spec declaring more is refused with [`SimError::StorageLimit`]
/// instead of exhausting memory.
pub const MAX_ELEMENTS: u64 = 1 << 22;

/// Checks that `spec`'s variables hold at most [`MAX_ELEMENTS`] elements
/// in total, naming the variable that crosses the bound.
///
/// # Errors
///
/// [`SimError::StorageLimit`] past the bound.
pub(crate) fn check_storage(spec: &Spec) -> Result<(), SimError> {
    let mut total: u64 = 0;
    for (_, v) in spec.variables() {
        total += u64::from(v.ty().element_count());
        if total > MAX_ELEMENTS {
            return Err(SimError::StorageLimit {
                var: v.name().to_string(),
                limit: MAX_ELEMENTS,
            });
        }
    }
    Ok(())
}

impl SharedState {
    pub(crate) fn init(spec: &Spec) -> Self {
        let vars: Vec<Storage> = spec
            .variables()
            .map(|(_, v)| Storage::init(v.ty(), v.init()))
            .collect();
        let signals: Vec<i64> = spec
            .signals()
            .map(|(_, s)| wrap_scalar(s.init(), s.ty().access_scalar()))
            .collect();
        let var_dirty = vec![false; vars.len()];
        let sig_dirty = vec![false; signals.len()];
        Self {
            vars,
            signals,
            var_writes: 0,
            signal_writes: 0,
            activations: vec![0; spec.behavior_count()],
            dirty_vars: Vec::new(),
            dirty_signals: Vec::new(),
            var_dirty,
            sig_dirty,
            trace: None,
        }
    }

    /// Installs a trace sink; every subsequent write and wake is recorded.
    pub(crate) fn enable_trace(&mut self) {
        self.trace = Some(Box::default());
    }

    /// Takes the finished trace out of the state, if one was recorded.
    pub(crate) fn take_trace(&mut self) -> Option<SimTrace> {
        self.trace.take().map(|t| t.finish())
    }

    /// Stamps the trace sink with a new simulated time (no-op untraced).
    #[inline]
    pub(crate) fn trace_time(&mut self, now: u64) {
        if let Some(t) = &mut self.trace {
            t.set_time(now);
        }
    }

    /// Records a scalar-variable write (no-op untraced).
    #[inline]
    pub(crate) fn trace_var(&mut self, idx: usize, value: i64) {
        if let Some(t) = &mut self.trace {
            t.record(TraceId::Var(idx as u32), value);
        }
    }

    /// Records an array-element write (no-op untraced).
    #[inline]
    pub(crate) fn trace_elem(&mut self, idx: usize, index: usize, value: i64) {
        if let Some(t) = &mut self.trace {
            t.record(
                TraceId::Elem {
                    var: idx as u32,
                    index: index as u32,
                },
                value,
            );
        }
    }

    /// Records a signal write (no-op untraced).
    #[inline]
    pub(crate) fn trace_signal(&mut self, idx: usize, value: i64) {
        if let Some(t) = &mut self.trace {
            t.record(TraceId::Signal(idx as u32), value);
        }
    }

    /// Records a process wake; `behavior` is the woken process's behavior
    /// index (no-op untraced).
    #[inline]
    pub(crate) fn trace_wake(&mut self, pid: usize, behavior: usize) {
        if let Some(t) = &mut self.trace {
            t.record(TraceId::Wake(pid as u32), behavior as i64);
        }
    }

    /// Records a variable write for both the stats counter and the
    /// event scheduler's change queue.
    #[inline]
    pub(crate) fn note_var_write(&mut self, idx: usize) {
        self.var_writes += 1;
        if !self.var_dirty[idx] {
            self.var_dirty[idx] = true;
            self.dirty_vars.push(idx);
        }
    }

    /// Records a signal write.
    #[inline]
    pub(crate) fn note_signal_write(&mut self, idx: usize) {
        self.signal_writes += 1;
        if !self.sig_dirty[idx] {
            self.sig_dirty[idx] = true;
            self.dirty_signals.push(idx);
        }
    }

    /// Takes the set of variables written since the last drain, clearing
    /// the dedup flags. The returned buffer should be handed back via the
    /// next call's `reuse` to avoid reallocation.
    pub(crate) fn take_dirty_vars(&mut self, mut reuse: Vec<usize>) -> Vec<usize> {
        reuse.clear();
        std::mem::swap(&mut self.dirty_vars, &mut reuse);
        for &i in &reuse {
            self.var_dirty[i] = false;
        }
        reuse
    }

    /// Takes the set of signals written since the last drain.
    pub(crate) fn take_dirty_signals(&mut self, mut reuse: Vec<usize>) -> Vec<usize> {
        reuse.clear();
        std::mem::swap(&mut self.dirty_signals, &mut reuse);
        for &i in &reuse {
            self.sig_dirty[i] = false;
        }
        reuse
    }
}

/// Where a sequential-composite frame is in its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeqPos {
    NotStarted,
    Running(usize),
}

/// One entry of a process's control stack. Bodies and conditions are
/// borrowed from the spec — pushing a frame never copies statements.
#[derive(Debug)]
pub(crate) enum Frame<'a> {
    /// A straight-line block with a program counter.
    Block { stmts: &'a [Stmt], pc: usize },
    /// A `while` continuation: re-evaluate `cond` when the body completes.
    While { cond: &'a Expr, body: &'a [Stmt] },
    /// A `for` continuation.
    ForLoop {
        var: VarId,
        next: i64,
        to: i64,
        body: &'a [Stmt],
    },
    /// A `loop` continuation: restart the body forever.
    Forever { body: &'a [Stmt] },
    /// A subroutine call frame with per-call parameter storage. Parameters
    /// are resolved by scanning from the *end*, so a duplicated name
    /// behaves like repeated map insertion (last binding wins).
    Call {
        params: Vec<(&'a str, i64)>,
        outs: Vec<(&'a str, &'a LValue)>,
    },
    /// A sequential composite executing its children under transition arcs.
    Seq { behavior: BehaviorId, pos: SeqPos },
    /// A concurrent composite; `spawned` records whether children have
    /// been handed to the scheduler yet.
    Conc { behavior: BehaviorId, spawned: bool },
}

/// Scheduling status of a process.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Status<'a> {
    Ready,
    /// Blocked on `wait until`; the scheduler re-evaluates the condition.
    WaitUntil(&'a Expr),
    /// Sleeping until the given absolute time.
    WaitTime(u64),
    /// Waiting for spawned child processes (by process index) to finish.
    WaitChildren(Vec<usize>),
    Done,
}

/// What a micro-step did.
#[derive(Debug)]
pub(crate) enum StepEvent<'a> {
    /// Executed one statement (or frame bookkeeping).
    Progress,
    /// The process blocked (its status has been updated).
    Blocked,
    /// The process needs child processes for these behaviors.
    SpawnChildren(&'a [BehaviorId]),
    /// The frame stack emptied: the process's behavior completed.
    Completed,
}

/// A lightweight process interpreting one concurrent behavior.
#[derive(Debug)]
pub(crate) struct Process<'a> {
    /// The behavior this process interprets (trace wake events and
    /// diagnostics).
    pub behavior: BehaviorId,
    pub name: &'a str,
    pub frames: Vec<Frame<'a>>,
    pub status: Status<'a>,
    /// Whether the behavior is a server (infinite service loop) that must
    /// not block its parent composite's completion.
    pub is_server: bool,
    /// Process indices of children this process spawned (for recursive
    /// termination when a composite completes past its servers).
    pub spawned: Vec<usize>,
}

impl<'a> Process<'a> {
    pub(crate) fn new(spec: &'a Spec, behavior: BehaviorId) -> Self {
        let mut p = Self {
            behavior,
            name: spec.behavior(behavior).name(),
            frames: Vec::new(),
            status: Status::Ready,
            is_server: spec.behavior(behavior).is_server(),
            spawned: Vec::new(),
        };
        p.push_behavior(spec, behavior);
        p
    }

    /// Pushes the frame(s) that start executing `behavior`.
    fn push_behavior(&mut self, spec: &'a Spec, behavior: BehaviorId) {
        match spec.behavior(behavior).kind() {
            BehaviorKind::Leaf { body } => self.frames.push(Frame::Block { stmts: body, pc: 0 }),
            BehaviorKind::Seq { .. } => self.frames.push(Frame::Seq {
                behavior,
                pos: SeqPos::NotStarted,
            }),
            BehaviorKind::Concurrent { .. } => self.frames.push(Frame::Conc {
                behavior,
                spawned: false,
            }),
        }
    }

    /// Executes one micro-step.
    pub(crate) fn step(
        &mut self,
        spec: &'a Spec,
        state: &mut SharedState,
        now: u64,
    ) -> Result<StepEvent<'a>, SimError> {
        let Some(top) = self.frames.last_mut() else {
            self.status = Status::Done;
            return Ok(StepEvent::Completed);
        };

        match top {
            Frame::Block { stmts, pc } => {
                if *pc >= stmts.len() {
                    self.frames.pop();
                    return Ok(StepEvent::Progress);
                }
                let stmts = *stmts;
                let idx = *pc;
                self.exec_stmt(spec, state, now, &stmts[idx])
            }
            Frame::While { cond, body } => {
                let cond = *cond;
                let body = *body;
                if truthy(self.eval(spec, state, cond)?) {
                    self.frames.push(Frame::Block { stmts: body, pc: 0 });
                } else {
                    self.frames.pop();
                }
                Ok(StepEvent::Progress)
            }
            Frame::ForLoop {
                var,
                next,
                to,
                body,
            } => {
                if *next < *to {
                    let var = *var;
                    let value = *next;
                    *next += 1;
                    let body = *body;
                    self.store_var(spec, state, var, value);
                    self.frames.push(Frame::Block { stmts: body, pc: 0 });
                } else {
                    self.frames.pop();
                }
                Ok(StepEvent::Progress)
            }
            Frame::Forever { body } => {
                let body = *body;
                self.frames.push(Frame::Block { stmts: body, pc: 0 });
                Ok(StepEvent::Progress)
            }
            Frame::Call { .. } => {
                // Body completed: copy out-parameters to caller lvalues.
                let Some(Frame::Call { params, outs }) = self.frames.pop() else {
                    unreachable!("just matched a call frame");
                };
                for (pname, lv) in outs {
                    let value = params
                        .iter()
                        .rfind(|(n, _)| *n == pname)
                        .map_or(0, |&(_, v)| v);
                    self.store_lvalue(spec, state, lv, value)?;
                }
                Ok(StepEvent::Progress)
            }
            Frame::Seq { behavior, pos } => {
                let behavior = *behavior;
                let pos = *pos;
                self.step_seq(spec, state, behavior, pos)
            }
            Frame::Conc { behavior, spawned } => {
                if *spawned {
                    self.frames.pop();
                    Ok(StepEvent::Progress)
                } else {
                    *spawned = true;
                    Ok(StepEvent::SpawnChildren(
                        spec.behavior(*behavior).children(),
                    ))
                }
            }
        }
    }

    fn step_seq(
        &mut self,
        spec: &'a Spec,
        state: &mut SharedState,
        behavior: BehaviorId,
        pos: SeqPos,
    ) -> Result<StepEvent<'a>, SimError> {
        let children = spec.behavior(behavior).children();
        match pos {
            SeqPos::NotStarted => {
                if children.is_empty() {
                    self.frames.pop();
                    return Ok(StepEvent::Progress);
                }
                let first = children[0];
                self.set_seq_pos(SeqPos::Running(0));
                state.activations[first.index()] += 1;
                self.push_behavior(spec, first);
                Ok(StepEvent::Progress)
            }
            SeqPos::Running(idx) => {
                // Child `idx` completed: fire the first matching arc.
                let completed = children[idx];
                let mut target: Option<&TransitionTarget> = None;
                let mut has_arcs = false;
                for t in spec.behavior(behavior).transitions() {
                    if t.from != completed {
                        continue;
                    }
                    has_arcs = true;
                    let fires = match &t.cond {
                        Some(c) => truthy(self.eval(spec, state, c)?),
                        None => true,
                    };
                    if fires {
                        target = Some(&t.to);
                        break;
                    }
                }
                let next = match target {
                    Some(TransitionTarget::Behavior(to)) => children.iter().position(|c| c == to),
                    Some(TransitionTarget::Complete) => None,
                    None => {
                        if has_arcs {
                            // Arcs declared but none fired: composite
                            // completes (no enabled successor).
                            None
                        } else if idx + 1 < children.len() {
                            Some(idx + 1)
                        } else {
                            None
                        }
                    }
                };
                match next {
                    Some(i) => {
                        let child = children[i];
                        self.set_seq_pos(SeqPos::Running(i));
                        state.activations[child.index()] += 1;
                        self.push_behavior(spec, child);
                    }
                    None => {
                        self.frames.pop();
                    }
                }
                Ok(StepEvent::Progress)
            }
        }
    }

    fn set_seq_pos(&mut self, new_pos: SeqPos) {
        if let Some(Frame::Seq { pos, .. }) = self.frames.last_mut() {
            *pos = new_pos;
        } else {
            unreachable!("set_seq_pos called without a Seq frame on top");
        }
    }

    fn exec_stmt(
        &mut self,
        spec: &'a Spec,
        state: &mut SharedState,
        now: u64,
        stmt: &'a Stmt,
    ) -> Result<StepEvent<'a>, SimError> {
        let advance = |frames: &mut Vec<Frame>| {
            if let Some(Frame::Block { pc, .. }) = frames.last_mut() {
                *pc += 1;
            }
        };
        match stmt {
            Stmt::Assign { target, value } => {
                let v = self.eval(spec, state, value)?;
                self.store_lvalue(spec, state, target, v)?;
                advance(&mut self.frames);
                Ok(StepEvent::Progress)
            }
            Stmt::SignalSet { signal, value } => {
                let v = self.eval(spec, state, value)?;
                let ty = spec.signal(*signal).ty().access_scalar();
                let w = wrap_scalar(v, ty);
                state.signals[signal.index()] = w;
                state.note_signal_write(signal.index());
                state.trace_signal(signal.index(), w);
                advance(&mut self.frames);
                Ok(StepEvent::Progress)
            }
            Stmt::Wait(WaitCond::Until(cond)) => {
                if truthy(self.eval(spec, state, cond)?) {
                    advance(&mut self.frames);
                    Ok(StepEvent::Progress)
                } else {
                    self.status = Status::WaitUntil(cond);
                    Ok(StepEvent::Blocked)
                }
            }
            Stmt::Wait(WaitCond::For(n)) | Stmt::Delay(n) => {
                let wake = now + n;
                advance(&mut self.frames);
                self.status = Status::WaitTime(wake);
                Ok(StepEvent::Blocked)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let taken = truthy(self.eval(spec, state, cond)?);
                let body: &'a [Stmt] = if taken { then_body } else { else_body };
                advance(&mut self.frames);
                self.frames.push(Frame::Block { stmts: body, pc: 0 });
                Ok(StepEvent::Progress)
            }
            Stmt::While { cond, body, .. } => {
                advance(&mut self.frames);
                self.frames.push(Frame::While { cond, body });
                Ok(StepEvent::Progress)
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let from = self.eval(spec, state, from)?;
                let to = self.eval(spec, state, to)?;
                advance(&mut self.frames);
                self.frames.push(Frame::ForLoop {
                    var: *var,
                    next: from,
                    to,
                    body,
                });
                Ok(StepEvent::Progress)
            }
            Stmt::Loop { body } => {
                advance(&mut self.frames);
                self.frames.push(Frame::Forever { body });
                Ok(StepEvent::Progress)
            }
            Stmt::Call { sub, args } => {
                let def = spec.subroutine(*sub);
                let mut params: Vec<(&'a str, i64)> = Vec::with_capacity(def.params().len());
                let mut outs: Vec<(&'a str, &'a LValue)> = Vec::new();
                for (param, arg) in def.params().iter().zip(args) {
                    match arg {
                        CallArg::In(e) => {
                            let v = self.eval(spec, state, e)?;
                            params.push((
                                param.name.as_str(),
                                wrap_scalar(v, param.ty.access_scalar()),
                            ));
                        }
                        CallArg::Out(lv) => {
                            params.push((param.name.as_str(), 0));
                            outs.push((param.name.as_str(), lv));
                        }
                    }
                }
                advance(&mut self.frames);
                self.frames.push(Frame::Call { params, outs });
                self.frames.push(Frame::Block {
                    stmts: def.body(),
                    pc: 0,
                });
                Ok(StepEvent::Progress)
            }
            Stmt::Skip => {
                advance(&mut self.frames);
                Ok(StepEvent::Progress)
            }
        }
    }

    /// Evaluates an expression in this process's context (parameters
    /// resolve against the innermost call frame).
    pub(crate) fn eval(&self, spec: &Spec, state: &SharedState, e: &Expr) -> Result<i64, SimError> {
        Ok(match e {
            Expr::Lit(v) => *v,
            Expr::Var(v) => match &state.vars[v.index()] {
                Storage::Scalar(x) => *x,
                Storage::Array(_) => 0, // validator rejects; defensive
            },
            Expr::Index(v, idx) => {
                let i = self.eval(spec, state, idx)?;
                match &state.vars[v.index()] {
                    Storage::Array(items) => *items
                        .get(usize::try_from(i).ok().filter(|&x| x < items.len()).ok_or(
                            SimError::IndexOutOfBounds {
                                var: spec.variable(*v).name().to_string(),
                                index: i,
                                len: items.len() as u32,
                            },
                        )?)
                        .expect("bounds checked"),
                    Storage::Scalar(x) => *x,
                }
            }
            Expr::Signal(s) => state.signals[s.index()],
            Expr::Param(name) => self.read_param(name)?,
            Expr::Unary(op, inner) => op.eval(self.eval(spec, state, inner)?),
            Expr::Binary(op, l, r) => {
                let l = self.eval(spec, state, l)?;
                let r = self.eval(spec, state, r)?;
                op.eval(l, r)
            }
        })
    }

    /// Reads a parameter from the innermost call frame. Scanning from the
    /// end makes a duplicated parameter name resolve to its last binding,
    /// the same value repeated name-map insertion would have produced.
    fn read_param(&self, name: &str) -> Result<i64, SimError> {
        for frame in self.frames.iter().rev() {
            if let Frame::Call { params, .. } = frame {
                return params
                    .iter()
                    .rfind(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .ok_or_else(|| SimError::UnboundParam(name.to_string()));
            }
        }
        Err(SimError::UnboundParam(name.to_string()))
    }

    fn write_param(&mut self, name: &str, value: i64) -> Result<(), SimError> {
        for frame in self.frames.iter_mut().rev() {
            if let Frame::Call { params, .. } = frame {
                match params.iter_mut().rfind(|(n, _)| *n == name) {
                    Some((_, slot)) => {
                        *slot = value;
                        return Ok(());
                    }
                    None => return Err(SimError::UnboundParam(name.to_string())),
                }
            }
        }
        Err(SimError::UnboundParam(name.to_string()))
    }

    fn store_var(&mut self, spec: &Spec, state: &mut SharedState, var: VarId, value: i64) {
        let ty = spec.variable(var).ty().access_scalar();
        let w = wrap_scalar(value, ty);
        state.vars[var.index()] = Storage::Scalar(w);
        state.note_var_write(var.index());
        state.trace_var(var.index(), w);
    }

    pub(crate) fn store_lvalue(
        &mut self,
        spec: &Spec,
        state: &mut SharedState,
        lv: &LValue,
        value: i64,
    ) -> Result<(), SimError> {
        match lv {
            LValue::Var(v) => {
                self.store_var(spec, state, *v, value);
                Ok(())
            }
            LValue::Index(v, idx) => {
                let i = self.eval(spec, state, idx)?;
                let elem_ty = spec.variable(*v).ty().access_scalar();
                match &mut state.vars[v.index()] {
                    Storage::Array(items) => {
                        let len = items.len();
                        let slot =
                            usize::try_from(i)
                                .ok()
                                .filter(|&x| x < len)
                                .ok_or_else(|| SimError::IndexOutOfBounds {
                                    var: spec.variable(*v).name().to_string(),
                                    index: i,
                                    len: len as u32,
                                })?;
                        let w = wrap_scalar(value, elem_ty);
                        items[slot] = w;
                        state.note_var_write(v.index());
                        state.trace_elem(v.index(), slot, w);
                        Ok(())
                    }
                    Storage::Scalar(x) => {
                        let w = wrap_scalar(value, elem_ty);
                        *x = w;
                        state.note_var_write(v.index());
                        state.trace_var(v.index(), w);
                        Ok(())
                    }
                }
            }
            LValue::Param(name) => self.write_param(name, value),
        }
    }
}

/// The AST interpreter as an event-scheduler [`Executor`]: a process
/// micro-steps its frame stack until it blocks, spawns or completes. Its
/// wait sites are the spec's `wait until` conditions, interned by address
/// (every statement owns its condition) to dense ids on first block.
#[derive(Debug)]
pub(crate) struct Interpreter<'a> {
    spec: &'a Spec,
    ids: HashMap<*const Expr, u32>,
    sites: Vec<WaitSite<&'a Expr>>,
}

impl<'a> Interpreter<'a> {
    pub(crate) fn new(spec: &'a Spec) -> Self {
        Self {
            spec,
            ids: HashMap::new(),
            sites: Vec::new(),
        }
    }

    /// The site id of `cond`, derived on first use.
    fn intern(&mut self, cond: &'a Expr) -> u32 {
        let sites = &mut self.sites;
        *self.ids.entry(cond as *const Expr).or_insert_with(|| {
            sites.push(WaitSite::new(cond, cond));
            (sites.len() - 1) as u32
        })
    }
}

impl<'a> Executor<'a> for Interpreter<'a> {
    type Proc = Process<'a>;
    const COUNTS_INSTRS: bool = false;

    fn spawn(&mut self, behavior: BehaviorId) -> Process<'a> {
        Process::new(self.spec, behavior)
    }

    /// Ignores `woken`: the interpreter is the reference the compiled
    /// kernel is checked against, so it re-evaluates every wait it
    /// resumes at (the value and the step count are the same).
    fn run(
        &mut self,
        proc: &mut Process<'a>,
        state: &mut SharedState,
        now: u64,
        steps: &mut u64,
        max_steps: u64,
        _woken: bool,
    ) -> Result<Yield<'a>, SimError> {
        loop {
            *steps += 1;
            if *steps > max_steps {
                return Err(SimError::StepLimitExceeded { limit: max_steps });
            }
            match proc.step(self.spec, state, now)? {
                StepEvent::Progress => {}
                StepEvent::Blocked => {
                    return Ok(match proc.status {
                        Status::WaitUntil(cond) => Yield::Wait(self.intern(cond)),
                        Status::WaitTime(t) => Yield::Sleep(t),
                        _ => unreachable!("a blocked process waits"),
                    })
                }
                StepEvent::SpawnChildren(children) => return Ok(Yield::Spawn(children)),
                StepEvent::Completed => return Ok(Yield::Completed),
            }
        }
    }

    fn eval_site(
        &mut self,
        proc: &Process<'a>,
        site: u32,
        state: &SharedState,
    ) -> Result<bool, SimError> {
        let cond = self.sites[site as usize].cond;
        Ok(truthy(proc.eval(self.spec, state, cond)?))
    }

    fn sensitivity(&self, site: u32) -> (&[u32], &[u32]) {
        let s = &self.sites[site as usize];
        (&s.vars, &s.sigs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    #[test]
    fn eval_basic_expression() {
        let mut b = SpecBuilder::new("e");
        let x = b.var_int("x", 16, 3);
        let a = b.leaf("A", vec![stmt::skip()]);
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let state = SharedState::init(&spec);
        let p = Process::new(&spec, spec.top());
        let e = expr::add(expr::var(x), expr::lit(4));
        assert_eq!(p.eval(&spec, &state, &e).unwrap(), 7);
    }

    #[test]
    fn hostile_storage_is_bounded_before_allocation() {
        use modref_spec::types::{DataType, ScalarType};
        let spec_with = |lens: &[u32]| {
            let mut b = SpecBuilder::new("big");
            for (i, &len) in lens.iter().enumerate() {
                b.var(format!("a{i}"), DataType::array(ScalarType::Int(8), len), 1);
            }
            let a = b.leaf("A", vec![stmt::skip()]);
            let top = b.seq_in_order("Top", vec![a]);
            b.finish(top).expect("valid")
        };
        // 32 GiB of elements: refused before anything is allocated.
        let err = check_storage(&spec_with(&[u32::MAX])).expect_err("over the bound");
        assert_eq!(
            err,
            SimError::StorageLimit {
                var: "a0".into(),
                limit: MAX_ELEMENTS,
            }
        );
        // The bound is on the total, and names the variable crossing it.
        let half = (MAX_ELEMENTS / 2) as u32;
        let err = check_storage(&spec_with(&[half, half, 1])).expect_err("over the bound");
        assert!(matches!(err, SimError::StorageLimit { var, .. } if var == "a2"));
        // Exactly at the bound is allowed, and allocates.
        let spec = spec_with(&[half, half]);
        assert_eq!(check_storage(&spec), Ok(()));
        assert_eq!(SharedState::init(&spec).vars.len(), 2);
    }

    #[test]
    fn unbound_param_errors() {
        let mut b = SpecBuilder::new("e");
        let a = b.leaf("A", vec![]);
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let state = SharedState::init(&spec);
        let p = Process::new(&spec, spec.top());
        let e = expr::param("ghost");
        assert!(matches!(
            p.eval(&spec, &state, &e),
            Err(SimError::UnboundParam(_))
        ));
    }

    #[test]
    fn out_of_bounds_index_reports_error() {
        let mut b = SpecBuilder::new("e");
        let arr = b.var(
            "a",
            modref_spec::DataType::array(modref_spec::types::ScalarType::Int(8), 2),
            0,
        );
        let leaf = b.leaf("A", vec![]);
        let top = b.seq_in_order("Top", vec![leaf]);
        let spec = b.finish(top).expect("valid");
        let state = SharedState::init(&spec);
        let p = Process::new(&spec, spec.top());
        let e = expr::index(arr, expr::lit(5));
        assert!(matches!(
            p.eval(&spec, &state, &e),
            Err(SimError::IndexOutOfBounds { .. })
        ));
    }
}
