//! The scheduler: one event-driven scheduler shared by two executors,
//! and the original polling round-robin scheduler, retained as a
//! behavioral reference.
//!
//! All kernels implement the same delta-cycle semantics — step every
//! ready process to a block point, then wake processes whose wait
//! conditions came true, then (only when nothing woke) advance time to
//! the earliest sleeper — and produce identical observable results. They
//! differ in how the wake phase finds candidates and in how statements
//! execute:
//!
//! * **Round-robin** ([`SimKernel::RoundRobin`]) re-evaluates *every*
//!   blocked `wait until` condition and rescans *every* process's
//!   child/server status each round, so a round costs O(total processes).
//! * The **event scheduler** registers each blocked condition against its
//!   [sensitivity set](crate::sensitivity) in per-variable/per-signal
//!   waiter lists, and only re-evaluates conditions whose sensitivities
//!   were actually written (a dirty set maintained by the shared write
//!   path). Sleepers sit in a binary-heap timer queue instead of being
//!   found by linear scan, and composites track a pending non-server
//!   child count instead of rescanning all processes. Scratch buffers
//!   (ready lists, recheck queues, dirty sets) are reused across rounds.
//!   It is written once, over an executor trait, and runs two executors:
//!   - [`SimKernel::Compiled`] (the default) resumes behaviors lowered to
//!     flat bytecode by the [`compile`](crate::compile) pipeline — see
//!     that module for the instruction set and the step-parity guarantee;
//!   - [`SimKernel::EventDriven`] micro-steps the tree-walking
//!     [`process`](crate::process) interpreter.
//!
//! A process woken because its `wait until` condition evaluated true
//! resumes *at* that wait, which re-executes. When nothing has been
//! written since the wake phase evaluated the condition (the state's
//! write count, `var_writes + signal_writes`, is unchanged when the
//! process is dispatched), the value cannot have changed, and the
//! compiled executor passes the wait without evaluating it again. The
//! step is still counted and the step limit still checked, so counters
//! and verdicts match the interpreter, which always re-evaluates. A write
//! by an earlier process in the round makes the wait re-evaluate, and
//! block again if the condition turned false.
//!
//! Waiter lists hold `(process, wait site)` pairs. Each pair is
//! registered once for the whole run and validated at scan time: an entry
//! is live iff its process still waits at that site, so re-blocking on a
//! site (the server-loop steady state) costs no registration work. The
//! timer heap uses the same trick: an entry is live only while its
//! process still sleeps until exactly that time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use modref_spec::{BehaviorId, Spec};

use crate::error::SimError;
use crate::process::{Interpreter, Process, SharedState, Status, StepEvent};
use crate::result::{
    SimResult, METER_NAMES, SLOT_COND_EVALS, SLOT_DISPATCHES, SLOT_INSTRS, SLOT_ROUNDS,
    SLOT_TIMER_POPS, SLOT_WAKEUPS,
};
use crate::value::truthy;

/// Which scheduling kernel executes the specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimKernel {
    /// The event scheduler running the tree-walking AST interpreter.
    EventDriven,
    /// The original polling scheduler: every round re-evaluates every
    /// blocked condition. Kept as an executable reference for
    /// equivalence testing and as the bench baseline.
    RoundRobin,
    /// The event scheduler running behaviors lowered to flat bytecode
    /// with slot-interned state (see [`crate::compile`]) — the fastest
    /// kernel on every benched workload, and the default.
    #[default]
    Compiled,
}

impl SimKernel {
    /// Parses a kernel name as used by `modref simulate --kernel`, the
    /// serve wire protocol and bench tooling. Accepts the canonical
    /// short names (`event`, `roundrobin`, `compiled`) and the
    /// hyphenated display forms.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "event" | "event-driven" => Some(Self::EventDriven),
            "roundrobin" | "round-robin" => Some(Self::RoundRobin),
            "compiled" => Some(Self::Compiled),
            _ => None,
        }
    }

    /// The kernel's display name (also the `sim.run` span attribute).
    pub fn name(self) -> &'static str {
        match self {
            Self::EventDriven => "event-driven",
            Self::RoundRobin => "round-robin",
            Self::Compiled => "compiled",
        }
    }
}

/// Simulation limits and options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Global micro-step budget; exceeding it aborts with
    /// [`SimError::StepLimitExceeded`].
    pub max_steps: u64,
    /// Which scheduler kernel to run.
    pub kernel: SimKernel,
    /// Record a full event trace (see [`crate::trace`]) onto
    /// [`SimResult::trace`](crate::SimResult). Off by default; the
    /// disabled cost is one discriminant check per write.
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            max_steps: 5_000_000,
            kernel: SimKernel::default(),
            trace: false,
        }
    }
}

/// Executes a specification.
///
/// See the [crate documentation](crate) for semantics and an example.
#[derive(Debug)]
pub struct Simulator<'a> {
    spec: &'a Spec,
    config: SimConfig,
}

/// Why a running process stopped (see [`Executor::run`]).
#[derive(Debug)]
pub(crate) enum Yield<'a> {
    /// Blocked at a `wait until` site whose condition was false.
    Wait(u32),
    /// Sleeping until the given absolute time.
    Sleep(u64),
    /// Needs child processes for these behaviors, and waits for the
    /// non-server ones to complete.
    Spawn(&'a [BehaviorId]),
    /// The process's behavior completed.
    Completed,
}

/// How the event scheduler executes processes. Implemented by the AST
/// interpreter ([`Interpreter`]) and the bytecode executor
/// ([`crate::compile::exec::Bytecode`]); the scheduler owns everything
/// else — statuses, waiter lists, the timer heap, process trees.
pub(crate) trait Executor<'a> {
    /// One process's execution state.
    type Proc;
    /// Whether the kernel reports `instrs` and `dispatches` (one
    /// instruction per micro-step).
    const COUNTS_INSTRS: bool;
    /// Starts a process executing `behavior`.
    fn spawn(&mut self, behavior: BehaviorId) -> Self::Proc;
    /// Runs `proc` until it stops, counting every micro-step in `steps`
    /// and failing past `max_steps`. `woken` says that `proc` is blocked
    /// at a `wait until` whose condition [`Executor::eval_site`] found
    /// true, and that nothing was written since: the executor may pass
    /// the wait (still one counted step) without evaluating it again.
    /// The interpreter ignores the hint and re-evaluates.
    fn run(
        &mut self,
        proc: &mut Self::Proc,
        state: &mut SharedState,
        now: u64,
        steps: &mut u64,
        max_steps: u64,
        woken: bool,
    ) -> Result<Yield<'a>, SimError>;
    /// Evaluates the condition of `site`, where `proc` is blocked.
    fn eval_site(
        &mut self,
        proc: &Self::Proc,
        site: u32,
        state: &SharedState,
    ) -> Result<bool, SimError>;
    /// The sensitivity lists of `site`: variable slots, signal slots.
    fn sensitivity(&self, site: u32) -> (&[u32], &[u32]);
}

/// A process's status under the event scheduler.
#[derive(Debug)]
enum Wait {
    Ready,
    /// Blocked at a `wait until` site.
    Until(u32),
    /// Sleeping until the given absolute time.
    Time(u64),
    /// Waiting for its latest spawned children.
    Children,
    Done,
}

/// One process under the event scheduler: the executor's state plus the
/// scheduler's bookkeeping.
#[derive(Debug)]
struct Task<P> {
    exec: P,
    status: Wait,
    behavior: BehaviorId,
    is_server: bool,
    parent: Option<usize>,
    /// The process ids of the latest spawned children. Earlier groups
    /// are all done: a process spawns again only after its last group
    /// finished and that group's servers were killed.
    children: Range<usize>,
    /// Non-server children still running, while `Children`.
    pending: usize,
    /// Wait sites whose waiter lists already hold this process.
    registered: Vec<u32>,
    /// Whether the process is queued for a condition re-check this
    /// round (dedups a process sensitive to several written slots).
    queued: bool,
    /// Whether the wake phase made the process ready because its `wait
    /// until` condition evaluated true; cleared when it next runs.
    woken_true: bool,
}

impl<P> Task<P> {
    fn new(spec: &Spec, behavior: BehaviorId, exec: P, parent: Option<usize>) -> Self {
        Self {
            exec,
            status: Wait::Ready,
            behavior,
            is_server: spec.behavior(behavior).is_server(),
            parent,
            children: 0..0,
            pending: 0,
            registered: Vec::new(),
            queued: false,
            woken_true: false,
        }
    }
}

/// Queues the live waiters of one list for a re-check, pruning entries
/// of finished processes. Pruning reorders the list, which only permutes
/// the `recheck` order: re-evaluation is read-only and the woken set is
/// sorted before dispatch.
#[inline]
fn scan<P>(list: &mut Vec<(usize, u32)>, tasks: &mut [Task<P>], recheck: &mut Vec<usize>) {
    let mut k = 0;
    while k < list.len() {
        let (p, site) = list[k];
        let task = &mut tasks[p];
        match task.status {
            Wait::Done => {
                list.swap_remove(k);
                continue;
            }
            Wait::Until(s) if s == site && !task.queued => {
                task.queued = true;
                recheck.push(p);
            }
            _ => {}
        }
        k += 1;
    }
}

/// Records wake events for `pids` (already in pid order).
fn trace_wakes<P>(state: &mut SharedState, tasks: &[Task<P>], pids: &[usize]) {
    if state.trace.is_some() {
        for &pid in pids {
            state.trace_wake(pid, tasks[pid].behavior.index());
        }
    }
}

/// The event scheduler: runs `spec` to completion of its top behavior
/// with `exec` executing every process.
fn run_events<'a, E: Executor<'a>>(
    spec: &'a Spec,
    config: &SimConfig,
    mut exec: E,
) -> Result<SimResult, SimError> {
    let mut state = SharedState::init(spec);
    if config.trace {
        state.enable_trace();
    }
    state.activations[spec.top().index()] += 1;
    let mut tasks = vec![Task::new(spec, spec.top(), exec.spawn(spec.top()), None)];
    let mut now: u64 = 0;
    let mut steps: u64 = 0;
    let mut dispatches: u64 = 0;
    let mut meter = modref_obs::Meter::new(METER_NAMES);

    let mut var_waiters: Vec<Vec<(usize, u32)>> = vec![Vec::new(); spec.variable_count()];
    let mut sig_waiters: Vec<Vec<(usize, u32)>> = vec![Vec::new(); spec.signal_count()];
    let mut timers: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

    // Round-scratch buffers, reused across rounds.
    let mut ready: Vec<usize> = vec![0];
    let mut woken: Vec<usize> = Vec::new();
    let mut recheck: Vec<usize> = Vec::new();
    let mut finished_parents: Vec<usize> = Vec::new();
    let mut kill_list: Vec<usize> = Vec::new();
    let mut dirty_v: Vec<usize> = Vec::new();
    let mut dirty_s: Vec<usize> = Vec::new();

    loop {
        meter.inc(SLOT_ROUNDS);

        // Phase 1: run each ready process until it stops, in ascending
        // pid order (children spawn with larger pids, so appending
        // preserves the order the round-robin kernel uses). A process
        // woken and then killed in the same round stays dead.
        //
        // Nothing writes between the wake phase and here, so a process
        // its condition woke that runs before any write this round would
        // find that condition true again: it resumes without evaluating
        // it. After a write the wait re-evaluates as usual.
        let wake_writes = state.var_writes + state.signal_writes;
        let mut i = 0;
        while i < ready.len() {
            let pid = ready[i];
            i += 1;
            let task = &mut tasks[pid];
            if !matches!(task.status, Wait::Ready) {
                continue;
            }
            dispatches += 1;
            let woken = std::mem::take(&mut task.woken_true)
                && state.var_writes + state.signal_writes == wake_writes;
            match exec.run(
                &mut task.exec,
                &mut state,
                now,
                &mut steps,
                config.max_steps,
                woken,
            )? {
                Yield::Wait(site) => {
                    task.status = Wait::Until(site);
                    // Register once per (process, site). An empty
                    // sensitivity set means the condition is constant
                    // while blocked: it was false, stays false, and only
                    // the deadlock check will ever see it.
                    if !task.registered.contains(&site) {
                        task.registered.push(site);
                        let (vars, sigs) = exec.sensitivity(site);
                        for &v in vars {
                            var_waiters[v as usize].push((pid, site));
                        }
                        for &sg in sigs {
                            sig_waiters[sg as usize].push((pid, site));
                        }
                    }
                }
                Yield::Sleep(t) => {
                    task.status = Wait::Time(t);
                    timers.push(Reverse((t, pid)));
                }
                Yield::Completed => {
                    task.status = Wait::Done;
                    if let (Some(par), false) = (task.parent, task.is_server) {
                        tasks[par].pending -= 1;
                        if tasks[par].pending == 0 {
                            finished_parents.push(par);
                        }
                    }
                }
                Yield::Spawn(behaviors) => {
                    let children = tasks.len()..tasks.len() + behaviors.len();
                    for &c in behaviors {
                        state.activations[c.index()] += 1;
                        ready.push(tasks.len());
                        tasks.push(Task::new(spec, c, exec.spawn(c), Some(pid)));
                    }
                    let live = tasks[children.clone()]
                        .iter()
                        .filter(|c| !c.is_server)
                        .count();
                    let task = &mut tasks[pid];
                    task.children = children;
                    task.pending = live;
                    task.status = Wait::Children;
                    if live == 0 {
                        finished_parents.push(pid);
                    }
                }
            }
        }
        ready.clear();

        // Phase 2a: re-evaluate only the conditions whose sensitivities
        // were written this round.
        dirty_v = state.take_dirty_vars(dirty_v);
        for &vi in &dirty_v {
            scan(&mut var_waiters[vi], &mut tasks, &mut recheck);
        }
        dirty_s = state.take_dirty_signals(dirty_s);
        for &si in &dirty_s {
            scan(&mut sig_waiters[si], &mut tasks, &mut recheck);
        }
        for pid in recheck.drain(..) {
            let task = &mut tasks[pid];
            task.queued = false;
            if let Wait::Until(site) = task.status {
                meter.inc(SLOT_COND_EVALS);
                if exec.eval_site(&task.exec, site, &state)? {
                    meter.inc(SLOT_WAKEUPS);
                    task.status = Wait::Ready;
                    task.woken_true = true;
                    woken.push(pid);
                }
            }
        }

        // Phase 2b: wake composites whose last counted (non-server)
        // child completed this round, then terminate their servers (and
        // anything those spawned) recursively. Kills run after all
        // wakes, matching the reference kernel's snapshot-then-kill
        // order.
        for par in finished_parents.drain(..) {
            if matches!(tasks[par].status, Wait::Children) {
                let children = tasks[par].children.clone();
                kill_list.extend(children.filter(|&c| tasks[c].is_server));
                tasks[par].status = Wait::Ready;
                woken.push(par);
            }
        }
        while let Some(k) = kill_list.pop() {
            if !matches!(tasks[k].status, Wait::Done) {
                tasks[k].status = Wait::Done;
                kill_list.extend(tasks[k].children.clone());
            }
        }

        // Termination: root process finished.
        if matches!(tasks[0].status, Wait::Done) {
            if E::COUNTS_INSTRS {
                meter.add(SLOT_INSTRS, steps);
                meter.add(SLOT_DISPATCHES, dispatches);
            }
            let trace = state.take_trace();
            return Ok(SimResult::collect(
                spec, &state, now, steps, true, &meter, trace,
            ));
        }

        if !woken.is_empty() {
            // Wakes arrive in notification order; restore pid order for
            // the next round's sweep. Wake events are recorded *after*
            // the sort so the trace shows the pid order every kernel
            // dispatches (and the reference kernel wakes) in. (A lone
            // wake, the common case, skips the sort call.)
            if woken.len() > 1 {
                woken.sort_unstable();
            }
            trace_wakes(&mut state, &tasks, &woken);
            std::mem::swap(&mut ready, &mut woken);
            continue;
        }

        // Phase 3: advance time via the timer heap, discarding stale
        // entries (processes killed or re-scheduled since pushing).
        let next_wake = loop {
            match timers.peek() {
                Some(&Reverse((t, pid))) => {
                    if matches!(tasks[pid].status, Wait::Time(w) if w == t) {
                        break Some(t);
                    }
                    timers.pop();
                    meter.inc(SLOT_TIMER_POPS);
                }
                None => break None,
            }
        };
        let Some(t) = next_wake else {
            let blocked: Vec<String> = tasks
                .iter()
                .filter(|p| !matches!(p.status, Wait::Done))
                .map(|p| spec.behavior(p.behavior).name().to_string())
                .collect();
            return Err(SimError::Deadlock { time: now, blocked });
        };
        now = t.max(now);
        state.trace_time(now);
        while let Some(&Reverse((t2, pid))) = timers.peek() {
            if t2 > now {
                break;
            }
            timers.pop();
            meter.inc(SLOT_TIMER_POPS);
            if matches!(tasks[pid].status, Wait::Time(w) if w == t2) {
                tasks[pid].status = Wait::Ready;
                ready.push(pid);
            }
        }
        if ready.len() > 1 {
            ready.sort_unstable();
        }
        trace_wakes(&mut state, &tasks, &ready);
    }
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over `spec` with default limits.
    pub fn new(spec: &'a Spec) -> Self {
        Self {
            spec,
            config: SimConfig::default(),
        }
    }

    /// Creates a simulator with explicit limits.
    pub fn with_config(spec: &'a Spec, config: SimConfig) -> Self {
        Self { spec, config }
    }

    /// Runs the simulation to completion of the top behavior.
    ///
    /// # Errors
    ///
    /// * [`SimError::StepLimitExceeded`] on zero-time livelock,
    /// * [`SimError::Deadlock`] when all live processes block forever,
    /// * evaluation errors (out-of-bounds indices, unbound parameters),
    /// * [`SimError::StorageLimit`] before anything is allocated, when
    ///   the variables would hold more than
    ///   [`MAX_ELEMENTS`](crate::process::MAX_ELEMENTS) elements.
    pub fn run(&self) -> Result<SimResult, SimError> {
        let _span = modref_obs::span("sim.run").attr("kernel", self.config.kernel.name());
        let spec = self.spec;
        crate::process::check_storage(spec)?;
        match self.config.kernel {
            SimKernel::Compiled => {
                let program = crate::compile::compile(spec);
                let exec = crate::compile::exec::Bytecode::new(spec, &program);
                run_events(spec, &self.config, exec)
            }
            SimKernel::EventDriven => run_events(spec, &self.config, Interpreter::new(spec)),
            SimKernel::RoundRobin => self.run_round_robin(),
        }
    }

    /// The reference round-robin kernel (the original polling scheduler).
    fn run_round_robin(&self) -> Result<SimResult, SimError> {
        let spec = self.spec;
        let mut state = SharedState::init(spec);
        if self.config.trace {
            state.enable_trace();
        }
        state.activations[spec.top().index()] += 1;
        let mut processes: Vec<Process> = vec![Process::new(spec, spec.top())];
        let mut now: u64 = 0;
        let mut steps: u64 = 0;
        let mut meter = modref_obs::Meter::new(METER_NAMES);

        loop {
            meter.inc(SLOT_ROUNDS);
            // Phase 1: step every Ready process until it blocks/completes.
            let mut pid = 0;
            while pid < processes.len() {
                while matches!(processes[pid].status, Status::Ready) {
                    steps += 1;
                    if steps > self.config.max_steps {
                        return Err(SimError::StepLimitExceeded {
                            limit: self.config.max_steps,
                        });
                    }
                    let event = processes[pid].step(spec, &mut state, now)?;
                    match event {
                        StepEvent::Progress => {}
                        // `step` updated the status; fall out of the loop.
                        StepEvent::Blocked | StepEvent::Completed => {}
                        StepEvent::SpawnChildren(children) => {
                            let mut ids = Vec::with_capacity(children.len());
                            for &c in children {
                                ids.push(processes.len());
                                state.activations[c.index()] += 1;
                                processes.push(Process::new(spec, c));
                            }
                            processes[pid].spawned.extend(ids.iter().copied());
                            processes[pid].status = Status::WaitChildren(ids);
                        }
                    }
                }
                pid += 1;
            }

            // Phase 2: wake processes whose conditions came true. A
            // composite waiting on children completes when every
            // *non-server* child is done; its server children (memory
            // modules, arbiters, bus interfaces) are then terminated.
            let mut any_ready = false;
            let child_done: Vec<bool> = processes
                .iter()
                .map(|p| matches!(p.status, Status::Done))
                .collect();
            let child_server: Vec<bool> = processes.iter().map(|p| p.is_server).collect();
            let mut kill_list: Vec<usize> = Vec::new();
            for (pid, p) in processes.iter_mut().enumerate() {
                let wake = match &p.status {
                    Status::WaitUntil(cond) => {
                        meter.inc(SLOT_COND_EVALS);
                        let woke = truthy(p.eval(spec, &state, cond)?);
                        if woke {
                            meter.inc(SLOT_WAKEUPS);
                        }
                        woke
                    }
                    Status::WaitChildren(ids) => {
                        let done = ids.iter().all(|&i| child_done[i] || child_server[i]);
                        if done {
                            kill_list.extend(ids.iter().copied().filter(|&i| child_server[i]));
                        }
                        done
                    }
                    _ => false,
                };
                if wake {
                    // This pass runs in ascending pid order, so wake
                    // events land in the same order the event-driven
                    // kernels record after their post-notification sort.
                    p.status = Status::Ready;
                    let b = p.behavior.index();
                    state.trace_wake(pid, b);
                }
                if matches!(p.status, Status::Ready) {
                    any_ready = true;
                }
            }
            // Terminate servers (and anything they spawned) recursively.
            while let Some(i) = kill_list.pop() {
                if !matches!(processes[i].status, Status::Done) {
                    processes[i].status = Status::Done;
                    kill_list.extend(processes[i].spawned.iter().copied());
                }
            }

            // Termination: root process finished.
            if matches!(processes[0].status, Status::Done) {
                let trace = state.take_trace();
                return Ok(SimResult::collect(
                    spec, &state, now, steps, true, &meter, trace,
                ));
            }

            if any_ready {
                continue;
            }

            // Phase 3: advance time to the earliest sleeper.
            meter.inc(SLOT_TIMER_POPS);
            let next_wake = processes
                .iter()
                .filter_map(|p| match p.status {
                    Status::WaitTime(t) => Some(t),
                    _ => None,
                })
                .min();
            match next_wake {
                Some(t) => {
                    now = t.max(now);
                    state.trace_time(now);
                    for (pid, p) in processes.iter_mut().enumerate() {
                        if matches!(p.status, Status::WaitTime(w) if w <= now) {
                            p.status = Status::Ready;
                            let b = p.behavior.index();
                            state.trace_wake(pid, b);
                        }
                    }
                }
                None => {
                    let blocked: Vec<String> = processes
                        .iter()
                        .filter(|p| !matches!(p.status, Status::Done))
                        .map(|p| p.name.to_string())
                        .collect();
                    return Err(SimError::Deadlock { time: now, blocked });
                }
            }
        }
    }
}
