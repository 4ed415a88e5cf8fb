//! Liveness and deadlock lints (`DL01`–`DL05`).
//!
//! Refinement trades atomic communication for explicit handshakes,
//! buses and arbiters — exactly the transformations that introduce
//! never-enabled waits and circular blocking. These lints prove such
//! defects *statically*, before a simulation burns its step budget
//! discovering them. Two engines carry the analysis:
//!
//! * the interval abstract interpreter ([`crate::absint`]) supplies
//!   sound value ranges for every variable and signal, which prove wait
//!   conditions never-satisfiable (`DL01`), and statically-constant
//!   infinite loops (`DL03`);
//! * an inter-process wait-dependency analysis computes the *greatest*
//!   set of waits that can never be passed: a wait stays "dead" while
//!   every write that could satisfy its condition is itself dominated
//!   by dead waits (or cannot produce a satisfying value). Waits on
//!   signals nothing ever writes are `DL02`; waits whose writers sit
//!   behind other dead waits form the wait-dependency graph whose
//!   strongly connected components are the classic circular-wait
//!   deadlocks (`DL04`). A four-phase handshake whose requester never
//!   releases its request line starves the arbiter's re-arbitration
//!   wait and hangs the requester's own release wait (`DL05`).
//!
//! # Cost
//!
//! The verify gate runs this engine on every refined candidate, so each
//! phase is linear in the refined spec (plus the diagnostics it emits):
//!
//! * one [`Cfg`] per body; statement paths exist only when a
//!   [`SourceMap`] asks for positions;
//! * the dead-wait fixpoint is a worklist: reachability grows per body
//!   as waits come alive, and a dead wait is re-evaluated only when an
//!   entity its condition reads gains range;
//! * the wait-dependency graph routes each edge through the writing
//!   body instead of pairing every dead wait with every other;
//! * the must-reach walk summarizes each subroutine once;
//! * `DL05` checks its request-only and acknowledge-only criteria once
//!   per line, and pairs only the lines that pass both.
//!
//! # The soundness contract
//!
//! Every `DL` diagnostic implies the *specification* cannot complete:
//! simulation must end in a deadlock or run into its step limit, under
//! every kernel. The engine therefore only flags waits/loops that are
//! **must-executed**: reached on every run, in a behavior that is
//! activated on every run (*must-activation* follows concurrent
//! composites into all children and sequential composites only along
//! unconditional or provably-true transition arcs; *must-reach* walks a
//! body passing through constructs that either terminate or already
//! doom the run — a `wait` before the flagged site either passes or
//! blocks the spec forever, so it never excuses a later flag). Server
//! behaviors are never flagged: their infinite service loops block
//! nobody, because composites complete without them.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use modref_spec::behavior::{BehaviorKind, Transition, TransitionTarget};
use modref_spec::printer::expr_to_string;
use modref_spec::stmt::WaitCond;
use modref_spec::{
    BehaviorId, Expr, SignalId, SourceMap, Spec, Stmt, StmtOwner, StmtPath, SubroutineId,
};

use crate::absint::{self, Entity, Interval, Ranges};
use crate::cfg::{block_len, Cfg, NodeId, FIRST_STMT};
use crate::diag::{Diagnostic, Severity};

/// A request/acknowledge handshake pair the `DL05` check examines,
/// inferred from a server's body.
#[derive(Debug)]
struct HandshakePair {
    /// The request line the master drives.
    req: SignalId,
    /// The acknowledge line the server drives.
    ack: SignalId,
    /// The server (arbiter) behavior owning the grant protocol.
    server: BehaviorId,
}

/// One statement body under analysis (a leaf behavior's or a
/// subroutine's) and its CFG.
struct Body<'a> {
    owner: StmtOwner,
    name: String,
    stmts: &'a [Stmt],
    cfg: Cfg<'a>,
    /// Index of the body's entry node in the spec-wide node numbering:
    /// body nodes are numbered consecutively, body after body.
    base: usize,
    /// The body's waits, in node order.
    waits: Range<usize>,
}

/// One `wait until` node.
struct Wait<'a> {
    body: usize,
    node: NodeId,
    cond: &'a Expr,
    /// Dense indices of the entities the condition reads, sorted.
    reads: Vec<usize>,
}

/// Pushes the dense index of every entity `e` reads: its variables
/// (arrays included), then signals numbered after the `vars` variables.
fn push_reads(e: &Expr, vars: usize, out: &mut Vec<usize>) {
    match e {
        Expr::Lit(_) | Expr::Param(_) => {}
        Expr::Var(v) => out.push(v.index()),
        Expr::Signal(s) => out.push(vars + s.index()),
        Expr::Index(v, idx) => {
            out.push(v.index());
            push_reads(idx, vars, out);
        }
        Expr::Unary(_, x) => push_reads(x, vars, out),
        Expr::Binary(_, l, r) => {
            push_reads(l, vars, out);
            push_reads(r, vars, out);
        }
    }
}

/// Marks a spec-wide node that is not a wait.
const NO_WAIT: u32 = u32::MAX;

/// Everything the phases share: bodies, waits and write sites, indexed
/// by spec-wide node.
struct Facts<'a> {
    bodies: Vec<Body<'a>>,
    behavior_body: HashMap<BehaviorId, usize>,
    sub_body: HashMap<SubroutineId, usize>,
    waits: Vec<Wait<'a>>,
    /// Per spec-wide node: its wait index, or [`NO_WAIT`].
    wait_at: Vec<u32>,
    /// `writes[site_at[g]..site_at[g + 1]]` are the writes of node `g`:
    /// each target with its value (`None` for call out-args), in the
    /// order [`absint::ranges_of_writes`] expects.
    site_at: Vec<u32>,
    writes: Vec<(Entity, Option<&'a Expr>)>,
    /// Per write: its value's hull under the full global ranges (`TOP`
    /// for call out-args).
    hulls: Vec<Interval>,
    /// Per entity: the bodies that write it, each once, in body order.
    writers: Vec<Vec<usize>>,
    /// Per entity: the waits whose conditions read it.
    readers: Vec<Vec<usize>>,
    /// Number of variables: signals follow them in the dense entity
    /// numbering.
    vars: usize,
}

impl<'a> Facts<'a> {
    /// Lowers every body and indexes its waits and writes; the hulls
    /// stay empty until [`Facts::value_writes`].
    fn collect(spec: &'a Spec, map: Option<&SourceMap>) -> Self {
        let vars = spec.variables().count();
        let entities = vars + spec.signals().count();
        let mut facts = Facts {
            bodies: Vec::new(),
            behavior_body: HashMap::new(),
            sub_body: HashMap::new(),
            waits: Vec::new(),
            wait_at: Vec::new(),
            site_at: vec![0],
            writes: Vec::new(),
            hulls: Vec::new(),
            writers: vec![Vec::new(); entities],
            readers: vec![Vec::new(); entities],
            vars,
        };
        let behaviors = spec
            .behaviors()
            .filter_map(|(id, b)| Some((StmtOwner::Behavior(id), b.name(), b.body()?)));
        let subs = spec
            .subroutines()
            .map(|(id, sub)| (StmtOwner::Subroutine(id), sub.name(), sub.body()));
        for (owner, name, stmts) in behaviors.chain(subs) {
            let bi = facts.bodies.len();
            match owner {
                StmtOwner::Behavior(id) => facts.behavior_body.insert(id, bi),
                StmtOwner::Subroutine(id) => facts.sub_body.insert(id, bi),
            };
            let cfg = Cfg::build(owner, stmts, map);
            let first_wait = facts.waits.len();
            for (node, stmt) in cfg.stmts().iter().enumerate() {
                let mut wait = NO_WAIT;
                if let Some(stmt) = stmt {
                    let from = facts.writes.len();
                    absint::collect_writes(stmt, &mut facts.writes);
                    for i in from..facts.writes.len() {
                        let entity = facts.index(facts.writes[i].0);
                        if facts.writers[entity].last() != Some(&bi) {
                            facts.writers[entity].push(bi);
                        }
                    }
                    if let Stmt::Wait(WaitCond::Until(cond)) = stmt {
                        wait = facts.waits.len() as u32;
                        facts.add_wait(bi, node, cond);
                    }
                }
                facts.wait_at.push(wait);
                facts.site_at.push(facts.writes.len() as u32);
            }
            facts.bodies.push(Body {
                owner,
                name: name.to_string(),
                stmts,
                base: facts.wait_at.len() - cfg.node_count(),
                waits: first_wait..facts.waits.len(),
                cfg,
            });
        }
        facts
    }

    fn add_wait(&mut self, body: usize, node: NodeId, cond: &'a Expr) {
        let mut reads = Vec::new();
        push_reads(cond, self.vars, &mut reads);
        reads.sort_unstable();
        reads.dedup();
        for &e in &reads {
            self.readers[e].push(self.waits.len());
        }
        self.waits.push(Wait {
            body,
            node,
            cond,
            reads,
        });
    }

    /// The dense index of an entity: variables, then signals.
    fn index(&self, entity: Entity) -> usize {
        match entity {
            Entity::Var(v) => v.index(),
            Entity::Signal(s) => self.vars + s.index(),
        }
    }

    /// Values every write under the full global ranges.
    fn value_writes(&mut self, full: &Ranges) {
        self.hulls = self
            .writes
            .iter()
            .map(|&(_, value)| value.map_or(Interval::TOP, |e| absint::eval(e, full)))
            .collect();
    }

    /// The write indices of spec-wide node `g`.
    fn sites_at(&self, g: usize) -> Range<usize> {
        self.site_at[g] as usize..self.site_at[g + 1] as usize
    }

    /// Whether anything writes signal `s`.
    fn written(&self, s: SignalId) -> bool {
        !self.writers[self.vars + s.index()].is_empty()
    }

    /// The greatest set of waits that can never pass, as a flag per
    /// wait.
    ///
    /// Start from "every wait is dead": each body is reachable from its
    /// entry up to its first waits, and every entity ranges over its
    /// initial value joined with the writes reached so far. A dead wait
    /// whose condition could hold over those ranges comes alive, which
    /// extends its body's reachability past it and joins the writes
    /// found there. Only dead waits reading an entity whose range grew
    /// are evaluated again, and a wait is queued at most once while
    /// pending. Coming alive only ever grows the ranges, so the waits
    /// still dead at the end are the unique greatest fixpoint, whatever
    /// the evaluation order.
    fn dead_waits(&self, spec: &Spec) -> Vec<bool> {
        let n = self.waits.len();
        let mut fix = Fixpoint {
            facts: self,
            dead: vec![true; n],
            pending: vec![true; n],
            queue: (0..n).rev().collect(),
            reached: vec![false; self.wait_at.len()],
            ranges: absint::initial_ranges(spec),
            stack: Vec::new(),
        };
        for bi in 0..self.bodies.len() {
            fix.reach(bi, self.bodies[bi].cfg.entry);
            fix.extend();
        }
        while let Some(wi) = fix.queue.pop() {
            fix.pending[wi] = false;
            let wait = &self.waits[wi];
            if absint::eval(wait.cond, &fix.ranges).definitely_false() {
                continue;
            }
            fix.dead[wi] = false;
            if fix.reached[self.bodies[wait.body].base + wait.node] {
                fix.stack.push((wait.body, wait.node));
                fix.extend();
            }
        }
        fix.dead
    }
}

/// State of [`Facts::dead_waits`].
struct Fixpoint<'f, 'a> {
    facts: &'f Facts<'a>,
    dead: Vec<bool>,
    pending: Vec<bool>,
    queue: Vec<usize>,
    /// Per spec-wide node: reachable from its body's entry without
    /// passing a dead wait.
    reached: Vec<bool>,
    /// Initial values joined with the writes of reached nodes.
    ranges: Ranges,
    /// Reached nodes whose successors are still to be visited.
    stack: Vec<(usize, NodeId)>,
}

impl Fixpoint<'_, '_> {
    /// Marks a node reached and joins its writes, queueing the dead
    /// waits that read an entity whose range grew.
    fn reach(&mut self, bi: usize, node: NodeId) {
        let facts = self.facts;
        let g = facts.bodies[bi].base + node;
        self.reached[g] = true;
        for i in facts.sites_at(g) {
            let entity = facts.writes[i].0;
            if !self.ranges.join(entity, facts.hulls[i]) {
                continue;
            }
            for &wi in &facts.readers[facts.index(entity)] {
                if self.dead[wi] && !self.pending[wi] {
                    self.pending[wi] = true;
                    self.queue.push(wi);
                }
            }
        }
        self.stack.push((bi, node));
    }

    /// Visits everything reachable from the stacked nodes. A dead wait
    /// is entered but never passed.
    fn extend(&mut self) {
        let facts = self.facts;
        while let Some((bi, node)) = self.stack.pop() {
            let body = &facts.bodies[bi];
            let wi = facts.wait_at[body.base + node];
            if wi != NO_WAIT && self.dead[wi as usize] {
                continue;
            }
            for s in body.cfg.succs(node) {
                if !self.reached[body.base + s] {
                    self.reach(bi, s);
                }
            }
        }
    }
}

/// The circular waits among the dead ones (`DL04`).
///
/// An edge W -> W' of the wait-dependency graph says "a write that could
/// satisfy W sits in the body of dead wait W'". The graph is built with
/// one node per body in the middle (W -> body -> W'), which keeps it
/// linear in size and leaves the strongly connected components of the
/// waits unchanged.
struct Cycles {
    /// Per wait: its index in `names` when it is on a cycle of two or
    /// more dead waits.
    cycle_of: Vec<Option<usize>>,
    /// Per cycle: the participating bodies' names, sorted and joined.
    names: Vec<String>,
}

impl Cycles {
    fn find(facts: &Facts<'_>, dead: &[bool]) -> Self {
        let dead_list: Vec<usize> = (0..dead.len()).filter(|&wi| dead[wi]).collect();
        let nd = dead_list.len();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nd + facts.bodies.len()];
        for (i, &wi) in dead_list.iter().enumerate() {
            let wait = &facts.waits[wi];
            for &e in &wait.reads {
                edges[i].extend(facts.writers[e].iter().map(|&b| nd + b));
            }
            edges[nd + wait.body].push(i);
        }
        let mut cycles = Cycles {
            cycle_of: vec![None; dead.len()],
            names: Vec::new(),
        };
        for comp in tarjan_scc(&edges) {
            let waits: Vec<usize> = comp.into_iter().filter(|&i| i < nd).collect();
            if waits.len() < 2 {
                continue;
            }
            let mut names: Vec<&str> = waits
                .iter()
                .map(|&i| facts.bodies[facts.waits[dead_list[i]].body].name.as_str())
                .collect();
            names.sort_unstable();
            names.dedup();
            for &i in &waits {
                cycles.cycle_of[dead_list[i]] = Some(cycles.names.len());
            }
            cycles.names.push(names.join("`, `"));
        }
        cycles
    }
}

/// Runs the `DL01`–`DL05` liveness lints over a specification.
///
/// `map` supplies statement positions for parsed specs (pass `None`
/// for builder-built ones). The `DL05` check infers its request/ack
/// pairs from server bodies.
pub fn deadlock_lints(spec: &Spec, map: Option<&SourceMap>) -> Vec<Diagnostic> {
    let Some(_top) = spec.top_opt() else {
        return Vec::new();
    };
    let mut facts = Facts::collect(spec, map);
    let full = absint::ranges_of_writes(spec, &facts.writes);
    facts.value_writes(&full);
    let dead = facts.dead_waits(spec);
    let cycles = Cycles::find(&facts, &dead);

    // The DL02 environment: signals nothing writes stay at their initial
    // values, everything else is unconstrained. A condition only reads
    // its own signals, so this one environment answers every wait.
    let mut unwritten_env = Ranges {
        vars: vec![Interval::TOP; full.vars.len()],
        signals: vec![Interval::TOP; full.signals.len()],
    };
    for (id, sig) in spec.signals() {
        if !facts.written(id) {
            unwritten_env.signals[id.index()] = Interval::exact(sig.init());
        }
    }

    // DL05 candidates first: the walk records the event streams the
    // handshake scan reads only when some pair is left to scan.
    let pairs = handshake_candidates(spec, &facts, &full);

    // --- must-activation and the flagging walk -----------------------
    let active = must_active(spec, &full);
    let mut walk = Walk {
        spec,
        map,
        full: &full,
        unwritten_env: &unwritten_env,
        facts: &facts,
        dead: &dead,
        cycles: &cycles,
        record_events: !pairs.is_empty(),
        summaries: HashMap::new(),
        call_stack: Vec::new(),
        cut: false,
        events: Vec::new(),
        diags: Vec::new(),
    };
    let mut leaf_events: Vec<(BehaviorId, Vec<Ev<'_>>)> = Vec::new();
    for id in spec.reachable() {
        let b = spec.behavior(id);
        if !b.is_leaf() || b.is_server() || !active.contains(&id) {
            continue;
        }
        let Some(&bi) = facts.behavior_body.get(&id) else {
            continue;
        };
        let root = map.map(|_| StmtPath::root(facts.bodies[bi].owner));
        walk.block(bi, facts.bodies[bi].stmts, root.as_ref(), 0, FIRST_STMT);
        if walk.record_events {
            leaf_events.push((id, std::mem::take(&mut walk.events)));
        }
    }
    let mut diags = walk.diags;

    // --- DL05: acquired-but-never-released handshakes ----------------
    for pair in &pairs {
        diags.extend(check_handshake(spec, map, &full, pair, &leaf_events));
    }
    diags
}

/// Tarjan's strongly connected components, each sorted, in the order
/// they complete.
fn tarjan_scc(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();
    // Iterative Tarjan: (node, edge cursor).
    let mut work: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        work.push((start, 0));
        while let Some(&mut (v, ref mut ei)) = work.last_mut() {
            if *ei == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = edges[v].get(*ei) {
                *ei += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
                work.pop();
                if let Some(&mut (p, _)) = work.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    comps
}

/// Behaviors that are activated on every run: the top, all children of
/// must-activated concurrent composites, and the forced transition
/// chains of must-activated sequential composites.
fn must_active(spec: &Spec, ranges: &Ranges) -> HashSet<BehaviorId> {
    let mut out = HashSet::new();
    let Some(top) = spec.top_opt() else {
        return out;
    };
    let mut stack = vec![top];
    while let Some(id) = stack.pop() {
        if !out.insert(id) {
            continue;
        }
        let b = spec.behavior(id);
        match b.kind() {
            BehaviorKind::Leaf { .. } => {}
            BehaviorKind::Concurrent { children } => stack.extend(children.iter().copied()),
            BehaviorKind::Seq {
                children,
                transitions,
            } => {
                let Some(&first) = children.first() else {
                    continue;
                };
                let mut position: HashMap<BehaviorId, usize> = HashMap::new();
                for (i, &c) in children.iter().enumerate() {
                    position.entry(c).or_insert(i);
                }
                let mut arcs_from: HashMap<BehaviorId, Vec<&Transition>> = HashMap::new();
                for t in transitions {
                    arcs_from.entry(t.from).or_default().push(t);
                }
                let mut cur = first;
                let mut seen = HashSet::new();
                loop {
                    if !seen.insert(cur) {
                        break;
                    }
                    stack.push(cur);
                    // First-matching-arc semantics, statically: arcs in
                    // order, unconditional or provably-true fires,
                    // provably-false is skipped, unknown stops the
                    // forced chain.
                    let mut next = None;
                    let mut unknown = false;
                    for arc in arcs_from.get(&cur).into_iter().flatten() {
                        match &arc.cond {
                            None => {
                                next = Some(arc.to.clone());
                                break;
                            }
                            Some(e) => {
                                let iv = absint::eval(e, ranges);
                                if iv.definitely_true() {
                                    next = Some(arc.to.clone());
                                    break;
                                }
                                if !iv.definitely_false() {
                                    unknown = true;
                                    break;
                                }
                            }
                        }
                    }
                    if unknown {
                        break;
                    }
                    match next {
                        Some(TransitionTarget::Behavior(t)) => cur = t,
                        Some(TransitionTarget::Complete) => break,
                        // No arc fires: control falls through to the
                        // next child in declaration order.
                        None => {
                            let pos = position.get(&cur);
                            match pos.and_then(|&i| children.get(i + 1)) {
                                Some(&n) => cur = n,
                                None => break,
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Whether a block can consume simulation time: any wait or delay, or a
/// call (whose body might wait). A loop without any of these spins at
/// one simulation instant forever.
fn can_pass_time(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| {
        matches!(s, Stmt::Wait(_) | Stmt::Delay(_) | Stmt::Call { .. })
            || s.bodies().any(can_pass_time)
    })
}

/// An event on a must-executed path, for the `DL05` scan.
#[derive(Clone)]
enum Ev<'a> {
    /// `set sig := value` with the value's hull; the path only when
    /// positions were asked for.
    SigSet {
        sig: SignalId,
        hull: Interval,
        path: Option<StmtPath>,
    },
    /// `wait until (cond)`.
    Wait { cond: &'a Expr },
}

/// What walking a subroutine body once produces: its diagnostics, its
/// events, and whether control passes beyond it.
struct Summary<'a> {
    diags: Vec<Diagnostic>,
    events: Vec<Ev<'a>>,
    through: bool,
}

/// The must-reach walker: flags `DL01`–`DL04` inline and records the
/// event stream for the handshake check.
struct Walk<'a, 'b> {
    spec: &'a Spec,
    map: Option<&'b SourceMap>,
    full: &'b Ranges,
    /// [`Ranges`] with only the never-written signals pinned (`DL02`).
    unwritten_env: &'b Ranges,
    facts: &'b Facts<'a>,
    dead: &'b [bool],
    cycles: &'b Cycles,
    /// Whether `DL05` has pairs left to scan, so events are worth
    /// recording.
    record_events: bool,
    /// Subroutine walks, each done once: a subroutine's walk does not
    /// depend on its caller unless a recursive call was cut short.
    summaries: HashMap<SubroutineId, Summary<'a>>,
    call_stack: Vec<SubroutineId>,
    /// Set when a call was skipped because its subroutine is already on
    /// the call stack; such a walk depends on its caller.
    cut: bool,
    events: Vec<Ev<'a>>,
    diags: Vec<Diagnostic>,
}

impl<'a> Walk<'a, '_> {
    /// Walks one block whose first statement is CFG node `node`;
    /// returns the node after the block, or `None` when control provably
    /// never passes beyond it (an infinite loop was entered). `parent` is
    /// the enclosing path, present only when positions were asked for.
    fn block(
        &mut self,
        bi: usize,
        stmts: &'a [Stmt],
        parent: Option<&StmtPath>,
        blk: u8,
        mut node: NodeId,
    ) -> Option<NodeId> {
        for (i, s) in stmts.iter().enumerate() {
            let path = parent.map(|p| p.child(blk, i as u32));
            let path = path.as_ref();
            // A statement's nested blocks follow it in the numbering.
            let inner = node + 1;
            node = match s {
                Stmt::Wait(WaitCond::Until(cond)) => {
                    self.flag_wait(bi, node, path, cond);
                    if self.record_events {
                        self.events.push(Ev::Wait { cond });
                    }
                    inner
                }
                Stmt::SignalSet { signal, value } => {
                    if self.record_events {
                        self.events.push(Ev::SigSet {
                            sig: *signal,
                            hull: absint::eval(value, self.full),
                            path: path.cloned(),
                        });
                    }
                    inner
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let iv = absint::eval(cond, self.full);
                    if iv.definitely_true() {
                        self.block(bi, then_body, path, 0, inner)? + block_len(else_body)
                    } else if iv.definitely_false() {
                        self.block(bi, else_body, path, 1, inner + block_len(then_body))?
                    } else {
                        // Unknown guard: neither branch is must-executed,
                        // but control always rejoins after the `if`.
                        inner + block_len(then_body) + block_len(else_body)
                    }
                }
                Stmt::While { cond, body, .. } => {
                    let iv = absint::eval(cond, self.full);
                    if iv.definitely_true() {
                        // No write anywhere can falsify the guard: the
                        // loop never exits. Without a wait or delay it
                        // additionally never yields -> DL03.
                        if !can_pass_time(body) {
                            self.flag_dl03(bi, path, "while", cond);
                            return None;
                        }
                        self.block(bi, body, path, 0, inner);
                        return None;
                    }
                    // Possibly-zero guard: body is not must-executed,
                    // and the walk passes through (either the loop
                    // terminates or the run is already doomed).
                    inner + block_len(body)
                }
                Stmt::For { from, to, body, .. } => {
                    let f = absint::eval(from, self.full);
                    let t = absint::eval(to, self.full);
                    // `for` runs `from < to` iterations; the body is
                    // must-executed when that holds for every value.
                    if f.hi < t.lo {
                        self.block(bi, body, path, 0, inner)?
                    } else {
                        inner + block_len(body)
                    }
                }
                Stmt::Loop { body } => {
                    if !can_pass_time(body) {
                        self.flag_dl03(bi, path, "loop", &Expr::Lit(1));
                        return None;
                    }
                    // The first iteration is must-executed; nothing
                    // after an infinite loop ever runs.
                    self.block(bi, body, path, 0, inner);
                    return None;
                }
                Stmt::Call { sub, .. } => {
                    if !self.call(*sub) {
                        return None;
                    }
                    inner
                }
                Stmt::Assign { .. }
                | Stmt::Wait(WaitCond::For(_))
                | Stmt::Delay(_)
                | Stmt::Skip => inner,
            };
        }
        Some(node)
    }

    /// Walks a called subroutine, or replays its summary; returns
    /// whether control passes beyond the call.
    fn call(&mut self, sub: SubroutineId) -> bool {
        if self.call_stack.contains(&sub) {
            self.cut = true;
            return true;
        }
        let facts = self.facts;
        let Some(&sbi) = facts.sub_body.get(&sub) else {
            return true;
        };
        if let Some(summary) = self.summaries.get(&sub) {
            self.diags.extend(summary.diags.iter().cloned());
            self.events.extend(summary.events.iter().cloned());
            return summary.through;
        }
        let (diags_from, events_from) = (self.diags.len(), self.events.len());
        let outer_cut = std::mem::take(&mut self.cut);
        self.call_stack.push(sub);
        let body = &facts.bodies[sbi];
        let root = self.map.map(|_| StmtPath::root(body.owner));
        let through = self
            .block(sbi, body.stmts, root.as_ref(), 0, FIRST_STMT)
            .is_some();
        self.call_stack.pop();
        if !self.cut {
            let summary = Summary {
                diags: self.diags[diags_from..].to_vec(),
                events: self.events[events_from..].to_vec(),
                through,
            };
            self.summaries.insert(sub, summary);
        }
        self.cut |= outer_cut;
        through
    }

    fn span_of(&self, path: Option<&StmtPath>) -> Option<modref_spec::Span> {
        self.map.zip(path).and_then(|(m, p)| m.stmt_span(p))
    }

    fn flag_dl03(&mut self, bi: usize, path: Option<&StmtPath>, kind: &str, cond: &Expr) {
        let body = &self.facts.bodies[bi];
        let detail = if kind == "while" {
            format!(
                " (`{}` is always true and nothing ever falsifies it)",
                expr_to_string(self.spec, cond)
            )
        } else {
            String::new()
        };
        self.diags.push(
            Diagnostic::new(
                "DL03",
                Severity::Error,
                format!(
                    "infinite `{kind}` in `{}` contains no wait or delay: it spins forever \
                     at one simulation instant{detail}",
                    body.name
                ),
            )
            .with_span(self.span_of(path))
            .with_object(body.name.clone())
            .with_fix("add a `wait` or `delay` inside the loop, or bound it".to_string()),
        );
    }

    fn flag_wait(&mut self, bi: usize, node: NodeId, path: Option<&StmtPath>, cond: &'a Expr) {
        let body = &self.facts.bodies[bi];
        let span = self.span_of(path);
        let cond_text = || expr_to_string(self.spec, cond);
        // DL02: the condition needs a signal that no process ever
        // writes — the forgotten half of a handshake. The check is
        // precise: freeze only the unwritten signals at their initial
        // values, leave everything written unconstrained, and show the
        // condition still cannot hold. DL02 is checked before DL01
        // because it names the actual culprit.
        let first_unwritten = cond
            .signal_reads()
            .into_iter()
            .find(|&s| !self.facts.written(s));
        if let Some(unwritten) = first_unwritten {
            if absint::eval(cond, self.unwritten_env).definitely_false() {
                let name = self.spec.signal(unwritten).name().to_string();
                let cond_text = cond_text();
                self.diags.push(
                    Diagnostic::new(
                        "DL02",
                        Severity::Error,
                        format!(
                            "wait in `{}` blocks forever: no process ever writes signal \
                             `{name}` (condition `{cond_text}`)",
                            body.name
                        ),
                    )
                    .with_span(span)
                    .with_object(name.clone())
                    .with_fix(format!("drive `{name}` from a concurrent process")),
                );
                return;
            }
        }
        // DL01: the condition is value-impossible — no reachable write
        // anywhere can produce a satisfying valuation.
        if absint::eval(cond, self.full).definitely_false() {
            let cond_text = cond_text();
            self.diags.push(
                Diagnostic::new(
                    "DL01",
                    Severity::Error,
                    format!(
                        "wait in `{}` can never be enabled: `{cond_text}` is false for every \
                         value any write can produce",
                        body.name
                    ),
                )
                .with_span(span)
                .with_object(body.name.clone())
                .with_fix("fix the condition or add a write that can satisfy it".to_string()),
            );
            return;
        }
        let wi = self.facts.wait_at[body.base + node] as usize;
        debug_assert!(std::ptr::eq(self.facts.waits[wi].cond, cond));
        if !self.dead[wi] {
            return;
        }
        // DL04: writers exist, but every one is trapped behind a wait
        // that is itself dead — report the cycle when there is one.
        let cond_text = cond_text();
        let message = match self.cycles.cycle_of[wi] {
            Some(c) => format!(
                "circular wait deadlock: `{}` waits on `{cond_text}`, but every write that \
                 could satisfy it is blocked behind the waits of `{}`",
                body.name, self.cycles.names[c]
            ),
            None => format!(
                "wait in `{}` blocks forever: every write that could satisfy `{cond_text}` \
                 sits behind a wait that itself never passes",
                body.name
            ),
        };
        self.diags.push(
            Diagnostic::new("DL04", Severity::Error, message)
                .with_span(span)
                .with_object(body.name.clone())
                .with_fix(
                    "break the cycle: reorder the handshake so one side signals first".to_string(),
                ),
        );
    }
}

/// Infers the `DL05` handshake pairs from server bodies and keeps those
/// that pass every criterion [`check_handshake`] does not scan for, in
/// `(req, ack, server)` order.
///
/// A candidate pairs a signal the server's waits read (`req`) with a
/// signal the server drives (`ack`). The criteria are checked per line
/// before pairing: (1) once per request line, (4) once per acknowledge
/// line, and (5) once per request line for all acknowledge lines at
/// once. On a design that releases its requests no request line passes
/// (1), so nothing is paired.
fn handshake_candidates(spec: &Spec, facts: &Facts<'_>, full: &Ranges) -> Vec<HandshakePair> {
    // (1) per request line: the hull of everything ever written to it.
    let mut post: Vec<Option<Interval>> = vec![None; full.signals.len()];
    for (&(entity, _), &hull) in facts.writes.iter().zip(&facts.hulls) {
        if let Entity::Signal(s) = entity {
            let p = &mut post[s.index()];
            *p = Some(p.map_or(hull, |p| p.join(hull)));
        }
    }
    let mut out = Vec::new();
    for id in spec.reachable() {
        let b = spec.behavior(id);
        if !b.is_server() || !b.is_leaf() {
            continue;
        }
        let Some(&bi) = facts.behavior_body.get(&id) else {
            continue;
        };
        let body = &facts.bodies[bi];
        let server_waits = &facts.waits[body.waits.clone()];
        let mut reqs: Vec<SignalId> = server_waits
            .iter()
            .flat_map(|w| &w.reads)
            .filter_map(|&e| e.checked_sub(facts.vars))
            .map(|s| SignalId::from_raw(s as u32))
            .collect();
        reqs.sort_unstable();
        reqs.dedup();
        // (1) the request line, once raised, stays raised.
        let reqs: Vec<(SignalId, Interval)> = reqs
            .into_iter()
            .filter_map(|r| Some((r, post[r.index()].filter(|p| !p.contains(0))?)))
            .collect();
        if reqs.is_empty() {
            continue;
        }
        // (4) only this server drives the acknowledge line.
        let mut acks: Vec<SignalId> = body
            .cfg
            .stmts()
            .iter()
            .filter_map(|s| match s {
                Some(Stmt::SignalSet { signal, .. }) => Some(*signal),
                _ => None,
            })
            .collect();
        acks.sort_unstable();
        acks.dedup();
        acks.retain(|&a| facts.writers[facts.index(Entity::Signal(a))] == [bi]);
        for &(req, post) in &reqs {
            let Some(lowered) = escaping_lowerings(facts, bi, server_waits, full, req, post) else {
                continue;
            };
            for &ack in &acks {
                if ack != req && !lowered.contains(&facts.index(Entity::Signal(ack))) {
                    out.push(HandshakePair {
                        req,
                        ack,
                        server: id,
                    });
                }
            }
        }
    }
    out.sort_by_key(|p| (p.req, p.ack, p.server));
    out
}

/// Criterion (5) for one request line of server body `bi`: the entities
/// the server may write a zero to without first passing a wait that is
/// false while `req` is held at `post` (a re-arbitration guard). `None`
/// when the server has no such guard at all.
fn escaping_lowerings(
    facts: &Facts<'_>,
    bi: usize,
    server_waits: &[Wait<'_>],
    full: &Ranges,
    req: SignalId,
    post: Interval,
) -> Option<HashSet<usize>> {
    let guards: HashSet<NodeId> = server_waits
        .iter()
        .filter(|w| absint::eval_with(w.cond, full, &[(req, post)]).definitely_false())
        .map(|w| w.node)
        .collect();
    if guards.is_empty() {
        return None;
    }
    let body = &facts.bodies[bi];
    let cfg = &body.cfg;
    let mut seen = vec![false; cfg.node_count()];
    let mut stack = vec![cfg.entry];
    seen[cfg.entry] = true;
    let mut lowered = HashSet::new();
    while let Some(n) = stack.pop() {
        lowered.extend(
            facts
                .sites_at(body.base + n)
                .filter(|&i| facts.hulls[i].contains(0))
                .map(|i| facts.index(facts.writes[i].0)),
        );
        if guards.contains(&n) {
            continue;
        }
        for s in cfg.succs(n) {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    Some(lowered)
}

/// The `DL05` criteria for one handshake pair. All five must hold:
///
/// 1. joined over every write, the request line can never go back to
///    zero (the release was dropped);
/// 2. some must-executed path raises the request and then waits for a
///    grant (a wait that is false while `ack` is low);
/// 3. the same path later waits for the release (a wait that is false
///    while `ack` is high);
/// 4. only the server drives `ack`;
/// 5. every write that could lower `ack` is dominated by a server wait
///    that is false while the request is held high.
///
/// [`handshake_candidates`] has checked (1), (4) and (5); this scans the
/// must-executed event streams for (2) and (3).
///
/// Under these, whichever way arbitration goes the spec hangs: never
/// granted leaves the requester at its grant wait; granted leaves the
/// server stuck re-arbitrating on a request that stays high, so the
/// acknowledge never drops and the requester's release wait blocks.
fn check_handshake(
    spec: &Spec,
    map: Option<&SourceMap>,
    full: &Ranges,
    pair: &HandshakePair,
    leaf_events: &[(BehaviorId, Vec<Ev<'_>>)],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let low = [(pair.ack, Interval::exact(0))];
    let high = [(pair.ack, Interval::exact(1))];
    for (leaf, events) in leaf_events {
        let mut raise: Option<&Option<StmtPath>> = None;
        let mut granted = false;
        for ev in events {
            match ev {
                Ev::SigSet { sig, hull, path }
                    if *sig == pair.req && !hull.contains(0) && raise.is_none() =>
                {
                    raise = Some(path);
                }
                Ev::Wait { cond } if raise.is_some() => {
                    if !granted {
                        granted = absint::eval_with(cond, full, &low).definitely_false();
                    } else if absint::eval_with(cond, full, &high).definitely_false() {
                        // Full acquire/grant/release shape found.
                        let leaf_name = spec.behavior(*leaf).name().to_string();
                        let span = raise
                            .and_then(Option::as_ref)
                            .and_then(|p| map.and_then(|m| m.stmt_span(p)));
                        out.push(
                            Diagnostic::new(
                                "DL05",
                                Severity::Error,
                                format!(
                                    "`{leaf_name}` raises request `{}` and waits on `{}` for \
                                     grant and release, but nothing ever drives `{}` low \
                                     again — the arbiter `{}` can never re-arbitrate and the \
                                     release wait blocks forever",
                                    spec.signal(pair.req).name(),
                                    spec.signal(pair.ack).name(),
                                    spec.signal(pair.req).name(),
                                    spec.behavior(pair.server).name(),
                                ),
                            )
                            .with_span(span)
                            .with_object(leaf_name)
                            .with_fix(format!(
                                "release the bus: drive `{}` low after the transaction",
                                spec.signal(pair.req).name()
                            )),
                        );
                        raise = None;
                        granted = false;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::parser::parse_with_spans;

    fn lints(src: &str) -> Vec<Diagnostic> {
        let (spec, map) = parse_with_spans(src).expect("syntax ok");
        let mut diags = deadlock_lints(&spec, Some(&map));
        crate::diag::sort_canonical(&mut diags);
        diags
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_ping_pong_handshake_is_silent() {
        let diags = lints(
            "spec s;\nsignal a : bit = 0;\nsignal b : bit = 0;\n\
             behavior P1 leaf { set a := 1; wait until (b == 1); }\n\
             behavior P2 leaf { wait until (a == 1); set b := 1; }\n\
             behavior T conc { children { P1; P2; } }\ntop T;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dl01_value_impossible_wait() {
        let diags = lints(
            "spec s;\nsignal d : int<8> = 0;\n\
             behavior P1 leaf { set d := 1; }\n\
             behavior P2 leaf { wait until (d == 2); }\n\
             behavior T conc { children { P1; P2; } }\ntop T;\n",
        );
        assert_eq!(codes(&diags), ["DL01"], "{diags:?}");
        assert!(diags[0].message.contains("d == 2"), "{diags:?}");
        assert!(diags[0].span.is_some());
    }

    #[test]
    fn dl02_wait_on_unwritten_signal() {
        let diags = lints(
            "spec s;\nsignal rdy : bit = 0;\n\
             behavior P leaf { wait until (rdy == 1); }\ntop P;\n",
        );
        assert_eq!(codes(&diags), ["DL02"], "{diags:?}");
        assert_eq!(diags[0].object.as_deref(), Some("rdy"));
    }

    #[test]
    fn dl03_busy_loop_and_constant_while() {
        let diags = lints(
            "spec s;\nvar x : int<16> = 0;\n\
             behavior P leaf { loop { x := x + 1; } }\ntop P;\n",
        );
        assert_eq!(codes(&diags), ["DL03"], "{diags:?}");
        let diags = lints(
            "spec s;\nvar x : int<16> = 0;\n\
             behavior P leaf { while (0 == 0) { x := x + 1; } }\ntop P;\n",
        );
        assert_eq!(codes(&diags), ["DL03"], "{diags:?}");
        // A loop that lets time pass is a server pattern, not a defect.
        let diags = lints(
            "spec s;\nvar x : int<16> = 0;\n\
             behavior P leaf { loop { delay 1; x := x + 1; } }\ntop P;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dl04_crossed_waits_name_both_parties() {
        let diags = lints(
            "spec s;\nsignal sa : bit = 0;\nsignal sb : bit = 0;\n\
             behavior P1 leaf { wait until (sb == 1); set sa := 1; }\n\
             behavior P2 leaf { wait until (sa == 1); set sb := 1; }\n\
             behavior T conc { children { P1; P2; } }\ntop T;\n",
        );
        assert_eq!(codes(&diags), ["DL04", "DL04"], "{diags:?}");
        for d in &diags {
            assert!(d.message.contains("circular wait"), "{d:?}");
            assert!(
                d.message.contains("P1") && d.message.contains("P2"),
                "{d:?}"
            );
        }
    }

    const FOUR_PHASE_NO_RELEASE: &str = "spec s;\n\
        signal req : bit = 0;\nsignal ack : bit = 0;\nvar data : int<16> = 0;\n\
        behavior M leaf { set req := 1; wait until (ack == 1); data := 5; \
        wait until (ack == 0); }\n\
        behavior A leaf server { loop { wait until (req == 1); set ack := 1; \
        wait until (req == 0); set ack := 0; } }\n\
        behavior T conc { children { M; A; } }\ntop T;\n";

    #[test]
    fn dl05_missing_release_is_flagged_and_inferred() {
        let diags = lints(FOUR_PHASE_NO_RELEASE);
        assert_eq!(codes(&diags), ["DL05"], "{diags:?}");
        assert!(diags[0].message.contains("req"), "{diags:?}");
        assert_eq!(diags[0].object.as_deref(), Some("M"));
    }

    #[test]
    fn dl05_silent_when_release_present() {
        let diags = lints(
            "spec s;\n\
             signal req : bit = 0;\nsignal ack : bit = 0;\nvar data : int<16> = 0;\n\
             behavior M leaf { set req := 1; wait until (ack == 1); data := 5; \
             set req := 0; wait until (ack == 0); }\n\
             behavior A leaf server { loop { wait until (req == 1); set ack := 1; \
             wait until (req == 0); set ack := 0; } }\n\
             behavior T conc { children { M; A; } }\ntop T;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn servers_are_never_flagged() {
        let diags = lints(
            "spec s;\nsignal go : bit = 0;\n\
             behavior A leaf server { wait until (go == 1); }\n\
             behavior M leaf { skip; }\n\
             behavior T conc { children { M; A; } }\ntop T;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn seq_transition_guards_gate_must_activation() {
        // Unconditionally-true guard: L2 runs on every execution, so its
        // dead wait is flagged.
        let diags = lints(
            "spec s;\nsignal u : bit = 0;\nsignal go : bit = 0;\n\
             behavior L1 leaf { skip; }\n\
             behavior L2 leaf { wait until (go == 1); }\n\
             behavior T seq { children { L1; L2; } \
             transitions { L1 -> L2 when (u == 0); } }\ntop T;\n",
        );
        assert_eq!(codes(&diags), ["DL02"], "{diags:?}");
        // Statically-unknown guard: L2 is not must-activated, so the
        // same wait stays unflagged (soundness before completeness).
        let diags = lints(
            "spec s;\nvar c : int<8> = 0;\nsignal go : bit = 0;\n\
             behavior L1 leaf { c := 1; }\n\
             behavior L2 leaf { wait until (go == 1); }\n\
             behavior T seq { children { L1; L2; } \
             transitions { L1 -> L2 when (c == 1); } }\ntop T;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn wait_after_possibly_terminating_while_is_still_flagged() {
        // The walk passes through an unknown-guard `while`: either the
        // loop exits and the dead wait is reached, or the loop never
        // exits and the behavior diverges — both verdicts are
        // non-completions, so flagging stays sound.
        let diags = lints(
            "spec s;\nvar c : int<8> = 0;\nsignal go : bit = 0;\n\
             behavior P leaf { while (c == 0) { c := 1; } \
             wait until (go == 1); }\ntop P;\n",
        );
        assert_eq!(codes(&diags), ["DL02"], "{diags:?}");
    }

    #[test]
    fn waits_inside_called_subroutines_are_flagged() {
        let diags = lints(
            "spec s;\nsignal go : bit = 0;\n\
             subroutine helper() { wait until (go == 1); }\n\
             behavior P leaf { call helper(); }\ntop P;\n",
        );
        assert_eq!(codes(&diags), ["DL02"], "{diags:?}");
    }
}
