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
use std::ptr;

use modref_spec::behavior::{BehaviorKind, TransitionTarget};
use modref_spec::printer::expr_to_string;
use modref_spec::stmt::WaitCond;
use modref_spec::{
    BehaviorId, Expr, SignalId, SourceMap, Spec, Stmt, StmtOwner, StmtPath, SubroutineId,
};

use crate::absint::{self, Entity, Interval, Ranges};
use crate::cfg::{Cfg, NodeId};
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
/// subroutine's), with its CFG and the indices into it the fixpoint
/// needs.
struct Body<'a> {
    owner: StmtOwner,
    name: String,
    stmts: &'a [Stmt],
    cfg: Cfg<'a>,
    /// Wait-until nodes: `(node, condition)`.
    waits: Vec<(NodeId, &'a Expr)>,
}

/// One write site: a node of one body writing one entity, with the
/// value's hull under the full global ranges (`TOP` for call out-args).
#[derive(Debug, Clone, Copy)]
struct Site {
    body: usize,
    node: NodeId,
    entity: Entity,
    hull: Interval,
}

/// Key of a wait in the dead-wait fixpoint.
type WaitKey = (usize, NodeId);

/// Runs the `DL01`–`DL05` liveness lints over a specification.
///
/// `map` supplies statement positions for parsed specs (pass `None`
/// for builder-built ones). The `DL05` check infers its request/ack
/// pairs from server bodies.
pub fn deadlock_lints(spec: &Spec, map: Option<&SourceMap>) -> Vec<Diagnostic> {
    let Some(_top) = spec.top_opt() else {
        return Vec::new();
    };
    let full = absint::global_ranges(spec);

    // --- collect bodies, CFGs, waits and write sites -----------------
    let mut bodies: Vec<Body<'_>> = Vec::new();
    let mut behavior_body: HashMap<BehaviorId, usize> = HashMap::new();
    let mut sub_body: HashMap<SubroutineId, usize> = HashMap::new();
    for (id, b) in spec.behaviors() {
        if let Some(stmts) = b.body() {
            behavior_body.insert(id, bodies.len());
            bodies.push(make_body(
                StmtOwner::Behavior(id),
                b.name().to_string(),
                stmts,
                map,
            ));
        }
    }
    for (id, sub) in spec.subroutines() {
        sub_body.insert(id, bodies.len());
        bodies.push(make_body(
            StmtOwner::Subroutine(id),
            sub.name().to_string(),
            sub.body(),
            map,
        ));
    }

    let mut sites: Vec<Site> = Vec::new();
    let mut writes = Vec::new();
    for (bi, body) in bodies.iter().enumerate() {
        for (node, cn) in body.cfg.nodes.iter().enumerate() {
            let Some(stmt) = cn.stmt else { continue };
            writes.clear();
            absint::collect_writes(stmt, &mut writes);
            for &(entity, value) in &writes {
                let hull = value.map_or(Interval::TOP, |e| absint::eval(e, &full));
                sites.push(Site {
                    body: bi,
                    node,
                    entity,
                    hull,
                });
            }
        }
    }
    let mut writes_to: HashMap<Entity, Vec<usize>> = HashMap::new();
    for (i, s) in sites.iter().enumerate() {
        writes_to.entry(s.entity).or_default().push(i);
    }

    // --- greatest dead-wait fixpoint ---------------------------------
    // Start from "every wait is dead" and remove any wait whose
    // condition could be satisfied by initial values or by a write not
    // itself trapped behind dead waits. What survives provably never
    // passes. Removal is monotone, so the result is the unique greatest
    // fixpoint regardless of iteration order.
    let mut dead: HashSet<WaitKey> = bodies
        .iter()
        .enumerate()
        .flat_map(|(bi, b)| b.waits.iter().map(move |&(n, _)| (bi, n)))
        .collect();
    loop {
        let live_site = live_sites(&bodies, &sites, &dead);
        let live_writes = sites
            .iter()
            .zip(&live_site)
            .filter(|&(_, &live)| live)
            .map(|(s, _)| (s.entity, s.hull));
        let restricted = absint::ranges_from_writes(spec, live_writes);
        let mut removed = false;
        for (bi, body) in bodies.iter().enumerate() {
            for &(node, cond) in &body.waits {
                if dead.contains(&(bi, node)) && !absint::eval(cond, &restricted).definitely_false()
                {
                    dead.remove(&(bi, node));
                    removed = true;
                }
            }
        }
        if !removed {
            break;
        }
    }

    // Wait-dependency graph over the dead waits: an edge W -> W' says
    // "a write that could satisfy W is trapped behind dead wait W'".
    // Its strongly connected components name circular-wait cycles.
    let dead_list: Vec<WaitKey> = {
        let mut v: Vec<WaitKey> = dead.iter().copied().collect();
        v.sort_unstable();
        v
    };
    let dead_index: HashMap<WaitKey, usize> =
        dead_list.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); dead_list.len()];
    for (wi, &(bi, node)) in dead_list.iter().enumerate() {
        let cond = bodies[bi]
            .waits
            .iter()
            .find(|&&(n, _)| n == node)
            .map(|&(_, c)| c)
            .expect("dead wait is a wait");
        for entity in cond_entities(cond) {
            for &si in writes_to.get(&entity).into_iter().flatten() {
                for &(wb, wn) in &dead_list {
                    if wb == sites[si].body {
                        if let Some(&ti) = dead_index.get(&(wb, wn)) {
                            edges[wi].push(ti);
                        }
                    }
                }
            }
        }
    }
    let scc = tarjan_scc(&edges);

    // The DL02 environment: signals nothing writes stay at their initial
    // values, everything else is unconstrained. A condition only reads
    // its own signals, so this one environment answers every wait.
    let mut unwritten_env = Ranges {
        vars: vec![Interval::TOP; full.vars.len()],
        signals: vec![Interval::TOP; full.signals.len()],
    };
    for (id, sig) in spec.signals() {
        if !writes_to.contains_key(&Entity::Signal(id)) {
            unwritten_env.signals[id.index()] = Interval::exact(sig.init());
        }
    }

    // --- must-activation and the flagging walk -----------------------
    let active = must_active(spec, &full);
    let mut diags = Vec::new();
    let mut leaf_events: Vec<(BehaviorId, Vec<Ev<'_>>)> = Vec::new();
    for id in spec.reachable() {
        let b = spec.behavior(id);
        if !b.is_leaf() || b.is_server() || !active.contains(&id) {
            continue;
        }
        let Some(&bi) = behavior_body.get(&id) else {
            continue;
        };
        let mut walk = Walk {
            spec,
            map,
            full: &full,
            unwritten_env: &unwritten_env,
            bodies: &bodies,
            sub_body: &sub_body,
            dead: &dead,
            dead_index: &dead_index,
            dead_list: &dead_list,
            scc: &scc,
            writes_to: &writes_to,
            call_stack: Vec::new(),
            events: Vec::new(),
            diags: Vec::new(),
        };
        walk.block(bi, bodies[bi].stmts, &StmtPath::root(bodies[bi].owner), 0);
        diags.extend(walk.diags);
        leaf_events.push((id, walk.events));
    }

    // --- DL05: acquired-but-never-released handshakes ----------------
    let mut pairs = infer_handshakes(spec, &bodies, &behavior_body);
    pairs.sort_by_key(|p| (p.req, p.ack, p.server));
    for pair in &pairs {
        diags.extend(check_handshake(
            spec,
            map,
            &full,
            &bodies,
            &behavior_body,
            &sites,
            &writes_to,
            pair,
            &leaf_events,
        ));
    }

    diags
}

/// Builds one [`Body`]: CFG plus its wait-until nodes.
fn make_body<'a>(
    owner: StmtOwner,
    name: String,
    stmts: &'a [Stmt],
    map: Option<&SourceMap>,
) -> Body<'a> {
    let cfg = Cfg::build(owner, stmts, map);
    let waits = cfg
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(node, cn)| match cn.stmt {
            Some(Stmt::Wait(WaitCond::Until(cond))) => Some((node, cond)),
            _ => None,
        })
        .collect();
    Body {
        owner,
        name,
        stmts,
        cfg,
        waits,
    }
}

/// Entities a wait condition reads (variables and signals).
fn cond_entities(cond: &Expr) -> Vec<Entity> {
    let mut out: Vec<Entity> = cond.reads().into_iter().map(Entity::Var).collect();
    out.extend(cond.signal_reads().into_iter().map(Entity::Signal));
    out.sort_unstable_by_key(|e| match e {
        Entity::Var(v) => (0u8, v.index()),
        Entity::Signal(s) => (1u8, s.index()),
    });
    out.dedup();
    out
}

/// For every write site, whether it is still reachable from its body's
/// entry without passing through a dead wait (i.e. not dominated by the
/// dead set).
fn live_sites(bodies: &[Body<'_>], sites: &[Site], dead: &HashSet<WaitKey>) -> Vec<bool> {
    let mut reach: Vec<Vec<bool>> = Vec::with_capacity(bodies.len());
    for (bi, body) in bodies.iter().enumerate() {
        let cfg = &body.cfg;
        let mut seen = vec![false; cfg.nodes.len()];
        let mut stack = vec![cfg.entry];
        seen[cfg.entry] = true;
        while let Some(n) = stack.pop() {
            // A dead wait is entered but never passed: its successors
            // stay unreachable through it.
            if dead.contains(&(bi, n)) {
                continue;
            }
            for &s in &cfg.nodes[n].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        reach.push(seen);
    }
    sites.iter().map(|s| reach[s.body][s.node]).collect()
}

/// Tarjan's strongly connected components; returns the component index
/// of each node, with a component counted "cyclic" when it has more
/// than one node or a self-edge.
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
                    for arc in transitions.iter().filter(|t| t.from == cur) {
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
                            let pos = children.iter().position(|&c| c == cur);
                            match pos.and_then(|i| children.get(i + 1)) {
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
            || s.bodies().iter().any(|b| can_pass_time(b))
    })
}

/// An event on a must-executed path, for the `DL05` scan.
enum Ev<'a> {
    /// `set sig := value` with the value's hull.
    SigSet {
        sig: SignalId,
        hull: Interval,
        path: StmtPath,
    },
    /// `wait until (cond)`.
    Wait { cond: &'a Expr },
}

/// The must-reach walker: flags `DL01`–`DL04` inline and records the
/// event stream for the handshake check.
struct Walk<'a, 'b> {
    spec: &'a Spec,
    map: Option<&'b SourceMap>,
    full: &'b Ranges,
    /// [`Ranges`] with only the never-written signals pinned (`DL02`).
    unwritten_env: &'b Ranges,
    bodies: &'b [Body<'a>],
    sub_body: &'b HashMap<SubroutineId, usize>,
    dead: &'b HashSet<WaitKey>,
    dead_index: &'b HashMap<WaitKey, usize>,
    dead_list: &'b [WaitKey],
    scc: &'b [Vec<usize>],
    writes_to: &'b HashMap<Entity, Vec<usize>>,
    call_stack: Vec<SubroutineId>,
    events: Vec<Ev<'a>>,
    diags: Vec<Diagnostic>,
}

impl<'a> Walk<'a, '_> {
    /// Walks one block; returns `false` when control provably never
    /// passes beyond it (an infinite loop was entered).
    fn block(&mut self, bi: usize, stmts: &'a [Stmt], parent: &StmtPath, blk: u8) -> bool {
        for (i, s) in stmts.iter().enumerate() {
            let path = parent.child(blk, i as u32);
            match s {
                Stmt::Wait(WaitCond::Until(cond)) => {
                    self.flag_wait(bi, &path, cond);
                    self.events.push(Ev::Wait { cond });
                }
                Stmt::SignalSet { signal, value } => {
                    self.events.push(Ev::SigSet {
                        sig: *signal,
                        hull: absint::eval(value, self.full),
                        path: path.clone(),
                    });
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let iv = absint::eval(cond, self.full);
                    if iv.definitely_true() {
                        if !self.block(bi, then_body, &path, 0) {
                            return false;
                        }
                    } else if iv.definitely_false() && !self.block(bi, else_body, &path, 1) {
                        return false;
                    }
                    // Unknown guard: neither branch is must-executed,
                    // but control always rejoins after the `if`.
                }
                Stmt::While { cond, body, .. } => {
                    let iv = absint::eval(cond, self.full);
                    if iv.definitely_true() {
                        // No write anywhere can falsify the guard: the
                        // loop never exits. Without a wait or delay it
                        // additionally never yields -> DL03.
                        if !can_pass_time(body) {
                            self.flag_dl03(bi, &path, "while", cond);
                            return false;
                        }
                        self.block(bi, body, &path, 0);
                        return false;
                    }
                    // Possibly-zero guard: body is not must-executed,
                    // and the walk passes through (either the loop
                    // terminates or the run is already doomed).
                }
                Stmt::For { from, to, body, .. } => {
                    let f = absint::eval(from, self.full);
                    let t = absint::eval(to, self.full);
                    // `for` runs `from < to` iterations; the body is
                    // must-executed when that holds for every value.
                    if f.hi < t.lo && !self.block(bi, body, &path, 0) {
                        return false;
                    }
                }
                Stmt::Loop { body } => {
                    if !can_pass_time(body) {
                        self.flag_dl03(bi, &path, "loop", &Expr::Lit(1));
                        return false;
                    }
                    // The first iteration is must-executed; nothing
                    // after an infinite loop ever runs.
                    self.block(bi, body, &path, 0);
                    return false;
                }
                Stmt::Call { sub, .. } => {
                    if !self.call_stack.contains(sub) {
                        if let Some(&sbi) = self.sub_body.get(sub) {
                            self.call_stack.push(*sub);
                            let root = StmtPath::root(self.bodies[sbi].owner);
                            let through = self.block(sbi, self.bodies[sbi].stmts, &root, 0);
                            self.call_stack.pop();
                            if !through {
                                return false;
                            }
                        }
                    }
                }
                Stmt::Assign { .. }
                | Stmt::Wait(WaitCond::For(_))
                | Stmt::Delay(_)
                | Stmt::Skip => {}
            }
        }
        true
    }

    fn span_of(&self, path: &StmtPath) -> Option<modref_spec::Span> {
        self.map.and_then(|m| m.stmt_span(path))
    }

    fn flag_dl03(&mut self, bi: usize, path: &StmtPath, kind: &str, cond: &Expr) {
        let body = &self.bodies[bi];
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

    fn flag_wait(&mut self, bi: usize, path: &StmtPath, cond: &'a Expr) {
        let body = &self.bodies[bi];
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
            .find(|s| !self.writes_to.contains_key(&Entity::Signal(*s)));
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
        // The walk visits the very statement slices the bodies were
        // lowered from, so `cond` is the same expression a wait node of
        // this body holds: identity finds the node.
        let Some(&(node, _)) = body.waits.iter().find(|&&(_, c)| ptr::eq(c, cond)) else {
            return;
        };
        if !self.dead.contains(&(bi, node)) {
            return;
        }
        // DL04: writers exist, but every one is trapped behind a wait
        // that is itself dead — report the cycle when there is one.
        let key = (bi, node);
        let participants = self
            .dead_index
            .get(&key)
            .and_then(|&wi| self.scc.iter().find(|c| c.contains(&wi)))
            .filter(|c| c.len() > 1)
            .map(|c| {
                let mut names: Vec<&str> = c
                    .iter()
                    .map(|&wi| self.bodies[self.dead_list[wi].0].name.as_str())
                    .collect();
                names.sort_unstable();
                names.dedup();
                names.join("`, `")
            });
        let cond_text = cond_text();
        let message = match participants {
            Some(names) => format!(
                "circular wait deadlock: `{}` waits on `{cond_text}`, but every write that \
                 could satisfy it is blocked behind the waits of `{names}`",
                body.name
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

/// Infers candidate handshake pairs from server bodies: a signal the
/// server's waits test for zero (`req`) paired with the signals the
/// server drives (`ack`). Every candidate still has to pass the full
/// [`check_handshake`] criteria, so over-generation is harmless.
fn infer_handshakes(
    spec: &Spec,
    bodies: &[Body<'_>],
    behavior_body: &HashMap<BehaviorId, usize>,
) -> Vec<HandshakePair> {
    let mut out = Vec::new();
    for id in spec.reachable() {
        let b = spec.behavior(id);
        if !b.is_server() || !b.is_leaf() {
            continue;
        }
        let Some(&bi) = behavior_body.get(&id) else {
            continue;
        };
        let body = &bodies[bi];
        let mut reqs: Vec<SignalId> = body
            .waits
            .iter()
            .flat_map(|&(_, cond)| cond.signal_reads())
            .collect();
        reqs.sort_unstable();
        reqs.dedup();
        let mut acks: Vec<SignalId> = Vec::new();
        for cn in &body.cfg.nodes {
            if let Some(Stmt::SignalSet { signal, .. }) = cn.stmt {
                acks.push(*signal);
            }
        }
        acks.sort_unstable();
        acks.dedup();
        for &req in &reqs {
            for &ack in &acks {
                if req != ack {
                    out.push(HandshakePair {
                        req,
                        ack,
                        server: id,
                    });
                }
            }
        }
    }
    out
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
/// Under these, whichever way arbitration goes the spec hangs: never
/// granted leaves the requester at its grant wait; granted leaves the
/// server stuck re-arbitrating on a request that stays high, so the
/// acknowledge never drops and the requester's release wait blocks.
#[allow(clippy::too_many_arguments)] // one internal call site
fn check_handshake(
    spec: &Spec,
    map: Option<&SourceMap>,
    full: &Ranges,
    bodies: &[Body<'_>],
    behavior_body: &HashMap<BehaviorId, usize>,
    sites: &[Site],
    writes_to: &HashMap<Entity, Vec<usize>>,
    pair: &HandshakePair,
    leaf_events: &[(BehaviorId, Vec<Ev<'_>>)],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let req_sites = writes_to.get(&Entity::Signal(pair.req));
    let ack_sites = writes_to.get(&Entity::Signal(pair.ack));
    let (Some(req_sites), Some(ack_sites)) = (req_sites, ack_sites) else {
        return out;
    };
    // (1) the request line, once raised, stays raised: the hull of
    // everything ever written to it excludes zero.
    let post = req_sites
        .iter()
        .map(|&i| sites[i].hull)
        .reduce(Interval::join)
        .expect("nonempty write list");
    if post.contains(0) {
        return out;
    }
    // (4) only the server drives the acknowledge line.
    let Some(&server_bi) = behavior_body.get(&pair.server) else {
        return out;
    };
    if ack_sites.iter().any(|&i| sites[i].body != server_bi) {
        return out;
    }
    // (5) each possibly-zero ack write sits behind a server wait that
    // is false while the request is held (the re-arbitration wait).
    let server = &bodies[server_bi];
    let guards: HashSet<NodeId> = server
        .waits
        .iter()
        .filter(|&&(_, cond)| absint::eval_with(cond, full, &[(pair.req, post)]).definitely_false())
        .map(|&(n, _)| n)
        .collect();
    if guards.is_empty() {
        return out;
    }
    let cfg = &server.cfg;
    let mut seen = vec![false; cfg.nodes.len()];
    let mut stack = vec![cfg.entry];
    seen[cfg.entry] = true;
    while let Some(n) = stack.pop() {
        if guards.contains(&n) {
            continue;
        }
        for &s in &cfg.nodes[n].succs {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    let lowering_escapes = ack_sites
        .iter()
        .any(|&i| sites[i].hull.contains(0) && seen[sites[i].node]);
    if lowering_escapes {
        return out;
    }
    // (2)+(3): a must-executed raise followed by a grant wait and a
    // release wait.
    let low = [(pair.ack, Interval::exact(0))];
    let high = [(pair.ack, Interval::exact(1))];
    for (leaf, events) in leaf_events {
        let mut raise: Option<&StmtPath> = None;
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
                        let span = raise.and_then(|p| map.and_then(|m| m.stmt_span(p)));
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
