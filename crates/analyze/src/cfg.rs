//! Per-body statement control-flow graphs.
//!
//! Each leaf-behavior (or subroutine) body is lowered to a small CFG of
//! one node per statement, plus synthetic entry and exit nodes. The
//! lowering mirrors the simulator's structured-control semantics: an
//! `if` forks and rejoins, `while`/`for` loop back through their head
//! node, and `loop` has no exit edge at all. Each statement node borrows
//! its statement; [`StmtPath`]s exist only during lowering, to look up
//! source positions. Dataflow analyses ([`crate::dataflow`]) and the
//! deadlock engine ([`crate::deadlock`]) run over this graph.

use modref_spec::{LValue, SourceMap, Span, Stmt, StmtOwner, StmtPath, VarId, WaitCond};

/// Index of a node within its [`Cfg`].
pub type NodeId = usize;

/// One CFG node: a statement (or a synthetic entry/exit).
#[derive(Debug, Clone)]
pub struct CfgNode<'a> {
    /// The statement this node executes; `None` for entry/exit.
    pub stmt: Option<&'a Stmt>,
    /// Source position, when the spec was parsed from text.
    pub span: Option<Span>,
    /// Variables read when this node executes (guards, rhs, indices).
    pub uses: Vec<VarId>,
    /// Variables definitely (re)defined: scalar writes, which kill
    /// previous definitions.
    pub defs: Vec<VarId>,
    /// Variables partially defined: array-element writes, which define
    /// but do not kill (other elements survive).
    pub weak_defs: Vec<VarId>,
    /// A `for` head's loop variable: written *before* it is read on every
    /// iteration, so liveness treats it as used (the increment/compare
    /// read it) while may-uninit does not.
    pub loop_var: Option<VarId>,
    /// Set when the node is a plain `v := e` scalar assignment — the only
    /// shape the dead-store lint fires on (calls and loops have other
    /// effects).
    pub assign_scalar: Option<VarId>,
    /// Successor nodes.
    pub succs: Vec<NodeId>,
    /// Predecessor nodes.
    pub preds: Vec<NodeId>,
}

impl CfgNode<'_> {
    fn synthetic() -> Self {
        Self {
            stmt: None,
            span: None,
            uses: Vec::new(),
            defs: Vec::new(),
            weak_defs: Vec::new(),
            loop_var: None,
            assign_scalar: None,
            succs: Vec::new(),
            preds: Vec::new(),
        }
    }
}

/// A per-body control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg<'a> {
    /// All nodes; `nodes[entry]` and `nodes[exit]` are synthetic.
    pub nodes: Vec<CfgNode<'a>>,
    /// The entry node (no statement).
    pub entry: NodeId,
    /// The exit node (no statement). Unreachable when the body ends in an
    /// infinite `loop`.
    pub exit: NodeId,
}

impl<'a> Cfg<'a> {
    /// Lowers a statement body to its CFG. `map` supplies statement
    /// positions when available; pass `None` for builder-built specs.
    pub fn build(owner: StmtOwner, body: &'a [Stmt], map: Option<&SourceMap>) -> Self {
        let mut cfg = Cfg {
            nodes: vec![CfgNode::synthetic(), CfgNode::synthetic()],
            entry: 0,
            exit: 1,
        };
        let root = StmtPath::root(owner);
        let frontier = cfg.lower_block(body, &root, 0, vec![cfg.entry], map);
        let exit = cfg.exit;
        for n in frontier {
            cfg.connect(n, exit);
        }
        cfg
    }

    fn connect(&mut self, from: NodeId, to: NodeId) {
        self.nodes[from].succs.push(to);
        self.nodes[to].preds.push(from);
    }

    fn add_node(&mut self, stmt: &'a Stmt, span: Option<Span>, preds: &[NodeId]) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(CfgNode {
            stmt: Some(stmt),
            span,
            ..CfgNode::synthetic()
        });
        for &p in preds {
            self.connect(p, id);
        }
        id
    }

    /// Lowers one block; returns the frontier of nodes whose control
    /// continues to whatever follows the block. An empty input block
    /// returns `preds` unchanged.
    fn lower_block(
        &mut self,
        stmts: &'a [Stmt],
        parent: &StmtPath,
        block: u8,
        mut preds: Vec<NodeId>,
        map: Option<&SourceMap>,
    ) -> Vec<NodeId> {
        for (i, s) in stmts.iter().enumerate() {
            let path = parent.child(block, i as u32);
            let node = self.add_node(s, map.and_then(|m| m.stmt_span(&path)), &preds);
            self.nodes[node].uses = s.direct_reads();
            match s {
                Stmt::Assign { target, .. } => {
                    match target {
                        LValue::Var(v) => {
                            self.nodes[node].defs.push(*v);
                            self.nodes[node].assign_scalar = Some(*v);
                        }
                        LValue::Index(v, _) => self.nodes[node].weak_defs.push(*v),
                        LValue::Param(_) => {}
                    }
                    preds = vec![node];
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    let then_frontier = self.lower_block(then_body, &path, 0, vec![node], map);
                    let else_frontier = self.lower_block(else_body, &path, 1, vec![node], map);
                    preds = then_frontier;
                    preds.extend(else_frontier);
                }
                Stmt::While { body, .. } => {
                    let back = self.lower_block(body, &path, 0, vec![node], map);
                    for b in back {
                        self.connect(b, node);
                    }
                    // Loop exit: the head's condition turning false.
                    preds = vec![node];
                }
                Stmt::For { var, body, .. } => {
                    self.nodes[node].defs.push(*var);
                    self.nodes[node].loop_var = Some(*var);
                    let back = self.lower_block(body, &path, 0, vec![node], map);
                    for b in back {
                        self.connect(b, node);
                    }
                    preds = vec![node];
                }
                Stmt::Loop { body } => {
                    let back = self.lower_block(body, &path, 0, vec![node], map);
                    for b in back {
                        self.connect(b, node);
                    }
                    // No exit edge: statements after an infinite loop are
                    // unreachable and get an empty frontier.
                    preds = Vec::new();
                }
                Stmt::Call { args, .. } => {
                    for a in args {
                        if let modref_spec::stmt::CallArg::Out(lv) = a {
                            match lv {
                                LValue::Var(v) => self.nodes[node].defs.push(*v),
                                LValue::Index(v, _) => self.nodes[node].weak_defs.push(*v),
                                LValue::Param(_) => {}
                            }
                        }
                    }
                    preds = vec![node];
                }
                Stmt::SignalSet { .. }
                | Stmt::Wait(WaitCond::Until(_))
                | Stmt::Wait(WaitCond::For(_))
                | Stmt::Delay(_)
                | Stmt::Skip => {
                    preds = vec![node];
                }
            }
        }
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::expr::{gt, lit, var};
    use modref_spec::ids::BehaviorId;
    use modref_spec::stmt::{assign, if_else, infinite_loop, while_loop};
    use modref_spec::VarId;

    fn owner() -> StmtOwner {
        StmtOwner::Behavior(BehaviorId::from_raw(0))
    }

    #[test]
    fn straight_line_chains_entry_to_exit() {
        let x = VarId::from_raw(0);
        let body = vec![assign(x, lit(1)), assign(x, lit(2))];
        let cfg = Cfg::build(owner(), &body, None);
        assert_eq!(cfg.nodes.len(), 4);
        assert_eq!(cfg.nodes[cfg.entry].succs, vec![2]);
        assert_eq!(cfg.nodes[2].succs, vec![3]);
        assert_eq!(cfg.nodes[3].succs, vec![cfg.exit]);
        assert_eq!(cfg.nodes[2].assign_scalar, Some(x));
        assert!(std::ptr::eq(cfg.nodes[3].stmt.unwrap(), &body[1]));
        assert!(cfg.nodes[cfg.entry].stmt.is_none());
    }

    #[test]
    fn if_forks_and_rejoins() {
        let x = VarId::from_raw(0);
        let y = VarId::from_raw(1);
        let body = vec![
            if_else(
                gt(var(x), lit(0)),
                vec![assign(y, lit(1))],
                vec![assign(y, lit(2))],
            ),
            assign(x, var(y)),
        ];
        let cfg = Cfg::build(owner(), &body, None);
        // entry, exit, if-head, then-assign, else-assign, join-assign.
        assert_eq!(cfg.nodes.len(), 6);
        let if_head = 2;
        assert_eq!(cfg.nodes[if_head].uses, vec![x]);
        assert_eq!(cfg.nodes[if_head].succs.len(), 2);
        // Both branch assigns flow into the final statement.
        let last = 5;
        assert_eq!(cfg.nodes[last].preds.len(), 2);
    }

    #[test]
    fn while_loops_back_and_exits_from_head() {
        let x = VarId::from_raw(0);
        let body = vec![while_loop(gt(var(x), lit(0)), vec![assign(x, lit(0))])];
        let cfg = Cfg::build(owner(), &body, None);
        let head = 2;
        let inner = 3;
        assert!(cfg.nodes[inner].succs.contains(&head));
        assert!(cfg.nodes[head].succs.contains(&cfg.exit));
    }

    #[test]
    fn infinite_loop_leaves_exit_unreachable() {
        let x = VarId::from_raw(0);
        let body = vec![infinite_loop(vec![assign(x, lit(1))])];
        let cfg = Cfg::build(owner(), &body, None);
        assert!(cfg.nodes[cfg.exit].preds.is_empty());
    }
}
