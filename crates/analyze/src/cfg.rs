//! Per-body statement control-flow graphs.
//!
//! Each leaf-behavior (or subroutine) body is lowered to a small CFG of
//! one node per statement, plus synthetic entry and exit nodes. The
//! lowering mirrors the simulator's structured-control semantics: an
//! `if` forks and rejoins, `while`/`for` loop back through their head
//! node, and `loop` has no exit edge at all.
//!
//! A node is just its borrowed statement and at most two successors.
//! Nodes 0 and 1 are entry and exit; statements follow in pre-order from
//! [`FIRST_STMT`], so a statement's nested blocks take the ids right
//! after it ([`block_len`] ids per block). Source positions are looked
//! up (through [`StmtPath`]s) only when a [`SourceMap`] is given. The
//! dataflow analyses ([`crate::dataflow`]) derive their use/def facts
//! from the statements; they and the deadlock engine
//! ([`crate::deadlock`]) read statements and successors only.

use modref_spec::{SourceMap, Span, Stmt, StmtOwner, StmtPath};

/// Index of a node within its [`Cfg`].
pub type NodeId = usize;

/// The node of a body's first statement.
pub const FIRST_STMT: NodeId = 2;

/// The number of nodes a block lowers to: one per statement, nested
/// ones included.
pub fn block_len(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| {
            1 + match s {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => block_len(then_body) + block_len(else_body),
                Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Loop { body } => {
                    block_len(body)
                }
                _ => 0,
            }
        })
        .sum()
}

/// Marks an unused successor slot.
const NONE: u32 = u32::MAX;

/// A per-body control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg<'a> {
    /// The statement each node executes; `None` for entry and exit.
    stmts: Vec<Option<&'a Stmt>>,
    /// Source position per node; empty when built without a map.
    spans: Vec<Option<Span>>,
    /// Up to two successors per node, unused slots [`NONE`]: a branch or
    /// loop head has two, every other node at most one.
    succs: Vec<[u32; 2]>,
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
        let mut lower = Lower {
            stmts: vec![None, None],
            spans: Vec::new(),
            succs: vec![[NONE; 2]; 2],
            map,
        };
        if map.is_some() {
            lower.spans = vec![None, None];
        }
        let root = map.map(|_| StmtPath::root(owner));
        let mut frontier = vec![0];
        lower.block(body, root.as_ref(), 0, &mut frontier);
        lower.connect(&frontier, 1);
        Cfg {
            stmts: lower.stmts,
            spans: lower.spans,
            succs: lower.succs,
            entry: 0,
            exit: 1,
        }
    }

    /// Number of nodes, entry and exit included.
    pub fn node_count(&self) -> usize {
        self.stmts.len()
    }

    /// The statement node `n` executes; `None` for entry and exit.
    pub fn stmt(&self, n: NodeId) -> Option<&'a Stmt> {
        self.stmts[n]
    }

    /// Every node's statement, indexed by node.
    pub fn stmts(&self) -> &[Option<&'a Stmt>] {
        &self.stmts
    }

    /// Source position of node `n`, when built with a map that has one.
    pub fn span(&self, n: NodeId) -> Option<Span> {
        self.spans.get(n).copied().flatten()
    }

    /// Successors of `n`, in the order control can take them.
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succs[n]
            .iter()
            .take_while(|&&s| s != NONE)
            .map(|&s| s as NodeId)
    }
}

/// Lowering state: the nodes so far and their successors.
struct Lower<'a, 'm> {
    stmts: Vec<Option<&'a Stmt>>,
    spans: Vec<Option<Span>>,
    succs: Vec<[u32; 2]>,
    map: Option<&'m SourceMap>,
}

impl<'a> Lower<'a, '_> {
    /// Adds an edge from every node of `from` to `to`.
    fn connect(&mut self, from: &[u32], to: u32) {
        for &f in from {
            let out = &mut self.succs[f as usize];
            let slot = if out[0] == NONE { 0 } else { 1 };
            debug_assert_eq!(out[slot], NONE, "a CFG node has at most two successors");
            out[slot] = to;
        }
    }

    /// Lowers one block. `frontier` holds the nodes whose control enters
    /// the block and, on return, those whose control continues to
    /// whatever follows it (unchanged for an empty block). `parent` is
    /// the enclosing statement's path, present only when lowering with a
    /// map.
    fn block(
        &mut self,
        stmts: &'a [Stmt],
        parent: Option<&StmtPath>,
        block: u8,
        frontier: &mut Vec<u32>,
    ) {
        for (i, s) in stmts.iter().enumerate() {
            let path = parent.map(|p| p.child(block, i as u32));
            let node = self.stmts.len() as u32;
            self.stmts.push(Some(s));
            self.succs.push([NONE; 2]);
            if let (Some(map), Some(path)) = (self.map, &path) {
                self.spans.push(map.stmt_span(path));
            }
            self.connect(frontier, node);
            frontier.clear();
            frontier.push(node);
            let path = path.as_ref();
            match s {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    let mut else_frontier = vec![node];
                    self.block(then_body, path, 0, frontier);
                    self.block(else_body, path, 1, &mut else_frontier);
                    frontier.extend(else_frontier);
                }
                Stmt::While { body, .. } | Stmt::For { body, .. } => {
                    self.block(body, path, 0, frontier);
                    self.connect(frontier, node);
                    // Loop exit: the head's condition turning false.
                    frontier.clear();
                    frontier.push(node);
                }
                Stmt::Loop { body } => {
                    self.block(body, path, 0, frontier);
                    self.connect(frontier, node);
                    // No exit edge: statements after an infinite loop are
                    // unreachable and get an empty frontier.
                    frontier.clear();
                }
                _ => {}
            }
        }
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

    fn succs(cfg: &Cfg, n: NodeId) -> Vec<NodeId> {
        cfg.succs(n).collect()
    }

    #[test]
    fn straight_line_chains_entry_to_exit() {
        let x = VarId::from_raw(0);
        let body = vec![assign(x, lit(1)), assign(x, lit(2))];
        let cfg = Cfg::build(owner(), &body, None);
        assert_eq!(cfg.node_count(), 4);
        assert_eq!(succs(&cfg, cfg.entry), vec![2]);
        assert_eq!(succs(&cfg, 2), vec![3]);
        assert_eq!(succs(&cfg, 3), vec![cfg.exit]);
        assert!(std::ptr::eq(cfg.stmt(3).unwrap(), &body[1]));
        assert!(cfg.stmt(cfg.entry).is_none());
        assert_eq!(cfg.span(2), None);
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
        assert_eq!(cfg.node_count(), 6);
        assert_eq!(FIRST_STMT + block_len(&body), cfg.node_count());
        let if_head = 2;
        assert_eq!(succs(&cfg, if_head), vec![3, 4]);
        // Both branch assigns flow into the final statement.
        let last = 5;
        assert_eq!((succs(&cfg, 3), succs(&cfg, 4)), (vec![last], vec![last]));
    }

    #[test]
    fn while_loops_back_and_exits_from_head() {
        let x = VarId::from_raw(0);
        let body = vec![while_loop(gt(var(x), lit(0)), vec![assign(x, lit(0))])];
        let cfg = Cfg::build(owner(), &body, None);
        let head = 2;
        let inner = 3;
        assert!(cfg.succs(inner).any(|s| s == head));
        assert!(cfg.succs(head).any(|s| s == cfg.exit));
    }

    #[test]
    fn infinite_loop_leaves_exit_unreachable() {
        let x = VarId::from_raw(0);
        let body = vec![infinite_loop(vec![assign(x, lit(1))])];
        let cfg = Cfg::build(owner(), &body, None);
        assert!((0..cfg.node_count()).all(|n| cfg.succs(n).all(|s| s != cfg.exit)));
    }
}
