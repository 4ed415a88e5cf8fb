//! The compiled simulation kernel: bytecode lowering and execution.
//!
//! The tree-walking interpreters ([`crate::process`]) re-traverse the
//! statement/expression AST on every micro-step: each statement dispatch
//! matches on an enum behind a frame stack, each expression evaluation
//! recurses through `Box`ed nodes, and each block entry pushes a frame.
//! This module instead *lowers* every behavior to a flat array of compact
//! instructions once per run, then executes with a program counter:
//!
//! 1. **lower** (`lower`) — flatten statement trees into straight-line
//!    code with explicit jumps (labels patched later), linearize
//!    expressions to postfix over pre-interned variable/signal *slot
//!    indices* (plain vector offsets — no name or ID hashing on the hot
//!    path), resolve subroutine parameters to frame slots at compile
//!    time, and pre-derive each wait-site's sensitivity list.
//! 2. **optimize** (`optimize`) — constant-fold literal subtrees during
//!    linearization (using the same [`BinOp::eval`](modref_spec::BinOp::eval)
//!    as the runtime), fuse operators into cheap operands (below) and
//!    rewrite branches on folded conditions. Every rewrite preserves the
//!    interpreter's micro-step count exactly.
//! 3. **emit** (`emit`) — resolve labels to absolute program counters
//!    and assemble the final [`CompiledSpec`].
//!
//! Execution (`exec`) is an executor for the one event scheduler in
//! [`crate::simulator`], the same scheduler the AST interpreter runs
//! under: it runs each process as a resumable program counter over the
//! flat code — a single loop whose only control transfer is the opcode
//! dispatch, with wait points recorded as the pc to resume at. This is
//! the default kernel.
//!
//! ## Step parity
//!
//! The compiled kernel reproduces the interpreter's observable results
//! *exactly*, including [`SimResult::steps`](crate::SimResult): one
//! instruction corresponds to one interpreter micro-step. Frame
//! bookkeeping the interpreter counts as steps (block pops, `while`
//! re-checks, `loop` restarts, call returns, sequential-composite
//! transitions) lowers to explicit instructions (`Nop`/`Jump`/
//! `JumpIfZero`/`Return`/`Transition`), so the three kernels stay
//! step-for-step comparable and the equivalence suite can assert full
//! [`SimResult`](crate::SimResult) equality.
//!
//! ## Cheap conditions
//!
//! Refined designs spend most of their evaluation on conditions: an
//! arbiter's grant wait is an `||` over one `req == 1` test per master,
//! and a memory port tests its address against every word it stores.
//! Two lowering rules keep such conditions off the value stack, so a
//! wait, `if` or `while` test usually evaluates as one operand:
//!
//! - **Fused comparisons.** `sig op k` and `var op k` (a signal or scalar
//!   variable against a literal, any binary operator) lower to one
//!   non-popping op, `EOp::SigC` or `EOp::VarC`.
//! - **Short-circuit chains.** A run of the same logical operator,
//!   `a || b || c` in any nesting, flattens into one operand,
//!   `EOp::Any` or `EOp::All`, over a slice of the program's term
//!   table; it stops at the first term that decides the result. A
//!   chain is a single op in the postfix pool, so folding and
//!   fusion, which read a subtree's last op as its root, still see
//!   `(p || q || s) == 1` as an operand compared with a literal.
//!
//! The interpreter evaluates both sides of `||` and `&&`, so skipping a
//! term is only sound when the term cannot fault. An array index (`Elem`,
//! out of bounds) or a parameter read (`Param`, `ParamErr`, unbound) may
//! fault: such a term is never skipped. It joins the chain with a plain
//! binary `||`/`&&`, and the terms after it form a new chain whose first,
//! always-evaluated term is everything before. Errors therefore surface
//! exactly as, and in the order, the interpreter raises them.

pub(crate) mod emit;
pub(crate) mod exec;
pub(crate) mod lower;
pub(crate) mod optimize;

use modref_spec::types::ScalarType;
use modref_spec::{BehaviorId, BinOp, Spec, UnOp};

/// An absolute instruction index into [`CompiledSpec::code`]. During
/// lowering the same representation temporarily holds *label ids*; the
/// emit pass patches every pc-valued field to its resolved address.
pub(crate) type Pc = u32;

/// A slice of the postfix expression pool: `pool[off .. off + len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExprRef {
    pub off: u32,
    pub len: u32,
}

impl ExprRef {
    /// The ops this reference names in `pool`.
    #[inline]
    pub(crate) fn ops(self, pool: &[EOp]) -> &[EOp] {
        &pool[self.off as usize..(self.off + self.len) as usize]
    }
}

/// One postfix expression operation, evaluated over a shared value stack.
/// Variable/signal operands carry pre-resolved slot indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EOp {
    /// Push a literal (includes results of compile-time folding).
    Const(i64),
    /// Push the scalar variable in the given slot.
    Var(u32),
    /// Pop an index, push that element of the array variable in the slot.
    Elem(u32),
    /// Push the signal in the given slot.
    Sig(u32),
    /// Push the parameter at `slot` of the innermost call frame; `name`
    /// indexes the interned-name table for the unbound-parameter error.
    Param { slot: u16, name: u32 },
    /// A parameter reference that cannot resolve (no enclosing
    /// subroutine, or no such formal): errors when reached, like the
    /// interpreter's dynamic lookup failure.
    ParamErr { name: u32 },
    /// Pop one value, push the unary result.
    Un(UnOp),
    /// Pop right then left, push the binary result.
    Bin(BinOp),
    /// `Sig(slot) op k`: a binary operator whose operands were the signal
    /// in `slot` and the literal `k`, fused into one operand.
    SigC { slot: u32, op: BinOp, k: i64 },
    /// `Var(slot) op k`: the scalar-variable form of `EOp::SigC`.
    VarC { slot: u32, op: BinOp, k: i64 },
    /// A flattened `||` chain over the terms
    /// [`CompiledSpec::terms`]`[off .. off + len]`: pushes 1 at the first
    /// non-zero term without evaluating the rest, else 0. One operand.
    Any { off: u32, len: u32 },
    /// A flattened `&&` chain: pushes 0 at the first zero term without
    /// evaluating the rest, else 1. One operand.
    All { off: u32, len: u32 },
}

/// One instruction. Each executed instruction is exactly one simulation
/// micro-step (see the module docs on step parity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Instr {
    /// Frame bookkeeping that only advances the pc (block pops of empty
    /// continuations, `while`/`loop` statement entries, ...).
    Nop,
    /// Unconditional jump (block pop returning past a branch, loop
    /// back-edges).
    Jump(Pc),
    /// Jump to `to` when `cond` evaluates to zero, else fall through
    /// (`if` statements and `while` re-checks).
    JumpIfZero { cond: ExprRef, to: Pc },
    /// `var := value` on a scalar variable slot (wrapped to `ty`).
    StoreVar {
        slot: u32,
        ty: ScalarType,
        value: ExprRef,
    },
    /// `var[index] := value`; `value` evaluates before `index`, matching
    /// the interpreter's assignment order.
    StoreElem {
        slot: u32,
        ty: ScalarType,
        index: ExprRef,
        value: ExprRef,
    },
    /// `param := value` into the innermost call frame (unwrapped, like
    /// the interpreter's parameter writes).
    StoreParam {
        slot: u16,
        name: u32,
        value: ExprRef,
    },
    /// An assignment to a parameter that cannot resolve: evaluates
    /// `value` (whose errors take precedence), then fails.
    StoreParamErr { name: u32, value: ExprRef },
    /// `set sig := value` (wrapped to `ty`).
    SetSignal {
        slot: u32,
        ty: ScalarType,
        value: ExprRef,
    },
    /// `wait until`: falls through when the site's condition is non-zero,
    /// otherwise blocks *without advancing the pc* (the instruction
    /// re-executes on wake, like the interpreter re-running the
    /// statement).
    WaitUntil { site: u32 },
    /// `wait for n` / `delay n`: advances the pc, then sleeps.
    WaitFor(u64),
    /// `for` entry: evaluate the bounds once, push a loop record, fall
    /// through to the adjacent [`Instr::ForNext`].
    ForInit { site: u32 },
    /// `for` iteration check: store the induction variable and fall into
    /// the body, or pop the loop record and jump past it.
    ForNext { site: u32 },
    /// Subroutine call: evaluate `in` arguments in the caller's context,
    /// push a call frame, jump to the callee's entry.
    Call { site: u32 },
    /// End of a subroutine body (the body's block-pop step): return to
    /// the call site's continuation, keeping the frame for out-copies.
    Return,
    /// The call-frame pop: copy `out` parameters to caller lvalues
    /// (evaluated in the caller's context), discard the frame.
    EndCall { site: u32 },
    /// Concurrent composite: hand the group's children to the scheduler
    /// and block on their completion; resumes at the next instruction.
    Spawn { group: u32 },
    /// Sequential composite entry: count the first child's activation and
    /// fall through into its segment.
    Enter { child: BehaviorId },
    /// A child of a sequential composite completed: fire the first
    /// matching transition arc (counting the successor's activation) or
    /// complete the composite.
    Transition { site: u32 },
    /// The root behavior of this process completed.
    Halt,
}

/// A `wait until` site: the lowered condition plus its pre-derived
/// sensitivity lists for waiter-list registration.
pub(crate) type WaitSite = crate::sensitivity::WaitSite<ExprRef>;

/// A `for` loop site: induction variable slot/type, bound expressions
/// (evaluated once at entry) and the pc just past the loop.
#[derive(Debug, Clone)]
pub(crate) struct ForSite {
    pub slot: u32,
    pub ty: ScalarType,
    pub from: ExprRef,
    pub to: ExprRef,
    pub end: Pc,
}

/// How one call-frame slot is populated at call time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FrameArg {
    /// An `in` argument: evaluate in the caller's context, wrap to the
    /// formal's type.
    In { value: ExprRef, ty: ScalarType },
    /// An `out` argument: the slot starts at zero.
    Out,
}

/// Where an `out` parameter's final value is copied on return.
#[derive(Debug, Clone)]
pub(crate) enum OutTarget {
    /// A scalar variable.
    Var { slot: u32, ty: ScalarType },
    /// An array element; the index expression evaluates in the caller's
    /// context after the frame pops.
    Elem {
        slot: u32,
        ty: ScalarType,
        index: ExprRef,
    },
    /// A parameter of the *caller's* frame.
    Param { slot: u16, name: u32 },
    /// A parameter lvalue that cannot resolve in the caller's context.
    ParamErr { name: u32 },
}

/// A call site: callee entry, frame construction recipe and out-copies.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    pub entry: Pc,
    pub args: Box<[FrameArg]>,
    /// `(frame slot holding the value, destination)` pairs, in formal
    /// declaration order. The value slot is the *last* frame slot with
    /// the formal's name, matching the interpreter's duplicate-name
    /// resolution.
    pub outs: Box<[(u16, OutTarget)]>,
}

/// Where a fired (or defaulted) transition sends control.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TransAction {
    pub pc: Pc,
    /// The successor child whose activation is counted, or `None` when
    /// the composite completes.
    pub activate: Option<BehaviorId>,
}

/// A transition site for one `(sequential composite, child)` pair: the
/// arcs whose `from` is that child (in declaration order, guards
/// pre-lowered) and the statically resolved default.
#[derive(Debug, Clone)]
pub(crate) struct TransSite {
    pub arcs: Box<[(Option<ExprRef>, TransAction)]>,
    pub default: TransAction,
}

/// A specification lowered to executable bytecode.
///
/// Produced by [`compile`]; executed by the
/// [`SimKernel::Compiled`](crate::SimKernel) scheduler. The program is
/// immutable and borrows nothing from the [`Spec`], so one compilation
/// can back any number of runs.
#[derive(Debug)]
pub struct CompiledSpec {
    pub(crate) code: Vec<Instr>,
    pub(crate) pool: Vec<EOp>,
    /// The terms of every `EOp::Any`/`EOp::All` chain, each a slice
    /// of `pool`.
    pub(crate) terms: Vec<ExprRef>,
    /// Interned parameter names, referenced by error-reporting ops.
    pub(crate) names: Vec<String>,
    pub(crate) waits: Vec<WaitSite>,
    pub(crate) fors: Vec<ForSite>,
    pub(crate) calls: Vec<CallSite>,
    pub(crate) trans: Vec<TransSite>,
    /// Spawn groups: the child lists of concurrent composites.
    pub(crate) groups: Vec<Vec<BehaviorId>>,
    /// Program entry per behavior index; `Pc::MAX` for behaviors that are
    /// never process roots (children of sequential composites execute
    /// inline in their parent's program).
    pub(crate) entries: Vec<Pc>,
}

impl CompiledSpec {
    /// Whether `behavior` has a standalone program (i.e. can be a
    /// process root: the top behavior or a concurrent-composite child).
    pub(crate) fn has_entry(&self, behavior: BehaviorId) -> bool {
        self.entries[behavior.index()] != Pc::MAX
    }
}

/// Lowers `spec` to bytecode: the full lower → optimize → emit pipeline.
pub fn compile(spec: &Spec) -> CompiledSpec {
    let mut lowered = lower::lower(spec);
    optimize::peephole(&mut lowered);
    emit::emit(lowered)
}
