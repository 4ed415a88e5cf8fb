//! Parser for the textual specification language.
//!
//! A recursive-descent parser builds the [`Spec`] and its [`SourceMap`]
//! directly. Names may be used before they are declared (children,
//! transition targets, `top`, calls, variables), so it works in two steps:
//!
//! 1. The *declaration sweep* reads the file top to bottom. It creates
//!    every signal, variable, behavior (with `server` and its locals) and
//!    subroutine (with its parameters and locals), records where each body
//!    starts and skips the body by matching braces. Ids follow one order:
//!    signals; global variables; each behavior, then its locals; each
//!    subroutine, then its locals.
//! 2. The *body parse* parses each behavior body, then each subroutine
//!    body, then `top`. Names resolve through one table with a map per
//!    namespace: a name means its first declaration in id order, and in an
//!    expression a variable shadows a signal of the same name.
//!
//! An unresolved name is reported at the statement, transition or `top`
//! that uses it, or at the composite whose `children` list names it. When
//! anything fails, the recorded bodies are parsed again in file order with
//! names left unresolved, so an input with several errors reports its
//! first syntax error in file order, else its first unresolved name.
//!
//! The grammar is exactly what [`printer::print`](crate::printer::print)
//! emits; `parse(print(s))` reproduces `s` up to id numbering and is
//! property-tested. The [`SourceMap`] holds the position of every
//! declaration, transition and statement, so diagnostics can point at
//! `file:line:col`. Statements and expressions may nest at most
//! [`MAX_NESTING`] levels deep, so that no recursive pass over a parsed
//! spec can exhaust a thread's stack.

use std::collections::HashMap;

use crate::behavior::{Behavior, BehaviorKind, Transition, TransitionTarget};
use crate::error::ParseError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::ids::{BehaviorId, SignalId, SubroutineId, VarId};
use crate::lexer::{lex, Token, TokenKind};
use crate::span::{SourceMap, Span, StmtOwner, StmtPath};
use crate::spec::Spec;
use crate::stmt::{CallArg, LValue, Stmt, WaitCond};
use crate::subroutine::{ParamDir, Parameter, Subroutine};
use crate::types::{DataType, ScalarType};
use crate::validate;

/// The deepest nesting a specification may have. Each statement is one
/// level inside the statement whose body holds it. Each operand,
/// operator, index and pair of parentheses is one level inside the
/// statement or transition guard it belongs to, so `a || b || c` is 3
/// levels deep and `x := (a);` in a leaf body is 3 levels deep.
///
/// The parser, the validator, the printer, the lints, the refiner and the
/// simulators all walk statements and expressions recursively; past this
/// bound the parser returns a [`ParseError`] instead of building a tree
/// those walks could overflow a stack on. The simulators also descend
/// the behavior hierarchy recursively, so [`validate::check_all`] rejects
/// a hierarchy deeper than this bound.
pub const MAX_NESTING: usize = 512;

/// The stack a thread that handles specifications is spawned with: the
/// main thread's usual size, which holds every recursive pass over a
/// spec nested [`MAX_NESTING`] deep even in a debug build.
pub const THREAD_STACK: usize = 8 << 20;

/// Parses a complete specification from text.
///
/// # Errors
///
/// Returns a [`ParseError`] on syntax errors, unresolved names, or
/// validation failures in the resolved spec.
///
/// # Example
///
/// ```
/// let spec = modref_spec::parser::parse(
///     "spec tiny;\nvar x : int<16> = 0;\nbehavior A leaf {\n  x := x + 5;\n}\nbehavior Top seq { children { A; } }\ntop Top;\n",
/// )?;
/// assert_eq!(spec.behavior_count(), 2);
/// # Ok::<(), modref_spec::ParseError>(())
/// ```
pub fn parse(input: &str) -> Result<Spec, ParseError> {
    let (spec, map) = parse_with_spans(input)?;
    if let Err(e) = validate::check(&spec) {
        let span = crate::span::spec_error_span(&spec, &map, &e).unwrap_or(Span::new(1, 1));
        return Err(ParseError::new(span.line, span.col, e.to_string()));
    }
    Ok(spec)
}

/// Parses a specification, returning it together with the [`SourceMap`]
/// of declaration/transition/statement positions.
///
/// Unlike [`parse`], this does **not** run the structural
/// [`validate::check`] pass: callers that want to report *all*
/// violations (rather than stop at the first) run
/// [`validate::check_all`] themselves on the returned spec and use the
/// map to attach positions.
///
/// # Errors
///
/// Returns a [`ParseError`] on syntax errors or unresolved names.
pub fn parse_with_spans(input: &str) -> Result<(Spec, SourceMap), ParseError> {
    let mut p = Parser::new(lex(input)?);
    match p.parse_spec() {
        Ok(()) => Ok((p.spec, p.map)),
        // A syntax error anywhere wins over an unresolved name.
        Err(e) => Err(p.first_syntax_error().unwrap_or(e)),
    }
}

fn error_at(at: Span, msg: impl Into<String>) -> ParseError {
    ParseError::new(at.line, at.col, msg)
}

/// Converts `value`, the integer literal at `at`, to a `u32`.
fn to_u32(value: i64, at: Span, what: &str) -> Result<u32, ParseError> {
    u32::try_from(value).map_err(|_| error_at(at, format!("{what} must be at most {}", u32::MAX)))
}

/// A `signal` or `var` declaration, held until variable ids are handed
/// out.
struct Decl {
    name: String,
    ty: DataType,
    init: i64,
    span: Span,
}

/// A behavior's or subroutine's body, skipped by the declaration sweep.
#[derive(Clone, Copy)]
struct Body {
    owner: StmtOwner,
    /// The first token after the opening `{` and the local declarations.
    start: usize,
    /// The declaration's position.
    span: Span,
}

/// The first declaration of each name, one map per namespace.
#[derive(Default)]
struct Names {
    behaviors: HashMap<String, BehaviorId>,
    variables: HashMap<String, VarId>,
    signals: HashMap<String, SignalId>,
    subroutines: HashMap<String, SubroutineId>,
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels enclosing the construct being parsed.
    depth: usize,
    spec: Spec,
    map: SourceMap,
    names: Names,
    /// Variable declarations with their scope (`None` for globals), in
    /// file order.
    variables: Vec<(Option<StmtOwner>, Decl)>,
    /// The bodies the sweep skipped, in file order.
    bodies: Vec<Body>,
    /// Whether unresolved names are errors; off while looking for syntax
    /// errors only, when every name resolves to id 0.
    resolve: bool,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Self {
            tokens,
            pos: 0,
            depth: 0,
            spec: Spec::new(""),
            map: SourceMap::new(),
            names: Names::default(),
            variables: Vec::new(),
            bodies: Vec::new(),
            resolve: true,
        }
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.fits(1)?;
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// Checks that a construct `levels` deep fits below the current depth,
    /// and returns `levels`.
    fn fits(&self, levels: usize) -> Result<usize, ParseError> {
        if self.depth + levels > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(levels)
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    /// The position of the next (not yet consumed) token.
    fn here(&self) -> Span {
        let t = self.peek();
        Span::new(t.line, t.col)
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        error_at(self.here(), msg)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if &self.peek().kind == kind {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.next();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(s) if s == kw => {
                self.next();
                Ok(())
            }
            other => Err(self.err(format!("expected `{kw}`, found {}", other.describe()))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        // Allow a leading minus for initializers.
        let negative = matches!(&self.peek().kind, TokenKind::Op(op) if op == "-");
        if negative {
            self.next();
        }
        match &self.peek().kind {
            TokenKind::Int(v) => {
                let v = *v;
                self.next();
                Ok(if negative { -v } else { v })
            }
            other => Err(self.err(format!("expected integer, found {}", other.describe()))),
        }
    }

    /// The id `table` holds for `name`, or an "unresolved `what`" error at
    /// `at`. While only syntax is checked every name resolves, to id 0.
    fn lookup<T: Copy>(
        &self,
        table: &HashMap<String, T>,
        name: &str,
        what: &str,
        at: Span,
        id: fn(u32) -> T,
    ) -> Result<T, ParseError> {
        match table.get(name) {
            Some(&found) => Ok(found),
            None if !self.resolve => Ok(id(0)),
            None => Err(error_at(at, format!("unresolved {what} `{name}`"))),
        }
    }

    fn behavior(&self, name: &str, at: Span) -> Result<BehaviorId, ParseError> {
        self.lookup(
            &self.names.behaviors,
            name,
            "behavior",
            at,
            BehaviorId::from_raw,
        )
    }

    fn variable(&self, name: &str, at: Span) -> Result<VarId, ParseError> {
        self.lookup(&self.names.variables, name, "variable", at, VarId::from_raw)
    }

    fn signal(&self, name: &str, at: Span) -> Result<SignalId, ParseError> {
        self.lookup(&self.names.signals, name, "signal", at, SignalId::from_raw)
    }

    fn subroutine(&self, name: &str, at: Span) -> Result<SubroutineId, ParseError> {
        self.lookup(
            &self.names.subroutines,
            name,
            "subroutine",
            at,
            SubroutineId::from_raw,
        )
    }

    /// A bare name in an expression: a variable, else a signal.
    fn name_expr(&self, name: &str, at: Span) -> Result<Expr, ParseError> {
        match self.names.variables.get(name) {
            Some(&v) => Ok(Expr::Var(v)),
            None => self
                .lookup(&self.names.signals, name, "name", at, SignalId::from_raw)
                .map(Expr::Signal),
        }
    }

    /// Parses the whole spec: the declaration sweep, then the bodies in
    /// id order (behaviors, then subroutines), then `top`.
    fn parse_spec(&mut self) -> Result<(), ParseError> {
        let span = self.here();
        self.expect_keyword("spec")?;
        let name = self.expect_ident()?;
        self.spec.set_name(name);
        self.expect(&TokenKind::Semi)?;

        let mut top = None;
        loop {
            match &self.peek().kind {
                TokenKind::Eof => break,
                TokenKind::Ident(kw) => match kw.as_str() {
                    "signal" => {
                        let d = self.parse_decl("signal")?;
                        let id = self.spec.add_signal(d.name.clone(), d.ty, d.init);
                        self.map.record_signal(id, d.span);
                        self.names.signals.entry(d.name).or_insert(id);
                    }
                    "var" => {
                        let d = self.parse_decl("var")?;
                        self.variables.push((None, d));
                    }
                    "subroutine" => self.sweep_subroutine()?,
                    "behavior" => self.sweep_behavior()?,
                    "top" => {
                        let at = self.here();
                        self.next();
                        let name = self.expect_ident()?;
                        self.expect(&TokenKind::Semi)?;
                        top = Some((name, at));
                    }
                    other => {
                        return Err(self.err(format!(
                            "expected `signal`, `var`, `subroutine`, `behavior` or `top`, found `{other}`"
                        )))
                    }
                },
                other => {
                    return Err(self.err(format!(
                        "expected a declaration, found {}",
                        other.describe()
                    )))
                }
            }
        }
        self.declare_variables();

        let mut bodies = self.bodies.clone();
        bodies.sort_by_key(|b| matches!(b.owner, StmtOwner::Subroutine(_)));
        for body in bodies {
            self.parse_body(body)?;
        }
        let (name, at) = top.ok_or_else(|| error_at(span, "missing `top` declaration"))?;
        let top = self.behavior(&name, at)?;
        self.spec.set_top(top);
        Ok(())
    }

    /// Hands out variable ids: globals, then each behavior's locals, then
    /// each subroutine's.
    fn declare_variables(&mut self) {
        let mut variables = std::mem::take(&mut self.variables);
        variables.sort_by_key(|(scope, _)| match scope {
            None => 0,
            Some(StmtOwner::Behavior(_)) => 1,
            Some(StmtOwner::Subroutine(_)) => 2,
        });
        for (scope, d) in variables {
            let behavior = match scope {
                Some(StmtOwner::Behavior(b)) => Some(b),
                _ => None,
            };
            let id = self
                .spec
                .add_variable(d.name.clone(), d.ty, d.init, behavior);
            self.map.record_variable(id, d.span);
            self.names.variables.entry(d.name).or_insert(id);
            if let Some(StmtOwner::Subroutine(s)) = scope {
                self.spec.subroutine_mut(s).declare_local(id);
            }
        }
    }

    /// `signal NAME : TYPE = INIT;` / `var NAME : TYPE = INIT;`
    fn parse_decl(&mut self, kw: &str) -> Result<Decl, ParseError> {
        let span = self.here();
        self.expect_keyword(kw)?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::Colon)?;
        let ty = self.parse_type()?;
        self.expect(&TokenKind::Eq)?;
        let init = self.expect_int()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Decl {
            name,
            ty,
            init,
            span,
        })
    }

    fn parse_type(&mut self) -> Result<DataType, ParseError> {
        let scalar = self.parse_scalar_type()?;
        if self.peek().kind == TokenKind::LBracket {
            self.next();
            let at = self.here();
            let len = self.expect_int()?;
            if len <= 0 {
                return Err(self.err("array length must be positive"));
            }
            let len = to_u32(len, at, "array length")?;
            self.expect(&TokenKind::RBracket)?;
            Ok(DataType::array(scalar, len))
        } else {
            Ok(scalar.into())
        }
    }

    fn parse_scalar_type(&mut self) -> Result<ScalarType, ParseError> {
        let name = self.expect_ident()?;
        match name.as_str() {
            "bit" => Ok(ScalarType::Bit),
            "bool" => Ok(ScalarType::Bool),
            "int" | "uint" => {
                // int<16>
                match &self.peek().kind {
                    TokenKind::Op(op) if op == "<" => {
                        self.next();
                    }
                    other => {
                        return Err(
                            self.err(format!("expected `<width>`, found {}", other.describe()))
                        )
                    }
                }
                let w = self.expect_int()?;
                if !(1..=64).contains(&w) {
                    return Err(self.err("integer width must be 1..=64"));
                }
                match &self.peek().kind {
                    TokenKind::Op(op) if op == ">" => {
                        self.next();
                    }
                    other => {
                        return Err(self.err(format!("expected `>`, found {}", other.describe())))
                    }
                }
                Ok(if name == "int" {
                    ScalarType::Int(w as u16)
                } else {
                    ScalarType::Uint(w as u16)
                })
            }
            other => Err(self.err(format!("unknown type `{other}`"))),
        }
    }

    /// `subroutine NAME(PARAMS) { LOCALS BODY }`: declares the subroutine
    /// and its locals and skips the body.
    fn sweep_subroutine(&mut self) -> Result<(), ParseError> {
        let span = self.here();
        self.expect_keyword("subroutine")?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek().kind != TokenKind::RParen {
            loop {
                let dir = if self.at_keyword("in") {
                    self.next();
                    ParamDir::In
                } else if self.at_keyword("out") {
                    self.next();
                    ParamDir::Out
                } else {
                    return Err(self.err("expected `in` or `out` parameter direction"));
                };
                let name = self.expect_ident()?;
                self.expect(&TokenKind::Colon)?;
                let ty = self.parse_type()?;
                params.push(Parameter { name, dir, ty });
                if self.peek().kind == TokenKind::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::LBrace)?;
        let id = self
            .spec
            .add_subroutine(Subroutine::new(name.clone(), params, Vec::new()));
        self.map.record_subroutine(id, span);
        self.names.subroutines.entry(name).or_insert(id);
        let owner = StmtOwner::Subroutine(id);
        while self.at_keyword("var") {
            let d = self.parse_decl("var")?;
            self.variables.push((Some(owner), d));
        }
        self.skip_body(owner, span)
    }

    /// `behavior NAME KIND [server] { LOCALS BODY }`: declares the
    /// behavior and its locals and skips the body.
    fn sweep_behavior(&mut self) -> Result<(), ParseError> {
        let span = self.here();
        self.expect_keyword("behavior")?;
        let name = self.expect_ident()?;
        let kind_word = self.expect_ident()?;
        let server = self.at_keyword("server");
        if server {
            self.next();
        }
        self.expect(&TokenKind::LBrace)?;
        let mut locals = Vec::new();
        while self.at_keyword("var") {
            locals.push(self.parse_decl("var")?);
        }
        let kind = match kind_word.as_str() {
            "leaf" => BehaviorKind::Leaf { body: Vec::new() },
            "seq" => BehaviorKind::Seq {
                children: Vec::new(),
                transitions: Vec::new(),
            },
            "conc" => BehaviorKind::Concurrent {
                children: Vec::new(),
            },
            other => {
                return Err(self.err(format!("expected `leaf`, `seq` or `conc`, found `{other}`")))
            }
        };
        let mut behavior = Behavior::new(name.clone(), kind);
        behavior.set_server(server);
        let id = self.spec.add_behavior(behavior);
        self.map.record_behavior(id, span);
        self.names.behaviors.entry(name).or_insert(id);
        let owner = StmtOwner::Behavior(id);
        self.variables
            .extend(locals.into_iter().map(|d| (Some(owner), d)));
        self.skip_body(owner, span)
    }

    /// Records where `owner`'s body starts and skips to the `}` that
    /// closes it. Running into the end of input stops the sweep; parsing
    /// the body then reports where it goes wrong.
    fn skip_body(&mut self, owner: StmtOwner, span: Span) -> Result<(), ParseError> {
        self.bodies.push(Body {
            owner,
            start: self.pos,
            span,
        });
        let mut open = 1;
        while open > 0 {
            match self.peek().kind {
                TokenKind::LBrace => open += 1,
                TokenKind::RBrace => open -= 1,
                TokenKind::Eof => return Err(self.err("unexpected end of input inside a block")),
                _ => {}
            }
            self.pos += 1;
        }
        Ok(())
    }

    /// Parses a body the sweep skipped into its behavior or subroutine.
    fn parse_body(&mut self, body: Body) -> Result<(), ParseError> {
        self.pos = body.start;
        let root = StmtPath::root(body.owner);
        match body.owner {
            StmtOwner::Subroutine(id) => {
                let stmts = self.parse_block(&root, 0)?;
                *self.spec.subroutine_mut(id).body_mut() = stmts;
            }
            StmtOwner::Behavior(id) => {
                let kind = match self.spec.behavior(id).kind() {
                    BehaviorKind::Leaf { .. } => BehaviorKind::Leaf {
                        body: self.parse_block(&root, 0)?,
                    },
                    BehaviorKind::Seq { .. } => {
                        let children = self.parse_children(body.span)?;
                        let transitions = if self.at_keyword("transitions") {
                            self.parse_transitions(id)?
                        } else {
                            Vec::new()
                        };
                        self.expect(&TokenKind::RBrace)?;
                        BehaviorKind::Seq {
                            children,
                            transitions,
                        }
                    }
                    BehaviorKind::Concurrent { .. } => {
                        let children = self.parse_children(body.span)?;
                        self.expect(&TokenKind::RBrace)?;
                        BehaviorKind::Concurrent { children }
                    }
                };
                *self.spec.behavior_mut(id).kind_mut() = kind;
            }
        }
        Ok(())
    }

    /// The first syntax error in file order, if there is one. Everything
    /// the sweep read before it stopped parsed, so the error is in one of
    /// the bodies it skipped; they are parsed again in file order with
    /// names left unresolved.
    fn first_syntax_error(&mut self) -> Option<ParseError> {
        self.resolve = false;
        let bodies = std::mem::take(&mut self.bodies);
        bodies
            .into_iter()
            .find_map(|body| self.parse_body(body).err())
    }

    /// `children { NAME; ... }`; unresolved names are reported at `at`,
    /// the composite's declaration.
    fn parse_children(&mut self, at: Span) -> Result<Vec<BehaviorId>, ParseError> {
        self.expect_keyword("children")?;
        self.expect(&TokenKind::LBrace)?;
        let mut children = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            let name = self.expect_ident()?;
            children.push(self.behavior(&name, at)?);
            self.expect(&TokenKind::Semi)?;
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(children)
    }

    fn parse_transitions(&mut self, owner: BehaviorId) -> Result<Vec<Transition>, ParseError> {
        self.expect_keyword("transitions")?;
        self.expect(&TokenKind::LBrace)?;
        let mut arcs = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            let at = self.here();
            let from = self.expect_ident()?;
            let from = self.behavior(&from, at)?;
            self.expect(&TokenKind::Arrow)?;
            let to = self.expect_ident()?;
            let cond = if self.at_keyword("when") {
                self.next();
                self.expect(&TokenKind::LParen)?;
                let e = self.parse_expr(at)?;
                self.expect(&TokenKind::RParen)?;
                Some(e)
            } else {
                None
            };
            // The target resolves after the guard, so an arc with an
            // unresolved name in both reports the guard's.
            let to = match to.as_str() {
                "complete" => TransitionTarget::Complete,
                name => TransitionTarget::Behavior(self.behavior(name, at)?),
            };
            self.expect(&TokenKind::Semi)?;
            self.map.record_transition(owner, arcs.len(), at);
            arcs.push(Transition { from, cond, to });
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(arcs)
    }

    /// The statements up to the `}` closing a block, which is block
    /// `block` of the statement at `parent`.
    fn parse_block(&mut self, parent: &StmtPath, block: u8) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            if self.peek().kind == TokenKind::Eof {
                return Err(self.err("unexpected end of input inside a block"));
            }
            let path = parent.child(block, stmts.len() as u32);
            let at = self.here();
            let stmt = self.nested(|p| p.parse_stmt(&path, at))?;
            self.map.record_stmt(path, at);
            stmts.push(stmt);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(stmts)
    }

    /// The statement at `path`, which starts at `at`; unresolved names in
    /// it are reported at `at`.
    fn parse_stmt(&mut self, path: &StmtPath, at: Span) -> Result<Stmt, ParseError> {
        let keyword = match &self.peek().kind {
            TokenKind::Ident(kw) => kw.as_str(),
            TokenKind::Param(_) => "", // `$p := ...;`
            other => {
                return Err(self.err(format!("expected a statement, found {}", other.describe())))
            }
        };
        match keyword {
            "set" => {
                self.next();
                let name = self.expect_ident()?;
                let signal = self.signal(&name, at)?;
                self.expect(&TokenKind::Assign)?;
                let value = self.parse_expr(at)?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::SignalSet { signal, value })
            }
            "wait" => {
                self.next();
                if self.at_keyword("until") {
                    self.next();
                    self.expect(&TokenKind::LParen)?;
                    let e = self.parse_expr(at)?;
                    self.expect(&TokenKind::RParen)?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::Wait(WaitCond::Until(e)))
                } else if self.at_keyword("for") {
                    self.next();
                    let n = self.expect_int()?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::Wait(WaitCond::For(n.max(0) as u64)))
                } else {
                    Err(self.err("expected `until` or `for` after `wait`"))
                }
            }
            "if" => {
                self.next();
                self.expect(&TokenKind::LParen)?;
                let cond = self.parse_expr(at)?;
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::LBrace)?;
                let then_body = self.parse_block(path, 0)?;
                let else_body = if self.at_keyword("else") {
                    self.next();
                    self.expect(&TokenKind::LBrace)?;
                    self.parse_block(path, 1)?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                })
            }
            "while" => {
                self.next();
                self.expect(&TokenKind::LParen)?;
                let cond = self.parse_expr(at)?;
                self.expect(&TokenKind::RParen)?;
                let trip_hint = if self.peek().kind == TokenKind::At {
                    self.next();
                    let hint_at = self.here();
                    let hint = self.expect_int()?.max(0);
                    Some(to_u32(hint, hint_at, "trip hint")?)
                } else {
                    None
                };
                self.expect(&TokenKind::LBrace)?;
                let body = self.parse_block(path, 0)?;
                Ok(Stmt::While {
                    cond,
                    body,
                    trip_hint,
                })
            }
            "for" => {
                self.next();
                let name = self.expect_ident()?;
                let var = self.variable(&name, at)?;
                self.expect(&TokenKind::Assign)?;
                let from = self.parse_expr(at)?;
                self.expect_keyword("to")?;
                let to = self.parse_expr(at)?;
                self.expect(&TokenKind::LBrace)?;
                let body = self.parse_block(path, 0)?;
                Ok(Stmt::For {
                    var,
                    from,
                    to,
                    body,
                })
            }
            "loop" => {
                self.next();
                self.expect(&TokenKind::LBrace)?;
                let body = self.parse_block(path, 0)?;
                Ok(Stmt::Loop { body })
            }
            "call" => {
                self.next();
                let name = self.expect_ident()?;
                let sub = self.subroutine(&name, at)?;
                self.expect(&TokenKind::LParen)?;
                let mut args = Vec::new();
                if self.peek().kind != TokenKind::RParen {
                    loop {
                        if self.at_keyword("in") {
                            self.next();
                            args.push(CallArg::In(self.parse_expr(at)?));
                        } else if self.at_keyword("out") {
                            self.next();
                            args.push(CallArg::Out(self.parse_lvalue(at)?));
                        } else {
                            return Err(self.err("expected `in` or `out` argument"));
                        }
                        if self.peek().kind == TokenKind::Comma {
                            self.next();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Call { sub, args })
            }
            "delay" => {
                self.next();
                let n = self.expect_int()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Delay(n.max(0) as u64))
            }
            "skip" => {
                self.next();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Skip)
            }
            _ => {
                // assignment: LVALUE := expr ;
                let target = self.parse_lvalue(at)?;
                self.expect(&TokenKind::Assign)?;
                let value = self.parse_expr(at)?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Assign { target, value })
            }
        }
    }

    fn parse_lvalue(&mut self, at: Span) -> Result<LValue, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Param(name) => {
                self.next();
                Ok(LValue::Param(name))
            }
            TokenKind::Ident(name) => {
                self.next();
                let var = self.variable(&name, at)?;
                if self.peek().kind == TokenKind::LBracket {
                    self.next();
                    let idx = self.nested(|p| p.parse_expr(at))?;
                    self.expect(&TokenKind::RBracket)?;
                    Ok(LValue::Index(var, idx))
                } else {
                    Ok(LValue::Var(var))
                }
            }
            other => Err(self.err(format!("expected an lvalue, found {}", other.describe()))),
        }
    }

    /// An expression; unresolved names in it are reported at `at`.
    fn parse_expr(&mut self, at: Span) -> Result<Expr, ParseError> {
        Ok(self.parse_binary(0, at)?.0)
    }

    /// Parses an expression of operators binding at least as tightly as
    /// `min_prec`, returning it with its height in nesting levels.
    fn parse_binary(&mut self, min_prec: u8, at: Span) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.parse_unary(at)?;
        #[allow(clippy::while_let_loop)] // two-level break reads clearer here
        loop {
            let op = match &self.peek().kind {
                TokenKind::Op(op) => match op_from_token(op) {
                    Some(op) => op,
                    None => break,
                },
                _ => break,
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.next();
            let (rhs, rhs_height) = self.nested(|p| p.parse_binary(prec + 1, at))?;
            // A left-associated chain deepens its first operand by one
            // level per operator without recursing.
            height = self.fits(1 + height.max(rhs_height))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_unary(&mut self, at: Span) -> Result<(Expr, usize), ParseError> {
        let op = match &self.peek().kind {
            TokenKind::Op(op) if op == "-" => UnOp::Neg,
            TokenKind::Op(op) if op == "!" => UnOp::Not,
            _ => return self.parse_primary(at),
        };
        self.next();
        let (e, height) = self.nested(|p| p.parse_unary(at))?;
        Ok((Expr::Unary(op, Box::new(e)), height + 1))
    }

    fn parse_primary(&mut self, at: Span) -> Result<(Expr, usize), ParseError> {
        self.fits(1)?;
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.next();
                Ok((Expr::Lit(v), 1))
            }
            TokenKind::Param(name) => {
                self.next();
                Ok((Expr::Param(name), 1))
            }
            TokenKind::Ident(name) => {
                self.next();
                if self.peek().kind == TokenKind::LBracket {
                    let var = self.variable(&name, at)?;
                    self.next();
                    let (idx, height) = self.nested(|p| p.parse_binary(0, at))?;
                    self.expect(&TokenKind::RBracket)?;
                    Ok((Expr::Index(var, Box::new(idx)), height + 1))
                } else {
                    Ok((self.name_expr(&name, at)?, 1))
                }
            }
            TokenKind::LParen => {
                self.next();
                let (e, height) = self.nested(|p| p.parse_binary(0, at))?;
                self.expect(&TokenKind::RParen)?;
                Ok((e, height + 1))
            }
            other => Err(self.err(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

fn op_from_token(op: &str) -> Option<BinOp> {
    Some(match op {
        "+" => BinOp::Add,
        "-" => BinOp::Sub,
        "*" => BinOp::Mul,
        "/" => BinOp::Div,
        "%" => BinOp::Rem,
        "==" => BinOp::Eq,
        "!=" => BinOp::Ne,
        "<" => BinOp::Lt,
        "<=" => BinOp::Le,
        ">" => BinOp::Gt,
        ">=" => BinOp::Ge,
        "&&" => BinOp::And,
        "||" => BinOp::Or,
        "&" => BinOp::BitAnd,
        "|" => BinOp::BitOr,
        "^" => BinOp::BitXor,
        "<<" => BinOp::Shl,
        ">>" => BinOp::Shr,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer;

    const FIG1: &str = r#"
spec fig1;

var x : int<16> = 0;

behavior A leaf {
  x := x + 5;
}

behavior B leaf {
  x := 1;
}

behavior C leaf {
  x := 2;
}

behavior Top seq {
  children { A; B; C; }
  transitions {
    A -> B when (x > 1);
    A -> C when (x < 1);
    B -> complete;
  }
}

top Top;
"#;

    #[test]
    fn parses_figure1_example() {
        let spec = parse(FIG1).expect("parses");
        assert_eq!(spec.name(), "fig1");
        assert_eq!(spec.behavior_count(), 4);
        let top = spec.behavior_by_name("Top").unwrap();
        assert_eq!(spec.behavior(top).transitions().len(), 3);
        assert_eq!(spec.top(), top);
    }

    #[test]
    fn round_trips_through_printer() {
        let spec = parse(FIG1).expect("parses");
        let text = printer::print(&spec);
        let spec2 = parse(&text).expect("reparses");
        assert_eq!(printer::print(&spec2), text);
    }

    #[test]
    fn spans_point_at_declarations_and_statements() {
        let (spec, map) = parse_with_spans(FIG1).expect("parses");
        let x = spec.variable_by_name("x").unwrap();
        assert_eq!(map.variable_span(x), Some(Span::new(4, 1)));
        let a = spec.behavior_by_name("A").unwrap();
        assert_eq!(map.behavior_span(a), Some(Span::new(6, 1)));
        // A's single statement `x := x + 5;` on line 7, indented two cols.
        let path = StmtPath::root(StmtOwner::Behavior(a)).child(0, 0);
        assert_eq!(map.stmt_span(&path), Some(Span::new(7, 3)));
        // First transition arc of Top on line 21.
        let top = spec.behavior_by_name("Top").unwrap();
        assert_eq!(map.transition_span(top, 0), Some(Span::new(21, 5)));
        assert_eq!(map.transition_span(top, 3), None);
    }

    #[test]
    fn nested_statement_spans_distinguish_branches() {
        let src = "spec s;\nvar x : int<16> = 0;\nbehavior L leaf {\n  if (x > 0) {\n    x := 1;\n  } else {\n    x := 2;\n  }\n}\nbehavior T seq { children { L; } }\ntop T;\n";
        let (spec, map) = parse_with_spans(src).expect("parses");
        let l = spec.behavior_by_name("L").unwrap();
        let if_path = StmtPath::root(StmtOwner::Behavior(l)).child(0, 0);
        assert_eq!(map.stmt_span(&if_path), Some(Span::new(4, 3)));
        assert_eq!(map.stmt_span(&if_path.child(0, 0)), Some(Span::new(5, 5)));
        assert_eq!(map.stmt_span(&if_path.child(1, 0)), Some(Span::new(7, 5)));
    }

    #[test]
    fn parses_all_statement_forms() {
        let src = r#"
spec all;
signal go : bit = 0;
var x : int<16> = 0;
var a : int<8>[4] = 0;
var i : int<8> = 0;

subroutine xfer(in addr : uint<8>, out data : int<16>) {
  $data := $addr + 1;
}

behavior L leaf {
  x := 1;
  a[0] := x;
  set go := 1;
  wait until (go == 1);
  wait for 3;
  if (x > 0) {
    skip;
  } else {
    delay 2;
  }
  while (x < 5) @9 {
    x := x + 1;
  }
  for i := 0 to 4 {
    a[i] := i;
  }
  call xfer(in 3, out x);
}

behavior Top seq {
  children { L; }
}

top Top;
"#;
        let spec = parse(src).expect("parses");
        let text = printer::print(&spec);
        let spec2 = parse(&text).expect("reparses");
        assert_eq!(printer::print(&spec2), text);
    }

    #[test]
    fn reports_unresolved_names() {
        let src = "spec s;\nbehavior L leaf {\n  y := 1;\n}\nbehavior Top seq {\n  children { L; }\n}\ntop Top;\n";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("unresolved"), "{err}");
        // The error points at the offending statement, not 0:0.
        assert_eq!((err.line, err.col), (3, 3));
    }

    #[test]
    fn reports_syntax_errors_with_position() {
        let err = parse("spec s\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    /// Parses a one-leaf spec with `body` on a thread with
    /// [`THREAD_STACK`]: a debug build needs more than a test thread's
    /// default stack to parse a spec nested [`MAX_NESTING`] deep.
    fn parse_leaf(body: String) -> Result<Spec, ParseError> {
        let src = format!(
            "spec s;\nvar x : int<16> = 0;\nbehavior L leaf {{\n{body}\n}}\n\
             behavior Top seq {{ children {{ L; }} }}\ntop Top;\n"
        );
        std::thread::Builder::new()
            .stack_size(THREAD_STACK)
            .spawn(move || parse(&src))
            .expect("spawn a parser thread")
            .join()
            .expect("the parser returns")
    }

    /// Leaf bodies whose deepest point is exactly `levels` deep (the
    /// statement is level 1), one per shape of nesting.
    fn nested_bodies(levels: usize) -> [(&'static str, String); 4] {
        let n = levels - 2;
        [
            (
                "parentheses",
                format!("x := {}x{};", "(".repeat(n), ")".repeat(n)),
            ),
            (
                "operator chain",
                format!("x := {};", vec!["x"; levels - 1].join(" || ")),
            ),
            ("unary chain", format!("x := {}x;", "- ".repeat(n))),
            (
                "nested if",
                format!("{}x := 1;{}", "if (x == 1) {\n".repeat(n), "}\n".repeat(n)),
            ),
        ]
    }

    #[test]
    fn nesting_at_the_bound_parses() {
        for (shape, body) in nested_bodies(MAX_NESTING) {
            if let Err(e) = parse_leaf(body) {
                panic!("{shape} at the bound: {e}");
            }
        }
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error() {
        let message = format!("nesting deeper than {MAX_NESTING} levels");
        // Far past the bound the parser answers as it does one level past
        // it, instead of overflowing its stack.
        for levels in [MAX_NESTING + 1, 200_000] {
            for (shape, body) in nested_bodies(levels) {
                let err = parse_leaf(body).unwrap_err();
                assert!(err.message.contains(&message), "{shape}, {levels}: {err}");
            }
        }
    }

    /// Names resolve through the parser's name table, not by scanning the
    /// spec: 100,000 variables, each assigned once in one leaf, parse in
    /// linear time (about 0.25 s on a 2-core x86-64 container, where a
    /// scan per name took over 10 s).
    #[cfg(not(debug_assertions))]
    #[test]
    fn hostile_wide_spec_parses_in_linear_time() {
        use std::fmt::Write as _;
        use std::time::{Duration, Instant};
        let n = 100_000;
        let mut src = String::from("spec wide;\n");
        for i in 0..n {
            writeln!(src, "var v{i} : int<16> = 0;").unwrap();
        }
        src.push_str("behavior L leaf {\n");
        for i in 0..n {
            writeln!(src, "  v{i} := {};", i % 1000).unwrap();
        }
        src.push_str("}\nbehavior Top seq { children { L; } }\ntop Top;\n");
        let start = Instant::now();
        let (spec, map) = parse_with_spans(&src).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(spec.variable_count(), n);
        let last = StmtPath::root(StmtOwner::Behavior(spec.behavior_by_name("L").unwrap()))
            .child(0, n as u32 - 1);
        assert_eq!(map.stmt_span(&last), Some(Span::new(2 * n as u32 + 2, 3)));
        assert!(elapsed < Duration::from_secs(2), "parsing took {elapsed:?}");
    }

    #[test]
    fn rejects_missing_top() {
        let err = parse("spec s;\nbehavior L leaf { }\n").unwrap_err();
        assert!(err.message.contains("top"));
    }

    #[test]
    fn validation_errors_carry_declaration_position() {
        // `x` declared scalar but indexed as an array: the structural
        // check fires and the error points at the declaration of `x`.
        let src = "spec s;\nvar x : int<16> = 0;\nbehavior L leaf {\n  x[0] := 1;\n}\nbehavior T seq { children { L; } }\ntop T;\n";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("indexed"), "{err}");
        assert_eq!((err.line, err.col), (2, 1));
    }

    #[test]
    fn parses_concurrent_behavior() {
        let src = "spec s;\nbehavior A leaf { }\nbehavior B leaf { }\nbehavior P conc {\n  children { A; B; }\n}\ntop P;\n";
        let spec = parse(src).expect("parses");
        let p = spec.behavior_by_name("P").unwrap();
        assert_eq!(spec.behavior(p).children().len(), 2);
    }

    #[test]
    fn negative_initializers() {
        let src = "spec s;\nvar x : int<16> = -5;\nbehavior L leaf { }\nbehavior T seq { children { L; } }\ntop T;\n";
        let spec = parse(src).expect("parses");
        let x = spec.variable_by_name("x").unwrap();
        assert_eq!(spec.variable(x).init(), -5);
    }
}
