//! Parser for the textual specification language.
//!
//! Parsing is two-phase: a recursive-descent pass builds a name-based
//! concrete syntax tree, then a resolver constructs the [`Spec`] (behaviors
//! may reference siblings declared later in the file, so ids cannot be
//! assigned in one pass). The grammar is exactly what
//! [`printer::print`](crate::printer::print) emits; `parse(print(s))`
//! reproduces `s` up to id numbering and is property-tested.
//!
//! [`parse_with_spans`] additionally returns a [`SourceMap`] recording the
//! source position of every declaration, transition and statement, which
//! is what lets downstream diagnostics point at real `file:line:col`
//! locations instead of just naming the offending object.
//!
//! Statements and expressions may nest at most [`MAX_NESTING`] levels
//! deep, so that no recursive pass over a parsed spec can exhaust a
//! thread's stack.

use std::collections::HashMap;

use crate::behavior::{Behavior, BehaviorKind, Transition, TransitionTarget};
use crate::error::ParseError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::ids::BehaviorId;
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
/// The parser, the resolver, the validator, the printer, the lints, the
/// refiner and the simulators all walk statements and expressions
/// recursively; past this bound the parser returns a [`ParseError`]
/// instead of building a tree those walks could overflow a stack on.
/// The simulators also descend the behavior hierarchy recursively, so
/// [`validate::check_all`] rejects a hierarchy deeper than this bound.
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
    let tokens = lex(input)?;
    let mut p = Parser::new(tokens);
    let cst = p.parse_spec()?;
    resolve(cst)
}

// ---------------------------------------------------------------------------
// Concrete syntax tree (names, not ids)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct CstSpec {
    name: String,
    span: Span,
    signals: Vec<CstDecl>,
    global_vars: Vec<CstDecl>,
    subroutines: Vec<CstSub>,
    behaviors: Vec<CstBehavior>,
    top: Option<(String, Span)>,
}

#[derive(Debug)]
struct CstDecl {
    name: String,
    ty: DataType,
    init: i64,
    span: Span,
}

#[derive(Debug)]
struct CstSub {
    name: String,
    params: Vec<(ParamDir, String, DataType)>,
    locals: Vec<CstDecl>,
    body: Vec<CstStmt>,
    span: Span,
}

#[derive(Debug)]
enum CstBehaviorKind {
    Leaf(Vec<CstStmt>),
    Seq {
        children: Vec<String>,
        transitions: Vec<CstTransition>,
    },
    Conc {
        children: Vec<String>,
    },
}

#[derive(Debug)]
struct CstBehavior {
    name: String,
    vars: Vec<CstDecl>,
    kind: CstBehaviorKind,
    server: bool,
    span: Span,
}

#[derive(Debug)]
struct CstTransition {
    from: String,
    cond: Option<CstExpr>,
    to: Option<String>, // None = complete
    span: Span,
}

#[derive(Debug)]
enum CstLValue {
    Name(String),
    Index(String, CstExpr),
    Param(String),
}

#[derive(Debug)]
struct CstStmt {
    kind: CstStmtKind,
    span: Span,
}

#[derive(Debug)]
enum CstStmtKind {
    Assign(CstLValue, CstExpr),
    SignalSet(String, CstExpr),
    WaitUntil(CstExpr),
    WaitFor(u64),
    If(CstExpr, Vec<CstStmt>, Vec<CstStmt>),
    While(CstExpr, Option<u32>, Vec<CstStmt>),
    For(String, CstExpr, CstExpr, Vec<CstStmt>),
    Loop(Vec<CstStmt>),
    Call(String, Vec<(ParamDir, CstCallArg)>),
    Delay(u64),
    Skip,
}

#[derive(Debug)]
enum CstCallArg {
    Expr(CstExpr),
    LValue(CstLValue),
}

#[derive(Debug)]
enum CstExpr {
    Lit(i64),
    Name(String),
    Index(String, Box<CstExpr>),
    Param(String),
    Unary(UnOp, Box<CstExpr>),
    Binary(BinOp, Box<CstExpr>, Box<CstExpr>),
}

// ---------------------------------------------------------------------------
// Recursive-descent parser
// ---------------------------------------------------------------------------

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels enclosing the construct being parsed.
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Self {
            tokens,
            pos: 0,
            depth: 0,
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
        let t = self.peek();
        ParseError::new(t.line, t.col, msg)
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

    fn parse_spec(&mut self) -> Result<CstSpec, ParseError> {
        let span = self.here();
        self.expect_keyword("spec")?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::Semi)?;

        let mut cst = CstSpec {
            name,
            span,
            signals: Vec::new(),
            global_vars: Vec::new(),
            subroutines: Vec::new(),
            behaviors: Vec::new(),
            top: None,
        };

        loop {
            match &self.peek().kind {
                TokenKind::Eof => break,
                TokenKind::Ident(kw) => match kw.as_str() {
                    "signal" => {
                        let d = self.parse_decl("signal")?;
                        cst.signals.push(d);
                    }
                    "var" => {
                        let d = self.parse_decl("var")?;
                        cst.global_vars.push(d);
                    }
                    "subroutine" => {
                        let s = self.parse_subroutine()?;
                        cst.subroutines.push(s);
                    }
                    "behavior" => {
                        let b = self.parse_behavior()?;
                        cst.behaviors.push(b);
                    }
                    "top" => {
                        let top_span = self.here();
                        self.next();
                        let t = self.expect_ident()?;
                        self.expect(&TokenKind::Semi)?;
                        cst.top = Some((t, top_span));
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
        Ok(cst)
    }

    /// `signal NAME : TYPE = INIT;` / `var NAME : TYPE = INIT;`
    fn parse_decl(&mut self, kw: &str) -> Result<CstDecl, ParseError> {
        let span = self.here();
        self.expect_keyword(kw)?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::Colon)?;
        let ty = self.parse_type()?;
        self.expect(&TokenKind::Eq)?;
        let init = self.expect_int()?;
        self.expect(&TokenKind::Semi)?;
        Ok(CstDecl {
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
            let len = self.expect_int()?;
            if len <= 0 {
                return Err(self.err("array length must be positive"));
            }
            self.expect(&TokenKind::RBracket)?;
            Ok(DataType::array(scalar, len as u32))
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

    fn parse_subroutine(&mut self) -> Result<CstSub, ParseError> {
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
                let pname = self.expect_ident()?;
                self.expect(&TokenKind::Colon)?;
                let ty = self.parse_type()?;
                params.push((dir, pname, ty));
                if self.peek().kind == TokenKind::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::LBrace)?;
        let mut locals = Vec::new();
        while self.at_keyword("var") {
            locals.push(self.parse_decl("var")?);
        }
        let body = self.parse_stmts_until_rbrace()?;
        Ok(CstSub {
            name,
            params,
            locals,
            body,
            span,
        })
    }

    fn parse_behavior(&mut self) -> Result<CstBehavior, ParseError> {
        let span = self.here();
        self.expect_keyword("behavior")?;
        let name = self.expect_ident()?;
        let kind_word = self.expect_ident()?;
        let server = if self.at_keyword("server") {
            self.next();
            true
        } else {
            false
        };
        self.expect(&TokenKind::LBrace)?;
        let mut vars = Vec::new();
        while self.at_keyword("var") {
            vars.push(self.parse_decl("var")?);
        }
        let kind = match kind_word.as_str() {
            "leaf" => CstBehaviorKind::Leaf(self.parse_stmts_until_rbrace()?),
            "seq" => {
                let children = self.parse_children()?;
                let transitions = if self.at_keyword("transitions") {
                    self.parse_transitions()?
                } else {
                    Vec::new()
                };
                self.expect(&TokenKind::RBrace)?;
                CstBehaviorKind::Seq {
                    children,
                    transitions,
                }
            }
            "conc" => {
                let children = self.parse_children()?;
                self.expect(&TokenKind::RBrace)?;
                CstBehaviorKind::Conc { children }
            }
            other => {
                return Err(self.err(format!("expected `leaf`, `seq` or `conc`, found `{other}`")))
            }
        };
        Ok(CstBehavior {
            name,
            vars,
            kind,
            server,
            span,
        })
    }

    fn parse_children(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect_keyword("children")?;
        self.expect(&TokenKind::LBrace)?;
        let mut names = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            names.push(self.expect_ident()?);
            self.expect(&TokenKind::Semi)?;
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(names)
    }

    fn parse_transitions(&mut self) -> Result<Vec<CstTransition>, ParseError> {
        self.expect_keyword("transitions")?;
        self.expect(&TokenKind::LBrace)?;
        let mut arcs = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            let span = self.here();
            let from = self.expect_ident()?;
            self.expect(&TokenKind::Arrow)?;
            let to_name = self.expect_ident()?;
            let to = if to_name == "complete" {
                None
            } else {
                Some(to_name)
            };
            let cond = if self.at_keyword("when") {
                self.next();
                self.expect(&TokenKind::LParen)?;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Some(e)
            } else {
                None
            };
            self.expect(&TokenKind::Semi)?;
            arcs.push(CstTransition {
                from,
                cond,
                to,
                span,
            });
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(arcs)
    }

    fn parse_stmts_until_rbrace(&mut self) -> Result<Vec<CstStmt>, ParseError> {
        let mut stmts = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            if self.peek().kind == TokenKind::Eof {
                return Err(self.err("unexpected end of input inside a block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<CstStmt, ParseError> {
        let span = self.here();
        let kind = self.nested(Self::parse_stmt_kind)?;
        Ok(CstStmt { kind, span })
    }

    fn parse_stmt_kind(&mut self) -> Result<CstStmtKind, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(kw) => match kw.as_str() {
                "set" => {
                    self.next();
                    let name = self.expect_ident()?;
                    self.expect(&TokenKind::Assign)?;
                    let e = self.parse_expr()?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(CstStmtKind::SignalSet(name, e))
                }
                "wait" => {
                    self.next();
                    if self.at_keyword("until") {
                        self.next();
                        self.expect(&TokenKind::LParen)?;
                        let e = self.parse_expr()?;
                        self.expect(&TokenKind::RParen)?;
                        self.expect(&TokenKind::Semi)?;
                        Ok(CstStmtKind::WaitUntil(e))
                    } else if self.at_keyword("for") {
                        self.next();
                        let n = self.expect_int()?;
                        self.expect(&TokenKind::Semi)?;
                        Ok(CstStmtKind::WaitFor(n.max(0) as u64))
                    } else {
                        Err(self.err("expected `until` or `for` after `wait`"))
                    }
                }
                "if" => {
                    self.next();
                    self.expect(&TokenKind::LParen)?;
                    let cond = self.parse_expr()?;
                    self.expect(&TokenKind::RParen)?;
                    self.expect(&TokenKind::LBrace)?;
                    let then_body = self.parse_stmts_until_rbrace()?;
                    let else_body = if self.at_keyword("else") {
                        self.next();
                        self.expect(&TokenKind::LBrace)?;
                        self.parse_stmts_until_rbrace()?
                    } else {
                        Vec::new()
                    };
                    Ok(CstStmtKind::If(cond, then_body, else_body))
                }
                "while" => {
                    self.next();
                    self.expect(&TokenKind::LParen)?;
                    let cond = self.parse_expr()?;
                    self.expect(&TokenKind::RParen)?;
                    let hint = if self.peek().kind == TokenKind::At {
                        self.next();
                        Some(self.expect_int()?.max(0) as u32)
                    } else {
                        None
                    };
                    self.expect(&TokenKind::LBrace)?;
                    let body = self.parse_stmts_until_rbrace()?;
                    Ok(CstStmtKind::While(cond, hint, body))
                }
                "for" => {
                    self.next();
                    let var = self.expect_ident()?;
                    self.expect(&TokenKind::Assign)?;
                    let from = self.parse_expr()?;
                    self.expect_keyword("to")?;
                    let to = self.parse_expr()?;
                    self.expect(&TokenKind::LBrace)?;
                    let body = self.parse_stmts_until_rbrace()?;
                    Ok(CstStmtKind::For(var, from, to, body))
                }
                "loop" => {
                    self.next();
                    self.expect(&TokenKind::LBrace)?;
                    let body = self.parse_stmts_until_rbrace()?;
                    Ok(CstStmtKind::Loop(body))
                }
                "call" => {
                    self.next();
                    let name = self.expect_ident()?;
                    self.expect(&TokenKind::LParen)?;
                    let mut args = Vec::new();
                    if self.peek().kind != TokenKind::RParen {
                        loop {
                            if self.at_keyword("in") {
                                self.next();
                                args.push((ParamDir::In, CstCallArg::Expr(self.parse_expr()?)));
                            } else if self.at_keyword("out") {
                                self.next();
                                args.push((
                                    ParamDir::Out,
                                    CstCallArg::LValue(self.parse_lvalue()?),
                                ));
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
                    Ok(CstStmtKind::Call(name, args))
                }
                "delay" => {
                    self.next();
                    let n = self.expect_int()?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(CstStmtKind::Delay(n.max(0) as u64))
                }
                "skip" => {
                    self.next();
                    self.expect(&TokenKind::Semi)?;
                    Ok(CstStmtKind::Skip)
                }
                _ => {
                    // assignment: NAME [ '[' expr ']' ] := expr ;
                    let lv = self.parse_lvalue()?;
                    self.expect(&TokenKind::Assign)?;
                    let e = self.parse_expr()?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(CstStmtKind::Assign(lv, e))
                }
            },
            TokenKind::Param(_) => {
                let lv = self.parse_lvalue()?;
                self.expect(&TokenKind::Assign)?;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::Semi)?;
                Ok(CstStmtKind::Assign(lv, e))
            }
            other => Err(self.err(format!("expected a statement, found {}", other.describe()))),
        }
    }

    fn parse_lvalue(&mut self) -> Result<CstLValue, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Param(name) => {
                self.next();
                Ok(CstLValue::Param(name))
            }
            TokenKind::Ident(name) => {
                self.next();
                if self.peek().kind == TokenKind::LBracket {
                    self.next();
                    let idx = self.nested(Self::parse_expr)?;
                    self.expect(&TokenKind::RBracket)?;
                    Ok(CstLValue::Index(name, idx))
                } else {
                    Ok(CstLValue::Name(name))
                }
            }
            other => Err(self.err(format!("expected an lvalue, found {}", other.describe()))),
        }
    }

    fn parse_expr(&mut self) -> Result<CstExpr, ParseError> {
        Ok(self.parse_binary(0)?.0)
    }

    /// Parses an expression of operators binding at least as tightly as
    /// `min_prec`, returning it with its height in nesting levels.
    fn parse_binary(&mut self, min_prec: u8) -> Result<(CstExpr, usize), ParseError> {
        let (mut lhs, mut height) = self.parse_unary()?;
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
            let (rhs, rhs_height) = self.nested(|p| p.parse_binary(prec + 1))?;
            // A left-associated chain deepens its first operand by one
            // level per operator without recursing.
            height = self.fits(1 + height.max(rhs_height))?;
            lhs = CstExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_unary(&mut self) -> Result<(CstExpr, usize), ParseError> {
        let op = match &self.peek().kind {
            TokenKind::Op(op) if op == "-" => UnOp::Neg,
            TokenKind::Op(op) if op == "!" => UnOp::Not,
            _ => return self.parse_primary(),
        };
        self.next();
        let (e, height) = self.nested(Self::parse_unary)?;
        Ok((CstExpr::Unary(op, Box::new(e)), height + 1))
    }

    fn parse_primary(&mut self) -> Result<(CstExpr, usize), ParseError> {
        self.fits(1)?;
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.next();
                Ok((CstExpr::Lit(v), 1))
            }
            TokenKind::Param(name) => {
                self.next();
                Ok((CstExpr::Param(name), 1))
            }
            TokenKind::Ident(name) => {
                self.next();
                if self.peek().kind == TokenKind::LBracket {
                    self.next();
                    let (idx, height) = self.nested(|p| p.parse_binary(0))?;
                    self.expect(&TokenKind::RBracket)?;
                    Ok((CstExpr::Index(name, Box::new(idx)), height + 1))
                } else {
                    Ok((CstExpr::Name(name), 1))
                }
            }
            TokenKind::LParen => {
                self.next();
                let (e, height) = self.nested(|p| p.parse_binary(0))?;
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

// ---------------------------------------------------------------------------
// Resolution: CST -> Spec (+ SourceMap)
// ---------------------------------------------------------------------------

fn resolve(cst: CstSpec) -> Result<(Spec, SourceMap), ParseError> {
    let mut spec = Spec::new(cst.name.clone());
    let mut map = SourceMap::new();

    for s in &cst.signals {
        let id = spec.add_signal(s.name.clone(), s.ty, s.init);
        map.record_signal(id, s.span);
    }
    for v in &cst.global_vars {
        let id = spec.add_variable(v.name.clone(), v.ty, v.init, None);
        map.record_variable(id, v.span);
    }

    // Create behaviors first (empty), so children and transitions resolve;
    // names resolve to the first behavior declared with them.
    let mut behavior_ids = Vec::new();
    let mut behavior_names: HashMap<&str, BehaviorId> = HashMap::new();
    for b in &cst.behaviors {
        let id = spec.add_behavior(Behavior::new(
            b.name.clone(),
            BehaviorKind::Leaf { body: Vec::new() },
        ));
        map.record_behavior(id, b.span);
        if b.server {
            spec.behavior_mut(id).set_server(true);
        }
        behavior_ids.push(id);
        behavior_names.entry(b.name.as_str()).or_insert(id);
        for v in &b.vars {
            let vid = spec.add_variable(v.name.clone(), v.ty, v.init, Some(id));
            map.record_variable(vid, v.span);
        }
    }

    // Create subroutines with signatures and locals (bodies later, so that
    // protocol subroutines may call each other).
    let mut sub_ids = Vec::new();
    for s in &cst.subroutines {
        let params = s
            .params
            .iter()
            .map(|(dir, name, ty)| Parameter {
                name: name.clone(),
                dir: *dir,
                ty: *ty,
            })
            .collect();
        let id = spec.add_subroutine(Subroutine::new(s.name.clone(), params, Vec::new()));
        map.record_subroutine(id, s.span);
        for l in &s.locals {
            let vid = spec.add_variable(l.name.clone(), l.ty, l.init, None);
            map.record_variable(vid, l.span);
            spec.subroutine_mut(id).declare_local(vid);
        }
        sub_ids.push(id);
    }

    // Fill in behavior kinds.
    for (b, &id) in cst.behaviors.iter().zip(&behavior_ids) {
        let kind = match &b.kind {
            CstBehaviorKind::Leaf(body) => BehaviorKind::Leaf {
                body: resolve_stmts(
                    &spec,
                    &mut map,
                    &StmtPath::root(StmtOwner::Behavior(id)),
                    0,
                    body,
                )?,
            },
            CstBehaviorKind::Seq {
                children,
                transitions,
            } => {
                let child_ids = children
                    .iter()
                    .map(|n| lookup_behavior(&behavior_names, n, b.span))
                    .collect::<Result<Vec<_>, _>>()?;
                let arcs = transitions
                    .iter()
                    .enumerate()
                    .map(|(arc_index, t)| {
                        map.record_transition(id, arc_index, t.span);
                        Ok(Transition {
                            from: lookup_behavior(&behavior_names, &t.from, t.span)?,
                            cond: t
                                .cond
                                .as_ref()
                                .map(|c| resolve_expr(&spec, c, t.span))
                                .transpose()?,
                            to: match &t.to {
                                Some(n) => TransitionTarget::Behavior(lookup_behavior(
                                    &behavior_names,
                                    n,
                                    t.span,
                                )?),
                                None => TransitionTarget::Complete,
                            },
                        })
                    })
                    .collect::<Result<Vec<_>, ParseError>>()?;
                BehaviorKind::Seq {
                    children: child_ids,
                    transitions: arcs,
                }
            }
            CstBehaviorKind::Conc { children } => BehaviorKind::Concurrent {
                children: children
                    .iter()
                    .map(|n| lookup_behavior(&behavior_names, n, b.span))
                    .collect::<Result<Vec<_>, _>>()?,
            },
        };
        *spec.behavior_mut(id).kind_mut() = kind;
    }

    // Fill in subroutine bodies.
    for (s, &id) in cst.subroutines.iter().zip(&sub_ids) {
        let body = resolve_stmts(
            &spec,
            &mut map,
            &StmtPath::root(StmtOwner::Subroutine(id)),
            0,
            &s.body,
        )?;
        *spec.subroutine_mut(id).body_mut() = body;
    }

    match &cst.top {
        Some((name, span)) => {
            let top = lookup_behavior(&behavior_names, name, *span)?;
            spec.set_top(top);
        }
        None => {
            return Err(ParseError::new(
                cst.span.line,
                cst.span.col,
                "missing `top` declaration",
            ))
        }
    }

    Ok((spec, map))
}

fn lookup_behavior(
    names: &HashMap<&str, BehaviorId>,
    name: &str,
    span: Span,
) -> Result<BehaviorId, ParseError> {
    names.get(name).copied().ok_or_else(|| {
        ParseError::new(span.line, span.col, format!("unresolved behavior `{name}`"))
    })
}

fn resolve_stmts(
    spec: &Spec,
    map: &mut SourceMap,
    parent: &StmtPath,
    block: u8,
    stmts: &[CstStmt],
) -> Result<Vec<Stmt>, ParseError> {
    stmts
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let path = parent.child(block, i as u32);
            map.record_stmt(path.clone(), s.span);
            resolve_stmt(spec, map, &path, s)
        })
        .collect()
}

fn resolve_stmt(
    spec: &Spec,
    map: &mut SourceMap,
    path: &StmtPath,
    s: &CstStmt,
) -> Result<Stmt, ParseError> {
    let span = s.span;
    Ok(match &s.kind {
        CstStmtKind::Assign(lv, e) => Stmt::Assign {
            target: resolve_lvalue(spec, lv, span)?,
            value: resolve_expr(spec, e, span)?,
        },
        CstStmtKind::SignalSet(name, e) => Stmt::SignalSet {
            signal: spec.signal_by_name(name).ok_or_else(|| {
                ParseError::new(span.line, span.col, format!("unresolved signal `{name}`"))
            })?,
            value: resolve_expr(spec, e, span)?,
        },
        CstStmtKind::WaitUntil(e) => Stmt::Wait(WaitCond::Until(resolve_expr(spec, e, span)?)),
        CstStmtKind::WaitFor(n) => Stmt::Wait(WaitCond::For(*n)),
        CstStmtKind::If(c, t, e) => Stmt::If {
            cond: resolve_expr(spec, c, span)?,
            then_body: resolve_stmts(spec, map, path, 0, t)?,
            else_body: resolve_stmts(spec, map, path, 1, e)?,
        },
        CstStmtKind::While(c, hint, body) => Stmt::While {
            cond: resolve_expr(spec, c, span)?,
            body: resolve_stmts(spec, map, path, 0, body)?,
            trip_hint: *hint,
        },
        CstStmtKind::For(var, from, to, body) => Stmt::For {
            var: spec.variable_by_name(var).ok_or_else(|| {
                ParseError::new(span.line, span.col, format!("unresolved variable `{var}`"))
            })?,
            from: resolve_expr(spec, from, span)?,
            to: resolve_expr(spec, to, span)?,
            body: resolve_stmts(spec, map, path, 0, body)?,
        },
        CstStmtKind::Loop(body) => Stmt::Loop {
            body: resolve_stmts(spec, map, path, 0, body)?,
        },
        CstStmtKind::Call(name, args) => {
            let sub = spec.subroutine_by_name(name).ok_or_else(|| {
                ParseError::new(
                    span.line,
                    span.col,
                    format!("unresolved subroutine `{name}`"),
                )
            })?;
            let args = args
                .iter()
                .map(|(dir, a)| {
                    Ok(match (dir, a) {
                        (ParamDir::In, CstCallArg::Expr(e)) => {
                            CallArg::In(resolve_expr(spec, e, span)?)
                        }
                        (ParamDir::Out, CstCallArg::LValue(lv)) => {
                            CallArg::Out(resolve_lvalue(spec, lv, span)?)
                        }
                        _ => unreachable!("parser pairs directions with arg forms"),
                    })
                })
                .collect::<Result<Vec<_>, ParseError>>()?;
            Stmt::Call { sub, args }
        }
        CstStmtKind::Delay(n) => Stmt::Delay(*n),
        CstStmtKind::Skip => Stmt::Skip,
    })
}

fn resolve_lvalue(spec: &Spec, lv: &CstLValue, span: Span) -> Result<LValue, ParseError> {
    Ok(match lv {
        CstLValue::Name(name) => LValue::Var(spec.variable_by_name(name).ok_or_else(|| {
            ParseError::new(span.line, span.col, format!("unresolved variable `{name}`"))
        })?),
        CstLValue::Index(name, idx) => LValue::Index(
            spec.variable_by_name(name).ok_or_else(|| {
                ParseError::new(span.line, span.col, format!("unresolved variable `{name}`"))
            })?,
            resolve_expr(spec, idx, span)?,
        ),
        CstLValue::Param(name) => LValue::Param(name.clone()),
    })
}

fn resolve_expr(spec: &Spec, e: &CstExpr, span: Span) -> Result<Expr, ParseError> {
    Ok(match e {
        CstExpr::Lit(v) => Expr::Lit(*v),
        CstExpr::Param(name) => Expr::Param(name.clone()),
        CstExpr::Name(name) => {
            if let Some(v) = spec.variable_by_name(name) {
                Expr::Var(v)
            } else if let Some(s) = spec.signal_by_name(name) {
                Expr::Signal(s)
            } else {
                return Err(ParseError::new(
                    span.line,
                    span.col,
                    format!("unresolved name `{name}`"),
                ));
            }
        }
        CstExpr::Index(name, idx) => Expr::Index(
            spec.variable_by_name(name).ok_or_else(|| {
                ParseError::new(span.line, span.col, format!("unresolved variable `{name}`"))
            })?,
            Box::new(resolve_expr(spec, idx, span)?),
        ),
        CstExpr::Unary(op, inner) => Expr::Unary(*op, Box::new(resolve_expr(spec, inner, span)?)),
        CstExpr::Binary(op, l, r) => Expr::Binary(
            *op,
            Box::new(resolve_expr(spec, l, span)?),
            Box::new(resolve_expr(spec, r, span)?),
        ),
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
