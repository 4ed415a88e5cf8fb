//! Error types for specification construction, validation and parsing.

use std::error::Error;
use std::fmt;

use crate::ids::{BehaviorId, SignalId, SubroutineId, VarId};

/// An error raised while building or validating a [`Spec`](crate::Spec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A behavior id does not exist in the spec.
    UnknownBehavior(BehaviorId),
    /// A variable id does not exist in the spec.
    UnknownVar(VarId),
    /// A signal id does not exist in the spec.
    UnknownSignal(SignalId),
    /// A subroutine id does not exist in the spec.
    UnknownSubroutine(SubroutineId),
    /// Two entities of the same kind share a name.
    DuplicateName {
        /// The entity kind ("behavior", "variable", ...).
        kind: &'static str,
        /// The clashing name.
        name: String,
    },
    /// A transition references a behavior that is not a child of the
    /// composite declaring it.
    TransitionNotSibling {
        /// The composite behavior owning the transition.
        parent: BehaviorId,
        /// The offending endpoint.
        endpoint: BehaviorId,
    },
    /// A behavior appears as a child of more than one composite, or of the
    /// same composite twice.
    SharedChild(BehaviorId),
    /// The behavior hierarchy contains a cycle.
    HierarchyCycle(BehaviorId),
    /// The designated top behavior is a child of another behavior.
    TopIsChild(BehaviorId),
    /// The behavior sits more than
    /// [`MAX_NESTING`](crate::parser::MAX_NESTING) levels deep in the
    /// hierarchy (the first such behavior is reported).
    HierarchyTooDeep(BehaviorId),
    /// A call's argument list does not match the subroutine signature.
    CallArityMismatch {
        /// The called subroutine.
        sub: SubroutineId,
        /// Number of formal parameters.
        expected: usize,
        /// Number of actual arguments.
        found: usize,
    },
    /// An array variable was accessed without an index, or a scalar with one.
    IndexingMismatch(VarId),
    /// A name lookup failed during parsing or building.
    UnresolvedName(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownBehavior(b) => write!(f, "unknown behavior id {b}"),
            SpecError::UnknownVar(v) => write!(f, "unknown variable id {v}"),
            SpecError::UnknownSignal(s) => write!(f, "unknown signal id {s}"),
            SpecError::UnknownSubroutine(s) => write!(f, "unknown subroutine id {s}"),
            SpecError::DuplicateName { kind, name } => {
                write!(f, "duplicate {kind} name `{name}`")
            }
            SpecError::TransitionNotSibling { parent, endpoint } => write!(
                f,
                "transition in behavior {parent} references non-child {endpoint}"
            ),
            SpecError::SharedChild(b) => {
                write!(f, "behavior {b} is a child of more than one composite")
            }
            SpecError::HierarchyCycle(b) => {
                write!(f, "behavior hierarchy contains a cycle through {b}")
            }
            SpecError::TopIsChild(b) => {
                write!(f, "top behavior {b} is a child of another behavior")
            }
            SpecError::HierarchyTooDeep(b) => write!(
                f,
                "behavior {b} is nested deeper than {} levels",
                crate::parser::MAX_NESTING
            ),
            SpecError::CallArityMismatch {
                sub,
                expected,
                found,
            } => write!(
                f,
                "call to subroutine {sub} has {found} arguments, expected {expected}"
            ),
            SpecError::IndexingMismatch(v) => write!(
                f,
                "variable {v} indexed as array but declared scalar, or vice versa"
            ),
            SpecError::UnresolvedName(n) => write!(f, "unresolved name `{n}`"),
        }
    }
}

impl Error for SpecError {}

/// A parse error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error at the given position.
    pub fn new(line: u32, col: u32, message: impl Into<String>) -> Self {
        Self {
            line,
            col,
            message: message.into(),
        }
    }

    /// Renders the conventional `file:line:col: message` diagnostic line
    /// (the file prefix is dropped when `file` is empty) — the one format
    /// shared by the CLI front end and the serve protocol.
    ///
    /// ```
    /// let e = modref_spec::ParseError::new(3, 7, "expected `;`");
    /// assert_eq!(e.render("m.spec"), "m.spec:3:7: expected `;`");
    /// assert_eq!(e.render(""), "3:7: expected `;`");
    /// ```
    pub fn render(&self, file: &str) -> String {
        if file.is_empty() {
            format!("{}:{}: {}", self.line, self.col, self.message)
        } else {
            format!("{file}:{}:{}: {}", self.line, self.col, self.message)
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = SpecError::DuplicateName {
            kind: "behavior",
            name: "A".into(),
        };
        assert_eq!(e.to_string(), "duplicate behavior name `A`");
    }

    #[test]
    fn parse_error_carries_position() {
        let e = ParseError::new(3, 7, "expected `{`");
        assert_eq!(e.to_string(), "parse error at 3:7: expected `{`");
    }

    #[test]
    fn errors_implement_std_error() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(SpecError::UnknownVar(VarId::from_raw(0)));
        takes_err(ParseError::new(1, 1, "x"));
    }
}
