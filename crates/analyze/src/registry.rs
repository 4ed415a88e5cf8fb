//! The lint registry: every lint the engine can emit, with stable codes,
//! default severities, and per-run enable/deny configuration.

use std::collections::BTreeSet;

use crate::diag::{Diagnostic, Severity};

/// A registered lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lint {
    /// Stable code, e.g. `"DF01"`.
    pub code: &'static str,
    /// Short kebab-case name, e.g. `"use-before-def"`.
    pub name: &'static str,
    /// Severity the lint fires at unless denied.
    pub default_severity: Severity,
    /// One-line description (shown by docs and `modref lint` help).
    pub description: &'static str,
    /// Longer documentation shown by `modref lint --explain CODE`: what
    /// the lint detects, why it matters, and how to fix it.
    pub explain: &'static str,
}

/// Every lint the engine knows, in code order. Structural (`ST`),
/// dataflow (`DF`), concurrency (`CC`), refinement-conformance (`RC`)
/// and deadlock/liveness (`DL`) families.
pub const LINTS: &[Lint] = &[
    Lint {
        code: "ST01",
        name: "duplicate-name",
        default_severity: Severity::Error,
        description: "two entities of the same kind share a name",
        explain: "Behaviors, variables, signals and subroutines each live in a flat \
                  namespace; a duplicate name makes every later reference ambiguous and \
                  the refiner's generated names can collide with it. Rename one of the \
                  two entities.",
    },
    Lint {
        code: "ST02",
        name: "broken-hierarchy",
        default_severity: Severity::Error,
        description: "behavior hierarchy is not a tree rooted at top (shared child, cycle, top used as child, dangling id, nested too deep)",
        explain: "The behavior hierarchy must form a tree rooted at `top`: every composite \
                  owns its children exclusively. A shared child, a cycle, `top` used as a \
                  child, or a dangling id breaks the execution semantics, so all deeper \
                  analyses are skipped until the hierarchy is fixed. A hierarchy nested \
                  deeper than the statement nesting bound (512 levels) is rejected too: \
                  the simulators and lints descend it recursively.",
    },
    Lint {
        code: "ST03",
        name: "foreign-transition",
        default_severity: Severity::Error,
        description: "transition endpoint is not a child of the composite declaring it",
        explain: "Sequential composites may only transition between their own direct \
                  children. An arc whose source or target lives elsewhere in the tree can \
                  never fire and usually indicates a copy-paste error in the composite \
                  body. Move the arc into the composite that owns both endpoints.",
    },
    Lint {
        code: "ST04",
        name: "call-arity",
        default_severity: Severity::Error,
        description: "call argument list does not match the subroutine signature",
        explain: "A `call` must supply exactly one argument per declared parameter, with \
                  `out` parameters bound to assignable lvalues. A mismatch would read or \
                  clobber arbitrary slots at simulation time, so it is rejected statically.",
    },
    Lint {
        code: "ST05",
        name: "indexing-mismatch",
        default_severity: Severity::Error,
        description: "array accessed without an index, or scalar with one",
        explain: "Array variables must always be accessed through an index expression and \
                  scalars never. Mixing the two up silently reads element 0 in some HDLs; \
                  here it is a hard error. Add or remove the index.",
    },
    Lint {
        code: "ST06",
        name: "unresolved-ref",
        default_severity: Severity::Error,
        description: "reference to a variable, signal or subroutine that does not exist",
        explain: "An expression or statement names an entity the spec never declares — \
                  typically a typo or a declaration deleted without its uses. Declare the \
                  entity or fix the reference.",
    },
    Lint {
        code: "DF01",
        name: "use-before-def",
        default_severity: Severity::Warning,
        description: "behavior-local variable may be read before any assignment on some path",
        explain: "On at least one control-flow path this behavior reads a private variable \
                  before any assignment reaches it, so the read sees the declared initial \
                  value. If that is intended, assign it explicitly at the body's start; \
                  otherwise a path is missing a definition.",
    },
    Lint {
        code: "DF02",
        name: "dead-store",
        default_severity: Severity::Warning,
        description: "assignment to a private variable whose value is never read afterwards",
        explain: "The assigned value can never be observed: every path to a read passes \
                  through another assignment first (or no read follows at all). Delete the \
                  store or move the read it was meant to feed.",
    },
    Lint {
        code: "DF03",
        name: "unused-variable",
        default_severity: Severity::Warning,
        description: "variable is never read or written anywhere in the spec",
        explain: "No statement or expression in any behavior or subroutine mentions this \
                  variable. It costs a state slot in every simulation and suggests an \
                  incomplete edit. Remove the declaration or wire it up.",
    },
    Lint {
        code: "DF04",
        name: "unused-subroutine",
        default_severity: Severity::Warning,
        description: "subroutine is never called",
        explain: "No behavior (or other subroutine) calls this subroutine, so its body is \
                  dead code that still gets validated, refined and compiled. Remove it or \
                  add the missing call.",
    },
    Lint {
        code: "DF05",
        name: "unreachable-behavior",
        default_severity: Severity::Warning,
        description: "behavior can never become active (not reachable from top, or no transition path reaches it)",
        explain: "The behavior is declared but can never execute: it hangs outside the \
                  tree reachable from `top`, or no chain of transitions inside its parent \
                  composite ever selects it. Connect it or delete it.",
    },
    Lint {
        code: "DF06",
        name: "shadowed-transition",
        default_severity: Severity::Warning,
        description: "transition can never fire (shadowed by an earlier unconditional arc from the same source, or guard is constant false)",
        explain: "Transitions from one source are tried in declaration order and the first \
                  match wins. An arc after an unconditional arc, or one whose guard is \
                  constant false, can never be chosen. Reorder the arcs or fix the guard.",
    },
    Lint {
        code: "CC01",
        name: "shared-write-race",
        default_severity: Severity::Note,
        description: "shared variable with concurrent accessors of which at least one writes — an access the refinement must serialize",
        explain: "Two concurrently-active behaviors access the same shared variable and at \
                  least one writes it. The abstract model interleaves them atomically, but \
                  any hardware refinement must serialize the access (bus + arbiter); the \
                  note marks exactly the accesses the refinement has to protect.",
    },
    Lint {
        code: "RC01",
        name: "arbiter-missing",
        default_severity: Severity::Error,
        description: "refined bus has multiple masters but no arbiter",
        explain: "A refined bus with two or more masters needs an arbiter to serialize \
                  transactions; without one, concurrent starts corrupt the address and \
                  data wires. Re-run refinement with arbitration enabled or assign the \
                  masters to different buses.",
    },
    Lint {
        code: "RC02",
        name: "address-overlap",
        default_severity: Severity::Error,
        description: "two memory modules map overlapping address ranges",
        explain: "Two memory modules on the same bus claim intersecting address ranges, so \
                  a transaction in the overlap would select both. Adjust the memory map so \
                  every address decodes to exactly one module.",
    },
    Lint {
        code: "RC03",
        name: "unmatched-send-recv",
        default_severity: Severity::Error,
        description: "message-passing bus with senders but no receivers (or vice versa) — a deadlock candidate",
        explain: "A message-passing channel's send blocks until a matching receive (and \
                  vice versa). A bus where only one side exists makes the first \
                  transaction block forever. Add the missing peer or remove the channel.",
    },
    Lint {
        code: "RC04",
        name: "width-mismatch",
        default_severity: Severity::Error,
        description: "channel data wider than the bus carrying it, or address range exceeding the bus address width",
        explain: "The refined bus physically cannot carry the mapped traffic: a data item \
                  wider than the data wires or an address beyond the address wires would \
                  be truncated in hardware. Widen the bus or split the transfer.",
    },
    Lint {
        code: "DL01",
        name: "never-enabled-wait",
        default_severity: Severity::Error,
        description: "wait whose condition is false for every value any write can produce",
        explain: "Interval analysis over every write in the spec proves this wait's \
                  condition can never evaluate true — e.g. waiting for `s == 2` when every \
                  write to `s` is 0 or 1. The process blocks forever the moment it reaches \
                  the wait, and the whole simulation deadlocks once its siblings finish or \
                  block. Fix the condition or the writes feeding it.",
    },
    Lint {
        code: "DL02",
        name: "unwritten-wait-signal",
        default_severity: Severity::Error,
        description: "wait on a signal that no concurrent process ever writes",
        explain: "The wait tests a signal that no behavior or subroutine anywhere assigns, \
                  and its initial value does not satisfy the condition — the classic \
                  forgotten half of a handshake. No execution can ever wake the process. \
                  Drive the signal from the peer process or wait on the right one.",
    },
    Lint {
        code: "DL03",
        name: "busy-loop",
        default_severity: Severity::Error,
        description: "statically-constant infinite loop containing no wait or delay",
        explain: "A `loop`, or a `while` whose guard interval analysis proves permanently \
                  true, contains no wait, delay or call: it spins forever within a single \
                  simulation instant, so time never advances and every kernel runs into \
                  its step limit. Add a `wait`/`delay` inside the loop or bound it.",
    },
    Lint {
        code: "DL04",
        name: "circular-wait",
        default_severity: Severity::Error,
        description: "circular wait: every write that could satisfy the condition sits behind waits that never pass",
        explain: "A greatest-fixpoint analysis over the inter-process wait-dependency \
                  graph (process -> wait condition -> writers) shows this wait can never \
                  pass: every write that could satisfy it is itself blocked behind waits \
                  in the same dead set. A strongly connected component in that graph is a \
                  classic circular-wait deadlock, e.g. two processes each waiting for the \
                  other to signal first. Reorder the handshake so one side signals before \
                  it waits.",
    },
    Lint {
        code: "DL05",
        name: "arbiter-no-release",
        default_severity: Severity::Error,
        description: "request raised to an arbiter with no path that ever releases it",
        explain: "A master raises a request line and waits for grant and release, but no \
                  write anywhere ever drives the request low again: the four-phase \
                  handshake's release leg is missing. If the grant never comes the master \
                  blocks at its grant wait; if it does come, the arbiter blocks \
                  re-arbitrating on `req == 0` and the acknowledge stays high, so the \
                  master's release wait blocks instead. Either way the system deadlocks. \
                  Drive the request low after the transaction completes.",
    },
];

/// Looks up a lint by code (`"DF01"`) or by name (`"use-before-def"`).
pub fn lint(code_or_name: &str) -> Option<&'static Lint> {
    LINTS
        .iter()
        .find(|l| l.code == code_or_name || l.name == code_or_name)
}

/// Per-run lint configuration: which lints are allowed (dropped), denied
/// (promoted to error), and whether all warnings are denied.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// When true, every `Warning` is promoted to `Error` (`--deny warnings`).
    pub deny_warnings: bool,
    /// Lint codes promoted to `Error` regardless of default severity.
    pub denied: BTreeSet<&'static str>,
    /// Lint codes suppressed entirely.
    pub allowed: BTreeSet<&'static str>,
}

impl LintConfig {
    /// Creates the default configuration (all lints at default severity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a `--deny` argument: a lint code/name, or the special
    /// value `warnings`.
    ///
    /// # Errors
    ///
    /// Returns the offending string when it names no known lint.
    pub fn deny(&mut self, code_or_name: &str) -> Result<(), String> {
        if code_or_name == "warnings" {
            self.deny_warnings = true;
            return Ok(());
        }
        match lint(code_or_name) {
            Some(l) => {
                self.denied.insert(l.code);
                Ok(())
            }
            None => Err(format!("unknown lint `{code_or_name}`")),
        }
    }

    /// Registers an `--allow` argument (suppresses the lint).
    ///
    /// # Errors
    ///
    /// Returns the offending string when it names no known lint.
    pub fn allow(&mut self, code_or_name: &str) -> Result<(), String> {
        match lint(code_or_name) {
            Some(l) => {
                self.allowed.insert(l.code);
                Ok(())
            }
            None => Err(format!("unknown lint `{code_or_name}`")),
        }
    }

    /// Applies the configuration to one diagnostic: `None` when the lint
    /// is allowed, otherwise the diagnostic with its effective severity.
    pub fn apply(&self, mut d: Diagnostic) -> Option<Diagnostic> {
        if self.allowed.contains(d.code) {
            return None;
        }
        if self.denied.contains(d.code) || (self.deny_warnings && d.severity == Severity::Warning) {
            d.severity = Severity::Error;
        }
        Some(d)
    }

    /// Applies the configuration to a batch, dropping allowed lints and
    /// promoting denied ones.
    pub fn apply_all(&self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags.into_iter().filter_map(|d| self.apply(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sorted_per_family() {
        let mut seen = BTreeSet::new();
        for l in LINTS {
            assert!(seen.insert(l.code), "duplicate code {}", l.code);
        }
        assert!(LINTS.len() >= 6, "ISSUE requires >= 6 distinct lint codes");
    }

    #[test]
    fn lookup_by_code_and_name() {
        assert_eq!(lint("DF01").unwrap().name, "use-before-def");
        assert_eq!(lint("use-before-def").unwrap().code, "DF01");
        assert!(lint("nope").is_none());
    }

    #[test]
    fn deny_warnings_promotes_only_warnings() {
        let mut cfg = LintConfig::new();
        cfg.deny("warnings").unwrap();
        let w = Diagnostic::new("DF02", Severity::Warning, "w");
        let n = Diagnostic::new("CC01", Severity::Note, "n");
        assert_eq!(cfg.apply(w).unwrap().severity, Severity::Error);
        assert_eq!(cfg.apply(n).unwrap().severity, Severity::Note);
    }

    #[test]
    fn deny_specific_lint_promotes_notes_too() {
        let mut cfg = LintConfig::new();
        cfg.deny("shared-write-race").unwrap();
        let n = Diagnostic::new("CC01", Severity::Note, "n");
        assert_eq!(cfg.apply(n).unwrap().severity, Severity::Error);
    }

    #[test]
    fn allow_suppresses_and_unknown_errors() {
        let mut cfg = LintConfig::new();
        cfg.allow("DF03").unwrap();
        assert!(cfg
            .apply(Diagnostic::new("DF03", Severity::Warning, "x"))
            .is_none());
        assert!(cfg.deny("bogus").is_err());
        assert!(cfg.allow("bogus").is_err());
    }
}
