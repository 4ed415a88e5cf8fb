//! Structural lints (`ST01`–`ST06`): [`modref_spec::validate::check_all`]
//! violations mapped to diagnostics with positions from the
//! [`SourceMap`].

use modref_spec::validate;
use modref_spec::{spec_error_span, SourceMap, Spec, SpecError};

use crate::diag::{Diagnostic, Severity};

fn behavior_name(spec: &Spec, id: modref_spec::BehaviorId) -> String {
    spec.behaviors()
        .find(|(b, _)| *b == id)
        .map(|(_, b)| b.name().to_string())
        .unwrap_or_else(|| id.to_string())
}

fn variable_name(spec: &Spec, id: modref_spec::VarId) -> String {
    spec.variables()
        .find(|(v, _)| *v == id)
        .map(|(_, v)| v.name().to_string())
        .unwrap_or_else(|| id.to_string())
}

/// Runs the structural checks and renders every violation as a
/// diagnostic. The default map is empty, so builder-built specs get
/// object names but no positions.
pub fn structural_lints(spec: &Spec, map: &SourceMap) -> Vec<Diagnostic> {
    validate::check_all(spec)
        .into_iter()
        .map(|e| to_diagnostic(spec, map, e))
        .collect()
}

fn to_diagnostic(spec: &Spec, map: &SourceMap, e: SpecError) -> Diagnostic {
    let span = spec_error_span(spec, map, &e);
    let d = match &e {
        SpecError::DuplicateName { kind, name } => {
            Diagnostic::new("ST01", Severity::Error, e.to_string())
                .with_object(name.clone())
                .with_fix(format!("rename one of the `{name}` {kind}s"))
        }
        SpecError::UnknownBehavior(_)
        | SpecError::SharedChild(_)
        | SpecError::HierarchyCycle(_)
        | SpecError::TopIsChild(_)
        | SpecError::HierarchyTooDeep(_) => {
            let b = match &e {
                SpecError::UnknownBehavior(b)
                | SpecError::SharedChild(b)
                | SpecError::HierarchyCycle(b)
                | SpecError::TopIsChild(b)
                | SpecError::HierarchyTooDeep(b) => *b,
                _ => unreachable!(),
            };
            let name = behavior_name(spec, b);
            let message = match &e {
                SpecError::UnknownBehavior(_) => {
                    format!("child reference to behavior `{name}` that does not exist")
                }
                SpecError::SharedChild(_) => {
                    format!("behavior `{name}` is a child of more than one composite")
                }
                SpecError::HierarchyCycle(_) => {
                    format!("behavior hierarchy contains a cycle through `{name}`")
                }
                SpecError::TopIsChild(_) => {
                    format!("top behavior `{name}` is also a child of another behavior")
                }
                SpecError::HierarchyTooDeep(_) => format!(
                    "behavior `{name}` is nested deeper than {} levels",
                    modref_spec::parser::MAX_NESTING
                ),
                _ => unreachable!(),
            };
            Diagnostic::new("ST02", Severity::Error, message).with_object(name)
        }
        SpecError::TransitionNotSibling { parent, endpoint } => {
            let p = behavior_name(spec, *parent);
            let c = behavior_name(spec, *endpoint);
            Diagnostic::new(
                "ST03",
                Severity::Error,
                format!("transition in `{p}` references `{c}`, which is not one of its children"),
            )
            .with_object(p)
            .with_fix(format!(
                "add `{c}` to the children of the composite, or retarget the arc"
            ))
        }
        SpecError::CallArityMismatch {
            sub,
            expected,
            found,
        } => {
            let name = spec
                .subroutines()
                .find(|(id, _)| id == sub)
                .map(|(_, s)| s.name().to_string())
                .unwrap_or_else(|| sub.to_string());
            Diagnostic::new(
                "ST04",
                Severity::Error,
                format!("call to `{name}` has {found} arguments, expected {expected}"),
            )
            .with_object(name)
        }
        SpecError::IndexingMismatch(v) => {
            let name = variable_name(spec, *v);
            Diagnostic::new(
                "ST05",
                Severity::Error,
                format!("variable `{name}` indexed as array but declared scalar, or vice versa"),
            )
            .with_object(name)
        }
        SpecError::UnknownVar(v) => Diagnostic::new(
            "ST06",
            Severity::Error,
            format!("reference to variable {v} that does not exist"),
        ),
        SpecError::UnknownSignal(s) => Diagnostic::new(
            "ST06",
            Severity::Error,
            format!("reference to signal {s} that does not exist"),
        ),
        SpecError::UnknownSubroutine(s) => Diagnostic::new(
            "ST06",
            Severity::Error,
            format!("call to subroutine {s} that does not exist"),
        ),
        SpecError::UnresolvedName(n) => {
            Diagnostic::new("ST06", Severity::Error, format!("unresolved name `{n}`"))
                .with_object(n.clone())
        }
    };
    d.with_span(span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::parser::parse_with_spans;

    #[test]
    fn duplicate_names_point_at_second_declaration() {
        let src = "spec s;\nvar x : int<16> = 0;\nvar x : int<16> = 1;\nbehavior L leaf { }\nbehavior T seq { children { L; } }\ntop T;\n";
        let (spec, map) = parse_with_spans(src).expect("syntax ok");
        let diags = structural_lints(&spec, &map);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "ST01");
        let span = diags[0].span.expect("span");
        assert_eq!((span.line, span.col), (3, 1));
    }

    #[test]
    fn all_violations_collected_not_just_first() {
        // Both an indexing mismatch and a duplicate behavior name.
        let src = "spec s;\nvar x : int<16> = 0;\nbehavior L leaf {\n  x[0] := 1;\n}\nbehavior L leaf { }\nbehavior T seq { children { L; } }\ntop T;\n";
        let (spec, map) = parse_with_spans(src).expect("syntax ok");
        let diags = structural_lints(&spec, &map);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"ST01"), "{codes:?}");
        assert!(codes.contains(&"ST05"), "{codes:?}");
    }
}
