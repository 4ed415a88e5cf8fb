//! modref-analyze: the static-analysis subsystem.
//!
//! Everything in this crate answers one question: *what is wrong with a
//! specification (or a refined candidate) without running it?* Five lint
//! families cover the pipeline:
//!
//! * **structural** (`ST01`–`ST06`) — the [`modref_spec::validate`]
//!   well-formedness rules, collected exhaustively and rendered with
//!   source positions;
//! * **dataflow** (`DF01`–`DF06`) — per-body CFG analyses (reaching
//!   definitions, liveness) finding use-before-def, dead stores, unused
//!   declarations, unreachable behaviors and shadowed transitions;
//! * **concurrency** (`CC01`) — shared variables with concurrent
//!   accessors where at least one writes: the paper's refinement
//!   obligations, reported as notes;
//! * **conformance** (`RC01`–`RC04`) — checks on *refined* output per
//!   implementation model: missing arbiters, overlapping address ranges,
//!   one-sided (deadlocking) buses, width mismatches. They read the
//!   refiner's own architecture, so `modref-core` runs them (its `lint`
//!   module); this crate keeps their [`registry`] entries, so
//!   explanations and deny/allow configuration cover them too;
//! * **deadlock/liveness** (`DL01`–`DL05`) — abstract interpretation
//!   (interval domain with widening, see [`absint`]) plus an
//!   inter-process wait-dependency fixpoint (see [`deadlock`]) proving
//!   never-enabled waits, waits on unwritten signals, busy loops,
//!   circular waits and arbiter requests with no release path. Every
//!   `DL` diagnostic is *sound*: the flagged spec provably deadlocks or
//!   exceeds any step limit under every simulation kernel.
//!
//! The [`analyze_spec`] entry point runs the spec-level families over a
//! spec; [`deadlock_lints`] also runs over refined specs. Diagnostics render
//! as human-readable `file:line:col` lines or as JSONL following the
//! modref-obs conventions.
//!
//! # Example
//!
//! ```
//! use modref_spec::parser::parse_with_spans;
//! use modref_analyze::analyze_spec;
//!
//! let src = "spec s;\nvar x : int<16> = 0;\nvar unused : int<16> = 0;\n\
//!            behavior L leaf { x := 1; }\n\
//!            behavior T seq { children { L; } }\ntop T;\n";
//! let (spec, map) = parse_with_spans(src)?;
//! let diags = analyze_spec(&spec, &map);
//! assert!(diags.iter().any(|d| d.code == "DF03")); // `unused` is never used
//! # Ok::<(), modref_spec::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod absint;
pub mod cfg;
pub mod dataflow;
pub mod deadlock;
pub mod diag;
pub mod flow;
pub mod race;
pub mod registry;
pub mod structural;

pub use deadlock::deadlock_lints;
pub use diag::{render_json_lines, sort_canonical, Diagnostic, Severity, Totals};
pub use registry::{lint, Lint, LintConfig, LINTS};

use modref_graph::AccessGraph;
use modref_spec::{SourceMap, Spec};

/// Runs every spec-level lint family (structural, dataflow, concurrency)
/// and returns the diagnostics in canonical order.
///
/// When structural analysis finds a broken hierarchy (`ST02`), the
/// dataflow and concurrency passes are skipped — they walk the hierarchy
/// and cannot run on a malformed one.
pub fn analyze_spec(spec: &Spec, map: &SourceMap) -> Vec<Diagnostic> {
    let mut diags = structural::structural_lints(spec, map);
    let hierarchy_broken = diags.iter().any(|d| d.code == "ST02");
    if !hierarchy_broken {
        diags.extend(flow::flow_lints(spec, map));
        let graph = AccessGraph::derive(spec);
        diags.extend(race::race_lints(spec, &graph, map));
        diags.extend(deadlock::deadlock_lints(spec, Some(map)));
    }
    sort_canonical(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::parser::parse_with_spans;

    #[test]
    fn broken_hierarchy_skips_dataflow() {
        let src = "spec s;\nbehavior L leaf { }\nbehavior T seq { children { L; L; } }\ntop T;\n";
        // `L` listed twice: SharedChild. No panic, only ST02 family.
        let (spec, map) = parse_with_spans(src).expect("syntax ok");
        let diags = analyze_spec(&spec, &map);
        assert!(diags.iter().all(|d| d.code.starts_with("ST")), "{diags:?}");
    }

    #[test]
    fn clean_spec_with_unused_var_reports_exactly_df03() {
        let src = "spec s;\nvar x : int<16> = 0;\nvar dead : int<16> = 0;\n\
                   behavior L leaf { x := 1; }\nbehavior T seq { children { L; } }\ntop T;\n";
        let (spec, map) = parse_with_spans(src).expect("syntax ok");
        let diags = analyze_spec(&spec, &map);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "DF03");
        assert_eq!(diags[0].object.as_deref(), Some("dead"));
    }
}
