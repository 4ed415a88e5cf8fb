//! Golden-file diagnostics: one malformed fixture per spec-level lint
//! family, asserting the exact JSONL each produces. These pin both the
//! finding logic and the rendered output format — any change to either
//! shows up as a diff here. (The conformance family's goldens are
//! tampered refinements, in `modref-core`'s `lint` module.)

use modref_analyze::{analyze_spec, render_json_lines};
use modref_spec::parser::parse_with_spans;

/// Parses a fixture, lints it, and renders the JSONL batch under the
/// given file name.
fn lint_json(src: &str, file: &str) -> String {
    let (spec, map) = parse_with_spans(src).expect("fixture must be syntactically valid");
    let diags = analyze_spec(&spec, &map);
    render_json_lines(&diags, file)
}

#[test]
fn golden_st01_duplicate_name() {
    let src = "spec g;\nvar x : int<16> = 0;\nvar x : int<16> = 1;\n\
               behavior L leaf { x := 1; }\nbehavior T seq { children { L; } }\ntop T;\n";
    // Two findings at the same position: the second `x` is a duplicate
    // *and*, because the body's `x` resolves to the first declaration,
    // it is also unused.
    let json = lint_json(src, "dup.spec");
    assert_eq!(
        json,
        concat!(
            "{\"k\": \"diag\", \"code\": \"DF03\", \"severity\": \"warning\", \"file\": \"dup.spec\", ",
            "\"line\": 3, \"col\": 1, \"object\": \"x\", ",
            "\"message\": \"variable `x` is never used\", ",
            "\"fix\": \"remove the declaration\"}\n",
            "{\"k\": \"diag\", \"code\": \"ST01\", \"severity\": \"error\", \"file\": \"dup.spec\", ",
            "\"line\": 3, \"col\": 1, \"object\": \"x\", ",
            "\"message\": \"duplicate variable name `x`\", ",
            "\"fix\": \"rename one of the `x` variables\"}\n",
            "{\"k\": \"lint_summary\", \"errors\": 1, \"warnings\": 1, \"notes\": 0, \"total\": 2}\n",
        )
    );
}

#[test]
fn golden_df01_use_before_def() {
    let src = "spec g;\nvar x : int<16> = 0;\nbehavior A leaf {\n  var t : int<16> = 0;\n\
               \x20 x := t;\n  t := 1;\n}\nbehavior T seq { children { A; } }\ntop T;\n";
    let json = lint_json(src, "ubd.spec");
    assert_eq!(
        json,
        concat!(
            "{\"k\": \"diag\", \"code\": \"DF01\", \"severity\": \"warning\", \"file\": \"ubd.spec\", ",
            "\"line\": 5, \"col\": 3, \"object\": \"t\", ",
            "\"message\": \"variable `t` may be read before `A` assigns it; ",
            "only the declared initializer is available on that path\", ",
            "\"fix\": \"assign `t` before the first read\"}\n",
            "{\"k\": \"lint_summary\", \"errors\": 0, \"warnings\": 1, \"notes\": 0, \"total\": 1}\n",
        )
    );
}

#[test]
fn golden_df02_dead_store() {
    let src = "spec g;\nvar x : int<16> = 0;\nbehavior A leaf {\n  var t : int<16> = 0;\n\
               \x20 t := 1;\n  t := 2;\n  x := t;\n}\nbehavior T seq { children { A; } }\ntop T;\n";
    let json = lint_json(src, "ds.spec");
    assert_eq!(
        json,
        concat!(
            "{\"k\": \"diag\", \"code\": \"DF02\", \"severity\": \"warning\", \"file\": \"ds.spec\", ",
            "\"line\": 5, \"col\": 3, \"object\": \"t\", ",
            "\"message\": \"value assigned to `t` in `A` is never read\", ",
            "\"fix\": \"remove the assignment or use `t` afterwards\"}\n",
            "{\"k\": \"lint_summary\", \"errors\": 0, \"warnings\": 1, \"notes\": 0, \"total\": 1}\n",
        )
    );
}

#[test]
fn golden_df05_unreachable_behavior() {
    // `C` has no inbound arc: execution starts at `A`, `A -> B`, and `B`
    // completes the composite.
    let src = "spec g;\nvar x : int<16> = 0;\n\
               behavior A leaf { x := 1; }\nbehavior B leaf { x := 2; }\n\
               behavior C leaf { x := 3; }\n\
               behavior T seq {\n  children { A; B; C; }\n  transitions {\n\
               \x20   A -> B;\n    B -> complete;\n  }\n}\ntop T;\n";
    let json = lint_json(src, "unreach.spec");
    assert_eq!(
        json,
        concat!(
            "{\"k\": \"diag\", \"code\": \"DF05\", \"severity\": \"warning\", \"file\": \"unreach.spec\", ",
            "\"line\": 5, \"col\": 1, \"object\": \"C\", ",
            "\"message\": \"behavior `C` can never become active: no transition path in `T` reaches it\", ",
            "\"fix\": \"add a transition targeting it, or remove it from the composite\"}\n",
            "{\"k\": \"lint_summary\", \"errors\": 0, \"warnings\": 1, \"notes\": 0, \"total\": 1}\n",
        )
    );
}

#[test]
fn golden_cc01_shared_write_race() {
    let src = "spec g;\nvar shared : int<16> = 0;\nvar y : int<16> = 0;\n\
               behavior W leaf { shared := 1; }\nbehavior R leaf { y := shared; }\n\
               behavior P conc {\n  children { W; R; }\n}\ntop P;\n";
    let json = lint_json(src, "race.spec");
    assert_eq!(
        json,
        concat!(
            "{\"k\": \"diag\", \"code\": \"CC01\", \"severity\": \"note\", \"file\": \"race.spec\", ",
            "\"line\": 2, \"col\": 1, \"object\": \"shared\", ",
            "\"message\": \"shared variable `shared` is written by `W` and accessed by `R`, ",
            "which run concurrently; refinement must serialize these accesses\", ",
            "\"fix\": \"map the variable to an arbitrated global memory (Models 1-4) during refinement\"}\n",
            "{\"k\": \"lint_summary\", \"errors\": 0, \"warnings\": 0, \"notes\": 1, \"total\": 1}\n",
        )
    );
}

#[test]
fn every_json_line_round_trips_through_the_strict_parser() {
    let src = "spec g;\nvar x : int<16> = 0;\nvar x : int<16> = 1;\n\
               behavior L leaf { x := 1; }\nbehavior T seq { children { L; } }\ntop T;\n";
    for line in lint_json(src, "dup.spec").lines() {
        modref_obs::json::parse(line).expect("strict JSON");
    }
}
