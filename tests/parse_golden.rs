//! Byte-exact golden of the parser's output.
//!
//! Each row is one input to `parser::parse_with_spans`. A spec that
//! parses records FNV-1a-64 digests of `format!("{spec:?}")` and of the
//! [`SourceMap`] rendered in id and statement-path order, the number of
//! map entries, and what [`parser::parse`]'s validation makes of it. An
//! input that does not parse records the exact `line:col: message`.
//!
//! The inputs are:
//!
//! * the shipped workloads (medical, Figure 2, DSP, ring and `SynthSpec`
//!   seeds 0–2 at 16 and 64 leaves), printed;
//! * their Model 1–4 refinements under the published partitions
//!   (`SynthSpec::partition` for the synthetic ones), printed — these
//!   bring in subroutine locals, server behaviors and forward references;
//! * every `bad.spec` of the CLI's compile-fail suite;
//! * a hand-written corpus with one input per parser error site, plus
//!   forward references and duplicate names that must resolve to the
//!   first declaration.
//!
//! Each hand-written error input holds exactly one error, so the row pins
//! that error's message and position, not which of several errors wins.
//!
//! Regenerate the golden with:
//!
//! ```text
//! UPDATE_EXPECTED=1 cargo test --test parse_golden
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use modref::core::{refine, ImplModel};
use modref::graph::AccessGraph;
use modref::partition::{Allocation, Partition};
use modref::spec::parser::{self, THREAD_STACK};
use modref::spec::{printer, SourceMap, Spec, Stmt, StmtOwner, StmtPath};
use modref::workloads::{
    dsp_partition, dsp_spec, fig2_partition, fig2_spec, medical_allocation, medical_partition,
    medical_spec, ring_spec, Design, SynthConfig, SynthSpec,
};

const GOLDEN: &str = "tests/data/parse.golden.txt";
const COMPILE_FAIL: &str = "crates/cli/tests/compile-fail";

/// FNV-1a, 64-bit.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders the statement spans of `body` (at `path`) into `out`,
/// rebuilding them into `rebuilt`.
fn render_stmts(
    out: &mut String,
    rebuilt: &mut SourceMap,
    map: &SourceMap,
    path: &StmtPath,
    block: u8,
    body: &[Stmt],
) {
    for (i, s) in body.iter().enumerate() {
        let at = path.child(block, i as u32);
        if let Some(span) = map.stmt_span(&at) {
            let steps: Vec<String> = at
                .steps
                .iter()
                .map(|s| format!("{}.{}", s.block, s.index))
                .collect();
            writeln!(out, "stmt {:?} {} {span}", at.owner, steps.join("/")).unwrap();
            rebuilt.record_stmt(at.clone(), span);
        }
        for (b, inner) in s.bodies().enumerate() {
            render_stmts(out, rebuilt, map, &at, b as u8, inner);
        }
    }
}

/// The map's entries in id and statement-path order, and their count.
/// Panics if the map holds an entry no object of `spec` names.
fn render_map(spec: &Spec, map: &SourceMap) -> (String, usize) {
    let mut out = String::new();
    let mut rebuilt = SourceMap::new();
    for (id, _) in spec.signals() {
        if let Some(span) = map.signal_span(id) {
            writeln!(out, "signal {id:?} {span}").unwrap();
            rebuilt.record_signal(id, span);
        }
    }
    for (id, _) in spec.variables() {
        if let Some(span) = map.variable_span(id) {
            writeln!(out, "variable {id:?} {span}").unwrap();
            rebuilt.record_variable(id, span);
        }
    }
    for (id, b) in spec.behaviors() {
        if let Some(span) = map.behavior_span(id) {
            writeln!(out, "behavior {id:?} {span}").unwrap();
            rebuilt.record_behavior(id, span);
        }
        for arc in 0..b.transitions().len() {
            if let Some(span) = map.transition_span(id, arc) {
                writeln!(out, "transition {id:?} {arc} {span}").unwrap();
                rebuilt.record_transition(id, arc, span);
            }
        }
        if let Some(body) = b.body() {
            let root = StmtPath::root(StmtOwner::Behavior(id));
            render_stmts(&mut out, &mut rebuilt, map, &root, 0, body);
        }
    }
    for (id, s) in spec.subroutines() {
        if let Some(span) = map.subroutine_span(id) {
            writeln!(out, "subroutine {id:?} {span}").unwrap();
            rebuilt.record_subroutine(id, span);
        }
        let root = StmtPath::root(StmtOwner::Subroutine(id));
        render_stmts(&mut out, &mut rebuilt, map, &root, 0, s.body());
    }
    assert!(
        rebuilt == *map,
        "the source map holds entries for objects the spec does not have"
    );
    let entries = out.lines().count();
    (out, entries)
}

/// One golden row for `src`.
fn render_input(out: &mut String, name: &str, src: &str) {
    match parser::parse_with_spans(src) {
        Ok((spec, map)) => {
            let (rendered, entries) = render_map(&spec, &map);
            let check = match parser::parse(src) {
                Ok(_) => "valid".to_string(),
                Err(e) => format!("{}:{}: {}", e.line, e.col, e.message),
            };
            writeln!(
                out,
                "{name} ok spec={:016x} map={:016x} entries={entries} check={check}",
                fnv1a(&format!("{spec:?}")),
                fnv1a(&rendered),
            )
            .unwrap();
        }
        Err(e) => writeln!(out, "{name} err {}:{}: {}", e.line, e.col, e.message).unwrap(),
    }
}

/// The printed Model 1–4 refinements of `spec` under `part`.
fn render_refinements(
    out: &mut String,
    name: &str,
    spec: &Spec,
    alloc: &Allocation,
    part: &Partition,
) {
    let graph = AccessGraph::derive(spec);
    for model in ImplModel::ALL {
        let refined = refine(spec, &graph, alloc, part, model)
            .unwrap_or_else(|e| panic!("{name}.{model:?}: {e}"));
        render_input(
            out,
            &format!("{name}.{model:?}"),
            &printer::print(&refined.spec),
        );
    }
}

/// A spec around one leaf `L` whose body is `body`, with a signal `go`,
/// scalars `x` and `i`, an array `a` and a subroutine `f(in p, out q)`.
fn leaf(body: &str) -> String {
    format!(
        "spec e;\nsignal go : bit = 0;\nvar x : int<16> = 0;\nvar i : int<8> = 0;\n\
         var a : int<8>[4] = 0;\n\
         subroutine f(in p : int<16>, out q : int<16>) {{\n  $q := $p;\n}}\n\
         behavior L leaf {{\n  {body}\n}}\nbehavior T seq {{ children {{ L; }} }}\ntop T;\n"
    )
}

/// A spec whose declarations before `top` are `decls`, followed by a
/// leaf `L` and its parent `T`.
fn decls(decls: &str) -> String {
    format!(
        "spec e;\n{decls}\nbehavior L leaf {{ }}\nbehavior T seq {{ children {{ L; }} }}\ntop T;\n"
    )
}

/// A spec with leaves `A` and `B` and the composite `body` (declared as
/// `behavior T ...`) on top.
fn composite(body: &str) -> String {
    format!(
        "spec e;\nvar x : int<16> = 0;\nbehavior A leaf {{ }}\nbehavior B leaf {{ }}\n{body}\ntop T;\n"
    )
}

/// The hand-written corpus: `(name, source)`.
fn hand_written() -> Vec<(&'static str, String)> {
    let mut cases: Vec<(&'static str, String)> = vec![
        // The spec header and the top level.
        ("header.keyword", "specs e;\ntop T;\n".into()),
        ("header.name", "spec ;\n".into()),
        ("header.semi", "spec e\nvar x : int<16> = 0;\n".into()),
        ("top_level.keyword", decls("variable x : int<16> = 0;")),
        ("top_level.token", decls(";")),
        ("top_level.stray_brace", decls("}")),
        ("top.name", "spec e;\nbehavior L leaf { }\ntop ;\n".into()),
        ("top.semi", "spec e;\nbehavior L leaf { }\ntop L\n".into()),
        ("top.missing", "spec e;\nbehavior L leaf { }\n".into()),
        ("empty", "".into()),
        // Declarations and types.
        ("decl.name", decls("var : int<16> = 0;")),
        ("decl.colon", decls("var x int<16> = 0;")),
        ("decl.eq", decls("var x : int<16> 0;")),
        ("decl.init", decls("var x : int<16> = ;")),
        ("decl.semi", decls("var x : int<16> = 0\nvar y : int<16> = 0;")),
        ("signal.semi", decls("signal go : bit = 0\nvar y : int<16> = 0;")),
        ("signal.type", decls("signal go : wire = 0;")),
        ("type.name", decls("var x : = 0;")),
        ("type.unknown", decls("var x : float = 0;")),
        ("type.lt", decls("var x : int 16 = 0;")),
        ("type.width_token", decls("var x : int<w> = 0;")),
        ("type.width_zero", decls("var x : int<0> = 0;")),
        ("type.width_wide", decls("var x : uint<65> = 0;")),
        ("type.gt", decls("var x : int<16 = 0;")),
        ("type.length_token", decls("var x : int<8>[n] = 0;")),
        ("type.length_zero", decls("var x : int<8>[0] = 0;")),
        ("type.length_negative", decls("var x : int<8>[-2] = 0;")),
        ("type.rbracket", decls("var x : int<8>[4 = 0;")),
        // Subroutine headers and bodies.
        ("sub.name", decls("subroutine (in p : bit) { }")),
        ("sub.lparen", decls("subroutine f in p : bit) { }")),
        ("sub.param_dir", decls("subroutine f(p : bit) { }")),
        ("sub.param_name", decls("subroutine f(in : bit) { }")),
        ("sub.param_colon", decls("subroutine f(in p bit) { }")),
        ("sub.param_type", decls("subroutine f(in p : real) { }")),
        ("sub.rparen", decls("subroutine f(in p : bit {\n}")),
        ("sub.lbrace", decls("subroutine f(in p : bit)\n  $p := 1;\n}")),
        ("sub.local", decls("subroutine f() {\n  var t : int<8> = ;\n}")),
        ("sub.stmt", decls("subroutine f(out q : bit) {\n  $q = 1;\n}")),
        (
            "sub.unterminated",
            "spec e;\nbehavior L leaf { }\nbehavior T seq { children { L; } }\ntop T;\nsubroutine f(out q : bit) {\n  $q := 1;\n".into(),
        ),
        // Behavior headers.
        ("behavior.name", "spec e;\nbehavior leaf { }\ntop T;\n".into()),
        ("behavior.kind", "spec e;\nbehavior L { }\ntop L;\n".into()),
        ("behavior.kind_word", "spec e;\nbehavior L leafy { }\ntop L;\n".into()),
        ("behavior.kind_word_after_vars", "spec e;\nbehavior L lef {\n  var t : int<8> = 0;\n}\ntop L;\n".into()),
        ("behavior.lbrace", "spec e;\nvar x : int<8> = 0;\nbehavior L leaf\n  x := 1;\n}\ntop L;\n".into()),
        ("behavior.server_lbrace", "spec e;\nbehavior L leaf server skip; }\ntop L;\n".into()),
        ("behavior.local", "spec e;\nbehavior L leaf {\n  var t : int<8> 0;\n}\ntop L;\n".into()),
        (
            "leaf.unterminated",
            "spec e;\nvar x : int<16> = 0;\nbehavior T seq { children { L; } }\ntop T;\nbehavior L leaf {\n  x := 1;\n".into(),
        ),
        (
            "leaf.unterminated_mid_file",
            "spec e;\nvar x : int<16> = 0;\nbehavior L leaf {\n  x := 1;\nbehavior T seq { children { L; } }\ntop T;\n".into(),
        ),
        // Composite bodies.
        ("seq.children_keyword", composite("behavior T seq {\n  kids { A; }\n}")),
        ("seq.children_lbrace", composite("behavior T seq {\n  children A; }\n}")),
        ("seq.children_name", composite("behavior T seq {\n  children { 3; }\n}")),
        ("seq.children_semi", composite("behavior T seq {\n  children { A B; }\n}")),
        ("seq.rbrace", composite("behavior T seq {\n  children { A; }\n  x := 1;\n}")),
        ("seq.unterminated", "spec e;\nbehavior A leaf { }\ntop T;\nbehavior T seq {\n  children { A; }\n".into()),
        (
            "seq.unterminated_transitions",
            "spec e;\nbehavior A leaf { }\ntop T;\nbehavior T seq {\n  children { A; }\n  transitions {\n    A -> complete;\n".into(),
        ),
        ("conc.rbrace", composite("behavior T conc {\n  children { A; B; }\n  transitions { }\n}")),
        ("conc.unterminated", "spec e;\nbehavior A leaf { }\ntop T;\nbehavior T conc {\n  children { A; }\n".into()),
        ("transitions.lbrace", composite("behavior T seq {\n  children { A; B; }\n  transitions A -> B; }\n}")),
        ("transition.from", composite("behavior T seq {\n  children { A; B; }\n  transitions {\n    -> B;\n  }\n}")),
        ("transition.arrow", composite("behavior T seq {\n  children { A; B; }\n  transitions {\n    A B;\n  }\n}")),
        ("transition.to", composite("behavior T seq {\n  children { A; B; }\n  transitions {\n    A -> ;\n  }\n}")),
        ("transition.when_lparen", composite("behavior T seq {\n  children { A; B; }\n  transitions {\n    A -> B when x > 1;\n  }\n}")),
        ("transition.when_rparen", composite("behavior T seq {\n  children { A; B; }\n  transitions {\n    A -> B when (x > 1;\n  }\n}")),
        ("transition.when_expr", composite("behavior T seq {\n  children { A; B; }\n  transitions {\n    A -> B when ();\n  }\n}")),
        ("transition.semi", composite("behavior T seq {\n  children { A; B; }\n  transitions {\n    A -> B\n    B -> complete;\n  }\n}")),
        // A missing `{` in a body that uses names declared after it: the
        // syntax error is reported, not the names.
        (
            "forward.if_lbrace",
            "spec e;\nbehavior L leaf {\n  if (x > 0)\n    x := 1;\n  }\n}\n\
             behavior T seq { children { L; } }\ntop T;\nvar x : int<16> = 0;\n"
                .into(),
        ),
        (
            "forward.sub_if_lbrace",
            "spec e;\nsubroutine f(out q : bit) {\n  if (y == 0)\n    $q := 1;\n  }\n}\n\
             behavior L leaf {\n  call f(out y);\n}\nbehavior T seq { children { L; } }\ntop T;\n\
             var y : bit = 0;\n"
                .into(),
        ),
        // Statements.
        ("stmt.token", leaf("3 := x;")),
        ("stmt.paren", leaf("(x) := 1;")),
        ("set.name", leaf("set := 1;")),
        ("set.assign", leaf("set go 1;")),
        ("set.expr", leaf("set go := ;")),
        ("set.semi", leaf("set go := 1\n  skip;")),
        ("wait.kind", leaf("wait x;")),
        ("wait_until.lparen", leaf("wait until go == 1;")),
        ("wait_until.rparen", leaf("wait until (go == 1;")),
        ("wait_until.semi", leaf("wait until (go == 1)\n  skip;")),
        ("wait_for.int", leaf("wait for x;")),
        ("wait_for.semi", leaf("wait for 3\n  skip;")),
        ("if.lparen", leaf("if x > 0) { skip; }")),
        ("if.rparen", leaf("if (x > 0 { skip; }")),
        ("if.lbrace", leaf("if (x > 0)\n    x := 1;\n  }")),
        ("if.unterminated", leaf("if (x > 0) {\n    x := 1;\n")),
        ("else.lbrace", leaf("if (x > 0) { skip; } else\n    skip;\n  }")),
        ("while.lparen", leaf("while x < 3) { skip; }")),
        ("while.rparen", leaf("while (x < 3 { skip; }")),
        ("while.hint", leaf("while (x < 3) @ { skip; }")),
        ("while.lbrace", leaf("while (x < 3) @4\n    skip;\n  }")),
        ("for.var", leaf("for := 0 to 3 { skip; }")),
        ("for.assign", leaf("for i 0 to 3 { skip; }")),
        ("for.to", leaf("for i := 0 3 { skip; }")),
        ("for.lbrace", leaf("for i := 0 to 3\n    skip;\n  }")),
        ("loop.lbrace", leaf("loop\n    skip;\n  }")),
        ("call.name", leaf("call (in 1, out x);")),
        ("call.lparen", leaf("call f in 1, out x);")),
        ("call.dir", leaf("call f(1, out x);")),
        ("call.out_lvalue", leaf("call f(in 1, out 3);")),
        ("call.rparen", leaf("call f(in 1, out x;")),
        ("call.semi", leaf("call f(in 1, out x)\n  skip;")),
        ("delay.int", leaf("delay x;")),
        ("delay.semi", leaf("delay 2\n  skip;")),
        ("skip.semi", leaf("skip\n  x := 1;")),
        ("assign.assign", leaf("x = 1;")),
        ("assign.expr", leaf("x := ;")),
        ("assign.semi", leaf("x := 1\n  skip;")),
        ("assign.index_rbracket", leaf("a[0 := 1;")),
        ("assign.index_expr", leaf("a[] := 1;")),
        ("expr.operator", leaf("x := x + ;")),
        ("expr.unary", leaf("x := -;")),
        ("expr.rparen", leaf("x := (x + 1;")),
        ("expr.index_rbracket", leaf("x := a[0;")),
        ("expr.brace", leaf("x := {;")),
        ("lex.char", leaf("x := x ? 2;")),
        ("lex.int", leaf("x := 99999999999999999999;")),
        // Unresolved names, one of each kind.
        ("unresolved.expr_name", leaf("x := y + 1;")),
        ("unresolved.wait_name", leaf("wait until (y == 1);")),
        ("unresolved.lvalue", leaf("y := 1;")),
        ("unresolved.signal_as_lvalue", leaf("go := 1;")),
        ("unresolved.lvalue_index", leaf("b[0] := 1;")),
        ("unresolved.expr_index", leaf("x := b[0];")),
        ("unresolved.index_in_index", leaf("a[y] := 1;")),
        ("unresolved.set", leaf("set stop := 1;")),
        ("unresolved.set_var", leaf("set x := 1;")),
        ("unresolved.for_var", leaf("for j := 0 to 3 { skip; }")),
        ("unresolved.for_bound", leaf("for i := 0 to n { skip; }")),
        ("unresolved.nested", leaf("if (x > 0) {\n    while (x < 3) {\n      x := y;\n    }\n  }")),
        ("unresolved.call", leaf("call g(in 1, out x);")),
        ("unresolved.call_in", leaf("call f(in y, out x);")),
        ("unresolved.call_out", leaf("call f(in 1, out y);")),
        ("unresolved.in_subroutine", decls("subroutine g(out q : bit) {\n  $q := y;\n}")),
        ("unresolved.call_in_subroutine", decls("subroutine g() {\n  call h();\n}")),
        ("unresolved.child_seq", composite("behavior T seq {\n  children { A; Ghost; }\n}")),
        ("unresolved.child_conc", composite("behavior T conc {\n  children { Ghost; B; }\n}")),
        ("unresolved.transition_from", composite("behavior T seq {\n  children { A; B; }\n  transitions {\n    C -> B;\n  }\n}")),
        ("unresolved.transition_to", composite("behavior T seq {\n  children { A; B; }\n  transitions {\n    A -> C;\n  }\n}")),
        ("unresolved.transition_cond", composite("behavior T seq {\n  children { A; B; }\n  transitions {\n    A -> B when (y > 0);\n  }\n}")),
        ("unresolved.top", "spec e;\nbehavior L leaf { }\ntop Nope;\n".into()),
        // Forward references: each name is declared after its use.
        (
            "forward.all",
            "spec e;\ntop T;\n\
             behavior T seq {\n  children { A; B; }\n  transitions {\n    A -> B when (x > 0 && go == 1);\n    B -> complete;\n  }\n}\n\
             behavior A leaf {\n  x := x + 1;\n  set go := 1;\n  call f(in x, out y);\n}\n\
             subroutine f(in p : int<16>, out q : int<16>) {\n  var t : int<16> = 0;\n  call g(in $p, out t);\n  $q := t;\n}\n\
             subroutine g(in p : int<16>, out q : int<16>) {\n  $q := $p + 1;\n}\n\
             behavior B conc {\n  children { C; }\n}\n\
             behavior C leaf server {\n  var y : int<16> = 0;\n  loop {\n    wait until (go == 1);\n    x := y;\n  }\n}\n\
             signal go : bit = 0;\nvar x : int<16> = 0;\n"
                .into(),
        ),
        (
            "forward.other_local",
            "spec e;\nbehavior A leaf {\n  x := t;\n}\nbehavior B leaf {\n  var t : int<8> = 3;\n}\n\
             behavior T conc { children { A; B; } }\ntop T;\nvar x : int<8> = 0;\n"
                .into(),
        ),
        // Duplicate names: the first declaration wins.
        (
            "first.global_vars",
            decls("var d : int<8> = 1;\nvar d : int<16> = 2;\nbehavior U leaf {\n  d := d + 1;\n}"),
        ),
        (
            "first.global_before_local",
            "spec e;\nbehavior L leaf {\n  var d : int<8> = 1;\n  d := 2;\n}\nvar d : int<16> = 0;\n\
             behavior T seq { children { L; } }\ntop T;\n"
                .into(),
        ),
        (
            "first.behavior_local_before_sub_local",
            "spec e;\nsubroutine f() {\n  var d : int<8> = 1;\n  d := 2;\n}\nbehavior L leaf {\n  var d : int<16> = 0;\n  d := 3;\n  call f();\n}\n\
             behavior T seq { children { L; } }\ntop T;\n"
                .into(),
        ),
        (
            "first.var_over_signal",
            decls("signal d : bit = 0;\nvar d : int<8> = 0;\nvar x : int<8> = 0;\nbehavior U leaf {\n  x := d;\n  set d := 1;\n}"),
        ),
        (
            "first.signals",
            decls("signal s : bit = 0;\nsignal s : int<4> = 1;\nbehavior U leaf {\n  set s := 1;\n  wait until (s == 1);\n}"),
        ),
        (
            "first.subroutines",
            decls("subroutine f() {\n  skip;\n}\nsubroutine f(in p : bit) {\n  delay 1;\n}\nbehavior U leaf {\n  call f();\n}"),
        ),
        (
            "first.behaviors",
            "spec e;\nbehavior A leaf {\n  delay 1;\n}\nbehavior A leaf {\n  delay 2;\n}\n\
             behavior T seq {\n  children { A; }\n  transitions {\n    A -> complete;\n  }\n}\ntop T;\n"
                .into(),
        ),
        (
            "last.top",
            "spec e;\nbehavior A leaf { }\nbehavior B leaf { }\ntop A;\ntop B;\n".into(),
        ),
    ];
    cases.push((
        "all_forms",
        leaf(
            "x := 1;\n  a[i + 1] := x * 2;\n  set go := 1;\n  wait until (go == 1 && x > -3);\n  wait for 4;\n\
             if (x >= 0) {\n    skip;\n  } else {\n    delay 2;\n  }\n  while (i < 5) @9 {\n    i := i + 1;\n  }\n\
             for i := 0 to 3 {\n    a[i] := !(i == 2);\n  }\n  loop {\n    call f(in x << 1, out a[0]);\n  }",
        ),
    ));
    cases
}

fn render_all() -> String {
    let mut out = String::new();
    let alloc = medical_allocation();
    let medical = medical_spec();
    render_input(&mut out, "medical", &printer::print(&medical));
    for design in [Design::Design1, Design::Design2, Design::Design3] {
        let part = medical_partition(&medical, &alloc, design);
        render_refinements(
            &mut out,
            &format!("medical.{design:?}"),
            &medical,
            &alloc,
            &part,
        );
    }
    let fig2 = fig2_spec();
    render_input(&mut out, "fig2", &printer::print(&fig2));
    render_refinements(
        &mut out,
        "fig2",
        &fig2,
        &alloc,
        &fig2_partition(&fig2, &alloc),
    );
    let dsp = dsp_spec();
    render_input(&mut out, "dsp", &printer::print(&dsp));
    render_refinements(&mut out, "dsp", &dsp, &alloc, &dsp_partition(&dsp, &alloc));
    render_input(&mut out, "ring", &printer::print(&ring_spec(16, 3)));
    for leaves in [16, 64] {
        let config = SynthConfig {
            leaves,
            vars: leaves,
            stmts_per_leaf: 6,
            fanout: 3,
            loop_percent: 30,
        };
        for seed in 0..3 {
            let synth = SynthSpec::generate(seed, &config);
            let part = synth.partition(&alloc, 0);
            let name = format!("synth{leaves}_s{seed}");
            render_input(&mut out, &name, &printer::print(&synth.spec));
            render_refinements(&mut out, &name, &synth.spec, &alloc, &part);
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(COMPILE_FAIL);
    let mut cases: Vec<_> = fs::read_dir(&root)
        .expect("the compile-fail suite")
        .map(|e| e.expect("a compile-fail case").path())
        .filter(|p| p.join("bad.spec").is_file())
        .collect();
    cases.sort();
    for case in cases {
        let name = case.file_name().unwrap().to_string_lossy().into_owned();
        let src = fs::read_to_string(case.join("bad.spec")).expect("bad.spec reads");
        render_input(&mut out, &format!("bad.{name}"), &src);
    }
    for (name, src) in hand_written() {
        render_input(&mut out, name, &src);
    }
    out
}

#[test]
fn parsed_outputs_match_golden() {
    // The nesting cases sit at the parser's depth bound, which a debug
    // build parses only on a thread with the documented stack.
    let actual = std::thread::Builder::new()
        .stack_size(THREAD_STACK)
        .spawn(render_all)
        .expect("spawn a parser thread")
        .join()
        .expect("the corpus renders");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_EXPECTED").is_some() {
        fs::write(&path, &actual).expect("write the parse golden");
        return;
    }
    let expected =
        fs::read_to_string(&path).expect("the parse golden (UPDATE_EXPECTED=1 writes it)");
    if actual != expected {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .take(10)
            .map(|(e, a)| format!("- {e}\n+ {a}"))
            .collect();
        panic!(
            "parser output differs from {GOLDEN} ({} expected rows, {} actual):\n{}",
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}
