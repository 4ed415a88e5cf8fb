//! Grammar-level integration tests for the textual specification
//! language: full-construct coverage, precedence, comments, error
//! positions, and pathological inputs.

use modref_spec::{parser, printer, BinOp, Expr};

fn round_trip(src: &str) -> String {
    let spec = parser::parse(src).unwrap_or_else(|e| panic!("{e}\nin:\n{src}"));
    let text = printer::print(&spec);
    let again = parser::parse(&text).unwrap_or_else(|e| panic!("reparse: {e}\nin:\n{text}"));
    assert_eq!(printer::print(&again), text, "print is a fixpoint");
    text
}

#[test]
fn full_construct_coverage() {
    round_trip(
        r#"
spec everything;

signal go : bit = 0;
signal addr : uint<4> = 0;
signal data : int<16> = 0;
var scalar : int<16> = -3;
var flags : bool = 1;
var wide : uint<33> = 0;
var arr : int<8>[12] = 5;
var i : int<8> = 0;

subroutine xfer(in a : uint<4>, out d : int<16>) {
  set addr := $a;
  wait until (go == 1);
  $d := data + $a;
}

behavior Leafy leaf {
  scalar := scalar * 2 + arr[3];
  arr[i + 1] := scalar / 4;
  set go := 1;
  wait until (go == 1 && scalar > -10);
  wait for 42;
  if (scalar >= 0) {
    skip;
  } else {
    delay 7;
  }
  while (i < 5) @5 {
    i := i + 1;
  }
  for i := 0 to 12 {
    arr[i] := i;
  }
  loop {
    set go := 0;
    wait until (go == 1);
  }
  call xfer(in 3, out scalar);
}

behavior Server leaf server {
  loop {
    wait until (go == 1);
    set go := 0;
  }
}

behavior Inner leaf {
  scalar := 1;
}

behavior Grouped seq {
  children { Inner; }
}

behavior Par conc {
  children { Leafy; Server; }
}

behavior Root seq {
  children { Grouped; Par; }
  transitions {
    Grouped -> Par when (scalar > 0 || flags == 1);
    Par -> complete;
  }
}

top Root;
"#,
    );
}

#[test]
fn operator_precedence_parses_as_expected() {
    let spec = parser::parse(
        "spec p;\nvar a : int<16> = 0;\nvar b : int<16> = 0;\nvar c : int<16> = 0;\n\
         behavior L leaf {\n  a := a + b * c;\n  b := (a + b) * c;\n  c := a < b && b < c || a == c;\n}\n\
         behavior T seq { children { L; } }\ntop T;\n",
    )
    .expect("parses");
    let l = spec.behavior_by_name("L").unwrap();
    let body = spec.behavior(l).body().unwrap();
    // a + (b * c)
    match &body[0] {
        modref_spec::Stmt::Assign { value, .. } => match value {
            Expr::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)))
            }
            other => panic!("expected add at top, got {other:?}"),
        },
        other => panic!("expected assign, got {other:?}"),
    }
    // ((a<b) && (b<c)) || (a==c)
    match &body[2] {
        modref_spec::Stmt::Assign { value, .. } => {
            assert!(matches!(value, Expr::Binary(BinOp::Or, _, _)));
        }
        other => panic!("expected assign, got {other:?}"),
    }
}

#[test]
fn unary_operators_and_negative_literals() {
    let text = round_trip(
        "spec u;\nvar a : int<16> = -8;\nbehavior L leaf {\n  a := -a;\n  a := !(a > 0);\n  a := - -3;\n}\nbehavior T seq { children { L; } }\ntop T;\n",
    );
    assert!(text.contains("a := -a;"));
}

#[test]
fn comments_and_blank_lines_are_ignored() {
    let spec = parser::parse(
        "// leading comment\nspec c; // trailing\n\n\n// another\nvar x : int<16> = 0;\nbehavior L leaf { // open\n  x := 1; // stmt\n}\nbehavior T seq { children { L; } }\ntop T;\n",
    )
    .expect("parses");
    assert_eq!(spec.variable_count(), 1);
}

#[test]
fn error_positions_point_at_the_problem() {
    // Missing semicolon after `spec c`.
    let err = parser::parse("spec c\nvar x : int<16> = 0;\n").unwrap_err();
    assert_eq!((err.line, err.col), (2, 1));

    // Bad token mid-expression.
    let err = parser::parse("spec c;\nvar x : int<16> = 0;\nbehavior L leaf {\n  x := x ? 2;\n}\n")
        .unwrap_err();
    assert_eq!(err.line, 4);
}

#[test]
fn rejects_structural_mistakes() {
    // Duplicate behavior name.
    let err = parser::parse(
        "spec d;\nbehavior A leaf { }\nbehavior A leaf { }\nbehavior T seq { children { A; } }\ntop T;\n",
    )
    .unwrap_err();
    assert!(err.message.contains("duplicate"));

    // Transition to a non-child.
    let err = parser::parse(
        "spec d;\nbehavior A leaf { }\nbehavior B leaf { }\nbehavior T seq {\n  children { A; }\n  transitions { A -> B; }\n}\nbehavior U seq { children { B; } }\ntop T;\n",
    )
    .unwrap_err();
    assert!(err.message.contains("non-child"), "{}", err.message);

    // Unknown child name.
    let err =
        parser::parse("spec d;\nbehavior T seq { children { Ghost; } }\ntop T;\n").unwrap_err();
    assert!(err.message.contains("Ghost"));
}

#[test]
fn type_forms_round_trip() {
    let text = round_trip(
        "spec ty;\nvar a : bit = 1;\nvar b : bool = 0;\nvar c : int<1> = 0;\nvar d : uint<64> = 0;\nvar e : uint<3>[7] = 2;\nbehavior L leaf { }\nbehavior T seq { children { L; } }\ntop T;\n",
    );
    assert!(text.contains("a : bit"));
    assert!(text.contains("d : uint<64>"));
    assert!(text.contains("e : uint<3>[7]"));
}

#[test]
fn rejects_bad_widths_and_lengths() {
    assert!(parser::parse(
        "spec w;\nvar a : int<0> = 0;\nbehavior T seq { children { } }\ntop T;\n"
    )
    .is_err());
    assert!(parser::parse(
        "spec w;\nvar a : int<65> = 0;\nbehavior T seq { children { } }\ntop T;\n"
    )
    .is_err());
    assert!(parser::parse(
        "spec w;\nvar a : int<8>[0] = 0;\nbehavior T seq { children { } }\ntop T;\n"
    )
    .is_err());
    // Array lengths and trip hints past `u32::MAX` are errors at the
    // literal, not values truncated to 32 bits.
    for (src, at) in [
        (
            "spec w;\nvar a : int<8>[4294967296] = 0;\nbehavior T seq { children { } }\ntop T;\n",
            (2, 16),
        ),
        (
            "spec w;\nvar a : int<8>[4294967297] = 0;\nbehavior T seq { children { } }\ntop T;\n",
            (2, 16),
        ),
        (
            "spec w;\nvar a : int<8> = 0;\nbehavior L leaf {\n  while (a < 1) @4294967297 {\n    skip;\n  }\n}\nbehavior T seq { children { L; } }\ntop T;\n",
            (4, 18),
        ),
    ] {
        let err = parser::parse(src).unwrap_err();
        assert_eq!((err.line, err.col), at, "{err}");
        assert!(err.message.contains("must be at most 4294967295"), "{err}");
    }
}

#[test]
fn deeply_nested_statements_round_trip() {
    let mut body = String::from("x := 0;\n");
    for _ in 0..12 {
        body = format!("if (x > 0) {{\n{body}}} else {{\nx := x - 1;\n}}\n");
    }
    let src = format!(
        "spec deep;\nvar x : int<16> = 0;\nbehavior L leaf {{\n{body}}}\nbehavior T seq {{ children {{ L; }} }}\ntop T;\n"
    );
    round_trip(&src);
}

#[test]
fn empty_bodies_and_childless_composites() {
    let text = round_trip(
        "spec e;\nbehavior L leaf { }\nbehavior S seq { children { } }\nbehavior C conc { children { } }\nbehavior T seq { children { L; S; C; } }\ntop T;\n",
    );
    assert!(text.contains("children {  }") || text.contains("children { }"));
}

#[test]
fn keywords_usable_as_nothing_else() {
    // `leaf` as a variable name would collide with the kind word only in
    // behavior headers; as a plain identifier it must work.
    let spec = parser::parse(
        "spec k;\nvar leaf : int<16> = 0;\nbehavior L leaf {\n  leaf := leaf + 1;\n}\nbehavior T seq { children { L; } }\ntop T;\n",
    )
    .expect("contextual keywords parse");
    assert!(spec.variable_by_name("leaf").is_some());
}
