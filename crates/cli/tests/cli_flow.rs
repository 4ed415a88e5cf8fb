//! End-to-end CLI flow test: `demo` writes files that `check`, `rates`,
//! `refine` and `simulate` can consume, driving the real binary through
//! its file formats.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn modref_bin() -> PathBuf {
    // target/debug/modref next to the test executable's directory.
    let mut path = std::env::current_exe().expect("test exe path");
    path.pop(); // deps/
    path.pop(); // debug/
    path.push("modref");
    path
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modref_cli_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

#[test]
fn demo_check_rates_refine_simulate_round_trip() {
    let bin = modref_bin();
    let dir = tmpdir("flow");
    let dir_s = dir.to_str().expect("utf8 tmpdir");

    let run = |args: &[&str]| -> (String, String, bool) {
        let out = Command::new(&bin).args(args).output().expect("binary runs");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.success(),
        )
    };

    // demo
    let (stdout, stderr, ok) = run(&["demo", dir_s]);
    assert!(ok, "demo failed: {stderr}");
    assert!(stdout.contains("medical.spec"));
    let spec = format!("{dir_s}/medical.spec");
    let part = format!("{dir_s}/medical_design1.part");

    // check
    let (stdout, stderr, ok) = run(&["check", &spec]);
    assert!(ok, "check failed: {stderr}");
    assert!(stdout.contains("16 ("), "expected behavior count: {stdout}");
    assert!(stdout.contains("52 data"));

    // rates
    let (stdout, stderr, ok) = run(&["rates", &spec, "-p", &part]);
    assert!(ok, "rates failed: {stderr}");
    assert!(stdout.contains("Model1:"));
    assert!(stdout.contains("hot spot"));

    // refine to a file
    let refined = format!("{dir_s}/refined.spec");
    let (_, stderr, ok) = run(&["refine", &spec, "-p", &part, "-m", "2", "-o", &refined]);
    assert!(ok, "refine failed: {stderr}");
    assert!(stderr.contains("architecture:"));

    // simulate the refined output
    let (stdout, stderr, ok) = run(&["simulate", &refined]);
    assert!(ok, "simulate failed: {stderr}");
    assert!(stdout.contains("completed at t="));
    assert!(stdout.contains("volume = 115"), "volume line: {stdout}");

    // graph lists channels
    let (stdout, _, ok) = run(&["graph", &spec]);
    assert!(ok);
    assert!(stdout.lines().count() >= 52);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let bin = modref_bin();
    let out = Command::new(&bin)
        .args(["check", "/definitely/not/here.spec"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("modref:"));

    let out = Command::new(&bin)
        .args(["frobnicate"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

/// A spec whose one leaf nests twenty near-`i64::MAX` loops, so every
/// access count and the leaf's lifetime overflow to infinity, with a
/// PROC+ASIC partition file; returns the directory holding both.
fn overflow_spec_dir(tag: &str) -> PathBuf {
    let mut body = "x := x + 1;".to_string();
    let mut spec = String::from("spec nan;\nvar x : int<64> = 0;\n");
    for k in 0..20 {
        body = format!("for i{k} := 0 to 9223372036854775806 {{ {body} }}");
        spec.push_str(&format!("var i{k} : int<64> = 0;\n"));
    }
    spec.push_str(&format!("behavior L leaf {{ {body} }}\ntop L;\n"));
    let dir = tmpdir(tag);
    fs::write(dir.join("nan.spec"), spec).expect("write spec");
    fs::write(
        dir.join("nan.part"),
        "component PROC processor 65536\ncomponent ASIC asic 10000 75\ndefault ASIC\n",
    )
    .expect("write part");
    dir
}

#[test]
fn nan_channel_rates_do_not_panic_estimate_or_rates() {
    // inf bits over an inf lifetime saturate to an infinite rate, not NaN.
    let dir = overflow_spec_dir("nan");
    for cmd in ["estimate", "rates"] {
        let out = Command::new(modref_bin())
            .args([cmd, "nan.spec", "-p", "nan.part"])
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{cmd} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("inf"), "{cmd}: {stdout}");
        assert!(!stdout.contains("NaN"), "{cmd}: {stdout}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn explore_ranks_overflowing_rates_as_infinite() {
    // Every candidate moves x's infinite traffic over some bus, so no
    // row may report a max bus rate of 0.0.
    let dir = overflow_spec_dir("nan_explore");
    let out = Command::new(modref_bin())
        .args(["explore", "nan.spec", "--seeds", "2", "--top", "100"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "explore failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout.contains("NaN"), "{stdout}");
    let header = stdout
        .lines()
        .position(|l| l.starts_with("rank"))
        .expect("table header");
    let rates: Vec<&str> = stdout
        .lines()
        .skip(header + 1)
        .take_while(|l| l.starts_with(|c: char| c.is_ascii_digit()))
        .map(|row| {
            let cols: Vec<&str> = row.split_whitespace().collect();
            cols[cols.len() - 2]
        })
        .collect();
    assert!(!rates.is_empty(), "{stdout}");
    assert!(rates.iter().all(|&r| r == "inf"), "{rates:?}\n{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage() {
    let bin = modref_bin();
    let out = Command::new(&bin).args(["help"]).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    // Every flag a command accepts is documented.
    for flag in [
        "--trace",
        "--quiet",
        "--verbose",
        "--seeds",
        "--threads",
        "--top",
        "--verify",
        "--kernel",
        "--max-steps",
        "--stats",
        "--profile",
        "--dot",
        "--process",
    ] {
        assert!(text.contains(flag), "help must document `{flag}`");
    }
}

#[test]
fn help_flag_prints_usage_and_writes_nothing() {
    let bin = modref_bin();
    let dir = tmpdir("help_flag");
    for args in [
        &["demo", "--help"][..],
        &["demo", "-h"],
        &["check", "--help"],
        &["refine", "x.spec", "-p", "x.part", "-h"],
    ] {
        let out = Command::new(&bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} failed: {stderr}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    }
    let written: Vec<_> = fs::read_dir(&dir).expect("tmpdir").collect();
    assert!(written.is_empty(), "--help wrote {written:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_error_with_suggestion() {
    let bin = modref_bin();
    let run = |args: &[&str]| {
        let out = Command::new(&bin).args(args).output().expect("binary runs");
        (
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.success(),
        )
    };

    let (stderr, ok) = run(&["explore", "x.spec", "--seed", "4"]);
    assert!(!ok, "typo'd flag must fail");
    assert!(stderr.contains("unknown flag `--seed`"), "{stderr}");
    assert!(stderr.contains("did you mean `--seeds`"), "{stderr}");

    let (stderr, ok) = run(&["simulate", "x.spec", "--kernal", "event"]);
    assert!(!ok);
    assert!(stderr.contains("did you mean `--kernel`"), "{stderr}");

    // A mistyped global flag is caught too.
    let (stderr, ok) = run(&["check", "x.spec", "--trase", "t.jsonl"]);
    assert!(!ok);
    assert!(stderr.contains("did you mean `--trace`"), "{stderr}");
}

#[test]
fn trace_report_round_trip() {
    let bin = modref_bin();
    let dir = tmpdir("trace");
    let dir_s = dir.to_str().expect("utf8 tmpdir");

    let run = |args: &[&str]| -> (String, String, bool) {
        let out = Command::new(&bin).args(args).output().expect("binary runs");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.success(),
        )
    };

    let (_, stderr, ok) = run(&["demo", dir_s]);
    assert!(ok, "demo failed: {stderr}");
    let spec = format!("{dir_s}/fig2.spec");
    let trace = format!("{dir_s}/fig2.jsonl");

    // Traced exploration writes a JSONL file and says so.
    let (_, stderr, ok) = run(&["explore", &spec, "--seeds", "2", "--trace", &trace]);
    assert!(ok, "traced explore failed: {stderr}");
    assert!(stderr.contains("wrote trace"), "{stderr}");
    let text = fs::read_to_string(&trace).expect("trace file written");
    assert!(text.lines().count() > 10, "trace should have many events");
    assert!(text.lines().all(|l| l.starts_with('{')), "JSONL lines");

    // The report renders a profile tree plus the metric summary.
    let (stdout, stderr, ok) = run(&["report", &trace]);
    assert!(ok, "report failed: {stderr}");
    assert!(stdout.contains("profile ("), "{stdout}");
    assert!(stdout.contains("explore"), "{stdout}");
    assert!(stdout.contains("counters"), "{stdout}");
    assert!(stdout.contains("lifetime.hit"), "{stdout}");

    // --quiet drops the informational lines but keeps the ranking table.
    let (stdout, stderr, ok) = run(&["explore", &spec, "--seeds", "1", "-q"]);
    assert!(ok, "quiet explore failed: {stderr}");
    assert!(
        !stdout.contains("explored"),
        "quiet must drop the header: {stdout}"
    );
    assert!(stdout.contains("rank"), "table stays: {stdout}");

    // report on garbage fails with a line-numbered parse error.
    let bad = format!("{dir_s}/bad.jsonl");
    fs::write(&bad, "{\"k\":\"span\"\nnot json\n").expect("write bad");
    let (_, stderr, ok) = run(&["report", &bad]);
    assert!(!ok, "malformed trace must fail");
    assert!(stderr.contains("line 1"), "{stderr}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn verified_explore_verdicts_are_kernel_independent() {
    let bin = modref_bin();
    let dir = tmpdir("verify_kernel");
    let dir_s = dir.to_str().expect("utf8 tmpdir");

    let run = |args: &[&str]| -> (String, String, bool) {
        let out = Command::new(&bin).args(args).output().expect("binary runs");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.success(),
        )
    };

    let (_, stderr, ok) = run(&["demo", dir_s]);
    assert!(ok, "demo failed: {stderr}");
    let spec = format!("{dir_s}/fig2.spec");

    // Keeps only the deterministic part of a verified-explore transcript:
    // the verdict table and closing summary, with the wall-clock and the
    // kernel name cut out of the banner line.
    fn verdicts(stdout: &str) -> String {
        stdout
            .lines()
            .skip_while(|l| !l.starts_with("verified "))
            .map(|l| match l.split_once(" by simulation") {
                Some((head, _)) => format!("{head}\n"),
                None => format!("{l}\n"),
            })
            .collect()
    }

    let (ev_out, stderr, ok) = run(&[
        "explore", &spec, "--seeds", "2", "--verify", "--kernel", "event",
    ]);
    assert!(ok, "event-kernel verify failed: {stderr}");
    let (co_out, stderr, ok) = run(&[
        "explore", &spec, "--seeds", "2", "--verify", "--kernel", "compiled",
    ]);
    assert!(ok, "compiled-kernel verify failed: {stderr}");

    let (ev, co) = (verdicts(&ev_out), verdicts(&co_out));
    assert!(
        ev.lines().count() > 2 && ev.contains("algorithm"),
        "verdict table missing: {ev_out}"
    );
    assert_eq!(ev, co, "verification verdicts must be kernel-independent");
    assert!(
        co_out.contains("(compiled kernel;"),
        "banner names the kernel: {co_out}"
    );

    // Unknown kernel names are rejected up front, not defaulted.
    let (_, stderr, ok) = run(&["explore", &spec, "--verify", "--kernel", "jit"]);
    assert!(!ok, "invalid kernel must fail");
    assert!(stderr.contains("invalid --kernel `jit`"), "{stderr}");

    let _ = fs::remove_dir_all(&dir);
}

/// A two-leaf spec around `a_body` whose top arcs from `A` to `B` take
/// `guard`; with its PROC+ASIC partition, written to a fresh directory.
/// The loop variable `i` is an `int<64>`, so simulating the spec also
/// wraps values at the widest integer type.
fn hostile_spec_dir(tag: &str, a_body: &str, guard: &str) -> PathBuf {
    let dir = tmpdir(tag);
    let spec = format!(
        "spec hostile;\nvar x : int<16> = 0;\nvar i : int<64> = 0;\n\
         behavior A leaf {{\n  {a_body}\n}}\nbehavior B leaf {{\n  x := x + 1;\n}}\n\
         behavior Top seq {{\n  children {{ A; B; }}\n  transitions {{\n    \
         A -> B when ({guard});\n    A -> complete;\n  }}\n}}\ntop Top;\n"
    );
    fs::write(dir.join("h.spec"), spec).expect("write spec");
    fs::write(
        dir.join("h.part"),
        "component PROC processor 65536\ncomponent ASIC asic 10000 75\n\
         default PROC\nbehavior B -> ASIC\n",
    )
    .expect("write part");
    dir
}

#[test]
fn hostile_constant_overflows_do_not_panic_any_command() {
    // `MIN / -1` in a `for` bound and a guard panicked constant folding
    // in every build; a `for` whose `to - from` overflows `i64` wrapped
    // its trip count to a negative lifetime in a release build.
    let min_div = "(0 - 9223372036854775807 - 1) / (0 - 1)";
    let cases = [
        (
            "min_div",
            format!("for i := 0 to {min_div} {{ x := 1; }}"),
            format!("{min_div} > 0"),
        ),
        (
            "wide_for",
            "for i := 0 - 9223372036854775807 to 9223372036854775807 { x := 1; }".to_string(),
            "x > 1".to_string(),
        ),
    ];
    for (tag, body, guard) in cases {
        let dir = hostile_spec_dir(tag, &body, &guard);
        for args in [
            &["check", "h.spec"][..],
            &["lint", "h.spec"],
            &["estimate", "h.spec", "-p", "h.part"],
            &["rates", "h.spec", "-p", "h.part"],
            &[
                "explore", "h.spec", "-p", "h.part", "--seeds", "1", "--verify",
            ],
        ] {
            let out = Command::new(modref_bin())
                .args(args)
                .current_dir(&dir)
                .output()
                .expect("binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                matches!(out.status.code(), Some(0 | 1)) && !stderr.contains("panicked"),
                "{tag}: {args:?} exited {:?}: {stderr}",
                out.status
            );
            if args[0] == "estimate" {
                assert!(out.status.success(), "{tag}: estimate: {stderr}");
                assert!(!stdout.contains(" -"), "{tag}: negative estimate: {stdout}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn hostile_nesting_is_a_parse_error_not_a_crash() {
    let body = format!(
        "{}x := 1;{}",
        "if (x == 1) {\n".repeat(200_000),
        "}\n".repeat(200_000)
    );
    let dir = hostile_spec_dir("deep_if", &body, "x > 1");
    let out = Command::new(modref_bin())
        .args(["check", "h.spec"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hostile_oversized_array_is_a_sim_error_not_an_abort() {
    let dir = tmpdir("huge_array");
    fs::write(
        dir.join("huge.spec"),
        "spec huge;\nvar a : int<8>[4294967295] = 1;\n\
         behavior Top leaf {\n  a[0] := 2;\n}\ntop Top;\n",
    )
    .expect("write spec");
    let run = |cmd: &str| {
        Command::new(modref_bin())
            .args([cmd, "huge.spec"])
            .current_dir(&dir)
            .output()
            .expect("binary runs")
    };
    let check = run("check");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let out = run("simulate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("simulation failed: variable `a` takes the spec past 4194304 elements"),
        "{stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A spec whose top `B{levels-1}` heads a chain of single-child `seq`
/// behaviors `levels` deep, ending in leaf `B0`.
fn chain_spec(levels: usize) -> String {
    let mut text =
        String::from("spec chain;\nvar x : int<16> = 0;\nbehavior B0 leaf { x := x + 1; }\n");
    for i in 1..levels {
        text.push_str(&format!(
            "behavior B{i} seq {{ children {{ B{}; }} }}\n",
            i - 1
        ));
    }
    text.push_str(&format!("top B{};\n", levels - 1));
    text
}

#[test]
fn hostile_deep_hierarchy_is_a_spec_error_not_a_crash() {
    use modref_spec::parser::MAX_NESTING;
    let dir = tmpdir("deep_chain");
    fs::write(dir.join("deep.spec"), chain_spec(50_000)).expect("write spec");
    fs::write(dir.join("edge.spec"), chain_spec(MAX_NESTING)).expect("write spec");
    let message = format!("nested deeper than {MAX_NESTING} levels");
    for cmd in ["check", "simulate"] {
        let out = Command::new(modref_bin())
            .args([cmd, "deep.spec"])
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(stderr.contains(&message), "{cmd}: {stderr}");
    }
    // A chain exactly MAX_NESTING deep is within the bound and simulates.
    let out = Command::new(modref_bin())
        .args(["simulate", "edge.spec"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("x = 1"), "{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hostile_deep_trace_line_fails_report_naming_the_line() {
    let dir = tmpdir("deep_trace");
    let trace = dir.join("deep.jsonl");
    let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    let meta = r#"{"k":"meta","version":1,"clock":"logical"}"#;
    fs::write(&trace, format!("{meta}\n{deep}\n")).expect("write trace");
    let out = Command::new(modref_bin())
        .arg("report")
        .arg(&trace)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("line 2") && stderr.contains("nesting"),
        "{stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}
