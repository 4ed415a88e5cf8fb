//! End-to-end tests of `modref serve`: golden scripted sessions (wire
//! protocol v1 and v2), v1-vs-v2 response equivalence, a 100-request
//! mixed load from four concurrent writers, multi-connection TCP with a
//! shared spec cache, streaming progress frames, and the
//! structured-error paths (timeout, cancel mid-explore, malformed
//! input) — all against the real binary, all required to drain cleanly
//! with exit code 0.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread;

use modref_core::api::{ProgressFrame, Request, Response, ResponseBody};
use modref_core::serve::spec_hash;

const BIN: &str = env!("CARGO_BIN_EXE_modref");

fn spawn_serve(extra: &[&str]) -> Child {
    Command::new(BIN)
        .arg("serve")
        .arg("--stdio")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("modref serve spawns")
}

/// Closes stdin, reads every response line, and asserts a clean exit.
fn drain(mut child: Child) -> Vec<Response> {
    drop(child.stdin.take());
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut out)
        .expect("responses are UTF-8");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "serve must drain and exit 0: {status}");
    out.lines()
        .map(|l| Response::from_json(l).unwrap_or_else(|e| panic!("bad response `{l}`: {e}")))
        .collect()
}

fn error_code(resp: &Response) -> Option<&str> {
    match &resp.body {
        ResponseBody::Error { code, .. } => Some(code),
        _ => None,
    }
}

#[test]
fn golden_session_round_trips() {
    let session = include_str!("data/serve_session.jsonl");
    let golden = include_str!("data/serve_session.golden.jsonl");
    let mut child = spawn_serve(&["--workers", "1", "-q"]);
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(session.as_bytes())
        .expect("session written");
    drop(child.stdin.take());
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut out)
        .expect("responses read");
    assert!(child.wait().expect("exits").success());
    assert_eq!(
        out, golden,
        "serve responses diverged from the golden session"
    );
}

#[test]
fn v2_golden_session_round_trips() {
    let session = include_str!("data/serve_session_v2.jsonl");
    let golden = include_str!("data/serve_session_v2.golden.jsonl");
    let mut child = spawn_serve(&["--workers", "1", "-q"]);
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(session.as_bytes())
        .expect("session written");
    drop(child.stdin.take());
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut out)
        .expect("responses read");
    assert!(child.wait().expect("exits").success());
    assert_eq!(
        out, golden,
        "v2 serve responses (incl. progress frames) diverged from the golden session"
    );
}

/// Every v1 request of the golden session, re-enveloped as v2, must be
/// answered byte-identically — responses carry no version tag, so
/// upgrading a client's envelope changes nothing about what it reads
/// back.
#[test]
fn v2_envelope_answers_byte_identically_to_v1() {
    let session = include_str!("data/serve_session.jsonl");
    let golden = include_str!("data/serve_session.golden.jsonl");
    let v2_session: String = session
        .lines()
        .map(|line| {
            let mut req = Request::from_json(line).expect("golden session decodes");
            assert_eq!(req.v, 1, "the recorded session is pre-versioned");
            req.v = 2;
            format!("{}\n", req.to_json_line())
        })
        .collect();
    let mut child = spawn_serve(&["--workers", "1", "-q"]);
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(v2_session.as_bytes())
        .expect("session written");
    drop(child.stdin.take());
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut out)
        .expect("responses read");
    assert!(child.wait().expect("exits").success());
    assert_eq!(out, golden, "v2 envelope must not change a single byte");
}

/// Two TCP clients load the same spec; the second must hit the shared
/// content-addressed cache (asserted via the recorded trace counters)
/// and both get the same hash back.
#[test]
fn tcp_connections_share_the_spec_cache() {
    use std::net::TcpStream;
    let trace_path = std::env::temp_dir().join(format!(
        "modref_serve_cache_trace_{}.jsonl",
        std::process::id()
    ));
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--max-conns",
            "2",
            "--workers",
            "2",
            "--trace",
        ])
        .arg(&trace_path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("modref serve spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("listen banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("address in banner")
        .to_string();
    assert!(
        banner.contains("listening on"),
        "unexpected banner: {banner}"
    );

    let spec = "spec shared;\nvar x : int<16> = 0;\n\
                behavior L leaf { x := x + 1; }\n\
                behavior T seq { children { L; } }\ntop T;\n";
    let request = format!(
        "{{\"v\":2,\"id\":1,\"op\":\"load_spec\",\"spec\":{}}}\n",
        json_str(spec)
    );
    let mut hashes = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .expect("read reply");
        match Response::from_json(reply.trim()).expect("decodes").body {
            ResponseBody::Loaded { hash, .. } => hashes.push(hash),
            other => panic!("expected Loaded, got {other:?}"),
        }
    }
    assert!(child.wait().expect("server exits").success());
    assert_eq!(hashes[0], hashes[1], "content-addressed: one hash");
    assert_eq!(hashes[0], spec_hash(spec));

    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    let _ = std::fs::remove_file(&trace_path);
    let trace = modref_obs::jsonl::parse(&trace_text).expect("trace parses");
    assert!(
        trace.counter("serve.cache.hit").unwrap_or(0) >= 1,
        "second connection must hit the shared spec cache"
    );
    assert!(trace.counter("serve.connections").unwrap_or(0) >= 2);
}

/// A streamed explore emits progress frames strictly before its final
/// response, and the final response is byte-identical to the
/// non-streamed run of the same request.
#[test]
fn streaming_explore_interleaves_frames_before_an_identical_final() {
    let run = |stream: bool| -> String {
        let flag = if stream { ",\"stream\":true" } else { "" };
        let input = format!(
            "{{\"v\":2,\"id\":1,\"op\":\"explore\",\"workload\":\"fig2\",\
             \"seeds\":2,\"top\":3,\"threads\":1{flag}}}\n"
        );
        let mut child = spawn_serve(&["--workers", "1", "-q"]);
        child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("request written");
        drop(child.stdin.take());
        let mut out = String::new();
        child
            .stdout
            .take()
            .expect("stdout piped")
            .read_to_string(&mut out)
            .expect("responses read");
        assert!(child.wait().expect("exits").success());
        out
    };
    let streamed = run(true);
    let lines: Vec<&str> = streamed.lines().collect();
    let (final_line, frames) = lines.split_last().expect("final response present");
    assert!(!frames.is_empty(), "streaming must emit progress frames");
    for frame in frames {
        let f = ProgressFrame::from_json(frame).expect("progress frame");
        assert_eq!(f.id, 1);
    }
    assert!(
        Response::from_json(final_line).is_ok(),
        "last line is the response"
    );
    let plain = run(false);
    assert_eq!(
        plain.trim(),
        *final_line,
        "final response must be byte-identical with streaming off"
    );
}

#[test]
fn hundred_requests_from_four_concurrent_writers_drop_no_ids() {
    let mut child = spawn_serve(&["--workers", "4", "--queue", "256", "-q"]);
    let stdin: Arc<Mutex<ChildStdin>> =
        Arc::new(Mutex::new(child.stdin.take().expect("stdin piped")));

    // Four writers, 25 requests each, ids partitioned by writer. A mixed
    // bag of ops — parse, lint, estimate, refine, a couple of explores —
    // plus guaranteed-failing requests, which still must be answered.
    let part = modref_workloads::named_partition("fig2").expect("fig2 partition");
    let mut handles = Vec::new();
    for writer in 0u64..4 {
        let stdin = Arc::clone(&stdin);
        let part = part.clone();
        handles.push(thread::spawn(move || {
            for i in 0..25u64 {
                let id = writer * 25 + i + 1;
                let part_json = json_str(&part);
                let line = match i % 5 {
                    0 => format!(r#"{{"id":{id},"op":"parse","workload":"medical"}}"#),
                    1 => format!(r#"{{"id":{id},"op":"lint","workload":"fig2"}}"#),
                    2 => format!(
                        r#"{{"id":{id},"op":"estimate","workload":"fig2","part":{part_json}}}"#
                    ),
                    3 => format!(
                        r#"{{"id":{id},"op":"refine","workload":"fig2","part":{part_json},"model":{}}}"#,
                        1 + (id % 4)
                    ),
                    _ => format!(r#"{{"id":{id},"op":"parse","workload":"no_such_workload"}}"#),
                };
                let mut guard = stdin.lock().expect("writer lock");
                guard
                    .write_all(format!("{line}\n").as_bytes())
                    .expect("request written");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer finishes");
    }
    drop(stdin); // last Arc clone gone -> stdin closes -> server drains

    let responses = drain(child);
    assert_eq!(responses.len(), 100, "every request must be answered");
    let ids: BTreeSet<u64> = responses.iter().map(|r| r.id).collect();
    assert_eq!(
        ids,
        (1..=100).collect::<BTreeSet<u64>>(),
        "no id may be dropped or duplicated"
    );
    for r in &responses {
        // The only expected failures are the deliberate bad ones.
        if let Some(code) = error_code(r) {
            assert_eq!(code, "unknown_workload", "id {}: {code}", r.id);
        }
    }
}

#[test]
fn expired_deadline_is_a_timeout_response() {
    let mut child = spawn_serve(&["--workers", "1", "-q"]);
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(
            br#"{"id":1,"op":"explore","workload":"medical","seeds":32,"deadline_ms":1}
"#,
        )
        .expect("request written");
    let responses = drain(child);
    assert_eq!(responses.len(), 1);
    assert_eq!(error_code(&responses[0]), Some("timeout"));
}

#[test]
fn cancel_kills_an_inflight_explore() {
    let mut child = spawn_serve(&["--workers", "1", "-q"]);
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin
        .write_all(
            b"{\"v\":2,\"id\":1,\"op\":\"explore\",\"workload\":\"medical\",\
              \"seeds\":64,\"stream\":true}\n",
        )
        .expect("explore written");
    stdin.flush().expect("flushed");
    // The first progress frame proves the explore is running; cancel it
    // then, however fast the build runs it.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut lines: Vec<String> = Vec::new();
    while lines
        .last()
        .is_none_or(|l| !ProgressFrame::is_progress_line(l))
    {
        let mut l = String::new();
        assert_ne!(stdout.read_line(&mut l).expect("read"), 0, "{lines:?}");
        lines.push(l.trim_end().to_string());
    }
    stdin
        .write_all(b"{\"v\":2,\"id\":2,\"op\":\"cancel\",\"target\":1}\n")
        .expect("cancel written");
    drop(stdin);
    lines.extend(stdout.lines().map(|l| l.expect("responses are UTF-8")));
    assert!(child.wait().expect("server exits").success());
    let responses: Vec<Response> = lines
        .iter()
        .filter(|l| !ProgressFrame::is_progress_line(l))
        .map(|l| Response::from_json(l).unwrap_or_else(|e| panic!("bad response `{l}`: {e}")))
        .collect();
    assert_eq!(responses.len(), 2, "explore error + cancel ack");
    let explore = responses.iter().find(|r| r.id == 1).expect("id 1 answered");
    assert_eq!(error_code(explore), Some("cancelled"));
    let ack = responses.iter().find(|r| r.id == 2).expect("id 2 answered");
    assert!(
        matches!(ack.body, ResponseBody::Cancelled { target: 1, .. }),
        "{ack:?}"
    );
}

#[test]
fn malformed_line_is_answered_and_the_session_recovers() {
    let mut child = spawn_serve(&["--workers", "1", "-q"]);
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"this is not json\n{\"id\":7,\"op\":\"parse\",\"workload\":\"fig2\"}\n")
        .expect("requests written");
    let responses = drain(child);
    assert_eq!(responses.len(), 2);
    let bad = responses
        .iter()
        .find(|r| error_code(r).is_some())
        .expect("malformed line answered");
    assert_eq!(error_code(bad), Some("invalid_request"));
    let good = responses.iter().find(|r| r.id == 7).expect("id 7 answered");
    assert!(matches!(good.body, ResponseBody::Parsed(_)), "{good:?}");
}

/// Minimal JSON string encoding for partition text (quotes + newlines).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs one single-worker session over `input`, written from a second
/// thread so that a long input cannot deadlock against unread responses.
fn exchange(input: String) -> Vec<Response> {
    let mut child = spawn_serve(&["--workers", "1", "-q"]);
    let mut stdin = child.stdin.take().expect("stdin piped");
    let writer = thread::spawn(move || stdin.write_all(input.as_bytes()).expect("input written"));
    let responses = drain(child);
    writer.join().expect("writer finishes");
    responses
}

/// The response to request `id`.
fn answer(responses: &[Response], id: u64) -> &Response {
    responses
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("id {id} unanswered: {responses:?}"))
}

/// A spec whose leaf `A` has `a_body`, and a partition moving its
/// sibling `B` and the variable `y` to an ASIC.
fn two_leaf_spec(a_body: &str) -> String {
    format!(
        "spec hostile;\nvar x : int<16> = 0;\nvar y : int<16> = 1;\nvar i : int<16> = 0;\n\
         behavior A leaf {{\n{a_body}\n}}\nbehavior B leaf {{\n  y := y + x;\n}}\n\
         behavior Top seq {{ children {{ A; B; }} }}\ntop Top;\n"
    )
}

const HOSTILE_PART: &str = "component PROC processor 65536\ncomponent ASIC asic 10000 75\n\
                            default PROC\nbehavior B -> ASIC\nvar y -> ASIC\n";

#[test]
fn hostile_spec_at_the_nesting_bound_answers_every_op() {
    use modref_spec::parser::MAX_NESTING;
    // Each body nests exactly MAX_NESTING levels: the statement is
    // level 1 and its deepest operand level MAX_NESTING.
    let n = MAX_NESTING - 2;
    let bodies = [
        format!("x := {}y{};", "(".repeat(n), ")".repeat(n)),
        format!("x := {};", vec!["y"; MAX_NESTING - 1].join(" + ")),
        format!("x := {}y;", "- ".repeat(n)),
        format!("{}x := y;{}", "if (y == 1) {\n".repeat(n), "}\n".repeat(n)),
    ];
    let part = json_str(HOSTILE_PART);
    for body in bodies {
        let spec = json_str(&two_leaf_spec(&body));
        let ops = [
            r#""op":"parse""#.to_string(),
            format!(r#""op":"lint","part":{part}"#),
            format!(r#""op":"estimate","part":{part}"#),
            format!(r#""op":"refine","part":{part},"model":1"#),
            format!(r#""op":"refine","part":{part},"model":4"#),
            format!(r#""op":"explore","part":{part},"seeds":1"#),
            format!(r#""op":"verify","part":{part},"seeds":1"#),
        ];
        let input: String = ops
            .iter()
            .enumerate()
            .map(|(i, op)| format!("{{\"v\":2,\"id\":{},{op},\"spec\":{spec}}}\n", i + 1))
            .collect();
        let responses = exchange(input);
        assert!(matches!(
            answer(&responses, 1).body,
            ResponseBody::Parsed(_)
        ));
        for id in 2..=ops.len() as u64 {
            let resp = answer(&responses, id);
            assert_eq!(error_code(resp), None, "{resp:?}");
        }
    }
}

#[test]
fn hostile_over_deep_load_spec_is_a_parse_error_and_the_session_continues() {
    let n = 200_000;
    let spec = two_leaf_spec(&format!("x := {}1{};", "(".repeat(n), ")".repeat(n)));
    let input = format!(
        "{{\"v\":2,\"id\":1,\"op\":\"load_spec\",\"spec\":{}}}\n\
         {{\"v\":2,\"id\":2,\"op\":\"parse\",\"workload\":\"fig2\"}}\n",
        json_str(&spec)
    );
    let responses = exchange(input);
    assert_eq!(error_code(answer(&responses, 1)), Some("parse"));
    assert!(matches!(
        answer(&responses, 2).body,
        ResponseBody::Parsed(_)
    ));
}

#[test]
fn hostile_deep_json_line_is_invalid_and_the_session_continues() {
    let n = 200_000;
    let input = format!(
        "{}{}\n{{\"id\":7,\"op\":\"parse\",\"workload\":\"fig2\"}}\n",
        "[".repeat(n),
        "]".repeat(n)
    );
    let responses = exchange(input);
    assert_eq!(responses.len(), 2, "{responses:?}");
    let bad = responses
        .iter()
        .find(|r| r.id != 7)
        .expect("deep line answered");
    assert_eq!(error_code(bad), Some("invalid_request"));
    assert!(matches!(
        answer(&responses, 7).body,
        ResponseBody::Parsed(_)
    ));
}

#[test]
fn hostile_oversized_array_fails_verify_and_the_session_continues() {
    // `verify` is the serve op that runs the simulator, in the server
    // process: 32 GiB of array storage must be refused, not allocated.
    let spec = "spec huge;\nvar a : int<8>[4294967295] = 1;\n\
                behavior Top leaf {\n  a[0] := 2;\n}\ntop Top;\n";
    let input = format!(
        "{{\"v\":2,\"id\":1,\"op\":\"verify\",\"seeds\":1,\"spec\":{}}}\n\
         {{\"v\":2,\"id\":2,\"op\":\"parse\",\"workload\":\"fig2\"}}\n",
        json_str(spec)
    );
    let responses = exchange(input);
    match &answer(&responses, 1).body {
        ResponseBody::Verified {
            equivalent,
            records,
            ..
        } => {
            assert!(!equivalent);
            assert!(!records.is_empty());
            for r in records {
                assert!(!r.equivalent);
                assert!(
                    r.detail
                        .contains("original simulation failed: variable `a` takes the spec past"),
                    "{r:?}"
                );
            }
        }
        other => panic!("expected a verify answer, got {other:?}"),
    }
    assert!(matches!(
        answer(&responses, 2).body,
        ResponseBody::Parsed(_)
    ));
}

#[test]
fn hostile_constant_overflows_parse_ok() {
    // `MIN / -1` in a `for` bound, and `for` bounds whose difference
    // overflows `i64`: constant folding must answer, not panic.
    let bodies = [
        "for i := 0 to (0 - 9223372036854775807 - 1) / (0 - 1) { x := 1; }",
        "for i := 0 - 9223372036854775807 to 9223372036854775807 { x := 1; }",
    ];
    for body in bodies {
        let input = format!(
            "{{\"id\":1,\"op\":\"parse\",\"spec\":{}}}\n",
            json_str(&two_leaf_spec(body))
        );
        let responses = exchange(input);
        assert!(
            matches!(answer(&responses, 1).body, ResponseBody::Parsed(_)),
            "{body}: {responses:?}"
        );
    }
}
