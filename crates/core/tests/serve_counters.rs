//! Counter agreement: every `ServeStats` field of a traced serve
//! session equals the `serve.*` trace counter of the same event.
//!
//! The trace recorder is process-global, so any serve session running
//! beside this one would add to the same counters. This test therefore
//! lives in its own integration-test binary (its own process), with a
//! single `#[test]`.

use std::io::Cursor;

use modref_core::serve::{serve, ServeConfig};

fn line(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}}}\n")
}

#[test]
fn serve_stats_equal_their_trace_counters() {
    // One worker and a queue of two. Id 1 is a long explore, so it is
    // still in flight when its duplicate arrives, when ids 3-6 find the
    // queue full, and when the cancel reaches it. Id 2 waits behind it
    // and cannot finish inside its 1 ms deadline.
    let long = r#""op":"explore","workload":"medical","seeds":64"#;
    let mut input = line(1, long);
    input.push_str(&line(1, r#""op":"parse","workload":"fig2""#));
    input.push_str("this is not json\n");
    input.push_str(&line(
        2,
        r#""op":"explore","workload":"medical","seeds":32,"deadline_ms":1"#,
    ));
    for id in 3..=6 {
        input.push_str(&line(id, long));
    }
    input.push_str(&line(7, r#""op":"cancel","target":1"#));
    let cfg = ServeConfig::default()
        .workers(1)
        .queue(2)
        .workload_resolver(modref_workloads::named_spec);

    modref_obs::init(modref_obs::ClockMode::Wall);
    let mut out = Vec::new();
    let stats = serve(Cursor::new(input.into_bytes()), &mut out, &cfg);
    let trace = modref_obs::shutdown();

    for (name, count) in [
        ("serve.accepted", stats.accepted),
        ("serve.completed", stats.completed),
        ("serve.errors", stats.errors),
        ("serve.cancelled", stats.cancelled),
        ("serve.timeout", stats.timeouts),
        ("serve.overloaded", stats.overloaded),
        ("serve.malformed", stats.malformed),
    ] {
        assert_eq!(trace.counter(name).unwrap_or(0), count, "{name}: {stats:?}");
    }
    // Every kind of event happened, so the agreement is not vacuous.
    assert_eq!(stats.malformed, 2, "{stats:?}");
    assert!(stats.overloaded >= 3, "{stats:?}");
    assert_eq!((stats.cancelled, stats.timeouts), (1, 1), "{stats:?}");
    assert_eq!(stats.accepted + stats.overloaded + stats.malformed, 8);
    assert_eq!(stats.accepted, stats.completed + stats.errors);
}
