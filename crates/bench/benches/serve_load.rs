//! `modref serve` load generator: many concurrent TCP sessions against
//! one shared worker pool and spec cache.
//!
//! Each session is a realistic v2 client: it connects, sends `load_spec`
//! with the same spec text every other session sends, waits for the
//! content hash, then pipelines `parse` and `lint` requests referencing
//! that hash — so the first session pays the parse and every later one
//! exercises the content-addressed cache. The sweep drives rising
//! concurrency levels up to `MODREF_SERVE_SESSIONS` (default 1000)
//! sessions, and for each level records end-to-end request latency
//! (p50/p99/mean from the server's own `serve.request_ns` histogram),
//! wall-clock throughput, and cache-hit counts, into `BENCH_serve.json`
//! at the repo root. Saturation throughput is the best level's
//! requests/second. A small doubled run asserts the response multiset
//! is identical across runs before any numbers are reported.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use modref_bench::harness::Criterion;
use modref_bench::{build_profile, criterion_group, criterion_main, nproc};

use modref_core::api::{Request, RequestOp, SpecSource};
use modref_core::serve::{serve_listener, spec_hash, ServeConfig};

/// The spec every session loads: tiny enough that per-request protocol
/// cost dominates, so the numbers describe the server, not the parser.
const SPEC: &str = "spec load;\nvar x : int<16> = 0;\n\
                    behavior L leaf { x := x + 1; }\n\
                    behavior T seq { children { L; } }\ntop T;\n";

/// Requests each session sends (`load_spec`, `parse`, `lint`).
const REQS_PER_SESSION: u64 = 3;

/// One concurrency level's measurement.
struct Record {
    sessions: usize,
    requests: u64,
    cache_hits: u64,
    wall_ms: f64,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
}

fn server_config(sessions: usize) -> ServeConfig {
    let workers = thread::available_parallelism().map_or(4, |n| n.get());
    ServeConfig::default()
        .workers(workers)
        // Room for every in-flight request: the bench measures latency
        // under load, not the backpressure rejection path.
        .queue((sessions * REQS_PER_SESSION as usize).max(1024))
        .max_connections(sessions)
        .workload_resolver(modref_workloads::named_spec)
}

/// Connects with retries: a thousand simultaneous SYNs can overflow the
/// accept backlog, and the kernel's own retransmit is slower than ours.
fn connect(addr: SocketAddr) -> TcpStream {
    let mut last = None;
    for _ in 0..100 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) => {
                last = Some(e);
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
    panic!("connect {addr}: {last:?}");
}

/// Runs one client session and returns its response lines (progress-free
/// ops, so exactly one line per request).
fn session(addr: SocketAddr, hash: &str) -> Vec<String> {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut lines = Vec::with_capacity(REQS_PER_SESSION as usize);
    let read_line = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        assert!(!line.is_empty(), "server closed mid-session");
        line.trim_end().to_string()
    };
    // The hash ops are only valid once the spec is resident, so await
    // the load_spec reply before pipelining the rest.
    let load = Request::v2(
        1,
        RequestOp::LoadSpec {
            text: SPEC.to_string(),
        },
    );
    writer
        .write_all(format!("{}\n", load.to_json_line()).as_bytes())
        .expect("send load_spec");
    let loaded = read_line(&mut reader);
    assert!(
        loaded.contains(hash),
        "load_spec must return the content hash: {loaded}"
    );
    lines.push(loaded);
    let parse = Request::v2(
        2,
        RequestOp::Parse {
            source: SpecSource::Hash(hash.to_string()),
        },
    );
    let lint = Request::v2(
        3,
        RequestOp::Lint {
            source: SpecSource::Hash(hash.to_string()),
            part: None,
            model: None,
            deny: Vec::new(),
            allow: Vec::new(),
        },
    );
    writer
        .write_all(format!("{}\n{}\n", parse.to_json_line(), lint.to_json_line()).as_bytes())
        .expect("send parse+lint");
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    lines.push(read_line(&mut reader));
    lines.push(read_line(&mut reader));
    lines
}

/// Drives `sessions` concurrent TCP sessions against a fresh server and
/// returns the level's record plus every response line (sorted).
fn run_level(sessions: usize) -> (Record, Vec<String>) {
    modref_obs::init(modref_obs::ClockMode::Wall);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server =
        thread::spawn(move || serve_listener(listener, &server_config(sessions)).expect("serve"));
    let hash = spec_hash(SPEC);
    let start = Instant::now();
    let clients: Vec<_> = (0..sessions)
        .map(|_| {
            let hash = hash.clone();
            thread::spawn(move || session(addr, &hash))
        })
        .collect();
    let mut responses: Vec<String> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    let stats = server.join().expect("server thread");
    let wall = start.elapsed();
    let requests = sessions as u64 * REQS_PER_SESSION;
    assert_eq!(stats.completed, requests, "every request must complete");
    assert_eq!(stats.overloaded, 0, "queue was sized to never reject");
    assert_eq!(stats.errors, 0, "no request may fail");
    let hist = modref_obs::histogram("serve.request_ns").snapshot();
    let cache_hits = modref_obs::counter("serve.cache.hit").get();
    modref_obs::shutdown();
    assert_eq!(hist.count, requests, "histogram covers every request");
    assert!(
        cache_hits >= 2 * (sessions as u64 - 1),
        "all sessions after the first must hit the spec cache"
    );
    responses.sort();
    let us = |ns: u64| ns as f64 / 1e3;
    let record = Record {
        sessions,
        requests,
        cache_hits,
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput_rps: requests as f64 / wall.as_secs_f64(),
        p50_us: us(hist.percentile(0.50).unwrap_or(0)),
        p99_us: us(hist.percentile(0.99).unwrap_or(0)),
        mean_us: hist.mean().unwrap_or(0.0) / 1e3,
    };
    (record, responses)
}

fn json(records: &[Record], saturation_rps: f64) -> String {
    let mut out = String::from("{\n  \"bench\": \"serve\",\n");
    out.push_str(&format!(
        "  \"nproc\": {},\n  \"profile\": \"{}\",\n  \"requests_per_session\": {REQS_PER_SESSION},\n",
        nproc(),
        build_profile()
    ));
    out.push_str(&format!(
        "  \"saturation_throughput_rps\": {saturation_rps:.1},\n  \"levels\": [\n"
    ));
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"sessions\": {},\n      \"requests\": {},\n      \"cache_hits\": {},\n      \"wall_ms\": {:.1},\n      \"throughput_rps\": {:.1},\n      \"request_p50_us\": {:.1},\n      \"request_p99_us\": {:.1},\n      \"request_mean_us\": {:.1}\n    }}{}\n",
            r.sessions,
            r.requests,
            r.cache_hits,
            r.wall_ms,
            r.throughput_rps,
            r.p50_us,
            r.p99_us,
            r.mean_us,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn bench_serve_load(c: &mut Criterion) {
    // The harness-timed view (respects MODREF_BENCH_MS): one complete
    // session — connect, load_spec, parse, lint — against a one-shot
    // server. The CI smoke step runs exactly this with a tiny budget.
    let mut group = c.benchmark_group("serve_session");
    group.bench_function("load_parse_lint", |b| {
        b.iter(|| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let server =
                thread::spawn(move || serve_listener(listener, &server_config(1)).expect("serve"));
            let lines = session(addr, &spec_hash(SPEC));
            server.join().expect("server thread");
            lines
        })
    });
    group.finish();

    // Determinism gate: the same small run twice must produce the same
    // response multiset, or the latency numbers describe nothing.
    let small = std::cmp::min(sessions_target(), 32);
    let (_, first) = run_level(small);
    let (_, second) = run_level(small);
    assert_eq!(first, second, "responses must be identical across runs");

    // The recorded sweep the acceptance criteria read.
    let target = sessions_target();
    let mut levels: Vec<usize> = [target / 10, target / 2, target]
        .into_iter()
        .map(|n| n.max(1))
        .collect();
    levels.dedup();
    let records: Vec<Record> = levels.into_iter().map(|n| run_level(n).0).collect();
    let saturation_rps = records.iter().map(|r| r.throughput_rps).fold(0.0, f64::max);
    for r in &records {
        eprintln!(
            "{:>5} sessions, {:>5} requests in {:>8.1} ms: {:>8.1} req/s; \
             request p50 {:>8.1} us, p99 {:>9.1} us, mean {:>8.1} us; {} cache hits",
            r.sessions,
            r.requests,
            r.wall_ms,
            r.throughput_rps,
            r.p50_us,
            r.p99_us,
            r.mean_us,
            r.cache_hits,
        );
    }
    eprintln!("saturation throughput: {saturation_rps:.1} req/s");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, json(&records, saturation_rps)).expect("write BENCH_serve.json");
    eprintln!("wrote {path}");
}

/// Peak session count: `MODREF_SERVE_SESSIONS` (default 1000).
fn sessions_target() -> usize {
    std::env::var("MODREF_SERVE_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

criterion_group!(benches, bench_serve_load);
criterion_main!(benches);
