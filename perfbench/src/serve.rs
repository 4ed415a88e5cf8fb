//! The `serve_edit` workload: an editor/CI client sending an open loop
//! of seeded Poisson arrivals over one loopback TCP connection to
//! `serve_listener` with two workers.
//!
//! Every 16 requests hold one `load_spec` of a new spec revision (a
//! cache write that evicts once past 64 entries) and 15 reads by hash:
//! 4 `parse`, 4 `lint`, 3 `estimate`, 2 `refine` (model 2), 1 `lint`
//! with a partition and 1 `explore` (1 seed, top 5). A hash op names the
//! newest revision whose `load_spec` reply has already arrived.
//!
//! Latency is timed from each request's due time, so a stalled sender
//! shows as latency of the requests it delayed.
//!
//! A run interleaves short levels, each on a fresh server and
//! connection, and reports medians over them: how a connection's
//! acknowledgements settle, and stalls of the host, move a whole level
//! at a time.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use modref_core::api::{Request, RequestOp, Response, ResponseBody, SpecSource};
use modref_core::serve::{serve, serve_listener, spec_hash, ServeConfig, ServeStats};
use modref_obs::HistogramSnapshot;
use modref_rng::Rng;

use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile, sorted, Latencies};
use crate::Args;

/// Server worker threads: the container's two cores.
pub const WORKERS: usize = 2;
/// Server queue capacity: room for every request a host stall can pile
/// up at the fixed rates, so the benchmark measures latency under load
/// rather than the backpressure refusals of the default queue of 64.
const QUEUE: usize = 1024;
/// The latency limit on p99 that a sustainable rate must meet. The
/// mix's slowest op alone keeps p99 near 20 ms at any rate, so the limit
/// sits above it and the search finds where queueing takes over.
const LIMIT_MS: f64 = 50.0;
/// A level whose generator ran later than this share of the limit (at
/// its p99) did not offer the load it claims, and is invalid.
const LATE_SHARE: f64 = 0.25;
/// The fixed offered rates, requests per second. The mix's mean
/// execute time is about 1.1 ms (a `lint` with a partition refines under
/// all four models and takes about 11 ms), so two workers saturate near
/// 1900 req/s on two cores; the high fixed rate stays well below that.
const FIXED_RATES: [f64; 2] = [500.0, 1000.0];
/// Levels per fixed rate, interleaved across the rates.
const FIXED_LEVELS: usize = 3;
/// Closed-loop saturation levels, and the requests each keeps in flight.
const SATURATION_LEVELS: usize = 3;
const SATURATION_WINDOW: usize = 64;
/// Open-loop levels of the max-rate search.
const SEARCH_LEVELS: usize = 4;
/// Shares of `--seconds` for the fixed rates, the saturation levels and
/// the search.
const FIXED_SHARE: f64 = 0.5;
const SATURATION_SHARE: f64 = 0.15;
const SEARCH_SHARE: f64 = 0.3;
/// Ids of the set-up requests, above any id of the loop.
const SETUP_ID: u64 = 1 << 40;
/// Extra set-ups (server start, connect, one request of each op) beyond
/// the one each level makes; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 3;

/// The operations of the mix, in the order of the per-op metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    LoadSpec,
    Parse,
    Lint,
    Estimate,
    Refine,
    LintPart,
    Explore,
}

const OPS: [Op; 7] = [
    Op::LoadSpec,
    Op::Parse,
    Op::Lint,
    Op::Estimate,
    Op::Refine,
    Op::LintPart,
    Op::Explore,
];

/// One block of 16 requests, shuffled per block by the seed.
const BLOCK: [Op; 16] = [
    Op::LoadSpec,
    Op::Parse,
    Op::Parse,
    Op::Parse,
    Op::Parse,
    Op::Lint,
    Op::Lint,
    Op::Lint,
    Op::Lint,
    Op::Estimate,
    Op::Estimate,
    Op::Estimate,
    Op::Refine,
    Op::Refine,
    Op::LintPart,
    Op::Explore,
];

impl Op {
    fn index(self) -> usize {
        OPS.iter().position(|&o| o == self).expect("listed")
    }
}

/// The workload's fixed inputs: the medical spec's revisions and the
/// partition the partition-taking ops use.
struct Inputs {
    base: String,
    part: String,
}

impl Inputs {
    fn new() -> Self {
        Inputs {
            base: modref_spec::printer::print(&modref_workloads::medical_spec()),
            part: modref_workloads::named_partition("medical").expect("medical has a partition"),
        }
    }

    /// Revision `r` of the spec: an edit of its header comment, so every
    /// revision has its own content hash and its own cache entry.
    fn revision(&self, r: usize) -> String {
        format!("// revision {r}\n{}", self.base)
    }

    fn line(&self, id: u64, op: Op, rev: usize, hash: &str) -> String {
        let source = SpecSource::Hash(hash.to_string());
        let op = match op {
            Op::LoadSpec => RequestOp::LoadSpec {
                text: self.revision(rev),
            },
            Op::Parse => RequestOp::Parse { source },
            Op::Lint | Op::LintPart => RequestOp::Lint {
                source,
                part: (op == Op::LintPart).then(|| self.part.clone()),
                model: None,
                deny: Vec::new(),
                allow: Vec::new(),
            },
            Op::Estimate => RequestOp::Estimate {
                source,
                part: self.part.clone(),
            },
            Op::Refine => RequestOp::Refine {
                source,
                part: self.part.clone(),
                model: 2,
            },
            Op::Explore => RequestOp::Explore {
                source,
                part: None,
                seeds: Some(1),
                threads: None,
                top: Some(5),
            },
        };
        Request::v2(id, op).to_json_line()
    }
}

/// When each request is due (seconds from the level's start) and what
/// it asks for, from the seed.
struct Schedule {
    due_s: Vec<f64>,
    ops: Vec<Op>,
    /// The revision each `load_spec` writes (revision 0 is loaded during
    /// set-up).
    rev: Vec<usize>,
}

impl Schedule {
    fn new(seed: u64, rate: f64, secs: f64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let mut due_s = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.gen_f64()).ln() / rate;
            if t >= secs {
                break;
            }
            due_s.push(t);
        }
        let mut ops = Vec::with_capacity(due_s.len() + BLOCK.len());
        while ops.len() < due_s.len() {
            let mut block = BLOCK;
            rng.shuffle(&mut block);
            ops.extend(block);
        }
        ops.truncate(due_s.len());
        let mut loads = 0;
        let rev = ops
            .iter()
            .map(|&op| {
                loads += usize::from(op == Op::LoadSpec);
                loads
            })
            .collect();
        Schedule { due_s, ops, rev }
    }
}

/// How a level offers its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Load {
    /// Poisson arrivals at this many requests per second.
    Open(f64),
    /// As fast as replies return, keeping this many requests in flight.
    Closed(usize),
}

/// The most requests per second a closed level's schedule provides for.
const CLOSED_CAP_RPS: f64 = 20_000.0;

/// What the server's own histograms and counters recorded during a
/// traced level.
struct ServerSide {
    queue: HistogramSnapshot,
    exec: HistogramSnapshot,
    cache_hits: u64,
    cache_misses: u64,
    cache_evicts: u64,
}

/// One measured level.
struct Level {
    load: Load,
    secs: f64,
    setup_s: f64,
    all: Latencies,
    per_op: Vec<Latencies>,
    late_ms: Vec<f64>,
    /// Requests sent, the set-up's included.
    sent_count: usize,
    /// Replies received, the set-up's included.
    reply_count: usize,
    /// Request lines in send order, set-up first, when kept.
    sent: Vec<String>,
    /// Reply lines sorted by id, when kept.
    replies: Vec<(u64, String)>,
    stats: ServeStats,
    achieved_rps: f64,
    growing: bool,
    server: Option<ServerSide>,
}

impl Level {
    /// The offered rate of an open level (0 for a closed one).
    fn rate(&self) -> f64 {
        match self.load {
            Load::Open(rate) => rate,
            Load::Closed(_) => 0.0,
        }
    }

    fn late_p99_ms(&self) -> f64 {
        percentile(&self.late_ms, 99.0).unwrap_or(0.0)
    }

    fn valid(&self) -> bool {
        self.late_p99_ms() <= LATE_SHARE * LIMIT_MS
    }

    fn offered_rps(&self) -> f64 {
        self.all.attempted() as f64 / self.secs
    }

    /// Whether the level sustained its rate: valid, p99 within the limit
    /// (failures count as over it), at least 98% of the offered rate
    /// achieved, and no growing backlog.
    fn sustained(&self) -> bool {
        self.valid()
            && self.all.percentile(99.0).is_some_and(|p| p <= LIMIT_MS)
            && self.achieved_rps >= 0.98 * self.offered_rps()
            && !self.growing
    }

    fn describe(&self) -> String {
        let p = |q| self.all.percentile(q).unwrap_or(f64::NAN);
        let load = match self.load {
            Load::Open(rate) => format!("open {rate:.0} req/s"),
            Load::Closed(window) => format!("closed {window} in flight"),
        };
        format!(
            "level {load} x {:.2} s: n={} p50 {:.3} ms p99 {:.3} ms achieved {:.1} req/s \
             gen_late_p99 {:.3} ms failed {} setup {:.4} s{}{}",
            self.secs,
            self.all.attempted(),
            p(50.0),
            p(99.0),
            self.achieved_rps,
            self.late_p99_ms(),
            self.all.failed(),
            self.setup_s,
            if self.valid() { "" } else { " INVALID" },
            if self.growing { " GROWING" } else { "" },
        )
    }
}

/// The top-level `id` and `ok` of a reply line, read without decoding
/// the payload: a scan that skips strings and nested values.
fn reply_head(line: &str) -> Option<(u64, bool)> {
    let b = line.as_bytes();
    let (mut depth, mut i) = (0usize, 0usize);
    let (mut id, mut ok) = (None, None);
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                let key = &b[start..i.min(b.len())];
                i += 1;
                if depth == 1 && b.get(i) == Some(&b':') {
                    let value = &line[i + 1..];
                    match key {
                        b"id" => {
                            id = value
                                .split(|c: char| !c.is_ascii_digit())
                                .next()?
                                .parse()
                                .ok()
                        }
                        b"ok" => ok = Some(value.starts_with("true")),
                        _ => {}
                    }
                }
                continue;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            _ => {}
        }
        i += 1;
    }
    Some((id?, ok?))
}

/// One reply as the client saw it.
struct Arrival {
    at: Instant,
    /// The reply's id and whether it succeeded; `None` when the line is
    /// not a reply.
    head: Option<(u64, bool)>,
    /// The line itself, when the level keeps lines.
    line: Option<String>,
}

/// Replies received so far, for a closed loop's sender to wait on.
#[derive(Default)]
struct Progress {
    done: AtomicUsize,
    lock: Mutex<()>,
    changed: Condvar,
}

impl Progress {
    fn add_one(&self) {
        self.done.fetch_add(1, Ordering::SeqCst);
        self.changed.notify_one();
    }

    /// Blocks until fewer than `window` of `sent` requests await a reply.
    fn wait_below(&self, sent: usize, window: usize) {
        let mut guard = self.lock.lock().expect("progress lock");
        while sent - self.done.load(Ordering::SeqCst) >= window {
            // The timeout covers a notification sent between the check
            // and the wait.
            guard = self
                .changed
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("progress lock")
                .0;
        }
    }
}

/// Reads reply lines until the server closes the connection, stamping
/// each on arrival. Successful `load_spec` replies advance `acked`.
fn receive(
    stream: TcpStream,
    schedule: &Schedule,
    acked: &AtomicUsize,
    progress: &Progress,
    keep: bool,
) -> std::io::Result<Vec<Arrival>> {
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(schedule.ops.len());
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(out);
        }
        let at = Instant::now();
        let head = reply_head(&line);
        if let Some((id, true)) = head {
            let i = (id as usize).wrapping_sub(1);
            if schedule.ops.get(i) == Some(&Op::LoadSpec) {
                acked.fetch_max(schedule.rev[i], Ordering::SeqCst);
            }
        }
        progress.add_one();
        out.push(Arrival {
            at,
            head,
            line: keep.then(|| line.trim_end().to_string()),
        });
    }
}

/// Sends one request line and waits for its reply (the set-up's closed
/// loop). An error reply fails the set-up.
fn round_trip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String, String> {
    writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| format!("receive: {e}"))?;
    let reply = reply.trim_end().to_string();
    match Response::from_json(&reply).map(|r| r.body) {
        Ok(ResponseBody::Error { .. }) | Err(_) => Err(format!("set-up request failed: {reply}")),
        Ok(_) => Ok(reply),
    }
}

/// Runs one level for `secs` against a fresh server. With `traced` the
/// recorder is on and the server's histograms are read; with `keep` the
/// request and reply lines are kept for the replay.
fn run_level(
    inputs: &Inputs,
    seed: u64,
    load: Load,
    secs: f64,
    traced: bool,
    keep: bool,
) -> Result<Level, String> {
    if traced {
        modref_obs::init(modref_obs::ClockMode::Wall);
    }
    // Set-up: draw the schedule, start the server, connect, load
    // revision 0 and send one request of every other op, so the server's
    // threads, cache entry and access graph are warm.
    let t_setup = Instant::now();
    let schedule = match load {
        Load::Open(rate) => Schedule::new(seed, rate, secs),
        Load::Closed(_) => Schedule::new(seed, CLOSED_CAP_RPS, secs),
    };
    let n = schedule.ops.len();
    let revisions = schedule.rev.last().copied().unwrap_or(0);
    let hashes: Vec<String> = (0..=revisions)
        .map(|r| spec_hash(&inputs.revision(r)))
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let cfg = ServeConfig::default()
        .workers(WORKERS)
        .queue(QUEUE)
        .max_connections(1);
    let server = thread::spawn(move || serve_listener(listener, &cfg));
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut sent = Vec::new();
    let mut replies = Vec::new();
    for (k, &op) in OPS.iter().enumerate() {
        let id = SETUP_ID + k as u64;
        let line = inputs.line(id, op, 0, &hashes[0]);
        let reply = round_trip(&mut writer, &mut reader, &line)?;
        sent.push(line);
        replies.push((id, reply));
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    // The reader holds no buffered bytes: every reply so far was awaited.
    let stream = reader.into_inner();

    let acked = AtomicUsize::new(0);
    let progress = Progress::default();
    // When each request was due: its scheduled time in an open loop, its
    // send time in a closed one.
    let mut due_at = Vec::with_capacity(n);
    let mut late_ms = Vec::with_capacity(n);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let received = thread::scope(|s| {
        let receiver = s.spawn(|| receive(stream, &schedule, &acked, &progress, keep));
        let mut send_err = None;
        for i in 0..n {
            let due = match load {
                Load::Open(_) => {
                    let due = start + Duration::from_secs_f64(schedule.due_s[i]);
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    due
                }
                Load::Closed(window) => {
                    progress.wait_below(i, window);
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    now
                }
            };
            let rev = acked.load(Ordering::SeqCst);
            let line = inputs.line(i as u64 + 1, schedule.ops[i], schedule.rev[i], &hashes[rev]);
            late_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
            due_at.push(due);
            if let Err(e) = writer.write_all(format!("{line}\n").as_bytes()) {
                send_err = Some(e);
                break;
            }
            if keep {
                sent.push(line);
            }
        }
        let _ = writer.shutdown(std::net::Shutdown::Write);
        let received = receiver.join().expect("receiver thread");
        match send_err {
            Some(e) => Err(e),
            None => received,
        }
    })
    .map_err(|e| format!("connection: {e}"))?;
    let stats = server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serve_listener: {e}"))?;
    let server_side = traced.then(|| {
        let side = ServerSide {
            queue: modref_obs::histogram("serve.queue_ns").snapshot(),
            exec: modref_obs::histogram("serve.exec_ns").snapshot(),
            cache_hits: modref_obs::counter("serve.cache.hit").get(),
            cache_misses: modref_obs::counter("serve.cache.miss").get(),
            cache_evicts: modref_obs::counter("serve.cache.evict").get(),
        };
        modref_obs::shutdown();
        side
    });

    let n_sent = due_at.len();
    let sent_count = OPS.len() + n_sent;
    let reply_count = OPS.len() + received.len();
    let mut all = Latencies::default();
    let mut per_op = vec![Latencies::default(); OPS.len()];
    let mut arrival_of: Vec<Option<(Instant, bool)>> = vec![None; n_sent];
    let mut last = start;
    for arrival in received {
        let Some((id, ok)) = arrival.head else {
            return Err(format!("undecodable reply: {:?}", arrival.line));
        };
        let Some(slot) = (id as usize)
            .checked_sub(1)
            .and_then(|i| arrival_of.get_mut(i))
        else {
            return Err(format!("reply for unknown id {id}"));
        };
        if slot.is_some() {
            return Err(format!("two replies for id {id}"));
        }
        *slot = Some((arrival.at, !ok));
        last = last.max(arrival.at);
        if let Some(line) = arrival.line {
            let decoded = Response::from_json(&line).map_err(|e| format!("reply {id}: {e}"))?;
            if decoded.id != id || matches!(decoded.body, ResponseBody::Error { .. }) == ok {
                return Err(format!("reply {id} was misread: {line}"));
            }
            replies.push((id, line));
        }
    }
    let mut ok_lat = Vec::with_capacity(n_sent);
    for (i, a) in arrival_of.iter().enumerate() {
        let op = schedule.ops[i].index();
        match a {
            Some((at, false)) => {
                let ms = at.saturating_duration_since(due_at[i]).as_secs_f64() * 1e3;
                all.ok(ms);
                per_op[op].ok(ms);
                ok_lat.push(ms);
            }
            // An error reply, or none at all.
            _ => {
                all.fail();
                per_op[op].fail();
            }
        }
    }
    replies.sort_by_key(|(id, _)| *id);
    // A backlog grows when the last third of the level waits much longer
    // than the first third.
    let third = ok_lat.len() / 3;
    let growing = third > 0 && {
        let first = median(&ok_lat[..third]).expect("non-empty");
        let final_ = median(&ok_lat[ok_lat.len() - third..]).expect("non-empty");
        final_ > 2.0 * first + 2.0
    };
    let ok = all.attempted() - all.failed();
    Ok(Level {
        load,
        secs,
        setup_s,
        achieved_rps: ok as f64 / secs.max((last - start).as_secs_f64()),
        all,
        per_op,
        late_ms: sorted(&late_ms),
        sent_count,
        reply_count,
        sent,
        replies,
        stats,
        growing,
        server: server_side,
    })
}

/// The per-level correctness checks: one reply per request, balanced
/// server counters, and — when the level kept its lines — replies
/// byte-equal to a one-worker in-memory `serve()` of the same lines.
fn check_level(level: &Level, report: &mut Report) {
    let name = level.describe();
    let sent = level.sent_count as u64;
    report.check(level.reply_count == level.sent_count, || {
        format!("{name}: {} replies for {sent} requests", level.reply_count)
    });
    let s = level.stats;
    report.check(
        s.accepted == s.completed + s.errors && s.accepted + s.overloaded + s.malformed == sent,
        || format!("{name}: server counters do not balance: {s:?} for {sent} sent"),
    );
    if level.sent.len() != level.sent_count {
        return;
    }
    // A refused request never reached a worker; the replay, with room
    // for every line, answers it. Compare the rest.
    let refused: Vec<u64> = level
        .replies
        .iter()
        .filter(|(_, l)| l.contains("\"code\":\"overloaded\""))
        .map(|(id, _)| *id)
        .collect();
    let input: String = level.sent.iter().map(|l| format!("{l}\n")).collect();
    let mut out = Vec::new();
    let cfg = ServeConfig::default()
        .workers(1)
        .queue(level.sent.len() + 1);
    serve(Cursor::new(input.into_bytes()), &mut out, &cfg);
    let text = String::from_utf8(out).unwrap_or_default();
    let mut expected: Vec<(u64, &str)> = text
        .lines()
        .map(|l| (Response::from_json(l).map_or(u64::MAX, |r| r.id), l))
        .filter(|(id, _)| !refused.contains(id))
        .collect();
    expected.sort_by_key(|(id, _)| *id);
    let got: Vec<&(u64, String)> = level
        .replies
        .iter()
        .filter(|(id, _)| !refused.contains(id))
        .collect();
    let same = expected.len() == got.len()
        && expected
            .iter()
            .zip(got)
            .all(|((a, x), (b, y))| a == b && x == y);
    report.check(same, || {
        format!("{name}: TCP replies differ from the one-worker in-memory replay")
    });
}

/// Runs a level, checks it and prints it; with `keep` its lines are
/// replayed and then dropped.
fn measured_level(
    inputs: &Inputs,
    seed: u64,
    load: Load,
    secs: f64,
    keep: bool,
    report: &mut Report,
) -> Result<Level, String> {
    let mut level = run_level(inputs, seed, load, secs, false, keep)?;
    report.note(level.describe());
    check_level(&level, report);
    level.sent = Vec::new();
    level.replies = Vec::new();
    Ok(level)
}

/// The search's next offered rate, from the highest sustained rate `lo`
/// (0 when none) and the lowest failed rate `hi`: their geometric mean,
/// or half of `hi` while nothing was sustained.
fn next_rate(lo: f64, hi: f64) -> f64 {
    if lo > 0.0 {
        (lo * hi).sqrt()
    } else {
        hi / 2.0
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn mean_ns(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum as f64 / h.count as f64
    }
}

/// The median over levels of each level's value.
fn median_of(levels: &[&Level], value: impl Fn(&Level) -> Option<f64>) -> Option<f64> {
    median(&levels.iter().filter_map(|l| value(l)).collect::<Vec<_>>())
}

/// The untraced run: the fixed rates as interleaved levels, closed-loop
/// saturation levels, then the max-rate search between the highest
/// sustained fixed rate and the saturation throughput.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let inputs = Inputs::new();
    let s = args.seconds;
    let seed = |k: usize| args.seed.wrapping_add(k as u64);
    let mut setups = Vec::new();
    for k in 0..SETUP_REPS {
        let level = run_level(
            &inputs,
            seed(k),
            Load::Open(FIXED_RATES[0]),
            0.0,
            false,
            false,
        )?;
        check_level(&level, report);
        setups.push(level.setup_s);
    }
    let mut fixed = Vec::new();
    let fixed_secs = s * FIXED_SHARE / (FIXED_LEVELS * FIXED_RATES.len()) as f64;
    for round in 0..FIXED_LEVELS {
        for (k, &rate) in FIXED_RATES.iter().enumerate() {
            let seed = seed(100 * round + k);
            fixed.push(measured_level(
                &inputs,
                seed,
                Load::Open(rate),
                fixed_secs,
                true,
                report,
            )?);
        }
    }
    let sat_secs = s * SATURATION_SHARE / SATURATION_LEVELS as f64;
    let mut saturation = Vec::new();
    for k in 0..SATURATION_LEVELS {
        let load = Load::Closed(SATURATION_WINDOW);
        saturation.push(measured_level(
            &inputs,
            seed(200 + k),
            load,
            sat_secs,
            false,
            report,
        )?);
    }
    let sat_rps = median(
        &saturation
            .iter()
            .map(|l| l.achieved_rps)
            .collect::<Vec<_>>(),
    )
    .expect("saturation levels ran");

    // A fixed rate counts as sustained when most of its levels were.
    let at = |rate: f64| -> Vec<&Level> {
        fixed
            .iter()
            .filter(|l| l.load == Load::Open(rate))
            .collect()
    };
    let mut lo = FIXED_RATES
        .iter()
        .filter(|&&r| 2 * at(r).iter().filter(|l| l.sustained()).count() > at(r).len())
        .fold(0.0, |a, &b| f64::max(a, b));
    // An open loop cannot sustain more than the closed loop completes.
    let mut hi = sat_rps.max(lo);
    let search_secs = s * SEARCH_SHARE / SEARCH_LEVELS as f64;
    let mut max_rps = if lo > 0.0 {
        median_of(&at(lo), |l| Some(l.achieved_rps)).unwrap_or(0.0)
    } else {
        0.0
    };
    for k in 0..SEARCH_LEVELS {
        let rate = next_rate(lo, hi);
        let level = measured_level(
            &inputs,
            seed(300 + k),
            Load::Open(rate),
            search_secs,
            false,
            report,
        )?;
        if level.sustained() {
            lo = rate;
            max_rps = level.achieved_rps;
        } else {
            hi = rate;
        }
        setups.push(level.setup_s);
    }
    setups.extend(fixed.iter().chain(&saturation).map(|l| l.setup_s));

    let window_ms = fixed_secs * 1e3;
    let capped = |v: Option<f64>| v.unwrap_or(window_ms).min(window_ms);
    let (r500, r1000) = (at(FIXED_RATES[0]), at(FIXED_RATES[1]));
    // The search and saturation levels offer more than the server can
    // take on purpose; only the fixed rates count toward failures.
    let mut pooled = [Latencies::default(), Latencies::default()];
    for (pool, fixed) in pooled.iter_mut().zip([&r500, &r1000]) {
        for l in fixed {
            pool.merge(&l.all);
        }
    }
    for pool in &pooled {
        report.count(pool.attempted(), pool.failed());
    }
    let fixed: Vec<&Level> = r500.iter().chain(&r1000).copied().collect();
    let p50 = capped(median_of(&r500, |l| l.all.percentile(50.0)));
    let explore = capped(median_of(&fixed, |l| {
        l.per_op[Op::Explore.index()].percentile(50.0)
    }));
    report.metric("setup_s", median(&setups).expect("levels ran"));
    report.metric("peak_rss_mb", peak_rss_mb()?);
    report.metric("p50_ms", p50);
    report.metric("search_ms", explore);
    report.metric("throughput_per_s", sat_rps);
    let tail = |l: &Latencies| {
        l.tail()
            .map_or((100.0, window_ms), |(q, v)| (q, v.min(window_ms)))
    };
    let ((q500, t500), (q1000, t1000)) = (tail(&pooled[0]), tail(&pooled[1]));
    report.note(format!(
        "serve.r500.p50_ms {p50:.4} (median of {} levels) serve.r500.p{q500} {t500:.4} (n={}); \
         serve.r1000.p50_ms {:.4} serve.r1000.p{q1000} {t1000:.4} (n={}); explore op p50 \
         {explore:.4} ms; saturation {sat_rps:.1} req/s with {SATURATION_WINDOW} in flight; \
         serve.max_rps {max_rps:.1} req/s (limit p99 <= {LIMIT_MS} ms); fail_ratio {:.6}; \
         setup median of {}; workers {WORKERS}",
        r500.len(),
        pooled[0].attempted(),
        capped(median_of(&r1000, |l| l.all.percentile(50.0))),
        pooled[1].attempted(),
        (pooled[0].failed() + pooled[1].failed()) as f64
            / (pooled[0].attempted() + pooled[1].attempted()).max(1) as f64,
        setups.len(),
    ));
    for level in fixed.iter().filter(|l| !l.valid()) {
        report.note(format!(
            "warning: level {:.0} req/s is invalid: the generator ran {:.3} ms late at p99",
            level.rate(),
            level.late_p99_ms()
        ));
    }
    Ok(())
}

/// The traced run: both fixed rates with the recorder on, split into
/// decode, queue, execute, wire and encode.
pub fn run_traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let inputs = Inputs::new();
    let secs = args.seconds * FIXED_SHARE / FIXED_RATES.len() as f64;
    let mut levels = Vec::new();
    for (k, &rate) in FIXED_RATES.iter().enumerate() {
        let seed = args.seed.wrapping_add(k as u64);
        let level = run_level(&inputs, seed, Load::Open(rate), secs, true, true)?;
        check_level(&level, report);
        report.note(format!("traced {}", level.describe()));
        levels.push(level);
    }
    // The same low rate with the recorder off prices the recorder.
    let untraced = run_level(
        &inputs,
        args.seed,
        Load::Open(FIXED_RATES[0]),
        secs,
        false,
        false,
    )?;
    report.note(format!("untraced {}", untraced.describe()));

    // Decode and encode, timed here on the exact lines of the low rate.
    let r500 = &levels[0];
    let t = Instant::now();
    let decoded: Vec<Request> = r500
        .sent
        .iter()
        .filter_map(|l| Request::from_json(l).ok())
        .collect();
    let decode_us = us(t.elapsed().as_nanos() as f64) / r500.sent.len() as f64;
    let responses: Vec<Response> = r500
        .replies
        .iter()
        .filter_map(|(_, l)| Response::from_json(l).ok())
        .collect();
    let t = Instant::now();
    let encoded: usize = responses.iter().map(|r| r.to_json_line().len()).sum();
    let encode_us = us(t.elapsed().as_nanos() as f64) / responses.len().max(1) as f64;
    report.check(decoded.len() == r500.sent.len(), || {
        "a sent line does not decode".into()
    });
    report.check(encoded > 0, || "no replies to encode".into());

    let (mut hits, mut lookups, mut evicts, mut late, mut failed, mut attempted) =
        (0, 0, 0, 0.0f64, 0, 0);
    let names = [
        [
            "serve.r500.queue_us",
            "serve.r500.exec_us",
            "serve.r500.wire_us",
        ],
        [
            "serve.r1000.queue_us",
            "serve.r1000.exec_us",
            "serve.r1000.wire_us",
        ],
    ];
    for (level, [q, e, w]) in levels.iter().zip(names) {
        let side = level.server.as_ref().expect("traced level");
        let queue = us(mean_ns(&side.queue));
        let exec = us(mean_ns(&side.exec));
        let client = level.all.mean_ok().unwrap_or(0.0) * 1e3;
        report.note(format!(
            "{:.0} req/s: client mean {client:.1} us = queue {queue:.1} + exec {exec:.1} + wire {:.1} \
             (server samples {}, queue max {:.1} us, exec max {:.1} us)",
            level.rate(),
            client - queue - exec,
            side.exec.count,
            us(side.queue.max as f64),
            us(side.exec.max as f64),
        ));
        report.metric(q, queue);
        report.metric(e, exec);
        report.metric(w, client - queue - exec);
        hits += side.cache_hits;
        lookups += side.cache_hits + side.cache_misses;
        evicts += side.cache_evicts;
        late = late.max(level.late_p99_ms());
        failed += level.all.failed();
        attempted += level.all.attempted();
    }
    report.count(attempted, failed);
    let window_ms = secs * 1e3;
    let capped = |v: Option<f64>| v.unwrap_or(window_ms).min(window_ms);
    let r1000 = &levels[1];
    report.metric("fail_ratio", failed as f64 / attempted.max(1) as f64);
    report.metric("serve.decode_us", decode_us);
    report.metric("serve.encode_us", encode_us);
    report.metric("serve.r500.p99_ms", capped(r500.all.percentile(99.0)));
    report.metric("serve.r1000.p50_ms", capped(r1000.all.percentile(50.0)));
    report.metric("serve.r1000.p99_ms", capped(r1000.all.percentile(99.0)));
    report.metric("serve.cache_hit_ratio", hits as f64 / lookups.max(1) as f64);
    report.metric("serve.cache_evicts", evicts as f64);
    report.metric("serve.gen_late_ms", late);
    let op_metrics = [
        "serve.op.load_spec.p50_ms",
        "serve.op.parse.p50_ms",
        "serve.op.lint.p50_ms",
        "serve.op.estimate.p50_ms",
        "serve.op.refine.p50_ms",
        "serve.op.lint_part.p50_ms",
        "serve.op.explore.p50_ms",
    ];
    for (name, lat) in op_metrics.iter().zip(&r500.per_op) {
        report.metric(name, capped(lat.percentile(50.0)));
    }
    let on = r500.all.mean_ok().unwrap_or(0.0);
    let off = untraced.all.mean_ok().unwrap_or(0.0);
    report.metric(
        "obs.overhead_pct",
        if off > 0.0 {
            100.0 * (on / off - 1.0)
        } else {
            0.0
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_head_reads_only_top_level_fields() {
        assert_eq!(
            reply_head(r#"{"id":12,"ok":true,"op":"parse"}"#),
            Some((12, true))
        );
        // Sorted keys put `error` before `id`; its nested fields and a
        // quoted `"id":` inside a message must not be mistaken for it.
        let err = r#"{"error":{"code":"overloaded","message":"x \"id\":9 {"},"id":7,"ok":false}"#;
        assert_eq!(reply_head(err), Some((7, false)));
        let nested = r#"{"diags":[{"id":3,"ok":true}],"id":4,"ok":true}"#;
        assert_eq!(reply_head(nested), Some((4, true)));
        assert_eq!(reply_head("not json"), None);
    }

    #[test]
    fn schedule_is_seeded_and_keeps_the_mix() {
        let a = Schedule::new(9, 1000.0, 2.0);
        let b = Schedule::new(9, 1000.0, 2.0);
        assert_eq!((a.due_s.clone(), a.ops.clone()), (b.due_s, b.ops));
        assert!(a.due_s.windows(2).all(|w| w[0] <= w[1]));
        // Every complete block of 16 holds the mix exactly once.
        for block in a.ops.chunks_exact(16) {
            for op in OPS {
                let want = BLOCK.iter().filter(|&&o| o == op).count();
                assert_eq!(block.iter().filter(|&&o| o == op).count(), want);
            }
        }
        // Revisions count up from 1 at each load.
        let loads = a.ops.iter().filter(|&&o| o == Op::LoadSpec).count();
        assert_eq!(a.rev.last().copied(), Some(loads));
        assert_ne!(Schedule::new(10, 1000.0, 2.0).due_s, a.due_s);
    }

    fn level(rate: f64, lat: &[f64], failed: usize, achieved: f64, late: f64) -> Level {
        let mut all = Latencies::default();
        for &v in lat {
            all.ok(v);
        }
        for _ in 0..failed {
            all.fail();
        }
        Level {
            load: Load::Open(rate),
            secs: (lat.len() + failed) as f64 / rate,
            setup_s: 0.0,
            all,
            per_op: Vec::new(),
            late_ms: vec![late],
            sent_count: 0,
            reply_count: 0,
            sent: Vec::new(),
            replies: Vec::new(),
            stats: ServeStats::default(),
            achieved_rps: achieved,
            growing: false,
            server: None,
        }
    }

    /// Runs the search's rate sequence between a sustained `lo` and a
    /// saturation throughput `hi` against a server that sustains exactly
    /// the rates up to `capacity`.
    fn search_against(capacity: f64, mut lo: f64, mut hi: f64) -> f64 {
        for _ in 0..SEARCH_LEVELS {
            let rate = next_rate(lo, hi);
            if rate <= capacity {
                lo = rate;
            } else {
                hi = rate;
            }
        }
        lo
    }

    #[test]
    fn the_search_brackets_the_capacity() {
        // Four bisections of [1000, 2000] land within 5% below it.
        for capacity in [1100.0, 1500.0, 1900.0] {
            let found = search_against(capacity, 1000.0, 2000.0);
            assert!(
                found <= capacity && found > 0.95 * capacity,
                "{capacity}: {found}"
            );
        }
        // Nothing sustained: the search halves down from the bound, then
        // bisects.
        let found = search_against(300.0, 0.0, 500.0);
        assert!(found <= 300.0 && found > 0.95 * 300.0, "{found}");
        assert_eq!(search_against(1.0, 0.0, 500.0), 0.0);
    }

    #[test]
    fn a_sustained_level_meets_every_condition() {
        let fast = vec![1.0; 1000];
        assert!(level(1000.0, &fast, 0, 1000.0, 1.0).sustained());
        // p99 over the limit.
        let mut slow = fast.clone();
        slow[980..].fill(LIMIT_MS + 1.0);
        assert!(!level(1000.0, &slow, 0, 1000.0, 1.0).sustained());
        // Failures count as missing the limit.
        assert!(!level(1000.0, &fast[..980], 20, 1000.0, 1.0).sustained());
        // Less than 98% of the offered rate achieved.
        assert!(!level(1000.0, &fast, 0, 970.0, 1.0).sustained());
        // The generator ran late: the level is invalid.
        assert!(!level(1000.0, &fast, 0, 1000.0, LATE_SHARE * LIMIT_MS + 0.1).sustained());
    }
}
