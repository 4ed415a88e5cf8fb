//! `modref serve` — a long-running concurrent codesign service.
//!
//! The server reads newline-delimited JSON requests (the versioned
//! [`api::Request`](crate::api::Request) wire format, v1 and v2) from
//! one or more byte streams, executes them on a bounded worker pool,
//! and writes one JSON response line per request, tagged with the
//! request's id. Responses may interleave in completion order; ids are
//! what correlate them.
//!
//! Production-scale serving model:
//!
//! * **one shared pool** — [`serve_listener`] multiplexes every TCP
//!   connection onto a single bounded worker pool (one reader thread
//!   per connection, `serve.connections` counter), so a thousand idle
//!   clients cost a thousand parked readers, not a thousand pools;
//! * **spec cache** — specs are content-addressed ([`spec_hash`]) and
//!   parsed once into a shared session ([`ServeConfig::cache_capacity`]
//!   entries, LRU-evicted); the v2 `load_spec` op returns the hash and
//!   later requests — from any connection — reference it, sharing the
//!   parse and the lazily-derived access graph (`serve.cache.hit` /
//!   `.miss` / `.evict` counters);
//! * **streaming** — a v2 request with `"stream":true` receives
//!   incremental `{"event":"progress",...}` frames while its explore or
//!   verify runs; the final response line is byte-identical with
//!   streaming on or off;
//! * **batching** — the v2 `batch` op runs several sub-requests against
//!   one cached session and answers them in a single reply keyed by
//!   sub-id.
//!
//! Robustness model — every failure is a structured response, never a
//! dead server:
//!
//! * **deadlines** — each request may carry `deadline_ms` (or inherit
//!   [`ServeConfig::default_deadline_ms`]); the deadline travels in the
//!   request's [`CancelToken`], which the operation polls at its coarse
//!   checkpoints, and the client gets a `timeout` error;
//! * **cancellation** — a `cancel` request flips the target's token
//!   (ids are scoped per connection); in-flight explorations stop at
//!   their next checkpoint and answer with a `cancelled` error, while
//!   the cancel itself is acknowledged immediately from the reader
//!   thread;
//! * **bounded input** — a request line over 16 MiB is answered with
//!   `invalid_request` and ends its connection's input; a line of
//!   non-UTF-8 garbage is answered the same way and reading goes on;
//! * **disconnect drain** — a client that half-closes its write side
//!   still receives every in-flight response; a client whose socket
//!   *fails on write* is gone, so all of its in-flight work is
//!   cancelled (`serve.disconnects` counter) instead of burning the
//!   pool;
//! * **backpressure** — the job queue is bounded; when it is full new
//!   requests are rejected with an `overloaded` error instead of
//!   buffering without limit;
//! * **panic isolation** — a panicking operation is caught per worker
//!   ([`std::panic::catch_unwind`]); the client gets an `internal`
//!   error and the worker keeps serving;
//! * **graceful drain** — on end of input the queue is closed, queued
//!   work finishes, workers are joined, and [`serve`] returns its
//!   [`ServeStats`].
//!
//! Every request runs under a `serve.request` span with queue-wait,
//! execution-time and end-to-end histograms (`serve.queue_ns`,
//! `serve.exec_ns`, `serve.request_ns`) and `serve.*` counters, so a
//! `--trace` session round-trips through `modref report`.
//!
//! ```
//! use modref_core::api::{Request, RequestOp, Response, SpecSource};
//! use modref_core::serve::{serve, ServeConfig};
//! let spec = "spec tiny;\nvar x : int<16> = 0;\n\
//!             behavior L leaf { x := x + 5; }\n\
//!             behavior T seq { children { L; } }\ntop T;\n";
//! let req = Request::new(1, RequestOp::Parse {
//!     source: SpecSource::Text(spec.into()),
//! });
//! let input = format!("{}\n", req.to_json_line());
//! let mut out = Vec::new();
//! let stats = serve(
//!     std::io::Cursor::new(input.into_bytes()),
//!     &mut out,
//!     &ServeConfig::default().workers(1),
//! );
//! assert_eq!((stats.accepted, stats.completed), (1, 1));
//! let line = String::from_utf8(out).unwrap();
//! assert_eq!(Response::from_json(line.trim()).unwrap().id, 1);
//! ```

mod cache;

pub use cache::spec_hash;

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use modref_obs::{Counter, Histogram};
use modref_spec::Spec;

use crate::api::{
    CancelToken, Codesign, ExploreOpts, LintOpts, ModrefError, Progress, ProgressFn, ProgressFrame,
    Request, RequestOp, Response, ResponseBody, SpecSource, SubResult, VerifyOpts,
};

use cache::SpecCache;

/// The longest request line read, newline excluded (16 MiB).
const MAX_LINE: u64 = 16 << 20;

/// Server configuration. `#[non_exhaustive]` — construct with
/// [`ServeConfig::default`] and the builder methods.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue rejects with
    /// `overloaded`.
    pub queue: usize,
    /// Bounded spec-cache capacity (parsed sessions, LRU-evicted).
    pub cache_capacity: usize,
    /// Deadline applied to requests that carry none of their own.
    pub default_deadline_ms: Option<u64>,
    /// For [`serve_listener`]: stop accepting after this many
    /// connections (`None` accepts forever).
    pub max_connections: Option<usize>,
    /// Resolves `"workload"` request names to specs. The CLI injects
    /// `modref_workloads::named_spec`; `None` rejects workload requests
    /// with `unknown_workload`.
    pub workload_resolver: Option<fn(&str) -> Option<Spec>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: modref_partition::thread_count(None),
            queue: 64,
            cache_capacity: 64,
            default_deadline_ms: None,
            max_connections: None,
            workload_resolver: None,
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count (minimum 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the bounded job-queue capacity (minimum 1).
    #[must_use]
    pub fn queue(mut self, queue: usize) -> Self {
        self.queue = queue.max(1);
        self
    }

    /// Sets the spec-cache capacity (parsed sessions, minimum 1).
    #[must_use]
    pub fn cache(mut self, entries: usize) -> Self {
        self.cache_capacity = entries.max(1);
        self
    }

    /// Sets the default per-request deadline.
    #[must_use]
    pub fn default_deadline_ms(mut self, ms: u64) -> Self {
        self.default_deadline_ms = Some(ms);
        self
    }

    /// Limits [`serve_listener`] to a fixed number of connections.
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = Some(n);
        self
    }

    /// Installs the workload-name resolver.
    #[must_use]
    pub fn workload_resolver(mut self, f: fn(&str) -> Option<Spec>) -> Self {
        self.workload_resolver = Some(f);
        self
    }
}

/// What a serve session did, returned by [`serve`] (one connection) or
/// [`serve_listener`] (all connections, which share one pool and one
/// set of counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServeStats {
    /// Requests accepted onto the queue.
    pub accepted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed (any structured error, including timeout
    /// and cancellation).
    pub errors: u64,
    /// Failures whose code was `cancelled`.
    pub cancelled: u64,
    /// Failures whose code was `timeout`.
    pub timeouts: u64,
    /// Requests rejected because the queue was full.
    pub overloaded: u64,
    /// Input lines that did not decode to a request.
    pub malformed: u64,
}

impl ServeStats {
    /// Accumulates another session's counts.
    pub fn merge(&mut self, other: &ServeStats) {
        self.accepted += other.accepted;
        self.completed += other.completed;
        self.errors += other.errors;
        self.cancelled += other.cancelled;
        self.timeouts += other.timeouts;
        self.overloaded += other.overloaded;
        self.malformed += other.malformed;
    }
}

/// One counted serve event: [`Core::count`] adds it to the session's
/// tally (which [`ServeStats`] reports) and to its `serve.*` counter.
#[derive(Clone, Copy)]
enum Count {
    Accepted,
    Completed,
    Errors,
    Cancelled,
    Timeouts,
    Overloaded,
    Malformed,
    Connections,
    Disconnects,
    CancelRequests,
}

/// The trace counter of each [`Count`], in declaration order.
const COUNTERS: [&str; 10] = [
    "serve.accepted",
    "serve.completed",
    "serve.errors",
    "serve.cancelled",
    "serve.timeout",
    "serve.overloaded",
    "serve.malformed",
    "serve.connections",
    "serve.disconnects",
    "serve.cancel_requests",
];

/// In-flight request registry, keyed `(connection id, request id)` —
/// request ids are client-chosen and only unique per connection.
type Registry = Mutex<HashMap<(u64, u64), CancelToken>>;

/// The state every connection and worker shares: configuration, the
/// spec cache, the in-flight registry, the session's own counts (kept
/// whether or not the recorder is on) and its interned trace handles.
struct Core<'c> {
    cfg: &'c ServeConfig,
    cache: SpecCache,
    registry: Registry,
    tally: [AtomicU64; COUNTERS.len()],
    counters: [Counter; COUNTERS.len()],
    queue_ns: Histogram,
    exec_ns: Histogram,
    request_ns: Histogram,
    session_span: u64,
}

impl<'c> Core<'c> {
    fn new(cfg: &'c ServeConfig, session_span: u64) -> Self {
        Core {
            cfg,
            cache: SpecCache::new(cfg.cache_capacity),
            registry: Mutex::new(HashMap::new()),
            tally: Default::default(),
            counters: COUNTERS.map(modref_obs::counter),
            queue_ns: modref_obs::histogram("serve.queue_ns"),
            exec_ns: modref_obs::histogram("serve.exec_ns"),
            request_ns: modref_obs::histogram("serve.request_ns"),
            session_span,
        }
    }

    /// Records one counted event.
    fn count(&self, event: Count) {
        self.tally[event as usize].fetch_add(1, Ordering::Relaxed);
        self.counters[event as usize].inc();
    }

    fn stats(&self) -> ServeStats {
        let [accepted, completed, errors, cancelled, timeouts, overloaded, malformed, ..] =
            self.tally.each_ref().map(|n| n.load(Ordering::Relaxed));
        ServeStats {
            accepted,
            completed,
            errors,
            cancelled,
            timeouts,
            overloaded,
            malformed,
        }
    }

    /// Resolves a request's spec source to a (shared, cached) session.
    fn load(&self, source: &SpecSource) -> Result<Arc<Codesign>, ModrefError> {
        match source {
            SpecSource::Text(text) => {
                let hash = spec_hash(text);
                self.cache
                    .get_or_insert(&hash, || Codesign::parse("<request>", text))
            }
            SpecSource::Workload(name) => {
                let resolve = self.cfg.workload_resolver;
                self.cache.get_or_insert(&format!("workload:{name}"), || {
                    resolve
                        .and_then(|f| f(name))
                        .map(Codesign::from_spec)
                        .ok_or_else(|| ModrefError::UnknownWorkload(name.clone()))
                })
            }
            SpecSource::Hash(h) => self.cache.lookup(h).ok_or_else(|| {
                ModrefError::InvalidRequest(format!(
                    "unknown spec hash `{h}` (load it with `load_spec` first)"
                ))
            }),
        }
    }

    /// Cancels every in-flight request of a disconnected connection.
    fn cancel_conn(&self, conn_id: u64) {
        self.count(Count::Disconnects);
        for ((conn, _), token) in lock(&self.registry).iter() {
            if *conn == conn_id {
                token.cancel();
            }
        }
    }
}

/// The writer half of one client connection, shared by the reader
/// thread (inline acks) and every worker answering its requests.
struct Conn<'w> {
    id: u64,
    writer: Mutex<Box<dyn Write + Send + 'w>>,
    alive: AtomicBool,
}

impl<'w> Conn<'w> {
    fn new(id: u64, writer: Box<dyn Write + Send + 'w>) -> Self {
        Conn {
            id,
            writer: Mutex::new(writer),
            alive: AtomicBool::new(true),
        }
    }

    /// Writes one response/frame line, newline included, in a single
    /// write: a line split over two TCP segments would leave its newline
    /// waiting on the client's delayed acknowledgement. The first write
    /// failure marks the connection dead and cancels its in-flight work
    /// — a client that cannot receive answers should not keep burning
    /// the pool.
    fn send(&self, core: &Core<'_>, line: &str) {
        if !self.alive.load(Ordering::Relaxed) {
            return;
        }
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let failed = {
            let mut w = lock(&self.writer);
            w.write_all(buf.as_bytes()).is_err() || w.flush().is_err()
        };
        if failed && self.alive.swap(false, Ordering::SeqCst) {
            core.cancel_conn(self.id);
        }
    }
}

/// One queued request: the decoded form, its stop token, the connection
/// to answer on, and when it was enqueued (for the queue-wait
/// histogram).
struct Job<'w> {
    req: Request,
    token: CancelToken,
    conn: Arc<Conn<'w>>,
    enqueued: Instant,
}

/// Locks poison-tolerantly: a panicking worker must not take the whole
/// server down with a poisoned mutex.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "operation panicked".to_string()
    }
}

/// The one session path of both transports: builds the [`Core`] and
/// the worker pool, and feeds the queue through the transport's `feed`.
/// When `feed` returns its senders are gone, so the workers drain the
/// queue; they are joined and their results discarded (panic isolation).
fn run_session<'w, T>(
    cfg: &ServeConfig,
    feed: impl FnOnce(&Core<'_>, SyncSender<Job<'w>>) -> T,
) -> (ServeStats, T) {
    let session = modref_obs::span("serve.session").attr("workers", cfg.workers.max(1));
    let core = Core::new(cfg, session.id());
    let (tx, rx) = mpsc::sync_channel::<Job<'w>>(cfg.queue.max(1));
    let rx = Mutex::new(rx);
    let fed = thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.workers.max(1))
            .map(|_| {
                thread::Builder::new()
                    .stack_size(modref_spec::parser::THREAD_STACK)
                    .spawn_scoped(s, || worker_loop(&rx, &core))
                    .expect("spawn a serve worker")
            })
            .collect();
        let fed = feed(&core, tx);
        for w in workers {
            let _ = w.join();
        }
        fed
    });
    drop(session);
    (core.stats(), fed)
}

/// Runs one serve session: reads request lines from `reader` until end
/// of input, answers on `writer`, drains queued work, and returns the
/// session's [`ServeStats`]. See the [module docs](self) for the
/// serving and robustness model and an example.
pub fn serve<R: BufRead, W: Write + Send>(reader: R, writer: W, cfg: &ServeConfig) -> ServeStats {
    let conn = Arc::new(Conn::new(0, Box::new(writer)));
    run_session(cfg, |core, tx| read_loop(reader, &conn, &tx, core)).0
}

/// Serves one session over stdin/stdout (the `modref serve --stdio`
/// transport).
pub fn serve_stdio(cfg: &ServeConfig) -> ServeStats {
    let stdin = std::io::stdin();
    serve(stdin.lock(), std::io::stdout(), cfg)
}

/// Accepts TCP connections and multiplexes all of them onto ONE shared
/// bounded worker pool: each connection gets a reader thread, every
/// request lands on the same queue (so [`ServeConfig::queue`] is the
/// global backpressure bound), and the spec cache is shared — two
/// clients loading the same spec share one parse. Stops accepting after
/// [`ServeConfig::max_connections`] connections (forever when `None`),
/// drains, and returns the pooled [`ServeStats`].
pub fn serve_listener(listener: TcpListener, cfg: &ServeConfig) -> std::io::Result<ServeStats> {
    let (stats, fed) = run_session(cfg, |core, tx| {
        thread::scope(|s| {
            let mut readers: Vec<thread::ScopedJoinHandle<()>> = Vec::new();
            let fed = (1u64..)
                .take_while(|&n| cfg.max_connections.is_none_or(|max| n <= max as u64))
                .try_for_each(|conn_id| {
                    let (stream, _) = listener.accept()?;
                    core.count(Count::Connections);
                    // Replies are whole lines written at once; Nagle would
                    // only hold each one back until the client's next ack.
                    let _ = stream.set_nodelay(true);
                    // Join ended readers, discarding their results: a
                    // panicked reader ends its connection, not the server.
                    for done in readers.extract_if(.., |r| r.is_finished()) {
                        let _ = done.join();
                    }
                    let tx = tx.clone();
                    readers.push(s.spawn(move || {
                        let Ok(read_half) = stream.try_clone() else {
                            return;
                        };
                        let conn = Arc::new(Conn::new(conn_id, Box::new(stream)));
                        read_loop(BufReader::new(read_half), &conn, &tx, core);
                    }));
                    Ok(())
                });
            for r in readers {
                let _ = r.join();
            }
            fed
        })
    });
    fed.map(|()| stats)
}

/// The reader half of one connection: reads lines of at most
/// [`MAX_LINE`] bytes, acknowledges cancels inline, and enqueues
/// everything else with backpressure. End of input (including a TCP
/// half-close) just stops reading — in-flight responses still drain to
/// the writer.
fn read_loop<'w, R: BufRead>(
    mut reader: R,
    conn: &Arc<Conn<'w>>,
    tx: &SyncSender<Job<'w>>,
    core: &Core<'_>,
) {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let read = (&mut reader).take(MAX_LINE + 1).read_until(b'\n', &mut buf);
        if !read.is_ok_and(|n| n > 0) {
            break; // end of input or an unreadable stream: drain and exit
        }
        if buf.len() as u64 > MAX_LINE && buf.last() != Some(&b'\n') {
            core.count(Count::Malformed);
            let e = ModrefError::InvalidRequest(format!("request line exceeds {MAX_LINE} bytes"));
            conn.send(core, &Response::err(0, &e).to_json_line());
            break; // the rest of the line is unframed: stop reading
        }
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::from_json(&line) {
            Ok(req) => req,
            Err(e) => {
                core.count(Count::Malformed);
                // Salvage the id when the object had one, so the client
                // can still correlate; 0 otherwise.
                let id = modref_obs::json::parse(&line)
                    .ok()
                    .as_ref()
                    .and_then(|v| v.as_obj())
                    .and_then(|o| o.get("id"))
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0);
                conn.send(core, &Response::err(id, &e).to_json_line());
                continue;
            }
        };

        if let RequestOp::Cancel { target } = req.op {
            let found = match lock(&core.registry).get(&(conn.id, target)) {
                Some(token) => {
                    token.cancel();
                    true
                }
                None => false,
            };
            core.count(Count::CancelRequests);
            let resp = Response::ok(req.id, ResponseBody::Cancelled { target, found });
            conn.send(core, &resp.to_json_line());
            continue;
        }

        let token = match req.deadline_ms.or(core.cfg.default_deadline_ms) {
            Some(ms) => CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        {
            let mut reg = lock(&core.registry);
            if reg.contains_key(&(conn.id, req.id)) {
                drop(reg);
                let e = ModrefError::InvalidRequest(format!("id {} is already in flight", req.id));
                core.count(Count::Malformed);
                conn.send(core, &Response::err(req.id, &e).to_json_line());
                continue;
            }
            reg.insert((conn.id, req.id), token.clone());
        }

        let id = req.id;
        let job = Job {
            req,
            token,
            conn: Arc::clone(conn),
            enqueued: Instant::now(),
        };
        match tx.try_send(job) {
            Ok(()) => core.count(Count::Accepted),
            Err(TrySendError::Full(_)) => {
                lock(&core.registry).remove(&(conn.id, id));
                core.count(Count::Overloaded);
                let e = ModrefError::Overloaded {
                    capacity: core.cfg.queue.max(1),
                };
                conn.send(core, &Response::err(id, &e).to_json_line());
            }
            Err(TrySendError::Disconnected(_)) => {
                lock(&core.registry).remove(&(conn.id, id));
                break; // workers are gone; nothing more can be served
            }
        }
    }
}

/// The worker half: dequeues jobs, executes them with panic isolation
/// (streaming progress frames when asked to), and emits the response on
/// the job's own connection.
fn worker_loop<'w>(rx: &Mutex<mpsc::Receiver<Job<'w>>>, core: &Core<'_>) {
    loop {
        let job = lock(rx).recv();
        let Ok(job) = job else {
            return; // queue closed and drained
        };
        core.queue_ns
            .record(job.enqueued.elapsed().as_nanos() as u64);
        let span = modref_obs::span_under(core.session_span, "serve.request")
            .attr("op", job.req.op.name())
            .attr("request_id", job.req.id)
            .attr("conn", job.conn.id);

        let started = Instant::now();
        let streaming = job.req.stream
            && matches!(
                job.req.op,
                RequestOp::Explore { .. } | RequestOp::Verify { .. }
            );
        let result = if streaming {
            stream_execute(&job, core)
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                execute(&job.req.op, &job.token, core, None)
            }))
            .unwrap_or_else(|payload| Err(ModrefError::Internal(panic_message(payload))))
        };
        core.exec_ns.record(started.elapsed().as_nanos() as u64);
        core.request_ns
            .record(job.enqueued.elapsed().as_nanos() as u64);

        lock(&core.registry).remove(&(job.conn.id, job.req.id));
        let resp = match result {
            Ok(body) => {
                core.count(Count::Completed);
                Response::ok(job.req.id, body)
            }
            Err(e) => {
                core.count(Count::Errors);
                match e {
                    ModrefError::Cancelled => core.count(Count::Cancelled),
                    ModrefError::Timeout => core.count(Count::Timeouts),
                    _ => {}
                }
                Response::err(job.req.id, &e)
            }
        };
        drop(span);
        job.conn.send(core, &resp.to_json_line());
    }
}

/// Executes a streaming request: progress events are forwarded from the
/// operation's callback (which may fire from any exploration thread)
/// through a channel to one forwarder thread that owns the frame
/// ordering on the connection. The forwarder is joined before the final
/// response is emitted, so every frame precedes it.
fn stream_execute<'w>(job: &Job<'w>, core: &Core<'_>) -> Result<ResponseBody, ModrefError> {
    let (ptx, prx) = mpsc::channel::<ProgressFrame>();
    let id = job.req.id;
    let ptx = Mutex::new(ptx);
    let progress = ProgressFn::new(move |p: &Progress| {
        let _ = lock(&ptx).send(ProgressFrame {
            id,
            phase: p.phase.to_string(),
            done: p.done,
            total: p.total,
        });
    });
    thread::scope(|s| {
        let conn = &job.conn;
        let forwarder = s.spawn(move || {
            for frame in prx {
                conn.send(core, &frame.to_json_line());
            }
        });
        let result = catch_unwind(AssertUnwindSafe(|| {
            // `progress` (and every clone the opts hold) drops inside
            // `execute`, closing the channel; the forwarder then drains
            // and exits.
            execute(&job.req.op, &job.token, core, Some(progress))
        }))
        .unwrap_or_else(|payload| Err(ModrefError::Internal(panic_message(payload))));
        let _ = forwarder.join();
        result
    })
}

/// The body of a structured failure, for batch sub-results.
fn error_body(e: &ModrefError) -> ResponseBody {
    ResponseBody::Error {
        code: e.code().to_string(),
        message: e.to_string(),
    }
}

/// Executes one non-cancel operation, honoring the request's stop
/// token. Specs resolve through the shared cache; `load_spec` populates
/// it; `batch` runs its items sequentially against one session.
fn execute(
    op: &RequestOp,
    token: &CancelToken,
    core: &Core<'_>,
    progress: Option<ProgressFn>,
) -> Result<ResponseBody, ModrefError> {
    token.check()?; // the deadline may have expired while queued
    match op {
        RequestOp::LoadSpec { text } => {
            let hash = spec_hash(text);
            let cd = core
                .cache
                .get_or_insert(&hash, || Codesign::parse("<request>", text))?;
            Ok(ResponseBody::Loaded {
                hash,
                stats: cd.stats(),
            })
        }
        RequestOp::Batch { items, .. } => {
            let cd = core.load(op.source().expect("batch carries a source"))?;
            let mut results = Vec::with_capacity(items.len());
            for item in items {
                // Deadline and cancellation are batch-level: they fail
                // the whole batch, not one item.
                token.check()?;
                match execute_spec_op(&cd, &item.op, token, None) {
                    Ok(body) => results.push(SubResult {
                        sub: item.sub,
                        body,
                    }),
                    Err(e @ (ModrefError::Cancelled | ModrefError::Timeout)) => return Err(e),
                    Err(e) => results.push(SubResult {
                        sub: item.sub,
                        body: error_body(&e),
                    }),
                }
            }
            Ok(ResponseBody::Batch { results })
        }
        RequestOp::Cancel { .. } => Err(ModrefError::InvalidRequest(
            "cancel is handled by the reader, not the worker pool".into(),
        )),
        op => {
            let cd = core.load(op.source().expect("spec ops carry a source"))?;
            execute_spec_op(&cd, op, token, progress.as_ref())
        }
    }
}

/// Executes one spec-consuming operation against an already-resolved
/// session — the shared tail of direct requests and batch items.
fn execute_spec_op(
    cd: &Codesign,
    op: &RequestOp,
    token: &CancelToken,
    progress: Option<&ProgressFn>,
) -> Result<ResponseBody, ModrefError> {
    match op {
        RequestOp::Parse { .. } => Ok(ResponseBody::Parsed(cd.stats())),
        RequestOp::Refine { part, model, .. } => {
            let model = crate::api::model_from(u64::from(*model))?;
            let refined = cd.refine(part, model)?;
            Ok(ResponseBody::Refined {
                model: model.number(),
                behaviors: refined.spec.behavior_count(),
                buses: refined.architecture.buses.len(),
                printed_lines: modref_spec::printer::line_count(&refined.spec),
            })
        }
        RequestOp::Estimate { part, .. } => Ok(ResponseBody::Estimated {
            report: cd.estimate(part)?,
        }),
        RequestOp::Explore {
            part,
            seeds,
            threads,
            top,
            ..
        } => {
            let mut opts = ExploreOpts::new().with_cancel(token.clone());
            if let Some(pf) = progress {
                opts = opts.with_progress(pf.clone());
            }
            if let Some(p) = part {
                opts = opts.with_part(p.clone());
            }
            if let Some(k) = seeds {
                opts = opts.with_seeds(*k);
            }
            if let Some(t) = threads {
                opts = opts.with_threads(*t);
            }
            let out = cd.explore(&opts)?;
            Ok(ResponseBody::from_exploration(&out, *top))
        }
        RequestOp::Verify {
            part,
            seeds,
            threads,
            sim,
            ..
        } => {
            let mut eopts = ExploreOpts::new().with_cancel(token.clone());
            let mut vopts = VerifyOpts::new().with_cancel(token.clone());
            if let Some(pf) = progress {
                eopts = eopts.with_progress(pf.clone());
                vopts = vopts.with_progress(pf.clone());
            }
            if let Some(k) = sim.kernel {
                vopts = vopts.with_kernel(k);
            }
            if let Some(t) = sim.verify_traces {
                vopts = vopts.with_check_traces(t);
            }
            if let Some(p) = part {
                eopts = eopts.with_part(p.clone());
                vopts = vopts.with_part(p.clone());
            }
            if let Some(k) = seeds {
                eopts = eopts.with_seeds(*k);
            }
            if let Some(t) = threads {
                eopts = eopts.with_threads(*t);
                vopts = vopts.with_threads(*t);
            }
            let out = cd.explore(&eopts)?;
            let v = cd.verify(&out, &vopts)?;
            Ok(ResponseBody::from_verification(&v))
        }
        RequestOp::Lint {
            part,
            model,
            deny,
            allow,
            ..
        } => {
            let mut opts = LintOpts::new();
            if let Some(p) = part {
                opts = opts.with_part(p.clone());
            }
            if let Some(n) = model {
                opts = opts.with_model(crate::api::model_from(u64::from(*n))?);
            }
            for name in deny {
                opts = opts.with_deny(name.clone());
            }
            for name in allow {
                opts = opts.with_allow(name.clone());
            }
            Ok(ResponseBody::from_diagnostics(&cd.lint(&opts)?))
        }
        RequestOp::LoadSpec { .. } | RequestOp::Batch { .. } | RequestOp::Cancel { .. } => Err(
            ModrefError::InvalidRequest(format!("`{}` is not a spec-level operation", op.name())),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run(input: impl AsRef<[u8]>, cfg: &ServeConfig) -> (ServeStats, Vec<Response>) {
        let mut out = Vec::new();
        let stats = serve(Cursor::new(input.as_ref()), &mut out, cfg);
        let text = String::from_utf8(out).expect("utf8 output");
        let responses = text
            .lines()
            .filter(|l| !ProgressFrame::is_progress_line(l))
            .map(|l| Response::from_json(l).expect("decodable response"))
            .collect();
        (stats, responses)
    }

    fn resolver(name: &str) -> Option<Spec> {
        modref_workloads::named_spec(name)
    }

    fn cfg() -> ServeConfig {
        ServeConfig::default().workload_resolver(resolver)
    }

    fn line(id: u64, body: &str) -> String {
        format!("{{\"id\":{id},{body}}}\n")
    }

    fn body_of(responses: &[Response], id: u64) -> &ResponseBody {
        &responses
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("no response for id {id}"))
            .body
    }

    fn error_code(responses: &[Response], id: u64) -> &str {
        match body_of(responses, id) {
            ResponseBody::Error { code, .. } => code,
            other => panic!("id {id}: expected error, got {other:?}"),
        }
    }

    #[test]
    fn mixed_session_answers_every_id() {
        let mut input = String::new();
        input.push_str(&line(1, r#""op":"parse","workload":"fig2""#));
        input.push_str(&line(2, r#""op":"parse","workload":"nope""#));
        input.push_str(&line(3, r#""op":"lint","workload":"dsp""#));
        input.push_str(&line(
            4,
            r#""op":"explore","workload":"fig2","seeds":1,"top":3"#,
        ));
        input.push_str("this is not json\n");
        input.push_str(&line(5, r#""op":"cancel","target":77"#));
        let (stats, responses) = run(&input, &cfg().workers(2));
        assert_eq!(stats.accepted, 4);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.malformed, 1);
        assert!(matches!(body_of(&responses, 1), ResponseBody::Parsed(_)));
        assert_eq!(error_code(&responses, 2), "unknown_workload");
        assert!(matches!(
            body_of(&responses, 3),
            ResponseBody::Linted { .. }
        ));
        assert!(matches!(
            body_of(&responses, 4),
            ResponseBody::Explored { .. }
        ));
        assert!(matches!(
            body_of(&responses, 5),
            ResponseBody::Cancelled { found: false, .. }
        ));
        // The malformed line got a structured reply with id 0.
        assert_eq!(error_code(&responses, 0), "invalid_request");
        assert_eq!(responses.len(), 6, "one response per line, none dropped");
    }

    #[test]
    fn componentless_allocation_is_a_refine_error_for_every_op() {
        let mut input = String::new();
        input.push_str(&line(
            1,
            r##""op":"explore","workload":"fig2","part":"# none""##,
        ));
        input.push_str(&line(
            2,
            r##""op":"verify","workload":"fig2","part":"# none""##,
        ));
        input.push_str(&line(
            3,
            r##""op":"refine","workload":"fig2","part":"# none","model":1"##,
        ));
        let (stats, responses) = run(&input, &cfg().workers(2));
        for id in 1..=3 {
            match body_of(&responses, id) {
                ResponseBody::Error { code, message } => {
                    assert_eq!(code, "refine", "id {id}");
                    assert_eq!(message, "allocation has no components", "id {id}");
                }
                other => panic!("id {id}: expected error, got {other:?}"),
            }
        }
        assert_eq!(stats.errors, 3);
    }

    #[test]
    fn non_utf8_garbage_is_answered_and_reading_continues() {
        let mut input = b"\xff\xfe x\n".to_vec();
        input.extend_from_slice(line(7, r#""op":"parse","workload":"fig2""#).as_bytes());
        let (stats, responses) = run(input, &cfg().workers(1));
        assert_eq!(responses.len(), 2, "{responses:?}");
        assert_eq!(error_code(&responses, 0), "invalid_request");
        assert!(matches!(body_of(&responses, 7), ResponseBody::Parsed(_)));
        assert_eq!(stats.accepted + stats.overloaded + stats.malformed, 2);
    }

    #[test]
    fn over_long_line_is_answered_and_ends_the_connection() {
        let max = MAX_LINE as usize;
        // A request padded to exactly the cap is still read ...
        let mut input = line(1, r#""op":"parse","workload":"fig2""#).into_bytes();
        input.pop();
        input.resize(max, b' ');
        input.push(b'\n');
        // ... one byte more is answered, and nothing after it is read.
        input.resize(input.len() + max + 1, b' ');
        input.push(b'\n');
        input.extend_from_slice(line(2, r#""op":"parse","workload":"fig2""#).as_bytes());
        let (stats, responses) = run(input, &cfg().workers(1));
        assert_eq!(responses.len(), 2, "{responses:?}");
        assert!(matches!(body_of(&responses, 1), ResponseBody::Parsed(_)));
        assert_eq!(error_code(&responses, 0), "invalid_request");
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.accepted + stats.overloaded + stats.malformed, 2);
    }

    #[test]
    fn verify_traces_field_runs_the_trace_check() {
        let mut input = String::new();
        input.push_str(&line(
            1,
            r#""op":"verify","workload":"fig2","seeds":1,"verify_traces":true"#,
        ));
        // Invalid value: strict decode, not a silent default.
        input.push_str(&line(
            2,
            r#""op":"verify","workload":"fig2","verify_traces":"yes""#,
        ));
        let (stats, responses) = run(&input, &cfg().workers(1));
        match body_of(&responses, 1) {
            ResponseBody::Verified { equivalent, .. } => {
                assert!(equivalent, "fig2 front must pass the trace check");
            }
            other => panic!("expected Verified, got {other:?}"),
        }
        assert_eq!(error_code(&responses, 2), "invalid_request");
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn cancel_stops_an_inflight_explore() {
        let mut input = String::new();
        input.push_str(&line(
            1,
            r#""op":"explore","workload":"medical","seeds":64"#,
        ));
        input.push_str(&line(2, r#""op":"cancel","target":1"#));
        let (stats, responses) = run(&input, &cfg().workers(1));
        assert_eq!(error_code(&responses, 1), "cancelled");
        assert!(matches!(
            body_of(&responses, 2),
            ResponseBody::Cancelled {
                target: 1,
                found: true
            }
        ));
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn expired_deadline_is_a_timeout_error() {
        let input = line(
            9,
            r#""op":"explore","workload":"medical","seeds":32,"deadline_ms":1"#,
        );
        let (stats, responses) = run(&input, &cfg().workers(1));
        assert_eq!(error_code(&responses, 9), "timeout");
        assert_eq!(stats.timeouts, 1);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        // One slow worker, queue of one: of three quick-fire explores at
        // least one cannot fit and must be rejected — but still answered.
        let mut input = String::new();
        for id in 1..=3u64 {
            input.push_str(&line(
                id,
                r#""op":"explore","workload":"medical","seeds":4"#,
            ));
        }
        let (stats, responses) = run(&input, &cfg().workers(1).queue(1));
        assert!(stats.overloaded >= 1, "{stats:?}");
        assert_eq!(stats.accepted + stats.overloaded, 3);
        for id in 1..=3 {
            match body_of(&responses, id) {
                ResponseBody::Explored { .. } => {}
                ResponseBody::Error { code, .. } => assert_eq!(code, "overloaded"),
                other => panic!("id {id}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_inflight_id_is_rejected() {
        let mut input = String::new();
        input.push_str(&line(
            5,
            r#""op":"explore","workload":"medical","seeds":16"#,
        ));
        input.push_str(&line(5, r#""op":"parse","workload":"fig2""#));
        let (stats, responses) = run(&input, &cfg().workers(1).queue(4));
        // Two responses for id 5: one invalid_request (the duplicate,
        // answered inline) and one for whichever request ran.
        let for_five: Vec<_> = responses.iter().filter(|r| r.id == 5).collect();
        assert_eq!(for_five.len(), 2);
        assert!(for_five.iter().any(
            |r| matches!(&r.body, ResponseBody::Error { code, .. } if code == "invalid_request")
        ));
        assert_eq!(stats.malformed, 1);
    }

    #[test]
    fn tcp_transport_serves_a_connection() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpStream;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            serve_listener(listener, &cfg().workers(1).max_connections(1)).expect("serve")
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(line(1, r#""op":"parse","workload":"fig2""#).as_bytes())
            .expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown write");
        let mut lines = Vec::new();
        for l in BufReader::new(&stream).lines() {
            lines.push(l.expect("read line"));
        }
        assert_eq!(lines.len(), 1);
        let resp = Response::from_json(&lines[0]).expect("decodes");
        assert_eq!(resp.id, 1);
        assert!(matches!(resp.body, ResponseBody::Parsed(_)));
        let stats = server.join().expect("join");
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn every_line_leaves_in_one_write() {
        /// Records the bytes of every `write` call.
        struct Writes(Arc<Mutex<Vec<Vec<u8>>>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                lock(&self.0).push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let explore = Request::v2(
            3,
            RequestOp::Explore {
                source: SpecSource::Workload("fig2".into()),
                part: None,
                seeds: Some(1),
                threads: Some(1),
                top: Some(2),
            },
        )
        .with_stream(true)
        .to_json_line();
        let input = format!(
            "{}{{not json\n{explore}\n",
            line(1, r#""op":"parse","workload":"fig2""#)
        );
        let writes = Arc::new(Mutex::new(Vec::new()));
        let stats = serve(
            Cursor::new(input.into_bytes()),
            Writes(Arc::clone(&writes)),
            &cfg().workers(1),
        );
        assert_eq!(stats.completed, 2);
        let writes = lock(&writes);
        // A parse response, a malformed-line error, progress frames and
        // the explore response: each its own write, each one whole line.
        assert!(writes.len() > 3, "{} writes", writes.len());
        for w in writes.iter() {
            let text = std::str::from_utf8(w).expect("utf8");
            assert!(text.ends_with('\n'), "split line: {text:?}");
            assert_eq!(text.matches('\n').count(), 1, "{text:?}");
        }
    }

    #[test]
    fn closed_loop_tcp_requests_do_not_wait_on_delayed_acks() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpStream;
        const REQUESTS: u64 = 20;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            serve_listener(listener, &cfg().workers(1).max_connections(1)).expect("serve")
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let start = Instant::now();
        for id in 1..=REQUESTS {
            stream
                .write_all(line(id, r#""op":"parse","workload":"fig2""#).as_bytes())
                .expect("send");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            assert_eq!(Response::from_json(reply.trim()).expect("decodes").id, id);
        }
        let took = start.elapsed();
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        assert_eq!(server.join().expect("join").completed, REQUESTS);
        // A reply held back for a delayed acknowledgement costs about
        // 40 ms; twenty of them would take 800 ms.
        assert!(
            took < Duration::from_millis(REQUESTS * 40 / 2),
            "{REQUESTS} closed-loop requests took {took:?}"
        );
    }

    #[test]
    fn two_connections_share_one_spec_cache() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpStream;
        modref_obs::init(modref_obs::ClockMode::Wall);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            serve_listener(listener, &cfg().workers(2).max_connections(2)).expect("serve")
        });
        let spec = "spec shared;\nvar x : int<16> = 0;\n\
                    behavior L leaf { x := x + 1; }\n\
                    behavior T seq { children { L; } }\ntop T;\n";
        let load = format!(
            "{}\n",
            Request::v2(
                1,
                RequestOp::LoadSpec {
                    text: spec.to_string()
                }
            )
            .to_json_line()
        );
        let mut hashes = Vec::new();
        for _ in 0..2 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(load.as_bytes()).expect("send");
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
        let stats = server.join().expect("join");
        assert_eq!(stats.completed, 2);
        assert_eq!(
            hashes[0], hashes[1],
            "content-addressed: same text, same hash"
        );
        assert_eq!(hashes[0], spec_hash(spec));
        let trace = modref_obs::shutdown();
        assert!(
            trace.counter("serve.cache.hit").unwrap_or(0) >= 1,
            "second connection must hit the shared cache"
        );
        assert!(trace.counter("serve.connections").unwrap_or(0) >= 2);
    }

    #[test]
    fn load_spec_then_hash_ops_reuse_the_session() {
        let spec = "spec cached;\nvar x : int<16> = 0;\n\
                    behavior L leaf { x := x + 1; }\n\
                    behavior T seq { children { L; } }\ntop T;\n";
        let hash = spec_hash(spec);
        let mut input = String::new();
        input.push_str(&format!(
            "{}\n",
            Request::v2(
                1,
                RequestOp::LoadSpec {
                    text: spec.to_string()
                }
            )
            .to_json_line()
        ));
        input.push_str(&format!(
            "{{\"v\":2,\"id\":2,\"op\":\"parse\",\"hash\":\"{hash}\"}}\n"
        ));
        input.push_str(&format!(
            "{{\"v\":2,\"id\":3,\"op\":\"lint\",\"hash\":\"{hash}\"}}\n"
        ));
        input.push_str("{\"v\":2,\"id\":4,\"op\":\"parse\",\"hash\":\"ffffffffffffffff\"}\n");
        let (stats, responses) = run(&input, &cfg().workers(1));
        assert_eq!(stats.completed, 3);
        match body_of(&responses, 1) {
            ResponseBody::Loaded { hash: h, stats } => {
                assert_eq!(h, &hash);
                assert_eq!(stats.name, "cached");
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
        assert!(matches!(body_of(&responses, 2), ResponseBody::Parsed(_)));
        assert!(matches!(
            body_of(&responses, 3),
            ResponseBody::Linted { .. }
        ));
        assert_eq!(error_code(&responses, 4), "invalid_request");
    }

    #[test]
    fn batch_answers_every_item_against_one_session() {
        let input = format!(
            "{}\n",
            r#"{"v":2,"id":1,"op":"batch","workload":"fig2","items":[{"sub":1,"op":"parse"},{"sub":2,"op":"refine","part":"not a partition","model":1},{"sub":3,"op":"lint"}]}"#
        );
        let (stats, responses) = run(&input, &cfg().workers(1));
        assert_eq!(stats.completed, 1, "the batch is one request");
        match body_of(&responses, 1) {
            ResponseBody::Batch { results } => {
                assert_eq!(results.len(), 3);
                assert_eq!(results[0].sub, 1);
                assert!(matches!(results[0].body, ResponseBody::Parsed(_)));
                assert!(matches!(
                    &results[1].body,
                    ResponseBody::Error { code, .. } if code == "partition"
                ));
                assert!(matches!(results[2].body, ResponseBody::Linted { .. }));
            }
            other => panic!("expected Batch, got {other:?}"),
        }
    }

    #[test]
    fn streaming_explore_frames_precede_an_unchanged_final_response() {
        let streamed = format!(
            "{}\n",
            Request::v2(
                1,
                RequestOp::Explore {
                    source: SpecSource::Workload("fig2".into()),
                    part: None,
                    seeds: Some(2),
                    threads: Some(1),
                    top: Some(3),
                }
            )
            .with_stream(true)
            .to_json_line()
        );
        let mut out = Vec::new();
        let stats = serve(
            Cursor::new(streamed.into_bytes()),
            &mut out,
            &cfg().workers(1),
        );
        assert_eq!(stats.completed, 1);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 1, "expected progress frames, got {lines:?}");
        let (final_line, frames) = lines.split_last().expect("at least the final response");
        for frame in frames {
            let f = ProgressFrame::from_json(frame).expect("progress frame");
            assert_eq!(f.id, 1);
            assert!(f.done <= f.total, "{f:?}");
        }
        assert!(
            frames
                .iter()
                .any(|l| ProgressFrame::from_json(l).unwrap().phase == "explore.job"),
            "per-seed-job completion frames present"
        );
        let streamed_final = Response::from_json(final_line).expect("final response");
        assert!(matches!(streamed_final.body, ResponseBody::Explored { .. }));

        // Streaming off: byte-identical final response, no frames.
        let plain = format!(
            "{}\n",
            Request::v2(
                1,
                RequestOp::Explore {
                    source: SpecSource::Workload("fig2".into()),
                    part: None,
                    seeds: Some(2),
                    threads: Some(1),
                    top: Some(3),
                }
            )
            .to_json_line()
        );
        let mut out = Vec::new();
        serve(Cursor::new(plain.into_bytes()), &mut out, &cfg().workers(1));
        let plain_text = String::from_utf8(out).expect("utf8");
        assert_eq!(plain_text.trim(), *final_line);
    }

    #[test]
    fn dead_connection_cancels_its_inflight_work() {
        /// A client whose socket fails on every write — the server must
        /// cancel its work, not complete it into the void.
        struct DeadWriter;
        impl Write for DeadWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("peer gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("peer gone"))
            }
        }
        let input = format!(
            "{}\n",
            Request::v2(
                1,
                RequestOp::Explore {
                    source: SpecSource::Workload("medical".into()),
                    part: None,
                    seeds: Some(64),
                    threads: Some(1),
                    top: None,
                }
            )
            .with_stream(true)
            .to_json_line()
        );
        let stats = serve(
            Cursor::new(input.into_bytes()),
            DeadWriter,
            &cfg().workers(1),
        );
        assert_eq!(stats.accepted, 1);
        assert_eq!(
            stats.cancelled, 1,
            "first failed frame write must cancel the in-flight explore: {stats:?}"
        );
    }

    #[test]
    fn serve_counters_round_trip_through_a_trace() {
        modref_obs::init(modref_obs::ClockMode::Wall);
        let input = line(1, r#""op":"parse","workload":"fig2""#);
        let (stats, _) = run(&input, &cfg().workers(1));
        assert_eq!(stats.completed, 1);
        let trace = modref_obs::shutdown();
        assert!(trace.counter("serve.accepted").unwrap_or(0) >= 1);
        assert!(trace.counter("serve.completed").unwrap_or(0) >= 1);
        assert!(trace.counter("serve.cache.miss").unwrap_or(0) >= 1);
        assert!(
            !trace.spans_named("serve.request").is_empty(),
            "per-request span recorded"
        );
    }
}
