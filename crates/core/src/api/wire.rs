//! The typed, versioned JSONL wire protocol of `modref serve`.
//!
//! Each request is one JSON object per line; each reply is one JSON
//! object per line tagged with the request's `id`. [`Request`] and
//! [`Response`] are the typed forms: [`Request::from_json`] decodes a
//! client line (malformed input becomes
//! [`ModrefError::InvalidRequest`], never a panic), and
//! [`Response::to_json_line`] encodes a reply canonically — object keys
//! sorted, floats in shortest round-trip form, no timestamps — so a
//! fixed request stream yields byte-identical responses across runs.
//!
//! Two envelope versions are live:
//!
//! * **v1** (no `"v"` field) — the original flat protocol. Simulation
//!   options ride as ad-hoc top-level fields (`"kernel"`,
//!   `"verify_traces"`). Still accepted and answered byte-identically.
//! * **v2** (`"v":2`) — the structured envelope. Simulation options
//!   move into a `"sim"` object, specs can be referenced by content
//!   hash (`"hash"`, returned by the `load_spec` op), long explores can
//!   opt into streaming progress frames (`"stream":true`), and the
//!   `batch` op runs several sub-requests against one spec.
//!
//! Any other `"v"` is an `invalid_request` with a stable message, so
//! clients can feature-detect.
//!
//! ```
//! use modref_core::api::{Request, RequestOp, SpecSource};
//! let req = Request::from_json(
//!     r#"{"id":7,"op":"parse","workload":"fig2","deadline_ms":500}"#,
//! ).unwrap();
//! assert_eq!(req.id, 7);
//! assert_eq!(req.v, 1);
//! assert_eq!(req.deadline_ms, Some(500));
//! assert!(matches!(
//!     req.op,
//!     RequestOp::Parse { source: SpecSource::Workload(_) }
//! ));
//! // Encoding is canonical and stable.
//! let line = req.to_json_line();
//! assert_eq!(Request::from_json(&line).unwrap(), req);
//!
//! // The v2 envelope carries the version and nests sim options.
//! let req = Request::from_json(
//!     r#"{"v":2,"id":8,"op":"verify","workload":"fig2","sim":{"kernel":"compiled"}}"#,
//! ).unwrap();
//! assert_eq!(req.v, 2);
//! ```

use std::collections::BTreeMap;

use modref_analyze::{Diagnostic, Totals};
use modref_obs::json::{self, Value};

use crate::explore::{Exploration, Verification};
use crate::model::ImplModel;

use super::error::ModrefError;
use super::facade::SpecStats;

/// Where the specification of a request comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecSource {
    /// Inline specification text (the `"spec"` field).
    Text(String),
    /// The name of a shipped workload (the `"workload"` field), resolved
    /// by the server's workload resolver.
    Workload(String),
    /// A content hash previously returned by `load_spec` (the `"hash"`
    /// field, protocol v2 only), resolved against the server's spec
    /// cache.
    Hash(String),
}

/// The simulation options of a `verify` request — protocol v2 nests
/// these under the `"sim"` object; v1 carries them as the legacy
/// top-level `"kernel"` / `"verify_traces"` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct SimParams {
    /// Simulation kernel for the verification runs (one of `event`,
    /// `roundrobin`, `compiled`); `None` keeps the default compiled
    /// kernel.
    pub kernel: Option<modref_sim::SimKernel>,
    /// When `true`, both simulations record event traces and the
    /// stuttering-refinement trace check runs per candidate × model.
    pub verify_traces: Option<bool>,
}

impl SimParams {
    /// Whether every option is unset (the encoded form omits the `sim`
    /// object entirely then, keeping v2 request lines minimal).
    pub fn is_empty(&self) -> bool {
        self.kernel.is_none() && self.verify_traces.is_none()
    }
}

/// One sub-request of a `batch` op. Sub-requests share the batch's
/// spec source and deadline; each carries its own `sub` id, echoed on
/// its entry in the batch response.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// Client-chosen sub-id, unique within the batch.
    pub sub: u64,
    /// The operation. Decoding substitutes the batch's source, so this
    /// is always a spec-consuming op carrying the shared source.
    pub op: RequestOp,
}

/// The operation a request asks for, with its operation-specific
/// parameters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RequestOp {
    /// Parse + validate a spec and report its size statistics.
    Parse {
        /// The specification to parse.
        source: SpecSource,
    },
    /// Parse + cache a spec, returning its content hash for later ops
    /// to reference (protocol v2).
    LoadSpec {
        /// The specification text to load.
        text: String,
    },
    /// Refine the spec under a partition into one implementation model.
    Refine {
        /// The specification to refine.
        source: SpecSource,
        /// Partition text (allocation + assignment).
        part: String,
        /// Implementation model number, 1–4.
        model: u8,
    },
    /// Render the lifetime/channel-rate estimation report.
    Estimate {
        /// The specification to estimate.
        source: SpecSource,
        /// Partition text (allocation + assignment).
        part: String,
    },
    /// Run the multi-start design-space exploration.
    Explore {
        /// The specification to explore.
        source: SpecSource,
        /// Optional partition text supplying the allocation.
        part: Option<String>,
        /// Seed count (`None` keeps the default).
        seeds: Option<u64>,
        /// Worker threads for the exploration itself.
        threads: Option<usize>,
        /// Keep only the best N points in the response.
        top: Option<usize>,
    },
    /// Explore, then verify the Pareto front by simulation.
    Verify {
        /// The specification to explore and verify.
        source: SpecSource,
        /// Optional partition text supplying the allocation.
        part: Option<String>,
        /// Seed count for the exploration phase.
        seeds: Option<u64>,
        /// Worker threads.
        threads: Option<usize>,
        /// Simulation options. Encoded per envelope version: flat
        /// `"kernel"` / `"verify_traces"` fields in v1, the nested
        /// `"sim"` object in v2 (omitted when empty either way, so
        /// existing request streams are unchanged).
        sim: SimParams,
    },
    /// Run the static-analysis lints (plus conformance lints with a
    /// partition).
    Lint {
        /// The specification to lint.
        source: SpecSource,
        /// Optional partition text enabling the conformance lints.
        part: Option<String>,
        /// Restrict conformance linting to one model (1–4).
        model: Option<u8>,
        /// Lint codes/names (or `warnings`) promoted to errors.
        deny: Vec<String>,
        /// Lint codes/names suppressed.
        allow: Vec<String>,
    },
    /// Run several sub-requests against one spec (protocol v2). The
    /// batch's deadline covers the whole batch; responses are keyed by
    /// sub-id in a single `batch` reply.
    Batch {
        /// The shared specification every item runs against.
        source: SpecSource,
        /// The sub-requests, answered in order.
        items: Vec<BatchItem>,
    },
    /// Cooperatively cancel the in-flight request with id `target`.
    Cancel {
        /// The id of the request to stop.
        target: u64,
    },
}

impl RequestOp {
    /// The wire name of the operation.
    pub fn name(&self) -> &'static str {
        match self {
            RequestOp::Parse { .. } => "parse",
            RequestOp::LoadSpec { .. } => "load_spec",
            RequestOp::Refine { .. } => "refine",
            RequestOp::Estimate { .. } => "estimate",
            RequestOp::Explore { .. } => "explore",
            RequestOp::Verify { .. } => "verify",
            RequestOp::Lint { .. } => "lint",
            RequestOp::Batch { .. } => "batch",
            RequestOp::Cancel { .. } => "cancel",
        }
    }

    /// The spec source a spec-consuming op references (`None` for
    /// `cancel` and `load_spec`, which carry no source).
    pub fn source(&self) -> Option<&SpecSource> {
        match self {
            RequestOp::Parse { source }
            | RequestOp::Refine { source, .. }
            | RequestOp::Estimate { source, .. }
            | RequestOp::Explore { source, .. }
            | RequestOp::Verify { source, .. }
            | RequestOp::Lint { source, .. }
            | RequestOp::Batch { source, .. } => Some(source),
            RequestOp::LoadSpec { .. } | RequestOp::Cancel { .. } => None,
        }
    }
}

/// One decoded serve request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Request {
    /// Client-chosen id echoed on the response.
    pub id: u64,
    /// Per-request deadline in milliseconds (overrides the server
    /// default).
    pub deadline_ms: Option<u64>,
    /// The operation and its parameters.
    pub op: RequestOp,
    /// Envelope version: 1 (no `"v"` field on the wire) or 2.
    pub v: u8,
    /// Whether the client asked for streaming progress frames
    /// (`"stream":true`, protocol v2). Final responses are identical
    /// with streaming on or off; only the interleaved
    /// `{"event":"progress",...}` frames differ.
    pub stream: bool,
}

impl Request {
    /// A v1 request with no deadline.
    pub fn new(id: u64, op: RequestOp) -> Self {
        Request {
            id,
            deadline_ms: None,
            op,
            v: 1,
            stream: false,
        }
    }

    /// A v2 request with no deadline and streaming off.
    pub fn v2(id: u64, op: RequestOp) -> Self {
        Request {
            v: 2,
            ..Request::new(id, op)
        }
    }

    /// This request with a deadline.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// This request with streaming progress frames requested.
    #[must_use]
    pub fn with_stream(mut self, on: bool) -> Self {
        self.stream = on;
        self
    }
}

/// One streaming progress frame, emitted between a request's acceptance
/// and its final response when the client set `"stream":true`. Frames
/// are distinguishable from responses by the `"event":"progress"` tag
/// and carry no `"ok"` field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressFrame {
    /// The id of the request the frame belongs to.
    pub id: u64,
    /// Progress phase (`explore.job`, `explore.candidates`,
    /// `explore.rate`, `verify.job`).
    pub phase: String,
    /// Units completed so far in this phase.
    pub done: u64,
    /// Total units of this phase.
    pub total: u64,
}

impl ProgressFrame {
    /// Encodes the frame as one canonical JSON line (no trailing
    /// newline).
    pub fn to_json_line(&self) -> String {
        render(&obj(vec![
            ("done", Value::UInt(self.done)),
            ("event", Value::Str("progress".into())),
            ("id", Value::UInt(self.id)),
            ("phase", Value::Str(self.phase.clone())),
            ("total", Value::UInt(self.total)),
        ]))
    }

    /// Decodes one progress line (a line without the
    /// `"event":"progress"` tag is an invalid request error).
    pub fn from_json(line: &str) -> Result<Self, ModrefError> {
        let v = json::parse(line).map_err(|e| invalid(format!("bad JSON: {e}")))?;
        let o = v
            .as_obj()
            .ok_or_else(|| invalid("progress frame must be a JSON object"))?;
        if get_str(o, "event")?.as_deref() != Some("progress") {
            return Err(invalid(
                "not a progress frame (missing `\"event\":\"progress\"`)",
            ));
        }
        Ok(ProgressFrame {
            id: get_u64(o, "id")?.ok_or_else(|| invalid("missing numeric `id`"))?,
            phase: get_str(o, "phase")?.unwrap_or_default(),
            done: get_u64(o, "done")?.unwrap_or(0),
            total: get_u64(o, "total")?.unwrap_or(0),
        })
    }

    /// Whether a raw line is a progress frame (cheap client-side
    /// dispatch between frames and final responses).
    pub fn is_progress_line(line: &str) -> bool {
        Self::from_json(line).is_ok()
    }
}

/// The payload of a reply.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ResponseBody {
    /// `parse` succeeded.
    Parsed(SpecStats),
    /// `load_spec` succeeded: the spec is parsed, cached and
    /// addressable by `hash` from any connection.
    Loaded {
        /// Content hash of the spec text; later ops reference it via
        /// the `"hash"` source field.
        hash: String,
        /// Size statistics of the parsed spec.
        stats: SpecStats,
    },
    /// `refine` succeeded.
    Refined {
        /// The implementation model refined under.
        model: u8,
        /// Behavior count of the refined specification.
        behaviors: usize,
        /// Buses the refinement plan allocated.
        buses: usize,
        /// Lines of the refined spec's canonical pretty-print.
        printed_lines: usize,
    },
    /// `estimate` succeeded.
    Estimated {
        /// The rendered estimation report.
        report: String,
    },
    /// `explore` succeeded.
    Explored {
        /// Evaluated design points (possibly truncated to the request's
        /// `top`).
        points: Vec<PointSummary>,
        /// Number of Pareto-optimal points over the *full* set.
        pareto: usize,
        /// Total points evaluated before truncation.
        total: usize,
    },
    /// `verify` succeeded.
    Verified {
        /// One record per front candidate × implementation model.
        records: Vec<RecordSummary>,
        /// Whether every record verified equivalent.
        equivalent: bool,
        /// Final simulated time of the original specification.
        original_time: u64,
        /// Micro-steps of the original simulation.
        original_steps: u64,
    },
    /// `lint` succeeded (diagnostics may still contain errors).
    Linted {
        /// The diagnostics, in canonical order.
        diagnostics: Vec<DiagSummary>,
        /// Error-severity count.
        errors: usize,
        /// Warning-severity count.
        warnings: usize,
        /// Note-severity count.
        notes: usize,
    },
    /// `batch` completed; each sub-request's outcome is keyed by its
    /// sub-id.
    Batch {
        /// One result per batch item, in request order.
        results: Vec<SubResult>,
    },
    /// `cancel` was processed (an ack — the cancelled request itself
    /// still replies with a `cancelled` error).
    Cancelled {
        /// The id the cancel aimed at.
        target: u64,
        /// Whether that id was in flight when the cancel arrived.
        found: bool,
    },
    /// The request failed; `code` is the stable
    /// [`ModrefError::code`] class.
    Error {
        /// Stable failure class.
        code: String,
        /// Human-readable description.
        message: String,
    },
}

/// One sub-request's outcome inside a `batch` response: rendered like a
/// miniature response, with `sub` in place of `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubResult {
    /// The sub-id of the batch item this answers.
    pub sub: u64,
    /// The payload (success body or [`ResponseBody::Error`]).
    pub body: ResponseBody,
}

/// One design point of an `explore` response.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSummary {
    /// The partitioning algorithm that produced the candidate.
    pub algorithm: String,
    /// The seed that drove it.
    pub seed: u64,
    /// The implementation model evaluated (1–4).
    pub model: u8,
    /// Weighted total partition cost.
    pub cost: f64,
    /// Peak bus transfer rate in Mbit/s.
    pub max_bus_rate: f64,
    /// Buses the refinement plan allocates.
    pub buses: usize,
    /// Whether the point is Pareto-optimal.
    pub pareto: bool,
}

/// One candidate×model record of a `verify` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSummary {
    /// The partitioning algorithm that produced the candidate.
    pub algorithm: String,
    /// The seed that drove it.
    pub seed: u64,
    /// The implementation model refined under (1–4).
    pub model: u8,
    /// Whether the refined spec simulated equivalently.
    pub equivalent: bool,
    /// Divergence description (empty when equivalent).
    pub detail: String,
    /// Signal writes introduced by the refinement's bus protocol.
    pub bus_traffic: u64,
}

/// One diagnostic of a `lint` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagSummary {
    /// Stable lint code (`ST01`, `DF02`, `RC01`, ...).
    pub code: String,
    /// Severity label: `note`, `warning` or `error`.
    pub severity: String,
    /// Human-readable description.
    pub message: String,
    /// 1-based source line, when the spec came from text.
    pub line: Option<u32>,
    /// 1-based source column.
    pub col: Option<u32>,
}

/// One reply, tagged with the id of the request it answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id this answers (0 for lines that carried no id).
    pub id: u64,
    /// The payload.
    pub body: ResponseBody,
}

impl Response {
    /// A success reply.
    pub fn ok(id: u64, body: ResponseBody) -> Self {
        Response { id, body }
    }

    /// A failure reply carrying the error's stable code.
    pub fn err(id: u64, e: &ModrefError) -> Self {
        Response {
            id,
            body: ResponseBody::Error {
                code: e.code().to_string(),
                message: e.to_string(),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Conversions from pipeline results.

impl ResponseBody {
    /// Summarizes an exploration, keeping only the best `top` points
    /// (all when `None`).
    pub fn from_exploration(out: &Exploration, top: Option<usize>) -> Self {
        let total = out.points.len();
        let pareto = out.points.iter().filter(|p| p.pareto).count();
        let keep = top.unwrap_or(total).min(total);
        let points = out.points[..keep]
            .iter()
            .map(|p| PointSummary {
                algorithm: p.algorithm.to_string(),
                seed: p.seed,
                model: p.model.number(),
                cost: p.cost.total,
                max_bus_rate: p.max_bus_rate,
                buses: p.bus_count,
                pareto: p.pareto,
            })
            .collect();
        ResponseBody::Explored {
            points,
            pareto,
            total,
        }
    }

    /// Summarizes a verification.
    pub fn from_verification(v: &Verification) -> Self {
        ResponseBody::Verified {
            records: v
                .records
                .iter()
                .map(|r| RecordSummary {
                    algorithm: r.algorithm.to_string(),
                    seed: r.seed,
                    model: r.model.number(),
                    equivalent: r.equivalent,
                    detail: r.detail.clone(),
                    bus_traffic: r.bus_traffic,
                })
                .collect(),
            equivalent: v.all_equivalent(),
            original_time: v.original_time,
            original_steps: v.original_steps,
        }
    }

    /// Summarizes lint diagnostics (assumed already in canonical order).
    pub fn from_diagnostics(diags: &[Diagnostic]) -> Self {
        let totals = Totals::of(diags);
        ResponseBody::Linted {
            diagnostics: diags
                .iter()
                .map(|d| DiagSummary {
                    code: d.code.to_string(),
                    severity: d.severity.label().to_string(),
                    message: d.message.clone(),
                    line: d.span.map(|s| s.line),
                    col: d.span.map(|s| s.col),
                })
                .collect(),
            errors: totals.errors,
            warnings: totals.warnings,
            notes: totals.notes,
        }
    }
}

/// The implementation model for a wire model number.
pub(crate) fn model_from(n: u64) -> Result<ImplModel, ModrefError> {
    match n {
        1..=4 => Ok(ImplModel::ALL[(n - 1) as usize]),
        _ => Err(ModrefError::InvalidRequest(format!(
            "model must be 1..=4, got {n}"
        ))),
    }
}

// ---------------------------------------------------------------------
// Encoding.

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn render(v: &Value) -> String {
    let mut out = String::new();
    json::write_value(&mut out, v);
    out
}

fn str_arr(items: &[String]) -> Value {
    Value::Arr(items.iter().map(|s| Value::Str(s.clone())).collect())
}

fn push_source(m: &mut Vec<(&str, Value)>, s: &SpecSource) {
    match s {
        SpecSource::Text(t) => m.push(("spec", Value::Str(t.clone()))),
        SpecSource::Workload(w) => m.push(("workload", Value::Str(w.clone()))),
        SpecSource::Hash(h) => m.push(("hash", Value::Str(h.clone()))),
    }
}

/// Appends `op`'s fields to `m`. `v2` selects the envelope dialect
/// (nested `sim` object vs. flat legacy fields); `with_source` is false
/// for batch items, which inherit the batch's source.
fn push_op_fields(m: &mut Vec<(&str, Value)>, op: &RequestOp, v2: bool, with_source: bool) {
    let source = |m: &mut Vec<(&str, Value)>, s: &SpecSource| {
        if with_source {
            push_source(m, s);
        }
    };
    match op {
        RequestOp::Parse { source: s } => source(m, s),
        RequestOp::LoadSpec { text } => m.push(("spec", Value::Str(text.clone()))),
        RequestOp::Refine {
            source: s,
            part,
            model,
        } => {
            source(m, s);
            m.push(("part", Value::Str(part.clone())));
            m.push(("model", Value::UInt(u64::from(*model))));
        }
        RequestOp::Estimate { source: s, part } => {
            source(m, s);
            m.push(("part", Value::Str(part.clone())));
        }
        RequestOp::Explore {
            source: s,
            part,
            seeds,
            threads,
            top,
        } => {
            source(m, s);
            if let Some(p) = part {
                m.push(("part", Value::Str(p.clone())));
            }
            if let Some(k) = seeds {
                m.push(("seeds", Value::UInt(*k)));
            }
            if let Some(t) = threads {
                m.push(("threads", Value::UInt(*t as u64)));
            }
            if let Some(t) = top {
                m.push(("top", Value::UInt(*t as u64)));
            }
        }
        RequestOp::Verify {
            source: s,
            part,
            seeds,
            threads,
            sim,
        } => {
            source(m, s);
            if let Some(p) = part {
                m.push(("part", Value::Str(p.clone())));
            }
            if let Some(k) = seeds {
                m.push(("seeds", Value::UInt(*k)));
            }
            if let Some(t) = threads {
                m.push(("threads", Value::UInt(*t as u64)));
            }
            if v2 {
                if !sim.is_empty() {
                    let mut e: Vec<(&str, Value)> = Vec::new();
                    if let Some(k) = sim.kernel {
                        e.push(("kernel", Value::Str(k.name().to_string())));
                    }
                    if let Some(t) = sim.verify_traces {
                        e.push(("verify_traces", Value::Bool(t)));
                    }
                    m.push(("sim", obj(e)));
                }
            } else {
                if let Some(k) = sim.kernel {
                    m.push(("kernel", Value::Str(k.name().to_string())));
                }
                if let Some(t) = sim.verify_traces {
                    m.push(("verify_traces", Value::Bool(t)));
                }
            }
        }
        RequestOp::Lint {
            source: s,
            part,
            model,
            deny,
            allow,
        } => {
            source(m, s);
            if let Some(p) = part {
                m.push(("part", Value::Str(p.clone())));
            }
            if let Some(n) = model {
                m.push(("model", Value::UInt(u64::from(*n))));
            }
            if !deny.is_empty() {
                m.push(("deny", str_arr(deny)));
            }
            if !allow.is_empty() {
                m.push(("allow", str_arr(allow)));
            }
        }
        RequestOp::Batch { source: s, items } => {
            source(m, s);
            m.push((
                "items",
                Value::Arr(
                    items
                        .iter()
                        .map(|item| {
                            let mut e: Vec<(&str, Value)> = vec![
                                ("op", Value::Str(item.op.name().to_string())),
                                ("sub", Value::UInt(item.sub)),
                            ];
                            push_op_fields(&mut e, &item.op, true, false);
                            obj(e)
                        })
                        .collect(),
                ),
            ));
        }
        RequestOp::Cancel { target } => m.push(("target", Value::UInt(*target))),
    }
}

impl Request {
    /// Encodes the request as one canonical JSON line (no trailing
    /// newline). v1 requests encode exactly as before the versioned
    /// envelope existed (no `"v"` field, flat sim options).
    pub fn to_json_line(&self) -> String {
        let v2 = self.v >= 2;
        let mut m: Vec<(&str, Value)> = vec![
            ("id", Value::UInt(self.id)),
            ("op", Value::Str(self.op.name().to_string())),
        ];
        if v2 {
            m.push(("v", Value::UInt(u64::from(self.v))));
            if self.stream {
                m.push(("stream", Value::Bool(true)));
            }
        }
        if let Some(d) = self.deadline_ms {
            m.push(("deadline_ms", Value::UInt(d)));
        }
        push_op_fields(&mut m, &self.op, v2, true);
        render(&obj(m))
    }
}

/// The `ok`/`op`/payload entries of a reply — everything except the id
/// key, shared between top-level responses and batch sub-results.
fn body_entries(body: &ResponseBody) -> Vec<(&'static str, Value)> {
    let mut m: Vec<(&'static str, Value)> = Vec::new();
    match body {
        ResponseBody::Error { code, message } => {
            m.push(("ok", Value::Bool(false)));
            m.push((
                "error",
                obj(vec![
                    ("code", Value::Str(code.clone())),
                    ("message", Value::Str(message.clone())),
                ]),
            ));
        }
        body => {
            m.push(("ok", Value::Bool(true)));
            match body {
                ResponseBody::Parsed(s) => {
                    m.push(("op", Value::Str("parse".into())));
                    m.push(("stats", stats_value(s)));
                }
                ResponseBody::Loaded { hash, stats } => {
                    m.push(("op", Value::Str("load_spec".into())));
                    m.push(("hash", Value::Str(hash.clone())));
                    m.push(("stats", stats_value(stats)));
                }
                ResponseBody::Refined {
                    model,
                    behaviors,
                    buses,
                    printed_lines,
                } => {
                    m.push(("op", Value::Str("refine".into())));
                    m.push(("model", Value::UInt(u64::from(*model))));
                    m.push(("behaviors", Value::UInt(*behaviors as u64)));
                    m.push(("buses", Value::UInt(*buses as u64)));
                    m.push(("printed_lines", Value::UInt(*printed_lines as u64)));
                }
                ResponseBody::Estimated { report } => {
                    m.push(("op", Value::Str("estimate".into())));
                    m.push(("report", Value::Str(report.clone())));
                }
                ResponseBody::Explored {
                    points,
                    pareto,
                    total,
                } => {
                    m.push(("op", Value::Str("explore".into())));
                    m.push(("total", Value::UInt(*total as u64)));
                    m.push(("pareto", Value::UInt(*pareto as u64)));
                    m.push((
                        "points",
                        Value::Arr(
                            points
                                .iter()
                                .map(|p| {
                                    obj(vec![
                                        ("algorithm", Value::Str(p.algorithm.clone())),
                                        ("buses", Value::UInt(p.buses as u64)),
                                        ("cost", Value::Num(p.cost)),
                                        ("max_bus_rate", Value::Num(p.max_bus_rate)),
                                        ("model", Value::UInt(u64::from(p.model))),
                                        ("pareto", Value::Bool(p.pareto)),
                                        ("seed", Value::UInt(p.seed)),
                                    ])
                                })
                                .collect(),
                        ),
                    ));
                }
                ResponseBody::Verified {
                    records,
                    equivalent,
                    original_time,
                    original_steps,
                } => {
                    m.push(("op", Value::Str("verify".into())));
                    m.push(("equivalent", Value::Bool(*equivalent)));
                    m.push(("original_time", Value::UInt(*original_time)));
                    m.push(("original_steps", Value::UInt(*original_steps)));
                    m.push((
                        "records",
                        Value::Arr(
                            records
                                .iter()
                                .map(|r| {
                                    obj(vec![
                                        ("algorithm", Value::Str(r.algorithm.clone())),
                                        ("bus_traffic", Value::UInt(r.bus_traffic)),
                                        ("detail", Value::Str(r.detail.clone())),
                                        ("equivalent", Value::Bool(r.equivalent)),
                                        ("model", Value::UInt(u64::from(r.model))),
                                        ("seed", Value::UInt(r.seed)),
                                    ])
                                })
                                .collect(),
                        ),
                    ));
                }
                ResponseBody::Linted {
                    diagnostics,
                    errors,
                    warnings,
                    notes,
                } => {
                    m.push(("op", Value::Str("lint".into())));
                    m.push(("errors", Value::UInt(*errors as u64)));
                    m.push(("warnings", Value::UInt(*warnings as u64)));
                    m.push(("notes", Value::UInt(*notes as u64)));
                    m.push((
                        "diagnostics",
                        Value::Arr(
                            diagnostics
                                .iter()
                                .map(|d| {
                                    let mut e = vec![
                                        ("code", Value::Str(d.code.clone())),
                                        ("message", Value::Str(d.message.clone())),
                                        ("severity", Value::Str(d.severity.clone())),
                                    ];
                                    if let Some(line) = d.line {
                                        e.push(("line", Value::UInt(u64::from(line))));
                                    }
                                    if let Some(col) = d.col {
                                        e.push(("col", Value::UInt(u64::from(col))));
                                    }
                                    obj(e)
                                })
                                .collect(),
                        ),
                    ));
                }
                ResponseBody::Batch { results } => {
                    m.push(("op", Value::Str("batch".into())));
                    m.push((
                        "results",
                        Value::Arr(
                            results
                                .iter()
                                .map(|r| {
                                    let mut e: Vec<(&str, Value)> =
                                        vec![("sub", Value::UInt(r.sub))];
                                    e.extend(body_entries(&r.body));
                                    obj(e)
                                })
                                .collect(),
                        ),
                    ));
                }
                ResponseBody::Cancelled { target, found } => {
                    m.push(("op", Value::Str("cancel".into())));
                    m.push(("target", Value::UInt(*target)));
                    m.push(("found", Value::Bool(*found)));
                }
                ResponseBody::Error { .. } => unreachable!("handled above"),
            }
        }
    }
    m
}

fn stats_value(s: &SpecStats) -> Value {
    obj(vec![
        ("behaviors", Value::UInt(s.behaviors as u64)),
        ("control_channels", Value::UInt(s.control_channels as u64)),
        ("data_channels", Value::UInt(s.data_channels as u64)),
        ("leaves", Value::UInt(s.leaves as u64)),
        ("name", Value::Str(s.name.clone())),
        ("printed_lines", Value::UInt(s.printed_lines as u64)),
        ("signals", Value::UInt(s.signals as u64)),
        ("statements", Value::UInt(s.statements as u64)),
        ("subroutines", Value::UInt(s.subroutines as u64)),
        ("variables", Value::UInt(s.variables as u64)),
    ])
}

impl Response {
    /// Encodes the reply as one canonical JSON line (no trailing
    /// newline). Responses carry no timestamps or version tag — v1 and
    /// v2 requests are answered in the same format, so a fixed request
    /// is answered byte-identically across runs and envelope versions.
    pub fn to_json_line(&self) -> String {
        let mut m: Vec<(&str, Value)> = vec![("id", Value::UInt(self.id))];
        m.extend(body_entries(&self.body));
        render(&obj(m))
    }
}

// ---------------------------------------------------------------------
// Decoding.

fn invalid(msg: impl Into<String>) -> ModrefError {
    ModrefError::InvalidRequest(msg.into())
}

fn get_u64(o: &BTreeMap<String, Value>, key: &str) -> Result<Option<u64>, ModrefError> {
    match o.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| invalid(format!("`{key}` must be a non-negative integer"))),
    }
}

fn get_str(o: &BTreeMap<String, Value>, key: &str) -> Result<Option<String>, ModrefError> {
    match o.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| invalid(format!("`{key}` must be a string"))),
    }
}

fn get_bool(o: &BTreeMap<String, Value>, key: &str) -> Result<Option<bool>, ModrefError> {
    match o.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(invalid(format!("`{key}` must be a boolean"))),
    }
}

/// The optional `"kernel"` field of `o`, by wire name. An unknown
/// kernel name is an invalid request, not a silent fallback to the
/// default.
fn get_kernel(o: &BTreeMap<String, Value>) -> Result<Option<modref_sim::SimKernel>, ModrefError> {
    match get_str(o, "kernel")? {
        None => Ok(None),
        Some(name) => modref_sim::SimKernel::from_name(&name)
            .map(Some)
            .ok_or_else(|| {
                invalid(format!(
                    "unknown kernel `{name}` (expected event|roundrobin|compiled)"
                ))
            }),
    }
}

fn get_str_list(o: &BTreeMap<String, Value>, key: &str) -> Result<Vec<String>, ModrefError> {
    match o.get(key) {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| invalid(format!("`{key}` must be an array of strings")))?;
            arr.iter()
                .map(|e| {
                    e.as_str()
                        .map(|s| s.to_string())
                        .ok_or_else(|| invalid(format!("`{key}` must be an array of strings")))
                })
                .collect()
        }
    }
}

fn get_model(o: &BTreeMap<String, Value>) -> Result<Option<u8>, ModrefError> {
    match get_u64(o, "model")? {
        None => Ok(None),
        Some(n) => Ok(Some(model_from(n)?.number())),
    }
}

/// The spec source of a v1 request: exactly one of `spec` / `workload`.
fn source_v1(o: &BTreeMap<String, Value>) -> Result<SpecSource, ModrefError> {
    let spec = get_str(o, "spec")?;
    let workload = get_str(o, "workload")?;
    match (spec, workload) {
        (Some(text), None) => Ok(SpecSource::Text(text)),
        (None, Some(name)) => Ok(SpecSource::Workload(name)),
        (Some(_), Some(_)) => Err(invalid("give either `spec` or `workload`, not both")),
        (None, None) => Err(invalid("missing `spec` text or `workload` name")),
    }
}

/// The spec source of a v2 request: exactly one of `spec` / `workload`
/// / `hash`.
fn source_v2(o: &BTreeMap<String, Value>) -> Result<SpecSource, ModrefError> {
    let mut found: Vec<SpecSource> = Vec::new();
    if let Some(text) = get_str(o, "spec")? {
        found.push(SpecSource::Text(text));
    }
    if let Some(name) = get_str(o, "workload")? {
        found.push(SpecSource::Workload(name));
    }
    if let Some(h) = get_str(o, "hash")? {
        found.push(SpecSource::Hash(h));
    }
    match found.len() {
        1 => Ok(found.pop().expect("one source")),
        0 => Err(invalid("missing `spec` text, `workload` name or `hash`")),
        _ => Err(invalid("give exactly one of `spec`, `workload` or `hash`")),
    }
}

/// The simulation options of `o` per envelope version: v1 reads the
/// flat legacy fields, v2 requires them nested under `"sim"`.
fn sim_params(o: &BTreeMap<String, Value>, v2: bool) -> Result<SimParams, ModrefError> {
    if !v2 {
        return Ok(SimParams {
            kernel: get_kernel(o)?,
            verify_traces: get_bool(o, "verify_traces")?,
        });
    }
    if o.contains_key("kernel") || o.contains_key("verify_traces") {
        return Err(invalid(
            "in protocol v2, `kernel` and `verify_traces` belong in the `sim` object",
        ));
    }
    match o.get("sim") {
        None | Some(Value::Null) => Ok(SimParams::default()),
        Some(v) => {
            let s = v
                .as_obj()
                .ok_or_else(|| invalid("`sim` must be an object"))?;
            Ok(SimParams {
                kernel: get_kernel(s)?,
                verify_traces: get_bool(s, "verify_traces")?,
            })
        }
    }
}

/// Decodes the op-specific fields of a spec-consuming op with an
/// already-resolved `source` — shared between top-level requests and
/// batch items.
fn spec_op(
    o: &BTreeMap<String, Value>,
    op_name: &str,
    source: SpecSource,
    v2: bool,
) -> Result<RequestOp, ModrefError> {
    Ok(match op_name {
        "parse" => RequestOp::Parse { source },
        "refine" => RequestOp::Refine {
            source,
            part: get_str(o, "part")?.ok_or_else(|| invalid("refine needs `part` text"))?,
            model: get_model(o)?.ok_or_else(|| invalid("refine needs `model` 1..=4"))?,
        },
        "estimate" => RequestOp::Estimate {
            source,
            part: get_str(o, "part")?.ok_or_else(|| invalid("estimate needs `part` text"))?,
        },
        "explore" => RequestOp::Explore {
            source,
            part: get_str(o, "part")?,
            seeds: get_u64(o, "seeds")?,
            threads: get_u64(o, "threads")?.map(|t| t as usize),
            top: get_u64(o, "top")?.map(|t| t as usize),
        },
        "verify" => RequestOp::Verify {
            source,
            part: get_str(o, "part")?,
            seeds: get_u64(o, "seeds")?,
            threads: get_u64(o, "threads")?.map(|t| t as usize),
            sim: sim_params(o, v2)?,
        },
        "lint" => RequestOp::Lint {
            source,
            part: get_str(o, "part")?,
            model: get_model(o)?,
            deny: get_str_list(o, "deny")?,
            allow: get_str_list(o, "allow")?,
        },
        other => return Err(invalid(format!("unknown op `{other}`"))),
    })
}

/// Decodes the `items` of a v2 batch against the batch's shared source.
fn batch_items(
    o: &BTreeMap<String, Value>,
    source: &SpecSource,
) -> Result<Vec<BatchItem>, ModrefError> {
    let arr = o
        .get("items")
        .and_then(Value::as_arr)
        .ok_or_else(|| invalid("batch needs an `items` array"))?;
    if arr.is_empty() {
        return Err(invalid("batch needs at least one item"));
    }
    let mut items = Vec::with_capacity(arr.len());
    let mut seen = std::collections::BTreeSet::new();
    for entry in arr {
        let item = entry
            .as_obj()
            .ok_or_else(|| invalid("batch items must be objects"))?;
        let sub =
            get_u64(item, "sub")?.ok_or_else(|| invalid("batch items need a numeric `sub`"))?;
        if !seen.insert(sub) {
            return Err(invalid(format!("duplicate batch `sub` {sub}")));
        }
        let op_name = get_str(item, "op")?.ok_or_else(|| invalid("batch items need an `op`"))?;
        if matches!(op_name.as_str(), "cancel" | "batch" | "load_spec") {
            return Err(invalid(format!("batch items cannot be `{op_name}`")));
        }
        for forbidden in ["spec", "workload", "hash"] {
            if item.contains_key(forbidden) {
                return Err(invalid(format!(
                    "batch items inherit the batch's spec; remove `{forbidden}`"
                )));
            }
        }
        if item.contains_key("deadline_ms") {
            return Err(invalid(
                "the deadline is batch-level; remove `deadline_ms` from items",
            ));
        }
        items.push(BatchItem {
            sub,
            op: spec_op(item, &op_name, source.clone(), true)?,
        });
    }
    Ok(items)
}

impl Request {
    /// Decodes one request line. Every malformation — bad JSON, a
    /// missing id, an unknown op or version, a wrongly typed field — is
    /// an [`ModrefError::InvalidRequest`], never a panic.
    pub fn from_json(line: &str) -> Result<Self, ModrefError> {
        let v = json::parse(line).map_err(|e| invalid(format!("bad JSON: {e}")))?;
        let o = v
            .as_obj()
            .ok_or_else(|| invalid("request must be a JSON object"))?;
        let version = get_u64(o, "v")?.unwrap_or(1);
        if !matches!(version, 1 | 2) {
            return Err(invalid(format!(
                "unsupported protocol version {version} (supported: 1, 2)"
            )));
        }
        let v2 = version == 2;
        let id = get_u64(o, "id")?.ok_or_else(|| invalid("missing numeric `id`"))?;
        let op_name = get_str(o, "op")?.ok_or_else(|| invalid("missing `op`"))?;
        let deadline_ms = get_u64(o, "deadline_ms")?;
        // v1 ignores unknown fields (including `stream`) for drop-in
        // compatibility with pre-versioned clients.
        let stream = v2 && get_bool(o, "stream")?.unwrap_or(false);
        let op = match op_name.as_str() {
            "cancel" => RequestOp::Cancel {
                target: get_u64(o, "target")?
                    .ok_or_else(|| invalid("cancel needs a numeric `target`"))?,
            },
            "load_spec" if v2 => RequestOp::LoadSpec {
                text: get_str(o, "spec")?.ok_or_else(|| invalid("load_spec needs `spec` text"))?,
            },
            "batch" if v2 => {
                let source = source_v2(o)?;
                let items = batch_items(o, &source)?;
                RequestOp::Batch { source, items }
            }
            name => {
                let source = if v2 { source_v2(o)? } else { source_v1(o)? };
                spec_op(o, name, source, v2)?
            }
        };
        Ok(Request {
            id,
            deadline_ms,
            op,
            v: version as u8,
            stream,
        })
    }
}

/// Decodes the `ok`/`op`/payload half of a reply object — shared
/// between top-level responses and batch sub-results.
fn body_from(o: &BTreeMap<String, Value>) -> Result<ResponseBody, ModrefError> {
    let ok = match o.get("ok") {
        Some(Value::Bool(b)) => *b,
        _ => return Err(invalid("missing boolean `ok`")),
    };
    if !ok {
        let e = o
            .get("error")
            .and_then(Value::as_obj)
            .ok_or_else(|| invalid("failure response needs an `error` object"))?;
        return Ok(ResponseBody::Error {
            code: get_str(e, "code")?.unwrap_or_default(),
            message: get_str(e, "message")?.unwrap_or_default(),
        });
    }
    let op = get_str(o, "op")?.ok_or_else(|| invalid("missing `op`"))?;
    let body = match op.as_str() {
        "parse" => {
            let s = o
                .get("stats")
                .and_then(Value::as_obj)
                .ok_or_else(|| invalid("parse response needs `stats`"))?;
            ResponseBody::Parsed(stats_from(s)?)
        }
        "load_spec" => {
            let s = o
                .get("stats")
                .and_then(Value::as_obj)
                .ok_or_else(|| invalid("load_spec response needs `stats`"))?;
            ResponseBody::Loaded {
                hash: get_str(o, "hash")?
                    .ok_or_else(|| invalid("load_spec response needs `hash`"))?,
                stats: stats_from(s)?,
            }
        }
        "refine" => ResponseBody::Refined {
            model: get_u64(o, "model")?.unwrap_or(0) as u8,
            behaviors: get_u64(o, "behaviors")?.unwrap_or(0) as usize,
            buses: get_u64(o, "buses")?.unwrap_or(0) as usize,
            printed_lines: get_u64(o, "printed_lines")?.unwrap_or(0) as usize,
        },
        "estimate" => ResponseBody::Estimated {
            report: get_str(o, "report")?.unwrap_or_default(),
        },
        "explore" => {
            let pts = o.get("points").and_then(Value::as_arr).unwrap_or(&[]);
            let points = pts
                .iter()
                .map(|p| {
                    let p = p
                        .as_obj()
                        .ok_or_else(|| invalid("points must be objects"))?;
                    Ok(PointSummary {
                        algorithm: get_str(p, "algorithm")?.unwrap_or_default(),
                        seed: get_u64(p, "seed")?.unwrap_or(0),
                        model: get_u64(p, "model")?.unwrap_or(0) as u8,
                        cost: p.get("cost").and_then(Value::as_f64).unwrap_or(0.0),
                        max_bus_rate: p.get("max_bus_rate").and_then(Value::as_f64).unwrap_or(0.0),
                        buses: get_u64(p, "buses")?.unwrap_or(0) as usize,
                        pareto: matches!(p.get("pareto"), Some(Value::Bool(true))),
                    })
                })
                .collect::<Result<Vec<_>, ModrefError>>()?;
            ResponseBody::Explored {
                points,
                pareto: get_u64(o, "pareto")?.unwrap_or(0) as usize,
                total: get_u64(o, "total")?.unwrap_or(0) as usize,
            }
        }
        "verify" => {
            let recs = o.get("records").and_then(Value::as_arr).unwrap_or(&[]);
            let records = recs
                .iter()
                .map(|r| {
                    let r = r
                        .as_obj()
                        .ok_or_else(|| invalid("records must be objects"))?;
                    Ok(RecordSummary {
                        algorithm: get_str(r, "algorithm")?.unwrap_or_default(),
                        seed: get_u64(r, "seed")?.unwrap_or(0),
                        model: get_u64(r, "model")?.unwrap_or(0) as u8,
                        equivalent: matches!(r.get("equivalent"), Some(Value::Bool(true))),
                        detail: get_str(r, "detail")?.unwrap_or_default(),
                        bus_traffic: get_u64(r, "bus_traffic")?.unwrap_or(0),
                    })
                })
                .collect::<Result<Vec<_>, ModrefError>>()?;
            ResponseBody::Verified {
                records,
                equivalent: matches!(o.get("equivalent"), Some(Value::Bool(true))),
                original_time: get_u64(o, "original_time")?.unwrap_or(0),
                original_steps: get_u64(o, "original_steps")?.unwrap_or(0),
            }
        }
        "lint" => {
            let ds = o.get("diagnostics").and_then(Value::as_arr).unwrap_or(&[]);
            let diagnostics = ds
                .iter()
                .map(|d| {
                    let d = d
                        .as_obj()
                        .ok_or_else(|| invalid("diagnostics must be objects"))?;
                    Ok(DiagSummary {
                        code: get_str(d, "code")?.unwrap_or_default(),
                        severity: get_str(d, "severity")?.unwrap_or_default(),
                        message: get_str(d, "message")?.unwrap_or_default(),
                        line: get_u64(d, "line")?.map(|n| n as u32),
                        col: get_u64(d, "col")?.map(|n| n as u32),
                    })
                })
                .collect::<Result<Vec<_>, ModrefError>>()?;
            ResponseBody::Linted {
                diagnostics,
                errors: get_u64(o, "errors")?.unwrap_or(0) as usize,
                warnings: get_u64(o, "warnings")?.unwrap_or(0) as usize,
                notes: get_u64(o, "notes")?.unwrap_or(0) as usize,
            }
        }
        "batch" => {
            let rs = o.get("results").and_then(Value::as_arr).unwrap_or(&[]);
            let results = rs
                .iter()
                .map(|r| {
                    let r = r
                        .as_obj()
                        .ok_or_else(|| invalid("batch results must be objects"))?;
                    Ok(SubResult {
                        sub: get_u64(r, "sub")?
                            .ok_or_else(|| invalid("batch results need a numeric `sub`"))?,
                        body: body_from(r)?,
                    })
                })
                .collect::<Result<Vec<_>, ModrefError>>()?;
            ResponseBody::Batch { results }
        }
        "cancel" => ResponseBody::Cancelled {
            target: get_u64(o, "target")?.unwrap_or(0),
            found: matches!(o.get("found"), Some(Value::Bool(true))),
        },
        other => return Err(invalid(format!("unknown response op `{other}`"))),
    };
    Ok(body)
}

fn stats_from(s: &BTreeMap<String, Value>) -> Result<SpecStats, ModrefError> {
    let field =
        |k: &str| -> Result<usize, ModrefError> { Ok(get_u64(s, k)?.unwrap_or(0) as usize) };
    Ok(SpecStats {
        name: get_str(s, "name")?.unwrap_or_default(),
        behaviors: field("behaviors")?,
        leaves: field("leaves")?,
        variables: field("variables")?,
        signals: field("signals")?,
        subroutines: field("subroutines")?,
        statements: field("statements")?,
        printed_lines: field("printed_lines")?,
        data_channels: field("data_channels")?,
        control_channels: field("control_channels")?,
    })
}

impl Response {
    /// Decodes one response line — the client half of the protocol,
    /// used by tests, the load-generator bench and scripted drivers.
    pub fn from_json(line: &str) -> Result<Self, ModrefError> {
        let v = json::parse(line).map_err(|e| invalid(format!("bad JSON: {e}")))?;
        let o = v
            .as_obj()
            .ok_or_else(|| invalid("response must be a JSON object"))?;
        let id = get_u64(o, "id")?.ok_or_else(|| invalid("missing numeric `id`"))?;
        Ok(Response {
            id,
            body: body_from(o)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let reqs = vec![
            Request::new(
                1,
                RequestOp::Parse {
                    source: SpecSource::Workload("fig2".into()),
                },
            )
            .with_deadline_ms(250),
            Request::new(
                2,
                RequestOp::Refine {
                    source: SpecSource::Text("spec s;\n".into()),
                    part: "component PROC processor\n".into(),
                    model: 3,
                },
            ),
            Request::new(
                3,
                RequestOp::Explore {
                    source: SpecSource::Workload("medical".into()),
                    part: None,
                    seeds: Some(4),
                    threads: Some(2),
                    top: Some(5),
                },
            ),
            Request::new(
                4,
                RequestOp::Lint {
                    source: SpecSource::Workload("dsp".into()),
                    part: None,
                    model: Some(1),
                    deny: vec!["warnings".into()],
                    allow: vec!["DF02".into()],
                },
            ),
            Request::new(5, RequestOp::Cancel { target: 3 }),
            Request::new(
                6,
                RequestOp::Verify {
                    source: SpecSource::Workload("medical".into()),
                    part: None,
                    seeds: Some(1),
                    threads: None,
                    sim: SimParams {
                        kernel: Some(modref_sim::SimKernel::Compiled),
                        verify_traces: Some(true),
                    },
                },
            ),
            Request::new(
                7,
                RequestOp::Verify {
                    source: SpecSource::Workload("fig2".into()),
                    part: None,
                    seeds: None,
                    threads: None,
                    sim: SimParams::default(),
                },
            ),
        ];
        for req in reqs {
            let line = req.to_json_line();
            assert!(!line.contains("\"v\""), "v1 lines carry no version: {line}");
            assert_eq!(Request::from_json(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn v2_requests_round_trip_through_json() {
        let reqs = vec![
            Request::v2(
                1,
                RequestOp::LoadSpec {
                    text: "spec s;\n".into(),
                },
            ),
            Request::v2(
                2,
                RequestOp::Parse {
                    source: SpecSource::Hash("00e1ab33cd9f2277".into()),
                },
            ),
            Request::v2(
                3,
                RequestOp::Verify {
                    source: SpecSource::Workload("medical".into()),
                    part: None,
                    seeds: Some(1),
                    threads: None,
                    sim: SimParams {
                        kernel: Some(modref_sim::SimKernel::Compiled),
                        verify_traces: Some(true),
                    },
                },
            ),
            Request::v2(
                4,
                RequestOp::Explore {
                    source: SpecSource::Workload("fig2".into()),
                    part: None,
                    seeds: Some(2),
                    threads: None,
                    top: Some(3),
                },
            )
            .with_stream(true),
            Request::v2(
                5,
                RequestOp::Batch {
                    source: SpecSource::Hash("00e1ab33cd9f2277".into()),
                    items: vec![
                        BatchItem {
                            sub: 1,
                            op: RequestOp::Parse {
                                source: SpecSource::Hash("00e1ab33cd9f2277".into()),
                            },
                        },
                        BatchItem {
                            sub: 2,
                            op: RequestOp::Lint {
                                source: SpecSource::Hash("00e1ab33cd9f2277".into()),
                                part: None,
                                model: None,
                                deny: vec![],
                                allow: vec![],
                            },
                        },
                    ],
                },
            )
            .with_deadline_ms(5_000),
        ];
        for req in reqs {
            let line = req.to_json_line();
            assert!(line.contains("\"v\":2"), "{line}");
            assert_eq!(Request::from_json(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn v2_sim_object_replaces_flat_fields() {
        // Nested sim decodes.
        let req = Request::from_json(
            r#"{"v":2,"id":1,"op":"verify","workload":"fig2","sim":{"kernel":"compiled","verify_traces":true}}"#,
        )
        .unwrap();
        match req.op {
            RequestOp::Verify { sim, .. } => {
                assert_eq!(sim.kernel, Some(modref_sim::SimKernel::Compiled));
                assert_eq!(sim.verify_traces, Some(true));
            }
            other => panic!("expected verify, got {other:?}"),
        }
        // Flat legacy fields are rejected under v2, with a pointer.
        let err = Request::from_json(
            r#"{"v":2,"id":1,"op":"verify","workload":"fig2","kernel":"compiled"}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("`sim` object"), "{err}");
        // ...but still work under v1.
        let req =
            Request::from_json(r#"{"id":1,"op":"verify","workload":"fig2","kernel":"compiled"}"#)
                .unwrap();
        assert!(matches!(
            req.op,
            RequestOp::Verify {
                sim: SimParams {
                    kernel: Some(modref_sim::SimKernel::Compiled),
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn unknown_versions_are_rejected_with_a_stable_message() {
        for line in [
            r#"{"v":3,"id":1,"op":"parse","workload":"fig2"}"#,
            r#"{"v":0,"id":1,"op":"parse","workload":"fig2"}"#,
        ] {
            let err = Request::from_json(line).unwrap_err();
            assert_eq!(err.code(), "invalid_request");
            assert!(
                err.to_string().contains("unsupported protocol version"),
                "{err}"
            );
            assert!(err.to_string().contains("(supported: 1, 2)"), "{err}");
        }
    }

    #[test]
    fn v1_ignores_v2_only_fields_and_rejects_v2_only_ops() {
        // `stream` is ignored by v1 (unknown fields are skipped).
        let req =
            Request::from_json(r#"{"id":1,"op":"parse","workload":"fig2","stream":true}"#).unwrap();
        assert!(!req.stream);
        // `hash` sources and the v2-only ops don't exist in v1.
        for line in [
            r#"{"id":1,"op":"parse","hash":"00e1ab33cd9f2277"}"#,
            r#"{"id":1,"op":"load_spec","spec":"spec s;\n"}"#,
            r#"{"id":1,"op":"batch","workload":"fig2","items":[{"sub":1,"op":"parse"}]}"#,
        ] {
            let err = Request::from_json(line).unwrap_err();
            assert_eq!(err.code(), "invalid_request", "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_invalid_not_panics() {
        for line in [
            "",
            "not json",
            "[1,2]",
            r#"{"op":"parse","workload":"fig2"}"#,
            r#"{"id":1}"#,
            r#"{"id":1,"op":"warp"}"#,
            r#"{"id":1,"op":"parse"}"#,
            r#"{"id":1,"op":"parse","spec":"x","workload":"y"}"#,
            r#"{"id":1,"op":"refine","workload":"fig2","part":"p","model":9}"#,
            r#"{"id":1,"op":"cancel"}"#,
            r#"{"id":"one","op":"parse","workload":"fig2"}"#,
            r#"{"id":1,"op":"verify","workload":"fig2","verify_traces":"yes"}"#,
            r#"{"id":1,"op":"verify","workload":"fig2","verify_traces":1}"#,
            r#"{"v":"two","id":1,"op":"parse","workload":"fig2"}"#,
            r#"{"v":2,"id":1,"op":"parse","spec":"x","hash":"y"}"#,
            r#"{"v":2,"id":1,"op":"load_spec"}"#,
            r#"{"v":2,"id":1,"op":"batch","workload":"fig2"}"#,
            r#"{"v":2,"id":1,"op":"batch","workload":"fig2","items":[]}"#,
            r#"{"v":2,"id":1,"op":"batch","workload":"fig2","items":[{"op":"parse"}]}"#,
            r#"{"v":2,"id":1,"op":"batch","workload":"fig2","items":[{"sub":1,"op":"cancel"}]}"#,
            r#"{"v":2,"id":1,"op":"batch","workload":"fig2","items":[{"sub":1,"op":"parse","workload":"dsp"}]}"#,
            r#"{"v":2,"id":1,"op":"batch","workload":"fig2","items":[{"sub":1,"op":"parse","deadline_ms":5}]}"#,
            r#"{"v":2,"id":1,"op":"batch","workload":"fig2","items":[{"sub":1,"op":"parse"},{"sub":1,"op":"parse"}]}"#,
        ] {
            let err = Request::from_json(line).unwrap_err();
            assert_eq!(err.code(), "invalid_request", "{line}");
        }
    }

    #[test]
    fn batch_items_inherit_the_batch_source() {
        let req = Request::from_json(
            r#"{"v":2,"id":9,"op":"batch","workload":"fig2","items":[{"sub":1,"op":"parse"},{"sub":2,"op":"refine","part":"p","model":2}]}"#,
        )
        .unwrap();
        let RequestOp::Batch { source, items } = &req.op else {
            panic!("expected batch, got {:?}", req.op);
        };
        assert_eq!(*source, SpecSource::Workload("fig2".into()));
        assert_eq!(items.len(), 2);
        for item in items {
            assert_eq!(item.op.source(), Some(source));
        }
    }

    #[test]
    fn response_encoding_is_canonical_and_decodable() {
        let resp = Response::ok(
            9,
            ResponseBody::Explored {
                points: vec![PointSummary {
                    algorithm: "anneal".into(),
                    seed: 7,
                    model: 2,
                    cost: 12.5,
                    max_bus_rate: 3.25,
                    buses: 2,
                    pareto: true,
                }],
                pareto: 1,
                total: 24,
            },
        );
        let line = resp.to_json_line();
        assert_eq!(Response::from_json(&line).unwrap(), resp);
        // Canonical: keys sorted within each object.
        assert!(line.starts_with(r#"{"id":9,"#), "{line}");

        let err = Response::err(3, &ModrefError::Timeout);
        let line = err.to_json_line();
        assert_eq!(
            line,
            r#"{"error":{"code":"timeout","message":"deadline exceeded"},"id":3,"ok":false}"#
        );
        assert_eq!(Response::from_json(&line).unwrap(), err);
    }

    #[test]
    fn batch_and_loaded_responses_round_trip() {
        let stats = SpecStats {
            name: "s".into(),
            behaviors: 2,
            leaves: 1,
            variables: 1,
            signals: 0,
            subroutines: 0,
            statements: 3,
            printed_lines: 5,
            data_channels: 1,
            control_channels: 1,
        };
        let loaded = Response::ok(
            1,
            ResponseBody::Loaded {
                hash: "00e1ab33cd9f2277".into(),
                stats: stats.clone(),
            },
        );
        let line = loaded.to_json_line();
        assert!(line.contains(r#""op":"load_spec""#), "{line}");
        assert_eq!(Response::from_json(&line).unwrap(), loaded);

        let batch = Response::ok(
            2,
            ResponseBody::Batch {
                results: vec![
                    SubResult {
                        sub: 1,
                        body: ResponseBody::Parsed(stats),
                    },
                    SubResult {
                        sub: 2,
                        body: ResponseBody::Error {
                            code: "partition".into(),
                            message: "bad part".into(),
                        },
                    },
                ],
            },
        );
        let line = batch.to_json_line();
        assert_eq!(Response::from_json(&line).unwrap(), batch);
        // Sub-results render like miniature responses, keyed by sub.
        assert!(
            line.contains(r#"{"ok":true,"op":"parse","stats":"#),
            "{line}"
        );
        assert!(
            line.contains(
                r#"{"error":{"code":"partition","message":"bad part"},"ok":false,"sub":2}"#
            ),
            "{line}"
        );
    }

    #[test]
    fn progress_frames_encode_and_decode() {
        let frame = ProgressFrame {
            id: 4,
            phase: "explore.job".into(),
            done: 3,
            total: 7,
        };
        let line = frame.to_json_line();
        assert_eq!(
            line,
            r#"{"done":3,"event":"progress","id":4,"phase":"explore.job","total":7}"#
        );
        assert_eq!(ProgressFrame::from_json(&line).unwrap(), frame);
        assert!(ProgressFrame::is_progress_line(&line));
        // Ordinary responses are not progress frames.
        let resp = Response::err(4, &ModrefError::Timeout).to_json_line();
        assert!(!ProgressFrame::is_progress_line(&resp));
    }
}
