//! The [`Codesign`] session facade: load a specification once, run any
//! number of codesign operations against it.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use modref_analyze::{analyze_spec, sort_canonical, Diagnostic, LintConfig};
use modref_graph::AccessGraph;
use modref_partition::explore::ExploreConfig;
use modref_partition::{parse_partition, Allocation, CostConfig, Partition};
use modref_sim::{SimConfig, SimKernel, SimResult, Simulator};
use modref_spec::{printer, SourceMap, Spec};

use modref_estimate::BusRateTable;

use crate::explore::{explore_designs_impl, verify_pareto_impl, Exploration, Verification};
use crate::model::ImplModel;
use crate::rates::figure9_rates;
use crate::refine::{refine, Refined};
use crate::RefineError;

use super::error::ModrefError;

/// Why a cooperative operation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// [`CancelToken::cancel`] was called (a `cancel` request).
    Cancelled,
    /// The token's deadline ([`CancelToken::with_deadline`]) passed.
    Expired,
}

impl From<Stop> for ModrefError {
    fn from(stop: Stop) -> Self {
        match stop {
            Stop::Cancelled => ModrefError::Cancelled,
            Stop::Expired => ModrefError::Timeout,
        }
    }
}

/// A shared cooperative stop flag for long-running operations.
///
/// Clone the token, hand one clone to the operation (via
/// [`ExploreOpts::cancel`] / [`VerifyOpts::cancel`]) and keep the other;
/// [`cancel`](CancelToken::cancel) from any thread, or the deadline of a
/// token made with [`with_deadline`](CancelToken::with_deadline)
/// passing, makes the operation return [`ModrefError::Cancelled`] /
/// [`ModrefError::Timeout`] at its next checkpoint (per partition-search
/// job, rated candidate, verification job or batch item). The first
/// stop reason wins and is sticky.
///
/// ```
/// use std::time::{Duration, Instant};
/// use modref_core::api::{CancelToken, Stop};
/// let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(60));
/// assert_eq!(t.stopped(), None);
/// t.cancel();
/// assert_eq!(t.stopped(), Some(Stop::Cancelled));
/// let late = CancelToken::with_deadline(Instant::now());
/// late.cancel(); // too late — the deadline already passed
/// assert_eq!(late.stopped(), Some(Stop::Expired));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
    deadline: Option<Instant>,
}

const RUNNING: u8 = 0;
const CANCELLED: u8 = 1;
const EXPIRED: u8 = 2;

impl CancelToken {
    /// A fresh, un-stopped token without a deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh token that stops with [`Stop::Expired`] once `deadline`
    /// has passed. Clones share the deadline.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Requests cooperative cancellation. No-op if already stopped,
    /// including by a deadline that has passed.
    pub fn cancel(&self) {
        if self.stopped().is_none() {
            let _ = self.state.compare_exchange(
                RUNNING,
                CANCELLED,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// The stop reason, if any: one relaxed atomic load, plus one clock
    /// read while a token with a deadline is still running.
    pub fn stopped(&self) -> Option<Stop> {
        let mut state = self.state.load(Ordering::Relaxed);
        if state == RUNNING && self.deadline.is_some_and(|d| Instant::now() >= d) {
            state = match self.state.compare_exchange(
                RUNNING,
                EXPIRED,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => EXPIRED,
                Err(first) => first,
            };
        }
        match state {
            CANCELLED => Some(Stop::Cancelled),
            EXPIRED => Some(Stop::Expired),
            _ => None,
        }
    }

    /// The stop reason as an error, for `?`-style checkpoints.
    pub fn check(&self) -> Result<(), ModrefError> {
        match self.stopped() {
            Some(stop) => Err(stop.into()),
            None => Ok(()),
        }
    }
}

/// One progress event from a long-running operation, delivered through
/// a [`ProgressFn`] callback.
///
/// Phases currently emitted: `explore.job` (one per partition-search
/// job), `explore.candidates` (once, after ranking — `done == total ==`
/// candidate count), `explore.rate` (one per candidate × model rate
/// evaluation) and `verify.job` (one per verification record, i.e. per
/// front candidate × model, `total` = record count; candidates with the
/// same partition are verified by one job, which emits one event for
/// each of their records when it finishes).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Progress {
    /// The work phase the event belongs to.
    pub phase: &'static str,
    /// Units completed so far within the phase.
    pub done: u64,
    /// Total units the phase will run.
    pub total: u64,
}

/// A shared progress callback for long-running operations.
///
/// Attach one via [`ExploreOpts::with_progress`] /
/// [`VerifyOpts::with_progress`]; the operation invokes it after each
/// unit of work (see [`Progress`] for the phases). The callback may be
/// called concurrently from several worker threads, so it must be
/// cheap and internally synchronized — `modref serve` uses it to stream
/// `{"event":"progress",...}` frames to the client while an explore is
/// still running.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use modref_core::api::{Codesign, ExploreOpts, ProgressFn};
/// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
/// let seen = Arc::new(AtomicU64::new(0));
/// let counted = seen.clone();
/// let opts = ExploreOpts::new()
///     .with_seeds(1)
///     .with_anneal_iterations(40)
///     .with_migration_passes(2)
///     .with_progress(ProgressFn::new(move |_| {
///         counted.fetch_add(1, Ordering::Relaxed);
///     }));
/// cd.explore(&opts)?;
/// assert!(seen.load(Ordering::Relaxed) > 0);
/// # Ok::<(), modref_core::api::ModrefError>(())
/// ```
#[derive(Clone)]
pub struct ProgressFn(Arc<dyn Fn(&Progress) + Send + Sync>);

impl ProgressFn {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&Progress) + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    /// Delivers one event to the callback.
    pub fn emit(&self, p: &Progress) {
        (self.0)(p);
    }
}

impl std::fmt::Debug for ProgressFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressFn(..)")
    }
}

/// Basic size statistics of a loaded specification, as reported by the
/// `parse` serve operation and `modref check`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SpecStats {
    /// The specification's name.
    pub name: String,
    /// Total behaviors.
    pub behaviors: usize,
    /// Leaf behaviors.
    pub leaves: usize,
    /// Declared variables.
    pub variables: usize,
    /// Declared signals.
    pub signals: usize,
    /// Declared subroutines.
    pub subroutines: usize,
    /// Statements across all leaf bodies.
    pub statements: usize,
    /// Lines of the canonical pretty-print.
    pub printed_lines: usize,
    /// Derived data channels.
    pub data_channels: usize,
    /// Derived control channels.
    pub control_channels: usize,
}

/// Options for [`Codesign::explore`]. `#[non_exhaustive]` — construct
/// with [`ExploreOpts::new`] and the builder methods.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ExploreOpts {
    /// Partition text supplying the allocation (components); `None`
    /// falls back to the default PROC+ASIC allocation.
    pub part: Option<String>,
    /// Number of random starting seeds (K).
    pub seeds: u64,
    /// Worker threads; `None` resolves like
    /// [`modref_partition::thread_count`].
    pub threads: Option<usize>,
    /// Iteration budget per annealing run.
    pub anneal_iterations: u32,
    /// Sweep budget per migration run.
    pub migration_passes: u32,
    /// Cooperative stop token, checked between jobs.
    pub cancel: Option<CancelToken>,
    /// Progress callback, invoked per finished job (see [`Progress`]).
    pub progress: Option<ProgressFn>,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        let d = ExploreConfig::default();
        Self {
            part: None,
            seeds: d.seeds,
            threads: d.threads,
            anneal_iterations: d.anneal_iterations,
            migration_passes: d.migration_passes,
            cancel: None,
            progress: None,
        }
    }
}

impl ExploreOpts {
    /// Default options: 4 seeds, automatic thread count, no partition
    /// file, no cancellation.
    ///
    /// ```
    /// use modref_core::api::ExploreOpts;
    /// let opts = ExploreOpts::new().with_seeds(2).with_threads(1);
    /// assert_eq!((opts.seeds, opts.threads), (2, Some(1)));
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the partition text supplying the allocation.
    #[must_use]
    pub fn with_part(mut self, text: impl Into<String>) -> Self {
        self.part = Some(text.into());
        self
    }

    /// Sets the seed count.
    #[must_use]
    pub fn with_seeds(mut self, seeds: u64) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the annealing iteration budget.
    #[must_use]
    pub fn with_anneal_iterations(mut self, iterations: u32) -> Self {
        self.anneal_iterations = iterations;
        self
    }

    /// Sets the migration sweep budget.
    #[must_use]
    pub fn with_migration_passes(mut self, passes: u32) -> Self {
        self.migration_passes = passes;
        self
    }

    /// Attaches a cooperative stop token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a progress callback (see [`ProgressFn`]).
    #[must_use]
    pub fn with_progress(mut self, f: ProgressFn) -> Self {
        self.progress = Some(f);
        self
    }
}

/// Options for [`Codesign::verify`]. `#[non_exhaustive]` — construct
/// with [`VerifyOpts::new`] and the builder methods.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct VerifyOpts {
    /// Partition text supplying the allocation; `None` falls back to the
    /// default PROC+ASIC allocation.
    pub part: Option<String>,
    /// Worker threads; `None` resolves like
    /// [`modref_partition::thread_count`].
    pub threads: Option<usize>,
    /// Cooperative stop token, checked between verification jobs.
    pub cancel: Option<CancelToken>,
    /// Scheduler kernel used for both the original and the refined
    /// simulations. Verdicts are kernel-independent (the kernels produce
    /// identical observable results), so this only changes how fast the
    /// verification runs.
    pub kernel: SimKernel,
    /// Additionally record event traces for both simulations and require
    /// every refined run to be a [stuttering
    /// refinement](crate::trace_check) of the original — the
    /// `modref explore --verify-traces` check. Off by default (tracing
    /// costs time and memory proportional to the write count).
    pub check_traces: bool,
    /// Progress callback, invoked per finished candidate × model job
    /// (see [`Progress`]).
    pub progress: Option<ProgressFn>,
}

impl VerifyOpts {
    /// Default options: default allocation, automatic thread count,
    /// the default ([`SimKernel::Compiled`]) kernel.
    ///
    /// ```
    /// use modref_core::api::VerifyOpts;
    /// use modref_sim::SimKernel;
    /// let opts = VerifyOpts::new().with_kernel(SimKernel::Compiled);
    /// assert_eq!(opts.kernel, SimKernel::Compiled);
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Picks the scheduler kernel for the verification simulations.
    #[must_use]
    pub fn with_kernel(mut self, kernel: SimKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Enables the stuttering-refinement trace check.
    #[must_use]
    pub fn with_check_traces(mut self, on: bool) -> Self {
        self.check_traces = on;
        self
    }

    /// Sets the partition text supplying the allocation.
    #[must_use]
    pub fn with_part(mut self, text: impl Into<String>) -> Self {
        self.part = Some(text.into());
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attaches a cooperative stop token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a progress callback (see [`ProgressFn`]).
    #[must_use]
    pub fn with_progress(mut self, f: ProgressFn) -> Self {
        self.progress = Some(f);
        self
    }
}

/// Options for [`Codesign::lint`]. `#[non_exhaustive]` — construct with
/// [`LintOpts::new`] and the builder methods.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct LintOpts {
    /// Partition text; when present the refinement-conformance lints
    /// (RC01–RC04) run over the refined output.
    pub part: Option<String>,
    /// Restricts conformance linting to one implementation model;
    /// `None` refines under all four.
    pub model: Option<ImplModel>,
    /// Lint codes/names (or `warnings`) to promote to errors.
    pub deny: Vec<String>,
    /// Lint codes/names to suppress.
    pub allow: Vec<String>,
}

impl LintOpts {
    /// Default options: spec-level lints only, default severities.
    ///
    /// ```
    /// use modref_core::api::LintOpts;
    /// let opts = LintOpts::new().with_deny("warnings").with_allow("DF02");
    /// assert_eq!((opts.deny.len(), opts.allow.len()), (1, 1));
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Supplies partition text, enabling the conformance lints.
    #[must_use]
    pub fn with_part(mut self, text: impl Into<String>) -> Self {
        self.part = Some(text.into());
        self
    }

    /// Restricts conformance linting to one model.
    #[must_use]
    pub fn with_model(mut self, model: ImplModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Promotes a lint (or `warnings`) to error severity.
    #[must_use]
    pub fn with_deny(mut self, code_or_name: impl Into<String>) -> Self {
        self.deny.push(code_or_name.into());
        self
    }

    /// Suppresses a lint.
    #[must_use]
    pub fn with_allow(mut self, code_or_name: impl Into<String>) -> Self {
        self.allow.push(code_or_name.into());
        self
    }
}

/// Options for [`Codesign::simulate`]. `#[non_exhaustive]` — construct
/// with [`SimOpts::new`] and the builder methods.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SimOpts {
    /// Micro-step budget; `None` keeps the simulator default.
    pub max_steps: Option<u64>,
    /// Scheduler kernel.
    pub kernel: SimKernel,
    /// Record a full event trace onto
    /// [`SimResult::trace`](modref_sim::SimResult) — the input to
    /// [`modref_sim::vcd::export`] and the trace-level refinement check.
    pub trace: bool,
}

impl SimOpts {
    /// Default options: the default ([`SimKernel::Compiled`]) kernel,
    /// default step budget.
    ///
    /// ```
    /// use modref_core::api::SimOpts;
    /// let opts = SimOpts::new().with_max_steps(10_000).with_trace(true);
    /// assert_eq!((opts.max_steps, opts.trace), (Some(10_000), true));
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the micro-step budget.
    #[must_use]
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Picks the scheduler kernel.
    #[must_use]
    pub fn with_kernel(mut self, kernel: SimKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Enables event-trace recording.
    #[must_use]
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }
}

/// A codesign session: one parsed specification plus its lazily derived
/// access graph, against which every pipeline operation runs.
///
/// This facade is the single typed entry point the CLI, the
/// `modref serve` server and library consumers share — spec loading and
/// graph derivation happen once per session instead of once per call
/// site, and every operation fails with a structured [`ModrefError`].
///
/// ```
/// use modref_core::api::Codesign;
/// let src = "spec tiny;\nvar x : int<16> = 0;\n\
///            behavior L leaf { x := x + 5; }\n\
///            behavior T seq { children { L; } }\ntop T;\n";
/// let cd = Codesign::parse("tiny.spec", src)?;
/// assert_eq!(cd.stats().behaviors, 2);
/// # Ok::<(), modref_core::api::ModrefError>(())
/// ```
#[derive(Debug)]
pub struct Codesign {
    name: String,
    spec: Spec,
    map: SourceMap,
    graph: OnceLock<AccessGraph>,
}

impl Codesign {
    /// Parses and validates specification text, keeping the source map
    /// for positioned diagnostics. Rejects both syntax errors
    /// ([`ModrefError::Parse`]) and structural violations
    /// ([`ModrefError::Spec`]).
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// let err = Codesign::parse("bad.spec", "spec x;\ntop missing;\n").unwrap_err();
    /// assert_eq!(err.code(), "parse");
    /// ```
    pub fn parse(name: impl Into<String>, text: &str) -> Result<Self, ModrefError> {
        let cd = Self::parse_lenient(name, text)?;
        modref_spec::validate::check(&cd.spec)?;
        Ok(cd)
    }

    /// Parses specification text but skips structural validation, so
    /// [`check`](Self::check) and [`lint`](Self::lint) can report *every*
    /// violation with positions instead of stopping at the first.
    ///
    /// Operations that need a well-formed hierarchy (refine, explore,
    /// simulate, [`stats`](Self::stats)) must not be called on a lenient
    /// session that failed [`check`](Self::check).
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// // Missing top behavior parses leniently but fails `check`.
    /// let src = "spec s;\nvar v : int<8> = 0;\nvar v2 : int<8> = 0;\n\
    ///            behavior L leaf { v := v2; }\n\
    ///            behavior T seq { children { L; } }\ntop T;\n";
    /// let cd = Codesign::parse_lenient("s.spec", src)?;
    /// assert!(cd.check().is_empty());
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn parse_lenient(name: impl Into<String>, text: &str) -> Result<Self, ModrefError> {
        let (spec, map) = modref_spec::parser::parse_with_spans(text)?;
        Ok(Self {
            name: name.into(),
            spec,
            map,
            graph: OnceLock::new(),
        })
    }

    /// Wraps an already built (and therefore valid) specification, e.g.
    /// one of the shipped workloads.
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// assert_eq!(cd.name(), cd.spec().name());
    /// ```
    pub fn from_spec(spec: Spec) -> Self {
        Self {
            name: spec.name().to_string(),
            spec,
            map: SourceMap::new(),
            graph: OnceLock::new(),
        }
    }

    /// Reads, parses and validates a specification file.
    ///
    /// ```no_run
    /// use modref_core::api::Codesign;
    /// let cd = Codesign::load("designs/medical.spec")?;
    /// println!("{} behaviors", cd.stats().behaviors);
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn load(path: &str) -> Result<Self, ModrefError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ModrefError::Io(format!("reading {path}: {e}")))?;
        Self::parse(path, &text)
    }

    /// Like [`load`](Self::load) but using
    /// [`parse_lenient`](Self::parse_lenient).
    ///
    /// ```no_run
    /// use modref_core::api::Codesign;
    /// let cd = Codesign::load_lenient("designs/medical.spec")?;
    /// for d in cd.check() {
    ///     eprintln!("{}", d.render_human(cd.name()));
    /// }
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn load_lenient(path: &str) -> Result<Self, ModrefError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ModrefError::Io(format!("reading {path}: {e}")))?;
        Self::parse_lenient(path, &text)
    }

    /// The session's display name (usually the file path).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loaded specification.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The source map (empty for built specs).
    pub fn source_map(&self) -> &SourceMap {
        &self.map
    }

    /// The derived access graph, computed on first use and shared by
    /// every subsequent operation.
    pub fn graph(&self) -> &AccessGraph {
        self.graph.get_or_init(|| AccessGraph::derive(&self.spec))
    }

    /// Size statistics of the specification, including derived channel
    /// counts. Requires a validated spec (see
    /// [`parse_lenient`](Self::parse_lenient)).
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// let stats = cd.stats();
    /// assert!(stats.leaves <= stats.behaviors);
    /// assert!(stats.data_channels > 0);
    /// ```
    pub fn stats(&self) -> SpecStats {
        let graph = self.graph();
        SpecStats {
            name: self.spec.name().to_string(),
            behaviors: self.spec.behavior_count(),
            leaves: self.spec.leaves().len(),
            variables: self.spec.variable_count(),
            signals: self.spec.signal_count(),
            subroutines: self.spec.subroutine_count(),
            statements: self.spec.total_statements(),
            printed_lines: printer::line_count(&self.spec),
            data_channels: graph.data_channel_count(),
            control_channels: graph.control_channels().count(),
        }
    }

    /// The canonical pretty-print of the specification.
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// assert!(cd.pretty().starts_with("spec "));
    /// ```
    pub fn pretty(&self) -> String {
        printer::print(&self.spec)
    }

    /// Runs the structural well-formedness lints (`ST01`–`ST06`),
    /// returning every violation with source positions. Empty means the
    /// spec is valid.
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// // A scalar indexed like an array: parses, fails `check`.
    /// let src = "spec s;\nvar x : int<16> = 0;\n\
    ///            behavior L leaf { x[0] := 1; }\n\
    ///            behavior T seq { children { L; } }\ntop T;\n";
    /// let cd = Codesign::parse_lenient("s.spec", src)?;
    /// let diags = cd.check();
    /// assert!(diags.iter().any(|d| d.code.starts_with("ST")), "{diags:?}");
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn check(&self) -> Vec<Diagnostic> {
        let mut diags = modref_analyze::structural::structural_lints(&self.spec, &self.map);
        sort_canonical(&mut diags);
        diags
    }

    /// Runs the full static-analysis suite (structural, dataflow,
    /// concurrency), plus the refinement-conformance lints when
    /// [`LintOpts::part`] is set, applying the deny/allow configuration.
    ///
    /// ```
    /// use modref_core::api::{Codesign, LintOpts};
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// let diags = cd.lint(&LintOpts::new())?;
    /// assert!(diags.iter().all(|d| d.severity < modref_analyze::Severity::Error));
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn lint(&self, opts: &LintOpts) -> Result<Vec<Diagnostic>, ModrefError> {
        let mut config = LintConfig::new();
        for name in &opts.deny {
            config.deny(name).map_err(ModrefError::InvalidRequest)?;
        }
        for name in &opts.allow {
            config.allow(name).map_err(ModrefError::InvalidRequest)?;
        }
        let mut diags = analyze_spec(&self.spec, &self.map);
        if let Some(part_text) = &opts.part {
            let (alloc, partition) = self.partition(part_text)?;
            let models: Vec<ImplModel> = match opts.model {
                Some(m) => vec![m],
                None => ImplModel::ALL.to_vec(),
            };
            for model in models {
                let refined = refine(&self.spec, self.graph(), &alloc, &partition, model)?;
                diags.extend(crate::lint::lint_refined_impl(
                    &self.spec,
                    self.graph(),
                    &refined,
                ));
            }
            sort_canonical(&mut diags);
        }
        Ok(config.apply_all(diags))
    }

    /// Parses partition text against this spec, yielding the allocation
    /// (components) and the behavior/variable assignment.
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// let text = modref_workloads::named_partition("fig2").unwrap();
    /// let (alloc, part) = cd.partition(&text)?;
    /// assert!(part.is_complete(cd.spec(), &alloc));
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn partition(&self, text: &str) -> Result<(Allocation, Partition), ModrefError> {
        Ok(parse_partition(&self.spec, text)?)
    }

    /// Refines the specification under a partition into one of the four
    /// implementation models.
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// use modref_core::ImplModel;
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// let part = modref_workloads::named_partition("fig2").unwrap();
    /// let refined = cd.refine(&part, ImplModel::Model1)?;
    /// assert!(refined.spec.behavior_count() > cd.spec().behavior_count());
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn refine(&self, part_text: &str, model: ImplModel) -> Result<Refined, ModrefError> {
        let (alloc, partition) = self.partition(part_text)?;
        Ok(refine(&self.spec, self.graph(), &alloc, &partition, model)?)
    }

    /// Runs the refinement-conformance lints (`RC01`–`RC04`, plus the
    /// deadlock family over the refined behaviors) on a refined
    /// candidate produced by [`Codesign::refine`]. Prefer
    /// [`Codesign::lint`] with [`LintOpts::with_part`] when starting
    /// from partition text; this entry point is for callers that
    /// already hold a [`Refined`].
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// use modref_core::ImplModel;
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// let part = modref_workloads::named_partition("fig2").unwrap();
    /// let refined = cd.refine(&part, ImplModel::Model1)?;
    /// let diags = cd.lint_refined(&refined);
    /// assert!(modref_core::static_reject(&diags).is_none(), "{diags:?}");
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn lint_refined(&self, refined: &Refined) -> Vec<Diagnostic> {
        crate::lint::lint_refined_impl(&self.spec, self.graph(), refined)
    }

    /// Renders the lifetime/channel-rate estimation report for the
    /// specification under a partition.
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// let part = modref_workloads::named_partition("fig2").unwrap();
    /// let report = cd.estimate(&part)?;
    /// assert!(report.contains("behavior lifetimes"));
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn estimate(&self, part_text: &str) -> Result<String, ModrefError> {
        let (alloc, partition) = self.partition(part_text)?;
        let model_of = |b: modref_spec::BehaviorId| {
            partition
                .component_of_behavior(&self.spec, b)
                .map(|c| alloc.component(c).timing_model())
                .unwrap_or_default()
        };
        Ok(modref_estimate::estimation_report(
            &self.spec,
            self.graph(),
            &model_of,
            &modref_estimate::LifetimeConfig::default(),
        ))
    }

    /// Evaluates the Figure 9 bus transfer-rate table for one
    /// implementation model under a partition.
    ///
    /// ```
    /// use modref_core::api::Codesign;
    /// use modref_core::ImplModel;
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// let part = modref_workloads::named_partition("fig2").unwrap();
    /// let table = cd.rates(&part, ImplModel::Model2)?;
    /// assert!(table.bus_count() >= 1);
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn rates(&self, part_text: &str, model: ImplModel) -> Result<BusRateTable, ModrefError> {
        let (alloc, partition) = self.partition(part_text)?;
        Ok(figure9_rates(
            &self.spec,
            self.graph(),
            &alloc,
            &partition,
            model,
            &modref_estimate::LifetimeConfig::default(),
        )?)
    }

    /// Simulates the specification to completion.
    ///
    /// ```
    /// use modref_core::api::{Codesign, SimOpts};
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// let result = cd.simulate(&SimOpts::new())?;
    /// assert!(result.steps > 0);
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn simulate(&self, opts: &SimOpts) -> Result<SimResult, ModrefError> {
        let config = SimConfig {
            max_steps: opts.max_steps.unwrap_or(SimConfig::default().max_steps),
            kernel: opts.kernel,
            trace: opts.trace,
        };
        Ok(Simulator::with_config(&self.spec, config).run()?)
    }

    /// Runs the parallel multi-start design-space exploration: K seeds ×
    /// algorithms × the four implementation models, ranked with the
    /// Pareto front flagged. Deterministic for fixed options regardless
    /// of thread count; honors [`ExploreOpts::cancel`].
    ///
    /// ```
    /// use modref_core::api::{Codesign, ExploreOpts};
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// let opts = ExploreOpts::new()
    ///     .with_seeds(1)
    ///     .with_anneal_iterations(40)
    ///     .with_migration_passes(2);
    /// let out = cd.explore(&opts)?;
    /// assert!(!out.pareto_front().is_empty());
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn explore(&self, opts: &ExploreOpts) -> Result<Exploration, ModrefError> {
        let alloc = self.allocation_from(opts.part.as_deref())?;
        let expl = ExploreConfig {
            seeds: opts.seeds,
            anneal_iterations: opts.anneal_iterations,
            migration_passes: opts.migration_passes,
            threads: opts.threads,
        };
        let out = explore_designs_impl(
            &self.spec,
            self.graph(),
            &alloc,
            &CostConfig::default(),
            &expl,
            opts.cancel.as_ref(),
            opts.progress.as_ref(),
        )?;
        if let Some(token) = &opts.cancel {
            token.check()?;
        }
        Ok(out)
    }

    /// Verifies an exploration's Pareto front by simulation: every
    /// distinct front partition is refined under Models 1–4 and the
    /// refined spec is simulated against the original, and every front
    /// candidate gets the records of its partition. Honors
    /// [`VerifyOpts::cancel`].
    ///
    /// ```
    /// use modref_core::api::{Codesign, ExploreOpts, VerifyOpts};
    /// let cd = Codesign::from_spec(modref_workloads::fig2_spec());
    /// let opts = ExploreOpts::new()
    ///     .with_seeds(1)
    ///     .with_anneal_iterations(40)
    ///     .with_migration_passes(2);
    /// let out = cd.explore(&opts)?;
    /// let v = cd.verify(&out, &VerifyOpts::new())?;
    /// assert!(v.all_equivalent());
    /// # Ok::<(), modref_core::api::ModrefError>(())
    /// ```
    pub fn verify(
        &self,
        exploration: &Exploration,
        opts: &VerifyOpts,
    ) -> Result<Verification, ModrefError> {
        let alloc = self.allocation_from(opts.part.as_deref())?;
        let v = verify_pareto_impl(
            &self.spec,
            self.graph(),
            &alloc,
            exploration,
            opts.threads,
            opts.cancel.as_ref(),
            opts.kernel,
            opts.check_traces,
            &self.map,
            opts.progress.as_ref(),
        );
        if let Some(token) = &opts.cancel {
            token.check()?;
        }
        Ok(v)
    }

    /// The allocation from partition text, or the default PROC+ASIC
    /// allocation when no text is supplied. An allocation without
    /// components is rejected here, before any search or refinement.
    fn allocation_from(&self, part: Option<&str>) -> Result<Allocation, ModrefError> {
        let alloc = match part {
            Some(text) => self.partition(text)?.0,
            None => Allocation::proc_plus_asic(),
        };
        if alloc.is_empty() {
            return Err(RefineError::EmptyAllocation.into());
        }
        Ok(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_first_reason_wins() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        t.cancel();
        assert_eq!(t.stopped(), Some(Stop::Cancelled));
        let t = CancelToken::with_deadline(Instant::now());
        t.cancel();
        assert_eq!(t.stopped(), Some(Stop::Expired));
        assert_eq!(t.check().unwrap_err(), ModrefError::Timeout);
        // Clones share state.
        let u = t.clone();
        assert_eq!(u.stopped(), Some(Stop::Expired));
    }

    #[test]
    fn explore_and_verify_reject_a_componentless_allocation() {
        let cd = Codesign::from_spec(modref_workloads::fig2_spec());
        let empty = ModrefError::Refine(RefineError::EmptyAllocation);
        let err = cd
            .explore(&ExploreOpts::new().with_seeds(1).with_part("# none\n"))
            .unwrap_err();
        assert_eq!(err, empty);
        let exploration = cd
            .explore(&ExploreOpts::new().with_seeds(1))
            .expect("explores");
        let err = cd
            .verify(&exploration, &VerifyOpts::new().with_part("# none\n"))
            .unwrap_err();
        assert_eq!(err, empty);
        assert_eq!(err.code(), "refine");
    }

    #[test]
    fn verify_reports_partitions_outside_its_allocation() {
        // Explored on three components, verified on the default two: a
        // candidate may place objects on the third, which the
        // verification allocation lacks.
        let cd = Codesign::from_spec(modref_workloads::fig2_spec());
        let three = "component PROC processor 65536\n\
                     component ASIC1 asic 10000 75\n\
                     component ASIC2 asic 10000 75\n";
        let opts = ExploreOpts::new().with_part(three);
        let exploration = cd.explore(&opts).expect("explores");
        let v = cd
            .verify(&exploration, &VerifyOpts::new())
            .expect("verifies");
        let failed: Vec<_> = v.records.iter().filter(|r| !r.equivalent).collect();
        assert!(
            !failed.is_empty(),
            "some candidate uses the third component"
        );
        for r in failed {
            assert!(
                r.detail.starts_with("refinement failed: ")
                    && r.detail.contains("which the allocation lacks"),
                "{}",
                r.detail
            );
        }
    }

    #[test]
    fn parse_rejects_invalid_spec_with_structured_error() {
        // Valid syntax, but a scalar is indexed like an array — a
        // structural violation only validation catches.
        let src = "spec s;\nvar x : int<16> = 0;\n\
                   behavior L leaf { x[0] := 1; }\n\
                   behavior T seq { children { L; } }\ntop T;\n";
        let err = Codesign::parse("x.spec", src).unwrap_err();
        assert_eq!(err.code(), "spec");
        // Lenient parse accepts it and reports through lint instead.
        let cd = Codesign::parse_lenient("x.spec", src).expect("syntax is fine");
        assert_eq!(cd.stats().behaviors, 2);
    }

    #[test]
    fn unknown_lint_name_is_invalid_request() {
        let cd = Codesign::from_spec(modref_workloads::fig2_spec());
        let err = cd.lint(&LintOpts::new().with_deny("NOPE99")).unwrap_err();
        assert_eq!(err.code(), "invalid_request");
    }

    #[test]
    fn bad_partition_is_partition_error() {
        let cd = Codesign::from_spec(modref_workloads::fig2_spec());
        let err = cd.partition("component ???").unwrap_err();
        assert_eq!(err.code(), "partition");
    }

    #[test]
    fn cancelled_explore_returns_cancelled() {
        let cd = Codesign::from_spec(modref_workloads::fig2_spec());
        let token = CancelToken::new();
        token.cancel();
        let err = cd
            .explore(&ExploreOpts::new().with_seeds(2).with_cancel(token))
            .unwrap_err();
        assert_eq!(err, ModrefError::Cancelled);
    }
}
