//! Design-space exploration across partitions *and* implementation
//! models.
//!
//! The partition layer's multi-start explorer
//! ([`mod@modref_partition::explore`]) produces ranked candidate partitions;
//! this module crosses each candidate with the four implementation
//! models, evaluates the Figure 9 bus-rate tables for every pair, and
//! ranks the resulting design points. A point's quality is the pair
//! `(partition cost, max bus transfer rate)` — both minimized — and the
//! Pareto-optimal points are flagged so a designer reads the frontier
//! directly off the table.
//!
//! Partitioning fans out over the deterministic [`par_map`]. Rate
//! evaluation then runs one job per candidate: the candidate's
//! model-independent facts once, shared lifetimes across candidates, and
//! one cheap bus-mapping pass per model (see [`crate::rates`]). Either
//! way the exploration is reproducible for a fixed seed count regardless
//! of thread count.
//!
//! [`Codesign::verify`](crate::api::Codesign::verify) closes the loop
//! from estimation to *verification*: every distinct Pareto-front
//! partition is refined under all four implementation models and the
//! refined specification is simulated against the original (the paper's
//! functional-equivalence check), again fanned out over `par_map` — so
//! the explorer reports not just estimated cost/rate rankings but
//! simulation-backed pass/fail verdicts and observed bus traffic for the
//! frontier. "Distinct" means partition content: front candidates from
//! different algorithms or seeds that return the same partition share
//! one refine → simulate job per model, and each candidate's records
//! copy its outcome.

use std::sync::atomic::{AtomicU64, Ordering};

use modref_graph::AccessGraph;
use modref_partition::explore::{explore_with_observer, ExploreConfig};
use modref_partition::{par_map, thread_count, Allocation, CostConfig, CostReport, Partition};
use modref_sim::{SimConfig, SimKernel, Simulator};
use modref_spec::span::SourceMap;
use modref_spec::Spec;

use crate::api::{CancelToken, Progress, ProgressFn};
use crate::error::RefineError;
use crate::model::ImplModel;
use crate::rates::{CandidateRates, ChannelRates};
use crate::refine::refine;

/// One fully evaluated design point: a candidate partition under one
/// implementation model.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The partitioning algorithm that produced the candidate.
    pub algorithm: &'static str,
    /// The seed that drove it (0 for deterministic algorithms).
    pub seed: u64,
    /// The implementation model evaluated.
    pub model: ImplModel,
    /// Partition cost breakdown (model-independent).
    pub cost: CostReport,
    /// Peak bus transfer rate in Mbit/s (the Figure 9 hot spot).
    pub max_bus_rate: f64,
    /// Number of buses the refinement plan allocates.
    pub bus_count: usize,
    /// Whether the point is Pareto-optimal over
    /// `(cost.total, max_bus_rate)`, both minimized.
    pub pareto: bool,
    /// The candidate partition.
    pub partition: Partition,
}

/// The outcome of a full exploration: design points ranked best-first.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// All evaluated points, sorted by `(cost, max bus rate, model,
    /// algorithm, seed)`.
    pub points: Vec<DesignPoint>,
}

impl Exploration {
    /// The Pareto-optimal points, in ranked order.
    pub fn pareto_front(&self) -> Vec<&DesignPoint> {
        self.points.iter().filter(|p| p.pareto).collect()
    }
}

/// The implementation behind
/// [`Codesign::explore`](crate::api::Codesign::explore). The token is
/// checked before each partition job and each candidate's rate job; on
/// stop the partial result ranks whatever finished — the facade then
/// checks its token, discards the partial result and reports the stop
/// reason.
///
/// `progress` receives `explore.job` per finished partition job,
/// `explore.candidates` once the candidate set is fixed, and
/// `explore.rate` per finished candidate × model rate table.
pub(crate) fn explore_designs_impl(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    cost_config: &CostConfig,
    expl: &ExploreConfig,
    cancel: Option<&CancelToken>,
    progress: Option<&ProgressFn>,
) -> Result<Exploration, RefineError> {
    let _span = modref_obs::span("explore_designs");
    let stop_fn: Option<Box<dyn Fn() -> bool + Sync>> = cancel.map(|token| {
        let token = token.clone();
        Box::new(move || token.stopped().is_some()) as Box<dyn Fn() -> bool + Sync>
    });
    let on_job: Option<Box<dyn Fn(u64, u64) + Sync>> = progress.map(|p| {
        let p = p.clone();
        Box::new(move |done: u64, total: u64| {
            p.emit(&Progress {
                phase: "explore.job",
                done,
                total,
            });
        }) as Box<dyn Fn(u64, u64) + Sync>
    });
    let candidates = explore_with_observer(
        spec,
        graph,
        allocation,
        cost_config,
        expl,
        stop_fn.as_deref(),
        on_job.as_deref(),
    );
    if let Some(p) = progress {
        let n = candidates.len() as u64;
        p.emit(&Progress {
            phase: "explore.candidates",
            done: n,
            total: n,
        });
    }

    // One rate job per candidate: its model-independent facts once, then
    // a cheap mapping pass per model, all sharing one lifetime table.
    let mut rates = ChannelRates::new(spec, allocation, &cost_config.lifetime);
    let rate_total = (candidates.len() * ImplModel::ALL.len()) as u64;
    let mut points = Vec::with_capacity(rate_total as usize);
    for cand in &candidates {
        if cancel.is_some_and(|t| t.stopped().is_some()) {
            break;
        }
        let _job = modref_obs::span("rate_eval");
        let facts = CandidateRates::new(graph, allocation, &cand.partition, &mut rates)?;
        for model in ImplModel::ALL {
            let table = facts.table(allocation, model);
            points.push(DesignPoint {
                algorithm: cand.algorithm,
                seed: cand.seed,
                model,
                cost: cand.cost,
                max_bus_rate: table.max_rate(),
                bus_count: table.bus_count(),
                pareto: false,
                partition: cand.partition.clone(),
            });
            if let Some(p) = progress {
                p.emit(&Progress {
                    phase: "explore.rate",
                    done: points.len() as u64,
                    total: rate_total,
                });
            }
        }
    }

    rank(&mut points);
    mark_pareto(&mut points);
    Ok(Exploration { points })
}

/// The simulation-equivalence verdict for one Pareto-front candidate
/// under one implementation model.
///
/// All fields are exact (no floats), so verification outcomes compare
/// byte-identical across runs and thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyRecord {
    /// The partitioning algorithm that produced the candidate.
    pub algorithm: &'static str,
    /// The seed that drove it (0 for deterministic algorithms).
    pub seed: u64,
    /// The implementation model the candidate was refined under.
    pub model: ImplModel,
    /// Whether the refined specification simulated to the same observable
    /// variable state as the original.
    pub equivalent: bool,
    /// Empty when equivalent; otherwise a description of the divergence
    /// (differing variables, or the refine/simulation error).
    pub detail: String,
    /// Final simulated time of the refined specification.
    pub refined_time: u64,
    /// Micro-steps the refined simulation executed.
    pub refined_steps: u64,
    /// Signal writes the refined simulation performed beyond the
    /// original's — the bus-protocol traffic the refinement introduced
    /// (handshakes, address/data transfers, arbitration).
    pub bus_traffic: u64,
}

/// The outcome of verifying an exploration's Pareto front by simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verification {
    /// One record per front candidate (a distinct `(algorithm, seed)`)
    /// × implementation model, in front rank order then model order.
    /// Candidates with the same partition content carry copies of one
    /// verification outcome, each under its own algorithm and seed.
    pub records: Vec<VerifyRecord>,
    /// Final simulated time of the original (unrefined) specification.
    pub original_time: u64,
    /// Micro-steps the original simulation executed.
    pub original_steps: u64,
}

impl Verification {
    /// Whether every candidate×model pair verified equivalent.
    pub fn all_equivalent(&self) -> bool {
        self.records.iter().all(|r| r.equivalent)
    }

    /// Count of failing records.
    pub fn failures(&self) -> usize {
        self.records.iter().filter(|r| !r.equivalent).count()
    }
}

/// The implementation behind
/// [`Codesign::verify`](crate::api::Codesign::verify): simulates
/// original vs. refined specifications for every distinct Pareto-front
/// partition × Model1–4, in parallel over the deterministic [`par_map`].
/// Front candidates are the distinct `(algorithm, seed)` pairs; those
/// whose partitions compare equal (`Partition: PartialEq`, i.e. by
/// content) share one job per model, and the job's record is copied to
/// each of them with the candidate's own algorithm and seed. Refinement,
/// the lint gate and simulation are deterministic, so the records equal
/// those of verifying every candidate separately.
///
/// Refinement or simulation failures are *reported* (as non-equivalent
/// records with the error in `detail`), not propagated — a design-space
/// sweep should show which corners break, not abort on the first one.
/// Output is identical regardless of thread count. The token is checked
/// before each partition × model job; jobs that start after a stop
/// return a non-equivalent record marked `"stopped"` (the facade then
/// checks its token and reports the stop reason instead).
///
/// The `verify.pass`, `verify.fail`, `verify.static_reject` and
/// `verify.static_deadlock` counters count records; `verify.sims` counts
/// the partition × model jobs that ran. `progress` receives one
/// `verify.job` event per record (`total` = record count): a finished
/// job emits one for each record it stands for.
///
/// With `check_traces` set, both simulations record full event traces
/// and each refined run must additionally pass the
/// [stuttering-refinement check](crate::trace_check) against the
/// original's trace; `map` supplies declaration spans for the mismatch
/// report.
#[allow(clippy::too_many_arguments)] // one call site per option surface
pub(crate) fn verify_pareto_impl(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    exploration: &Exploration,
    threads: Option<usize>,
    cancel: Option<&CancelToken>,
    kernel: SimKernel,
    check_traces: bool,
    map: &SourceMap,
    progress: Option<&ProgressFn>,
) -> Verification {
    let span = modref_obs::span("verify_pareto");
    let span_id = span.id();
    let pass_counter = modref_obs::counter("verify.pass");
    let fail_counter = modref_obs::counter("verify.fail");
    let reject_counter = modref_obs::counter("verify.static_reject");
    let deadlock_counter = modref_obs::counter("verify.static_deadlock");
    let sims_counter = modref_obs::counter("verify.sims");
    let sim_config = SimConfig {
        kernel,
        trace: check_traces,
        ..SimConfig::default()
    };
    let original = Simulator::with_config(spec, sim_config).run();
    let (original_time, original_steps) = match &original {
        Ok(r) => (r.time, r.steps),
        Err(_) => (0, 0),
    };

    // Front candidates in rank order, one per (algorithm, seed): a
    // candidate can appear on the front under several models, and
    // verification refines it under all four regardless. Different
    // algorithms and seeds often return the same partition, so each
    // candidate maps to a distinct partition (compared by content), which
    // is verified once under the identity of its first candidate.
    // `shares[di]` counts the candidates partition `di` stands for:
    // counters and progress count records, not jobs.
    let mut cands: Vec<(&'static str, u64, usize)> = Vec::new();
    let mut distinct: Vec<(&'static str, u64, &Partition)> = Vec::new();
    let mut shares: Vec<u64> = Vec::new();
    for p in exploration.pareto_front() {
        if cands
            .iter()
            .any(|&(a, s, _)| a == p.algorithm && s == p.seed)
        {
            continue;
        }
        let di = match distinct.iter().position(|&(_, _, q)| *q == p.partition) {
            Some(di) => di,
            None => {
                distinct.push((p.algorithm, p.seed, &p.partition));
                shares.push(0);
                distinct.len() - 1
            }
        };
        shares[di] += 1;
        cands.push((p.algorithm, p.seed, di));
    }

    let jobs: Vec<(usize, ImplModel)> = (0..distinct.len())
        .flat_map(|di| ImplModel::ALL.iter().map(move |&m| (di, m)))
        .collect();
    let record_total = (cands.len() * ImplModel::ALL.len()) as u64;
    let records_done = AtomicU64::new(0);
    let workers = thread_count(threads);
    let outcomes = par_map(jobs, workers, |_, (di, model)| {
        let (algorithm, seed, partition) = distinct[di];
        let share = shares[di];
        let emit_done = || {
            if let Some(p) = progress {
                for _ in 0..share {
                    let done = records_done.fetch_add(1, Ordering::Relaxed) + 1;
                    p.emit(&Progress {
                        phase: "verify.job",
                        done,
                        total: record_total,
                    });
                }
            }
        };
        if cancel.is_some_and(|t| t.stopped().is_some()) {
            emit_done();
            return VerifyRecord {
                algorithm,
                seed,
                model,
                equivalent: false,
                detail: "stopped before simulation".into(),
                refined_time: 0,
                refined_steps: 0,
                bus_traffic: 0,
            };
        }
        sims_counter.inc();
        let _job = modref_obs::span_under(span_id, "verify.job")
            .attr("algorithm", algorithm)
            .attr("seed", seed)
            .attr("model", model.name())
            .attr("records", share);
        let record = (|| {
            let mut record = VerifyRecord {
                algorithm,
                seed,
                model,
                equivalent: false,
                detail: String::new(),
                refined_time: 0,
                refined_steps: 0,
                bus_traffic: 0,
            };
            let refined = match refine(spec, graph, allocation, partition, model) {
                Ok(r) => r,
                Err(e) => {
                    record.detail = format!("refinement failed: {e}");
                    return record;
                }
            };
            // Static gate: a candidate whose architecture trips
            // RC01-RC04 would deadlock or misdecode in simulation, and
            // one whose refined behaviors trip DL01-DL05 provably
            // deadlocks; reject either without spending the simulation
            // time (a statically-dead candidate would otherwise burn
            // the whole step limit before failing).
            let diags = {
                let _gate = modref_obs::span("lint_gate");
                crate::lint::lint_refined_impl(spec, graph, &refined)
            };
            if let Some(codes) = crate::lint::static_reject(&diags) {
                reject_counter.add(share);
                if codes.split(", ").any(|c| c.starts_with("DL")) {
                    deadlock_counter.add(share);
                }
                record.detail = format!("static analysis rejected: {codes}");
                return record;
            }
            // The original-run outcome gates only the dynamic comparison:
            // checking it *after* the static gate lets a DL-flagged
            // candidate report the lint codes rather than the far less
            // actionable "original simulation failed: deadlock".
            let orig = match &original {
                Ok(r) => r,
                Err(e) => {
                    record.detail = format!("original simulation failed: {e}");
                    return record;
                }
            };
            let result = match Simulator::with_config(&refined.spec, sim_config).run() {
                Ok(r) => r,
                Err(e) => {
                    record.detail = format!("refined simulation failed: {e}");
                    return record;
                }
            };
            record.refined_time = result.time;
            record.refined_steps = result.steps;
            record.bus_traffic = result.signal_writes.saturating_sub(orig.signal_writes);
            let diffs = orig.diff_common_vars(&result);
            if !diffs.is_empty() {
                record.detail = format!("vars diverged: {}", diffs.join(", "));
                return record;
            }
            if check_traces {
                if let (Some(ot), Some(rt)) = (&orig.trace, &result.trace) {
                    if let Err(m) = crate::trace_check::check_stuttering_refinement(
                        spec,
                        ot,
                        &refined.spec,
                        rt,
                        map,
                    ) {
                        record.detail = m.to_string();
                        return record;
                    }
                }
            }
            record.equivalent = true;
            record
        })();
        if record.equivalent {
            pass_counter.add(share);
        } else {
            fail_counter.add(share);
        }
        emit_done();
        record
    });

    let models = ImplModel::ALL.len();
    let records = cands
        .iter()
        .flat_map(|&(algorithm, seed, di)| {
            outcomes[di * models..(di + 1) * models]
                .iter()
                .map(move |outcome| VerifyRecord {
                    algorithm,
                    seed,
                    ..outcome.clone()
                })
        })
        .collect();

    Verification {
        records,
        original_time,
        original_steps,
    }
}

/// Total order: partition cost, then peak bus rate, then model number,
/// then algorithm name, then seed. `total_cmp` keeps the order total
/// even for NaN costs/rates, so ranking can never panic mid-request.
fn rank(points: &mut [DesignPoint]) {
    points.sort_by(|a, b| {
        a.cost
            .total
            .total_cmp(&b.cost.total)
            .then_with(|| a.max_bus_rate.total_cmp(&b.max_bus_rate))
            .then_with(|| a.model.number().cmp(&b.model.number()))
            .then_with(|| a.algorithm.cmp(b.algorithm))
            .then_with(|| a.seed.cmp(&b.seed))
    });
}

/// Flags points not dominated by any other over
/// `(cost.total, max_bus_rate)`, both minimized. `a` dominates `b` when
/// it is no worse on both axes and strictly better on at least one.
fn mark_pareto(points: &mut [DesignPoint]) {
    let metrics: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.cost.total, p.max_bus_rate))
        .collect();
    for i in 0..points.len() {
        let (ci, ri) = metrics[i];
        let dominated = metrics
            .iter()
            .enumerate()
            .any(|(j, &(cj, rj))| j != i && cj <= ci && rj <= ri && (cj < ci || rj < ri));
        points[i].pareto = !dominated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_workloads::{medical_allocation, medical_spec};

    fn small_expl() -> ExploreConfig {
        ExploreConfig {
            seeds: 1,
            anneal_iterations: 40,
            migration_passes: 2,
            threads: Some(2),
        }
    }

    fn explore(spec: &Spec, graph: &AccessGraph, expl: &ExploreConfig) -> Exploration {
        explore_designs_impl(
            spec,
            graph,
            &medical_allocation(),
            &CostConfig::default(),
            expl,
            None,
            None,
        )
        .expect("exploration succeeds")
    }

    #[test]
    fn explores_medical_design_space() {
        let spec = medical_spec();
        let graph = AccessGraph::derive(&spec);
        let out = explore(&spec, &graph, &small_expl());
        // (2 seeded jobs × 1 seed + 3 singleton jobs) × 4 models.
        assert_eq!(out.points.len(), 5 * 4);
        // Ranked by cost then rate.
        for w in out.points.windows(2) {
            assert!((w[0].cost.total, w[0].max_bus_rate) <= (w[1].cost.total, w[1].max_bus_rate));
        }
        // The frontier is non-empty and its members are flagged.
        let front = out.pareto_front();
        assert!(!front.is_empty());
        // The overall best-cost point is always on the frontier... unless
        // an equal-cost point with a lower rate exists; either way the
        // first-ranked point's cost is not beaten by any frontier member.
        assert!(front
            .iter()
            .all(|p| p.cost.total >= out.points[0].cost.total));
    }

    #[test]
    fn exploration_is_deterministic_across_thread_counts() {
        let spec = medical_spec();
        let graph = AccessGraph::derive(&spec);
        let a = explore(
            &spec,
            &graph,
            &ExploreConfig {
                threads: Some(1),
                ..small_expl()
            },
        );
        let b = explore(
            &spec,
            &graph,
            &ExploreConfig {
                threads: Some(8),
                ..small_expl()
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn verify_pareto_confirms_front_equivalence() {
        let spec = medical_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = medical_allocation();
        let out = explore(&spec, &graph, &small_expl());
        let v = verify_pareto_impl(
            &spec,
            &graph,
            &alloc,
            &out,
            Some(2),
            None,
            SimKernel::default(),
            false,
            &SourceMap::default(),
            None,
        );
        // One record per distinct front candidate × 4 models.
        let distinct: std::collections::BTreeSet<(&str, u64)> = out
            .pareto_front()
            .iter()
            .map(|p| (p.algorithm, p.seed))
            .collect();
        assert_eq!(v.records.len(), distinct.len() * 4);
        assert!(
            v.all_equivalent(),
            "front refinements must simulate equivalent: {:?}",
            v.records
                .iter()
                .filter(|r| !r.equivalent)
                .collect::<Vec<_>>()
        );
        assert_eq!(v.failures(), 0);
        // Refinement introduces bus-protocol signal traffic.
        assert!(v.records.iter().all(|r| r.bus_traffic > 0));
        assert!(v.original_steps > 0);
    }

    #[test]
    fn pareto_dominance_is_strict() {
        // Hand-built points: (cost, rate) = (1, 5), (2, 3), (3, 4).
        // (3, 4) is dominated by (2, 3); the others are optimal.
        let mk = |cost: f64, rate: f64| DesignPoint {
            algorithm: "x",
            seed: 0,
            model: ImplModel::Model1,
            cost: CostReport {
                cut_bits: 0.0,
                imbalance_ns: 0.0,
                violation: 0.0,
                total: cost,
            },
            max_bus_rate: rate,
            bus_count: 1,
            pareto: false,
            partition: Partition::new(),
        };
        let mut pts = vec![mk(1.0, 5.0), mk(2.0, 3.0), mk(3.0, 4.0)];
        mark_pareto(&mut pts);
        assert!(pts[0].pareto);
        assert!(pts[1].pareto);
        assert!(!pts[2].pareto);
    }
}
