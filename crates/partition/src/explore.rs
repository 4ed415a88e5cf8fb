//! Parallel multi-start partition exploration.
//!
//! Iterative partitioners are cheap per run once move evaluation is
//! incremental ([`CostCache`]), so the best design is found by running
//! *many* of them — K random seeds × {annealing, migration-from-random}
//! plus the deterministic constructive methods — and keeping the ranked
//! results. [`explore`] fans the runs out over [`par_map`], a
//! dependency-free scoped-thread work-stealing map.
//!
//! Determinism: every job derives its state solely from its own seed, and
//! results are merged by job index then ranked with a total order
//! `(cost, algorithm, seed)` — so the output is identical regardless of
//! thread count or scheduling. Thread count resolves from (in order) the
//! explicit config value, `MODREF_THREADS`, then
//! [`std::thread::available_parallelism`].
//!
//! [`CostCache`]: crate::cache::CostCache

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use modref_estimate::{LifetimeTable, TimingModel};
use modref_graph::AccessGraph;
use modref_spec::Spec;

use crate::algorithms::{
    GreedyPartitioner, GroupMigration, HierarchicalClustering, Partitioner, RandomPartitioner,
    SimulatedAnnealing,
};
use crate::assignment::Partition;
use crate::cache::CostCache;
use crate::component::Allocation;
use crate::cost::{partition_cost, CostConfig, CostReport};

/// Tuning for a multi-start exploration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Number of random starting seeds (K). Each seed spawns one
    /// annealing run and one migration-from-random run.
    pub seeds: u64,
    /// Iteration budget per annealing run.
    pub anneal_iterations: u32,
    /// Sweep budget per migration run.
    pub migration_passes: u32,
    /// Worker threads; `None` resolves via [`thread_count`].
    pub threads: Option<usize>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            seeds: 4,
            anneal_iterations: 400,
            migration_passes: 8,
            threads: None,
        }
    }
}

/// One explored design candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Which algorithm produced it.
    pub algorithm: &'static str,
    /// The seed that drove it (0 for deterministic algorithms).
    pub seed: u64,
    /// Full cost breakdown of the resulting partition.
    pub cost: CostReport,
    /// The partition itself.
    pub partition: Partition,
}

/// Resolves the worker-thread count: `explicit`, else `MODREF_THREADS`,
/// else the machine's available parallelism, floored at 1.
pub fn thread_count(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Some(n) = std::env::var("MODREF_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on a pool of `threads` scoped threads and
/// returns the results in input order. Work is distributed by an atomic
/// claim counter, so the mapping order is nondeterministic but the output
/// order (and, for pure `f`, content) is not.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            std::thread::Builder::new()
                .stack_size(modref_spec::parser::THREAD_STACK)
                .spawn_scoped(scope, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("slot lock")
                        .take()
                        .expect("each slot is claimed once");
                    let r = f(i, item);
                    *results[i].lock().expect("result lock") = Some(r);
                })
                .expect("spawn an exploration thread");
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock")
                .expect("every job completed")
        })
        .collect()
}

/// One unit of exploration work.
#[derive(Debug, Clone, Copy)]
enum Job {
    Anneal { seed: u64, iterations: u32 },
    MigrateFromRandom { seed: u64, passes: u32 },
    Greedy,
    Clustering,
    MigrateFromGreedy { passes: u32 },
}

/// The `(algorithm, seed)` a job reports under.
fn job_meta(job: &Job) -> (&'static str, u64) {
    match job {
        Job::Anneal { seed, .. } => ("annealing", *seed),
        Job::MigrateFromRandom { seed, .. } => ("migration", *seed),
        Job::Greedy => ("greedy", 0),
        Job::Clustering => ("clustering", 0),
        Job::MigrateFromGreedy { .. } => ("greedy+migration", 0),
    }
}

/// Builds a [`LifetimeTable`] pre-warmed with every leaf lifetime the
/// jobs will ask for (all component timing models plus the unit model
/// clustering balances with). Each job clones this table, so within a
/// job every lifetime lookup is a cache hit, and the per-job state is
/// identical regardless of thread count or scheduling.
fn warm_lifetimes(spec: &Spec, allocation: &Allocation, config: &CostConfig) -> LifetimeTable {
    let _span = modref_obs::span("explore.warm_lifetimes");
    let mut table = LifetimeTable::new(config.lifetime);
    let models: Vec<TimingModel> = allocation.iter().map(|(_, c)| c.timing_model()).collect();
    let unit = TimingModel::unit();
    for leaf in spec.leaves() {
        for m in &models {
            table.get(spec, leaf, m);
        }
        table.get(spec, leaf, &unit);
    }
    table
}

/// Runs the multi-start exploration and returns candidates ranked by
/// `(cost, algorithm, seed)` — deterministic for fixed seeds regardless
/// of thread count.
pub fn explore(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    config: &CostConfig,
    expl: &ExploreConfig,
) -> Vec<Candidate> {
    explore_with_observer(spec, graph, allocation, config, expl, None, None)
}

/// [`explore`] with a cooperative stop check and a completion observer.
///
/// `should_stop` is consulted before each job (one annealing or
/// migration run per seed, plus the constructive singletons), and jobs
/// that start after it returns `true` are skipped. The candidates of
/// jobs that already finished are still ranked and returned, so a
/// cancelled exploration yields a truthful partial result; callers that
/// must treat cancellation as failure check their own token after the
/// call.
///
/// `on_job_done` is called once per *finished* job (skipped jobs do not
/// report) with the running count of completed jobs and the total job
/// count. The observer runs on worker threads, so it must be cheap and
/// `Sync`; candidate ranking and output are unaffected.
pub fn explore_with_observer(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    config: &CostConfig,
    expl: &ExploreConfig,
    should_stop: Option<&(dyn Fn() -> bool + Sync)>,
    on_job_done: Option<&(dyn Fn(u64, u64) + Sync)>,
) -> Vec<Candidate> {
    let mut jobs = Vec::new();
    for seed in 0..expl.seeds {
        jobs.push(Job::Anneal {
            seed,
            iterations: expl.anneal_iterations,
        });
        jobs.push(Job::MigrateFromRandom {
            seed,
            passes: expl.migration_passes,
        });
    }
    jobs.push(Job::Greedy);
    jobs.push(Job::Clustering);
    jobs.push(Job::MigrateFromGreedy {
        passes: expl.migration_passes,
    });

    let threads = thread_count(expl.threads);
    let span = modref_obs::span("explore")
        .attr("seeds", expl.seeds)
        .attr("jobs", jobs.len())
        .attr("threads", threads);
    let span_id = span.id();
    modref_obs::gauge("explore.threads").set(threads as f64);
    let job_ns = modref_obs::histogram("explore.job_ns");

    let warm = warm_lifetimes(spec, allocation, config);
    let job_total = jobs.len() as u64;
    let jobs_done = std::sync::atomic::AtomicU64::new(0);
    let mut candidates: Vec<Candidate> = par_map(jobs, threads, |_, job| {
        if should_stop.is_some_and(|stop| stop()) {
            return None;
        }
        let (algorithm, seed) = job_meta(&job);
        let job_span = modref_obs::span_under(span_id, "explore.job")
            .attr("algorithm", algorithm)
            .attr("seed", seed);
        let mut table = warm.clone();
        let candidate = run_job(spec, graph, allocation, config, job, &mut table);
        job_ns.record(job_span.elapsed_ns());
        if let Some(observer) = on_job_done {
            let done = jobs_done.fetch_add(1, Ordering::Relaxed) + 1;
            observer(done, job_total);
        }
        Some(candidate)
    })
    .into_iter()
    .flatten()
    .collect();
    rank(&mut candidates);
    modref_obs::gauge("explore.candidates").set(candidates.len() as f64);
    candidates
}

fn run_job(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    config: &CostConfig,
    job: Job,
    table: &mut LifetimeTable,
) -> Candidate {
    let (algorithm, seed) = job_meta(&job);
    let partition =
        match job {
            Job::Anneal { seed, iterations } => SimulatedAnnealing::new(seed, iterations)
                .partition_with_table(spec, graph, allocation, config, table),
            Job::MigrateFromRandom { seed, passes } => {
                let mut p = RandomPartitioner::new(seed).partition(spec, graph, allocation, config);
                GroupMigration::new(passes)
                    .improve_with_table(spec, graph, allocation, &mut p, config, table);
                p
            }
            Job::Greedy => GreedyPartitioner::new()
                .partition_with_table(spec, graph, allocation, config, table),
            Job::Clustering => HierarchicalClustering::new()
                .partition_with_table(spec, graph, allocation, config, table),
            Job::MigrateFromGreedy { passes } => GroupMigration::new(passes)
                .partition_with_table(spec, graph, allocation, config, table),
        };
    // One cache build doubles as the final (exact) cost evaluation.
    let cost = CostCache::with_table(spec, graph, allocation, &partition, config, table).report();
    debug_assert_eq!(
        cost,
        partition_cost(spec, graph, allocation, &partition, config)
    );
    Candidate {
        algorithm,
        seed,
        cost,
        partition,
    }
}

/// Sorts candidates by a total order: cost, then algorithm name, then
/// seed. `total_cmp` keeps the order total even if a cost model ever
/// produces a NaN, so ranking can never panic on a request path.
fn rank(candidates: &mut [Candidate]) {
    candidates.sort_by(|a, b| {
        a.cost
            .total
            .total_cmp(&b.cost.total)
            .then_with(|| a.algorithm.cmp(b.algorithm))
            .then_with(|| a.seed.cmp(&b.seed))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::clustered_spec;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 7] {
            let out = par_map((0..50u64).collect(), threads, |i, x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, (0..50u64).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(empty, 4, |_, x: u32| x).is_empty());
        assert_eq!(par_map(vec![9u32], 4, |_, x| x + 1), vec![10]);
    }

    #[test]
    fn explore_is_deterministic_across_thread_counts() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let config = CostConfig::default();
        let expl = ExploreConfig {
            seeds: 3,
            anneal_iterations: 80,
            migration_passes: 4,
            threads: Some(1),
        };
        let single = explore(&spec, &graph, &alloc, &config, &expl);
        let multi = explore(
            &spec,
            &graph,
            &alloc,
            &config,
            &ExploreConfig {
                threads: Some(4),
                ..expl
            },
        );
        assert_eq!(single, multi);
        // Ranked: totals ascend.
        for w in single.windows(2) {
            assert!(w[0].cost.total <= w[1].cost.total);
        }
    }

    #[test]
    fn explore_covers_all_algorithms() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let config = CostConfig::default();
        let expl = ExploreConfig {
            seeds: 2,
            anneal_iterations: 50,
            migration_passes: 2,
            threads: Some(2),
        };
        let out = explore(&spec, &graph, &alloc, &config, &expl);
        assert_eq!(out.len(), 2 * 2 + 3);
        for name in [
            "annealing",
            "migration",
            "greedy",
            "clustering",
            "greedy+migration",
        ] {
            assert!(
                out.iter().any(|c| c.algorithm == name),
                "missing {name} in results"
            );
        }
        for c in &out {
            assert!(c.partition.is_complete(&spec, &alloc), "{}", c.algorithm);
        }
    }

    #[test]
    fn cancelled_explore_skips_pending_jobs_but_keeps_finished_ones() {
        use std::sync::atomic::AtomicBool;
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let config = CostConfig::default();
        let expl = ExploreConfig {
            seeds: 4,
            anneal_iterations: 30,
            migration_passes: 2,
            threads: Some(1),
        };
        // Already-stopped token: every job is skipped.
        let stopped = AtomicBool::new(true);
        let stop = || stopped.load(Ordering::Relaxed);
        let none = explore_with_observer(&spec, &graph, &alloc, &config, &expl, Some(&stop), None);
        assert!(none.is_empty());
        // Never-stopped token: identical to the plain entry point.
        let live = AtomicBool::new(false);
        let stop = || live.load(Ordering::Relaxed);
        let all = explore_with_observer(&spec, &graph, &alloc, &config, &expl, Some(&stop), None);
        assert_eq!(all, explore(&spec, &graph, &alloc, &config, &expl));
    }

    #[test]
    fn thread_count_floors_at_one() {
        assert_eq!(thread_count(Some(0)), 1);
        assert_eq!(thread_count(Some(3)), 3);
        assert!(thread_count(None) >= 1);
    }
}
