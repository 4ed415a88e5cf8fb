//! Simulated annealing over single-object moves.
//!
//! A probabilistic complement to [`GroupMigration`]: random moves are
//! accepted when they improve cost, and with probability
//! `exp(-delta / T)` otherwise; `T` follows a geometric cooling schedule.
//! Useful when greedy seeds get stuck in local minima on larger specs.
//!
//! [`GroupMigration`]: super::GroupMigration

use modref_estimate::LifetimeTable;
use modref_rng::Rng;

use modref_graph::AccessGraph;
use modref_spec::Spec;

use crate::assignment::Partition;
use crate::cache::CostCache;
use crate::component::Allocation;
use crate::cost::CostConfig;

use super::{Partitioner, RandomPartitioner};

/// Simulated annealing partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    seed: u64,
    iterations: u32,
    /// Initial temperature (in cost units).
    pub initial_temp: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
}

impl SimulatedAnnealing {
    /// Creates an annealer with default temperature schedule.
    pub fn new(seed: u64, iterations: u32) -> Self {
        Self {
            seed,
            iterations,
            initial_temp: 500.0,
            cooling: 0.98,
        }
    }
}

impl Partitioner for SimulatedAnnealing {
    fn partition_with_table(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        config: &CostConfig,
        table: &mut LifetimeTable,
    ) -> Partition {
        let moves = modref_obs::counter("anneal.moves");
        let accepts = modref_obs::counter("anneal.accepts");
        let rejects = modref_obs::counter("anneal.rejects");
        let mut rng = Rng::seed_from_u64(self.seed);
        let ids = allocation.ids();
        let part = RandomPartitioner::new(self.seed).partition(spec, graph, allocation, config);
        let leaves = spec.leaves();
        let vars: Vec<_> = spec.variables().map(|(v, _)| v).collect();
        if ids.len() < 2 || (leaves.is_empty() && vars.is_empty()) {
            return part;
        }

        // All moves are evaluated on the incremental cache; the best
        // visited state is materialized once at the end.
        let mut cache = CostCache::with_table(spec, graph, allocation, &part, config, table);
        let mut current = cache.total();
        let mut best = cache.to_partition();
        let mut best_cost = current;
        let mut temp = self.initial_temp;

        for _ in 0..self.iterations {
            // Pick a random object and a random different component.
            let move_behavior = !leaves.is_empty() && (vars.is_empty() || rng.gen_bool(0.5));
            let (undo, cost) = if move_behavior {
                let b = leaves[rng.gen_range(0..leaves.len())];
                let old = cache.component_of_leaf(b);
                let new = ids[rng.gen_range(0..ids.len())];
                (Undo::Behavior(b, old), cache.move_leaf(b, new))
            } else {
                let v = vars[rng.gen_range(0..vars.len())];
                let old = cache.component_of_var(v);
                let new = ids[rng.gen_range(0..ids.len())];
                (Undo::Var(v, old), cache.move_var(v, new))
            };

            moves.inc();
            let delta = cost - current;
            let accept = delta <= 0.0 || rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0));
            if accept {
                accepts.inc();
                current = cost;
                if cost < best_cost {
                    best_cost = cost;
                    best = cache.to_partition();
                }
            } else {
                rejects.inc();
                match undo {
                    Undo::Behavior(b, old) => cache.move_leaf(b, old),
                    Undo::Var(v, old) => cache.move_var(v, old),
                };
            }
            temp = (temp * self.cooling).max(1e-3);
        }

        best
    }

    fn name(&self) -> &'static str {
        "annealing"
    }
}

enum Undo {
    Behavior(modref_spec::BehaviorId, crate::component::ComponentId),
    Var(modref_spec::VarId, crate::component::ComponentId),
}

#[cfg(test)]
mod tests {
    use super::super::testutil::clustered_spec;
    use super::*;
    use crate::cost::partition_cost;

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let cfg = CostConfig::default();
        let a = SimulatedAnnealing::new(9, 100).partition(&spec, &graph, &alloc, &cfg);
        let b = SimulatedAnnealing::new(9, 100).partition(&spec, &graph, &alloc, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn annealing_not_worse_than_its_random_seed() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let cfg = CostConfig::default();
        let seed_part = RandomPartitioner::new(9).partition(&spec, &graph, &alloc, &cfg);
        let annealed = SimulatedAnnealing::new(9, 300).partition(&spec, &graph, &alloc, &cfg);
        let c_seed = partition_cost(&spec, &graph, &alloc, &seed_part, &cfg).total;
        let c_ann = partition_cost(&spec, &graph, &alloc, &annealed, &cfg).total;
        assert!(c_ann <= c_seed);
    }

    #[test]
    fn single_component_allocation_returns_seed() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let mut alloc = Allocation::new();
        alloc.add(crate::component::Component::processor("ONLY", 0));
        let cfg = CostConfig::default();
        let part = SimulatedAnnealing::new(1, 50).partition(&spec, &graph, &alloc, &cfg);
        assert!(part.is_complete(&spec, &alloc));
    }
}
