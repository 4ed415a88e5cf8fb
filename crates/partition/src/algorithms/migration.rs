//! Kernighan–Lin-style group migration.
//!
//! Starting from a greedy seed, repeatedly evaluate every single-object
//! move (one leaf behavior or one variable to a different component) and
//! apply the best cost-reducing one; stop after `max_passes` sweeps or
//! when no move improves. This is the "group migration" family the
//! SpecSyn literature uses for functional partitioning.
//!
//! Move evaluation runs on the incremental [`CostCache`], so a sweep over
//! `n` objects × `p` components costs `O(n·p)` delta updates instead of
//! `n·p` full [`partition_cost`] recomputes.
//!
//! [`partition_cost`]: crate::cost::partition_cost

use modref_estimate::LifetimeTable;
use modref_graph::AccessGraph;
use modref_spec::Spec;

use crate::assignment::Partition;
use crate::cache::CostCache;
use crate::component::Allocation;
use crate::cost::CostConfig;

use super::{GreedyPartitioner, Partitioner};

/// Iterative single-move improvement over a greedy seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMigration {
    max_passes: u32,
}

impl GroupMigration {
    /// Creates a group-migration partitioner limited to `max_passes`
    /// improvement sweeps.
    pub fn new(max_passes: u32) -> Self {
        Self { max_passes }
    }

    /// Improves an existing partition in place, returning the final cost.
    ///
    /// Accepted moves are recorded as explicit assignments on `part`; a
    /// run that accepts no move leaves `part` untouched.
    pub fn improve(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        part: &mut Partition,
        config: &CostConfig,
    ) -> f64 {
        let mut table = LifetimeTable::new(config.lifetime);
        self.improve_with_table(spec, graph, allocation, part, config, &mut table)
    }

    /// Like [`GroupMigration::improve`], but reusing a caller-owned
    /// memoized [`LifetimeTable`] for the cost cache it builds.
    pub fn improve_with_table(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        part: &mut Partition,
        config: &CostConfig,
        table: &mut LifetimeTable,
    ) -> f64 {
        let mut cache = CostCache::with_table(spec, graph, allocation, part, config, table);
        let current = self.improve_cached(&mut cache);
        // Mirror only the objects the cache moved, preserving the
        // partition's implicit (inherited/default) structure otherwise.
        for &leaf in cache.leaves() {
            let resolved = cache.component_of_leaf(leaf);
            if part.component_of_behavior(spec, leaf) != Some(resolved) {
                part.assign_behavior(leaf, resolved);
            }
        }
        for &v in cache.vars() {
            let resolved = cache.component_of_var(v);
            if part.component_of_var(spec, v) != Some(resolved) {
                part.assign_var(v, resolved);
            }
        }
        current
    }

    /// The sweep loop over an existing [`CostCache`]: repeatedly applies
    /// the best cost-reducing single-object move. Returns the final cost,
    /// leaving the improved state in the cache.
    pub fn improve_cached(&self, cache: &mut CostCache) -> f64 {
        let sweeps = modref_obs::counter("migration.sweeps");
        let evals = modref_obs::counter("migration.evals");
        let applied = modref_obs::counter("migration.applied");
        let leaves: Vec<_> = cache.leaves().to_vec();
        let vars: Vec<_> = cache.vars().to_vec();
        let comps = cache.component_ids();
        let mut current = cache.total();
        for _ in 0..self.max_passes {
            sweeps.inc();
            let mut sweep_evals = 0u64;
            let mut best: Option<(Move, f64)> = None;
            for &leaf in &leaves {
                let original = cache.component_of_leaf(leaf);
                for &c in &comps {
                    if c == original {
                        continue;
                    }
                    let cost = cache.move_leaf(leaf, c);
                    sweep_evals += 1;
                    if cost < best.map_or(current, |(_, c)| c) {
                        best = Some((Move::Behavior(leaf, c), cost));
                    }
                }
                cache.move_leaf(leaf, original);
            }
            for &v in &vars {
                let original = cache.component_of_var(v);
                for &c in &comps {
                    if c == original {
                        continue;
                    }
                    let cost = cache.move_var(v, c);
                    sweep_evals += 1;
                    if cost < best.map_or(current, |(_, c)| c) {
                        best = Some((Move::Var(v, c), cost));
                    }
                }
                cache.move_var(v, original);
            }
            evals.add(sweep_evals);
            match best {
                Some((mv, cost)) if cost < current => {
                    match mv {
                        Move::Behavior(b, c) => {
                            cache.move_leaf(b, c);
                        }
                        Move::Var(v, c) => {
                            cache.move_var(v, c);
                        }
                    }
                    applied.inc();
                    current = cost;
                }
                _ => break,
            }
        }
        current
    }
}

#[derive(Clone, Copy)]
enum Move {
    Behavior(modref_spec::BehaviorId, crate::component::ComponentId),
    Var(modref_spec::VarId, crate::component::ComponentId),
}

impl Partitioner for GroupMigration {
    fn partition_with_table(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        config: &CostConfig,
        table: &mut LifetimeTable,
    ) -> Partition {
        let mut part =
            GreedyPartitioner::new().partition_with_table(spec, graph, allocation, config, table);
        self.improve_with_table(spec, graph, allocation, &mut part, config, table);
        part
    }

    fn name(&self) -> &'static str {
        "group-migration"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::clustered_spec;
    use super::*;
    use crate::cost::partition_cost;

    #[test]
    fn improve_never_increases_cost() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let cfg = CostConfig::default();
        let mut part =
            super::super::RandomPartitioner::new(11).partition(&spec, &graph, &alloc, &cfg);
        let before = partition_cost(&spec, &graph, &alloc, &part, &cfg).total;
        let after = GroupMigration::new(16).improve(&spec, &graph, &alloc, &mut part, &cfg);
        assert!(after <= before);
        let recomputed = partition_cost(&spec, &graph, &alloc, &part, &cfg).total;
        assert!((after - recomputed).abs() < 1e-9);
    }

    #[test]
    fn zero_passes_is_identity() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let cfg = CostConfig::default();
        let mut part =
            super::super::RandomPartitioner::new(5).partition(&spec, &graph, &alloc, &cfg);
        let snapshot = part.clone();
        GroupMigration::new(0).improve(&spec, &graph, &alloc, &mut part, &cfg);
        assert_eq!(part, snapshot);
    }
}
