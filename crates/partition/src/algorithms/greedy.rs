//! Greedy constructive partitioning.
//!
//! Leaf behaviors are placed largest-first onto whichever component
//! minimizes the running cost; variables are then homed on the component
//! whose behaviors move the most bits to/from them (minimizing the
//! traffic that refinement will later have to carry over buses).

use modref_estimate::LifetimeTable;
use modref_graph::AccessGraph;
use modref_spec::Spec;

use crate::assignment::Partition;
use crate::cache::CostCache;
use crate::component::Allocation;
use crate::cost::{var_cross_traffic, CostConfig};

use super::Partitioner;

/// Largest-first greedy placement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyPartitioner {
    _private: (),
}

impl GreedyPartitioner {
    /// Creates a greedy partitioner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Partitioner for GreedyPartitioner {
    fn partition_with_table(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        config: &CostConfig,
        table: &mut LifetimeTable,
    ) -> Partition {
        let placements = modref_obs::counter("greedy.placements");
        let ids = allocation.ids();
        assert!(
            !ids.is_empty(),
            "allocation must have at least one component"
        );
        let mut part = Partition::with_default(ids[0]);
        if let Some(top) = spec.top_opt() {
            part.assign_behavior(top, ids[0]);
        }

        // Behaviors, largest first; trial placements are evaluated on the
        // incremental cache (unplaced leaves sit on the default component,
        // exactly as the seed partition resolves them).
        let mut cache = CostCache::with_table(spec, graph, allocation, &part, config, table);
        let mut leaves = spec.leaves();
        leaves.sort_by_key(|&b| std::cmp::Reverse(spec.behavior_size(b)));
        for leaf in leaves {
            let mut best = (ids[0], f64::INFINITY);
            for &c in &ids {
                let cost = cache.move_leaf(leaf, c);
                if cost < best.1 {
                    best = (c, cost);
                }
            }
            cache.move_leaf(leaf, best.0);
            part.assign_behavior(leaf, best.0);
            placements.inc();
        }

        // Variables: home each where its cross traffic is least.
        for (v, _) in spec.variables() {
            let best = ids
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let ta = var_cross_traffic(spec, graph, &part, v, a);
                    let tb = var_cross_traffic(spec, graph, &part, v, b);
                    ta.total_cmp(&tb)
                })
                .expect("non-empty allocation");
            part.assign_var(v, best);
        }

        part
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::clustered_spec;
    use super::*;
    use crate::cost::partition_cost;

    #[test]
    fn homes_variables_with_their_accessors() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let cfg = CostConfig::default();
        let part = GreedyPartitioner::new().partition(&spec, &graph, &alloc, &cfg);
        // x is accessed overwhelmingly by B1/B2: it must live with them.
        let x = spec.variable_by_name("x").unwrap();
        let b1 = spec.behavior_by_name("B1").unwrap();
        assert_eq!(
            part.component_of_var(&spec, x),
            part.component_of_behavior(&spec, b1)
        );
    }

    #[test]
    fn greedy_cost_not_worse_than_all_on_one_side_for_clusters() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let cfg = CostConfig::default();
        let greedy = GreedyPartitioner::new().partition(&spec, &graph, &alloc, &cfg);
        let lumped = Partition::with_default(alloc.ids()[0]);
        let cg = partition_cost(&spec, &graph, &alloc, &greedy, &cfg).total;
        let cl = partition_cost(&spec, &graph, &alloc, &lumped, &cfg).total;
        // The lumped partition has zero cut but max imbalance; greedy must
        // find something at least as good overall.
        assert!(cg <= cl * 1.01, "greedy {cg} vs lumped {cl}");
    }
}
