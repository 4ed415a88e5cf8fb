//! Uniform random placement — the baseline partitioner and the seed for
//! the iterative improvers.

use modref_rng::Rng;

use modref_estimate::LifetimeTable;
use modref_graph::AccessGraph;
use modref_spec::Spec;

use crate::assignment::Partition;
use crate::component::Allocation;
use crate::cost::CostConfig;

use super::Partitioner;

/// Places every leaf behavior and variable on a uniformly random
/// component. Deterministic for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomPartitioner {
    seed: u64,
}

impl RandomPartitioner {
    /// Creates a random partitioner with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Partitioner for RandomPartitioner {
    fn partition_with_table(
        &self,
        spec: &Spec,
        _graph: &AccessGraph,
        allocation: &Allocation,
        _config: &CostConfig,
        _table: &mut LifetimeTable,
    ) -> Partition {
        let mut rng = Rng::seed_from_u64(self.seed);
        let ids = allocation.ids();
        let mut part = Partition::new();
        assert!(
            !ids.is_empty(),
            "allocation must have at least one component"
        );
        for leaf in spec.leaves() {
            part.assign_behavior(leaf, ids[rng.gen_range(0..ids.len())]);
        }
        for (v, _) in spec.variables() {
            part.assign_var(v, ids[rng.gen_range(0..ids.len())]);
        }
        // Composites stay with the first component so control refinement
        // has a definite home for the hierarchy skeleton.
        if let Some(top) = spec.top_opt() {
            part.assign_behavior(top, ids[0]);
        }
        part
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::clustered_spec;
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let cfg = CostConfig::default();
        let a = RandomPartitioner::new(1).partition(&spec, &graph, &alloc, &cfg);
        let b = RandomPartitioner::new(1).partition(&spec, &graph, &alloc, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let cfg = CostConfig::default();
        let a = RandomPartitioner::new(1).partition(&spec, &graph, &alloc, &cfg);
        let b = RandomPartitioner::new(2).partition(&spec, &graph, &alloc, &cfg);
        // Not guaranteed in general, but true for these seeds and fixture.
        assert_ne!(a, b);
    }
}
