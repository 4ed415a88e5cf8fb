//! Automatic partitioning algorithms.
//!
//! All partitioners place the spec's *leaf behaviors* and *variables* onto
//! the allocated components, minimizing [`partition_cost`]. They share the
//! [`Partitioner`] interface so experiments can swap them:
//!
//! * [`random::RandomPartitioner`] — uniform random placement (baseline,
//!   and the seed for the iterative methods).
//! * [`greedy::GreedyPartitioner`] — constructive: biggest behaviors
//!   first, each placed where it costs least; variables homed with their
//!   heaviest accessor.
//! * [`clustering::HierarchicalClustering`] — closeness-metric merging
//!   (the SpecSyn book's clustering) down to one cluster per component.
//! * [`migration::GroupMigration`] — Kernighan–Lin-style iterative
//!   improvement by single-object moves.
//! * [`annealing::SimulatedAnnealing`] — probabilistic hill-descending
//!   with a geometric cooling schedule.
//!
//! [`partition_cost`]: crate::cost::partition_cost

pub mod annealing;
pub mod clustering;
pub mod greedy;
pub mod migration;
pub mod random;

use modref_estimate::LifetimeTable;
use modref_graph::AccessGraph;
use modref_spec::Spec;

use crate::assignment::Partition;
use crate::component::Allocation;
use crate::cost::CostConfig;

/// A partitioning algorithm.
pub trait Partitioner {
    /// Produces a partition of `spec`'s leaf behaviors and variables over
    /// `allocation`'s components, taking every lifetime estimate from a
    /// caller-owned memoized [`LifetimeTable`], so repeated runs (the
    /// multi-start explorer) never re-walk a statement tree whose
    /// lifetime is already known.
    fn partition_with_table(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        config: &CostConfig,
        table: &mut LifetimeTable,
    ) -> Partition;

    /// [`Partitioner::partition_with_table`] with a fresh table for
    /// `config`'s lifetime settings.
    fn partition(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        config: &CostConfig,
    ) -> Partition {
        let mut table = LifetimeTable::new(config.lifetime);
        self.partition_with_table(spec, graph, allocation, config, &mut table)
    }

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

pub use annealing::SimulatedAnnealing;
pub use clustering::HierarchicalClustering;
pub use greedy::GreedyPartitioner;
pub use migration::GroupMigration;
pub use random::RandomPartitioner;

#[cfg(test)]
pub(crate) mod testutil {
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt, Spec};

    /// A spec with two communication clusters: (B1,B2,x,y) and (B3,B4,u,w),
    /// with a single weak cross link. Good partitioners split the clusters.
    pub fn clustered_spec() -> Spec {
        let mut b = SpecBuilder::new("clusters");
        let x = b.var_int("x", 16, 0);
        let y = b.var_int("y", 16, 0);
        let u = b.var_int("u", 16, 0);
        let w = b.var_int("w", 16, 0);
        let b1 = b.leaf(
            "B1",
            vec![
                stmt::assign(x, expr::add(expr::var(x), expr::lit(1))),
                stmt::assign(y, expr::var(x)),
                stmt::assign(x, expr::var(y)),
                stmt::assign(y, expr::add(expr::var(y), expr::var(x))),
            ],
        );
        let b2 = b.leaf(
            "B2",
            vec![
                stmt::assign(y, expr::add(expr::var(y), expr::var(x))),
                stmt::assign(x, expr::var(y)),
            ],
        );
        let b3 = b.leaf(
            "B3",
            vec![
                stmt::assign(u, expr::add(expr::var(u), expr::lit(1))),
                stmt::assign(w, expr::var(u)),
                stmt::assign(u, expr::var(w)),
            ],
        );
        let b4 = b.leaf(
            "B4",
            vec![
                stmt::assign(w, expr::add(expr::var(w), expr::var(u))),
                // weak cross-cluster link
                stmt::assign(w, expr::add(expr::var(w), expr::var(x))),
            ],
        );
        let top = b.seq_in_order("Top", vec![b1, b2, b3, b4]);
        b.finish(top).expect("valid")
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::clustered_spec;
    use super::*;
    use crate::cost::partition_cost;

    fn all_partitioners() -> Vec<Box<dyn Partitioner>> {
        vec![
            Box::new(RandomPartitioner::new(42)),
            Box::new(GreedyPartitioner::new()),
            Box::new(GroupMigration::new(8)),
            Box::new(SimulatedAnnealing::new(7, 200)),
            Box::new(HierarchicalClustering::new()),
        ]
    }

    #[test]
    fn every_partitioner_produces_complete_partitions() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let config = CostConfig::default();
        for p in all_partitioners() {
            let part = p.partition(&spec, &graph, &alloc, &config);
            assert!(
                part.is_complete(&spec, &alloc),
                "{} left objects unassigned",
                p.name()
            );
        }
    }

    #[test]
    fn iterative_methods_beat_random() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let config = CostConfig::default();
        let random = RandomPartitioner::new(3).partition(&spec, &graph, &alloc, &config);
        let migrated = GroupMigration::new(8).partition(&spec, &graph, &alloc, &config);
        let c_rand = partition_cost(&spec, &graph, &alloc, &random, &config).total;
        let c_mig = partition_cost(&spec, &graph, &alloc, &migrated, &config).total;
        assert!(c_mig <= c_rand, "migration {c_mig} vs random {c_rand}");
    }
}
