//! Hierarchical clustering partitioner — the closeness-metric approach
//! of the SpecSyn book (Gajski, Vahid, Narayan & Gong, *Specification
//! and Design of Embedded Systems*, ch. 6).
//!
//! Leaf behaviors start as singleton clusters; the pair with the highest
//! *closeness* merges, repeatedly, until the requested number of clusters
//! remains. The closeness of clusters `a` and `b` is
//! `Σ_v min(T_a(v), T_b(v))`, where `T_c(v)` is the bits per activation
//! cluster `c`'s leaves move to and from variable `v`: the traffic the
//! two could exchange through shared variables, not normalized. Ties go
//! to the first pair in cluster order. Clusters are then assigned to
//! components largest-first onto the least loaded component, and
//! variables homed with their heaviest cluster.
//!
//! The agglomeration is incremental: one traffic row per cluster and one
//! closeness matrix, built once; a merge recomputes only the merged
//! cluster's row and its closeness to every other cluster.

use modref_estimate::LifetimeTable;
use modref_graph::AccessGraph;
use modref_spec::{BehaviorId, Spec, VarId};

use crate::assignment::Partition;
use crate::component::{Allocation, ComponentId};
use crate::cost::CostConfig;

use super::Partitioner;

/// Hierarchical clustering down to one cluster per component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalClustering {
    _private: (),
}

impl HierarchicalClustering {
    /// Creates a clustering partitioner.
    pub fn new() -> Self {
        Self { _private: () }
    }

    /// Computes the merge sequence down to `target` clusters and returns
    /// the final clusters of behavior ids (exposed for inspection and
    /// tests).
    pub fn clusters(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        target: usize,
    ) -> Vec<Vec<BehaviorId>> {
        let leaves = spec.leaves();
        let vars: Vec<VarId> = spec.variables().map(|(v, _)| v).collect();
        let (n, nv) = (leaves.len(), vars.len());

        // Leaf l's traffic to variable k sits at `leaf_traffic[l * nv + k]`.
        let leaf_traffic: Vec<f64> = leaves
            .iter()
            .flat_map(|&l| vars.iter().map(move |&v| graph.traffic(l, v)))
            .collect();
        // Clusters live in slots indexed by their first leaf; a merge
        // empties the higher slot, so `alive` (ascending) is cluster
        // order. A cluster's row sums its members' rows in member order,
        // and closeness takes the lower slot's row first, so every score
        // is bit-identical to re-summing the members from scratch.
        let mut members: Vec<Vec<usize>> = (0..n).map(|l| vec![l]).collect();
        let mut rows = leaf_traffic.clone();
        let mut alive: Vec<usize> = (0..n).collect();
        let row = |s: usize| s * nv..(s + 1) * nv;
        let closeness = |rows: &[f64], a: usize, b: usize| -> f64 {
            rows[row(a)]
                .iter()
                .zip(&rows[row(b)])
                .fold(0.0, |sum, (ta, tb)| sum + ta.min(*tb))
        };
        // Upper triangle: `close[a * n + b]` for slots `a < b`.
        let mut close = vec![0.0; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                close[a * n + b] = closeness(&rows, a, b);
            }
        }

        let merges = modref_obs::counter("clustering.merges");
        while alive.len() > target.max(1) {
            let mut best: Option<(usize, usize, f64)> = None;
            for (p, &a) in alive.iter().enumerate() {
                for (q, &b) in alive.iter().enumerate().skip(p + 1) {
                    let t = close[a * n + b];
                    if best.is_none_or(|(_, _, bt)| t > bt) {
                        best = Some((p, q, t));
                    }
                }
            }
            let (p, q, _) = best.expect("at least two clusters");
            let (i, j) = (alive[p], alive.remove(q));
            let moved = std::mem::take(&mut members[j]);
            for &m in &moved {
                for (t, lt) in rows[row(i)].iter_mut().zip(&leaf_traffic[row(m)]) {
                    *t += lt;
                }
            }
            members[i].extend(moved);
            for &k in &alive {
                if k < i {
                    close[k * n + i] = closeness(&rows, k, i);
                } else if k > i {
                    close[i * n + k] = closeness(&rows, i, k);
                }
            }
            merges.inc();
        }
        alive
            .iter()
            .map(|&s| members[s].iter().map(|&l| leaves[l]).collect())
            .collect()
    }
}

impl Default for HierarchicalClustering {
    fn default() -> Self {
        Self::new()
    }
}

impl Partitioner for HierarchicalClustering {
    fn partition_with_table(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        config: &CostConfig,
        table: &mut LifetimeTable,
    ) -> Partition {
        let ids = allocation.ids();
        assert!(
            !ids.is_empty(),
            "allocation must have at least one component"
        );
        assert_eq!(
            table.config(),
            &config.lifetime,
            "LifetimeTable config must match CostConfig::lifetime"
        );
        let clusters = self.clusters(spec, graph, ids.len());

        // Estimate each cluster's load and place largest-first onto the
        // least-loaded component (weighted by the component's speed).
        let unit = modref_estimate::TimingModel::unit();
        let mut cluster_loads: Vec<(usize, f64)> = clusters
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let load: f64 = c.iter().map(|&l| table.get(spec, l, &unit)).sum();
                (i, load)
            })
            .collect();
        cluster_loads.sort_by(|a, b| b.1.total_cmp(&a.1));

        let mut part = Partition::with_default(ids[0]);
        if let Some(top) = spec.top_opt() {
            part.assign_behavior(top, ids[0]);
        }
        let mut comp_load: Vec<f64> = vec![0.0; ids.len()];
        for (ci, load) in cluster_loads {
            let (slot, _) = comp_load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty");
            for &leaf in &clusters[ci] {
                part.assign_behavior(leaf, ids[slot]);
            }
            comp_load[slot] += load;
        }

        // Home each variable on the component with the most traffic to it
        // (the last such component on a tie).
        for (v, _) in spec.variables() {
            let traffic = var_component_traffic(spec, graph, &part, &ids, v);
            let (best, _) = traffic
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty allocation");
            part.assign_var(v, ids[best]);
        }
        part
    }

    fn name(&self) -> &'static str {
        "clustering"
    }
}

/// The traffic to `v` from each component in `ids` (same order), in one
/// pass over `v`'s accessors.
fn var_component_traffic(
    spec: &Spec,
    graph: &AccessGraph,
    part: &Partition,
    ids: &[ComponentId],
    v: VarId,
) -> Vec<f64> {
    let mut by_comp = vec![0.0; ids.len()];
    for b in graph.behaviors_accessing(v) {
        let slot = part
            .component_of_behavior(spec, b)
            .and_then(|c| ids.iter().position(|&id| id == c));
        if let Some(slot) = slot {
            by_comp[slot] += graph.traffic(b, v);
        }
    }
    by_comp
}

#[cfg(test)]
mod tests {
    use super::super::testutil::clustered_spec;
    use super::*;
    use crate::cost::partition_cost;

    #[test]
    fn clustering_finds_the_two_communication_clusters() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let hc = HierarchicalClustering::new();
        let clusters = hc.clusters(&spec, &graph, 2);
        assert_eq!(clusters.len(), 2);
        // B1+B2 share x/y heavily; B3+B4 share u/w: each pair must end
        // up together.
        let names = |c: &Vec<BehaviorId>| -> Vec<String> {
            let mut v: Vec<String> = c
                .iter()
                .map(|&b| spec.behavior(b).name().to_string())
                .collect();
            v.sort();
            v
        };
        let mut groups: Vec<Vec<String>> = clusters.iter().map(names).collect();
        groups.sort();
        assert_eq!(
            groups,
            vec![
                vec!["B1".to_string(), "B2".to_string()],
                vec!["B3".to_string(), "B4".to_string()]
            ]
        );
    }

    #[test]
    fn produces_complete_low_cut_partitions() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let cfg = CostConfig::default();
        let part = HierarchicalClustering::new().partition(&spec, &graph, &alloc, &cfg);
        assert!(part.is_complete(&spec, &alloc));
        let cost = partition_cost(&spec, &graph, &alloc, &part, &cfg);
        // Only the single weak cross link (B4 reads x) can be cut.
        assert!(cost.cut_bits <= 64.0, "cut = {}", cost.cut_bits);
    }

    #[test]
    fn single_cluster_when_target_is_one() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let clusters = HierarchicalClustering::new().clusters(&spec, &graph, 1);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), spec.leaves().len());
    }
}
