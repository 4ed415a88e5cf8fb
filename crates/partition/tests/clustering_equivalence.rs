//! Equivalence: the incremental [`HierarchicalClustering`] agrees
//! bit for bit with the original from-scratch merge loop.
//!
//! The reference below is that loop as it was: every merge re-scores
//! every cluster pair, each score re-summing every member's traffic to
//! every variable (O(n³·V) traffic lookups per design). It survives only
//! here. For targets 1, 2 and 3 the final clusters, the
//! `partition_with_table` output and the clustering candidate of
//! `explore` must all be identical to the reference's, on the paper's
//! workloads, the partitioners' two-cluster unit-test spec and seeded `SynthSpec`s — 8–24
//! leaves in every build, plus 64-leaf designs in release builds:
//!
//! ```text
//! cargo test -p modref-partition --release --test clustering_equivalence
//! ```

use std::collections::HashMap;

use modref_estimate::{LifetimeTable, TimingModel};
use modref_graph::AccessGraph;
use modref_partition::algorithms::{HierarchicalClustering, Partitioner};
use modref_partition::explore::{explore, Candidate, ExploreConfig};
use modref_partition::{partition_cost, Allocation, Component, ComponentId, CostConfig, Partition};
use modref_spec::builder::SpecBuilder;
use modref_spec::{expr, stmt, BehaviorId, Spec, VarId};
use modref_workloads::{fig2_spec, medical_spec, SynthConfig, SynthSpec};

/// The original merge loop: all pairs re-scored from scratch per merge.
fn reference_clusters(spec: &Spec, graph: &AccessGraph, target: usize) -> Vec<Vec<BehaviorId>> {
    let mut clusters: Vec<Vec<BehaviorId>> = spec.leaves().into_iter().map(|l| vec![l]).collect();
    if clusters.is_empty() {
        return clusters;
    }
    let traffic = |a: &[BehaviorId], b: &[BehaviorId]| -> f64 {
        let mut sum = 0.0;
        for (v, _) in spec.variables() {
            let side = |cluster: &[BehaviorId]| -> f64 {
                cluster.iter().map(|&l| graph.traffic(l, v)).sum()
            };
            let ta = side(a);
            let tb = side(b);
            sum += ta.min(tb);
        }
        sum
    };
    while clusters.len() > target.max(1) {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let t = traffic(&clusters[i], &clusters[j]);
                if best.is_none_or(|(_, _, bt)| t > bt) {
                    best = Some((i, j, t));
                }
            }
        }
        let (i, j, _) = best.expect("at least two clusters");
        let merged = clusters.remove(j);
        clusters[i].extend(merged);
    }
    clusters
}

/// The original placement of `clusters` and variable homing.
fn reference_partition(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    config: &CostConfig,
    clusters: &[Vec<BehaviorId>],
) -> Partition {
    let ids = allocation.ids();
    let mut table = LifetimeTable::new(config.lifetime);
    let unit = TimingModel::unit();
    let mut cluster_loads: Vec<(usize, f64)> = clusters
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let load: f64 = c.iter().map(|&l| table.get(spec, l, &unit)).sum();
            (i, load)
        })
        .collect();
    cluster_loads.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("loads are finite"));

    let mut part = Partition::with_default(ids[0]);
    if let Some(top) = spec.top_opt() {
        part.assign_behavior(top, ids[0]);
    }
    let mut comp_load: Vec<f64> = vec![0.0; ids.len()];
    for (ci, load) in cluster_loads {
        let (slot, _) = comp_load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty");
        for &leaf in &clusters[ci] {
            part.assign_behavior(leaf, ids[slot]);
        }
        comp_load[slot] += load;
    }

    let component_traffic = |part: &Partition, v: VarId, component: ComponentId| -> f64 {
        let mut by_comp: HashMap<_, f64> = HashMap::new();
        for b in graph.behaviors_accessing(v) {
            if let Some(c) = part.component_of_behavior(spec, b) {
                *by_comp.entry(c).or_insert(0.0) += graph.traffic(b, v);
            }
        }
        by_comp.get(&component).copied().unwrap_or(0.0)
    };
    for (v, _) in spec.variables() {
        let best = ids
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let t = |c| component_traffic(&part, v, c);
                t(a).partial_cmp(&t(b)).expect("finite")
            })
            .expect("non-empty allocation");
        part.assign_var(v, best);
    }
    part
}

/// A processor plus `asics` ASICs.
fn allocation(asics: usize) -> Allocation {
    let mut a = Allocation::new();
    a.add(Component::processor("PROC", 64 * 1024));
    for i in 0..asics {
        a.add(Component::asic(format!("ASIC{i}"), 10_000, 75));
    }
    a
}

/// The partitioners' unit-test spec: two communication clusters,
/// (B1,B2,x,y) and (B3,B4,u,w), with a single weak cross link.
fn clustered_spec() -> Spec {
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

/// The specs under test: named workloads, the toy spec, and seeded
/// `SynthSpec`s of 8–24 leaves (plus 64 leaves in release builds).
fn specs() -> Vec<(String, Spec)> {
    let mut out = vec![
        ("medical".to_string(), medical_spec()),
        ("fig2".to_string(), fig2_spec()),
        ("clustered".to_string(), clustered_spec()),
    ];
    let mut synth = |seed: u64, leaves: usize, vars: usize| {
        let config = SynthConfig {
            leaves,
            vars,
            stmts_per_leaf: 6,
            fanout: 3,
            loop_percent: 30,
        };
        let spec = SynthSpec::generate(seed, &config).spec;
        out.push((format!("synth{leaves}_v{vars}_s{seed}"), spec));
    };
    for seed in 0..16u64 {
        let leaves = 8 + (seed as usize % 5) * 4;
        synth(seed, leaves, 4 + (seed as usize * 3) % 13);
    }
    if !cfg!(debug_assertions) {
        for seed in 0..4u64 {
            synth(seed, 64, 64);
        }
    }
    out
}

#[test]
fn incremental_clustering_matches_the_reference_loop() {
    let config = CostConfig::default();
    let expl = ExploreConfig {
        seeds: 1,
        anneal_iterations: 40,
        migration_passes: 2,
        threads: Some(1),
    };
    let hc = HierarchicalClustering::new();
    for (name, spec) in specs() {
        let graph = AccessGraph::derive(&spec);
        for target in 1..=3 {
            let expected = reference_clusters(&spec, &graph, target);
            assert_eq!(
                hc.clusters(&spec, &graph, target),
                expected,
                "{name}: clusters for target {target}"
            );

            let alloc = allocation(target - 1);
            let expected_part = reference_partition(&spec, &graph, &alloc, &config, &expected);
            let mut table = LifetimeTable::new(config.lifetime);
            let part = hc.partition_with_table(&spec, &graph, &alloc, &config, &mut table);
            assert_eq!(
                part, expected_part,
                "{name}: partition on {target} components"
            );

            // No other job reads the clustering result, so with the
            // clustering candidate identical (and thus ranked in the same
            // place) the whole candidate list is identical.
            let candidates = explore(&spec, &graph, &alloc, &config, &expl);
            let clustering: Vec<&Candidate> = candidates
                .iter()
                .filter(|c| c.algorithm == "clustering")
                .collect();
            let expected_candidate = Candidate {
                algorithm: "clustering",
                seed: 0,
                cost: partition_cost(&spec, &graph, &alloc, &expected_part, &config),
                partition: expected_part,
            };
            assert_eq!(
                clustering,
                vec![&expected_candidate],
                "{name}: explore candidate on {target} components"
            );
        }
    }
}
