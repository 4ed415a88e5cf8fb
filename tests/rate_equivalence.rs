//! Rate-path equivalence: the Figure 9 tables of the shared rate path
//! (one placement per candidate, one bus assignment per model, lifetimes
//! from one memoized table), through `figure9_rates`, `figure9_row` and
//! exploration alike, equal, bit for bit, the tables built the
//! long way — the refinement plan's channel-to-bus map summed over
//! unmemoized channel rates — for every explored candidate under every
//! model, on the paper's workloads and generated designs, under two- and
//! three-component allocations.

use modref::core::api::{Codesign, ExploreOpts};
use modref::core::plan::Placement;
use modref::core::{bus_name, figure9_rates, figure9_row, ImplModel, RefinePlan};
use modref::estimate::{channel_rate, BusRateTable, LifetimeConfig};
use modref::graph::AccessGraph;
use modref::partition::explore::{explore, ExploreConfig};
use modref::partition::{Allocation, Component, CostConfig, Partition};
use modref::spec::builder::SpecBuilder;
use modref::spec::{expr, stmt, Spec};
use modref::workloads::{fig2_spec, medical_spec, SynthConfig, SynthSpec};

/// The allocations under test, with the partition text that declares
/// each one to the facade.
fn allocations() -> Vec<(Allocation, &'static str)> {
    let mut three = Allocation::proc_plus_asic();
    three.add(Component::asic("DSP", 20000, 75));
    vec![
        (
            Allocation::proc_plus_asic(),
            "component PROC processor 65536\ncomponent ASIC asic 10000 75\ndefault PROC\n",
        ),
        (
            three,
            "component PROC processor 65536\ncomponent ASIC asic 10000 75\n\
             component DSP asic 20000 75\ndefault PROC\n",
        ),
    ]
}

/// The medical system, Figure 2 and sixteen generated designs.
fn designs() -> Vec<(String, Spec)> {
    let mut out = vec![
        ("medical".to_string(), medical_spec()),
        ("fig2".to_string(), fig2_spec()),
    ];
    for seed in 0..16u64 {
        let config = SynthConfig {
            leaves: 4 + (seed as usize % 5),
            vars: 3 + (seed as usize % 4),
            stmts_per_leaf: 2 + (seed as usize % 3),
            fanout: 2 + (seed as usize % 2),
            loop_percent: 30,
        };
        out.push((
            format!("synth{seed}"),
            SynthSpec::generate(seed, &config).spec,
        ));
    }
    out
}

fn small_explore() -> ExploreConfig {
    ExploreConfig {
        seeds: 2,
        anneal_iterations: 60,
        migration_passes: 2,
        threads: Some(1),
    }
}

/// The partitions checked per design and allocation: the explored
/// candidates, plus one that assigns only leaves and variables (round
/// robin, no default), so composites reading guard variables run on no
/// component at all.
fn partitions(spec: &Spec, graph: &AccessGraph, alloc: &Allocation) -> Vec<Partition> {
    let mut parts: Vec<Partition> =
        explore(spec, graph, alloc, &CostConfig::default(), &small_explore())
            .into_iter()
            .map(|c| c.partition)
            .collect();
    let ids = alloc.ids();
    let mut leaf_only = Partition::new();
    for (i, leaf) in spec.leaves().into_iter().enumerate() {
        leaf_only.assign_behavior(leaf, ids[i % ids.len()]);
    }
    for (v, _) in spec.variables() {
        leaf_only.assign_var(v, ids[v.index() % ids.len()]);
    }
    parts.push(leaf_only);
    parts
}

/// The table the long way: the plan's channel-to-bus map, every planned
/// bus touched first, then each channel's unmemoized rate added to each
/// bus carrying it, in data-channel order.
fn reference(
    spec: &Spec,
    graph: &AccessGraph,
    alloc: &Allocation,
    part: &Partition,
    model: ImplModel,
) -> BusRateTable {
    let config = LifetimeConfig::default();
    let plan = RefinePlan::build(spec, graph, alloc, part, model).expect("plan");
    let channel_buses = plan.channel_buses(spec, graph, part);
    let model_of = |b| {
        part.component_of_behavior(spec, b)
            .map(|c| alloc.component(c).timing_model())
            .unwrap_or_default()
    };
    let mut table = BusRateTable::new();
    for bus in 0..plan.buses().len() {
        table.touch(bus_name(bus));
    }
    for ch in graph.data_channels() {
        let Some(buses) = channel_buses.get(&ch.id()) else {
            continue;
        };
        let rate = channel_rate(spec, ch, &model_of, &config);
        for &bus in buses {
            table.add(bus_name(bus), rate);
        }
    }
    table
}

/// A table as `(bus, rate bits)`: equality here is bit-for-bit.
fn bits(table: &BusRateTable) -> Vec<(String, u64)> {
    table
        .iter()
        .map(|(bus, rate)| (bus.to_string(), rate.to_bits()))
        .collect()
}

#[test]
fn figure9_rates_match_the_plan_reference_for_every_partition() {
    let config = LifetimeConfig::default();
    let mut checked = 0;
    for (name, spec) in designs() {
        let graph = AccessGraph::derive(&spec);
        for (alloc, _) in allocations() {
            for (i, part) in partitions(&spec, &graph, &alloc).iter().enumerate() {
                let row = figure9_row(&spec, &graph, &alloc, part, &config).expect("row");
                for (model, from_row) in ImplModel::ALL.into_iter().zip(&row) {
                    let fast =
                        figure9_rates(&spec, &graph, &alloc, part, model, &config).expect("rates");
                    let slow = reference(&spec, &graph, &alloc, part, model);
                    assert_eq!(
                        bits(&fast),
                        bits(&slow),
                        "{name}, {} components, partition {i}, {model}",
                        alloc.len(),
                    );
                    assert_eq!(bits(from_row), bits(&fast), "{name}: row, {model}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 18 * 2 * 4, "{checked} tables checked");
}

#[test]
fn explored_design_points_match_the_plan_reference() {
    for (name, spec) in designs().into_iter().take(6) {
        let cd = Codesign::from_spec(spec);
        for (alloc, part_text) in allocations() {
            let exploration = cd
                .explore(
                    &ExploreOpts::new()
                        .with_part(part_text)
                        .with_seeds(2)
                        .with_anneal_iterations(60)
                        .with_migration_passes(2)
                        .with_threads(2),
                )
                .expect("explore");
            for p in &exploration.points {
                let slow = reference(cd.spec(), cd.graph(), &alloc, &p.partition, p.model);
                assert_eq!(
                    (p.max_bus_rate.to_bits(), p.bus_count),
                    (slow.max_rate().to_bits(), slow.bus_count()),
                    "{name}, {} components, {} seed {}, {}",
                    alloc.len(),
                    p.algorithm,
                    p.seed,
                    p.model
                );
            }
        }
    }
}

#[test]
fn placement_agrees_with_the_partition_s_own_classification() {
    for (name, spec) in designs() {
        let graph = AccessGraph::derive(&spec);
        for (alloc, _) in allocations() {
            for part in &partitions(&spec, &graph, &alloc) {
                let placement = Placement::new(&spec, &graph, &alloc, part).expect("placement");
                for (v, _) in spec.variables() {
                    assert_eq!(
                        placement.homes()[v.index()],
                        (
                            part.component_of_var(&spec, v).expect("home"),
                            part.classify_var(&spec, &graph, v)
                        ),
                        "{name}: variable {v:?}"
                    );
                }
                let accessors: Vec<_> = graph
                    .data_channels()
                    .map(|ch| part.component_of_behavior(&spec, ch.behavior().expect("data")))
                    .collect();
                assert_eq!(placement.accessors(), &accessors[..], "{name}");
            }
        }
    }
}

/// `p` components; component `i` runs leaf `Li`, which keeps a local
/// variable `loci` and writes a global `globi` that the next leaf reads,
/// so every component homes one local and one global memory.
fn ring_design(p: usize) -> (Spec, Allocation, Partition) {
    let mut alloc = Allocation::new();
    let mut comps = vec![alloc.add(Component::processor("PROC", 65536))];
    for i in 1..p {
        comps.push(alloc.add(Component::asic(format!("ASIC{i}"), 10000, 75)));
    }
    let mut b = SpecBuilder::new("ring");
    let locs: Vec<_> = (0..p)
        .map(|i| b.var_int(format!("loc{i}"), 16, 0))
        .collect();
    let globs: Vec<_> = (0..p)
        .map(|i| b.var_int(format!("glob{i}"), 16, 0))
        .collect();
    let leaves: Vec<_> = (0..p)
        .map(|i| {
            let prev = globs[(i + p - 1) % p];
            b.leaf(
                format!("L{i}"),
                vec![
                    stmt::assign(locs[i], expr::add(expr::var(locs[i]), expr::var(prev))),
                    stmt::assign(globs[i], expr::var(locs[i])),
                    stmt::delay(100),
                ],
            )
        })
        .collect();
    let top = b.concurrent("Top", leaves.clone());
    let spec = b.finish(top).expect("valid ring");
    let mut part = Partition::new();
    part.assign_behavior(top, comps[0]);
    for i in 0..p {
        part.assign_behavior(leaves[i], comps[i]);
        part.assign_var(locs[i], comps[i]);
        part.assign_var(globs[i], comps[i]);
    }
    (spec, alloc, part)
}

#[test]
fn bus_counts_follow_section_3() {
    for p in [2usize, 3] {
        let (spec, alloc, part) = ring_design(p);
        let graph = AccessGraph::derive(&spec);
        let expected = [
            (ImplModel::Model1, 1),
            (ImplModel::Model2, p + 1),
            (ImplModel::Model3, p + p * p),
            (ImplModel::Model4, 2 * p + 1),
        ];
        for (model, buses) in expected {
            assert_eq!(model.max_buses(p), buses, "{model}, p = {p}");
            let table = figure9_rates(
                &spec,
                &graph,
                &alloc,
                &part,
                model,
                &LifetimeConfig::default(),
            )
            .expect("rates");
            assert_eq!(table.bus_count(), buses, "{model}, p = {p}");
            let plan = RefinePlan::build(&spec, &graph, &alloc, &part, model).expect("plan");
            assert_eq!(plan.buses().len(), buses, "{model}, p = {p}");
            assert_eq!(
                bits(&table),
                bits(&reference(&spec, &graph, &alloc, &part, model))
            );
        }
    }
}
