//! Property-based tests over randomly generated specifications.
//!
//! The generator (`modref_workloads::synth`) produces deterministic,
//! terminating hierarchical specs; a seeded PRNG (`modref_rng`) drives
//! seeds and structural parameters, replacing the external `proptest`
//! dependency so the suite runs offline. The headline property is the
//! refinement engine's soundness: *for every spec, partition and
//! implementation model, the refined specification simulates to the same
//! final state as the original.*

use modref_rng::Rng;

use modref::core::{refine, ImplModel, RefinePlan};
use modref::partition::{Allocation, VarClass};
use modref::sim::Simulator;
use modref::spec::{parser, printer};
use modref::workloads::{SynthConfig, SynthSpec};

/// Draws a small random generation config, mirroring the old proptest
/// strategy `(2..6, 2..6, 1..5, 2..4, 0..60)`.
fn small_config(rng: &mut Rng) -> SynthConfig {
    SynthConfig {
        leaves: rng.gen_range(2..6usize),
        vars: rng.gen_range(2..6usize),
        stmts_per_leaf: rng.gen_range(1..5usize),
        fanout: rng.gen_range(2..4usize),
        loop_percent: rng.gen_range(0..60u32),
    }
}

/// The soundness property: refinement preserves observable behavior
/// under every implementation model.
#[test]
fn refinement_preserves_behavior() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0001);
    for case in 0..24 {
        let seed = rng.gen_range(0..500u64);
        let cfg = small_config(&mut rng);
        let salt = rng.gen_range(0..2u64);
        let synth = SynthSpec::generate(seed, &cfg);
        let graph = synth.graph();
        let alloc = Allocation::proc_plus_asic();
        let part = synth.partition(&alloc, salt);
        let original = Simulator::new(&synth.spec)
            .run()
            .expect("original terminates");
        for model in ImplModel::ALL {
            let refined = refine(&synth.spec, &graph, &alloc, &part, model)
                .unwrap_or_else(|e| panic!("case {case} seed {seed} {model}: {e}"));
            let result = Simulator::new(&refined.spec)
                .run()
                .unwrap_or_else(|e| panic!("case {case} seed {seed} {model}: {e}"));
            let diffs = original.diff_common_vars(&result);
            assert!(
                diffs.is_empty(),
                "case {case} seed {seed} {model}: diverges on {diffs:?}"
            );
        }
    }
}

/// print → parse → print is a fixpoint for generated specs.
#[test]
fn printer_parser_round_trip() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0002);
    for _ in 0..32 {
        let seed = rng.gen_range(0..1000u64);
        let cfg = small_config(&mut rng);
        let synth = SynthSpec::generate(seed, &cfg);
        let text = printer::print(&synth.spec);
        let reparsed = parser::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        assert_eq!(printer::print(&reparsed), text, "seed {seed}");
    }
}

/// The plan maps every data channel to at least one bus, and the bus
/// count never exceeds the paper's per-model formula.
#[test]
fn plan_invariants() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0003);
    for _ in 0..24 {
        let seed = rng.gen_range(0..500u64);
        let cfg = small_config(&mut rng);
        let salt = rng.gen_range(0..2u64);
        let synth = SynthSpec::generate(seed, &cfg);
        let graph = synth.graph();
        let alloc = Allocation::proc_plus_asic();
        let part = synth.partition(&alloc, salt);
        for model in ImplModel::ALL {
            let plan = RefinePlan::build(&synth.spec, &graph, &alloc, &part, model)
                .unwrap_or_else(|e| panic!("seed {seed} {model}: {e}"));
            assert!(plan.buses().len() <= model.max_buses(alloc.len()));
            let map = plan.channel_buses(&synth.spec, &graph, &part);
            assert_eq!(map.len(), graph.data_channels().count());
            for buses in map.values() {
                assert!(!buses.is_empty());
                for &bus in buses {
                    assert!(bus < plan.buses().len());
                }
            }
            // Every variable belongs to exactly one memory module.
            let mut seen = std::collections::HashSet::new();
            for mem in &plan.memories {
                for v in &mem.vars {
                    assert!(seen.insert(*v), "variable in two memories");
                }
            }
            assert_eq!(seen.len(), synth.spec.variable_count());
        }
    }
}

/// Local/global classification matches its definition: a variable is
/// global iff some accessor's component differs from its home.
#[test]
fn classification_matches_definition() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0004);
    for _ in 0..24 {
        let seed = rng.gen_range(0..500u64);
        let cfg = small_config(&mut rng);
        let salt = rng.gen_range(0..2u64);
        let synth = SynthSpec::generate(seed, &cfg);
        let graph = synth.graph();
        let alloc = Allocation::proc_plus_asic();
        let part = synth.partition(&alloc, salt);
        for (v, _) in synth.spec.variables() {
            let home = part.component_of_var(&synth.spec, v);
            let cross = graph
                .behaviors_accessing(v)
                .into_iter()
                .any(|b| part.component_of_behavior(&synth.spec, b) != home);
            let class = part.classify_var(&synth.spec, &graph, v);
            assert_eq!(class == VarClass::Global, cross, "seed {seed} var {v:?}");
        }
    }
}

/// Simulation is deterministic: two runs of the same spec agree.
#[test]
fn simulation_is_deterministic() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0005);
    for _ in 0..24 {
        let seed = rng.gen_range(0..1000u64);
        let cfg = small_config(&mut rng);
        let synth = SynthSpec::generate(seed, &cfg);
        let a = Simulator::new(&synth.spec).run().expect("runs");
        let b = Simulator::new(&synth.spec).run().expect("runs");
        assert!(a.diff_common_vars(&b).is_empty(), "seed {seed}");
        assert_eq!(a.time, b.time);
        assert_eq!(a.steps, b.steps);
    }
}

/// The refined spec always prints strictly more lines than the
/// original (refinement adds, never removes).
#[test]
fn refinement_grows_the_spec() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0006);
    for _ in 0..16 {
        let seed = rng.gen_range(0..300u64);
        let cfg = small_config(&mut rng);
        let synth = SynthSpec::generate(seed, &cfg);
        let graph = synth.graph();
        let alloc = Allocation::proc_plus_asic();
        let part = synth.partition(&alloc, 0);
        let before = printer::line_count(&synth.spec);
        for model in ImplModel::ALL {
            let refined = refine(&synth.spec, &graph, &alloc, &part, model)
                .unwrap_or_else(|e| panic!("seed {seed} {model}: {e}"));
            assert!(printer::line_count(&refined.spec) > before, "seed {seed}");
        }
    }
}
