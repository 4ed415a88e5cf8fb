//! Refinement mints names for bus wires, protocol subroutines and
//! memory, arbiter and interface behaviors. A specification that already
//! uses one of those names must still refine: the original object keeps
//! its name, the generated one takes a fresh name, and the architecture
//! names the generated behaviors and passes the consistency check of
//! `support::assert_consistent`.

use modref::core::api::{Codesign, ExploreOpts, VerifyOpts};
use modref::core::{refine, ImplModel};
use modref::graph::AccessGraph;
use modref::sim::Simulator;
use modref::spec::subroutine::Subroutine;
use modref::spec::{parser, printer, DataType, Spec};
use modref::workloads::{fig2_partition, fig2_spec, medical_allocation};

mod support;

/// Figure 2 with `B1` (a processor leaf, copied under its own name)
/// renamed to `name`.
fn fig2_with_b1_named(name: &str) -> Spec {
    let mut spec = fig2_spec();
    let b1 = spec.behavior_by_name("B1").expect("fig2 has B1");
    spec.behavior_mut(b1).set_name(name);
    spec
}

/// Figure 2 variants, each already using one name the refiner would
/// generate for it.
fn colliding_specs() -> Vec<(&'static str, Spec)> {
    let mut with_signal = fig2_spec();
    with_signal.add_signal("b1_req_0", DataType::Bit, 0);
    let mut with_variable = fig2_spec();
    with_variable.add_variable("b1_start", DataType::int(16), 0, None);
    let mut with_subroutine = fig2_spec();
    with_subroutine.add_subroutine(Subroutine::new("MST_send_b1_m0", vec![], vec![]));
    vec![
        ("signal b1_req_0", with_signal),
        ("variable b1_start", with_variable),
        ("subroutine MST_send_b1_m0", with_subroutine),
        ("behavior Gmem_p0", fig2_with_b1_named("Gmem_p0")),
        ("behavior Arbiter_b1", fig2_with_b1_named("Arbiter_b1")),
        (
            "behavior Bus_interface_p0_out",
            fig2_with_b1_named("Bus_interface_p0_out"),
        ),
    ]
}

#[test]
fn colliding_names_refine_under_every_model() {
    let alloc = medical_allocation();
    for (label, spec) in colliding_specs() {
        let graph = AccessGraph::derive(&spec);
        let part = fig2_partition(&spec, &alloc);
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model)
                .unwrap_or_else(|e| panic!("{label}/{model}: {e}"));
            let case = format!("{label}/{model}");
            support::assert_consistent(&case, &spec, &graph, &refined);
            let out = &refined.spec;
            let arch = &refined.architecture;
            // Every generated agent the netlist names is a server, never
            // the user's behavior that took its name first.
            let generated = arch
                .memories
                .iter()
                .flat_map(|m| m.ports.iter().copied())
                .chain(arch.arbiters.iter().map(|a| a.behavior))
                .chain(arch.interfaces.iter().map(|i| i.behavior));
            for id in generated {
                assert!(
                    out.behavior(id).is_server(),
                    "{case}: the architecture names `{}`, which is no generated server",
                    refined.name(id)
                );
            }
            for i in &arch.interfaces {
                assert!(
                    arch.buses[i.masters_bus].masters.contains(&i.behavior),
                    "{case}: `{}` is no master of its bus",
                    refined.name(i.behavior)
                );
            }
            if let Some(user) = label.strip_prefix("behavior ") {
                let id = out
                    .behavior_by_name(user)
                    .expect("the original keeps its name");
                assert!(!out.behavior(id).is_server(), "{label}/{model}");
            }
        }
    }
}

#[test]
fn colliding_names_survive_the_textual_round_trip() {
    let alloc = medical_allocation();
    for (label, spec) in colliding_specs() {
        let original = Simulator::new(&spec).run().expect("original completes");
        let graph = AccessGraph::derive(&spec);
        let part = fig2_partition(&spec, &alloc);
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
            let text = printer::print(&refined.spec);
            let reparsed = parser::parse(&text)
                .unwrap_or_else(|e| panic!("{label}/{model}: refined text re-parses: {e}"));
            let result = Simulator::new(&reparsed)
                .run()
                .unwrap_or_else(|e| panic!("{label}/{model}: re-parsed spec runs: {e}"));
            assert!(
                original.diff_common_vars(&result).is_empty(),
                "{label}/{model}: re-parsed refinement diverges"
            );
        }
    }
}

#[test]
fn colliding_names_verify_equivalent() {
    let opts = ExploreOpts::new()
        .with_seeds(1)
        .with_anneal_iterations(40)
        .with_migration_passes(2);
    for (label, spec) in colliding_specs() {
        let cd = Codesign::from_spec(spec);
        let exploration = cd.explore(&opts).expect("explores");
        let v = cd
            .verify(&exploration, &VerifyOpts::new())
            .expect("verifies");
        assert!(!v.records.is_empty(), "{label}");
        let failed: Vec<_> = v.records.iter().filter(|r| !r.equivalent).collect();
        assert!(failed.is_empty(), "{label}: {failed:#?}");
    }
}
