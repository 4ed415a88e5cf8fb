//! Conformance property: every shipped workload, refined under every
//! implementation model, produces an architecture that passes the
//! `RC01`–`RC04` static lints — the refiner never emits an arbiterless
//! multi-master bus, overlapping decode ranges, a one-sided bus, or an
//! under-width bus. Tamper tests then break each invariant by hand and
//! check the corresponding lint fires, so the property is not passing
//! vacuously.

// The tamper tests mutate a `Refined` by hand, which
// `Codesign::lint` (refining internally) cannot express — they go
// through `Codesign::lint_refined`, the facade entry point for
// already-refined candidates.

use modref::analyze::Severity;
use modref::core::api::Codesign;
use modref::core::{refine, static_reject, ImplModel, Refined};
use modref::graph::AccessGraph;
use modref::partition::{Allocation, Partition};
use modref::spec::{Expr, Spec, Stmt};
use modref::workloads::{
    dsp_partition, dsp_spec, fig2_partition, fig2_spec, medical_allocation, medical_partition,
    medical_spec, Design,
};

/// Refines `spec` under every model and asserts the result is statically
/// sound: no error-severity conformance diagnostics, so the explorer's
/// static gate would let every candidate through to simulation.
fn assert_all_models_conform(label: &str, spec: &Spec, alloc: &Allocation, part: &Partition) {
    let graph = AccessGraph::derive(spec);
    let cd = Codesign::from_spec(spec.clone());
    for model in ImplModel::ALL {
        let refined = refine(spec, &graph, alloc, part, model)
            .unwrap_or_else(|e| panic!("{label}/{model}: refinement failed: {e}"));
        let diags = cd.lint_refined(&refined);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Error),
            "{label}/{model}: conformance errors: {diags:#?}"
        );
        assert_eq!(
            static_reject(&diags),
            None,
            "{label}/{model}: statically rejected"
        );
    }
}

#[test]
fn medical_conforms_under_every_design_and_model() {
    let spec = medical_spec();
    let alloc = medical_allocation();
    for design in [Design::Design1, Design::Design2, Design::Design3] {
        let part = medical_partition(&spec, &alloc, design);
        assert_all_models_conform(&format!("medical/{design:?}"), &spec, &alloc, &part);
    }
}

#[test]
fn fig2_conforms_under_every_model() {
    let spec = fig2_spec();
    let alloc = medical_allocation();
    let part = fig2_partition(&spec, &alloc);
    assert_all_models_conform("fig2", &spec, &alloc, &part);
}

#[test]
fn dsp_conforms_under_every_model() {
    let spec = dsp_spec();
    let alloc = medical_allocation();
    let part = dsp_partition(&spec, &alloc);
    assert_all_models_conform("dsp", &spec, &alloc, &part);
}

/// Refines medical/Design1 under `model` — the shared fixture the tamper
/// tests mutate.
fn medical_refined(model: ImplModel) -> (Codesign, Refined) {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);
    let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
    (Codesign::from_spec(spec), refined)
}

fn reject_codes(cd: &Codesign, refined: &Refined) -> String {
    static_reject(&cd.lint_refined(refined)).expect("tampered candidate must be rejected")
}

#[test]
fn removing_arbiters_trips_rc01() {
    let (cd, mut refined) = medical_refined(ImplModel::Model1);
    refined.architecture.arbiters.clear();
    let codes = reject_codes(&cd, &refined);
    assert!(codes.contains("RC01"), "{codes}");
}

#[test]
fn overlapping_decode_ranges_trip_rc02() {
    let (cd, mut refined) = medical_refined(ImplModel::Model1);
    // Ghost module decoding the same variables as the real global memory:
    // identical (hence overlapping) address ranges.
    let ghost = refined
        .architecture
        .memories
        .iter()
        .find(|m| m.global)
        .expect("Model1 has a global memory")
        .clone();
    refined.architecture.memories.push(ghost);
    let codes = reject_codes(&cd, &refined);
    assert!(codes.contains("RC02"), "{codes}");
}

#[test]
fn orphaning_a_bus_trips_rc03() {
    let (cd, mut refined) = medical_refined(ImplModel::Model1);
    for bus in &mut refined.architecture.buses {
        bus.slaves.clear();
    }
    let codes = reject_codes(&cd, &refined);
    assert!(codes.contains("RC03"), "{codes}");
}

#[test]
fn dropping_a_masters_bus_releases_trips_dl05() {
    // Figure 2 under Model1: four masters share `b1` under `Arbiter_b1`.
    let spec = fig2_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = fig2_partition(&spec, &alloc);
    let mut refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model1).expect("refines");
    let arch = &refined.architecture;
    assert_eq!(arch.arbiters.len(), 1);
    let arbiter = arch.arbiters[0];
    assert_eq!(
        (
            refined.name(arbiter.behavior),
            arch.buses[arbiter.bus].masters.len()
        ),
        ("Arbiter_b1", 4)
    );

    // Master 0's protocol subroutines release the bus with
    // `set b1_req_0 := 0`; drop those statements.
    let req = refined
        .spec
        .signal_by_name("b1_req_0")
        .expect("master 0 request");
    let subs: Vec<_> = refined.spec.subroutines().map(|(id, _)| id).collect();
    let mut dropped = 0;
    for id in subs {
        let body = refined.spec.subroutine_mut(id).body_mut();
        let before = body.len();
        body.retain(
            |s| !matches!(s, Stmt::SignalSet { signal, value: Expr::Lit(0) } if *signal == req),
        );
        dropped += before - body.len();
    }
    assert_eq!(dropped, 2, "one release each in MST_receive and MST_send");

    let cd = Codesign::from_spec(spec);
    let dl05: Vec<_> = cd
        .lint_refined(&refined)
        .into_iter()
        .filter(|d| d.code == "DL05")
        .collect();
    assert!(!dl05.is_empty(), "the dropped release must trip DL05");
    for d in &dl05 {
        assert!(d.message.contains("Arbiter_b1"), "{d:#?}");
        assert!(d.message.contains("b1_req_0"), "{d:#?}");
    }
}

#[test]
fn narrowing_every_bus_trips_rc04() {
    let (cd, mut refined) = medical_refined(ImplModel::Model1);
    for bus in &mut refined.architecture.buses {
        bus.data_bits = 1;
    }
    let codes = reject_codes(&cd, &refined);
    assert!(codes.contains("RC04"), "{codes}");
}
