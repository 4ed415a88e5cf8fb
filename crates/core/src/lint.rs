//! Conformance linting of refined output: bridges the refiner's
//! [`Refined`] result to the neutral views `modref-analyze` checks.
//!
//! The conformance lints (`RC01`–`RC04`) validate the *architecture* a
//! refinement produced — arbiters present on multi-master buses, disjoint
//! address decode ranges, two-sided buses, sufficient bus widths.
//! [`Codesign::verify`](crate::api::Codesign::verify) runs them, and the
//! deadlock lints (`DL01`–`DL05`), on every refined candidate first and
//! rejects statically broken ones before spending simulation time. The
//! deadlock engine is linear in the refined spec; on the medical
//! workload it costs a fraction of one refined simulation per candidate
//! (EXPERIMENTS.md, "Static-analysis coverage and cost").

use modref_analyze::{
    conformance_lints, deadlock_lints, BusView, Diagnostic, MemoryView, RefinedView, Severity,
};
use modref_graph::{AccessGraph, ChannelKind};
use modref_spec::Spec;

use crate::refine::Refined;

/// Builds the neutral conformance view of a refined candidate and runs
/// the `RC01`–`RC04` lints over it. `spec` and `graph` are the *original*
/// specification and its access graph (the plan's variable ids and the
/// channel ids in `refined.channel_buses` belong to them). This is the
/// conformance half of [`Codesign::lint`](crate::api::Codesign::lint)
/// and the whole of
/// [`Codesign::lint_refined`](crate::api::Codesign::lint_refined).
pub(crate) fn lint_refined_impl(
    spec: &Spec,
    graph: &AccessGraph,
    refined: &Refined,
) -> Vec<Diagnostic> {
    let arch = &refined.architecture;
    let plan = &refined.plan;

    // Widest access each bus must carry: max bits-per-access over the
    // original data channels routed across it.
    let mut required = vec![0u32; arch.buses.len()];
    for (cid, buses) in &refined.channel_buses {
        if let ChannelKind::Data {
            bits_per_access, ..
        } = graph.channel(*cid).kind()
        {
            for &bus in buses {
                required[bus] = required[bus].max(*bits_per_access);
            }
        }
    }

    let buses = arch
        .buses
        .iter()
        .zip(required)
        .map(|(b, required_data_bits)| BusView {
            name: b.name.clone(),
            data_bits: b.data_bits,
            addr_bits: b.addr_bits,
            masters: b.masters.clone(),
            slaves: b.slaves.clone(),
            has_arbiter: arch.arbiters.iter().any(|a| a.bus == b.name),
            required_data_bits,
        })
        .collect();

    let memories = plan
        .memories
        .iter()
        .map(|m| MemoryView {
            name: m.name.clone(),
            global: m.global,
            range: plan.addr.range_of(spec, &m.vars),
            port_buses: m.port_buses.clone(),
        })
        .collect();

    let view = RefinedView {
        model: plan.model.number(),
        buses,
        memories,
    };
    let mut diags = conformance_lints(&view);

    // Deadlock/liveness lints over the refined behaviors themselves.
    // `DL05` reads each arbiter's request/ack pairs from its body: the
    // arbiter waits on every request and drives every acknowledge. A
    // refined candidate has no source map — diagnostics carry object
    // names instead of positions.
    diags.extend(deadlock_lints(&refined.spec, None));
    modref_analyze::sort_canonical(&mut diags);
    diags
}

/// When any error-severity diagnostic is present, a short rejection
/// summary ("RC01 ×2, RC04 ×1") for verification records; `None` when the
/// candidate is statically sound.
pub fn static_reject(diags: &[Diagnostic]) -> Option<String> {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for d in diags {
        if d.severity != Severity::Error {
            continue;
        }
        match counts.iter_mut().find(|(c, _)| *c == d.code) {
            Some((_, n)) => *n += 1,
            None => counts.push((d.code, 1)),
        }
    }
    if counts.is_empty() {
        return None;
    }
    let summary = counts
        .iter()
        .map(|(c, n)| {
            if *n == 1 {
                (*c).to_string()
            } else {
                format!("{c} \u{d7}{n}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ");
    Some(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{refine, ImplModel};
    use modref_workloads::{medical_allocation, medical_partition, medical_spec, Design};

    #[test]
    fn clean_medical_refinements_pass_all_models() {
        let spec = medical_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = medical_allocation();
        let part = medical_partition(&spec, &alloc, Design::Design1);
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model).expect("refines");
            let diags = lint_refined_impl(&spec, &graph, &refined);
            assert!(
                static_reject(&diags).is_none(),
                "{model:?} rejected: {diags:?}"
            );
        }
    }

    #[test]
    fn tampered_architecture_is_rejected() {
        let spec = medical_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = medical_allocation();
        let part = medical_partition(&spec, &alloc, Design::Design1);
        let mut refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model1).expect("refines");
        // Knock out the arbiters: the shared global bus has several
        // masters, so RC01 must fire.
        refined.architecture.arbiters.clear();
        let diags = lint_refined_impl(&spec, &graph, &refined);
        let reject = static_reject(&diags).expect("rejected");
        assert!(reject.contains("RC01"), "{reject}");
    }

    #[test]
    fn static_reject_summarizes_error_codes_only() {
        let diags = vec![
            Diagnostic::new("RC01", Severity::Error, "a"),
            Diagnostic::new("RC01", Severity::Error, "b"),
            Diagnostic::new("CC01", Severity::Note, "c"),
        ];
        assert_eq!(static_reject(&diags).as_deref(), Some("RC01 \u{d7}2"));
        assert_eq!(static_reject(&diags[2..]), None);
    }
}
