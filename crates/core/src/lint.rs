//! Static linting of refined output: the refinement-conformance lints
//! (`RC01`–`RC04`) over the architecture a refinement produced, plus the
//! deadlock lints of `modref-analyze` over its refined behaviors.
//!
//! The conformance lints read [`Refined`] directly — its architecture
//! names behaviors by id and buses by index — and check for arbiters on
//! multi-master buses, disjoint address decode ranges, two-sided buses
//! and sufficient bus widths. Their codes, names and explanations live in
//! the `modref-analyze` registry with every other lint, so
//! `--explain`, `--deny` and `--allow` treat them alike.
//! [`Codesign::verify`](crate::api::Codesign::verify) runs them, and the
//! deadlock lints (`DL01`–`DL05`), on every refined candidate first and
//! rejects statically broken ones before spending simulation time. The
//! deadlock engine is linear in the refined spec; on the medical
//! workload it costs a fraction of one refined simulation per candidate
//! (EXPERIMENTS.md, "Static-analysis coverage and cost").

use modref_analyze::{deadlock_lints, Diagnostic, Severity};
use modref_graph::{AccessGraph, ChannelKind};
use modref_spec::Spec;

use crate::arch::bus_name;
use crate::refine::Refined;

/// Runs the `RC01`–`RC04` and deadlock lints over a refined candidate.
/// `spec` and `graph` are the *original* specification and its access
/// graph (the plan's variable ids and the channel ids in
/// `refined.channel_buses` belong to them). This is the refined half of
/// [`Codesign::lint`](crate::api::Codesign::lint) and the whole of
/// [`Codesign::lint_refined`](crate::api::Codesign::lint_refined).
pub(crate) fn lint_refined_impl(
    spec: &Spec,
    graph: &AccessGraph,
    refined: &Refined,
) -> Vec<Diagnostic> {
    let mut diags = conformance_lints(spec, graph, refined);
    // Deadlock/liveness lints over the refined behaviors themselves.
    // `DL05` reads each arbiter's request/ack pairs from its body: the
    // arbiter waits on every request and drives every acknowledge. A
    // refined candidate has no source map — diagnostics carry object
    // names instead of positions.
    diags.extend(deadlock_lints(&refined.spec, None));
    modref_analyze::sort_canonical(&mut diags);
    diags
}

/// `RC01`–`RC04` over `refined`'s architecture, naming behaviors as the
/// refined spec does.
fn conformance_lints(spec: &Spec, graph: &AccessGraph, refined: &Refined) -> Vec<Diagnostic> {
    let arch = &refined.architecture;
    let model = refined.plan.model.number();
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
    let ranges: Vec<_> = arch
        .memories
        .iter()
        .map(|m| refined.plan.addr.range_of(spec, &m.vars))
        .collect();

    let mut out = Vec::new();
    let mut error = |code, object: String, message: String, fix: String| {
        out.push(
            Diagnostic::new(code, Severity::Error, format!("Model{model}: {message}"))
                .with_object(object)
                .with_fix(fix),
        );
    };
    for (idx, bus) in arch.buses.iter().enumerate() {
        let name = bus_name(idx);
        // RC01: several masters race for the bus with nothing to
        // serialize their transactions.
        if bus.masters.len() > 1 && !arch.arbiters.iter().any(|a| a.bus == idx) {
            error(
                "RC01",
                name.clone(),
                format!(
                    "bus `{name}` has {} masters ({}) but no arbiter",
                    bus.masters.len(),
                    refined.names(&bus.masters)
                ),
                "insert a bus arbiter (the paper's Figure 7)".to_string(),
            );
        }
        // RC03: a one-sided bus deadlocks (masters wait for an ack that
        // never comes) or is dead weight (slaves nobody addresses).
        if !bus.masters.is_empty() && bus.slaves.is_empty() {
            error(
                "RC03",
                name.clone(),
                format!(
                    "bus `{name}` has masters ({}) but no slave to acknowledge them — every transaction deadlocks",
                    refined.names(&bus.masters)
                ),
                "attach the memory port or bus interface that serves this bus".to_string(),
            );
        } else if bus.masters.is_empty() && !bus.slaves.is_empty() {
            error(
                "RC03",
                name.clone(),
                format!(
                    "bus `{name}` has slaves ({}) but no master ever drives it",
                    refined.names(&bus.slaves)
                ),
                "remove the bus or route a channel over it".to_string(),
            );
        }
        // RC04 (data width): a channel moves wider words than the bus
        // carries per transfer.
        if required[idx] > bus.data_bits {
            error(
                "RC04",
                name.clone(),
                format!(
                    "bus `{name}` is {} bits wide but a channel routed over it needs {}-bit accesses",
                    bus.data_bits, required[idx]
                ),
                format!("widen the bus to {} data bits", required[idx]),
            );
        }
    }
    // RC04 (address width): a memory's decode range does not fit on the
    // address lines of a bus its ports serve.
    for (m, range) in arch.memories.iter().zip(&ranges) {
        let Some((_, hi)) = *range else { continue };
        let mem = refined.memory_name(m);
        for &idx in &m.port_buses {
            let (name, addr_bits) = (bus_name(idx), arch.buses[idx].addr_bits);
            let capacity = 1u64.checked_shl(addr_bits).unwrap_or(u64::MAX);
            if hi >= capacity {
                error(
                    "RC04",
                    mem.to_string(),
                    format!("memory `{mem}` decodes addresses up to {hi} but bus `{name}` has only {addr_bits} address bits ({capacity} words)"),
                    format!("widen `{name}` to at least {} address bits", 64 - hi.leading_zeros()),
                );
            }
        }
    }

    // RC02: the address map must give every memory a disjoint slice —
    // overlapping ranges make slave decode ambiguous.
    for (i, (a, a_range)) in arch.memories.iter().zip(&ranges).enumerate() {
        for (b, b_range) in arch.memories.iter().zip(&ranges).skip(i + 1) {
            let (Some((alo, ahi)), Some((blo, bhi))) = (a_range, b_range) else {
                continue;
            };
            if alo <= bhi && blo <= ahi {
                let (a, b) = (refined.memory_name(a), refined.memory_name(b));
                error(
                    "RC02",
                    a.to_string(),
                    format!("memories `{a}` [{alo}, {ahi}] and `{b}` [{blo}, {bhi}] decode overlapping address ranges"),
                    "assign disjoint address ranges in the address map".to_string(),
                );
            }
        }
    }
    out
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
    use modref_analyze::render_json_lines;
    use modref_partition::{Allocation, Partition};
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};
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

    /// `P` on the processor and `Q` on the ASIC both update `sh`; `Q`
    /// keeps `q` local. Under Model1 the one bus `b1` has masters `P`
    /// and `Q_NEW` (control refinement moved `Q`) behind `Arbiter_b1`,
    /// and slaves `Gmem_p0` (`sh`, address 0) and `Gmem_p1` (`q`,
    /// address 1).
    fn fixture() -> (Spec, AccessGraph, Refined) {
        let mut b = SpecBuilder::new("rc");
        let sh = b.var_int("sh", 16, 0);
        let q = b.var_int("q", 16, 0);
        let p_leaf = b.leaf(
            "P",
            vec![stmt::assign(sh, expr::add(expr::var(sh), expr::lit(1)))],
        );
        let q_leaf = b.leaf(
            "Q",
            vec![
                stmt::assign(q, expr::add(expr::var(sh), expr::lit(2))),
                stmt::assign(sh, expr::var(q)),
            ],
        );
        let top = b.concurrent("T", vec![p_leaf, q_leaf]);
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let asic = alloc.by_name("ASIC").unwrap();
        let mut part = Partition::with_default(alloc.by_name("PROC").unwrap());
        part.assign_behavior(q_leaf, asic);
        part.assign_var(q, asic);
        let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model1).expect("refines");
        (spec, graph, refined)
    }

    /// The conformance diagnostics of a tampered fixture, as JSONL.
    fn rc_json(tamper: impl FnOnce(&Spec, &mut Refined)) -> String {
        let (spec, graph, mut refined) = fixture();
        tamper(&spec, &mut refined);
        let mut diags = conformance_lints(&spec, &graph, &refined);
        modref_analyze::sort_canonical(&mut diags);
        render_json_lines(&diags, "")
    }

    fn diag(code: &str, object: &str, message: &str, fix: &str) -> String {
        format!(
            "{{\"k\": \"diag\", \"code\": \"{code}\", \"severity\": \"error\", \"object\": \"{object}\", \
             \"message\": \"{message}\", \"fix\": \"{fix}\"}}\n"
        )
    }

    fn summary(errors: usize) -> String {
        format!(
            "{{\"k\": \"lint_summary\", \"errors\": {errors}, \"warnings\": 0, \"notes\": 0, \"total\": {errors}}}\n"
        )
    }

    #[test]
    fn untampered_fixture_passes() {
        let (spec, graph, refined) = fixture();
        assert!(lint_refined_impl(&spec, &graph, &refined).is_empty());
    }

    #[test]
    fn rc01_names_the_refined_masters() {
        let json = rc_json(|_, r| r.architecture.arbiters.clear());
        let expected = diag(
            "RC01",
            "b1",
            "Model1: bus `b1` has 2 masters (P, Q_NEW) but no arbiter",
            "insert a bus arbiter (the paper's Figure 7)",
        ) + &summary(1);
        assert_eq!(json, expected);
    }

    #[test]
    fn rc02_reports_overlapping_memories() {
        let json = rc_json(|spec, r| {
            let sh = spec.variable_by_name("sh").unwrap();
            r.architecture.memories[1].vars.push(sh);
        });
        let expected = diag(
            "RC02",
            "Gmem_p0",
            "Model1: memories `Gmem_p0` [0, 0] and `Gmem_p1` [0, 1] decode overlapping address ranges",
            "assign disjoint address ranges in the address map",
        ) + &summary(1);
        assert_eq!(json, expected);
    }

    #[test]
    fn rc03_reports_a_bus_without_slaves() {
        let json = rc_json(|_, r| r.architecture.buses[0].slaves.clear());
        let expected = diag(
            "RC03",
            "b1",
            "Model1: bus `b1` has masters (P, Q_NEW) but no slave to acknowledge them \u{2014} every transaction deadlocks",
            "attach the memory port or bus interface that serves this bus",
        ) + &summary(1);
        assert_eq!(json, expected);
    }

    #[test]
    fn rc03_reports_a_bus_without_masters() {
        let json = rc_json(|_, r| r.architecture.buses[0].masters.clear());
        let expected = diag(
            "RC03",
            "b1",
            "Model1: bus `b1` has slaves (Gmem_p0, Gmem_p1) but no master ever drives it",
            "remove the bus or route a channel over it",
        ) + &summary(1);
        assert_eq!(json, expected);
    }

    #[test]
    fn rc04_reports_a_narrow_data_bus() {
        let json = rc_json(|_, r| r.architecture.buses[0].data_bits = 8);
        let expected = diag(
            "RC04",
            "b1",
            "Model1: bus `b1` is 8 bits wide but a channel routed over it needs 16-bit accesses",
            "widen the bus to 16 data bits",
        ) + &summary(1);
        assert_eq!(json, expected);
    }

    #[test]
    fn rc04_reports_a_short_address_bus() {
        let json = rc_json(|_, r| r.architecture.buses[0].addr_bits = 0);
        let expected = diag(
            "RC04",
            "Gmem_p1",
            "Model1: memory `Gmem_p1` decodes addresses up to 1 but bus `b1` has only 0 address bits (1 words)",
            "widen `b1` to at least 1 address bits",
        ) + &summary(1);
        assert_eq!(json, expected);
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
