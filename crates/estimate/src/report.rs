//! Human-readable estimation reports: per-behavior lifetimes and
//! per-channel transfer rates, the raw material behind Figure 9.

use std::fmt::Write as _;

use modref_graph::{AccessGraph, ChannelKind, Direction};
use modref_spec::{BehaviorId, Spec};

use crate::latency::TimingModel;
use crate::lifetime::{behavior_lifetime, LifetimeConfig};
use crate::rates::channel_rate;

/// Renders a full estimation report for a spec under a per-behavior
/// timing-model assignment (pass a closure resolving each behavior to
/// the timing model of its component).
pub fn estimation_report(
    spec: &Spec,
    graph: &AccessGraph,
    model_of: &impl Fn(BehaviorId) -> TimingModel,
    config: &LifetimeConfig,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "estimation report for `{}`", spec.name());
    let _ = writeln!(out);
    let _ = writeln!(out, "behavior lifetimes (per activation):");
    for leaf in spec.leaves() {
        let model = model_of(leaf);
        let t = behavior_lifetime(spec, leaf, &model, config);
        let _ = writeln!(
            out,
            "  {:<20} {:>12.0} ns  ({})",
            spec.behavior(leaf).name(),
            t,
            model.name
        );
    }
    if let Some(top) = spec.top_opt() {
        let t = behavior_lifetime(spec, top, &model_of(top), config);
        let _ = writeln!(out, "  {:<20} {:>12.0} ns  (whole system)", "total", t);
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "channel transfer rates:");
    let mut rows: Vec<(f64, String)> = Vec::new();
    for ch in graph.data_channels() {
        let ChannelKind::Data {
            behavior,
            var,
            direction,
            accesses,
            bits_per_access,
            ..
        } = ch.kind()
        else {
            continue;
        };
        let rate = channel_rate(spec, ch, model_of, config);
        let arrow = match direction {
            Direction::Read => "reads",
            Direction::Write => "writes",
        };
        rows.push((
            rate,
            format!(
                "  {:<16} {arrow:<6} {:<12} {:>7.1} Mbit/s ({:.0} x {} bits)",
                spec.behavior(*behavior).name(),
                spec.variable(*var).name(),
                rate,
                accesses,
                bits_per_access
            ),
        ));
    }
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (_, line) in &rows {
        let _ = writeln!(out, "{line}");
    }
    let total: f64 = rows.iter().map(|(r, _)| r).sum();
    let _ = writeln!(out, "  total channel traffic: {total:.1} Mbit/s");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    #[test]
    fn report_lists_behaviors_and_channels_by_rate() {
        let mut b = SpecBuilder::new("rep");
        let x = b.var_int("x", 16, 0);
        let hot = b.leaf(
            "Hot",
            vec![
                stmt::assign(x, expr::add(expr::var(x), expr::lit(1))),
                stmt::assign(x, expr::add(expr::var(x), expr::lit(2))),
            ],
        );
        let cold = b.leaf(
            "Cold",
            vec![stmt::assign(x, expr::lit(9)), stmt::delay(100_000)],
        );
        let top = b.seq_in_order("Top", vec![hot, cold]);
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let report = estimation_report(
            &spec,
            &graph,
            &|_| TimingModel::processor(),
            &LifetimeConfig::default(),
        );
        assert!(report.contains("Hot"));
        assert!(report.contains("Cold"));
        assert!(report.contains("total channel traffic"));
        // Hot's channels outrank Cold's: Hot appears first in the rate list.
        let hot_pos = report.find("  Hot ").expect("hot row");
        let cold_pos = report.find("  Cold ").expect("cold row");
        assert!(hot_pos < cold_pos, "{report}");
    }
}
