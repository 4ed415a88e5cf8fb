//! Bus transfer-rate tables — the paper's Figure 9 metric.
//!
//! For each data channel of the *original* specification, the channel
//! transfer rate is `bits_per_activation / lifetime(behavior)` under the
//! timing model of the behavior's component; the bus transfer rate is the
//! sum over channels mapped to the bus. Model4 remote accesses traverse a
//! three-bus chain and contribute to every hop (the paper reports those
//! hops together as `b2=b3=b4`).
//!
//! A channel's rate depends only on the partition, not on the model, so
//! the work splits in two:
//!
//! * `CandidateRates` holds one candidate partition's model-independent
//!   facts: its [`Placement`] (each variable's home and local/global
//!   class) and each data channel's accessor component, variable and
//!   rate. Rates come from a `ChannelRates`, whose one memoized
//!   [`LifetimeTable`] can serve a whole exploration.
//! * `CandidateRates::table` derives one model's table from those
//!   facts in a single mapping pass through the model's
//!   [`BusAssignment`] — the same bus naming refinement uses.
//!
//! [`figure9_rates`] runs both steps for one model, [`figure9_row`] for
//! all four; exploration builds the facts once per candidate and maps
//! all four models, with one lifetime table for every candidate.

use modref_estimate::rates::channel_rate_memo;
use modref_estimate::{BusRateTable, LifetimeConfig, LifetimeTable, TimingModel};
use modref_graph::{AccessGraph, Channel};
use modref_partition::{Allocation, ComponentId, Partition};
use modref_spec::{Spec, VarId};

use crate::arch::bus_name;
use crate::error::RefineError;
use crate::model::ImplModel;
use crate::plan::{BusAssignment, Placement};

/// Data-channel transfer rates under each allocated component's timing
/// model, with behavior lifetimes memoized in one [`LifetimeTable`].
pub(crate) struct ChannelRates<'s> {
    spec: &'s Spec,
    timing: Vec<TimingModel>,
    lifetimes: LifetimeTable,
}

impl<'s> ChannelRates<'s> {
    pub(crate) fn new(spec: &'s Spec, allocation: &Allocation, config: &LifetimeConfig) -> Self {
        Self {
            spec,
            timing: allocation.iter().map(|(_, c)| c.timing_model()).collect(),
            lifetimes: LifetimeTable::new(*config),
        }
    }

    /// The rate of `channel` when its behavior runs on `component`.
    fn rate(&mut self, channel: &Channel, component: ComponentId) -> f64 {
        let model = &self.timing[component.index()];
        channel_rate_memo(self.spec, channel, model, &mut self.lifetimes)
    }
}

/// One candidate partition's model-independent Figure 9 facts. See the
/// [module docs](self).
pub(crate) struct CandidateRates {
    placement: Placement,
    /// `(accessor, variable, rate)` per data channel whose behavior has
    /// a component, in [`AccessGraph::data_channels`] order.
    channels: Vec<(ComponentId, VarId, f64)>,
}

impl CandidateRates {
    /// Computes the facts of `partition`.
    ///
    /// # Errors
    ///
    /// The planning errors of [`Placement::new`].
    pub(crate) fn new(
        graph: &AccessGraph,
        allocation: &Allocation,
        partition: &Partition,
        rates: &mut ChannelRates<'_>,
    ) -> Result<Self, RefineError> {
        let placement = Placement::new(rates.spec, graph, allocation, partition)?;
        let channels = graph
            .data_channels()
            .zip(placement.accessors())
            .filter_map(|(ch, &accessor)| {
                let accessor = accessor?;
                Some((accessor, ch.var()?, rates.rate(ch, accessor)))
            })
            .collect();
        Ok(Self {
            placement,
            channels,
        })
    }

    /// The bus-rate table of `model`. Every bus the model plans appears,
    /// including buses with zero traffic; each bus sums its channels in
    /// [`AccessGraph::data_channels`] order.
    pub(crate) fn table(&self, allocation: &Allocation, model: ImplModel) -> BusRateTable {
        let assignment = BusAssignment::new(model, allocation, self.placement.homes());
        let mut sums = vec![0.0; assignment.buses().len()];
        for &(accessor, var, rate) in &self.channels {
            for &bus in assignment.chain(accessor, var).as_slice() {
                sums[bus] += rate;
            }
        }
        sums.into_iter()
            .enumerate()
            .map(|(bus, sum)| (bus_name(bus), sum))
            .collect()
    }
}

/// Computes the per-bus transfer-rate table for one implementation model
/// — one cell group of Figure 9.
///
/// Every bus planned for the model appears in the table, including buses
/// with zero traffic, so reports always show the model's full bus set.
///
/// # Errors
///
/// Propagates planning errors (empty allocation, unassigned objects).
///
/// # Example
///
/// ```
/// use modref_core::{figure9_rates, ImplModel};
/// use modref_estimate::LifetimeConfig;
/// use modref_graph::AccessGraph;
/// use modref_partition::{Allocation, Partition};
/// use modref_spec::builder::SpecBuilder;
/// use modref_spec::{expr, stmt};
///
/// let mut b = SpecBuilder::new("demo");
/// let x = b.var_int("x", 16, 0);
/// let a = b.leaf("A", vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))]);
/// let top = b.seq_in_order("Top", vec![a]);
/// let spec = b.finish(top)?;
/// let graph = AccessGraph::derive(&spec);
/// let alloc = Allocation::proc_plus_asic();
/// let part = Partition::with_default(alloc.by_name("PROC").unwrap());
/// let table = figure9_rates(&spec, &graph, &alloc, &part, ImplModel::Model1,
///                           &LifetimeConfig::default())?;
/// assert_eq!(table.bus_count(), 1);
/// assert!(table.get("b1").unwrap() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn figure9_rates(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    partition: &Partition,
    model: ImplModel,
    config: &LifetimeConfig,
) -> Result<BusRateTable, RefineError> {
    let mut rates = ChannelRates::new(spec, allocation, config);
    Ok(CandidateRates::new(graph, allocation, partition, &mut rates)?.table(allocation, model))
}

/// One row of Figure 9: the tables of Models 1–4 for one partition, in
/// [`ImplModel::ALL`] order. Computes the partition's facts once and maps
/// each model from them, so it costs little more than one
/// [`figure9_rates`] call.
///
/// # Errors
///
/// Propagates planning errors (empty allocation, unassigned objects).
pub fn figure9_row(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    partition: &Partition,
    config: &LifetimeConfig,
) -> Result<[BusRateTable; 4], RefineError> {
    let mut rates = ChannelRates::new(spec, allocation, config);
    let facts = CandidateRates::new(graph, allocation, partition, &mut rates)?;
    Ok(ImplModel::ALL.map(|model| facts.table(allocation, model)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    fn fixture() -> (Spec, AccessGraph, Allocation, Partition) {
        let mut b = SpecBuilder::new("rates");
        let x = b.var_int("x", 16, 0);
        let g = b.var_int("g", 16, 0);
        let y = b.var_int("y", 16, 0);
        let b1 = b.leaf(
            "B1",
            vec![
                stmt::assign(x, expr::add(expr::var(x), expr::lit(1))),
                stmt::assign(g, expr::var(x)),
                stmt::delay(1000),
            ],
        );
        let b2 = b.leaf("B2", vec![stmt::assign(y, expr::var(g)), stmt::delay(1000)]);
        let top = b.concurrent("Top", vec![b1, b2]);
        let spec = b.finish(top).unwrap();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let proc = alloc.by_name("PROC").unwrap();
        let asic = alloc.by_name("ASIC").unwrap();
        let mut part = Partition::new();
        part.assign_behavior(top, proc);
        part.assign_behavior(b1, proc);
        part.assign_behavior(b2, asic);
        part.assign_var(x, proc);
        part.assign_var(g, proc);
        part.assign_var(y, asic);
        (spec, graph, alloc, part)
    }

    #[test]
    fn model1_concentrates_all_traffic_on_one_bus() {
        let (spec, graph, alloc, part) = fixture();
        let cfg = LifetimeConfig::default();
        let t1 = figure9_rates(&spec, &graph, &alloc, &part, ImplModel::Model1, &cfg).unwrap();
        assert_eq!(t1.bus_count(), 1);
        let t2 = figure9_rates(&spec, &graph, &alloc, &part, ImplModel::Model2, &cfg).unwrap();
        // Model1's single bus carries at least as much as Model2's worst.
        assert!(t1.max_rate() >= t2.max_rate() - 1e-9);
        // Model2 splits the same total traffic (no chains), so totals match.
        assert!((t1.total_rate() - t2.total_rate()).abs() < 1e-6);
    }

    #[test]
    fn model3_spreads_global_traffic_across_dedicated_buses() {
        let (spec, graph, alloc, part) = fixture();
        let cfg = LifetimeConfig::default();
        let t2 = figure9_rates(&spec, &graph, &alloc, &part, ImplModel::Model2, &cfg).unwrap();
        let t3 = figure9_rates(&spec, &graph, &alloc, &part, ImplModel::Model3, &cfg).unwrap();
        assert!(t3.bus_count() > t2.bus_count());
        assert!(t3.max_rate() <= t2.max_rate() + 1e-9);
    }

    #[test]
    fn model4_remote_chain_counts_on_every_hop() {
        let (spec, graph, alloc, part) = fixture();
        let cfg = LifetimeConfig::default();
        let t4 = figure9_rates(&spec, &graph, &alloc, &part, ImplModel::Model4, &cfg).unwrap();
        // B2 reads g remotely: the inter bus (b3) carries that traffic.
        let inter = t4.get("b3").unwrap();
        assert!(inter > 0.0);
        // Total over hops exceeds Model1's single-bus total (chains count
        // three times).
        let t1 = figure9_rates(&spec, &graph, &alloc, &part, ImplModel::Model1, &cfg).unwrap();
        assert!(t4.total_rate() > t1.total_rate() - 1e-9);
    }

    #[test]
    fn zero_traffic_buses_still_appear() {
        let (spec, graph, alloc, part) = fixture();
        let cfg = LifetimeConfig::default();
        let t3 = figure9_rates(&spec, &graph, &alloc, &part, ImplModel::Model3, &cfg).unwrap();
        // All planned buses appear even if a component never touches a
        // particular global memory.
        let plan =
            crate::RefinePlan::build(&spec, &graph, &alloc, &part, ImplModel::Model3).unwrap();
        assert_eq!(t3.bus_count(), plan.buses().len());
    }
}
