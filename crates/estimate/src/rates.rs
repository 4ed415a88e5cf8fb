//! Channel and bus transfer rates — the paper's Figure 9 metric.
//!
//! The *channel transfer rate* is the rate at which data moves over a
//! channel during the lifetime of the behavior driving it:
//! `rate = bits_per_activation / lifetime`. The *bus transfer rate* is
//! the sum of the rates of all channels mapped to the bus; a high bus rate
//! indicates a hot spot (Section 5 calls out 3636 Mbit/s on Model1's
//! single global bus).

use std::collections::BTreeMap;

use modref_graph::Channel;
use modref_spec::{BehaviorId, Spec};

use crate::latency::TimingModel;
use crate::lifetime::{behavior_lifetime, LifetimeConfig, LifetimeTable};

/// Conversion factor: a rate of 1 bit/ns equals 1000 Mbit/s.
pub const MBITS_PER_BIT_PER_NS: f64 = 1000.0;

/// The transfer rate of a single data channel, in Mbit/s.
///
/// `model_of` supplies the timing model for the channel's behavior —
/// behaviors partitioned to a processor and to an ASIC run at different
/// speeds, so the caller chooses per behavior.
///
/// Control channels have rate 0 (their start/done signalling volume is
/// negligible next to data traffic, as in the paper's accounting).
pub fn channel_rate(
    spec: &Spec,
    channel: &Channel,
    model_of: &impl Fn(BehaviorId) -> TimingModel,
    config: &LifetimeConfig,
) -> f64 {
    rate_over(channel, |b| {
        behavior_lifetime(spec, b, &model_of(b), config)
    })
}

/// [`channel_rate`] with the channel's behavior running under `model`
/// and its lifetime served from `lifetimes` — the same value, computed
/// once per `(behavior, model)` however many channels share it.
pub fn channel_rate_memo(
    spec: &Spec,
    channel: &Channel,
    model: &TimingModel,
    lifetimes: &mut LifetimeTable,
) -> f64 {
    rate_over(channel, |b| lifetimes.get(spec, b, model))
}

/// `bits_per_activation / lifetime` in Mbit/s, asking for the lifetime
/// only when the channel has a behavior and carries bits.
///
/// The rate saturates: an access count that overflows to infinity over a
/// lifetime that does too is `inf / inf`, which reads as an infinite
/// rate rather than NaN, so such a channel still ranks as the hot spot.
fn rate_over(channel: &Channel, lifetime_of: impl FnOnce(BehaviorId) -> f64) -> f64 {
    let Some(behavior) = channel.behavior() else {
        return 0.0;
    };
    let bits = channel.bits_per_activation();
    if bits == 0.0 {
        return 0.0;
    }
    let rate = bits / lifetime_of(behavior).max(1.0) * MBITS_PER_BIT_PER_NS;
    if rate.is_nan() {
        f64::INFINITY
    } else {
        rate
    }
}

/// Per-bus transfer rates: bus name → Mbit/s.
///
/// Buses are keyed by name (`b1`, `b2`, ...) to match the paper's tables;
/// the map is ordered so reports print deterministically.
///
/// # Example
///
/// ```
/// use modref_estimate::BusRateTable;
///
/// let mut table = BusRateTable::new();
/// table.add("b1", 853.0);
/// table.add("b2", 2030.0);
/// table.add("b2", 6.0);
/// assert_eq!(table.hot_spot(), Some(("b2", 2036.0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusRateTable {
    rates: BTreeMap<String, f64>,
}

impl BusRateTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `mbits` to the named bus.
    pub fn add(&mut self, bus: impl Into<String>, mbits: f64) {
        *self.rates.entry(bus.into()).or_insert(0.0) += mbits;
    }

    /// Ensures a bus appears in the table even with zero traffic.
    pub fn touch(&mut self, bus: impl Into<String>) {
        self.rates.entry(bus.into()).or_insert(0.0);
    }

    /// The rate of one bus, or `None` if the bus is unknown.
    pub fn get(&self, bus: &str) -> Option<f64> {
        self.rates.get(bus).copied()
    }

    /// Iterates `(bus, rate)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.rates.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of buses.
    pub fn bus_count(&self) -> usize {
        self.rates.len()
    }

    /// The maximum per-bus rate — the paper's hot-spot indicator.
    pub fn max_rate(&self) -> f64 {
        self.rates.values().copied().fold(0.0, f64::max)
    }

    /// The total traffic over all buses.
    pub fn total_rate(&self) -> f64 {
        self.rates.values().sum()
    }

    /// The bus with the maximum rate, if any.
    pub fn hot_spot(&self) -> Option<(&str, f64)> {
        self.rates
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, v)| (k.as_str(), *v))
    }
}

impl FromIterator<(String, f64)> for BusRateTable {
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        let mut t = Self::new();
        for (bus, rate) in iter {
            t.add(bus, rate);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_graph::AccessGraph;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    fn simple_spec() -> (Spec, AccessGraph) {
        let mut b = SpecBuilder::new("r");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf(
            "A",
            vec![
                stmt::assign(x, expr::add(expr::var(x), expr::lit(1))),
                stmt::delay(100),
            ],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let graph = AccessGraph::derive(&spec);
        (spec, graph)
    }

    #[test]
    fn channel_rate_is_bits_over_lifetime() {
        let (spec, graph) = simple_spec();
        let cfg = LifetimeConfig::default();
        let model = |_| TimingModel::unit();
        // lifetime = assign(1) + op(1) + load(1) + delay(100) = 103 ns
        // read channel: 16 bits -> 16/103 * 1000 Mbit/s
        let read = graph
            .data_channels()
            .find(|c| {
                matches!(
                    c.kind(),
                    modref_graph::ChannelKind::Data {
                        direction: modref_graph::Direction::Read,
                        ..
                    }
                )
            })
            .expect("read channel");
        let rate = channel_rate(&spec, read, &model, &cfg);
        assert!((rate - 16.0 / 103.0 * 1000.0).abs() < 1e-9);
    }

    #[test]
    fn memoized_rate_is_bit_identical() {
        let (spec, graph) = simple_spec();
        let cfg = LifetimeConfig::default();
        let mut table = LifetimeTable::new(cfg);
        for model in [TimingModel::processor(), TimingModel::asic()] {
            for ch in graph.data_channels() {
                let plain = channel_rate(&spec, ch, &|_| model.clone(), &cfg);
                let memo = channel_rate_memo(&spec, ch, &model, &mut table);
                assert_eq!(plain.to_bits(), memo.to_bits());
            }
        }
        // One lifetime per (behavior, model), shared by both channels.
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn overflowing_rates_saturate_instead_of_turning_nan() {
        // Twenty nested near-`i64::MAX` loops overflow the access count.
        let mut b = SpecBuilder::new("overflow");
        let x = b.var_int("x", 64, 0);
        let mut body = vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))];
        for k in 0..20 {
            let i = b.var_int(format!("i{k}"), 64, 0);
            body = vec![stmt::for_loop(
                i,
                expr::lit(0),
                expr::lit(i64::MAX - 1),
                body,
            )];
        }
        let leaf = b.leaf("L", body);
        let spec = b.finish(leaf).expect("valid");
        let graph = AccessGraph::derive(&spec);
        let x_read = graph
            .data_channels()
            .find(|c| c.var() == Some(x))
            .expect("x channel");
        assert_eq!(x_read.bits_per_activation(), f64::INFINITY);
        assert_eq!(rate_over(x_read, |_| f64::INFINITY), f64::INFINITY);
        assert_eq!(rate_over(x_read, |_| 1e9), f64::INFINITY);
        let cfg = LifetimeConfig::default();
        for ch in graph.data_channels() {
            let rate = channel_rate(&spec, ch, &|_| TimingModel::processor(), &cfg);
            assert!(!rate.is_nan(), "{ch:?}");
        }
    }

    #[test]
    fn hot_spot_finds_max_bus() {
        let mut t = BusRateTable::new();
        t.add("b1", 100.0);
        t.add("b2", 3636.0);
        t.add("b3", 50.0);
        assert_eq!(t.hot_spot(), Some(("b2", 3636.0)));
        assert_eq!(t.max_rate(), 3636.0);
        assert_eq!(t.total_rate(), 3786.0);
        assert_eq!(BusRateTable::new().max_rate(), 0.0);
        assert_eq!(BusRateTable::new().hot_spot(), None);
    }

    #[test]
    fn hot_spot_orders_nan_rates_without_panicking() {
        let mut t = BusRateTable::new();
        t.add("b1", f64::INFINITY / f64::INFINITY);
        t.add("b2", 7.0);
        let (bus, rate) = t.hot_spot().expect("nonempty");
        assert!(bus == "b2" || rate.is_nan(), "{bus} @ {rate}");
    }

    #[test]
    fn table_collects_from_iterator() {
        let t: BusRateTable = vec![("b1".to_string(), 1.0), ("b1".to_string(), 2.0)]
            .into_iter()
            .collect();
        assert_eq!(t.get("b1"), Some(3.0));
    }

    #[test]
    fn touch_registers_zero_traffic_bus() {
        let mut t = BusRateTable::new();
        t.touch("b9");
        assert_eq!(t.get("b9"), Some(0.0));
        assert_eq!(t.bus_count(), 1);
    }
}
