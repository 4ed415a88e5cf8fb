//! The access graph and its derivation from a specification.

use std::collections::HashMap;

use modref_spec::{BehaviorId, Spec, TransitionTarget, VarId};

use crate::access::{count_accesses, AccessCounts};
use crate::channel::{Channel, ChannelId, ChannelKind, Direction};

/// The derived access graph of a specification: behaviors and variables
/// as nodes, data/control [`Channel`]s as edges.
///
/// # Example
///
/// ```
/// use modref_spec::builder::SpecBuilder;
/// use modref_spec::{expr, stmt};
/// use modref_graph::AccessGraph;
///
/// let mut b = SpecBuilder::new("g");
/// let x = b.var_int("x", 16, 0);
/// let a = b.leaf("A", vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(5)))]);
/// let top = b.seq_in_order("Top", vec![a]);
/// let spec = b.finish(top)?;
/// let graph = AccessGraph::derive(&spec);
/// assert_eq!(graph.data_channels().count(), 2); // read x, write x
/// # Ok::<(), modref_spec::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccessGraph {
    channels: Vec<Channel>,
    counts: HashMap<BehaviorId, AccessCounts>,
    by_var: HashMap<VarId, Vec<ChannelId>>,
    by_behavior: HashMap<BehaviorId, Vec<ChannelId>>,
}

impl AccessGraph {
    /// Derives the access graph of `spec`.
    pub fn derive(spec: &Spec) -> Self {
        let mut channels = Vec::new();
        let mut counts = HashMap::new();
        let mut by_var: HashMap<VarId, Vec<ChannelId>> = HashMap::new();
        let mut by_behavior: HashMap<BehaviorId, Vec<ChannelId>> = HashMap::new();

        let push = |kind: ChannelKind,
                    channels: &mut Vec<Channel>,
                    by_var: &mut HashMap<VarId, Vec<ChannelId>>,
                    by_behavior: &mut HashMap<BehaviorId, Vec<ChannelId>>| {
            let id = ChannelId(channels.len() as u32);
            if let ChannelKind::Data { behavior, var, .. } = &kind {
                by_var.entry(*var).or_default().push(id);
                by_behavior.entry(*behavior).or_default().push(id);
            }
            channels.push(Channel { id, kind });
        };

        for behavior in spec.reachable() {
            let acc = count_accesses(spec, behavior);

            // Data channels: one per (behavior, var, direction). The
            // access maps are hashed; sort by variable id so channel
            // ids — and everything ordered by them, like tie-breaks in
            // the estimation report — are identical across derivations.
            let in_declaration_order = |m: &HashMap<VarId, f64>| {
                let mut entries: Vec<(VarId, f64)> = m.iter().map(|(&v, &n)| (v, n)).collect();
                entries.sort_by_key(|(v, _)| *v);
                entries
            };
            for (var, n) in in_declaration_order(&acc.reads) {
                if n <= 0.0 {
                    continue;
                }
                let in_guard = acc.guard_reads.contains_key(&var);
                push(
                    ChannelKind::Data {
                        behavior,
                        var,
                        direction: Direction::Read,
                        accesses: n,
                        bits_per_access: spec.variable(var).ty().access_width(),
                        in_guard,
                    },
                    &mut channels,
                    &mut by_var,
                    &mut by_behavior,
                );
            }
            for (var, n) in in_declaration_order(&acc.writes) {
                if n <= 0.0 {
                    continue;
                }
                push(
                    ChannelKind::Data {
                        behavior,
                        var,
                        direction: Direction::Write,
                        accesses: n,
                        bits_per_access: spec.variable(var).ty().access_width(),
                        in_guard: false,
                    },
                    &mut channels,
                    &mut by_var,
                    &mut by_behavior,
                );
            }

            // Control channels from transition arcs.
            for t in spec.behavior(behavior).transitions() {
                if let TransitionTarget::Behavior(to) = t.to {
                    push(
                        ChannelKind::Control { from: t.from, to },
                        &mut channels,
                        &mut by_var,
                        &mut by_behavior,
                    );
                }
            }

            counts.insert(behavior, acc);
        }

        Self {
            channels,
            counts,
            by_var,
            by_behavior,
        }
    }

    /// All channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Looks up a channel by id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this graph.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Iterates over data channels only.
    pub fn data_channels(&self) -> impl Iterator<Item = &Channel> {
        self.channels.iter().filter(|c| c.is_data())
    }

    /// Iterates over control channels only.
    pub fn control_channels(&self) -> impl Iterator<Item = &Channel> {
        self.channels.iter().filter(|c| !c.is_data())
    }

    /// Channels touching a given variable.
    pub fn channels_of_var(&self, var: VarId) -> impl Iterator<Item = &Channel> {
        self.by_var
            .get(&var)
            .into_iter()
            .flatten()
            .map(|id| self.channel(*id))
    }

    /// Data channels originating from a given behavior.
    pub fn channels_of_behavior(&self, behavior: BehaviorId) -> impl Iterator<Item = &Channel> {
        self.by_behavior
            .get(&behavior)
            .into_iter()
            .flatten()
            .map(|id| self.channel(*id))
    }

    /// The distinct behaviors that access a variable.
    pub fn behaviors_accessing(&self, var: VarId) -> Vec<BehaviorId> {
        let mut out: Vec<BehaviorId> = self
            .channels_of_var(var)
            .filter_map(Channel::behavior)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The distinct behaviors that *write* a variable — the subset of
    /// [`behaviors_accessing`](Self::behaviors_accessing) with a
    /// write-direction data channel. Race detection keys on this: a
    /// shared variable is only a race candidate when at least one of its
    /// concurrent accessors appears here.
    pub fn writers_of(&self, var: VarId) -> Vec<BehaviorId> {
        let mut out: Vec<BehaviorId> = self
            .channels_of_var(var)
            .filter_map(|c| match c.kind() {
                ChannelKind::Data {
                    behavior,
                    direction: Direction::Write,
                    ..
                } => Some(*behavior),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The access counts computed for a behavior during derivation.
    pub fn counts(&self, behavior: BehaviorId) -> Option<&AccessCounts> {
        self.counts.get(&behavior)
    }

    /// Total estimated bits moved between `behavior` and `var` per
    /// activation, summing both directions.
    pub fn traffic(&self, behavior: BehaviorId, var: VarId) -> f64 {
        self.channels_of_behavior(behavior)
            .filter(|c| c.var() == Some(var))
            .map(Channel::bits_per_activation)
            .sum()
    }

    /// Number of data channels — the paper reports "52 data-access
    /// channels" for the medical system.
    pub fn data_channel_count(&self) -> usize {
        self.data_channels().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    fn fig1_spec() -> (Spec, BehaviorId, BehaviorId, BehaviorId, BehaviorId, VarId) {
        // Figure 1(a): A writes x, guards read x, B reads x, C writes x.
        let mut b = SpecBuilder::new("fig1");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![stmt::assign(x, expr::lit(5))]);
        let bb = b.leaf(
            "B",
            vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
        );
        let c = b.leaf("C", vec![stmt::assign(x, expr::lit(2))]);
        let arcs = vec![
            b.arc_when(a, expr::gt(expr::var(x), expr::lit(1)), bb),
            b.arc_when(a, expr::lt(expr::var(x), expr::lit(1)), c),
        ];
        let top = b.seq("Top", vec![a, bb, c], arcs);
        let spec = b.finish(top).expect("valid");
        (spec, top, a, bb, c, x)
    }

    #[test]
    fn derives_data_and_control_channels() {
        let (spec, top, a, bb, c, x) = fig1_spec();
        let g = AccessGraph::derive(&spec);
        // Control arcs A->B, A->C.
        let controls: Vec<_> = g.control_channels().collect();
        assert_eq!(controls.len(), 2);
        // Behaviors accessing x: A (write), B (r+w), C (write), Top (guards).
        let accessors = g.behaviors_accessing(x);
        assert!(accessors.contains(&a));
        assert!(accessors.contains(&bb));
        assert!(accessors.contains(&c));
        assert!(accessors.contains(&top));
    }

    #[test]
    fn guard_channels_are_marked() {
        let (spec, top, _, _, _, x) = fig1_spec();
        let g = AccessGraph::derive(&spec);
        let guard_channel = g
            .channels_of_behavior(top)
            .find(|ch| ch.var() == Some(x))
            .expect("composite has a guard channel");
        match guard_channel.kind() {
            ChannelKind::Data { in_guard, .. } => assert!(in_guard),
            other => panic!("expected data channel, got {other:?}"),
        }
    }

    #[test]
    fn traffic_accumulates_bits() {
        let (spec, _, _, bb, _, x) = fig1_spec();
        let g = AccessGraph::derive(&spec);
        // B: one read + one write of a 16-bit variable = 32 bits.
        assert_eq!(g.traffic(bb, x), 32.0);
    }

    #[test]
    fn channels_of_var_matches_by_behavior_view() {
        let (spec, _, _, _, _, x) = fig1_spec();
        let g = AccessGraph::derive(&spec);
        let by_var: Vec<_> = g.channels_of_var(x).map(Channel::id).collect();
        for id in by_var {
            assert_eq!(g.channel(id).var(), Some(x));
        }
    }

    #[test]
    fn counts_are_cached_per_behavior() {
        let (spec, _, a, _, _, x) = fig1_spec();
        let g = AccessGraph::derive(&spec);
        let counts = g.counts(a).expect("counted");
        assert_eq!(counts.writes[&x], 1.0);
    }
}
