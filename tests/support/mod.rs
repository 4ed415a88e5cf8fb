//! Architecture consistency: the netlist a refinement reports describes
//! the refined specification it comes with. Shared by the refine tests
//! (`mod support;`).

use std::collections::HashSet;

use modref::core::{bus_name, Refined};
use modref::graph::AccessGraph;
use modref::spec::{visit, BehaviorId, Expr, SignalId, Spec, Stmt};

/// Panics, naming `label`, unless `refined`'s architecture agrees with
/// its spec. `orig` and `graph` are the specification that was refined
/// and its access graph.
///
/// * Each master writes its bus's start wire, directly or through a
///   subroutine it calls (an arbitrated master's protocol raises its
///   request and then the start wire).
/// * Each slave reads that wire.
/// * No bus has masters without slaves, or slaves without masters.
/// * Each `channel_buses` route starts on a bus that the accessing
///   behavior masters and ends on a bus that a port of the variable's
///   memory serves.
pub fn assert_consistent(label: &str, orig: &Spec, graph: &AccessGraph, refined: &Refined) {
    let out = &refined.spec;
    let arch = &refined.architecture;
    for (idx, bus) in arch.buses.iter().enumerate() {
        let name = bus_name(idx);
        // The refiner declares bus wires after copying the original
        // signals and variables, under the first name they leave free.
        let wire = orig.fresh_signal_name(&format!("{name}_start"));
        let start = out
            .signal_by_name(&wire)
            .unwrap_or_else(|| panic!("{label}: bus `{name}` has no start wire `{wire}`"));
        assert_eq!(
            bus.masters.is_empty(),
            bus.slaves.is_empty(),
            "{label}: bus `{name}` has masters [{}] and slaves [{}]",
            refined.names(&bus.masters),
            refined.names(&bus.slaves)
        );
        for &m in &bus.masters {
            assert!(
                signals(out, m, true).contains(&start),
                "{label}: master `{}` never writes `{wire}`",
                refined.name(m)
            );
        }
        for &s in &bus.slaves {
            assert!(
                signals(out, s, false).contains(&start),
                "{label}: slave `{}` never reads `{wire}`",
                refined.name(s)
            );
        }
    }
    for (&ch, route) in &refined.channel_buses {
        let ch = graph.channel(ch);
        let (Some(b), Some(v), Some(&first), Some(&last)) =
            (ch.behavior(), ch.var(), route.first(), route.last())
        else {
            continue;
        };
        let accessor = orig.behavior(b).name();
        let stand_ins = stand_ins(orig, out, b);
        assert!(
            arch.buses[first]
                .masters
                .iter()
                .any(|m| stand_ins.contains(m)),
            "{label}: `{accessor}` masters no behavior on `{}`, where its route starts",
            bus_name(first)
        );
        let var = orig.variable(v).name();
        let mem = arch
            .memories
            .iter()
            .find(|m| m.vars.contains(&v))
            .unwrap_or_else(|| panic!("{label}: `{var}` is routed but in no memory"));
        assert!(
            mem.port_buses.contains(&last),
            "{label}: the route of `{accessor}` to `{var}` ends on `{}`, which no port of `{}` serves",
            bus_name(last),
            refined.memory_name(mem)
        );
    }
}

/// The refined behaviors issuing original behavior `b`'s bus calls: a
/// leaf's copy or its `_NEW` wrapper, and for a composite, whose
/// transition guards read variables, the leaves of its copy, which run
/// the guard fetches.
fn stand_ins(orig: &Spec, out: &Spec, b: BehaviorId) -> Vec<BehaviorId> {
    let name = orig.behavior(b).name();
    if orig.behavior(b).is_leaf() {
        [name.to_string(), format!("{name}_NEW")]
            .iter()
            .filter_map(|n| out.behavior_by_name(n))
            .collect()
    } else {
        let copy = out
            .behavior_by_name(name)
            .expect("composites keep their names");
        let children = out.behavior(copy).children();
        children
            .iter()
            .copied()
            .filter(|&c| out.behavior(c).is_leaf())
            .collect()
    }
}

/// The signals leaf `id` writes (`write`) or reads, directly or in the
/// subroutines it calls, transitively.
fn signals(spec: &Spec, id: BehaviorId, write: bool) -> HashSet<SignalId> {
    let mut found = HashSet::new();
    let mut called = HashSet::new();
    let mut bodies = vec![spec.behavior(id).body().expect("bus agents are leaves")];
    while let Some(body) = bodies.pop() {
        visit::for_each_stmt(body, &mut |s| match s {
            Stmt::SignalSet { signal, .. } if write => {
                found.insert(*signal);
            }
            Stmt::Call { sub, .. } if called.insert(*sub) => {
                bodies.push(spec.subroutine(*sub).body());
            }
            _ => {}
        });
        if !write {
            visit::for_each_expr(body, &mut |e| {
                if let Expr::Signal(s) = e {
                    found.insert(*s);
                }
            });
        }
    }
    found
}
