//! Deeper composition semantics: nested concurrency, mixed arc and
//! fall-through scheduling, cross-process data flow through signals, and
//! timing interactions.

use modref_sim::{SimConfig, SimError, SimKernel, Simulator};
use modref_spec::builder::SpecBuilder;
use modref_spec::{expr, stmt};

#[test]
fn seq_inside_conc_inside_seq() {
    let mut b = SpecBuilder::new("nest");
    let x = b.var_int("x", 16, 0);
    let y = b.var_int("y", 16, 0);
    let a1 = b.leaf(
        "A1",
        vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
    );
    let a2 = b.leaf(
        "A2",
        vec![stmt::assign(x, expr::mul(expr::var(x), expr::lit(3)))],
    );
    let seq_a = b.seq_in_order("SeqA", vec![a1, a2]);
    let b1 = b.leaf("B1", vec![stmt::assign(y, expr::lit(10))]);
    let par = b.concurrent("Par", vec![seq_a, b1]);
    let finish = b.leaf(
        "Finish",
        vec![stmt::assign(y, expr::add(expr::var(y), expr::var(x)))],
    );
    let top = b.seq_in_order("Top", vec![par, finish]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    // SeqA: (0+1)*3 = 3; Par completes when both done; Finish: 10 + 3.
    assert_eq!(r.var_by_name("y"), Some(13));
}

#[test]
fn conc_inside_conc() {
    let mut b = SpecBuilder::new("cc");
    let total = b.var_int("total", 16, 0);
    let leaves: Vec<_> = (0..4)
        .map(|i| {
            b.leaf(
                format!("L{i}"),
                vec![stmt::assign(
                    total,
                    expr::add(expr::var(total), expr::lit(1 << i)),
                )],
            )
        })
        .collect();
    let inner1 = b.concurrent("Inner1", vec![leaves[0], leaves[1]]);
    let inner2 = b.concurrent("Inner2", vec![leaves[2], leaves[3]]);
    let top = b.concurrent("Top", vec![inner1, inner2]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    // All four increments land (no preemption mid-statement).
    assert_eq!(r.var_by_name("total"), Some(0b1111));
}

#[test]
fn mixed_arcs_and_fall_through() {
    // A has no explicit arcs (falls through to B); B has guarded arcs.
    let mut b = SpecBuilder::new("mixed");
    let x = b.var_int("x", 16, 0);
    let a = b.leaf("A", vec![stmt::assign(x, expr::lit(1))]);
    let bb = b.leaf(
        "B",
        vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
    );
    let c = b.leaf(
        "C",
        vec![stmt::assign(x, expr::mul(expr::var(x), expr::lit(100)))],
    );
    let arcs = vec![
        b.arc_when(bb, expr::lt(expr::var(x), expr::lit(3)), bb), // self-loop
        b.arc_when(bb, expr::ge(expr::var(x), expr::lit(3)), c),
        b.arc_complete(c),
    ];
    let top = b.seq("Top", vec![a, bb, c], arcs);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    // x: 1, then B runs until x = 3, then C: 300.
    assert_eq!(r.var_by_name("x"), Some(300));
}

#[test]
fn no_matching_arc_completes_composite() {
    let mut b = SpecBuilder::new("noarc");
    let x = b.var_int("x", 16, 0);
    let a = b.leaf("A", vec![stmt::assign(x, expr::lit(5))]);
    let never = b.leaf("Never", vec![stmt::assign(x, expr::lit(-1))]);
    // Only arc from A requires x < 0: never fires, so Top completes
    // without running Never.
    let arcs = vec![b.arc_when(a, expr::lt(expr::var(x), expr::lit(0)), never)];
    let top = b.seq("Top", vec![a, never], arcs);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(5));
}

#[test]
fn producer_consumer_through_signals_with_timing() {
    let mut b = SpecBuilder::new("pc");
    let data = b.signal("chan", modref_spec::DataType::int(16), 0);
    let valid = b.signal_bit("valid");
    let seen = b.var_int("seen", 16, 0);
    let count = b.var_int("count", 16, 0);
    let producer = b.leaf(
        "Producer",
        vec![
            stmt::delay(10),
            stmt::set_signal(data, expr::lit(7)),
            stmt::set_signal(valid, expr::lit(1)),
        ],
    );
    let consumer = b.leaf(
        "Consumer",
        vec![
            stmt::wait_until(expr::eq(expr::signal(valid), expr::lit(1))),
            stmt::assign(seen, expr::signal(data)),
            stmt::assign(count, expr::add(expr::var(count), expr::lit(1))),
        ],
    );
    let top = b.concurrent("Top", vec![producer, consumer]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("seen"), Some(7));
    assert_eq!(r.var_by_name("count"), Some(1));
    assert_eq!(r.time, 10);
}

#[test]
fn wait_until_on_variable_condition() {
    // Waiting on a *variable* (not signal) set by a sibling process.
    let mut b = SpecBuilder::new("varwait");
    let flag = b.var_int("flag", 16, 0);
    let out = b.var_int("out", 16, 0);
    let setter = b.leaf(
        "Setter",
        vec![stmt::delay(5), stmt::assign(flag, expr::lit(1))],
    );
    let waiter = b.leaf(
        "Waiter",
        vec![
            stmt::wait_until(expr::eq(expr::var(flag), expr::lit(1))),
            stmt::assign(out, expr::lit(99)),
        ],
    );
    let top = b.concurrent("Top", vec![setter, waiter]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("out"), Some(99));
}

#[test]
fn empty_composites_complete_immediately() {
    let mut b = SpecBuilder::new("empty");
    let x = b.var_int("x", 16, 0);
    let empty_seq = b.seq_in_order("EmptySeq", vec![]);
    let empty_conc = b.concurrent("EmptyConc", vec![]);
    let after = b.leaf("After", vec![stmt::assign(x, expr::lit(1))]);
    let top = b.seq_in_order("Top", vec![empty_seq, empty_conc, after]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(1));
}

#[test]
fn guard_reads_current_values_at_completion_time() {
    // The guard is evaluated when the child completes, against shared
    // state a concurrent process may have changed meanwhile.
    let mut b = SpecBuilder::new("guardtime");
    let gate = b.var_int("gate", 16, 0);
    let out = b.var_int("out", 16, 0);
    let slow = b.leaf("Slow", vec![stmt::delay(20)]);
    let yes = b.leaf("Yes", vec![stmt::assign(out, expr::lit(1))]);
    let no = b.leaf("No", vec![stmt::assign(out, expr::lit(2))]);
    let arcs = vec![
        b.arc_when(slow, expr::eq(expr::var(gate), expr::lit(1)), yes),
        b.arc_when(slow, expr::ne(expr::var(gate), expr::lit(1)), no),
        b.arc_complete(yes),
        b.arc_complete(no),
    ];
    let chooser = b.seq("Chooser", vec![slow, yes, no], arcs);
    let setter = b.leaf(
        "Setter",
        vec![stmt::delay(5), stmt::assign(gate, expr::lit(1))],
    );
    let top = b.concurrent("Top", vec![chooser, setter]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    // Setter fires at t=5, Slow completes at t=20 -> gate already 1.
    assert_eq!(r.var_by_name("out"), Some(1));
}

#[test]
fn deadlock_lists_every_blocked_behavior() {
    let mut b = SpecBuilder::new("dl");
    let s = b.signal_bit("never");
    let w1 = b.leaf(
        "W1",
        vec![stmt::wait_until(expr::eq(expr::signal(s), expr::lit(1)))],
    );
    let w2 = b.leaf(
        "W2",
        vec![stmt::wait_until(expr::eq(expr::signal(s), expr::lit(1)))],
    );
    let top = b.concurrent("Top", vec![w1, w2]);
    let spec = b.finish(top).unwrap();
    match Simulator::new(&spec).run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert!(blocked.contains(&"W1".to_string()));
            assert!(blocked.contains(&"W2".to_string()));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn signal_values_wrap_to_their_type() {
    let mut b = SpecBuilder::new("wrap");
    let s = b.signal("narrow", modref_spec::DataType::uint(4), 0);
    let x = b.var_int("x", 16, 0);
    let a = b.leaf(
        "A",
        vec![
            stmt::set_signal(s, expr::lit(300)), // 300 % 16 = 12
            stmt::assign(x, expr::signal(s)),
        ],
    );
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(12));
    assert_eq!(r.signal_by_name("narrow"), Some(12));
}

#[test]
fn activation_profile_counts_loop_visits() {
    // The medical-system shape: a composite looped by a guarded arc —
    // every child activates once per loop pass.
    let mut b = SpecBuilder::new("prof");
    let n = b.var_int("n", 16, 0);
    let work = b.leaf(
        "Work",
        vec![stmt::assign(n, expr::add(expr::var(n), expr::lit(1)))],
    );
    let arcs = vec![
        b.arc_when(work, expr::lt(expr::var(n), expr::lit(3)), work),
        b.arc_complete(work),
    ];
    let looped = b.seq("Looped", vec![work], arcs);
    let once = b.leaf(
        "Once",
        vec![stmt::assign(n, expr::mul(expr::var(n), expr::lit(10)))],
    );
    let top = b.seq_in_order("Top", vec![looped, once]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.activations_of("Work"), Some(3));
    assert_eq!(r.activations_of("Once"), Some(1));
    assert_eq!(r.activations_of("Looped"), Some(1));
    assert_eq!(r.activations_of("Top"), Some(1));
    // Iterator view covers every behavior.
    assert_eq!(r.activations().count(), spec.behavior_count());
}

/// A server woken in the same round its parent's last worker completes
/// is killed before it can run again: every kernel leaves its counter
/// untouched.
#[test]
fn server_woken_as_its_parent_completes_stays_dead() {
    let mut b = SpecBuilder::new("killwake");
    let req = b.signal_bit("req");
    let x = b.var_int("x", 16, 0);
    let worker = b.leaf(
        "Worker",
        vec![stmt::delay(1), stmt::set_signal(req, expr::lit(1))],
    );
    let server = b.leaf_server(
        "Server",
        vec![stmt::infinite_loop(vec![
            stmt::wait_until(expr::eq(expr::signal(req), expr::lit(1))),
            stmt::assign(x, expr::add(expr::var(x), expr::lit(1))),
            stmt::wait_until(expr::eq(expr::signal(req), expr::lit(0))),
        ])],
    );
    let top = b.concurrent("Top", vec![worker, server]);
    let spec = b.finish(top).unwrap();
    let reference = run(&spec, SimKernel::RoundRobin);
    assert_eq!(reference.var_by_name("x"), Some(0));
    for kernel in [SimKernel::EventDriven, SimKernel::Compiled] {
        assert_eq!(run(&spec, kernel), reference, "{kernel:?}");
    }
}

fn run(spec: &modref_spec::Spec, kernel: SimKernel) -> modref_sim::SimResult {
    let config = SimConfig {
        kernel,
        ..SimConfig::default()
    };
    Simulator::with_config(spec, config).run().unwrap()
}
