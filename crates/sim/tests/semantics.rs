//! Semantic tests for the simulator: sequencing, transitions, loops,
//! concurrency, signal handshakes, subroutine calls, and error paths.

use modref_sim::{SimConfig, SimError, SimKernel, SimResult, Simulator};
use modref_spec::builder::SpecBuilder;
use modref_spec::stmt::CallArg;
use modref_spec::subroutine::{param_in, param_out, Subroutine};
use modref_spec::types::{DataType, ScalarType};
use modref_spec::{expr, stmt, LValue, Spec};

#[test]
fn sequential_children_run_in_order() {
    let mut b = SpecBuilder::new("seq");
    let x = b.var_int("x", 16, 0);
    let a = b.leaf("A", vec![stmt::assign(x, expr::lit(1))]);
    let c = b.leaf(
        "C",
        vec![stmt::assign(x, expr::mul(expr::var(x), expr::lit(10)))],
    );
    let top = b.seq_in_order("Top", vec![a, c]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(10)); // 1 then *10
}

#[test]
fn guarded_transitions_select_successor() {
    // Figure 1(a): after A, x>1 goes to B; x<1 goes to C.
    for (init, expect) in [(5, 100), (-5, 7)] {
        let mut b = SpecBuilder::new("fig1");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![stmt::assign(x, expr::lit(init))]);
        let bb = b.leaf("B", vec![stmt::assign(x, expr::lit(100))]);
        let c = b.leaf("C", vec![stmt::assign(x, expr::lit(7))]);
        let arcs = vec![
            b.arc_when(a, expr::gt(expr::var(x), expr::lit(1)), bb),
            b.arc_when(a, expr::lt(expr::var(x), expr::lit(1)), c),
            b.arc_complete(bb),
            b.arc_complete(c),
        ];
        let top = b.seq("Top", vec![a, bb, c], arcs);
        let spec = b.finish(top).unwrap();
        let r = Simulator::new(&spec).run().unwrap();
        assert_eq!(r.var_by_name("x"), Some(expect), "init {init}");
    }
}

#[test]
fn transition_loops_execute_repeatedly() {
    // A seq composite that loops B until x >= 3.
    let mut b = SpecBuilder::new("loop");
    let x = b.var_int("x", 16, 0);
    let body = b.leaf(
        "Body",
        vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
    );
    let arcs = vec![
        b.arc_when(body, expr::lt(expr::var(x), expr::lit(3)), body),
        b.arc_complete_when(body, expr::ge(expr::var(x), expr::lit(3))),
    ];
    let top = b.seq("Top", vec![body], arcs);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(3));
}

#[test]
fn while_and_for_loops() {
    let mut b = SpecBuilder::new("loops");
    let x = b.var_int("x", 16, 0);
    let i = b.var_int("i", 16, 0);
    let sum = b.var_int("sum", 16, 0);
    let a = b.leaf(
        "A",
        vec![
            stmt::while_loop(
                expr::lt(expr::var(x), expr::lit(5)),
                vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
            ),
            stmt::for_loop(
                i,
                expr::lit(0),
                expr::lit(4),
                vec![stmt::assign(sum, expr::add(expr::var(sum), expr::var(i)))],
            ),
        ],
    );
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(5));
    assert_eq!(r.var_by_name("sum"), Some(1 + 2 + 3));
}

#[test]
fn concurrent_children_all_complete() {
    let mut b = SpecBuilder::new("conc");
    let x = b.var_int("x", 16, 0);
    let y = b.var_int("y", 16, 0);
    let p1 = b.leaf("P1", vec![stmt::assign(x, expr::lit(1))]);
    let p2 = b.leaf("P2", vec![stmt::assign(y, expr::lit(2))]);
    let top = b.concurrent("Top", vec![p1, p2]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(1));
    assert_eq!(r.var_by_name("y"), Some(2));
}

#[test]
fn signal_handshake_between_concurrent_behaviors() {
    // The paper's Figure 4(b) shape: controller raises start, worker runs
    // body and raises done, controller proceeds.
    let mut b = SpecBuilder::new("handshake");
    let start = b.signal_bit("B_start");
    let done = b.signal_bit("B_done");
    let x = b.var_int("x", 16, 0);
    let order = b.var_int("order", 16, 0);
    let ctrl = b.leaf(
        "B_CTRL",
        vec![
            stmt::assign(order, expr::lit(1)),
            stmt::set_signal(start, expr::lit(1)),
            stmt::wait_until(expr::eq(expr::signal(done), expr::lit(1))),
            // x must already be 42 here
            stmt::assign(order, expr::add(expr::var(x), expr::lit(1))),
        ],
    );
    let worker = b.leaf(
        "B_NEW",
        vec![
            stmt::wait_until(expr::eq(expr::signal(start), expr::lit(1))),
            stmt::assign(x, expr::lit(42)),
            stmt::set_signal(done, expr::lit(1)),
        ],
    );
    let top = b.concurrent("Top", vec![ctrl, worker]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(42));
    assert_eq!(r.var_by_name("order"), Some(43));
}

#[test]
fn wait_for_advances_time() {
    let mut b = SpecBuilder::new("time");
    let a = b.leaf("A", vec![stmt::wait_for(25), stmt::delay(17)]);
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.time, 42);
}

#[test]
fn concurrent_delays_overlap() {
    let mut b = SpecBuilder::new("overlap");
    let p1 = b.leaf("P1", vec![stmt::delay(30)]);
    let p2 = b.leaf("P2", vec![stmt::delay(40)]);
    let top = b.concurrent("Top", vec![p1, p2]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.time, 40); // parallel, not 70
}

#[test]
fn subroutine_call_binds_in_and_out_params() {
    let mut b = SpecBuilder::new("call");
    let x = b.var_int("x", 16, 0);
    let leaf = b.leaf("A", vec![]);
    let top = b.seq_in_order("Top", vec![leaf]);
    let mut spec = b.finish_unchecked(top);
    // subroutine add3(in a, out r) { $r := $a + 3; }
    let sub = spec.add_subroutine(Subroutine::new(
        "add3",
        vec![
            param_in("a", DataType::int(16)),
            param_out("r", DataType::int(16)),
        ],
        vec![modref_spec::Stmt::Assign {
            target: LValue::Param("r".into()),
            value: expr::add(expr::param("a"), expr::lit(3)),
        }],
    ));
    spec.behavior_mut(leaf).body_mut().unwrap().push(stmt::call(
        sub,
        vec![CallArg::In(expr::lit(4)), CallArg::Out(LValue::Var(x))],
    ));
    modref_spec::validate::check(&spec).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(7));
}

#[test]
fn nested_calls_use_innermost_frame() {
    let mut b = SpecBuilder::new("nested");
    let x = b.var_int("x", 16, 0);
    let leaf = b.leaf("A", vec![]);
    let top = b.seq_in_order("Top", vec![leaf]);
    let mut spec = b.finish_unchecked(top);
    let inner = spec.add_subroutine(Subroutine::new(
        "inner",
        vec![
            param_in("a", DataType::int(16)),
            param_out("r", DataType::int(16)),
        ],
        vec![modref_spec::Stmt::Assign {
            target: LValue::Param("r".into()),
            value: expr::mul(expr::param("a"), expr::lit(2)),
        }],
    ));
    // outer(a, r) { call inner(a+1, r_tmp -> $r) }
    let outer = spec.add_subroutine(Subroutine::new(
        "outer",
        vec![
            param_in("a", DataType::int(16)),
            param_out("r", DataType::int(16)),
        ],
        vec![stmt::call(
            inner,
            vec![
                CallArg::In(expr::add(expr::param("a"), expr::lit(1))),
                CallArg::Out(LValue::Param("r".into())),
            ],
        )],
    ));
    spec.behavior_mut(leaf).body_mut().unwrap().push(stmt::call(
        outer,
        vec![CallArg::In(expr::lit(10)), CallArg::Out(LValue::Var(x))],
    ));
    modref_spec::validate::check(&spec).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(22)); // (10+1)*2
}

#[test]
fn arrays_read_and_write_by_index() {
    let mut b = SpecBuilder::new("arr");
    let arr = b.var("buf", DataType::array(ScalarType::Int(16), 4), 0);
    let i = b.var_int("i", 16, 0);
    let sum = b.var_int("sum", 16, 0);
    let a = b.leaf(
        "A",
        vec![
            stmt::for_loop(
                i,
                expr::lit(0),
                expr::lit(4),
                vec![stmt::assign_index(
                    arr,
                    expr::var(i),
                    expr::mul(expr::var(i), expr::lit(3)),
                )],
            ),
            stmt::for_loop(
                i,
                expr::lit(0),
                expr::lit(4),
                vec![stmt::assign(
                    sum,
                    expr::add(expr::var(sum), expr::index(arr, expr::var(i))),
                )],
            ),
        ],
    );
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("sum"), Some(3 + 6 + 9));
    assert_eq!(r.array_by_name("buf"), Some(&[0, 3, 6, 9][..]));
}

#[test]
fn deadlock_is_reported() {
    let mut b = SpecBuilder::new("dead");
    let never = b.signal_bit("never");
    let a = b.leaf(
        "A",
        vec![stmt::wait_until(expr::eq(
            expr::signal(never),
            expr::lit(1),
        ))],
    );
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).unwrap();
    match Simulator::new(&spec).run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert!(blocked.contains(&"Top".to_string()));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn zero_time_livelock_hits_step_limit() {
    let mut b = SpecBuilder::new("spin");
    let x = b.var_int("x", 16, 0);
    let a = b.leaf(
        "A",
        vec![stmt::infinite_loop(vec![stmt::assign(x, expr::lit(1))])],
    );
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).unwrap();
    let sim = Simulator::with_config(
        &spec,
        SimConfig {
            max_steps: 10_000,
            ..SimConfig::default()
        },
    );
    assert!(matches!(sim.run(), Err(SimError::StepLimitExceeded { .. })));
}

#[test]
fn infinite_server_is_terminated_when_root_completes() {
    // A memory-style server loop plus a client that makes one request.
    let mut b = SpecBuilder::new("server");
    let req = b.signal_bit("req");
    let ack = b.signal_bit("ack");
    let data = b.var_int("data", 16, 0);
    let out = b.var_int("out", 16, 0);
    let server = b.leaf_server(
        "Memory",
        vec![stmt::infinite_loop(vec![
            stmt::wait_until(expr::eq(expr::signal(req), expr::lit(1))),
            stmt::assign(data, expr::lit(99)),
            stmt::set_signal(ack, expr::lit(1)),
            stmt::wait_until(expr::eq(expr::signal(req), expr::lit(0))),
            stmt::set_signal(ack, expr::lit(0)),
        ])],
    );
    let client = b.leaf(
        "Client",
        vec![
            stmt::set_signal(req, expr::lit(1)),
            stmt::wait_until(expr::eq(expr::signal(ack), expr::lit(1))),
            stmt::assign(out, expr::var(data)),
            stmt::set_signal(req, expr::lit(0)),
        ],
    );
    // The server is marked `server`: the concurrent composite completes
    // when the client (its only non-server child) completes, and the
    // eternal Memory loop is then terminated — exactly the shape the
    // refinement engine produces for memory modules and arbiters.
    let top = b.concurrent("Top", vec![client, server]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().expect("completes past server");
    assert_eq!(r.var_by_name("out"), Some(99));
}

#[test]
fn fixed_width_wrapping_matches_hardware() {
    let mut b = SpecBuilder::new("wrap");
    let x = b.var("x", DataType::uint(8), 0);
    let a = b.leaf("A", vec![stmt::assign(x, expr::lit(260))]);
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).unwrap();
    let r = Simulator::new(&spec).run().unwrap();
    assert_eq!(r.var_by_name("x"), Some(4));
}

/// Runs `spec` under all three kernels with `max_steps`, asserts that
/// they agree (equal results and scheduler work, or equal errors) and
/// returns the compiled kernel's outcome.
fn run_three(spec: &Spec, max_steps: u64) -> Result<SimResult, SimError> {
    let run = |kernel| {
        Simulator::with_config(
            spec,
            SimConfig {
                max_steps,
                kernel,
                ..SimConfig::default()
            },
        )
        .run()
    };
    let compiled = run(SimKernel::Compiled);
    let event = run(SimKernel::EventDriven);
    let reference = run(SimKernel::RoundRobin);
    match (&compiled, &event, &reference) {
        (Ok(c), Ok(e), Ok(r)) => {
            assert_eq!(e, r, "event vs reference");
            assert_eq!(c, e, "compiled vs event");
            let (cs, es) = (&c.sched, &e.sched);
            assert_eq!(
                (cs.rounds, cs.cond_evals, cs.wakeups, cs.timer_pops),
                (es.rounds, es.cond_evals, es.wakeups, es.timer_pops),
                "compiled vs event work"
            );
            assert_eq!((es.rounds, es.wakeups), (r.sched.rounds, r.sched.wakeups));
            assert_eq!(cs.instrs, c.steps, "one instruction per step");
        }
        _ => {
            assert_eq!(event, reference, "event vs reference verdicts");
            assert_eq!(compiled, event, "compiled vs event verdicts");
        }
    }
    compiled
}

/// A process whose wait condition came true must still re-check it when
/// a lower-pid process, woken in the same round, clears the signal first.
#[test]
fn woken_wait_reblocks_after_an_earlier_write_in_the_round() {
    let mut b = SpecBuilder::new("resume");
    let go = b.signal_bit("go");
    let phase = b.var_int("phase", 16, 0);
    let seen = b.var_int("seen", 16, 0);
    let cleared = b.var_int("cleared", 16, 0);
    let go_is_set = || expr::eq(expr::signal(go), expr::lit(1));
    // Lowest pid: consumes the first `go` and clears it.
    let clearer = b.leaf(
        "Clearer",
        vec![
            stmt::wait_until(go_is_set()),
            stmt::set_signal(go, expr::lit(0)),
            stmt::assign(cleared, expr::var(phase)),
        ],
    );
    // Woken by the same `go`, but runs after the clear: must block again
    // and pass only on the second `go`.
    let waiter = b.leaf(
        "Waiter",
        vec![
            stmt::wait_until(go_is_set()),
            stmt::assign(seen, expr::var(phase)),
        ],
    );
    let setter = b.leaf(
        "Setter",
        vec![
            stmt::delay(1),
            stmt::assign(phase, expr::lit(1)),
            stmt::set_signal(go, expr::lit(1)),
            stmt::delay(1),
            stmt::assign(phase, expr::lit(2)),
            stmt::set_signal(go, expr::lit(1)),
        ],
    );
    let top = b.concurrent("Top", vec![clearer, waiter, setter]);
    let spec = b.finish(top).unwrap();
    let r = run_three(&spec, 10_000).expect("completes");
    assert_eq!(r.var_by_name("cleared"), Some(1));
    assert_eq!(
        r.var_by_name("seen"),
        Some(2),
        "waiter passed a cleared `go`"
    );
    // Both wake on the first `go`, the waiter again on the second.
    assert_eq!(r.sched.wakeups, 3);
}

/// A resumed wait is one counted step: every step budget trips at the
/// same step under every kernel, including the budgets that end exactly
/// on a resumed `wait until`.
#[test]
fn resumed_waits_count_against_the_step_limit() {
    let mut b = SpecBuilder::new("budget");
    let req = b.signal_bit("req");
    let ack = b.signal_bit("ack");
    let n = b.var_int("n", 16, 0);
    let server = b.leaf_server(
        "Server",
        vec![stmt::infinite_loop(vec![
            stmt::wait_until(expr::eq(expr::signal(req), expr::lit(1))),
            stmt::set_signal(ack, expr::lit(1)),
            stmt::wait_until(expr::eq(expr::signal(req), expr::lit(0))),
            stmt::set_signal(ack, expr::lit(0)),
        ])],
    );
    let client = b.leaf(
        "Client",
        vec![stmt::for_loop(
            n,
            expr::lit(0),
            expr::lit(3),
            vec![
                stmt::set_signal(req, expr::lit(1)),
                stmt::wait_until(expr::eq(expr::signal(ack), expr::lit(1))),
                stmt::set_signal(req, expr::lit(0)),
                stmt::wait_until(expr::eq(expr::signal(ack), expr::lit(0))),
            ],
        )],
    );
    let top = b.concurrent("Top", vec![client, server]);
    let spec = b.finish(top).unwrap();
    let full = run_three(&spec, 10_000).expect("completes");
    assert!(full.sched.wakeups > 0);
    for limit in 1..full.steps {
        let err = run_three(&spec, limit).expect_err("over budget");
        assert_eq!(err, SimError::StepLimitExceeded { limit });
    }
    assert!(run_three(&spec, full.steps).is_ok());
}

/// `||` and `&&` yield 0 or 1 whatever their terms are, and stop at the
/// deciding term without changing the value.
#[test]
fn logical_chains_yield_booleans() {
    let mut b = SpecBuilder::new("chains");
    let s = b.signal_bit("s");
    let x = b.var_int("x", 16, 5);
    let y = b.var_int("y", 16, 0);
    let outs: Vec<_> = (0..6).map(|i| b.var_int(format!("o{i}"), 16, -1)).collect();
    let xv = || expr::var(x);
    let yv = || expr::var(y);
    let a = b.leaf(
        "A",
        vec![
            // 5 || 0 || s: the first term decides, the value is 1.
            stmt::assign(outs[0], expr::or(expr::or(xv(), yv()), expr::signal(s))),
            // 0 || s || 0
            stmt::assign(outs[1], expr::or(expr::or(yv(), expr::signal(s)), yv())),
            // 5 && 7 && x - 5
            stmt::assign(
                outs[2],
                expr::and(expr::and(xv(), expr::lit(7)), expr::sub(xv(), expr::lit(5))),
            ),
            // (x && x && x) * 3
            stmt::assign(
                outs[3],
                expr::mul(expr::and(expr::and(xv(), xv()), xv()), expr::lit(3)),
            ),
            // 1 || 0 || 0 folds to 1; 0 && x && 1 stays a chain.
            stmt::assign(
                outs[4],
                expr::or(expr::or(expr::lit(1), expr::lit(0)), expr::lit(0)),
            ),
            stmt::assign(
                outs[5],
                expr::and(expr::and(expr::lit(0), xv()), expr::lit(1)),
            ),
        ],
    );
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).unwrap();
    let r = run_three(&spec, 10_000).expect("completes");
    let got: Vec<_> = (0..6)
        .map(|i| r.var_by_name(&format!("o{i}")).unwrap())
        .collect();
    assert_eq!(got, vec![1, 0, 0, 3, 1, 0]);
}

/// Comparisons of a signal or variable with a literal, in `if`, `while`
/// and `wait until` conditions and as values, agree across kernels.
#[test]
fn fused_comparisons_in_branches_loops_and_waits() {
    let mut b = SpecBuilder::new("fused");
    let s = b.signal("s", DataType::uint(4), 0);
    let i = b.var_int("i", 16, 0);
    let hits = b.var_int("hits", 16, 0);
    let neg = b.var_int("neg", 16, 0);
    let producer = b.leaf(
        "Producer",
        vec![stmt::while_loop(
            expr::lt(expr::var(i), expr::lit(6)),
            vec![
                stmt::delay(1),
                stmt::set_signal(s, expr::add(expr::signal(s), expr::lit(3))),
                stmt::if_else(
                    expr::ge(expr::signal(s), expr::lit(9)),
                    vec![stmt::assign(hits, expr::add(expr::var(hits), expr::lit(1)))],
                    vec![],
                ),
                stmt::assign(i, expr::add(expr::var(i), expr::lit(1))),
            ],
        )],
    );
    let consumer = b.leaf(
        "Consumer",
        vec![
            stmt::wait_until(expr::eq(expr::signal(s), expr::lit(12))),
            stmt::assign(neg, expr::sub(expr::var(i), expr::lit(100))),
        ],
    );
    let top = b.concurrent("Top", vec![producer, consumer]);
    let spec = b.finish(top).unwrap();
    let r = run_three(&spec, 10_000).expect("completes");
    // s counts 3, 6, 9, 12, 15 (wraps to 15 at uint<4>), 18 -> 2.
    assert_eq!(r.var_by_name("hits"), Some(3));
    assert_eq!(r.var_by_name("neg"), Some(4 - 100));
}
