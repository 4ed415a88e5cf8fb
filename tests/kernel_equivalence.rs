//! Kernel-equivalence property tests: the event-driven scheduler and the
//! compiled bytecode kernel must be observationally indistinguishable
//! from the reference round-robin scheduler.
//!
//! The event-driven kernel only re-evaluates `wait until` conditions
//! whose sensitivity sets were written, wakes sleepers from a timer heap,
//! and counts pending children instead of rescanning — all pure
//! scheduling-work optimizations. The compiled kernel additionally lowers
//! every behavior to flat bytecode with slot-interned operands, replacing
//! the tree-walking interpreter entirely. These properties pin down that
//! both are *only* that: for the named workloads, for random synthetic
//! specs, and for their Model1–4 refinements (which add the signal
//! handshakes, protocol subroutines, arbiters and server loops the
//! optimizations target), all three kernels must produce identical
//! observable variable values, final time, step counts and — on failing
//! runs — identical deadlock/step-limit verdicts.

use modref_rng::Rng;

use modref::core::{refine, ImplModel};
use modref::partition::Allocation;
use modref::sim::{SimConfig, SimError, SimKernel, SimResult, Simulator};
use modref::spec::builder::SpecBuilder;
use modref::spec::stmt::CallArg;
use modref::spec::subroutine::{param_in, param_out, Subroutine};
use modref::spec::types::{DataType, ScalarType};
use modref::spec::{expr, stmt, BehaviorId, BinOp, Expr, LValue, SignalId, Spec, Stmt, VarId};
use modref::workloads::{
    dsp_partition, dsp_spec, fig2_partition, fig2_spec, medical_allocation, medical_partition,
    medical_spec, ring_spec, Design, SynthConfig, SynthSpec,
};

fn run_kernel(spec: &Spec, kernel: SimKernel, max_steps: u64) -> Result<SimResult, SimError> {
    Simulator::with_config(
        spec,
        SimConfig {
            max_steps,
            kernel,
            ..SimConfig::default()
        },
    )
    .run()
}

/// All three kernels on the same spec; results (or errors) must agree.
fn assert_kernels_agree(spec: &Spec, max_steps: u64, context: &str) {
    let compiled = run_kernel(spec, SimKernel::Compiled, max_steps);
    let event = run_kernel(spec, SimKernel::EventDriven, max_steps);
    let reference = run_kernel(spec, SimKernel::RoundRobin, max_steps);
    match (compiled, event, reference) {
        (Ok(c), Ok(e), Ok(r)) => {
            // `SimResult` equality covers time, steps, write counts,
            // variables, signals and activations — not scheduler stats.
            assert_eq!(e, r, "{context}: event vs reference diverge");
            assert_eq!(c, e, "{context}: compiled vs event diverge");
            assert!(
                e.sched.cond_evals <= r.sched.cond_evals,
                "{context}: event kernel re-evaluated more conditions \
                 ({} > {}) than the polling reference",
                e.sched.cond_evals,
                r.sched.cond_evals
            );
            // The compiled kernel reuses the event scheduler wholesale,
            // so its work counters must match *exactly*.
            assert_eq!(
                c.sched.cond_evals, e.sched.cond_evals,
                "{context}: compiled cond_evals"
            );
            assert_eq!(
                c.sched.timer_pops, e.sched.timer_pops,
                "{context}: timer_pops"
            );
            assert_eq!(e.sched.wakeups, r.sched.wakeups, "{context}: wakeups");
            assert_eq!(c.sched.wakeups, e.sched.wakeups, "{context}: wakeups");
            assert_eq!(e.sched.rounds, r.sched.rounds, "{context}: rounds");
            assert_eq!(c.sched.rounds, e.sched.rounds, "{context}: rounds");
            // One instruction per micro-step, and at least one dispatch.
            assert_eq!(c.sched.instrs, c.steps, "{context}: instrs == steps");
            assert!(c.sched.dispatches > 0, "{context}: dispatches counted");
        }
        (Err(c), Err(e), Err(r)) => {
            assert_eq!(e, r, "{context}: event vs reference verdicts diverge");
            assert_eq!(c, e, "{context}: compiled vs event verdicts diverge");
        }
        (compiled, event, reference) => panic!(
            "{context}: kernels disagree on success — compiled: {compiled:?}, \
             event: {event:?}, reference: {reference:?}"
        ),
    }
}

fn small_config(rng: &mut Rng) -> SynthConfig {
    SynthConfig {
        leaves: rng.gen_range(2..6usize),
        vars: rng.gen_range(2..6usize),
        stmts_per_leaf: rng.gen_range(1..5usize),
        fanout: rng.gen_range(2..4usize),
        loop_percent: rng.gen_range(0..60u32),
    }
}

/// Every named workload, original and refined to all four implementation
/// models: the kernels are interchangeable on the specs the benches,
/// examples and exploration paths actually run.
#[test]
fn kernels_agree_on_named_workloads_and_models() {
    let alloc = Allocation::proc_plus_asic();

    let fig2 = fig2_spec();
    let medical = medical_spec();
    let dsp = dsp_spec();
    let cases: Vec<(&str, &Spec)> = vec![("fig2", &fig2), ("medical", &medical), ("dsp", &dsp)];
    for (name, spec) in &cases {
        assert_kernels_agree(spec, 5_000_000, &format!("{name} original"));
        let graph = modref::graph::AccessGraph::derive(spec);
        let part = match *name {
            "fig2" => fig2_partition(spec, &alloc),
            "dsp" => dsp_partition(spec, &alloc),
            _ => medical_partition(spec, &medical_allocation(), Design::Design1),
        };
        for model in ImplModel::ALL {
            let refined = refine(spec, &graph, &alloc, &part, model)
                .unwrap_or_else(|e| panic!("{name} {model}: {e}"));
            assert_kernels_agree(&refined.spec, 5_000_000, &format!("{name} {model}"));
        }
    }

    // The polling worst case the benches time: many concurrent stations
    // blocked on distinct signals, token passed with delays.
    assert_kernels_agree(&ring_spec(8, 12), 5_000_000, "ring8");
}

/// The headline property: across random specs and all four
/// implementation-model refinements, the kernels are interchangeable.
#[test]
fn kernels_agree_on_random_specs_and_refinements() {
    let mut rng = Rng::seed_from_u64(0xE0E0_0001);
    for case in 0..16 {
        let seed = rng.gen_range(0..500u64);
        let cfg = small_config(&mut rng);
        let salt = rng.gen_range(0..2u64);
        let synth = SynthSpec::generate(seed, &cfg);
        assert_kernels_agree(&synth.spec, 5_000_000, &format!("case {case} original"));

        let graph = synth.graph();
        let alloc = Allocation::proc_plus_asic();
        let part = synth.partition(&alloc, salt);
        for model in ImplModel::ALL {
            let refined = refine(&synth.spec, &graph, &alloc, &part, model)
                .unwrap_or_else(|e| panic!("case {case} seed {seed} {model}: {e}"));
            assert_kernels_agree(
                &refined.spec,
                5_000_000,
                &format!("case {case} seed {seed} {model}"),
            );
        }
    }
}

/// Step-limit verdicts agree: a zero-time livelock trips the same error
/// in all three kernels.
#[test]
fn kernels_agree_on_step_limit_verdict() {
    let mut b = SpecBuilder::new("spin");
    let x = b.var_int("x", 16, 0);
    let a = b.leaf(
        "A",
        vec![stmt::infinite_loop(vec![stmt::assign(x, expr::lit(1))])],
    );
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).expect("valid");
    let compiled = run_kernel(&spec, SimKernel::Compiled, 1_000);
    let event = run_kernel(&spec, SimKernel::EventDriven, 1_000);
    let reference = run_kernel(&spec, SimKernel::RoundRobin, 1_000);
    assert_eq!(event, reference);
    assert_eq!(compiled, event);
    assert!(matches!(
        compiled,
        Err(SimError::StepLimitExceeded { limit: 1_000 })
    ));
}

/// Deadlock verdicts agree, including the reported time and the list of
/// blocked behaviors: a waiter whose signal is never set deadlocks
/// identically under all three kernels.
#[test]
fn kernels_agree_on_deadlock_verdict() {
    let mut b = SpecBuilder::new("stuck");
    let go = b.signal_bit("go");
    let x = b.var_int("x", 16, 0);
    let waiter = b.leaf(
        "Waiter",
        vec![
            stmt::wait_until(expr::eq(expr::signal(go), expr::lit(1))),
            stmt::assign(x, expr::lit(7)),
        ],
    );
    let worker = b.leaf(
        "Worker",
        vec![stmt::delay(5), stmt::assign(x, expr::lit(1))],
    );
    let top = b.concurrent("Top", vec![waiter, worker]);
    let spec = b.finish(top).expect("valid");
    let compiled = run_kernel(&spec, SimKernel::Compiled, 100_000);
    let event = run_kernel(&spec, SimKernel::EventDriven, 100_000);
    let reference = run_kernel(&spec, SimKernel::RoundRobin, 100_000);
    assert_eq!(event, reference);
    assert_eq!(compiled, event);
    match compiled {
        Err(SimError::Deadlock { time, blocked }) => {
            assert_eq!(time, 5, "worker's delay elapses before the deadlock");
            assert_eq!(blocked, vec!["Top".to_string(), "Waiter".to_string()]);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// A never-woken waiter must not leak unbounded scheduler work: the
/// event-driven and compiled kernels perform zero condition
/// re-evaluations when nothing in the sensitivity set is written, while
/// the polling reference performs one per round.
#[test]
fn event_kernel_skips_unwritten_sensitivities() {
    let mut b = SpecBuilder::new("quiet");
    let go = b.signal_bit("go");
    let x = b.var_int("x", 16, 0);
    let waiter = b.leaf(
        "Waiter",
        vec![stmt::wait_until(expr::eq(expr::signal(go), expr::lit(1)))],
    );
    // A ticker that advances time for a while without touching `go`,
    // then finally releases the waiter.
    let ticker = b.leaf(
        "Ticker",
        vec![
            stmt::for_loop(x, expr::lit(0), expr::lit(50), vec![stmt::delay(1)]),
            stmt::set_signal(go, expr::lit(1)),
        ],
    );
    let top = b.concurrent("Top", vec![waiter, ticker]);
    let spec = b.finish(top).expect("valid");
    let compiled = run_kernel(&spec, SimKernel::Compiled, 100_000).expect("completes");
    let event = run_kernel(&spec, SimKernel::EventDriven, 100_000).expect("completes");
    let reference = run_kernel(&spec, SimKernel::RoundRobin, 100_000).expect("completes");
    assert_eq!(event, reference);
    assert_eq!(compiled, event);
    // Exactly one write to `go`, so exactly one re-evaluation (which
    // succeeds and wakes the waiter) in both sensitivity-driven kernels.
    assert_eq!(event.sched.cond_evals, 1);
    assert_eq!(event.sched.wakeups, 1);
    assert_eq!(compiled.sched.cond_evals, 1);
    assert_eq!(compiled.sched.wakeups, 1);
    // The polling reference re-checked the waiter every round.
    assert!(
        reference.sched.cond_evals > 50,
        "reference should poll each round, got {}",
        reference.sched.cond_evals
    );
}

/// A `||`/`&&` chain over `terms`, nested to the left like `a || b || c`
/// parses, or to the right.
fn chain(op: BinOp, terms: Vec<Expr>, right: bool) -> Expr {
    let fold = |l: Expr, r: Expr| expr::binary(op, l, r);
    if right {
        let mut it = terms.into_iter().rev();
        let last = it.next().expect("terms");
        it.fold(last, |r, l| fold(l, r))
    } else {
        terms.into_iter().reduce(fold).expect("terms")
    }
}

/// Every kernel raises the error of an operand the short-circuit could
/// skip: the interpreter evaluates both sides of `||` and `&&`, so an
/// out-of-bounds index or an unbound parameter after a deciding term
/// still fails the run, in every statement that evaluates a condition.
#[test]
fn kernels_agree_when_a_skippable_operand_can_fault() {
    let oob = SimError::IndexOutOfBounds {
        var: "a".into(),
        index: 9,
        len: 4,
    };
    let unbound = |p: &str| SimError::UnboundParam(p.into());
    // (label, body of the one leaf given `x`, `s` and `a`, expected error)
    type Body = fn(VarId, SignalId, VarId) -> Vec<Stmt>;
    let cases: Vec<(&str, Body, SimError)> = vec![
        (
            "false || a[9]",
            |x, _, a| {
                vec![stmt::assign(
                    x,
                    expr::or(expr::lit(0), expr::index(a, expr::lit(9))),
                )]
            },
            oob.clone(),
        ),
        (
            "if (x == 0 || a[9] == 1)",
            |x, _, a| {
                let a9 = expr::eq(expr::index(a, expr::lit(9)), expr::lit(1));
                let cond = expr::or(expr::eq(expr::var(x), expr::lit(0)), a9);
                vec![stmt::if_then(cond, vec![stmt::assign(x, expr::lit(1))])]
            },
            oob.clone(),
        ),
        (
            "wait until (x == 0 || a[9] == 1)",
            |x, _, a| {
                let a9 = expr::eq(expr::index(a, expr::lit(9)), expr::lit(1));
                vec![stmt::wait_until(expr::or(
                    expr::eq(expr::var(x), expr::lit(0)),
                    a9,
                ))]
            },
            oob.clone(),
        ),
        (
            "x == 1 && a[9] == 1 && s == 1",
            |x, s, a| {
                let a9 = expr::eq(expr::index(a, expr::lit(9)), expr::lit(1));
                let terms = vec![
                    expr::eq(expr::var(x), expr::lit(1)),
                    a9,
                    expr::eq(expr::signal(s), expr::lit(1)),
                ];
                vec![stmt::assign(x, chain(BinOp::And, terms, false))]
            },
            oob.clone(),
        ),
        (
            "s == 0 || s == 1 || (a[9] == 1 || x == 0)",
            |x, s, a| {
                let a9 = expr::eq(expr::index(a, expr::lit(9)), expr::lit(1));
                let terms = vec![
                    expr::eq(expr::signal(s), expr::lit(0)),
                    expr::eq(expr::signal(s), expr::lit(1)),
                    expr::or(a9, expr::eq(expr::var(x), expr::lit(0))),
                ];
                vec![stmt::while_loop(
                    chain(BinOp::Or, terms, true),
                    vec![stmt::assign(x, expr::lit(1))],
                )]
            },
            oob.clone(),
        ),
        (
            "x == 0 || $p == 1",
            |x, _, _| {
                let cond = expr::or(
                    expr::eq(expr::var(x), expr::lit(0)),
                    expr::eq(expr::param("p"), expr::lit(1)),
                );
                vec![stmt::assign(x, cond)]
            },
            unbound("p"),
        ),
    ];
    for (label, body, want) in cases {
        let mut b = SpecBuilder::new("fault");
        let x = b.var_int("x", 16, 0);
        let s = b.signal_bit("s");
        let a = b.var("a", DataType::array(ScalarType::Int(8), 4), 0);
        let leaf = b.leaf("L", body(x, s, a));
        let top = b.seq_in_order("Top", vec![leaf]);
        let spec = b.finish_unchecked(top);
        assert_kernels_agree(&spec, 10_000, label);
        let got = run_kernel(&spec, SimKernel::Compiled, 10_000);
        assert_eq!(got, Err(want), "{label}");
    }

    // Inside a subroutine: bound parameters read fine, an unknown one
    // after a deciding term still fails.
    let mut b = SpecBuilder::new("fault_sub");
    let x = b.var_int("x", 16, 0);
    let y = b.var_int("y", 16, 0);
    let leaf = b.leaf("L", vec![]);
    let top = b.seq_in_order("Top", vec![leaf]);
    let mut spec = b.finish_unchecked(top);
    let params = || {
        vec![
            param_in("p", DataType::int(16)),
            param_out("r", DataType::int(16)),
        ]
    };
    let p_is = |k| expr::eq(expr::param("p"), expr::lit(k));
    let bound = spec.add_subroutine(Subroutine::new(
        "bound",
        params(),
        vec![Stmt::Assign {
            target: LValue::Param("r".into()),
            value: chain(
                BinOp::Or,
                vec![p_is(1), p_is(2), expr::gt(expr::var(x), expr::lit(5))],
                false,
            ),
        }],
    ));
    let ghost = spec.add_subroutine(Subroutine::new(
        "ghost",
        params(),
        vec![Stmt::Assign {
            target: LValue::Param("r".into()),
            value: chain(
                BinOp::Or,
                vec![
                    p_is(1),
                    expr::eq(expr::param("q"), expr::lit(1)),
                    expr::gt(expr::var(x), expr::lit(5)),
                ],
                false,
            ),
        }],
    ));
    let call = |sub, k| {
        stmt::call(
            sub,
            vec![CallArg::In(expr::lit(k)), CallArg::Out(LValue::Var(y))],
        )
    };
    let body = spec.behavior_mut(leaf).body_mut().expect("leaf");
    body.push(call(bound, 2));
    body.push(stmt::assign(x, expr::var(y)));
    body.push(call(ghost, 1));
    assert_kernels_agree(&spec, 10_000, "subroutine params");
    assert_eq!(
        run_kernel(&spec, SimKernel::Compiled, 10_000),
        Err(unbound("q"))
    );

    // A condition found true by the wake phase whose later term faults:
    // the error surfaces from the scheduler's re-evaluation.
    let mut b = SpecBuilder::new("fault_wake");
    let go = b.signal_bit("go");
    let i = b.var_int("i", 16, 0);
    let a = b.var("a", DataType::array(ScalarType::Int(8), 4), 0);
    let cond = expr::or(
        expr::eq(expr::signal(go), expr::lit(1)),
        expr::eq(expr::index(a, expr::var(i)), expr::lit(1)),
    );
    let waiter = b.leaf("Waiter", vec![stmt::wait_until(cond)]);
    let setter = b.leaf(
        "Setter",
        vec![
            stmt::delay(1),
            stmt::assign(i, expr::lit(9)),
            stmt::set_signal(go, expr::lit(1)),
        ],
    );
    let top = b.concurrent("Top", vec![waiter, setter]);
    let spec = b.finish(top).expect("valid");
    assert_kernels_agree(&spec, 10_000, "wake-phase fault");
    assert_eq!(run_kernel(&spec, SimKernel::Compiled, 10_000), Err(oob));
}

/// Chains nested inside comparisons, negations and arithmetic, and
/// chains of chains, compute the interpreter's values under every
/// assignment of their inputs, as values and as branch conditions.
#[test]
fn kernels_agree_on_chains_nested_in_expressions() {
    for bits in 0..32u32 {
        let bit = |k: u32| i64::from(bits >> k & 1);
        let mut b = SpecBuilder::new("nested");
        let sigs: Vec<SignalId> = (0..3)
            .map(|k| b.signal("s".to_string() + &k.to_string(), DataType::Bit, bit(k)))
            .collect();
        let x = b.var_int("x", 16, bit(3) * 3);
        let y = b.var_int("y", 16, bit(4) * 2);
        let outs: Vec<VarId> = (0..6).map(|k| b.var_int(format!("o{k}"), 16, -1)).collect();
        let branch = b.var_int("branch", 16, 0);
        let (p, q, s) = (
            expr::signal(sigs[0]),
            expr::signal(sigs[1]),
            expr::signal(sigs[2]),
        );
        let pqs = || vec![p.clone(), q.clone(), s.clone()];
        let values = [
            // (p || q || s) == 1
            expr::eq(chain(BinOp::Or, pqs(), false), expr::lit(1)),
            // !(p && q && s)
            expr::not(chain(BinOp::And, pqs(), true)),
            // (x || y) + 1
            expr::add(expr::or(expr::var(x), expr::var(y)), expr::lit(1)),
            // (p && q) || (q && s) || !p
            chain(
                BinOp::Or,
                vec![
                    expr::and(p.clone(), q.clone()),
                    expr::and(q.clone(), s.clone()),
                    expr::not(p.clone()),
                ],
                false,
            ),
            // x + (p || (q && s && y > 1) || x == 3) * 10
            expr::add(
                expr::var(x),
                expr::mul(
                    chain(
                        BinOp::Or,
                        vec![
                            p.clone(),
                            chain(
                                BinOp::And,
                                vec![q.clone(), s.clone(), expr::gt(expr::var(y), expr::lit(1))],
                                false,
                            ),
                            expr::eq(expr::var(x), expr::lit(3)),
                        ],
                        false,
                    ),
                    expr::lit(10),
                ),
            ),
            // (x > 1 && y > 1 && p == 1) == (s || q || 0)
            expr::eq(
                chain(
                    BinOp::And,
                    vec![
                        expr::gt(expr::var(x), expr::lit(1)),
                        expr::gt(expr::var(y), expr::lit(1)),
                        expr::eq(p.clone(), expr::lit(1)),
                    ],
                    false,
                ),
                chain(BinOp::Or, vec![s.clone(), q.clone(), expr::lit(0)], false),
            ),
        ];
        let mut body: Vec<Stmt> = values
            .iter()
            .zip(&outs)
            .map(|(v, &o)| stmt::assign(o, v.clone()))
            .collect();
        body.push(stmt::if_else(
            values[3].clone(),
            vec![stmt::assign(branch, expr::lit(1))],
            vec![stmt::assign(branch, expr::lit(2))],
        ));
        body.push(stmt::wait_until(expr::or(
            values[1].clone(),
            values[0].clone(),
        )));
        let leaf = b.leaf("L", body);
        let top = b.seq_in_order("Top", vec![leaf]);
        let spec = b.finish(top).expect("valid");
        let context = format!("inputs {bits:05b}");
        assert_kernels_agree(&spec, 10_000, &context);

        let (pv, qv, sv, xv, yv) = (bit(0), bit(1), bit(2), bit(3) * 3, bit(4) * 2);
        let t = |c: bool| i64::from(c);
        let or3 = pv | qv | sv;
        let want = [
            t(or3 == 1),
            t(pv & qv & sv == 0),
            t(xv != 0 || yv != 0) + 1,
            t(pv & qv == 1 || qv & sv == 1 || pv == 0),
            xv + 10 * t(pv == 1 || (qv & sv == 1 && yv > 1) || xv == 3),
            t(t(xv > 1 && yv > 1 && pv == 1) == t(sv == 1 || qv == 1)),
        ];
        match run_kernel(&spec, SimKernel::Compiled, 10_000) {
            Ok(r) => {
                for (k, w) in want.iter().enumerate() {
                    assert_eq!(r.var_by_name(&format!("o{k}")), Some(*w), "{context} o{k}");
                }
                let taken = if want[3] != 0 { 1 } else { 2 };
                assert_eq!(r.var_by_name("branch"), Some(taken), "{context}");
            }
            // `p || q || s` and `!(p && q && s)` are both false only
            // when all three are set and not set at once: never.
            Err(e) => panic!("{context}: {e}"),
        }
    }
}

/// The random specs below: a few concurrent leaves that branch, loop,
/// wait and compute on `||`/`&&` chains of three to five terms (nested,
/// negated, inside comparisons and arithmetic, with an occasional
/// out-of-bounds array term), and call a subroutine whose chains read
/// its parameters.
struct LogicGen {
    sigs: Vec<SignalId>,
    vars: Vec<VarId>,
    arr: VarId,
}

impl LogicGen {
    fn term(&self, rng: &mut Rng, depth: u32) -> Expr {
        let sig = expr::signal(self.sigs[rng.gen_range(0..self.sigs.len())]);
        let var = expr::var(self.vars[rng.gen_range(0..self.vars.len())]);
        let k = expr::lit(rng.gen_range(0..4i64));
        match rng.gen_range(0..if depth == 0 { 7 } else { 9u32 }) {
            0 => expr::eq(sig, expr::lit(rng.gen_range(0..2i64))),
            1 => expr::binary(
                [BinOp::Lt, BinOp::Gt, BinOp::Eq, BinOp::Ne][rng.gen_range(0..4usize)],
                var,
                k,
            ),
            2 => sig,
            3 => var,
            4 => {
                // One array term in forty indexes past the end.
                let idx = if rng.gen_range(0..40u32) == 0 {
                    4
                } else {
                    rng.gen_range(0..4i64)
                };
                expr::eq(expr::index(self.arr, expr::lit(idx)), k)
            }
            5 => k,
            6 => expr::gt(expr::add(var, sig), k),
            7 => expr::not(self.chain(rng, depth - 1)),
            _ => self.chain(rng, depth - 1),
        }
    }

    fn chain(&self, rng: &mut Rng, depth: u32) -> Expr {
        let op = if rng.gen_bool(0.5) {
            BinOp::Or
        } else {
            BinOp::And
        };
        let n = rng.gen_range(3..6usize);
        let terms = (0..n).map(|_| self.term(rng, depth)).collect();
        let c = chain(op, terms, rng.gen_bool(0.3));
        match rng.gen_range(0..5u32) {
            0 => expr::eq(c, expr::lit(1)),
            1 => expr::add(c, expr::lit(1)),
            _ => c,
        }
    }

    fn stmt(
        &self,
        rng: &mut Rng,
        own: VarId,
        counter: VarId,
        check: modref::spec::SubroutineId,
    ) -> Stmt {
        let sig = self.sigs[rng.gen_range(0..self.sigs.len())];
        let c = self.chain(rng, 1);
        match rng.gen_range(0..10u32) {
            0 | 8 => stmt::assign(own, c),
            1 => stmt::set_signal(sig, c),
            2 => stmt::if_else(
                c,
                vec![stmt::assign(own, expr::add(expr::var(own), expr::lit(1)))],
                vec![stmt::set_signal(sig, expr::not(expr::signal(sig)))],
            ),
            3 => stmt::for_loop(
                counter,
                expr::lit(0),
                expr::lit(3),
                vec![stmt::if_then(
                    c,
                    vec![stmt::assign_index(
                        self.arr,
                        expr::lit(rng.gen_range(0..4i64)),
                        expr::var(counter),
                    )],
                )],
            ),
            // Waits may deadlock; the verdict is compared like a result.
            4 => stmt::wait_until(c),
            5 | 9 => stmt::delay(rng.gen_range(1..3u64)),
            6 => stmt::call(check, vec![CallArg::In(c), CallArg::Out(LValue::Var(own))]),
            _ => stmt::set_signal(sig, expr::lit(rng.gen_range(0..2i64))),
        }
    }
}

fn logic_spec(seed: u64) -> Spec {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = SpecBuilder::new(format!("logic_{seed}"));
    let gen = LogicGen {
        sigs: (0..3).map(|k| b.signal_bit(format!("s{k}"))).collect(),
        vars: (0..3).map(|k| b.var_int(format!("x{k}"), 8, k)).collect(),
        arr: b.var("a", DataType::array(ScalarType::Int(8), 4), 1),
    };
    let procs = rng.gen_range(2..4usize);
    let owns: Vec<VarId> = (0..procs)
        .map(|k| b.var_int(format!("o{k}"), 8, 0))
        .collect();
    let counters: Vec<VarId> = (0..procs)
        .map(|k| b.var_int(format!("n{k}"), 8, 0))
        .collect();
    let placeholder: Vec<BehaviorId> = (0..procs)
        .map(|k| b.leaf(format!("P{k}"), vec![]))
        .collect();
    let top = b.concurrent("Top", placeholder.clone());
    let mut spec = b.finish_unchecked(top);
    let p_term = |k| expr::eq(expr::param("p"), expr::lit(k));
    let check = spec.add_subroutine(Subroutine::new(
        "check",
        vec![
            param_in("p", DataType::int(8)),
            param_out("r", DataType::int(8)),
        ],
        vec![Stmt::Assign {
            target: LValue::Param("r".into()),
            value: chain(
                BinOp::Or,
                vec![
                    p_term(1),
                    expr::signal(gen.sigs[0]),
                    p_term(2),
                    expr::var(gen.vars[1]),
                ],
                false,
            ),
        }],
    ));
    for (k, &leaf) in placeholder.iter().enumerate() {
        let n = rng.gen_range(3..7usize);
        let body: Vec<Stmt> = (0..n)
            .map(|_| gen.stmt(&mut rng, owns[k], counters[k], check))
            .collect();
        *spec.behavior_mut(leaf).body_mut().expect("leaf") = body;
    }
    modref::spec::validate::check(&spec).expect("valid");
    spec
}

/// Random specs built around three- to five-term logical chains: the
/// kernels agree on results, work counters and error verdicts.
#[test]
fn kernels_agree_on_random_logic_chains() {
    let mut completed = 0;
    for seed in 0..48u64 {
        let spec = logic_spec(seed);
        assert_kernels_agree(&spec, 100_000, &format!("logic seed {seed}"));
        completed += usize::from(run_kernel(&spec, SimKernel::Compiled, 100_000).is_ok());
    }
    assert!(
        completed >= 12,
        "only {completed} of 48 random specs completed"
    );
}
