//! Soundness of the deadlock/liveness lint family (`DL01`–`DL05`).
//!
//! The static analyzer promises: **every DL-flagged spec really fails**
//! — under all three scheduler kernels it either deadlocks or exhausts
//! the step budget, never completes. And the contrapositive guard:
//! every shipped workload is DL-clean, so the lints carry no false
//! positives on real designs.
//!
//! Three layers of evidence:
//!
//! 1. every named workload is DL-clean as shipped;
//! 2. tampering each workload into each DL defect is (a) caught
//!    statically with the expected code and (b) fatal dynamically on
//!    every kernel — the flagged ⇒ fails implication, instantiated;
//! 3. a randomized property over `SynthSpec` designs: generated specs
//!    stay clean, and a seed-rotated tamper of each keeps the
//!    implication honest on machine-made structure too.
//!
//! A final end-to-end check drives the `explore --verify` static gate
//! and asserts the `verify.static_deadlock` counter actually counts.

use modref::analyze::deadlock_lints;
use modref::core::api::{Codesign, ExploreOpts, VerifyOpts};
use modref::obs::{self, ClockMode, Event};
use modref::sim::{SimConfig, SimError, SimKernel, Simulator};
use modref::spec::expr::{add, eq, lit, signal, var};
use modref::spec::{Behavior, BehaviorId, BehaviorKind, DataType, LValue, Spec, Stmt, WaitCond};
use modref::workloads::{named_spec, SynthConfig, SynthSpec, WORKLOAD_NAMES};
use modref_rng::Rng;

const KERNELS: [SimKernel; 3] = [
    SimKernel::RoundRobin,
    SimKernel::EventDriven,
    SimKernel::Compiled,
];

/// Sorted, deduplicated DL codes the analyzer reports for `spec`.
fn dl_codes(spec: &Spec) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = deadlock_lints(spec, None)
        .iter()
        .map(|d| d.code)
        .filter(|c| c.starts_with("DL"))
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// Asserts the spec fails on every kernel: `Deadlock` or
/// `StepLimitExceeded`, never completion. `max_steps` bounds the spin
/// cases; deadlock cases stop as soon as the live processes drain.
fn assert_never_completes(spec: &Spec, max_steps: u64, ctx: &str) {
    for kernel in KERNELS {
        let config = SimConfig {
            kernel,
            max_steps,
            ..SimConfig::default()
        };
        match Simulator::with_config(spec, config).run() {
            Err(SimError::Deadlock { .. }) | Err(SimError::StepLimitExceeded { .. }) => {}
            Ok(r) => panic!(
                "{ctx}: {kernel:?} completed at t={} despite DL flag — unsound lint",
                r.time
            ),
            Err(e) => panic!("{ctx}: {kernel:?} failed for the wrong reason: {e}"),
        }
    }
}

/// Grafts extra behaviors next to the existing top: the new top is a
/// concurrent composite running the old design and the tampered leaves
/// side by side, so the original workload still makes all its progress.
fn graft(base: &Spec, build: impl FnOnce(&mut Spec) -> Vec<BehaviorId>) -> Spec {
    let mut spec = base.clone();
    let mut children = vec![spec.top()];
    children.extend(build(&mut spec));
    let top = spec.add_behavior(Behavior::new(
        "tamper_top",
        BehaviorKind::Concurrent { children },
    ));
    spec.set_top(top);
    spec
}

/// DL01: the only write drives the gate to 1, the wait demands 2.
fn tamper_dl01(base: &Spec) -> Spec {
    graft(base, |s| {
        let gate = s.add_signal("tamper_gate", DataType::Int { width: 8 }, 0);
        let body = vec![
            Stmt::SignalSet {
                signal: gate,
                value: lit(1),
            },
            Stmt::Wait(WaitCond::Until(eq(signal(gate), lit(2)))),
        ];
        vec![s.add_behavior(Behavior::new("tamper_dl01", BehaviorKind::Leaf { body }))]
    })
}

/// DL02: wait on a signal nothing ever writes.
fn tamper_dl02(base: &Spec) -> Spec {
    graft(base, |s| {
        let ghost = s.add_signal("tamper_ghost", DataType::Bit, 0);
        let body = vec![Stmt::Wait(WaitCond::Until(signal(ghost)))];
        vec![s.add_behavior(Behavior::new("tamper_dl02", BehaviorKind::Leaf { body }))]
    })
}

/// DL03: a zero-time spin loop — no wait, no delay, no exit.
fn tamper_dl03(base: &Spec) -> Spec {
    graft(base, |s| {
        let spin = s.add_variable("tamper_spin", DataType::Int { width: 16 }, 0, None);
        let body = vec![Stmt::Loop {
            body: vec![Stmt::Assign {
                target: LValue::Var(spin),
                value: add(var(spin), lit(1)),
            }],
        }];
        vec![s.add_behavior(Behavior::new("tamper_dl03", BehaviorKind::Leaf { body }))]
    })
}

/// DL04: two leaves, each waiting on a signal only the other would set
/// after its own wait — a circular wait.
fn tamper_dl04(base: &Spec) -> Spec {
    graft(base, |s| {
        let a = s.add_signal("tamper_a", DataType::Bit, 0);
        let b = s.add_signal("tamper_b", DataType::Bit, 0);
        let p1 = vec![
            Stmt::Wait(WaitCond::Until(signal(b))),
            Stmt::SignalSet {
                signal: a,
                value: lit(1),
            },
        ];
        let p2 = vec![
            Stmt::Wait(WaitCond::Until(signal(a))),
            Stmt::SignalSet {
                signal: b,
                value: lit(1),
            },
        ];
        vec![
            s.add_behavior(Behavior::new("tamper_p1", BehaviorKind::Leaf { body: p1 })),
            s.add_behavior(Behavior::new("tamper_p2", BehaviorKind::Leaf { body: p2 })),
        ]
    })
}

/// DL05: a four-phase handshake whose master never drops its request —
/// the arbiter grants, then both sides block on the missing release.
fn tamper_dl05(base: &Spec) -> Spec {
    graft(base, |s| {
        let req = s.add_signal("tamper_req", DataType::Bit, 0);
        let ack = s.add_signal("tamper_ack", DataType::Bit, 0);
        let master = vec![
            Stmt::SignalSet {
                signal: req,
                value: lit(1),
            },
            Stmt::Wait(WaitCond::Until(eq(signal(ack), lit(1)))),
            // release of `req` missing here — the defect
            Stmt::Wait(WaitCond::Until(eq(signal(ack), lit(0)))),
        ];
        let server = vec![Stmt::Loop {
            body: vec![
                Stmt::Wait(WaitCond::Until(eq(signal(req), lit(1)))),
                Stmt::SignalSet {
                    signal: ack,
                    value: lit(1),
                },
                Stmt::Wait(WaitCond::Until(eq(signal(req), lit(0)))),
                Stmt::SignalSet {
                    signal: ack,
                    value: lit(0),
                },
            ],
        }];
        vec![
            s.add_behavior(Behavior::new(
                "tamper_master",
                BehaviorKind::Leaf { body: master },
            )),
            s.add_behavior(Behavior::new_server(
                "tamper_arbiter",
                BehaviorKind::Leaf { body: server },
            )),
        ]
    })
}

/// `(expected code, tamper, step budget)` — the spin case needs a small
/// budget because it *consumes* its whole limit; the deadlock cases
/// halt early on their own.
type Tamper = (&'static str, fn(&Spec) -> Spec, u64);

const TAMPERS: [Tamper; 5] = [
    ("DL01", tamper_dl01, 5_000_000),
    ("DL02", tamper_dl02, 5_000_000),
    ("DL03", tamper_dl03, 250_000),
    ("DL04", tamper_dl04, 5_000_000),
    ("DL05", tamper_dl05, 5_000_000),
];

#[test]
fn shipped_workloads_are_dl_clean() {
    for name in WORKLOAD_NAMES {
        let spec = named_spec(name).expect("known workload");
        let codes = dl_codes(&spec);
        assert!(codes.is_empty(), "workload `{name}` flagged: {codes:?}");
    }
}

#[test]
fn tampered_workloads_are_flagged_and_never_complete() {
    for name in WORKLOAD_NAMES {
        let base = named_spec(name).expect("known workload");
        for (code, tamper, max_steps) in TAMPERS {
            let bad = tamper(&base);
            let codes = dl_codes(&bad);
            assert!(
                codes.contains(&code),
                "{name}+{code}: expected {code}, analyzer said {codes:?}"
            );
            assert_never_completes(&bad, max_steps, &format!("{name}+{code}"));
        }
    }
}

/// The soundness property on machine-generated structure: synthesized
/// specs are DL-clean by construction (they never block on signals),
/// and after a seed-rotated tamper the flagged ⇒ fails implication
/// holds on every kernel.
#[test]
fn random_specs_uphold_flagged_implies_fails() {
    let mut rng = Rng::seed_from_u64(0x0d15_ea5e);
    for round in 0..25u64 {
        let seed = rng.gen_range(0..1u64 << 48);
        let config = SynthConfig {
            leaves: rng.gen_range(2..6usize),
            vars: rng.gen_range(2..6usize),
            stmts_per_leaf: rng.gen_range(1..5usize),
            fanout: rng.gen_range(2..4usize),
            loop_percent: rng.gen_range(0..60u32),
        };
        let clean = SynthSpec::generate(seed, &config).spec;
        let codes = dl_codes(&clean);
        assert!(
            codes.is_empty(),
            "synth seed {seed}: clean spec flagged {codes:?}"
        );

        let (code, tamper, max_steps) = TAMPERS[(round % 5) as usize];
        let bad = tamper(&clean);
        let codes = dl_codes(&bad);
        assert!(
            codes.contains(&code),
            "synth seed {seed}+{code}: analyzer said {codes:?}"
        );
        assert_never_completes(&bad, max_steps, &format!("synth seed {seed}+{code}"));
    }
}

fn counter_value(trace: &obs::Trace, name: &str) -> u64 {
    trace
        .events
        .iter()
        .find_map(|e| match e {
            Event::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or_else(|| panic!("counter `{name}` missing from trace"))
}

/// End-to-end: explore a DL-tampered medical system and verify its
/// Pareto front — the static gate must reject every candidate × model
/// with the DL code and bump `verify.static_deadlock`, spending zero
/// simulation time on provably-dead candidates.
#[test]
fn verify_gate_counts_static_deadlocks() {
    let bad = tamper_dl02(&modref::workloads::medical_spec());
    obs::init(ClockMode::Wall);
    let cd = Codesign::from_spec(bad);
    let exploration = cd
        .explore(&ExploreOpts::new().with_seeds(1))
        .expect("exploration succeeds");
    let verification = cd
        .verify(&exploration, &VerifyOpts::new())
        .expect("verification runs");
    let trace = obs::shutdown();

    assert!(!verification.records.is_empty());
    for record in &verification.records {
        assert!(!record.equivalent);
        // On the raw spec the ghost wait is DL02; refinement may wrap
        // the grafted leaf in control handshakes, in which case the
        // dead wait surfaces as the circular wait it induces (DL04).
        // Either way it must be a *static* DL rejection.
        assert!(
            record.detail.contains("static analysis rejected") && record.detail.contains("DL"),
            "expected a DL static rejection, got: {}",
            record.detail
        );
    }
    let rejected = counter_value(&trace, "verify.static_deadlock");
    assert!(
        rejected >= verification.records.len() as u64,
        "verify.static_deadlock = {rejected}, want >= {}",
        verification.records.len()
    );
}
