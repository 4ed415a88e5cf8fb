//! Byte-exact golden of the deadlock/liveness lints (`DL01`–`DL05`) on
//! refined designs with handshake writes removed.
//!
//! The shipped workloads are DL-clean, so their diagnostics alone pin
//! nothing. Three mutations of refined designs make the engine speak:
//!
//! * **killed signal** — removing every write to one signal turns the
//!   handshakes the refiner inserted into dead waits: the waits on that
//!   signal become `DL02`, and the waits whose writers sit behind them
//!   become `DL04`. For the published medical (Design1) and Figure 2
//!   partitions, each refined to Models 1–4, every signal is silenced in
//!   turn.
//! * **dropped release** — deleting the `set …_req_… := 0` writes of one
//!   bus request line at a time leaves a master holding the bus: the
//!   four-phase handshake check (`DL05`) fires. Same workloads and
//!   models.
//! * **synthetic scale** — 64-leaf `SynthSpec` designs (generation seeds
//!   0–2, every leaf on the processor) refined to Models 1 and 4, with
//!   every 8th signal killed in turn, starting at the seed's index so
//!   that request and acknowledge lines both get their turn. These
//!   cases are large, so each renders as
//!   one digest row: the case name, its diagnostic count per code, and
//!   an FNV-1a hash of its full JSONL rendering.
//!
//! Every case renders as JSONL with the case name in the `file` field.
//! The golden pins wording, order and spans of the whole engine.
//!
//! Regenerate the golden with:
//!
//! ```text
//! UPDATE_EXPECTED=1 cargo test --test dl_golden
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use modref::analyze::deadlock::deadlock_lints;
use modref::analyze::diag::render_json_lines;
use modref::core::{refine, ImplModel};
use modref::graph::AccessGraph;
use modref::partition::{Allocation, Partition};
use modref::spec::{visit, Expr, SignalId, Spec, Stmt};
use modref::workloads::{
    fig2_partition, fig2_spec, medical_allocation, medical_partition, medical_spec, Design,
    SynthConfig, SynthSpec,
};

const GOLDEN: &str = "tests/data/dl_killed_signals.golden.jsonl";

/// Rewrites every statement of every behavior and subroutine body with
/// `f`.
fn rewrite_all(spec: &Spec, mut f: impl FnMut(Stmt) -> Vec<Stmt>) -> Spec {
    let mut out = spec.clone();
    let behaviors: Vec<_> = out.behaviors().map(|(id, _)| id).collect();
    for id in behaviors {
        if let Some(body) = out.behavior_mut(id).body_mut() {
            *body = visit::rewrite_stmts(std::mem::take(body), &mut f);
        }
    }
    let subs: Vec<_> = out.subroutines().map(|(id, _)| id).collect();
    for id in subs {
        let body = out.subroutine_mut(id).body_mut();
        *body = visit::rewrite_stmts(std::mem::take(body), &mut f);
    }
    out
}

/// Replaces every `set sig := …` in every body with `skip`.
fn kill_writes(spec: &Spec, sig: SignalId) -> Spec {
    rewrite_all(spec, |s| match s {
        Stmt::SignalSet { signal, .. } if signal == sig => vec![Stmt::Skip],
        other => vec![other],
    })
}

/// Deletes every `set sig := 0` in every body: the request is raised
/// but never released.
fn drop_releases(spec: &Spec, sig: SignalId) -> Spec {
    rewrite_all(spec, |s| match s {
        Stmt::SignalSet {
            signal,
            value: Expr::Lit(0),
        } if signal == sig => Vec::new(),
        other => vec![other],
    })
}

fn render_workload(
    out: &mut String,
    name: &str,
    spec: &Spec,
    alloc: &Allocation,
    part: &Partition,
) {
    let graph = AccessGraph::derive(spec);
    for model in ImplModel::ALL {
        let refined =
            refine(spec, &graph, alloc, part, model).expect("published partition refines");
        let file = format!("{name}.{model:?}");
        out.push_str(&render_json_lines(
            &deadlock_lints(&refined.spec, None),
            &file,
        ));
        for (sig, signal) in refined.spec.signals() {
            let killed = kill_writes(&refined.spec, sig);
            out.push_str(&render_json_lines(
                &deadlock_lints(&killed, None),
                &format!("{file}.kill={}", signal.name()),
            ));
        }
        for (sig, signal) in refined.spec.signals() {
            if !signal.name().contains("_req_") {
                continue;
            }
            let held = drop_releases(&refined.spec, sig);
            out.push_str(&render_json_lines(
                &deadlock_lints(&held, None),
                &format!("{file}.hold={}", signal.name()),
            ));
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One digest row for a case: diagnostic counts per code and a hash of
/// the full rendering.
fn digest_row(spec: &Spec, file: &str) -> String {
    let diags = deadlock_lints(spec, None);
    let mut per_code: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &diags {
        *per_code.entry(d.code).or_default() += 1;
    }
    let codes: Vec<String> = per_code
        .iter()
        .map(|(c, n)| format!("\"{c}\": {n}"))
        .collect();
    format!(
        "{{\"k\": \"digest\", \"file\": \"{file}\", \"codes\": {{{}}}, \"fnv1a\": \"{:016x}\"}}\n",
        codes.join(", "),
        fnv1a(render_json_lines(&diags, file).as_bytes())
    )
}

fn render_synth(out: &mut String) {
    let config = SynthConfig {
        leaves: 64,
        vars: 64,
        stmts_per_leaf: 6,
        fanout: 3,
        loop_percent: 30,
    };
    let alloc = Allocation::proc_plus_asic();
    for seed in 0..3u64 {
        let synth = SynthSpec::generate(seed, &config);
        let graph = synth.graph();
        let part = Partition::with_default(alloc.ids()[0]);
        for model in [ImplModel::Model1, ImplModel::Model4] {
            let refined = refine(&synth.spec, &graph, &alloc, &part, model)
                .expect("synthetic design refines");
            let file = format!("synth64.s{seed}.{model:?}");
            out.push_str(&digest_row(&refined.spec, &file));
            for (sig, signal) in refined.spec.signals().skip(seed as usize).step_by(8) {
                let killed = kill_writes(&refined.spec, sig);
                out.push_str(&digest_row(
                    &killed,
                    &format!("{file}.kill={}", signal.name()),
                ));
            }
        }
    }
}

fn render_all() -> String {
    let alloc = medical_allocation();
    let mut out = String::new();
    let medical = medical_spec();
    let part = medical_partition(&medical, &alloc, Design::Design1);
    render_workload(&mut out, "medical", &medical, &alloc, &part);
    let fig2 = fig2_spec();
    let part = fig2_partition(&fig2, &alloc);
    render_workload(&mut out, "fig2", &fig2, &alloc, &part);
    render_synth(&mut out);
    out
}

#[test]
fn killed_signal_diagnostics_match_golden() {
    let actual = render_all();
    for code in ["DL02", "DL04", "DL05"] {
        assert!(
            actual.contains(&format!("\"code\": \"{code}\"")),
            "the mutated cases produce no {code}"
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_EXPECTED").is_some() {
        fs::write(&path, &actual).expect("golden writable");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e} (regenerate with UPDATE_EXPECTED=1)",
            path.display()
        )
    });
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "DL golden drifted at line {}: {} actual vs {} expected lines\n  actual:   {:?}\n  expected: {:?}",
            first + 1,
            actual.lines().count(),
            expected.lines().count(),
            actual.lines().nth(first),
            expected.lines().nth(first),
        );
    }
}
