//! Byte-exact golden of the deadlock/liveness lints (`DL01`–`DL05`) on
//! refined designs with one signal's writes removed.
//!
//! The shipped workloads are DL-clean, so their diagnostics alone pin
//! nothing. Removing every write to one signal turns the handshakes the
//! refiner inserted into dead waits: the waits on that signal become
//! `DL02`, and the waits whose writers sit behind them become `DL04`.
//! For the published medical (Design1) and Figure 2 partitions, each
//! refined to Models 1–4, every signal is silenced in turn and the
//! diagnostics are rendered as JSONL, one case per `file` field. The
//! golden pins wording, order and spans of the whole engine.
//!
//! Regenerate the golden with:
//!
//! ```text
//! UPDATE_EXPECTED=1 cargo test --test dl_golden
//! ```

use std::fs;
use std::path::Path;

use modref::analyze::deadlock::deadlock_lints;
use modref::analyze::diag::render_json_lines;
use modref::core::{refine, ImplModel};
use modref::graph::AccessGraph;
use modref::partition::{Allocation, Partition};
use modref::spec::{visit, SignalId, Spec, Stmt};
use modref::workloads::{
    fig2_partition, fig2_spec, medical_allocation, medical_partition, medical_spec, Design,
};

const GOLDEN: &str = "tests/data/dl_killed_signals.golden.jsonl";

/// Replaces every `set sig := …` in every body with `skip`.
fn kill_writes(spec: &Spec, sig: SignalId) -> Spec {
    let mut out = spec.clone();
    let mut silence = |s: Stmt| match s {
        Stmt::SignalSet { signal, .. } if signal == sig => vec![Stmt::Skip],
        other => vec![other],
    };
    let behaviors: Vec<_> = out.behaviors().map(|(id, _)| id).collect();
    for id in behaviors {
        if let Some(body) = out.behavior_mut(id).body_mut() {
            *body = visit::rewrite_stmts(std::mem::take(body), &mut silence);
        }
    }
    let subs: Vec<_> = out.subroutines().map(|(id, _)| id).collect();
    for id in subs {
        let body = out.subroutine_mut(id).body_mut();
        *body = visit::rewrite_stmts(std::mem::take(body), &mut silence);
    }
    out
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
    out
}

#[test]
fn killed_signal_diagnostics_match_golden() {
    let actual = render_all();
    for code in ["DL02", "DL04"] {
        assert!(
            actual.contains(&format!("\"code\": \"{code}\"")),
            "the killed-signal cases produce no {code}"
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
