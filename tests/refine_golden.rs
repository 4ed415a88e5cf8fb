//! Byte-exact golden of the refiner's output.
//!
//! Each row is one refinement: a workload under a partition, refined to
//! one implementation model. The row records the refined behavior count and printed line count, plus
//! FNV-1a-64 digests of four renderings:
//!
//! * `spec` — the refined specification as `printer::print` writes it;
//! * `describe` — the architecture report (`report::describe`);
//! * `dot` — the architecture graph (`dot::to_dot`);
//! * `lint` — the channel-to-bus map, sorted by channel, followed by the
//!   conformance and deadlock lints of the refined candidate as JSONL.
//!
//! Every row's architecture also passes the consistency check of
//! `support::assert_consistent`.
//!
//! The cases are the medical Designs 1–3, Figure 2 and the DSP front-end
//! under their published partitions, and `SynthSpec` designs under
//! `SynthSpec::partition` (salts 0 and 1) on a two- and a
//! three-component allocation. Each runs under Models 1–4; the `default`
//! label ends each case name. 24-leaf designs run in every build; 64-leaf designs (the
//! `flow_synth64` shape) only in release builds:
//!
//! ```text
//! cargo test --release --test refine_golden
//! ```
//!
//! Regenerate the golden (in a release build, so it holds every row) with:
//!
//! ```text
//! UPDATE_EXPECTED=1 cargo test --release --test refine_golden
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use modref::analyze::diag::render_json_lines;
use modref::core::api::Codesign;
use modref::core::{bus_name, dot, refine, report, ImplModel};
use modref::partition::{Allocation, Component, Partition};
use modref::spec::printer;
use modref::workloads::{
    dsp_partition, dsp_spec, fig2_partition, fig2_spec, medical_allocation, medical_partition,
    medical_spec, Design, SynthConfig, SynthSpec,
};

mod support;

const GOLDEN: &str = "tests/data/refine.golden.txt";

/// FNV-1a, 64-bit.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Appends one row per model for `cd` under `part`.
fn render_case(out: &mut String, name: &str, cd: &Codesign, alloc: &Allocation, part: &Partition) {
    for model in ImplModel::ALL {
        let case = format!("{name}.{model:?}.default");
        let refined = refine(cd.spec(), cd.graph(), alloc, part, model)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        support::assert_consistent(&case, cd.spec(), cd.graph(), &refined);
        let text = printer::print(&refined.spec);
        let mut channels: Vec<_> = refined.channel_buses.iter().collect();
        channels.sort();
        let mut lint = String::new();
        for (ch, route) in channels {
            let names: Vec<String> = route.iter().map(|&b| bus_name(b)).collect();
            writeln!(lint, "{} {}", ch.index(), names.join(",")).unwrap();
        }
        lint.push_str(&render_json_lines(&cd.lint_refined(&refined), &case));
        writeln!(
            out,
            "{case} behaviors={} lines={} spec={:016x} describe={:016x} dot={:016x} lint={:016x}",
            refined.spec.behavior_count(),
            text.lines().count(),
            fnv1a(&text),
            fnv1a(&report::describe(&refined)),
            fnv1a(&dot::to_dot(&refined)),
            fnv1a(&lint),
        )
        .unwrap();
    }
}

fn three_components() -> Allocation {
    let mut a = Allocation::new();
    a.add(Component::processor("PROC", 64 * 1024));
    a.add(Component::asic("ASIC1", 10_000, 75));
    a.add(Component::asic("ASIC2", 10_000, 75));
    a
}

fn render_synth(out: &mut String, leaves: usize, vars: usize, seeds: std::ops::Range<u64>) {
    let config = SynthConfig {
        leaves,
        vars,
        stmts_per_leaf: 6,
        fanout: 3,
        loop_percent: 30,
    };
    let allocations = [
        ("p2", Allocation::proc_plus_asic()),
        ("p3", three_components()),
    ];
    for seed in seeds {
        let synth = SynthSpec::generate(seed, &config);
        let cd = Codesign::from_spec(synth.spec.clone());
        for (label, alloc) in &allocations {
            for salt in 0..2u64 {
                let part = synth.partition(alloc, salt);
                let name = format!("synth{leaves}_s{seed}.{label}.salt{salt}");
                render_case(out, &name, &cd, alloc, &part);
            }
        }
    }
}

fn render_all() -> String {
    let mut out = String::new();
    let alloc = medical_allocation();
    let medical = Codesign::from_spec(medical_spec());
    for design in [Design::Design1, Design::Design2, Design::Design3] {
        let part = medical_partition(medical.spec(), &alloc, design);
        render_case(
            &mut out,
            &format!("medical.{design:?}"),
            &medical,
            &alloc,
            &part,
        );
    }
    let fig2 = Codesign::from_spec(fig2_spec());
    let part = fig2_partition(fig2.spec(), &alloc);
    render_case(&mut out, "fig2", &fig2, &alloc, &part);
    let dsp = Codesign::from_spec(dsp_spec());
    let part = dsp_partition(dsp.spec(), &alloc);
    render_case(&mut out, "dsp", &dsp, &alloc, &part);
    render_synth(&mut out, 24, 16, 0..8);
    if !cfg!(debug_assertions) {
        render_synth(&mut out, 64, 64, 0..6);
    }
    out
}

#[test]
fn refined_outputs_match_golden() {
    let actual = render_all();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_EXPECTED").is_some() {
        if cfg!(debug_assertions) {
            panic!("regenerate the refine golden in a release build, which renders every row");
        }
        fs::write(&path, &actual).expect("golden writable");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e} (regenerate with UPDATE_EXPECTED=1 in release)",
            path.display()
        )
    });
    // A debug build renders the release rows' prefix: the 64-leaf rows
    // come last.
    let expected: String = if cfg!(debug_assertions) {
        golden
            .lines()
            .filter(|l| !l.starts_with("synth64_"))
            .map(|l| format!("{l}\n"))
            .collect()
    } else {
        golden
    };
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "refine golden drifted at line {}: {} actual vs {} expected lines\n  actual:   {:?}\n  expected: {:?}",
            first + 1,
            actual.lines().count(),
            expected.lines().count(),
            actual.lines().nth(first),
            expected.lines().nth(first),
        );
    }
}
