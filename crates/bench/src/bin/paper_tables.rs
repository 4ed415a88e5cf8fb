//! Regenerates the paper's evaluation artifacts:
//!
//! * **Figure 9** — required bus transfer rate (Mbit/s) per bus, for the
//!   three designs of the medical system under the four implementation
//!   models;
//! * **Figure 10** — size of the refined specification (lines) and the
//!   CPU time of the refinement, per design and model;
//! * the **expansion** table — refined/original size ratios behind the
//!   paper's "11 to 19 times larger" observation;
//! * an **equivalence** audit — every refined model simulated against the
//!   original specification.
//!
//! Run with: `cargo run -p modref-bench --bin paper_tables`

use std::time::Instant;

use modref_bench::render_table;
use modref_core::{figure9_row, refine, ImplModel};
use modref_estimate::LifetimeConfig;
use modref_graph::AccessGraph;
use modref_sim::Simulator;
use modref_spec::printer;
use modref_workloads::{medical_allocation, medical_partition, medical_spec, Design};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let cfg = LifetimeConfig::default();
    let original_lines = printer::line_count(&spec);

    println!(
        "medical system: {} behaviors, {} variables, {} data-access channels, {} lines\n",
        spec.behavior_count(),
        spec.variable_count(),
        graph.data_channel_count(),
        original_lines
    );

    // ---- Figure 9: bus transfer rates ----
    let mut rows = Vec::new();
    for design in Design::ALL {
        let part = medical_partition(&spec, &alloc, design);
        let mut row = vec![design.label().to_string()];
        for rates in figure9_row(&spec, &graph, &alloc, &part, &cfg)? {
            let cells: Vec<String> = rates.iter().map(|(_, r)| format!("{r:.0}")).collect();
            row.push(cells.join(", "));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("Partition".to_string())
        .chain(ImplModel::ALL.iter().map(|m| m.to_string()))
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 9: bus transfer rates (Mbit/s), buses b1..bn per model",
            &header,
            &rows
        )
    );
    println!("note: bus order per model matches Figure 3 — Model2: [local0, global, local1];");
    println!(
        "      Model3: [local0, gmem buses, local1]; Model4: [local0, ifc0, inter, ifc1, local1]\n"
    );

    // ---- Figure 10: refined size / refinement CPU time ----
    let mut rows = Vec::new();
    for design in Design::ALL {
        let part = medical_partition(&spec, &alloc, design);
        let mut row = vec![design.label().to_string()];
        for model in ImplModel::ALL {
            // Time the refinement (median of several runs).
            let mut best = f64::INFINITY;
            let mut refined = None;
            for _ in 0..5 {
                let t0 = Instant::now();
                let r = refine(&spec, &graph, &alloc, &part, model)?;
                best = best.min(t0.elapsed().as_secs_f64() * 1000.0);
                refined = Some(r);
            }
            let refined = refined.expect("refined at least once");
            row.push(format!(
                "{} lines / {best:.1} ms",
                printer::line_count(&refined.spec)
            ));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            "Figure 10: refined specification size / refinement CPU time",
            &header,
            &rows
        )
    );

    // ---- Expansion ratios ----
    let mut rows = Vec::new();
    for design in Design::ALL {
        let part = medical_partition(&spec, &alloc, design);
        let mut row = vec![design.to_string()];
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model)?;
            let ratio = printer::line_count(&refined.spec) as f64 / original_lines as f64;
            row.push(format!("{ratio:.1}x"));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &format!("Expansion: refined size over the {original_lines}-line original"),
            &header,
            &rows
        )
    );

    // ---- Section 5 cost discussion ----
    let mut rows = Vec::new();
    for design in Design::ALL {
        let part = medical_partition(&spec, &alloc, design);
        let mut row = vec![design.to_string()];
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model)?;
            let cost = modref_core::CostSummary::of(&refined.architecture);
            row.push(format!(
                "{}b/{}m/{}p/{}a/{}i",
                cost.buses, cost.memories, cost.memory_ports, cost.arbiters, cost.interfaces
            ));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            "Section 5 cost: buses/memories/ports/arbiters/interfaces",
            &header,
            &rows
        )
    );

    // ---- Equivalence audit ----
    let original = Simulator::new(&spec).run()?;
    let mut rows = Vec::new();
    for design in Design::ALL {
        let part = medical_partition(&spec, &alloc, design);
        let mut row = vec![design.to_string()];
        for model in ImplModel::ALL {
            let refined = refine(&spec, &graph, &alloc, &part, model)?;
            let result = Simulator::new(&refined.spec).run()?;
            let diffs = original.diff_common_vars(&result);
            row.push(if diffs.is_empty() {
                "equivalent".into()
            } else {
                format!("DIVERGES {diffs:?}")
            });
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            "Equivalence: refined models simulated vs original",
            &header,
            &rows
        )
    );

    Ok(())
}
