//! A guided tour of the three refinement procedures, printing the refined
//! specification fragments that correspond to the paper's Figures 4–8:
//! control-related refinement (`B_CTRL` / `B_NEW`), data-related
//! refinement (`MST_receive`/`MST_send` + `Memory`), and
//! architecture-related refinement (arbiter, bus interfaces).
//!
//! Run with: `cargo run --example refine_walkthrough`

use modref::core::{bus_name, refine, ImplModel};
use modref::graph::AccessGraph;
use modref::partition::{Allocation, Partition};
use modref::spec::builder::SpecBuilder;
use modref::spec::{expr, printer, stmt};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 4's situation: P1 = {A, C}, P2 = {B}, sequential A; B; C,
    // with a shared variable x that B increments — so the example also
    // triggers data refinement, and two concurrent masters on the global
    // bus trigger arbiter insertion.
    let mut builder = SpecBuilder::new("walkthrough");
    let x = builder.var_int("x", 16, 0);
    let a = builder.leaf("A", vec![stmt::assign(x, expr::lit(10))]);
    let b = builder.leaf(
        "B",
        vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
    );
    let c = builder.leaf(
        "C",
        vec![stmt::assign(x, expr::mul(expr::var(x), expr::lit(2)))],
    );
    let top = builder.seq_in_order("Top", vec![a, b, c]);
    let spec = builder.finish(top)?;
    let graph = AccessGraph::derive(&spec);

    let alloc = Allocation::proc_plus_asic();
    let proc = alloc.by_name("PROC").expect("allocated");
    let asic = alloc.by_name("ASIC").expect("allocated");
    let mut part = Partition::with_default(proc);
    part.assign_behavior(b, asic);
    part.assign_var(x, asic);

    let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model1)?;
    let text = printer::print(&refined.spec);

    println!("--- control-related refinement (Figure 4) ---");
    print_behavior(&text, "B_CTRL");
    print_behavior(&text, "B_NEW");

    println!("--- data-related refinement (Figure 5) ---");
    print_subroutine(&text, "MST_receive_b1_m0");
    print_behavior(&text, "Gmem_p1");

    println!("--- architecture-related refinement (Figure 7) ---");
    print_behavior(&text, "Arbiter_b1");

    println!("--- Model4: bus interfaces (Figure 8) ---");
    let refined4 = refine(&spec, &graph, &alloc, &part, ImplModel::Model4)?;
    let text4 = printer::print(&refined4.spec);
    for iface in &refined4.architecture.interfaces {
        let name = refined4.name(iface.behavior);
        println!(
            "interface {name} serves {} and masters {}",
            bus_name(iface.serves_bus),
            bus_name(iface.masters_bus)
        );
        print_behavior(&text4, name);
    }
    Ok(())
}

/// Prints the lines of one `behavior <name> ... { ... }` block.
fn print_behavior(text: &str, name: &str) {
    print_block(text, &format!("behavior {name} "));
}

/// Prints the lines of one `subroutine <name>(...) { ... }` block.
fn print_subroutine(text: &str, name: &str) {
    print_block(text, &format!("subroutine {name}("));
}

fn print_block(text: &str, header: &str) {
    let mut depth = 0usize;
    let mut inside = false;
    for line in text.lines() {
        if !inside && line.trim_start().starts_with(header) {
            inside = true;
        }
        if inside {
            println!("{line}");
            depth += line.matches('{').count();
            depth = depth.saturating_sub(line.matches('}').count());
            if depth == 0 {
                println!();
                return;
            }
        }
    }
}
