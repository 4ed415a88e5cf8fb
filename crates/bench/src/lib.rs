//! Shared helpers for the modref benchmark harness: paper-style table
//! rendering, the fixed experiment grid (3 designs × 4 models), and a
//! minimal Criterion-compatible measurement harness ([`harness`]) so the
//! benches run without network access to crates.io.

pub mod harness;

use modref_core::ImplModel;
use modref_workloads::Design;

/// The core count the bench runs on, recorded in every `BENCH_*.json`.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The build profile the benches were compiled in (`"release"` or
/// `"debug"`), recorded in every `BENCH_*.json`.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The evaluation grid of the paper's Section 5.
pub fn grid() -> Vec<(Design, ImplModel)> {
    Design::ALL
        .iter()
        .flat_map(|&d| ImplModel::ALL.iter().map(move |&m| (d, m)))
        .collect()
}

/// Renders a simple aligned table: a header row and data rows.
pub fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_three_by_four() {
        assert_eq!(grid().len(), 12);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["a".into(), "bb".into()],
            &[vec!["111".into(), "2".into()]],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("111  2"));
    }
}
