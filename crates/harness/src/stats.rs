//! Tables and ASCII plots for experiment output.
//!
//! The paper has no numeric tables (it is a theory paper), so the
//! "regenerate every table and figure" duty falls on the experiment drivers
//! — these helpers render their results as the examples print them
//! (`examples/lower_bound.rs`).

use std::fmt::Write as _;

/// A simple left-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                let _ = write!(line, "{:<width$}", cells[i], width = widths[i] + 2);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Renders one or more named series as an ASCII line chart (log-ish feel via
/// plain scaling), used for the "figure" outputs of the experiments.
///
/// `xs` are shared x-values; each series is `(name, ys)`.
pub fn ascii_chart(
    title: &str,
    xs: &[usize],
    series: &[(&str, Vec<f64>)],
    height: usize,
) -> String {
    let mut out = format!("{title}\n");
    let max_y = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .fold(1.0f64, f64::max);
    let width = xs.len();
    let symbols = ['*', 'o', '+', 'x', '#', '@'];
    let mut grid = vec![vec![' '; width * 3]; height];
    for (si, (_, ys)) in series.iter().enumerate() {
        let sym = symbols[si % symbols.len()];
        for (xi, &y) in ys.iter().enumerate() {
            let row = if max_y <= 0.0 {
                height - 1
            } else {
                let frac = (y / max_y).clamp(0.0, 1.0);
                let r = ((1.0 - frac) * (height - 1) as f64).round() as usize;
                r.min(height - 1)
            };
            grid[row][xi * 3 + 1] = sym;
        }
    }
    for (r, line) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{max_y:>8.0} |")
        } else if r == height - 1 {
            format!("{:>8.0} |", 0.0)
        } else {
            format!("{:>8} |", "")
        };
        let body: String = line.iter().collect();
        let _ = writeln!(out, "{label}{}", body.trim_end());
    }
    let _ = writeln!(out, "{:>8} +{}", "", "-".repeat(width * 3));
    let xlabels: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    let _ = writeln!(out, "{:>9} {}", "k =", xlabels.join("  "));
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "{:>10} {} = {}", "", symbols[si % symbols.len()], name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["stm", "k", "steps"]);
        t.row(&["dstm".into(), "64".into(), "130".into()]);
        t.row(&["tl2".into(), "64".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("stm"));
        assert!(s.contains("dstm"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn chart_contains_series_symbols_and_labels() {
        let xs = vec![2, 4, 8, 16];
        let s = ascii_chart(
            "max steps per read vs k",
            &xs,
            &[
                ("dstm", vec![4.0, 8.0, 16.0, 32.0]),
                ("tl2", vec![3.0, 3.0, 3.0, 3.0]),
            ],
            8,
        );
        assert!(s.contains("max steps per read"));
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("dstm"));
        assert!(s.contains("k ="));
    }

    #[test]
    fn chart_handles_flat_zero_series() {
        let s = ascii_chart("zeros", &[1, 2], &[("z", vec![0.0, 0.0])], 4);
        assert!(s.contains('z'));
    }
}
