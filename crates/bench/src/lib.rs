//! # gss-bench — the evaluation harness
//!
//! Two things live here; wall-clock performance is neither of them (that
//! is the repository benchmark under `benchmark/`, see `BENCHMARK.json`).
//!
//! * `cargo run -p gss-bench --bin tables` — the paper: prints Tables I–V
//!   and the Figure 1/2 walkthrough, paper value next to measured value,
//!   plus the A1/A2 ablations described in `DESIGN.md`.
//! * `cargo run --release -p gss-bench --bin scaling -- --json F --gate` —
//!   the structural gate: a loop over the [`scenarios`] registry, each
//!   scenario a [`report::Scenario`] returning one [`report::ScenarioReport`]
//!   of named metrics and pass/fail gates.
//!
//! The crate root hosts the small shared text helpers.

pub mod report;
pub mod scenarios;

use std::fmt::Write as _;

/// A minimal fixed-width text table builder for the harness output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for c in 0..cols {
            width[c] = self.header[c].chars().count();
            for r in &self.rows {
                width[c] = width[c].max(r[c].chars().count());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let pad = width[c] - cell.chars().count();
                let _ = write!(out, "| {}{} ", cell, " ".repeat(pad));
            }
            let _ = writeln!(out, "|");
        };
        line(&mut out, &self.header);
        let total: usize = width.iter().map(|w| w + 3).sum::<usize>() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            line(&mut out, r);
        }
        out
    }
}

/// Formats a float like the paper does (two decimals).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Marks agreement between a measured value and the paper's value.
pub fn verdict(measured: f64, paper: f64, tolerance: f64) -> &'static str {
    if (measured - paper).abs() <= tolerance {
        "✓"
    } else {
        "DIFFERS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_padded() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]).row(vec!["longer", "2.50"]);
        let s = t.render();
        assert!(s.contains("| name   | value |"));
        assert!(s.contains("| longer | 2.50  |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        TextTable::new(vec!["a"]).row(vec!["1", "2"]);
    }

    #[test]
    fn helpers() {
        assert_eq!(f2(0.3333), "0.33");
        assert_eq!(verdict(0.33, 0.33, 0.006), "✓");
        assert_eq!(verdict(0.5, 0.33, 0.006), "DIFFERS");
    }
}
