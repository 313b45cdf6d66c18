//! The one scenario interface and the one report schema of `gss-bench`.
//!
//! A [`Scenario`] has an id and a `run` that returns a [`ScenarioReport`]:
//! a flat list of named measurements and a flat list of named pass/fail
//! gates. The `scaling` binary is a loop over the registry
//! ([`crate::scenarios::registry`]) that prints each report, writes all of
//! them as one JSON [`document`] through the [`gss_core::jsonio`] writer
//! and, under `--gate`, fails if any gate did. A new scenario is one
//! `impl Scenario` plus one registry line — no flag, no report struct, no
//! CI edit.

use gss_core::jsonio::Value;
use gss_datasets::workload::WorkloadConfig;

use crate::TextTable;

/// Schema tag of the combined [`document`].
pub const SCHEMA: &str = "gss-bench-gates/1";

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted name, unique within its scenario (`"indexed.verified"`).
    pub name: String,
    /// `"count"`, `"ratio"`, `"bool"`, `"B"`, `"us"`, `"ms"`, `"1/s"`.
    pub unit: &'static str,
    /// The measurement (booleans as 0/1).
    pub value: f64,
}

/// One pass/fail condition the `--gate` run enforces.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Globally unique name, prefixed by its scenario (`"s7.…"`).
    pub name: &'static str,
    /// Whether the condition held on this run.
    pub pass: bool,
    /// The measured values behind the verdict, for the failure message.
    pub detail: String,
}

/// Everything one scenario run produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioReport {
    /// Measurements, in the order the scenario recorded them.
    pub metrics: Vec<Metric>,
    /// Gate verdicts, in the order the scenario evaluated them.
    pub gates: Vec<Gate>,
}

/// A self-contained, repeatable experiment over the stack.
pub trait Scenario {
    /// Stable identifier (`"s7-index"`): the key in the JSON document.
    fn id(&self) -> &'static str;
    /// Runs the experiment. Panics only on a broken invariant that no
    /// threshold expresses (an answer changing across plans, a loopback
    /// server refusing to bind).
    fn run(&self) -> ScenarioReport;
}

impl ScenarioReport {
    /// Records a measurement.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Records an exactly-repeating count.
    pub fn count(&mut self, name: impl Into<String>, value: usize) {
        self.metric(name, "count", value as f64);
    }

    /// Records a yes/no observation (as 0/1).
    pub fn flag(&mut self, name: impl Into<String>, value: bool) {
        self.metric(name, "bool", f64::from(u8::from(value)));
    }

    /// Records a gate verdict.
    pub fn gate(&mut self, name: &'static str, pass: bool, detail: String) {
        self.gates.push(Gate { name, pass, detail });
    }

    /// The report as human-readable text: a metric table, then one line
    /// per gate.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["metric", "value", "unit"]);
        for m in &self.metrics {
            table.row(vec![
                m.name.clone(),
                format!("{}", m.value),
                m.unit.to_owned(),
            ]);
        }
        let mut out = table.render();
        for g in &self.gates {
            let verdict = if g.pass { "pass" } else { "FAIL" };
            out.push_str(&format!("gate {} {verdict}: {}\n", g.name, g.detail));
        }
        out
    }

    fn to_value(&self, id: &str) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            object([
                ("name", text(&m.name)),
                ("unit", text(m.unit)),
                ("value", Value::Number(m.value)),
            ])
        });
        let gates = self.gates.iter().map(|g| {
            object([
                ("name", text(g.name)),
                ("pass", Value::Bool(g.pass)),
                ("detail", text(&g.detail)),
            ])
        });
        object([
            ("id", text(id)),
            ("metrics", Value::Array(metrics.collect())),
            ("gates", Value::Array(gates.collect())),
        ])
    }
}

fn text(s: &str) -> Value {
    Value::String(s.to_owned())
}

fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Object(members.map(|(k, v)| (k.to_owned(), v)).into())
}

/// All reports of one run as a single JSON document: the schema tag, the
/// committed smoke workload the gated scenarios share, and one
/// `{id, metrics, gates}` object per scenario.
pub fn document(reports: &[(&'static str, ScenarioReport)]) -> Value {
    let cfg = WorkloadConfig::bench_smoke();
    let workload = object([
        ("kind", text("molecule")),
        ("database_size", Value::Number(cfg.database_size as f64)),
        ("graph_vertices", Value::Number(cfg.graph_vertices as f64)),
        ("related_fraction", Value::Number(cfg.related_fraction)),
        ("seed", Value::Number(cfg.seed as f64)),
    ]);
    let scenarios = reports.iter().map(|(id, r)| r.to_value(id)).collect();
    object([
        ("schema", text(SCHEMA)),
        ("workload", workload),
        ("scenarios", Value::Array(scenarios)),
    ])
}
