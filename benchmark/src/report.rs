//! The metric registry (`BENCHMARK.json` in code), the result line the
//! driver reads, and the run-set files `compare` works on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, quartiles, spread};
use crate::sut::Value;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a caller of the system sees. `bound` is the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these with tracing off. Queries
/// and mutations are caller-observed: the library call in `scan-wide` and
/// `verify-deep`, the typed-`Client` round trip in the server workloads.
///
/// The bounds sit at the contract's ceiling because the same binary on
/// the same seed already moves ±7 % from process to process on the
/// driver's kind of VM, and a bound must clear the spread it is checked
/// against (measured spreads are in `README.md`).
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "mutation_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mutation_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mutation_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// A per-layer metric of the traced run. The layer is the name's prefix
/// (a crate name); `moves` is the end-to-end metric and workload it
/// should move, written down before any optimisation is measured.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP: &str = "setup_s on scan-wide";
const MEMORY: &str = "peak_rss_mb on scan-wide; query_p95_ms on verify-deep, churn-durable";
const BOUND: &str = "query_p50_ms, query_qps on scan-wide; none on verify-deep";
const VERIFY: &str = "query_* on verify-deep; query_p95_ms on serve-read; <= 5 % on scan-wide";
const SERVING: &str = "query_p50_ms, query_qps on serve-read; none on the library workloads";
const TAIL: &str = "query_p95_ms on serve-read, churn-durable";
const STORE: &str = "mutation_* on every workload; query_qps on churn-durable";

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 73] = [
    layer("datasets.generate_ms", "ms", Lower, SETUP),
    layer("graph.build_ms", "ms", Lower, SETUP),
    layer("graph.compact_ms", "ms", Lower, SETUP),
    layer("graph.save_image_ms", "ms", Lower, SETUP),
    layer("graph.load_image_ms", "ms", Lower, SETUP),
    layer("graph.parse_text_ms", "ms", Lower, SETUP),
    layer("graph.image_bytes", "B", Lower, SETUP),
    layer("index.build_ms", "ms", Lower, SETUP),
    layer("index.build_us_per_graph", "us", Lower, SETUP),
    layer("index.save_ms", "ms", Lower, SETUP),
    layer("index.load_ms", "ms", Lower, SETUP),
    layer("index.bytes", "B", Lower, SETUP),
    layer("graph.arena_bytes_per_graph", "B", Lower, MEMORY),
    layer("graph.pointer_bytes_per_graph", "B", Lower, MEMORY),
    layer("graph.materialized_share", "ratio", Lower, MEMORY),
    layer("graph.materialize_us_per_graph", "us", Lower, MEMORY),
    layer("index.plan_us", "us", Lower, BOUND),
    layer("index.partitions_skipped_share", "ratio", Higher, BOUND),
    layer("index.candidates_skipped_share", "ratio", Higher, BOUND),
    layer("core.bound_us_per_query", "us", Lower, BOUND),
    layer("core.bound_ns_per_candidate", "ns", Lower, BOUND),
    layer("core.exec_residual_us", "us", Lower, BOUND),
    layer("core.plan.naive_ms", "ms", Lower, BOUND),
    layer("core.plan.prefilter_ms", "ms", Lower, BOUND),
    layer("core.plan.indexed_ms", "ms", Lower, BOUND),
    layer("core.plan.sharded2_ms", "ms", Lower, BOUND),
    layer("core.verified_per_query", "count", Lower, VERIFY),
    layer("core.pruned_share", "ratio", Higher, VERIFY),
    layer("core.short_circuited_per_query", "count", Higher, VERIFY),
    layer("core.verify_us_per_query", "us", Lower, VERIFY),
    layer("core.verify_share", "ratio", Lower, VERIFY),
    layer("ged.exact_us_per_pair", "us", Lower, VERIFY),
    layer("ged.exact_p95_us", "us", Lower, VERIFY),
    layer("ged.expanded_per_pair", "count", Lower, VERIFY),
    layer("ged.lower_bound_ns_per_pair", "ns", Lower, VERIFY),
    layer("mcs.exact_us_per_pair", "us", Lower, VERIFY),
    layer("mcs.exact_p95_us", "us", Lower, VERIFY),
    layer("mcs.expanded_per_pair", "count", Lower, VERIFY),
    layer("iso.vf2_us_per_pair", "us", Lower, VERIFY),
    layer("skyline.filter_us", "us", Lower, VERIFY),
    layer("protocol.encode_request_us", "us", Lower, SERVING),
    layer("protocol.decode_request_us", "us", Lower, SERVING),
    layer("server.parse_us", "us", Lower, SERVING),
    layer("core.cachekey_us", "us", Lower, SERVING),
    layer("server.cache_lookup_us", "us", Lower, SERVING),
    layer("core.explain_us", "us", Lower, SERVING),
    layer("core.result_bytes", "B", Lower, SERVING),
    layer("protocol.encode_response_us", "us", Lower, SERVING),
    layer("protocol.decode_response_us", "us", Lower, SERVING),
    layer("protocol.response_bytes", "B", Lower, SERVING),
    layer("server.hit_p50_ms", "ms", Lower, SERVING),
    layer("server.miss_p50_ms", "ms", Lower, SERVING),
    layer("server.transport_ms_hit", "ms", Lower, SERVING),
    layer("server.transport_ms_miss", "ms", Lower, SERVING),
    layer("server.cache_hit_share", "ratio", Higher, SERVING),
    layer("server.evaluate_ms", "ms", Lower, TAIL),
    layer("server.batch_mean_size", "count", Higher, TAIL),
    layer("server.rejected", "count", Lower, TAIL),
    layer("server.reported_p99_ms", "ms", Lower, TAIL),
    layer("store.apply_us", "us", Lower, STORE),
    layer("store.publish_us", "us", Lower, STORE),
    layer("index.maintain_us_per_op", "us", Lower, STORE),
    layer("store.wal_append_us", "us", Lower, STORE),
    layer("store.fsync_us", "us", Lower, STORE),
    layer("store.fsyncs_per_op", "count", Lower, STORE),
    layer("store.checkpoints", "count", Lower, STORE),
    layer("store.wal_bytes_per_user_byte", "ratio", Lower, STORE),
    layer("index.partial_rebuilds", "count", Lower, STORE),
    layer("index.full_rebuilds", "count", Lower, STORE),
    layer("store.recover_ms", "ms", Lower, STORE),
    layer("store.recover_replayed", "count", Lower, STORE),
    layer("trace.spans", "count", Lower, "none: size of the span file"),
    layer(
        "trace.overhead_share",
        "ratio",
        Lower,
        "none: (traced - untraced query_p50_ms) / untraced",
    ),
];

/// Per-layer counters that repeat exactly for one seed: they are counted
/// over fixed prefixes of the query stream and the mutation script, on
/// one thread. (`server.cache_hit_share` and `server.batch_mean_size`
/// depend on how two connections interleave, and every timing varies.)
pub const EXACT_COUNTERS: [&str; 16] = [
    "graph.image_bytes",
    "index.bytes",
    "index.partitions_skipped_share",
    "index.candidates_skipped_share",
    "core.verified_per_query",
    "core.pruned_share",
    "core.short_circuited_per_query",
    "ged.expanded_per_pair",
    "mcs.expanded_per_pair",
    "core.result_bytes",
    "protocol.response_bytes",
    "store.fsyncs_per_op",
    "store.checkpoints",
    "index.partial_rebuilds",
    "index.full_rebuilds",
    "store.recover_replayed",
];

/// The unit of a registered metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not registered"))
}

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The last line of a run's standard output: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Parses a result line back: `(attempted, failed, metric values)`.
pub fn parse_result_line(line: &str) -> Result<(u64, u64, BTreeMap<String, f64>), String> {
    let doc = Value::parse(line).map_err(|e| format!("bad result line: {e}"))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("result line lacks {key}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line lacks metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((count("attempted")?, count("failed")?, metrics))
}

/// One set of runs: per workload, per metric, the value of every run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn run_set_to_json(set: &RunSet) -> String {
    let mut out = String::from("{\n");
    for (w, (workload, metrics)) in set.iter().enumerate() {
        let _ = writeln!(out, "  \"{workload}\": {{");
        for (m, (name, values)) in metrics.iter().enumerate() {
            let list: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            let comma = if m + 1 < metrics.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": [{}]{comma}", list.join(", "));
        }
        let _ = writeln!(out, "  }}{}", if w + 1 < set.len() { "," } else { "" });
    }
    out.push_str("}\n");
    out
}

pub fn run_set_from_json(text: &str) -> Result<RunSet, String> {
    let doc = Value::parse(text).map_err(|e| format!("bad run set: {e}"))?;
    let mut set = RunSet::new();
    for (workload, metrics) in doc.as_object().ok_or("run set is not an object")? {
        let entry = set.entry(workload.clone()).or_default();
        for (name, values) in metrics.as_object().ok_or("workload is not an object")? {
            let values = values.as_array().ok_or("metric is not an array")?;
            entry.insert(
                name.clone(),
                values.iter().filter_map(Value::as_f64).collect(),
            );
        }
    }
    Ok(set)
}

/// `compare A B`: for every end-to-end metric × workload, both medians,
/// the relative difference (positive = B worse) and the bound. A
/// difference inside either set's own run-to-run spread is *unresolved*,
/// not unchanged; one beyond the bound and the spread is a breach. Where
/// both sets hold traced runs of the same seeds, the exactly-repeating
/// counters must be identical. Returns the table and the breach count.
pub fn compare(a: &RunSet, b: &RunSet) -> (String, usize) {
    let mut out = String::new();
    let mut breaches = 0usize;
    let _ = writeln!(
        out,
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse", "bound", "spread"
    );
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(m.name), metrics_b.get(m.name)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let noise = [va, vb]
                .iter()
                .filter(|v| v.len() >= 2)
                .map(|v| spread(v))
                .fold(0.0, f64::max);
            let verdict = if worse > m.bound && worse > noise {
                breaches += 1;
                "BREACH"
            } else if worse.abs() <= noise {
                "unresolved"
            } else if worse > 0.0 {
                "within bound"
            } else {
                "better"
            };
            let _ = writeln!(
                out,
                "{workload:<14} {:<16} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>6.0}% {:>7.1}%  {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                noise * 100.0
            );
        }
        for name in EXACT_COUNTERS {
            if let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) {
                if va.len() == vb.len() && va != vb {
                    breaches += 1;
                    let _ = writeln!(
                        out,
                        "{workload:<14} {name}: {va:?} != {vb:?}  BREACH (exact counter)"
                    );
                }
            }
        }
    }
    (out, breaches)
}

/// The spread table of one run set: median, quartiles and IQR / median
/// per end-to-end metric × workload, against a third of the bound.
pub fn spread_table(set: &RunSet) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<16} {:>5} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound/3"
    );
    for (workload, metrics) in set {
        for m in &END_TO_END {
            let Some(values) = metrics.get(m.name).filter(|v| v.len() >= 2) else {
                continue;
            };
            let [q1, _, q3] = quartiles(values);
            let s = spread(values);
            let flag = if s > m.bound / 3.0 { " !" } else { "" };
            let _ = writeln!(
                out,
                "{workload:<14} {:<16} {:>5} {q1:>12.4} {:>12.4} {q3:>12.4} {:>7.1}% {:>7.1}%{flag}",
                m.name,
                values.len(),
                median(values),
                s * 100.0,
                m.bound / 3.0 * 100.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let head = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        head && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(name_ok(name), "bad metric name {name}");
            assert!(seen.insert(name), "metric {name} registered twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(EXACT_COUNTERS
            .iter()
            .all(|c| PER_LAYER.iter().any(|m| m.name == *c)));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_per_layer_metric_names_a_measured_layer() {
        const LAYERS: [&str; 12] = [
            "datasets", "graph", "iso", "mcs", "ged", "skyline", "core", "index", "store",
            "protocol", "server", "trace",
        ];
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().expect("split yields one item");
            assert!(LAYERS.contains(&layer), "{} names no layer", m.name);
            assert!(!m.moves.is_empty());
        }
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.name().to_owned(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(list("end_to_end"), want);
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.name().to_owned(),
                    None,
                )
            })
            .collect();
        assert_eq!(list("per_layer"), want);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).expect(k).to_owned();
                (s("name"), s("why"))
            })
            .collect();
        let specs: Vec<(String, String)> = crate::workload::specs(false)
            .iter()
            .map(|s| (s.name.to_owned(), s.why.to_owned()))
            .collect();
        assert_eq!(workloads, specs);
    }

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", 0.8127), ("query_qps", 33.25)],
        };
        let line = outcome.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0"));
        let (attempted, failed, metrics) = parse_result_line(&line).expect("parses");
        assert_eq!((attempted, failed), (12, 0));
        assert_eq!(metrics["setup_s"], 0.8127);
        assert_eq!(metrics["query_qps"], 33.25);
    }

    #[test]
    fn compare_flags_breaches_and_unresolved_differences() {
        let set = |p50: [f64; 4], qps: [f64; 4]| -> RunSet {
            let mut metrics = BTreeMap::new();
            metrics.insert("query_p50_ms".to_owned(), p50.to_vec());
            metrics.insert("query_qps".to_owned(), qps.to_vec());
            BTreeMap::from([("scan-wide".to_owned(), metrics)])
        };
        let a = set([10.0, 10.1, 9.9, 10.0], [100.0, 90.0, 110.0, 105.0]);
        // p50 30 % slower (bound 25 %, tight spread): a breach; qps 3 %
        // lower inside a ~15 % spread: unresolved.
        let b = set([13.0, 13.1, 12.9, 13.0], [97.0, 88.0, 107.0, 102.0]);
        let (table, breaches) = compare(&a, &b);
        assert_eq!(breaches, 1, "{table}");
        assert!(table.contains("BREACH"));
        assert!(table.contains("unresolved"));
        let (_, none) = compare(&a, &a);
        assert_eq!(none, 0);
        // An exactly-repeating counter that differs is a breach of its own.
        let counted = |n: f64| -> RunSet {
            let mut set = a.clone();
            let metrics = set.get_mut("scan-wide").expect("workload");
            metrics.insert("ged.expanded_per_pair".to_owned(), vec![n, 7.0]);
            set
        };
        assert_eq!(compare(&counted(5.0), &counted(5.0)).1, 0);
        assert_eq!(compare(&counted(5.0), &counted(6.0)).1, 1);
        let text = run_set_to_json(&a);
        assert_eq!(run_set_from_json(&text).expect("round trip"), a);
    }
}
