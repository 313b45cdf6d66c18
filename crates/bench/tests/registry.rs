//! The scenario registry's own contract: ids are unique, the gates the
//! registry evaluates are exactly the inventory below, and the combined
//! report survives the JSON writer.
//!
//! The inventory is a literal on purpose. Consolidating or rewriting a
//! scenario cannot silently drop a gate: removing one means editing this
//! list, and the edit must name the tier-1 test that asserts the same
//! property instead.

use std::collections::BTreeSet;

use gss_bench::report::{document, ScenarioReport, SCHEMA};
use gss_bench::scenarios::registry;
use gss_core::jsonio::Value;

/// Gates (a)–(v), in the order `scaling --gate` evaluates them.
const GATES: [&str; 22] = [
    "s7.indexed_verified_le_prefilter",
    "s7.index_skip_rate_ge_30pct",
    "s8.cache_hit_rate_gt_0",
    "s8.zero_mismatches",
    "s9.present",
    "s9.expanded_le_baseline",
    "s9.expanded_parity",
    "s10.auto_verified_le_best_manual",
    "s10.skyband_pruning_active",
    "s11.connections_ge_1k_on_le_2_reactors",
    "s11.zero_mismatches",
    "s11.query_p99_within_budget",
    "s12.zero_mutation_failures",
    "s12.cache_hit_rate_gt_0",
    "s12.partial_rebuilds_ge_1",
    "s12.throughput_gt_0",
    "s13.recovery_acked_prefix",
    "s13.epoch_continuity",
    "s13.retries_deduped",
    "s14.arena_le_0_6x_pointer_rich",
    "s14.load_within_budget",
    "s14.zero_answer_mismatches",
];

#[test]
fn registry_ids_gates_and_document_hold_their_contract() {
    let scenarios = registry();
    let ids: BTreeSet<&str> = scenarios.iter().map(|s| s.id()).collect();
    assert_eq!(ids.len(), scenarios.len(), "scenario ids must be unique");

    let reports: Vec<(&'static str, ScenarioReport)> =
        scenarios.iter().map(|s| (s.id(), s.run())).collect();

    let evaluated: Vec<&str> = reports
        .iter()
        .flat_map(|(_, r)| r.gates.iter().map(|g| g.name))
        .collect();
    assert_eq!(evaluated, GATES, "gate inventory drifted");
    for (id, report) in &reports {
        assert!(!report.metrics.is_empty(), "{id} reported no metrics");
        let names: BTreeSet<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names.len(),
            report.metrics.len(),
            "{id} repeats a metric name"
        );
        // A gate belongs to the scenario it is named after ("s7." ↔ "s7-index").
        let prefix = id.split('-').next().expect("split yields one item");
        for gate in &report.gates {
            assert!(
                gate.name
                    .strip_prefix(prefix)
                    .is_some_and(|r| r.starts_with('.')),
                "{id} evaluates foreign gate {}",
                gate.name
            );
        }
    }

    let doc = document(&reports);
    let parsed = Value::parse(&doc.to_compact()).expect("the document is valid JSON");
    assert_eq!(parsed, doc, "the document must round-trip unchanged");
    assert_eq!(parsed.get("schema").and_then(Value::as_str), Some(SCHEMA));
    let listed = parsed.get("scenarios").and_then(Value::as_array);
    assert_eq!(listed.map(<[Value]>::len), Some(reports.len()));
}
