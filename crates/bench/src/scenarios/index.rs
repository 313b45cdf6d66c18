//! `s7-index` — the pivot index against the prefilter-only scan: the
//! index must never cost extra exact solver calls and must skip a real
//! share of candidates at the partition level.

use std::sync::Arc;

use gss_core::{graph_similarity_skyline, Plan, QueryOptions};
use gss_index::{PivotIndex, PivotIndexConfig};

use super::{prefilter_options, record_stats, smoke};
use crate::report::{Scenario, ScenarioReport};

/// Floor on the share of candidates the index skips wholesale.
const INDEX_SKIP_FLOOR: f64 = 0.30;

pub(super) struct Index;

impl Scenario for Index {
    fn id(&self) -> &'static str {
        "s7-index"
    }

    fn run(&self) -> ScenarioReport {
        let (db, query) = smoke();
        let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig::default()));

        let pre = graph_similarity_skyline(&db, &query, &prefilter_options());
        let idx = graph_similarity_skyline(
            &db,
            &query,
            &QueryOptions::default().with_index(index.clone()),
        );
        let naive = graph_similarity_skyline(
            &db,
            &query,
            &QueryOptions {
                plan: Plan::Naive,
                ..QueryOptions::default()
            },
        );
        for (scan, r) in [("prefilter", &pre), ("indexed", &idx)] {
            assert_eq!(r.skyline, naive.skyline, "{scan} changed the answer");
            assert_eq!(r.dominated, naive.dominated, "{scan} changed witnesses");
        }
        let pre = pre.pruning.expect("prefilter stats");
        let idx = idx.pruning.expect("indexed stats");

        let mut report = ScenarioReport::default();
        report.count("index.pivots", index.pivots().len());
        report.count("index.partitions", index.partition_count());
        report.count("indexed.partitions_skipped", idx.index_partitions_skipped);
        report.count("indexed.pivot_probes", idx.pivot_probes);
        report.metric("indexed.skip_rate", "ratio", idx.index_skip_rate());
        record_stats(&mut report, "prefilter", &pre);
        record_stats(&mut report, "indexed", &idx);
        report.gate(
            "s7.indexed_verified_le_prefilter",
            idx.verified <= pre.verified,
            format!(
                "indexed scan verified {} candidates, prefilter-only verified {}",
                idx.verified, pre.verified
            ),
        );
        report.gate(
            "s7.index_skip_rate_ge_30pct",
            idx.index_skip_rate() >= INDEX_SKIP_FLOOR,
            format!(
                "index skipped {:.1}% of candidates at the partition level",
                idx.index_skip_rate() * 100.0
            ),
        );
        report
    }
}
