//! `s10-plans` — the unified planner: every plan runs the same query with
//! the pivot index attached and must return the identical answer;
//! `Plan::Auto` must never spend more exact solver calls than the best
//! manual plan, and the pruned skyband must actually prune.

use std::sync::Arc;

use gss_core::{
    graph_similarity_skyband, graph_similarity_skyline, Plan, PruneStats, QueryOptions,
};
use gss_index::{PivotIndex, PivotIndexConfig};

use super::{record_stats, smoke};
use crate::report::{Scenario, ScenarioReport};

const SKYBAND_K: usize = 2;

pub(super) struct Plans;

impl Scenario for Plans {
    fn id(&self) -> &'static str {
        "s10-plans"
    }

    fn run(&self) -> ScenarioReport {
        let (db, query) = smoke();
        let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig::default()));
        let options = |plan: Plan| {
            QueryOptions {
                plan,
                ..QueryOptions::default()
            }
            .with_index(index.clone())
        };

        let mut report = ScenarioReport::default();
        let baseline = graph_similarity_skyline(&db, &query, &options(Plan::Naive));
        let mut verified = |name: &str, plan: Plan| {
            let r = graph_similarity_skyline(&db, &query, &options(plan));
            assert_eq!(r.skyline, baseline.skyline, "{plan:?} changed the answer");
            assert_eq!(
                r.dominated, baseline.dominated,
                "{plan:?} changed witnesses"
            );
            // The naive scan keeps no `PruneStats`; it verifies every
            // candidate, which is exactly what this entry says.
            let stats = r.pruning.unwrap_or(PruneStats {
                candidates: db.len(),
                verified: db.len(),
                ..PruneStats::default()
            });
            record_stats(&mut report, name, &stats);
            (stats.verified, r.plan.name())
        };
        let best_manual = [
            verified("naive", Plan::Naive).0,
            verified("prefilter", Plan::Prefilter).0,
            verified("indexed", Plan::Indexed).0,
        ]
        .into_iter()
        .min()
        .expect("three manual plans");
        let (auto, resolved) = verified("auto", Plan::Auto);

        let band = graph_similarity_skyband(&db, &query, SKYBAND_K, &options(Plan::Auto));
        let naive_band = graph_similarity_skyband(&db, &query, SKYBAND_K, &options(Plan::Naive));
        assert_eq!(
            band.members, naive_band.members,
            "pruned skyband changed membership"
        );
        let band_stats = band.pruning.expect("pruned skyband stats");
        record_stats(&mut report, "skyband", &band_stats);
        report.count("skyband.k", SKYBAND_K);
        report.count("skyband.members", band.members.len());

        report.gate(
            "s10.auto_verified_le_best_manual",
            auto <= best_manual,
            format!(
                "Plan::Auto ({resolved}) ran {auto} exact solver calls, \
                 the best manual plan ran {best_manual}"
            ),
        );
        // Active pruning: at least one candidate excluded by lower bounds
        // alone — neither verified nor short-circuited.
        let excluded = band_stats.candidates - band_stats.verified - band_stats.short_circuited;
        report.gate(
            "s10.skyband_pruning_active",
            excluded > 0,
            format!(
                "the pruned skyband excluded {excluded} of {} candidates without solving",
                band_stats.candidates
            ),
        );
        report
    }
}
