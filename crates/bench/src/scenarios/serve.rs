//! `s8-serve` — a loopback `gss-server` replayed by concurrent clients:
//! repeated queries must hit the result cache, and every served document
//! must equal direct evaluation byte for byte.

use std::sync::Arc;

use gss_core::jsonio::Value;
use gss_server::{serve, ServerConfig};

use super::{oracle, prefilter_options, replay, replay_set, smoke, stat};
use crate::report::{Scenario, ScenarioReport};

const CONNECTIONS: usize = 4;
const PASSES: usize = 3;

pub(super) struct Serve;

impl Scenario for Serve {
    fn id(&self) -> &'static str {
        "s8-serve"
    }

    fn run(&self) -> ScenarioReport {
        let (db, query) = smoke();
        let db = Arc::new(db);
        let (queries, texts) = replay_set(&db, &query, 10);
        let expected = oracle(&db, &queries);

        let handle = serve(
            Arc::clone(&db),
            prefilter_options(),
            ServerConfig {
                workers: 4,
                batch_max: 8,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback server");
        let (latencies, mismatches) = replay(handle.addr(), &texts, &expected, CONNECTIONS, PASSES);
        let stats = Value::parse(&handle.stats_json()).expect("stats JSON");
        handle.shutdown();
        handle.join();

        let hit_rate = stat(&stats, "cache_hit_rate");
        let mut report = ScenarioReport::default();
        report.count("distinct_queries", texts.len());
        report.count("connections", CONNECTIONS);
        report.count("requests", latencies.len());
        report.count("cache_hits", stat(&stats, "cache_hits") as usize);
        report.metric("cache_hit_rate", "ratio", hit_rate);
        report.count("batches", stat(&stats, "batches") as usize);
        report.count("batched_queries", stat(&stats, "batched_queries") as usize);
        report.count("mismatches", mismatches);
        report.gate(
            "s8.cache_hit_rate_gt_0",
            hit_rate > 0.0,
            format!("serving replay saw cache hit rate {hit_rate:.3} on repeated queries"),
        );
        report.gate(
            "s8.zero_mismatches",
            mismatches == 0,
            format!(
                "{mismatches} of {} served responses differ from direct evaluation",
                latencies.len()
            ),
        );
        report
    }
}
