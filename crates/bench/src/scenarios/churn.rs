//! `s12-churn` — interleaved mutation and query traffic on the live
//! store: one writer streams batches (bumping an epoch each) under a tiny
//! staleness budget so partial index rebuilds happen mid-run, while
//! reader connections keep querying; a quiescent replay then collects
//! epoch-keyed cache hits.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use gss_core::jsonio::Value;
use gss_index::PivotIndexConfig;
use gss_server::{serve_store, Client, GraphStore, Response, ServerConfig, StoreConfig};

use super::{donor_text, prefilter_options, replay_set, smoke, stat};
use crate::report::{Scenario, ScenarioReport};

const READERS: usize = 3;
const PASSES: usize = 2;
const BATCHES: usize = 40;
const STALENESS_BUDGET: u64 = 4;

pub(super) struct Churn;

impl Scenario for Churn {
    fn id(&self) -> &'static str {
        "s12-churn"
    }

    fn run(&self) -> ScenarioReport {
        let (db, query) = smoke();
        let db = Arc::new(db);
        let store = Arc::new(GraphStore::new(
            Arc::clone(&db),
            StoreConfig {
                index: Some(PivotIndexConfig::default()),
                staleness_budget: STALENESS_BUDGET,
            },
        ));
        let (_, texts) = replay_set(&db, &query, 20);
        let handle = serve_store(
            Arc::clone(&store),
            prefilter_options(),
            ServerConfig {
                workers: 4,
                batch_max: 8,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback server");
        let addr = handle.addr();

        // Phase 1 — churn: the writer streams insert / remove / update
        // batches while the readers replay the query set (each query
        // pinning whatever epoch is current when it is admitted).
        let t0 = Instant::now();
        let (failures, mut requests) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect writer");
                let mut live: VecDeque<String> = VecDeque::new();
                let mut failures = 0usize;
                for i in 0..BATCHES {
                    let response = match i % 8 {
                        5 if !live.is_empty() => {
                            let name = live.pop_front().expect("nonempty");
                            client.remove(&[name]).expect("remove")
                        }
                        7 if !live.is_empty() => {
                            let name = live.back().expect("nonempty").clone();
                            client
                                .update(&name, &donor_text(&db, i * 7 + 3, &name))
                                .expect("update")
                        }
                        _ => {
                            let name = format!("churn{i}");
                            let ack = client
                                .insert(&donor_text(&db, i * 3 + 1, &name))
                                .expect("insert");
                            live.push_back(name);
                            ack
                        }
                    };
                    if !matches!(response, Response::Mutated { .. }) {
                        failures += 1;
                    }
                }
                failures
            });
            let readers: Vec<_> = (0..READERS)
                .map(|c| {
                    let texts = &texts;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect reader");
                        for k in 0..PASSES * texts.len() {
                            let response = client.query(&texts[(k + c) % texts.len()]);
                            assert!(response.expect("query").is_ok(), "churn query refused");
                        }
                        PASSES * texts.len()
                    })
                })
                .collect();
            let failures = writer.join().expect("churn writer panicked");
            let served: usize = readers
                .into_iter()
                .map(|h| h.join().expect("churn reader panicked"))
                .sum();
            (failures, served)
        });

        // Phase 2 — quiescent replay: mutations stopped, so replaying the
        // set twice on one connection must produce epoch-keyed cache hits.
        let mut client = Client::connect(addr).expect("connect replay");
        for text in texts.iter().chain(&texts) {
            let response = client.query(text).expect("replay query");
            assert!(response.is_ok(), "quiescent replay refused");
            requests += 1;
        }
        let qps = requests as f64 / t0.elapsed().as_secs_f64().max(1e-9);

        let stats = Value::parse(&handle.stats_json()).expect("stats JSON");
        handle.shutdown();
        handle.join();
        let store_stats = store.stats();
        let hit_rate = stat(&stats, "cache_hit_rate");
        let partial_rebuilds = store_stats.index_partial_rebuilds.unwrap_or_default();

        let mut report = ScenarioReport::default();
        report.count("staleness_budget", STALENESS_BUDGET as usize);
        report.count("mutation_batches", store_stats.batches as usize);
        report.count("mutation_failures", failures);
        report.count("epochs", store_stats.epoch as usize);
        report.count("inserted", store_stats.inserted as usize);
        report.count("removed", store_stats.removed as usize);
        report.count("updated", store_stats.updated as usize);
        report.count("requests", requests);
        report.metric("queries_per_sec", "1/s", qps);
        report.metric("cache_hit_rate", "ratio", hit_rate);
        report.count("index.partial_rebuilds", partial_rebuilds as usize);
        report.count("index.full_rebuilds", store_stats.index_rebuilds as usize);
        report.count(
            "index.stale_ops",
            store_stats.index_stale_ops.unwrap_or_default() as usize,
        );
        report.gate(
            "s12.zero_mutation_failures",
            failures == 0 && store_stats.batches > 0 && store_stats.epoch == store_stats.batches,
            format!(
                "applied {} batches with {failures} failures over {} epochs \
                 (every batch must land and bump exactly one epoch)",
                store_stats.batches, store_stats.epoch
            ),
        );
        report.gate(
            "s12.cache_hit_rate_gt_0",
            hit_rate > 0.0,
            format!("cache hit rate {hit_rate:.3} once mutation stopped"),
        );
        report.gate(
            "s12.partial_rebuilds_ge_1",
            partial_rebuilds >= 1,
            format!(
                "{partial_rebuilds} partial index rebuilds with a staleness budget of \
                 {STALENESS_BUDGET} over {} batches",
                store_stats.batches
            ),
        );
        report.gate(
            "s12.throughput_gt_0",
            requests > 0 && qps > 0.0,
            format!("served {requests} queries at {qps:.1} q/s while the store mutated"),
        );
        report
    }
}
