//! Mutate-while-querying loopback tests for the live store behind
//! `gss-server`.
//!
//! A writer client streams `insert` / `remove` / `update` verbs at a
//! running server while reader clients hammer it with queries. The
//! guarantees under test:
//!
//! 1. **Epoch consistency** — every served result is byte-identical to
//!    the single-threaded oracle evaluated on *some* recorded epoch's
//!    snapshot (with that epoch's maintained index), and the epochs a
//!    connection observes never go backwards.
//! 2. **Cache isolation across epochs** — once the database stops
//!    changing, replays hit the cache with bytes equal to the final
//!    epoch's oracle; mid-churn hits can only come from the same epoch
//!    because the epoch-folded fingerprint is the cache key's database
//!    component.
//! 3. **Counters** — the `stats` verb reports the epoch, the `mutated`
//!    counter, the store totals and the index maintenance counters; the
//!    tiny staleness budget forces partial rebuilds during the run.
//! 4. **Drain** — a draining server refuses mutations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod support;

use similarity_skyline::core::jsonio::Value;
use similarity_skyline::datasets::workload::WorkloadKind;
use similarity_skyline::prelude::*;
use similarity_skyline::protocol::Response;
use similarity_skyline::server::{serve_store, Client, ServerConfig};
use support::{build_workload, graph_text, oracle, renamed_text};

#[test]
fn mutations_while_querying_serve_epoch_consistent_bytes() {
    let (db, query) = build_workload(0x11FE, 16, WorkloadKind::Molecule);
    let queries = [query, db.get(GraphId(db.len() / 2)).clone()];
    let db = Arc::new(db);
    let store = Arc::new(
        GraphStore::with_index(
            Arc::clone(&db),
            Arc::new(PivotIndex::build(&db, &PivotIndexConfig::default())),
            StoreConfig {
                index: None,
                // Tiny budget: single-graph batches trip partial rebuilds
                // while the readers are querying.
                staleness_budget: 2,
            },
        )
        .expect("fresh index validates"),
    );
    let handle = serve_store(
        Arc::clone(&store),
        QueryOptions::default(),
        ServerConfig {
            workers: 3,
            batch_max: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    // Query texts are fixed up front (epoch-0 serialization); the writer
    // only ever inserts renamed copies of epoch-0 graphs, so these texts
    // parse identically against every later epoch's vocabulary.
    let texts: Vec<String> = queries.iter().map(|q| graph_text(&db, q)).collect();

    // The writer thread: 10 single-op batches over the wire, recording
    // the snapshot of every epoch it creates. It is the only mutator, so
    // after an ack for epoch N the head snapshot *is* epoch N.
    let done = AtomicBool::new(false);
    let (snapshots, reader_logs) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("writer connect");
            let mut snapshots = vec![store.snapshot()];
            let mut op = |response: Response| {
                let epoch = match response {
                    Response::Mutated { epoch, .. } => epoch,
                    other => panic!("mutation refused mid-run: {other:?}"),
                };
                let snap = store.snapshot();
                assert_eq!(snap.epoch(), epoch, "single writer: ack is the head");
                snapshots.push(snap);
                std::thread::sleep(Duration::from_millis(20));
            };
            for i in 0..4 {
                let text = renamed_text(&db, i, &format!("live{i}"));
                op(client.insert(&text).expect("insert"));
            }
            op(client.remove(&["live0".to_owned()]).expect("remove"));
            // live1 was inserted this run, so it cannot be a pivot: the
            // update stays on the incremental/partial maintenance path.
            op(client
                .update("live1", &renamed_text(&db, 5, "live1"))
                .expect("update"));
            for i in 4..8 {
                let text = renamed_text(&db, i, &format!("live{i}"));
                op(client.insert(&text).expect("insert"));
            }
            done.store(true, Ordering::SeqCst);
            snapshots
        });

        const READERS: usize = 3;
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let texts = &texts;
                let done = &done;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connect");
                    let mut log: Vec<(usize, String)> = Vec::new();
                    let mut i = r; // stagger starting query per reader
                    while !done.load(Ordering::SeqCst) || log.len() < 4 {
                        let qi = i % texts.len();
                        match client.query(&texts[qi]).expect("query") {
                            Response::Result { result, .. } => log.push((qi, result)),
                            other => panic!("reader {r}: {other:?}"),
                        }
                        i += 1;
                    }
                    log
                })
            })
            .collect();

        let snapshots = writer.join().expect("writer");
        let logs: Vec<_> = readers
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect();
        (snapshots, logs)
    });

    assert_eq!(snapshots.len(), 11, "10 batches = epochs 0..=10");
    assert_eq!(store.epoch(), 10);

    // Oracle documents per (epoch, query), evaluated on the recorded
    // snapshots with their own maintained indexes (which the engine
    // installs into the effective options at parse time).
    let oracles: Vec<Vec<String>> = snapshots
        .iter()
        .map(|snap| {
            let (db, index) = (snap.database(), snap.query_index().expect("indexed"));
            let options = QueryOptions::default().with_index(index);
            queries.iter().map(|q| oracle(db, q, &options)).collect()
        })
        .collect();

    // Every served byte matches some epoch's oracle, and each connection
    // admits a nondecreasing epoch assignment (queries pin the head
    // snapshot at parse time; a blocking connection can never observe an
    // older epoch after a newer one).
    for (r, log) in reader_logs.iter().enumerate() {
        let mut min_epoch = 0usize;
        for (j, (qi, served)) in log.iter().enumerate() {
            let epoch = (min_epoch..oracles.len())
                .find(|&e| &oracles[e][*qi] == served)
                .unwrap_or_else(|| {
                    panic!(
                        "reader {r} response {j} (query {qi}) matches no epoch \
                         >= {min_epoch}: {served}"
                    )
                });
            min_epoch = epoch;
        }
        assert!(log.len() >= 4, "reader {r} issued too few queries");
    }

    // Quiescent cache identity: with mutations stopped, a replayed query
    // is served from the cache, byte-identical to the final epoch.
    let mut client = Client::connect(addr).expect("connect");
    for (qi, text) in texts.iter().enumerate() {
        let first = match client.query(text).expect("fresh") {
            Response::Result { result, .. } => result,
            other => panic!("{other:?}"),
        };
        let replay = match client.query(text).expect("replay") {
            Response::Result { cached, result, .. } => {
                assert!(cached, "quiescent replay must hit the cache");
                result
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(first, oracles[10][qi], "head serves the final epoch");
        assert_eq!(replay, first, "cache hit changed the bytes");
    }

    // Counters: the stats verb reports the mutation epoch, totals and the
    // index maintenance that the staleness budget forced mid-run.
    let stats = client.stats().expect("stats");
    let count = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).expect(k);
    assert_eq!(count(&stats, "epoch"), 10.0, "{stats:?}");
    assert_eq!(count(&stats, "mutated"), 10.0, "{stats:?}");
    let totals = stats.get("store").expect("store totals");
    assert_eq!(count(totals, "inserted"), 8.0);
    assert_eq!(count(totals, "removed"), 1.0);
    assert_eq!(count(totals, "updated"), 1.0);
    let index = stats.get("index").expect("index counters");
    assert!(
        count(index, "partial_rebuilds") >= 1.0,
        "a budget of 2 over 10 batches must trip partial rebuilds: {stats:?}"
    );
    assert_eq!(count(index, "rebuilds"), 0.0, "no pivot was mutated");
    let store_stats = store.stats();
    assert_eq!(
        store_stats.index_partial_rebuilds.map(|p| p >= 1),
        Some(true)
    );
    assert!(store_stats.index_stale_ops.expect("indexed") <= 2);

    // Drain refuses mutations: the epoch is frozen once shutdown begins.
    let ack = client.shutdown().expect("shutdown");
    assert!(matches!(ack, Response::Draining { .. }), "{ack:?}");
    match client.insert(&renamed_text(&db, 0, "toolate")) {
        Ok(Response::Error { message, .. }) => {
            assert!(message.contains("draining"), "{message}")
        }
        Ok(other) => panic!("draining server must refuse mutations: {other:?}"),
        Err(_) => {} // connection already torn down — a valid drain outcome
    }
    handle.join();
    assert_eq!(store.epoch(), 10, "drain froze the epoch");
}
