//! The layer probes of the traced run.
//!
//! The program has no spans of its own yet, so the harness times calls
//! into each layer's public functions, replaying the workload's own
//! inputs through them: a fixed prefix of the query stream through the
//! planner, the bound stage, the solvers and the serving path, and a
//! fixed prefix of the mutation script through four store
//! configurations. Every probe records spans; the per-layer metrics are
//! read back from the spans by name. Counts over these fixed prefixes
//! repeat exactly for one seed.

use std::path::Path;
use std::sync::Arc;

use crate::stats::{mean, median, percentile, sorted};
use crate::sut::{
    self, are_isomorphic, compute_primitives, exact_ged, ged_lower_bound, graph_similarity_skyline,
    maximum_common_subgraph_expanded, summarize_deferred, Algorithm, Client, Engine, FsyncPolicy,
    GedOptions, Graph, GraphDatabase, GraphId, GraphStore, GssResult, Objective, PivotIndex, Plan,
    PrefilterContext, QueryEnvelope, QueryIndex, QueryKey, QueryOptions, QueryOverrides, Request,
    Response, StoreConfig, Value, WireRequest,
};
use crate::trace::Tracer;
use crate::workload::{batch_of, index_lifecycle, server_config, store_config, Fixture, Kind};

/// Stream queries replayed through the planner, bound stage and solvers.
const SAMPLE_QUERIES: usize = 32;
/// Of those, queries replayed through the serving path (a response is one
/// JSON entry per database graph, so these are the expensive ones).
const SERVING_QUERIES: usize = 8;
/// Of those, queries also run under `Plan::Naive` (a full solver sweep).
const NAIVE_QUERIES: usize = 4;
/// Verified pairs replayed through the solver kernels one by one.
const KERNEL_PAIRS: usize = 256;
/// Script mutations replayed through each store configuration.
const STORE_OPS: usize = 300;

type Metrics = Vec<(&'static str, f64)>;

fn mean_us(tracer: &Tracer, span: &str) -> f64 {
    mean(&tracer.durations_us(span))
}

fn mean_ms(tracer: &Tracer, span: &str) -> f64 {
    mean_us(tracer, span) / 1e3
}

fn median_us(tracer: &Tracer, span: &str) -> f64 {
    median(&tracer.durations_us(span))
}

pub fn run(fixture: &Fixture, tracer: &mut Tracer) -> Metrics {
    let mut out = Metrics::new();
    let db = Arc::clone(&fixture.db0);
    let n = db.len() as f64;
    let samples = SAMPLE_QUERIES.min(fixture.inputs.queries.len());

    // Set-up layers: spans recorded while the fixture was built, plus the
    // index lifecycle where set-up left it to the store.
    let (index, index_bytes) = match &fixture.index {
        Some((index, bytes)) => (Arc::clone(index), *bytes),
        None => index_lifecycle(&db, fixture.scratch(), tracer),
    };
    let text = db.to_text();
    tracer.time("graph.parse_text", None, 0, || {
        GraphDatabase::from_text(&text).expect("database text parses")
    });
    for (metric, span) in [
        ("datasets.generate_ms", "datasets.generate"),
        ("graph.build_ms", "graph.build"),
        ("graph.compact_ms", "graph.compact"),
        ("graph.save_image_ms", "graph.save_image"),
        ("graph.load_image_ms", "graph.load_image"),
        ("graph.parse_text_ms", "graph.parse_text"),
        ("index.build_ms", "index.build"),
        ("index.save_ms", "index.save"),
        ("index.load_ms", "index.load"),
    ] {
        out.push((metric, mean_ms(tracer, span)));
    }
    out.push(("graph.image_bytes", fixture.image_bytes as f64));
    out.push((
        "index.build_us_per_graph",
        mean_us(tracer, "index.build") / n,
    ));
    out.push(("index.bytes", index_bytes as f64));

    memory(fixture, tracer, &mut out);
    let results = planner_and_bounds(fixture, &index, samples, tracer, &mut out);
    kernels(fixture, &results, tracer, &mut out);
    serving(
        fixture,
        &index,
        &results,
        samples.min(SERVING_QUERIES),
        tracer,
        &mut out,
    );
    store_configurations(fixture, &index, tracer, &mut out);
    out
}

/// Arena against pointer-rich bytes, how much of the arena the run
/// materialized, and the first-touch cost on a freshly loaded image.
fn memory(fixture: &Fixture, tracer: &mut Tracer, out: &mut Metrics) {
    let m = fixture.db0.memory_stats();
    out.push(("graph.arena_bytes_per_graph", m.arena_bytes_per_graph()));
    out.push((
        "graph.pointer_bytes_per_graph",
        m.pointer_rich_bytes_per_graph(),
    ));
    out.push((
        "graph.materialized_share",
        m.materialized as f64 / m.arena_graphs.max(1) as f64,
    ));
    let fresh = GraphDatabase::load(fixture.scratch().join("db.img")).expect("reload the image");
    tracer.time("graph.materialize", None, 0, || {
        for i in 0..fresh.len() {
            std::hint::black_box(fresh.get(GraphId(i)));
        }
    });
    out.push((
        "graph.materialize_us_per_graph",
        mean_us(tracer, "graph.materialize") / fresh.len() as f64,
    ));
}

/// The options the workload's own queries run under: the library
/// workloads call with the defaults, the servers attach the store's index.
fn workload_options(fixture: &Fixture, index: &Arc<PivotIndex>) -> QueryOptions {
    match fixture.spec.kind {
        Kind::Library => QueryOptions::default(),
        Kind::Server { .. } => QueryOptions::default().with_index(Arc::clone(index) as _),
    }
}

/// Replays the sample queries through the whole call, then through its
/// stages one by one — index planning, the bound stage over every
/// candidate, exact verification of exactly the pairs the real call
/// verified — and through each manual plan. Returns the whole-call results.
fn planner_and_bounds(
    fixture: &Fixture,
    index: &Arc<PivotIndex>,
    samples: usize,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Vec<GssResult> {
    let db = &*fixture.db0;
    let options = workload_options(fixture, index);
    let indexed = QueryOptions::default().with_index(Arc::clone(index) as _);
    let mut results = Vec::new();
    let (mut partitions, mut partitions_skipped, mut index_skipped) = (0usize, 0usize, 0usize);
    for (k, q) in fixture.inputs.queries.iter().take(samples).enumerate() {
        let request = k as u64;
        let root = tracer.open("probe.query", None, request);
        let result = tracer.time("core.skyline", root, request, || {
            graph_similarity_skyline(db, q, &options)
        });
        tracer.time("index.plan", root, request, || {
            index.plan(db, q, &options.measures)
        });
        tracer.time("core.bound", root, request, || {
            let ctx = PrefilterContext::for_query(q, &options.solvers, true);
            for i in 0..db.len() {
                let id = GraphId(i);
                std::hint::black_box(summarize_deferred(
                    || db.get(id),
                    db.stats(id),
                    q,
                    &options.measures,
                    &ctx,
                ));
            }
        });
        tracer.time("core.verify", root, request, || {
            for i in (0..db.len()).filter(|&i| result.evaluated[i]) {
                std::hint::black_box(compute_primitives(db.get(GraphId(i)), q, &options.solvers));
            }
        });
        // The whole call again: the mean of the two brackets the replays,
        // so drift in machine speed does not land in the residual.
        tracer.time("core.skyline", root, request, || {
            graph_similarity_skyline(db, q, &options)
        });
        if k < NAIVE_QUERIES {
            let naive = tracer.time("core.plan.naive", root, request, || {
                graph_similarity_skyline(db, q, &QueryOptions::default().with_plan(Plan::Naive))
            });
            let points: Vec<Vec<f64>> = naive.gcs.iter().map(|g| g.values.clone()).collect();
            tracer.time("skyline.filter", root, request, || {
                sut::skyline_filter(&points, Algorithm::default())
            });
        }
        tracer.time("core.plan.prefilter", root, request, || {
            graph_similarity_skyline(db, q, &QueryOptions::default().with_plan(Plan::Prefilter))
        });
        let via_index = tracer.time("core.plan.indexed", root, request, || {
            graph_similarity_skyline(db, q, &indexed)
        });
        tracer.time("core.plan.sharded2", root, request, || {
            graph_similarity_skyline(db, q, &QueryOptions::default().with_shards(2))
        });
        tracer.close(root);
        if let Some(p) = via_index.pruning {
            partitions += p.index_partitions;
            partitions_skipped += p.index_partitions_skipped;
            index_skipped += p.index_skipped;
        }
        results.push(result);
    }

    let candidates = (samples * db.len()) as f64;
    let stat = |f: fn(&sut::PruneStats) -> usize| -> f64 {
        results
            .iter()
            .filter_map(|r| r.pruning.as_ref())
            .map(f)
            .sum::<usize>() as f64
    };
    let whole = mean_us(tracer, "core.skyline");
    let plan = mean_us(tracer, "index.plan");
    let bound = mean_us(tracer, "core.bound");
    let verify = mean_us(tracer, "core.verify");
    // Only the server workloads' own calls plan through the index.
    let planned = match fixture.spec.kind {
        Kind::Library => 0.0,
        Kind::Server { .. } => plan,
    };
    out.push(("index.plan_us", plan));
    out.push((
        "index.partitions_skipped_share",
        partitions_skipped as f64 / partitions.max(1) as f64,
    ));
    out.push((
        "index.candidates_skipped_share",
        index_skipped as f64 / candidates,
    ));
    out.push(("core.bound_us_per_query", bound));
    out.push(("core.bound_ns_per_candidate", bound * 1e3 / db.len() as f64));
    out.push(("core.exec_residual_us", whole - planned - bound - verify));
    out.push(("core.plan.naive_ms", mean_ms(tracer, "core.plan.naive")));
    out.push((
        "core.plan.prefilter_ms",
        mean_ms(tracer, "core.plan.prefilter"),
    ));
    out.push(("core.plan.indexed_ms", mean_ms(tracer, "core.plan.indexed")));
    out.push((
        "core.plan.sharded2_ms",
        mean_ms(tracer, "core.plan.sharded2"),
    ));
    out.push((
        "core.verified_per_query",
        stat(|p| p.verified) / samples as f64,
    ));
    out.push(("core.pruned_share", stat(|p| p.pruned) / candidates));
    out.push((
        "core.short_circuited_per_query",
        stat(|p| p.short_circuited) / samples as f64,
    ));
    out.push(("core.verify_us_per_query", verify));
    out.push(("core.verify_share", verify / whole));
    out.push(("skyline.filter_us", mean_us(tracer, "skyline.filter")));
    results
}

/// The solver kernels on pairs the sample queries really verified.
fn kernels(fixture: &Fixture, results: &[GssResult], tracer: &mut Tracer, out: &mut Metrics) {
    let db = &*fixture.db0;
    let verified: Vec<(&Graph, &Graph)> = results
        .iter()
        .zip(&fixture.inputs.queries)
        .flat_map(|(r, q)| {
            (0..db.len())
                .filter(|&i| r.evaluated[i])
                .map(move |i| (db.get(GraphId(i)), q))
        })
        .collect();
    let step = verified.len().div_ceil(KERNEL_PAIRS).max(1);
    let pairs: Vec<(&Graph, &Graph)> = verified.into_iter().step_by(step).collect();
    let (mut ged_expanded, mut mcs_expanded) = (0u64, 0u64);
    for (k, &(g, q)) in pairs.iter().enumerate() {
        let request = k as u64;
        ged_expanded += tracer
            .time("ged.exact", None, request, || {
                exact_ged(g, q, &GedOptions::default())
            })
            .expanded;
        mcs_expanded += tracer
            .time("mcs.exact", None, request, || {
                maximum_common_subgraph_expanded(g, q, Objective::Edges)
            })
            .1;
        tracer.time("iso.vf2", None, request, || are_isomorphic(g, q));
    }
    // Too short for a span each: one span around the sweep.
    tracer.time("ged.lower_bound", None, 0, || {
        for &(g, q) in &pairs {
            std::hint::black_box(ged_lower_bound(g, q));
        }
    });
    let count = pairs.len().max(1) as f64;
    let p95 = |span: &str| percentile(&sorted(&tracer.durations_us(span)), 95.0);
    out.push(("ged.exact_us_per_pair", mean_us(tracer, "ged.exact")));
    out.push(("ged.exact_p95_us", p95("ged.exact")));
    out.push(("ged.expanded_per_pair", ged_expanded as f64 / count));
    out.push((
        "ged.lower_bound_ns_per_pair",
        mean_us(tracer, "ged.lower_bound") * 1e3 / count,
    ));
    out.push(("mcs.exact_us_per_pair", mean_us(tracer, "mcs.exact")));
    out.push(("mcs.exact_p95_us", p95("mcs.exact")));
    out.push(("mcs.expanded_per_pair", mcs_expanded as f64 / count));
    out.push(("iso.vf2_us_per_pair", mean_us(tracer, "iso.vf2")));
}

/// The serving path stage by stage on an in-process `Engine`, then the
/// same queries as a forced miss and a forced hit over a loopback server:
/// what the client sees beyond the in-process stages is transport (queue
/// wait, reactor, socket).
fn serving(
    fixture: &Fixture,
    index: &Arc<PivotIndex>,
    results: &[GssResult],
    samples: usize,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let db = &fixture.db0;
    let open = || {
        Arc::new(
            GraphStore::with_index(Arc::clone(db), Arc::clone(index), store_config())
                .expect("probe index matches the image"),
        )
    };
    let config = server_config(2 * SERVING_QUERIES);
    let engine = Engine::with_store(open(), QueryOptions::default(), &config);
    let snapshot = engine.store().snapshot();
    let (mut result_bytes, mut response_bytes) = (0usize, 0usize);
    // The request side first, for every sample: run after the response
    // side, each would start on a heap that just released a multi-megabyte
    // document and pay for that instead of for itself.
    let mut jobs = Vec::new();
    for (k, text) in fixture.inputs.query_texts.iter().take(samples).enumerate() {
        let request = k as u64;
        let envelope = QueryEnvelope {
            id: None,
            graph: text.clone(),
            overrides: QueryOverrides::default(),
            deadline_ms: None,
        };
        let wire = WireRequest::Query(Box::new(envelope));
        let line = tracer.time("protocol.encode_request", None, request, || wire.to_line());
        let line = line.trim_end();
        tracer.time("protocol.decode_request", None, request, || {
            WireRequest::from_line(line).expect("own request line decodes")
        });
        let parsed = tracer.time("server.parse", None, request, || engine.parse_request(line));
        let Ok(Request::Query(job)) = parsed else {
            panic!("probe query {k} did not parse as a query");
        };
        tracer.time("core.cachekey", None, request, || {
            QueryKey::with_database(snapshot.fingerprint(), db.vocab(), &job.graph, &job.options)
        });
        jobs.push(job);
    }
    for (k, (job, whole)) in jobs.iter().zip(results).enumerate() {
        let request = k as u64;
        let response = tracer
            .time("server.evaluate", None, request, || {
                engine.evaluate_batch(std::slice::from_ref(&**job))
            })
            .pop()
            .expect("one response per job");
        let hit = tracer.time("server.cache_lookup", None, request, || {
            engine.try_cache(job)
        });
        assert!(hit.is_some(), "an evaluated query must be cached");
        tracer.time("core.explain", None, request, || sut::to_json(db, whole));
        if let Response::Result { result, .. } = &response {
            result_bytes += result.len();
        }
        let encoded = tracer.time("protocol.encode_response", None, request, || {
            response.to_line()
        });
        response_bytes += encoded.len();
        tracer.time("protocol.decode_response", None, request, || {
            Response::from_line(encoded.trim_end()).expect("own response line decodes")
        });
    }
    for (metric, span) in [
        ("protocol.encode_request_us", "protocol.encode_request"),
        ("protocol.decode_request_us", "protocol.decode_request"),
        ("server.parse_us", "server.parse"),
        ("core.cachekey_us", "core.cachekey"),
        ("server.cache_lookup_us", "server.cache_lookup"),
        ("core.explain_us", "core.explain"),
        ("protocol.encode_response_us", "protocol.encode_response"),
        ("protocol.decode_response_us", "protocol.decode_response"),
    ] {
        out.push((metric, median_us(tracer, span)));
    }
    out.push(("core.result_bytes", result_bytes as f64 / samples as f64));
    out.push((
        "protocol.response_bytes",
        response_bytes as f64 / samples as f64,
    ));
    out.push((
        "server.evaluate_ms",
        median_us(tracer, "server.evaluate") / 1e3,
    ));

    // Loopback: each sample query once cold (a miss) and once more (a hit).
    let handle = sut::serve_store(open(), QueryOptions::default(), config)
        .expect("bind loopback probe server");
    let mut client = Client::connect(handle.addr()).expect("connect probe client");
    for (k, text) in fixture.inputs.query_texts.iter().take(samples).enumerate() {
        for span in ["server.miss", "server.hit"] {
            let response = tracer.time(span, None, k as u64, || client.query(text));
            let cached = matches!(response, Ok(Response::Result { cached: true, .. }));
            assert_eq!(
                cached,
                span == "server.hit",
                "probe {span} {k} cached = {cached}"
            );
        }
    }
    let probe_stats = client.stats().expect("probe server stats");
    drop(client);
    handle.shutdown();
    handle.join();

    let client_side = median_us(tracer, "protocol.encode_request")
        + median_us(tracer, "protocol.decode_response");
    let wire = median_us(tracer, "server.parse") + median_us(tracer, "protocol.encode_response");
    let hit_stages = client_side + wire + median_us(tracer, "server.cache_lookup");
    let miss_stages = client_side + wire + median_us(tracer, "server.evaluate");
    let (hit, miss) = (
        median_us(tracer, "server.hit"),
        median_us(tracer, "server.miss"),
    );
    out.push(("server.hit_p50_ms", hit / 1e3));
    out.push(("server.miss_p50_ms", miss / 1e3));
    out.push(("server.transport_ms_hit", (hit - hit_stages) / 1e3));
    out.push(("server.transport_ms_miss", (miss - miss_stages) / 1e3));

    // The server's own counters: the workload's server where there is
    // one (they then describe the measured traffic), else the probe's.
    let stats = fixture.server_stats().unwrap_or(probe_stats);
    let number = |path: &[&str]| -> f64 {
        path.iter()
            .try_fold(&stats, |v, key| v.get(key))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("stats verb lacks {path:?}"))
    };
    out.push(("server.cache_hit_share", number(&["cache_hit_rate"])));
    out.push((
        "server.batch_mean_size",
        number(&["batched_queries"]) / number(&["batches"]).max(1.0),
    ));
    out.push(("server.rejected", number(&["rejected"])));
    out.push((
        "server.reported_p99_ms",
        number(&["latency", "p99_us"]) / 1e3,
    ));
}

/// `GraphStore::apply` decomposed from outside: the same script prefix
/// against four public configurations, each adding one cost — snapshot
/// publish alone, + index maintenance, + WAL append, + fsync.
fn store_configurations(
    fixture: &Fixture,
    index: &Arc<PivotIndex>,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let db = &fixture.db0;
    let script = &fixture.inputs.mutations[..STORE_OPS.min(fixture.inputs.mutations.len())];
    let ops = script.len() as f64;
    let user_bytes: usize = script.iter().map(|m| m.payload_bytes()).sum();
    let replay = |span: &'static str, store: &GraphStore, tracer: &mut Tracer| {
        for (k, m) in script.iter().enumerate() {
            let receipt = tracer.time(span, None, k as u64, || store.apply(&batch_of(m)));
            assert!(receipt.is_ok(), "probe mutation {k} refused");
        }
    };
    let dir = |name: &str| {
        let dir = fixture.scratch().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    let plain = GraphStore::new(Arc::clone(db), StoreConfig::default());
    replay("store.apply.publish", &plain, tracer);
    let indexed = GraphStore::with_index(Arc::clone(db), Arc::clone(index), store_config())
        .expect("probe index matches the image");
    replay("store.apply.indexed", &indexed, tracer);
    let logged = sut::open_durable(
        Arc::clone(db),
        store_config(),
        &dir("probe-wal-off"),
        FsyncPolicy::Off,
    );
    replay("store.apply.logged", &logged, tracer);
    let durable_dir = dir("probe-wal-always");
    let durable = sut::open_durable(
        Arc::clone(db),
        store_config(),
        &durable_dir,
        FsyncPolicy::Always,
    );
    replay("store.apply.durable", &durable, tracer);

    let stats = durable.stats();
    let wal = stats.wal.expect("a durable store reports its WAL");
    let epoch = stats.epoch;
    drop(durable);
    let recovered = tracer.time("store.recover", None, 0, || {
        sut::open_durable(
            Arc::clone(db),
            store_config(),
            &durable_dir,
            FsyncPolicy::Always,
        )
    });
    let recovery = recovered
        .stats()
        .wal
        .expect("recovered store reports its WAL")
        .recovery;
    assert_eq!(
        recovered.epoch(),
        epoch,
        "recovery must reach the last applied epoch"
    );

    // Medians: the partial index rebuild every `staleness_budget` ops is
    // an outlier that would swamp a difference of means.
    let [publish, with_index, with_log, with_fsync] = [
        "store.apply.publish",
        "store.apply.indexed",
        "store.apply.logged",
        "store.apply.durable",
    ]
    .map(|span| median_us(tracer, span));
    out.push(("store.apply_us", with_fsync));
    out.push(("store.publish_us", publish));
    out.push(("index.maintain_us_per_op", with_index - publish));
    out.push(("store.wal_append_us", with_log - with_index));
    out.push(("store.fsync_us", with_fsync - with_log));
    out.push(("store.fsyncs_per_op", wal.fsyncs as f64 / ops));
    out.push(("store.checkpoints", wal.checkpoints as f64));
    out.push((
        "store.wal_bytes_per_user_byte",
        dir_bytes(&durable_dir) as f64 / user_bytes.max(1) as f64,
    ));
    out.push((
        "index.partial_rebuilds",
        stats.index_partial_rebuilds.unwrap_or(0) as f64,
    ));
    out.push(("index.full_rebuilds", stats.index_rebuilds as f64));
    out.push(("store.recover_ms", mean_ms(tracer, "store.recover")));
    out.push(("store.recover_replayed", recovery.replayed as f64));
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read WAL directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}
