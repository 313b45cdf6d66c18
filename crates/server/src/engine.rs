//! The serving engine: protocol resolution, cache lookups and
//! micro-batched evaluation. Everything here is transport-free — the TCP
//! layer in [`crate::server`] feeds it request lines and ships back typed
//! [`Response`] values (serialized once, at the connection edge) — so the
//! whole request path is unit-testable without sockets.
//!
//! The *shape* of the wire format lives in [`gss_protocol`]; this module
//! owns the semantic half: graph text is parsed against the database
//! vocabulary, overrides are merged into the base options, cache keys are
//! built and deadlines armed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gss_core::jsonio::Value;
use gss_core::{
    exec, BatchStats, CancelToken, GraphDatabase, Plan, QueryKey, QueryOptions, SolverConfig,
};
use gss_graph::Graph;
use gss_protocol::{QueryEnvelope, Response};
use gss_store::{GraphStore, MutationBatch, MutationError, MutationReceipt, StoreConfig};

use crate::cache::ShardedCache;
use crate::stats::ServerStats;
use crate::ServerConfig;

pub use gss_protocol::WireError as RequestError;

/// A resolved protocol request: the wire verbs with the `query` envelope
/// parsed against this engine's database and options.
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Client correlation id, echoed back.
        id: Option<Value>,
    },
    /// Counter snapshot.
    Stats {
        /// Client correlation id, echoed back.
        id: Option<Value>,
    },
    /// Begin graceful drain.
    Shutdown {
        /// Client correlation id, echoed back.
        id: Option<Value>,
    },
    /// A skyline query.
    Query(Box<QueryRequest>),
    /// Append graphs to the live store.
    Insert {
        /// Client correlation id, echoed back.
        id: Option<Value>,
        /// Graphs to append, in `t/v/e` text form.
        graphs: String,
        /// Client idempotency key, deduplicated by a durable store.
        mutation_id: Option<String>,
    },
    /// Remove graphs from the live store by name.
    Remove {
        /// Client correlation id, echoed back.
        id: Option<Value>,
        /// Names of the graphs to remove.
        names: Vec<String>,
        /// Client idempotency key, deduplicated by a durable store.
        mutation_id: Option<String>,
    },
    /// Replace one named graph in place.
    Update {
        /// Client correlation id, echoed back.
        id: Option<Value>,
        /// Name of the graph to replace.
        name: String,
        /// The replacement, in `t/v/e` text form.
        graph: String,
        /// Client idempotency key, deduplicated by a durable store.
        mutation_id: Option<String>,
    },
}

/// One admitted skyline query, pinned to the MVCC snapshot it was
/// admitted against.
pub struct QueryRequest {
    /// Client correlation id, echoed back in the response.
    pub id: Option<Value>,
    /// The snapshot database this query evaluates against: mutations
    /// landing after admission cannot disturb it.
    pub db: Arc<GraphDatabase>,
    /// The parsed query graph.
    pub graph: Graph,
    /// Effective options (server base + per-request overrides).
    pub options: QueryOptions,
    /// The result-cache key.
    pub key: QueryKey,
    /// Absolute execution deadline: the dispatcher drops the request if it
    /// is still queued past this instant.
    pub deadline: Instant,
}

/// Result-cache shard count (lock granularity).
const CACHE_SHARDS: usize = 8;

/// The transport-free serving core: one live store, one base option set,
/// one result cache, one stats block.
pub struct Engine {
    store: Arc<GraphStore>,
    base: QueryOptions,
    workers: usize,
    default_deadline: Duration,
    /// The sharded LRU result cache.
    pub cache: ShardedCache,
    /// Shared observability counters.
    pub stats: ServerStats,
    /// Wall-clock of the construction-time warmup (stats precompute) —
    /// near-zero when the database was loaded from the compact binary
    /// format, whose stats columns arrive precomputed. Reported under
    /// `memory.cold_start_ms` in the `stats` verb.
    cold_start_ms: f64,
}

impl Engine {
    /// Creates the engine for one database under one server configuration.
    /// `base` supplies the defaults a request's `options` object overrides.
    pub fn new(db: Arc<GraphDatabase>, base: QueryOptions, config: &ServerConfig) -> Engine {
        Engine::with_store(
            Arc::new(GraphStore::new(db, StoreConfig::default())),
            base,
            config,
        )
    }

    /// Creates the engine over an existing live store (e.g. one carrying
    /// a maintained pivot index or a tuned staleness budget).
    pub fn with_store(store: Arc<GraphStore>, base: QueryOptions, config: &ServerConfig) -> Engine {
        // Fill the per-graph stats cache up front: a long-lived server
        // should pay the one-time summary cost at load, not on the first
        // uncached query. (Later epochs share the cells of untouched
        // graphs, so churn only recomputes what actually changed; a
        // compact-loaded database decodes its stats columns instead of
        // recomputing, which is what makes this near-instant.)
        let warmup = Instant::now();
        store.snapshot().database().precompute_stats();
        let cold_start_ms = warmup.elapsed().as_secs_f64() * 1e3;
        Engine {
            store,
            base,
            workers: config.workers.max(1),
            default_deadline: Duration::from_millis(config.default_deadline_ms),
            cache: ShardedCache::new(config.cache_capacity, CACHE_SHARDS),
            stats: ServerStats::default(),
            cold_start_ms,
        }
    }

    /// The database of the current head snapshot.
    pub fn db(&self) -> Arc<GraphDatabase> {
        Arc::clone(self.store.snapshot().database())
    }

    /// The live store behind this engine.
    pub fn store(&self) -> &Arc<GraphStore> {
        &self.store
    }

    /// The current head snapshot's fingerprint (changes every epoch).
    pub fn db_fingerprint(&self) -> u64 {
        self.store.snapshot().fingerprint()
    }

    /// Applies one mutation batch to the live store, then evicts result
    /// cache entries whose database fingerprint is no longer the head's
    /// (epoch-folded fingerprints make them unreachable the moment the
    /// epoch bumps; eviction reclaims their memory eagerly and keeps the
    /// `cache_entries` stat honest).
    pub fn apply_mutation(&self, batch: &MutationBatch) -> Result<MutationReceipt, MutationError> {
        self.apply_mutation_logged(batch, None)
    }

    /// [`Engine::apply_mutation`] with a client idempotency key. A
    /// replayed receipt (duplicate `mutation_id` on a durable store)
    /// skips the stats bump and cache eviction — nothing changed.
    pub fn apply_mutation_logged(
        &self,
        batch: &MutationBatch,
        mutation_id: Option<&str>,
    ) -> Result<MutationReceipt, MutationError> {
        let receipt = self.store.apply_logged(batch, mutation_id)?;
        if !receipt.replayed {
            ServerStats::bump(&self.stats.mutated);
            self.cache.evict_stale(self.store.snapshot().fingerprint());
        }
        Ok(receipt)
    }

    /// Parses one request line: wire shape via [`gss_protocol::Request`],
    /// then semantic resolution of the `query` envelope.
    pub fn parse_request(&self, line: &str) -> Result<Request, RequestError> {
        match gss_protocol::Request::from_line(line)? {
            gss_protocol::Request::Ping { id } => Ok(Request::Ping { id }),
            gss_protocol::Request::Stats { id } => Ok(Request::Stats { id }),
            gss_protocol::Request::Shutdown { id } => Ok(Request::Shutdown { id }),
            gss_protocol::Request::Query(envelope) => {
                let id = envelope.id.clone();
                self.parse_query(*envelope)
                    .map_err(|message| RequestError { id, message })
            }
            gss_protocol::Request::Insert {
                id,
                graphs,
                mutation_id,
            } => Ok(Request::Insert {
                id,
                graphs,
                mutation_id,
            }),
            gss_protocol::Request::Remove {
                id,
                names,
                mutation_id,
            } => Ok(Request::Remove {
                id,
                names,
                mutation_id,
            }),
            gss_protocol::Request::Update {
                id,
                name,
                graph,
                mutation_id,
            } => Ok(Request::Update {
                id,
                name,
                graph,
                mutation_id,
            }),
        }
    }

    fn parse_query(&self, envelope: QueryEnvelope) -> Result<Request, String> {
        // Pin the head snapshot: this query resolves, keys and evaluates
        // against exactly this epoch, however many mutations land while
        // it waits in the queue.
        let snapshot = self.store.snapshot();
        // Parse against a clone of the database vocabulary: label ids stay
        // consistent with the stored graphs, labels new to this query get
        // fresh ids, and the shared database stays immutable. The clone is
        // O(vocab) per request — label vocabularies are small (element and
        // bond names, not per-graph data), and parsing needs `&mut`, so a
        // copy-on-write overlay is not worth a gss-graph API change yet.
        let mut vocab = snapshot.database().vocab().clone();
        let graphs = gss_graph::format::parse_database(&envelope.graph, &mut vocab)
            .map_err(|e| format!("cannot parse query graph: {e}"))?;
        let graph = graphs
            .into_iter()
            .next()
            .ok_or_else(|| "the \"graph\" field contains no graph".to_owned())?;

        let mut options = self.base.clone();
        // The snapshot's incrementally maintained index replaces whatever
        // the base carried: it is the one that validates against this
        // epoch's database.
        if let Some(index) = snapshot.query_index() {
            options.index = Some(index);
        }
        let o = &envelope.overrides;
        if let Some(approx) = o.approx {
            options.solvers = if approx {
                SolverConfig::Approx
            } else {
                SolverConfig::Exact
            };
        }
        if let Some(plan) = o.plan {
            if plan == Plan::Indexed && options.index.is_none() {
                return Err("options.plan \"indexed\" requires a server-side index \
                     (start gss serve with --index)"
                    .to_owned());
            }
            options.plan = plan;
        }

        let deadline_ms = envelope
            .deadline_ms
            .unwrap_or(self.default_deadline.as_millis() as u64);

        // Every field of the one `QueryRequest` literal is keyed or says why not.
        let key = QueryKey::with_database(snapshot.fingerprint(), &vocab, &graph, &options);
        Ok(Request::Query(Box::new(QueryRequest {
            // Correlation metadata, echoed in the envelope around the
            // cached document, never inside it.
            id: envelope.id,
            // Its identity IS `key.database`: the snapshot's epoch-folded
            // fingerprint, passed to `with_database` above.
            db: Arc::clone(snapshot.database()),
            graph,
            options,
            // The key IS the fingerprint, not an input to it.
            key,
            // Scheduling metadata: an expired request gets an error
            // envelope, never a cached document.
            deadline: Instant::now() + Duration::from_millis(deadline_ms),
        })))
    }

    /// Answers a query from the cache, if present: the response carries
    /// `cached: true` around the byte-identical result document.
    pub fn try_cache(&self, request: &QueryRequest) -> Option<Response> {
        self.cache.get(&request.key).map(|result| Response::Result {
            id: request.id.clone(),
            cached: true,
            result,
        })
    }

    /// The `stats` verb response: the server counters plus the live
    /// store's epoch, mutation totals and index-maintenance state.
    pub fn stats_response(&self, id: &Option<Value>) -> Response {
        let mut value = self.stats.to_value(self.cache.len());
        let store = self.store.stats();
        if let Value::Object(members) = &mut value {
            let n = |v: u64| Value::Number(v as f64);
            members.push(("epoch".to_owned(), n(store.epoch)));
            members.push((
                "store".to_owned(),
                Value::Object(vec![
                    ("inserted".to_owned(), n(store.inserted)),
                    ("removed".to_owned(), n(store.removed)),
                    ("updated".to_owned(), n(store.updated)),
                ]),
            ));
            if let (Some(stale), Some(partial)) =
                (store.index_stale_ops, store.index_partial_rebuilds)
            {
                members.push((
                    "index".to_owned(),
                    Value::Object(vec![
                        ("stale_ops".to_owned(), n(stale)),
                        ("partial_rebuilds".to_owned(), n(partial)),
                        ("rebuilds".to_owned(), n(store.index_rebuilds)),
                    ]),
                ));
            }
            let mem = self.store.snapshot().database().memory_stats();
            members.push((
                "memory".to_owned(),
                Value::Object(vec![
                    ("graphs".to_owned(), n(mem.graphs as u64)),
                    ("arena_graphs".to_owned(), n(mem.arena_graphs as u64)),
                    ("materialized".to_owned(), n(mem.materialized as u64)),
                    ("arena_bytes".to_owned(), n(mem.arena_bytes as u64)),
                    (
                        "stats_columns_bytes".to_owned(),
                        n(mem.stats_columns_bytes as u64),
                    ),
                    (
                        "pointer_rich_bytes".to_owned(),
                        n(mem.pointer_rich_bytes as u64),
                    ),
                    (
                        "arena_bytes_per_graph".to_owned(),
                        Value::Number(mem.arena_bytes_per_graph()),
                    ),
                    (
                        "pointer_rich_bytes_per_graph".to_owned(),
                        Value::Number(mem.pointer_rich_bytes_per_graph()),
                    ),
                    ("pool_entries".to_owned(), n(mem.pool_entries as u64)),
                    ("pool_bytes".to_owned(), n(mem.pool_bytes as u64)),
                    (
                        "cold_start_ms".to_owned(),
                        Value::Number(self.cold_start_ms),
                    ),
                ]),
            ));
            if let Some(wal) = store.wal {
                members.push((
                    "wal".to_owned(),
                    Value::Object(vec![
                        ("appended".to_owned(), n(wal.appended)),
                        ("fsyncs".to_owned(), n(wal.fsyncs)),
                        ("checkpoints".to_owned(), n(wal.checkpoints)),
                        ("checkpoint_failures".to_owned(), n(wal.checkpoint_failures)),
                        ("last_durable_epoch".to_owned(), n(wal.last_durable_epoch)),
                        (
                            "recovery".to_owned(),
                            Value::Object(vec![
                                ("replayed".to_owned(), n(wal.recovery.replayed)),
                                (
                                    "truncated_tail".to_owned(),
                                    Value::Bool(wal.recovery.truncated_tail),
                                ),
                            ]),
                        ),
                    ]),
                ));
            }
        }
        Response::Stats {
            id: id.clone(),
            stats: value.to_compact(),
        }
    }

    /// Evaluates admitted queries as micro-batches: jobs sharing an options
    /// fingerprint go through one [`exec::skyline_batch`]
    /// call (wave-parallel across the batch, each query single-threaded —
    /// the normalization that keeps responses thread-count-invariant; a
    /// lone [`Plan::Sharded`] query instead fans its shards out across the
    /// worker pool, which is byte-identical by the sharded plan's
    /// construction), results are serialized, cached, and returned as
    /// typed [`Response`] values in job order. Jobs sharing a full
    /// [`QueryKey`] (concurrent identical queries that all missed the cold
    /// cache) are evaluated **once** and fanned out.
    ///
    /// Every evaluation carries a deadline-armed [`CancelToken`], so a
    /// query whose deadline passes *mid-scan* is aborted at the next wave
    /// checkpoint and answered with [`Response::Expired`] (counted in
    /// [`crate::ServerStats::cancelled`], distinct from the in-queue
    /// `deadline_expired` drops). Duplicates share one evaluation, so its
    /// token fires only once the **latest** duplicate deadline passed.
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is a position enumerate() produced over the same \
                  `jobs` / `reps` / `results` / `responses` slices"
    )]
    pub fn evaluate_batch(&self, jobs: &[QueryRequest]) -> Vec<Response> {
        let mut responses: Vec<Option<Response>> = (0..jobs.len()).map(|_| None).collect();
        // Group by (database, options) fingerprint pair, preserving
        // first-seen order: one micro-batch may span epochs when a
        // mutation landed between admissions, and each job must evaluate
        // against the snapshot it was keyed on.
        let mut groups: Vec<((u64, u64), Vec<usize>)> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let fp = (job.key.database, job.key.options);
            match groups.iter_mut().find(|(g, _)| *g == fp) {
                Some((_, members)) => members.push(i),
                None => groups.push((fp, vec![i])),
            }
        }
        for (_, members) in groups {
            // One representative per distinct key: duplicates ride along.
            let mut reps: Vec<usize> = Vec::new();
            for &i in &members {
                if !reps.iter().any(|&r| jobs[r].key == jobs[i].key) {
                    reps.push(i);
                }
            }
            let graphs: Vec<Graph> = reps.iter().map(|&i| jobs[i].graph.clone()).collect();
            let cancels: Vec<CancelToken> = reps
                .iter()
                .map(|&r| {
                    let latest = members
                        .iter()
                        .filter(|&&i| jobs[i].key == jobs[r].key)
                        .map(|&i| jobs[i].deadline)
                        .max()
                        // A representative represents at least itself.
                        .unwrap_or(jobs[r].deadline);
                    CancelToken::with_deadline(latest)
                })
                .collect();
            let options = QueryOptions {
                threads: self.workers,
                ..jobs[members[0]].options.clone()
            };
            // Every member of the group shares one key.database, hence
            // one pinned snapshot database.
            let db = &jobs[members[0]].db;
            let results = exec::skyline_batch(db, &graphs, &options, &cancels);
            let mut totals = BatchStats::default();
            for r in results.iter().flatten() {
                totals.absorb(r);
            }
            self.stats.absorb_batch(&totals);
            for (k, &rep) in reps.iter().enumerate() {
                match &results[k] {
                    Ok(result) => {
                        let pretty = gss_core::to_json(db, result);
                        match Value::parse(&pretty) {
                            Ok(value) => {
                                let result = value.to_compact();
                                self.cache.insert(jobs[rep].key, result.clone());
                                for &i in &members {
                                    if jobs[i].key == jobs[rep].key {
                                        responses[i] = Some(Response::Result {
                                            id: jobs[i].id.clone(),
                                            cached: false,
                                            result: result.clone(),
                                        });
                                    }
                                }
                            }
                            // Unreachable while to_json is correct, but a
                            // serializer bug must surface as an error
                            // envelope, not a worker panic that strands
                            // every queued connection.
                            Err(_) => {
                                for &i in &members {
                                    if jobs[i].key == jobs[rep].key {
                                        responses[i] = Some(Response::Error {
                                            id: jobs[i].id.clone(),
                                            message: "internal: result serialization failed"
                                                .to_owned(),
                                        });
                                    }
                                }
                            }
                        }
                    }
                    Err(_cancelled) => {
                        for &i in &members {
                            if jobs[i].key == jobs[rep].key {
                                ServerStats::bump(&self.stats.cancelled);
                                responses[i] = Some(Response::Expired {
                                    id: jobs[i].id.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        responses
            .into_iter()
            // Every job belongs to exactly one group; the fallback keeps
            // a grouping bug answerable instead of panicking mid-batch.
            .map(|r| {
                r.unwrap_or_else(|| Response::Error {
                    id: None,
                    message: "internal: job not evaluated".to_owned(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
#[expect(
    clippy::unreachable,
    reason = "tests destructure the request variant they just parsed"
)]
mod tests {
    use super::*;
    use gss_datasets::workload::{Workload, WorkloadConfig};

    fn engine() -> Engine {
        let w = Workload::generate(&WorkloadConfig {
            database_size: 12,
            ..WorkloadConfig::default()
        });
        let db = Arc::new(GraphDatabase::from_parts(w.vocab, w.graphs));
        Engine::new(db, QueryOptions::default(), &ServerConfig::default())
    }

    fn graph_text(engine: &Engine) -> String {
        gss_graph::format::write_database(
            std::slice::from_ref(engine.db().get(gss_core::GraphId(0))),
            engine.db().vocab(),
        )
    }

    fn query_line(engine: &Engine, extra: &str) -> String {
        format!(
            "{{\"op\":\"query\",\"graph\":\"{}\"{extra}}}",
            gss_core::jsonio::escape(&graph_text(engine))
        )
    }

    fn response_value(response: &Response) -> Value {
        Value::parse(response.to_line().trim()).expect("responses serialize to JSON")
    }

    #[test]
    fn parses_the_verbs() {
        let e = engine();
        assert!(matches!(
            e.parse_request("{\"op\":\"ping\"}"),
            Ok(Request::Ping { id: None })
        ));
        assert!(matches!(
            e.parse_request("{\"op\":\"stats\",\"id\":7}"),
            Ok(Request::Stats { id: Some(_) })
        ));
        assert!(matches!(
            e.parse_request("{\"op\":\"shutdown\"}"),
            Ok(Request::Shutdown { .. })
        ));
        let q = e.parse_request(&query_line(&e, ""));
        assert!(matches!(q, Ok(Request::Query(_))));
        assert!(matches!(
            e.parse_request("{\"op\":\"insert\",\"graphs\":\"t a\\nv 0 C\\n\"}"),
            Ok(Request::Insert { .. })
        ));
        assert!(matches!(
            e.parse_request("{\"op\":\"remove\",\"names\":[\"a\"]}"),
            Ok(Request::Remove { .. })
        ));
        assert!(matches!(
            e.parse_request("{\"op\":\"update\",\"name\":\"a\",\"graph\":\"t a\\nv 0 C\\n\"}"),
            Ok(Request::Update { .. })
        ));
    }

    #[test]
    fn mutations_bump_epochs_and_queries_pin_their_snapshot() {
        let e = engine();
        let before = e.db();
        // Warm the cache at epoch 0.
        let job0 = match e.parse_request(&query_line(&e, "")).unwrap() {
            Request::Query(q) => *q,
            _ => unreachable!(),
        };
        e.evaluate_batch(std::slice::from_ref(&job0));
        assert!(e.try_cache(&job0).is_some(), "epoch-0 entry cached");

        let receipt = e
            .apply_mutation(&MutationBatch::default().insert("t fresh\nv 0 C\nv 1 O\ne 0 1 =\n"))
            .expect("insert applies");
        assert_eq!(receipt.epoch, 1);
        assert_eq!(e.db().len(), before.len() + 1);
        assert_eq!(
            e.stats.mutated.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert!(
            e.try_cache(&job0).is_none(),
            "stale-epoch cache entries are evicted"
        );

        // The same query line now keys (and evaluates) against epoch 1.
        let job1 = match e.parse_request(&query_line(&e, "")).unwrap() {
            Request::Query(q) => *q,
            _ => unreachable!(),
        };
        assert_ne!(job0.key.database, job1.key.database, "epoch in the key");
        assert_eq!(job0.key.query, job1.key.query, "same graph fingerprint");
        assert_eq!(job0.db.len() + 1, job1.db.len(), "snapshots pinned");

        // One micro-batch spanning both epochs: each job evaluates against
        // its own pinned snapshot.
        let epoch1_fp = job1.key.database;
        let responses = e.evaluate_batch(&[job0, job1]);
        let result = |k: usize| match &responses[k] {
            Response::Result { result, .. } => result.clone(),
            other => panic!("expected a result, got {:?}", other.to_line()),
        };
        assert_ne!(
            result(0),
            result(1),
            "the epoch-1 answer sees the inserted graph"
        );

        // A failed batch is a no-op and does not bump anything.
        assert!(e
            .apply_mutation(&MutationBatch::default().remove("no-such-graph"))
            .is_err());
        assert_eq!(e.db_fingerprint(), epoch1_fp);

        // The stats payload reports the store state.
        let Response::Stats { stats, .. } = e.stats_response(&None) else {
            unreachable!()
        };
        let v = Value::parse(&stats).expect("stats payload parses");
        assert_eq!(v.get("epoch").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("mutated").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            v.get("store")
                .and_then(|s| s.get("inserted"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
        let mem = v.get("memory").expect("memory section");
        assert_eq!(
            mem.get("graphs").and_then(Value::as_f64),
            Some(e.db().len() as f64)
        );
        assert!(mem.get("pointer_rich_bytes").and_then(Value::as_f64) > Some(0.0));
        assert!(mem.get("cold_start_ms").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn rejects_malformed_requests() {
        let e = engine();
        for (line, what) in [
            ("", "empty line"),
            ("not json", "not JSON"),
            ("{}", "missing op"),
            ("{\"op\":\"frobnicate\"}", "unknown op"),
            ("{\"op\":\"query\"}", "missing graph"),
            (
                "{\"op\":\"query\",\"graph\":\"t g\\nv 0\"}",
                "bad graph text",
            ),
            ("{\"op\":\"query\",\"graph\":\"\"}", "no graph in text"),
            ("{\"op\":\"ping\",\"id\":[1]}", "non-scalar id"),
        ] {
            assert!(e.parse_request(line).is_err(), "{what}");
        }
        let bad_opts = query_line(&e, ",\"options\":{\"bogus\":1}");
        assert!(e.parse_request(&bad_opts).is_err(), "unknown option");
        for retired in ["{\"prefilter\":true}", "{\"algo\":\"sfs\"}"] {
            let line = query_line(&e, &format!(",\"options\":{retired}"));
            assert!(e.parse_request(&line).is_err(), "retired option {retired}");
        }
        let bad_deadline = query_line(&e, ",\"deadline_ms\":-5");
        assert!(e.parse_request(&bad_deadline).is_err(), "negative deadline");
    }

    #[test]
    fn per_request_options_override_the_base() {
        let e = engine();
        let plain = match e.parse_request(&query_line(&e, "")).unwrap() {
            Request::Query(q) => q,
            _ => unreachable!(),
        };
        assert_eq!(plain.options.solvers, SolverConfig::default());
        let tuned = match e
            .parse_request(&query_line(&e, ",\"options\":{\"approx\":true}"))
            .unwrap()
        {
            Request::Query(q) => q,
            _ => unreachable!(),
        };
        assert_eq!(tuned.options.solvers, SolverConfig::Approx);
        assert_ne!(
            plain.key.options, tuned.key.options,
            "different options, different cache slots"
        );
        assert_eq!(plain.key.query, tuned.key.query, "same graph");
    }

    #[test]
    fn evaluation_matches_direct_call_and_caches() {
        let e = engine();
        let job = match e.parse_request(&query_line(&e, "")).unwrap() {
            Request::Query(q) => q,
            _ => unreachable!(),
        };
        assert!(e.try_cache(&job).is_none(), "cold cache");
        let responses = e.evaluate_batch(std::slice::from_ref(&job));
        assert_eq!(responses.len(), 1);
        let Response::Result {
            cached: false,
            result: served,
            ..
        } = &responses[0]
        else {
            panic!("expected a fresh result, got {:?}", responses[0].to_line())
        };

        // The embedded result is byte-identical to a direct evaluation
        // (same pretty document, compacted by the same writer).
        let direct = gss_core::graph_similarity_skyline(
            &e.db(),
            &job.graph,
            &QueryOptions {
                threads: 1,
                ..job.options.clone()
            },
        );
        let direct_compact = Value::parse(&gss_core::to_json(&e.db(), &direct))
            .unwrap()
            .to_compact();
        assert_eq!(served, &direct_compact);

        // Second time around: a cache hit with the identical payload.
        let hit = e.try_cache(&job).expect("warm cache");
        let Response::Result {
            cached: true,
            result: hit_result,
            ..
        } = &hit
        else {
            panic!("expected a cache hit, got {:?}", hit.to_line())
        };
        assert_eq!(hit_result, served, "hit bytes match the fresh evaluation");
    }

    #[test]
    fn batch_groups_by_options_and_preserves_order() {
        let e = engine();
        let mk = |extra: &str| match e.parse_request(&query_line(&e, extra)).unwrap() {
            Request::Query(q) => *q,
            _ => unreachable!(),
        };
        let jobs = vec![
            mk(",\"id\":\"a\""),
            mk(",\"id\":\"b\",\"options\":{\"plan\":\"prefilter\"}"),
            mk(",\"id\":\"c\""),
        ];
        let responses = e.evaluate_batch(&jobs);
        assert_eq!(responses.len(), 3);
        for (resp, id) in responses.iter().zip(["a", "b", "c"]) {
            let v = response_value(resp);
            assert_eq!(v.get("id").and_then(Value::as_str), Some(id));
            assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        }
        // The prefilter run carries pruning stats; the naive ones don't.
        let with_stats = response_value(&responses[1]);
        assert!(with_stats.get("result").unwrap().get("pruning").is_some());
        let naive = response_value(&responses[0]);
        assert!(naive.get("result").unwrap().get("pruning").is_none());
        // Engine totals absorbed both groups — jobs "a" and "c" are the
        // same query under the same options, so they share one scan.
        let totals = e.stats.totals();
        assert_eq!(totals.queries, 2);
        assert_eq!(totals.candidates, 2 * e.db().len());
    }

    #[test]
    fn identical_jobs_in_one_batch_evaluate_once() {
        let e = engine();
        let mk = |extra: &str| match e.parse_request(&query_line(&e, extra)).unwrap() {
            Request::Query(q) => *q,
            _ => unreachable!(),
        };
        // Three identical queries plus one distinct (prefilter) one.
        let jobs = vec![
            mk(",\"id\":1"),
            mk(",\"id\":2"),
            mk(",\"id\":3"),
            mk(",\"id\":4,\"options\":{\"plan\":\"prefilter\"}"),
        ];
        let responses = e.evaluate_batch(&jobs);
        assert_eq!(responses.len(), 4);
        for (resp, id) in responses.iter().zip(1..) {
            let v = response_value(resp);
            assert_eq!(v.get("id").and_then(Value::as_f64), Some(f64::from(id)));
            assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        }
        // The three duplicates share one result document…
        let result = |k: usize| match &responses[k] {
            Response::Result { result, .. } => result.clone(),
            other => panic!("expected a result, got {:?}", other.to_line()),
        };
        assert_eq!(result(0), result(1));
        assert_eq!(result(1), result(2));
        // …and only two scans ran (one per distinct key).
        let totals = e.stats.totals();
        assert_eq!(totals.queries, 2, "duplicates must not re-evaluate");
        assert_eq!(totals.candidates, 2 * e.db().len());
    }

    #[test]
    fn plan_option_parses_and_validates() {
        let e = engine();
        let tuned = match e
            .parse_request(&query_line(&e, ",\"options\":{\"plan\":\"prefilter\"}"))
            .unwrap()
        {
            Request::Query(q) => q,
            _ => unreachable!(),
        };
        assert_eq!(tuned.options.plan, Plan::Prefilter);
        let plain = match e.parse_request(&query_line(&e, "")).unwrap() {
            Request::Query(q) => q,
            _ => unreachable!(),
        };
        assert_eq!(plain.options.plan, Plan::Auto);
        assert_ne!(
            plain.key.options, tuned.key.options,
            "different plans, different cache slots"
        );
        // The sharded plan is requestable per query (it runs as one shard
        // unless the base options carry a shard count).
        let sharded = match e
            .parse_request(&query_line(&e, ",\"options\":{\"plan\":\"sharded\"}"))
            .unwrap()
        {
            Request::Query(q) => q,
            _ => unreachable!(),
        };
        assert_eq!(sharded.options.plan, Plan::Sharded);
        assert_ne!(sharded.key.options, plain.key.options);
        let bad = query_line(&e, ",\"options\":{\"plan\":\"quantum\"}");
        assert!(e.parse_request(&bad).is_err(), "unknown plan");
        // This engine has no index, so the indexed plan must be refused at
        // parse time (not panic mid-evaluation).
        let indexed = query_line(&e, ",\"options\":{\"plan\":\"indexed\"}");
        let err = match e.parse_request(&indexed) {
            Err(err) => err,
            Ok(_) => panic!("indexed plan without an index must be rejected"),
        };
        assert!(err.message.contains("index"), "{}", err.message);
    }

    #[test]
    fn base_plan_is_never_rewritten_by_the_shard_count() {
        let w = Workload::generate(&WorkloadConfig {
            database_size: 12,
            ..WorkloadConfig::default()
        });
        let db = Arc::new(GraphDatabase::from_parts(w.vocab, w.graphs));
        let engine_with = |plan| {
            let base = QueryOptions {
                plan,
                shards: 4,
                ..QueryOptions::default()
            };
            Engine::new(Arc::clone(&db), base, &ServerConfig::default())
        };
        let evaluate = |e: &Engine| {
            let job = match e.parse_request(&query_line(e, "")).unwrap() {
                Request::Query(q) => q,
                _ => unreachable!(),
            };
            let response = e.evaluate_batch(std::slice::from_ref(&job)).remove(0);
            (job.options.plan, response_value(&response))
        };
        let result = |v: &Value, key: &str| v.get("result").unwrap().get(key).cloned();

        // A shard count next to an explicit plan leaves that plan alone.
        let (plan, prefilter) = evaluate(&engine_with(Plan::Prefilter));
        assert_eq!(plan, Plan::Prefilter);
        assert_eq!(
            result(&prefilter, "plan"),
            Some(Value::String("prefilter".into()))
        );

        // The sharded base evaluates sharded, with the Auto answer bytes.
        let (plan, sharded) = evaluate(&engine_with(Plan::Sharded));
        assert_eq!(plan, Plan::Sharded);
        assert_eq!(
            result(&sharded, "plan"),
            Some(Value::String("sharded".into()))
        );
        let (_, auto) = evaluate(&engine_with(Plan::Auto));
        for key in ["measures", "skyline"] {
            let (s, a) = (result(&sharded, key), result(&auto, key));
            assert!(s.is_some(), "{key}");
            assert_eq!(
                s.map(|v| v.to_compact()),
                a.map(|v| v.to_compact()),
                "{key}"
            );
        }
    }

    #[test]
    fn expired_deadline_cancels_mid_batch_and_counts() {
        let e = engine();
        // deadline_ms 0: already expired when evaluate_batch arms the
        // token, so the first wave checkpoint aborts the scan.
        let job = match e
            .parse_request(&query_line(&e, ",\"id\":\"late\",\"deadline_ms\":0"))
            .unwrap()
        {
            Request::Query(q) => q,
            _ => unreachable!(),
        };
        let responses = e.evaluate_batch(std::slice::from_ref(&job));
        assert!(
            matches!(&responses[0], Response::Expired { id: Some(_) }),
            "{:?}",
            responses[0].to_line()
        );
        assert_eq!(
            responses[0].to_line(),
            "{\"id\":\"late\",\"ok\":false,\"error\":\"deadline exceeded\"}\n"
        );
        assert_eq!(
            e.stats.cancelled.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        // Nothing was cached and no engine totals were absorbed.
        assert!(e.try_cache(&job).is_none());
        assert_eq!(e.stats.totals().queries, 0);
    }
}
