//! The four workloads: their sizes, set-up, measured phases and the
//! correctness gate behind `failed`.
//!
//! Sizes are chosen for the 2-core box the driver uses: everything is
//! generated by one process, library workloads evaluate with one thread,
//! server workloads run `workers = 2`, `reactor_threads = 1` and two
//! client connections. Each is small enough that a run (three set-ups,
//! the measured window, the checks) stays near 25 s, and wide enough in
//! distinct inputs that its metrics hold still from seed to seed.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{
    generate, skewed_draw, GenSpec, Inputs, Mutation, QueryKind, GROW_SHRINK, GROW_SHRINK_MIXED,
};
use crate::sut::{
    self, graph_similarity_skyline, Client, Fnv64, FsyncPolicy, GraphDatabase, GraphStore,
    MutationBatch, PivotIndex, PivotIndexConfig, Plan, QueryOptions, Response, Rng, ServerConfig,
    ServerHandle, Snapshot, StoreConfig, WireRequest,
};
use crate::trace::Tracer;

/// What runs the queries and mutations of a workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Direct library calls: `graph_similarity_skyline` with the default
    /// options, and `GraphStore::apply` on an in-memory store that
    /// maintains the pivot index set-up built, saved and loaded.
    Library,
    /// A loopback `serve_store` driven by typed `Client`s (`durable`: the
    /// store logs to a WAL with `fsync always`, and the mutation stream
    /// runs beside the queries instead of after them).
    Server { durable: bool },
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub gen: GenSpec,
    pub kind: Kind,
    /// Server result-cache entries; the distinct queries exceed it.
    pub cache_capacity: usize,
    /// Size of the hot query set half of the server requests go to.
    pub hot_set: usize,
    /// Warm-up queries before the measured window (part of set-up).
    pub warmup: usize,
    /// Distinct queries whose answers are checked against an oracle, the
    /// first `oracle_naive` of them against `Plan::Naive`.
    pub oracle_checked: usize,
    pub oracle_naive: usize,
}

/// Share of `--seconds` the query phase gets where the mutation phase
/// follows it (everywhere but `churn-durable`, where both run for the
/// whole window side by side).
const QUERY_SHARE: f64 = 0.8;

/// Set-ups per run; `setup_s` is their median and their input hashes must
/// agree (the determinism self-check).
pub const SETUP_REPS: usize = 3;

pub const SERVER_WORKERS: usize = 2;
pub const CONNECTIONS: usize = 2;

pub fn specs(quick: bool) -> Vec<Spec> {
    let mut specs = vec![
        Spec {
            name: "scan-wide",
            why: "large database, near-duplicate queries: the bound stage over every candidate \
                  carries the query, and set-up, memory and index build are at scale",
            gen: GenSpec {
                graphs: 6000,
                vertices: 7,
                queries: 2048,
                query_kind: QueryKind::Perturbed {
                    max_edits: 1,
                    styles: GROW_SHRINK,
                },
                mutations: 4_000,
            },
            kind: Kind::Library,
            cache_capacity: 0,
            hot_set: 0,
            warmup: 256,
            oracle_checked: 256,
            oracle_naive: 4,
        },
        Spec {
            name: "verify-deep",
            why: "small database, unrelated 9-vertex queries: nothing dominates early, so the \
                  exact GED / MCS solvers carry the query and the bound stage is noise",
            gen: GenSpec {
                graphs: 120,
                vertices: 9,
                queries: 512,
                query_kind: QueryKind::Independent,
                mutations: 24_000,
            },
            kind: Kind::Library,
            cache_capacity: 0,
            hot_set: 0,
            warmup: 16,
            oracle_checked: 96,
            oracle_naive: 32,
        },
        Spec {
            name: "serve-read",
            why: "loopback server, skewed reads over more distinct queries than the cache holds: \
                  the median request is a cache hit paid in wire, key, lookup and transport",
            gen: GenSpec {
                graphs: 400,
                vertices: 7,
                queries: 512,
                query_kind: QueryKind::Perturbed {
                    max_edits: 3,
                    styles: GROW_SHRINK_MIXED,
                },
                mutations: 16_000,
            },
            kind: Kind::Server { durable: false },
            cache_capacity: 256,
            hot_set: 64,
            warmup: 256,
            oracle_checked: 128,
            oracle_naive: 0,
        },
        Spec {
            name: "churn-durable",
            why: "durable server, one connection streaming fsynced mutations beside one querying: \
                  every epoch empties the cache, so store, WAL and index upkeep tax the reads",
            gen: GenSpec {
                graphs: 250,
                vertices: 7,
                queries: 512,
                query_kind: QueryKind::Perturbed {
                    max_edits: 3,
                    styles: GROW_SHRINK_MIXED,
                },
                mutations: 60_000,
            },
            kind: Kind::Server { durable: true },
            cache_capacity: 32,
            // Hot set = every query: a uniform draw. No epoch lives long
            // enough for the cache to matter.
            hot_set: 512,
            warmup: 64,
            oracle_checked: 64,
            oracle_naive: 0,
        },
    ];
    if quick {
        for s in &mut specs {
            s.gen.graphs = (s.gen.graphs / 8).max(16);
            s.gen.queries = (s.gen.queries / 4).max(16);
            s.gen.mutations /= 8;
            s.warmup = (s.warmup / 4).max(8);
            s.oracle_checked = s.oracle_checked.min(16);
            s.oracle_naive = s.oracle_naive.min(4);
        }
    }
    specs
}

/// Latencies and answers of one measured query phase.
#[derive(Default)]
pub struct QueryPhase {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    /// `(query index, answer digest)` per answered request, in order.
    pub answers: Vec<(usize, u64)>,
    /// Requests that came back refused, expired, failed or unreadable.
    pub errors: u64,
}

/// Latencies of one measured mutation phase.
#[derive(Default)]
pub struct MutationPhase {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    /// Batches refused, or acked with an epoch that is not the next one.
    pub errors: u64,
}

enum Backend {
    Library {
        store: Arc<GraphStore>,
    },
    Server {
        store: Arc<GraphStore>,
        handle: Option<ServerHandle>,
        addr: SocketAddr,
        wal_dir: Option<PathBuf>,
    },
}

/// One set-up workload: inputs, the loaded database image, and the
/// library store or the running server.
pub struct Fixture {
    pub spec: Spec,
    seed: u64,
    pub inputs: Inputs,
    /// The database as loaded from its saved image (epoch 0).
    pub db0: Arc<GraphDatabase>,
    pub image_bytes: u64,
    /// The loaded pivot index and its file size, where set-up builds one
    /// outside a store.
    pub index: Option<(Arc<PivotIndex>, u64)>,
    /// The store's snapshot at epoch 0, for checking the read phase.
    snap0: Arc<Snapshot>,
    backend: Backend,
    writer: Writer,
    scratch: PathBuf,
}

/// Where a run keeps its image, index and WAL files: inside the
/// benchmark's own `out/` directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Build → compact → save → load: the database every workload runs on is
/// the one a server would load from disk.
pub fn image_lifecycle(
    inputs: &Inputs,
    scratch: &Path,
    tracer: &mut Tracer,
) -> (Arc<GraphDatabase>, u64) {
    let mut db = tracer.time("graph.build", None, 0, || {
        GraphDatabase::from_parts(inputs.vocab.clone(), inputs.graphs.clone())
    });
    tracer.time("graph.compact", None, 0, || db.compact());
    let path = scratch.join("db.img");
    tracer.time("graph.save_image", None, 0, || {
        db.save(&path).expect("save database image")
    });
    drop(db);
    let loaded = tracer.time("graph.load_image", None, 0, || {
        GraphDatabase::load(&path).expect("load database image")
    });
    let bytes = std::fs::metadata(&path).expect("image metadata").len();
    (Arc::new(loaded), bytes)
}

/// Build → save → load of the default pivot index.
pub fn index_lifecycle(
    db: &GraphDatabase,
    scratch: &Path,
    tracer: &mut Tracer,
) -> (Arc<PivotIndex>, u64) {
    let built = tracer.time("index.build", None, 0, || {
        PivotIndex::build(db, &PivotIndexConfig::default())
    });
    let path = scratch.join("index.bin");
    tracer.time("index.save", None, 0, || {
        built.save(&path).expect("save index")
    });
    drop(built);
    let loaded = tracer.time("index.load", None, 0, || {
        PivotIndex::load(&path).expect("load index")
    });
    let bytes = std::fs::metadata(&path).expect("index metadata").len();
    (Arc::new(loaded), bytes)
}

pub fn store_config() -> StoreConfig {
    StoreConfig {
        index: Some(PivotIndexConfig::default()),
        staleness_budget: 64,
    }
}

pub fn server_config(cache_capacity: usize) -> ServerConfig {
    ServerConfig {
        workers: SERVER_WORKERS,
        reactor_threads: 1,
        cache_capacity,
        ..ServerConfig::default()
    }
}

pub fn batch_of(m: &Mutation) -> MutationBatch {
    match m {
        Mutation::Insert { text, .. } => MutationBatch::default().insert(text),
        Mutation::Remove { name } => MutationBatch::default().remove(name),
        Mutation::Update { name, text } => MutationBatch::default().update(name, text),
    }
}

/// Keeps a phase running until its window has passed *and* it holds the
/// 200 samples p95 needs — but never past four windows, so a stalled
/// system fails on the percentile rule instead of hanging.
struct Window {
    start: Instant,
    length: Duration,
}

impl Window {
    fn open(length: Duration) -> Window {
        Window {
            start: Instant::now(),
            length,
        }
    }

    fn done(&self, samples: usize) -> bool {
        let elapsed = self.start.elapsed();
        (elapsed >= self.length && samples >= 200) || elapsed >= self.length * 4
    }
}

impl Fixture {
    /// Sets one workload up: generate, build + compact + save + load the
    /// image, build + save + load the index or open the store, start the
    /// server, warm up. `rep` keeps the WAL directories of repeated
    /// set-ups apart.
    pub fn build(spec: &Spec, seed: u64, rep: usize, tracer: &mut Tracer) -> Fixture {
        let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("create scratch directory");
        let inputs = tracer.time("datasets.generate", None, 0, || generate(&spec.gen, seed));
        let (db0, image_bytes) = image_lifecycle(&inputs, &scratch, tracer);
        let mut index = None;
        let backend = match spec.kind {
            Kind::Library => {
                let (loaded, bytes) = index_lifecycle(&db0, &scratch, tracer);
                index = Some((Arc::clone(&loaded), bytes));
                let store = tracer.time("store.open", None, 0, || {
                    GraphStore::with_index(Arc::clone(&db0), loaded, store_config())
                        .expect("loaded index matches the loaded image")
                });
                Backend::Library {
                    store: Arc::new(store),
                }
            }
            Kind::Server { durable } => {
                let wal_dir = durable.then(|| scratch.join(format!("wal-{rep}")));
                let store = Arc::new(tracer.time("store.open", None, 0, || match &wal_dir {
                    Some(dir) => {
                        let _ = std::fs::remove_dir_all(dir);
                        sut::open_durable(
                            Arc::clone(&db0),
                            store_config(),
                            dir,
                            FsyncPolicy::Always,
                        )
                    }
                    None => GraphStore::new(Arc::clone(&db0), store_config()),
                }));
                let handle = tracer.time("server.start", None, 0, || {
                    sut::serve_store(
                        Arc::clone(&store),
                        QueryOptions::default(),
                        server_config(spec.cache_capacity),
                    )
                    .expect("bind loopback server")
                });
                Backend::Server {
                    addr: handle.addr(),
                    store,
                    handle: Some(handle),
                    wal_dir,
                }
            }
        };
        let snap0 = match &backend {
            Backend::Library { store } | Backend::Server { store, .. } => store.snapshot(),
        };
        let mut fixture = Fixture {
            spec: spec.clone(),
            seed,
            inputs,
            db0,
            image_bytes,
            index,
            snap0,
            backend,
            writer: Writer::default(),
            scratch,
        };
        let warmup = fixture.spec.warmup;
        tracer.time("warmup", None, 0, || fixture.warm_up(warmup));
        fixture
    }

    /// Untimed queries that fill lazy state (materialized graphs, stat
    /// columns, the server cache) before the measured window.
    fn warm_up(&mut self, count: usize) {
        match &self.backend {
            Backend::Library { .. } => {
                let options = QueryOptions::default();
                for q in self.inputs.queries.iter().cycle().take(count) {
                    std::hint::black_box(graph_similarity_skyline(&self.db0, q, &options));
                }
            }
            Backend::Server { addr, .. } => {
                // The cache's steady state under the skewed draw: the hot
                // set plus the most recent cold queries. Cold ones first,
                // so the LRU order ends with the hot set freshest.
                let mut client = Client::connect(addr).expect("connect warm-up client");
                let texts = &self.inputs.query_texts;
                let hot = self.spec.hot_set.min(texts.len());
                let cold = count.saturating_sub(hot).min(texts.len() - hot);
                for text in texts[texts.len() - cold..]
                    .iter()
                    .chain(&texts[..hot.min(count)])
                {
                    let _ = client.query(text);
                }
            }
        }
    }

    /// The measured window(s) of one run: queries then mutations, or for
    /// the durable server both side by side.
    pub fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> (QueryPhase, MutationPhase) {
        if self.spec.kind == (Kind::Server { durable: true }) {
            return self.churn_phase(Duration::from_secs_f64(seconds), tracer);
        }
        let queries = self.query_phase(Duration::from_secs_f64(seconds * QUERY_SHARE), tracer);
        let mutations = self.mutation_phase(
            Duration::from_secs_f64(seconds * (1.0 - QUERY_SHARE)),
            tracer,
        );
        (queries, mutations)
    }

    /// The traced run's windows: the query window half untraced, half
    /// traced (the two medians give the tracing overhead), then the
    /// mutations traced. Returns `(untraced, traced, mutations)`.
    pub fn measure_traced(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> (QueryPhase, QueryPhase, MutationPhase) {
        let half = Duration::from_secs_f64(seconds / 2.0);
        if self.spec.kind == (Kind::Server { durable: true }) {
            let (plain, mut mutations) = self.churn_phase(half, &mut Tracer::off());
            let (traced, more) = self.churn_phase(half, tracer);
            mutations.latencies_ms.extend(more.latencies_ms);
            mutations.errors += more.errors;
            mutations.wall_s += more.wall_s;
            return (plain, traced, mutations);
        }
        let plain = self.query_phase(half.mul_f64(QUERY_SHARE), &mut Tracer::off());
        let traced = self.query_phase(half.mul_f64(QUERY_SHARE), tracer);
        let mutations = self.mutation_phase(
            Duration::from_secs_f64(seconds * (1.0 - QUERY_SHARE)),
            tracer,
        );
        (plain, traced, mutations)
    }

    /// Closed-loop queries for one window: the query stream in order
    /// through the library, or seeded skewed draws on each of the two
    /// connections of the server.
    pub fn query_phase(&mut self, window: Duration, tracer: &mut Tracer) -> QueryPhase {
        match &self.backend {
            Backend::Library { .. } => {
                let options = QueryOptions::default();
                let mut phase = QueryPhase::default();
                let queries = &self.inputs.queries;
                let window = Window::open(window);
                let mut i = 0usize;
                while !window.done(i) {
                    let idx = i % queries.len();
                    let root = tracer.open("request", None, i as u64);
                    let t = Instant::now();
                    let result = tracer.time("core.skyline", root, i as u64, || {
                        graph_similarity_skyline(&self.db0, &queries[idx], &options)
                    });
                    phase.latencies_ms.push(ms(t.elapsed()));
                    phase.answers.push((idx, sut::answer_digest(&result)));
                    tracer.close(root);
                    i += 1;
                }
                phase.wall_s = window.start.elapsed().as_secs_f64();
                phase
            }
            Backend::Server { addr, .. } => {
                let start = Instant::now();
                let phases: Vec<(QueryPhase, Tracer)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..CONNECTIONS)
                        .map(|conn| {
                            let mut t = tracer.fork();
                            let this = &*self;
                            scope.spawn(move || {
                                // Each connection brings its share of the
                                // 200 samples p95 takes.
                                let window = Window::open(window);
                                let done = |n: usize| window.done(n * CONNECTIONS);
                                (this.read_loop(*addr, conn, done, &mut t), t)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("reader thread"))
                        .collect()
                });
                let mut merged = QueryPhase {
                    wall_s: start.elapsed().as_secs_f64(),
                    ..QueryPhase::default()
                };
                for (phase, t) in phases {
                    merged.latencies_ms.extend(phase.latencies_ms);
                    merged.answers.extend(phase.answers);
                    merged.errors += phase.errors;
                    tracer.absorb(t);
                }
                merged
            }
        }
    }

    /// One connection's closed loop of skewed query draws, until `done`
    /// (given the requests made so far) says so.
    fn read_loop(
        &self,
        addr: SocketAddr,
        conn: usize,
        done: impl Fn(usize) -> bool,
        tracer: &mut Tracer,
    ) -> QueryPhase {
        let mut phase = QueryPhase::default();
        let mut client = Client::connect(addr).expect("connect reader");
        let mut rng = Rng::seed_from_u64(self.seed ^ (conn as u64 + 1).wrapping_mul(0xC0FFEE));
        let texts = &self.inputs.query_texts;
        let start = Instant::now();
        loop {
            let n = phase.latencies_ms.len() + phase.errors as usize;
            if done(n) {
                break;
            }
            let idx = skewed_draw(&mut rng, self.spec.hot_set, texts.len());
            let request = ((conn as u64) << 32) | n as u64;
            let t = Instant::now();
            let response = tracer.time("client.roundtrip", None, request, || {
                client.query(&texts[idx])
            });
            let elapsed = ms(t.elapsed());
            match response {
                Ok(Response::Result { result, .. }) => {
                    phase.latencies_ms.push(elapsed);
                    phase.answers.push((idx, fnv(result.as_bytes())));
                }
                _ => phase.errors += 1,
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase
    }

    /// Single-op mutation batches from the script for one window, each
    /// acked before the next is sent: `GraphStore::apply` in the library
    /// workloads, the mutation verbs on one connection of the server.
    pub fn mutation_phase(&mut self, window: Duration, tracer: &mut Tracer) -> MutationPhase {
        let script = &self.inputs.mutations;
        match &self.backend {
            Backend::Library { store, .. } => self.writer.run(script, window, tracer, |m, _| {
                store.apply(&batch_of(m)).ok().map(|receipt| receipt.epoch)
            }),
            Backend::Server { addr, .. } => {
                let mut client = Client::connect(addr).expect("connect writer");
                self.writer
                    .run(script, window, tracer, |m, k| send(&mut client, m, k))
            }
        }
    }

    /// `churn-durable`: connection A streams mutations for the window
    /// while connection B queries closed-loop until A finishes.
    fn churn_phase(
        &mut self,
        window: Duration,
        tracer: &mut Tracer,
    ) -> (QueryPhase, MutationPhase) {
        let Backend::Server { addr, .. } = &self.backend else {
            unreachable!("churn runs on a server backend");
        };
        let addr = *addr;
        let stop = AtomicBool::new(false);
        let mut reader_tracer = tracer.fork();
        // The reader borrows the fixture, so the writer works on a copy of
        // its cursor and hands it back.
        let mut writer = self.writer;
        let (queries, mutations) = std::thread::scope(|scope| {
            let (this, stop, reader_tracer) = (&*self, &stop, &mut reader_tracer);
            let reader = scope.spawn(move || {
                this.read_loop(addr, 1, |_| stop.load(Ordering::SeqCst), reader_tracer)
            });
            let mut client = Client::connect(addr).expect("connect writer");
            let mutations = writer.run(&self.inputs.mutations, window, tracer, |m, k| {
                send(&mut client, m, k)
            });
            stop.store(true, Ordering::SeqCst);
            (reader.join().expect("reader thread"), mutations)
        });
        tracer.absorb(reader_tracer);
        self.writer = writer;
        (queries, mutations)
    }

    /// Checks the answers of a measured run against oracles, after the
    /// peak-memory reading. Returns `(extra attempted, failed)`: the
    /// checks that are requests of their own (the post-churn replay, the
    /// reopen) count as attempted too.
    pub fn verify(&mut self, queries: &QueryPhase) -> (u64, u64) {
        let checked = self.checked_queries(queries);
        let mut failed = 0u64;
        let mut extra = 0u64;
        match &mut self.backend {
            Backend::Library { store, .. } => {
                // Oracles run on the pointer-rich database the image was
                // compacted from: Naive for a sample, Prefilter for the rest.
                let oracle = GraphDatabase::from_parts(
                    self.inputs.vocab.clone(),
                    self.inputs.graphs.clone(),
                );
                for (rank, &idx) in checked.iter().enumerate() {
                    let plan = if rank < self.spec.oracle_naive {
                        Plan::Naive
                    } else {
                        Plan::Prefilter
                    };
                    let options = QueryOptions::default().with_plan(plan);
                    let want = sut::answer_digest(&graph_similarity_skyline(
                        &oracle,
                        &self.inputs.queries[idx],
                        &options,
                    ));
                    failed += mismatches(queries, idx, want);
                }
                // The store must hold exactly what the script left alive.
                let live = live_after(&self.inputs.mutations[..self.writer.cursor]);
                let db = store.snapshot();
                if db.database().len() != self.inputs.graphs.len() + live
                    || db.epoch() != self.writer.acked_epoch
                {
                    failed += 1;
                }
            }
            Backend::Server {
                store,
                handle,
                addr,
                wal_dir,
            } => {
                if let Some(dir) = wal_dir {
                    // The during-churn answers belong to epochs the client
                    // cannot name, so the byte check is a replay at the
                    // final epoch.
                    let last = store.snapshot();
                    let mut client = Client::connect(*addr).expect("connect replay client");
                    for &idx in &checked {
                        let text = &self.inputs.query_texts[idx];
                        extra += 1;
                        let want = direct_document(&last, &self.inputs.queries[idx]);
                        match client.query(text) {
                            Ok(Response::Result { result, .. }) if result == want => {}
                            _ => failed += 1,
                        }
                    }
                    // Reopening the data dir must recover exactly the last
                    // acked epoch and its fingerprint.
                    extra += 1;
                    let fingerprint = last.fingerprint();
                    drop(last);
                    shutdown(handle);
                    let reopened = sut::open_durable(
                        Arc::clone(&self.db0),
                        store_config(),
                        dir,
                        FsyncPolicy::Always,
                    );
                    let recovered = reopened.snapshot();
                    if recovered.epoch() != self.writer.acked_epoch
                        || recovered.fingerprint() != fingerprint
                    {
                        failed += 1;
                    }
                } else {
                    // Every served result must be the compact document of
                    // direct evaluation at the epoch the reads ran on.
                    for &idx in &checked {
                        let want =
                            fnv(direct_document(&self.snap0, &self.inputs.queries[idx]).as_bytes());
                        failed += mismatches(queries, idx, want);
                    }
                    if store.epoch() != self.writer.acked_epoch {
                        failed += 1;
                    }
                }
            }
        }
        (extra, failed)
    }

    /// Up to `oracle_checked` of the distinct queries the phase ran,
    /// evenly spaced.
    fn checked_queries(&self, queries: &QueryPhase) -> Vec<usize> {
        let mut distinct: Vec<usize> = queries.answers.iter().map(|&(idx, _)| idx).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let step = distinct
            .len()
            .div_ceil(self.spec.oracle_checked.max(1))
            .max(1);
        distinct.into_iter().step_by(step).collect()
    }

    /// The server's own counters (the `stats` verb), for the traced run.
    pub fn server_stats(&self) -> Option<sut::Value> {
        match &self.backend {
            Backend::Server { addr, .. } => Client::connect(addr).ok()?.stats().ok(),
            Backend::Library { .. } => None,
        }
    }

    pub fn scratch(&self) -> &Path {
        &self.scratch
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Backend::Server { handle, .. } = &mut self.backend {
            shutdown(handle);
        }
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// Drains and joins the server, once.
fn shutdown(handle: &mut Option<ServerHandle>) {
    if let Some(handle) = handle.take() {
        handle.shutdown();
        handle.join();
    }
}

/// Where the mutation stream stands: the next script entry and the last
/// acked epoch.
#[derive(Copy, Clone, Default)]
struct Writer {
    cursor: usize,
    acked_epoch: u64,
}

impl Writer {
    /// Applies script entries through `apply` (which returns the acked
    /// epoch, `None` for a refusal) for one window or until the script
    /// ends. Acks must carry epochs 1, 2, 3, … with no gap or repeat.
    fn run(
        &mut self,
        script: &[Mutation],
        window: Duration,
        tracer: &mut Tracer,
        mut apply: impl FnMut(&Mutation, usize) -> Option<u64>,
    ) -> MutationPhase {
        let mut phase = MutationPhase::default();
        let window = Window::open(window);
        while !window.done(phase.latencies_ms.len()) && self.cursor < script.len() {
            let k = self.cursor;
            let t = Instant::now();
            let epoch = tracer.time("mutation", None, k as u64, || apply(&script[k], k));
            phase.latencies_ms.push(ms(t.elapsed()));
            self.cursor += 1;
            if epoch != Some(self.acked_epoch + 1) {
                phase.errors += 1;
            }
            self.acked_epoch = epoch.unwrap_or(self.acked_epoch);
        }
        phase.wall_s = window.start.elapsed().as_secs_f64();
        phase
    }
}

/// One mutation over the wire, with its `mutation_id`; the acked epoch of
/// a first application, `None` for anything else.
fn send(client: &mut Client, m: &Mutation, k: usize) -> Option<u64> {
    let mutation_id = Some(format!("m{k}"));
    let request = match m {
        Mutation::Insert { text, .. } => WireRequest::Insert {
            id: None,
            graphs: text.clone(),
            mutation_id,
        },
        Mutation::Remove { name } => WireRequest::Remove {
            id: None,
            names: vec![name.clone()],
            mutation_id,
        },
        Mutation::Update { name, text } => WireRequest::Update {
            id: None,
            name: name.clone(),
            graph: text.clone(),
            mutation_id,
        },
    };
    match client.request(&request) {
        Ok(Response::Mutated {
            epoch,
            replayed: false,
            ..
        }) => Some(epoch),
        _ => None,
    }
}

/// The compact result document of evaluating `query` directly on a
/// snapshot, as the server would for a request without overrides.
fn direct_document(snapshot: &Snapshot, query: &sut::Graph) -> String {
    let db = snapshot.database();
    let result = graph_similarity_skyline(db, query, &sut::snapshot_options(snapshot));
    sut::result_document(db, &result)
}

/// How many answers to query `idx` differ from the oracle's digest.
fn mismatches(queries: &QueryPhase, idx: usize, want: u64) -> u64 {
    queries
        .answers
        .iter()
        .filter(|&&(i, got)| i == idx && got != want)
        .count() as u64
}

/// Script-inserted graphs alive after a prefix of the script.
fn live_after(script: &[Mutation]) -> usize {
    script.iter().fold(0usize, |live, m| match m {
        Mutation::Insert { .. } => live + 1,
        Mutation::Remove { .. } => live - 1,
        Mutation::Update { .. } => live,
    })
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}
