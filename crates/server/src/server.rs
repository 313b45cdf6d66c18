//! The TCP transport's back half: the bounded admission queue, the
//! micro-batching dispatcher and the one protocol path every request
//! line takes.
//!
//! There is one front end — the `poll(2)` readiness loop in the `reactor`
//! module, [`ServerConfig::reactor_threads`] threads of it — and one back
//! end:
//!
//! ```text
//! reactor 0..R    frame lines · sequence responses   [Conn]
//!                 │  parse · cache lookup · admission   [process_line]
//!                 ▼
//!          AdmissionQueue (bounded, Mutex + Condvar)
//!                 │  pop up to batch_max
//!                 ▼
//!          dispatcher ──► Engine::evaluate_batch ──► Responder
//! ```
//!
//! Admission control: a reactor either answers a line itself (errors,
//! `ping` / `stats` / `shutdown`, mutations, cache hits), admits the
//! query (a `Responder` carries the completion back to the owning
//! reactor's completion queue), or — when the queue is at capacity or the
//! server is draining — immediately answers the backpressure envelope
//! with `retry_after_ms`. Nothing admitted is ever dropped: graceful
//! drain stops *admission* but the dispatcher keeps popping until the
//! queue is empty, so every admitted job receives a response (possibly
//! `deadline exceeded`) before the dispatcher exits and sets
//! `Shared::dispatcher_done` (the reactors' signal that no more
//! completions are owed).
//!
//! Deadlines are enforced twice: requests still queued past their
//! deadline are dropped here (`deadline_expired`), and requests whose
//! deadline passes *during* evaluation are aborted mid-scan by the
//! engine's per-query [`gss_core::CancelToken`] (`cancelled`) — see
//! [`Engine::evaluate_batch`].

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use gss_core::jsonio::Value;
use gss_core::{GraphDatabase, QueryOptions};
use gss_protocol::Response;
use gss_store::{FaultPlan, GraphStore, MutationBatch, StoreConfig};

use crate::engine::{Engine, QueryRequest, Request};
use crate::reactor::ReactorShared;
use crate::stats::ServerStats;

/// The `retry_after_ms` hint sent with backpressure rejections.
const RETRY_AFTER_MS: u64 = 50;

/// Configuration of one [`serve`] instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads the dispatcher spreads each micro-batch across.
    pub workers: usize,
    /// Event-loop threads multiplexing connections (1 is enough for
    /// thousands of idle connections; values below 1 run one).
    pub reactor_threads: usize,
    /// Static candidate shards for evaluation. `> 1` rewrites the base
    /// options to [`gss_core::Plan::Sharded`] with this shard count so a
    /// single big query fans its verification across `workers`;
    /// per-request `"plan"` overrides still win. `0`/`1` leave the base
    /// plan untouched.
    pub shards: usize,
    /// Admission queue capacity; a full queue rejects with backpressure.
    pub queue_capacity: usize,
    /// Total result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Most queries one micro-batch evaluates together.
    pub batch_max: usize,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Deterministic fault plan for connection-level chaos testing
    /// (injection point `conn.write`). Empty in production; see
    /// [`gss_store::FaultPlan`].
    pub faults: Arc<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            reactor_threads: 1,
            shards: 1,
            queue_capacity: 64,
            cache_capacity: 256,
            batch_max: 8,
            default_deadline_ms: 30_000,
            faults: Arc::new(FaultPlan::none()),
        }
    }
}

/// How a completed evaluation travels back to its connection: the
/// owning reactor's completion queue, under the connection's slab token
/// and the request's sequence number. Created by the reactor for each
/// request line; consumed at most once, by the dispatcher. Serialization
/// to wire bytes happens here — the connection edge — so the cache and
/// engine stay typed.
pub(crate) struct Responder {
    pub(crate) reactor: Arc<ReactorShared>,
    pub(crate) token: usize,
    pub(crate) seq: u64,
}

impl Responder {
    pub(crate) fn send(self, response: Response) {
        self.reactor
            .complete(self.token, self.seq, response.to_line());
    }
}

/// One admitted query waiting for the dispatcher.
pub(crate) struct Job {
    pub(crate) request: QueryRequest,
    pub(crate) enqueued: Instant,
    pub(crate) respond: Responder,
}

#[derive(Default)]
struct QueueState {
    jobs: std::collections::VecDeque<Job>,
    draining: bool,
}

/// The bounded admission queue.
pub(crate) struct AdmissionQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            state: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits a job unless the queue is full or draining (the job is
    /// boxed so rejection hands it back without a large copy).
    fn push(&self, job: Box<Job>) -> Result<(), Box<Job>> {
        // Poison recovery: a panicked worker must not take the whole
        // queue down with it; the state it guards stays structurally
        // valid (push_back / drain are not interruptible mid-update).
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.draining || state.jobs.len() >= self.capacity {
            return Err(job);
        }
        state.jobs.push_back(*job);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks for the next batch (up to `max` jobs); `None` once the queue
    /// is draining *and* empty.
    fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if !state.jobs.is_empty() {
                let take = max.max(1).min(state.jobs.len());
                return Some(state.jobs.drain(..take).collect());
            }
            if state.draining {
                return None;
            }
            state = self.cond.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stops admission and wakes the dispatcher so it can drain and exit.
    fn drain(&self) {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .draining = true;
        self.cond.notify_all();
    }
}

/// State shared by the reactors and the dispatcher.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) queue: AdmissionQueue,
    pub(crate) config: ServerConfig,
    /// Set once the dispatcher has exited: every admitted job has been
    /// answered, so reactors owe no more completions and may close their
    /// connections as soon as their buffers are flushed.
    pub(crate) dispatcher_done: AtomicBool,
}

impl Shared {
    pub(crate) fn begin_drain(&self) {
        self.engine.stats.draining.store(true, Ordering::Relaxed);
        self.queue.drain();
    }

    pub(crate) fn draining(&self) -> bool {
        self.engine.stats.draining.load(Ordering::Relaxed)
    }

    /// The `stats` verb payload (a one-line JSON object).
    fn stats_json(&self) -> String {
        self.engine
            .stats
            .to_value(self.engine.cache.len())
            .to_compact()
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or send the `shutdown` verb) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactors: Vec<std::thread::JoinHandle<()>>,
    dispatcher: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared observability counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.engine.stats
    }

    /// The current `stats` verb payload (a one-line JSON object).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// Begins graceful drain, exactly like receiving the `shutdown` verb.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Waits for the drain to complete (dispatcher and reactors exited,
    /// every admitted job answered) and returns the final stats payload.
    pub fn join(self) -> String {
        let _ = self.dispatcher.join();
        for reactor in self.reactors {
            let _ = reactor.join();
        }
        self.shared.stats_json()
    }
}

/// Starts serving `db` (with `base` as the default query options) and
/// returns once the listener is bound. The database is wrapped in an
/// index-less [`GraphStore`], so the mutation verbs work out of the box;
/// use [`serve_store`] to serve a store with a maintained pivot index or
/// a tuned staleness budget.
pub fn serve(
    db: Arc<GraphDatabase>,
    base: QueryOptions,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_store(
        Arc::new(GraphStore::new(db, StoreConfig::default())),
        base,
        config,
    )
}

/// Starts serving a live [`GraphStore`] (with `base` as the default query
/// options) and returns once the listener is bound.
pub fn serve_store(
    store: Arc<GraphStore>,
    base: QueryOptions,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared {
        engine: Engine::with_store(store, base, &config),
        queue: AdmissionQueue::new(config.queue_capacity),
        config,
        dispatcher_done: AtomicBool::new(false),
    });

    let reactors = crate::reactor::spawn_reactors(&shared, listener)?;
    let dispatcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || dispatch_loop(shared))
    };

    Ok(ServerHandle {
        addr,
        shared,
        reactors,
        dispatcher,
    })
}

fn dispatch_loop(shared: Arc<Shared>) {
    while let Some(batch) = shared.queue.pop_batch(shared.config.batch_max) {
        let now = Instant::now();
        let (live, expired): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|job| job.request.deadline > now);
        for job in expired {
            ServerStats::bump(&shared.engine.stats.deadline_expired);
            let Job {
                request, respond, ..
            } = job;
            respond.send(Response::Expired { id: request.id });
        }
        if live.is_empty() {
            continue;
        }
        ServerStats::bump(&shared.engine.stats.batches);
        shared
            .engine
            .stats
            .batched_queries
            .fetch_add(live.len() as u64, Ordering::Relaxed);
        let mut requests = Vec::with_capacity(live.len());
        let mut responders = Vec::with_capacity(live.len());
        for job in live {
            requests.push(job.request);
            responders.push((job.enqueued, job.respond));
        }
        let responses = shared.engine.evaluate_batch(&requests);
        for ((enqueued, respond), response) in responders.into_iter().zip(responses) {
            shared
                .engine
                .stats
                .record_latency_us(enqueued.elapsed().as_micros() as u64);
            respond.send(response);
        }
    }
    // Every admitted job is answered; reactors poll this flag as their
    // license to finish draining.
    shared.dispatcher_done.store(true, Ordering::Relaxed);
}

/// Parses and processes one request line — the one protocol path, so
/// stats accounting and response bytes have a single definition. Returns
/// the response when the line is answered inline (errors, ping / stats /
/// shutdown, mutations, cache hits, backpressure); `None` means the query
/// was admitted and `respond` will deliver its response.
pub(crate) fn process_line(
    line: &str,
    shared: &Arc<Shared>,
    respond: Responder,
) -> Option<Response> {
    let engine = &shared.engine;
    match engine.parse_request(line) {
        Err(e) => Some(Response::Error {
            id: e.id,
            message: e.message,
        }),
        Ok(Request::Ping { id }) => Some(Response::Pong { id }),
        Ok(Request::Stats { id }) => Some(engine.stats_response(&id)),
        Ok(Request::Shutdown { id }) => {
            shared.begin_drain();
            Some(Response::Draining { id })
        }
        Ok(Request::Insert {
            id,
            graphs,
            mutation_id,
        }) => Some(mutate(
            shared,
            id,
            MutationBatch::default().insert(&graphs),
            mutation_id,
        )),
        Ok(Request::Remove {
            id,
            names,
            mutation_id,
        }) => {
            let batch = MutationBatch {
                removes: names,
                ..MutationBatch::default()
            };
            Some(mutate(shared, id, batch, mutation_id))
        }
        Ok(Request::Update {
            id,
            name,
            graph,
            mutation_id,
        }) => Some(mutate(
            shared,
            id,
            MutationBatch::default().update(&name, &graph),
            mutation_id,
        )),
        Ok(Request::Query(request)) => {
            ServerStats::bump(&engine.stats.queries);
            let started = Instant::now();
            if let Some(hit) = engine.try_cache(&request) {
                ServerStats::bump(&engine.stats.cache_hits);
                engine
                    .stats
                    .record_latency_us(started.elapsed().as_micros() as u64);
                return Some(hit);
            }
            ServerStats::bump(&engine.stats.cache_misses);
            let job = Box::new(Job {
                request: *request,
                enqueued: started,
                respond,
            });
            // `None`: admitted, the dispatcher answers through `respond`.
            let rejected = shared.queue.push(job).err()?;
            ServerStats::bump(&engine.stats.rejected);
            Some(Response::Backpressure {
                id: rejected.request.id,
                retry_after_ms: RETRY_AFTER_MS,
            })
        }
    }
}

/// Applies one mutation batch and builds its response envelope. Runs
/// inline on the reactor thread: batches validate before touching
/// anything, writers serialize on the store's writer lock, and readers
/// (queries) never block on it. A draining server refuses mutations the
/// same way it refuses new queries.
fn mutate(
    shared: &Arc<Shared>,
    id: Option<Value>,
    batch: MutationBatch,
    mutation_id: Option<String>,
) -> Response {
    if shared.draining() {
        return Response::Error {
            id,
            message: "server is draining".to_owned(),
        };
    }
    match shared
        .engine
        .apply_mutation_logged(&batch, mutation_id.as_deref())
    {
        Ok(receipt) => Response::Mutated {
            id,
            epoch: receipt.epoch,
            inserted: receipt.inserted as u64,
            removed: receipt.removed as u64,
            updated: receipt.updated as u64,
            replayed: receipt.replayed,
        },
        Err(e) => Response::Error {
            id,
            message: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::jsonio::Value;
    use std::time::Duration;

    fn job(n: u64) -> Box<Job> {
        let (reactor, _wake_rx) = ReactorShared::new().expect("socketpair");
        Box::new(Job {
            request: QueryRequest {
                id: Some(Value::Number(n as f64)),
                db: Arc::new(GraphDatabase::new()),
                graph: gss_graph::Graph::new("q"),
                options: QueryOptions::default(),
                key: gss_core::QueryKey {
                    database: 0,
                    query: n,
                    options: 0,
                },
                deadline: Instant::now() + Duration::from_secs(5),
            },
            enqueued: Instant::now(),
            respond: Responder {
                reactor,
                token: 0,
                seq: n,
            },
        })
    }

    #[test]
    fn queue_rejects_when_full_and_when_draining() {
        let q = AdmissionQueue::new(2);
        assert!(q.push(job(1)).is_ok());
        assert!(q.push(job(2)).is_ok());
        assert!(q.push(job(3)).is_err(), "capacity 2 rejects the third");
        let batch = q.pop_batch(10).expect("two queued");
        assert_eq!(batch.len(), 2);
        assert!(q.push(job(4)).is_ok(), "space again after pop");
        q.drain();
        assert!(q.push(job(5)).is_err(), "draining rejects admission");
        assert_eq!(
            q.pop_batch(10).expect("drain pops the backlog").len(),
            1,
            "jobs admitted before drain still come out"
        );
        assert!(q.pop_batch(10).is_none(), "empty + draining ends the loop");
    }

    #[test]
    fn pop_batch_respects_batch_max() {
        let q = AdmissionQueue::new(16);
        for n in 0..5 {
            assert!(q.push(job(n)).is_ok());
        }
        assert_eq!(q.pop_batch(3).unwrap().len(), 3);
        assert_eq!(q.pop_batch(3).unwrap().len(), 2);
    }

    #[test]
    fn pop_batch_blocks_until_work_arrives() {
        let q = Arc::new(AdmissionQueue::new(4));
        let qc = Arc::clone(&q);
        let t = std::thread::spawn(move || qc.pop_batch(4).map(|b| b.len()));
        std::thread::sleep(Duration::from_millis(30));
        assert!(q.push(job(1)).is_ok());
        assert_eq!(t.join().unwrap(), Some(1));
    }
}
