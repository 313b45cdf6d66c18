//! # gss-server — concurrent similarity-skyline query serving
//!
//! The first stateful layer of the workspace: a long-lived, std-only TCP
//! service (no async runtime — `std::net`, `poll(2)` and worker threads)
//! that loads a [`gss_core::GraphDatabase`] (and optionally a `gss-index`
//! pivot index) **once** and serves many skyline queries, amortizing the
//! build-once/serve-many lifecycle the index enables.
//!
//! ```no_run
//! use std::sync::Arc;
//! use gss_core::{GraphDatabase, QueryOptions};
//! use gss_server::{serve, ServerConfig};
//!
//! let db = Arc::new(GraphDatabase::from_text("t g\nv 0 C\n").unwrap());
//! let handle = serve(db, QueryOptions::default(), ServerConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! let final_stats = handle.join(); // returns after a `shutdown` request drains
//! # let _ = final_stats;
//! ```
//!
//! ## Wire format
//!
//! The wire protocol — newline-delimited JSON, the verb vocabulary, the
//! option/deadline fields, the exact response byte formats — is owned by
//! the [`gss_protocol`] crate; see its docs for the spec. This crate
//! consumes the typed [`gss_protocol::Request`] / [`Response`] envelopes:
//! requests are parsed once by the [`engine`], responses are serialized
//! **once, at the connection edge** (`Response::to_line`).
//!
//! ## Front end
//!
//! One connection front end feeds the protocol path (parse → cache probe
//! → admission queue): [`ServerConfig::reactor_threads`] event-loop
//! threads multiplex *all* connections over nonblocking sockets and a
//! level-triggered `poll(2)` readiness loop — per-connection read/write
//! buffers, newline framing, strict request-order response sequencing
//! even when later requests (cache hits, pings) complete before earlier
//! ones (evaluations). Thousands of idle connections cost one fd and a
//! few hundred bytes each — no thread, no stack. The loop needs nothing
//! beyond POSIX, so the server builds on any unix (Linux, macOS, the
//! BSDs); the price of the portable call is that each reactor wake is
//! O(connections that reactor owns) — measured 0.62 µs per `poll` at 3
//! fds and 29 µs at 1 000, against requests that take milliseconds.
//!
//! ## Sharded evaluation
//!
//! Base options (or a request's `"plan"`) naming
//! [`gss_core::Plan::Sharded`] split the candidate space statically into
//! [`gss_core::QueryOptions::shards`] filter-and-verify pipelines whose
//! frontiers merge into one skyline. A *single* admitted query fans its
//! shards out across the evaluation threads (one huge query keeps the
//! machine busy), while a
//! full micro-batch packs queries one-per-thread as before — same
//! answers, same bytes, either way (the shard count is deliberately
//! excluded from the cache key).
//!
//! ## Deadlines
//!
//! A request's `deadline_ms` is enforced in two places: if it expires
//! while the request waits in the queue the request is dropped (counted
//! as `deadline_expired`); if it expires **mid-evaluation** the scan is
//! aborted at its next [`gss_core::CancelToken`] wave checkpoint (counted
//! as `cancelled`). Either way the client gets the deadline response.
//! Cancellation is cooperative: a single in-flight solver call is never
//! interrupted, so abort latency is bounded by the most expensive
//! candidate pair.
//!
//! ## Cache semantics
//!
//! Results are cached in a sharded LRU keyed by
//! [`gss_core::QueryKey`]: database fingerprint × structural query
//! fingerprint × normalized options fingerprint. A hit returns the
//! **byte-identical** result document of a fresh evaluation (the cache
//! stores the serialized document itself) with `"cached":true` in the
//! envelope. Thread counts never enter the key: evaluation is
//! normalized to per-query single-threaded scans via
//! [`gss_core::exec::skyline_batch`], whose results are
//! identical to sequential evaluation by construction.
//!
//! ## Admission control & micro-batching
//!
//! A bounded queue sits between connections and the dispatcher. When it
//! is full (or the server is draining), queries are rejected immediately
//! with `{"ok":false,"error":"queue full","retry_after_ms":N}` —
//! backpressure instead of unbounded buffering. The dispatcher pops up
//! to `batch_max` queued queries at a time and runs them through one
//! wave-parallel [`gss_core::exec::skyline_batch`] call
//! (grouped by options fingerprint), so concurrent clients share scan
//! parallelism instead of fighting over it.
//!
//! ## Graceful drain
//!
//! The `shutdown` verb (or [`ServerHandle::shutdown`]) stops accepting
//! connections and admitting queries; everything already admitted is
//! still evaluated and answered before [`ServerHandle::join`] returns.
//! In-queue requests whose deadline lapses during the drain get the
//! deadline response — admitted work is never silently dropped. Cache
//! hits may still be served while draining (a hit admits no work);
//! queries that would need evaluation get the backpressure rejection.
//!
//! ## Live mutation
//!
//! The database behind a server is a [`gss_store::GraphStore`]: an
//! epoch-based MVCC snapshot store. The `insert` / `remove` / `update`
//! verbs apply atomic mutation batches that bump the epoch; queries pin
//! the head snapshot at parse time and evaluate against it no matter how
//! many mutations land meanwhile. Because the epoch is folded into the
//! database fingerprint (the cache key's `database` component), cached
//! results can never leak across epochs — mutation additionally evicts
//! the now-unreachable stale entries eagerly. Serve a store with a
//! maintained pivot index or a tuned staleness budget via
//! [`serve_store`]; plain [`serve`] wraps the database in an index-less
//! store so mutation works out of the box.
//!
//! ## Lock discipline
//!
//! No evaluation ever runs under a lock, and that follows from the
//! structure of the crate:
//!
//! * every `Mutex` is a private field of [`ShardedCache`], the admission
//!   queue, a reactor's shared completion/injection state or
//!   [`ServerStats`];
//! * no guard leaves the method that takes it — the only `MutexGuard`s in
//!   any signature are the private poison-recovering `lock` helpers of the
//!   reactor and stats modules, whose callers push, drain or read plain
//!   data;
//! * none of those methods takes a closure or reaches the [`Engine`];
//! * the one evaluation call, [`Engine::evaluate_batch`] in the
//!   dispatcher loop, runs on jobs `pop_batch` already moved out of the
//!   queue, after its guard dropped.
//!
//! A change that breaks one of these four facts is the one to review for
//! a solver call under a cache or queue lock.

#![warn(missing_docs)]
// The request path never panics: a panicking reactor or dispatcher drops
// every response it owes. Crate-wide, tests exempt via `clippy.toml`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]

pub mod cache;
pub mod client;
mod conn;
pub mod engine;
mod reactor;
pub mod server;
pub mod stats;

pub use cache::ShardedCache;
pub use client::{Client, ClientBuilder, RetryPolicy};
pub use engine::{Engine, QueryRequest, Request, RequestError};
pub use gss_protocol::Response;
pub use gss_store::{
    FaultAction, FaultPlan, FsyncPolicy, GraphStore, IndexMaintenance, MutationBatch,
    MutationError, MutationReceipt, RecoveryStats, Snapshot, StoreConfig, StoreStats, WalConfig,
    WalStats,
};
pub use server::{serve, serve_store, ServerConfig, ServerHandle};
pub use stats::{percentile_us, LatencySnapshot, ServerStats};
