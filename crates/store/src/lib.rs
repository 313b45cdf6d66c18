//! # gss-store — epoch-based MVCC snapshots over a live `GraphDatabase`
//!
//! Everything below the serving tier assumes an immutable database — the
//! byte-identity guarantees (cache hits, plan invariance, shard
//! invariance) are all stated *per database fingerprint*. This crate
//! makes the database mutable **without weakening any of them**, by
//! never mutating a database readers can see:
//!
//! * **Snapshots** ([`Snapshot`]): an immutable `(database, index,
//!   epoch)` triple behind `Arc`s. Readers grab one with
//!   [`GraphStore::snapshot`] and keep it for the lifetime of a query;
//!   every guarantee of the frozen-database world holds verbatim within
//!   one snapshot.
//! * **Writers** ([`GraphStore::apply`]): one [`MutationBatch`]
//!   (removals, then in-place updates, then inserts — all by graph name
//!   or `t/v/e` text) is applied atomically to a private clone, the
//!   epoch counter is bumped, and the new snapshot is swapped in with a
//!   single `Arc` store. Batches are serialized by a writer lock;
//!   readers never block. A failed batch (unknown name, parse error)
//!   changes nothing.
//! * **Epochs**: [`GraphDatabase::epoch`] is folded into
//!   [`GraphDatabase::fingerprint`], so every epoch has a distinct
//!   fingerprint — even a remove+insert round-trip that restores
//!   byte-identical content. Caches keyed by the fingerprint (the
//!   server's result cache) therefore never serve a stale epoch: old
//!   keys simply stop being produced, and stale entries age out.
//! * **Compact storage**: a snapshot whose database was
//!   [`GraphDatabase::compact`]ed keeps its CSR arena (and the lazy
//!   materialization cells) behind `Arc`s. The writer's private clone
//!   shares them, so a mutation batch copies-on-write only the graphs it
//!   actually touches — untouched slots keep reading the same flat
//!   arrays across every epoch, and a graph materialized under one
//!   snapshot stays materialized for all of them.
//! * **Incremental index maintenance**: when the store carries a
//!   [`PivotIndex`], each batch is absorbed through
//!   [`PivotIndex::apply_batch`] (probe-bound brackets, tombstoned
//!   removals — no exact solver calls). Absorbed operations accumulate
//!   staleness; when [`StoreConfig::staleness_budget`] is exceeded the
//!   store runs a cheap [`PivotIndex::partial_rebuild`]
//!   (re-quantile rings from stored brackets) instead of re-pivoting.
//!   Only removing/replacing a pivot graph forces a full rebuild.
//! * **Durability** ([`GraphStore::open_durable`]): an optional
//!   write-ahead log (module [`wal`]) persists every batch — flushed per
//!   a configurable [`FsyncPolicy`] — *before* its epoch is published,
//!   so an acked mutation survives a crash. Restart recovery loads the
//!   newest checkpoint, replays the WAL tail, truncates torn tails, and
//!   refuses ambiguous logs with a typed [`WalError`]. Client-supplied
//!   mutation ids are deduplicated across the log and checkpoints, so a
//!   retried mutation is acked with its original receipt instead of
//!   applying twice. Module [`fault`] provides the deterministic fault
//!   injection the crash-recovery tests drive this machinery with.
//!
//! ```
//! use gss_core::GraphDatabase;
//! use gss_store::{GraphStore, MutationBatch, StoreConfig};
//! use std::sync::Arc;
//!
//! let mut db = GraphDatabase::new();
//! db.add("a", |b| b.vertex("x", "C")).unwrap();
//! let store = GraphStore::new(Arc::new(db), StoreConfig::default());
//!
//! let before = store.snapshot();
//! let receipt = store
//!     .apply(&MutationBatch::default().insert("t b\nv 0 N\n"))
//!     .unwrap();
//! assert_eq!(receipt.epoch, 1);
//! assert_eq!(store.snapshot().database().len(), 2);
//! // The reader's snapshot is untouched — MVCC isolation.
//! assert_eq!(before.database().len(), 1);
//! assert_ne!(before.fingerprint(), store.snapshot().fingerprint());
//! ```

#![warn(missing_docs)]
// The mutation path never panics: a panic in `apply` could strand a
// half-written log record. Crate-wide, so `wal` and `fault` too; not tests.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::indexing_slicing, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gss_core::database::{GraphDatabase, GraphId};
use gss_core::index::QueryIndex;
use gss_graph::format::parse_database;
use gss_graph::GraphError;
use gss_index::{IndexError, MaintenanceOutcome, PivotIndex, PivotIndexConfig};

pub mod fault;
pub mod wal;

pub use fault::{FaultAction, FaultPlan, FaultSpecError};
pub use wal::{
    inspect, ArtifactStatus, CheckpointInfo, FsyncPolicy, RecoveryStats, SegmentInfo, WalConfig,
    WalError, WalInspection, WalStats,
};

use wal::{DedupEntry, DedupLog, Wal, WalCounters};

/// Build-time knobs for a [`GraphStore`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// When set, [`GraphStore::new`] builds a [`PivotIndex`] with this
    /// configuration and every snapshot carries an incrementally
    /// maintained index. `None` serves without an index (one can still
    /// be supplied via [`GraphStore::with_index`]).
    pub index: Option<PivotIndexConfig>,
    /// Maximum mutation operations the index may absorb before the store
    /// triggers a partial rebuild ([`PivotIndex::partial_rebuild`]) to
    /// re-tighten its partitions. Ignored when no index is maintained.
    pub staleness_budget: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            index: None,
            staleness_budget: 64,
        }
    }
}

/// An immutable view of the store at one epoch.
///
/// Everything a query evaluation needs travels together: the database,
/// the (optional) index maintained for exactly that database, and the
/// cache identity. Queries admitted against a snapshot run to completion
/// on it no matter how many mutations land meanwhile.
pub struct Snapshot {
    db: Arc<GraphDatabase>,
    index: Option<Arc<PivotIndex>>,
    epoch: u64,
    fingerprint: u64,
}

impl Snapshot {
    /// Captures the snapshot of a database + index pair; the epoch and
    /// the epoch-folded fingerprint both derive from the database.
    fn capture(db: Arc<GraphDatabase>, idx: Option<Arc<PivotIndex>>) -> Snapshot {
        let epoch = db.epoch();
        let fp = db.fingerprint();
        Snapshot {
            db,
            index: idx,
            epoch,
            fingerprint: fp,
        }
    }

    /// The database frozen at this epoch.
    pub fn database(&self) -> &Arc<GraphDatabase> {
        &self.db
    }

    /// The pivot index maintained for this epoch, if the store carries
    /// one. Always validates against [`Snapshot::database`].
    pub fn index(&self) -> Option<&Arc<PivotIndex>> {
        self.index.as_ref()
    }

    /// The index as the trait object [`gss_core::QueryOptions::index`]
    /// expects.
    pub fn query_index(&self) -> Option<Arc<dyn QueryIndex>> {
        self.index
            .as_ref()
            .map(|i| Arc::clone(i) as Arc<dyn QueryIndex>)
    }

    /// The mutation epoch of this snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch-folded database fingerprint — the `database` component
    /// of every cache key derived from this snapshot.
    pub fn fingerprint(&self) -> u64 {
        // Exhaustive: a new field must be hashed or bound as `_` with a reason.
        let Snapshot {
            // The captured `fingerprint` IS this database's fingerprint
            // (once per epoch); rehashing the graphs would cost O(|D|).
            db: _,
            // Index identity reaches the cache key through
            // `options_fingerprint` (its `describe()` string) on the
            // snapshot-pinned options, not through the database component.
            index: _,
            // Already folded into the fingerprint by
            // `GraphDatabase::fingerprint`; kept as a label for receipts.
            epoch: _,
            fingerprint,
        } = self;
        *fingerprint
    }
}

/// One atomic batch of mutations, applied in a fixed order: **removals,
/// then updates, then inserts**. Names are resolved against the
/// pre-insert content (first match for duplicate names), so a batch
/// cannot update or remove a graph it inserts itself. An error anywhere
/// (unknown name, malformed graph text) aborts the whole batch.
#[derive(Clone, Debug, Default)]
pub struct MutationBatch {
    /// Graph names to remove.
    pub removes: Vec<String>,
    /// `(name, t/v/e text)` pairs: the named graph is replaced in place
    /// (same id) by the single graph parsed from the text.
    pub updates: Vec<(String, String)>,
    /// `t/v/e` texts to append; each may hold any number of graphs.
    pub inserts: Vec<String>,
}

impl MutationBatch {
    /// Adds an insert of one or more graphs in `t/v/e` text form.
    pub fn insert(mut self, graphs: &str) -> MutationBatch {
        self.inserts.push(graphs.to_owned());
        self
    }

    /// Adds a removal by graph name.
    pub fn remove(mut self, name: &str) -> MutationBatch {
        self.removes.push(name.to_owned());
        self
    }

    /// Adds an in-place update: `name` is replaced by the single graph
    /// parsed from `graph`.
    pub fn update(mut self, name: &str, graph: &str) -> MutationBatch {
        self.updates.push((name.to_owned(), graph.to_owned()));
        self
    }

    /// True when the batch holds no operations (applying it is a no-op
    /// that does **not** bump the epoch).
    pub fn is_empty(&self) -> bool {
        self.removes.is_empty() && self.updates.is_empty() && self.inserts.is_empty()
    }
}

/// Why a mutation batch was rejected (nothing was applied).
#[derive(Debug)]
pub enum MutationError {
    /// Graph text failed to parse.
    Parse(GraphError),
    /// A remove/update named a graph the current epoch does not hold.
    UnknownGraph(String),
    /// An update's text did not contain exactly one graph.
    NotOneGraph {
        /// The update target.
        name: String,
        /// How many graphs the text parsed to.
        found: usize,
    },
    /// The batch could not be made durable (WAL append or flush failed);
    /// nothing was published and nothing was acked.
    Durability(WalError),
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::Parse(e) => write!(f, "invalid graph text: {e}"),
            MutationError::UnknownGraph(name) => write!(f, "no graph named {name:?}"),
            MutationError::NotOneGraph { name, found } => {
                write!(
                    f,
                    "update of {name:?} must carry exactly one graph, got {found}"
                )
            }
            MutationError::Durability(e) => write!(f, "mutation was not made durable: {e}"),
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::Durability(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for MutationError {
    fn from(e: GraphError) -> Self {
        MutationError::Parse(e)
    }
}

impl From<WalError> for MutationError {
    fn from(e: WalError) -> Self {
        MutationError::Durability(e)
    }
}

/// How the snapshot's index absorbed one batch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IndexMaintenance {
    /// The store maintains no index.
    None,
    /// All operations were absorbed in place via probe bounds.
    Incremental,
    /// Absorbed incrementally, then the staleness budget tripped a
    /// partial rebuild (re-quantiled rings, no exact solver calls).
    Partial,
    /// A pivot was removed/replaced: full exact rebuild.
    Rebuilt,
}

/// What one successful [`GraphStore::apply`] did.
///
/// `#[non_exhaustive]` makes a receipt unconstructible outside this
/// crate, where [`GraphStore::apply_logged`] builds it only after the
/// batch is on the log. An ack (`gss-server`'s `Response::Mutated`) is
/// made from a receipt, so it cannot precede durability.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct MutationReceipt {
    /// The epoch the batch produced (current epoch for an empty batch).
    pub epoch: u64,
    /// Graphs appended.
    pub inserted: usize,
    /// Graphs removed.
    pub removed: usize,
    /// Graphs replaced in place.
    pub updated: usize,
    /// How the index was maintained.
    pub maintenance: IndexMaintenance,
    /// True when this receipt answers a deduplicated retry: the
    /// `mutation_id` was already applied, nothing changed, and the
    /// counts above are the original application's.
    pub replayed: bool,
}

/// A point-in-time view of the store's mutation counters (the `stats`
/// verb payload of `gss-server` reports these).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Current epoch.
    pub epoch: u64,
    /// Mutation batches applied (epoch bumps).
    pub batches: u64,
    /// Total graphs inserted.
    pub inserted: u64,
    /// Total graphs removed.
    pub removed: u64,
    /// Total graphs updated in place.
    pub updated: u64,
    /// Full index rebuilds forced by pivot mutations.
    pub index_rebuilds: u64,
    /// Index staleness (ops absorbed since the last rebuild), when an
    /// index is maintained.
    pub index_stale_ops: Option<u64>,
    /// Partial rebuilds the index has run, when an index is maintained.
    pub index_partial_rebuilds: Option<u64>,
    /// Write-ahead-log counters, when the store was opened durably via
    /// [`GraphStore::open_durable`].
    pub wal: Option<WalStats>,
}

/// The MVCC snapshot store: one mutable head, immutable epochs behind it.
///
/// Cloned `Arc<Snapshot>`s handed to readers stay valid forever; the
/// store only ever *replaces* the head. Writers serialize on an internal
/// lock, so [`GraphStore::apply`] is safe to call from any number of
/// threads.
pub struct GraphStore {
    /// The head snapshot. Swapped wholesale under the writer lock; read
    /// with a brief lock (clone an `Arc`, never blocks on evaluation).
    current: Mutex<Arc<Snapshot>>,
    /// Serializes writers across the whole read-modify-swap cycle and
    /// owns the durability state (WAL + dedup log) when there is one.
    write: Mutex<WriterState>,
    config: StoreConfig,
    batches: AtomicU64,
    inserted: AtomicU64,
    removed: AtomicU64,
    updated: AtomicU64,
    index_rebuilds: AtomicU64,
    /// Lock-free view of the WAL counters for [`GraphStore::stats`]
    /// (shared with the `Wal` inside the writer lock).
    wal_counters: Option<Arc<WalCounters>>,
    recovery: Option<RecoveryStats>,
}

/// State owned by the writer lock.
#[derive(Default)]
struct WriterState {
    durable: Option<DurableState>,
}

struct DurableState {
    wal: Wal,
    dedup: DedupLog,
}

impl GraphStore {
    /// Opens a store over a database, building a pivot index when
    /// [`StoreConfig::index`] asks for one. The database's current epoch
    /// (usually 0) is the first snapshot's epoch.
    pub fn new(db: Arc<GraphDatabase>, config: StoreConfig) -> GraphStore {
        let index = config
            .index
            .as_ref()
            .map(|cfg| Arc::new(PivotIndex::build(&db, cfg)));
        GraphStore::assemble(Snapshot::capture(db, index), config, None)
    }

    /// Opens a store backed by a write-ahead log in
    /// [`WalConfig::dir`]. A fresh directory is initialized with a
    /// checkpoint of `db`; a directory with prior state **recovers from
    /// disk and ignores `db`'s content** — the newest valid checkpoint
    /// is loaded, the WAL tail replayed, torn tails truncated, and
    /// ambiguous or gapped logs refused with a typed [`WalError`].
    ///
    /// The pivot index is never persisted: it is rebuilt once from
    /// [`StoreConfig::index`] after replay, which keeps recovered
    /// fingerprints byte-stable under vocabulary re-interning.
    pub fn open_durable(
        db: Arc<GraphDatabase>,
        config: StoreConfig,
        wal_config: WalConfig,
    ) -> Result<GraphStore, WalError> {
        let (wal, recovered) = Wal::open(wal_config, &db)?;
        let index = config
            .index
            .as_ref()
            .map(|cfg| Arc::new(PivotIndex::build(&recovered.db, cfg)));
        let dedup = DedupLog::from_entries(recovered.dedup);
        Ok(GraphStore::assemble(
            Snapshot::capture(recovered.db, index),
            config,
            Some(DurableState { wal, dedup }),
        ))
    }

    /// Opens a store over a database with a pre-built (e.g. loaded)
    /// index, which must validate against the database.
    pub fn with_index(
        db: Arc<GraphDatabase>,
        index: Arc<PivotIndex>,
        config: StoreConfig,
    ) -> Result<GraphStore, IndexError> {
        index.validate(&db)?;
        Ok(GraphStore::assemble(
            Snapshot::capture(db, Some(index)),
            config,
            None,
        ))
    }

    fn assemble(
        snapshot: Snapshot,
        config: StoreConfig,
        durable: Option<DurableState>,
    ) -> GraphStore {
        let (wal_counters, recovery) = match &durable {
            Some(d) => (Some(d.wal.counters()), Some(d.wal.recovery())),
            None => (None, None),
        };
        GraphStore {
            current: Mutex::new(Arc::new(snapshot)),
            write: Mutex::new(WriterState { durable }),
            config,
            batches: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            removed: AtomicU64::new(0),
            updated: AtomicU64::new(0),
            index_rebuilds: AtomicU64::new(0),
            wal_counters,
            recovery,
        }
    }

    /// The current head snapshot. Queries pin the returned `Arc` for
    /// their whole evaluation; later mutations cannot disturb it.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        // Poison recovery: the guarded value is a single Arc, replaced
        // atomically — a panicking writer cannot leave it half-updated.
        Arc::clone(&self.current.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// The store's maintenance configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// A consistent view of the mutation counters.
    pub fn stats(&self) -> StoreStats {
        let snap = self.snapshot();
        StoreStats {
            epoch: snap.epoch,
            batches: self.batches.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
            removed: self.removed.load(Ordering::Relaxed),
            updated: self.updated.load(Ordering::Relaxed),
            index_rebuilds: self.index_rebuilds.load(Ordering::Relaxed),
            index_stale_ops: snap.index.as_ref().map(|i| i.stale_ops()),
            index_partial_rebuilds: snap.index.as_ref().map(|i| i.partial_rebuilds()),
            wal: self
                .wal_counters
                .as_ref()
                .map(|c| c.stats(self.recovery.unwrap_or_default())),
        }
    }

    /// Applies one mutation batch atomically: removals, then updates,
    /// then inserts, against a private clone of the head snapshot; on
    /// success the epoch is bumped, the index (if any) is maintained
    /// incrementally, and the new snapshot becomes the head in a single
    /// swap. On error nothing changes. An empty batch is a no-op that
    /// keeps the current epoch.
    pub fn apply(&self, batch: &MutationBatch) -> Result<MutationReceipt, MutationError> {
        self.apply_logged(batch, None)
    }

    /// [`GraphStore::apply`] with an optional client-supplied
    /// `mutation_id` for at-most-once semantics: when the store is
    /// durable and the id was already applied, nothing changes and the
    /// original receipt is returned with [`MutationReceipt::replayed`]
    /// set. On a durable store the batch is WAL-appended and flushed
    /// **before** the new epoch is published; a durability failure
    /// refuses the batch ([`MutationError::Durability`]) with nothing
    /// observable changed.
    pub fn apply_logged(
        &self,
        batch: &MutationBatch,
        mutation_id: Option<&str>,
    ) -> Result<MutationReceipt, MutationError> {
        let mut writer = self.write.lock().unwrap_or_else(|p| p.into_inner());
        if let (Some(durable), Some(id)) = (writer.durable.as_ref(), mutation_id) {
            if let Some(entry) = durable.dedup.get(id) {
                return Ok(MutationReceipt {
                    epoch: entry.epoch,
                    inserted: entry.inserted,
                    removed: entry.removed,
                    updated: entry.updated,
                    maintenance: IndexMaintenance::None,
                    replayed: true,
                });
            }
        }
        let snap = self.snapshot();
        if batch.is_empty() {
            return Ok(MutationReceipt {
                epoch: snap.epoch,
                inserted: 0,
                removed: 0,
                updated: 0,
                maintenance: IndexMaintenance::None,
                replayed: false,
            });
        }

        // The clone shares the stats cache cells of untouched graphs, so
        // a new epoch does not recompute summaries it already has.
        let mut db = (*snap.db).clone();
        let (removed_ids, updated_ids, inserted) = apply_batch_contents(&mut db, batch)?;
        let epoch = snap.epoch + 1;
        db.set_epoch(epoch);

        // Durability before ack: the record must be on the log (flushed
        // per the fsync policy) before any reader or responder can see
        // the new epoch.
        if let Some(durable) = writer.durable.as_mut() {
            durable.wal.append(epoch, mutation_id, batch)?;
        }

        // Index maintenance on a private clone of the old epoch's index.
        let (index, maintenance) = match &snap.index {
            None => (None, IndexMaintenance::None),
            Some(old) => {
                let mut idx = (**old).clone();
                let outcome = idx.apply_batch(&db, &removed_ids, &updated_ids, inserted);
                let maintenance = match outcome {
                    MaintenanceOutcome::Rebuilt => {
                        self.index_rebuilds.fetch_add(1, Ordering::Relaxed);
                        IndexMaintenance::Rebuilt
                    }
                    MaintenanceOutcome::Incremental
                        if idx.stale_ops() > self.config.staleness_budget =>
                    {
                        idx.partial_rebuild(&db);
                        IndexMaintenance::Partial
                    }
                    MaintenanceOutcome::Incremental => IndexMaintenance::Incremental,
                };
                (Some(Arc::new(idx)), maintenance)
            }
        };

        let receipt = MutationReceipt {
            epoch,
            inserted,
            removed: removed_ids.len(),
            updated: updated_ids.len(),
            maintenance,
            replayed: false,
        };
        let db = Arc::new(db);
        let next = Arc::new(Snapshot::capture(Arc::clone(&db), index));
        *self.current.lock().unwrap_or_else(|p| p.into_inner()) = next;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inserted.fetch_add(inserted as u64, Ordering::Relaxed);
        self.removed
            .fetch_add(removed_ids.len() as u64, Ordering::Relaxed);
        self.updated
            .fetch_add(updated_ids.len() as u64, Ordering::Relaxed);
        if let Some(durable) = writer.durable.as_mut() {
            if let Some(id) = mutation_id {
                durable.dedup.insert(
                    id.to_owned(),
                    DedupEntry {
                        epoch,
                        inserted,
                        removed: removed_ids.len(),
                        updated: updated_ids.len(),
                    },
                );
            }
            durable.wal.after_publish(&db, &durable.dedup);
        }
        Ok(receipt)
    }
}

/// Applies a batch's removals, updates and inserts to `db` in the fixed
/// batch order, **without** bumping the epoch. Shared between the live
/// writer path and WAL replay, so a replayed record reproduces exactly
/// what the original application did.
pub(crate) fn apply_batch_contents(
    db: &mut GraphDatabase,
    batch: &MutationBatch,
) -> Result<(Vec<usize>, Vec<usize>, usize), MutationError> {
    // Removals first (descending ids so each removal's shift cannot
    // disturb the next).
    let mut removed_ids: Vec<usize> = Vec::new();
    for name in &batch.removes {
        let id = db
            .find_by_name(name)
            .ok_or_else(|| MutationError::UnknownGraph(name.clone()))?
            .index();
        if !removed_ids.contains(&id) {
            removed_ids.push(id);
        }
    }
    removed_ids.sort_unstable_by(|a, b| b.cmp(a));
    for &id in &removed_ids {
        db.remove(GraphId(id));
    }

    // In-place updates (ids are post-removal).
    let mut updated_ids: Vec<usize> = Vec::new();
    for (name, text) in &batch.updates {
        let id = db
            .find_by_name(name)
            .ok_or_else(|| MutationError::UnknownGraph(name.clone()))?
            .index();
        let mut graphs = parse_database(text, db.vocab_mut())?;
        let one = match (graphs.pop(), graphs.len()) {
            (Some(g), 0) => g,
            (got, rest) => {
                return Err(MutationError::NotOneGraph {
                    name: name.clone(),
                    found: rest + usize::from(got.is_some()),
                })
            }
        };
        db.replace(GraphId(id), one);
        if !updated_ids.contains(&id) {
            updated_ids.push(id);
        }
    }

    // Appends.
    let mut inserted = 0usize;
    for text in &batch.inserts {
        for graph in parse_database(text, db.vocab_mut())? {
            db.push(graph);
            inserted += 1;
        }
    }
    Ok((removed_ids, updated_ids, inserted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::{graph_similarity_skyline, Plan, QueryOptions};
    use gss_datasets::paper::figure3_database;

    /// Options that query through `index`.
    fn indexed(index: Arc<PivotIndex>) -> QueryOptions {
        QueryOptions::default()
            .with_index(index)
            .with_plan(Plan::Indexed)
    }

    fn store(config: StoreConfig) -> GraphStore {
        let data = figure3_database();
        let db = GraphDatabase::from_parts(data.vocab, data.graphs);
        GraphStore::new(Arc::new(db), config)
    }

    fn indexed_config(budget: u64) -> StoreConfig {
        StoreConfig {
            index: Some(PivotIndexConfig::default()),
            staleness_budget: budget,
        }
    }

    #[test]
    fn epochs_bump_and_snapshots_are_isolated() {
        let store = store(StoreConfig::default());
        let before = store.snapshot();
        assert_eq!(before.epoch(), 0);

        let receipt = store
            .apply(&MutationBatch::default().insert("t extra\nv 0 C\nv 1 C\ne 0 1 -\n"))
            .unwrap();
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.inserted, 1);
        assert_eq!(receipt.maintenance, IndexMaintenance::None);

        let after = store.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.database().len(), before.database().len() + 1);
        assert_ne!(after.fingerprint(), before.fingerprint());
        // The pinned snapshot still evaluates against the old content.
        assert_eq!(before.database().len(), 7);
        assert_eq!(before.database().epoch(), 0);
    }

    #[test]
    fn epoch_clones_share_the_compact_arena() {
        let data = figure3_database();
        let mut db = GraphDatabase::from_parts(data.vocab, data.graphs);
        db.compact();
        let n = db.len();
        let store = GraphStore::new(Arc::new(db), StoreConfig::default());
        let before = store.snapshot();
        store
            .apply(&MutationBatch::default().insert("t extra\nv 0 C\n"))
            .unwrap();
        let after = store.snapshot();

        // The new epoch appends an owned slot; the original graphs still
        // read from the arena rather than being deep-copied.
        let mem = after.database().memory_stats();
        assert_eq!(mem.graphs, n + 1);
        assert_eq!(mem.arena_graphs, n);

        // The lazy materialization cells are shared across epochs: a graph
        // materialized through the old snapshot (after the clone was taken)
        // shows up as materialized in the new one too.
        assert_eq!(after.database().memory_stats().materialized, 0);
        let _ = before.database().get(GraphId(2));
        assert_eq!(before.database().memory_stats().materialized, 1);
        assert_eq!(after.database().memory_stats().materialized, 1);

        // And the compact epoch answers queries byte-identically to the
        // pointer-rich original.
        let q = figure3_database().query;
        let compact_r = graph_similarity_skyline(before.database(), &q, &QueryOptions::default());
        let fresh = figure3_database();
        let plain = GraphDatabase::from_parts(fresh.vocab, fresh.graphs);
        let plain_r = graph_similarity_skyline(&plain, &q, &QueryOptions::default());
        assert_eq!(compact_r.skyline, plain_r.skyline);
        assert_eq!(compact_r.gcs, plain_r.gcs);
    }

    #[test]
    fn round_trip_content_never_reuses_a_fingerprint() {
        let store = store(StoreConfig::default());
        let fp0 = store.snapshot().fingerprint();
        let text = {
            let snap = store.snapshot();
            // Serialize graph g8 alone, then remove + re-insert it.
            let db = snap.database();
            let name = db.get(GraphId(db.len() - 1)).name().to_owned();
            let full = db.to_text();
            let start = full.find(&format!("t {name}")).unwrap();
            (name, full[start..].to_owned())
        };
        store
            .apply(&MutationBatch::default().remove(&text.0))
            .unwrap();
        store
            .apply(&MutationBatch::default().insert(&text.1))
            .unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.database().len(), 7, "content restored");
        assert_ne!(snap.fingerprint(), fp0, "epoch keeps fingerprints unique");
    }

    #[test]
    fn failed_batches_change_nothing() {
        let store = store(StoreConfig::default());
        let before = store.snapshot();
        assert!(matches!(
            store.apply(&MutationBatch::default().remove("no-such-graph")),
            Err(MutationError::UnknownGraph(_))
        ));
        assert!(matches!(
            store.apply(&MutationBatch::default().insert("not valid text")),
            Err(MutationError::Parse(_))
        ));
        let name = before.database().get(GraphId(0)).name().to_owned();
        assert!(matches!(
            store.apply(&MutationBatch::default().update(&name, "t a\nv 0 C\nt b\nv 0 C\n")),
            Err(MutationError::NotOneGraph { .. })
        ));
        let after = store.snapshot();
        assert_eq!(after.epoch(), 0);
        assert_eq!(after.fingerprint(), before.fingerprint());
        assert_eq!(store.stats().batches, 0);

        // Empty batches are no-ops, not epoch bumps.
        let receipt = store.apply(&MutationBatch::default()).unwrap();
        assert_eq!(receipt.epoch, 0);
        assert_eq!(store.epoch(), 0);
    }

    #[test]
    fn maintained_index_tracks_every_epoch() {
        let store = store(indexed_config(1_000));
        let data = figure3_database();
        let db = GraphDatabase::from_parts(data.vocab, data.graphs);
        let q = data.query;

        // Mutate: insert, update, remove (non-pivot names picked from the
        // tail of the database).
        let last = db.get(GraphId(db.len() - 1)).name().to_owned();
        store
            .apply(&MutationBatch::default().insert("t n1\nv 0 C\nv 1 N\ne 0 1 -\n"))
            .unwrap();
        store
            .apply(
                &MutationBatch::default()
                    .update(&last, "t swapped\nv 0 C\nv 1 C\nv 2 C\ne 0 1 -\ne 1 2 -\n"),
            )
            .unwrap();
        let receipt = store.apply(&MutationBatch::default().remove("n1")).unwrap();
        assert_eq!(receipt.epoch, 3);

        let snap = store.snapshot();
        let idx = snap.index().expect("configured index").clone();
        assert!(idx.validate(snap.database()).is_ok());

        // Query answers through the maintained index equal a from-scratch
        // rebuild.
        let rebuilt = Arc::new(PivotIndex::build(snap.database(), &idx.config()));
        let with_maintained = graph_similarity_skyline(snap.database(), &q, &indexed(idx));
        let with_rebuilt = graph_similarity_skyline(snap.database(), &q, &indexed(rebuilt));
        assert_eq!(with_maintained.skyline, with_rebuilt.skyline);
        assert_eq!(with_maintained.dominated, with_rebuilt.dominated);

        let stats = store.stats();
        assert_eq!(stats.epoch, 3);
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.updated, 1);
        assert_eq!(stats.removed, 1);
    }

    #[test]
    fn staleness_budget_triggers_partial_rebuilds() {
        let store = store(indexed_config(1));
        let mut partials = 0;
        for i in 0..4 {
            let receipt = store
                .apply(
                    &MutationBatch::default()
                        .insert(&format!("t churn{i}\nv 0 C\nv 1 O\ne 0 1 =\n")),
                )
                .unwrap();
            if receipt.maintenance == IndexMaintenance::Partial {
                partials += 1;
            }
        }
        assert!(partials >= 1, "budget of 1 must trip partial rebuilds");
        let stats = store.stats();
        assert_eq!(stats.index_partial_rebuilds, Some(partials));
        assert!(stats.index_stale_ops.expect("indexed") <= 1);
    }

    #[test]
    fn concurrent_writers_serialize_cleanly() {
        let store = Arc::new(store(StoreConfig::default()));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..8 {
                        store
                            .apply(
                                &MutationBatch::default().insert(&format!("t w{t}x{i}\nv 0 C\n")),
                            )
                            .unwrap();
                    }
                });
            }
        });
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 32, "every batch got its own epoch");
        assert_eq!(snap.database().len(), 7 + 32);
        assert_eq!(store.stats().inserted, 32);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gss-store-test-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn figure3_arc() -> Arc<GraphDatabase> {
        let data = figure3_database();
        Arc::new(GraphDatabase::from_parts(data.vocab, data.graphs))
    }

    #[test]
    fn durable_store_recovers_acked_mutations() {
        let dir = temp_dir("recover");
        let fp = {
            let store = GraphStore::open_durable(
                figure3_arc(),
                StoreConfig::default(),
                WalConfig::new(&dir),
            )
            .unwrap();
            for i in 0..3 {
                store
                    .apply(&MutationBatch::default().insert(&format!("t d{i}\nv 0 C\n")))
                    .unwrap();
            }
            let stats = store.stats().wal.unwrap();
            assert_eq!(stats.appended, 3);
            assert_eq!(stats.fsyncs, 3, "fsync always");
            assert_eq!(stats.last_durable_epoch, 3);
            store.snapshot().fingerprint()
        };
        // Reopen with an EMPTY initial database: recovery must restore
        // state from disk and ignore it.
        let store = GraphStore::open_durable(
            Arc::new(GraphDatabase::new()),
            StoreConfig::default(),
            WalConfig::new(&dir),
        )
        .unwrap();
        assert_eq!(store.epoch(), 3);
        assert_eq!(store.snapshot().fingerprint(), fp);
        assert_eq!(store.snapshot().database().len(), 7 + 3);
        let stats = store.stats().wal.unwrap();
        assert_eq!(stats.recovery.replayed, 3);
        assert!(!stats.recovery.truncated_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replayed_mutation_id_never_double_applies() {
        let dir = temp_dir("dedup");
        let batch = MutationBatch::default().insert("t once\nv 0 C\n");
        {
            let store = GraphStore::open_durable(
                figure3_arc(),
                StoreConfig::default(),
                WalConfig::new(&dir),
            )
            .unwrap();
            let first = store.apply_logged(&batch, Some("m-1")).unwrap();
            assert_eq!(first.epoch, 1);
            assert!(!first.replayed);
            let retry = store.apply_logged(&batch, Some("m-1")).unwrap();
            assert!(retry.replayed);
            assert_eq!(retry.epoch, 1, "original receipt, not a new epoch");
            assert_eq!(retry.inserted, 1);
            assert_eq!(store.epoch(), 1, "epoch advanced exactly once");
        }
        // The dedup log survives recovery: a retry after restart still
        // replays instead of double-applying.
        let store =
            GraphStore::open_durable(figure3_arc(), StoreConfig::default(), WalConfig::new(&dir))
                .unwrap();
        let retry = store.apply_logged(&batch, Some("m-1")).unwrap();
        assert!(retry.replayed);
        assert_eq!(retry.epoch, 1);
        assert_eq!(store.epoch(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_recovers_to_the_acked_prefix() {
        let dir = temp_dir("crash");
        let mut config = WalConfig::new(&dir);
        config.faults = Arc::new(FaultPlan::parse("wal.append@3=crash").unwrap());
        let store =
            GraphStore::open_durable(figure3_arc(), StoreConfig::default(), config).unwrap();
        let batch = |i: usize| MutationBatch::default().insert(&format!("t c{i}\nv 0 C\n"));
        store.apply(&batch(0)).unwrap();
        store.apply(&batch(1)).unwrap();
        // Third append crashes mid-record: the batch is refused and the
        // WAL is poisoned (the simulated process is dead).
        assert!(matches!(
            store.apply(&batch(2)),
            Err(MutationError::Durability(WalError::Poisoned(_)))
        ));
        assert!(matches!(
            store.apply(&batch(3)),
            Err(MutationError::Durability(WalError::Poisoned(_)))
        ));
        assert_eq!(store.epoch(), 2, "unacked batch never published");
        drop(store);

        // Recovery truncates the torn record and lands exactly on the
        // acked prefix: fingerprint equals a never-crashed oracle that
        // saw the two acked batches.
        let recovered = GraphStore::open_durable(
            Arc::new(GraphDatabase::new()),
            StoreConfig::default(),
            WalConfig::new(&dir),
        )
        .unwrap();
        let oracle = GraphStore::new(figure3_arc(), StoreConfig::default());
        oracle.apply(&batch(0)).unwrap();
        oracle.apply(&batch(1)).unwrap();
        assert_eq!(recovered.epoch(), 2);
        assert_eq!(
            recovered.snapshot().fingerprint(),
            oracle.snapshot().fingerprint()
        );
        let stats = recovered.stats().wal.unwrap();
        assert_eq!(stats.recovery.replayed, 2);
        assert!(stats.recovery.truncated_tail, "torn tail was truncated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_bound_replay_and_prune_segments() {
        let dir = temp_dir("ckpt");
        let mut config = WalConfig::new(&dir);
        config.checkpoint_every = 2;
        let fp = {
            let store =
                GraphStore::open_durable(figure3_arc(), StoreConfig::default(), config).unwrap();
            for i in 0..5 {
                store
                    .apply(&MutationBatch::default().insert(&format!("t k{i}\nv 0 C\n")))
                    .unwrap();
            }
            let stats = store.stats().wal.unwrap();
            assert_eq!(stats.checkpoints, 3, "initial + two periodic");
            store.snapshot().fingerprint()
        };
        let inspection = wal::inspect(&dir).unwrap();
        assert_eq!(inspection.recoverable, Some((4, 5)));
        assert!(
            inspection.segments.iter().all(|s| s.start_epoch >= 5),
            "segments covered by the checkpoint were pruned"
        );
        let store = GraphStore::open_durable(
            Arc::new(GraphDatabase::new()),
            StoreConfig::default(),
            WalConfig::new(&dir),
        )
        .unwrap();
        assert_eq!(store.epoch(), 5);
        assert_eq!(store.snapshot().fingerprint(), fp);
        assert_eq!(
            store.stats().wal.unwrap().recovery.replayed,
            1,
            "only the post-checkpoint tail replays"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_indexed_store_rebuilds_index_on_recovery() {
        let dir = temp_dir("indexed");
        let q = figure3_database().query;
        let expected = {
            let store = GraphStore::open_durable(
                figure3_arc(),
                indexed_config(1_000),
                WalConfig::new(&dir),
            )
            .unwrap();
            store
                .apply(&MutationBatch::default().insert("t ix\nv 0 C\nv 1 N\ne 0 1 -\n"))
                .unwrap();
            let snap = store.snapshot();
            graph_similarity_skyline(snap.database(), &q, &indexed(snap.index().unwrap().clone()))
        };
        let store = GraphStore::open_durable(
            Arc::new(GraphDatabase::new()),
            indexed_config(1_000),
            WalConfig::new(&dir),
        )
        .unwrap();
        let snap = store.snapshot();
        let idx = snap.index().expect("index rebuilt after recovery").clone();
        assert!(idx.validate(snap.database()).is_ok());
        let got = graph_similarity_skyline(snap.database(), &q, &indexed(idx));
        assert_eq!(got.skyline, expected.skyline);
        assert_eq!(got.dominated, expected.dominated);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
