//! The graph database: a set of graphs sharing one label vocabulary.
//!
//! # Representations
//!
//! A [`GraphDatabase`] holds each graph in one of two representations:
//!
//! * **Owned** — the pointer-rich [`Graph`] (construction, mutation, and
//!   the parity oracle);
//! * **Arena** — a row of a shared compact [`GraphArena`] (CSR flat
//!   arrays + interned [`gss_graph::LabelPool`]), paired with
//!   column-oriented [`StatsColumns`] so summaries decode without any
//!   recomputation. Arena rows materialize into pointer-rich graphs
//!   lazily, at most once, only when a consumer actually needs full
//!   random access (exact solvers, isomorphism checks).
//!
//! [`GraphDatabase::compact`] converts the current content into the
//! arena representation; mutations ([`GraphDatabase::push`],
//! [`GraphDatabase::replace`], [`GraphDatabase::remove`]) copy-on-write
//! the touched graph back into an owned slot and leave the shared arena
//! untouched — which is exactly what the `gss-store` MVCC layer needs:
//! cloning an arena-backed database is O(slots), not O(content).
//!
//! Both representations answer every query with **byte-identical**
//! results; `tests/storage_compact.rs` proptests enforce it, and its
//! `smoke_workload_arena_is_compact_and_loads_without_parsing` pins the
//! compaction ratio and the zero-parse load on the smoke workload.
//!
//! # Persistence
//!
//! [`GraphDatabase::save_bytes`] / [`GraphDatabase::load_bytes`] use the
//! [`codec`] section framing (magic `GSSGRDB\0`): the on-disk payload is
//! the arena's in-memory column layout, so loading validates the FNV
//! frame and adopts the bytes into aligned buffers — no per-graph
//! parsing, no summary recomputation. See README "Memory & storage".

use std::sync::{Arc, OnceLock};

use gss_graph::arena::{ArenaError, GraphArena, LabelPool, StatsColumns};
use gss_graph::format::{parse_database, write_database};
use gss_graph::stats::GraphStats;
use gss_graph::{Graph, GraphBuilder, GraphError, Vocabulary};

/// Identifier of a graph inside a [`GraphDatabase`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GraphId(pub usize);

impl GraphId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A database `D = {g1, …, gn}` of labeled graphs.
///
/// Owning the [`Vocabulary`] guarantees the workspace-wide invariant that
/// graphs compared against each other use the same label interning.
///
/// Every stored graph also carries a lazily-built, cached
/// [`GraphStats`] summary ([`GraphDatabase::stats`]): label multisets,
/// edge-class multiset, sorted degree sequence, WL fingerprint and
/// connectivity — computed at most **once per graph for the lifetime of
/// the database** instead of once per candidate per scan. The mutating
/// APIs keep the cache aligned: [`GraphDatabase::push`] adds a fresh
/// cell, [`GraphDatabase::remove`] drops one, and
/// [`GraphDatabase::replace`] resets the touched cell — so a computed
/// summary never goes stale. Clones share the cells, which is what makes
/// the `gss-store` MVCC layer cheap: a new epoch clones the database and
/// only the touched graphs lose their cached summaries.
///
/// # Epochs
///
/// A database carries a monotonically increasing **epoch** counter
/// ([`GraphDatabase::epoch`], 0 for freshly loaded/built databases) that
/// is folded into [`GraphDatabase::fingerprint`]. The `gss-store`
/// snapshot store bumps it on every mutation batch, so two snapshots
/// never share a fingerprint — even when a remove+insert round-trip
/// reproduces byte-identical content — which is what keeps
/// fingerprint-keyed caches (the server's result cache) epoch-consistent.
#[derive(Debug, Clone, Default)]
pub struct GraphDatabase {
    vocab: Vocabulary,
    /// One slot per graph, in id order: owned pointer-rich graphs and/or
    /// rows of the shared compact arena (see module docs).
    slots: Vec<Slot>,
    /// The shared compact store arena slots point into. `Arc` so clones
    /// (MVCC epochs) share one copy; `None` until [`GraphDatabase::compact`]
    /// or a binary load.
    compact: Option<Arc<CompactStore>>,
    /// Mutation-batch generation this content belongs to (see type docs).
    epoch: u64,
    /// One cache cell per graph, aligned with `slots`. `Arc` so clones
    /// share already-computed summaries; `OnceLock` for thread-safe
    /// fill-once semantics under the parallel scans.
    stats: Vec<Arc<OnceLock<GraphStats>>>,
}

/// One stored graph: owned pointer-rich, or a lazily-materialized row of
/// the shared [`CompactStore`] arena.
#[derive(Debug, Clone)]
enum Slot {
    /// Pointer-rich graph owned by this database (freshly built or
    /// copy-on-write after a mutation).
    Owned(Graph),
    /// Row `idx` of the shared arena. `cell` caches the materialized
    /// pointer-rich form, filled at most once and shared by clones.
    Arena {
        idx: u32,
        cell: Arc<OnceLock<Graph>>,
    },
}

/// The compact half of an arena-backed database: CSR graph columns plus
/// column-oriented per-graph summaries, always index-aligned.
#[derive(Debug)]
struct CompactStore {
    arena: GraphArena,
    columns: StatsColumns,
}

/// Memory accounting of one database, for the observability surface
/// (`stats` verb, `gss index stats`, `gss client --stats`).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryStats {
    /// Number of stored graphs.
    pub graphs: usize,
    /// Graphs currently living in the compact arena (the rest are owned
    /// pointer-rich slots).
    pub arena_graphs: usize,
    /// Arena slots whose pointer-rich form has been materialized (each
    /// costs pointer-rich bytes *in addition to* its arena row).
    pub materialized: usize,
    /// Heap bytes of the compact arena, interned pool included (0 when
    /// the database has no arena).
    pub arena_bytes: usize,
    /// Heap bytes of the column-oriented stats (0 without an arena).
    pub stats_columns_bytes: usize,
    /// Entries in the interned string pool (labels + graph names).
    pub pool_entries: usize,
    /// Heap bytes of the interned string pool.
    pub pool_bytes: usize,
    /// Estimated heap bytes the same content costs pointer-rich — the
    /// baseline the ≤ 60% compaction gate compares against.
    pub pointer_rich_bytes: usize,
}

impl MemoryStats {
    /// Arena bytes per graph (0.0 for an empty or arena-less database).
    pub fn arena_bytes_per_graph(&self) -> f64 {
        if self.arena_graphs == 0 {
            0.0
        } else {
            self.arena_bytes as f64 / self.arena_graphs as f64
        }
    }

    /// Pointer-rich estimate per graph (0.0 for an empty database).
    pub fn pointer_rich_bytes_per_graph(&self) -> f64 {
        if self.graphs == 0 {
            0.0
        } else {
            self.pointer_rich_bytes as f64 / self.graphs as f64
        }
    }
}

impl GraphDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps pre-built parts (e.g. the reconstructed paper dataset). The
    /// caller asserts that every graph was built against `vocab`.
    pub fn from_parts(vocab: Vocabulary, graphs: Vec<Graph>) -> Self {
        let stats = graphs.iter().map(|_| Arc::default()).collect();
        GraphDatabase {
            vocab,
            slots: graphs.into_iter().map(Slot::Owned).collect(),
            compact: None,
            epoch: 0,
            stats,
        }
    }

    /// Parses a database from the `t/v/e` text format.
    pub fn from_text(input: &str) -> Result<Self, GraphError> {
        let mut vocab = Vocabulary::new();
        let graphs = parse_database(input, &mut vocab)?;
        Ok(GraphDatabase::from_parts(vocab, graphs))
    }

    /// Serializes the database to the `t/v/e` text format.
    pub fn to_text(&self) -> String {
        write_database(self.iter().map(|(_, g)| g), &self.vocab)
    }

    /// Adds a graph built through a builder wired to this database's
    /// vocabulary; returns its id.
    ///
    /// ```
    /// use gss_core::GraphDatabase;
    ///
    /// let mut db = GraphDatabase::new();
    /// let id = db
    ///     .add("triangle", |b| {
    ///         b.vertices(&["x", "y", "z"], "C").cycle(&["x", "y", "z"], "-")
    ///     })
    ///     .unwrap();
    /// assert_eq!(db.get(id).size(), 3);
    /// ```
    pub fn add<F>(&mut self, name: &str, build: F) -> Result<GraphId, GraphError>
    where
        F: for<'v> FnOnce(GraphBuilder<'v>) -> GraphBuilder<'v>,
    {
        let builder = GraphBuilder::new(name, &mut self.vocab);
        let graph = build(builder).build()?;
        Ok(self.push(graph))
    }

    /// Adds an already-built graph (must share this database's vocabulary).
    ///
    /// The new graph lives in an owned pointer-rich slot regardless of
    /// whether the database is arena-backed — mutations never touch the
    /// shared arena (copy-on-write at graph granularity).
    pub fn push(&mut self, graph: Graph) -> GraphId {
        let id = GraphId(self.slots.len());
        self.slots.push(Slot::Owned(graph));
        self.stats.push(Arc::default());
        id
    }

    /// Removes a graph, compacting the dense id space: every graph after
    /// it shifts down by one id. Returns the removed graph. Derived
    /// artifacts holding old ids (indexes, snapshots) must be remapped or
    /// rebuilt — the `gss-store` mutation path does exactly that and bumps
    /// the epoch so stale fingerprints stop validating.
    ///
    /// # Panics
    /// Panics for ids not created by this database.
    pub fn remove(&mut self, id: GraphId) -> Graph {
        self.stats.remove(id.0);
        let slot = self.slots.remove(id.0);
        self.take_graph(slot)
    }

    /// Replaces the graph behind an id in place (same id, new content),
    /// resetting its cached stats cell. Returns the previous graph. The
    /// replacement must share this database's vocabulary.
    ///
    /// # Panics
    /// Panics for ids not created by this database.
    pub fn replace(&mut self, id: GraphId, graph: Graph) -> Graph {
        self.stats[id.0] = Arc::default();
        let slot = std::mem::replace(&mut self.slots[id.0], Slot::Owned(graph));
        self.take_graph(slot)
    }

    /// Converts a detached slot into an owned pointer-rich graph
    /// (materializing from the arena when it was never touched).
    fn take_graph(&self, slot: Slot) -> Graph {
        match slot {
            Slot::Owned(g) => g,
            Slot::Arena { idx, cell } => {
                let store = self
                    .compact
                    .as_ref()
                    .expect("arena slot without a compact store");
                match Arc::try_unwrap(cell) {
                    Ok(cell) => cell
                        .into_inner()
                        .unwrap_or_else(|| store.arena.materialize(idx as usize)),
                    Err(shared) => shared
                        .get()
                        .cloned()
                        .unwrap_or_else(|| store.arena.materialize(idx as usize)),
                }
            }
        }
    }

    /// Builds a query graph against this database's vocabulary *without*
    /// storing it.
    pub fn build_query<F>(&mut self, name: &str, build: F) -> Result<Graph, GraphError>
    where
        F: for<'v> FnOnce(GraphBuilder<'v>) -> GraphBuilder<'v>,
    {
        let builder = GraphBuilder::new(name, &mut self.vocab);
        build(builder).build()
    }

    /// Number of graphs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the database holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The graph behind an id.
    ///
    /// For arena slots this materializes the pointer-rich form on first
    /// access (at most once; clones share the cell). Summary-only
    /// consumers should prefer [`GraphDatabase::stats`], which never
    /// materializes.
    ///
    /// # Panics
    /// Panics for ids not created by this database.
    pub fn get(&self, id: GraphId) -> &Graph {
        match &self.slots[id.0] {
            Slot::Owned(g) => g,
            Slot::Arena { idx, cell } => cell.get_or_init(|| {
                self.compact
                    .as_ref()
                    .expect("arena slot without a compact store")
                    .arena
                    .materialize(*idx as usize)
            }),
        }
    }

    /// The cached [`GraphStats`] summary of a stored graph, computed on
    /// first access and reused by every later scan (and by clones of this
    /// database).
    ///
    /// Arena-backed graphs never compute anything here: the summary is
    /// decoded from the column-oriented [`StatsColumns`] the compact
    /// store persisted, which is what makes cold start near-instant.
    ///
    /// # Panics
    /// Panics for ids not created by this database.
    pub fn stats(&self, id: GraphId) -> &GraphStats {
        self.stats[id.0].get_or_init(|| match &self.slots[id.0] {
            Slot::Owned(g) => GraphStats::compute(g),
            Slot::Arena { idx, .. } => self
                .compact
                .as_ref()
                .expect("arena slot without a compact store")
                .columns
                .decode(*idx as usize),
        })
    }

    /// Eagerly fills every stats cache cell — useful at load time in
    /// long-lived processes (e.g. `gss-server`) so the first query does not
    /// pay the whole database's summary cost. For arena-backed databases
    /// this is a pure column decode (no WL refinement, no connectivity
    /// traversal).
    pub fn precompute_stats(&self) {
        for i in 0..self.slots.len() {
            let _ = self.stats(GraphId(i));
        }
    }

    /// Iterates `(id, graph)` pairs in insertion order, materializing
    /// arena slots on the way.
    pub fn iter(&self) -> impl Iterator<Item = (GraphId, &Graph)> + '_ {
        (0..self.slots.len()).map(|i| (GraphId(i), self.get(GraphId(i))))
    }

    /// The display name of a stored graph, without materializing arena
    /// slots (one interned-pool lookup).
    ///
    /// # Panics
    /// Panics for ids not created by this database.
    pub fn name_of(&self, id: GraphId) -> &str {
        match &self.slots[id.0] {
            Slot::Owned(g) => g.name(),
            Slot::Arena { idx, cell } => match cell.get() {
                Some(g) => g.name(),
                None => self
                    .compact
                    .as_ref()
                    .expect("arena slot without a compact store")
                    .arena
                    .graph(*idx as usize)
                    .name(),
            },
        }
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Mutable access to the vocabulary (for wiring external builders).
    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    /// The mutation epoch this content belongs to (0 for freshly
    /// loaded/built databases; bumped by the `gss-store` snapshot store
    /// on every mutation batch). Folded into
    /// [`GraphDatabase::fingerprint`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the mutation epoch (see [`GraphDatabase::epoch`]). Intended
    /// for the snapshot store's batch-apply path; changing the epoch
    /// changes the fingerprint, so derived artifacts built against the
    /// old epoch stop validating.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Finds a graph id by name (first match). Does not materialize
    /// arena slots.
    pub fn find_by_name(&self, name: &str) -> Option<GraphId> {
        (0..self.slots.len())
            .map(GraphId)
            .find(|&id| self.name_of(id) == name)
    }

    /// A structural fingerprint of the database: a 64-bit hash of the
    /// mutation epoch plus every graph's vertex labels and edge list in
    /// insertion order.
    ///
    /// Derived artifacts (e.g. a serialized `gss-index` pivot index) store
    /// this value and refuse to load against a database whose content or
    /// ordering has changed. Renaming graphs does not change the
    /// fingerprint; any structural or label edit does, and so does a
    /// mutation-epoch bump — two live-store snapshots never collide even
    /// when a mutation round-trip restores identical content.
    pub fn fingerprint(&self) -> u64 {
        // Exhaustive: a new field must be hashed or bound as `_` with a reason.
        let GraphDatabase {
            vocab,
            slots,
            compact,
            epoch,
            // Derived cache: every summary is a pure function of the stored
            // content + `vocab`, which the fingerprint already covers;
            // hashing fill state would make the key depend on scan history.
            stats: _,
        } = self;
        let mut h = codec::Fnv64::new();
        h.write_u64(*epoch);
        // Labels hash as their vocabulary strings, not their interned ids:
        // ids are vocabulary-relative, and two different databases can
        // intern different strings to the same dense ids.
        let label = |h: &mut codec::Fnv64, l: gss_graph::Label| {
            let name = vocab.name(l).unwrap_or("");
            h.write_u64(name.len() as u64);
            h.write(name.as_bytes());
        };
        h.write_u64(slots.len() as u64);
        // Both representations hash the identical byte stream — arena
        // labels are vocabulary ids by construction, so the same strings
        // come out either way. This keeps the fingerprint stable across
        // `compact()`, save/load, and graph-granular copy-on-write.
        for slot in slots {
            match slot {
                Slot::Owned(g) => {
                    h.write_u64(g.order() as u64);
                    h.write_u64(g.size() as u64);
                    for v in g.vertices() {
                        label(&mut h, g.vertex_label(v));
                    }
                    for e in g.edges() {
                        let edge = g.edge(e);
                        h.write_u64(edge.u.index() as u64);
                        h.write_u64(edge.v.index() as u64);
                        label(&mut h, edge.label);
                    }
                }
                Slot::Arena { idx, .. } => {
                    let r = compact
                        .as_ref()
                        .expect("arena slot without a compact store")
                        .arena
                        .graph(*idx as usize);
                    h.write_u64(r.order() as u64);
                    h.write_u64(r.size() as u64);
                    for v in r.vertices() {
                        label(&mut h, r.vertex_label(v));
                    }
                    for e in r.edges() {
                        let (u, v) = r.edge_endpoints(e);
                        h.write_u64(u.index() as u64);
                        h.write_u64(v.index() as u64);
                        label(&mut h, r.edge_label(e));
                    }
                }
            }
        }
        h.finish()
    }

    /// True when every stored graph lives in the compact arena (no owned
    /// slots) — the state [`GraphDatabase::compact`] and
    /// [`GraphDatabase::load_bytes`] produce.
    pub fn is_compact(&self) -> bool {
        self.slots.iter().all(|s| matches!(s, Slot::Arena { .. }))
    }

    /// Converts the current content into the compact arena representation:
    /// one shared [`GraphArena`] (CSR flat arrays + interned pool) plus
    /// column-oriented [`StatsColumns`].
    ///
    /// Content, ids, epoch and [`GraphDatabase::fingerprint`] are all
    /// unchanged; already-computed summaries are reused (anything missing
    /// is computed here, so the columns are always complete). Later
    /// mutations copy-on-write out of the arena at graph granularity.
    pub fn compact(&mut self) {
        // Complete the summary cache first — the columns persist every
        // graph's stats so a later load never recomputes them.
        self.precompute_stats();
        let arena = {
            let graphs: Vec<&Graph> = (0..self.slots.len())
                .map(|i| self.get(GraphId(i)))
                .collect();
            GraphArena::from_graphs(graphs, &self.vocab)
        };
        let columns =
            StatsColumns::from_stats((0..self.slots.len()).map(|i| self.stats(GraphId(i))));
        self.compact = Some(Arc::new(CompactStore { arena, columns }));
        self.slots = (0..self.stats.len())
            .map(|i| Slot::Arena {
                idx: i as u32,
                cell: Arc::default(),
            })
            .collect();
    }

    /// Memory accounting of the current representation (see
    /// [`MemoryStats`]). The pointer-rich baseline is an estimate of the
    /// same content in owned [`Graph`] form, derived from each graph's
    /// shape — allocator slack excluded on both sides.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut m = MemoryStats {
            graphs: self.slots.len(),
            arena_graphs: 0,
            materialized: 0,
            arena_bytes: 0,
            stats_columns_bytes: 0,
            pool_entries: 0,
            pool_bytes: 0,
            pointer_rich_bytes: 0,
        };
        if let Some(store) = &self.compact {
            m.arena_bytes = store.arena.heap_bytes();
            m.stats_columns_bytes = store.columns.heap_bytes();
            m.pool_entries = store.arena.pool().len();
            m.pool_bytes = store.arena.pool().heap_bytes();
        }
        for slot in &self.slots {
            let (order, size, name_len) = match slot {
                Slot::Owned(g) => (g.order(), g.size(), g.name().len()),
                Slot::Arena { idx, cell } => {
                    m.arena_graphs += 1;
                    if cell.get().is_some() {
                        m.materialized += 1;
                    }
                    let r = self
                        .compact
                        .as_ref()
                        .expect("arena slot without a compact store")
                        .arena
                        .graph(*idx as usize);
                    (r.order(), r.size(), r.name().len())
                }
            };
            m.pointer_rich_bytes += gss_graph::arena::pointer_rich_estimate(order, size, name_len);
        }
        m
    }

    /// Serializes the database into the zero-parse binary format (magic
    /// `GSSGRDB\0`): the [`codec`] FNV-checksummed frame around
    /// alignment-padded sections whose payloads are the arena's
    /// in-memory columns. Databases not yet compact are compacted into a
    /// temporary store first (`&self` stays untouched).
    pub fn save_bytes(&self) -> Vec<u8> {
        if self.fully_compact() {
            let store = self.compact.as_ref().expect("fully_compact checked");
            encode_store(self.epoch, store)
        } else {
            let mut tmp = self.clone();
            tmp.compact();
            let store = tmp.compact.as_ref().expect("just compacted");
            encode_store(self.epoch, store)
        }
    }

    /// True when the slots are exactly rows `0..n` of the arena, in order
    /// — the state where the arena alone describes the whole content.
    fn fully_compact(&self) -> bool {
        match &self.compact {
            None => false,
            Some(store) => {
                store.arena.len() == self.slots.len()
                    && self
                        .slots
                        .iter()
                        .enumerate()
                        .all(|(i, s)| matches!(s, Slot::Arena { idx, .. } if *idx as usize == i))
            }
        }
    }

    /// Loads a database serialized by [`GraphDatabase::save_bytes`].
    ///
    /// The FNV frame is validated first (any single corrupted byte is
    /// rejected), then the section payloads are adopted into aligned
    /// column buffers and structurally validated — no per-graph parsing,
    /// no label re-interning, no summary recomputation. Every graph
    /// arrives as a lazy arena slot; the vocabulary is rebuilt from the
    /// pool prefix with identical label ids.
    pub fn load_bytes(data: &[u8]) -> Result<Self, codec::CodecError> {
        let (epoch, store) = decode_store(data)?;
        let vocab = store.arena.rebuild_vocab();
        let n = store.arena.len();
        Ok(GraphDatabase {
            vocab,
            slots: (0..n)
                .map(|i| Slot::Arena {
                    idx: i as u32,
                    cell: Arc::default(),
                })
                .collect(),
            compact: Some(Arc::new(store)),
            epoch,
            stats: (0..n).map(|_| Arc::default()).collect(),
        })
    }

    /// True when `data` begins with the binary database magic — the
    /// front-end's format sniff (binary vs `t/v/e` text).
    pub fn is_binary(data: &[u8]) -> bool {
        data.get(..8) == Some(&DB_MAGIC[..])
    }

    /// Writes [`GraphDatabase::save_bytes`] to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.save_bytes())
    }

    /// Reads a file written by [`GraphDatabase::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        Self::load_bytes(&data).map_err(std::io::Error::other)
    }
}

/// 8-byte magic of the binary database format.
const DB_MAGIC: &[u8; 8] = b"GSSGRDB\0";
/// Current format version. Bump rules: add sections only at the end and
/// gate them on the version read from the header; never reorder or
/// re-type existing sections — old readers must keep rejecting newer
/// files via `UnsupportedVersion`, and this reader must keep accepting
/// every older version it ever shipped.
const DB_VERSION: u32 = 1;

/// Encodes a compact store (+ epoch) into the section format. Layout
/// after the 12-byte frame header: `epoch: u64`, `label_count: u32`,
/// then one aligned section per column in fixed order — pool (bytes,
/// offsets), arena (names, vertex_off, edge_off, vertex_labels, edge_u,
/// edge_v, edge_labels), stats (orders, sizes, wl_fingerprints,
/// connected, degree/vlabel/elabel/eclass CSR families) — and the
/// trailing FNV-1a checksum.
fn encode_store(epoch: u64, store: &CompactStore) -> Vec<u8> {
    let mut w = codec::Writer::new(DB_MAGIC, DB_VERSION);
    w.u64(epoch);
    w.u32(store.arena.label_count());
    let (pool_bytes, pool_offsets) = store.arena.pool().raw();
    w.section(pool_bytes);
    w.section_u32(pool_offsets);
    let (names, voff, eoff, vlabels, eu, ev, elabels) = store.arena.raw();
    for col in [names, voff, eoff, vlabels, eu, ev, elabels] {
        w.section_u32(col);
    }
    let (fixed, deg, vl, el, ec) = store.columns.raw();
    w.section_u32(fixed.0);
    w.section_u32(fixed.1);
    w.section_u64(fixed.2);
    w.section(fixed.3);
    for col in [
        deg.0, deg.1, vl.0, vl.1, vl.2, el.0, el.1, el.2, ec.0, ec.1, ec.2, ec.3, ec.4,
    ] {
        w.section_u32(col);
    }
    w.finish()
}

/// Decodes the section format back into a compact store (+ epoch),
/// validating frame, structure and cross-column alignment.
fn decode_store(data: &[u8]) -> Result<(u64, CompactStore), codec::CodecError> {
    let invalid = |e: ArenaError| codec::CodecError::Invalid(e.0);
    let (mut r, _version) = codec::Reader::new(data, DB_MAGIC, DB_VERSION)?;
    let epoch = r.u64()?;
    let label_count = r.u32()?;
    let pool_bytes = r.section()?.to_vec();
    let pool_offsets = r.section_u32()?;
    let pool = LabelPool::from_raw(pool_bytes, pool_offsets).map_err(invalid)?;
    let names = r.section_u32()?;
    let voff = r.section_u32()?;
    let eoff = r.section_u32()?;
    let vlabels = r.section_u32()?;
    let eu = r.section_u32()?;
    let ev = r.section_u32()?;
    let elabels = r.section_u32()?;
    let arena = GraphArena::from_raw(
        pool,
        label_count,
        names,
        voff,
        eoff,
        vlabels,
        eu,
        ev,
        elabels,
    )
    .map_err(invalid)?;
    let orders = r.section_u32()?;
    let sizes = r.section_u32()?;
    let wl = r.section_u64()?;
    let connected = r.section()?.to_vec();
    let deg_off = r.section_u32()?;
    let deg_vals = r.section_u32()?;
    let vl_off = r.section_u32()?;
    let vl_keys = r.section_u32()?;
    let vl_counts = r.section_u32()?;
    let el_off = r.section_u32()?;
    let el_keys = r.section_u32()?;
    let el_counts = r.section_u32()?;
    let ec_off = r.section_u32()?;
    let ec_lo = r.section_u32()?;
    let ec_hi = r.section_u32()?;
    let ec_label = r.section_u32()?;
    let ec_counts = r.section_u32()?;
    r.finish()?;
    let columns = StatsColumns::from_raw(
        (orders, sizes, wl, connected),
        (deg_off, deg_vals),
        (vl_off, vl_keys, vl_counts),
        (el_off, el_keys, el_counts),
        (ec_off, ec_lo, ec_hi, ec_label, ec_counts),
    )
    .map_err(invalid)?;
    if columns.len() != arena.len() {
        return Err(codec::CodecError::Invalid(
            "stats columns do not align with the arena".into(),
        ));
    }
    Ok((epoch, CompactStore { arena, columns }))
}

pub mod codec {
    //! Versioned binary serialization for database-derived artifacts.
    //!
    //! A tiny dependency-free little-endian codec with the framing every
    //! persistent artifact in the workspace shares: an 8-byte magic, a
    //! `u32` format version, a length-delimited payload and a trailing
    //! FNV-1a checksum. [`Writer`] produces the frame, [`Reader`] verifies
    //! magic/version/checksum up front so consumers only ever decode
    //! integrity-checked bytes. The first user is the `gss-index` pivot
    //! index (`PivotIndex::{to_bytes, from_bytes}`).

    use std::fmt;

    pub use gss_graph::Fnv64;

    /// Why a binary artifact failed to decode.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum CodecError {
        /// The magic bytes do not match the expected artifact type.
        BadMagic,
        /// The payload checksum does not match (truncation or corruption).
        BadChecksum,
        /// The reader ran past the end of the payload.
        Truncated,
        /// The payload has bytes left after the last expected field.
        TrailingBytes,
        /// The format version is newer than this build understands.
        UnsupportedVersion {
            /// Version found in the artifact header.
            found: u32,
            /// Highest version this build can read.
            supported: u32,
        },
        /// A field decoded to a value that violates the format's invariants.
        Invalid(String),
    }

    impl fmt::Display for CodecError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                CodecError::BadMagic => write!(f, "not a recognized artifact (bad magic)"),
                CodecError::BadChecksum => write!(f, "checksum mismatch (corrupt or truncated)"),
                CodecError::Truncated => write!(f, "unexpected end of data"),
                CodecError::TrailingBytes => write!(f, "trailing bytes after payload"),
                CodecError::UnsupportedVersion { found, supported } => write!(
                    f,
                    "format version {found} is newer than supported version {supported}"
                ),
                CodecError::Invalid(msg) => write!(f, "invalid field: {msg}"),
            }
        }
    }

    impl std::error::Error for CodecError {}

    /// Builds a framed artifact: magic, version, payload, FNV-1a checksum.
    #[derive(Debug)]
    pub struct Writer {
        buf: Vec<u8>,
    }

    impl Writer {
        /// Starts a frame with the given 8-byte magic and format version.
        pub fn new(magic: &[u8; 8], version: u32) -> Self {
            let mut buf = Vec::with_capacity(64);
            buf.extend_from_slice(magic);
            buf.extend_from_slice(&version.to_le_bytes());
            Writer { buf }
        }

        /// Appends a `u32`.
        pub fn u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends a `u64`.
        pub fn u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends a `usize` as `u64`.
        pub fn usize(&mut self, v: usize) {
            self.u64(v as u64);
        }

        /// Appends an `f64` by bit pattern (exact round-trip).
        pub fn f64(&mut self, v: f64) {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }

        /// Appends length-delimited raw bytes (`u64` length, then the
        /// bytes verbatim).
        pub fn bytes(&mut self, v: &[u8]) {
            self.usize(v.len());
            self.buf.extend_from_slice(v);
        }

        /// Appends a length-delimited UTF-8 string.
        pub fn str(&mut self, v: &str) {
            self.bytes(v.as_bytes());
        }

        /// Pads with zero bytes to the next 8-byte frame offset.
        pub fn align8(&mut self) {
            while !self.buf.len().is_multiple_of(8) {
                self.buf.push(0);
            }
        }

        /// Appends an **aligned section**: a `u64` byte length, zero
        /// padding up to the next 8-byte frame offset, then the payload
        /// verbatim. Because payloads always start 8-byte aligned, a
        /// little-endian array written here can be adopted (or mmapped)
        /// in place by the reader — the on-disk layout *is* the
        /// in-memory layout.
        pub fn section(&mut self, payload: &[u8]) {
            self.usize(payload.len());
            self.align8();
            self.buf.extend_from_slice(payload);
        }

        /// Appends a `u32` column as an aligned section (little-endian).
        pub fn section_u32(&mut self, vals: &[u32]) {
            self.usize(vals.len() * 4);
            self.align8();
            for &v in vals {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
        }

        /// Appends a `u64` column as an aligned section (little-endian).
        pub fn section_u64(&mut self, vals: &[u64]) {
            self.usize(vals.len() * 8);
            self.align8();
            for &v in vals {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
        }

        /// Finishes the frame: appends the checksum of everything written
        /// (magic and version included) and returns the bytes.
        pub fn finish(self) -> Vec<u8> {
            let mut h = Fnv64::new();
            h.write(&self.buf);
            let mut buf = self.buf;
            buf.extend_from_slice(&h.finish().to_le_bytes());
            buf
        }
    }

    /// Decodes a framed artifact produced by [`Writer`].
    #[derive(Debug)]
    pub struct Reader<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Verifies magic, version and checksum; returns the reader
        /// positioned at the payload plus the artifact's version.
        ///
        /// `supported` is the highest version this build understands;
        /// older versions are the caller's job to branch on.
        pub fn new(
            data: &'a [u8],
            magic: &[u8; 8],
            supported: u32,
        ) -> Result<(Self, u32), CodecError> {
            if data.len() < 8 + 4 + 8 {
                return Err(if data.get(..8) == Some(&magic[..]) {
                    CodecError::BadChecksum
                } else {
                    CodecError::BadMagic
                });
            }
            if &data[..8] != magic {
                return Err(CodecError::BadMagic);
            }
            let (payload, tail) = data.split_at(data.len() - 8);
            let mut h = Fnv64::new();
            h.write(payload);
            if tail != h.finish().to_le_bytes() {
                return Err(CodecError::BadChecksum);
            }
            let version = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
            if version > supported {
                return Err(CodecError::UnsupportedVersion {
                    found: version,
                    supported,
                });
            }
            Ok((
                Reader {
                    data: payload,
                    pos: 12,
                },
                version,
            ))
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
            let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
            if end > self.data.len() {
                return Err(CodecError::Truncated);
            }
            let s = &self.data[self.pos..end];
            self.pos = end;
            Ok(s)
        }

        /// Reads a `u32`.
        pub fn u32(&mut self) -> Result<u32, CodecError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
        }

        /// Reads a `u64`.
        pub fn u64(&mut self) -> Result<u64, CodecError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
        }

        /// Reads a `usize` (stored as `u64`), rejecting values that do not
        /// fit the platform.
        pub fn usize(&mut self) -> Result<usize, CodecError> {
            usize::try_from(self.u64()?)
                .map_err(|_| CodecError::Invalid("length exceeds platform usize".into()))
        }

        /// Reads an `f64` by bit pattern.
        pub fn f64(&mut self) -> Result<f64, CodecError> {
            Ok(f64::from_bits(self.u64()?))
        }

        /// Reads length-delimited raw bytes written by [`Writer::bytes`].
        pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
            let len = self.usize()?;
            self.take(len)
        }

        /// Reads a length-delimited UTF-8 string written by
        /// [`Writer::str`], rejecting invalid UTF-8.
        pub fn str(&mut self) -> Result<&'a str, CodecError> {
            std::str::from_utf8(self.bytes()?)
                .map_err(|_| CodecError::Invalid("string field is not valid UTF-8".into()))
        }

        /// Skips the padding [`Writer::align8`] wrote.
        pub fn align8(&mut self) -> Result<(), CodecError> {
            let pad = (8 - self.pos % 8) % 8;
            self.take(pad).map(|_| ())
        }

        /// Reads an aligned section written by [`Writer::section`],
        /// borrowing the payload in place (zero-copy).
        pub fn section(&mut self) -> Result<&'a [u8], CodecError> {
            let len = self.usize()?;
            self.align8()?;
            self.take(len)
        }

        /// Reads an aligned `u32` column section into an (aligned)
        /// buffer — a bulk little-endian adopt, not a parse.
        pub fn section_u32(&mut self) -> Result<Vec<u32>, CodecError> {
            let raw = self.section()?;
            if raw.len() % 4 != 0 {
                return Err(CodecError::Invalid(
                    "u32 section length not a multiple of 4".into(),
                ));
            }
            Ok(raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
                .collect())
        }

        /// Reads an aligned `u64` column section into an (aligned)
        /// buffer — a bulk little-endian adopt, not a parse.
        pub fn section_u64(&mut self) -> Result<Vec<u64>, CodecError> {
            let raw = self.section()?;
            if raw.len() % 8 != 0 {
                return Err(CodecError::Invalid(
                    "u64 section length not a multiple of 8".into(),
                ));
            }
            Ok(raw
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8")))
                .collect())
        }

        /// Asserts the payload was consumed exactly.
        pub fn finish(self) -> Result<(), CodecError> {
            if self.pos == self.data.len() {
                Ok(())
            } else {
                Err(CodecError::TrailingBytes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut db = GraphDatabase::new();
        let a = db.add("a", |b| b.vertex("x", "X")).unwrap();
        let b = db
            .add("b", |b| b.vertices(&["p", "q"], "P").edge("p", "q", "-"))
            .unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(a).name(), "a");
        assert_eq!(db.get(b).size(), 1);
        assert_eq!(db.find_by_name("b"), Some(b));
        assert_eq!(db.find_by_name("zzz"), None);
        assert!(!db.is_empty());
    }

    #[test]
    fn builder_errors_propagate() {
        let mut db = GraphDatabase::new();
        let err = db.add("bad", |b| b.edge("no", "pe", "-")).unwrap_err();
        assert!(matches!(err, GraphError::UnknownVertexName { .. }));
        assert!(db.is_empty(), "failed add must not insert");
    }

    #[test]
    fn shared_vocabulary_across_graphs() {
        let mut db = GraphDatabase::new();
        db.add("a", |b| b.vertex("x", "C")).unwrap();
        db.add("b", |b| b.vertex("y", "C")).unwrap();
        let la = db.get(GraphId(0)).vertex_label(gss_graph::VertexId::new(0));
        let lb = db.get(GraphId(1)).vertex_label(gss_graph::VertexId::new(0));
        assert_eq!(la, lb, "same string label must intern identically");
    }

    #[test]
    fn text_round_trip() {
        let mut db = GraphDatabase::new();
        db.add("mol", |b| {
            b.vertex("c1", "C").vertex("o", "O").edge("c1", "o", "=")
        })
        .unwrap();
        let text = db.to_text();
        let db2 = GraphDatabase::from_text(&text).unwrap();
        assert_eq!(db2.len(), 1);
        assert_eq!(db2.get(GraphId(0)).name(), "mol");
        assert_eq!(db2.to_text(), text);
    }

    #[test]
    fn codec_round_trips_and_rejects_corruption() {
        use codec::{CodecError, Reader, Writer};
        const MAGIC: &[u8; 8] = b"GSSTEST\0";
        let mut w = Writer::new(MAGIC, 3);
        w.u32(7);
        w.u64(u64::MAX);
        w.usize(42);
        w.f64(-0.125);
        let bytes = w.finish();

        let (mut r, version) = Reader::new(&bytes, MAGIC, 3).unwrap();
        assert_eq!(version, 3);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), -0.125);
        r.finish().unwrap();

        // Underread is detected by finish, overread by the accessor.
        let (r, _) = Reader::new(&bytes, MAGIC, 3).unwrap();
        assert_eq!(r.finish().unwrap_err(), CodecError::TrailingBytes);
        let (mut r2, _) = Reader::new(&bytes, MAGIC, 3).unwrap();
        for _ in 0..4 {
            let _ = r2.u64();
        }
        assert_eq!(r2.u64().unwrap_err(), CodecError::Truncated);

        // Wrong magic, future version, flipped bit, truncation.
        assert_eq!(
            Reader::new(&bytes, b"OTHERMAG", 3).unwrap_err(),
            CodecError::BadMagic
        );
        assert_eq!(
            Reader::new(&bytes, MAGIC, 2).unwrap_err(),
            CodecError::UnsupportedVersion {
                found: 3,
                supported: 2
            }
        );
        let mut corrupt = bytes.clone();
        corrupt[14] ^= 1;
        assert_eq!(
            Reader::new(&corrupt, MAGIC, 3).unwrap_err(),
            CodecError::BadChecksum
        );
        assert_eq!(
            Reader::new(&bytes[..bytes.len() - 1], MAGIC, 3).unwrap_err(),
            CodecError::BadChecksum
        );
        assert_eq!(
            Reader::new(&bytes[..4], MAGIC, 3).unwrap_err(),
            CodecError::BadMagic
        );
    }

    #[test]
    fn codec_strings_and_bytes_round_trip() {
        use codec::{CodecError, Reader, Writer};
        const MAGIC: &[u8; 8] = b"GSSTEST\0";
        let mut w = Writer::new(MAGIC, 1);
        w.str("t a\nv 0 C\n");
        w.bytes(&[0, 255, 7]);
        w.str("");
        let bytes = w.finish();

        let (mut r, _) = Reader::new(&bytes, MAGIC, 1).unwrap();
        assert_eq!(r.str().unwrap(), "t a\nv 0 C\n");
        assert_eq!(r.bytes().unwrap(), &[0, 255, 7]);
        assert_eq!(r.str().unwrap(), "");
        r.finish().unwrap();

        // A length that runs past the payload is a truncation, and
        // invalid UTF-8 is rejected as a typed error.
        let mut w = Writer::new(MAGIC, 1);
        w.usize(1_000_000);
        let bytes = w.finish();
        let (mut r, _) = Reader::new(&bytes, MAGIC, 1).unwrap();
        assert_eq!(r.bytes().unwrap_err(), CodecError::Truncated);
        let mut w = Writer::new(MAGIC, 1);
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.finish();
        let (mut r, _) = Reader::new(&bytes, MAGIC, 1).unwrap();
        assert!(matches!(r.str().unwrap_err(), CodecError::Invalid(_)));
    }

    #[test]
    fn fingerprint_tracks_structure_not_names() {
        let mut db = GraphDatabase::new();
        db.add("a", |b| b.vertices(&["x", "y"], "C").edge("x", "y", "-"))
            .unwrap();
        let fp = db.fingerprint();
        assert_eq!(fp, db.fingerprint(), "deterministic");

        // Renaming a graph leaves the fingerprint alone…
        let mut renamed = db.clone();
        let g = renamed.get(GraphId(0)).clone();
        let mut g2 = g.clone();
        g2.set_name("other");
        renamed = GraphDatabase::from_parts(renamed.vocab().clone(), vec![g2]);
        assert_eq!(renamed.fingerprint(), fp);

        // …while adding a graph or editing structure changes it.
        let mut grown = db.clone();
        grown.add("b", |b| b.vertex("z", "N")).unwrap();
        assert_ne!(grown.fingerprint(), fp);
        let mut edited = GraphDatabase::new();
        edited
            .add("a", |b| b.vertices(&["x", "y"], "C").edge("x", "y", "="))
            .unwrap();
        assert_ne!(edited.fingerprint(), fp);
    }

    #[test]
    fn remove_compacts_ids_and_replace_resets_stats() {
        let mut db = GraphDatabase::new();
        db.add("a", |b| b.vertex("x", "A")).unwrap();
        db.add("b", |b| b.vertices(&["p", "q"], "B").edge("p", "q", "-"))
            .unwrap();
        db.add("c", |b| b.vertex("y", "C")).unwrap();
        let snapshot = db.clone();

        let gone = db.remove(GraphId(1));
        assert_eq!(gone.name(), "b");
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(GraphId(1)).name(), "c", "ids compact");
        assert_eq!(db.stats(GraphId(1)).order, 1);
        // The clone taken before the removal is untouched.
        assert_eq!(snapshot.len(), 3);
        assert_eq!(snapshot.get(GraphId(1)).name(), "b");

        let replacement = db
            .build_query("a2", |b| b.vertices(&["u", "v"], "A").edge("u", "v", "-"))
            .unwrap();
        let old = db.replace(GraphId(0), replacement);
        assert_eq!(old.name(), "a");
        assert_eq!(db.stats(GraphId(0)).order, 2, "stats cell was reset");
        assert_eq!(snapshot.stats(GraphId(0)).order, 1, "clone keeps its own");
    }

    #[test]
    fn epoch_is_folded_into_the_fingerprint() {
        let mut db = GraphDatabase::new();
        db.add("a", |b| b.vertices(&["x", "y"], "C").edge("x", "y", "-"))
            .unwrap();
        assert_eq!(db.epoch(), 0, "fresh databases start at epoch 0");
        let fp0 = db.fingerprint();

        // Same content at a later epoch fingerprints differently…
        let mut bumped = db.clone();
        bumped.set_epoch(7);
        assert_eq!(bumped.epoch(), 7);
        assert_ne!(bumped.fingerprint(), fp0);
        // …deterministically…
        assert_eq!(bumped.fingerprint(), bumped.fingerprint());
        // …and restoring the epoch restores the fingerprint.
        bumped.set_epoch(0);
        assert_eq!(bumped.fingerprint(), fp0);
    }

    #[test]
    fn stats_cache_matches_fresh_computation_and_tracks_pushes() {
        let mut db = GraphDatabase::new();
        let a = db
            .add("a", |b| {
                b.vertices(&["x", "y", "z"], "C")
                    .cycle(&["x", "y", "z"], "-")
            })
            .unwrap();
        let cached = db.stats(a).clone();
        assert_eq!(cached, GraphStats::compute(db.get(a)));
        assert!(cached.connected);
        assert_eq!(cached.size, 3);

        // Pushing more graphs leaves earlier cells intact and adds new ones.
        let b = db.add("b", |b| b.vertex("q", "N")).unwrap();
        assert_eq!(db.stats(a), &cached);
        assert_eq!(db.stats(b).order, 1);
        assert!(!db.stats(b).connected || db.get(b).order() <= 1);

        // Clones share computed cells (same values either way).
        let clone = db.clone();
        assert_eq!(clone.stats(a), &cached);
        db.precompute_stats();
        assert_eq!(db.stats(b), clone.stats(b));
    }

    #[test]
    fn query_built_on_same_vocab() {
        let mut db = GraphDatabase::new();
        db.add("g", |b| b.vertex("x", "C")).unwrap();
        let q = db.build_query("q", |b| b.vertex("y", "C")).unwrap();
        assert_eq!(db.len(), 1, "query must not be stored");
        let lg = db.get(GraphId(0)).vertex_label(gss_graph::VertexId::new(0));
        let lq = q.vertex_label(gss_graph::VertexId::new(0));
        assert_eq!(lg, lq);
    }

    fn sample_db() -> GraphDatabase {
        let mut db = GraphDatabase::new();
        db.add("triangle", |b| {
            b.vertices(&["a", "b", "c"], "C")
                .cycle(&["a", "b", "c"], "-")
        })
        .unwrap();
        db.add("path", |b| {
            b.vertex("p", "N")
                .vertex("q", "C")
                .vertex("r", "O")
                .path(&["p", "q", "r"], "=")
        })
        .unwrap();
        db.add("lone", |b| b.vertex("x", "S")).unwrap();
        db.set_epoch(11);
        db
    }

    #[test]
    fn compact_preserves_fingerprint_content_and_stats() {
        let oracle = sample_db();
        let mut db = sample_db();
        assert!(!db.is_compact());
        db.compact();
        assert!(db.is_compact());

        // Byte-identical contract: fingerprint, text form, per-graph stats
        // and structure all match the pointer-rich oracle.
        assert_eq!(db.fingerprint(), oracle.fingerprint());
        assert_eq!(db.to_text(), oracle.to_text());
        for (id, g) in oracle.iter() {
            assert_eq!(db.name_of(id), g.name());
            assert_eq!(db.stats(id), oracle.stats(id));
            let m = db.get(id);
            assert_eq!(m.order(), g.order());
            assert_eq!(m.size(), g.size());
            for v in g.vertices() {
                let pairs_a: Vec<_> = g.neighbors(v).collect();
                let pairs_b: Vec<_> = m.neighbors(v).collect();
                assert_eq!(pairs_a, pairs_b, "adjacency order must survive");
            }
        }
    }

    #[test]
    fn compact_mutations_copy_on_write() {
        let mut db = sample_db();
        db.compact();
        let clone = db.clone();

        // Replacing one graph de-compacts only the touched slot; the other
        // slots still read from the shared arena and the clone is untouched.
        let replacement = db
            .build_query("path2", |b| {
                b.vertices(&["u", "v"], "C").edge("u", "v", "-")
            })
            .unwrap();
        let old = db.replace(GraphId(1), replacement);
        assert_eq!(old.name(), "path");
        assert_eq!(db.get(GraphId(1)).name(), "path2");
        assert_eq!(db.name_of(GraphId(0)), "triangle");
        assert_eq!(clone.get(GraphId(1)).name(), "path");
        assert_eq!(clone.len(), 3);

        // Pushing appends an owned slot alongside the arena-backed ones.
        let extra = db.build_query("extra", |b| b.vertex("z", "C")).unwrap();
        db.push(extra);
        assert_eq!(db.len(), 4);
        assert_eq!(db.name_of(GraphId(3)), "extra");
    }

    #[test]
    fn save_load_round_trip_is_byte_stable() {
        let db = sample_db();
        let bytes = db.save_bytes();
        assert!(GraphDatabase::is_binary(&bytes));
        assert!(!GraphDatabase::is_binary(b"t graph\nv 0 C\n"));

        let loaded = GraphDatabase::load_bytes(&bytes).unwrap();
        assert_eq!(loaded.len(), db.len());
        assert_eq!(loaded.epoch(), db.epoch());
        assert!(loaded.is_compact(), "load adopts the arena directly");
        assert_eq!(loaded.fingerprint(), db.fingerprint());
        assert_eq!(loaded.to_text(), db.to_text());
        for (id, _) in db.iter() {
            assert_eq!(loaded.stats(id), db.stats(id), "stats come from columns");
        }

        // Saving an already-compact database is deterministic.
        let mut compacted = sample_db();
        compacted.compact();
        assert_eq!(compacted.save_bytes(), bytes);
        let again = GraphDatabase::load_bytes(&compacted.save_bytes()).unwrap();
        assert_eq!(again.save_bytes(), bytes);
    }

    #[test]
    fn load_rejects_any_single_byte_flip() {
        let bytes = sample_db().save_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                GraphDatabase::load_bytes(&corrupt).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
        assert!(GraphDatabase::load_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(GraphDatabase::load_bytes(&[]).is_err());
    }

    #[test]
    fn save_load_file_round_trip() {
        let db = sample_db();
        let dir = std::env::temp_dir().join(format!("gss-dbio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smoke.gdb");
        db.save(&path).unwrap();
        let loaded = GraphDatabase::load(&path).unwrap();
        assert_eq!(loaded.fingerprint(), db.fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_stats_report_compaction_win() {
        let mut db = GraphDatabase::new();
        for i in 0..32 {
            db.add(&format!("g{i}"), |b| {
                b.vertices(&["a", "b", "c", "d"], "C")
                    .cycle(&["a", "b", "c", "d"], "-")
                    .edge("a", "c", "=")
            })
            .unwrap();
        }
        let before = db.memory_stats();
        assert_eq!(before.graphs, 32);
        assert_eq!(before.arena_graphs, 0);
        assert!(before.pointer_rich_bytes > 0);

        db.compact();
        let after = db.memory_stats();
        assert_eq!(after.arena_graphs, 32);
        assert_eq!(after.materialized, 0, "compact() drops materialized copies");
        assert!(after.pool_entries > 0);
        assert!(
            (after.arena_bytes as f64) <= 0.6 * after.pointer_rich_bytes as f64,
            "arena {} vs pointer-rich {} misses the 60% gate",
            after.arena_bytes,
            after.pointer_rich_bytes
        );

        // Touching a graph materializes exactly that slot.
        let _ = db.get(GraphId(3));
        assert_eq!(db.memory_stats().materialized, 1);
    }

    #[test]
    fn empty_database_round_trips() {
        let db = GraphDatabase::new();
        let bytes = db.save_bytes();
        let loaded = GraphDatabase::load_bytes(&bytes).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.fingerprint(), db.fingerprint());
        assert_eq!(loaded.memory_stats().graphs, 0);
    }
}
