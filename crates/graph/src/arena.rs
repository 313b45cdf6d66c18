//! Compact interned graph storage: CSR arenas and column-oriented stats.
//!
//! The pointer-rich [`Graph`] type is built for construction and for the
//! solvers' random-access patterns: a `String` name, `Vec<Vertex>`,
//! `Vec<Edge>` and a nested `Vec<Vec<(VertexId, EdgeId)>>` adjacency.
//! That layout costs ~28 heap bytes per vertex *and* per edge plus three
//! allocations per graph — far too much for the millions-of-graphs
//! corpora the similarity-skyline engine targets, and every one of those
//! allocations has to be re-parsed at server start.
//!
//! This module provides the compact alternative:
//!
//! * [`LabelPool`] — one flat, database-wide string pool (contiguous
//!   UTF-8 bytes + `u32` span offsets) interning every vertex/edge label
//!   and every graph name exactly once;
//! * [`GraphArena`] — all graphs of a database as CSR-style flat arrays:
//!   `u32` per-graph vertex/edge offsets into global `u32` columns for
//!   vertex labels and edge `(u, v, label)` triples (endpoints are
//!   graph-local dense ids, labels are pool/vocabulary ids);
//! * [`GraphRef`] — a borrowed, copy-free view of one arena graph
//!   implementing the accessor surface the prefilter and the database
//!   fingerprint need, so hot paths read contiguous memory;
//! * [`StatsColumns`] — every graph's [`GraphStats`] summary stored
//!   column-oriented (struct-of-arrays): flat `u32`/`u64` columns plus
//!   CSR runs for the degree sequences and label/edge-class multisets.
//!   Decoding a row reproduces the exact `GraphStats` value
//!   `GraphStats::compute` would have produced, so a loaded database
//!   serves its first query without touching a solver or a hash.
//!
//! The arena layout is exactly what `gss-core::GraphDatabase::save`
//! writes to disk (little-endian, 8-byte-aligned sections), which is
//! what makes the zero-parse load path possible: the file's payload *is*
//! the in-memory representation.
//!
//! ```text
//!              ┌─ LabelPool ─────────────────────────────┐
//!              │ bytes:   "C-N=OH2O…caffeine…aspirin…"   │
//!              │ offsets: [0, 1, 2, 3, …]                │
//!              └─────────────────────────────────────────┘
//!   graph g ──▶ names[g]                 (pool id)
//!              vertex_off[g] .. vertex_off[g+1]  ──▶ vertex_labels[..]
//!              edge_off[g]   .. edge_off[g+1]    ──▶ edge_u/edge_v/edge_labels[..]
//! ```
//!
//! **Byte-parity contract**: [`GraphArena::materialize`] reconstructs a
//! [`Graph`] that is behaviorally identical to the one the arena was
//! built from — same name, same dense ids, same adjacency order — so
//! every downstream answer (skylines, witnesses, fingerprints)
//! is byte-identical whichever representation a database holds. The
//! pointer-rich path stays available as the parity oracle.

use std::collections::HashMap;

use crate::graph::{EdgeId, Graph, VertexId};
use crate::label::{Label, Vocabulary};
use crate::stats::{GraphStats, Multiset};

/// Errors raised when assembling an arena from untrusted raw columns
/// (the zero-parse load path).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArenaError(pub String);

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid arena data: {}", self.0)
    }
}

impl std::error::Error for ArenaError {}

fn err(msg: impl Into<String>) -> ArenaError {
    ArenaError(msg.into())
}

/// A flat interned string pool: contiguous UTF-8 bytes plus `u32` span
/// offsets. Entry `i` is `bytes[offsets[i] .. offsets[i + 1]]`.
///
/// The pool is append-only and deduplicating ([`LabelPool::intern`]);
/// lookups by id ([`LabelPool::get`]) are two array reads and never
/// allocate. Entries `0 .. label_count` of a database pool mirror the
/// [`Vocabulary`] in id order, so a vocabulary label id *is* its pool id;
/// graph names follow after.
#[derive(Clone, Debug, Default)]
pub struct LabelPool {
    /// All entries' UTF-8 bytes, concatenated.
    bytes: Vec<u8>,
    /// `n + 1` span offsets into `bytes`, ascending; entry `i` spans
    /// `offsets[i] .. offsets[i + 1]`.
    offsets: Vec<u32>,
    /// Intern index (string → id). Derived from `bytes`/`offsets`; left
    /// empty by the zero-parse load path, rebuilt only if interning
    /// resumes.
    index: HashMap<String, u32>,
}

// Equality is content equality: the derived `index` map may or may not be
// materialized (the zero-parse load path leaves it empty) without changing
// what the pool holds.
impl PartialEq for LabelPool {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes && self.offsets == other.offsets
    }
}

impl Eq for LabelPool {}

impl LabelPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        LabelPool {
            bytes: Vec::new(),
            offsets: vec![0],
            index: HashMap::new(),
        }
    }

    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the pool holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns `s`, returning its id (existing id when already present).
    pub fn intern(&mut self, s: &str) -> u32 {
        if self.index.is_empty() && !self.is_empty() {
            // Rebuild the lookup index lazily — the zero-parse load path
            // adopts bytes/offsets without paying for it up front.
            for i in 0..self.len() {
                let e = self.get(i as u32).to_owned();
                self.index.insert(e, i as u32);
            }
        }
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = self.len() as u32;
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len() as u32);
        self.index.insert(s.to_owned(), id);
        id
    }

    /// The string behind `id`.
    ///
    /// # Panics
    /// Panics for ids the pool never produced.
    #[inline]
    pub fn get(&self, id: u32) -> &str {
        let (s, e) = (
            self.offsets[id as usize] as usize,
            self.offsets[id as usize + 1] as usize,
        );
        // Spans are validated (or produced) as UTF-8 boundaries.
        std::str::from_utf8(&self.bytes[s..e]).expect("pool spans are valid UTF-8")
    }

    /// Total heap bytes held by the pool (string bytes + offsets).
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len() + self.offsets.len() * 4
    }

    /// Borrows the raw columns `(bytes, offsets)` for serialization.
    pub fn raw(&self) -> (&[u8], &[u32]) {
        (&self.bytes, &self.offsets)
    }

    /// Rebuilds a pool from raw columns, validating span structure and
    /// UTF-8 (the zero-parse load path). The intern index is *not* built
    /// here; it materializes lazily on the first [`LabelPool::intern`].
    pub fn from_raw(bytes: Vec<u8>, offsets: Vec<u32>) -> Result<Self, ArenaError> {
        if offsets.is_empty() {
            return Err(err("pool offsets must hold at least the 0 sentinel"));
        }
        if offsets[0] != 0 {
            return Err(err("pool offsets must start at 0"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(err("pool offsets must be ascending"));
        }
        if *offsets.last().expect("non-empty") as usize != bytes.len() {
            return Err(err("pool offsets must end at the byte length"));
        }
        for w in offsets.windows(2) {
            if std::str::from_utf8(&bytes[w[0] as usize..w[1] as usize]).is_err() {
                return Err(err("pool entry is not valid UTF-8"));
            }
        }
        Ok(LabelPool {
            bytes,
            offsets,
            index: HashMap::new(),
        })
    }
}

/// All graphs of one database as CSR-style flat arrays.
///
/// Per graph `g`: its name is [`LabelPool`] entry `names[g]`; its
/// vertices are the global rows `vertex_off[g] .. vertex_off[g + 1]` of
/// `vertex_labels`; its edges are the rows `edge_off[g] .. edge_off[g+1]`
/// of the `edge_u`/`edge_v`/`edge_labels` columns, with endpoints stored
/// as graph-local dense [`VertexId`]s. Labels are vocabulary ids, which
/// by construction equal their pool ids.
///
/// The arena is immutable: mutations in `gss-core::GraphDatabase`
/// copy-on-write the touched graph into an owned [`Graph`] slot and
/// leave the arena shared (behind an `Arc`) between MVCC epochs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphArena {
    /// The database-wide string pool: vocabulary labels first (in id
    /// order), then graph names.
    pool: LabelPool,
    /// Pool entries `0 .. label_count` are vocabulary labels.
    label_count: u32,
    /// Per graph: pool id of its name.
    names: Vec<u32>,
    /// `n_graphs + 1` offsets into `vertex_labels`.
    vertex_off: Vec<u32>,
    /// `n_graphs + 1` offsets into the edge columns.
    edge_off: Vec<u32>,
    /// Global vertex-label column (vocabulary ids).
    vertex_labels: Vec<u32>,
    /// Global edge endpoint column (graph-local dense vertex ids).
    edge_u: Vec<u32>,
    /// Global edge endpoint column (graph-local dense vertex ids).
    edge_v: Vec<u32>,
    /// Global edge-label column (vocabulary ids).
    edge_labels: Vec<u32>,
}

impl GraphArena {
    /// Packs pointer-rich graphs into an arena. Every label of every
    /// graph must have been interned in `vocab`.
    ///
    /// # Panics
    /// Panics when a graph references a label `vocab` does not hold —
    /// that breaks the workspace-wide shared-vocabulary invariant.
    pub fn from_graphs<'a>(
        graphs: impl IntoIterator<Item = &'a Graph>,
        vocab: &Vocabulary,
    ) -> Self {
        let mut pool = LabelPool::new();
        for (_, name) in vocab.entries() {
            pool.intern(name);
        }
        let label_count = pool.len() as u32;
        let mut arena = GraphArena {
            pool,
            label_count,
            names: Vec::new(),
            vertex_off: vec![0],
            edge_off: vec![0],
            vertex_labels: Vec::new(),
            edge_u: Vec::new(),
            edge_v: Vec::new(),
            edge_labels: Vec::new(),
        };
        for g in graphs {
            arena.names.push(arena.pool.intern(g.name()));
            for v in g.vertices() {
                let l = g.vertex_label(v).0;
                assert!(l < label_count, "graph label outside the vocabulary");
                arena.vertex_labels.push(l);
            }
            for e in g.edges() {
                let edge = g.edge(e);
                assert!(
                    edge.label.0 < label_count,
                    "edge label outside the vocabulary"
                );
                arena.edge_u.push(edge.u.0);
                arena.edge_v.push(edge.v.0);
                arena.edge_labels.push(edge.label.0);
            }
            arena.vertex_off.push(arena.vertex_labels.len() as u32);
            arena.edge_off.push(arena.edge_u.len() as u32);
        }
        arena
    }

    /// Number of graphs.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the arena holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Total edges across all graphs.
    pub fn total_edges(&self) -> usize {
        self.edge_u.len()
    }

    /// The shared string pool.
    pub fn pool(&self) -> &LabelPool {
        &self.pool
    }

    /// How many pool entries are vocabulary labels (prefix `0 .. count`).
    pub fn label_count(&self) -> u32 {
        self.label_count
    }

    /// Rebuilds the [`Vocabulary`] the arena was packed against: pool
    /// entries `0 .. label_count` interned in id order.
    pub fn rebuild_vocab(&self) -> Vocabulary {
        let mut vocab = Vocabulary::new();
        for id in 0..self.label_count {
            vocab.intern(self.pool.get(id));
        }
        vocab
    }

    /// A borrowed view of graph `idx`.
    ///
    /// # Panics
    /// Panics for out-of-range indices.
    #[inline]
    pub fn graph(&self, idx: usize) -> GraphRef<'_> {
        assert!(idx < self.len(), "arena graph index out of range");
        GraphRef { arena: self, idx }
    }

    /// Reconstructs the pointer-rich [`Graph`] behind `idx`, behaviorally
    /// identical to the graph the arena was packed from: same name, same
    /// dense vertex/edge ids, same adjacency order (adjacency rows are
    /// rebuilt in edge-insertion order, exactly as the original
    /// construction produced them).
    pub fn materialize(&self, idx: usize) -> Graph {
        let r = self.graph(idx);
        let mut g = Graph::with_capacity(r.name(), r.order(), r.size());
        for v in r.vertices() {
            g.add_vertex(r.vertex_label(v));
        }
        for e in r.edges() {
            let (u, v) = r.edge_endpoints(e);
            g.add_edge(u, v, r.edge_label(e))
                .expect("arena holds only valid simple graphs");
        }
        g
    }

    /// Total heap bytes held by the arena (pool included).
    pub fn heap_bytes(&self) -> usize {
        self.pool.heap_bytes()
            + (self.names.len()
                + self.vertex_off.len()
                + self.edge_off.len()
                + self.vertex_labels.len()
                + self.edge_u.len()
                + self.edge_v.len()
                + self.edge_labels.len())
                * 4
    }

    /// Borrows every raw column for serialization, in the fixed order
    /// `(names, vertex_off, edge_off, vertex_labels, edge_u, edge_v,
    /// edge_labels)`.
    #[allow(clippy::type_complexity)]
    pub fn raw(&self) -> (&[u32], &[u32], &[u32], &[u32], &[u32], &[u32], &[u32]) {
        (
            &self.names,
            &self.vertex_off,
            &self.edge_off,
            &self.vertex_labels,
            &self.edge_u,
            &self.edge_v,
            &self.edge_labels,
        )
    }

    /// Rebuilds an arena from raw columns, validating every structural
    /// invariant (offset monotonicity, id ranges, simple-graph shape is
    /// **not** re-checked here — materialization enforces it).
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw(
        pool: LabelPool,
        label_count: u32,
        names: Vec<u32>,
        vertex_off: Vec<u32>,
        edge_off: Vec<u32>,
        vertex_labels: Vec<u32>,
        edge_u: Vec<u32>,
        edge_v: Vec<u32>,
        edge_labels: Vec<u32>,
    ) -> Result<Self, ArenaError> {
        let n = names.len();
        if label_count as usize > pool.len() {
            return Err(err("label_count exceeds the pool"));
        }
        if vertex_off.len() != n + 1 || edge_off.len() != n + 1 {
            return Err(err("offset columns must hold n_graphs + 1 entries"));
        }
        if vertex_off[0] != 0 || edge_off[0] != 0 {
            return Err(err("offset columns must start at 0"));
        }
        if vertex_off.windows(2).any(|w| w[0] > w[1]) || edge_off.windows(2).any(|w| w[0] > w[1]) {
            return Err(err("offset columns must be ascending"));
        }
        if *vertex_off.last().expect("n+1 entries") as usize != vertex_labels.len() {
            return Err(err("vertex offsets must end at the vertex column length"));
        }
        let total_edges = *edge_off.last().expect("n+1 entries") as usize;
        if total_edges != edge_u.len()
            || total_edges != edge_v.len()
            || total_edges != edge_labels.len()
        {
            return Err(err("edge offsets must end at the edge column lengths"));
        }
        if names.iter().any(|&id| id as usize >= pool.len()) {
            return Err(err("graph name id outside the pool"));
        }
        if vertex_labels.iter().any(|&l| l >= label_count)
            || edge_labels.iter().any(|&l| l >= label_count)
        {
            return Err(err("label id outside the vocabulary prefix"));
        }
        for g in 0..n {
            let order = vertex_off[g + 1] - vertex_off[g];
            let (es, ee) = (edge_off[g] as usize, edge_off[g + 1] as usize);
            if edge_u[es..ee].iter().any(|&u| u >= order)
                || edge_v[es..ee].iter().any(|&v| v >= order)
            {
                return Err(err("edge endpoint outside its graph's vertex range"));
            }
        }
        Ok(GraphArena {
            pool,
            label_count,
            names,
            vertex_off,
            edge_off,
            vertex_labels,
            edge_u,
            edge_v,
            edge_labels,
        })
    }
}

/// A borrowed, copy-free view of one [`GraphArena`] graph.
///
/// Implements the accessor surface the prefilter, the database
/// fingerprint and [`GraphArena::materialize`] need. All accessors are
/// one or two contiguous array reads; none allocate. Neighborhood
/// iteration is not offered — adjacency is a materialization-time
/// artifact, and every consumer that walks neighborhoods (the solvers,
/// WL refinement, connectivity) runs on the materialized [`Graph`] or on
/// the precomputed [`StatsColumns`].
#[derive(Copy, Clone, Debug)]
pub struct GraphRef<'a> {
    arena: &'a GraphArena,
    idx: usize,
}

impl<'a> GraphRef<'a> {
    /// The graph's display name.
    #[inline]
    pub fn name(&self) -> &'a str {
        self.arena.pool.get(self.arena.names[self.idx])
    }

    /// Number of vertices, `|V(g)|`.
    #[inline]
    pub fn order(&self) -> usize {
        (self.arena.vertex_off[self.idx + 1] - self.arena.vertex_off[self.idx]) as usize
    }

    /// Number of edges — the paper's `|g|`.
    #[inline]
    pub fn size(&self) -> usize {
        (self.arena.edge_off[self.idx + 1] - self.arena.edge_off[self.idx]) as usize
    }

    /// The label of vertex `v` (graph-local dense id).
    #[inline]
    pub fn vertex_label(&self, v: VertexId) -> Label {
        Label(self.arena.vertex_labels[self.arena.vertex_off[self.idx] as usize + v.index()])
    }

    /// The label of edge `e` (graph-local dense id).
    #[inline]
    pub fn edge_label(&self, e: EdgeId) -> Label {
        Label(self.arena.edge_labels[self.arena.edge_off[self.idx] as usize + e.index()])
    }

    /// The endpoints of edge `e`, in insertion order (graph-local ids).
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let row = self.arena.edge_off[self.idx] as usize + e.index();
        (
            VertexId(self.arena.edge_u[row]),
            VertexId(self.arena.edge_v[row]),
        )
    }

    /// Iterates all vertex ids in order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + 'a {
        (0..self.order() as u32).map(VertexId)
    }

    /// Iterates all edge ids in order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + 'a {
        (0..self.size() as u32).map(EdgeId)
    }

    /// True when `{u, v}` is an edge — an `O(size)` column scan (the
    /// arena keeps no adjacency; solvers use the materialized graph).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (s, e) = (
            self.arena.edge_off[self.idx] as usize,
            self.arena.edge_off[self.idx + 1] as usize,
        );
        (s..e).any(|row| {
            let (a, b) = (self.arena.edge_u[row], self.arena.edge_v[row]);
            (a == u.0 && b == v.0) || (a == v.0 && b == u.0)
        })
    }
}

/// Column-oriented (struct-of-arrays) storage of every graph's
/// [`GraphStats`] summary.
///
/// Fixed-width facts are flat columns (`orders`, `sizes`,
/// `wl_fingerprints`, `connected`); variable-width facts are CSR runs:
/// the sorted degree sequence, and the three multisets as sorted
/// `(key, count)` runs (sorted by key, which is exactly the `BTreeMap`
/// iteration order of [`Multiset`], so encode → decode is lossless).
///
/// [`StatsColumns::decode`] reproduces the exact value
/// [`GraphStats::compute`] produces for the corresponding graph — the
/// WL fingerprint and connectivity flag are *stored*, not recomputed —
/// which is what lets a zero-parse load serve queries without running
/// any summary work at start-up.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsColumns {
    /// `|V|` per graph.
    orders: Vec<u32>,
    /// `|E|` per graph.
    sizes: Vec<u32>,
    /// 1-WL fingerprints ([`GraphStats::WL_ROUNDS`] rounds) per graph.
    wl_fingerprints: Vec<u64>,
    /// Connectivity flags per graph (0/1).
    connected: Vec<u8>,
    /// `n + 1` offsets into `degree_vals`.
    degree_off: Vec<u32>,
    /// Concatenated sorted (ascending) degree sequences.
    degree_vals: Vec<u32>,
    /// `n + 1` offsets into the vertex-label runs.
    vlabel_off: Vec<u32>,
    /// Vertex-label run keys (vocabulary ids, ascending per graph).
    vlabel_keys: Vec<u32>,
    /// Vertex-label run multiplicities.
    vlabel_counts: Vec<u32>,
    /// `n + 1` offsets into the edge-label runs.
    elabel_off: Vec<u32>,
    /// Edge-label run keys (vocabulary ids, ascending per graph).
    elabel_keys: Vec<u32>,
    /// Edge-label run multiplicities.
    elabel_counts: Vec<u32>,
    /// `n + 1` offsets into the edge-class runs.
    eclass_off: Vec<u32>,
    /// Edge-class run: smaller endpoint label.
    eclass_lo: Vec<u32>,
    /// Edge-class run: larger endpoint label.
    eclass_hi: Vec<u32>,
    /// Edge-class run: edge label.
    eclass_label: Vec<u32>,
    /// Edge-class run multiplicities.
    eclass_counts: Vec<u32>,
}

impl StatsColumns {
    /// Packs per-graph summaries into columns, in graph order.
    pub fn from_stats<'a>(stats: impl IntoIterator<Item = &'a GraphStats>) -> Self {
        let mut c = StatsColumns {
            degree_off: vec![0],
            vlabel_off: vec![0],
            elabel_off: vec![0],
            eclass_off: vec![0],
            ..StatsColumns::default()
        };
        for s in stats {
            c.orders.push(s.order as u32);
            c.sizes.push(s.size as u32);
            c.wl_fingerprints.push(s.wl_fingerprint);
            c.connected.push(u8::from(s.connected));
            c.degree_vals.extend(s.degrees.iter().map(|&d| d as u32));
            c.degree_off.push(c.degree_vals.len() as u32);
            for (k, n) in s.vertex_labels.iter() {
                c.vlabel_keys.push(k.0);
                c.vlabel_counts.push(n);
            }
            c.vlabel_off.push(c.vlabel_keys.len() as u32);
            for (k, n) in s.edge_labels.iter() {
                c.elabel_keys.push(k.0);
                c.elabel_counts.push(n);
            }
            c.elabel_off.push(c.elabel_keys.len() as u32);
            for (&(lo, hi, lab), n) in s.edge_classes.iter() {
                c.eclass_lo.push(lo.0);
                c.eclass_hi.push(hi.0);
                c.eclass_label.push(lab.0);
                c.eclass_counts.push(n);
            }
            c.eclass_off.push(c.eclass_lo.len() as u32);
        }
        c
    }

    /// Number of graphs summarized.
    pub fn len(&self) -> usize {
        self.orders.len()
    }

    /// True when no graphs are summarized.
    pub fn is_empty(&self) -> bool {
        self.orders.is_empty()
    }

    /// Reconstructs graph `i`'s exact [`GraphStats`] value.
    ///
    /// # Panics
    /// Panics for out-of-range indices.
    pub fn decode(&self, i: usize) -> GraphStats {
        let run = |off: &[u32]| (off[i] as usize, off[i + 1] as usize);
        let mut vertex_labels = Multiset::new();
        let (s, e) = run(&self.vlabel_off);
        for r in s..e {
            vertex_labels.insert_n(Label(self.vlabel_keys[r]), self.vlabel_counts[r]);
        }
        let mut edge_labels = Multiset::new();
        let (s, e) = run(&self.elabel_off);
        for r in s..e {
            edge_labels.insert_n(Label(self.elabel_keys[r]), self.elabel_counts[r]);
        }
        let mut edge_classes = Multiset::new();
        let (s, e) = run(&self.eclass_off);
        for r in s..e {
            edge_classes.insert_n(
                (
                    Label(self.eclass_lo[r]),
                    Label(self.eclass_hi[r]),
                    Label(self.eclass_label[r]),
                ),
                self.eclass_counts[r],
            );
        }
        let (s, e) = run(&self.degree_off);
        GraphStats {
            vertex_labels,
            edge_labels,
            edge_classes,
            degrees: self.degree_vals[s..e].iter().map(|&d| d as usize).collect(),
            order: self.orders[i] as usize,
            size: self.sizes[i] as usize,
            wl_fingerprint: self.wl_fingerprints[i],
            connected: self.connected[i] != 0,
        }
    }

    /// Total heap bytes held by the columns.
    pub fn heap_bytes(&self) -> usize {
        self.connected.len()
            + self.wl_fingerprints.len() * 8
            + (self.orders.len()
                + self.sizes.len()
                + self.degree_off.len()
                + self.degree_vals.len()
                + self.vlabel_off.len()
                + self.vlabel_keys.len()
                + self.vlabel_counts.len()
                + self.elabel_off.len()
                + self.elabel_keys.len()
                + self.elabel_counts.len()
                + self.eclass_off.len()
                + self.eclass_lo.len()
                + self.eclass_hi.len()
                + self.eclass_label.len()
                + self.eclass_counts.len())
                * 4
    }

    /// Borrows every raw column for serialization: the fixed-width
    /// columns, then each CSR family in `(offsets, values…)` order.
    #[allow(clippy::type_complexity)]
    pub fn raw(
        &self,
    ) -> (
        (&[u32], &[u32], &[u64], &[u8]),
        (&[u32], &[u32]),
        (&[u32], &[u32], &[u32]),
        (&[u32], &[u32], &[u32]),
        (&[u32], &[u32], &[u32], &[u32], &[u32]),
    ) {
        (
            (
                &self.orders,
                &self.sizes,
                &self.wl_fingerprints,
                &self.connected,
            ),
            (&self.degree_off, &self.degree_vals),
            (&self.vlabel_off, &self.vlabel_keys, &self.vlabel_counts),
            (&self.elabel_off, &self.elabel_keys, &self.elabel_counts),
            (
                &self.eclass_off,
                &self.eclass_lo,
                &self.eclass_hi,
                &self.eclass_label,
                &self.eclass_counts,
            ),
        )
    }

    /// Rebuilds columns from raw parts, validating alignment and CSR
    /// structure (the zero-parse load path).
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub fn from_raw(
        fixed: (Vec<u32>, Vec<u32>, Vec<u64>, Vec<u8>),
        degrees: (Vec<u32>, Vec<u32>),
        vlabels: (Vec<u32>, Vec<u32>, Vec<u32>),
        elabels: (Vec<u32>, Vec<u32>, Vec<u32>),
        eclasses: (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>),
    ) -> Result<Self, ArenaError> {
        let (orders, sizes, wl_fingerprints, connected) = fixed;
        let (degree_off, degree_vals) = degrees;
        let (vlabel_off, vlabel_keys, vlabel_counts) = vlabels;
        let (elabel_off, elabel_keys, elabel_counts) = elabels;
        let (eclass_off, eclass_lo, eclass_hi, eclass_label, eclass_counts) = eclasses;
        let n = orders.len();
        if sizes.len() != n || wl_fingerprints.len() != n || connected.len() != n {
            return Err(err("stats fixed columns must align"));
        }
        let csr = |off: &[u32], vals: usize, what: &str| -> Result<(), ArenaError> {
            if off.len() != n + 1 {
                return Err(err(format!("{what} offsets must hold n + 1 entries")));
            }
            if off[0] != 0 || off.windows(2).any(|w| w[0] > w[1]) {
                return Err(err(format!("{what} offsets must ascend from 0")));
            }
            if *off.last().expect("n+1 entries") as usize != vals {
                return Err(err(format!("{what} offsets must end at the value length")));
            }
            Ok(())
        };
        csr(&degree_off, degree_vals.len(), "degree")?;
        csr(&vlabel_off, vlabel_keys.len(), "vertex-label")?;
        csr(&elabel_off, elabel_keys.len(), "edge-label")?;
        csr(&eclass_off, eclass_lo.len(), "edge-class")?;
        if vlabel_counts.len() != vlabel_keys.len()
            || elabel_counts.len() != elabel_keys.len()
            || eclass_hi.len() != eclass_lo.len()
            || eclass_label.len() != eclass_lo.len()
            || eclass_counts.len() != eclass_lo.len()
        {
            return Err(err("stats run columns must align"));
        }
        Ok(StatsColumns {
            orders,
            sizes,
            wl_fingerprints,
            connected,
            degree_off,
            degree_vals,
            vlabel_off,
            vlabel_keys,
            vlabel_counts,
            elabel_off,
            elabel_keys,
            elabel_counts,
            eclass_off,
            eclass_lo,
            eclass_hi,
            eclass_label,
            eclass_counts,
        })
    }
}

/// Estimated resident heap bytes of one pointer-rich [`Graph`] with the
/// given shape: the struct itself plus its name, vertex, edge and
/// adjacency allocations. Used by the memory observability surface to
/// compare representations on equal terms (allocator slack excluded on
/// both sides).
pub fn pointer_rich_estimate(order: usize, size: usize, name_len: usize) -> usize {
    std::mem::size_of::<Graph>()
        + name_len
        + order * std::mem::size_of::<crate::graph::Vertex>()
        + size * std::mem::size_of::<crate::graph::Edge>()
        + order * std::mem::size_of::<Vec<(VertexId, EdgeId)>>()
        + 2 * size * std::mem::size_of::<(VertexId, EdgeId)>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::rng::Rng;

    fn sample() -> (Vocabulary, Vec<Graph>) {
        let mut v = Vocabulary::new();
        let g1 = GraphBuilder::new("first", &mut v)
            .vertex("a", "C")
            .vertex("b", "N")
            .vertex("c", "C")
            .edge("a", "b", "-")
            .edge("b", "c", "=")
            .build()
            .unwrap();
        let g2 = GraphBuilder::new("second", &mut v)
            .vertices(&["x", "y"], "O")
            .edge("x", "y", "-")
            .build()
            .unwrap();
        let g3 = GraphBuilder::new("empty", &mut v).build().unwrap();
        (v, vec![g1, g2, g3])
    }

    /// A seeded molecule-like graph over [`molecule_vocab`]'s labels.
    fn molecule(rng: &mut Rng, name: &str) -> Graph {
        let n = 1 + rng.gen_index(8);
        let mut g = crate::random_graph(rng, n, n + n / 2, 4, 2);
        g.set_name(name);
        g
    }

    /// The four atom and two bond labels [`molecule`] draws, in id order.
    fn molecule_vocab() -> Vocabulary {
        let mut vocab = Vocabulary::new();
        for label in ["C", "N", "O", "H", "-", "="] {
            vocab.intern(label);
        }
        vocab
    }

    #[test]
    fn pool_interns_and_deduplicates() {
        let mut p = LabelPool::new();
        let a = p.intern("C");
        let b = p.intern("-");
        assert_eq!(p.intern("C"), a);
        assert_eq!(p.get(a), "C");
        assert_eq!(p.get(b), "-");
        assert_eq!(p.len(), 2);
        let empty = p.intern("");
        assert_eq!(p.get(empty), "");
        assert_eq!(p.len(), 3);

        // Raw round trip, with the index rebuilt lazily.
        let (bytes, offsets) = p.raw();
        let mut q = LabelPool::from_raw(bytes.to_vec(), offsets.to_vec()).unwrap();
        assert_eq!(q.get(a), "C");
        assert_eq!(q.intern("C"), a, "lazy index rebuild finds old entries");
        assert_eq!(q.intern("new"), 3);
        let r = LabelPool::from_raw(bytes.to_vec(), offsets.to_vec()).unwrap();
        assert_eq!(r, p);
    }

    #[test]
    fn pool_rejects_malformed_raw_columns() {
        assert!(LabelPool::from_raw(vec![], vec![]).is_err(), "no sentinel");
        assert!(
            LabelPool::from_raw(vec![b'a'], vec![1, 1]).is_err(),
            "offset 0"
        );
        assert!(
            LabelPool::from_raw(vec![b'a', b'b'], vec![0, 2, 1]).is_err(),
            "descending"
        );
        assert!(
            LabelPool::from_raw(vec![b'a'], vec![0, 2]).is_err(),
            "past end"
        );
        assert!(
            LabelPool::from_raw(vec![0xff], vec![0, 1]).is_err(),
            "bad UTF-8"
        );
    }

    #[test]
    fn arena_views_match_source_graphs() {
        let (vocab, graphs) = sample();
        let arena = GraphArena::from_graphs(&graphs, &vocab);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.total_edges(), 3);
        for (i, g) in graphs.iter().enumerate() {
            let r = arena.graph(i);
            assert_eq!(r.name(), g.name());
            assert_eq!(r.order(), g.order());
            assert_eq!(r.size(), g.size());
            for v in g.vertices() {
                assert_eq!(r.vertex_label(v), g.vertex_label(v));
            }
            for e in g.edges() {
                let edge = g.edge(e);
                assert_eq!(r.edge_endpoints(e), (edge.u, edge.v));
                assert_eq!(r.edge_label(e), edge.label);
            }
            for u in g.vertices() {
                for v in g.vertices() {
                    assert_eq!(r.has_edge(u, v), g.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn materialize_reproduces_structure_and_adjacency_order() {
        let vocab = molecule_vocab();
        let mut rng = Rng::seed_from_u64(0xA7EA);
        for case in 0..30 {
            let graphs: Vec<Graph> = (0..4)
                .map(|i| molecule(&mut rng, &format!("g{case}x{i}")))
                .collect();
            let arena = GraphArena::from_graphs(&graphs, &vocab);
            for (i, g) in graphs.iter().enumerate() {
                let m = arena.materialize(i);
                assert_eq!(m.name(), g.name());
                assert_eq!(m.order(), g.order());
                assert_eq!(m.size(), g.size());
                for v in g.vertices() {
                    assert_eq!(m.vertex_label(v), g.vertex_label(v));
                    // Adjacency rows must match pairwise *in order* — the
                    // behavioral-identity contract.
                    let a: Vec<_> = m.neighbors(v).collect();
                    let b: Vec<_> = g.neighbors(v).collect();
                    assert_eq!(a, b, "case {case} graph {i} vertex {v:?}");
                }
                for e in g.edges() {
                    assert_eq!(m.edge(e), g.edge(e));
                }
                assert_eq!(
                    GraphStats::compute(&m),
                    GraphStats::compute(g),
                    "summaries agree"
                );
            }
        }
    }

    #[test]
    fn arena_raw_round_trip_and_validation() {
        let (vocab, graphs) = sample();
        let arena = GraphArena::from_graphs(&graphs, &vocab);
        let (names, voff, eoff, vl, eu, ev, el) = arena.raw();
        let (pb, po) = arena.pool().raw();
        let rebuilt = GraphArena::from_raw(
            LabelPool::from_raw(pb.to_vec(), po.to_vec()).unwrap(),
            arena.label_count(),
            names.to_vec(),
            voff.to_vec(),
            eoff.to_vec(),
            vl.to_vec(),
            eu.to_vec(),
            ev.to_vec(),
            el.to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, arena);

        // Each invariant violation is rejected.
        let pool = || LabelPool::from_raw(pb.to_vec(), po.to_vec()).unwrap();
        let bad = GraphArena::from_raw(
            pool(),
            arena.label_count(),
            names.to_vec(),
            voff[..voff.len() - 1].to_vec(),
            eoff.to_vec(),
            vl.to_vec(),
            eu.to_vec(),
            ev.to_vec(),
            el.to_vec(),
        );
        assert!(bad.is_err(), "short offsets");
        let mut eu2 = eu.to_vec();
        eu2[0] = 99;
        assert!(
            GraphArena::from_raw(
                pool(),
                arena.label_count(),
                names.to_vec(),
                voff.to_vec(),
                eoff.to_vec(),
                vl.to_vec(),
                eu2,
                ev.to_vec(),
                el.to_vec(),
            )
            .is_err(),
            "endpoint out of range"
        );
        let mut vl2 = vl.to_vec();
        vl2[0] = arena.label_count();
        assert!(
            GraphArena::from_raw(
                pool(),
                arena.label_count(),
                names.to_vec(),
                voff.to_vec(),
                eoff.to_vec(),
                vl2,
                eu.to_vec(),
                ev.to_vec(),
                el.to_vec(),
            )
            .is_err(),
            "label outside vocabulary"
        );
    }

    #[test]
    fn rebuild_vocab_reproduces_interning() {
        let (vocab, graphs) = sample();
        let arena = GraphArena::from_graphs(&graphs, &vocab);
        let rebuilt = arena.rebuild_vocab();
        assert_eq!(rebuilt.len(), vocab.len());
        for (l, name) in vocab.entries() {
            assert_eq!(rebuilt.name(l), Some(name));
        }
    }

    #[test]
    fn stats_columns_decode_exactly() {
        let mut rng = Rng::seed_from_u64(0x57A7);
        let graphs: Vec<Graph> = (0..25)
            .map(|i| molecule(&mut rng, &format!("g{i}")))
            .collect();
        let stats: Vec<GraphStats> = graphs.iter().map(GraphStats::compute).collect();
        let cols = StatsColumns::from_stats(&stats);
        assert_eq!(cols.len(), graphs.len());
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(&cols.decode(i), s, "graph {i} decodes to the exact value");
        }

        // Raw round trip preserves content.
        let (fixed, deg, vl, el, ec) = cols.raw();
        let rebuilt = StatsColumns::from_raw(
            (
                fixed.0.to_vec(),
                fixed.1.to_vec(),
                fixed.2.to_vec(),
                fixed.3.to_vec(),
            ),
            (deg.0.to_vec(), deg.1.to_vec()),
            (vl.0.to_vec(), vl.1.to_vec(), vl.2.to_vec()),
            (el.0.to_vec(), el.1.to_vec(), el.2.to_vec()),
            (
                ec.0.to_vec(),
                ec.1.to_vec(),
                ec.2.to_vec(),
                ec.3.to_vec(),
                ec.4.to_vec(),
            ),
        )
        .unwrap();
        assert_eq!(rebuilt, cols);

        // Misaligned raw columns are rejected.
        assert!(
            StatsColumns::from_raw(
                (fixed.0.to_vec(), vec![], fixed.2.to_vec(), fixed.3.to_vec()),
                (deg.0.to_vec(), deg.1.to_vec()),
                (vl.0.to_vec(), vl.1.to_vec(), vl.2.to_vec()),
                (el.0.to_vec(), el.1.to_vec(), el.2.to_vec()),
                (
                    ec.0.to_vec(),
                    ec.1.to_vec(),
                    ec.2.to_vec(),
                    ec.3.to_vec(),
                    ec.4.to_vec(),
                ),
            )
            .is_err(),
            "misaligned sizes column"
        );
    }

    #[test]
    fn compaction_beats_pointer_rich_memory() {
        let vocab = molecule_vocab();
        let mut rng = Rng::seed_from_u64(0xBEEF);
        let graphs: Vec<Graph> = (0..50)
            .map(|i| molecule(&mut rng, &format!("mol{i:03}")))
            .collect();
        let arena = GraphArena::from_graphs(&graphs, &vocab);
        let pointer_rich: usize = graphs
            .iter()
            .map(|g| crate::arena::pointer_rich_estimate(g.order(), g.size(), g.name().len()))
            .sum();
        assert!(
            arena.heap_bytes() * 10 < pointer_rich * 6,
            "arena {} must be ≤ 60% of pointer-rich {}",
            arena.heap_bytes(),
            pointer_rich
        );
    }
}
