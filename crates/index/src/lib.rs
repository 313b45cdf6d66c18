//! # gss-index — a pivot-based metric index for similarity skyline scans
//!
//! PR 1's filter-and-verify pipeline still touches every database graph to
//! compute per-candidate lower bounds. This crate removes that linear
//! factor from the hot path, following the metric-indexing playbook of the
//! PM-tree metric skyline and MSQ-Index lines of work:
//!
//! * **Build time** ([`PivotIndex::build`]): select `k` pivot graphs with
//!   the maxmin (farthest-point) heuristic under exact uniform GED,
//!   precompute every database graph's exact GED to every pivot, and store
//!   the graphs in **distance-ring partitions** (nearest pivot × distance
//!   quantile). Each partition additionally records label-multiset and
//!   edge-class *envelopes* (per-key maxima over its members) and its
//!   member size ranges.
//! * **Query time** ([`gss_core::QueryIndex::plan`]): `k` cheap probes
//!   bracket the query's GED to each pivot (admissible lower bound +
//!   bipartite upper bound — **no exact solver runs**), and every partition
//!   gets a per-measure lower-bound vector valid for all of its members.
//!   The plan feeds the staged executor's candidate-source stage
//!   (`gss_core::exec`, `Plan::Indexed`): partitions are visited in
//!   [`gss_core::IndexPlan::most_promising_order`] and whole partitions
//!   whose vector is dominated by a verified point are skipped without
//!   touching their members.
//!
//! # Which dimensions get triangle bounds
//!
//! Only the GED-derived measures (`DistEd`, `DistN-Ed`). Uniform GED is a
//! true metric (edit scripts compose), and `x ↦ x/(1+x)` preserves
//! metricity. The MCS-based measures do **not** satisfy the triangle
//! inequality for the *connected* MCS this workspace uses, despite the
//! classic Bunke–Shearer result for the unconstrained MCS. Counterexample
//! on a 6-cycle `C6` with distinct vertex labels: let `g2 = C6` and let
//! `g1`, `g3` be the 5-edge paths obtained by deleting opposite-ish edges
//! `e6` and `e3`. Then `DistMcs(g1, g2) = DistMcs(g2, g3) = 1/6`, but the
//! largest **connected** common subgraph of `g1` and `g3` has only 2 of
//! their 5 edges (their 4 shared edges form two separate arcs), so
//! `DistMcs(g1, g3) = 3/5 > 1/6 + 1/6`. The MCS dimensions (and the
//! non-metric label-histogram measure) therefore use **envelope bounds**
//! instead: a partition's edge-class envelope upper-bounds every member's
//! common-subgraph size against any query, which lower-bounds `DistMcs`
//! and `DistGu` for the whole partition.
//!
//! Both bound families are admissible against the exact distances, so
//! the indexed scan is provably answer-identical to the naive scan
//! (property-tested in `tests/index_pipeline.rs`).
//!
//! # Incremental maintenance (live databases)
//!
//! A built index does not have to be thrown away when the database
//! mutates. [`PivotIndex::apply_batch`] absorbs one `gss-store` mutation
//! batch **without running the exact solvers**: the per-graph distance
//! table stores an admissible `[lower, upper]` GED *bracket* per pivot
//! (exact builds have `lower == upper`), inserted/updated graphs get
//! their bracket from the same cheap probe bounds the query path uses,
//! and removals tombstone the member out of its partition while the
//! partition's rings and envelopes stay behind as valid-but-looser
//! bounds. A ring `[min, max]` is maintained as (min of member lower
//! bounds, max of member upper bounds), which keeps the triangle bound
//! `max(lo_q − ring_max, ring_min − hi_q)` admissible for every member.
//! Removing or replacing a **pivot** graph falls back to a full exact
//! rebuild — the one case incremental absorption cannot cover.
//!
//! Absorbed operations accumulate as staleness ([`PivotIndex::stale_ops`]).
//! When the caller's budget is exceeded, [`PivotIndex::partial_rebuild`]
//! re-assigns members to their nearest pivot and re-quantiles the
//! distance rings from the *stored* brackets — no exact GED — restoring
//! partition tightness at a fraction of the build cost. Because every
//! maintained bound stays admissible, queries through an incrementally
//! maintained index return skylines and witnesses **byte-identical** to a
//! from-scratch rebuild at every epoch (property-tested in
//! `tests/store_incremental.rs`).
//!
//! ```
//! use std::sync::Arc;
//! use gss_core::{graph_similarity_skyline, GraphDatabase, QueryOptions};
//! use gss_index::{PivotIndex, PivotIndexConfig};
//!
//! let mut db = GraphDatabase::new();
//! db.add("path", |b| b.vertices(&["x", "y", "z"], "C").path(&["x", "y", "z"], "-")).unwrap();
//! db.add("tri", |b| b.vertices(&["x", "y", "z"], "C").cycle(&["x", "y", "z"], "-")).unwrap();
//! let q = db.build_query("q", |b| b.vertices(&["x", "y", "z"], "C").path(&["x", "y", "z"], "-")).unwrap();
//!
//! let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig::default()));
//! let options = QueryOptions::default().with_index(index);
//! let result = graph_similarity_skyline(&db, &q, &options);
//! assert_eq!(result.skyline[0].index(), 0);
//! ```

#![warn(missing_docs)]

mod serialize;

use gss_core::database::{GraphDatabase, GraphId};
use gss_core::index::{IndexPartition, IndexPlan, QueryIndex};
use gss_core::measures::{GcsVector, MeasureKind};
use gss_ged::bipartite::bipartite_ged;
use gss_ged::CostModel;
use gss_graph::stats::{
    edge_class_multiset, edge_label_multiset, vertex_label_multiset, EdgeClass, Multiset,
};
use gss_graph::{Graph, Label};

pub use serialize::IndexError;

/// Build-time knobs for [`PivotIndex::build`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PivotIndexConfig {
    /// Number of pivot graphs (maxmin-selected). The build runs
    /// `pivots × |D|` exact GED computations; more pivots give tighter
    /// triangle bounds and finer partitions at higher build cost.
    pub pivots: usize,
    /// Distance rings per pivot cell: members of a cell are split into this
    /// many distance quantiles. More rings mean smaller partitions with
    /// tighter bounds but more partitions to test per query.
    pub rings: usize,
}

impl Default for PivotIndexConfig {
    fn default() -> Self {
        PivotIndexConfig {
            pivots: 4,
            rings: 3,
        }
    }
}

/// One distance-ring partition and its precomputed pruning data.
///
/// The ring table is column-oriented: `ring_lo[j]`/`ring_hi[j]` hold the
/// per-pivot `[min, max]` of members' GED brackets as two flat `f64`
/// columns. The query-time triangle bound streams both columns in lockstep,
/// so struct-of-arrays keeps that inner loop on contiguous memory (the
/// on-disk format still interleaves pairs; see `serialize.rs`).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Partition {
    /// Member graph ids, ascending.
    pub members: Vec<u32>,
    /// Per-pivot minimum of members' GED lower bounds to that pivot.
    pub ring_lo: Vec<f64>,
    /// Per-pivot maximum of members' GED upper bounds to that pivot.
    pub ring_hi: Vec<f64>,
    /// Per-key maximum of members' vertex-label multisets.
    pub vertex_env: Multiset<Label>,
    /// Per-key maximum of members' edge-label multisets.
    pub edge_env: Multiset<Label>,
    /// Per-key maximum of members' edge-class multisets.
    pub class_env: Multiset<EdgeClass>,
    /// Range of members' vertex counts.
    pub order_range: (usize, usize),
    /// Range of members' edge counts.
    pub size_range: (usize, usize),
}

/// The pivot-based metric index over one [`GraphDatabase`].
///
/// Built once per database ([`PivotIndex::build`]), shared across queries
/// and threads (attach with [`gss_core::QueryOptions::with_index`]), and
/// persistable through the versioned binary format
/// ([`PivotIndex::to_bytes`] / [`PivotIndex::from_bytes`]). A loaded index
/// refuses to plan against a database whose [`GraphDatabase::fingerprint`]
/// differs from the one it was built on.
#[derive(Clone, Debug, PartialEq)]
pub struct PivotIndex {
    pub(crate) db_len: usize,
    pub(crate) db_fingerprint: u64,
    pub(crate) config: PivotIndexConfig,
    /// Chosen pivot graph ids (may be fewer than `config.pivots` when the
    /// database is small or collapses onto the pivots).
    pub(crate) pivot_ids: Vec<u32>,
    /// Admissible *lower* bound on every graph's GED to every pivot,
    /// row-major (`dist[g * k + j]`). Exact for graphs present at build
    /// time; a probe lower bound for incrementally absorbed graphs.
    pub(crate) pivot_dists: Vec<f64>,
    /// Matching *upper* bounds (equal to [`PivotIndex::pivot_dists`] for
    /// exactly-built graphs; the bipartite upper bound for absorbed ones).
    pub(crate) pivot_dists_hi: Vec<f64>,
    pub(crate) partitions: Vec<Partition>,
    /// Mutation operations absorbed since the last full or partial
    /// rebuild.
    pub(crate) stale_ops: u64,
    /// Partial rebuilds performed over this index's lifetime.
    pub(crate) partial_rebuilds: u64,
}

impl PivotIndex {
    /// Builds the index: maxmin pivot selection, exact GED distance table,
    /// distance-ring partitions with envelopes. Deterministic in the
    /// database order. Cost: `pivots × |D|` exact GED computations.
    pub fn build(db: &GraphDatabase, config: &PivotIndexConfig) -> PivotIndex {
        let n = db.len();
        let k_wanted = config.pivots.max(1).min(n.max(1));
        let rings = config.rings.max(1);

        // Maxmin (farthest-point) pivot selection under exact GED. The
        // first pivot is graph 0 (any deterministic seed works); each next
        // pivot maximizes its minimum distance to the chosen set, so the
        // pivots spread across the database's metric extent. Rows computed
        // during selection *are* the final distance table.
        let mut pivot_ids: Vec<u32> = Vec::new();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut min_dist = vec![f64::INFINITY; n];
        let mut next = 0usize;
        while pivot_ids.len() < k_wanted && n > 0 {
            pivot_ids.push(next as u32);
            let pivot = db.get(GraphId(next));
            let row: Vec<f64> = (0..n)
                .map(|g| {
                    if g == next {
                        0.0
                    } else {
                        gss_ged::ged(db.get(GraphId(g)), pivot)
                    }
                })
                .collect();
            for (g, &d) in row.iter().enumerate() {
                if d < min_dist[g] {
                    min_dist[g] = d;
                }
            }
            rows.push(row);
            // Farthest remaining graph; a maximum of zero means every graph
            // is isomorphic to some pivot — more pivots add nothing.
            let far = (0..n).max_by(|&a, &b| {
                min_dist[a]
                    .partial_cmp(&min_dist[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a)) // prefer the smaller id on ties
            });
            match far {
                Some(g) if min_dist[g] > 0.0 => next = g,
                _ => break,
            }
        }
        let k = pivot_ids.len();

        // Row-major per-graph distance vectors.
        let mut pivot_dists = vec![0.0f64; n * k];
        for (j, row) in rows.iter().enumerate() {
            for g in 0..n {
                pivot_dists[g * k + j] = row[g];
            }
        }

        // Assign each graph to its nearest pivot (ties to the lower pivot
        // index), then split each cell into `rings` distance quantiles.
        let mut cells: Vec<Vec<usize>> = vec![Vec::new(); k.max(1)];
        for g in 0..n {
            let mut best = 0usize;
            for j in 1..k {
                if pivot_dists[g * k + j] < pivot_dists[g * k + best] {
                    best = j;
                }
            }
            cells[best].push(g);
        }
        let mut partitions = Vec::new();
        for (j, mut cell) in cells.into_iter().enumerate() {
            cell.sort_by(|&a, &b| {
                pivot_dists[a * k + j]
                    .partial_cmp(&pivot_dists[b * k + j])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let buckets = rings.min(cell.len().max(1));
            for r in 0..buckets {
                let lo = r * cell.len() / buckets;
                let hi = (r + 1) * cell.len() / buckets;
                if lo < hi {
                    partitions.push(Self::summarize_partition(
                        db,
                        &cell[lo..hi],
                        k,
                        &pivot_dists,
                        &pivot_dists,
                    ));
                }
            }
        }

        PivotIndex {
            db_len: n,
            db_fingerprint: db.fingerprint(),
            config: PivotIndexConfig {
                pivots: config.pivots,
                rings,
            },
            pivot_ids,
            pivot_dists_hi: pivot_dists.clone(),
            pivot_dists,
            partitions,
            stale_ops: 0,
            partial_rebuilds: 0,
        }
    }

    fn summarize_partition(
        db: &GraphDatabase,
        members: &[usize],
        k: usize,
        dists_lo: &[f64],
        dists_hi: &[f64],
    ) -> Partition {
        let mut ids: Vec<u32> = members.iter().map(|&g| g as u32).collect();
        ids.sort_unstable();
        let mut ring_lo = vec![f64::INFINITY; k];
        let mut ring_hi = vec![f64::NEG_INFINITY; k];
        let mut vertex_env = Multiset::new();
        let mut edge_env = Multiset::new();
        let mut class_env = Multiset::new();
        let mut order_range = (usize::MAX, 0usize);
        let mut size_range = (usize::MAX, 0usize);
        for &g in members {
            for j in 0..k {
                ring_lo[j] = ring_lo[j].min(dists_lo[g * k + j]);
                ring_hi[j] = ring_hi[j].max(dists_hi[g * k + j]);
            }
            let graph = db.get(GraphId(g));
            vertex_env.max_union(&vertex_label_multiset(graph));
            edge_env.max_union(&edge_label_multiset(graph));
            class_env.max_union(&edge_class_multiset(graph));
            order_range.0 = order_range.0.min(graph.order());
            order_range.1 = order_range.1.max(graph.order());
            size_range.0 = size_range.0.min(graph.size());
            size_range.1 = size_range.1.max(graph.size());
        }
        Partition {
            members: ids,
            ring_lo,
            ring_hi,
            vertex_env,
            edge_env,
            class_env,
            order_range,
            size_range,
        }
    }

    /// Checks that this index belongs to `db` (length and structural
    /// fingerprint). [`QueryIndex::plan`] panics on mismatch; callers that
    /// load indexes from disk should surface this error instead.
    pub fn validate(&self, db: &GraphDatabase) -> Result<(), IndexError> {
        if db.len() != self.db_len || db.fingerprint() != self.db_fingerprint {
            return Err(IndexError::DatabaseMismatch {
                index_graphs: self.db_len,
                db_graphs: db.len(),
            });
        }
        Ok(())
    }

    /// Number of database graphs the index was built over.
    pub fn len(&self) -> usize {
        self.db_len
    }

    /// True when the index covers an empty database.
    pub fn is_empty(&self) -> bool {
        self.db_len == 0
    }

    /// The chosen pivot graphs.
    pub fn pivots(&self) -> Vec<GraphId> {
        self.pivot_ids
            .iter()
            .map(|&p| GraphId(p as usize))
            .collect()
    }

    /// Number of distance-ring partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The fingerprint of the database the index was built on.
    pub fn database_fingerprint(&self) -> u64 {
        self.db_fingerprint
    }

    /// The build configuration.
    pub fn config(&self) -> PivotIndexConfig {
        self.config
    }
}

/// How [`PivotIndex::apply_batch`] absorbed a mutation batch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MaintenanceOutcome {
    /// Every operation was absorbed in place via cheap probe bounds.
    Incremental,
    /// A pivot graph was removed or replaced (or the index had no pivots
    /// yet), so the index ran a full exact rebuild.
    Rebuilt,
}

impl PivotIndex {
    /// Admissible GED bracket of `graph` against a pivot from probe bounds
    /// alone — the same bounds the query path uses, no exact solver.
    fn bracket(graph: &Graph, pivot: &Graph) -> (f64, f64) {
        let size_diff = graph.size().abs_diff(pivot.size()) as f64;
        let lo = gss_ged::combined_lower_bound(graph, pivot).max(size_diff);
        let hi = bipartite_ged(graph, pivot, &CostModel::uniform()).cost;
        (lo, hi)
    }

    /// Mutation operations absorbed since the last full or partial
    /// rebuild — the staleness a maintenance budget is tracked against.
    /// Absorbed operations loosen bounds (probe brackets instead of exact
    /// distances, tombstoned rings) but never break admissibility.
    pub fn stale_ops(&self) -> u64 {
        self.stale_ops
    }

    /// Number of [`PivotIndex::partial_rebuild`] passes run over this
    /// index's lifetime (surviving full rebuilds, for observability).
    pub fn partial_rebuilds(&self) -> u64 {
        self.partial_rebuilds
    }

    /// Absorbs one mutation batch, transforming an index valid for the
    /// pre-batch database into one valid for `db` (the **post-batch**
    /// database) without running the exact solvers.
    ///
    /// The batch follows the `gss-store` apply order — removals first,
    /// then in-place updates, then appends:
    ///
    /// * `removed` — pre-batch ids taken out (any order; ids above each
    ///   removal shift down by one, matching the dense-id compaction of
    ///   `GraphDatabase`),
    /// * `updated` — **post-removal** ids whose graph content was replaced
    ///   in place,
    /// * `inserted` — how many graphs were appended at the tail of `db`.
    ///
    /// Inserted and updated graphs get probe-bound brackets and join the
    /// existing partition that needs the least ring expansion; removed
    /// graphs are tombstoned out (their partition's rings and envelopes
    /// stay behind as valid-but-looser bounds). Removing or replacing a
    /// pivot falls back to [`PivotIndex::build`] and reports
    /// [`MaintenanceOutcome::Rebuilt`].
    pub fn apply_batch(
        &mut self,
        db: &GraphDatabase,
        removed: &[usize],
        updated: &[usize],
        inserted: usize,
    ) -> MaintenanceOutcome {
        // Removals, descending so earlier shifts cannot disturb later ids.
        let mut removals: Vec<usize> = removed.to_vec();
        removals.sort_unstable_by(|a, b| b.cmp(a));
        removals.dedup();

        // A removed pivot invalidates a whole distance-table column; an
        // updated pivot invalidates it too (updates keep their id, and
        // removals shift later ids down — map each surviving pivot through
        // the removals before comparing).
        let removed_pivot = removals
            .iter()
            .any(|&g| self.pivot_ids.iter().any(|&p| p as usize == g));
        let shifted_pivot = |p: u32| {
            let below = removals.iter().filter(|&&r| r < p as usize).count();
            p as usize - below
        };
        let updated_pivot = updated
            .iter()
            .any(|&g| self.pivot_ids.iter().any(|&p| shifted_pivot(p) == g));
        if removed_pivot || updated_pivot || (self.pivot_ids.is_empty() && !db.is_empty()) {
            let keep = self.partial_rebuilds;
            *self = PivotIndex::build(db, &self.config);
            self.partial_rebuilds = keep;
            return MaintenanceOutcome::Rebuilt;
        }

        let k = self.pivot_ids.len();

        for &g in &removals {
            self.detach(g);
            self.pivot_dists.drain(g * k..(g + 1) * k);
            self.pivot_dists_hi.drain(g * k..(g + 1) * k);
            for part in &mut self.partitions {
                for m in &mut part.members {
                    if *m as usize > g {
                        *m -= 1;
                    }
                }
            }
            for p in &mut self.pivot_ids {
                if *p as usize > g {
                    *p -= 1;
                }
            }
        }

        // In-place updates: re-bracket, then migrate to the best partition
        // (the old partition keeps its looser summary).
        for &g in updated {
            self.detach(g);
            let bracket = self.bracket_row(db, g);
            for (j, &(lo, hi)) in bracket.iter().enumerate() {
                self.pivot_dists[g * k + j] = lo;
                self.pivot_dists_hi[g * k + j] = hi;
            }
            self.attach(db, g, &bracket);
        }

        // Appends.
        for g in db.len().saturating_sub(inserted)..db.len() {
            let bracket = self.bracket_row(db, g);
            for &(lo, hi) in &bracket {
                self.pivot_dists.push(lo);
                self.pivot_dists_hi.push(hi);
            }
            self.attach(db, g, &bracket);
        }

        self.db_len = db.len();
        self.db_fingerprint = db.fingerprint();
        self.stale_ops += (removals.len() + updated.len() + inserted) as u64;
        MaintenanceOutcome::Incremental
    }

    /// Re-partitions from the stored distance brackets — no exact GED:
    /// members are re-assigned to their nearest pivot (by upper bound) and
    /// each cell is re-quantiled into distance rings with envelopes
    /// re-summarized from the live graphs. This undoes the bound slack
    /// tombstones and migrations accumulate; call it when
    /// [`PivotIndex::stale_ops`] exceeds the maintenance budget. Resets
    /// the staleness counter and bumps [`PivotIndex::partial_rebuilds`].
    pub fn partial_rebuild(&mut self, db: &GraphDatabase) {
        let n = self.db_len;
        let k = self.pivot_ids.len();
        debug_assert_eq!(n, db.len(), "partial rebuild against a foreign database");
        let mut cells: Vec<Vec<usize>> = vec![Vec::new(); k.max(1)];
        for g in 0..n {
            let mut best = 0usize;
            for j in 1..k {
                if self.pivot_dists_hi[g * k + j] < self.pivot_dists_hi[g * k + best] {
                    best = j;
                }
            }
            cells[best].push(g);
        }
        let rings = self.config.rings.max(1);
        let mut partitions = Vec::new();
        for (j, mut cell) in cells.into_iter().enumerate() {
            if k > 0 {
                cell.sort_by(|&a, &b| {
                    self.pivot_dists[a * k + j]
                        .partial_cmp(&self.pivot_dists[b * k + j])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            }
            let buckets = rings.min(cell.len().max(1));
            for r in 0..buckets {
                let lo = r * cell.len() / buckets;
                let hi = (r + 1) * cell.len() / buckets;
                if lo < hi {
                    partitions.push(Self::summarize_partition(
                        db,
                        &cell[lo..hi],
                        k,
                        &self.pivot_dists,
                        &self.pivot_dists_hi,
                    ));
                }
            }
        }
        self.partitions = partitions;
        self.stale_ops = 0;
        self.partial_rebuilds += 1;
    }

    /// The probe-bound bracket of graph `g` against every pivot.
    fn bracket_row(&self, db: &GraphDatabase, g: usize) -> Vec<(f64, f64)> {
        let graph = db.get(GraphId(g));
        self.pivot_ids
            .iter()
            .map(|&p| Self::bracket(graph, db.get(GraphId(p as usize))))
            .collect()
    }

    /// Removes graph `g` from its partition, dropping the partition when
    /// it empties. Returns whether the member was found.
    fn detach(&mut self, g: usize) -> bool {
        let id = g as u32;
        let mut hit = None;
        for (pi, part) in self.partitions.iter_mut().enumerate() {
            if let Ok(pos) = part.members.binary_search(&id) {
                part.members.remove(pos);
                hit = Some(pi);
                break;
            }
        }
        match hit {
            Some(pi) => {
                if self.partitions[pi].members.is_empty() {
                    self.partitions.remove(pi);
                }
                true
            }
            None => false,
        }
    }

    /// Adds graph `g` (with its per-pivot bracket) to the partition whose
    /// ring at `g`'s nearest pivot needs the least expansion, widening
    /// that partition's rings, envelopes and ranges to cover it. Creates
    /// the first partition when none exist.
    fn attach(&mut self, db: &GraphDatabase, g: usize, bracket: &[(f64, f64)]) {
        let graph = db.get(GraphId(g));
        if self.partitions.is_empty() {
            self.partitions.push(Partition {
                members: vec![g as u32],
                ring_lo: bracket.iter().map(|&(lo, _)| lo).collect(),
                ring_hi: bracket.iter().map(|&(_, hi)| hi).collect(),
                vertex_env: vertex_label_multiset(graph),
                edge_env: edge_label_multiset(graph),
                class_env: edge_class_multiset(graph),
                order_range: (graph.order(), graph.order()),
                size_range: (graph.size(), graph.size()),
            });
            return;
        }
        let k = bracket.len();
        let near = (0..k)
            .min_by(|&a, &b| {
                bracket[a]
                    .1
                    .partial_cmp(&bracket[b].1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
            .unwrap_or(0);
        let expansion = |part: &Partition| -> f64 {
            if k == 0 {
                return 0.0;
            }
            let (ring_min, ring_max) = (part.ring_lo[near], part.ring_hi[near]);
            let (lo, hi) = bracket[near];
            (ring_min - lo).max(0.0) + (hi - ring_max).max(0.0)
        };
        let best = self
            .partitions
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| {
                expansion(a)
                    .partial_cmp(&expansion(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ia.cmp(ib))
            })
            .map(|(i, _)| i)
            .expect("partitions checked nonempty");
        let part = &mut self.partitions[best];
        let id = g as u32;
        if let Err(pos) = part.members.binary_search(&id) {
            part.members.insert(pos, id);
        }
        for (j, &(lo, hi)) in bracket.iter().enumerate() {
            part.ring_lo[j] = part.ring_lo[j].min(lo);
            part.ring_hi[j] = part.ring_hi[j].max(hi);
        }
        part.vertex_env.max_union(&vertex_label_multiset(graph));
        part.edge_env.max_union(&edge_label_multiset(graph));
        part.class_env.max_union(&edge_class_multiset(graph));
        part.order_range.0 = part.order_range.0.min(graph.order());
        part.order_range.1 = part.order_range.1.max(graph.order());
        part.size_range.0 = part.size_range.0.min(graph.size());
        part.size_range.1 = part.size_range.1.max(graph.size());
    }
}

/// The query-side view of one plan: probe results and query invariants.
struct Probe {
    /// Per pivot: admissible lower and (bipartite) upper bound on the
    /// query's exact GED to that pivot.
    ged_bracket: Vec<(f64, f64)>,
    vertex_labels: Multiset<Label>,
    edge_labels: Multiset<Label>,
    edge_classes: Multiset<EdgeClass>,
    order: usize,
    size: usize,
    label_total: u32,
}

impl PivotIndex {
    fn probe(&self, db: &GraphDatabase, query: &Graph) -> Probe {
        let cost = CostModel::uniform();
        let ged_bracket = self
            .pivot_ids
            .iter()
            .map(|&p| {
                let pivot = db.get(GraphId(p as usize));
                let size_diff = query.size().abs_diff(pivot.size()) as f64;
                let lo = gss_ged::combined_lower_bound(query, pivot).max(size_diff);
                let hi = bipartite_ged(query, pivot, &cost).cost;
                (lo, hi)
            })
            .collect();
        let vertex_labels = vertex_label_multiset(query);
        let edge_labels = edge_label_multiset(query);
        let label_total = vertex_labels.total() + edge_labels.total();
        Probe {
            ged_bracket,
            vertex_labels,
            edge_labels,
            edge_classes: edge_class_multiset(query),
            order: query.order(),
            size: query.size(),
            label_total,
        }
    }

    /// The admissible per-measure lower-bound vector of one partition.
    fn partition_bound(
        &self,
        part: &Partition,
        probe: &Probe,
        measures: &[MeasureKind],
    ) -> GcsVector {
        // Triangle bound on exact GED, per pivot: for every member g,
        //   ged(g, q) ≥ ged(q, p) − ged(g, p) ≥ lo_p − ring_max, and
        //   ged(g, q) ≥ ged(g, p) − ged(q, p) ≥ ring_min − hi_p.
        let mut tri: f64 = 0.0;
        for (j, &(lo, hi)) in probe.ged_bracket.iter().enumerate() {
            tri = tri.max(lo - part.ring_hi[j]).max(part.ring_lo[j] - hi);
        }
        // Envelope bound on GED: every member must align the query's
        // vertex and edge label multisets, and it can match at most what
        // the partition envelope matches.
        let v_align = (part.order_range.0.max(probe.order) as u32)
            .saturating_sub(part.vertex_env.intersection_size(&probe.vertex_labels));
        let e_align = (part.size_range.0.max(probe.size) as u32)
            .saturating_sub(part.edge_env.intersection_size(&probe.edge_labels));
        let ged_bound = tri.max(f64::from(v_align + e_align)).max(0.0);

        // Envelope bound on the common-subgraph size: any member's common
        // subgraph with the query has at most `env ∩ q` edges.
        let env_mcs = f64::from(part.class_env.intersection_size(&probe.edge_classes));
        let min_size = part.size_range.0;
        let mcs_denom = min_size.max(probe.size) as f64;
        let mcs_bound = if mcs_denom == 0.0 {
            0.0
        } else {
            (1.0 - env_mcs / mcs_denom).max(0.0)
        };
        let gu_denom = (min_size + probe.size) as f64 - env_mcs;
        let gu_bound = if gu_denom <= 0.0 {
            mcs_bound
        } else {
            // DistGu ≥ DistMcs always (Section IV-C of the paper), so the
            // Gu dimension keeps at least the Mcs bound.
            ((1.0 - env_mcs / gu_denom).max(0.0)).max(mcs_bound)
        };

        // Label-histogram deficit: occurrences the query demands that no
        // member can supply, over an upper bound on the pair label total.
        let deficit = multiset_deficit(&probe.vertex_labels, &part.vertex_env)
            + multiset_deficit(&probe.edge_labels, &part.edge_env);
        let lh_total =
            f64::from(probe.label_total) + (part.order_range.1 + part.size_range.1) as f64;
        let lh_bound = if lh_total == 0.0 {
            0.0
        } else {
            f64::from(deficit) / lh_total
        };

        GcsVector {
            values: measures
                .iter()
                .map(|m| match m {
                    MeasureKind::EditDistance => ged_bound,
                    MeasureKind::NormalizedEditDistance => ged_bound / (1.0 + ged_bound),
                    MeasureKind::Mcs => mcs_bound,
                    MeasureKind::Gu => gu_bound,
                    MeasureKind::LabelHistogram => lh_bound,
                })
                .collect(),
        }
    }
}

/// `Σ_key max(0, a[key] − b[key])`: the occurrences of `a` that `b` cannot
/// match.
fn multiset_deficit<K: Ord + Copy>(a: &Multiset<K>, b: &Multiset<K>) -> u32 {
    a.iter().map(|(k, c)| c.saturating_sub(b.count(k))).sum()
}

impl QueryIndex for PivotIndex {
    fn plan(&self, db: &GraphDatabase, query: &Graph, measures: &[MeasureKind]) -> IndexPlan {
        if let Err(e) = self.validate(db) {
            panic!("pivot index does not match the database: {e}");
        }
        let probe = self.probe(db, query);
        let partitions = self
            .partitions
            .iter()
            .map(|p| IndexPartition {
                members: p.members.iter().map(|&g| GraphId(g as usize)).collect(),
                bound: self.partition_bound(p, &probe, measures),
            })
            .collect();
        IndexPlan {
            partitions,
            pivot_probes: self.pivot_ids.len(),
        }
    }

    fn describe(&self) -> String {
        format!(
            "pivot index: {} pivots, {} partitions over {} graphs (rings {})",
            self.pivot_ids.len(),
            self.partitions.len(),
            self.db_len,
            self.config.rings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::measures::{compute_primitives, SolverConfig};
    use gss_core::{graph_similarity_skyline, Plan, QueryOptions};
    use gss_datasets::paper::figure3_database;
    use std::sync::Arc;

    /// Options that query through `index`.
    fn indexed(index: PivotIndex) -> QueryOptions {
        QueryOptions::default()
            .with_index(Arc::new(index))
            .with_plan(Plan::Indexed)
    }

    fn paper_db() -> (GraphDatabase, Graph) {
        let data = figure3_database();
        (
            GraphDatabase::from_parts(data.vocab, data.graphs),
            data.query,
        )
    }

    #[test]
    fn build_is_deterministic_and_covers_the_database() {
        let (db, _) = paper_db();
        let a = PivotIndex::build(&db, &PivotIndexConfig::default());
        let b = PivotIndex::build(&db, &PivotIndexConfig::default());
        assert_eq!(a, b);
        let mut seen: Vec<u32> = a
            .partitions
            .iter()
            .flat_map(|p| p.members.clone())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..db.len() as u32).collect::<Vec<_>>());
        assert!(!a.pivot_ids.is_empty());
        assert!(a.pivot_ids.len() <= 4);
    }

    #[test]
    fn maxmin_pivots_are_distinct_and_spread() {
        let (db, _) = paper_db();
        let idx = PivotIndex::build(
            &db,
            &PivotIndexConfig {
                pivots: 3,
                rings: 2,
            },
        );
        let mut ids = idx.pivot_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), idx.pivot_ids.len(), "pivots must be distinct");
        // Every later pivot is at nonzero GED from every earlier pivot.
        let k = idx.pivot_ids.len();
        for a_pos in 0..k {
            for &b in &idx.pivot_ids[a_pos + 1..] {
                assert!(idx.pivot_dists[(b as usize) * k + a_pos] > 0.0);
            }
        }
    }

    #[test]
    fn partition_bounds_are_admissible_on_paper_data() {
        let (db, q) = paper_db();
        let idx = PivotIndex::build(
            &db,
            &PivotIndexConfig {
                pivots: 3,
                rings: 3,
            },
        );
        let measures = [
            MeasureKind::EditDistance,
            MeasureKind::NormalizedEditDistance,
            MeasureKind::Mcs,
            MeasureKind::Gu,
            MeasureKind::LabelHistogram,
        ];
        let plan = idx.plan(&db, &q, &measures);
        assert_eq!(plan.pivot_probes, idx.pivot_ids.len());
        for part in &plan.partitions {
            for id in &part.members {
                let p = compute_primitives(db.get(*id), &q, &SolverConfig::default());
                for (d, m) in measures.iter().enumerate() {
                    let exact = m.from_primitives(&p);
                    assert!(
                        part.bound.values[d] <= exact + 1e-9,
                        "partition bound {} > exact {} for {} of g{}",
                        part.bound.values[d],
                        exact,
                        m.name(),
                        id.index() + 1
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_query_matches_naive_on_paper_data() {
        let (db, q) = paper_db();
        let naive_options = QueryOptions::default().with_plan(Plan::Naive);
        let naive = graph_similarity_skyline(&db, &q, &naive_options);
        let idx = PivotIndex::build(&db, &PivotIndexConfig::default());
        let indexed = graph_similarity_skyline(&db, &q, &indexed(idx));
        assert_eq!(indexed.skyline, naive.skyline);
        assert_eq!(indexed.dominated, naive.dominated);
        let stats = indexed.pruning.expect("indexed stats");
        assert_eq!(stats.candidates, db.len());
        assert_eq!(
            stats.verified + stats.pruned + stats.short_circuited + stats.index_skipped,
            db.len()
        );
        assert!(stats.index_partitions > 0);
    }

    #[test]
    fn mismatched_database_is_rejected() {
        let (db, _) = paper_db();
        let idx = PivotIndex::build(&db, &PivotIndexConfig::default());
        let mut other = db.clone();
        other.add("extra", |b| b.vertex("x", "C")).unwrap();
        assert!(matches!(
            idx.validate(&other),
            Err(IndexError::DatabaseMismatch { .. })
        ));
        assert!(idx.validate(&db).is_ok());
    }

    #[test]
    #[should_panic(expected = "does not match the database")]
    fn planning_against_a_mismatched_database_panics() {
        let (db, q) = paper_db();
        let idx = PivotIndex::build(&db, &PivotIndexConfig::default());
        let mut other = db.clone();
        other.add("extra", |b| b.vertex("x", "C")).unwrap();
        let _ = idx.plan(&other, &q, &MeasureKind::paper_query_measures());
    }

    /// Every partition member must be covered exactly once and every
    /// stored bound must stay admissible against the database.
    fn assert_well_formed(idx: &PivotIndex, db: &GraphDatabase) {
        assert!(idx.validate(db).is_ok());
        let mut seen: Vec<u32> = idx
            .partitions
            .iter()
            .flat_map(|p| p.members.clone())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..db.len() as u32).collect::<Vec<_>>());
        let k = idx.pivot_ids.len();
        for g in 0..db.len() {
            for (j, &p) in idx.pivot_ids.iter().enumerate() {
                let exact = gss_ged::ged(db.get(GraphId(g)), db.get(GraphId(p as usize)));
                assert!(
                    idx.pivot_dists[g * k + j] <= exact + 1e-9,
                    "lower bound of g{g} vs pivot {p} exceeds exact GED"
                );
                assert!(
                    idx.pivot_dists_hi[g * k + j] >= exact - 1e-9,
                    "upper bound of g{g} vs pivot {p} below exact GED"
                );
            }
        }
    }

    fn indexed_matches_rebuild(idx: &PivotIndex, db: &GraphDatabase, q: &Graph) {
        let fresh = PivotIndex::build(db, &idx.config());
        let a = graph_similarity_skyline(db, q, &indexed(idx.clone()));
        let b = graph_similarity_skyline(db, q, &indexed(fresh));
        assert_eq!(a.skyline, b.skyline);
        assert_eq!(a.dominated, b.dominated);
    }

    #[test]
    fn incremental_insert_remove_update_stays_admissible() {
        let (db, q) = paper_db();
        let mut idx = PivotIndex::build(&db, &PivotIndexConfig::default());
        let non_pivot = (0..db.len())
            .rev()
            .find(|g| !idx.pivot_ids.contains(&(*g as u32)))
            .expect("paper database has non-pivot graphs");

        // Insert two graphs.
        let mut live = db.clone();
        live.add("extra1", |b| {
            b.vertices(&["a", "b", "c"], "C")
                .path(&["a", "b", "c"], "-")
        })
        .unwrap();
        live.add("extra2", |b| {
            b.vertices(&["a", "b"], "N").edge("a", "b", "=")
        })
        .unwrap();
        live.set_epoch(1);
        assert_eq!(
            idx.apply_batch(&live, &[], &[], 2),
            MaintenanceOutcome::Incremental
        );
        assert_eq!(idx.stale_ops(), 2);
        assert_well_formed(&idx, &live);
        indexed_matches_rebuild(&idx, &live, &q);

        // Remove a non-pivot graph (ids above it shift down).
        let mut next = live.clone();
        next.remove(GraphId(non_pivot));
        next.set_epoch(2);
        assert_eq!(
            idx.apply_batch(&next, &[non_pivot], &[], 0),
            MaintenanceOutcome::Incremental
        );
        assert_eq!(idx.stale_ops(), 3);
        assert_well_formed(&idx, &next);
        indexed_matches_rebuild(&idx, &next, &q);

        // Update the last graph in place.
        let mut updated = next.clone();
        let target = updated.len() - 1;
        let replacement = updated
            .build_query("swap", |b| {
                b.vertices(&["x", "y", "z", "w"], "C")
                    .cycle(&["x", "y", "z", "w"], "-")
            })
            .unwrap();
        updated.replace(GraphId(target), replacement);
        updated.set_epoch(3);
        assert_eq!(
            idx.apply_batch(&updated, &[], &[target], 0),
            MaintenanceOutcome::Incremental
        );
        assert_eq!(idx.stale_ops(), 4);
        assert_well_formed(&idx, &updated);
        indexed_matches_rebuild(&idx, &updated, &q);

        // A partial rebuild re-tightens without exact GED and resets
        // staleness.
        idx.partial_rebuild(&updated);
        assert_eq!(idx.stale_ops(), 0);
        assert_eq!(idx.partial_rebuilds(), 1);
        assert_well_formed(&idx, &updated);
        indexed_matches_rebuild(&idx, &updated, &q);
    }

    #[test]
    fn touching_a_pivot_forces_a_full_rebuild() {
        let (db, _) = paper_db();
        let mut idx = PivotIndex::build(&db, &PivotIndexConfig::default());
        let pivot = idx.pivot_ids[0] as usize;
        let mut live = db.clone();
        live.remove(GraphId(pivot));
        live.set_epoch(1);
        assert_eq!(
            idx.apply_batch(&live, &[pivot], &[], 0),
            MaintenanceOutcome::Rebuilt
        );
        assert_eq!(idx.stale_ops(), 0, "a rebuild starts fresh");
        assert_well_formed(&idx, &live);
    }

    #[test]
    fn tiny_and_empty_databases_build() {
        let empty = GraphDatabase::new();
        let idx = PivotIndex::build(&empty, &PivotIndexConfig::default());
        assert!(idx.is_empty());
        assert_eq!(idx.partition_count(), 0);

        let mut one = GraphDatabase::new();
        one.add("g", |b| b.vertex("x", "C")).unwrap();
        let idx = PivotIndex::build(&one, &PivotIndexConfig::default());
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.pivots(), vec![GraphId(0)]);
        assert_eq!(idx.partition_count(), 1);
    }
}
