//! Exact graph edit distance via depth-first branch and bound.
//!
//! ## Formulation
//!
//! The solver searches over complete vertex mappings (see [`crate::path`]):
//! `g1` vertices are decided one by one (highest degree first) — each either
//! substituted onto an unused `g2` vertex or deleted — and the induced edit
//! cost is accumulated incrementally so that every edge operation is charged
//! exactly once (when its *later* endpoint is decided, or at completion for
//! edges touching inserted vertices).
//!
//! ## Bounding
//!
//! At every node an admissible lower bound on the remaining cost is added:
//! the label-multiset alignment bound over the still-undecided vertex sets
//! and the edge sets fully contained in them (scaled by the cheapest
//! respective operation cost so it stays admissible under non-uniform
//! models). Branches with `cost + bound ≥ best` are pruned.
//!
//! ### The bound is incremental
//!
//! The bound is a function of four aligned-multiset summaries: the
//! undecided vertex-label counts of each side and the label counts of edges
//! lying entirely inside the undecided regions. Rather than re-deriving the
//! edge histograms by scanning both edge sets at every node (the original
//! implementation — retained under test as `reference::reference_exact_ged` —
//! allocated two fresh histograms per node), the solver maintains the
//! counts **incrementally**: deciding a vertex removes its label from the
//! vertex counters and its incident still-undecided edges from the edge
//! counters, and updates the running multiset-intersection sizes in `O(1)`
//! per touched label (a `min(c1, c2)` term changes only when its own counter
//! moves). Undo reverses the exact same steps, so the aligned part of the
//! bound is *identical* to the rescanning implementation — debug builds
//! assert this against a from-scratch recomputation.
//!
//! ### The cross-edge term
//!
//! The bound also covers the *cross* edges — edges with one
//! decided and one undecided endpoint, which the aligned part is blind to:
//!
//! * every cross edge of a **deleted** g1 vertex must eventually be deleted
//!   (its charge lands when the undecided endpoint is decided);
//! * at a **substituted** pair `w → w'`, a g1 cross edge of `w` can only map
//!   onto a g2 cross edge of `w'` (injectively), so with `c1`/`c2` cross
//!   edges on the two sides at least `(c1 − c2)₊` deletions and
//!   `(c2 − c1)₊` insertions remain.
//!
//! These charges involve disjoint edge sets from the aligned term and are
//! all strictly future costs, so the sum stays admissible. Tightening an
//! admissible bound never changes what branch and bound returns — the
//! incumbent only advances on *strict* improvement, and any subtree holding
//! a strict improvement satisfies `cost + bound ≤ total < best` and
//! survives — so costs and witness mappings are bit-identical to the
//! reference (property-tested across cost models); only `expanded` shrinks
//! (gated as `≤` the reference count).
//!
//! The per-node candidate list lives in per-depth reusable buffers, making
//! the search allocation-free after the first descent (`tests/kernel_alloc.rs`
//! caps allocations per call at a ceiling linear in the input, not in the
//! nodes expanded).

use gss_graph::{EdgeLookup, Graph, Label, VertexId};

use crate::cost::CostModel;
use crate::path::{mapping_cost, VertexMapping};

/// Options for [`exact_ged`].
#[derive(Clone, Debug, Default)]
pub struct GedOptions {
    /// Per-operation costs (default: uniform, as in the paper).
    pub cost: CostModel,
    /// Optional starting incumbent (e.g. from
    /// [`crate::bipartite::bipartite_ged`]); must be a valid complete mapping.
    pub warm_start: Option<VertexMapping>,
}

/// Result of a GED computation.
#[derive(Clone, Debug)]
pub struct GedResult {
    /// The edit cost found: minimal for [`exact_ged`], an upper bound for
    /// [`crate::bipartite::bipartite_ged`].
    pub cost: f64,
    /// The witnessing vertex mapping.
    pub mapping: VertexMapping,
    /// Number of search nodes expanded.
    pub expanded: u64,
}

const UNDECIDED: u32 = u32::MAX;
/// Sentinel for a deleted vertex in `map`; doubles as the deletion branch
/// marker in the per-depth candidate buffers (no real vertex id reaches it).
const DELETED: u32 = u32::MAX - 1;

/// Decrements `count` (one side of an aligned pair) and keeps `common =
/// Σ min(count_k, other_k)` exact: the `min` for this key shrinks iff this
/// side was the (weak) minimum before the decrement.
#[inline]
fn dec_aligned(count: &mut i64, other: i64, common: &mut i64) {
    if *count <= other {
        *common -= 1;
    }
    *count -= 1;
}

/// Exact inverse of [`dec_aligned`].
#[inline]
fn inc_aligned(count: &mut i64, other: i64, common: &mut i64) {
    *count += 1;
    if *count <= other {
        *common += 1;
    }
}

struct Solver<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    /// Dense O(1) edge tables replacing the adjacency-list scans of
    /// `edge_between` in the per-candidate cost evaluation.
    lut1: EdgeLookup,
    lut2: EdgeLookup,
    cm: CostModel,
    /// g1 vertices in decision order (highest degree first).
    order: Vec<VertexId>,
    /// image of each g1 vertex (by g1 index): u32::MAX undecided, SENTINEL_DELETED deleted.
    map: Vec<u32>,
    /// preimage of each g2 vertex.
    inv: Vec<u32>,
    /// remaining (undecided) vertex-label counts.
    r1_vlabels: Vec<i64>,
    r2_vlabels: Vec<i64>,
    /// `Σ_l min(r1_vlabels[l], r2_vlabels[l])`, maintained incrementally.
    common_v: i64,
    /// undecided g2 vertex count.
    n2r: i64,
    /// label counts of edges fully inside the undecided region of each side.
    e1_labels: Vec<i64>,
    e2_labels: Vec<i64>,
    e1r: i64,
    e2r: i64,
    /// `Σ_l min(e1_labels[l], e2_labels[l])`, maintained incrementally.
    common_e: i64,
    /// Cross-edge counts: `cross1[w]` = edges from decided g1 vertex `w` to
    /// still-undecided g1 vertices (valid only while `w` is decided);
    /// `cross2[v]` is the g2 analogue for used vertices.
    cross1: Vec<i64>,
    cross2: Vec<i64>,
    /// Forced future deletions/insertions implied by the cross-edge counts
    /// (see module docs), in operation units.
    del_units: i64,
    ins_units: i64,
    /// Per-depth candidate buffers, reused across the whole search.
    cand_bufs: Vec<Vec<u32>>,
    best_cost: f64,
    best_map: Vec<u32>,
    expanded: u64,
}

impl Solver<'_> {
    /// Incremental cost of deciding `u` (the vertex at `depth`) as `choice`
    /// (`Some(v)` substitution, `None` deletion), given all vertices earlier
    /// in the order are decided.
    fn decide_cost(&self, u: VertexId, choice: Option<VertexId>) -> f64 {
        let mut c = 0.0;
        match choice {
            Some(v) => {
                if self.g1.vertex_label(u) != self.g2.vertex_label(v) {
                    c += self.cm.vertex_rel;
                }
                // g1 edges from u to decided vertices.
                for (w, ew) in self.g1.neighbors(u) {
                    match self.map[w.index()] {
                        UNDECIDED => {}
                        DELETED => c += self.cm.edge_del,
                        x => match self.lut2.get(v, VertexId(x)) {
                            Some(e2) => {
                                if self.g2.edge_label(e2) != self.g1.edge_label(ew) {
                                    c += self.cm.edge_rel;
                                }
                            }
                            None => c += self.cm.edge_del,
                        },
                    }
                }
                // g2 edges from v to used vertices with no g1 counterpart.
                for (x, _ex) in self.g2.neighbors(v) {
                    let w = self.inv[x.index()];
                    if w == UNDECIDED {
                        continue;
                    }
                    if !self.lut1.has(u, VertexId(w)) {
                        c += self.cm.edge_ins;
                    }
                }
            }
            None => {
                c += self.cm.vertex_del;
                for (w, _) in self.g1.neighbors(u) {
                    if self.map[w.index()] != UNDECIDED {
                        c += self.cm.edge_del;
                    }
                }
            }
        }
        c
    }

    /// Cost of completing a state where all g1 vertices are decided:
    /// insert every unused g2 vertex and every g2 edge touching one.
    fn completion_cost(&self) -> f64 {
        let mut c = 0.0;
        for v in self.g2.vertices() {
            if self.inv[v.index()] == UNDECIDED {
                c += self.cm.vertex_ins;
            }
        }
        for e in self.g2.edges() {
            let edge = self.g2.edge(e);
            if self.inv[edge.u.index()] == UNDECIDED || self.inv[edge.v.index()] == UNDECIDED {
                c += self.cm.edge_ins;
            }
        }
        c
    }

    /// Removes a substituted pair's cross contribution from the unit sums.
    #[inline]
    fn pair_remove(&mut self, c1: i64, c2: i64) {
        self.del_units -= (c1 - c2).max(0);
        self.ins_units -= (c2 - c1).max(0);
    }

    /// Adds a substituted pair's cross contribution to the unit sums.
    #[inline]
    fn pair_add(&mut self, c1: i64, c2: i64) {
        self.del_units += (c1 - c2).max(0);
        self.ins_units += (c2 - c1).max(0);
    }

    /// Applies the bookkeeping of deciding `u` as `choice`: `u` (and, for a
    /// substitution, its image `v`) leaves the undecided region, taking its
    /// vertex label and its incident fully-undecided edges out of the
    /// aligned multiset counters; every incident edge either leaves the
    /// fully-undecided set (becoming a cross edge of `u`/`v`) or leaves a
    /// neighbour's cross set (now decided-decided, charged by
    /// [`Solver::decide_cost`]). Must run *before* `map`/`inv` are set —
    /// it reads the pre-decision undecided state.
    fn decide(&mut self, u: VertexId, lu: Label, choice: Option<VertexId>) {
        dec_aligned(
            &mut self.r1_vlabels[lu.index()],
            self.r2_vlabels[lu.index()],
            &mut self.common_v,
        );
        let mut cross_u = 0i64;
        for (w, ew) in self.g1.neighbors(u) {
            match self.map[w.index()] {
                UNDECIDED => {
                    let l = self.g1.edge_label(ew).index();
                    dec_aligned(
                        &mut self.e1_labels[l],
                        self.e2_labels[l],
                        &mut self.common_e,
                    );
                    self.e1r -= 1;
                    cross_u += 1;
                }
                DELETED => {
                    self.del_units -= 1;
                    self.cross1[w.index()] -= 1;
                }
                x => {
                    let c1 = self.cross1[w.index()];
                    let c2 = self.cross2[x as usize];
                    self.pair_remove(c1, c2);
                    self.cross1[w.index()] = c1 - 1;
                    self.pair_add(c1 - 1, c2);
                }
            }
        }
        match choice {
            Some(v) => {
                let lv = self.g2.vertex_label(v).index();
                dec_aligned(
                    &mut self.r2_vlabels[lv],
                    self.r1_vlabels[lv],
                    &mut self.common_v,
                );
                self.n2r -= 1;
                let mut cross_v = 0i64;
                for (x, ex) in self.g2.neighbors(v) {
                    let w1 = self.inv[x.index()];
                    if w1 == UNDECIDED {
                        let l = self.g2.edge_label(ex).index();
                        dec_aligned(
                            &mut self.e2_labels[l],
                            self.e1_labels[l],
                            &mut self.common_e,
                        );
                        self.e2r -= 1;
                        cross_v += 1;
                    } else {
                        let c1 = self.cross1[w1 as usize];
                        let c2 = self.cross2[x.index()];
                        self.pair_remove(c1, c2);
                        self.cross2[x.index()] = c2 - 1;
                        self.pair_add(c1, c2 - 1);
                    }
                }
                self.cross1[u.index()] = cross_u;
                self.cross2[v.index()] = cross_v;
                self.pair_add(cross_u, cross_v);
                self.map[u.index()] = v.0;
                self.inv[v.index()] = u.0;
            }
            None => {
                self.cross1[u.index()] = cross_u;
                self.del_units += cross_u;
                self.map[u.index()] = DELETED;
            }
        }
    }

    /// Exact inverse of [`Solver::decide`] (LIFO order).
    fn undecide(&mut self, u: VertexId, lu: Label, choice: Option<VertexId>) {
        match choice {
            Some(v) => {
                self.map[u.index()] = UNDECIDED;
                self.inv[v.index()] = UNDECIDED;
                self.pair_remove(self.cross1[u.index()], self.cross2[v.index()]);
                for (x, ex) in self.g2.neighbors(v) {
                    let w1 = self.inv[x.index()];
                    if w1 == UNDECIDED {
                        let l = self.g2.edge_label(ex).index();
                        inc_aligned(
                            &mut self.e2_labels[l],
                            self.e1_labels[l],
                            &mut self.common_e,
                        );
                        self.e2r += 1;
                    } else {
                        let c1 = self.cross1[w1 as usize];
                        let c2 = self.cross2[x.index()];
                        self.pair_remove(c1, c2);
                        self.cross2[x.index()] = c2 + 1;
                        self.pair_add(c1, c2 + 1);
                    }
                }
                let lv = self.g2.vertex_label(v).index();
                inc_aligned(
                    &mut self.r2_vlabels[lv],
                    self.r1_vlabels[lv],
                    &mut self.common_v,
                );
                self.n2r += 1;
            }
            None => {
                self.del_units -= self.cross1[u.index()];
                self.map[u.index()] = UNDECIDED;
            }
        }
        for (w, ew) in self.g1.neighbors(u) {
            match self.map[w.index()] {
                UNDECIDED => {
                    let l = self.g1.edge_label(ew).index();
                    inc_aligned(
                        &mut self.e1_labels[l],
                        self.e2_labels[l],
                        &mut self.common_e,
                    );
                    self.e1r += 1;
                }
                DELETED => {
                    self.cross1[w.index()] += 1;
                    self.del_units += 1;
                }
                x => {
                    let c1 = self.cross1[w.index()];
                    let c2 = self.cross2[x as usize];
                    self.pair_remove(c1, c2);
                    self.cross1[w.index()] = c1 + 1;
                    self.pair_add(c1 + 1, c2);
                }
            }
        }
        inc_aligned(
            &mut self.r1_vlabels[lu.index()],
            self.r2_vlabels[lu.index()],
            &mut self.common_v,
        );
    }

    /// The aligned-multiset part of the bound — `O(1)` from the
    /// incrementally maintained counters; identical to the reference
    /// solver's whole bound.
    fn aligned_bound(&self, depth: usize) -> f64 {
        let n1r = (self.order.len() - depth) as i64;
        let vertex_ops = (n1r.max(self.n2r) - self.common_v).max(0) as f64;
        let edge_ops = (self.e1r.max(self.e2r) - self.common_e).max(0) as f64;
        vertex_ops * self.cm.min_vertex_op() + edge_ops * self.cm.min_edge_op()
    }

    /// Admissible lower bound on the cost still to come (see module docs):
    /// the aligned part plus the cross-edge term.
    fn lower_bound(&self, depth: usize) -> f64 {
        self.aligned_bound(depth)
            + self.del_units as f64 * self.cm.edge_del
            + self.ins_units as f64 * self.cm.edge_ins
    }

    /// From-scratch recomputation of the cross-edge units — the
    /// debug-assert oracle for `del_units`/`ins_units`.
    #[cfg(debug_assertions)]
    fn cross_units_rescan(&self) -> (i64, i64) {
        let undecided1 = |w: VertexId| {
            self.g1
                .neighbors(w)
                .filter(|(n, _)| self.map[n.index()] == UNDECIDED)
                .count() as i64
        };
        let unused2 = |v: VertexId| {
            self.g2
                .neighbors(v)
                .filter(|(n, _)| self.inv[n.index()] == UNDECIDED)
                .count() as i64
        };
        let (mut del, mut ins) = (0i64, 0i64);
        for w in self.g1.vertices() {
            match self.map[w.index()] {
                UNDECIDED => {}
                DELETED => del += undecided1(w),
                x => {
                    let c1 = undecided1(w);
                    let c2 = unused2(VertexId(x));
                    del += (c1 - c2).max(0);
                    ins += (c2 - c1).max(0);
                }
            }
        }
        (del, ins)
    }

    /// From-scratch recomputation of the bound — the debug-assert oracle
    /// proving the incremental counters never drift.
    #[cfg(debug_assertions)]
    fn lower_bound_rescan(&self, depth: usize) -> f64 {
        let n1r = (self.order.len() - depth) as i64;
        let n2r = self.inv.iter().filter(|&&w| w == UNDECIDED).count() as i64;
        let mut common_v = 0i64;
        for (l, &c1) in self.r1_vlabels.iter().enumerate() {
            common_v += c1.min(self.r2_vlabels[l]);
        }
        let vertex_ops = (n1r.max(n2r) - common_v).max(0) as f64;

        let mut e1_labels: Vec<i64> = vec![0; self.r1_vlabels.len()];
        let mut e1r = 0i64;
        for e in self.g1.edges() {
            let edge = self.g1.edge(e);
            if self.map[edge.u.index()] == UNDECIDED && self.map[edge.v.index()] == UNDECIDED {
                e1_labels[edge.label.index()] += 1;
                e1r += 1;
            }
        }
        let mut e2_labels: Vec<i64> = vec![0; self.r1_vlabels.len()];
        let mut e2r = 0i64;
        for e in self.g2.edges() {
            let edge = self.g2.edge(e);
            if self.inv[edge.u.index()] == UNDECIDED && self.inv[edge.v.index()] == UNDECIDED {
                e2_labels[edge.label.index()] += 1;
                e2r += 1;
            }
        }
        let mut common_e = 0i64;
        for (l, &c1) in e1_labels.iter().enumerate() {
            common_e += c1.min(e2_labels[l]);
        }
        let edge_ops = (e1r.max(e2r) - common_e).max(0) as f64;

        vertex_ops * self.cm.min_vertex_op() + edge_ops * self.cm.min_edge_op()
    }

    fn search(&mut self, depth: usize, cost_so_far: f64) {
        self.expanded += 1;
        if depth == self.order.len() {
            let total = cost_so_far + self.completion_cost();
            if total < self.best_cost {
                self.best_cost = total;
                self.best_map.copy_from_slice(&self.map);
            }
            return;
        }
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                self.aligned_bound(depth),
                self.lower_bound_rescan(depth),
                "incremental aligned bound drifted at depth {depth}"
            );
            debug_assert_eq!(
                (self.del_units, self.ins_units),
                self.cross_units_rescan(),
                "incremental cross-edge units drifted at depth {depth}"
            );
        }
        if cost_so_far + self.lower_bound(depth) >= self.best_cost {
            return;
        }
        let u = self.order[depth];
        let lu = self.g1.vertex_label(u);

        // Candidate order: same-label substitutions, deletion, then
        // different-label substitutions — cheap options first so a good
        // incumbent appears early. The buffer is per-depth and reused
        // across the whole search.
        if self.cand_bufs.len() <= depth {
            // Amortized: grows only on the first visit to a new max depth,
            // then every deeper node reuses the buffer.
            self.cand_bufs.resize_with(depth + 1, Vec::new);
        }
        let mut buf = std::mem::take(&mut self.cand_bufs[depth]);
        buf.clear();
        for v in self.g2.vertices() {
            if self.inv[v.index()] == UNDECIDED && self.g2.vertex_label(v) == lu {
                buf.push(v.0);
            }
        }
        buf.push(DELETED);
        for v in self.g2.vertices() {
            if self.inv[v.index()] == UNDECIDED && self.g2.vertex_label(v) != lu {
                buf.push(v.0);
            }
        }

        for &enc in &buf {
            let choice = (enc != DELETED).then_some(VertexId(enc));
            let step = self.decide_cost(u, choice);
            if cost_so_far + step >= self.best_cost {
                continue;
            }
            self.decide(u, lu, choice);
            self.search(depth + 1, cost_so_far + step);
            self.undecide(u, lu, choice);
        }
        self.cand_bufs[depth] = buf;
    }
}

fn max_label_index(g1: &Graph, g2: &Graph) -> usize {
    let mut m = 0usize;
    for g in [g1, g2] {
        for v in g.vertices() {
            m = m.max(g.vertex_label(v).index() + 1);
        }
        for e in g.edges() {
            m = m.max(g.edge_label(e).index() + 1);
        }
    }
    m
}

/// Computes the exact graph edit distance between `g1` and `g2`
/// (Definition 8 of the paper, uniform costs by default).
///
/// GED is symmetric for symmetric cost models (swap deletions/insertions),
/// which the default model is; `tests` verify symmetry empirically.
pub fn exact_ged(g1: &Graph, g2: &Graph, options: &GedOptions) -> GedResult {
    options.cost.validate().expect("invalid cost model");
    let labels = max_label_index(g1, g2);

    let mut order: Vec<VertexId> = g1.vertices().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g1.degree(v)));

    let mut r1 = vec![0i64; labels];
    for v in g1.vertices() {
        r1[g1.vertex_label(v).index()] += 1;
    }
    let mut r2 = vec![0i64; labels];
    for v in g2.vertices() {
        r2[g2.vertex_label(v).index()] += 1;
    }
    let common_v: i64 = r1.iter().zip(&r2).map(|(&a, &b)| a.min(b)).sum();
    let mut e1_labels = vec![0i64; labels];
    for e in g1.edges() {
        e1_labels[g1.edge_label(e).index()] += 1;
    }
    let mut e2_labels = vec![0i64; labels];
    for e in g2.edges() {
        e2_labels[g2.edge_label(e).index()] += 1;
    }
    let common_e: i64 = e1_labels
        .iter()
        .zip(&e2_labels)
        .map(|(&a, &b)| a.min(b))
        .sum();

    // Incumbent: warm start if provided, else "delete everything".
    let trivial = VertexMapping::all_deleted(g1.order());
    let (seed_map, seed_cost) = match &options.warm_start {
        Some(m) => (m.clone(), mapping_cost(g1, g2, m, &options.cost)),
        None => (
            trivial.clone(),
            mapping_cost(g1, g2, &trivial, &options.cost),
        ),
    };

    let mut solver = Solver {
        g1,
        g2,
        lut1: EdgeLookup::new(g1),
        lut2: EdgeLookup::new(g2),
        cm: options.cost,
        order,
        map: vec![UNDECIDED; g1.order()],
        inv: vec![UNDECIDED; g2.order()],
        r1_vlabels: r1,
        r2_vlabels: r2,
        common_v,
        n2r: g2.order() as i64,
        e1_labels,
        e2_labels,
        e1r: g1.size() as i64,
        e2r: g2.size() as i64,
        common_e,
        cross1: vec![0; g1.order()],
        cross2: vec![0; g2.order()],
        del_units: 0,
        ins_units: 0,
        cand_bufs: Vec::new(),
        best_cost: seed_cost,
        best_map: seed_map
            .map
            .iter()
            .map(|m| m.map_or(DELETED, |v| v.0))
            .collect(),
        expanded: 0,
    };
    solver.search(0, 0.0);

    let mapping = VertexMapping {
        map: solver
            .best_map
            .iter()
            .map(|&x| {
                if x == DELETED || x == UNDECIDED {
                    None
                } else {
                    Some(VertexId(x))
                }
            })
            .collect(),
    };
    // Recompute from the mapping for bullet-proof consistency.
    let cost = mapping_cost(g1, g2, &mapping, &options.cost);
    debug_assert!(
        (cost - solver.best_cost).abs() < 1e-9,
        "incremental cost drifted: {cost} vs {}",
        solver.best_cost
    );
    GedResult {
        cost,
        mapping,
        expanded: solver.expanded,
    }
}

/// Convenience: exact uniform-cost GED as used throughout the paper.
pub fn uniform_ged(g1: &Graph, g2: &Graph) -> f64 {
    exact_ged(g1, g2, &GedOptions::default()).cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::{random_graph, Graph, GraphBuilder, Rng, Vocabulary};

    fn build(
        v: &mut Vocabulary,
        name: &str,
        verts: &[(&str, &str)],
        edges: &[(&str, &str, &str)],
    ) -> Graph {
        let mut b = GraphBuilder::new(name, v);
        for (n, l) in verts {
            b = b.vertex(n, l);
        }
        for (a, c, l) in edges {
            b = b.edge(a, c, l);
        }
        b.build().unwrap()
    }

    #[test]
    fn identical_graphs_have_zero_distance() {
        let mut v = Vocabulary::new();
        let g = build(&mut v, "g", &[("a", "A"), ("b", "B")], &[("a", "b", "-")]);
        let r = exact_ged(&g, &g, &GedOptions::default());
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn single_vertex_relabel() {
        let mut v = Vocabulary::new();
        let g1 = build(&mut v, "g1", &[("a", "A"), ("b", "B")], &[("a", "b", "-")]);
        let g2 = build(&mut v, "g2", &[("a", "A"), ("b", "X")], &[("a", "b", "-")]);
        assert_eq!(uniform_ged(&g1, &g2), 1.0);
    }

    #[test]
    fn single_edge_relabel() {
        let mut v = Vocabulary::new();
        let g1 = build(&mut v, "g1", &[("a", "A"), ("b", "B")], &[("a", "b", "-")]);
        let g2 = build(&mut v, "g2", &[("a", "A"), ("b", "B")], &[("a", "b", "=")]);
        assert_eq!(uniform_ged(&g1, &g2), 1.0);
    }

    #[test]
    fn edge_insertion_only() {
        let mut v = Vocabulary::new();
        let g1 = build(
            &mut v,
            "g1",
            &[("a", "A"), ("b", "B"), ("c", "C")],
            &[("a", "b", "-")],
        );
        let g2 = build(
            &mut v,
            "g2",
            &[("a", "A"), ("b", "B"), ("c", "C")],
            &[("a", "b", "-"), ("b", "c", "-")],
        );
        assert_eq!(uniform_ged(&g1, &g2), 1.0);
        assert_eq!(uniform_ged(&g2, &g1), 1.0); // symmetry
    }

    #[test]
    fn vertex_insertion_with_edge() {
        let mut v = Vocabulary::new();
        let g1 = build(&mut v, "g1", &[("a", "A")], &[]);
        let g2 = build(&mut v, "g2", &[("a", "A"), ("b", "B")], &[("a", "b", "-")]);
        // insert vertex + insert edge = 2
        assert_eq!(uniform_ged(&g1, &g2), 2.0);
        assert_eq!(uniform_ged(&g2, &g1), 2.0);
    }

    #[test]
    fn relabeling_beats_delete_insert() {
        // Same structure, all labels shifted: relabel each vertex.
        let mut v = Vocabulary::new();
        let g1 = build(
            &mut v,
            "g1",
            &[("a", "A"), ("b", "B"), ("c", "C")],
            &[("a", "b", "-"), ("b", "c", "-")],
        );
        let g2 = build(
            &mut v,
            "g2",
            &[("a", "X"), ("b", "Y"), ("c", "Z")],
            &[("a", "b", "-"), ("b", "c", "-")],
        );
        assert_eq!(uniform_ged(&g1, &g2), 3.0);
    }

    #[test]
    fn structural_mismatch_star_vs_path() {
        // Same labels, star vs path (unlabeled-ish): requires 2 edge moves
        // (delete one star edge, insert one path edge).
        let mut v = Vocabulary::new();
        let star = build(
            &mut v,
            "star",
            &[("c", "C"), ("x", "C"), ("y", "C"), ("z", "C")],
            &[("c", "x", "-"), ("c", "y", "-"), ("c", "z", "-")],
        );
        let path = build(
            &mut v,
            "path",
            &[("a", "C"), ("b", "C"), ("d", "C"), ("e", "C")],
            &[("a", "b", "-"), ("b", "d", "-"), ("d", "e", "-")],
        );
        assert_eq!(uniform_ged(&star, &path), 2.0);
    }

    #[test]
    fn warm_start_does_not_change_answer() {
        let mut v = Vocabulary::new();
        let g1 = build(&mut v, "g1", &[("a", "A"), ("b", "B")], &[("a", "b", "-")]);
        let g2 = build(
            &mut v,
            "g2",
            &[("b", "B"), ("x", "X"), ("a", "A")],
            &[("a", "b", "=")],
        );
        let plain = exact_ged(&g1, &g2, &GedOptions::default());
        let warm = exact_ged(
            &g1,
            &g2,
            &GedOptions {
                warm_start: Some(plain.mapping.clone()),
                ..GedOptions::default()
            },
        );
        assert_eq!(plain.cost, warm.cost);
        assert!(
            warm.expanded <= plain.expanded,
            "warm start should not expand more nodes"
        );
    }

    #[test]
    fn symmetry_on_random_graphs() {
        let mut rng = Rng::seed_from_u64(0x6ed);
        for case in 0..40 {
            let (n1, m1) = (1 + rng.gen_index(4), rng.gen_index(5));
            let (n2, m2) = (1 + rng.gen_index(4), rng.gen_index(5));
            let g1 = random_graph(&mut rng, n1, m1, 3, 2);
            let g2 = random_graph(&mut rng, n2, m2, 3, 2);
            let d12 = uniform_ged(&g1, &g2);
            let d21 = uniform_ged(&g2, &g1);
            assert_eq!(d12, d21, "case {case}: GED must be symmetric");
            assert_eq!(uniform_ged(&g1, &g1), 0.0);
        }
    }

    #[test]
    fn empty_graph_distances() {
        let mut v = Vocabulary::new();
        let empty = GraphBuilder::new("e", &mut v).build().unwrap();
        let g = build(&mut v, "g", &[("a", "A"), ("b", "B")], &[("a", "b", "-")]);
        assert_eq!(uniform_ged(&empty, &empty), 0.0);
        assert_eq!(uniform_ged(&empty, &g), 3.0); // 2 vertices + 1 edge
        assert_eq!(uniform_ged(&g, &empty), 3.0);
    }
}
