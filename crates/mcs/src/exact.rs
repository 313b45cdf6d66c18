//! Exact branch-and-bound solver for the connected maximum common subgraph.
//!
//! ## Formulation
//!
//! A *common subgraph* of `g1` and `g2` is given by an injective, vertex- and
//! edge-label-preserving partial mapping `f` between their vertex sets; its
//! edges are the pairs of vertices mapped on both sides that are adjacent
//! **in both graphs** via equally-labeled edges ("shared edges"). The paper's
//! `mcs` requires the shared-edge graph to be connected.
//!
//! The search grows `f` one vertex pair at a time, always attaching the new
//! pair through at least one shared edge, so every intermediate state is a
//! connected common subgraph and every connected common subgraph is reachable
//! (grow it in BFS order from any of its edges). Root duplicates are avoided
//! by requiring the root of a component to be its minimal `g1` vertex;
//! smaller `g1` vertices are banned inside that branch.
//!
//! ## Pruning
//!
//! * a global edge-class bound (`gss_graph::stats::mcs_upper_bound`) caps the
//!   achievable size; the search stops as soon as it is reached;
//! * per-node: `score + min(potential(g1), potential(g2)) ≤ best` prunes,
//!   where `potential(g)` counts edges that still have an unmapped,
//!   non-banned endpoint (a mapped-mapped pair that is not already shared
//!   can never become shared later).
//!
//! ## Why this is fast (and still exact)
//!
//! The kernel does no per-search-node heap allocation (`tests/kernel_alloc.rs`
//! caps allocations per call at a ceiling linear in the input) and no
//! per-node rescans:
//!
//! * the `potential` counters are maintained **incrementally** — deciding or
//!   undoing a pair touches only the decided vertex's incident edges,
//!   instead of re-scanning every edge of both graphs at every node (debug
//!   builds assert the counters against a from-scratch rescan);
//! * candidate pairs are collected into **per-depth reusable buffers**, with
//!   a flat `n1 × n2` [`gss_graph::Bitset`] as the duplicate mask (the
//!   `Vec::contains` scan it replaces was quadratic in the candidate count);
//!   the immediate gain of each pair is computed once and cached for the
//!   sort and the application;
//! * the incumbent is recorded into reusable best-buffers only on
//!   improvement — no per-node cloning.
//!
//! None of this changes the search *order*: candidates are generated in the
//! same sequence, deduplicated keep-first, and stably sorted by the same
//! keys as the retained reference implementation (the test-only
//! `reference::maximum_common_subgraph_reference`), so costs,
//! witnesses **and expanded-node counts** are identical — property tests
//! pin all three.

use gss_graph::stats::mcs_upper_bound;
use gss_graph::{Bitset, EdgeId, EdgeLookup, Graph, VertexId};

/// What the solver maximizes.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Objective {
    /// Maximize shared-edge count (ties broken by vertex count). This is the
    /// paper's `|mcs|` (Definition 9/10 use edge counts).
    #[default]
    Edges,
    /// Maximize mapped-vertex count (ties broken by edge count) — the
    /// literal reading of Definition 7's "maximum number of selected
    /// vertices".
    Vertices,
}

/// A maximum common (connected) subgraph witness.
#[derive(Clone, Debug, Default)]
pub struct Mcs {
    /// Mapped vertex pairs `(g1 vertex, g2 vertex)`.
    pub vertex_pairs: Vec<(VertexId, VertexId)>,
    /// Shared edge pairs `(g1 edge, g2 edge)`.
    pub edge_pairs: Vec<(EdgeId, EdgeId)>,
}

impl Mcs {
    /// Number of shared edges — the paper's `|mcs|`.
    pub fn edges(&self) -> usize {
        self.edge_pairs.len()
    }

    /// Number of mapped vertices.
    pub fn vertices(&self) -> usize {
        self.vertex_pairs.len()
    }

    /// The common subgraph materialized as a graph (structure taken from
    /// `g1`, per Definition 7).
    pub fn as_graph(&self, g1: &Graph) -> Graph {
        let edges: Vec<EdgeId> = self.edge_pairs.iter().map(|(e1, _)| *e1).collect();
        g1.edge_induced_subgraph(&edges)
    }
}

const UNMAPPED: u32 = u32::MAX;

/// A candidate extension pair with its cached immediate gain.
#[derive(Copy, Clone, Debug)]
struct Candidate {
    u: u32,
    v: u32,
    gain: u32,
}

struct Solver<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    /// Dense O(1) edge table for g2 — the side `gain` probes per candidate.
    lut2: EdgeLookup,
    objective: Objective,
    map1: Vec<u32>,
    map2: Vec<u32>,
    banned: Vec<bool>,
    score_edges: usize,
    /// Number of currently mapped pairs (incremental `mapped_vertices`).
    mapped: usize,
    /// Incremental `potential(g1)`: edges with no banned endpoint and ≥ 1
    /// unmapped endpoint.
    pot1: usize,
    /// Incremental `potential(g2)`: edges with ≥ 1 unmapped endpoint.
    pot2: usize,
    /// Flat `n1 × n2` duplicate mask for candidate generation.
    seen: Bitset,
    /// Per-depth candidate buffers, reused across the whole search.
    cand_bufs: Vec<Vec<Candidate>>,
    best_key: (usize, usize),
    /// Reusable incumbent buffers, written only on improvement.
    best_vertex_pairs: Vec<(VertexId, VertexId)>,
    best_edge_pairs: Vec<(EdgeId, EdgeId)>,
    global_bound: usize,
    done: bool,
    expanded: u64,
}

impl Solver<'_> {
    fn key(&self, edges: usize, vertices: usize) -> (usize, usize) {
        match self.objective {
            Objective::Edges => (edges, vertices),
            Objective::Vertices => (vertices, edges),
        }
    }

    /// Maps `u -> v`, updating the incremental potential counters: a g1
    /// edge leaves `pot1` when its second endpoint becomes mapped (it can
    /// no longer *become* shared), and symmetrically for g2.
    fn apply(&mut self, u: VertexId, v: VertexId) {
        debug_assert!(!self.banned[u.index()], "candidates are never banned");
        for (w, _) in self.g1.neighbors(u) {
            if !self.banned[w.index()] && self.map1[w.index()] != UNMAPPED {
                self.pot1 -= 1;
            }
        }
        for (x, _) in self.g2.neighbors(v) {
            if self.map2[x.index()] != UNMAPPED {
                self.pot2 -= 1;
            }
        }
        self.map1[u.index()] = v.0;
        self.map2[v.index()] = u.0;
        self.mapped += 1;
    }

    /// Reverses [`Solver::apply`] (must be called in LIFO order).
    fn undo(&mut self, u: VertexId, v: VertexId) {
        self.map1[u.index()] = UNMAPPED;
        self.map2[v.index()] = UNMAPPED;
        self.mapped -= 1;
        for (w, _) in self.g1.neighbors(u) {
            if !self.banned[w.index()] && self.map1[w.index()] != UNMAPPED {
                self.pot1 += 1;
            }
        }
        for (x, _) in self.g2.neighbors(v) {
            if self.map2[x.index()] != UNMAPPED {
                self.pot2 += 1;
            }
        }
    }

    /// Bans a root at the top level (everything unmapped): every edge
    /// incident to it leaves `pot1` unless the other endpoint was already
    /// banned (those edges were removed when that endpoint was banned).
    fn ban_root(&mut self, root: VertexId) {
        debug_assert_eq!(self.mapped, 0, "roots are banned at the top level");
        self.banned[root.index()] = true;
        for (w, _) in self.g1.neighbors(root) {
            if !self.banned[w.index()] {
                self.pot1 -= 1;
            }
        }
    }

    /// From-scratch `potential(g1)` — debug-assert oracle for `pot1`.
    #[cfg(debug_assertions)]
    fn potential1_rescan(&self) -> usize {
        self.g1
            .edges()
            .filter(|&e| {
                let edge = self.g1.edge(e);
                let (u, v) = (edge.u.index(), edge.v.index());
                if self.banned[u] || self.banned[v] {
                    return false;
                }
                self.map1[u] == UNMAPPED || self.map1[v] == UNMAPPED
            })
            .count()
    }

    /// From-scratch `potential(g2)` — debug-assert oracle for `pot2`.
    #[cfg(debug_assertions)]
    fn potential2_rescan(&self) -> usize {
        self.g2
            .edges()
            .filter(|&e| {
                let edge = self.g2.edge(e);
                self.map2[edge.u.index()] == UNMAPPED || self.map2[edge.v.index()] == UNMAPPED
            })
            .count()
    }

    fn record_if_better(&mut self) {
        let key = self.key(self.score_edges, self.mapped);
        if key > self.best_key {
            self.best_key = key;
            self.snapshot_into_best();
            if self.objective == Objective::Edges && self.score_edges >= self.global_bound {
                self.done = true; // provably optimal
            }
        }
    }

    /// Writes the current mapping into the reusable incumbent buffers.
    fn snapshot_into_best(&mut self) {
        self.best_vertex_pairs.clear();
        for (i, &m) in self.map1.iter().enumerate() {
            if m != UNMAPPED {
                self.best_vertex_pairs.push((VertexId::new(i), VertexId(m)));
            }
        }
        self.best_edge_pairs.clear();
        for e1 in self.g1.edges() {
            let edge = self.g1.edge(e1);
            let (mu, mv) = (self.map1[edge.u.index()], self.map1[edge.v.index()]);
            if mu == UNMAPPED || mv == UNMAPPED {
                continue;
            }
            if let Some(e2) = self.lut2.get(VertexId(mu), VertexId(mv)) {
                if self.g2.edge_label(e2) == edge.label {
                    self.best_edge_pairs.push((e1, e2));
                }
            }
        }
    }

    /// Shared edges gained by mapping `u -> v` right now.
    fn gain(&self, u: VertexId, v: VertexId) -> u32 {
        let mut gain = 0;
        for (w, ew) in self.g1.neighbors(u) {
            let mw = self.map1[w.index()];
            if mw == UNMAPPED {
                continue;
            }
            if let Some(e2) = self.lut2.get(v, VertexId(mw)) {
                if self.g2.edge_label(e2) == self.g1.edge_label(ew) {
                    gain += 1;
                }
            }
        }
        gain
    }

    /// Collects all pairs `(u, v)` extending the current component via ≥ 1
    /// shared edge into `buf` (cleared first): generated in deterministic
    /// scan order, deduplicated keep-first through the flat bitset mask,
    /// then stably sorted best-immediate-gain-first so large solutions
    /// appear early and the bound prunes harder.
    fn collect_candidates(&mut self, buf: &mut Vec<Candidate>) {
        buf.clear();
        let n2 = self.g2.order();
        for i in 0..self.map1.len() {
            let m = self.map1[i];
            if m == UNMAPPED {
                continue;
            }
            let u_mapped = VertexId::new(i);
            let v_mapped = VertexId(m);
            for (u, eu) in self.g1.neighbors(u_mapped) {
                if self.map1[u.index()] != UNMAPPED || self.banned[u.index()] {
                    continue;
                }
                for (v, ev) in self.g2.neighbors(v_mapped) {
                    if self.map2[v.index()] != UNMAPPED {
                        continue;
                    }
                    if self.g1.vertex_label(u) != self.g2.vertex_label(v) {
                        continue;
                    }
                    if self.g1.edge_label(eu) != self.g2.edge_label(ev) {
                        continue;
                    }
                    let bit = u.index() * n2 + v.index();
                    if !self.seen.contains(bit) {
                        self.seen.insert(bit);
                        buf.push(Candidate {
                            u: u.0,
                            v: v.0,
                            gain: 0,
                        });
                    }
                }
            }
        }
        // Clear only the bits this node set: O(|candidates|), not O(n1·n2).
        for c in buf.iter() {
            self.seen.remove(c.u as usize * n2 + c.v as usize);
        }
        for c in buf.iter_mut() {
            c.gain = self.gain(VertexId(c.u), VertexId(c.v));
        }
        buf.sort_by_key(|c| std::cmp::Reverse(c.gain));
    }

    fn extend(&mut self, depth: usize) {
        if self.done {
            return;
        }
        self.expanded += 1;
        self.record_if_better();
        if self.done {
            return;
        }
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(self.pot1, self.potential1_rescan(), "pot1 drifted");
            debug_assert_eq!(self.pot2, self.potential2_rescan(), "pot2 drifted");
        }
        // Bound check (edges part; for the Vertices objective the vertex
        // potential is bounded by edge potential + 1 per component, so the
        // edge bound with slack 1 stays admissible).
        let potential = self.pot1.min(self.pot2);
        let bound_key = match self.objective {
            Objective::Edges => (self.score_edges + potential, usize::MAX),
            Objective::Vertices => (self.mapped + potential, usize::MAX),
        };
        if bound_key <= self.best_key {
            return;
        }
        if self.cand_bufs.len() <= depth {
            // Amortized: grows only on the first visit to a new max depth,
            // then every deeper node reuses the buffer.
            self.cand_bufs.resize_with(depth + 1, Vec::new);
        }
        let mut buf = std::mem::take(&mut self.cand_bufs[depth]);
        self.collect_candidates(&mut buf);
        for &c in &buf {
            let (u, v) = (VertexId(c.u), VertexId(c.v));
            debug_assert!(c.gain >= 1, "candidates must attach via a shared edge");
            self.apply(u, v);
            self.score_edges += c.gain as usize;
            self.extend(depth + 1);
            self.score_edges -= c.gain as usize;
            self.undo(u, v);
            if self.done {
                break;
            }
        }
        self.cand_bufs[depth] = buf;
    }

    fn into_best(self) -> Mcs {
        Mcs {
            vertex_pairs: self.best_vertex_pairs,
            edge_pairs: self.best_edge_pairs,
        }
    }
}

/// Computes a maximum common connected subgraph of `g1` and `g2` under the
/// given [`Objective`].
///
/// Exact but exponential in the worst case; intended for the small graphs of
/// this domain. For a fast approximation see [`crate::greedy::greedy_mcs`].
pub fn maximum_common_subgraph(g1: &Graph, g2: &Graph, objective: Objective) -> Mcs {
    maximum_common_subgraph_expanded(g1, g2, objective).0
}

/// [`maximum_common_subgraph`] plus the number of search nodes expanded —
/// identical to the retained reference implementation's count (the rewrite
/// preserves the search order; see the module docs).
pub fn maximum_common_subgraph_expanded(
    g1: &Graph,
    g2: &Graph,
    objective: Objective,
) -> (Mcs, u64) {
    let global_bound = mcs_upper_bound(g1, g2) as usize;
    let mut solver = Solver {
        g1,
        g2,
        lut2: EdgeLookup::new(g2),
        objective,
        map1: vec![UNMAPPED; g1.order()],
        map2: vec![UNMAPPED; g2.order()],
        banned: vec![false; g1.order()],
        score_edges: 0,
        mapped: 0,
        pot1: g1.size(),
        pot2: g2.size(),
        seen: Bitset::new(g1.order() * g2.order()),
        cand_bufs: Vec::new(),
        best_key: (0, 0),
        best_vertex_pairs: Vec::new(),
        best_edge_pairs: Vec::new(),
        global_bound,
        done: false,
        expanded: 0,
    };
    // Root each component at its minimal g1 vertex: branch over roots in
    // ascending order, banning smaller vertices inside the branch.
    for root in 0..g1.order() {
        if solver.done {
            break;
        }
        let u = VertexId::new(root);
        for v in g2.vertices() {
            if g1.vertex_label(u) != g2.vertex_label(v) {
                continue;
            }
            solver.apply(u, v);
            solver.extend(0);
            solver.undo(u, v);
            if solver.done {
                break;
            }
        }
        solver.ban_root(u);
    }
    let expanded = solver.expanded;
    (solver.into_best(), expanded)
}

/// The paper's `|mcs(g1, g2)|`: shared-edge count of a maximum common
/// connected subgraph (edge objective).
pub fn mcs_edge_size(g1: &Graph, g2: &Graph) -> usize {
    maximum_common_subgraph(g1, g2, Objective::Edges).edges()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::{GraphBuilder, Vocabulary};

    #[test]
    fn identical_connected_graphs() {
        let mut v = Vocabulary::new();
        let g = GraphBuilder::new("g", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .cycle(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let m = maximum_common_subgraph(&g, &g, Objective::Edges);
        assert_eq!(m.edges(), 3);
        assert_eq!(m.vertices(), 3);
    }

    #[test]
    fn disjoint_labels_share_nothing() {
        let mut v = Vocabulary::new();
        let g1 = GraphBuilder::new("g1", &mut v)
            .vertices(&["a", "b"], "A")
            .edge("a", "b", "-")
            .build()
            .unwrap();
        let g2 = GraphBuilder::new("g2", &mut v)
            .vertices(&["x", "y"], "Z")
            .edge("x", "y", "-")
            .build()
            .unwrap();
        let m = maximum_common_subgraph(&g1, &g2, Objective::Edges);
        assert_eq!(m.edges(), 0);
        assert_eq!(m.vertices(), 0);
        // Vertex objective can still map one compatible vertex… here none.
        let m = maximum_common_subgraph(&g1, &g2, Objective::Vertices);
        assert_eq!(m.vertices(), 0);
    }

    #[test]
    fn single_vertex_overlap_vertex_objective() {
        let mut v = Vocabulary::new();
        let g1 = GraphBuilder::new("g1", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .edge("a", "b", "-")
            .build()
            .unwrap();
        let g2 = GraphBuilder::new("g2", &mut v)
            .vertex("a", "A")
            .vertex("z", "Z")
            .edge("a", "z", "-")
            .build()
            .unwrap();
        assert_eq!(mcs_edge_size(&g1, &g2), 0);
        let m = maximum_common_subgraph(&g1, &g2, Objective::Vertices);
        assert_eq!(m.vertices(), 1);
        assert_eq!(m.edges(), 0);
    }

    #[test]
    fn connectivity_constraint_caps_size() {
        // g1: two shareable edges joined through a vertex whose label differs
        // in g2, so the common subgraph cannot bridge them.
        let mut v = Vocabulary::new();
        let g1 = GraphBuilder::new("g1", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .vertex("d", "D")
            .vertex("e", "E")
            .path(&["a", "b", "c", "d", "e"], "-")
            .build()
            .unwrap();
        // Same path but middle vertex relabeled: shared edges are a-b and d-e…
        let g2 = GraphBuilder::new("g2", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("x", "X")
            .vertex("d", "D")
            .vertex("e", "E")
            .path(&["a", "b", "x", "d", "e"], "-")
            .build()
            .unwrap();
        // …each component has 1 edge; connected mcs = 1.
        assert_eq!(mcs_edge_size(&g1, &g2), 1);
    }

    #[test]
    fn edge_labels_block_sharing() {
        let mut v = Vocabulary::new();
        let g1 = GraphBuilder::new("g1", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .path(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let g2 = GraphBuilder::new("g2", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .edge("a", "b", "-")
            .edge("b", "c", "=")
            .build()
            .unwrap();
        assert_eq!(mcs_edge_size(&g1, &g2), 1);
    }

    #[test]
    fn subgraph_relation_gives_full_pattern() {
        let mut v = Vocabulary::new();
        let small = GraphBuilder::new("s", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .path(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let big = GraphBuilder::new("b", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .vertex("d", "D")
            .cycle(&["a", "b", "c", "d"], "-")
            .edge("a", "c", "-")
            .build()
            .unwrap();
        assert_eq!(mcs_edge_size(&small, &big), 2);
        assert_eq!(mcs_edge_size(&big, &small), 2); // symmetric size
    }

    #[test]
    fn repeated_labels_need_search() {
        // All-same labels: mcs of a 4-cycle and a 4-path is the 3-edge path.
        let mut v = Vocabulary::new();
        let cycle = GraphBuilder::new("c", &mut v)
            .vertices(&["a", "b", "c", "d"], "C")
            .cycle(&["a", "b", "c", "d"], "-")
            .build()
            .unwrap();
        let path = GraphBuilder::new("p", &mut v)
            .vertices(&["w", "x", "y", "z"], "C")
            .path(&["w", "x", "y", "z"], "-")
            .build()
            .unwrap();
        assert_eq!(mcs_edge_size(&cycle, &path), 3);
    }

    #[test]
    fn witness_is_consistent() {
        let mut v = Vocabulary::new();
        let g1 = GraphBuilder::new("g1", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .cycle(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let g2 = GraphBuilder::new("g2", &mut v)
            .vertex("x", "C")
            .vertex("y", "B")
            .vertex("z", "A")
            .path(&["x", "y", "z"], "-")
            .build()
            .unwrap();
        let m = maximum_common_subgraph(&g1, &g2, Objective::Edges);
        assert_eq!(m.edges(), 2);
        // Witness must be a valid mapping: labels preserved, edges shared.
        for &(u, v_) in &m.vertex_pairs {
            assert_eq!(g1.vertex_label(u), g2.vertex_label(v_));
        }
        for &(e1, e2) in &m.edge_pairs {
            assert_eq!(g1.edge_label(e1), g2.edge_label(e2));
        }
        // Materialized mcs graph is connected with the right size.
        let sub = m.as_graph(&g1);
        assert_eq!(sub.size(), 2);
        assert!(gss_graph::algo::is_connected(&sub));
    }

    #[test]
    fn empty_graphs() {
        let mut v = Vocabulary::new();
        let empty = GraphBuilder::new("e", &mut v).build().unwrap();
        let g = GraphBuilder::new("g", &mut v)
            .vertices(&["a", "b"], "A")
            .edge("a", "b", "-")
            .build()
            .unwrap();
        assert_eq!(mcs_edge_size(&empty, &g), 0);
        assert_eq!(mcs_edge_size(&g, &empty), 0);
        assert_eq!(mcs_edge_size(&empty, &empty), 0);
    }
}
