//! Retained reference implementations of the pre-bitset solver kernels.
//!
//! The word-parallel kernels in [`crate::product`] and [`crate::exact`]
//! were rewritten for speed; these are the straightforward implementations
//! they replaced, kept verbatim (plus expanded-node counters) so that
//!
//! * property tests can assert the optimized kernels return identical
//!   sizes/costs — and, where the search order is preserved, identical
//!   witnesses — on random inputs, and
//! * `tests/cross_solver.rs::smoke_workload_solver_sweep_stays_within_recorded_expansion_baselines`
//!   can gate the kernels' expanded-node counts against the exact code
//!   they replaced.
//!
//! Nothing in the query pipeline calls these; they are test and benchmark
//! substrate only.

use gss_graph::stats::mcs_upper_bound;
use gss_graph::{Graph, VertexId};

use crate::exact::{Mcs, Objective};

/// Maximum clique via the original Bron–Kerbosch-with-pivoting search over
/// a `Vec<Vec<bool>>` adjacency matrix, as shipped before the Tomita
/// rewrite. Returns `(clique vertices ascending, nodes expanded)`.
///
/// # Panics
/// Panics when `adj` is not square (and, in debug builds, when the diagonal
/// is set).
pub fn max_clique_reference(adj: &[Vec<bool>]) -> (Vec<usize>, u64) {
    let n = adj.len();
    for (i, row) in adj.iter().enumerate() {
        assert_eq!(row.len(), n, "adjacency matrix must be square");
        debug_assert!(!row[i], "no self-loops expected");
    }
    let mut best: Vec<usize> = Vec::new();
    let mut r: Vec<usize> = Vec::new();
    let p: Vec<usize> = (0..n).collect();
    let x: Vec<usize> = Vec::new();
    let mut expanded = 0u64;
    bron_kerbosch(adj, &mut r, p, x, &mut best, &mut expanded);
    best.sort_unstable();
    (best, expanded)
}

fn bron_kerbosch(
    adj: &[Vec<bool>],
    r: &mut Vec<usize>,
    p: Vec<usize>,
    x: Vec<usize>,
    best: &mut Vec<usize>,
    expanded: &mut u64,
) {
    *expanded += 1;
    if p.is_empty() && x.is_empty() {
        if r.len() > best.len() {
            *best = r.clone();
        }
        return;
    }
    // Bound: even taking all of P cannot beat the incumbent.
    if r.len() + p.len() <= best.len() {
        return;
    }
    // Pivot: vertex of P ∪ X with most neighbors in P.
    let pivot = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| p.iter().filter(|&&w| adj[u][w]).count())
        .expect("P ∪ X non-empty here");
    let candidates: Vec<usize> = p.iter().copied().filter(|&u| !adj[pivot][u]).collect();

    let mut p = p;
    let mut x = x;
    for u in candidates {
        let p_next: Vec<usize> = p.iter().copied().filter(|&w| adj[u][w]).collect();
        let x_next: Vec<usize> = x.iter().copied().filter(|&w| adj[u][w]).collect();
        r.push(u);
        bron_kerbosch(adj, r, p_next, x_next, best, expanded);
        r.pop();
        p.retain(|&w| w != u);
        x.push(u);
    }
}

const UNMAPPED: u32 = u32::MAX;

/// The original connected-MCS branch-and-bound solver (per-node `Vec`
/// allocation in `candidates`, full rescans in the potential bound), kept
/// as the byte-identical-witness reference for [`crate::exact`]. Returns
/// the witness plus the number of search nodes expanded.
pub fn maximum_common_subgraph_reference(
    g1: &Graph,
    g2: &Graph,
    objective: Objective,
) -> (Mcs, u64) {
    let global_bound = mcs_upper_bound(g1, g2) as usize;
    let mut solver = RefSolver {
        g1,
        g2,
        objective,
        map1: vec![UNMAPPED; g1.order()],
        map2: vec![UNMAPPED; g2.order()],
        banned: vec![false; g1.order()],
        score_edges: 0,
        best: Mcs::default(),
        best_key: (0, 0),
        global_bound,
        done: false,
        expanded: 0,
    };
    for root in 0..g1.order() {
        if solver.done {
            break;
        }
        let u = VertexId::new(root);
        for v in g2.vertices() {
            if g1.vertex_label(u) != g2.vertex_label(v) {
                continue;
            }
            solver.map1[u.index()] = v.0;
            solver.map2[v.index()] = u.0;
            solver.extend();
            solver.map1[u.index()] = UNMAPPED;
            solver.map2[v.index()] = UNMAPPED;
            if solver.done {
                break;
            }
        }
        solver.banned[root] = true;
    }
    (solver.best, solver.expanded)
}

struct RefSolver<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    objective: Objective,
    map1: Vec<u32>,
    map2: Vec<u32>,
    banned: Vec<bool>,
    score_edges: usize,
    best: Mcs,
    best_key: (usize, usize),
    global_bound: usize,
    done: bool,
    expanded: u64,
}

impl RefSolver<'_> {
    fn key(&self, edges: usize, vertices: usize) -> (usize, usize) {
        match self.objective {
            Objective::Edges => (edges, vertices),
            Objective::Vertices => (vertices, edges),
        }
    }

    fn mapped_vertices(&self) -> usize {
        self.map1.iter().filter(|&&m| m != UNMAPPED).count()
    }

    fn record_if_better(&mut self) {
        let vertices = self.mapped_vertices();
        let key = self.key(self.score_edges, vertices);
        if key > self.best_key {
            self.best_key = key;
            self.best = self.snapshot();
            if self.objective == Objective::Edges && self.score_edges >= self.global_bound {
                self.done = true; // provably optimal
            }
        }
    }

    fn snapshot(&self) -> Mcs {
        let mut vertex_pairs = Vec::new();
        for (i, &m) in self.map1.iter().enumerate() {
            if m != UNMAPPED {
                vertex_pairs.push((VertexId::new(i), VertexId(m)));
            }
        }
        let mut edge_pairs = Vec::new();
        for e1 in self.g1.edges() {
            let edge = self.g1.edge(e1);
            let (mu, mv) = (self.map1[edge.u.index()], self.map1[edge.v.index()]);
            if mu == UNMAPPED || mv == UNMAPPED {
                continue;
            }
            if let Some(e2) = self.g2.edge_between(VertexId(mu), VertexId(mv)) {
                if self.g2.edge_label(e2) == edge.label {
                    edge_pairs.push((e1, e2));
                }
            }
        }
        Mcs {
            vertex_pairs,
            edge_pairs,
        }
    }

    fn potential1(&self) -> usize {
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

    fn potential2(&self) -> usize {
        self.g2
            .edges()
            .filter(|&e| {
                let edge = self.g2.edge(e);
                self.map2[edge.u.index()] == UNMAPPED || self.map2[edge.v.index()] == UNMAPPED
            })
            .count()
    }

    fn gain(&self, u: VertexId, v: VertexId) -> usize {
        let mut gain = 0;
        for (w, ew) in self.g1.neighbors(u) {
            let mw = self.map1[w.index()];
            if mw == UNMAPPED {
                continue;
            }
            if let Some(e2) = self.g2.edge_between(v, VertexId(mw)) {
                if self.g2.edge_label(e2) == self.g1.edge_label(ew) {
                    gain += 1;
                }
            }
        }
        gain
    }

    fn candidates(&self) -> Vec<(VertexId, VertexId)> {
        let mut out: Vec<(VertexId, VertexId)> = Vec::new();
        for (i, &m) in self.map1.iter().enumerate() {
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
                    if !out.contains(&(u, v)) {
                        out.push((u, v));
                    }
                }
            }
        }
        out.sort_by_key(|&(u, v)| std::cmp::Reverse(self.gain(u, v)));
        out
    }

    fn extend(&mut self) {
        if self.done {
            return;
        }
        self.expanded += 1;
        self.record_if_better();
        if self.done {
            return;
        }
        let potential = self.potential1().min(self.potential2());
        let bound_key = match self.objective {
            Objective::Edges => (self.score_edges + potential, usize::MAX),
            Objective::Vertices => (self.mapped_vertices() + potential, usize::MAX),
        };
        if bound_key <= self.best_key {
            return;
        }
        for (u, v) in self.candidates() {
            let gain = self.gain(u, v);
            debug_assert!(gain >= 1, "candidates must attach via a shared edge");
            self.map1[u.index()] = v.0;
            self.map2[v.index()] = u.0;
            self.score_edges += gain;
            self.extend();
            self.score_edges -= gain;
            self.map1[u.index()] = UNMAPPED;
            self.map2[v.index()] = UNMAPPED;
            if self.done {
                return;
            }
        }
    }
}
