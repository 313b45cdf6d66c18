//! Induced maximum common subgraph via the modular product graph.
//!
//! The classical Levi/Bunke construction: vertices of the *modular product*
//! of `g1` and `g2` are label-compatible vertex pairs `(u, v)`; two product
//! vertices are adjacent when their underlying pairs are consistent — both
//! graphs have an equally-labeled edge between them, or neither has any
//! edge. Cliques of the product correspond exactly to common **induced**
//! subgraphs (not necessarily connected), so a maximum clique yields the
//! maximum common induced subgraph by vertex count.
//!
//! This complements [`crate::exact`] (which solves the paper's *connected,
//! non-induced, edge-count* variant): the two solve different problems, and
//! tests cross-check each against its own brute-force oracle plus the
//! inequalities that relate them.
//!
//! ## The clique kernel
//!
//! [`max_clique`] is a Tomita-style branch and bound (the MCQ/MCS family)
//! over a word-packed adjacency matrix ([`gss_graph::BitMatrix`]):
//!
//! * candidate sets are [`gss_graph::Bitset`]s held in per-depth reusable
//!   buffers; a child's candidate set is `P ∩ N(v)` — one word-parallel
//!   intersection — instead of a freshly allocated filtered `Vec` per
//!   search node;
//! * at every node the candidates are **greedily coloured**: vertices are
//!   partitioned into independent color classes, and a vertex of color `c`
//!   can extend the current clique `R` by at most `c` vertices (one per
//!   class). Branching processes candidates in descending color order and
//!   stops as soon as `|R| + c ≤ |best|` — a bound strictly stronger than
//!   the `|R| + |P|` cardinality bound the previous Bron–Kerbosch search
//!   used.
//!
//! The bound only ever *prunes* subtrees whose cliques provably cannot beat
//! the incumbent, so the result stays exact: every maximal clique larger
//! than the incumbent is still reached. The colouring changes the visit
//! order, so the specific maximum clique returned (among equals) and the
//! expanded-node count may differ from the reference search —
//! [`crate::reference::max_clique_reference`] is retained, and property
//! tests pin `new size == reference size` plus `new expanded ≤ reference
//! expanded` on a fixed workload.

use gss_graph::{BitMatrix, Bitset, Graph, VertexId};

/// Maximum clique of an undirected graph given as an adjacency matrix.
/// Returns vertex indices (ascending). See the module docs for the
/// algorithm.
///
/// Exponential worst case (the problem is NP-hard); intended for the small
/// product graphs of this domain.
///
/// # Panics
/// Panics when `adj` is not square or not symmetric (debug builds).
pub fn max_clique(adj: &[Vec<bool>]) -> Vec<usize> {
    max_clique_expanded(adj).0
}

/// [`max_clique`] plus the number of search-tree nodes expanded — the
/// counter the solver benchmarks and the CI regression gate consume.
pub fn max_clique_expanded(adj: &[Vec<bool>]) -> (Vec<usize>, u64) {
    let n = adj.len();
    let mut m = BitMatrix::new(n, n);
    for (i, row) in adj.iter().enumerate() {
        assert_eq!(row.len(), n, "adjacency matrix must be square");
        debug_assert!(!row[i], "no self-loops expected");
        for (j, &bit) in row.iter().enumerate() {
            debug_assert_eq!(bit, adj[j][i], "adjacency matrix must be symmetric");
            if bit {
                m.set(i, j);
            }
        }
    }
    max_clique_bitset(&m)
}

/// Maximum clique over a word-packed adjacency matrix (must be square,
/// symmetric, zero diagonal). Returns `(clique vertices ascending,
/// expanded-node count)`.
pub fn max_clique_bitset(adj: &BitMatrix) -> (Vec<usize>, u64) {
    let n = adj.rows();
    debug_assert_eq!(n, adj.cols(), "adjacency matrix must be square");
    let mut solver = CliqueSolver {
        adj,
        r: Vec::with_capacity(n),
        best: Vec::new(),
        cand: vec![Bitset::full(n)],
        orders: Vec::new(),
        colors: Vec::new(),
        scratch_uncolored: Bitset::new(n),
        scratch_class: Bitset::new(n),
        expanded: 0,
    };
    if n > 0 {
        solver.expand(0);
    }
    solver.best.sort_unstable();
    (solver.best, solver.expanded)
}

struct CliqueSolver<'a> {
    adj: &'a BitMatrix,
    /// The growing clique (vertex stack).
    r: Vec<usize>,
    best: Vec<usize>,
    /// Per-depth candidate sets: `cand[d]` is `P` at recursion depth `d`.
    cand: Vec<Bitset>,
    /// Per-depth colour-sort output buffers (vertices ascending by colour).
    orders: Vec<Vec<usize>>,
    colors: Vec<Vec<usize>>,
    scratch_uncolored: Bitset,
    scratch_class: Bitset,
    expanded: u64,
}

impl CliqueSolver<'_> {
    fn ensure_depth(&mut self, depth: usize) {
        let n = self.adj.rows();
        while self.cand.len() <= depth {
            self.cand.push(Bitset::new(n));
        }
        while self.orders.len() <= depth {
            self.orders.push(Vec::new());
            self.colors.push(Vec::new());
        }
    }

    fn expand(&mut self, depth: usize) {
        self.expanded += 1;
        self.ensure_depth(depth + 1);
        let mut order = std::mem::take(&mut self.orders[depth]);
        let mut colors = std::mem::take(&mut self.colors[depth]);
        color_sort(
            self.adj,
            &self.cand[depth],
            &mut self.scratch_uncolored,
            &mut self.scratch_class,
            &mut order,
            &mut colors,
        );
        // Descending colour order: once |R| + colour ≤ |best| fails here it
        // fails for every remaining (smaller-or-equal-colour) candidate.
        for i in (0..order.len()).rev() {
            if self.r.len() + colors[i] <= self.best.len() {
                break;
            }
            let v = order[i];
            self.r.push(v);
            let (head, tail) = self.cand.split_at_mut(depth + 1);
            let child = &mut tail[0];
            child.copy_from(&head[depth]);
            child.intersect_with_row(self.adj, v);
            if child.is_empty() {
                if self.r.len() > self.best.len() {
                    // Record into the reusable best buffer only on
                    // improvement — no per-node incumbent clone.
                    self.best.clear();
                    self.best.extend_from_slice(&self.r);
                }
            } else {
                self.expand(depth + 1);
            }
            self.r.pop();
            self.cand[depth].remove(v);
        }
        self.orders[depth] = order;
        self.colors[depth] = colors;
    }
}

/// Greedy colouring of `p`: repeatedly peel a maximal independent set (one
/// colour class) until every candidate is coloured. Outputs vertices in
/// ascending colour order with their colour numbers (1-based).
fn color_sort(
    adj: &BitMatrix,
    p: &Bitset,
    uncolored: &mut Bitset,
    class: &mut Bitset,
    order: &mut Vec<usize>,
    colors: &mut Vec<usize>,
) {
    order.clear();
    colors.clear();
    uncolored.copy_from(p);
    let mut color = 0usize;
    while let Some(seed) = uncolored.first() {
        color += 1;
        class.copy_from(uncolored);
        let mut v = seed;
        loop {
            class.remove(v);
            uncolored.remove(v);
            class.difference_with_row(adj, v);
            order.push(v);
            colors.push(color);
            match class.first() {
                Some(next) => v = next,
                None => break,
            }
        }
    }
}

/// A maximum common **induced** subgraph witness: matched vertex pairs.
#[derive(Clone, Debug, Default)]
pub struct InducedMcs {
    /// Matched `(g1 vertex, g2 vertex)` pairs, ascending by the g1 side.
    pub vertex_pairs: Vec<(VertexId, VertexId)>,
}

impl InducedMcs {
    /// Number of matched vertices.
    pub fn vertices(&self) -> usize {
        self.vertex_pairs.len()
    }

    /// Number of (shared) edges induced between the matched g1 vertices —
    /// by construction these all exist identically in g2.
    pub fn edges(&self, g1: &Graph) -> usize {
        let mut count = 0;
        for (i, &(u1, _)) in self.vertex_pairs.iter().enumerate() {
            for &(u2, _) in &self.vertex_pairs[i + 1..] {
                if g1.has_edge(u1, u2) {
                    count += 1;
                }
            }
        }
        count
    }
}

/// Computes a maximum common induced subgraph (vertex-count objective,
/// connectivity **not** required) via the modular product + max clique.
pub fn maximum_common_induced_subgraph(g1: &Graph, g2: &Graph) -> InducedMcs {
    // Product vertices: label-compatible pairs.
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for u in g1.vertices() {
        for v in g2.vertices() {
            if g1.vertex_label(u) == g2.vertex_label(v) {
                pairs.push((u, v));
            }
        }
    }
    let n = pairs.len();
    // The product adjacency goes straight into the word-packed matrix the
    // clique kernel consumes — no intermediate `Vec<Vec<bool>>`.
    let mut adj = BitMatrix::new(n, n);
    for i in 0..n {
        for j in i + 1..n {
            let (u1, v1) = pairs[i];
            let (u2, v2) = pairs[j];
            if u1 == u2 || v1 == v2 {
                continue; // injectivity
            }
            let e1 = g1.edge_between(u1, u2);
            let e2 = g2.edge_between(v1, v2);
            let consistent = match (e1, e2) {
                (Some(a), Some(b)) => g1.edge_label(a) == g2.edge_label(b),
                (None, None) => true,
                _ => false,
            };
            if consistent {
                adj.set_sym(i, j);
            }
        }
    }
    let (clique, _) = max_clique_bitset(&adj);
    let mut vertex_pairs: Vec<(VertexId, VertexId)> =
        clique.into_iter().map(|i| pairs[i]).collect();
    vertex_pairs.sort();
    InducedMcs { vertex_pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::max_clique_reference;
    use gss_graph::{random_graph, GraphBuilder, Rng, Vocabulary};

    #[test]
    fn max_clique_basics() {
        // Triangle plus pendant: max clique = the triangle.
        let adj = vec![
            vec![false, true, true, false],
            vec![true, false, true, false],
            vec![true, true, false, true],
            vec![false, false, true, false],
        ];
        assert_eq!(max_clique(&adj), vec![0, 1, 2]);
        // Empty graph: any single vertex.
        let empty = vec![vec![false; 3]; 3];
        assert_eq!(max_clique(&empty).len(), 1);
        // No vertices.
        assert!(max_clique(&[]).is_empty());
    }

    #[allow(clippy::needless_range_loop)] // symmetric matrix fill reads clearest indexed
    fn random_adj(rng: &mut Rng, n: usize, density_pct: usize) -> Vec<Vec<bool>> {
        let mut adj = vec![vec![false; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen_index(100) < density_pct {
                    adj[i][j] = true;
                    adj[j][i] = true;
                }
            }
        }
        adj
    }

    /// The clique itself must be a clique, and its size must match the
    /// retained reference search on random graphs across densities.
    #[test]
    fn matches_reference_search_on_random_graphs() {
        let mut rng = Rng::seed_from_u64(0x70317a);
        for case in 0..80 {
            let n = rng.gen_index(12);
            let density = 10 + rng.gen_index(80);
            let adj = random_adj(&mut rng, n, density);
            let (fast, fast_nodes) = max_clique_expanded(&adj);
            let (slow, slow_nodes) = max_clique_reference(&adj);
            assert_eq!(fast.len(), slow.len(), "case {case}: clique size");
            for (k, &a) in fast.iter().enumerate() {
                for &b in &fast[k + 1..] {
                    assert!(adj[a][b], "case {case}: witness must be a clique");
                }
            }
            // The colouring bound must not *grow* the search on these
            // small instances (it typically shrinks it dramatically).
            assert!(
                fast_nodes <= slow_nodes.max(n as u64 + 1),
                "case {case}: {fast_nodes} expanded vs reference {slow_nodes}"
            );
        }
    }

    #[test]
    fn identical_graphs_match_completely() {
        let mut v = Vocabulary::new();
        let g = GraphBuilder::new("g", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .cycle(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let m = maximum_common_induced_subgraph(&g, &g);
        assert_eq!(m.vertices(), 3);
        assert_eq!(m.edges(&g), 3);
    }

    #[test]
    fn induced_semantics_differ_from_non_induced() {
        // Pattern: path a-b-c. Host: triangle a-b-c. Non-induced mcs keeps
        // all 3 vertices (2 shared edges); *induced* cannot map all three
        // (the host's closing edge is absent in the path), so it matches
        // only 2 vertices.
        let mut v = Vocabulary::new();
        let path = GraphBuilder::new("p", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .path(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let tri = GraphBuilder::new("t", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .cycle(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let induced = maximum_common_induced_subgraph(&path, &tri);
        assert_eq!(induced.vertices(), 2);
        // Non-induced connected solver sees 2 shared edges.
        assert_eq!(crate::exact::mcs_edge_size(&path, &tri), 2);
    }

    /// Brute-force oracle: try all subsets of g1's vertices (by decreasing
    /// size) and all injections into g2, checking induced consistency.
    fn induced_oracle(g1: &Graph, g2: &Graph) -> usize {
        let n1 = g1.order();
        let mut best = 0usize;
        for mask in 0u32..(1 << n1) {
            let subset: Vec<VertexId> = (0..n1)
                .filter(|&i| mask & (1 << i) != 0)
                .map(VertexId::new)
                .collect();
            if subset.len() <= best {
                continue;
            }
            if injects(g1, g2, &subset, &mut Vec::new()) {
                best = subset.len();
            }
        }
        best
    }

    fn injects(g1: &Graph, g2: &Graph, subset: &[VertexId], map: &mut Vec<VertexId>) -> bool {
        if map.len() == subset.len() {
            return true;
        }
        let u = subset[map.len()];
        'cand: for v in g2.vertices() {
            if map.contains(&v) || g1.vertex_label(u) != g2.vertex_label(v) {
                continue;
            }
            for (k, &w) in map.iter().enumerate() {
                let e1 = g1.edge_between(u, subset[k]);
                let e2 = g2.edge_between(v, w);
                let ok = match (e1, e2) {
                    (Some(a), Some(b)) => g1.edge_label(a) == g2.edge_label(b),
                    (None, None) => true,
                    _ => false,
                };
                if !ok {
                    continue 'cand;
                }
            }
            map.push(v);
            if injects(g1, g2, subset, map) {
                map.pop();
                return true;
            }
            map.pop();
        }
        false
    }

    #[test]
    fn clique_solver_matches_brute_force_oracle() {
        let mut rng = Rng::seed_from_u64(0xC11);
        for case in 0..60 {
            let (n1, m1) = (1 + rng.gen_index(4), rng.gen_index(5));
            let (n2, m2) = (1 + rng.gen_index(4), rng.gen_index(5));
            let g1 = random_graph(&mut rng, n1, m1, 2, 1);
            let g2 = random_graph(&mut rng, n2, m2, 2, 1);
            let fast = maximum_common_induced_subgraph(&g1, &g2).vertices();
            let slow = induced_oracle(&g1, &g2);
            assert_eq!(fast, slow, "case {case}");
        }
    }

    #[test]
    fn induced_mcs_bounds_and_witness_validity() {
        let mut rng = Rng::seed_from_u64(0xC12);
        for case in 0..30 {
            let (n1, m1) = (1 + rng.gen_index(4), rng.gen_index(5));
            let (n2, m2) = (1 + rng.gen_index(4), rng.gen_index(5));
            let g1 = random_graph(&mut rng, n1, m1, 2, 1);
            let g2 = random_graph(&mut rng, n2, m2, 2, 1);
            let m = maximum_common_induced_subgraph(&g1, &g2);
            assert!(m.vertices() <= g1.order().min(g2.order()), "case {case}");
            // The witness must be an injective, label- and edge-consistent map.
            for (i, &(u1, v1)) in m.vertex_pairs.iter().enumerate() {
                assert_eq!(g1.vertex_label(u1), g2.vertex_label(v1), "case {case}");
                for &(u2, v2) in &m.vertex_pairs[i + 1..] {
                    assert_ne!(u1, u2, "case {case}: injective on g1");
                    assert_ne!(v1, v2, "case {case}: injective on g2");
                    let e1 = g1.edge_between(u1, u2);
                    let e2 = g2.edge_between(v1, v2);
                    let consistent = match (e1, e2) {
                        (Some(a), Some(b)) => g1.edge_label(a) == g2.edge_label(b),
                        (None, None) => true,
                        _ => false,
                    };
                    assert!(consistent, "case {case}: induced consistency violated");
                }
            }
        }
    }
}
