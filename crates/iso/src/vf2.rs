//! VF2-style backtracking matcher for labeled undirected graphs.
//!
//! The matcher keeps both graphs' adjacency as word-packed
//! [`gss_graph::BitMatrix`]es and the set of already-mapped target vertices
//! as a [`gss_graph::Bitset`]: feasibility checks test adjacency in `O(1)`
//! words before touching edge labels, and candidate generation intersects
//! the anchor image's neighbour row with the unmapped-target mask into a
//! per-depth reusable buffer — one word-parallel operation per search node
//! instead of a freshly allocated filtered `Vec`.

use gss_graph::{BitMatrix, Bitset, Graph, VertexId};

use crate::invariants;

/// What kind of correspondence to search for.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MatchMode {
    /// A label-preserving bijection; edges must correspond in both
    /// directions (Definition 4 of the paper).
    Isomorphism,
    /// A label-preserving injection; every *pattern* edge must exist in the
    /// target with an equal label, extra target edges are allowed
    /// (Definition 5 — the paper's `⊆`).
    SubgraphNonInduced,
}

/// A pattern → target vertex mapping found by the matcher.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Embedding {
    /// `map[p]` is the target vertex that pattern vertex `p` maps to.
    pub map: Vec<VertexId>,
}

impl Embedding {
    /// Image of a pattern vertex.
    pub fn image(&self, p: VertexId) -> VertexId {
        self.map[p.index()]
    }
}

struct Matcher<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    mode: MatchMode,
    /// pattern vertex -> mapped target vertex (or u32::MAX)
    core_p: Vec<u32>,
    /// target vertex -> mapped pattern vertex (or u32::MAX)
    core_t: Vec<u32>,
    /// word-packed adjacency of the pattern (O(1) edge tests).
    pattern_adj: BitMatrix,
    /// word-packed adjacency of the target.
    target_adj: BitMatrix,
    /// currently mapped target vertices, as a word mask.
    mapped_t: Bitset,
    /// per-depth candidate masks, reused across the whole search.
    cand_bufs: Vec<Bitset>,
    /// static matching order of pattern vertices (connectivity-first)
    order: Vec<VertexId>,
    /// collected results
    found: Vec<Embedding>,
    /// stop after this many embeddings
    limit: usize,
}

const UNMAPPED: u32 = u32::MAX;

impl<'a> Matcher<'a> {
    fn new(pattern: &'a Graph, target: &'a Graph, mode: MatchMode, limit: usize) -> Self {
        Matcher {
            pattern,
            target,
            mode,
            core_p: vec![UNMAPPED; pattern.order()],
            core_t: vec![UNMAPPED; target.order()],
            pattern_adj: BitMatrix::adjacency(pattern),
            target_adj: BitMatrix::adjacency(target),
            mapped_t: Bitset::new(target.order()),
            cand_bufs: Vec::new(),
            order: matching_order(pattern),
            found: Vec::new(),
            limit,
        }
    }

    /// Would mapping `p -> t` be consistent with the current partial map?
    fn feasible(&self, p: VertexId, t: VertexId) -> bool {
        if self.pattern.vertex_label(p) != self.target.vertex_label(t) {
            return false;
        }
        match self.mode {
            MatchMode::Isomorphism => {
                if self.pattern.degree(p) != self.target.degree(t) {
                    return false;
                }
            }
            MatchMode::SubgraphNonInduced => {
                if self.pattern.degree(p) > self.target.degree(t) {
                    return false;
                }
            }
        }
        // Every mapped pattern-neighbor of p must be adjacent to t with an
        // equal edge label. The adjacency word test settles the common
        // negative case before any edge lookup.
        for (pn, pe) in self.pattern.neighbors(p) {
            let tn = self.core_p[pn.index()];
            if tn == UNMAPPED {
                continue;
            }
            if !self.target_adj.test(t.index(), tn as usize) {
                return false;
            }
            let te = self
                .target
                .edge_between(t, VertexId(tn))
                .expect("adjacency matrix and edge set agree");
            if self.target.edge_label(te) != self.pattern.edge_label(pe) {
                return false;
            }
        }
        // For isomorphism: every mapped target-neighbor of t must map back
        // to a pattern-neighbor of p (edges cannot appear from nowhere).
        if self.mode == MatchMode::Isomorphism {
            for (tn, te) in self.target.neighbors(t) {
                let pn = self.core_t[tn.index()];
                if pn == UNMAPPED {
                    continue;
                }
                if !self.pattern_adj.test(p.index(), pn as usize) {
                    return false;
                }
                let pe = self
                    .pattern
                    .edge_between(p, VertexId(pn))
                    .expect("adjacency matrix and edge set agree");
                if self.pattern.edge_label(pe) != self.target.edge_label(te) {
                    return false;
                }
            }
        }
        true
    }

    fn recurse(&mut self, depth: usize) {
        if self.found.len() >= self.limit {
            return;
        }
        if depth == self.order.len() {
            // The one allocation in the recursion: one per found embedding,
            // bounded by `limit`, never per search node.
            let map = self.core_p.iter().map(|&t| VertexId(t)).collect();
            self.found.push(Embedding { map });
            return;
        }
        let p = self.order[depth];
        // Candidate generation: if p has a mapped neighbor, only target
        // vertices adjacent to that neighbor's image can work; otherwise try
        // every unmapped target vertex.
        let anchor = self.pattern.neighbors(p).find_map(|(pn, _)| {
            let t = self.core_p[pn.index()];
            (t != UNMAPPED).then_some(VertexId(t))
        });
        match anchor {
            Some(a) => {
                // Candidates = N(image of anchor) \ mapped, as one
                // word-parallel row intersection into the per-depth mask.
                if self.cand_bufs.len() <= depth {
                    let n = self.target.order();
                    self.cand_bufs.resize_with(depth + 1, || Bitset::new(n));
                }
                let mut cand = std::mem::take(&mut self.cand_bufs[depth]);
                cand.assign_row(&self.target_adj, a.index());
                cand.difference_with(&self.mapped_t);
                for ti in cand.iter() {
                    self.try_pair(p, VertexId::new(ti), depth);
                    if self.found.len() >= self.limit {
                        break;
                    }
                }
                self.cand_bufs[depth] = cand;
            }
            None => {
                for ti in 0..self.target.order() {
                    let t = VertexId::new(ti);
                    if self.core_t[ti] == UNMAPPED {
                        self.try_pair(p, t, depth);
                        if self.found.len() >= self.limit {
                            return;
                        }
                    }
                }
            }
        }
    }

    fn try_pair(&mut self, p: VertexId, t: VertexId, depth: usize) {
        if !self.feasible(p, t) {
            return;
        }
        self.core_p[p.index()] = t.0;
        self.core_t[t.index()] = p.0;
        self.mapped_t.insert(t.index());
        self.recurse(depth + 1);
        self.core_p[p.index()] = UNMAPPED;
        self.core_t[t.index()] = UNMAPPED;
        self.mapped_t.remove(t.index());
    }
}

/// A static matching order: starts from the highest-degree vertex of each
/// component and expands via adjacency, so each step (after the first per
/// component) has a mapped anchor neighbor.
fn matching_order(pattern: &Graph) -> Vec<VertexId> {
    let n = pattern.order();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        // Seed: unplaced vertex with max degree (rarest-first would also work;
        // degree is a good cheap proxy at this scale).
        let seed = (0..n)
            .filter(|&i| !placed[i])
            .max_by_key(|&i| pattern.degree(VertexId::new(i)))
            .expect("some vertex remains");
        let mut frontier = vec![VertexId::new(seed)];
        placed[seed] = true;
        while let Some(v) = frontier.pop() {
            order.push(v);
            // Expand neighbors in decreasing degree for better pruning.
            let mut ns: Vec<VertexId> = pattern
                .neighbors(v)
                .map(|(n, _)| n)
                .filter(|n| !placed[n.index()])
                .collect();
            ns.sort_by_key(|n| std::cmp::Reverse(pattern.degree(*n)));
            for n in ns {
                if !placed[n.index()] {
                    placed[n.index()] = true;
                    frontier.push(n);
                }
            }
        }
    }
    order
}

/// Finds one embedding of `pattern` into `target` under `mode`.
///
/// Returns `None` when no embedding exists. An empty pattern embeds into any
/// target for the subgraph modes, and only into an empty target for
/// [`MatchMode::Isomorphism`].
pub fn find_embedding(pattern: &Graph, target: &Graph, mode: MatchMode) -> Option<Embedding> {
    enumerate_embeddings(pattern, target, mode, 1)
        .into_iter()
        .next()
}

/// Enumerates up to `limit` embeddings of `pattern` into `target`.
pub fn enumerate_embeddings(
    pattern: &Graph,
    target: &Graph,
    mode: MatchMode,
    limit: usize,
) -> Vec<Embedding> {
    if limit == 0 || invariants::quick_reject(pattern, target, mode) {
        return Vec::new();
    }
    let mut m = Matcher::new(pattern, target, mode, limit);
    m.recurse(0);
    m.found
}

/// Label-preserving graph isomorphism (Definition 4).
pub fn are_isomorphic(g1: &Graph, g2: &Graph) -> bool {
    find_embedding(g1, g2, MatchMode::Isomorphism).is_some()
}

/// Non-induced, label-preserving subgraph isomorphism: is `pattern ⊆ target`
/// (Definition 5/6)?
pub fn is_subgraph_isomorphic(pattern: &Graph, target: &Graph) -> bool {
    find_embedding(pattern, target, MatchMode::SubgraphNonInduced).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::{GraphBuilder, Vocabulary};

    fn vocab() -> Vocabulary {
        Vocabulary::new()
    }

    #[test]
    fn triangle_automorphisms() {
        let mut v = vocab();
        let t = GraphBuilder::new("t", &mut v)
            .vertices(&["a", "b", "c"], "C")
            .cycle(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        // All 6 permutations are label-preserving automorphisms.
        assert_eq!(
            enumerate_embeddings(&t, &t, MatchMode::Isomorphism, usize::MAX).len(),
            6
        );
    }

    #[test]
    fn labels_break_symmetry() {
        let mut v = vocab();
        let t = GraphBuilder::new("t", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .cycle(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        assert_eq!(
            enumerate_embeddings(&t, &t, MatchMode::Isomorphism, usize::MAX).len(),
            1
        );
    }

    #[test]
    fn edge_labels_matter() {
        let mut v = vocab();
        let single = GraphBuilder::new("s", &mut v)
            .vertices(&["a", "b"], "C")
            .edge("a", "b", "-")
            .build()
            .unwrap();
        let double = GraphBuilder::new("d", &mut v)
            .vertices(&["a", "b"], "C")
            .edge("a", "b", "=")
            .build()
            .unwrap();
        assert!(!are_isomorphic(&single, &double));
        assert!(!is_subgraph_isomorphic(&single, &double));
    }

    #[test]
    fn path_into_cycle_non_induced() {
        let mut v = vocab();
        let path = GraphBuilder::new("p", &mut v)
            .vertices(&["a", "b", "c", "d"], "C")
            .path(&["a", "b", "c", "d"], "-")
            .build()
            .unwrap();
        let cycle = GraphBuilder::new("c", &mut v)
            .vertices(&["w", "x", "y", "z"], "C")
            .cycle(&["w", "x", "y", "z"], "-")
            .build()
            .unwrap();
        // A 4-path maps onto a 4-cycle non-induced (the closing edge is extra)…
        assert!(is_subgraph_isomorphic(&path, &cycle));
        // …but the 4-cycle is not a subgraph of the 4-path.
        assert!(!is_subgraph_isomorphic(&cycle, &path));
    }

    #[test]
    fn empty_pattern_cases() {
        let mut v = vocab();
        let empty = GraphBuilder::new("e", &mut v).build().unwrap();
        let g = GraphBuilder::new("g", &mut v)
            .vertex("a", "A")
            .build()
            .unwrap();
        assert!(is_subgraph_isomorphic(&empty, &g));
        assert!(are_isomorphic(&empty, &empty));
        assert!(!are_isomorphic(&empty, &g));
        assert!(!are_isomorphic(&g, &empty));
    }

    #[test]
    fn disconnected_pattern() {
        let mut v = vocab();
        let two_edges = GraphBuilder::new("p", &mut v)
            .vertices(&["a", "b", "c", "d"], "C")
            .edge("a", "b", "-")
            .edge("c", "d", "-")
            .build()
            .unwrap();
        let path3 = GraphBuilder::new("t", &mut v)
            .vertices(&["x", "y", "z"], "C")
            .path(&["x", "y", "z"], "-")
            .build()
            .unwrap();
        // Needs 4 distinct target vertices — a 3-path cannot host it.
        assert!(!is_subgraph_isomorphic(&two_edges, &path3));
        let path4 = GraphBuilder::new("t4", &mut v)
            .vertices(&["x", "y", "z", "w"], "C")
            .path(&["x", "y", "z", "w"], "-")
            .build()
            .unwrap();
        assert!(is_subgraph_isomorphic(&two_edges, &path4));
    }

    #[test]
    fn embedding_is_a_valid_map() {
        let mut v = vocab();
        let pattern = GraphBuilder::new("p", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .edge("a", "b", "-")
            .build()
            .unwrap();
        let target = GraphBuilder::new("t", &mut v)
            .vertex("x", "B")
            .vertex("y", "A")
            .vertex("z", "C")
            .edge("y", "x", "-")
            .edge("x", "z", "-")
            .build()
            .unwrap();
        let emb = find_embedding(&pattern, &target, MatchMode::SubgraphNonInduced).unwrap();
        // a(A) must map to y(A), b(B) to x(B).
        assert_eq!(emb.image(VertexId::new(0)), VertexId::new(1));
        assert_eq!(emb.image(VertexId::new(1)), VertexId::new(0));
    }

    #[test]
    fn count_respects_cap() {
        let mut v = vocab();
        let t = GraphBuilder::new("t", &mut v)
            .vertices(&["a", "b", "c"], "C")
            .cycle(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        assert_eq!(
            enumerate_embeddings(&t, &t, MatchMode::Isomorphism, 4).len(),
            4
        );
        assert_eq!(
            enumerate_embeddings(&t, &t, MatchMode::Isomorphism, 0).len(),
            0
        );
    }

    #[test]
    fn isomorphism_is_an_equivalence_on_samples() {
        let mut v = vocab();
        // Same structure entered in different vertex orders.
        let g1 = GraphBuilder::new("g1", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .path(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let g2 = GraphBuilder::new("g2", &mut v)
            .vertex("c", "C")
            .vertex("a", "A")
            .vertex("b", "B")
            .path(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        assert!(are_isomorphic(&g1, &g1));
        assert!(are_isomorphic(&g1, &g2));
        assert!(are_isomorphic(&g2, &g1));
    }
}
