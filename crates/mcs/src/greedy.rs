//! Greedy multi-start approximation of the connected MCS.
//!
//! From every compatible seed edge pair, grow the mapping by the extension
//! pair with the largest immediate shared-edge gain (first in candidate
//! order on ties). Polynomial: `O(seeds · |V|² · Δ²)` in the worst case.
//! The result is a valid common connected subgraph, hence a **lower bound**
//! on `|mcs|`; `tests` verify it never exceeds the exact value and hits it
//! on easy instances.

use gss_graph::{Graph, VertexId};

use crate::exact::Mcs;

const UNMAPPED: u32 = u32::MAX;

struct State<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    map1: Vec<u32>,
    map2: Vec<u32>,
    edges: usize,
}

impl<'a> State<'a> {
    fn new(g1: &'a Graph, g2: &'a Graph) -> Self {
        State {
            g1,
            g2,
            map1: vec![UNMAPPED; g1.order()],
            map2: vec![UNMAPPED; g2.order()],
            edges: 0,
        }
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

    fn add(&mut self, u: VertexId, v: VertexId) {
        self.edges += self.gain(u, v);
        self.map1[u.index()] = v.0;
        self.map2[v.index()] = u.0;
    }

    fn best_extension(&self) -> Option<(VertexId, VertexId, usize)> {
        let mut best: Option<(VertexId, VertexId, usize)> = None;
        for (i, &m) in self.map1.iter().enumerate() {
            if m == UNMAPPED {
                continue;
            }
            let anchor1 = VertexId::new(i);
            let anchor2 = VertexId(m);
            for (u, eu) in self.g1.neighbors(anchor1) {
                if self.map1[u.index()] != UNMAPPED {
                    continue;
                }
                for (v, ev) in self.g2.neighbors(anchor2) {
                    if self.map2[v.index()] != UNMAPPED
                        || self.g1.vertex_label(u) != self.g2.vertex_label(v)
                        || self.g1.edge_label(eu) != self.g2.edge_label(ev)
                    {
                        continue;
                    }
                    let gain = self.gain(u, v);
                    if best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((u, v, gain));
                    }
                }
            }
        }
        best
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
}

/// Greedily approximates the maximum common connected subgraph.
///
/// Every compatible seed edge pair is tried, in deterministic id order; the
/// first largest grown mapping wins.
pub fn greedy_mcs(g1: &Graph, g2: &Graph) -> Mcs {
    let mut best = Mcs::default();
    for e1 in g1.edges() {
        let edge1 = *g1.edge(e1);
        for e2 in g2.edges() {
            let edge2 = *g2.edge(e2);
            if edge1.label != edge2.label {
                continue;
            }
            // Two orientations of the seed edge pair.
            for (su, sv) in [(edge2.u, edge2.v), (edge2.v, edge2.u)] {
                if g1.vertex_label(edge1.u) != g2.vertex_label(su)
                    || g1.vertex_label(edge1.v) != g2.vertex_label(sv)
                {
                    continue;
                }
                let mut st = State::new(g1, g2);
                st.add(edge1.u, su);
                st.add(edge1.v, sv);
                while let Some((u, v, gain)) = st.best_extension() {
                    debug_assert!(gain >= 1);
                    st.add(u, v);
                }
                if st.edges > best.edges() {
                    best = st.snapshot();
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::mcs_edge_size;
    use gss_graph::{random_graph, GraphBuilder, Rng, Vocabulary};

    #[test]
    fn greedy_finds_exact_on_subgraph_pairs() {
        let mut v = Vocabulary::new();
        let path = GraphBuilder::new("p", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .path(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let host = GraphBuilder::new("h", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .vertex("d", "D")
            .cycle(&["a", "b", "c", "d"], "-")
            .build()
            .unwrap();
        let m = greedy_mcs(&path, &host);
        assert_eq!(m.edges(), 2);
    }

    #[test]
    fn greedy_never_exceeds_exact() {
        let mut rng = Rng::seed_from_u64(77);
        for _ in 0..60 {
            let (n1, m1) = (3 + rng.gen_index(3), 2 + rng.gen_index(5));
            let (n2, m2) = (3 + rng.gen_index(3), 2 + rng.gen_index(5));
            let g1 = random_graph(&mut rng, n1, m1, 2, 1);
            let g2 = random_graph(&mut rng, n2, m2, 2, 1);
            let approx = greedy_mcs(&g1, &g2).edges();
            let exact = mcs_edge_size(&g1, &g2);
            assert!(approx <= exact, "greedy {approx} exceeded exact {exact}");
            // The greedy result must itself be a valid common subgraph.
            assert!(approx <= g1.size().min(g2.size()));
        }
    }

    #[test]
    fn empty_and_incompatible_inputs() {
        let mut v = Vocabulary::new();
        let empty = GraphBuilder::new("e", &mut v).build().unwrap();
        let g = GraphBuilder::new("g", &mut v)
            .vertices(&["a", "b"], "A")
            .edge("a", "b", "-")
            .build()
            .unwrap();
        assert_eq!(greedy_mcs(&empty, &g).edges(), 0);
        assert_eq!(greedy_mcs(&g, &empty).edges(), 0);
    }
}
