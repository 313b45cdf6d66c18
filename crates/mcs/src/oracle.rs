//! A literal, executable transcription of Definition 7.
//!
//! "The maximum common subgraph of `g1` and `g2` is the largest connected
//! subgraph of `g1` that is subgraph-isomorphic to `g2`."
//!
//! This module enumerates edge subsets of `g1` in decreasing size and tests
//! each with `gss-iso`. Complexity is `O(2^|g1| · iso)`; it exists purely as
//! the ground truth that [`crate::exact`] and [`crate::greedy`] are verified
//! against (and as living documentation of the semantics).

use gss_graph::algo::largest_connected_edge_component;
use gss_graph::stats::mcs_upper_bound;
use gss_graph::{EdgeId, Graph};
use gss_iso::is_subgraph_isomorphic;

/// `|mcs(g1, g2)|` in edges, straight from Definition 7.
pub fn mcs_edges_by_definition(g1: &Graph, g2: &Graph) -> usize {
    let m = g1.size();
    let cap = (mcs_upper_bound(g1, g2) as usize).min(g2.size()).min(m);
    for k in (1..=cap).rev() {
        if any_connected_subset_embeds(g1, g2, k) {
            return k;
        }
    }
    0
}

fn any_connected_subset_embeds(g1: &Graph, g2: &Graph, k: usize) -> bool {
    let edges: Vec<EdgeId> = g1.edges().collect();
    let mut chosen: Vec<EdgeId> = Vec::with_capacity(k);
    subsets(&edges, 0, k, &mut chosen, &mut |subset| {
        if largest_connected_edge_component(g1, subset) != subset.len() {
            return false; // not connected as an edge set
        }
        let sub = g1.edge_induced_subgraph(subset);
        is_subgraph_isomorphic(&sub, g2)
    })
}

/// Enumerates k-subsets of `edges[from..]`, invoking `found` on each; stops
/// early (returning `true`) when `found` returns `true`.
fn subsets(
    edges: &[EdgeId],
    from: usize,
    k: usize,
    chosen: &mut Vec<EdgeId>,
    found: &mut impl FnMut(&[EdgeId]) -> bool,
) -> bool {
    if k == 0 {
        return found(chosen);
    }
    if edges.len() - from < k {
        return false;
    }
    for i in from..=(edges.len() - k) {
        chosen.push(edges[i]);
        if subsets(edges, i + 1, k - 1, chosen, found) {
            chosen.pop();
            return true;
        }
        chosen.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::mcs_edge_size;
    use gss_graph::{random_graph, GraphBuilder, Rng, Vocabulary};

    #[test]
    fn oracle_matches_worked_examples() {
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
        assert_eq!(mcs_edges_by_definition(&cycle, &path), 3);
        assert_eq!(mcs_edges_by_definition(&path, &cycle), 3);
        assert_eq!(mcs_edges_by_definition(&cycle, &cycle), 4);
    }

    #[test]
    fn exact_solver_matches_oracle_on_random_graphs() {
        let mut rng = Rng::seed_from_u64(0x5eed);
        for case in 0..120 {
            let (n1, m1) = (2 + rng.gen_index(4), 1 + rng.gen_index(6));
            let (n2, m2) = (2 + rng.gen_index(4), 1 + rng.gen_index(6));
            let g1 = random_graph(&mut rng, n1, m1, 2, 2);
            let g2 = random_graph(&mut rng, n2, m2, 2, 2);
            let fast = mcs_edge_size(&g1, &g2);
            let slow = mcs_edges_by_definition(&g1, &g2);
            assert_eq!(
                fast,
                slow,
                "case {case}: |g1|={} |g2|={}",
                g1.size(),
                g2.size()
            );
        }
    }

    #[test]
    fn exact_solver_matches_oracle_with_diverse_labels() {
        let mut rng = Rng::seed_from_u64(0xabcd);
        for case in 0..80 {
            let (n1, m1) = (3 + rng.gen_index(3), 2 + rng.gen_index(5));
            let (n2, m2) = (3 + rng.gen_index(3), 2 + rng.gen_index(5));
            let g1 = random_graph(&mut rng, n1, m1, 3, 1);
            let g2 = random_graph(&mut rng, n2, m2, 3, 1);
            assert_eq!(
                mcs_edge_size(&g1, &g2),
                mcs_edges_by_definition(&g1, &g2),
                "case {case}"
            );
        }
    }
}
