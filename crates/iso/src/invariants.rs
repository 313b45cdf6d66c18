//! Cheap necessary conditions for (sub)graph isomorphism.
//!
//! These filters are sound (they only reject when no match can exist) and
//! run in `O(|V| + |E|)`, so the matcher applies them before any search.

use gss_graph::stats::{edge_class_multiset, vertex_label_multiset};
use gss_graph::Graph;

use crate::vf2::MatchMode;

/// Returns `true` when `pattern` provably cannot match into `target` under
/// `mode`, using counting arguments only.
pub fn quick_reject(pattern: &Graph, target: &Graph, mode: MatchMode) -> bool {
    match mode {
        MatchMode::Isomorphism => {
            if pattern.order() != target.order() || pattern.size() != target.size() {
                return true;
            }
            if vertex_label_multiset(pattern) != vertex_label_multiset(target) {
                return true;
            }
            if edge_class_multiset(pattern) != edge_class_multiset(target) {
                return true;
            }
            if degree_histogram(pattern) != degree_histogram(target) {
                return true;
            }
            // Weisfeiler–Lehman fingerprints: a strictly stronger invariant
            // than all of the above; two refinement rounds are enough to
            // separate almost all non-isomorphic pairs at this domain's
            // graph sizes.
            if gss_graph::wl::wl_fingerprint(pattern, 2) != gss_graph::wl::wl_fingerprint(target, 2)
            {
                return true;
            }
            false
        }
        MatchMode::SubgraphNonInduced => {
            if pattern.order() > target.order() || pattern.size() > target.size() {
                return true;
            }
            // Every pattern vertex label must be available in the target in
            // sufficient multiplicity; likewise every edge class.
            let vp = vertex_label_multiset(pattern);
            let vt = vertex_label_multiset(target);
            if vp.intersection_size(&vt) < pattern.order() as u32 {
                return true;
            }
            let ep = edge_class_multiset(pattern);
            let et = edge_class_multiset(target);
            if ep.intersection_size(&et) < pattern.size() as u32 {
                return true;
            }
            false
        }
    }
}

fn degree_histogram(g: &Graph) -> Vec<usize> {
    let mut d: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    d.sort_unstable();
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::{GraphBuilder, Vocabulary};

    #[test]
    fn rejects_on_counts() {
        let mut v = Vocabulary::new();
        let small = GraphBuilder::new("s", &mut v)
            .vertices(&["a", "b"], "C")
            .edge("a", "b", "-")
            .build()
            .unwrap();
        let big = GraphBuilder::new("b", &mut v)
            .vertices(&["a", "b", "c"], "C")
            .path(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        assert!(quick_reject(&big, &small, MatchMode::SubgraphNonInduced));
        assert!(!quick_reject(&small, &big, MatchMode::SubgraphNonInduced));
        assert!(quick_reject(&small, &big, MatchMode::Isomorphism));
    }

    #[test]
    fn rejects_on_labels() {
        let mut v = Vocabulary::new();
        let carbon = GraphBuilder::new("c", &mut v)
            .vertices(&["a", "b"], "C")
            .edge("a", "b", "-")
            .build()
            .unwrap();
        let nitrogen = GraphBuilder::new("n", &mut v)
            .vertices(&["a", "b"], "N")
            .edge("a", "b", "-")
            .build()
            .unwrap();
        assert!(quick_reject(
            &carbon,
            &nitrogen,
            MatchMode::SubgraphNonInduced
        ));
        assert!(quick_reject(&carbon, &nitrogen, MatchMode::Isomorphism));
    }

    #[test]
    fn rejects_on_degree_histogram_for_iso() {
        let mut v = Vocabulary::new();
        // Star vs path: same order, size, labels — different degrees.
        let star = GraphBuilder::new("star", &mut v)
            .vertices(&["c", "x", "y", "z"], "C")
            .edge("c", "x", "-")
            .edge("c", "y", "-")
            .edge("c", "z", "-")
            .build()
            .unwrap();
        let path = GraphBuilder::new("path", &mut v)
            .vertices(&["a", "b", "c", "d"], "C")
            .path(&["a", "b", "c", "d"], "-")
            .build()
            .unwrap();
        assert!(quick_reject(&star, &path, MatchMode::Isomorphism));
    }

    #[test]
    fn accepts_potential_matches() {
        let mut v = Vocabulary::new();
        let a = GraphBuilder::new("a", &mut v)
            .vertices(&["x", "y", "z"], "C")
            .cycle(&["x", "y", "z"], "-")
            .build()
            .unwrap();
        assert!(!quick_reject(&a, &a, MatchMode::Isomorphism));
    }
}
