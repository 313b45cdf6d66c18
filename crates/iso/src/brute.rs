//! Brute-force (sub)graph isomorphism oracle.
//!
//! Checks every injective assignment of pattern vertices to target vertices.
//! Exponential, intended only for cross-checking [`crate::vf2`] on small
//! graphs in tests and for documentation of the exact matching semantics.

use gss_graph::{Graph, VertexId};

use crate::vf2::MatchMode;

/// True when some injective, label-preserving assignment satisfying `mode`
/// exists. Semantics identical to [`crate::vf2::find_embedding`].
pub fn exists_brute(pattern: &Graph, target: &Graph, mode: MatchMode) -> bool {
    if pattern.order() > target.order() {
        return false;
    }
    if mode == MatchMode::Isomorphism
        && (pattern.order() != target.order() || pattern.size() != target.size())
    {
        return false;
    }
    let mut map: Vec<Option<VertexId>> = vec![None; pattern.order()];
    let mut used = vec![false; target.order()];
    assign(pattern, target, mode, 0, &mut map, &mut used)
}

fn assign(
    pattern: &Graph,
    target: &Graph,
    mode: MatchMode,
    depth: usize,
    map: &mut Vec<Option<VertexId>>,
    used: &mut Vec<bool>,
) -> bool {
    if depth == pattern.order() {
        return check_complete(pattern, target, mode, map);
    }
    let p = VertexId::new(depth);
    for ti in 0..target.order() {
        if used[ti] {
            continue;
        }
        let t = VertexId::new(ti);
        if pattern.vertex_label(p) != target.vertex_label(t) {
            continue;
        }
        map[depth] = Some(t);
        used[ti] = true;
        if assign(pattern, target, mode, depth + 1, map, used) {
            return true;
        }
        map[depth] = None;
        used[ti] = false;
    }
    false
}

fn check_complete(
    pattern: &Graph,
    target: &Graph,
    mode: MatchMode,
    map: &[Option<VertexId>],
) -> bool {
    // Every pattern edge must exist in target with equal label.
    for e in pattern.edges() {
        let edge = pattern.edge(e);
        let tu = map[edge.u.index()].expect("complete assignment");
        let tv = map[edge.v.index()].expect("complete assignment");
        match target.edge_between(tu, tv) {
            Some(te) if target.edge_label(te) == edge.label => {}
            _ => return false,
        }
    }
    match mode {
        MatchMode::SubgraphNonInduced => true,
        MatchMode::Isomorphism => {
            // No target edge may connect images of a pattern non-edge.
            let mut inverse = vec![None; target.order()];
            for (pi, t) in map.iter().enumerate() {
                inverse[t.expect("complete").index()] = Some(VertexId::new(pi));
            }
            for e in target.edges() {
                let edge = target.edge(e);
                if let (Some(pu), Some(pv)) = (inverse[edge.u.index()], inverse[edge.v.index()]) {
                    match pattern.edge_between(pu, pv) {
                        Some(pe) if pattern.edge_label(pe) == edge.label => {}
                        _ => return false,
                    }
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf2::{find_embedding, MatchMode};
    use gss_graph::{random_graph, GraphBuilder, Rng, Vocabulary};

    #[test]
    fn vf2_agrees_with_brute_force_on_random_graphs() {
        let mut rng = Rng::seed_from_u64(0xfeed);
        for case in 0..200 {
            let np = 2 + rng.gen_index(4); // pattern: 2..=5 vertices
            let nt = np + rng.gen_index(3); // target: np..=np+2 vertices
            let pattern = random_graph(&mut rng, np, np + 1, 2, 2);
            let target = random_graph(&mut rng, nt, nt + 2, 2, 2);
            for mode in [MatchMode::SubgraphNonInduced, MatchMode::Isomorphism] {
                let fast = find_embedding(&pattern, &target, mode).is_some();
                let slow = exists_brute(&pattern, &target, mode);
                assert_eq!(fast, slow, "case {case}: mode {mode:?} disagreement");
            }
        }
    }

    #[test]
    fn brute_basic_sanity() {
        let mut v = Vocabulary::new();
        let edge = GraphBuilder::new("e", &mut v)
            .vertices(&["a", "b"], "C")
            .edge("a", "b", "-")
            .build()
            .unwrap();
        let triangle = GraphBuilder::new("t", &mut v)
            .vertices(&["x", "y", "z"], "C")
            .cycle(&["x", "y", "z"], "-")
            .build()
            .unwrap();
        assert!(exists_brute(
            &edge,
            &triangle,
            MatchMode::SubgraphNonInduced
        ));
        assert!(!exists_brute(
            &triangle,
            &edge,
            MatchMode::SubgraphNonInduced
        ));
        assert!(!exists_brute(&edge, &triangle, MatchMode::Isomorphism));
        assert!(exists_brute(&triangle, &triangle, MatchMode::Isomorphism));
    }
}
