//! Parity of the rewritten bitset kernels against the retained reference
//! implementations (`gss_mcs::reference`).
//!
//! The connected-MCS rewrite preserves the search order, so costs,
//! witnesses *and* expanded-node counts must be identical for both
//! objectives. The clique rewrite changes the visit order (the colouring
//! bound), so only the clique size is pinned — plus a fixed-workload
//! regression bound asserting the colouring search does not expand more
//! nodes than the reference.

use gss_graph::{random_graph, Graph, Rng};
use gss_mcs::reference::{max_clique_reference, maximum_common_subgraph_reference};
use gss_mcs::{max_clique_expanded, maximum_common_subgraph_expanded, Mcs, Objective};

/// A connected-MCS solver: witness and expanded-node count.
type McsSolver = fn(&Graph, &Graph, Objective) -> (Mcs, u64);
/// A max-clique solver: clique vertices and expanded-node count.
type CliqueSolver = fn(&[Vec<bool>]) -> (Vec<usize>, u64);

/// `[kernel, reference]` pairs, each under one signature: if either side's
/// signature drifts, its array stops compiling.
const MCS: [McsSolver; 2] = [
    maximum_common_subgraph_expanded,
    maximum_common_subgraph_reference,
];
const CLIQUE: [CliqueSolver; 2] = [max_clique_expanded, max_clique_reference];

#[test]
fn connected_mcs_is_bit_identical_to_reference_both_objectives() {
    let mut rng = Rng::seed_from_u64(0x9a417e);
    for case in 0..120 {
        let (n1, m1) = (1 + rng.gen_index(6), rng.gen_index(8));
        let (n2, m2) = (1 + rng.gen_index(6), rng.gen_index(8));
        let labels = 1 + rng.gen_index(3) as u32;
        let g1 = random_graph(&mut rng, n1, m1, labels, 2);
        let g2 = random_graph(&mut rng, n2, m2, labels, 2);
        for objective in [Objective::Edges, Objective::Vertices] {
            let [(fast, fast_nodes), (slow, slow_nodes)] =
                MCS.map(|solve| solve(&g1, &g2, objective));
            assert_eq!(
                fast.vertex_pairs, slow.vertex_pairs,
                "case {case} {objective:?}: vertex witness"
            );
            assert_eq!(
                fast.edge_pairs, slow.edge_pairs,
                "case {case} {objective:?}: edge witness"
            );
            assert_eq!(
                fast_nodes, slow_nodes,
                "case {case} {objective:?}: search order must be preserved"
            );
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)] // symmetric matrix fill reads clearest indexed
fn clique_size_matches_reference_on_random_matrices() {
    let mut rng = Rng::seed_from_u64(0xc11c);
    for case in 0..100 {
        let n = rng.gen_index(13);
        let density = 5 + rng.gen_index(90);
        let mut adj = vec![vec![false; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen_index(100) < density {
                    adj[i][j] = true;
                    adj[j][i] = true;
                }
            }
        }
        let [(fast, _), (slow, _)] = CLIQUE.map(|solve| solve(&adj));
        assert_eq!(fast.len(), slow.len(), "case {case}: clique size");
    }
}

/// Pinned node-count regression on a fixed workload: the colouring bound
/// must keep the clique search at or below the reference node count, and
/// the connected-MCS rewrite must match the reference count exactly.
#[test]
#[allow(clippy::needless_range_loop)] // symmetric matrix fill reads clearest indexed
fn pinned_node_counts_on_fixed_workload() {
    let mut rng = Rng::seed_from_u64(0xf1bed);
    let mut clique_new = 0u64;
    let mut clique_ref = 0u64;
    let mut mcs_new = 0u64;
    let mut mcs_ref = 0u64;
    for _ in 0..20 {
        let n = 8 + rng.gen_index(4);
        let mut adj = vec![vec![false; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen_index(100) < 55 {
                    adj[i][j] = true;
                    adj[j][i] = true;
                }
            }
        }
        let [new, reference] = CLIQUE.map(|solve| solve(&adj).1);
        clique_new += new;
        clique_ref += reference;

        let g1 = random_graph(&mut rng, 6, 8, 2, 2);
        let g2 = random_graph(&mut rng, 6, 8, 2, 2);
        let [new, reference] = MCS.map(|solve| solve(&g1, &g2, Objective::Edges).1);
        mcs_new += new;
        mcs_ref += reference;
    }
    assert!(
        clique_new <= clique_ref,
        "colouring bound regressed: {clique_new} > reference {clique_ref}"
    );
    assert_eq!(
        mcs_new, mcs_ref,
        "connected-MCS search order must be preserved"
    );
}
