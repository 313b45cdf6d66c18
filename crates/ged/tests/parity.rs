//! Parity of the incremental-bound exact solver against the retained
//! rescanning reference (`gss_ged::reference::reference_exact_ged`).
//!
//! Unlimited searches add the admissible cross-edge bound term: costs,
//! witness mappings and the `exact` flag must still match exactly
//! (tightening an admissible bound never changes what branch and bound
//! returns — the incumbent only advances on strict improvement), while
//! `expanded` may only shrink. Budgeted searches disable the extra term,
//! so there everything — `expanded` included — must be bit-identical.

use gss_ged::bipartite::bipartite_ged;
use gss_ged::reference::reference_exact_ged;
use gss_ged::{exact_ged, CostModel, GedOptions, GedResult};
use gss_graph::{random_graph, Graph, Rng};

/// `[kernel, reference]` under one signature: if either one's signature
/// drifts, this array stops compiling.
const SOLVERS: [fn(&Graph, &Graph, &GedOptions) -> GedResult; 2] = [exact_ged, reference_exact_ged];

/// Runs both solvers on one input: `[kernel result, reference result]`.
fn both(g1: &Graph, g2: &Graph, options: &GedOptions) -> [GedResult; 2] {
    SOLVERS.map(|solve| solve(g1, g2, options))
}

fn cost_models() -> Vec<CostModel> {
    vec![
        CostModel::uniform(),
        CostModel::structure_weighted(3.0),
        // Asymmetric model: insertions cheap, deletions expensive.
        CostModel {
            vertex_ins: 0.5,
            vertex_del: 2.0,
            vertex_rel: 1.5,
            edge_ins: 0.25,
            edge_del: 1.75,
            edge_rel: 0.75,
        },
    ]
}

/// `a` is the rewritten solver's result, `b` the reference's. With
/// `expanded_equal` the node counts must match exactly (budgeted runs);
/// otherwise the rewrite may only expand fewer nodes.
fn assert_identical([a, b]: &[GedResult; 2], expanded_equal: bool, context: &str) {
    assert_eq!(a.cost, b.cost, "{context}: cost");
    assert_eq!(a.mapping.map, b.mapping.map, "{context}: mapping");
    assert_eq!(a.exact, b.exact, "{context}: exact flag");
    if expanded_equal {
        assert_eq!(a.expanded, b.expanded, "{context}: expanded nodes");
    } else {
        assert!(
            a.expanded <= b.expanded,
            "{context}: expanded {} must not exceed reference {}",
            a.expanded,
            b.expanded
        );
    }
}

#[test]
fn exact_solver_is_bit_identical_to_reference_across_cost_models() {
    let mut rng = Rng::seed_from_u64(0x6ed9a4);
    for case in 0..60 {
        let (n1, m1) = (1 + rng.gen_index(5), rng.gen_index(6));
        let (n2, m2) = (1 + rng.gen_index(5), rng.gen_index(6));
        let labels = 1 + rng.gen_index(3) as u32;
        let g1 = random_graph(&mut rng, n1, m1, labels, 3);
        let g2 = random_graph(&mut rng, n2, m2, labels, 3);
        for (k, cost) in cost_models().into_iter().enumerate() {
            let options = GedOptions {
                cost,
                ..GedOptions::default()
            };
            assert_identical(
                &both(&g1, &g2, &options),
                false,
                &format!("case {case} model {k}"),
            );
        }
    }
}

#[test]
fn parity_holds_with_warm_starts_and_node_budgets() {
    let mut rng = Rng::seed_from_u64(0xbeefed);
    for case in 0..30 {
        let (n1, m1) = (2 + rng.gen_index(4), 2 + rng.gen_index(5));
        let (n2, m2) = (2 + rng.gen_index(4), 2 + rng.gen_index(5));
        let g1 = random_graph(&mut rng, n1, m1, 2, 3);
        let g2 = random_graph(&mut rng, n2, m2, 2, 3);
        let warm = bipartite_ged(&g1, &g2, &CostModel::uniform());
        let warm_opts = GedOptions {
            warm_start: Some(warm.mapping.clone()),
            ..GedOptions::default()
        };
        assert_identical(
            &both(&g1, &g2, &warm_opts),
            false,
            &format!("case {case} warm"),
        );
        // Under a node budget the cross-edge term is disabled, so the
        // anytime behavior must be bit-identical, expanded count included.
        let budget_opts = GedOptions {
            node_limit: Some(1 + rng.gen_index(25) as u64),
            ..GedOptions::default()
        };
        assert_identical(
            &both(&g1, &g2, &budget_opts),
            true,
            &format!("case {case} budget"),
        );
    }
}

/// Pinned node-count regression on a fixed pair: the cross-edge bound must
/// keep the unlimited search at or below the reference node count, and the
/// budget-mode search (old bound) must match the reference exactly.
#[test]
fn pinned_expanded_count_on_fixed_pair() {
    let mut rng = Rng::seed_from_u64(0x415);
    let g1 = random_graph(&mut rng, 6, 8, 2, 3);
    let g2 = random_graph(&mut rng, 6, 7, 2, 3);
    let [fast, slow] = both(&g1, &g2, &GedOptions::default());
    assert!(fast.exact);
    assert_eq!(fast.cost, slow.cost);
    assert_eq!(fast.mapping.map, slow.mapping.map);
    assert!(
        fast.expanded <= slow.expanded,
        "cross-edge bound regressed: {} > {}",
        fast.expanded,
        slow.expanded
    );
    assert!(
        slow.expanded > 10,
        "fixture too trivial to pin anything: {}",
        slow.expanded
    );
    // Budget mode keeps the reference bound: bit-identical anytime runs.
    let budget = GedOptions {
        node_limit: Some(40),
        ..GedOptions::default()
    };
    let [fast_b, slow_b] = both(&g1, &g2, &budget);
    assert_eq!(fast_b.cost, slow_b.cost);
    assert_eq!(fast_b.mapping.map, slow_b.mapping.map);
    assert_eq!(fast_b.expanded, slow_b.expanded);
}
