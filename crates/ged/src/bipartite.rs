//! Bipartite (assignment-based) GED approximation, after Riesen & Bunke.
//!
//! Builds the classical `(n1+n2) × (n1+n2)` cost matrix — substitutions with
//! a local edge-environment estimate, diagonal deletions/insertions — solves
//! it with the Hungarian algorithm, and returns the **true induced cost** of
//! the resulting vertex mapping. The result is therefore always an *upper
//! bound* on the exact GED (tests verify this against [`crate::exact`]),
//! computable in `O((n1+n2)³)`.
//!
//! The similarity scans call this once per candidate pair — thousands of
//! times per query — so the hot entry point [`bipartite_ged_with`] takes a
//! caller-provided [`Workspace`] and reuses the flat cost matrix, the
//! Hungarian dual/slack buffers and the incident-label environment tables
//! across calls. [`bipartite_ged`] is the allocating one-shot wrapper; both
//! return bit-identical results (property-tested).

use gss_graph::{Graph, Label, VertexId};

use crate::cost::CostModel;
use crate::exact::GedResult;
use crate::hungarian::{self, FORBIDDEN};
use crate::path::{mapping_cost, VertexMapping};

/// Reusable buffers for [`bipartite_ged_with`]: the flat assignment matrix,
/// the Hungarian solver workspace, and per-vertex sorted incident-edge-label
/// tables for both graphs.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    hungarian: hungarian::Workspace,
    matrix: Vec<f64>,
    env_labels1: Vec<Label>,
    env_offsets1: Vec<usize>,
    env_labels2: Vec<Label>,
    env_offsets2: Vec<usize>,
}

impl Workspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Workspace::default()
    }
}

/// Fills `labels`/`offsets` with each vertex's incident edge labels, sorted
/// per vertex: the slice `labels[offsets[i]..offsets[i+1]]` is vertex `i`'s
/// sorted label environment.
fn build_env(g: &Graph, labels: &mut Vec<Label>, offsets: &mut Vec<usize>) {
    labels.clear();
    offsets.clear();
    for v in g.vertices() {
        offsets.push(labels.len());
        let start = labels.len();
        for (_, e) in g.neighbors(v) {
            labels.push(g.edge_label(e));
        }
        labels[start..].sort_unstable();
    }
    offsets.push(labels.len());
}

/// Multiset intersection size of two sorted label slices (two-pointer
/// merge) — the same count `Multiset::intersection_size` produces.
fn sorted_intersection_size(a: &[Label], b: &[Label]) -> usize {
    let (mut i, mut j, mut common) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

/// Approximates GED via one linear assignment over vertices.
///
/// The returned [`GedResult`]'s `cost` is the induced cost of the
/// assignment, an upper bound on the true GED, and its `expanded` is 0.
/// One-shot wrapper over [`bipartite_ged_with`].
pub fn bipartite_ged(g1: &Graph, g2: &Graph, cost: &CostModel) -> GedResult {
    bipartite_ged_with(g1, g2, cost, &mut Workspace::new())
}

/// [`bipartite_ged`] reusing the caller's [`Workspace`] — no per-call heap
/// allocation beyond the returned mapping.
pub fn bipartite_ged_with(
    g1: &Graph,
    g2: &Graph,
    cost: &CostModel,
    ws: &mut Workspace,
) -> GedResult {
    cost.validate().expect("invalid cost model");
    let (n1, n2) = (g1.order(), g2.order());
    let n = n1 + n2;
    if n == 0 {
        return GedResult {
            cost: 0.0,
            mapping: VertexMapping { map: Vec::new() },
            expanded: 0,
        };
    }

    // Pre-compute per-vertex sorted incident edge-label environments.
    build_env(g1, &mut ws.env_labels1, &mut ws.env_offsets1);
    build_env(g2, &mut ws.env_labels2, &mut ws.env_offsets2);
    let Workspace {
        hungarian: hungarian_ws,
        matrix,
        env_labels1,
        env_offsets1,
        env_labels2,
        env_offsets2,
    } = ws;
    let env1 = |i: usize| &env_labels1[env_offsets1[i]..env_offsets1[i + 1]];
    let env2 = |j: usize| &env_labels2[env_offsets2[j]..env_offsets2[j + 1]];

    matrix.clear();
    matrix.resize(n * n, 0.0);
    for i in 0..n1 {
        let vi = VertexId::new(i);
        let row = &mut matrix[i * n..(i + 1) * n];
        for (j, cell) in row[..n2].iter_mut().enumerate() {
            let vj = VertexId::new(j);
            let sub = if g1.vertex_label(vi) == g2.vertex_label(vj) {
                0.0
            } else {
                cost.vertex_rel
            };
            // Local edge environment: unmatched incident labels must be
            // deleted/inserted. (Heuristic guidance only; each edge is seen
            // from both endpoints, so this over-weights structure, which
            // empirically produces better assignments than halving.)
            let common = sorted_intersection_size(env1(i), env2(j)) as f64;
            let d1 = g1.degree(vi) as f64;
            let d2 = g2.degree(vj) as f64;
            let env = (d1 - common) * cost.edge_del + (d2 - common) * cost.edge_ins;
            *cell = sub + env;
        }
        for (j, cell) in row[n2..].iter_mut().enumerate() {
            *cell = if i == j {
                cost.vertex_del + g1.degree(vi) as f64 * cost.edge_del
            } else {
                FORBIDDEN
            };
        }
    }
    for i in 0..n2 {
        let vi = VertexId::new(i);
        let row = &mut matrix[(n1 + i) * n..(n1 + i + 1) * n];
        for (j, cell) in row[..n2].iter_mut().enumerate() {
            *cell = if i == j {
                cost.vertex_ins + g2.degree(vi) as f64 * cost.edge_ins
            } else {
                FORBIDDEN
            };
        }
        // bottom-right block stays 0 (ε → ε)
    }

    hungarian::solve_into(matrix, n, hungarian_ws);
    let map: Vec<Option<VertexId>> = (0..n1)
        .map(|i| {
            let j = hungarian_ws.assignment[i];
            (j < n2).then(|| VertexId::new(j))
        })
        .collect();
    let mapping = VertexMapping { map };
    let induced = mapping_cost(g1, g2, &mapping, cost);
    GedResult {
        cost: induced,
        mapping,
        expanded: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_ged, GedOptions};
    use gss_graph::{random_graph, GraphBuilder, Rng, Vocabulary};

    #[test]
    fn identical_graphs_zero() {
        let mut v = Vocabulary::new();
        let g = GraphBuilder::new("g", &mut v)
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .cycle(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let r = bipartite_ged(&g, &g, &CostModel::uniform());
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn empty_graphs() {
        let mut v = Vocabulary::new();
        let empty = GraphBuilder::new("e", &mut v).build().unwrap();
        let r = bipartite_ged(&empty, &empty, &CostModel::uniform());
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn upper_bounds_exact_on_random_graphs() {
        let mut rng = Rng::seed_from_u64(0xb1b);
        for case in 0..60 {
            let (n1, m1) = (1 + rng.gen_index(5), rng.gen_index(6));
            let (n2, m2) = (1 + rng.gen_index(5), rng.gen_index(6));
            let g1 = random_graph(&mut rng, n1, m1, 3, 2);
            let g2 = random_graph(&mut rng, n2, m2, 3, 2);
            let ub = bipartite_ged(&g1, &g2, &CostModel::uniform()).cost;
            let exact = exact_ged(&g1, &g2, &GedOptions::default()).cost;
            assert!(
                ub >= exact - 1e-9,
                "case {case}: bipartite {ub} must upper-bound exact {exact}"
            );
        }
    }

    /// One shared workspace across many pairs must produce bit-identical
    /// results to fresh per-call workspaces.
    #[test]
    fn shared_workspace_matches_one_shot_calls() {
        let mut rng = Rng::seed_from_u64(0x7a5e);
        let mut ws = Workspace::new();
        for case in 0..60 {
            let (n1, m1) = (1 + rng.gen_index(6), rng.gen_index(7));
            let (n2, m2) = (1 + rng.gen_index(6), rng.gen_index(7));
            let g1 = random_graph(&mut rng, n1, m1, 3, 2);
            let g2 = random_graph(&mut rng, n2, m2, 3, 2);
            for cost in [CostModel::uniform(), CostModel::structure_weighted(2.5)] {
                let shared = bipartite_ged_with(&g1, &g2, &cost, &mut ws);
                let fresh = bipartite_ged(&g1, &g2, &cost);
                assert_eq!(shared.cost, fresh.cost, "case {case}");
                assert_eq!(shared.mapping.map, fresh.mapping.map, "case {case}");
            }
        }
    }

    #[test]
    fn warm_starting_exact_with_bipartite_keeps_optimality() {
        let mut v = Vocabulary::new();
        let g1 = GraphBuilder::new("g1", &mut v)
            .vertices(&["a", "b", "c", "d"], "C")
            .cycle(&["a", "b", "c", "d"], "-")
            .build()
            .unwrap();
        let g2 = GraphBuilder::new("g2", &mut v)
            .vertices(&["a", "b", "c", "d"], "C")
            .path(&["a", "b", "c", "d"], "-")
            .edge("a", "c", "=")
            .build()
            .unwrap();
        let ub = bipartite_ged(&g1, &g2, &CostModel::uniform());
        let warm = exact_ged(
            &g1,
            &g2,
            &GedOptions {
                warm_start: Some(ub.mapping.clone()),
                ..Default::default()
            },
        );
        let plain = exact_ged(&g1, &g2, &GedOptions::default());
        assert_eq!(warm.cost, plain.cost);
    }
}
