//! # gss-ged — graph edit distance for labeled graphs
//!
//! Implements `DistEd` of Abbaci et al. (GDM/ICDE 2011), Definition 8: the
//! minimum total cost of a sequence of edit operations (insert / delete /
//! relabel a vertex or an edge) transforming one graph into another, with the
//! paper's **uniform** cost model (every operation costs 1) as the default
//! and arbitrary non-negative models via [`CostModel`].
//!
//! Solvers, all searching the classical *vertex-mapping* formulation (whose
//! minimum equals GED for the uniform model):
//!
//! * [`exact::exact_ged`] — depth-first branch and bound with admissible
//!   label-alignment and cross-edge lower bounds; always runs to optimality.
//! * [`bipartite::bipartite_ged`] — Riesen–Bunke linear-assignment upper
//!   bound in `O((n1+n2)³)`, built on an in-crate [`hungarian`] solver.
//!
//! Plus [`path`] utilities that turn any mapping into an explicit, costed
//! edit script (used to reproduce the paper's Example 2 op-by-op) and
//! [`lower_bound`] for the label-alignment lower bound on its own.
//!
//! The exact solver maintains its remaining-cost bound **incrementally**
//! and the bipartite solver reuses caller-provided [`Workspace`] buffers
//! (cost matrix, Hungarian duals/slacks) across calls — see the module docs
//! of [`exact`] and [`bipartite`]. The original rescanning solver is kept
//! as a test-only parity reference (a `#[cfg(test)]` module), so it is not
//! part of the public API:
//!
//! ```compile_fail
//! use gss_ged::reference::reference_exact_ged;
//! ```
//!
//! ```
//! use gss_graph::{GraphBuilder, Vocabulary};
//! use gss_ged::ged;
//!
//! let mut vocab = Vocabulary::new();
//! let g1 = GraphBuilder::new("g1", &mut vocab)
//!     .vertex("a", "A").vertex("b", "B").edge("a", "b", "-")
//!     .build().unwrap();
//! let g2 = GraphBuilder::new("g2", &mut vocab)
//!     .vertex("a", "A").vertex("b", "X").edge("a", "b", "-")
//!     .build().unwrap();
//! assert_eq!(ged(&g1, &g2), 1.0); // one vertex relabeling
//! ```

#![warn(missing_docs)]

pub mod bipartite;
pub mod cost;
pub mod exact;
pub mod hungarian;
pub mod path;
#[cfg(test)]
mod reference;

pub use bipartite::{bipartite_ged_with, Workspace};
pub use cost::CostModel;
pub use exact::{exact_ged, uniform_ged, GedOptions, GedResult};
pub use path::{edit_path_for_mapping, mapping_cost, EditOp, VertexMapping};

use gss_graph::stats::{edge_alignment_lower_bound, vertex_alignment_lower_bound};
use gss_graph::Graph;

/// Uniform-cost exact GED, warm-started with the bipartite upper bound —
/// the recommended entry point (identical value to [`uniform_ged`], usually
/// fewer expanded nodes).
pub fn ged(g1: &Graph, g2: &Graph) -> f64 {
    let cost = CostModel::uniform();
    let warm = bipartite::bipartite_ged(g1, g2, &cost);
    exact_ged(
        g1,
        g2,
        &GedOptions {
            cost,
            warm_start: Some(warm.mapping),
        },
    )
    .cost
}

/// Admissible lower bound on uniform-cost GED from label multisets alone
/// (`O(|V| + |E|)`). `lower_bound(g1, g2) ≤ ged(g1, g2)` always.
pub fn lower_bound(g1: &Graph, g2: &Graph) -> f64 {
    (vertex_alignment_lower_bound(g1, g2) + edge_alignment_lower_bound(g1, g2)) as f64
}

/// Admissible lower bound on uniform-cost GED from degree sequences alone.
///
/// Every edge insertion/deletion changes exactly two vertex degrees by one,
/// so it moves the L1 distance between the (zero-padded, sorted) degree
/// sequences by at most 2; vertex operations move it by 0 (a vertex is
/// isolated when inserted/deleted, contributing a zero that padding already
/// accounts for, and relabeling leaves degrees untouched). Hence
/// `⌈L1 / 2⌉ ≤ ged(g1, g2)`.
///
/// Orthogonal to [`lower_bound`]: degree sequences see structure that label
/// multisets cannot (e.g. a path vs. a star over identical labels).
pub fn degree_lower_bound(g1: &Graph, g2: &Graph) -> f64 {
    (gss_graph::stats::degree_sequence_l1(g1, g2).div_ceil(2)) as f64
}

/// The strongest cheap admissible GED lower bound in the crate: the maximum
/// of the label-alignment bound ([`lower_bound`]) and the degree-sequence
/// bound ([`degree_lower_bound`]). Still `O(|V| log |V| + |E|)`.
///
/// The two component bounds count different edit obligations, but taking
/// their sum would double-charge a single edge operation, so only the
/// maximum is admissible.
pub fn combined_lower_bound(g1: &Graph, g2: &Graph) -> f64 {
    lower_bound(g1, g2).max(degree_lower_bound(g1, g2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::{random_graph, GraphBuilder, Rng, Vocabulary};

    #[test]
    fn ged_matches_uniform_ged() {
        let mut v = Vocabulary::new();
        let g1 = GraphBuilder::new("g1", &mut v)
            .vertices(&["a", "b", "c"], "C")
            .cycle(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        let g2 = GraphBuilder::new("g2", &mut v)
            .vertices(&["a", "b", "c"], "C")
            .path(&["a", "b", "c"], "-")
            .build()
            .unwrap();
        assert_eq!(ged(&g1, &g2), uniform_ged(&g1, &g2));
        assert_eq!(ged(&g1, &g2), 1.0);
    }

    #[test]
    fn lower_bound_is_admissible_on_random_graphs() {
        let mut rng = Rng::seed_from_u64(0x1b);
        for _ in 0..50 {
            let (n1, m1) = (1 + rng.gen_index(4), rng.gen_index(5));
            let (n2, m2) = (1 + rng.gen_index(4), rng.gen_index(5));
            let g1 = random_graph(&mut rng, n1, m1, 3, 2);
            let g2 = random_graph(&mut rng, n2, m2, 3, 2);
            let exact = ged(&g1, &g2);
            assert!(lower_bound(&g1, &g2) <= exact + 1e-9);
            assert!(degree_lower_bound(&g1, &g2) <= exact + 1e-9);
            assert!(combined_lower_bound(&g1, &g2) <= exact + 1e-9);
            assert!(combined_lower_bound(&g1, &g2) >= lower_bound(&g1, &g2));
        }
    }

    #[test]
    fn degree_bound_sees_structure_labels_cannot() {
        // Path vs star over identical label multisets: the label-alignment
        // bound is blind (0), the degree bound is not.
        let mut v = Vocabulary::new();
        let path = GraphBuilder::new("p", &mut v)
            .vertices(&["a", "b", "c", "d"], "C")
            .path(&["a", "b", "c", "d"], "-")
            .build()
            .unwrap();
        let star = GraphBuilder::new("s", &mut v)
            .vertices(&["a", "b", "c", "d"], "C")
            .edge("a", "b", "-")
            .edge("a", "c", "-")
            .edge("a", "d", "-")
            .build()
            .unwrap();
        assert_eq!(lower_bound(&path, &star), 0.0);
        // Degree sequences [1,1,2,2] vs [1,1,1,3]: L1 = 2 → bound 1.
        assert_eq!(degree_lower_bound(&path, &star), 1.0);
        assert!(combined_lower_bound(&path, &star) <= ged(&path, &star) + 1e-9);
    }

    #[test]
    fn triangle_inequality_on_random_triples() {
        // Uniform GED is a metric; spot-check the triangle inequality.
        let mut rng = Rng::seed_from_u64(0x3a);
        for _ in 0..25 {
            let (na, ma) = (1 + rng.gen_index(3), rng.gen_index(4));
            let (nb, mb) = (1 + rng.gen_index(3), rng.gen_index(4));
            let (nc, mc) = (1 + rng.gen_index(3), rng.gen_index(4));
            let a = random_graph(&mut rng, na, ma, 2, 1);
            let b = random_graph(&mut rng, nb, mb, 2, 1);
            let c = random_graph(&mut rng, nc, mc, 2, 1);
            let ab = ged(&a, &b);
            let bc = ged(&b, &c);
            let ac = ged(&a, &c);
            assert!(
                ac <= ab + bc + 1e-9,
                "triangle violated: {ac} > {ab} + {bc}"
            );
        }
    }
}
