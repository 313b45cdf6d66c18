//! The paper's local distance measures and their shared primitives.
//!
//! All three measures of Section IV (and the normalized edit distance used
//! by Section VII) are functions of two *primitives* of a graph pair: the
//! uniform graph edit distance and the connected maximum-common-subgraph
//! edge count. [`compute_primitives`] runs the configured exact/approximate
//! solvers once per pair and every requested measure derives from the result
//! ([`MeasureKind::from_primitives`]), so adding a dimension to a query
//! costs almost nothing extra.

use std::cell::RefCell;

use gss_ged::{bipartite::bipartite_ged_with, exact_ged, CostModel, GedOptions};
use gss_graph::Graph;
use gss_mcs::{greedy::greedy_mcs, mcs_edge_size};

thread_local! {
    /// Per-thread bipartite-GED workspace (flat cost matrix + Hungarian
    /// dual/slack buffers), reused across every candidate evaluation a
    /// worker thread performs in a scan. Thread-local rather than plumbed
    /// through the public API: the wave-parallel scans hand contiguous
    /// candidate ranges to each worker, so one workspace per thread gives
    /// the same reuse as explicit caller-provided plumbing with zero
    /// signature churn. Results are bit-identical to fresh buffers
    /// (property-tested in `gss-ged`).
    static GED_WORKSPACE: RefCell<gss_ged::Workspace> = RefCell::new(gss_ged::Workspace::new());
}

/// Solver configuration for a query: which GED and MCS solvers
/// [`compute_primitives`] runs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SolverConfig {
    /// The paper's exact measures: exact branch-and-bound GED (warm-started
    /// by the bipartite bound) and exact connected MCS.
    #[default]
    Exact,
    /// Riesen–Bunke bipartite GED (an upper bound) and multi-start greedy
    /// MCS (a lower bound on `|mcs|`), so the GED- and MCS-derived
    /// distances can only over-estimate.
    Approx,
}

/// The shared primitives of a pair.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PairPrimitives {
    /// (Possibly approximate) uniform graph edit distance.
    pub ged: f64,
    /// (Possibly approximate) connected MCS size in edges.
    pub mcs_edges: usize,
    /// Sizes `|g1|`, `|g2|` in edges.
    pub sizes: (usize, usize),
    /// Size of the symmetric difference of the combined vertex+edge label
    /// multisets (exact, `O(|V|+|E|)`).
    pub label_mismatch: u32,
    /// Total label occurrences across both graphs
    /// (`|V1|+|E1|+|V2|+|E2|`), the normalizer for the histogram measure.
    pub label_total: u32,
}

/// The local distance measures of the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MeasureKind {
    /// `DistEd` — uniform graph edit distance (Definition 8). Unbounded.
    EditDistance,
    /// `DistN-Ed = x / (1 + x)` — the normalized edit distance of
    /// Section VII. In `[0, 1)`.
    NormalizedEditDistance,
    /// `DistMcs = 1 − |mcs| / max(|g1|, |g2|)` (Definition 9, Bunke–Shearer).
    Mcs,
    /// `DistGu = 1 − |mcs| / (|g1| + |g2| − |mcs|)` (Definition 10, Wallis
    /// et al. graph-union / Jaccard form).
    Gu,
    /// **Extension** (not in the paper): the normalized label-histogram
    /// distance — the symmetric difference of the combined vertex+edge
    /// label multisets over the total label count. A structure-free
    /// `O(|V|+|E|)` feature measure in `[0, 1]`, usable as an extra GCS
    /// dimension or a cheap pre-filter. It lower-bound-correlates with GED:
    /// every mismatched label needs at least one edit operation.
    LabelHistogram,
}

impl MeasureKind {
    /// Display name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            MeasureKind::EditDistance => "DistEd",
            MeasureKind::NormalizedEditDistance => "DistN-Ed",
            MeasureKind::Mcs => "DistMcs",
            MeasureKind::Gu => "DistGu",
            MeasureKind::LabelHistogram => "DistLH",
        }
    }

    /// Derives the measure value from pair primitives.
    pub fn from_primitives(self, p: &PairPrimitives) -> f64 {
        let (s1, s2) = p.sizes;
        let mcs = p.mcs_edges as f64;
        match self {
            MeasureKind::EditDistance => p.ged,
            MeasureKind::NormalizedEditDistance => p.ged / (1.0 + p.ged),
            MeasureKind::Mcs => {
                let denom = s1.max(s2) as f64;
                if denom == 0.0 {
                    0.0 // two empty graphs are identical
                } else {
                    1.0 - mcs / denom
                }
            }
            MeasureKind::Gu => {
                let denom = (s1 + s2) as f64 - mcs;
                if denom == 0.0 {
                    0.0
                } else {
                    1.0 - mcs / denom
                }
            }
            MeasureKind::LabelHistogram => {
                if p.label_total == 0 {
                    0.0
                } else {
                    f64::from(p.label_mismatch) / f64::from(p.label_total)
                }
            }
        }
    }

    /// The measure set of the paper's Section V/VI queries:
    /// `GCS = (DistEd, DistMcs, DistGu)`.
    pub fn paper_query_measures() -> Vec<MeasureKind> {
        vec![MeasureKind::EditDistance, MeasureKind::Mcs, MeasureKind::Gu]
    }

    /// The measure set of the paper's Section VII diversity refinement:
    /// `(DistN-Ed, DistMcs, DistGu)`.
    pub fn paper_diversity_measures() -> Vec<MeasureKind> {
        vec![
            MeasureKind::NormalizedEditDistance,
            MeasureKind::Mcs,
            MeasureKind::Gu,
        ]
    }
}

/// Computes pair primitives under a [`SolverConfig`].
pub fn compute_primitives(g1: &Graph, g2: &Graph, config: &SolverConfig) -> PairPrimitives {
    let cost = CostModel::uniform();
    let bipartite = |g1: &Graph, g2: &Graph| {
        GED_WORKSPACE.with(|ws| bipartite_ged_with(g1, g2, &cost, &mut ws.borrow_mut()))
    };
    let ged = match config {
        SolverConfig::Exact => {
            let warm = bipartite(g1, g2);
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
        SolverConfig::Approx => bipartite(g1, g2).cost,
    };
    let mcs_edges = match config {
        SolverConfig::Exact => mcs_edge_size(g1, g2),
        SolverConfig::Approx => greedy_mcs(g1, g2).edges(),
    };
    let (label_mismatch, label_total) = label_histogram_stats(g1, g2);
    PairPrimitives {
        ged,
        mcs_edges,
        sizes: (g1.size(), g2.size()),
        label_mismatch,
        label_total,
    }
}

/// Symmetric-difference and total size of the combined vertex+edge label
/// multisets of a pair.
pub(crate) fn label_histogram_stats(g1: &Graph, g2: &Graph) -> (u32, u32) {
    use gss_graph::stats::{edge_label_multiset, vertex_label_multiset};
    let (v1, v2) = (vertex_label_multiset(g1), vertex_label_multiset(g2));
    let (e1, e2) = (edge_label_multiset(g1), edge_label_multiset(g2));
    let mismatch = v1.symmetric_difference_size(&v2) + e1.symmetric_difference_size(&e2);
    let total = v1.total() + v2.total() + e1.total() + e2.total();
    (mismatch, total)
}

/// A graph compound similarity vector (Definition 11): one local distance
/// per requested measure, in measure order.
#[derive(Clone, Debug, PartialEq)]
pub struct GcsVector {
    /// The distance values.
    pub values: Vec<f64>,
}

impl GcsVector {
    /// Builds the GCS vector for a pair.
    pub fn compute(
        g1: &Graph,
        g2: &Graph,
        measures: &[MeasureKind],
        config: &SolverConfig,
    ) -> GcsVector {
        let p = compute_primitives(g1, g2, config);
        GcsVector {
            values: measures.iter().map(|m| m.from_primitives(&p)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::{GraphBuilder, Vocabulary};

    fn pair() -> (Graph, Graph) {
        let mut v = Vocabulary::new();
        let a = GraphBuilder::new("a", &mut v)
            .vertex("x", "A")
            .vertex("y", "B")
            .vertex("z", "C")
            .path(&["x", "y", "z"], "-")
            .build()
            .unwrap();
        let b = GraphBuilder::new("b", &mut v)
            .vertex("x", "A")
            .vertex("y", "B")
            .vertex("w", "W")
            .edge("x", "y", "-")
            .edge("y", "w", "-")
            .build()
            .unwrap();
        (a, b)
    }

    #[test]
    fn primitives_and_measures() {
        let (a, b) = pair();
        let p = compute_primitives(&a, &b, &SolverConfig::default());
        assert_eq!(p.ged, 1.0); // relabel C→W
        assert_eq!(p.mcs_edges, 1); // shared A-B edge… plus? B-C vs B-W blocked → 1
        assert_eq!(p.sizes, (2, 2));
        assert_eq!(MeasureKind::EditDistance.from_primitives(&p), 1.0);
        assert_eq!(MeasureKind::NormalizedEditDistance.from_primitives(&p), 0.5);
        assert_eq!(MeasureKind::Mcs.from_primitives(&p), 0.5);
        let gu = MeasureKind::Gu.from_primitives(&p);
        assert!((gu - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn gu_is_stronger_than_mcs() {
        // SimGu ≤ SimMcs ⟺ DistGu ≥ DistMcs — the paper's Section IV-C remark.
        let (a, b) = pair();
        let p = compute_primitives(&a, &b, &SolverConfig::default());
        assert!(MeasureKind::Gu.from_primitives(&p) >= MeasureKind::Mcs.from_primitives(&p));
    }

    #[test]
    fn empty_graph_measures_are_defined() {
        let mut v = Vocabulary::new();
        let e1 = GraphBuilder::new("e1", &mut v).build().unwrap();
        let e2 = GraphBuilder::new("e2", &mut v).build().unwrap();
        let p = compute_primitives(&e1, &e2, &SolverConfig::default());
        for m in [
            MeasureKind::EditDistance,
            MeasureKind::NormalizedEditDistance,
            MeasureKind::Mcs,
            MeasureKind::Gu,
        ] {
            assert_eq!(m.from_primitives(&p), 0.0, "{}", m.name());
        }
    }

    #[test]
    fn approximate_solvers_bound_exact() {
        let (a, b) = pair();
        let exact = compute_primitives(&a, &b, &SolverConfig::default());
        let approx = compute_primitives(&a, &b, &SolverConfig::Approx);
        assert!(
            approx.ged >= exact.ged - 1e-9,
            "bipartite is an upper bound"
        );
        assert!(
            approx.mcs_edges <= exact.mcs_edges,
            "greedy is a lower bound"
        );
    }

    #[test]
    fn gcs_vector_follows_measure_order() {
        let (a, b) = pair();
        let measures = MeasureKind::paper_query_measures();
        let gcs = GcsVector::compute(&a, &b, &measures, &SolverConfig::default());
        assert_eq!(gcs.values.len(), 3);
        assert_eq!(gcs.values[0], 1.0); // DistEd first
        assert_eq!(gcs.values[1], 0.5); // DistMcs second
    }

    #[test]
    fn names_match_paper_notation() {
        assert_eq!(MeasureKind::EditDistance.name(), "DistEd");
        assert_eq!(MeasureKind::NormalizedEditDistance.name(), "DistN-Ed");
        assert_eq!(MeasureKind::Mcs.name(), "DistMcs");
        assert_eq!(MeasureKind::Gu.name(), "DistGu");
        assert_eq!(MeasureKind::LabelHistogram.name(), "DistLH");
    }

    #[test]
    fn label_histogram_measure() {
        let (a, b) = pair();
        let p = compute_primitives(&a, &b, &SolverConfig::default());
        // Labels: a has {A,B,C} + {-,-}; b has {A,B,W} + {-,-}:
        // mismatch = C vs W = 2; total = 3+3+2+2 = 10.
        assert_eq!(p.label_mismatch, 2);
        assert_eq!(p.label_total, 10);
        let lh = MeasureKind::LabelHistogram.from_primitives(&p);
        assert!((lh - 0.2).abs() < 1e-12);
        // Identity ⟹ zero.
        let pp = compute_primitives(&a, &a, &SolverConfig::default());
        assert_eq!(MeasureKind::LabelHistogram.from_primitives(&pp), 0.0);
    }

    #[test]
    fn label_histogram_under_bounds_ged() {
        // Every mismatched label occurrence needs ≥ half an edit op
        // (a relabel fixes one per side), so mismatch/2 ≤ GED.
        let (a, b) = pair();
        let p = compute_primitives(&a, &b, &SolverConfig::default());
        assert!(f64::from(p.label_mismatch) / 2.0 <= p.ged + 1e-9);
    }
}
