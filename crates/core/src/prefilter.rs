//! Cheap per-measure lower bounds for the filter-and-verify query pipeline.
//!
//! The naive GSS scan (Section V of the paper) runs the exact solvers —
//! branch-and-bound GED and exact connected MCS — on *every* database graph,
//! which is the textbook bottleneck of graph similarity search. The cure,
//! standard in the filter-and-verify literature (MSQ-Index, pruned GED
//! search), is to compute **admissible lower bounds** on each local distance
//! first and skip the exact solvers whenever the bounds already prove a
//! candidate cannot contribute to the answer.
//!
//! This module computes, in `O(|V| log |V| + |E| log |E|)` per pair:
//!
//! * a **GED lower bound** — the maximum of the label-alignment bound
//!   (vertex + edge label multiset mismatches) and the degree-sequence bound
//!   (`gss_ged::combined_lower_bound`), optionally tightened by the
//!   edge-count difference;
//! * an **MCS upper bound** — the edge-class multiset intersection
//!   (`gss_graph::stats::mcs_upper_bound`), which upper-bounds the edge count
//!   of *any* common subgraph, connected or not. Because `DistMcs` and
//!   `DistGu` are strictly decreasing in `|mcs|`, an upper bound on `|mcs|`
//!   yields a lower bound on both distances;
//! * the **exact** label-histogram distance (it is already linear-time);
//! * a **distance-zero short-circuit**: when the candidate's 1-WL
//!   fingerprint matches the query's, the graphs are connected, and VF2
//!   confirms isomorphism, the exact GCS vector is all-zeros — no solver
//!   runs at all. Active only when both solvers are exact
//!   (see [`PrefilterContext::for_query`]): approximate solvers may report
//!   nonzero distances even for isomorphic pairs, and the pipeline promises
//!   byte-identical results to whatever the configured solvers produce.
//!
//! Soundness contract, relied on by the staged executor in [`crate::exec`]
//! (both the skyline's dominance pruning and the skyband's dominance
//! *counting*): for every measure `m`, `lower_bound_m(g, q) ≤ value_m(g, q)`
//! where `value_m` is whatever the configured solver reports — the bounds
//! hold for the *exact* solvers and remain valid for the approximate ones
//! (under [`SolverConfig::Approx`], bipartite GED only over-estimates and
//! greedy MCS only under-estimates `|mcs|`).

use gss_graph::stats::{
    degree_sequence, degree_sequence_l1_presorted, edge_class_multiset, edge_label_multiset,
    mcs_upper_bound, vertex_label_multiset, EdgeClass, GraphStats, Multiset,
};
use gss_graph::{algo, wl, Graph, Label};

use crate::measures::{GcsVector, MeasureKind, SolverConfig};

/// Number of 1-WL refinement rounds used for the equality short-circuit —
/// kept equal to the rounds baked into the cached per-graph summaries
/// ([`GraphStats::WL_ROUNDS`]) so cached and ad-hoc fingerprints compare.
const WL_ROUNDS: usize = GraphStats::WL_ROUNDS;

/// The cheap pair summary driving the pruned scan.
#[derive(Clone, Debug, PartialEq)]
pub struct PrefilterSummary {
    /// Per-measure lower bounds, in the query's measure order. Every entry
    /// is `≤` the corresponding exact (or approximate-solver) distance.
    pub lower: GcsVector,
    /// True when the candidate was proven isomorphic to the query: its exact
    /// GCS vector is all-zeros and no solver needs to run.
    pub isomorphic: bool,
}

impl PrefilterSummary {
    /// The exact all-zero GCS vector for an isomorphic candidate, or `None`
    /// when the exact vector still requires solving.
    pub fn known_exact(&self, measures: &[MeasureKind]) -> Option<GcsVector> {
        self.isomorphic.then(|| GcsVector {
            values: vec![0.0; measures.len()],
        })
    }
}

/// The cheap admissible GED lower bound used by the pipeline: label-multiset
/// alignment, degree-sequence alignment and the size difference, whichever
/// is largest.
pub fn ged_lower_bound(g: &Graph, q: &Graph) -> f64 {
    // The size (edge-count) difference is already implied by the edge-label
    // alignment bound, but stating it keeps the bound honest under future
    // changes to the alignment bounds.
    let size_diff = g.size().abs_diff(q.size()) as f64;
    gss_ged::combined_lower_bound(g, q).max(size_diff)
}

/// Upper bound on the connected-MCS edge count the exact solver can return:
/// the edge-class multiset intersection of the pair.
pub fn mcs_edge_upper_bound(g: &Graph, q: &Graph) -> usize {
    mcs_upper_bound(g, q) as usize
}

/// Lower-bounds one measure from the pair bounds.
///
/// `ged_lb` must be an admissible GED lower bound, `mcs_ub` an upper bound
/// on the MCS edge count, and `label_histogram` the *exact* histogram
/// distance (it is linear-time, so the prefilter computes it outright).
pub fn measure_lower_bound(
    measure: MeasureKind,
    ged_lb: f64,
    mcs_ub: usize,
    sizes: (usize, usize),
    label_histogram: f64,
) -> f64 {
    let (s1, s2) = sizes;
    let mcs = mcs_ub as f64;
    match measure {
        MeasureKind::EditDistance => ged_lb,
        // x / (1 + x) is increasing in x, so it maps a GED lower bound to a
        // normalized lower bound.
        MeasureKind::NormalizedEditDistance => ged_lb / (1.0 + ged_lb),
        // 1 − |mcs| / max and 1 − |mcs| / (s1 + s2 − |mcs|) are both
        // decreasing in |mcs|, so substituting the upper bound gives a lower
        // bound. The zero-denominator cases mirror MeasureKind::from_primitives.
        MeasureKind::Mcs => {
            let denom = s1.max(s2) as f64;
            if denom == 0.0 {
                0.0
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
        MeasureKind::LabelHistogram => label_histogram,
    }
}

/// Per-query state shared by every [`summarize`] call of one scan: the
/// query-side invariants — label multisets, edge-class multiset, sorted
/// degree sequence, WL fingerprint — are computed **once** instead of once
/// per candidate, and the (worst-case exponential) isomorphism
/// short-circuit is enabled only when it is both wanted and sound.
#[derive(Clone, Debug)]
pub struct PrefilterContext {
    query_fingerprint: u64,
    query_connected: bool,
    check_isomorphism: bool,
    vertex_labels: Multiset<Label>,
    edge_labels: Multiset<Label>,
    edge_classes: Multiset<EdgeClass>,
    degrees: Vec<usize>,
    order: usize,
    size: usize,
    label_total: u32,
}

impl PrefilterContext {
    /// Builds the context for one query scan.
    ///
    /// The isomorphism short-circuit claims the exact GCS vector is
    /// all-zeros, which is only what the configured solvers would report
    /// under [`SolverConfig::Exact`]: the bipartite GED upper bound and the
    /// greedy MCS legitimately return nonzero distances for isomorphic
    /// pairs, and the pipeline's contract is byte-identical results to
    /// whatever the solvers produce. Under [`SolverConfig::Approx`] the
    /// short-circuit is therefore disabled; lower-bound pruning remains
    /// active and sound.
    pub fn for_query(q: &Graph, solvers: &SolverConfig, prefilter: bool) -> Self {
        let check = prefilter && *solvers == SolverConfig::Exact;
        let vertex_labels = vertex_label_multiset(q);
        let edge_labels = edge_label_multiset(q);
        let label_total = vertex_labels.total() + edge_labels.total();
        PrefilterContext {
            query_fingerprint: if check {
                wl::wl_fingerprint(q, WL_ROUNDS)
            } else {
                0
            },
            query_connected: check && algo::is_connected(q),
            check_isomorphism: check,
            vertex_labels,
            edge_labels,
            edge_classes: edge_class_multiset(q),
            degrees: degree_sequence(q),
            order: q.order(),
            size: q.size(),
            label_total,
        }
    }
}

/// Computes the pair summary for a candidate against the query.
///
/// `q` must be the graph the context was built for; all query-side
/// invariants (label multisets, degree sequence, WL fingerprint) come from
/// the context so only the candidate side is derived per call.
///
/// Standalone convenience form of [`summarize_deferred`]: derives the
/// candidate-side [`GraphStats`] on the fly. Scans over a
/// [`crate::GraphDatabase`] use the cached per-graph summaries instead, so
/// the candidate side is computed once per graph ever, not once per scan.
pub fn summarize(
    g: &Graph,
    q: &Graph,
    measures: &[MeasureKind],
    ctx: &PrefilterContext,
) -> PrefilterSummary {
    summarize_deferred(|| g, &GraphStats::compute(g), q, measures, ctx)
}

/// [`summarize`] with the candidate's precomputed [`GraphStats`] and the
/// candidate graph behind a thunk: the only per-call work left is
/// combining the two precomputed sides (multiset intersections) and, for
/// WL-equal pairs, the VF2 isomorphism check.
///
/// `stats` must describe the graph the thunk returns (the database stats
/// cache guarantees this for stored graphs). The VF2 check behind the
/// WL-fingerprint short-circuit is the only consumer of the candidate
/// *graph*, and it fires for a vanishing fraction of candidates. Deferring
/// the graph lets arena-backed databases (`GraphDatabase::get`
/// materializes lazily) prefilter whole scans from contiguous stat columns
/// without reconstructing a single pruned candidate.
pub fn summarize_deferred<'g>(
    graph: impl FnOnce() -> &'g Graph,
    stats: &GraphStats,
    q: &Graph,
    measures: &[MeasureKind],
    ctx: &PrefilterContext,
) -> PrefilterSummary {
    // Distance-zero short-circuit. Connectivity is required because the MCS
    // measures use the *connected* MCS: for a disconnected graph, even the
    // graph itself has DistMcs > 0, so all-zeros would be wrong.
    let isomorphic = ctx.check_isomorphism
        && ctx.query_connected
        && stats.wl_fingerprint == ctx.query_fingerprint
        && stats.connected
        && gss_iso::are_isomorphic(graph(), q);

    // Candidate-side summaries, combined with the context's query side —
    // the same quantities as `ged_lower_bound`/`mcs_edge_upper_bound`
    // without recomputing the query's half of each bound.
    let vertex_align = (stats.order.max(ctx.order) as u32)
        - stats.vertex_labels.intersection_size(&ctx.vertex_labels);
    let edge_align =
        (stats.size.max(ctx.size) as u32) - stats.edge_labels.intersection_size(&ctx.edge_labels);
    let degree_lb = degree_sequence_l1_presorted(&stats.degrees, &ctx.degrees).div_ceil(2);
    let size_diff = stats.size.abs_diff(ctx.size);
    let ged_lb = (f64::from(vertex_align + edge_align))
        .max(degree_lb as f64)
        .max(size_diff as f64);
    let mcs_ub = stats.edge_classes.intersection_size(&ctx.edge_classes) as usize;
    let sizes = (stats.size, ctx.size);
    let mismatch = stats
        .vertex_labels
        .symmetric_difference_size(&ctx.vertex_labels)
        + stats
            .edge_labels
            .symmetric_difference_size(&ctx.edge_labels);
    let total = stats.label_total() + ctx.label_total;
    let label_histogram = if total == 0 {
        0.0
    } else {
        f64::from(mismatch) / f64::from(total)
    };

    let lower = GcsVector {
        values: measures
            .iter()
            .map(|&m| measure_lower_bound(m, ged_lb, mcs_ub, sizes, label_histogram))
            .collect(),
    };
    PrefilterSummary { lower, isomorphic }
}

/// Counters describing what the pruned scan did, for `explain` output and
/// benchmarking. Skyline queries fill them via [`crate::GssResult::pruning`],
/// skyband queries via [`crate::SkybandResult::pruning`]; a naive-plan run
/// reports `None` instead.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Database size (candidates considered).
    pub candidates: usize,
    /// Candidates whose exact GCS vector was computed by the solvers.
    pub verified: usize,
    /// Candidates skipped because their lower-bound vector was dominated by
    /// an already-verified exact vector.
    pub pruned: usize,
    /// Candidates resolved by the WL + isomorphism distance-zero
    /// short-circuit (no solver ran; their exact vector is all-zeros).
    pub short_circuited: usize,
    /// Candidates skipped wholesale by the metric index: their partition's
    /// bound vector was dominated before any per-candidate work
    /// (no summary, no solver). Zero without [`crate::QueryOptions::index`].
    pub index_skipped: usize,
    /// Partitions in the index plan (zero without an index).
    pub index_partitions: usize,
    /// Partitions skipped wholesale.
    pub index_partitions_skipped: usize,
    /// Cheap query-to-pivot probes the index plan cost (bound computations,
    /// not exact solver calls).
    pub pivot_probes: usize,
}

impl PruneStats {
    /// Fraction of candidates that skipped exact solving, in `[0, 1]`.
    pub fn pruning_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            (self.pruned + self.short_circuited + self.index_skipped) as f64
                / self.candidates as f64
        }
    }

    /// Fraction of candidates the index skipped before any per-candidate
    /// lower-bound computation, in `[0, 1]`.
    pub fn index_skip_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.index_skipped as f64 / self.candidates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{compute_primitives, label_histogram_stats, SolverConfig};
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
            .edge("y", "w", "=")
            .build()
            .unwrap();
        (a, b)
    }

    fn exact_ctx(q: &Graph) -> PrefilterContext {
        PrefilterContext::for_query(q, &SolverConfig::default(), true)
    }

    #[test]
    fn lower_bounds_never_exceed_exact_values() {
        let (a, b) = pair();
        let measures = [
            MeasureKind::EditDistance,
            MeasureKind::NormalizedEditDistance,
            MeasureKind::Mcs,
            MeasureKind::Gu,
            MeasureKind::LabelHistogram,
        ];
        let summary = summarize(&a, &b, &measures, &exact_ctx(&b));
        let p = compute_primitives(&a, &b, &SolverConfig::default());
        for (i, m) in measures.iter().enumerate() {
            let exact = m.from_primitives(&p);
            assert!(
                summary.lower.values[i] <= exact + 1e-12,
                "{}: lower {} > exact {}",
                m.name(),
                summary.lower.values[i],
                exact
            );
        }
        assert!(!summary.isomorphic);
    }

    #[test]
    fn isomorphic_pair_short_circuits_to_zero() {
        let (a, _) = pair();
        let summary = summarize(&a, &a, &MeasureKind::paper_query_measures(), &exact_ctx(&a));
        assert!(summary.isomorphic);
        let exact = summary
            .known_exact(&MeasureKind::paper_query_measures())
            .unwrap();
        assert_eq!(exact.values, vec![0.0, 0.0, 0.0]);
        // The short-circuit vector must be byte-identical to what the
        // solvers produce.
        let p = compute_primitives(&a, &a, &SolverConfig::default());
        for (i, m) in MeasureKind::paper_query_measures().iter().enumerate() {
            assert_eq!(exact.values[i], m.from_primitives(&p));
        }
    }

    #[test]
    fn disconnected_graphs_do_not_short_circuit() {
        // Two components: the connected MCS of the graph with itself misses
        // the smaller component, so DistMcs(g, g) > 0 and all-zeros would be
        // unsound.
        let mut v = Vocabulary::new();
        let g = GraphBuilder::new("two", &mut v)
            .vertices(&["a", "b", "c", "d"], "C")
            .edge("a", "b", "-")
            .edge("c", "d", "-")
            .build()
            .unwrap();
        let summary = summarize(&g, &g, &MeasureKind::paper_query_measures(), &exact_ctx(&g));
        assert!(
            !summary.isomorphic,
            "disconnected pairs must go through the solvers"
        );
        let p = compute_primitives(&g, &g, &SolverConfig::default());
        assert!(MeasureKind::Mcs.from_primitives(&p) > 0.0);
    }

    #[test]
    fn empty_pair_is_safe() {
        let mut v = Vocabulary::new();
        let e1 = GraphBuilder::new("e1", &mut v).build().unwrap();
        let e2 = GraphBuilder::new("e2", &mut v).build().unwrap();
        let summary = summarize(
            &e1,
            &e2,
            &MeasureKind::paper_query_measures(),
            &exact_ctx(&e2),
        );
        for lb in &summary.lower.values {
            assert_eq!(*lb, 0.0);
        }
    }

    #[test]
    fn approximate_solvers_disable_the_short_circuit() {
        let (a, _) = pair();
        let ctx = PrefilterContext::for_query(&a, &SolverConfig::Approx, true);
        let summary = summarize(&a, &a, &MeasureKind::paper_query_measures(), &ctx);
        assert!(!summary.isomorphic, "Approx must not short-circuit");
        // Lower bounds are still produced.
        assert_eq!(summary.lower.values, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn context_path_matches_standalone_bounds() {
        // `summarize` combines the hoisted query-side invariants with the
        // candidate side; the result must be exactly what the standalone
        // pair functions compute.
        let (a, b) = pair();
        let measures = [
            MeasureKind::EditDistance,
            MeasureKind::NormalizedEditDistance,
            MeasureKind::Mcs,
            MeasureKind::Gu,
            MeasureKind::LabelHistogram,
        ];
        let summary = summarize(&a, &b, &measures, &exact_ctx(&b));
        let ged_lb = ged_lower_bound(&a, &b);
        let mcs_ub = mcs_edge_upper_bound(&a, &b);
        let (mismatch, total) = label_histogram_stats(&a, &b);
        let lh = f64::from(mismatch) / f64::from(total);
        for (i, m) in measures.iter().enumerate() {
            assert_eq!(
                summary.lower.values[i],
                measure_lower_bound(*m, ged_lb, mcs_ub, (a.size(), b.size()), lh),
                "{}",
                m.name()
            );
        }
    }

    #[test]
    fn cached_stats_path_matches_ad_hoc_summaries() {
        // `summarize_deferred` fed from the database cache must produce
        // exactly what the standalone `summarize` computes, for exact and
        // approximate solver configs alike.
        use crate::database::{GraphDatabase, GraphId};
        let (a, b) = pair();
        let mut db = GraphDatabase::new();
        let ida = db.push(a.clone());
        let _ = db.push(b.clone());
        for solvers in [SolverConfig::Exact, SolverConfig::Approx] {
            let ctx = PrefilterContext::for_query(&b, &solvers, true);
            for id in [ida, GraphId(1)] {
                let g = db.get(id).clone();
                let cached = summarize_deferred(
                    || &g,
                    db.stats(id),
                    &b,
                    &MeasureKind::paper_query_measures(),
                    &ctx,
                );
                let ad_hoc = summarize(&g, &b, &MeasureKind::paper_query_measures(), &ctx);
                assert_eq!(cached, ad_hoc, "{solvers:?} g{}", id.index());
            }
        }
    }

    #[test]
    fn pruning_rate_arithmetic() {
        let stats = PruneStats {
            candidates: 10,
            verified: 4,
            pruned: 5,
            short_circuited: 1,
            ..PruneStats::default()
        };
        assert!((stats.pruning_rate() - 0.6).abs() < 1e-12);
        assert_eq!(stats.index_skip_rate(), 0.0);
        assert_eq!(PruneStats::default().pruning_rate(), 0.0);
        assert_eq!(PruneStats::default().index_skip_rate(), 0.0);

        let indexed = PruneStats {
            candidates: 10,
            verified: 2,
            pruned: 2,
            short_circuited: 1,
            index_skipped: 5,
            index_partitions: 4,
            index_partitions_skipped: 2,
            pivot_probes: 3,
        };
        assert!((indexed.pruning_rate() - 0.8).abs() < 1e-12);
        assert!((indexed.index_skip_rate() - 0.5).abs() < 1e-12);
    }
}
