//! Dominance explanations and result serialization.
//!
//! The paper argues (Section VI) that returning each answer "with a vector
//! of scores showing different similarities" is itself a feature of the
//! skyline approach. This module turns a [`GssResult`] into explanation
//! structures — per-graph dominator lists with per-dimension comparisons —
//! and serializes results to a small, dependency-free JSON subset, as one
//! of two documents:
//!
//! * [`to_json`] — the *answer document*: the skyline members, each with
//!   its exact vector, plus the plan and pruning counters. Its size is
//!   O(|skyline|); `gss-server` caches and serves it as the wire `result`.
//! * [`explain_json`] — the *explain document*: one row per database graph
//!   with its vector, dominators and best dimensions. Its size is
//!   O(|database|); `gss query --format json` prints it.

use std::fmt::Write as _;

use crate::database::{GraphDatabase, GraphId};
use crate::jsonio::escape as json_escape;
use crate::query::{BatchStats, GssResult};

/// Why (or why not) one graph is in the skyline, in full detail.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The graph being explained.
    pub graph: GraphId,
    /// True when the graph is Pareto-optimal.
    pub in_skyline: bool,
    /// True when the explanation rests on the graph's exact GCS vector;
    /// false for graphs the filter-and-verify pipeline pruned (their
    /// dominator list is then derived from the lower-bound vector — sound,
    /// but possibly incomplete).
    pub exact: bool,
    /// Every database graph that similarity-dominates it (empty for skyline
    /// members), ascending. Only verified graphs are listed as dominators
    /// (a pruned graph's stored vector is a lower bound and must not be
    /// credited with dominating anything).
    pub dominators: Vec<GraphId>,
    /// Dimensions (measure indices) on which the graph is the unique best
    /// among the verified vectors — the paper's "most interesting w.r.t. X"
    /// remarks (e.g. g4 for DistEd, g1 for DistMcs, g7 for DistGu). A
    /// pruned graph never appears here: its dominator ties-or-beats it on
    /// every dimension.
    pub best_dimensions: Vec<usize>,
}

/// Builds explanations for every database graph from a query result.
///
/// For naive results every vector is exact and the output is exhaustive.
/// For pruned results (any [`crate::ResolvedPlan`] but `Naive`) the dominator
/// lists consider verified vectors only; a pruned graph keeps at least its
/// recorded witness.
pub fn explain_all(result: &GssResult) -> Vec<Explanation> {
    let n = result.gcs.len();
    let points: Vec<&Vec<f64>> = result.gcs.iter().map(|g| &g.values).collect();
    let dims = result.measures.len();
    // The verified ids, ascending: the only candidates for a best dimension
    // or a dominator, so each row costs O(verified), not O(n).
    let verified: Vec<usize> = (0..n).filter(|&i| result.evaluated[i]).collect();

    // Unique minimum per dimension, among verified vectors.
    let best_of_dim: Vec<Option<usize>> = (0..dims)
        .map(|d| {
            let mut best: Option<(usize, f64)> = None;
            let mut unique = true;
            for &i in &verified {
                let v = points[i][d];
                match best {
                    None => best = Some((i, v)),
                    Some((_, b)) if v < b => {
                        best = Some((i, v));
                        unique = true;
                    }
                    Some((_, b)) if v == b => unique = false,
                    _ => {}
                }
            }
            best.filter(|_| unique).map(|(i, _)| i)
        })
        .collect();

    (0..n)
        .map(|i| {
            // Comparing a verified vector (j) against a lower bound (i,
            // when pruned) is sound: dominating the lower bound implies
            // dominating the true vector.
            let mut dominators: Vec<GraphId> = verified
                .iter()
                .copied()
                .filter(|&j| j != i && gss_skyline::dominates(points[j], points[i]))
                .map(GraphId)
                .collect();
            if dominators.is_empty() {
                // A pruned graph whose lower bound is only *equalled* by its
                // dominator still has a recorded witness — keep it so the
                // explanation never claims Pareto-optimality for a pruned
                // graph.
                if let Some(w) = result.witness_for(GraphId(i)) {
                    dominators.push(w);
                }
            }
            let best_dimensions: Vec<usize> =
                (0..dims).filter(|&d| best_of_dim[d] == Some(i)).collect();
            Explanation {
                graph: GraphId(i),
                in_skyline: dominators.is_empty(),
                exact: result.evaluated[i],
                dominators,
                best_dimensions,
            }
        })
        .collect()
}

/// Serializes a query's *answer document* as JSON (stable key order, no
/// dependencies): the measures, the plan that ran, the skyline members in
/// ascending id — each with its exact GCS vector — and, when a pruned plan
/// ran, the pruning counters. Its size is O(|skyline|), not O(|database|):
/// this is the `gss-server` wire `result` and its cache value. The
/// per-graph rows are [`explain_json`]'s.
///
/// ```json
/// {
///   "measures": ["DistEd", "DistMcs", "DistGu"],
///   "plan": "naive",
///   "skyline": [
///     {"name": "g1", "gcs": [4, 0.33333333333333337, 0.5]},
///     …
///   ]
/// }
/// ```
pub fn to_json(db: &GraphDatabase, result: &GssResult) -> String {
    let mut out = header(result);
    out.push_str(",\n  \"skyline\": [");
    for (i, id) in result.skyline.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"gcs\": [{}]}}",
            json_escape(db.name_of(*id)),
            values(result, *id)
        );
    }
    if !result.skyline.is_empty() {
        out.push_str("\n  ");
    }
    out.push(']');
    pruning(&mut out, result);
    out.push_str("\n}\n");
    out
}

/// Serializes a query result with one row per *database graph* — its
/// vector, dominators and best dimensions ([`explain_all`]) — as JSON
/// (stable key order, no dependencies). This is `gss query --format json`;
/// its size is O(|database|), so the server sends [`to_json`] instead.
///
/// ```json
/// {
///   "measures": ["DistEd", "DistMcs", "DistGu"],
///   "plan": "naive",
///   "graphs": [
///     {"name": "g1", "gcs": [4, 0.33333333333333337, 0.5], "in_skyline": true,
///      "dominators": [], "best_dimensions": [1]},
///     …
///   ],
///   "skyline": ["g1", "g4", "g5", "g7"]
/// }
/// ```
pub fn explain_json(db: &GraphDatabase, result: &GssResult) -> String {
    let explanations = explain_all(result);
    let pruned_run = result.pruning.is_some();
    let mut out = header(result);
    out.push_str(",\n  \"graphs\": [\n");
    for (i, ex) in explanations.iter().enumerate() {
        let name = json_escape(db.name_of(ex.graph));
        let dominators: Vec<String> = ex
            .dominators
            .iter()
            .map(|d| format!("\"{}\"", json_escape(db.name_of(*d))))
            .collect();
        let dims: Vec<String> = ex.best_dimensions.iter().map(usize::to_string).collect();
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"gcs\": [{}], \"in_skyline\": {}, \"dominators\": [{}], \"best_dimensions\": [{}]",
            name,
            values(result, ex.graph),
            ex.in_skyline,
            dominators.join(", "),
            dims.join(", ")
        );
        if pruned_run {
            // Only pruned runs distinguish exact vectors from lower bounds;
            // the key is omitted otherwise to keep the naive JSON stable.
            let _ = write!(out, ", \"exact\": {}", ex.exact);
        }
        out.push('}');
        out.push_str(if i + 1 < explanations.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"skyline\": [");
    for (i, id) in result.skyline.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", json_escape(db.name_of(*id)));
    }
    out.push(']');
    pruning(&mut out, result);
    out.push_str("\n}\n");
    out
}

/// The opening both documents share: `measures` and the resolved `plan`.
fn header(result: &GssResult) -> String {
    let mut out = String::from("{\n  \"measures\": [");
    for (i, m) in result.measures.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", json_escape(m.name()));
    }
    let _ = write!(out, "],\n  \"plan\": \"{}\"", result.plan.name());
    out
}

/// Graph `id`'s GCS vector as comma-separated JSON numbers.
fn values(result: &GssResult, id: GraphId) -> String {
    let values: Vec<String> = result.gcs[id.index()]
        .values
        .iter()
        .map(|v| format!("{v}"))
        .collect();
    values.join(", ")
}

/// Appends the `pruning` object when a pruned plan ran.
fn pruning(out: &mut String, result: &GssResult) {
    let Some(stats) = &result.pruning else {
        return;
    };
    let _ = write!(
        out,
        ",\n  \"pruning\": {{\"candidates\": {}, \"verified\": {}, \"pruned\": {}, \"short_circuited\": {}, \"rate\": {:.4}",
        stats.candidates, stats.verified, stats.pruned, stats.short_circuited, stats.pruning_rate()
    );
    if stats.index_partitions > 0 {
        // Index fields appear only for indexed scans, keeping the
        // prefilter-only JSON byte-stable across engine versions.
        let _ = write!(
            out,
            ", \"index_skipped\": {}, \"index_skip_rate\": {:.4}, \"index_partitions\": {}, \"index_partitions_skipped\": {}, \"pivot_probes\": {}",
            stats.index_skipped,
            stats.index_skip_rate(),
            stats.index_partitions,
            stats.index_partitions_skipped,
            stats.pivot_probes
        );
    }
    out.push('}');
}

/// Serializes aggregated batch counters as a one-line JSON object — the
/// `"batch"` payload of the `gss-server` `stats` verb. `verified` counts
/// exact solver calls.
pub fn batch_stats_to_json(stats: &BatchStats) -> String {
    format!(
        "{{\"queries\": {}, \"candidates\": {}, \"evaluated\": {}, \"verified\": {}, \
         \"pruned\": {}, \"short_circuited\": {}, \"index_skipped\": {}, \"pruning_rate\": {:.4}}}",
        stats.queries,
        stats.candidates,
        stats.evaluated,
        stats.verified,
        stats.pruned,
        stats.short_circuited,
        stats.index_skipped,
        stats.pruning_rate()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{graph_similarity_skyline, QueryOptions};
    use gss_datasets::paper::figure3_database;

    /// Figure 3 under the naive scan, whose every row is exact.
    fn paper_result() -> (GraphDatabase, GssResult) {
        let data = figure3_database();
        let db = GraphDatabase::from_parts(data.vocab, data.graphs);
        let naive = QueryOptions::default().with_plan(crate::Plan::Naive);
        let r = graph_similarity_skyline(&db, &data.query, &naive);
        (db, r)
    }

    #[test]
    fn explanations_match_the_papers_discussion() {
        let (_db, r) = paper_result();
        let ex = explain_all(&r);
        // g4 is the unique best on DistEd (dim 0), g1 on DistMcs (dim 1),
        // g7 on DistGu (dim 2) — exactly Section VI's remarks.
        assert_eq!(ex[3].best_dimensions, vec![0], "g4 best by DistEd");
        assert_eq!(ex[0].best_dimensions, vec![1], "g1 best by DistMcs");
        assert_eq!(ex[6].best_dimensions, vec![2], "g7 best by DistGu");
        // g5 is the "good compromise": best nowhere yet in the skyline.
        assert!(ex[4].in_skyline);
        assert!(ex[4].best_dimensions.is_empty());
        // Dominator lists: g3 dominated (exactly) by g5.
        assert_eq!(ex[2].dominators, vec![GraphId(4)]);
        // Skyline members have no dominators.
        for e in &ex {
            assert_eq!(e.in_skyline, e.dominators.is_empty());
        }
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_names() {
        let (db, r) = paper_result();
        let json = explain_json(&db, &r);
        // Structural spot-checks (no JSON parser in the dependency set —
        // check the invariants that matter to consumers).
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"name\":").count(), 7);
        assert!(json.contains("\"measures\": [\"DistEd\", \"DistMcs\", \"DistGu\"]"));
        assert!(json.contains("\"plan\": \"naive\""), "{json}");
        assert!(json.contains("\"skyline\": [\"g1\", \"g4\", \"g5\", \"g7\"]"));
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn answer_document_holds_only_the_skyline_members() {
        let (db, r) = paper_result();
        assert_eq!(
            to_json(&db, &r),
            "{\n  \"measures\": [\"DistEd\", \"DistMcs\", \"DistGu\"],\n  \"plan\": \"naive\",\n  \
             \"skyline\": [\n    \
             {\"name\": \"g1\", \"gcs\": [4, 0.33333333333333337, 0.5]},\n    \
             {\"name\": \"g4\", \"gcs\": [2, 0.5, 0.6666666666666667]},\n    \
             {\"name\": \"g5\", \"gcs\": [3, 0.375, 0.4444444444444444]},\n    \
             {\"name\": \"g7\", \"gcs\": [4, 0.4, 0.4]}\n  ]\n}\n"
        );
        // A pruned plan names the same members with the same exact vectors,
        // and adds its counters; no per-graph field survives.
        let opts = QueryOptions::default().with_plan(crate::Plan::Prefilter);
        let pruned = graph_similarity_skyline(&db, &figure3_database().query, &opts);
        let json = to_json(&db, &pruned);
        let v = crate::jsonio::Value::parse(&json).expect("valid JSON");
        let naive = crate::jsonio::Value::parse(&to_json(&db, &r)).expect("valid JSON");
        assert_eq!(v.get("skyline"), naive.get("skyline"));
        assert!(v.get("pruning").is_some(), "{json}");
        for key in ["graphs", "dominators", "best_dimensions", "exact"] {
            assert!(!json.contains(&format!("\"{key}\"")), "{key} in {json}");
        }
    }

    #[test]
    fn pruned_results_explain_soundly() {
        let data = figure3_database();
        let db = GraphDatabase::from_parts(data.vocab, data.graphs);
        let opts = QueryOptions {
            plan: crate::Plan::Prefilter,
            ..QueryOptions::default()
        };
        let r = graph_similarity_skyline(&db, &data.query, &opts);
        let (_, naive) = paper_result();
        let ex = explain_all(&r);
        let naive_ex = explain_all(&naive);
        for (e, ne) in ex.iter().zip(&naive_ex) {
            // Skyline membership agrees with the naive explanation.
            assert_eq!(e.in_skyline, ne.in_skyline, "graph {:?}", e.graph);
            // Pruned graphs are flagged and never claimed Pareto-optimal.
            if !e.exact {
                assert!(!e.in_skyline);
                assert!(!e.dominators.is_empty());
            }
            // Every listed dominator really dominates in the naive matrix.
            for d in &e.dominators {
                assert!(gss_skyline::dominates(
                    &naive.gcs[d.index()].values,
                    &naive.gcs[e.graph.index()].values
                ));
            }
        }
        // JSON carries the pruning summary and per-graph exactness.
        let json = explain_json(&db, &r);
        assert!(json.contains("\"pruning\": {"));
        assert!(json.contains("\"exact\": true"));
        // Braces stay balanced with the extra object.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn batch_json_aggregates_stats() {
        use crate::query::{graph_similarity_skyline_batch, BatchStats};
        let data = figure3_database();
        let db = GraphDatabase::from_parts(data.vocab, data.graphs);
        let queries = vec![data.query.clone(), db.get(GraphId(0)).clone()];
        let opts = QueryOptions {
            plan: crate::Plan::Prefilter,
            ..QueryOptions::default()
        };
        let mut stats = BatchStats::default();
        for r in &graph_similarity_skyline_batch(&db, &queries, &opts) {
            stats.absorb(r);
        }
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.candidates, 2 * db.len());
        assert_eq!(
            stats.verified + stats.pruned + stats.short_circuited + stats.index_skipped,
            stats.candidates
        );
        let json = batch_stats_to_json(&stats);
        assert!(json.starts_with("{\"queries\": 2, "), "{json}");
        // The line parses with the workspace JSON parser.
        let v = crate::jsonio::Value::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("candidates").and_then(crate::jsonio::Value::as_f64),
            Some((2 * db.len()) as f64)
        );
    }

    #[test]
    fn to_json_names_graphs_without_materializing_them() {
        use gss_datasets::workload::{Workload, WorkloadConfig};
        let w = Workload::generate(&WorkloadConfig::bench_smoke());
        let mut db = GraphDatabase::from_parts(w.vocab, w.graphs);
        db.compact();
        let opts = QueryOptions {
            plan: crate::Plan::Prefilter,
            ..QueryOptions::default()
        };
        let r = graph_similarity_skyline(&db, &w.query, &opts);
        let before = db.memory_stats().materialized;
        assert!(before < db.len(), "the pruned scan left arena rows unread");
        let json = explain_json(&db, &r);
        assert_eq!(json.matches("\"name\":").count(), db.len());
        let answer = to_json(&db, &r);
        assert_eq!(answer.matches("\"name\":").count(), r.skyline.len());
        assert_eq!(db.memory_stats().materialized, before);
    }
}
