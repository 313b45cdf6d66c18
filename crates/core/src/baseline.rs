//! Single-measure top-k retrieval — the baseline the paper contrasts with.
//!
//! Section VI: "If we are interested in the best k (= 3) answers, g3 is then
//! returned … by the edit-distance-based approach … but with the
//! skyline-based approach g3 is not returned since g5 does better than it."
//! This module implements that baseline so the contrast (and the recall
//! ablation A1) can be reproduced.

use gss_graph::Graph;

use crate::database::{GraphDatabase, GraphId};
use crate::measures::{compute_primitives, MeasureKind, SolverConfig};
use crate::parallel::parallel_map_indexed;

/// A scored answer.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ScoredGraph {
    /// The database graph.
    pub id: GraphId,
    /// Its distance to the query under the chosen measure.
    pub distance: f64,
}

/// Returns the `k` database graphs closest to `query` under a **single**
/// measure, ascending by distance (ties by id — deterministic).
pub fn top_k_by_measure(
    db: &GraphDatabase,
    query: &Graph,
    measure: MeasureKind,
    k: usize,
    threads: usize,
) -> Vec<ScoredGraph> {
    let distances = parallel_map_indexed(db.len(), threads, |i| {
        let p = compute_primitives(db.get(GraphId(i)), query, &SolverConfig::Exact);
        measure.from_primitives(&p)
    });
    let mut scored: Vec<ScoredGraph> = distances
        .into_iter()
        .enumerate()
        .map(|(i, distance)| ScoredGraph {
            id: GraphId(i),
            distance,
        })
        .collect();
    scored.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_datasets::paper::figure3_database;

    #[test]
    fn paper_contrast_g3_in_ed_top3_but_dominated() {
        let data = figure3_database();
        let db = GraphDatabase::from_parts(data.vocab, data.graphs);
        let top3 = top_k_by_measure(&db, &data.query, MeasureKind::EditDistance, 3, 1);
        let ids: Vec<usize> = top3.iter().map(|s| s.id.index()).collect();
        // DistEd: g4=2, g3=3, g5=3 → top-3 = {g4, g3, g5}.
        assert!(ids.contains(&3), "g4 must be in ED top-3");
        assert!(
            ids.contains(&2),
            "g3 must be in ED top-3 (the paper's point)"
        );
        assert!(ids.contains(&4), "g5 must be in ED top-3");
        // …and yet g3 is NOT in the skyline (dominated by g5).
        let r = crate::query::graph_similarity_skyline(
            &db,
            &data.query,
            &crate::query::QueryOptions::default(),
        );
        assert!(!r.contains(GraphId(2)));
    }

    #[test]
    fn ordering_and_truncation() {
        let data = figure3_database();
        let db = GraphDatabase::from_parts(data.vocab, data.graphs);
        let all = top_k_by_measure(&db, &data.query, MeasureKind::EditDistance, usize::MAX, 2);
        assert_eq!(all.len(), db.len());
        for w in all.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        let none = top_k_by_measure(&db, &data.query, MeasureKind::EditDistance, 0, 1);
        assert!(none.is_empty());
    }

    #[test]
    fn different_measures_rank_differently() {
        let data = figure3_database();
        let db = GraphDatabase::from_parts(data.vocab, data.graphs);
        let by_ed = top_k_by_measure(&db, &data.query, MeasureKind::EditDistance, 1, 1);
        let by_mcs = top_k_by_measure(&db, &data.query, MeasureKind::Mcs, 1, 1);
        let by_gu = top_k_by_measure(&db, &data.query, MeasureKind::Gu, 1, 1);
        // Section VI: g4 best by DistEd, g1 best by DistMcs, g7 best by DistGu.
        assert_eq!(by_ed[0].id, GraphId(3));
        assert_eq!(by_mcs[0].id, GraphId(0));
        assert_eq!(by_gu[0].id, GraphId(6));
    }
}
