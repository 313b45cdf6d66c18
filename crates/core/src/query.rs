//! The graph similarity skyline query engine (Section V of the paper).
//!
//! Given a database `D`, a query graph `q` and `d` local distance measures,
//! the engine computes the compound similarity vector `GCS(g, q)` for every
//! `g ∈ D` and returns the graphs that are **not similarity-dominated**
//! (Definition 12 / Equation 4) — together with, for every excluded graph, a
//! witness dominator (the explanations the paper walks through in
//! Section VI: "g2 is dominated by g7", …).
//!
//! # Plans and the staged executor
//!
//! Every entry point here — [`graph_similarity_skyline`], the batch API and
//! [`graph_similarity_skyband`] — is a thin wrapper over the staged
//! executor in [`crate::exec`]: candidate source → per-candidate bound
//! stage → dominance-driven verifier → assembly. Which source and bound
//! stage run is chosen by [`QueryOptions::plan`]:
//!
//! * [`Plan::Naive`] — exact solvers for every candidate;
//! * [`Plan::Prefilter`] — the filter-and-verify pipeline: cheap
//!   [`crate::prefilter`] lower bounds are computed for every candidate,
//!   candidates are verified most-promising-first, and a candidate whose
//!   lower-bound vector is already similarity-dominated by a *verified*
//!   exact vector is **pruned** (its exact vector cannot make the skyline,
//!   because lower bounds only move up: `exact ≥ lower` per dimension, so
//!   `dominates(e, lower)` implies `dominates(e, exact)`);
//! * [`Plan::Indexed`] — a [`crate::QueryIndex`] partitions the database
//!   first and dominated partitions are skipped wholesale;
//! * [`Plan::Auto`] (default) — resolves to one of the above from the
//!   database size and index availability ([`crate::exec::resolve_plan`]).
//!
//! All plans return the **identical** skyline and witness list — only
//! [`GssResult::evaluated`] and [`GssResult::pruning`] reveal that less
//! work was done. To keep witnesses identical in every plan, the witness
//! for an excluded graph is defined as the first skyline member (ascending
//! id) whose exact vector dominates the graph's *lower-bound* vector,
//! falling back to its exact vector; for a pruned graph the first rule
//! always fires (its pruner, or a skyline member dominating the pruner,
//! dominates the lower bound transitively).
//!
//! Under `Plan::Auto` an attached [`QueryOptions::index`] selects the
//! indexed strategy. The cancellable forms live in [`crate::exec`]
//! ([`exec::skyline`], [`exec::skyline_batch`], [`exec::skyband`]): they
//! take a [`CancelToken`] and abort mid-scan at wave boundaries.

use std::sync::Arc;

use gss_graph::Graph;

use crate::database::{GraphDatabase, GraphId};
use crate::exec::{self, CancelToken, Plan, ResolvedPlan, SkybandResult};
use crate::index::QueryIndex;
use crate::measures::{GcsVector, MeasureKind, SolverConfig};
use crate::prefilter::PruneStats;

/// Options for [`graph_similarity_skyline`].
#[derive(Clone, Debug)]
pub struct QueryOptions {
    /// The local distance measures forming the GCS vector, in order.
    /// Default: the paper's `(DistEd, DistMcs, DistGu)`.
    pub measures: Vec<MeasureKind>,
    /// Exact/approximate solver selection for the primitives.
    pub solvers: SolverConfig,
    /// Worker threads for the per-graph GCS scan (1 = sequential).
    pub threads: usize,
    /// Static candidate partitions for [`Plan::Sharded`]: the database is
    /// split into this many contiguous ranges, each verified by its own
    /// sequential filter-and-verify pipeline, and the per-shard frontiers
    /// are merged into one skyline (see [`crate::exec`]). Ignored by every
    /// other plan; values `<= 1` run the sharded pipeline as one shard.
    pub shards: usize,
    /// The evaluation strategy (see [`crate::exec`]). `Plan::Auto` (the
    /// default) picks from the database size, this option set and index
    /// availability; the explicit plans force one strategy. Every plan
    /// returns identical answers.
    pub plan: Plan,
    /// Optional database index (e.g. `gss-index`'s pivot index) consulted
    /// *before* the per-candidate prefilter: whole partitions whose bound
    /// vector is dominated by a verified exact vector are skipped without
    /// touching their members. Under [`Plan::Auto`] an attached index
    /// selects the indexed strategy (which runs the per-candidate
    /// prefilter inside surviving partitions); [`Plan::Indexed`] requires
    /// it. Results stay identical to the naive scan.
    pub index: Option<Arc<dyn QueryIndex>>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            measures: MeasureKind::paper_query_measures(),
            solvers: SolverConfig::default(),
            threads: 1,
            shards: 1,
            plan: Plan::Auto,
            index: None,
        }
    }
}

impl QueryOptions {
    /// Returns the options with the given index attached (under
    /// `Plan::Auto` the indexed strategy — including the per-candidate
    /// prefilter for surviving partitions — is then selected).
    pub fn with_index(self, index: Arc<dyn QueryIndex>) -> Self {
        QueryOptions {
            index: Some(index),
            ..self
        }
    }

    /// Returns the options with an explicit evaluation plan.
    pub fn with_plan(self, plan: Plan) -> Self {
        QueryOptions { plan, ..self }
    }

    /// Returns the options with the given shard count and
    /// [`Plan::Sharded`] selected.
    pub fn with_shards(self, shards: usize) -> Self {
        QueryOptions {
            shards,
            plan: Plan::Sharded,
            ..self
        }
    }
}

/// Why a graph is not in the skyline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DominationWitness {
    /// The excluded graph.
    pub graph: GraphId,
    /// A database graph whose GCS vector similarity-dominates it.
    pub dominator: GraphId,
}

/// The result of a graph similarity skyline query.
#[derive(Clone, Debug)]
pub struct GssResult {
    /// The measures used, in GCS-vector order.
    pub measures: Vec<MeasureKind>,
    /// The strategy the query actually ran under (an `Auto` request
    /// resolves to one of the concrete plans).
    pub plan: ResolvedPlan,
    /// Per-graph vectors in database order: the exact `GCS(gi, q)` for
    /// verified graphs, the prefilter *lower-bound* vector for pruned ones
    /// (see [`GssResult::evaluated`]). Without pruning every entry is exact.
    pub gcs: Vec<GcsVector>,
    /// `evaluated[i]` is true when `gcs[i]` is the exact vector (computed by
    /// the solvers or proven all-zero by the isomorphism short-circuit).
    pub evaluated: Vec<bool>,
    /// Ids of the Pareto-optimal graphs (`GSS(D, q)`), ascending.
    pub skyline: Vec<GraphId>,
    /// One witness per excluded graph (ascending by excluded id).
    pub dominated: Vec<DominationWitness>,
    /// Pruning counters when the filter-and-verify pipeline ran, `None` for
    /// the naive scan.
    pub pruning: Option<PruneStats>,
}

impl GssResult {
    /// True when `id` made the skyline.
    pub fn contains(&self, id: GraphId) -> bool {
        self.skyline.binary_search(&id).is_ok()
    }

    /// The witness dominator for an excluded graph, if any.
    pub fn witness_for(&self, id: GraphId) -> Option<GraphId> {
        self.dominated
            .iter()
            .find(|w| w.graph == id)
            .map(|w| w.dominator)
    }

    /// True when `gcs[id]` holds the exact GCS vector (always true for
    /// skyline members; false only for graphs pruned by the prefilter).
    pub fn is_exact(&self, id: GraphId) -> bool {
        self.evaluated[id.index()]
    }
}

/// Computes `GSS(D, q)` (Equation 4 of the paper) through the staged
/// executor under [`QueryOptions::plan`].
pub fn graph_similarity_skyline(
    db: &GraphDatabase,
    query: &Graph,
    options: &QueryOptions,
) -> GssResult {
    exec::skyline(db, query, options, &CancelToken::new()).expect("a fresh CancelToken never fires")
}

/// Aggregated observability counters for a batch of query results — the
/// batch-level view of [`PruneStats`]. Totals are summed over every result;
/// results from naive scans (no [`GssResult::pruning`]) count each
/// candidate as one exact solver call, which is exactly what the naive
/// scan performs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of query results aggregated.
    pub queries: usize,
    /// Total candidates considered (database size summed over queries).
    pub candidates: usize,
    /// Total candidates whose exact GCS vector is known (solver-verified or
    /// short-circuited) — the per-result `evaluated` counts summed.
    pub evaluated: usize,
    /// Total exact solver calls (candidates that ran the GED/MCS solvers).
    pub verified: usize,
    /// Total candidates pruned by lower-bound dominance.
    pub pruned: usize,
    /// Total candidates resolved by the isomorphism short-circuit.
    pub short_circuited: usize,
    /// Total candidates skipped wholesale by a metric index.
    pub index_skipped: usize,
}

impl BatchStats {
    /// Adds one result's counters to the running totals.
    pub fn absorb(&mut self, result: &GssResult) {
        self.queries += 1;
        self.candidates += result.gcs.len();
        self.evaluated += result.evaluated.iter().filter(|&&e| e).count();
        match &result.pruning {
            Some(p) => {
                self.verified += p.verified;
                self.pruned += p.pruned;
                self.short_circuited += p.short_circuited;
                self.index_skipped += p.index_skipped;
            }
            // A naive scan runs the exact solvers for every candidate.
            None => self.verified += result.gcs.len(),
        }
    }

    /// Merges another aggregate into this one (for long-lived accumulators
    /// like the `gss-server` stats counters).
    pub fn merge(&mut self, other: &BatchStats) {
        self.queries += other.queries;
        self.candidates += other.candidates;
        self.evaluated += other.evaluated;
        self.verified += other.verified;
        self.pruned += other.pruned;
        self.short_circuited += other.short_circuited;
        self.index_skipped += other.index_skipped;
    }

    /// Fraction of candidates that skipped exact solving, in `[0, 1]`.
    pub fn pruning_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            (self.pruned + self.short_circuited + self.index_skipped) as f64
                / self.candidates as f64
        }
    }
}

/// Runs one skyline query per input over a shared database, spreading the
/// queries across [`QueryOptions::threads`] workers (each query then scans
/// sequentially — for multi-query workloads, cross-query parallelism beats
/// nested per-candidate parallelism because it needs no synchronization).
///
/// Results are in query order and identical to calling
/// [`graph_similarity_skyline`] per query with `threads = 1`. Aggregate the
/// per-query [`GssResult::pruning`] counters with [`BatchStats::absorb`].
pub fn graph_similarity_skyline_batch(
    db: &GraphDatabase,
    queries: &[Graph],
    options: &QueryOptions,
) -> Vec<GssResult> {
    let cancels = vec![CancelToken::new(); queries.len()];
    exec::skyline_batch(db, queries, options, &cancels)
        .into_iter()
        .map(|r| r.expect("a fresh CancelToken never fires"))
        .collect()
}

/// **Extension** (related work \[20\] of the paper): the *k-skyband* of a
/// similarity query — every database graph similarity-dominated by fewer
/// than `k` others. `k = 1` is exactly the [`graph_similarity_skyline`]
/// member set; larger `k` relaxes the answer set gracefully (useful when
/// the strict skyline is too small), while staying order-consistent: the
/// skyband is monotone in `k` and always contains the skyline.
///
/// Runs through the same staged executor as the skyline: under the pruned
/// plans the frontier tracks **dominance counts** against lower bounds — a
/// candidate whose lower-bound vector is dominated by `k` verified exact
/// vectors is excluded without ever running the solvers
/// ([`SkybandResult::pruning`] reports how many were). Membership is
/// byte-identical across plans.
pub fn graph_similarity_skyband(
    db: &GraphDatabase,
    query: &Graph,
    k: usize,
    options: &QueryOptions,
) -> SkybandResult {
    exec::skyband(db, query, k, options, &CancelToken::new())
        .expect("a fresh CancelToken never fires")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_datasets::paper::{expected, figure3_database};

    fn paper_db() -> (GraphDatabase, Graph) {
        let data = figure3_database();
        let db = GraphDatabase::from_parts(data.vocab, data.graphs);
        (db, data.query)
    }

    fn prefilter_options() -> QueryOptions {
        QueryOptions {
            plan: Plan::Prefilter,
            ..QueryOptions::default()
        }
    }

    #[test]
    fn paper_skyline_is_g1_g4_g5_g7() {
        let (db, q) = paper_db();
        let r = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        let got: Vec<usize> = r.skyline.iter().map(|g| g.index()).collect();
        assert_eq!(got, expected::SKYLINE.to_vec());
    }

    #[test]
    fn paper_dominance_witnesses() {
        let (db, q) = paper_db();
        let r = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        // Paper: g2 dominated by g7, g3 by g5, g6 by g1.
        for (loser, winner) in expected::DOMINANCE_WITNESSES {
            let w = r
                .witness_for(GraphId(loser))
                .expect("dominated graph has witness");
            // The specific witness the paper names must indeed dominate;
            // our engine may legitimately report another dominator, so check
            // dominance directly.
            let paper_winner = &r.gcs[winner].values;
            let lose = &r.gcs[loser].values;
            assert!(
                gss_skyline::dominates(paper_winner, lose),
                "paper witness g{} ≻ g{}",
                winner + 1,
                loser + 1
            );
            assert!(r.contains(w), "engine witness must be a skyline member");
        }
    }

    #[test]
    fn gcs_matrix_matches_table3() {
        let (db, q) = paper_db();
        let r = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        // Column 0: DistEd (Table III, exact integers).
        let ed: Vec<f64> = r.gcs.iter().map(|g| g.values[0]).collect();
        assert_eq!(ed, expected::TABLE3_ED.to_vec());
        // Columns 1–2 derive from Table II mcs sizes.
        for (i, (_, g)) in db.iter().enumerate() {
            let mcs = expected::TABLE2_MCS[i] as f64;
            let dist_mcs = 1.0 - mcs / (g.size().max(q.size()) as f64);
            let dist_gu = 1.0 - mcs / ((g.size() + q.size()) as f64 - mcs);
            assert!(
                (r.gcs[i].values[1] - dist_mcs).abs() < 1e-12,
                "g{} DistMcs",
                i + 1
            );
            assert!(
                (r.gcs[i].values[2] - dist_gu).abs() < 1e-12,
                "g{} DistGu",
                i + 1
            );
        }
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let (db, q) = paper_db();
        let seq = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        let par = graph_similarity_skyline(
            &db,
            &q,
            &QueryOptions {
                threads: 4,
                ..QueryOptions::default()
            },
        );
        assert_eq!(seq.skyline, par.skyline);
        assert_eq!(seq.gcs, par.gcs);
    }

    #[test]
    fn all_skyline_algorithms_agree() {
        let (db, q) = paper_db();
        let r = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        let points: Vec<Vec<f64>> = r.gcs.iter().map(|g| g.values.clone()).collect();
        let members: Vec<usize> = r.skyline.iter().map(|id| id.index()).collect();
        for algo in [
            gss_skyline::Algorithm::Naive,
            gss_skyline::Algorithm::Bnl,
            gss_skyline::Algorithm::Sfs,
        ] {
            assert_eq!(gss_skyline::skyline(&points, algo), members, "{algo:?}");
        }
    }

    #[test]
    fn single_measure_query_degenerates_to_minimum() {
        let (db, q) = paper_db();
        let r = graph_similarity_skyline(
            &db,
            &q,
            &QueryOptions {
                measures: vec![MeasureKind::EditDistance],
                ..Default::default()
            },
        );
        // With one dimension, the skyline is the set of minimum-GED graphs:
        // Table III says g4 (DistEd 2) is the unique minimum.
        assert_eq!(r.skyline, vec![GraphId(3)]);
    }

    #[test]
    fn skyband_1_is_the_skyline_and_grows_with_k() {
        let (db, q) = paper_db();
        let opts = QueryOptions::default();
        let sky = graph_similarity_skyline(&db, &q, &opts).skyline;
        let band1 = graph_similarity_skyband(&db, &q, 1, &opts);
        assert_eq!(band1.members, sky);
        assert!(band1.contains(sky[0]));
        let band2 = graph_similarity_skyband(&db, &q, 2, &opts);
        for id in &band1.members {
            assert!(band2.members.contains(id), "skyband must be monotone in k");
        }
        // On the paper's data: g2 has 2 dominators (g1, g7), g3 has 1 (g5),
        // g6 has 2 (g1, g5?) — verify counts directly instead of guessing.
        let big = graph_similarity_skyband(&db, &q, db.len(), &opts);
        assert_eq!(big.members.len(), db.len(), "huge k keeps everything");
    }

    #[test]
    fn pruned_skyband_matches_naive_across_plans_and_k() {
        let (db, q) = paper_db();
        for k in 0..=3 {
            let naive = graph_similarity_skyband(
                &db,
                &q,
                k,
                &QueryOptions {
                    plan: Plan::Naive,
                    ..QueryOptions::default()
                },
            );
            assert!(naive.pruning.is_none());
            let pruned = graph_similarity_skyband(&db, &q, k, &prefilter_options());
            assert_eq!(pruned.members, naive.members, "k={k}");
            let stats = pruned.pruning.expect("prefilter skyband stats");
            assert_eq!(
                stats.verified + stats.pruned + stats.short_circuited,
                db.len(),
                "k={k}"
            );
            if k == 0 {
                assert!(pruned.members.is_empty());
            }
        }
        // With k = 1 the pruned skyband actually prunes on this dataset
        // (the skyline pipeline does, and the band frontier is at least as
        // strong there).
        let band1 = graph_similarity_skyband(&db, &q, 1, &prefilter_options());
        assert!(band1.pruning.expect("stats").pruned > 0);
    }

    #[test]
    fn extended_measure_vector_still_yields_valid_skyline() {
        let (db, q) = paper_db();
        let opts = QueryOptions {
            measures: vec![
                MeasureKind::EditDistance,
                MeasureKind::Mcs,
                MeasureKind::Gu,
                MeasureKind::LabelHistogram,
            ],
            ..Default::default()
        };
        let r = graph_similarity_skyline(&db, &q, &opts);
        // Adding a dimension never invalidates the core invariant:
        for (i, gcs) in r.gcs.iter().enumerate() {
            assert_eq!(gcs.values.len(), 4);
            let dominated = r
                .gcs
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && gss_skyline::dominates(&other.values, &gcs.values));
            assert_eq!(r.contains(GraphId(i)), !dominated);
        }
        // The paper's 3-measure skyline members remain Pareto-optimal here:
        // a dominator in 4 dimensions must tie-or-beat all 3 original ones,
        // and no two GCS vectors tie on all three in this dataset.
        let base = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        for id in &base.skyline {
            assert!(
                r.contains(*id),
                "g{} must survive when a dimension is added",
                id.index() + 1
            );
        }
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let mut db = GraphDatabase::new();
        let q = db.build_query("q", |b| b.vertex("x", "A")).unwrap();
        let r = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        assert!(r.skyline.is_empty());
        assert!(r.gcs.is_empty());
        assert!(r.dominated.is_empty());
        let pruned = graph_similarity_skyline(&db, &q, &prefilter_options());
        assert!(pruned.skyline.is_empty());
        assert_eq!(pruned.pruning.expect("stats present").candidates, 0);
    }

    #[test]
    #[should_panic(expected = "at least one measure")]
    fn rejects_empty_measure_list() {
        let mut db = GraphDatabase::new();
        let q = db.build_query("q", |b| b.vertex("x", "A")).unwrap();
        graph_similarity_skyline(
            &db,
            &q,
            &QueryOptions {
                measures: vec![],
                ..Default::default()
            },
        );
    }

    #[test]
    fn pruned_scan_matches_naive_on_paper_data() {
        let (db, q) = paper_db();
        let naive = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        let pruned = graph_similarity_skyline(&db, &q, &prefilter_options());
        assert_eq!(pruned.skyline, naive.skyline);
        assert_eq!(pruned.dominated, naive.dominated);
        assert_eq!(naive.plan, ResolvedPlan::Naive);
        assert_eq!(pruned.plan, ResolvedPlan::Prefilter);
        let stats = pruned.pruning.expect("prefilter stats");
        assert_eq!(stats.candidates, db.len());
        assert_eq!(
            stats.verified + stats.pruned + stats.short_circuited,
            db.len()
        );
        // Every verified vector is byte-identical to the naive one.
        for i in 0..db.len() {
            if pruned.is_exact(GraphId(i)) {
                assert_eq!(pruned.gcs[i], naive.gcs[i], "g{}", i + 1);
            } else {
                // A pruned graph's lower bound never exceeds the exact value.
                for (lb, ex) in pruned.gcs[i].values.iter().zip(&naive.gcs[i].values) {
                    assert!(lb <= &(ex + 1e-12));
                }
            }
        }
        // Naive results report every vector as exact, no stats.
        assert!(naive.evaluated.iter().all(|&e| e));
        assert!(naive.pruning.is_none());
    }

    #[test]
    fn pruned_scan_is_thread_count_invariant() {
        let (db, q) = paper_db();
        let seq = graph_similarity_skyline(&db, &q, &prefilter_options());
        let par = graph_similarity_skyline(
            &db,
            &q,
            &QueryOptions {
                threads: 4,
                plan: Plan::Prefilter,
                ..QueryOptions::default()
            },
        );
        assert_eq!(seq.skyline, par.skyline);
        assert_eq!(seq.dominated, par.dominated);
    }

    #[test]
    fn identical_graph_short_circuits() {
        let (mut db, q) = paper_db();
        let copy = db.push(q.clone());
        let r = graph_similarity_skyline(&db, &q, &prefilter_options());
        assert!(r.contains(copy));
        assert_eq!(r.gcs[copy.index()].values, vec![0.0, 0.0, 0.0]);
        let stats = r.pruning.expect("stats");
        assert!(
            stats.short_circuited >= 1,
            "the planted copy must short-circuit"
        );
        // An all-zero frontier member prunes everything it strictly
        // dominates; only ties (other zero vectors) still verify.
        let naive = graph_similarity_skyline(
            &db,
            &q,
            &QueryOptions {
                plan: Plan::Naive,
                ..QueryOptions::default()
            },
        );
        assert_eq!(r.skyline, naive.skyline);
        assert_eq!(r.dominated, naive.dominated);
        assert!(stats.pruned > 0, "a perfect match should prune the rest");
    }

    #[test]
    fn batch_matches_individual_queries() {
        let (db, q) = paper_db();
        let queries: Vec<Graph> = vec![
            q.clone(),
            db.get(GraphId(1)).clone(),
            db.get(GraphId(6)).clone(),
        ];
        for plan in [Plan::Auto, Plan::Prefilter] {
            let opts = QueryOptions {
                plan,
                threads: 3,
                ..QueryOptions::default()
            };
            let batch = graph_similarity_skyline_batch(&db, &queries, &opts);
            assert_eq!(batch.len(), queries.len());
            let single_opts = QueryOptions {
                plan,
                ..QueryOptions::default()
            };
            for (i, query) in queries.iter().enumerate() {
                let single = graph_similarity_skyline(&db, query, &single_opts);
                assert_eq!(batch[i].skyline, single.skyline, "query {i}");
                assert_eq!(batch[i].dominated, single.dominated, "query {i}");
            }
        }
    }

    #[test]
    fn prefilter_works_with_approximate_solvers() {
        let (db, q) = paper_db();
        let solvers = SolverConfig::Approx;
        let naive = graph_similarity_skyline(
            &db,
            &q,
            &QueryOptions {
                solvers,
                ..QueryOptions::default()
            },
        );
        let pruned = graph_similarity_skyline(
            &db,
            &q,
            &QueryOptions {
                solvers,
                plan: Plan::Prefilter,
                ..QueryOptions::default()
            },
        );
        assert_eq!(pruned.skyline, naive.skyline);
        assert_eq!(pruned.dominated, naive.dominated);
    }
}
