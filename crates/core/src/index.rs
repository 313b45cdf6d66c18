//! The query-engine ↔ index contract.
//!
//! A database index (e.g. the pivot-based metric index in the `gss-index`
//! crate) partitions the database ahead of time; at query time it turns one
//! query graph into an [`IndexPlan`]: a set of disjoint candidate
//! partitions, each carrying an **admissible per-measure lower-bound
//! vector** that holds for *every* member of the partition. The engine
//! ([`crate::query`]) then skips whole partitions whose bound vector is
//! similarity-dominated by an already-verified exact vector — without
//! touching their members at all — and runs the ordinary per-candidate
//! filter-and-verify pipeline inside the partitions that survive.
//!
//! The trait lives in `gss-core` (not in the index crate) so the engine
//! stays index-agnostic and index implementations can depend on the engine
//! for measure math without a dependency cycle.
//!
//! # Soundness contract
//!
//! For every partition `P` returned by [`QueryIndex::plan`] and every
//! member `g ∈ P`, the bound vector must satisfy
//! `bound[j] ≤ value_j(g, q)` for each measure `j`, where `value_j` is what
//! the **configured solvers** report — not just the exact distance. The
//! approximate solvers only ever over-estimate distances (bipartite GED is
//! an upper bound; greedy MCS under-estimates `|mcs|`, which
//! over-estimates `DistMcs`/`DistGu`), so any bound that is admissible
//! against the exact distances is admissible under both
//! [`crate::SolverConfig`]s.
//!
//! The partitions must form an exact partition of the database: every
//! [`GraphId`] appears in exactly one partition. The engine validates this
//! and panics otherwise, because a missing candidate would silently drop
//! answers.

use gss_graph::Graph;

use crate::database::{GraphDatabase, GraphId};
use crate::measures::{GcsVector, MeasureKind};

/// One candidate partition of an [`IndexPlan`].
#[derive(Clone, Debug)]
pub struct IndexPartition {
    /// The database graphs in this partition.
    pub members: Vec<GraphId>,
    /// A per-measure lower bound valid for **every** member, in the query's
    /// measure order.
    pub bound: GcsVector,
}

/// A query-specific partitioning of the database produced by an index.
#[derive(Clone, Debug, Default)]
pub struct IndexPlan {
    /// Disjoint partitions covering the whole database.
    pub partitions: Vec<IndexPartition>,
    /// How many pivot probes (cheap query-to-pivot bound computations, not
    /// exact solver calls) the plan cost. Reported in [`crate::PruneStats`].
    pub pivot_probes: usize,
}

impl IndexPlan {
    /// The partition visit order of the executor's candidate source stage
    /// ([`crate::exec`]): most promising first — smallest bound-vector sum,
    /// ties broken by member ids — so the query's neighbourhood verifies
    /// early and by the time the far partitions come up the dominance
    /// frontier usually covers them wholesale.
    pub fn most_promising_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.partitions.len()).collect();
        order.sort_by(|&a, &b| {
            let sum = |p: usize| -> f64 { self.partitions[p].bound.values.iter().sum() };
            sum(a)
                .partial_cmp(&sum(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| self.partitions[a].members.cmp(&self.partitions[b].members))
        });
        order
    }
}

/// A database index the query engine can consult to skip whole candidate
/// partitions before any per-candidate work.
///
/// Implementations are shared across queries (and threads) through
/// [`crate::QueryOptions::index`], so planning must not mutate the index.
pub trait QueryIndex: std::fmt::Debug + Send + Sync {
    /// Builds the partition plan for one query.
    ///
    /// `db` must be the database the index was built on (implementations
    /// should verify a fingerprint and panic with a clear message rather
    /// than return unsound partitions).
    fn plan(&self, db: &GraphDatabase, query: &Graph, measures: &[MeasureKind]) -> IndexPlan;

    /// One human-readable line describing the index (for explain output).
    fn describe(&self) -> String;
}

/// Validates that `plan` covers `0..n` exactly once; panics otherwise.
/// Called by the engine before trusting a plan.
pub(crate) fn validate_plan(plan: &IndexPlan, n: usize) {
    let mut seen = vec![false; n];
    for p in &plan.partitions {
        for id in &p.members {
            assert!(
                id.index() < n,
                "index plan names graph {:?} outside the database (len {})",
                id,
                n
            );
            assert!(!seen[id.index()], "index plan lists graph {:?} twice", id);
            seen[id.index()] = true;
        }
    }
    let covered = seen.iter().filter(|&&s| s).count();
    assert!(
        covered == n,
        "index plan covers {covered} of {n} database graphs"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_of(members: Vec<Vec<usize>>) -> IndexPlan {
        IndexPlan {
            partitions: members
                .into_iter()
                .map(|m| IndexPartition {
                    members: m.into_iter().map(GraphId).collect(),
                    bound: GcsVector { values: vec![0.0] },
                })
                .collect(),
            pivot_probes: 0,
        }
    }

    #[test]
    fn valid_plan_passes() {
        validate_plan(&plan_of(vec![vec![0, 2], vec![1]]), 3);
        validate_plan(&plan_of(vec![]), 0);
    }

    #[test]
    #[should_panic(expected = "covers 2 of 3")]
    fn missing_member_panics() {
        validate_plan(&plan_of(vec![vec![0, 2]]), 3);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_member_panics() {
        validate_plan(&plan_of(vec![vec![0, 1], vec![1]]), 2);
    }

    #[test]
    #[should_panic(expected = "outside the database")]
    fn out_of_range_member_panics() {
        validate_plan(&plan_of(vec![vec![5]]), 2);
    }
}
