//! Property-based tests of the query engine on synthetic workloads.
//!
//! Engine-level invariants that must hold regardless of data:
//! * skyline members are never dominated; every excluded graph is dominated
//!   by its recorded witness, and the witness is a skyline member;
//! * all skyline algorithms agree with the engine's skyline;
//! * the refined subset is always a subset of the skyline with the
//!   requested size.

mod support;

use proptest::prelude::*;
use similarity_skyline::datasets::workload::WorkloadKind;
use similarity_skyline::prelude::*;
use support::build_workload;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn skyline_is_exactly_the_nondominated_set(
        seed in any::<u64>(),
        size in 2usize..10,
        molecule in any::<bool>(),
    ) {
        let kind = if molecule { WorkloadKind::Molecule } else { WorkloadKind::Uniform };
        let (db, q) = build_workload(seed, size, kind);
        // The naive scan: every row is exact, so non-dominance is decided
        // on exact vectors.
        let naive = QueryOptions::default().with_plan(Plan::Naive);
        let r = graph_similarity_skyline(&db, &q, &naive);

        let points: Vec<&Vec<f64>> = r.gcs.iter().map(|g| &g.values).collect();
        for i in 0..db.len() {
            let dominated = points
                .iter()
                .enumerate()
                .any(|(j, p)| j != i && similarity_skyline::skyline::dominates(p, points[i]));
            prop_assert_eq!(
                r.contains(GraphId(i)),
                !dominated,
                "graph {} skyline membership must equal non-dominance",
                i
            );
        }
        // Witness structure.
        for w in &r.dominated {
            prop_assert!(r.contains(w.dominator), "witness must be in the skyline");
            prop_assert!(similarity_skyline::skyline::dominates(
                &r.gcs[w.dominator.index()].values,
                &r.gcs[w.graph.index()].values
            ));
        }
        prop_assert_eq!(r.skyline.len() + r.dominated.len(), db.len());
    }

    #[test]
    fn skyline_algorithms_agree_with_the_engine(
        seed in any::<u64>(),
        size in 2usize..8,
    ) {
        let (db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let naive = QueryOptions::default().with_plan(Plan::Naive);
        let base = graph_similarity_skyline(&db, &q, &naive);
        // Every skyline algorithm agrees with the engine over its GCS matrix.
        let points: Vec<Vec<f64>> = base.gcs.iter().map(|g| g.values.clone()).collect();
        let members: Vec<usize> = base.skyline.iter().map(|id| id.index()).collect();
        for algo in [Algorithm::Naive, Algorithm::Bnl, Algorithm::Sfs] {
            let sky = similarity_skyline::skyline::skyline(&points, algo);
            prop_assert_eq!(&sky, &members, "{:?}", algo);
        }
    }

    #[test]
    fn refinement_returns_k_skyline_members(
        seed in any::<u64>(),
        size in 6usize..10,
    ) {
        let (db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let r = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        if r.skyline.len() >= 3 {
            let refined = refine_skyline(&db, &r.skyline, 2, &RefineOptions::default()).unwrap();
            prop_assert_eq!(refined.selected.len(), 2);
            for id in &refined.selected {
                prop_assert!(r.skyline.contains(id));
            }
            // Greedy also returns valid members.
            let greedy = refine_skyline_greedy(&db, &r.skyline, 2, &RefineOptions::default());
            prop_assert_eq!(greedy.len(), 2);
            for id in &greedy {
                prop_assert!(r.skyline.contains(id));
            }
        }
    }

    #[test]
    fn identical_graph_always_makes_the_skyline(
        seed in any::<u64>(),
        size in 2usize..8,
    ) {
        // Plant an exact copy of the query: its GCS vector is all-zeros,
        // which can only be equalled, never dominated.
        let (mut db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let copy_id = db.push(q.clone());
        let r = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        prop_assert!(r.contains(copy_id), "an exact match is Pareto-optimal");
        for v in &r.gcs[copy_id.index()].values {
            prop_assert_eq!(*v, 0.0);
        }
    }
}
