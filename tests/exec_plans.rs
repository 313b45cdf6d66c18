//! Property tests for the unified planner and staged executor
//! (`gss_core::exec`).
//!
//! Four families of invariants:
//!
//! 1. **Plan parity** — all five plans (`Auto | Naive | Prefilter |
//!    Indexed | Sharded`) yield byte-identical skylines, domination
//!    witnesses, verified GCS vectors and skyband memberships, across
//!    workload kinds, thread counts and solver configurations;
//! 2. **Shard invariance** — the sharded plan's *entire serialized
//!    explain document* is byte-identical across shard counts (the
//!    server's cache key exempts `shards`, so this is load-bearing);
//! 3. **Auto economy** — `Plan::Auto` never performs more exact solver
//!    calls than the best manual plan on the same query (on random
//!    workloads and on the committed smoke workload, where the pruned
//!    skyband must also exclude candidates by bounds alone);
//! 4. **Cancellation** — a fired [`CancelToken`] aborts every plan (and
//!    each query of a batch independently) instead of returning a partial
//!    answer.

use std::sync::Arc;

use proptest::prelude::*;
use similarity_skyline::core::{exec, QueryIndex};
use similarity_skyline::datasets::workload::{Workload, WorkloadConfig, WorkloadKind};
use similarity_skyline::prelude::*;

const ALL_PLANS: [Plan; 5] = [
    Plan::Auto,
    Plan::Naive,
    Plan::Prefilter,
    Plan::Indexed,
    Plan::Sharded,
];

fn build_workload(seed: u64, size: usize, kind: WorkloadKind) -> (GraphDatabase, Graph) {
    let cfg = WorkloadConfig {
        kind,
        database_size: size,
        graph_vertices: 5,
        related_fraction: 0.5,
        max_edits: 3,
        seed,
    };
    let w = Workload::generate(&cfg);
    (GraphDatabase::from_parts(w.vocab, w.graphs), w.query)
}

/// Options with the index attached (so `Indexed` and `Auto` can use it)
/// and an explicit plan.
fn plan_options(
    index: &Arc<PivotIndex>,
    plan: Plan,
    threads: usize,
    solvers: SolverConfig,
) -> QueryOptions {
    QueryOptions {
        threads,
        solvers,
        plan,
        index: Some(Arc::clone(index) as Arc<dyn QueryIndex>),
        ..QueryOptions::default()
    }
}

/// Exact solver calls a result cost: the `verified` counter for pruned
/// plans, the full candidate count for a naive scan.
fn solver_calls(r: &GssResult) -> usize {
    r.pruning.map_or(r.gcs.len(), |p| p.verified)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn all_plans_agree_on_skyline_witnesses_and_vectors(
        seed in any::<u64>(),
        size in 2usize..10,
        molecule in any::<bool>(),
        threads in 1usize..4,
        pivots in 1usize..4,
        rings in 1usize..4,
        approx in any::<bool>(),
    ) {
        let kind = if molecule { WorkloadKind::Molecule } else { WorkloadKind::Uniform };
        let (db, q) = build_workload(seed, size, kind);
        let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig { pivots, rings }));
        let solvers = if approx {
            SolverConfig { ged: GedMode::Bipartite, mcs: McsMode::Greedy }
        } else {
            SolverConfig::default()
        };
        let baseline = graph_similarity_skyline(
            &db, &q, &plan_options(&index, Plan::Naive, 1, solvers),
        );
        prop_assert_eq!(baseline.plan, ResolvedPlan::Naive);
        prop_assert!(baseline.pruning.is_none());
        for plan in ALL_PLANS {
            let r = graph_similarity_skyline(
                &db, &q, &plan_options(&index, plan, threads, solvers),
            );
            prop_assert_eq!(&r.skyline, &baseline.skyline, "{:?}", plan);
            prop_assert_eq!(&r.dominated, &baseline.dominated, "{:?} witnesses", plan);
            prop_assert_eq!(r.measures.len(), baseline.measures.len());
            // Verified vectors are byte-identical to the naive scan's;
            // pruned entries hold admissible lower bounds.
            for i in 0..db.len() {
                if r.is_exact(GraphId(i)) {
                    prop_assert_eq!(&r.gcs[i], &baseline.gcs[i], "{:?} g{}", plan, i);
                } else {
                    for (lb, ex) in r.gcs[i].values.iter().zip(&baseline.gcs[i].values) {
                        prop_assert!(lb <= &(ex + 1e-9), "{:?} g{}", plan, i);
                    }
                }
            }
            if let Some(stats) = &r.pruning {
                prop_assert_eq!(
                    stats.verified + stats.pruned + stats.short_circuited + stats.index_skipped,
                    db.len(),
                    "{:?}", plan
                );
            }
        }
        // An index attached under Auto resolves to the indexed strategy.
        let auto = graph_similarity_skyline(&db, &q, &plan_options(&index, Plan::Auto, 1, solvers));
        prop_assert_eq!(auto.plan, ResolvedPlan::Indexed);
    }

    #[test]
    fn all_plans_agree_on_skyband_membership(
        seed in any::<u64>(),
        size in 2usize..10,
        k in 0usize..4,
        threads in 1usize..4,
        approx in any::<bool>(),
    ) {
        let (db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig { pivots: 2, rings: 2 }));
        let solvers = if approx {
            SolverConfig { ged: GedMode::Bipartite, mcs: McsMode::Greedy }
        } else {
            SolverConfig::default()
        };
        let baseline = graph_similarity_skyband(
            &db, &q, k, &plan_options(&index, Plan::Naive, 1, solvers),
        );
        prop_assert!(baseline.pruning.is_none());
        for plan in ALL_PLANS {
            let band = graph_similarity_skyband(
                &db, &q, k, &plan_options(&index, plan, threads, solvers),
            );
            prop_assert_eq!(&band.members, &baseline.members, "{:?} k={}", plan, k);
            prop_assert_eq!(band.k, k);
        }
        // The k = 1 band is exactly the skyline member set, under any plan.
        if k == 1 {
            let sky = graph_similarity_skyline(
                &db, &q, &plan_options(&index, Plan::Prefilter, 1, solvers),
            );
            prop_assert_eq!(&baseline.members, &sky.skyline);
        }
    }

    #[test]
    fn sharded_documents_are_byte_identical_across_shard_and_thread_counts(
        seed in any::<u64>(),
        size in 2usize..14,
        molecule in any::<bool>(),
        approx in any::<bool>(),
        k in 0usize..3,
    ) {
        let kind = if molecule { WorkloadKind::Molecule } else { WorkloadKind::Uniform };
        let (db, q) = build_workload(seed, size, kind);
        let solvers = if approx {
            SolverConfig { ged: GedMode::Bipartite, mcs: McsMode::Greedy }
        } else {
            SolverConfig::default()
        };
        let sharded = |shards: usize, threads: usize| QueryOptions {
            threads,
            solvers,
            ..QueryOptions::default()
        }
        .with_shards(shards);
        let naive = graph_similarity_skyline(
            &db, &q,
            &QueryOptions { solvers, plan: Plan::Naive, ..QueryOptions::default() },
        );

        // The shard count is *not* part of the server's cache key, so the
        // whole explain document — answer set, witnesses, reported
        // vectors, pruning stats — must not depend on it (nor on the
        // thread count fanning the shards out).
        let reference = similarity_skyline::core::to_json(
            &db,
            &graph_similarity_skyline(&db, &q, &sharded(1, 1)),
        );
        for shards in [2usize, 3, 5, 16] {
            for threads in [1usize, 3] {
                let r = graph_similarity_skyline(&db, &q, &sharded(shards, threads));
                prop_assert_eq!(r.plan, ResolvedPlan::Sharded);
                prop_assert_eq!(&r.skyline, &naive.skyline, "shards={}", shards);
                prop_assert_eq!(&r.dominated, &naive.dominated, "shards={} witnesses", shards);
                prop_assert_eq!(
                    &similarity_skyline::core::to_json(&db, &r), &reference,
                    "document drifted at shards={} threads={}", shards, threads
                );
            }
        }

        // Skyband membership is likewise shard-invariant.
        let band = graph_similarity_skyband(
            &db, &q, k,
            &QueryOptions { solvers, plan: Plan::Naive, ..QueryOptions::default() },
        );
        for shards in [2usize, 7] {
            let b = graph_similarity_skyband(&db, &q, k, &sharded(shards, 2));
            prop_assert_eq!(&b.members, &band.members, "k={} shards={}", k, shards);
        }
    }

    #[test]
    fn auto_plan_never_costs_more_solver_calls_than_the_best_manual_plan(
        seed in any::<u64>(),
        size in 2usize..24,
        with_index in any::<bool>(),
    ) {
        let (db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig { pivots: 2, rings: 2 }));
        let options = |plan: Plan| -> QueryOptions {
            let idx = with_index.then(|| Arc::clone(&index) as Arc<dyn QueryIndex>);
            QueryOptions { plan, index: idx, ..QueryOptions::default() }
        };
        let mut manual_best = usize::MAX;
        for plan in [Plan::Naive, Plan::Prefilter] {
            manual_best =
                manual_best.min(solver_calls(&graph_similarity_skyline(&db, &q, &options(plan))));
        }
        if with_index {
            manual_best = manual_best
                .min(solver_calls(&graph_similarity_skyline(&db, &q, &options(Plan::Indexed))));
        }
        let auto = graph_similarity_skyline(&db, &q, &options(Plan::Auto));
        if with_index || size >= similarity_skyline::core::exec::AUTO_PREFILTER_MIN {
            // Once Auto resolves to a pruned strategy it is solver-optimal:
            // prefilter never verifies more than naive, and the indexed
            // scan never verifies more than prefilter.
            prop_assert!(auto.plan != ResolvedPlan::Naive);
            prop_assert!(
                solver_calls(&auto) <= manual_best,
                "auto ({:?}) ran {} solver calls, best manual plan ran {}",
                auto.plan, solver_calls(&auto), manual_best
            );
        } else {
            // Tiny databases resolve to the naive scan on purpose (the
            // answers are identical and the scan is microseconds either
            // way); the solver-call guarantee starts at the threshold.
            prop_assert_eq!(auto.plan, ResolvedPlan::Naive);
            prop_assert_eq!(solver_calls(&auto), db.len());
        }
    }

    #[test]
    fn fired_tokens_abort_every_plan_and_batch_queries_independently(
        seed in any::<u64>(),
        size in 2usize..8,
    ) {
        let (db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig { pivots: 2, rings: 2 }));
        let fired = CancelToken::new();
        fired.cancel();
        for plan in ALL_PLANS {
            let opts = plan_options(&index, plan, 1, SolverConfig::default());
            prop_assert_eq!(
                exec::skyline(&db, &q, &opts, &fired).err(),
                Some(Cancelled),
                "{:?}", plan
            );
            prop_assert!(
                exec::skyband(&db, &q, 2, &opts, &fired).is_err(),
                "{:?} skyband", plan
            );
        }
        // Batch: only the cancelled slot errors; its neighbour still
        // returns the full answer.
        let live = CancelToken::new();
        let queries = vec![q.clone(), q.clone()];
        let results = exec::skyline_batch(
            &db,
            &queries,
            &QueryOptions::default(),
            &[live, fired],
        );
        let direct = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        let ok = results[0].as_ref().expect("live token completes");
        prop_assert_eq!(&ok.skyline, &direct.skyline);
        prop_assert_eq!(&ok.dominated, &direct.dominated);
        prop_assert!(results[1].is_err());
    }
}

/// The planner's structural gates on the committed smoke workload
/// ([`WorkloadConfig::bench_smoke`]), with the pivot index attached:
/// `Plan::Auto` spends no more exact solver calls than the best manual
/// plan, and the pruned 2-skyband excludes at least one candidate by
/// lower bounds alone (neither verified nor short-circuited).
#[test]
fn smoke_workload_auto_is_solver_optimal_and_the_skyband_prunes() {
    let w = Workload::generate(&WorkloadConfig::bench_smoke());
    let (db, q) = (GraphDatabase::from_parts(w.vocab, w.graphs), w.query);
    let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig::default()));
    let options = |plan| plan_options(&index, plan, 1, SolverConfig::default());

    let naive = graph_similarity_skyline(&db, &q, &options(Plan::Naive));
    let calls = |plan: Plan| {
        let r = graph_similarity_skyline(&db, &q, &options(plan));
        assert_eq!(r.skyline, naive.skyline, "{plan:?} changed the answer");
        assert_eq!(r.dominated, naive.dominated, "{plan:?} changed witnesses");
        solver_calls(&r)
    };
    let best_manual = solver_calls(&naive)
        .min(calls(Plan::Prefilter))
        .min(calls(Plan::Indexed));
    let auto = calls(Plan::Auto);
    assert!(
        auto <= best_manual,
        "Plan::Auto ran {auto} exact solver calls, the best manual plan ran {best_manual}"
    );

    let band = graph_similarity_skyband(&db, &q, 2, &options(Plan::Auto));
    let naive_band = graph_similarity_skyband(&db, &q, 2, &options(Plan::Naive));
    assert_eq!(
        band.members, naive_band.members,
        "pruned skyband changed membership"
    );
    let stats = band.pruning.expect("pruned skyband stats");
    let excluded = stats.candidates - stats.verified - stats.short_circuited;
    assert!(
        excluded > 0,
        "the pruned skyband excluded {excluded} of {} candidates without solving",
        stats.candidates
    );
}
