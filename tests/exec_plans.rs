//! Property tests for the unified planner and staged executor
//! (`gss_core::exec`).
//!
//! * **Auto economy** — `Plan::Auto` never performs more exact solver
//!   calls than the best manual plan on the same query (on random
//!   workloads and on the committed smoke workload, where the pruned
//!   skyband must also exclude candidates by bounds alone);
//! * **Cancellation** — a fired [`CancelToken`] aborts every plan (and
//!   each query of a batch independently) instead of returning a partial
//!   answer;
//! * **Pins** — every plan's document on the smoke workload, by digest.
//!
//! Plan parity (answers, witnesses, vectors, skyband membership and the
//! shard- and thread-invariant documents) is checked by the parity
//! lattice (`tests/parity.rs`).

use std::sync::Arc;

mod support;

use proptest::prelude::*;
use similarity_skyline::core::database::codec::Fnv64;
use similarity_skyline::core::{exec, to_json, QueryIndex};
use similarity_skyline::datasets::workload::{Workload, WorkloadConfig, WorkloadKind};
use similarity_skyline::prelude::*;
use support::build_workload;

const ALL_PLANS: [Plan; 5] = [
    Plan::Auto,
    Plan::Naive,
    Plan::Prefilter,
    Plan::Indexed,
    Plan::Sharded,
];

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

/// FNV-64 of a serialized answer.
fn digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Every plan's whole explain document, and its 2-skyband members plus
/// pruning counters, pinned by digest on the committed smoke workload with
/// the default pivot index. The parity lattice compares plans with each
/// other, so a counter or a reported non-member row that moved under every
/// plan at once would pass it; it fails here.
#[test]
fn smoke_workload_documents_are_pinned_for_every_plan() {
    let w = Workload::generate(&WorkloadConfig::bench_smoke());
    let (db, q) = (GraphDatabase::from_parts(w.vocab, w.graphs), w.query);
    let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig::default()));
    let expected: [(Plan, usize, u64, u64); 10] = [
        (Plan::Auto, 1, 0xe054b6317908fe77, 0x0892d6034fa2f504),
        (Plan::Auto, 3, 0xe054b6317908fe77, 0x0892d6034fa2f504),
        (Plan::Naive, 1, 0x58f3b3c2d6a5d1c5, 0x8526dde8976e005e),
        (Plan::Naive, 3, 0x58f3b3c2d6a5d1c5, 0x8526dde8976e005e),
        (Plan::Prefilter, 1, 0x6fe52aec67ec9702, 0x2abfe8086f750c93),
        (Plan::Prefilter, 3, 0x6fe52aec67ec9702, 0x2abfe8086f750c93),
        (Plan::Indexed, 1, 0xe054b6317908fe77, 0x0892d6034fa2f504),
        (Plan::Indexed, 3, 0xe054b6317908fe77, 0x0892d6034fa2f504),
        (Plan::Sharded, 1, 0xcbbb547a05f9bd7c, 0x8526dde8976e005e),
        (Plan::Sharded, 3, 0xcbbb547a05f9bd7c, 0x8526dde8976e005e),
    ];
    let got: Vec<(Plan, usize, u64, u64)> = expected
        .iter()
        .map(|&(plan, threads, _, _)| {
            let opts = QueryOptions {
                shards: 3,
                ..plan_options(&index, plan, threads, SolverConfig::default())
            };
            let doc = to_json(&db, &graph_similarity_skyline(&db, &q, &opts));
            let band = graph_similarity_skyband(&db, &q, 2, &opts);
            let band = format!("{:?} {:?}", band.members, band.pruning);
            (plan, threads, digest(&doc), digest(&band))
        })
        .collect();
    assert_eq!(got, expected, "document digests moved: {got:#x?}");
}

/// An arena-backed database builds a candidate's graph only when a solver
/// or the isomorphism check needs it. On a fresh load of the smoke
/// workload's image, an indexed query (whose skipped partitions still get
/// lower bounds for the report) materializes no more graphs than a
/// prefilter query, apart from the pivots its index probes against the
/// query.
#[test]
fn indexed_scan_materializes_no_more_graphs_than_the_prefilter_scan() {
    let w = Workload::generate(&WorkloadConfig::bench_smoke());
    let image = GraphDatabase::from_parts(w.vocab, w.graphs).save_bytes();
    let load = || GraphDatabase::load_bytes(&image).expect("image round-trips");
    // Building the index materializes every graph, so it gets its own load.
    let index = Arc::new(PivotIndex::build(&load(), &PivotIndexConfig::default()));
    let run = |plan: Plan| {
        let db = load();
        let options = plan_options(&index, plan, 1, SolverConfig::default());
        let r = graph_similarity_skyline(&db, &w.query, &options);
        let stats = r.pruning.expect("a pruned plan reports counters");
        (db.memory_stats().materialized, stats)
    };
    let (prefilter, _) = run(Plan::Prefilter);
    let (indexed, stats) = run(Plan::Indexed);
    assert!(stats.index_skipped > 0, "the index skipped nothing");
    assert!(
        indexed <= prefilter + stats.pivot_probes,
        "indexed materialized {indexed} graphs, prefilter {prefilter}, pivots {}",
        stats.pivot_probes
    );
}
