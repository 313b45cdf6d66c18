//! Property tests for the unified planner and staged executor
//! (`gss_core::exec`).
//!
//! * **Auto is Prefilter** — `Plan::Auto` returns the prefilter plan's
//!   explain document at every database size, with or without an index
//!   attached, and its verified counts are pinned on Figure 3 and a
//!   served-shape database;
//! * **Cancellation** — a fired [`CancelToken`] aborts every plan (and
//!   each query of a batch independently) instead of returning a partial
//!   answer;
//! * **Pins** — every plan's explain and answer documents on the smoke
//!   workload, by digest.
//!
//! Plan parity (answers, witnesses, vectors and the shard- and
//! thread-invariant documents) is checked by the parity lattice
//! (`tests/parity.rs`).

use std::sync::Arc;

mod support;

use proptest::prelude::*;
use similarity_skyline::core::database::codec::Fnv64;
use similarity_skyline::core::{exec, explain_json, to_json, QueryIndex};
use similarity_skyline::datasets::paper::figure3_database;
use similarity_skyline::datasets::workload::{Workload, WorkloadConfig, WorkloadKind};
use similarity_skyline::datasets::{perturb_typed, PerturbationStyle};
use similarity_skyline::prelude::*;
use support::build_workload;

const ALL_PLANS: [Plan; 5] = [
    Plan::Auto,
    Plan::Naive,
    Plan::Prefilter,
    Plan::Indexed,
    Plan::Sharded,
];

/// Options with the index attached (so `Indexed` can use it) and an
/// explicit plan.
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
    fn auto_document_is_the_prefilter_document_with_or_without_an_index(
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
        let auto = graph_similarity_skyline(&db, &q, &options(Plan::Auto));
        let prefilter = graph_similarity_skyline(&db, &q, &options(Plan::Prefilter));
        prop_assert_eq!(auto.plan, ResolvedPlan::Prefilter);
        prop_assert_eq!(explain_json(&db, &auto), explain_json(&db, &prefilter));
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

/// A served-shape database: molecule-like graphs of 7 atoms, queried by
/// 1–3-edit perturbations of its members, as the serving workloads draw
/// their queries.
fn served_shape() -> (GraphDatabase, Vec<Graph>) {
    let w = Workload::generate(&WorkloadConfig {
        kind: WorkloadKind::Molecule,
        database_size: 48,
        graph_vertices: 7,
        related_fraction: 0.0,
        max_edits: 1,
        seed: 0x5E4D,
    });
    let (mut vocab, graphs) = (w.vocab, w.graphs);
    let mut rng = Rng::seed_from_u64(0x5E4D);
    let styles = [
        PerturbationStyle::Grow,
        PerturbationStyle::Shrink,
        PerturbationStyle::Mixed,
    ];
    let queries = (0..6)
        .map(|i| {
            let base = &graphs[rng.gen_index(graphs.len())];
            let prefix = format!("Q{i}_");
            perturb_typed(
                base,
                styles[i % 3],
                1 + i % 3,
                &mut vocab,
                &mut rng,
                &prefix,
            )
        })
        .collect();
    (GraphDatabase::from_parts(vocab, graphs), queries)
}

/// Exact solver calls under the default options, pinned. Figure 3 (seven
/// graphs) verifies 5 where the naive scan verifies all 7. On a served-shape
/// database with its pivot index attached, as the server attaches a
/// snapshot's index to every query, the default plan verifies exactly what
/// `Prefilter` does; only an explicit `Plan::Indexed` consults the index,
/// and here it verifies more.
#[test]
fn default_plan_verified_counts_are_pinned() {
    let paper = figure3_database();
    let (db, q) = (
        GraphDatabase::from_parts(paper.vocab, paper.graphs),
        paper.query,
    );
    let calls = |options: &QueryOptions| solver_calls(&graph_similarity_skyline(&db, &q, options));
    assert_eq!(calls(&QueryOptions::default()), 5, "Figure 3, default plan");
    assert_eq!(
        calls(&QueryOptions::default().with_plan(Plan::Naive)),
        7,
        "Figure 3, naive"
    );

    let (db, queries) = served_shape();
    let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig::default()));
    let served = QueryOptions::default().with_index(index);
    let calls = |options: &QueryOptions| -> Vec<usize> {
        let run = |q| solver_calls(&graph_similarity_skyline(&db, q, options));
        queries.iter().map(run).collect()
    };
    let prefilter = calls(&served.clone().with_plan(Plan::Prefilter));
    let indexed = calls(&served.clone().with_plan(Plan::Indexed));
    assert_eq!(calls(&served), prefilter, "served shape, default plan");
    assert_eq!(prefilter, [1, 3, 2, 1, 1, 1], "served shape, prefilter");
    assert_eq!(indexed, [1, 3, 2, 1, 9, 5], "served shape, indexed");
}

/// FNV-64 of a serialized answer.
fn digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Every plan's whole explain document and its answer document, pinned by
/// digest on the committed smoke workload with the default pivot index.
/// The parity lattice compares plans with each other, so a counter or a
/// reported non-member row that moved under every plan at once would pass
/// it; it fails here.
#[test]
fn smoke_workload_documents_are_pinned_for_every_plan() {
    let w = Workload::generate(&WorkloadConfig::bench_smoke());
    let (db, q) = (GraphDatabase::from_parts(w.vocab, w.graphs), w.query);
    let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig::default()));
    // (plan, threads, explain document, answer document)
    let expected: [(Plan, usize, u64, u64); 10] = [
        (Plan::Auto, 1, 0x6fe52aec67ec9702, 0xacae83cb6126ad0f),
        (Plan::Auto, 3, 0x6fe52aec67ec9702, 0xacae83cb6126ad0f),
        (Plan::Naive, 1, 0x58f3b3c2d6a5d1c5, 0xcd5381834179ef30),
        (Plan::Naive, 3, 0x58f3b3c2d6a5d1c5, 0xcd5381834179ef30),
        (Plan::Prefilter, 1, 0x6fe52aec67ec9702, 0xacae83cb6126ad0f),
        (Plan::Prefilter, 3, 0x6fe52aec67ec9702, 0xacae83cb6126ad0f),
        (Plan::Indexed, 1, 0xe054b6317908fe77, 0x788b07a188dbcec8),
        (Plan::Indexed, 3, 0xe054b6317908fe77, 0x788b07a188dbcec8),
        (Plan::Sharded, 1, 0xcbbb547a05f9bd7c, 0x64d1b3b77e060205),
        (Plan::Sharded, 3, 0xcbbb547a05f9bd7c, 0x64d1b3b77e060205),
    ];
    let got: Vec<(Plan, usize, u64, u64)> = expected
        .iter()
        .map(|&(plan, threads, _, _)| {
            let opts = QueryOptions {
                shards: 3,
                ..plan_options(&index, plan, threads, SolverConfig::default())
            };
            let r = graph_similarity_skyline(&db, &q, &opts);
            let (explain, answer) = (explain_json(&db, &r), to_json(&db, &r));
            (plan, threads, digest(&explain), digest(&answer))
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
