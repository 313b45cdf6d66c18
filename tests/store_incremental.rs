//! Property tests for the live store's incremental index maintenance.
//!
//! The invariant under test: after **any** sequence of mutation batches,
//! the incrementally maintained [`PivotIndex`] is answer-equivalent — at
//! **every epoch** — to an index rebuilt from scratch on that epoch's
//! database, and both match the index-less naive scan:
//!
//! * identical skylines and identical dominance witnesses,
//! * identical exact GCS vectors wherever both scans verified a graph,
//! * the maintained index validates against the epoch's database
//!   (fingerprint + size admissibility, the same check `gss serve`
//!   performs on a loaded index).
//!
//! The maintained index may hold *looser* partition brackets than the
//! rebuild (probe bounds instead of exact pivot distances), so pruning
//! counters are allowed to differ — answers are not. A tiny staleness
//! budget keeps the partial-rebuild path (ring re-quantiling) inside the
//! tested surface, and removals of pivot graphs exercise the full-rebuild
//! escape hatch.

use std::sync::Arc;

mod support;

use proptest::prelude::*;
use similarity_skyline::datasets::workload::WorkloadKind;
use similarity_skyline::prelude::*;
use support::{build_workload, renamed_text};

/// One deterministic mutation batch derived from `step` and `ops_seed`:
/// mostly inserts (the database must keep growing for brackets to
/// matter), with removes and in-place updates mixed in once the database
/// is large enough to afford them.
fn step_batch(db: &GraphDatabase, step: usize, ops_seed: u64) -> MutationBatch {
    let pick = |salt: u64| (ops_seed.rotate_left(step as u32 * 7 + salt as u32) ^ salt) as usize;
    match (ops_seed >> (2 * step)) & 3 {
        2 if db.len() > 6 => {
            let name = db.get(GraphId(pick(11) % db.len())).name().to_owned();
            MutationBatch::default().remove(&name)
        }
        3 => {
            let target = db.get(GraphId(pick(13) % db.len())).name().to_owned();
            let donor = pick(17) % db.len();
            MutationBatch::default().update(&target, &renamed_text(db, donor, &target))
        }
        _ => {
            let donor = pick(19) % db.len();
            MutationBatch::default().insert(&renamed_text(db, donor, &format!("ins{step}")))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn incremental_maintenance_equals_rebuild_at_every_epoch(
        seed in any::<u64>(),
        ops_seed in any::<u64>(),
        size in 8usize..14,
        steps in 2usize..6,
        budget in 0u64..4,
    ) {
        let (db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let store = GraphStore::new(
            Arc::new(db),
            StoreConfig {
                index: Some(PivotIndexConfig::default()),
                staleness_budget: budget,
            },
        );

        for step in 0..steps {
            let head = store.snapshot();
            let batch = step_batch(head.database(), step, ops_seed);
            let receipt = store.apply(&batch).expect("derived batches are valid");
            prop_assert_eq!(receipt.epoch, step as u64 + 1);

            let snap = store.snapshot();
            let db = snap.database();
            let maintained = Arc::clone(snap.index().expect("store is indexed"));
            prop_assert!(
                maintained.validate(db).is_ok(),
                "epoch {}: maintained index must stay admissible",
                snap.epoch()
            );

            let rebuilt = Arc::new(PivotIndex::build(db, &maintained.config()));
            let naive = graph_similarity_skyline(db, &q, &QueryOptions::default());
            let with_maintained = graph_similarity_skyline(
                db,
                &q,
                &QueryOptions::default().with_index(maintained),
            );
            let with_rebuilt = graph_similarity_skyline(
                db,
                &q,
                &QueryOptions::default().with_index(rebuilt),
            );

            prop_assert_eq!(&with_maintained.skyline, &with_rebuilt.skyline);
            prop_assert_eq!(
                &with_maintained.dominated,
                &with_rebuilt.dominated,
                "epoch {}: witnesses must be identical",
                snap.epoch()
            );
            prop_assert_eq!(&with_maintained.skyline, &naive.skyline);
            prop_assert_eq!(&with_maintained.dominated, &naive.dominated);
            // Wherever both scans verified a graph, the exact vectors are
            // byte-identical (pruned graphs carry lower bounds and may
            // legitimately differ between index generations).
            for i in 0..db.len() {
                if with_maintained.is_exact(GraphId(i)) && with_rebuilt.is_exact(GraphId(i)) {
                    prop_assert_eq!(&with_maintained.gcs[i], &with_rebuilt.gcs[i]);
                }
            }
        }

        // The maintenance paths the run actually took are visible in the
        // stats; with a tiny budget and several batches at least one
        // non-trivial maintenance action must have happened.
        let stats = store.stats();
        prop_assert_eq!(stats.batches, steps as u64);
        prop_assert!(
            stats.index_stale_ops.expect("indexed") <= budget,
            "staleness budget must bound the drift: {:?}",
            stats
        );
    }
}
