//! Property tests for the pivot-index query pipeline.
//!
//! * **Admissibility** — every partition bound vector produced by an
//!   [`PivotIndex`] plan is ≤ the exact GCS vector of *every* partition
//!   member (an over-estimating bound would make partition skipping
//!   unsound);
//! * **Persistence** — corrupted index artifacts are rejected up front.
//!
//! That an indexed query — built, loaded or maintained index, any
//! representation — answers like the naive scan is checked by the parity
//! lattice (`tests/parity.rs`).
//!
//! Plus one deliberate counterexample pinning down *why* the index only
//! applies the triangle inequality to the GED dimensions, and the index's
//! structural gates on the committed smoke workload.

use std::sync::Arc;

mod support;

use proptest::prelude::*;
use similarity_skyline::core::measures::compute_primitives;
use similarity_skyline::core::QueryIndex;
use similarity_skyline::datasets::workload::{Workload, WorkloadConfig, WorkloadKind};
use similarity_skyline::index::IndexError;
use similarity_skyline::prelude::*;
use support::build_workload;

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn partition_bounds_are_admissible(
        seed in any::<u64>(),
        size in 2usize..10,
        pivots in 1usize..4,
        rings in 1usize..4,
    ) {
        let (db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let index = PivotIndex::build(&db, &PivotIndexConfig { pivots, rings });
        let measures = vec![
            MeasureKind::EditDistance,
            MeasureKind::NormalizedEditDistance,
            MeasureKind::Mcs,
            MeasureKind::Gu,
            MeasureKind::LabelHistogram,
        ];
        let plan = index.plan(&db, &q, &measures);
        prop_assert_eq!(plan.pivot_probes, index.pivots().len());
        for part in &plan.partitions {
            for id in &part.members {
                let p = compute_primitives(db.get(*id), &q, &SolverConfig::default());
                for (d, m) in measures.iter().enumerate() {
                    let exact = m.from_primitives(&p);
                    prop_assert!(
                        part.bound.values[d] <= exact + 1e-9,
                        "partition bound {} exceeds exact {} for {} of graph {}",
                        part.bound.values[d], exact, m.name(), id.index()
                    );
                }
            }
        }
    }

    #[test]
    fn serialized_index_rejects_any_single_byte_flip(
        seed in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let (db, _) = build_workload(seed, 4, WorkloadKind::Molecule);
        let bytes = PivotIndex::build(&db, &PivotIndexConfig { pivots: 2, rings: 2 }).to_bytes();
        let at = (flip as usize) % bytes.len();
        let mut bad = bytes.clone();
        bad[at] ^= 0x10;
        // Any flip lands in the magic (BadMagic), the checksum tail, or the
        // checksummed payload — never in a silently-accepted region.
        prop_assert!(
            matches!(PivotIndex::from_bytes(&bad), Err(IndexError::Codec(_))),
            "flipping byte {} of {} must be rejected", at, bytes.len()
        );
    }
}

/// The index's structural gates on the committed smoke workload
/// ([`WorkloadConfig::bench_smoke`]), where both counts repeat exactly:
/// the pivot index never costs an exact solver call the prefilter-only
/// scan would not make, and it skips at least 30 % of the candidates
/// wholesale at the partition level.
#[test]
fn smoke_workload_index_verifies_no_more_than_prefilter_and_skips_30_percent() {
    let w = Workload::generate(&WorkloadConfig::bench_smoke());
    let db = GraphDatabase::from_parts(w.vocab, w.graphs);
    let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig::default()));
    let prefilter = QueryOptions {
        plan: Plan::Prefilter,
        ..QueryOptions::default()
    };
    let pre = graph_similarity_skyline(&db, &w.query, &prefilter);
    let indexed = QueryOptions::default()
        .with_index(index)
        .with_plan(Plan::Indexed);
    let idx = graph_similarity_skyline(&db, &w.query, &indexed);
    assert_eq!(idx.skyline, pre.skyline, "the index changed the answer");
    assert_eq!(idx.dominated, pre.dominated, "the index changed witnesses");

    let (pre, idx) = (
        pre.pruning.expect("prefilter stats"),
        idx.pruning.expect("indexed stats"),
    );
    assert!(
        idx.verified <= pre.verified,
        "indexed scan verified {} candidates, prefilter-only verified {}",
        idx.verified,
        pre.verified
    );
    assert!(
        idx.index_skip_rate() >= 0.30,
        "index skipped {:.1}% of candidates at the partition level",
        idx.index_skip_rate() * 100.0
    );
}

/// The C6 counterexample from the `gss-index` crate docs, kept as an
/// executable fact: `DistMcs` under the *connected* MCS violates the
/// triangle inequality, so the index must never apply pivot triangle
/// bounds to the MCS dimensions. If this test ever fails, the measure
/// changed and the index's bound strategy needs re-auditing.
#[test]
fn connected_mcs_distance_violates_triangle_inequality() {
    let mut db = GraphDatabase::new();
    let labels = ["L1", "L2", "L3", "L4", "L5", "L6"];
    let cycle: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
    // g2 = C6; g1 drops edge (5,0); g3 drops edge (2,3).
    let add_path = |db: &mut GraphDatabase, name: &str, skip: Option<usize>| {
        db.add(name, |mut b| {
            for (i, l) in labels.iter().enumerate() {
                b = b.vertex(&format!("v{i}"), l);
            }
            for (e, &(u, v)) in cycle.iter().enumerate() {
                if Some(e) != skip {
                    b = b.edge(&format!("v{u}"), &format!("v{v}"), "-");
                }
            }
            b
        })
        .unwrap()
    };
    let g1 = add_path(&mut db, "g1", Some(5));
    let g2 = add_path(&mut db, "g2", None);
    let g3 = add_path(&mut db, "g3", Some(2));

    let dist = |a: GraphId, b: GraphId| {
        let p = compute_primitives(db.get(a), db.get(b), &SolverConfig::default());
        MeasureKind::Mcs.from_primitives(&p)
    };
    let d12 = dist(g1, g2);
    let d23 = dist(g2, g3);
    let d13 = dist(g1, g3);
    assert!((d12 - 1.0 / 6.0).abs() < 1e-12, "d12 = {d12}");
    assert!((d23 - 1.0 / 6.0).abs() < 1e-12, "d23 = {d23}");
    assert!((d13 - 3.0 / 5.0).abs() < 1e-12, "d13 = {d13}");
    assert!(
        d13 > d12 + d23 + 0.2,
        "triangle inequality must fail decisively: {d13} vs {} — \
         if it holds now, the MCS measure changed and gss-index needs a re-audit",
        d12 + d23
    );
}
