//! Property-based parity suite for the compact storage layer.
//!
//! The arena representation (`GraphDatabase::compact`) and the
//! checksummed binary codec (`save_bytes`/`load_bytes`) carry a hard
//! contract: **representation never changes answers**. These properties
//! drive randomly generated databases through the pointer-rich ↔ arena ↔
//! on-disk round trip and demand
//!
//! * identical database fingerprints and text serializations, and
//! * rejection of any single corrupted byte in the saved image.
//!
//! That queries answer byte-identically on every representation is checked
//! by the parity lattice (the workspace's `tests/parity.rs`).
//!
//! On the committed smoke workload the arena must also stay compact and
//! load from disk without re-parsing.

use gss_core::GraphDatabase;
use gss_datasets::workload::{Workload, WorkloadConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// compact → save → load preserves the representation-independent
    /// database fingerprint, the text serialization, and re-saves to the
    /// identical byte stream (the zero-parse load adopts, not rebuilds).
    #[test]
    fn round_trip_is_fingerprint_and_byte_stable(seed in any::<u64>(), graphs in 1usize..10) {
        let w = Workload::random(seed, graphs, 7);
        let db = GraphDatabase::from_parts(w.vocab, w.graphs);
        let mut packed = db.clone();
        packed.compact();
        prop_assert_eq!(packed.fingerprint(), db.fingerprint());

        let bytes = packed.save_bytes();
        prop_assert!(GraphDatabase::is_binary(&bytes));
        let loaded = GraphDatabase::load_bytes(&bytes).expect("saved image loads");
        prop_assert!(loaded.is_compact(), "load must adopt the arena, not re-parse");
        prop_assert_eq!(loaded.fingerprint(), db.fingerprint());
        prop_assert_eq!(loaded.to_text(), db.to_text());
        prop_assert_eq!(loaded.save_bytes(), bytes, "re-save must be deterministic");
    }

    /// Any single corrupted byte anywhere in the saved image — header,
    /// section payload, or alignment padding — fails the load.
    #[test]
    fn any_single_byte_corruption_is_rejected(
        seed in any::<u64>(),
        graphs in 1usize..6,
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let w = Workload::random(seed, graphs, 6);
        let db = GraphDatabase::from_parts(w.vocab, w.graphs);
        let mut packed = db.clone();
        packed.compact();
        let bytes = packed.save_bytes();
        let mut corrupt = bytes.clone();
        let at = (pos % corrupt.len() as u64) as usize;
        corrupt[at] ^= 1 << bit;
        prop_assert!(
            GraphDatabase::load_bytes(&corrupt).is_err(),
            "flipping bit {} of byte {} (of {}) must be rejected",
            bit, at, bytes.len()
        );
    }
}

/// The storage gates on the committed smoke workload
/// ([`WorkloadConfig::bench_smoke`]): the arena uses at most 0.6× the
/// pointer-rich bytes, and loading the saved image adopts it as the
/// in-memory layout within 250 ms. The smoke database loads in about a
/// millisecond; the generous ceiling only catches a load path that
/// silently regressed to re-parsing text.
#[test]
fn smoke_workload_arena_is_compact_and_loads_without_parsing() {
    const COMPACTION_CEILING: f64 = 0.6;
    const LOAD_BUDGET_MS: f64 = 250.0;

    let w = Workload::generate(&WorkloadConfig::bench_smoke());
    let db = GraphDatabase::from_parts(w.vocab, w.graphs);
    let mut packed = db.clone();
    packed.compact();
    let pointer_rich = db.memory_stats().pointer_rich_bytes;
    let arena = packed.memory_stats().arena_bytes;
    let ratio = arena as f64 / pointer_rich.max(1) as f64;
    assert!(
        ratio <= COMPACTION_CEILING,
        "arena uses {arena} bytes vs {pointer_rich} pointer-rich ({ratio:.2}x, ceiling \
         {COMPACTION_CEILING}x)"
    );

    let path = std::env::temp_dir().join(format!("gss-smoke-{}.gsb", std::process::id()));
    packed.save(&path).expect("save packed database");
    let started = std::time::Instant::now();
    let loaded = GraphDatabase::load(&path);
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_file(&path).ok();
    let loaded = loaded.expect("load packed database");
    assert!(
        loaded.is_compact(),
        "load must adopt the image, not re-parse"
    );
    assert_eq!(loaded.fingerprint(), db.fingerprint());
    assert!(
        load_ms <= LOAD_BUDGET_MS,
        "load took {load_ms:.2} ms (budget {LOAD_BUDGET_MS} ms)"
    );
}

/// Every persistent digest folds through the one `gss_graph::Fnv64`.
/// These literals were recorded before the three FNV-1a copies were
/// merged; a mismatch means saved images, indexes and WAL segments
/// written by earlier builds no longer verify.
#[test]
fn digests_are_pinned_to_the_on_disk_format() {
    let w = Workload::random(0x5eed, 6, 7);
    let db = GraphDatabase::from_parts(w.vocab, w.graphs);
    assert_eq!(db.fingerprint(), 0x951f_1009_019f_1692);
    let mut packed = db.clone();
    packed.compact();
    let image = packed.save_bytes();
    assert_eq!(image.len(), 1748);
    let (_, checksum) = image.split_at(image.len() - 8);
    assert_eq!(
        u64::from_le_bytes(checksum.try_into().expect("8-byte trailer")),
        0x91d5_9593_b2c1_6913,
        "saved-image frame checksum"
    );
}
