//! `s14-coldstart` — the compact binary format: pack the smoke database,
//! adopt it back through the zero-parse load path, and sweep every plan ×
//! thread count × solver config over both representations demanding
//! byte-identical output, with the pointer-rich database as the oracle.

use std::sync::Arc;

use gss_core::{
    graph_similarity_skyband, graph_similarity_skyline, GedMode, GraphDatabase, McsMode, Plan,
    QueryOptions, SolverConfig,
};
use gss_index::{PivotIndex, PivotIndexConfig};

use super::{smoke, time_us};
use crate::report::{Scenario, ScenarioReport};

/// Wall-clock budget for adopting a saved compact database. The smoke
/// database loads in well under a millisecond on any machine the suite
/// runs on — the generous ceiling only exists to catch a load path that
/// silently regresses to re-parsing text.
const COLD_START_BUDGET_MS: f64 = 250.0;

/// Ceiling on arena bytes relative to the pointer-rich estimate: the
/// compact representation must use at most this fraction.
const COMPACTION_CEILING: f64 = 0.6;

const SKYBAND_K: usize = 2;

pub(super) struct ColdStart;

impl Scenario for ColdStart {
    fn id(&self) -> &'static str {
        "s14-coldstart"
    }

    fn run(&self) -> ScenarioReport {
        let (db, query) = smoke();
        let pointer_rich = db.memory_stats();

        let path =
            std::env::temp_dir().join(format!("gss-bench-coldstart-{}.gsb", std::process::id()));
        let mut packed = db.clone();
        packed.compact();
        packed.save(&path).expect("save packed database");
        let compact = packed.memory_stats();
        let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len() as usize);

        // Cold start: the checksummed frame is validated and the bytes
        // are adopted as the in-memory layout — no per-graph parsing.
        let load_ms = time_us(3, || {
            GraphDatabase::load(&path).expect("load packed database");
        }) / 1e3;
        let loaded = GraphDatabase::load(&path).expect("load packed database");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            loaded.fingerprint(),
            db.fingerprint(),
            "loaded database must fingerprint-match its source"
        );

        // One pivot index serves both representations: attachment is
        // keyed on the database fingerprint, which the round trip
        // preserves.
        let index = Arc::new(PivotIndex::build(&db, &PivotIndexConfig::default()));
        let mut combos = 0usize;
        let mut mismatches = 0usize;
        for plan in [Plan::Naive, Plan::Prefilter, Plan::Indexed, Plan::Sharded] {
            for threads in [1usize, 4] {
                for solvers in [
                    SolverConfig::default(),
                    SolverConfig {
                        ged: GedMode::Bipartite,
                        mcs: McsMode::Greedy,
                    },
                ] {
                    let opts = QueryOptions {
                        plan,
                        threads,
                        shards: 4,
                        solvers,
                        ..QueryOptions::default()
                    }
                    .with_index(index.clone());
                    let skyline = |d: &GraphDatabase| {
                        format!("{:?}", graph_similarity_skyline(d, &query, &opts))
                    };
                    let skyband = |d: &GraphDatabase| {
                        format!(
                            "{:?}",
                            graph_similarity_skyband(d, &query, SKYBAND_K, &opts)
                        )
                    };
                    combos += 2;
                    mismatches += usize::from(skyline(&db) != skyline(&loaded));
                    mismatches += usize::from(skyband(&db) != skyband(&loaded));
                }
            }
        }

        let ratio = compact.arena_bytes as f64 / pointer_rich.pointer_rich_bytes.max(1) as f64;
        let mut report = ScenarioReport::default();
        report.count("database_size", db.len());
        report.metric("arena_bytes", "B", compact.arena_bytes as f64);
        report.metric(
            "pointer_rich_bytes",
            "B",
            pointer_rich.pointer_rich_bytes as f64,
        );
        report.metric(
            "arena_bytes_per_graph",
            "B",
            compact.arena_bytes_per_graph(),
        );
        report.metric("file_bytes", "B", file_bytes as f64);
        report.metric("compaction_ratio", "ratio", ratio);
        report.metric("load", "ms", load_ms);
        report.flag("adopted_compact", loaded.is_compact());
        report.count("parity.combos", combos);
        report.count("parity.mismatches", mismatches);
        report.gate(
            "s14.arena_le_0_6x_pointer_rich",
            ratio <= COMPACTION_CEILING,
            format!(
                "arena uses {} bytes vs {} pointer-rich ({ratio:.2}x, ceiling \
                 {COMPACTION_CEILING}x)",
                compact.arena_bytes, pointer_rich.pointer_rich_bytes
            ),
        );
        report.gate(
            "s14.load_within_budget",
            loaded.is_compact() && load_ms <= COLD_START_BUDGET_MS,
            format!(
                "load took {load_ms:.2} ms (budget {COLD_START_BUDGET_MS} ms, adopted the \
                 compact image without re-parsing: {})",
                loaded.is_compact()
            ),
        );
        report.gate(
            "s14.zero_answer_mismatches",
            combos > 0 && mismatches == 0,
            format!(
                "{mismatches} mismatches over {combos} plan × thread × solver combos \
                 between the arena and the pointer-rich oracle"
            ),
        );
        report
    }
}
