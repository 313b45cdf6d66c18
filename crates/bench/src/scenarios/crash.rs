//! `s13-crash` — crash-churn on the durable store: a deterministic fault
//! plan kills the WAL mid-churn, the store restarts from its data
//! directory and must equal a never-crashed oracle, then a retrying
//! client resumes through injected connection resets with server-side
//! `mutation_id` dedup.

use std::sync::Arc;

use gss_core::QueryOptions;
use gss_server::{
    serve_store, Client, FaultPlan, GraphStore, MutationBatch, Response, RetryPolicy, ServerConfig,
    StoreConfig, WalConfig,
};

use super::{donor_text, smoke};
use crate::report::{Scenario, ScenarioReport};

const BATCHES: usize = 32;
const CRASH_HIT: u64 = 20;
const CHECKPOINT_EVERY: u64 = 8;
const RESUMED: u64 = 12;

pub(super) struct CrashChurn;

impl Scenario for CrashChurn {
    fn id(&self) -> &'static str {
        "s13-crash"
    }

    fn run(&self) -> ScenarioReport {
        let (db, _) = smoke();
        let db = Arc::new(db);
        let dir = std::env::temp_dir().join(format!("gss-bench-crash-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let batch = |i: usize| {
            MutationBatch::default().insert(&donor_text(&db, i * 3 + 1, &format!("crash{i}")))
        };

        // Phase 1 — churn into a deterministic crash: the fault plan
        // kills the WAL on its CRASH_HIT-th append, so exactly
        // CRASH_HIT - 1 batches are acked and everything after is refused.
        let mut wal_config = WalConfig::new(&dir);
        wal_config.checkpoint_every = CHECKPOINT_EVERY;
        wal_config.faults = Arc::new(
            FaultPlan::parse(&format!("wal.append@{CRASH_HIT}=crash")).expect("fault plan"),
        );
        let store = GraphStore::open_durable(Arc::clone(&db), StoreConfig::default(), wal_config)
            .expect("open durable store");
        let acked = (0..BATCHES)
            .take_while(|&i| store.apply(&batch(i)).is_ok())
            .count() as u64;
        drop(store);

        // Phase 2 — restart: recovery loads the latest checkpoint and
        // replays the WAL tail; the result must equal a never-crashed
        // oracle that saw exactly the acked prefix.
        let recovered = GraphStore::open_durable(
            Arc::clone(&db),
            StoreConfig::default(),
            WalConfig::new(&dir),
        )
        .expect("recover from data directory");
        let oracle = GraphStore::new(Arc::clone(&db), StoreConfig::default());
        for i in 0..acked as usize {
            oracle.apply(&batch(i)).expect("oracle batch");
        }
        let recovered_epoch = recovered.snapshot().epoch();
        let fingerprint_match =
            recovered.snapshot().fingerprint() == oracle.snapshot().fingerprint();
        let wal = recovered.stats().wal.unwrap_or_default();

        // Phase 3 — resume behind the server with injected connection
        // resets: a retrying client streams fresh mutations; resent
        // batches must be deduplicated by their mutation_id, never
        // double-applied.
        let recovered = Arc::new(recovered);
        let handle = serve_store(
            Arc::clone(&recovered),
            QueryOptions::default(),
            ServerConfig {
                workers: 2,
                faults: Arc::new(
                    FaultPlan::parse("conn.write@2=reset;conn.write@7=reset").expect("fault plan"),
                ),
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback server");
        let mut client = Client::builder()
            .retry(RetryPolicy {
                max_retries: 6,
                base_delay_ms: 1,
                max_delay_ms: 20,
                jitter_seed: 13,
                timeout_ms: Some(10_000),
            })
            .connect(handle.addr())
            .expect("connect retrying client");
        let mut deduped = 0u64;
        for i in 0..RESUMED as usize {
            let name = format!("resume{i}");
            match client
                .insert(&donor_text(&db, i * 5 + 2, &name))
                .expect("resumed insert")
            {
                Response::Mutated { replayed, .. } => deduped += u64::from(replayed),
                other => panic!("unexpected response: {}", other.to_line().trim_end()),
            }
        }
        let retries = client.retries();
        handle.shutdown();
        handle.join();
        let final_epoch = recovered.snapshot().epoch();
        std::fs::remove_dir_all(&dir).ok();

        let mut report = ScenarioReport::default();
        report.count("crash.wal_append_hit", CRASH_HIT as usize);
        report.count("crash.acked_before", acked as usize);
        report.count("recovery.epoch", recovered_epoch as usize);
        report.count("recovery.replayed", wal.recovery.replayed as usize);
        report.flag("recovery.truncated_tail", wal.recovery.truncated_tail);
        report.flag("recovery.fingerprint_match", fingerprint_match);
        report.count("recovery.checkpoints", wal.checkpoints as usize);
        report.count("resume.mutations", RESUMED as usize);
        report.count("resume.final_epoch", final_epoch as usize);
        report.count("resume.client_retries", retries as usize);
        report.count("resume.deduped_replays", deduped as usize);
        report.gate(
            "s13.recovery_acked_prefix",
            acked > 0 && recovered_epoch == acked && fingerprint_match,
            format!(
                "acked {acked} batches, recovery reached epoch {recovered_epoch} \
                 (fingerprint match with a never-crashed oracle: {fingerprint_match})"
            ),
        );
        report.gate(
            "s13.epoch_continuity",
            final_epoch == acked + RESUMED,
            format!(
                "resumed {RESUMED} mutations from epoch {acked} and ended at epoch {final_epoch} \
                 (every unique mutation must apply exactly once)"
            ),
        );
        report.gate(
            "s13.retries_deduped",
            retries >= 1 && deduped >= 1,
            format!(
                "{retries} client retries and {deduped} deduped replays \
                 (the injected resets must force resends that dedup server-side)"
            ),
        );
        report
    }
}
