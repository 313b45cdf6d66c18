//! Crash-recovery and chaos tests for the durable store (WAL +
//! recovery + client retry).
//!
//! The pinned properties:
//!
//! 1. **Acked-prefix recovery** — crash the store (via deterministic
//!    fault injection) at *any* injection point of the WAL append,
//!    fsync or checkpoint path, after any prefix of a random mutation
//!    sequence: reopening the data directory recovers a store whose
//!    epoch and fingerprint equal a never-crashed oracle that saw
//!    exactly the acknowledged prefix of mutations. Nothing acked is
//!    lost; nothing unacked is resurrected.
//! 2. **Torn-tail corpus** — truncating the live segment at *every*
//!    byte offset always recovers (the torn tail is truncated, never
//!    replayed), landing on some acked prefix. Flipping any single
//!    byte either refuses recovery (interior corruption is ambiguous)
//!    or recovers a strict prefix — a corrupted record never survives
//!    its checksum.
//! 3. **Retry convergence** — injected connection resets between a
//!    durable server and a retrying client converge with **zero
//!    duplicate applications**: resent mutations carry the same
//!    `mutation_id`, the server replays the original receipt, and the
//!    final epoch equals the number of unique mutations.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use similarity_skyline::prelude::*;
use similarity_skyline::server::{serve_store, Client, Response, RetryPolicy, ServerConfig};
use similarity_skyline::store::{FaultPlan, MutationError, WalConfig};

/// A unique scratch directory per call (parallel tests never collide).
fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "gss-durability-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn initial_db() -> Arc<GraphDatabase> {
    Arc::new(GraphDatabase::from_text("t a\nv 0 C\nv 1 O\ne 0 1 s\nt b\nv 0 N\n").unwrap())
}

/// The i-th batch of the deterministic mutation sequence: mostly
/// inserts of fresh graphs, every third an in-place update of `a` (so
/// replay exercises both op kinds). Every batch is valid at every step.
fn step_batch(i: usize) -> MutationBatch {
    if i % 3 == 2 {
        MutationBatch::default().update("a", &format!("t a\nv 0 C\nv 1 C\ne 0 1 u{i}\n"))
    } else {
        MutationBatch::default().insert(&format!("t x{i}\nv 0 C\nv 1 O\ne 0 1 b{}\n", i % 3))
    }
}

/// Oracle fingerprints: `fps[n]` is the fingerprint of a never-crashed,
/// non-durable store that applied exactly the first `n` batches.
fn oracle_fingerprints(k: usize) -> Vec<u64> {
    let store = GraphStore::new(initial_db(), StoreConfig::default());
    let mut fps = vec![store.snapshot().fingerprint()];
    for i in 0..k {
        store.apply(&step_batch(i)).unwrap();
        fps.push(store.snapshot().fingerprint());
    }
    fps
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn crash_at_any_injection_point_recovers_the_acked_prefix(
        k in 3usize..9,
        crash_hit in 1u64..8,
        point in 0usize..3,
        checkpoint_every in 0u64..4,
    ) {
        let point = ["wal.append", "wal.fsync", "checkpoint.write"][point];
        let dir = temp_dir("crash");
        let mut wal_config = WalConfig::new(&dir);
        wal_config.checkpoint_every = checkpoint_every;
        wal_config.faults = Arc::new(
            FaultPlan::parse(&format!("{point}@{crash_hit}=crash")).unwrap(),
        );

        // Run until the injected crash (or the end of the sequence),
        // counting exactly the acknowledged batches. A crash during
        // `open_durable` itself (initial checkpoint) acks nothing.
        let mut acked = 0usize;
        match GraphStore::open_durable(initial_db(), StoreConfig::default(), wal_config) {
            Err(_) => {}
            Ok(store) => {
                for i in 0..k {
                    match store.apply(&step_batch(i)) {
                        Ok(receipt) => {
                            acked += 1;
                            prop_assert_eq!(receipt.epoch, acked as u64);
                        }
                        Err(MutationError::Durability(_)) => {
                            // A refused batch was never published: the
                            // head is still the last acked epoch.
                            prop_assert_eq!(store.epoch(), acked as u64);
                            break;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
        }

        // Recovery equals the acked-prefix oracle, byte for byte
        // (fingerprints cover epoch, names, labels and structure).
        let recovered =
            GraphStore::open_durable(initial_db(), StoreConfig::default(), WalConfig::new(&dir))
                .expect("a crashed-then-reopened directory must recover");
        let fps = oracle_fingerprints(k);
        prop_assert_eq!(recovered.snapshot().epoch(), acked as u64);
        prop_assert_eq!(recovered.snapshot().fingerprint(), fps[acked]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn torn_tails_truncate_at_every_offset_and_flips_never_replay_corruption() {
    let dir = temp_dir("corpus");
    let k = 4usize;
    {
        // checkpoint_every = 0: keep every record in one live segment so
        // the corpus below covers the whole log.
        let mut wal_config = WalConfig::new(&dir);
        wal_config.checkpoint_every = 0;
        let store =
            GraphStore::open_durable(initial_db(), StoreConfig::default(), wal_config).unwrap();
        for i in 0..k {
            store.apply(&step_batch(i)).unwrap();
        }
    }
    let fps = oracle_fingerprints(k);
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .expect("one live segment");
    let seg_name = segment.file_name();
    let bytes = std::fs::read(segment.path()).unwrap();
    assert!(bytes.len() > 100, "corpus must cover real records");

    // Truncation at every offset: always recoverable, always an acked
    // prefix (the torn tail is truncated, never replayed).
    for cut in 0..=bytes.len() {
        let scratch = temp_dir("cut");
        copy_dir(&dir, &scratch);
        std::fs::write(scratch.join(&seg_name), &bytes[..cut]).unwrap();
        let recovered = GraphStore::open_durable(
            initial_db(),
            StoreConfig::default(),
            WalConfig::new(&scratch),
        )
        .unwrap_or_else(|e| panic!("truncation at {cut} must recover: {e}"));
        let epoch = recovered.snapshot().epoch() as usize;
        assert!(epoch <= k, "truncation at {cut} resurrected records");
        assert_eq!(
            recovered.snapshot().fingerprint(),
            fps[epoch],
            "truncation at {cut}: recovered state is not the epoch-{epoch} oracle"
        );
        std::fs::remove_dir_all(&scratch).ok();
    }

    // Single-byte flips at every offset: either recovery refuses
    // (interior corruption) or a strict prefix survives — the flipped
    // record itself can never pass its checksum.
    for pos in 0..bytes.len() {
        let scratch = temp_dir("flip");
        copy_dir(&dir, &scratch);
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xff;
        std::fs::write(scratch.join(&seg_name), &corrupt).unwrap();
        match GraphStore::open_durable(
            initial_db(),
            StoreConfig::default(),
            WalConfig::new(&scratch),
        ) {
            Err(_) => {} // refused: ambiguous interior corruption
            Ok(recovered) => {
                let epoch = recovered.snapshot().epoch() as usize;
                assert!(
                    epoch < k,
                    "flip at {pos} survived its checksum (epoch {epoch})"
                );
                assert_eq!(
                    recovered.snapshot().fingerprint(),
                    fps[epoch],
                    "flip at {pos}: recovered state is not the epoch-{epoch} oracle"
                );
            }
        }
        std::fs::remove_dir_all(&scratch).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_resets_converge_with_zero_duplicate_applications() {
    let dir = temp_dir("chaos");
    let store = Arc::new(
        GraphStore::open_durable(initial_db(), StoreConfig::default(), WalConfig::new(&dir))
            .unwrap(),
    );
    // Two deterministic connection resets mid-run: each drops the ack
    // after the mutation applied, forcing the client to resend a
    // mutation the server already holds.
    let config = ServerConfig {
        faults: Arc::new(FaultPlan::parse("conn.write@3=reset;conn.write@7=reset").unwrap()),
        ..ServerConfig::default()
    };
    let handle = serve_store(Arc::clone(&store), QueryOptions::default(), config).unwrap();

    let mut client = Client::builder()
        .retry(RetryPolicy {
            max_retries: 6,
            base_delay_ms: 1,
            max_delay_ms: 20,
            jitter_seed: 7,
            timeout_ms: Some(5_000),
        })
        .connect(handle.addr())
        .unwrap();

    let unique = 10u64;
    let mut replays = 0u64;
    for i in 0..unique {
        match client.insert(&format!("t c{i}\nv 0 C\n")).unwrap() {
            Response::Mutated {
                epoch, replayed, ..
            } => {
                // Each unique mutation applies exactly once, reset or
                // not: the epoch sequence has no gaps and no repeats.
                assert_eq!(epoch, i + 1, "mutation {i} double-applied or lost");
                if replayed {
                    replays += 1;
                }
            }
            other => panic!("unexpected response: {}", other.to_line().trim_end()),
        }
    }
    assert!(
        client.retries() >= 2,
        "both injected resets must force resends (saw {})",
        client.retries()
    );
    assert!(
        replays >= 1,
        "at least one resend must be deduplicated server-side"
    );
    assert_eq!(store.stats().epoch, unique, "zero duplicate applications");

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
