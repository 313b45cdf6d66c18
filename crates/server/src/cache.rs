//! The sharded LRU result cache.
//!
//! Keys are [`QueryKey`]s (database fingerprint × query-graph fingerprint
//! × normalized options fingerprint — see `gss_core::cachekey`); values
//! are the **exact serialized result document** the server would produce
//! by evaluating the query fresh, so a cache hit is byte-identical to a
//! recomputation by construction. The cache never stores request
//! envelopes (which carry per-request `id` / `cached` fields), only the
//! result payload.
//!
//! Sharding bounds lock contention: a key is pinned to one shard by hash,
//! each shard is an independent `Mutex<HashMap>` with its own LRU clock,
//! and the total capacity is split evenly across shards. Eviction is
//! least-recently-used per shard, implemented as a min-scan over the
//! shard's (small) entry set — capacity per shard is
//! `total / shards`, so the scan stays cheap.

use std::collections::HashMap;
use std::sync::Mutex;

use gss_core::QueryKey;

/// One shard: an LRU map with a monotonic use-clock.
#[derive(Default)]
struct Shard {
    map: HashMap<QueryKey, Entry>,
    tick: u64,
}

struct Entry {
    value: String,
    last_used: u64,
}

/// A sharded LRU cache of serialized query results.
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ShardedCache {
    /// Creates a cache holding up to `capacity` entries split across
    /// `shards` shards (both clamped to at least 1 shard; a `capacity` of
    /// 0 disables caching).
    pub fn new(capacity: usize, shards: usize) -> ShardedCache {
        let shards = shards.max(1).min(capacity.max(1));
        ShardedCache {
            per_shard_capacity: capacity / shards,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "h % len is in bounds: `new` makes at least one shard"
    )]
    fn shard(&self, key: &QueryKey) -> &Mutex<Shard> {
        // FNV-1a over the three fingerprints; they are already
        // well-mixed, this just folds them into a shard pick.
        let mut h = gss_graph::Fnv64::new();
        for part in [key.database, key.query, key.options] {
            h.write_u64(part);
        }
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Looks up a key, refreshing its recency on hit.
    pub fn get(&self, key: &QueryKey) -> Option<String> {
        // Poison recovery throughout: the map/tick pair the shard lock
        // guards never straddles a panic point mid-update, so a
        // poisoned shard is still a valid cache (worst case: a stale
        // LRU tick). Dropping the whole cache over one panicked thread
        // would be the larger failure.
        let mut shard = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        })
    }

    /// Inserts (or refreshes) an entry, evicting the shard's
    /// least-recently-used entry when the shard is full.
    pub fn insert(&self, key: QueryKey, value: String) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard(&key).lock().unwrap_or_else(|p| p.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            if let Some(&oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                shard.map.remove(&oldest);
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Drops every entry whose database fingerprint is not `live` and
    /// returns how many were evicted. Called after a mutation bumps the
    /// epoch: the epoch is folded into the fingerprint, so stale entries
    /// can never be hit again — eviction just reclaims their memory
    /// eagerly instead of waiting for LRU churn.
    pub fn evict_stale(&self, live: u64) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|p| p.into_inner());
            let before = shard.map.len();
            shard.map.retain(|key, _| key.database == live);
            evicted += before - shard.map.len();
        }
        evicted
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).map.len())
            .sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u64, b: u64, c: u64) -> QueryKey {
        QueryKey {
            database: a,
            query: b,
            options: c,
        }
    }

    #[test]
    fn get_insert_round_trip() {
        let cache = ShardedCache::new(8, 2);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1, 2, 3)), None);
        cache.insert(key(1, 2, 3), "payload".to_owned());
        assert_eq!(cache.get(&key(1, 2, 3)).as_deref(), Some("payload"));
        assert_eq!(
            cache.get(&key(1, 2, 4)),
            None,
            "options are part of the key"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_per_shard() {
        // One shard so the LRU order is global and deterministic.
        let cache = ShardedCache::new(2, 1);
        cache.insert(key(0, 0, 1), "a".into());
        cache.insert(key(0, 0, 2), "b".into());
        // Touch "a" so "b" becomes the eviction victim.
        assert!(cache.get(&key(0, 0, 1)).is_some());
        cache.insert(key(0, 0, 3), "c".into());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(0, 0, 1)).is_some(), "recently used survives");
        assert!(cache.get(&key(0, 0, 2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(0, 0, 3)).is_some());
    }

    #[test]
    fn reinsert_refreshes_not_grows() {
        let cache = ShardedCache::new(2, 1);
        cache.insert(key(0, 0, 1), "a".into());
        cache.insert(key(0, 0, 1), "a2".into());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(0, 0, 1)).as_deref(), Some("a2"));
    }

    #[test]
    fn evict_stale_keeps_only_the_live_fingerprint() {
        let cache = ShardedCache::new(16, 4);
        cache.insert(key(1, 10, 0), "old".into());
        cache.insert(key(1, 11, 0), "old".into());
        cache.insert(key(2, 10, 0), "live".into());
        assert_eq!(cache.evict_stale(2), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(2, 10, 0)).is_some());
        assert!(cache.get(&key(1, 10, 0)).is_none());
        assert_eq!(cache.evict_stale(2), 0, "idempotent");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ShardedCache::new(0, 4);
        cache.insert(key(1, 1, 1), "x".into());
        assert_eq!(cache.get(&key(1, 1, 1)), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let cache = Arc::new(ShardedCache::new(64, 8));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let k = key(t, i % 16, 0);
                        cache.insert(k, format!("{t}/{i}"));
                        let _ = cache.get(&k);
                    }
                });
            }
        });
        assert!(cache.len() <= 64);
    }
}
