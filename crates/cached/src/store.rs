//! Fingerprint-sharded backing store for the daemon.
//!
//! One [`DiskCache`] per shard, each in its own `shard-XX` subdirectory
//! of the daemon root. Sharding serves the same purpose as the
//! session's in-memory shards: a fleet's worth of concurrent
//! connections lands writes across sixteen directories instead of
//! piling one directory's listing and eviction scans onto every
//! request. Every shard is an ordinary cache directory — `tawa-cache
//! ls/stats/verify/gc` work on each one unchanged.

use std::io;
use std::path::{Path, PathBuf};

use tawa_core::cache::{CacheKey, DiskCache, DiskCacheStats, SimOutcome};
use tawa_core::tier::{shard_index, KernelSlot, Tier, SHARDS};

/// Shard count: the session's in-memory shard count, which keeps
/// per-shard directories small.
pub const STORE_SHARDS: usize = SHARDS;

/// The daemon's cache directory: [`STORE_SHARDS`] independent
/// [`DiskCache`] shards selected by key fingerprint.
#[derive(Debug)]
pub struct ShardedStore {
    root: PathBuf,
    shards: Vec<DiskCache>,
}

impl ShardedStore {
    /// Opens (creating if needed) the store rooted at `root`, with one
    /// `shard-XX` cache directory per shard.
    ///
    /// # Errors
    /// Propagates failure to create any shard directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ShardedStore> {
        let root = root.into();
        let shards = (0..STORE_SHARDS)
            .map(|i| DiskCache::open(root.join(format!("shard-{i:02x}"))))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ShardedStore { root, shards })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shard owning `key`, selected like the session's in-memory
    /// shards ([`shard_index`]).
    fn shard(&self, key: &CacheKey) -> &DiskCache {
        &self.shards[shard_index(key)]
    }

    /// Aggregate statistics summed across all shards.
    pub fn stats(&self) -> DiskCacheStats {
        let mut total = DiskCacheStats::default();
        for shard in &self.shards {
            total.add(&shard.stats());
        }
        total
    }

    /// Evicts least-recently-used entries until the *whole store* is at
    /// most `max_bytes`, splitting the budget evenly across shards.
    /// Returns how many entries were evicted.
    pub fn gc(&self, max_bytes: u64) -> u64 {
        let per_shard = max_bytes / STORE_SHARDS as u64;
        self.shards.iter().map(|shard| shard.gc(per_shard)).sum()
    }

    /// Every entry in every shard is structurally verified (defects are
    /// deleted, exactly like `tawa-cache verify`); returns
    /// `(sound, defective)` counts. The multi-writer stress test's
    /// torn-entry check.
    pub fn verify(&self) -> (usize, usize) {
        let mut sound = 0;
        let mut bad = 0;
        for shard in &self.shards {
            for entry in shard.entries() {
                if shard.verify_entry(&entry) {
                    sound += 1;
                } else {
                    bad += 1;
                }
            }
        }
        (sound, bad)
    }
}

/// The store is a [`Tier`]: each slot lives in the shard owning its key.
impl Tier for ShardedStore {
    fn get_kernel_slot(&self, key: &CacheKey) -> Option<KernelSlot> {
        self.shard(key).get_kernel_slot(key)
    }
    fn put_kernel_slot(&self, key: &CacheKey, slot: &KernelSlot) {
        self.shard(key).put_kernel_slot(key, slot);
    }
    fn get_sim_slot(&self, key: &CacheKey) -> Option<SimOutcome> {
        self.shard(key).get_sim_slot(key)
    }
    fn put_sim_slot(&self, key: &CacheKey, outcome: &SimOutcome) {
        self.shard(key).put_sim_slot(key, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tmp_store(name: &str) -> ShardedStore {
        let dir =
            std::env::temp_dir().join(format!("tawa-cached-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ShardedStore::open(dir).unwrap()
    }

    fn key(m: u64, e: u64) -> CacheKey {
        CacheKey {
            module_fp: m,
            env_fp: e,
        }
    }

    #[test]
    fn keys_spread_across_shards_and_round_trip() {
        let store = tmp_store("spread");
        for i in 0..64 {
            store.put_kernel_slot(&key(i, i), &KernelSlot::Infeasible(format!("verdict {i}")));
        }
        let mut used = HashSet::new();
        for i in 0..64 {
            assert_eq!(
                store.get_kernel_slot(&key(i, i)),
                Some(KernelSlot::Infeasible(format!("verdict {i}")))
            );
            let shard = store.shard(&key(i, i)) as *const DiskCache;
            used.insert(shard as usize);
        }
        assert!(
            used.len() >= STORE_SHARDS / 2,
            "64 sequential keys landed on only {} shards",
            used.len()
        );
        let stats = store.stats();
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.writes, 64);
        assert_eq!(stats.negative_hits, 64);
        let (sound, bad) = store.verify();
        assert_eq!((sound, bad), (64, 0));
    }

    #[test]
    fn gc_splits_the_budget_across_shards() {
        let store = tmp_store("gc");
        for i in 0..64 {
            let verdict = KernelSlot::Infeasible("some verdict text for sizing".into());
            store.put_kernel_slot(&key(i, 0), &verdict);
        }
        let evicted = store.gc(0);
        assert_eq!(evicted, 64, "a zero budget clears every shard");
        assert_eq!(store.stats().entries, 0);
    }
}
