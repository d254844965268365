//! Cache tiers: two slots, one trait, one cascade.
//!
//! Every cached artifact lives in one of two **slots** of a
//! [`CacheKey`]:
//!
//! * the *kernel slot* ([`KernelSlot`]) — the compiled kernel, or the
//!   verdict that compiling the key is infeasible, and
//! * the *sim slot* ([`SimOutcome`]) — the simulation report, a
//!   deterministic simulator failure, or the static gate's rejection.
//!
//! A [`Tier`] reads and writes both slots, best-effort and infallibly:
//! a sick tier answers `None` and drops writes, it never fails a
//! compile. The session's sharded in-process maps (`MemoryTier`), the
//! directory-backed [`DiskCache`](crate::cache::DiskCache), the
//! [`RemoteCache`](crate::remote::RemoteCache) client and the daemon's
//! `ShardedStore` all implement it.
//!
//! The **cascade** over an ordered tier list (fastest first) is two
//! functions, generic over the slot:
//!
//! * [`lookup`] asks each tier in order; the first hit wins and is
//!   *promoted* into every faster tier, never published downward — the
//!   slower tiers either already hold it or were not asked.
//! * [`publish`] *writes back* a freshly computed value to every tier.
//!
//! This module also holds what every tier's bookkeeping shares: the
//! shard selector ([`shard_index`]), the poison-recovering `lock` and
//! the [`counters!`](crate::counters) definition of a statistics
//! snapshot with its atomic twin.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tawa_wsir::Kernel;

use crate::cache::{CacheKey, SimOutcome};

/// What a tier's kernel slot holds for one key.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelSlot {
    /// The compiled kernel.
    Kernel(Arc<Kernel>),
    /// Compilation is known
    /// [`Infeasible`](crate::lower::CompileError::Infeasible), with the
    /// recorded message.
    Infeasible(String),
}

/// One cache tier: `get`/`put` per slot over a [`CacheKey`]. Both are
/// best-effort and infallible — a miss, a down tier and a failed read
/// are all `None`; a failed write is dropped.
pub trait Tier: Send + Sync {
    /// The key's kernel slot. Within a tier the infeasibility verdict
    /// wins over a kernel.
    fn get_kernel_slot(&self, key: &CacheKey) -> Option<KernelSlot>;
    /// Fills the key's kernel slot.
    fn put_kernel_slot(&self, key: &CacheKey, slot: &KernelSlot);
    /// The key's sim slot, under the running
    /// [`gpu_sim::COST_MODEL_VERSION`].
    fn get_sim_slot(&self, key: &CacheKey) -> Option<SimOutcome>;
    /// Fills the key's sim slot.
    fn put_sim_slot(&self, key: &CacheKey, outcome: &SimOutcome);
}

/// A slot's value type: what lets [`lookup`] and [`publish`] be written
/// once for both slots.
pub trait Slot: Clone {
    /// Reads this slot of `key` from `tier`.
    fn get(tier: &dyn Tier, key: &CacheKey) -> Option<Self>;
    /// Writes `self` into this slot of `key` in `tier`.
    fn put(&self, tier: &dyn Tier, key: &CacheKey);
    /// Whether the value is a negative verdict rather than an artifact
    /// (the split the session's entry gauges report).
    fn is_negative(&self) -> bool;
}

impl Slot for KernelSlot {
    fn get(tier: &dyn Tier, key: &CacheKey) -> Option<Self> {
        tier.get_kernel_slot(key)
    }
    fn put(&self, tier: &dyn Tier, key: &CacheKey) {
        tier.put_kernel_slot(key, self);
    }
    fn is_negative(&self) -> bool {
        matches!(self, KernelSlot::Infeasible(_))
    }
}

impl Slot for SimOutcome {
    fn get(tier: &dyn Tier, key: &CacheKey) -> Option<Self> {
        tier.get_sim_slot(key)
    }
    fn put(&self, tier: &dyn Tier, key: &CacheKey) {
        tier.put_sim_slot(key, self);
    }
    fn is_negative(&self) -> bool {
        !matches!(self, SimOutcome::Report(_))
    }
}

/// Asks `tiers` (fastest first) for `key`'s slot. The first hit wins and
/// is returned with the depth it was found at, after being promoted into
/// every faster tier — and into none of the slower ones.
pub fn lookup<S: Slot>(tiers: &[Arc<dyn Tier>], key: &CacheKey) -> Option<(usize, S)> {
    for (depth, tier) in tiers.iter().enumerate() {
        if let Some(hit) = S::get(tier.as_ref(), key) {
            for faster in &tiers[..depth] {
                hit.put(faster.as_ref(), key);
            }
            return Some((depth, hit));
        }
    }
    None
}

/// Writes a freshly computed `value` back to every tier.
pub fn publish<S: Slot>(tiers: &[Arc<dyn Tier>], key: &CacheKey, value: &S) {
    for tier in tiers {
        value.put(tier.as_ref(), key);
    }
}

/// Shard count of the in-process maps and of the daemon's store. Sixteen
/// shards keep the probability of two of (up to) sixteen batch workers
/// colliding on one lock low, while the per-shard `HashMap`s stay dense
/// enough to be cache-friendly. Power of two so the index is a mask.
pub const SHARDS: usize = 16;

/// The shard (of [`SHARDS`]) owning `key`. Both fingerprint halves feed
/// the index: keys from one module compiled under many options differ
/// only in `env_fp`, and keys from many modules under one option set
/// differ only in `module_fp`. The combined value is run through a
/// splitmix64-style finalizer before the modulo — raw FNV-1a
/// fingerprints of near-identical inputs (an autotune sweep's option
/// strings) cluster badly in any fixed 4-bit window.
pub fn shard_index(key: &CacheKey) -> usize {
    let mut h = key.module_fp ^ key.env_fp.rotate_left(32);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^= h >> 31;
    h as usize % SHARDS
}

/// Locks `mutex`, recovering the guard when a thread panicked while
/// holding it. Sound for every mutex the session and its memory tier
/// own: each guards a map that is consistent after any single insert, so
/// a panic mid-critical-section (a registered pass blowing up inside
/// the cleanup prefix) leaves nothing half-updated — and must not turn
/// every later `compile_program` and `cache_stats` call into a panic too.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One independently locked shard of the memory tier: both slots of the
/// keys it owns, and how many values in each are negative verdicts —
/// counted under the same lock, so the session's entry gauges never walk
/// a map.
#[derive(Default)]
struct Shard {
    kernels: HashMap<CacheKey, KernelSlot>,
    infeasible: usize,
    sims: HashMap<CacheKey, SimOutcome>,
    failed: usize,
}

/// The fastest tier: both slots in [`SHARDS`] independently locked
/// in-process maps.
///
/// The memory tier is consulted on *every* compile and simulate call;
/// behind a single `Mutex` it would serialize
/// many-worker batches even though the work between
/// lookups is perfectly parallel. Sharding by key hash narrows each lock
/// to 1/16th of the key space; operations on one key still observe a
/// consistent map because a key lives in exactly one shard. Aggregates
/// ([`MemoryTier::entries`], [`MemoryTier::clear`]) lock shard-by-shard
/// — they are maintenance/statistics paths where a momentarily torn view
/// across shards is acceptable.
pub(crate) struct MemoryTier {
    shards: Vec<Mutex<Shard>>,
}

impl MemoryTier {
    pub(crate) fn new() -> MemoryTier {
        MemoryTier {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, key: &CacheKey) -> MutexGuard<'_, Shard> {
        lock(&self.shards[shard_index(key)])
    }

    /// `(kernels, reports, negative verdicts of either slot)` held, in
    /// O([`SHARDS`]).
    pub(crate) fn entries(&self) -> (usize, usize, usize) {
        self.shards.iter().fold((0, 0, 0), |(k, r, n), shard| {
            let s = lock(shard);
            (
                k + s.kernels.len() - s.infeasible,
                r + s.sims.len() - s.failed,
                n + s.infeasible + s.failed,
            )
        })
    }

    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            *lock(shard) = Shard::default();
        }
    }
}

/// Fills `key`'s slot in one shard map, keeping the map's count of
/// negative verdicts exact across overwrites.
fn insert<S: Slot>(map: &mut HashMap<CacheKey, S>, negatives: &mut usize, key: &CacheKey, new: &S) {
    let old = map.insert(*key, new.clone());
    *negatives += usize::from(new.is_negative());
    *negatives -= usize::from(old.is_some_and(|old| old.is_negative()));
}

impl Tier for MemoryTier {
    fn get_kernel_slot(&self, key: &CacheKey) -> Option<KernelSlot> {
        self.shard(key).kernels.get(key).cloned()
    }
    fn put_kernel_slot(&self, key: &CacheKey, slot: &KernelSlot) {
        let shard = &mut *self.shard(key);
        insert(&mut shard.kernels, &mut shard.infeasible, key, slot);
    }
    fn get_sim_slot(&self, key: &CacheKey) -> Option<SimOutcome> {
        self.shard(key).sims.get(key).cloned()
    }
    fn put_sim_slot(&self, key: &CacheKey, outcome: &SimOutcome) {
        let shard = &mut *self.shard(key);
        insert(&mut shard.sims, &mut shard.failed, key, outcome);
    }
}

/// One monotone statistic: the field type of every atomic twin
/// [`counters!`](crate::counters) generates. Relaxed throughout — a
/// counter publishes no other data.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares a statistics snapshot — monotone `counters` (`u64`),
/// point-in-time `gauges` and `nested` snapshots of lower tiers — plus
/// its atomic twin, a struct of one [`Counter`](crate::tier::Counter)
/// per counter. The snapshot gets `delta` (counters subtract saturating,
/// gauges are reported as-is from `self`) and `add` (field-wise sum);
/// the twin gets `snapshot` (counters loaded, gauges and nested left at
/// their defaults for the owner to fill in).
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident / $Twin:ident {
            counters { $($(#[$cmeta:meta])* $counter:ident,)* }
            gauges { $($(#[$gmeta:meta])* $gauge:ident: $gty:ty,)* }
            nested { $($(#[$nmeta:meta])* $nested:ident: $nty:ty,)* }
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $Stats {
            $($(#[$cmeta])* pub $counter: u64,)*
            $($(#[$gmeta])* pub $gauge: $gty,)*
            $($(#[$nmeta])* pub $nested: $nty,)*
        }

        impl $Stats {
            /// Counter movement since `baseline` (an earlier snapshot of
            /// the same source): every monotone counter is subtracted
            /// saturating, so a stale baseline reads as zero rather than
            /// wrapping; point-in-time gauges are reported as-is from
            /// `self`.
            #[must_use]
            pub fn delta(&self, baseline: &$Stats) -> $Stats {
                $Stats {
                    $($counter: self.$counter.saturating_sub(baseline.$counter),)*
                    $($gauge: self.$gauge,)*
                    $($nested: self.$nested.delta(&baseline.$nested),)*
                }
            }

            /// Adds `other` field by field (counters and gauges alike):
            /// the aggregate over several sources.
            pub fn add(&mut self, other: &$Stats) {
                $(self.$counter += other.$counter;)*
                $(self.$gauge += other.$gauge;)*
                $(self.$nested.add(&other.$nested);)*
            }
        }

        /// The live, atomically bumped counters behind the snapshot type.
        #[derive(Debug, Default)]
        $vis struct $Twin {
            $(pub(crate) $counter: $crate::tier::Counter,)*
        }

        impl $Twin {
            /// The counters right now; gauges and nested snapshots are
            /// left at their defaults.
            pub(crate) fn snapshot(&self) -> $Stats {
                $Stats {
                    $($counter: self.$counter.get(),)*
                    $($gauge: Default::default(),)*
                    $($nested: Default::default(),)*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_ir::fingerprint::fnv1a;

    fn key(m: u64, e: u64) -> CacheKey {
        CacheKey {
            module_fp: m,
            env_fp: e,
        }
    }

    #[test]
    fn shards_distribute_sweep_shaped_keys() {
        // Keys from an autotune sweep share module_fp and vary env_fp;
        // the shard index must spread them instead of piling them onto
        // one lock.
        let memory = MemoryTier::new();
        let module_fp = fnv1a(b"module");
        for i in 0..64u64 {
            let key = key(module_fp, fnv1a(format!("opts-{i}").as_bytes()));
            memory.put_sim_slot(&key, &SimOutcome::Failed(i.to_string()));
        }
        assert_eq!(memory.entries(), (0, 0, 64));
        let occupied = memory
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().sims.is_empty())
            .count();
        assert!(occupied > SHARDS / 2, "only {occupied} shards used");
        memory.clear();
        assert_eq!(memory.entries(), (0, 0, 0));
    }

    #[test]
    fn gauges_follow_overwrites_between_classes() {
        let memory = MemoryTier::new();
        let kernel = KernelSlot::Kernel(Arc::new(Kernel::new("k")));
        memory.put_kernel_slot(&key(1, 1), &kernel);
        memory.put_kernel_slot(&key(2, 2), &KernelSlot::Infeasible("no".into()));
        memory.put_sim_slot(&key(1, 1), &SimOutcome::Failed("deadlock".into()));
        assert_eq!(memory.entries(), (1, 0, 2));
        // The same key changing class moves one gauge down and one up.
        memory.put_kernel_slot(&key(2, 2), &kernel);
        memory.put_kernel_slot(&key(2, 2), &kernel);
        assert_eq!(memory.entries(), (2, 0, 1));
        memory.clear();
        assert_eq!(memory.entries(), (0, 0, 0));
    }

    /// A tier that records every call and serves from its own maps.
    #[derive(Default)]
    struct Recording {
        log: Mutex<Vec<String>>,
        kernels: Mutex<HashMap<CacheKey, KernelSlot>>,
        sims: Mutex<HashMap<CacheKey, SimOutcome>>,
        /// Answers `None` and drops writes, like a latched-down remote.
        dead: bool,
    }

    impl Recording {
        fn take_log(&self) -> Vec<String> {
            std::mem::take(&mut *self.log.lock().unwrap())
        }
    }

    impl Tier for Recording {
        fn get_kernel_slot(&self, key: &CacheKey) -> Option<KernelSlot> {
            self.log.lock().unwrap().push("get-kernel".into());
            self.kernels.lock().unwrap().get(key).cloned()
        }
        fn put_kernel_slot(&self, key: &CacheKey, slot: &KernelSlot) {
            self.log.lock().unwrap().push("put-kernel".into());
            if !self.dead {
                self.kernels.lock().unwrap().insert(*key, slot.clone());
            }
        }
        fn get_sim_slot(&self, key: &CacheKey) -> Option<SimOutcome> {
            self.log.lock().unwrap().push("get-sim".into());
            self.sims.lock().unwrap().get(key).cloned()
        }
        fn put_sim_slot(&self, key: &CacheKey, outcome: &SimOutcome) {
            self.log.lock().unwrap().push("put-sim".into());
            if !self.dead {
                self.sims.lock().unwrap().insert(*key, outcome.clone());
            }
        }
    }

    fn stack(n: usize) -> (Vec<Arc<Recording>>, Vec<Arc<dyn Tier>>) {
        let fakes: Vec<Arc<Recording>> = (0..n).map(|_| Arc::default()).collect();
        let tiers = fakes.iter().map(|f| f.clone() as Arc<dyn Tier>).collect();
        (fakes, tiers)
    }

    #[test]
    fn cascade_promotes_upward_and_writes_back_to_all() {
        let k = key(7, 9);
        let verdict = SimOutcome::Failed("deadlock".into());
        for depth in 0..3 {
            let (fakes, tiers) = stack(3);
            fakes[depth].put_sim_slot(&k, &verdict);
            fakes[depth].take_log();
            let hit = lookup::<SimOutcome>(&tiers, &k);
            assert_eq!(hit, Some((depth, verdict.clone())), "hit at depth {depth}");
            for (i, fake) in fakes.iter().enumerate() {
                let expected: &[&str] = match i.cmp(&depth) {
                    // Every faster tier is asked first, then promoted into.
                    std::cmp::Ordering::Less => &["get-sim", "put-sim"],
                    std::cmp::Ordering::Equal => &["get-sim"],
                    // No downward publish: slower tiers are never touched.
                    std::cmp::Ordering::Greater => &[],
                };
                assert_eq!(fake.take_log(), expected, "tier {i}, hit at {depth}");
                assert_eq!(fake.get_sim_slot(&k).is_some(), i <= depth);
                assert_eq!(fake.get_kernel_slot(&k), None, "other slot untouched");
            }
        }

        // A miss asks every tier in order and writes nothing; the
        // write-back then reaches all of them, in the kernel slot only.
        let (fakes, tiers) = stack(3);
        assert_eq!(lookup::<KernelSlot>(&tiers, &k), None);
        let slot = KernelSlot::Infeasible("P > D".into());
        publish(&tiers, &k, &slot);
        for fake in &fakes {
            assert_eq!(fake.take_log(), ["get-kernel", "put-kernel"]);
            assert_eq!(fake.get_kernel_slot(&k), Some(slot.clone()));
            assert_eq!(fake.get_sim_slot(&k), None);
        }
    }

    #[test]
    fn an_always_none_tier_changes_nothing() {
        let k = key(1, 2);
        let slot = KernelSlot::Infeasible("P > D".into());
        let run = |dead_middle: bool| {
            let fakes = [
                Arc::new(Recording::default()),
                Arc::new(Recording {
                    dead: dead_middle,
                    ..Recording::default()
                }),
                Arc::new(Recording::default()),
            ];
            let mut tiers: Vec<Arc<dyn Tier>> = vec![fakes[0].clone()];
            if dead_middle {
                tiers.push(fakes[1].clone());
            }
            tiers.push(fakes[2].clone());
            let miss = lookup::<KernelSlot>(&tiers, &k);
            publish(&tiers, &k, &slot);
            fakes[0].kernels.lock().unwrap().clear();
            let hit = lookup::<KernelSlot>(&tiers, &k);
            let top = fakes[0].get_kernel_slot(&k);
            (miss, hit.map(|(_, slot)| slot), top)
        };
        // With a dead tier in the middle the live tiers see the same
        // values: the miss stays a miss, the bottom tier's hit is still
        // found and still promoted to the top.
        assert_eq!(run(true), run(false));
        assert_eq!(run(true), (None, Some(slot.clone()), Some(slot)));
    }
}
