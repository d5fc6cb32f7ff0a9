//! Sweep-level cache of per-matrix derived artifacts, with optional
//! LRU eviction under a byte budget.
//!
//! Every simulation derives the same expensive, *pure* functions of its
//! input matrix: the [`PassPlan`] at the configuration's sub-tensor
//! width, the [`MatrixArena`] slice tables, and the [`MatrixProfile`]
//! statics. The engine takes all of them from a [`MatrixCache`]: a
//! shared one (via `Arc`, across the sweep executor's workers or the
//! serve daemon's) computes each artifact once per `(matrix, parameter)`
//! key and hands out `Arc` clones, and a run with none attached gets a
//! private cache for its own length. Results are bit-identical either
//! way because every cached function is deterministic in its key.
//!
//! The cache never reorders: row reordering is offline preprocessing
//! its callers apply before keying a matrix
//! ([`ReorderKind::apply`](crate::ReorderKind::apply)).
//!
//! Keys are caller-derived ([`MatrixCache::key_for`]) rather than deep
//! matrix hashes: the sweep labels each dataset once and folds the
//! matrix's shape and population into the key, so distinct matrices
//! cannot collide in practice while lookups stay O(1).
//!
//! # One table
//!
//! The three artifact families share one map from an `ArtifactKey` —
//! the family, the matrix key and (for plans and profiles) the
//! reordering the keyed matrix was derived under and the sub-tensor
//! width — to a type-erased slot, and one `get_or_build` holds the
//! whole lookup sequence: hit, wait on an in-flight build, miss, build
//! outside the lock, insert, eviction. The typed lookups
//! ([`MatrixCache::plan`], [`MatrixCache::arena`],
//! [`MatrixCache::profile`]) only name their key and heap-size estimate.
//!
//! # Bounding and eviction
//!
//! A cache built with [`MatrixCache::with_budget`] evicts
//! least-recently-used entries (across all three artifact families, by a
//! global logical clock) whenever an insert pushes the resident total
//! over the budget. The entry being inserted is never its own victim,
//! so a single artifact larger than the budget still caches (and is
//! evicted by the next insert): resident bytes never exceed
//! `max(budget, largest single artifact)`. The default
//! [`MatrixCache::new`] cache is unbounded and never evicts.
//!
//! All bookkeeping — the artifact table, the LRU index, the set of keys
//! being built, hit/miss/eviction counters, and per-family byte totals —
//! lives behind one mutex, so counters cannot drift from residency under
//! concurrent insert+evict. Artifact *builds* run outside the lock but
//! once per key: the first request for a missing key marks it as
//! building, and concurrent requests for that key wait for the build and
//! then count as hits. A build that panics releases its waiters, and the
//! next request builds again.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use sparsepipe_tensor::CooMatrix;

use crate::arena::MatrixArena;
use crate::config::ReorderKind;
use crate::plan::PassPlan;
use crate::profile::MatrixProfile;

/// Names one cached artifact: its family, the matrix key, and (plans and
/// profiles) the reordering the keyed matrix was derived under and the
/// sub-tensor width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ArtifactKey {
    Plan(u64, ReorderKind, usize),
    Arena(u64),
    Profile(u64, ReorderKind, usize),
}

/// A type-erased artifact; its [`ArtifactKey`] variant fixes the type.
type Artifact = Arc<dyn Any + Send + Sync>;

/// One resident cache entry: the artifact, its accounted heap size, and
/// the logical-clock stamp of its most recent use (the LRU key).
#[derive(Debug)]
struct Slot {
    value: Artifact,
    bytes: u64,
    stamp: u64,
}

/// Everything the cache tracks, behind a single lock so residency and
/// counters stay mutually coherent.
#[derive(Debug, Default)]
struct CacheState {
    slots: HashMap<ArtifactKey, Slot>,
    /// Least-recently-used index: use-stamp → resident entry. Stamps are
    /// unique (the logical clock only ticks under the lock), so the
    /// smallest key is *the* least recently used entry.
    lru: BTreeMap<u64, ArtifactKey>,
    /// Keys whose build is in flight; requests for them wait on
    /// [`MatrixCache::built`] instead of building again.
    building: HashSet<ArtifactKey>,
    bytes: CacheBytes,
    hits: u64,
    misses: u64,
    evictions: u64,
    tick: u64,
}

impl CacheState {
    /// The resident artifact `key`, re-stamped to the front of the LRU
    /// order; `None` when it is not resident.
    fn touch(&mut self, key: ArtifactKey) -> Option<Artifact> {
        let slot = self.slots.get_mut(&key)?;
        self.lru.remove(&slot.stamp);
        self.tick += 1;
        slot.stamp = self.tick;
        self.lru.insert(self.tick, key);
        Some(Arc::clone(&slot.value))
    }

    /// Evicts least-recently-used entries until the resident total fits
    /// `budget`, never evicting the just-inserted entry (`protect`).
    fn evict_over_budget(&mut self, budget: u64, protect: u64) {
        while self.bytes.total() > budget {
            let victim = self
                .lru
                .iter()
                .find(|(&stamp, _)| stamp != protect)
                .map(|(_, &key)| key);
            let Some(key) = victim else { break };
            let slot = self.slots.remove(&key).expect("lru index is resident");
            self.lru.remove(&slot.stamp);
            *self.bytes.family(key) -= slot.bytes;
            self.evictions += 1;
        }
    }
}

/// Shared cache of pass plans, arenas, and matrix profiles, keyed by a
/// caller-stable matrix key. Thread-safe: the sweep executor and the
/// serve daemon clone one `Arc<MatrixCache>` into every worker, and each
/// key is built once however many workers ask for it. Unbounded by
/// default; see [`MatrixCache::with_budget`].
#[derive(Debug, Default)]
pub struct MatrixCache {
    state: Mutex<CacheState>,
    /// Notified whenever an in-flight build ends, by insert or by panic.
    built: Condvar,
    budget: Option<u64>,
}

/// Estimated heap bytes held by each cache family. Sizes are accounted
/// at insert time and reclaimed at eviction, so under a budget the
/// totals track *resident* bytes, not lifetime inserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBytes {
    /// Bytes held by cached pass plans.
    pub plans: u64,
    /// Bytes held by cached arenas.
    pub arenas: u64,
    /// Bytes held by cached matrix profiles.
    pub profiles: u64,
}

impl CacheBytes {
    /// Total bytes across all families.
    pub fn total(&self) -> u64 {
        self.plans + self.arenas + self.profiles
    }

    /// The total `key`'s family is accounted under.
    fn family(&mut self, key: ArtifactKey) -> &mut u64 {
        match key {
            ArtifactKey::Plan(..) => &mut self.plans,
            ArtifactKey::Arena(..) => &mut self.arenas,
            ArtifactKey::Profile(..) => &mut self.profiles,
        }
    }
}

fn arena_heap_bytes(a: &MatrixArena) -> u64 {
    // CSC + CSR: each one (n+1) u32 pointer array plus nnz coordinates
    // (u32) and values (f64)
    (2 * ((a.n() as usize + 1) * std::mem::size_of::<u32>()
        + a.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>()))) as u64
}

/// Recovers an artifact's concrete type.
fn typed<T: Send + Sync + 'static>(value: Artifact) -> Arc<T> {
    value
        .downcast()
        .expect("an artifact key names one artifact type")
}

/// Marks `key` as being built for as long as it lives: dropping it — after
/// the insert, or while a panicking build unwinds — clears the mark and
/// wakes the requests waiting for the key.
struct InFlight<'a> {
    cache: &'a MatrixCache,
    key: ArtifactKey,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.cache.lock().building.remove(&self.key);
        self.cache.built.notify_all();
    }
}

impl MatrixCache {
    /// An empty, unbounded cache (never evicts).
    pub fn new() -> Self {
        MatrixCache::default()
    }

    /// An empty cache that evicts least-recently-used artifacts whenever
    /// an insert pushes the resident total over `budget_bytes`. The
    /// entry being inserted is exempt from its own eviction pass, so
    /// resident bytes are bounded by `max(budget_bytes, largest single
    /// artifact)`.
    pub fn with_budget(budget_bytes: u64) -> Self {
        MatrixCache {
            budget: Some(budget_bytes),
            ..MatrixCache::default()
        }
    }

    /// The eviction budget in bytes, or `None` for an unbounded cache.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Derives a cache key for `matrix` labelled `label` (e.g. the
    /// dataset code): FNV-1a over the label with the matrix's shape and
    /// non-zero count folded in, so re-used labels with different
    /// scaling cannot alias.
    pub fn key_for(label: &str, matrix: &CooMatrix) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in label.bytes() {
            eat(b);
        }
        for b in matrix
            .nrows()
            .to_le_bytes()
            .into_iter()
            .chain(matrix.ncols().to_le_bytes())
            .chain((matrix.nnz() as u64).to_le_bytes())
        {
            eat(b);
        }
        h
    }

    /// The artifact `key`: a hit re-stamps it as most recently used; a
    /// request for a key another thread is building waits for that build
    /// and counts as a hit; a miss marks the key as building, runs
    /// `build` outside the lock, inserts the result accounted at
    /// `heap_bytes` of it, and evicts over the budget.
    fn get_or_build<T: Send + Sync + 'static>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> T,
        heap_bytes: fn(&T) -> u64,
    ) -> Arc<T> {
        {
            let mut s = self.lock();
            loop {
                if let Some(value) = s.touch(key) {
                    s.hits += 1;
                    return typed(value);
                }
                if !s.building.contains(&key) {
                    break;
                }
                s = self.built.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
            s.misses += 1;
            s.building.insert(key);
        }
        let _release = InFlight { cache: self, key };
        let built = Arc::new(build());
        let mut s = self.lock();
        let bytes = heap_bytes(&built);
        s.tick += 1;
        let stamp = s.tick;
        s.lru.insert(stamp, key);
        s.slots.insert(
            key,
            Slot {
                value: built.clone(),
                bytes,
                stamp,
            },
        );
        *s.bytes.family(key) += bytes;
        if let Some(budget) = self.budget {
            s.evict_over_budget(budget, stamp);
        }
        drop(s); // `_release` takes the lock again when it drops
        built
    }

    /// The [`PassPlan`] of matrix `key` at sub-tensor width `t_cols`,
    /// building it with `build` on first request. `kind` is the
    /// reordering the keyed matrix was derived under. `build` must be a
    /// pure function of the key: concurrent requests wait for the first
    /// one's build and share its result.
    pub fn plan<F>(&self, key: u64, kind: ReorderKind, t_cols: usize, build: F) -> Arc<PassPlan>
    where
        F: FnOnce() -> PassPlan,
    {
        self.get_or_build(
            ArtifactKey::Plan(key, kind, t_cols),
            build,
            PassPlan::heap_bytes,
        )
    }

    /// The [`MatrixProfile`] of matrix `key` at sub-tensor width
    /// `t_cols`, building on first request. `kind` is the reordering the
    /// keyed matrix was derived under. Same purity contract as
    /// [`MatrixCache::plan`].
    pub fn profile<F>(
        &self,
        key: u64,
        kind: ReorderKind,
        t_cols: usize,
        build: F,
    ) -> Arc<MatrixProfile>
    where
        F: FnOnce() -> MatrixProfile,
    {
        self.get_or_build(
            ArtifactKey::Profile(key, kind, t_cols),
            build,
            MatrixProfile::heap_bytes,
        )
    }

    /// The [`MatrixArena`] of matrix `key`, building on first request.
    /// Same purity contract as [`MatrixCache::plan`].
    pub fn arena<F>(&self, key: u64, build: F) -> Arc<MatrixArena>
    where
        F: FnOnce() -> MatrixArena,
    {
        self.get_or_build(ArtifactKey::Arena(key), build, arena_heap_bytes)
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookups that had to build.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Entries evicted to stay within the byte budget (always 0 for an
    /// unbounded cache).
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Estimated resident bytes per cache family. Accounted at insert,
    /// reclaimed at eviction; with no budget this only grows.
    pub fn bytes(&self) -> CacheBytes {
        self.lock().bytes
    }

    /// Number of resident entries across all families (the LRU index
    /// length); primarily for tests and stats reporting.
    pub fn resident_entries(&self) -> usize {
        self.lock().lru.len()
    }

    /// Audits the incremental accounting against ground truth: under the
    /// lock, recomputes per-family byte totals from the resident slots
    /// and checks the LRU index is exactly the resident set. Panics on
    /// any drift. O(resident entries); a test and diagnostics aid —
    /// the stress suite calls it after concurrent insert+evict storms.
    pub fn audit_accounting(&self) {
        let s = self.lock();
        let mut recomputed = CacheBytes::default();
        // determinism: allow (order-insensitive accounting audit)
        for (&key, slot) in &s.slots {
            *recomputed.family(key) += slot.bytes;
            assert_eq!(
                s.lru.get(&slot.stamp),
                Some(&key),
                "resident slot stamp {} missing from LRU index",
                slot.stamp
            );
        }
        assert_eq!(
            recomputed, s.bytes,
            "accounted bytes drifted from resident slots"
        );
        assert_eq!(
            s.lru.len(),
            s.slots.len(),
            "LRU index length does not match resident entries"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_tensor::gen;

    #[test]
    fn plan_is_built_once_per_key_and_width() {
        let m = gen::uniform(64, 64, 300, 3);
        let cache = MatrixCache::new();
        let key = MatrixCache::key_for("t", &m);
        let a = cache.plan(key, ReorderKind::None, 8, || PassPlan::build(&m, 8));
        let b = cache.plan(key, ReorderKind::None, 8, || panic!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        // a different width is a different artifact
        let c = cache.plan(key, ReorderKind::None, 16, || PassPlan::build(&m, 16));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn reorder_kinds_do_not_alias() {
        let m = gen::uniform(32, 32, 100, 5);
        let cache = MatrixCache::new();
        let key = MatrixCache::key_for("t", &m);
        let plain = cache.plan(key, ReorderKind::None, 8, || PassPlan::build(&m, 8));
        let tagged = cache.plan(key, ReorderKind::GraphOrder, 8, || {
            PassPlan::build(&m.transpose(), 8)
        });
        assert!(!Arc::ptr_eq(&plain, &tagged));
    }

    #[test]
    fn keys_separate_labels_and_shapes() {
        let a = gen::uniform(32, 32, 100, 5);
        let b = gen::uniform(64, 64, 100, 5);
        assert_ne!(
            MatrixCache::key_for("x", &a),
            MatrixCache::key_for("y", &a),
            "labels must separate keys"
        );
        assert_ne!(
            MatrixCache::key_for("x", &a),
            MatrixCache::key_for("x", &b),
            "shapes must separate keys"
        );
    }

    #[test]
    fn byte_accounting_counts_each_entry_once() {
        let m = gen::uniform(64, 64, 300, 3);
        let cache = MatrixCache::new();
        assert_eq!(cache.bytes().total(), 0);
        let key = MatrixCache::key_for("t", &m);
        cache.plan(key, ReorderKind::None, 8, || PassPlan::build(&m, 8));
        let after_plan = cache.bytes();
        assert_eq!(after_plan.plans, PassPlan::build(&m, 8).heap_bytes());
        assert_eq!(after_plan.total(), after_plan.plans);
        // hits do not grow the accounted bytes
        cache.plan(key, ReorderKind::None, 8, || panic!("must hit"));
        assert_eq!(cache.bytes(), after_plan);
        cache.arena(key, || MatrixArena::from_coo(&m));
        let plan = cache.plan(key, ReorderKind::None, 8, || panic!("must hit"));
        cache.profile(key, ReorderKind::None, 8, || MatrixProfile::build(&plan));
        let all = cache.bytes();
        assert!(all.arenas > 0 && all.profiles > 0);
        assert_eq!(all.plans, after_plan.plans);
        assert_eq!(all.total(), all.plans + all.arenas + all.profiles);
    }

    #[test]
    fn arena_round_trips() {
        let m = gen::uniform(48, 48, 200, 7);
        let cache = MatrixCache::new();
        let key = MatrixCache::key_for("t", &m);
        let a = cache.arena(key, || MatrixArena::from_coo(&m));
        let b = cache.arena(key, || panic!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.nnz(), m.nnz());
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = MatrixCache::new();
        assert_eq!(cache.budget(), None);
        for i in 0..16u64 {
            let m = gen::uniform(32, 32, 100 + i as usize, i);
            cache.arena(i, || MatrixArena::from_coo(&m));
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.resident_entries(), 16);
    }

    #[test]
    fn budgeted_cache_evicts_lru_and_reclaims_bytes() {
        let m = gen::uniform(64, 64, 300, 3);
        let arena = || MatrixArena::from_coo(&m);
        let one = arena_heap_bytes(&arena());
        // room for exactly two arenas
        let cache = MatrixCache::with_budget(2 * one);
        assert_eq!(cache.budget(), Some(2 * one));
        cache.arena(1, arena);
        cache.arena(2, arena);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.bytes().total(), 2 * one);
        // key 1 is LRU → inserting key 3 evicts it
        cache.arena(3, arena);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.bytes().total(), 2 * one);
        assert_eq!(cache.resident_entries(), 2);
        // key 2 survived (hit), key 1 rebuilds (miss)
        let before = cache.misses();
        cache.arena(2, || panic!("must hit"));
        cache.arena(1, arena);
        assert_eq!(cache.misses(), before + 1);
    }

    #[test]
    fn touching_updates_lru_order() {
        let m = gen::uniform(64, 64, 300, 3);
        let arena = || MatrixArena::from_coo(&m);
        let one = arena_heap_bytes(&arena());
        let cache = MatrixCache::with_budget(2 * one);
        cache.arena(1, arena);
        cache.arena(2, arena);
        // touch 1 so 2 becomes the LRU victim
        cache.arena(1, || panic!("must hit"));
        cache.arena(3, arena);
        cache.arena(1, || panic!("1 must survive"));
        let before = cache.misses();
        cache.arena(2, arena);
        assert_eq!(cache.misses(), before + 1, "2 must have been evicted");
    }

    #[test]
    fn oversized_entry_still_caches_and_is_bounded_by_itself() {
        let m = gen::uniform(64, 64, 300, 3);
        let arena = || MatrixArena::from_coo(&m);
        let one = arena_heap_bytes(&arena());
        let cache = MatrixCache::with_budget(one / 2);
        cache.arena(1, arena);
        // the oversized entry is protected from its own insert pass
        assert_eq!(cache.resident_entries(), 1);
        assert_eq!(cache.bytes().total(), one);
        // ... but is evicted by the next insert
        cache.arena(2, arena);
        assert_eq!(cache.resident_entries(), 1);
        assert!(cache.evictions() >= 1);
        let miss_before = cache.misses();
        cache.arena(1, arena);
        assert_eq!(cache.misses(), miss_before + 1);
    }

    #[test]
    fn eviction_crosses_families_by_global_lru() {
        let m = gen::uniform(64, 64, 300, 3);
        let plan = PassPlan::build(&m, 8).heap_bytes();
        let arena = arena_heap_bytes(&MatrixArena::from_coo(&m));
        assert!(plan <= arena, "test relies on arena >= plan");
        let cache = MatrixCache::with_budget(2 * arena);
        cache.arena(1, || MatrixArena::from_coo(&m));
        cache.plan(1, ReorderKind::None, 8, || PassPlan::build(&m, 8));
        assert_eq!(cache.evictions(), 0);
        // inserting a new arena evicts the globally-oldest entry — the
        // first arena — not the younger plan in the other family
        cache.arena(2, || MatrixArena::from_coo(&m));
        assert_eq!(cache.evictions(), 1);
        cache.plan(1, ReorderKind::None, 8, || panic!("plan 1 must survive"));
        let before = cache.misses();
        cache.arena(1, || MatrixArena::from_coo(&m));
        assert_eq!(cache.misses(), before + 1, "arena 1 must be evicted");
        assert!(cache.bytes().total() <= 2 * arena + plan);
    }

    #[test]
    fn concurrent_requests_build_a_key_once() {
        const THREADS: usize = 8;
        let m = gen::uniform(64, 64, 300, 3);
        let cache = MatrixCache::new();
        let builds = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    cache.plan(7, ReorderKind::None, 8, || {
                        builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        // hold the build open so the others arrive mid-build
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        PassPlan::build(&m, 8)
                    });
                });
            }
        });
        assert_eq!(builds.into_inner(), 1, "the build closure must run once");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), THREADS as u64 - 1);
        cache.audit_accounting();
    }

    #[test]
    fn a_panicking_build_releases_its_waiters() {
        let m = gen::uniform(64, 64, 300, 3);
        let cache = MatrixCache::new();
        let (started, in_build) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let builder = scope.spawn(|| {
                cache.arena(1, || -> MatrixArena {
                    started.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("build failed")
                })
            });
            in_build.recv().unwrap();
            // this request arrives mid-build, waits, and builds itself
            // once the panicking build has released the key
            let a = cache.arena(1, || MatrixArena::from_coo(&m));
            assert_eq!(a.nnz(), m.nnz());
            assert!(builder.join().is_err(), "the first build panicked");
        });
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        // after the panic the key is built and cached as usual
        cache.arena(1, || panic!("must hit"));
        assert_eq!(cache.hits(), 1);
        cache.audit_accounting();
    }
}
