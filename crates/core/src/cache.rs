//! Sweep-level cache of per-matrix derived artifacts, with optional
//! LRU eviction under a byte budget.
//!
//! Every simulation derives the same expensive, *pure* functions of its
//! input matrix: the reordered matrix (GraphOrder / Vanilla
//! preprocessing), the [`PassPlan`] at the configuration's sub-tensor
//! width, the [`MatrixArena`] slice tables, and the [`MatrixProfile`]
//! statics. The engine takes all of them from a [`MatrixCache`]: a
//! shared one (via `Arc`, across the sweep executor's workers or the
//! serve daemon's) computes each artifact once per `(matrix, parameter)`
//! key and hands out `Arc` clones, and a run with none attached gets a
//! private cache for its own length. Results are bit-identical either
//! way because every cached function is deterministic in its key.
//!
//! Keys are caller-derived ([`MatrixCache::key_for`]) rather than deep
//! matrix hashes: the sweep labels each dataset once and folds the
//! matrix's shape and population into the key, so distinct matrices
//! cannot collide in practice while lookups stay O(1).
//!
//! # One table
//!
//! The four artifact families share one map from an `ArtifactKey` —
//! the family, the matrix key, the reordering and (for plans and
//! profiles) the sub-tensor width — to a type-erased slot, and one
//! `get_or_build` holds the whole lookup sequence: hit, miss, build
//! outside the lock, racing-insert check, insert, eviction. The typed
//! lookups ([`MatrixCache::reordered`], [`MatrixCache::plan`],
//! [`MatrixCache::arena`], [`MatrixCache::profile`]) only name their key
//! and heap-size estimate.
//!
//! # Bounding and eviction
//!
//! A cache built with [`MatrixCache::with_budget`] evicts
//! least-recently-used entries (across all four artifact families, by a
//! global logical clock) whenever an insert pushes the resident total
//! over the budget. The entry being inserted is never its own victim,
//! so a single artifact larger than the budget still caches (and is
//! evicted by the next insert): resident bytes never exceed
//! `max(budget, largest single artifact)`. The default
//! [`MatrixCache::new`] cache is unbounded and never evicts.
//!
//! All bookkeeping — the artifact table, the LRU index, hit/miss/
//! eviction counters, and per-family byte totals — lives behind one
//! mutex, so counters cannot drift from residency under concurrent
//! insert+evict. Artifact *builds* still run outside the lock:
//! concurrent first requests may build redundantly and the first insert
//! wins, which is safe because every cached function is pure.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

use sparsepipe_tensor::CooMatrix;

use crate::arena::MatrixArena;
use crate::config::ReorderKind;
use crate::plan::PassPlan;
use crate::profile::MatrixProfile;

/// Names one cached artifact: its family, the matrix key, the reordering
/// it was derived under, and (plans and profiles) the sub-tensor width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ArtifactKey {
    Reordered(u64, ReorderKind),
    Plan(u64, ReorderKind, usize),
    Arena(u64, ReorderKind),
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

/// Shared cache of reordered matrices, pass plans, arenas, and matrix
/// profiles, keyed by a caller-stable matrix key. Thread-safe: the sweep
/// executor and the serve daemon clone one `Arc<MatrixCache>` into every
/// worker. Unbounded by default; see [`MatrixCache::with_budget`].
#[derive(Debug, Default)]
pub struct MatrixCache {
    state: Mutex<CacheState>,
    budget: Option<u64>,
}

/// Estimated heap bytes held by each cache family. Sizes are accounted
/// at insert time and reclaimed at eviction, so under a budget the
/// totals track *resident* bytes, not lifetime inserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBytes {
    /// Bytes held by cached reordered matrices.
    pub reordered: u64,
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
        self.reordered + self.plans + self.arenas + self.profiles
    }

    /// The total `key`'s family is accounted under.
    fn family(&mut self, key: ArtifactKey) -> &mut u64 {
        match key {
            ArtifactKey::Reordered(..) => &mut self.reordered,
            ArtifactKey::Plan(..) => &mut self.plans,
            ArtifactKey::Arena(..) => &mut self.arenas,
            ArtifactKey::Profile(..) => &mut self.profiles,
        }
    }
}

fn coo_heap_bytes(m: &CooMatrix) -> u64 {
    (m.nnz() * std::mem::size_of::<(u32, u32, f64)>()) as u64
}

fn plan_heap_bytes(p: &PassPlan) -> u64 {
    // five nnz-length u32 arrays, two (steps+1) usize pointer arrays,
    // one steps-length usize curve
    (5 * p.nnz * std::mem::size_of::<u32>()
        + (2 * (p.steps + 1) + p.steps) * std::mem::size_of::<usize>()) as u64
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
            state: Mutex::new(CacheState::default()),
            budget: Some(budget_bytes),
        }
    }

    /// The eviction budget in bytes, or `None` for an unbounded cache.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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
    /// miss runs `build` outside the lock, inserts the result (unless a
    /// racing build inserted first — results are identical by purity)
    /// accounted at `heap_bytes` of it, and evicts over the budget.
    fn get_or_build<T: Send + Sync + 'static>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> T,
        heap_bytes: fn(&T) -> u64,
    ) -> Arc<T> {
        {
            let mut s = self.lock();
            if let Some(value) = s.touch(key) {
                s.hits += 1;
                return typed(value);
            }
            s.misses += 1;
        }
        let built = Arc::new(build());
        let mut s = self.lock();
        if let Some(value) = s.touch(key) {
            return typed(value);
        }
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
        built
    }

    /// The matrix `key` reordered under `kind`, building it with `build`
    /// on first request. `build` must be a pure function of the key —
    /// it runs outside the cache lock, so concurrent first requests may
    /// build redundantly (the first inserted wins; all results are
    /// identical by purity).
    pub fn reordered<F>(&self, key: u64, kind: ReorderKind, build: F) -> Arc<CooMatrix>
    where
        F: FnOnce() -> CooMatrix,
    {
        self.get_or_build(ArtifactKey::Reordered(key, kind), build, coo_heap_bytes)
    }

    /// The [`PassPlan`] of matrix `key` (under reordering `kind`) at
    /// sub-tensor width `t_cols`, building on first request. Same purity
    /// contract as [`MatrixCache::reordered`].
    pub fn plan<F>(&self, key: u64, kind: ReorderKind, t_cols: usize, build: F) -> Arc<PassPlan>
    where
        F: FnOnce() -> PassPlan,
    {
        self.get_or_build(ArtifactKey::Plan(key, kind, t_cols), build, plan_heap_bytes)
    }

    /// The [`MatrixProfile`] of matrix `key` (under reordering `kind`) at
    /// sub-tensor width `t_cols`, building on first request. Same purity
    /// contract as [`MatrixCache::reordered`].
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

    /// The [`MatrixArena`] of the unreordered matrix `key`, building on
    /// first request. Same purity contract as [`MatrixCache::reordered`].
    pub fn arena<F>(&self, key: u64, build: F) -> Arc<MatrixArena>
    where
        F: FnOnce() -> MatrixArena,
    {
        self.reordered_arena(key, ReorderKind::None, build)
    }

    /// The [`MatrixArena`] of matrix `key` reordered under `kind`.
    pub(crate) fn reordered_arena<F>(
        &self,
        key: u64,
        kind: ReorderKind,
        build: F,
    ) -> Arc<MatrixArena>
    where
        F: FnOnce() -> MatrixArena,
    {
        self.get_or_build(ArtifactKey::Arena(key, kind), build, arena_heap_bytes)
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
        let plain = cache.reordered(key, ReorderKind::None, || m.clone());
        let tagged = cache.reordered(key, ReorderKind::GraphOrder, || m.transpose());
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
        assert!(after_plan.plans > 0);
        assert_eq!(after_plan.total(), after_plan.plans);
        // hits do not grow the accounted bytes
        cache.plan(key, ReorderKind::None, 8, || panic!("must hit"));
        assert_eq!(cache.bytes(), after_plan);
        cache.reordered(key, ReorderKind::None, || m.clone());
        cache.arena(key, || MatrixArena::from_coo(&m));
        let plan = cache.plan(key, ReorderKind::None, 8, || panic!("must hit"));
        cache.profile(key, ReorderKind::None, 8, || MatrixProfile::build(&plan));
        let all = cache.bytes();
        assert!(all.reordered > 0 && all.arenas > 0 && all.profiles > 0);
        assert_eq!(
            all.total(),
            all.reordered + all.plans + all.arenas + all.profiles
        );
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
            cache.reordered(i, ReorderKind::None, || m);
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.resident_entries(), 16);
    }

    #[test]
    fn budgeted_cache_evicts_lru_and_reclaims_bytes() {
        let m = gen::uniform(64, 64, 300, 3);
        let one = coo_heap_bytes(&m);
        // room for exactly two reordered copies
        let cache = MatrixCache::with_budget(2 * one);
        assert_eq!(cache.budget(), Some(2 * one));
        cache.reordered(1, ReorderKind::None, || m.clone());
        cache.reordered(2, ReorderKind::None, || m.clone());
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.bytes().total(), 2 * one);
        // key 1 is LRU → inserting key 3 evicts it
        cache.reordered(3, ReorderKind::None, || m.clone());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.bytes().total(), 2 * one);
        assert_eq!(cache.resident_entries(), 2);
        // key 2 survived (hit), key 1 rebuilds (miss)
        let before = cache.misses();
        cache.reordered(2, ReorderKind::None, || panic!("must hit"));
        cache.reordered(1, ReorderKind::None, || m.clone());
        assert_eq!(cache.misses(), before + 1);
    }

    #[test]
    fn touching_updates_lru_order() {
        let m = gen::uniform(64, 64, 300, 3);
        let one = coo_heap_bytes(&m);
        let cache = MatrixCache::with_budget(2 * one);
        cache.reordered(1, ReorderKind::None, || m.clone());
        cache.reordered(2, ReorderKind::None, || m.clone());
        // touch 1 so 2 becomes the LRU victim
        cache.reordered(1, ReorderKind::None, || panic!("must hit"));
        cache.reordered(3, ReorderKind::None, || m.clone());
        cache.reordered(1, ReorderKind::None, || panic!("1 must survive"));
        let before = cache.misses();
        cache.reordered(2, ReorderKind::None, || m.clone());
        assert_eq!(cache.misses(), before + 1, "2 must have been evicted");
    }

    #[test]
    fn oversized_entry_still_caches_and_is_bounded_by_itself() {
        let m = gen::uniform(64, 64, 300, 3);
        let one = coo_heap_bytes(&m);
        let cache = MatrixCache::with_budget(one / 2);
        cache.reordered(1, ReorderKind::None, || m.clone());
        // the oversized entry is protected from its own insert pass
        assert_eq!(cache.resident_entries(), 1);
        assert_eq!(cache.bytes().total(), one);
        // ... but is evicted by the next insert
        cache.reordered(2, ReorderKind::None, || m.clone());
        assert_eq!(cache.resident_entries(), 1);
        assert!(cache.evictions() >= 1);
        let miss_before = cache.misses();
        cache.reordered(1, ReorderKind::None, || m.clone());
        assert_eq!(cache.misses(), miss_before + 1);
    }

    #[test]
    fn eviction_crosses_families_by_global_lru() {
        let m = gen::uniform(64, 64, 300, 3);
        let coo = coo_heap_bytes(&m);
        let arena = arena_heap_bytes(&MatrixArena::from_coo(&m));
        assert!(coo <= arena, "test relies on arena >= coo");
        let cache = MatrixCache::with_budget(2 * arena);
        cache.arena(1, || MatrixArena::from_coo(&m));
        cache.reordered(1, ReorderKind::None, || m.clone());
        assert_eq!(cache.evictions(), 0);
        // inserting a new arena evicts the globally-oldest entry — the
        // first arena — not the younger reordered matrix in the other
        // family
        cache.arena(2, || MatrixArena::from_coo(&m));
        assert_eq!(cache.evictions(), 1);
        cache.reordered(1, ReorderKind::None, || panic!("reordered 1 must survive"));
        let before = cache.misses();
        cache.arena(1, || MatrixArena::from_coo(&m));
        assert_eq!(cache.misses(), before + 1, "arena 1 must be evicted");
        assert!(cache.bytes().total() <= 2 * arena + coo);
    }
}
