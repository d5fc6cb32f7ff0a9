//! Barrier-driven concurrency stress for [`MatrixCache`]: counters and
//! byte accounting must stay coherent under concurrent insert + evict.
//!
//! The pre-PR-7 cache kept hit/miss counters in atomics separate from
//! the per-family maps, so a racing insert+evict pair could leave the
//! accounted bytes drifted from the resident set. The redesigned cache
//! keeps all bookkeeping behind one lock; these storms would have
//! caught the old drift and now pin the invariants:
//!
//! * every lookup increments exactly one of hits/misses;
//! * accounted bytes always equal the sum over resident slots
//!   ([`MatrixCache::audit_accounting`] recomputes under the lock);
//! * a budgeted cache's resident total never exceeds
//!   `budget + largest single artifact` at any observation point.

use std::sync::{Arc, Barrier};

use sparsepipe_core::{MatrixArena, MatrixCache, MatrixProfile, PassPlan, ReorderKind};
use sparsepipe_tensor::{gen, CooMatrix};

const THREADS: usize = 8;
const ROUNDS: usize = 60;

fn matrix_for(key: u64) -> CooMatrix {
    // distinct-but-similar matrices so eviction sizes vary a little
    gen::uniform(48, 48, 180 + (key as usize % 7) * 10, key)
}

/// Accounted bytes of an arena over `m`: a CSC and a CSR, each an (n+1)
/// u32 pointer array plus nnz u32 coordinates and f64 values. The arena
/// is the largest artifact family in these storms.
fn arena_bytes(m: &CooMatrix) -> u64 {
    2 * ((m.nrows() as usize + 1) * 4 + m.nnz() * 12) as u64
}

/// Runs `THREADS` workers in lockstep rounds against `cache`, each
/// touching a rotating window of `keyspace` keys across three artifact
/// families, and returns the total number of lookups issued.
fn storm(cache: &Arc<MatrixCache>, keyspace: u64) -> u64 {
    let barrier = Arc::new(Barrier::new(THREADS));
    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(cache);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut lookups = 0u64;
                    for round in 0..ROUNDS {
                        // all workers contend on each round together
                        barrier.wait();
                        let key = (t as u64 * 31 + round as u64) % keyspace;
                        let m = matrix_for(key);
                        let a = cache.arena(key, || MatrixArena::from_coo(&m));
                        assert_eq!(a.nnz(), m.nnz());
                        lookups += 1;
                        if round % 2 == 0 {
                            let p =
                                cache.plan(key, ReorderKind::None, 8, || PassPlan::build(&m, 8));
                            assert_eq!(p.nnz(), m.nnz());
                            lookups += 1;
                        }
                        if round % 3 == 0 {
                            cache.profile(key, ReorderKind::None, 8, || {
                                MatrixProfile::build(&PassPlan::build(&m, 8))
                            });
                            lookups += 1;
                        }
                        // interleave accounting audits with the storm so
                        // drift is caught mid-flight, not just at the end
                        if round % 16 == 7 {
                            cache.audit_accounting();
                        }
                    }
                    lookups
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    total
}

#[test]
fn unbounded_storm_keeps_counters_and_bytes_coherent() {
    let cache = Arc::new(MatrixCache::new());
    let lookups = storm(&cache, 16);
    cache.audit_accounting();
    assert_eq!(
        cache.hits() + cache.misses(),
        lookups,
        "every lookup must count exactly one hit or miss"
    );
    assert_eq!(cache.evictions(), 0, "unbounded cache must never evict");
    // 16 keys × three families (arena every round, plan on even rounds,
    // profile on every third) — all referenced keys stay resident
    assert_eq!(cache.resident_entries(), 16 * 3);
}

#[test]
fn budgeted_storm_bounds_resident_bytes_without_counter_drift() {
    // Budget ≈ a handful of artifacts: every round somebody evicts.
    let budget = 3 * arena_bytes(&matrix_for(0));
    let largest = arena_bytes(&matrix_for(6));
    let cache = Arc::new(MatrixCache::with_budget(budget));
    let lookups = storm(&cache, 16);
    cache.audit_accounting();
    assert_eq!(
        cache.hits() + cache.misses(),
        lookups,
        "every lookup must count exactly one hit or miss"
    );
    assert!(
        cache.evictions() > 0,
        "a {budget}-byte budget must force evictions in this storm"
    );
    assert!(
        cache.bytes().total() <= budget + largest,
        "resident {} exceeds budget {budget} + largest artifact {largest}",
        cache.bytes().total()
    );
    // the cache still works after the storm: a repeated key hits
    let m = matrix_for(3);
    cache.arena(99, || MatrixArena::from_coo(&m));
    let hits = cache.hits();
    cache.arena(99, || unreachable!("must hit"));
    assert_eq!(cache.hits(), hits + 1);
    cache.audit_accounting();
}

#[test]
fn concurrent_observers_see_momentary_bounds() {
    // Readers polling bytes() while writers insert+evict must never
    // observe an over-budget resident total (single-lock coherence).
    let budget = 2 * arena_bytes(&matrix_for(0));
    let largest = arena_bytes(&matrix_for(6));
    let cache = Arc::new(MatrixCache::with_budget(budget));
    std::thread::scope(|scope| {
        let writer_cache = Arc::clone(&cache);
        let writer = scope.spawn(move || {
            for round in 0..200u64 {
                let key = round % 12;
                let m = matrix_for(key);
                writer_cache.arena(key, || MatrixArena::from_coo(&m));
                if round % 2 == 0 {
                    writer_cache.plan(key, ReorderKind::None, 8, || PassPlan::build(&m, 8));
                }
            }
        });
        for _ in 0..3 {
            let reader_cache = Arc::clone(&cache);
            scope.spawn(move || {
                for _ in 0..400 {
                    let total = reader_cache.bytes().total();
                    assert!(
                        total <= budget + largest,
                        "observed resident {total} over bound {}",
                        budget + largest
                    );
                    std::hint::spin_loop();
                }
            });
        }
        writer.join().unwrap();
    });
    cache.audit_accounting();
}
