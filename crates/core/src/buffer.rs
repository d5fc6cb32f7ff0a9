//! On-chip buffer model: dual-space residency, eviction, and repacking
//! (§IV-B and §IV-D3 of the paper).
//!
//! The model tracks each matrix element's lifecycle through the buffer:
//!
//! ```text
//! NotLoaded ──load──▶ Resident ──both consumers done──▶ gone
//!                        │  ▲
//!                   evict│  │refetch
//!                        ▼  │
//!                      Evicted
//! ```
//!
//! Every element has exactly two consumers per pass: the OS core (at its
//! column's step) and the IS core (at its row's step). Space freed by
//! IS-side consumption is *fragmented* (CSR space frees element by
//! element) and only becomes reusable after a repacking pass; OS-side
//! (whole-column CSC) frees are clean.

use std::collections::VecDeque;

use crate::arena::RowSet;
use crate::config::EvictionPolicy;
use crate::invariants::{self, Consumer, InvariantViolation};

const LOADED: u8 = 0b0001;
const OS_DONE: u8 = 0b0010;
const IS_DONE: u8 = 0b0100;
const EVICTED: u8 = 0b1000;

/// Per-element buffer state machine plus occupancy accounting.
///
/// Preconditions (no double load, consume only resident elements) are
/// checked by the [`crate::invariants`] shadow checker: always in debug
/// builds, and in release builds too when built
/// [`with_validation`](BufferModel::with_validation).
#[derive(Debug)]
pub struct BufferModel {
    pub(crate) state: Vec<u8>,
    /// Resident element ids (row-major ids, so larger id = larger row),
    /// on the same bitset the dual buffer's residency runs on.
    pub(crate) resident: RowSet,
    /// Load order, for the `OldestFirst` ablation policy.
    load_order: VecDeque<u32>,
    pub(crate) policy: EvictionPolicy,
    pub(crate) elem_bytes: f64,
    pub(crate) capacity_bytes: f64,
    pub(crate) resident_bytes: f64,
    pub(crate) fragmented_bytes: f64,
    repack_threshold: f64,
    evicted_elements: u64,
    repack_events: u64,
    peak_bytes: f64,
    /// Enforce invariants in release builds too (the shadow checker).
    validate: bool,
}

impl BufferModel {
    /// Creates a buffer model for `nnz` elements.
    pub fn new(
        nnz: usize,
        elem_bytes: f64,
        capacity_bytes: f64,
        repack_threshold: f64,
        policy: EvictionPolicy,
    ) -> Self {
        BufferModel {
            state: vec![0; nnz],
            resident: RowSet::with_capacity(nnz),
            load_order: VecDeque::new(),
            policy,
            elem_bytes,
            capacity_bytes,
            resident_bytes: 0.0,
            fragmented_bytes: 0.0,
            repack_threshold,
            evicted_elements: 0,
            repack_events: 0,
            peak_bytes: 0.0,
            validate: false,
        }
    }

    /// Returns a copy enforcing the [`crate::invariants`] checks even in
    /// release builds (debug builds always enforce them).
    #[must_use]
    pub fn with_validation(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// Panics on a violated invariant when checking is active: always in
    /// debug builds (replacing the former ad-hoc `debug_assert!`s), and in
    /// release builds when validation is on.
    #[inline]
    fn enforce(&self, check: Result<(), InvariantViolation>) {
        if self.validate || cfg!(debug_assertions) {
            if let Err(v) = check {
                panic!("sparsepipe buffer invariant violated: {v}");
            }
        }
    }

    /// Is the element currently resident?
    pub fn is_resident(&self, e: u32) -> bool {
        let s = self.state[e as usize];
        s & LOADED != 0 && s & EVICTED == 0
    }

    /// Was the element loaded once and then evicted before full
    /// consumption?
    pub fn is_evicted(&self, e: u32) -> bool {
        self.state[e as usize] & EVICTED != 0
    }

    /// Has the element never been brought on chip (nor evicted)?
    pub fn is_unloaded(&self, e: u32) -> bool {
        self.state[e as usize] & (LOADED | EVICTED) == 0
    }

    /// Has the IS core consumed this element?
    pub fn is_done(&self, e: u32) -> bool {
        self.state[e as usize] & IS_DONE != 0
    }

    /// Brings an element on chip (a demand fetch or prefetch). Returns
    /// `true` if this was a *refetch* of previously evicted data.
    ///
    /// # Panics
    ///
    /// When checking is active (debug builds, or
    /// [`with_validation`](BufferModel::with_validation)), panics if the
    /// element is already resident ([`invariants::check_load`]).
    pub fn load(&mut self, e: u32) -> bool {
        self.enforce(invariants::check_load(self, e));
        let refetch = self.state[e as usize] & EVICTED != 0;
        self.state[e as usize] = (self.state[e as usize] & !EVICTED) | LOADED;
        self.resident.insert(e);
        if self.policy == EvictionPolicy::OldestFirst {
            self.load_order.push_back(e);
        }
        self.resident_bytes += self.elem_bytes;
        self.peak_bytes = self.peak_bytes.max(self.occupancy_bytes());
        refetch
    }

    /// Marks the OS consumption of a resident element; frees it if the IS
    /// core is already done (clean CSC-side free).
    pub fn consume_os(&mut self, e: u32) {
        self.enforce(invariants::check_consume(self, e, Consumer::Os));
        self.state[e as usize] |= OS_DONE;
        if self.state[e as usize] & IS_DONE != 0 {
            self.free(e, false);
        }
    }

    /// Marks the IS consumption of a resident element; frees it if the OS
    /// core is already done (fragmenting CSR-side free).
    pub fn consume_is(&mut self, e: u32) {
        self.enforce(invariants::check_consume(self, e, Consumer::Is));
        self.state[e as usize] |= IS_DONE;
        if self.state[e as usize] & OS_DONE != 0 {
            self.free(e, true);
        }
    }

    fn free(&mut self, e: u32, via_is: bool) {
        self.state[e as usize] &= !LOADED;
        self.resident.remove(e);
        self.resident_bytes -= self.elem_bytes;
        if via_is {
            // CSR space frees one element inside a packed row: the hole is
            // unusable until repacking.
            self.fragmented_bytes += self.elem_bytes;
        }
    }

    /// Occupied bytes: live data plus unreclaimed fragmentation.
    pub fn occupancy_bytes(&self) -> f64 {
        self.resident_bytes + self.fragmented_bytes
    }

    /// Free space available for new loads, after reserving
    /// `reserved_bytes` (the dense-vector working set sharing the buffer).
    pub fn headroom_bytes(&self, reserved_bytes: f64) -> f64 {
        (self.capacity_bytes - reserved_bytes - self.occupancy_bytes()).max(0.0)
    }

    /// Evicts resident elements until occupancy (plus `reserved_bytes`)
    /// fits the capacity. Runs a repack first if fragmentation alone can
    /// make room. Returns the number of elements evicted.
    pub fn enforce_capacity(&mut self, reserved_bytes: f64) -> u64 {
        self.enforce_capacity_with(reserved_bytes, |_| {})
    }

    /// Like [`BufferModel::enforce_capacity`], but reports each victim's
    /// element id through `on_evict` — the hook the tracing layer uses to
    /// emit `BufferEvict` events without burdening the untraced path.
    pub fn enforce_capacity_with(
        &mut self,
        reserved_bytes: f64,
        mut on_evict: impl FnMut(u32),
    ) -> u64 {
        let budget = (self.capacity_bytes - reserved_bytes).max(0.0);
        if self.occupancy_bytes() > budget && self.fragmented_bytes > 0.0 {
            self.repack();
        }
        let mut evicted = 0u64;
        while self.occupancy_bytes() > budget {
            let victim = match self.policy {
                EvictionPolicy::HighestRowFirst => self.resident.highest(),
                EvictionPolicy::OldestFirst => loop {
                    match self.load_order.pop_front() {
                        Some(e) if self.is_resident(e) => break Some(e),
                        Some(_) => {}
                        None => break None,
                    }
                },
            };
            let Some(victim) = victim else { break };
            self.enforce(invariants::check_eviction_order(self, victim));
            self.resident.remove(victim);
            self.resident_bytes -= self.elem_bytes;
            self.state[victim as usize] = (self.state[victim as usize] & !LOADED) | EVICTED;
            self.evicted_elements += 1;
            evicted += 1;
            on_evict(victim);
        }
        evicted
    }

    /// Triggers a repack if fragmentation exceeds the threshold fraction
    /// of the occupied space (§IV-D3: "upon surpassing a predetermined
    /// threshold of total consumed elements, the controller initiates a
    /// buffer repacking process"). Returns the bytes compacted (moved),
    /// for cycle/energy accounting.
    pub fn maybe_repack(&mut self) -> f64 {
        let occupied = self.resident_bytes + self.fragmented_bytes;
        if self.fragmented_bytes >= self.elem_bytes
            && self.fragmented_bytes > self.repack_threshold * occupied
        {
            self.repack()
        } else {
            0.0
        }
    }

    fn repack(&mut self) -> f64 {
        let moved = self.resident_bytes;
        self.fragmented_bytes = 0.0;
        self.repack_events += 1;
        moved
    }

    /// Total elements evicted so far.
    pub fn evicted_elements(&self) -> u64 {
        self.evicted_elements
    }

    /// Total repack events so far.
    pub fn repack_events(&self) -> u64 {
        self.repack_events
    }

    /// Peak occupancy observed.
    pub fn peak_bytes(&self) -> f64 {
        self.peak_bytes
    }

    /// Count of currently resident elements.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(nnz: usize, cap: f64) -> BufferModel {
        BufferModel::new(nnz, 10.0, cap, 0.5, EvictionPolicy::HighestRowFirst)
    }

    #[test]
    fn lifecycle_load_consume_free() {
        let mut b = model(4, 1000.0);
        assert!(b.is_unloaded(0));
        assert!(!b.load(0));
        assert!(b.is_resident(0));
        assert_eq!(b.occupancy_bytes(), 10.0);
        b.consume_os(0);
        assert!(b.is_resident(0), "still awaiting IS");
        b.consume_is(0);
        assert!(!b.is_resident(0));
        // IS-last free fragments until a repack reclaims it
        assert_eq!(b.occupancy_bytes(), 10.0);
        b.maybe_repack();
        assert_eq!(b.occupancy_bytes(), 0.0, "repack reclaims the hole");
    }

    #[test]
    fn os_last_free_is_clean() {
        let mut b = model(2, 1000.0);
        b.load(0);
        b.consume_is(0); // prefetched row data consumed by IS first
        assert!(b.is_resident(0));
        b.consume_os(0); // CSC-side free: whole column evicted cleanly
        assert_eq!(b.occupancy_bytes(), 0.0);
    }

    #[test]
    fn eviction_prefers_highest_row() {
        let mut b = model(10, 45.0); // fits 4 elements
        for e in 0..5 {
            b.load(e);
        }
        assert!(b.occupancy_bytes() > 45.0);
        let evicted = b.enforce_capacity(0.0);
        assert_eq!(evicted, 1);
        assert!(b.is_evicted(4), "highest id (row) evicted first");
        assert!(b.is_resident(0));
    }

    #[test]
    fn enforce_capacity_with_reports_each_victim() {
        let mut b = model(10, 45.0); // fits 4 elements
        for e in 0..7 {
            b.load(e);
        }
        let mut victims = Vec::new();
        let evicted = b.enforce_capacity_with(0.0, |e| victims.push(e));
        assert_eq!(evicted as usize, victims.len());
        assert_eq!(victims, vec![6, 5, 4], "highest rows first, in order");
        for &v in &victims {
            assert!(b.is_evicted(v));
        }
    }

    #[test]
    fn refetch_is_detected() {
        let mut b = model(2, 15.0);
        b.load(0);
        b.load(1);
        b.enforce_capacity(0.0);
        assert!(b.is_evicted(1));
        assert!(b.load(1), "reloading evicted data is a refetch");
        assert!(b.is_resident(1));
    }

    #[test]
    fn repack_reclaims_fragmentation() {
        let mut b = BufferModel::new(10, 10.0, 100.0, 0.3, EvictionPolicy::HighestRowFirst);
        for e in 0..5 {
            b.load(e);
            b.consume_os(e);
            b.consume_is(e); // fragments 10 bytes each
        }
        assert_eq!(b.occupancy_bytes(), 50.0);
        let moved = b.maybe_repack();
        assert_eq!(moved, 0.0, "nothing resident to move");
        assert_eq!(b.occupancy_bytes(), 0.0);
        assert_eq!(b.repack_events(), 1);
    }

    #[test]
    fn enforce_capacity_repacks_before_evicting() {
        let mut b = model(10, 50.0);
        for e in 0..3 {
            b.load(e);
            b.consume_os(e);
            b.consume_is(e);
        }
        // 30 fragmented bytes; load 3 more (30 resident)
        for e in 3..6 {
            b.load(e);
        }
        assert_eq!(b.occupancy_bytes(), 60.0);
        let evicted = b.enforce_capacity(0.0);
        assert_eq!(evicted, 0, "repacking made room without eviction");
        assert_eq!(b.occupancy_bytes(), 30.0);
    }

    #[test]
    fn reserved_bytes_shrink_capacity() {
        let mut b = model(4, 100.0);
        b.load(0);
        b.load(1);
        assert_eq!(b.headroom_bytes(0.0), 80.0);
        assert_eq!(b.headroom_bytes(70.0), 10.0);
        let evicted = b.enforce_capacity(85.0);
        assert_eq!(evicted, 1);
    }

    #[test]
    fn oldest_first_policy() {
        let mut b = BufferModel::new(5, 10.0, 25.0, 0.5, EvictionPolicy::OldestFirst);
        b.load(3);
        b.load(0);
        b.load(1);
        b.enforce_capacity(0.0);
        assert!(b.is_evicted(3), "first-loaded evicted first");
        assert!(b.is_resident(0));
    }
}
