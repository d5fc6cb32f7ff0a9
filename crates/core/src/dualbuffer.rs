//! A concrete implementation of the dual sparse storage on-chip buffer
//! (§IV-B and Fig 11 of the paper).
//!
//! Where [`crate::buffer::BufferModel`] tracks element *residency*
//! abstractly for the timing model, this module implements the actual
//! storage mechanism the paper describes, with its real invariants:
//!
//! * **CSC space** — each fetched column's `(row_coord, val)` entries are
//!   stored contiguously; the whole column is freed the moment the OS core
//!   consumes it ("evicts entire column data immediately after the OS Core
//!   processes them").
//! * **CSR space with up-front reservation** — when the first converted
//!   element of a row arrives (the col-row converter flipping fetched
//!   column data), space for the row's **entire** non-zero count is
//!   reserved ("Sparsepipe determines the necessary space for each row
//!   using row_start − row_end from the CSR index array, reserving space
//!   upon receiving the first converted row data"). Because columns are
//!   fetched in ascending order, subsequent elements of the row land
//!   consecutively in the reserved region.
//! * **Consumed counters and repacking** — the IS core consumes row
//!   elements individually; a per-row consumed count beyond the threshold
//!   triggers a repack that discards fully-consumed rows and compacts the
//!   rest (§IV-D3).
//! * **OOM eviction** — under pressure, rows with the highest `row_idx`
//!   are evicted first and their data must be re-fetched when the IS
//!   stage needs it.
//!
//! The primary [`DualBuffer`] runs on a shared [`MatrixArena`]: column
//! and row payloads are arena slices, CSC residency is an epoch stamp per
//! column, and CSR residency is a [`RowSet`] bitset plus a contiguous
//! stored window `[win_lo, win_hi)` of absolute arena positions per row —
//! no per-element container traffic on the hot path. The pre-arena
//! `BTreeMap` implementation lives on, test-only, in
//! `sparsepipe_testutil::dualbuffer_oracle`; it is the oracle the
//! differential harness (`tests/dualbuffer_differential.rs`) replays
//! against, asserting identical stats and event streams.
//! DESIGN.md §11 documents the layout and the window-contiguity argument
//! that makes the flat representation exact.
//!
//! [`FusedPass::buffer`](crate::oei::FusedPass::buffer) drives this
//! structure through a full OEI pass, producing both the functional
//! result *and* a traffic trace that the tests cross-validate against
//! the abstract timing model.

use std::ops::Range;

use sparsepipe_trace::{NullSink, PipeStage, TraceEvent, TraceSink, TrafficClass, WHOLE_ROW};

use crate::arena::{MatrixArena, RowSet};

/// Bytes per stored element in the (unblocked) buffer spaces: a 4-byte
/// coordinate and an 8-byte value.
pub const ELEM_BYTES: usize = 12;

/// Statistics of one buffered pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DualBufferStats {
    /// Bytes fetched from DRAM on column demand.
    pub fetched_bytes: usize,
    /// Bytes re-fetched after an OOM eviction.
    pub refetch_bytes: usize,
    /// Peak occupancy (CSC space + CSR reservations + stored metadata).
    pub peak_bytes: usize,
    /// Rows evicted under pressure.
    pub evicted_rows: usize,
    /// Repacking passes executed.
    pub repacks: usize,
    /// CSR-space reservations made.
    pub reservations: usize,
}

/// The dual-storage buffer: CSC space + CSR space sharing one capacity,
/// backed by a [`MatrixArena`].
///
/// Residency is pure bookkeeping over the arena's immutable slice
/// tables: a resident column is `csc_epoch[col] == epoch`, a resident
/// row is a bit in [`RowSet`] plus its stored window of absolute CSR
/// positions. Consumers receive arena slices (`&'a`), so reading never
/// copies element data.
///
/// Generic over a [`TraceSink`]: the default [`NullSink`] instantiation is
/// the untraced buffer with every emission compiled out; attach a live
/// sink with [`DualBuffer::with_sink`] to observe every fetch, insert,
/// consumption, and eviction at element granularity. Event streams and
/// statistics are bit-identical to the legacy implementation's — the
/// differential suite holds both to that contract.
#[derive(Debug)]
pub struct DualBuffer<'a, S: TraceSink = NullSink> {
    arena: &'a MatrixArena,
    capacity_bytes: usize,
    repack_threshold: f64,
    /// Current pass epoch; `csc_epoch[c] == epoch` means column `c` is
    /// resident in CSC space. `0` is the never-resident sentinel.
    epoch: u32,
    csc_epoch: Vec<u32>,
    csc_bytes: usize,
    /// Rows with a live CSR-space reservation.
    reserved: RowSet,
    /// Per-row stored window: absolute arena CSR positions
    /// `[win_lo, win_hi)` currently held (valid only while reserved).
    win_lo: Vec<u32>,
    win_hi: Vec<u32>,
    /// Per-row elements the IS core has consumed (valid while reserved).
    consumed: Vec<u32>,
    /// Reserved (not merely stored) CSR bytes — reservation is what
    /// occupies space, per the paper's design.
    csr_reserved_bytes: usize,
    /// Bytes inside reservations already freed by consumption but not yet
    /// reclaimed (awaiting repack).
    fragmented_bytes: usize,
    stats: DualBufferStats,
    sink: S,
}

impl<'a> DualBuffer<'a> {
    /// Creates an untraced buffer over `arena` with the given capacity
    /// and repack threshold (fraction of occupied space that may be
    /// fragmentation before a repack triggers).
    pub fn new(arena: &'a MatrixArena, capacity_bytes: usize, repack_threshold: f64) -> Self {
        DualBuffer::with_sink(arena, capacity_bytes, repack_threshold, NullSink)
    }
}

impl<'a, S: TraceSink> DualBuffer<'a, S> {
    /// Creates a buffer that emits a [`TraceEvent`] for every fetch,
    /// insert, hit, and eviction into `sink` (pass `&mut sink` to keep
    /// ownership, or move an owned sink in and recover it with
    /// [`DualBuffer::into_sink`]).
    pub fn with_sink(
        arena: &'a MatrixArena,
        capacity_bytes: usize,
        repack_threshold: f64,
        sink: S,
    ) -> Self {
        let n = arena.n() as usize;
        DualBuffer {
            arena,
            capacity_bytes,
            repack_threshold,
            epoch: 1,
            csc_epoch: vec![0; n],
            csc_bytes: 0,
            reserved: RowSet::with_capacity(n),
            win_lo: vec![0; n],
            win_hi: vec![0; n],
            consumed: vec![0; n],
            csr_reserved_bytes: 0,
            fragmented_bytes: 0,
            stats: DualBufferStats::default(),
            sink,
        }
    }

    /// Consumes the buffer, returning its sink (e.g. to inspect a
    /// [`sparsepipe_trace::MemorySink`]'s captured events).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// The arena this buffer reads from.
    pub fn arena(&self) -> &'a MatrixArena {
        self.arena
    }

    /// Resets the buffer for a fresh pass without reallocating: bumps the
    /// CSC epoch (invalidating all column residency in O(1)), zeroes the
    /// statistics and byte counters, and asserts the CSR space drained —
    /// a completed pass consumes every reservation it makes.
    pub fn begin_pass(&mut self) {
        debug_assert!(
            self.reserved.is_empty(),
            "pass ended with live reservations"
        );
        debug_assert_eq!(self.csc_bytes, 0, "pass ended with resident columns");
        if self.epoch == u32::MAX {
            self.csc_epoch.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.reserved.clear();
        self.csc_bytes = 0;
        self.csr_reserved_bytes = 0;
        self.fragmented_bytes = 0;
        self.stats = DualBufferStats::default();
    }

    /// Current occupancy in bytes (CSC space + CSR reservations +
    /// unreclaimed fragmentation).
    pub fn occupancy_bytes(&self) -> usize {
        self.csc_bytes + self.csr_reserved_bytes + self.fragmented_bytes
    }

    /// Pass statistics so far.
    pub fn stats(&self) -> DualBufferStats {
        self.stats
    }

    fn note_peak(&mut self) {
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.occupancy_bytes());
    }

    /// Fetches column `col` from DRAM into the CSC space, and runs the
    /// col-row converter: each `(row, val)` of the arena's column slice is
    /// offered to the CSR space (the reservation size comes from the
    /// arena's CSR offsets — the "CSR index array" the paper's loader
    /// consults).
    ///
    /// Rows the IS core has already finished (`is_frontier > row`) are
    /// *not* converted — their consumer is gone; the caller applies the
    /// pending scatter directly (the deferred-IS path).
    pub fn fetch_column(&mut self, col: u32, is_frontier: u32) {
        // Copy out the `&'a` arena reference: slices borrowed through it
        // are independent of `self`, so the sink and window state stay
        // mutable inside the loop.
        let arena = self.arena;
        let (rows, _) = arena.col(col);
        let len = rows.len();
        self.stats.fetched_bytes += len * ELEM_BYTES;
        if S::ENABLED {
            self.sink.emit(TraceEvent::DramRead {
                addr: u64::from(col) * ELEM_BYTES as u64,
                bytes: (len * ELEM_BYTES) as f64,
                class: TrafficClass::CscDemand,
                step: col,
            });
        }
        self.csc_epoch[col as usize] = self.epoch;
        self.csc_bytes += len * ELEM_BYTES;
        // Arena column slices are strictly ascending, so the deferred-IS
        // rows (`row < is_frontier`, consumed by the caller directly) form
        // a contiguous prefix: one binary search replaces the per-element
        // residency branch and the converter walks only the live suffix.
        let live = rows.partition_point(|&r| r < is_frontier);
        for &row in &rows[live..] {
            if S::ENABLED {
                self.sink.emit(TraceEvent::BufferInsert {
                    row,
                    col,
                    step: col,
                    refetch: false,
                    bytes: ELEM_BYTES as f64,
                });
            }
            self.store_converted(row, col);
        }
        self.note_peak();
    }

    /// Stores one converted element into the CSR space, reserving the
    /// row's full region on first contact. Only the window bounds move:
    /// the payload already sits at its arena position.
    fn store_converted(&mut self, row: u32, col: u32) {
        let r = row as usize;
        if self.reserved.insert(row) {
            let reserved = self.arena.row_nnz(row);
            self.csr_reserved_bytes += reserved * ELEM_BYTES;
            self.stats.reservations += 1;
            self.consumed[r] = 0;
            // First contact (possibly after an eviction): locate the
            // element's absolute CSR position; the window restarts there.
            let p = self.arena.csr_position(row, col) as u32;
            self.win_lo[r] = p;
            self.win_hi[r] = p;
        }
        // Columns arrive in ascending order and every intervening element
        // of the row is stored too, so arrivals extend the window by
        // exactly one position — "allowing for consecutive and ascending
        // storage of subsequently fetched row data within its reserved
        // space".
        debug_assert_eq!(
            self.arena
                .csr_cols_at(self.win_hi[r] as usize..self.win_hi[r] as usize + 1)[0],
            col,
            "row {row}: column {col} arrived out of window order"
        );
        self.win_hi[r] += 1;
    }

    /// The OS core consumes column `col`: returns its `(rows, vals)`
    /// arena slices and frees the CSC region immediately.
    pub fn consume_column(&mut self, col: u32) -> Option<(&'a [u32], &'a [f64])> {
        if self.csc_epoch[col as usize] != self.epoch {
            return None;
        }
        self.csc_epoch[col as usize] = 0;
        let arena = self.arena;
        let (rows, vals) = arena.col(col);
        self.csc_bytes -= rows.len() * ELEM_BYTES;
        if S::ENABLED {
            for &row in rows {
                self.sink.emit(TraceEvent::BufferHit {
                    row,
                    col,
                    stage: PipeStage::Os,
                    step: col,
                });
            }
        }
        Some((rows, vals))
    }

    /// The IS core consumes all currently stored entries of `row`,
    /// returning their absolute arena CSR positions (read the payload via
    /// [`MatrixArena::csr_cols_at`]/[`MatrixArena::csr_vals_at`]).
    /// Entries that have not arrived yet (columns still to be fetched)
    /// remain the caller's responsibility (deferred path). A
    /// fully-consumed row's reservation becomes fragmentation until the
    /// next repack.
    pub fn consume_row(&mut self, row: u32) -> Range<usize> {
        if !self.reserved.contains(row) {
            return 0..0;
        }
        let r = row as usize;
        let arena = self.arena;
        let window = self.win_lo[r] as usize..self.win_hi[r] as usize;
        let taken = window.len() as u32;
        self.win_lo[r] = self.win_hi[r];
        self.consumed[r] += taken;
        if S::ENABLED {
            for &col in arena.csr_cols_at(window.clone()) {
                self.sink.emit(TraceEvent::BufferHit {
                    row,
                    col,
                    stage: PipeStage::Is,
                    step: row,
                });
            }
        }
        if self.consumed[r] as usize == self.arena.row_nnz(row) {
            let bytes = self.arena.row_nnz(row) * ELEM_BYTES;
            self.reserved.remove(row);
            self.csr_reserved_bytes -= bytes;
            self.fragmented_bytes += bytes;
        }
        self.maybe_repack();
        window
    }

    /// Marks `consumed_late` additional elements of `row` as consumed via
    /// the deferred path (they never entered the CSR space).
    pub fn consume_deferred(&mut self, row: u32, consumed_late: usize) {
        if self.reserved.contains(row) {
            let r = row as usize;
            self.consumed[r] += consumed_late as u32;
            if self.consumed[r] as usize == self.arena.row_nnz(row) {
                let bytes = self.arena.row_nnz(row) * ELEM_BYTES;
                self.reserved.remove(row);
                self.csr_reserved_bytes -= bytes;
                self.fragmented_bytes += bytes;
                self.maybe_repack();
            }
        }
    }

    fn maybe_repack(&mut self) {
        let occupied = self.occupancy_bytes();
        if self.fragmented_bytes > 0
            && (self.fragmented_bytes as f64) > self.repack_threshold * occupied as f64
        {
            // "discards fully computed sub-tensors and places remaining
            // sub-tensors in a contiguous CSR space"
            self.fragmented_bytes = 0;
            self.stats.repacks += 1;
        }
    }

    /// Enforces capacity: evicts rows with the highest `row_idx` first
    /// (never rows at or below `protect_below`, which the IS core is about
    /// to need). Returns the evicted rows; their data must be re-fetched
    /// when needed (the caller charges [`DualBufferStats::refetch_bytes`]
    /// via [`DualBuffer::charge_refetch`]).
    pub fn enforce_capacity(&mut self, protect_below: u32) -> Vec<u32> {
        let mut evicted = Vec::new();
        self.enforce_capacity_into(protect_below, &mut evicted);
        evicted
    }

    /// [`DualBuffer::enforce_capacity`] appending into a caller-reused
    /// `Vec` — the allocation-free form the pass driver loops on.
    pub fn enforce_capacity_into(&mut self, protect_below: u32, evicted: &mut Vec<u32>) {
        while self.occupancy_bytes() > self.capacity_bytes {
            // repack first if fragmentation alone can make room
            if self.fragmented_bytes > 0 {
                self.fragmented_bytes = 0;
                self.stats.repacks += 1;
                continue;
            }
            let Some(row) = self.reserved.highest() else {
                break;
            };
            if row <= protect_below {
                break;
            }
            self.reserved.remove(row);
            self.csr_reserved_bytes -= self.arena.row_nnz(row) * ELEM_BYTES;
            self.stats.evicted_rows += 1;
            if S::ENABLED {
                // The whole reservation goes at once — a row-granular
                // eviction, marked with the WHOLE_ROW column sentinel.
                self.sink.emit(TraceEvent::BufferEvict {
                    row,
                    col: WHOLE_ROW,
                    step: protect_below,
                });
            }
            evicted.push(row);
        }
    }

    /// Charges a re-fetch of `elems` elements after an eviction.
    pub fn charge_refetch(&mut self, elems: usize) {
        self.stats.refetch_bytes += elems * ELEM_BYTES;
        if S::ENABLED && elems > 0 {
            self.sink.emit(TraceEvent::DramRead {
                addr: 1 << 40,
                bytes: (elems * ELEM_BYTES) as f64,
                class: TrafficClass::Refetch,
                step: 0,
            });
        }
    }

    /// Stored (convertible) entries currently held for `row`.
    pub fn stored_row_len(&self, row: u32) -> usize {
        if self.reserved.contains(row) {
            (self.win_hi[row as usize] - self.win_lo[row as usize]) as usize
        } else {
            0
        }
    }

    /// Is a reservation present for `row`?
    pub fn has_reservation(&self, row: u32) -> bool {
        self.reserved.contains(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_tensor::CooMatrix;

    /// Arena for a hand-built matrix whose structure the tests control.
    fn arena_of(n: u32, entries: &[(u32, u32, f64)]) -> MatrixArena {
        let m = CooMatrix::from_entries(n, n, entries.to_vec()).expect("coords in range");
        MatrixArena::from_coo(&m)
    }

    #[test]
    fn column_fetch_and_conversion() {
        // column 0 holds rows 3 and 5; rows 3 and 5 have 2 elements each
        let arena = arena_of(6, &[(3, 0, 1.0), (5, 0, 2.0), (3, 4, 1.5), (5, 4, 2.5)]);
        let mut b = DualBuffer::new(&arena, 10_000, 0.5);
        b.fetch_column(0, 0);
        // CSC space holds the column; CSR space reserved both rows fully
        assert_eq!(b.occupancy_bytes(), 2 * ELEM_BYTES + 2 * 2 * ELEM_BYTES);
        assert!(b.has_reservation(3));
        assert_eq!(b.stored_row_len(3), 1);
        let (rows, vals) = b.consume_column(0).expect("column present");
        assert_eq!(rows, &[3, 5]);
        assert_eq!(vals, &[1.0, 2.0]);
        // CSC space freed immediately, double-consume yields None
        assert_eq!(b.occupancy_bytes(), 2 * 2 * ELEM_BYTES);
        assert!(b.consume_column(0).is_none());
    }

    #[test]
    fn window_tracks_ascending_arrivals_and_consume_drains() {
        // row 9 spans columns 0..4
        let arena = arena_of(10, &[(9, 0, 0.0), (9, 1, 1.0), (9, 2, 2.0), (9, 3, 3.0)]);
        let mut b = DualBuffer::new(&arena, 10_000, 0.5);
        for col in 0..4u32 {
            b.fetch_column(col, 0);
            b.consume_column(col);
        }
        assert_eq!(b.stats().reservations, 1);
        assert_eq!(b.stored_row_len(9), 4);
        let window = b.consume_row(9);
        assert_eq!(arena.csr_cols_at(window.clone()), &[0, 1, 2, 3]);
        assert_eq!(arena.csr_vals_at(window), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(b.stored_row_len(9), 0);
    }

    #[test]
    fn full_consumption_frees_reservation_via_repack() {
        let arena = arena_of(3, &[(2, 0, 1.0)]);
        let mut b = DualBuffer::new(&arena, 10_000, 0.0); // immediate repack
        b.fetch_column(0, 0);
        b.consume_column(0);
        assert!(b.has_reservation(2));
        let taken = b.consume_row(2);
        assert_eq!(taken.len(), 1);
        assert!(!b.has_reservation(2));
        assert_eq!(b.occupancy_bytes(), 0);
        assert!(b.stats().repacks >= 1);
    }

    #[test]
    fn deferred_rows_are_not_converted() {
        let arena = arena_of(9, &[(2, 7, 1.0), (8, 7, 2.0)]);
        let mut b = DualBuffer::new(&arena, 10_000, 0.5);
        // IS frontier is at row 5: rows below it defer
        b.fetch_column(7, 5);
        assert!(!b.has_reservation(2), "row below the frontier must defer");
        assert!(b.has_reservation(8));
    }

    #[test]
    fn eviction_prefers_highest_rows_and_respects_protection() {
        // col 0 → rows {1, 5, 9}, col 1 → row 3, col 2 → rows {3, 5};
        // every touched row has exactly 2 elements in total.
        let arena = arena_of(
            10,
            &[
                (1, 0, 0.1),
                (5, 0, 0.5),
                (9, 0, 0.9),
                (3, 1, 0.3),
                (3, 2, 0.33),
                (5, 2, 0.55),
                (1, 4, 0.11),
                (9, 4, 0.99),
            ],
        );
        // capacity for ~3 reservations of 2 elements
        let mut b = DualBuffer::new(&arena, 7 * ELEM_BYTES, 0.5);
        b.fetch_column(0, 0);
        b.consume_column(0);
        // 3 reservations × 2 elems = 6 elems of CSR space: fits (42 < 84)
        assert_eq!(b.enforce_capacity(0), Vec::<u32>::new());
        b.fetch_column(1, 0);
        b.consume_column(1);
        // 4 reservations = 8 elems > 7: evict highest row (9)
        let evicted = b.enforce_capacity(0);
        assert_eq!(evicted, vec![9]);
        assert!(b.has_reservation(1) && b.has_reservation(3) && b.has_reservation(5));
        // protection: nothing at or below the protect mark is evicted
        b.fetch_column(2, 0);
        b.consume_column(2);
        let evicted = b.enforce_capacity(5);
        assert!(
            evicted.is_empty(),
            "protected rows must survive: {evicted:?}"
        );
    }

    #[test]
    fn traced_eviction_and_refetch_events_match_contract() {
        use sparsepipe_trace::MemorySink;
        let arena = arena_of(7, &[(2, 0, 0.2), (6, 0, 0.6), (2, 3, 0.22), (6, 3, 0.66)]);
        let mut sink = MemorySink::new();
        {
            // room for the CSC copy plus one 2-element reservation only
            let mut b = DualBuffer::with_sink(&arena, 3 * ELEM_BYTES, 0.5, &mut sink);
            b.fetch_column(0, 0);
            b.consume_column(0);
            // Protection is below row 6, so the highest row — exactly the
            // one holding data the IS stage will need — is evicted.
            assert_eq!(b.enforce_capacity(1), vec![6]);
            // IS reaches row 6: nothing stored, the caller must re-fetch.
            assert!(b.consume_row(6).is_empty());
            b.charge_refetch(2);
            assert_eq!(b.stats().refetch_bytes, 2 * ELEM_BYTES);
            assert_eq!(b.stats().evicted_rows, 1);
        }
        let events = sink.events();
        let evict_pos = events
            .iter()
            .position(
                |e| matches!(e, TraceEvent::BufferEvict { row: 6, col, .. } if *col == WHOLE_ROW),
            )
            .expect("eviction of row 6 must carry the WHOLE_ROW sentinel");
        let refetch_pos = events
            .iter()
            .position(|e| {
                matches!(
                    e,
                    TraceEvent::DramRead {
                        class: TrafficClass::Refetch,
                        ..
                    }
                )
            })
            .expect("refetch after eviction must be traced");
        assert!(
            evict_pos < refetch_pos,
            "stream order: eviction precedes its refetch"
        );
    }

    #[test]
    fn begin_pass_resets_for_reuse_without_reallocation() {
        let arena = arena_of(4, &[(2, 0, 1.0), (3, 1, 2.0)]);
        let mut b = DualBuffer::new(&arena, 10_000, 0.5);
        for _ in 0..3 {
            b.begin_pass();
            for c in 0..4u32 {
                b.fetch_column(c, c);
                b.consume_column(c);
                let w = b.consume_row(c);
                let arrived = w.len();
                b.consume_deferred(c, arena.row_nnz(c) - arrived);
                b.enforce_capacity(c);
            }
            // per-pass stats, not accumulated
            assert_eq!(b.stats().fetched_bytes, 2 * ELEM_BYTES);
            assert_eq!(b.stats().reservations, 2);
        }
    }

    #[test]
    fn stats_accumulate() {
        let arena = arena_of(3, &[(1, 0, 1.0), (2, 0, 2.0)]);
        let mut b = DualBuffer::new(&arena, 1_000_000, 0.5);
        b.fetch_column(0, 0);
        b.charge_refetch(3);
        let s = b.stats();
        assert_eq!(s.fetched_bytes, 2 * ELEM_BYTES);
        assert_eq!(s.refetch_bytes, 3 * ELEM_BYTES);
        assert!(s.peak_bytes > 0);
    }
}
