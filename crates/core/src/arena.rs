//! Flat per-matrix slice tables ("arena") backing the fast dual-buffer
//! model, plus the bitset residency set shared with the timing-model
//! buffer.
//!
//! The arena precomputes, once per matrix, everything the simulators
//! repeatedly re-derive: the CSC column slices, the CSR row slices, and
//! their offset tables — all in contiguous `Vec`s (`u32` offsets, `u32`
//! coordinates, `f64` values). The mechanism-level
//! [`crate::dualbuffer::DualBuffer`] then never allocates on its hot
//! path: a fetched column *is* an arena slice, a stored row is a window
//! `[win_lo, win_hi)` into the row's arena slice, and residency is a
//! [`RowSet`] bitset plus epoch stamps instead of `BTreeMap`
//! insert/remove. See DESIGN.md §11.

use sparsepipe_tensor::{CooMatrix, CscMatrix, CsrMatrix};

use crate::CoreError;

/// Precomputed CSC + CSR slice tables for one square matrix.
///
/// Offsets are `u32` positions into the coordinate/value arrays (the
/// simulator's matrices stay far below `u32::MAX` non-zeros). Build it
/// once — directly from a [`CooMatrix`], or from already-derived
/// [`CscMatrix`]/[`CsrMatrix`] pair — and share it via
/// [`crate::MatrixCache`] or an `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixArena {
    n: u32,
    /// CSC column offsets, length `n + 1`.
    csc_ptr: Vec<u32>,
    /// Row coordinate of each element, in CSC (column-major) order.
    csc_rows: Vec<u32>,
    /// Value of each element, in CSC order.
    csc_vals: Vec<f64>,
    /// CSR row offsets, length `n + 1`.
    csr_ptr: Vec<u32>,
    /// Column coordinate of each element, in CSR (row-major) order.
    csr_cols: Vec<u32>,
    /// Value of each element, in CSR order.
    csr_vals: Vec<f64>,
}

impl MatrixArena {
    /// Builds the arena from a COO matrix (one CSC and one CSR
    /// derivation; the matrix must be square).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or has `u32::MAX` or more
    /// non-zeros.
    pub fn from_coo(m: &CooMatrix) -> Self {
        Self::from_parts(&m.to_csc(), &m.to_csr())
    }

    /// Builds the arena from already-derived CSC/CSR forms of the same
    /// square matrix (cheaper than [`MatrixArena::from_coo`] when the
    /// caller holds both).
    ///
    /// # Panics
    ///
    /// Panics if the two forms disagree in shape, the matrix is not
    /// square, or it has `u32::MAX` or more non-zeros.
    pub fn from_parts(csc: &CscMatrix, csr: &CsrMatrix) -> Self {
        assert_eq!(csc.nrows(), csc.ncols(), "arena matrices must be square");
        assert_eq!(csc.nrows(), csr.nrows(), "csc/csr shape mismatch");
        assert_eq!(csc.nnz(), csr.nnz(), "csc/csr nnz mismatch");
        assert!(
            csc.nnz() < u32::MAX as usize,
            "arena offsets are u32: nnz {} too large",
            csc.nnz()
        );
        let narrow = |ptr: &[usize]| ptr.iter().map(|&p| p as u32).collect();
        MatrixArena {
            n: csc.ncols(),
            csc_ptr: narrow(csc.col_ptr()),
            csc_rows: csc.row_idx().to_vec(),
            csc_vals: csc.vals().to_vec(),
            csr_ptr: narrow(csr.row_ptr()),
            csr_cols: csr.col_idx().to_vec(),
            csr_vals: csr.vals().to_vec(),
        }
    }

    /// Builds the arena directly from its six raw arrays (the binary
    /// slab loader's entry point, see [`crate::slab`]). The parts are
    /// fully validated — offset monotonicity, coordinate bounds, sorted
    /// strictly-ascending slices, and CSC/CSR element agreement — so a
    /// corrupt or hand-crafted slab cannot construct an arena whose
    /// accessors would later panic or return wrong slices.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArena`] naming the violated invariant.
    #[allow(clippy::too_many_lines)]
    pub fn from_raw_parts(
        n: u32,
        csc_ptr: Vec<u32>,
        csc_rows: Vec<u32>,
        csc_vals: Vec<f64>,
        csr_ptr: Vec<u32>,
        csr_cols: Vec<u32>,
        csr_vals: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let arena = MatrixArena {
            n,
            csc_ptr,
            csc_rows,
            csc_vals,
            csr_ptr,
            csr_cols,
            csr_vals,
        };
        arena.check()?;
        Ok(arena)
    }

    /// The structural invariants [`MatrixArena::from_raw_parts`] checks.
    fn check(&self) -> Result<(), CoreError> {
        let MatrixArena {
            n,
            csc_ptr,
            csc_rows,
            csc_vals,
            csr_ptr,
            csr_cols,
            csr_vals,
        } = self;
        let n = *n;
        let fail = |context: String| CoreError::InvalidArena { context };
        let nnz = csc_rows.len();
        if nnz >= u32::MAX as usize {
            return Err(fail(format!("nnz {nnz} overflows u32 offsets")));
        }
        if csc_vals.len() != nnz || csr_cols.len() != nnz || csr_vals.len() != nnz {
            return Err(fail(format!(
                "array lengths disagree: csc {}x{}, csr {}x{}",
                csc_rows.len(),
                csc_vals.len(),
                csr_cols.len(),
                csr_vals.len()
            )));
        }
        let check_ptr = |name: &str, ptr: &[u32]| -> Result<(), CoreError> {
            if ptr.len() != n as usize + 1 {
                return Err(fail(format!(
                    "{name} has {} offsets for dimension {n} (want n + 1)",
                    ptr.len()
                )));
            }
            if ptr[0] != 0 || ptr[n as usize] as usize != nnz {
                return Err(fail(format!(
                    "{name} must span [0, {nnz}], got [{}, {}]",
                    ptr[0], ptr[n as usize]
                )));
            }
            if ptr.windows(2).any(|w| w[0] > w[1]) {
                return Err(fail(format!("{name} offsets are not monotone")));
            }
            Ok(())
        };
        check_ptr("csc_ptr", csc_ptr)?;
        check_ptr("csr_ptr", csr_ptr)?;
        let check_coords = |name: &str, ptr: &[u32], coords: &[u32]| -> Result<(), CoreError> {
            for s in 0..n as usize {
                let slice = &coords[ptr[s] as usize..ptr[s + 1] as usize];
                if slice.iter().any(|&x| x >= n) {
                    return Err(fail(format!("{name} slice {s} has a coordinate >= {n}")));
                }
                if slice.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(fail(format!(
                        "{name} slice {s} is not strictly ascending (unsorted or duplicate)"
                    )));
                }
            }
            Ok(())
        };
        check_coords("csc_rows", csc_ptr, csc_rows)?;
        check_coords("csr_cols", csr_ptr, csr_cols)?;
        // CSC/CSR must describe the same matrix: walking the CSC form in
        // row-major order must reproduce the CSR arrays exactly.
        let mut cursor: Vec<u32> = csr_ptr[..n as usize].to_vec();
        for c in 0..n as usize {
            for i in csc_ptr[c] as usize..csc_ptr[c + 1] as usize {
                let r = csc_rows[i] as usize;
                let p = cursor[r] as usize;
                if p >= csr_ptr[r + 1] as usize
                    || csr_cols[p] != c as u32
                    || csr_vals[p].to_bits() != csc_vals[i].to_bits()
                {
                    return Err(fail(format!("csc and csr disagree at element ({r}, {c})")));
                }
                cursor[r] += 1;
            }
        }
        Ok(())
    }

    /// Matrix dimension (square).
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Non-zero count.
    pub fn nnz(&self) -> usize {
        self.csc_rows.len()
    }

    /// Column `c` as `(row_coords, values)` slices in ascending row
    /// order.
    pub fn col(&self, c: u32) -> (&[u32], &[f64]) {
        let lo = self.csc_ptr[c as usize] as usize;
        let hi = self.csc_ptr[c as usize + 1] as usize;
        (&self.csc_rows[lo..hi], &self.csc_vals[lo..hi])
    }

    /// Row `r` as `(col_coords, values)` slices in ascending column
    /// order.
    pub fn row(&self, r: u32) -> (&[u32], &[f64]) {
        let (lo, hi) = self.row_range(r);
        (&self.csr_cols[lo..hi], &self.csr_vals[lo..hi])
    }

    /// Row `r`'s absolute position range in the CSR coordinate/value
    /// arrays.
    pub fn row_range(&self, r: u32) -> (usize, usize) {
        (
            self.csr_ptr[r as usize] as usize,
            self.csr_ptr[r as usize + 1] as usize,
        )
    }

    /// Non-zeros of row `r`.
    pub fn row_nnz(&self, r: u32) -> usize {
        (self.csr_ptr[r as usize + 1] - self.csr_ptr[r as usize]) as usize
    }

    /// Non-zeros of column `c`.
    pub fn col_nnz(&self, c: u32) -> usize {
        (self.csc_ptr[c as usize + 1] - self.csc_ptr[c as usize]) as usize
    }

    /// Column coordinates of the CSR array positions `range` (an
    /// absolute window returned by the dual buffer).
    pub fn csr_cols_at(&self, range: std::ops::Range<usize>) -> &[u32] {
        &self.csr_cols[range]
    }

    /// Values of the CSR array positions `range`.
    pub fn csr_vals_at(&self, range: std::ops::Range<usize>) -> &[f64] {
        &self.csr_vals[range]
    }

    /// Absolute CSR position of column `col` within row `r`'s slice.
    /// `col` must be present in the row (the element exists).
    pub(crate) fn csr_position(&self, r: u32, col: u32) -> usize {
        let (lo, hi) = self.row_range(r);
        let cols = &self.csr_cols[lo..hi];
        lo + cols.partition_point(|&c| c < col)
    }

    /// The raw CSC column-offset table (length `n + 1`). The six raw
    /// accessors exist for serializers (the slab writer) and external
    /// checkers; simulator code uses the slice accessors above.
    pub fn csc_ptr(&self) -> &[u32] {
        &self.csc_ptr
    }

    /// The raw CSC row-coordinate array (column-major element order).
    pub fn csc_rows(&self) -> &[u32] {
        &self.csc_rows
    }

    /// The raw CSC value array (column-major element order).
    pub fn csc_vals(&self) -> &[f64] {
        &self.csc_vals
    }

    /// The raw CSR row-offset table (length `n + 1`).
    pub fn csr_ptr(&self) -> &[u32] {
        &self.csr_ptr
    }

    /// The raw CSR column-coordinate array (row-major element order).
    pub fn csr_cols(&self) -> &[u32] {
        &self.csr_cols
    }

    /// The raw CSR value array (row-major element order).
    pub fn csr_vals(&self) -> &[f64] {
        &self.csr_vals
    }

    /// Reconstructs the COO triplet list (row-major order, the same
    /// entry order [`CooMatrix::entries`] maintains) — the bridge from a
    /// slab-loaded arena back to the `CooMatrix`-typed dataset pipeline.
    pub fn to_coo(&self) -> CooMatrix {
        let mut entries = Vec::with_capacity(self.nnz());
        for r in 0..self.n {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                entries.push((r, c, v));
            }
        }
        CooMatrix::from_entries(self.n, self.n, entries)
            .expect("arena coordinates are validated in range")
    }
}

/// Chunked two-pass [`MatrixArena`] construction for out-of-core inputs.
///
/// [`MatrixArena::from_coo`] needs the whole triplet list plus derived
/// CSC *and* CSR images live at once — roughly 3× the final arena
/// footprint. The builder instead ingests a stream of entries twice
/// (counting pass, then placement pass — re-streaming a file costs one
/// extra sequential read) and never holds more than the final arrays
/// plus `O(n)` cursors, so building a 10M-nnz arena stays within ~1.2×
/// of the serialized slab size:
///
/// ```
/// use sparsepipe_core::ArenaBuilder;
/// let entries = [(1u32, 0u32, 2.0f64), (0, 1, 3.0), (1, 1, -1.0)];
/// let mut b = ArenaBuilder::new(2);
/// for &(r, c, _) in &entries {
///     b.count(r, c)?;
/// }
/// b.start_placement()?;
/// for &(r, c, v) in &entries {
///     b.place(r, c, v)?;
/// }
/// let arena = b.finish()?;
/// assert_eq!(arena.nnz(), 3);
/// assert_eq!(arena.row(1), (&[0u32, 1][..], &[2.0, -1.0][..]));
/// # Ok::<(), sparsepipe_core::CoreError>(())
/// ```
///
/// Duplicate coordinates merge by addition in input order, matching
/// [`CooMatrix::from_entries`]'s semantics for already-sorted input.
/// The two passes must present the same entries in the same order; the
/// placement pass re-checks the counts and fails otherwise.
///
/// Placement follows the input's own order. The counting pass counts
/// per row and per column and notes whether the rows never decrease; if
/// so, entries are placed row by row (CSR-major, sequential writes for a
/// row-sorted file such as [`sparsepipe_tensor::mm::write`] emits) and
/// [`ArenaBuilder::finish`] derives the CSC side, otherwise column by
/// column (sequential for column-sorted SuiteSparse exports) and `finish`
/// derives CSR. Both are one code path under a transpose, and the arena
/// is the same either way.
#[derive(Debug)]
pub struct ArenaBuilder {
    n: u32,
    /// Counting pass: per-column counts at `[c + 1]`.
    col_counts: Vec<u32>,
    /// Counting pass: per-row counts at `[r + 1]`.
    row_counts: Vec<u32>,
    /// Row of the last counted entry.
    last_row: u32,
    /// Every counted entry's row is at least its predecessor's; fixed
    /// once placement starts, it selects row-major (CSR) placement.
    by_row: bool,
    /// Placement pass: the offset table of the major orientation.
    ptr: Vec<u32>,
    /// Per-slice write cursors during placement.
    cursor: Vec<u32>,
    /// Minor coordinate of each placed element.
    minor: Vec<u32>,
    vals: Vec<f64>,
    counted: u64,
    placed: usize,
    placing: bool,
}

/// One orientation of the arena: offsets, coordinates, values.
type Side = (Vec<u32>, Vec<u32>, Vec<f64>);

impl ArenaBuilder {
    /// A builder for a square `n × n` matrix, in the counting pass.
    pub fn new(n: u32) -> Self {
        ArenaBuilder {
            n,
            col_counts: vec![0; n as usize + 1],
            row_counts: vec![0; n as usize + 1],
            last_row: 0,
            by_row: true,
            ptr: Vec::new(),
            cursor: Vec::new(),
            minor: Vec::new(),
            vals: Vec::new(),
            counted: 0,
            placed: 0,
            placing: false,
        }
    }

    fn check_coords(&self, r: u32, c: u32) -> Result<(), CoreError> {
        if r >= self.n || c >= self.n {
            return Err(CoreError::InvalidArena {
                context: format!("entry ({r}, {c}) outside the {0}x{0} shape", self.n),
            });
        }
        Ok(())
    }

    /// Counting pass: registers one entry's coordinates.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArena`] for out-of-shape coordinates, a
    /// builder already in its placement pass, or a `u32` offset
    /// overflow.
    pub fn count(&mut self, r: u32, c: u32) -> Result<(), CoreError> {
        if self.placing {
            return Err(CoreError::InvalidArena {
                context: "count() after start_placement()".into(),
            });
        }
        self.check_coords(r, c)?;
        self.counted += 1;
        if self.counted >= u64::from(u32::MAX) {
            return Err(CoreError::InvalidArena {
                context: format!("nnz {} overflows u32 offsets", self.counted),
            });
        }
        self.col_counts[c as usize + 1] += 1;
        self.row_counts[r as usize + 1] += 1;
        self.by_row &= r >= self.last_row;
        self.last_row = r;
        Ok(())
    }

    /// Ends the counting pass: picks the placement orientation,
    /// prefix-sums its counts and allocates the element arrays (the
    /// single large allocation of the placement pass).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArena`] if placement already started.
    pub fn start_placement(&mut self) -> Result<(), CoreError> {
        if self.placing {
            return Err(CoreError::InvalidArena {
                context: "start_placement() called twice".into(),
            });
        }
        let (major, other) = if self.by_row {
            (&mut self.row_counts, &mut self.col_counts)
        } else {
            (&mut self.col_counts, &mut self.row_counts)
        };
        self.ptr = std::mem::take(major);
        *other = Vec::new();
        for i in 0..self.n as usize {
            self.ptr[i + 1] += self.ptr[i];
        }
        self.cursor = self.ptr[..self.n as usize].to_vec();
        let nnz = self.counted as usize;
        self.minor = vec![0; nnz];
        self.vals = vec![0.0; nnz];
        self.placing = true;
        Ok(())
    }

    /// Placement pass: stores one entry (same stream, same order as the
    /// counting pass).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArena`] if the entry overflows its row's or
    /// column's counted size or the builder is still in the counting
    /// pass.
    pub fn place(&mut self, r: u32, c: u32, v: f64) -> Result<(), CoreError> {
        if !self.placing {
            return Err(CoreError::InvalidArena {
                context: "place() before start_placement()".into(),
            });
        }
        self.check_coords(r, c)?;
        let (major, minor) = if self.by_row { (r, c) } else { (c, r) };
        let idx = self.cursor[major as usize] as usize;
        if idx >= self.ptr[major as usize + 1] as usize {
            let what = if self.by_row { "row" } else { "column" };
            return Err(CoreError::InvalidArena {
                context: format!("{what} {major} received more entries than counted"),
            });
        }
        self.minor[idx] = minor;
        self.vals[idx] = v;
        self.cursor[major as usize] += 1;
        self.placed += 1;
        Ok(())
    }

    /// Finishes the build: per-slice sort of the placed orientation
    /// (skipped for the common already-sorted case), duplicate merge by
    /// addition in input order, and derivation of the other orientation.
    /// The result is a valid arena by construction — `place` bounds every
    /// coordinate and slice, and the placed count equals the counted one,
    /// so every slice is exactly full — so the O(nnz) structural check of
    /// [`MatrixArena::from_raw_parts`] runs in debug builds only.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArena`] if the placement pass delivered a
    /// different entry stream than the counting pass.
    pub fn finish(self) -> Result<MatrixArena, CoreError> {
        if !self.placing {
            return Err(CoreError::InvalidArena {
                context: "finish() before start_placement()".into(),
            });
        }
        if self.placed as u64 != self.counted {
            return Err(CoreError::InvalidArena {
                context: format!(
                    "placement pass delivered {} entries, counting pass saw {}",
                    self.placed, self.counted
                ),
            });
        }
        let placed = merge_slices(self.n as usize, &self.ptr, self.minor, self.vals);
        let derived = transpose(self.n as usize, &placed);
        let ((csc_ptr, csc_rows, csc_vals), (csr_ptr, csr_cols, csr_vals)) = if self.by_row {
            (derived, placed)
        } else {
            (placed, derived)
        };
        let arena = MatrixArena {
            n: self.n,
            csc_ptr,
            csc_rows,
            csc_vals,
            csr_ptr,
            csr_cols,
            csr_vals,
        };
        debug_assert_eq!(arena.check().map_err(|e| e.to_string()), Ok(()));
        Ok(arena)
    }
}

/// Sorts each slice `ptr[s]..ptr[s + 1]` by minor coordinate and merges
/// duplicates by addition, compacting in place. File order is kept among
/// equal coordinates (stable sort) so duplicates sum in input order, like
/// `CooMatrix::from_entries` on sorted input. Input in the placement
/// orientation's own order is already sorted, so the scratch sort
/// usually never runs.
fn merge_slices(n: usize, ptr: &[u32], mut minor: Vec<u32>, mut vals: Vec<f64>) -> Side {
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    for s in 0..n {
        let (lo, hi) = (ptr[s] as usize, ptr[s + 1] as usize);
        if minor[lo..hi].windows(2).all(|w| w[0] < w[1]) {
            continue;
        }
        scratch.clear();
        scratch.extend(
            minor[lo..hi]
                .iter()
                .copied()
                .zip(vals[lo..hi].iter().copied()),
        );
        scratch.sort_by_key(|&(m, _)| m);
        for (i, &(m, v)) in scratch.iter().enumerate() {
            minor[lo + i] = m;
            vals[lo + i] = v;
        }
    }
    let mut write = 0usize;
    let mut new_ptr = vec![0u32; n + 1];
    for s in 0..n {
        let (lo, hi) = (ptr[s] as usize, ptr[s + 1] as usize);
        let mut i = lo;
        while i < hi {
            let m = minor[i];
            let mut v = vals[i];
            i += 1;
            while i < hi && minor[i] == m {
                v += vals[i];
                i += 1;
            }
            minor[write] = m;
            vals[write] = v;
            write += 1;
        }
        new_ptr[s + 1] = write as u32;
    }
    minor.truncate(write);
    vals.truncate(write);
    (new_ptr, minor, vals)
}

/// The other orientation of `side`, by a counting pass. Visiting major
/// slices in ascending order lands each derived slice's elements in
/// ascending order, so the derived slices come out sorted.
fn transpose(n: usize, (ptr, minor, vals): &Side) -> Side {
    let mut t_ptr = vec![0u32; n + 1];
    for &m in minor {
        t_ptr[m as usize + 1] += 1;
    }
    for i in 0..n {
        t_ptr[i + 1] += t_ptr[i];
    }
    let mut cursor: Vec<u32> = t_ptr[..n].to_vec();
    let mut t_minor = vec![0u32; minor.len()];
    let mut t_vals = vec![0.0f64; minor.len()];
    for s in 0..n {
        for i in ptr[s] as usize..ptr[s + 1] as usize {
            let m = minor[i] as usize;
            let p = cursor[m] as usize;
            t_minor[p] = s as u32;
            t_vals[p] = vals[i];
            cursor[m] += 1;
        }
    }
    (t_ptr, t_minor, t_vals)
}

/// A fixed-capacity set of `u32` ids on a `u64`-word bitset, with the
/// operations the buffer models need: O(1) insert/remove/contains, a
/// running length, and an amortized-O(1) `highest()` for
/// highest-row-first eviction (a downward word scan from a monotone
/// hint).
///
/// Replaces the `BTreeSet<u32>` residency sets: membership flips are a
/// word OR/AND instead of tree rebalancing, and the iteration order the
/// timing model relies on (highest element first for eviction) is a
/// leading-zeros scan.
#[derive(Debug, Clone, Default)]
pub struct RowSet {
    words: Vec<u64>,
    len: usize,
    /// Highest word index that may contain a set bit. Monotone under
    /// inserts; `highest()` walks it back down past cleared words.
    hint: usize,
}

impl RowSet {
    /// An empty set able to hold ids `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        RowSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
            hint: 0,
        }
    }

    /// Inserts `id`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.len += 1;
        self.hint = self.hint.max(w);
        true
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        if self.words[w] & mask == 0 {
            return false;
        }
        self.words[w] &= !mask;
        self.len -= 1;
        true
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        w < self.words.len() && self.words[w] & (1u64 << b) != 0
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest id in the set, scanning down from the hint word —
    /// the bitset equivalent of `BTreeSet::iter().next_back()`. Also
    /// walks the hint down past cleared words (amortizing later calls).
    pub fn highest(&mut self) -> Option<u32> {
        let top = self.peek_highest();
        if let Some(id) = top {
            self.hint = id as usize / 64;
        }
        top
    }

    /// Non-mutating [`RowSet::highest`]: the same downward scan without
    /// advancing the shared hint — for shadow checkers holding `&self`.
    pub fn peek_highest(&self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut w = self.hint;
        loop {
            let word = self.words[w];
            if word != 0 {
                let bit = 63 - word.leading_zeros();
                return Some((w as u32) * 64 + bit);
            }
            debug_assert!(w > 0, "len > 0 but no set word found");
            w -= 1;
        }
    }

    /// Removes every id.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
        self.hint = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_tensor::gen;

    #[test]
    fn arena_slices_match_csc_csr() {
        let m = gen::power_law(96, 700, 1.0, 0.4, 5);
        let (csc, csr) = (m.to_csc(), m.to_csr());
        let arena = MatrixArena::from_coo(&m);
        assert_eq!(arena.n(), 96);
        assert_eq!(arena.nnz(), m.nnz());
        for c in 0..96u32 {
            let (ar, av) = arena.col(c);
            let (mr, mv) = csc.col(c);
            assert_eq!(ar, mr, "col {c} rows");
            assert_eq!(av, mv, "col {c} vals");
            assert_eq!(arena.col_nnz(c), csc.col_nnz(c));
        }
        for r in 0..96u32 {
            let (ac, av) = arena.row(r);
            let (mc, mv) = csr.row(r);
            assert_eq!(ac, mc, "row {r} cols");
            assert_eq!(av, mv, "row {r} vals");
            assert_eq!(arena.row_nnz(r), csr.row_nnz(r));
        }
        assert_eq!(arena, MatrixArena::from_parts(&csc, &csr));
    }

    #[test]
    fn csr_position_finds_every_element() {
        let m = gen::uniform(40, 40, 300, 9);
        let arena = MatrixArena::from_coo(&m);
        for r in 0..40u32 {
            let (lo, _) = arena.row_range(r);
            let (cols, _) = arena.row(r);
            for (i, &c) in cols.iter().enumerate() {
                assert_eq!(arena.csr_position(r, c), lo + i);
            }
        }
    }

    fn build_streamed(m: &CooMatrix) -> MatrixArena {
        let mut b = ArenaBuilder::new(m.nrows());
        for &(r, c, _) in m.entries() {
            b.count(r, c).unwrap();
        }
        b.start_placement().unwrap();
        for &(r, c, v) in m.entries() {
            b.place(r, c, v).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn builder_matches_from_coo() {
        for seed in [3, 9, 27] {
            let m = gen::power_law(128, 900, 1.0, 0.4, seed);
            assert_eq!(build_streamed(&m), MatrixArena::from_coo(&m), "seed {seed}");
        }
        // empty matrix
        let empty = CooMatrix::from_entries(17, 17, Vec::new()).unwrap();
        assert_eq!(build_streamed(&empty), MatrixArena::from_coo(&empty));
    }

    #[test]
    fn builder_sorts_and_merges_duplicates_like_coo() {
        // unsorted stream with duplicates: (2,1) twice, out of order
        let raw = vec![
            (2u32, 1u32, 4.0),
            (0, 1, 1.0),
            (2, 1, 0.25),
            (1, 0, -3.0),
            (0, 0, 2.0),
        ];
        let m = CooMatrix::from_entries(3, 3, raw.clone()).unwrap();
        let mut b = ArenaBuilder::new(3);
        for &(r, c, _) in &raw {
            b.count(r, c).unwrap();
        }
        b.start_placement().unwrap();
        for &(r, c, v) in &raw {
            b.place(r, c, v).unwrap();
        }
        let arena = b.finish().unwrap();
        assert_eq!(arena, MatrixArena::from_coo(&m));
        assert_eq!(arena.nnz(), 4);
        assert_eq!(arena.col(1).1, &[1.0, 4.25][..]);
    }

    #[test]
    fn builder_places_in_the_input_order() {
        // duplicates with values whose sum depends on the order
        let mut m = gen::power_law(80, 600, 1.0, 0.4, 11).entries().to_vec();
        m.extend([(3u32, 5u32, 1e16), (3, 5, 1.0), (3, 5, -1e16)]);
        let row_major = {
            let mut e = m.clone();
            e.sort_by_key(|&(r, _, _)| r);
            e
        };
        let col_major = {
            let mut e = m.clone();
            e.sort_by_key(|&(r, c, _)| (c, r));
            e
        };
        let build = |entries: &[(u32, u32, f64)]| {
            let mut b = ArenaBuilder::new(80);
            for &(r, c, _) in entries {
                b.count(r, c).unwrap();
            }
            b.start_placement().unwrap();
            let by_row = b.by_row;
            for &(r, c, v) in entries {
                b.place(r, c, v).unwrap();
            }
            (by_row, b.finish().unwrap())
        };
        let (by_row, from_rows) = build(&row_major);
        assert!(by_row, "row-sorted input places by row");
        let (by_row, from_cols) = build(&col_major);
        assert!(!by_row, "column-sorted input places by column");
        assert_eq!(from_rows, from_cols);
        let sum = from_rows.row(3).1[from_rows.row(3).0.partition_point(|&c| c < 5)];
        let expected = m
            .iter()
            .filter(|&&(r, c, _)| (r, c) == (3, 5))
            .map(|&(_, _, v)| v)
            .reduce(|a, b| a + b)
            .unwrap();
        assert_eq!(sum.to_bits(), expected.to_bits(), "input-order sum");
    }

    #[test]
    fn builder_rejects_protocol_violations() {
        let mut b = ArenaBuilder::new(4);
        assert!(b.count(4, 0).is_err(), "row out of shape");
        assert!(b.place(0, 0, 1.0).is_err(), "place before start_placement");
        b.count(1, 1).unwrap();
        b.start_placement().unwrap();
        assert!(b.count(0, 0).is_err(), "count after start_placement");
        // a single counted entry is row-sorted, so placement is by row
        assert!(b.place(0, 0, 1.0).is_err(), "uncounted row overflows");
        b.place(1, 2, 5.0).unwrap();
        // counted out of row order, so placement is by column
        let mut cols = ArenaBuilder::new(4);
        cols.count(2, 0).unwrap();
        cols.count(1, 1).unwrap();
        cols.start_placement().unwrap();
        let err = cols.place(0, 2, 1.0).unwrap_err().to_string();
        assert!(
            err.contains("column 2"),
            "uncounted column overflows: {err}"
        );
        cols.place(3, 1, 5.0).unwrap();
        // placement delivered different coordinates than counting — the
        // shape bookkeeping still balances, so finish validates clean,
        // but a *count* mismatch is caught:
        let mut short = ArenaBuilder::new(4);
        short.count(0, 0).unwrap();
        short.count(1, 1).unwrap();
        short.start_placement().unwrap();
        short.place(0, 0, 1.0).unwrap();
        assert!(short.finish().is_err(), "missing placement entry");
    }

    #[test]
    fn from_raw_parts_validates_structure() {
        let m = gen::uniform(24, 24, 120, 4);
        let a = MatrixArena::from_coo(&m);
        let rebuilt = MatrixArena::from_raw_parts(
            a.n(),
            a.csc_ptr().to_vec(),
            a.csc_rows().to_vec(),
            a.csc_vals().to_vec(),
            a.csr_ptr().to_vec(),
            a.csr_cols().to_vec(),
            a.csr_vals().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, a);

        let corrupt = |f: &dyn Fn(&mut Vec<u32>, &mut Vec<f64>)| {
            let (mut rows, mut vals) = (a.csc_rows().to_vec(), a.csc_vals().to_vec());
            f(&mut rows, &mut vals);
            MatrixArena::from_raw_parts(
                a.n(),
                a.csc_ptr().to_vec(),
                rows,
                vals,
                a.csr_ptr().to_vec(),
                a.csr_cols().to_vec(),
                a.csr_vals().to_vec(),
            )
        };
        // out-of-range coordinate
        assert!(corrupt(&|rows, _| rows[0] = 99).is_err());
        // value flipped: CSC/CSR disagree
        assert!(corrupt(&|_, vals| vals[0] += 1.0).is_err());
        // truncated offsets
        assert!(MatrixArena::from_raw_parts(
            a.n(),
            a.csc_ptr()[..3].to_vec(),
            a.csc_rows().to_vec(),
            a.csc_vals().to_vec(),
            a.csr_ptr().to_vec(),
            a.csr_cols().to_vec(),
            a.csr_vals().to_vec(),
        )
        .is_err());
    }

    #[test]
    fn to_coo_round_trips() {
        let m = gen::power_law(64, 500, 1.0, 0.4, 8);
        assert_eq!(MatrixArena::from_coo(&m).to_coo(), m);
    }

    #[test]
    fn row_set_matches_btreeset_semantics() {
        use std::collections::BTreeSet;
        let mut rs = RowSet::with_capacity(300);
        let mut bt = BTreeSet::new();
        // deterministic pseudo-random op sequence
        let mut x = 0x9e3779b9u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let id = ((x >> 33) % 300) as u32;
            if x & 1 == 0 {
                assert_eq!(rs.insert(id), bt.insert(id), "insert {id}");
            } else {
                assert_eq!(rs.remove(id), bt.remove(&id), "remove {id}");
            }
            assert_eq!(rs.len(), bt.len());
            assert_eq!(rs.peek_highest(), bt.iter().next_back().copied());
            assert_eq!(rs.highest(), bt.iter().next_back().copied());
            assert_eq!(rs.contains(id), bt.contains(&id));
        }
        rs.clear();
        assert!(rs.is_empty());
        assert_eq!(rs.highest(), None);
    }

    #[test]
    fn row_set_grows_beyond_initial_capacity() {
        let mut rs = RowSet::with_capacity(1);
        assert!(rs.insert(1000));
        assert!(rs.contains(1000));
        assert_eq!(rs.highest(), Some(1000));
        assert!(!rs.remove(2000));
    }

    #[test]
    fn empty_rows_and_cols_have_empty_slices() {
        // explicit empty-row/col structure
        let m = CooMatrix::from_entries(6, 6, vec![(0, 0, 1.0), (5, 0, 2.0), (0, 5, 3.0)])
            .expect("coords in range");
        let arena = MatrixArena::from_coo(&m);
        for i in 1..5u32 {
            assert_eq!(arena.row_nnz(i), 0);
            assert_eq!(arena.col_nnz(i), 0);
            assert!(arena.row(i).0.is_empty());
            assert!(arena.col(i).0.is_empty());
        }
    }
}
