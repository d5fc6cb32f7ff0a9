//! Pass-plan precomputation.
//!
//! Before timing a pass, the simulator derives, from the input matrix and
//! the sub-tensor width `T`, everything the per-step loop needs in O(nnz):
//!
//! * one copy of the coordinates in CSR form — `row_ptr` (`n + 1` entries)
//!   and `cols` (`nnz` entries), indexed by **element id**, an element's
//!   position in the matrix's row-major triplet list;
//! * `csc_order`, the element ids grouped by OS step with a counting sort,
//!   and its step pointers `csc_ptr` (`steps + 1` entries) — the one
//!   per-width permutation;
//! * the dense-vector working-set curve `vec_live` (input-vector window +
//!   IS partial output window), which shares the on-chip buffer with
//!   matrix data.
//!
//! Steps are index arithmetic over those arrays, not stored per element.
//! Element `e` has **OS step** `cols[e] / T` (when the CSC loader/OS core
//! demands its column), so "the OS core has passed `e` by step `s`" is
//! `cols[e] < (s + 1)·T`. Its **IS step** is `row / T` (when the IS core's
//! scatter consumes its row). Because ids are row-major, the IS core's
//! step-`s` elements are the contiguous id range
//! `is_start(s)..is_start(s + 1)` with `is_start(s) = row_ptr[min(s·T, n)]`,
//! and "the IS core passed `e`'s row before step `s`" is `e < is_start(s)`.
//!
//! Row-major ids also make "evict the highest `row_idx` first" simply
//! "evict the largest resident id".

use std::ops::Range;

use sparsepipe_tensor::CooMatrix;

/// Precomputed schedule geometry for one OEI pass over a matrix.
///
/// The fields are private and only [`PassPlan::build`] writes them, so the
/// invariants the pass loop relies on (a grouped `csc_order` permutation,
/// IS ranges tiling `0..nnz`, one `vec_live` entry per step) hold by
/// construction.
#[derive(Debug, Clone)]
pub struct PassPlan {
    /// Sub-tensor width in columns.
    t_cols: usize,
    /// CSR row pointers over element ids (`n + 1` entries).
    row_ptr: Vec<u32>,
    /// For element id `e`: its column coordinate.
    cols: Vec<u32>,
    /// Element ids grouped by OS step: ids `csc_order[csc_ptr[s]..csc_ptr[s+1]]`
    /// have `cols[e] / t_cols == s`, in row-major order within a step.
    csc_order: Vec<u32>,
    /// Step pointers into `csc_order` (`steps + 1` entries).
    csc_ptr: Vec<u32>,
    /// Dense-vector working set per step, in *elements* (multiply by
    /// 8 bytes × feature dim for bytes): the live windows of the OS input
    /// vector and the IS partial-output vector.
    vec_live: Vec<usize>,
}

impl PassPlan {
    /// Builds the plan for `matrix` at sub-tensor width `t_cols`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, `t_cols == 0`, or the matrix
    /// holds more than `u32::MAX` non-zeros (element ids are `u32`).
    pub fn build(matrix: &CooMatrix, t_cols: usize) -> Self {
        assert_eq!(
            matrix.nrows(),
            matrix.ncols(),
            "OEI passes need a square matrix"
        );
        assert!(t_cols > 0, "sub-tensor width must be positive");
        let n = matrix.nrows() as usize;
        let nnz = matrix.nnz();
        assert!(u32::try_from(nnz).is_ok(), "element ids must fit in u32");
        let steps = n.div_ceil(t_cols).max(1);

        let mut row_ptr = vec![0u32; n + 1];
        let mut cols = Vec::with_capacity(nnz);
        for &(r, c, _) in matrix.entries() {
            row_ptr[r as usize + 1] += 1;
            cols.push(c);
        }
        prefix_sum(&mut row_ptr);

        // Group element ids by OS (column) step with a counting sort.
        let mut csc_ptr = vec![0u32; steps + 1];
        for &c in &cols {
            csc_ptr[c as usize / t_cols + 1] += 1;
        }
        prefix_sum(&mut csc_ptr);
        let mut cursor = csc_ptr.clone();
        let mut csc_order = vec![0u32; nnz];
        for (e, &c) in cols.iter().enumerate() {
            let slot = &mut cursor[c as usize / t_cols];
            csc_order[*slot as usize] = e as u32;
            *slot += 1;
        }

        let vec_live = vector_live_curve(&row_ptr, &cols, t_cols, steps);

        PassPlan {
            t_cols,
            row_ptr,
            cols,
            csc_order,
            csc_ptr,
            vec_live,
        }
    }

    /// Matrix dimension (square).
    pub(crate) fn n(&self) -> u32 {
        (self.row_ptr.len() - 1) as u32
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Sub-tensor width in columns.
    pub(crate) fn t_cols(&self) -> usize {
        self.t_cols
    }

    /// Pipeline steps per pass: `ceil(n / t_cols)`, at least 1.
    pub fn steps(&self) -> usize {
        self.csc_ptr.len() - 1
    }

    /// CSR row pointers over element ids (`n + 1` entries): row `r` holds
    /// ids `row_ptr[r]..row_ptr[r + 1]`.
    pub(crate) fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column coordinate of every element id.
    pub(crate) fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// `(row, col)` of element `e`. The row is a binary search over
    /// `row_ptr`; the pass loop calls this only to label trace events.
    pub(crate) fn coords(&self, e: u32) -> (u32, u32) {
        let row = self.row_ptr.partition_point(|&p| p <= e) - 1;
        (row as u32, self.cols[e as usize])
    }

    /// Dense-vector working set per step, in vector elements.
    pub fn vec_live(&self) -> &[usize] {
        &self.vec_live
    }

    /// Element ids the OS core demands at step `s`.
    pub fn os_elements(&self, s: usize) -> &[u32] {
        &self.csc_order[self.csc_ptr[s] as usize..self.csc_ptr[s + 1] as usize]
    }

    /// First element id of IS step `s`: every id below it belongs to a row
    /// the IS core consumes before step `s` (`row / t_cols < s`). Valid
    /// for any `s`; steps past the last one start at `nnz`.
    pub(crate) fn is_start(&self, s: usize) -> u32 {
        let row = s.saturating_mul(self.t_cols).min(self.row_ptr.len() - 1);
        self.row_ptr[row]
    }

    /// Element id range (row-major, contiguous) the IS core consumes at
    /// step `s`.
    pub fn is_elements(&self, s: usize) -> Range<u32> {
        self.is_start(s)..self.is_start(s + 1)
    }

    /// Heap bytes of the plan's arrays, for cache accounting.
    pub(crate) fn heap_bytes(&self) -> u64 {
        let u32s = self.row_ptr.len() + self.cols.len() + self.csc_order.len() + self.csc_ptr.len();
        (u32s * std::mem::size_of::<u32>() + self.vec_live.len() * std::mem::size_of::<usize>())
            as u64
    }
}

/// Turns per-bucket counts stored at `[i + 1]` into bucket start pointers.
fn prefix_sum(ptr: &mut [u32]) {
    for i in 1..ptr.len() {
        ptr[i] += ptr[i - 1];
    }
}

/// Live dense-vector elements per step: `x[r]` is live from the first to
/// the last step of any element in row `r` (the OS core gathers it per
/// non-zero), and the IS partial output `y'[c]` is live from the first to
/// the last step of any element in column `c` (its accumulation window).
fn vector_live_curve(row_ptr: &[u32], cols: &[u32], t: usize, steps: usize) -> Vec<usize> {
    let n = row_ptr.len() - 1;
    let mut delta = vec![0i64; steps + 1];
    let mut live_over = |first: usize, last: usize| {
        delta[first] += 1;
        delta[(last + 1).min(steps)] -= 1;
    };
    let mut col_first = vec![u32::MAX; n];
    let mut col_last = vec![0u32; n];
    for r in 0..n {
        let row = &cols[row_ptr[r] as usize..row_ptr[r + 1] as usize];
        // x[r] is gathered whenever one of row r's columns is processed by
        // the OS stage; columns ascend within a row, so its window runs
        // from the first column's step to the last one's…
        if let (Some(&lo), Some(&hi)) = (row.first(), row.last()) {
            live_over(lo as usize / t, hi as usize / t);
        }
        // …and y'[c] accumulates whenever one of column c's rows is
        // scattered by the IS stage; rows ascend, so the last write wins.
        let rs = (r / t) as u32;
        for &c in row {
            col_first[c as usize] = col_first[c as usize].min(rs);
            col_last[c as usize] = rs;
        }
    }
    for (&first, &last) in col_first.iter().zip(&col_last) {
        if first != u32::MAX {
            live_over(first as usize, last as usize);
        }
    }
    let mut curve = Vec::with_capacity(steps);
    let mut live = 0i64;
    for d in delta.iter().take(steps) {
        live += d;
        curve.push(live.max(0) as usize);
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_tensor::gen;

    /// The builder's structural guarantees, checked directly on its output.
    fn assert_well_formed(m: &CooMatrix, t: usize) {
        let plan = PassPlan::build(m, t);
        let n = m.nrows() as usize;
        let ctx = format!("n={n} nnz={} t={t}", m.nnz());
        assert_eq!(plan.n() as usize, n, "{ctx}");
        assert_eq!(plan.nnz(), m.nnz(), "{ctx}");
        assert_eq!(plan.steps(), n.div_ceil(t).max(1), "{ctx}");
        assert_eq!(plan.vec_live().len(), plan.steps(), "{ctx}");
        // csc_order is a permutation of 0..nnz grouped by column step
        let mut seen = vec![false; plan.nnz()];
        for s in 0..plan.steps() {
            for &e in plan.os_elements(s) {
                assert!(!seen[e as usize], "{ctx}: id {e} listed twice");
                seen[e as usize] = true;
                assert_eq!(plan.coords(e).1 as usize / t, s, "{ctx}: id {e}");
            }
        }
        assert!(seen.iter().all(|&b| b), "{ctx}: csc_order misses an id");
        // the IS ranges tile 0..nnz, each holding its step's rows
        let mut prev_end = 0;
        for s in 0..plan.steps() {
            let r = plan.is_elements(s);
            assert_eq!(r.start, prev_end, "{ctx}: step {s}");
            for e in r.clone() {
                assert_eq!(plan.coords(e).0 as usize / t, s, "{ctx}: id {e}");
            }
            prev_end = r.end;
        }
        assert_eq!(prev_end as usize, plan.nnz(), "{ctx}");
        // coordinates round-trip the matrix
        for (e, &(r, c, _)) in m.entries().iter().enumerate() {
            assert_eq!(plan.coords(e as u32), (r, c), "{ctx}: id {e}");
        }
    }

    #[test]
    fn builder_output_is_well_formed() {
        let empty = CooMatrix::from_entries(10, 10, Vec::new()).unwrap();
        let ragged = gen::uniform(100, 100, 500, 3);
        // power law leaves rows and columns empty
        let skewed = gen::power_law(300, 900, 1.2, 0.3, 11);
        let (mut row_used, mut col_used) = (vec![false; 300], vec![false; 300]);
        for &(r, c, _) in skewed.entries() {
            row_used[r as usize] = true;
            col_used[c as usize] = true;
        }
        assert!(row_used.contains(&false), "no empty row");
        assert!(col_used.contains(&false), "no empty column");
        for (m, ts) in [
            (&empty, &[1usize, 3, 10, 64][..]),
            (&ragged, &[1, 7, 8, 99, 100, 101, 1000]),
            (&skewed, &[1, 16, 299, 300, 512]),
        ] {
            for &t in ts {
                assert_well_formed(m, t);
            }
        }
    }

    #[test]
    fn step_predicates_match_coordinate_division() {
        let m = gen::power_law(40, 200, 1.0, 0.5, 4);
        for t in [1usize, 3, 8, 40, 64] {
            let plan = PassPlan::build(&m, t);
            for (e, &(r, c, _)) in m.entries().iter().enumerate() {
                let (e, r, c) = (e as u32, r as usize, c as usize);
                for s in 0..plan.steps() + 2 {
                    assert_eq!(e < plan.is_start(s), r / t < s, "t={t} e={e} s={s}");
                    assert_eq!(c < (s + 1) * t, c / t <= s, "t={t} e={e} s={s}");
                }
            }
        }
    }

    #[test]
    fn heap_bytes_sums_the_arrays() {
        let m = gen::uniform(64, 64, 300, 3);
        let plan = PassPlan::build(&m, 8);
        // row_ptr + cols + csc_order + csc_ptr as u32, vec_live as usize
        let want = (65 + 2 * m.nnz() + 9) * 4 + 8 * std::mem::size_of::<usize>();
        assert_eq!(plan.heap_bytes(), want as u64);
    }

    #[test]
    fn vector_live_curve_bounds() {
        let m = gen::banded(200, 1200, 5, 2);
        let plan = PassPlan::build(&m, 2);
        // banded: at any step only a narrow window of x and y' is live
        let peak = *plan.vec_live().iter().max().unwrap();
        assert!(peak < 80, "banded vector window too large: {peak}");
        // uniform: nearly everything is live mid-pass
        let mu = gen::uniform(200, 200, 2000, 2);
        let plan_u = PassPlan::build(&mu, 2);
        let peak_u = *plan_u.vec_live().iter().max().unwrap();
        assert!(peak_u > 250, "uniform vector window too small: {peak_u}");
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        let m = gen::uniform(10, 20, 30, 1);
        PassPlan::build(&m, 2);
    }

    #[test]
    fn single_step_plan() {
        let m = gen::uniform(16, 16, 60, 5);
        let plan = PassPlan::build(&m, 64);
        assert_eq!(plan.steps(), 1);
        assert_eq!(plan.os_elements(0).len(), m.nnz());
    }
}
