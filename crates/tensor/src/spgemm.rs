//! Sparse × sparse matrix multiplication (SpMSpM) via Gustavson's
//! row-by-row algorithm.
//!
//! SpMSpM is the operator the prior accelerators Sparsepipe compares
//! against (GAMMA, OuterSPACE, SpArch, MatRaptor, ExTensor — §VII) were
//! built for, and `mxm` is part of the GraphBLAS operator set the
//! frontend abstraction exposes (§II-A). Gustavson's algorithm — for each
//! row `i` of `A`, merge the rows `B[k][*]` for every `A[i][k] ≠ 0` into
//! a sparse accumulator — is the dataflow GAMMA accelerates, so having it
//! in the substrate both completes the operator set and provides the
//! reference kernel for any future intra-operator comparison.

use std::marker::PhantomData;

use sparsepipe_semiring::{AndOr, ArilAdd, MinAdd, MulAdd, Semiring, SemiringOp};

use crate::{CsrMatrix, TensorError};

/// Computes `C = A ⊕.⊗ B` over sparse operands with Gustavson's
/// algorithm, under the given semiring. Entries that accumulate exactly
/// to the semiring's zero are kept implicit (dropped).
///
/// Runs in `O(Σ_i Σ_{k ∈ A[i]} nnz(B[k]) + Σ_i f_i log f_i)` time, where
/// `f_i` is the number of distinct columns row `i` touches (the per-row
/// sort of the [`Spa`] drain), with `O(B.ncols())` scratch: every scalar
/// product costs O(1) with no data-dependent branch, because a per-row
/// stamp array, not a scan of the touched-column list, detects the
/// first touch of a column, and the touched list grows by that test's
/// 0-or-1 outcome. The
/// semiring is dispatched once per call to a kernel monomorphised over
/// [`Semiring`]; each `C[i][j]` is folded as `acc = acc ⊕ (A[i][k] ⊗
/// B[k][j])` in ascending `k` order.
///
/// # Errors
///
/// Returns [`TensorError::DimensionMismatch`] if `A.ncols() != B.nrows()`.
///
/// # Example
///
/// ```
/// use sparsepipe_tensor::{spgemm, CooMatrix};
/// use sparsepipe_semiring::SemiringOp;
///
/// // path graph 0 -> 1 -> 2: A² is the 2-hop reachability 0 -> 2
/// let a = CooMatrix::from_entries(3, 3, vec![(0, 1, 1.0), (1, 2, 1.0)])?.to_csr();
/// let a2 = spgemm::spgemm(&a, &a, SemiringOp::AndOr)?;
/// assert_eq!(a2.to_coo().entries(), &[(0, 2, 1.0)][..]);
/// # Ok::<(), sparsepipe_tensor::TensorError>(())
/// ```
pub fn spgemm(
    a: &CsrMatrix,
    b: &CsrMatrix,
    semiring: SemiringOp,
) -> Result<CsrMatrix, TensorError> {
    if a.ncols() != b.nrows() {
        return Err(TensorError::DimensionMismatch {
            context: format!(
                "spgemm: A is {}x{}, B is {}x{}",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    Ok(match semiring {
        SemiringOp::MulAdd => gustavson::<MulAdd>(a, b),
        SemiringOp::AndOr => gustavson::<AndOr>(a, b),
        SemiringOp::MinAdd => gustavson::<MinAdd>(a, b),
        SemiringOp::ArilAdd => gustavson::<ArilAdd>(a, b),
    })
}

fn gustavson<R: Semiring>(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let mut spa = Spa::<R>::new(b.ncols());
    let mut rows = CsrRows::new();
    for i in 0..a.nrows() {
        let (a_cols, a_vals) = a.row(i);
        for (&k, &a_ik) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k);
            spa.scatter(a_ik, b_cols, b_vals);
        }
        spa.drain_sorted(&mut rows);
    }
    rows.into_csr(b.ncols())
}

/// Gustavson's sparse accumulator (SPA) for one output row at a time: a
/// dense value row, the list of columns the row has touched, and a
/// per-column stamp that makes "first touch" an O(1) test.
///
/// The touched list is appended without a branch: every product writes
/// its column to the next free slot and advances the length only on a
/// first touch, so a repeat touch leaves a write that the next append
/// overwrites. The list has one slot more than the row has columns to
/// take that write when every column is already touched.
///
/// Feed a row with [`scatter`](Spa::scatter), once per `A[i][k]`, then
/// close it with [`drain_sorted`](Spa::drain_sorted) (emit `C[i][*]`) or
/// [`drain_count`](Spa::drain_count) (count it only). Both drains reset
/// the accumulator for the next row.
///
/// ```
/// use sparsepipe_semiring::MulAdd;
/// use sparsepipe_tensor::spgemm::{CsrRows, Spa};
///
/// let mut spa = Spa::<MulAdd>::new(4);
/// spa.scatter(2.0, &[3, 1], &[1.0, 5.0]);
/// spa.scatter(1.0, &[1], &[-10.0]); // column 1 cancels to exactly 0
/// assert_eq!(spa.live(), 2);
/// let mut rows = CsrRows::new();
/// assert_eq!(spa.drain_sorted(&mut rows), 1);
/// assert_eq!(rows.into_csr(4).row(0), (&[3u32][..], &[2.0][..]));
/// ```
#[derive(Debug, Clone)]
pub struct Spa<R> {
    acc: Vec<f64>,
    /// `mark[j] == stamp` iff column `j` is in `touched[..len]` for this
    /// row.
    mark: Vec<u32>,
    stamp: u32,
    /// `ncols + 1` slots; the row's columns in first-touch order are
    /// `touched[..len]`.
    touched: Vec<u32>,
    len: usize,
    semiring: PhantomData<R>,
}

impl<R: Semiring> Spa<R> {
    /// An empty accumulator for output rows of `ncols` columns.
    pub fn new(ncols: u32) -> Self {
        Spa {
            acc: vec![R::ZERO; ncols as usize],
            mark: vec![0; ncols as usize],
            stamp: 1,
            touched: vec![0; ncols as usize + 1],
            len: 0,
            semiring: PhantomData,
        }
    }

    /// Accumulates `a_ik ⊗ B[k][j]` into column `j` for every entry of
    /// one row `B[k]` (`b_cols`, `b_vals`).
    #[inline]
    pub fn scatter(&mut self, a_ik: f64, b_cols: &[u32], b_vals: &[f64]) {
        let stamp = self.stamp;
        let mut len = self.len;
        for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
            let j_us = j as usize;
            self.touched[len] = j;
            len += usize::from(self.mark[j_us] != stamp);
            self.mark[j_us] = stamp;
            self.acc[j_us] = R::add(self.acc[j_us], R::mul(a_ik, b_kj));
        }
        self.len = len;
    }

    /// Distinct columns the current row has touched — the live
    /// accumulator width, whether or not they survive the drain.
    pub fn live(&self) -> usize {
        self.len
    }

    /// Closes the current row: appends its entries `(j, v)` with
    /// `v != R::ZERO` to `rows` in ascending column order, resets the
    /// accumulator, and returns how many entries it appended.
    pub fn drain_sorted(&mut self, rows: &mut CsrRows) -> u64 {
        let touched = &mut self.touched[..self.len];
        touched.sort_unstable();
        let before = rows.col_idx.len();
        for &j in &*touched {
            let v = std::mem::replace(&mut self.acc[j as usize], R::ZERO);
            if v != R::ZERO {
                rows.col_idx.push(j);
                rows.vals.push(v);
            }
        }
        rows.row_ptr.push(rows.col_idx.len());
        self.next_row();
        (rows.col_idx.len() - before) as u64
    }

    /// Closes the current row without materialising it: counts the
    /// entries [`drain_sorted`](Spa::drain_sorted) would emit, in
    /// touch order, and resets the accumulator.
    pub fn drain_count(&mut self) -> u64 {
        let mut count = 0;
        for &j in &self.touched[..self.len] {
            let v = std::mem::replace(&mut self.acc[j as usize], R::ZERO);
            count += u64::from(v != R::ZERO);
        }
        self.next_row();
        count
    }

    fn next_row(&mut self) {
        self.len = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
    }
}

/// The row-major arrays a sequence of [`Spa::drain_sorted`] calls
/// fills, one row per drain.
#[derive(Debug, Clone)]
pub struct CsrRows {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl Default for CsrRows {
    fn default() -> Self {
        Self::new()
    }
}

impl CsrRows {
    /// No rows yet.
    pub fn new() -> Self {
        CsrRows {
            row_ptr: vec![0],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// The drained rows as a matrix of `ncols` columns.
    ///
    /// # Panics
    ///
    /// Panics if a drained column is `>= ncols` (the accumulator was
    /// wider than the matrix).
    pub fn into_csr(self, ncols: u32) -> CsrMatrix {
        let nrows = (self.row_ptr.len() - 1) as u32;
        CsrMatrix::from_raw_parts(nrows, ncols, self.row_ptr, self.col_idx, self.vals)
            .expect("sorted SPA drains are valid CSR rows")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::{CooMatrix, DenseVector};

    fn dense_of(m: &CsrMatrix) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; m.ncols() as usize]; m.nrows() as usize];
        for (r, c, v) in m.iter() {
            d[r as usize][c as usize] = v;
        }
        d
    }

    #[test]
    fn matches_dense_reference() {
        let a = gen::uniform(24, 30, 120, 3).to_csr();
        let b = gen::uniform(30, 18, 100, 4).to_csr();
        let c = spgemm(&a, &b, SemiringOp::MulAdd).unwrap();
        let (da, db, dc) = (dense_of(&a), dense_of(&b), dense_of(&c));
        for i in 0..24 {
            for j in 0..18 {
                let mut expect = 0.0;
                for k in 0..30 {
                    expect += da[i][k] * db[k][j];
                }
                assert!((dc[i][j] - expect).abs() < 1e-9, "C[{i}][{j}]");
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let n = 20u32;
        let eye = CooMatrix::from_entries(n, n, (0..n).map(|i| (i, i, 1.0)).collect())
            .unwrap()
            .to_csr();
        let a = gen::uniform(n, n, 80, 9).to_csr();
        let left = spgemm(&eye, &a, SemiringOp::MulAdd).unwrap();
        let right = spgemm(&a, &eye, SemiringOp::MulAdd).unwrap();
        assert_eq!(left.to_coo(), a.to_coo());
        assert_eq!(right.to_coo(), a.to_coo());
    }

    #[test]
    fn associativity_on_small_matrices() {
        let a = gen::uniform(12, 12, 40, 1).to_csr();
        let b = gen::uniform(12, 12, 40, 2).to_csr();
        let c = gen::uniform(12, 12, 40, 3).to_csr();
        let ab_c = spgemm(
            &spgemm(&a, &b, SemiringOp::MulAdd).unwrap(),
            &c,
            SemiringOp::MulAdd,
        )
        .unwrap();
        let a_bc = spgemm(
            &a,
            &spgemm(&b, &c, SemiringOp::MulAdd).unwrap(),
            SemiringOp::MulAdd,
        )
        .unwrap();
        let (d1, d2) = (dense_of(&ab_c), dense_of(&a_bc));
        for i in 0..12 {
            for j in 0..12 {
                assert!((d1[i][j] - d2[i][j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn boolean_square_is_two_hop_reachability() {
        let m = gen::uniform(40, 40, 120, 7);
        let pattern = CooMatrix::from_entries(
            40,
            40,
            m.entries().iter().map(|&(r, c, _)| (r, c, 1.0)).collect(),
        )
        .unwrap()
        .to_csr();
        let sq = spgemm(&pattern, &pattern, SemiringOp::AndOr).unwrap();
        // cross-check against vxm-based 2-hop from each source
        let csc = pattern.to_coo().to_csc();
        for src in 0..40u32 {
            let mut e = DenseVector::zeros(40);
            e[src as usize] = 1.0;
            let hop1 = csc.vxm::<sparsepipe_semiring::AndOr>(&e).unwrap();
            let hop2 = csc.vxm::<sparsepipe_semiring::AndOr>(&hop1).unwrap();
            let (cols, _) = sq.row(src);
            for t in 0..40u32 {
                let via_spgemm = cols.contains(&t);
                let via_vxm = hop2[t as usize] != 0.0;
                assert_eq!(via_spgemm, via_vxm, "src {src} -> {t}");
            }
        }
    }

    #[test]
    fn tropical_spgemm_composes_path_lengths() {
        // 0-(2)->1-(3)->2: (A min.+ A)[0][2] = 5
        let a = CooMatrix::from_entries(3, 3, vec![(0, 1, 2.0), (1, 2, 3.0)])
            .unwrap()
            .to_csr();
        let a2 = spgemm(&a, &a, SemiringOp::MinAdd).unwrap();
        let entries = a2.to_coo().entries().to_vec();
        assert_eq!(entries, vec![(0, 2, 5.0)]);
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = gen::uniform(5, 7, 10, 1).to_csr();
        let b = gen::uniform(6, 5, 10, 2).to_csr();
        assert!(spgemm(&a, &b, SemiringOp::MulAdd).is_err());
    }

    #[test]
    fn explicit_zeros_are_dropped() {
        // 1·1 + (−1)·1 = 0 → entry omitted
        let a = CooMatrix::from_entries(1, 2, vec![(0, 0, 1.0), (0, 1, -1.0)])
            .unwrap()
            .to_csr();
        let b = CooMatrix::from_entries(2, 1, vec![(0, 0, 1.0), (1, 0, 1.0)])
            .unwrap()
            .to_csr();
        let c = spgemm(&a, &b, SemiringOp::MulAdd).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn stamp_wraparound_clears_marks() {
        // Column 1 keeps the mark of the first row (stamp 1) until the
        // stamp wraps back to 1; unless the wrap clears the marks, its
        // next first touch goes unrecorded and the row drains empty.
        let mut spa = Spa::<sparsepipe_semiring::MulAdd>::new(3);
        spa.scatter(1.0, &[1], &[5.0]);
        assert_eq!(spa.drain_count(), 1);
        spa.stamp = u32::MAX;
        assert_eq!(spa.drain_count(), 0);
        assert_eq!(spa.stamp, 1);
        spa.scatter(1.0, &[1], &[3.0]);
        let mut rows = CsrRows::new();
        assert_eq!(spa.drain_sorted(&mut rows), 1);
        assert_eq!(rows.into_csr(3).row(0), (&[1u32][..], &[3.0][..]));
    }

    #[test]
    fn full_row_then_repeat_uses_the_spare_slot() {
        // The row touches every column, so `len == ncols` and the repeat
        // touch of column 2 writes the spare slot without appending.
        let ncols = 5u32;
        let mut spa = Spa::<sparsepipe_semiring::MulAdd>::new(ncols);
        let cols: Vec<u32> = (0..ncols).rev().collect();
        spa.scatter(1.0, &cols, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(spa.live(), ncols as usize);
        spa.scatter(2.0, &[2], &[10.0]);
        assert_eq!(spa.live(), ncols as usize);
        let mut rows = CsrRows::new();
        assert_eq!(spa.drain_sorted(&mut rows), u64::from(ncols));
        spa.scatter(1.0, &[4, 4], &[1.0, -1.0]);
        assert_eq!(spa.live(), 1);
        assert_eq!(spa.drain_count(), 0, "column 4 cancels");
        let c = rows.into_csr(ncols);
        assert_eq!(
            c.row(0),
            (&[0u32, 1, 2, 3, 4][..], &[5.0, 4.0, 23.0, 2.0, 1.0][..])
        );
    }
}
