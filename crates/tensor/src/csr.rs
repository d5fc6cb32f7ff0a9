//! Compressed sparse row (CSR) matrix.

use serde::{Deserialize, Serialize};

use crate::{CooMatrix, CscMatrix, DenseVector, TensorError};

/// A sparse matrix in compressed-sparse-row form.
///
/// Row `r`'s entries occupy `col_idx[row_ptr[r]..row_ptr[r+1]]` (column
/// indices, ascending) and `vals[row_ptr[r]..row_ptr[r+1]]`. CSR is the
/// row-order half of Sparsepipe's dual storage: the IS core streams matrix
/// *rows* from it (§IV-B).
///
/// # Example
///
/// ```
/// use sparsepipe_tensor::{CooMatrix, CsrMatrix};
/// let coo = CooMatrix::from_entries(2, 3, vec![(0, 1, 2.0), (1, 0, 3.0), (1, 2, 4.0)])?;
/// let csr = CsrMatrix::from_coo(&coo);
/// assert_eq!(csr.row(1), (&[0u32, 2][..], &[3.0, 4.0][..]));
/// # Ok::<(), sparsepipe_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    nrows: u32,
    ncols: u32,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a (sorted, deduplicated) COO matrix.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nrows = coo.nrows();
        let mut row_ptr = vec![0usize; nrows as usize + 1];
        for &(r, _, _) in coo.entries() {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..nrows as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = Vec::with_capacity(coo.nnz());
        let mut vals = Vec::with_capacity(coo.nnz());
        // COO entries are already row-major sorted, so a single pass fills
        // the arrays in order.
        for &(_, c, v) in coo.entries() {
            col_idx.push(c);
            vals.push(v);
        }
        CsrMatrix {
            nrows,
            ncols: coo.ncols(),
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Builds a CSR matrix from raw arrays, validating every invariant:
    /// pointer monotonicity and bounds, column bounds, ascending columns
    /// within each row, and array-length agreement.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Parse`] describing the first violated
    /// invariant (the `line` field carries the offending array index).
    pub fn from_raw_parts(
        nrows: u32,
        ncols: u32,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Result<Self, TensorError> {
        let invalid = |line: usize, message: String| TensorError::Parse { line, message };
        if row_ptr.len() != nrows as usize + 1 {
            return Err(invalid(
                0,
                format!(
                    "row_ptr has {} entries, expected nrows + 1 = {}",
                    row_ptr.len(),
                    nrows + 1
                ),
            ));
        }
        if col_idx.len() != vals.len() {
            return Err(invalid(
                0,
                format!(
                    "col_idx ({}) and vals ({}) lengths differ",
                    col_idx.len(),
                    vals.len()
                ),
            ));
        }
        if row_ptr[0] != 0 || *row_ptr.last().expect("non-empty") != col_idx.len() {
            return Err(invalid(0, "row_ptr must start at 0 and end at nnz".into()));
        }
        for (i, w) in row_ptr.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(invalid(i, "row_ptr must be non-decreasing".into()));
            }
            for j in w[0]..w[1] {
                if col_idx[j] >= ncols {
                    return Err(invalid(
                        j,
                        format!("column {} out of bounds ({} cols)", col_idx[j], ncols),
                    ));
                }
                if j > w[0] && col_idx[j] <= col_idx[j - 1] {
                    return Err(invalid(
                        j,
                        format!("columns must be strictly ascending within row {i}"),
                    ));
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> u32 {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> u32 {
        self.ncols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (ascending within each row).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The value array, parallel to [`CsrMatrix::col_idx`].
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Column indices and values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    pub fn row(&self, r: u32) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[r as usize];
        let hi = self.row_ptr[r as usize + 1];
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Number of non-zeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    pub fn row_nnz(&self, r: u32) -> usize {
        self.row_ptr[r as usize + 1] - self.row_ptr[r as usize]
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Converts back to COO form.
    pub fn to_coo(&self) -> CooMatrix {
        CooMatrix::from_entries(self.nrows, self.ncols, self.iter().collect())
            .expect("CSR invariants guarantee valid COO")
    }

    /// Converts to CSC by transposition of the index structure.
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix::from_coo(&self.to_coo())
    }

    /// Sparse matrix × dense vector, `y = A·x`, under a semiring given by
    /// `mul`/`add`/`zero` closures: the kernel behind [`CsrMatrix::spmv`].
    fn spmv_with<M, A>(
        &self,
        x: &DenseVector,
        zero: f64,
        mut mul: M,
        mut add: A,
    ) -> Result<DenseVector, TensorError>
    where
        M: FnMut(f64, f64) -> f64,
        A: FnMut(f64, f64) -> f64,
    {
        if x.len() != self.ncols as usize {
            return Err(TensorError::DimensionMismatch {
                context: format!("spmv: vector len {} vs matrix cols {}", x.len(), self.ncols),
            });
        }
        let mut y = Vec::with_capacity(self.nrows as usize);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            let mut acc = zero;
            for (&c, &v) in cols.iter().zip(vals) {
                acc = add(acc, mul(v, x[c as usize]));
            }
            y.push(acc);
        }
        Ok(DenseVector::from(y))
    }

    /// Sparse matrix × dense vector over a statically dispatched semiring.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn spmv<S: sparsepipe_semiring::Semiring>(
        &self,
        x: &DenseVector,
    ) -> Result<DenseVector, TensorError> {
        self.spmv_with(x, S::ZERO, S::mul, S::add)
    }

    /// Total bytes of a plain CSR image: 4-byte column coordinate and 8-byte
    /// value per non-zero, plus the row-pointer array at 4 bytes per row.
    pub fn storage_bytes(&self) -> usize {
        self.nnz() * (crate::COORD_BYTES + crate::VALUE_BYTES)
            + (self.nrows as usize + 1) * crate::COORD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_semiring::{MinAdd, MulAdd};

    fn sample() -> CsrMatrix {
        // [ .  2  . ]
        // [ 3  .  4 ]
        // [ .  5  . ]
        CooMatrix::from_entries(
            3,
            3,
            vec![(0, 1, 2.0), (1, 0, 3.0), (1, 2, 4.0), (2, 1, 5.0)],
        )
        .unwrap()
        .to_csr()
    }

    #[test]
    fn row_access() {
        let m = sample();
        assert_eq!(m.row(0), (&[1u32][..], &[2.0][..]));
        assert_eq!(m.row(1), (&[0u32, 2][..], &[3.0, 4.0][..]));
        assert_eq!(m.row_nnz(2), 1);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn empty_rows_are_represented() {
        let m = CooMatrix::from_entries(4, 4, vec![(3, 0, 1.0)])
            .unwrap()
            .to_csr();
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row(3), (&[0u32][..], &[1.0][..]));
    }

    #[test]
    fn coo_roundtrip() {
        let m = sample();
        assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn spmv_arithmetic() {
        let m = sample();
        let x = DenseVector::from(vec![1.0, 10.0, 100.0]);
        let y = m.spmv::<MulAdd>(&x).unwrap();
        assert_eq!(y.as_slice(), &[20.0, 403.0, 50.0]);
    }

    #[test]
    fn spmv_tropical_finds_min_path_extension() {
        // dist' = min over edges (r,c) of w(r,c) + x[c]
        let m = sample();
        let x = DenseVector::from(vec![0.0, f64::INFINITY, 1.0]);
        let y = m.spmv::<MinAdd>(&x).unwrap();
        assert_eq!(y[0], f64::INFINITY); // only neighbor 1 at inf
        assert_eq!(y[1], 3.0); // min(3+0, 4+1)
        assert_eq!(y[2], f64::INFINITY);
    }

    #[test]
    fn spmv_rejects_bad_shape() {
        let m = sample();
        let x = DenseVector::from(vec![1.0, 2.0]);
        assert!(m.spmv::<MulAdd>(&x).is_err());
    }

    #[test]
    fn raw_parts_roundtrip_and_validation() {
        let m = sample();
        let rebuilt = CsrMatrix::from_raw_parts(
            m.nrows(),
            m.ncols(),
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.vals().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, m);
        // broken pointer array
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // out-of-bounds column
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // non-ascending columns
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]).is_err());
        // decreasing row_ptr
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 0], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let m = sample();
        let trips: Vec<_> = m.iter().collect();
        assert_eq!(
            trips,
            vec![(0, 1, 2.0), (1, 0, 3.0), (1, 2, 4.0), (2, 1, 5.0)]
        );
    }
}
