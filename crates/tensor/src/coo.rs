//! Coordinate-list (COO) sparse matrix.

use serde::{Deserialize, Serialize};

use crate::{CscMatrix, CsrMatrix, TensorError};

/// A sparse matrix in coordinate-list (triplet) form.
///
/// COO is the construction and interchange format: generators and the
/// MatrixMarket reader produce it, and [`CsrMatrix`]/[`CscMatrix`] are built
/// from it. Entries are kept sorted in row-major order with duplicate
/// coordinates combined by addition (last-write-wins is *not* used because
/// graph generators legitimately produce parallel edges that should
/// accumulate).
///
/// # Example
///
/// ```
/// use sparsepipe_tensor::CooMatrix;
/// let m = CooMatrix::from_entries(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)])?;
/// assert_eq!(m.nnz(), 2); // duplicates combined
/// assert_eq!(m.entries()[0], (0, 0, 3.0));
/// # Ok::<(), sparsepipe_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooMatrix {
    nrows: u32,
    ncols: u32,
    /// Row-major sorted, duplicate-free `(row, col, value)` triplets.
    entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    /// Creates an empty matrix of the given shape.
    pub fn new(nrows: u32, ncols: u32) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Builds a matrix from raw triplets, sorting and combining duplicates
    /// (by addition).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any coordinate exceeds
    /// the declared shape.
    pub fn from_entries(
        nrows: u32,
        ncols: u32,
        mut entries: Vec<(u32, u32, f64)>,
    ) -> Result<Self, TensorError> {
        for &(r, c, _) in &entries {
            if r >= nrows || c >= ncols {
                return Err(TensorError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows,
                    ncols,
                });
            }
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        entries.dedup_by(|next, kept| {
            if next.0 == kept.0 && next.1 == kept.1 {
                kept.2 += next.2;
                true
            } else {
                false
            }
        });
        Ok(CooMatrix {
            nrows,
            ncols,
            entries,
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
        self.entries.len()
    }

    /// The sorted, duplicate-free triplets.
    pub fn entries(&self) -> &[(u32, u32, f64)] {
        &self.entries
    }

    /// Consumes the matrix, returning its triplets.
    pub fn into_entries(self) -> Vec<(u32, u32, f64)> {
        self.entries
    }

    /// Inserts (accumulating on duplicate coordinates) a single entry.
    ///
    /// This is `O(n)` in the worst case; bulk construction should go through
    /// [`CooMatrix::from_entries`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for coordinates outside the
    /// matrix shape.
    pub fn insert(&mut self, row: u32, col: u32, value: f64) -> Result<(), TensorError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(TensorError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        match self
            .entries
            .binary_search_by_key(&(row, col), |&(r, c, _)| (r, c))
        {
            Ok(pos) => self.entries[pos].2 += value,
            Err(pos) => self.entries.insert(pos, (row, col, value)),
        }
        Ok(())
    }

    /// Converts to CSR (delegates to [`CsrMatrix::from_coo`]).
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_coo(self)
    }

    /// Converts to CSC (delegates to [`CscMatrix::from_coo`]).
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix::from_coo(self)
    }

    /// Returns the transpose (entries with row/col swapped).
    pub fn transpose(&self) -> CooMatrix {
        let entries = self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect();
        // Re-sorting happens in from_entries; coordinates are in range by
        // construction so the unwrap cannot fire.
        CooMatrix::from_entries(self.ncols, self.nrows, entries)
            .expect("transpose preserves bounds")
    }

    /// Applies a symmetric permutation: entry `(r, c)` moves to
    /// `(perm[r], perm[c])`. `perm` maps *old* index → *new* index.
    ///
    /// Entries are bucketed by new row with a counting sort and each row
    /// is then sorted by new column; a bijection cannot create duplicate
    /// coordinates, so no merge pass is needed.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, or if `perm` is not a
    /// permutation of `0..nrows` (callers in this crate always reorder
    /// adjacency matrices).
    pub fn permute_symmetric(&self, perm: &[u32]) -> CooMatrix {
        let n = self.nrows as usize;
        assert_eq!(perm.len(), n, "permutation length must equal nrows");
        assert_eq!(
            self.nrows, self.ncols,
            "symmetric permutation needs a square matrix"
        );
        let mut seen = vec![false; n];
        for &p in perm {
            let slot = seen
                .get_mut(p as usize)
                .expect("permutation entries must be below nrows");
            assert!(!*slot, "permutation maps two indices to {p}");
            *slot = true;
        }

        let mut ptr = vec![0usize; n + 1];
        for &(r, _, _) in &self.entries {
            ptr[perm[r as usize] as usize + 1] += 1;
        }
        for r in 0..n {
            ptr[r + 1] += ptr[r];
        }
        let mut fill = ptr[..n].to_vec();
        let mut entries = vec![(0u32, 0u32, 0.0f64); self.entries.len()];
        for &(r, c, v) in &self.entries {
            let row = perm[r as usize];
            let slot = &mut fill[row as usize];
            entries[*slot] = (row, perm[c as usize], v);
            *slot += 1;
        }
        for bounds in ptr.windows(2) {
            entries[bounds[0]..bounds[1]].sort_unstable_by_key(|&(_, c, _)| c);
        }
        CooMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            entries,
        }
    }

    /// Total bytes this matrix would occupy in memory as plain COO
    /// (two 4-byte coordinates plus an 8-byte value per entry).
    pub fn storage_bytes(&self) -> usize {
        self.nnz() * (2 * crate::COORD_BYTES + crate::VALUE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_bounds() {
        let err = CooMatrix::from_entries(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, TensorError::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn sorts_and_accumulates_duplicates() {
        let m = CooMatrix::from_entries(
            3,
            3,
            vec![(2, 1, 1.0), (0, 0, 1.0), (2, 1, 2.5), (1, 2, -1.0)],
        )
        .unwrap();
        assert_eq!(m.entries(), &[(0, 0, 1.0), (1, 2, -1.0), (2, 1, 3.5)][..]);
    }

    #[test]
    fn insert_accumulates_and_keeps_order() {
        let mut m = CooMatrix::new(3, 3);
        m.insert(1, 1, 2.0).unwrap();
        m.insert(0, 2, 1.0).unwrap();
        m.insert(1, 1, 3.0).unwrap();
        assert_eq!(m.entries(), &[(0, 2, 1.0), (1, 1, 5.0)][..]);
        assert!(m.insert(3, 0, 1.0).is_err());
    }

    #[test]
    fn transpose_roundtrips() {
        let m = CooMatrix::from_entries(2, 3, vec![(0, 2, 7.0), (1, 0, 3.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.entries(), &[(0, 1, 3.0), (2, 0, 7.0)][..]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn symmetric_permutation_relabels_both_sides() {
        let m = CooMatrix::from_entries(3, 3, vec![(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        // perm: 0->2, 1->0, 2->1
        let p = m.permute_symmetric(&[2, 0, 1]);
        assert_eq!(p.entries(), &[(0, 1, 2.0), (2, 0, 1.0)][..]);
    }

    #[test]
    fn storage_bytes_counts_triplets() {
        let m = CooMatrix::from_entries(4, 4, vec![(0, 1, 1.0), (2, 3, 2.0)]).unwrap();
        assert_eq!(m.storage_bytes(), 2 * 16);
    }
}
