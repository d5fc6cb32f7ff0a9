//! Dense vector and matrix types.
//!
//! STA applications mix sparse matrices with dense vectors (PageRank's `pr`
//! vector) and dense feature matrices (GCN's activations). These types are
//! deliberately thin wrappers over `Vec<f64>` with shape checking.

use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::TensorError;

/// A dense vector of `f64` values.
///
/// # Example
///
/// ```
/// use sparsepipe_tensor::DenseVector;
/// let mut v = DenseVector::filled(3, 1.0);
/// v[1] = 5.0;
/// assert_eq!(v.as_slice(), &[1.0, 5.0, 1.0]);
/// assert_eq!(v.sum(), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseVector(Vec<f64>);

impl DenseVector {
    /// A vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        DenseVector(vec![0.0; n])
    }

    /// A vector of `n` copies of `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        DenseVector(vec![value; n])
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the elements as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Borrow the elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] on length mismatch.
    pub fn dot(&self, other: &DenseVector) -> Result<f64, TensorError> {
        if self.len() != other.len() {
            return Err(TensorError::DimensionMismatch {
                context: format!("dot: {} vs {}", self.len(), other.len()),
            });
        }
        Ok(self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum())
    }

    /// Maximum absolute difference against another vector (useful for
    /// convergence checks in tests).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] on length mismatch.
    pub fn max_abs_diff(&self, other: &DenseVector) -> Result<f64, TensorError> {
        if self.len() != other.len() {
            return Err(TensorError::DimensionMismatch {
                context: format!("max_abs_diff: {} vs {}", self.len(), other.len()),
            });
        }
        Ok(self
            .0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// Iterates over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.0.iter()
    }
}

impl From<Vec<f64>> for DenseVector {
    fn from(v: Vec<f64>) -> Self {
        DenseVector(v)
    }
}

impl FromIterator<f64> for DenseVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        DenseVector(iter.into_iter().collect())
    }
}

impl Index<usize> for DenseVector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for DenseVector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

/// A dense row-major matrix of `f64` values (GCN feature/weight matrices).
///
/// # Example
///
/// ```
/// use sparsepipe_tensor::DenseMatrix;
/// let mut m = DenseMatrix::zeros(2, 3);
/// m.set(1, 2, 7.0);
/// assert_eq!(m.get(1, 2), 7.0);
/// assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if
    /// `data.len() != nrows * ncols`.
    pub fn from_row_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self, TensorError> {
        if data.len() != nrows * ncols {
            return Err(TensorError::DimensionMismatch {
                context: format!(
                    "from_row_major: data len {} vs {}x{}",
                    data.len(),
                    nrows,
                    ncols
                ),
            });
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        self.data[r * self.ncols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        self.data[r * self.ncols + c] = v;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Borrow row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Dense matrix multiply `self · rhs` (used by GCN's `MM` stage).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if inner dimensions differ.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix, TensorError> {
        if self.ncols != rhs.nrows {
            return Err(TensorError::DimensionMismatch {
                context: format!(
                    "matmul: {}x{} · {}x{}",
                    self.nrows, self.ncols, rhs.nrows, rhs.ncols
                ),
            });
        }
        let mut out = DenseMatrix::zeros(self.nrows, rhs.ncols);
        for r in 0..self.nrows {
            for k in 0..self.ncols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(r);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Applies a function to every element in place.
    pub fn map_inplace<F: FnMut(f64) -> f64>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_ops() {
        let a = DenseVector::from(vec![1.0, 2.0, 3.0]);
        let b = DenseVector::from(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 3.0);
        assert!(a.dot(&DenseVector::zeros(2)).is_err());
    }

    #[test]
    fn vector_collects_from_iterator() {
        let v: DenseVector = (0..4).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn matrix_matmul() {
        let a = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_row_major(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_check() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn map_inplace_applies_elementwise() {
        let mut m = DenseMatrix::from_row_major(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        m.map_inplace(|v| v.max(0.0));
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0]);
    }
}
