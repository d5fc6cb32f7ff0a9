//! OEI live-set analysis (regenerates Table I of the paper).
//!
//! Under the OEI dataflow, element `A[r][c]` is consumed by the OS stage at
//! step `c` (when column `c` is processed) and by the IS stage at step `r`
//! (when row `r`'s scatter completes). Whichever access happens first brings
//! the element on chip; it must then stay resident until the *other* access
//! — i.e. it is **live** during steps `[min(r,c), max(r,c)]`.
//!
//! The maximum and average of the live-set size over all steps is the
//! "portion of sparse matrix need to be stored on-chip to enable
//! OS-ewise-IS dataflow" reported in Table I. It is also the quantity the
//! Sparsepipe buffer manager fights against: whenever it exceeds the buffer
//! capacity, eviction and re-fetching (memory ping-pong) begin.

use serde::{Deserialize, Serialize};

use crate::CooMatrix;

/// Result of an OEI live-set sweep.
///
/// # Example
///
/// ```
/// use sparsepipe_tensor::{CooMatrix, livesweep::sweep};
/// // A full anti-diagonal entry is live for the whole execution:
/// let m = CooMatrix::from_entries(4, 4, vec![(0, 3, 1.0)])?;
/// let stats = sweep(&m);
/// assert_eq!(stats.max_live, 1);
/// assert_eq!(stats.max_percent(), 100.0);
/// # Ok::<(), sparsepipe_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveStats {
    /// Total non-zeros in the matrix.
    pub nnz: usize,
    /// Maximum number of simultaneously-live elements over all steps.
    pub max_live: usize,
    /// Average number of live elements over all steps.
    pub avg_live: f64,
    /// Number of steps (the matrix dimension at column granularity).
    pub steps: usize,
}

impl LiveStats {
    /// Maximum live set as a percentage of `nnz` (Table I's `max (%)`).
    pub fn max_percent(&self) -> f64 {
        if self.nnz == 0 {
            0.0
        } else {
            100.0 * self.max_live as f64 / self.nnz as f64
        }
    }

    /// Average live set as a percentage of `nnz` (Table I's `avg (%)`).
    pub fn avg_percent(&self) -> f64 {
        if self.nnz == 0 {
            0.0
        } else {
            100.0 * self.avg_live / self.nnz as f64
        }
    }
}

/// Computes the live-set curve and returns summary statistics.
///
/// Runs in `O(nnz + n)` time and `O(n)` extra space.
///
/// # Panics
///
/// Panics if the matrix is not square (the OEI dataflow fuses `vxm`s over
/// the same square adjacency/system matrix).
pub fn sweep(m: &CooMatrix) -> LiveStats {
    summarize(live_curve(m), m.nnz())
}

/// Computes the full live-set curve: element `s` of the result is the
/// number of matrix elements resident on chip during step `s`.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn live_curve(m: &CooMatrix) -> Vec<usize> {
    assert_eq!(m.nrows(), m.ncols(), "OEI live sweep needs a square matrix");
    let n = m.nrows() as usize;
    if n == 0 {
        return Vec::new();
    }
    // delta[s] = (elements becoming live at s) - (elements dying after s-1)
    let mut delta = vec![0i64; n + 1];
    for &(r, c, _) in m.entries() {
        let birth = r.min(c) as usize;
        let death = r.max(c) as usize; // live through [birth, death]
        delta[birth] += 1;
        delta[death + 1] -= 1;
    }
    let mut curve = Vec::with_capacity(n);
    let mut live = 0i64;
    for d in delta.iter().take(n) {
        live += d;
        curve.push(live as usize);
    }
    curve
}

fn summarize(curve: Vec<usize>, nnz: usize) -> LiveStats {
    let steps = curve.len();
    let max_live = curve.iter().copied().max().unwrap_or(0);
    let avg_live = if steps == 0 {
        0.0
    } else {
        curve.iter().sum::<usize>() as f64 / steps as f64
    };
    LiveStats {
        nnz,
        max_live,
        avg_live,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn diagonal_elements_live_one_step() {
        let m = CooMatrix::from_entries(4, 4, vec![(1, 1, 1.0), (2, 2, 1.0)]).unwrap();
        let curve = live_curve(&m);
        assert_eq!(curve, vec![0, 1, 1, 0]);
        let s = sweep(&m);
        assert_eq!(s.max_live, 1);
        assert_eq!(s.avg_live, 0.5);
    }

    #[test]
    fn span_defines_live_window() {
        // (1, 3): live during steps 1, 2, 3.
        let m = CooMatrix::from_entries(5, 5, vec![(1, 3, 1.0)]).unwrap();
        assert_eq!(live_curve(&m), vec![0, 1, 1, 1, 0]);
    }

    #[test]
    fn symmetric_entries_overlap() {
        let m = CooMatrix::from_entries(4, 4, vec![(0, 2, 1.0), (2, 0, 1.0)]).unwrap();
        assert_eq!(live_curve(&m), vec![2, 2, 2, 0]);
    }

    #[test]
    fn uniform_random_peaks_near_half() {
        // For uniform coordinates, P(live at step n/2) = 1/2 per element —
        // this is why the paper's `ca` matrix shows 49.9% max.
        let m = gen::uniform(2000, 2000, 40_000, 8);
        let s = sweep(&m);
        assert!(
            (45.0..55.0).contains(&s.max_percent()),
            "uniform max live {}% not ≈50%",
            s.max_percent()
        );
        assert!(
            (28.0..38.0).contains(&s.avg_percent()),
            "uniform avg live {}% not ≈33%",
            s.avg_percent()
        );
    }

    #[test]
    fn banded_has_tiny_live_set() {
        let m = gen::banded(2000, 40_000, 20, 8);
        let s = sweep(&m);
        assert!(
            s.max_percent() < 5.0,
            "banded max live {}% unexpectedly large",
            s.max_percent()
        );
    }

    #[test]
    fn live_curve_is_consistent_with_brute_force() {
        let m = gen::uniform(60, 60, 300, 77);
        let curve = live_curve(&m);
        for s in 0..60u32 {
            let expected = m
                .entries()
                .iter()
                .filter(|&&(r, c, _)| r.min(c) <= s && s <= r.max(c))
                .count();
            assert_eq!(curve[s as usize], expected, "mismatch at step {s}");
        }
    }

    #[test]
    fn empty_matrix_sweeps_cleanly() {
        let m = CooMatrix::new(10, 10);
        let s = sweep(&m);
        assert_eq!(s.max_live, 0);
        assert_eq!(s.max_percent(), 0.0);
    }
}
