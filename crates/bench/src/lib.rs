//! Benchmark harness for the Sparsepipe evaluation.
//!
//! Regenerates every table and figure of the paper's §V–§VI. The
//! `experiments` binary (`cargo run -p sparsepipe-bench --release --bin
//! experiments -- all`) prints each artifact; the self-timed
//! `benches/mini_sweep.rs` times the cached and uncached sweep.
//!
//! # Scaling
//!
//! Experiments run at a configurable divisor of the paper's dataset sizes
//! (default 64; see `DESIGN.md` §3). The Sparsepipe buffer **and** the
//! CPU/GPU cache capacities are scaled by the same factor, preserving
//! every capacity-to-footprint ratio the results depend on. The scale is
//! printed in every table header.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod cli;
pub mod datasets;
pub mod einsum_corpus;
pub mod error;
pub mod executor;
pub mod experiments;
pub mod fault;
pub mod serve;
pub mod sweep;
pub mod table;

/// Geometric mean of a non-empty slice (ignores non-positive values).
///
/// ```
/// let g = sparsepipe_bench::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0, -1.0]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }
}
