//! Baseline cost models for the Sparsepipe evaluation (§V-B of the paper).
//!
//! The paper compares Sparsepipe against four reference points; this crate
//! implements each as an analytic cost model driven by the *same*
//! machine-independent
//! [`WorkloadProfile`](sparsepipe_frontend::WorkloadProfile) the
//! simulator uses, so every comparison is apples-to-apples on workload:
//!
//! * [`ideal::IdealAccelerator`] — "an idealized sparse accelerator that
//!   utilizes the same compute and memory bandwidth as Sparsepipe, but
//!   does not exploit inter-operator data reuse. This idealized sparse
//!   accelerator **always has the throughput as its roofline**" — the
//!   denominator of Fig 14.
//! * [`oracle::OracleAccelerator`] — perfect inter-operator reuse
//!   "irrespective of on-chip buffer size" (Fig 18's upper bound).
//! * [`cpu::CpuModel`] — the AMD 5800X3D running ALP/GraphBLAS with
//!   non-blocking (producer-consumer-fused) execution and a 96 MB V-cache
//!   (Fig 16/22).
//! * [`gpu::GpuModel`] — the RTX 4070 running GraphBLAST/Gunrock
//!   (Fig 17/22).
//!
//! [`area`] holds the published die areas behind Fig 20(b)'s
//! performance-per-area comparison.
//!
//! All models return a [`BaselineReport`] with runtime, traffic, achieved
//! bandwidth, and an energy breakdown comparable to the simulator's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod cpu;
pub mod gpu;
pub mod ideal;
pub mod oracle;

use serde::Serialize;
use sparsepipe_core::EnergyBreakdown;

/// Result of evaluating a baseline cost model on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BaselineReport {
    /// End-to-end runtime in seconds.
    pub runtime_s: f64,
    /// Total DRAM traffic in bytes.
    pub traffic_bytes: f64,
    /// Achieved fraction of peak memory bandwidth.
    pub bw_utilization: f64,
    /// Energy breakdown (compute / memory / cache-buffer).
    pub energy: EnergyBreakdown,
}

impl BaselineReport {
    /// Speedup of `other_runtime` relative to this baseline (>1 means the
    /// other system is faster).
    pub fn speedup_of(&self, other_runtime_s: f64) -> f64 {
        self.runtime_s / other_runtime_s
    }
}

/// Extra per-iteration work the workload's `mxm` (SpGEMM) passes add on
/// top of the `matrix_passes`-based accounting every model already
/// charges.
///
/// The Matrix-class accounting treats a matrix pass as one sweep of the
/// stored image plus `n`-vector operands. A Gustavson SpGEMM pass
/// additionally gathers stationary-operand rows, materializes a product
/// *matrix* instead of a vector, and performs one multiply-accumulate
/// per partial product. The bench sweep derives these from the exact
/// `O(nnz)` statics (`MatrixProfile`'s `spgemm_*` fields) so baselines
/// and simulator price the same work.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MxmWork {
    /// Bytes of stationary (right-operand) rows gathered per iteration.
    pub b_read_bytes: f64,
    /// Bytes of product-matrix writeback per iteration.
    pub c_write_bytes: f64,
    /// Arithmetic operations per iteration (2 per partial product).
    pub flops: f64,
}

impl MxmWork {
    /// No SpGEMM work (the default for the Table-III `vxm` apps).
    pub const ZERO: MxmWork = MxmWork {
        b_read_bytes: 0.0,
        c_write_bytes: 0.0,
        flops: 0.0,
    };
}

/// Static description of one workload instance, shared by all models.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInstance<'a> {
    /// The per-iteration profile from the frontend compiler.
    pub profile: &'a sparsepipe_frontend::WorkloadProfile,
    /// Matrix dimension (square).
    pub n: u64,
    /// Matrix non-zeros.
    pub nnz: u64,
    /// Structural statistics of the matrix (skew drives utilization
    /// penalties on CPU/GPU).
    pub stats: &'a sparsepipe_tensor::MatrixStats,
    /// Loop iterations.
    pub iterations: usize,
    /// SpGEMM surcharge, `None` for pure-`vxm` workloads.
    pub mxm: Option<MxmWork>,
}

impl<'a> WorkloadInstance<'a> {
    /// Bytes of one single-format (CSR) image of the matrix, 8-byte values.
    pub fn matrix_bytes(&self) -> f64 {
        self.nnz as f64 * 12.0
    }

    /// Bytes of one `n`-vector at the workload's feature width.
    pub fn vector_bytes(&self) -> f64 {
        self.n as f64 * 8.0 * self.profile.feature_dim as f64
    }

    /// Arithmetic operations per iteration (matrix + e-wise + dense +
    /// the SpGEMM surcharge).
    pub fn flops_per_iteration(&self) -> f64 {
        let f = self.profile.feature_dim as f64;
        self.profile.matrix_passes as f64 * self.nnz as f64 * 2.0 * f
            + self.n as f64
                * f
                * (self.profile.ewise_flops_per_element + self.profile.dense_flops_per_element)
            + self.mxm_work().flops
    }

    /// The SpGEMM surcharge, [`MxmWork::ZERO`] when absent.
    pub fn mxm_work(&self) -> MxmWork {
        self.mxm.unwrap_or(MxmWork::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_speedup_direction() {
        let r = BaselineReport {
            runtime_s: 2.0,
            traffic_bytes: 0.0,
            bw_utilization: 1.0,
            energy: EnergyBreakdown::default(),
        };
        assert_eq!(r.speedup_of(1.0), 2.0);
        assert_eq!(r.speedup_of(4.0), 0.5);
    }
}
