//! GPU baseline: NVIDIA RTX 4070 running GraphBLAST / Gunrock (Fig 17 /
//! Fig 22).
//!
//! The GPU has Sparsepipe's bandwidth (504 GB/s GDDR6X) but: each operator
//! is a kernel launch; intermediates round-trip through DRAM (GraphBLAST
//! does not fuse across operators); sparse gathers and skewed degree
//! distributions depress achieved bandwidth; small frontiers/matrices
//! cannot fill the machine. No cross-iteration reuse is possible — the
//! matrix streams every iteration (the 36 MB L2 absorbs a sliver).

use sparsepipe_core::energy::{EnergyModel, EnergyTally};

use crate::{BaselineReport, WorkloadInstance};

/// Parameters of the GPU model.
#[derive(Debug, Clone, Copy)]
pub struct GpuModel {
    /// Peak memory bandwidth (RTX 4070: 504 GB/s).
    pub bw_gbps: f64,
    /// L2 cache capacity (RTX 4070: 36 MB).
    pub l2_bytes: f64,
    /// Achieved bandwidth fraction on well-occupied streaming kernels.
    /// A calibration input, not derived from a memory model (0.78 by
    /// default).
    pub stream_utilization: f64,
    /// Achieved fraction on irregular sparse kernels. A calibration
    /// input like `stream_utilization` (0.52 by default).
    pub gather_utilization: f64,
    /// Non-zeros needed to fully occupy the machine; smaller inputs scale
    /// utilization down (kernel tail effects, low occupancy).
    pub saturation_nnz: f64,
    /// Kernel launch + framework overhead per operator invocation.
    pub launch_overhead_s: f64,
    /// Sustained FP64-class sparse compute in Gflop/s.
    pub sparse_gflops: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel {
            bw_gbps: 504.0,
            l2_bytes: 36.0 * 1024.0 * 1024.0,
            stream_utilization: 0.78,
            gather_utilization: 0.52,
            saturation_nnz: 2_000_000.0,
            launch_overhead_s: 5e-6,
            sparse_gflops: 600.0,
        }
    }
}

impl GpuModel {
    /// Evaluates the model on a workload.
    pub fn evaluate(&self, w: &WorkloadInstance<'_>) -> BaselineReport {
        let n = w.n as f64;
        let nnz = w.nnz as f64;
        let _f = w.profile.feature_dim as f64;
        let iters = w.iterations as f64;

        let matrix_image = nnz * 12.0;
        let cached = (self.l2_bytes / matrix_image).min(0.5); // streaming L2 retains little
        let matrix_bytes = w.profile.matrix_passes as f64 * matrix_image * (1.0 - cached) * iters;
        // Unfused vector traffic: every operator round-trips DRAM.
        // (the unfused read/write counts are feature-scaled already)
        let vec_bytes =
            (w.profile.unfused_vector_reads + w.profile.unfused_vector_writes) * iters * n * 8.0;

        // SpGEMM surcharge: row gathers and the product matrix both move
        // at the irregular-kernel rate (GraphBLAST-class SpGEMM is
        // gather/scatter bound end to end).
        let mw = w.mxm_work();
        let mxm_bytes = (mw.b_read_bytes * (1.0 - cached) + mw.c_write_bytes) * iters;

        // Occupancy: small inputs cannot fill the machine.
        let occupancy = (nnz / self.saturation_nnz).clamp(0.15, 1.0).sqrt();
        let skew_penalty = (1.0 + (w.stats.row_skew.log2().max(0.0)) * 0.05).min(1.6);
        let matrix_bw = self.bw_gbps * 1e9 * self.gather_utilization * occupancy / skew_penalty;
        let vec_bw = self.bw_gbps * 1e9 * self.stream_utilization * occupancy;
        let mem_time = (matrix_bytes + mxm_bytes) / matrix_bw + vec_bytes / vec_bw;

        let compute_time = w.flops_per_iteration() * iters / (self.sparse_gflops * 1e9);
        let overhead = self.launch_overhead_s * w.profile.operators.len().max(3) as f64 * iters;
        let runtime = mem_time.max(compute_time) + overhead;

        let traffic = matrix_bytes + vec_bytes + mxm_bytes;
        let mut tally = EnergyTally::new(EnergyModel::default());
        tally.dram_read(traffic * 0.75);
        tally.dram_write(traffic * 0.25);
        tally.sram(2.5 * traffic);
        tally.compute(w.flops_per_iteration() * iters * 2.0);

        BaselineReport {
            runtime_s: runtime,
            traffic_bytes: traffic,
            bw_utilization: (traffic / (runtime * self.bw_gbps * 1e9)).min(1.0),
            energy: tally.breakdown(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_frontend::{compile, GraphBuilder};
    use sparsepipe_semiring::SemiringOp;
    use sparsepipe_tensor::{gen, MatrixStats};

    fn bfs_program() -> sparsepipe_frontend::SparsepipeProgram {
        let mut b = GraphBuilder::new();
        let fr = b.input_vector("frontier");
        let a = b.constant_matrix("A");
        let next = b.vxm(fr, a, SemiringOp::AndOr).unwrap();
        b.carry(next, fr).unwrap();
        compile(&b.build().unwrap(), 1).unwrap()
    }

    #[test]
    fn small_inputs_underutilize_the_gpu() {
        let program = bfs_program();
        let small = gen::uniform(5_000, 5_000, 50_000, 1);
        let stats_s = MatrixStats::compute(&small);
        let w_small = WorkloadInstance {
            profile: &program.profile,
            n: 5_000,
            nnz: 50_000,
            stats: &stats_s,
            iterations: 10,
            mxm: None,
        };
        let r_small = GpuModel::default().evaluate(&w_small);
        let w_big = WorkloadInstance {
            nnz: 50_000_000,
            n: 5_000_000,
            ..w_small
        };
        let r_big = GpuModel::default().evaluate(&w_big);
        assert!(r_small.bw_utilization < r_big.bw_utilization);
    }

    #[test]
    fn gpu_never_beats_its_own_roofline() {
        let program = bfs_program();
        let m = gen::uniform(100_000, 100_000, 1_000_000, 2);
        let stats = MatrixStats::compute(&m);
        let w = WorkloadInstance {
            profile: &program.profile,
            n: 100_000,
            nnz: m.nnz() as u64,
            stats: &stats,
            iterations: 10,
            mxm: None,
        };
        let r = GpuModel::default().evaluate(&w);
        assert!(r.runtime_s >= r.traffic_bytes / 504e9);
        assert!(r.bw_utilization <= 1.0);
    }
}
