//! Property-based invariants of the performance simulator itself: work
//! conservation, traffic bounds, and configuration monotonicity over
//! randomized matrices and configurations.

use proptest::prelude::*;
use sparsepipe::core::{
    pipeline::{PassParams, PassRequest, PassResult},
    plan::PassPlan,
    Preprocessing, SparsepipeConfig,
};
use sparsepipe::tensor::CooMatrix;

fn run_pass(plan: &PassPlan, config: &SparsepipeConfig, params: &PassParams) -> PassResult {
    PassRequest::new(plan, config).params(*params).run()
}

fn coo_matrix(max_n: u32, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    (8..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0.5f64..2.0), 1..max_nnz).prop_map(move |entries| {
            CooMatrix::from_entries(n, n, entries).expect("coords in range")
        })
    })
}

fn params() -> PassParams {
    PassParams {
        feature: 1.0,
        ewise_arith_per_elem: 2.0,
        ewise_iterations: 2.0,
        dense_flops_per_element: 0.0,
        vec_read_passes: 3.0,
        vec_write_passes: 2.0,
    }
}

fn cfg(buffer: usize, t: usize) -> SparsepipeConfig {
    SparsepipeConfig {
        subtensor_cols: t,
        ..SparsepipeConfig::iso_gpu()
            .with_buffer(buffer)
            .with_preprocessing(Preprocessing::none())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work conservation: regardless of buffer size, sub-tensor width, or
    /// structure, every element is processed exactly once by the OS core
    /// and once by the IS core per pass.
    #[test]
    fn work_conservation(m in coo_matrix(96, 400), t in 1usize..16, buf_kb in 1usize..64) {
        let plan = PassPlan::build(&m, t);
        let r = run_pass(&plan, &cfg(buf_kb << 10, t), &params());
        prop_assert_eq!(r.os_ops, m.nnz() as f64 * 2.0);
        prop_assert_eq!(r.is_ops, m.nnz() as f64 * 2.0);
    }

    /// Traffic bounds: matrix traffic is at least one image (every element
    /// fetched once) and at most two (each element evicted/refetched at
    /// most once per consumer pair).
    #[test]
    fn traffic_bounds(m in coo_matrix(96, 400), t in 1usize..16, buf_kb in 1usize..64) {
        let config = cfg(buf_kb << 10, t);
        let plan = PassPlan::build(&m, t);
        let r = run_pass(&plan, &config, &params());
        let fetch = config.fetch_bytes_per_element();
        let matrix_bytes =
            r.traffic.csc_bytes + r.traffic.csr_eager_bytes + r.traffic.refetch_bytes;
        let image = m.nnz() as f64 * fetch;
        prop_assert!(matrix_bytes >= image - 1e-6, "{} < {}", matrix_bytes, image);
        prop_assert!(matrix_bytes <= 2.0 * image + 1e-6, "{} > 2x{}", matrix_bytes, image);
    }

    /// With an ample buffer there are no evictions and no refetches.
    #[test]
    fn ample_buffer_never_evicts(m in coo_matrix(96, 400), t in 1usize..16) {
        let plan = PassPlan::build(&m, t);
        let r = run_pass(&plan, &cfg(64 << 20, t), &params());
        prop_assert_eq!(r.evictions, 0);
        prop_assert_eq!(r.traffic.refetch_bytes, 0.0);
    }

    /// Buffer occupancy never exceeds the configured capacity by more than
    /// one step's worth of loads (capacity is enforced at step end).
    #[test]
    fn occupancy_respects_capacity(m in coo_matrix(96, 300), buf_kb in 2usize..32) {
        let t = 4;
        let config = cfg(buf_kb << 10, t);
        let plan = PassPlan::build(&m, t);
        let r = run_pass(&plan, &config, &params());
        for (i, s) in r.steps.iter().enumerate() {
            prop_assert!(
                s.occupancy_bytes <= config.buffer_bytes as f64 + 1e-6,
                "step {}: occupancy {} exceeds capacity {}",
                i, s.occupancy_bytes, config.buffer_bytes
            );
        }
    }

    /// Cycle accounting: total cycles at least cover both the memory
    /// roofline and the bottleneck-stage compute.
    #[test]
    fn cycles_cover_roofline(m in coo_matrix(96, 400), t in 1usize..16) {
        let config = cfg(64 << 20, t);
        let plan = PassPlan::build(&m, t);
        let r = run_pass(&plan, &config, &params());
        let bpc = config.memory.bytes_per_cycle(config.clock_ghz);
        let mem_cycles = r.traffic.total_bytes() / bpc;
        prop_assert!(r.cycles + 1e-6 >= mem_cycles, "{} < {}", r.cycles, mem_cycles);
        let pes = config.pes_per_core as f64;
        prop_assert!(r.cycles >= r.os_ops / (2.0 * pes));
        prop_assert!(r.cycles >= r.ew_ops / pes);
    }
}
