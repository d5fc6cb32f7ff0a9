//! Visualize the OEI pipeline schedule (the paper's Fig 13) on a small
//! matrix: which sub-tensor each stage processes at each step, what the
//! loaders fetch, and how the buffer occupancy evolves — alongside the
//! *functional* sub-tensor execution proving the schedule computes the
//! same values as sequential operators.
//!
//! ```text
//! cargo run --release --example pipeline_schedule
//! ```

use sparsepipe::core::oei::FusedPass;
use sparsepipe::core::pipeline::{PassParams, PassRequest};
use sparsepipe::core::plan::PassPlan;
use sparsepipe::core::{MatrixArena, SparsepipeConfig};
use sparsepipe::semiring::SemiringOp;
use sparsepipe::tensor::{gen, DenseVector};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = gen::power_law(4096, 32_768, 1.0, 0.5, 9);
    let t_cols = 256;
    let plan = PassPlan::build(&m, t_cols);
    println!(
        "matrix n={} nnz={}, sub-tensor T={} → {} steps + 3 fill/drain\n",
        m.nrows(),
        m.nnz(),
        t_cols,
        plan.steps()
    );

    // ---- Fig 13: stage occupancy per step ----
    println!("step | CSC loader | OS core   | E-Wise    | IS core   ");
    println!("-----+------------+-----------+-----------+-----------");
    let show = |i: i64| -> String {
        if i >= 0 && (i as usize) < plan.steps() {
            format!("subtensor {i:<2}")
        } else {
            "idle".into()
        }
    };
    for s in 0..(plan.steps() as i64 + 3).min(10) {
        println!(
            "{:>4} | {:<10} | {:<9} | {:<9} | {:<9}",
            s,
            show(s), // CSC loader fetches step s's columns one step early…
            show(s - 1),
            show(s - 2),
            show(s - 3),
        );
    }
    println!("  …  (all four stages busy on different sub-tensors in steady state)\n");

    // ---- timing: per-step demand and buffer occupancy ----
    let config = SparsepipeConfig {
        subtensor_cols: t_cols,
        ..SparsepipeConfig::iso_gpu().with_buffer(256 << 10)
    };
    let params = PassParams {
        feature: 1.0,
        ewise_arith_per_elem: 3.0,
        ewise_iterations: 2.0,
        dense_flops_per_element: 0.0,
        vec_read_passes: 3.0,
        vec_write_passes: 2.0,
    };
    let result = PassRequest::new(&plan, &config).params(params).run();
    println!(
        "timing: {:.0} cycles for one pass (= two fused iterations)",
        result.cycles
    );
    println!("step | cycles | csc KB | eager KB | occupancy KB");
    for (i, s) in result.steps.iter().enumerate().step_by(plan.steps() / 8) {
        println!(
            "{:>4} | {:>6.1} | {:>6.2} | {:>8.2} | {:>8.1}",
            i,
            s.cycles,
            s.csc_bytes / 1024.0,
            s.csr_bytes / 1024.0,
            s.occupancy_bytes / 1024.0
        );
    }
    println!(
        "evictions: {}, repacks: {}, peak occupancy {:.1} KB of {} KB\n",
        result.evictions,
        result.repacks,
        result.buffer_peak_bytes / 1024.0,
        config.buffer_bytes / 1024
    );

    // ---- functional: the same schedule computes the right values ----
    let csc = m.to_csc();
    let x = DenseVector::filled(m.nrows() as usize, 1.0 / m.nrows() as f64);
    let wide = FusedPass::new(
        &MatrixArena::from_coo(&m),
        SemiringOp::MulAdd,
        SemiringOp::MulAdd,
    )
    .subtensor(t_cols)
    .run(&x, |_, v| v * 0.85 + 0.15)?;
    let y1 = csc.vxm::<sparsepipe::semiring::MulAdd>(&x)?;
    let x2: DenseVector = y1.iter().map(|&v| v * 0.85 + 0.15).collect();
    let y2 = csc.vxm::<sparsepipe::semiring::MulAdd>(&x2)?;
    let err = wide.y2.max_abs_diff(&y2)?;
    println!(
        "functional check: sub-tensor OEI schedule vs sequential operators: max |Δ| = {err:.2e}"
    );
    assert!(err < 1e-9);
    Ok(())
}
