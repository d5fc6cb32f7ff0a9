//! Iterative solver study: conjugate gradient on an SPD system.
//!
//! CG is one of the two paper workloads that *cannot* use the OEI dataflow
//! (Table III): its step size `α = rᵀr / pᵀAp` is a scalar computed from
//! this iteration's `vxm` output and consumed by this iteration's vector
//! updates — a full-vector dependency on the path between consecutive
//! `vxm`s. This example shows (a) the analysis detecting that, (b) the
//! functional solve converging, and (c) the simulator falling back to
//! per-iteration matrix streaming (producer-consumer reuse only).
//!
//! ```text
//! cargo run --release --example iterative_solver
//! ```

use sparsepipe::core::ReorderKind;
use sparsepipe::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An SPD system A·x = 1 (diagonally dominant, symmetric).
    let a = sparsepipe::apps::cg::spd_matrix(50_000, 3);
    println!("SPD system: n={}, nnz={}", a.nrows(), a.nnz());

    // (a) dataflow analysis
    let app = sparsepipe::apps::cg::app(24);
    let program = app.compile()?;
    println!(
        "OEI admitted: {}   (the dot-derived α gates the vxm-to-vxm path)",
        program.profile.has_oei
    );
    println!(
        "e-wise fusion still applies: {} fused groups, {} vector passes/iter fused vs {} unfused",
        program.ewise_programs.len(),
        program.profile.fused_vector_reads + program.profile.fused_vector_writes,
        program.profile.unfused_vector_reads + program.profile.unfused_vector_writes,
    );

    // (b) functional solve via the scalar reference
    for iters in [4, 12, 24] {
        let x = sparsepipe::apps::cg::reference(&a, iters);
        let ax = a.to_csc().vxm::<sparsepipe::semiring::MulAdd>(&x)?;
        let resid = ax.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
        println!("after {iters:>2} iterations: max residual {resid:.3e}");
    }

    // (c) simulation, after offline GraphOrder reordering: the matrix
    //     streams once per iteration
    let reordered = ReorderKind::GraphOrder.apply(&a);
    let report = SimRequest::new(&program, &reordered)
        .iterations(24)
        .run()?
        .report;
    println!(
        "\nsimulated 24 iterations: {:.3} ms, matrix loads/iteration = {:.2} (no cross-iteration reuse)",
        report.runtime_s * 1e3,
        report.matrix_loads_per_iteration
    );

    // contrast with an OEI app on the same matrix
    let pr = sparsepipe::apps::pagerank::app(24);
    let pr_prog = pr.compile()?;
    let pr_report = SimRequest::new(&pr_prog, &reordered)
        .iterations(24)
        .run()?
        .report;
    println!(
        "PageRank on the same matrix: matrix loads/iteration = {:.2} (OEI halves it)",
        pr_report.matrix_loads_per_iteration
    );
    Ok(())
}
