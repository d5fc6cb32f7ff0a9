//! Quickstart: express PageRank as a tensor dataflow graph, verify the
//! OEI analysis, and simulate it on the Sparsepipe architecture.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sparsepipe::core::ReorderKind;
use sparsepipe::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic power-law graph (64k vertices, ~10 edges/vertex).
    let graph = sparsepipe::tensor::gen::power_law(65_536, 655_360, 1.2, 0.4, 42);
    println!("graph: {} vertices, {} edges", graph.nrows(), graph.nnz());

    // 2. PageRank's inner loop as a dataflow graph (the apps crate builds
    //    it; see `sparsepipe::frontend::GraphBuilder` to write your own).
    let app = sparsepipe::apps::pagerank::app(20);
    let program = app.compile()?;
    println!(
        "compiled: OS semiring = {}, OEI = {}, cross-iteration = {}, {} e-wise instr/element",
        program.os_semiring,
        program.profile.has_oei,
        program.profile.cross_iteration,
        program.ewise_arithmetic_per_element(),
    );

    // 3. Functional run through the reference interpreter.
    let bindings = app.bindings(&graph);
    let out = sparsepipe::frontend::interp::run(&app.graph, &bindings, 20)?;
    let pr = out["pr"].as_vector().expect("pr is a vector");
    let top = pr
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite ranks"))
        .expect("non-empty");
    println!("highest-rank vertex: {} (rank {:.5})", top.0, top.1);

    // 4. Performance simulation on the Sparsepipe architecture, after the
    //    offline GraphOrder row reordering (§IV-E1).
    let reordered = ReorderKind::GraphOrder.apply(&graph);
    let config = SparsepipeConfig::iso_gpu();
    let outcome = SimRequest::new(&program, &reordered)
        .iterations(20)
        .config(config)
        .run()?;
    let report = outcome.report;
    println!("\n--- Sparsepipe (iso-GPU, 64 MB buffer) ---");
    println!("cycles:              {}", report.total_cycles);
    println!("runtime:             {:.3} ms", report.runtime_s * 1e3);
    println!(
        "matrix loads/iter:   {:.3}  (cross-iteration reuse: 1 fetch serves 2 iterations)",
        report.matrix_loads_per_iteration
    );
    println!(
        "bandwidth util:      {:.1}%",
        report.avg_bw_utilization * 100.0
    );
    println!(
        "DRAM traffic:        {:.2} MB ({:.2} MB refetched after eviction)",
        report.traffic.total_bytes() / 1e6,
        report.traffic.refetch_bytes / 1e6
    );
    println!(
        "energy:              {:.3} mJ ({:.0}% memory)",
        report.energy.total_j() * 1e3,
        100.0 * report.energy.memory_pj / report.energy.total_pj()
    );
    for note in outcome.schedule.notes() {
        println!("schedule:            {note}");
    }
    println!(
        "host:                {:.1} ms wall, {} pipeline steps, {} modeled passes",
        outcome.telemetry.wall_s * 1e3,
        outcome.telemetry.sim_steps,
        outcome.telemetry.modeled_passes
    );
    Ok(())
}
