//! Graph-analytics workload study: run BFS, SSSP, PageRank, and k-core on
//! a road-network-like graph and compare Sparsepipe against the idealized
//! sparse accelerator and the CPU model — a miniature of the paper's
//! Fig 14/16 for one dataset.
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```

use sparsepipe::baselines::cpu::CpuModel;
use sparsepipe::baselines::ideal::IdealAccelerator;
use sparsepipe::baselines::WorkloadInstance;
use sparsepipe::core::ReorderKind;
use sparsepipe::prelude::*;
use sparsepipe::tensor::MatrixStats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A road-network-like graph: short edges, near-uniform degree — the
    // friendliest structure for OEI (tiny live windows).
    let graph = sparsepipe::tensor::gen::road(200_000, 1_200_000, 0.01, 7);
    let stats = MatrixStats::compute(&graph);
    println!(
        "road graph: n={}, nnz={}, mean span={:.0}, skew={:.1}",
        graph.nrows(),
        graph.nnz(),
        stats.mean_span,
        stats.row_skew
    );
    // OEI live-set: how much of the matrix must stay on chip?
    let live = sparsepipe::tensor::livesweep::sweep(&graph);
    println!(
        "OEI live set: max {:.1}% / avg {:.1}% of nnz\n",
        live.max_percent(),
        live.avg_percent()
    );

    // Sparsepipe runs on the matrix after offline GraphOrder reordering.
    let reordered = ReorderKind::GraphOrder.apply(&graph);
    let config = SparsepipeConfig::iso_gpu();
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>12} {:>10}",
        "app", "sparsepipe", "ideal-accel", "speedup-ideal", "cpu-model", "vs-cpu"
    );
    for app in [
        sparsepipe::apps::bfs::app(12),
        sparsepipe::apps::sssp::app(16),
        sparsepipe::apps::pagerank::app(20),
        sparsepipe::apps::kcore::app(16),
    ] {
        let program = app.compile()?;
        let report = SimRequest::new(&program, &reordered)
            .iterations(app.default_iterations)
            .config(config)
            .run()?
            .report;
        let w = WorkloadInstance {
            profile: &program.profile,
            n: graph.nrows() as u64,
            nnz: graph.nnz() as u64,
            stats: &stats,
            iterations: app.default_iterations,
            mxm: None,
        };
        let ideal = IdealAccelerator::new(config).evaluate(&w);
        let cpu = CpuModel::default().evaluate(&w);
        println!(
            "{:<8} {:>9.3} ms {:>9.3} ms {:>13.2}x {:>9.2} ms {:>9.1}x",
            app.name,
            report.runtime_s * 1e3,
            ideal.runtime_s * 1e3,
            ideal.runtime_s / report.runtime_s,
            cpu.runtime_s * 1e3,
            cpu.runtime_s / report.runtime_s,
        );
    }
    println!(
        "\ncross-iteration reuse halves matrix traffic for every OEI app; the\n\
         ideal accelerator re-reads the matrix each iteration (its roofline)."
    );
    Ok(())
}
