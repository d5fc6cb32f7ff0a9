//! Run the full stack on a *real* MatrixMarket file — the bundled
//! `data/sample.mtx` (a 500-vertex graph). The same path serves actual
//! SuiteSparse downloads: point `mm::read` (or the experiments CLI's
//! `--mtx` flag) at any `.mtx` file.
//!
//! ```text
//! cargo run --release --example real_matrix [path/to/matrix.mtx]
//! ```

use std::io::BufReader;

use sparsepipe::core::ReorderKind;
use sparsepipe::prelude::*;
use sparsepipe::tensor::{livesweep, mm, MatrixStats};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "data/sample.mtx".to_string());
    let file = std::fs::File::open(&path)?;
    let matrix = mm::read(BufReader::new(file))?;
    let stats = MatrixStats::compute(&matrix);
    println!(
        "{path}: {}x{}, {} non-zeros, avg degree {:.1}, skew {:.1}",
        matrix.nrows(),
        matrix.ncols(),
        matrix.nnz(),
        stats.avg_row_nnz,
        stats.row_skew
    );

    // Table-I-style live-set analysis, before and after GraphOrder.
    let before = livesweep::sweep(&matrix);
    let reordered = ReorderKind::GraphOrder.apply(&matrix);
    let after = livesweep::sweep(&reordered);
    println!(
        "OEI live set: max {:.1}% / avg {:.1}% of nnz (after GraphOrder: {:.1}% / {:.1}%)",
        before.max_percent(),
        before.avg_percent(),
        after.max_percent(),
        after.avg_percent()
    );

    // PageRank, functionally and on the simulated architecture.
    let app = sparsepipe::apps::pagerank::app(20);
    let out = sparsepipe::frontend::interp::run(&app.graph, &app.bindings(&matrix), 20)?;
    let pr = out["pr"].as_vector().expect("pr is a vector");
    let mut ranked: Vec<(usize, f64)> = pr.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite ranks"));
    println!("top-3 vertices by rank:");
    for (v, r) in ranked.iter().take(3) {
        println!("  vertex {v:>4}: {r:.4}");
    }

    let program = app.compile()?;
    let report = SimRequest::new(&program, &reordered)
        .iterations(20)
        .config(SparsepipeConfig::iso_gpu().with_buffer(256 << 10))
        .run()?
        .report;
    println!(
        "simulated on Sparsepipe: {:.1} µs, {:.2} matrix loads/iteration, {:.0}% bandwidth",
        report.runtime_s * 1e6,
        report.matrix_loads_per_iteration,
        report.avg_bw_utilization * 100.0
    );
    Ok(())
}
