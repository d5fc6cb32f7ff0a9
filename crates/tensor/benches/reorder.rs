//! `reorder`: the offline GraphOrder preprocessing step (`graph_order`
//! with the 64-row window every dataset source uses, then
//! `permute_symmetric`) against the reference implementations in
//! `sparsepipe_testutil::reorder_oracle`, on two inputs:
//!
//! * **`wi@12`** — the largest Table-I matrix at 1/12 scale (~297 k rows,
//!   ~3.7 M nnz), the size the out-of-core path reorders;
//! * **`table1@64`** — all nine Table-I matrices at 1/64 scale, run one
//!   after another, as the Fig 14 sweep prepares them.
//!
//! The bench times itself (median of `REPS` wall-clock runs per
//! implementation, the two alternating), asserts the outputs are bitwise
//! equal, prints a summary, and upserts the numbers into
//! `BENCH_core.json` at the workspace root via
//! `sparsepipe_testutil::benchjson`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sparsepipe_tensor::{reorder, CooMatrix, MatrixId};
use sparsepipe_testutil::reorder_oracle as oracle;

const WINDOW: usize = 64;
const REPS: usize = 5;

/// GraphOrder plus the symmetric permutation it drives, through the
/// production kernels.
fn current(m: &CooMatrix) -> CooMatrix {
    let perm = reorder::graph_order(&m.to_csr(), WINDOW);
    m.permute_symmetric(&perm)
}

/// The same step through the reference implementations.
fn reference(m: &CooMatrix) -> CooMatrix {
    let perm = oracle::graph_order(&m.to_csr(), WINDOW);
    oracle::permute_symmetric(m, &perm)
}

fn same_bits(a: &CooMatrix, b: &CooMatrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.nnz() == b.nnz()
        && a.entries()
            .iter()
            .zip(b.entries())
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall clock of the reference (`before`) and production
/// (`after`) step over `matrices`, after checking their outputs agree.
fn measure(name: &str, matrices: &[CooMatrix]) -> String {
    for m in matrices {
        assert!(
            same_bits(&current(m), &reference(m)),
            "{name}: production and reference reorderings must agree bitwise"
        );
    }
    let time = |step: fn(&CooMatrix) -> CooMatrix| {
        let start = Instant::now();
        for m in matrices {
            black_box(step(black_box(m)));
        }
        start.elapsed().as_secs_f64()
    };
    let (mut before, mut after) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        if rep % 2 == 0 {
            before.push(time(reference));
            after.push(time(current));
        } else {
            after.push(time(current));
            before.push(time(reference));
        }
    }
    let (before_s, after_s) = (median(before), median(after));
    let speedup = before_s / after_s;
    let rows: u64 = matrices.iter().map(|m| u64::from(m.nrows())).sum();
    let nnz: usize = matrices.iter().map(CooMatrix::nnz).sum();
    println!(
        "reorder/{name}: {rows} rows, {nnz} nnz: before {before_s:.3} s, after {after_s:.3} s, \
         speedup {speedup:.2}x"
    );
    format!(
        "\"{name}\": {{\"matrices\": {}, \"rows\": {rows}, \"nnz\": {nnz}, \
         \"before_s\": {before_s:.4}, \"after_s\": {after_s:.4}, \"speedup\": {speedup:.2}}}",
        matrices.len()
    )
}

fn main() {
    let wi = [MatrixId::Wi.spec().generate(12)];
    let table1: Vec<CooMatrix> = MatrixId::ALL
        .iter()
        .map(|id| id.spec().generate(64))
        .collect();
    let fields = [measure("wi@12", &wi), measure("table1@64", &table1)];
    let value = format!(
        "{{\"window\": {WINDOW}, \"reps\": {REPS}, \"statistic\": \"median\", \
         \"before\": \"testutil reorder_oracle\", \"after\": \"sparsepipe_tensor::reorder\", {}}}",
        fields.join(", ")
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_core.json");
    sparsepipe_testutil::benchjson::record(&path, "reorder", &value)
        .expect("BENCH_core.json is writable");
    println!("recorded reorder into {}", path.display());
}
