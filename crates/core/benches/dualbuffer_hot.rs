//! `dualbuffer_hot`: arena-backed [`sparsepipe_core::dualbuffer::DualBuffer`]
//! vs the legacy `BTreeMap` oracle on the two hot access patterns of an
//! OEI pass:
//!
//! * **OS pattern** — an upper-triangular-heavy matrix: almost every
//!   element is below the IS frontier when its column is fetched, so the
//!   pass is dominated by CSC fetch/consume (column residency traffic).
//! * **IS pattern** — a lower-triangular-heavy matrix: every element
//!   enters the CSR space and drains through per-row windows, so the
//!   pass is dominated by reservation/consume bookkeeping.
//!
//! The bench times itself (best-of-`REPS` wall clock per implementation),
//! asserts the two implementations agree bitwise, prints a summary, and
//! upserts the numbers into `BENCH_core.json` at the workspace root via
//! `sparsepipe_testutil::benchjson`.

use std::path::Path;
use std::time::Instant;

use sparsepipe_core::{oei::FusedPass, MatrixArena};
use sparsepipe_semiring::SemiringOp;
use sparsepipe_tensor::{gen, CooMatrix, DenseVector};
use sparsepipe_testutil::dualbuffer_oracle::legacy_buffered_pass;
use sparsepipe_trace::NullSink;

const N: u32 = 2048;
const NNZ: usize = 60_000;
const REPS: usize = 7;

/// Folds every entry of `m` into one triangle (duplicates merge), so
/// the pass is dominated by one of the two buffer spaces.
fn triangular(m: &CooMatrix, lower: bool) -> CooMatrix {
    let entries: Vec<(u32, u32, f64)> = m
        .entries()
        .iter()
        .map(|&(r, c, v)| {
            if lower {
                (r.max(c), r.min(c), v)
            } else {
                (r.min(c), r.max(c), v)
            }
        })
        .collect();
    CooMatrix::from_entries(m.nrows(), m.ncols(), entries).expect("coords in range")
}

fn best_of<F: FnMut() -> f64>(mut run: F) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0.0;
    for _ in 0..REPS {
        let start = Instant::now();
        checksum = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, checksum)
}

fn main() {
    let base = gen::uniform(N, N, NNZ, 42);
    let x: DenseVector = (0..N as usize)
        .map(|i| (i % 7) as f64 * 0.3 - 0.9)
        .collect();
    let ew = |_: usize, v: f64| v * 0.8 + 0.1;
    let (os, is) = (SemiringOp::MulAdd, SemiringOp::MulAdd);
    let mut fields = Vec::new();
    let (mut arena_total, mut legacy_total) = (0.0f64, 0.0f64);

    for (pattern, lower) in [("os", false), ("is", true)] {
        let m = triangular(&base, lower);
        let (csc, csr) = (m.to_csc(), m.to_csr());
        let arena = MatrixArena::from_coo(&m);
        let capacity = m.nnz() * 12 * 4; // generous: measure bookkeeping, not eviction

        let (arena_s, arena_sum) = best_of(|| {
            let (out, _) = FusedPass::new(&arena, os, is)
                .buffer(capacity)
                .run(&x, ew)
                .expect("square by construction");
            out.y2.iter().sum()
        });
        let (legacy_s, legacy_sum) = best_of(|| {
            let (out, _) = legacy_buffered_pass(&csc, &csr, &x, ew, os, is, capacity, NullSink)
                .expect("square by construction");
            out.y2.iter().sum()
        });
        assert_eq!(
            arena_sum.to_bits(),
            legacy_sum.to_bits(),
            "{pattern}: arena and legacy passes must agree bitwise"
        );

        arena_total += arena_s;
        legacy_total += legacy_s;
        let speedup = legacy_s / arena_s;
        let elems_per_s = m.nnz() as f64 / arena_s;
        println!(
            "dualbuffer_hot/{pattern}: arena {:.3} ms, legacy {:.3} ms, speedup {speedup:.2}x, \
             {:.1} Melem/s",
            arena_s * 1e3,
            legacy_s * 1e3,
            elems_per_s / 1e6
        );
        fields.push(format!(
            "\"{pattern}\": {{\"arena_s\": {arena_s:.6}, \"legacy_s\": {legacy_s:.6}, \
             \"speedup\": {speedup:.2}, \"elems_per_s\": {elems_per_s:.0}}}"
        ));
    }

    let overall = legacy_total / arena_total;
    println!("dualbuffer_hot/overall: {overall:.2}x (one OS-heavy + one IS-heavy pass)");
    // Pre-optimization numbers (before the partition_point prefix
    // splits in fetch_column / the fused driver's deferred scatter),
    // kept so the recorded JSON carries the delta, not just the level.
    const BASELINE_OS: f64 = 1.45;
    #[allow(clippy::approx_constant)] // measured speedup, not 2π
    const BASELINE_OVERALL: f64 = 6.28;
    let value = format!(
        "{{\"n\": {N}, \"nnz\": {NNZ}, \"reps\": {REPS}, \"speedup\": {overall:.2}, \
         \"baseline\": {{\"os_speedup\": {BASELINE_OS}, \"overall_speedup\": {BASELINE_OVERALL}}}, {}}}",
        fields.join(", ")
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_core.json");
    sparsepipe_testutil::benchjson::record(&path, "dualbuffer_hot", &value)
        .expect("BENCH_core.json is writable");
    println!("recorded dualbuffer_hot into {}", path.display());
}
