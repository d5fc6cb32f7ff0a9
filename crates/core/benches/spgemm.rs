//! `spgemm`: the Gustavson `M ⊕.⊗ M` product on `co` and `bu` at 1/64
//! scale (the `sweep-mxm` matrices), under every semiring, three ways:
//!
//! * **before** — `sparsepipe_testutil::spgemm_oracle::spgemm`, the
//!   original loop with its linear duplicate-column scan;
//! * **sorted** — `sparsepipe_tensor::spgemm::spgemm`, the shared SPA
//!   kernel draining each row in column order into a CSR `C`;
//! * **count** — `MxmPlan::build` plus one `replay`, the engine's
//!   count-only path (kernel, residency window and timing, no `C`).
//!
//! The bench times itself (median and spread of `REPS` wall-clock runs
//! per path, the paths rotating order each rep), asserts the kernel and
//! the oracle agree bitwise and that the count path counts the oracle's
//! entries, prints a summary, and upserts the numbers into
//! `BENCH_core.json` at the workspace root via
//! `sparsepipe_testutil::benchjson`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sparsepipe_core::spgemm::{MxmParams, MxmPlan};
use sparsepipe_core::{MatrixArena, SparsepipeConfig};
use sparsepipe_semiring::SemiringOp;
use sparsepipe_tensor::{spgemm, CsrMatrix, MatrixId};
use sparsepipe_testutil::spgemm_oracle as oracle;
use sparsepipe_trace::NullSink;

const SCALE: u64 = 64;
const REPS: usize = 5;

fn same_bits(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.row_ptr() == b.row_ptr()
        && a.col_idx() == b.col_idx()
        && a.vals()
            .iter()
            .zip(b.vals())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `(median, (max - min) / median)` of the samples.
fn median_spread(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    (median, (samples[samples.len() - 1] - samples[0]) / median)
}

fn timed(run: impl FnOnce()) -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64()
}

/// Times the three paths on one matrix under one semiring and returns
/// its JSON record.
fn measure(id: MatrixId, csr: &CsrMatrix, arena: &MatrixArena, s: SemiringOp) -> String {
    let config = SparsepipeConfig::iso_gpu();
    let params = MxmParams {
        t_rows: config.subtensor_auto(csr.ncols(), csr.nnz()),
        ..MxmParams::default()
    };
    let want = oracle::spgemm(csr, csr, s).expect("square operands");
    let got = spgemm::spgemm(csr, csr, s).expect("square operands");
    assert!(
        same_bits(&got, &want),
        "{id:?}/{s:?}: kernel and oracle differ"
    );
    let plan = MxmPlan::build(arena, s, &config, params.t_rows);
    let stats = plan.stats();
    assert_eq!(stats.out_nnz, want.nnz() as u64, "{id:?}/{s:?}: count path");

    let before = || {
        black_box(oracle::spgemm(black_box(csr), csr, s).ok());
    };
    let sorted = || {
        black_box(spgemm::spgemm(black_box(csr), csr, s).ok());
    };
    let count = || {
        let plan = MxmPlan::build(black_box(arena), s, &config, params.t_rows);
        black_box(plan.replay(&config, &params, &mut NullSink));
    };
    let mut samples = [Vec::new(), Vec::new(), Vec::new()];
    for rep in 0..REPS {
        for k in 0..3 {
            let path = (rep + k) % 3;
            samples[path].push(match path {
                0 => timed(before),
                1 => timed(sorted),
                _ => timed(count),
            });
        }
    }
    let products = stats.intermediate_nnz as f64;
    let [before_s, sorted_s, count_s] = samples.map(median_spread);
    let name = format!("{}@{SCALE}/{s:?}", id.code());
    println!(
        "spgemm/{name}: {} Mproducts: before {:.4} s, sorted {:.4} s ({:.1}x), \
         count {:.4} s ({:.1}x)",
        products / 1e6,
        before_s.0,
        sorted_s.0,
        before_s.0 / sorted_s.0,
        count_s.0,
        before_s.0 / count_s.0,
    );
    let path = |(median, spread): (f64, f64)| {
        format!(
            "{{\"median_s\": {median:.5}, \"spread\": {spread:.3}, \"mproducts_per_s\": {:.1}}}",
            products / median / 1e6
        )
    };
    format!(
        "\"{name}\": {{\"products\": {}, \"out_nnz\": {}, \"before\": {}, \"sorted\": {}, \
         \"count\": {}, \"speedup_sorted\": {:.2}, \"speedup_count\": {:.2}}}",
        stats.intermediate_nnz,
        stats.out_nnz,
        path(before_s),
        path(sorted_s),
        path(count_s),
        before_s.0 / sorted_s.0,
        before_s.0 / count_s.0,
    )
}

fn main() {
    let mut fields = Vec::new();
    for id in [MatrixId::Co, MatrixId::Bu] {
        let m = id.spec().generate(SCALE);
        let (csr, arena) = (m.to_csr(), MatrixArena::from_coo(&m));
        for s in SemiringOp::ALL {
            fields.push(measure(id, &csr, &arena, s));
        }
    }
    let value = format!(
        "{{\"reps\": {REPS}, \"statistic\": \"median\", \"spread\": \"(max - min) / median\", \
         \"before\": \"testutil spgemm_oracle::spgemm\", \"sorted\": \"sparsepipe_tensor::spgemm\", \
         \"count\": \"MxmPlan::build + replay\", {}}}",
        fields.join(", ")
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_core.json");
    sparsepipe_testutil::benchjson::record(&path, "spgemm", &value)
        .expect("BENCH_core.json is writable");
    println!("recorded spgemm into {}", path.display());
}
