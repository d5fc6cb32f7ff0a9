//! `spgemm`: the Gustavson `M ⊕.⊗ M` product on `co` and `bu` at 1/64
//! scale (the `sweep-mxm` matrices), under every semiring, five ways:
//!
//! * **before** — `sparsepipe_testutil::spgemm_oracle::spgemm`, the
//!   original loop with its linear duplicate-column scan;
//! * **sorted** — `sparsepipe_tensor::spgemm::spgemm`, the shared SPA
//!   kernel draining each row in column order into a CSR `C`;
//! * **stamp** — the count kernel on `spgemm_oracle::StampSpa`, the
//!   accumulator whose first-touch append still branches;
//! * **census** — the same count kernel on the production
//!   `sparsepipe_tensor::spgemm::Spa` (branch-free append), the loop
//!   `MxmPlan::build` runs to take its per-row census;
//! * **count** — `MxmPlan::build` plus one `replay`, the engine's
//!   count-only path (census, residency window and timing, no `C`).
//!
//! The window pass is crate-private, so its time is derived: `count`
//! minus `census` within each rep (median, min and max). The bench times itself (median and
//! spread of `REPS` wall-clock runs per path, the paths rotating order
//! each rep), asserts the kernel and the oracle agree bitwise and that
//! every count path counts the oracle's entries, prints a summary, and
//! upserts the numbers into `BENCH_core.json` at the workspace root via
//! `sparsepipe_testutil::benchjson`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sparsepipe_core::spgemm::{MxmParams, MxmPlan};
use sparsepipe_core::{MatrixArena, SparsepipeConfig};
use sparsepipe_semiring::{AndOr, ArilAdd, MinAdd, MulAdd, Semiring, SemiringOp};
use sparsepipe_tensor::spgemm::{self, Spa};
use sparsepipe_tensor::{CsrMatrix, MatrixId};
use sparsepipe_testutil::spgemm_oracle::{self as oracle, StampSpa};
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

/// Count kernel: merges every row of `M ⊕.⊗ M` into one accumulator
/// and counts the surviving entries, like `MxmPlan::build`'s census.
macro_rules! count_kernel {
    ($name:ident, $spa:ident) => {
        fn $name<R: Semiring>(arena: &MatrixArena) -> u64 {
            let mut spa = $spa::<R>::new(arena.n());
            let mut out = 0;
            for i in 0..arena.n() {
                let (m_cols, m_vals) = arena.row(i);
                for (&k, &m_ik) in m_cols.iter().zip(m_vals) {
                    let (b_cols, b_vals) = arena.row(k);
                    spa.scatter(m_ik, b_cols, b_vals);
                }
                out += spa.drain_count();
            }
            out
        }
    };
}
count_kernel!(stamp_kernel, StampSpa);
count_kernel!(census_kernel, Spa);

/// The stamp and census kernels, monomorphised over `s`.
fn count_kernels(s: SemiringOp) -> [fn(&MatrixArena) -> u64; 2] {
    match s {
        SemiringOp::MulAdd => [stamp_kernel::<MulAdd>, census_kernel::<MulAdd>],
        SemiringOp::AndOr => [stamp_kernel::<AndOr>, census_kernel::<AndOr>],
        SemiringOp::MinAdd => [stamp_kernel::<MinAdd>, census_kernel::<MinAdd>],
        SemiringOp::ArilAdd => [stamp_kernel::<ArilAdd>, census_kernel::<ArilAdd>],
    }
}

/// Times the five paths on one matrix under one semiring and returns
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
    let [stamp_k, census_k] = count_kernels(s);
    for (what, out_nnz) in [
        ("count", stats.out_nnz),
        ("stamp", stamp_k(arena)),
        ("census", census_k(arena)),
    ] {
        assert_eq!(out_nnz, want.nnz() as u64, "{id:?}/{s:?}: {what} path");
    }

    let before = || {
        black_box(oracle::spgemm(black_box(csr), csr, s).ok());
    };
    let sorted = || {
        black_box(spgemm::spgemm(black_box(csr), csr, s).ok());
    };
    let stamp = || {
        black_box(stamp_k(black_box(arena)));
    };
    let census = || {
        black_box(census_k(black_box(arena)));
    };
    let count = || {
        let plan = MxmPlan::build(black_box(arena), s, &config, params.t_rows);
        black_box(plan.replay(&config, &params, &mut NullSink));
    };
    let mut samples: [Vec<f64>; 5] = Default::default();
    for rep in 0..REPS {
        for k in 0..5 {
            let path = (rep + k) % 5;
            samples[path].push(match path {
                0 => timed(before),
                1 => timed(sorted),
                2 => timed(stamp),
                3 => timed(census),
                _ => timed(count),
            });
        }
    }
    // Near zero and the difference of two noisy times, so its range is
    // recorded rather than a spread relative to the median.
    let mut window: Vec<f64> = samples[4]
        .iter()
        .zip(&samples[3])
        .map(|(count, census)| count - census)
        .collect();
    window.sort_by(f64::total_cmp);
    let products = stats.intermediate_nnz as f64;
    let [before_s, sorted_s, stamp_s, census_s, count_s] = samples.map(median_spread);
    let name = format!("{}@{SCALE}/{s:?}", id.code());
    println!(
        "spgemm/{name}: {} Mproducts: before {:.4} s, sorted {:.4} s ({:.1}x), \
         stamp {:.4} s, census {:.4} s ({:.2}x stamp), count {:.4} s ({:.1}x), \
         window {:.4} s",
        products / 1e6,
        before_s.0,
        sorted_s.0,
        before_s.0 / sorted_s.0,
        stamp_s.0,
        census_s.0,
        stamp_s.0 / census_s.0,
        count_s.0,
        before_s.0 / count_s.0,
        window[REPS / 2],
    );
    let path = |(median, spread): (f64, f64)| {
        format!(
            "{{\"median_s\": {median:.5}, \"spread\": {spread:.3}, \"mproducts_per_s\": {:.1}}}",
            products / median / 1e6
        )
    };
    format!(
        "\"{name}\": {{\"products\": {}, \"out_nnz\": {}, \"before\": {}, \"sorted\": {}, \
         \"stamp\": {}, \"census\": {}, \"count\": {}, \
         \"window\": {{\"median_s\": {:.5}, \"min_s\": {:.5}, \"max_s\": {:.5}}}, \
         \"speedup_sorted\": {:.2}, \"speedup_count\": {:.2}, \"speedup_census\": {:.2}}}",
        stats.intermediate_nnz,
        stats.out_nnz,
        path(before_s),
        path(sorted_s),
        path(stamp_s),
        path(census_s),
        path(count_s),
        window[REPS / 2],
        window[0],
        window[REPS - 1],
        before_s.0 / sorted_s.0,
        before_s.0 / count_s.0,
        stamp_s.0 / census_s.0,
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
         \"stamp\": \"count kernel on testutil spgemm_oracle::StampSpa\", \
         \"census\": \"count kernel on sparsepipe_tensor::spgemm::Spa\", \
         \"count\": \"MxmPlan::build + replay\", \"window\": \"count - census, per rep; median, min, max\", \
         \"speedup_census\": \"stamp / census\", {}}}",
        fields.join(", ")
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_core.json");
    sparsepipe_testutil::benchjson::record(&path, "spgemm", &value)
        .expect("BENCH_core.json is writable");
    println!("recorded spgemm into {}", path.display());
}
