//! Differential suite for the Gustavson SPA kernel: the tensor-level
//! `spgemm`, the materialising [`MxmRequest`] and the engine's
//! count-only [`MxmPlan`] must be bitwise equal to the original
//! quadratic loops in `sparsepipe_testutil::spgemm_oracle` — values,
//! `MxmStats`, every field of the timing `PassResult`, and the trace
//! event stream — under every semiring.

use proptest::prelude::*;
use sparsepipe_core::pipeline::PassResult;
use sparsepipe_core::spgemm::{MxmParams, MxmPlan, MxmRequest, MxmStats};
use sparsepipe_core::{MatrixArena, SparsepipeConfig};
use sparsepipe_semiring::SemiringOp;
use sparsepipe_tensor::spgemm::spgemm;
use sparsepipe_tensor::{CooMatrix, CsrMatrix};
use sparsepipe_testutil::{coo_matrix, corpus, spgemm_oracle as oracle};
use sparsepipe_trace::{MemorySink, NullSink};

/// Every `f64` of a pass, as bits, in a fixed order.
fn pass_bits(p: &PassResult) -> Vec<u64> {
    let t = &p.traffic;
    let mut bits = vec![
        p.cycles.to_bits(),
        t.csc_bytes.to_bits(),
        t.csr_eager_bytes.to_bits(),
        t.refetch_bytes.to_bits(),
        t.vector_bytes.to_bits(),
        t.writeback_bytes.to_bits(),
        p.evictions,
        p.repacks,
        p.buffer_peak_bytes.to_bits(),
        p.buffer_avg_bytes.to_bits(),
        p.os_ops.to_bits(),
        p.ew_ops.to_bits(),
        p.is_ops.to_bits(),
        p.sram_bytes.to_bits(),
        p.steps.len() as u64,
    ];
    for s in &p.steps {
        bits.extend([
            s.cycles.to_bits(),
            s.csc_bytes.to_bits(),
            s.csr_bytes.to_bits(),
            s.vec_bytes.to_bits(),
            s.occupancy_bytes.to_bits(),
        ]);
    }
    bits
}

fn stats_bits(s: &MxmStats) -> [u64; 4] {
    [
        s.intermediate_nnz,
        s.out_nnz,
        u64::from(s.peak_accumulator_cols),
        s.expansion_factor.to_bits(),
    ]
}

fn assert_same_matrix(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols(), got.row_ptr()),
        (want.nrows(), want.ncols(), want.row_ptr()),
        "{what}: shape or row pointers"
    );
    assert_eq!(got.col_idx(), want.col_idx(), "{what}: columns");
    // Rust leaves the sign and payload of a NaN result unspecified (the
    // compiler may commute an addition), so NaNs compare as one class.
    let bits = |m: &CsrMatrix| {
        m.vals()
            .iter()
            .map(|v| {
                if v.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(got), bits(want), "{what}: values");
}

/// `tensor::spgemm(a, b)` against the oracle, for every semiring.
fn check_kernel(a: &CsrMatrix, b: &CsrMatrix, what: &str) {
    for s in SemiringOp::ALL {
        match (spgemm(a, b, s), oracle::spgemm(a, b, s)) {
            (Ok(got), Ok(want)) => assert_same_matrix(&got, &want, &format!("{what}/{s:?}")),
            (Err(_), Err(_)) => {}
            (got, want) => panic!("{what}/{s:?}: kernel {got:?}, oracle {want:?}"),
        }
    }
}

/// The square stage paths against the oracle's pass: `MxmRequest` (C
/// built, traced and untraced) and the count-only plan replay, for every
/// semiring, at `t_rows`, under `config`, at both fusion widths, with
/// and without a rider.
fn check_stage(m: &CooMatrix, config: &SparsepipeConfig, t_rows: usize, what: &str) {
    let arena = MatrixArena::from_coo(m);
    let csr = m.to_csr();
    for s in SemiringOp::ALL {
        let plan = MxmPlan::build(&arena, s, config, t_rows);
        let kernel = spgemm(&csr, &csr, s).expect("square operands");
        for (fused_iterations, ewise_matrix_passes) in [(1.0, 0.0), (2.0, 1.0)] {
            let params = MxmParams {
                fused_iterations,
                ewise_matrix_passes,
                t_rows,
            };
            let ctx = format!("{what}/{s:?}/t={t_rows}/fused={fused_iterations}");
            let mut want_events = MemorySink::new();
            let want = oracle::mxm_pass(&arena, s, config, &params, &mut want_events);
            assert_same_matrix(&kernel, &want.result, &format!("{ctx}: kernel"));

            let mut got_events = MemorySink::new();
            let got = MxmRequest::new(&arena, s, config)
                .params(params)
                .run_traced(&mut got_events);
            assert_same_matrix(&got.result, &want.result, &format!("{ctx}: request"));
            assert_eq!(
                stats_bits(&got.stats),
                stats_bits(&want.stats),
                "{ctx}: request stats"
            );
            assert_eq!(
                pass_bits(&got.pass),
                pass_bits(&want.pass),
                "{ctx}: request pass"
            );
            assert_eq!(
                got_events.events(),
                want_events.events(),
                "{ctx}: request events"
            );
            let untraced = MxmRequest::new(&arena, s, config).params(params).run();
            assert_eq!(
                pass_bits(&untraced.pass),
                pass_bits(&want.pass),
                "{ctx}: untraced"
            );

            let mut plan_events = MemorySink::new();
            let replayed = plan.replay(config, &params, &mut plan_events);
            assert_eq!(
                stats_bits(&plan.stats()),
                stats_bits(&want.stats),
                "{ctx}: plan stats"
            );
            assert_eq!(
                pass_bits(&replayed),
                pass_bits(&want.pass),
                "{ctx}: plan pass"
            );
            assert_eq!(
                plan_events.events(),
                want_events.events(),
                "{ctx}: plan events"
            );
            let quiet = plan.replay(config, &params, &mut NullSink);
            assert_eq!(
                pass_bits(&quiet),
                pass_bits(&want.pass),
                "{ctx}: quiet replay"
            );
        }
    }
}

fn config() -> SparsepipeConfig {
    SparsepipeConfig::iso_gpu()
}

fn tight() -> SparsepipeConfig {
    SparsepipeConfig::iso_gpu().with_buffer(8 << 10)
}

fn coo(n: u32, entries: Vec<(u32, u32, f64)>) -> CooMatrix {
    CooMatrix::from_entries(n, n, entries).expect("coordinates in range")
}

#[test]
fn cancelling_rows_are_touched_and_dropped() {
    // Row 0 accumulates 1, -1, 1 into column 4: it cancels to exactly
    // zero, is touched again and survives as 1. Row 5 cancels and stays
    // cancelled: a live accumulator column with no output entry.
    let m = coo(
        6,
        vec![
            (0, 1, 1.0),
            (0, 2, -1.0),
            (0, 3, 1.0),
            (1, 4, 1.0),
            (2, 4, 1.0),
            (3, 4, 1.0),
            (5, 1, 1.0),
            (5, 2, -1.0),
        ],
    );
    let c = spgemm(&m.to_csr(), &m.to_csr(), SemiringOp::MulAdd).unwrap();
    assert_eq!(c.row(0), (&[4u32][..], &[1.0][..]));
    assert_eq!(c.row_nnz(5), 0);
    let plan = MxmPlan::build(&MatrixArena::from_coo(&m), SemiringOp::MulAdd, &config(), 1);
    assert_eq!(plan.stats().out_nnz, 1);
    assert_eq!(plan.stats().peak_accumulator_cols, 1);
    for t_rows in [1, 2, 6] {
        check_stage(&m, &config(), t_rows, "cancel");
        check_stage(&m, &tight(), t_rows, "cancel/tight");
    }
}

#[test]
fn special_values_match_under_every_semiring() {
    // -1e-200 · 1e-200 underflows to -0.0, which equals the MulAdd zero
    // and must be dropped; infinities exercise MinAdd's zero (∞) and
    // ∞ + -∞ = NaN; NaN itself must survive as a non-zero entry.
    let values = [
        1.0,
        -1.0,
        -1e-200,
        1e-200,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        0.5,
        1e300,
    ];
    let n = 12u32;
    let mut entries = Vec::new();
    for i in 0..n {
        for d in 0..4u32 {
            let j = (i * 5 + d * 3 + 1) % n;
            let v = values[((i * 7 + d) as usize) % values.len()];
            entries.push((i, j, v));
        }
    }
    entries.sort_by_key(|&(i, j, _)| (i, j));
    entries.dedup_by_key(|e| (e.0, e.1));
    let m = coo(n, entries);
    for t_rows in [1, 5, 12] {
        check_stage(&m, &config(), t_rows, "special");
    }
    // Underflow alone: the only product is -0.0, a touched but empty row.
    let m = coo(2, vec![(0, 1, -1e-200), (1, 0, 1e-200)]);
    let c = spgemm(&m.to_csr(), &m.to_csr(), SemiringOp::MulAdd).unwrap();
    assert_eq!(c.nnz(), 0, "-0.0 is the MulAdd zero");
    check_stage(&m, &config(), 1, "underflow");
    // MinAdd over infinities: ∞ + x stays ∞, the MinAdd zero.
    let m = coo(3, vec![(0, 1, f64::INFINITY), (1, 2, 3.0), (1, 0, 2.0)]);
    let c = spgemm(&m.to_csr(), &m.to_csr(), SemiringOp::MinAdd).unwrap();
    assert_eq!(c.row_nnz(0), 0, "∞ + 3 = ∞ is the MinAdd zero");
    check_stage(&m, &config(), 2, "minadd-inf");
}

#[test]
fn degenerate_and_rectangular_shapes() {
    for n in [0u32, 1] {
        let empty = coo(n, Vec::new());
        check_kernel(&empty.to_csr(), &empty.to_csr(), &format!("empty n={n}"));
        check_stage(&empty, &config(), 1, &format!("empty n={n}"));
    }
    let one = coo(1, vec![(0, 0, 3.0)]);
    check_kernel(&one.to_csr(), &one.to_csr(), "n=1");
    check_stage(&one, &config(), 4, "n=1");

    let a = CooMatrix::from_entries(5, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (3, 1, -1.0)]).unwrap();
    let b = CooMatrix::from_entries(3, 7, vec![(0, 6, 4.0), (1, 0, 1.0), (2, 6, -2.0)]).unwrap();
    check_kernel(&a.to_csr(), &b.to_csr(), "5x3 · 3x7");
    check_kernel(&b.to_csr(), &a.to_csr(), "3x7 · 5x3 (rejected)");
    let wide = corpus::zero_rows_rect(40, 64, 300, 5).to_csr();
    let tall = corpus::zero_rows_rect(64, 30, 300, 6).to_csr();
    check_kernel(&wide, &tall, "zero_rows_rect 40x64 · 64x30");
}

#[test]
fn corpus_matches_at_tight_and_ample_residency() {
    for (name, m) in corpus::edge_case_suite(48) {
        if m.nrows() != m.ncols() {
            check_kernel(&m.to_csr(), &m.transpose().to_csr(), name);
            continue;
        }
        check_kernel(&m.to_csr(), &m.to_csr(), name);
        for t_rows in [1, 7] {
            check_stage(&m, &config(), t_rows, name);
            check_stage(&m, &tight(), t_rows, name);
        }
    }
    let hub = corpus::power_law_rows(300, 4000, 1.8, 22);
    check_stage(&hub, &tight(), 13, "power_law_rows");
}

/// The engine's count-only path and the `C`-building path differ only
/// in how the accumulator drains; their statistics and timing must be
/// the same bits, with and without riders, at tight and ample residency.
#[test]
fn count_path_matches_materialising_path() {
    let m = corpus::power_law(600, 9000, 1.0, 0.4, 11);
    // ±1 values make exact cancellations common: the count drain must
    // drop cancelled columns exactly as the sorted drain does.
    let signed = coo(
        600,
        m.entries()
            .iter()
            .enumerate()
            .map(|(e, &(i, j, _))| (i, j, if e % 2 == 0 { 1.0 } else { -1.0 }))
            .collect(),
    );
    for (m, config) in [(&m, config()), (&m, tight()), (&signed, tight())] {
        let arena = MatrixArena::from_coo(m);
        for s in SemiringOp::ALL {
            let plan = MxmPlan::build(&arena, s, &config, 8);
            for riders in [0.0, 1.0, 2.0] {
                for fused_iterations in [1.0, 2.0] {
                    let params = MxmParams {
                        fused_iterations,
                        ewise_matrix_passes: riders,
                        t_rows: 8,
                    };
                    let built = MxmRequest::new(&arena, s, &config).params(params).run();
                    let counted = plan.replay(&config, &params, &mut NullSink);
                    let ctx = format!("{s:?}/riders={riders}/fused={fused_iterations}");
                    assert_eq!(stats_bits(&plan.stats()), stats_bits(&built.stats), "{ctx}");
                    assert_eq!(pass_bits(&counted), pass_bits(&built.pass), "{ctx}");
                }
            }
        }
    }
    let out_nnz = |m: &CooMatrix, s| {
        MxmPlan::build(&MatrixArena::from_coo(m), s, &tight(), 8)
            .stats()
            .out_nnz
    };
    assert!(
        out_nnz(&signed, SemiringOp::MulAdd) < out_nnz(&signed, SemiringOp::AndOr),
        "the signed matrix must cancel somewhere"
    );
    let pass = MxmPlan::build(&MatrixArena::from_coo(&m), SemiringOp::MulAdd, &tight(), 8).replay(
        &tight(),
        &MxmParams {
            t_rows: 8,
            ..MxmParams::default()
        },
        &mut NullSink,
    );
    assert!(pass.evictions > 0, "the tight window must evict");
}

proptest! {
    #![proptest_config(sparsepipe_testutil::config())]

    #[test]
    fn random_square_matrices_match(
        m in coo_matrix(40, 240),
        t_rows in 1usize..24,
        tight_window in any::<bool>(),
    ) {
        let cfg = if tight_window { tight() } else { config() };
        check_kernel(&m.to_csr(), &m.to_csr(), "random");
        check_stage(&m, &cfg, t_rows, "random");
    }

    #[test]
    fn random_rectangular_products_match(
        dims in (1u32..20, 1u32..20, 1u32..20),
        ea in proptest::collection::vec((0u32..1000, 0u32..1000, -4.0f64..4.0), 0..80),
        eb in proptest::collection::vec((0u32..1000, 0u32..1000, -4.0f64..4.0), 0..80),
    ) {
        let (r, k, c) = dims;
        let place = |e: &[(u32, u32, f64)], rows: u32, cols: u32| {
            let entries = e.iter().map(|&(i, j, v)| (i % rows, j % cols, v)).collect();
            CooMatrix::from_entries(rows, cols, entries).unwrap().to_csr()
        };
        check_kernel(&place(&ea, r, k), &place(&eb, k, c), "random rect");
    }
}
