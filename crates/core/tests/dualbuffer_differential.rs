//! The differential correctness harness: the flat-arena dual buffer vs.
//! the legacy `BTreeMap` implementation it replaced.
//!
//! The legacy buffer (`sparsepipe_testutil::dualbuffer_oracle`, test-only)
//! is the oracle: for every generated matrix and capacity, the arena fast
//! path must reproduce its functional output (`y1`/`x2`/`y2`) **bitwise**,
//! its [`DualBufferStats`] exactly, and its trace event stream
//! element-for-element. Any divergence — a reordered eviction, a
//! double-counted refetch byte, a differently-ordered accumulation —
//! fails here before it can perturb a figure.

use proptest::prelude::*;
use sparsepipe_core::dualbuffer::DualBufferStats;
use sparsepipe_core::{oei::FusedPass, MatrixArena};
use sparsepipe_semiring::SemiringOp;
use sparsepipe_tensor::{CooMatrix, DenseVector};
use sparsepipe_testutil::dualbuffer_oracle::legacy_buffered_pass;
use sparsepipe_trace::MemorySink;

/// Runs one pass through both implementations and checks every contract.
fn assert_equivalent(m: &CooMatrix, cap_frac: f64, os: SemiringOp, is: SemiringOp, label: &str) {
    let (csc, csr) = (m.to_csc(), m.to_csr());
    let n = m.nrows() as usize;
    let x: DenseVector = (0..n).map(|i| (i % 7) as f64 * 0.3 - 0.9).collect();
    let ew = |_: usize, v: f64| v * 0.8 + 0.1;
    let cap = ((m.nnz().max(1) * 12) as f64 * cap_frac) as usize + 48;

    let mut legacy_sink = MemorySink::new();
    let (legacy_out, legacy_stats) =
        legacy_buffered_pass(&csc, &csr, &x, ew, os, is, cap, &mut legacy_sink)
            .expect("legacy pass accepts square inputs");

    let arena = MatrixArena::from_parts(&csc, &csr);
    let mut arena_sink = MemorySink::new();
    let (arena_out, arena_stats) = FusedPass::new(&arena, os, is)
        .buffer(cap)
        .trace(&mut arena_sink)
        .run(&x, ew)
        .expect("arena pass accepts square inputs");

    for (name, l, a) in [
        ("y1", &legacy_out.y1, &arena_out.y1),
        ("x2", &legacy_out.x2, &arena_out.x2),
        ("y2", &legacy_out.y2, &arena_out.y2),
    ] {
        for (i, (lv, av)) in l.iter().zip(a.iter()).enumerate() {
            assert_eq!(
                lv.to_bits(),
                av.to_bits(),
                "{label}: {name}[{i}] diverged: legacy {lv} vs arena {av}"
            );
        }
    }
    assert_eq!(
        legacy_stats, arena_stats,
        "{label}: stats diverged (cap {cap})"
    );
    assert_eq!(
        legacy_sink.events(),
        arena_sink.events(),
        "{label}: event streams diverged (cap {cap})"
    );
    sanity(&legacy_stats, m);
}

/// Cheap envelope checks that catch a vacuously-passing differential (both
/// sides doing nothing identically): exactly one matrix image is demand-
/// fetched, refetch traffic never exceeds a second image, and a non-empty
/// matrix registers occupancy. (Peak vs. capacity is *not* bounded here —
/// enforcement runs after a column lands, and eviction can only reclaim
/// stored rows, so transient overshoot is legitimate on both sides.)
fn sanity(stats: &DualBufferStats, m: &CooMatrix) {
    let image = m.nnz() * 12;
    assert_eq!(stats.fetched_bytes, image);
    assert!(stats.refetch_bytes <= image);
    assert_eq!(stats.peak_bytes > 0, m.nnz() > 0);
}

proptest! {
    #![proptest_config(sparsepipe_testutil::config_with(256))]

    /// Random matrices at comfortable-to-starved capacities, over the two
    /// semiring pairs the registry apps actually schedule through the
    /// buffer.
    #[test]
    fn arena_matches_legacy_on_random_matrices(
        m in sparsepipe_testutil::coo_matrix(96, 600),
        cap_frac in 0.05f64..2.0,
        op_pair in 0usize..3,
    ) {
        let (os, is) = [
            (SemiringOp::MulAdd, SemiringOp::MulAdd),
            (SemiringOp::MulAdd, SemiringOp::MinAdd),
            (SemiringOp::AndOr, SemiringOp::MulAdd),
        ][op_pair];
        assert_equivalent(&m, cap_frac, os, is, "random");
    }

    /// Positive-valued matrices (no cancellation) with tight capacities
    /// maximize eviction/refetch churn — the paths most likely to diverge.
    #[test]
    fn arena_matches_legacy_under_eviction_pressure(
        m in sparsepipe_testutil::coo_matrix_positive(64, 400),
        cap_frac in 0.02f64..0.3,
    ) {
        assert_equivalent(&m, cap_frac, SemiringOp::MulAdd, SemiringOp::MulAdd, "pressure");
    }
}

/// The named structural edge cases (empty matrix, pure diagonals, hub
/// row/col, banded, power-law, block-diagonal, empty rows/cols) at three
/// capacity points each. The suite's rectangular `zero_rows_rect` entry
/// must be *rejected* by the legacy pass (the OEI dual buffer is
/// square-only) rather than mis-indexed — `MatrixArena::from_parts`
/// asserts squareness, so the arena side never sees it.
#[test]
fn arena_matches_legacy_on_edge_case_corpus() {
    let mut saw_rect = false;
    for (name, m) in sparsepipe_testutil::corpus::edge_case_suite(64) {
        if m.nrows() != m.ncols() {
            saw_rect = true;
            let (csc, csr) = (m.to_csc(), m.to_csr());
            let x: DenseVector = (0..m.nrows() as usize).map(|i| i as f64 * 0.1).collect();
            let err = legacy_buffered_pass(
                &csc,
                &csr,
                &x,
                |_, v| v,
                SemiringOp::MulAdd,
                SemiringOp::MulAdd,
                4096,
                &mut MemorySink::new(),
            )
            .expect_err("rectangular matrices must be rejected, not mis-indexed");
            assert!(
                matches!(
                    err,
                    sparsepipe_tensor::TensorError::DimensionMismatch { .. }
                ),
                "{name}: wrong rejection: {err}"
            );
            continue;
        }
        for cap_frac in [0.05, 0.5, 4.0] {
            assert_equivalent(&m, cap_frac, SemiringOp::MulAdd, SemiringOp::MulAdd, name);
        }
    }
    assert!(saw_rect, "edge_case_suite lost its rectangular entry");
}
