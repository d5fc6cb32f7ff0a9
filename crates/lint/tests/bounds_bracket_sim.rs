//! Differential soundness harness for the static cost analyzer: for
//! random corpus matrices, graphs, and configurations, every per-pass,
//! per-category static bound must bracket the traffic the simulator
//! actually generates — with the bitwise `TraceAudit` confirming that
//! the traced actuals equal the engine's own report first.
//!
//! This is the property the whole `analysis_cost` module stands on; the
//! registry apps are covered separately by `experiments analyze`
//! (sparsepipe-bench), this suite covers the space *between* the apps:
//! random sparsity structures, degenerate matrices (empty rows/columns,
//! block-diagonal), tiny thrashing buffers, and all three execution
//! paths (cross-iteration OEI, within-iteration OEI, no OEI).

use proptest::prelude::*;
use sparsepipe_core::{SimRequest, SparsepipeConfig};
use sparsepipe_frontend::{compile, GraphBuilder, SparsepipeProgram};
use sparsepipe_lint::analysis_cost::{analyze_matrix, CostReport};
use sparsepipe_semiring::{EwiseBinary, SemiringOp};
use sparsepipe_tensor::CooMatrix;
use sparsepipe_testutil::corpus;
use sparsepipe_trace::{replay_passes, MemorySink, TraceAudit};

/// PageRank-shaped loop: cross-iteration OEI.
fn cross_iteration_program() -> SparsepipeProgram {
    let mut b = GraphBuilder::new();
    let pr = b.input_vector("pr");
    let l = b.constant_matrix("L");
    let y = b.vxm(pr, l, SemiringOp::MulAdd).unwrap();
    let s = b.ewise_scalar(EwiseBinary::Mul, y, 0.85).unwrap();
    let next = b.ewise_scalar(EwiseBinary::Add, s, 0.15).unwrap();
    b.carry(next, pr).unwrap();
    compile(&b.build().unwrap(), 1).unwrap()
}

/// KNN-shaped loop: two vxms fused within one iteration.
fn within_iteration_program() -> SparsepipeProgram {
    let mut b = GraphBuilder::new();
    let v = b.input_vector("v");
    let a = b.constant_matrix("A");
    let mid = b.vxm(v, a, SemiringOp::AndOr).unwrap();
    let out = b.vxm(mid, a, SemiringOp::AndOr).unwrap();
    b.carry(out, v).unwrap();
    let p = compile(&b.build().unwrap(), 1).unwrap();
    assert!(p.profile.has_oei && !p.profile.cross_iteration);
    p
}

/// Carry-less single vxm: no OEI, closed-form path.
fn no_oei_program() -> SparsepipeProgram {
    let mut b = GraphBuilder::new();
    let v = b.input_vector("v");
    let a = b.constant_matrix("A");
    let _ = b.vxm(v, a, SemiringOp::MulAdd).unwrap();
    let p = compile(&b.build().unwrap(), 1).unwrap();
    assert!(!p.profile.has_oei);
    p
}

fn program_by_index(i: usize) -> SparsepipeProgram {
    match i {
        0 => cross_iteration_program(),
        1 => within_iteration_program(),
        _ => no_oei_program(),
    }
}

/// The iso-GPU configuration at `buffer_bytes`, with eager CSR loading
/// toggled.
fn config_with(buffer_bytes: usize, eager: bool) -> SparsepipeConfig {
    let mut config = SparsepipeConfig::iso_gpu();
    config.buffer_bytes = buffer_bytes;
    config.eager_csr = eager;
    config
}

/// The property: run the analyzer and the traced simulator on the same
/// inputs and assert every bound brackets its audited actual.
fn assert_bounds_bracket(
    program: &SparsepipeProgram,
    matrix: &CooMatrix,
    config: &SparsepipeConfig,
    iterations: usize,
    context: &str,
) -> CostReport {
    let report = analyze_matrix(program, matrix, config, iterations);

    let mut sink = MemorySink::new();
    let outcome = SimRequest::new(program, matrix)
        .iterations(iterations)
        .config(*config)
        .trace(&mut sink)
        .run()
        .expect("simulation must succeed");

    // Ground truth first: the trace must bitwise-reproduce the engine's
    // own traffic report before we trust it to judge the bounds.
    TraceAudit::replay(sink.events())
        .check(&outcome.report.traffic.audit_totals())
        .unwrap_or_else(|e| panic!("[{context}] trace audit mismatch: {e:?}"));

    // Per-pass: the analyzer must predict the engine's pass structure
    // exactly and bracket each category of each pass.
    let actual_passes = replay_passes(sink.events());
    assert_eq!(
        actual_passes.len(),
        report.passes.len(),
        "[{context}] pass count: static {:?} vs trace {:?}",
        report.passes,
        actual_passes
    );
    for (sp, ap) in report.passes.iter().zip(&actual_passes) {
        assert_eq!(sp.pass, ap.pass, "[{context}] pass id");
        assert_eq!(sp.repeats, ap.repeats, "[{context}] pass repeats");
        assert_eq!(sp.steps, ap.steps, "[{context}] pass steps");
        let actuals = [
            ("csc", ap.traffic.csc_bytes),
            ("csr_eager", ap.traffic.csr_eager_bytes),
            ("refetch", ap.traffic.refetch_bytes),
            ("vector", ap.traffic.vector_bytes),
            ("writeback", ap.traffic.writeback_bytes),
        ];
        for ((name, bound), (_, actual)) in sp.traffic.categories().iter().zip(actuals) {
            assert!(
                bound.contains(actual),
                "[{context}] pass {} {name}: actual {actual} outside [{}, {}]",
                sp.pass,
                bound.lower,
                bound.upper
            );
        }
    }

    // Whole-run totals against the engine's report.
    let t = &outcome.report.traffic;
    let totals = [
        ("csc", report.traffic.csc, t.csc_bytes),
        ("csr_eager", report.traffic.csr_eager, t.csr_eager_bytes),
        ("refetch", report.traffic.refetch, t.refetch_bytes),
        ("vector", report.traffic.vector, t.vector_bytes),
        ("writeback", report.traffic.writeback, t.writeback_bytes),
    ];
    for (name, bound, actual) in totals {
        assert!(
            bound.contains(actual),
            "[{context}] total {name}: actual {actual} outside [{}, {}]",
            bound.lower,
            bound.upper
        );
    }
    assert!(
        report.traffic.total().contains(t.total_bytes()),
        "[{context}] grand total {} outside [{}, {}]",
        t.total_bytes(),
        report.traffic.total().lower,
        report.traffic.total().upper
    );

    // Occupancy peak.
    assert!(
        report
            .occupancy_bytes
            .contains(outcome.report.buffer_peak_bytes),
        "[{context}] occupancy peak {} outside [{}, {}]",
        outcome.report.buffer_peak_bytes,
        report.occupancy_bytes.lower,
        report.occupancy_bytes.upper
    );

    // Claimed guarantees must match observed behaviour.
    if report.no_eviction_guaranteed {
        assert_eq!(
            outcome.report.evicted_elements, 0,
            "[{context}] no-eviction guarantee violated"
        );
    }
    if report.thrash_guaranteed {
        assert!(
            outcome.report.evicted_elements > 0,
            "[{context}] thrash guarantee violated"
        );
    }
    report
}

fn corpus_matrix(kind: usize, n: u32, nnz: usize, seed: u64) -> CooMatrix {
    match kind {
        0 => corpus::banded(n, nnz, (n / 8).max(1), seed),
        1 => corpus::power_law(n, nnz, 1.2, 0.4, seed),
        2 => corpus::uniform(n, nnz, seed),
        3 => corpus::block_diagonal(n, (n / 4).max(1), nnz, seed),
        _ => corpus::with_empty_rows_and_cols(n, nnz, seed),
    }
}

proptest! {
    #![proptest_config(sparsepipe_testutil::config_with(24))]

    #[test]
    fn bounds_bracket_random_corpus(
        shape in (0usize..5, 0usize..3, 48u32..160, 1usize..10),
        run in (0u64..1_000, any::<bool>(), 0usize..3, 1usize..6),
    ) {
        let (kind, prog, n, degree) = shape;
        let (seed, eager, buf_kind, iterations) = run;
        let matrix = corpus_matrix(kind, n, n as usize * degree, seed);
        let program = program_by_index(prog);
        // Small buffers force eviction/refetch; the large one proves the
        // no-eviction path.
        let buffer = [4 << 10, 48 << 10, 64 << 20][buf_kind];
        let config = config_with(buffer, eager);
        let context = format!(
            "kind={kind} prog={prog} n={n} deg={degree} seed={seed} eager={eager} \
             buf={buffer} iters={iterations}"
        );
        assert_bounds_bracket(&program, &matrix, &config, iterations, &context);
    }
}

#[test]
fn bounds_bracket_edge_case_suite() {
    for (name, matrix) in corpus::edge_case_suite(96) {
        if matrix.nrows() != matrix.ncols() {
            // The analyzer and simulator both model square iteration
            // spaces; the suite's rectangular entry is rejection-tested
            // by the dualbuffer and mxm differential suites instead.
            continue;
        }
        for (pi, iterations) in [(0usize, 5usize), (1, 3), (2, 4)] {
            let program = program_by_index(pi);
            for buffer in [8 << 10, 64 << 20] {
                let config = config_with(buffer, true);
                let context = format!("edge={name} prog={pi} buf={buffer}");
                assert_bounds_bracket(&program, &matrix, &config, iterations, &context);
            }
        }
    }
}

#[test]
fn thrashing_buffer_still_bracketed() {
    // A buffer holding only a handful of elements maximizes eviction
    // churn — the hardest case for the refetch and occupancy bounds.
    let matrix = corpus::uniform(128, 2_048, 17);
    for eager in [false, true] {
        let config = config_with(512, eager);
        let report = assert_bounds_bracket(
            &cross_iteration_program(),
            &matrix,
            &config,
            8,
            &format!("thrash eager={eager}"),
        );
        assert!(report.thrash_guaranteed, "512 B must provably thrash");
        assert!(report.diagnostics.has_code("SP-C002"));
    }
}

#[test]
fn single_element_and_diagonal_matrices() {
    // Degenerate shapes: one element, and a pure diagonal (every
    // element's two consumptions land on the same step).
    let one = CooMatrix::from_entries(32, 32, vec![(3, 7, 1.0)]).unwrap();
    let diag: Vec<(u32, u32, f64)> = (0..64).map(|i| (i, i, 1.0)).collect();
    let diag = CooMatrix::from_entries(64, 64, diag).unwrap();
    for (label, m) in [("one-element", &one), ("diagonal", &diag)] {
        for pi in 0..3 {
            let config = config_with(64 << 20, true);
            let context = format!("{label} prog={pi}");
            let report = assert_bounds_bracket(&program_by_index(pi), m, &config, 3, &context);
            assert!(report.no_eviction_guaranteed, "[{context}]");
        }
    }
}
