//! End-to-end integration: every application, compiled and simulated on
//! multiple dataset families, must exhibit the paper's headline behaviors.

use sparsepipe::apps::{registry, ReusePattern};
use sparsepipe::core::{Preprocessing, SimRequest, SparsepipeConfig};
use sparsepipe::tensor::gen;

fn simulate(
    program: &sparsepipe::frontend::SparsepipeProgram,
    matrix: &sparsepipe::tensor::CooMatrix,
    iterations: usize,
    config: &SparsepipeConfig,
) -> Result<sparsepipe::core::SimReport, sparsepipe::core::CoreError> {
    SimRequest::new(program, matrix)
        .iterations(iterations)
        .config(*config)
        .run()
        .map(|o| o.report)
}

fn config() -> SparsepipeConfig {
    SparsepipeConfig::iso_gpu().with_buffer(4 << 20)
}

/// Matrix loads per iteration: ≈0.5 for cross-iteration OEI apps, ≈1.0
/// for producer-consumer-only apps (per matrix operator), and ≈0.5 per
/// operator for KNN's within-iteration fusion.
#[test]
fn matrix_reuse_matches_reuse_pattern() {
    let m = gen::road(60_000, 400_000, 0.01, 9);
    for app in registry::all() {
        let program = app.compile().expect("apps compile");
        let iters = app.default_iterations & !1; // even, no tail
        let report = simulate(&program, &m, iters.max(2), &config()).expect("square");
        let loads = report.matrix_loads_per_iteration;
        match app.reuse {
            ReusePattern::CrossIteration => assert!(
                (0.4..0.72).contains(&loads),
                "{}: loads/iter {loads} not ≈0.5",
                app.name
            ),
            ReusePattern::ProducerConsumer => assert!(
                (0.95..1.05).contains(&loads),
                "{}: loads/iter {loads} not ≈1.0",
                app.name
            ),
        }
    }
}

/// Every simulation produces a physically sane report.
#[test]
fn reports_are_sane_for_all_apps() {
    let m = gen::power_law(20_000, 160_000, 1.2, 0.4, 4);
    for app in registry::all() {
        let program = app.compile().expect("apps compile");
        let r = simulate(&program, &m, app.default_iterations, &config()).expect("square");
        assert!(r.total_cycles > 0, "{}", app.name);
        assert!(r.runtime_s > 0.0, "{}", app.name);
        assert!(
            r.avg_bw_utilization > 0.0 && r.avg_bw_utilization <= 1.0,
            "{}: util {}",
            app.name,
            r.avg_bw_utilization
        );
        assert!(r.traffic.total_bytes() > 0.0, "{}", app.name);
        assert!(r.energy.total_pj() > 0.0, "{}", app.name);
        assert_eq!(r.bw_trace.len(), 25, "{}", app.name);
        // traffic must at least cover one matrix image per pair of
        // iterations
        let min_bytes = m.nnz() as f64 * 10.5 * (app.default_iterations as f64 / 2.0).floor();
        assert!(
            r.traffic.total_bytes() >= min_bytes * 0.9,
            "{}: traffic {} below matrix floor {min_bytes}",
            app.name,
            r.traffic.total_bytes()
        );
    }
}

/// Doubling the memory bandwidth must not slow anything down, and must
/// speed up memory-bound apps nearly proportionally.
#[test]
fn bandwidth_scaling_is_monotone() {
    let m = gen::uniform(30_000, 30_000, 300_000, 6);
    let slow = config();
    let mut fast = slow;
    fast.memory.bandwidth_gbps *= 2.0;
    for app in [
        sparsepipe::apps::pagerank::app(10),
        sparsepipe::apps::cg::app(10),
    ] {
        let program = app.compile().expect("apps compile");
        let r_slow = simulate(&program, &m, 10, &slow).expect("square");
        let r_fast = simulate(&program, &m, 10, &fast).expect("square");
        assert!(
            r_fast.runtime_s <= r_slow.runtime_s,
            "{}: more bandwidth must not hurt",
            app.name
        );
        let speedup = r_slow.runtime_s / r_fast.runtime_s;
        assert!(
            speedup > 1.3,
            "{}: memory-bound app should gain from 2x bandwidth, got {speedup}",
            app.name
        );
    }
}

/// Larger buffers never hurt, and help exactly when the live set spills.
#[test]
fn buffer_scaling_is_monotone() {
    // scattered matrix: ~50% of nnz live at the peak step
    let m = gen::uniform(40_000, 40_000, 500_000, 8);
    let app = sparsepipe::apps::sssp::app(12);
    let program = app.compile().expect("apps compile");
    let mut prev = f64::INFINITY;
    for kb in [64, 256, 1024, 4096, 16384] {
        let r = simulate(&program, &m, 12, &config().with_buffer(kb << 10)).expect("square");
        assert!(
            r.runtime_s <= prev * 1.0001,
            "buffer {kb} KB slower than smaller buffer: {} vs {prev}",
            r.runtime_s
        );
        prev = r.runtime_s;
    }
    // tiny vs huge must differ (the small buffer thrashes)
    let tiny = simulate(&program, &m, 12, &config().with_buffer(64 << 10)).expect("square");
    let huge = simulate(&program, &m, 12, &config().with_buffer(64 << 20)).expect("square");
    assert!(tiny.runtime_s > huge.runtime_s * 1.05);
    assert!(tiny.evicted_elements > 0);
    assert_eq!(huge.evicted_elements, 0);
}

/// The blocked format strictly reduces traffic (Fig 19's +blocked bar).
#[test]
fn blocked_format_reduces_traffic() {
    let m = gen::banded(50_000, 500_000, 50, 3);
    let app = sparsepipe::apps::pagerank::app(10);
    let program = app.compile().expect("apps compile");
    let plain = simulate(
        &program,
        &m,
        10,
        &config().with_preprocessing(Preprocessing::none()),
    )
    .expect("square");
    let blocked = simulate(&program, &m, 10, &config()).expect("square");
    assert!(blocked.traffic.total_bytes() < plain.traffic.total_bytes());
    assert!(blocked.runtime_s <= plain.runtime_s);
}

/// Energy: Sparsepipe's cross-iteration reuse must save DRAM energy
/// relative to its own non-reusing traffic (compare pr against cg on the
/// same matrix, normalized per matrix pass).
#[test]
fn oei_saves_memory_energy() {
    let m = gen::road(60_000, 400_000, 0.01, 9);
    let pr = sparsepipe::apps::pagerank::app(16);
    let cg = sparsepipe::apps::cg::app(16);
    let r_pr = simulate(&pr.compile().unwrap(), &m, 16, &config()).expect("square");
    let r_cg = simulate(&cg.compile().unwrap(), &m, 16, &config()).expect("square");
    // pr touches the matrix once; cg once per iteration — pr's DRAM energy
    // per iteration must be well below cg's
    assert!(r_pr.energy.memory_pj < r_cg.energy.memory_pj);
}
