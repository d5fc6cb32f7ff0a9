//! Determinism and configuration-sensitivity tests of the simulator's
//! public surface.

use sparsepipe_core::{EvictionPolicy, ReorderKind, SimReport, SimRequest, SparsepipeConfig};
use sparsepipe_frontend::{compile, GraphBuilder, SparsepipeProgram};
use sparsepipe_semiring::{EwiseBinary, SemiringOp};
use sparsepipe_tensor::{gen, CooMatrix};
use sparsepipe_testutil::corpus;

fn simulate(
    program: &SparsepipeProgram,
    matrix: &CooMatrix,
    iterations: usize,
    config: &SparsepipeConfig,
) -> Result<SimReport, sparsepipe_core::CoreError> {
    SimRequest::new(program, matrix)
        .iterations(iterations)
        .config(*config)
        .run()
        .map(|o| o.report)
}

fn pagerank_program() -> SparsepipeProgram {
    let mut b = GraphBuilder::new();
    let pr = b.input_vector("pr");
    let l = b.constant_matrix("L");
    let y = b.vxm(pr, l, SemiringOp::MulAdd).unwrap();
    let s = b.ewise_scalar(EwiseBinary::Mul, y, 0.85).unwrap();
    let next = b.ewise_scalar(EwiseBinary::Add, s, 0.15).unwrap();
    b.carry(next, pr).unwrap();
    compile(&b.build().unwrap(), 1).unwrap()
}

fn cfg() -> SparsepipeConfig {
    SparsepipeConfig::iso_gpu().with_buffer(1 << 20)
}

/// The simulator is a pure function of (program, matrix, config).
#[test]
fn repeated_runs_are_bit_identical() {
    let m = corpus::power_law(8000, 64_000, 1.3, 0.4, 7);
    let program = pagerank_program();
    let a = simulate(&program, &m, 12, &cfg()).unwrap();
    let b = simulate(&program, &m, 12, &cfg()).unwrap();
    assert_eq!(a, b);
}

/// Offline reordering is deterministic too, and so is simulating its
/// result.
#[test]
fn reordering_runs_are_deterministic() {
    let m = corpus::uniform(4000, 30_000, 5);
    let program = pagerank_program();
    for kind in [ReorderKind::GraphOrder, ReorderKind::Vanilla] {
        let (ra, rb) = (kind.apply(&m), kind.apply(&m));
        assert_eq!(ra, rb, "{kind:?}");
        let a = simulate(&program, &ra, 8, &cfg()).unwrap();
        let b = simulate(&program, &rb, 8, &cfg()).unwrap();
        assert_eq!(a, b, "{kind:?}");
    }
}

/// Iterations scale runtime near-linearly for the fused steady state.
#[test]
fn iterations_scale_linearly() {
    let m = corpus::uniform(8000, 64_000, 3);
    let program = pagerank_program();
    let r10 = simulate(&program, &m, 10, &cfg()).unwrap();
    let r40 = simulate(&program, &m, 40, &cfg()).unwrap();
    let ratio = r40.runtime_s / r10.runtime_s;
    assert!((3.9..4.1).contains(&ratio), "ratio {ratio}");
}

/// The iso-CPU configuration (12.6x less bandwidth) is much slower on a
/// memory-bound workload.
#[test]
fn iso_cpu_is_bandwidth_limited() {
    let m = corpus::uniform(8000, 64_000, 3);
    let program = pagerank_program();
    let gpu = simulate(&program, &m, 10, &cfg()).unwrap();
    let cpu_cfg = SparsepipeConfig {
        memory: sparsepipe_core::MemoryConfig::ddr4(),
        ..cfg()
    };
    let cpu = simulate(&program, &m, 10, &cpu_cfg).unwrap();
    let ratio = cpu.runtime_s / gpu.runtime_s;
    assert!(
        (6.0..=12.7).contains(&ratio),
        "iso-CPU should be ~12.6x slower (memory-bound), got {ratio}"
    );
}

/// Eviction policies diverge only under pressure, and highest-row-first
/// never loses to oldest-first on OEI's reuse pattern.
#[test]
fn eviction_policy_ordering() {
    // anti-diagonal mass: worst-case reuse distance
    let m = corpus::locality_mix(
        20_000,
        300_000,
        gen::LocalityMix {
            long_frac: 0.2,
            anti_frac: 0.75,
            local_span_frac: 0.02,
            skew: 0.0,
        },
        3,
    );
    let program = pagerank_program();
    let base = cfg().with_buffer(512 << 10);
    let high_row = simulate(&program, &m, 10, &base).unwrap();
    let oldest = simulate(
        &program,
        &m,
        10,
        &SparsepipeConfig {
            eviction: EvictionPolicy::OldestFirst,
            ..base
        },
    )
    .unwrap();
    assert!(high_row.evicted_elements > 0, "test needs pressure");
    assert!(
        high_row.traffic.refetch_bytes <= oldest.traffic.refetch_bytes * 1.001,
        "paper's policy should not lose: {} vs {}",
        high_row.traffic.refetch_bytes,
        oldest.traffic.refetch_bytes
    );
}

/// Subtensor width: explicit tiny widths pay dispatch overhead; the auto
/// choice is within 10% of the best explicit width tried.
#[test]
fn auto_subtensor_is_competitive() {
    let m = corpus::power_law(16_000, 160_000, 1.2, 0.4, 11);
    let program = pagerank_program();
    let auto = simulate(&program, &m, 10, &cfg()).unwrap();
    let mut best = f64::INFINITY;
    for t in [1usize, 4, 16, 64, 256, 1024] {
        let c = SparsepipeConfig {
            subtensor_cols: t,
            ..cfg()
        };
        let r = simulate(&program, &m, 10, &c).unwrap();
        best = best.min(r.runtime_s);
    }
    assert!(
        auto.runtime_s <= best * 1.10,
        "auto {} vs best explicit {}",
        auto.runtime_s,
        best
    );
}
