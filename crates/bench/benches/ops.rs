//! Criterion micro-benchmarks of the substrate hot paths: semiring `vxm`
//! kernels, the functional OEI fused pass, format conversions, and the
//! e-wise VM.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparsepipe_core::{oei::FusedPass, MatrixArena};
use sparsepipe_semiring::SemiringOp;
use sparsepipe_tensor::{gen, DenseVector};

fn bench_vxm_semirings(c: &mut Criterion) {
    let mut group = c.benchmark_group("vxm");
    let m = gen::uniform(20_000, 20_000, 200_000, 7);
    let csc = m.to_csc();
    let x = DenseVector::filled(20_000, 1.0);
    for s in SemiringOp::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(s.mnemonic()), &s, |b, &s| {
            b.iter(|| {
                csc.vxm_with(&x, s.zero(), |a, v| s.mul(a, v), |a, v| s.add(a, v))
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_fused_pass(c: &mut Criterion) {
    let arena = MatrixArena::from_coo(&gen::uniform(20_000, 20_000, 200_000, 7));
    let x = DenseVector::filled(20_000, 1.0);
    c.bench_function("oei_fused_pass", |b| {
        b.iter(|| {
            FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd)
                .run(&x, |_, v| v * 0.85 + 0.15)
                .unwrap()
        });
    });
}

fn bench_buffered_pass(c: &mut Criterion) {
    let arena = MatrixArena::from_coo(&gen::uniform(20_000, 20_000, 200_000, 7));
    let x = DenseVector::filled(20_000, 1.0);
    let mut group = c.benchmark_group("oei_buffered_pass");
    group.sample_size(10);
    for (name, cap) in [("ample", 64usize << 20), ("pressured", 200_000 * 12 / 5)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cap, |b, &cap| {
            b.iter(|| {
                FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd)
                    .buffer(cap)
                    .run(&x, |_, v| v * 0.85 + 0.15)
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_conversions(c: &mut Criterion) {
    let m = gen::uniform(20_000, 20_000, 200_000, 7);
    c.bench_function("coo_to_csr", |b| b.iter(|| m.to_csr()));
    c.bench_function("coo_to_csc", |b| b.iter(|| m.to_csc()));
    c.bench_function("blocked_dual_build", |b| {
        b.iter(|| sparsepipe_tensor::BlockedDualStorage::from_coo(&m));
    });
}

criterion_group!(
    benches,
    bench_vxm_semirings,
    bench_fused_pass,
    bench_buffered_pass,
    bench_conversions
);
criterion_main!(benches);
