//! The tentpole guarantee of the parallel executor: every rendered artifact
//! and every serialized result is byte-identical no matter how many worker
//! threads ran the sweep.

use sparsepipe_bench::datasets::{DataContext, MatrixSet};
use sparsepipe_bench::executor::Executor;
use sparsepipe_bench::experiments;
use sparsepipe_bench::sweep::{Sweep, SweepOptions};

fn sweep_with(jobs: usize) -> (Sweep, sparsepipe_bench::executor::BenchTelemetry) {
    let exec = Executor::new(jobs);
    let ctx = DataContext::synthetic(MatrixSet::Quick, 512);
    let outcome =
        Sweep::run(ctx, &exec, &SweepOptions::default()).expect("synthetic datasets load");
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    (outcome.sweep, exec.finish())
}

#[test]
fn sweep_is_byte_identical_across_thread_counts() {
    let (seq, t1) = sweep_with(1);
    let (par, t4) = sweep_with(4);

    let seq_json = serde_json::to_string(&seq).unwrap();
    let par_json = serde_json::to_string(&par).unwrap();
    assert_eq!(
        seq_json, par_json,
        "sweep JSON diverged across thread counts"
    );

    // Telemetry records arrive in the same deterministic order; only the
    // host wall-clock values may differ.
    assert_eq!(t1.points, t4.points);
    let labels = |t: &sparsepipe_bench::executor::BenchTelemetry| {
        t.records
            .iter()
            .map(|r| r.label.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(labels(&t1), labels(&t4));
    assert_eq!(t1.sim_steps_total, t4.sim_steps_total);
    assert_eq!(t1.modeled_passes_total, t4.modeled_passes_total);
}

#[test]
fn figures_render_identically_across_thread_counts() {
    let (seq, _) = sweep_with(1);
    let (par, _) = sweep_with(4);
    for (a, b) in [
        (experiments::fig14(&seq), experiments::fig14(&par)),
        (experiments::fig18(&seq), experiments::fig18(&par)),
        (experiments::fig23(&seq), experiments::fig23(&par)),
    ] {
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.render(), b.render(), "{} diverged", a.id);
    }
}

#[test]
fn generators_are_deterministic_under_parallelism() {
    let ctx = DataContext::synthetic(MatrixSet::Quick, 512);
    let seq = Executor::new(1);
    let par = Executor::new(4);
    let a = experiments::fig19(&ctx, &seq).unwrap();
    let b = experiments::fig19(&ctx, &par).unwrap();
    assert_eq!(a.render(), b.render());
    assert_eq!(
        seq.finish().records.len(),
        par.finish().records.len(),
        "fig19 must record one telemetry point per grid cell on any pool"
    );
}
