//! End-to-end audit: for every registered application, a traced run's
//! replayed event stream must reproduce the simulator's traffic report
//! with bitwise `f64` equality (`DESIGN.md` §10). A traced
//! `EvalRequest` performs the audit internally and fails with
//! `BenchError::Trace` on any mismatch, so this test sweeping the full
//! registry is the acceptance check that the exactness protocol holds on
//! every scheduling path an app can take.

use sparsepipe_bench::datasets::DatasetSpec;
use sparsepipe_bench::sweep::EvalRequest;
use sparsepipe_core::{SimRequest, SparsepipeConfig};
use sparsepipe_tensor::MatrixId;
use sparsepipe_trace::{MemorySink, TraceAudit};

#[test]
fn every_registry_app_audits_exactly() {
    let dataset = DatasetSpec::new(MatrixId::Gy, 256).load().unwrap();
    let apps = sparsepipe_apps::registry::shared();
    assert_eq!(
        apps.len(),
        15,
        "registry should hold the paper's 11 apps plus the mxm family"
    );
    for app in apps.iter() {
        let outcome = EvalRequest::new(app, &dataset, 256)
            .trace(MemorySink::new())
            .run()
            .unwrap_or_else(|e| panic!("{} failed traced evaluation: {e}", app.name));
        let sink = outcome.trace.expect("traced request returns its sink");
        assert!(
            !sink.events().is_empty(),
            "{} produced an empty trace",
            app.name
        );
        assert!(outcome.evaluation.entry.sim.total_cycles > 0);
    }
}

#[test]
fn odd_iteration_tail_audits_exactly() {
    // Odd iteration counts leave an unfused analytic tail pass; its
    // closed-form traffic must be emitted (and replayed) exactly too.
    let dataset = DatasetSpec::new(MatrixId::Bu, 256).load().unwrap();
    let app = sparsepipe_apps::registry::by_name("pr").unwrap();
    let program = app.compile().unwrap();
    let cfg = SparsepipeConfig::iso_gpu().with_buffer(dataset.buffer_bytes());
    for iters in [1usize, 7, 9] {
        let mut sink = MemorySink::new();
        let outcome = SimRequest::new(&program, &dataset.reordered)
            .iterations(iters)
            .config(cfg)
            .trace(&mut sink)
            .run()
            .unwrap();
        TraceAudit::replay(sink.events())
            .check(&outcome.report.traffic.audit_totals())
            .unwrap_or_else(|e| panic!("audit mismatch at iterations={iters}: {e}"));
    }
}
