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

#[test]
fn buffer_events_carry_stored_coordinates_at_their_steps() {
    // A skewed matrix under a small buffer exercises every buffer event
    // site: demand loads, eager prefetch, deferred IS consumption,
    // evictions and refetches. Each event's (row, col) is recovered from
    // the plan's CSR arrays, so check it against the matrix itself.
    use sparsepipe_trace::{PipeStage, TraceEvent};
    use std::collections::HashSet;
    let t = 8usize;
    let m = sparsepipe_tensor::gen::power_law(600, 6_000, 1.0, 0.4, 17);
    let stored: HashSet<(u32, u32)> = m.entries().iter().map(|&(r, c, _)| (r, c)).collect();
    let program = sparsepipe_apps::registry::by_name("pr")
        .unwrap()
        .compile()
        .unwrap();
    let cfg = SparsepipeConfig {
        subtensor_cols: t,
        ..SparsepipeConfig::iso_gpu().with_buffer(16 << 10)
    };
    let mut sink = MemorySink::new();
    SimRequest::new(&program, &m)
        .iterations(2)
        .config(cfg)
        .trace(&mut sink)
        .run()
        .unwrap();
    let (mut inserts, mut os_hits, mut is_hits, mut evicts) = (0, 0, 0, 0);
    for ev in sink.events() {
        let (row, col) = match *ev {
            TraceEvent::BufferInsert { row, col, .. } => {
                inserts += 1;
                (row, col)
            }
            TraceEvent::BufferEvict { row, col, .. } => {
                evicts += 1;
                (row, col)
            }
            TraceEvent::BufferHit {
                row,
                col,
                stage,
                step,
            } => {
                let step = step as usize;
                match stage {
                    PipeStage::Os => {
                        os_hits += 1;
                        assert_eq!(col as usize / t, step, "OS hit ({row}, {col})");
                    }
                    PipeStage::Is => {
                        is_hits += 1;
                        assert!(row as usize / t <= step, "IS hit ({row}, {col}) at {step}");
                    }
                }
                (row, col)
            }
            _ => continue,
        };
        assert!(stored.contains(&(row, col)), "({row}, {col}) is not stored");
    }
    assert!(
        inserts > 0 && evicts > 0,
        "{inserts} inserts, {evicts} evictions"
    );
    assert_eq!(os_hits, m.nnz(), "one OS hit per element per pass");
    assert_eq!(is_hits, m.nnz(), "one IS hit per element per pass");
}
