//! App-level half of the differential harness: every registered
//! application, evaluated with and without the sweep-level
//! [`MatrixCache`], must produce identical reports after exactly the
//! cache lookups its schedule needs — and its traced, cached run must
//! still pass the bitwise [`TraceAudit`] that a traced `EvalRequest`
//! performs internally.
//!
//! (The element-level legacy-vs-arena comparison lives in
//! `crates/core/tests/dualbuffer_differential.rs`; this suite covers the
//! scheduling paths only real app graphs exercise.)

use std::collections::BTreeSet;

use sparsepipe_bench::datasets::DatasetSpec;
use sparsepipe_bench::sweep::{sparsepipe_config, EvalRequest};
use sparsepipe_core::{MatrixCache, MemoryConfig, SparsepipeConfig};
use sparsepipe_tensor::MatrixId;
use sparsepipe_trace::MemorySink;

#[test]
fn cached_evaluation_is_identical_for_every_app() {
    let dataset = DatasetSpec::new(MatrixId::Gy, 64).load().unwrap();
    let apps = sparsepipe_apps::registry::shared();
    assert_eq!(
        apps.len(),
        15,
        "registry should hold the paper's 11 apps plus the mxm family"
    );
    // The sub-tensor widths of the iso-GPU and iso-CPU configurations:
    // each distinct one is one pass plan.
    let matrix = &dataset.reordered;
    let gpu = sparsepipe_config(&dataset);
    let cpu = SparsepipeConfig {
        memory: MemoryConfig::ddr4(),
        ..gpu
    };
    let widths = BTreeSet::from([gpu, cpu].map(|c| c.subtensor_auto(matrix.ncols(), matrix.nnz())))
        .len() as u64;
    for app in apps.iter() {
        let profile = app.compile().unwrap().profile;
        // (misses, hits) of a first request on a fresh cache, and the
        // hits of a second identical one (which must not miss).
        let (misses, hits, repeat_hits) = if profile.mxm_passes > 0 {
            // The iso-GPU run builds the arena, the iso-CPU run hits it,
            // then the baselines' profile is built from one plan; a
            // repeat hits the arena twice and the profile once.
            (3, 1, 3)
        } else if profile.has_oei {
            // One plan lookup per simulation.
            (widths, 2 - widths, 2)
        } else {
            // A no-OEI schedule is closed-form: it derives nothing.
            (0, 0, 0)
        };
        let cache = MatrixCache::new();
        let plain = EvalRequest::new(app, &dataset, 64)
            .run()
            .unwrap_or_else(|e| panic!("{} failed uncached evaluation: {e}", app.name))
            .evaluation;
        let cached = EvalRequest::new(app, &dataset, 64)
            .cache(&cache)
            .run()
            .unwrap_or_else(|e| panic!("{} failed cached evaluation: {e}", app.name))
            .evaluation;
        assert_eq!(
            plain.entry.sim, cached.entry.sim,
            "{}: cache perturbed the iso-GPU report",
            app.name
        );
        assert_eq!(
            plain.entry.sim_iso_cpu, cached.entry.sim_iso_cpu,
            "{}: cache perturbed the iso-CPU report",
            app.name
        );
        assert_eq!(
            (cache.misses(), cache.hits()),
            (misses, hits),
            "{}: (misses, hits) of the first request",
            app.name
        );
        let again = EvalRequest::new(app, &dataset, 64)
            .cache(&cache)
            .run()
            .unwrap_or_else(|e| panic!("{} failed repeated evaluation: {e}", app.name))
            .evaluation;
        assert_eq!(again.entry, cached.entry, "{}: repeat differs", app.name);
        assert_eq!(
            (cache.misses(), cache.hits()),
            (misses, hits + repeat_hits),
            "{}: (misses, hits) after an identical second request",
            app.name
        );
    }
}

#[test]
fn traced_cached_evaluation_audits_and_matches_for_every_app() {
    let dataset = DatasetSpec::new(MatrixId::Bu, 64).load().unwrap();
    let cache = MatrixCache::new();
    for app in sparsepipe_apps::registry::shared().iter() {
        // A traced EvalRequest replays the stream against the traffic
        // report with bitwise f64 equality and fails on any mismatch.
        let cached_out = EvalRequest::new(app, &dataset, 64)
            .cache(&cache)
            .trace(MemorySink::new())
            .run()
            .unwrap_or_else(|e| panic!("{} failed traced cached evaluation: {e}", app.name));
        let plain_out = EvalRequest::new(app, &dataset, 64)
            .trace(MemorySink::new())
            .run()
            .unwrap_or_else(|e| panic!("{} failed traced evaluation: {e}", app.name));
        let (cached_ev, cached_sink) = (
            cached_out.evaluation,
            cached_out.trace.expect("traced request returns its sink"),
        );
        let (plain_ev, plain_sink) = (
            plain_out.evaluation,
            plain_out.trace.expect("traced request returns its sink"),
        );
        assert!(
            !cached_sink.events().is_empty(),
            "{} produced an empty trace",
            app.name
        );
        assert_eq!(
            plain_sink.events(),
            cached_sink.events(),
            "{}: cache perturbed the event stream",
            app.name
        );
        assert_eq!(plain_ev.entry.sim, cached_ev.entry.sim);
    }
}
