//! Slab round-trip fidelity: a dataset served from a binary slab (the
//! `experiments convert` output) must be indistinguishable — bit for
//! bit — from the synthetic path it froze. Every registry app runs once
//! on each and the full `Entry` (reports for all six systems) plus the
//! deterministic telemetry must agree exactly; only host wall clock is
//! excluded, because it is the one field that measures the machine
//! rather than the model.

use std::sync::Arc;

use sparsepipe_bench::datasets::{DatasetSpec, SlabSource};
use sparsepipe_bench::sweep::EvalRequest;
use sparsepipe_tensor::MatrixId;

#[test]
fn slab_datasets_reproduce_synthetic_outcomes_bitwise() {
    let scale = 256;
    let id = MatrixId::Ca;
    let dir = std::env::temp_dir().join(format!("sparsepipe-oocore-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Freeze the synthetic matrix exactly as `experiments convert
    // --matrix ca --scale 256` would.
    let matrix = id.spec().generate(scale);
    let arena = sparsepipe_core::MatrixArena::from_coo(&matrix);
    sparsepipe_core::slab::write_file(&arena, &SlabSource::slab_path(&dir, id, scale)).unwrap();

    let synthetic = DatasetSpec::new(id, scale).load().unwrap();
    let slab = DatasetSpec::new(id, scale)
        .with_source(Arc::new(SlabSource::new(&dir)))
        .load()
        .unwrap();
    assert_eq!(synthetic.matrix, slab.matrix, "the slab changed the matrix");
    assert_eq!(
        synthetic.reordered, slab.reordered,
        "the slab changed the reordering"
    );

    for app in sparsepipe_apps::registry::all() {
        let a = EvalRequest::new(&app, &synthetic, scale)
            .run()
            .unwrap_or_else(|e| panic!("{} on the synthetic path: {e}", app.name));
        let b = EvalRequest::new(&app, &slab, scale)
            .run()
            .unwrap_or_else(|e| panic!("{} on the slab path: {e}", app.name));
        assert_eq!(
            serde_json::to_string(&a.evaluation.entry).unwrap(),
            serde_json::to_string(&b.evaluation.entry).unwrap(),
            "{}: slab entry drifted from the synthetic entry",
            app.name
        );
        // Telemetry, wall clock excluded: these three are functions of
        // the model, not the host.
        let (ta, tb) = (&a.evaluation.telemetry, &b.evaluation.telemetry);
        assert_eq!(ta.sim_steps, tb.sim_steps, "{}: sim_steps", app.name);
        assert_eq!(
            ta.modeled_passes, tb.modeled_passes,
            "{}: modeled_passes",
            app.name
        );
        assert_eq!(
            ta.peak_working_set_bytes.to_bits(),
            tb.peak_working_set_bytes.to_bits(),
            "{}: peak_working_set_bytes",
            app.name
        );
        assert_eq!(
            a.evaluation.schedule, b.evaluation.schedule,
            "{}: schedule",
            app.name
        );
        assert_eq!(
            a.evaluation.mxm, b.evaluation.mxm,
            "{}: mxm stats",
            app.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
