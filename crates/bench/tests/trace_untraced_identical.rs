//! Satellite check: tracing is purely observational. The default
//! (untraced) sweep's rendered artifacts and raw JSON must be
//! byte-identical to the same sweep run with per-point tracing — the
//! `NullSink` hot path is the same simulation with the emission sites
//! compiled out.

use sparsepipe_bench::datasets::{DataContext, MatrixSet};
use sparsepipe_bench::executor::Executor;
use sparsepipe_bench::experiments as exp;
use sparsepipe_bench::sweep::{Sweep, SweepOptions};

#[test]
fn untraced_sweep_output_is_byte_identical_to_traced() {
    let ctx = DataContext::synthetic(MatrixSet::Quick, 128);
    let complete = |outcome: sparsepipe_bench::sweep::SweepOutcome| {
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        outcome.sweep
    };
    let untraced =
        complete(Sweep::run(ctx.clone(), &Executor::new(1), &SweepOptions::default()).unwrap());
    let dir = std::env::temp_dir().join(format!(
        "sparsepipe-untraced-identical-{}",
        std::process::id()
    ));
    let opts = SweepOptions {
        trace_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let traced = complete(Sweep::run(ctx, &Executor::new(2), &opts).unwrap());

    // The raw sweep JSON (everything the tables are derived from).
    let a = serde_json::to_string_pretty(&untraced).unwrap();
    let b = serde_json::to_string_pretty(&traced).unwrap();
    assert_eq!(a, b, "tracing changed the sweep payload");

    // And the rendered stdout of every sweep-backed figure.
    for (u, t) in [
        (exp::fig14(&untraced), exp::fig14(&traced)),
        (exp::fig16(&untraced), exp::fig16(&traced)),
        (exp::fig17(&untraced), exp::fig17(&traced)),
        (exp::fig18(&untraced), exp::fig18(&traced)),
        (exp::fig21(&untraced), exp::fig21(&traced)),
    ] {
        assert_eq!(u.unwrap().render(), t.unwrap().render());
    }
    std::fs::remove_dir_all(&dir).ok();
}
