//! End-to-end mini-sweep benchmark: the fixed-seed Quick sweep evaluated
//! point-by-point with and without the sweep-level [`MatrixCache`],
//! self-timed and recorded into `BENCH_core.json` under the `mini_sweep`
//! key.
//!
//! Doubles as a smoke differential: the cached and uncached entries must
//! be equal before either time is reported.

use std::path::Path;
use std::time::Instant;

use sparsepipe_apps::registry;
use sparsepipe_bench::datasets::{DataContext, MatrixSet};
use sparsepipe_bench::executor::Executor;
use sparsepipe_bench::sweep::{Entry, EvalRequest};
use sparsepipe_core::MatrixCache;

const SCALE: u64 = 64;
const REPS: usize = 3;

fn best_of<F: FnMut() -> Vec<Entry>>(mut run: F) -> (f64, Vec<Entry>) {
    let mut best = f64::INFINITY;
    let mut entries = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        entries = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, entries)
}

fn main() {
    let exec = Executor::new(1);
    let ctx = DataContext::synthetic(MatrixSet::Quick, SCALE);
    let datasets = ctx.load(&exec).expect("built-in datasets load");
    let apps = registry::shared();
    let points: Vec<_> = datasets
        .iter()
        .flat_map(|d| apps.iter().map(move |a| (d, a)))
        .collect();

    let (uncached_s, plain) = best_of(|| {
        points
            .iter()
            .map(|(d, a)| {
                EvalRequest::new(a, d, SCALE)
                    .run()
                    .expect("point evaluates")
                    .evaluation
                    .entry
            })
            .collect()
    });
    let (cached_s, cached) = best_of(|| {
        let cache = MatrixCache::new();
        points
            .iter()
            .map(|(d, a)| {
                EvalRequest::new(a, d, SCALE)
                    .cache(&cache)
                    .run()
                    .expect("point evaluates")
                    .evaluation
                    .entry
            })
            .collect()
    });
    for (p, c) in plain.iter().zip(&cached) {
        assert_eq!(p.sim, c.sim, "cache perturbed {}-{}", p.app, p.matrix);
        assert_eq!(p.sim_iso_cpu, c.sim_iso_cpu);
    }

    let speedup = uncached_s / cached_s;
    println!(
        "mini_sweep: {} points  uncached {uncached_s:.3}s  cached {cached_s:.3}s  ({speedup:.2}x)",
        points.len()
    );
    let value = format!(
        "{{\"points\": {}, \"scale\": {SCALE}, \"reps\": {REPS}, \
         \"uncached_s\": {uncached_s:.6}, \"cached_s\": {cached_s:.6}, \
         \"speedup\": {speedup:.3}}}",
        points.len()
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_core.json");
    sparsepipe_testutil::benchjson::record(&path, "mini_sweep", &value)
        .expect("BENCH_core.json updates");
}
