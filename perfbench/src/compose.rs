//! One sweep point composed from the public calls `EvalRequest::run`
//! makes, with a span around each layer.
//!
//! The traced runs evaluate points through [`point`] instead of
//! `EvalRequest`, and compare the rendered [`Entry`] byte for byte with
//! the one `EvalRequest` produced for the same point, which proves the
//! decomposition measures the real path. Derived matrix artifacts (pass
//! plans, arenas, profiles) are built through the shared
//! [`MatrixCache`] *before* the simulations, so their cost lands in the
//! `core.plan`/`core.arena` spans rather than inside `core.sim`; every
//! build this module triggers is counted in [`Builds`], and a cache whose
//! miss count exceeds that count means a simulation built something
//! itself.

use std::sync::atomic::{AtomicU64, Ordering};

use sparsepipe_apps::StaApp;
use sparsepipe_baselines::ideal::IdealAccelerator;
use sparsepipe_baselines::oracle::OracleAccelerator;
use sparsepipe_baselines::WorkloadInstance;
use sparsepipe_bench::datasets::ScaledDataset;
use sparsepipe_bench::sweep::{mxm_work, scaled_cpu, scaled_gpu, sparsepipe_config, Entry};
use sparsepipe_core::{
    MatrixArena, MatrixCache, MatrixProfile, MemoryConfig, PassPlan, ReorderKind, SimRequest,
    SparsepipeConfig,
};

use crate::spans;

/// Cache builds triggered by [`point`].
#[derive(Debug, Default)]
pub struct Builds(AtomicU64);

impl Builds {
    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Builds so far.
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a composed point produced.
#[derive(Debug)]
pub struct Point {
    /// The cross-system results, as `EvalRequest` assembles them.
    pub entry: Entry,
    /// Pipeline steps both simulations executed.
    pub sim_steps: u64,
}

/// Evaluates `app` on `dataset` at `scale` the way `EvalRequest::run`
/// does with a cache attached, spanning each layer under a `bench.eval`
/// span for point `id`.
///
/// # Errors
///
/// A description of the failed compile or simulation.
pub fn point(
    app: &StaApp,
    dataset: &ScaledDataset,
    scale: u64,
    cache: &MatrixCache,
    builds: &Builds,
    id: u64,
) -> Result<Point, String> {
    let _point = spans::span("bench.eval", id);
    let program = spans::timed("frontend.compile", id, || app.compile())
        .map_err(|e| format!("{}: compile: {e}", app.name))?;
    let iterations = app.default_iterations;
    let cfg = sparsepipe_config(dataset);
    let cfg_cpu = SparsepipeConfig {
        memory: MemoryConfig::ddr4(),
        ..cfg
    };
    let matrix = &dataset.reordered;
    let key = MatrixCache::key_for(dataset.id.code(), matrix);
    let t_of = |c: &SparsepipeConfig| c.subtensor_auto(matrix.ncols(), matrix.nnz());
    let plan = |t: usize| {
        cache.plan(key, ReorderKind::None, t, || {
            builds.bump();
            spans::timed("core.plan", id, || PassPlan::build(matrix, t))
        })
    };

    // Prewarm what the simulations look up: the arena for the Gustavson
    // stage, the pass plan per sub-tensor width for the OEI pipeline.
    if program.profile.mxm_passes > 0 {
        cache.arena(key, || {
            builds.bump();
            spans::timed("core.arena", id, || MatrixArena::from_coo(matrix))
        });
    } else if program.profile.has_oei {
        for c in [&cfg, &cfg_cpu] {
            plan(t_of(c));
        }
    }

    let simulate = |c: SparsepipeConfig| {
        spans::timed("core.sim", id, || {
            SimRequest::new(&program, matrix)
                .iterations(iterations)
                .config(c)
                .cache(cache, key)
                .run()
        })
        .map_err(|e| format!("{}@{}: simulation: {e}", app.name, dataset.id))
    };
    let sim = simulate(cfg)?;
    let iso_cpu = simulate(cfg_cpu)?;

    let work = if program.profile.mxm_passes > 0 {
        let t = t_of(&cfg);
        let profile = cache.profile(key, ReorderKind::None, t, || {
            builds.bump();
            let plan = plan(t);
            spans::timed("core.profile", id, || MatrixProfile::build(&plan))
        });
        mxm_work(&program.profile, &profile)
    } else {
        None
    };
    let (ideal, oracle, cpu, gpu) = spans::timed("baselines", id, || {
        let w = WorkloadInstance {
            profile: &program.profile,
            n: dataset.matrix.nrows() as u64,
            nnz: dataset.matrix.nnz() as u64,
            stats: &dataset.stats,
            iterations,
            mxm: work,
        };
        (
            IdealAccelerator::new(cfg).evaluate(&w),
            OracleAccelerator::new(cfg).evaluate(&w),
            scaled_cpu(scale).evaluate(&w),
            scaled_gpu(scale).evaluate(&w),
        )
    });
    Ok(Point {
        entry: Entry {
            app: app.name,
            matrix: dataset.id,
            has_oei: program.profile.has_oei,
            iterations,
            sim: sim.report,
            sim_iso_cpu: iso_cpu.report,
            ideal,
            oracle,
            cpu,
            gpu,
        },
        sim_steps: sim.telemetry.sim_steps + iso_cpu.telemetry.sim_steps,
    })
}
