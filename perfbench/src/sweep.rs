//! `sweep-vxm` and `sweep-mxm`: app × matrix sweeps at scale 64 through
//! `EvalRequest` with one shared cold `MatrixCache` on a two-job
//! `Executor` — the path `experiments fig14` takes.

use std::sync::Arc;
use std::time::Instant;

use sparsepipe_apps::{registry, StaApp};
use sparsepipe_bench::datasets::{DatasetSpec, ScaledDataset};
use sparsepipe_bench::executor::Executor;
use sparsepipe_bench::sweep::{sparsepipe_config, EvalRequest};
use sparsepipe_core::{MatrixArena, MxmParams, MxmRequest};
use sparsepipe_semiring::SemiringOp;
use sparsepipe_tensor::MatrixId;

use crate::compose::{self, Builds};
use crate::report::{self, median, quantile, CacheCounts};
use crate::source::{self, SeededSource};
use crate::{spans, Ctx, Outcome, JOBS};

const SCALE: u64 = 64;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Which app family a sweep covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The eleven Table-III `vxm` apps on all nine Table-I matrices.
    Vxm,
    /// The four `mxm` apps on `co` and `bu`.
    Mxm,
}

impl Family {
    fn matrices(self) -> &'static [MatrixId] {
        match self {
            Family::Vxm => &MatrixId::ALL,
            Family::Mxm => &[MatrixId::Co, MatrixId::Bu],
        }
    }

    fn apps(self) -> Vec<StaApp> {
        let mxm: Vec<&str> = registry::mxm_family().iter().map(|a| a.name).collect();
        registry::all()
            .into_iter()
            .filter(|a| mxm.contains(&a.name) == (self == Family::Mxm))
            .collect()
    }
}

type Points = Vec<(Arc<ScaledDataset>, StaApp)>;

/// Loads the sweep's matrices from the seeded source, fanned across the
/// executor like `DataContext::load`.
fn load(ctx: &Ctx, ids: &[MatrixId]) -> Result<Vec<Arc<ScaledDataset>>, String> {
    let source = SeededSource::shared(ctx.seed);
    Executor::new(JOBS)
        .run(ids, |&id| {
            DatasetSpec::new(id, SCALE)
                .with_source(Arc::clone(&source))
                .load()
        })
        .into_iter()
        .map(|r| r.map(Arc::new).map_err(|e| format!("dataset load: {e}")))
        .collect()
}

/// One timed pass over every point.
struct Round {
    wall_s: f64,
    rendered: Vec<Option<String>>,
    /// Modelled speedup over the ideal accelerator per point (`None`
    /// where the point failed).
    speedups: Vec<Option<f64>>,
    errors: Vec<String>,
    /// The round cache's hits, misses and resident bytes.
    cache: CacheCounts,
}

/// Runs every point through `EvalRequest` on a fresh executor and cache.
fn round(points: &Points) -> Round {
    let exec = Executor::new(JOBS);
    let cache = Arc::clone(exec.cache());
    let started = Instant::now();
    let results = exec.run(points, |(dataset, app)| {
        EvalRequest::new(app, dataset, SCALE).cache(&cache).run()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = Round {
        wall_s,
        rendered: Vec::new(),
        speedups: Vec::new(),
        errors: Vec::new(),
        cache: CacheCounts::of(&cache),
    };
    for (outcome, (dataset, app)) in results.into_iter().zip(points) {
        match outcome {
            Ok(o) => {
                out.speedups
                    .push(Some(o.evaluation.entry.speedup_vs_ideal()));
                out.rendered
                    .push(Some(report::entry_json(&o.evaluation.entry)));
            }
            Err(e) => {
                out.errors.push(format!("{}@{}: {e}", app.name, dataset.id));
                out.speedups.push(None);
                out.rendered.push(None);
            }
        }
    }
    out
}

/// Runs a sweep workload.
///
/// # Errors
///
/// A description of a failure that leaves nothing to measure.
pub fn run(ctx: &Ctx, family: Family) -> Result<Outcome, String> {
    let apps = family.apps();
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut datasets = Vec::new();
    spans::set_enabled(ctx.trace);
    for _ in 0..if ctx.trace { 1 } else { SETUP_REPS } {
        datasets.clear();
        let t = Instant::now();
        datasets = load(ctx, family.matrices())?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    spans::set_enabled(false);
    let points: Points = datasets
        .iter()
        .flat_map(|d| apps.iter().map(move |a| (Arc::clone(d), a.clone())))
        .collect();
    let nnz_per_round: f64 = points.iter().map(|(d, _)| d.matrix.nnz() as f64).sum();

    // Untraced runs repeat rounds until the time is up; a traced run
    // makes one untraced reference round and one composed, traced round.
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    while rounds.is_empty() || (!ctx.trace && started.elapsed() < ctx.seconds) {
        let r = round(&points);
        outcome.attempted += points.len() as u64;
        outcome.failed += r.errors.len() as u64;
        outcome.problems.extend(r.errors.iter().cloned());
        if rounds
            .first()
            .is_some_and(|first| first.rendered != r.rendered)
        {
            outcome
                .problems
                .push("entries differ between rounds".into());
        }
        rounds.push(r);
    }
    let reference = &rounds[0];
    let traced = if ctx.trace {
        spans::set_enabled(true);
        let traced = traced_round(&points, &reference.rendered, &mut outcome)?;
        spans::set_enabled(false);
        Some(traced)
    } else {
        None
    };

    let products = if family == Family::Mxm {
        spans::set_enabled(ctx.trace);
        let products = check_spgemm(&datasets, &apps, &mut outcome)?;
        spans::set_enabled(false);
        products
    } else {
        0
    };

    let label = match family {
        Family::Vxm => "sweep-vxm",
        Family::Mxm => "sweep-mxm",
    };
    let rendered: Vec<&str> = reference
        .rendered
        .iter()
        .flatten()
        .map(String::as_str)
        .collect();
    crate::check_digest(ctx, label, &rendered, &mut outcome);
    if ctx.seed == source::DEFAULT_SEED {
        if let Err(e) = source::check_registry(&datasets) {
            outcome.problems.push(e);
        }
    }
    let geomean = report::geomean(reference.speedups.iter().flatten().copied());
    report_band(family, &apps, &points, reference);

    let m = &mut outcome.metrics;
    if let Some((traced_wall, traced_steps)) = traced {
        let all = spans::snapshot();
        crate::layer_metrics(m, &all, traced_steps);
        let point_busy = spans::Summary::new(&all).busy_s("bench.eval");
        m.set(
            "bench.executor.idle_s",
            JOBS as f64 * traced_wall - point_busy,
            "s",
        );
        m.set(
            "bench.trace.overhead_s",
            traced_wall - reference.wall_s,
            "s",
        );
        if products > 0 {
            let busy = spans::Summary::new(&all).busy_s("core.spgemm");
            m.set("core.spgemm.products", products as f64, "count");
            m.set(
                "core.spgemm.mproducts_per_s",
                products as f64 / busy / 1e6,
                "Mproducts/s",
            );
        }
        reference.cache.report(m);
    } else {
        // A sweep is one request: its latency is a round's wall clock.
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        let run_s = report::round_s(&walls);
        m.set("setup_s", median(&setup_s), "s");
        m.set("run_s", run_s, "s");
        m.set("points_per_s", points.len() as f64 / run_s, "1/s");
        m.set("requests_per_s", points.len() as f64 / run_s, "1/s");
        m.set("latency_p50_ms", median(&walls) * 1e3, "ms");
        m.set("latency_p99_ms", quantile(&walls, 0.99) * 1e3, "ms");
        m.set("mnnz_per_s", nnz_per_round / run_s / 1e6, "Mnnz/s");
        m.set("sim_speedup_geomean", geomean, "x");
        let walls: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        println!(
            "  {} timed rounds of {} points ({} s)",
            rounds.len(),
            points.len(),
            walls.join(" ")
        );
    }
    Ok(outcome)
}

/// One traced round: every point composed from its layers' public calls
/// on a fresh cache, each entry compared byte for byte with the
/// `EvalRequest` reference. Returns the round's wall clock and the
/// simulator steps it executed.
fn traced_round(
    points: &Points,
    reference: &[Option<String>],
    outcome: &mut Outcome,
) -> Result<(f64, u64), String> {
    let exec = Executor::new(JOBS);
    let cache = Arc::clone(exec.cache());
    let builds = Builds::default();
    let started = Instant::now();
    let ids: Vec<usize> = (0..points.len()).collect();
    let results = exec.run(&ids, |&i| {
        let (dataset, app) = &points[i];
        compose::point(app, dataset, SCALE, &cache, &builds, i as u64)
    });
    let wall = started.elapsed().as_secs_f64();
    let mut steps = 0;
    for (result, want) in results.into_iter().zip(reference) {
        let p = result?;
        steps += p.sim_steps;
        if want.as_deref() != Some(report::entry_json(&p.entry).as_str()) {
            outcome.problems.push(format!(
                "composed entry for {}@{} differs from EvalRequest's",
                p.entry.app, p.entry.matrix
            ));
        }
    }
    if cache.misses() != builds.count() {
        outcome.problems.push(format!(
            "a simulation built a cache artifact itself ({} misses, {} prewarm builds)",
            cache.misses(),
            builds.count()
        ));
    }
    Ok((wall, steps))
}

/// Runs the Gustavson stage standalone per matrix × semiring of the
/// family's apps and checks each product against the tensor crate's
/// reference SpGEMM. Returns the scalar products formed.
fn check_spgemm(
    datasets: &[Arc<ScaledDataset>],
    apps: &[StaApp],
    outcome: &mut Outcome,
) -> Result<u64, String> {
    let mut semirings: Vec<SemiringOp> = Vec::new();
    for app in apps {
        let s = app
            .compile()
            .map_err(|e| format!("{}: compile: {e}", app.name))?
            .os_semiring;
        if !semirings.contains(&s) {
            semirings.push(s);
        }
    }
    let mut products = 0;
    for (id, ds) in datasets.iter().enumerate() {
        let arena = MatrixArena::from_coo(&ds.reordered);
        let csr = ds.reordered.to_csr();
        let cfg = sparsepipe_config(ds);
        let params = MxmParams {
            t_rows: cfg.subtensor_auto(ds.reordered.ncols(), ds.reordered.nnz()),
            ..MxmParams::default()
        };
        for &s in &semirings {
            let out = spans::timed("core.spgemm", id as u64, || {
                MxmRequest::new(&arena, s, &cfg).params(params).run()
            });
            products += out.stats.intermediate_nnz;
            let oracle = sparsepipe_tensor::spgemm::spgemm(&csr, &csr, s)
                .map_err(|e| format!("reference spgemm on {}: {e}", ds.id))?;
            if out.result.to_coo().entries() != oracle.to_coo().entries() {
                outcome.problems.push(format!(
                    "MxmRequest product on {} under {s:?} differs from spgemm",
                    ds.id
                ));
            }
        }
    }
    Ok(products)
}

/// Prints the modelled speedup beside the paper's Fig 14 band.
fn report_band(family: Family, apps: &[StaApp], points: &Points, reference: &Round) {
    // Fig 14's band covers the apps that admit the OEI dataflow; the
    // mxm family has no paper reference, so all of it is shown.
    let geomeans: Vec<f64> = apps
        .iter()
        .filter(|app| {
            family == Family::Mxm || app.reuse == sparsepipe_apps::ReusePattern::CrossIteration
        })
        .map(|app| {
            report::geomean(
                points
                    .iter()
                    .zip(&reference.speedups)
                    .filter(|((_, a), _)| a.name == app.name)
                    .filter_map(|(_, s)| *s),
            )
        })
        .collect();
    let lo = geomeans.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = geomeans.iter().copied().fold(0.0, f64::max);
    match family {
        Family::Vxm => println!(
            "  OEI-app speedup geomeans vs ideal: {lo:.2}-{hi:.2}x (paper Fig 14: 1.21-2.62x)"
        ),
        Family::Mxm => println!(
            "  mxm-app speedup geomeans vs ideal: {lo:.2}-{hi:.2}x (unvalidated: no paper reference)"
        ),
    }
}
