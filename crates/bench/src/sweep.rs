//! The app × matrix evaluation sweep shared by Figures 14–23.

use std::sync::Arc;

use sparsepipe_apps::{registry, StaApp};
use sparsepipe_baselines::cpu::CpuModel;
use sparsepipe_baselines::gpu::GpuModel;
use sparsepipe_baselines::ideal::IdealAccelerator;
use sparsepipe_baselines::oracle::OracleAccelerator;
use sparsepipe_baselines::{BaselineReport, WorkloadInstance};
use sparsepipe_core::{
    MatrixCache, MatrixProfile, PassPlan, Preprocessing, ReorderKind, SimReport, SimRequest,
    SimTelemetry, SparsepipeConfig,
};
use sparsepipe_tensor::{CooMatrix, MatrixId};
use sparsepipe_trace::{
    jsonl, MemorySink, NullSink, OccupancyTimeline, ReuseHistogram, TraceAudit, TraceEvent,
    TraceSink,
};

use crate::checkpoint::Journal;
use crate::datasets::{DataContext, ScaledDataset};
use crate::error::{BenchError, PointError, PointKey};
use crate::executor::{Executor, PointOutcome, PointRecord, TraceCounters};
use crate::fault::{FaultInjector, InjectedFault, RetryPolicy};

/// All evaluated systems' results for one (app, matrix) pair.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Entry {
    /// Application short name.
    pub app: &'static str,
    /// Matrix id.
    pub matrix: MatrixId,
    /// Whether the app admits the OEI dataflow.
    pub has_oei: bool,
    /// Loop iterations evaluated.
    pub iterations: usize,
    /// Sparsepipe (iso-GPU) simulation.
    pub sim: SimReport,
    /// Sparsepipe (iso-CPU bandwidth) simulation (§VI-B).
    pub sim_iso_cpu: SimReport,
    /// Idealized roofline sparse accelerator (Fig 14 denominator).
    pub ideal: BaselineReport,
    /// Oracle inter-operator-reuse accelerator (Fig 18).
    pub oracle: BaselineReport,
    /// CPU (ALP/GraphBLAS on 5800X3D) model.
    pub cpu: BaselineReport,
    /// GPU (GraphBLAST/Gunrock on RTX 4070) model.
    pub gpu: BaselineReport,
}

impl Entry {
    /// Sparsepipe speedup over the ideal accelerator (Fig 14).
    pub fn speedup_vs_ideal(&self) -> f64 {
        self.ideal.runtime_s / self.sim.runtime_s
    }

    /// Sparsepipe (iso-GPU) speedup over the CPU (Fig 16).
    pub fn speedup_vs_cpu(&self) -> f64 {
        self.cpu.runtime_s / self.sim.runtime_s
    }

    /// Sparsepipe (iso-CPU) speedup over the CPU (Fig 16's iso study).
    pub fn iso_cpu_speedup_vs_cpu(&self) -> f64 {
        self.cpu.runtime_s / self.sim_iso_cpu.runtime_s
    }

    /// Sparsepipe speedup over the GPU (Fig 17).
    pub fn speedup_vs_gpu(&self) -> f64 {
        self.gpu.runtime_s / self.sim.runtime_s
    }

    /// Fraction of the oracle's performance achieved (Fig 18).
    pub fn fraction_of_oracle(&self) -> f64 {
        self.oracle.runtime_s / self.sim.runtime_s
    }
}

/// One evaluated sweep point: the entry plus host-side telemetry for the
/// two Sparsepipe simulations it ran.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The cross-system results.
    pub entry: Entry,
    /// Combined telemetry of the iso-GPU and iso-CPU simulations.
    pub telemetry: SimTelemetry,
    /// Scheduling diagnostics from the iso-GPU run.
    pub diagnostics: Vec<String>,
    /// SpGEMM statistics from the iso-GPU run (`None` for vxm-only
    /// apps). Carried here — not on [`Entry`] — so the checkpoint
    /// journal's entry schema stays bitwise-stable.
    pub mxm: Option<sparsepipe_core::MxmStats>,
}

/// Derives the baselines' SpGEMM surcharge
/// ([`sparsepipe_baselines::MxmWork`]) from the exact O(nnz) SpGEMM
/// statics of a [`MatrixProfile`]:
///
/// - `b_read_bytes`: every *touched* stationary row element (CSR triple,
///   12 B) is gathered once per `mxm` pass — `spgemm_touched_elements`
///   counts exactly the B-side elements Gustavson reads, so rows that no
///   A-column references are never charged.
/// - `c_write_bytes`: the product matrix materializes once per pass; its
///   size is bounded by both the partial-product count and the dense
///   capacity of the non-empty output rows.
/// - `flops`: one multiply + one accumulate per partial product.
///
/// Returns `None` when the program runs no `mxm` passes, so vxm-only
/// workloads evaluate exactly as before.
pub fn mxm_work(
    profile: &sparsepipe_frontend::WorkloadProfile,
    matrix: &MatrixProfile,
) -> Option<sparsepipe_baselines::MxmWork> {
    if profile.mxm_passes == 0 {
        return None;
    }
    let passes = profile.mxm_passes as f64;
    let out_cap = matrix
        .spgemm_products
        .min(u64::from(matrix.n) * u64::from(matrix.spgemm_nonempty_out_rows))
        as f64;
    Some(sparsepipe_baselines::MxmWork {
        b_read_bytes: passes * matrix.spgemm_touched_elements as f64 * 12.0,
        c_write_bytes: passes * out_cap * 12.0,
        flops: passes * 2.0 * matrix.spgemm_products as f64,
    })
}

/// The full sweep result.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Sweep {
    /// Data context used.
    pub context: DataContext,
    /// One entry per (app, matrix).
    pub entries: Vec<Entry>,
}

/// The knobs of [`Sweep::run`]. The default is a plain sweep: one
/// attempt per point, no deadline, no journal, no pruning, no tracing,
/// no injected faults.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Per-point wall-clock budget (`--deadline-ms`); `None` is unbounded.
    pub deadline: Option<std::time::Duration>,
    /// Retry schedule for failed points (`--retries` / `--backoff-ms`).
    pub retry: RetryPolicy,
    /// Checkpoint journal path (`--checkpoint`); `None` disables
    /// journaling.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Restore completed points from an existing journal (`--resume`).
    pub resume: bool,
    /// Static pre-flight pruning budget in bytes (`--prune-static`):
    /// points whose *provable* DRAM-traffic lower bound (see
    /// `sparsepipe_lint::analysis_cost`) exceeds the budget are skipped
    /// without simulating, and recorded as
    /// [`PrunedPoint`](crate::executor::PrunedPoint)s. Because the bound
    /// is a proven lower bound, a pruned point could never have come in
    /// under budget — in-budget points are never pruned.
    pub prune_static: Option<f64>,
    /// Trace directory (`--trace-dir`): trace and audit every point and
    /// write its stream there; `None` runs untraced.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Deterministic fault injection (`--inject`); the default injects
    /// nothing.
    pub inject: FaultInjector,
}

/// What [`Sweep::run`] produces: the (possibly partial) sweep
/// plus a structured account of what failed and what was skipped.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The completed sweep; failed points' entries are absent.
    pub sweep: Sweep,
    /// Points that exhausted their attempts, in submission order.
    pub failures: Vec<PointError>,
    /// Points restored from the checkpoint journal instead of re-run.
    pub resumed: usize,
    /// Points actually executed this run.
    pub executed: usize,
    /// Points the static pruner skipped, in submission order.
    pub pruned: Vec<crate::executor::PrunedPoint>,
}

/// The Sparsepipe configuration used by the sweep for a dataset: blocked
/// format on, reordering pre-applied to the input (so the per-run
/// simulation does not repeat the offline preprocessing).
pub fn sparsepipe_config(dataset: &ScaledDataset) -> SparsepipeConfig {
    SparsepipeConfig::iso_gpu()
        .with_buffer(dataset.buffer_bytes())
        .with_preprocessing(Preprocessing {
            blocked: true,
            reorder: ReorderKind::None,
        })
}

/// CPU model with capacities *and* fixed per-op overheads scaled to match
/// the dataset scale (an absolute overhead would otherwise dominate the
/// 1/scale-shrunk kernel times and distort every ratio).
pub fn scaled_cpu(scale: u64) -> CpuModel {
    let mut m = CpuModel::default();
    m.llc_bytes /= scale as f64;
    m.op_overhead_s /= scale as f64;
    m
}

/// GPU model with capacities and overheads scaled to match the dataset
/// scale.
pub fn scaled_gpu(scale: u64) -> GpuModel {
    let mut m = GpuModel::default();
    m.l2_bytes /= scale as f64;
    m.saturation_nnz /= scale as f64;
    m.launch_overhead_s /= scale as f64;
    m
}

/// Derives the telemetry counters attached to a traced point's
/// [`PointRecord`] from its recorded event stream.
pub fn trace_counters(events: &[TraceEvent]) -> TraceCounters {
    let reuse = ReuseHistogram::from_events(events);
    let occupancy = OccupancyTimeline::from_events(events);
    TraceCounters {
        events: events.len() as u64,
        reuse_median: reuse.median().unwrap_or(0),
        reuse_p95: reuse.p95().unwrap_or(0),
        peak_occupancy_bytes: occupancy.peak_bytes(),
    }
}

/// The unified single-point evaluation API: one builder in place of the
/// former `evaluate` / `evaluate_cached` / `evaluate_traced` /
/// `evaluate_traced_cached` quartet.
///
/// ```no_run
/// # use sparsepipe_bench::datasets::DatasetSpec;
/// # use sparsepipe_bench::sweep::EvalRequest;
/// # use sparsepipe_tensor::MatrixId;
/// let dataset = DatasetSpec::new(MatrixId::Ca, 64).load().unwrap();
/// let pr = sparsepipe_apps::registry::by_name("pr").unwrap();
/// let cache = sparsepipe_core::MatrixCache::new();
/// let outcome = EvalRequest::new(&pr, &dataset, 64)
///     .cache(&cache)
///     .trace(sparsepipe_trace::MemorySink::new())
///     .deadline(std::time::Duration::from_secs(60))
///     .run()
///     .unwrap();
/// println!("{}", outcome.evaluation.entry.speedup_vs_ideal());
/// ```
///
/// Every option only observes or bounds the run — the [`Entry`] produced
/// is byte-identical across any combination of `cache`/`trace` (tracing
/// is audited against the run's traffic report before the outcome is
/// returned, and the cache only shares immutable derived artifacts).
#[derive(Debug)]
pub struct EvalRequest<'a> {
    app: &'a StaApp,
    dataset: &'a ScaledDataset,
    scale: u64,
    cache: Option<&'a MatrixCache>,
    sink: Option<MemorySink>,
    deadline: Option<std::time::Duration>,
    retry: crate::fault::RetryPolicy,
}

/// What [`EvalRequest::run`] produces.
#[derive(Debug)]
pub struct EvalOutcome {
    /// The point's cross-system results and host telemetry.
    pub evaluation: Evaluation,
    /// The audited trace sink, when the request was [`EvalRequest::trace`]d.
    pub trace: Option<MemorySink>,
    /// Attempts taken (> 1 only with [`EvalRequest::retry`]).
    pub attempts: u32,
}

impl<'a> EvalRequest<'a> {
    /// Starts a request evaluating `app` on `dataset` at `scale`.
    pub fn new(app: &'a StaApp, dataset: &'a ScaledDataset, scale: u64) -> Self {
        EvalRequest {
            app,
            dataset,
            scale,
            cache: None,
            sink: None,
            deadline: None,
            retry: crate::fault::RetryPolicy::default(),
        }
    }

    /// Shares derived per-matrix artifacts (pass plans, CSR/CSC arenas,
    /// profiles) through `cache`, keyed by the dataset's matrix id;
    /// without one, each attempt derives them into a private cache. The
    /// entry produced is unchanged — the cache only avoids re-deriving
    /// immutable artifacts when many apps sweep the same matrix.
    #[must_use]
    pub fn cache(mut self, cache: &'a MatrixCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Traces the iso-GPU simulation into `sink`; the recorded stream is
    /// audited against the run's traffic report with bitwise `f64`
    /// equality before the outcome is returned, and handed back as
    /// [`EvalOutcome::trace`].
    #[must_use]
    pub fn trace(mut self, sink: MemorySink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Bounds the point's wall-clock time. The iso-GPU simulation gets
    /// the full budget; the iso-CPU simulation gets whatever remains of
    /// it. An expired budget surfaces as
    /// [`sparsepipe_core::CoreError::DeadlineExceeded`] wrapped in
    /// [`BenchError::Sim`].
    #[must_use]
    pub fn deadline(mut self, budget: std::time::Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Retries failed attempts on `policy`'s deterministic schedule.
    /// This is a plain error-retry loop (panics are not caught here —
    /// point *isolation* lives in
    /// [`Executor::run_isolated`](crate::executor::Executor::run_isolated)).
    #[must_use]
    pub fn retry(mut self, policy: crate::fault::RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Runs the evaluation.
    ///
    /// # Errors
    ///
    /// [`BenchError::Compile`] if the app's graph does not compile,
    /// [`BenchError::Sim`] if the simulator rejects the point (including
    /// deadline expiry), and [`BenchError::Trace`] when a traced stream
    /// does not reproduce the run's report exactly.
    pub fn run(mut self) -> Result<EvalOutcome, BenchError> {
        let retry = self.retry;
        let mut attempt = 1u32;
        loop {
            match self.attempt_once() {
                Ok(evaluation) => {
                    return Ok(EvalOutcome {
                        evaluation,
                        trace: self.sink,
                        attempts: attempt,
                    })
                }
                Err(e) => match retry.backoff_after(attempt) {
                    Some(delay) => {
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        attempt += 1;
                    }
                    None => return Err(e),
                },
            }
        }
    }

    fn attempt_once(&mut self) -> Result<Evaluation, BenchError> {
        let private;
        let cache = match self.cache {
            Some(shared) => shared,
            None => {
                private = MatrixCache::new();
                &private
            }
        };
        let cache = (
            cache,
            MatrixCache::key_for(self.dataset.id.code(), &self.dataset.reordered),
        );
        match &mut self.sink {
            Some(sink) => {
                sink.clear();
                let ev = evaluate_with_sink(
                    self.app,
                    self.dataset,
                    self.scale,
                    sink,
                    cache,
                    self.deadline,
                )?;
                TraceAudit::replay(sink.events())
                    .check(&ev.entry.sim.traffic.audit_totals())
                    .map_err(|e| BenchError::Trace {
                        app: self.app.name.into(),
                        matrix: self.dataset.id,
                        message: e.to_string(),
                    })?;
                Ok(ev)
            }
            None => evaluate_with_sink(
                self.app,
                self.dataset,
                self.scale,
                &mut NullSink,
                cache,
                self.deadline,
            ),
        }
    }
}

fn evaluate_with_sink<S: TraceSink>(
    app: &StaApp,
    dataset: &ScaledDataset,
    scale: u64,
    sink: &mut S,
    (cache, key): (&MatrixCache, u64),
    deadline: Option<std::time::Duration>,
) -> Result<Evaluation, BenchError> {
    let program = app.compile().map_err(|e| BenchError::Compile {
        app: app.name.into(),
        message: e.to_string(),
    })?;
    let iterations = app.default_iterations;
    let cfg = sparsepipe_config(dataset);
    let sim_err = |source| BenchError::Sim {
        app: app.name.into(),
        matrix: dataset.id,
        source,
    };
    // determinism: allow (wall-clock deadline bookkeeping, not simulated state)
    let started = std::time::Instant::now();
    let mut request = SimRequest::new(&program, &dataset.reordered)
        .iterations(iterations)
        .config(cfg)
        .cache(cache, key);
    if let Some(budget) = deadline {
        request = request.deadline(budget);
    }
    let outcome = request.trace(&mut *sink).run().map_err(sim_err)?;
    let cfg_cpu = SparsepipeConfig {
        memory: sparsepipe_core::MemoryConfig::ddr4(),
        ..cfg
    };
    let mut request_cpu = SimRequest::new(&program, &dataset.reordered)
        .iterations(iterations)
        .config(cfg_cpu)
        .cache(cache, key);
    if let Some(budget) = deadline {
        // The iso-CPU run gets whatever wall-clock remains of the point's
        // budget; a spent budget fails at the run's first deadline check.
        request_cpu = request_cpu.deadline(budget.saturating_sub(started.elapsed()));
    }
    let iso_cpu = request_cpu.run().map_err(sim_err)?;

    // SpGEMM surcharge for the analytical baselines, derived from the
    // same exact statics the pruner and analyzer use.
    let work = if program.profile.mxm_passes > 0 {
        let profile = cached_profile(cache, key, &cfg, &dataset.reordered);
        mxm_work(&program.profile, &profile)
    } else {
        None
    };

    let w = WorkloadInstance {
        profile: &program.profile,
        n: dataset.matrix.nrows() as u64,
        nnz: dataset.matrix.nnz() as u64,
        stats: &dataset.stats,
        iterations,
        mxm: work,
    };
    let ideal = IdealAccelerator::new(cfg).evaluate(&w);
    let oracle = OracleAccelerator::new(cfg).evaluate(&w);
    let cpu = scaled_cpu(scale).evaluate(&w);
    let gpu = scaled_gpu(scale).evaluate(&w);

    Ok(Evaluation {
        entry: Entry {
            app: app.name,
            matrix: dataset.id,
            has_oei: program.profile.has_oei,
            iterations,
            sim: outcome.report,
            sim_iso_cpu: iso_cpu.report,
            ideal,
            oracle,
            cpu,
            gpu,
        },
        telemetry: SimTelemetry {
            wall_s: outcome.telemetry.wall_s + iso_cpu.telemetry.wall_s,
            sim_steps: outcome.telemetry.sim_steps + iso_cpu.telemetry.sim_steps,
            modeled_passes: outcome.telemetry.modeled_passes + iso_cpu.telemetry.modeled_passes,
            peak_working_set_bytes: outcome
                .telemetry
                .peak_working_set_bytes
                .max(iso_cpu.telemetry.peak_working_set_bytes),
        },
        diagnostics: outcome.diagnostics,
        mxm: outcome.mxm,
    })
}

/// The [`MatrixProfile`] of `matrix` (cached under `key`) at `cfg`'s
/// sub-tensor width, built from the likewise cached [`PassPlan`] on a
/// miss.
fn cached_profile(
    cache: &MatrixCache,
    key: u64,
    cfg: &SparsepipeConfig,
    matrix: &CooMatrix,
) -> Arc<MatrixProfile> {
    let t = cfg.subtensor_auto(matrix.ncols(), matrix.nnz());
    let kind = cfg.preprocessing.reorder;
    cache.profile(key, kind, t, || {
        MatrixProfile::build(&cache.plan(key, kind, t, || PassPlan::build(matrix, t)))
    })
}

impl Sweep {
    /// Runs the app × matrix sweep: every (app, matrix) point fanned
    /// across `exec`'s worker pool, entries reassembled in deterministic
    /// (matrix-major, registry-order) order, one telemetry record per
    /// point.
    ///
    /// Every point is isolated ([`Executor::run_isolated`]): it is
    /// retried on `opts.retry`'s schedule, bounded by `opts.deadline`,
    /// and — when a checkpoint journal is configured — persisted as soon
    /// as it completes, so a killed sweep resumes where it left off. A
    /// point that exhausts its attempts does **not** fail the sweep: it
    /// is reported in [`SweepOutcome::failures`] (submission order) and
    /// its entry is simply absent. Successful points are byte-identical
    /// at any `--jobs N` and under any combination of options, and a
    /// resumed sweep's entries are byte-identical to an uninterrupted
    /// one's (the journal digest-checks every restored record to enforce
    /// this).
    ///
    /// With `opts.trace_dir`, every point's iso-GPU simulation is traced:
    /// the stream is audited bit-for-bit against the point's report,
    /// written to the directory as `sweep-<app>-<matrix>.trace.jsonl`,
    /// and summarized into the point's telemetry record
    /// ([`TraceCounters`]). `opts.inject` deterministically perturbs
    /// attempts for the fault integration tests and the CI smoke job;
    /// the default injects nothing.
    ///
    /// # Errors
    ///
    /// Dataset loading, checkpoint journal, and trace-file write failures
    /// remain hard errors — they compromise the whole sweep, not one
    /// point.
    pub fn run(
        context: DataContext,
        exec: &Executor,
        opts: &SweepOptions,
    ) -> Result<SweepOutcome, BenchError> {
        if let Some(dir) = &opts.trace_dir {
            std::fs::create_dir_all(dir).map_err(|e| BenchError::Io {
                path: dir.clone(),
                source: e,
            })?;
        }
        let datasets: Vec<Arc<ScaledDataset>> =
            context.load(exec)?.into_iter().map(Arc::new).collect();
        let apps: Arc<[StaApp]> = registry::shared();
        let scale = context.scale;
        let points: Vec<(Arc<ScaledDataset>, &StaApp)> = datasets
            .iter()
            .flat_map(|d| apps.iter().map(move |a| (Arc::clone(d), a)))
            .collect();
        let keys: Vec<PointKey> = points
            .iter()
            .map(|(dataset, app)| PointKey {
                app: app.name.to_string(),
                matrix: dataset.id.code().to_string(),
                scale,
            })
            .collect();
        // Restore journaled points, then open (or start) the journal.
        let mut journal = None;
        let mut slots: Vec<Option<Entry>> = (0..points.len()).map(|_| None).collect();
        let mut resumed = 0usize;
        if let Some(path) = &opts.checkpoint {
            let (j, restored) = if opts.resume {
                Journal::resume(path, &context)?
            } else {
                (Journal::create(path, &context)?, Vec::new())
            };
            for (key, entry) in restored {
                if let Some(i) = keys.iter().position(|k| *k == key) {
                    if slots[i].is_none() {
                        slots[i] = Some(entry);
                        resumed += 1;
                    }
                }
            }
            journal = Some(j);
        }

        let unfilled: Vec<usize> = (0..points.len()).filter(|i| slots[*i].is_none()).collect();
        let cache = Arc::clone(exec.cache());

        // Static pre-flight pruning: a point whose *provable* traffic
        // lower bound exceeds the budget cannot come in under it, so it
        // is skipped without simulating. Apps compile once; plans and
        // profiles land in the sweep cache, so nothing here is wasted
        // even for points that survive.
        let mut pruned = Vec::new();
        let work: Vec<usize> = match opts.prune_static {
            None => unfilled,
            Some(budget) => {
                let mut kept = Vec::new();
                let mut programs: Vec<(&str, Option<Arc<sparsepipe_frontend::SparsepipeProgram>>)> =
                    Vec::new();
                for &i in &unfilled {
                    let (dataset, app) = &points[i];
                    let program = match programs.iter().find(|(n, _)| *n == app.name) {
                        Some((_, p)) => p.clone(),
                        None => {
                            let p = app.compile().ok().map(Arc::new);
                            programs.push((app.name, p.clone()));
                            p
                        }
                    };
                    // A non-compiling app is never pruned — the normal
                    // execution path owns reporting that failure.
                    let Some(program) = program else {
                        kept.push(i);
                        continue;
                    };
                    let cfg = sparsepipe_config(dataset);
                    let matrix = &dataset.reordered;
                    let key = MatrixCache::key_for(dataset.id.code(), matrix);
                    let profile = cached_profile(&cache, key, &cfg, matrix);
                    let report = sparsepipe_lint::analysis_cost::analyze(
                        &program,
                        &profile,
                        &cfg,
                        app.default_iterations,
                    );
                    let lower = report.traffic.total().lower;
                    if lower > budget {
                        let p = crate::executor::PrunedPoint {
                            point: keys[i].clone(),
                            lower_bound_bytes: lower,
                            budget_bytes: budget,
                        };
                        exec.record_pruned(p.clone());
                        pruned.push(p);
                    } else {
                        kept.push(i);
                    }
                }
                kept
            }
        };
        let deadline_ms = opts.deadline.map_or(0, |d| d.as_millis() as u64);
        let mut journal_err: Option<BenchError> = None;
        let outcomes = exec.run_isolated(
            &work,
            &opts.retry,
            |&i| keys[i].clone(),
            |&i, attempt| {
                let (dataset, app) = &points[i];
                let key = &keys[i];
                match opts.inject.inject(key, attempt) {
                    Some(InjectedFault::Panic) => panic!("injected panic at {key}"),
                    Some(InjectedFault::Timeout) => {
                        return Err(BenchError::Sim {
                            app: app.name.into(),
                            matrix: dataset.id,
                            source: sparsepipe_core::CoreError::DeadlineExceeded {
                                budget_ms: deadline_ms,
                            },
                        })
                    }
                    Some(InjectedFault::Transient) => {
                        return Err(BenchError::Injected {
                            label: key.label(),
                            attempt,
                        })
                    }
                    None => {}
                }
                let mut request = EvalRequest::new(app, dataset, scale).cache(&cache);
                if let Some(budget) = opts.deadline {
                    request = request.deadline(budget);
                }
                if opts.trace_dir.is_some() {
                    request = request.trace(MemorySink::new());
                }
                request.run()
            },
            |w, outcome| {
                // Journal completions as they land, so a killed sweep
                // keeps every finished point.
                if let (Some(j), PointOutcome::Ok { value, .. }) = (&mut journal, outcome) {
                    if journal_err.is_none() {
                        if let Err(e) = j.append(&keys[work[w]], &value.evaluation.entry) {
                            journal_err = Some(e);
                        }
                    }
                }
            },
        );
        if let Some(e) = journal_err {
            return Err(e);
        }

        // Reassemble in point order; report failures in the same order.
        let mut failures = Vec::new();
        let executed = work.len();
        for (&i, outcome) in work.iter().zip(outcomes) {
            let (dataset, app) = &points[i];
            match outcome {
                PointOutcome::Ok { value, attempts } => {
                    let ev = value.evaluation;
                    let mut record = PointRecord::from_telemetry(
                        format!("sweep:{}-{}", app.name, dataset.id.code()),
                        &ev.telemetry,
                    );
                    if let (Some(dir), Some(sink)) = (&opts.trace_dir, value.trace) {
                        let path = dir.join(format!(
                            "sweep-{}-{}.trace.jsonl",
                            app.name,
                            dataset.id.code()
                        ));
                        jsonl::write_events(&path, sink.events()).map_err(|e| BenchError::Io {
                            path: path.clone(),
                            source: e,
                        })?;
                        record = record.with_trace(trace_counters(sink.events()));
                    }
                    exec.record(record.with_mxm(ev.mxm).with_attempts(attempts));
                    slots[i] = Some(ev.entry);
                }
                PointOutcome::Failed(e) => failures.push(e),
            }
        }
        let entries = slots.into_iter().flatten().collect();
        Ok(SweepOutcome {
            sweep: Sweep { context, entries },
            failures,
            resumed,
            executed,
            pruned,
        })
    }

    /// Entries for one app, in matrix order.
    pub fn by_app(&self, app: &str) -> Vec<&Entry> {
        self.entries.iter().filter(|e| e.app == app).collect()
    }

    /// All distinct app names, in registry order.
    pub fn app_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for e in &self.entries {
            if !names.contains(&e.app) {
                names.push(e.app);
            }
        }
        names
    }

    /// All matrices present, in Table-I order.
    pub fn matrices(&self) -> Vec<MatrixId> {
        MatrixId::ALL
            .into_iter()
            .filter(|m| self.entries.iter().any(|e| e.matrix == *m))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::MatrixSet;

    /// A sweep that must complete: every point succeeds.
    fn complete(outcome: SweepOutcome) -> Sweep {
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        outcome.sweep
    }

    fn tiny_sweep() -> Sweep {
        // scale 128 keeps matrices non-degenerate (the per-step latency
        // floor dominates below ~1k non-zeros and distorts every ratio)
        let ctx = DataContext::synthetic(MatrixSet::Quick, 128);
        complete(Sweep::run(ctx, &Executor::new(0), &SweepOptions::default()).unwrap())
    }

    #[test]
    fn sweep_covers_all_pairs() {
        let s = tiny_sweep();
        assert_eq!(s.entries.len(), 15 * 3);
        assert_eq!(s.app_names().len(), 15);
        assert_eq!(s.matrices().len(), 3);
        assert_eq!(s.by_app("pr").len(), 3);
    }

    #[test]
    fn sweep_records_one_telemetry_point_per_pair() {
        let exec = Executor::new(2);
        let ctx = DataContext::synthetic(MatrixSet::Quick, 128);
        let s = complete(Sweep::run(ctx, &exec, &SweepOptions::default()).unwrap());
        let t = exec.finish();
        assert_eq!(t.points, s.entries.len());
        assert!(t.sim_steps_total > 0);
        assert!(t.modeled_passes_total > 0);
        assert!(t.peak_working_set_bytes_max > 0.0);
        assert_eq!(t.records[0].label, "sweep:pr-ca");
    }

    #[test]
    fn traced_sweep_matches_untraced_and_writes_streams() {
        let dir =
            std::env::temp_dir().join(format!("sparsepipe-traced-sweep-{}", std::process::id()));
        let exec = Executor::new(2);
        let opts = SweepOptions {
            trace_dir: Some(dir.clone()),
            ..SweepOptions::default()
        };
        let ctx = DataContext::synthetic(MatrixSet::Quick, 128);
        let traced = complete(Sweep::run(ctx, &exec, &opts).unwrap());
        let untraced = tiny_sweep();
        assert_eq!(traced.entries.len(), untraced.entries.len());
        for (t, u) in traced.entries.iter().zip(&untraced.entries) {
            assert_eq!(t.sim, u.sim, "tracing perturbed {}-{}", t.app, t.matrix);
            assert_eq!(t.sim_iso_cpu, u.sim_iso_cpu);
        }
        let telem = exec.finish();
        assert_eq!(telem.points, traced.entries.len());
        assert!(telem.records.iter().all(|r| r.trace.is_some()));
        assert!(telem.records[0].trace.unwrap().events > 0);
        assert!(dir.join("sweep-pr-ca.trace.jsonl").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn static_pruning_never_drops_in_budget_points() {
        // Ground truth: the unpruned sweep's actual traffic per point.
        let baseline = tiny_sweep();
        let mut totals: Vec<f64> = baseline
            .entries
            .iter()
            .map(|e| e.sim.traffic.total_bytes())
            .collect();
        totals.sort_by(f64::total_cmp);
        // A mid-range budget so the pruner has both kinds of point.
        let budget = totals[totals.len() / 2];

        let opts = SweepOptions {
            prune_static: Some(budget),
            ..SweepOptions::default()
        };
        let mut reference: Option<(Vec<Entry>, Vec<crate::executor::PrunedPoint>)> = None;
        for jobs in [1, 4] {
            let exec = Executor::new(jobs);
            let outcome =
                Sweep::run(DataContext::synthetic(MatrixSet::Quick, 128), &exec, &opts).unwrap();
            assert!(outcome.failures.is_empty());
            assert!(
                !outcome.pruned.is_empty() && outcome.pruned.len() < baseline.entries.len(),
                "a mid-range budget must prune some points but not all: {} of {}",
                outcome.pruned.len(),
                baseline.entries.len()
            );
            assert_eq!(
                outcome.sweep.entries.len() + outcome.pruned.len(),
                baseline.entries.len()
            );
            // Soundness: every pruned point's *actual* traffic exceeds the
            // budget (the pruner must never skip an in-budget point), and
            // its recorded lower bound is itself under the actual.
            for p in &outcome.pruned {
                let actual = baseline
                    .entries
                    .iter()
                    .find(|e| e.app == p.point.app && e.matrix.code() == p.point.matrix)
                    .map(|e| e.sim.traffic.total_bytes())
                    .expect("pruned point exists in the baseline");
                assert!(p.lower_bound_bytes > budget);
                assert!(
                    actual > budget,
                    "{}: pruned but actual {actual} <= budget {budget}",
                    p.point
                );
                assert!(
                    p.lower_bound_bytes <= actual,
                    "{}: recorded bound {} above actual {actual}",
                    p.point,
                    p.lower_bound_bytes
                );
            }
            // Surviving entries are byte-identical to the unpruned run's.
            for e in &outcome.sweep.entries {
                let b = baseline
                    .entries
                    .iter()
                    .find(|x| x.app == e.app && x.matrix == e.matrix)
                    .unwrap();
                assert_eq!(e.sim, b.sim, "{}-{} perturbed by pruning", e.app, e.matrix);
            }
            // Pruned points appear in the telemetry; the pruner's
            // plan/profile work lands in the shared cache counters.
            let telem = exec.finish();
            assert_eq!(telem.pruned_points, outcome.pruned);
            assert!(telem.matrix_cache.is_some());
            // And the whole outcome is identical across thread counts.
            match &reference {
                None => reference = Some((outcome.sweep.entries, outcome.pruned)),
                Some((entries, pruned)) => {
                    assert_eq!(*entries, outcome.sweep.entries, "jobs={jobs}");
                    assert_eq!(*pruned, outcome.pruned, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn oei_apps_beat_ideal_on_friendly_matrices() {
        // On eu (tiny live set, memory-bound, large enough that pipeline
        // fill is negligible), pr must beat the ideal baseline thanks to
        // cross-iteration reuse.
        let dataset = crate::datasets::DatasetSpec::new(MatrixId::Eu, 512)
            .load()
            .unwrap();
        let pr = sparsepipe_apps::registry::by_name("pr").unwrap();
        let pr_eu = EvalRequest::new(&pr, &dataset, 512)
            .run()
            .unwrap()
            .evaluation
            .entry;
        assert!(
            pr_eu.speedup_vs_ideal() > 1.4,
            "pr/eu speedup {} too small",
            pr_eu.speedup_vs_ideal()
        );
        // and the non-OEI cg stays near parity (0.6–1.4x)
        let cg = sparsepipe_apps::registry::by_name("cg").unwrap();
        let cg_eu = EvalRequest::new(&cg, &dataset, 512)
            .run()
            .unwrap()
            .evaluation
            .entry;
        let sp = cg_eu.speedup_vs_ideal();
        assert!((0.6..1.4).contains(&sp), "cg/eu speedup {sp} out of band");
    }

    #[test]
    fn evaluation_carries_telemetry_and_diagnostics() {
        let dataset = crate::datasets::DatasetSpec::new(MatrixId::Ca, 512)
            .load()
            .unwrap();
        let pr = sparsepipe_apps::registry::by_name("pr").unwrap();
        let ev = EvalRequest::new(&pr, &dataset, 512)
            .run()
            .unwrap()
            .evaluation;
        assert!(ev.telemetry.sim_steps > 0);
        assert!(ev.telemetry.modeled_passes > 0);
        assert!(!ev.diagnostics.is_empty());
    }

    #[test]
    fn sparsepipe_beats_cpu_and_gpu_models() {
        let s = tiny_sweep();
        for e in &s.entries {
            assert!(
                e.speedup_vs_cpu() > 1.0,
                "{}-{} vs cpu: {}",
                e.app,
                e.matrix,
                e.speedup_vs_cpu()
            );
        }
        let gpu_speedups: Vec<f64> = s.entries.iter().map(super::Entry::speedup_vs_gpu).collect();
        assert!(crate::geomean(&gpu_speedups) > 1.5);
    }

    #[test]
    fn oracle_fraction_is_a_fraction() {
        let s = tiny_sweep();
        for e in &s.entries {
            let f = e.fraction_of_oracle();
            assert!(f <= 1.05, "{}-{} exceeds oracle: {f}", e.app, e.matrix);
            assert!(f > 0.03, "{}-{} far from oracle: {f}", e.app, e.matrix);
        }
    }
}
