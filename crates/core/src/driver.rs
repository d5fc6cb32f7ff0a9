//! The unified simulation driver: [`SimRequest`] → [`SimOutcome`].
//!
//! Every compile-and-simulate entry into the Sparsepipe simulator goes
//! through one typed request builder instead of positional free-function
//! arguments. This gives the evaluation harness (and every future scaling
//! layer — sharding, caching, multi-backend) a single point to hook:
//!
//! ```
//! use sparsepipe_core::{SimRequest, SparsepipeConfig};
//! use sparsepipe_frontend::{compile, GraphBuilder};
//! use sparsepipe_semiring::{EwiseBinary, SemiringOp};
//! use sparsepipe_tensor::gen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new();
//! let pr = b.input_vector("pr");
//! let l = b.constant_matrix("L");
//! let y = b.vxm(pr, l, SemiringOp::MulAdd)?;
//! let s = b.ewise_scalar(EwiseBinary::Mul, y, 0.85)?;
//! let next = b.ewise_scalar(EwiseBinary::Add, s, 0.15)?;
//! b.carry(next, pr)?;
//! let program = compile(&b.build()?, 1)?;
//!
//! let graph = gen::power_law(2000, 16_000, 1.0, 0.4, 7);
//! let outcome = SimRequest::new(&program, &graph)
//!     .iterations(20)
//!     .config(SparsepipeConfig::iso_gpu())
//!     .run()?;
//! assert!(outcome.report.matrix_loads_per_iteration < 0.6);
//! assert!(outcome.telemetry.wall_s >= 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! A request is a plain value: building one performs no work, and `run`
//! borrows only immutable inputs, so requests for shared programs and
//! matrices can be executed concurrently from many threads (see the
//! thread-safety audit in `DESIGN.md` §9).

use serde::Serialize;
use sparsepipe_frontend::SparsepipeProgram;
use sparsepipe_tensor::CooMatrix;
use sparsepipe_trace::{NullSink, TraceSink};

use crate::config::SparsepipeConfig;
use crate::engine;
use crate::stats::SimReport;
use crate::CoreError;

/// Host-side measurement of one simulation run, recorded by
/// [`SimRequest::run`] for the benchmark telemetry trail
/// (`BENCH_experiments.json`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SimTelemetry {
    /// Wall-clock seconds the host spent inside the simulator call.
    pub wall_s: f64,
    /// Pipeline steps the simulator *executed* (analytically scaled
    /// passes count their steps once; analytic sweeps count 1 each).
    pub sim_steps: u64,
    /// Matrix sweeps (passes) the run *models*, including analytically
    /// scaled repetitions.
    pub modeled_passes: u64,
    /// Peak modeled working set: on-chip buffer occupancy plus the dense
    /// vector window streamed alongside it.
    pub peak_working_set_bytes: f64,
}

/// The typed result of one simulation: the architectural report plus
/// host-side telemetry and human-readable diagnostics about which
/// scheduling path the run took.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The architectural simulation report (cycles, traffic, energy).
    pub report: SimReport,
    /// Host-side run telemetry (wall-clock, event counts).
    pub telemetry: SimTelemetry,
    /// Notes on the scheduling decisions the engine made (OEI class,
    /// preprocessing applied, unfused tails).
    pub diagnostics: Vec<String>,
    /// SpGEMM statistics (intermediate nnz, accumulator peak, expansion
    /// factor) when the schedule ran the Gustavson mxm stage; `None` for
    /// vxm-only programs, so existing consumers are unaffected.
    pub mxm: Option<crate::spgemm::MxmStats>,
}

/// Builder for one simulation run.
///
/// Defaults: 1 iteration, [`SparsepipeConfig::iso_gpu`], validation off,
/// tracing off ([`NullSink`] — zero overhead, see `DESIGN.md` §10), no
/// shared cache (the run derives its artifacts into a private one).
/// All setters move `self`, so requests chain fluently; the request
/// borrows its program and matrix immutably and is `Send + Sync`
/// whenever its inputs and sink are.
#[derive(Debug, Clone, Copy)]
pub struct SimRequest<'a, S: TraceSink = NullSink> {
    program: &'a SparsepipeProgram,
    matrix: &'a CooMatrix,
    iterations: usize,
    config: SparsepipeConfig,
    sink: S,
    cache: Option<(&'a crate::MatrixCache, u64)>,
    deadline: Option<std::time::Duration>,
}

impl<'a> SimRequest<'a> {
    /// Starts a request for `program` on `matrix` with default settings.
    pub fn new(program: &'a SparsepipeProgram, matrix: &'a CooMatrix) -> Self {
        SimRequest {
            program,
            matrix,
            iterations: 1,
            config: SparsepipeConfig::iso_gpu(),
            sink: NullSink,
            cache: None,
            deadline: None,
        }
    }
}

impl<'a, S: TraceSink> SimRequest<'a, S> {
    /// Sets the number of loop iterations to simulate (default 1; 0 is
    /// rejected by [`SimRequest::run`] with [`CoreError::ZeroIterations`]).
    #[must_use]
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Replaces the hardware configuration (default
    /// [`SparsepipeConfig::iso_gpu`]).
    #[must_use]
    pub fn config(mut self, config: SparsepipeConfig) -> Self {
        self.config = config;
        self
    }

    /// The configuration this request will run with.
    pub fn config_ref(&self) -> &SparsepipeConfig {
        &self.config
    }

    /// The iteration count this request will run with.
    pub fn iteration_count(&self) -> usize {
        self.iterations
    }

    /// Attaches a shared [`MatrixCache`](crate::MatrixCache): the engine
    /// reuses the reordered matrix, arena and pass plan cached under
    /// `key` (derive it with
    /// [`MatrixCache::key_for`](crate::MatrixCache::key_for) for this
    /// request's matrix) instead of re-deriving them. Without one, the
    /// run derives them into a private cache that lives as long as the
    /// run. Results are identical either way — the cached artifacts are
    /// pure functions of the key.
    #[must_use]
    pub fn cache(mut self, cache: &'a crate::MatrixCache, key: u64) -> Self {
        self.cache = Some((cache, key));
        self
    }

    /// Gives the run a wall-clock budget, measured from the moment
    /// [`SimRequest::run`] is called. The engine checks the deadline
    /// cooperatively — between scheduling phases and every few thousand
    /// pipeline steps — and aborts with [`CoreError::DeadlineExceeded`],
    /// so long sweeps can bound the damage one pathological point does.
    /// The check compares wall-clock instants only; it never perturbs the
    /// simulated result of a run that finishes in time.
    #[must_use]
    pub fn deadline(mut self, budget: std::time::Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Attaches a trace sink: every simulator event (pass boundaries,
    /// per-step DRAM transfers, buffer inserts/hits/evictions, e-wise
    /// fires) is emitted into `sink` during [`SimRequest::run`].
    ///
    /// Pass `&mut sink` to keep ownership of the sink (the blanket
    /// `impl TraceSink for &mut S` forwards events), or move an owned
    /// sink in. Tracing never changes the simulation result — the
    /// untraced [`NullSink`] instantiation is the same code with every
    /// emission compiled out.
    #[must_use]
    pub fn trace<T: TraceSink>(self, sink: T) -> SimRequest<'a, T> {
        SimRequest {
            program: self.program,
            matrix: self.matrix,
            iterations: self.iterations,
            config: self.config,
            sink,
            cache: self.cache,
            deadline: self.deadline,
        }
    }

    /// Executes the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonSquareMatrix`] for rectangular inputs and
    /// [`CoreError::ZeroIterations`] when `iterations == 0`.
    pub fn run(mut self) -> Result<SimOutcome, CoreError> {
        // determinism: allow (host telemetry + deadline anchor, not simulated state)
        let start = std::time::Instant::now();
        let deadline = self.deadline.map(|budget| engine::Deadline {
            at: start + budget,
            budget_ms: budget.as_millis() as u64,
        });
        let private;
        let cache = match self.cache {
            Some(shared) => shared,
            None => {
                // Holds only this run's matrix, so any key will do.
                private = crate::MatrixCache::new();
                (&private, 0)
            }
        };
        let run = engine::simulate_inner(
            self.program,
            self.matrix,
            self.iterations,
            &self.config,
            &mut self.sink,
            cache,
            deadline.as_ref(),
        )?;
        let wall_s = start.elapsed().as_secs_f64();
        Ok(SimOutcome {
            telemetry: SimTelemetry {
                wall_s,
                sim_steps: run.sim_steps,
                modeled_passes: run.modeled_passes,
                peak_working_set_bytes: run.peak_working_set_bytes,
            },
            report: run.report,
            diagnostics: run.diagnostics,
            mxm: run.mxm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_frontend::{compile, GraphBuilder};
    use sparsepipe_semiring::{EwiseBinary, SemiringOp};
    use sparsepipe_tensor::gen;

    fn pagerank_program() -> SparsepipeProgram {
        let mut b = GraphBuilder::new();
        let pr = b.input_vector("pr");
        let l = b.constant_matrix("L");
        let y = b.vxm(pr, l, SemiringOp::MulAdd).unwrap();
        let s = b.ewise_scalar(EwiseBinary::Mul, y, 0.85).unwrap();
        let next = b.ewise_scalar(EwiseBinary::Add, s, 0.15).unwrap();
        b.carry(next, pr).unwrap();
        compile(&b.build().unwrap(), 1).unwrap()
    }

    #[test]
    fn builder_defaults() {
        let program = pagerank_program();
        let m = gen::uniform(100, 100, 600, 3);
        let req = SimRequest::new(&program, &m);
        assert_eq!(req.iteration_count(), 1);
        assert_eq!(*req.config_ref(), SparsepipeConfig::iso_gpu());
        assert!(!req.config_ref().validate);
    }

    #[test]
    fn setters_compose() {
        let program = pagerank_program();
        let m = gen::uniform(100, 100, 600, 3);
        let cfg = SparsepipeConfig::iso_cpu().with_buffer(1 << 16);
        let req = SimRequest::new(&program, &m)
            .iterations(7)
            .config(cfg.with_validation(true));
        assert_eq!(req.iteration_count(), 7);
        assert_eq!(req.config_ref().buffer_bytes, 1 << 16);
        assert!(req.config_ref().validate);
    }

    #[test]
    fn run_matches_report_and_fills_telemetry() {
        let program = pagerank_program();
        let m = gen::uniform(2000, 2000, 20_000, 9);
        let cfg = SparsepipeConfig::iso_gpu()
            .with_buffer(1 << 20)
            .with_preprocessing(crate::config::Preprocessing::none());
        let outcome = SimRequest::new(&program, &m)
            .iterations(10)
            .config(cfg)
            .run()
            .unwrap();
        assert!(outcome.report.total_cycles > 0);
        assert!(outcome.telemetry.sim_steps > 0);
        assert!(
            outcome.telemetry.modeled_passes >= 5,
            "10 iters → ≥5 sweeps"
        );
        assert!(outcome.telemetry.peak_working_set_bytes > 0.0);
        assert!(
            !outcome.diagnostics.is_empty(),
            "engine should narrate its scheduling path"
        );
    }

    #[test]
    fn error_paths() {
        let program = pagerank_program();
        let rect = gen::uniform(10, 20, 30, 1);
        assert!(matches!(
            SimRequest::new(&program, &rect).iterations(5).run(),
            Err(CoreError::NonSquareMatrix {
                nrows: 10,
                ncols: 20
            })
        ));
        let sq = gen::uniform(10, 10, 30, 1);
        assert!(matches!(
            SimRequest::new(&program, &sq).iterations(0).run(),
            Err(CoreError::ZeroIterations)
        ));
    }

    #[test]
    fn traced_run_is_byte_identical_and_audits_exactly() {
        use sparsepipe_trace::{MemorySink, TraceAudit};
        let program = pagerank_program();
        let m = gen::power_law(1500, 12_000, 1.0, 0.4, 19);
        let cfg = SparsepipeConfig::iso_gpu()
            .with_buffer(256 << 10)
            .with_preprocessing(crate::config::Preprocessing::none());
        // Both even and odd iteration counts: the odd case exercises the
        // analytic unfused-tail pass, which must audit exactly too.
        for iters in [10usize, 11] {
            let untraced = SimRequest::new(&program, &m)
                .iterations(iters)
                .config(cfg)
                .run()
                .unwrap();
            let mut sink = MemorySink::new();
            let traced = SimRequest::new(&program, &m)
                .iterations(iters)
                .config(cfg)
                .trace(&mut sink)
                .run()
                .unwrap();
            assert_eq!(
                traced.report, untraced.report,
                "tracing must not perturb the simulation (iters={iters})"
            );
            assert!(!sink.events().is_empty());
            let audit = TraceAudit::replay(sink.events());
            audit
                .check(&traced.report.traffic.audit_totals())
                .unwrap_or_else(|e| panic!("audit mismatch at iters={iters}: {e}"));
        }
    }

    #[test]
    fn zero_deadline_fails_deterministically() {
        let program = pagerank_program();
        let m = gen::uniform(1000, 1000, 8000, 4);
        let cfg = SparsepipeConfig::iso_gpu().with_buffer(1 << 20);
        let err = SimRequest::new(&program, &m)
            .iterations(8)
            .config(cfg)
            .deadline(std::time::Duration::ZERO)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded { budget_ms: 0 }),
            "{err}"
        );
    }

    #[test]
    fn generous_deadline_does_not_perturb_the_run() {
        let program = pagerank_program();
        let m = gen::uniform(1000, 1000, 8000, 4);
        let cfg = SparsepipeConfig::iso_gpu().with_buffer(1 << 20);
        let plain = SimRequest::new(&program, &m)
            .iterations(8)
            .config(cfg)
            .run()
            .unwrap();
        let timed = SimRequest::new(&program, &m)
            .iterations(8)
            .config(cfg)
            .deadline(std::time::Duration::from_secs(3600))
            .run()
            .unwrap();
        assert_eq!(plain.report, timed.report);
    }
}
