//! The top-level simulator: pass scheduling, fallbacks, and report
//! assembly.

use sparsepipe_frontend::SparsepipeProgram;
use sparsepipe_tensor::CooMatrix;
use sparsepipe_trace::{TraceEvent, TraceSink, TrafficClass};

use crate::config::{ReorderKind, SparsepipeConfig};
use crate::energy::EnergyTally;
use crate::pipeline::{PassParams, PassResult};
use crate::plan::PassPlan;
use crate::schedule::{PassKind, Schedule, StreamBytes};
use crate::stats::{BwSample, SimReport, TrafficBreakdown, TrafficLedger};
use crate::{CoreError, SimOutcome, SimTelemetry};

/// A resolved wall-clock deadline for one simulation run, carried through
/// the engine so cooperative checks can name the original budget in the
/// error they raise.
pub(crate) struct Deadline {
    /// The instant past which the run must abort.
    pub at: std::time::Instant,
    /// The budget that produced `at`, in milliseconds (reported in
    /// [`CoreError::DeadlineExceeded`]).
    pub budget_ms: u64,
}

impl Deadline {
    /// Fails with [`CoreError::DeadlineExceeded`] once the wall clock has
    /// reached the deadline.
    pub fn check(&self) -> Result<(), CoreError> {
        // determinism: allow (the Deadline module is the sanctioned clock reader)
        if std::time::Instant::now() >= self.at {
            Err(CoreError::DeadlineExceeded {
                budget_ms: self.budget_ms,
            })
        } else {
            Ok(())
        }
    }
}

/// Checks an optional deadline (no deadline always passes).
fn check_deadline(deadline: Option<&Deadline>) -> Result<(), CoreError> {
    deadline.map_or(Ok(()), Deadline::check)
}

/// The engine proper, behind the [`crate::SimRequest`] driver — the sole
/// compile-and-simulate entry, which fills in the outcome's wall clock.
/// Generic over the trace sink; the default [`NullSink`] instantiation is
/// the untraced engine.
///
/// The passes are the program's [`Schedule`], which follows its OEI
/// class ([`OeiClass`](crate::schedule::OeiClass)).
///
/// The engine simulates `matrix` as given: row reordering is offline
/// preprocessing its caller applies beforehand
/// ([`ReorderKind::apply`]). Every derived artifact — the arena, the
/// pass plan — comes from `cache` (a [`MatrixCache`](crate::MatrixCache)
/// plus this matrix's key), so repeated runs over one matrix share them;
/// the cached artifacts are pure functions of the key, so results are
/// the same on a shared cache and on a fresh one.
pub(crate) fn simulate_inner<S: TraceSink>(
    program: &SparsepipeProgram,
    matrix: &CooMatrix,
    iterations: usize,
    config: &SparsepipeConfig,
    sink: &mut S,
    (cache, key): (&crate::MatrixCache, u64),
    deadline: Option<&Deadline>,
) -> Result<SimOutcome, CoreError> {
    if matrix.nrows() != matrix.ncols() {
        return Err(CoreError::NonSquareMatrix {
            nrows: matrix.nrows(),
            ncols: matrix.ncols(),
        });
    }
    if iterations == 0 {
        return Err(CoreError::ZeroIterations);
    }
    check_deadline(deadline)?;

    let schedule = Schedule::new(&program.profile, iterations);

    let profile = &program.profile;
    let feature = profile.feature_dim as f64;
    let ewise_arith = program.ewise_arithmetic_per_element() as f64;
    let bpc = config.memory.bytes_per_cycle(config.clock_ghz);
    let fetch_b = config.fetch_bytes_per_element();
    let n = matrix.nrows() as f64;
    let nnz = matrix.nnz() as f64;
    let pes = config.pes_per_core as f64;
    let ewise_elem = ewise_arith + profile.dense_flops_per_element;

    let mut run = RunTotals {
        bpc,
        ..RunTotals::default()
    };

    // ---- SpGEMM (mxm) family (DESIGN.md §15): one Gustavson plan serves
    // the fused units and the unfused tail, each pass replaying its counts.
    let t = config.subtensor_auto(matrix.ncols(), matrix.nnz());
    let mxm_plan = if schedule.mxm {
        let arena = &*cache.arena(key, || crate::MatrixArena::from_coo(matrix));
        check_deadline(deadline)?;
        let steps = crate::spgemm::step_count(arena.n(), t) as u32;
        let plan =
            crate::spgemm::MxmPlan::build_until(arena, program.os_semiring, config, t, deadline)?;
        Some((plan, steps))
    } else {
        None
    };

    for pass in &schedule.passes {
        match pass.kind {
            PassKind::Mxm => {
                let (plan, steps) = mxm_plan.as_ref().expect("mxm passes need the plan");
                run.open(sink, pass.repeats, *steps);
                let params = crate::spgemm::MxmParams {
                    fused_iterations: pass.share,
                    ewise_matrix_passes: profile.ewise_matrix_passes as f64,
                    t_rows: t,
                };
                run.fold(&plan.replay(config, &params, sink), pass.repeats, 0.0);
            }
            PassKind::Fused => {
                let plan = &*cache.plan(key, ReorderKind::None, t, || PassPlan::build(matrix, t));
                check_deadline(deadline)?;
                let params = PassParams {
                    feature,
                    ewise_arith_per_elem: ewise_elem,
                    ewise_iterations: pass.share,
                    dense_flops_per_element: 0.0,
                    // Each pass streams the fused live-in vectors once (the
                    // second fused iteration's carried operands are *produced
                    // on chip* by the first — that is the producer-consumer
                    // reuse), plus the inter-pass result round-trip (written
                    // back as computed, re-read as the next pass's OS input).
                    // The fused counts are feature-scaled already; the
                    // round-trip is one n×f activation.
                    vec_read_passes: profile.fused_vector_reads + feature,
                    vec_write_passes: profile.fused_vector_writes + feature,
                };
                run.open(sink, pass.repeats, plan.steps() as u32);
                let result =
                    crate::pipeline::execute_pass_traced(plan, config, &params, sink, deadline)?;
                run.fold(&result, pass.repeats, n * 8.0 * feature);
            }
            PassKind::UnfusedTail => {
                // A trailing single iteration with no partner to fuse with:
                // one OS-only sweep at roofline.
                let bytes = pass.stream_bytes(profile, n, nnz, fetch_b);
                let compute = (nnz * 2.0 * feature) / (2.0 * pes) + n * feature * ewise_elem / pes;
                run.open(sink, pass.repeats, 1);
                let result = closed_form_pass(
                    sink,
                    ((bytes.matrix + bytes.vector) / bpc).max(compute),
                    bytes.charged,
                    2.0 * (bytes.matrix + bytes.vector),
                    nnz * 2.0 * feature + n * feature * ewise_arith,
                );
                run.fold(&result, pass.repeats, 0.0);
            }
            PassKind::ClosedForm => {
                // ---- No OEI: sequential operator passes with producer-
                // consumer fusion only (CG/BiCGSTAB class). The matrix is
                // streamed once per matrix operator per iteration in a
                // single (row- or column-) order — no dual storage needed.
                let StreamBytes {
                    matrix: mbytes,
                    vector: vbytes,
                    charged,
                } = pass.stream_bytes(profile, n, nnz, fetch_b);
                let matrix_compute =
                    profile.matrix_passes as f64 * nnz * 2.0 * feature / (2.0 * pes);
                let ewise_compute = n * feature * ewise_elem / pes;
                // Running a non-OEI schedule on the OEI pipeline still pays
                // the sub-tensor dispatch / synchronization overhead between
                // stages — this is why cg/bgs land at or slightly below the
                // ideal accelerator in Fig 14 (0.75x–1.20x in the paper).
                const DISPATCH_OVERHEAD: f64 = 1.12;
                let per_iter_cycles = ((mbytes + vbytes) / bpc).max(matrix_compute + ewise_compute)
                    * DISPATCH_OVERHEAD;
                // The pass's share is the whole run: full totals, never
                // per-iteration values × iterations (f64 multiplication does
                // not re-associate across that split; the audit compares bits).
                let iters = pass.share;
                let [csc_total, vec_total_read, vec_total_write] = charged;
                run.open(sink, pass.repeats, 1);
                let result = closed_form_pass(
                    sink,
                    per_iter_cycles * iters,
                    charged,
                    2.0 * (csc_total + vec_total_read + vec_total_write),
                    iters
                        * (profile.matrix_passes as f64 * nnz * 2.0 * feature
                            + n * feature * ewise_arith),
                );
                run.fold(&result, pass.repeats, 2.0 * n * 8.0 * feature);
                run.sim_steps = iterations as u64;
                run.modeled_passes = (iterations * profile.matrix_passes) as u64;
                run.bw_trace = vec![
                    BwSample {
                        utilization: ((mbytes + vbytes) / bpc / per_iter_cycles).min(1.0),
                        csc_frac: (mbytes / bpc / per_iter_cycles).min(1.0),
                        csr_frac: 0.0,
                        vector_frac: (vbytes / bpc / per_iter_cycles).min(1.0),
                    };
                    25
                ];
            }
        }
    }

    let traffic = run.traffic;
    let total_cycles = run.cycles;
    let total_bytes = traffic.total_bytes();
    let avg_bw_utilization = (total_bytes / (total_cycles * bpc)).min(1.0);
    let matrix_read_bytes = traffic.csc_bytes + traffic.csr_eager_bytes + traffic.refetch_bytes;
    let runtime_s = total_cycles / (config.clock_ghz * 1e9);

    Ok(SimOutcome {
        report: SimReport {
            total_cycles: total_cycles.ceil() as u64,
            runtime_s,
            traffic,
            avg_bw_utilization,
            bw_trace: run.bw_trace,
            buffer_peak_bytes: run.buffer_peak,
            buffer_avg_bytes: run.buffer_avg,
            evicted_elements: run.evicted,
            repack_events: run.repacks,
            energy: run.tally.breakdown(),
            matrix_loads_per_iteration: {
                let denom = nnz * fetch_b * profile.matrix_passes as f64 * iterations as f64;
                if denom > 0.0 {
                    matrix_read_bytes / denom
                } else {
                    0.0
                }
            },
            iterations,
        },
        telemetry: SimTelemetry {
            wall_s: 0.0,
            sim_steps: run.sim_steps,
            modeled_passes: run.modeled_passes,
            peak_working_set_bytes: run.peak_working_set,
        },
        mxm: mxm_plan.map(|(plan, ..)| plan.stats()),
        schedule,
    })
}

/// A closed-form sweep as a step-less pass: its `[CSC, vector read,
/// write-back]` bytes charged at step 0 and all of its compute in
/// `os_ops`, so [`RunTotals::fold`] at `repeats = 1` reproduces the
/// sweep's arithmetic exactly (`x * 1.0` and `x + 0.0` are identities).
fn closed_form_pass<S: TraceSink>(
    sink: &mut S,
    cycles: f64,
    [csc, vec_read, writeback]: [f64; 3],
    sram_bytes: f64,
    ops: f64,
) -> PassResult {
    let mut ledger = TrafficLedger::default();
    ledger.charge(sink, TrafficClass::CscDemand, csc, 0);
    ledger.charge(sink, TrafficClass::VectorRead, vec_read, 0);
    ledger.charge(sink, TrafficClass::Writeback, writeback, 0);
    PassResult {
        cycles,
        traffic: ledger.totals,
        steps: Vec::new(),
        evictions: 0,
        repacks: 0,
        buffer_peak_bytes: 0.0,
        buffer_avg_bytes: 0.0,
        os_ops: ops,
        ew_ops: 0.0,
        is_ops: 0.0,
        sram_bytes,
    }
}

/// The run-level accumulators every schedule arm folds its passes into.
#[derive(Default)]
struct RunTotals {
    /// Bytes per cycle, for down-sampling the first pass's bandwidth trace.
    bpc: f64,
    /// Passes folded so far (the next [`TraceEvent::PassBoundary`] ordinal).
    passes: u32,
    traffic: TrafficBreakdown,
    cycles: f64,
    tally: EnergyTally,
    evicted: u64,
    repacks: u64,
    buffer_peak: f64,
    buffer_avg: f64,
    bw_trace: Vec<BwSample>,
    sim_steps: u64,
    modeled_passes: u64,
    peak_working_set: f64,
}

impl RunTotals {
    /// Opens the next pass in the trace: the boundary the audit scales
    /// that pass's DRAM events by.
    fn open<S: TraceSink>(&self, sink: &mut S, repeats: u64, steps: u32) {
        if S::ENABLED {
            sink.emit(TraceEvent::PassBoundary {
                pass: self.passes,
                repeats,
                steps,
            });
        }
    }

    /// Folds `repeats` runs of `pass` into the totals: every field is
    /// scaled by `repeats as f64` and then added, the arithmetic the
    /// trace audit's replay mirrors. The bandwidth trace and the mean
    /// occupancy come from the first pass; a step-less (closed-form) pass
    /// counts as one step; `vector_window` is the dense working set the
    /// pass keeps beside its buffer peak.
    fn fold(&mut self, pass: &PassResult, repeats: u64, vector_window: f64) {
        let count = repeats as f64;
        let mut scaled = pass.traffic;
        scaled.csc_bytes *= count;
        scaled.csr_eager_bytes *= count;
        scaled.refetch_bytes *= count;
        scaled.vector_bytes *= count;
        scaled.writeback_bytes *= count;
        self.traffic.add(&scaled);
        self.cycles += pass.cycles * count;
        self.tally.dram_read(scaled.read_bytes());
        self.tally.dram_write(scaled.writeback_bytes);
        self.tally.sram(pass.sram_bytes * count);
        self.tally
            .compute((pass.os_ops + pass.ew_ops + pass.is_ops) * count);
        self.evicted += pass.evictions * repeats;
        self.repacks += pass.repacks * repeats;
        self.buffer_peak = self.buffer_peak.max(pass.buffer_peak_bytes);
        if self.passes == 0 {
            self.buffer_avg = pass.buffer_avg_bytes;
            self.bw_trace = downsample_trace(pass, self.bpc, 25);
        }
        self.sim_steps += pass.steps.len().max(1) as u64;
        self.modeled_passes += repeats;
        self.peak_working_set = self
            .peak_working_set
            .max(pass.buffer_peak_bytes + vector_window);
        self.passes += 1;
    }
}

fn downsample_trace(pass: &PassResult, bpc: f64, buckets: usize) -> Vec<BwSample> {
    let steps = &pass.steps;
    if steps.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(buckets);
    for i in 0..buckets {
        let lo = i * steps.len() / buckets;
        let hi = (((i + 1) * steps.len()) / buckets)
            .max(lo + 1)
            .min(steps.len());
        let mut cycles = 0.0;
        let (mut csc, mut csr, mut vec_b) = (0.0, 0.0, 0.0);
        for s in &steps[lo..hi] {
            cycles += s.cycles;
            csc += s.csc_bytes;
            csr += s.csr_bytes;
            vec_b += s.vec_bytes;
        }
        let cap = (cycles * bpc).max(1e-12);
        out.push(BwSample {
            utilization: ((csc + csr + vec_b) / cap).min(1.0),
            csc_frac: (csc / cap).min(1.0),
            csr_frac: (csr / cap).min(1.0),
            vector_frac: (vec_b / cap).min(1.0),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_frontend::{compile, GraphBuilder};
    use sparsepipe_semiring::{EwiseBinary, SemiringOp};
    use sparsepipe_tensor::gen;

    /// Shorthand for the [`crate::SimRequest`] driver.
    fn simulate(
        program: &SparsepipeProgram,
        matrix: &CooMatrix,
        iterations: usize,
        config: &SparsepipeConfig,
    ) -> Result<SimReport, CoreError> {
        crate::driver::SimRequest::new(program, matrix)
            .iterations(iterations)
            .config(*config)
            .run()
            .map(|o| o.report)
    }

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

    fn cg_like_program() -> SparsepipeProgram {
        let mut b = GraphBuilder::new();
        let p = b.input_vector("p");
        let r = b.input_vector("r");
        let a = b.constant_matrix("A");
        let q = b.vxm(p, a, SemiringOp::MulAdd).unwrap();
        let pq = b.dot(p, q).unwrap();
        let step = b.ewise_broadcast(EwiseBinary::Mul, q, pq).unwrap();
        let r_next = b.ewise(EwiseBinary::Sub, r, step).unwrap();
        let p_next = b.ewise(EwiseBinary::Add, r_next, p).unwrap();
        b.carry(p_next, p).unwrap();
        b.carry(r_next, r).unwrap();
        compile(&b.build().unwrap(), 1).unwrap()
    }

    fn cfg() -> SparsepipeConfig {
        SparsepipeConfig::iso_gpu()
            .with_buffer(1 << 20)
            .with_preprocessing(crate::config::Preprocessing::none())
    }

    #[test]
    fn oei_halves_matrix_traffic() {
        let m = gen::uniform(4000, 4000, 40_000, 9);
        let report = simulate(&pagerank_program(), &m, 20, &cfg()).unwrap();
        // cross-iteration fusion: each matrix element read once per TWO
        // iterations (plus a little refetch noise)
        assert!(
            report.matrix_loads_per_iteration < 0.65,
            "matrix loads/iter = {}",
            report.matrix_loads_per_iteration
        );
        assert!(report.matrix_loads_per_iteration > 0.45);
    }

    #[test]
    fn non_oei_app_reloads_matrix_every_iteration() {
        let m = gen::uniform(4000, 4000, 40_000, 9);
        let report = simulate(&cg_like_program(), &m, 20, &cfg()).unwrap();
        assert!((report.matrix_loads_per_iteration - 1.0).abs() < 1e-6);
    }

    #[test]
    fn closed_form_stream_emits_one_pass_of_three_charges() {
        use sparsepipe_trace::MemorySink;
        let m = gen::uniform(1000, 1000, 8000, 4);
        let mut sink = MemorySink::new();
        let traced = crate::driver::SimRequest::new(&cg_like_program(), &m)
            .iterations(7)
            .config(cfg())
            .trace(&mut sink)
            .run()
            .unwrap()
            .report;
        let t = traced.traffic;
        assert!(t.csc_bytes > 0.0 && t.vector_bytes > 0.0 && t.writeback_bytes > 0.0);
        let vec = 1u64 << 36;
        assert_eq!(
            sink.events(),
            [
                TraceEvent::PassBoundary {
                    pass: 0,
                    repeats: 1,
                    steps: 1,
                },
                TraceEvent::DramRead {
                    addr: 0,
                    bytes: t.csc_bytes,
                    class: TrafficClass::CscDemand,
                    step: 0,
                },
                TraceEvent::DramRead {
                    addr: vec,
                    bytes: t.vector_bytes,
                    class: TrafficClass::VectorRead,
                    step: 0,
                },
                TraceEvent::DramWrite {
                    addr: vec + t.vector_bytes as u64,
                    bytes: t.writeback_bytes,
                    class: TrafficClass::Writeback,
                    step: 0,
                },
            ]
        );
    }

    #[test]
    fn oei_is_faster_than_reload_for_memory_bound() {
        let m = gen::uniform(4000, 4000, 60_000, 9);
        let pr = simulate(&pagerank_program(), &m, 20, &cfg()).unwrap();
        let cg = simulate(&cg_like_program(), &m, 20, &cfg()).unwrap();
        assert!(
            pr.runtime_s < cg.runtime_s,
            "OEI app should run faster per-iteration-count: {} vs {}",
            pr.runtime_s,
            cg.runtime_s
        );
    }

    #[test]
    fn small_buffer_degrades_performance() {
        // A scattered matrix with ~50% peak live set: shrinking the buffer
        // forces ping-pong and slows the run down.
        let m = gen::uniform(4000, 4000, 80_000, 9);
        let big = simulate(&pagerank_program(), &m, 10, &cfg().with_buffer(4 << 20)).unwrap();
        let small = simulate(&pagerank_program(), &m, 10, &cfg().with_buffer(64 << 10)).unwrap();
        assert!(small.evicted_elements > 0);
        assert!(small.runtime_s > big.runtime_s);
        assert!(small.traffic.refetch_bytes > big.traffic.refetch_bytes);
    }

    #[test]
    fn report_fields_are_consistent() {
        let m = gen::banded(2000, 20_000, 30, 3);
        let r = simulate(&pagerank_program(), &m, 8, &cfg()).unwrap();
        assert!(r.total_cycles > 0);
        assert!(r.runtime_s > 0.0);
        assert_eq!(r.bw_trace.len(), 25);
        assert!(r.avg_bw_utilization > 0.0 && r.avg_bw_utilization <= 1.0);
        assert!(r.energy.total_pj() > 0.0);
        assert_eq!(r.iterations, 8);
    }

    #[test]
    fn odd_iterations_add_unfused_tail() {
        let m = gen::uniform(2000, 2000, 20_000, 5);
        let even = simulate(&pagerank_program(), &m, 10, &cfg()).unwrap();
        let odd = simulate(&pagerank_program(), &m, 11, &cfg()).unwrap();
        assert!(odd.runtime_s > even.runtime_s);
        // the tail iteration reloads the matrix fully, so loads/iter rises
        assert!(odd.matrix_loads_per_iteration > even.matrix_loads_per_iteration);
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = gen::uniform(10, 20, 30, 1);
        assert!(matches!(
            simulate(&pagerank_program(), &m, 5, &cfg()),
            Err(CoreError::NonSquareMatrix { .. })
        ));
        let sq = gen::uniform(10, 10, 30, 1);
        assert!(matches!(
            simulate(&pagerank_program(), &sq, 0, &cfg()),
            Err(CoreError::ZeroIterations)
        ));
    }

    #[test]
    fn energy_is_memory_dominated_for_sparse_workloads() {
        let m = gen::uniform(4000, 4000, 40_000, 2);
        let r = simulate(&pagerank_program(), &m, 10, &cfg()).unwrap();
        assert!(r.energy.memory_pj > r.energy.compute_pj);
    }
}

#[cfg(test)]
mod mxm_tests {
    use super::*;
    use sparsepipe_frontend::{compile, GraphBuilder};
    use sparsepipe_semiring::{EwiseBinary, SemiringOp};
    use sparsepipe_tensor::gen;

    /// Multi-source-BFS shape: a carried frontier matrix advanced by
    /// `mxm` against a constant adjacency — cross-iteration OEI.
    fn msbfs_program() -> SparsepipeProgram {
        let mut b = GraphBuilder::new();
        let f = b.input_matrix("F");
        let a = b.constant_matrix("A");
        let next = b.mxm(f, a, SemiringOp::AndOr).unwrap();
        b.carry(next, f).unwrap();
        compile(&b.build().unwrap(), 1).unwrap()
    }

    /// Triangle-counting shape: `A ⊙ (A·A)` with no loop carry — no OEI,
    /// every iteration re-streams the stationary rows.
    fn tri_program() -> SparsepipeProgram {
        let mut b = GraphBuilder::new();
        let a = b.constant_matrix("A");
        let sq = b.mxm(a, a, SemiringOp::MulAdd).unwrap();
        b.ewise_matrix(EwiseBinary::Mul, sq, a).unwrap();
        compile(&b.build().unwrap(), 1).unwrap()
    }

    fn cfg() -> SparsepipeConfig {
        SparsepipeConfig::iso_gpu()
            .with_buffer(8 << 20)
            .with_preprocessing(crate::config::Preprocessing::none())
    }

    fn run(program: &SparsepipeProgram, m: &CooMatrix, iters: usize) -> crate::SimOutcome {
        crate::driver::SimRequest::new(program, m)
            .iterations(iters)
            .config(cfg())
            .run()
            .unwrap()
    }

    #[test]
    fn oei_mxm_halves_stationary_traffic() {
        let m = gen::uniform(2000, 2000, 20_000, 9);
        let fused = run(&msbfs_program(), &m, 12);
        let unfused = run(&tri_program(), &m, 12);
        // Fused: each stationary row fetched once per two iterations.
        assert!(
            fused.report.matrix_loads_per_iteration < 0.65,
            "fused loads/iter = {}",
            fused.report.matrix_loads_per_iteration
        );
        // Unfused: once per iteration (≤ 1.0 — rows without in-edges are
        // never demanded).
        assert!(
            unfused.report.matrix_loads_per_iteration > 0.8
                && unfused.report.matrix_loads_per_iteration <= 1.0 + 1e-9,
            "unfused loads/iter = {}",
            unfused.report.matrix_loads_per_iteration
        );
        assert_eq!(
            fused.schedule.oei,
            crate::schedule::OeiClass::CrossIteration
        );
        assert_ne!(
            unfused.schedule.oei,
            crate::schedule::OeiClass::CrossIteration
        );
        assert!(fused.schedule.mxm && unfused.schedule.mxm);
    }

    #[test]
    fn mxm_outcome_carries_spgemm_stats() {
        let m = gen::power_law(1000, 8000, 1.0, 0.4, 3);
        let outcome = run(&msbfs_program(), &m, 8);
        let stats = outcome.mxm.expect("mxm schedule must report stats");
        assert!(stats.intermediate_nnz >= stats.out_nnz);
        assert!(stats.peak_accumulator_cols > 0);
        assert!(stats.expansion_factor > 0.0);
        // vxm-only programs must not grow an mxm field.
        let mut b = GraphBuilder::new();
        let pr = b.input_vector("pr");
        let l = b.constant_matrix("L");
        let y = b.vxm(pr, l, SemiringOp::MulAdd).unwrap();
        b.carry(y, pr).unwrap();
        let vxm = compile(&b.build().unwrap(), 1).unwrap();
        assert!(run(&vxm, &m, 8).mxm.is_none());
    }

    #[test]
    fn traced_mxm_run_is_byte_identical_and_audits_exactly() {
        use sparsepipe_trace::{MemorySink, TraceAudit};
        let m = gen::power_law(1200, 9600, 1.0, 0.4, 17);
        for program in [msbfs_program(), tri_program()] {
            // Odd iteration counts exercise the unfused mxm tail pass.
            for iters in [8usize, 9] {
                let untraced = run(&program, &m, iters);
                let mut sink = MemorySink::new();
                let traced = crate::driver::SimRequest::new(&program, &m)
                    .iterations(iters)
                    .config(cfg())
                    .trace(&mut sink)
                    .run()
                    .unwrap();
                assert_eq!(
                    traced.report, untraced.report,
                    "tracing must not perturb the mxm schedule (iters={iters})"
                );
                let audit = TraceAudit::replay(sink.events());
                audit
                    .check(&traced.report.traffic.audit_totals())
                    .unwrap_or_else(|e| panic!("mxm audit mismatch at iters={iters}: {e}"));
            }
        }
    }

    #[test]
    fn ewise_matrix_rider_adds_stream_traffic_not_stationary() {
        let m = gen::uniform(1500, 1500, 15_000, 7);
        let plain = run(
            &{
                let mut b = GraphBuilder::new();
                let a = b.constant_matrix("A");
                b.mxm(a, a, SemiringOp::MulAdd).unwrap();
                compile(&b.build().unwrap(), 1).unwrap()
            },
            &m,
            6,
        );
        let masked = run(&tri_program(), &m, 6);
        assert_eq!(
            masked.report.traffic.csc_bytes.to_bits(),
            plain.report.traffic.csc_bytes.to_bits(),
            "the rider must not touch stationary demand traffic"
        );
        assert!(masked.report.traffic.vector_bytes > plain.report.traffic.vector_bytes);
        assert!(masked.report.traffic.writeback_bytes > plain.report.traffic.writeback_bytes);
    }
}

#[cfg(test)]
mod gcn_tests {
    use super::*;
    use sparsepipe_frontend::{compile, GraphBuilder};
    use sparsepipe_semiring::SemiringOp;
    use sparsepipe_tensor::gen;

    /// Shorthand for the [`crate::SimRequest`] driver.
    fn simulate(
        program: &SparsepipeProgram,
        matrix: &CooMatrix,
        iterations: usize,
        config: &SparsepipeConfig,
    ) -> Result<SimReport, CoreError> {
        crate::driver::SimRequest::new(program, matrix)
            .iterations(iterations)
            .config(*config)
            .run()
            .map(|o| o.report)
    }

    fn gcn_program(features: usize) -> sparsepipe_frontend::SparsepipeProgram {
        let mut b = GraphBuilder::new();
        let h = b.input_dense("H");
        let a = b.constant_matrix("A");
        let w = b.constant_dense("W");
        let agg = b.spmm(h, a, SemiringOp::MulAdd).unwrap();
        let lin = b.dense_mm(agg, w).unwrap();
        let act = b
            .ewise_unary(sparsepipe_semiring::EwiseUnary::Relu, lin)
            .unwrap();
        b.carry(act, h).unwrap();
        compile(&b.build().unwrap(), features).unwrap()
    }

    fn cfg() -> crate::SparsepipeConfig {
        crate::SparsepipeConfig::iso_gpu().with_buffer(1 << 20)
    }

    /// SpMM-based apps keep the cross-iteration reuse: the adjacency
    /// matrix is fetched once per two layers regardless of feature width.
    #[test]
    fn gcn_matrix_reuse_is_feature_independent() {
        let m = gen::uniform(4000, 4000, 40_000, 9);
        for f in [1usize, 8, 32] {
            let r = simulate(&gcn_program(f), &m, 8, &cfg()).unwrap();
            assert!(
                (0.45..0.6).contains(&r.matrix_loads_per_iteration),
                "f={f}: loads/iter {}",
                r.matrix_loads_per_iteration
            );
        }
    }

    /// Wider features move more activation bytes and do more dense-MM
    /// work — runtime must grow monotonically with feature width.
    #[test]
    fn runtime_grows_with_feature_width() {
        let m = gen::uniform(4000, 4000, 40_000, 9);
        let mut prev = 0.0;
        for f in [1usize, 4, 16, 64] {
            let r = simulate(&gcn_program(f), &m, 8, &cfg()).unwrap();
            assert!(r.runtime_s > prev, "f={f} did not increase runtime");
            prev = r.runtime_s;
        }
    }
}
