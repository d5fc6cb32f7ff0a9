//! The top-level simulator: pass scheduling, preprocessing, fallbacks, and
//! report assembly.

use sparsepipe_frontend::SparsepipeProgram;
use sparsepipe_tensor::{reorder, CooMatrix};
use sparsepipe_trace::{TraceEvent, TraceSink, TrafficClass};

use crate::config::{ReorderKind, SparsepipeConfig};
use crate::energy::{EnergyModel, EnergyTally};
use crate::pipeline::{PassParams, PassResult};
use crate::plan::PassPlan;
use crate::stats::{BwSample, SimReport, TrafficBreakdown};
use crate::CoreError;

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

/// Everything one engine run produces: the report plus the host-side
/// counters [`crate::SimRequest::run`] folds into [`crate::SimTelemetry`].
pub(crate) struct EngineRun {
    pub report: SimReport,
    /// Pipeline steps actually executed (analytically scaled passes count
    /// their steps once; closed-form sweeps count 1 each).
    pub sim_steps: u64,
    /// Matrix sweeps the run models, including scaled repetitions.
    pub modeled_passes: u64,
    /// Peak modeled working set (buffer occupancy + dense vector window).
    pub peak_working_set_bytes: f64,
    /// Scheduling-path notes surfaced through [`crate::SimOutcome`].
    pub diagnostics: Vec<String>,
    /// SpGEMM statistics when the program's schedule ran the Gustavson
    /// mxm stage (`None` for vxm-only programs).
    pub mxm: Option<crate::spgemm::MxmStats>,
}

/// The engine proper, behind the [`crate::SimRequest`] driver — the sole
/// compile-and-simulate entry. Generic over the trace sink; the default
/// [`NullSink`] instantiation is the untraced engine.
///
/// Scheduling follows the program's OEI analysis:
///
/// * **cross-iteration OEI** (PageRank-class): each matrix sweep (pass)
///   advances *two* iterations — the OS `vxm` of iteration `i` and the IS
///   `vxm` of iteration `i+1` share one fetch of every matrix element;
/// * **within-iteration OEI** (KNN-class): the two `vxm`s of one iteration
///   share one sweep;
/// * **no OEI** (CG-class): every iteration re-streams the matrix; only
///   producer-consumer (e-wise fusion) reuse applies.
///
/// `cache` (a [`MatrixCache`](crate::MatrixCache) plus this matrix's
/// key) lets repeated runs over the same matrix share the reordered
/// matrix and pass plan; the cached artifacts are pure functions of the
/// key, so results are identical with or without it.
pub(crate) fn simulate_inner<S: TraceSink>(
    program: &SparsepipeProgram,
    matrix: &CooMatrix,
    iterations: usize,
    config: &SparsepipeConfig,
    sink: &mut S,
    cache: Option<(&crate::MatrixCache, u64)>,
    deadline: Option<&Deadline>,
) -> Result<EngineRun, CoreError> {
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

    let mut diagnostics: Vec<String> = Vec::new();
    let mut sim_steps = 0u64;
    let mut modeled_passes = 0u64;
    let mut peak_working_set = 0.0f64;

    // ---- Offline preprocessing (§IV-E; not part of the timed run) ----
    let reorder_kind = config.preprocessing.reorder;
    let reordered_local;
    let reordered_shared;
    let matrix = if reorder_kind == ReorderKind::None {
        matrix
    } else {
        // Reordering is a pure function of (matrix, kind): cacheable.
        let build = || {
            let perm = match reorder_kind {
                ReorderKind::GraphOrder => reorder::graph_order(&matrix.to_csr(), 64),
                _ => reorder::vanilla_triangular(&matrix.to_csr(), 3),
            };
            matrix.permute_symmetric(&perm)
        };
        diagnostics.push(match reorder_kind {
            ReorderKind::GraphOrder => {
                "offline preprocessing: GraphOrder reordering applied".into()
            }
            _ => "offline preprocessing: vanilla triangular reordering applied".into(),
        });
        match cache {
            Some((cache, key)) => {
                reordered_shared = cache.reordered(key, reorder_kind, build);
                &*reordered_shared
            }
            None => {
                reordered_local = build();
                &reordered_local
            }
        }
    };
    check_deadline(deadline)?;

    let profile = &program.profile;
    let feature = profile.feature_dim as f64;
    let ewise_arith = program.ewise_arithmetic_per_element() as f64;
    let bpc = config.memory.bytes_per_cycle(config.clock_ghz);
    let fetch_b = config.fetch_bytes_per_element();
    let n = matrix.nrows() as f64;
    let nnz = matrix.nnz() as f64;

    let mut tally = EnergyTally::new(EnergyModel::default());
    let mut traffic = TrafficBreakdown::default();
    let mut total_cycles = 0.0f64;
    let mut evicted = 0u64;
    let mut repacks = 0u64;
    let mut buffer_peak = 0.0f64;
    let mut buffer_avg = 0.0f64;
    let mut bw_trace: Vec<BwSample> = Vec::new();
    let mut mxm_stats: Option<crate::spgemm::MxmStats> = None;

    if profile.mxm_passes > 0 {
        // ---- SpGEMM (mxm) family: Gustavson row-wise sweeps over the
        // stationary operand (DESIGN.md §15). Cross-iteration OEI across
        // an mxm loop fuses two iterations onto one sweep of the
        // stationary rows, exactly like the vxm schedule below; without
        // it every iteration re-demands them. ----
        let (full_units, remainder_iters, share) = if profile.cross_iteration {
            diagnostics.push(format!(
                "cross-iteration OEI across mxm: {} fused unit(s), each covering 2 iterations",
                iterations / 2
            ));
            (iterations / 2, iterations % 2, 2.0)
        } else {
            diagnostics.push(format!(
                "mxm family without cross-iteration reuse: {iterations} row-wise sweep(s) per mxm pass"
            ));
            (iterations, 0, 1.0)
        };
        // The arena is a pure function of the (reordered) matrix; the
        // cache key does not encode the reordering, so only the
        // unreordered arena is shared.
        let arena_local;
        let arena_shared;
        let arena: &crate::MatrixArena = match cache {
            Some((cache, key)) if reorder_kind == ReorderKind::None => {
                arena_shared = cache.arena(key, || crate::MatrixArena::from_coo(matrix));
                &arena_shared
            }
            _ => {
                arena_local = crate::MatrixArena::from_coo(matrix);
                &arena_local
            }
        };
        check_deadline(deadline)?;
        let t_rows = config.subtensor_auto(matrix.ncols(), matrix.nnz());
        let riders = profile.ewise_matrix_passes as f64;
        let steps = crate::spgemm::step_count(arena.n(), t_rows) as u32;

        if full_units > 0 {
            let repeats = (full_units * profile.mxm_passes) as u64;
            if S::ENABLED {
                sink.emit(TraceEvent::PassBoundary {
                    pass: 0,
                    repeats,
                    steps,
                });
            }
            let outcome = crate::spgemm::execute_mxm_traced(
                arena,
                program.os_semiring,
                config,
                &crate::spgemm::MxmParams {
                    fused_iterations: share,
                    ewise_matrix_passes: riders,
                    t_rows,
                },
                sink,
                deadline,
            )?;
            let pass = &outcome.pass;
            accumulate_pass(
                pass,
                repeats as f64,
                &mut traffic,
                &mut total_cycles,
                &mut tally,
            );
            evicted = pass.evictions * repeats;
            buffer_peak = pass.buffer_peak_bytes;
            buffer_avg = pass.buffer_avg_bytes;
            bw_trace = downsample_trace(pass, bpc, 25);
            sim_steps += pass.steps.len() as u64;
            modeled_passes += repeats;
            peak_working_set = peak_working_set.max(pass.buffer_peak_bytes);
            mxm_stats = Some(outcome.stats);
        }

        if remainder_iters > 0 {
            diagnostics
                .push("odd iteration count: trailing iteration's mxm sweep runs unfused".into());
            let repeats = profile.mxm_passes as u64;
            if S::ENABLED {
                sink.emit(TraceEvent::PassBoundary {
                    pass: u32::from(full_units > 0),
                    repeats,
                    steps,
                });
            }
            let outcome = crate::spgemm::execute_mxm_traced(
                arena,
                program.os_semiring,
                config,
                &crate::spgemm::MxmParams {
                    fused_iterations: 1.0,
                    ewise_matrix_passes: riders,
                    t_rows,
                },
                sink,
                deadline,
            )?;
            let pass = &outcome.pass;
            accumulate_pass(
                pass,
                repeats as f64,
                &mut traffic,
                &mut total_cycles,
                &mut tally,
            );
            evicted += pass.evictions * repeats;
            buffer_peak = buffer_peak.max(pass.buffer_peak_bytes);
            if bw_trace.is_empty() {
                buffer_avg = pass.buffer_avg_bytes;
                bw_trace = downsample_trace(pass, bpc, 25);
            }
            sim_steps += pass.steps.len() as u64;
            modeled_passes += repeats;
            peak_working_set = peak_working_set.max(pass.buffer_peak_bytes);
            mxm_stats.get_or_insert(outcome.stats);
        }
    } else if profile.has_oei {
        let (full_passes, remainder_iters, ewise_iterations) = if profile.cross_iteration {
            diagnostics.push(format!(
                "cross-iteration OEI: {} fused pass(es), each covering 2 iterations",
                iterations / 2
            ));
            (iterations / 2, iterations % 2, 2.0)
        } else {
            // within-iteration fusion (e.g. KNN's two vxm): one pass per
            // iteration, both matrix operators on one sweep
            diagnostics.push(format!(
                "within-iteration OEI: {iterations} pass(es), both matrix operators on one sweep"
            ));
            (iterations, 0, 1.0)
        };

        if full_passes > 0 {
            let t = config.subtensor_auto(matrix.ncols(), matrix.nnz());
            // The plan depends only on (matrix, reordering, t): cacheable.
            let plan_local;
            let plan_shared;
            let plan: &PassPlan = match cache {
                Some((cache, key)) => {
                    plan_shared = cache.plan(key, reorder_kind, t, || PassPlan::build(matrix, t));
                    &plan_shared
                }
                None => {
                    plan_local = PassPlan::build(matrix, t);
                    &plan_local
                }
            };
            check_deadline(deadline)?;
            let params = PassParams {
                feature,
                ewise_arith_per_elem: ewise_arith + profile.dense_flops_per_element,
                ewise_iterations,
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
            if S::ENABLED {
                sink.emit(TraceEvent::PassBoundary {
                    pass: 0,
                    repeats: full_passes as u64,
                    steps: plan.steps as u32,
                });
            }
            let pass = crate::pipeline::execute_pass_traced(plan, config, &params, sink, deadline)?;
            accumulate_pass(
                &pass,
                full_passes as f64,
                &mut traffic,
                &mut total_cycles,
                &mut tally,
            );
            evicted = pass.evictions * full_passes as u64;
            repacks = pass.repacks * full_passes as u64;
            buffer_peak = pass.buffer_peak_bytes;
            buffer_avg = pass.buffer_avg_bytes;
            bw_trace = downsample_trace(&pass, bpc, 25);
            sim_steps += pass.steps.len() as u64;
            modeled_passes += full_passes as u64;
            peak_working_set = peak_working_set.max(pass.buffer_peak_bytes + n * 8.0 * feature);
        }

        if remainder_iters > 0 {
            diagnostics
                .push("odd iteration count: trailing iteration runs unfused at roofline".into());
            sim_steps += 1;
            modeled_passes += 1;
            // A trailing single iteration with no partner to fuse with:
            // one OS-only sweep at roofline.
            let mbytes = nnz * fetch_b * profile.matrix_passes as f64;
            let vbytes = (profile.fused_vector_reads + profile.fused_vector_writes) * n * 8.0;
            let vec_read_b = vbytes * 0.6;
            let vec_write_b = vbytes * 0.4;
            let compute = (nnz * 2.0 * feature) / (2.0 * config.pes_per_core as f64)
                + n * feature * (ewise_arith + profile.dense_flops_per_element)
                    / config.pes_per_core as f64;
            let cycles = ((mbytes + vbytes) / bpc).max(compute);
            total_cycles += cycles;
            traffic.csc_bytes += mbytes;
            traffic.vector_bytes += vec_read_b;
            traffic.writeback_bytes += vec_write_b;
            if S::ENABLED {
                // An analytic sweep: one pass (repeats = 1) whose events
                // carry the exact closed-form totals added to `traffic`
                // above — re-deriving them per-iteration would reorder
                // the f64 arithmetic and break the audit's bitwise match.
                sink.emit(TraceEvent::PassBoundary {
                    pass: u32::from(full_passes > 0),
                    repeats: 1,
                    steps: 1,
                });
                if mbytes > 0.0 {
                    sink.emit(TraceEvent::DramRead {
                        addr: 0,
                        bytes: mbytes,
                        class: TrafficClass::CscDemand,
                        step: 0,
                    });
                }
                if vec_read_b > 0.0 {
                    sink.emit(TraceEvent::DramRead {
                        addr: 1 << 36,
                        bytes: vec_read_b,
                        class: TrafficClass::VectorRead,
                        step: 0,
                    });
                }
                if vec_write_b > 0.0 {
                    sink.emit(TraceEvent::DramWrite {
                        addr: 1 << 36,
                        bytes: vec_write_b,
                        class: TrafficClass::Writeback,
                        step: 0,
                    });
                }
            }
            tally.dram_read(mbytes + vec_read_b);
            tally.dram_write(vec_write_b);
            tally.sram(2.0 * (mbytes + vbytes));
            tally.compute(nnz * 2.0 * feature + n * feature * ewise_arith);
        }
    } else {
        // ---- No OEI: sequential operator passes with producer-consumer
        // fusion only (CG/BiCGSTAB class). The matrix is streamed once per
        // matrix operator per iteration in a single (row- or column-)
        // order — no dual storage needed. ----
        diagnostics.push(format!(
            "no OEI: {iterations} sequential iteration(s), producer-consumer fusion only"
        ));
        sim_steps += iterations as u64;
        modeled_passes += (iterations * profile.matrix_passes) as u64;
        peak_working_set = peak_working_set.max(2.0 * n * 8.0 * feature);
        let mbytes = profile.matrix_passes as f64 * nnz * fetch_b;
        let vbytes = (profile.fused_vector_reads + profile.fused_vector_writes) * n * 8.0;
        let pes = config.pes_per_core as f64;
        let matrix_compute = profile.matrix_passes as f64 * nnz * 2.0 * feature / (2.0 * pes);
        let ewise_compute = n * feature * (ewise_arith + profile.dense_flops_per_element) / pes;
        // Running a non-OEI schedule on the OEI pipeline still pays the
        // sub-tensor dispatch / synchronization overhead between stages —
        // this is why cg/bgs land at or slightly below the ideal
        // accelerator in Fig 14 (0.75x–1.20x in the paper).
        const DISPATCH_OVERHEAD: f64 = 1.12;
        let per_iter_cycles =
            ((mbytes + vbytes) / bpc).max(matrix_compute + ewise_compute) * DISPATCH_OVERHEAD;
        total_cycles = per_iter_cycles * iterations as f64;
        let reads = profile.fused_vector_reads
            / (profile.fused_vector_reads + profile.fused_vector_writes).max(1e-9);
        let csc_total = mbytes * iterations as f64;
        let vec_total_read = vbytes * iterations as f64 * reads;
        let vec_total_write = vbytes * iterations as f64 * (1.0 - reads);
        traffic.csc_bytes = csc_total;
        traffic.vector_bytes = vec_total_read;
        traffic.writeback_bytes = vec_total_write;
        if S::ENABLED {
            // Closed-form sweep: a single pass whose events carry the full
            // computed totals (never per-iteration values × iters — f64
            // multiplication is not associative across that split, and the
            // audit compares bit patterns).
            sink.emit(TraceEvent::PassBoundary {
                pass: 0,
                repeats: 1,
                steps: 1,
            });
            if csc_total > 0.0 {
                sink.emit(TraceEvent::DramRead {
                    addr: 0,
                    bytes: csc_total,
                    class: TrafficClass::CscDemand,
                    step: 0,
                });
            }
            if vec_total_read > 0.0 {
                sink.emit(TraceEvent::DramRead {
                    addr: 1 << 36,
                    bytes: vec_total_read,
                    class: TrafficClass::VectorRead,
                    step: 0,
                });
            }
            if vec_total_write > 0.0 {
                sink.emit(TraceEvent::DramWrite {
                    addr: 1 << 36,
                    bytes: vec_total_write,
                    class: TrafficClass::Writeback,
                    step: 0,
                });
            }
        }
        tally.dram_read(traffic.csc_bytes + traffic.vector_bytes);
        tally.dram_write(traffic.writeback_bytes);
        tally.sram(2.0 * (traffic.csc_bytes + traffic.vector_bytes + traffic.writeback_bytes));
        tally.compute(
            iterations as f64
                * (profile.matrix_passes as f64 * nnz * 2.0 * feature + n * feature * ewise_arith),
        );
        bw_trace = vec![
            BwSample {
                utilization: ((mbytes + vbytes) / bpc / per_iter_cycles).min(1.0),
                csc_frac: (mbytes / bpc / per_iter_cycles).min(1.0),
                csr_frac: 0.0,
                vector_frac: (vbytes / bpc / per_iter_cycles).min(1.0),
            };
            25
        ];
    }

    let total_bytes = traffic.total_bytes();
    let avg_bw_utilization = (total_bytes / (total_cycles * bpc)).min(1.0);
    let matrix_read_bytes = traffic.csc_bytes + traffic.csr_eager_bytes + traffic.refetch_bytes;
    let runtime_s = total_cycles / (config.clock_ghz * 1e9);

    Ok(EngineRun {
        report: SimReport {
            total_cycles: total_cycles.ceil() as u64,
            runtime_s,
            traffic,
            avg_bw_utilization,
            bw_trace,
            buffer_peak_bytes: buffer_peak,
            buffer_avg_bytes: buffer_avg,
            evicted_elements: evicted,
            repack_events: repacks,
            energy: tally.breakdown(),
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
        sim_steps,
        modeled_passes,
        peak_working_set_bytes: peak_working_set,
        diagnostics,
        mxm: mxm_stats,
    })
}

fn accumulate_pass(
    pass: &PassResult,
    count: f64,
    traffic: &mut TrafficBreakdown,
    total_cycles: &mut f64,
    tally: &mut EnergyTally,
) {
    let mut scaled = pass.traffic;
    scaled.csc_bytes *= count;
    scaled.csr_eager_bytes *= count;
    scaled.refetch_bytes *= count;
    scaled.vector_bytes *= count;
    scaled.writeback_bytes *= count;
    traffic.add(&scaled);
    *total_cycles += pass.cycles * count;
    tally.dram_read(scaled.read_bytes());
    tally.dram_write(scaled.writeback_bytes);
    tally.sram(pass.sram_bytes * count);
    tally.compute((pass.os_ops + pass.ew_ops + pass.is_ops) * count);
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
        assert!(fused
            .diagnostics
            .iter()
            .any(|d| d.contains("cross-iteration OEI across mxm")));
        assert!(unfused
            .diagnostics
            .iter()
            .any(|d| d.contains("without cross-iteration reuse")));
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
        crate::SparsepipeConfig::iso_gpu()
            .with_buffer(1 << 20)
            .with_preprocessing(crate::Preprocessing {
                blocked: true,
                reorder: crate::ReorderKind::None,
            })
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
