//! The OEI pipeline's per-step timing loop (§IV-C/§IV-D of the paper).
//!
//! One **pass** sweeps the matrix once in sub-tensors of `T` columns while
//! all four pipeline stages run concurrently on different sub-tensors
//! (Fig 13): the CSC loader fetches step `s+1`'s columns while the OS core
//! computes step `s`, the E-Wise core step `s−1`, and the IS core step
//! `s−2`. Steady-state throughput is therefore governed by the *slowest*
//! stage each step:
//!
//! `step_cycles = max(mem, OS, E-Wise, IS)`
//!
//! Bandwidth left over after demand traffic is granted to the CSR eager
//! loader (Fig 9), which prefetches future row data in row order — the
//! simulator's equivalent of the paper's `P(r)` balancing heuristic (our
//! row-order scan fills rows between the IS frontier `S` and the loaded
//! frontier `E` evenly, because earlier rows are always filled first).

use sparsepipe_trace::{NullSink, PipeStage, TraceEvent, TraceSink, TrafficClass};

use crate::buffer::BufferModel;
use crate::config::SparsepipeConfig;
use crate::engine::Deadline;
use crate::invariants;
use crate::plan::PassPlan;
use crate::stats::TrafficBreakdown;

/// Workload-derived parameters of one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassParams {
    /// Dense feature width (1 for `vxm` apps, `f` for SpMM apps).
    pub feature: f64,
    /// E-wise arithmetic instructions per element per loop iteration.
    pub ewise_arith_per_elem: f64,
    /// Loop iterations' worth of e-wise work performed in this pass (2 for
    /// cross-iteration fusion, 1 for within-iteration fusion).
    pub ewise_iterations: f64,
    /// Dense-MM arithmetic per element per iteration (GCN's weight stage).
    pub dense_flops_per_element: f64,
    /// `n`-element vector reads streamed during the pass (already scaled
    /// by the feature width where applicable — the profile's fused counts
    /// include it).
    pub vec_read_passes: f64,
    /// `n`-element vector writes streamed during the pass (feature-scaled
    /// like the reads).
    pub vec_write_passes: f64,
}

impl Default for PassParams {
    /// A single plain `vxm` sweep: feature width 1, one iteration's worth
    /// of e-wise work, no dense-MM stage, no vector streaming.
    fn default() -> Self {
        PassParams {
            feature: 1.0,
            ewise_arith_per_elem: 0.0,
            ewise_iterations: 1.0,
            dense_flops_per_element: 0.0,
            vec_read_passes: 0.0,
            vec_write_passes: 0.0,
        }
    }
}

/// Builder for one OEI pass over a [`PassPlan`] — the pass-level analogue
/// of [`crate::SimRequest`]. Defaults to [`PassParams::default`].
///
/// ```
/// use sparsepipe_core::pipeline::{PassParams, PassRequest};
/// use sparsepipe_core::{PassPlan, SparsepipeConfig};
/// use sparsepipe_tensor::gen;
///
/// let m = gen::uniform(500, 500, 3000, 2);
/// let plan = PassPlan::build(&m, 4);
/// let config = SparsepipeConfig::iso_gpu();
/// let result = PassRequest::new(&plan, &config)
///     .params(PassParams {
///         vec_read_passes: 2.0,
///         vec_write_passes: 1.0,
///         ..PassParams::default()
///     })
///     .run();
/// assert_eq!(result.steps.len(), plan.steps);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PassRequest<'a> {
    plan: &'a PassPlan,
    config: &'a SparsepipeConfig,
    params: PassParams,
}

impl<'a> PassRequest<'a> {
    /// Starts a request for one pass over `plan` under `config`.
    pub fn new(plan: &'a PassPlan, config: &'a SparsepipeConfig) -> Self {
        PassRequest {
            plan,
            config,
            params: PassParams::default(),
        }
    }

    /// Replaces the workload parameters (default [`PassParams::default`]).
    #[must_use]
    pub fn params(mut self, params: PassParams) -> Self {
        self.params = params;
        self
    }

    /// The workload parameters this request will run with.
    pub fn params_ref(&self) -> &PassParams {
        &self.params
    }

    /// Executes the pass.
    pub fn run(self) -> PassResult {
        self.run_traced(&mut NullSink)
    }

    /// Executes the pass, streaming trace events into `sink`.
    ///
    /// With the default [`NullSink`] this monomorphizes to exactly
    /// [`PassRequest::run`]; any other sink sees per-step
    /// `StepBegin`/`StepEnd`, per-element buffer events, and per-step
    /// aggregate DRAM events whose byte payloads are the exact `f64`
    /// increments added to the returned traffic totals.
    pub fn run_traced<S: TraceSink>(self, sink: &mut S) -> PassResult {
        infallible(execute_pass_traced(
            self.plan,
            self.config,
            &self.params,
            sink,
            None,
        ))
    }
}

/// Unwraps a deadline-free pass result: without a [`Deadline`] the pass
/// loop cannot fail.
fn infallible(result: Result<PassResult, crate::CoreError>) -> PassResult {
    match result {
        Ok(r) => r,
        Err(_) => unreachable!("pass loop only fails when given a deadline"),
    }
}

/// Per-step sample retained for bandwidth traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepSample {
    /// Cycles this step took.
    pub cycles: f64,
    /// CSC demand bytes (including refetches).
    pub csc_bytes: f64,
    /// Eager CSR prefetch bytes.
    pub csr_bytes: f64,
    /// Vector bytes (reads + writes).
    pub vec_bytes: f64,
    /// Buffer occupancy at end of step.
    pub occupancy_bytes: f64,
}

/// Aggregated result of one pass.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Total cycles including pipeline fill/drain.
    pub cycles: f64,
    /// DRAM traffic.
    pub traffic: TrafficBreakdown,
    /// Per-step samples (length = plan.steps).
    pub steps: Vec<StepSample>,
    /// Elements evicted under pressure during this pass.
    pub evictions: u64,
    /// Repack events during this pass.
    pub repacks: u64,
    /// Peak buffer occupancy.
    pub buffer_peak_bytes: f64,
    /// Mean buffer occupancy.
    pub buffer_avg_bytes: f64,
    /// PE operations executed by the OS core.
    pub os_ops: f64,
    /// PE operations executed by the E-Wise core (incl. DenseMM work).
    pub ew_ops: f64,
    /// PE operations executed by the IS core.
    pub is_ops: f64,
    /// On-chip buffer bytes moved (fills + drains + repacks).
    pub sram_bytes: f64,
}

/// IS-core scatter-network serialization factor: bank conflicts when
/// multiple PEs update nearby partial sums.
const SCATTER_FACTOR: f64 = 1.1;

/// How far ahead (in steps) the CSR eager loader may prefetch — the
/// simulator's stand-in for the paper's traffic-estimator parameter `R`,
/// which "conservatively fetches up to R row data" to keep the IS stage
/// aligned with near-future work instead of flooding the buffer.
pub(crate) const PREFETCH_LOOKAHEAD_STEPS: u32 = 16;

/// Pipeline fill/drain steps (CSC load → OS → E-Wise → IS).
const PIPELINE_STAGES: f64 = 3.0;

/// How many pipeline steps run between cooperative deadline checks: the
/// check costs one `Instant::now()` syscall, so it is amortized over a
/// few thousand steps while still bounding a timed-out pass's overshoot.
const DEADLINE_CHECK_STEPS: usize = 4096;

/// The instrumented pass loop. Every emission site is guarded by
/// `S::ENABLED`, so the `NullSink` instantiation compiles to the
/// untraced loop and traced/untraced runs produce bit-identical
/// [`PassResult`]s.
///
/// With a `deadline`, the loop checks the wall clock every
/// [`DEADLINE_CHECK_STEPS`] steps (including before the first) and bails
/// with [`crate::CoreError::DeadlineExceeded`]; without one it cannot
/// fail.
pub(crate) fn execute_pass_traced<S: TraceSink>(
    plan: &PassPlan,
    config: &SparsepipeConfig,
    params: &PassParams,
    sink: &mut S,
    deadline: Option<&Deadline>,
) -> Result<PassResult, crate::CoreError> {
    let bpc = config.memory.bytes_per_cycle(config.clock_ghz);
    let fetch_b = config.fetch_bytes_per_element();
    let elem_b = config.buffer_bytes_per_element();
    let pes = config.pes_per_core as f64;

    let mut buffer = BufferModel::new(
        plan.nnz,
        elem_b,
        config.buffer_bytes as f64,
        config.repack_threshold,
        config.eviction,
    )
    .with_validation(config.validate);

    let n = plan.n as f64;
    let vec_bytes_per_step =
        (params.vec_read_passes + params.vec_write_passes) * n * 8.0 / plan.steps as f64;
    let vec_write_fraction = if params.vec_read_passes + params.vec_write_passes > 0.0 {
        params.vec_write_passes / (params.vec_read_passes + params.vec_write_passes)
    } else {
        0.0
    };

    let mut traffic = TrafficBreakdown::default();
    let mut steps_out = Vec::with_capacity(plan.steps);
    let mut total_cycles = 0.0f64;
    let mut os_ops = 0.0f64;
    let mut ew_ops = 0.0f64;
    let mut is_ops = 0.0f64;
    let mut sram_bytes = 0.0f64;
    let mut occupancy_sum = 0.0f64;
    let mut prefetch_cursor: usize = 0;
    // Trace-only address cursors: the CSC image, the CSR image and the
    // vector windows are read sequentially across steps.
    let mut ev_csc_addr: u64 = 0;
    let mut ev_csr_addr: u64 = 1 << 38;
    let mut ev_vec_addr: u64 = 1 << 36;

    for s in 0..plan.steps {
        if s % DEADLINE_CHECK_STEPS == 0 {
            if let Some(d) = deadline {
                d.check()?;
            }
        }
        // Dense-vector working set sharing the buffer; cap its reservation
        // at half the buffer so matrix data always has some room (beyond
        // that point the vector windows spill and thrash, which manifests
        // as matrix evictions here).
        let vec_reserved =
            (plan.vec_live[s] as f64 * 8.0 * params.feature).min(config.buffer_bytes as f64 * 0.5);

        let mut csc_bytes = 0.0f64;
        let mut refetch_bytes = 0.0f64;
        let mut os_elems = 0usize;
        let mut is_elems = 0usize;

        // ---- OS stage demand: columns of sub-tensor `s` ----
        if S::ENABLED {
            sink.emit(TraceEvent::StepBegin {
                stage: PipeStage::Os,
                step: s as u32,
            });
        }
        for &e in plan.os_elements(s) {
            os_elems += 1;
            if buffer.is_resident(e) {
                // hit: eager CSR loading (or an earlier refetch) already
                // brought it on chip.
                if plan.row_step[e as usize] < s as u32 && !buffer.is_done(e) {
                    // deferred IS work now completes too
                    is_elems += 1;
                    buffer.consume_is(e);
                    if S::ENABLED {
                        sink.emit(TraceEvent::BufferHit {
                            row: plan.rows[e as usize],
                            col: plan.cols[e as usize],
                            stage: PipeStage::Is,
                            step: s as u32,
                        });
                    }
                }
                buffer.consume_os(e);
                if S::ENABLED {
                    sink.emit(TraceEvent::BufferHit {
                        row: plan.rows[e as usize],
                        col: plan.cols[e as usize],
                        stage: PipeStage::Os,
                        step: s as u32,
                    });
                }
            } else {
                let refetch = buffer.load(e);
                if refetch {
                    refetch_bytes += fetch_b;
                } else {
                    csc_bytes += fetch_b;
                }
                if S::ENABLED {
                    sink.emit(TraceEvent::BufferInsert {
                        row: plan.rows[e as usize],
                        col: plan.cols[e as usize],
                        step: s as u32,
                        refetch,
                        bytes: elem_b,
                    });
                }
                if plan.row_step[e as usize] < s as u32 {
                    // IS passed this row already: apply the pending
                    // scatter immediately (deferred-IS path).
                    is_elems += 1;
                    buffer.consume_is(e);
                    if S::ENABLED {
                        sink.emit(TraceEvent::BufferHit {
                            row: plan.rows[e as usize],
                            col: plan.cols[e as usize],
                            stage: PipeStage::Is,
                            step: s as u32,
                        });
                    }
                }
                buffer.consume_os(e);
                if S::ENABLED {
                    sink.emit(TraceEvent::BufferHit {
                        row: plan.rows[e as usize],
                        col: plan.cols[e as usize],
                        stage: PipeStage::Os,
                        step: s as u32,
                    });
                }
            }
        }

        // ---- IS stage demand: rows of sub-tensor `s` ----
        if S::ENABLED {
            sink.emit(TraceEvent::StepBegin {
                stage: PipeStage::Is,
                step: s as u32,
            });
        }
        for e in plan.is_elements(s) {
            if buffer.is_done(e) {
                continue;
            }
            if buffer.is_resident(e) {
                is_elems += 1;
                buffer.consume_is(e);
                if S::ENABLED {
                    sink.emit(TraceEvent::BufferHit {
                        row: plan.rows[e as usize],
                        col: plan.cols[e as usize],
                        stage: PipeStage::Is,
                        step: s as u32,
                    });
                }
            } else if buffer.is_evicted(e) && plan.col_step[e as usize] <= s as u32 {
                // The OS already passed this column; nothing else will
                // bring the element back — refetch now (memory ping-pong).
                buffer.load(e);
                refetch_bytes += fetch_b;
                is_elems += 1;
                buffer.consume_is(e);
                if S::ENABLED {
                    sink.emit(TraceEvent::BufferInsert {
                        row: plan.rows[e as usize],
                        col: plan.cols[e as usize],
                        step: s as u32,
                        refetch: true,
                        bytes: elem_b,
                    });
                    sink.emit(TraceEvent::BufferHit {
                        row: plan.rows[e as usize],
                        col: plan.cols[e as usize],
                        stage: PipeStage::Is,
                        step: s as u32,
                    });
                }
            }
            // NotLoaded (or evicted with a future column step): defer —
            // the CSC loader will bring it at `col_step` and the pending
            // scatter applies then.
        }

        // ---- Stage costs ----
        let vec_b = vec_bytes_per_step;
        let demand_bytes = csc_bytes + refetch_bytes + vec_b;
        if S::ENABLED {
            // The E-Wise core processes this step's column block of the
            // dense operand vectors (fewer lanes on a ragged last step).
            let lanes = plan.t_cols.min(plan.n as usize - s * plan.t_cols) as u64;
            sink.emit(TraceEvent::EwiseFire {
                step: s as u32,
                lanes,
            });
        }
        let step_os_ops = os_elems as f64 * params.feature * 2.0;
        let step_ew_ops = plan.t_cols as f64
            * params.feature
            * (params.ewise_arith_per_elem * params.ewise_iterations
                + params.dense_flops_per_element);
        let step_is_ops = is_elems as f64 * params.feature * 2.0;
        let os_cycles = step_os_ops / (2.0 * pes); // one MAC per PE-cycle
        let ew_cycles = step_ew_ops / pes;
        let is_cycles = step_is_ops * SCATTER_FACTOR / (2.0 * pes);
        let mem_cycles = demand_bytes / bpc;
        // Every step pays at least one memory round trip of control/
        // dependent-load latency (dispatch, mapping-table lookups, the
        // first fetch of the sub-tensor). Steps with little demand — a
        // skewed matrix's empty columns — idle at this floor, which is the
        // bandwidth under-utilization Fig 15(d) shows for `wi`, and is
        // also the slack the eager CSR loader reclaims (Fig 9).
        let step_floor = (config.memory.read_latency_ns * config.clock_ghz).max(1.0);
        let step_cycles = os_cycles
            .max(ew_cycles)
            .max(is_cycles)
            .max(mem_cycles)
            .max(step_floor);

        // ---- Eager CSR prefetch with leftover bandwidth (Fig 9) ----
        let mut csr_bytes = 0.0f64;
        if config.eager_csr {
            let mut budget = step_cycles * bpc - demand_bytes;
            let mut room = buffer.headroom_bytes(vec_reserved);
            // Only rows beyond the current IS frontier are candidates.
            prefetch_cursor = prefetch_cursor.max(plan.row_ptr_by_step[s + 1]);
            let horizon = s as u32 + PREFETCH_LOOKAHEAD_STEPS;
            while budget >= fetch_b && room >= elem_b && prefetch_cursor < plan.nnz {
                let e = prefetch_cursor as u32;
                if plan.row_step[e as usize] > horizon {
                    break;
                }
                if buffer.is_unloaded(e) {
                    buffer.load(e);
                    csr_bytes += fetch_b;
                    budget -= fetch_b;
                    room -= elem_b;
                    if S::ENABLED {
                        sink.emit(TraceEvent::BufferInsert {
                            row: plan.rows[e as usize],
                            col: plan.cols[e as usize],
                            step: s as u32,
                            refetch: false,
                            bytes: elem_b,
                        });
                    }
                }
                prefetch_cursor += 1;
            }
        }

        // ---- Capacity enforcement & repacking ----
        if S::ENABLED {
            buffer.enforce_capacity_with(vec_reserved, |e| {
                sink.emit(TraceEvent::BufferEvict {
                    row: plan.rows[e as usize],
                    col: plan.cols[e as usize],
                    step: s as u32,
                });
            });
        } else {
            buffer.enforce_capacity(vec_reserved);
        }
        let repack_moved = buffer.maybe_repack();

        // ---- Shadow checker: whole-buffer audit at step end ----
        if config.validate {
            if let Err(v) = invariants::check_step(&buffer) {
                panic!("step {s}: buffer invariant violated: {v}");
            }
        }

        // ---- Accounting ----
        let fetched = csc_bytes + refetch_bytes + csr_bytes;
        // SRAM: every fetched byte is written once and read once by a
        // core; vectors stream through the buffer similarly; repacks move
        // resident data (read + write).
        sram_bytes += 2.0 * fetched + 2.0 * vec_b + 2.0 * repack_moved;
        let vec_read_b = vec_b * (1.0 - vec_write_fraction);
        let vec_write_b = vec_b * vec_write_fraction;
        traffic.csc_bytes += csc_bytes;
        traffic.refetch_bytes += refetch_bytes;
        traffic.csr_eager_bytes += csr_bytes;
        traffic.vector_bytes += vec_read_b;
        traffic.writeback_bytes += vec_write_b;
        if S::ENABLED {
            // Per-step aggregate DRAM events: each payload is the exact
            // `f64` increment just added to `traffic`, emitted in the
            // same order, so the TraceAudit replay reproduces the pass
            // totals bitwise (zero increments are skipped — adding 0.0
            // is an identity). See DESIGN.md §10.
            let step = s as u32;
            if csc_bytes > 0.0 {
                sink.emit(TraceEvent::DramRead {
                    addr: ev_csc_addr,
                    bytes: csc_bytes,
                    class: TrafficClass::CscDemand,
                    step,
                });
                ev_csc_addr += csc_bytes as u64;
            }
            if refetch_bytes > 0.0 {
                sink.emit(TraceEvent::DramRead {
                    addr: 1 << 40,
                    bytes: refetch_bytes,
                    class: TrafficClass::Refetch,
                    step,
                });
            }
            if csr_bytes > 0.0 {
                sink.emit(TraceEvent::DramRead {
                    addr: ev_csr_addr,
                    bytes: csr_bytes,
                    class: TrafficClass::CsrEager,
                    step,
                });
                ev_csr_addr += csr_bytes as u64;
            }
            if vec_read_b > 0.0 {
                sink.emit(TraceEvent::DramRead {
                    addr: ev_vec_addr,
                    bytes: vec_read_b,
                    class: TrafficClass::VectorRead,
                    step,
                });
                ev_vec_addr += vec_read_b as u64;
            }
            if vec_write_b > 0.0 {
                sink.emit(TraceEvent::DramWrite {
                    addr: ev_vec_addr,
                    bytes: vec_write_b,
                    class: TrafficClass::Writeback,
                    step,
                });
                ev_vec_addr += vec_write_b as u64;
            }
        }
        os_ops += step_os_ops;
        ew_ops += step_ew_ops;
        is_ops += step_is_ops;
        total_cycles += step_cycles;
        occupancy_sum += buffer.occupancy_bytes();
        if S::ENABLED {
            sink.emit(TraceEvent::StepEnd {
                step: s as u32,
                cycles: step_cycles,
                occupancy_bytes: buffer.occupancy_bytes(),
            });
        }
        steps_out.push(StepSample {
            cycles: step_cycles,
            csc_bytes: csc_bytes + refetch_bytes,
            csr_bytes,
            vec_bytes: vec_b,
            occupancy_bytes: buffer.occupancy_bytes(),
        });
    }

    // Pipeline fill/drain.
    let avg_step = total_cycles / plan.steps as f64;
    total_cycles += PIPELINE_STAGES * avg_step;

    Ok(PassResult {
        cycles: total_cycles,
        traffic,
        steps: steps_out,
        evictions: buffer.evicted_elements(),
        repacks: buffer.repack_events(),
        buffer_peak_bytes: buffer.peak_bytes(),
        buffer_avg_bytes: occupancy_sum / plan.steps as f64,
        os_ops,
        ew_ops,
        is_ops,
        sram_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_tensor::gen;

    /// Shorthand for the [`PassRequest`] builder.
    fn run_pass(plan: &PassPlan, config: &SparsepipeConfig, params: &PassParams) -> PassResult {
        PassRequest::new(plan, config).params(*params).run()
    }

    fn params() -> PassParams {
        PassParams {
            feature: 1.0,
            ewise_arith_per_elem: 3.0,
            ewise_iterations: 2.0,
            dense_flops_per_element: 0.0,
            vec_read_passes: 3.0,
            vec_write_passes: 2.0,
        }
    }

    fn cfg(buffer: usize) -> SparsepipeConfig {
        SparsepipeConfig::iso_gpu().with_buffer(buffer)
    }

    #[test]
    fn ample_buffer_loads_each_element_once() {
        let m = gen::uniform(2000, 2000, 20_000, 7);
        let plan = PassPlan::build(&m, 4);
        let r = run_pass(&plan, &cfg(64 << 20), &params());
        let fetch_b = cfg(64 << 20).fetch_bytes_per_element();
        let matrix_bytes =
            r.traffic.csc_bytes + r.traffic.csr_eager_bytes + r.traffic.refetch_bytes;
        let expected = m.nnz() as f64 * fetch_b;
        assert!(
            (matrix_bytes - expected).abs() < expected * 1e-9,
            "matrix bytes {matrix_bytes} != nnz bytes {expected}"
        );
        assert_eq!(
            r.traffic.refetch_bytes, 0.0,
            "no ping-pong with a big buffer"
        );
        assert_eq!(r.evictions, 0);
    }

    #[test]
    fn tiny_buffer_causes_refetch_pingpong() {
        let m = gen::uniform(2000, 2000, 20_000, 7);
        let plan = PassPlan::build(&m, 4);
        // ~20k elements × 10.5 B ≈ 210 KB live peak ≈ 50%: give 32 KB.
        let r = run_pass(&plan, &cfg(32 << 10), &params());
        assert!(r.evictions > 0, "tiny buffer must evict");
        assert!(
            r.traffic.refetch_bytes > 0.0,
            "evictions must cause refetches"
        );
    }

    #[test]
    fn eager_csr_prefetch_uses_leftover_bandwidth() {
        let m = gen::uniform(2000, 2000, 20_000, 7);
        let plan = PassPlan::build(&m, 4);
        let with = run_pass(&plan, &cfg(64 << 20), &params());
        let without = run_pass(&plan, &cfg(64 << 20).with_eager_csr(false), &params());
        assert!(with.traffic.csr_eager_bytes > 0.0);
        assert_eq!(without.traffic.csr_eager_bytes, 0.0);
        // Same total matrix traffic either way (ample buffer)…
        let total_with = with.traffic.csc_bytes + with.traffic.csr_eager_bytes;
        let total_without = without.traffic.csc_bytes + without.traffic.csr_eager_bytes;
        assert!((total_with - total_without).abs() < 1.0);
        // …but eager loading smooths the profile: no step should be much
        // emptier than average when there is future work to prefetch.
        assert!(with.cycles <= without.cycles * 1.05);
    }

    #[test]
    fn work_conservation() {
        // Every element is processed exactly once by OS and once by IS.
        let m = gen::banded(1000, 8000, 20, 3);
        let plan = PassPlan::build(&m, 2);
        let p = params();
        let r = run_pass(&plan, &cfg(64 << 20), &p);
        assert_eq!(r.os_ops, m.nnz() as f64 * 2.0);
        assert_eq!(r.is_ops, m.nnz() as f64 * 2.0);
    }

    #[test]
    fn banded_matrix_has_tiny_footprint() {
        let m = gen::banded(4000, 40_000, 20, 3);
        let plan = PassPlan::build(&m, 4);
        let r = run_pass(&plan, &cfg(64 << 20), &params());
        // live window ≈ bandwidth-of-band × density — far below 1% of nnz
        assert!(r.buffer_peak_bytes < 0.2 * m.nnz() as f64 * 12.0);
    }

    #[test]
    fn compute_bound_when_ewise_heavy() {
        let m = gen::uniform(2000, 2000, 10_000, 5);
        // wide sub-tensors so per-step work clears the latency floor
        let plan = PassPlan::build(&m, 32);
        let mut p = params();
        p.ewise_arith_per_elem = 500.0; // kcore-like e-wise avalanche
        let heavy = run_pass(&plan, &cfg(64 << 20), &p);
        let light = run_pass(&plan, &cfg(64 << 20), &params());
        assert!(heavy.cycles > light.cycles * 2.0);
        // utilization drops when compute-bound
        let util = |r: &PassResult| {
            let bytes = r.traffic.total_bytes();
            bytes / (r.cycles * 504.0)
        };
        assert!(util(&heavy) < util(&light));
    }

    #[test]
    fn shadow_checker_passes_under_pressure() {
        // The validating run exercises every eviction/repack path on a
        // tiny buffer and must (a) not trip any invariant and (b) produce
        // byte-identical results to the unchecked run.
        let m = gen::uniform(2000, 2000, 20_000, 7);
        let plan = PassPlan::build(&m, 4);
        let checked = run_pass(&plan, &cfg(32 << 10).with_validation(true), &params());
        let unchecked = run_pass(&plan, &cfg(32 << 10), &params());
        assert!(checked.evictions > 0, "pressure scenario must evict");
        assert_eq!(checked.cycles, unchecked.cycles);
        assert_eq!(
            checked.traffic.total_bytes(),
            unchecked.traffic.total_bytes()
        );
        assert_eq!(checked.evictions, unchecked.evictions);
    }

    #[test]
    fn step_samples_cover_pass() {
        let m = gen::uniform(500, 500, 3000, 2);
        let plan = PassPlan::build(&m, 1);
        let r = run_pass(&plan, &cfg(64 << 20), &params());
        assert_eq!(r.steps.len(), plan.steps);
        let sum: f64 = r.steps.iter().map(|s| s.cycles).sum();
        assert!(r.cycles > sum, "fill/drain adds cycles");
        assert!(r.cycles < sum * 1.1);
    }
}
