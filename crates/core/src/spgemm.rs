//! Row-wise (Gustavson) SpGEMM pipeline stage for the `mxm` workload
//! family (DESIGN.md §15).
//!
//! One **mxm pass** sweeps the rows of the bound square matrix `M` in
//! blocks of `t_rows` rows per pipeline step and computes `C = M ⊕.⊗ M`
//! with Gustavson's row-by-row algorithm, on the sparse accumulator of
//! [`sparsepipe_tensor::spgemm`] ([`Spa`]) over [`MatrixArena`] CSR
//! slices — one kernel for the timing model and the functional result.
//!
//! The stage splits in two. [`MxmPlan::build`] runs the kernel and the
//! residency window once and records per-step counts; [`MxmPlan::replay`]
//! turns them into cycles, traffic and trace events for a given fusion
//! width. The engine counts `C` and never builds it; [`MxmRequest`]
//! drains the same accumulator in column order and returns `C`.
//!
//! The traffic model mirrors the dataflow:
//!
//! * **left-operand streaming** — row `i` of the iteration-varying left
//!   operand is read once per fused iteration ([`TrafficClass::VectorRead`];
//!   it is activation-like data, not the resident matrix image);
//! * **right-operand row fetches** — Gustavson demands row `k` of the
//!   stationary right operand for every left element `(i, k)`. Rows pass
//!   through a byte-bounded FIFO residency window: the first fetch of a
//!   row is demand traffic ([`TrafficClass::CscDemand`]), a re-fetch
//!   after eviction is ping-pong ([`TrafficClass::Refetch`]). Under
//!   cross-iteration OEI the fused iterations share these fetches, so
//!   they are charged once per fused unit;
//! * **result write-back** — emitted `C` entries stream out once per
//!   fused iteration ([`TrafficClass::Writeback`]);
//! * **e-wise matrix riders** — downstream
//!   [`sparsepipe_frontend::OpKind::EwiseMatrix`] passes (masking,
//!   inflation) stream the product back through the merge unit: two
//!   operand reads and one write of `C`-sized data per rider pass.
//!
//! Per-step timing is bottleneck-style like [`crate::pipeline`]:
//! `max(memory, OS MACs, accumulator drain, rider merge, latency floor)`.

use sparsepipe_semiring::{AndOr, ArilAdd, MinAdd, MulAdd, Semiring, SemiringOp};
use sparsepipe_tensor::spgemm::{CsrRows, Spa};
use sparsepipe_tensor::CsrMatrix;
use sparsepipe_trace::{NullSink, TraceEvent, TraceSink, TrafficClass};

use crate::arena::{MatrixArena, RowSet};
use crate::config::SparsepipeConfig;
use crate::engine::Deadline;
use crate::pipeline::{PassResult, StepSample};
use crate::stats::TrafficBreakdown;

/// Accumulator scatter serialization (bank conflicts while draining the
/// sparse accumulator) — the IS-side analogue of the pipeline's scatter
/// factor.
const ACC_SCATTER: f64 = 1.1;

/// Pipeline fill/drain steps for the mxm stage (loader → OS merge →
/// accumulator drain → write-back).
const PIPELINE_STAGES: f64 = 3.0;

/// Fraction of the on-chip buffer reserved for the right-operand row
/// residency window (the rest holds the accumulator, the left-operand
/// stream, and the outgoing result rows). Public so the static analyzer
/// (`sparsepipe-lint`'s `analysis_cost`) can reason about the same
/// window the stage enforces.
pub const RESIDENCY_FRACTION: f64 = 0.5;

/// Bytes one live accumulator column occupies (value plus column
/// coordinate plus occupancy flag word). Shared with the static
/// analyzer's occupancy bounds.
pub const ACC_BYTES_PER_COL: f64 = 16.0;

/// Functional and architectural statistics of one SpGEMM computation.
///
/// These are pure functions of the matrix and semiring — independent of
/// the fusion schedule — so one [`MxmPlan`] serves the fused and the
/// tail passes alike.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct MxmStats {
    /// Scalar products formed (`Σ_i Σ_{k ∈ M[i]} nnz(M[k])`) — the size
    /// of the uncompacted intermediate.
    pub intermediate_nnz: u64,
    /// Non-zeros surviving accumulation (entries of `C`).
    pub out_nnz: u64,
    /// Peak live accumulator columns over all output rows.
    pub peak_accumulator_cols: u32,
    /// `intermediate_nnz / max(nnz, 1)` — the row-expansion pressure of
    /// this matrix under SpGEMM.
    pub expansion_factor: f64,
}

/// Workload-derived parameters of one mxm pass.
#[derive(Debug, Clone, Copy)]
pub struct MxmParams {
    /// Loop iterations fused onto one sweep of the stationary operand
    /// (2.0 under cross-iteration OEI, 1.0 otherwise). Left-operand,
    /// write-back, rider traffic and compute scale by this; stationary
    /// row fetches are charged once.
    pub fused_iterations: f64,
    /// Downstream `ewise_matrix` rider passes per loop iteration.
    pub ewise_matrix_passes: f64,
    /// Rows per pipeline step (derive with
    /// [`SparsepipeConfig::subtensor_auto`]; clamped to ≥ 1).
    pub t_rows: usize,
}

impl Default for MxmParams {
    /// One unfused sweep, no riders, one row per step.
    fn default() -> Self {
        MxmParams {
            fused_iterations: 1.0,
            ewise_matrix_passes: 0.0,
            t_rows: 1,
        }
    }
}

/// Everything one mxm pass produces: the functional result, the timing
/// pass (shape-compatible with the vxm pipeline's [`PassResult`], so the
/// engine accumulates and down-samples it identically), and the SpGEMM
/// statistics.
#[derive(Debug, Clone)]
pub struct MxmOutcome {
    /// `C = M ⊕.⊗ M`, bitwise-identical to
    /// [`sparsepipe_tensor::spgemm::spgemm`] on the same operands.
    pub result: CsrMatrix,
    /// Timing and traffic of one pass.
    pub pass: PassResult,
    /// SpGEMM statistics (schedule-independent).
    pub stats: MxmStats,
}

/// Pipeline steps an mxm pass over an `n`-row matrix takes at `t_rows`
/// rows per step.
pub fn step_count(n: u32, t_rows: usize) -> usize {
    (n as usize).div_ceil(t_rows.max(1)).max(1)
}

/// Builder for one mxm pass — the SpGEMM analogue of
/// [`crate::pipeline::PassRequest`]. Unlike the engine, which only
/// counts `C` (see [`MxmPlan`]), a request materialises the product.
///
/// ```
/// use sparsepipe_core::spgemm::{MxmParams, MxmRequest};
/// use sparsepipe_core::{MatrixArena, SparsepipeConfig};
/// use sparsepipe_semiring::SemiringOp;
/// use sparsepipe_tensor::gen;
///
/// let m = gen::uniform(200, 200, 1200, 3);
/// let arena = MatrixArena::from_coo(&m);
/// let config = SparsepipeConfig::iso_gpu();
/// let outcome = MxmRequest::new(&arena, SemiringOp::MulAdd, &config)
///     .params(MxmParams {
///         t_rows: 16,
///         ..MxmParams::default()
///     })
///     .run();
/// let oracle =
///     sparsepipe_tensor::spgemm::spgemm(&m.to_csr(), &m.to_csr(), SemiringOp::MulAdd).unwrap();
/// assert_eq!(outcome.result.to_coo().entries(), oracle.to_coo().entries());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MxmRequest<'a> {
    arena: &'a MatrixArena,
    semiring: SemiringOp,
    config: &'a SparsepipeConfig,
    params: MxmParams,
}

impl<'a> MxmRequest<'a> {
    /// Starts a request for `C = M ⊕.⊗ M` over the arena under `config`.
    pub fn new(arena: &'a MatrixArena, semiring: SemiringOp, config: &'a SparsepipeConfig) -> Self {
        MxmRequest {
            arena,
            semiring,
            config,
            params: MxmParams::default(),
        }
    }

    /// Replaces the workload parameters (default [`MxmParams::default`]).
    #[must_use]
    pub fn params(mut self, params: MxmParams) -> Self {
        self.params = params;
        self
    }

    /// Executes the pass.
    pub fn run(self) -> MxmOutcome {
        self.run_traced(&mut NullSink)
    }

    /// Executes the pass, streaming trace events into `sink` (per-step
    /// aggregate DRAM events whose payloads are the exact `f64`
    /// increments added to the returned traffic — see
    /// [`sparsepipe_trace::TraceAudit`]).
    pub fn run_traced<S: TraceSink>(self, sink: &mut S) -> MxmOutcome {
        let mut rows = CsrRows::new();
        let Ok(plan) = build_plan(
            self.arena,
            self.semiring,
            self.config,
            self.params.t_rows,
            None,
            Some(&mut rows),
        ) else {
            unreachable!("mxm plan only fails when given a deadline")
        };
        MxmOutcome {
            result: rows.into_csr(self.arena.n()),
            pass: plan.replay(self.config, &self.params, sink),
            stats: plan.stats,
        }
    }
}

/// What one pipeline step of an mxm pass does, independent of the
/// fusion schedule.
#[derive(Debug, Clone, Copy, Default)]
struct PlanStep {
    /// First-fetch bytes of stationary rows.
    demand: f64,
    /// Re-fetch bytes of evicted stationary rows.
    refetch: f64,
    /// Left-operand stream bytes.
    left_bytes: f64,
    /// Scalar products formed.
    products: u64,
    /// `C` entries surviving accumulation.
    out_entries: u64,
    /// Widest accumulator row of the step.
    acc_peak: u32,
    /// Residency-window bytes at the end of the step.
    resident_bytes: f64,
}

/// The schedule-independent half of an mxm pass: the Gustavson kernel
/// and the right-operand residency window run once, recording per-step
/// counts; [`replay`](MxmPlan::replay) turns them into cycles, traffic
/// and trace events in O(steps) for any fusion width and rider count.
///
/// A plan depends only on the arena, the semiring, `t_rows` and the
/// configuration's buffer and element sizes. It counts `C` without
/// building it; [`MxmRequest`] is the path that materialises `C`.
///
/// ```
/// use sparsepipe_core::spgemm::{MxmParams, MxmPlan, MxmRequest};
/// use sparsepipe_core::{MatrixArena, SparsepipeConfig};
/// use sparsepipe_semiring::SemiringOp;
/// use sparsepipe_trace::NullSink;
///
/// let arena = MatrixArena::from_coo(&sparsepipe_tensor::gen::uniform(200, 200, 1200, 3));
/// let config = SparsepipeConfig::iso_gpu();
/// let params = MxmParams { t_rows: 16, fused_iterations: 2.0, ..MxmParams::default() };
/// let plan = MxmPlan::build(&arena, SemiringOp::MulAdd, &config, params.t_rows);
/// let pass = plan.replay(&config, &params, &mut NullSink);
/// let request = MxmRequest::new(&arena, SemiringOp::MulAdd, &config).params(params).run();
/// assert_eq!(plan.stats(), request.stats);
/// assert_eq!(pass.cycles.to_bits(), request.pass.cycles.to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct MxmPlan {
    t_rows: usize,
    steps: Vec<PlanStep>,
    evictions: u64,
    stats: MxmStats,
}

impl MxmPlan {
    /// Runs the kernel and the residency window over the arena at
    /// `t_rows` rows per step (clamped to ≥ 1).
    pub fn build(
        arena: &MatrixArena,
        semiring: SemiringOp,
        config: &SparsepipeConfig,
        t_rows: usize,
    ) -> MxmPlan {
        let Ok(plan) = build_plan(arena, semiring, config, t_rows, None, None) else {
            unreachable!("mxm plan only fails when given a deadline")
        };
        plan
    }

    /// [`build`](MxmPlan::build), checking `deadline` once per step.
    pub(crate) fn build_until(
        arena: &MatrixArena,
        semiring: SemiringOp,
        config: &SparsepipeConfig,
        t_rows: usize,
        deadline: Option<&Deadline>,
    ) -> Result<MxmPlan, crate::CoreError> {
        build_plan(arena, semiring, config, t_rows, deadline, None)
    }

    /// SpGEMM statistics of the plan's product.
    pub fn stats(&self) -> MxmStats {
        self.stats
    }

    /// Times one pass of the plan under `params`, streaming its trace
    /// events into `sink`. `config` must be the configuration the plan
    /// was built with, and `params.t_rows` its step height.
    ///
    /// Every emission is guarded by `S::ENABLED`, so traced and untraced
    /// replays return bit-identical [`PassResult`]s.
    pub fn replay<S: TraceSink>(
        &self,
        config: &SparsepipeConfig,
        params: &MxmParams,
        sink: &mut S,
    ) -> PassResult {
        debug_assert_eq!(
            params.t_rows.max(1),
            self.t_rows,
            "replay at the plan's step height"
        );
        let bpc = config.memory.bytes_per_cycle(config.clock_ghz);
        let fetch_b = config.fetch_bytes_per_element();
        let pes = config.pes_per_core as f64;
        let share = params.fused_iterations;
        let riders = params.ewise_matrix_passes;
        let step_floor = (config.memory.read_latency_ns * config.clock_ghz).max(1.0);

        let mut traffic = TrafficBreakdown::default();
        let mut steps_out = Vec::with_capacity(self.steps.len());
        let mut total_cycles = 0.0f64;
        let mut os_ops = 0.0f64;
        let mut ew_ops = 0.0f64;
        let mut is_ops = 0.0f64;
        let mut sram_bytes = 0.0f64;
        let mut occupancy_sum = 0.0f64;
        let mut buffer_peak = 0.0f64;
        // Trace-only address cursors (same address-space convention as the
        // vxm pipeline: demand stream at 0, refetch at 1<<40, vectors at
        // 1<<36).
        let mut ev_demand_addr: u64 = 0;
        let mut ev_vec_addr: u64 = 1 << 36;

        for (s, st) in self.steps.iter().enumerate() {
            // ---- Traffic accounting (engine-order: demand, refetch, vector
            // read, write-back — each emitted event carries the exact `f64`
            // increment added here, so the audit replays bitwise) ----
            let c_bytes = st.out_entries as f64 * fetch_b;
            let vec_read = share * (st.left_bytes + riders * 2.0 * c_bytes);
            let writeback = share * (c_bytes + riders * c_bytes);
            traffic.csc_bytes += st.demand;
            traffic.refetch_bytes += st.refetch;
            traffic.vector_bytes += vec_read;
            traffic.writeback_bytes += writeback;
            if S::ENABLED {
                let step = s as u32;
                if st.demand > 0.0 {
                    sink.emit(TraceEvent::DramRead {
                        addr: ev_demand_addr,
                        bytes: st.demand,
                        class: TrafficClass::CscDemand,
                        step,
                    });
                    ev_demand_addr += st.demand as u64;
                }
                if st.refetch > 0.0 {
                    sink.emit(TraceEvent::DramRead {
                        addr: 1 << 40,
                        bytes: st.refetch,
                        class: TrafficClass::Refetch,
                        step,
                    });
                }
                if vec_read > 0.0 {
                    sink.emit(TraceEvent::DramRead {
                        addr: ev_vec_addr,
                        bytes: vec_read,
                        class: TrafficClass::VectorRead,
                        step,
                    });
                    ev_vec_addr += vec_read as u64;
                }
                if writeback > 0.0 {
                    sink.emit(TraceEvent::DramWrite {
                        addr: ev_vec_addr,
                        bytes: writeback,
                        class: TrafficClass::Writeback,
                        step,
                    });
                    ev_vec_addr += writeback as u64;
                }
            }

            // ---- Stage costs ----
            let step_os_ops = share * st.products as f64 * 2.0;
            let step_is_ops = share * st.out_entries as f64;
            let step_ew_ops = share * riders * st.out_entries as f64;
            let os_cycles = step_os_ops / (2.0 * pes);
            let is_cycles = step_is_ops * ACC_SCATTER / (2.0 * pes);
            let ew_cycles = step_ew_ops / pes;
            let mem_bytes = st.demand + st.refetch + vec_read + writeback;
            let mem_cycles = mem_bytes / bpc;
            let step_cycles = os_cycles
                .max(is_cycles)
                .max(ew_cycles)
                .max(mem_cycles)
                .max(step_floor);

            sram_bytes += 2.0 * mem_bytes;
            let occupancy = st.resident_bytes + st.acc_peak as f64 * ACC_BYTES_PER_COL;
            buffer_peak = buffer_peak.max(occupancy);
            occupancy_sum += occupancy;
            os_ops += step_os_ops;
            is_ops += step_is_ops;
            ew_ops += step_ew_ops;
            total_cycles += step_cycles;
            if S::ENABLED {
                sink.emit(TraceEvent::StepEnd {
                    step: s as u32,
                    cycles: step_cycles,
                    occupancy_bytes: occupancy,
                });
            }
            steps_out.push(StepSample {
                cycles: step_cycles,
                csc_bytes: st.demand + st.refetch,
                csr_bytes: 0.0,
                vec_bytes: vec_read + writeback,
                occupancy_bytes: occupancy,
            });
        }

        // Pipeline fill/drain.
        let steps = self.steps.len() as f64;
        let avg_step = total_cycles / steps;
        total_cycles += PIPELINE_STAGES * avg_step;

        PassResult {
            cycles: total_cycles,
            traffic,
            steps: steps_out,
            evictions: self.evictions,
            repacks: 0,
            buffer_peak_bytes: buffer_peak,
            buffer_avg_bytes: occupancy_sum / steps,
            os_ops,
            ew_ops,
            is_ops,
            sram_bytes,
        }
    }
}

/// Dispatches the semiring once, to [`plan_rows`] monomorphised over it.
fn build_plan(
    arena: &MatrixArena,
    semiring: SemiringOp,
    config: &SparsepipeConfig,
    t_rows: usize,
    deadline: Option<&Deadline>,
    rows: Option<&mut CsrRows>,
) -> Result<MxmPlan, crate::CoreError> {
    match semiring {
        SemiringOp::MulAdd => plan_rows::<MulAdd>(arena, config, t_rows, deadline, rows),
        SemiringOp::AndOr => plan_rows::<AndOr>(arena, config, t_rows, deadline, rows),
        SemiringOp::MinAdd => plan_rows::<MinAdd>(arena, config, t_rows, deadline, rows),
        SemiringOp::ArilAdd => plan_rows::<ArilAdd>(arena, config, t_rows, deadline, rows),
    }
}

/// The Gustavson sweep: for every row, fetch each demanded stationary
/// row through the FIFO residency window, then merge it into the
/// [`Spa`] — the accumulator of [`sparsepipe_tensor::spgemm::spgemm`].
/// With `rows` the drain is sorted and `C` lands in `rows`; without it
/// the drain only counts.
fn plan_rows<R: Semiring>(
    arena: &MatrixArena,
    config: &SparsepipeConfig,
    t_rows: usize,
    deadline: Option<&Deadline>,
    mut rows: Option<&mut CsrRows>,
) -> Result<MxmPlan, crate::CoreError> {
    let n = arena.n();
    let fetch_b = config.fetch_bytes_per_element();
    let elem_b = config.buffer_bytes_per_element();
    let t_rows = t_rows.max(1);
    let n_steps = step_count(n, t_rows);
    let residency_budget = config.buffer_bytes as f64 * RESIDENCY_FRACTION;

    let mut spa = Spa::<R>::new(n);

    // Right-operand row residency: FIFO over row ids, byte-bounded.
    let mut resident = RowSet::with_capacity(n as usize);
    let mut ever_loaded = RowSet::with_capacity(n as usize);
    let mut fifo: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut resident_bytes = 0.0f64;
    let mut evicted_elements = 0u64;

    let mut steps = Vec::with_capacity(n_steps);
    let mut products_total = 0u64;
    let mut out_total = 0u64;
    let mut peak_acc_cols = 0u32;

    for s in 0..n_steps {
        if let Some(d) = deadline {
            d.check()?;
        }
        let row_lo = (s * t_rows) as u32;
        let row_hi = (((s + 1) * t_rows).min(n as usize)) as u32;

        let mut step = PlanStep::default();

        for i in row_lo..row_hi {
            let (m_cols, m_vals) = arena.row(i);
            step.left_bytes += m_cols.len() as f64 * fetch_b;
            for (&k, &m_ik) in m_cols.iter().zip(m_vals) {
                // ---- stationary-operand row fetch through the window ----
                if !resident.contains(k) {
                    let row_bytes = arena.row_nnz(k) as f64 * elem_b;
                    let dram_bytes = arena.row_nnz(k) as f64 * fetch_b;
                    if ever_loaded.insert(k) {
                        step.demand += dram_bytes;
                    } else {
                        step.refetch += dram_bytes;
                    }
                    resident.insert(k);
                    fifo.push_back(k);
                    resident_bytes += row_bytes;
                    while resident_bytes > residency_budget && fifo.len() > 1 {
                        let victim = fifo.pop_front().expect("fifo non-empty");
                        if resident.remove(victim) {
                            let victim_nnz = arena.row_nnz(victim);
                            resident_bytes -= victim_nnz as f64 * elem_b;
                            evicted_elements += victim_nnz as u64;
                        }
                    }
                }
                // ---- Gustavson merge ----
                let (b_cols, b_vals) = arena.row(k);
                step.products += b_cols.len() as u64;
                spa.scatter(m_ik, b_cols, b_vals);
            }
            step.acc_peak = step.acc_peak.max(spa.live() as u32);
            step.out_entries += match rows.as_deref_mut() {
                Some(rows) => spa.drain_sorted(rows),
                None => spa.drain_count(),
            };
        }
        step.resident_bytes = resident_bytes;

        products_total += step.products;
        out_total += step.out_entries;
        peak_acc_cols = peak_acc_cols.max(step.acc_peak);
        steps.push(step);
    }

    Ok(MxmPlan {
        t_rows,
        steps,
        evictions: evicted_elements,
        stats: MxmStats {
            intermediate_nnz: products_total,
            out_nnz: out_total,
            peak_accumulator_cols: peak_acc_cols,
            expansion_factor: products_total as f64 / (arena.nnz() as f64).max(1.0),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_tensor::{gen, CooMatrix};

    fn cfg() -> SparsepipeConfig {
        SparsepipeConfig::iso_gpu().with_preprocessing(crate::config::Preprocessing::none())
    }

    fn request<'a>(
        arena: &'a MatrixArena,
        config: &'a SparsepipeConfig,
        params: MxmParams,
    ) -> MxmOutcome {
        MxmRequest::new(arena, SemiringOp::MulAdd, config)
            .params(params)
            .run()
    }

    fn params(t_rows: usize) -> MxmParams {
        MxmParams {
            t_rows,
            ..MxmParams::default()
        }
    }

    #[test]
    fn result_matches_tensor_spgemm_bitwise() {
        for seed in [1u64, 7, 23] {
            let m = gen::power_law(300, 2400, 1.0, 0.4, seed);
            let arena = MatrixArena::from_coo(&m);
            let got = request(&arena, &cfg(), params(16)).result;
            let csr = m.to_csr();
            let want = sparsepipe_tensor::spgemm::spgemm(&csr, &csr, SemiringOp::MulAdd).unwrap();
            let (ge, we) = (got.to_coo(), want.to_coo());
            assert_eq!(ge.entries().len(), we.entries().len(), "seed {seed}");
            for (g, w) in ge.entries().iter().zip(we.entries()) {
                assert_eq!((g.0, g.1), (w.0, w.1), "seed {seed}");
                assert_eq!(g.2.to_bits(), w.2.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn stats_count_products_and_peak() {
        // path graph 0→1→2: one product (row 0 expands through row 1),
        // one surviving entry, accumulator never holds more than 1 col.
        let m = CooMatrix::from_entries(3, 3, vec![(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let arena = MatrixArena::from_coo(&m);
        let o = request(&arena, &cfg(), params(1));
        assert_eq!(o.stats.intermediate_nnz, 1);
        assert_eq!(o.stats.out_nnz, 1);
        assert_eq!(o.stats.peak_accumulator_cols, 1);
        assert_eq!(o.stats.expansion_factor, 0.5);
    }

    #[test]
    fn fused_pass_shares_stationary_fetches() {
        let m = gen::uniform(400, 400, 4000, 5);
        let arena = MatrixArena::from_coo(&m);
        let unfused = request(&arena, &cfg(), params(16));
        let fused = request(
            &arena,
            &cfg(),
            MxmParams {
                fused_iterations: 2.0,
                ..params(16)
            },
        );
        // Stationary (demand + refetch) traffic is identical; left/result
        // streams and compute double.
        assert_eq!(
            fused.pass.traffic.csc_bytes.to_bits(),
            unfused.pass.traffic.csc_bytes.to_bits()
        );
        assert_eq!(
            fused.pass.traffic.refetch_bytes.to_bits(),
            unfused.pass.traffic.refetch_bytes.to_bits()
        );
        assert_eq!(
            fused.pass.traffic.vector_bytes,
            2.0 * unfused.pass.traffic.vector_bytes
        );
        assert_eq!(fused.pass.os_ops, 2.0 * unfused.pass.os_ops);
        // Values and stats are schedule-independent.
        assert_eq!(fused.stats, unfused.stats);
        assert_eq!(
            fused.result.to_coo().entries(),
            unfused.result.to_coo().entries()
        );
    }

    #[test]
    fn tight_residency_window_causes_refetch() {
        let m = gen::uniform(600, 600, 9000, 11);
        let arena = MatrixArena::from_coo(&m);
        let ample = request(&arena, &cfg(), params(8));
        assert_eq!(ample.pass.traffic.refetch_bytes, 0.0);
        assert_eq!(ample.pass.evictions, 0);
        let tight = request(&arena, &cfg().with_buffer(8 << 10), params(8));
        assert!(tight.pass.evictions > 0, "tiny window must evict rows");
        assert!(tight.pass.traffic.refetch_bytes > 0.0);
        // Values are unaffected by the window size.
        assert_eq!(
            tight.result.to_coo().entries(),
            ample.result.to_coo().entries()
        );
    }

    #[test]
    fn demand_traffic_covers_each_touched_row_once() {
        let m = gen::uniform(500, 500, 5000, 3);
        let arena = MatrixArena::from_coo(&m);
        let o = request(&arena, &cfg(), params(16));
        // With an ample window every row with an in-edge is fetched exactly
        // once: Σ_{k touched} nnz(row k) elements.
        let touched_elems: usize = (0..500u32)
            .filter(|&k| arena.col_nnz(k) > 0)
            .map(|k| arena.row_nnz(k))
            .sum();
        let expected = touched_elems as f64 * cfg().fetch_bytes_per_element();
        assert!((o.pass.traffic.csc_bytes - expected).abs() < 1e-6);
    }

    #[test]
    fn rider_passes_add_vector_traffic_only() {
        let m = gen::uniform(400, 400, 4000, 5);
        let arena = MatrixArena::from_coo(&m);
        let plain = request(&arena, &cfg(), params(16));
        let with_rider = request(
            &arena,
            &cfg(),
            MxmParams {
                ewise_matrix_passes: 1.0,
                ..params(16)
            },
        );
        assert_eq!(
            with_rider.pass.traffic.csc_bytes.to_bits(),
            plain.pass.traffic.csc_bytes.to_bits()
        );
        assert!(with_rider.pass.traffic.vector_bytes > plain.pass.traffic.vector_bytes);
        assert!(with_rider.pass.traffic.writeback_bytes > plain.pass.traffic.writeback_bytes);
        assert!(with_rider.pass.ew_ops > 0.0);
        assert_eq!(plain.pass.ew_ops, 0.0);
    }

    #[test]
    fn traced_run_is_byte_identical_and_audits() {
        use sparsepipe_trace::{MemorySink, TraceAudit};
        let m = gen::power_law(400, 3200, 1.0, 0.4, 13);
        let arena = MatrixArena::from_coo(&m);
        let config = cfg().with_buffer(16 << 10);
        let untraced = request(&arena, &config, params(8));
        let mut sink = MemorySink::new();
        let traced = MxmRequest::new(&arena, SemiringOp::MulAdd, &config)
            .params(params(8))
            .run_traced(&mut sink);
        assert_eq!(traced.pass.cycles, untraced.pass.cycles);
        assert_eq!(traced.pass.traffic, untraced.pass.traffic);
        let audit = TraceAudit::replay(sink.events());
        audit
            .check(&sparsepipe_trace::AuditTotals {
                csc_bytes: traced.pass.traffic.csc_bytes,
                csr_eager_bytes: traced.pass.traffic.csr_eager_bytes,
                refetch_bytes: traced.pass.traffic.refetch_bytes,
                vector_bytes: traced.pass.traffic.vector_bytes,
                writeback_bytes: traced.pass.traffic.writeback_bytes,
            })
            .unwrap();
    }

    #[test]
    fn step_count_covers_all_rows() {
        assert_eq!(step_count(10, 3), 4);
        assert_eq!(step_count(10, 10), 1);
        assert_eq!(step_count(10, 0), 10, "t_rows clamps to 1");
        assert_eq!(step_count(0, 4), 1, "degenerate matrix still has a step");
    }
}
