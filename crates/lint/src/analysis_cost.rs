//! Static cost & reuse analysis (`SP-C…`): abstract interpretation over a
//! dataflow graph and a schedule profile that *brackets* the simulator's
//! DRAM traffic and buffer occupancy without running it.
//!
//! The abstract domain is the closed real interval: every quantity the
//! simulator computes exactly (per-category traffic bytes, peak resident
//! bytes) is abstracted to an [`Interval`] `[lower, upper]` proven to
//! contain the concrete value. The passes are the engine's own
//! [`Schedule`]: fused OEI pipeline walks, the odd unfused tail, the
//! closed-form no-OEI stream, and the Gustavson row-wise sweeps of the
//! mxm (SpGEMM) family (`sparsepipe_core::spgemm`). For the last,
//! stationary-row demand traffic is bounded from the [`MatrixProfile`]'s
//! SpGEMM statics (`[touched, products]` elements), the product's
//! population from its envelope, and the accumulator occupancy from the
//! widest per-row expansion (`SP-C004` flags statically-guaranteed
//! expansion pressure).
//!
//! Quantities the engine computes by a closed formula (vector stream
//! bytes, tail/unfused matrix bytes) are reproduced with the same
//! arithmetic and widened by a relative tolerance that dominates the
//! engine's worst-case f64 accumulation drift. Quantities that depend on
//! run-time buffer dynamics (CSC/CSR split under eager prefetch, refetch
//! traffic, occupancy peak) are bounded from the [`MatrixProfile`]
//! geometry:
//!
//! * per fused pass, `csc + csr_eager == nnz · fetch_bytes` exactly
//!   (every element is loaded exactly once before eviction can occur, by
//!   one loader or the other), so the split is bounded by the number of
//!   elements the eager loader is geometrically able to claim;
//! * refetch traffic is at most one reload per eager-claimed element plus
//!   one per element whose IS consumption follows its OS consumption, and
//!   is exactly zero when the worst-case residency curve fits the
//!   per-step enforcement budget (no eviction can ever fire);
//! * the occupancy peak is floored by the largest set of elements that
//!   are provably co-resident at one step and capped by the enforcement
//!   budget plus one step's demand burst.
//!
//! Soundness of every bound is asserted empirically by the differential
//! harness in `sparsepipe-bench` (`experiments analyze`), which replays
//! audited traces of all registry apps and checks
//! `lower ≤ actual ≤ upper` per pass and per traffic category.

use sparsepipe_core::schedule::{OeiClass, Schedule, ScheduledPass};
use sparsepipe_core::spgemm::{ACC_BYTES_PER_COL, RESIDENCY_FRACTION};
use sparsepipe_core::{MatrixProfile, PassPlan, SparsepipeConfig};
use sparsepipe_frontend::{OpId, OpKind, SparsepipeProgram, TensorId, TensorKind, WorkloadProfile};
use sparsepipe_tensor::CooMatrix;

use crate::diag::LintReport;

/// Relative widening applied to closed-form quantities. The engine
/// accumulates at most a few thousand f64 additions per total
/// (relative drift < 1e-12); three orders of magnitude of margin keeps
/// the bounds honest without making them vacuous.
const RELATIVE_TOL: f64 = 1e-9;

/// A closed interval `[lower, upper]` of bytes (or element counts); the
/// abstract value of the analysis. Invariant: `lower <= upper`, both
/// finite and non-negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Proven lower bound.
    pub lower: f64,
    /// Proven upper bound.
    pub upper: f64,
}

impl Interval {
    /// The interval `[lower, upper]`.
    #[must_use]
    pub fn new(lower: f64, upper: f64) -> Self {
        debug_assert!(lower <= upper, "inverted interval [{lower}, {upper}]");
        Interval { lower, upper }
    }

    /// The degenerate interval `[0, 0]`.
    #[must_use]
    pub fn zero() -> Self {
        Interval {
            lower: 0.0,
            upper: 0.0,
        }
    }

    /// An exact value widened by `RELATIVE_TOL` (1e-9) on both sides (an exact
    /// zero stays `[0, 0]`: the engine only produces zero as a sum of
    /// exact zeros).
    #[must_use]
    pub fn around(value: f64) -> Self {
        Interval {
            lower: (value * (1.0 - RELATIVE_TOL)).max(0.0),
            upper: value * (1.0 + RELATIVE_TOL),
        }
    }

    /// `[lower, upper]` widened outward by `RELATIVE_TOL`.
    #[must_use]
    pub fn banded(lower: f64, upper: f64) -> Self {
        Interval::new(
            (lower * (1.0 - RELATIVE_TOL)).max(0.0),
            upper * (1.0 + RELATIVE_TOL),
        )
    }

    /// Whether `value` lies within the interval (inclusive).
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        self.lower <= value && value <= self.upper
    }

    /// Interval sum.
    #[must_use]
    pub fn add(&self, other: &Interval) -> Interval {
        Interval::new(self.lower + other.lower, self.upper + other.upper)
    }

    /// Scaling by a non-negative factor.
    #[must_use]
    pub fn scale(&self, k: f64) -> Interval {
        debug_assert!(k >= 0.0);
        Interval::new(self.lower * k, self.upper * k)
    }
}

/// Per-category DRAM traffic bounds, mirroring
/// [`sparsepipe_core::TrafficBreakdown`] category-for-category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficBounds {
    /// Demand CSC matrix loads.
    pub csc: Interval,
    /// Eager CSR prefetch loads.
    pub csr_eager: Interval,
    /// Re-loads of evicted elements.
    pub refetch: Interval,
    /// Dense vector stream reads.
    pub vector: Interval,
    /// Dense vector stream writes.
    pub writeback: Interval,
}

impl TrafficBounds {
    /// All-zero bounds.
    #[must_use]
    pub fn zero() -> Self {
        TrafficBounds {
            csc: Interval::zero(),
            csr_eager: Interval::zero(),
            refetch: Interval::zero(),
            vector: Interval::zero(),
            writeback: Interval::zero(),
        }
    }

    /// Bound on the sum over all categories.
    #[must_use]
    pub fn total(&self) -> Interval {
        self.csc
            .add(&self.csr_eager)
            .add(&self.refetch)
            .add(&self.vector)
            .add(&self.writeback)
    }

    /// Category-wise sum.
    #[must_use]
    pub fn add(&self, other: &TrafficBounds) -> TrafficBounds {
        TrafficBounds {
            csc: self.csc.add(&other.csc),
            csr_eager: self.csr_eager.add(&other.csr_eager),
            refetch: self.refetch.add(&other.refetch),
            vector: self.vector.add(&other.vector),
            writeback: self.writeback.add(&other.writeback),
        }
    }

    /// Category-wise scaling by a non-negative factor.
    #[must_use]
    pub fn scale(&self, k: f64) -> TrafficBounds {
        TrafficBounds {
            csc: self.csc.scale(k),
            csr_eager: self.csr_eager.scale(k),
            refetch: self.refetch.scale(k),
            vector: self.vector.scale(k),
            writeback: self.writeback.scale(k),
        }
    }

    /// The five categories as `(name, interval)` pairs, in the trace
    /// schema's order.
    #[must_use]
    pub fn categories(&self) -> [(&'static str, Interval); 5] {
        [
            ("csc", self.csc),
            ("csr_eager", self.csr_eager),
            ("refetch", self.refetch),
            ("vector", self.vector),
            ("writeback", self.writeback),
        ]
    }
}

pub use sparsepipe_core::schedule::PassKind;

/// Static bounds for one scheduled pass, aligned with the trace's
/// `PassBoundary` records: `traffic` bounds the *unscaled* per-execution
/// traffic of the pass (multiply by `repeats` for the run total).
#[derive(Debug, Clone, PartialEq)]
pub struct PassCost {
    /// Execution model of the pass.
    pub kind: PassKind,
    /// Pass id, matching the trace's `PassBoundary::pass`.
    pub pass: u32,
    /// Times the engine replays this pass.
    pub repeats: u64,
    /// Pipeline steps per execution (1 for analytic passes).
    pub steps: u32,
    /// Per-execution traffic bounds, by category.
    pub traffic: TrafficBounds,
    /// Peak matrix-buffer occupancy bounds in bytes (`[0, 0]` for
    /// analytic passes, which never touch the element buffer).
    pub occupancy_bytes: Interval,
}

/// Shape / population envelope for one operator's output tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct OpEnvelope {
    /// The operator.
    pub op: OpId,
    /// Its output tensor.
    pub output: TensorId,
    /// Short operator label (`vxm`, `spmm`, `ewise`, …).
    pub op_label: &'static str,
    /// Dense element slots of the output (`n`, `n·f`, `n·n`, or 1).
    pub elements: f64,
    /// Envelope on the number of populated (non-identity) elements.
    pub nnz: Interval,
}

/// The analysis result: per-pass and aggregate traffic/occupancy bounds,
/// the cross-iteration reuse score, and any `SP-C` diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Whether the program admits OEI fusion at all.
    pub has_oei: bool,
    /// Whether the fusion spans loop iterations.
    pub cross_iteration: bool,
    /// Iterations the bounds cover.
    pub iterations: usize,
    /// Matrix dimension.
    pub n: u32,
    /// Matrix non-zeros.
    pub nnz: usize,
    /// Sub-tensor width of the analyzed schedule.
    pub t_cols: usize,
    /// Per-operator output envelopes, in graph op order.
    pub envelopes: Vec<OpEnvelope>,
    /// Per-pass bounds, in execution order.
    pub passes: Vec<PassCost>,
    /// Whole-run traffic bounds (per-pass bounds scaled by repeats and
    /// summed, mirroring the engine's accumulation).
    pub traffic: TrafficBounds,
    /// Whole-run peak matrix-buffer occupancy bounds in bytes.
    pub occupancy_bytes: Interval,
    /// Bound on total traffic of the *unfused* execution of the same
    /// workload (every operator its own kernel).
    pub unfused_traffic_total: Interval,
    /// Cross-iteration reuse score in `[0, 1]`: the guaranteed fraction
    /// of unfused matrix traffic that fusion eliminates (0 without OEI).
    pub reuse_score: f64,
    /// Proven: no buffer eviction can occur at this capacity, so refetch
    /// traffic is exactly zero.
    pub no_eviction_guaranteed: bool,
    /// Proven: capacity enforcement must evict not-yet-consumed elements
    /// at some step, so the run is guaranteed to thrash.
    pub thrash_guaranteed: bool,
    /// `SP-C` findings (statically-unprofitable fusion, guaranteed
    /// thrashing).
    pub diagnostics: LintReport,
}

/// Everything the fused-pass bound derivation needs from the
/// configuration, precomputed.
struct Geometry<'a> {
    mp: &'a MatrixProfile,
    fetch_b: f64,
    elem_b: f64,
    cap: f64,
    eager: bool,
    feature: f64,
}

impl Geometry<'_> {
    /// The capacity-enforcement budget at step `s`: buffer bytes minus
    /// the dense-vector reservation the pipeline carves out that step.
    fn budget(&self, s: usize) -> f64 {
        let vec_reserved = (self.mp.vec_live[s] as f64 * 8.0 * self.feature).min(self.cap * 0.5);
        (self.cap - vec_reserved).max(0.0)
    }
}

/// A step that guarantees thrashing: `(step, provably-resident
/// elements, bytes over the enforcement budget)`.
type ThrashWitness = (usize, usize, f64);

/// Bounds one fused OEI pass: its traffic, its occupancy, whether
/// eviction is provably impossible and, if thrashing is guaranteed, the
/// step with the largest overflow.
fn fused_pass_bounds(
    wp: &WorkloadProfile,
    geo: &Geometry<'_>,
) -> (TrafficBounds, Interval, bool, Option<ThrashWitness>) {
    let mp = geo.mp;
    let n = f64::from(mp.n);
    let nnz = mp.nnz as f64;
    let matrix_total = nnz * geo.fetch_b;

    // First-load split: every element is loaded exactly once by demand
    // CSC or eager CSR, so csc + csr == nnz · fetch exactly; the eager
    // loader can claim at most the geometrically loadable elements, and
    // bandwidth contention can stop it from claiming any.
    let (csc, csr_eager) = if geo.eager {
        let claimable = mp.eager_loadable as f64 * geo.fetch_b;
        (
            Interval::banded((matrix_total - claimable).max(0.0), matrix_total),
            Interval::banded(0.0, claimable),
        )
    } else {
        (Interval::around(matrix_total), Interval::zero())
    };

    // Eviction reasoning. If the worst-case residency curve (no element
    // ever evicted, every element loaded at its earliest possible step)
    // fits the enforcement budget at every step, enforcement never
    // removes anything and refetch is exactly zero.
    let curve = if geo.eager {
        &mp.worst_live_eager
    } else {
        &mp.worst_live_demand
    };
    let no_eviction = (0..mp.steps).all(|s| curve[s] as f64 * geo.elem_b <= geo.budget(s));

    // Conversely: the elements with `col_step == s && row_step > s` are
    // unconditionally resident when step `s` enforces capacity (demand-
    // loaded this step, not yet IS-consumed). If they alone overflow the
    // budget, the excess is certainly evicted — and certainly refetched,
    // because each has a pending IS consumption. The step with the
    // largest overflow bounds the evictions and witnesses `SP-C002`.
    let mut worst: Option<ThrashWitness> = None;
    for s in 0..mp.steps {
        let live = mp.os_live_at_enforce[s];
        let overflow = live as f64 * geo.elem_b - geo.budget(s);
        if overflow > 0.0 && worst.is_none_or(|(_, _, w)| overflow > w) {
            worst = Some((s, live, overflow));
        }
    }
    let guaranteed_evictions =
        worst.map_or(0.0, |(_, _, overflow)| (overflow / geo.elem_b).floor());
    let thrash = worst.filter(|_| guaranteed_evictions >= 1.0);

    let refetch = if no_eviction {
        Interval::zero()
    } else {
        // Upper bound: refetches are demand loads of previously-loaded
        // elements, and demand loads only fire at an element's two
        // consuming steps. An eager-claimed element can be evicted
        // before its first consumption (one refetch), and any element
        // whose consumptions fall on different steps can be evicted in
        // between (one more); eager never reloads a seen element and the
        // buffer frees an element permanently once fully consumed, so
        // these are the only reload opportunities.
        let ub = geo.fetch_b
            * (if geo.eager { mp.eager_loadable } else { 0 } + mp.deferred_consumptions) as f64;
        Interval::banded(guaranteed_evictions * geo.fetch_b, ub)
    };

    // Dense vector streams follow the engine's closed form exactly; the
    // pipeline spreads them uniformly over the steps, so per-step f64
    // accumulation drift is the only deviation (covered by the band).
    let vec_reads = wp.fused_vector_reads + geo.feature;
    let vec_writes = wp.fused_vector_writes + geo.feature;
    let vec_total = (vec_reads + vec_writes) * n * 8.0;
    let write_fraction = if vec_reads + vec_writes > 0.0 {
        vec_writes / (vec_reads + vec_writes)
    } else {
        0.0
    };
    let vector = Interval::around(vec_total * (1.0 - write_fraction));
    let writeback = Interval::around(vec_total * write_fraction);

    // Occupancy. Floor: the largest single-step cohort of elements that
    // are provably co-resident (demand-loaded at step s and not IS-
    // consumed before s); any non-empty matrix holds at least one
    // element at its load instant. Ceiling: enforcement leaves at most
    // `budget(s) <= cap` bytes resident at every step boundary, and
    // within a step at most one demand burst (the step's OS + IS
    // cohorts) joins on top; eager loads check headroom before loading
    // and can never push occupancy past the capacity on their own.
    let occupancy = if mp.nnz == 0 {
        Interval::zero()
    } else {
        let floor = geo.elem_b * mp.peak_coresident.max(1) as f64;
        let ceil = (nnz * geo.elem_b).min(geo.cap + geo.elem_b * mp.demand_burst_peak as f64);
        Interval::banded(floor.min(ceil), ceil)
    };

    let traffic = TrafficBounds {
        csc,
        csr_eager,
        refetch,
        vector,
        writeback,
    };
    (traffic, occupancy, no_eviction, thrash)
}

/// Traffic of a closed-form stream: exactly the bytes the engine
/// charges ([`ScheduledPass::stream_bytes`]).
fn stream_bounds(wp: &WorkloadProfile, geo: &Geometry<'_>, pass: &ScheduledPass) -> TrafficBounds {
    let [csc, read, write] = pass
        .stream_bytes(wp, f64::from(geo.mp.n), geo.mp.nnz as f64, geo.fetch_b)
        .charged;
    TrafficBounds {
        csc: Interval::around(csc),
        csr_eager: Interval::zero(),
        refetch: Interval::zero(),
        vector: Interval::around(read),
        writeback: Interval::around(write),
    }
}

/// Bounds one Gustavson (mxm) sweep of the engine's SpGEMM stage
/// (`sparsepipe_core::spgemm`). `share` mirrors the stage's
/// `fused_iterations` parameter: left-operand, write-back, and rider
/// traffic scale by it, while the stationary row-fetch sequence is
/// charged once per sweep (that *is* the cross-iteration sharing).
/// Returns the pass's traffic and occupancy and whether eviction is
/// provably impossible (every touched stationary row fits the residency
/// window together).
fn mxm_pass_bounds(
    wp: &WorkloadProfile,
    geo: &Geometry<'_>,
    share: f64,
) -> (TrafficBounds, Interval, bool) {
    let mp = geo.mp;
    let n = f64::from(mp.n);
    let nnz = mp.nnz as f64;
    let products = mp.spgemm_products as f64;
    let touched = mp.spgemm_touched_elements as f64;
    let riders = wp.ewise_matrix_passes as f64;

    // Stationary first fetches: exactly one demand load per touched
    // element per sweep — independent of `share` and of evictions (the
    // stage classifies post-eviction re-reads separately).
    let csc = Interval::around(touched * geo.fetch_b);

    // The FIFO residency window never evicts if all touched rows fit in
    // its budget together; otherwise every stationary access beyond each
    // element's first fetch can be a post-eviction re-read. Total
    // element accesses equal the product count.
    let budget = geo.cap * RESIDENCY_FRACTION;
    let no_eviction = touched * geo.elem_b <= budget;
    let refetch = if no_eviction {
        Interval::zero()
    } else {
        Interval::banded(0.0, (products - touched).max(0.0) * geo.fetch_b)
    };

    // The product's population is only enveloped: cancellation can
    // annihilate every entry, and at most `products` merges land in the
    // rows with non-zero expansion (at most n columns each).
    let out_cap = products.min(n * f64::from(mp.spgemm_nonempty_out_rows));
    let vector = Interval::banded(
        share * nnz * geo.fetch_b,
        share * (nnz + 2.0 * riders * out_cap) * geo.fetch_b,
    );
    let writeback = Interval::banded(0.0, share * (1.0 + riders) * out_cap * geo.fetch_b);

    // Occupancy: residency-window bytes plus live accumulator columns.
    // The window never holds more than all touched rows, nor — after its
    // eviction loop — more than max(budget, one indivisible row); the
    // accumulator peak is capped by the widest row expansion and by n.
    // Any formed product leaves at least one live column at some step.
    let occupancy = if products > 0.0 {
        let resident_ub =
            (touched * geo.elem_b).min(budget.max(f64::from(mp.max_row_nnz) * geo.elem_b));
        let acc_ub = n.min(mp.spgemm_max_row_expansion as f64) * ACC_BYTES_PER_COL;
        Interval::banded(ACC_BYTES_PER_COL, resident_ub + acc_ub)
    } else {
        Interval::zero()
    };

    let traffic = TrafficBounds {
        csc,
        csr_eager: Interval::zero(),
        refetch,
        vector,
        writeback,
    };
    (traffic, occupancy, no_eviction)
}

/// Output envelope for each operator: dense slot count from the output
/// tensor's kind, populated-element envelope from the operator's
/// semantics (a sparse product can annihilate everything; an e-wise map
/// preserves the slot count but not the population).
fn op_envelopes(program: &SparsepipeProgram, mp: &MatrixProfile) -> Vec<OpEnvelope> {
    let graph = &program.graph;
    let n = f64::from(mp.n);
    let feature = program.profile.feature_dim.max(1) as f64;
    let slots = |kind: TensorKind| match kind {
        TensorKind::Vector => n,
        TensorKind::DenseMatrix => n * feature,
        TensorKind::SparseMatrix => n * n,
        TensorKind::Scalar => 1.0,
    };
    graph
        .ops()
        .map(|(id, op)| {
            let out_kind = graph.tensor(op.output).kind;
            let elements = slots(out_kind);
            let (label, nnz) = match op.kind {
                OpKind::Vxm { .. } => ("vxm", Interval::new(0.0, n)),
                OpKind::Mxv { .. } => ("mxv", Interval::new(0.0, n)),
                OpKind::SpMM { .. } => ("spmm", Interval::new(0.0, elements)),
                // Gustavson fan-out: row i of the product draws from the
                // rows selected by A's row i, so at most nnz(A) · max-row
                // — statically capped by the dense slot count.
                OpKind::Mxm { .. } => ("mxm", Interval::new(0.0, elements)),
                OpKind::DenseMM => ("dense_mm", Interval::new(0.0, elements)),
                OpKind::Reduce { .. } => ("reduce", Interval::new(0.0, 1.0)),
                OpKind::Dot => ("dot", Interval::new(0.0, 1.0)),
                _ => ("ewise", Interval::new(0.0, elements)),
            };
            OpEnvelope {
                op: id,
                output: op.output,
                op_label: label,
                elements,
                nnz,
            }
        })
        .collect()
}

/// Runs the static analysis for `iterations` of `program` over the
/// schedule geometry in `mp`, under `config`.
///
/// The profile must come from the *same* plan the simulator will run:
/// the matrix the simulator is given, at the sub-tensor width
/// `config.subtensor_auto` selects ([`analyze_matrix`] does this).
#[must_use]
pub fn analyze(
    program: &SparsepipeProgram,
    mp: &MatrixProfile,
    config: &SparsepipeConfig,
    iterations: usize,
) -> CostReport {
    let wp = &program.profile;
    let geo = Geometry {
        mp,
        fetch_b: config.fetch_bytes_per_element(),
        elem_b: config.buffer_bytes_per_element(),
        cap: config.buffer_bytes as f64,
        eager: config.eager_csr,
        feature: wp.feature_dim as f64,
    };
    let n = f64::from(mp.n);
    let nnz = mp.nnz as f64;

    // Per-pass bounds, aggregated the way the engine accumulates:
    // per-pass traffic scaled by its repeat count, summed.
    let schedule = Schedule::new(wp, iterations);
    let (mut no_eviction, mut thrash) = (true, None);
    let mut passes: Vec<PassCost> = Vec::new();
    let (mut traffic, mut occupancy) = (TrafficBounds::zero(), Interval::zero());
    for (pass, sp) in (0u32..).zip(&schedule.passes) {
        // Analytic passes run as one step.
        let (pass_traffic, occupancy_bytes, steps) = match sp.kind {
            PassKind::Mxm => {
                let (traffic, occupancy, no_evict) = mxm_pass_bounds(wp, &geo, sp.share);
                no_eviction &= no_evict;
                (traffic, occupancy, mp.steps as u32)
            }
            PassKind::Fused => {
                let (traffic, occupancy, no_evict, thrashes) = fused_pass_bounds(wp, &geo);
                no_eviction &= no_evict;
                thrash = thrash.or(thrashes);
                (traffic, occupancy, mp.steps as u32)
            }
            PassKind::UnfusedTail | PassKind::ClosedForm => {
                (stream_bounds(wp, &geo, sp), Interval::zero(), 1)
            }
        };
        traffic = traffic.add(&pass_traffic.scale(sp.repeats as f64));
        if occupancy_bytes.upper > occupancy.upper {
            occupancy = occupancy_bytes;
        }
        passes.push(PassCost {
            kind: sp.kind,
            pass,
            repeats: sp.repeats,
            steps,
            traffic: pass_traffic,
            occupancy_bytes,
        });
    }

    // Unfused reference: every operator a separate kernel, no
    // cross-iteration sharing. vxm-family sweeps read the matrix image
    // exactly once per pass; an unfused mxm kernel streams the left
    // operand (nnz), demands between `touched` and `products` stationary
    // elements, writes the product, and any e-wise matrix rider streams
    // it again — the product's population is only enveloped, so the
    // reference widens to an interval.
    let out_cap = (mp.spgemm_products as f64).min(n * f64::from(mp.spgemm_nonempty_out_rows));
    let unfused_matrix_per_iter = if wp.mxm_passes > 0 {
        let mxm = wp.mxm_passes as f64;
        let riders = wp.ewise_matrix_passes as f64;
        let vxm_sweeps = (wp.matrix_passes - wp.mxm_passes) as f64 * nnz;
        Interval::banded(
            (vxm_sweeps + mxm * (mp.spgemm_touched_elements as f64 + nnz)) * geo.fetch_b,
            (vxm_sweeps
                + mxm * (mp.spgemm_products as f64 + nnz + out_cap)
                + riders * (2.0 * out_cap + nnz))
                * geo.fetch_b,
        )
    } else {
        Interval::around(wp.matrix_passes as f64 * nnz * geo.fetch_b)
    };
    let unfused_vector_per_iter = (wp.unfused_vector_reads + wp.unfused_vector_writes) * n * 8.0;
    let unfused_total = unfused_matrix_per_iter
        .add(&Interval::around(unfused_vector_per_iter))
        .scale(iterations as f64);

    // Reuse score: guaranteed saving on *stationary* matrix traffic vs
    // unfused execution. For the mxm family the left-operand stream
    // appears identically on both sides, so it is excluded and the score
    // isolates the shared stationary-row fetches.
    let unfused_stationary_lb = if wp.mxm_passes > 0 {
        ((wp.matrix_passes - wp.mxm_passes) as f64 * nnz
            + wp.mxm_passes as f64 * mp.spgemm_touched_elements as f64)
            * geo.fetch_b
    } else {
        wp.matrix_passes as f64 * nnz * geo.fetch_b
    };
    let fused_matrix_ub: f64 = passes
        .iter()
        .map(|p| {
            let per_exec =
                p.traffic.csc.upper + p.traffic.csr_eager.upper + p.traffic.refetch.upper;
            // csc + csr jointly bound nnz·fetch exactly; summing their
            // upper bounds would double-count the swing, so clamp the
            // first-load part to the invariant before adding refetch.
            let first_load_ub = (p.traffic.csc.upper + p.traffic.csr_eager.upper).min(
                if p.kind == PassKind::Fused {
                    nnz * geo.fetch_b * (1.0 + RELATIVE_TOL)
                } else {
                    per_exec
                },
            );
            (first_load_ub + p.traffic.refetch.upper) * p.repeats as f64
        })
        .sum();
    let reuse_score = if wp.has_oei && unfused_stationary_lb > 0.0 {
        (1.0 - fused_matrix_ub / (unfused_stationary_lb * iterations as f64)).clamp(0.0, 1.0)
    } else {
        0.0
    };

    let mut diagnostics = LintReport::new();
    if wp.has_oei && traffic.total().lower >= unfused_total.upper && unfused_total.upper > 0.0 {
        diagnostics.warning(
            "SP-C001",
            None,
            None,
            format!(
                "OEI fusion is legal but statically unprofitable on this matrix: \
                 fused traffic lower bound {:.1} KB >= unfused upper bound {:.1} KB \
                 over {} iteration(s)",
                traffic.total().lower / 1024.0,
                unfused_total.upper / 1024.0,
                iterations,
            ),
        );
    }
    if let Some((step, live, overflow)) = thrash {
        diagnostics.warning(
            "SP-C002",
            None,
            None,
            format!(
                "buffer capacity {} B statically guarantees thrashing: at step {step}, \
                 {live} provably-resident elements exceed the enforcement budget by \
                 {overflow:.0} B, forcing evictions of elements with pending consumers",
                config.buffer_bytes,
            ),
        );
    }
    if wp.mxm_passes > 0 && nnz > 0.0 {
        let expansion_ub = mp.spgemm_products as f64 / nnz;
        let acc_cols = n.min(mp.spgemm_max_row_expansion as f64);
        let acc_bytes = acc_cols * ACC_BYTES_PER_COL;
        let headroom = geo.cap * (1.0 - RESIDENCY_FRACTION);
        if expansion_ub >= 8.0 || acc_bytes > headroom {
            diagnostics.warning(
                "SP-C004",
                None,
                None,
                format!(
                    "Gustavson expansion pressure: the SpGEMM intermediate is up to \
                     {expansion_ub:.1}x the stored non-zeros, and the sparse accumulator \
                     can hold {acc_cols:.0} live columns ({acc_bytes:.0} B against the \
                     {headroom:.0} B outside the residency window); consider masking the \
                     product or reducing the scale"
                ),
            );
        }
    }

    CostReport {
        has_oei: wp.has_oei,
        cross_iteration: wp.cross_iteration,
        iterations,
        n: mp.n,
        nnz: mp.nnz,
        t_cols: mp.t_cols,
        envelopes: op_envelopes(program, mp),
        passes,
        traffic,
        occupancy_bytes: occupancy,
        unfused_traffic_total: unfused_total,
        reuse_score,
        no_eviction_guaranteed: no_eviction,
        thrash_guaranteed: thrash.is_some(),
        diagnostics,
    }
}

/// [`analyze`] for a raw matrix: builds the pass plan at the sub-tensor
/// width the simulator would pick (`config.subtensor_auto`) and derives
/// the [`MatrixProfile`] from it.
///
/// The caller must pass the matrix exactly as the simulator receives it,
/// in the same vertex order.
///
/// # Panics
///
/// Panics if the matrix is not square (OEI plans require square
/// matrices, as does the engine).
#[must_use]
pub fn analyze_matrix(
    program: &SparsepipeProgram,
    matrix: &CooMatrix,
    config: &SparsepipeConfig,
    iterations: usize,
) -> CostReport {
    let t = config.subtensor_auto(matrix.ncols(), matrix.nnz());
    let plan = PassPlan::build(matrix, t);
    analyze(program, &MatrixProfile::build(&plan), config, iterations)
}

/// Matrix-free fusion-profitability advisory (`SP-C003`), run at
/// compile time via [`crate::lint_program`]: warns when OEI fusion
/// *adds* dense-vector traffic relative to unfused execution, because
/// then fusion only pays off above a matrix-density break-even point
/// the compiler cannot check without the matrix.
#[must_use]
pub fn lint_fusion_profile(wp: &WorkloadProfile) -> LintReport {
    let mut report = LintReport::new();
    if !wp.has_oei {
        return report;
    }
    let feature = wp.feature_dim as f64;
    // Iterations covered by one fused sweep.
    let span = OeiClass::of(wp).span();
    let fused_vec_per_iter =
        (wp.fused_vector_reads + wp.fused_vector_writes + 2.0 * feature) / span;
    let unfused_vec_per_iter = wp.unfused_vector_reads + wp.unfused_vector_writes;
    let overhead = fused_vec_per_iter - unfused_vec_per_iter;
    if overhead <= 0.0 {
        return report;
    }
    // Matrix sweeps saved per iteration: unfused runs `matrix_passes`
    // sweeps, fused runs 1/span.
    let sweeps_saved = wp.matrix_passes as f64 - 1.0 / span;
    // overhead · n · 8  <=  sweeps_saved · nnz · fetch   (blocked layout:
    // 10.5 B per element)  ⇔  nnz/n >= overhead · 8 / (sweeps_saved · 10.5)
    let break_even = overhead * 8.0 / (sweeps_saved.max(1e-9) * 10.5);
    report.warning(
        "SP-C003",
        None,
        None,
        format!(
            "OEI fusion streams {overhead:.1} extra n-vector pass(es) per iteration versus \
             unfused execution; statically profitable only when the matrix averages more \
             than {break_even:.1} non-zeros per row (blocked layout)"
        ),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_frontend::{compile, GraphBuilder};
    use sparsepipe_semiring::{EwiseBinary, SemiringOp};
    use sparsepipe_tensor::gen;

    fn pagerank() -> SparsepipeProgram {
        let mut b = GraphBuilder::new();
        let pr = b.input_vector("pr");
        let l = b.constant_matrix("L");
        let y = b.vxm(pr, l, SemiringOp::MulAdd).unwrap();
        let s = b.ewise_scalar(EwiseBinary::Mul, y, 0.85).unwrap();
        let next = b.ewise_scalar(EwiseBinary::Add, s, 0.15).unwrap();
        b.carry(next, pr).unwrap();
        compile(&b.build().unwrap(), 1).unwrap()
    }

    fn report_for(iterations: usize) -> CostReport {
        let program = pagerank();
        let m = gen::power_law(256, 2048, 1.0, 0.4, 7);
        analyze_matrix(&program, &m, &SparsepipeConfig::iso_gpu(), iterations)
    }

    #[test]
    fn interval_arithmetic() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(3.0, 5.0);
        assert_eq!(a.add(&b), Interval::new(4.0, 7.0));
        assert_eq!(a.scale(2.0), Interval::new(2.0, 4.0));
        assert!(a.contains(1.0) && a.contains(2.0) && !a.contains(2.1));
        assert_eq!(Interval::around(0.0), Interval::zero());
        let w = Interval::around(100.0);
        assert!(w.lower < 100.0 && 100.0 < w.upper && w.upper - w.lower < 1e-6);
    }

    #[test]
    fn bounds_are_ordered_and_positive() {
        let r = report_for(20);
        for p in &r.passes {
            for (name, iv) in p.traffic.categories() {
                assert!(iv.lower >= 0.0, "{name} lower negative");
                assert!(iv.lower <= iv.upper, "{name} interval inverted");
            }
            assert!(p.occupancy_bytes.lower <= p.occupancy_bytes.upper);
        }
        let total = r.traffic.total();
        assert!(total.lower > 0.0 && total.lower <= total.upper);
        assert!(r.reuse_score >= 0.0 && r.reuse_score <= 1.0);
        // cross-iteration reuse must show up for PageRank
        assert!(
            r.reuse_score > 0.25,
            "expected substantial matrix-traffic reuse, got {}",
            r.reuse_score
        );
    }

    #[test]
    fn first_load_invariant_links_csc_and_csr() {
        let r = report_for(20);
        let fused = &r.passes[0];
        let fetch = SparsepipeConfig::iso_gpu().fetch_bytes_per_element();
        let matrix_total = r.nnz as f64 * fetch;
        // the two first-load categories jointly cover the matrix exactly
        assert!(fused.traffic.csc.upper <= matrix_total * (1.0 + 2e-9));
        assert!(
            fused.traffic.csc.lower + fused.traffic.csr_eager.upper >= matrix_total * (1.0 - 2e-9)
        );
    }

    #[test]
    fn envelopes_cover_every_op() {
        let program = pagerank();
        let r = report_for(2);
        assert_eq!(r.envelopes.len(), program.graph.ops().count());
        let vxm = &r.envelopes[0];
        assert_eq!(vxm.op_label, "vxm");
        assert_eq!(vxm.elements, f64::from(r.n));
        assert!(vxm.nnz.contains(0.0) && vxm.nnz.contains(f64::from(r.n)));
    }

    #[test]
    fn tiny_buffer_guarantees_thrashing() {
        let program = pagerank();
        let m = gen::uniform(256, 256, 8_192, 11);
        let mut config = SparsepipeConfig::iso_gpu();
        config.buffer_bytes = 256; // a couple dozen elements at most
        let r = analyze_matrix(&program, &m, &config, 8);
        assert!(r.thrash_guaranteed, "dense rows must overflow 256 B");
        assert!(!r.no_eviction_guaranteed);
        assert!(r.diagnostics.has_code("SP-C002"));
        assert!(r.passes[0].traffic.refetch.lower > 0.0);
    }

    #[test]
    fn huge_buffer_guarantees_no_eviction() {
        let program = pagerank();
        let m = gen::power_law(128, 1024, 1.0, 0.4, 3);
        let mut config = SparsepipeConfig::iso_gpu();
        config.buffer_bytes = 64 << 20;
        let r = analyze_matrix(&program, &m, &config, 4);
        assert!(r.no_eviction_guaranteed);
        assert!(!r.thrash_guaranteed);
        assert_eq!(r.passes[0].traffic.refetch, Interval::zero());
        assert!(!r.diagnostics.has_code("SP-C002"));
    }

    #[test]
    fn non_oei_graph_uses_closed_form() {
        // no carry → no OEI
        let mut b = GraphBuilder::new();
        let v = b.input_vector("v");
        let a = b.constant_matrix("A");
        let _ = b.vxm(v, a, SemiringOp::MulAdd).unwrap();
        let program = compile(&b.build().unwrap(), 1).unwrap();
        assert!(!program.profile.has_oei);
        let m = gen::power_law(128, 1024, 1.0, 0.4, 3);
        let r = analyze_matrix(&program, &m, &SparsepipeConfig::iso_gpu(), 6);
        assert_eq!(r.passes.len(), 1);
        assert_eq!(r.passes[0].kind, PassKind::ClosedForm);
        assert_eq!(r.reuse_score, 0.0);
        assert_eq!(r.occupancy_bytes, Interval::zero());
    }

    fn msbfs_like() -> SparsepipeProgram {
        let mut b = GraphBuilder::new();
        let f = b.input_matrix("F");
        let a = b.constant_matrix("A");
        let next = b.mxm(f, a, SemiringOp::AndOr).unwrap();
        b.carry(next, f).unwrap();
        compile(&b.build().unwrap(), 1).unwrap()
    }

    fn tri_like() -> SparsepipeProgram {
        let mut b = GraphBuilder::new();
        let a = b.constant_matrix("A");
        let sq = b.mxm(a, a, SemiringOp::MulAdd).unwrap();
        let _ = b.ewise_matrix(EwiseBinary::Mul, sq, a).unwrap();
        compile(&b.build().unwrap(), 1).unwrap()
    }

    fn assert_brackets(
        program: &SparsepipeProgram,
        m: &CooMatrix,
        config: &SparsepipeConfig,
        iterations: usize,
    ) {
        let outcome = sparsepipe_core::SimRequest::new(program, m)
            .iterations(iterations)
            .config(*config)
            .run()
            .unwrap();
        let r = analyze_matrix(program, m, config, iterations);
        let actual = &outcome.report.traffic;
        for (name, iv, got) in [
            ("csc", r.traffic.csc, actual.csc_bytes),
            ("csr_eager", r.traffic.csr_eager, actual.csr_eager_bytes),
            ("refetch", r.traffic.refetch, actual.refetch_bytes),
            ("vector", r.traffic.vector, actual.vector_bytes),
            ("writeback", r.traffic.writeback, actual.writeback_bytes),
        ] {
            assert!(
                iv.contains(got),
                "{name}: actual {got} outside [{}, {}] ({iterations} iters)",
                iv.lower,
                iv.upper
            );
        }
        assert!(
            r.occupancy_bytes.contains(outcome.report.buffer_peak_bytes),
            "occupancy: actual {} outside [{}, {}]",
            outcome.report.buffer_peak_bytes,
            r.occupancy_bytes.lower,
            r.occupancy_bytes.upper
        );
    }

    #[test]
    fn mxm_bounds_bracket_simulator_actuals() {
        use sparsepipe_core::Preprocessing;
        let m = gen::power_law(256, 2048, 1.0, 0.4, 7);
        let ample = SparsepipeConfig::iso_gpu().with_preprocessing(Preprocessing::none());
        for program in [msbfs_like(), tri_like()] {
            for iters in [8usize, 9] {
                assert_brackets(&program, &m, &ample, iters);
            }
        }
        // A tight residency window exercises the refetch envelope.
        let tight = ample.with_buffer(8 << 10);
        assert_brackets(&msbfs_like(), &m, &tight, 6);
        let r = analyze_matrix(&msbfs_like(), &m, &tight, 6);
        assert!(!r.no_eviction_guaranteed);
        assert!(r.passes[0].traffic.refetch.upper > 0.0);
    }

    #[test]
    fn spc004_flags_expansion_pressure() {
        // Star graph: the hub row fans out to everything and every row
        // feeds the hub, so products ≈ (n-1)² over 2(n-1) stored entries.
        let n = 128u32;
        let mut entries: Vec<(u32, u32, f64)> = (1..n).map(|j| (0, j, 1.0)).collect();
        entries.extend((1..n).map(|k| (k, 0, 1.0)));
        let star = CooMatrix::from_entries(n, n, entries).unwrap();
        let config = SparsepipeConfig::iso_gpu();
        let r = analyze_matrix(&tri_like(), &star, &config, 4);
        assert!(r.diagnostics.has_code("SP-C004"), "{}", r.diagnostics);
        assert!(r.diagnostics.is_clean(), "SP-C004 is advisory");
        // A flat sparse matrix stays quiet…
        let flat = gen::uniform(400, 400, 1200, 3);
        let quiet = analyze_matrix(&msbfs_like(), &flat, &config, 4);
        assert!(
            !quiet.diagnostics.has_code("SP-C004"),
            "{}",
            quiet.diagnostics
        );
        // …and vxm-only programs never emit it.
        let rv = analyze_matrix(&pagerank(), &star, &config, 4);
        assert!(!rv.diagnostics.has_code("SP-C004"));
    }

    #[test]
    fn compile_time_advisory_fires_only_on_vector_overhead() {
        // PageRank's fusion strictly reduces vector traffic: no advisory.
        let clean = lint_fusion_profile(&pagerank().profile);
        assert!(!clean.has_code("SP-C003"), "{clean}");
        // Fabricate a profile where fusion adds vector passes.
        let mut wp = pagerank().profile.clone();
        wp.fused_vector_reads = wp.unfused_vector_reads + 6.0;
        wp.fused_vector_writes = wp.unfused_vector_writes + 6.0;
        let noisy = lint_fusion_profile(&wp);
        assert!(noisy.has_code("SP-C003"), "{noisy}");
        assert!(noisy.is_clean(), "advisories are warnings, not errors");
    }
}
