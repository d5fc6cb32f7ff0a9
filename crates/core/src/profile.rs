//! Config-independent schedule geometry statistics for static analysis.
//!
//! A [`MatrixProfile`] condenses a [`PassPlan`] into the per-step counts
//! the static cost analyzer (`sparsepipe-lint`'s `analysis_cost` family)
//! needs to bound the simulator's behaviour without running it:
//!
//! * how many elements the eager CSR prefetcher is geometrically *able*
//!   to load ahead of demand (and therefore how far the CSC/CSR traffic
//!   split can swing);
//! * the worst-case resident-element curve, under both the eager and the
//!   demand-only loading disciplines — if it fits the buffer at every
//!   step, the run provably never evicts;
//! * per-step coresidency floors that lower-bound the occupancy peak and
//!   the eviction count under a given capacity.
//!
//! Everything here is a pure function of the plan (matrix × sub-tensor
//! width); buffer capacity, element sizes, and the eager-CSR switch are
//! applied by the analyzer, so one profile serves every configuration.

use crate::pipeline::PREFETCH_LOOKAHEAD_STEPS;
use crate::plan::PassPlan;

/// Schedule geometry statistics derived from one [`PassPlan`].
///
/// All step-indexed vectors have `steps` entries. "Element" means one
/// stored non-zero; multiply counts by the configuration's
/// per-element byte sizes to get bytes. An element's `col_step` is its
/// column divided by `t_cols` (when the OS core consumes it) and its
/// `row_step` is its row divided by `t_cols` (when the IS core does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixProfile {
    /// Matrix dimension (square).
    pub n: u32,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Sub-tensor width the plan was built at.
    pub t_cols: usize,
    /// Pipeline steps per pass.
    pub steps: usize,
    /// Elements the eager CSR loader can geometrically prefetch: there
    /// exists a step `s` with `max(0, row_step - lookahead) <= s` and
    /// `s < min(col_step, row_step)` at which the element is within the
    /// prefetch horizon, ahead of the cursor, and not yet demand-loaded.
    pub eager_loadable: usize,
    /// Elements whose IS consumption follows their OS consumption
    /// (`col_step < row_step`) — an eviction between the two consumptions
    /// forces an IS-side refetch.
    pub refetch_candidates: usize,
    /// Elements whose two consumptions land on different steps
    /// (`col_step != row_step`, either order). Each can suffer at most
    /// one demand refetch between its consumptions; together with one
    /// possible post-eager-eviction reload per eager-loadable element,
    /// this caps the refetch count.
    pub deferred_consumptions: usize,
    /// `max over steps s` of the number of elements with
    /// `col_step == s && row_step >= s`: all of them are provably
    /// resident together at the end of step `s`'s OS phase, so this
    /// floors the buffer occupancy peak.
    pub peak_coresident: usize,
    /// `max over steps s` of the demand burst `|os_elements(s)| +
    /// |is_elements(s)|` — the most elements any single step can load
    /// on top of an already-enforced buffer.
    pub demand_burst_peak: usize,
    /// Per step `s`: elements with `col_step == s && row_step > s`.
    /// They are provably resident when capacity is enforced at the end
    /// of step `s`; if they alone exceed the enforcement budget, some
    /// are certainly evicted and later refetched.
    pub os_live_at_enforce: Vec<usize>,
    /// Per step `s`: worst-case resident elements at the end-of-step
    /// enforcement assuming no prior eviction, with eager prefetch on
    /// (elements join at their earliest possible load step and leave
    /// when fully consumed). If `worst_live_eager[s] * elem_bytes` fits
    /// the enforcement budget at every `s`, no eviction ever happens.
    pub worst_live_eager: Vec<usize>,
    /// Same curve under demand-only loading (eager CSR off): elements
    /// join at their first consuming step, `min(col_step, row_step)`.
    pub worst_live_demand: Vec<usize>,
    /// The plan's dense-vector working set per step, in vector elements
    /// (copied from [`PassPlan::vec_live`]).
    pub vec_live: Vec<usize>,
    /// Scalar products a Gustavson self-product `M ⊕.⊗ M` forms:
    /// `Σ_k col_nnz(k) · row_nnz(k)` — the exact `intermediate_nnz` the
    /// SpGEMM stage reports, and the upper bound on its stationary-row
    /// element accesses.
    pub spgemm_products: u64,
    /// Stationary-row elements the self-product demands at least once:
    /// `Σ_{k : col_nnz(k) > 0} row_nnz(k)`. With an ample residency
    /// window this is *exactly* the SpGEMM stage's demand traffic in
    /// elements; it is always a refetch-free lower bound.
    pub spgemm_touched_elements: u64,
    /// `max_i Σ_{k ∈ row i} row_nnz(k)` — the widest per-row Gustavson
    /// expansion, an upper bound on the stage's peak live accumulator
    /// columns (which also never exceed `n`).
    pub spgemm_max_row_expansion: u64,
    /// Output rows of the self-product that can hold any entry (rows
    /// whose expansion is non-zero); `n · spgemm_nonempty_out_rows`
    /// caps the product's population alongside `spgemm_products`.
    pub spgemm_nonempty_out_rows: u32,
    /// Largest single-row non-zero count — the biggest indivisible unit
    /// the SpGEMM residency window must hold.
    pub max_row_nnz: u32,
}

impl MatrixProfile {
    /// Derives the profile from a plan in `O(nnz + steps)`.
    pub fn build(plan: &PassPlan) -> Self {
        let steps = plan.steps();
        let t = plan.t_cols();
        let (row_ptr, cols) = (plan.row_ptr(), plan.cols());
        let look = PREFETCH_LOOKAHEAD_STEPS;
        let mut eager_loadable = 0usize;
        let mut refetch_candidates = 0usize;
        let mut deferred_consumptions = 0usize;
        let mut coresident = vec![0usize; steps];
        let mut os_live_at_enforce = vec![0usize; steps];
        // Interval deltas for the two worst-case residency curves: an
        // element occupies [first_load_step, full_consumption_step) —
        // it is freed *during* its last consuming step, before that
        // step's capacity enforcement runs.
        let mut delta_eager = vec![0i64; steps + 1];
        let mut delta_demand = vec![0i64; steps + 1];
        for (r, span) in row_ptr.windows(2).enumerate() {
            let rs = r / t;
            for &c in &cols[span[0] as usize..span[1] as usize] {
                let cs = c as usize / t;
                // Eager loads at step `s` require s >= row_step - lookahead
                // (horizon), s < row_step (cursor has moved past earlier
                // rows), and s < col_step (still unloaded): non-empty iff
                // row_step >= 1 and col_step + lookahead > row_step.
                let loadable = rs >= 1 && cs + look > rs;
                if loadable {
                    eager_loadable += 1;
                }
                if cs < rs {
                    refetch_candidates += 1;
                }
                if cs != rs {
                    deferred_consumptions += 1;
                }
                if rs >= cs {
                    coresident[cs] += 1;
                }
                if rs > cs {
                    os_live_at_enforce[cs] += 1;
                }
                // Demand loading pulls the element in at its *first*
                // consuming step (the IS loader demand-loads too, so an
                // element whose row precedes its column joins at
                // `row_step`); eager loading can additionally pull it in up
                // to `lookahead` steps before its IS consumption.
                let freed = cs.max(rs);
                let earliest_demand = cs.min(rs);
                let earliest_eager = if loadable {
                    rs.saturating_sub(look)
                } else {
                    earliest_demand
                };
                if freed > earliest_eager {
                    delta_eager[earliest_eager] += 1;
                    delta_eager[freed] -= 1;
                }
                if freed > earliest_demand {
                    delta_demand[earliest_demand] += 1;
                    delta_demand[freed] -= 1;
                }
            }
        }
        let prefix = |delta: &[i64]| {
            let mut live = 0i64;
            let mut curve = Vec::with_capacity(steps);
            for d in delta.iter().take(steps) {
                live += d;
                curve.push(live.max(0) as usize);
            }
            curve
        };
        let worst_live_eager = prefix(&delta_eager);
        let worst_live_demand = prefix(&delta_demand);

        // SpGEMM statics of the self-product M ⊕.⊗ M, from per-row /
        // per-column populations (O(nnz + n)). These bound the Gustavson
        // stage (`sparsepipe_core::spgemm`) without running it.
        let n_us = plan.n() as usize;
        let row_nnz: Vec<u64> = row_ptr.windows(2).map(|w| u64::from(w[1] - w[0])).collect();
        let mut col_nnz = vec![0u64; n_us];
        for &c in cols {
            col_nnz[c as usize] += 1;
        }
        let mut spgemm_products = 0u64;
        let mut spgemm_touched_elements = 0u64;
        for k in 0..n_us {
            spgemm_products += col_nnz[k] * row_nnz[k];
            if col_nnz[k] > 0 {
                spgemm_touched_elements += row_nnz[k];
            }
        }
        let expansion: Vec<u64> = row_ptr
            .windows(2)
            .map(|w| {
                cols[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(|&c| row_nnz[c as usize])
                    .sum()
            })
            .collect();
        let spgemm_max_row_expansion = expansion.iter().copied().max().unwrap_or(0);
        let spgemm_nonempty_out_rows = expansion.iter().filter(|&&x| x > 0).count() as u32;
        let max_row_nnz = row_nnz.iter().copied().max().unwrap_or(0) as u32;
        let demand_burst_peak = (0..steps)
            .map(|s| plan.os_elements(s).len() + plan.is_elements(s).len())
            .max()
            .unwrap_or(0);
        MatrixProfile {
            n: plan.n(),
            nnz: plan.nnz(),
            t_cols: t,
            steps,
            eager_loadable,
            refetch_candidates,
            deferred_consumptions,
            peak_coresident: coresident.iter().copied().max().unwrap_or(0),
            demand_burst_peak,
            os_live_at_enforce,
            worst_live_eager,
            worst_live_demand,
            vec_live: plan.vec_live().to_vec(),
            spgemm_products,
            spgemm_touched_elements,
            spgemm_max_row_expansion,
            spgemm_nonempty_out_rows,
            max_row_nnz,
        }
    }

    /// Approximate heap footprint of this profile, for cache accounting.
    pub fn heap_bytes(&self) -> u64 {
        ((self.os_live_at_enforce.len()
            + self.worst_live_eager.len()
            + self.worst_live_demand.len()
            + self.vec_live.len())
            * std::mem::size_of::<usize>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_tensor::gen;

    #[test]
    fn counts_are_consistent() {
        let m = gen::uniform(200, 200, 2_000, 7);
        let plan = PassPlan::build(&m, 8);
        let p = MatrixProfile::build(&plan);
        assert_eq!(p.steps, plan.steps());
        assert!(p.eager_loadable <= p.nnz);
        assert!(p.refetch_candidates <= p.deferred_consumptions);
        assert!(p.deferred_consumptions <= p.nnz);
        assert!(p.peak_coresident <= p.nnz);
        assert!(
            p.peak_coresident >= 1,
            "some element has row_step >= col_step"
        );
        // the worst-case curves never exceed nnz and eager >= demand
        for s in 0..p.steps {
            assert!(p.worst_live_eager[s] <= p.nnz);
            assert!(
                p.worst_live_eager[s] >= p.worst_live_demand[s],
                "eager loading can only widen residency at step {s}"
            );
            assert!(p.os_live_at_enforce[s] <= p.worst_live_demand[s].max(1));
        }
    }

    #[test]
    fn diagonal_matrix_has_no_refetch_candidates() {
        // On a diagonal matrix col_step == row_step for every element:
        // nothing can be refetched, nothing outlives its own step.
        let entries: Vec<(u32, u32, f64)> = (0..64).map(|i| (i, i, 1.0)).collect();
        let m = sparsepipe_tensor::CooMatrix::from_entries(64, 64, entries).unwrap();
        let plan = PassPlan::build(&m, 4);
        let p = MatrixProfile::build(&plan);
        assert_eq!(p.refetch_candidates, 0);
        assert_eq!(p.deferred_consumptions, 0);
        assert!(p.os_live_at_enforce.iter().all(|&c| c == 0));
        assert!(p.worst_live_demand.iter().all(|&c| c == 0));
    }

    #[test]
    fn spgemm_statics_on_a_path_graph() {
        // 0→1→2: one product (row 0 expands through row 1), one touched
        // stationary element, expansion peak 1, one non-empty output row.
        let entries = vec![(0u32, 1u32, 1.0), (1, 2, 1.0)];
        let m = sparsepipe_tensor::CooMatrix::from_entries(3, 3, entries).unwrap();
        let plan = PassPlan::build(&m, 1);
        let p = MatrixProfile::build(&plan);
        assert_eq!(p.spgemm_products, 1);
        assert_eq!(p.spgemm_touched_elements, 1);
        assert_eq!(p.spgemm_max_row_expansion, 1);
        assert_eq!(p.spgemm_nonempty_out_rows, 1);
        assert_eq!(p.max_row_nnz, 1);
    }

    #[test]
    fn spgemm_statics_match_the_stage() {
        use sparsepipe_semiring::SemiringOp;
        let m = gen::power_law(300, 2400, 1.0, 0.4, 5);
        let plan = PassPlan::build(&m, 16);
        let p = MatrixProfile::build(&plan);
        let arena = crate::MatrixArena::from_coo(&m);
        let outcome = crate::MxmRequest::new(
            &arena,
            SemiringOp::MulAdd,
            &crate::SparsepipeConfig::iso_gpu(),
        )
        .run();
        assert_eq!(p.spgemm_products, outcome.stats.intermediate_nnz);
        assert!(u64::from(outcome.stats.peak_accumulator_cols) <= p.spgemm_max_row_expansion);
        assert!(outcome.stats.out_nnz <= p.spgemm_products);
        assert!(
            outcome.stats.out_nnz <= u64::from(p.spgemm_nonempty_out_rows) * u64::from(p.n),
            "population cap violated"
        );
        assert!(p.spgemm_touched_elements <= p.spgemm_products);
        assert!(p.spgemm_touched_elements <= p.nnz as u64);
    }

    #[test]
    fn lower_triangle_defers_is_consumption() {
        // Strictly lower-triangular: every element has row > col, so with
        // a 1-wide sub-tensor every element is a refetch candidate.
        let entries: Vec<(u32, u32, f64)> = (1..64).map(|i| (i, i - 1, 1.0)).collect();
        let m = sparsepipe_tensor::CooMatrix::from_entries(64, 64, entries).unwrap();
        let plan = PassPlan::build(&m, 1);
        let p = MatrixProfile::build(&plan);
        assert_eq!(p.refetch_candidates, p.nnz);
        assert!(p.peak_coresident >= 1);
    }
}
