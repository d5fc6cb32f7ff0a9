//! Pass-plan feasibility checks (`SP-P…`).
//!
//! A [`PassPlan`] is the simulator's schedule geometry for one OEI pass.
//! Its fields are private and only `PassPlan::build` writes them, so its
//! structural invariants (the grouped `csc_order` permutation, IS ranges
//! tiling `0..nnz`, one `vec_live` entry per step) hold by construction
//! and are unit-tested on the builder's output; the six rules that
//! re-checked them (SP-P001–SP-P006) are retired. What remains is a
//! property of the plan *under a configuration*:
//!
//! | code | finding |
//! |---|---|
//! | SP-P007 | peak vector working set exceeds the pipeline's 50% buffer cap (warning: the run degrades to a capped vector window) |

use sparsepipe_core::{PassPlan, SparsepipeConfig};

use crate::diag::LintReport;

/// Runs every `SP-P` check on `plan`, appending findings to `report`.
///
/// `config` and `feature_dim` size the SP-P007 working-set warning the same
/// way the pipeline sizes its vector reservation (8 bytes × feature dim per
/// live element, capped at half the buffer).
pub fn check(
    plan: &PassPlan,
    config: &SparsepipeConfig,
    feature_dim: usize,
    report: &mut LintReport,
) {
    // The pipeline reserves vec_live[s] * 8 * feature_dim bytes for dense
    // vectors, capped at half the buffer; beyond the cap the vector window
    // spills and matrix residency shrinks. Surface that as a warning so
    // "mysteriously high traffic" has a named cause.
    let peak_elems = plan.vec_live().iter().copied().max().unwrap_or(0);
    let peak_bytes = peak_elems as f64 * 8.0 * feature_dim.max(1) as f64;
    let cap = config.buffer_bytes as f64 * 0.5;
    if peak_bytes > cap {
        report.warning(
            "SP-P007",
            None,
            None,
            format!(
                "peak dense-vector working set ({:.1} KB at feature dim {}) exceeds half \
                 the {:.1} KB buffer — the run degrades to a capped vector window",
                peak_bytes / 1024.0,
                feature_dim.max(1),
                config.buffer_bytes as f64 / 1024.0
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use sparsepipe_tensor::gen;

    use super::*;

    fn plan() -> PassPlan {
        PassPlan::build(&gen::uniform(100, 100, 600, 7), 8)
    }

    #[test]
    fn built_plan_is_clean() {
        let mut r = LintReport::new();
        check(&plan(), &SparsepipeConfig::iso_gpu(), 1, &mut r);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0);
    }

    #[test]
    fn oversized_working_set_is_sp_p007_warning() {
        let p = plan();
        let tiny = SparsepipeConfig::iso_gpu().with_buffer(1024);
        let mut r = LintReport::new();
        check(&p, &tiny, 64, &mut r);
        assert!(r.has_code("SP-P007"), "{r}");
        assert!(r.is_clean(), "SP-P007 is a warning");
    }
}
