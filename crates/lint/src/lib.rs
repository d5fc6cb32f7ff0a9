//! Static verification for Sparsepipe: a dataflow-graph linter, an
//! independent OEI fusion-legality oracle, and pass-plan feasibility
//! checks.
//!
//! The simulator trusts three artifacts produced upstream of it: the
//! [`DataflowGraph`] IR, the [`Analysis`] (taint + OEI-subgraph detection),
//! and the [`PassPlan`] schedule geometry. This crate verifies each
//! **before** simulation and reports structured [`Diagnostic`]s instead of
//! panicking, so broken inputs surface as named, anchored findings:
//!
//! * [`graph_checks`] (`SP-G…`) — well-formedness: single producers,
//!   acyclicity modulo loop-carried edges, kind-compatible carries, no
//!   dangling ids.
//! * [`shape_checks`] (`SP-S…`) — symbolic shape signatures per operator
//!   and semiring identity probes.
//! * [`oei_oracle`] (`SP-O…`) — re-derives fusion legality (sub-tensor
//!   dependency paths, side-operand taint, ≤1 carry crossing) from
//!   scratch and cross-checks `analysis::analyze`'s answer.
//! * [`plan_checks`] (`SP-P…`) — the [`PassPlan`] working-set-vs-buffer
//!   warning (the plan's structural invariants hold by construction).
//! * [`analysis_cost`] (`SP-C…`) — the static cost & reuse analyzer:
//!   abstract interpretation that brackets DRAM traffic and buffer
//!   occupancy per pass, scores cross-iteration reuse, and warns on
//!   statically-unprofitable fusion or guaranteed thrashing.
//!
//! Every code the crate can emit is listed in [`codes::CATALOG`] and
//! documented in `LINTS.md` at the repository root.
//!
//! The fifth check category — the per-step buffer shadow checker — lives
//! in `sparsepipe_core::invariants`, gated by
//! `SparsepipeConfig::validate`, because it must observe the simulator's
//! live state.
//!
//! # Example
//!
//! ```
//! use sparsepipe_frontend::GraphBuilder;
//! use sparsepipe_semiring::{EwiseBinary, SemiringOp};
//!
//! # fn main() -> Result<(), sparsepipe_frontend::FrontendError> {
//! let mut b = GraphBuilder::new();
//! let pr = b.input_vector("pr");
//! let l = b.constant_matrix("L");
//! let y = b.vxm(pr, l, SemiringOp::MulAdd)?;
//! let next = b.ewise_scalar(EwiseBinary::Mul, y, 0.85)?;
//! b.carry(next, pr)?;
//! let g = b.build()?;
//!
//! let report = sparsepipe_lint::lint_graph(&g);
//! assert!(report.is_clean(), "{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis_cost;
pub mod codes;
pub mod diag;
pub mod einsum_checks;
pub mod graph_checks;
pub mod oei_oracle;
pub mod plan_checks;
pub mod shape_checks;

use sparsepipe_core::{PassPlan, SparsepipeConfig};
use sparsepipe_frontend::analysis::Analysis;
use sparsepipe_frontend::{DataflowGraph, SparsepipeProgram};

pub use diag::{Diagnostic, LintReport, Severity};

/// Lints a graph in isolation: well-formedness (`SP-G`) plus, when the
/// graph's ids all resolve, shape and semiring consistency (`SP-S`).
pub fn lint_graph(g: &DataflowGraph) -> LintReport {
    let mut report = LintReport::new();
    graph_checks::check(g, &mut report);
    // Shape checks dereference ids, so only run them on resolvable graphs.
    if !report.has_code_prefix("SP-G") {
        shape_checks::check(g, &mut report);
    }
    report
}

/// Cross-checks a published [`Analysis`] against the independent OEI
/// oracle (`SP-O`). `g` must be the graph the analysis was derived from
/// and should be `SP-G`-clean.
pub fn lint_analysis(g: &DataflowGraph, analysis: &Analysis) -> LintReport {
    let mut report = LintReport::new();
    oei_oracle::check(g, analysis, &mut report);
    report
}

/// Lints a compiled program: the graph checks, the OEI oracle over the
/// program's embedded analysis, and the matrix-free fusion-profitability
/// advisory (`SP-C003`). This is what `--lint` and app compilation run.
pub fn lint_program(program: &SparsepipeProgram) -> LintReport {
    let mut report = lint_graph(&program.graph);
    if report.has_errors() {
        // A malformed graph makes the analysis meaningless; don't pile
        // oracle disagreements on top.
        return report;
    }
    report.merge(lint_analysis(&program.graph, &program.analysis));
    report.merge(analysis_cost::lint_fusion_profile(&program.profile));
    report
}

/// Checks a [`PassPlan`] against the buffer geometry it will run under
/// (`SP-P`): warns when its peak dense-vector working set overflows the
/// pipeline's half-buffer cap. The plan's structure needs no check — its
/// fields are private and [`PassPlan::build`] is their only writer.
pub fn lint_plan(plan: &PassPlan, config: &SparsepipeConfig, feature_dim: usize) -> LintReport {
    let mut report = LintReport::new();
    plan_checks::check(plan, config, feature_dim, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use sparsepipe_frontend::{compile, GraphBuilder};
    use sparsepipe_semiring::{EwiseBinary, SemiringOp};
    use sparsepipe_tensor::gen;

    use super::*;

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
    fn compiled_program_lints_clean() {
        let report = lint_program(&pagerank_program());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn corrupted_analysis_is_caught_via_program_entry() {
        let mut p = pagerank_program();
        p.analysis.oei = None;
        let report = lint_program(&p);
        assert!(report.has_code("SP-O002"), "{report}");
    }

    #[test]
    fn plan_entry_point_is_clean_on_built_plan() {
        let plan = PassPlan::build(&gen::uniform(64, 64, 300, 3), 8);
        let report = lint_plan(&plan, &SparsepipeConfig::iso_gpu(), 1);
        assert!(report.is_clean(), "{report}");
    }
}
