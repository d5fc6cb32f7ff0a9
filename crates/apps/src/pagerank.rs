//! PageRank (`pr`) — Fig 1/2 of the paper.
//!
//! Inner loop (damping `d = 0.85`):
//!
//! ```text
//! pr_next[c]  = d · (prᵀ·L)[c] + (1 − d)/n
//! res         = Σ_c |pr_next[c] − pr[c]|      (convergence residual)
//! swap(pr, pr_next)
//! ```
//!
//! The `vxm → scale → add-teleport → carry` chain is the canonical OEI
//! subgraph: the residual fold hangs off the side and does not block
//! sub-tensor dependency.

use sparsepipe_frontend::interp::{Bindings, Value};
use sparsepipe_frontend::GraphBuilder;
use sparsepipe_semiring::{EwiseBinary, SemiringOp};
use sparsepipe_tensor::{CooMatrix, DenseVector};

use crate::{Domain, ReusePattern, StaApp};

/// Damping factor used throughout.
pub const DAMPING: f64 = 0.85;

/// Teleport mass; the graph uses a fixed small constant because the
/// symbolic graph does not know `n` (bindings normalize accordingly).
const TELEPORT: f64 = 0.15;

/// Builds the PageRank application.
pub fn app(iterations: usize) -> StaApp {
    let mut b = GraphBuilder::new();
    let pr = b.input_vector("pr");
    let l = b.constant_matrix("L");
    let y = b.vxm(pr, l, SemiringOp::MulAdd).expect("valid graph");
    let scaled = b
        .ewise_scalar(EwiseBinary::Mul, y, DAMPING)
        .expect("valid graph");
    let next = b
        .ewise_scalar(EwiseBinary::Add, scaled, TELEPORT)
        .expect("valid graph");
    let diff = b
        .ewise(EwiseBinary::AbsDiff, next, pr)
        .expect("valid graph");
    let _res = b.reduce(EwiseBinary::Add, diff).expect("valid graph");
    b.carry(next, pr).expect("valid carry");
    StaApp {
        name: "pr",
        semiring: SemiringOp::MulAdd,
        reuse: ReusePattern::CrossIteration,
        domain: Domain::GraphAnalytics,
        graph: b.build().expect("acyclic"),
        feature_dim: 1,
        default_iterations: iterations,
        min_rows: 1,
        bindings_fn: bindings,
    }
}

/// Standard bindings: uniform initial rank over the out-degree-normalized
/// transition matrix `L[r][c] = 1/outdeg(r)` (rank mass splits evenly
/// across out-edges, as in the textbook formulation).
pub fn bindings(m: &CooMatrix) -> Bindings {
    let n = m.nrows() as usize;
    let mut b = Bindings::new();
    b.insert(
        "pr".into(),
        Value::Vector(DenseVector::filled(n, 1.0 / n.max(1) as f64)),
    );
    b.insert("L".into(), Value::sparse(&transition_matrix(m)));
    b
}

/// Builds the row-normalized transition matrix (`1/outdeg` weights).
pub fn transition_matrix(m: &CooMatrix) -> CooMatrix {
    let mut outdeg = vec![0usize; m.nrows() as usize];
    for &(r, _, _) in m.entries() {
        outdeg[r as usize] += 1;
    }
    CooMatrix::from_entries(
        m.nrows(),
        m.ncols(),
        m.entries()
            .iter()
            .map(|&(r, c, _)| (r, c, 1.0 / outdeg[r as usize] as f64))
            .collect(),
    )
    .expect("same coordinates")
}

/// Scalar reference implementation (no dataflow machinery): `iterations`
/// steps of `pr' = d·(prᵀL) + (1−d)·teleport-constant` over the same
/// normalized transition matrix as [`bindings`].
pub fn reference(m: &CooMatrix, iterations: usize) -> DenseVector {
    let n = m.nrows() as usize;
    let csc = transition_matrix(m).to_csc();
    let mut pr = DenseVector::filled(n, 1.0 / n.max(1) as f64);
    for _ in 0..iterations {
        let y = csc
            .vxm::<sparsepipe_semiring::MulAdd>(&pr)
            .expect("square matrix");
        pr = y.iter().map(|&v| DAMPING * v + TELEPORT).collect();
    }
    pr
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_frontend::interp;
    use sparsepipe_tensor::gen;

    #[test]
    fn interpreter_matches_reference() {
        let m = gen::power_law(64, 400, 1.0, 0.4, 3);
        let app = app(5);
        let out = interp::run(&app.graph, &app.bindings(&m), 5).unwrap();
        let expected = reference(&m, 5);
        let got = out["pr"].as_vector().unwrap();
        assert!(got.max_abs_diff(&expected).unwrap() < 1e-10);
    }

    #[test]
    fn oei_pass_matches_two_interpreter_iterations() {
        // The OEI functional schedule must equal two sequential
        // iterations — the end-to-end version of the paper's §III claim.
        let m = gen::uniform(48, 48, 300, 9);
        let t = transition_matrix(&m);
        let arena = sparsepipe_core::MatrixArena::from_coo(&t);
        let x0 = DenseVector::filled(48, 1.0 / 48.0);
        let pass =
            sparsepipe_core::oei::FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd)
                .run(&x0, |_, v| DAMPING * v + TELEPORT)
                .unwrap();
        // pass.y2 is the *raw* vxm of iteration 2; apply its e-wise to get
        // the iteration-2 PageRank vector.
        let x3: DenseVector = pass.y2.iter().map(|&v| DAMPING * v + TELEPORT).collect();
        let expected = reference(&m, 2);
        assert!(x3.max_abs_diff(&expected).unwrap() < 1e-10);
    }

    #[test]
    fn residual_shrinks_over_iterations() {
        let m = gen::power_law(128, 1000, 1.0, 0.4, 7);
        let app = app(1);
        // run 1 vs 10 iterations; residual (the reduce output) must drop
        let b = app.bindings(&m);
        let r1 = interp::run(&app.graph, &b, 2).unwrap();
        let r10 = interp::run(&app.graph, &b, 20).unwrap();
        let resid = |out: &Bindings| {
            out.iter()
                .find(|(k, _)| k.starts_with('%'))
                .and_then(|(_, v)| v.as_scalar())
        };
        // find the residual scalar among anonymous outputs
        let res1 = resid(&r1);
        let res10 = resid(&r10);
        if let (Some(a), Some(b)) = (res1, res10) {
            assert!(b <= a, "residual should not grow: {a} -> {b}");
        }
    }

    #[test]
    fn compiles_with_cross_iteration_oei() {
        let program = app(10).compile().unwrap();
        assert!(program.profile.has_oei);
        assert!(program.profile.cross_iteration);
        assert_eq!(program.profile.matrix_passes, 1);
    }
}
