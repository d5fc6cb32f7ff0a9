//! Sparse-weight graph convolution (`gcnw`): a two-`mxm` GCN layer
//! whose activations *and* weights stay sparse end to end.
//!
//! Inner loop:
//!
//! ```text
//! Z  = H ·(+,×) A     (aggregate: each feature column mixes neighbors)
//! H' = Z ·(+,×) W     (transform: sparse weight matrix)
//! ```
//!
//! Unlike [`crate::gcn`], which streams dense feature vectors through
//! `vxm`, this variant keeps the activation matrix `H` sparse and
//! multiplies it against two *stationary* sparse operands — the
//! adjacency `A` and the pruned weight matrix `W`. Both right-hand
//! operands are loop constants, so consecutive layers admit
//! cross-iteration OEI on each of the two mxm passes.

use sparsepipe_frontend::interp::{Bindings, Value};
use sparsepipe_frontend::GraphBuilder;
use sparsepipe_semiring::SemiringOp;
use sparsepipe_tensor::CooMatrix;

use crate::{Domain, ReusePattern, StaApp};

/// Band width of the deterministic sparse weight matrix.
const WEIGHT_BAND: u32 = 4;

/// Builds the sparse-weight GCN application.
pub fn app(iterations: usize) -> StaApp {
    let mut b = GraphBuilder::new();
    let h = b.input_matrix("H");
    let a = b.constant_matrix("A");
    let w = b.constant_matrix("W");
    let z = b.mxm(h, a, SemiringOp::MulAdd).expect("valid graph");
    let h2 = b.mxm(z, w, SemiringOp::MulAdd).expect("valid graph");
    b.carry(h2, h).expect("valid carry");
    StaApp {
        name: "gcnw",
        semiring: SemiringOp::MulAdd,
        reuse: ReusePattern::CrossIteration,
        domain: Domain::MachineLearning,
        graph: b.build().expect("acyclic"),
        feature_dim: WEIGHT_BAND as usize,
        default_iterations: iterations,
        min_rows: 32,
        bindings_fn: bindings,
    }
}

/// Deterministic pruned weight matrix: a circulant band of width
/// `WEIGHT_BAND` (4) with pseudo-random values in `[-0.5, 0.5)`.
pub fn weight_matrix(n: u32) -> CooMatrix {
    let mut entries = Vec::new();
    for i in 0..n {
        for d in 0..WEIGHT_BAND.min(n) {
            let col = (i + d) % n;
            let h = (u64::from(i) * 2_654_435_761 + u64::from(d) * 97) % 1000;
            entries.push((i, col, h as f64 / 1000.0 - 0.5));
        }
    }
    CooMatrix::from_entries(n, n, entries).expect("band coordinates in range")
}

/// Deterministic initial activations: identity plus a damped
/// superdiagonal, so features start sparse but not diagonal-trivial.
pub fn initial_activations(n: u32) -> CooMatrix {
    let mut entries = Vec::new();
    for i in 0..n {
        entries.push((i, i, 1.0));
        if n > 1 {
            entries.push((i, (i + 1) % n, 0.25));
        }
    }
    CooMatrix::from_entries(n, n, entries).expect("diag coordinates in range")
}

/// Bindings: `H` = initial activations, `A` = the graph, `W` = the
/// deterministic pruned weights.
pub fn bindings(m: &CooMatrix) -> Bindings {
    let n = m.nrows();
    let mut b = Bindings::new();
    b.insert("H".into(), Value::sparse(&initial_activations(n)));
    b.insert("A".into(), Value::sparse(m));
    b.insert("W".into(), Value::sparse(&weight_matrix(n)));
    b
}

/// Scalar reference: dense `H ← (H·A)·W` for `layers` rounds.
pub fn reference(m: &CooMatrix, layers: usize) -> Vec<Vec<f64>> {
    let n = m.nrows() as usize;
    let to_dense = |coo: &CooMatrix| {
        let mut d = vec![vec![0.0f64; n]; n];
        for &(r, c, v) in coo.entries() {
            d[r as usize][c as usize] = v;
        }
        d
    };
    let matmul = |x: &Vec<Vec<f64>>, y: &Vec<Vec<f64>>| {
        let mut out = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for k in 0..n {
                if x[i][k] != 0.0 {
                    for j in 0..n {
                        out[i][j] += x[i][k] * y[k][j];
                    }
                }
            }
        }
        out
    };
    let a = to_dense(m);
    let w = to_dense(&weight_matrix(m.nrows()));
    let mut h = to_dense(&initial_activations(m.nrows()));
    for _ in 0..layers {
        h = matmul(&matmul(&h, &a), &w);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_frontend::interp;
    use sparsepipe_tensor::gen;

    fn dense_of(v: &Value, n: usize) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; n]; n];
        match v {
            Value::Sparse(s) => {
                for &(r, c, x) in s.to_coo().entries() {
                    d[r as usize][c as usize] = x;
                }
            }
            other => panic!("H must stay sparse, got {other:?}"),
        }
        d
    }

    #[test]
    fn interpreter_matches_reference() {
        let m = gen::uniform(48, 48, 192, 33);
        let app = app(2);
        let out = interp::run(&app.graph, &app.bindings(&m), 2).unwrap();
        let got = dense_of(&out["H"], 48);
        let want = reference(&m, 2);
        for i in 0..48 {
            for j in 0..48 {
                assert!(
                    (got[i][j] - want[i][j]).abs() < 1e-9,
                    "H[{i}][{j}]: {} vs {}",
                    got[i][j],
                    want[i][j]
                );
            }
        }
    }

    #[test]
    fn weight_matrix_is_a_fixed_band() {
        let w = weight_matrix(32);
        assert_eq!(w.nnz(), 32 * WEIGHT_BAND as usize);
        for &(r, c, v) in w.entries() {
            let d = (c + 32 - r) % 32;
            assert!(d < WEIGHT_BAND, "entry ({r},{c}) outside the band");
            assert!((-0.5..0.5).contains(&v));
        }
        // Deterministic: two builds agree bitwise.
        assert_eq!(w.entries(), weight_matrix(32).entries());
    }

    #[test]
    fn one_layer_on_identity_adjacency_is_h_times_w() {
        // A = I collapses the aggregate step: H' = H·W exactly.
        let n = 32u32;
        let eye =
            CooMatrix::from_entries(n, n, (0..n).map(|i| (i, i, 1.0)).collect::<Vec<_>>()).unwrap();
        let app = app(1);
        let out = interp::run(&app.graph, &app.bindings(&eye), 1).unwrap();
        let got = dense_of(&out["H"], n as usize);
        let want = reference(&eye, 1);
        for i in 0..n as usize {
            for j in 0..n as usize {
                assert!((got[i][j] - want[i][j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn compiles_with_two_mxm_passes_and_cross_iteration_oei() {
        let program = app(6).compile().unwrap();
        assert!(program.profile.has_oei);
        assert!(program.profile.cross_iteration);
        assert_eq!(program.profile.mxm_passes, 2);
        assert_eq!(program.os_semiring, SemiringOp::MulAdd);
    }
}
