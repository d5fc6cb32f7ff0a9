//! Sub-tensor dependency analysis and OEI-subgraph detection (§III-A).
//!
//! The paper's generalized STA compute graph (Fig 3c): "For any STA compute
//! graph, if there exists a subgraph that includes both input and output
//! vector of `vxm`, and all operations within the subgraph exhibit
//! sub-tensor dependency, fusing two `vxm` can leverage cross-iteration
//! data reuse."
//!
//! [`analyze`] searches for exactly that subgraph: a path from one matrix
//! operator's output to a matrix operator's input vector (possibly the same
//! operator, reached through a loop-carried edge) where
//!
//! 1. every op on the path has sub-tensor dependency
//!    ([`OpKind::has_subtensor_dependency`](crate::OpKind::has_subtensor_dependency)), **and**
//! 2. no op on the path takes a *side operand* that is itself downstream of
//!    a matrix operator within the iteration — a scalar like CG's `α =
//!    rᵀr / pᵀAp` depends on **every** element of the `vxm` output, which
//!    is what blocks CG and BiCGSTAB from the OEI dataflow (they retain
//!    only producer-consumer reuse, Table III).

use crate::fusion::{self, FusedGroups};
use crate::graph::{DataflowGraph, OpId, TensorId, TensorRole};

/// A detected OEI-fusible subgraph.
#[derive(Debug, Clone, PartialEq)]
pub struct OeiSubgraph {
    /// The matrix operator executed with the Output-Stationary dataflow.
    pub os_op: OpId,
    /// The matrix operator executed with the Input-Stationary dataflow.
    /// May equal [`OeiSubgraph::os_op`] when the fusion spans iterations of
    /// a single-`vxm` loop (PageRank); differs for KNN's two-`vxm` loops.
    pub is_op: OpId,
    /// The sub-tensor-dependency ops on the path from `os_op`'s output to
    /// `is_op`'s vector input, in traversal order (empty for a direct
    /// `vxm → vxm` connection like KNN's).
    pub path: Vec<OpId>,
    /// Whether the path crosses a loop-carried edge — i.e. the two fused
    /// `vxm`s belong to *different* loop iterations.
    pub cross_iteration: bool,
}

/// Full analysis result for a dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// The OEI subgraph, if the application admits the OEI dataflow.
    pub oei: Option<OeiSubgraph>,
    /// E-wise fusion groups (producer-consumer reuse, available even
    /// without OEI).
    pub fused: FusedGroups,
    /// All matrix-touching operators (`vxm`/`SpMM`) in topological order.
    pub matrix_ops: Vec<OpId>,
    /// Tensors downstream of a matrix operator within the iteration
    /// ("tainted": not available until that operator completes... unless
    /// produced elementwise along the OEI path itself).
    pub tainted: Vec<TensorId>,
}

/// Runs e-wise fusion and OEI detection on a graph.
pub fn analyze(g: &DataflowGraph) -> Analysis {
    let fused = fusion::fuse(g);
    let matrix_ops: Vec<OpId> = g
        .topo_order()
        .iter()
        .copied()
        .filter(|&op| g.op(op).kind.touches_matrix())
        .collect();
    let tainted = tainted_tensors(g, &matrix_ops);
    let oei = detect_oei(g, &matrix_ops, &tainted);
    Analysis {
        oei,
        fused,
        matrix_ops,
        tainted,
    }
}

/// Tensors reachable (within one iteration, no carry edges) from any matrix
/// operator's output.
fn tainted_tensors(g: &DataflowGraph, matrix_ops: &[OpId]) -> Vec<TensorId> {
    let mut tainted = vec![false; g.n_tensors()];
    let mut work: Vec<TensorId> = matrix_ops.iter().map(|&op| g.op(op).output).collect();
    for &t in &work {
        tainted[t.0] = true;
    }
    while let Some(t) = work.pop() {
        for consumer in g.consumers(t) {
            let out = g.op(consumer).output;
            if !tainted[out.0] {
                tainted[out.0] = true;
                work.push(out);
            }
        }
    }
    tainted
        .iter()
        .enumerate()
        .filter(|(_, &x)| x)
        .map(|(i, _)| TensorId(i))
        .collect()
}

fn detect_oei(g: &DataflowGraph, matrix_ops: &[OpId], tainted: &[TensorId]) -> Option<OeiSubgraph> {
    let is_tainted = |t: TensorId| tainted.contains(&t);

    // BFS from each matrix op's output along sub-tensor-dependency ops,
    // crossing at most one loop-carried edge. Shortest path wins, so the
    // reported e-wise path is minimal.
    for &os_op in matrix_ops {
        let os_matrix = *g.op(os_op).inputs.get(1)?;
        // Cross-iteration reuse is only real if the shared operand
        // *persists* across the carry: a `Constant` matrix is the same
        // bytes next iteration, whereas an `Input` matrix (Markov
        // clustering's `M` in `mxm(M, M)`) is overwritten by the carry —
        // fusing across it would share fetches of two different
        // matrices. Within-iteration fusion needs no such guard.
        let os_matrix_persists = g.tensor(os_matrix).role == TensorRole::Constant;
        let start = g.op(os_op).output;
        let mut queue: std::collections::VecDeque<(TensorId, bool, Vec<OpId>)> =
            std::collections::VecDeque::new();
        let mut seen: std::collections::HashSet<(TensorId, bool)> =
            std::collections::HashSet::new();
        queue.push_back((start, false, Vec::new()));
        seen.insert((start, false));

        while let Some((t, crossed, path)) = queue.pop_front() {
            // Terminal check: does a matrix op consume `t` as its vector
            // input, over the same shared matrix?
            for consumer in g.consumers(t) {
                let node = g.op(consumer);
                if node.kind.touches_matrix()
                    && node.inputs.first() == Some(&t)
                    && node.inputs.get(1) == Some(&os_matrix)
                    // A same-iteration match must be a *different* op
                    // (an op cannot pipeline with itself in one iteration).
                    && (crossed || consumer != os_op)
                    && (!crossed || os_matrix_persists)
                {
                    return Some(OeiSubgraph {
                        os_op,
                        is_op: consumer,
                        path,
                        cross_iteration: crossed,
                    });
                }
            }

            // Advance through sub-tensor-dependency ops whose side operands
            // are available before the OS vxm completes. An `mxm` whose
            // *stationary* (right) operand is constant also preserves
            // row-wise dependency on its flowing (left) operand — row `i`
            // of `T·W` needs only row `i` of `T` under Gustavson — the
            // same argument that admits `DenseMM` on GCN's path (Fig 5),
            // so a sparse-weight `mxm` may sit on the OEI path. A `vxm`
            // does not qualify (out[c] reduces over the whole vector).
            for consumer in g.consumers(t) {
                let node = g.op(consumer);
                let mxm_row_wise = matches!(node.kind, crate::graph::OpKind::Mxm { .. })
                    && node.inputs.first() == Some(&t)
                    && node
                        .inputs
                        .get(1)
                        .is_some_and(|&m| g.tensor(m).role == TensorRole::Constant);
                if !(node.kind.has_subtensor_dependency() || mxm_row_wise) {
                    continue;
                }
                let side_ok = node.inputs.iter().all(|&input| {
                    input == t
                        || matches!(
                            g.tensor(input).role,
                            TensorRole::Input | TensorRole::Constant
                        )
                        || !is_tainted(input)
                });
                if !side_ok {
                    continue;
                }
                let out = node.output;
                if seen.insert((out, crossed)) {
                    let mut p = path.clone();
                    p.push(consumer);
                    queue.push_back((out, crossed, p));
                }
            }

            // Cross a loop-carried edge (at most once).
            if !crossed {
                if let Some(next_input) = g.carry_target(t) {
                    if seen.insert((next_input, true)) {
                        queue.push_back((next_input, true, path.clone()));
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use sparsepipe_semiring::{EwiseBinary, EwiseUnary, SemiringOp};

    /// PageRank-shaped loop: vxm → scale → add → carry → (same vxm).
    #[test]
    fn pagerank_is_cross_iteration_oei() {
        let mut b = GraphBuilder::new();
        let pr = b.input_vector("pr");
        let l = b.constant_matrix("L");
        let y = b.vxm(pr, l, SemiringOp::MulAdd).unwrap();
        let s = b.ewise_scalar(EwiseBinary::Mul, y, 0.85).unwrap();
        let next = b.ewise_scalar(EwiseBinary::Add, s, 0.15).unwrap();
        // residual fold on the side must not block OEI
        let d = b.ewise(EwiseBinary::AbsDiff, next, pr).unwrap();
        let _res = b.reduce(EwiseBinary::Add, d).unwrap();
        b.carry(next, pr).unwrap();
        let g = b.build().unwrap();

        let a = analyze(&g);
        let oei = a.oei.expect("PageRank must expose OEI");
        assert!(oei.cross_iteration);
        assert_eq!(oei.os_op, oei.is_op);
        assert_eq!(oei.path.len(), 2); // scale, add (absdiff is off-path)
    }

    /// KNN-shaped loop: two vxm in one iteration, vxm1 → vxm2 directly.
    #[test]
    fn knn_two_vxm_is_same_iteration_oei() {
        let mut b = GraphBuilder::new();
        let v = b.input_vector("v");
        let l = b.constant_matrix("A");
        let mid = b.vxm(v, l, SemiringOp::AndOr).unwrap();
        let out = b.vxm(mid, l, SemiringOp::AndOr).unwrap();
        b.carry(out, v).unwrap();
        let g = b.build().unwrap();

        let oei = analyze(&g).oei.expect("KNN must expose OEI");
        assert!(!oei.cross_iteration, "two vxm fuse within one iteration");
        assert!(oei.path.is_empty(), "direct vxm→vxm (\"no-op\") path");
        assert_ne!(oei.os_op, oei.is_op);
    }

    /// CG-shaped loop: the vxm output flows through a dot-derived scalar
    /// broadcast — the scalar depends on all elements, so no OEI.
    #[test]
    fn cg_scalar_gate_blocks_oei() {
        let mut b = GraphBuilder::new();
        let p = b.input_vector("p");
        let r = b.input_vector("r");
        let a = b.constant_matrix("A");
        let q = b.vxm(p, a, SemiringOp::MulAdd).unwrap();
        let pq = b.dot(p, q).unwrap(); // scalar downstream of vxm
        let step = b.ewise_broadcast(EwiseBinary::Mul, q, pq).unwrap();
        let r_next = b.ewise(EwiseBinary::Sub, r, step).unwrap();
        let p_next = b.ewise(EwiseBinary::Add, r_next, p).unwrap();
        b.carry(p_next, p).unwrap();
        b.carry(r_next, r).unwrap();
        let g = b.build().unwrap();

        assert!(analyze(&g).oei.is_none(), "CG must not expose OEI");
    }

    /// A scalar broadcast whose scalar is loop-carried (previous
    /// iteration's value) does NOT block OEI.
    #[test]
    fn carried_scalar_does_not_block() {
        let mut b = GraphBuilder::new();
        let v = b.input_vector("v");
        let alpha = b.input_scalar("alpha"); // from previous iteration
        let l = b.constant_matrix("L");
        let y = b.vxm(v, l, SemiringOp::MulAdd).unwrap();
        let scaled = b.ewise_broadcast(EwiseBinary::Mul, y, alpha).unwrap();
        b.carry(scaled, v).unwrap();
        // new alpha computed from the result (side computation)
        let alpha_next = b.reduce(EwiseBinary::Max, scaled).unwrap();
        b.carry(alpha_next, alpha).unwrap();
        let g = b.build().unwrap();

        let oei = analyze(&g).oei.expect("carried scalar is available");
        assert!(oei.cross_iteration);
    }

    /// GCN-shaped loop: SpMM → DenseMM → ReLU → carry — fusible because
    /// DenseMM preserves row-wise dependency (Fig 5).
    #[test]
    fn gcn_spmm_mm_relu_is_oei() {
        let mut b = GraphBuilder::new();
        let h = b.input_dense("H");
        let adj = b.constant_matrix("A");
        let w = b.constant_dense("W");
        let agg = b.spmm(h, adj, SemiringOp::MulAdd).unwrap();
        let lin = b.dense_mm(agg, w).unwrap();
        let act = b.ewise_unary(EwiseUnary::Relu, lin).unwrap();
        b.carry(act, h).unwrap();
        let g = b.build().unwrap();

        let oei = analyze(&g).oei.expect("GCN must expose OEI");
        assert!(oei.cross_iteration);
        assert_eq!(oei.path.len(), 2); // DenseMM, ReLU
    }

    /// A reduce directly on the path blocks OEI (scalar bottleneck).
    #[test]
    fn reduce_on_path_blocks_oei() {
        let mut b = GraphBuilder::new();
        let v = b.input_vector("v");
        let l = b.constant_matrix("L");
        let y = b.vxm(v, l, SemiringOp::MulAdd).unwrap();
        let norm = b.reduce(EwiseBinary::Add, y).unwrap();
        let scaled = b.ewise_broadcast(EwiseBinary::Div, y, norm).unwrap();
        b.carry(scaled, v).unwrap();
        let g = b.build().unwrap();

        assert!(analyze(&g).oei.is_none());
    }

    /// Two different constant matrices do not fuse (no shared-operand
    /// reuse to exploit).
    #[test]
    fn different_matrices_do_not_fuse() {
        let mut b = GraphBuilder::new();
        let v = b.input_vector("v");
        let l1 = b.constant_matrix("L1");
        let l2 = b.constant_matrix("L2");
        let y = b.vxm(v, l1, SemiringOp::MulAdd).unwrap();
        let z = b.vxm(y, l2, SemiringOp::MulAdd).unwrap();
        b.carry(z, v).unwrap();
        let g = b.build().unwrap();

        // The only candidate pairs are (L1-vxm → L2-vxm) within the
        // iteration — rejected for operand mismatch — and each vxm with
        // itself across the carry; the path from y crosses z's vxm (not
        // sub-tensor), so no OEI at all.
        assert!(analyze(&g).oei.is_none());
    }

    /// The paper's KNN description: "two vxm (or mxv)" — a vxm feeding an
    /// mxv over the same matrix fuses exactly like two vxm.
    #[test]
    fn vxm_mxv_pair_fuses_within_iteration() {
        let mut b = GraphBuilder::new();
        let v = b.input_vector("v");
        let a = b.constant_matrix("A");
        let mid = b.vxm(v, a, SemiringOp::AndOr).unwrap();
        let out = b.mxv(a, mid, SemiringOp::AndOr).unwrap();
        b.carry(out, v).unwrap();
        let g = b.build().unwrap();
        let oei = analyze(&g).oei.expect("vxm→mxv must fuse");
        assert!(!oei.cross_iteration);
        assert_ne!(oei.os_op, oei.is_op);
    }

    /// A single-mxv loop admits cross-iteration OEI just like vxm.
    #[test]
    fn mxv_loop_is_cross_iteration_oei() {
        let mut b = GraphBuilder::new();
        let x = b.input_vector("x");
        let a = b.constant_matrix("A");
        let y = b.mxv(a, x, SemiringOp::MinAdd).unwrap();
        let next = b.ewise(EwiseBinary::Min, x, y).unwrap();
        b.carry(next, x).unwrap();
        let g = b.build().unwrap();
        let oei = analyze(&g).oei.expect("mxv loop must expose OEI");
        assert!(oei.cross_iteration);
    }

    /// A single-`mxm` loop over a constant right operand (multi-source
    /// BFS: `F' = F ⊗⊕ A`, carry `F' → F`) admits cross-iteration OEI
    /// exactly like a single-vxm loop — successive Gustavson sweeps share
    /// the constant `A`'s row fetches.
    #[test]
    fn mxm_loop_over_constant_matrix_is_cross_iteration_oei() {
        let mut b = GraphBuilder::new();
        let f = b.input_matrix("F");
        let a = b.constant_matrix("A");
        let next = b.mxm(f, a, SemiringOp::AndOr).unwrap();
        b.carry(next, f).unwrap();
        let g = b.build().unwrap();
        let oei = analyze(&g).oei.expect("mxm loop must expose OEI");
        assert!(oei.cross_iteration);
        assert_eq!(oei.os_op, oei.is_op);
        assert!(oei.path.is_empty());
    }

    /// Markov clustering's `mxm(M, M)` squares a *carried* matrix: the
    /// shared operand is overwritten every iteration, so cross-iteration
    /// fusion would share fetches of two different matrices — rejected.
    #[test]
    fn mxm_over_carried_matrix_has_no_cross_iteration_oei() {
        let mut b = GraphBuilder::new();
        let m = b.input_matrix("M");
        let sq = b.mxm(m, m, SemiringOp::MulAdd).unwrap();
        let infl = b.ewise_matrix(EwiseBinary::Mul, sq, sq).unwrap();
        b.carry(infl, m).unwrap();
        let g = b.build().unwrap();
        assert!(
            analyze(&g).oei.is_none(),
            "carried shared operand must not claim cross-iteration reuse"
        );
    }

    /// Sparse-weight GCN: `Z = mxm(H, A); H' = mxm(Z, W); carry H' → H`.
    /// The second `mxm`'s stationary operand `W` is constant, so it keeps
    /// row-wise dependency and sits on the OEI path — the two `A`-sweeps
    /// of adjacent iterations fuse.
    #[test]
    fn mxm_with_constant_weights_sits_on_oei_path() {
        let mut b = GraphBuilder::new();
        let h = b.input_matrix("H");
        let a = b.constant_matrix("A");
        let w = b.constant_matrix("W");
        let z = b.mxm(h, a, SemiringOp::MulAdd).unwrap();
        let h2 = b.mxm(z, w, SemiringOp::MulAdd).unwrap();
        b.carry(h2, h).unwrap();
        let g = b.build().unwrap();
        let oei = analyze(&g).oei.expect("sparse-weight GCN must expose OEI");
        assert!(oei.cross_iteration);
        assert_eq!(oei.os_op, oei.is_op, "A-sweep fuses with next A-sweep");
        assert_eq!(oei.path.len(), 1, "the weight mxm is the path");
    }

    /// Triangle counting (`A ⊙ (A·A)`, no carry) is a one-shot pipeline:
    /// producer-consumer reuse only, no OEI.
    #[test]
    fn mxm_without_carry_has_no_oei() {
        let mut b = GraphBuilder::new();
        let a = b.constant_matrix("A");
        let sq = b.mxm(a, a, SemiringOp::MulAdd).unwrap();
        let _masked = b.ewise_matrix(EwiseBinary::Mul, sq, a).unwrap();
        let g = b.build().unwrap();
        assert!(analyze(&g).oei.is_none());
    }

    #[test]
    fn tainted_set_is_downstream_closure() {
        let mut b = GraphBuilder::new();
        let v = b.input_vector("v");
        let l = b.constant_matrix("L");
        let pre = b.ewise_scalar(EwiseBinary::Mul, v, 2.0).unwrap();
        let y = b.vxm(pre, l, SemiringOp::MulAdd).unwrap();
        let post = b.ewise_scalar(EwiseBinary::Add, y, 1.0).unwrap();
        let g = b.build().unwrap();
        let a = analyze(&g);
        assert!(a.tainted.contains(&y));
        assert!(a.tainted.contains(&post));
        assert!(!a.tainted.contains(&pre), "upstream ops are not tainted");
        assert!(!a.tainted.contains(&v));
    }
}
