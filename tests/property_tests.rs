//! Property-based tests (proptest) over the workspace's core invariants:
//! format round-trips, semiring laws, OEI schedule equivalence, live-set
//! accounting, and e-wise VM vs. interpreter agreement.

use proptest::prelude::*;
use sparsepipe::core::{oei::FusedPass, MatrixArena};
use sparsepipe::frontend::{fusion, GraphBuilder};
use sparsepipe::semiring::{EwiseBinary, EwiseUnary, SemiringOp};
use sparsepipe::tensor::{livesweep, BlockedDualStorage, CooMatrix, DenseVector};
// the workspace-shared matrix/vector strategies and case-count config
use sparsepipe_testutil::{coo_matrix, vector};

proptest! {
    #![proptest_config(sparsepipe_testutil::config())]

    /// COO → CSR → COO and COO → CSC → COO are lossless.
    #[test]
    fn format_roundtrips(m in coo_matrix(64, 200)) {
        prop_assert_eq!(m.to_csr().to_coo(), m.clone());
        prop_assert_eq!(m.to_csc().to_coo(), m.clone());
        prop_assert_eq!(BlockedDualStorage::from_coo(&m).to_coo(), m);
    }

    /// The transpose of the transpose is the identity, and vxm over A
    /// equals spmv over Aᵀ.
    #[test]
    fn vxm_is_transposed_spmv(m in coo_matrix(48, 150), seed in 0u64..1000) {
        let n = m.nrows() as usize;
        let x: DenseVector = (0..n).map(|i| ((i as u64 * 31 + seed) % 7) as f64 - 3.0).collect();
        let a = m.to_csc().vxm::<sparsepipe::semiring::MulAdd>(&x).expect("square");
        let b = m.transpose().to_csr().spmv::<sparsepipe::semiring::MulAdd>(&x).expect("square");
        for (p, q) in a.iter().zip(b.iter()) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }

    /// Semiring laws on the runtime-dispatch table: ⊕ commutative and
    /// associative, zero is the ⊕-identity and ⊗-annihilator, one is the
    /// ⊗-identity (within each semiring's value domain).
    #[test]
    fn semiring_laws(raw in proptest::collection::vec(-8.0f64..8.0, 3)) {
        for s in SemiringOp::ALL {
            // map values into the semiring's domain
            let v: Vec<f64> = raw
                .iter()
                .map(|&x| if s == SemiringOp::AndOr { ((x > 0.0) as u8) as f64 } else { x })
                .collect();
            let (a, b, c) = (v[0], v[1], v[2]);
            prop_assert_eq!(s.add(a, b), s.add(b, a));
            let l = s.add(s.add(a, b), c);
            let r = s.add(a, s.add(b, c));
            prop_assert!((l - r).abs() < 1e-9 || (l.is_infinite() && r.is_infinite()));
            prop_assert_eq!(s.add(s.zero(), a), a);
            prop_assert_eq!(s.mul(s.one(), a), a);
            prop_assert_eq!(s.mul(s.zero(), a), s.zero());
        }
    }

    /// The OEI fused pass equals sequential execution for random
    /// matrices, random e-wise affine chains, and every semiring pair
    /// drawn from the apps' actual usage.
    #[test]
    fn oei_schedule_equivalence(
        m in coo_matrix(48, 200),
        scale in 0.1f64..2.0,
        shift in -1.0f64..1.0,
    ) {
        let n = m.nrows() as usize;
        let csc = m.to_csc();
        let x: DenseVector = (0..n).map(|i| (i % 5) as f64 * 0.4).collect();
        let ew = |_: usize, v: f64| v * scale + shift;
        let out = FusedPass::new(&MatrixArena::from_coo(&m), SemiringOp::MulAdd, SemiringOp::MulAdd)
            .run(&x, ew)
            .expect("x matches n");
        let y1 = csc.vxm::<sparsepipe::semiring::MulAdd>(&x).expect("square");
        let x2: DenseVector = y1.iter().map(|&v| v * scale + shift).collect();
        let y2 = csc.vxm::<sparsepipe::semiring::MulAdd>(&x2).expect("square");
        for (a, b) in out.y2.iter().zip(y2.iter()) {
            prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
    }

    /// The mechanism-level buffered OEI pass (real dual-storage buffer,
    /// reservations, evictions, refetches) computes exactly the same
    /// values as the idealized element pass — bitwise — at any capacity.
    #[test]
    fn buffered_pass_exact_at_any_capacity(
        m in coo_matrix(64, 300),
        cap_frac in 0.05f64..2.0,
    ) {
        let n = m.nrows() as usize;
        let arena = MatrixArena::from_coo(&m);
        let x: DenseVector = (0..n).map(|i| (i % 4) as f64 * 0.5).collect();
        let ew = |_: usize, v: f64| v * 0.8 + 0.1;
        let pass = || FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd);
        let reference = pass().run(&x, ew).expect("x matches n");
        let cap = ((m.nnz().max(1) * 12) as f64 * cap_frac) as usize + 64;
        let (out, stats) = pass().buffer(cap).run(&x, ew).expect("x matches n");
        for (name, a, b) in [
            ("y1", &out.y1, &reference.y1),
            ("x2", &out.x2, &reference.x2),
            ("y2", &out.y2, &reference.y2),
        ] {
            for (p, q) in a.iter().zip(b.iter()) {
                prop_assert_eq!(p.to_bits(), q.to_bits(), "{}: {} vs {}", name, p, q);
            }
        }
        // traffic envelope: at least one image, at most two
        let image = m.nnz() * 12;
        prop_assert!(stats.fetched_bytes == image);
        prop_assert!(stats.refetch_bytes <= image);
    }

    /// Live-set accounting: the curve's integral equals the sum of the
    /// elements' live windows, and the peak never exceeds nnz.
    #[test]
    fn live_sweep_accounting(m in coo_matrix(64, 250)) {
        let curve = livesweep::live_curve(&m);
        let stats = livesweep::sweep(&m);
        prop_assert!(stats.max_live <= m.nnz());
        let integral: usize = curve.iter().sum();
        let windows: usize = m
            .entries()
            .iter()
            .map(|&(r, c, _)| (r.max(c) - r.min(c) + 1) as usize)
            .sum();
        prop_assert_eq!(integral, windows);
    }

    /// A compiled fused e-wise chain agrees with direct evaluation for a
    /// random chain of immediate ops.
    #[test]
    fn ewise_vm_matches_direct_eval(
        ops in proptest::collection::vec((0usize..5, -2.0f64..2.0), 1..6),
        input in vector(8),
    ) {
        let mut b = GraphBuilder::new();
        let v = b.input_vector("v");
        let mut cur = v;
        for &(which, imm) in &ops {
            cur = match which {
                0 => b.ewise_scalar(EwiseBinary::Add, cur, imm).expect("vector op"),
                1 => b.ewise_scalar(EwiseBinary::Mul, cur, imm).expect("vector op"),
                2 => b.ewise_scalar(EwiseBinary::Max, cur, imm).expect("vector op"),
                3 => b.ewise_unary(EwiseUnary::Abs, cur).expect("vector op"),
                _ => b.ewise_unary(EwiseUnary::Neg, cur).expect("vector op"),
            };
        }
        b.carry(cur, v).expect("vector carry");
        let g = b.build().expect("acyclic");
        let fused = fusion::fuse(&g);
        prop_assert_eq!(fused.n_groups(), 1);
        let (prog, _) = sparsepipe::frontend::ewise_vm::compile_group(&g, &fused.groups[0])
            .expect("compilable");
        let (outs, _) = prog.run(&[input.as_slice()], input.len());

        // direct evaluation
        let mut expect: Vec<f64> = input.as_slice().to_vec();
        for &(which, imm) in &ops {
            for e in &mut expect {
                *e = match which {
                    0 => *e + imm,
                    1 => *e * imm,
                    2 => e.max(imm),
                    3 => e.abs(),
                    _ => -*e,
                };
            }
        }
        for (a, b) in outs[0].iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Symmetric permutation preserves the live-set *multiset of spans*
    /// only in special cases — but it always preserves nnz and degree
    /// multisets, and the simulator must accept any permuted input.
    #[test]
    fn permutation_preserves_structure(m in coo_matrix(32, 120), seed in 0u64..100) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = m.nrows();
        let mut perm: Vec<u32> = (0..n).collect();
        perm.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let p = m.permute_symmetric(&perm);
        prop_assert_eq!(p.nnz(), m.nnz());
        let degs = |mat: &CooMatrix| {
            let csr = mat.to_csr();
            let mut d: Vec<usize> = (0..csr.nrows()).map(|r| csr.row_nnz(r)).collect();
            d.sort_unstable();
            d
        };
        prop_assert_eq!(degs(&p), degs(&m));
    }

    /// MatrixMarket write → read round-trips arbitrary matrices.
    #[test]
    fn matrixmarket_roundtrip(m in coo_matrix(40, 120)) {
        let mut buf = Vec::new();
        sparsepipe::tensor::mm::write(&m, &mut buf).expect("write to vec");
        let back = sparsepipe::tensor::mm::read(buf.as_slice()).expect("read back");
        prop_assert_eq!(back.nrows(), m.nrows());
        prop_assert_eq!(back.nnz(), m.nnz());
        for (a, b) in back.entries().iter().zip(m.entries()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1, b.1);
            prop_assert!((a.2 - b.2).abs() < 1e-12);
        }
    }
}
