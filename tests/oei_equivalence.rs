//! Cross-crate integration tests for the central correctness claim of the
//! paper (§III): the OEI dataflow's reordered, partially-computed schedule
//! produces exactly the same values as sequential operator execution —
//! for every application, every semiring, and arbitrary iteration counts.

use sparsepipe::apps::registry;
use sparsepipe::core::{oei::FusedPass, MatrixArena};
use sparsepipe::frontend::interp::{self, Bindings, Value};
use sparsepipe::semiring::SemiringOp;
use sparsepipe::tensor::{gen, DenseVector};

/// Running the interpreter for `k` iterations must equal running it one
/// iteration at a time, re-binding the loop-carried state — i.e. the loop
/// semantics are well-defined and composable for every app.
#[test]
fn iteration_composition_for_all_apps() {
    let m = gen::uniform(40, 40, 240, 77);
    for app in registry::all() {
        let bindings = app.bindings(&m);
        let all_at_once =
            interp::run(&app.graph, &bindings, 3).unwrap_or_else(|e| panic!("{}: {e}", app.name));

        // one iteration at a time, carrying state forward by re-binding
        let mut state = bindings.clone();
        for _ in 0..3 {
            let out =
                interp::run(&app.graph, &state, 1).unwrap_or_else(|e| panic!("{}: {e}", app.name));
            for (id, node) in app.graph.tensors() {
                let _ = id;
                if matches!(node.role, sparsepipe::frontend::TensorRole::Input) {
                    if let Some(v) = out.get(&node.name) {
                        state.insert(node.name.clone(), v.clone());
                    }
                }
            }
        }
        for (id, node) in app.graph.tensors() {
            let _ = id;
            if !matches!(node.role, sparsepipe::frontend::TensorRole::Input) {
                continue;
            }
            let (a, b) = (&all_at_once[&node.name], &state[&node.name]);
            assert_values_close(a, b, &format!("{}:{}", app.name, node.name));
        }
    }
}

fn assert_values_close(a: &Value, b: &Value, ctx: &str) {
    match (a, b) {
        (Value::Vector(x), Value::Vector(y)) => {
            for (p, q) in x.iter().zip(y.iter()) {
                assert!(
                    (p - q).abs() < 1e-9 || (p.is_infinite() && q.is_infinite()),
                    "{ctx}: {p} vs {q}"
                );
            }
        }
        (Value::Scalar(x), Value::Scalar(y)) => {
            assert!((x - y).abs() < 1e-9, "{ctx}: {x} vs {y}");
        }
        (Value::Dense(x), Value::Dense(y)) => {
            for (p, q) in x.as_slice().iter().zip(y.as_slice()) {
                assert!((p - q).abs() < 1e-9, "{ctx}: {p} vs {q}");
            }
        }
        // mxm-family apps carry sparse matrices across iterations
        (Value::Sparse(x), Value::Sparse(y)) => {
            let (cx, cy) = (x.to_coo(), y.to_coo());
            assert_eq!(cx.entries().len(), cy.entries().len(), "{ctx}: nnz differs");
            for (&(r1, c1, v1), &(r2, c2, v2)) in cx.entries().iter().zip(cy.entries()) {
                assert_eq!((r1, c1), (r2, c2), "{ctx}: coordinate drift");
                assert!((v1 - v2).abs() < 1e-9, "{ctx}: ({r1},{c1}): {v1} vs {v2}");
            }
        }
        _ => panic!("{ctx}: kind mismatch"),
    }
}

/// The fused OEI pass equals two sequential interpreter iterations for a
/// PageRank-shaped loop — end to end, through the public API.
#[test]
fn fused_pass_equals_two_interpreter_iterations() {
    let m = gen::power_law(96, 800, 1.0, 0.4, 5);
    let t = sparsepipe::apps::pagerank::transition_matrix(&m);
    let arena = MatrixArena::from_coo(&t);
    let d = sparsepipe::apps::pagerank::DAMPING;
    let x0 = DenseVector::filled(96, 1.0 / 96.0);

    let pass = FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd)
        .run(&x0, |_, v| d * v + 0.15)
        .expect("x0 matches n");
    let after_two: DenseVector = pass.y2.iter().map(|&v| d * v + 0.15).collect();

    let app = sparsepipe::apps::pagerank::app(2);
    let mut bindings = Bindings::new();
    bindings.insert("pr".into(), Value::Vector(x0));
    bindings.insert("L".into(), Value::sparse(&t));
    let out = interp::run(&app.graph, &bindings, 2).expect("bindings complete");
    let expected = out["pr"].as_vector().expect("vector");
    assert!(after_two.max_abs_diff(expected).expect("same length") < 1e-10);
}

/// OEI equivalence holds on every dataset family the harness generates.
#[test]
fn fused_pass_equivalence_across_dataset_families() {
    for (name, m) in [
        ("uniform", gen::uniform(80, 80, 600, 1)),
        ("banded", gen::banded(80, 600, 5, 2)),
        ("power_law", gen::power_law(80, 600, 1.5, 0.3, 3)),
        ("road", gen::road(80, 400, 0.02, 4)),
        ("mesh", gen::mesh2d(9, 0.1, 5)),
    ] {
        let csc = m.to_csc();
        let n = m.nrows() as usize;
        let x: DenseVector = (0..n).map(|i| (i % 5) as f64 * 0.3).collect();
        let out = FusedPass::new(
            &MatrixArena::from_coo(&m),
            SemiringOp::MulAdd,
            SemiringOp::MulAdd,
        )
        .run(&x, |_, v| v * 0.5 + 0.1)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let y1 = csc.vxm::<sparsepipe::semiring::MulAdd>(&x).expect("square");
        let x2: DenseVector = y1.iter().map(|&v| v * 0.5 + 0.1).collect();
        let y2 = csc
            .vxm::<sparsepipe::semiring::MulAdd>(&x2)
            .expect("square");
        for (a, b) in out.y2.iter().zip(y2.iter()) {
            assert!((a - b).abs() < 1e-9, "{name}: {a} vs {b}");
        }
    }
}
