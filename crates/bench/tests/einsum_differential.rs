//! Differential conformance suite for the sparse-einsum front door.
//!
//! Every expression in the committed corpus (`crates/bench/corpus.ses`)
//! is compiled through the front door and executed two independent ways,
//! which must agree **bitwise**:
//!
//! 1. The scalar reference interpreter ([`sparsepipe_frontend::interp`])
//!    run twice — the oracle must be deterministic to the bit.
//! 2. The engine kernels the simulator models — the fused OEI pass for
//!    `vxm`/`mxv`/`SpMM` operands and the [`MxmRequest`] SpGEMM engine
//!    for self-product `mxm`s — each checked against the corresponding
//!    interpreter operator at scale `n = 256`.
//!
//! On top of the per-operator checks, the corpus lines that mirror
//! registry applications (`pr`, `gcnw`) are swapped into the hand-built
//! [`StaApp`]s graph-for-graph and pushed through the full
//! [`EvalRequest`] pipeline: the resulting [`Entry`] must be
//! byte-identical (via `PartialEq` *and* its serialized JSON) to the
//! registry app's. Host wall-clock telemetry is excluded — it is the
//! one legitimately nondeterministic field.
//!
//! [`Entry`]: sparsepipe_bench::sweep::Entry

use sparsepipe_apps::{registry, StaApp};
use sparsepipe_bench::datasets::DatasetSpec;
use sparsepipe_bench::einsum_corpus;
use sparsepipe_bench::sweep::EvalRequest;
use sparsepipe_core::{oei::FusedPass, MatrixArena, MxmRequest, SparsepipeConfig};
use sparsepipe_frontend::einsum;
use sparsepipe_frontend::interp::{self, Bindings, Value};
use sparsepipe_frontend::{DataflowGraph, OpKind, TensorId, TensorRole};
use sparsepipe_semiring::SemiringOp;
use sparsepipe_tensor::{CooMatrix, CscMatrix, DenseVector, MatrixId};
use sparsepipe_testutil::corpus;

/// Conformance scale from the issue: a 256-row power-law input.
const N: u32 = 256;

fn dataset_matrix() -> CooMatrix {
    corpus::power_law(N, 2048, 1.2, 0.4, 11)
}

/// Flattens a runtime value to comparable bit patterns (structure
/// included, so a moved coordinate can never alias an equal value).
fn value_bits(v: &Value) -> Vec<u64> {
    match v {
        Value::Scalar(s) => vec![s.to_bits()],
        Value::Vector(x) => x.iter().map(|v| v.to_bits()).collect(),
        Value::Dense(d) => d.as_slice().iter().map(|v| v.to_bits()).collect(),
        Value::Sparse(m) => m
            .iter()
            .flat_map(|(r, c, v)| [u64::from(r), u64::from(c), v.to_bits()])
            .collect(),
    }
}

fn vec_bits(x: &DenseVector) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Resolves an operand's runtime value the way the interpreter saw it
/// during the first iteration: produced tensors from the interpreter's
/// output, inputs and constants from the original bindings (the
/// interpreter's returned bindings are *post-carry*, so carried inputs
/// already hold next-iteration values there).
fn value_of<'a>(
    graph: &DataflowGraph,
    out1: &'a Bindings,
    bindings: &'a Bindings,
    id: TensorId,
) -> &'a Value {
    let node = graph.tensor(id);
    let env = match node.role {
        TensorRole::Produced => out1,
        TensorRole::Input | TensorRole::Constant => bindings,
    };
    env.get(&node.name)
        .unwrap_or_else(|| panic!("tensor {} has no bound value", node.name))
}

fn sparse_of<'a>(
    graph: &DataflowGraph,
    out1: &'a Bindings,
    bindings: &'a Bindings,
    id: TensorId,
) -> &'a CscMatrix {
    match value_of(graph, out1, bindings, id) {
        Value::Sparse(m) => m,
        other => panic!("expected a sparse matrix, got {other:?}"),
    }
}

fn vector_of<'a>(
    graph: &DataflowGraph,
    out1: &'a Bindings,
    bindings: &'a Bindings,
    id: TensorId,
) -> &'a DenseVector {
    value_of(graph, out1, bindings, id)
        .as_vector()
        .expect("expected a vector operand")
}

/// `y1` of a fused OEI pass with an identity e-wise stage is exactly the
/// OS-core `vxm` the simulator models.
fn engine_vxm(m: &CscMatrix, x: &DenseVector, sr: SemiringOp) -> DenseVector {
    FusedPass::new(&MatrixArena::from_parts(m, &m.to_csr()), sr, sr)
        .run(x, |_, v| v)
        .expect("operand length matches")
        .y1
}

/// The corpus pins every expression to parse, lower, and interpret, and
/// pins the interpreter oracle itself to be bitwise deterministic across
/// runs at the expression's full iteration count.
#[test]
fn corpus_interprets_deterministically_at_scale_256() {
    let matrix = dataset_matrix();
    for e in einsum_corpus::bundled() {
        let lowered =
            einsum::compile_expression(&e.source).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let bindings = einsum::bindings_for(&lowered.graph, &matrix, lowered.feature_dim);
        let a = interp::run(&lowered.graph, &bindings, lowered.iterations)
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let b = interp::run(&lowered.graph, &bindings, lowered.iterations)
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let mut names: Vec<&String> = a.keys().collect();
        names.sort();
        assert_eq!(names.len(), b.len(), "{}: binding sets differ", e.name);
        for name in names {
            assert_eq!(
                value_bits(&a[name]),
                value_bits(&b[name]),
                "{}: tensor {} is not bitwise deterministic",
                e.name,
                name
            );
        }
    }
}

/// Every matrix-touching operator of every corpus expression, replayed
/// on the engine-side kernel the simulator charges for it, agrees
/// bitwise with the interpreter oracle.
#[test]
fn engine_kernels_match_the_interpreter_bitwise() {
    let matrix = dataset_matrix();
    let cfg = SparsepipeConfig::iso_gpu();
    let (mut vxm, mut mxv, mut spmm, mut mxm) = (0usize, 0usize, 0usize, 0usize);

    for e in einsum_corpus::bundled() {
        let lowered =
            einsum::compile_expression(&e.source).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let graph = &lowered.graph;
        let bindings = einsum::bindings_for(graph, &matrix, lowered.feature_dim);
        // One iteration: per-op engine checks compare against exactly the
        // values each op consumed, before any carry rebinds the inputs.
        let out1 =
            interp::run(graph, &bindings, 1).unwrap_or_else(|err| panic!("{}: {err}", e.name));

        for (_, op) in graph.ops() {
            let out_name = &graph.tensor(op.output).name;
            let ctx = |what: &str| format!("{}: {what} into {out_name}", e.name);
            match op.kind {
                OpKind::Vxm { semiring } => {
                    let x = vector_of(graph, &out1, &bindings, op.inputs[0]);
                    let m = sparse_of(graph, &out1, &bindings, op.inputs[1]);
                    let eng = engine_vxm(m, x, semiring);
                    let oracle = out1[out_name].as_vector().expect("vxm output");
                    assert_eq!(vec_bits(&eng), vec_bits(oracle), "{}", ctx("vxm"));
                    vxm += 1;
                }
                OpKind::Mxv { semiring } => {
                    // The engine runs mxv as vxm over the transpose; with
                    // a commutative multiply (all corpus mxv semirings)
                    // the per-row accumulation order is identical, so the
                    // result must still be bitwise equal.
                    let x = vector_of(graph, &out1, &bindings, op.inputs[0]);
                    let m = sparse_of(graph, &out1, &bindings, op.inputs[1]);
                    let entries: Vec<(u32, u32, f64)> =
                        m.iter().map(|(r, c, v)| (c, r, v)).collect();
                    let mt = CooMatrix::from_entries(m.ncols(), m.nrows(), entries)
                        .expect("transposed coordinates stay in range")
                        .to_csc();
                    let eng = engine_vxm(&mt, x, semiring);
                    let oracle = out1[out_name].as_vector().expect("mxv output");
                    assert_eq!(vec_bits(&eng), vec_bits(oracle), "{}", ctx("mxv"));
                    mxv += 1;
                }
                OpKind::SpMM { semiring } => {
                    let h = value_of(graph, &out1, &bindings, op.inputs[0])
                        .as_dense()
                        .expect("spmm activations");
                    let m = sparse_of(graph, &out1, &bindings, op.inputs[1]);
                    let oracle = out1[out_name].as_dense().expect("spmm output");
                    for j in 0..h.ncols() {
                        let col: DenseVector = (0..h.nrows()).map(|r| h.get(r, j)).collect();
                        let eng = engine_vxm(m, &col, semiring);
                        let want: Vec<u64> = (0..oracle.nrows())
                            .map(|r| oracle.get(r, j).to_bits())
                            .collect();
                        assert_eq!(vec_bits(&eng), want, "{} (feature column {j})", ctx("spmm"));
                    }
                    spmm += 1;
                }
                OpKind::Mxm { semiring } if op.inputs[0] == op.inputs[1] => {
                    // Self-products (A·A) run on the SpGEMM engine from a
                    // single arena — the path the simulator charges.
                    let m = sparse_of(graph, &out1, &bindings, op.inputs[0]);
                    let arena = MatrixArena::from_parts(m, &m.to_csr());
                    let outcome = MxmRequest::new(&arena, semiring, &cfg).run();
                    let oracle = sparse_of(graph, &out1, &bindings, op.output);
                    let eng = outcome.result.to_csc();
                    assert_eq!(eng.col_ptr(), oracle.col_ptr(), "{}", ctx("mxm"));
                    assert_eq!(eng.row_idx(), oracle.row_idx(), "{}", ctx("mxm"));
                    let eng_bits: Vec<u64> = eng.vals().iter().map(|v| v.to_bits()).collect();
                    let want_bits: Vec<u64> = oracle.vals().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(eng_bits, want_bits, "{}", ctx("mxm"));
                    mxm += 1;
                }
                _ => {}
            }
        }
    }

    // The corpus promises coverage: vxm chains, both mxv semirings, both
    // SpMM apps, and at least three mxm-bearing expressions (issue
    // acceptance criterion).
    assert!(vxm >= 12, "only {vxm} vxm ops checked");
    assert!(mxv >= 2, "only {mxv} mxv ops checked");
    assert!(spmm >= 2, "only {spmm} spmm ops checked");
    assert!(mxm >= 3, "only {mxm} self-product mxm ops checked");
}

/// Runs the registry app and its compiled-expression twin through the
/// full evaluation pipeline and demands byte-identical results on every
/// deterministic field.
fn assert_outcomes_match(name: &str, check_schedule: bool) {
    let entries = einsum_corpus::bundled();
    let entry = entries
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("corpus has no `{name}` expression"));
    let lowered = einsum::compile_expression(&entry.source).expect(name);
    let app = registry::by_name(name).expect("registry app");
    let compiled = StaApp {
        graph: lowered.graph,
        ..app.clone()
    };

    let dataset = DatasetSpec::new(MatrixId::Ca, 64).load().unwrap();
    let hand = EvalRequest::new(&app, &dataset, 64).run().expect(name);
    let front = EvalRequest::new(&compiled, &dataset, 64).run().expect(name);

    assert_eq!(
        hand.evaluation.entry, front.evaluation.entry,
        "{name}: compiled expression diverges from the hand-built app"
    );
    // Byte-for-byte: the serialized entries are the artifact the sweep
    // journals and golden snapshots persist.
    let hand_json = serde_json::to_string(&hand.evaluation.entry).expect("serialize");
    let front_json = serde_json::to_string(&front.evaluation.entry).expect("serialize");
    assert_eq!(hand_json, front_json, "{name}: serialized entries differ");
    if check_schedule {
        assert_eq!(
            hand.evaluation.schedule, front.evaluation.schedule,
            "{name}: schedules differ"
        );
    }
    assert_eq!(
        format!("{:?}", hand.evaluation.mxm),
        format!("{:?}", front.evaluation.mxm),
        "{name}: SpGEMM statistics differ"
    );
}

/// The corpus `pr` line reproduces the registry PageRank app's
/// `EvalOutcome` byte for byte (issue acceptance criterion).
#[test]
fn compiled_pagerank_reproduces_the_registry_outcome_byte_for_byte() {
    assert_outcomes_match("pr", true);
}

/// The corpus `gcnw` line (SpGEMM-bearing GCN) reproduces the registry
/// app's outcome too. Its lowered graph allocates tensor ids in source
/// order rather than the registry's builder order, so this additionally
/// pins that evaluation depends only on dataflow structure.
#[test]
fn compiled_gcnw_reproduces_the_registry_outcome() {
    assert_outcomes_match("gcnw", true);
}
