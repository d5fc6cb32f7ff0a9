//! The analyzer and the engine read one pass schedule: for every
//! scheduling class and a spread of iteration counts, the passes of
//! `Schedule::new` are the passes `analyze_matrix` bounds and the passes
//! a traced simulation emits, and the schedule's notes are the text the
//! engine has always printed.

use sparsepipe_core::schedule::{PassKind, Schedule};
use sparsepipe_core::{SimRequest, SparsepipeConfig};
use sparsepipe_frontend::{compile, GraphBuilder, SparsepipeProgram};
use sparsepipe_lint::analysis_cost::analyze_matrix;
use sparsepipe_semiring::{EwiseBinary, SemiringOp};
use sparsepipe_tensor::gen;
use sparsepipe_trace::{replay_passes, MemorySink};

/// PageRank-shaped loop: cross-iteration OEI.
fn cross_iteration_vxm() -> SparsepipeProgram {
    let mut b = GraphBuilder::new();
    let pr = b.input_vector("pr");
    let l = b.constant_matrix("L");
    let y = b.vxm(pr, l, SemiringOp::MulAdd).unwrap();
    let s = b.ewise_scalar(EwiseBinary::Mul, y, 0.85).unwrap();
    let next = b.ewise_scalar(EwiseBinary::Add, s, 0.15).unwrap();
    b.carry(next, pr).unwrap();
    compile(&b.build().unwrap(), 1).unwrap()
}

/// KNN-shaped loop: two vxms fused within one iteration.
fn within_iteration_vxm() -> SparsepipeProgram {
    let mut b = GraphBuilder::new();
    let v = b.input_vector("v");
    let a = b.constant_matrix("A");
    let mid = b.vxm(v, a, SemiringOp::AndOr).unwrap();
    let out = b.vxm(mid, a, SemiringOp::AndOr).unwrap();
    b.carry(out, v).unwrap();
    compile(&b.build().unwrap(), 1).unwrap()
}

/// Carry-less single vxm: no OEI, closed-form stream.
fn no_oei() -> SparsepipeProgram {
    let mut b = GraphBuilder::new();
    let v = b.input_vector("v");
    let a = b.constant_matrix("A");
    let _ = b.vxm(v, a, SemiringOp::MulAdd).unwrap();
    compile(&b.build().unwrap(), 1).unwrap()
}

/// Multi-source-BFS shape: a carried frontier advanced by `mxm`.
fn mxm_with_carry() -> SparsepipeProgram {
    let mut b = GraphBuilder::new();
    let f = b.input_matrix("F");
    let a = b.constant_matrix("A");
    let next = b.mxm(f, a, SemiringOp::AndOr).unwrap();
    b.carry(next, f).unwrap();
    compile(&b.build().unwrap(), 1).unwrap()
}

/// Triangle-counting shape: `A ⊙ (A·A)` with no loop carry.
fn mxm_without_carry() -> SparsepipeProgram {
    let mut b = GraphBuilder::new();
    let a = b.constant_matrix("A");
    let sq = b.mxm(a, a, SemiringOp::MulAdd).unwrap();
    let _ = b.ewise_matrix(EwiseBinary::Mul, sq, a).unwrap();
    compile(&b.build().unwrap(), 1).unwrap()
}

const FUSED_TAIL: &str = "odd iteration count: trailing iteration runs unfused at roofline";
const MXM_TAIL: &str = "odd iteration count: trailing iteration's mxm sweep runs unfused";

/// The notes the engine printed for each program and iteration count
/// before the schedule became typed data, verbatim.
fn pinned_notes(program: &str, iterations: usize) -> Vec<&'static str> {
    match (program, iterations) {
        ("cross", 1) => vec![
            "cross-iteration OEI: 0 fused pass(es), each covering 2 iterations",
            FUSED_TAIL,
        ],
        ("cross", 2) => vec!["cross-iteration OEI: 1 fused pass(es), each covering 2 iterations"],
        ("cross", 9) => vec![
            "cross-iteration OEI: 4 fused pass(es), each covering 2 iterations",
            FUSED_TAIL,
        ],
        ("cross", 20) => {
            vec!["cross-iteration OEI: 10 fused pass(es), each covering 2 iterations"]
        }
        ("cross", 21) => vec![
            "cross-iteration OEI: 10 fused pass(es), each covering 2 iterations",
            FUSED_TAIL,
        ],
        ("within", 1) => {
            vec!["within-iteration OEI: 1 pass(es), both matrix operators on one sweep"]
        }
        ("within", 2) => {
            vec!["within-iteration OEI: 2 pass(es), both matrix operators on one sweep"]
        }
        ("within", 9) => {
            vec!["within-iteration OEI: 9 pass(es), both matrix operators on one sweep"]
        }
        ("within", 20) => {
            vec!["within-iteration OEI: 20 pass(es), both matrix operators on one sweep"]
        }
        ("within", 21) => {
            vec!["within-iteration OEI: 21 pass(es), both matrix operators on one sweep"]
        }
        ("none", 1) => vec!["no OEI: 1 sequential iteration(s), producer-consumer fusion only"],
        ("none", 2) => vec!["no OEI: 2 sequential iteration(s), producer-consumer fusion only"],
        ("none", 9) => vec!["no OEI: 9 sequential iteration(s), producer-consumer fusion only"],
        ("none", 20) => vec!["no OEI: 20 sequential iteration(s), producer-consumer fusion only"],
        ("none", 21) => vec!["no OEI: 21 sequential iteration(s), producer-consumer fusion only"],
        ("mxm-carry", 1) => vec![
            "cross-iteration OEI across mxm: 0 fused unit(s), each covering 2 iterations",
            MXM_TAIL,
        ],
        ("mxm-carry", 2) => {
            vec!["cross-iteration OEI across mxm: 1 fused unit(s), each covering 2 iterations"]
        }
        ("mxm-carry", 9) => vec![
            "cross-iteration OEI across mxm: 4 fused unit(s), each covering 2 iterations",
            MXM_TAIL,
        ],
        ("mxm-carry", 20) => {
            vec!["cross-iteration OEI across mxm: 10 fused unit(s), each covering 2 iterations"]
        }
        ("mxm-carry", 21) => vec![
            "cross-iteration OEI across mxm: 10 fused unit(s), each covering 2 iterations",
            MXM_TAIL,
        ],
        ("mxm-nocarry", 1) => {
            vec!["mxm family without cross-iteration reuse: 1 row-wise sweep(s) per mxm pass"]
        }
        ("mxm-nocarry", 2) => {
            vec!["mxm family without cross-iteration reuse: 2 row-wise sweep(s) per mxm pass"]
        }
        ("mxm-nocarry", 9) => {
            vec!["mxm family without cross-iteration reuse: 9 row-wise sweep(s) per mxm pass"]
        }
        ("mxm-nocarry", 20) => {
            vec!["mxm family without cross-iteration reuse: 20 row-wise sweep(s) per mxm pass"]
        }
        ("mxm-nocarry", 21) => {
            vec!["mxm family without cross-iteration reuse: 21 row-wise sweep(s) per mxm pass"]
        }
        _ => unreachable!("no pinned notes for {program} at {iterations}"),
    }
}

#[test]
fn analyzer_and_engine_read_one_schedule() {
    let m = gen::power_law(256, 2048, 1.0, 0.4, 7);
    let config = SparsepipeConfig::iso_gpu();
    let programs = [
        ("cross", cross_iteration_vxm()),
        ("within", within_iteration_vxm()),
        ("none", no_oei()),
        ("mxm-carry", mxm_with_carry()),
        ("mxm-nocarry", mxm_without_carry()),
    ];
    for (name, program) in &programs {
        for iterations in [1usize, 2, 9, 20, 21] {
            let context = format!("{name} @ {iterations}");
            let schedule = Schedule::new(&program.profile, iterations);
            let scheduled: Vec<(PassKind, u32, u64)> = (0u32..)
                .zip(&schedule.passes)
                .map(|(ordinal, p)| (p.kind, ordinal, p.repeats))
                .collect();

            let cost = analyze_matrix(program, &m, &config, iterations);
            let analyzed: Vec<(PassKind, u32, u64)> = cost
                .passes
                .iter()
                .map(|p| (p.kind, p.pass, p.repeats))
                .collect();
            assert_eq!(analyzed, scheduled, "[{context}] analyzer passes");

            let mut sink = MemorySink::new();
            let outcome = SimRequest::new(program, &m)
                .iterations(iterations)
                .config(config)
                .trace(&mut sink)
                .run()
                .unwrap();
            let traced: Vec<u64> = replay_passes(sink.events())
                .iter()
                .map(|p| p.repeats)
                .collect();
            let repeats: Vec<u64> = schedule.passes.iter().map(|p| p.repeats).collect();
            assert_eq!(traced, repeats, "[{context}] traced pass repeats");
            assert_eq!(outcome.schedule, schedule, "[{context}] engine schedule");

            assert_eq!(
                outcome.schedule.notes(),
                pinned_notes(name, iterations),
                "[{context}] notes"
            );

            // Two-iteration sharing halves the stationary fetches exactly.
            if *name == "mxm-carry" && iterations % 2 == 0 {
                assert!(
                    (cost.reuse_score - 0.5).abs() < 1e-6,
                    "[{context}] expected ~0.5 reuse, got {}",
                    cost.reuse_score
                );
            }
        }
    }
}
