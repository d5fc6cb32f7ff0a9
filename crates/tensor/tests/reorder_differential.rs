//! Differential suite: the bucketed-queue `graph_order`, the
//! counting-sort `vanilla_triangular` adjacency and the counting-sort
//! `permute_symmetric` must be bitwise equal to the reference
//! implementations in `sparsepipe_testutil::reorder_oracle`.

use std::panic::catch_unwind;

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sparsepipe_tensor::{reorder, CooMatrix, MatrixId};
use sparsepipe_testutil::{coo_matrix, corpus, reorder_oracle as oracle};

/// The GraphOrder windows every case is checked at; `usize::MAX` stands
/// for "window ≥ n", where no vertex ever leaves the window.
const WINDOWS: [usize; 5] = [1, 2, 8, 64, usize::MAX];

fn assert_same_matrix(got: &CooMatrix, want: &CooMatrix, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}: shape"
    );
    assert_eq!(got.nnz(), want.nnz(), "{what}: nnz");
    for (i, (g, w)) in got.entries().iter().zip(want.entries()).enumerate() {
        assert!(
            g.0 == w.0 && g.1 == w.1 && g.2.to_bits() == w.2.to_bits(),
            "{what}: entry {i} is {g:?}, oracle has {w:?}"
        );
    }
}

/// Checks every reordering and the permutations they produce against
/// the oracles, at every window in `windows`.
fn check(m: &CooMatrix, windows: &[usize], what: &str) {
    let csr = m.to_csr();
    for &window in windows {
        assert_eq!(
            reorder::graph_order(&csr, window),
            oracle::graph_order(&csr, window),
            "{what}: graph_order at window {window}"
        );
    }
    for sweeps in [1, 3] {
        assert_eq!(
            reorder::vanilla_triangular(&csr, sweeps),
            oracle::vanilla_triangular(&csr, sweeps),
            "{what}: vanilla_triangular with {sweeps} sweeps"
        );
    }
    let n = m.nrows();
    let mut shuffled = reorder::identity(n);
    shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(u64::from(n)));
    let perms = [
        reorder::graph_order(&csr, 64),
        reorder::vanilla_triangular(&csr, 3),
        shuffled,
        (0..n).rev().collect(),
    ];
    for perm in &perms {
        assert_same_matrix(
            &m.permute_symmetric(perm),
            &oracle::permute_symmetric(m, perm),
            &format!("{what}: permute_symmetric"),
        );
    }
}

fn matrix(n: u32, entries: Vec<(u32, u32, f64)>) -> CooMatrix {
    CooMatrix::from_entries(n, n, entries).expect("coordinates in range")
}

/// Directed edges of a clique over `members`, weighted by position.
fn clique(members: &[u32]) -> Vec<(u32, u32, f64)> {
    let mut entries = Vec::new();
    for &a in members {
        for &b in members {
            if a != b {
                entries.push((a, b, f64::from(a) + 0.25 * f64::from(b)));
            }
        }
    }
    entries
}

proptest! {
    #![proptest_config(sparsepipe_testutil::config())]

    #[test]
    fn random_matrices_match_oracle(m in coo_matrix(80, 400)) {
        check(&m, &WINDOWS, "proptest");
    }
}

#[test]
fn edge_case_suite_matches_oracle() {
    for scale in [4, 16, 64] {
        for (name, m) in corpus::edge_case_suite(scale) {
            if m.nrows() == m.ncols() {
                check(&m, &WINDOWS, &format!("{name}@{scale}"));
                continue;
            }
            // Square-only consumers refuse the rectangular entry, as the
            // oracles do.
            let csr = m.to_csr();
            assert!(catch_unwind(|| reorder::graph_order(&csr, 8)).is_err());
            assert!(catch_unwind(|| oracle::graph_order(&csr, 8)).is_err());
            assert!(catch_unwind(|| reorder::vanilla_triangular(&csr, 2)).is_err());
            let perm = reorder::identity(m.nrows());
            assert!(catch_unwind(|| m.permute_symmetric(&perm)).is_err());
        }
    }
}

#[test]
fn table1_matrices_match_oracle_at_scale_256() {
    for id in MatrixId::ALL {
        let m = id.spec().generate(256);
        check(&m, &WINDOWS, &format!("{}@256", id.code()));
    }
}

#[test]
fn hand_built_cases_match_oracle() {
    let cases = [
        ("empty_0x0", CooMatrix::new(0, 0)),
        ("empty_5x5", CooMatrix::new(5, 5)),
        ("single_vertex", CooMatrix::new(1, 1)),
        ("single_self_loop", matrix(1, vec![(0, 0, 2.5)])),
        (
            "self_loops_only",
            matrix(12, (0..12).map(|i| (i, i, f64::from(i) - 5.5)).collect()),
        ),
        (
            // Repeated triplets merge, and both edge directions present
            // give the adjacency duplicate neighbors to drop.
            "duplicate_triplets",
            matrix(
                6,
                vec![
                    (0, 1, 1.0),
                    (0, 1, 2.0),
                    (1, 0, 0.5),
                    (2, 3, -1.0),
                    (3, 2, 1.0),
                    (3, 2, 1.0),
                    (4, 4, 3.0),
                    (5, 0, 0.0),
                    (0, 5, -0.0),
                ],
            ),
        ),
        (
            "disconnected_cliques",
            matrix(30, {
                let mut e = clique(&(0..30).step_by(3).collect::<Vec<_>>());
                e.extend(clique(&(1..30).step_by(3).collect::<Vec<_>>()));
                e.extend(clique(&(2..30).step_by(3).collect::<Vec<_>>()));
                e
            }),
        ),
        (
            // The hub (last index) ties every clique member on degree and
            // loses on index, so it stays unplaced while its score climbs
            // to, and sits at, the window's bound.
            "star_hub_saturates",
            matrix(41, {
                let members: Vec<u32> = (0..40).collect();
                let mut e = clique(&members);
                for &v in &members {
                    e.push((40, v, 1.0));
                    e.push((v, 40, 1.0));
                }
                e
            }),
        ),
        (
            "plain_star",
            matrix(
                33,
                (1..33).flat_map(|v| [(0, v, 1.0), (v, 0, 2.0)]).collect(),
            ),
        ),
    ];
    for (name, m) in &cases {
        check(m, &WINDOWS, name);
    }
}
