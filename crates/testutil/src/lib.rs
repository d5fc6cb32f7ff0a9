//! Shared test utilities for the Sparsepipe workspace.
//!
//! Every crate's property suites previously carried their own copies of
//! the same COO-matrix strategy and hard-coded proptest case counts.
//! This crate centralizes them:
//!
//! * [`config`] / [`config_with`] — the workspace-wide proptest
//!   configuration, overridable via the `PROPTEST_CASES` environment
//!   variable (CI bumps it without touching source);
//! * [`coo_matrix`] / [`coo_matrix_positive`] / [`vector`] — the shared
//!   proptest strategies for random square sparse matrices and dense
//!   vectors;
//! * [`corpus`] — seeded, deterministic matrix builders (banded,
//!   power-law, uniform, block-diagonal, empty-row/col edge cases) and
//!   an [`edge_case_suite`](corpus::edge_case_suite) bundling the
//!   structures that historically break buffer models;
//! * [`reorder_oracle`] — the reference GraphOrder / vanilla reorderings
//!   and symmetric permutation the production kernels are checked
//!   against bit for bit;
//! * [`mm_oracle`] — the reference `lines()`-based MatrixMarket reader
//!   the byte-level tokenizer is checked against bit for bit;
//! * [`spgemm_oracle`] — the original Gustavson loops (tensor kernel and
//!   mxm stage, with their quadratic duplicate-column scan) the shared
//!   SPA kernel is checked against bit for bit;
//! * [`dualbuffer_oracle`] — the pre-arena `BTreeMap` dual buffer and
//!   its pass driver, the oracle the arena-backed buffer is checked
//!   against bit for bit;
//! * [`benchjson`] — a tiny flat-JSON recorder for `BENCH_*.json`
//!   telemetry files (the vendored `serde_json` stand-in cannot parse,
//!   so merging is done with a purpose-built top-level scanner).

#![forbid(unsafe_code)]

use proptest::prelude::*;
use sparsepipe_tensor::{CooMatrix, DenseVector};

/// The workspace-wide default number of proptest cases per property.
pub const DEFAULT_CASES: u32 = 64;

/// The proptest configuration shared by every suite: [`DEFAULT_CASES`]
/// cases, overridable by setting the `PROPTEST_CASES` environment
/// variable to a positive integer.
pub fn config() -> ProptestConfig {
    config_with(DEFAULT_CASES)
}

/// Like [`config`], but with a per-suite default other than
/// [`DEFAULT_CASES`] (e.g. the differential harness defaults to 256).
/// `PROPTEST_CASES` still overrides the default when set.
pub fn config_with(default_cases: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

/// SplitMix64: a tiny, dependency-free deterministic generator shared by
/// the seeded builders ([`corpus`], [`einsum`]) that are not backed by
/// proptest strategies.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0);
        (self.next() % u64::from(bound)) as u32
    }

    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

fn coo_matrix_with_values(
    max_n: u32,
    max_nnz: usize,
    values: std::ops::Range<f64>,
) -> impl Strategy<Value = CooMatrix> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, values.clone()), 0..max_nnz).prop_map(
            move |entries| CooMatrix::from_entries(n, n, entries).expect("coords in range"),
        )
    })
}

/// Strategy: a random square COO matrix with up to `max_nnz` raw entries
/// (duplicates merge by addition), dimension in `2..max_n`, and values in
/// `-4.0..4.0`.
pub fn coo_matrix(max_n: u32, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    coo_matrix_with_values(max_n, max_nnz, -4.0..4.0)
}

/// Like [`coo_matrix`], but with strictly positive values in `0.1..4.0`
/// so that duplicate entries can never cancel to zero.
pub fn coo_matrix_positive(max_n: u32, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    coo_matrix_with_values(max_n, max_nnz, 0.1..4.0)
}

/// Strategy: a dense vector of length `n` with values in `-4.0..4.0`.
pub fn vector(n: usize) -> impl Strategy<Value = DenseVector> {
    proptest::collection::vec(-4.0f64..4.0, n).prop_map(DenseVector::from)
}

pub mod corpus {
    //! Seeded, deterministic sparse-matrix builders shared by tests and
    //! benches. The `banded`/`power_law`/`uniform`/`locality_mix`
    //! wrappers delegate to [`sparsepipe_tensor::gen`] so existing seeds
    //! keep producing bit-identical matrices; `block_diagonal` and
    //! `with_empty_rows_and_cols` cover structures the generators lack.

    use sparsepipe_tensor::{gen, CooMatrix};

    use crate::SplitMix64;

    /// A banded matrix: see [`gen::banded`].
    pub fn banded(n: u32, nnz: usize, bandwidth: u32, seed: u64) -> CooMatrix {
        gen::banded(n, nnz, bandwidth, seed)
    }

    /// A power-law (scale-free) matrix: see [`gen::power_law`].
    pub fn power_law(n: u32, nnz: usize, skew: f64, locality: f64, seed: u64) -> CooMatrix {
        gen::power_law(n, nnz, skew, locality, seed)
    }

    /// A uniformly random square matrix: see [`gen::uniform`].
    pub fn uniform(n: u32, nnz: usize, seed: u64) -> CooMatrix {
        gen::uniform(n, n, nnz, seed)
    }

    /// A locality-mix matrix: see [`gen::locality_mix`].
    pub fn locality_mix(n: u32, nnz: usize, mix: gen::LocalityMix, seed: u64) -> CooMatrix {
        gen::locality_mix(n, nnz, mix, seed)
    }

    /// A block-diagonal matrix: `n.div_ceil(block)` square blocks of
    /// side `block` along the diagonal, populated with up to `nnz`
    /// entries (duplicates merge). Exercises perfectly clustered reuse —
    /// the best case for the dual buffer's CSR window.
    pub fn block_diagonal(n: u32, block: u32, nnz: usize, seed: u64) -> CooMatrix {
        assert!(n > 0 && block > 0, "block_diagonal needs n > 0, block > 0");
        let mut rng = SplitMix64::new(seed ^ 0xb10c_d1a6_0000_0000);
        let nblocks = n.div_ceil(block);
        let mut entries = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let base = rng.below(nblocks) * block;
            let extent = block.min(n - base);
            let r = base + rng.below(extent);
            let c = base + rng.below(extent);
            entries.push((r, c, 0.1 + 3.9 * rng.unit_f64()));
        }
        CooMatrix::from_entries(n, n, entries).expect("coords in range")
    }

    /// A uniformly random matrix in which every index `i` with
    /// `i % 4 == 3` has a completely empty row *and* column. Exercises
    /// the empty-slice paths of CSR/CSC iteration and buffer residency.
    pub fn with_empty_rows_and_cols(n: u32, nnz: usize, seed: u64) -> CooMatrix {
        assert!(n > 0, "with_empty_rows_and_cols needs n > 0");
        let live: Vec<u32> = (0..n).filter(|i| i % 4 != 3).collect();
        assert!(!live.is_empty(), "no live indices at n = {n}");
        let mut rng = SplitMix64::new(seed ^ 0x0e3b_2070_0000_0000);
        let pick = |rng: &mut SplitMix64| live[rng.below(live.len() as u32) as usize];
        let mut entries = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let r = pick(&mut rng);
            let c = pick(&mut rng);
            entries.push((r, c, 0.1 + 3.9 * rng.unit_f64()));
        }
        CooMatrix::from_entries(n, n, entries).expect("coords in range")
    }

    /// A triangle-heavy symmetric boolean adjacency matrix: `n / 3`
    /// seeded 3-cliques (each contributing all six directed edges) plus
    /// `extra` random symmetric off-diagonal edges, every value exactly
    /// `1.0`. The clique structure guarantees a dense triangle
    /// population for `tri`'s `A ⊙ (A·A)` count and gives Gustavson
    /// accumulators real collision pressure (clique rows repeatedly
    /// merge the same columns).
    pub fn triangle_heavy(n: u32, extra: usize, seed: u64) -> CooMatrix {
        assert!(n >= 3, "triangle_heavy needs n >= 3");
        let mut rng = SplitMix64::new(seed ^ 0x7214_a61e_0000_0000);
        let mut entries = Vec::new();
        let edge = |a: u32, b: u32, entries: &mut Vec<(u32, u32, f64)>| {
            if a != b {
                entries.push((a, b, 1.0));
                entries.push((b, a, 1.0));
            }
        };
        for _ in 0..n / 3 {
            let a = rng.below(n);
            let b = rng.below(n);
            let c = rng.below(n);
            edge(a, b, &mut entries);
            edge(b, c, &mut entries);
            edge(a, c, &mut entries);
        }
        for _ in 0..extra {
            let a = rng.below(n);
            let b = rng.below(n);
            edge(a, b, &mut entries);
        }
        // duplicate edges collapse to boolean 1.0 rather than summing
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        entries.dedup_by_key(|&mut (r, c, _)| (r, c));
        CooMatrix::from_entries(n, n, entries).expect("coords in range")
    }

    /// A square matrix whose *row* lengths follow a Zipf-like power law
    /// (columns uniform): a handful of hub rows hold most of the
    /// non-zeros. As the stationary (B-side) operand of an SpGEMM this
    /// is the worst case for per-row expansion — any A-column hitting a
    /// hub row fans out across its whole length — so it stresses the
    /// accumulator-occupancy model and the analyzer's expansion bounds.
    pub fn power_law_rows(n: u32, nnz: usize, skew: f64, seed: u64) -> CooMatrix {
        assert!(n > 0, "power_law_rows needs n > 0");
        assert!(skew > 0.0, "power_law_rows needs skew > 0");
        let mut rng = SplitMix64::new(seed ^ 0x12a9_0e77_0000_0000);
        let mut entries = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            // u^(1+skew) concentrates mass near row 0: the larger the
            // skew, the heavier the hub rows.
            let u = rng.unit_f64();
            let r = ((f64::from(n) * u.powf(1.0 + skew)) as u32).min(n - 1);
            let c = rng.below(n);
            entries.push((r, c, 0.1 + 3.9 * rng.unit_f64()));
        }
        CooMatrix::from_entries(n, n, entries).expect("coords in range")
    }

    /// A uniformly random square *boolean* adjacency matrix: `nnz`
    /// off-diagonal entries, every value exactly `1.0` (duplicates
    /// collapse, not sum). This is the shape the mxm app family's
    /// `AndOr`/counting semirings consume, and — unlike the float
    /// builders — products of its entries are exactly representable, so
    /// differential suites can demand bitwise equality without
    /// tolerance.
    pub fn boolean_adjacency(n: u32, nnz: usize, seed: u64) -> CooMatrix {
        assert!(n >= 2, "boolean_adjacency needs n >= 2");
        let mut rng = SplitMix64::new(seed ^ 0xb001_ea4d_0000_0000);
        let mut entries = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let r = rng.below(n);
            let c = rng.below(n);
            if r != c {
                entries.push((r, c, 1.0));
            }
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        entries.dedup_by_key(|&mut (r, c, _)| (r, c));
        CooMatrix::from_entries(n, n, entries).expect("coords in range")
    }

    /// A **rectangular** `nrows × ncols` matrix in which every odd row is
    /// completely empty: the non-zeros land only on even rows, columns
    /// uniform. Square-only code paths (the OEI dual-buffer pass, SpGEMM
    /// self-products, `MatrixArena`) must *reject* this shape rather than
    /// mis-index it, and rectangular-capable paths must cope with the
    /// empty row slices.
    pub fn zero_rows_rect(nrows: u32, ncols: u32, nnz: usize, seed: u64) -> CooMatrix {
        assert!(
            nrows >= 2 && ncols > 0,
            "zero_rows_rect needs nrows >= 2, ncols > 0"
        );
        let mut rng = SplitMix64::new(seed ^ 0x2e40_0b0c_0000_0000);
        let even_rows = nrows.div_ceil(2);
        let mut entries = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let r = rng.below(even_rows) * 2;
            let c = rng.below(ncols);
            entries.push((r, c, 0.1 + 3.9 * rng.unit_f64()));
        }
        CooMatrix::from_entries(nrows, ncols, entries).expect("coords in range")
    }

    /// The named edge-case structures that historically break sparse
    /// buffer models, square of dimension `scale`: empty matrix,
    /// pure diagonal, pure anti-diagonal (worst-case reuse distance), a
    /// dense first row + column (hub), plus seeded banded / power-law /
    /// block-diagonal / empty-row-col instances and the SpGEMM pattern
    /// trio (triangle-heavy, power-law rows, boolean adjacency) — plus
    /// one deliberately **rectangular** `scale × scale/2` entry
    /// (`zero_rows_rect`) whose odd rows are all zero, so square-only
    /// consumers must prove they reject it instead of silently
    /// mis-indexing.
    pub fn edge_case_suite(scale: u32) -> Vec<(&'static str, CooMatrix)> {
        assert!(scale >= 4, "edge_case_suite needs scale >= 4");
        let n = scale;
        let nnz = (n as usize) * 4;
        let diag: Vec<(u32, u32, f64)> = (0..n).map(|i| (i, i, 1.0 + f64::from(i))).collect();
        let anti: Vec<(u32, u32, f64)> =
            (0..n).map(|i| (i, n - 1 - i, 0.5 + f64::from(i))).collect();
        let mut hub: Vec<(u32, u32, f64)> = Vec::new();
        for i in 0..n {
            hub.push((0, i, 1.0 + f64::from(i)));
            hub.push((i, 0, 2.0 + f64::from(i)));
        }
        vec![
            (
                "empty",
                CooMatrix::from_entries(n, n, Vec::new()).expect("empty"),
            ),
            (
                "diagonal",
                CooMatrix::from_entries(n, n, diag).expect("in range"),
            ),
            (
                "anti_diagonal",
                CooMatrix::from_entries(n, n, anti).expect("in range"),
            ),
            (
                "hub_row_col",
                CooMatrix::from_entries(n, n, hub).expect("in range"),
            ),
            ("banded", banded(n, nnz, n / 8 + 1, 1)),
            ("power_law", power_law(n, nnz + nnz / 2, 1.2, 0.4, 2)),
            ("block_diagonal", block_diagonal(n, n / 4 + 1, nnz, 3)),
            ("empty_rows_cols", with_empty_rows_and_cols(n, nnz, 4)),
            ("triangle_heavy", triangle_heavy(n, nnz / 2, 5)),
            ("power_law_rows", power_law_rows(n, nnz, 1.5, 6)),
            ("boolean_adjacency", boolean_adjacency(n, nnz, 7)),
            ("zero_rows_rect", zero_rows_rect(n, n / 2, nnz / 2, 8)),
        ]
    }
}

pub mod einsum {
    //! Seeded sparse-einsum expression string generators for the
    //! front-door conformance suites.
    //!
    //! [`well_formed`] emits expressions the parser must accept;
    //! [`hostile`] corrupts a well-formed expression so parsing *may*
    //! fail but must never panic and must keep every error span inside
    //! the source; [`huge`] builds megabyte-scale inputs for the same
    //! no-panic obligation. Generation is pure string assembly — this
    //! crate deliberately does not depend on the frontend, so the
    //! generators and the parser under test cannot share bugs.

    use crate::SplitMix64;

    const TENSORS: &[&str] = &["acc", "vin", "vout", "tmp", "mval", "wgt", "stat", "gate"];
    const INDICES: &[&str] = &["i", "j", "k", "l", "p", "q"];
    const SEMIRINGS: &[&str] = &["+.*=", "|.&=", "min.+=", "aril.+="];
    const INFIX: &[&str] = &["+", "-", "*", "/", "&", "|", "<", ">", "=="];
    const CALLS1: &[&str] = &["relu", "abs", "sqrt", "neg", "square", "not"];
    const REDUCES: &[&str] = &["sum", "any", "all", "min", "max"];
    const CALLS2: &[&str] = &["absdiff", "min", "max", "select", "dot"];

    fn pick<'a>(rng: &mut SplitMix64, pool: &[&'a str]) -> &'a str {
        pool[rng.below(pool.len() as u32) as usize]
    }

    /// A deterministic well-formed expression: one semiring contraction
    /// followed by a short e-wise chain, with randomized names,
    /// operators, literals, and `@` settings.
    #[must_use]
    pub fn well_formed(seed: u64) -> String {
        let mut rng = SplitMix64::new(seed ^ 0xe145_0000_5eed_0000);
        let i = pick(&mut rng, INDICES);
        let mut j = pick(&mut rng, INDICES);
        while j == i {
            j = pick(&mut rng, INDICES);
        }
        let x = pick(&mut rng, TENSORS);
        let mut out = format!(
            "y0[{j}] {} {x}[{i}] * mat0[{i},{j}]",
            pick(&mut rng, SEMIRINGS)
        );
        let chain = rng.below(4);
        for s in 0..chain {
            let prev = format!("y{s}");
            let next = format!("y{}", s + 1);
            let lit = f64::from(rng.below(64)) / 8.0;
            match rng.below(4) {
                0 => {
                    let op = pick(&mut rng, INFIX);
                    out.push_str(&format!("; {next}[{j}] = {prev}[{j}] {op} {lit}"));
                }
                1 => {
                    let f = pick(&mut rng, CALLS1);
                    out.push_str(&format!("; {next}[{j}] = {f}({prev}[{j}])"));
                }
                2 => {
                    let f = pick(&mut rng, CALLS2);
                    out.push_str(&format!("; {next}[{j}] = {f}({prev}[{j}], {prev}[{j}])"));
                }
                _ => {
                    let f = pick(&mut rng, REDUCES);
                    out.push_str(&format!("; r{s} = {f}({prev}[{j}])"));
                }
            }
        }
        let mut settings = Vec::new();
        if rng.below(2) == 1 {
            settings.push(format!("iter={}", rng.below(12) + 1));
        }
        if rng.below(3) == 0 {
            settings.push(format!("name=gen{}", rng.below(1000)));
        }
        if !settings.is_empty() {
            out.push_str(" @ ");
            out.push_str(&settings.join(" "));
        }
        out
    }

    /// Corrupts [`well_formed`]`(seed)` with one random mutation
    /// (unbalanced bracket, unknown semiring, unicode index, garbage
    /// byte, truncation, bad setting). The result is usually — but not
    /// guaranteed to be — invalid; callers assert parse never panics and
    /// any reported span stays inside the string.
    #[must_use]
    pub fn hostile(seed: u64) -> String {
        let mut rng = SplitMix64::new(seed ^ 0x0051_11e0_0000_0000);
        let mut src = well_formed(rng.next());
        // A char-boundary-safe position (ASCII source, so any byte).
        let pos = |rng: &mut SplitMix64, s: &str| rng.below(s.len() as u32 + 1) as usize;
        match rng.below(8) {
            0 => {
                if let Some(p) = src.find(']') {
                    src.remove(p);
                }
            }
            1 => src = src.replacen(".*=", ".?=", 1).replacen(".&=", ".?=", 1),
            2 => {
                let p = pos(&mut rng, &src);
                src.insert_str(p, "αβ");
            }
            3 => {
                let p = pos(&mut rng, &src);
                src.insert(p, ['$', '\\', '^', '~', '`'][rng.below(5) as usize]);
            }
            4 => src.truncate(pos(&mut rng, &src)),
            5 => src.push_str(" @ iter=0"),
            6 => {
                let p = pos(&mut rng, &src);
                src.insert(p, '[');
            }
            _ => src.push_str(" @ iter=3 iter=4"),
        }
        src
    }

    /// A hostile expression of at least `target_len` bytes: a plausible
    /// prefix followed by an unbounded repetition, for the megabyte-scale
    /// no-panic/no-recursion obligation.
    #[must_use]
    pub fn huge(target_len: usize, seed: u64) -> String {
        let mut rng = SplitMix64::new(seed ^ 0x4b16_0000_0000_0000);
        let unit = match rng.below(3) {
            0 => "[",
            1 => "y[i] = x[i] + ",
            _ => "aaaaaaaaaaaaaaaa",
        };
        let mut out = well_formed(rng.next());
        out.push_str("; z[i] = ");
        while out.len() < target_len {
            out.push_str(unit);
        }
        out
    }
}

pub mod reorder_oracle {
    //! Reference implementations of the row reorderings in
    //! [`sparsepipe_tensor::reorder`] and of
    //! [`CooMatrix::permute_symmetric`], kept out of release builds.
    //!
    //! These are the straightforward formulations: a globally sorted
    //! triplet list for the undirected adjacency, one lazy max-heap of
    //! `(score, degree, Reverse(index))` entries for the GraphOrder
    //! placement queue, and a full re-sort for the symmetric permutation.
    //! The production code must match them bit for bit
    //! (`crates/tensor/tests/reorder_differential.rs`).

    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};

    use sparsepipe_tensor::{CooMatrix, CsrMatrix};

    /// Reference for [`sparsepipe_tensor::reorder::graph_order`].
    pub fn graph_order(m: &CsrMatrix, window: usize) -> Vec<u32> {
        let n = m.nrows() as usize;
        assert_eq!(m.nrows(), m.ncols(), "reordering needs a square matrix");
        if n == 0 {
            return Vec::new();
        }
        let window = window.max(1);
        let adj = undirected_adjacency(m);

        let degree: Vec<usize> = (0..n).map(|v| adj.row_nnz(v as u32)).collect();
        let mut score = vec![0usize; n];
        let mut placed = vec![false; n];
        let mut perm = vec![0u32; n];
        let mut recent: VecDeque<usize> = VecDeque::new();
        // Max-heap keyed by (score, degree, lowest index); entries go
        // stale when scores change and are skipped on pop.
        let mut heap: BinaryHeap<(usize, usize, Reverse<usize>)> =
            (0..n).map(|v| (0usize, degree[v], Reverse(v))).collect();

        for position in 0..n {
            let v = loop {
                let (s, _, Reverse(v)) = heap.pop().expect("heap cannot be empty");
                if !placed[v] && s == score[v] {
                    break v;
                }
            };
            placed[v] = true;
            perm[v] = position as u32;

            recent.push_back(v);
            if recent.len() > window {
                let old = recent.pop_front().expect("just checked length");
                for &u in adj.row(old as u32).0 {
                    let u = u as usize;
                    if !placed[u] {
                        score[u] = score[u].saturating_sub(1);
                        heap.push((score[u], degree[u], Reverse(u)));
                    }
                }
            }
            for &u in adj.row(v as u32).0 {
                let u = u as usize;
                if !placed[u] {
                    score[u] += 1;
                    heap.push((score[u], degree[u], Reverse(u)));
                }
            }
        }
        perm
    }

    /// Reference for [`sparsepipe_tensor::reorder::vanilla_triangular`].
    pub fn vanilla_triangular(m: &CsrMatrix, sweeps: usize) -> Vec<u32> {
        let n = m.nrows() as usize;
        assert_eq!(m.nrows(), m.ncols(), "reordering needs a square matrix");
        if n == 0 {
            return Vec::new();
        }
        let adj = undirected_adjacency(m);
        let mut position: Vec<f64> = (0..n).map(|v| v as f64).collect();
        for _ in 0..sweeps.max(1) {
            let barycenter: Vec<f64> = (0..n)
                .map(|v| {
                    let (neigh, _) = adj.row(v as u32);
                    if neigh.is_empty() {
                        position[v]
                    } else {
                        neigh.iter().map(|&u| position[u as usize]).sum::<f64>()
                            / neigh.len() as f64
                    }
                })
                .collect();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                barycenter[a]
                    .partial_cmp(&barycenter[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for (rank, &v) in order.iter().enumerate() {
                position[v] = rank as f64;
            }
        }
        position.iter().map(|&p| p as u32).collect()
    }

    /// Reference for [`CooMatrix::permute_symmetric`]: relabel every
    /// triplet, then re-sort the whole list.
    pub fn permute_symmetric(m: &CooMatrix, perm: &[u32]) -> CooMatrix {
        assert_eq!(
            perm.len(),
            m.nrows() as usize,
            "permutation length must equal nrows"
        );
        assert_eq!(
            m.nrows(),
            m.ncols(),
            "symmetric permutation needs a square matrix"
        );
        let entries = m
            .entries()
            .iter()
            .map(|&(r, c, v)| (perm[r as usize], perm[c as usize], v))
            .collect();
        CooMatrix::from_entries(m.nrows(), m.ncols(), entries)
            .expect("permutation preserves bounds")
    }

    /// Loop-free union of out- and in-edges, as a CSR matrix with
    /// ascending, duplicate-free rows.
    fn undirected_adjacency(m: &CsrMatrix) -> CsrMatrix {
        let mut entries: Vec<(u32, u32, f64)> = Vec::with_capacity(m.nnz() * 2);
        for (r, c, _) in m.iter() {
            if r != c {
                entries.push((r, c, 1.0));
                entries.push((c, r, 1.0));
            }
        }
        CooMatrix::from_entries(m.nrows(), m.ncols(), entries)
            .expect("adjacency coordinates are in range")
            .to_csr()
    }
}

pub mod mm_oracle {
    //! Reference MatrixMarket reader: the `BufRead::lines()`-based
    //! [`sparsepipe_tensor::mm`] reader the byte-level tokenizer replaced,
    //! kept out of release builds. It allocates a `String` per line,
    //! validates UTF-8 and splits on Unicode whitespace. The production
    //! reader must match it bit for bit on ASCII input
    //! (`crates/core/tests/mm_convert_differential.rs`).

    use std::io::BufRead;

    use sparsepipe_tensor::mm::MmHeader;
    use sparsepipe_tensor::{CooMatrix, TensorError};

    fn format_err(line: usize, code: &'static str, message: String) -> TensorError {
        TensorError::Format {
            code,
            line,
            message,
        }
    }

    fn parse_banner(header: &str) -> Result<(bool, bool), TensorError> {
        let header_lc = header.to_ascii_lowercase();
        let fields: Vec<&str> = header_lc.split_whitespace().collect();
        if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
            return Err(format_err(
                1,
                "mm-banner",
                format!("not a MatrixMarket header: {header:?}"),
            ));
        }
        if fields[2] != "coordinate" {
            return Err(format_err(
                1,
                "mm-storage",
                format!("unsupported storage {:?} (only coordinate)", fields[2]),
            ));
        }
        let pattern = match fields[3] {
            "real" | "integer" => false,
            "pattern" => true,
            other => {
                return Err(format_err(
                    1,
                    "mm-field",
                    format!("unsupported field type {other:?}"),
                ))
            }
        };
        let symmetric = match fields[4] {
            "general" => false,
            "symmetric" => true,
            other => {
                return Err(format_err(
                    1,
                    "mm-symmetry",
                    format!("unsupported symmetry {other:?}"),
                ))
            }
        };
        Ok((pattern, symmetric))
    }

    fn parse_tok<'a, T: std::str::FromStr>(
        toks: &mut impl Iterator<Item = &'a str>,
        line: usize,
        what: &str,
    ) -> Result<T, TensorError>
    where
        T::Err: std::fmt::Display,
    {
        let tok = toks.next().ok_or_else(|| TensorError::Parse {
            line,
            message: format!("missing {what}"),
        })?;
        tok.parse::<T>().map_err(|e| TensorError::Parse {
            line,
            message: format!("bad {what} {tok:?}: {e}"),
        })
    }

    fn parse_size<'a>(
        toks: &mut impl Iterator<Item = &'a str>,
        line_no: usize,
        pattern: bool,
        symmetric: bool,
    ) -> Result<MmHeader, TensorError> {
        let nrows: u64 = parse_tok(toks, line_no, "nrows")?;
        let ncols: u64 = parse_tok(toks, line_no, "ncols")?;
        let nnz: usize = parse_tok(toks, line_no, "nnz")?;
        if nrows > u64::from(u32::MAX) || ncols > u64::from(u32::MAX) {
            return Err(format_err(
                line_no,
                "mm-size",
                format!("matrix shape {nrows}x{ncols} exceeds u32 coordinates"),
            ));
        }
        Ok(MmHeader {
            nrows: nrows as u32,
            ncols: ncols as u32,
            declared_nnz: nnz,
            pattern,
            symmetric,
        })
    }

    /// Reference for [`sparsepipe_tensor::mm::read_header`].
    ///
    /// # Errors
    ///
    /// As the production reader.
    pub fn read_header<R: BufRead>(reader: R) -> Result<MmHeader, TensorError> {
        let mut lines = reader.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| format_err(1, "mm-banner", "empty file".into()))?;
        let header = header?;
        let (pattern, symmetric) = parse_banner(&header)?;
        for (idx, line) in lines {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('%') {
                continue;
            }
            return parse_size(&mut trimmed.split_whitespace(), idx + 1, pattern, symmetric);
        }
        Err(format_err(2, "mm-size", "missing size line".into()))
    }

    /// Reference for [`sparsepipe_tensor::mm::stream`].
    ///
    /// # Errors
    ///
    /// As the production reader.
    pub fn stream<R, F>(reader: R, mut visit: F) -> Result<MmHeader, TensorError>
    where
        R: BufRead,
        F: FnMut(u32, u32, f64) -> Result<(), TensorError>,
    {
        let mut lines = reader.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| format_err(1, "mm-banner", "empty file".into()))?;
        let header = header?;
        let (pattern, symmetric) = parse_banner(&header)?;

        let mut parsed: Option<MmHeader> = None;
        let mut seen: usize = 0;
        let mut last_line = 1;
        for (idx, line) in lines {
            let line = line?;
            let line_no = idx + 1;
            last_line = line_no;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('%') {
                continue;
            }
            let mut toks = trimmed.split_whitespace();
            let Some(h) = parsed else {
                parsed = Some(parse_size(&mut toks, line_no, pattern, symmetric)?);
                continue;
            };
            if seen == h.declared_nnz {
                return Err(format_err(
                    line_no,
                    "mm-excess",
                    format!(
                        "size line declared {} entries but the file holds more",
                        h.declared_nnz
                    ),
                ));
            }
            let r: u64 = parse_tok(&mut toks, line_no, "row")?;
            let c: u64 = parse_tok(&mut toks, line_no, "col")?;
            if r == 0 || c == 0 {
                return Err(format_err(
                    line_no,
                    "mm-index",
                    "MatrixMarket coordinates are 1-based".into(),
                ));
            }
            if r > u64::from(h.nrows) || c > u64::from(h.ncols) {
                return Err(format_err(
                    line_no,
                    "mm-index",
                    format!(
                        "entry ({r}, {c}) outside the declared {}x{} shape",
                        h.nrows, h.ncols
                    ),
                ));
            }
            let v = if pattern {
                1.0
            } else {
                let tok = toks
                    .next()
                    .ok_or_else(|| format_err(line_no, "mm-value", "missing value".into()))?;
                tok.parse::<f64>().map_err(|e| {
                    format_err(line_no, "mm-value", format!("bad value {tok:?}: {e}"))
                })?
            };
            let (r, c) = ((r - 1) as u32, (c - 1) as u32);
            seen += 1;
            visit(r, c, v)?;
            if symmetric && r != c {
                visit(c, r, v)?;
            }
        }
        let h = parsed.ok_or_else(|| format_err(2, "mm-size", "missing size line".into()))?;
        if seen < h.declared_nnz {
            return Err(format_err(
                last_line,
                "mm-truncated",
                format!(
                    "size line declared {} entries, file ends after {seen}",
                    h.declared_nnz
                ),
            ));
        }
        Ok(h)
    }

    /// Reference for [`sparsepipe_tensor::mm::read`].
    ///
    /// # Errors
    ///
    /// As the production reader.
    pub fn read<R: BufRead>(reader: R) -> Result<CooMatrix, TensorError> {
        let mut entries: Vec<(u32, u32, f64)> = Vec::new();
        let header = stream(reader, |r, c, v| {
            entries.push((r, c, v));
            Ok(())
        })?;
        CooMatrix::from_entries(header.nrows, header.ncols, entries)
    }
}

pub mod dualbuffer_oracle {
    //! The pre-arena `BTreeMap` dual buffer and its pass driver, kept out
    //! of release builds as the oracle for the differential harness
    //! (`sparsepipe-core`'s `tests/dualbuffer_differential.rs`) and the
    //! `dualbuffer_hot` bench: same statistics, same trace-event
    //! contract, element payloads owned per container instead of
    //! borrowed from an arena.

    use std::collections::{BTreeMap, HashSet};

    use sparsepipe_core::dualbuffer::{DualBufferStats, ELEM_BYTES};
    use sparsepipe_core::oei::FusedPassOutput;
    use sparsepipe_semiring::SemiringOp;
    use sparsepipe_tensor::{CscMatrix, CsrMatrix, DenseVector, TensorError};
    use sparsepipe_trace::{NullSink, PipeStage, TraceEvent, TraceSink, TrafficClass, WHOLE_ROW};

    /// Per-row CSR-space state.
    #[derive(Debug, Clone)]
    struct RowSpace {
        /// Total non-zeros of this row (the reservation size).
        reserved_elems: usize,
        /// Entries stored so far, in ascending column order: `(col, val)`.
        stored: Vec<(u32, f64)>,
        /// How many stored entries the IS core has consumed.
        consumed: usize,
    }

    impl RowSpace {
        fn fully_consumed(&self) -> bool {
            self.consumed == self.reserved_elems
        }
    }

    /// The original dual-storage buffer: CSC space + CSR space sharing
    /// one capacity, on `BTreeMap`s with owned element payloads.
    ///
    /// Kept as the differential oracle — its observable behaviour
    /// (statistics, event streams, returned data) defines correctness
    /// for the arena-backed
    /// [`DualBuffer`](sparsepipe_core::dualbuffer::DualBuffer).
    #[derive(Debug)]
    pub struct LegacyDualBuffer<S: TraceSink = NullSink> {
        capacity_bytes: usize,
        repack_threshold: f64,
        /// CSC space: fetched, not-yet-consumed columns.
        csc_cols: BTreeMap<u32, Vec<(u32, f64)>>,
        csc_bytes: usize,
        /// CSR space: per-row reserved regions (keyed by row, so
        /// highest-row-first eviction is a `last_key_value`).
        csr_rows: BTreeMap<u32, RowSpace>,
        /// Reserved (not merely stored) CSR bytes — reservation is what
        /// occupies space, per the paper's design.
        csr_reserved_bytes: usize,
        /// Bytes inside reservations already freed by consumption but not
        /// yet reclaimed (awaiting repack).
        fragmented_bytes: usize,
        stats: DualBufferStats,
        sink: S,
    }

    impl LegacyDualBuffer {
        /// Creates an untraced buffer with the given capacity and repack
        /// threshold (fraction of occupied space that may be fragmentation
        /// before a repack triggers).
        pub fn new(capacity_bytes: usize, repack_threshold: f64) -> Self {
            LegacyDualBuffer::with_sink(capacity_bytes, repack_threshold, NullSink)
        }
    }

    impl<S: TraceSink> LegacyDualBuffer<S> {
        /// Creates a buffer that emits a [`TraceEvent`] for every fetch,
        /// insert, hit, and eviction into `sink`.
        pub fn with_sink(capacity_bytes: usize, repack_threshold: f64, sink: S) -> Self {
            LegacyDualBuffer {
                capacity_bytes,
                repack_threshold,
                csc_cols: BTreeMap::new(),
                csc_bytes: 0,
                csr_rows: BTreeMap::new(),
                csr_reserved_bytes: 0,
                fragmented_bytes: 0,
                stats: DualBufferStats::default(),
                sink,
            }
        }

        /// Consumes the buffer, returning its sink.
        pub fn into_sink(self) -> S {
            self.sink
        }

        /// Current occupancy in bytes (CSC space + CSR reservations +
        /// unreclaimed fragmentation).
        pub fn occupancy_bytes(&self) -> usize {
            self.csc_bytes + self.csr_reserved_bytes + self.fragmented_bytes
        }

        /// Pass statistics so far.
        pub fn stats(&self) -> DualBufferStats {
            self.stats
        }

        fn note_peak(&mut self) {
            self.stats.peak_bytes = self.stats.peak_bytes.max(self.occupancy_bytes());
        }

        /// Fetches column `col` from DRAM into the CSC space, and runs the
        /// col-row converter: each `(row, val)` is offered to the CSR
        /// space. `row_total(r)` must return row `r`'s full non-zero count
        /// (the CSR index array the loader consults for reservation
        /// sizing).
        ///
        /// Rows the IS core has already finished (`is_frontier > row`) are
        /// *not* converted — their consumer is gone; the caller applies
        /// the pending scatter directly (the deferred-IS path).
        pub fn fetch_column<F>(
            &mut self,
            col: u32,
            data: &[(u32, f64)],
            is_frontier: u32,
            row_total: F,
        ) where
            F: Fn(u32) -> usize,
        {
            self.stats.fetched_bytes += data.len() * ELEM_BYTES;
            if S::ENABLED {
                self.sink.emit(TraceEvent::DramRead {
                    addr: u64::from(col) * ELEM_BYTES as u64,
                    bytes: (data.len() * ELEM_BYTES) as f64,
                    class: TrafficClass::CscDemand,
                    step: col,
                });
            }
            self.csc_cols.insert(col, data.to_vec());
            self.csc_bytes += data.len() * ELEM_BYTES;
            for &(row, val) in data {
                if row < is_frontier {
                    continue; // deferred-IS: consumed by the caller directly
                }
                if S::ENABLED {
                    self.sink.emit(TraceEvent::BufferInsert {
                        row,
                        col,
                        step: col,
                        refetch: false,
                        bytes: ELEM_BYTES as f64,
                    });
                }
                self.store_converted(row, col, val, &row_total);
            }
            self.note_peak();
        }

        /// Stores one converted element into the CSR space, reserving the
        /// row's full region on first contact.
        fn store_converted<F>(&mut self, row: u32, col: u32, val: f64, row_total: &F)
        where
            F: Fn(u32) -> usize,
        {
            let entry = self.csr_rows.entry(row).or_insert_with(|| {
                let reserved = row_total(row);
                self.csr_reserved_bytes += reserved * ELEM_BYTES;
                self.stats.reservations += 1;
                RowSpace {
                    reserved_elems: reserved,
                    stored: Vec::with_capacity(reserved),
                    consumed: 0,
                }
            });
            // Columns arrive in ascending order, so appends stay sorted —
            // "allowing for consecutive and ascending storage of
            // subsequently fetched row data within its reserved space".
            debug_assert!(
                entry.stored.last().is_none_or(|&(c, _)| c < col),
                "row {row}: column {col} arrived out of order"
            );
            entry.stored.push((col, val));
        }

        /// The OS core consumes column `col`: returns its entries and
        /// frees the CSC region immediately.
        pub fn consume_column(&mut self, col: u32) -> Option<Vec<(u32, f64)>> {
            let data = self.csc_cols.remove(&col)?;
            self.csc_bytes -= data.len() * ELEM_BYTES;
            if S::ENABLED {
                for &(row, _) in &data {
                    self.sink.emit(TraceEvent::BufferHit {
                        row,
                        col,
                        stage: PipeStage::Os,
                        step: col,
                    });
                }
            }
            Some(data)
        }

        /// The IS core consumes all currently stored entries of `row`,
        /// returning them. Entries that have not arrived yet (columns
        /// still to be fetched) remain the caller's responsibility
        /// (deferred path). A fully-consumed row's reservation becomes
        /// fragmentation until the next repack.
        pub fn consume_row(&mut self, row: u32) -> Vec<(u32, f64)> {
            let Some(space) = self.csr_rows.get_mut(&row) else {
                return Vec::new();
            };
            let taken: Vec<(u32, f64)> = space.stored.drain(..).collect();
            space.consumed += taken.len();
            if S::ENABLED {
                for &(col, _) in &taken {
                    self.sink.emit(TraceEvent::BufferHit {
                        row,
                        col,
                        stage: PipeStage::Is,
                        step: row,
                    });
                }
            }
            if space.fully_consumed() {
                let bytes = space.reserved_elems * ELEM_BYTES;
                self.csr_rows.remove(&row);
                self.csr_reserved_bytes -= bytes;
                self.fragmented_bytes += bytes;
            }
            self.maybe_repack();
            taken
        }

        /// Marks `consumed_late` additional elements of `row` as consumed
        /// via the deferred path (they never entered the CSR space).
        pub fn consume_deferred(&mut self, row: u32, consumed_late: usize) {
            if let Some(space) = self.csr_rows.get_mut(&row) {
                space.consumed += consumed_late;
                if space.fully_consumed() {
                    let bytes = space.reserved_elems * ELEM_BYTES;
                    self.csr_rows.remove(&row);
                    self.csr_reserved_bytes -= bytes;
                    self.fragmented_bytes += bytes;
                    self.maybe_repack();
                }
            }
        }

        fn maybe_repack(&mut self) {
            let occupied = self.occupancy_bytes();
            if self.fragmented_bytes > 0
                && (self.fragmented_bytes as f64) > self.repack_threshold * occupied as f64
            {
                // "discards fully computed sub-tensors and places remaining
                // sub-tensors in a contiguous CSR space"
                self.fragmented_bytes = 0;
                self.stats.repacks += 1;
            }
        }

        /// Enforces capacity: evicts rows with the highest `row_idx` first
        /// (never rows at or below `protect_below`, which the IS core is
        /// about to need). Returns the evicted rows.
        pub fn enforce_capacity(&mut self, protect_below: u32) -> Vec<u32> {
            let mut evicted = Vec::new();
            while self.occupancy_bytes() > self.capacity_bytes {
                // repack first if fragmentation alone can make room
                if self.fragmented_bytes > 0 {
                    self.fragmented_bytes = 0;
                    self.stats.repacks += 1;
                    continue;
                }
                let Some((&row, _)) = self.csr_rows.last_key_value() else {
                    break;
                };
                if row <= protect_below {
                    break;
                }
                let space = self.csr_rows.remove(&row).expect("key just observed");
                self.csr_reserved_bytes -= space.reserved_elems * ELEM_BYTES;
                self.stats.evicted_rows += 1;
                if S::ENABLED {
                    // The whole reservation goes at once — a row-granular
                    // eviction, marked with the WHOLE_ROW column sentinel.
                    self.sink.emit(TraceEvent::BufferEvict {
                        row,
                        col: WHOLE_ROW,
                        step: protect_below,
                    });
                }
                evicted.push(row);
            }
            evicted
        }

        /// Charges a re-fetch of `elems` elements after an eviction.
        pub fn charge_refetch(&mut self, elems: usize) {
            self.stats.refetch_bytes += elems * ELEM_BYTES;
            if S::ENABLED && elems > 0 {
                self.sink.emit(TraceEvent::DramRead {
                    addr: 1 << 40,
                    bytes: (elems * ELEM_BYTES) as f64,
                    class: TrafficClass::Refetch,
                    step: 0,
                });
            }
        }

        /// Stored (convertible) entries currently held for `row`.
        pub fn stored_row_len(&self, row: u32) -> usize {
            self.csr_rows.get(&row).map_or(0, |s| s.stored.len())
        }

        /// Is a reservation present for `row`?
        pub fn has_reservation(&self, row: u32) -> bool {
            self.csr_rows.contains_key(&row)
        }
    }

    /// The pre-arena pass driver, verbatim over [`LegacyDualBuffer`]:
    /// one fused OEI pass (OS → e-wise → IS) whose functional output,
    /// statistics, and event stream define what
    /// [`FusedPass::buffer`](sparsepipe_core::oei::FusedPass::buffer)
    /// must reproduce exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if the matrix is not
    /// square or `x` does not match its dimension.
    #[allow(clippy::too_many_arguments)] // the pass inputs plus capacity and sink, 1:1
    pub fn legacy_buffered_pass<F, S>(
        csc: &CscMatrix,
        csr: &CsrMatrix,
        x: &DenseVector,
        mut ewise: F,
        os: SemiringOp,
        is: SemiringOp,
        capacity_bytes: usize,
        sink: S,
    ) -> Result<(FusedPassOutput, DualBufferStats), TensorError>
    where
        F: FnMut(usize, f64) -> f64,
        S: TraceSink,
    {
        let n = csc.ncols() as usize;
        if csc.nrows() != csc.ncols() || csr.nrows() != csc.nrows() {
            return Err(TensorError::DimensionMismatch {
                context: format!(
                    "legacy buffered pass: csc {}x{}, csr {}x{}",
                    csc.nrows(),
                    csc.ncols(),
                    csr.nrows(),
                    csr.ncols()
                ),
            });
        }
        if x.len() != n {
            return Err(TensorError::DimensionMismatch {
                context: format!("legacy buffered pass: x len {} vs n {n}", x.len()),
            });
        }

        let mut buffer = LegacyDualBuffer::with_sink(capacity_bytes, 0.5, sink);
        let mut evicted: HashSet<u32> = HashSet::new();
        let mut y1 = DenseVector::zeros(n);
        let mut x2 = DenseVector::zeros(n);
        let mut y2 = DenseVector::filled(n, is.zero());

        for c in 0..n as u32 {
            // ---- CSC loader: fetch column c; the converter routes each
            // element to the CSR space (rows ≥ c) or the deferred path. ----
            let (rows, vals) = csc.col(c);
            let data: Vec<(u32, f64)> = rows.iter().copied().zip(vals.iter().copied()).collect();
            buffer.fetch_column(c, &data, c, |r| csr.row_nnz(r));
            // deferred-IS: rows the IS stage already passed scatter now
            for &(r, v) in &data {
                if r < c {
                    let cell = &mut y2[c as usize];
                    *cell = is.add(*cell, is.mul(x2[r as usize], v));
                }
            }

            // ---- OS core: dot of column c (read from the buffer). ----
            let col_data = buffer.consume_column(c).expect("column was just fetched");
            let mut acc = os.zero();
            for &(r, v) in &col_data {
                acc = os.add(acc, os.mul(x[r as usize], v));
            }
            y1[c as usize] = acc;

            // ---- E-Wise core. ----
            let e = ewise(c as usize, acc);
            x2[c as usize] = e;

            // ---- IS core: scatter row c from the CSR space. ----
            let stored = buffer.consume_row(c);
            for &(col, v) in &stored {
                let cell = &mut y2[col as usize];
                *cell = is.add(*cell, is.mul(e, v));
            }
            // If this row was evicted earlier, its already-passed columns
            // were lost from the CSR space: re-fetch exactly the missing
            // ones.
            if evicted.remove(&c) {
                let (row_cols, row_vals) = csr.row(c);
                let stored_cols: HashSet<u32> = stored.iter().map(|&(col, _)| col).collect();
                let mut refetched = 0usize;
                for (&col, &v) in row_cols.iter().zip(row_vals) {
                    if col < c && !stored_cols.contains(&col) {
                        refetched += 1;
                        let cell = &mut y2[col as usize];
                        *cell = is.add(*cell, is.mul(e, v));
                    }
                }
                buffer.charge_refetch(refetched);
            }
            // Elements of row c in columns > c arrive later through the
            // deferred path; release their share of the reservation now.
            let arrived = stored.len();
            let total = csr.row_nnz(c);
            buffer.consume_deferred(c, total.saturating_sub(arrived));

            // ---- Capacity enforcement (protect the current frontier). ----
            for r in buffer.enforce_capacity(c) {
                evicted.insert(r);
            }
        }

        Ok((FusedPassOutput { y1, x2, y2 }, buffer.stats()))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn row_total_const(n: usize) -> impl Fn(u32) -> usize {
            move |_| n
        }

        #[test]
        fn column_fetch_and_conversion() {
            let mut b = LegacyDualBuffer::new(10_000, 0.5);
            b.fetch_column(0, &[(3, 1.0), (5, 2.0)], 0, row_total_const(2));
            // CSC space holds the column; CSR space reserved both rows fully
            assert_eq!(b.occupancy_bytes(), 2 * ELEM_BYTES + 2 * 2 * ELEM_BYTES);
            assert!(b.has_reservation(3));
            assert_eq!(b.stored_row_len(3), 1);
            let col = b.consume_column(0).expect("column present");
            assert_eq!(col, vec![(3, 1.0), (5, 2.0)]);
            // CSC space freed immediately
            assert_eq!(b.occupancy_bytes(), 2 * 2 * ELEM_BYTES);
        }

        #[test]
        fn reservation_happens_once_at_full_row_size() {
            let mut b = LegacyDualBuffer::new(10_000, 0.5);
            b.fetch_column(0, &[(7, 1.0)], 0, row_total_const(5));
            let after_first = b.occupancy_bytes();
            b.consume_column(0);
            b.fetch_column(1, &[(7, 2.0)], 0, row_total_const(5));
            b.consume_column(1);
            // second element did not grow the reservation
            assert_eq!(
                b.occupancy_bytes(),
                after_first - ELEM_BYTES, // only the CSC copy of col 0 freed
            );
            assert_eq!(b.stats().reservations, 1);
            assert_eq!(b.stored_row_len(7), 2);
        }

        #[test]
        fn ascending_column_order_is_kept() {
            let mut b = LegacyDualBuffer::new(10_000, 0.5);
            for col in 0..4u32 {
                b.fetch_column(col, &[(9, col as f64)], 0, row_total_const(4));
                b.consume_column(col);
            }
            let taken = b.consume_row(9);
            assert_eq!(taken, vec![(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]);
        }

        #[test]
        fn full_consumption_frees_reservation_via_repack() {
            let mut b = LegacyDualBuffer::new(10_000, 0.0); // immediate repack
            b.fetch_column(0, &[(2, 1.0)], 0, row_total_const(1));
            b.consume_column(0);
            assert!(b.has_reservation(2));
            let taken = b.consume_row(2);
            assert_eq!(taken.len(), 1);
            assert!(!b.has_reservation(2));
            assert_eq!(b.occupancy_bytes(), 0);
            assert!(b.stats().repacks >= 1);
        }

        #[test]
        fn deferred_rows_are_not_converted() {
            let mut b = LegacyDualBuffer::new(10_000, 0.5);
            // IS frontier is at row 5: rows below it defer
            b.fetch_column(7, &[(2, 1.0), (8, 2.0)], 5, row_total_const(1));
            assert!(!b.has_reservation(2), "row below the frontier must defer");
            assert!(b.has_reservation(8));
        }

        #[test]
        fn eviction_prefers_highest_rows_and_respects_protection() {
            // capacity for ~3 reservations of 2 elements
            let mut b = LegacyDualBuffer::new(7 * ELEM_BYTES, 0.5);
            b.fetch_column(0, &[(1, 0.1), (5, 0.5), (9, 0.9)], 0, row_total_const(2));
            b.consume_column(0);
            // 3 reservations × 2 elems = 6 elems of CSR space: fits (42 < 84)
            assert_eq!(b.enforce_capacity(0), Vec::<u32>::new());
            b.fetch_column(1, &[(3, 0.3)], 0, row_total_const(2));
            b.consume_column(1);
            // 4 reservations = 8 elems > 7: evict highest row (9)
            let evicted = b.enforce_capacity(0);
            assert_eq!(evicted, vec![9]);
            assert!(b.has_reservation(1) && b.has_reservation(3) && b.has_reservation(5));
            // protection: nothing at or below the protect mark is evicted
            b.fetch_column(2, &[(5, 0.55), (3, 0.33)], 0, row_total_const(2));
            b.consume_column(2);
            let evicted = b.enforce_capacity(5);
            assert!(
                evicted.is_empty(),
                "protected rows must survive: {evicted:?}"
            );
        }

        #[test]
        fn traced_capacity_one_element_buffer_evicts_immediately() {
            use sparsepipe_trace::MemorySink;
            // Capacity of a single element: the CSC copy plus the CSR
            // reservation of the same element already overflow it, so the
            // reservation must be evicted the moment capacity is enforced.
            let mut sink = MemorySink::new();
            {
                let mut b = LegacyDualBuffer::with_sink(ELEM_BYTES, 0.5, &mut sink);
                b.fetch_column(0, &[(5, 1.0)], 0, row_total_const(2));
                b.consume_column(0);
                assert_eq!(b.enforce_capacity(0), vec![5]);
                assert_eq!(b.occupancy_bytes(), 0);
                assert_eq!(b.stats().evicted_rows, 1);
            }
            let evicts: Vec<_> = sink
                .events()
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::BufferEvict { row, col, .. } => Some((row, col)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                evicts,
                vec![(5, WHOLE_ROW)],
                "row-granular eviction carries the WHOLE_ROW sentinel"
            );
            assert!(sink
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::BufferInsert { row: 5, col: 0, .. })));
        }

        #[test]
        fn traced_second_element_of_resident_row_reuses_reservation() {
            use sparsepipe_trace::MemorySink;
            let mut sink = MemorySink::new();
            {
                let mut b = LegacyDualBuffer::with_sink(10_000, 0.5, &mut sink);
                b.fetch_column(0, &[(9, 1.0)], 0, row_total_const(2));
                b.consume_column(0);
                b.fetch_column(1, &[(9, 2.0)], 0, row_total_const(2));
                b.consume_column(1);
                // second element of row 9 lands in the existing reservation
                assert_eq!(b.stats().reservations, 1);
                assert_eq!(b.stored_row_len(9), 2);
            }
            let inserts: Vec<_> = sink
                .events()
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::BufferInsert { row, col, .. } => Some((row, col)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                inserts,
                vec![(9, 0), (9, 1)],
                "both elements of the row insert, in ascending column order"
            );
        }

        #[test]
        fn traced_eviction_of_next_needed_row_causes_refetch() {
            use sparsepipe_trace::MemorySink;
            let mut sink = MemorySink::new();
            {
                // room for the CSC copy plus one 2-element reservation only
                let mut b = LegacyDualBuffer::with_sink(3 * ELEM_BYTES, 0.5, &mut sink);
                b.fetch_column(0, &[(2, 0.2), (6, 0.6)], 0, row_total_const(2));
                b.consume_column(0);
                // Protection is below row 6, so the highest row — exactly
                // the one holding data the IS stage will need — is evicted.
                assert_eq!(b.enforce_capacity(1), vec![6]);
                // IS reaches row 6: nothing stored, the caller must
                // re-fetch.
                assert!(b.consume_row(6).is_empty());
                b.charge_refetch(2);
                assert_eq!(b.stats().refetch_bytes, 2 * ELEM_BYTES);
            }
            let events = sink.events();
            let evict_pos = events
                .iter()
                .position(|e| matches!(e, TraceEvent::BufferEvict { row: 6, .. }))
                .expect("eviction of row 6 must be traced");
            let refetch_pos = events
                .iter()
                .position(|e| {
                    matches!(
                        e,
                        TraceEvent::DramRead {
                            class: TrafficClass::Refetch,
                            ..
                        }
                    )
                })
                .expect("refetch after eviction must be traced");
            assert!(
                evict_pos < refetch_pos,
                "stream order: eviction precedes its refetch"
            );
            // the surviving row's consumption still registers as an IS hit
            let mut b2 = LegacyDualBuffer::new(3 * ELEM_BYTES, 0.5);
            b2.fetch_column(0, &[(2, 0.2), (6, 0.6)], 0, row_total_const(2));
            b2.consume_column(0);
            b2.enforce_capacity(1);
            assert_eq!(b2.consume_row(2).len(), 1, "untraced buffer agrees");
        }

        #[test]
        fn stats_accumulate() {
            let mut b = LegacyDualBuffer::new(1_000_000, 0.5);
            b.fetch_column(0, &[(1, 1.0), (2, 2.0)], 0, row_total_const(1));
            b.charge_refetch(3);
            let s = b.stats();
            assert_eq!(s.fetched_bytes, 2 * ELEM_BYTES);
            assert_eq!(s.refetch_bytes, 3 * ELEM_BYTES);
            assert!(s.peak_bytes > 0);
        }
    }
}

pub mod spgemm_oracle {
    //! The original Gustavson loops, kept out of release builds as the
    //! oracle for the shared SPA kernel
    //! ([`sparsepipe_tensor::spgemm::Spa`]): [`spgemm`] is the former
    //! [`sparsepipe_tensor::spgemm::spgemm`], and [`mxm_pass`] the
    //! former mxm pipeline stage, which built `C` on every pass.
    //!
    //! Both remove duplicate columns with a linear `touched.contains`
    //! scan inside the product loop, so a row costs time quadratic in
    //! its fill. The production kernel must match them bit for bit —
    //! values, statistics, timing and trace events
    //! (`crates/core/tests/spgemm_differential.rs`).

    use sparsepipe_core::pipeline::{PassResult, StepSample};
    use sparsepipe_core::spgemm::{
        MxmOutcome, MxmParams, MxmStats, ACC_BYTES_PER_COL, RESIDENCY_FRACTION,
    };
    use sparsepipe_core::{MatrixArena, RowSet, SparsepipeConfig, TrafficBreakdown};
    use sparsepipe_semiring::SemiringOp;
    use sparsepipe_tensor::{CooMatrix, CsrMatrix, TensorError};
    use sparsepipe_trace::{TraceEvent, TraceSink, TrafficClass};

    /// Accumulator scatter serialization of the mxm stage's timing model.
    const ACC_SCATTER: f64 = 1.1;

    /// Pipeline fill/drain steps of the mxm stage's timing model.
    const PIPELINE_STAGES: f64 = 3.0;

    /// Reference for [`sparsepipe_tensor::spgemm::spgemm`].
    ///
    /// # Errors
    ///
    /// [`TensorError::DimensionMismatch`] if `A.ncols() != B.nrows()`.
    pub fn spgemm(
        a: &CsrMatrix,
        b: &CsrMatrix,
        semiring: SemiringOp,
    ) -> Result<CsrMatrix, TensorError> {
        if a.ncols() != b.nrows() {
            return Err(TensorError::DimensionMismatch {
                context: format!(
                    "spgemm: A is {}x{}, B is {}x{}",
                    a.nrows(),
                    a.ncols(),
                    b.nrows(),
                    b.ncols()
                ),
            });
        }
        let n_out_cols = b.ncols() as usize;
        let zero = semiring.zero();

        // Dense scratch row + touched-column list (the classic SPA).
        let mut acc = vec![zero; n_out_cols];
        let mut touched: Vec<u32> = Vec::new();
        let mut entries: Vec<(u32, u32, f64)> = Vec::new();

        for i in 0..a.nrows() {
            let (a_cols, a_vals) = a.row(i);
            for (&k, &a_ik) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = b.row(k);
                for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                    let j_us = j as usize;
                    if acc[j_us] == zero && !touched.contains(&j) {
                        touched.push(j);
                    }
                    acc[j_us] = semiring.add(acc[j_us], semiring.mul(a_ik, b_kj));
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                let v = acc[j as usize];
                if v != zero {
                    entries.push((i, j, v));
                }
                acc[j as usize] = zero;
            }
            touched.clear();
        }
        Ok(CooMatrix::from_entries(a.nrows(), b.ncols(), entries)
            .expect("coordinates in range")
            .to_csr())
    }

    /// Reference for one mxm pass over `M ⊕.⊗ M`: the result
    /// ([`sparsepipe_core::spgemm::MxmRequest`]), and the timing pass and
    /// statistics ([`sparsepipe_core::spgemm::MxmPlan`] replay), with the
    /// same trace events.
    pub fn mxm_pass<S: TraceSink>(
        arena: &MatrixArena,
        semiring: SemiringOp,
        config: &SparsepipeConfig,
        params: &MxmParams,
        sink: &mut S,
    ) -> MxmOutcome {
        let n = arena.n();
        let nnz = arena.nnz();
        let bpc = config.memory.bytes_per_cycle(config.clock_ghz);
        let fetch_b = config.fetch_bytes_per_element();
        let elem_b = config.buffer_bytes_per_element();
        let pes = config.pes_per_core as f64;
        let share = params.fused_iterations;
        let riders = params.ewise_matrix_passes;
        let t_rows = params.t_rows.max(1);
        let steps = (n as usize).div_ceil(t_rows).max(1);
        let residency_budget = config.buffer_bytes as f64 * RESIDENCY_FRACTION;
        let step_floor = (config.memory.read_latency_ns * config.clock_ghz).max(1.0);

        // Gustavson scratch — the SPA of [`spgemm`] above.
        let zero = semiring.zero();
        let mut acc = vec![zero; n as usize];
        let mut touched: Vec<u32> = Vec::new();
        let mut entries: Vec<(u32, u32, f64)> = Vec::new();

        // Right-operand row residency: FIFO over row ids, byte-bounded.
        let mut resident = RowSet::with_capacity(n as usize);
        let mut ever_loaded = RowSet::with_capacity(n as usize);
        let mut fifo: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        let mut resident_bytes = 0.0f64;
        let mut evicted_elements = 0u64;

        let mut traffic = TrafficBreakdown::default();
        let mut steps_out = Vec::with_capacity(steps);
        let mut total_cycles = 0.0f64;
        let mut os_ops = 0.0f64;
        let mut ew_ops = 0.0f64;
        let mut is_ops = 0.0f64;
        let mut sram_bytes = 0.0f64;
        let mut occupancy_sum = 0.0f64;
        let mut buffer_peak = 0.0f64;
        let mut products_total = 0u64;
        let mut peak_acc_cols = 0u32;
        // Trace-only address cursors (same address-space convention as the
        // vxm pipeline: demand stream at 0, refetch at 1<<40, vectors at
        // 1<<36).
        let mut ev_demand_addr: u64 = 0;
        let mut ev_vec_addr: u64 = 1 << 36;

        for s in 0..steps {
            let row_lo = (s * t_rows) as u32;
            let row_hi = (((s + 1) * t_rows).min(n as usize)) as u32;

            let mut step_demand = 0.0f64;
            let mut step_refetch = 0.0f64;
            let mut left_bytes = 0.0f64;
            let mut step_products = 0u64;
            let mut step_out_entries = 0u64;
            let mut step_acc_peak = 0u32;

            for i in row_lo..row_hi {
                let (m_cols, m_vals) = arena.row(i);
                left_bytes += m_cols.len() as f64 * fetch_b;
                for (&k, &m_ik) in m_cols.iter().zip(m_vals) {
                    // ---- stationary-operand row fetch through the window ----
                    if !resident.contains(k) {
                        let row_bytes = arena.row_nnz(k) as f64 * elem_b;
                        let dram_bytes = arena.row_nnz(k) as f64 * fetch_b;
                        if ever_loaded.insert(k) {
                            step_demand += dram_bytes;
                        } else {
                            step_refetch += dram_bytes;
                        }
                        resident.insert(k);
                        fifo.push_back(k);
                        resident_bytes += row_bytes;
                        while resident_bytes > residency_budget && fifo.len() > 1 {
                            let victim = fifo.pop_front().expect("fifo non-empty");
                            if resident.remove(victim) {
                                let victim_nnz = arena.row_nnz(victim);
                                resident_bytes -= victim_nnz as f64 * elem_b;
                                evicted_elements += victim_nnz as u64;
                            }
                        }
                    }
                    // ---- Gustavson merge (exact tensor::spgemm arithmetic) ----
                    let (b_cols, b_vals) = arena.row(k);
                    step_products += b_cols.len() as u64;
                    for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                        let j_us = j as usize;
                        if acc[j_us] == zero && !touched.contains(&j) {
                            touched.push(j);
                        }
                        acc[j_us] = semiring.add(acc[j_us], semiring.mul(m_ik, b_kj));
                    }
                }
                step_acc_peak = step_acc_peak.max(touched.len() as u32);
                touched.sort_unstable();
                for &j in &touched {
                    let v = acc[j as usize];
                    if v != zero {
                        entries.push((i, j, v));
                        step_out_entries += 1;
                    }
                    acc[j as usize] = zero;
                }
                touched.clear();
            }

            products_total += step_products;
            peak_acc_cols = peak_acc_cols.max(step_acc_peak);

            // ---- Traffic accounting (engine-order: demand, refetch, vector
            // read, write-back — each emitted event carries the exact `f64`
            // increment added here, so the audit replays bitwise) ----
            let c_bytes = step_out_entries as f64 * fetch_b;
            let vec_read = share * (left_bytes + riders * 2.0 * c_bytes);
            let writeback = share * (c_bytes + riders * c_bytes);
            traffic.csc_bytes += step_demand;
            traffic.refetch_bytes += step_refetch;
            traffic.vector_bytes += vec_read;
            traffic.writeback_bytes += writeback;
            if S::ENABLED {
                let step = s as u32;
                if step_demand > 0.0 {
                    sink.emit(TraceEvent::DramRead {
                        addr: ev_demand_addr,
                        bytes: step_demand,
                        class: TrafficClass::CscDemand,
                        step,
                    });
                    ev_demand_addr += step_demand as u64;
                }
                if step_refetch > 0.0 {
                    sink.emit(TraceEvent::DramRead {
                        addr: 1 << 40,
                        bytes: step_refetch,
                        class: TrafficClass::Refetch,
                        step,
                    });
                }
                if vec_read > 0.0 {
                    sink.emit(TraceEvent::DramRead {
                        addr: ev_vec_addr,
                        bytes: vec_read,
                        class: TrafficClass::VectorRead,
                        step,
                    });
                    ev_vec_addr += vec_read as u64;
                }
                if writeback > 0.0 {
                    sink.emit(TraceEvent::DramWrite {
                        addr: ev_vec_addr,
                        bytes: writeback,
                        class: TrafficClass::Writeback,
                        step,
                    });
                    ev_vec_addr += writeback as u64;
                }
            }

            // ---- Stage costs ----
            let step_os_ops = share * step_products as f64 * 2.0;
            let step_is_ops = share * step_out_entries as f64;
            let step_ew_ops = share * riders * step_out_entries as f64;
            let os_cycles = step_os_ops / (2.0 * pes);
            let is_cycles = step_is_ops * ACC_SCATTER / (2.0 * pes);
            let ew_cycles = step_ew_ops / pes;
            let mem_bytes = step_demand + step_refetch + vec_read + writeback;
            let mem_cycles = mem_bytes / bpc;
            let step_cycles = os_cycles
                .max(is_cycles)
                .max(ew_cycles)
                .max(mem_cycles)
                .max(step_floor);

            sram_bytes += 2.0 * mem_bytes;
            let occupancy = resident_bytes + step_acc_peak as f64 * ACC_BYTES_PER_COL;
            buffer_peak = buffer_peak.max(occupancy);
            occupancy_sum += occupancy;
            os_ops += step_os_ops;
            is_ops += step_is_ops;
            ew_ops += step_ew_ops;
            total_cycles += step_cycles;
            if S::ENABLED {
                sink.emit(TraceEvent::StepEnd {
                    step: s as u32,
                    cycles: step_cycles,
                    occupancy_bytes: occupancy,
                });
            }
            steps_out.push(StepSample {
                cycles: step_cycles,
                csc_bytes: step_demand + step_refetch,
                csr_bytes: 0.0,
                vec_bytes: vec_read + writeback,
                occupancy_bytes: occupancy,
            });
        }

        // Pipeline fill/drain.
        let avg_step = total_cycles / steps as f64;
        total_cycles += PIPELINE_STAGES * avg_step;

        let result = CooMatrix::from_entries(n, n, entries)
            .expect("coordinates in range")
            .to_csr();
        let out_nnz = result.nnz() as u64;
        MxmOutcome {
            stats: MxmStats {
                intermediate_nnz: products_total,
                out_nnz,
                peak_accumulator_cols: peak_acc_cols,
                expansion_factor: products_total as f64 / (nnz as f64).max(1.0),
            },
            result,
            pass: PassResult {
                cycles: total_cycles,
                traffic,
                steps: steps_out,
                evictions: evicted_elements,
                repacks: 0,
                buffer_peak_bytes: buffer_peak,
                buffer_avg_bytes: occupancy_sum / steps as f64,
                os_ops,
                ew_ops,
                is_ops,
                sram_bytes,
            },
        }
    }
}

pub mod benchjson {
    //! Flat-JSON telemetry recording for `BENCH_*.json` files.
    //!
    //! The vendored `serde_json` stand-in serializes but cannot parse,
    //! so merging a new key into an existing telemetry file is done with
    //! a purpose-built scanner over the top-level object: each call to
    //! [`record`] upserts one `"key": value` pair and rewrites the file
    //! with stable two-space indentation.

    use std::io;
    use std::path::Path;

    /// Upserts `"key": value_json` into the flat JSON object stored at
    /// `path` (creating the file if missing) and rewrites it. `value_json`
    /// must already be valid JSON text (number, string, object, …); it is
    /// stored verbatim. Returns `InvalidData` if the existing file is not
    /// a JSON object.
    pub fn record(path: &Path, key: &str, value_json: &str) -> io::Result<()> {
        let existing = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut pairs = parse_flat(&existing).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a flat JSON object", path.display()),
            )
        })?;
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value_json.to_string(),
            None => pairs.push((key.to_string(), value_json.to_string())),
        }
        std::fs::write(path, render(&pairs))
    }

    /// Splits the top-level object in `src` into `(key, raw value text)`
    /// pairs. Returns `None` if `src` is not a JSON object (an empty or
    /// whitespace-only file counts as the empty object).
    fn parse_flat(src: &str) -> Option<Vec<(String, String)>> {
        let s = src.trim();
        if s.is_empty() {
            return Some(Vec::new());
        }
        if !s.starts_with('{') || !s.ends_with('}') {
            return None;
        }
        let inner = &s[1..s.len() - 1];
        let b = inner.as_bytes();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < b.len() {
            while i < b.len() && (b[i].is_ascii_whitespace() || b[i] == b',') {
                i += 1;
            }
            if i >= b.len() {
                break;
            }
            let (key, after_key) = scan_string(inner, i)?;
            i = after_key;
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= b.len() || b[i] != b':' {
                return None;
            }
            i += 1;
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            let start = i;
            let mut depth = 0u32;
            while i < b.len() {
                match b[i] {
                    b'"' => {
                        let (_, after) = scan_string(inner, i)?;
                        i = after;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => depth = depth.checked_sub(1)?,
                    b',' if depth == 0 => break,
                    _ => {}
                }
                i += 1;
            }
            if i == start {
                return None;
            }
            pairs.push((key, inner[start..i].trim_end().to_string()));
        }
        Some(pairs)
    }

    /// Scans the JSON string literal starting at byte offset `at` (the
    /// opening quote); returns its unescaped-enough content (escape
    /// sequences are kept verbatim) and the offset just past the closing
    /// quote.
    fn scan_string(s: &str, at: usize) -> Option<(String, usize)> {
        let b = s.as_bytes();
        if b.get(at) != Some(&b'"') {
            return None;
        }
        let mut i = at + 1;
        while i < b.len() {
            match b[i] {
                b'\\' => i += 2,
                b'"' => return Some((s[at + 1..i].to_string(), i + 1)),
                _ => i += 1,
            }
        }
        None
    }

    fn render(pairs: &[(String, String)]) -> String {
        if pairs.is_empty() {
            return "{}\n".to_string();
        }
        let mut out = String::from("{\n");
        for (idx, (k, v)) in pairs.iter().enumerate() {
            out.push_str("  \"");
            out.push_str(k);
            out.push_str("\": ");
            out.push_str(v);
            if idx + 1 < pairs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }

    #[cfg(test)]
    mod tests {
        use super::{parse_flat, render};

        #[test]
        fn empty_and_missing_files_are_the_empty_object() {
            assert_eq!(parse_flat("").unwrap(), Vec::new());
            assert_eq!(parse_flat("  \n").unwrap(), Vec::new());
            assert_eq!(render(&[]), "{}\n");
        }

        #[test]
        fn nested_values_survive_a_round_trip() {
            let src =
                "{\n  \"a\": 1,\n  \"b\": {\"x\": [1, 2], \"y\": \"s,}\"},\n  \"c\": -0.5\n}\n";
            let pairs = parse_flat(src).unwrap();
            assert_eq!(pairs.len(), 3);
            assert_eq!(pairs[0], ("a".to_string(), "1".to_string()));
            assert_eq!(pairs[1].1, "{\"x\": [1, 2], \"y\": \"s,}\"}");
            assert_eq!(parse_flat(&render(&pairs)).unwrap(), pairs);
        }

        #[test]
        fn non_objects_are_rejected() {
            assert!(parse_flat("[1, 2]").is_none());
            assert!(parse_flat("{\"a\" 1}").is_none());
        }

        #[test]
        fn record_upserts_in_place() {
            let dir = std::env::temp_dir().join("sparsepipe-testutil-benchjson");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("bench.json");
            let _ = std::fs::remove_file(&path);
            super::record(&path, "alpha", "1").unwrap();
            super::record(&path, "beta", "{\"w\": 2.5}").unwrap();
            super::record(&path, "alpha", "3").unwrap();
            let back = std::fs::read_to_string(&path).unwrap();
            assert_eq!(back, "{\n  \"alpha\": 3,\n  \"beta\": {\"w\": 2.5}\n}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_respect_bounds() {
        let mut rng = proptest::TestRng::deterministic("testutil::strategies_respect_bounds");
        for _ in 0..32 {
            let m = coo_matrix(24, 60).sample_value(&mut rng);
            assert!(m.nrows() >= 2 && m.nrows() < 24);
            assert_eq!(m.nrows(), m.ncols());
            for &(r, c, v) in m.entries() {
                assert!(r < m.nrows() && c < m.ncols());
                assert!(v.abs() < 60.0 * 4.0);
            }
            let p = coo_matrix_positive(24, 60).sample_value(&mut rng);
            for &(_, _, v) in p.entries() {
                assert!(v > 0.0);
            }
        }
    }

    #[test]
    fn einsum_generators_are_deterministic_and_ascii_where_promised() {
        for seed in 0..64 {
            let w = einsum::well_formed(seed);
            assert_eq!(w, einsum::well_formed(seed));
            assert!(w.is_ascii(), "well-formed must stay ASCII: {w}");
            assert!(w.contains('='), "no assignment in {w}");
            let h = einsum::hostile(seed);
            assert_eq!(h, einsum::hostile(seed));
        }
        let big = einsum::huge(1 << 20, 3);
        assert!(big.len() >= 1 << 20);
        assert_eq!(big, einsum::huge(1 << 20, 3));
    }

    #[test]
    fn corpus_builders_are_deterministic_and_in_bounds() {
        let a = corpus::block_diagonal(64, 16, 200, 9);
        let b = corpus::block_diagonal(64, 16, 200, 9);
        assert_eq!(a, b);
        for &(r, c, _) in a.entries() {
            assert_eq!(r / 16, c / 16, "entry ({r},{c}) crosses a block");
        }
        let e = corpus::with_empty_rows_and_cols(64, 200, 9);
        for &(r, c, _) in e.entries() {
            assert_ne!(r % 4, 3);
            assert_ne!(c % 4, 3);
        }
        assert!(e.nnz() > 0);
    }

    #[test]
    fn spgemm_corpus_builders_hold_their_invariants() {
        // triangle-heavy: symmetric, boolean, and actually rich in
        // triangles (every seeded clique closes at least one).
        let t = corpus::triangle_heavy(48, 60, 11);
        assert_eq!(t, corpus::triangle_heavy(48, 60, 11));
        let has = |r: u32, c: u32| t.entries().iter().any(|&(rr, cc, _)| rr == r && cc == c);
        let mut triangles = 0usize;
        for &(r, c, v) in t.entries() {
            assert_eq!(v, 1.0, "({r},{c}) not boolean");
            assert_ne!(r, c, "self loop at {r}");
            assert!(has(c, r), "({r},{c}) not symmetric");
            triangles += t
                .entries()
                .iter()
                .filter(|&&(a, b, _)| a == c && b != r && has(b, r))
                .count();
        }
        assert!(triangles > 0, "no triangles in a triangle-heavy graph");

        // power-law rows: the heaviest row dominates the median row.
        let p = corpus::power_law_rows(64, 640, 1.5, 12);
        let mut degs = vec![0usize; 64];
        for &(r, _, _) in p.entries() {
            degs[r as usize] += 1;
        }
        let max = *degs.iter().max().unwrap();
        degs.sort_unstable();
        assert!(
            max >= 4 * degs[32].max(1),
            "row degrees too flat: max {max}, median {}",
            degs[32]
        );

        // boolean adjacency: off-diagonal, deduplicated, all-ones.
        let b = corpus::boolean_adjacency(32, 200, 13);
        assert!(b.nnz() > 0);
        let mut seen = std::collections::HashSet::new();
        for &(r, c, v) in b.entries() {
            assert_eq!(v, 1.0);
            assert_ne!(r, c);
            assert!(seen.insert((r, c)), "duplicate ({r},{c})");
        }
    }

    #[test]
    fn edge_case_suite_covers_the_named_structures() {
        let suite = corpus::edge_case_suite(32);
        let names: Vec<&str> = suite.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"empty"));
        assert!(names.contains(&"anti_diagonal"));
        assert!(names.contains(&"block_diagonal"));
        assert!(names.contains(&"empty_rows_cols"));
        for (name, m) in &suite {
            assert_eq!(m.nrows(), 32, "{name}");
            if *name == "zero_rows_rect" {
                assert_eq!(m.ncols(), 16, "{name} must stay rectangular");
            } else {
                assert_eq!(m.ncols(), 32, "{name}");
            }
        }
        let empty = suite.iter().find(|(n, _)| *n == "empty").unwrap();
        assert_eq!(empty.1.nnz(), 0);

        // The rectangular entry keeps its defining property: every odd
        // row is completely empty, and some even row is populated.
        let rect = &suite
            .iter()
            .find(|(n, _)| *n == "zero_rows_rect")
            .unwrap()
            .1;
        assert!(rect.nnz() > 0);
        for &(r, c, _) in rect.entries() {
            assert_eq!(r % 2, 0, "odd row {r} must be all-zero");
            assert!(c < 16);
        }
    }

    #[test]
    fn config_with_prefers_env_override() {
        // Can't mutate the environment safely in a parallel test binary;
        // just check the defaults thread through.
        if std::env::var("PROPTEST_CASES").is_err() {
            assert_eq!(config().cases, DEFAULT_CASES);
            assert_eq!(config_with(256).cases, 256);
        }
    }
}
