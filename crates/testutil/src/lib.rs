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
