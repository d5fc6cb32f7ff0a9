//! Sparse tensor preprocessing: row reordering (§IV-E1 of the paper).
//!
//! Sparsepipe reorders the input matrix offline to improve the locality of
//! its non-zero distribution: shorter `|r − c|` spans mean shorter OEI live
//! windows, less buffer pressure, and fewer Out-Of-Memory evictions. The
//! paper uses two algorithms:
//!
//! * the **GraphOrder** algorithm of Wei et al. \[61\] — approximated here
//!   by [`graph_order`], a greedy placement that maximizes the number of
//!   already-placed neighbors within a sliding window (the same objective
//!   GraphOrder calls the *GScore*);
//! * a **vanilla** heuristic ([`vanilla_triangular`]) that "aims to reorder
//!   the sparse matrix towards an upper triangular matrix with simple
//!   heuristics" — implemented as repeated barycenter sweeps that move each
//!   vertex toward the average position of its neighbors.
//!
//! Both return a permutation `perm` with `perm[old] = new`, applied
//! symmetrically via [`CooMatrix::permute_symmetric`].
//!
//! [`graph_order`] is the offline step every dataset takes, so nothing in
//! it sorts: a pass over the CSR input counts each vertex's distinct
//! neighbors (an entry stored in both directions is found by a binary
//! search of its mirror's sorted row), vertices are ranked by a stable
//! counting sort on degree, the undirected adjacency is counting-sorted
//! straight into rank order, and the placement queue is an exact bucket
//! queue — one bitset of ranks per score level, all in one allocation. A score change costs `O(1)` (one bit moves to
//! the adjacent level); a pop scans the summary words (one per 64 bitset
//! words) of the highest non-empty level from its low-word hint. The
//! queue's bitsets take at most `(min(window, max_degree) + 1) · n / 8`
//! bytes (each level rounded up to whole words), and its summaries 1/64
//! of that.

use crate::{CooMatrix, CsrMatrix};

/// Greedy locality-maximizing ordering in the spirit of GraphOrder \[61\].
///
/// Vertices are placed one at a time; each step picks the unplaced vertex
/// with the most neighbors among the last `window` placed vertices (its
/// *score*), ties broken by higher degree, then lower index.
///
/// Vertices are ranked once by (degree desc, index asc) with a stable
/// counting sort, the adjacency is built with rows and neighbors in rank
/// order, and the placement queue keeps one bitset of ranks per
/// score level (see `ScoreBuckets`): a score change moves one bit between
/// adjacent levels in `O(1)`, and a pop takes the lowest set bit of the
/// highest non-empty level, found by scanning one summary word per 64
/// bitset words. Every edge changes a score at most twice (once entering,
/// once leaving the window), so the run is `O(nnz)` score changes plus
/// `n` pops, each scanning summary words from the level's low-word hint.
/// A vertex never scores above its degree, so level `s` only spans the
/// ranks of vertices of degree `≥ s`: the bitsets hold at most
/// `n + Σ_v min(deg v, window)` bits, within
/// `(min(window, max_degree) + 1) · n / 8` bytes (each level rounded up
/// to whole words), beside the `O(n + nnz)` adjacency. Intended for
/// offline preprocessing.
///
/// Returns the permutation `perm[old] = new`.
///
/// # Example
///
/// ```
/// use sparsepipe_tensor::{gen, reorder};
/// let m = gen::uniform(64, 64, 256, 9);
/// let perm = reorder::graph_order(&m.to_csr(), 8);
/// let mut sorted = perm.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, (0..64).collect::<Vec<u32>>()); // a true permutation
/// ```
pub fn graph_order(m: &CsrMatrix, window: usize) -> Vec<u32> {
    let n = m.nrows() as usize;
    assert_eq!(m.nrows(), m.ncols(), "reordering needs a square matrix");
    if n == 0 {
        return Vec::new();
    }
    let window = window.max(1);
    let edges = UndirectedEdges::of(m);

    // order[rank] = vertex, ranked by (degree desc, index asc): a stable
    // counting sort over degrees. at_least[d] starts as the first rank of
    // degree d and ends as the number of vertices of degree ≥ d.
    let degree = &edges.degree;
    let max_degree = degree.iter().copied().max().unwrap_or(0) as usize;
    let mut at_least = vec![0u32; max_degree + 2];
    for &d in degree {
        at_least[d as usize] += 1;
    }
    let mut above = 0;
    for d in (0..=max_degree).rev() {
        let count = at_least[d];
        at_least[d] = above;
        above += count;
    }
    let mut order = vec![0u32; n];
    let mut rank = vec![0u32; n];
    for (v, &d) in degree.iter().enumerate() {
        let next = &mut at_least[d as usize];
        order[*next as usize] = v as u32;
        rank[v] = *next;
        *next += 1;
    }
    // The placement loop works on ranks throughout, so the adjacency is
    // built in rank order: row r lists rank r's neighbors as ranks.
    let adj = Adjacency::new(m, &edges, &rank);
    drop(rank);

    // Rank 0 has the top degree and is placed first, at score 0, so no
    // vertex still unplaced after it can score above the runner-up's
    // degree.
    let runner_up = order.get(1).map_or(0, |&v| degree[v as usize] as usize);
    let mut queue = ScoreBuckets::new(&at_least[..=window.min(runner_up)]);
    drop(edges);
    // score[r] = number of r's neighbors among the last `window` placed,
    // or PLACED once r itself is placed.
    let mut score = vec![0u32; n];
    let mut perm = vec![0u32; n];
    // sequence[position] = rank placed there (the window's history).
    let mut sequence: Vec<u32> = Vec::with_capacity(n);

    for position in 0..n {
        let r = queue.pop();
        score[r as usize] = PLACED;
        perm[order[r as usize] as usize] = position as u32;
        sequence.push(r);

        // The vertex falling out of the window lowers its unplaced
        // neighbors' scores.
        if position >= window {
            for &u in adj.row(sequence[position - window]) {
                let s = &mut score[u as usize];
                if *s != PLACED {
                    queue.demote(u, *s as usize);
                    *s -= 1;
                }
            }
        }
        for &u in adj.row(r) {
            let s = &mut score[u as usize];
            if *s != PLACED {
                queue.promote(u, *s as usize);
                *s += 1;
            }
        }
    }
    perm
}

/// The score of a placed vertex: above every level, so never live.
const PLACED: u32 = u32::MAX;

/// The GraphOrder placement queue: an exact bucket queue of vertex ranks,
/// one bitset per score level.
///
/// All levels share one allocation. Level `s` covers ranks `0..len[s]`,
/// where `len[s]` is the number of vertices of degree `≥ s` (the only
/// ranks that can score `s`): its bitset words are followed by one
/// summary word per 64 of them, whose bit `i` is set exactly when bitset
/// word `i` is non-zero.
struct ScoreBuckets {
    words: Vec<u64>,
    levels: Vec<Bucket>,
    /// Highest level that may hold a rank; every level above it is empty.
    top: usize,
}

/// One score level of [`ScoreBuckets`].
#[derive(Clone, Copy)]
struct Bucket {
    /// Index in `words` of the level's first bitset word.
    start: usize,
    /// Bitset words; the summary words start at `start + len`.
    len: usize,
    /// Ranks in the level.
    live: u32,
    /// Every bitset word below this one is zero.
    hint: usize,
}

impl ScoreBuckets {
    /// A queue with levels `0..len.len()`, where level `s` covers ranks
    /// `0..len[s]`, holding every rank of level 0 (all scores start at 0).
    fn new(len: &[u32]) -> Self {
        let mut levels = Vec::with_capacity(len.len());
        let mut total = 0;
        for &ranks in len {
            let words = (ranks as usize).div_ceil(64);
            levels.push(Bucket {
                start: total,
                len: words,
                live: 0,
                hint: 0,
            });
            total += words + words.div_ceil(64);
        }
        let mut queue = ScoreBuckets {
            words: vec![0; total],
            levels,
            top: 0,
        };
        let Bucket {
            start, len: words, ..
        } = queue.levels[0];
        let (bits, summary) = queue.words[start..].split_at_mut(words);
        set_prefix(bits, len[0] as usize);
        set_prefix(summary, words);
        queue.levels[0].live = len[0];
        queue
    }

    /// Moves `rank` from level `s` to level `s + 1`.
    fn promote(&mut self, rank: u32, s: usize) {
        self.remove(s, rank);
        self.insert(s + 1, rank);
        self.top = self.top.max(s + 1);
    }

    /// Moves `rank` from level `s` to level `s - 1`.
    fn demote(&mut self, rank: u32, s: usize) {
        self.remove(s, rank);
        self.insert(s - 1, rank);
    }

    fn insert(&mut self, s: usize, rank: u32) {
        let level = &mut self.levels[s];
        let w = rank as usize / 64;
        let word = level.start + w;
        if self.words[word] == 0 {
            self.words[level.start + level.len + w / 64] |= 1 << (w % 64);
        }
        self.words[word] |= 1 << (rank % 64);
        level.live += 1;
        level.hint = level.hint.min(w);
    }

    fn remove(&mut self, s: usize, rank: u32) {
        let level = &mut self.levels[s];
        let w = rank as usize / 64;
        let word = level.start + w;
        self.words[word] &= !(1 << (rank % 64));
        if self.words[word] == 0 {
            self.words[level.start + level.len + w / 64] &= !(1 << (w % 64));
        }
        level.live -= 1;
    }

    /// Removes and returns the rank with the highest score and, among
    /// those, the lowest rank.
    fn pop(&mut self) -> u32 {
        while self.levels[self.top].live == 0 {
            assert!(
                self.top > 0,
                "an unplaced vertex remains while positions remain"
            );
            self.top -= 1;
        }
        let level = &mut self.levels[self.top];
        let summary = &self.words[level.start + level.len..][..level.len.div_ceil(64)];
        let mut i = level.hint / 64;
        while summary[i] == 0 {
            i += 1;
        }
        let w = i * 64 + summary[i].trailing_zeros() as usize;
        level.hint = w;
        let rank = (w * 64) as u32 + self.words[level.start + w].trailing_zeros();
        self.remove(self.top, rank);
        rank
    }
}

/// Sets the first `bits` bits of `words`, which must hold them.
fn set_prefix(words: &mut [u64], bits: usize) {
    words[..bits / 64].fill(u64::MAX);
    let rest = bits % 64;
    if rest != 0 {
        words[bits / 64] = (1 << rest) - 1;
    }
}

/// The paper's "vanilla reorder" — barycenter sweeps that pull each vertex
/// toward the mean position of its neighbors, shrinking `|r − c|` spans and
/// pushing mass toward the diagonal (and, for asymmetric matrices, toward
/// an upper-triangular profile).
///
/// `sweeps` controls the number of refinement passes (2–4 is typical).
///
/// Returns the permutation `perm[old] = new`.
pub fn vanilla_triangular(m: &CsrMatrix, sweeps: usize) -> Vec<u32> {
    let n = m.nrows() as usize;
    assert_eq!(m.nrows(), m.ncols(), "reordering needs a square matrix");
    if n == 0 {
        return Vec::new();
    }
    // The barycenters' f64 sums follow row order, so rows are sorted.
    let mut adj = Adjacency::new(m, &UndirectedEdges::of(m), &identity(m.nrows()));
    adj.sort_rows();
    // position[v] = current coordinate of v (starts at identity).
    let mut position: Vec<f64> = (0..n).map(|v| v as f64).collect();
    for _ in 0..sweeps.max(1) {
        let barycenter: Vec<f64> = (0..n)
            .map(|v| {
                let neigh = adj.row(v as u32);
                if neigh.is_empty() {
                    position[v]
                } else {
                    neigh.iter().map(|&u| position[u as usize]).sum::<f64>() / neigh.len() as f64
                }
            })
            .collect();
        // Rank vertices by barycenter; ranks become the new positions.
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

/// Identity permutation (the "no reorder" preprocessing variant).
pub fn identity(n: u32) -> Vec<u32> {
    (0..n).collect()
}

/// Mean |row − col| span of a matrix — the locality metric the reorderings
/// try to minimize.
pub fn mean_span(m: &CooMatrix) -> f64 {
    if m.nnz() == 0 {
        return 0.0;
    }
    m.entries()
        .iter()
        .map(|&(r, c, _)| (r as i64 - c as i64).unsigned_abs() as f64)
        .sum::<f64>()
        / m.nnz() as f64
}

/// The loop-free undirected graph of a square matrix: an edge `{r, c}`
/// for every stored entry `(r, c)` with `r != c`, where a pair stored in
/// both directions is one edge.
struct UndirectedEdges {
    /// `degree[v]` = number of `v`'s distinct neighbors.
    degree: Vec<u32>,
    /// Bit `i` marks the matrix's `i`-th stored entry (CSR order) as the
    /// below-diagonal half of a pair stored both ways: its mirror above
    /// the diagonal stands for the edge.
    mirrored: Vec<u64>,
}

impl UndirectedEdges {
    /// One pass over `m`. A CSR row's columns are distinct and ascending,
    /// so an entry `(r, c)` below the diagonal finds its mirror by a
    /// binary search of row `c`, and no neighbor list is ever sorted or
    /// deduplicated.
    fn of(m: &CsrMatrix) -> Self {
        let n = m.nrows() as usize;
        let (row_ptr, col_idx) = (m.row_ptr(), m.col_idx());
        let mut degree = vec![0u32; n];
        let mut mirrored = vec![0u64; col_idx.len().div_ceil(64)];
        for r in 0..n {
            let row = row_ptr[r]..row_ptr[r + 1];
            for (i, &c) in row.clone().zip(&col_idx[row]) {
                let c = c as usize;
                if c == r {
                    continue;
                }
                if c < r
                    && col_idx[row_ptr[c]..row_ptr[c + 1]]
                        .binary_search(&(r as u32))
                        .is_ok()
                {
                    mirrored[i / 64] |= 1 << (i % 64);
                    continue;
                }
                degree[r] += 1;
                degree[c] += 1;
            }
        }
        UndirectedEdges { degree, mirrored }
    }
}

/// An [`UndirectedEdges`] graph in CSR shape under a relabeling `label`
/// of its vertices: `neighbors[ptr[k]..ptr[k + 1]]` are the labels of the
/// distinct neighbors of the vertex labeled `k`, in no particular order
/// (ascending after [`Self::sort_rows`]).
struct Adjacency {
    ptr: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Adjacency {
    /// A counting sort of every edge, in both directions, into the rows
    /// of its endpoints' labels; `label` must be a permutation.
    fn new(m: &CsrMatrix, edges: &UndirectedEdges, label: &[u32]) -> Self {
        let n = label.len();
        let mut ptr = vec![0usize; n + 1];
        for (v, &d) in edges.degree.iter().enumerate() {
            ptr[label[v] as usize + 1] = d as usize;
        }
        for k in 0..n {
            ptr[k + 1] += ptr[k];
        }
        let mut fill = ptr[..n].to_vec();
        let mut neighbors = vec![0u32; ptr[n]];
        let (row_ptr, col_idx) = (m.row_ptr(), m.col_idx());
        for r in 0..n {
            let a = label[r];
            // Only this row's own entries append to row `a` while it is
            // scanned (each mirror write goes to `label[c]`, `c != r`),
            // so row `a`'s fill position can stay in `next`.
            let mut next = fill[a as usize];
            let row = row_ptr[r]..row_ptr[r + 1];
            for (i, &c) in row.clone().zip(&col_idx[row]) {
                let c = c as usize;
                if c == r || edges.mirrored[i / 64] & (1 << (i % 64)) != 0 {
                    continue;
                }
                let b = label[c];
                neighbors[next] = b;
                next += 1;
                neighbors[fill[b as usize]] = a;
                fill[b as usize] += 1;
            }
            fill[a as usize] = next;
        }
        Adjacency { ptr, neighbors }
    }

    /// Sorts every row ascending.
    fn sort_rows(&mut self) {
        for k in 0..self.ptr.len() - 1 {
            self.neighbors[self.ptr[k]..self.ptr[k + 1]].sort_unstable();
        }
    }

    fn row(&self, k: u32) -> &[u32] {
        &self.neighbors[self.ptr[k as usize]..self.ptr[k as usize + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn assert_is_permutation(perm: &[u32]) {
        let mut sorted: Vec<u32> = perm.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..perm.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn graph_order_returns_permutation() {
        let m = gen::power_law(200, 1600, 1.0, 0.3, 5).to_csr();
        let perm = graph_order(&m, 16);
        assert_is_permutation(&perm);
    }

    #[test]
    fn vanilla_returns_permutation() {
        let m = gen::uniform(150, 150, 900, 6).to_csr();
        let perm = vanilla_triangular(&m, 3);
        assert_is_permutation(&perm);
    }

    #[test]
    fn vanilla_improves_locality_of_shuffled_band() {
        // A banded matrix destroyed by a random relabeling: barycenter
        // sweeps must recover most of the band.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let band = gen::banded(400, 4000, 6, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let mut shuffle: Vec<u32> = (0..400).collect();
        shuffle.shuffle(&mut rng);
        let scrambled = band.permute_symmetric(&shuffle);
        let before = mean_span(&scrambled);

        let perm = vanilla_triangular(&scrambled.to_csr(), 12);
        let restored = scrambled.permute_symmetric(&perm);
        let after = mean_span(&restored);
        assert!(
            after < before * 0.5,
            "vanilla reorder did not improve locality: {before} -> {after}"
        );
    }

    #[test]
    fn graph_order_groups_neighbors() {
        // Two disjoint cliques scrambled together: graph_order must place
        // each clique contiguously (low mean span).
        let mut entries = Vec::new();
        for base in [0u32, 20] {
            for i in 0..20u32 {
                for j in 0..20u32 {
                    if i != j {
                        // interleave the two cliques: vertex ids 2k / 2k+1
                        entries.push((2 * i + base / 20, 2 * j + base / 20, 1.0));
                    }
                }
            }
        }
        let m = CooMatrix::from_entries(40, 40, entries).unwrap();
        let before = mean_span(&m);
        let perm = graph_order(&m.to_csr(), 8);
        let after = mean_span(&m.permute_symmetric(&perm));
        assert!(
            after < before,
            "graph_order did not group cliques: {before} -> {after}"
        );
    }

    #[test]
    fn identity_is_noop() {
        let m = gen::uniform(50, 50, 200, 2);
        let p = identity(50);
        assert_eq!(m.permute_symmetric(&p), m);
    }

    #[test]
    fn reorder_preserves_structure() {
        // Reordering is a relabeling: degree multiset must be unchanged.
        let m = gen::power_law(120, 800, 1.2, 0.4, 9);
        let perm = graph_order(&m.to_csr(), 8);
        let p = m.permute_symmetric(&perm);
        assert_eq!(p.nnz(), m.nnz());
        let degs = |mat: &CooMatrix| {
            let csr = mat.to_csr();
            let mut d: Vec<usize> = (0..csr.nrows()).map(|r| csr.row_nnz(r)).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degs(&m), degs(&p));
    }
}
