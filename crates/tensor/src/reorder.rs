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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{CooMatrix, CsrMatrix};

/// Greedy locality-maximizing ordering in the spirit of GraphOrder \[61\].
///
/// Vertices are placed one at a time; each step picks the unplaced vertex
/// with the most neighbors among the last `window` placed vertices (its
/// *score*), ties broken by higher degree, then lower index.
///
/// Scores are bounded by `min(window, max degree)`, so the placement
/// queue is one bucket per score level: each level is a lazy min-heap of
/// `u32` ranks in the fixed (degree desc, index asc) order, with a pointer
/// to the highest non-empty level. Level 0 is a cursor over that rank
/// order plus a small heap of vertices whose score fell back to 0. Every
/// edge changes a score at most twice (once entering, once leaving the
/// window), so there are at most `4 · nnz` pushes, and a level purges its
/// stale entries whenever it doubles. The run is `O(nnz · log n)` time
/// and `O(n + nnz)` memory; intended for offline preprocessing.
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
    let mut adj = Adjacency::undirected(m);

    // order[rank] = vertex, ranked by (degree desc, index asc); a stable
    // sort keeps equal degrees in index order. The placement loop works
    // on ranks throughout, so neighbor lists are relabeled to ranks.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| Reverse(adj.degree(v)));
    let mut rank = vec![0u32; n];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    for u in &mut adj.neighbors {
        *u = rank[*u as usize];
    }
    let max_degree = adj.degree(order[0]);

    // score[r] = number of r's neighbors among the last `window` placed,
    // or PLACED once r itself is placed.
    let mut score = vec![0u32; n];
    let mut perm = vec![0u32; n];
    // sequence[position] = vertex placed there (the window's history).
    let mut sequence: Vec<u32> = Vec::with_capacity(n);
    let mut queue = ScoreQueue::new(window.min(max_degree));

    for position in 0..n {
        let r = queue.pop(&score);
        score[r as usize] = PLACED;
        let v = order[r as usize];
        perm[v as usize] = position as u32;
        sequence.push(v);

        // The vertex falling out of the window lowers its unplaced
        // neighbors' scores.
        if position >= window {
            for &u in adj.row(sequence[position - window]) {
                if score[u as usize] != PLACED {
                    score[u as usize] -= 1;
                    queue.push(u, &score);
                }
            }
        }
        for &u in adj.row(v) {
            if score[u as usize] != PLACED {
                score[u as usize] += 1;
                queue.push(u, &score);
            }
        }
    }
    perm
}

/// The score of a placed vertex: above every level, so never live.
const PLACED: u32 = u32::MAX;

/// The GraphOrder placement queue: per-score buckets of vertex ranks.
///
/// Entries are lazy: a rank is re-pushed at its new level whenever its
/// score changes, and an entry is stale (skipped on pop) once its vertex
/// is placed or has left that level.
struct ScoreQueue {
    /// `levels[s]` holds ranks pushed at score `s`; `levels[0]` only those
    /// whose score fell back to 0 (the rest are reached by `cursor`).
    levels: Vec<Level>,
    /// Highest level that may hold a live entry.
    top: usize,
    /// Next rank to consider among vertices that were never pushed.
    cursor: usize,
}

/// One score level: a lazy min-heap of ranks, purged of stale entries
/// whenever it outgrows `limit`.
struct Level {
    heap: BinaryHeap<Reverse<u32>>,
    limit: usize,
}

/// Floor of a level's purge limit, so near-empty levels are not purged
/// on every push.
const LEVEL_SLACK: usize = 16;

impl ScoreQueue {
    fn new(max_score: usize) -> Self {
        ScoreQueue {
            levels: (0..=max_score)
                .map(|_| Level {
                    heap: BinaryHeap::new(),
                    limit: LEVEL_SLACK,
                })
                .collect(),
            top: 0,
            cursor: 0,
        }
    }

    /// Files `rank` under its current score. Most entries go stale (a
    /// vertex's score moves up and down as the window slides past its
    /// neighbors), so a level that reaches its limit first drops its
    /// stale entries and doubles what is left: each heap stays within
    /// about twice its live entries at amortized `O(1)` purge cost.
    fn push(&mut self, rank: u32, score: &[u32]) {
        let level = score[rank as usize] as usize;
        let Level { heap, limit } = &mut self.levels[level];
        if heap.len() >= *limit {
            heap.retain(|&Reverse(r)| score[r as usize] as usize == level);
            *limit = 2 * heap.len() + LEVEL_SLACK;
        }
        heap.push(Reverse(rank));
        self.top = self.top.max(level);
    }

    /// Removes and returns the live rank with the highest score and,
    /// among those, the lowest rank. `score` is indexed by rank.
    fn pop(&mut self, score: &[u32]) -> u32 {
        while self.top > 0 {
            let level = self.top as u32;
            let heap = &mut self.levels[self.top].heap;
            while let Some(Reverse(rank)) = heap.pop() {
                if score[rank as usize] == level {
                    return rank;
                }
            }
            self.top -= 1;
        }
        while score.get(self.cursor).is_some_and(|&s| s != 0) {
            self.cursor += 1;
        }
        let zeros = &mut self.levels[0].heap;
        while zeros
            .peek()
            .is_some_and(|&Reverse(r)| score[r as usize] != 0)
        {
            zeros.pop();
        }
        match zeros.peek() {
            Some(&Reverse(rank)) if rank as usize <= self.cursor => {
                zeros.pop();
                rank
            }
            _ => {
                assert!(
                    self.cursor < score.len(),
                    "an unplaced vertex remains while positions remain"
                );
                self.cursor as u32
            }
        }
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
    let adj = Adjacency::undirected(m);
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

/// Loop-free undirected adjacency (union of out- and in-edges) in CSR
/// shape: `neighbors[ptr[v]..ptr[v + 1]]` are `v`'s distinct neighbors,
/// ascending.
struct Adjacency {
    ptr: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Adjacency {
    /// Two-pass counting sort of both edge directions into rows, then a
    /// per-row sort and in-place dedup.
    fn undirected(m: &CsrMatrix) -> Self {
        let n = m.nrows() as usize;
        let mut ptr = vec![0usize; n + 1];
        for (r, c, _) in m.iter() {
            if r != c {
                ptr[r as usize + 1] += 1;
                ptr[c as usize + 1] += 1;
            }
        }
        for v in 0..n {
            ptr[v + 1] += ptr[v];
        }
        let mut fill = ptr[..n].to_vec();
        let mut neighbors = vec![0u32; ptr[n]];
        for (r, c, _) in m.iter() {
            if r != c {
                neighbors[fill[r as usize]] = c;
                fill[r as usize] += 1;
                neighbors[fill[c as usize]] = r;
                fill[c as usize] += 1;
            }
        }
        // Compact each sorted row over the gaps its duplicates leave.
        let mut kept = 0;
        let mut start = 0;
        for v in 0..n {
            let end = ptr[v + 1];
            neighbors[start..end].sort_unstable();
            ptr[v] = kept;
            for i in start..end {
                if i == start || neighbors[i] != neighbors[i - 1] {
                    neighbors[kept] = neighbors[i];
                    kept += 1;
                }
            }
            start = end;
        }
        ptr[n] = kept;
        neighbors.truncate(kept);
        Adjacency { ptr, neighbors }
    }

    fn row(&self, v: u32) -> &[u32] {
        &self.neighbors[self.ptr[v as usize]..self.ptr[v as usize + 1]]
    }

    fn degree(&self, v: u32) -> usize {
        self.ptr[v as usize + 1] - self.ptr[v as usize]
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
