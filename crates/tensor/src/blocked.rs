//! Blocked dual sparse storage (§IV-E2 of the paper).
//!
//! The naive dual storage of [`crate::DualStorage`] has two drawbacks the
//! paper calls out: (a) the CSC and CSR copies duplicate the data array, and
//! (b) every coordinate costs at least 4 bytes. The blocked format (the
//! paper's UOP-CP-CP FiberTree layout) fixes both:
//!
//! * The matrix is partitioned into [`BLOCK_DIM`]×[`BLOCK_DIM`] tiles; only
//!   non-empty tiles are materialized. Within a tile, a coordinate fits in
//!   **one byte** per dimension ("a single byte can store a coordinate
//!   within any block that has a size up to 256, which saves 4× space").
//! * Both the CSC-of-blocks and CSR-of-blocks index structures store 4-byte
//!   *block pointers* into a **shared** entry array, so values and in-block
//!   coordinates exist only once ("quantity of non-zero blocks is
//!   significantly less than non-zero values, allowing CSR and CSC format to
//!   have less redundancy").

use serde::{Deserialize, Serialize};

use crate::CooMatrix;

/// Side length of a sparse block; chosen so an in-block coordinate fits in
/// one byte.
pub const BLOCK_DIM: u32 = 256;

/// One non-empty tile of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Block {
    /// Tile coordinates (block row, block col).
    brow: u32,
    bcol: u32,
    /// Range into the shared entry arrays.
    start: usize,
    end: usize,
}

/// A sparse matrix in blocked dual storage: a shared entry pool plus two
/// block-granular index structures (column-major and row-major block order).
///
/// # Example
///
/// ```
/// use sparsepipe_tensor::{BlockedDualStorage, CooMatrix, DualStorage};
/// let coo = CooMatrix::from_entries(600, 600, vec![(0, 0, 1.0), (300, 599, 2.0)])?;
/// let blocked = BlockedDualStorage::from_coo(&coo);
/// assert_eq!(blocked.nnz(), 2);
/// // Blocked storage is a lossless encoding:
/// assert_eq!(blocked.to_coo(), coo);
/// // ... and much smaller than the naive dual image:
/// assert!(blocked.storage_bytes() < DualStorage::from_coo(&coo).storage_bytes());
/// # Ok::<(), sparsepipe_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockedDualStorage {
    nrows: u32,
    ncols: u32,
    /// Shared entry pool: in-block coordinates (1 byte each) and values,
    /// grouped by block, blocks in column-major block order.
    local_r: Vec<u8>,
    local_c: Vec<u8>,
    vals: Vec<f64>,
    /// Non-empty blocks in column-major block order (the CSC-of-blocks
    /// entry order).
    blocks: Vec<Block>,
    /// CSC-of-blocks: for each block column, the range of `blocks`.
    bcol_ptr: Vec<usize>,
    /// CSR-of-blocks: block indices (into `blocks`) ordered row-major, plus
    /// per-block-row pointers. Only 4-byte pointers are duplicated, not
    /// entry data.
    brow_blocks: Vec<u32>,
    brow_ptr: Vec<usize>,
}

impl BlockedDualStorage {
    /// Builds blocked dual storage from a COO matrix.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let nbrows = nrows.div_ceil(BLOCK_DIM);
        let nbcols = ncols.div_ceil(BLOCK_DIM);

        // Sort entries by (block col, block row, local col, local row):
        // column-major block order with column-major order inside blocks.
        let mut entries: Vec<(u32, u32, f64)> = coo.entries().to_vec();
        entries.sort_unstable_by_key(|&(r, c, _)| {
            (c / BLOCK_DIM, r / BLOCK_DIM, c % BLOCK_DIM, r % BLOCK_DIM)
        });

        let mut local_r = Vec::with_capacity(entries.len());
        let mut local_c = Vec::with_capacity(entries.len());
        let mut vals = Vec::with_capacity(entries.len());
        let mut blocks: Vec<Block> = Vec::new();
        for (i, &(r, c, v)) in entries.iter().enumerate() {
            let brow = r / BLOCK_DIM;
            let bcol = c / BLOCK_DIM;
            match blocks.last_mut() {
                Some(b) if b.brow == brow && b.bcol == bcol => b.end = i + 1,
                _ => blocks.push(Block {
                    brow,
                    bcol,
                    start: i,
                    end: i + 1,
                }),
            }
            local_r.push((r % BLOCK_DIM) as u8);
            local_c.push((c % BLOCK_DIM) as u8);
            vals.push(v);
        }

        // CSC-of-blocks pointers over the column-major block list.
        let mut bcol_ptr = vec![0usize; nbcols as usize + 1];
        for b in &blocks {
            bcol_ptr[b.bcol as usize + 1] += 1;
        }
        for i in 0..nbcols as usize {
            bcol_ptr[i + 1] += bcol_ptr[i];
        }

        // CSR-of-blocks: sort block ids by (brow, bcol).
        let mut brow_blocks: Vec<u32> = (0..blocks.len() as u32).collect();
        brow_blocks.sort_unstable_by_key(|&i| {
            let b = &blocks[i as usize];
            (b.brow, b.bcol)
        });
        let mut brow_ptr = vec![0usize; nbrows as usize + 1];
        for b in &blocks {
            brow_ptr[b.brow as usize + 1] += 1;
        }
        for i in 0..nbrows as usize {
            brow_ptr[i + 1] += brow_ptr[i];
        }

        BlockedDualStorage {
            nrows,
            ncols,
            local_r,
            local_c,
            vals,
            blocks,
            bcol_ptr,
            brow_blocks,
            brow_ptr,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> u32 {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> u32 {
        self.ncols
    }

    /// Number of stored non-zero values.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of non-empty blocks.
    fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over the entries of the block at `block_id` as global
    /// `(row, col, value)` triplets.
    ///
    /// # Panics
    ///
    /// Panics if `block_id >= n_blocks()`.
    fn block_entries(&self, block_id: usize) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        let b = &self.blocks[block_id];
        let base_r = b.brow * BLOCK_DIM;
        let base_c = b.bcol * BLOCK_DIM;
        (b.start..b.end).map(move |i| {
            (
                base_r + self.local_r[i] as u32,
                base_c + self.local_c[i] as u32,
                self.vals[i],
            )
        })
    }

    /// Reconstructs the COO matrix (lossless round-trip).
    pub fn to_coo(&self) -> CooMatrix {
        let entries = (0..self.n_blocks())
            .flat_map(|b| self.block_entries(b))
            .collect();
        CooMatrix::from_entries(self.nrows, self.ncols, entries)
            .expect("blocked storage preserves bounds")
    }

    /// Total DRAM bytes of the blocked dual image.
    ///
    /// Per non-zero: an 8-byte value and two 1-byte in-block coordinates,
    /// stored **once** (shared by both orders). Per non-empty block: two
    /// 4-byte tile coordinates and a 4-byte extent in the column-major
    /// table, plus a 4-byte block pointer in the row-major table. Plus the
    /// two block-granular pointer arrays.
    pub fn storage_bytes(&self) -> usize {
        let per_entry = self.nnz() * (crate::VALUE_BYTES + 2);
        let per_block = self.n_blocks() * (4 + 4 + 4) + self.brow_blocks.len() * 4;
        let ptrs = (self.bcol_ptr.len() + self.brow_ptr.len()) * 4;
        per_entry + per_block + ptrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DualStorage;

    #[test]
    fn roundtrip_is_lossless() {
        let coo = crate::gen::uniform(1000, 1000, 5000, 17);
        let blocked = BlockedDualStorage::from_coo(&coo);
        assert_eq!(blocked.to_coo(), coo);
    }

    #[test]
    fn blocked_is_much_smaller_than_naive_dual() {
        // Clustered matrix: many entries share blocks, so the shared pool
        // pays off. (Fig 20a reports 39.2% on the paper's datasets.)
        let coo = crate::gen::banded(4096, 40_000, 512, 23);
        let blocked = BlockedDualStorage::from_coo(&coo);
        let dual = DualStorage::from_coo(&coo);
        let ratio = blocked.storage_bytes() as f64 / dual.storage_bytes() as f64;
        assert!(ratio < 0.6, "blocked/dual ratio {ratio} not < 0.6");
    }

    #[test]
    fn single_entry_matrix() {
        let coo = CooMatrix::from_entries(10, 10, vec![(3, 4, 1.5)]).unwrap();
        let b = BlockedDualStorage::from_coo(&coo);
        assert_eq!(b.n_blocks(), 1);
        assert_eq!(b.block_entries(0).collect::<Vec<_>>(), vec![(3, 4, 1.5)]);
    }

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::new(100, 100);
        let b = BlockedDualStorage::from_coo(&coo);
        assert_eq!(b.n_blocks(), 0);
        assert_eq!(b.nnz(), 0);
        assert_eq!(b.to_coo(), coo);
    }
}
