//! Seeded inputs: the Table-I matrices generated from the benchmark's
//! `--seed`.
//!
//! [`SeededSource`] derives each matrix's seed from `--seed` exactly as
//! `sparsepipe_tensor::DatasetSpec::generate` derives it from its fixed
//! base, so at [`DEFAULT_SEED`] it reproduces the registry's synthetic
//! matrices (checked by [`check_registry`]).

use std::borrow::Borrow;
use std::sync::Arc;

use sparsepipe_bench::datasets::{DatasetSpec, MatrixSource, ScaledDataset};
use sparsepipe_bench::error::BenchError;
use sparsepipe_tensor::{gen, reorder, CooMatrix, MatrixId, MatrixStats};

use crate::spans;

/// The base `DatasetSpec::generate` derives its per-matrix seeds from.
pub const DEFAULT_SEED: u64 = 0x5eed_0000;

/// The generator seed of `id` at `scale` under workload seed `seed`.
pub fn matrix_seed(seed: u64, id: MatrixId, scale: u64) -> u64 {
    seed.wrapping_add(id as u64 * 97).wrapping_add(scale)
}

/// Generates `id` at `1/scale` of its Table-I size from `seed`.
pub fn generate(seed: u64, id: MatrixId, scale: u64) -> CooMatrix {
    let spec = id.spec();
    let rows = (spec.rows / scale).max(1) as u32;
    let nnz = (spec.nnz / scale).max(1) as usize;
    spans::timed("tensor.gen", id as u64, || {
        gen::locality_mix(rows, nnz, spec.mix, matrix_seed(seed, id, scale))
    })
}

/// Derives the reordered variant and statistics of a loaded matrix, the
/// same way every built-in source does (`graph_order` with a 64-row
/// window, then the original matrix's statistics).
pub fn prepare(id: MatrixId, scale: u64, matrix: CooMatrix) -> ScaledDataset {
    let reordered = spans::timed("tensor.reorder", id as u64, || {
        let perm = reorder::graph_order(&matrix.to_csr(), 64);
        matrix.permute_symmetric(&perm)
    });
    let stats = spans::timed("tensor.stats", id as u64, || MatrixStats::compute(&matrix));
    ScaledDataset {
        id,
        scale,
        matrix,
        reordered,
        stats,
    }
}

/// Table-I matrices generated from a workload seed.
#[derive(Debug, Clone, Copy)]
pub struct SeededSource {
    seed: u64,
}

impl SeededSource {
    /// The source for workload seed `seed`, as a shareable `dyn` source.
    pub fn shared(seed: u64) -> Arc<dyn MatrixSource> {
        Arc::new(SeededSource { seed })
    }
}

impl MatrixSource for SeededSource {
    fn describe(&self) -> serde::Value {
        serde::Value::Map(vec![("Seeded".to_string(), serde::Value::UInt(self.seed))])
    }

    fn load(&self, id: MatrixId, scale: u64) -> Result<ScaledDataset, BenchError> {
        let _span = spans::span("bench.datasets", id as u64);
        Ok(prepare(id, scale, generate(self.seed, id, scale)))
    }
}

/// Checks that `loaded`, generated at [`DEFAULT_SEED`], equals what the
/// registry's own `DatasetSpec::load` produces.
///
/// # Errors
///
/// A description of the first dataset that differs.
pub fn check_registry<D: Borrow<ScaledDataset>>(loaded: &[D]) -> Result<(), String> {
    for ds in loaded {
        let ds = ds.borrow();
        let registry = DatasetSpec::new(ds.id, ds.scale)
            .load()
            .map_err(|e| format!("registry load of {}: {e}", ds.id))?;
        if registry.matrix != ds.matrix
            || registry.reordered != ds.reordered
            || registry.stats != ds.stats
        {
            return Err(format!(
                "{}@{}: seeded dataset differs from DatasetSpec::load at the default seed",
                ds.id, ds.scale
            ));
        }
    }
    Ok(())
}
