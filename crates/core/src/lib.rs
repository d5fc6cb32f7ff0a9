//! Event-driven performance and energy simulator of the **Sparsepipe**
//! architecture (MICRO 2024).
//!
//! Sparsepipe is a sparse inter-operator dataflow accelerator built around
//! the **OEI dataflow**: the `vxm` of loop iteration `i` runs
//! **O**utput-stationary, the fused **E**-wise chain transforms each output
//! element as it appears, and the `vxm` of iteration `i+1` runs
//! **I**nput-stationary — so one sweep of the sparse matrix serves *two*
//! iterations, roughly halving matrix traffic for memory-bound sparse
//! tensor algebra.
//!
//! The simulator models, at sub-tensor (pipeline-step) granularity:
//!
//! * the four-stage pipeline (CSC loader → OS core → E-Wise core +
//!   CSR loader → IS core) with per-step bottleneck timing ([`pipeline`]);
//! * the dual-storage on-chip buffer with element-level residency,
//!   highest-row-first eviction, and CSR-space repacking ([`buffer`]);
//! * eager CSR prefetching with leftover bandwidth (Fig 9) and the
//!   resulting bandwidth profiles (Fig 15);
//! * DRAM traffic and energy accounting ([`energy`]).
//!
//! The engine simulates the matrix it is given, in the vertex order it is
//! given. Row reordering (§IV-E1) is offline preprocessing: callers apply
//! it once, before simulating ([`ReorderKind::apply`]).
//!
//! Functional correctness of the OEI schedule is established separately by
//! [`oei::FusedPass`], which executes the exact Fig-8 interleaving on
//! values and is tested against sequential operator execution.
//!
//! # Example
//!
//! ```
//! use sparsepipe_core::{SimRequest, SparsepipeConfig};
//! use sparsepipe_frontend::{compile, GraphBuilder};
//! use sparsepipe_semiring::{EwiseBinary, SemiringOp};
//! use sparsepipe_tensor::gen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // PageRank's inner loop…
//! let mut b = GraphBuilder::new();
//! let pr = b.input_vector("pr");
//! let l = b.constant_matrix("L");
//! let y = b.vxm(pr, l, SemiringOp::MulAdd)?;
//! let s = b.ewise_scalar(EwiseBinary::Mul, y, 0.85)?;
//! let next = b.ewise_scalar(EwiseBinary::Add, s, 0.15)?;
//! b.carry(next, pr)?;
//! let program = compile(&b.build()?, 1)?;
//!
//! // …simulated on a synthetic graph for 20 iterations.
//! let graph = gen::power_law(2000, 16_000, 1.0, 0.4, 7);
//! let outcome = SimRequest::new(&program, &graph)
//!     .iterations(20)
//!     .config(SparsepipeConfig::iso_gpu())
//!     .run()?;
//! assert!(outcome.report.matrix_loads_per_iteration < 0.6); // cross-iteration reuse!
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod buffer;
pub mod cache;
mod config;
pub mod driver;
pub mod dualbuffer;
pub mod energy;
mod engine;
pub mod invariants;
pub mod oei;
pub mod pipeline;
pub mod plan;
pub mod profile;
pub mod schedule;
pub mod slab;
pub mod spgemm;
mod stats;

pub use arena::{ArenaBuilder, MatrixArena, RowSet};
pub use cache::{CacheBytes, MatrixCache};
pub use config::{EvictionPolicy, MemoryConfig, Preprocessing, ReorderKind, SparsepipeConfig};
pub use driver::{SimOutcome, SimRequest, SimTelemetry};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use plan::PassPlan;
pub use profile::MatrixProfile;
pub use schedule::Schedule;
pub use slab::{SlabError, SlabHeader};
pub use spgemm::{MxmOutcome, MxmParams, MxmPlan, MxmRequest, MxmStats};
pub use stats::{BwSample, SimReport, TrafficBreakdown};

/// Errors produced by the simulator.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// OEI passes require a square matrix.
    NonSquareMatrix {
        /// Rows of the offending matrix.
        nrows: u32,
        /// Columns of the offending matrix.
        ncols: u32,
    },
    /// At least one iteration must be simulated.
    ZeroIterations,
    /// The run's wall-clock deadline ([`SimRequest::deadline`]) expired
    /// before the simulation finished. The engine checks the deadline
    /// cooperatively (between passes and every few thousand pipeline
    /// steps), so the overshoot past the budget is bounded.
    DeadlineExceeded {
        /// The wall-clock budget the run was given, in milliseconds.
        budget_ms: u64,
    },
    /// Raw arena parts ([`MatrixArena::from_raw_parts`]) violate the
    /// arena's structural invariants (offset monotonicity, coordinate
    /// bounds, sorted-and-deduplicated slices, CSC/CSR agreement).
    InvalidArena {
        /// Which invariant failed.
        context: String,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::NonSquareMatrix { nrows, ncols } => {
                write!(f, "matrix must be square, got {nrows}x{ncols}")
            }
            CoreError::ZeroIterations => write!(f, "iterations must be positive"),
            CoreError::DeadlineExceeded { budget_ms } => {
                write!(
                    f,
                    "simulation exceeded its {budget_ms} ms wall-clock deadline"
                )
            }
            CoreError::InvalidArena { context } => {
                write!(f, "invalid arena: {context}")
            }
        }
    }
}

impl std::error::Error for CoreError {}
