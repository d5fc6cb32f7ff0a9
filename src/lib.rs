//! # Sparsepipe
//!
//! A from-scratch Rust reproduction of **"Sparsepipe: Sparse Inter-operator
//! Dataflow Architecture with Cross-Iteration Reuse"** (MICRO 2024).
//!
//! Sparse tensor algebra (STA) applications are bandwidth-bound; Sparsepipe
//! accelerates them by exploiting two *inter-operator* reuse opportunities:
//! producer–consumer reuse (fusing operator chains) and **cross-iteration
//! reuse** (fusing the `vxm` of consecutive loop iterations via the
//! **OEI** — Output-stationary / E-wise / Input-stationary — dataflow).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — sparse formats, dual/blocked storage, generators,
//!   reordering, and OEI live-set analysis.
//! * [`semiring`] — the configurable semiring/e-wise operator algebra.
//! * [`frontend`] — the GraphBLAS-style dataflow-graph IR, fusion and OEI
//!   analysis passes, compiler, and reference interpreter.
//! * [`core`] — the event-driven Sparsepipe performance/energy simulator.
//! * [`baselines`] — ideal/oracle accelerator, CPU, and GPU cost models.
//! * [`trace`] — the event-trace schema, sinks, and the bitwise
//!   [`TraceAudit`](trace::TraceAudit) replay checker.
//! * [`apps`] — the fifteen benchmark STA applications (the paper's
//!   eleven `vxm`-chain apps plus the SpGEMM `mxm` family).
//! * [`lint`] — the static verifier: dataflow-graph well-formedness, an
//!   independent OEI fusion-legality oracle, and pass-plan feasibility
//!   checks, reported as structured diagnostics.
//! * [`bench`](mod@bench) — the experiment harness that regenerates every table and
//!   figure of the paper's evaluation.
//!
//! # Quick start
//!
//! ```
//! use sparsepipe::prelude::*;
//!
//! // A small synthetic graph and a PageRank workload on it.
//! let graph = sparsepipe::tensor::gen::power_law(512, 4096, 1.0, 0.4, 7);
//!
//! // Run PageRank through the Sparsepipe simulator.
//! let app = sparsepipe::apps::pagerank::app(8);
//! let program = app.compile()?;
//! let outcome = SimRequest::new(&program, &graph)
//!     .iterations(app.default_iterations)
//!     .config(SparsepipeConfig::iso_gpu())
//!     .run()?;
//! assert!(outcome.report.total_cycles > 0);
//! assert!(outcome.report.matrix_loads_per_iteration < 0.7); // cross-iteration reuse
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sparsepipe_apps as apps;
pub use sparsepipe_baselines as baselines;
pub use sparsepipe_bench as bench;
pub use sparsepipe_core as core;
pub use sparsepipe_frontend as frontend;
pub use sparsepipe_lint as lint;
pub use sparsepipe_semiring as semiring;
pub use sparsepipe_tensor as tensor;
pub use sparsepipe_trace as trace;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use sparsepipe_apps::StaApp;
    pub use sparsepipe_core::{SimOutcome, SimReport, SimRequest, SimTelemetry, SparsepipeConfig};
    pub use sparsepipe_frontend::{DataflowGraph, GraphBuilder};
    pub use sparsepipe_semiring::{EwiseBinary, EwiseUnary, SemiringOp};
    pub use sparsepipe_tensor::{
        CooMatrix, CscMatrix, CsrMatrix, DenseVector, DualStorage, MatrixId,
    };
}
