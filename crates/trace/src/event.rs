//! The typed trace event vocabulary emitted by the simulator.

/// Which pipeline stage an event is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeStage {
    /// The output-stationary (column-sweep) MAC stage.
    Os,
    /// The input-stationary (row-consume) MAC stage.
    Is,
}

impl PipeStage {
    /// Short lowercase label used by the JSONL and CSV encoders.
    pub fn label(self) -> &'static str {
        match self {
            PipeStage::Os => "os",
            PipeStage::Is => "is",
        }
    }
}

/// Which traffic category a DRAM event belongs to.
///
/// The variants mirror the fields of the engine's `TrafficBreakdown`
/// one-to-one; replaying their byte payloads is how
/// [`crate::TraceAudit`] reconstructs the report totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Demand-fetched CSC matrix bytes (includes analytic matrix sweeps).
    CscDemand,
    /// Eagerly prefetched CSR matrix bytes.
    CsrEager,
    /// Matrix bytes re-fetched after a capacity eviction.
    Refetch,
    /// Dense vector operand reads.
    VectorRead,
    /// Dense vector result writebacks.
    Writeback,
}

impl TrafficClass {
    /// Short lowercase label used by the JSONL and CSV encoders.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::CscDemand => "csc",
            TrafficClass::CsrEager => "csr_eager",
            TrafficClass::Refetch => "refetch",
            TrafficClass::VectorRead => "vector",
            TrafficClass::Writeback => "writeback",
        }
    }
}

/// Sentinel column for buffer events that apply to a whole row (the
/// dual-buffer model evicts and consumes at row granularity).
pub const WHOLE_ROW: u32 = u32::MAX;

/// One event in the simulator's trace stream.
///
/// Events are plain `Copy` values; producing one costs a handful of
/// moves, and with [`crate::NullSink`] the construction itself is
/// compiled out (`TraceSink::ENABLED` is `false`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A matrix sweep (pass) begins. `repeats` is the analytic scaling
    /// factor the engine applies to this pass's traffic: an executed
    /// OEI pass that stands in for `k` identical sweeps carries
    /// `repeats == k`; analytic (closed-form) sweeps carry `repeats == 1`
    /// with their totals folded into the event payloads.
    PassBoundary {
        /// Ordinal of this pass within the run (0-based).
        pass: u32,
        /// How many modeled sweeps this pass's traffic is multiplied by.
        repeats: u64,
        /// Pipeline steps in this pass (1 for analytic sweeps).
        steps: u32,
    },
    /// A pipeline stage starts its work for `step`.
    StepBegin {
        /// Stage that begins.
        stage: PipeStage,
        /// Pipeline step index within the current pass.
        step: u32,
    },
    /// A pipeline step retires: its critical-path cycle cost and the
    /// buffer occupancy after capacity enforcement.
    StepEnd {
        /// Pipeline step index within the current pass.
        step: u32,
        /// Cycles charged to this step (max over stage costs).
        cycles: f64,
        /// On-chip buffer occupancy in bytes after this step.
        occupancy_bytes: f64,
    },
    /// Bytes read from DRAM. `bytes` carries the *exact* `f64` increment
    /// the engine adds to its traffic accumulator, so audit replay is
    /// bitwise-faithful.
    DramRead {
        /// Modeled byte address of the transfer (stream cursor).
        addr: u64,
        /// Bytes moved (exact engine increment).
        bytes: f64,
        /// Traffic category.
        class: TrafficClass,
        /// Pipeline step the transfer is charged to.
        step: u32,
    },
    /// Bytes written to DRAM (see [`TraceEvent::DramRead`] for payload
    /// semantics).
    DramWrite {
        /// Modeled byte address of the transfer (stream cursor).
        addr: u64,
        /// Bytes moved (exact engine increment).
        bytes: f64,
        /// Traffic category.
        class: TrafficClass,
        /// Pipeline step the transfer is charged to.
        step: u32,
    },
    /// A matrix element enters the on-chip buffer.
    BufferInsert {
        /// Row coordinate of the element.
        row: u32,
        /// Column coordinate of the element ([`WHOLE_ROW`] when the
        /// model tracks rows, not elements).
        col: u32,
        /// Pipeline step of the insert.
        step: u32,
        /// `true` when this insert re-fetches a previously evicted
        /// element.
        refetch: bool,
        /// Buffer bytes the element occupies.
        bytes: f64,
    },
    /// A stage consumed a resident matrix element from the buffer.
    BufferHit {
        /// Row coordinate of the element.
        row: u32,
        /// Column coordinate of the element ([`WHOLE_ROW`] for
        /// row-granular models).
        col: u32,
        /// Stage that consumed it.
        stage: PipeStage,
        /// Pipeline step of the consumption.
        step: u32,
    },
    /// A matrix element (or whole row) was evicted to make room.
    BufferEvict {
        /// Row coordinate of the victim.
        row: u32,
        /// Column coordinate ([`WHOLE_ROW`] for row-granular evictions).
        col: u32,
        /// Pipeline step of the eviction.
        step: u32,
    },
    /// The element-wise unit processed a batch of vector lanes.
    EwiseFire {
        /// Pipeline step index.
        step: u32,
        /// Vector lanes processed this step.
        lanes: u64,
    },
}

impl TraceEvent {
    /// The pipeline step this event is attributed to, if any.
    pub fn step(&self) -> Option<u32> {
        match *self {
            TraceEvent::PassBoundary { .. } => None,
            TraceEvent::StepBegin { step, .. }
            | TraceEvent::StepEnd { step, .. }
            | TraceEvent::DramRead { step, .. }
            | TraceEvent::DramWrite { step, .. }
            | TraceEvent::BufferInsert { step, .. }
            | TraceEvent::BufferHit { step, .. }
            | TraceEvent::BufferEvict { step, .. }
            | TraceEvent::EwiseFire { step, .. } => Some(step),
        }
    }
}
