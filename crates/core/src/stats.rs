//! Simulation reports and traces.

use serde::{Deserialize, Serialize};
use sparsepipe_trace::{TraceEvent, TraceSink, TrafficClass};

use crate::energy::EnergyBreakdown;

/// DRAM traffic broken down by the loader that issued it (the categories of
/// Fig 15's stacked bandwidth bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficBreakdown {
    /// Column (CSC) demand fetches by the OS stage's loader.
    pub csc_bytes: f64,
    /// Eager row (CSR) prefetches by the IS stage's loader.
    pub csr_eager_bytes: f64,
    /// Re-fetches of previously evicted data (memory ping-pong).
    pub refetch_bytes: f64,
    /// Dense vector streaming (input vectors, e-wise operands).
    pub vector_bytes: f64,
    /// Result write-back.
    pub writeback_bytes: f64,
}

impl TrafficBreakdown {
    /// Total bytes read from DRAM.
    pub fn read_bytes(&self) -> f64 {
        self.csc_bytes + self.csr_eager_bytes + self.refetch_bytes + self.vector_bytes
    }

    /// Total bytes moved (reads + writes).
    pub fn total_bytes(&self) -> f64 {
        self.read_bytes() + self.writeback_bytes
    }

    /// Adds another breakdown.
    pub fn add(&mut self, other: &TrafficBreakdown) {
        self.csc_bytes += other.csc_bytes;
        self.csr_eager_bytes += other.csr_eager_bytes;
        self.refetch_bytes += other.refetch_bytes;
        self.vector_bytes += other.vector_bytes;
        self.writeback_bytes += other.writeback_bytes;
    }

    /// The same totals as a [`sparsepipe_trace::AuditTotals`], the form
    /// [`sparsepipe_trace::TraceAudit::check`] compares against. Field
    /// values are copied verbatim, so the audit's bitwise comparison is
    /// against exactly what the engine reported.
    pub fn audit_totals(&self) -> sparsepipe_trace::AuditTotals {
        sparsepipe_trace::AuditTotals {
            csc_bytes: self.csc_bytes,
            csr_eager_bytes: self.csr_eager_bytes,
            refetch_bytes: self.refetch_bytes,
            vector_bytes: self.vector_bytes,
            writeback_bytes: self.writeback_bytes,
        }
    }
}

/// The one place the simulator charges DRAM traffic: every byte the
/// pipeline, the mxm replay and the closed-form sweeps move goes through
/// [`TrafficLedger::charge`], which adds it to `totals` and emits the same
/// `f64` as one `DramRead`/`DramWrite`, so a [`sparsepipe_trace::TraceAudit`]
/// replay of the events reproduces `totals` bitwise (DESIGN.md §10.2).
///
/// Events carry stream-cursor addresses: the CSC image from 0, the CSR
/// image from 2³⁸, the vector windows from 2³⁶ (shared by reads and
/// write-backs), and refetches at the fixed address 2⁴⁰.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrafficLedger {
    /// Bytes charged so far, by category.
    pub totals: TrafficBreakdown,
    csc_addr: u64,
    csr_addr: u64,
    vec_addr: u64,
}

impl Default for TrafficLedger {
    fn default() -> Self {
        TrafficLedger {
            totals: TrafficBreakdown::default(),
            csc_addr: 0,
            csr_addr: 1 << 38,
            vec_addr: 1 << 36,
        }
    }
}

impl TrafficLedger {
    /// Address every refetch event carries.
    const REFETCH_ADDR: u64 = 1 << 40;

    /// Adds `bytes` to the `class` total and, when `S` is enabled and
    /// `bytes > 0.0`, emits them as one DRAM event at `step`. Zero
    /// charges are still added (an identity), so traced and untraced
    /// runs perform the same arithmetic.
    pub fn charge<S: TraceSink>(
        &mut self,
        sink: &mut S,
        class: TrafficClass,
        bytes: f64,
        step: u32,
    ) {
        let t = &mut self.totals;
        let (total, cursor) = match class {
            TrafficClass::CscDemand => (&mut t.csc_bytes, Some(&mut self.csc_addr)),
            TrafficClass::CsrEager => (&mut t.csr_eager_bytes, Some(&mut self.csr_addr)),
            TrafficClass::Refetch => (&mut t.refetch_bytes, None),
            TrafficClass::VectorRead => (&mut t.vector_bytes, Some(&mut self.vec_addr)),
            TrafficClass::Writeback => (&mut t.writeback_bytes, Some(&mut self.vec_addr)),
        };
        *total += bytes;
        if S::ENABLED && bytes > 0.0 {
            let addr = cursor.map_or(Self::REFETCH_ADDR, |c| {
                let at = *c;
                *c += bytes as u64;
                at
            });
            sink.emit(if class == TrafficClass::Writeback {
                TraceEvent::DramWrite {
                    addr,
                    bytes,
                    class,
                    step,
                }
            } else {
                TraceEvent::DramRead {
                    addr,
                    bytes,
                    class,
                    step,
                }
            });
        }
    }
}

/// One sampled point of the execution's bandwidth profile (Fig 15 samples
/// at every 4% of execution, i.e. 25 points).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BwSample {
    /// Total bandwidth utilization in `[0, 1]`.
    pub utilization: f64,
    /// Fraction of the *peak* bandwidth spent on CSC demand traffic.
    pub csc_frac: f64,
    /// Fraction spent on eager CSR prefetch.
    pub csr_frac: f64,
    /// Fraction spent on vector traffic (including write-back).
    pub vector_frac: f64,
}

/// The simulator's full report for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Total execution cycles.
    pub total_cycles: u64,
    /// Wall-clock runtime at the configured clock.
    pub runtime_s: f64,
    /// DRAM traffic by category.
    pub traffic: TrafficBreakdown,
    /// Average bandwidth utilization across steps (Fig 21).
    pub avg_bw_utilization: f64,
    /// Bandwidth profile sampled at every 4% of execution (Fig 15).
    pub bw_trace: Vec<BwSample>,
    /// Peak on-chip buffer occupancy in bytes.
    pub buffer_peak_bytes: f64,
    /// Average buffer occupancy in bytes.
    pub buffer_avg_bytes: f64,
    /// Matrix elements evicted under buffer pressure (then re-fetched on
    /// next use).
    pub evicted_elements: u64,
    /// Buffer repacking passes triggered (§IV-D3).
    pub repack_events: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Average number of times the sparse matrix image was read from DRAM
    /// per loop iteration — the headline reuse metric (1.0 for a baseline
    /// that re-reads it every iteration; ≈0.5 under cross-iteration OEI).
    pub matrix_loads_per_iteration: f64,
    /// Iterations simulated.
    pub iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_totals_mirror_traffic_fields() {
        let t = TrafficBreakdown {
            csc_bytes: 100.5,
            csr_eager_bytes: 50.25,
            refetch_bytes: 10.0,
            vector_bytes: 20.0,
            writeback_bytes: 5.0,
        };
        let a = t.audit_totals();
        assert_eq!(a.csc_bytes.to_bits(), t.csc_bytes.to_bits());
        assert_eq!(a.csr_eager_bytes.to_bits(), t.csr_eager_bytes.to_bits());
        assert_eq!(a.refetch_bytes.to_bits(), t.refetch_bytes.to_bits());
        assert_eq!(a.vector_bytes.to_bits(), t.vector_bytes.to_bits());
        assert_eq!(a.writeback_bytes.to_bits(), t.writeback_bytes.to_bits());
        assert_eq!(a.total_bytes(), t.total_bytes());
    }

    #[test]
    fn ledger_emits_one_event_per_nonzero_charge_at_cursor_addresses() {
        use sparsepipe_trace::{MemorySink, NullSink, TraceAudit};
        use TrafficClass::*;
        let charges = [
            (CscDemand, 100.5, 0),
            (Refetch, 10.0, 0),
            (CsrEager, 0.0, 0),
            (CsrEager, 50.25, 0),
            (VectorRead, 20.0, 0),
            (Writeback, 5.0, 0),
            (CscDemand, 0.0, 1),
            (CscDemand, 30.0, 1),
            (Refetch, 7.5, 1),
            (VectorRead, 0.0, 1),
            (Writeback, 3.0, 1),
            (VectorRead, 8.0, 1),
            (Writeback, 0.0, 1),
        ];
        let mut sink = MemorySink::new();
        let mut traced = TrafficLedger::default();
        let mut untraced = TrafficLedger::default();
        for (class, bytes, step) in charges {
            traced.charge(&mut sink, class, bytes, step);
            untraced.charge(&mut NullSink, class, bytes, step);
        }
        let read = |addr, bytes, class, step| TraceEvent::DramRead {
            addr,
            bytes,
            class,
            step,
        };
        let vec = 1u64 << 36;
        assert_eq!(
            sink.events(),
            [
                read(0, 100.5, CscDemand, 0),
                read(1 << 40, 10.0, Refetch, 0),
                read(1 << 38, 50.25, CsrEager, 0),
                read(vec, 20.0, VectorRead, 0),
                TraceEvent::DramWrite {
                    addr: vec + 20,
                    bytes: 5.0,
                    class: Writeback,
                    step: 0,
                },
                read(100, 30.0, CscDemand, 1),
                read(1 << 40, 7.5, Refetch, 1),
                TraceEvent::DramWrite {
                    addr: vec + 25,
                    bytes: 3.0,
                    class: Writeback,
                    step: 1,
                },
                read(vec + 28, 8.0, VectorRead, 1),
            ]
        );
        assert_eq!(traced.totals, untraced.totals, "tracing adds the same f64s");
        let t = traced.totals;
        assert_eq!(t.total_bytes(), 234.25);
        let replayed = TraceAudit::replay(sink.events());
        replayed.check(&t.audit_totals()).unwrap();
        assert_eq!(
            replayed.replayed.total_bytes().to_bits(),
            t.total_bytes().to_bits()
        );
    }

    #[test]
    fn traffic_totals() {
        let t = TrafficBreakdown {
            csc_bytes: 100.0,
            csr_eager_bytes: 50.0,
            refetch_bytes: 10.0,
            vector_bytes: 20.0,
            writeback_bytes: 5.0,
        };
        assert_eq!(t.read_bytes(), 180.0);
        assert_eq!(t.total_bytes(), 185.0);
        let mut a = t;
        a.add(&t);
        assert_eq!(a.total_bytes(), 370.0);
    }
}
