//! `TraceAudit`: replay the event stream and check its byte totals
//! against the engine's `TrafficBreakdown` **exactly** (bitwise `f64`
//! equality, not within-epsilon).
//!
//! # Why exact equality is achievable
//!
//! The engine accumulates traffic as a specific sequence of `f64`
//! operations: per-step `+=` of category subtotals inside a pass, one
//! `subtotal * repeats` multiply when a pass is analytically scaled,
//! and a final `+=` per pass in run order. The instrumentation emits
//! events carrying the *same* `f64` increments at the *same*
//! granularity, and the replay below performs the *same* operations in
//! the *same* order — so the result is not merely close, it is the
//! identical bit pattern. Closed-form (analytic) sweeps emit their full
//! computed totals in a single event for the same reason: re-deriving
//! them from per-iteration values would change the operation order and
//! break bitwise equality.

use std::fmt;

use crate::event::{TraceEvent, TrafficClass};

/// DRAM byte totals by category — the audit-side mirror of the
/// engine's `TrafficBreakdown` (which lives above this crate in the
/// dependency graph; `sparsepipe-core` provides the conversion).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuditTotals {
    /// Demand-fetched CSC matrix bytes.
    pub csc_bytes: f64,
    /// Eagerly prefetched CSR matrix bytes.
    pub csr_eager_bytes: f64,
    /// Re-fetched (previously evicted) matrix bytes.
    pub refetch_bytes: f64,
    /// Dense vector read bytes.
    pub vector_bytes: f64,
    /// Dense vector writeback bytes.
    pub writeback_bytes: f64,
}

impl AuditTotals {
    /// Sum over all categories.
    pub fn total_bytes(&self) -> f64 {
        self.csc_bytes
            + self.csr_eager_bytes
            + self.refetch_bytes
            + self.vector_bytes
            + self.writeback_bytes
    }

    fn add_class(&mut self, class: TrafficClass, bytes: f64) {
        match class {
            TrafficClass::CscDemand => self.csc_bytes += bytes,
            TrafficClass::CsrEager => self.csr_eager_bytes += bytes,
            TrafficClass::Refetch => self.refetch_bytes += bytes,
            TrafficClass::VectorRead => self.vector_bytes += bytes,
            TrafficClass::Writeback => self.writeback_bytes += bytes,
        }
    }

    fn add_scaled(&mut self, other: &AuditTotals, repeats: f64) {
        self.csc_bytes += other.csc_bytes * repeats;
        self.csr_eager_bytes += other.csr_eager_bytes * repeats;
        self.refetch_bytes += other.refetch_bytes * repeats;
        self.vector_bytes += other.vector_bytes * repeats;
        self.writeback_bytes += other.writeback_bytes * repeats;
    }
}

/// One pass's replayed traffic, before analytic scaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassTraffic {
    /// Pass ordinal from the [`TraceEvent::PassBoundary`] event (or 0
    /// for streams that never emitted a boundary).
    pub pass: u32,
    /// Analytic scaling factor for this pass.
    pub repeats: u64,
    /// Pipeline steps in this pass.
    pub steps: u32,
    /// Unscaled per-category byte totals accumulated in stream order.
    pub traffic: AuditTotals,
}

/// Splits an event stream into per-pass traffic accumulations,
/// preserving stream order. Events before the first
/// [`TraceEvent::PassBoundary`] belong to an implicit pass 0 with
/// `repeats == 1`.
pub fn replay_passes<'a, I>(events: I) -> Vec<PassTraffic>
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    let mut passes: Vec<PassTraffic> = Vec::new();
    let mut current = PassTraffic {
        pass: 0,
        repeats: 1,
        steps: 0,
        traffic: AuditTotals::default(),
    };
    let mut saw_any = false;
    for ev in events {
        match *ev {
            TraceEvent::PassBoundary {
                pass,
                repeats,
                steps,
            } => {
                if saw_any {
                    passes.push(current);
                }
                current = PassTraffic {
                    pass,
                    repeats,
                    steps,
                    traffic: AuditTotals::default(),
                };
                saw_any = true;
            }
            TraceEvent::DramRead { bytes, class, .. }
            | TraceEvent::DramWrite { bytes, class, .. } => {
                current.traffic.add_class(class, bytes);
                saw_any = true;
            }
            _ => {}
        }
    }
    if saw_any {
        passes.push(current);
    }
    passes
}

/// The result of replaying a trace stream: per-pass traffic plus the
/// analytically scaled grand totals, ready to compare against the
/// engine's report.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAudit {
    /// Per-pass unscaled traffic, in stream order.
    pub passes: Vec<PassTraffic>,
    /// Scaled totals: `sum over passes of (pass traffic × repeats)`,
    /// folded in pass order — the same arithmetic the engine performs.
    pub replayed: AuditTotals,
}

impl TraceAudit {
    /// Replays an event stream into audit totals.
    pub fn replay<'a, I>(events: I) -> TraceAudit
    where
        I: IntoIterator<Item = &'a TraceEvent>,
    {
        let passes = replay_passes(events);
        let mut replayed = AuditTotals::default();
        for p in &passes {
            // `repeats as f64` and the multiply-then-add below mirror the
            // engine's `accumulate_pass` exactly; `× 1.0` is a bitwise
            // no-op for finite values, so unscaled passes survive intact.
            replayed.add_scaled(&p.traffic, p.repeats as f64);
        }
        TraceAudit { passes, replayed }
    }

    /// Checks the replayed totals against the engine's reported totals,
    /// field by field, with **exact** (bitwise) `f64` equality.
    ///
    /// # Errors
    ///
    /// Returns the first mismatching field with both values.
    pub fn check(&self, expected: &AuditTotals) -> Result<(), AuditMismatch> {
        let fields: [(&'static str, f64, f64); 5] = [
            ("csc_bytes", self.replayed.csc_bytes, expected.csc_bytes),
            (
                "csr_eager_bytes",
                self.replayed.csr_eager_bytes,
                expected.csr_eager_bytes,
            ),
            (
                "refetch_bytes",
                self.replayed.refetch_bytes,
                expected.refetch_bytes,
            ),
            (
                "vector_bytes",
                self.replayed.vector_bytes,
                expected.vector_bytes,
            ),
            (
                "writeback_bytes",
                self.replayed.writeback_bytes,
                expected.writeback_bytes,
            ),
        ];
        for (field, replayed, expected) in fields {
            if replayed.to_bits() != expected.to_bits() {
                return Err(AuditMismatch {
                    field,
                    replayed,
                    expected,
                });
            }
        }
        Ok(())
    }
}

/// A field of the replayed totals differed from the engine's report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditMismatch {
    /// Name of the mismatching `TrafficBreakdown` field.
    pub field: &'static str,
    /// Value reconstructed from the trace.
    pub replayed: f64,
    /// Value the engine reported.
    pub expected: f64,
}

impl fmt::Display for AuditMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace audit mismatch on {}: replayed {:.6} ({}) != reported {:.6} ({})",
            self.field,
            self.replayed,
            self.replayed.to_bits(),
            self.expected,
            self.expected.to_bits()
        )
    }
}

impl std::error::Error for AuditMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(class: TrafficClass, bytes: f64, step: u32) -> TraceEvent {
        TraceEvent::DramRead {
            addr: 0,
            bytes,
            class,
            step,
        }
    }

    #[test]
    fn replay_scales_by_repeats_exactly() {
        let events = vec![
            TraceEvent::PassBoundary {
                pass: 0,
                repeats: 7,
                steps: 2,
            },
            read(TrafficClass::CscDemand, 10.5, 0),
            read(TrafficClass::CscDemand, 21.0, 1),
            TraceEvent::DramWrite {
                addr: 0,
                bytes: 8.0,
                class: TrafficClass::Writeback,
                step: 1,
            },
            TraceEvent::PassBoundary {
                pass: 1,
                repeats: 1,
                steps: 1,
            },
            read(TrafficClass::VectorRead, 3.25, 0),
        ];
        let audit = TraceAudit::replay(&events);
        assert_eq!(audit.passes.len(), 2);
        assert_eq!(audit.passes[0].repeats, 7);
        // Mirror the engine arithmetic explicitly.
        let expected = AuditTotals {
            csc_bytes: (10.5 + 21.0) * 7.0,
            writeback_bytes: 8.0 * 7.0,
            vector_bytes: 3.25 * 1.0,
            ..AuditTotals::default()
        };
        audit.check(&expected).unwrap();
        assert_eq!(audit.replayed.total_bytes(), expected.total_bytes());
    }

    #[test]
    fn implicit_pass_without_boundary() {
        let events = vec![read(TrafficClass::Refetch, 10.5, 0)];
        let audit = TraceAudit::replay(&events);
        assert_eq!(audit.passes.len(), 1);
        assert_eq!(audit.passes[0].repeats, 1);
        assert_eq!(audit.replayed.refetch_bytes, 10.5);
    }

    #[test]
    fn check_reports_first_mismatching_field() {
        let events = vec![read(TrafficClass::CscDemand, 64.0, 0)];
        let audit = TraceAudit::replay(&events);
        let expected = AuditTotals {
            csc_bytes: 64.0 + f64::EPSILON * 64.0,
            ..AuditTotals::default()
        };
        let err = audit.check(&expected).unwrap_err();
        assert_eq!(err.field, "csc_bytes");
        assert!(err.to_string().contains("csc_bytes"));
    }

    #[test]
    fn empty_stream_replays_to_zero() {
        let audit = TraceAudit::replay(std::iter::empty());
        assert!(audit.passes.is_empty());
        audit.check(&AuditTotals::default()).unwrap();
    }
}
