//! The simulator's shadow checker: auditable buffer-model invariants.
//!
//! The [`crate::buffer::BufferModel`] state machine used to guard itself
//! with three ad-hoc `debug_assert!`s (double load, OS/IS consuming a
//! non-resident element). This module promotes those — plus the residency
//! accounting and eviction-order properties they implicitly relied on —
//! into named, documented invariants that return structured
//! [`InvariantViolation`]s instead of bare panic strings.
//!
//! Two enforcement levels exist:
//!
//! * **Debug builds** always check the cheap per-event invariants
//!   ([`check_load`], [`check_consume`], [`check_eviction_order`]), exactly
//!   as the old `debug_assert!`s did.
//! * **`SparsepipeConfig::validate`** additionally runs the O(resident)
//!   whole-buffer audit ([`check_step`]) at the end of every pipeline step,
//!   in release builds too. Only tests set it; no CLI or sweep path
//!   does.

use crate::buffer::BufferModel;
use crate::config::EvictionPolicy;

/// Which consumer core touched the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consumer {
    /// The output-stationary core (CSC-side, whole-column frees).
    Os,
    /// The input-stationary core (CSR-side, fragmenting frees).
    Is,
}

impl std::fmt::Display for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Consumer::Os => write!(f, "OS"),
            Consumer::Is => write!(f, "IS"),
        }
    }
}

/// A broken buffer-model invariant, reported by the shadow checker.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InvariantViolation {
    /// An element was loaded while already resident (would double-count
    /// occupancy and traffic).
    DoubleLoad {
        /// The element id.
        element: u32,
    },
    /// A core consumed an element that is not on chip.
    ConsumeNonResident {
        /// The element id.
        element: u32,
        /// Which core consumed it.
        consumer: Consumer,
    },
    /// `resident_bytes` disagrees with `|resident| × elem_bytes`.
    ResidencyAccounting {
        /// Number of ids in the resident set.
        resident_count: usize,
        /// The byte counter the model carries.
        resident_bytes: f64,
        /// Bytes per element.
        elem_bytes: f64,
    },
    /// The per-element state flags disagree with the resident set (an id
    /// flagged resident is missing from the set, or vice versa).
    StateSetMismatch {
        /// The first inconsistent element id.
        element: u32,
    },
    /// Fragmented space went negative — more was reclaimed than ever
    /// fragmented.
    NegativeFragmentation {
        /// The (negative) fragmented byte counter.
        fragmented_bytes: f64,
    },
    /// End-of-step occupancy exceeds the buffer capacity even after
    /// eviction ran.
    CapacityExceeded {
        /// Occupied bytes (resident + fragmented).
        occupancy_bytes: f64,
        /// The configured capacity.
        capacity_bytes: f64,
    },
    /// Under `HighestRowFirst`, an eviction victim was not the
    /// highest-numbered resident element.
    EvictionOrder {
        /// The chosen victim.
        victim: u32,
        /// The highest resident id at the time.
        highest_resident: u32,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::DoubleLoad { element } => {
                write!(f, "double load of element {element}")
            }
            InvariantViolation::ConsumeNonResident { element, consumer } => {
                write!(
                    f,
                    "{consumer} core consuming non-resident element {element}"
                )
            }
            InvariantViolation::ResidencyAccounting {
                resident_count,
                resident_bytes,
                elem_bytes,
            } => write!(
                f,
                "residency accounting drift: {resident_count} resident elements × \
                 {elem_bytes} B != {resident_bytes} B"
            ),
            InvariantViolation::StateSetMismatch { element } => write!(
                f,
                "element {element}'s state flags disagree with the resident set"
            ),
            InvariantViolation::NegativeFragmentation { fragmented_bytes } => {
                write!(f, "negative fragmentation: {fragmented_bytes} B")
            }
            InvariantViolation::CapacityExceeded {
                occupancy_bytes,
                capacity_bytes,
            } => write!(
                f,
                "occupancy {occupancy_bytes} B exceeds capacity {capacity_bytes} B \
                 after eviction"
            ),
            InvariantViolation::EvictionOrder {
                victim,
                highest_resident,
            } => write!(
                f,
                "HighestRowFirst evicted element {victim} while {highest_resident} \
                 (a higher row) was resident"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Checks the precondition of [`BufferModel::load`]: the element must not
/// already be resident.
pub fn check_load(buf: &BufferModel, e: u32) -> Result<(), InvariantViolation> {
    if buf.is_resident(e) {
        Err(InvariantViolation::DoubleLoad { element: e })
    } else {
        Ok(())
    }
}

/// Checks the precondition of `consume_os`/`consume_is`: the element must
/// be resident when a core consumes it.
pub fn check_consume(
    buf: &BufferModel,
    e: u32,
    consumer: Consumer,
) -> Result<(), InvariantViolation> {
    if buf.is_resident(e) {
        Ok(())
    } else {
        Err(InvariantViolation::ConsumeNonResident {
            element: e,
            consumer,
        })
    }
}

/// Checks that an eviction victim respects the configured policy's order.
/// Only `HighestRowFirst` has a state-independent order to check;
/// `OldestFirst` depends on load history the caller already consumed.
pub fn check_eviction_order(buf: &BufferModel, victim: u32) -> Result<(), InvariantViolation> {
    if buf.policy != EvictionPolicy::HighestRowFirst {
        return Ok(());
    }
    match buf.resident.peek_highest() {
        Some(highest) if highest > victim => Err(InvariantViolation::EvictionOrder {
            victim,
            highest_resident: highest,
        }),
        _ => Ok(()),
    }
}

/// Whole-buffer audit, run at the end of every pipeline step when
/// `SparsepipeConfig::validate` is set:
///
/// 1. byte accounting matches the resident set (`resident_bytes =
///    |resident| × elem_bytes`);
/// 2. every id in the resident set is flagged `LOADED` and not `EVICTED`,
///    and no id outside the set is;
/// 3. fragmentation is non-negative;
/// 4. occupancy fits the capacity (eviction ran at step end).
///
/// Costs O(nnz); only enabled explicitly.
pub fn check_step(buf: &BufferModel) -> Result<(), InvariantViolation> {
    let expected = buf.resident.len() as f64 * buf.elem_bytes;
    if (buf.resident_bytes - expected).abs() > buf.elem_bytes * 1e-6 + 1e-6 {
        return Err(InvariantViolation::ResidencyAccounting {
            resident_count: buf.resident.len(),
            resident_bytes: buf.resident_bytes,
            elem_bytes: buf.elem_bytes,
        });
    }
    for e in 0..buf.state.len() as u32 {
        if buf.is_resident(e) != buf.resident.contains(e) {
            return Err(InvariantViolation::StateSetMismatch { element: e });
        }
    }
    if buf.fragmented_bytes < -1e-9 {
        return Err(InvariantViolation::NegativeFragmentation {
            fragmented_bytes: buf.fragmented_bytes,
        });
    }
    if buf.occupancy_bytes() > buf.capacity_bytes * (1.0 + 1e-9) + 1e-6 {
        return Err(InvariantViolation::CapacityExceeded {
            occupancy_bytes: buf.occupancy_bytes(),
            capacity_bytes: buf.capacity_bytes,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferModel;

    fn model() -> BufferModel {
        BufferModel::new(8, 10.0, 1000.0, 0.5, EvictionPolicy::HighestRowFirst)
    }

    #[test]
    fn clean_model_passes_audit() {
        let mut b = model();
        b.load(0);
        b.load(3);
        b.consume_os(0);
        assert_eq!(check_step(&b), Ok(()));
    }

    #[test]
    fn double_load_detected() {
        let mut b = model();
        b.load(2);
        assert_eq!(
            check_load(&b, 2),
            Err(InvariantViolation::DoubleLoad { element: 2 })
        );
        assert_eq!(check_load(&b, 3), Ok(()));
    }

    #[test]
    fn consume_non_resident_detected() {
        let b = model();
        assert_eq!(
            check_consume(&b, 5, Consumer::Is),
            Err(InvariantViolation::ConsumeNonResident {
                element: 5,
                consumer: Consumer::Is
            })
        );
    }

    #[test]
    fn eviction_order_checked_for_highest_row_first() {
        let mut b = model();
        b.load(1);
        b.load(6);
        assert!(check_eviction_order(&b, 1).is_err());
        assert_eq!(check_eviction_order(&b, 6), Ok(()));
    }

    #[test]
    #[should_panic(expected = "double load")]
    fn validating_model_panics_on_double_load() {
        let mut b = model().with_validation(true);
        b.load(0);
        b.load(0);
    }

    #[test]
    #[should_panic(expected = "consuming non-resident")]
    fn validating_model_panics_on_bad_consume() {
        let mut b = model().with_validation(true);
        b.consume_os(7);
    }

    #[test]
    fn violations_display_nonempty() {
        let vs = [
            InvariantViolation::DoubleLoad { element: 1 },
            InvariantViolation::ConsumeNonResident {
                element: 2,
                consumer: Consumer::Os,
            },
            InvariantViolation::ResidencyAccounting {
                resident_count: 3,
                resident_bytes: 40.0,
                elem_bytes: 10.0,
            },
            InvariantViolation::StateSetMismatch { element: 4 },
            InvariantViolation::NegativeFragmentation {
                fragmented_bytes: -1.0,
            },
            InvariantViolation::CapacityExceeded {
                occupancy_bytes: 2.0,
                capacity_bytes: 1.0,
            },
            InvariantViolation::EvictionOrder {
                victim: 0,
                highest_resident: 9,
            },
        ];
        for v in vs {
            assert!(!v.to_string().is_empty());
        }
    }
}
