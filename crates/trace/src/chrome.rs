//! Chrome-trace (Trace Event Format) export.
//!
//! Produces a JSON object loadable by `chrome://tracing` and Perfetto
//! (`ui.perfetto.dev` → "Open trace file"). Pipeline steps become `X`
//! (complete) duration events on one track per pass; buffer occupancy
//! and per-class DRAM bytes become `C` (counter) tracks sampled at
//! step granularity; pass boundaries become `i` (instant) markers.
//! Timestamps are modeled cycles reported as microseconds — absolute
//! wall time is meaningless for an architectural model, relative
//! durations are what the viewer is for.

use std::fmt::Write as _;

use crate::event::{TraceEvent, TrafficClass};

fn num(f: f64) -> String {
    if f.is_finite() {
        format!("{f}")
    } else {
        "0".to_string()
    }
}

/// Renders an event stream as a Chrome-trace JSON document.
///
/// Per-step DRAM aggregate events and `StepEnd` events drive the
/// export; element-granular buffer events are summarized into the
/// occupancy counter only (Perfetto chokes on millions of instants).
pub fn export(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut ts = 0.0f64; // cumulative modeled cycles
    let mut pass = 0u32;
    let mut first = true;
    // Bytes accumulated since the last StepEnd, per audited class.
    let mut step_bytes = [0.0f64; 5];

    let push = |out: &mut String, first: &mut bool, line: &str| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };

    for ev in events {
        match *ev {
            TraceEvent::PassBoundary {
                pass: p, repeats, ..
            } => {
                pass = p;
                let line = format!(
                    "{{\"name\":\"pass {p} (×{repeats})\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"g\"}}",
                    num(ts)
                );
                push(&mut out, &mut first, &line);
            }
            TraceEvent::DramRead { bytes, class, .. }
            | TraceEvent::DramWrite { bytes, class, .. } => {
                let idx = match class {
                    TrafficClass::CscDemand => 0,
                    TrafficClass::CsrEager => 1,
                    TrafficClass::Refetch => 2,
                    TrafficClass::VectorRead => 3,
                    TrafficClass::Writeback => 4,
                };
                step_bytes[idx] += bytes;
            }
            TraceEvent::StepEnd {
                step,
                cycles,
                occupancy_bytes,
            } => {
                let line = format!(
                    "{{\"name\":\"step {step}\",\"cat\":\"pipeline\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{pass},\"args\":{{\"pass\":{pass},\"step\":{step}}}}}",
                    num(ts),
                    num(cycles)
                );
                push(&mut out, &mut first, &line);
                ts += cycles.max(0.0);
                let occ = format!(
                    "{{\"name\":\"buffer_occupancy\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"bytes\":{}}}}}",
                    num(ts),
                    num(occupancy_bytes)
                );
                push(&mut out, &mut first, &occ);
                let mut dram = format!(
                    "{{\"name\":\"dram_bytes\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{",
                    num(ts)
                );
                let labels = ["csc", "csr_eager", "refetch", "vector", "writeback"];
                for (i, label) in labels.iter().enumerate() {
                    if i > 0 {
                        dram.push(',');
                    }
                    let _ = write!(dram, "\"{label}\":{}", num(step_bytes[i]));
                }
                dram.push_str("}}");
                push(&mut out, &mut first, &dram);
                step_bytes = [0.0; 5];
            }
            _ => {}
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Writes the Chrome-trace JSON for `events` to `path`.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write(path: &std::path::Path, events: &[TraceEvent]) -> std::io::Result<()> {
    std::fs::write(path, export(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TrafficClass;

    #[test]
    fn export_emits_steps_counters_and_pass_markers() {
        let events = vec![
            TraceEvent::PassBoundary {
                pass: 0,
                repeats: 5,
                steps: 2,
            },
            TraceEvent::DramRead {
                addr: 0,
                bytes: 21.0,
                class: TrafficClass::CscDemand,
                step: 0,
            },
            TraceEvent::StepEnd {
                step: 0,
                cycles: 4.0,
                occupancy_bytes: 24.0,
            },
            TraceEvent::StepEnd {
                step: 1,
                cycles: 2.5,
                occupancy_bytes: 12.0,
            },
        ];
        let json = export(&events);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"pass 0 (\u{d7}5)\"") || json.contains("pass 0"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"csc\":21"));
        // Second step starts after the first step's 4 cycles.
        assert!(json.contains("\"ts\":4,\"dur\":2.5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn export_empty_stream_is_valid() {
        let json = export(&[]);
        assert!(json.contains("\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
