//! Append-only checkpoint journal for resumable sweeps
//! (`--checkpoint` / `--resume`).
//!
//! The journal is JSONL: one header line naming the format version and a
//! digest of the sweep's [`DataContext`], then one self-validating record
//! per completed point. Every append is flushed and `fsync`'d before the
//! sweep moves on, so a `SIGKILL` at any instant loses at most the record
//! being written — and a trailing half-written line is recognized on
//! resume (no newline terminator) and truncated away.
//!
//! Records carry an FNV-1a digest of the entry's canonical JSON. On
//! resume the journal re-renders each decoded entry and requires both the
//! stored text digest and the re-rendered digest to match, so a corrupted
//! journal — or any decode infidelity that would break the bitwise
//! reproducibility guarantee — fails loudly
//! ([`BenchError::Checkpoint`]) instead of silently producing a sweep
//! that differs from an uninterrupted run.

use std::io::{Seek, Write};
use std::path::{Path, PathBuf};

use serde::Value;
use sparsepipe_baselines::BaselineReport;
use sparsepipe_core::{BwSample, EnergyBreakdown, SimReport, TrafficBreakdown};
use sparsepipe_tensor::MatrixId;

use crate::datasets::DataContext;
use crate::error::{BenchError, PointKey};
use crate::sweep::Entry;

/// The journal format version written in the header line.
pub const JOURNAL_VERSION: u64 = 1;

/// FNV-1a 64-bit digest of a string — the journal's integrity check.
/// Not cryptographic; it guards against truncation, bit rot, and decoder
/// drift, not adversaries.
fn digest64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a sweep's [`DataContext`] — ties a journal to the exact
/// (scale, set, source) it was recorded under.
fn context_digest(context: &DataContext) -> Result<u64, BenchError> {
    let text = serde_json::to_string(context).map_err(|e| BenchError::Json(e.to_string()))?;
    Ok(digest64(&text))
}

/// An open checkpoint journal, positioned for appending.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
}

impl Journal {
    fn error(path: &Path, message: impl Into<String>) -> BenchError {
        BenchError::Checkpoint {
            path: path.to_path_buf(),
            message: message.into(),
        }
    }

    fn io_error(path: &Path, source: &std::io::Error) -> BenchError {
        Journal::error(path, source.to_string())
    }

    /// Starts a fresh journal at `path` (truncating any existing file)
    /// with a header for `context`.
    ///
    /// # Errors
    ///
    /// [`BenchError::Checkpoint`] if the file cannot be created or the
    /// header cannot be written.
    pub fn create(path: &Path, context: &DataContext) -> Result<Journal, BenchError> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Journal::io_error(path, &e))?;
        let mut journal = Journal {
            path: path.to_path_buf(),
            file,
        };
        let header = Value::Map(vec![
            (
                "journal".to_string(),
                Value::Str("sparsepipe-sweep".to_string()),
            ),
            ("version".to_string(), Value::UInt(JOURNAL_VERSION)),
            (
                "context_digest".to_string(),
                Value::Str(format!("{:016x}", context_digest(context)?)),
            ),
        ]);
        journal.append_line(&header)?;
        Ok(journal)
    }

    /// Opens an existing journal at `path` for resumption: validates the
    /// header against `context`, decodes and digest-checks every complete
    /// record, truncates a trailing half-written line (the `SIGKILL`
    /// artifact), and returns the journal positioned for appending along
    /// with the restored points in record order.
    ///
    /// A missing file is not an error — the sweep simply starts from
    /// scratch, exactly as [`Journal::create`] would.
    ///
    /// # Errors
    ///
    /// [`BenchError::Checkpoint`] on I/O failure, a header/context
    /// mismatch, a malformed complete record, or a digest mismatch.
    pub fn resume(
        path: &Path,
        context: &DataContext,
    ) -> Result<(Journal, Vec<(PointKey, Entry)>), BenchError> {
        if !path.exists() {
            return Ok((Journal::create(path, context)?, Vec::new()));
        }
        let text = std::fs::read_to_string(path).map_err(|e| Journal::io_error(path, &e))?;

        // Only lines terminated by `\n` are complete; a trailing partial
        // line is dropped and truncated away below.
        let mut valid_len = 0usize;
        let mut lines = Vec::new();
        for line in text.split_inclusive('\n') {
            if !line.ends_with('\n') {
                break;
            }
            valid_len += line.len();
            lines.push(line.trim_end());
        }

        let header_line = *lines
            .first()
            .ok_or_else(|| Journal::error(path, "journal has no complete header line"))?;
        let header = serde_json::from_str(header_line)
            .map_err(|e| Journal::error(path, format!("malformed header: {e}")))?;
        if header.get("version").and_then(Value::as_u64) != Some(JOURNAL_VERSION) {
            return Err(Journal::error(path, "unsupported journal version"));
        }
        let expected = format!("{:016x}", context_digest(context)?);
        let found = header
            .get("context_digest")
            .and_then(Value::as_str)
            .unwrap_or("<missing>");
        if found != expected {
            return Err(Journal::error(
                path,
                format!(
                    "journal was recorded for a different sweep context \
                     (journal {found}, current {expected}) — delete it or drop --resume"
                ),
            ));
        }

        let mut restored = Vec::new();
        for (idx, line) in lines.iter().enumerate().skip(1) {
            let record = serde_json::from_str(line)
                .map_err(|e| Journal::error(path, format!("record {idx}: {e}")))?;
            restored.push(
                decode_record(&record)
                    .map_err(|msg| Journal::error(path, format!("record {idx}: {msg}")))?,
            );
        }

        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| Journal::io_error(path, &e))?;
        file.set_len(valid_len as u64)
            .map_err(|e| Journal::io_error(path, &e))?;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| Journal::io_error(path, &e))?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file,
            },
            restored,
        ))
    }

    /// Appends one completed point and `fsync`s it to disk before
    /// returning.
    ///
    /// # Errors
    ///
    /// [`BenchError::Checkpoint`] on serialization or I/O failure.
    pub fn append(&mut self, key: &PointKey, entry: &Entry) -> Result<(), BenchError> {
        let entry_value = serde::Serialize::to_value(entry);
        let entry_text =
            serde_json::to_string(&entry_value).map_err(|e| BenchError::Json(e.to_string()))?;
        let record = Value::Map(vec![
            ("point".to_string(), serde::Serialize::to_value(key)),
            ("entry".to_string(), entry_value),
            (
                "digest".to_string(),
                Value::Str(format!("{:016x}", digest64(&entry_text))),
            ),
        ]);
        self.append_line(&record)
    }

    fn append_line(&mut self, value: &Value) -> Result<(), BenchError> {
        let mut line = serde_json::to_string(value).map_err(|e| BenchError::Json(e.to_string()))?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| Journal::io_error(&self.path, &e))
    }
}

/// Decodes and digest-checks one journal record.
fn decode_record(record: &Value) -> Result<(PointKey, Entry), String> {
    let point = field(record, "point")?;
    let key = PointKey {
        app: str_field(point, "app")?.to_string(),
        matrix: str_field(point, "matrix")?.to_string(),
        scale: u64_field(point, "scale")?,
    };
    let entry_value = field(record, "entry")?;
    let recorded = str_field(record, "digest")?;

    // Guard 1: the parsed tree re-renders to text with the recorded
    // digest (detects corruption and parser infidelity).
    let rerendered = serde_json::to_string(entry_value).map_err(|e| e.to_string())?;
    if format!("{:016x}", digest64(&rerendered)) != recorded {
        return Err(format!("entry digest mismatch for point {key}"));
    }

    let entry = decode_entry(entry_value)?;

    // Guard 2: the decoded Entry re-serializes to the same bytes
    // (detects decoder drift that would break bitwise resume).
    let roundtrip = serde_json::to_string(&entry).map_err(|e| e.to_string())?;
    if format!("{:016x}", digest64(&roundtrip)) != recorded {
        return Err(format!(
            "decoded entry does not round-trip bitwise for point {key}"
        ));
    }
    Ok((key, entry))
}

pub(crate) fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

pub(crate) fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

pub(crate) fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
}

pub(crate) fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

pub(crate) fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a boolean"))
}

fn decode_traffic(v: &Value) -> Result<TrafficBreakdown, String> {
    Ok(TrafficBreakdown {
        csc_bytes: f64_field(v, "csc_bytes")?,
        csr_eager_bytes: f64_field(v, "csr_eager_bytes")?,
        refetch_bytes: f64_field(v, "refetch_bytes")?,
        vector_bytes: f64_field(v, "vector_bytes")?,
        writeback_bytes: f64_field(v, "writeback_bytes")?,
    })
}

fn decode_energy(v: &Value) -> Result<EnergyBreakdown, String> {
    Ok(EnergyBreakdown {
        compute_pj: f64_field(v, "compute_pj")?,
        memory_pj: f64_field(v, "memory_pj")?,
        buffer_pj: f64_field(v, "buffer_pj")?,
    })
}

fn decode_bw_sample(v: &Value) -> Result<BwSample, String> {
    Ok(BwSample {
        utilization: f64_field(v, "utilization")?,
        csc_frac: f64_field(v, "csc_frac")?,
        csr_frac: f64_field(v, "csr_frac")?,
        vector_frac: f64_field(v, "vector_frac")?,
    })
}

fn decode_sim_report(v: &Value) -> Result<SimReport, String> {
    let bw_trace = field(v, "bw_trace")?
        .as_seq()
        .ok_or("field `bw_trace` is not a sequence")?
        .iter()
        .map(decode_bw_sample)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SimReport {
        total_cycles: u64_field(v, "total_cycles")?,
        runtime_s: f64_field(v, "runtime_s")?,
        traffic: decode_traffic(field(v, "traffic")?)?,
        avg_bw_utilization: f64_field(v, "avg_bw_utilization")?,
        bw_trace,
        buffer_peak_bytes: f64_field(v, "buffer_peak_bytes")?,
        buffer_avg_bytes: f64_field(v, "buffer_avg_bytes")?,
        evicted_elements: u64_field(v, "evicted_elements")?,
        repack_events: u64_field(v, "repack_events")?,
        energy: decode_energy(field(v, "energy")?)?,
        matrix_loads_per_iteration: f64_field(v, "matrix_loads_per_iteration")?,
        iterations: u64_field(v, "iterations")? as usize,
    })
}

fn decode_baseline(v: &Value) -> Result<BaselineReport, String> {
    Ok(BaselineReport {
        runtime_s: f64_field(v, "runtime_s")?,
        traffic_bytes: f64_field(v, "traffic_bytes")?,
        bw_utilization: f64_field(v, "bw_utilization")?,
        energy: decode_energy(field(v, "energy")?)?,
    })
}

fn matrix_from_variant(name: &str) -> Result<MatrixId, String> {
    MatrixId::ALL
        .into_iter()
        .find(|m| format!("{m:?}") == name)
        .ok_or_else(|| format!("unknown matrix `{name}`"))
}

/// Decodes a journaled [`Entry`]. The `app` string must name a registry
/// app (the registry owns the `&'static str`).
pub(crate) fn decode_entry(v: &Value) -> Result<Entry, String> {
    let app_name = str_field(v, "app")?;
    let app = sparsepipe_apps::registry::by_name(app_name)
        .ok_or_else(|| format!("unknown app `{app_name}`"))?;
    Ok(Entry {
        app: app.name,
        matrix: matrix_from_variant(str_field(v, "matrix")?)?,
        has_oei: bool_field(v, "has_oei")?,
        iterations: u64_field(v, "iterations")? as usize,
        sim: decode_sim_report(field(v, "sim")?)?,
        sim_iso_cpu: decode_sim_report(field(v, "sim_iso_cpu")?)?,
        ideal: decode_baseline(field(v, "ideal")?)?,
        oracle: decode_baseline(field(v, "oracle")?)?,
        cpu: decode_baseline(field(v, "cpu")?)?,
        gpu: decode_baseline(field(v, "gpu")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::MatrixSet;
    use crate::sweep::EvalRequest;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sparsepipe-journal-{tag}-{}", std::process::id()))
    }

    fn one_entry() -> (PointKey, Entry) {
        let dataset = crate::datasets::DatasetSpec::new(MatrixId::Ca, 512)
            .load()
            .unwrap();
        let pr = sparsepipe_apps::registry::by_name("pr").unwrap();
        let entry = EvalRequest::new(&pr, &dataset, 512)
            .run()
            .unwrap()
            .evaluation
            .entry;
        let key = PointKey {
            app: "pr".into(),
            matrix: "ca".into(),
            scale: 512,
        };
        (key, entry)
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(digest64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest64("a"), digest64("b"));
    }

    #[test]
    fn journal_round_trips_bitwise() {
        let path = temp_path("roundtrip");
        let context = DataContext::synthetic(MatrixSet::Quick, 512);
        let (key, entry) = one_entry();
        let original = serde_json::to_string(&entry).unwrap();

        let mut j = Journal::create(&path, &context).unwrap();
        j.append(&key, &entry).unwrap();
        drop(j);

        let (_j, restored) = Journal::resume(&path, &context).unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(restored[0].0, key);
        let rendered = serde_json::to_string(&restored[0].1).unwrap();
        assert_eq!(rendered, original, "resume must reproduce bitwise JSON");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_tolerates_a_truncated_tail_and_keeps_appending() {
        let path = temp_path("truncated");
        let context = DataContext::synthetic(MatrixSet::Quick, 512);
        let (key, entry) = one_entry();
        let mut j = Journal::create(&path, &context).unwrap();
        j.append(&key, &entry).unwrap();
        drop(j);

        // Simulate a SIGKILL mid-append: a half-written trailing record.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"point\":{\"app\":\"cg\"").unwrap();
        drop(f);

        let (mut j, restored) = Journal::resume(&path, &context).unwrap();
        assert_eq!(restored.len(), 1, "partial record is dropped");
        let key2 = PointKey {
            app: "cg".into(),
            ..key.clone()
        };
        j.append(&key2, &entry).unwrap();
        drop(j);

        // The file is now clean again: both records survive a re-resume.
        let (_j, restored) = Journal::resume(&path, &context).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored[1].0.app, "cg");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_corruption_and_foreign_contexts() {
        let path = temp_path("corrupt");
        let context = DataContext::synthetic(MatrixSet::Quick, 512);
        let (key, entry) = one_entry();
        let mut j = Journal::create(&path, &context).unwrap();
        j.append(&key, &entry).unwrap();
        drop(j);

        // A different context must be refused.
        let other = DataContext::synthetic(MatrixSet::Quick, 256);
        let err = Journal::resume(&path, &other).unwrap_err();
        assert!(err.to_string().contains("different sweep context"), "{err}");

        // Flip one digit inside the recorded entry: digest check fires.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"iterations\":", "\"iterations\":1", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, corrupted).unwrap();
        let err = Journal::resume(&path, &context).unwrap_err();
        assert!(err.to_string().contains("digest mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_resumes_empty() {
        let path = temp_path("fresh");
        std::fs::remove_file(&path).ok();
        let context = DataContext::synthetic(MatrixSet::Quick, 512);
        let (j, restored) = Journal::resume(&path, &context).unwrap();
        assert!(restored.is_empty());
        drop(j);
        assert!(path.is_file(), "resume-from-nothing creates the journal");
        std::fs::remove_file(&path).ok();
    }
}
