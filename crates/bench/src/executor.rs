//! The parallel sweep executor: fans independent simulation points across
//! a worker pool and reassembles results in input order.
//!
//! Every (app × matrix × config) point the harness evaluates is an
//! independent pure function of its inputs (see `DESIGN.md` §9), so the
//! executor can run any number of them concurrently and still produce
//! byte-identical tables: workers pull points from a shared index, send
//! `(index, result)` pairs back over a channel, and [`Executor::run`]
//! reassembles the results in the order the points were submitted.
//! `--jobs 1` bypasses the pool entirely and runs inline.
//!
//! The executor also collects per-point host telemetry ([`PointRecord`])
//! which the `experiments` binary aggregates into `BENCH_experiments.json`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};

use serde::Serialize;
use sparsepipe_core::{CacheBytes, MatrixCache};

use crate::error::{BenchError, PointError, PointErrorKind, PointKey};
use crate::fault::{classify, RetryPolicy};

/// Trace-derived counters for one simulation point, present only when the
/// point ran with tracing enabled (`--trace-dir`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceCounters {
    /// Events the point's trace stream recorded.
    pub events: u64,
    /// Median matrix-element reuse distance (the paper's `|r − c|`), in
    /// pipeline steps.
    pub reuse_median: u32,
    /// 95th-percentile reuse distance, in pipeline steps.
    pub reuse_p95: u32,
    /// Peak buffer occupancy observed by the trace, in bytes.
    pub peak_occupancy_bytes: f64,
}

/// Host-side telemetry for one executed simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// What ran, e.g. `fig14:pr-eu` or `ablation:sssp-bu:no-eager`.
    pub label: String,
    /// Wall-clock seconds the host spent simulating this point.
    pub wall_s: f64,
    /// Pipeline steps the simulator executed.
    pub sim_steps: u64,
    /// Matrix sweeps the run modeled (including analytic repetitions).
    pub modeled_passes: u64,
    /// Peak modeled working set in bytes (buffer + dense vector window).
    pub peak_working_set_bytes: f64,
    /// Trace-derived counters, when the point ran traced.
    pub trace: Option<TraceCounters>,
    /// SpGEMM statistics (intermediate nnz, peak accumulator occupancy,
    /// expansion factor) when the point's schedule ran the Gustavson
    /// `mxm` stage; `None` for `vxm`-only points.
    pub mxm: Option<sparsepipe_core::MxmStats>,
    /// Attempts the point took to succeed (≥ 1; > 1 only after retries).
    pub attempts: u32,
}

// Hand-written so an untraced, first-try run's telemetry JSON is
// byte-identical to the pre-trace, pre-retry schema: the `trace` key is
// omitted entirely (not null) when the point ran without a sink, `mxm`
// is omitted for vxm-only points (keeping the pre-SpGEMM schema), and
// `attempts` is omitted when it is 1.
impl Serialize for PointRecord {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("label".to_string(), self.label.to_value()),
            ("wall_s".to_string(), self.wall_s.to_value()),
            ("sim_steps".to_string(), self.sim_steps.to_value()),
            ("modeled_passes".to_string(), self.modeled_passes.to_value()),
            (
                "peak_working_set_bytes".to_string(),
                self.peak_working_set_bytes.to_value(),
            ),
        ];
        if let Some(trace) = &self.trace {
            fields.push(("trace".to_string(), trace.to_value()));
        }
        if let Some(mxm) = &self.mxm {
            fields.push(("mxm".to_string(), mxm.to_value()));
        }
        if self.attempts > 1 {
            fields.push(("attempts".to_string(), self.attempts.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl PointRecord {
    /// Builds a record from a labelled [`sparsepipe_core::SimTelemetry`].
    pub fn from_telemetry(label: String, t: &sparsepipe_core::SimTelemetry) -> Self {
        PointRecord {
            label,
            wall_s: t.wall_s,
            sim_steps: t.sim_steps,
            modeled_passes: t.modeled_passes,
            peak_working_set_bytes: t.peak_working_set_bytes,
            trace: None,
            mxm: None,
            attempts: 1,
        }
    }

    /// Attaches trace-derived counters to the record.
    #[must_use]
    pub fn with_trace(mut self, counters: TraceCounters) -> Self {
        self.trace = Some(counters);
        self
    }

    /// Attaches SpGEMM statistics to the record (no-op for `None`, so
    /// vxm-only call sites can pass the outcome field through directly).
    #[must_use]
    pub fn with_mxm(mut self, stats: Option<sparsepipe_core::MxmStats>) -> Self {
        self.mxm = stats;
        self
    }

    /// Sets the attempt count the point took to succeed.
    #[must_use]
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts;
        self
    }
}

/// A sweep point skipped by the static pre-flight pruner
/// (`--prune-static`): its provable traffic lower bound already exceeded
/// the configured budget, so running it could not have met the budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedPoint {
    /// The point that was skipped.
    pub point: PointKey,
    /// The static DRAM-traffic lower bound, in bytes.
    pub lower_bound_bytes: f64,
    /// The budget the bound exceeded, in bytes.
    pub budget_bytes: f64,
}

impl Serialize for PrunedPoint {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("point".to_string(), self.point.to_value()),
            (
                "lower_bound_bytes".to_string(),
                self.lower_bound_bytes.to_value(),
            ),
            ("budget_bytes".to_string(), self.budget_bytes.to_value()),
        ])
    }
}

/// Sweep-level [`MatrixCache`] counters surfaced in the telemetry: how
/// often derived artifacts were reused, and how many bytes each artifact
/// class retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheTelemetry {
    /// Artifact lookups served from the cache.
    pub hits: u64,
    /// Artifact lookups that had to build.
    pub misses: u64,
    /// Retained bytes per artifact class.
    pub bytes: CacheBytes,
    /// Entries evicted to stay within a byte budget (0 when unbounded).
    pub evictions: u64,
}

impl Serialize for CacheTelemetry {
    fn to_value(&self) -> serde::Value {
        // `evictions` is appended after the pre-eviction fields so
        // existing schema-prefix consumers keep matching.
        serde::Value::Map(vec![
            ("hits".to_string(), self.hits.to_value()),
            ("misses".to_string(), self.misses.to_value()),
            ("plan_bytes".to_string(), self.bytes.plans.to_value()),
            ("arena_bytes".to_string(), self.bytes.arenas.to_value()),
            ("profile_bytes".to_string(), self.bytes.profiles.to_value()),
            ("total_bytes".to_string(), self.bytes.total().to_value()),
            ("evictions".to_string(), self.evictions.to_value()),
        ])
    }
}

/// The aggregate telemetry written to `BENCH_experiments.json`.
#[derive(Debug)]
pub struct BenchTelemetry {
    /// Worker threads the executor ran with.
    pub jobs: usize,
    /// Number of recorded simulation points.
    pub points: usize,
    /// Total wall-clock seconds across all points (CPU-time-like: points
    /// overlap when `jobs > 1`).
    pub sim_wall_s_total: f64,
    /// Total pipeline steps executed across all points.
    pub sim_steps_total: u64,
    /// Total modeled matrix sweeps across all points.
    pub modeled_passes_total: u64,
    /// Largest per-point modeled working set seen, in bytes.
    pub peak_working_set_bytes_max: f64,
    /// Per-point records, in submission order.
    pub records: Vec<PointRecord>,
    /// Points that exhausted their retries, in submission order. Empty on
    /// a clean run (and omitted from the JSON so clean-run telemetry keeps
    /// the pre-fault-tolerance schema byte-for-byte).
    pub failed_points: Vec<PointError>,
    /// Points skipped by the static pre-flight pruner, in submission
    /// order. Empty — and omitted from the JSON — unless `--prune-static`
    /// pruned something.
    pub pruned_points: Vec<PrunedPoint>,
    /// Sweep-level matrix-cache counters; omitted from the JSON when the
    /// cache was never touched (keeping cache-free telemetry on the prior
    /// schema).
    pub matrix_cache: Option<CacheTelemetry>,
}

impl Serialize for BenchTelemetry {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("jobs".to_string(), self.jobs.to_value()),
            ("points".to_string(), self.points.to_value()),
            (
                "sim_wall_s_total".to_string(),
                self.sim_wall_s_total.to_value(),
            ),
            (
                "sim_steps_total".to_string(),
                self.sim_steps_total.to_value(),
            ),
            (
                "modeled_passes_total".to_string(),
                self.modeled_passes_total.to_value(),
            ),
            (
                "peak_working_set_bytes_max".to_string(),
                self.peak_working_set_bytes_max.to_value(),
            ),
            ("records".to_string(), self.records.to_value()),
        ];
        if !self.failed_points.is_empty() {
            fields.push(("failed_points".to_string(), self.failed_points.to_value()));
        }
        if !self.pruned_points.is_empty() {
            fields.push(("pruned_points".to_string(), self.pruned_points.to_value()));
        }
        if let Some(cache) = &self.matrix_cache {
            fields.push(("matrix_cache".to_string(), cache.to_value()));
        }
        serde::Value::Map(fields)
    }
}

/// How one isolated point ended: a value, or a structured failure the
/// sweep completes around.
#[derive(Debug)]
pub enum PointOutcome<R> {
    /// The point produced a result (possibly after retries).
    Ok {
        /// The point's result.
        value: R,
        /// Attempts taken (≥ 1).
        attempts: u32,
    },
    /// The point exhausted its attempts; the last failure is recorded.
    Failed(PointError),
}

impl<R> PointOutcome<R> {
    /// The failure, if the point failed.
    pub fn failure(&self) -> Option<&PointError> {
        match self {
            PointOutcome::Ok { .. } => None,
            PointOutcome::Failed(e) => Some(e),
        }
    }
}

/// A best-effort rendering of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one point's attempt loop in isolation: each attempt executes
/// under `catch_unwind`, failed attempts retry on `retry`'s deterministic
/// schedule, and exhaustion yields [`PointOutcome::Failed`] carrying the
/// last attempt's classified error.
///
/// This is the per-point half of [`Executor::run_isolated`], exposed so
/// other fan-out surfaces — the serve daemon's worker pool in particular
/// — share the exact isolation/classification/retry semantics of the
/// sweep path. `attempt_fn` receives the 1-based attempt number;
/// `key_of` is only invoked on failure.
pub fn isolate_point<R>(
    retry: &RetryPolicy,
    key_of: impl FnOnce() -> PointKey,
    mut attempt_fn: impl FnMut(u32) -> Result<R, BenchError>,
) -> PointOutcome<R> {
    let mut attempt = 1u32;
    loop {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attempt_fn(attempt)));
        let kind = match caught {
            Ok(Ok(value)) => {
                return PointOutcome::Ok {
                    value,
                    attempts: attempt,
                }
            }
            Ok(Err(e)) => classify(e),
            Err(payload) => PointErrorKind::Panic(panic_message(payload.as_ref())),
        };
        match retry.backoff_after(attempt) {
            Some(delay) => {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                attempt += 1;
            }
            None => {
                return PointOutcome::Failed(PointError {
                    kind,
                    point: key_of(),
                    attempts: attempt,
                })
            }
        }
    }
}

/// A fixed-size worker pool over which sweeps fan their points.
///
/// Results always come back in input order regardless of the thread
/// count, so anything rendered from them is byte-identical between
/// `--jobs 1` and `--jobs N` (host wall-clock telemetry is the one
/// intentionally non-deterministic output).
#[derive(Debug)]
pub struct Executor {
    jobs: usize,
    records: Mutex<Vec<PointRecord>>,
    failures: Mutex<Vec<PointError>>,
    pruned: Mutex<Vec<PrunedPoint>>,
    cache: Arc<MatrixCache>,
}

impl Executor {
    /// Creates an executor with `jobs` workers; `0` selects the machine's
    /// available parallelism.
    pub fn new(jobs: usize) -> Self {
        Executor::with_shared_cache(jobs, Arc::new(MatrixCache::new()))
    }

    /// Like [`Executor::new`], but sharing an externally owned
    /// [`MatrixCache`] — e.g. a budgeted cache the serve daemon keeps
    /// warm across many requests, or one shared between successive
    /// sweeps. `jobs == 0` selects the machine's available parallelism.
    pub fn with_shared_cache(jobs: usize, cache: Arc<MatrixCache>) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            jobs
        };
        Executor {
            jobs,
            records: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
            pruned: Mutex::new(Vec::new()),
            cache,
        }
    }

    /// The worker count this executor fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The sweep-level [`MatrixCache`] shared by every point this executor
    /// runs: derived per-matrix artifacts (pass plans, CSR/CSC arenas,
    /// matrix profiles) are built once and reused across the whole sweep.
    pub fn cache(&self) -> &Arc<MatrixCache> {
        &self.cache
    }

    /// Applies `f` to every item, in parallel across the pool, and returns
    /// the results **in input order**.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the pool threads are joined; a worker
    /// panic fails the whole run rather than silently dropping points).
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.fan_out(items, f, |_, _| {})
    }

    /// [`Executor::run`] with per-point fault isolation: each attempt runs
    /// under `catch_unwind`, failed attempts are retried on `retry`'s
    /// deterministic schedule, and a point that exhausts its attempts
    /// becomes [`PointOutcome::Failed`] instead of taking the sweep down.
    ///
    /// `f` receives the item and the 1-based attempt number (so fault
    /// hooks and deadline bookkeeping can act per attempt). `on_result`
    /// fires once per point on the calling thread, in **completion**
    /// order, while other points are still running — this is where the
    /// checkpoint journal appends, so a killed sweep keeps every point
    /// that finished. The returned vector is in input order, making
    /// everything rendered from it byte-identical across `--jobs N`.
    pub fn run_isolated<T, R, K, F>(
        &self,
        items: &[T],
        retry: &RetryPolicy,
        key_of: K,
        f: F,
        on_result: impl FnMut(usize, &PointOutcome<R>),
    ) -> Vec<PointOutcome<R>>
    where
        T: Sync,
        R: Send,
        K: Fn(&T) -> PointKey + Sync,
        F: Fn(&T, u32) -> Result<R, BenchError> + Sync,
    {
        self.fan_out(
            items,
            |item| isolate_point(retry, || key_of(item), |attempt| f(item, attempt)),
            on_result,
        )
    }

    /// The worker loop behind [`Executor::run`] and
    /// [`Executor::run_isolated`]: applies `f` to every item across the
    /// pool, hands each result to `on_result` on the calling thread in
    /// **completion** order while workers still run, and returns the
    /// results in input order.
    fn fan_out<T, R, F>(&self, items: &[T], f: F, mut on_result: impl FnMut(usize, &R)) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.jobs == 1 || items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let r = f(item);
                    on_result(i, &r);
                    r
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let workers = self.jobs.min(items.len());
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        crossbeam::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                s.spawn(move |_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    if tx.send((i, f(item))).is_err() {
                        break;
                    }
                });
            }
            // Receive on the caller's thread *while workers run*, so
            // `on_result` (journal appends) lands incrementally.
            drop(tx);
            for (i, r) in rx {
                on_result(i, &r);
                slots[i] = Some(r);
            }
        })
        .expect("executor workers must not panic");
        slots
            .into_iter()
            .map(|r| r.expect("every point produced a result"))
            .collect()
    }

    /// Appends one point's telemetry. Callers record results *after*
    /// [`Executor::run`] returns (in input order), keeping the record
    /// sequence deterministic across thread counts.
    pub fn record(&self, record: PointRecord) {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }

    /// Appends one point's failure. Like [`Executor::record`], callers
    /// report failures in input order after the fan-out returns.
    pub fn record_failure(&self, failure: PointError) {
        self.failures
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(failure);
    }

    /// Appends one point the static pruner skipped. Like
    /// [`Executor::record`], callers report pruned points in input order.
    pub fn record_pruned(&self, pruned: PrunedPoint) {
        self.pruned
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(pruned);
    }

    /// Drains the collected records into the aggregate summary.
    pub fn finish(&self) -> BenchTelemetry {
        let records =
            std::mem::take(&mut *self.records.lock().unwrap_or_else(PoisonError::into_inner));
        let failed_points =
            std::mem::take(&mut *self.failures.lock().unwrap_or_else(PoisonError::into_inner));
        let pruned_points =
            std::mem::take(&mut *self.pruned.lock().unwrap_or_else(PoisonError::into_inner));
        let (hits, misses, bytes) = (self.cache.hits(), self.cache.misses(), self.cache.bytes());
        let matrix_cache = (hits + misses > 0).then_some(CacheTelemetry {
            hits,
            misses,
            bytes,
            evictions: self.cache.evictions(),
        });
        BenchTelemetry {
            jobs: self.jobs,
            points: records.len(),
            sim_wall_s_total: records.iter().map(|r| r.wall_s).sum(),
            sim_steps_total: records.iter().map(|r| r.sim_steps).sum(),
            modeled_passes_total: records.iter().map(|r| r.modeled_passes).sum(),
            peak_working_set_bytes_max: records
                .iter()
                .map(|r| r.peak_working_set_bytes)
                .fold(0.0, f64::max),
            records,
            failed_points,
            pruned_points,
            matrix_cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for jobs in [1, 2, 4, 8] {
            let exec = Executor::new(jobs);
            let out = exec.run(&items, |&i| i * i);
            assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_selects_available_parallelism() {
        assert!(Executor::new(0).jobs() >= 1);
        assert_eq!(Executor::new(3).jobs(), 3);
    }

    #[test]
    fn uneven_work_still_reassembles() {
        // items that take wildly different times must not reorder results
        let items: Vec<u64> = (0..24).map(|i| (i * 7919) % 24).collect();
        let exec = Executor::new(4);
        let out = exec.run(&items, |&i| {
            std::thread::sleep(std::time::Duration::from_micros(i * 50));
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn telemetry_aggregates() {
        let exec = Executor::new(2);
        for (i, label) in ["a", "b", "c"].iter().enumerate() {
            exec.record(PointRecord {
                label: (*label).into(),
                wall_s: 0.5,
                sim_steps: 10,
                modeled_passes: i as u64,
                peak_working_set_bytes: 100.0 * i as f64,
                trace: None,
                mxm: None,
                attempts: 1,
            });
        }
        let t = exec.finish();
        assert_eq!(t.points, 3);
        assert_eq!(t.jobs, 2);
        assert!((t.sim_wall_s_total - 1.5).abs() < 1e-12);
        assert_eq!(t.sim_steps_total, 30);
        assert_eq!(t.modeled_passes_total, 3);
        assert_eq!(t.peak_working_set_bytes_max, 200.0);
        assert_eq!(t.records.len(), 3);
        assert_eq!(t.records[0].label, "a");
        // finish drains
        assert_eq!(exec.finish().points, 0);
    }

    #[test]
    fn pool_overlaps_blocking_work() {
        // Sleep-bound points overlap even on a single-core host, so this
        // asserts the pool genuinely runs points concurrently (the CPU-bound
        // speedup depends on the machine's core count and is measured by the
        // CI smoke sweep instead). 12 x 50ms sequentially is >= 600ms; a
        // 12-wide pool must beat that by well over the 1.5x acceptance bar.
        let items: Vec<u32> = (0..12).collect();
        let exec = Executor::new(12);
        let start = std::time::Instant::now();
        let out = exec.run(&items, |&i| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            i
        });
        let elapsed = start.elapsed();
        assert_eq!(out, items);
        assert!(
            elapsed < std::time::Duration::from_millis(400),
            "pool did not overlap blocking work: {elapsed:?} for 12 x 50ms"
        );
    }

    #[test]
    fn untraced_record_serializes_without_trace_key() {
        let record = PointRecord {
            label: "p".into(),
            wall_s: 0.25,
            sim_steps: 7,
            modeled_passes: 3,
            peak_working_set_bytes: 64.0,
            trace: None,
            mxm: None,
            attempts: 1,
        };
        let json = serde_json::to_string(&record).unwrap();
        assert!(
            !json.contains("trace"),
            "untraced records must keep the pre-trace schema: {json}"
        );
        assert!(
            !json.contains("attempts"),
            "first-try records must keep the pre-retry schema: {json}"
        );
        assert!(
            !json.contains("mxm"),
            "vxm-only records must keep the pre-SpGEMM schema: {json}"
        );
        let with_stats = record.clone().with_mxm(Some(sparsepipe_core::MxmStats {
            intermediate_nnz: 40,
            out_nnz: 12,
            peak_accumulator_cols: 5,
            expansion_factor: 40.0 / 12.0,
        }));
        let json = serde_json::to_string(&with_stats).unwrap();
        assert!(
            json.contains("\"mxm\":{\"intermediate_nnz\":40"),
            "mxm points carry their SpGEMM statistics: {json}"
        );
        let retried = record.clone().with_attempts(3);
        assert!(
            serde_json::to_string(&retried)
                .unwrap()
                .contains("\"attempts\":3"),
            "retried records carry their attempt count"
        );
        let traced = record.with_trace(TraceCounters {
            events: 120,
            reuse_median: 4,
            reuse_p95: 19,
            peak_occupancy_bytes: 4096.0,
        });
        let json = serde_json::to_string(&traced).unwrap();
        assert!(json.contains("\"trace\":{"), "{json}");
        assert!(json.contains("\"reuse_median\":4"), "{json}");
        assert!(json.contains("\"reuse_p95\":19"), "{json}");
        assert!(json.contains("\"peak_occupancy_bytes\":4096"), "{json}");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let exec = Executor::new(8);
        assert!(exec.run(&Vec::<u32>::new(), |&x| x).is_empty());
        assert_eq!(exec.run(&[41u32], |&x| x + 1), vec![42]);
    }

    fn key_of(i: &u32) -> PointKey {
        PointKey {
            app: format!("app{i}"),
            matrix: "ca".into(),
            scale: 64,
        }
    }

    #[test]
    fn isolated_panic_fails_one_point_and_spares_the_rest() {
        let items: Vec<u32> = (0..9).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        for jobs in [1, 4] {
            let exec = Executor::new(jobs);
            let outcomes = exec.run_isolated(
                &items,
                &RetryPolicy::default(),
                key_of,
                |&i, _attempt| {
                    if i == 4 {
                        panic!("boom at {i}");
                    }
                    Ok(i * i)
                },
                |_, _| {},
            );
            for (i, o) in outcomes.iter().enumerate() {
                if i == 4 {
                    let e = o.failure().expect("point 4 must fail");
                    assert!(matches!(&e.kind, PointErrorKind::Panic(m) if m.contains("boom")));
                    assert_eq!(e.attempts, 1);
                    assert_eq!(e.point.app, "app4");
                } else {
                    assert!(
                        matches!(o, PointOutcome::Ok { value, attempts: 1 } if *value == (i * i) as u32),
                        "point {i} perturbed by the failure at jobs={jobs}"
                    );
                }
            }
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn transient_errors_recover_within_the_retry_budget() {
        let attempts_seen = Mutex::new(Vec::new());
        let exec = Executor::new(1);
        let outcomes = exec.run_isolated(
            &[7u32],
            &RetryPolicy {
                max_attempts: 3,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
            },
            key_of,
            |&i, attempt| {
                attempts_seen.lock().unwrap().push(attempt);
                if attempt < 3 {
                    Err(BenchError::Injected {
                        label: format!("app{i}-ca"),
                        attempt,
                    })
                } else {
                    Ok(i)
                }
            },
            |_, _| {},
        );
        assert!(matches!(
            outcomes[0],
            PointOutcome::Ok {
                value: 7,
                attempts: 3
            }
        ));
        assert_eq!(*attempts_seen.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn exhausted_retries_report_the_last_error() {
        let exec = Executor::new(2);
        let outcomes = exec.run_isolated(
            &[1u32, 2],
            &RetryPolicy {
                max_attempts: 2,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
            },
            key_of,
            |&i, attempt| -> Result<u32, BenchError> {
                if i == 2 {
                    return Ok(i);
                }
                Err(BenchError::Injected {
                    label: format!("app{i}-ca"),
                    attempt,
                })
            },
            |_, _| {},
        );
        let e = outcomes[0].failure().expect("point 1 must fail");
        assert_eq!(e.attempts, 2);
        assert!(
            matches!(
                &e.kind,
                PointErrorKind::Sim(BenchError::Injected { attempt: 2, .. })
            ),
            "last attempt's error is the one reported: {e}"
        );
        assert!(outcomes[1].failure().is_none());
    }

    #[test]
    fn on_result_fires_once_per_point_while_running() {
        let items: Vec<u32> = (0..12).collect();
        for jobs in [1, 4] {
            let exec = Executor::new(jobs);
            let mut seen = Vec::new();
            let outcomes = exec.run_isolated(
                &items,
                &RetryPolicy::default(),
                key_of,
                |&i, _| Ok(i),
                |i, o| seen.push((i, o.failure().is_none())),
            );
            assert_eq!(outcomes.len(), items.len());
            seen.sort_unstable();
            let expect: Vec<(usize, bool)> = (0..items.len()).map(|i| (i, true)).collect();
            assert_eq!(seen, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn pruned_points_and_cache_stats_reach_telemetry_only_when_present() {
        let exec = Executor::new(1);
        let clean = serde_json::to_string(&exec.finish()).unwrap();
        assert!(!clean.contains("pruned_points"), "{clean}");
        assert!(
            !clean.contains("matrix_cache"),
            "an untouched cache must keep the prior schema: {clean}"
        );
        exec.record_pruned(PrunedPoint {
            point: key_of(&5),
            lower_bound_bytes: 2.0e9,
            budget_bytes: 1.0e9,
        });
        let dirty = serde_json::to_string(&exec.finish()).unwrap();
        assert!(dirty.contains("\"pruned_points\":[{"), "{dirty}");
        assert!(dirty.contains("\"app\":\"app5\""), "{dirty}");
        assert!(
            dirty.contains("\"lower_bound_bytes\":2000000000"),
            "{dirty}"
        );
        assert!(dirty.contains("\"budget_bytes\":1000000000"), "{dirty}");
    }

    #[test]
    fn cache_use_surfaces_hit_miss_and_byte_counters() {
        let exec = Executor::new(1);
        let m = sparsepipe_tensor::CooMatrix::from_entries(4, 4, vec![(0, 1, 1.0), (2, 3, 1.0)])
            .unwrap();
        let key = MatrixCache::key_for("t", &m);
        let kind = sparsepipe_core::ReorderKind::None;
        for _ in 0..2 {
            exec.cache()
                .plan(key, kind, 2, || sparsepipe_core::PassPlan::build(&m, 2));
        }
        let t = exec.finish();
        let cache = t.matrix_cache.expect("cache was touched");
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
        assert!(cache.bytes.plans > 0);
        assert_eq!(
            cache.bytes.total(),
            cache.bytes.plans + cache.bytes.arenas + cache.bytes.profiles
        );
        let json = serde_json::to_string(&t).unwrap();
        assert!(
            json.contains("\"matrix_cache\":{\"hits\":1,\"misses\":1"),
            "{json}"
        );
        assert!(json.contains("\"plan_bytes\":"), "{json}");
        assert!(json.contains("\"total_bytes\":"), "{json}");
    }

    #[test]
    fn failed_points_reach_telemetry_only_when_present() {
        let exec = Executor::new(1);
        let clean = serde_json::to_string(&exec.finish()).unwrap();
        assert!(!clean.contains("failed_points"), "{clean}");
        exec.record_failure(PointError {
            kind: PointErrorKind::Panic("boom".into()),
            point: key_of(&3),
            attempts: 2,
        });
        let dirty = serde_json::to_string(&exec.finish()).unwrap();
        assert!(dirty.contains("\"failed_points\":[{"), "{dirty}");
        assert!(dirty.contains("\"app\":\"app3\""), "{dirty}");
    }
}
