//! End-to-end fault-tolerance acceptance suite (`DESIGN.md` §12).
//!
//! Every test drives [`Sweep::run`] — the one path every `experiments`
//! sweep takes, with `--retries`/`--checkpoint`/`--inject` as options —
//! over the Quick matrix set and checks the two properties the fault
//! model promises:
//!
//! 1. **Isolation**: a failure (panic, timeout, error) at one point is
//!    reported with its identity and leaves every other point
//!    byte-identical to a clean run, at any worker count.
//! 2. **Determinism under recovery**: retries and checkpoint/resume are
//!    invisible in the output — a sweep that retried, or that was killed
//!    mid-run and resumed from its journal, serializes bitwise-identically
//!    to one that ran uninterrupted.

use std::path::PathBuf;
use std::time::Duration;

use sparsepipe_bench::datasets::{DataContext, MatrixSet};
use sparsepipe_bench::error::PointErrorKind;
use sparsepipe_bench::executor::Executor;
use sparsepipe_bench::fault::{FaultInjector, RetryPolicy};
use sparsepipe_bench::sweep::{Entry, Sweep, SweepOptions};

const SCALE: u64 = 256;
const POINTS: usize = 45; // Quick set: 3 matrices x 15 apps

fn context() -> DataContext {
    DataContext::synthetic(MatrixSet::Quick, SCALE)
}

fn entry_json(e: &Entry) -> String {
    serde_json::to_string(e).expect("entries serialize")
}

fn sweep_json(s: &Sweep) -> String {
    serde_json::to_string(s).expect("sweeps serialize")
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sparsepipe-fault-{tag}-{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn an_injected_panic_spares_every_other_point_at_any_job_count() {
    let exec = Executor::new(1);
    let clean = Sweep::run(context(), &exec, &SweepOptions::default()).expect("clean sweep runs");
    assert!(clean.failures.is_empty());
    assert_eq!(clean.sweep.entries.len(), POINTS);

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
    for jobs in [1usize, 4] {
        let exec = Executor::new(jobs);
        let opts = SweepOptions {
            inject: FaultInjector::from_specs(&["panic@pr-ca"]).unwrap(),
            ..SweepOptions::default()
        };
        let outcome = Sweep::run(context(), &exec, &opts)
            .expect("an injected panic must not abort the sweep");

        assert_eq!(outcome.failures.len(), 1, "exactly one point fails");
        let failure = &outcome.failures[0];
        assert_eq!(failure.point.label(), "pr-ca");
        assert_eq!(failure.point.scale, SCALE);
        assert_eq!(failure.attempts, 1);
        assert!(
            matches!(&failure.kind, PointErrorKind::Panic(m) if m.contains("injected panic")),
            "panic payload must survive into the report: {failure}"
        );

        // The surviving N-1 entries are byte-identical to the clean run's.
        let survivors: Vec<String> = clean
            .sweep
            .entries
            .iter()
            .filter(|e| !(e.app == "pr" && e.matrix.code() == "ca"))
            .map(entry_json)
            .collect();
        let got: Vec<String> = outcome.sweep.entries.iter().map(entry_json).collect();
        assert_eq!(got, survivors, "jobs={jobs} perturbed a surviving point");

        // The failure also reaches the telemetry that lands in
        // BENCH_experiments.json.
        exec.record_failure(outcome.failures.into_iter().next().unwrap());
        let telemetry = exec.finish();
        assert_eq!(telemetry.failed_points.len(), 1);
        assert_eq!(telemetry.failed_points[0].kind.tag(), "panic");
    }
    std::panic::set_hook(hook);
}

#[test]
fn transient_faults_recover_within_the_retry_budget_without_a_trace() {
    let exec = Executor::new(1);
    let clean = Sweep::run(context(), &exec, &SweepOptions::default()).expect("clean sweep runs");

    // pr-ca fails its first two attempts, succeeds on the third.
    let opts = SweepOptions {
        retry: RetryPolicy::with_retries(2, 0),
        inject: FaultInjector::from_specs(&["transient@pr-ca:2"]).unwrap(),
        ..SweepOptions::default()
    };
    let exec = Executor::new(1);
    let outcome = Sweep::run(context(), &exec, &opts).expect("retried sweep runs");
    assert!(
        outcome.failures.is_empty(),
        "two transient faults must be absorbed by two retries: {:?}",
        outcome.failures
    );

    // Recovery is invisible in the sweep output…
    assert_eq!(sweep_json(&outcome.sweep), sweep_json(&clean.sweep));

    // …but visible in telemetry: the retried point carries its attempt
    // count, every other point stays at the (omitted) default of 1.
    let telemetry = exec.finish();
    let retried = telemetry
        .records
        .iter()
        .find(|r| r.label == "sweep:pr-ca")
        .expect("retried point recorded");
    assert_eq!(retried.attempts, 3);
    assert!(telemetry
        .records
        .iter()
        .filter(|r| r.label != "sweep:pr-ca")
        .all(|r| r.attempts == 1));
}

#[test]
fn an_injected_timeout_is_reported_as_a_deadline_failure() {
    let exec = Executor::new(2);
    let opts = SweepOptions {
        deadline: Some(Duration::from_millis(120_000)),
        inject: FaultInjector::from_specs(&["timeout@sssp-bu"]).unwrap(),
        ..SweepOptions::default()
    };
    let outcome = Sweep::run(context(), &exec, &opts).expect("timeout must not abort");
    assert_eq!(outcome.sweep.entries.len(), POINTS - 1);
    assert_eq!(outcome.failures.len(), 1);
    let failure = &outcome.failures[0];
    assert_eq!(failure.point.label(), "sssp-bu");
    assert!(
        matches!(failure.kind, PointErrorKind::Timeout { budget_ms: 120_000 }),
        "an injected DeadlineExceeded must classify as a timeout: {failure}"
    );
}

#[test]
fn a_killed_sweep_resumes_to_a_bitwise_identical_result() {
    let path = temp_journal("resume");
    let _ = std::fs::remove_file(&path);

    // Uninterrupted checkpointed run: the reference output.
    let opts = SweepOptions {
        checkpoint: Some(path.clone()),
        ..SweepOptions::default()
    };
    let exec = Executor::new(2);
    let reference = Sweep::run(context(), &exec, &opts).expect("checkpointed sweep runs");
    assert!(reference.failures.is_empty());
    let reference_json = sweep_json(&reference.sweep);

    // Simulate a SIGKILL mid-sweep: keep the header and the first 12
    // records, then half of the 13th — the torn write an append-only
    // journal is allowed to end in.
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + POINTS, "header + one record per point");
    let keep = 13; // header + 12 complete records
    let mut truncated: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    truncated.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&path, truncated).expect("journal truncates");

    // Resume: the 12 journaled points are restored, the rest re-run, and
    // the final sweep is bitwise-identical to the uninterrupted one.
    let opts = SweepOptions {
        checkpoint: Some(path.clone()),
        resume: true,
        ..SweepOptions::default()
    };
    let exec = Executor::new(2);
    let resumed = Sweep::run(context(), &exec, &opts).expect("resume runs");
    assert!(resumed.failures.is_empty());
    assert_eq!(resumed.resumed, 12);
    assert_eq!(resumed.executed, POINTS - 12);
    assert_eq!(sweep_json(&resumed.sweep), reference_json);

    // The journal is whole again: a second resume re-runs nothing.
    let exec = Executor::new(1);
    let replayed = Sweep::run(context(), &exec, &opts).expect("replay runs");
    assert_eq!(replayed.resumed, POINTS);
    assert_eq!(replayed.executed, 0);
    assert_eq!(sweep_json(&replayed.sweep), reference_json);

    let _ = std::fs::remove_file(&path);
}
