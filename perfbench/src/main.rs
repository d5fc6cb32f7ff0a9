//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-vxm|sweep-mxm|serve-mix|oocore-wi> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload runs in a child process
//! of its own, so `peak_rss_mb` (`VmHWM`) covers only that workload. The
//! child prints a table of metrics and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric of `BENCHMARK.json` for `--trace 0`, every per-layer metric for
//! `--trace 1`. A failed correctness check makes `correct` false and the
//! exit code 1. See `perfbench/README.md` for the workloads and metrics.

mod compose;
mod oocore;
mod report;
mod serve;
mod source;
mod spans;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Metrics;

/// Worker threads and client connections per workload (`nproc` = 2).
pub(crate) const JOBS: usize = 2;

const WORKLOADS: [&str; 4] = ["sweep-vxm", "sweep-mxm", "serve-mix", "oocore-wi"];
const CHILD_VAR: &str = "SPARSEPIPE_PERFBENCH_CHILD";
/// The child is killed after this long, so a run always ends in time.
const CHILD_LIMIT: Duration = Duration::from_secs(170);
/// Where runs keep their scratch files, relative to the repository root.
const WORK_ROOT: &str = ".bench_work";
/// Entry digests at the default seed, per workload.
const DIGESTS: &str = include_str!("../digests.json");

/// One run's settings.
pub(crate) struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// How long the timed phase runs, at least.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory of this run.
    pub work: PathBuf,
}

/// What a workload reports.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Metrics by name.
    pub metrics: Metrics,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, source::DEFAULT_SEED, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload `{value}`; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os(CHILD_VAR).is_some() {
        child(&args)
    } else {
        parent(&args)
    }
}

/// The scratch directory of the workload process `pid`.
fn work_dir(workload: &str, pid: u32) -> PathBuf {
    PathBuf::from(WORK_ROOT).join(format!("{workload}-{pid}"))
}

/// Re-runs this executable with the same arguments as a child process,
/// bounded by [`CHILD_LIMIT`].
fn parent(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = match std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(CHILD_VAR, "1")
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: cannot start the workload process: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return ExitCode::SUCCESS,
            Ok(Some(status)) => {
                eprintln!("perfbench: workload process {status}");
                return ExitCode::FAILURE;
            }
            Ok(None) if started.elapsed() < CHILD_LIMIT => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(None) | Err(_) => {
                eprintln!("perfbench: workload process exceeded {CHILD_LIMIT:?}; killed");
                let _ = child.kill();
                let _ = child.wait();
                // A killed child cannot remove its own scratch files.
                let _ = std::fs::remove_dir_all(work_dir(args.workload, child.id()));
                return ExitCode::FAILURE;
            }
        }
    }
}

/// Removes a run's scratch directory when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn child(args: &Args) -> ExitCode {
    let expected = match benchmark_metrics(args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = WorkDir(work_dir(args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: create {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work: work.0.clone(),
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} jobs={JOBS}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let steal_before = host_steal();
    let result = match args.workload {
        "sweep-vxm" => sweep::run(&ctx, sweep::Family::Vxm),
        "sweep-mxm" => sweep::run(&ctx, sweep::Family::Mxm),
        "serve-mix" => serve::run(&ctx),
        _ => oocore::run(&ctx),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(WORK_ROOT).join(format!("spans-{}.jsonl", args.workload));
        match spans::write_jsonl(&spans::snapshot(), &path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => outcome
                .problems
                .push(format!("write {}: {e}", path.display())),
        }
    } else {
        outcome
            .metrics
            .set("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    for (name, unit) in &expected {
        if !outcome.metrics.units().any(|(n, _)| n == name) {
            // A layer this workload does not exercise.
            outcome.metrics.set(name, 0.0, unit);
        }
    }
    let unlisted: Vec<String> = outcome
        .metrics
        .units()
        .filter(|&(n, u)| !expected.iter().any(|(e, eu)| e == n && eu == u))
        .map(|(n, u)| format!("{n} ({u})"))
        .collect();
    if !unlisted.is_empty() {
        outcome.problems.push(format!(
            "metrics missing from BENCHMARK.json or with another unit there: {unlisted:?}"
        ));
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, host_steal()) {
        // Time the hypervisor ran other guests on this machine's CPUs;
        // a high share explains a slow run on a shared host.
        println!(
            "  host steal during the run: {:.1}% of CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    outcome.metrics.print_table();
    for p in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Steal and total CPU time since boot, in clock ticks, from
/// `/proc/stat`; `None` where it cannot be read.
fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map_while(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The `(name, unit)` pairs `BENCHMARK.json` lists for this kind of run.
fn benchmark_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let Some(serde::Value::Seq(items)) = doc.get(key) else {
        return Err(format!("BENCHMARK.json has no `{key}` list"));
    };
    items
        .iter()
        .map(|item| {
            let field = |f: &str| {
                item.get(f)
                    .and_then(serde::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json `{key}` entry without `{f}`"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Prints the digest of a workload's rendered entries and, at the default
/// seed, checks it against the one recorded in `digests.json`.
pub(crate) fn check_digest(ctx: &Ctx, workload: &str, rendered: &[&str], outcome: &mut Outcome) {
    let digest = report::digest(rendered.iter().copied());
    println!("  entry digest: {digest} over {} entries", rendered.len());
    if ctx.seed != source::DEFAULT_SEED {
        return;
    }
    let recorded = serde_json::from_str(DIGESTS).ok().and_then(|d| {
        d.get(workload)
            .and_then(serde::Value::as_str)
            .map(str::to_string)
    });
    if recorded.as_deref() != Some(digest.as_str()) {
        outcome.problems.push(format!(
            "{workload}: entry digest {digest} at the default seed, recorded {recorded:?}"
        ));
    }
}

/// The per-layer metrics measured by spans: busy time, calls, and point
/// latency. `sim_steps` is the simulator steps the traced round executed.
pub(crate) fn layer_metrics(m: &mut Metrics, all: &[spans::Span], sim_steps: u64) {
    let s = spans::Summary::new(all);
    for (metric, span) in [
        ("tensor.gen.busy_s", "tensor.gen"),
        ("tensor.reorder.busy_s", "tensor.reorder"),
        ("tensor.stats.busy_s", "tensor.stats"),
        ("tensor.mm.write_s", "tensor.mm.write"),
        ("core.slab.convert_s", "core.slab.convert"),
        ("core.slab.read_s", "core.slab.read"),
        ("core.arena.to_coo_s", "core.arena.to_coo"),
        ("core.plan.busy_s", "core.plan"),
        ("core.arena.busy_s", "core.arena"),
        ("core.profile.busy_s", "core.profile"),
        ("core.sim.busy_s", "core.sim"),
        ("core.spgemm.busy_s", "core.spgemm"),
        ("frontend.compile.busy_s", "frontend.compile"),
        ("baselines.busy_s", "baselines"),
        ("bench.datasets.busy_s", "bench.datasets"),
    ] {
        if s.calls(span) > 0 {
            m.set(metric, s.busy_s(span), "s");
        }
    }
    for (metric, span) in [
        ("core.plan.calls", "core.plan"),
        ("core.arena.calls", "core.arena"),
        ("core.sim.calls", "core.sim"),
    ] {
        m.set(metric, s.calls(span) as f64, "count");
    }
    let sim_s = s.busy_s("core.sim");
    if sim_steps > 0 && sim_s > 0.0 {
        m.set("core.sim.steps", sim_steps as f64, "count");
        m.set("core.sim.steps_per_s", sim_steps as f64 / sim_s, "1/s");
    }
    let points_ms: Vec<f64> = s
        .durations_s("bench.eval")
        .iter()
        .map(|d| d * 1e3)
        .collect();
    if !points_ms.is_empty() {
        m.set("bench.eval.point_ms_p50", report::median(&points_ms), "ms");
        m.set(
            "bench.eval.point_ms_p90",
            report::quantile(&points_ms, 0.9),
            "ms",
        );
        m.set("bench.eval.self_s", s.self_s("bench.eval"), "s");
    }
}
