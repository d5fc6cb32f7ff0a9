//! Regenerates the Sparsepipe paper's tables and figures.
//!
//! ```text
//! experiments <artifact>... [--scale N] [--quick] [--jobs N] [--json out.json]
//!                           [--bench-json out.json] [--mtx DIR] [--lint]
//!                           [--trace-dir DIR]
//! experiments trace [--app NAME] [--matrix CODE] [--trace-dir DIR]
//! experiments analyze [--app NAME] [--matrix CODE]
//! experiments compile --expr '<einsum>' | --file corpus.ses [--matrix CODE]
//!                     [--emit graph]
//! experiments convert --out FILE.slab [--in FILE.mtx | --matrix CODE --scale N]
//!
//! artifacts: all table1 table2 table3 fig14 fig15 fig16 fig17 fig18
//!            fig19 fig20a fig20b fig21 fig22 fig23 ablation verify
//! --scale N       dataset scale divisor (default 64; 1 = paper-size)
//! --quick         three-matrix subset (ca, gy, bu) for smoke runs
//! --jobs N        worker threads for the sweep executor (default 0 = all
//!                 cores; 1 = fully sequential). Output is byte-identical
//!                 for every N.
//! --json F        additionally dump the raw app x matrix sweep (all
//!                 systems' reports) as JSON to F
//! --bench-json F  write run telemetry (per-point wall clock, simulator
//!                 step counts, peak working sets) to F instead of the
//!                 default BENCH_experiments.json
//! --mtx DIR       load real MatrixMarket matrices from DIR/<code>.mtx
//!                 instead of the synthetic stand-ins (use --scale 1)
//! --slab DIR      load binary matrix slabs from DIR/<code>.s<scale>.slab
//!                 (written by `experiments convert`); exclusive with --mtx
//! --lint          run the static verifier (sparsepipe-lint) over every
//!                 registered app first; exit non-zero on any lint error
//! --trace-dir DIR with sweep artifacts: trace every sweep point, audit
//!                 each stream against its report bit-for-bit, and write
//!                 per-point JSONL traces to DIR. With the `trace`
//!                 subcommand: where the exports go (default trace-out)
//! trace           trace one (app, matrix) point (--app, --matrix; default
//!                 pr on ca) and export trace.jsonl, a Perfetto-loadable
//!                 chrome-trace.json, and reuse/occupancy/traffic CSVs
//! analyze         run the static cost & reuse analyzer (--app filters to
//!                 one app, default all; --matrix picks the input) and
//!                 verify every traffic/occupancy bound against an audited
//!                 simulator trace; writes analyze-report.json and exits
//!                 3 on any bound violation
//! compile         parse, lint, and lower sparse-einsum expressions
//!                 (`--expr` for one, `--file` for a corpus, one per
//!                 line), run one simulated point for each, and exit 4
//!                 when any expression carries a diagnostic error.
//!                 `--emit graph` additionally dumps each lowered
//!                 DataflowGraph as JSON into the trace dir
//! convert         write a binary matrix slab: `--in FILE.mtx` streams a
//!                 MatrixMarket file (constant-memory two-pass build), or
//!                 `--matrix CODE --scale N` freezes a synthetic matrix;
//!                 `--out FILE.slab` is required
//!
//! fault tolerance (every sweep point runs isolated: a failed point is
//! reported and skipped instead of aborting the run, and the process
//! exits 2 when any point failed; none of these combine with --trace-dir):
//! --deadline-ms N    per-point wall-clock budget
//! --retries N        attempts beyond the first per failed point
//! --backoff-ms N     deterministic doubling backoff base between retries
//! --checkpoint F     append each completed point to journal F (fsync'd)
//! --resume           restore completed points from F instead of re-running
//! --inject SPEC      deterministic fault injection for tests/CI, e.g.
//!                    panic@pr-ca, timeout@sssp-bu, transient@pr-ca:2
//! --prune-static N   skip sweep points whose statically *provable* DRAM
//!                    traffic lower bound exceeds N bytes (recorded as
//!                    `pruned_points` in the telemetry; an in-budget point
//!                    is never pruned)
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use sparsepipe_bench::cli;
use sparsepipe_bench::error::BenchError;
use sparsepipe_bench::executor::Executor;
use sparsepipe_bench::experiments as exp;
use sparsepipe_bench::sweep::Sweep;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            let mut source = std::error::Error::source(&e);
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = cause.source();
            }
            ExitCode::FAILURE
        }
    }
}

fn write_json(path: &Path, value: &impl serde::Serialize) -> Result<(), BenchError> {
    let json = serde_json::to_string_pretty(value).map_err(|e| BenchError::Json(e.to_string()))?;
    std::fs::write(path, json).map_err(|source| BenchError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn run() -> Result<ExitCode, BenchError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            return Err(BenchError::Cli(format!("{e}\n{}", cli::usage())));
        }
    };
    if opts.help {
        eprintln!("{}", cli::usage());
        return Ok(ExitCode::SUCCESS);
    }
    if opts.lint {
        let (report, failing) = exp::lint_apps();
        println!("{}", report.render());
        if failing > 0 {
            return Ok(ExitCode::FAILURE);
        }
        if opts.artifacts.is_empty() {
            return Ok(ExitCode::SUCCESS);
        }
    }

    let ctx = opts.context();
    let exec = Executor::new(opts.jobs);
    // determinism: allow (host wall-clock telemetry, not simulated state)
    let wall_start = Instant::now();
    eprintln!(
        "# sparsepipe experiments — scale 1/{}, {:?} matrices, source {:?}, {} worker(s)",
        ctx.scale(),
        ctx.set(),
        ctx.source(),
        exec.jobs()
    );
    // Figures 14/16/17/18/20b/21/22/23 share one sweep; run it lazily.
    let mut sweep_failures = 0usize;
    let mut bound_violations = 0usize;
    let mut compile_failures = 0usize;
    let sweep = if opts.needs_sweep() {
        let sweep_opts = opts.sweep_options().map_err(BenchError::Cli)?;
        match &sweep_opts.trace_dir {
            Some(dir) => eprintln!(
                "# running app x matrix sweep with tracing (streams in {}) …",
                dir.display()
            ),
            None => eprintln!("# running app x matrix sweep …"),
        }
        let outcome = Sweep::run(ctx.clone(), &exec, &sweep_opts)?;
        if outcome.resumed > 0 {
            eprintln!(
                "# resumed {} completed point(s) from the checkpoint journal, executed {}",
                outcome.resumed, outcome.executed
            );
        }
        sweep_failures = outcome.failures.len();
        for failure in outcome.failures {
            eprintln!("point failed: {failure}");
            let mut source = std::error::Error::source(&failure);
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = cause.source();
            }
            exec.record_failure(failure);
        }
        Some(outcome.sweep)
    } else {
        None
    };
    if let (Some(path), Some(sweep)) = (&opts.json_out, &sweep) {
        write_json(path, sweep)?;
        eprintln!("# wrote sweep JSON to {}", path.display());
    }
    let sweep_ref = || sweep.as_ref().expect("sweep computed above");

    for artifact in &opts.artifacts {
        let report = match artifact.as_str() {
            "table1" => exp::table1(&ctx, &exec)?,
            "table2" => exp::table2()?,
            "table3" => exp::table3()?,
            "fig14" => exp::fig14(sweep_ref())?,
            "fig15" => exp::fig15(&ctx, &exec)?,
            "fig16" => exp::fig16(sweep_ref())?,
            "fig17" => exp::fig17(sweep_ref())?,
            "fig18" => exp::fig18(sweep_ref())?,
            "fig19" => exp::fig19(&ctx, &exec)?,
            "fig20a" => exp::fig20a(&ctx, &exec)?,
            "fig20b" => exp::fig20b(sweep_ref())?,
            "fig21" => exp::fig21(sweep_ref())?,
            "fig22" => exp::fig22(sweep_ref())?,
            "fig23" => exp::fig23(sweep_ref())?,
            "ablation" => exp::ablation(&ctx, &exec)?,
            "verify" => exp::verify()?,
            "trace" => exp::trace_point(
                &ctx,
                &exec,
                opts.trace_app(),
                opts.trace_matrix,
                &opts.trace_dir(),
            )?,
            "analyze" => {
                let (report, violations) = exp::analyze(
                    &ctx,
                    &exec,
                    opts.app.as_deref(),
                    opts.trace_matrix,
                    Path::new("analyze-report.json"),
                )?;
                bound_violations += violations;
                report
            }
            "compile" => {
                let entries = if let Some(src) = &opts.expr {
                    sparsepipe_bench::einsum_corpus::parse_corpus(src)
                } else {
                    let path = opts.expr_file.as_ref().expect("cli::parse validated");
                    sparsepipe_bench::einsum_corpus::load(path)?
                };
                if entries.is_empty() {
                    return Err(BenchError::Cli(
                        "compile: no expressions found in the input".into(),
                    ));
                }
                let emit_dir = opts.emit.as_ref().map(|_| opts.trace_dir());
                let (report, failing) = exp::compile_exprs(
                    &ctx,
                    &exec,
                    &entries,
                    opts.trace_matrix,
                    emit_dir.as_deref(),
                )?;
                compile_failures += failing;
                report
            }
            "convert" => exp::convert(
                opts.convert_in.as_deref(),
                opts.trace_matrix,
                opts.scale,
                opts.convert_out.as_ref().expect("cli::parse validated"),
            )?,
            other => unreachable!("cli::parse validated artifact {other}"),
        };
        println!("{}", report.render());
    }

    let telemetry = exec.finish();
    if telemetry.points > 0 {
        let path = opts
            .bench_json
            .clone()
            .unwrap_or_else(|| "BENCH_experiments.json".into());
        write_json(&path, &telemetry)?;
        eprintln!(
            "# {} simulation point(s), {:.2}s simulated wall clock across {} worker(s), \
             {:.2}s elapsed — telemetry in {}",
            telemetry.points,
            telemetry.sim_wall_s_total,
            telemetry.jobs,
            wall_start.elapsed().as_secs_f64(),
            path.display()
        );
    }
    if sweep_failures > 0 {
        eprintln!(
            "# {sweep_failures} sweep point(s) failed — details in the telemetry JSON \
             (`failed_points`); successful points are unaffected"
        );
        return Ok(ExitCode::from(2));
    }
    if bound_violations > 0 {
        eprintln!(
            "# {bound_violations} static bound violation(s) — the analyzer's proofs do not \
             hold against the audited trace (details in analyze-report.json)"
        );
        return Ok(ExitCode::from(3));
    }
    if compile_failures > 0 {
        eprintln!(
            "# {compile_failures} expression(s) failed to compile clean — diagnostics in the \
             compile report above"
        );
        return Ok(ExitCode::from(4));
    }
    Ok(ExitCode::SUCCESS)
}
