//! Argument parsing for the `experiments` binary (kept in the library so
//! it is unit-testable).

use std::path::PathBuf;

use sparsepipe_tensor::MatrixId;

use crate::datasets::{DataContext, MatrixSet, SourceConfig};

/// Every artifact the harness can regenerate, in paper order.
pub const ALL_ARTIFACTS: [&str; 17] = [
    "table1", "table2", "table3", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20a",
    "fig20b", "fig21", "fig22", "fig23", "ablation", "verify", "all",
];

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Requested artifacts, `all` already expanded.
    pub artifacts: Vec<String>,
    /// Dataset scale divisor.
    pub scale: u64,
    /// Matrix subset.
    pub set: MatrixSet,
    /// Write the raw sweep as JSON here, if set.
    pub json_out: Option<PathBuf>,
    /// Worker threads for the sweep executor (`0` = machine parallelism).
    pub jobs: usize,
    /// Where to write the run-telemetry JSON (default
    /// `BENCH_experiments.json` in the working directory).
    pub bench_json: Option<PathBuf>,
    /// Where matrices come from: synthetic (default), `--mtx DIR`
    /// MatrixMarket files, or `--slab DIR` binary slabs written by the
    /// `convert` subcommand.
    pub source: SourceConfig,
    /// Run the static verifier over every registered app before any
    /// artifact, failing the run on lint errors.
    pub lint: bool,
    /// `--help` was requested.
    pub help: bool,
    /// Trace output directory (`--trace-dir`). When set, sweep-backed
    /// artifacts run with per-point tracing; the `trace` subcommand
    /// writes its exports here (default `trace-out`).
    pub trace_dir: Option<PathBuf>,
    /// App short name (`--app`): the `trace` subcommand's point (default
    /// `pr`), or the `analyze` subcommand's filter (default: all apps).
    pub app: Option<String>,
    /// Matrix for the `trace`/`analyze` subcommands (`--matrix`, default
    /// `ca`).
    pub trace_matrix: MatrixId,
    /// Per-point wall-clock budget in milliseconds (`--deadline-ms`).
    pub deadline_ms: Option<u64>,
    /// Retries per failed point (`--retries`, default 0).
    pub retries: u32,
    /// Base backoff between retries in milliseconds (`--backoff-ms`).
    pub backoff_ms: u64,
    /// Checkpoint journal path (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Resume completed points from the checkpoint journal (`--resume`).
    pub resume: bool,
    /// Fault-injection specs (`--inject`, repeatable; test/CI harness).
    pub inject: Vec<String>,
    /// Static pre-flight pruning budget in bytes (`--prune-static`):
    /// sweep points whose provable traffic lower bound exceeds it are
    /// skipped and recorded as `pruned_points` in the telemetry.
    pub prune_static: Option<f64>,
    /// One sparse-einsum expression for the `compile` subcommand
    /// (`--expr`).
    pub expr: Option<String>,
    /// A corpus file of sparse-einsum expressions for the `compile`
    /// subcommand (`--file`), one expression per line.
    pub expr_file: Option<PathBuf>,
    /// MatrixMarket input for the `convert` subcommand (`--in`); when
    /// absent, `convert` generates the synthetic `--matrix` at
    /// `--scale` and slabs that.
    pub convert_in: Option<PathBuf>,
    /// Slab output path for the `convert` subcommand (`--out`).
    pub convert_out: Option<PathBuf>,
    /// Extra artifact the `compile` subcommand emits (`--emit graph`
    /// writes each lowered `DataflowGraph` as JSON under the trace
    /// directory).
    pub emit: Option<String>,
}

impl CliOptions {
    /// The data context these options select.
    pub fn context(&self) -> DataContext {
        DataContext::with_source(self.set, self.scale, self.source.to_source())
    }

    /// The app the `trace` subcommand targets (`pr` unless `--app`
    /// overrides it).
    pub fn trace_app(&self) -> &str {
        self.app.as_deref().unwrap_or("pr")
    }

    /// The effective trace output directory (`trace-out` unless
    /// `--trace-dir` overrides it).
    pub fn trace_dir(&self) -> PathBuf {
        self.trace_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("trace-out"))
    }

    /// The [`SweepOptions`](crate::sweep::SweepOptions) these options
    /// select for [`Sweep::run`](crate::sweep::Sweep::run).
    ///
    /// # Errors
    ///
    /// Returns the first malformed `--inject` spec's message.
    pub fn sweep_options(&self) -> Result<crate::sweep::SweepOptions, String> {
        Ok(crate::sweep::SweepOptions {
            deadline: self.deadline_ms.map(std::time::Duration::from_millis),
            retry: crate::fault::RetryPolicy::with_retries(self.retries, self.backoff_ms),
            checkpoint: self.checkpoint.clone(),
            resume: self.resume,
            prune_static: self.prune_static,
            trace_dir: self.trace_dir.clone(),
            inject: crate::fault::FaultInjector::from_specs(&self.inject)?,
        })
    }

    /// Whether any fault-tolerance flag was given (none of them combines
    /// with `--trace-dir`).
    fn uses_fault_tolerance(&self) -> bool {
        self.deadline_ms.is_some()
            || self.retries > 0
            || self.checkpoint.is_some()
            || self.resume
            || !self.inject.is_empty()
            || self.prune_static.is_some()
    }

    /// Whether any requested artifact needs the app × matrix sweep.
    pub fn needs_sweep(&self) -> bool {
        self.json_out.is_some()
            || self.artifacts.iter().any(|a| {
                matches!(
                    a.as_str(),
                    "fig14" | "fig16" | "fig17" | "fig18" | "fig20b" | "fig21" | "fig22" | "fig23"
                )
            })
    }
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing flag
/// values, invalid scales, unknown artifacts, or an empty artifact list.
pub fn parse(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions {
        artifacts: Vec::new(),
        scale: 64,
        set: MatrixSet::Full,
        json_out: None,
        jobs: 0,
        bench_json: None,
        source: SourceConfig::Synthetic,
        lint: false,
        help: false,
        trace_dir: None,
        app: None,
        trace_matrix: MatrixId::Ca,
        deadline_ms: None,
        retries: 0,
        backoff_ms: 0,
        checkpoint: None,
        resume: false,
        inject: Vec::new(),
        prune_static: None,
        expr: None,
        expr_file: None,
        convert_in: None,
        convert_out: None,
        emit: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--scale needs a positive integer")?;
            }
            "--quick" => opts.set = MatrixSet::Quick,
            "--json" => {
                i += 1;
                opts.json_out = Some(args.get(i).ok_or("--json needs a file path")?.into());
            }
            "--jobs" => {
                i += 1;
                opts.jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--jobs needs a non-negative integer (0 = all cores)")?;
            }
            "--bench-json" => {
                i += 1;
                opts.bench_json = Some(args.get(i).ok_or("--bench-json needs a file path")?.into());
            }
            "--mtx" => {
                i += 1;
                let dir = args
                    .get(i)
                    .ok_or("--mtx needs a directory of <code>.mtx files")?;
                if opts.source != SourceConfig::Synthetic {
                    return Err("--mtx and --slab are exclusive".into());
                }
                opts.source = SourceConfig::MatrixMarket(dir.into());
            }
            "--slab" => {
                i += 1;
                let dir = args
                    .get(i)
                    .ok_or("--slab needs a directory of <code>.s<scale>.slab files")?;
                if opts.source != SourceConfig::Synthetic {
                    return Err("--mtx and --slab are exclusive".into());
                }
                opts.source = SourceConfig::Slab(dir.into());
            }
            "--in" => {
                i += 1;
                opts.convert_in = Some(
                    args.get(i)
                        .ok_or("--in needs a MatrixMarket file path")?
                        .into(),
                );
            }
            "--out" => {
                i += 1;
                opts.convert_out = Some(args.get(i).ok_or("--out needs a slab file path")?.into());
            }
            "--emit" => {
                i += 1;
                let what = args.get(i).ok_or("--emit needs an artifact kind (graph)")?;
                if what != "graph" {
                    return Err(format!("--emit supports `graph`, got `{what}`"));
                }
                opts.emit = Some(what.clone());
            }
            "--trace-dir" => {
                i += 1;
                opts.trace_dir = Some(
                    args.get(i)
                        .ok_or("--trace-dir needs an output directory")?
                        .into(),
                );
            }
            "--app" => {
                i += 1;
                opts.app = Some(
                    args.get(i)
                        .ok_or("--app needs an app short name (e.g. pr)")?
                        .clone(),
                );
            }
            "--matrix" => {
                i += 1;
                let code = args
                    .get(i)
                    .ok_or("--matrix needs a Table-I matrix code (e.g. ca)")?;
                opts.trace_matrix = MatrixId::ALL
                    .into_iter()
                    .find(|m| m.code() == code)
                    .ok_or_else(|| {
                        format!(
                            "unknown matrix code `{code}` (known: {})",
                            MatrixId::ALL.map(MatrixId::code).join(" ")
                        )
                    })?;
            }
            "--deadline-ms" => {
                i += 1;
                opts.deadline_ms = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--deadline-ms needs a millisecond budget")?,
                );
            }
            "--retries" => {
                i += 1;
                opts.retries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--retries needs a non-negative integer")?;
            }
            "--backoff-ms" => {
                i += 1;
                opts.backoff_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--backoff-ms needs a millisecond base delay")?;
            }
            "--checkpoint" => {
                i += 1;
                opts.checkpoint = Some(
                    args.get(i)
                        .ok_or("--checkpoint needs a journal file path")?
                        .into(),
                );
            }
            "--resume" => opts.resume = true,
            "--prune-static" => {
                i += 1;
                opts.prune_static = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .filter(|&v| v.is_finite() && v > 0.0)
                        .ok_or("--prune-static needs a positive byte budget (e.g. 2.5e9)")?,
                );
            }
            "--inject" => {
                i += 1;
                opts.inject.push(
                    args.get(i)
                        .ok_or("--inject needs a spec like panic@pr-ca")?
                        .clone(),
                );
            }
            "--expr" => {
                i += 1;
                opts.expr = Some(
                    args.get(i)
                        .ok_or("--expr needs a sparse-einsum expression")?
                        .clone(),
                );
            }
            "--file" => {
                i += 1;
                opts.expr_file = Some(
                    args.get(i)
                        .ok_or("--file needs a corpus path (one expression per line)")?
                        .into(),
                );
            }
            "--lint" => opts.lint = true,
            "--help" | "-h" => opts.help = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag: {flag}"));
            }
            artifact => {
                // `trace`, `analyze`, `compile`, and `convert` are
                // subcommands, not paper artifacts: valid to request
                // explicitly, never pulled in by `all`.
                if !ALL_ARTIFACTS.contains(&artifact)
                    && artifact != "trace"
                    && artifact != "analyze"
                    && artifact != "compile"
                    && artifact != "convert"
                {
                    return Err(format!("unknown artifact: {artifact}"));
                }
                opts.artifacts.push(artifact.to_string());
            }
        }
        i += 1;
    }
    if opts.artifacts.iter().any(|a| a == "all") {
        opts.artifacts = ALL_ARTIFACTS[..ALL_ARTIFACTS.len() - 1]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
    }
    if opts.artifacts.is_empty() && !opts.help && !opts.lint {
        return Err("no artifact requested (try `all`, `--lint`, or `--help`)".into());
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err("--resume requires --checkpoint <path>".into());
    }
    if opts.uses_fault_tolerance() && opts.trace_dir.is_some() {
        return Err(
            "fault-tolerance flags (--deadline-ms/--retries/--checkpoint/--resume/--inject\
             /--prune-static) are not supported with --trace-dir"
                .into(),
        );
    }
    let wants_compile = opts.artifacts.iter().any(|a| a == "compile");
    match (wants_compile, opts.expr.is_some(), opts.expr_file.is_some()) {
        (true, false, false) => {
            return Err("compile needs --expr '<expression>' or --file <corpus>".into());
        }
        (true, true, true) => {
            return Err("compile takes --expr or --file, not both".into());
        }
        (false, e, f) if e || f => {
            return Err("--expr/--file only apply to the compile subcommand".into());
        }
        _ => {}
    }
    if opts.emit.is_some() && !wants_compile {
        return Err("--emit only applies to the compile subcommand".into());
    }
    let wants_convert = opts.artifacts.iter().any(|a| a == "convert");
    if wants_convert && opts.convert_out.is_none() {
        return Err("convert needs --out <file.slab>".into());
    }
    if !wants_convert && (opts.convert_in.is_some() || opts.convert_out.is_some()) {
        return Err("--in/--out only apply to the convert subcommand".into());
    }
    // Reject malformed specs at parse time, not mid-sweep.
    crate::fault::FaultInjector::from_specs(&opts.inject).map_err(|e| format!("--inject {e}"))?;
    Ok(opts)
}

/// The usage string printed on `--help` or a parse error.
pub fn usage() -> String {
    format!(
        "usage: experiments <artifact>... [--scale N] [--quick] [--jobs N] [--json out.json] \
         [--bench-json out.json] [--mtx DIR | --slab DIR] [--lint] [--trace-dir DIR]\n\
         fault tolerance: [--deadline-ms N] [--retries N] [--backoff-ms N] \
         [--checkpoint journal.jsonl] [--resume] [--inject kind@app-matrix[:n]] \
         [--prune-static BYTES]\n\
         artifacts: {}\n\
         trace subcommand: experiments trace [--app NAME] [--matrix CODE] [--trace-dir DIR]\n\
         analyze subcommand: experiments analyze [--app NAME] [--matrix CODE] — static \
         traffic/occupancy bounds, differentially verified against the simulator\n\
         compile subcommand: experiments compile --expr '<einsum>' | --file corpus.ses \
         [--matrix CODE] [--emit graph] — parse, lint, and lower sparse-einsum \
         expressions, run one simulated point each, exit 4 on any diagnostic error\n\
         convert subcommand: experiments convert --out FILE.slab [--in FILE.mtx | \
         --matrix CODE --scale N] — stream a MatrixMarket file (or a synthetic matrix) \
         into a binary slab loadable with --slab\n\
         (--trace-dir with sweep artifacts also records per-point JSONL traces)",
        ALL_ARTIFACTS.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_basic_invocation() {
        let o = parse(&args("fig14 fig18 --scale 32 --quick")).unwrap();
        assert_eq!(o.artifacts, vec!["fig14", "fig18"]);
        assert_eq!(o.scale, 32);
        assert_eq!(o.set, MatrixSet::Quick);
        assert!(o.needs_sweep());
    }

    #[test]
    fn all_expands_without_duplicating_itself() {
        let o = parse(&args("all")).unwrap();
        assert_eq!(o.artifacts.len(), ALL_ARTIFACTS.len() - 1);
        assert!(!o.artifacts.iter().any(|a| a == "all"));
    }

    #[test]
    fn table_only_runs_need_no_sweep() {
        let o = parse(&args("table1 table2 fig15 fig19 ablation verify")).unwrap();
        assert!(!o.needs_sweep());
        let with_json = parse(&args("table1 --json out.json")).unwrap();
        assert!(with_json.needs_sweep(), "--json always needs the sweep");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args("fig99")).is_err());
        assert!(parse(&args("--scale")).is_err());
        assert!(parse(&args("--scale 0 table1")).is_err());
        assert!(parse(&args("--scale x table1")).is_err());
        assert!(parse(&args("--json")).is_err());
        assert!(parse(&args("--jobs table1")).is_err());
        assert!(parse(&args("--jobs -2 table1")).is_err());
        assert!(parse(&args("--bench-json")).is_err());
        assert!(parse(&args("--mtx")).is_err());
        assert!(parse(&args("--frobnicate table1")).is_err());
        assert!(parse(&args("")).is_err());
    }

    #[test]
    fn jobs_and_bench_json_parse() {
        let o = parse(&args("fig14 --jobs 4 --bench-json bench.json")).unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.bench_json, Some("bench.json".into()));
        // defaults: auto-parallelism, default telemetry path
        let d = parse(&args("fig14")).unwrap();
        assert_eq!(d.jobs, 0);
        assert_eq!(d.bench_json, None);
        // 0 is explicitly allowed (= machine parallelism)
        assert_eq!(parse(&args("fig14 --jobs 0")).unwrap().jobs, 0);
    }

    #[test]
    fn lint_flag_needs_no_artifacts() {
        let o = parse(&args("--lint")).unwrap();
        assert!(o.lint);
        assert!(o.artifacts.is_empty());
        assert!(!o.needs_sweep());
        let both = parse(&args("--lint table1")).unwrap();
        assert!(both.lint);
        assert_eq!(both.artifacts, vec!["table1"]);
    }

    #[test]
    fn help_needs_no_artifacts() {
        let o = parse(&args("--help")).unwrap();
        assert!(o.help);
        assert!(usage().contains("fig23"));
    }

    #[test]
    fn trace_subcommand_and_flags_parse() {
        let o = parse(&args("trace --app sssp --matrix eu --trace-dir /tmp/tr")).unwrap();
        assert_eq!(o.artifacts, vec!["trace"]);
        assert_eq!(o.trace_app(), "sssp");
        assert_eq!(o.trace_matrix, MatrixId::Eu);
        assert_eq!(o.trace_dir(), PathBuf::from("/tmp/tr"));
        assert!(!o.needs_sweep());
        // defaults
        let d = parse(&args("trace")).unwrap();
        assert_eq!(d.trace_app(), "pr");
        assert_eq!(d.app, None);
        assert_eq!(d.trace_matrix, MatrixId::Ca);
        assert_eq!(d.trace_dir(), PathBuf::from("trace-out"));
        // `all` must not pull the subcommand in
        assert!(!parse(&args("all"))
            .unwrap()
            .artifacts
            .iter()
            .any(|a| a == "trace"));
        // sweeps accept --trace-dir too
        let s = parse(&args("fig14 --trace-dir t")).unwrap();
        assert!(s.needs_sweep());
        assert_eq!(s.trace_dir, Some(PathBuf::from("t")));
        // errors
        assert!(parse(&args("trace --matrix zz")).is_err());
        assert!(parse(&args("trace --matrix")).is_err());
        assert!(parse(&args("trace --app")).is_err());
        assert!(parse(&args("--trace-dir")).is_err());
    }

    #[test]
    fn analyze_subcommand_parses() {
        let o = parse(&args("analyze --app gcn --matrix gy --scale 256")).unwrap();
        assert_eq!(o.artifacts, vec!["analyze"]);
        assert_eq!(o.app, Some("gcn".to_string()));
        assert_eq!(o.trace_matrix, MatrixId::Gy);
        assert!(!o.needs_sweep());
        // default: no app filter (= all registered apps)
        assert_eq!(parse(&args("analyze")).unwrap().app, None);
        // `all` must not pull the subcommand in
        assert!(!parse(&args("all"))
            .unwrap()
            .artifacts
            .iter()
            .any(|a| a == "analyze"));
    }

    #[test]
    fn compile_subcommand_parses() {
        let args_vec: Vec<String> = vec![
            "compile".into(),
            "--expr".into(),
            "y[j] +.*= x[i] * A[i,j]".into(),
        ];
        let o = parse(&args_vec).unwrap();
        assert_eq!(o.artifacts, vec!["compile"]);
        assert_eq!(o.expr.as_deref(), Some("y[j] +.*= x[i] * A[i,j]"));
        assert_eq!(o.expr_file, None);
        assert!(!o.needs_sweep());

        let f = parse(&args("compile --file corpus.ses --matrix gy")).unwrap();
        assert_eq!(f.expr_file, Some(PathBuf::from("corpus.ses")));
        assert_eq!(f.trace_matrix, MatrixId::Gy);

        // `all` must not pull the subcommand in
        assert!(!parse(&args("all"))
            .unwrap()
            .artifacts
            .iter()
            .any(|a| a == "compile"));
    }

    #[test]
    fn compile_subcommand_is_validated() {
        assert!(parse(&args("compile")).is_err(), "needs --expr or --file");
        assert!(
            parse(&args("compile --expr a --file b")).is_err(),
            "--expr and --file are exclusive"
        );
        assert!(
            parse(&args("table1 --expr a")).is_err(),
            "--expr without the compile subcommand"
        );
        assert!(
            parse(&args("table1 --file c.ses")).is_err(),
            "--file without the compile subcommand"
        );
        assert!(parse(&args("compile --expr")).is_err());
        assert!(parse(&args("compile --file")).is_err());
    }

    #[test]
    fn prune_static_parses_and_validates() {
        let o = parse(&args("fig14 --prune-static 2.5e9")).unwrap();
        assert_eq!(o.prune_static, Some(2.5e9));
        assert!(
            o.uses_fault_tolerance(),
            "pruning is a fault-tolerance flag (it conflicts with --trace-dir)"
        );
        assert_eq!(o.sweep_options().unwrap().prune_static, Some(2.5e9));
        let d = parse(&args("fig14")).unwrap();
        assert_eq!(d.prune_static, None);
        assert_eq!(d.sweep_options().unwrap().prune_static, None);
        assert!(parse(&args("fig14 --prune-static")).is_err());
        assert!(parse(&args("fig14 --prune-static 0")).is_err());
        assert!(parse(&args("fig14 --prune-static -5")).is_err());
        assert!(parse(&args("fig14 --prune-static nan")).is_err());
        assert!(
            parse(&args("fig14 --prune-static 1e9 --trace-dir t")).is_err(),
            "pruning conflicts with tracing like the other fault-tolerance flags"
        );
    }

    #[test]
    fn fault_tolerance_flags_parse() {
        let o = parse(&args(
            "fig14 --deadline-ms 5000 --retries 2 --backoff-ms 10 \
             --checkpoint j.jsonl --resume --inject panic@pr-ca --inject transient@cg-gy:2",
        ))
        .unwrap();
        assert_eq!(o.deadline_ms, Some(5000));
        assert_eq!(o.retries, 2);
        assert_eq!(o.backoff_ms, 10);
        assert_eq!(o.checkpoint, Some("j.jsonl".into()));
        assert!(o.resume);
        assert_eq!(o.inject.len(), 2);
        assert!(o.uses_fault_tolerance());
        let so = o.sweep_options().unwrap();
        assert_eq!(so.deadline, Some(std::time::Duration::from_millis(5000)));
        assert_eq!(so.retry.max_attempts, 3);
        assert_eq!(so.retry.backoff_base_ms, 10);
        assert!(so.resume);
        assert_eq!(so.inject.labels(), vec!["pr-ca", "cg-gy"]);
        assert_eq!(so.trace_dir, None);
        // defaults: fault tolerance off, single attempt, nothing injected
        let d = parse(&args("fig14")).unwrap();
        assert!(!d.uses_fault_tolerance());
        let so = d.sweep_options().unwrap();
        assert_eq!(so.retry.max_attempts, 1);
        assert_eq!(so.deadline, None);
        assert!(so.inject.is_empty());
        // tracing is a sweep option too
        let t = parse(&args("fig14 --trace-dir t")).unwrap();
        assert_eq!(
            t.sweep_options().unwrap().trace_dir,
            Some(PathBuf::from("t"))
        );
    }

    #[test]
    fn fault_tolerance_flags_are_validated() {
        assert!(parse(&args("fig14 --resume")).is_err(), "--resume alone");
        assert!(
            parse(&args("fig14 --trace-dir t --retries 1")).is_err(),
            "fault flags conflict with tracing"
        );
        assert!(parse(&args("fig14 --inject frob@pr-ca")).is_err());
        assert!(parse(&args("fig14 --inject")).is_err());
        assert!(parse(&args("fig14 --deadline-ms")).is_err());
        assert!(parse(&args("fig14 --retries -1")).is_err());
        assert!(parse(&args("fig14 --checkpoint")).is_err());
    }

    #[test]
    fn mtx_dir_selects_matrixmarket_source() {
        let o = parse(&args("table1 --mtx /data/mtx --scale 1")).unwrap();
        assert_eq!(o.source, SourceConfig::MatrixMarket("/data/mtx".into()));
        let ctx = o.context();
        assert_eq!(
            serde_json::to_string(&ctx.source().describe()).unwrap(),
            r#"{"MatrixMarket":"/data/mtx"}"#
        );
        assert_eq!(ctx.scale(), 1);
    }

    #[test]
    fn slab_dir_selects_slab_source() {
        let o = parse(&args("table1 --slab /data/slabs")).unwrap();
        assert_eq!(o.source, SourceConfig::Slab("/data/slabs".into()));
        // default stays synthetic; the two file sources are exclusive
        assert_eq!(
            parse(&args("table1")).unwrap().source,
            SourceConfig::Synthetic
        );
        assert!(parse(&args("table1 --mtx a --slab b")).is_err());
        assert!(parse(&args("table1 --slab b --mtx a")).is_err());
        assert!(parse(&args("table1 --slab")).is_err());
    }

    #[test]
    fn convert_subcommand_parses_and_validates() {
        let o = parse(&args("convert --in graph.mtx --out graph.slab")).unwrap();
        assert_eq!(o.artifacts, vec!["convert"]);
        assert_eq!(o.convert_in, Some(PathBuf::from("graph.mtx")));
        assert_eq!(o.convert_out, Some(PathBuf::from("graph.slab")));
        assert!(!o.needs_sweep());
        // synthetic mode: --matrix/--scale instead of --in
        let s = parse(&args("convert --matrix wi --scale 45 --out wi.slab")).unwrap();
        assert_eq!(s.trace_matrix, MatrixId::Wi);
        assert_eq!(s.scale, 45);
        assert_eq!(s.convert_in, None);
        // `all` must not pull the subcommand in
        assert!(!parse(&args("all"))
            .unwrap()
            .artifacts
            .iter()
            .any(|a| a == "convert"));
        // errors
        assert!(parse(&args("convert")).is_err(), "needs --out");
        assert!(parse(&args("convert --in a.mtx")).is_err(), "needs --out");
        assert!(parse(&args("table1 --out x.slab")).is_err());
        assert!(parse(&args("table1 --in x.mtx")).is_err());
        assert!(parse(&args("convert --in")).is_err());
        assert!(parse(&args("convert --out")).is_err());
    }

    #[test]
    fn emit_graph_parses_and_validates() {
        let o = parse(&args("compile --expr x --emit graph")).unwrap();
        assert_eq!(o.emit.as_deref(), Some("graph"));
        assert_eq!(parse(&args("compile --expr x")).unwrap().emit, None);
        assert!(parse(&args("compile --expr x --emit")).is_err());
        assert!(parse(&args("compile --expr x --emit dot")).is_err());
        assert!(
            parse(&args("table1 --emit graph")).is_err(),
            "--emit without the compile subcommand"
        );
    }
}
