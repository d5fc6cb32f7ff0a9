//! Golden-snapshot tests: checked-in renders of the headline figures and
//! the raw sweep JSON, compared byte-for-byte against a fresh Quick-set
//! sweep. Any change to the simulator, the cache, or the renderers that
//! moves a single character of output fails here with a diffable path.
//!
//! To bless an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sparsepipe-bench --test golden_snapshots
//! ```

use std::fs;
use std::path::PathBuf;

use sparsepipe_bench::datasets::{DataContext, MatrixSet};
use sparsepipe_bench::executor::Executor;
use sparsepipe_bench::experiments;
use sparsepipe_bench::sweep::{Sweep, SweepOptions};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("golden snapshot {name} unreadable ({e}); bless with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        expected, actual,
        "render of {name} drifted from tests/golden/{name}; if the change \
         is intentional, re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn figure_renders_match_golden_snapshots() {
    // Quick set (3 matrices) × 15 apps at scale 64: small enough to run
    // in a unit test, large enough that every figure has real series.
    let exec = Executor::new(0);
    let outcome = Sweep::run(
        DataContext::synthetic(MatrixSet::Quick, 64),
        &exec,
        &SweepOptions::default(),
    )
    .expect("built-in quick datasets load");
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let sweep = outcome.sweep;
    for (name, report) in [
        ("fig14.txt", experiments::fig14(&sweep)),
        ("fig16.txt", experiments::fig16(&sweep)),
        ("fig17.txt", experiments::fig17(&sweep)),
        ("fig18.txt", experiments::fig18(&sweep)),
        ("fig21.txt", experiments::fig21(&sweep)),
    ] {
        check(name, &report.expect("figure renders from a sweep").render());
    }
    check(
        "sweep.json",
        &format!(
            "{}\n",
            serde_json::to_string(&sweep).expect("sweep serializes")
        ),
    );
}

#[test]
fn compile_report_matches_golden_snapshot() {
    // The sparse-einsum front door: the bundled corpus, compiled and
    // simulated on ca at scale 64. The rendered table pins every
    // expression's op count, profile, diagnostics, simulated cycles, and
    // traffic — a parser, lowering, lint, or simulator change that moves
    // any expression shows up as a one-line diff.
    let exec = Executor::new(0);
    let entries = sparsepipe_bench::einsum_corpus::bundled();
    let (report, failing) = experiments::compile_exprs(
        &DataContext::synthetic(MatrixSet::Quick, 64),
        &exec,
        &entries,
        sparsepipe_tensor::MatrixId::Ca,
        None,
    )
    .expect("the bundled corpus compiles");
    assert_eq!(failing, 0, "the bundled corpus must compile clean");
    check("compile.txt", &report.render());
}

#[test]
fn emitted_graph_json_matches_golden_snapshot() {
    // `compile --emit graph` dumps each lowered DataflowGraph as JSON —
    // the schema-stable interchange form. Pin the `pr` expression's
    // graph: any rename, reorder, or retype of the IR's serialized
    // fields is a schema break and must be blessed deliberately.
    let exec = Executor::new(0);
    let entries: Vec<_> = sparsepipe_bench::einsum_corpus::bundled()
        .into_iter()
        .filter(|e| e.name == "pr")
        .collect();
    assert_eq!(entries.len(), 1, "the bundled corpus names exactly one pr");
    let dir = std::env::temp_dir().join(format!("sparsepipe-emit-golden-{}", std::process::id()));
    let (_report, failing) = experiments::compile_exprs(
        &DataContext::synthetic(MatrixSet::Quick, 64),
        &exec,
        &entries,
        sparsepipe_tensor::MatrixId::Ca,
        Some(&dir),
    )
    .expect("the pr expression compiles");
    assert_eq!(failing, 0, "the pr expression must compile clean");
    let json = fs::read_to_string(dir.join("compile-graph-pr.json"))
        .expect("--emit graph writes compile-graph-<name>.json");
    fs::remove_dir_all(&dir).ok();
    check("compile-graph-pr.json", &json);
}

#[test]
fn analyze_report_matches_golden_snapshot() {
    // The static analyzer's rendered report for the default point (all
    // apps on ca at scale 64) is fully deterministic: any drift in the
    // bounds, the pass structure, or the simulator's actuals lands here.
    let exec = Executor::new(0);
    let json = std::env::temp_dir().join(format!(
        "sparsepipe-analyze-golden-{}.json",
        std::process::id()
    ));
    let (report, violations) = experiments::analyze(
        &DataContext::synthetic(MatrixSet::Quick, 64),
        &exec,
        None,
        sparsepipe_tensor::MatrixId::Ca,
        &json,
    )
    .expect("analyze cannot fail on the built-in quick set");
    std::fs::remove_file(&json).ok();
    assert_eq!(violations, 0, "golden analyze run must be sound");
    // The json path line varies by tmpdir/pid; golden only the table part.
    let render = report.render();
    let stable = render
        .split("json report:")
        .next()
        .expect("render contains the json path line");
    check("analyze.txt", stable);
}

#[test]
fn verify_report_matches_golden_snapshot() {
    // The functional self-check battery on fixed seeded matrices: every
    // app interprets and classifies, the OEI executors agree across
    // schedules and buffer capacities, and fused PageRank matches the
    // interpreter. The rendered report pins every check's name and
    // verdict, so a changed executor API cannot silently drop a row.
    let report = experiments::verify().expect("verify renders");
    check("verify.txt", &report.render());
}

#[test]
fn mxm_odd_tail_matches_golden_snapshot() {
    // msbfs and gcnw fuse two iterations onto one mxm sweep
    // (cross-iteration OEI); at 5 iterations the fifth runs as an unfused
    // tail sweep. The golden pins the report, the SpGEMM statistics and
    // the traced audit totals, at the dataset's buffer and under a tight
    // residency window, so the fused unit and the tail cannot drift apart.
    use sparsepipe_apps::registry;
    use sparsepipe_bench::datasets::DatasetSpec;
    use sparsepipe_bench::sweep::sparsepipe_config;
    use sparsepipe_core::SimRequest;
    use sparsepipe_tensor::MatrixId;
    use sparsepipe_trace::{MemorySink, TraceAudit};
    use std::fmt::Write as _;

    let mut out = String::new();
    for id in [MatrixId::Ca, MatrixId::Gy] {
        let dataset = DatasetSpec::new(id, 64).load().expect("built-in dataset");
        for name in ["msbfs", "gcnw"] {
            let app = registry::by_name(name).expect("registry app");
            let program = app.compile().expect("app compiles");
            let base = sparsepipe_config(&dataset);
            for (label, config) in [("dataset", base), ("tight", base.with_buffer(8 << 10))] {
                let untraced = SimRequest::new(&program, &dataset.reordered)
                    .iterations(5)
                    .config(config)
                    .run()
                    .expect("mxm point simulates");
                let mut sink = MemorySink::new();
                let traced = SimRequest::new(&program, &dataset.reordered)
                    .iterations(5)
                    .config(config)
                    .trace(&mut sink)
                    .run()
                    .expect("traced mxm point simulates");
                assert_eq!(traced.report, untraced.report, "{name}/{label}: tracing");
                assert_eq!(traced.mxm, untraced.mxm, "{name}/{label}: tracing");
                let audit = TraceAudit::replay(sink.events());
                audit
                    .check(&traced.report.traffic.audit_totals())
                    .unwrap_or_else(|e| panic!("{name}/{label}: audit mismatch: {e}"));
                let point = format!("{name} {} {label}", id.code());
                writeln!(
                    out,
                    "{point} report {}",
                    serde_json::to_string(&untraced.report).expect("report serializes")
                )
                .unwrap();
                writeln!(
                    out,
                    "{point} mxm {}",
                    serde_json::to_string(&untraced.mxm).expect("stats serialize")
                )
                .unwrap();
                writeln!(
                    out,
                    "{point} audit passes={} {:?}",
                    audit.passes.len(),
                    audit.replayed
                )
                .unwrap();
            }
        }
    }
    check("mxm_odd_tail.txt", &out);
}
