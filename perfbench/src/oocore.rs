//! `oocore-wi`: a `wi`-shaped matrix at scale 12 (about 3.7M non-zeros)
//! ingested out of core. Writing it as MatrixMarket text is set-up; a
//! round converts the text to a slab (`slab::convert_mm`), loads a
//! `DatasetSpec` through `SlabSource`, and evaluates one `pr` point.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sparsepipe_apps::registry;
use sparsepipe_bench::datasets::{DatasetSpec, ScaledDataset, SlabSource};
use sparsepipe_bench::sweep::{Entry, EvalRequest};
use sparsepipe_core::{slab, MatrixCache};
use sparsepipe_tensor::{mm, CooMatrix, MatrixId};

use crate::compose::{self, Builds};
use crate::report::{self, median};
use crate::source::{self, DEFAULT_SEED};
use crate::{spans, Ctx, Outcome};

const ID: MatrixId = MatrixId::Wi;
const SCALE: u64 = 12;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Generates the matrix and writes it as MatrixMarket text to `mtx`.
fn set_up(ctx: &Ctx, mtx: &Path) -> Result<CooMatrix, String> {
    let matrix = source::generate(ctx.seed, ID, SCALE);
    spans::timed("tensor.mm.write", 0, || {
        let file = std::fs::File::create(mtx)?;
        let mut out = std::io::BufWriter::new(file);
        mm::write(&matrix, &mut out).map_err(std::io::Error::other)?;
        out.flush()
    })
    .map_err(|e| format!("write {}: {e}", mtx.display()))?;
    Ok(matrix)
}

/// Loads the slab the way `SlabSource` does, one span per layer.
fn load_traced(path: &Path) -> Result<ScaledDataset, String> {
    let _span = spans::span("bench.datasets", ID as u64);
    let (arena, _) = spans::timed("core.slab.read", 0, || slab::read_file(path))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let matrix = spans::timed("core.arena.to_coo", 0, || arena.to_coo());
    drop(arena);
    Ok(source::prepare(ID, SCALE, matrix))
}

/// Runs the `oocore-wi` workload.
///
/// # Errors
///
/// A description of a failure that leaves nothing to measure.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mtx = ctx.work.join("wi.s12.mtx");
    let slab_dir: PathBuf = ctx.work.join("slabs");
    std::fs::create_dir_all(&slab_dir).map_err(|e| format!("create slab dir: {e}"))?;
    let slab_path = SlabSource::slab_path(&slab_dir, ID, SCALE);
    let pr = registry::by_name("pr").expect("pr is registered");
    let mut outcome = Outcome::default();

    let mut setup_s = Vec::new();
    let mut generated = None;
    spans::set_enabled(ctx.trace);
    for _ in 0..if ctx.trace { 1 } else { SETUP_REPS } {
        drop(generated.take());
        let t = Instant::now();
        generated = Some(set_up(ctx, &mtx)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    spans::set_enabled(false);
    let generated = generated.expect("at least one set-up");
    let nnz = generated.nnz() as f64;

    // The in-memory answer the slab-served point must reproduce. At the
    // default seed it comes from the registry's own synthetic load.
    let in_memory = if ctx.seed == DEFAULT_SEED {
        let registry = DatasetSpec::new(ID, SCALE)
            .load()
            .map_err(|e| format!("registry load: {e}"))?;
        if registry.matrix != generated {
            outcome
                .problems
                .push("seeded wi differs from DatasetSpec::load at the default seed".into());
        }
        registry
    } else {
        source::prepare(ID, SCALE, generated.clone())
    };
    let expected = EvalRequest::new(&pr, &in_memory, SCALE)
        .run()
        .map(|o| o.evaluation.entry)
        .map_err(|e| format!("in-memory pr: {e}"))?;
    drop(in_memory);
    let expected_json = report::entry_json(&expected);

    // One ingest: convert, load, evaluate. The traced form composes the
    // load and the point from the same public calls, one span per layer.
    let mut traced_steps = 0;
    let mut ingest = |traced: bool| -> (f64, Result<(ScaledDataset, Entry), String>) {
        let t = Instant::now();
        spans::set_enabled(traced);
        let converted = spans::timed("core.slab.convert", 0, || {
            slab::convert_mm(&mtx, &slab_path)
        })
        .map_err(|e| format!("convert: {e}"));
        let result = if traced {
            converted
                .and_then(|_| load_traced(&slab_path))
                .and_then(|dataset| {
                    let cache = MatrixCache::new();
                    let p = compose::point(&pr, &dataset, SCALE, &cache, &Builds::default(), 0)?;
                    traced_steps += p.sim_steps;
                    Ok((dataset, p.entry))
                })
        } else {
            converted
                .and_then(|_| {
                    DatasetSpec::new(ID, SCALE)
                        .with_source(Arc::new(SlabSource::new(&slab_dir)))
                        .load()
                        .map_err(|e| format!("slab load: {e}"))
                })
                .and_then(|dataset| {
                    EvalRequest::new(&pr, &dataset, SCALE)
                        .cache(&MatrixCache::new())
                        .run()
                        .map(|o| (dataset, o.evaluation.entry))
                        .map_err(|e| format!("slab-served pr: {e}"))
                })
        };
        spans::set_enabled(false);
        (t.elapsed().as_secs_f64(), result)
    };

    // Untraced runs ingest until the time is up; a traced run makes one
    // untraced and one traced ingest, whose difference is the overhead.
    let mut walls = Vec::new();
    let started = Instant::now();
    loop {
        let traced = ctx.trace && !walls.is_empty();
        let (wall, result) = ingest(traced);
        walls.push(wall);
        outcome.attempted += 1;
        match result {
            Ok((dataset, entry)) => {
                if dataset.matrix != generated {
                    outcome
                        .problems
                        .push("slab-loaded matrix differs from the generated one".into());
                }
                if report::entry_json(&entry) != expected_json {
                    outcome
                        .problems
                        .push("slab-served pr entry differs from the in-memory one".into());
                }
            }
            Err(e) => {
                outcome.failed += 1;
                outcome.problems.push(e);
            }
        }
        let done = if ctx.trace {
            walls.len() == 2
        } else {
            started.elapsed() >= ctx.seconds
        };
        if done {
            break;
        }
    }
    crate::check_digest(ctx, "oocore-wi", &[expected_json.as_str()], &mut outcome);

    let m = &mut outcome.metrics;
    if ctx.trace {
        let all = spans::snapshot();
        crate::layer_metrics(m, &all, traced_steps);
        let convert_s = spans::Summary::new(&all).busy_s("core.slab.convert");
        m.set(
            "core.slab.convert_mnnz_per_s",
            nnz / convert_s / 1e6,
            "Mnnz/s",
        );
        m.set("bench.trace.overhead_s", walls[1] - walls[0], "s");
    } else {
        let run_s = report::round_s(&walls);
        m.set("setup_s", median(&setup_s), "s");
        m.set("run_s", run_s, "s");
        m.set("points_per_s", 1.0 / run_s, "1/s");
        m.set("requests_per_s", 1.0 / run_s, "1/s");
        m.set("latency_p50_ms", median(&walls) * 1e3, "ms");
        m.set("latency_p99_ms", report::quantile(&walls, 0.99) * 1e3, "ms");
        m.set("mnnz_per_s", nnz / run_s / 1e6, "Mnnz/s");
        m.set("sim_speedup_geomean", expected.speedup_vs_ideal(), "x");
        println!("  {} timed rounds of {nnz} non-zeros", walls.len());
    }
    Ok(outcome)
}
