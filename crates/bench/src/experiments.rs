//! One generator per table/figure of the paper's evaluation.
//!
//! Each generator returns `Result<`[`Report`]`, `[`BenchError`]`>` whose
//! `body` is the regenerated artifact as plain text; simulation-heavy
//! generators fan their points across the caller's [`Executor`].
//! `EXPERIMENTS.md` records how each measured number compares with the
//! paper's.

use std::path::Path;

use sparsepipe_apps::{registry, StaApp};
use sparsepipe_core::{MemoryConfig, Preprocessing, SimRequest, SparsepipeConfig};
use sparsepipe_tensor::{livesweep, BlockedDualStorage, DualStorage, MatrixId};

use crate::datasets::{DataContext, ScaledDataset, VertexOrder};
use crate::error::BenchError;
use crate::executor::{Executor, PointRecord};
use crate::geomean;
use crate::sweep::{self, Sweep};
use crate::table::{fmt_pct, fmt_x, Table};

/// Looks an app up by name, compiling the registry miss into a
/// [`BenchError::UnknownApp`].
fn app_by_name(name: &str) -> Result<StaApp, BenchError> {
    registry::by_name(name).ok_or_else(|| BenchError::UnknownApp(name.into()))
}

/// The sweep's apps that the paper evaluates (Table III), in registry
/// order. The mxm family is a reproduction extension (EXPERIMENTS.md):
/// its rows are shown, but every aggregate quoted against a paper
/// number covers these apps only.
fn paper_apps(sweep: &Sweep) -> Vec<&'static str> {
    let extensions: Vec<&str> = registry::mxm_family().iter().map(|a| a.name).collect();
    let mut apps = sweep.app_names();
    apps.retain(|app| !extensions.contains(app));
    apps
}

/// A table with an `app` column, one column per matrix, then `extra`.
fn per_matrix_table(matrices: &[MatrixId], extra: &[&str]) -> Table {
    let codes = matrices.iter().map(|m| m.code());
    Table::new(
        std::iter::once("app")
            .chain(codes)
            .chain(extra.iter().copied()),
    )
}

/// A regenerated table/figure.
#[derive(Debug, Clone)]
pub struct Report {
    /// Paper artifact id (`table1`, `fig14`, …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// The artifact body (text table / series).
    pub body: String,
}

impl Report {
    /// Renders with a header line.
    pub fn render(&self) -> String {
        format!("== {} — {} ==\n{}\n", self.id, self.title, self.body)
    }
}

/// **Table I** — portion of the sparse matrix live on chip under OEI.
///
/// # Errors
///
/// Returns [`BenchError::Dataset`] if a matrix fails to load.
pub fn table1(ctx: &DataContext, exec: &Executor) -> Result<Report, BenchError> {
    let datasets = ctx.load(exec)?;
    let mut t = Table::new([
        "matrix",
        "rows/cols",
        "nnz",
        "max (%)",
        "avg (%)",
        "paper max",
        "paper avg",
    ]);
    for d in &datasets {
        let stats = livesweep::sweep(&d.matrix);
        let spec = d.id.spec();
        t.row(vec![
            d.id.code().into(),
            d.matrix.nrows().to_string(),
            d.matrix.nnz().to_string(),
            fmt_pct(stats.max_percent()),
            fmt_pct(stats.avg_percent()),
            fmt_pct(spec.paper_max_pct),
            fmt_pct(spec.paper_avg_pct),
        ]);
    }
    Ok(Report {
        id: "table1",
        title: format!(
            "on-chip live set under the OEI dataflow (scale 1/{})",
            ctx.scale()
        ),
        body: t.render(),
    })
}

/// **Table II** — evaluated memory configurations.
///
/// # Errors
///
/// Infallible in practice; `Result` for a uniform generator signature.
pub fn table2() -> Result<Report, BenchError> {
    let mut t = Table::new([
        "system",
        "bandwidth (GB/s)",
        "latency R/W (ns)",
        "DRAM tech",
    ]);
    let rows: [(&str, MemoryConfig); 4] = [
        ("CPU (AMD 5800X3D)", MemoryConfig::ddr4()),
        ("GPU (NVIDIA 4070)", MemoryConfig::gddr6x()),
        ("Sparsepipe (iso-CPU)", MemoryConfig::ddr4()),
        ("Sparsepipe (iso-GPU)", MemoryConfig::gddr6x()),
    ];
    for (name, m) in rows {
        t.row(vec![
            name.into(),
            format!("{:.0}", m.bandwidth_gbps),
            format!("{}/{}", m.read_latency_ns, m.write_latency_ns),
            m.tech.into(),
        ]);
    }
    Ok(Report {
        id: "table2",
        title: "memory configurations evaluated".into(),
        body: t.render(),
    })
}

/// **Table III** — benchmark applications.
///
/// # Errors
///
/// Returns [`BenchError::Compile`] if a registered app fails to compile.
pub fn table3() -> Result<Report, BenchError> {
    let mut t = Table::new([
        "app",
        "vxm semiring",
        "reuse pattern",
        "domain",
        "OEI verified",
    ]);
    for app in registry::all() {
        let program = sweep::compile(&app)?;
        t.row(vec![
            app.name.into(),
            app.semiring.to_string(),
            match app.reuse {
                sparsepipe_apps::ReusePattern::CrossIteration => {
                    "cross-iteration, producer-consumer".into()
                }
                sparsepipe_apps::ReusePattern::ProducerConsumer => "producer-consumer".into(),
            },
            format!("{:?}", app.domain),
            if program.profile.has_oei { "yes" } else { "no" }.into(),
        ]);
    }
    Ok(Report {
        id: "table3",
        title: "benchmark STA applications".into(),
        body: t.render(),
    })
}

/// **Fig 14** — Sparsepipe speedup over the idealized sparse accelerator.
///
/// # Errors
///
/// Infallible in practice; `Result` for a uniform generator signature.
pub fn fig14(sweep: &Sweep) -> Result<Report, BenchError> {
    let matrices = sweep.matrices();
    let mut t = per_matrix_table(&matrices, &["geomean"]);
    let paper = paper_apps(sweep);
    let mut oei_geo = Vec::new();
    let mut all_speedups = Vec::new();
    for app in sweep.app_names() {
        let entries = sweep.by_app(app);
        let mut row = vec![app.to_string()];
        let mut speedups = Vec::new();
        for m in &matrices {
            if let Some(e) = entries.iter().find(|e| e.matrix == *m) {
                let s = e.speedup_vs_ideal();
                speedups.push(s);
                row.push(fmt_x(s));
            } else {
                row.push("-".into());
            }
        }
        let g = geomean(&speedups);
        row.push(fmt_x(g));
        t.row(row);
        if !paper.contains(&app) {
            continue;
        }
        if entries.first().is_some_and(|e| e.has_oei) {
            oei_geo.push(g);
        }
        all_speedups.extend(speedups);
    }
    let max = all_speedups.iter().copied().fold(0.0f64, f64::max);
    let body = format!(
        "{}\nmax speedup: {} (paper: up to 3.59x)\nOEI-app geomean range: {} – {} (paper: 1.21x – 2.62x)\n",
        t.render(),
        fmt_x(max),
        fmt_x(oei_geo.iter().copied().fold(f64::INFINITY, f64::min)),
        fmt_x(oei_geo.iter().copied().fold(0.0, f64::max)),
    );
    Ok(Report {
        id: "fig14",
        title: "speedup of Sparsepipe over the baseline (ideal) accelerator".into(),
        body,
    })
}

/// **Fig 15** — bandwidth utilization over execution for the four
/// highlighted workloads (sampled at every 4%), simulated in parallel
/// across `exec`'s pool.
///
/// # Errors
///
/// Returns the first dataset/compile/simulation error in pair order.
pub fn fig15(ctx: &DataContext, exec: &Executor) -> Result<Report, BenchError> {
    let pairs = [
        ("sssp", MatrixId::Bu),
        ("knn", MatrixId::Eu),
        ("kcore", MatrixId::Eu),
        ("sssp", MatrixId::Wi),
    ];
    let results = exec.run(&pairs, |&(app_name, matrix_id)| {
        let dataset = ctx.load_one(matrix_id)?;
        let app = app_by_name(app_name)?;
        let program = sweep::compile(&app)?;
        let (matrix, key) = dataset.keyed(VertexOrder::Reordered);
        let request = SimRequest::new(&program, matrix)
            .iterations(app.default_iterations)
            .config(sweep::sparsepipe_config(&dataset));
        sweep::simulate(request, (exec.cache(), key), app.name, matrix_id)
    });
    let mut body = String::new();
    for (result, (app_name, matrix_id)) in results.into_iter().zip(pairs) {
        let outcome = result?;
        exec.record(PointRecord::from_telemetry(
            format!("fig15:{}-{}", app_name, matrix_id.code()),
            &outcome.telemetry,
        ));
        let report = &outcome.report;
        body.push_str(&format!(
            "--- {}-{} (avg util {}) ---\n",
            app_name,
            matrix_id.code(),
            fmt_pct(report.avg_bw_utilization * 100.0)
        ));
        body.push_str("  %run  util  [csc|csr|vec]  bar\n");
        for (i, s) in report.bw_trace.iter().enumerate() {
            let bar_len = (s.utilization * 40.0).round() as usize;
            body.push_str(&format!(
                "  {:>3}%  {:>5.1}  [{:>4.1}|{:>4.1}|{:>4.1}]  {}\n",
                (i + 1) * 4,
                s.utilization * 100.0,
                s.csc_frac * 100.0,
                s.csr_frac * 100.0,
                s.vector_frac * 100.0,
                "#".repeat(bar_len)
            ));
        }
    }
    Ok(Report {
        id: "fig15",
        title: "memory bandwidth utilization during execution (4% samples)".into(),
        body,
    })
}

/// **Fig 16** — speedup over the CPU implementation (iso-GPU and iso-CPU).
///
/// # Errors
///
/// Infallible in practice; `Result` for a uniform generator signature.
pub fn fig16(sweep: &Sweep) -> Result<Report, BenchError> {
    let matrices = sweep.matrices();
    let mut t = per_matrix_table(&matrices, &["geomean", "iso-CPU geomean"]);
    let paper = paper_apps(sweep);
    let mut geos = Vec::new();
    let mut iso_geos = Vec::new();
    let mut max_speedup = 0.0f64;
    for app in sweep.app_names() {
        let entries = sweep.by_app(app);
        let mut row = vec![app.to_string()];
        let mut speedups = Vec::new();
        let mut iso = Vec::new();
        for m in &matrices {
            if let Some(e) = entries.iter().find(|e| e.matrix == *m) {
                let s = e.speedup_vs_cpu();
                speedups.push(s);
                iso.push(e.iso_cpu_speedup_vs_cpu());
                row.push(fmt_x(s));
            } else {
                row.push("-".into());
            }
        }
        let g = geomean(&speedups);
        let gi = geomean(&iso);
        row.push(fmt_x(g));
        row.push(fmt_x(gi));
        t.row(row);
        if paper.contains(&app) {
            max_speedup = speedups.iter().copied().fold(max_speedup, f64::max);
            geos.push(g);
            iso_geos.push(gi);
        }
    }
    let body = format!(
        "{}\nper-app geomean range: {} – {} (paper: 12.20x – 35.14x)\nmax: {} (paper: up to 164.84x on gcn)\niso-CPU geomean range: {} – {} (paper: 1.31x – 3.57x)\n",
        t.render(),
        fmt_x(geos.iter().copied().fold(f64::INFINITY, f64::min)),
        fmt_x(geos.iter().copied().fold(0.0, f64::max)),
        fmt_x(max_speedup),
        fmt_x(iso_geos.iter().copied().fold(f64::INFINITY, f64::min)),
        fmt_x(iso_geos.iter().copied().fold(0.0, f64::max)),
    );
    Ok(Report {
        id: "fig16",
        title: "speedup of Sparsepipe over the CPU STA framework".into(),
        body,
    })
}

/// **Fig 17** — speedup over GPU frameworks (bfs, kcore, pr, sssp).
///
/// # Errors
///
/// Infallible in practice; `Result` for a uniform generator signature.
pub fn fig17(sweep: &Sweep) -> Result<Report, BenchError> {
    let subset = ["bfs", "kcore", "pr", "sssp"];
    let mut t = Table::new(["app", "geomean speedup vs GPU"]);
    let mut all = Vec::new();
    for app in subset {
        let speedups: Vec<f64> = sweep
            .by_app(app)
            .iter()
            .map(|e| e.speedup_vs_gpu())
            .collect();
        let g = geomean(&speedups);
        t.row(vec![app.into(), fmt_x(g)]);
        all.extend(speedups);
    }
    let body = format!(
        "{}\noverall geomean: {} (paper: 4.65x)\n",
        t.render(),
        fmt_x(geomean(&all))
    );
    Ok(Report {
        id: "fig17",
        title: "speedup of Sparsepipe over GPU implementations".into(),
        body,
    })
}

/// **Fig 18** — performance relative to the oracle accelerator.
///
/// # Errors
///
/// Infallible in practice; `Result` for a uniform generator signature.
pub fn fig18(sweep: &Sweep) -> Result<Report, BenchError> {
    let matrices = sweep.matrices();
    let mut t = per_matrix_table(&matrices, &[]);
    let paper = paper_apps(sweep);
    let mut all = Vec::new();
    for app in sweep.app_names() {
        let entries = sweep.by_app(app);
        let mut row = vec![app.to_string()];
        for m in &matrices {
            if let Some(e) = entries.iter().find(|e| e.matrix == *m) {
                let f = e.fraction_of_oracle() * 100.0;
                if paper.contains(&app) {
                    all.push(f);
                }
                row.push(fmt_pct(f));
            } else {
                row.push("-".into());
            }
        }
        t.row(row);
    }
    let avg = all.iter().sum::<f64>() / all.len().max(1) as f64;
    Ok(Report {
        id: "fig18",
        title: "performance vs. an accelerator with perfect inter-operator reuse".into(),
        body: format!(
            "{}\naverage: {} of oracle performance (paper: 66.78%)\n",
            t.render(),
            fmt_pct(avg)
        ),
    })
}

/// **Fig 19** — sensitivity to sparse tensor preprocessing. The full
/// variant × matrix × app grid runs as one parallel batch on `exec`.
///
/// # Errors
///
/// Returns the first dataset/compile/simulation error in grid order.
pub fn fig19(ctx: &DataContext, exec: &Executor) -> Result<Report, BenchError> {
    let datasets = ctx.load(exec)?;
    let apps = ["pr", "sssp", "kcore"];
    let variants: [(&str, bool, VertexOrder); 4] = [
        ("skeleton (no opt)", false, VertexOrder::Original),
        ("+blocked", true, VertexOrder::Original),
        ("+reorder", false, VertexOrder::Reordered),
        ("+both", true, VertexOrder::Reordered),
    ];
    // One flat grid, variant-major (matching the sequential layout), so a
    // single executor batch covers every simulation of the figure.
    let mut points = Vec::new();
    for variant in &variants {
        for d in &datasets {
            for app_name in apps {
                points.push((variant, d, app_name));
            }
        }
    }
    let results = exec.run(&points, |&(&(_, blocked, order), d, app_name)| {
        let app = app_by_name(app_name)?;
        let program = sweep::compile(&app)?;
        let cfg = SparsepipeConfig::iso_gpu()
            .with_buffer(d.buffer_bytes())
            .with_preprocessing(Preprocessing { blocked });
        let (matrix, key) = d.keyed(order);
        let request = SimRequest::new(&program, matrix)
            .iterations(app.default_iterations)
            .config(cfg);
        let outcome = sweep::simulate(request, (exec.cache(), key), app.name, d.id)?;
        let w = sparsepipe_baselines::WorkloadInstance {
            profile: &program.profile,
            n: d.matrix.nrows() as u64,
            nnz: d.matrix.nnz() as u64,
            stats: &d.stats,
            iterations: app.default_iterations,
            mxm: None,
        };
        let ideal = sparsepipe_baselines::ideal::IdealAccelerator::new(cfg).evaluate(&w);
        Ok((
            ideal.runtime_s / outcome.report.runtime_s,
            outcome.telemetry,
        ))
    });
    let mut speedups = Vec::with_capacity(points.len());
    for (result, ((name, ..), d, app_name)) in results.into_iter().zip(&points) {
        let (speedup, telemetry) = result?;
        exec.record(PointRecord::from_telemetry(
            format!("fig19:{}-{}:{}", app_name, d.id.code(), name),
            &telemetry,
        ));
        speedups.push(speedup);
    }
    let per_variant: Vec<f64> = speedups
        .chunks((points.len() / variants.len()).max(1))
        .map(geomean)
        .collect();
    let mut t = Table::new(["variant", "geomean speedup vs ideal", "vs skeleton"]);
    for ((name, ..), g) in variants.iter().zip(&per_variant) {
        t.row(vec![(*name).into(), fmt_x(*g), fmt_x(*g / per_variant[0])]);
    }
    Ok(Report {
        id: "fig19",
        title: format!(
            "preprocessing sensitivity, apps {apps:?} (paper: skeleton 1.37x; both 1.05x–1.34x over skeleton)"
        ),
        body: t.render(),
    })
}

/// **Fig 20a** — storage improvement of the blocked dual format.
///
/// # Errors
///
/// Returns [`BenchError::Dataset`] if a matrix fails to load.
pub fn fig20a(ctx: &DataContext, exec: &Executor) -> Result<Report, BenchError> {
    let datasets = ctx.load(exec)?;
    let mut t = Table::new(["matrix", "dual (MB)", "blocked dual (MB)", "ratio"]);
    let mut ratios = Vec::new();
    for d in &datasets {
        let dual = DualStorage::from_coo(&d.reordered).storage_bytes() as f64;
        let blocked = BlockedDualStorage::from_coo(&d.reordered).storage_bytes() as f64;
        let ratio = blocked / dual;
        ratios.push(ratio);
        t.row(vec![
            d.id.code().into(),
            format!("{:.2}", dual / 1e6),
            format!("{:.2}", blocked / 1e6),
            fmt_pct(ratio * 100.0),
        ]);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    Ok(Report {
        id: "fig20a",
        title: "blocked dual-storage size relative to naive dual storage".into(),
        body: format!(
            "{}\naverage: {} of naive dual storage (paper: 39.2%)\n",
            t.render(),
            fmt_pct(avg * 100.0)
        ),
    })
}

/// **Fig 20b** — relative performance per area.
///
/// # Errors
///
/// Infallible in practice; `Result` for a uniform generator signature.
pub fn fig20b(sweep: &Sweep) -> Result<Report, BenchError> {
    use sparsepipe_baselines::area;
    let paper = paper_apps(sweep);
    let cpu_speedups: Vec<f64> = sweep
        .entries
        .iter()
        .filter(|e| paper.contains(&e.app))
        .map(super::sweep::Entry::speedup_vs_cpu)
        .collect();
    let gpu_subset = ["bfs", "kcore", "pr", "sssp"];
    let gpu_speedups: Vec<f64> = sweep
        .entries
        .iter()
        .filter(|e| gpu_subset.contains(&e.app))
        .map(super::sweep::Entry::speedup_vs_gpu)
        .collect();
    let vs_cpu = geomean(&cpu_speedups);
    let vs_gpu = geomean(&gpu_speedups);
    let ppa_cpu = area::perf_per_area_ratio(vs_cpu, area::SPARSEPIPE_MM2, area::CPU_MM2);
    let ppa_gpu = area::perf_per_area_ratio(vs_gpu, area::SPARSEPIPE_MM2, area::GPU_MM2);
    let mut t = Table::new(["system", "area (mm2)", "speedup", "perf/area vs system"]);
    t.row(vec![
        "Sparsepipe".into(),
        format!("{:.2}", area::SPARSEPIPE_MM2),
        "1.00x".into(),
        "1.00x".into(),
    ]);
    t.row(vec![
        "CPU (5800X3D)".into(),
        format!("{:.0}", area::CPU_MM2),
        fmt_x(vs_cpu),
        fmt_x(ppa_cpu),
    ]);
    t.row(vec![
        "GPU (RTX 4070)".into(),
        format!("{:.0}", area::GPU_MM2),
        fmt_x(vs_gpu),
        fmt_x(ppa_gpu),
    ]);
    Ok(Report {
        id: "fig20b",
        title: "relative performance per area (paper: 5.38x vs GPU, 9.84x vs CPU)".into(),
        body: t.render(),
    })
}

/// **Fig 21** — Sparsepipe bandwidth utilization.
///
/// # Errors
///
/// Infallible in practice; `Result` for a uniform generator signature.
pub fn fig21(sweep: &Sweep) -> Result<Report, BenchError> {
    let mut t = Table::new(["app", "bw utilization (geomean)"]);
    let paper = paper_apps(sweep);
    let mut all = Vec::new();
    let mut memory_bound = Vec::new();
    for app in sweep.app_names() {
        let utils: Vec<f64> = sweep
            .by_app(app)
            .iter()
            .map(|e| e.sim.avg_bw_utilization * 100.0)
            .collect();
        let g = geomean(&utils);
        t.row(vec![app.into(), fmt_pct(g)]);
        if !paper.contains(&app) {
            continue;
        }
        all.push(g);
        if app != "gmres" && app != "gcn" {
            memory_bound.push(g);
        }
    }
    Ok(Report {
        id: "fig21",
        title: "Sparsepipe bandwidth utilization".into(),
        body: format!(
            "{}\ngeomean: {} (paper: 82.93%)\nexcluding gmres/gcn: {} (paper: 92.94%)\n",
            t.render(),
            fmt_pct(geomean(&all)),
            fmt_pct(geomean(&memory_bound))
        ),
    })
}

/// **Fig 22** — CPU/GPU bandwidth utilization per matrix.
///
/// # Errors
///
/// Infallible in practice; `Result` for a uniform generator signature.
pub fn fig22(sweep: &Sweep) -> Result<Report, BenchError> {
    let matrices = sweep.matrices();
    let mut t = Table::new(["matrix", "CPU util (geomean)", "GPU util (geomean)"]);
    for m in matrices {
        let cpu: Vec<f64> = sweep
            .entries
            .iter()
            .filter(|e| e.matrix == m)
            .map(|e| e.cpu.bw_utilization * 100.0)
            .collect();
        let gpu: Vec<f64> = sweep
            .entries
            .iter()
            .filter(|e| e.matrix == m)
            .map(|e| e.gpu.bw_utilization * 100.0)
            .collect();
        t.row(vec![
            m.code().into(),
            fmt_pct(geomean(&cpu)),
            fmt_pct(geomean(&gpu)),
        ]);
    }
    Ok(Report {
        id: "fig22",
        title: "CPU/GPU bandwidth utilization (lower on small, cached inputs)".into(),
        body: t.render(),
    })
}

/// **Fig 23** — relative energy vs. the baseline accelerator.
///
/// # Errors
///
/// Infallible in practice; `Result` for a uniform generator signature.
pub fn fig23(sweep: &Sweep) -> Result<Report, BenchError> {
    let mut t = Table::new([
        "app",
        "total energy vs ideal",
        "memory",
        "buffer",
        "compute",
    ]);
    let paper = paper_apps(sweep);
    let mut savings = Vec::new();
    let mut mem_savings = Vec::new();
    let mut buf_savings = Vec::new();
    for app in sweep.app_names() {
        let entries = sweep.by_app(app);
        let ratio = |f: &dyn Fn(&sweep::Entry) -> (f64, f64)| {
            let (a, b): (f64, f64) = entries
                .iter()
                .map(|e| f(e))
                .fold((0.0, 0.0), |(x, y), (a, b)| (x + a, y + b));
            a / b.max(1e-30)
        };
        let total = ratio(&|e| (e.sim.energy.total_pj(), e.ideal.energy.total_pj()));
        let mem = ratio(&|e| (e.sim.energy.memory_pj, e.ideal.energy.memory_pj));
        let buf = ratio(&|e| (e.sim.energy.buffer_pj, e.ideal.energy.buffer_pj));
        let cmp = ratio(&|e| (e.sim.energy.compute_pj, e.ideal.energy.compute_pj));
        t.row(vec![
            app.into(),
            fmt_pct(total * 100.0),
            fmt_pct(mem * 100.0),
            fmt_pct(buf * 100.0),
            fmt_pct(cmp * 100.0),
        ]);
        if !paper.contains(&app) {
            continue;
        }
        savings.push(1.0 - total);
        mem_savings.push(1.0 - mem);
        buf_savings.push(1.0 - buf);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64 * 100.0;
    Ok(Report {
        id: "fig23",
        title: "relative energy consumption vs the baseline accelerator".into(),
        body: format!(
            "{}\naverage energy saving: {} (paper: 54.98%)\nmemory-op saving: {} (paper: 50.32%)\nbuffer-op saving: {} (paper: 39.45%)\n",
            t.render(),
            fmt_pct(avg(&savings)),
            fmt_pct(avg(&mem_savings)),
            fmt_pct(avg(&buf_savings)),
        ),
    })
}

/// **Ablations** — the design-choice studies DESIGN.md §7 calls out:
/// sub-tensor width, eager CSR loading, eviction policy, repack threshold,
/// and buffer capacity. Each study's configuration list runs as one
/// parallel batch on `exec`.
///
/// # Errors
///
/// Returns the first dataset/compile/simulation error encountered.
pub fn ablation(ctx: &DataContext, exec: &Executor) -> Result<Report, BenchError> {
    use sparsepipe_core::EvictionPolicy;
    let mut body = String::new();

    let mut loaded = exec
        .run(&[MatrixId::Wi, MatrixId::Bu], |&id| ctx.load_one(id))
        .into_iter();
    let wi = loaded.next().expect("two datasets requested")?;
    let bu = loaded.next().expect("two datasets requested")?;
    let pr = app_by_name("pr")?;
    let sssp = app_by_name("sssp")?;

    // A labelled batch of configs simulated in parallel; rows and
    // telemetry are emitted in config order.
    let study = |study: &str,
                 app: &StaApp,
                 dataset: &ScaledDataset,
                 order: VertexOrder,
                 configs: &[(String, SparsepipeConfig)]|
     -> Result<Vec<sparsepipe_core::SimReport>, BenchError> {
        let program = sweep::compile(app)?;
        let (matrix, key) = dataset.keyed(order);
        let outcomes = exec.run(configs, |(_, cfg)| {
            let request = SimRequest::new(&program, matrix)
                .iterations(app.default_iterations)
                .config(*cfg);
            sweep::simulate(request, (exec.cache(), key), app.name, dataset.id)
        });
        let mut reports = Vec::with_capacity(configs.len());
        for (outcome, (label, _)) in outcomes.into_iter().zip(configs) {
            let outcome = outcome?;
            exec.record(PointRecord::from_telemetry(
                format!(
                    "ablation:{study}:{}-{}:{label}",
                    app.name,
                    dataset.id.code()
                ),
                &outcome.telemetry,
            ));
            reports.push(outcome.report);
        }
        Ok(reports)
    };

    // --- A: sub-tensor width (pr on wi: skewed, large) ---
    let base = sweep::sparsepipe_config(&wi);
    let auto = base.subtensor_auto(wi.reordered.ncols(), wi.reordered.nnz());
    let configs: Vec<(String, SparsepipeConfig)> = [
        ("1".to_string(), 1usize),
        ("8".to_string(), 8),
        ("64".to_string(), 64),
        ("512".to_string(), 512),
        (format!("auto ({auto})"), 0),
    ]
    .into_iter()
    .map(|(label, cols)| {
        (
            label,
            SparsepipeConfig {
                subtensor_cols: cols,
                ..base
            },
        )
    })
    .collect();
    let mut t = Table::new(["sub-tensor T", "steps", "runtime (ms)", "bw util"]);
    for (r, (label, cfg)) in study("subtensor", &pr, &wi, VertexOrder::Reordered, &configs)?
        .into_iter()
        .zip(&configs)
    {
        let eff = if cfg.subtensor_cols == 0 {
            auto
        } else {
            cfg.subtensor_cols
        };
        t.row(vec![
            label.clone(),
            wi.reordered.ncols().div_ceil(eff as u32).to_string(),
            format!("{:.4}", r.runtime_s * 1e3),
            fmt_pct(r.avg_bw_utilization * 100.0),
        ]);
    }
    body.push_str("--- sub-tensor width (pr on wi) ---\n");
    body.push_str(&t.render());

    // --- B: eager CSR + eviction policy under buffer pressure (sssp/bu) ---
    // Use the ORIGINAL (unreordered) bu: GraphOrder halves its live set
    // (the anti-diagonal mass relabels to near-diagonal), which would
    // remove the pressure this study needs. Quarter the buffer on top.
    let pressured = sweep::sparsepipe_config(&bu).with_buffer(bu.buffer_bytes() / 4);
    let configs: Vec<(String, SparsepipeConfig)> = [
        (
            "eager + highest-row-first",
            true,
            EvictionPolicy::HighestRowFirst,
        ),
        ("no eager CSR", false, EvictionPolicy::HighestRowFirst),
        ("eager + oldest-first", true, EvictionPolicy::OldestFirst),
    ]
    .into_iter()
    .map(|(name, eager, policy)| {
        (
            name.to_string(),
            SparsepipeConfig {
                eviction: policy,
                ..pressured.with_eager_csr(eager)
            },
        )
    })
    .collect();
    let mut t = Table::new([
        "variant",
        "runtime (ms)",
        "refetch (MB)",
        "eager (MB)",
        "evictions",
    ]);
    for (r, (name, _)) in study(
        "eager-eviction",
        &sssp,
        &bu,
        VertexOrder::Original,
        &configs,
    )?
    .into_iter()
    .zip(&configs)
    {
        t.row(vec![
            name.clone(),
            format!("{:.4}", r.runtime_s * 1e3),
            format!("{:.2}", r.traffic.refetch_bytes / 1e6),
            format!("{:.2}", r.traffic.csr_eager_bytes / 1e6),
            r.evicted_elements.to_string(),
        ]);
    }
    body.push_str("\n--- eager CSR loading & eviction policy (sssp on bu (original order), quarter buffer) ---\n");
    body.push_str(&t.render());

    // --- C: repack threshold ---
    let configs: Vec<(String, SparsepipeConfig)> = [0.1, 0.5, 0.9]
        .into_iter()
        .map(|thr| {
            (
                format!("{thr}"),
                SparsepipeConfig {
                    repack_threshold: thr,
                    ..pressured
                },
            )
        })
        .collect();
    let mut t = Table::new(["repack threshold", "runtime (ms)", "repacks", "evictions"]);
    for (r, (label, _)) in study("repack", &sssp, &bu, VertexOrder::Original, &configs)?
        .into_iter()
        .zip(&configs)
    {
        t.row(vec![
            label.clone(),
            format!("{:.4}", r.runtime_s * 1e3),
            r.repack_events.to_string(),
            r.evicted_elements.to_string(),
        ]);
    }
    body.push_str(
        "\n--- CSR-space repack threshold (sssp on bu (original order), quarter buffer) ---\n",
    );
    body.push_str(&t.render());

    // --- D: buffer capacity (pr on bu) ---
    let full = bu.buffer_bytes();
    let configs: Vec<(String, SparsepipeConfig)> = [8usize, 4, 2, 1]
        .into_iter()
        .map(|frac| {
            (
                format!("1/{frac} of scaled 64 MB"),
                sweep::sparsepipe_config(&bu).with_buffer(full / frac),
            )
        })
        .collect();
    let mut t = Table::new(["buffer", "runtime (ms)", "refetch (MB)", "loads/iter"]);
    for (r, (label, _)) in study("buffer", &pr, &bu, VertexOrder::Original, &configs)?
        .into_iter()
        .zip(&configs)
    {
        t.row(vec![
            label.clone(),
            format!("{:.4}", r.runtime_s * 1e3),
            format!("{:.2}", r.traffic.refetch_bytes / 1e6),
            format!("{:.3}", r.matrix_loads_per_iteration),
        ]);
    }
    body.push_str("\n--- buffer capacity (pr on bu) ---\n");
    body.push_str(&t.render());

    Ok(Report {
        id: "ablation",
        title: format!("design-choice ablations (scale 1/{})", ctx.scale()),
        body,
    })
}

/// **Self-verification** — runs the stack's functional cross-checks on
/// fresh matrices and reports pass/fail per check: every app through the
/// interpreter, Table III's reuse classification recomputed, the OEI
/// schedule (element, sub-tensor, and mechanism-level buffered variants)
/// against sequential execution, and a fused multi-iteration PageRank
/// against the interpreter.
///
/// # Errors
///
/// Infallible in practice (failed checks are reported as `FAIL` rows, not
/// errors); `Result` for a uniform generator signature.
pub fn verify() -> Result<Report, BenchError> {
    use sparsepipe_core::{oei::FusedPass, MatrixArena};
    use sparsepipe_semiring::SemiringOp;
    use sparsepipe_tensor::{gen, DenseVector};

    let mut t = Table::new(["check", "status"]);
    let mut failures = 0usize;
    let check = |t: &mut Table, failures: &mut usize, name: String, ok: bool| {
        if !ok {
            *failures += 1;
        }
        t.row(vec![name, if ok { "ok".into() } else { "FAIL".into() }]);
    };

    // 1. every app interprets and matches its Table-III classification
    let m = gen::uniform(48, 48, 280, 99);
    for app in registry::all() {
        let interp_ok = sparsepipe_frontend::interp::run(&app.graph, &app.bindings(&m), 3).is_ok();
        check(
            &mut t,
            &mut failures,
            format!("{}: interprets (3 iterations)", app.name),
            interp_ok,
        );
        match app.compile() {
            Ok(program) => {
                let expected = app.reuse == sparsepipe_apps::ReusePattern::CrossIteration;
                check(
                    &mut t,
                    &mut failures,
                    format!("{}: OEI classification matches Table III", app.name),
                    program.profile.has_oei == expected,
                );
            }
            Err(_) => check(
                &mut t,
                &mut failures,
                format!("{}: compiles", app.name),
                false,
            ),
        }
    }

    // 2. OEI schedule equivalence across dataset families and variants
    for (family, matrix) in [
        ("uniform", gen::uniform(90, 90, 700, 1)),
        ("banded", gen::banded(90, 700, 6, 2)),
        ("power-law", gen::power_law(90, 700, 1.4, 0.4, 3)),
    ] {
        let arena = MatrixArena::from_coo(&matrix);
        let x = DenseVector::filled(90, 0.25);
        let ew = |_: usize, v: f64| v * 0.7 + 0.2;
        let pass = || FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd);
        let Ok(reference) = pass().run(&x, ew) else {
            check(
                &mut t,
                &mut failures,
                format!("oei element pass on {family}"),
                false,
            );
            continue;
        };
        let wide = pass().subtensor(7).run(&x, ew);
        check(
            &mut t,
            &mut failures,
            format!("oei sub-tensor schedule == element schedule ({family})"),
            wide.is_ok_and(|w| w.y2.max_abs_diff(&reference.y2).unwrap_or(f64::MAX) < 1e-9),
        );
        for cap in [64 << 20, matrix.nnz() * 12 / 6] {
            let buffered = pass().buffer(cap).run(&x, ew);
            check(
                &mut t,
                &mut failures,
                format!("oei buffered mechanism exact ({family}, {} KiB)", cap >> 10),
                buffered.is_ok_and(|(o, _)| {
                    o.y2.max_abs_diff(&reference.y2).unwrap_or(f64::MAX) < 1e-9
                }),
            );
        }
    }

    // 3. end-to-end: fused multi-iteration PageRank == interpreter
    let graph = gen::power_law(64, 500, 1.0, 0.4, 5);
    let transition = sparsepipe_apps::pagerank::transition_matrix(&graph);
    let x0 = DenseVector::filled(64, 1.0 / 64.0);
    let d = sparsepipe_apps::pagerank::DAMPING;
    let fused = FusedPass::new(
        &MatrixArena::from_coo(&transition),
        SemiringOp::MulAdd,
        SemiringOp::MulAdd,
    )
    .buffer(transition.nnz() * 12 / 4)
    .iterate(&x0, |_, v| d * v + 0.15, 6);
    let app = sparsepipe_apps::pagerank::app(6);
    let via_interp = sparsepipe_frontend::interp::run(&app.graph, &app.bindings(&graph), 6);
    check(
        &mut t,
        &mut failures,
        "pagerank x6: buffered OEI pipeline == interpreter".into(),
        match (fused, via_interp) {
            (Ok((x, _)), Ok(out)) => out["pr"]
                .as_vector()
                .is_some_and(|pr| x.max_abs_diff(pr).unwrap_or(f64::MAX) < 1e-9),
            _ => false,
        },
    );

    Ok(Report {
        id: "verify",
        title: format!("functional self-verification — {failures} check(s) failed"),
        body: t.render(),
    })
}

/// **trace** — event-level trace of a single (app, matrix) point.
///
/// Runs the point with an in-memory sink, audits the replayed stream
/// against the traffic report bit-for-bit, and writes four exports into
/// `trace_dir`: the raw `trace.jsonl` stream, a Perfetto-loadable
/// `chrome-trace.json`, and `reuse.csv` / `occupancy.csv` /
/// `traffic.csv` analyzer tables. The report summarizes the audit
/// verdict and the trace-derived statistics.
///
/// # Errors
///
/// Returns [`BenchError::UnknownApp`] for an unregistered app name,
/// [`BenchError::Dataset`] / [`BenchError::Compile`] / [`BenchError::Sim`]
/// from the point itself, [`BenchError::Trace`] on an audit mismatch,
/// and [`BenchError::Io`] if an export cannot be written.
pub fn trace_point(
    ctx: &DataContext,
    exec: &Executor,
    app_name: &str,
    matrix_id: MatrixId,
    trace_dir: &std::path::Path,
) -> Result<Report, BenchError> {
    use sparsepipe_trace::{
        chrome, jsonl, MemorySink, OccupancyTimeline, ReuseHistogram, StageTraffic, TrafficTimeline,
    };

    let app = app_by_name(app_name)?;
    let dataset = ctx.load_one(matrix_id)?;
    let program = sweep::compile(&app)?;
    let (matrix, key) = dataset.keyed(VertexOrder::Reordered);
    let mut sink = MemorySink::new();
    let request = SimRequest::new(&program, matrix)
        .iterations(app.default_iterations)
        .config(sweep::sparsepipe_config(&dataset))
        .trace(&mut sink);
    let outcome = sweep::simulate(request, (exec.cache(), key), app.name, matrix_id)?;
    let events = sink.events();
    sweep::audit(events, &outcome.report, app.name, matrix_id)?;

    std::fs::create_dir_all(trace_dir).map_err(|e| BenchError::Io {
        path: trace_dir.to_path_buf(),
        source: e,
    })?;
    let export = |name: &str, write: &dyn Fn(&Path) -> std::io::Result<()>| {
        let path = trace_dir.join(name);
        write(&path).map_err(|source| BenchError::Io { path, source })
    };
    export("trace.jsonl", &|p| jsonl::write_events(p, events))?;
    export("chrome-trace.json", &|p| chrome::write(p, events))?;
    let reuse = ReuseHistogram::from_events(events);
    export("reuse.csv", &|p| std::fs::write(p, reuse.to_csv()))?;
    let occupancy = OccupancyTimeline::from_events(events);
    export("occupancy.csv", &|p| std::fs::write(p, occupancy.to_csv()))?;
    let traffic = TrafficTimeline::from_events(events);
    export("traffic.csv", &|p| std::fs::write(p, traffic.to_csv()))?;

    let counters = sweep::trace_counters(events);
    exec.record(
        PointRecord::from_telemetry(
            format!("trace:{}-{}", app.name, matrix_id.code()),
            &outcome.telemetry,
        )
        .with_trace(counters),
    );

    let stage = StageTraffic::from_events(events);
    let mut body = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        body,
        "point      : {} on {} ({} iterations, scale {})",
        app.name,
        matrix_id.code(),
        app.default_iterations,
        ctx.scale()
    );
    let _ = writeln!(body, "events     : {}", events.len());
    let _ = writeln!(
        body,
        "audit      : exact — replayed DRAM bytes equal the report bitwise"
    );
    let _ = writeln!(
        body,
        "reuse |r-c|: median {} steps, p95 {} steps ({} OS/IS pairs)",
        counters.reuse_median,
        counters.reuse_p95,
        reuse.total()
    );
    let _ = writeln!(
        body,
        "occupancy  : peak {:.0} B, mean {:.1} B",
        occupancy.peak_bytes(),
        occupancy.mean_bytes()
    );
    let _ = writeln!(
        body,
        "dram bytes : demand {:.0}, prefetch {:.0}, vector {:.0}, writeback {:.0}",
        stage.demand_bytes, stage.prefetch_bytes, stage.vector_bytes, stage.writeback_bytes
    );
    let _ = writeln!(
        body,
        "exports    : {} (+ chrome-trace.json for Perfetto, reuse/occupancy/traffic CSVs)",
        trace_dir.join("trace.jsonl").display()
    );
    Ok(Report {
        id: "trace",
        title: format!("event trace of {} on {}", app.name, matrix_id.code()),
        body,
    })
}

/// **analyze** — the static cost & reuse analyzer, differentially
/// verified against the simulator.
///
/// For each selected app (all registered apps unless `app_filter` names
/// one), the analyzer (`sparsepipe_lint::analysis_cost`) derives traffic
/// and occupancy bounds from the dataflow graph and the matrix profile
/// alone; the same point is then simulated with an audited trace, and
/// every per-pass, per-category bound is checked against the replayed
/// actuals (`lower ≤ actual ≤ upper`). The table summarizes one app per
/// row; the full per-pass comparison is written to `json_path`. The
/// returned count is the number of bound violations (0 on a sound run —
/// CI fails otherwise).
///
/// # Errors
///
/// Returns [`BenchError::UnknownApp`] for an unregistered `app_filter`,
/// [`BenchError::Dataset`] / [`BenchError::Compile`] / [`BenchError::Sim`]
/// from the points themselves, [`BenchError::Trace`] on an audit
/// mismatch, and [`BenchError::Io`] if the JSON report cannot be written.
pub fn analyze(
    ctx: &DataContext,
    exec: &Executor,
    app_filter: Option<&str>,
    matrix_id: MatrixId,
    json_path: &std::path::Path,
) -> Result<(Report, usize), BenchError> {
    use serde::Serialize as _;
    use sparsepipe_lint::analysis_cost;
    use sparsepipe_trace::{replay_passes, MemorySink};

    let apps: Vec<StaApp> = match app_filter {
        Some(name) => vec![app_by_name(name)?],
        None => registry::all(),
    };
    let dataset = ctx.load_one(matrix_id)?;
    let cfg = sweep::sparsepipe_config(&dataset);
    let (matrix, key) = dataset.keyed(VertexOrder::Reordered);
    let cache = (&**exec.cache(), key);
    let profile = sweep::cached_profile(exec.cache(), key, &cfg, matrix);

    let mut t = Table::new([
        "app",
        "passes",
        "lower (MB)",
        "actual (MB)",
        "upper (MB)",
        "occupancy peak",
        "reuse",
        "diags",
        "bounds",
    ]);
    let mut violations = 0usize;
    let mut apps_json: Vec<serde::Value> = Vec::new();
    let mb = |b: f64| format!("{:.2}", b / 1e6);

    for app in &apps {
        let program = sweep::compile(app)?;
        let iterations = app.default_iterations;
        let cost = analysis_cost::analyze(&program, &profile, &cfg, iterations);

        let mut sink = MemorySink::new();
        let request = SimRequest::new(&program, matrix)
            .iterations(iterations)
            .config(cfg)
            .trace(&mut sink);
        let outcome = sweep::simulate(request, cache, app.name, matrix_id)?;
        // Ground truth: the trace must reproduce the report bitwise
        // before it is allowed to judge the static bounds.
        sweep::audit(sink.events(), &outcome.report, app.name, matrix_id)?;
        exec.record(PointRecord::from_telemetry(
            format!("analyze:{}-{}", app.name, matrix_id.code()),
            &outcome.telemetry,
        ));

        // Per-pass, per-category verdicts.
        let actual_passes = replay_passes(sink.events());
        let mut app_violations = 0usize;
        let mut passes_json: Vec<serde::Value> = Vec::new();
        if actual_passes.len() != cost.passes.len() {
            app_violations += 1;
        }
        for (sp, ap) in cost.passes.iter().zip(&actual_passes) {
            let actuals = [
                ap.traffic.csc_bytes,
                ap.traffic.csr_eager_bytes,
                ap.traffic.refetch_bytes,
                ap.traffic.vector_bytes,
                ap.traffic.writeback_bytes,
            ];
            let mut cats: Vec<(String, serde::Value)> = Vec::new();
            for ((name, bound), actual) in sp.traffic.categories().iter().zip(actuals) {
                let ok = bound.contains(actual);
                if !ok {
                    app_violations += 1;
                }
                cats.push((
                    (*name).to_string(),
                    serde::Value::Map(vec![
                        ("lower".into(), bound.lower.to_value()),
                        ("actual".into(), actual.to_value()),
                        ("upper".into(), bound.upper.to_value()),
                        ("ok".into(), ok.to_value()),
                    ]),
                ));
            }
            passes_json.push(serde::Value::Map(vec![
                ("pass".into(), sp.pass.to_value()),
                ("kind".into(), sp.kind.label().to_value()),
                ("repeats".into(), sp.repeats.to_value()),
                ("steps".into(), sp.steps.to_value()),
                ("categories".into(), serde::Value::Map(cats)),
            ]));
        }
        let actual_total = outcome.report.traffic.total_bytes();
        let total = cost.traffic.total();
        if !total.contains(actual_total) {
            app_violations += 1;
        }
        let occupancy_ok = cost
            .occupancy_bytes
            .contains(outcome.report.buffer_peak_bytes);
        if !occupancy_ok {
            app_violations += 1;
        }
        violations += app_violations;

        t.row(vec![
            app.name.into(),
            cost.passes.len().to_string(),
            mb(total.lower),
            mb(actual_total),
            mb(total.upper),
            format!(
                "{:.0} in [{:.0}, {:.0}]",
                outcome.report.buffer_peak_bytes,
                cost.occupancy_bytes.lower,
                cost.occupancy_bytes.upper
            ),
            format!("{:.2}", cost.reuse_score),
            cost.diagnostics.diagnostics().len().to_string(),
            if app_violations == 0 {
                "ok".into()
            } else {
                format!("{app_violations} VIOLATION(S)")
            },
        ]);
        apps_json.push(serde::Value::Map(vec![
            ("app".into(), app.name.to_value()),
            ("matrix".into(), matrix_id.code().to_value()),
            ("iterations".into(), iterations.to_value()),
            ("has_oei".into(), cost.has_oei.to_value()),
            ("cross_iteration".into(), cost.cross_iteration.to_value()),
            ("reuse_score".into(), cost.reuse_score.to_value()),
            (
                "no_eviction_guaranteed".into(),
                cost.no_eviction_guaranteed.to_value(),
            ),
            (
                "thrash_guaranteed".into(),
                cost.thrash_guaranteed.to_value(),
            ),
            ("passes".into(), serde::Value::Seq(passes_json)),
            (
                "total".into(),
                serde::Value::Map(vec![
                    ("lower".into(), total.lower.to_value()),
                    ("actual".into(), actual_total.to_value()),
                    ("upper".into(), total.upper.to_value()),
                ]),
            ),
            (
                "occupancy".into(),
                serde::Value::Map(vec![
                    ("lower".into(), cost.occupancy_bytes.lower.to_value()),
                    ("actual".into(), outcome.report.buffer_peak_bytes.to_value()),
                    ("upper".into(), cost.occupancy_bytes.upper.to_value()),
                    ("ok".into(), occupancy_ok.to_value()),
                ]),
            ),
            (
                "diagnostics".into(),
                serde::Value::Seq(
                    cost.diagnostics
                        .diagnostics()
                        .iter()
                        .map(|d| d.to_string().to_value())
                        .collect(),
                ),
            ),
            ("violations".into(), app_violations.to_value()),
        ]));
    }

    let json = serde::Value::Map(vec![
        ("matrix".into(), matrix_id.code().to_value()),
        ("scale".into(), ctx.scale().to_value()),
        ("violations".into(), violations.to_value()),
        ("apps".into(), serde::Value::Seq(apps_json)),
    ]);
    let text = serde_json::to_string_pretty(&json).map_err(|e| BenchError::Json(e.to_string()))?;
    std::fs::write(json_path, text).map_err(|source| BenchError::Io {
        path: json_path.to_path_buf(),
        source,
    })?;

    let mut body = t.render();
    use std::fmt::Write as _;
    let _ = writeln!(
        body,
        "bounds     : {} (per-pass, per-category, vs bit-audited trace replay)",
        if violations == 0 {
            "all sound".to_string()
        } else {
            format!("{violations} VIOLATION(S)")
        }
    );
    let _ = writeln!(body, "json report: {}", json_path.display());
    Ok((
        Report {
            id: "analyze",
            title: format!(
                "static traffic/occupancy bounds vs simulator on {} (scale 1/{})",
                matrix_id.code(),
                ctx.scale()
            ),
            body,
        },
        violations,
    ))
}

/// **compile** — the sparse-einsum front door: parse, lint, lower, and
/// run one simulated point for each expression. Returns the report and
/// the number of expressions with diagnostic errors (parse/lower
/// rejections, lint errors, backend compile or simulation failures).
///
/// With `emit_graph` set, every expression that lowers cleanly also gets
/// its [`DataflowGraph`](sparsepipe_frontend::DataflowGraph) dumped as
/// pretty-printed JSON to `<dir>/compile-graph-<name>.json` — the
/// schema-stable interchange form downstream tools consume.
///
/// # Errors
///
/// Returns [`BenchError::Dataset`] if the input matrix fails to load —
/// per-expression failures are reported in the table, not raised.
pub fn compile_exprs(
    ctx: &DataContext,
    exec: &Executor,
    entries: &[crate::einsum_corpus::CorpusEntry],
    matrix_id: MatrixId,
    emit_graph: Option<&Path>,
) -> Result<(Report, usize), BenchError> {
    use sparsepipe_lint::einsum_checks;

    if let Some(dir) = emit_graph {
        std::fs::create_dir_all(dir).map_err(|source| BenchError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
    }
    let dataset = ctx.load_one(matrix_id)?;
    let cfg = sweep::sparsepipe_config(&dataset);
    let (matrix, key) = dataset.keyed(VertexOrder::Reordered);
    let mb = |b: f64| format!("{:.2}", b / 1e6);

    let mut t = Table::new([
        "expr",
        "ops",
        "profile",
        "errors",
        "warnings",
        "iters",
        "cycles",
        "traffic (MB)",
        "status",
    ]);
    let mut failing = 0usize;
    let mut details = String::new();
    for e in entries {
        let check = einsum_checks::check_expression(&e.source);
        let mut report = check.report;
        let dash = || "-".to_string();

        // Lowered expressions go through the unchanged backend stack:
        // fusion/compile, the full graph linter, then one simulation.
        let mut ops = None;
        let mut profile = None;
        let mut iterations = None;
        let mut point = None;
        let mut backend_failure = None;
        if let Some(lowered) = &check.lowered {
            ops = Some(lowered.graph.ops().count());
            iterations = Some(lowered.iterations);
            if let Some(dir) = emit_graph {
                let path = dir.join(format!("compile-graph-{}.json", e.name));
                let json = serde_json::to_string_pretty(&lowered.graph)
                    .map_err(|err| BenchError::Json(err.to_string()))?;
                std::fs::write(&path, json).map_err(|source| BenchError::Io { path, source })?;
            }
            match sparsepipe_frontend::compile(&lowered.graph, lowered.feature_dim) {
                Ok(program) => {
                    report.merge(sparsepipe_lint::lint_program(&program));
                    profile = Some(if program.profile.cross_iteration {
                        "cross-oei"
                    } else if program.profile.has_oei {
                        "oei"
                    } else {
                        "stream"
                    });
                    if !report.has_errors() {
                        let request = SimRequest::new(&program, matrix)
                            .iterations(lowered.iterations)
                            .config(cfg);
                        match sweep::simulate(request, (exec.cache(), key), &e.name, matrix_id) {
                            Ok(outcome) => {
                                exec.record(PointRecord::from_telemetry(
                                    format!("compile:{}-{}", e.name, matrix_id.code()),
                                    &outcome.telemetry,
                                ));
                                point = Some(outcome);
                            }
                            Err(err) => backend_failure = Some(err.to_string()),
                        }
                    }
                }
                Err(err) => backend_failure = Some(format!("backend compile: {err}")),
            }
        }

        let failed = report.has_errors() || backend_failure.is_some();
        if failed {
            failing += 1;
        }
        if let Some(msg) = &backend_failure {
            details.push_str(&format!("{}: {msg}\n", e.name));
        }
        if !report.diagnostics().is_empty() {
            details.push_str(&format!("--- {} (line {}) ---\n{report}\n", e.name, e.line));
        }
        t.row(vec![
            e.name.clone(),
            ops.map_or_else(dash, |n| n.to_string()),
            profile.unwrap_or("-").into(),
            report.error_count().to_string(),
            report.warning_count().to_string(),
            iterations.map_or_else(dash, |n| n.to_string()),
            point
                .as_ref()
                .map_or_else(dash, |o| o.report.total_cycles.to_string()),
            point
                .as_ref()
                .map_or_else(dash, |o| mb(o.report.traffic.total_bytes())),
            if failed { "FAIL".into() } else { "ok".into() },
        ]);
    }

    let mut body = t.render();
    if !details.is_empty() {
        body.push_str(&details);
    }
    use std::fmt::Write as _;
    let _ = writeln!(
        body,
        "compile    : {} expression(s), {failing} failing",
        entries.len()
    );
    if let Some(dir) = emit_graph {
        let _ = writeln!(
            body,
            "graphs     : lowered DataflowGraph JSON in {}",
            dir.display()
        );
    }
    Ok((
        Report {
            id: "compile",
            title: format!(
                "sparse-einsum front door on {} (scale 1/{})",
                matrix_id.code(),
                ctx.scale()
            ),
            body,
        },
        failing,
    ))
}

/// **convert** — the out-of-core front door: writes a binary matrix slab
/// (`SPSLAB1` format, see `sparsepipe_core::slab`) either by streaming a
/// MatrixMarket file through the chunked [`ArenaBuilder`]
/// (`--in FILE.mtx`, never materializing the triplet list) or by
/// freezing a synthetic Table-I matrix at the requested scale
/// (`--matrix CODE --scale N`). The resulting slab is what `--slab DIR`
/// serves back through [`SlabSource`](crate::datasets::SlabSource).
///
/// [`ArenaBuilder`]: sparsepipe_core::ArenaBuilder
///
/// # Errors
///
/// Returns [`BenchError::Dataset`] when the source fails to parse or the
/// slab cannot be written.
pub fn convert(
    input: Option<&Path>,
    matrix_id: MatrixId,
    scale: u64,
    out: &Path,
) -> Result<Report, BenchError> {
    let to_dataset = |message: String| BenchError::Dataset {
        matrix: matrix_id,
        message,
    };
    let (header, source_desc) = if let Some(mtx) = input {
        let header = sparsepipe_core::slab::convert_mm(mtx, out)
            .map_err(|e| to_dataset(format!("{}: {e}", mtx.display())))?;
        (header, mtx.display().to_string())
    } else {
        let matrix = matrix_id.spec().generate(scale);
        let arena = sparsepipe_core::MatrixArena::from_coo(&matrix);
        let header = sparsepipe_core::slab::write_file(&arena, out)
            .map_err(|e| to_dataset(format!("{}: {e}", out.display())))?;
        (
            header,
            format!("synthetic {} @ scale 1/{scale}", matrix_id.code()),
        )
    };
    let mut t = Table::new(["slab", "n", "nnz", "bytes", "fingerprint"]);
    t.row(vec![
        out.display().to_string(),
        header.n.to_string(),
        header.nnz.to_string(),
        header.file_bytes().to_string(),
        format!("{:016x}", header.fingerprint),
    ]);
    let mut body = t.render();
    use std::fmt::Write as _;
    let _ = writeln!(body, "converted  : {source_desc}");
    Ok(Report {
        id: "convert",
        title: format!("matrix slab written to {}", out.display()),
        body,
    })
}

/// **--lint** — the static verifier over every registered app (graph
/// well-formedness, shapes/semirings, the OEI oracle cross-check) plus a
/// representative pass plan per feature width. Returns the report and the
/// number of apps with lint errors.
pub fn lint_apps() -> (Report, usize) {
    let mut t = Table::new(["app", "errors", "warnings", "status"]);
    let mut failing = 0usize;
    let mut details = String::new();
    let config = SparsepipeConfig::iso_gpu();
    let matrix = sparsepipe_tensor::gen::power_law(512, 4096, 1.0, 0.4, 11);
    for app in registry::all() {
        // `StaApp::compile` already rejects lint errors; go through the raw
        // frontend so findings are reported instead of swallowed into an
        // `Uncompilable`.
        let mut report = match sparsepipe_frontend::compile(&app.graph, app.feature_dim) {
            Ok(program) => sparsepipe_lint::lint_program(&program),
            Err(e) => {
                failing += 1;
                t.row(vec![
                    app.name.into(),
                    "-".into(),
                    "-".into(),
                    "NO COMPILE".into(),
                ]);
                details.push_str(&format!("{}: {e}\n", app.name));
                continue;
            }
        };
        let t_cols = config.subtensor_auto(matrix.ncols(), matrix.nnz());
        let plan = sparsepipe_core::PassPlan::build(&matrix, t_cols);
        let mut plan_report = sparsepipe_lint::LintReport::new();
        sparsepipe_lint::plan_checks::check(&plan, &config, app.feature_dim, &mut plan_report);
        report.merge(plan_report);
        if report.has_errors() {
            failing += 1;
        }
        if !report.diagnostics().is_empty() {
            details.push_str(&format!("--- {} ---\n{report}\n", app.name));
        }
        t.row(vec![
            app.name.into(),
            report.error_count().to_string(),
            report.warning_count().to_string(),
            if report.has_errors() {
                "FAIL".into()
            } else {
                "ok".into()
            },
        ]);
    }
    let mut body = t.render();
    if !details.is_empty() {
        body.push_str(&details);
    }
    (
        Report {
            id: "lint",
            title: format!("static verification — {failing} app(s) failed"),
            body,
        },
        failing,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::MatrixSet;

    fn tiny() -> Sweep {
        let ctx = DataContext::synthetic(MatrixSet::Quick, 512);
        let outcome = Sweep::run(ctx, &Executor::new(0), &sweep::SweepOptions::default())
            .expect("synthetic datasets load");
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        outcome.sweep
    }

    #[test]
    fn static_tables_render() {
        assert!(table2().unwrap().render().contains("GDDR6X"));
        let t3 = table3().unwrap();
        assert!(t3.body.contains("Aril-Add"));
        assert!(t3.body.contains("cross-iteration"));
    }

    #[test]
    fn table1_includes_paper_comparison() {
        let ctx = DataContext::synthetic(MatrixSet::Quick, 512);
        let r = table1(&ctx, &Executor::new(1)).unwrap();
        assert!(r.body.contains("ca"));
        assert!(r.body.contains("paper max"));
    }

    #[test]
    fn trace_point_audits_and_writes_exports() {
        let dir =
            std::env::temp_dir().join(format!("sparsepipe-trace-point-{}", std::process::id()));
        let ctx = DataContext::synthetic(MatrixSet::Quick, 512);
        let exec = Executor::new(1);
        let r = trace_point(&ctx, &exec, "pr", sparsepipe_tensor::MatrixId::Ca, &dir).unwrap();
        assert!(r.body.contains("audit      : exact"), "{}", r.body);
        assert!(r.body.contains("reuse |r-c|"), "{}", r.body);
        for name in [
            "trace.jsonl",
            "chrome-trace.json",
            "reuse.csv",
            "occupancy.csv",
            "traffic.csv",
        ] {
            assert!(dir.join(name).is_file(), "missing export {name}");
        }
        let t = exec.finish();
        assert_eq!(t.points, 1);
        assert!(t.records[0].trace.is_some());
        assert!(matches!(
            trace_point(&ctx, &exec, "nosuch", sparsepipe_tensor::MatrixId::Ca, &dir),
            Err(BenchError::UnknownApp(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_figures_render() {
        let s = tiny();
        for report in [
            fig14(&s).unwrap(),
            fig16(&s).unwrap(),
            fig17(&s).unwrap(),
            fig18(&s).unwrap(),
            fig20b(&s).unwrap(),
            fig21(&s).unwrap(),
            fig22(&s).unwrap(),
            fig23(&s).unwrap(),
        ] {
            assert!(!report.body.is_empty(), "{} empty", report.id);
        }
    }

    #[test]
    fn fig20a_shows_compression() {
        let ctx = DataContext::synthetic(MatrixSet::Quick, 512);
        let r = fig20a(&ctx, &Executor::new(2)).unwrap();
        assert!(r.body.contains("average"));
    }

    #[test]
    fn unknown_app_is_an_error() {
        let err = app_by_name("not-an-app").unwrap_err();
        assert!(matches!(err, BenchError::UnknownApp(ref name) if name == "not-an-app"));
    }

    #[test]
    fn fig15_records_labelled_telemetry() {
        let ctx = DataContext::synthetic(MatrixSet::Quick, 512);
        let exec = Executor::new(2);
        let r = fig15(&ctx, &exec).unwrap();
        assert!(!r.body.is_empty());
        let t = exec.finish();
        assert!(t.points > 0);
        assert!(t.records.iter().all(|p| p.label.starts_with("fig15:")));
    }
}

#[cfg(test)]
mod verify_tests {
    #[test]
    fn lint_apps_is_all_green() {
        let (report, failing) = super::lint_apps();
        assert_eq!(failing, 0, "{}\n{}", report.title, report.body);
        assert!(!report.body.contains("FAIL"));
    }

    #[test]
    fn self_verification_is_all_green() {
        let report = super::verify().unwrap();
        assert!(
            report.title.contains("0 check(s) failed"),
            "{}\n{}",
            report.title,
            report.body
        );
        assert!(!report.body.contains("FAIL"));
    }
}
