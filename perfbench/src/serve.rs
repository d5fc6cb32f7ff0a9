//! `serve-mix`: an in-process `Server` with two workers and two
//! closed-loop `ServeClient` connections replaying all fifteen apps ×
//! `ca`, `gy`, `g2` at scale 64.
//!
//! The daemon reads the seeded matrices as slabs written during set-up,
//! so it only ever sees the generated matrices and the requests. Set-up
//! also computes every spec's answer in-process with
//! `EvalSpec::run_local`; each served answer must equal it byte for
//! byte. The first full replay warms the daemon and is part of set-up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sparsepipe_apps::registry;
use sparsepipe_bench::datasets::{ScaledDataset, SlabSource, SourceConfig};
use sparsepipe_bench::serve::{EvalSpec, Request, Response, ServeClient, ServeConfig, Server};
use sparsepipe_core::{MatrixArena, MatrixCache};
use sparsepipe_tensor::MatrixId;

use crate::report::{self, median, quantile, CacheCounts};
use crate::source::{self, DEFAULT_SEED};
use crate::{spans, Ctx, Outcome, JOBS};

const SCALE: u64 = 64;
const MATRICES: [MatrixId; 3] = [MatrixId::Ca, MatrixId::Gy, MatrixId::G2];
/// Timed requests per run, at least: enough for ten samples beyond p99.
const MIN_REQUESTS: usize = 1000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// What a client saw for one request.
struct Sample {
    /// Index of the spec sent.
    spec: usize,
    latency_ms: f64,
    /// Encode + decode time of the request and its reply, and the reply
    /// size in bytes (traced runs only).
    wire: Option<(f64, usize)>,
    /// Whether the served entry equals the in-process one, or why the
    /// request failed.
    answer: Result<bool, String>,
}

/// The in-process answers the daemon must reproduce.
struct Reference {
    /// Each spec's rendered entry.
    rendered: Vec<String>,
    /// Each spec's modelled speedup over the ideal accelerator.
    speedups: Vec<f64>,
    /// The seeded datasets, in [`MATRICES`] order.
    datasets: Vec<ScaledDataset>,
}

impl Reference {
    fn dataset(&self, spec: &EvalSpec) -> &ScaledDataset {
        self.datasets
            .iter()
            .find(|d| d.id.code() == spec.matrix)
            .expect("specs name MATRICES")
    }
}

/// A warm daemon with its connected clients.
struct Daemon {
    server: Server,
    clients: Vec<ServeClient>,
}

impl Daemon {
    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// The specs, matrix-major in registry order.
fn specs() -> Vec<EvalSpec> {
    MATRICES
        .iter()
        .flat_map(|id| {
            registry::all()
                .into_iter()
                .map(move |app| EvalSpec::new(app.name, id.code(), SCALE))
        })
        .collect()
}

/// The first spec of each client: a seed-chosen rotation for the first,
/// the others spread evenly after it, so every seed pairs the same specs
/// concurrently.
fn rotations(seed: u64, specs: usize) -> Vec<usize> {
    // splitmix64 finalizer
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let first = ((z ^ (z >> 31)) % specs as u64) as usize;
    (0..JOBS)
        .map(|c| (first + c * specs / JOBS) % specs)
        .collect()
}

/// Runs rounds until `done(rounds, elapsed)`: in a round every client
/// replays every spec once from its rotation, closed loop, all clients
/// concurrently on threads that live for the whole call. Returns every
/// sample and each round's wall clock.
fn replay(
    clients: &mut [ServeClient],
    specs: &[EvalSpec],
    expected: &[String],
    rotations: &[usize],
    traced: bool,
    done: impl Fn(usize, Duration) -> bool + Sync,
) -> (Vec<Sample>, Vec<f64>) {
    let n = clients.len();
    let barrier = Barrier::new(n);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(rotations)
            .enumerate()
            .map(|(c, (client, &first))| {
                let (barrier, stop, done) = (&barrier, &stop, &done);
                scope.spawn(move || {
                    let (mut samples, mut walls) = (Vec::new(), Vec::new());
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let t = Instant::now();
                        for k in 0..specs.len() {
                            let i = (first + k) % specs.len();
                            let id = ((walls.len() * n + c) * specs.len() + k) as u64;
                            samples.push(request(client, specs, expected, i, id, traced));
                        }
                        barrier.wait();
                        walls.push(t.elapsed().as_secs_f64());
                        if c == 0 && done(walls.len(), started.elapsed()) {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                    (samples, walls)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let walls = per_client[0].1.clone();
    (per_client.into_iter().flat_map(|(s, _)| s).collect(), walls)
}

/// Sends spec `i` as request `id` and checks the answer against
/// `expected[i]`.
fn request(
    client: &mut ServeClient,
    specs: &[EvalSpec],
    expected: &[String],
    i: usize,
    id: u64,
    traced: bool,
) -> Sample {
    let spec = &specs[i];
    let t = Instant::now();
    let reply = spans::timed("bench.serve.request", id, || client.eval(spec));
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    let wire = match (&reply, traced) {
        (Ok(r), true) => {
            // The reply frame as the daemon renders it (up to the id).
            let text = Response::Entry {
                id,
                attempts: r.attempts,
                entry: r.entry.clone(),
            }
            .encode();
            let t = Instant::now();
            let request = Request::Eval {
                id,
                spec: spec.clone(),
            }
            .encode();
            let decoded = Response::decode(&text);
            let us = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box((request, decoded.is_ok()));
            Some((us, text.len()))
        }
        _ => None,
    };
    Sample {
        spec: i,
        latency_ms,
        wire,
        answer: reply
            .map(|r| r.entry_json() == expected[i])
            .map_err(|e| e.to_string()),
    }
}

/// Writes the seeded matrices as slabs, computes every spec's in-process
/// answer, starts the daemon, connects the clients and runs the warming
/// replay.
fn set_up(
    ctx: &Ctx,
    specs: &[EvalSpec],
    rotations: &[usize],
) -> Result<(Daemon, Reference), String> {
    let dir = ctx.work.join("slabs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut reference = Reference {
        rendered: Vec::new(),
        speedups: Vec::new(),
        datasets: Vec::new(),
    };
    for id in MATRICES {
        let matrix = source::generate(ctx.seed, id, SCALE);
        let path = SlabSource::slab_path(&dir, id, SCALE);
        sparsepipe_core::slab::write_file(&MatrixArena::from_coo(&matrix), &path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        reference.datasets.push(source::prepare(id, SCALE, matrix));
    }
    let cache = MatrixCache::new();
    for spec in specs {
        let entry = spec
            .run_local(reference.dataset(spec), &cache)
            .map_err(|e| format!("{}@{} in-process: {e}", spec.app, spec.matrix))?
            .evaluation
            .entry;
        reference.speedups.push(entry.speedup_vs_ideal());
        reference.rendered.push(report::entry_json(&entry));
    }
    let server = Server::start(ServeConfig {
        workers: JOBS,
        source: SourceConfig::Slab(dir),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start server: {e}"))?;
    let clients = (0..JOBS)
        .map(|_| ServeClient::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut daemon = Daemon { server, clients };
    let (warm, _) = replay(
        &mut daemon.clients,
        specs,
        &reference.rendered,
        rotations,
        false,
        |rounds, _| rounds == 1,
    );
    if let Some(bad) = warm.iter().find(|s| s.answer != Ok(true)) {
        let spec = &specs[bad.spec];
        daemon.stop();
        return Err(format!(
            "warming request {}@{} answered wrongly",
            spec.app, spec.matrix
        ));
    }
    Ok((daemon, reference))
}

/// Runs the `serve-mix` workload.
///
/// # Errors
///
/// A description of a failure that leaves nothing to measure.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let specs = specs();
    let rotations = rotations(ctx.seed, specs.len());
    println!("  client rotations: {rotations:?} of {} specs", specs.len());
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut ready = None;
    spans::set_enabled(ctx.trace);
    for _ in 0..if ctx.trace { 1 } else { SETUP_REPS } {
        if let Some((daemon, _)) = ready.take() {
            Daemon::stop(daemon);
        }
        let t = Instant::now();
        ready = Some(set_up(ctx, &specs, &rotations)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    spans::set_enabled(false);
    let (mut daemon, reference) = ready.expect("at least one set-up");

    // Warm in-process time per spec, for the serve overhead.
    let local_ms: Vec<f64> = if ctx.trace {
        let cache = MatrixCache::new();
        let mut times = vec![Vec::new(); specs.len()];
        for pass in 0..4 {
            for (i, spec) in specs.iter().enumerate() {
                let t = Instant::now();
                let _ = spec.run_local(reference.dataset(spec), &cache);
                if pass > 0 {
                    times[i].push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        times.iter().map(|t| median(t)).collect()
    } else {
        Vec::new()
    };

    let per_round = specs.len() * JOBS;
    let mut replay_until = |traced: bool, timed: bool| {
        let (samples, walls) = replay(
            &mut daemon.clients,
            &specs,
            &reference.rendered,
            &rotations,
            traced,
            |rounds, elapsed| {
                rounds * per_round >= MIN_REQUESTS && (!timed || elapsed >= ctx.seconds)
            },
        );
        for s in &samples {
            let spec = &specs[s.spec];
            match &s.answer {
                Ok(true) => {}
                Ok(false) => outcome.problems.push(format!(
                    "{}@{}: served entry differs from run_local",
                    spec.app, spec.matrix
                )),
                Err(e) => {
                    outcome.failed += 1;
                    outcome
                        .problems
                        .push(format!("{}@{}: {e}", spec.app, spec.matrix));
                }
            }
        }
        outcome.attempted += samples.len() as u64;
        (samples, walls)
    };
    // A traced run first replays untraced, to state the tracing overhead.
    let untraced_walls = if ctx.trace {
        replay_until(false, false).1
    } else {
        Vec::new()
    };
    let cache = Arc::clone(daemon.server.cache());
    let cache_before = CacheCounts::of(&cache);
    let before = daemon.server.stats();
    spans::set_enabled(ctx.trace);
    let started = Instant::now();
    let (samples, walls) = replay_until(ctx.trace, true);
    let timed_s = started.elapsed().as_secs_f64();
    spans::set_enabled(false);
    let after = daemon.server.stats();
    let cache_counts = CacheCounts::of(&cache).since(cache_before);
    daemon.stop();
    let rendered: Vec<&str> = reference.rendered.iter().map(String::as_str).collect();
    crate::check_digest(ctx, "serve-mix", &rendered, &mut outcome);
    if ctx.seed == DEFAULT_SEED {
        if let Err(e) = source::check_registry(&reference.datasets) {
            outcome.problems.push(e);
        }
    }

    let m = &mut outcome.metrics;
    if ctx.trace {
        let all = spans::snapshot();
        crate::layer_metrics(m, &all, 0);
        let overhead: Vec<f64> = samples
            .iter()
            .map(|s| s.latency_ms - local_ms[s.spec])
            .collect();
        let wire_us: Vec<f64> = samples.iter().filter_map(|s| s.wire.map(|w| w.0)).collect();
        let kb: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.wire.map(|w| w.1 as f64 / 1024.0))
            .collect();
        m.set("bench.serve.overhead_ms_p50", median(&overhead), "ms");
        m.set(
            "bench.serve.overhead_ms_p99",
            quantile(&overhead, 0.99),
            "ms",
        );
        m.set("bench.serve.wire_us_p50", quantile(&wire_us, 0.5), "us");
        m.set("bench.serve.response_kb_p50", quantile(&kb, 0.5), "KB");
        m.set(
            "bench.serve.rejected",
            (after.rejected - before.rejected) as f64,
            "count",
        );
        m.set(
            "bench.serve.failed",
            (after.failed - before.failed) as f64,
            "count",
        );
        m.set(
            "bench.trace.overhead_s",
            median(&walls) - median(&untraced_walls),
            "s",
        );
        cache_counts.report(m);
    } else {
        let run_s = report::round_s(&walls);
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let nnz_per_replay: f64 = specs
            .iter()
            .map(|spec| reference.dataset(spec).matrix.nnz() as f64)
            .sum();
        m.set("setup_s", median(&setup_s), "s");
        m.set("run_s", run_s, "s");
        m.set("points_per_s", per_round as f64 / run_s, "1/s");
        m.set("requests_per_s", per_round as f64 / run_s, "1/s");
        m.set("latency_p50_ms", median(&latencies), "ms");
        m.set("latency_p99_ms", quantile(&latencies, 0.99), "ms");
        m.set(
            "mnnz_per_s",
            JOBS as f64 * nnz_per_replay / run_s / 1e6,
            "Mnnz/s",
        );
        m.set(
            "sim_speedup_geomean",
            report::geomean(reference.speedups.iter().copied()),
            "x",
        );
        println!(
            "  {} timed requests in {} rounds over {timed_s:.3} s",
            samples.len(),
            walls.len()
        );
    }
    Ok(outcome)
}
