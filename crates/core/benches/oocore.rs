//! `oocore`: the out-of-core matrix pipeline's scaling curves — wall
//! clock and peak RSS for the streaming MatrixMarket → slab converter
//! and the slab loader across three `wi` sizes up to ≥10M nnz.
//!
//! Peak RSS must be measured per phase, but `VmHWM` in
//! `/proc/self/status` is a lifetime high-water mark, so each phase runs
//! in a re-exec'd child process (`SPARSEPIPE_OOCORE_PHASE`): the parent
//! generates the `.mtx` input, the child does nothing but the measured
//! phase. The headline assertion is the paper-facing out-of-core claim:
//! converting a ≥10M-nnz matrix (two streaming visitor passes feeding
//! the chunked `ArenaBuilder`) peaks within 1.2× of the finished slab's
//! own size — the build never materializes a triplet list.
//!
//! Each size is converted twice: from the row-sorted file `mm::write`
//! emits and from the same entries in column-sorted order, the order
//! SuiteSparse exports use. The builder places entries in the input's
//! own order, so both take its sequential path; the two slabs must be
//! byte-identical.
//!
//! Results are upserted into `BENCH_core.json` under `oocore`.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use sparsepipe_tensor::{mm, CooMatrix, MatrixId};

const PHASE_VAR: &str = "SPARSEPIPE_OOCORE_PHASE";
const IN_VAR: &str = "SPARSEPIPE_OOCORE_IN";
const OUT_VAR: &str = "SPARSEPIPE_OOCORE_OUT";
const RSS_LIMIT: f64 = 1.2;
const BIG_NNZ: u64 = 10_000_000;

/// `VmHWM` (peak resident set) of this process, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("linux procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kb * 1024
}

/// Writes `m` as MatrixMarket text with its entries in column-major
/// order (`mm::write` emits them row-major).
fn write_column_sorted(m: &CooMatrix, path: &Path) -> std::io::Result<()> {
    let mut entries = m.entries().to_vec();
    entries.sort_unstable_by_key(|&(r, c, _)| (c, r));
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), entries.len())?;
    for (r, c, v) in entries {
        writeln!(w, "{} {} {v}", r + 1, c + 1)?;
    }
    w.flush()
}

/// One measured phase, run in a child process so its `VmHWM` covers only
/// this work. Prints a single machine-readable line and exits.
fn run_child(phase: &str) {
    let input = PathBuf::from(std::env::var(IN_VAR).expect("child input path"));
    let start = Instant::now();
    match phase {
        "convert" => {
            let out = PathBuf::from(std::env::var(OUT_VAR).expect("child output path"));
            sparsepipe_core::slab::convert_mm(&input, &out).expect("streaming conversion");
        }
        "load" => {
            let (arena, header) = sparsepipe_core::slab::read_file(&input).expect("slab load");
            assert_eq!(arena.nnz() as u64, header.nnz, "loader/header disagree");
        }
        other => panic!("unknown oocore phase {other}"),
    }
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "oocore-child wall_s={wall_s} vmhwm_bytes={}",
        peak_rss_bytes()
    );
}

/// Re-execs this bench binary to run `phase`, returning the child's
/// `(wall_s, vmhwm_bytes)`.
fn measure(phase: &str, input: &Path, output: Option<&Path>) -> (f64, u64) {
    let exe = std::env::current_exe().expect("bench executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.env(PHASE_VAR, phase).env(IN_VAR, input);
    if let Some(out) = output {
        cmd.env(OUT_VAR, out);
    }
    let out = cmd.output().expect("spawn oocore child");
    assert!(
        out.status.success(),
        "oocore {phase} child failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("oocore-child "))
        .expect("child result line");
    let field = |key: &str| -> f64 {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .expect("child result field")
    };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    (field("wall_s"), field("vmhwm_bytes") as u64)
}

fn main() {
    if let Ok(phase) = std::env::var(PHASE_VAR) {
        run_child(&phase);
        return;
    }

    let dir = std::env::temp_dir().join(format!("sparsepipe-oocore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let spec = MatrixId::Wi.spec();
    let mut points = Vec::new();
    let mut big_ratio: Option<f64> = None;
    // wi at 1/45, 1/12, 1/4 of Table-I size: ~1.0M, ~3.8M, ~11.3M nnz.
    for scale in [45u64, 12, 4] {
        let mtx = dir.join(format!("wi.s{scale}.mtx"));
        let slab = dir.join(format!("wi.s{scale}.slab"));
        let mtx_cols = dir.join(format!("wi.s{scale}.cols.mtx"));
        let slab_cols = dir.join(format!("wi.s{scale}.cols.slab"));
        {
            let matrix = spec.generate(scale);
            let file = std::fs::File::create(&mtx).expect("mtx create");
            mm::write(&matrix, BufWriter::new(file)).expect("mtx write");
            write_column_sorted(&matrix, &mtx_cols).expect("column-sorted mtx write");
        }
        let (convert_s, convert_rss) = measure("convert", &mtx, Some(&slab));
        let (cols_s, cols_rss) = measure("convert", &mtx_cols, Some(&slab_cols));
        assert!(
            std::fs::read(&slab).expect("slab") == std::fs::read(&slab_cols).expect("slab"),
            "row- and column-sorted inputs must convert to the same slab"
        );
        let (load_s, load_rss) = measure("load", &slab, None);
        let header = sparsepipe_core::slab::peek_file(&slab).expect("slab header");
        let slab_bytes = std::fs::metadata(&slab).expect("slab metadata").len();
        assert_eq!(slab_bytes, header.file_bytes(), "slab size disagrees");
        for f in [&mtx, &slab, &mtx_cols, &slab_cols] {
            std::fs::remove_file(f).ok();
        }

        #[allow(clippy::cast_precision_loss)]
        let ratio = |rss: u64| rss as f64 / slab_bytes as f64;
        let (convert_ratio, cols_ratio, load_ratio) =
            (ratio(convert_rss), ratio(cols_rss), ratio(load_rss));
        println!(
            "oocore wi/{scale}: {} nnz, slab {:.1} MB | convert {convert_s:.2}s \
             rss {:.1} MB ({convert_ratio:.3}x) | column-sorted convert \
             {cols_s:.2}s ({cols_ratio:.3}x) | load {load_s:.2}s rss {:.1} MB \
             ({load_ratio:.3}x)",
            header.nnz,
            slab_bytes as f64 / 1e6,
            convert_rss as f64 / 1e6,
            load_rss as f64 / 1e6,
        );
        if header.nnz >= BIG_NNZ {
            for r in [convert_ratio, cols_ratio] {
                assert!(
                    r <= RSS_LIMIT,
                    "out-of-core claim violated: converting {} nnz peaked at \
                     {r:.3}x the slab size (limit {RSS_LIMIT}x)",
                    header.nnz
                );
            }
            big_ratio = Some(convert_ratio.max(cols_ratio));
        }
        points.push(format!(
            r#"{{"scale": {scale}, "n": {}, "nnz": {}, "slab_bytes": {slab_bytes}, "convert_s": {convert_s:.4}, "convert_rss_bytes": {convert_rss}, "convert_rss_ratio": {convert_ratio:.4}, "convert_col_sorted_s": {cols_s:.4}, "convert_col_sorted_rss_ratio": {cols_ratio:.4}, "load_s": {load_s:.4}, "load_rss_bytes": {load_rss}, "load_rss_ratio": {load_ratio:.4}}}"#,
            header.n, header.nnz,
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    let big_ratio = big_ratio.expect("the 1/4 point carries >= 10M nnz");

    let value = format!(
        r#"{{"matrix": "wi", "rss_limit": {RSS_LIMIT}, "big_point_convert_rss_ratio": {big_ratio:.4}, "points": [{}]}}"#,
        points.join(", ")
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_core.json");
    sparsepipe_testutil::benchjson::record(&path, "oocore", &value)
        .expect("BENCH_core.json upsert");
    println!("oocore: recorded {} point(s) into {}", 3, path.display());
}
