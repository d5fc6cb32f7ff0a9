//! Design-space exploration: how buffer capacity, sub-tensor width, eager
//! CSR loading, and the eviction policy shape Sparsepipe's performance on
//! a hostile (scattered, anti-diagonal-heavy) matrix — the `bu`-style
//! worst case where 90% of the non-zeros are live at the peak OEI step.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use sparsepipe::core::EvictionPolicy;
use sparsepipe::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // bu-like structure: mostly anti-diagonal mass (worst-case reuse
    // distance) with some scatter.
    let matrix = sparsepipe::tensor::gen::locality_mix(
        60_000,
        1_200_000,
        sparsepipe::tensor::gen::LocalityMix {
            long_frac: 0.15,
            anti_frac: 0.80,
            local_span_frac: 0.02,
            skew: 0.0,
        },
        11,
    );
    let live = sparsepipe::tensor::livesweep::sweep(&matrix);
    println!(
        "matrix: n={}, nnz={}, peak live set {:.0}% of nnz ({:.1} MB)\n",
        matrix.nrows(),
        matrix.nnz(),
        live.max_percent(),
        live.max_live as f64 * 10.5 / 1e6
    );
    let app = sparsepipe::apps::sssp::app(16);
    let program = app.compile()?;
    let base = SparsepipeConfig::iso_gpu();

    println!("--- buffer capacity sweep (eviction ping-pong sets in when the live set spills) ---");
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>12}",
        "buffer", "runtime", "evictions", "refetch MB", "bw util"
    );
    for mb in [1, 2, 4, 8, 16, 32] {
        let cfg = base.with_buffer(mb << 20);
        let r = SimRequest::new(&program, &matrix)
            .iterations(16)
            .config(cfg)
            .run()?
            .report;
        println!(
            "{:>7} MB {:>9.3} ms {:>12} {:>14.2} {:>11.1}%",
            mb,
            r.runtime_s * 1e3,
            r.evicted_elements,
            r.traffic.refetch_bytes / 1e6,
            r.avg_bw_utilization * 100.0
        );
    }

    println!("\n--- sub-tensor width sweep (T) ---");
    println!("{:>8} {:>12} {:>10}", "T cols", "runtime", "steps");
    for t in [4usize, 16, 64, 256, 1024] {
        let cfg = SparsepipeConfig {
            subtensor_cols: t,
            ..base.with_buffer(8 << 20)
        };
        let r = SimRequest::new(&program, &matrix)
            .iterations(16)
            .config(cfg)
            .run()?
            .report;
        println!(
            "{:>8} {:>9.3} ms {:>10}",
            t,
            r.runtime_s * 1e3,
            matrix.ncols().div_ceil(t as u32)
        );
    }

    // The policy comparison needs real buffer pressure (2 MB « the live
    // set) and a skewed matrix so some steps have bandwidth slack for the
    // eager CSR loader to reclaim.
    println!("\n--- eager CSR loading and eviction policy (2 MB buffer, skewed matrix) ---");
    let skewed = sparsepipe::tensor::gen::power_law(60_000, 1_200_000, 1.6, 0.5, 13);
    for (name, eager, policy) in [
        (
            "eager + highest-row-first",
            true,
            EvictionPolicy::HighestRowFirst,
        ),
        (
            "no eager CSR loading",
            false,
            EvictionPolicy::HighestRowFirst,
        ),
        ("eager + oldest-first", true, EvictionPolicy::OldestFirst),
    ] {
        let cfg = SparsepipeConfig {
            eviction: policy,
            ..base.with_buffer(2 << 20).with_eager_csr(eager)
        };
        let r = SimRequest::new(&program, &skewed)
            .iterations(16)
            .config(cfg)
            .run()?
            .report;
        println!(
            "{:<28} {:>9.3} ms  (refetch {:>7.2} MB, eager {:>7.2} MB)",
            name,
            r.runtime_s * 1e3,
            r.traffic.refetch_bytes / 1e6,
            r.traffic.csr_eager_bytes / 1e6
        );
    }
    Ok(())
}
