//! A GDDR6X-class memory-controller model (§V-A: "The memory subsystem of
//! our simulator models a GDDR6X memory controller").
//!
//! The model captures the first-order structure of a GDDR6X subsystem:
//! multiple independent channels, banks per channel, an open row (page)
//! per bank, and the timing asymmetry between **row hits** (streaming
//! within an open 2 KB page at full burst rate) and **row misses**
//! (precharge + activate before the burst).
//!
//! [`MemController::service`] times an access batch, and
//! [`effective_utilization`] turns that into the sustainable fraction of
//! peak bandwidth for a given access pattern — this is where the
//! gather-utilization constants assumed by the CPU/GPU baseline models
//! (≈0.5 for scattered sparse access, ≈0.8 for streams) come from; the
//! `memory_model` example derives them. The pipeline itself charges
//! DRAM traffic analytically (`bytes / peak bandwidth`).

use serde::Serialize;

/// One memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Write (vs read).
    pub write: bool,
}

impl Access {
    /// A read of `bytes` at `addr`.
    pub fn read(addr: u64, bytes: u32) -> Self {
        Access {
            addr,
            bytes,
            write: false,
        }
    }

    /// A write of `bytes` at `addr`.
    pub fn write(addr: u64, bytes: u32) -> Self {
        Access {
            addr,
            bytes,
            write: true,
        }
    }
}

/// Controller geometry and timing (in controller cycles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MemControllerConfig {
    /// Independent channels (GDDR6X point-to-point: one per device pair).
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Minimum burst granularity in bytes (a shorter request still
    /// occupies one burst).
    pub burst_bytes: u32,
    /// Bus bytes transferred per cycle per channel at peak.
    pub bus_bytes_per_cycle: f64,
    /// Precharge + activate penalty on a row miss, in cycles.
    pub row_miss_cycles: f64,
}

impl Default for MemControllerConfig {
    /// GDDR6X-class defaults: 8 channels × 16 banks, 2 KB pages, 32 B
    /// bursts, 63 B/cycle aggregate at a 1 GHz controller clock
    /// (504 GB/s / 8 channels), ~24 cycles tRP+tRCD.
    fn default() -> Self {
        MemControllerConfig {
            channels: 8,
            banks_per_channel: 16,
            row_bytes: 2048,
            burst_bytes: 32,
            bus_bytes_per_cycle: 63.0 / 8.0,
            row_miss_cycles: 24.0,
        }
    }
}

impl MemControllerConfig {
    /// Aggregate peak bandwidth in bytes per cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.bus_bytes_per_cycle * self.channels as f64
    }
}

/// Result of servicing one access batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ServiceStats {
    /// Cycles until the batch completes (max over channels).
    pub cycles: f64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (precharge + activate paid).
    pub row_misses: u64,
    /// Bytes transferred (after burst rounding).
    pub bytes: u64,
}

impl ServiceStats {
    /// Achieved fraction of the configured peak bandwidth.
    ///
    /// Degenerate inputs (no cycles elapsed, or a configuration with
    /// zero peak bandwidth) report 0.0 instead of dividing by zero.
    pub fn utilization(&self, config: &MemControllerConfig) -> f64 {
        let denom = self.cycles * config.peak_bytes_per_cycle();
        if denom <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / denom
    }
}

/// The controller: per-bank open-row state plus per-channel busy time.
#[derive(Debug)]
pub struct MemController {
    config: MemControllerConfig,
    /// Open row per (channel, bank); `u64::MAX` = closed.
    open_rows: Vec<u64>,
}

impl MemController {
    /// Creates a controller with all rows closed.
    pub fn new(config: MemControllerConfig) -> Self {
        let n = config.channels * config.banks_per_channel;
        MemController {
            config,
            open_rows: vec![u64::MAX; n],
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemControllerConfig {
        &self.config
    }

    /// Services a batch of accesses (issued back to back, FR-FCFS-free:
    /// in order per channel) and returns the timing/locality statistics.
    /// Bank state persists across batches.
    pub fn service(&mut self, accesses: &[Access]) -> ServiceStats {
        let c = self.config;
        let mut channel_busy = vec![0.0f64; c.channels];
        let mut stats = ServiceStats::default();
        for a in accesses {
            let row = a.addr / c.row_bytes;
            // channel interleaving at row granularity keeps streams on one
            // open page while spreading independent streams
            let channel = (row as usize) % c.channels;
            let bank =
                ((a.addr / (c.row_bytes * c.channels as u64)) as usize) % c.banks_per_channel;
            let slot = channel * c.banks_per_channel + bank;
            let bursts = a.bytes.div_ceil(c.burst_bytes).max(1);
            let transfer = (bursts * c.burst_bytes) as f64 / c.bus_bytes_per_cycle;
            if self.open_rows[slot] == row {
                stats.row_hits += 1;
            } else {
                stats.row_misses += 1;
                channel_busy[channel] += c.row_miss_cycles;
                self.open_rows[slot] = row;
            }
            channel_busy[channel] += transfer;
            stats.bytes += (bursts * c.burst_bytes) as u64;
        }
        stats.cycles = channel_busy.iter().copied().fold(0.0, f64::max);
        stats
    }
}

/// Measures the sustainable utilization of an access *pattern*: services
/// the batch on a fresh controller and returns the achieved fraction of
/// peak bandwidth.
pub fn effective_utilization(config: MemControllerConfig, accesses: &[Access]) -> f64 {
    let mut ctrl = MemController::new(config);
    let stats = ctrl.service(accesses);
    stats.utilization(&config)
}

/// Synthesizes a sequential stream of `total_bytes` starting at `base`
/// in `chunk`-byte requests.
pub fn stream_accesses(base: u64, total_bytes: u64, chunk: u32) -> Vec<Access> {
    let mut out = Vec::new();
    let mut addr = base;
    let end = base + total_bytes;
    while addr < end {
        let n = (end - addr).min(chunk as u64) as u32;
        out.push(Access::read(addr, n));
        addr += n as u64;
    }
    out
}

/// Synthesizes a scattered (gather-like) pattern: `count` requests of
/// `bytes` each, spread pseudo-randomly over a `span`-byte region
/// (deterministic; no RNG dependency).
pub fn scattered_accesses(base: u64, span: u64, count: usize, bytes: u32) -> Vec<Access> {
    (0..count)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            Access::read(base + (h % span.max(1)), bytes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_hits_rows_and_nears_peak() {
        let cfg = MemControllerConfig::default();
        let accesses = stream_accesses(0, 1 << 20, 256);
        let util = effective_utilization(cfg, &accesses);
        assert!(util > 0.7, "streaming utilization {util} too low");
        let mut ctrl = MemController::new(cfg);
        let stats = ctrl.service(&accesses);
        assert!(
            stats.row_hits > stats.row_misses * 5,
            "streams must be row-hit dominated: {} hits vs {} misses",
            stats.row_hits,
            stats.row_misses
        );
    }

    #[test]
    fn scattered_access_pays_row_misses() {
        let cfg = MemControllerConfig::default();
        // 8-byte gathers over a 256 MB span: every access a fresh row
        let accesses = scattered_accesses(0, 256 << 20, 10_000, 8);
        let util = effective_utilization(cfg, &accesses);
        assert!(
            util < 0.25,
            "random 8B gathers should crater utilization, got {util}"
        );
    }

    #[test]
    fn gather_utilization_constant_is_derivable() {
        // The CPU/GPU models assume ≈0.45–0.55 achieved bandwidth on
        // sparse-matrix access. A CSR stream with per-row vector gathers
        // (12B matrix elements streamed + 8B x-gathers) lands there.
        let cfg = MemControllerConfig::default();
        let mut accesses = stream_accesses(0, 4 << 20, 96); // matrix stream
        accesses.extend(scattered_accesses(1 << 30, 64 << 20, 40_000, 8)); // x gathers
        let util = effective_utilization(cfg, &accesses);
        assert!(
            (0.3..0.75).contains(&util),
            "mixed sparse pattern utilization {util} outside the plausible band"
        );
    }

    #[test]
    fn burst_rounding_charges_small_requests_fully() {
        let cfg = MemControllerConfig::default();
        let mut ctrl = MemController::new(cfg);
        let stats = ctrl.service(&[Access::read(0, 1)]);
        assert_eq!(stats.bytes, cfg.burst_bytes as u64);
    }

    #[test]
    fn utilization_guards_zero_denominators() {
        // No cycles elapsed (empty batch) → 0, not NaN.
        let cfg = MemControllerConfig::default();
        let empty = ServiceStats::default();
        assert_eq!(empty.utilization(&cfg), 0.0);
        // Degenerate config with zero peak bandwidth → 0, not inf.
        let dead = MemControllerConfig {
            bus_bytes_per_cycle: 0.0,
            ..cfg
        };
        let stats = ServiceStats {
            cycles: 10.0,
            bytes: 640,
            ..ServiceStats::default()
        };
        assert_eq!(stats.utilization(&dead), 0.0);
        assert!(stats.utilization(&cfg) > 0.0);
    }

    #[test]
    fn bank_state_persists_across_batches() {
        let cfg = MemControllerConfig::default();
        let mut ctrl = MemController::new(cfg);
        let first = ctrl.service(&[Access::read(0, 32)]);
        assert_eq!(first.row_misses, 1);
        let second = ctrl.service(&[Access::read(64, 32)]);
        assert_eq!(second.row_misses, 0, "same row stays open across batches");
        assert_eq!(second.row_hits, 1);
    }

    #[test]
    fn channel_parallelism_speeds_up_independent_streams() {
        let cfg = MemControllerConfig::default();
        // one stream → one channel busy; N interleaved streams → N channels
        let single = effective_utilization(cfg, &stream_accesses(0, 1 << 18, 2048));
        let mut interleaved = Vec::new();
        for ch in 0..cfg.channels as u64 {
            interleaved.extend(stream_accesses(ch * cfg.row_bytes, 1 << 15, 2048));
        }
        // interleave request order round-robin
        interleaved.sort_by_key(|a| a.addr % (cfg.row_bytes * cfg.channels as u64));
        let multi = effective_utilization(cfg, &interleaved);
        assert!(
            multi > single,
            "spreading across channels must raise utilization: {multi} vs {single}"
        );
    }

    #[test]
    fn writes_time_like_reads() {
        let cfg = MemControllerConfig::default();
        let reads = effective_utilization(cfg, &stream_accesses(0, 1 << 18, 256));
        let writes: Vec<Access> = stream_accesses(0, 1 << 18, 256)
            .into_iter()
            .map(|a| Access::write(a.addr, a.bytes))
            .collect();
        let w = effective_utilization(cfg, &writes);
        assert!((reads - w).abs() < 1e-9);
    }
}
