//! Simulated hardware configuration (Table II and §V-A of the paper).

use serde::Serialize;
use sparsepipe_tensor::{reorder, CooMatrix};

/// Memory subsystem parameters (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MemoryConfig {
    /// Peak bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Read latency in nanoseconds.
    pub read_latency_ns: f64,
    /// Write latency in nanoseconds.
    pub write_latency_ns: f64,
    /// Human-readable technology name.
    pub tech: &'static str,
}

impl MemoryConfig {
    /// DDR4 as measured on the paper's AMD 5800X3D host (40 GB/s).
    pub fn ddr4() -> Self {
        MemoryConfig {
            bandwidth_gbps: 40.0,
            read_latency_ns: 13.75,
            write_latency_ns: 12.5,
            tech: "DDR4",
        }
    }

    /// GDDR6X as on the NVIDIA RTX 4070 (504 GB/s).
    pub fn gddr6x() -> Self {
        MemoryConfig {
            bandwidth_gbps: 504.0,
            read_latency_ns: 12.0,
            write_latency_ns: 5.0,
            tech: "GDDR6X",
        }
    }

    /// Bytes transferred per core clock at `clock_ghz`.
    pub fn bytes_per_cycle(&self, clock_ghz: f64) -> f64 {
        self.bandwidth_gbps / clock_ghz
    }
}

/// Row-reordering preprocessing variant (§IV-E1).
///
/// Reordering is offline preprocessing: callers [`apply`](ReorderKind::apply)
/// it to the matrix once, before simulating, and the engine simulates
/// the matrix it is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ReorderKind {
    /// No reordering.
    None,
    /// The GraphOrder-style greedy locality ordering.
    GraphOrder,
    /// The vanilla barycenter/upper-triangular heuristic.
    Vanilla,
}

impl ReorderKind {
    /// `matrix` with rows and columns permuted by this reordering:
    /// GraphOrder with a 64-vertex window, or vanilla with 3 sweeps.
    ///
    /// # Example
    ///
    /// ```
    /// use sparsepipe_core::ReorderKind;
    /// use sparsepipe_tensor::gen;
    /// let m = gen::power_law(200, 1_000, 1.0, 0.4, 3);
    /// let r = ReorderKind::GraphOrder.apply(&m);
    /// assert_eq!(r.nnz(), m.nnz());
    /// assert_eq!(ReorderKind::None.apply(&m), m);
    /// ```
    pub fn apply(self, matrix: &CooMatrix) -> CooMatrix {
        let perm = match self {
            ReorderKind::None => return matrix.clone(),
            ReorderKind::GraphOrder => reorder::graph_order(&matrix.to_csr(), 64),
            ReorderKind::Vanilla => reorder::vanilla_triangular(&matrix.to_csr(), 3),
        };
        matrix.permute_symmetric(&perm)
    }
}

/// Offline preprocessing configuration (§IV-E), the subject of Fig 19/20a.
///
/// Row reordering, the other §IV-E optimization, is applied to the
/// matrix before it reaches the engine ([`ReorderKind::apply`]); Fig 19
/// crosses the dataset's vertex order with `blocked`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Preprocessing {
    /// Use the blocked dual sparse format (UOP-CP-CP) instead of plain
    /// dual CSC+CSR.
    pub blocked: bool,
}

impl Preprocessing {
    /// The blocked format on — the paper's default configuration.
    pub fn full() -> Self {
        Preprocessing { blocked: true }
    }

    /// The plain dual format (the "Sparsepipe skeleton" of Fig 19, when
    /// run on the dataset's original vertex order).
    pub fn none() -> Self {
        Preprocessing { blocked: false }
    }
}

/// Buffer eviction policy under Out-Of-Memory pressure (§IV-D3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EvictionPolicy {
    /// The paper's policy: evict rows with the highest `row_idx` first
    /// (they are needed latest under the OEI reuse pattern of Fig 8).
    HighestRowFirst,
    /// Least-recently-loaded rows first (ablation comparison point).
    OldestFirst,
}

/// Full Sparsepipe hardware configuration.
///
/// It fixes the hardware and the sparse format, not the matrix: the
/// engine simulates the matrix in the vertex order its caller passes, so
/// row reordering happens beforehand ([`ReorderKind::apply`]).
///
/// # Example
///
/// ```
/// use sparsepipe_core::SparsepipeConfig;
/// let cfg = SparsepipeConfig::iso_gpu();
/// assert_eq!(cfg.pes_per_core, 1024);
/// assert_eq!(cfg.buffer_bytes, 64 << 20);
/// let small = cfg.with_buffer(1 << 20);
/// assert_eq!(small.buffer_bytes, 1 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SparsepipeConfig {
    /// Processing elements per compute core (OS, E-Wise, and IS cores each
    /// have this many; §V-A simulates 1024).
    pub pes_per_core: usize,
    /// On-chip buffer capacity in bytes (64 MB in the paper).
    pub buffer_bytes: usize,
    /// Memory subsystem.
    pub memory: MemoryConfig,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Sub-tensor size in columns per pipeline step; `0` selects
    /// automatically ("explore the optimal sub-tensor size in the initial
    /// steps", §IV-F).
    pub subtensor_cols: usize,
    /// Enable eager CSR loading with leftover bandwidth (Fig 9's
    /// enhancement).
    pub eager_csr: bool,
    /// Eviction policy under buffer pressure.
    pub eviction: EvictionPolicy,
    /// Offline data preprocessing: the sparse format.
    pub preprocessing: Preprocessing,
    /// Fraction of a row's elements that must be consumed before the
    /// repacking pass reclaims its space (§IV-D3).
    pub repack_threshold: f64,
    /// Run the [`crate::invariants`] shadow checker every pipeline step,
    /// even in release builds: per-event buffer preconditions plus a
    /// whole-buffer residency/accounting audit at each step end. Costs
    /// O(nnz) per step; only tests turn it on (no CLI or sweep path
    /// does).
    pub validate: bool,
}

impl SparsepipeConfig {
    /// The iso-GPU configuration: 1024 PEs/core, 64 MB buffer, GDDR6X.
    pub fn iso_gpu() -> Self {
        SparsepipeConfig {
            pes_per_core: 1024,
            buffer_bytes: 64 << 20,
            memory: MemoryConfig::gddr6x(),
            clock_ghz: 1.0,
            subtensor_cols: 0,
            eager_csr: true,
            eviction: EvictionPolicy::HighestRowFirst,
            preprocessing: Preprocessing::full(),
            repack_threshold: 0.5,
            validate: false,
        }
    }

    /// The iso-CPU configuration: same compute, DDR4 bandwidth (§VI-B).
    pub fn iso_cpu() -> Self {
        SparsepipeConfig {
            memory: MemoryConfig::ddr4(),
            ..Self::iso_gpu()
        }
    }

    /// Returns a copy with a different buffer size (used for scaled
    /// datasets; see `sparsepipe_tensor::datasets`).
    pub fn with_buffer(mut self, bytes: usize) -> Self {
        self.buffer_bytes = bytes;
        self
    }

    /// Returns a copy with a different preprocessing configuration.
    pub fn with_preprocessing(mut self, p: Preprocessing) -> Self {
        self.preprocessing = p;
        self
    }

    /// Returns a copy with eager CSR loading toggled.
    pub fn with_eager_csr(mut self, on: bool) -> Self {
        self.eager_csr = on;
        self
    }

    /// Returns a copy with the per-step shadow checker toggled (see
    /// [`SparsepipeConfig::validate`]).
    pub fn with_validation(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// The sub-tensor width to use for a matrix: the explicit setting, or
    /// an automatic choice ("explore the optimal sub-tensor size in the
    /// initial steps of the OEI dataflow", §IV-F). The auto heuristic
    /// sizes steps so each carries several cycles of memory traffic —
    /// per-step dispatch overhead (the 1-cycle step floor) must stay
    /// negligible against the roofline — while keeping enough steps to
    /// pipeline and sample well.
    pub fn subtensor_auto(&self, ncols: u32, nnz: usize) -> usize {
        if self.subtensor_cols > 0 {
            return self.subtensor_cols;
        }
        let bpc = self.memory.bytes_per_cycle(self.clock_ghz);
        let pass_bytes = nnz as f64 * self.fetch_bytes_per_element() + 4.0 * ncols as f64 * 8.0;
        let mem_cycles = pass_bytes / bpc;
        // Target ≥ 32 cycles of traffic per step so the per-step control/
        // latency floor (≈ one memory round trip) stays well amortized on
        // evenly distributed matrices, while steps starved by a skewed
        // non-zero distribution still hit the floor and expose the
        // under-utilization of Fig 15(d). 8..=4096 steps overall.
        let steps = (mem_cycles / 32.0).clamp(8.0, 4096.0);
        (ncols as f64 / steps).ceil().max(1.0) as usize
    }

    /// Bytes one resident matrix element occupies in the on-chip buffer:
    /// value + coordinate, cheaper under the blocked format (1-byte
    /// in-block coordinates, amortized block headers).
    pub fn buffer_bytes_per_element(&self) -> f64 {
        if self.preprocessing.blocked {
            10.5
        } else {
            12.0
        }
    }

    /// Bytes fetched from DRAM per matrix element: a single copy of
    /// (coordinate, value) in the demanded order. The blocked format
    /// fetches 1-byte in-block coordinates plus amortized block headers.
    pub fn fetch_bytes_per_element(&self) -> f64 {
        if self.preprocessing.blocked {
            10.5
        } else {
            12.0
        }
    }
}

impl Default for SparsepipeConfig {
    fn default() -> Self {
        Self::iso_gpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table2() {
        let gpu = SparsepipeConfig::iso_gpu();
        assert_eq!(gpu.memory.bandwidth_gbps, 504.0);
        assert_eq!(gpu.memory.tech, "GDDR6X");
        let cpu = SparsepipeConfig::iso_cpu();
        assert_eq!(cpu.memory.bandwidth_gbps, 40.0);
        assert_eq!(cpu.memory.read_latency_ns, 13.75);
        assert_eq!(cpu.pes_per_core, gpu.pes_per_core);
    }

    #[test]
    fn auto_subtensor_keeps_steps_meaningful() {
        let cfg = SparsepipeConfig::iso_gpu();
        // small matrix: few steps, each still ≥ 8 cycles of traffic
        let t_small = cfg.subtensor_auto(1_000, 5_000);
        assert!((1_000usize).div_ceil(t_small) <= 128);
        // large matrix: step count capped at 4096
        let t_big = cfg.subtensor_auto(4_096_000, 50_000_000);
        assert!((4_096_000usize).div_ceil(t_big) <= 4096);
        let fixed = SparsepipeConfig {
            subtensor_cols: 64,
            ..cfg
        };
        assert_eq!(fixed.subtensor_auto(4_096_000, 1), 64);
    }

    #[test]
    fn blocked_format_is_denser() {
        let full = SparsepipeConfig::iso_gpu();
        let plain = full.with_preprocessing(Preprocessing::none());
        assert!(full.buffer_bytes_per_element() < plain.buffer_bytes_per_element());
        assert!(full.fetch_bytes_per_element() < plain.fetch_bytes_per_element());
    }

    #[test]
    fn bytes_per_cycle() {
        let m = MemoryConfig::gddr6x();
        assert_eq!(m.bytes_per_cycle(1.0), 504.0);
        assert_eq!(m.bytes_per_cycle(2.0), 252.0);
    }
}
