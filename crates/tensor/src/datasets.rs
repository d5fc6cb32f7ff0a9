//! The nine evaluation datasets (Table I of the paper), as synthetic
//! stand-ins.
//!
//! The paper evaluates on nine SuiteSparse matrices identified by two-letter
//! codes. We reproduce each as a seeded synthetic matrix with the paper's
//! exact row count and non-zero count, and a [`LocalityMix`] chosen so the
//! OEI live-set fraction (Table I's `max (%)`) lands in the paper's
//! reported range — see `DESIGN.md` §3 for the full substitution record.
//!
//! Full-size `eu` has 54 M non-zeros; experiments therefore run at a
//! configurable *scale divisor* that shrinks rows and nnz together
//! (preserving average degree and locality structure). The simulated buffer
//! must be scaled by the same factor to preserve buffer-to-footprint
//! ratios; [`DatasetSpec::scaled_buffer_bytes`] computes that.

use serde::{Deserialize, Serialize};

use crate::gen::{self, LocalityMix};
use crate::CooMatrix;

/// The paper's 64 MB on-chip buffer (§V-A).
pub const PAPER_BUFFER_BYTES: usize = 64 << 20;

/// Identifier of one of the nine evaluation matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum MatrixId {
    Ca,
    Gy,
    G2,
    Co,
    Bu,
    Wi,
    Ad,
    Ro,
    Eu,
}

impl MatrixId {
    /// All nine matrices in Table I order.
    pub const ALL: [MatrixId; 9] = [
        MatrixId::Ca,
        MatrixId::Gy,
        MatrixId::G2,
        MatrixId::Co,
        MatrixId::Bu,
        MatrixId::Wi,
        MatrixId::Ad,
        MatrixId::Ro,
        MatrixId::Eu,
    ];

    /// The two-letter code used in the paper's tables and figures.
    pub fn code(self) -> &'static str {
        match self {
            MatrixId::Ca => "ca",
            MatrixId::Gy => "gy",
            MatrixId::G2 => "g2",
            MatrixId::Co => "co",
            MatrixId::Bu => "bu",
            MatrixId::Wi => "wi",
            MatrixId::Ad => "ad",
            MatrixId::Ro => "ro",
            MatrixId::Eu => "eu",
        }
    }

    /// The dataset specification (dimensions, nnz, locality model).
    pub fn spec(self) -> DatasetSpec {
        // (rows, nnz) from Table I; LocalityMix tuned to the reported
        // max-live fractions (see module docs).
        let (rows, nnz, mix, paper_max_pct, paper_avg_pct) = match self {
            MatrixId::Ca => (
                18_772,
                198_110,
                LocalityMix {
                    long_frac: 1.0,
                    anti_frac: 0.0,
                    local_span_frac: 0.0,
                    skew: 0.4,
                },
                49.9,
                32.9,
            ),
            MatrixId::Gy => (
                17_361,
                178_896,
                LocalityMix {
                    long_frac: 0.015,
                    anti_frac: 0.0,
                    local_span_frac: 0.035,
                    skew: 0.0,
                },
                4.8,
                1.9,
            ),
            MatrixId::G2 => (
                150_102,
                438_388,
                LocalityMix {
                    long_frac: 0.01,
                    anti_frac: 0.0,
                    local_span_frac: 0.025,
                    skew: 0.0,
                },
                3.5,
                1.7,
            ),
            MatrixId::Co => (
                434_102,
                16_036_720,
                LocalityMix {
                    long_frac: 0.20,
                    anti_frac: 0.0,
                    local_span_frac: 0.03,
                    skew: 0.8,
                },
                13.7,
                7.2,
            ),
            MatrixId::Bu => (
                513_351,
                10_360_701,
                LocalityMix {
                    long_frac: 0.15,
                    anti_frac: 0.80,
                    local_span_frac: 0.02,
                    skew: 0.0,
                },
                90.0,
                47.7,
            ),
            MatrixId::Wi => (
                3_566_907,
                45_030_389,
                LocalityMix {
                    long_frac: 0.70,
                    anti_frac: 0.0,
                    local_span_frac: 0.02,
                    skew: 1.6,
                },
                38.7,
                23.2,
            ),
            MatrixId::Ad => (
                6_815_744,
                13_624_320,
                LocalityMix {
                    long_frac: 0.17,
                    anti_frac: 0.0,
                    local_span_frac: 0.008,
                    skew: 0.0,
                },
                9.4,
                5.1,
            ),
            MatrixId::Ro => (
                23_947_347,
                28_854_312,
                LocalityMix {
                    long_frac: 0.003,
                    anti_frac: 0.0,
                    local_span_frac: 0.014,
                    skew: 0.0,
                },
                1.9,
                1.0,
            ),
            MatrixId::Eu => (
                50_912_018,
                54_054_660,
                LocalityMix {
                    long_frac: 0.008,
                    anti_frac: 0.0,
                    local_span_frac: 0.035,
                    skew: 0.0,
                },
                4.3,
                2.6,
            ),
        };
        DatasetSpec {
            id: self,
            rows,
            nnz,
            mix,
            paper_max_pct,
            paper_avg_pct,
        }
    }
}

impl std::fmt::Display for MatrixId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Full specification of one evaluation matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Which matrix this is.
    pub id: MatrixId,
    /// Full-size row (= column) count from Table I.
    pub rows: u64,
    /// Full-size non-zero count from Table I.
    pub nnz: u64,
    /// Locality model used by the generator.
    pub mix: LocalityMix,
    /// Table I's reported `max (%)` live fraction, for comparison reports.
    pub paper_max_pct: f64,
    /// Table I's reported `avg (%)` live fraction.
    pub paper_avg_pct: f64,
}

impl DatasetSpec {
    /// Generates the matrix at `1/scale` of full size (rows and nnz divided
    /// by `scale`; `scale = 1` is full size). Deterministic: the seed is
    /// derived from the matrix id and scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0` or the scaled size would be degenerate
    /// (< 16 rows).
    pub fn generate(&self, scale: u64) -> CooMatrix {
        assert!(scale > 0, "scale divisor must be positive");
        let rows = (self.rows / scale).max(1) as u32;
        let nnz = (self.nnz / scale).max(1) as usize;
        assert!(rows >= 16, "scaled dataset degenerate: {rows} rows");
        let seed = 0x5eed_0000 + self.id as u64 * 97 + scale;
        gen::locality_mix(rows, nnz, self.mix, seed)
    }

    /// The largest scale divisor [`DatasetSpec::generate`] accepts for
    /// this matrix — beyond it the scaled matrix would be degenerate
    /// (< 16 rows).
    pub fn max_scale(&self) -> u64 {
        self.rows / 16
    }

    /// The row count [`DatasetSpec::generate`] produces at `scale`
    /// (mirroring its arithmetic exactly), or 0 for the rejected
    /// `scale == 0`. Lets admission-time callers check workload row
    /// floors — e.g. the SpGEMM app family needs more rows than the
    /// generator's own 16-row minimum — without generating anything.
    pub fn rows_at_scale(&self, scale: u64) -> u64 {
        self.rows.checked_div(scale).map_or(0, |rows| rows.max(1))
    }

    /// Whether [`DatasetSpec::generate`] accepts `scale` — the
    /// non-panicking admission check for callers handling untrusted
    /// scales (the serve daemon validates wire requests with this
    /// before any generation work is queued).
    pub fn supports_scale(&self, scale: u64) -> bool {
        scale > 0 && scale <= self.max_scale()
    }

    /// On-chip buffer bytes that preserve the paper's buffer-to-footprint
    /// ratio at the given scale (64 MB at `scale = 1`).
    pub fn scaled_buffer_bytes(scale: u64) -> usize {
        (PAPER_BUFFER_BYTES as u64 / scale).max(4096) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::livesweep;

    #[test]
    fn all_ids_have_specs_matching_table1() {
        let spec = MatrixId::Eu.spec();
        assert_eq!(spec.rows, 50_912_018);
        assert_eq!(spec.nnz, 54_054_660);
    }

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<_> = MatrixId::ALL.iter().map(|m| m.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 9);
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let spec = MatrixId::Ca.spec();
        let a = spec.generate(4);
        let b = spec.generate(4);
        assert_eq!(a, b);
        assert_eq!(a.nrows() as u64, spec.rows / 4);
        // dedup can only lose a small fraction
        assert!(a.nnz() as u64 > spec.nnz / 4 * 9 / 10);
    }

    #[test]
    fn live_fractions_track_paper_ordering() {
        // At modest scale, the *ordering* of live-set pressure across
        // matrices must match Table I: bu ≫ ca > wi > co > ad > gy/eu > ro.
        let live = |id: MatrixId, scale: u64| {
            let m = id.spec().generate(scale);
            livesweep::sweep(&m).max_percent()
        };
        let bu = live(MatrixId::Bu, 64);
        let ca = live(MatrixId::Ca, 4);
        let ro = live(MatrixId::Ro, 512);
        let gy = live(MatrixId::Gy, 4);
        assert!(bu > 70.0, "bu live {bu}% should be extreme");
        assert!((35.0..60.0).contains(&ca), "ca live {ca}% should be ≈50%");
        assert!(gy < 15.0, "gy live {gy}% should be small");
        assert!(ro < 8.0, "ro live {ro}% should be tiny");
        assert!(bu > ca && ca > gy && gy > ro);
    }

    #[test]
    fn scaled_buffer_tracks_scale() {
        assert_eq!(DatasetSpec::scaled_buffer_bytes(1), 64 << 20);
        assert_eq!(DatasetSpec::scaled_buffer_bytes(64), 1 << 20);
    }

    #[test]
    #[should_panic(expected = "scale divisor")]
    fn zero_scale_panics() {
        MatrixId::Ca.spec().generate(0);
    }

    #[test]
    fn supports_scale_mirrors_generate_exactly() {
        let spec = MatrixId::Ca.spec();
        assert!(!spec.supports_scale(0));
        assert!(spec.supports_scale(1));
        let max = spec.max_scale();
        assert!(spec.supports_scale(max));
        assert!(!spec.supports_scale(max + 1));
        assert!(!spec.supports_scale(u64::MAX));
        // the boundary check must agree with generate's assertions
        assert!(spec.generate(max).nrows() >= 16);
        assert!(std::panic::catch_unwind(|| spec.generate(max + 1)).is_err());
    }
}
