//! Metric collection, summary statistics, entry digests, and the result
//! line.

use std::collections::BTreeMap;

use sparsepipe_bench::sweep::Entry;

/// The metrics one run reports, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, String)>);

impl Metrics {
    /// Records `name` = `value` `unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.0.insert(name.to_string(), (value, unit.to_string()));
    }

    /// The recorded `(name, unit)` pairs.
    pub fn units(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.0
            .iter()
            .map(|(name, (_, unit))| (name.as_str(), unit.as_str()))
    }

    /// Prints one human-readable line per metric.
    pub fn print_table(&self) {
        for (name, (value, unit)) in &self.0 {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    /// The `metrics` object of the result line.
    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite `f64` as a JSON number, with every digit Rust prints.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {}}}"#,
        metrics.to_json()
    )
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The representative wall clock of a run's rounds (`run_s`): their 90th
/// percentile. Rounds repeat identical work, so their spread is the
/// host's; on a shared host, bursts of spare capacity make some rounds
/// fast, and an upper quantile varies less from run to run than the
/// median, which moves with how many bursts a run happened to catch.
pub fn round_s(walls: &[f64]) -> f64 {
    quantile(walls, 0.9)
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Geometric mean of positive `values`; 0 when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("linux procfs");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// An entry as the sweep JSON and the serve wire render it.
pub fn entry_json(entry: &Entry) -> String {
    serde_json::to_string(entry).expect("entries always serialize")
}

/// FNV-1a over the rendered entries, one per line, in point order.
pub fn digest<'a>(rendered: impl IntoIterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in rendered {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// A matrix cache's lookup counters and resident size.
#[derive(Debug, Clone, Copy)]
pub struct CacheCounts {
    hits: u64,
    misses: u64,
    resident_bytes: u64,
}

impl CacheCounts {
    /// Samples `cache`.
    pub fn of(cache: &sparsepipe_core::MatrixCache) -> Self {
        CacheCounts {
            hits: cache.hits(),
            misses: cache.misses(),
            resident_bytes: cache.bytes().total(),
        }
    }

    /// The lookups made between `earlier` and `self`, at `self`'s size.
    pub fn since(self, earlier: CacheCounts) -> Self {
        CacheCounts {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            ..self
        }
    }

    /// Records the `core.cache.*` metrics.
    pub fn report(self, m: &mut Metrics) {
        let lookups = (self.hits + self.misses).max(1) as f64;
        m.set("core.cache.hit_ratio", self.hits as f64 / lookups, "ratio");
        m.set("core.cache.misses", self.misses as f64, "count");
        m.set(
            "core.cache.resident_mb",
            self.resident_bytes as f64 / (1u64 << 20) as f64,
            "MB",
        );
    }
}
