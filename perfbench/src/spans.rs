//! Host-time spans recorded by the benchmark around its calls into the
//! program's layers.
//!
//! A span has a name, a start and an end (nanoseconds since the first
//! span of the process), the span that was open on the same thread when
//! it started, and the id of the point or request it belongs to. Spans
//! are kept in memory and written out as JSON lines when the workload
//! ends. Recording is off unless [`set_enabled`] turned it on; a disabled
//! [`span`] costs one atomic load.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `core.sim`.
    pub name: &'static str,
    /// Start, in nanoseconds since the process's first span.
    pub start_ns: u64,
    /// End, in nanoseconds since the process's first span.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The point or request the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Turns recording on or off for spans started from now on.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span recorder poisoned by a panicking workload thread")
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard is dropped"]
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        let end = now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        // Never panic in drop: a poisoned recorder only loses this end time.
        if let Ok(mut all) = SPANS.lock() {
            all[index].end_ns = end;
        }
    }
}

/// Opens a span named `name` for point or request `id`.
pub fn span(name: &'static str, id: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start_ns = now_ns();
    let index = {
        let mut all = spans();
        all.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        all.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    Guard(Some(index))
}

/// Runs `f` inside a span.
pub fn timed<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    let _guard = span(name, id);
    f()
}

/// Every span recorded so far, in start order per thread.
pub fn snapshot() -> Vec<Span> {
    spans().clone()
}

/// Writes `all` as JSON lines to `path`.
///
/// # Errors
///
/// Whatever creating or writing the file reports.
pub fn write_jsonl(all: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, s) in all.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"span":{index},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"id":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.id
        )?;
    }
    out.flush()
}

/// Sums, over a set of recorded spans, the figures the per-layer metrics
/// are made of.
pub struct Summary<'a> {
    all: &'a [Span],
    /// Child indices per span.
    children: Vec<Vec<usize>>,
}

impl<'a> Summary<'a> {
    /// Indexes `all` by parent.
    pub fn new(all: &'a [Span]) -> Self {
        let mut children = vec![Vec::new(); all.len()];
        for (index, s) in all.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(index);
            }
        }
        Summary { all, children }
    }

    fn named(&self, name: &str) -> impl Iterator<Item = (usize, &Span)> + '_ {
        let name = name.to_string();
        self.all
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Total seconds inside spans named `name` (summed over threads).
    pub fn busy_s(&self, name: &str) -> f64 {
        self.named(name).map(|(_, s)| s.secs()).sum()
    }

    /// Durations of the spans named `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|(_, s)| s.secs()).collect()
    }

    /// Total self time of the spans named `name`: each span's duration
    /// minus the part of it its child spans cover.
    pub fn self_s(&self, name: &str) -> f64 {
        self.named(name)
            .map(|(index, s)| {
                let mut covered: Vec<(u64, u64)> = self.children[index]
                    .iter()
                    .map(|&c| (self.all[c].start_ns, self.all[c].end_ns))
                    .collect();
                covered.sort_unstable();
                let (mut union_ns, mut reach) = (0u64, s.start_ns);
                for (start, end) in covered {
                    let start = start.max(reach);
                    if end > start {
                        union_ns += end - start;
                        reach = end;
                    }
                }
                s.secs() - union_ns as f64 * 1e-9
            })
            .sum()
    }
}
