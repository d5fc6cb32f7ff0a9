//! Scaled dataset loading for experiments: the [`MatrixSource`] trait,
//! its built-in implementations (synthetic generation, MatrixMarket
//! files, binary slabs), and the [`DatasetSpec`] builder every consumer
//! — the sweep, the serve daemon's warm LRU, admission validation —
//! goes through.
//!
//! A source answers three questions: *what would this matrix look like
//! at this scale* (admission, no I/O), *give me the dataset*
//! (loading), and *how do I serialize as provenance* (checkpoint
//! digests, sweep JSON). Out-of-core inputs (slabs converted by
//! `experiments convert`, DESIGN.md §17) enter the same admission path
//! as synthetic stand-ins; nothing downstream knows where a matrix
//! came from.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use sparsepipe_core::{MatrixCache, ReorderKind};
use sparsepipe_tensor::{CooMatrix, MatrixId, MatrixStats};

use crate::error::BenchError;
use crate::executor::Executor;

/// A provider of evaluation matrices: synthetic stand-ins, MatrixMarket
/// files, binary slabs, or anything a caller implements.
///
/// All three built-in sources ([`SyntheticSource`],
/// [`MatrixMarketSource`], [`SlabSource`]) are usually reached through
/// [`SourceConfig::to_source`] (CLI / daemon configuration) or a
/// [`DatasetSpec`] (one matrix) / [`DataContext`] (a whole set).
pub trait MatrixSource: Send + Sync + std::fmt::Debug {
    /// The source's serialization form — embedded verbatim in sweep
    /// JSON and checkpoint context digests, so it must stay stable for
    /// a given configuration (`"Synthetic"`, `{"MatrixMarket": dir}`,
    /// `{"Slab": dir}` for the built-ins).
    fn describe(&self) -> serde::Value;

    /// Loads one matrix at `scale`.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Dataset`] for a missing or malformed
    /// backing file (synthetic generation is infallible).
    fn load(&self, id: MatrixId, scale: u64) -> Result<ScaledDataset, BenchError>;

    /// Row count the admission check sees for `id` at `scale`, without
    /// touching storage. Defaults to the synthetic generator's scaling
    /// law, which every built-in source follows.
    fn rows_at_scale(&self, id: MatrixId, scale: u64) -> u64 {
        id.spec().rows_at_scale(scale)
    }

    /// Whether `scale` keeps `id` meaningfully sized (the generator's
    /// 16-row floor).
    fn supports_scale(&self, id: MatrixId, scale: u64) -> bool {
        id.spec().supports_scale(scale)
    }
}

/// Seeded synthetic stand-ins (see `sparsepipe_tensor::datasets`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SyntheticSource;

impl MatrixSource for SyntheticSource {
    fn describe(&self) -> serde::Value {
        serde::Value::Str("Synthetic".to_string())
    }

    fn load(&self, id: MatrixId, scale: u64) -> Result<ScaledDataset, BenchError> {
        Ok(ScaledDataset::from_matrix(
            id,
            scale,
            id.spec().generate(scale),
        ))
    }
}

/// Real MatrixMarket files `<dir>/<code>.mtx` (e.g. the paper's
/// SuiteSparse matrices, when available locally). `scale` still drives
/// buffer sizing; the file contents are used as-is.
#[derive(Debug, Clone)]
pub struct MatrixMarketSource {
    dir: PathBuf,
}

impl MatrixMarketSource {
    /// A source reading `<dir>/<code>.mtx`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        MatrixMarketSource { dir: dir.into() }
    }
}

impl MatrixSource for MatrixMarketSource {
    fn describe(&self) -> serde::Value {
        serde::Value::Map(vec![(
            "MatrixMarket".to_string(),
            serde::Serialize::to_value(&self.dir),
        )])
    }

    fn load(&self, id: MatrixId, scale: u64) -> Result<ScaledDataset, BenchError> {
        let path = self.dir.join(format!("{}.mtx", id.code()));
        let dataset_err = |message: String| BenchError::Dataset {
            matrix: id,
            message,
        };
        let file = std::fs::File::open(&path)
            .map_err(|e| dataset_err(format!("cannot open {}: {e}", path.display())))?;
        let matrix = sparsepipe_tensor::mm::read(std::io::BufReader::new(file))
            .map_err(|e| dataset_err(format!("cannot parse {}: {e}", path.display())))?;
        if matrix.nrows() != matrix.ncols() {
            return Err(dataset_err(format!(
                "{}: OEI experiments need square matrices, got {}x{}",
                path.display(),
                matrix.nrows(),
                matrix.ncols()
            )));
        }
        Ok(ScaledDataset::from_matrix(id, scale, matrix))
    }
}

/// Binary slab files `<dir>/<code>.s<scale>.slab` written by
/// `experiments convert` (see `sparsepipe_core::slab`). Loading decodes
/// straight into an arena — no MatrixMarket parse, no triplet list —
/// and the slab's fingerprint is verified on every load.
#[derive(Debug, Clone)]
pub struct SlabSource {
    dir: PathBuf,
}

impl SlabSource {
    /// A source reading `<dir>/<code>.s<scale>.slab`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SlabSource { dir: dir.into() }
    }

    /// The slab path this source reads for `id` at `scale`.
    pub fn slab_path(dir: &Path, id: MatrixId, scale: u64) -> PathBuf {
        dir.join(format!("{}.s{scale}.slab", id.code()))
    }
}

impl MatrixSource for SlabSource {
    fn describe(&self) -> serde::Value {
        serde::Value::Map(vec![(
            "Slab".to_string(),
            serde::Serialize::to_value(&self.dir),
        )])
    }

    fn load(&self, id: MatrixId, scale: u64) -> Result<ScaledDataset, BenchError> {
        let path = Self::slab_path(&self.dir, id, scale);
        let (arena, _header) =
            sparsepipe_core::slab::read_file(&path).map_err(|e| BenchError::Dataset {
                matrix: id,
                message: format!("cannot load slab {}: {e}", path.display()),
            })?;
        Ok(ScaledDataset::from_matrix(id, scale, arena.to_coo()))
    }
}

/// A closed, serializable, comparable description of a built-in source
/// — what configuration surfaces (CLI flags,
/// [`ServeConfig`](crate::serve::ServeConfig)) hold, so they stay `Eq`
/// while the loading path works through `dyn` [`MatrixSource`].
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub enum SourceConfig {
    /// Seeded synthetic stand-ins.
    #[default]
    Synthetic,
    /// MatrixMarket files `<dir>/<code>.mtx`.
    MatrixMarket(PathBuf),
    /// Binary slabs `<dir>/<code>.s<scale>.slab`.
    Slab(PathBuf),
}

impl SourceConfig {
    /// Instantiates the described source.
    pub fn to_source(&self) -> Arc<dyn MatrixSource> {
        match self {
            SourceConfig::Synthetic => Arc::new(SyntheticSource),
            SourceConfig::MatrixMarket(dir) => Arc::new(MatrixMarketSource::new(dir.clone())),
            SourceConfig::Slab(dir) => Arc::new(SlabSource::new(dir.clone())),
        }
    }
}

/// One matrix request against one source: the single admission and
/// loading path for the sweep, the serve daemon, and ad-hoc tools.
///
/// ```
/// use sparsepipe_bench::datasets::DatasetSpec;
/// use sparsepipe_tensor::MatrixId;
///
/// let spec = DatasetSpec::new(MatrixId::Ca, 256); // synthetic default
/// spec.admit(1).expect("ca supports scale 256");
/// let dataset = spec.load().expect("synthetic loads are infallible");
/// assert_eq!(dataset.id, MatrixId::Ca);
/// ```
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    id: MatrixId,
    scale: u64,
    source: Arc<dyn MatrixSource>,
}

impl DatasetSpec {
    /// A spec for `id` at `scale` against the synthetic source.
    pub fn new(id: MatrixId, scale: u64) -> Self {
        DatasetSpec {
            id,
            scale,
            source: Arc::new(SyntheticSource),
        }
    }

    /// Replaces the source (builder style).
    #[must_use]
    pub fn with_source(mut self, source: Arc<dyn MatrixSource>) -> Self {
        self.source = source;
        self
    }

    /// The matrix this spec requests.
    pub fn id(&self) -> MatrixId {
        self.id
    }

    /// The scale divisor.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// The admission check every consumer runs before loading: the
    /// source must support the scale, and the scaled matrix must keep
    /// at least `min_rows` rows (an app floor; pass 1 for none). The
    /// error pair is `(stable code, message)` — the wire protocol's
    /// `dataset` family.
    ///
    /// # Errors
    ///
    /// `("dataset", message)` describing the violated constraint.
    pub fn admit(&self, min_rows: u32) -> Result<(), (&'static str, String)> {
        if !self.source.supports_scale(self.id, self.scale) {
            return Err((
                "dataset",
                format!(
                    "scale {} shrinks `{}` below the 16-row floor (max scale {})",
                    self.scale,
                    self.id.code(),
                    self.id.spec().max_scale()
                ),
            ));
        }
        let rows = self.source.rows_at_scale(self.id, self.scale);
        if rows < u64::from(min_rows) {
            return Err((
                "dataset",
                format!(
                    "scale {} leaves `{}` with {rows} rows, below the minimum of {min_rows}",
                    self.scale,
                    self.id.code()
                ),
            ));
        }
        Ok(())
    }

    /// Loads the dataset from the spec's source.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Dataset`] for a missing or malformed
    /// backing file.
    pub fn load(&self) -> Result<ScaledDataset, BenchError> {
        self.source.load(self.id, self.scale)
    }
}

/// Everything an experiment needs to obtain its matrices.
///
/// Loads are memoized: each matrix id is built at most once per
/// context, and clones share the memo, so every artifact of one
/// `experiments` run reads the same datasets. A failed load is not
/// memoized. The memo is keyed by id alone, so the scale, set and
/// source are fixed at construction and only readable afterwards.
#[derive(Clone)]
pub struct DataContext {
    scale: u64,
    set: MatrixSet,
    source: Arc<dyn MatrixSource>,
    /// One slot per [`MatrixId`]; a slot's lock is held while its
    /// matrix builds, so concurrent loads of one id build it once.
    loaded: Arc<[Mutex<Option<Arc<ScaledDataset>>>]>,
}

impl std::fmt::Debug for DataContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataContext")
            .field("scale", &self.scale)
            .field("set", &self.set)
            .field("source", &self.source)
            .finish_non_exhaustive()
    }
}

/// Hand-written so the serialized form (sweep JSON, checkpoint context
/// digests) is identical to what the old closed-enum derive produced:
/// `{"scale": …, "set": …, "source": "Synthetic" | {"MatrixMarket": …}}`.
impl serde::Serialize for DataContext {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("scale".to_string(), serde::Serialize::to_value(&self.scale)),
            ("set".to_string(), serde::Serialize::to_value(&self.set)),
            ("source".to_string(), self.source.describe()),
        ])
    }
}

impl DataContext {
    /// Synthetic datasets at `scale`.
    pub fn synthetic(set: MatrixSet, scale: u64) -> Self {
        Self::with_source(set, scale, Arc::new(SyntheticSource))
    }

    /// Datasets at `scale` drawn from `source`.
    pub fn with_source(set: MatrixSet, scale: u64, source: Arc<dyn MatrixSource>) -> Self {
        let loaded = MatrixId::ALL.iter().map(|_| Mutex::new(None)).collect();
        DataContext {
            scale,
            set,
            source,
            loaded,
        }
    }

    /// Scale divisor for synthetic generation (also sets the buffer
    /// scaling; 1 with real full-size matrices).
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Which Table-I matrices the context covers.
    pub fn set(&self) -> MatrixSet {
        self.set
    }

    /// Where the context's matrices come from.
    pub fn source(&self) -> &Arc<dyn MatrixSource> {
        &self.source
    }

    /// The [`DatasetSpec`] this context uses for `id`.
    pub fn spec(&self, id: MatrixId) -> DatasetSpec {
        DatasetSpec::new(id, self.scale).with_source(Arc::clone(&self.source))
    }

    /// Loads all matrices in the context's set, fanned across `exec`'s
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Dataset`] for a missing or malformed
    /// backing file.
    pub fn load(&self, exec: &Executor) -> Result<Vec<Arc<ScaledDataset>>, BenchError> {
        let ids = self.set.ids();
        exec.run(ids, |&id| self.load_one(id)).into_iter().collect()
    }

    /// Loads one matrix, building it on the context's first request.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Dataset`] for a missing or malformed
    /// backing file (synthetic generation is infallible).
    pub fn load_one(&self, id: MatrixId) -> Result<Arc<ScaledDataset>, BenchError> {
        let mut slot = self.loaded[id as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(dataset) = &*slot {
            return Ok(Arc::clone(dataset));
        }
        let dataset = Arc::new(self.spec(id).load()?);
        *slot = Some(Arc::clone(&dataset));
        Ok(dataset)
    }
}

/// One evaluation matrix at the experiment scale, with its preprocessed
/// (GraphOrder-reordered) variant and structural statistics.
#[derive(Debug, Clone)]
pub struct ScaledDataset {
    /// Which Table-I matrix this is.
    pub id: MatrixId,
    /// The scale divisor used.
    pub scale: u64,
    /// The generated matrix (original vertex order).
    pub matrix: CooMatrix,
    /// The matrix after GraphOrder row reordering (§IV-E1), derived once
    /// here as offline preprocessing: the default Sparsepipe input.
    pub reordered: CooMatrix,
    /// Structural statistics of the original matrix.
    pub stats: MatrixStats,
}

impl ScaledDataset {
    /// Derives the reordered variant and statistics for a loaded matrix
    /// — the one constructor every [`MatrixSource`] funnels through.
    fn from_matrix(id: MatrixId, scale: u64, matrix: CooMatrix) -> Self {
        let reordered = ReorderKind::GraphOrder.apply(&matrix);
        let stats = MatrixStats::compute(&matrix);
        ScaledDataset {
            id,
            scale,
            matrix,
            reordered,
            stats,
        }
    }

    /// The on-chip buffer size preserving the paper's buffer-to-footprint
    /// ratio at this scale.
    pub fn buffer_bytes(&self) -> usize {
        sparsepipe_tensor::DatasetSpec::scaled_buffer_bytes(self.scale)
    }

    /// The matrix in `order` with its [`MatrixCache`] key — the one
    /// place the harness derives keys. [`MatrixCache::key_for`] hashes
    /// only the label, shape and nnz, which both orders share, so the
    /// original order is labelled `<code>/orig`; the reordered one keeps
    /// the bare code that the sweep and the serve daemon key by.
    pub fn keyed(&self, order: VertexOrder) -> (&CooMatrix, u64) {
        let code = self.id.code();
        match order {
            VertexOrder::Reordered => {
                (&self.reordered, MatrixCache::key_for(code, &self.reordered))
            }
            VertexOrder::Original => (
                &self.matrix,
                MatrixCache::key_for(&format!("{code}/orig"), &self.matrix),
            ),
        }
    }
}

/// Which vertex order of a [`ScaledDataset`] a simulation reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexOrder {
    /// The matrix as loaded.
    Original,
    /// After GraphOrder reordering: the order the sweep simulates.
    Reordered,
}

/// Which matrices an experiment run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum MatrixSet {
    /// All nine Table-I matrices.
    Full,
    /// A three-matrix smoke subset (`ca`, `gy`, `bu`) for quick runs.
    Quick,
}

impl MatrixSet {
    /// The matrix ids in this set.
    pub fn ids(self) -> &'static [MatrixId] {
        match self {
            MatrixSet::Full => &MatrixId::ALL,
            MatrixSet::Quick => &[MatrixId::Ca, MatrixId::Gy, MatrixId::Bu],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_set_loads() {
        assert_eq!(MatrixSet::Quick.ids().len(), 3);
        for &id in MatrixSet::Quick.ids() {
            let d = DatasetSpec::new(id, 256).load().unwrap();
            assert_eq!(d.matrix.nnz(), d.reordered.nnz());
            assert!(d.buffer_bytes() > 0);
        }
    }

    #[test]
    fn reordering_preserves_structure() {
        let d = DatasetSpec::new(MatrixId::Gy, 64).load().unwrap();
        assert_eq!(d.matrix.nrows(), d.reordered.nrows());
        assert_eq!(d.matrix.nnz(), d.reordered.nnz());
    }

    #[test]
    fn missing_mtx_is_a_dataset_error() {
        let ctx = DataContext::with_source(
            MatrixSet::Quick,
            1,
            SourceConfig::MatrixMarket("/nonexistent-mtx-dir".into()).to_source(),
        );
        let err = ctx.load_one(MatrixId::Ca).unwrap_err();
        assert!(matches!(err, BenchError::Dataset { matrix, .. } if matrix == MatrixId::Ca));
        let err = ctx.load(&Executor::new(2)).unwrap_err();
        assert!(matches!(err, BenchError::Dataset { .. }));
    }

    #[test]
    fn missing_slab_is_a_dataset_error() {
        let spec = DatasetSpec::new(MatrixId::Ca, 64)
            .with_source(SourceConfig::Slab("/nonexistent-slab-dir".into()).to_source());
        let err = spec.load().unwrap_err();
        assert!(matches!(err, BenchError::Dataset { matrix, .. } if matrix == MatrixId::Ca));
        assert!(err.to_string().contains("ca.s64.slab"), "{err}");
    }

    #[test]
    fn slab_source_round_trips_through_a_written_slab() {
        let dir = std::env::temp_dir().join(format!("sparsepipe-slabsrc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let synthetic = DatasetSpec::new(MatrixId::Ca, 256).load().unwrap();
        let arena = sparsepipe_core::MatrixArena::from_coo(&synthetic.matrix);
        sparsepipe_core::slab::write_file(&arena, &SlabSource::slab_path(&dir, MatrixId::Ca, 256))
            .unwrap();

        let loaded = DatasetSpec::new(MatrixId::Ca, 256)
            .with_source(Arc::new(SlabSource::new(&dir)))
            .load()
            .unwrap();
        assert_eq!(loaded.matrix, synthetic.matrix);
        assert_eq!(loaded.reordered, synthetic.reordered);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admission_is_uniform_across_sources() {
        // scale beyond the generator's floor is refused by every source
        let huge = MatrixId::Ca.spec().max_scale() + 1;
        for source in [
            SourceConfig::Synthetic,
            SourceConfig::MatrixMarket("/x".into()),
            SourceConfig::Slab("/x".into()),
        ] {
            let spec = DatasetSpec::new(MatrixId::Ca, huge).with_source(source.to_source());
            let (code, msg) = spec.admit(1).unwrap_err();
            assert_eq!(code, "dataset");
            assert!(msg.contains("floor"), "{source:?}: {msg}");
        }
        // the app min-rows floor uses the same path
        let spec = DatasetSpec::new(MatrixId::Ca, 1024);
        if spec.admit(1).is_ok() {
            let rows = MatrixId::Ca.spec().rows_at_scale(1024);
            let (code, _) = spec.admit(u32::MAX).unwrap_err();
            assert_eq!(code, "dataset");
            assert!(rows < u64::from(u32::MAX));
        }
    }

    /// The synthetic source, counting builds per id; fails the next
    /// load while `fail_next` is set.
    #[derive(Debug, Default)]
    struct CountingSource {
        builds: [std::sync::atomic::AtomicUsize; 9],
        fail_next: std::sync::atomic::AtomicBool,
    }

    impl CountingSource {
        fn builds(&self, id: MatrixId) -> usize {
            self.builds[id as usize].load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl MatrixSource for CountingSource {
        fn describe(&self) -> serde::Value {
            serde::Value::Str("Counting".to_string())
        }

        fn load(&self, id: MatrixId, scale: u64) -> Result<ScaledDataset, BenchError> {
            use std::sync::atomic::Ordering::SeqCst;
            self.builds[id as usize].fetch_add(1, SeqCst);
            if self.fail_next.swap(false, SeqCst) {
                return Err(BenchError::Dataset {
                    matrix: id,
                    message: "injected".into(),
                });
            }
            SyntheticSource.load(id, scale)
        }
    }

    #[test]
    fn context_builds_each_matrix_once() {
        let source = Arc::new(CountingSource::default());
        let ctx = DataContext::with_source(MatrixSet::Quick, 512, source.clone());
        let exec = Executor::new(2);
        let all = ctx.load(&exec).unwrap();
        let clone = ctx.clone();
        for (loaded, &id) in all.iter().zip(MatrixSet::Quick.ids()) {
            assert!(Arc::ptr_eq(loaded, &ctx.load_one(id).unwrap()));
            assert!(Arc::ptr_eq(loaded, &clone.load_one(id).unwrap()));
        }
        // Concurrent first requests for one id build it once.
        let eu = exec.run(&[MatrixId::Eu; 4], |&id| clone.load_one(id).unwrap());
        assert!(eu.iter().all(|d| Arc::ptr_eq(d, &eu[0])));
        for id in MatrixId::ALL {
            let expected = usize::from(MatrixSet::Quick.ids().contains(&id) || id == MatrixId::Eu);
            assert_eq!(source.builds(id), expected, "{id:?}");
        }
        // A new context has its own memo.
        DataContext::with_source(MatrixSet::Quick, 512, source.clone())
            .load_one(MatrixId::Ca)
            .unwrap();
        assert_eq!(source.builds(MatrixId::Ca), 2);
    }

    #[test]
    fn failed_load_is_retried() {
        let source = Arc::new(CountingSource::default());
        source
            .fail_next
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let ctx = DataContext::with_source(MatrixSet::Quick, 512, source.clone());
        assert!(ctx.load_one(MatrixId::Ca).is_err());
        let first = ctx.load_one(MatrixId::Ca).unwrap();
        assert!(Arc::ptr_eq(&first, &ctx.load_one(MatrixId::Ca).unwrap()));
        assert_eq!(source.builds(MatrixId::Ca), 2);
    }

    #[test]
    fn context_serialization_is_stable() {
        // the byte form feeds checkpoint digests and golden sweep JSON:
        // it must match what the old closed-enum derive emitted
        let ctx = DataContext::synthetic(MatrixSet::Quick, 64);
        assert_eq!(
            serde_json::to_string(&ctx).unwrap(),
            r#"{"scale":64,"set":"Quick","source":"Synthetic"}"#
        );
        let ctx = DataContext::with_source(
            MatrixSet::Full,
            1,
            SourceConfig::MatrixMarket("/data/mtx".into()).to_source(),
        );
        assert_eq!(
            serde_json::to_string(&ctx).unwrap(),
            r#"{"scale":1,"set":"Full","source":{"MatrixMarket":"/data/mtx"}}"#
        );
        let ctx = DataContext::with_source(
            MatrixSet::Full,
            2,
            SourceConfig::Slab("/data/slabs".into()).to_source(),
        );
        assert_eq!(
            serde_json::to_string(&ctx).unwrap(),
            r#"{"scale":2,"set":"Full","source":{"Slab":"/data/slabs"}}"#
        );
    }
}
