//! Functional execution of the OEI dataflow (Fig 8/9 of the paper).
//!
//! [`FusedPass`] is the one executor: it literally runs the OS → e-wise
//! → IS schedule over a [`MatrixArena`]. At sub-tensor width 1 (the
//! default) each column `c` flows through all three stages — the OS stage
//! produces one output element, the e-wise stage transforms it, and the
//! IS stage scatters it across row `c` — before column `c+1` is touched.
//! This is the *correctness* half of the simulator: it proves (and the
//! tests verify) that the reordered, partially-computed schedule produces
//! exactly the same values as two sequential `vxm` + e-wise operator
//! executions — the paper's sub-tensor-dependency claim (§III-A).
//!
//! The builder's options select the loop and its observers:
//!
//! * [`FusedPass::subtensor`] — the schedule loop at sub-tensor width
//!   `t` with the stage offsets of Fig 13;
//! * [`FusedPass::buffer`] — the mechanism loop through a concrete
//!   [`DualBuffer`] of the given capacity, returning its traffic
//!   statistics next to the values;
//! * [`FusedPass::trace`] — (buffered only) a live [`TraceSink`] for the
//!   buffer's element-level events.
//!
//! `run(&x, ewise)` executes one fused pass; `iterate(&x0, ewise, k)`
//! runs `k` loop iterations, fused pairwise. A sub-tensor schedule
//! cannot be combined with the buffer: `buffer` and `subtensor` are each
//! only available on the plain width-1 builder, so the combination does
//! not type-check:
//!
//! ```compile_fail
//! use sparsepipe_core::{oei::FusedPass, MatrixArena};
//! use sparsepipe_semiring::SemiringOp;
//!
//! let arena = MatrixArena::from_coo(&sparsepipe_tensor::gen::uniform(8, 8, 16, 1));
//! let op = SemiringOp::MulAdd;
//! let _ = FusedPass::new(&arena, op, op).subtensor(3).buffer(1 << 10);
//! ```

use sparsepipe_semiring::SemiringOp;
use sparsepipe_tensor::{DenseVector, TensorError};
use sparsepipe_trace::{NullSink, TraceSink};

use crate::arena::{MatrixArena, RowSet};
use crate::dualbuffer::{DualBuffer, DualBufferStats, ELEM_BYTES};

/// Result of one fused OEI pass: the first `vxm`'s output, the e-wise
/// stage's output (which is the second `vxm`'s input), and the second
/// `vxm`'s output.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedPassOutput {
    /// `y₁ = vxm(x, A)` under the OS semiring.
    pub y1: DenseVector,
    /// `x₂ = ewise(y₁)` — the fused e-wise chain's output.
    pub x2: DenseVector,
    /// `y₂ = vxm(x₂, A)` under the IS semiring.
    pub y2: DenseVector,
}

/// The loop a [`FusedPass`] runs, fixed by its builder options. The
/// types are only ever named through `FusedPass`'s type parameter.
mod mode {
    /// The schedule loop at sub-tensor width 1 ([`super::FusedPass::new`]).
    #[derive(Debug, Clone, Copy)]
    pub struct Element;

    /// The schedule loop at sub-tensor width `.0`
    /// ([`super::FusedPass::subtensor`]).
    #[derive(Debug, Clone, Copy)]
    pub struct Subtensor(pub(super) usize);

    /// The dual-buffer mechanism loop ([`super::FusedPass::buffer`]).
    #[derive(Debug)]
    pub struct Buffered<S> {
        pub(super) capacity_bytes: usize,
        pub(super) sink: S,
    }
}

use mode::{Buffered, Element, Subtensor};

/// One fused OEI execution request over a square [`MatrixArena`]: both
/// `vxm`s (OS semiring `os`, IS semiring `is`) and the e-wise chain
/// between them, in a **single sweep** of the matrix.
///
/// `ewise(c, y1_c)` maps the OS output element at index `c` to the IS
/// input element at index `c` (capturing any fused chain, including reads
/// of other — already available — vectors by closure capture).
///
/// Every loop computes bitwise-identical values: the sub-tensor schedule
/// only *delays* consumption, never reorders a dependency, and the
/// buffered mechanism preserves each accumulation's operation order
/// through evictions and re-fetches.
///
/// # Example
///
/// ```
/// use sparsepipe_core::{oei::FusedPass, MatrixArena};
/// use sparsepipe_semiring::SemiringOp;
/// use sparsepipe_tensor::{gen, DenseVector};
///
/// let m = gen::uniform(64, 64, 400, 3);
/// let arena = MatrixArena::from_coo(&m);
/// let x = DenseVector::filled(64, 1.0 / 64.0);
/// let ew = |_: usize, v: f64| v * 0.85 + 0.15;
/// let out = FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd).run(&x, ew)?;
/// // y2 equals the sequential computation vxm(ewise(vxm(x)))
/// let seq = m.to_csc().vxm::<sparsepipe_semiring::MulAdd>(&out.x2)?;
/// assert!(out.y2.max_abs_diff(&seq)? < 1e-12);
///
/// // the same pass through a 4 KiB dual buffer: same values, plus traffic
/// let (buffered, stats) = FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd)
///     .buffer(4 << 10)
///     .run(&x, ew)?;
/// assert_eq!(buffered, out);
/// assert!(stats.fetched_bytes > 0);
/// # Ok::<(), sparsepipe_tensor::TensorError>(())
/// ```
#[derive(Debug)]
#[must_use = "a FusedPass does nothing until `run` or `iterate`"]
pub struct FusedPass<'a, M = Element> {
    arena: &'a MatrixArena,
    os: SemiringOp,
    is: SemiringOp,
    mode: M,
}

impl<'a> FusedPass<'a> {
    /// A width-1 schedule pass over `arena` with OS semiring `os` and IS
    /// semiring `is` — the exact element interleaving of Fig 8.
    pub fn new(arena: &'a MatrixArena, os: SemiringOp, is: SemiringOp) -> Self {
        FusedPass {
            arena,
            os,
            is,
            mode: Element,
        }
    }

    /// Runs the schedule at **sub-tensor width `t_cols`**, with the exact
    /// stage offsets of the paper's Fig 13: at step `s` the OS stage
    /// processes the columns of sub-tensor `s`, the e-wise stage the
    /// output elements of sub-tensor `s − 1`, and the IS stage the rows
    /// of sub-tensor `s − 2` — two extra drain steps complete the
    /// pipeline. Functionally identical to width 1; it exists to prove
    /// exactly that, and to drive schedule-visualization tooling at the
    /// same granularity as the timing model.
    ///
    /// # Panics
    ///
    /// Panics if `t_cols == 0`.
    pub fn subtensor(self, t_cols: usize) -> FusedPass<'a, Subtensor> {
        assert!(t_cols > 0, "sub-tensor width must be positive");
        FusedPass {
            arena: self.arena,
            os: self.os,
            is: self.is,
            mode: Subtensor(t_cols),
        }
    }

    /// Drives the pass through a **concrete [`DualBuffer`]** of
    /// `capacity_bytes`: every matrix element physically moves DRAM →
    /// CSC space → (col-row conversion) → CSR space → IS consumption,
    /// with real reservations, evictions, re-fetches, and repacking.
    /// `run`/`iterate` then also return the buffer's traffic statistics —
    /// the mechanism-level cross-check for the abstract timing model in
    /// [`crate::pipeline::PassRequest`].
    pub fn buffer(self, capacity_bytes: usize) -> FusedPass<'a, Buffered<NullSink>> {
        FusedPass {
            arena: self.arena,
            os: self.os,
            is: self.is,
            mode: Buffered {
                capacity_bytes,
                sink: NullSink,
            },
        }
    }

    /// Executes one fused pass at width 1.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if `x` does not match
    /// the arena's dimension.
    pub fn run<F>(self, x: &DenseVector, ewise: F) -> Result<FusedPassOutput, TensorError>
    where
        F: FnMut(usize, f64) -> f64,
    {
        self.subtensor(1).run(x, ewise)
    }

    /// Runs `iterations` loop iterations at width 1, fused pairwise — the
    /// same driver as `.subtensor(t).iterate(..)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if `x0` does not match
    /// the arena's dimension.
    pub fn iterate<F>(
        self,
        x0: &DenseVector,
        ewise: F,
        iterations: usize,
    ) -> Result<DenseVector, TensorError>
    where
        F: FnMut(usize, f64) -> f64,
    {
        self.subtensor(1).iterate(x0, ewise, iterations)
    }
}

impl FusedPass<'_, Subtensor> {
    /// Executes one fused pass with the sub-tensor schedule.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if `x` does not match
    /// the arena's dimension.
    pub fn run<F>(self, x: &DenseVector, mut ewise: F) -> Result<FusedPassOutput, TensorError>
    where
        F: FnMut(usize, f64) -> f64,
    {
        check_len(self.arena, x)?;
        Ok(self.schedule_pass(x, &mut ewise))
    }

    /// Runs `iterations` loop iterations of a single-`vxm`
    /// cross-iteration application under the OEI schedule: consecutive
    /// iterations are fused pairwise, with a trailing unfused
    /// half-iteration when `iterations` is odd. `ewise(lane, value)` is
    /// the fused e-wise chain applied after every `vxm` (it sees the
    /// *current* iteration's index through the closure's own state if it
    /// needs one).
    ///
    /// Returns the final loop-carried vector (the `vxm` input of the
    /// would-be next iteration).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if `x0` does not match
    /// the arena's dimension.
    pub fn iterate<F>(
        self,
        x0: &DenseVector,
        mut ewise: F,
        iterations: usize,
    ) -> Result<DenseVector, TensorError>
    where
        F: FnMut(usize, f64) -> f64,
    {
        check_len(self.arena, x0)?;
        Ok(iterate_pairs(
            self.arena,
            self.os,
            x0,
            &mut ewise,
            iterations,
            |x, ewise| self.schedule_pass(x, ewise),
        ))
    }

    /// The schedule loop. Pipeline with fill/drain: at step `s`, stage
    /// `k` works on sub-tensor `s − k` (if it exists). Stages appear in
    /// dependency order within the step, exactly as the hardware's
    /// per-step dataflow resolves.
    fn schedule_pass<F>(&self, x: &DenseVector, ewise: &mut F) -> FusedPassOutput
    where
        F: FnMut(usize, f64) -> f64,
    {
        let (arena, os, is, t_cols) = (self.arena, self.os, self.is, self.mode.0);
        let n = arena.n() as usize;
        let steps = n.div_ceil(t_cols);
        let mut y1 = DenseVector::zeros(n);
        let mut x2 = DenseVector::zeros(n);
        let mut y2 = DenseVector::filled(n, is.zero());
        let subtensor = |idx: usize| (idx * t_cols)..(((idx + 1) * t_cols).min(n));

        for s in 0..steps + 2 {
            // OS stage on sub-tensor s: one output element per column — a
            // semiring dot product with the (fully available) input.
            if s < steps {
                for c in subtensor(s) {
                    y1[c] = os_dot(arena, os, x, c as u32);
                }
            }
            // E-wise stage on sub-tensor s − 1: consumes exactly the
            // elements already produced (sub-tensor dependency).
            if s >= 1 && s - 1 < steps {
                for c in subtensor(s - 1) {
                    x2[c] = ewise(c, y1[c]);
                }
            }
            // IS stage on sub-tensor s − 2: scatter x₂[r] across row r.
            if s >= 2 && s - 2 < steps {
                for r in subtensor(s - 2) {
                    let e = x2[r];
                    let (cols, vals) = arena.row(r as u32);
                    for (&col, &v) in cols.iter().zip(vals) {
                        let cell = &mut y2[col as usize];
                        *cell = is.add(*cell, is.mul(e, v));
                    }
                }
            }
        }
        FusedPassOutput { y1, x2, y2 }
    }
}

impl<'a, S: TraceSink> FusedPass<'a, Buffered<S>> {
    /// Attaches a live [`TraceSink`]: the dual buffer emits an event for
    /// every column fetch, element insert, OS/IS consumption, row
    /// eviction, and re-fetch, so offline analyzers (reuse-distance
    /// histograms, occupancy timelines) can observe the mechanism-level
    /// pass at element granularity. Pass `&mut sink` to keep ownership of
    /// the sink across the call.
    pub fn trace<T: TraceSink>(self, sink: T) -> FusedPass<'a, Buffered<T>> {
        FusedPass {
            arena: self.arena,
            os: self.os,
            is: self.is,
            mode: Buffered {
                capacity_bytes: self.mode.capacity_bytes,
                sink,
            },
        }
    }

    /// Executes one fused pass through a fresh dual buffer, returning the
    /// values and the buffer's statistics.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if `x` does not match
    /// the arena's dimension.
    pub fn run<F>(
        self,
        x: &DenseVector,
        mut ewise: F,
    ) -> Result<(FusedPassOutput, DualBufferStats), TensorError>
    where
        F: FnMut(usize, f64) -> f64,
    {
        check_len(self.arena, x)?;
        let mut buffer =
            DualBuffer::with_sink(self.arena, self.mode.capacity_bytes, 0.5, self.mode.sink);
        Ok(buffered_pass(&mut buffer, x, &mut ewise, self.os, self.is))
    }

    /// Runs `iterations` loop iterations like the schedule loop's
    /// `iterate`, but every fused pair goes through **one** dual buffer
    /// kept alive across passes (passes only reset residency bookkeeping,
    /// never reallocate). Statistics accumulate across passes (peak is
    /// the maximum); the trailing odd iteration (if any) runs as a plain
    /// `vxm` and charges one matrix image of fetch traffic.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if `x0` does not match
    /// the arena's dimension.
    pub fn iterate<F>(
        self,
        x0: &DenseVector,
        mut ewise: F,
        iterations: usize,
    ) -> Result<(DenseVector, DualBufferStats), TensorError>
    where
        F: FnMut(usize, f64) -> f64,
    {
        check_len(self.arena, x0)?;
        let (arena, os, is) = (self.arena, self.os, self.is);
        let mut buffer =
            DualBuffer::with_sink(arena, self.mode.capacity_bytes, 0.5, self.mode.sink);
        let mut totals = DualBufferStats::default();
        let x = iterate_pairs(arena, os, x0, &mut ewise, iterations, |x, ewise| {
            let (pass, stats) = buffered_pass(&mut buffer, x, ewise, os, is);
            totals.fetched_bytes += stats.fetched_bytes;
            totals.refetch_bytes += stats.refetch_bytes;
            totals.peak_bytes = totals.peak_bytes.max(stats.peak_bytes);
            totals.evicted_rows += stats.evicted_rows;
            totals.repacks += stats.repacks;
            totals.reservations += stats.reservations;
            pass
        });
        if iterations % 2 == 1 {
            totals.fetched_bytes += arena.nnz() * ELEM_BYTES;
        }
        Ok((x, totals))
    }
}

fn check_len(arena: &MatrixArena, x: &DenseVector) -> Result<(), TensorError> {
    let n = arena.n() as usize;
    if x.len() == n {
        Ok(())
    } else {
        Err(TensorError::DimensionMismatch {
            context: format!("fused pass: x len {} vs n {n}", x.len()),
        })
    }
}

/// The OS stage's semiring dot product of column `c` with `x`.
fn os_dot(arena: &MatrixArena, os: SemiringOp, x: &DenseVector, c: u32) -> f64 {
    let (rows, vals) = arena.col(c);
    let mut acc = os.zero();
    for (&r, &v) in rows.iter().zip(vals) {
        acc = os.add(acc, os.mul(x[r as usize], v));
    }
    acc
}

/// The iteration driver shared by both loops: `pass` fuses iterations
/// pairwise; the IS output is the *raw* second `vxm`, whose e-wise runs
/// fused with the next pass's OS input preparation (Fig 13) —
/// functionally just the chain applied per element. An odd trailing
/// iteration is one unfused `vxm` + e-wise.
fn iterate_pairs<F>(
    arena: &MatrixArena,
    os: SemiringOp,
    x0: &DenseVector,
    ewise: &mut F,
    iterations: usize,
    mut pass: impl FnMut(&DenseVector, &mut F) -> FusedPassOutput,
) -> DenseVector
where
    F: FnMut(usize, f64) -> f64,
{
    let mut x = x0.clone();
    for _ in 0..iterations / 2 {
        let out = pass(&x, ewise);
        x = out
            .y2
            .iter()
            .enumerate()
            .map(|(c, &v)| ewise(c, v))
            .collect();
    }
    if iterations % 2 == 1 {
        x = (0..arena.n())
            .map(|c| ewise(c as usize, os_dot(arena, os, &x, c)))
            .collect();
    }
    x
}

/// The dual-buffer mechanism loop: resets the buffer
/// ([`DualBuffer::begin_pass`]) and sweeps every column through the OS →
/// e-wise → IS stages, with the deferred-IS, refetch-after-eviction, and
/// capacity-enforcement paths of the hardware loader.
fn buffered_pass<F, S>(
    buffer: &mut DualBuffer<'_, S>,
    x: &DenseVector,
    ewise: &mut F,
    os: SemiringOp,
    is: SemiringOp,
) -> (FusedPassOutput, DualBufferStats)
where
    F: FnMut(usize, f64) -> f64,
    S: TraceSink,
{
    let arena = buffer.arena();
    let n = arena.n() as usize;
    buffer.begin_pass();
    let mut evicted = RowSet::with_capacity(n);
    let mut evicted_now: Vec<u32> = Vec::new();
    let mut y1 = DenseVector::zeros(n);
    let mut x2 = DenseVector::zeros(n);
    let mut y2 = DenseVector::filled(n, is.zero());

    for c in 0..n as u32 {
        // ---- CSC loader: fetch column c; the converter routes each
        // element to the CSR space (rows ≥ c) or the deferred path. ----
        buffer.fetch_column(c, c);
        // deferred-IS: rows the IS stage already passed scatter now.
        // Column slices are strictly ascending, so those rows are the
        // `r < c` prefix — split once instead of testing every element,
        // and accumulate into a register instead of re-reading `y2[c]`
        // (same operation order, so results stay bitwise identical).
        let (rows, vals) = arena.col(c);
        let deferred = rows.partition_point(|&r| r < c);
        if deferred > 0 {
            let mut cell = y2[c as usize];
            for (&r, &v) in rows[..deferred].iter().zip(&vals[..deferred]) {
                cell = is.add(cell, is.mul(x2[r as usize], v));
            }
            y2[c as usize] = cell;
        }

        // ---- OS core: dot of column c (read from the buffer). ----
        let (os_rows, os_vals) = buffer.consume_column(c).expect("column was just fetched");
        let mut acc = os.zero();
        for (&r, &v) in os_rows.iter().zip(os_vals) {
            acc = os.add(acc, os.mul(x[r as usize], v));
        }
        y1[c as usize] = acc;

        // ---- E-Wise core. ----
        let e = ewise(c as usize, acc);
        x2[c as usize] = e;

        // ---- IS core: scatter row c from the CSR space. ----
        let window = buffer.consume_row(c);
        let arrived = window.len();
        for (&col, &v) in arena
            .csr_cols_at(window.clone())
            .iter()
            .zip(arena.csr_vals_at(window.clone()))
        {
            let cell = &mut y2[col as usize];
            *cell = is.add(*cell, is.mul(e, v));
        }
        // If this row was evicted earlier, its already-passed columns were
        // lost from the CSR space: re-fetch exactly the missing ones. The
        // stored window grows contiguously, so the missing elements are
        // exactly the positions before it (all with column < c); with
        // nothing re-stored, they are every position with column < c.
        if evicted.remove(c) {
            let (row_start, _) = arena.row_range(c);
            let miss_end = if arrived == 0 {
                row_start + arena.row(c).0.partition_point(|&col| col < c)
            } else {
                window.start
            };
            for (&col, &v) in arena
                .csr_cols_at(row_start..miss_end)
                .iter()
                .zip(arena.csr_vals_at(row_start..miss_end))
            {
                let cell = &mut y2[col as usize];
                *cell = is.add(*cell, is.mul(e, v));
            }
            buffer.charge_refetch(miss_end - row_start);
        }
        // Elements of row c in columns > c arrive later through the
        // deferred path; release their share of the reservation now.
        let total = arena.row_nnz(c);
        buffer.consume_deferred(c, total.saturating_sub(arrived));

        // ---- Capacity enforcement (protect the current frontier). ----
        evicted_now.clear();
        buffer.enforce_capacity_into(c, &mut evicted_now);
        for &r in &evicted_now {
            evicted.insert(r);
        }
    }

    (FusedPassOutput { y1, x2, y2 }, buffer.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_tensor::{gen, CooMatrix};

    fn vxm_runtime(m: &CooMatrix, x: &DenseVector, s: SemiringOp) -> DenseVector {
        m.to_csc()
            .vxm_with(x, s.zero(), |a, b| s.mul(a, b), |a, b| s.add(a, b))
            .unwrap()
    }

    /// An input vector valid in every semiring's domain (boolean for
    /// `AndOr`), and an e-wise chain that keeps it there.
    fn domain_input(n: usize, s: SemiringOp) -> (DenseVector, impl Fn(usize, f64) -> f64 + Copy) {
        let boolean = s == SemiringOp::AndOr;
        let x = (0..n)
            .map(|i| {
                if boolean {
                    f64::from(u8::from(i % 3 == 0))
                } else {
                    (i % 7) as f64 * 0.25
                }
            })
            .collect();
        // boolean domain: identity keeps values in {0,1}
        let ew = move |_: usize, v: f64| if boolean { v } else { v * 0.5 + 1.0 };
        (x, ew)
    }

    fn assert_bitwise(a: &DenseVector, b: &DenseVector, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (p, q)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}[{i}]: {p} vs {q}");
        }
    }

    fn assert_outputs_bitwise(a: &FusedPassOutput, b: &FusedPassOutput, what: &str) {
        assert_bitwise(&a.y1, &b.y1, &format!("{what} y1"));
        assert_bitwise(&a.x2, &b.x2, &format!("{what} x2"));
        assert_bitwise(&a.y2, &b.y2, &format!("{what} y2"));
    }

    /// The central invariant: the fused single-sweep schedule equals the
    /// sequential operator-by-operator execution, for every semiring.
    #[test]
    fn fused_pass_equals_sequential_for_all_semirings() {
        let m = gen::power_law(128, 1200, 1.0, 0.5, 11);
        let arena = MatrixArena::from_coo(&m);
        for s in SemiringOp::ALL {
            let (x, ew) = domain_input(128, s);
            let out = FusedPass::new(&arena, s, s).run(&x, ew).unwrap();
            // sequential: y1, then e-wise, then second vxm
            let y1 = vxm_runtime(&m, &x, s);
            let x2: DenseVector = y1.iter().enumerate().map(|(i, &v)| ew(i, v)).collect();
            let y2 = vxm_runtime(&m, &x2, s);
            assert_eq!(out.y1, y1, "y1 mismatch for {s:?}");
            assert_eq!(out.x2, x2, "x2 mismatch for {s:?}");
            for (a, b) in out.y2.iter().zip(y2.iter()) {
                assert!(
                    (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                    "y2 mismatch for {s:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn ewise_sees_elements_in_step_order() {
        let arena = MatrixArena::from_coo(&gen::uniform(50, 50, 300, 4));
        let x = DenseVector::filled(50, 1.0);
        let mut seen = Vec::new();
        let _ = FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd)
            .run(&x, |c, v| {
                seen.push(c);
                v
            })
            .unwrap();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_shape_mismatch() {
        let arena = MatrixArena::from_coo(&gen::uniform(20, 20, 50, 1));
        let bad_x = DenseVector::zeros(19);
        let pass = || FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd);
        let is_mismatch = |e: TensorError| matches!(e, TensorError::DimensionMismatch { .. });
        assert!(is_mismatch(pass().run(&bad_x, |_, v| v).unwrap_err()));
        assert!(is_mismatch(
            pass()
                .subtensor(4)
                .iterate(&bad_x, |_, v| v, 2)
                .unwrap_err()
        ));
        assert!(is_mismatch(
            pass().buffer(1 << 20).run(&bad_x, |_, v| v).unwrap_err()
        ));
        assert!(is_mismatch(
            pass()
                .buffer(1 << 20)
                .iterate(&bad_x, |_, v| v, 3)
                .unwrap_err()
        ));
    }

    #[test]
    fn subtensor_pass_equals_element_pass() {
        let arena = MatrixArena::from_coo(&gen::power_law(100, 900, 1.2, 0.4, 21));
        for s in SemiringOp::ALL {
            let (x, ew) = domain_input(100, s);
            let reference = FusedPass::new(&arena, s, s).run(&x, ew).unwrap();
            for t in [1usize, 3, 16, 100, 1000] {
                let wide = FusedPass::new(&arena, s, s)
                    .subtensor(t)
                    .run(&x, ew)
                    .unwrap();
                assert_outputs_bitwise(&wide, &reference, &format!("{s:?} t={t}"));
            }
        }
    }

    #[test]
    fn buffered_pass_equals_element_pass_with_ample_capacity() {
        let m = gen::power_law(120, 1000, 1.2, 0.4, 33);
        let arena = MatrixArena::from_coo(&m);
        for s in SemiringOp::ALL {
            let (x, ew) = domain_input(120, s);
            let reference = FusedPass::new(&arena, s, s).run(&x, ew).unwrap();
            let (out, stats) = FusedPass::new(&arena, s, s)
                .buffer(64 << 20)
                .run(&x, ew)
                .unwrap();
            assert_outputs_bitwise(&out, &reference, &format!("{s:?}"));
            assert_eq!(stats.evicted_rows, 0);
            assert_eq!(stats.refetch_bytes, 0);
            assert_eq!(stats.fetched_bytes, m.nnz() * ELEM_BYTES);
        }
    }

    /// Under severe capacity pressure the buffered pass must evict and
    /// re-fetch — but never change the computed values. This is the
    /// mechanism-level proof that OOM handling preserves correctness.
    #[test]
    fn buffered_pass_is_exact_under_eviction_pressure() {
        // anti-diagonal structure: worst-case reuse distance, heavy
        // reservation pressure
        let m = gen::locality_mix(
            200,
            3000,
            gen::LocalityMix {
                long_frac: 0.2,
                anti_frac: 0.7,
                local_span_frac: 0.05,
                skew: 0.0,
            },
            7,
        );
        let arena = MatrixArena::from_coo(&m);
        let x = DenseVector::filled(200, 0.5);
        let ew = |_: usize, v: f64| v * 0.9 + 0.05;
        let pass = || FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd);
        let reference = pass().run(&x, ew).unwrap();
        // capacity for ~15% of the matrix
        let cap = m.nnz() * ELEM_BYTES / 7;
        let (out, stats) = pass().buffer(cap).run(&x, ew).unwrap();
        assert!(stats.evicted_rows > 0, "pressure test needs evictions");
        assert!(stats.refetch_bytes > 0, "evictions must cause refetches");
        assert!(stats.peak_bytes <= cap + 200 * 3 * ELEM_BYTES);
        assert_outputs_bitwise(&out, &reference, "pressure");
    }

    /// The concrete buffer's traffic agrees qualitatively with the
    /// abstract timing model: both fetch each element once with an ample
    /// buffer; both refetch under the same pressure.
    #[test]
    fn buffered_stats_cross_validate_timing_model() {
        use crate::pipeline::{PassParams, PassRequest};
        use crate::plan::PassPlan;
        let m = gen::uniform(400, 400, 4000, 5);
        let arena = MatrixArena::from_coo(&m);
        let x = DenseVector::filled(400, 1.0);
        let params = PassParams {
            feature: 1.0,
            ewise_arith_per_elem: 2.0,
            ewise_iterations: 2.0,
            dense_flops_per_element: 0.0,
            vec_read_passes: 3.0,
            vec_write_passes: 2.0,
        };
        let cfg_of = |buf: usize| crate::SparsepipeConfig {
            subtensor_cols: 1,
            ..crate::SparsepipeConfig::iso_gpu()
                .with_buffer(buf)
                .with_preprocessing(crate::Preprocessing::none())
        };
        for buf in [64 << 20, m.nnz() * 12 / 6] {
            let (_, mech) = FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd)
                .buffer(buf)
                .run(&x, |_, v| v)
                .unwrap();
            let plan = PassPlan::build(&m, 1);
            let abstract_model = PassRequest::new(&plan, &cfg_of(buf)).params(params).run();
            let mech_pressure = mech.refetch_bytes > 0;
            let model_pressure = abstract_model.traffic.refetch_bytes > 0.0;
            assert_eq!(
                mech_pressure, model_pressure,
                "mechanism and model disagree on pressure at buf={buf}"
            );
        }
    }

    #[test]
    fn iterate_equals_sequential_any_iteration_count() {
        let m = gen::uniform(60, 60, 400, 13);
        let arena = MatrixArena::from_coo(&m);
        let x0 = DenseVector::filled(60, 0.25);
        for iters in [0usize, 1, 2, 3, 4, 7, 10] {
            let fused = FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd)
                .iterate(&x0, |_, v| v * 0.5 + 0.1, iters)
                .unwrap();
            let mut seq = x0.clone();
            for _ in 0..iters {
                let y = vxm_runtime(&m, &seq, SemiringOp::MulAdd);
                seq = y.iter().map(|&v| v * 0.5 + 0.1).collect();
            }
            assert!(fused.max_abs_diff(&seq).unwrap() < 1e-9, "iters={iters}");
        }
    }

    #[test]
    fn buffered_iterate_matches_schedule_iterate() {
        let m = gen::power_law(80, 700, 1.0, 0.5, 41);
        let arena = MatrixArena::from_coo(&m);
        let x0 = DenseVector::filled(80, 0.1);
        let ew = |_: usize, v: f64| v * 0.85 + 0.15;
        let pass = || FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MulAdd);
        for iters in [0usize, 1, 2, 5, 8] {
            let plain = pass().iterate(&x0, ew, iters).unwrap();
            // cramped capacity: evictions occur, values must not change
            let cap = m.nnz() * ELEM_BYTES / 5;
            let (buffered, stats) = pass().buffer(cap).iterate(&x0, ew, iters).unwrap();
            assert_bitwise(&buffered, &plain, &format!("iters={iters}"));
            // each full pass fetches exactly one matrix image on demand
            let images = (iters / 2) + (iters % 2);
            assert_eq!(
                stats.fetched_bytes,
                images * m.nnz() * ELEM_BYTES,
                "iters={iters}"
            );
        }
    }

    #[test]
    fn tropical_sssp_converges_like_bellman_ford() {
        // SSSP via fused passes: dist' = min(dist, dist (min,+) A) — the
        // e-wise min against the previous value needs closure state.
        let m = gen::road(80, 400, 0.05, 17);
        let arena = MatrixArena::from_coo(&m);
        let mut dist = DenseVector::filled(80, f64::INFINITY);
        dist[0] = 0.0;
        // run 8 iterations, pairwise-fused, threading the "previous"
        // vector through a RefCell-free clone per iteration boundary
        let mut x = dist.clone();
        for _ in 0..4 {
            let prev = x.clone();
            let pass = FusedPass::new(&arena, SemiringOp::MinAdd, SemiringOp::MinAdd)
                .run(&x, |c, v| v.min(prev[c]))
                .unwrap();
            let mid = pass.x2.clone();
            x = pass
                .y2
                .iter()
                .enumerate()
                .map(|(c, &v)| v.min(mid[c]))
                .collect();
        }
        // reference Bellman-Ford, 8 rounds
        let mut ref_dist = vec![f64::INFINITY; 80];
        ref_dist[0] = 0.0;
        for _ in 0..8 {
            let mut next = ref_dist.clone();
            for &(r, c, w) in m.entries() {
                let cand = ref_dist[r as usize] + w;
                if cand < next[c as usize] {
                    next[c as usize] = cand;
                }
            }
            ref_dist = next;
        }
        for (a, b) in x.iter().zip(ref_dist.iter()) {
            assert!(
                (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn mixed_semirings_compose() {
        // OS in MulAdd, IS in MinAdd — mixed stationarity AND mixed
        // semirings (two different fused vxm ops).
        let m = gen::uniform(40, 40, 200, 6);
        let arena = MatrixArena::from_coo(&m);
        let x = DenseVector::filled(40, 0.5);
        let out = FusedPass::new(&arena, SemiringOp::MulAdd, SemiringOp::MinAdd)
            .run(&x, |_, v| v + 1.0)
            .unwrap();
        let y1 = vxm_runtime(&m, &x, SemiringOp::MulAdd);
        let x2: DenseVector = y1.iter().map(|&v| v + 1.0).collect();
        let y2 = vxm_runtime(&m, &x2, SemiringOp::MinAdd);
        assert_eq!(out.y2, y2);
    }
}
