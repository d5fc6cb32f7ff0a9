//! The pass schedule: which matrix sweeps a run makes, how often each
//! repeats and how many iterations each covers, decided once for the
//! engine and the static analyzer (`sparsepipe_lint::analysis_cost`).

use sparsepipe_frontend::WorkloadProfile;

/// The program's OEI scheduling class (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OeiClass {
    /// PageRank-class: one matrix sweep serves two iterations, the OS
    /// `vxm` of iteration `i` and the IS `vxm` of iteration `i+1`.
    CrossIteration,
    /// KNN-class: the two matrix operators of one iteration share a sweep.
    WithinIteration,
    /// CG-class: every iteration re-streams the matrix; only
    /// producer-consumer (e-wise fusion) reuse applies.
    None,
}

impl OeiClass {
    /// The class the program's OEI analysis admits.
    pub fn of(profile: &WorkloadProfile) -> Self {
        match (profile.has_oei, profile.cross_iteration) {
            (false, _) => OeiClass::None,
            (true, true) => OeiClass::CrossIteration,
            (true, false) => OeiClass::WithinIteration,
        }
    }

    /// Iterations one fused sweep covers: 2 cross-iteration, else 1.
    pub fn span(self) -> f64 {
        match self {
            Self::CrossIteration => 2.0,
            _ => 1.0,
        }
    }
}

/// How the engine executes one scheduled pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// A fused OEI pipeline walk over the sub-tensor schedule.
    Fused,
    /// The unfused tail iteration of an odd cross-iteration run.
    UnfusedTail,
    /// The closed-form streaming model used when the graph has no OEI.
    ClosedForm,
    /// A Gustavson (SpGEMM) row-wise sweep of the mxm family.
    Mxm,
}

impl PassKind {
    /// Short lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PassKind::Fused => "fused",
            PassKind::UnfusedTail => "tail",
            PassKind::ClosedForm => "closed-form",
            PassKind::Mxm => "mxm",
        }
    }
}

/// One pass of a [`Schedule`]; its index in [`Schedule::passes`] is the
/// trace's `PassBoundary` ordinal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledPass {
    /// Execution model of the pass.
    pub kind: PassKind,
    /// Times the pass runs (the trace's `PassBoundary::repeats`).
    pub repeats: u64,
    /// Iterations one execution covers: the OEI span for a fused sweep,
    /// the whole run for the closed-form stream, else 1.
    pub share: f64,
}

/// The DRAM bytes of a closed-form stream pass
/// ([`ScheduledPass::stream_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamBytes {
    /// Matrix bytes one iteration streams.
    pub matrix: f64,
    /// Dense-vector bytes one iteration streams.
    pub vector: f64,
    /// The pass's `[CSC, vector read, write-back]` bytes.
    pub charged: [f64; 3],
}

impl ScheduledPass {
    /// The bytes of a [`PassKind::UnfusedTail`] or [`PassKind::ClosedForm`]
    /// pass over a matrix with `n` rows and `nnz` entries fetched at
    /// `fetch_b` bytes each: the odd tail of a cross-iteration run (one
    /// iteration, a fixed 60/40 read/write split), or the whole-run
    /// model of a graph without OEI (all `share` iterations in one pass,
    /// split by the fused read/write counts). The engine charges these
    /// bytes and the analyzer bounds them, so both read this one formula.
    pub fn stream_bytes(
        &self,
        profile: &WorkloadProfile,
        n: f64,
        nnz: f64,
        fetch_b: f64,
    ) -> StreamBytes {
        let (reads, writes) = (profile.fused_vector_reads, profile.fused_vector_writes);
        let vector = (reads + writes) * n * 8.0;
        let passes = profile.matrix_passes as f64;
        let (matrix, charged) = if self.kind == PassKind::UnfusedTail {
            let matrix = nnz * fetch_b * passes;
            (matrix, [matrix, vector * 0.6, vector * 0.4])
        } else {
            let matrix = passes * nnz * fetch_b;
            let read_share = reads / (reads + writes).max(1e-9);
            let iters = self.share;
            let read = vector * iters * read_share;
            (
                matrix,
                [matrix * iters, read, vector * iters * (1.0 - read_share)],
            )
        };
        StreamBytes {
            matrix,
            vector,
            charged,
        }
    }
}

/// The typed scheduling decisions of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The program's OEI class.
    pub oei: OeiClass,
    /// Whether the Gustavson mxm stage runs the passes.
    pub mxm: bool,
    /// Iterations the run covers.
    pub iterations: usize,
    /// The passes, in execution order.
    pub passes: Vec<ScheduledPass>,
}

/// Fused units and unfused tail iterations: cross-iteration OEI fuses
/// iterations in pairs, leaving an odd one over; otherwise every
/// iteration is a unit of its own.
fn fused_and_tail(oei: OeiClass, iterations: usize) -> (usize, usize) {
    if oei == OeiClass::CrossIteration {
        (iterations / 2, iterations % 2)
    } else {
        (iterations, 0)
    }
}

impl Schedule {
    /// Schedules `iterations` of the program `profile` describes.
    pub fn new(profile: &WorkloadProfile, iterations: usize) -> Self {
        let oei = OeiClass::of(profile);
        let mxm = profile.mxm_passes > 0;
        let (fused, tail) = fused_and_tail(oei, iterations);
        let pass = |kind, units: usize, share| ScheduledPass {
            kind,
            repeats: units as u64,
            share,
        };
        let passes = match (mxm, oei) {
            // An mxm unit sweeps the stationary rows once per mxm operator.
            (true, _) => vec![
                pass(PassKind::Mxm, fused * profile.mxm_passes, oei.span()),
                pass(PassKind::Mxm, tail * profile.mxm_passes, 1.0),
            ],
            // Without OEI one closed-form pass carries the whole run.
            (false, OeiClass::None) => vec![pass(PassKind::ClosedForm, 1, iterations as f64)],
            (false, _) => vec![
                pass(PassKind::Fused, fused, oei.span()),
                pass(PassKind::UnfusedTail, tail, 1.0),
            ],
        };
        let passes = passes.into_iter().filter(|p| p.repeats > 0).collect();
        Schedule {
            oei,
            mxm,
            iterations,
            passes,
        }
    }

    /// The decisions as human-readable notes, one line each.
    pub fn notes(&self) -> Vec<String> {
        let (fused, tail) = fused_and_tail(self.oei, self.iterations);
        let n = self.iterations;
        let mut notes = vec![match (self.mxm, self.oei) {
            (true, OeiClass::CrossIteration) => format!(
                "cross-iteration OEI across mxm: {fused} fused unit(s), each covering 2 iterations"
            ),
            (true, _) => format!(
                "mxm family without cross-iteration reuse: {n} row-wise sweep(s) per mxm pass"
            ),
            (false, OeiClass::CrossIteration) => {
                format!("cross-iteration OEI: {fused} fused pass(es), each covering 2 iterations")
            }
            (false, OeiClass::WithinIteration) => {
                format!("within-iteration OEI: {n} pass(es), both matrix operators on one sweep")
            }
            (false, OeiClass::None) => {
                format!("no OEI: {n} sequential iteration(s), producer-consumer fusion only")
            }
        }];
        if tail > 0 {
            notes.push(if self.mxm {
                "odd iteration count: trailing iteration's mxm sweep runs unfused".into()
            } else {
                "odd iteration count: trailing iteration runs unfused at roofline".into()
            });
        }
        notes
    }
}
