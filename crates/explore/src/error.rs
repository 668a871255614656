//! Typed errors of the exploration engine.

use crate::spec::{
    BiasProfile, SkewProfile, MAX_JOBS, MAX_SIM_VECTORS, MAX_SOURCE_TERMS, MAX_WIDTH,
};
use dpsyn_baselines::BaselineError;
use std::error::Error;
use std::fmt;

/// Errors produced while building or running an exploration.
///
/// Every malformed specification is reported as a typed error instead of a panic, so
/// harnesses that assemble `ExplorationSpec`s from user input (sweep scripts, CI
/// drivers) can reject bad configurations gracefully.
#[derive(Debug)]
pub enum ExploreError {
    /// The specification enumerates no jobs at all (no sources or no flows).
    EmptyMatrix,
    /// The specification enumerates more than [`MAX_JOBS`] jobs; the count
    /// saturates at `usize::MAX`.
    TooManyJobs(usize),
    /// The `threads` field is explicitly zero; at least one thread must run the
    /// jobs. (Leaving `threads` unset defaults to the host's available parallelism
    /// instead.)
    ZeroWorkers,
    /// The width axis contains a zero; operands need at least one bit.
    ZeroWidth,
    /// A workload source was declared but the width axis is empty, so the source would
    /// silently contribute no jobs.
    MissingWidths,
    /// The width axis contains a width above [`MAX_WIDTH`] (a variable's value is a
    /// `u64`).
    WidthTooLarge(u32),
    /// A workload source has no operands / product terms to sum.
    EmptySource,
    /// A workload source asks for more than [`MAX_SOURCE_TERMS`] operands / product
    /// terms.
    SourceTooLarge(usize),
    /// An arrival-skew profile carries a negative or non-finite maximum arrival.
    InvalidSkew(f64),
    /// Two arrival-skew profiles describe the same arrival range, so the cross product
    /// would enumerate duplicate jobs.
    ConflictingSkews(SkewProfile, SkewProfile),
    /// A probability-bias profile falls outside `[0, 0.5]` (probabilities would escape
    /// `[0, 1]`) or is not finite.
    InvalidBias(f64),
    /// Two probability-bias profiles describe the same probability range.
    ConflictingBiases(BiasProfile, BiasProfile),
    /// A simulated-activity request asks for fewer than 2 stimulus vectors (toggle
    /// rates need at least one vector-to-vector transition) or more than
    /// [`MAX_SIM_VECTORS`].
    InvalidSimVectors(usize),
    /// The simulated switching-activity metric failed on one job (technology
    /// resolution of the synthesized netlist's program; a structure that does not
    /// compile fails its analysis first, as [`ExploreError::Flow`]).
    Sim {
        /// Label of the failing job (design, axes and flow).
        job: String,
        /// What went wrong.
        message: String,
    },
    /// A synthesis flow failed on one job of the matrix.
    Flow {
        /// Label of the failing job (design, axes and flow).
        job: String,
        /// The underlying flow error.
        source: BaselineError,
    },
    /// A worker thread died outside the supervised per-job evaluation (scheduler
    /// internals). Panics *inside* an evaluation are caught, retried and
    /// quarantined by the engine instead
    /// ([`ExplorationResults::quarantined`](crate::ExplorationResults::quarantined)),
    /// so this is a thread-level fallback that healthy and fault-injected sweeps
    /// alike should never hit.
    WorkerPanic {
        /// Index of the job whose result slot was left unfilled by the dead
        /// worker.
        job: usize,
    },
    /// The persistent result store failed on a true I/O operation (corrupt or
    /// stale *content* never errors — it is rebuilt or skipped instead).
    Store {
        /// The memo file involved.
        path: std::path::PathBuf,
        /// What went wrong.
        message: String,
    },
    /// The exploration server failed to bind, accept or speak its socket
    /// protocol.
    Serve {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::EmptyMatrix => {
                write!(f, "the exploration matrix is empty: no jobs to run")
            }
            ExploreError::TooManyJobs(count) => write!(
                f,
                "the exploration matrix enumerates {count} jobs; at most {MAX_JOBS} jobs \
                 run per specification"
            ),
            ExploreError::ZeroWorkers => {
                write!(
                    f,
                    "`threads` is zero; at least one worker thread is required \
                     (leave it unset to default to the available parallelism)"
                )
            }
            ExploreError::ZeroWidth => {
                write!(
                    f,
                    "the width axis contains 0; operands need at least one bit"
                )
            }
            ExploreError::MissingWidths => write!(
                f,
                "a workload source needs a non-empty width axis to enumerate jobs"
            ),
            ExploreError::WidthTooLarge(width) => write!(
                f,
                "the width axis contains {width}; operands have at most {MAX_WIDTH} bits"
            ),
            ExploreError::EmptySource => {
                write!(f, "a workload source has no operands to sum")
            }
            ExploreError::SourceTooLarge(count) => write!(
                f,
                "a workload source asks for {count} operands; at most {MAX_SOURCE_TERMS} \
                 operands or product terms are summed"
            ),
            ExploreError::InvalidSkew(max_arrival) => write!(
                f,
                "arrival-skew profile with max arrival {max_arrival} is invalid \
                 (must be finite and non-negative)"
            ),
            ExploreError::ConflictingSkews(first, second) => write!(
                f,
                "arrival-skew profiles {first} and {second} conflict: they describe \
                 the same arrival range and would enumerate duplicate jobs"
            ),
            ExploreError::InvalidBias(bias) => write!(
                f,
                "probability-bias profile {bias} is invalid (must be finite and \
                 within [0, 0.5])"
            ),
            ExploreError::ConflictingBiases(first, second) => write!(
                f,
                "probability-bias profiles {first} and {second} conflict: they \
                 describe the same probability range and would enumerate duplicate jobs"
            ),
            ExploreError::InvalidSimVectors(vectors) if *vectors < 2 => write!(
                f,
                "simulated activity with {vectors} vector(s) is invalid (at least 2 \
                 vectors are needed to witness a toggle)"
            ),
            ExploreError::InvalidSimVectors(vectors) => write!(
                f,
                "simulated activity with {vectors} vector(s) is invalid (at most \
                 {MAX_SIM_VECTORS} vectors are simulated per point)"
            ),
            ExploreError::Sim { job, message } => {
                write!(f, "simulated activity failed on job `{job}`: {message}")
            }
            ExploreError::Flow { job, source } => {
                write!(f, "flow failed on job `{job}`: {source}")
            }
            ExploreError::WorkerPanic { job } => {
                write!(f, "a worker thread panicked while evaluating job {job}")
            }
            ExploreError::Store { path, message } => {
                write!(f, "result store `{}` failed: {message}", path.display())
            }
            ExploreError::Serve { message } => {
                write!(f, "exploration server failed: {message}")
            }
        }
    }
}

impl Error for ExploreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExploreError::Flow { source, .. } => Some(source),
            _ => None,
        }
    }
}
