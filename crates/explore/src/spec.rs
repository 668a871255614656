//! The exploration specification: which design points to visit and how.
//!
//! An [`ExplorationSpec`] is the cross product of four axes — expression sources,
//! operand widths, input-arrival skew profiles and signal-probability biases — times
//! the set of synthesis [`Flow`]s to run on every point. [`ExplorationSpec::jobs`]
//! enumerates the matrix in a fixed nested-loop order (source, width, skew, bias,
//! flow), which is what makes every exploration deterministic regardless of how many
//! worker threads later execute it.

use crate::error::ExploreError;
use crate::job::Job;
use dpsyn_baselines::Flow;
use dpsyn_designs::workloads::{random_sum, random_sum_of_products, SumWorkload};
use dpsyn_designs::Design;
use dpsyn_tech::TechLibrary;
use std::fmt;

/// One source of expressions for the exploration matrix.
#[derive(Debug, Clone)]
pub enum ExprSource {
    /// A fixed benchmark design (e.g. one of the paper's ten); the width axis does not
    /// apply, skew/bias profiles re-draw its input profiles deterministically.
    Fixed(Design),
    /// The `random_sum` workload generator: a sum of `operands` operands, crossed with
    /// every width on the width axis; skew/bias profiles feed straight into the
    /// generator's `max_arrival` / `probability_skew` parameters.
    Sum {
        /// Number of operands added together.
        operands: usize,
    },
    /// The `random_sum_of_products` workload generator: `terms` two-operand products,
    /// crossed with every width; skew/bias profiles re-draw the generated profiles.
    SumOfProducts {
        /// Number of product terms.
        terms: usize,
    },
}

impl ExprSource {
    /// Short label used in job names.
    pub fn label(&self) -> String {
        match self {
            ExprSource::Fixed(design) => design.name().to_string(),
            ExprSource::Sum { operands } => format!("sum{operands}"),
            ExprSource::SumOfProducts { terms } => format!("sop{terms}"),
        }
    }

    fn is_workload(&self) -> bool {
        !matches!(self, ExprSource::Fixed(_))
    }

    /// Whether the source feeds skew/bias profiles straight into `SumWorkload`
    /// parameters (only `random_sum` does; fixed designs and sum-of-products sources
    /// are re-profiled after generation, where `Keep` preserves non-trivial profiles).
    fn maps_profiles_to_workload_params(&self) -> bool {
        matches!(self, ExprSource::Sum { .. })
    }
}

/// `Display` for the two profile enums: `keep` or the bare uniform-range value (the
/// surrounding text — job labels, error messages — names the axis).
macro_rules! fmt_profile_display {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Self::Keep => write!(f, "keep"),
                Self::Uniform(value) => write!(f, "{value}"),
            }
        }
    };
}

/// An input-arrival skew profile: how the arrival times of a design point are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkewProfile {
    /// Keep the arrival times of the source (fixed designs and sum-of-products
    /// workloads keep their generated profile; `random_sum` workloads use
    /// arrival 0.0).
    Keep,
    /// Per-bit arrivals drawn uniformly from `[0, max_arrival]`, deterministically
    /// from the exploration seed.
    Uniform(f64),
}

impl SkewProfile {
    /// The `max_arrival` the workload generators should draw from.
    pub(crate) fn workload_max_arrival(&self) -> f64 {
        match self {
            SkewProfile::Keep => 0.0,
            SkewProfile::Uniform(max_arrival) => *max_arrival,
        }
    }

    /// Whether two profiles describe the same arrival range (and would therefore
    /// enumerate duplicate jobs): exact duplicates always conflict; `Keep` and
    /// `Uniform(0.0)` additionally conflict when a `random_sum` workload source is
    /// present, because that generator maps both to `max_arrival = 0.0`. (Fixed
    /// designs and sum-of-products sources are unaffected: `Keep` preserves their
    /// non-trivial profiles while `Uniform(0.0)` zeroes them.)
    pub(crate) fn conflicts_with(&self, other: &SkewProfile, has_sum_workloads: bool) -> bool {
        if self == other {
            return true;
        }
        has_sum_workloads && self.workload_max_arrival() == other.workload_max_arrival()
    }
}

impl fmt::Display for SkewProfile {
    fmt_profile_display!();
}

/// A signal-probability bias profile: how the probabilities of a design point are
/// drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BiasProfile {
    /// Keep the probabilities of the source (fixed designs and sum-of-products
    /// workloads keep their generated profile; `random_sum` workloads use
    /// probability 0.5).
    Keep,
    /// Per-bit probabilities drawn uniformly from `[0.5 − bias, 0.5 + bias]`,
    /// deterministically from the exploration seed.
    Uniform(f64),
}

impl BiasProfile {
    /// The `probability_skew` the workload generators should draw from.
    pub(crate) fn workload_probability_skew(&self) -> f64 {
        match self {
            BiasProfile::Keep => 0.0,
            BiasProfile::Uniform(bias) => *bias,
        }
    }

    /// Same duplicate-range rule as [`SkewProfile::conflicts_with`].
    pub(crate) fn conflicts_with(&self, other: &BiasProfile, has_sum_workloads: bool) -> bool {
        if self == other {
            return true;
        }
        has_sum_workloads && self.workload_probability_skew() == other.workload_probability_skew()
    }
}

impl fmt::Display for BiasProfile {
    fmt_profile_display!();
}

/// The simulated switching-activity metric of a sweep: when attached to a
/// specification, every evaluated point is additionally simulated on the SIMD block
/// engine of `dpsyn-sim` under `vectors` seeded biased stimulus vectors, producing a
/// `simulated_switch_power` beside the analytic power figure.
///
/// One compiled block program and one pre-drawn stimulus batch are shared by every
/// skew/bias point of a `(source, width, flow)` group, the same way timing and power
/// reuse the primed delta state — see `crate::explore`'s engine docs. The seed and
/// vector count are part of every persistent-store key (the stimulus digest), so a
/// simulated run can never alias a non-simulated one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimActivity {
    /// Seed of the shared stimulus batch (independent of the exploration seed).
    pub seed: u64,
    /// Stimulus vectors simulated per design point: at least 2 (toggle rates need
    /// a transition) and at most [`MAX_SIM_VECTORS`].
    pub vectors: usize,
}

/// Upper bound on [`SimActivity::vectors`]. The shared stimulus batch holds one
/// `f64` per input bit per vector, so an unbounded count from a spec or a serve
/// request could ask for terabytes and abort the process; larger counts are
/// rejected with [`ExploreError::InvalidSimVectors`].
pub const MAX_SIM_VECTORS: usize = 65_536;

/// The full description of one design-space exploration.
///
/// Build one with [`ExplorationSpec::builder`]; the builder validates the axes and
/// returns a typed [`ExploreError`] for malformed specifications.
///
/// # Example
///
/// ```
/// use dpsyn_baselines::Flow;
/// use dpsyn_explore::{explore, ExplorationSpec, SkewProfile};
///
/// # fn main() -> Result<(), dpsyn_explore::ExploreError> {
/// let spec = ExplorationSpec::builder()
///     .design(dpsyn_designs::x_squared())
///     .sum_workload(3)
///     .widths([2, 3])
///     .skews([SkewProfile::Keep, SkewProfile::Uniform(2.0)])
///     .flows([Flow::FaAot, Flow::CsaOpt])
///     .threads(2)
///     .seed(7)
///     .build()?;
/// // x_squared contributes 2 skews × 2 flows, the sum workload 2 widths × 2 × 2.
/// assert_eq!(spec.jobs().len(), 4 + 8);
/// let results = explore(&spec)?;
/// assert_eq!(results.points().len(), 12);
/// assert!(!results.front_indices().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExplorationSpec {
    pub(crate) sources: Vec<ExprSource>,
    pub(crate) widths: Vec<u32>,
    pub(crate) skews: Vec<SkewProfile>,
    pub(crate) biases: Vec<BiasProfile>,
    pub(crate) flows: Vec<Flow>,
    pub(crate) tech: TechLibrary,
    pub(crate) seed: u64,
    pub(crate) threads: usize,
    /// Whether every evaluated point keeps its full [`dpsyn_baselines::FlowResult`].
    ///
    /// This is the **single** storage of the flag: the builder wraps a spec and
    /// writes it here directly, so there is no second copy to keep in sync. The
    /// engine honours it on every path — points evaluated through the per-worker
    /// compiled-program cache's delta path still retain a full artifact (the point's
    /// own synthesized netlist and word map plus the shared compiled program),
    /// bit-identical to what the non-cached path would have produced.
    pub(crate) retain_artifacts: bool,
    /// Memo file of the persistent cross-run result store, when one is attached.
    /// `None` (the default) runs the exploration without any persistence, exactly
    /// as before the store existed.
    pub(crate) store_path: Option<std::path::PathBuf>,
    /// The simulated switching-activity metric, when one is requested. `None` (the
    /// default) runs the purely analytic sweep, byte-identical to before the
    /// metric existed.
    pub(crate) sim_activity: Option<SimActivity>,
    /// The fault-injection plan, when one is attached. `None` (the default) runs
    /// with no injection hooks at all — the production path.
    pub(crate) faults: Option<std::sync::Arc<crate::faults::FaultPlan>>,
}

impl ExplorationSpec {
    /// Starts building a specification.
    pub fn builder() -> ExplorationSpecBuilder {
        ExplorationSpecBuilder::default()
    }

    /// The worker count the engine will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The technology library every flow synthesizes against.
    pub fn tech(&self) -> &TechLibrary {
        &self.tech
    }

    /// The seed behind every pseudo-random draw of the exploration.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The memo file of the persistent result store, when one is attached.
    pub fn store_path(&self) -> Option<&std::path::Path> {
        self.store_path.as_deref()
    }

    /// The simulated switching-activity metric, when one is requested.
    pub fn sim_activity(&self) -> Option<SimActivity> {
        self.sim_activity
    }

    /// The attached fault-injection plan, when one is attached (testing only).
    pub fn faults(&self) -> Option<&std::sync::Arc<crate::faults::FaultPlan>> {
        self.faults.as_ref()
    }

    /// Enumerates the job matrix in its canonical order: sources, then widths (for
    /// workload sources), then skew profiles, then bias profiles, then flows.
    ///
    /// The order is a pure function of the specification, so job indices are stable
    /// identifiers across runs and thread counts.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (source_index, source) in self.sources.iter().enumerate() {
            let fixed_width;
            let widths: &[u32] = match source {
                // A fixed design carries its own width; the width axis applies to
                // workload generators only.
                ExprSource::Fixed(design) => {
                    fixed_width = [design.output_width()];
                    &fixed_width
                }
                _ => &self.widths,
            };
            for &width in widths {
                for &skew in &self.skews {
                    for &bias in &self.biases {
                        for &flow in &self.flows {
                            jobs.push(Job::new(
                                jobs.len(),
                                source_index,
                                source.label(),
                                width,
                                skew,
                                bias,
                                flow,
                            ));
                        }
                    }
                }
            }
        }
        jobs
    }

    /// Materializes the design a job evaluates: the source expression with the job's
    /// width, skew profile and bias profile applied. Deterministic in the
    /// specification, so every flow sharing a design point sees the identical design.
    pub fn materialize(&self, job: &Job) -> Design {
        let source = &self.sources[job.source_index()];
        match source {
            ExprSource::Fixed(design) => self.reprofile(design.clone(), job),
            ExprSource::Sum { operands } => {
                let workload = SumWorkload {
                    operands: *operands,
                    width: job.width(),
                    max_arrival: job.skew().workload_max_arrival(),
                    probability_skew: job.bias().workload_probability_skew(),
                };
                random_sum(&workload, self.seed)
            }
            ExprSource::SumOfProducts { terms } => {
                let design = random_sum_of_products(*terms, job.width(), self.seed);
                self.reprofile(design, job)
            }
        }
    }

    /// Applies `Uniform` skew/bias profiles to an already-materialized design.
    ///
    /// The two redraws run on salted copies of the exploration seed so their random
    /// streams are independent: with a shared seed the latest-arriving bit would
    /// always also be the most-biased bit, confounding the skew and bias axes.
    fn reprofile(&self, design: Design, job: &Job) -> Design {
        const SKEW_SALT: u64 = 0x5B9D_3A42_C8F1_6E07;
        const BIAS_SALT: u64 = 0xA3C5_9F17_042D_B86B;
        let design = match job.skew() {
            SkewProfile::Keep => design,
            SkewProfile::Uniform(max_arrival) => {
                design.with_uniform_arrival_skew(self.seed ^ SKEW_SALT, max_arrival)
            }
        };
        match job.bias() {
            BiasProfile::Keep => design,
            BiasProfile::Uniform(bias) => design.with_probability_bias(self.seed ^ BIAS_SALT, bias),
        }
    }
}

/// Builder for [`ExplorationSpec`]; see the type-level example.
///
/// The builder wraps the specification it is assembling instead of duplicating every
/// field: each setter writes straight into the wrapped spec, and
/// [`build`](Self::build) only validates and unwraps it — there is no field-by-field
/// copy that could drift out of sync.
#[derive(Debug, Clone)]
pub struct ExplorationSpecBuilder {
    spec: ExplorationSpec,
    /// The explicitly requested worker count; `None` defaults to the host's
    /// available parallelism at [`build`](ExplorationSpecBuilder::build) time.
    threads: Option<usize>,
}

impl Default for ExplorationSpecBuilder {
    fn default() -> Self {
        ExplorationSpecBuilder {
            spec: ExplorationSpec {
                sources: Vec::new(),
                widths: Vec::new(),
                skews: Vec::new(),
                biases: Vec::new(),
                flows: Vec::new(),
                tech: TechLibrary::lcbg10pv_like(),
                seed: 1,
                threads: 1,
                retain_artifacts: false,
                store_path: None,
                sim_activity: None,
                faults: None,
            },
            threads: None,
        }
    }
}

impl ExplorationSpecBuilder {
    /// Adds a fixed benchmark design as a source.
    pub fn design(mut self, design: Design) -> Self {
        self.spec.sources.push(ExprSource::Fixed(design));
        self
    }

    /// Adds several fixed benchmark designs as sources.
    pub fn designs(mut self, designs: impl IntoIterator<Item = Design>) -> Self {
        self.spec
            .sources
            .extend(designs.into_iter().map(ExprSource::Fixed));
        self
    }

    /// Adds a `random_sum` workload source with the given operand count.
    pub fn sum_workload(mut self, operands: usize) -> Self {
        self.spec.sources.push(ExprSource::Sum { operands });
        self
    }

    /// Adds a `random_sum_of_products` workload source with the given term count.
    pub fn sum_of_products_workload(mut self, terms: usize) -> Self {
        self.spec.sources.push(ExprSource::SumOfProducts { terms });
        self
    }

    /// Adds one operand width to the width axis (workload sources only).
    pub fn width(mut self, width: u32) -> Self {
        self.spec.widths.push(width);
        self
    }

    /// Adds several operand widths to the width axis.
    pub fn widths(mut self, widths: impl IntoIterator<Item = u32>) -> Self {
        self.spec.widths.extend(widths);
        self
    }

    /// Adds one arrival-skew profile.
    pub fn skew(mut self, skew: SkewProfile) -> Self {
        self.spec.skews.push(skew);
        self
    }

    /// Adds several arrival-skew profiles.
    pub fn skews(mut self, skews: impl IntoIterator<Item = SkewProfile>) -> Self {
        self.spec.skews.extend(skews);
        self
    }

    /// Adds one probability-bias profile.
    pub fn bias(mut self, bias: BiasProfile) -> Self {
        self.spec.biases.push(bias);
        self
    }

    /// Adds several probability-bias profiles.
    pub fn biases(mut self, biases: impl IntoIterator<Item = BiasProfile>) -> Self {
        self.spec.biases.extend(biases);
        self
    }

    /// Adds one synthesis flow to run on every design point.
    pub fn flow(mut self, flow: Flow) -> Self {
        self.spec.flows.push(flow);
        self
    }

    /// Adds several synthesis flows.
    pub fn flows(mut self, flows: impl IntoIterator<Item = Flow>) -> Self {
        self.spec.flows.extend(flows);
        self
    }

    /// Sets the technology library (default: `lcbg10pv_like`).
    pub fn tech(mut self, tech: TechLibrary) -> Self {
        self.spec.tech = tech;
        self
    }

    /// Sets the seed behind every pseudo-random draw (default: 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the worker-thread count. When never called, [`build`](Self::build)
    /// defaults to the host's [`std::thread::available_parallelism`] (falling back
    /// to 1 when the host cannot report it). Results are bit-identical for every
    /// worker count; more workers only change the wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Keeps the synthesized netlist of every point in the results (default: false).
    /// Needed by equivalence cross-checks; large sweeps should leave this off.
    ///
    /// The flag is honoured uniformly: points the engine evaluates through the
    /// compiled-program cache's delta path retain exactly the same full per-point
    /// artifact (their own netlist and word map plus the shared compiled program) as
    /// points that ran the full analysis bundle.
    pub fn retain_artifacts(mut self, retain: bool) -> Self {
        self.spec.retain_artifacts = retain;
        self
    }

    /// Attaches the persistent cross-run result store at `path` (default: none).
    /// [`explore`](crate::explore) then loads the memo file before running, serves
    /// warm hits from it, and flushes the union of old and fresh records back
    /// atomically afterwards. Combined with
    /// [`retain_artifacts`](Self::retain_artifacts), store **lookups** are disabled
    /// (results are still recorded): a memoized record carries figures, not the
    /// synthesized netlist, so only fresh evaluation can honour the retention
    /// contract exactly.
    pub fn store(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.spec.store_path = Some(path.into());
        self
    }

    /// Requests the simulated switching-activity metric (default: none): every
    /// evaluated point is additionally simulated on the block engine under the
    /// given seeded stimulus, and carries a `simulated_switch_power` beside the
    /// analytic power figure. The summary rendering gains a simulated-power and an
    /// analytic-vs-simulated divergence column; sweeps without the metric render
    /// byte-identically to before it existed.
    pub fn sim_activity(mut self, activity: SimActivity) -> Self {
        self.spec.sim_activity = Some(activity);
        self
    }

    /// Attaches a deterministic [`FaultPlan`](crate::faults::FaultPlan) (default:
    /// none): job evaluations, store reads and store flushes then consult the
    /// plan and fail at exactly the steps it names. A plan carries its own step
    /// counters, so attach a **fresh** plan per run when replaying a scenario.
    /// Production sweeps never attach one.
    pub fn faults(mut self, plan: std::sync::Arc<crate::faults::FaultPlan>) -> Self {
        self.spec.faults = Some(plan);
        self
    }

    /// Validates the axes and produces the specification.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ExploreError`] when the `threads` field is explicitly zero,
    /// a width is zero, a workload source lacks widths or operands, a skew/bias profile is invalid or conflicts with another,
    /// a simulated-activity request asks for fewer than 2 or more than
    /// [`MAX_SIM_VECTORS`] vectors, or the matrix
    /// enumerates no jobs.
    pub fn build(mut self) -> Result<ExplorationSpec, ExploreError> {
        self.spec.threads = match self.threads {
            Some(0) => return Err(ExploreError::ZeroWorkers),
            Some(threads) => threads,
            // Unset: one worker per available core — the work-stealing scheduler
            // keeps them all fed and results are worker-count independent anyway.
            None => std::thread::available_parallelism().map_or(1, |cores| cores.get()),
        };
        if self.spec.widths.contains(&0) {
            return Err(ExploreError::ZeroWidth);
        }
        if let Some(activity) = self.spec.sim_activity {
            // Toggle rates divide by `vectors - 1` transitions; fewer than two
            // vectors cannot witness a single toggle.
            if !(2..=MAX_SIM_VECTORS).contains(&activity.vectors) {
                return Err(ExploreError::InvalidSimVectors(activity.vectors));
            }
        }
        let has_workloads = self.spec.sources.iter().any(ExprSource::is_workload);
        if has_workloads && self.spec.widths.is_empty() {
            return Err(ExploreError::MissingWidths);
        }
        let has_sum_workloads = self
            .spec
            .sources
            .iter()
            .any(ExprSource::maps_profiles_to_workload_params);
        for source in &self.spec.sources {
            match source {
                ExprSource::Sum { operands: 0 } | ExprSource::SumOfProducts { terms: 0 } => {
                    return Err(ExploreError::EmptySource);
                }
                _ => {}
            }
        }
        if self.spec.skews.is_empty() {
            self.spec.skews.push(SkewProfile::Keep);
        }
        if self.spec.biases.is_empty() {
            self.spec.biases.push(BiasProfile::Keep);
        }
        for skew in &self.spec.skews {
            if let SkewProfile::Uniform(max_arrival) = skew {
                if !max_arrival.is_finite() || *max_arrival < 0.0 {
                    return Err(ExploreError::InvalidSkew(*max_arrival));
                }
            }
        }
        for bias in &self.spec.biases {
            if let BiasProfile::Uniform(value) = bias {
                if !value.is_finite() || !(0.0..=0.5).contains(value) {
                    return Err(ExploreError::InvalidBias(*value));
                }
            }
        }
        for (index, first) in self.spec.skews.iter().enumerate() {
            for second in &self.spec.skews[index + 1..] {
                if first.conflicts_with(second, has_sum_workloads) {
                    return Err(ExploreError::ConflictingSkews(*first, *second));
                }
            }
        }
        for (index, first) in self.spec.biases.iter().enumerate() {
            for second in &self.spec.biases[index + 1..] {
                if first.conflicts_with(second, has_sum_workloads) {
                    return Err(ExploreError::ConflictingBiases(*first, *second));
                }
            }
        }
        let spec = self.spec;
        if spec.jobs().is_empty() {
            return Err(ExploreError::EmptyMatrix);
        }
        Ok(spec)
    }
}
