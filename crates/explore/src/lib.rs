//! Multi-threaded design-space exploration over the synthesis flows.
//!
//! The DAC 2000 technique only shows its value across a *space* of designs — widths,
//! input-arrival skews, signal-probability biases, objectives and rival flows. This
//! crate turns that space into a job matrix and runs it in parallel:
//!
//! 1. An [`ExplorationSpec`] crosses expression sources (fixed benchmark designs from
//!    `dpsyn-designs` and its workload generators) with width ranges, [`SkewProfile`]s,
//!    [`BiasProfile`]s and the [`Flow`]s of `dpsyn-baselines`.
//! 2. [`explore`] shards the resulting jobs across `std::thread::scope` workers
//!    under a **work-stealing scheduler**: each worker owns a deque of group-chunks
//!    seeded from the schedule and steals from the busiest other worker when its
//!    own deque runs dry. Every job is a pure function of the specification and
//!    every result lands in a write-once slot keyed by job index, so the outcome is
//!    **bit-identical for any worker count and any steal order** — the property
//!    the determinism suite pins down.
//! 3. Each synthesized point is reduced to [`PointMetrics`] (delay from static timing
//!    analysis, switching power from probability propagation, cell area and structure
//!    from the netlist), and the whole run is dominance-filtered into a Pareto front
//!    over delay × power × area plus per-flow [`FlowSummary`] tables.
//! 4. Optionally, a [`SimActivity`] request adds **simulated switching activity** as
//!    a per-point metric: every synthesized netlist runs through the SIMD block-lane
//!    engine of `dpsyn-sim` on a shared seeded stimulus batch (on the same cached
//!    program the analytic delta path reuses across each `(source, width, flow)`
//!    group), yielding `simulated_switch_power` and an analytic-vs-simulated
//!    divergence column in the summary — still byte-identical for any worker count.
//!
//! # Example
//!
//! ```
//! use dpsyn_baselines::Flow;
//! use dpsyn_explore::{explore, ExplorationSpec};
//!
//! # fn main() -> Result<(), dpsyn_explore::ExploreError> {
//! let spec = ExplorationSpec::builder()
//!     .design(dpsyn_designs::x_squared())
//!     .flows([Flow::Conventional, Flow::FaAot])
//!     .threads(2)
//!     .build()?;
//! let results = explore(&spec)?;
//! assert_eq!(results.points().len(), 2);
//! // FA_AOT is never dominated by the conventional flow.
//! assert!(results.front().any(|p| p.job.flow() == Flow::FaAot));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod error;
pub mod faults;
mod job;
#[cfg(unix)]
mod metrics;
mod pareto;
mod points;
#[cfg(unix)]
mod serve;
mod sim;
mod spec;
mod store;
mod summary;

pub use dpsyn_baselines::Flow;
pub use engine::{
    explore, explore_with_stats, explore_with_store, schedule_preview, ExplorationPoint,
    ExplorationResults, ExploreStats, FreshRecords, QuarantinedJob, SchedulePreview, WorkerStats,
    JOB_ATTEMPT_LIMIT,
};
pub use error::ExploreError;
pub use job::Job;
#[cfg(unix)]
pub use metrics::ServeStatus;
pub use pareto::{pareto_front, PointMetrics};
#[cfg(unix)]
pub use serve::{serve, ServeConfig, ServeResponse};
pub use spec::{
    BiasProfile, ExplorationSpec, ExplorationSpecBuilder, ExprSource, SimActivity, SkewProfile,
    MAX_JOBS, MAX_SIM_VECTORS, MAX_SOURCE_TERMS, MAX_WIDTH,
};
pub use store::{
    lock_path, quarantine_path, stimulus_digest, EvalKey, ResultStore, StoreHealth, StoredEval,
    STORE_FORMAT,
};
pub use summary::FlowSummary;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_shape() {
        let spec = ExplorationSpec::builder()
            .design(dpsyn_designs::x_squared())
            .design(dpsyn_designs::mixed_poly())
            .flows([Flow::Conventional, Flow::CsaOpt, Flow::FaAot])
            .threads(2)
            .build()
            .unwrap();
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 6);
        // Canonical order: source-major, flow-minor, indices dense.
        assert_eq!(jobs[0].source_label(), "x_squared");
        assert_eq!(jobs[0].flow(), Flow::Conventional);
        assert_eq!(jobs[5].source_label(), "mixed_poly");
        assert_eq!(jobs[5].flow(), Flow::FaAot);
        assert!(jobs.iter().enumerate().all(|(i, job)| job.index() == i));

        let results = explore(&spec).unwrap();
        assert_eq!(results.points().len(), 6);
        let summaries = results.summaries();
        assert_eq!(summaries.len(), 3);
        assert!(summaries.iter().all(|s| s.points == 2));
        let text = results.render_summary();
        assert!(text.contains("pareto front"));
        assert!(text.contains("fa_aot"));
    }

    #[test]
    fn skew_and_bias_redraws_are_decorrelated() {
        // With a shared redraw seed the latest-arriving bit would always be the
        // most-biased bit; the salted seeds must break that rank correlation.
        let spec = ExplorationSpec::builder()
            .design(dpsyn_designs::iir())
            .skews([SkewProfile::Uniform(1.0)])
            .biases([BiasProfile::Uniform(0.5)])
            .flow(Flow::FaAot)
            .seed(3)
            .build()
            .unwrap();
        let design = spec.materialize(&spec.jobs()[0]);
        let profiles: Vec<(f64, f64)> = design
            .spec()
            .vars()
            .flat_map(|v| v.bits().iter().map(|b| (b.arrival, b.probability)))
            .collect();
        // Both redraws happened (non-constant arrivals and probabilities) ...
        assert!(profiles.iter().any(|(a, _)| *a != profiles[0].0));
        assert!(profiles.iter().any(|(_, p)| *p != profiles[0].1));
        // ... and the arrival rank order is not the probability rank order: with
        // arrival = 1.0*u_k and probability = 2*0.5*u_k - 0.5 off one shared stream,
        // every pair would satisfy (a_i < a_j) == (p_i < p_j).
        let decorrelated = profiles.iter().enumerate().any(|(i, (a_i, p_i))| {
            profiles[i + 1..]
                .iter()
                .any(|(a_j, p_j)| (a_i < a_j) != (p_i < p_j))
        });
        assert!(
            decorrelated,
            "skew and bias redraws share one random stream"
        );
    }

    #[test]
    fn workload_jobs_cross_widths_and_profiles() {
        let spec = ExplorationSpec::builder()
            .sum_workload(3)
            .widths([2, 4])
            .skews([SkewProfile::Uniform(1.0), SkewProfile::Uniform(2.0)])
            .biases([BiasProfile::Uniform(0.2)])
            .flow(Flow::FaAot)
            .seed(3)
            .build()
            .unwrap();
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 2 * 2);
        // Every flow sharing a design point must see the identical design.
        let design_a = spec.materialize(&jobs[0]);
        let design_b = spec.materialize(&jobs[0]);
        assert_eq!(design_a.expr(), design_b.expr());
        assert_eq!(design_a.spec(), design_b.spec());
    }
}
