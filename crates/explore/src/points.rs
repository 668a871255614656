//! The design-point table of one run.
//!
//! A run's jobs are its design points (source × width × skew × bias) times its
//! flows, and most of what a job needs before synthesis depends on the point
//! alone: the materialized [`Design`] and every field of its store point key but
//! the flow. The FA-tree flows' leaf prefix depends on even less — the expression
//! and the variables' names and widths, so one prefix serves a whole
//! `(source, width)` pair.
//!
//! [`PointTable`] holds each of these once per run, filled lazily by whichever
//! worker needs it first (`OnceLock`, so a racing second worker waits instead of
//! building it again) and shared read-only by every worker. Each entry is a pure
//! function of the specification, so which worker fills it never shows in the
//! results. The table lives as long as the run: the last worker to finish drops
//! it, so the memory the workers allocated into it is freed on a worker thread.

use crate::engine::WorkerStats;
use crate::job::Job;
use crate::spec::ExplorationSpec;
use crate::store::EvalKey;
use dpsyn_baselines::{Flow, LeafPrefix};
use dpsyn_designs::Design;
use std::sync::OnceLock;

/// One materialized design point.
pub(crate) struct DesignPoint {
    pub(crate) design: Design,
    /// The flow-independent part of the point's store key; `None` when the run
    /// has no store.
    pub(crate) key: Option<EvalKey>,
}

/// The leaf prefix of one `(source, width)` pair and the point it is built from.
struct Pair {
    /// The pair's first design point.
    first: usize,
    /// `None` once the build has failed: the failure is remembered (no job builds
    /// the shared prefix twice) but never passed off as a prefix, so every FA-tree
    /// job of the pair synthesizes on its own and reports its own error.
    prefix: OnceLock<Option<LeafPrefix>>,
}

/// The design points and leaf prefixes of one run; see the
/// [module documentation](self).
pub(crate) struct PointTable<'s> {
    spec: &'s ExplorationSpec,
    jobs: &'s [Job],
    /// The `(tech, stimulus)` digests every point key folds; `None` without a
    /// store.
    keyed: Option<(u64, u64)>,
    points: Vec<OnceLock<DesignPoint>>,
    /// The pair of every design point, as an index into `pairs`.
    pair_of: Vec<usize>,
    pairs: Vec<Pair>,
}

impl<'s> PointTable<'s> {
    /// An empty table over the jobs of `spec` (as [`ExplorationSpec::jobs`]
    /// enumerates them: the flows of one design point are adjacent).
    pub(crate) fn new(
        spec: &'s ExplorationSpec,
        jobs: &'s [Job],
        keyed: Option<(u64, u64)>,
    ) -> Self {
        let flows = spec.flows.len();
        let mut pair_of = Vec::with_capacity(jobs.len() / flows);
        let mut pairs: Vec<Pair> = Vec::new();
        let mut previous = None;
        for (point, point_jobs) in jobs.chunks(flows).enumerate() {
            let first = &point_jobs[0];
            debug_assert!(
                point_jobs
                    .iter()
                    .all(|job| job.source_index() == first.source_index()
                        && job.width() == first.width()
                        && job.skew() == first.skew()
                        && job.bias() == first.bias()),
                "the flows of one design point are adjacent"
            );
            let pair = (first.source_index(), first.width());
            if previous != Some(pair) {
                previous = Some(pair);
                pairs.push(Pair {
                    first: point,
                    prefix: OnceLock::new(),
                });
            }
            pair_of.push(pairs.len() - 1);
        }
        PointTable {
            spec,
            jobs,
            keyed,
            points: pair_of.iter().map(|_| OnceLock::new()).collect(),
            pair_of,
            pairs,
        }
    }

    /// The design point `job` evaluates, materialized (and keyed) on first use.
    pub(crate) fn point(&self, job: &Job, worker: &mut WorkerStats) -> &DesignPoint {
        self.point_at(job.index() / self.spec.flows.len(), worker)
    }

    fn point_at(&self, point: usize, worker: &mut WorkerStats) -> &DesignPoint {
        self.points[point].get_or_init(|| {
            worker.materializations += 1;
            let design = self
                .spec
                .materialize(&self.jobs[point * self.spec.flows.len()]);
            let key = self
                .keyed
                .map(|(tech, stimulus)| EvalKey::design_point(&design, tech, stimulus));
            DesignPoint { design, key }
        })
    }

    /// The leaf prefix of `job`'s `(source, width)` pair when `job`'s flow grows
    /// one (`Flow::grows_leaf_prefix`), built on first use from the pair's first
    /// design point; `None` when the build failed, and the job then synthesizes
    /// without one.
    ///
    /// Every point of a pair shares the expression and the variable names and
    /// widths, so the prefix always fits (debug builds assert it). The synthesizer
    /// checks the fit again before growing and builds a fresh prefix when it does
    /// not, so a point that broke that rule would cost a synthesis of its own,
    /// never a wrong netlist.
    pub(crate) fn prefix(&self, job: &Job, worker: &mut WorkerStats) -> Option<&LeafPrefix> {
        if !job.flow().grows_leaf_prefix() {
            return None;
        }
        let point = job.index() / self.spec.flows.len();
        let pair = &self.pairs[self.pair_of[point]];
        let prefix = pair
            .prefix
            .get_or_init(|| {
                worker.leaf_prefix_builds += 1;
                let design = &self.point_at(pair.first, worker).design;
                Flow::leaf_prefix(design.expr(), design.spec(), design.output_width()).ok()
            })
            .as_ref()?;
        debug_assert!(
            {
                let design = &self.point_at(point, worker).design;
                prefix.fits(design.expr(), design.spec())
            },
            "every point of a (source, width) pair fits its prefix"
        );
        Some(prefix)
    }
}
