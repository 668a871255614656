//! The per-worker program cache of the exploration engine.
//!
//! Exploration jobs that share `(source, width, flow)` — a **group** — differ only in
//! their skew/bias axes, and a worker runs a group's points back to back (its seeded
//! queue is a contiguous block of the group-major schedule, and a steal takes a whole
//! chunk). So [`CompiledCache`] holds exactly **one entry**: the current group's
//! structure (netlist and word map), its compiled program (wrapped for the block
//! simulator), the [`AnalysisSession`] over that program — the one analysis path of
//! every flow, whose later binds re-analyse only the cone a profile change reaches —
//! and, built on first use, a [`SimContext`] for the simulated metric.
//!
//! Every unanalysed point goes through the entry. Its freshly synthesized structure
//! is **verified** against the entry (netlist and word map compared exactly): a hit
//! re-binds the session and simulates on the cached context, a miss compiles once
//! and replaces the entry. A profile-blind flow (`Flow::is_profile_blind`)
//! synthesizes the same structure for every point of its group, so the engine skips
//! its synthesis after the first point and analyses the entry's own structure
//! ([`CompiledCache::structure`]). Only `fa_anneal`, whose search analyses as it
//! goes, bypasses the entry ([`CompiledCache::finish_alone`]).
//!
//! The cache is **per worker** and lives for one run, so its activity request and
//! technology never change: no locks, no cross-thread coherence. Replacing the entry
//! only ever costs speed, never correctness.

use crate::engine::WorkerStats;
use crate::error::ExploreError;
use crate::job::{GroupKey, Job};
use crate::sim::SimContext;
use crate::spec::{ExplorationSpec, SimActivity};
use crate::store::StoredEval;
use dpsyn_baselines::{BaselineError, FlowResult};
use dpsyn_core::AnalysisSession;
use dpsyn_ir::InputSpec;
use dpsyn_netlist::{Netlist, WordMap};
use dpsyn_sim::{BlockSim, DEFAULT_BLOCK};
use dpsyn_tech::TechLibrary;

/// The simulated switching power of `netlist` (the structure `program` was compiled
/// from) under `activity` and the probabilities of `spec`, building the simulation
/// context in `slot` on first use; tallies the point in `worker`.
fn simulate(
    slot: &mut Option<SimContext>,
    (program, word_map, netlist): (&BlockSim, &WordMap, &Netlist),
    activity: SimActivity,
    spec: &InputSpec,
    tech: &TechLibrary,
    worker: &mut WorkerStats,
) -> Result<f64, String> {
    let context = match slot {
        Some(context) => {
            worker.sim_reuses += 1;
            context
        }
        None => {
            let context = SimContext::build(program, activity, spec, tech)?;
            worker.sim_builds += 1;
            slot.insert(context)
        }
    };
    worker.sim_points += 1;
    Ok(context.power(program, word_map, netlist, spec))
}

/// The cached structure of the worker's current group and what is built on its
/// program.
struct CacheEntry {
    /// The group whose flow last synthesized (or verified) this structure.
    group: GroupKey,
    netlist: Netlist,
    word_map: WordMap,
    program: BlockSim,
    session: AnalysisSession,
    sim: Option<SimContext>,
}

impl CacheEntry {
    /// Compiles a missed structure once and opens its analysis session, failing
    /// exactly as `analyze_netlist` does.
    fn compile(
        group: GroupKey,
        netlist: Netlist,
        word_map: WordMap,
        tech: &TechLibrary,
    ) -> Result<Self, BaselineError> {
        let (compiled, session) = AnalysisSession::compile::<BaselineError>(&netlist, tech)?;
        Ok(CacheEntry {
            group,
            netlist,
            word_map,
            program: BlockSim::from_compiled(compiled, DEFAULT_BLOCK),
            session,
            sim: None,
        })
    }
}

/// A per-worker, one-entry cache of the current group's compiled structure; see
/// the [module documentation](self).
pub(crate) struct CompiledCache<'a> {
    tech: &'a TechLibrary,
    activity: Option<SimActivity>,
    retain: bool,
    entry: Option<CacheEntry>,
}

impl<'a> CompiledCache<'a> {
    /// An empty cache for one run of `spec`, whose technology, activity request and
    /// artifact retention hold for every entry.
    pub(crate) fn new(spec: &'a ExplorationSpec) -> Self {
        CompiledCache {
            tech: spec.tech(),
            activity: spec.sim_activity(),
            retain: spec.retain_artifacts,
            entry: None,
        }
    }

    /// The structure (netlist, word map) the cache holds for `group`, if its entry
    /// was last synthesized or verified by that group.
    pub(crate) fn structure(&self, group: GroupKey) -> Option<(&Netlist, &WordMap)> {
        self.entry
            .as_ref()
            .filter(|entry| entry.group == group)
            .map(|entry| (&entry.netlist, &entry.word_map))
    }

    /// Analyses one point — and then simulates it under `spec`'s probabilities
    /// when the run carries an activity request — through the one entry: `fresh`
    /// is the point's synthesized structure, verified against the entry and
    /// replacing it on a miss; `None` analyses the structure the entry holds for
    /// the job's group (see [`CompiledCache::structure`]). A failure is the job's
    /// [`ExploreError::Flow`] or [`ExploreError::Sim`].
    ///
    /// Returns the point's store record (an analytic sweep's carries a zero
    /// simulated figure) and, when the run retains artifacts, an artifact carrying
    /// the point's netlist and word map plus the shared compiled program. `spec`
    /// binds through the entry's word map, which a verified hit shares exactly.
    ///
    /// # Panics
    ///
    /// Panics when `fresh` is `None` and the cache holds no structure for the group.
    pub(crate) fn analyze(
        &mut self,
        job: &Job,
        fresh: Option<(Netlist, WordMap)>,
        spec: &InputSpec,
        worker: &mut WorkerStats,
    ) -> Result<(StoredEval, Option<FlowResult>), ExploreError> {
        let (tech, activity, retain) = (self.tech, self.activity, self.retain);
        let group = job.group();
        let flow_error = |source| ExploreError::Flow {
            job: job.label(),
            source,
        };
        // The point's own structure when it differs from the entry's object (a
        // verified hit); `None` when the entry holds (or now owns) it.
        let mut own = None;
        match fresh {
            None => assert!(
                self.structure(group).is_some(),
                "a reused structure is resident"
            ),
            Some((netlist, word_map)) => match &mut self.entry {
                Some(entry) if entry.netlist == netlist && entry.word_map == word_map => {
                    entry.group = group;
                    own = Some((netlist, word_map));
                }
                slot => {
                    let entry = CacheEntry::compile(group, netlist, word_map, tech);
                    *slot = Some(entry.map_err(flow_error)?);
                }
            },
        }
        let entry = self.entry.as_mut().expect("entry verified or admitted");
        let compiled = entry.program.compiled();
        let figures = entry
            .session
            .bind(compiled, &entry.word_map, spec)
            .map_err(flow_error)?;
        // The record of the analysed program, before any simulated figure.
        let mut stored = StoredEval {
            delay: figures.delay,
            area: figures.area,
            switching_energy: figures.switching_energy,
            power_mw: figures.power_mw,
            cell_count: compiled.cell_count(),
            logic_depth: compiled.level_count(),
            simulated_switch_power: 0.0,
        };
        if let Some(activity) = activity {
            stored.simulated_switch_power = simulate(
                &mut entry.sim,
                (&entry.program, &entry.word_map, &entry.netlist),
                activity,
                spec,
                tech,
                worker,
            )
            .map_err(|message| ExploreError::Sim {
                job: job.label(),
                message,
            })?;
        }
        let artifact = retain.then(|| {
            let (netlist, word_map) =
                own.unwrap_or_else(|| (entry.netlist.clone(), entry.word_map.clone()));
            FlowResult {
                flow: job.flow().name().to_string(),
                delay: stored.delay,
                area: stored.area,
                switching_energy: stored.switching_energy,
                power_mw: stored.power_mw,
                netlist,
                word_map,
                compiled: compiled.clone(),
            }
        });
        Ok((stored, artifact))
    }

    /// Finishes an already analysed `fa_anneal` result without touching the entry:
    /// `result` is the flow's analysed outcome, simulated on a transient program
    /// when the run carries an activity request.
    ///
    /// Returns the point's store record and, when the run retains artifacts, the
    /// result itself.
    pub(crate) fn finish_alone(
        &self,
        result: FlowResult,
        spec: &InputSpec,
        worker: &mut WorkerStats,
    ) -> Result<(StoredEval, Option<FlowResult>), String> {
        let simulated = match self.activity {
            None => 0.0,
            Some(activity) => {
                let program = BlockSim::from_compiled(result.compiled.clone(), DEFAULT_BLOCK);
                simulate(
                    &mut None,
                    (&program, &result.word_map, &result.netlist),
                    activity,
                    spec,
                    self.tech,
                    worker,
                )?
            }
        };
        let stored = StoredEval {
            delay: result.delay,
            area: result.area,
            switching_energy: result.switching_energy,
            power_mw: result.power_mw,
            cell_count: result.compiled.cell_count(),
            logic_depth: result.compiled.level_count(),
            // An analytic sweep's record carries zero: its key's zero stimulus
            // digest keeps it from ever being read back as a simulated one.
            simulated_switch_power: simulated,
        };
        Ok((stored, self.retain.then_some(result)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BiasProfile, SkewProfile};
    use dpsyn_baselines::Flow;
    use dpsyn_netlist::{CellKind, Word};

    /// A one-input chain of `length` inverters: a distinct structure per length.
    fn chain(length: usize) -> (Netlist, WordMap) {
        let mut netlist = Netlist::new("chain");
        let input = netlist.add_input("a0");
        let mut net = input;
        for _ in 0..length {
            net = netlist.add_gate(CellKind::Not, &[net]).expect("inverter")[0];
        }
        netlist.mark_output(net);
        let word_map = WordMap::new(
            vec![Word::new("a", vec![input])],
            Word::new("out", vec![net]),
        );
        (netlist, word_map)
    }

    #[test]
    fn one_entry_serves_its_group_and_is_replaced_on_a_miss() {
        let run = ExplorationSpec::builder()
            .design(dpsyn_designs::x_squared())
            .flows([Flow::Conventional])
            .sim_activity(SimActivity {
                seed: 3,
                vectors: 64,
            })
            .build()
            .expect("spec");
        let spec = InputSpec::builder().var("a", 1).build().expect("spec");
        let job = |flow| {
            Job::new(
                0,
                0,
                "chain".into(),
                1,
                SkewProfile::Keep,
                BiasProfile::Keep,
                flow,
            )
        };
        let (first_job, second_job) = (job(Flow::Conventional), job(Flow::WallaceFixed));
        let (first, second) = (first_job.group(), second_job.group());
        let mut cache = CompiledCache::new(&run);
        let mut worker = WorkerStats::default();
        let mut analyze = |cache: &mut CompiledCache<'_>, job: &Job, fresh| {
            cache
                .analyze(job, fresh, &spec, &mut worker)
                .unwrap_or_else(|error| panic!("chain analyses: {error}"))
                .0
        };
        let bits = |stored: StoredEval| {
            [
                stored.delay,
                stored.switching_energy,
                stored.simulated_switch_power,
            ]
            .map(f64::to_bits)
        };
        let short = bits(analyze(&mut cache, &first_job, Some(chain(1))));
        assert!(cache.structure(first).is_some());
        assert!(cache.structure(second).is_none(), "held for its group only");
        // The group's own structure, reused or re-synthesized, hits the entry.
        assert_eq!(bits(analyze(&mut cache, &first_job, None)), short);
        assert_eq!(bits(analyze(&mut cache, &first_job, Some(chain(1)))), short);
        // A verified hit from another group hands the entry over to it.
        analyze(&mut cache, &second_job, Some(chain(1)));
        assert!(cache.structure(first).is_none());
        assert!(cache.structure(second).is_some());
        // A different structure replaces the entry.
        let long = bits(analyze(&mut cache, &second_job, Some(chain(3))));
        assert_ne!(long, short);
        assert_eq!(
            bits(analyze(&mut cache, &second_job, Some(chain(1)))),
            short
        );
        assert_eq!(worker.sim_points, 6);
        assert_eq!(worker.sim_builds, 3, "one context per admitted structure");
        assert_eq!(worker.sim_reuses, 3);
    }
}
