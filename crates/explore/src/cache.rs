//! The per-worker program cache of the exploration engine.
//!
//! Exploration jobs that share `(source, width, flow)` — a **group** — differ only in
//! their skew/bias axes, and a worker runs a group's points back to back (its seeded
//! queue is a contiguous block of the group-major schedule, and a steal takes a whole
//! chunk). So [`CompiledCache`] holds exactly **one entry**: the current group's structure
//! (netlist and word map), its compiled program (wrapped for the block simulator,
//! which adds no traversal), and two optional halves built on that program:
//!
//! * an analysis (resolved incremental timing and power, the [`DeltaState`], the
//!   area), built on the entry's first point: that point's `rerun_delta` is the
//!   priming full pass and every later point re-analyses as an input-profile delta
//!   over the affected cone;
//! * a [`SimContext`] for the simulated metric on that same program.
//!
//! Every unanalysed point goes through the entry. Its freshly synthesized
//! structure is **verified** against the entry (netlist and word map compared
//! exactly); on a hit it re-analyses through `rerun_delta` (bit-identical to a
//! fresh bundle by the delta invariant) and simulates on the cached context, on a
//! miss it compiles once for both halves and replaces the entry, whose priming
//! `rerun_delta` is the full pass. A profile-blind flow (`Flow::is_profile_blind`)
//! synthesizes the same structure for every point of its group, so the engine
//! skips its synthesis after the first point and analyses the entry's own
//! structure ([`CompiledCache::structure`]). A one-point group's point is simply a
//! miss. Only `fa_anneal`, whose search analyses as it goes, bypasses the entry
//! ([`CompiledCache::finish_alone`]).
//!
//! The cache is **per worker** and lives for one run, so its activity request and
//! technology never change: no locks, no cross-thread coherence. Replacing the entry
//! only ever costs speed, never correctness.

use crate::engine::WorkerStats;
use crate::job::GroupKey;
use crate::sim::SimContext;
use crate::spec::{ExplorationSpec, SimActivity};
use crate::store::StoredEval;
use dpsyn_baselines::{input_profiles, BaselineError, FlowResult};
use dpsyn_ir::InputSpec;
use dpsyn_netlist::{CompiledNetlist, DeltaState, InputDelta, NetId, Netlist, WordMap};
use dpsyn_power::IncrementalPower;
use dpsyn_sim::{BlockSim, DEFAULT_BLOCK};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::IncrementalTiming;
use std::collections::BTreeMap;

/// Why a cached evaluation failed, in the terms the engine reports.
pub(crate) enum PointError {
    /// The analysis failed exactly as `FlowResult::analyze` would have.
    Flow(BaselineError),
    /// The simulated metric failed (technology resolution of the program).
    Sim(String),
}

impl From<BaselineError> for PointError {
    fn from(error: BaselineError) -> Self {
        PointError::Flow(error)
    }
}

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

/// The once-resolved incremental analyses of one cached program, its value state
/// and the cached area.
struct Analysis {
    timing: IncrementalTiming,
    power: IncrementalPower,
    state: DeltaState,
    area: f64,
    /// Reusable delta buffer (cleared per point).
    delta: InputDelta,
}

impl Analysis {
    /// Resolves the analyses against `compiled` and binds a fresh, unprimed state.
    /// Timing resolves first, like `FlowResult::analyze`, so an uncovered cell
    /// kind surfaces as the same error the non-cached path would report.
    fn new(compiled: &CompiledNetlist, tech: &TechLibrary) -> Result<Self, BaselineError> {
        Ok(Analysis {
            timing: IncrementalTiming::new(tech, compiled)?,
            power: IncrementalPower::new(tech, compiled)?,
            state: DeltaState::new(compiled),
            area: tech.compiled_area(compiled),
            delta: InputDelta::new(),
        })
    }

    /// Analyses the program under a point's per-input-net arrival times and
    /// one-probabilities: timing, then power, each through `rerun_delta` — the
    /// priming full pass on the entry's first point, a dirty-cone rerun afterwards.
    fn rerun(
        &mut self,
        compiled: &CompiledNetlist,
        (arrivals, probabilities): (BTreeMap<NetId, f64>, BTreeMap<NetId, f64>),
    ) -> Result<StoredEval, BaselineError> {
        // The full profile of the point; a primed `rerun_delta` skips the
        // unchanged values bit-for-bit, so this stays a cone-sized rerun.
        self.delta.clear();
        for net in compiled.inputs() {
            let arrival = arrivals.get(net).copied().unwrap_or(0.0);
            let probability = probabilities.get(net).copied().unwrap_or(0.5);
            self.delta.set_arrival(*net, arrival);
            self.delta.set_probability(*net, probability);
        }
        let delay = self
            .timing
            .rerun_delta(compiled, &mut self.state, &self.delta)?
            .critical_delay();
        let power = self
            .power
            .rerun_delta(compiled, &mut self.state, &self.delta)?;
        // The record of the analysed program, before any simulated figure.
        Ok(StoredEval {
            delay,
            area: self.area,
            switching_energy: power.total_energy(),
            power_mw: power.power_mw(),
            cell_count: compiled.cell_count(),
            logic_depth: compiled.level_count(),
            simulated_switch_power: 0.0,
        })
    }
}

/// The cached structure of the worker's current group and the halves built on its
/// program.
struct CacheEntry {
    /// The group whose flow last synthesized (or verified) this structure.
    group: GroupKey,
    netlist: Netlist,
    word_map: WordMap,
    program: BlockSim,
    analysis: Option<Analysis>,
    sim: Option<SimContext>,
}

impl CacheEntry {
    /// Compiles a missed structure once for both halves, validating it first like
    /// `FlowResult::analyze`.
    fn compile(
        group: GroupKey,
        netlist: Netlist,
        word_map: WordMap,
    ) -> Result<Self, BaselineError> {
        netlist.validate_structure()?;
        let program = BlockSim::from_compiled(netlist.compile()?, DEFAULT_BLOCK);
        Ok(CacheEntry {
            group,
            netlist,
            word_map,
            program,
            analysis: None,
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
    /// `group` (see [`CompiledCache::structure`]).
    ///
    /// Returns the point's store record (an analytic sweep's carries a zero
    /// simulated figure) and, when the run retains artifacts, an artifact carrying
    /// the point's netlist and word map plus the shared compiled program. The delta
    /// and the full path produce both bit-identically. The analyses run under the
    /// input profiles of `spec` bound through the entry's word map, which a
    /// verified hit shares exactly.
    ///
    /// # Panics
    ///
    /// Panics when `fresh` is `None` and the cache holds no structure for `group`.
    pub(crate) fn analyze(
        &mut self,
        group: GroupKey,
        flow: &str,
        fresh: Option<(Netlist, WordMap)>,
        spec: &InputSpec,
        worker: &mut WorkerStats,
    ) -> Result<(StoredEval, Option<FlowResult>), PointError> {
        let (tech, activity, retain) = (self.tech, self.activity, self.retain);
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
                slot => *slot = Some(CacheEntry::compile(group, netlist, word_map)?),
            },
        }
        let entry = self.entry.as_mut().expect("entry verified or admitted");
        let compiled = entry.program.compiled();
        let analysis = match &mut entry.analysis {
            Some(analysis) => analysis,
            slot @ None => slot.insert(Analysis::new(compiled, tech)?),
        };
        let mut stored = analysis.rerun(compiled, input_profiles(&entry.word_map, spec))?;
        if let Some(activity) = activity {
            stored.simulated_switch_power = simulate(
                &mut entry.sim,
                (&entry.program, &entry.word_map, &entry.netlist),
                activity,
                spec,
                tech,
                worker,
            )
            .map_err(PointError::Sim)?;
        }
        let artifact = retain.then(|| {
            let (netlist, word_map) =
                own.unwrap_or_else(|| (entry.netlist.clone(), entry.word_map.clone()));
            FlowResult {
                flow: flow.to_string(),
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
        let (first, second) = ((0, 1, Flow::Conventional), (0, 1, Flow::WallaceFixed));
        let mut cache = CompiledCache::new(&run);
        let mut worker = WorkerStats::default();
        let mut analyze = |cache: &mut CompiledCache<'_>, group, fresh| {
            cache
                .analyze(group, "chain", fresh, &spec, &mut worker)
                .unwrap_or_else(|_| panic!("chain analyses"))
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
        let short = bits(analyze(&mut cache, first, Some(chain(1))));
        assert!(cache.structure(first).is_some());
        assert!(cache.structure(second).is_none(), "held for its group only");
        // The group's own structure, reused or re-synthesized, hits the entry.
        assert_eq!(bits(analyze(&mut cache, first, None)), short);
        assert_eq!(bits(analyze(&mut cache, first, Some(chain(1)))), short);
        // A verified hit from another group hands the entry over to it.
        analyze(&mut cache, second, Some(chain(1)));
        assert!(cache.structure(first).is_none());
        assert!(cache.structure(second).is_some());
        // A different structure replaces the entry.
        let long = bits(analyze(&mut cache, second, Some(chain(3))));
        assert_ne!(long, short);
        assert_eq!(bits(analyze(&mut cache, second, Some(chain(1)))), short);
        assert_eq!(worker.sim_points, 6);
        assert_eq!(worker.sim_builds, 3, "one context per admitted structure");
        assert_eq!(worker.sim_reuses, 3);
    }
}
