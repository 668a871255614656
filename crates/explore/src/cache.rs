//! The per-worker program cache of the exploration engine.
//!
//! Exploration jobs that share `(source, width, flow)` and differ only in their
//! skew/bias axes usually synthesize **structurally identical** netlists (module
//! binding never looks at input profiles; see `dpsyn_baselines::FlowSynthesis`).
//! Compiling, resolving and analysing (or simulating) each of them afresh is pure
//! waste, so [`CompiledCache`] keeps one entry per verified structure:
//!
//! * the compiled program, its cell ops and its word map, stored once;
//! * an optional analysis (resolved incremental timing and power, the
//!   [`DeltaState`], the area), built on the entry's first analytic point: that
//!   point's `rerun_delta` is the priming full pass and every later point
//!   re-analyses as an input-profile delta over the affected cone;
//! * an optional [`SimContext`] for the simulated metric on that same program.
//!
//! Every lookup follows one correctness ladder:
//!
//! 1. probe by [`Netlist::structural_hash`] (no compile needed on the probe side);
//! 2. **verify** a candidate cell-by-cell against the cached program's
//!    [`CompiledNetlist::cell_ops`] plus the input/output lists and the word map —
//!    hash equality alone is never trusted;
//! 3. on a verified hit, re-analyse through `rerun_delta` (bit-identical to a fresh
//!    bundle by the delta invariant) and simulate on the cached context;
//! 4. on any mismatch, compile once for both halves — so results are bit-identical
//!    for any worker count, cache state and eviction history.
//!
//! The FA-tree flows reach the engine already analysed (`Synthesizer::run` ends in
//! the shared analysis bundle). They are kept out of the analysis half on purpose:
//! analysing them here would add analysis-stage store records and change the memo
//! file. They only use the simulation half, seeding their entry from
//! [`FlowResult::compiled`] instead of compiling again.
//!
//! The cache is **per worker** and lives for one run, so its activity request and
//! technology never change: no locks, no cross-thread coherence. Residency is LRU
//! with a small bound (admissions and verified hits refresh recency); eviction only
//! ever costs speed, never correctness.

use crate::engine::WorkerStats;
use crate::sim::SimContext;
use crate::spec::{ExplorationSpec, SimActivity};
use crate::store::StoredEval;
use dpsyn_baselines::{BaselineError, FlowResult};
use dpsyn_ir::InputSpec;
use dpsyn_netlist::{CompiledNetlist, CompiledOp, DeltaState, InputDelta, NetId, Netlist, WordMap};
use dpsyn_power::{IncrementalPower, PowerReport};
use dpsyn_sim::{BlockSim, DEFAULT_BLOCK};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::{IncrementalTiming, TimingReport};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Upper bound on live entries per worker; beyond it the least recently used entry
/// is evicted. Entries hold a compiled program, primed per-net state and a stimulus
/// batch, so the bound keeps a long exploration's memory flat while still covering
/// the handful of structures a worker's current groups cycle through.
const MAX_ENTRIES: usize = 8;

/// The per-input-net arrival times and one-probabilities of one point, as
/// [`dpsyn_baselines::input_profiles`] produces them; borrowed from the engine,
/// which already computed them for the persistent store's evaluation key.
pub(crate) type Profiles<'a> = (&'a BTreeMap<NetId, f64>, &'a BTreeMap<NetId, f64>);

/// Why a cached evaluation failed, in the terms the engine reports.
pub(crate) enum PointError {
    /// The analysis failed exactly as `FlowResult::analyze` would have.
    Flow(BaselineError),
    /// The simulated metric failed (block compile or technology resolution).
    Sim(String),
}

impl From<BaselineError> for PointError {
    fn from(error: BaselineError) -> Self {
        PointError::Flow(error)
    }
}

/// The store record of one analysed program, before any simulated figure.
fn record(
    compiled: &CompiledNetlist,
    timing: &TimingReport,
    power: &PowerReport,
    area: f64,
) -> StoredEval {
    StoredEval {
        delay: timing.critical_delay(),
        area,
        switching_energy: power.total_energy(),
        power_mw: power.power_mw(),
        cell_count: compiled.cell_count(),
        logic_depth: compiled.level_count(),
        simulated_switch_power: 0.0,
    }
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

    /// Analyses the program under a point's profiles: timing, then power, each
    /// through `rerun_delta` — the priming full pass on the entry's first point,
    /// a dirty-cone rerun afterwards.
    fn rerun(
        &mut self,
        compiled: &CompiledNetlist,
        (arrivals, probabilities): Profiles<'_>,
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
        let timing = self
            .timing
            .rerun_delta(compiled, &mut self.state, &self.delta)?;
        let power = self
            .power
            .rerun_delta(compiled, &mut self.state, &self.delta)?;
        Ok(record(compiled, &timing, &power, self.area))
    }
}

/// One cached structure: the compiled program (wrapped for the block simulator,
/// which adds no traversal), its identity in cell order, and the optional analysis
/// and simulation halves built on it.
struct CacheEntry {
    program: BlockSim,
    /// The program's ops in cell-index order, for exact candidate verification.
    cell_ops: Vec<CompiledOp>,
    word_map: WordMap,
    analysis: Option<Analysis>,
    sim: Option<SimContext>,
}

impl CacheEntry {
    fn new(program: BlockSim, word_map: WordMap) -> Self {
        CacheEntry {
            cell_ops: program.compiled().cell_ops(),
            program,
            word_map,
            analysis: None,
            sim: None,
        }
    }

    /// Compiles a missed structure once for both halves. A simulated point compiles
    /// through the block engine and reports a cycle as a simulation failure; an
    /// analytic point validates first, like `FlowResult::analyze`.
    fn compile(netlist: &Netlist, word_map: &WordMap, simulated: bool) -> Result<Self, PointError> {
        let program = if simulated {
            BlockSim::compile(netlist, DEFAULT_BLOCK)
                .map_err(|error| PointError::Sim(error.to_string()))?
        } else {
            netlist.validate_structure().map_err(BaselineError::from)?;
            let compiled = netlist.compile().map_err(BaselineError::from)?;
            BlockSim::from_compiled(compiled, DEFAULT_BLOCK)
        };
        Ok(CacheEntry::new(program, word_map.clone()))
    }

    /// Exact structural verification of a candidate against the cached program:
    /// net universe, primary inputs/outputs, word-level interface and every cell's
    /// kind + pin connectivity. This is what makes a hash hit safe to reuse.
    fn matches(&self, netlist: &Netlist, word_map: &WordMap) -> bool {
        let compiled = self.program.compiled();
        if netlist.net_count() != compiled.net_count()
            || netlist.cell_count() != compiled.cell_count()
            || netlist.inputs() != compiled.inputs()
            || netlist.outputs() != compiled.outputs()
            || word_map != &self.word_map
        {
            return false;
        }
        netlist.cells().all(|(id, cell)| {
            let op = &self.cell_ops[id.index()];
            op.kind == cell.kind()
                && op.input_nets() == cell.inputs()
                && op.output_nets() == cell.outputs()
        })
    }

    /// Simulates `netlist` (this entry's structure) under `activity` and the
    /// probabilities of `spec`, building the simulation context on first use, and
    /// tallies the point in `worker`.
    fn simulate(
        &mut self,
        activity: SimActivity,
        spec: &InputSpec,
        netlist: &Netlist,
        tech: &TechLibrary,
        worker: &mut WorkerStats,
    ) -> Result<f64, String> {
        let context = match &mut self.sim {
            Some(context) => {
                worker.sim_reuses += 1;
                context
            }
            slot @ None => {
                let context = SimContext::build(&self.program, activity, spec, tech)?;
                worker.sim_builds += 1;
                slot.insert(context)
            }
        };
        worker.sim_points += 1;
        Ok(context.power(&self.program, &self.word_map, netlist, spec))
    }
}

/// Residency bookkeeping of the cache: the resident hashes in recency order, oldest
/// first. Admitting a brand-new hash evicts the oldest one at capacity; replacing a
/// resident hash's entry and a verified hit both move the hash to the back.
struct ResidencyQueue {
    order: VecDeque<u64>,
    capacity: usize,
}

impl ResidencyQueue {
    fn new(capacity: usize) -> Self {
        ResidencyQueue {
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Records that `hash` now owns a (new or replaced) entry and returns the hash
    /// to evict when admitting a brand-new hash overflows the capacity.
    fn admit(&mut self, hash: u64) -> Option<u64> {
        // A replaced entry holds the newest structure and is about to serve its
        // chunk, so it must be the *last* eviction candidate, not the next one.
        if self.touch(hash) {
            return None;
        }
        self.order.push_back(hash);
        if self.order.len() > self.capacity {
            self.order.pop_front()
        } else {
            None
        }
    }

    /// Moves a resident `hash` to the back of the recency order; returns whether
    /// it was resident.
    fn touch(&mut self, hash: u64) -> bool {
        let Some(position) = self.order.iter().position(|&resident| resident == hash) else {
            return false;
        };
        self.order.remove(position);
        self.order.push_back(hash);
        true
    }
}

/// A per-worker cache of compiled programs keyed by structural netlist hash; see
/// the [module documentation](self).
pub(crate) struct CompiledCache<'a> {
    tech: &'a TechLibrary,
    activity: Option<SimActivity>,
    retain: bool,
    entries: HashMap<u64, CacheEntry>,
    residency: ResidencyQueue,
}

impl<'a> CompiledCache<'a> {
    /// An empty cache for one run of `spec`, whose technology, activity request and
    /// artifact retention hold for every entry.
    pub(crate) fn new(spec: &'a ExplorationSpec) -> Self {
        CompiledCache {
            tech: spec.tech(),
            activity: spec.sim_activity(),
            retain: spec.retain_artifacts,
            entries: HashMap::new(),
            residency: ResidencyQueue::new(MAX_ENTRIES),
        }
    }

    /// The entry verified against `netlist`'s structure (the hit refreshes its
    /// residency) or, on a miss, the one `build` makes — admitted in place of any
    /// same-hash resident that failed to verify.
    fn entry<E>(
        &mut self,
        netlist: &Netlist,
        word_map: &WordMap,
        build: impl FnOnce() -> Result<CacheEntry, E>,
    ) -> Result<&mut CacheEntry, E> {
        let hash = netlist.structural_hash();
        if self
            .entries
            .get(&hash)
            .is_some_and(|entry| entry.matches(netlist, word_map))
        {
            self.residency.touch(hash);
        } else {
            let entry = build()?;
            if let Some(evicted) = self.residency.admit(hash) {
                self.entries.remove(&evicted);
            }
            self.entries.insert(hash, entry);
        }
        Ok(self
            .entries
            .get_mut(&hash)
            .expect("entry verified or admitted"))
    }

    /// Analyses one synthesized-but-unanalysed point — and first simulates it under
    /// `spec`'s probabilities when the run carries an activity request — through
    /// its structure's entry.
    ///
    /// Returns the point's store record (an analytic sweep's carries a zero
    /// simulated figure) and, when the run retains artifacts, an artifact carrying the
    /// point's **own** netlist and word map plus the shared compiled program. The
    /// delta and the full path produce both bit-identically. The caller supplies
    /// the input profiles it already computed for the store's evaluation key.
    pub(crate) fn analyze(
        &mut self,
        flow: &str,
        netlist: Netlist,
        word_map: WordMap,
        profiles: Profiles<'_>,
        spec: &InputSpec,
        worker: &mut WorkerStats,
    ) -> Result<(StoredEval, Option<FlowResult>), PointError> {
        let (tech, activity, retain) = (self.tech, self.activity, self.retain);
        let entry = self.entry(&netlist, &word_map, || {
            CacheEntry::compile(&netlist, &word_map, activity.is_some())
        })?;
        let simulated = activity
            .map(|activity| entry.simulate(activity, spec, &netlist, tech, worker))
            .transpose()
            .map_err(PointError::Sim)?;
        let compiled = entry.program.compiled();
        let analysis = match &mut entry.analysis {
            Some(analysis) => analysis,
            slot @ None => {
                // The entry may come from a simulation-first compile or an FA-tree
                // program, so validate like `FlowResult::analyze` before resolving.
                netlist.validate_structure().map_err(BaselineError::from)?;
                slot.insert(Analysis::new(compiled, tech)?)
            }
        };
        let mut stored = analysis.rerun(compiled, profiles)?;
        stored.simulated_switch_power = simulated.unwrap_or(0.0);
        let artifact = retain.then(|| FlowResult {
            flow: flow.to_string(),
            delay: stored.delay,
            area: stored.area,
            switching_energy: stored.switching_energy,
            power_mw: stored.power_mw,
            netlist,
            word_map,
            compiled: compiled.clone(),
        });
        Ok((stored, artifact))
    }

    /// Simulates one already-analysed point (the FA-tree flows) under `spec`'s
    /// probabilities when the run carries an activity request, seeding a missed
    /// structure's entry from the flow's own compiled program.
    pub(crate) fn simulate(
        &mut self,
        result: &FlowResult,
        spec: &InputSpec,
        worker: &mut WorkerStats,
    ) -> Result<Option<f64>, String> {
        let (tech, Some(activity)) = (self.tech, self.activity) else {
            return Ok(None);
        };
        let entry = self.entry(&result.netlist, &result.word_map, || {
            let program = BlockSim::from_compiled(result.compiled.clone(), DEFAULT_BLOCK);
            Ok::<_, String>(CacheEntry::new(program, result.word_map.clone()))
        })?;
        entry
            .simulate(activity, spec, &result.netlist, tech, worker)
            .map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_netlist::{CellKind, Word};

    /// Admits `hashes` in order into a fresh queue of [`MAX_ENTRIES`] capacity,
    /// collecting the evictions it reports.
    fn admit_all(queue: &mut ResidencyQueue, hashes: impl IntoIterator<Item = u64>) -> Vec<u64> {
        hashes
            .into_iter()
            .filter_map(|hash| queue.admit(hash))
            .collect()
    }

    #[test]
    fn eviction_is_fifo_for_distinct_hashes() {
        let mut queue = ResidencyQueue::new(MAX_ENTRIES);
        let full = 1..=MAX_ENTRIES as u64;
        assert_eq!(admit_all(&mut queue, full), Vec::<u64>::new());
        // Exactly at the boundary: the next brand-new hash evicts the oldest, and
        // each further one evicts in insertion order.
        let overflow = (MAX_ENTRIES as u64 + 1)..=(MAX_ENTRIES as u64 + 3);
        assert_eq!(admit_all(&mut queue, overflow), vec![1, 2, 3]);
    }

    #[test]
    fn replacement_refreshes_recency_instead_of_keeping_the_old_position() {
        let mut queue = ResidencyQueue::new(MAX_ENTRIES);
        admit_all(&mut queue, 1..=MAX_ENTRIES as u64);
        // Hash 1 is the oldest resident. A collision replacement re-admits it: it
        // must move to the back of the queue, not stay first in line for eviction.
        assert_eq!(queue.admit(1), None, "replacement never evicts");
        // The next brand-new hash now evicts hash 2 (the oldest *unreplaced*
        // resident) — before the fix it would have evicted the hot, just-replaced
        // hash 1.
        assert_eq!(queue.admit(100), Some(2));
        // And hash 1 survives all the way to the end of the refreshed order.
        let expected: Vec<u64> = (3..=MAX_ENTRIES as u64).collect();
        assert_eq!(
            admit_all(&mut queue, 101..=(100 + MAX_ENTRIES as u64 - 2)),
            expected,
            "the replaced hash must outlive every older resident"
        );
        assert_eq!(
            queue.admit(200),
            Some(1),
            "hash 1 is evicted last of the originals"
        );
    }

    #[test]
    fn hits_refresh_recency_at_the_capacity_boundary() {
        let mut queue = ResidencyQueue::new(MAX_ENTRIES);
        admit_all(&mut queue, 1..=MAX_ENTRIES as u64);
        // Queue exactly full; hash 1 is first in line for eviction. A verified hit
        // on it must move it to the back...
        queue.touch(1);
        // ...so the next brand-new hash evicts hash 2, not the hot hash 1. (This
        // was the admit-on-probe asymmetry: only `admit` refreshed recency, so a
        // hit left the entry parked at the front of the queue.)
        assert_eq!(queue.admit(100), Some(2));
        assert_eq!(queue.order.len(), MAX_ENTRIES, "bound stays exact");
        // Repeated hits keep pinning hash 1 across MAX_ENTRIES − 1 further
        // admissions: every other original resident is evicted before it.
        let mut evicted = Vec::new();
        for fresh in 0..MAX_ENTRIES as u64 - 1 {
            queue.touch(1);
            evicted.extend(queue.admit(200 + fresh));
        }
        let expected: Vec<u64> = (3..=MAX_ENTRIES as u64).chain([100]).collect();
        assert_eq!(evicted, expected, "the hot entry outlives every cold one");
        assert!(queue.order.contains(&1), "hash 1 is still resident");
    }

    #[test]
    fn touching_a_non_resident_hash_is_a_noop() {
        let mut queue = ResidencyQueue::new(MAX_ENTRIES);
        admit_all(&mut queue, [10, 20]);
        queue.touch(999);
        assert_eq!(queue.order, [10, 20]);
    }

    #[test]
    fn replacement_below_capacity_keeps_the_bound_exact() {
        let mut queue = ResidencyQueue::new(MAX_ENTRIES);
        admit_all(&mut queue, [10, 20, 30]);
        // Replacing a resident below capacity neither evicts nor double-counts.
        assert_eq!(queue.admit(10), None);
        assert_eq!(queue.order.len(), 3, "replacement must not grow the queue");
        // Fill to the bound: still no eviction, then the first overflow evicts 20
        // (10 was refreshed behind it).
        let fill = 40..(40 + MAX_ENTRIES as u64 - 3);
        assert_eq!(admit_all(&mut queue, fill), Vec::<u64>::new());
        assert_eq!(queue.admit(1000), Some(20));
    }

    /// An analysed one-input chain of `length` inverters: a distinct structure
    /// per length.
    fn chain(length: usize, spec: &InputSpec, tech: &TechLibrary) -> FlowResult {
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
        FlowResult::analyze("chain", netlist, word_map, spec, tech).expect("chain analyses")
    }

    #[test]
    fn verified_simulation_hits_refresh_recency() {
        let run = ExplorationSpec::builder()
            .design(dpsyn_designs::x_squared())
            .flows([dpsyn_baselines::Flow::Conventional])
            .sim_activity(SimActivity {
                seed: 3,
                vectors: 64,
            })
            .build()
            .expect("spec");
        let spec = InputSpec::builder().var("a", 1).build().expect("spec");
        let structures: Vec<FlowResult> = (1..=MAX_ENTRIES + 1)
            .map(|length| chain(length, &spec, run.tech()))
            .collect();
        let mut cache = CompiledCache::new(&run);
        let mut worker = WorkerStats::default();
        let mut simulate = |index: usize| {
            cache
                .simulate(&structures[index], &spec, &mut worker)
                .expect("chain simulates");
        };
        (0..MAX_ENTRIES).for_each(&mut simulate);
        // A verified hit on the oldest resident moves it to the back, so the next
        // admission evicts structure 1 and structure 0 is still served from cache.
        simulate(0);
        simulate(MAX_ENTRIES);
        simulate(0);
        simulate(1);
        assert_eq!(worker.sim_points, MAX_ENTRIES + 4);
        assert_eq!(
            worker.sim_builds,
            MAX_ENTRIES + 2,
            "only structure 1 rebuilt"
        );
        assert_eq!(worker.sim_reuses, 2, "both repeats of structure 0 hit");
    }
}
