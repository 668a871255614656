//! Incremental (delta) re-analysis state over a compiled program.
//!
//! The compiled-analysis layer made every analysis a single pass over one shared
//! [`CompiledNetlist`]. This module adds the state that makes *re*-analysis cheaper
//! than a full pass when only a small part of the design changed:
//!
//! * [`InputDelta`] names the primary-input profile values to (re)apply — changed
//!   arrival times and/or signal probabilities;
//! * [`DirtyWorklist`] is a levelized dirty-cone worklist over the fanout CSR: it is
//!   seeded from changed primary inputs (or a changed cell set after a local rewire),
//!   advanced level by level, and **terminates early** along any branch where a
//!   recomputed net value is bit-identical to the stored one;
//! * [`DeltaState`] bundles the persistent per-net value arrays of the two analysis
//!   channels — arrival times ([`TimingChannel`]) and signal probabilities /
//!   per-cell energies ([`PowerChannel`]) — each with its own worklist, so a
//!   timing-only delta never touches the power cone and vice versa.
//!
//! The propagation semantics (how a cell's outputs are recomputed from its inputs)
//! live in `dpsyn-timing` and `dpsyn-power`, whose one stateful entry point,
//! `rerun_delta`, primes a fresh channel with a full pass on its first call and
//! afterwards drives the worklist through [`DirtyWorklist::drain`] with a recompute
//! closure; this crate only owns the structural machinery. The invariant every
//! consumer relies on: as long as a dirty cell always rewrites *all* of its outputs
//! (values **and** auxiliary per-net data) and reports exactly the output pins whose
//! stored value changed bits, the arrays after a drain are bit-identical to the
//! arrays a fresh full pass would produce.

use crate::cell::CellId;
use crate::compiled::{CompiledNetlist, CompiledOp};
use crate::graph::NetId;

/// A set of primary-input profile values to apply before a delta re-analysis.
///
/// Entries are "set this input's value to `v`" assignments; inputs that are not
/// mentioned keep their current value in the [`DeltaState`]. Callers may freely
/// include unchanged values — the delta entry points compare bits and skip them — so
/// the cheapest correct usage is to push the full profile of the new design point.
/// On a fresh [`DeltaState`] the first `rerun_delta` applies the entries on top of
/// the analysis defaults (arrival 0, probability 0.5) in a full pass.
/// The buffers are reusable across points via [`InputDelta::clear`].
#[derive(Debug, Clone, Default)]
pub struct InputDelta {
    arrivals: Vec<(NetId, f64)>,
    probabilities: Vec<(NetId, f64)>,
}

impl InputDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        InputDelta::default()
    }

    /// Empties both value lists, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.arrivals.clear();
        self.probabilities.clear();
    }

    /// Whether the delta carries no assignments at all.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty() && self.probabilities.is_empty()
    }

    /// Adds an arrival-time assignment for a primary input net.
    pub fn set_arrival(&mut self, net: NetId, arrival: f64) {
        self.arrivals.push((net, arrival));
    }

    /// Adds a signal-probability assignment for a primary input net.
    pub fn set_probability(&mut self, net: NetId, probability: f64) {
        self.probabilities.push((net, probability));
    }

    /// The arrival-time assignments, in insertion order.
    pub fn arrivals(&self) -> &[(NetId, f64)] {
        &self.arrivals
    }

    /// The signal-probability assignments, in insertion order.
    pub fn probabilities(&self) -> &[(NetId, f64)] {
        &self.probabilities
    }
}

/// A levelized dirty-cone worklist over a compiled program.
///
/// Cells are enqueued by their op index into per-level buckets and drained in level
/// order, so a cell is recomputed at most once per delta even when several of its
/// inputs changed. Enqueueing is idempotent. The fanout CSR of the program provides
/// the readers to wake when a recomputed output actually changed.
#[derive(Debug, Clone)]
pub struct DirtyWorklist {
    /// Level of every op, indexed by op index.
    op_level: Vec<u32>,
    /// Whether an op is currently enqueued, indexed by op index.
    queued: Vec<bool>,
    /// Per-level queues of op indices.
    levels: Vec<Vec<u32>>,
    /// Total number of queued ops (fast emptiness check).
    pending: usize,
}

impl DirtyWorklist {
    /// Creates an empty worklist sized for `compiled`.
    pub fn new(compiled: &CompiledNetlist) -> Self {
        let mut worklist = DirtyWorklist {
            op_level: Vec::new(),
            queued: Vec::new(),
            levels: Vec::new(),
            pending: 0,
        };
        worklist.rebuild(compiled);
        worklist
    }

    /// Re-derives the level tables from a (re)compiled program and empties the
    /// queues. Used by [`DeltaState::rebind`] after a structural edit.
    pub fn rebuild(&mut self, compiled: &CompiledNetlist) {
        let cell_count = compiled.cell_count();
        self.op_level.clear();
        self.op_level.resize(cell_count, 0);
        self.queued.clear();
        self.queued.resize(cell_count, false);
        self.levels.resize_with(compiled.level_count(), Vec::new);
        for queue in &mut self.levels {
            queue.clear();
        }
        self.pending = 0;
        let mut start = 0;
        for level in 0..compiled.level_count() {
            let end = start + compiled.level(level).len();
            self.op_level[start..end].fill(level as u32);
            start = end;
        }
    }

    /// Whether no cell is queued.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Empties the queues (used before a full re-prime of the value arrays).
    pub fn reset(&mut self) {
        if self.pending == 0 {
            return;
        }
        for queue in &mut self.levels {
            for &op in queue.iter() {
                self.queued[op as usize] = false;
            }
            queue.clear();
        }
        self.pending = 0;
    }

    fn enqueue(&mut self, op_index: u32) {
        let slot = &mut self.queued[op_index as usize];
        if !*slot {
            *slot = true;
            self.levels[self.op_level[op_index as usize] as usize].push(op_index);
            self.pending += 1;
        }
    }

    /// Enqueues every cell reading `net` (the seed step for a changed input value).
    pub fn seed_readers(&mut self, compiled: &CompiledNetlist, net: NetId) {
        for (reader, _) in compiled.fanout(net) {
            self.enqueue(compiled.op_index(*reader) as u32);
        }
    }

    /// Enqueues a single cell (the seed step for a changed cell after a rewire).
    pub fn seed_cell(&mut self, compiled: &CompiledNetlist, cell: CellId) {
        self.enqueue(compiled.op_index(cell) as u32);
    }

    /// Drains the worklist level by level, calling `recompute` on every dirty op.
    ///
    /// `recompute` must rewrite the op's outputs in the caller's value arrays and
    /// return a bitmask of the output *pins* whose stored value changed bits; the
    /// worklist then wakes the readers of exactly those nets. Returning `0`
    /// terminates the cone early along that branch. Returns the number of ops
    /// recomputed.
    pub fn drain(
        &mut self,
        compiled: &CompiledNetlist,
        mut recompute: impl FnMut(&CompiledOp) -> u8,
    ) -> usize {
        let mut processed = 0;
        if self.pending == 0 {
            return processed;
        }
        for level in 0..self.levels.len() {
            if self.pending == 0 {
                break;
            }
            // Take the bucket out so enqueueing into deeper levels (every reader of a
            // changed net sits at a strictly greater level) never aliases it.
            let queue = std::mem::take(&mut self.levels[level]);
            for &op_index in &queue {
                self.queued[op_index as usize] = false;
                self.pending -= 1;
                processed += 1;
                let op = &compiled.ops()[op_index as usize];
                let changed = recompute(op);
                if changed == 0 {
                    continue;
                }
                for (pin, net) in op.output_nets().iter().enumerate() {
                    if changed & (1 << pin) != 0 {
                        self.seed_readers(compiled, *net);
                    }
                }
            }
            // Put the emptied bucket back to keep its capacity for the next delta.
            let mut queue = queue;
            queue.clear();
            self.levels[level] = queue;
        }
        processed
    }
}

/// The persistent timing channel: per-net arrival times plus the critical-path
/// predecessor links, and the dirty worklist that re-propagates them.
///
/// Owned by [`DeltaState`]; filled and then updated by `dpsyn-timing`'s
/// `rerun_delta`. The arrays are indexed by [`NetId::index`].
#[derive(Debug, Clone)]
pub struct TimingChannel {
    /// Per-net arrival times (the array a fresh timing pass would produce).
    pub arrival: Vec<f64>,
    /// Per-net worst-path predecessor links for critical-path reconstruction.
    pub worst_predecessor: Vec<Option<NetId>>,
    /// The channel's dirty-cone worklist.
    pub worklist: DirtyWorklist,
    /// Whether a full pass has filled the arrays. The next `rerun_delta` on an
    /// unprimed channel is that full pass.
    pub primed: bool,
}

/// The persistent power channel: per-net signal probabilities, per-cell energies and
/// the running totals, plus the dirty worklist that re-propagates them.
///
/// Owned by [`DeltaState`]; filled and then updated by `dpsyn-power`'s
/// `rerun_delta`.
#[derive(Debug, Clone)]
pub struct PowerChannel {
    /// Per-net signal probabilities, indexed by [`NetId::index`].
    pub probability: Vec<f64>,
    /// Per-cell switching energies, indexed by [`CellId::index`].
    pub cell_energy: Vec<f64>,
    /// The weighted total switching energy of the last (re)run.
    pub total_energy: f64,
    /// The unweighted total switching activity of the last (re)run.
    pub total_activity: f64,
    /// The channel's dirty-cone worklist.
    pub worklist: DirtyWorklist,
    /// Whether a full pass has filled the arrays. The next `rerun_delta` on an
    /// unprimed channel is that full pass.
    pub primed: bool,
}

/// Persistent per-program re-analysis state: the companion of a [`CompiledNetlist`]
/// that carries analysis values *across* runs so the next run only pays for the
/// affected cone.
///
/// A `DeltaState` is bound to one compiled program: every array is sized for its net
/// and cell counts, and the worklists encode its levelization. The timing and power
/// channels are independent — an arrival-only delta leaves the power channel (and its
/// totals) untouched, which is what makes skew sweeps cheap.
///
/// # Example
///
/// ```
/// use dpsyn_netlist::{CellKind, DeltaState, Netlist};
///
/// let mut netlist = Netlist::new("chain");
/// let a = netlist.add_input("a");
/// let b = netlist.add_input("b");
/// let x = netlist.add_gate(CellKind::And2, &[a, b]).unwrap()[0];
/// netlist.mark_output(x);
/// let compiled = netlist.compile().unwrap();
/// let state = DeltaState::new(&compiled);
/// assert!(!state.timing.primed && !state.power.primed);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaState {
    /// The arrival-time channel.
    pub timing: TimingChannel,
    /// The probability/energy channel.
    pub power: PowerChannel,
    /// Whether each net (by [`NetId::index`]) is a primary input of the bound
    /// program. The delta entry points use this to **ignore** assignments to
    /// non-input (or unknown) nets — mirroring how the full passes ignore profile
    /// map keys that are not primary inputs — so a stray key can never corrupt the
    /// primed arrays. Maintained by [`DeltaState::new`] / [`DeltaState::rebind`];
    /// treat as read-only.
    pub input_mask: Vec<bool>,
    /// [`CompiledNetlist::structural_hash`] of the bound program. The incremental
    /// analyses assert this against the program they are handed on every call, so
    /// pairing a state with the wrong program panics immediately instead of
    /// silently producing wrong results. Maintained by [`DeltaState::new`],
    /// [`DeltaState::rebind`] and [`DeltaState::rebind_swapped`]; treat as
    /// read-only.
    pub bound_hash: u64,
}

impl DeltaState {
    /// Creates unprimed state bound to `compiled`; each analysis's first
    /// `rerun_delta` on it sizes and fills its channel with a full pass.
    pub fn new(compiled: &CompiledNetlist) -> Self {
        DeltaState {
            timing: TimingChannel {
                arrival: Vec::new(),
                worst_predecessor: Vec::new(),
                worklist: DirtyWorklist::new(compiled),
                primed: false,
            },
            power: PowerChannel {
                probability: Vec::new(),
                cell_energy: Vec::new(),
                total_energy: 0.0,
                total_activity: 0.0,
                worklist: DirtyWorklist::new(compiled),
                primed: false,
            },
            input_mask: input_mask(compiled),
            bound_hash: compiled.structural_hash(),
        }
    }

    /// Rebinds state to a recompile of the *same* netlist after a local,
    /// shape-preserving edit (an input-pin rewire or a same-arity kind change): the
    /// worklists are rebuilt against the new levelization and every cell whose
    /// compiled op differs between `old` and `new` is seeded dirty in **both**
    /// channels, so the next `rerun_delta` of each analysis re-propagates exactly
    /// the affected cone (an unprimed channel still gets its full priming pass).
    ///
    /// Callers re-resolve their technology tables (rebuild the incremental analyses
    /// of `dpsyn-timing` / `dpsyn-power`) against `new` only when a cell kind
    /// changed, since a kind change can introduce a kind the old resolution never
    /// filled in; a rewire keeps the kind set, so the analyses carry over.
    ///
    /// When the op order is unchanged and the program was patched in place by
    /// [`CompiledNetlist::swap_inputs`], [`DeltaState::rebind_swapped`] does the same
    /// job without the diff and the worklist rebuild.
    ///
    /// # Panics
    ///
    /// Panics when the programs disagree on net count, cell count, primary inputs or
    /// the driven-net set — such edits change the value universe and need a fresh
    /// [`DeltaState`] (whose first `rerun_delta` is a full pass) instead.
    pub fn rebind(&mut self, old: &CompiledNetlist, new: &CompiledNetlist) {
        assert_eq!(
            old.net_count(),
            new.net_count(),
            "rebind requires an unchanged net universe"
        );
        assert_eq!(
            old.cell_count(),
            new.cell_count(),
            "rebind requires an unchanged cell set"
        );
        assert_eq!(
            old.inputs(),
            new.inputs(),
            "rebind requires unchanged primary inputs"
        );
        assert!(
            (0..old.net_count()).all(|net| old.is_driven(net) == new.is_driven(net)),
            "rebind requires an unchanged driven-net set (undriven nets keep \
             analysis defaults that only a full prime restores)"
        );
        self.timing.worklist.rebuild(new);
        self.power.worklist.rebuild(new);
        for index in 0..new.cell_count() {
            let cell = CellId(index as u32);
            if old.ops()[old.op_index(cell)] != new.ops()[new.op_index(cell)] {
                self.timing.worklist.seed_cell(new, cell);
                self.power.worklist.seed_cell(new, cell);
            }
        }
        self.input_mask = input_mask(new);
        self.bound_hash = new.structural_hash();
    }

    /// Rebinds state to `patched` after [`CompiledNetlist::swap_inputs`] exchanged
    /// input pins of `cells` in place (it returned `true`): the op order, the levels
    /// and the net universe are unchanged, so the worklists keep their tables and
    /// only the two swapped cells are seeded dirty in **both** channels — the seed
    /// set [`DeltaState::rebind`] would derive from the two programs.
    pub fn rebind_swapped(&mut self, patched: &CompiledNetlist, cells: [CellId; 2]) {
        for cell in cells {
            self.timing.worklist.seed_cell(patched, cell);
            self.power.worklist.seed_cell(patched, cell);
        }
        self.bound_hash = patched.structural_hash();
    }
}

/// The per-net primary-input mask of a program.
fn input_mask(compiled: &CompiledNetlist) -> Vec<bool> {
    let mut mask = vec![false; compiled.net_count()];
    for net in compiled.inputs() {
        mask[net.index()] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::graph::Netlist;

    /// a -> AND(a, b) -> NOT -> NOT -> output, plus an independent XOR(a, b).
    fn chain() -> (Netlist, Vec<NetId>) {
        let mut netlist = Netlist::new("chain");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let and = netlist.add_gate(CellKind::And2, &[a, b]).unwrap()[0];
        let not1 = netlist.add_gate(CellKind::Not, &[and]).unwrap()[0];
        let not2 = netlist.add_gate(CellKind::Not, &[not1]).unwrap()[0];
        let xor = netlist.add_gate(CellKind::Xor2, &[a, b]).unwrap()[0];
        netlist.mark_output(not2);
        netlist.mark_output(xor);
        (netlist, vec![a, b, and, not1, not2, xor])
    }

    #[test]
    fn drain_visits_the_whole_cone_when_everything_changes() {
        let (netlist, nets) = chain();
        let compiled = netlist.compile().unwrap();
        let mut worklist = DirtyWorklist::new(&compiled);
        worklist.seed_readers(&compiled, nets[0]);
        assert!(!worklist.is_empty());
        let mut visited = Vec::new();
        let processed = worklist.drain(&compiled, |op| {
            visited.push(op.kind);
            // Claim every output changed: the full downstream cone must run.
            0b11
        });
        // AND + XOR (readers of `a`) plus the two NOTs downstream of the AND.
        assert_eq!(processed, 4);
        assert_eq!(visited.len(), 4);
        assert!(worklist.is_empty());
    }

    #[test]
    fn drain_terminates_early_when_values_do_not_change() {
        let (netlist, nets) = chain();
        let compiled = netlist.compile().unwrap();
        let mut worklist = DirtyWorklist::new(&compiled);
        worklist.seed_readers(&compiled, nets[0]);
        // Claim nothing changed: only the directly seeded readers run.
        let processed = worklist.drain(&compiled, |_| 0);
        assert_eq!(processed, 2);
        assert!(worklist.is_empty());
    }

    #[test]
    fn enqueue_is_idempotent_across_both_inputs() {
        let (netlist, nets) = chain();
        let compiled = netlist.compile().unwrap();
        let mut worklist = DirtyWorklist::new(&compiled);
        // Both inputs feed the AND and the XOR; each cell must still run once.
        worklist.seed_readers(&compiled, nets[0]);
        worklist.seed_readers(&compiled, nets[1]);
        let processed = worklist.drain(&compiled, |_| 0);
        assert_eq!(processed, 2);
    }

    #[test]
    fn reset_clears_pending_work() {
        let (netlist, nets) = chain();
        let compiled = netlist.compile().unwrap();
        let mut worklist = DirtyWorklist::new(&compiled);
        worklist.seed_readers(&compiled, nets[0]);
        worklist.reset();
        assert!(worklist.is_empty());
        assert_eq!(worklist.drain(&compiled, |_| 0b11), 0);
        // The worklist stays usable after a reset.
        worklist.seed_cell(&compiled, compiled.ops()[0].cell);
        assert_eq!(worklist.drain(&compiled, |_| 0), 1);
    }

    #[test]
    fn rebind_seeds_exactly_the_edited_cells() {
        let (mut netlist, nets) = chain();
        let old = netlist.compile().unwrap();
        let mut state = DeltaState::new(&old);
        netlist.replace_cell_kind(CellId(3), CellKind::Or2).unwrap(); // XOR -> OR
        let new = netlist.compile().unwrap();
        state.rebind(&old, &new);
        let mut seeded = Vec::new();
        state.timing.worklist.drain(&new, |op| {
            seeded.push(op.cell);
            0
        });
        assert_eq!(seeded, vec![CellId(3)]);
        // The power channel got the same seed set.
        let mut power_seeded = Vec::new();
        state.power.worklist.drain(&new, |op| {
            power_seeded.push(op.cell);
            0
        });
        assert_eq!(power_seeded, vec![CellId(3)]);
        let _ = nets;
    }

    #[test]
    fn rebind_swapped_seeds_what_rebind_would() {
        let (mut netlist, nets) = chain();
        let old = netlist.compile().unwrap();
        // AND(a, b) and XOR(a, b) trade `b` and `a`: both stay on level 0.
        let (and, xor) = (CellId(0), CellId(3));
        let mut patched = old.clone();
        assert!(patched.swap_inputs(and, 1, xor, 0));
        netlist.rewire_input(and, 1, nets[0]).unwrap();
        netlist.rewire_input(xor, 0, nets[1]).unwrap();
        let recompiled = netlist.compile().unwrap();
        assert_eq!(patched, recompiled);
        let mut by_patch = DeltaState::new(&old);
        by_patch.rebind_swapped(&patched, [and, xor]);
        let mut by_rebind = DeltaState::new(&old);
        by_rebind.rebind(&old, &recompiled);
        let seeded = |state: &mut DeltaState| {
            let mut cells = Vec::new();
            state.timing.worklist.drain(&patched, |op| {
                cells.push(op.cell);
                0
            });
            state.power.worklist.drain(&patched, |op| {
                cells.push(op.cell);
                0
            });
            cells
        };
        assert_eq!(seeded(&mut by_patch), vec![and, xor, and, xor]);
        assert_eq!(seeded(&mut by_rebind), vec![and, xor, and, xor]);
        assert_eq!(by_patch.bound_hash, by_rebind.bound_hash);
    }

    #[test]
    #[should_panic(expected = "unchanged net universe")]
    fn rebind_rejects_grown_netlists() {
        let (mut netlist, _) = chain();
        let old = netlist.compile().unwrap();
        let mut state = DeltaState::new(&old);
        let a = netlist.inputs()[0];
        netlist.add_gate(CellKind::Not, &[a]).unwrap();
        let new = netlist.compile().unwrap();
        state.rebind(&old, &new);
    }
}
