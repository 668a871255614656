//! `fa_anneal`: delta-powered greedy local search over the FA-tree allocation.
//!
//! The flow starts from the `fa_random` tree allocation (same seed, same
//! pseudo-random FA input selection, `Objective::Power`) with a **ripple-carry**
//! final adder, then descends: it proposes input-pin swaps inside the carry-save
//! adder mass, scores every candidate through the incremental delta path
//! ([`IncrementalTiming::rerun_delta`] / [`IncrementalPower::rerun_delta`],
//! `O(dirty cone)` per move), and keeps a move only when it is a Pareto
//! improvement (switching energy and critical delay both no worse, one strictly
//! better, compared bit-for-bit).
//!
//! A move updates the held [`CompiledNetlist`] in place when it can:
//! [`CompiledNetlist::swap_inputs`] patches the two operands and fanout entries
//! whenever the swap keeps the op order, and [`DeltaState::rebind_swapped`] seeds
//! the two cells. Only a swap that reorders the ops compiles the rewired netlist
//! and [`DeltaState::rebind`]s onto it ([`AnnealStats::patched`] /
//! [`AnnealStats::recompiled`]). A rejected move never compiles: a patch is undone
//! by the reverse patch, a recompiled move by rebinding onto the program held
//! before it. Either way the dirty cones are rerun, so the live delta view stays
//! bit-identical to a from-scratch analysis after every settled proposal. The one
//! full analysis pass per channel is the priming `rerun_delta` on the fresh state;
//! the move loop never runs one (asserted by the `anneal_throughput` bench via
//! [`AnnealStats::full_passes`]).
//!
//! # Why the moves preserve the synthesized function
//!
//! Every `Fa`/`Ha` cell satisfies the exact weighted identity
//! `Σ inputs = sum + 2·cout`. Group the adder cells into connected components
//! (linked through sum edges at the same column and carry edges one column up) and
//! assign each cell a relative column. Summing the identity over a component, the
//! internally consumed nets cancel and what remains is: the weighted sum of the
//! component's *boundary* outputs equals the weighted sum of its consumed external
//! sources. Swapping the source nets of two input pins in the same column permutes
//! the consumed multiset without changing that total. The individual boundary bits
//! are then pinned down — not just their total — when the boundary weights are
//! pairwise distinct and every dangling (unread) output sits above them: the
//! boundary is the unique binary representation of the invariant total's low bits.
//! Components violating any of this (column conflicts, multiply-consumed or
//! externally observed internal nets, colliding boundary weights) are excluded
//! from the move pool entirely.
//!
//! This is also why the start netlist uses [`FinalAdderKind::Ripple`]: a ripple
//! root is made of `Fa`/`Ha` cells, so the CSA tree and the final adder fuse into
//! one component whose boundary is exactly the distinct-weight output bits. The
//! default carry-lookahead root is gate-level (`Xor2`/`And2`/`Or2`); behind it the
//! two reduced rows collide pairwise per column and no swap would be provably
//! safe. The trade is visible and tested: `fa_anneal` keeps the `fa_random` tree
//! at equal seed budget, gives up the lookahead root's delay, and wins area and
//! switching energy — it is never Pareto-dominated by `fa_random`.
//!
//! Cell kinds are never changed: no same-arity kind substitution preserves an
//! adder's function, so [`Netlist::replace_cell_kind`] stays a test-suite mutator
//! and the search uses [`Netlist::rewire_input`] only.

use crate::flow::{BaselineError, FlowResult};
use crate::Flow;
use dpsyn_core::{input_profiles, FinalAdderKind, SelectionStrategy};
use dpsyn_ir::{Expr, InputSpec};
use dpsyn_netlist::{CellId, CellKind, CompiledNetlist, DeltaState, InputDelta, Netlist};
use dpsyn_power::{IncrementalPower, PowerReport};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::{IncrementalTiming, TimingReport};
use std::collections::{BTreeMap, VecDeque};

/// Scored proposals per run. Budget-bounded, so a run's cost is predictable; the
/// stall limit below usually ends the descent first.
const MOVE_BUDGET: u64 = 256;
/// Consecutive non-improving proposals before the descent gives up.
const STALL_LIMIT: u64 = 96;
/// Candidate draws per proposal before the proposal is abandoned as undrawable.
const DRAWS_PER_PROPOSAL: u32 = 16;

/// Counters proving how the search loop did its work. The `anneal_throughput`
/// bench and the equivalence suites assert against these: in particular
/// [`AnnealStats::full_passes`] stays at the two priming passes (one per channel)
/// no matter how many moves were scored — every in-loop metric came from
/// `rerun_delta`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnealStats {
    /// Moves scored through the delta path.
    pub proposals: u64,
    /// Scored moves kept (Pareto improvements over the current point).
    pub accepted: u64,
    /// Scored moves rolled back through the delta path.
    pub rejected: u64,
    /// Proposals applied by patching the held program in place
    /// ([`CompiledNetlist::swap_inputs`]); `patched + recompiled == proposals`.
    pub patched: u64,
    /// Proposals that changed the op order and so compiled the swapped netlist.
    /// The move loop compiles exactly this often: rollbacks never compile.
    pub recompiled: u64,
    /// Candidate draws dropped before scoring (no-op pair or cycle risk).
    pub discarded: u64,
    /// `rerun_delta` calls across both channels (scoring and rollbacks).
    pub delta_reruns: u64,
    /// Full passes: exactly 2 (the priming `rerun_delta` of the timing and the
    /// power channel), never more.
    pub full_passes: u64,
    /// Function-preserving swap groups found in the start netlist.
    pub swap_groups: usize,
    /// Input pins participating in those groups.
    pub swap_pins: usize,
}

/// The annealer's live view after one settled proposal (post-rollback for a
/// rejected move), handed to the observer of [`fa_anneal_observed`]. Everything a
/// caller needs to cross-check the delta view against a from-scratch analysis.
pub struct AnnealStep<'a> {
    /// The netlist after the proposal settled.
    pub netlist: &'a Netlist,
    /// The compiled program the delta state is currently bound to.
    pub compiled: &'a CompiledNetlist,
    /// The live timing report (produced by `rerun_delta`).
    pub timing: &'a TimingReport,
    /// The live power report (produced by `rerun_delta`).
    pub power: &'a PowerReport,
    /// Whether the proposal was accepted (`false`: it was rolled back).
    pub accepted: bool,
    /// Running counters as of this step.
    pub stats: AnnealStats,
}

/// The deterministic splitmix64 generator driving candidate selection.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Finds the function-preserving move pool of a netlist: input pins of safe
/// carry-save components, grouped by (component, column). Swapping the source
/// nets of any two pins within one group preserves every primary output (see the
/// module docs for the weighted-mass argument). Groups are computed once per
/// start netlist — the classification is invariant under the swaps it licenses.
fn swap_groups(netlist: &Netlist, compiled: &CompiledNetlist) -> Vec<Vec<(CellId, usize)>> {
    let cell_count = netlist.cell_count();
    let mut is_adder = vec![false; cell_count];
    for (id, cell) in netlist.cells() {
        is_adder[id.index()] = matches!(cell.kind(), CellKind::Fa | CellKind::Ha);
    }
    // Undirected adder-to-adder adjacency with column deltas: a sum edge keeps the
    // column, a carry edge raises it by one.
    let mut adjacency: Vec<Vec<(usize, i64)>> = vec![Vec::new(); cell_count];
    for (id, cell) in netlist.cells() {
        if !is_adder[id.index()] {
            continue;
        }
        for (pin, net) in cell.outputs().iter().enumerate() {
            let delta = pin as i64; // output 0 = sum (same column), 1 = cout (+1)
            for (reader, _) in compiled.fanout(*net) {
                if is_adder[reader.index()] {
                    adjacency[id.index()].push((reader.index(), delta));
                    adjacency[reader.index()].push((id.index(), -delta));
                }
            }
        }
    }
    // Label relative columns per connected component; a conflicting label means
    // the component has no consistent arithmetic interpretation.
    let mut component = vec![usize::MAX; cell_count];
    let mut column = vec![0i64; cell_count];
    let mut safe: Vec<bool> = Vec::new();
    for start in 0..cell_count {
        if !is_adder[start] || component[start] != usize::MAX {
            continue;
        }
        let comp = safe.len();
        let mut ok = true;
        component[start] = comp;
        column[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(cell) = queue.pop_front() {
            for &(next, delta) in &adjacency[cell] {
                let want = column[cell] + delta;
                if component[next] == usize::MAX {
                    component[next] = comp;
                    column[next] = want;
                    queue.push_back(next);
                } else if column[next] != want {
                    ok = false;
                }
            }
        }
        safe.push(ok);
    }
    // Classify every adder-driven net: internal nets cancel in the mass identity,
    // boundary nets must be reconstructible from the invariant total, anything
    // consumed more than once or both inside and outside poisons its component.
    let mut output_mask = vec![false; netlist.net_count()];
    for net in netlist.outputs() {
        output_mask[net.index()] = true;
    }
    let mut boundary: Vec<Vec<i64>> = vec![Vec::new(); safe.len()];
    let mut dangling: Vec<Vec<i64>> = vec![Vec::new(); safe.len()];
    for (id, cell) in netlist.cells() {
        let index = id.index();
        if !is_adder[index] {
            continue;
        }
        let comp = component[index];
        for (pin, net) in cell.outputs().iter().enumerate() {
            let weight = column[index] + pin as i64;
            let readers = compiled.fanout(*net);
            let adder_pins = readers
                .iter()
                .filter(|(reader, _)| is_adder[reader.index()])
                .count();
            let others = readers.len() - adder_pins;
            let observed = others > 0 || output_mask[net.index()];
            if adder_pins == 1 && !observed {
                // Internal: produced and consumed exactly once inside the mass.
            } else if adder_pins == 0 {
                if observed {
                    boundary[comp].push(weight);
                } else {
                    dangling[comp].push(weight);
                }
            } else {
                safe[comp] = false;
            }
        }
    }
    for comp in 0..safe.len() {
        if !safe[comp] {
            continue;
        }
        let weights = &mut boundary[comp];
        weights.sort_unstable();
        if weights.windows(2).any(|pair| pair[0] == pair[1]) {
            safe[comp] = false;
            continue;
        }
        if let Some(&max_boundary) = weights.last() {
            if dangling[comp].iter().any(|&weight| weight <= max_boundary) {
                safe[comp] = false;
            }
        }
    }
    let mut groups: BTreeMap<(usize, i64), Vec<(CellId, usize)>> = BTreeMap::new();
    for (id, cell) in netlist.cells() {
        let index = id.index();
        if !is_adder[index] || !safe[component[index]] {
            continue;
        }
        for pin in 0..cell.inputs().len() {
            groups
                .entry((component[index], column[index]))
                .or_default()
                .push((id, pin));
        }
    }
    groups
        .into_values()
        .filter(|group| group.len() >= 2)
        .collect()
}

/// The `fa_anneal` flow ([`Flow::FaAnneal`]): `fa_random(seed)` tree allocation with
/// a ripple root, improved by delta-scored greedy descent (see the module docs),
/// plus the loop counters, for callers asserting *how* the result was produced (the
/// throughput bench and the equivalence suites).
///
/// # Errors
///
/// Returns an error if lowering, synthesis or any analysis fails.
pub fn fa_anneal_with_stats(
    expr: &Expr,
    spec: &InputSpec,
    width: u32,
    tech: &TechLibrary,
    seed: u64,
) -> Result<(FlowResult, AnnealStats), BaselineError> {
    fa_anneal_observed(expr, spec, width, tech, seed, |_| {})
}

/// [`fa_anneal_with_stats`] with an observer called after every settled proposal
/// (accepted, or rejected and already rolled back), exposing the live delta view
/// for bit-identity cross-checks against a from-scratch analysis.
///
/// # Errors
///
/// Returns an error if lowering, synthesis or any analysis fails.
pub fn fa_anneal_observed(
    expr: &Expr,
    spec: &InputSpec,
    width: u32,
    tech: &TechLibrary,
    seed: u64,
    mut observer: impl FnMut(&AnnealStep<'_>),
) -> Result<(FlowResult, AnnealStats), BaselineError> {
    let FlowResult {
        mut netlist,
        word_map,
        mut compiled,
        area,
        ..
    } = Flow::FaAnneal(seed).fa_tree(
        expr,
        spec,
        width,
        tech,
        SelectionStrategy::Random(seed),
        FinalAdderKind::Ripple,
    )?;

    // Prime each channel of the fresh state with one full pass under the design's
    // input profile.
    let (arrivals, probabilities) = input_profiles(&word_map, spec);
    let mut profile = InputDelta::new();
    for (net, arrival) in arrivals {
        profile.set_arrival(net, arrival);
    }
    for (net, probability) in probabilities {
        profile.set_probability(net, probability);
    }
    let mut state = DeltaState::new(&compiled);
    // Swaps never change the kind set, so the technology resolves once per search.
    let timing_engine = IncrementalTiming::new(tech, &compiled)?;
    let power_engine = IncrementalPower::new(tech, &compiled)?;
    let mut timing = timing_engine.rerun_delta(&compiled, &mut state, &profile)?;
    let mut power = power_engine.rerun_delta(&compiled, &mut state, &profile)?;
    // Swaps never change the cell set, so the start's area holds across the search.

    let groups = swap_groups(&netlist, &compiled);
    let mut stats = AnnealStats {
        full_passes: 2,
        swap_groups: groups.len(),
        swap_pins: groups.iter().map(Vec::len).sum(),
        ..AnnealStats::default()
    };

    let mut rng = SplitMix(seed ^ 0xa55e_a1ed_5eed_0001);
    let empty_delta = InputDelta::new();
    let mut stall = 0u64;
    while !groups.is_empty() && stats.proposals < MOVE_BUDGET && stall < STALL_LIMIT {
        // Draw a candidate: two distinct same-group pins with distinct sources
        // whose exchanged edges both point forward in the current levelization
        // (drivers strictly precede their new readers, so the swap cannot close
        // a cycle).
        let mut candidate = None;
        for _ in 0..DRAWS_PER_PROPOSAL {
            let group = &groups[rng.below(groups.len())];
            let (cell_a, pin_a) = group[rng.below(group.len())];
            let (cell_b, pin_b) = group[rng.below(group.len())];
            if (cell_a, pin_a) == (cell_b, pin_b) {
                stats.discarded += 1;
                continue;
            }
            let source_a = netlist.cell(cell_a).inputs()[pin_a];
            let source_b = netlist.cell(cell_b).inputs()[pin_b];
            let forward =
                |net: dpsyn_netlist::NetId, reader: CellId| match netlist.net(net).driver() {
                    None => true,
                    Some((driver, _)) => compiled.op_index(driver) < compiled.op_index(reader),
                };
            if source_a == source_b || !forward(source_b, cell_a) || !forward(source_a, cell_b) {
                stats.discarded += 1;
                continue;
            }
            candidate = Some((cell_a, pin_a, source_a, cell_b, pin_b, source_b));
            break;
        }
        let Some((cell_a, pin_a, source_a, cell_b, pin_b, source_b)) = candidate else {
            stall += 1;
            continue;
        };

        // Apply the swap to the netlist and to the held program: patched in place
        // when the op order survives, otherwise recompiled, keeping the pre-move
        // program for a rollback. Then rerun the dirty cone of each channel with
        // an empty input delta.
        netlist.rewire_input(cell_a, pin_a, source_b)?;
        netlist.rewire_input(cell_b, pin_b, source_a)?;
        let before = if compiled.swap_inputs(cell_a, pin_a, cell_b, pin_b) {
            state.rebind_swapped(&compiled, [cell_a, cell_b]);
            stats.patched += 1;
            None
        } else {
            let recompiled = netlist.compile()?;
            state.rebind(&compiled, &recompiled);
            stats.recompiled += 1;
            Some(std::mem::replace(&mut compiled, recompiled))
        };
        let new_timing = timing_engine.rerun_delta(&compiled, &mut state, &empty_delta)?;
        let new_power = power_engine.rerun_delta(&compiled, &mut state, &empty_delta)?;
        stats.proposals += 1;
        stats.delta_reruns += 2;

        let energy_improves = new_power.total_energy() < power.total_energy();
        let energy_holds = new_power.total_energy() <= power.total_energy();
        let delay_improves = new_timing.critical_delay() < timing.critical_delay();
        let delay_holds = new_timing.critical_delay() <= timing.critical_delay();
        let accepted = (energy_improves && delay_holds) || (energy_holds && delay_improves);
        if accepted {
            timing = new_timing;
            power = new_power;
            stats.accepted += 1;
            stall = 0;
        } else {
            // Roll back without compiling: undo a patch with the reverse patch, or
            // rebind onto the program held before the move (what compiling the
            // restored netlist would give), then rerun the dirty cones, which land
            // back on bit-identical reports.
            netlist.rewire_input(cell_a, pin_a, source_a)?;
            netlist.rewire_input(cell_b, pin_b, source_b)?;
            match before {
                None => {
                    let undone = compiled.swap_inputs(cell_a, pin_a, cell_b, pin_b);
                    assert!(undone, "the reverse of an applied patch always applies");
                    state.rebind_swapped(&compiled, [cell_a, cell_b]);
                }
                Some(before) => {
                    state.rebind(&compiled, &before);
                    compiled = before;
                }
            }
            timing = timing_engine.rerun_delta(&compiled, &mut state, &empty_delta)?;
            power = power_engine.rerun_delta(&compiled, &mut state, &empty_delta)?;
            stats.delta_reruns += 2;
            stats.rejected += 1;
            stall += 1;
        }
        observer(&AnnealStep {
            netlist: &netlist,
            compiled: &compiled,
            timing: &timing,
            power: &power,
            accepted,
            stats,
        });
    }

    let result = FlowResult {
        flow: "fa_anneal".to_string(),
        delay: timing.critical_delay(),
        area,
        switching_energy: power.total_energy(),
        power_mw: power.power_mw(),
        netlist,
        word_map,
        compiled,
    };
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_core::{Objective, Synthesizer};
    use dpsyn_ir::parse_expr;
    use dpsyn_sim::check_equivalence;

    fn setup() -> (Expr, InputSpec, TechLibrary) {
        (
            parse_expr("a*b + c + 7").unwrap(),
            InputSpec::builder()
                .var_with_arrival("a", 4, 1.0)
                .var_with_probability("b", 4, 0.85)
                .var_with_probability("c", 4, 0.1)
                .build()
                .unwrap(),
            TechLibrary::lcbg10pv_like(),
        )
    }

    #[test]
    fn anneal_preserves_function() {
        let (expr, spec, lib) = setup();
        let result = Flow::FaAnneal(3).run(&expr, &spec, 9, &lib).unwrap();
        check_equivalence(&result.netlist, &result.word_map, &expr, &spec, 9, 128, 5).unwrap();
    }

    #[test]
    fn anneal_finds_moves_and_keeps_the_loop_incremental() {
        let (expr, spec, lib) = setup();
        let (result, stats) = fa_anneal_with_stats(&expr, &spec, 9, &lib, 3).unwrap();
        assert!(stats.swap_groups > 0, "no safe swap groups: {stats:?}");
        assert!(stats.proposals > 0, "no proposals scored: {stats:?}");
        assert_eq!(stats.full_passes, 2, "{stats:?}");
        assert_eq!(stats.proposals, stats.accepted + stats.rejected);
        assert_eq!(
            stats.proposals,
            stats.patched + stats.recompiled,
            "{stats:?}"
        );
        assert_eq!(
            stats.delta_reruns,
            2 * stats.proposals + 2 * stats.rejected,
            "{stats:?}"
        );
        // The carried compiled program matches the carried netlist, and the
        // metrics are what a from-scratch analysis of it reports.
        let fresh = FlowResult::analyze(
            "fa_anneal",
            result.netlist.clone(),
            result.word_map.clone(),
            &spec,
            &lib,
        )
        .unwrap();
        assert_eq!(result.compiled, fresh.compiled);
        assert_eq!(result.delay.to_bits(), fresh.delay.to_bits());
        assert_eq!(result.area.to_bits(), fresh.area.to_bits());
        assert_eq!(
            result.switching_energy.to_bits(),
            fresh.switching_energy.to_bits()
        );
        assert_eq!(result.power_mw.to_bits(), fresh.power_mw.to_bits());
    }

    #[test]
    fn anneal_never_regresses_its_own_start() {
        let (expr, spec, lib) = setup();
        // Seed 3's start point: the same synthesis without any accepted moves.
        let start = Synthesizer::new(&expr, &spec)
            .objective(Objective::Power)
            .technology(&lib)
            .output_width(9)
            .name("fa_anneal")
            .strategy(SelectionStrategy::Random(3))
            .final_adder(FinalAdderKind::Ripple)
            .run()
            .unwrap();
        let result = Flow::FaAnneal(3).run(&expr, &spec, 9, &lib).unwrap();
        assert!(result.switching_energy <= start.report().switching_energy);
        assert!(result.delay <= start.report().delay);
        assert_eq!(result.area.to_bits(), start.report().area.to_bits());
    }

    #[test]
    fn anneal_is_deterministic() {
        let (expr, spec, lib) = setup();
        let (first, first_stats) = fa_anneal_with_stats(&expr, &spec, 9, &lib, 11).unwrap();
        let (second, second_stats) = fa_anneal_with_stats(&expr, &spec, 9, &lib, 11).unwrap();
        assert_eq!(first_stats, second_stats);
        assert_eq!(first.netlist, second.netlist);
        assert_eq!(first.delay.to_bits(), second.delay.to_bits());
        assert_eq!(
            first.switching_energy.to_bits(),
            second.switching_energy.to_bits()
        );
        // A different seed explores a different trajectory.
        let (other, _) = fa_anneal_with_stats(&expr, &spec, 9, &lib, 12).unwrap();
        assert_ne!(first.netlist, other.netlist);
    }

    #[test]
    fn swap_groups_reject_observed_internal_nets() {
        // Two chained HAs whose intermediate sum is also a primary output: the
        // component's internal net is externally observed, so no swap is safe.
        let mut netlist = Netlist::new("observed");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let first = netlist.add_gate(CellKind::Ha, &[a, b]).unwrap();
        let second = netlist.add_gate(CellKind::Ha, &[first[0], c]).unwrap();
        netlist.mark_output(first[0]);
        netlist.mark_output(second[0]);
        netlist.mark_output(second[1]);
        netlist.mark_output(first[1]);
        let compiled = netlist.compile().unwrap();
        assert!(swap_groups(&netlist, &compiled).is_empty());
    }

    #[test]
    fn swap_groups_reject_column_conflicts() {
        // An HA whose sum (column 0) and cout (column 1) both feed one FA: the sum
        // edge puts the FA at column 0, the carry edge at column 1, so the
        // component has no consistent arithmetic interpretation.
        let mut netlist = Netlist::new("conflict");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let first = netlist.add_gate(CellKind::Ha, &[a, b]).unwrap();
        let clash = netlist
            .add_gate(CellKind::Fa, &[first[0], first[1], a])
            .unwrap();
        netlist.mark_output(clash[0]);
        netlist.mark_output(clash[1]);
        let compiled = netlist.compile().unwrap();
        assert!(swap_groups(&netlist, &compiled).is_empty());
    }

    #[test]
    fn swap_groups_reject_colliding_boundary_weights() {
        // FA(a, b, c) whose sum feeds HA(s, d), with the FA's cout and both HA
        // outputs observed: columns are consistent and the FA sum is internal, but
        // the FA cout and the HA cout are both boundary bits of weight 1, so the
        // invariant total no longer pins down the individual bits.
        let mut netlist = Netlist::new("collide");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let d = netlist.add_input("d");
        let full = netlist.add_gate(CellKind::Fa, &[a, b, c]).unwrap();
        let half = netlist.add_gate(CellKind::Ha, &[full[0], d]).unwrap();
        netlist.mark_output(full[1]);
        netlist.mark_output(half[0]);
        netlist.mark_output(half[1]);
        let compiled = netlist.compile().unwrap();
        assert!(swap_groups(&netlist, &compiled).is_empty());
    }

    #[test]
    fn swap_groups_accept_a_clean_ripple_chain() {
        // a+b+c as Ha -> Fa ripple: one component, boundary = the three output
        // bits at distinct weights; the column-0 pins form one swappable group.
        let mut netlist = Netlist::new("ripple");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let d = netlist.add_input("d");
        let low = netlist.add_gate(CellKind::Ha, &[a, b]).unwrap();
        let high = netlist.add_gate(CellKind::Fa, &[c, d, low[1]]).unwrap();
        netlist.mark_output(low[0]);
        netlist.mark_output(high[0]);
        netlist.mark_output(high[1]);
        let compiled = netlist.compile().unwrap();
        let groups = swap_groups(&netlist, &compiled);
        // Column 0: the Ha's two pins. Column 1: the Fa's three pins.
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 3);
    }
}
