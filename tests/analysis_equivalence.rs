//! Golden equivalence suite for the compiled-analysis layer.
//!
//! The timing and power analyses were rewritten as single-pass evaluators over the
//! shared `CompiledNetlist` program. This suite pins the refactored reports
//! **bit-identical** to the pre-refactor implementations, which are reproduced here
//! verbatim as reference oracles (topological-order walk, per-cell technology map
//! lookups, allocating fanout map), across:
//!
//! * seeded random DAGs mixing every cell kind, with skewed arrival / probability
//!   profiles,
//! * the 16×16 Wallace-tree multiplier under skewed arrival / probability
//!   profiles, and
//! * all ten benchmark designs of the paper's Table 1, synthesized end to end.
//!
//! Each random-DAG comparison covers both full passes: the stateless
//! `run_compiled` and the priming `rerun_delta` on a fresh `DeltaState`.
//!
//! It also pins the compiled program's traversals (its levels, op order, fanout
//! CSR and level count) to the legacy Kahn traversal, including the cycle-culprit
//! error, and the compiled area to the legacy per-cell fold.

use dpsyn_core::{Objective, Synthesizer};
use dpsyn_modules::multiplier::wallace_multiply;
use dpsyn_netlist::{CellId, CellKind, DeltaState, InputDelta, NetId, Netlist};
use dpsyn_power::{propagate_cell, IncrementalPower, ProbabilityAnalysis};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::{IncrementalTiming, TimingAnalysis};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Legacy reference implementations (the pre-refactor algorithms, verbatim).
// ---------------------------------------------------------------------------

/// The pre-refactor `Netlist::fanout_map`: one freshly allocated `Vec` per net.
fn legacy_fanout_map(netlist: &Netlist) -> Vec<Vec<(CellId, usize)>> {
    let mut map = vec![Vec::new(); netlist.net_count()];
    for (id, cell) in netlist.cells() {
        for (pin, net) in cell.inputs().iter().enumerate() {
            map[net.index()].push((id, pin));
        }
    }
    map
}

/// The pre-refactor `Netlist::levelize`: an independent Kahn traversal over the
/// allocating fanout map. Returns the levels or the first stuck cell on a cycle.
fn legacy_levelize(netlist: &Netlist) -> Result<Vec<Vec<CellId>>, CellId> {
    let mut pending: Vec<usize> = netlist
        .cells()
        .map(|(_, cell)| {
            cell.inputs()
                .iter()
                .filter(|net| netlist.net(**net).driver().is_some())
                .count()
        })
        .collect();
    let fanout = legacy_fanout_map(netlist);
    let mut current: Vec<CellId> = netlist
        .cells()
        .filter(|(id, _)| pending[id.index()] == 0)
        .map(|(id, _)| id)
        .collect();
    let mut levels = Vec::new();
    let mut placed = 0;
    while !current.is_empty() {
        placed += current.len();
        let mut next = Vec::new();
        for cell in &current {
            for net in netlist.cell(*cell).outputs() {
                for (reader, _) in &fanout[net.index()] {
                    pending[reader.index()] -= 1;
                    if pending[reader.index()] == 0 {
                        next.push(*reader);
                    }
                }
            }
        }
        levels.push(current);
        current = next;
    }
    if placed != netlist.cell_count() {
        let culprit = netlist
            .cells()
            .map(|(id, _)| id)
            .find(|id| pending[id.index()] > 0)
            .unwrap();
        return Err(culprit);
    }
    Ok(levels)
}

/// The pre-refactor `Netlist::logic_depth`: a per-net depth walk in topological order.
fn legacy_logic_depth(netlist: &Netlist) -> usize {
    let order = match legacy_levelize(netlist) {
        Ok(levels) => levels.concat(),
        Err(_) => return 0,
    };
    let mut depth = vec![0usize; netlist.net_count()];
    let mut max_depth = 0;
    for cell in order {
        let cell = netlist.cell(cell);
        let input_depth = cell
            .inputs()
            .iter()
            .map(|net| depth[net.index()])
            .max()
            .unwrap_or(0);
        for net in cell.outputs() {
            depth[net.index()] = input_depth + 1;
            max_depth = max_depth.max(input_depth + 1);
        }
    }
    max_depth
}

/// The pre-refactor `TechLibrary::netlist_area`: per-cell area lookups summed in
/// cell-index order.
fn legacy_area(netlist: &Netlist, tech: &TechLibrary) -> f64 {
    netlist
        .cells()
        .map(|(_, cell)| tech.area(cell.kind()))
        .sum()
}

/// The pre-refactor STA loop: topological walk with a `tech.output_delay` map lookup
/// per cell. Returns (arrivals, critical output, critical path).
fn legacy_timing(
    netlist: &Netlist,
    tech: &TechLibrary,
    input_arrivals: &BTreeMap<NetId, f64>,
) -> (Vec<f64>, Option<NetId>, Vec<NetId>) {
    let order = legacy_levelize(netlist).expect("acyclic").concat();
    let mut arrival = vec![0.0f64; netlist.net_count()];
    let mut worst_predecessor: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for net in netlist.inputs() {
        arrival[net.index()] = input_arrivals.get(net).copied().unwrap_or(0.0);
    }
    for cell_id in order {
        let cell = netlist.cell(cell_id);
        let (worst_input, input_arrival) = cell
            .inputs()
            .iter()
            .map(|net| (Some(*net), arrival[net.index()]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((None, 0.0));
        for (pin, net) in cell.outputs().iter().enumerate() {
            arrival[net.index()] = input_arrival + tech.output_delay(cell.kind(), pin);
            worst_predecessor[net.index()] = worst_input;
        }
    }
    let critical_output = netlist
        .outputs()
        .iter()
        .copied()
        .max_by(|a, b| arrival[a.index()].total_cmp(&arrival[b.index()]));
    let critical_path = critical_output
        .map(|output| {
            let mut path = vec![output];
            let mut current = output;
            while let Some(previous) = worst_predecessor[current.index()] {
                path.push(previous);
                current = previous;
            }
            path.reverse();
            path
        })
        .unwrap_or_default();
    (arrival, critical_output, critical_path)
}

/// The pre-refactor probability/power loop: topological walk, per-cell `Vec`
/// staging through `propagate_cell` and a `tech.switch_energy` map lookup per pin.
/// Returns (probabilities, per-cell energies, total energy, total activity).
fn legacy_power(
    netlist: &Netlist,
    tech: &TechLibrary,
    input_probabilities: &BTreeMap<NetId, f64>,
    default: f64,
) -> (Vec<f64>, Vec<f64>, f64, f64) {
    let order = legacy_levelize(netlist).expect("acyclic").concat();
    let mut probability = vec![default; netlist.net_count()];
    for net in netlist.inputs() {
        probability[net.index()] = input_probabilities.get(net).copied().unwrap_or(default);
    }
    let mut cell_energy = vec![0.0f64; netlist.cell_count()];
    let mut total_energy = 0.0f64;
    let mut total_activity = 0.0f64;
    for cell_id in order {
        let cell = netlist.cell(cell_id);
        let inputs: Vec<f64> = cell
            .inputs()
            .iter()
            .map(|net| probability[net.index()])
            .collect();
        let outputs = propagate_cell(cell.kind(), &inputs);
        let mut energy = 0.0;
        for (pin, (net, p)) in cell.outputs().iter().zip(outputs.iter()).enumerate() {
            probability[net.index()] = *p;
            let activity = p * (1.0 - p);
            total_activity += activity;
            energy += tech.switch_energy(cell.kind(), pin) * activity;
        }
        cell_energy[cell_id.index()] = energy;
        total_energy += energy;
    }
    (probability, cell_energy, total_energy, total_activity)
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

/// A tiny deterministic PRNG (splitmix64) so the suite needs no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Builds a seeded random DAG over every cell kind, with a few marked outputs.
fn random_dag(seed: u64) -> Netlist {
    let mut rng = Rng(seed);
    let mut netlist = Netlist::new(format!("dag_{seed}"));
    let input_count = 2 + rng.below(5);
    let mut nets: Vec<NetId> = (0..input_count)
        .map(|index| netlist.add_input(format!("i{index}")))
        .collect();
    let kinds = CellKind::all();
    let cell_count = 5 + rng.below(40);
    for _ in 0..cell_count {
        let kind = kinds[rng.below(kinds.len())];
        let inputs: Vec<NetId> = (0..kind.input_count())
            .map(|_| nets[rng.below(nets.len())])
            .collect();
        let outputs = netlist.add_gate(kind, &inputs).expect("valid arity");
        nets.extend(outputs);
    }
    for _ in 0..(1 + rng.below(4)) {
        let candidate = nets[rng.below(nets.len())];
        netlist.mark_output(candidate);
    }
    netlist
}

/// Skewed input profiles for a netlist, drawn deterministically from `seed`.
fn random_profiles(netlist: &Netlist, seed: u64) -> (BTreeMap<NetId, f64>, BTreeMap<NetId, f64>) {
    let mut rng = Rng(seed ^ 0xdead_beef);
    let mut arrivals = BTreeMap::new();
    let mut probabilities = BTreeMap::new();
    for net in netlist.inputs() {
        if rng.below(4) != 0 {
            arrivals.insert(*net, rng.unit() * 7.5);
        }
        if rng.below(4) != 0 {
            probabilities.insert(*net, rng.unit());
        }
    }
    (arrivals, probabilities)
}

fn assert_bits_eq(label: &str, left: &[f64], right: &[f64]) {
    assert_eq!(left.len(), right.len(), "{label}: length mismatch");
    for (index, (a, b)) in left.iter().zip(right.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}[{index}]: {a} vs {b} differ in bits"
        );
    }
}

// ---------------------------------------------------------------------------
// The suite.
// ---------------------------------------------------------------------------

#[test]
fn traversals_match_legacy_on_random_dags() {
    for seed in 0..64 {
        let netlist = random_dag(seed);
        let levels = legacy_levelize(&netlist).expect("acyclic by construction");
        let compiled = netlist.compile().unwrap();
        assert_eq!(compiled.levels(), levels, "seed {seed}");
        let order: Vec<CellId> = compiled.ops().iter().map(|op| op.cell).collect();
        assert_eq!(order, levels.concat(), "seed {seed}");
        assert_eq!(
            compiled.level_count(),
            legacy_logic_depth(&netlist),
            "seed {seed}"
        );
        assert_eq!(compiled.level_count(), levels.len(), "seed {seed}");
        // Fanout CSR vs the allocating map, entry for entry.
        let legacy = legacy_fanout_map(&netlist);
        for (net, _) in netlist.nets() {
            let csr: Vec<(CellId, usize)> = compiled
                .fanout(net)
                .iter()
                .map(|(cell, pin)| (*cell, *pin as usize))
                .collect();
            assert_eq!(csr, legacy[net.index()], "seed {seed}, net {net}");
        }
    }
}

#[test]
fn cycle_culprits_match_legacy() {
    // A 2-cell loop hanging off a legal prefix: both traversals must converge on the
    // same (lowest-indexed) stuck cell.
    let mut netlist = Netlist::new("cyclic");
    let a = netlist.add_input("a");
    let head = netlist.add_gate(CellKind::Not, &[a]).unwrap()[0];
    let loop_net = netlist.add_net("loop");
    let mid = netlist.add_net("mid");
    netlist
        .add_cell(CellKind::And2, "g1", vec![head, loop_net], vec![mid])
        .unwrap();
    netlist
        .add_cell(CellKind::Buf, "g2", vec![mid], vec![loop_net])
        .unwrap();
    let legacy = legacy_levelize(&netlist).unwrap_err();
    let refactored = netlist.compile().unwrap_err();
    match refactored {
        dpsyn_netlist::NetlistError::CombinationalCycle { cell } => {
            assert_eq!(cell, legacy)
        }
        other => panic!("expected a cycle error, got {other}"),
    }
}

#[test]
fn timing_reports_match_legacy_on_random_dags() {
    let lib = TechLibrary::lcbg10pv_like();
    let unit = TechLibrary::unit();
    for seed in 0..64 {
        let netlist = random_dag(seed);
        let (arrivals, _) = random_profiles(&netlist, seed);
        let compiled = netlist.compile().unwrap();
        for tech in [&lib, &unit] {
            let (legacy_arrival, legacy_output, legacy_path) =
                legacy_timing(&netlist, tech, &arrivals);
            let analysis = TimingAnalysis::new(tech).with_input_arrivals(arrivals.clone());
            let mut prime = InputDelta::new();
            for (net, arrival) in &arrivals {
                prime.set_arrival(*net, *arrival);
            }
            let primed = IncrementalTiming::new(tech, &compiled)
                .unwrap()
                .rerun_delta(&compiled, &mut DeltaState::new(&compiled), &prime)
                .unwrap()
                .to_report();
            for report in [analysis.run_compiled(&compiled).unwrap(), primed] {
                assert_bits_eq("arrival", report.arrivals(), &legacy_arrival);
                assert_eq!(report.critical_output(), legacy_output, "seed {seed}");
                assert_eq!(report.critical_path(), legacy_path, "seed {seed}");
            }
        }
    }
}

#[test]
fn power_reports_match_legacy_on_random_dags() {
    let lib = TechLibrary::lcbg10pv_like();
    let unit = TechLibrary::unit();
    for seed in 0..64 {
        let netlist = random_dag(seed);
        let (_, probabilities) = random_profiles(&netlist, seed);
        let compiled = netlist.compile().unwrap();
        for tech in [&lib, &unit] {
            let (legacy_p, legacy_cell_energy, legacy_total, legacy_activity) =
                legacy_power(&netlist, tech, &probabilities, 0.5);
            let analysis =
                ProbabilityAnalysis::new(tech).with_input_probabilities(probabilities.clone());
            let mut prime = InputDelta::new();
            for (net, probability) in &probabilities {
                prime.set_probability(*net, *probability);
            }
            let primed = IncrementalPower::new(tech, &compiled)
                .unwrap()
                .rerun_delta(&compiled, &mut DeltaState::new(&compiled), &prime)
                .unwrap()
                .to_report();
            for report in [analysis.run_compiled(&compiled).unwrap(), primed] {
                assert_bits_eq("probability", report.probabilities(), &legacy_p);
                let cell_energy: Vec<f64> = netlist
                    .cells()
                    .map(|(id, _)| report.cell_energy(id))
                    .collect();
                assert_bits_eq("cell_energy", &cell_energy, &legacy_cell_energy);
                assert_eq!(report.total_energy().to_bits(), legacy_total.to_bits());
                assert_eq!(report.total_activity().to_bits(), legacy_activity.to_bits());
            }
        }
    }
}

#[test]
fn synthesized_benchmark_reports_match_legacy() {
    // All ten Table-1 designs, synthesized end to end under both objectives the
    // tables use; the report figures must equal a from-scratch legacy re-analysis of
    // the emitted netlist bit for bit.
    let lib = TechLibrary::lcbg10pv_like();
    for design in dpsyn_designs::table1_designs() {
        for objective in [Objective::Timing, Objective::Power] {
            let synthesized = Synthesizer::new(design.expr(), design.spec())
                .objective(objective)
                .technology(&lib)
                .output_width(design.output_width())
                .name(design.name())
                .run()
                .expect("benchmark synthesis succeeds");
            let netlist = synthesized.netlist();
            // Reconstruct the spec-driven profiles exactly as the synthesizer does.
            let mut arrivals = BTreeMap::new();
            let mut probabilities = BTreeMap::new();
            for word in synthesized.word_map().inputs() {
                for (bit, net) in word.bits().iter().enumerate() {
                    if let Some(profile) = design.spec().bit_profile(word.name(), bit as u32) {
                        arrivals.insert(*net, profile.arrival);
                        probabilities.insert(*net, profile.probability);
                    }
                }
            }
            let (legacy_arrival, legacy_output, _) = legacy_timing(netlist, &lib, &arrivals);
            let (_, _, legacy_energy, _) = legacy_power(netlist, &lib, &probabilities, 0.5);
            let report = synthesized.report();
            let legacy_delay = legacy_output
                .map(|net| legacy_arrival[net.index()])
                .unwrap_or(0.0);
            assert_eq!(
                report.delay.to_bits(),
                legacy_delay.to_bits(),
                "{} delay",
                design.name()
            );
            assert_eq!(
                report.switching_energy.to_bits(),
                legacy_energy.to_bits(),
                "{} energy",
                design.name()
            );
            let legacy_area = legacy_area(netlist, &lib);
            assert_eq!(
                report.area.to_bits(),
                legacy_area.to_bits(),
                "{}",
                design.name()
            );
            assert_eq!(
                report.logic_depth,
                legacy_logic_depth(netlist),
                "{}",
                design.name()
            );
            assert_eq!(report.cell_count, netlist.cell_count());
            assert_eq!(report.net_count, netlist.net_count());
            // The carried compiled program is exactly the netlist's.
            assert_eq!(synthesized.compiled(), &netlist.compile().unwrap());
        }
    }
}

#[test]
fn skew_profiled_wallace_multiplier_matches_legacy() {
    // The 16×16 Wallace-tree multiplier (~560 cells), with mildly skewed profiles
    // so neither analysis degenerates to its defaults.
    let mut netlist = Netlist::new("mult16");
    let a: Vec<NetId> = (0..16)
        .map(|i| netlist.add_input(format!("a{i}")))
        .collect();
    let b: Vec<NetId> = (0..16)
        .map(|i| netlist.add_input(format!("b{i}")))
        .collect();
    for net in wallace_multiply(&mut netlist, &a, &b).expect("multiplier generation") {
        netlist.mark_output(net);
    }
    let arrivals: BTreeMap<NetId, f64> = a
        .iter()
        .enumerate()
        .map(|(bit, net)| (*net, bit as f64 * 0.05))
        .collect();
    let probabilities: BTreeMap<NetId, f64> = b
        .iter()
        .enumerate()
        .map(|(bit, net)| (*net, 0.3 + bit as f64 * 0.02))
        .collect();
    let lib = TechLibrary::lcbg10pv_like();
    netlist.validate_structure().expect("valid netlist");
    let compiled = netlist.compile().expect("acyclic");

    let (legacy_arrival, legacy_output, legacy_path) = legacy_timing(&netlist, &lib, &arrivals);
    let timing = TimingAnalysis::new(&lib)
        .with_input_arrivals(arrivals)
        .run_compiled(&compiled)
        .unwrap();
    assert_bits_eq("arrival", timing.arrivals(), &legacy_arrival);
    assert_eq!(timing.critical_output(), legacy_output);
    assert_eq!(timing.critical_path(), legacy_path);
    let legacy_delay = legacy_arrival[legacy_output.expect("outputs").index()];
    assert_eq!(timing.critical_delay().to_bits(), legacy_delay.to_bits());

    let (legacy_p, legacy_cell_energy, legacy_total, legacy_activity) =
        legacy_power(&netlist, &lib, &probabilities, 0.5);
    let power = ProbabilityAnalysis::new(&lib)
        .with_input_probabilities(probabilities)
        .run_compiled(&compiled)
        .unwrap();
    assert_bits_eq("probability", power.probabilities(), &legacy_p);
    let cell_energy: Vec<f64> = netlist
        .cells()
        .map(|(id, _)| power.cell_energy(id))
        .collect();
    assert_bits_eq("cell_energy", &cell_energy, &legacy_cell_energy);
    assert_eq!(power.total_energy().to_bits(), legacy_total.to_bits());
    assert_eq!(power.total_activity().to_bits(), legacy_activity.to_bits());

    assert_eq!(
        lib.compiled_area(&compiled).to_bits(),
        legacy_area(&netlist, &lib).to_bits()
    );
    assert_eq!(compiled.cell_count(), netlist.cell_count());
    assert_eq!(compiled.level_count(), legacy_logic_depth(&netlist));
}
