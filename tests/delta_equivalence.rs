//! Property suite for the incremental (delta) re-analysis layer.
//!
//! The contract under test: for any sequence of input-profile perturbations and
//! small local rewires applied to a design, every `rerun_delta` report of
//! `IncrementalTiming` / `IncrementalPower` is **bit-identical** to a fresh
//! `run_compiled` of the cumulative configuration — including along branches the
//! dirty-cone worklist terminated early (values recomputed to identical bits) and
//! after `DeltaState::rebind` migrated the state across a recompile. The first
//! `rerun_delta` on a fresh state is the priming full pass, so it is held to the
//! same oracle under the defaults plus the delta's entries.
//!
//! The oracle is deliberately dumb: cumulative `BTreeMap` profiles re-run through
//! the full single-pass analyses on every step.

use dpsyn_netlist::{CellId, CellKind, CompiledNetlist, DeltaState, InputDelta, NetId, Netlist};
use dpsyn_power::{IncrementalPower, PowerReport, ProbabilityAnalysis};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::{IncrementalTiming, TimingAnalysis, TimingReport};
use std::collections::BTreeMap;

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

/// Full bit-level comparison of a delta timing report against the fresh oracle.
fn assert_timing_identical(label: &str, incremental: &TimingReport, fresh: &TimingReport) {
    assert_eq!(incremental, fresh, "{label}: timing report diverged");
    assert_bits_eq(label, incremental.arrivals(), fresh.arrivals());
    assert_eq!(incremental.critical_output(), fresh.critical_output());
    assert_eq!(incremental.critical_path(), fresh.critical_path());
}

/// Full bit-level comparison of a delta power report against the fresh oracle.
fn assert_power_identical(label: &str, incremental: &PowerReport, fresh: &PowerReport) {
    assert_eq!(incremental, fresh, "{label}: power report diverged");
    assert_bits_eq(label, incremental.probabilities(), fresh.probabilities());
    assert_eq!(
        incremental.total_energy().to_bits(),
        fresh.total_energy().to_bits(),
        "{label}: total energy bits"
    );
    assert_eq!(
        incremental.total_activity().to_bits(),
        fresh.total_activity().to_bits(),
        "{label}: total activity bits"
    );
}

/// One perturbation step: picks a random subset of inputs and redraws their arrival
/// and/or probability, deliberately mixing in *no-op* assignments (values equal to
/// the current ones) so the worklist's seed-side early termination is exercised, and
/// coarse value grids so downstream cones frequently recompute to unchanged values
/// (the drain-side early termination).
fn perturb(
    rng: &mut Rng,
    inputs: &[NetId],
    arrivals: &mut BTreeMap<NetId, f64>,
    probabilities: &mut BTreeMap<NetId, f64>,
) -> InputDelta {
    let mut delta = InputDelta::new();
    for &net in inputs {
        match rng.below(4) {
            0 => {
                // Coarse grid: collisions with the current value are common.
                let arrival = rng.below(4) as f64 * 1.25;
                arrivals.insert(net, arrival);
                delta.set_arrival(net, arrival);
            }
            1 => {
                let probability = [0.0, 0.25, 0.5, 0.9][rng.below(4)];
                probabilities.insert(net, probability);
                delta.set_probability(net, probability);
            }
            2 => {
                // Explicit no-op: re-assert the current values of both channels.
                delta.set_arrival(net, arrivals.get(&net).copied().unwrap_or(0.0));
                delta.set_probability(net, probabilities.get(&net).copied().unwrap_or(0.5));
            }
            _ => {} // untouched
        }
    }
    delta
}

/// A delta assigning every entry of both profile maps, in map order.
fn profile_delta(
    arrivals: &BTreeMap<NetId, f64>,
    probabilities: &BTreeMap<NetId, f64>,
) -> InputDelta {
    let mut delta = InputDelta::new();
    for (net, arrival) in arrivals {
        delta.set_arrival(*net, *arrival);
    }
    for (net, probability) in probabilities {
        delta.set_probability(*net, *probability);
    }
    delta
}

/// The fresh-run oracles for the cumulative profile.
fn fresh_reports(
    lib: &TechLibrary,
    compiled: &CompiledNetlist,
    arrivals: &BTreeMap<NetId, f64>,
    probabilities: &BTreeMap<NetId, f64>,
) -> (TimingReport, PowerReport) {
    let timing = TimingAnalysis::new(lib)
        .with_input_arrivals(arrivals.clone())
        .run_compiled(compiled)
        .expect("fresh timing");
    let power = ProbabilityAnalysis::new(lib)
        .with_input_probabilities(probabilities.clone())
        .run_compiled(compiled)
        .expect("fresh power");
    (timing, power)
}

#[test]
fn random_profile_perturbation_sequences_are_bit_identical() {
    for seed in 0..48u64 {
        let netlist = random_dag(seed);
        let compiled = netlist.compile().expect("acyclic");
        let lib = if seed % 2 == 0 {
            TechLibrary::lcbg10pv_like()
        } else {
            TechLibrary::unit()
        };
        let timing_engine = IncrementalTiming::new(&lib, &compiled).expect("resolve");
        let power_engine = IncrementalPower::new(&lib, &compiled).expect("resolve");
        let mut state = DeltaState::new(&compiled);
        let mut rng = Rng(seed ^ 0x5eed);
        let mut arrivals: BTreeMap<NetId, f64> = BTreeMap::new();
        let mut probabilities: BTreeMap<NetId, f64> = BTreeMap::new();
        // Prime with a non-trivial profile and check the prime itself.
        for &net in netlist.inputs() {
            if rng.below(2) == 0 {
                arrivals.insert(net, rng.unit() * 7.5);
            }
            if rng.below(2) == 0 {
                probabilities.insert(net, rng.unit());
            }
        }
        let prime = profile_delta(&arrivals, &probabilities);
        let primed_timing = timing_engine
            .rerun_delta(&compiled, &mut state, &prime)
            .expect("prime timing")
            .to_report();
        let primed_power = power_engine
            .rerun_delta(&compiled, &mut state, &prime)
            .expect("prime power")
            .to_report();
        let (fresh_timing, fresh_power) = fresh_reports(&lib, &compiled, &arrivals, &probabilities);
        assert_timing_identical(&format!("seed {seed} prime"), &primed_timing, &fresh_timing);
        assert_power_identical(&format!("seed {seed} prime"), &primed_power, &fresh_power);

        for round in 0..10 {
            let delta = perturb(
                &mut rng,
                netlist.inputs(),
                &mut arrivals,
                &mut probabilities,
            );
            let label = format!("seed {seed} round {round}");
            let incremental_timing = timing_engine
                .rerun_delta(&compiled, &mut state, &delta)
                .expect("delta timing")
                .to_report();
            let incremental_power = power_engine
                .rerun_delta(&compiled, &mut state, &delta)
                .expect("delta power")
                .to_report();
            let (fresh_timing, fresh_power) =
                fresh_reports(&lib, &compiled, &arrivals, &probabilities);
            assert_timing_identical(&label, &incremental_timing, &fresh_timing);
            assert_power_identical(&label, &incremental_power, &fresh_power);
        }
    }
}

#[test]
fn first_rerun_delta_on_a_fresh_state_is_the_full_pass() {
    for seed in 0..48u64 {
        let netlist = random_dag(seed);
        let compiled = netlist.compile().expect("acyclic");
        let lib = if seed % 2 == 0 {
            TechLibrary::lcbg10pv_like()
        } else {
            TechLibrary::unit()
        };
        let timing_engine = IncrementalTiming::new(&lib, &compiled).expect("resolve");
        let power_engine = IncrementalPower::new(&lib, &compiled).expect("resolve");
        let mut rng = Rng(seed ^ 0xf1257);
        let mut arrivals: BTreeMap<NetId, f64> = BTreeMap::new();
        let mut probabilities: BTreeMap<NetId, f64> = BTreeMap::new();
        // A random subset of inputs, no-op re-assertions of the defaults included;
        // the rest keep the defaults (arrival 0, probability 0.5).
        let mut delta = perturb(
            &mut rng,
            netlist.inputs(),
            &mut arrivals,
            &mut probabilities,
        );
        // A repeated assignment: the later entry wins, as in a map insert.
        let first = netlist.inputs()[0];
        delta.set_arrival(first, 0.75);
        arrivals.insert(first, 0.75);
        delta.set_probability(first, 0.125);
        probabilities.insert(first, 0.125);
        let label = format!("seed {seed} first call");
        let mut state = DeltaState::new(&compiled);
        let timing = timing_engine
            .rerun_delta(&compiled, &mut state, &delta)
            .expect("priming timing")
            .to_report();
        let power = power_engine
            .rerun_delta(&compiled, &mut state, &delta)
            .expect("priming power")
            .to_report();
        let (fresh_timing, fresh_power) = fresh_reports(&lib, &compiled, &arrivals, &probabilities);
        assert_timing_identical(&label, &timing, &fresh_timing);
        assert_power_identical(&label, &power, &fresh_power);
        assert!(state.timing.primed && state.power.primed);

        // An empty first call is the full pass under the defaults alone.
        let mut state = DeltaState::new(&compiled);
        let empty = InputDelta::new();
        let timing = timing_engine
            .rerun_delta(&compiled, &mut state, &empty)
            .expect("default timing")
            .to_report();
        let power = power_engine
            .rerun_delta(&compiled, &mut state, &empty)
            .expect("default power")
            .to_report();
        let (fresh_timing, fresh_power) =
            fresh_reports(&lib, &compiled, &BTreeMap::new(), &BTreeMap::new());
        let label = format!("seed {seed} empty first call");
        assert_timing_identical(&label, &timing, &fresh_timing);
        assert_power_identical(&label, &power, &fresh_power);
    }
}

#[test]
fn a_failed_first_call_leaves_the_state_unprimed() {
    for seed in 0..16u64 {
        let netlist = random_dag(seed);
        let compiled = netlist.compile().expect("acyclic");
        let lib = TechLibrary::lcbg10pv_like();
        let mut state = DeltaState::new(&compiled);

        // A library without one of the program's cell kinds: the engines cannot be
        // built, so no call ever reaches the state.
        let missing = compiled.kind_counts()[0].0;
        let mut builder = TechLibrary::builder("incomplete");
        for kind in CellKind::all().into_iter().filter(|kind| *kind != missing) {
            builder = builder.cell(kind, lib.cell(kind).clone());
        }
        let incomplete = builder.build().expect("valid partial library");
        assert!(IncrementalTiming::new(&incomplete, &compiled).is_err());
        assert!(IncrementalPower::new(&incomplete, &compiled).is_err());
        assert!(!state.timing.primed && !state.power.primed);

        // A NaN in the delta fails both priming calls before any mutation.
        let timing_engine = IncrementalTiming::new(&lib, &compiled).expect("resolve");
        let power_engine = IncrementalPower::new(&lib, &compiled).expect("resolve");
        let input = netlist.inputs()[seed as usize % netlist.inputs().len()];
        let mut poisoned = InputDelta::new();
        poisoned.set_arrival(input, f64::NAN);
        poisoned.set_probability(input, f64::NAN);
        assert!(timing_engine
            .rerun_delta(&compiled, &mut state, &poisoned)
            .is_err());
        assert!(power_engine
            .rerun_delta(&compiled, &mut state, &poisoned)
            .is_err());
        assert!(!state.timing.primed && !state.power.primed);

        // The next valid call is still the priming full pass.
        let mut arrivals = BTreeMap::new();
        let mut probabilities = BTreeMap::new();
        arrivals.insert(input, 2.5);
        probabilities.insert(input, 0.3);
        let delta = profile_delta(&arrivals, &probabilities);
        let timing = timing_engine
            .rerun_delta(&compiled, &mut state, &delta)
            .expect("valid timing")
            .to_report();
        let power = power_engine
            .rerun_delta(&compiled, &mut state, &delta)
            .expect("valid power")
            .to_report();
        let (fresh_timing, fresh_power) = fresh_reports(&lib, &compiled, &arrivals, &probabilities);
        let label = format!("seed {seed} after failures");
        assert_timing_identical(&label, &timing, &fresh_timing);
        assert_power_identical(&label, &power, &fresh_power);
    }
}

#[test]
fn non_input_and_out_of_range_keys_are_ignored_on_the_priming_call() {
    for seed in 0..16u64 {
        let netlist = random_dag(seed);
        let compiled = netlist.compile().expect("acyclic");
        let lib = TechLibrary::unit();
        let input = netlist.inputs()[0];
        // A driven net (never a primary input) and an index past the program's nets.
        let internal = compiled.ops()[0].output_nets()[0];
        let mut other = Netlist::new("other");
        let foreign = (0..=netlist.net_count())
            .map(|index| other.add_input(format!("x{index}")))
            .last()
            .expect("at least one net");
        assert!(foreign.index() >= compiled.net_count());
        let mut delta = InputDelta::new();
        let mut arrivals = BTreeMap::new();
        let mut probabilities = BTreeMap::new();
        for (net, arrival, probability) in
            [(internal, 9.0, 0.9), (foreign, 4.0, 0.1), (input, 1.5, 0.2)]
        {
            delta.set_arrival(net, arrival);
            delta.set_probability(net, probability);
            arrivals.insert(net, arrival);
            probabilities.insert(net, probability);
        }
        let mut state = DeltaState::new(&compiled);
        let timing = IncrementalTiming::new(&lib, &compiled)
            .expect("resolve")
            .rerun_delta(&compiled, &mut state, &delta)
            .expect("priming timing")
            .to_report();
        let power = IncrementalPower::new(&lib, &compiled)
            .expect("resolve")
            .rerun_delta(&compiled, &mut state, &delta)
            .expect("priming power")
            .to_report();
        let (fresh_timing, fresh_power) = fresh_reports(&lib, &compiled, &arrivals, &probabilities);
        let label = format!("seed {seed} stray keys");
        assert_timing_identical(&label, &timing, &fresh_timing);
        assert_power_identical(&label, &power, &fresh_power);
        // The stray keys changed nothing: the input-only profile reports the same.
        let (clean_timing, clean_power) = fresh_reports(
            &lib,
            &compiled,
            &BTreeMap::from([(input, 1.5)]),
            &BTreeMap::from([(input, 0.2)]),
        );
        assert_timing_identical(&label, &timing, &clean_timing);
        assert_power_identical(&label, &power, &clean_power);
    }
}

/// Position of every cell in the compiled (topological) op order.
fn op_positions(compiled: &CompiledNetlist) -> Vec<usize> {
    let mut position = vec![0usize; compiled.cell_count()];
    for (index, op) in compiled.ops().iter().enumerate() {
        position[op.cell.index()] = index;
    }
    position
}

/// Applies one random local rewire to `netlist`, keeping it acyclic and its net/cell
/// universe intact: either a same-arity kind flip or an input-pin reconnection to a
/// net whose driver precedes the cell in the current topological order.
fn random_rewire(rng: &mut Rng, netlist: &mut Netlist, compiled: &CompiledNetlist) {
    let cell_count = netlist.cell_count();
    let cell: CellId = netlist
        .cells()
        .nth(rng.below(cell_count))
        .expect("cell index in range")
        .0;
    let kind = netlist.cell(cell).kind();
    if rng.below(2) == 0 {
        // Same-arity kind flip.
        let flip = match kind {
            CellKind::And2 => Some(CellKind::Or2),
            CellKind::Or2 => Some(CellKind::Xor2),
            CellKind::Xor2 => Some(CellKind::And2),
            CellKind::Not => Some(CellKind::Buf),
            CellKind::Buf => Some(CellKind::Not),
            CellKind::And3 => Some(CellKind::Xor3),
            CellKind::Xor3 => Some(CellKind::Mux2),
            CellKind::Mux2 => Some(CellKind::And3),
            _ => None, // Fa/Ha/constants have no same-arity sibling
        };
        if let Some(flip) = flip {
            netlist.replace_cell_kind(cell, flip).expect("same arity");
            return;
        }
    }
    // Input-pin rewire. Eligible sources: primary inputs, undriven nets, or outputs
    // of cells strictly earlier in the current topological order (never a cycle).
    if kind.input_count() == 0 {
        return; // constants have no input pins to rewire
    }
    let positions = op_positions(compiled);
    let reader_position = positions[cell.index()];
    let eligible: Vec<NetId> = netlist
        .nets()
        .filter(|(_, net)| match net.driver() {
            None => true,
            Some((driver, _)) => positions[driver.index()] < reader_position,
        })
        .map(|(id, _)| id)
        .collect();
    if eligible.is_empty() {
        return;
    }
    let source = eligible[rng.below(eligible.len())];
    let pin = rng.below(kind.input_count());
    netlist.rewire_input(cell, pin, source).expect("known net");
}

#[test]
fn random_local_rewires_rebind_and_stay_bit_identical() {
    for seed in 0..32u64 {
        let mut netlist = random_dag(seed.wrapping_mul(131) ^ 7);
        let mut compiled = netlist.compile().expect("acyclic");
        let lib = TechLibrary::lcbg10pv_like();
        let mut rng = Rng(seed ^ 0xabcd);
        let mut arrivals: BTreeMap<NetId, f64> = BTreeMap::new();
        let mut probabilities: BTreeMap<NetId, f64> = BTreeMap::new();
        for &net in netlist.inputs() {
            arrivals.insert(net, rng.unit() * 3.0);
            probabilities.insert(net, rng.unit());
        }
        let mut state = DeltaState::new(&compiled);
        let prime = profile_delta(&arrivals, &probabilities);
        IncrementalTiming::new(&lib, &compiled)
            .expect("resolve")
            .rerun_delta(&compiled, &mut state, &prime)
            .expect("prime timing");
        IncrementalPower::new(&lib, &compiled)
            .expect("resolve")
            .rerun_delta(&compiled, &mut state, &prime)
            .expect("prime power");

        for round in 0..8 {
            random_rewire(&mut rng, &mut netlist, &compiled);
            let recompiled = netlist.compile().expect("rewires preserve acyclicity");
            state.rebind(&compiled, &recompiled);
            compiled = recompiled;
            // The engines are rebuilt per program: resolution is once-per-program.
            let timing_engine = IncrementalTiming::new(&lib, &compiled).expect("resolve");
            let power_engine = IncrementalPower::new(&lib, &compiled).expect("resolve");
            // Half the rounds also carry a profile delta on top of the rewire.
            let delta = if rng.below(2) == 0 {
                perturb(
                    &mut rng,
                    netlist.inputs(),
                    &mut arrivals,
                    &mut probabilities,
                )
            } else {
                InputDelta::new()
            };
            let label = format!("seed {seed} rewire round {round}");
            let incremental_timing = timing_engine
                .rerun_delta(&compiled, &mut state, &delta)
                .expect("delta timing")
                .to_report();
            let incremental_power = power_engine
                .rerun_delta(&compiled, &mut state, &delta)
                .expect("delta power")
                .to_report();
            let (fresh_timing, fresh_power) =
                fresh_reports(&lib, &compiled, &arrivals, &probabilities);
            assert_timing_identical(&label, &incremental_timing, &fresh_timing);
            assert_power_identical(&label, &incremental_power, &fresh_power);
        }
    }
}

#[test]
fn early_termination_keeps_untouched_cones_bit_identical() {
    // a AND b feeds a long buffer chain; c XOR d feeds another. Perturbing only
    // (a, b) must leave the (c, d) cone's values untouched *and* still produce
    // fully identical reports — the early-termination path in its purest form.
    let mut netlist = Netlist::new("cones");
    let a = netlist.add_input("a");
    let b = netlist.add_input("b");
    let c = netlist.add_input("c");
    let d = netlist.add_input("d");
    let mut left = netlist.add_gate(CellKind::And2, &[a, b]).unwrap()[0];
    let mut right = netlist.add_gate(CellKind::Xor2, &[c, d]).unwrap()[0];
    for _ in 0..16 {
        left = netlist.add_gate(CellKind::Buf, &[left]).unwrap()[0];
        right = netlist.add_gate(CellKind::Buf, &[right]).unwrap()[0];
    }
    netlist.mark_output(left);
    netlist.mark_output(right);
    let compiled = netlist.compile().unwrap();
    let lib = TechLibrary::lcbg10pv_like();
    let timing_engine = IncrementalTiming::new(&lib, &compiled).unwrap();
    let power_engine = IncrementalPower::new(&lib, &compiled).unwrap();
    let mut state = DeltaState::new(&compiled);
    let mut arrivals = BTreeMap::new();
    let mut probabilities = BTreeMap::new();
    timing_engine
        .rerun_delta(&compiled, &mut state, &InputDelta::new())
        .unwrap();
    power_engine
        .rerun_delta(&compiled, &mut state, &InputDelta::new())
        .unwrap();
    // Zero-probability AND input: changing the other input never changes the AND's
    // output probability, so the whole left power cone terminates at level 0.
    let mut delta = InputDelta::new();
    delta.set_probability(a, 0.0);
    probabilities.insert(a, 0.0);
    power_engine
        .rerun_delta(&compiled, &mut state, &delta)
        .unwrap();
    for (value, map_value) in [(0.35, 0.35), (0.8, 0.8)] {
        let mut delta = InputDelta::new();
        delta.set_probability(b, value);
        probabilities.insert(b, map_value);
        // Arrival bump on `a` that stays below `b`'s: the AND's arrival (driven by
        // the max) is recomputed to an unchanged value, so the buffer chain is
        // never revisited by the timing worklist either.
        delta.set_arrival(b, 5.0);
        arrivals.insert(b, 5.0);
        delta.set_arrival(a, 1.0);
        arrivals.insert(a, 1.0);
        let incremental_timing = timing_engine
            .rerun_delta(&compiled, &mut state, &delta)
            .unwrap()
            .to_report();
        let incremental_power = power_engine
            .rerun_delta(&compiled, &mut state, &delta)
            .unwrap()
            .to_report();
        let (fresh_timing, fresh_power) = fresh_reports(&lib, &compiled, &arrivals, &probabilities);
        assert_timing_identical("cones", &incremental_timing, &fresh_timing);
        assert_power_identical("cones", &incremental_power, &fresh_power);
    }
}
