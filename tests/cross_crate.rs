//! Cross-crate integration checks: the analytic power model agrees with simulation,
//! the engine's internal arrival estimates agree with static timing analysis, and the
//! Verilog emitter produces one assignment per cell output.

use dpsyn_core::{Objective, Synthesizer};
use dpsyn_netlist::CellKind;
use dpsyn_power::ProbabilityAnalysis;
use dpsyn_sim::{measure_toggles, BlockSim, Stimulus, ToggleCounter, BLOCK_SIZES, DEFAULT_BLOCK};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::TimingAnalysis;
use std::collections::BTreeMap;

/// Synthesizes `expr` under the power objective and asserts the *aggregate* switching
/// activity of the analytic model stays within 15% of block-engine toggle counting
/// (analytic `p(1-p)` per vector pair is a toggle rate of `2·p·(1-p)`).
///
/// The sums are compared rather than per-net values because per-net noise is higher,
/// and partial products sharing literals are correlated, which the analytic model
/// ignores by design — the paper makes the same independence assumption — so the
/// tolerance is loose.
fn assert_analytic_tracks_simulation(
    expr: &dpsyn_ir::Expr,
    spec: &dpsyn_ir::InputSpec,
    output_width: u32,
    vectors: usize,
    seed: u64,
) {
    let lib = TechLibrary::lcbg10pv_like();
    let synthesized = Synthesizer::new(expr, spec)
        .objective(Objective::Power)
        .technology(&lib)
        .output_width(output_width)
        .run()
        .expect("synthesis");
    let mut probabilities = BTreeMap::new();
    for word in synthesized.word_map().inputs() {
        for (bit, net) in word.bits().iter().enumerate() {
            probabilities.insert(
                *net,
                spec.bit_profile(word.name(), bit as u32)
                    .map(|p| p.probability)
                    .unwrap_or(0.5),
            );
        }
    }
    let analytic = ProbabilityAnalysis::new(&lib)
        .with_input_probabilities(probabilities)
        .run_compiled(synthesized.compiled())
        .expect("power analysis");
    let toggles = measure_toggles(
        synthesized.netlist(),
        synthesized.word_map(),
        spec,
        vectors,
        seed,
    )
    .expect("simulation");
    let mut analytic_total = 0.0;
    let mut simulated_total = 0.0;
    for (_, cell) in synthesized.netlist().cells() {
        for net in cell.outputs() {
            analytic_total += 2.0 * analytic.switching_activity(*net);
            simulated_total += toggles.toggle_rate(*net);
        }
    }
    let relative_gap = (analytic_total - simulated_total).abs() / simulated_total.max(1e-9);
    assert!(
        relative_gap < 0.15,
        "analytic {analytic_total} vs simulated {simulated_total} ({relative_gap})"
    );
}

#[test]
fn analytic_switching_activity_matches_simulation() {
    // The mixed polynomial with pseudo-random input probabilities (Table-2 setup).
    // Vector count raised from 3000 when toggle counting moved to the bit-parallel
    // engine.
    let design = dpsyn_designs::mixed_poly().with_random_probabilities(7);
    assert_analytic_tracks_simulation(
        design.expr(),
        design.spec(),
        design.output_width(),
        12000,
        11,
    );
}

#[test]
fn lane_toggle_counts_track_analytic_activity_on_the_low_power_example() {
    // The `low_power_datapath` example's workload: the real part of a complex
    // multiplication whose imaginary operands are strongly biased towards 0 — a much
    // sharper check of the bit-parallel toggle counter than the p = 0.5 case. 8192
    // vectors are cheap on the block engine (32 passes).
    let expr = dpsyn_ir::parse_expr("a*c - b*d + 32768").expect("parses");
    let spec = dpsyn_ir::InputSpec::builder()
        .var_with_probability("a", 12, 0.5)
        .var_with_probability("b", 12, 0.08)
        .var_with_probability("c", 12, 0.5)
        .var_with_probability("d", 12, 0.12)
        .build()
        .expect("valid spec");
    assert_analytic_tracks_simulation(&expr, &spec, 26, 8192, 5);
}

#[test]
fn block_engine_matches_lanes_exactly_and_analytic_power_within_divergence_budget() {
    // The same Table-2 setup as above: driving the block engine at every block
    // size — block 1 being 64-lane passes — must reproduce `measure_toggles`'
    // counts bit-for-bit, and the simulated power folded from those counts must
    // sit within the ~15% divergence the explorer's `div%` column is allowed to
    // report.
    let design = dpsyn_designs::mixed_poly().with_random_probabilities(7);
    let lib = TechLibrary::lcbg10pv_like();
    let synthesized = Synthesizer::new(design.expr(), design.spec())
        .objective(Objective::Power)
        .technology(&lib)
        .output_width(design.output_width())
        .run()
        .expect("synthesis");
    let (netlist, map, spec) = (synthesized.netlist(), synthesized.word_map(), design.spec());
    let vectors = 12000;
    let measured = measure_toggles(netlist, map, spec, vectors, 11).expect("simulation");
    for block in BLOCK_SIZES {
        let simulator = BlockSim::compile(netlist, block).expect("block compile");
        let assignments = Stimulus::with_seed(11).biased_batch(spec, vectors);
        let mut counter = ToggleCounter::new(netlist.net_count());
        let mut blocks = simulator.block_buffer();
        for chunk in assignments.chunks(simulator.vectors_per_pass()) {
            simulator.pack_word_assignments(map, chunk, &mut blocks);
            simulator.evaluate_into(&mut blocks);
            counter.record_blocks(&blocks, block, chunk.len());
        }
        for (net, _) in netlist.nets() {
            assert_eq!(
                measured.toggle_rate(net).to_bits(),
                counter.toggle_rate(net).to_bits(),
                "block size {block} diverged from measure_toggles on net {net:?}"
            );
        }
    }

    // Fold both rate vectors — analytic `2·p·(1−p)` and block-measured — through
    // the *same* simulated-energy weights; the relative gap is exactly what the
    // explorer publishes as its divergence column.
    let simulator = BlockSim::compile(netlist, DEFAULT_BLOCK).expect("block compile");
    let resolved = lib.resolve(simulator.compiled()).expect("tech resolution");
    let mut probabilities = BTreeMap::new();
    for word in map.inputs() {
        for (bit, net) in word.bits().iter().enumerate() {
            probabilities.insert(
                *net,
                spec.bit_profile(word.name(), bit as u32)
                    .map(|p| p.probability)
                    .unwrap_or(0.5),
            );
        }
    }
    let analytic = ProbabilityAnalysis::new(&lib)
        .with_input_probabilities(probabilities)
        .run_compiled(simulator.compiled())
        .expect("power analysis");
    let mut analytic_rates = vec![0.0; simulator.net_count()];
    let mut simulated_rates = vec![0.0; simulator.net_count()];
    for (net, _) in netlist.nets() {
        analytic_rates[net.index()] = 2.0 * analytic.switching_activity(net);
        simulated_rates[net.index()] = measured.toggle_rate(net);
    }
    let volts_squared = lib.voltage() * lib.voltage();
    let analytic_power =
        dpsyn_power::simulated_energy(simulator.compiled(), &resolved, &analytic_rates)
            * volts_squared;
    let simulated_power =
        dpsyn_power::simulated_energy(simulator.compiled(), &resolved, &simulated_rates)
            * volts_squared;
    let divergence = dpsyn_power::power_divergence(analytic_power, simulated_power);
    assert!(
        analytic_power > 0.0 && simulated_power > 0.0,
        "both power figures must be positive ({analytic_power} vs {simulated_power})"
    );
    assert!(
        divergence.abs() < 0.15,
        "analytic {analytic_power} mW vs simulated {simulated_power} mW \
         diverged by {divergence}"
    );
}

#[test]
fn engine_arrival_estimate_matches_static_timing_analysis() {
    // The allocation engine estimates the latest final-adder input arrival while it
    // builds the tree; a full STA of the finished netlist must agree for designs whose
    // partial-product AND trees are degenerate (plain additions), and must never be
    // later than the estimate otherwise.
    let design = dpsyn_designs::serial_adapter();
    let lib = TechLibrary::lcbg10pv_like();
    let synthesized = Synthesizer::new(design.expr(), design.spec())
        .objective(Objective::Timing)
        .technology(&lib)
        .output_width(design.output_width())
        .run()
        .expect("synthesis");
    let mut arrivals = BTreeMap::new();
    for word in synthesized.word_map().inputs() {
        for (bit, net) in word.bits().iter().enumerate() {
            arrivals.insert(
                *net,
                design
                    .spec()
                    .bit_profile(word.name(), bit as u32)
                    .map(|p| p.arrival)
                    .unwrap_or(0.0),
            );
        }
    }
    let timing = TimingAnalysis::new(&lib)
        .with_input_arrivals(arrivals)
        .run_compiled(synthesized.compiled())
        .expect("sta");
    // The critical output is behind the final adder, so the full critical delay must be
    // at least the tree's estimated completion time.
    assert!(timing.critical_delay() >= synthesized.report().final_input_arrival - 1e-9);
    assert!((timing.critical_delay() - synthesized.report().delay).abs() < 1e-9);
}

#[test]
fn verilog_emission_covers_every_cell() {
    let design = dpsyn_designs::x2_x_y();
    let lib = TechLibrary::lcbg10pv_like();
    let synthesized = Synthesizer::new(design.expr(), design.spec())
        .technology(&lib)
        .output_width(design.output_width())
        .name("x2_x_y_datapath")
        .run()
        .expect("synthesis");
    let verilog = synthesized.to_verilog();
    let netlist = synthesized.netlist();
    // One assign per single-output cell, two per adder cell.
    let expected_assigns =
        netlist.cell_count() + netlist.count_kind(CellKind::Fa) + netlist.count_kind(CellKind::Ha);
    assert_eq!(verilog.matches("assign").count(), expected_assigns);
    assert!(verilog.contains("module x2_x_y_datapath"));
    assert!(verilog.trim_end().ends_with("endmodule"));
}
