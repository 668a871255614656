//! Seeded-determinism regression tests: synthesis is a pure function of its
//! inputs. Identical `Synthesizer` configurations must produce byte-identical
//! Verilog and bit-identical quality figures across independent runs — the
//! property that makes every table, figure and failure in this repository
//! reproducible.

use dpsyn_baselines::{fa_anneal_with_stats, Flow};
use dpsyn_core::{Objective, SelectionStrategy, Synthesizer};
use dpsyn_designs::workloads::{random_sum, SumWorkload};
use dpsyn_designs::Design;
use dpsyn_tech::TechLibrary;

/// Runs one synthesis of `design` and returns the emitted Verilog plus the report.
fn synthesize(
    design: &Design,
    objective: Objective,
    strategy: Option<SelectionStrategy>,
) -> (String, dpsyn_core::SynthesisReport) {
    let lib = TechLibrary::lcbg10pv_like();
    let mut synthesizer = Synthesizer::new(design.expr(), design.spec())
        .objective(objective)
        .technology(&lib)
        .output_width(design.output_width())
        .name(design.name());
    if let Some(strategy) = strategy {
        synthesizer = synthesizer.strategy(strategy);
    }
    let synthesized = synthesizer.run().expect("synthesis succeeds");
    let verilog = synthesized.to_verilog();
    let (_, _, _, report) = synthesized.into_parts();
    (verilog, report)
}

/// Asserts two runs of the same configuration agree byte-for-byte and bit-for-bit.
fn assert_deterministic(
    design: &Design,
    objective: Objective,
    strategy: Option<SelectionStrategy>,
) {
    let (first_verilog, first_report) = synthesize(design, objective, strategy);
    let (second_verilog, second_report) = synthesize(design, objective, strategy);
    assert_eq!(
        first_verilog,
        second_verilog,
        "Verilog differs across runs for {} under {objective:?}/{strategy:?}",
        design.name()
    );
    // Exact float equality on purpose: determinism means bit-identical figures.
    assert_eq!(first_report.delay, second_report.delay, "{}", design.name());
    assert_eq!(first_report.area, second_report.area, "{}", design.name());
    assert_eq!(
        first_report.switching_energy,
        second_report.switching_energy,
        "{}",
        design.name()
    );
    assert_eq!(
        first_report.power_mw,
        second_report.power_mw,
        "{}",
        design.name()
    );
    assert_eq!(
        first_report.final_input_arrival,
        second_report.final_input_arrival,
        "{}",
        design.name()
    );
    assert_eq!(first_report, second_report, "{}", design.name());
}

#[test]
fn fixed_designs_synthesize_deterministically() {
    for design in [
        dpsyn_designs::x2_x_y(),
        dpsyn_designs::mixed_poly(),
        dpsyn_designs::serial_adapter(),
    ] {
        assert_deterministic(&design, Objective::Timing, None);
        assert_deterministic(&design, Objective::Power, None);
    }
}

#[test]
fn seeded_strategies_synthesize_deterministically() {
    let design = dpsyn_designs::x2_x_y();
    // The Random strategy must be a pure function of its embedded seed.
    assert_deterministic(
        &design,
        Objective::Timing,
        Some(SelectionStrategy::Random(1234)),
    );
    let (verilog_a, _) = synthesize(
        &design,
        Objective::Timing,
        Some(SelectionStrategy::Random(1)),
    );
    let (verilog_b, _) = synthesize(
        &design,
        Objective::Timing,
        Some(SelectionStrategy::Random(2)),
    );
    // Not an API guarantee, but for this design different seeds explore
    // different allocations; if this ever fails spuriously the seeds collide
    // and should simply be changed.
    assert_ne!(
        verilog_a, verilog_b,
        "different Random seeds unexpectedly produced identical netlists"
    );
}

#[test]
fn fa_anneal_is_a_pure_function_of_its_seed() {
    // The local search composes a seeded start synthesis with a seeded move
    // trajectory; both must replay exactly. Byte-identical Verilog, bit-identical
    // metrics and identical loop counters across independent runs.
    let lib = TechLibrary::lcbg10pv_like();
    let design = dpsyn_designs::mixed_poly();
    let run = |seed: u64| {
        fa_anneal_with_stats(
            design.expr(),
            design.spec(),
            design.output_width(),
            &lib,
            seed,
        )
        .expect("fa_anneal succeeds")
    };
    let (first, first_stats) = run(9);
    let (second, second_stats) = run(9);
    assert_eq!(
        first.netlist.to_verilog(),
        second.netlist.to_verilog(),
        "fa_anneal Verilog differs across runs at the same seed"
    );
    assert_eq!(first.delay.to_bits(), second.delay.to_bits());
    assert_eq!(first.area.to_bits(), second.area.to_bits());
    assert_eq!(
        first.switching_energy.to_bits(),
        second.switching_energy.to_bits()
    );
    assert_eq!(first.power_mw.to_bits(), second.power_mw.to_bits());
    assert_eq!(
        first_stats, second_stats,
        "the move trajectory itself must replay exactly"
    );
    // Different seeds explore different trajectories (seed folds into both the
    // start allocation and the move RNG); as in the Random-strategy test above,
    // a spurious collision here just means the seeds should be changed.
    let (other, _) = run(10);
    assert_ne!(
        first.netlist.to_verilog(),
        other.netlist.to_verilog(),
        "different fa_anneal seeds unexpectedly produced identical netlists"
    );
    // The observed search and the dispatch agree bit for bit.
    let dispatched = Flow::FaAnneal(9)
        .run(design.expr(), design.spec(), design.output_width(), &lib)
        .expect("dispatched fa_anneal succeeds");
    assert_eq!(first.netlist.to_verilog(), dispatched.netlist.to_verilog());
    assert_eq!(
        first.switching_energy.to_bits(),
        dispatched.switching_energy.to_bits()
    );
}

#[test]
fn generated_workloads_are_deterministic_end_to_end() {
    // Workload generation (seeded RNG) composed with synthesis stays pure.
    let workload = SumWorkload {
        operands: 6,
        width: 8,
        max_arrival: 3.0,
        probability_skew: 0.3,
    };
    let first = random_sum(&workload, 77);
    let second = random_sum(&workload, 77);
    assert_eq!(first.expr(), second.expr());
    assert_deterministic(&first, Objective::Timing, None);
    let (verilog_first, report_first) = synthesize(&first, Objective::Power, None);
    let (verilog_second, report_second) = synthesize(&second, Objective::Power, None);
    assert_eq!(verilog_first, verilog_second);
    assert_eq!(report_first, report_second);
}
