//! Power-driven synthesis of a complex-multiplier datapath whose inputs have strongly
//! biased signal probabilities, validated against a toggle-counting logic simulation.
//!
//! Run with `cargo run -p dpsyn --example low_power_datapath`.

use dpsyn_core::{Objective, SelectionStrategy, Synthesizer};
use dpsyn_ir::{parse_expr, InputSpec};
use dpsyn_sim::measure_toggles;
use dpsyn_tech::TechLibrary;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // Real part of a complex multiplication; the imaginary operands are almost always
    // small in this (synthetic) workload, so their high-order bits are rarely 1.
    let expr = parse_expr("a*c - b*d + 32768")?;
    let spec = InputSpec::builder()
        .var_with_probability("a", 12, 0.5)
        .var_with_probability("b", 12, 0.08)
        .var_with_probability("c", 12, 0.5)
        .var_with_probability("d", 12, 0.12)
        .build()?;
    let lib = TechLibrary::lcbg10pv_like();

    let mut rows = Vec::new();
    for (label, strategy) in [
        ("FA_ALP", None),
        ("fixed Wallace", Some(SelectionStrategy::RowOrder)),
        ("FA_random", Some(SelectionStrategy::Random(9))),
    ] {
        let mut synthesizer = Synthesizer::new(&expr, &spec)
            .objective(Objective::Power)
            .technology(&lib)
            .output_width(26)
            .name("complex_real");
        if let Some(strategy) = strategy {
            synthesizer = synthesizer.strategy(strategy);
        }
        let design = synthesizer.run()?;
        // Cross-check the analytic estimate with a toggle-counting simulation.
        let toggles = measure_toggles(design.netlist(), design.word_map(), &spec, 2000, 5)?;
        let simulated: f64 = design
            .netlist()
            .cells()
            .flat_map(|(_, cell)| cell.outputs().to_vec())
            .map(|net| toggles.toggle_rate(net))
            .sum();
        rows.push((label, design.report().switching_energy, simulated));
    }

    println!("complex multiplier real part, biased input probabilities");
    println!(
        "{:<14} {:>18} {:>22}",
        "selection", "analytic E_switch", "simulated toggles/vec"
    );
    for (label, analytic, simulated) in &rows {
        println!("{:<14} {:>18.3} {:>22.3}", label, analytic, simulated);
    }
    println!("the power-driven selection should sit at or near the bottom of both columns");
    Ok(())
}
