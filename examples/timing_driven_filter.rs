//! Timing-driven synthesis of the IIR filter core: compares the paper's FA_AOT against
//! the conventional operation-level flow and the word-level CSA_OPT baseline under a
//! skewed input arrival profile (the feedback taps arrive late).
//!
//! Run with `cargo run -p dpsyn --example timing_driven_filter`.

use dpsyn_baselines::Flow;
use dpsyn_ir::{parse_expr, InputSpec};
use dpsyn_tech::TechLibrary;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // Second-order IIR section: the feedback values y1/y2 come out of the previous
    // cycle's adder and therefore arrive later than the feed-forward taps.
    let expr = parse_expr("b0*x + b1*x1 + b2*x2 + a1*y1 + a2*y2")?;
    let spec = InputSpec::builder()
        .var("x", 8)
        .var("x1", 8)
        .var("x2", 8)
        .var_with_arrival("y1", 8, 1.2)
        .var_with_arrival("y2", 8, 0.8)
        .var("b0", 5)
        .var("b1", 5)
        .var("b2", 5)
        .var("a1", 5)
        .var("a2", 5)
        .build()?;
    let lib = TechLibrary::lcbg10pv_like();
    let width = 16;

    let ours = Flow::FaAot.run(&expr, &spec, width, &lib)?;
    let word_level = Flow::CsaOpt.run(&expr, &spec, width, &lib)?;
    let reference = Flow::Conventional.run(&expr, &spec, width, &lib)?;

    println!("IIR filter core, 16-bit output, feedback taps arriving late");
    println!("{:<14} {:>10} {:>12}", "flow", "delay (ns)", "area (units)");
    for flow in [&reference, &word_level, &ours] {
        println!("{:<14} {:>10.3} {:>12.0}", flow.flow, flow.delay, flow.area);
    }
    println!(
        "FA_AOT improves delay by {:.1}% over the conventional flow and {:.1}% over CSA_OPT",
        100.0 * ours.delay_improvement_over(&reference),
        100.0 * ours.delay_improvement_over(&word_level),
    );
    Ok(())
}
