//! Quickstart: synthesize a small arithmetic expression into a timing-optimal
//! carry-save FA-tree and print the quality-of-results report plus a Verilog excerpt.
//!
//! Run with `cargo run -p dpsyn --example quickstart`.

use dpsyn_core::{Objective, Synthesizer};
use dpsyn_ir::{parse_expr, InputSpec};
use dpsyn_tech::TechLibrary;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // The expression of Figure 1 of the paper, with realistic widths.
    let expr = parse_expr("x*x + x + y")?;
    let spec = InputSpec::builder()
        .var_with_arrival("x", 8, 0.7) // x arrives late, as in Table 1
        .var("y", 8)
        .build()?;
    let lib = TechLibrary::lcbg10pv_like();

    let design = Synthesizer::new(&expr, &spec)
        .objective(Objective::Timing)
        .technology(&lib)
        .name("quickstart")
        .run()?;

    println!("{}", design.report());
    let verilog = design.to_verilog();
    println!("--- first lines of the generated Verilog ---");
    for line in verilog.lines().take(12) {
        println!("{line}");
    }
    println!("... ({} lines total)", verilog.lines().count());
    Ok(())
}
