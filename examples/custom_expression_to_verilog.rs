//! Synthesize an arbitrary expression given on the command line and print the
//! generated structural Verilog netlist (the paper's tool output format).
//!
//! Usage:
//! `cargo run -p dpsyn --example custom_expression_to_verilog -- "a*b + c - 7" 12`
//! (expression, then optional per-input width, default 8; optional objective
//! `timing`/`power` as the third argument).

use dpsyn_core::{Objective, Synthesizer};
use dpsyn_ir::{parse_expr, InputSpec};
use dpsyn_tech::TechLibrary;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let source = args.next().unwrap_or_else(|| "a*b + c - 7".to_string());
    let width: u32 = args.next().map(|w| w.parse()).transpose()?.unwrap_or(8);
    let objective = match args.next().as_deref() {
        Some("power") => Objective::Power,
        _ => Objective::Timing,
    };

    let expr = parse_expr(&source)?;
    let mut builder = InputSpec::builder();
    for variable in expr.variables() {
        builder = builder.var(variable, width);
    }
    let spec = builder.build()?;
    let lib = TechLibrary::lcbg10pv_like();
    let design = Synthesizer::new(&expr, &spec)
        .objective(objective)
        .technology(&lib)
        .name("custom_datapath")
        .run()?;

    eprintln!("// {}", design.report().to_string().replace('\n', "\n// "));
    println!("{}", design.to_verilog());
    Ok(())
}
