//! Fine-grained carry-save FA-tree allocation for timing- and power-driven datapath
//! synthesis.
//!
//! This crate is the primary contribution of the reproduction of Um, Kim and Liu,
//! *"A Fine-Grained Arithmetic Optimization Technique for High-Performance/Low-Power
//! Data Path Synthesis"* (DAC 2000). It turns an arbitrary arithmetic expression
//! (additions, subtractions, multiplications) into a single global bit-level
//! carry-save addition structure — an *FA-tree* — plus one final carry-propagating
//! adder, choosing the inputs of every full adder according to the optimisation
//! objective:
//!
//! * **FA_AOT** (*FA-tree Allocation for Optimal Timing*): in every bit column the three
//!   addends with the **earliest arrival times** feed the next full adder ([`sc_t`]
//!   within a column, [`Objective::Timing`] end to end). Theorem 1 of the paper shows
//!   this is delay-optimal; the property tests of this crate check it against exhaustive
//!   and randomised alternatives.
//! * **FA_ALP** (*FA-tree Allocation for Low Power*): the three addends with the
//!   **largest probability deviation** `|q| = |p − 0.5|` are selected instead
//!   ([`sc_lp`], [`Objective::Power`]), minimising the total switching activity of the
//!   tree under the paper's zero-delay power model.
//!
//! The high-level entry point is [`Synthesizer`]:
//!
//! ```
//! # use std::error::Error;
//! use dpsyn_core::{Objective, Synthesizer};
//! use dpsyn_ir::{parse_expr, InputSpec};
//! use dpsyn_tech::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let expr = parse_expr("x*x + x + y")?;
//! let spec = InputSpec::builder()
//!     .var("x", 8)
//!     .var_with_arrival("y", 8, 0.7)
//!     .build()?;
//! let lib = TechLibrary::lcbg10pv_like();
//! let design = Synthesizer::new(&expr, &spec)
//!     .objective(Objective::Timing)
//!     .technology(&lib)
//!     .run()?;
//! println!("critical delay {:.2} ns, area {:.0} units",
//!          design.report().delay, design.report().area);
//! assert!(design.report().delay > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocation;
mod analysis;
mod error;
mod final_adder;
mod leaves;
mod report;
mod schedule;
mod strategy;
mod synthesizer;

pub use allocation::{allocate_fa_tree, LeafAddend, ReducedRows};
pub use analysis::{analyze_netlist, input_profiles, AnalysisFigures, AnalysisSession};
pub use error::SynthesisError;
pub use final_adder::FinalAdderKind;
pub use leaves::LeafPrefix;
pub use report::SynthesisReport;
pub use schedule::{sc_lp, sc_t, ColumnOutcome};
pub use strategy::{Objective, SelectionStrategy};
pub use synthesizer::{SynthesizedDesign, Synthesizer};

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_ir::{parse_expr, InputSpec};
    use dpsyn_tech::TechLibrary;

    #[test]
    fn crate_level_example_runs() {
        let expr = parse_expr("a*b + c").unwrap();
        let spec = InputSpec::builder()
            .var("a", 4)
            .var("b", 4)
            .var("c", 4)
            .build()
            .unwrap();
        let lib = TechLibrary::unit();
        let design = Synthesizer::new(&expr, &spec)
            .objective(Objective::Timing)
            .technology(&lib)
            .run()
            .unwrap();
        assert!(design.netlist().cell_count() > 0);
        assert!(design.report().delay > 0.0);
        assert!(design.report().area > 0.0);
    }
}
