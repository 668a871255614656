//! Baseline datapath-synthesis strategies the DAC 2000 paper compares against, and
//! one dispatch over every flow of the evaluation.
//!
//! [`Flow`] names each of the seven flows as a value; [`Flow::run`] synthesizes and
//! analyses one design point with it, so harnesses (the tables of `dpsyn-bench`, the
//! exploration engine of `dpsyn-explore`) iterate over flows data-driven:
//!
//! * [`Flow::Conventional`] — the conventional two-step flow: every word-level
//!   operation is bound to a closed adder / multiplier module (from `dpsyn-modules`),
//!   addition chains are balanced, and the modules are stitched together. Each
//!   operation keeps its own internal carry-propagate adder, which is exactly the
//!   inefficiency the paper's global carry-save formulation removes.
//! * [`Flow::CsaOpt`] — the word-level delay-optimal carry-save allocation of the
//!   authors' earlier ICCAD'99 work (reference \[8\] of the paper): operands are
//!   compressed three at a time by full-width 3:2 carry-save rows, always picking the
//!   three earliest-arriving *words*; per-bit arrival skew inside a word cannot be
//!   exploited.
//! * [`Flow::WallaceFixed`] — the paper's Figure 2(a) reference: the global FA-tree
//!   engine with the fixed, arrival-blind row-order selection of the classic Wallace
//!   scheme.
//! * [`Flow::FaRandom`] — the FA_random reference of the power experiment: random
//!   selection of FA inputs.
//! * [`Flow::FaAot`] / [`Flow::FaAlp`] — the paper's own flows, run on the FA-tree
//!   engine of `dpsyn-core`.
//! * [`Flow::FaAnneal`] — delta-powered greedy local search: starts from the
//!   `fa_random` allocation (ripple root) and improves it with function-preserving
//!   same-column pin swaps, scoring every move through the incremental delta path.
//!
//! Every flow is measured by one [`dpsyn_core::AnalysisSession`]: the others
//! through [`dpsyn_core::analyze_netlist`] (`Synthesizer::run`, [`FlowResult::analyze`]),
//! `fa_anneal` on the session it scores its moves with.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use dpsyn_baselines::Flow;
//! use dpsyn_ir::{parse_expr, InputSpec};
//! use dpsyn_tech::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let expr = parse_expr("a*b + c")?;
//! let spec = InputSpec::builder().var("a", 4).var("b", 4).var("c", 4).build()?;
//! let lib = TechLibrary::lcbg10pv_like();
//! let ours = Flow::FaAot.run(&expr, &spec, 9, &lib)?;
//! let reference = Flow::Conventional.run(&expr, &spec, 9, &lib)?;
//! assert!(ours.delay <= reference.delay + 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod conventional;
mod csa_opt;
mod dispatch;
mod flow;

pub use anneal::{fa_anneal_observed, fa_anneal_with_stats, AnnealStats, AnnealStep};
pub use dispatch::{Flow, FlowSynthesis, SynthesizedParts};
pub use dpsyn_core::{input_profiles, LeafPrefix};
pub use flow::{BaselineError, FlowResult};

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_ir::{parse_expr, InputSpec};
    use dpsyn_tech::TechLibrary;

    #[test]
    fn all_flows_produce_valid_netlists() {
        let expr = parse_expr("a*b + c - 3").unwrap();
        let spec = InputSpec::builder()
            .var("a", 3)
            .var("b", 3)
            .var("c", 3)
            .build()
            .unwrap();
        let lib = TechLibrary::unit();
        for flow in [
            Flow::Conventional,
            Flow::CsaOpt,
            Flow::WallaceFixed,
            Flow::FaRandom(1),
            Flow::FaAot,
            Flow::FaAlp,
            Flow::FaAnneal(1),
        ] {
            let result = flow.run(&expr, &spec, 8, &lib).unwrap();
            assert!(result.netlist.validate().is_ok(), "{}", result.flow);
            assert!(result.delay > 0.0, "{}", result.flow);
            assert!(result.area > 0.0, "{}", result.flow);
        }
    }
}
