//! Baseline datapath-synthesis strategies the DAC 2000 paper compares against.
//!
//! * [`conventional`] — the conventional two-step flow: every word-level operation is
//!   bound to a closed adder / multiplier module (from `dpsyn-modules`), addition
//!   chains are balanced, and the modules are stitched together. Each operation keeps
//!   its own internal carry-propagate adder, which is exactly the inefficiency the
//!   paper's global carry-save formulation removes.
//! * [`csa_opt`] — the word-level delay-optimal carry-save allocation of the authors'
//!   earlier ICCAD'99 work (reference [8] of the paper): operands are compressed three
//!   at a time by full-width 3:2 carry-save rows, always picking the three
//!   earliest-arriving *words*; per-bit arrival skew inside a word cannot be exploited.
//! * [`wallace_fixed`] — the paper's Figure 2(a) reference: the global FA-tree engine
//!   with the fixed, arrival-blind row-order selection of the classic Wallace scheme.
//! * [`fa_random`] — the FA_random reference of the power experiment: random selection
//!   of FA inputs.
//! * [`fa_aot`] / [`fa_alp`] — thin wrappers over `dpsyn-core` so every flow can be
//!   invoked through the same [`FlowResult`]-returning interface in the benchmark
//!   harness.
//! * [`fa_anneal`] — delta-powered greedy local search: starts from the `fa_random`
//!   allocation (ripple root) and improves it with function-preserving same-column
//!   pin swaps, scoring every move through the incremental delta path.
//!
//! [`Flow`] names each of the seven flows as a dispatchable value so harnesses (the
//! tables of `dpsyn-bench`, the exploration engine of `dpsyn-explore`) can iterate
//! over flows data-driven instead of hard-coding seven call sites.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use dpsyn_baselines::{conventional, fa_aot};
//! use dpsyn_ir::{parse_expr, InputSpec};
//! use dpsyn_tech::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let expr = parse_expr("a*b + c")?;
//! let spec = InputSpec::builder().var("a", 4).var("b", 4).var("c", 4).build()?;
//! let lib = TechLibrary::lcbg10pv_like();
//! let ours = fa_aot(&expr, &spec, 9, &lib)?;
//! let reference = conventional(&expr, &spec, 9, &lib)?;
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
mod wrappers;

pub use anneal::{fa_anneal, fa_anneal_observed, fa_anneal_with_stats, AnnealStats, AnnealStep};
pub use conventional::{conventional, conventional_netlist};
pub use csa_opt::{csa_opt, csa_opt_netlist};
pub use dispatch::{Flow, FlowSynthesis, SynthesizedParts};
pub use dpsyn_core::input_profiles;
pub use flow::{BaselineError, FlowResult};
pub use wrappers::{fa_alp, fa_aot, fa_random, wallace_fixed};

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
        for result in [
            conventional(&expr, &spec, 8, &lib).unwrap(),
            csa_opt(&expr, &spec, 8, &lib).unwrap(),
            wallace_fixed(&expr, &spec, 8, &lib).unwrap(),
            fa_random(&expr, &spec, 8, &lib, 1).unwrap(),
            fa_aot(&expr, &spec, 8, &lib).unwrap(),
            fa_alp(&expr, &spec, 8, &lib).unwrap(),
            fa_anneal(&expr, &spec, 8, &lib, 1).unwrap(),
        ] {
            assert!(result.netlist.validate().is_ok(), "{}", result.flow);
            assert!(result.delay > 0.0, "{}", result.flow);
            assert!(result.area > 0.0, "{}", result.flow);
        }
    }
}
