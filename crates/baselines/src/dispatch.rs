//! Uniform dispatch over every synthesis flow of the evaluation.
//!
//! The table/figure harness and the design-space exploration engine both need to run
//! "one of the seven flows" data-driven rather than calling seven differently-shaped
//! engines. [`Flow`] names each flow as a value (the seeded variants carry their seed
//! so a run is reproducible from the value alone); [`Flow::synthesize`] is the one
//! place that maps a flow onto its engine, and [`Flow::run`] follows it with the
//! shared analysis bundle.

use crate::anneal::fa_anneal_with_stats;
use crate::conventional::conventional_netlist;
use crate::csa_opt::csa_opt_netlist;
use crate::flow::{BaselineError, FlowResult};
use dpsyn_core::{LeafPrefix, Objective, SelectionStrategy, Synthesizer};
use dpsyn_ir::{Expr, InputSpec};
use dpsyn_netlist::{Netlist, WordMap};
use dpsyn_tech::TechLibrary;
use std::fmt;

/// The outcome of [`Flow::synthesize`]: the synthesis step of a flow, with the
/// analysis left to the caller wherever the flow's result allows it.
///
/// Six of the seven flows build their netlists without running timing or power and
/// hand back an [`FlowSynthesis::Unanalyzed`] netlist for the caller to analyse —
/// possibly through the incremental delta path when a structurally identical
/// program is already cached. The two module-binding flows (`conventional`,
/// `csa_opt`) never look at analysis results, and the four FA-tree flows read the
/// input profiles only in their selection step (`allocate_fa_tree` selects from its
/// own arrival and probability estimates), so their analysis is a separate, pure
/// step: `Synthesizer::build_netlist` followed by the shared bundle is exactly
/// `Synthesizer::run`.
///
/// Only `fa_anneal` returns a finished [`FlowSynthesis::Analyzed`] result: it scores
/// every move with the delta analyses, so its result is analysed by construction.
#[derive(Debug, Clone)]
pub enum FlowSynthesis {
    /// A bare synthesized netlist; no analysis has run yet.
    Unanalyzed(Box<SynthesizedParts>),
    /// A fully analysed result (`fa_anneal` only).
    Analyzed(Box<FlowResult>),
}

/// The payload of [`FlowSynthesis::Unanalyzed`]: everything a later (full or delta)
/// analysis needs from the synthesis step.
#[derive(Debug, Clone)]
pub struct SynthesizedParts {
    /// The flow name, as [`FlowResult::flow`] would carry it.
    pub flow: &'static str,
    /// The synthesized netlist.
    pub netlist: Netlist,
    /// Its word-level interface.
    pub word_map: WordMap,
}

/// One of the seven synthesis flows of the evaluation (the six DAC 2000 flows plus
/// the delta-powered `fa_anneal` local search), as a dispatchable value.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use dpsyn_baselines::Flow;
/// use dpsyn_ir::{parse_expr, InputSpec};
/// use dpsyn_tech::TechLibrary;
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let expr = parse_expr("a*b + c")?;
/// let spec = InputSpec::builder().var("a", 4).var("b", 4).var("c", 4).build()?;
/// let lib = TechLibrary::lcbg10pv_like();
/// let ours = Flow::FaAot.run(&expr, &spec, 9, &lib)?;
/// let rival = Flow::Conventional.run(&expr, &spec, 9, &lib)?;
/// assert!(ours.delay <= rival.delay + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Conventional two-step flow: closed adder/multiplier modules, balanced chains.
    Conventional,
    /// Word-level delay-optimal carry-save allocation (ICCAD'99 reference flow).
    CsaOpt,
    /// Global FA-tree with the fixed, arrival-blind Wallace row-order selection.
    WallaceFixed,
    /// Global FA-tree with pseudo-random FA input selection (the paper's FA_random);
    /// the embedded seed makes the flow a pure function of its inputs.
    FaRandom(u64),
    /// The paper's FA_AOT: earliest-arrival selection, timing-optimal.
    FaAot,
    /// The paper's FA_ALP: largest-|q| selection, low-power.
    FaAlp,
    /// Delta-powered greedy local search seeded from the `fa_random` allocation;
    /// the embedded seed fixes both the start netlist and the move trajectory, so
    /// the flow is a pure function of its inputs.
    FaAnneal(u64),
}

impl Flow {
    /// The three rival flows the paper's FA_AOT is compared against in Table 1.
    pub const TIMING_RIVALS: [Flow; 2] = [Flow::Conventional, Flow::CsaOpt];

    /// Every flow with a fixed identity (excludes `FaRandom`, which needs a seed).
    pub const NAMED: [Flow; 5] = [
        Flow::Conventional,
        Flow::CsaOpt,
        Flow::WallaceFixed,
        Flow::FaAot,
        Flow::FaAlp,
    ];

    /// Short identifier used in tables and summaries (seed-independent).
    pub fn name(&self) -> &'static str {
        match self {
            Flow::Conventional => "conventional",
            Flow::CsaOpt => "csa_opt",
            Flow::WallaceFixed => "wallace_fixed",
            Flow::FaRandom(_) => "fa_random",
            Flow::FaAot => "fa_aot",
            Flow::FaAlp => "fa_alp",
            Flow::FaAnneal(_) => "fa_anneal",
        }
    }

    /// The optimisation objective this flow targets: `Power` for the two
    /// probability-driven selections, `Timing` for everything else.
    pub fn objective(&self) -> Objective {
        match self {
            Flow::FaRandom(_) | Flow::FaAlp | Flow::FaAnneal(_) => Objective::Power,
            Flow::Conventional | Flow::CsaOpt | Flow::WallaceFixed | Flow::FaAot => {
                Objective::Timing
            }
        }
    }

    /// Whether the flow synthesizes the same netlist and word map whatever the
    /// input profiles (arrival times and signal probabilities) of its design.
    ///
    /// True for `conventional` (module binding never reads them), `wallace_fixed`
    /// (fixed row order) and `fa_random` (seeded order). Every other flow reads
    /// them: `csa_opt` orders operands by word-level arrival, `fa_aot` and `fa_alp`
    /// select by one channel and break ties on the other, and `fa_anneal` scores
    /// its moves with both. The exploration engine synthesizes a blind flow once
    /// per group of design points that differ only in their profiles.
    pub fn is_profile_blind(&self) -> bool {
        matches!(
            self,
            Flow::Conventional | Flow::WallaceFixed | Flow::FaRandom(_)
        )
    }

    /// Runs the flow on one design point: [`Flow::synthesize`], then — for every
    /// flow but `fa_anneal` — [`FlowResult::analyze`].
    ///
    /// # Errors
    ///
    /// Returns an error if lowering, synthesis or any analysis fails.
    pub fn run(
        &self,
        expr: &Expr,
        spec: &InputSpec,
        width: u32,
        tech: &TechLibrary,
    ) -> Result<FlowResult, BaselineError> {
        match self.synthesize(expr, spec, width, tech)? {
            FlowSynthesis::Unanalyzed(parts) => {
                FlowResult::analyze(parts.flow, parts.netlist, parts.word_map, spec, tech)
            }
            FlowSynthesis::Analyzed(result) => Ok(*result),
        }
    }

    /// Whether the flow grows a global FA-tree from a [`LeafPrefix`]: true for
    /// `wallace_fixed`, `fa_random`, `fa_aot` and `fa_alp`, which share one prefix
    /// per expression and width ([`Flow::leaf_prefix`]). The module-binding flows
    /// never build one, and `fa_anneal` builds its own start netlist.
    pub fn grows_leaf_prefix(&self) -> bool {
        matches!(
            self,
            Flow::WallaceFixed | Flow::FaRandom(_) | Flow::FaAot | Flow::FaAlp
        )
    }

    /// Builds the leaf prefix the FA-tree flows ([`Flow::grows_leaf_prefix`])
    /// synthesize `expr` from at output width `width`: the profile-free half of
    /// their synthesis, shared by every design point over the same variable names
    /// and widths. Hand it to [`Flow::synthesize_from`].
    ///
    /// # Errors
    ///
    /// Returns an error if lowering fails, the expression reduces to the constant
    /// zero, or netlist construction fails.
    pub fn leaf_prefix(
        expr: &Expr,
        spec: &InputSpec,
        width: u32,
    ) -> Result<LeafPrefix, BaselineError> {
        Ok(Synthesizer::new(expr, spec)
            .output_width(width)
            .leaf_prefix()?)
    }

    /// Runs the synthesis step of the flow, for callers that analyse (or
    /// delta-re-analyse) separately.
    ///
    /// Every flow but `fa_anneal` skips the whole timing + power + area bundle and
    /// returns [`FlowSynthesis::Unanalyzed`]; `fa_anneal` returns its finished
    /// result (see [`FlowSynthesis`] for why). Following an `Unanalyzed` outcome
    /// with [`FlowResult::analyze`] is exactly [`Flow::run`].
    ///
    /// The four FA-tree flows build their leaf prefix on the spot and grow it, as
    /// [`Flow::synthesize_from`] grows a supplied one: one code path, the same
    /// netlist.
    ///
    /// # Errors
    ///
    /// Returns an error if lowering or synthesis — or, for `fa_anneal`, any
    /// analysis — fails.
    pub fn synthesize(
        &self,
        expr: &Expr,
        spec: &InputSpec,
        width: u32,
        tech: &TechLibrary,
    ) -> Result<FlowSynthesis, BaselineError> {
        self.synthesize_from(expr, spec, width, tech, None)
    }

    /// [`Flow::synthesize`], with the FA-tree flows growing from `prefix` (built
    /// by [`Flow::leaf_prefix`]) instead of lowering and building their leaves.
    /// The other flows ignore it. A prefix that does not fit the expression, the
    /// variables or the width is ignored too (see `Synthesizer::grow_from`), so
    /// the outcome is always exactly [`Flow::synthesize`]'s.
    ///
    /// # Errors
    ///
    /// As [`Flow::synthesize`].
    pub fn synthesize_from(
        &self,
        expr: &Expr,
        spec: &InputSpec,
        width: u32,
        tech: &TechLibrary,
        prefix: Option<&LeafPrefix>,
    ) -> Result<FlowSynthesis, BaselineError> {
        let tree = |strategy| {
            let synthesizer = self.fa_tree(expr, spec, width, tech, strategy);
            match prefix {
                Some(prefix) => synthesizer.grow_from(prefix),
                None => synthesizer,
            }
            .build_netlist()
        };
        let (netlist, word_map) = match *self {
            Flow::Conventional => conventional_netlist(expr, spec, width)?,
            Flow::CsaOpt => csa_opt_netlist(expr, spec, width, tech)?,
            Flow::WallaceFixed => tree(SelectionStrategy::RowOrder)?,
            Flow::FaRandom(seed) => tree(SelectionStrategy::Random(seed))?,
            Flow::FaAot | Flow::FaAlp => tree(self.objective().default_strategy())?,
            Flow::FaAnneal(seed) => {
                let (result, _) = fa_anneal_with_stats(expr, spec, width, tech, seed)?;
                return Ok(FlowSynthesis::Analyzed(Box::new(result)));
            }
        };
        Ok(FlowSynthesis::Unanalyzed(Box::new(SynthesizedParts {
            flow: self.name(),
            netlist,
            word_map,
        })))
    }

    /// The global FA-tree engine of `dpsyn-core` configured under this flow's
    /// objective and name (which also names the netlist module) with the given
    /// selection strategy and the default final adder.
    pub(crate) fn fa_tree<'a>(
        self,
        expr: &'a Expr,
        spec: &'a InputSpec,
        width: u32,
        tech: &'a TechLibrary,
        strategy: SelectionStrategy,
    ) -> Synthesizer<'a> {
        Synthesizer::new(expr, spec)
            .objective(self.objective())
            .technology(tech)
            .output_width(width)
            .name(self.name())
            .strategy(strategy)
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Flow::FaRandom(seed) => write!(f, "fa_random(seed={seed})"),
            Flow::FaAnneal(seed) => write!(f, "fa_anneal(seed={seed})"),
            other => write!(f, "{}", other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_ir::parse_expr;
    use dpsyn_sim::check_equivalence;

    /// Each flow's engine configuration, spelled out independently of the
    /// dispatch: the module-binding builders plus the shared analysis, the core
    /// synthesizer under each flow's objective, strategy and module name, and the
    /// anneal search.
    fn direct(
        flow: Flow,
        expr: &Expr,
        spec: &InputSpec,
        width: u32,
        lib: &TechLibrary,
    ) -> FlowResult {
        let engine = |objective: Objective, strategy: Option<SelectionStrategy>| {
            let mut synthesizer = Synthesizer::new(expr, spec)
                .objective(objective)
                .technology(lib)
                .output_width(width)
                .name(flow.name());
            if let Some(strategy) = strategy {
                synthesizer = synthesizer.strategy(strategy);
            }
            let (netlist, word_map, compiled, report) = synthesizer.run().unwrap().into_parts();
            FlowResult {
                flow: flow.name().to_string(),
                netlist,
                word_map,
                compiled,
                delay: report.delay,
                area: report.area,
                switching_energy: report.switching_energy,
                power_mw: report.power_mw,
            }
        };
        match flow {
            Flow::Conventional => {
                let (netlist, word_map) = conventional_netlist(expr, spec, width).unwrap();
                FlowResult::analyze("conventional", netlist, word_map, spec, lib).unwrap()
            }
            Flow::CsaOpt => {
                let (netlist, word_map) = csa_opt_netlist(expr, spec, width, lib).unwrap();
                FlowResult::analyze("csa_opt", netlist, word_map, spec, lib).unwrap()
            }
            Flow::WallaceFixed => engine(Objective::Timing, Some(SelectionStrategy::RowOrder)),
            Flow::FaRandom(seed) => engine(Objective::Power, Some(SelectionStrategy::Random(seed))),
            Flow::FaAot => engine(Objective::Timing, None),
            Flow::FaAlp => engine(Objective::Power, None),
            Flow::FaAnneal(seed) => {
                fa_anneal_with_stats(expr, spec, width, lib, seed)
                    .unwrap()
                    .0
            }
        }
    }

    const ALL: [Flow; 7] = [
        Flow::Conventional,
        Flow::CsaOpt,
        Flow::WallaceFixed,
        Flow::FaRandom(11),
        Flow::FaAot,
        Flow::FaAlp,
        Flow::FaAnneal(11),
    ];

    fn setup() -> (Expr, InputSpec, TechLibrary) {
        (
            parse_expr("a*b + c + 7").unwrap(),
            InputSpec::builder()
                .var_with_arrival("a", 4, 1.0)
                .var("b", 4)
                .var_with_probability("c", 4, 0.2)
                .build()
                .unwrap(),
            TechLibrary::lcbg10pv_like(),
        )
    }

    #[test]
    fn dispatch_matches_the_free_functions() {
        let expr = parse_expr("a*b + c - 1").unwrap();
        let spec = InputSpec::builder()
            .var_with_arrival("a", 3, 1.0)
            .var("b", 3)
            .var_with_probability("c", 3, 0.2)
            .build()
            .unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        for flow in ALL {
            let reference = direct(flow, &expr, &spec, 8, &lib);
            let dispatched = flow.run(&expr, &spec, 8, &lib).unwrap();
            assert_eq!(dispatched.flow, reference.flow, "{flow}");
            // Dispatch must be bit-identical to the direct call, not merely close,
            // down to the netlist's module name.
            assert_eq!(
                dispatched.delay.to_bits(),
                reference.delay.to_bits(),
                "{flow}"
            );
            assert_eq!(
                dispatched.area.to_bits(),
                reference.area.to_bits(),
                "{flow}"
            );
            assert_eq!(
                dispatched.switching_energy.to_bits(),
                reference.switching_energy.to_bits(),
                "{flow}"
            );
            assert_eq!(
                dispatched.power_mw.to_bits(),
                reference.power_mw.to_bits(),
                "{flow}"
            );
            assert_eq!(dispatched.netlist, reference.netlist, "{flow}");
            assert_eq!(dispatched.netlist.name(), flow.name(), "{flow}");
        }
    }

    #[test]
    fn fa_tree_flows_preserve_function() {
        let (expr, spec, lib) = setup();
        for flow in [
            Flow::FaAot,
            Flow::FaAlp,
            Flow::WallaceFixed,
            Flow::FaRandom(3),
        ] {
            let result = flow.run(&expr, &spec, 9, &lib).unwrap();
            check_equivalence(&result.netlist, &result.word_map, &expr, &spec, 9, 128, 5)
                .unwrap_or_else(|error| panic!("{flow}: {error}"));
        }
    }

    #[test]
    fn fa_aot_is_at_least_as_fast_as_wallace_fixed() {
        let (expr, spec, lib) = setup();
        let ours = Flow::FaAot.run(&expr, &spec, 9, &lib).unwrap();
        let fixed = Flow::WallaceFixed.run(&expr, &spec, 9, &lib).unwrap();
        assert!(ours.delay <= fixed.delay + 1e-9);
    }

    #[test]
    fn fa_alp_is_no_worse_than_random_on_average() {
        let (expr, spec, lib) = setup();
        let low_power = Flow::FaAlp.run(&expr, &spec, 9, &lib).unwrap();
        let mut random_total = 0.0;
        let runs = 5;
        for seed in 0..runs {
            random_total += Flow::FaRandom(seed)
                .run(&expr, &spec, 9, &lib)
                .unwrap()
                .switching_energy;
        }
        assert!(low_power.switching_energy <= random_total / runs as f64 + 1e-9);
    }

    #[test]
    fn synthesize_then_analyze_matches_run_bit_for_bit() {
        let expr = parse_expr("a*b + c - 1").unwrap();
        let spec = InputSpec::builder()
            .var_with_arrival("a", 3, 1.0)
            .var("b", 3)
            .var_with_probability("c", 3, 0.2)
            .build()
            .unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        for flow in ALL {
            let reference = flow.run(&expr, &spec, 8, &lib).unwrap();
            let result = match flow.synthesize(&expr, &spec, 8, &lib).unwrap() {
                FlowSynthesis::Unanalyzed(parts) => {
                    // Every flow but the anneal search leaves analysis to the caller.
                    assert!(!matches!(flow, Flow::FaAnneal(_)), "{flow}");
                    FlowResult::analyze(parts.flow, parts.netlist, parts.word_map, &spec, &lib)
                        .unwrap()
                }
                FlowSynthesis::Analyzed(result) => {
                    assert!(matches!(flow, Flow::FaAnneal(_)), "{flow}");
                    *result
                }
            };
            assert_eq!(result.flow, reference.flow, "{flow}");
            assert_eq!(result.delay.to_bits(), reference.delay.to_bits(), "{flow}");
            assert_eq!(result.area.to_bits(), reference.area.to_bits(), "{flow}");
            assert_eq!(
                result.switching_energy.to_bits(),
                reference.switching_energy.to_bits(),
                "{flow}"
            );
            assert_eq!(
                result.power_mw.to_bits(),
                reference.power_mw.to_bits(),
                "{flow}"
            );
            assert_eq!(result.netlist, reference.netlist, "{flow}");
            assert_eq!(result.word_map, reference.word_map, "{flow}");
            assert_eq!(result.compiled, reference.compiled, "{flow}");
        }
    }

    /// A supplied leaf prefix, built under other input profiles, changes nothing:
    /// every flow's synthesis equals the one without it, down to the module name.
    #[test]
    fn synthesize_from_a_shared_prefix_matches_synthesize() {
        let (expr, spec, lib) = setup();
        let flat = InputSpec::builder()
            .var("a", 4)
            .var("b", 4)
            .var("c", 4)
            .build()
            .unwrap();
        let prefix = Flow::leaf_prefix(&expr, &flat, 9).unwrap();
        for flow in ALL {
            let parts = |outcome| match outcome {
                FlowSynthesis::Unanalyzed(parts) => (parts.netlist, parts.word_map),
                FlowSynthesis::Analyzed(result) => (result.netlist, result.word_map),
            };
            let reference = parts(flow.synthesize(&expr, &spec, 9, &lib).unwrap());
            let grown = parts(
                flow.synthesize_from(&expr, &spec, 9, &lib, Some(&prefix))
                    .unwrap(),
            );
            assert_eq!(grown, reference, "{flow}");
            assert_eq!(grown.0.name(), flow.name(), "{flow}");
        }
    }

    #[test]
    fn names_objectives_and_display_are_stable() {
        assert_eq!(Flow::Conventional.name(), "conventional");
        assert_eq!(Flow::FaRandom(7).name(), "fa_random");
        assert_eq!(Flow::FaRandom(7).to_string(), "fa_random(seed=7)");
        assert_eq!(Flow::FaAnneal(7).name(), "fa_anneal");
        assert_eq!(Flow::FaAnneal(7).to_string(), "fa_anneal(seed=7)");
        assert_eq!(Flow::FaAot.to_string(), "fa_aot");
        assert_eq!(Flow::FaAot.objective(), Objective::Timing);
        assert_eq!(Flow::WallaceFixed.objective(), Objective::Timing);
        assert_eq!(Flow::FaAlp.objective(), Objective::Power);
        assert_eq!(Flow::FaRandom(7).objective(), Objective::Power);
        assert_eq!(Flow::FaAnneal(7).objective(), Objective::Power);
        assert_eq!(Flow::NAMED.len(), 5);
        assert_eq!(Flow::TIMING_RIVALS.len(), 2);
    }
}
