//! The high-level synthesis entry point.

use crate::allocation::{allocate_fa_tree, ReducedRows};
use crate::analysis::analyze_netlist;
use crate::error::SynthesisError;
use crate::final_adder::FinalAdderKind;
use crate::leaves::LeafPrefix;
use crate::report::SynthesisReport;
use crate::strategy::{Objective, SelectionStrategy};
use dpsyn_ir::{Expr, InputSpec, LoweringOptions};
use dpsyn_netlist::{CompiledNetlist, Netlist, Word, WordMap};
use dpsyn_tech::TechLibrary;
use std::borrow::Cow;

/// Builder-style front end for the whole synthesis flow: expression → addend matrix →
/// FA-tree → final adder → analysed netlist.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone)]
pub struct Synthesizer<'a> {
    expr: &'a Expr,
    spec: &'a InputSpec,
    tech: Option<&'a TechLibrary>,
    objective: Objective,
    strategy: Option<SelectionStrategy>,
    final_adder: FinalAdderKind,
    width: Option<u32>,
    csd: bool,
    name: String,
    prefix: Option<&'a LeafPrefix>,
}

impl<'a> Synthesizer<'a> {
    /// Creates a synthesizer for `expr` under the input characteristics of `spec`.
    pub fn new(expr: &'a Expr, spec: &'a InputSpec) -> Self {
        Synthesizer {
            expr,
            spec,
            tech: None,
            objective: Objective::Timing,
            strategy: None,
            final_adder: FinalAdderKind::default(),
            width: None,
            csd: false,
            name: "datapath".to_string(),
            prefix: None,
        }
    }

    /// Sets the optimisation objective (default: [`Objective::Timing`]).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Overrides the addend-selection strategy (default: the objective's strategy).
    ///
    /// This is how the baseline strategies (fixed row order, random selection) reuse the
    /// same engine.
    pub fn strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Sets the technology library (default: [`TechLibrary::lcbg10pv_like`]).
    pub fn technology(mut self, tech: &'a TechLibrary) -> Self {
        self.tech = Some(tech);
        self
    }

    /// Sets the final-adder architecture (default: carry-lookahead).
    pub fn final_adder(mut self, kind: FinalAdderKind) -> Self {
        self.final_adder = kind;
        self
    }

    /// Sets an explicit output width; the result is computed modulo `2^width`.
    /// Without it a width wide enough for the positive part of the expression is
    /// inferred.
    pub fn output_width(mut self, width: u32) -> Self {
        self.width = Some(width);
        self
    }

    /// Enables canonical-signed-digit recoding of constant coefficients.
    pub fn csd_constants(mut self, enable: bool) -> Self {
        self.csd = enable;
        self
    }

    /// Sets the module name of the generated netlist (default `"datapath"`).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Grows the design from `prefix` instead of lowering the expression and
    /// building its leaves again. The result is identical to a synthesis without
    /// it: the prefix only saves the work.
    ///
    /// A prefix that does not fit this synthesizer — built for another expression,
    /// other variable names or widths ([`LeafPrefix::fits`]) or other lowering
    /// options — is ignored, and a fresh one is built.
    pub fn grow_from(mut self, prefix: &'a LeafPrefix) -> Self {
        self.prefix = Some(prefix);
        self
    }

    /// Builds the profile-free leaf prefix of this synthesizer's expression, output
    /// width and coefficient recoding: what every synthesis of the expression over
    /// the same variable names and widths starts from, whatever the input profiles,
    /// strategy or final adder. Hand it to [`Synthesizer::grow_from`].
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] when lowering fails, when the expression
    /// reduces to the constant zero, or when netlist construction fails.
    pub fn leaf_prefix(&self) -> Result<LeafPrefix, SynthesisError> {
        LeafPrefix::new(self.expr, self.spec, &self.lowering_options())
    }

    /// Runs the full flow and returns the synthesized, analysed design: the netlist
    /// of [`Synthesizer::build_netlist`] followed by [`analyze_netlist`].
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] when lowering fails (unknown variable, bad width),
    /// when the expression reduces to the constant zero, or when any downstream
    /// analysis fails.
    pub fn run(&self) -> Result<SynthesizedDesign, SynthesisError> {
        let tech = self.technology_or_default();
        let tree = self.build(&tech)?;
        let (compiled, figures) =
            analyze_netlist::<SynthesisError>(&tree.netlist, &tree.word_map, self.spec, &tech)?;
        let report = SynthesisReport {
            name: self.name.clone(),
            objective: self.objective,
            strategy: tree.strategy,
            delay: figures.delay,
            area: figures.area,
            switching_energy: figures.switching_energy,
            power_mw: figures.power_mw,
            tree_fa_count: tree.rows.fa_count,
            tree_ha_count: tree.rows.ha_count,
            final_input_arrival: tree.rows.final_input_arrival,
            cell_count: compiled.cell_count(),
            net_count: compiled.net_count(),
            logic_depth: compiled.level_count(),
            output_width: tree.width,
        };
        Ok(SynthesizedDesign {
            netlist: tree.netlist,
            word_map: tree.word_map,
            compiled,
            report,
            width: tree.width,
        })
    }

    /// Runs the synthesis half of the flow only — expression → addend matrix →
    /// FA-tree → final adder — and returns the netlist with its word-level
    /// interface, unanalysed. [`Synthesizer::run`] is exactly this followed by
    /// [`analyze_netlist`], so callers that analyse on their own (or re-analyse
    /// through a delta path) get bit-identical figures.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] when lowering fails, when the expression
    /// reduces to the constant zero, or when netlist construction fails.
    pub fn build_netlist(&self) -> Result<(Netlist, WordMap), SynthesisError> {
        let tree = self.build(&self.technology_or_default())?;
        Ok((tree.netlist, tree.word_map))
    }

    /// The configured technology library, or the default one.
    fn technology_or_default(&self) -> Cow<'a, TechLibrary> {
        self.tech
            .map_or_else(|| Cow::Owned(TechLibrary::lcbg10pv_like()), Cow::Borrowed)
    }

    /// The lowering options of the configured width and coefficient recoding.
    fn lowering_options(&self) -> LoweringOptions {
        match self.width {
            Some(width) => LoweringOptions::with_width(width),
            None => LoweringOptions::new(),
        }
        .csd_constants(self.csd)
    }

    /// The one synthesis path behind [`Synthesizer::run`] and
    /// [`Synthesizer::build_netlist`]: take (or build) the leaf prefix, then grow
    /// it — derive this design's leaf estimates, allocate the FA-tree, add the
    /// final adder and name the outputs.
    ///
    /// A borrowed prefix is copied once; a freshly built one is moved, so a
    /// one-off synthesis pays nothing for the split.
    fn build(&self, tech: &TechLibrary) -> Result<TreeNetlist, SynthesisError> {
        let options = self.lowering_options();
        let prefix = match self.prefix {
            Some(prefix) if prefix.options == options && prefix.fits(self.expr, self.spec) => {
                Cow::Borrowed(prefix)
            }
            _ => Cow::Owned(LeafPrefix::new(self.expr, self.spec, &options)?),
        };
        let columns = prefix.leaves(self.spec, tech);
        let width = prefix.width;
        let (mut netlist, input_words) = match prefix {
            Cow::Borrowed(prefix) => (prefix.netlist.clone(), prefix.input_words.clone()),
            Cow::Owned(prefix) => (prefix.netlist, prefix.input_words),
        };
        // The module name is the design's, not the prefix's.
        netlist.set_name(self.name.clone());
        let strategy = self
            .strategy
            .unwrap_or_else(|| self.objective.default_strategy());
        let rows = allocate_fa_tree(&mut netlist, columns, strategy, tech)?;
        let outputs =
            self.final_adder
                .build(&mut netlist, &rows.row_a, &rows.row_b, width as usize)?;
        for (bit, net) in outputs.iter().enumerate() {
            netlist.set_net_name(*net, format!("out[{bit}]"));
            netlist.mark_output(*net);
        }
        let word_map = WordMap::new(input_words, Word::new("out", outputs));
        Ok(TreeNetlist {
            netlist,
            word_map,
            rows,
            width,
            strategy,
        })
    }
}

/// The unanalysed outcome of the synthesis half: the netlist and its interface
/// plus the tree statistics and settings the report carries.
struct TreeNetlist {
    netlist: Netlist,
    word_map: WordMap,
    rows: ReducedRows,
    width: u32,
    strategy: SelectionStrategy,
}

/// A synthesized and analysed design: the netlist, its word-level interface, its
/// compiled analysis program and its quality-of-results report.
#[derive(Debug, Clone)]
pub struct SynthesizedDesign {
    netlist: Netlist,
    word_map: WordMap,
    compiled: CompiledNetlist,
    report: SynthesisReport,
    width: u32,
}

impl SynthesizedDesign {
    /// The synthesized bit-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The word-level interface (input words and the output word).
    pub fn word_map(&self) -> &WordMap {
        &self.word_map
    }

    /// The compiled analysis program of the netlist, built once during synthesis.
    /// Hand this to `BlockSim::from_compiled` or a [`crate::AnalysisSession`] to
    /// simulate or re-analyse without re-levelizing.
    pub fn compiled(&self) -> &CompiledNetlist {
        &self.compiled
    }

    /// The quality-of-results report.
    pub fn report(&self) -> &SynthesisReport {
        &self.report
    }

    /// The output width in bits.
    pub fn output_width(&self) -> u32 {
        self.width
    }

    /// Emits the design as structural Verilog (the paper's output format).
    pub fn to_verilog(&self) -> String {
        self.netlist.to_verilog()
    }

    /// Decomposes the design into its parts (netlist, interface, compiled program,
    /// report), so downstream consumers (the flow layer, the explorer) keep sharing
    /// the compiled program.
    pub fn into_parts(self) -> (Netlist, WordMap, CompiledNetlist, SynthesisReport) {
        (self.netlist, self.word_map, self.compiled, self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_ir::parse_expr;
    use dpsyn_sim::check_equivalence;

    fn spec_xyz() -> InputSpec {
        InputSpec::builder()
            .var("x", 3)
            .var("y", 3)
            .var("z", 3)
            .build()
            .unwrap()
    }

    fn check(source: &str, spec: &InputSpec, width: u32, objective: Objective) {
        let expr = parse_expr(source).unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let design = Synthesizer::new(&expr, spec)
            .objective(objective)
            .technology(&lib)
            .output_width(width)
            .run()
            .unwrap();
        design.netlist().validate().unwrap();
        check_equivalence(
            design.netlist(),
            design.word_map(),
            &expr,
            spec,
            width,
            256,
            17,
        )
        .unwrap();
    }

    #[test]
    fn timing_designs_are_functionally_correct() {
        let spec = spec_xyz();
        check("x + y + z", &spec, 5, Objective::Timing);
        check("x*y + z", &spec, 7, Objective::Timing);
        check("x + y - z + x*y - y*z + 10", &spec, 8, Objective::Timing);
        check("x*x + 2*x + 1", &spec, 8, Objective::Timing);
    }

    #[test]
    fn power_designs_are_functionally_correct() {
        let spec = spec_xyz();
        check("x*y + y*z + x", &spec, 8, Objective::Power);
        check("x - y + 21", &spec, 6, Objective::Power);
    }

    #[test]
    fn every_final_adder_kind_preserves_function() {
        let expr = parse_expr("x*y + z").unwrap();
        let spec = spec_xyz();
        let lib = TechLibrary::unit();
        for kind in FinalAdderKind::all() {
            let design = Synthesizer::new(&expr, &spec)
                .technology(&lib)
                .final_adder(kind)
                .output_width(7)
                .run()
                .unwrap();
            check_equivalence(design.netlist(), design.word_map(), &expr, &spec, 7, 128, 3)
                .unwrap();
        }
    }

    #[test]
    fn every_strategy_preserves_function() {
        let expr = parse_expr("x*y - z + 5").unwrap();
        let spec = spec_xyz();
        let lib = TechLibrary::unit();
        for strategy in [
            SelectionStrategy::EarliestArrival,
            SelectionStrategy::LargestDeviation,
            SelectionStrategy::RowOrder,
            SelectionStrategy::Random(5),
        ] {
            let design = Synthesizer::new(&expr, &spec)
                .technology(&lib)
                .strategy(strategy)
                .output_width(7)
                .run()
                .unwrap();
            check_equivalence(design.netlist(), design.word_map(), &expr, &spec, 7, 128, 3)
                .unwrap();
        }
    }

    #[test]
    fn timing_objective_beats_fixed_selection_under_skewed_arrivals() {
        // One late-arriving input: the timing-driven tree should finish earlier than the
        // fixed row-order tree, as in Figure 2.
        let expr = parse_expr("a + b + c + d + e + f").unwrap();
        let spec = InputSpec::builder()
            .var("a", 8)
            .var("b", 8)
            .var("c", 8)
            .var("d", 8)
            .var("e", 8)
            .var_with_arrival("f", 8, 3.0)
            .build()
            .unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let timing = Synthesizer::new(&expr, &spec)
            .technology(&lib)
            .objective(Objective::Timing)
            .run()
            .unwrap();
        let fixed = Synthesizer::new(&expr, &spec)
            .technology(&lib)
            .strategy(SelectionStrategy::RowOrder)
            .run()
            .unwrap();
        assert!(
            timing.report().delay <= fixed.report().delay + 1e-9,
            "timing {} vs fixed {}",
            timing.report().delay,
            fixed.report().delay
        );
    }

    #[test]
    fn power_objective_beats_random_selection_for_skewed_probabilities() {
        let expr = parse_expr("a + b + c + d + e + f").unwrap();
        let spec = InputSpec::builder()
            .var_with_probability("a", 8, 0.05)
            .var_with_probability("b", 8, 0.9)
            .var_with_probability("c", 8, 0.5)
            .var_with_probability("d", 8, 0.2)
            .var_with_probability("e", 8, 0.8)
            .var_with_probability("f", 8, 0.35)
            .build()
            .unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let low_power = Synthesizer::new(&expr, &spec)
            .technology(&lib)
            .objective(Objective::Power)
            .run()
            .unwrap();
        // Compare against the average of several random selections (the paper's
        // FA_random reference).
        let mut random_total = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let random = Synthesizer::new(&expr, &spec)
                .technology(&lib)
                .strategy(SelectionStrategy::Random(seed))
                .run()
                .unwrap();
            random_total += random.report().switching_energy;
        }
        let random_average = random_total / runs as f64;
        assert!(
            low_power.report().switching_energy <= random_average,
            "low power {} vs random average {}",
            low_power.report().switching_energy,
            random_average
        );
    }

    #[test]
    fn inferred_width_matches_matrix_width() {
        let expr = parse_expr("x * y").unwrap();
        let spec = InputSpec::builder()
            .var("x", 3)
            .var("y", 3)
            .build()
            .unwrap();
        let design = Synthesizer::new(&expr, &spec).run().unwrap();
        assert_eq!(design.output_width(), 6);
        assert_eq!(design.word_map().output().width(), 6);
    }

    #[test]
    fn zero_expression_is_rejected() {
        let expr = parse_expr("x - x").unwrap();
        let spec = InputSpec::builder().var("x", 3).build().unwrap();
        let result = Synthesizer::new(&expr, &spec).output_width(4).run();
        assert!(matches!(result, Err(SynthesisError::EmptyExpression)));
    }

    #[test]
    fn unknown_variable_is_rejected() {
        let expr = parse_expr("x + ghost").unwrap();
        let spec = InputSpec::builder().var("x", 3).build().unwrap();
        let result = Synthesizer::new(&expr, &spec).run();
        assert!(matches!(result, Err(SynthesisError::Ir(_))));
    }

    #[test]
    fn verilog_output_names_the_module() {
        let expr = parse_expr("x + y").unwrap();
        let spec = InputSpec::builder()
            .var("x", 2)
            .var("y", 2)
            .build()
            .unwrap();
        let design = Synthesizer::new(&expr, &spec)
            .name("my_datapath")
            .run()
            .unwrap();
        let verilog = design.to_verilog();
        assert!(verilog.contains("module my_datapath"));
        let (netlist, map, _, report) = design.into_parts();
        assert_eq!(netlist.outputs().len(), map.output().width() as usize);
        assert_eq!(report.name, "my_datapath");
    }

    #[test]
    fn report_counts_match_the_netlist() {
        let expr = parse_expr("x*y + z").unwrap();
        let spec = spec_xyz();
        let lib = TechLibrary::unit();
        let design = Synthesizer::new(&expr, &spec)
            .technology(&lib)
            .output_width(7)
            .run()
            .unwrap();
        let report = design.report();
        assert_eq!(report.cell_count, design.netlist().cell_count());
        assert_eq!(report.net_count, design.netlist().net_count());
        let fa_in_netlist = design.netlist().count_kind(dpsyn_netlist::CellKind::Fa);
        // The netlist also contains the final adder's FAs (ripple blocks inside the
        // carry-lookahead default do not use FA cells, so tree FAs are a lower bound).
        assert!(fa_in_netlist >= report.tree_fa_count);
        let folded: f64 = design
            .netlist()
            .cells()
            .map(|(_, cell)| lib.area(cell.kind()))
            .sum();
        assert!((report.area - folded).abs() < 1e-9);
    }
}
