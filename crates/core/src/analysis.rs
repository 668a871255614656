//! The one analysis path of every flow, [`AnalysisSession`] (behind
//! [`analyze_netlist`], the explorer's cache and `fa_anneal`), and the maps of
//! [`input_profiles`] that its bit-for-bit reference, `run_compiled`, takes.

use dpsyn_ir::{BitProfile, InputSpec};
use dpsyn_netlist::{
    CellId, CompiledNetlist, DeltaState, InputDelta, NetId, Netlist, NetlistError, WordMap,
};
use dpsyn_power::{IncrementalPower, PowerError, PowerReport};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::{IncrementalTiming, TimingError, TimingReport};
use std::collections::BTreeMap;

/// The one per-bit profile loop: calls `visit` with every bit of every input word
/// and its profile in `spec`, `None` when no variable of `spec` covers the bit.
fn for_each_input_bit(
    word_map: &WordMap,
    spec: &InputSpec,
    mut visit: impl FnMut(NetId, Option<&BitProfile>),
) {
    for word in word_map.inputs() {
        let profiles = spec.var(word.name()).map_or(&[][..], |var| var.bits());
        for (index, net) in word.bits().iter().enumerate() {
            visit(*net, profiles.get(index));
        }
    }
}

/// The arrival times and signal probabilities `spec` gives a design's input nets,
/// keyed by net: what the reference passes (`TimingAnalysis` and
/// `ProbabilityAnalysis::run_compiled`) take.
pub fn input_profiles(
    word_map: &WordMap,
    spec: &InputSpec,
) -> (BTreeMap<NetId, f64>, BTreeMap<NetId, f64>) {
    let mut arrivals = BTreeMap::new();
    let mut probabilities = BTreeMap::new();
    for_each_input_bit(word_map, spec, |net, profile| {
        if let Some(profile) = profile {
            arrivals.insert(net, profile.arrival);
            probabilities.insert(net, profile.probability);
        }
    });
    (arrivals, probabilities)
}

/// The figures one analysis of a design point yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisFigures {
    /// Critical delay under the point's arrival profile (library time units).
    pub delay: f64,
    /// Total cell area (library area units).
    pub area: f64,
    /// Weighted switching energy `Σ W·p(1−p)` under the point's probability profile.
    pub switching_energy: f64,
    /// Power on the milliwatt-like scale of Table 2.
    pub power_mw: f64,
}

/// One compiled program's resolved incremental timing and power analyses, their
/// [`DeltaState`] and the program's area. The first analysis is the full pass; each
/// later one reruns only the cone a profile change or a rebind reaches. Every call
/// takes the program the session was created for or last rebound to.
#[derive(Debug, Clone)]
pub struct AnalysisSession {
    timing: IncrementalTiming,
    power: IncrementalPower,
    state: DeltaState,
    area: f64,
    /// Profile buffer, empty between calls.
    delta: InputDelta,
}

impl AnalysisSession {
    /// Checks `netlist`'s structure, compiles it **once** and resolves the
    /// technology for timing, then power (so an uncovered cell kind is the
    /// reference timing pass's [`TimingError`]): the program and a fresh session
    /// over it.
    ///
    /// # Errors
    ///
    /// Fails when the netlist is structurally invalid or cyclic, or when the
    /// technology library does not cover one of its cells.
    pub fn compile<E>(netlist: &Netlist, tech: &TechLibrary) -> Result<(CompiledNetlist, Self), E>
    where
        E: From<NetlistError> + From<TimingError> + From<PowerError>,
    {
        netlist.validate_structure()?;
        let compiled = netlist.compile()?;
        let session = AnalysisSession {
            timing: IncrementalTiming::new(tech, &compiled)?,
            power: IncrementalPower::new(tech, &compiled)?,
            state: DeltaState::new(&compiled),
            area: tech.compiled_area(&compiled),
            delta: InputDelta::new(),
        };
        Ok((compiled, session))
    }

    /// Analyses the program with every input-word bit at its profile in `spec`, or
    /// at arrival 0 and probability 0.5 when `spec` has none. Pass the program's
    /// own word map on every call.
    ///
    /// # Errors
    ///
    /// Fails on a negative or non-finite arrival or a probability outside `[0, 1]`.
    pub fn bind<E>(
        &mut self,
        compiled: &CompiledNetlist,
        word_map: &WordMap,
        spec: &InputSpec,
    ) -> Result<AnalysisFigures, E>
    where
        E: From<TimingError> + From<PowerError>,
    {
        let delta = &mut self.delta;
        for_each_input_bit(word_map, spec, |net, profile| {
            let profile = profile.copied().unwrap_or_default();
            delta.set_arrival(net, profile.arrival);
            delta.set_probability(net, profile.probability);
        });
        let figures = self.rerun(compiled);
        self.delta.clear();
        figures
    }

    /// Analyses the program under the profile last bound: after a rebind, timing
    /// and then power rerun the cone of the cells it seeded.
    ///
    /// # Errors
    ///
    /// Never outside [`AnalysisSession::bind`]: no profile value is applied.
    pub fn rerun<E>(&mut self, compiled: &CompiledNetlist) -> Result<AnalysisFigures, E>
    where
        E: From<TimingError> + From<PowerError>,
    {
        let timing = self
            .timing
            .rerun_delta(compiled, &mut self.state, &self.delta)?;
        let delay = timing.critical_delay();
        let power = self
            .power
            .rerun_delta(compiled, &mut self.state, &self.delta)?;
        Ok(AnalysisFigures {
            delay,
            area: self.area,
            switching_energy: power.total_energy(),
            power_mw: power.power_mw(),
        })
    }

    /// Moves the session to `new`, recompiled from `old` after a pin rewire.
    pub fn rebind(&mut self, old: &CompiledNetlist, new: &CompiledNetlist) {
        self.state.rebind(old, new);
    }

    /// Moves the session to `patched`, patched in place by a pin swap of `cells`.
    pub fn rebind_swapped(&mut self, patched: &CompiledNetlist, cells: [CellId; 2]) {
        self.state.rebind_swapped(patched, cells);
    }

    /// The full timing and power reports of the last analysis.
    pub fn reports(&self, compiled: &CompiledNetlist) -> (TimingReport, PowerReport) {
        let timing = self.timing.view(compiled, &self.state).to_report();
        (timing, self.power.view(compiled, &self.state).to_report())
    }
}

/// The analysis of every flow's netlist: [`AnalysisSession::compile`], then one
/// bind of `spec`. The error type is the caller's, so each flow reports failures in
/// its own terms.
///
/// # Errors
///
/// As [`AnalysisSession::compile`] and [`AnalysisSession::bind`].
pub fn analyze_netlist<E>(
    netlist: &Netlist,
    word_map: &WordMap,
    spec: &InputSpec,
    tech: &TechLibrary,
) -> Result<(CompiledNetlist, AnalysisFigures), E>
where
    E: From<NetlistError> + From<TimingError> + From<PowerError>,
{
    let (compiled, mut session) = AnalysisSession::compile::<E>(netlist, tech)?;
    let figures = session.bind::<E>(&compiled, word_map, spec)?;
    Ok((compiled, figures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthesisError;
    use dpsyn_netlist::{CellKind, Word};
    use dpsyn_power::ProbabilityAnalysis;
    use dpsyn_tech::TechError;
    use dpsyn_timing::TimingAnalysis;

    /// The reference figures: the stateless full passes over the maps of
    /// `input_profiles`.
    fn reference(
        compiled: &CompiledNetlist,
        word_map: &WordMap,
        spec: &InputSpec,
        tech: &TechLibrary,
    ) -> [u64; 4] {
        let (arrivals, probabilities) = input_profiles(word_map, spec);
        let timing = TimingAnalysis::new(tech)
            .with_input_arrivals(arrivals)
            .run_compiled(compiled)
            .expect("reference timing");
        let power = ProbabilityAnalysis::new(tech)
            .with_input_probabilities(probabilities)
            .run_compiled(compiled)
            .expect("reference power");
        [
            timing.critical_delay(),
            tech.compiled_area(compiled),
            power.total_energy(),
            power.power_mw(),
        ]
        .map(f64::to_bits)
    }

    fn bits(figures: AnalysisFigures) -> [u64; 4] {
        [
            figures.delay,
            figures.area,
            figures.switching_energy,
            figures.power_mw,
        ]
        .map(f64::to_bits)
    }

    /// Words `a` (3 bits) and `b` (2 bits) through a full adder, a half adder and
    /// an AND gate, with three outputs.
    fn design() -> (Netlist, WordMap) {
        let mut netlist = Netlist::new("mix");
        let a: Vec<NetId> = (0..3)
            .map(|bit| netlist.add_input(format!("a[{bit}]")))
            .collect();
        let b: Vec<NetId> = (0..2)
            .map(|bit| netlist.add_input(format!("b[{bit}]")))
            .collect();
        let fa = netlist.add_gate(CellKind::Fa, &[a[0], a[1], b[0]]).unwrap();
        let ha = netlist.add_gate(CellKind::Ha, &[fa[1], a[2]]).unwrap();
        let and = netlist.add_gate(CellKind::And2, &[ha[1], b[1]]).unwrap()[0];
        let outputs = vec![fa[0], ha[0], and];
        for net in &outputs {
            netlist.mark_output(*net);
        }
        let word_map = WordMap::new(
            vec![Word::new("a", a), Word::new("b", b)],
            Word::new("out", outputs),
        );
        (netlist, word_map)
    }

    #[test]
    fn session_figures_equal_the_reference_passes_bit_for_bit() {
        let (netlist, word_map) = design();
        let tech = TechLibrary::lcbg10pv_like();
        // The 3-bit word `a` is wider than a 2-bit variable `a`, so `a[2]` gets
        // the defaults. One session binds every spec in turn, so a bit that
        // loses its profile must return to the defaults too.
        let specs = [
            InputSpec::builder()
                .var_with_arrival("a", 2, 1.5)
                .var_with_probability("b", 2, 0.9)
                .build()
                .unwrap(),
            InputSpec::builder()
                .var_with_probability("a", 3, 0.2)
                .var_with_arrival("b", 2, 0.4)
                .build()
                .unwrap(),
            InputSpec::builder()
                .var_with_arrival("a", 2, 1.5)
                .var("b", 2)
                .build()
                .unwrap(),
            // No variable for the word `b` at all.
            InputSpec::builder()
                .var_with_arrival("a", 3, 0.7)
                .build()
                .unwrap(),
        ];
        let (compiled, mut session) =
            AnalysisSession::compile::<SynthesisError>(&netlist, &tech).unwrap();
        for spec in &specs {
            let expected = reference(&compiled, &word_map, spec, &tech);
            let bound = session
                .bind::<SynthesisError>(&compiled, &word_map, spec)
                .unwrap();
            assert_eq!(bits(bound), expected);
            let (fresh_program, fresh) =
                analyze_netlist::<SynthesisError>(&netlist, &word_map, spec, &tech).unwrap();
            assert_eq!(fresh_program, compiled);
            assert_eq!(bits(fresh), expected);
        }
        // The reports of the last bind are the reference reports.
        let (arrivals, probabilities) = input_profiles(&word_map, &specs[3]);
        let (timing, power) = session.reports(&compiled);
        assert_eq!(
            timing,
            TimingAnalysis::new(&tech)
                .with_input_arrivals(arrivals)
                .run_compiled(&compiled)
                .unwrap()
        );
        assert_eq!(
            power,
            ProbabilityAnalysis::new(&tech)
                .with_input_probabilities(probabilities)
                .run_compiled(&compiled)
                .unwrap()
        );
    }

    #[test]
    fn an_uncovered_cell_kind_is_the_reference_timing_error() {
        let (netlist, word_map) = design();
        let compiled = netlist.compile().unwrap();
        let full = TechLibrary::lcbg10pv_like();
        let mut builder = TechLibrary::builder("no half adder");
        for kind in CellKind::all()
            .into_iter()
            .filter(|kind| *kind != CellKind::Ha)
        {
            builder = builder.cell(kind, full.cell(kind).clone());
        }
        let incomplete = builder.build().unwrap();
        let spec = InputSpec::builder()
            .var("a", 3)
            .var("b", 2)
            .build()
            .unwrap();
        let reference = TimingAnalysis::new(&incomplete)
            .run_compiled(&compiled)
            .unwrap_err();
        assert!(matches!(
            reference,
            TimingError::Tech(TechError::MissingCell(CellKind::Ha))
        ));
        let session = AnalysisSession::compile::<SynthesisError>(&netlist, &incomplete);
        let analyzed = analyze_netlist::<SynthesisError>(&netlist, &word_map, &spec, &incomplete);
        for error in [
            session.map(|_| ()).unwrap_err(),
            analyzed.map(|_| ()).unwrap_err(),
        ] {
            match error {
                SynthesisError::Timing(error) => {
                    assert_eq!(error.to_string(), reference.to_string());
                    assert!(matches!(
                        error,
                        TimingError::Tech(TechError::MissingCell(CellKind::Ha))
                    ));
                }
                other => panic!("expected the timing error, got {other}"),
            }
        }
    }
}
