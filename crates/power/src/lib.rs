//! Signal-probability propagation and switching-activity power estimation.
//!
//! This crate implements the power model of Section 4 of the DAC 2000 paper:
//!
//! * signals are modelled as independent random variables with a probability `p(x)`
//!   of being logic 1 (zero gate-delay model, glitches ignored);
//! * the average switching activity of a signal is `E(x) = p(x)·(1 − p(x))`;
//! * the power of an FA-tree is `Σ_v  Ws·E(v_s) + Wc·E(v_c)` over its adders —
//!   generalised here to every cell kind with the energy weights of a
//!   [`TechLibrary`].
//!
//! The closed-form `q`-transform identities the paper derives for full adders,
//!
//! ```text
//! q(s) = 4·q(x)·q(y)·q(z)
//! q(c) = 0.5·(q(x) + q(y) + q(z)) − 2·q(x)·q(y)·q(z)      with q(v) = p(v) − 0.5
//! ```
//!
//! are exposed as [`q_transform::fa_sum_q`] and [`q_transform::fa_carry_q`] and are used
//! both by the probability propagation below and by the power-driven allocation
//! algorithm in `dpsyn-core`.
//!
//! The analysis runs over a compiled netlist ([`CompiledNetlist`]) and has one
//! production path and one reference:
//!
//! * [`IncrementalPower::rerun_delta`] — the stateful pass over a caller-owned
//!   [`DeltaState`]: its first call on a fresh state is the full pass under the
//!   defaults (unmentioned inputs at p = 0.5) plus the delta's entries, and every
//!   later call re-propagates only the dirty cone. It returns a borrowed
//!   [`PowerView`] of the state instead of a copied report;
//!   [`PowerView::to_report`] builds the report the full pass gives for the same
//!   profile, bit for bit. Every flow is measured through it, by way of
//!   `dpsyn_core::AnalysisSession`.
//! * [`ProbabilityAnalysis::run_compiled`] — the stateless full pass: the reference
//!   the tests and benchmarks hold that path to. No production flow calls it.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use dpsyn_netlist::{CellKind, Netlist};
//! use dpsyn_power::ProbabilityAnalysis;
//! use dpsyn_tech::TechLibrary;
//! use std::collections::BTreeMap;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let mut netlist = Netlist::new("and");
//! let a = netlist.add_input("a");
//! let b = netlist.add_input("b");
//! let y = netlist.add_gate(CellKind::And2, &[a, b])?[0];
//! netlist.mark_output(y);
//! let compiled = netlist.compile()?;
//! let mut probabilities = BTreeMap::new();
//! probabilities.insert(a, 0.5);
//! probabilities.insert(b, 0.5);
//! let report = ProbabilityAnalysis::new(&TechLibrary::unit())
//!     .with_input_probabilities(probabilities)
//!     .run_compiled(&compiled)?;
//! assert!((report.probability(y) - 0.25).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpsyn_netlist::{
    CellKind, CompiledNetlist, CompiledOp, DeltaState, InputDelta, NetId, PowerChannel,
};
use dpsyn_tech::{ResolvedTech, TechError, TechLibrary};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

pub mod q_transform;

/// Errors produced by probability propagation and power estimation.
#[derive(Debug)]
pub enum PowerError {
    /// The technology library does not cover a cell kind used by the netlist.
    Tech(TechError),
    /// An input probability is outside `[0, 1]`.
    InvalidProbability {
        /// The offending net.
        net: NetId,
        /// The offending value.
        probability: f64,
    },
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::Tech(error) => write!(f, "incomplete technology library: {error}"),
            PowerError::InvalidProbability { net, probability } => write!(
                f,
                "signal probability {probability} of net {net} is outside [0, 1]"
            ),
        }
    }
}

impl Error for PowerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PowerError::Tech(error) => Some(error),
            PowerError::InvalidProbability { .. } => None,
        }
    }
}

impl From<TechError> for PowerError {
    fn from(error: TechError) -> Self {
        PowerError::Tech(error)
    }
}

/// The signal probability of primary inputs the profile does not mention: unbiased.
const DEFAULT_PROBABILITY: f64 = 0.5;

/// Configurable signal-probability propagation and power estimation.
///
/// Construct with a technology library, optionally provide per-net input
/// probabilities (unmentioned inputs are unbiased, p = 0.5), then
/// [`run_compiled`](ProbabilityAnalysis::run_compiled) it over a compiled netlist.
#[derive(Debug, Clone)]
pub struct ProbabilityAnalysis<'lib> {
    tech: &'lib TechLibrary,
    input_probabilities: BTreeMap<NetId, f64>,
}

impl<'lib> ProbabilityAnalysis<'lib> {
    /// Creates an analysis where unmentioned inputs are unbiased (p = 0.5).
    pub fn new(tech: &'lib TechLibrary) -> Self {
        ProbabilityAnalysis {
            tech,
            input_probabilities: BTreeMap::new(),
        }
    }

    /// Sets the signal probabilities of primary input nets.
    pub fn with_input_probabilities(mut self, probabilities: BTreeMap<NetId, f64>) -> Self {
        self.input_probabilities = probabilities;
        self
    }

    /// Sets the signal probability of a single primary input net.
    pub fn input_probability(mut self, net: NetId, probability: f64) -> Self {
        self.input_probabilities.insert(net, probability);
        self
    }

    /// Runs the propagation over a compiled program: a single pass over the flat op
    /// array with the library resolved once into per-kind energy tables — no map
    /// lookups, no per-cell allocation and no graph traversal in the loop. Map keys
    /// that are not primary inputs are validated but ignored.
    ///
    /// # Errors
    ///
    /// Returns an error when the library does not cover a used cell kind or a
    /// probability is outside `[0, 1]`.
    pub fn run_compiled(&self, compiled: &CompiledNetlist) -> Result<PowerReport, PowerError> {
        let resolved = self.tech.resolve(compiled)?;
        for (net, probability) in &self.input_probabilities {
            check_probability(*net, *probability)?;
        }
        let mut probability = vec![DEFAULT_PROBABILITY; compiled.net_count()];
        for net in compiled.inputs() {
            if let Some(value) = self.input_probabilities.get(net) {
                probability[net.index()] = *value;
            }
        }
        let mut cell_energy = vec![0.0; compiled.cell_count()];
        let (total_energy, total_activity) =
            propagate_into(compiled, &resolved, &mut probability, &mut cell_energy);
        Ok(PowerReport {
            probability,
            cell_energy,
            total_energy,
            total_activity,
            voltage: self.tech.voltage(),
        })
    }
}

/// Validates one probability: it must lie in `[0, 1]`.
fn check_probability(net: NetId, probability: f64) -> Result<(), PowerError> {
    if !(0.0..=1.0).contains(&probability) || !probability.is_finite() {
        return Err(PowerError::InvalidProbability { net, probability });
    }
    Ok(())
}

/// The full probability/energy propagation over arrays whose primary-input entries
/// already hold their probabilities (every other net [`DEFAULT_PROBABILITY`]),
/// returning `(total_energy, total_activity)`.
///
/// Shared verbatim by [`ProbabilityAnalysis::run_compiled`] and the priming call of
/// [`IncrementalPower::rerun_delta`], which is what makes the primed [`DeltaState`]
/// arrays bit-identical to a fresh report.
fn propagate_into(
    compiled: &CompiledNetlist,
    resolved: &ResolvedTech,
    probability: &mut [f64],
    cell_energy: &mut [f64],
) -> (f64, f64) {
    for op in compiled.ops() {
        step_op(op, resolved, probability, cell_energy);
    }
    recompute_totals(compiled, probability, cell_energy)
}

/// Recomputes one cell: probabilities through `propagate_op`, the per-cell energy
/// as `weights[pin] * (p * (1 − p))` accumulated in pin order from the per-kind
/// weights. Returns the bitmask of output pins whose stored probability changed
/// bits — the early-termination signal of the delta path.
#[inline]
fn step_op(
    op: &CompiledOp,
    resolved: &ResolvedTech,
    probability: &mut [f64],
    cell_energy: &mut [f64],
) -> u8 {
    let mut inputs = [0.0f64; 3];
    for (slot, net) in op.input_nets().iter().enumerate() {
        inputs[slot] = probability[net.index()];
    }
    let outputs = propagate_op(op.kind, &inputs);
    let weights = &resolved.energy[op.kind.table_index()];
    let mut energy = 0.0;
    let mut changed = 0u8;
    for (pin, net) in op.output_nets().iter().enumerate() {
        let p = outputs[pin];
        if probability[net.index()].to_bits() != p.to_bits() {
            changed |= 1 << pin;
        }
        probability[net.index()] = p;
        let activity = p * (1.0 - p);
        energy += weights[pin] * activity;
    }
    cell_energy[op.cell.index()] = energy;
    changed
}

/// The two totals of the per-net probabilities and per-cell energies, in one fixed
/// accumulation **order**: per-pin activities stream into `total_activity` in
/// op-major pin order and per-cell energies into `total_energy` in op order, each
/// into its own accumulator. Every pass — full or delta — sums through here, so the
/// floating-point rounding sequence, and therefore every bit of both totals, is the
/// same whichever way the arrays were filled.
fn recompute_totals(
    compiled: &CompiledNetlist,
    probability: &[f64],
    cell_energy: &[f64],
) -> (f64, f64) {
    let mut total_energy = 0.0f64;
    let mut total_activity = 0.0f64;
    for op in compiled.ops() {
        for net in op.output_nets() {
            let p = probability[net.index()];
            total_activity += p * (1.0 - p);
        }
        total_energy += cell_energy[op.cell.index()];
    }
    (total_energy, total_activity)
}

/// Incremental probability propagation and power estimation over one compiled
/// program: the power-channel counterpart of `dpsyn_timing::IncrementalTiming`.
///
/// The library is resolved **once** per program at construction; the persistent
/// per-net/per-cell arrays live in a caller-owned [`DeltaState`]. Every view's
/// figures and report are **bit-identical** to a fresh
/// [`ProbabilityAnalysis::run_compiled`] under the same cumulative input profile
/// (see `recompute_totals` for why the aggregate figures keep their exact bits).
#[derive(Debug, Clone)]
pub struct IncrementalPower {
    resolved: ResolvedTech,
    voltage: f64,
}

impl IncrementalPower {
    /// Resolves the library against `compiled` once, for reuse across every delta.
    ///
    /// # Errors
    ///
    /// Returns an error when the library does not cover a cell kind of the program.
    pub fn new(tech: &TechLibrary, compiled: &CompiledNetlist) -> Result<Self, PowerError> {
        Ok(IncrementalPower {
            resolved: tech.resolve(compiled)?,
            voltage: tech.voltage(),
        })
    }

    /// Applies an input delta to the state's power channel and returns a view of
    /// the cumulative profile's figures, whose [`PowerView::to_report`] is
    /// bit-identical to a fresh [`ProbabilityAnalysis::run_compiled`] under it.
    /// The view copies nothing: the totals are stored in the state.
    ///
    /// * On a **fresh** state (never successfully run), this is the priming full
    ///   pass: every input is unbiased (p = 0.5) except those the delta assigns.
    /// * On a **primed** state, only the dirty cone is re-propagated, then (if any
    ///   cell was recomputed) the two aggregate figures are rebuilt in the fixed
    ///   accumulation order; a delta that touches nothing returns the stored
    ///   figures untouched.
    ///
    /// The delta is validated **before** any state is mutated, so a failed call
    /// leaves the state exactly as it was (a fresh state stays unprimed).
    /// Assignments to nets that are **not primary inputs** of the program
    /// (including unknown nets) are validated for value but otherwise ignored —
    /// exactly how [`ProbabilityAnalysis::run_compiled`] treats such profile map
    /// keys — so they can never corrupt the state.
    ///
    /// # Errors
    ///
    /// Returns an error when a delta probability is outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when `state` is bound (via [`DeltaState::new`],
    /// [`DeltaState::rebind`] or [`DeltaState::rebind_swapped`]) to a different
    /// program than `compiled`. The check compares
    /// [`ProgramId`](dpsyn_netlist::ProgramId)s, so it is stricter than structure:
    /// a second, `==` compile of the same netlist is a different program too.
    pub fn rerun_delta<'a>(
        &self,
        compiled: &CompiledNetlist,
        state: &'a mut DeltaState,
        delta: &InputDelta,
    ) -> Result<PowerView<'a>, PowerError> {
        for (net, probability) in delta.probabilities() {
            check_probability(*net, *probability)?;
        }
        assert_bound(compiled, state);
        // Split borrows: the drain closure mutates the value arrays while the
        // worklist advances.
        let DeltaState {
            power:
                PowerChannel {
                    probability,
                    cell_energy,
                    total_energy,
                    total_activity,
                    worklist,
                    primed,
                },
            input_mask,
            ..
        } = state;
        let inputs = delta
            .probabilities()
            .iter()
            .filter(|(net, _)| input_mask.get(net.index()).copied().unwrap_or(false));
        if *primed {
            for (net, new_probability) in inputs {
                if probability[net.index()].to_bits() != new_probability.to_bits() {
                    probability[net.index()] = *new_probability;
                    worklist.seed_readers(compiled, *net);
                }
            }
            let resolved = &self.resolved;
            let processed = worklist.drain(compiled, |op| {
                step_op(op, resolved, probability, cell_energy)
            });
            if processed > 0 {
                (*total_energy, *total_activity) =
                    recompute_totals(compiled, probability, cell_energy);
            }
        } else {
            worklist.reset();
            probability.clear();
            probability.resize(compiled.net_count(), DEFAULT_PROBABILITY);
            for (net, value) in inputs {
                probability[net.index()] = *value;
            }
            cell_energy.clear();
            cell_energy.resize(compiled.cell_count(), 0.0);
            (*total_energy, *total_activity) =
                propagate_into(compiled, &self.resolved, probability, cell_energy);
            *primed = true;
        }
        Ok(PowerView {
            channel: &state.power,
            voltage: self.voltage,
        })
    }

    /// The view of a primed state's power channel as its last
    /// [`rerun_delta`](Self::rerun_delta) left it. It reads the state and never
    /// analyses, so a caller holding a shared borrow of the state (an observer of
    /// a search) can still build a report.
    ///
    /// # Panics
    ///
    /// Panics when `state` is bound to a different program than `compiled` (as
    /// [`rerun_delta`](Self::rerun_delta) does) or its power channel was never
    /// primed.
    pub fn view<'a>(&self, compiled: &CompiledNetlist, state: &'a DeltaState) -> PowerView<'a> {
        assert_bound(compiled, state);
        assert!(state.power.primed, "a power view needs a primed DeltaState");
        PowerView {
            channel: &state.power,
            voltage: self.voltage,
        }
    }
}

/// The O(1) identity check of both power entry points on a [`DeltaState`].
fn assert_bound(compiled: &CompiledNetlist, state: &DeltaState) {
    assert_eq!(
        state.bound_program,
        compiled.program_id(),
        "the DeltaState is not bound to this exact program \
         (DeltaState::new / rebind / rebind_swapped)"
    );
}

/// The milliwatt-like power `energy · V² · f_norm` (normalised frequency 1): the
/// one power formula of reports, views and simulated energies.
pub fn power_mw(total_energy: f64, voltage: f64) -> f64 {
    total_energy * voltage * voltage
}

/// A borrowed view of a [`DeltaState`]'s power channel after
/// [`IncrementalPower::rerun_delta`]: the aggregate figures a caller reads per
/// rerun without copying the per-net probabilities or per-cell energies.
///
/// Every figure has the bits the [`PowerReport`] of a fresh
/// [`ProbabilityAnalysis::run_compiled`] under the same cumulative profile
/// reports, and [`Self::to_report`] builds that report.
#[derive(Debug, Clone, Copy)]
pub struct PowerView<'a> {
    channel: &'a PowerChannel,
    voltage: f64,
}

impl PowerView<'_> {
    /// The weighted total switching energy, as [`PowerReport::total_energy`].
    pub fn total_energy(&self) -> f64 {
        self.channel.total_energy
    }

    /// The unweighted total switching activity, as
    /// [`PowerReport::total_activity`].
    pub fn total_activity(&self) -> f64 {
        self.channel.total_activity
    }

    /// The milliwatt-like power figure, as [`PowerReport::power_mw`].
    pub fn power_mw(&self) -> f64 {
        power_mw(self.channel.total_energy, self.voltage)
    }

    /// Copies the view into the report a fresh
    /// [`ProbabilityAnalysis::run_compiled`] under the same cumulative profile
    /// returns.
    pub fn to_report(&self) -> PowerReport {
        PowerReport {
            probability: self.channel.probability.clone(),
            cell_energy: self.channel.cell_energy.clone(),
            total_energy: self.channel.total_energy,
            total_activity: self.channel.total_activity,
            voltage: self.voltage,
        }
    }
}

/// Allocation-free kernel of [`propagate_cell`]: input probabilities arrive in a
/// fixed-arity array (surplus slots 0 and ignored), outputs leave the same way.
#[inline]
fn propagate_op(kind: CellKind, inputs: &[f64; 3]) -> [f64; 2] {
    match kind {
        CellKind::Fa => {
            let (x, y, z) = (inputs[0], inputs[1], inputs[2]);
            [
                q_transform::fa_sum_p(x, y, z),
                q_transform::fa_carry_p(x, y, z),
            ]
        }
        CellKind::Ha => {
            let (x, y) = (inputs[0], inputs[1]);
            [x + y - 2.0 * x * y, x * y]
        }
        CellKind::And2 => [inputs[0] * inputs[1], 0.0],
        CellKind::And3 => [inputs[0] * inputs[1] * inputs[2], 0.0],
        CellKind::Or2 => [inputs[0] + inputs[1] - inputs[0] * inputs[1], 0.0],
        CellKind::Xor2 => [inputs[0] + inputs[1] - 2.0 * inputs[0] * inputs[1], 0.0],
        CellKind::Xor3 => {
            let xy = inputs[0] + inputs[1] - 2.0 * inputs[0] * inputs[1];
            [xy + inputs[2] - 2.0 * xy * inputs[2], 0.0]
        }
        CellKind::Not => [1.0 - inputs[0], 0.0],
        CellKind::Buf => [inputs[0], 0.0],
        CellKind::Mux2 => {
            let (a, b, sel) = (inputs[0], inputs[1], inputs[2]);
            [(1.0 - sel) * a + sel * b, 0.0]
        }
        CellKind::Const0 => [0.0, 0.0],
        CellKind::Const1 => [1.0, 0.0],
    }
}

/// The switching energy of a compiled program from **measured** per-net toggle
/// rates (`rates[net.index()]`, toggles per vector transition) instead of analytic
/// probabilities: the per-pin activity `p·(1 − p)` of the analytic model is
/// replaced by `rate / 2` (a toggle rate of `2·p·(1 − p)` is what independent
/// consecutive samples produce), folded with the same per-kind energy weights in
/// the same op-major pin order. [`power_mw`] turns it into the simulated
/// counterpart of the analytic milliwatt figure.
///
/// # Panics
///
/// Panics when `rates` is shorter than the program's net count.
pub fn simulated_energy(compiled: &CompiledNetlist, resolved: &ResolvedTech, rates: &[f64]) -> f64 {
    assert!(
        rates.len() >= compiled.net_count(),
        "toggle rates must cover every net of the program"
    );
    let mut total = 0.0f64;
    for op in compiled.ops() {
        let weights = &resolved.energy[op.kind.table_index()];
        for (pin, net) in op.output_nets().iter().enumerate() {
            total += weights[pin] * (rates[net.index()] / 2.0);
        }
    }
    total
}

/// The relative analytic-vs-simulated power divergence `(simulated − analytic) /
/// analytic` — positive when simulation sees **more** switching than the
/// independence model predicts. Returns 0 when the analytic figure is zero (a
/// constant netlist switches in neither model).
pub fn power_divergence(analytic: f64, simulated: f64) -> f64 {
    if analytic == 0.0 {
        0.0
    } else {
        (simulated - analytic) / analytic
    }
}

/// Exact output-probability propagation through one cell under the independence
/// assumption. Returns one probability per output pin.
///
/// # Panics
///
/// Panics when `inputs` does not match the cell's input count.
pub fn propagate_cell(kind: CellKind, inputs: &[f64]) -> Vec<f64> {
    assert_eq!(
        inputs.len(),
        kind.input_count(),
        "cell {kind:?} expects {} input probabilities",
        kind.input_count()
    );
    let mut padded = [0.0f64; 3];
    padded[..inputs.len()].copy_from_slice(inputs);
    propagate_op(kind, &padded)[..kind.output_count()].to_vec()
}

/// Result of a probability propagation: per-net probabilities, per-cell energies and the
/// aggregate switching-energy estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    probability: Vec<f64>,
    cell_energy: Vec<f64>,
    total_energy: f64,
    total_activity: f64,
    voltage: f64,
}

impl PowerReport {
    /// Signal probability of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to the analysed netlist.
    pub fn probability(&self, net: NetId) -> f64 {
        self.probability[net.index()]
    }

    /// Switching activity `p·(1 − p)` of a net.
    pub fn switching_activity(&self, net: NetId) -> f64 {
        let p = self.probability(net);
        p * (1.0 - p)
    }

    /// The weighted switching energy `Σ W·E` of the whole netlist — the paper's
    /// `E_switching(T)` generalised to all cells (library energy units per cycle).
    pub fn total_energy(&self) -> f64 {
        self.total_energy
    }

    /// The unweighted sum of switching activities over all cell outputs.
    pub fn total_activity(&self) -> f64 {
        self.total_activity
    }

    /// Energy attributed to one cell.
    pub fn cell_energy(&self, cell: dpsyn_netlist::CellId) -> f64 {
        self.cell_energy[cell.index()]
    }

    /// A power figure in milliwatt-like units: `energy · V² · f_norm`, following the
    /// standard CV²f form with a normalised frequency of 1. This is only meant to put
    /// numbers on the same scale as the paper's Table 2, which reports milliwatts.
    pub fn power_mw(&self) -> f64 {
        power_mw(self.total_energy, self.voltage)
    }

    /// All per-net probabilities, indexed by [`NetId::index`].
    pub fn probabilities(&self) -> &[f64] {
        &self.probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_netlist::Netlist;

    /// The stateless full pass over a freshly compiled `netlist`.
    fn run(
        analysis: ProbabilityAnalysis<'_>,
        netlist: &Netlist,
    ) -> Result<PowerReport, PowerError> {
        analysis.run_compiled(&netlist.compile().unwrap())
    }

    fn single_gate(kind: CellKind, probabilities: &[f64]) -> f64 {
        let mut netlist = Netlist::new("gate");
        let inputs: Vec<NetId> = (0..kind.input_count())
            .map(|index| netlist.add_input(format!("i{index}")))
            .collect();
        let out = netlist.add_gate(kind, &inputs).unwrap()[0];
        netlist.mark_output(out);
        let lib = TechLibrary::unit();
        let mut analysis = ProbabilityAnalysis::new(&lib);
        for (net, p) in inputs.iter().zip(probabilities.iter()) {
            analysis = analysis.input_probability(*net, *p);
        }
        run(analysis, &netlist).unwrap().probability(out)
    }

    /// Brute-force output probability of a cell over all input combinations weighted by
    /// the input probabilities (independence assumption).
    fn brute_force(kind: CellKind, probabilities: &[f64], output: usize) -> f64 {
        let n = kind.input_count();
        let mut total = 0.0;
        for assignment in 0..(1u32 << n) {
            let bits: Vec<bool> = (0..n).map(|bit| (assignment >> bit) & 1 == 1).collect();
            let weight: f64 = bits
                .iter()
                .zip(probabilities.iter())
                .map(|(bit, p)| if *bit { *p } else { 1.0 - p })
                .product();
            if kind.evaluate(&bits)[output] {
                total += weight;
            }
        }
        total
    }

    #[test]
    fn propagation_matches_brute_force_for_every_kind() {
        let probabilities = [0.3, 0.7, 0.45];
        for kind in CellKind::all() {
            let inputs = &probabilities[..kind.input_count()];
            let outputs = propagate_cell(kind, inputs);
            for (pin, computed) in outputs.iter().enumerate() {
                let expected = brute_force(kind, inputs, pin);
                assert!(
                    (computed - expected).abs() < 1e-12,
                    "{kind:?} output {pin}: {computed} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn and_gate_probability() {
        let p = single_gate(CellKind::And2, &[0.5, 0.5]);
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn xor_gate_probability() {
        let p = single_gate(CellKind::Xor2, &[0.3, 0.3]);
        assert!((p - (0.6 - 2.0 * 0.09)).abs() < 1e-12);
    }

    #[test]
    fn full_adder_probabilities_match_q_transform() {
        let (x, y, z) = (0.1, 0.2, 0.3);
        let outputs = propagate_cell(CellKind::Fa, &[x, y, z]);
        let qs = q_transform::fa_sum_q(x - 0.5, y - 0.5, z - 0.5);
        let qc = q_transform::fa_carry_q(x - 0.5, y - 0.5, z - 0.5);
        assert!((outputs[0] - (qs + 0.5)).abs() < 1e-12);
        assert!((outputs[1] - (qc + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn unspecified_inputs_are_unbiased() {
        let mut netlist = Netlist::new("or");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let y = netlist.add_gate(CellKind::Or2, &[a, b]).unwrap()[0];
        netlist.mark_output(y);
        let lib = TechLibrary::unit();
        let report = run(
            ProbabilityAnalysis::new(&lib).input_probability(a, 0.5),
            &netlist,
        )
        .unwrap();
        // `b` is unmentioned, so it is unbiased too: p(a ∨ b) = 1 − 0.5·0.5.
        assert_eq!(report.probability(b), 0.5);
        assert!((report.probability(y) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn energy_weights_follow_the_library() {
        // A single FA with unbiased inputs: E(sum) = 0.25, E(carry) = p_c(1-p_c) with
        // p_c = 0.5 -> 0.25. With Ws = Wc = 1 total energy is 0.5.
        let mut netlist = Netlist::new("fa");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let outs = netlist.add_gate(CellKind::Fa, &[a, b, c]).unwrap();
        netlist.mark_output(outs[0]);
        netlist.mark_output(outs[1]);
        let lib = TechLibrary::unit();
        let report = run(ProbabilityAnalysis::new(&lib), &netlist).unwrap();
        assert!((report.total_energy() - 0.5).abs() < 1e-12);
        assert!(report.power_mw() > report.total_energy());
        assert!((report.total_activity() - 0.5).abs() < 1e-12);
        assert!((report.switching_activity(outs[0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn first_rerun_delta_is_bit_identical_to_run_compiled() {
        let mut netlist = Netlist::new("mix");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let fa = netlist.add_gate(CellKind::Fa, &[a, b, c]).unwrap();
        let xor = netlist.add_gate(CellKind::Xor2, &[fa[0], fa[1]]).unwrap()[0];
        netlist.mark_output(xor);
        let compiled = netlist.compile().unwrap();
        for lib in [TechLibrary::unit(), TechLibrary::lcbg10pv_like()] {
            let fresh = ProbabilityAnalysis::new(&lib)
                .input_probability(a, 0.17)
                .input_probability(c, 0.93)
                .run_compiled(&compiled)
                .unwrap();
            let engine = IncrementalPower::new(&lib, &compiled).unwrap();
            let mut state = DeltaState::new(&compiled);
            let mut delta = InputDelta::new();
            delta.set_probability(a, 0.17);
            delta.set_probability(c, 0.93);
            let primed = engine.rerun_delta(&compiled, &mut state, &delta).unwrap();
            assert_eq!(
                primed.total_energy().to_bits(),
                fresh.total_energy().to_bits()
            );
            assert_eq!(
                primed.total_activity().to_bits(),
                fresh.total_activity().to_bits()
            );
            assert_eq!(primed.power_mw().to_bits(), fresh.power_mw().to_bits());
            assert_eq!(primed.to_report(), fresh);
            assert!(state.power.primed && !state.timing.primed);
            assert_eq!(engine.view(&compiled, &state).to_report(), fresh);
        }
    }

    #[test]
    fn run_compiled_reports_the_same_errors() {
        let mut netlist = Netlist::new("buf");
        let a = netlist.add_input("a");
        let y = netlist.add_gate(CellKind::Buf, &[a]).unwrap()[0];
        netlist.mark_output(y);
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::unit();
        let result = ProbabilityAnalysis::new(&lib)
            .input_probability(a, 2.0)
            .run_compiled(&compiled);
        assert!(matches!(result, Err(PowerError::InvalidProbability { .. })));
        let incomplete = TechLibrary::builder("incomplete").build().unwrap();
        let result = ProbabilityAnalysis::new(&incomplete).run_compiled(&compiled);
        assert!(matches!(result, Err(PowerError::Tech(_))));
    }

    #[test]
    fn incremental_matches_fresh_runs_across_deltas() {
        let mut netlist = Netlist::new("mix");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let fa = netlist.add_gate(CellKind::Fa, &[a, b, c]).unwrap();
        let xor = netlist.add_gate(CellKind::Xor2, &[fa[0], fa[1]]).unwrap()[0];
        let and = netlist.add_gate(CellKind::And2, &[xor, a]).unwrap()[0];
        netlist.mark_output(and);
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let engine = IncrementalPower::new(&lib, &compiled).unwrap();
        let mut state = DeltaState::new(&compiled);
        let mut oracle: BTreeMap<NetId, f64> = BTreeMap::new();
        oracle.insert(a, 0.17);
        let mut prime = InputDelta::new();
        prime.set_probability(a, 0.17);
        let primed = engine
            .rerun_delta(&compiled, &mut state, &prime)
            .unwrap()
            .to_report();
        assert_eq!(
            primed,
            ProbabilityAnalysis::new(&lib)
                .with_input_probabilities(oracle.clone())
                .run_compiled(&compiled)
                .unwrap()
        );
        for (net, value) in [
            (c, 0.93),
            (a, 0.17), // unchanged: must not disturb anything (early termination)
            (b, 0.0),
            (a, 0.5),
            (b, 1.0),
        ] {
            let mut delta = InputDelta::new();
            delta.set_probability(net, value);
            oracle.insert(net, value);
            let view = engine.rerun_delta(&compiled, &mut state, &delta).unwrap();
            let fresh = ProbabilityAnalysis::new(&lib)
                .with_input_probabilities(oracle.clone())
                .run_compiled(&compiled)
                .unwrap();
            assert_eq!(
                view.total_energy().to_bits(),
                fresh.total_energy().to_bits()
            );
            assert_eq!(
                view.total_activity().to_bits(),
                fresh.total_activity().to_bits()
            );
            assert_eq!(view.power_mw().to_bits(), fresh.power_mw().to_bits());
            assert_eq!(view.to_report(), fresh, "delta ({net}, {value})");
        }
    }

    #[test]
    fn delta_entries_for_non_input_nets_are_ignored_like_fresh_map_keys() {
        let mut netlist = Netlist::new("and");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let y = netlist.add_gate(CellKind::And2, &[a, b]).unwrap()[0];
        netlist.mark_output(y);
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::unit();
        let engine = IncrementalPower::new(&lib, &compiled).unwrap();
        let mut state = DeltaState::new(&compiled);
        engine
            .rerun_delta(&compiled, &mut state, &InputDelta::new())
            .unwrap();
        // `y` is a driven internal/output net and the foreign net's index is out of
        // range; the fresh path validates such map entries but never applies them.
        let mut delta = InputDelta::new();
        delta.set_probability(y, 0.9);
        let mut other = Netlist::new("other");
        let foreign = (0..16).map(|i| other.add_input(format!("x{i}"))).last();
        delta.set_probability(foreign.unwrap(), 0.1);
        delta.set_probability(a, 0.25);
        let incremental = engine
            .rerun_delta(&compiled, &mut state, &delta)
            .unwrap()
            .to_report();
        let mut oracle = BTreeMap::new();
        oracle.insert(y, 0.9);
        oracle.insert(a, 0.25);
        let fresh = ProbabilityAnalysis::new(&lib)
            .with_input_probabilities(oracle)
            .run_compiled(&compiled)
            .unwrap();
        assert_eq!(incremental, fresh);
    }

    #[test]
    #[should_panic(expected = "bound to this exact program")]
    fn rerun_delta_rejects_a_state_bound_to_another_program() {
        let mut netlist = Netlist::new("buf");
        let a = netlist.add_input("a");
        let y = netlist.add_gate(CellKind::Buf, &[a]).unwrap()[0];
        netlist.mark_output(y);
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::unit();
        let engine = IncrementalPower::new(&lib, &compiled).unwrap();
        let mut state = DeltaState::new(&compiled);
        engine
            .rerun_delta(&compiled, &mut state, &InputDelta::new())
            .unwrap();
        let mut other = Netlist::new("other");
        let oa = other.add_input("a");
        let oy = other.add_gate(CellKind::Not, &[oa]).unwrap()[0];
        other.mark_output(oy);
        let other_compiled = other.compile().unwrap();
        let _ = engine.rerun_delta(&other_compiled, &mut state, &InputDelta::new());
    }

    #[test]
    #[should_panic(expected = "bound to this exact program")]
    fn rerun_delta_rejects_a_state_bound_to_an_equal_recompile() {
        // Stricter than structure: a second compile of the same netlist is `==`
        // but a different program until the state is rebound to it.
        let mut netlist = Netlist::new("buf");
        let a = netlist.add_input("a");
        let y = netlist.add_gate(CellKind::Buf, &[a]).unwrap()[0];
        netlist.mark_output(y);
        let compiled = netlist.compile().unwrap();
        let recompiled = netlist.compile().unwrap();
        assert_eq!(compiled, recompiled);
        let lib = TechLibrary::unit();
        let engine = IncrementalPower::new(&lib, &compiled).unwrap();
        let mut state = DeltaState::new(&compiled);
        engine
            .rerun_delta(&compiled, &mut state, &InputDelta::new())
            .unwrap();
        let _ = engine.rerun_delta(&recompiled, &mut state, &InputDelta::new());
    }

    #[test]
    fn incremental_reports_the_same_errors_without_corrupting_state() {
        let mut netlist = Netlist::new("buf");
        let a = netlist.add_input("a");
        let y = netlist.add_gate(CellKind::Buf, &[a]).unwrap()[0];
        netlist.mark_output(y);
        let compiled = netlist.compile().unwrap();
        let incomplete = TechLibrary::builder("incomplete").build().unwrap();
        assert!(matches!(
            IncrementalPower::new(&incomplete, &compiled),
            Err(PowerError::Tech(_))
        ));
        let lib = TechLibrary::unit();
        let engine = IncrementalPower::new(&lib, &compiled).unwrap();
        let mut state = DeltaState::new(&compiled);
        let mut delta = InputDelta::new();
        delta.set_probability(a, 2.0);
        // A failed priming call leaves the fresh state unprimed.
        let result = engine.rerun_delta(&compiled, &mut state, &delta);
        assert!(matches!(
            result,
            Err(PowerError::InvalidProbability { net, .. }) if net == a
        ));
        assert!(!state.power.primed);
        let baseline = engine
            .rerun_delta(&compiled, &mut state, &InputDelta::new())
            .unwrap()
            .to_report();
        let result = engine.rerun_delta(&compiled, &mut state, &delta);
        assert!(matches!(result, Err(PowerError::InvalidProbability { .. })));
        let unchanged = engine
            .rerun_delta(&compiled, &mut state, &InputDelta::new())
            .unwrap()
            .to_report();
        assert_eq!(unchanged, baseline);
    }

    #[test]
    fn simulated_energy_folds_toggle_rates_like_the_analytic_pass() {
        // One FA: analytic activity p(1−p) per output vs measured rate/2. Feeding
        // rates of exactly 2·p·(1−p) must reproduce the analytic energy.
        let mut netlist = Netlist::new("fa");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let outs = netlist.add_gate(CellKind::Fa, &[a, b, c]).unwrap();
        netlist.mark_output(outs[0]);
        netlist.mark_output(outs[1]);
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let report = run(ProbabilityAnalysis::new(&lib), &netlist).unwrap();
        let resolved = lib.resolve(&compiled).unwrap();
        let mut rates = vec![0.0; compiled.net_count()];
        for net in [outs[0], outs[1]] {
            rates[net.index()] = 2.0 * report.switching_activity(net);
        }
        let simulated = simulated_energy(&compiled, &resolved, &rates);
        assert!(
            (simulated - report.total_energy()).abs() < 1e-12,
            "rate 2p(1-p) must reproduce the analytic energy: {simulated} vs {}",
            report.total_energy()
        );
        // Doubling every rate doubles the energy (linearity in the rates).
        for rate in &mut rates {
            *rate *= 2.0;
        }
        let doubled = simulated_energy(&compiled, &resolved, &rates);
        assert!((doubled - 2.0 * simulated).abs() < 1e-12);
    }

    #[test]
    fn power_divergence_is_a_signed_relative_gap() {
        assert_eq!(power_divergence(2.0, 2.0), 0.0);
        assert!((power_divergence(2.0, 2.3) - 0.15).abs() < 1e-12);
        assert!((power_divergence(2.0, 1.5) + 0.25).abs() < 1e-12);
        // A zero analytic figure (constant netlist) never divides by zero.
        assert_eq!(power_divergence(0.0, 0.0), 0.0);
        assert_eq!(power_divergence(0.0, 1.0), 0.0);
    }

    #[test]
    fn invalid_probability_is_rejected() {
        let mut netlist = Netlist::new("buf");
        let a = netlist.add_input("a");
        let y = netlist.add_gate(CellKind::Buf, &[a]).unwrap()[0];
        netlist.mark_output(y);
        let lib = TechLibrary::unit();
        let result = run(
            ProbabilityAnalysis::new(&lib).input_probability(a, 1.5),
            &netlist,
        );
        assert!(matches!(result, Err(PowerError::InvalidProbability { .. })));
        let result = run(
            ProbabilityAnalysis::new(&lib).input_probability(a, f64::NAN),
            &netlist,
        );
        assert!(matches!(result, Err(PowerError::InvalidProbability { .. })));
    }

    #[test]
    fn missing_library_entry_is_reported() {
        let mut netlist = Netlist::new("buf");
        let a = netlist.add_input("a");
        let y = netlist.add_gate(CellKind::Buf, &[a]).unwrap()[0];
        netlist.mark_output(y);
        let lib = TechLibrary::builder("incomplete").build().unwrap();
        let result = run(ProbabilityAnalysis::new(&lib), &netlist);
        assert!(matches!(result, Err(PowerError::Tech(_))));
    }

    #[test]
    fn constants_never_switch() {
        let mut netlist = Netlist::new("consts");
        let one = netlist.constant(true);
        let zero = netlist.constant(false);
        netlist.mark_output(one);
        netlist.mark_output(zero);
        let lib = TechLibrary::unit();
        let report = run(ProbabilityAnalysis::new(&lib), &netlist).unwrap();
        assert_eq!(report.switching_activity(one), 0.0);
        assert_eq!(report.switching_activity(zero), 0.0);
        assert_eq!(report.total_energy(), 0.0);
    }

    #[test]
    fn probabilities_stay_in_unit_interval_deep_netlist() {
        // A chain of alternating gates keeps probabilities legal at every level.
        let mut netlist = Netlist::new("deep");
        let mut current = netlist.add_input("a");
        let other = netlist.add_input("b");
        for level in 0..32 {
            let kind = match level % 4 {
                0 => CellKind::And2,
                1 => CellKind::Or2,
                2 => CellKind::Xor2,
                _ => CellKind::Ha,
            };
            let outs = netlist.add_gate(kind, &[current, other]).unwrap();
            current = outs[0];
        }
        netlist.mark_output(current);
        let lib = TechLibrary::unit();
        let analysis = ProbabilityAnalysis::new(&lib)
            .input_probability(netlist.inputs()[0], 0.9)
            .input_probability(netlist.inputs()[1], 0.05);
        let report = run(analysis, &netlist).unwrap();
        for p in report.probabilities() {
            assert!((0.0..=1.0).contains(p), "probability {p} escaped [0,1]");
        }
    }
}
