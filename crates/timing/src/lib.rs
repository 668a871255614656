//! Static timing analysis over bit-level netlists.
//!
//! Arrival times are propagated from primary inputs (whose arrival profile may be
//! non-uniform, the central premise of the DAC 2000 paper) through every cell using the
//! per-output pin-to-pin delays of a [`TechLibrary`]. The result is a [`TimingReport`]
//! with per-net arrival times, the critical delay and the critical path.
//!
//! The propagation is a **single pass over the shared compiled program**
//! ([`CompiledNetlist`]) with the library resolved once into per-kind delay tables.
//! Callers compile a netlist once and hand the program to every analysis (timing,
//! power, simulation), so it is levelized exactly once.
//!
//! The analysis has two entry points:
//!
//! * [`TimingAnalysis::run_compiled`] — the stateless full pass;
//! * [`IncrementalTiming::rerun_delta`] — the stateful pass over a caller-owned
//!   [`DeltaState`]: its first call on a fresh state is the full pass under the
//!   defaults plus the delta's entries, and every later call re-propagates only the
//!   dirty cone. Both produce bit-identical reports for the same profile.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use dpsyn_netlist::{CellKind, Netlist};
//! use dpsyn_tech::TechLibrary;
//! use dpsyn_timing::TimingAnalysis;
//! use std::collections::BTreeMap;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let mut netlist = Netlist::new("fa");
//! let a = netlist.add_input("a");
//! let b = netlist.add_input("b");
//! let c = netlist.add_input("c");
//! let outs = netlist.add_gate(CellKind::Fa, &[a, b, c])?;
//! netlist.mark_output(outs[0]);
//! netlist.mark_output(outs[1]);
//! let compiled = netlist.compile()?;
//!
//! let mut arrivals = BTreeMap::new();
//! arrivals.insert(a, 3.0);
//! let report = TimingAnalysis::new(&TechLibrary::unit())
//!     .with_input_arrivals(arrivals)
//!     .run_compiled(&compiled)?;
//! // sum arrives at max(3,0,0) + Ds = 5, carry at +Dc = 4
//! assert_eq!(report.arrival(outs[0]), 5.0);
//! assert_eq!(report.arrival(outs[1]), 4.0);
//! assert_eq!(report.critical_delay(), 5.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpsyn_netlist::{CompiledNetlist, CompiledOp, DeltaState, InputDelta, NetId};
use dpsyn_tech::{ResolvedTech, TechError, TechLibrary};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors produced by static timing analysis.
#[derive(Debug)]
pub enum TimingError {
    /// The technology library does not cover a cell kind used by the netlist.
    Tech(TechError),
    /// An input arrival time is negative or not finite.
    InvalidArrival {
        /// The offending net.
        net: NetId,
        /// The offending value.
        arrival: f64,
    },
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::Tech(error) => write!(f, "incomplete technology library: {error}"),
            TimingError::InvalidArrival { net, arrival } => {
                write!(
                    f,
                    "arrival time {arrival} of net {net} is negative or not finite"
                )
            }
        }
    }
}

impl Error for TimingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TimingError::Tech(error) => Some(error),
            TimingError::InvalidArrival { .. } => None,
        }
    }
}

impl From<TechError> for TimingError {
    fn from(error: TechError) -> Self {
        TimingError::Tech(error)
    }
}

/// Configurable static timing analysis.
///
/// Construct with a technology library, optionally provide per-net input arrival times,
/// then [`run_compiled`](TimingAnalysis::run_compiled) it over a compiled netlist.
#[derive(Debug, Clone)]
pub struct TimingAnalysis<'lib> {
    tech: &'lib TechLibrary,
    input_arrivals: BTreeMap<NetId, f64>,
}

impl<'lib> TimingAnalysis<'lib> {
    /// Creates an analysis with all primary inputs arriving at time zero.
    pub fn new(tech: &'lib TechLibrary) -> Self {
        TimingAnalysis {
            tech,
            input_arrivals: BTreeMap::new(),
        }
    }

    /// Sets the arrival times of primary input nets; inputs not mentioned arrive at 0.
    pub fn with_input_arrivals(mut self, arrivals: BTreeMap<NetId, f64>) -> Self {
        self.input_arrivals = arrivals;
        self
    }

    /// Sets the arrival time of a single primary input net.
    pub fn input_arrival(mut self, net: NetId, arrival: f64) -> Self {
        self.input_arrivals.insert(net, arrival);
        self
    }

    /// Runs the analysis over a compiled program: a single pass over the flat op
    /// array with the library resolved once into per-kind delay tables — no map
    /// lookups and no graph traversal in the loop. Inputs without an arrival time
    /// arrive at 0; map keys that are not primary inputs are validated but ignored.
    ///
    /// # Errors
    ///
    /// Returns an error when the library does not cover a used cell kind or an input
    /// arrival is negative / non-finite.
    pub fn run_compiled(&self, compiled: &CompiledNetlist) -> Result<TimingReport, TimingError> {
        let resolved = self.tech.resolve(compiled)?;
        for (net, arrival) in &self.input_arrivals {
            check_arrival(*net, *arrival)?;
        }
        let mut arrival = vec![0.0; compiled.net_count()];
        for net in compiled.inputs() {
            if let Some(value) = self.input_arrivals.get(net) {
                arrival[net.index()] = *value;
            }
        }
        let mut worst_predecessor = vec![None; compiled.net_count()];
        propagate_into(compiled, &resolved, &mut arrival, &mut worst_predecessor);
        Ok(report(compiled, arrival, &worst_predecessor))
    }
}

/// Validates one arrival value: it must be finite and non-negative.
fn check_arrival(net: NetId, arrival: f64) -> Result<(), TimingError> {
    if !arrival.is_finite() || arrival < 0.0 {
        return Err(TimingError::InvalidArrival { net, arrival });
    }
    Ok(())
}

/// The full arrival propagation over arrays whose primary-input entries already
/// hold their arrival times (every other net 0, every link `None`).
///
/// Shared verbatim by [`TimingAnalysis::run_compiled`] and the priming call of
/// [`IncrementalTiming::rerun_delta`], which is what makes the primed [`DeltaState`]
/// arrays bit-identical to a fresh report.
fn propagate_into(
    compiled: &CompiledNetlist,
    resolved: &ResolvedTech,
    arrival: &mut [f64],
    worst_predecessor: &mut [Option<NetId>],
) {
    for op in compiled.ops() {
        step_op(op, resolved, arrival, worst_predecessor);
    }
}

/// Recomputes one cell: the latest input (keeping the *last* maximum on ties exactly
/// like the former `Iterator::max_by(total_cmp)` fold did) plus the per-kind output
/// delays. Returns the bitmask of output pins whose stored arrival changed bits —
/// the early-termination signal of the delta path.
#[inline]
fn step_op(
    op: &CompiledOp,
    resolved: &ResolvedTech,
    arrival: &mut [f64],
    worst_predecessor: &mut [Option<NetId>],
) -> u8 {
    let mut worst_input = None;
    let mut input_arrival = 0.0f64;
    for (pin, net) in op.input_nets().iter().enumerate() {
        let candidate = arrival[net.index()];
        if pin == 0 || input_arrival.total_cmp(&candidate) != Ordering::Greater {
            worst_input = Some(*net);
            input_arrival = candidate;
        }
    }
    let delays = &resolved.delay[op.kind.table_index()];
    let mut changed = 0u8;
    for (pin, net) in op.output_nets().iter().enumerate() {
        let next = input_arrival + delays[pin];
        if arrival[net.index()].to_bits() != next.to_bits() {
            changed |= 1 << pin;
        }
        arrival[net.index()] = next;
        worst_predecessor[net.index()] = worst_input;
    }
    changed
}

/// Builds the report from the (possibly delta-updated) arrays: the critical output
/// is the latest primary output and the critical path follows the worst links back.
fn report(
    compiled: &CompiledNetlist,
    arrival: Vec<f64>,
    worst_predecessor: &[Option<NetId>],
) -> TimingReport {
    let critical_output = compiled
        .outputs()
        .iter()
        .copied()
        .max_by(|a, b| arrival[a.index()].total_cmp(&arrival[b.index()]));
    let critical_path = critical_output
        .map(|output| {
            let mut path = vec![output];
            let mut current = output;
            while let Some(previous) = worst_predecessor[current.index()] {
                path.push(previous);
                current = previous;
            }
            path.reverse();
            path
        })
        .unwrap_or_default();
    TimingReport {
        arrival,
        critical_output,
        critical_path,
    }
}

/// Incremental static timing analysis over one compiled program.
///
/// The library is resolved **once** per program at construction and reused across
/// every delta; the persistent per-net arrays live in a [`DeltaState`] owned by the
/// caller, so one state can absorb an arbitrary sequence of input-profile deltas
/// (and, via [`DeltaState::rebind`], local rewires) at dirty-cone cost.
///
/// Every report is **bit-identical** to what a fresh
/// [`TimingAnalysis::run_compiled`] with the same cumulative input profile would
/// produce: a dirty cell always rewrites all of its outputs, propagation stops only
/// where a recomputed arrival is bit-identical to the stored one, and downstream
/// values are pure functions of bit-identical inputs.
///
/// # Example
///
/// ```
/// use dpsyn_netlist::{CellKind, DeltaState, InputDelta, Netlist};
/// use dpsyn_tech::TechLibrary;
/// use dpsyn_timing::{IncrementalTiming, TimingAnalysis};
///
/// let mut netlist = Netlist::new("chain");
/// let a = netlist.add_input("a");
/// let b = netlist.add_input("b");
/// let y = netlist.add_gate(CellKind::Xor2, &[a, b]).unwrap()[0];
/// netlist.mark_output(y);
/// let compiled = netlist.compile().unwrap();
/// let lib = TechLibrary::unit();
///
/// let engine = IncrementalTiming::new(&lib, &compiled).unwrap();
/// let mut state = DeltaState::new(&compiled);
/// // The first call primes the state with a full pass (every input at 0).
/// engine.rerun_delta(&compiled, &mut state, &InputDelta::new()).unwrap();
///
/// let mut delta = InputDelta::new();
/// delta.set_arrival(a, 2.5);
/// let report = engine.rerun_delta(&compiled, &mut state, &delta).unwrap();
/// // Bit-identical to a fresh full pass with the same cumulative profile.
/// let fresh = TimingAnalysis::new(&lib)
///     .input_arrival(a, 2.5)
///     .run_compiled(&compiled)
///     .unwrap();
/// assert_eq!(report, fresh);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalTiming {
    resolved: ResolvedTech,
}

impl IncrementalTiming {
    /// Resolves the library against `compiled` once, for reuse across every delta.
    ///
    /// # Errors
    ///
    /// Returns an error when the library does not cover a cell kind of the program.
    pub fn new(tech: &TechLibrary, compiled: &CompiledNetlist) -> Result<Self, TimingError> {
        Ok(IncrementalTiming {
            resolved: tech.resolve(compiled)?,
        })
    }

    /// Applies an input delta to the state's timing channel and returns the report
    /// of the cumulative profile, bit-identical to a fresh
    /// [`TimingAnalysis::run_compiled`] under it.
    ///
    /// * On a **fresh** state (never successfully run), this is the priming full
    ///   pass: every input arrives at 0 except those the delta assigns.
    /// * On a **primed** state, only the dirty cone is re-propagated: readers of
    ///   inputs whose value actually changed (bit comparison) — plus any cells
    ///   [`DeltaState::rebind`] or [`DeltaState::rebind_swapped`] seeded — are
    ///   advanced level by level over the fanout CSR, and each branch stops as soon
    ///   as a recomputed arrival is bit-identical to the stored one.
    ///
    /// The delta is validated **before** any state is mutated, so a failed call
    /// leaves the state exactly as it was (a fresh state stays unprimed).
    /// Assignments to nets that are **not primary inputs** of the program
    /// (including unknown nets) are validated for value but otherwise ignored —
    /// exactly how [`TimingAnalysis::run_compiled`] treats such profile map keys —
    /// so they can never corrupt the state.
    ///
    /// # Errors
    ///
    /// Returns an error when a delta arrival is negative or not finite.
    ///
    /// # Panics
    ///
    /// Panics when `state` is bound (via [`DeltaState::new`] /
    /// [`DeltaState::rebind`]) to a different program than `compiled`
    /// (structural-hash check).
    pub fn rerun_delta(
        &self,
        compiled: &CompiledNetlist,
        state: &mut DeltaState,
        delta: &InputDelta,
    ) -> Result<TimingReport, TimingError> {
        for (net, arrival) in delta.arrivals() {
            check_arrival(*net, *arrival)?;
        }
        assert_eq!(
            state.bound_hash,
            compiled.structural_hash(),
            "rerun_delta requires a DeltaState bound to this exact program \
             (DeltaState::new / rebind)"
        );
        // Split borrows: the drain closure mutates the value arrays while the
        // worklist advances.
        let DeltaState {
            timing:
                dpsyn_netlist::TimingChannel {
                    arrival,
                    worst_predecessor,
                    worklist,
                    primed,
                },
            input_mask,
            ..
        } = state;
        let inputs = delta
            .arrivals()
            .iter()
            .filter(|(net, _)| input_mask.get(net.index()).copied().unwrap_or(false));
        if *primed {
            for (net, new_arrival) in inputs {
                if arrival[net.index()].to_bits() != new_arrival.to_bits() {
                    arrival[net.index()] = *new_arrival;
                    worklist.seed_readers(compiled, *net);
                }
            }
            let resolved = &self.resolved;
            worklist.drain(compiled, |op| {
                step_op(op, resolved, arrival, worst_predecessor)
            });
        } else {
            worklist.reset();
            arrival.clear();
            arrival.resize(compiled.net_count(), 0.0);
            worst_predecessor.clear();
            worst_predecessor.resize(compiled.net_count(), None);
            for (net, value) in inputs {
                arrival[net.index()] = *value;
            }
            propagate_into(compiled, &self.resolved, arrival, worst_predecessor);
            *primed = true;
        }
        Ok(report(compiled, arrival.clone(), worst_predecessor))
    }
}

/// The result of a static timing analysis: per-net arrival times and the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    arrival: Vec<f64>,
    critical_output: Option<NetId>,
    critical_path: Vec<NetId>,
}

impl TimingReport {
    /// Arrival time of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to the analysed netlist.
    pub fn arrival(&self, net: NetId) -> f64 {
        self.arrival[net.index()]
    }

    /// Latest arrival time over a set of nets (0.0 for an empty set).
    pub fn max_arrival<I: IntoIterator<Item = NetId>>(&self, nets: I) -> f64 {
        nets.into_iter()
            .map(|net| self.arrival(net))
            .fold(0.0, f64::max)
    }

    /// The critical delay: latest arrival time over all primary outputs.
    pub fn critical_delay(&self) -> f64 {
        self.critical_output
            .map(|net| self.arrival(net))
            .unwrap_or(0.0)
    }

    /// The primary output with the latest arrival, if the netlist has outputs.
    pub fn critical_output(&self) -> Option<NetId> {
        self.critical_output
    }

    /// The nets on the critical path, from a primary input (or constant) to the
    /// critical output.
    pub fn critical_path(&self) -> &[NetId] {
        &self.critical_path
    }

    /// Slack against a required time: `required − critical_delay`.
    ///
    /// # Example
    /// ```
    /// # use dpsyn_netlist::{CellKind, Netlist};
    /// # use dpsyn_tech::TechLibrary;
    /// # use dpsyn_timing::TimingAnalysis;
    /// # let mut netlist = Netlist::new("t");
    /// # let a = netlist.add_input("a");
    /// # let b = netlist.add_input("b");
    /// # let y = netlist.add_gate(CellKind::Xor2, &[a, b]).unwrap()[0];
    /// # netlist.mark_output(y);
    /// # let compiled = netlist.compile().unwrap();
    /// let report = TimingAnalysis::new(&TechLibrary::unit())
    ///     .run_compiled(&compiled)
    ///     .unwrap();
    /// assert_eq!(report.slack(2.5), 1.5);
    /// ```
    pub fn slack(&self, required: f64) -> f64 {
        required - self.critical_delay()
    }

    /// All per-net arrival times, indexed by [`NetId::index`].
    pub fn arrivals(&self) -> &[f64] {
        &self.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_netlist::{CellKind, Netlist};

    fn chain_netlist() -> (Netlist, Vec<NetId>) {
        // a -> NOT -> XOR(b) -> FA(c, const1) chain to exercise multi-level paths.
        let mut netlist = Netlist::new("chain");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let inverted = netlist.add_gate(CellKind::Not, &[a]).unwrap()[0];
        let xored = netlist.add_gate(CellKind::Xor2, &[inverted, b]).unwrap()[0];
        let one = netlist.constant(true);
        let fa = netlist.add_gate(CellKind::Fa, &[xored, c, one]).unwrap();
        netlist.mark_output(fa[0]);
        netlist.mark_output(fa[1]);
        (netlist, vec![a, b, c, fa[0], fa[1]])
    }

    /// The stateless full pass over a freshly compiled `netlist`.
    fn run(analysis: TimingAnalysis<'_>, netlist: &Netlist) -> Result<TimingReport, TimingError> {
        analysis.run_compiled(&netlist.compile().unwrap())
    }

    #[test]
    fn zero_arrival_defaults() {
        let (netlist, nets) = chain_netlist();
        let lib = TechLibrary::unit();
        let report = run(TimingAnalysis::new(&lib), &netlist).unwrap();
        // not: 0, xor2: +1, fa sum: +2 => 3; carry => 2.
        assert_eq!(report.arrival(nets[3]), 3.0);
        assert_eq!(report.arrival(nets[4]), 2.0);
        assert_eq!(report.critical_delay(), 3.0);
        assert_eq!(report.critical_output(), Some(nets[3]));
    }

    #[test]
    fn uneven_arrivals_shift_the_critical_path() {
        let (netlist, nets) = chain_netlist();
        let lib = TechLibrary::unit();
        let report = run(
            TimingAnalysis::new(&lib).input_arrival(nets[2], 10.0),
            &netlist,
        )
        .unwrap();
        // c arrives at 10, so the FA sum arrives at 12.
        assert_eq!(report.arrival(nets[3]), 12.0);
        assert_eq!(report.critical_delay(), 12.0);
        // The critical path now starts at c.
        assert_eq!(report.critical_path().first(), Some(&nets[2]));
        assert_eq!(report.critical_path().last(), Some(&nets[3]));
    }

    #[test]
    fn critical_path_is_connected() {
        let (netlist, _) = chain_netlist();
        let lib = TechLibrary::lcbg10pv_like();
        let report = run(TimingAnalysis::new(&lib), &netlist).unwrap();
        let path = report.critical_path();
        assert!(path.len() >= 2);
        // Arrival times along the path are non-decreasing.
        for window in path.windows(2) {
            assert!(report.arrival(window[0]) <= report.arrival(window[1]) + 1e-12);
        }
    }

    #[test]
    fn max_arrival_over_set() {
        let (netlist, nets) = chain_netlist();
        let lib = TechLibrary::unit();
        let report = run(TimingAnalysis::new(&lib), &netlist).unwrap();
        assert_eq!(report.max_arrival([nets[3], nets[4]]), 3.0);
        assert_eq!(report.max_arrival(Vec::new()), 0.0);
    }

    #[test]
    fn invalid_arrival_is_rejected() {
        let (netlist, nets) = chain_netlist();
        let lib = TechLibrary::unit();
        let result = run(
            TimingAnalysis::new(&lib).input_arrival(nets[0], -1.0),
            &netlist,
        );
        assert!(matches!(result, Err(TimingError::InvalidArrival { .. })));
        let result = run(
            TimingAnalysis::new(&lib).input_arrival(nets[0], f64::NAN),
            &netlist,
        );
        assert!(matches!(result, Err(TimingError::InvalidArrival { .. })));
    }

    #[test]
    fn missing_library_entry_is_reported() {
        let (netlist, _) = chain_netlist();
        let lib = TechLibrary::builder("incomplete").build().unwrap();
        let result = run(TimingAnalysis::new(&lib), &netlist);
        assert!(matches!(result, Err(TimingError::Tech(_))));
    }

    #[test]
    fn invalid_netlist_is_reported() {
        let mut netlist = Netlist::new("floating");
        let a = netlist.add_input("a");
        let floating = netlist.add_net("floating");
        let y = netlist.add_gate(CellKind::And2, &[a, floating]).unwrap()[0];
        netlist.mark_output(y);
        // STA itself only needs a topological order; the floating net simply arrives at
        // time zero, mirroring how downstream tools treat unconstrained inputs.
        let lib = TechLibrary::unit();
        let report = run(TimingAnalysis::new(&lib), &netlist).unwrap();
        assert_eq!(report.critical_delay(), 0.0);
    }

    #[test]
    fn first_rerun_delta_is_bit_identical_to_run_compiled() {
        let (netlist, nets) = chain_netlist();
        let compiled = netlist.compile().unwrap();
        for lib in [TechLibrary::unit(), TechLibrary::lcbg10pv_like()] {
            let fresh = TimingAnalysis::new(&lib)
                .input_arrival(nets[0], 1.25)
                .input_arrival(nets[2], 0.5)
                .run_compiled(&compiled)
                .unwrap();
            let engine = IncrementalTiming::new(&lib, &compiled).unwrap();
            let mut state = DeltaState::new(&compiled);
            let mut delta = InputDelta::new();
            delta.set_arrival(nets[0], 1.25);
            delta.set_arrival(nets[2], 0.5);
            let primed = engine.rerun_delta(&compiled, &mut state, &delta).unwrap();
            assert_eq!(primed, fresh);
            assert!(state.timing.primed && !state.power.primed);
        }
    }

    #[test]
    fn run_compiled_reports_the_same_errors() {
        let (netlist, nets) = chain_netlist();
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::unit();
        let result = TimingAnalysis::new(&lib)
            .input_arrival(nets[0], f64::NAN)
            .run_compiled(&compiled);
        assert!(matches!(result, Err(TimingError::InvalidArrival { .. })));
        let incomplete = TechLibrary::builder("incomplete").build().unwrap();
        let result = TimingAnalysis::new(&incomplete).run_compiled(&compiled);
        assert!(matches!(result, Err(TimingError::Tech(_))));
    }

    #[test]
    fn empty_netlist_has_zero_delay() {
        let netlist = Netlist::new("empty");
        let lib = TechLibrary::unit();
        let report = run(TimingAnalysis::new(&lib), &netlist).unwrap();
        assert_eq!(report.critical_delay(), 0.0);
        assert!(report.critical_output().is_none());
        assert!(report.critical_path().is_empty());
    }

    #[test]
    fn incremental_matches_fresh_runs_across_deltas() {
        let (netlist, nets) = chain_netlist();
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let engine = IncrementalTiming::new(&lib, &compiled).unwrap();
        let mut state = DeltaState::new(&compiled);
        let mut oracle: BTreeMap<NetId, f64> = BTreeMap::new();
        let primed = engine
            .rerun_delta(&compiled, &mut state, &InputDelta::new())
            .unwrap();
        assert_eq!(
            primed,
            TimingAnalysis::new(&lib).run_compiled(&compiled).unwrap()
        );
        // A sequence of deltas, including no-op assignments (early termination).
        for (net, value) in [
            (nets[2], 10.0),
            (nets[0], 1.5),
            (nets[2], 10.0), // unchanged: must not disturb anything
            (nets[2], 0.25),
            (nets[1], 0.0), // explicit default
        ] {
            let mut delta = InputDelta::new();
            delta.set_arrival(net, value);
            oracle.insert(net, value);
            let incremental = engine.rerun_delta(&compiled, &mut state, &delta).unwrap();
            let fresh = TimingAnalysis::new(&lib)
                .with_input_arrivals(oracle.clone())
                .run_compiled(&compiled)
                .unwrap();
            assert_eq!(incremental, fresh, "delta ({net}, {value})");
            for (a, b) in incremental.arrivals().iter().zip(fresh.arrivals()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn delta_entries_for_non_input_nets_are_ignored_like_fresh_map_keys() {
        let (netlist, nets) = chain_netlist();
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::unit();
        let engine = IncrementalTiming::new(&lib, &compiled).unwrap();
        let mut state = DeltaState::new(&compiled);
        engine
            .rerun_delta(&compiled, &mut state, &InputDelta::new())
            .unwrap();
        // nets[3] is the FA sum — an internal/output net, not a primary input; the
        // unknown NetId is out of range entirely. The fresh path validates such map
        // entries but never applies them; the delta path must behave identically
        // (no state corruption, no panic).
        let mut delta = InputDelta::new();
        delta.set_arrival(nets[3], 9.0);
        let mut other = dpsyn_netlist::Netlist::new("other");
        let foreign = (0..16).map(|i| other.add_input(format!("x{i}"))).last();
        delta.set_arrival(foreign.unwrap(), 4.0); // index beyond this program's nets
        delta.set_arrival(nets[0], 2.0);
        let incremental = engine.rerun_delta(&compiled, &mut state, &delta).unwrap();
        let mut oracle = BTreeMap::new();
        oracle.insert(nets[3], 9.0);
        oracle.insert(nets[0], 2.0);
        let fresh = TimingAnalysis::new(&lib)
            .with_input_arrivals(oracle)
            .run_compiled(&compiled)
            .unwrap();
        assert_eq!(incremental, fresh);
    }

    #[test]
    #[should_panic(expected = "bound to this exact program")]
    fn rerun_delta_rejects_a_state_bound_to_another_program() {
        let (netlist, _) = chain_netlist();
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::unit();
        let engine = IncrementalTiming::new(&lib, &compiled).unwrap();
        let mut state = DeltaState::new(&compiled);
        engine
            .rerun_delta(&compiled, &mut state, &InputDelta::new())
            .unwrap();
        // A different netlist (even a same-sized one) must be rejected outright.
        let (mut other, _) = chain_netlist();
        let (a, b) = (other.inputs()[0], other.inputs()[1]);
        other.add_gate(CellKind::And2, &[a, b]).unwrap();
        let other_compiled = other.compile().unwrap();
        let _ = engine.rerun_delta(&other_compiled, &mut state, &InputDelta::new());
    }

    #[test]
    fn incremental_reports_the_same_errors_without_corrupting_state() {
        let (netlist, nets) = chain_netlist();
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::unit();
        let incomplete = TechLibrary::builder("incomplete").build().unwrap();
        assert!(matches!(
            IncrementalTiming::new(&incomplete, &compiled),
            Err(TimingError::Tech(_))
        ));
        let engine = IncrementalTiming::new(&lib, &compiled).unwrap();
        let mut state = DeltaState::new(&compiled);
        let mut delta = InputDelta::new();
        delta.set_arrival(nets[0], f64::NAN);
        // A failed priming call leaves the fresh state unprimed.
        let result = engine.rerun_delta(&compiled, &mut state, &delta);
        assert!(matches!(result, Err(TimingError::InvalidArrival { .. })));
        assert!(!state.timing.primed);
        let baseline = engine
            .rerun_delta(&compiled, &mut state, &InputDelta::new())
            .unwrap();
        let result = engine.rerun_delta(&compiled, &mut state, &delta);
        assert!(matches!(result, Err(TimingError::InvalidArrival { .. })));
        // The failed delta must not have touched the state: an empty rerun still
        // reproduces the baseline bit for bit.
        let unchanged = engine
            .rerun_delta(&compiled, &mut state, &InputDelta::new())
            .unwrap();
        assert_eq!(unchanged, baseline);
    }

    #[test]
    fn error_display_and_source() {
        let (netlist, nets) = chain_netlist();
        let lib = TechLibrary::unit();
        let error = run(
            TimingAnalysis::new(&lib).input_arrival(nets[0], -2.0),
            &netlist,
        )
        .unwrap_err();
        assert!(error.to_string().contains("-2"));
        assert!(Error::source(&error).is_none());
        let lib = TechLibrary::builder("incomplete").build().unwrap();
        let error = run(TimingAnalysis::new(&lib), &netlist).unwrap_err();
        assert!(Error::source(&error).is_some());
    }
}
