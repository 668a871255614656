//! Technology libraries: per-cell delays, areas and switching-energy weights.
//!
//! The DAC 2000 paper characterises a full adder by two internal delay parameters
//! `Ds` (inputs → sum) and `Dc` (inputs → carry-out), an area, and two switching-energy
//! weights `Ws` and `Wc` (energy per output transition of the sum and carry-out).
//! This crate generalises that to every [`CellKind`] of the netlist crate and bundles
//! the values into a [`TechLibrary`].
//!
//! Two built-in libraries are provided:
//!
//! * [`TechLibrary::unit`] — the didactic model used in the paper's worked examples
//!   (Figure 2 uses `Ds = 2`, `Dc = 1`; Figure 4 uses `Ws = Wc = 1`).
//! * [`TechLibrary::lcbg10pv_like`] — a calibrated approximation of the LSI Logic
//!   `lcbg10pv` 0.35 µm library the paper used, with delays in nanoseconds, areas in
//!   equivalent-gate units and energies in picojoules per transition.
//!
//! # Example
//!
//! ```
//! use dpsyn_netlist::CellKind;
//! use dpsyn_tech::TechLibrary;
//!
//! let lib = TechLibrary::unit();
//! assert_eq!(lib.output_delay(CellKind::Fa, 0), 2.0); // Ds
//! assert_eq!(lib.output_delay(CellKind::Fa, 1), 1.0); // Dc
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpsyn_netlist::{CellKind, CompiledNetlist, StructuralHasher};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Per-kind parameter tables resolved once from a [`TechLibrary`] for one compiled
/// netlist — the "tech parameters resolved once" half of the compiled-analysis layer.
///
/// Analyses index these dense arrays by [`CellKind::table_index`] in their inner
/// loops instead of querying the library's map per cell. Only the kinds actually
/// present in the compiled program are filled in; surplus rows stay zero and are
/// never read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedTech {
    /// `output_delays` per kind (one entry per output pin; surplus pins 0).
    pub delay: [[f64; 2]; CellKind::COUNT],
    /// `switch_energy` per kind (one entry per output pin; surplus pins 0).
    pub energy: [[f64; 2]; CellKind::COUNT],
    /// Cell area per kind.
    pub area: [f64; CellKind::COUNT],
}

/// Timing, area and power characteristics of one cell kind.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCharacteristics {
    /// Worst-case pin-to-pin delay to each output pin, in library time units.
    pub output_delays: Vec<f64>,
    /// Cell area in library area units.
    pub area: f64,
    /// Energy per output transition of each output pin, in library energy units
    /// (for a full adder these are the paper's `Ws` and `Wc`).
    pub switch_energy: Vec<f64>,
}

impl CellCharacteristics {
    /// Creates characteristics for a single-output cell.
    pub fn single(delay: f64, area: f64, energy: f64) -> Self {
        CellCharacteristics {
            output_delays: vec![delay],
            area,
            switch_energy: vec![energy],
        }
    }

    /// Creates characteristics for a two-output adder cell (sum, carry).
    pub fn adder(sum_delay: f64, carry_delay: f64, area: f64, ws: f64, wc: f64) -> Self {
        CellCharacteristics {
            output_delays: vec![sum_delay, carry_delay],
            area,
            switch_energy: vec![ws, wc],
        }
    }
}

/// Errors produced while building or querying a technology library.
#[derive(Debug, Clone, PartialEq)]
pub enum TechError {
    /// The library has no entry for a cell kind present in the netlist.
    MissingCell(CellKind),
    /// The characteristics of a cell kind do not match its pin counts.
    PinCountMismatch {
        /// Offending cell kind.
        kind: CellKind,
        /// Number of output pins the kind has.
        expected_outputs: usize,
        /// Number of delay entries supplied.
        supplied: usize,
    },
    /// A delay, area or energy value is negative or not finite.
    InvalidValue {
        /// Offending cell kind.
        kind: CellKind,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for TechError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechError::MissingCell(kind) => {
                write!(f, "technology library has no entry for cell kind `{kind}`")
            }
            TechError::PinCountMismatch {
                kind,
                expected_outputs,
                supplied,
            } => write!(
                f,
                "cell kind `{kind}` has {expected_outputs} outputs but {supplied} delay entries"
            ),
            TechError::InvalidValue { kind, value } => {
                write!(
                    f,
                    "cell kind `{kind}` has a negative or non-finite value {value}"
                )
            }
        }
    }
}

impl Error for TechError {}

/// A technology library mapping every cell kind to its characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct TechLibrary {
    name: String,
    cells: BTreeMap<CellKind, CellCharacteristics>,
    voltage: f64,
    time_unit: &'static str,
    area_unit: &'static str,
}

impl TechLibrary {
    /// Starts building a custom library.
    pub fn builder(name: impl Into<String>) -> TechLibraryBuilder {
        TechLibraryBuilder {
            name: name.into(),
            cells: BTreeMap::new(),
            voltage: 3.3,
        }
    }

    /// The didactic unit-delay library used in the paper's worked examples:
    /// `Ds = 2`, `Dc = 1`, `Ws = Wc = 1`, every simple gate has delay 0 and the
    /// constant sources are free.
    ///
    /// With this library, arrival times computed by the timing crate reproduce the
    /// numbers of Figure 2 exactly and switching estimates reproduce Figure 4.
    pub fn unit() -> Self {
        let builder = Self::builder("unit")
            .cell(
                CellKind::Fa,
                CellCharacteristics::adder(2.0, 1.0, 7.0, 1.0, 1.0),
            )
            .cell(
                CellKind::Ha,
                CellCharacteristics::adder(1.0, 1.0, 4.0, 1.0, 1.0),
            )
            .cell(CellKind::And2, CellCharacteristics::single(0.0, 1.5, 1.0))
            .cell(CellKind::And3, CellCharacteristics::single(0.0, 2.0, 1.0))
            .cell(CellKind::Or2, CellCharacteristics::single(0.0, 1.5, 1.0))
            .cell(CellKind::Xor2, CellCharacteristics::single(1.0, 2.5, 1.0))
            .cell(CellKind::Xor3, CellCharacteristics::single(2.0, 5.0, 1.0))
            .cell(CellKind::Not, CellCharacteristics::single(0.0, 0.75, 0.5))
            .cell(CellKind::Buf, CellCharacteristics::single(0.0, 1.0, 0.5))
            .cell(CellKind::Mux2, CellCharacteristics::single(1.0, 2.5, 1.0))
            .cell(CellKind::Const0, CellCharacteristics::single(0.0, 0.0, 0.0))
            .cell(CellKind::Const1, CellCharacteristics::single(0.0, 0.0, 0.0));
        builder.build().expect("built-in library is valid")
    }

    /// A calibrated approximation of the LSI Logic `lcbg10pv` 0.35 µm standard-cell
    /// library used in the paper's experiments (delays in ns, areas in equivalent-gate
    /// units, energies in pJ per transition at 3.3 V).
    ///
    /// The absolute values are representative of published 0.35 µm libraries; only the
    /// *ratios* matter for reproducing the shape of the paper's results.
    pub fn lcbg10pv_like() -> Self {
        let builder = Self::builder("lcbg10pv_like")
            .voltage(3.3)
            .cell(
                CellKind::Fa,
                CellCharacteristics::adder(0.62, 0.48, 7.0, 1.00, 0.82),
            )
            .cell(
                CellKind::Ha,
                CellCharacteristics::adder(0.38, 0.26, 4.0, 0.62, 0.40),
            )
            .cell(CellKind::And2, CellCharacteristics::single(0.18, 1.5, 0.28))
            .cell(CellKind::And3, CellCharacteristics::single(0.24, 2.0, 0.36))
            .cell(CellKind::Or2, CellCharacteristics::single(0.18, 1.5, 0.28))
            .cell(CellKind::Xor2, CellCharacteristics::single(0.30, 2.5, 0.46))
            .cell(CellKind::Xor3, CellCharacteristics::single(0.55, 5.0, 0.78))
            .cell(CellKind::Not, CellCharacteristics::single(0.08, 0.75, 0.12))
            .cell(CellKind::Buf, CellCharacteristics::single(0.14, 1.0, 0.16))
            .cell(CellKind::Mux2, CellCharacteristics::single(0.28, 2.5, 0.40))
            .cell(CellKind::Const0, CellCharacteristics::single(0.0, 0.0, 0.0))
            .cell(CellKind::Const1, CellCharacteristics::single(0.0, 0.0, 0.0));
        builder.build().expect("built-in library is valid")
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operating voltage in volts (used only for reporting).
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Characteristics of a cell kind.
    ///
    /// # Panics
    ///
    /// Panics if the library has no entry for `kind`; the built-in libraries cover
    /// every kind, and [`TechLibrary::resolve`] verifies coverage of custom ones
    /// against a compiled netlist.
    pub fn cell(&self, kind: CellKind) -> &CellCharacteristics {
        self.cells
            .get(&kind)
            .unwrap_or_else(|| panic!("technology library `{}` has no `{kind}` entry", self.name))
    }

    /// Worst-case delay from any input to output pin `output` of `kind`.
    pub fn output_delay(&self, kind: CellKind, output: usize) -> f64 {
        self.cell(kind).output_delays[output]
    }

    /// The paper's `Ds`: full-adder input-to-sum delay.
    pub fn fa_sum_delay(&self) -> f64 {
        self.output_delay(CellKind::Fa, 0)
    }

    /// The paper's `Dc`: full-adder input-to-carry delay.
    pub fn fa_carry_delay(&self) -> f64 {
        self.output_delay(CellKind::Fa, 1)
    }

    /// The paper's `Ws`: energy per transition of the full-adder sum output.
    pub fn fa_sum_energy(&self) -> f64 {
        self.cell(CellKind::Fa).switch_energy[0]
    }

    /// The paper's `Wc`: energy per transition of the full-adder carry output.
    pub fn fa_carry_energy(&self) -> f64 {
        self.cell(CellKind::Fa).switch_energy[1]
    }

    /// Area of a cell kind.
    pub fn area(&self, kind: CellKind) -> f64 {
        self.cell(kind).area
    }

    /// Energy per transition of output pin `output` of `kind`.
    pub fn switch_energy(&self, kind: CellKind, output: usize) -> f64 {
        self.cell(kind).switch_energy[output]
    }

    /// Whether the library has an entry for `kind`.
    pub fn covers(&self, kind: CellKind) -> bool {
        self.cells.contains_key(&kind)
    }

    /// Resolves the library into dense per-kind tables for one compiled netlist —
    /// a handful of map lookups (one per *kind*, not per cell) that double as the
    /// coverage check. Evaluation loops then index [`ResolvedTech`] arrays only.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::MissingCell`] for the first uncovered kind, in order of
    /// first appearance in the cell table.
    pub fn resolve(&self, compiled: &CompiledNetlist) -> Result<ResolvedTech, TechError> {
        let mut resolved = ResolvedTech {
            delay: [[0.0; 2]; CellKind::COUNT],
            energy: [[0.0; 2]; CellKind::COUNT],
            area: [0.0; CellKind::COUNT],
        };
        for (kind, _) in compiled.kind_counts() {
            let characteristics = self.cells.get(kind).ok_or(TechError::MissingCell(*kind))?;
            let row = kind.table_index();
            for (pin, delay) in characteristics.output_delays.iter().enumerate() {
                resolved.delay[row][pin] = *delay;
            }
            for (pin, energy) in characteristics.switch_energy.iter().enumerate() {
                resolved.energy[row][pin] = *energy;
            }
            resolved.area[row] = characteristics.area;
        }
        Ok(resolved)
    }

    /// Total cell area of a compiled netlist, summed in cell-index order with the
    /// per-kind areas resolved once.
    ///
    /// # Example
    /// ```
    /// use dpsyn_netlist::{CellKind, Netlist};
    /// use dpsyn_tech::TechLibrary;
    /// let mut netlist = Netlist::new("demo");
    /// let a = netlist.add_input("a");
    /// let b = netlist.add_input("b");
    /// let c = netlist.add_input("c");
    /// netlist.add_gate(CellKind::Fa, &[a, b, c]).unwrap();
    /// let lib = TechLibrary::unit();
    /// assert_eq!(lib.compiled_area(&netlist.compile().unwrap()), 7.0);
    /// ```
    pub fn compiled_area(&self, compiled: &CompiledNetlist) -> f64 {
        let mut area_by_kind = [0.0f64; CellKind::COUNT];
        for (kind, _) in compiled.kind_counts() {
            area_by_kind[kind.table_index()] = self.area(*kind);
        }
        compiled
            .cell_kinds()
            .iter()
            .map(|kind| area_by_kind[kind.table_index()])
            .sum()
    }

    /// A 64-bit digest of the library's full analysis-relevant identity: the name,
    /// the operating voltage, and every cell's kind, per-output delays, area and
    /// per-output switching energies, in the map's deterministic [`CellKind`] order.
    ///
    /// Two libraries digest equally **iff** every value an analysis can observe is
    /// bit-identical (f64 values are folded by bit pattern, so even `-0.0` vs `0.0`
    /// perturbs the digest). This is the "tech-library identity" component of
    /// persistent evaluation keys: a result memoized under one library must never be
    /// served under a library with so much as one edited delay.
    pub fn identity_digest(&self) -> u64 {
        let mut hasher = StructuralHasher::with_seed(0x7ec4_1db5_1f3a_9d02);
        hasher.write_str(&self.name);
        hasher.write(self.voltage.to_bits());
        hasher.write(self.cells.len() as u64);
        for (kind, characteristics) in &self.cells {
            hasher.write(kind.table_index() as u64);
            hasher.write(characteristics.output_delays.len() as u64);
            for delay in &characteristics.output_delays {
                hasher.write(delay.to_bits());
            }
            hasher.write(characteristics.area.to_bits());
            hasher.write(characteristics.switch_energy.len() as u64);
            for energy in &characteristics.switch_energy {
                hasher.write(energy.to_bits());
            }
        }
        hasher.finish()
    }

    /// Delay of a balanced tree of 2-input AND gates combining `literals` inputs.
    ///
    /// Partial products of higher-order monomials (for example `x·y·z`) are generated by
    /// such trees; the FA-tree allocation needs their generation delay to compute addend
    /// arrival times. Zero or one literal needs no gate at all.
    pub fn and_tree_delay(&self, literals: usize) -> f64 {
        if literals <= 1 {
            return 0.0;
        }
        let levels = (literals as f64).log2().ceil();
        levels * self.output_delay(CellKind::And2, 0)
    }
}

/// Builder for custom technology libraries.
#[derive(Debug, Clone)]
pub struct TechLibraryBuilder {
    name: String,
    cells: BTreeMap<CellKind, CellCharacteristics>,
    voltage: f64,
}

impl TechLibraryBuilder {
    /// Sets the operating voltage (volts).
    pub fn voltage(mut self, voltage: f64) -> Self {
        self.voltage = voltage;
        self
    }

    /// Adds (or replaces) the characteristics of a cell kind.
    pub fn cell(mut self, kind: CellKind, characteristics: CellCharacteristics) -> Self {
        self.cells.insert(kind, characteristics);
        self
    }

    /// Validates the collected characteristics and produces the library.
    ///
    /// # Errors
    ///
    /// Returns an error when a declared cell has the wrong number of per-output values
    /// or a negative / non-finite value. Coverage of all kinds is *not* required here;
    /// [`TechLibrary::resolve`] checks it against a compiled netlist instead.
    pub fn build(self) -> Result<TechLibrary, TechError> {
        for (kind, characteristics) in &self.cells {
            let expected_outputs = kind.output_count();
            if characteristics.output_delays.len() != expected_outputs
                || characteristics.switch_energy.len() != expected_outputs
            {
                return Err(TechError::PinCountMismatch {
                    kind: *kind,
                    expected_outputs,
                    supplied: characteristics.output_delays.len(),
                });
            }
            for value in characteristics
                .output_delays
                .iter()
                .chain(characteristics.switch_energy.iter())
                .chain(std::iter::once(&characteristics.area))
            {
                if !value.is_finite() || *value < 0.0 {
                    return Err(TechError::InvalidValue {
                        kind: *kind,
                        value: *value,
                    });
                }
            }
        }
        Ok(TechLibrary {
            name: self.name,
            cells: self.cells,
            voltage: self.voltage,
            time_unit: "ns",
            area_unit: "units",
        })
    }
}

impl fmt::Display for TechLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "technology library `{}` ({} cells, {} V)",
            self.name,
            self.cells.len(),
            self.voltage
        )?;
        for (kind, characteristics) in &self.cells {
            writeln!(
                f,
                "  {:>6}: delay {:?} {}, area {} {}, energy {:?}",
                kind.to_string(),
                characteristics.output_delays,
                self.time_unit,
                characteristics.area,
                self.area_unit,
                characteristics.switch_energy
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_netlist::Netlist;

    #[test]
    fn unit_library_matches_paper_examples() {
        let lib = TechLibrary::unit();
        assert_eq!(lib.fa_sum_delay(), 2.0);
        assert_eq!(lib.fa_carry_delay(), 1.0);
        assert_eq!(lib.fa_sum_energy(), 1.0);
        assert_eq!(lib.fa_carry_energy(), 1.0);
    }

    #[test]
    fn builtin_libraries_cover_all_cell_kinds() {
        for lib in [TechLibrary::unit(), TechLibrary::lcbg10pv_like()] {
            for kind in CellKind::all() {
                let characteristics = lib.cell(kind);
                assert_eq!(characteristics.output_delays.len(), kind.output_count());
                assert_eq!(characteristics.switch_energy.len(), kind.output_count());
            }
        }
    }

    #[test]
    fn lcbg_library_has_plausible_ratios() {
        let lib = TechLibrary::lcbg10pv_like();
        // Sum is slower than carry for a full adder (as in the paper's model).
        assert!(lib.fa_sum_delay() > lib.fa_carry_delay());
        // A full adder is bigger than a half adder which is bigger than an AND gate.
        assert!(lib.area(CellKind::Fa) > lib.area(CellKind::Ha));
        assert!(lib.area(CellKind::Ha) > lib.area(CellKind::And2));
    }

    #[test]
    fn netlist_area_and_coverage() {
        let mut netlist = Netlist::new("demo");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        netlist.add_gate(CellKind::Fa, &[a, b, c]).unwrap();
        netlist.add_gate(CellKind::And2, &[a, b]).unwrap();
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        assert!(lib.resolve(&compiled).is_ok());
        assert!((lib.compiled_area(&compiled) - 8.5).abs() < 1e-9);
    }

    #[test]
    fn missing_cell_is_reported() {
        let lib = TechLibrary::builder("empty").build().unwrap();
        let mut netlist = Netlist::new("demo");
        let a = netlist.add_input("a");
        netlist.add_gate(CellKind::Not, &[a]).unwrap();
        netlist.add_gate(CellKind::Xor2, &[a, a]).unwrap();
        assert!(!lib.covers(CellKind::Not));
        assert!(TechLibrary::unit().covers(CellKind::Not));
        // `resolve` reports the first uncovered kind in cell order.
        let compiled = netlist.compile().unwrap();
        assert_eq!(
            lib.resolve(&compiled).unwrap_err(),
            TechError::MissingCell(CellKind::Not)
        );
    }

    #[test]
    fn resolved_tables_mirror_the_library() {
        let mut netlist = Netlist::new("demo");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        netlist.add_gate(CellKind::Fa, &[a, b, c]).unwrap();
        netlist.add_gate(CellKind::And2, &[a, b]).unwrap();
        let compiled = netlist.compile().unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let resolved = lib.resolve(&compiled).unwrap();
        for kind in [CellKind::Fa, CellKind::And2] {
            let row = kind.table_index();
            for pin in 0..kind.output_count() {
                assert_eq!(resolved.delay[row][pin], lib.output_delay(kind, pin));
                assert_eq!(resolved.energy[row][pin], lib.switch_energy(kind, pin));
            }
            assert_eq!(resolved.area[row], lib.area(kind));
        }
        // Kinds absent from the program stay zeroed.
        assert_eq!(resolved.area[CellKind::Mux2.table_index()], 0.0);
        // The compiled area equals the per-cell fold bit for bit.
        let folded: f64 = netlist.cells().map(|(_, cell)| lib.area(cell.kind())).sum();
        assert_eq!(lib.compiled_area(&compiled), folded);
    }

    #[test]
    fn builder_rejects_bad_values() {
        let result = TechLibrary::builder("bad")
            .cell(CellKind::Not, CellCharacteristics::single(-1.0, 1.0, 1.0))
            .build();
        assert!(matches!(result, Err(TechError::InvalidValue { .. })));
        let result = TechLibrary::builder("bad")
            .cell(
                CellKind::Fa,
                CellCharacteristics::single(1.0, 1.0, 1.0), // FA needs two outputs
            )
            .build();
        assert!(matches!(result, Err(TechError::PinCountMismatch { .. })));
    }

    #[test]
    fn and_tree_delay_grows_logarithmically() {
        let lib = TechLibrary::lcbg10pv_like();
        assert_eq!(lib.and_tree_delay(0), 0.0);
        assert_eq!(lib.and_tree_delay(1), 0.0);
        let two = lib.and_tree_delay(2);
        let four = lib.and_tree_delay(4);
        let eight = lib.and_tree_delay(8);
        assert!(two > 0.0);
        assert!((four - 2.0 * two).abs() < 1e-9);
        assert!((eight - 3.0 * two).abs() < 1e-9);
        // Three literals need the same depth as four.
        assert_eq!(lib.and_tree_delay(3), four);
    }

    #[test]
    #[should_panic(expected = "no")]
    fn querying_missing_cell_panics() {
        let lib = TechLibrary::builder("empty").build().unwrap();
        lib.cell(CellKind::Fa);
    }

    #[test]
    fn display_lists_cells() {
        let text = TechLibrary::unit().to_string();
        assert!(text.contains("unit"));
        assert!(text.contains("fa"));
    }

    #[test]
    fn identity_digest_tracks_every_observable_value() {
        let unit = TechLibrary::unit();
        let lcbg = TechLibrary::lcbg10pv_like();
        assert_eq!(
            unit.identity_digest(),
            TechLibrary::unit().identity_digest()
        );
        assert_ne!(unit.identity_digest(), lcbg.identity_digest());
        // Same cells, different name: distinct identities.
        let renamed = {
            let mut builder = TechLibrary::builder("unit_prime");
            for kind in CellKind::all() {
                builder = builder.cell(kind, unit.cell(kind).clone());
            }
            builder.voltage(unit.voltage()).build().unwrap()
        };
        assert_ne!(renamed.identity_digest(), unit.identity_digest());
        // One edited delay flips the digest.
        let edited = {
            let mut builder = TechLibrary::builder("unit");
            for kind in CellKind::all() {
                builder = builder.cell(kind, unit.cell(kind).clone());
            }
            let mut fa = unit.cell(CellKind::Fa).clone();
            fa.output_delays[0] += 0.25;
            builder
                .cell(CellKind::Fa, fa)
                .voltage(unit.voltage())
                .build()
                .unwrap()
        };
        assert_ne!(edited.identity_digest(), unit.identity_digest());
    }

    #[test]
    fn library_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TechLibrary>();
        assert_send_sync::<TechError>();
    }
}
