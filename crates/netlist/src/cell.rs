//! Primitive cell kinds and cell instances.

use crate::graph::NetId;
use std::borrow::Cow;
use std::fmt;

/// Identifier of a cell inside a [`crate::Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// Index of the cell in the netlist's cell table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The primitive cell kinds supported by the synthesis flow.
///
/// Pin conventions (inputs / outputs, in order):
///
/// | Kind    | Inputs            | Outputs          |
/// |---------|-------------------|------------------|
/// | `Fa`    | `a, b, cin`       | `sum, cout`      |
/// | `Ha`    | `a, b`            | `sum, cout`      |
/// | `And2`  | `a, b`            | `y`              |
/// | `And3`  | `a, b, c`         | `y`              |
/// | `Or2`   | `a, b`            | `y`              |
/// | `Xor2`  | `a, b`            | `y`              |
/// | `Xor3`  | `a, b, c`         | `y`              |
/// | `Not`   | `a`               | `y`              |
/// | `Buf`   | `a`               | `y`              |
/// | `Mux2`  | `a, b, sel`       | `y` (= sel ? b : a) |
/// | `Const0`| —                 | `y`              |
/// | `Const1`| —                 | `y`              |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellKind {
    /// Full adder: three input bits of the same weight, sum and carry-out outputs.
    Fa,
    /// Half adder: two input bits, sum and carry-out outputs.
    Ha,
    /// Two-input AND gate.
    And2,
    /// Three-input AND gate.
    And3,
    /// Two-input OR gate.
    Or2,
    /// Two-input XOR gate.
    Xor2,
    /// Three-input XOR gate.
    Xor3,
    /// Inverter.
    Not,
    /// Buffer.
    Buf,
    /// Two-input multiplexer with a select pin.
    Mux2,
    /// Constant logic 0 source.
    Const0,
    /// Constant logic 1 source.
    Const1,
}

impl CellKind {
    /// Number of distinct cell kinds; with [`CellKind::table_index`] this sizes the
    /// dense per-kind parameter tables the compiled analyses index in their inner
    /// loops instead of map lookups.
    pub const COUNT: usize = 12;

    /// A dense index in `0..CellKind::COUNT`, stable across runs (declaration order).
    #[inline]
    pub fn table_index(self) -> usize {
        match self {
            CellKind::Fa => 0,
            CellKind::Ha => 1,
            CellKind::And2 => 2,
            CellKind::And3 => 3,
            CellKind::Or2 => 4,
            CellKind::Xor2 => 5,
            CellKind::Xor3 => 6,
            CellKind::Not => 7,
            CellKind::Buf => 8,
            CellKind::Mux2 => 9,
            CellKind::Const0 => 10,
            CellKind::Const1 => 11,
        }
    }

    /// Number of input pins of the cell kind.
    #[inline]
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Fa | CellKind::And3 | CellKind::Xor3 | CellKind::Mux2 => 3,
            CellKind::Ha | CellKind::And2 | CellKind::Or2 | CellKind::Xor2 => 2,
            CellKind::Not | CellKind::Buf => 1,
            CellKind::Const0 | CellKind::Const1 => 0,
        }
    }

    /// Number of output pins of the cell kind.
    #[inline]
    pub fn output_count(self) -> usize {
        match self {
            CellKind::Fa | CellKind::Ha => 2,
            _ => 1,
        }
    }

    /// All cell kinds, useful for building technology libraries and for property tests.
    pub fn all() -> [CellKind; 12] {
        [
            CellKind::Fa,
            CellKind::Ha,
            CellKind::And2,
            CellKind::And3,
            CellKind::Or2,
            CellKind::Xor2,
            CellKind::Xor3,
            CellKind::Not,
            CellKind::Buf,
            CellKind::Mux2,
            CellKind::Const0,
            CellKind::Const1,
        ]
    }

    /// Evaluates the cell function over boolean inputs, returning one value per output
    /// pin (in pin order).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not have exactly [`CellKind::input_count`] elements; the
    /// netlist constructor enforces this invariant.
    pub fn evaluate(self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "cell {self:?} expects {} inputs, got {}",
            self.input_count(),
            inputs.len()
        );
        match self {
            CellKind::Fa => {
                let (a, b, c) = (inputs[0], inputs[1], inputs[2]);
                vec![a ^ b ^ c, (a & b) | (a & c) | (b & c)]
            }
            CellKind::Ha => {
                let (a, b) = (inputs[0], inputs[1]);
                vec![a ^ b, a & b]
            }
            CellKind::And2 => vec![inputs[0] & inputs[1]],
            CellKind::And3 => vec![inputs[0] & inputs[1] & inputs[2]],
            CellKind::Or2 => vec![inputs[0] | inputs[1]],
            CellKind::Xor2 => vec![inputs[0] ^ inputs[1]],
            CellKind::Xor3 => vec![inputs[0] ^ inputs[1] ^ inputs[2]],
            CellKind::Not => vec![!inputs[0]],
            CellKind::Buf => vec![inputs[0]],
            CellKind::Mux2 => vec![if inputs[2] { inputs[1] } else { inputs[0] }],
            CellKind::Const0 => vec![false],
            CellKind::Const1 => vec![true],
        }
    }

    /// Short lower-case mnemonic used in instance names and reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CellKind::Fa => "fa",
            CellKind::Ha => "ha",
            CellKind::And2 => "and2",
            CellKind::And3 => "and3",
            CellKind::Or2 => "or2",
            CellKind::Xor2 => "xor2",
            CellKind::Xor3 => "xor3",
            CellKind::Not => "not",
            CellKind::Buf => "buf",
            CellKind::Mux2 => "mux2",
            CellKind::Const0 => "const0",
            CellKind::Const1 => "const1",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// The name of a net or a cell.
///
/// Only Verilog emission and error messages read names, so a name
/// [`crate::Netlist::add_gate`] gives is not built when the gate is: it records the
/// kind the cell was created with, the cell index and the output pin, and renders
/// on read. A later [`crate::Netlist::replace_cell_kind`] therefore never renames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Name {
    /// Text given by the caller: ports, `add_net`, `add_cell`, `set_net_name` and the
    /// constant cells.
    Explicit(String),
    /// `{mnemonic}_{cell}` for a cell (`pin: None`), `{mnemonic}_{cell}_o{pin}` for
    /// one of its output nets.
    Derived {
        kind: CellKind,
        cell: u32,
        pin: Option<u8>,
    },
}

impl Name {
    /// The name's text: borrowed when explicit, rendered when derived.
    pub(crate) fn text(&self) -> Cow<'_, str> {
        match self {
            Name::Explicit(text) => Cow::Borrowed(text),
            Name::Derived {
                kind,
                cell,
                pin: None,
            } => Cow::Owned(format!("{}_{cell}", kind.mnemonic())),
            Name::Derived {
                kind,
                cell,
                pin: Some(pin),
            } => Cow::Owned(format!("{}_{cell}_o{pin}", kind.mnemonic())),
        }
    }
}

/// An instantiated cell: a kind plus its input and output net connections.
///
/// The pins live inline, sized for the widest kinds (3 inputs, 2 outputs) as in
/// [`crate::CompiledOp`]; the kind determines how many are live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    pub(crate) kind: CellKind,
    pub(crate) name: Name,
    pub(crate) ins: [NetId; 3],
    pub(crate) outs: [NetId; 2],
}

impl Cell {
    /// The cell kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The instance name.
    pub fn name(&self) -> Cow<'_, str> {
        self.name.text()
    }

    /// The nets connected to the input pins, in pin order.
    #[inline]
    pub fn inputs(&self) -> &[NetId] {
        &self.ins[..self.kind.input_count()]
    }

    /// The nets connected to the output pins, in pin order.
    #[inline]
    pub fn outputs(&self) -> &[NetId] {
        &self.outs[..self.kind.output_count()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_counts_are_consistent() {
        for kind in CellKind::all() {
            assert!(kind.input_count() <= 3);
            assert!(kind.output_count() >= 1);
            assert_eq!(
                kind.evaluate(&vec![false; kind.input_count()]).len(),
                kind.output_count()
            );
        }
    }

    #[test]
    fn full_adder_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let out = CellKind::Fa.evaluate(&[a, b, c]);
                    let total = a as u8 + b as u8 + c as u8;
                    assert_eq!(out[0], total & 1 == 1, "sum of {a},{b},{c}");
                    assert_eq!(out[1], total >= 2, "carry of {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn half_adder_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                let out = CellKind::Ha.evaluate(&[a, b]);
                assert_eq!(out[0], a ^ b);
                assert_eq!(out[1], a & b);
            }
        }
    }

    #[test]
    fn simple_gate_functions() {
        assert_eq!(CellKind::And2.evaluate(&[true, false]), vec![false]);
        assert_eq!(CellKind::Or2.evaluate(&[true, false]), vec![true]);
        assert_eq!(CellKind::Xor2.evaluate(&[true, true]), vec![false]);
        assert_eq!(CellKind::Xor3.evaluate(&[true, true, true]), vec![true]);
        assert_eq!(CellKind::And3.evaluate(&[true, true, false]), vec![false]);
        assert_eq!(CellKind::Not.evaluate(&[false]), vec![true]);
        assert_eq!(CellKind::Buf.evaluate(&[true]), vec![true]);
        assert_eq!(CellKind::Mux2.evaluate(&[true, false, false]), vec![true]);
        assert_eq!(CellKind::Mux2.evaluate(&[true, false, true]), vec![false]);
        assert_eq!(CellKind::Const0.evaluate(&[]), vec![false]);
        assert_eq!(CellKind::Const1.evaluate(&[]), vec![true]);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn evaluate_panics_on_arity_mismatch() {
        CellKind::Fa.evaluate(&[true, false]);
    }

    #[test]
    fn table_indices_are_a_bijection() {
        assert_eq!(CellKind::all().len(), CellKind::COUNT);
        let mut seen = [false; CellKind::COUNT];
        for kind in CellKind::all() {
            let index = kind.table_index();
            assert!(index < CellKind::COUNT);
            assert!(!seen[index], "duplicate table index {index}");
            seen[index] = true;
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<_> = CellKind::all().iter().map(|k| k.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CellKind::all().len());
    }
}
