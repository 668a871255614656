//! Bit-level structural netlists for datapath synthesis.
//!
//! A [`Netlist`] is a directed acyclic graph of [`Cell`]s (full adders, half adders and
//! simple logic gates) connected by [`Net`]s. It is the common currency between the
//! FA-tree allocation algorithms of the DAC 2000 reproduction, the baseline synthesis
//! strategies, static timing analysis, power estimation, logic simulation and Verilog
//! emission.
//!
//! The crate deliberately models circuits at the granularity the paper works at: the
//! full/half adder is treated as a primitive "close to a gate" (Section 1 of the paper),
//! alongside the AND/XOR/NOT gates needed for partial-product generation and
//! two's-complement subtraction.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use dpsyn_netlist::{CellKind, Netlist};
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let mut netlist = Netlist::new("half_adder_demo");
//! let a = netlist.add_input("a");
//! let b = netlist.add_input("b");
//! let sum = netlist.add_net("sum");
//! let carry = netlist.add_net("carry");
//! netlist.add_cell(CellKind::Ha, "ha0", vec![a, b], vec![sum, carry])?;
//! netlist.mark_output(sum);
//! netlist.mark_output(carry);
//! netlist.validate()?;
//! assert_eq!(netlist.cell_count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod compiled;
mod delta;
mod error;
mod graph;
mod verilog;
mod word;

pub use cell::{Cell, CellId, CellKind};
pub use compiled::{CompiledNetlist, CompiledOp, ProgramId, StructuralHasher};
pub use delta::{DeltaState, DirtyWorklist, InputDelta, PowerChannel, TimingChannel};
pub use error::NetlistError;
pub use graph::{Net, NetId, Netlist};
pub use word::{Word, WordMap};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_builds() {
        let mut netlist = Netlist::new("demo");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let sum = netlist.add_net("s");
        let carry = netlist.add_net("co");
        netlist
            .add_cell(CellKind::Fa, "fa0", vec![a, b, c], vec![sum, carry])
            .unwrap();
        netlist.mark_output(sum);
        netlist.mark_output(carry);
        assert!(netlist.validate().is_ok());
        assert!(netlist.to_verilog().contains("module demo"));
    }
}
