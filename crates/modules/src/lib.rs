//! Parameterised word-level arithmetic module generators.
//!
//! The conventional RTL-synthesis baseline of the DAC 2000 reproduction binds every
//! word-level operation to a closed module (an adder or a multiplier). This crate
//! generates those modules as bit-level netlists so that the same timing, power and
//! simulation infrastructure applies to the baseline and to the paper's FA-tree
//! designs.
//!
//! All generators operate on an existing [`Netlist`], take their operands as slices of
//! bit nets (LSB first) and return the result bits, so they compose freely; the
//! [`builders`] module wraps the most common ones into standalone netlists with a
//! [`WordMap`](dpsyn_netlist::WordMap) interface for tests and examples.
//!
//! Provided generators:
//!
//! * [`adder::ripple_add`] — ripple-carry adder;
//! * [`adder::carry_lookahead_add`] — 4-bit-block carry-lookahead adder;
//! * [`adder::carry_select_add`] — carry-select adder (duplicated blocks + mux);
//! * [`adder::subtract`] / [`adder::negate`] — two's-complement subtraction / negation;
//! * [`multiplier::array_multiply`] — ripple-carry array multiplier;
//! * [`multiplier::wallace_multiply`] — Wallace-tree multiplier (fixed, arrival-blind
//!   column compression as in the classic scheme the paper contrasts against);
//! * [`multiplier::constant_multiply`] — shift-and-add constant multiplier;
//! * [`compressor::carry_save_row`] — word-level 3:2 carry-save compressor row, the
//!   building block of the CSA_OPT baseline.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use dpsyn_modules::builders;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let (netlist, map) = builders::ripple_adder(8)?;
//! assert_eq!(map.output().width(), 9);
//! assert!(netlist.validate().is_ok());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod builders;
pub mod compressor;
pub mod multiplier;

use dpsyn_netlist::{NetId, Netlist, NetlistError};

/// Pads `bits` with constant-zero nets up to `width` (no-op when already wide enough).
///
/// This is the standard way generators equalise operand widths before combining them.
pub fn zero_extend(netlist: &mut Netlist, bits: &[NetId], width: usize) -> Vec<NetId> {
    let mut extended = bits.to_vec();
    while extended.len() < width {
        extended.push(netlist.constant(false));
    }
    extended
}

/// Inverts every bit of a word, returning the complemented bits.
///
/// # Errors
///
/// Returns an error if the nets do not belong to `netlist`.
pub fn invert_word(netlist: &mut Netlist, bits: &[NetId]) -> Result<Vec<NetId>, NetlistError> {
    bits.iter()
        .map(|bit| {
            netlist
                .add_gate(dpsyn_netlist::CellKind::Not, &[*bit])
                .map(|outs| outs[0])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_netlist::Netlist;

    #[test]
    fn zero_extend_pads_with_constants() {
        let mut netlist = Netlist::new("pad");
        let a = netlist.add_input("a");
        let padded = zero_extend(&mut netlist, &[a], 4);
        assert_eq!(padded.len(), 4);
        assert_eq!(padded[0], a);
        // The three padding bits share the same constant-zero net.
        assert_eq!(padded[1], padded[2]);
    }

    #[test]
    fn invert_word_adds_one_inverter_per_bit() {
        let mut netlist = Netlist::new("inv");
        let bits: Vec<_> = (0..3).map(|i| netlist.add_input(format!("a{i}"))).collect();
        let inverted = invert_word(&mut netlist, &bits).unwrap();
        assert_eq!(inverted.len(), 3);
        assert_eq!(netlist.count_kind(dpsyn_netlist::CellKind::Not), 3);
    }
}
