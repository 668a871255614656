//! Bit-accurate logic simulation, stimulus generation, equivalence checking and toggle
//! counting.
//!
//! The crate is built around two evaluation engines over a combinational
//! [`Netlist`](dpsyn_netlist::Netlist):
//!
//! * [`BlockSim`] — the production engine. The netlist is compiled once into a
//!   levelized flat program evaluated **`B × 64` stimulus vectors per pass**: each net
//!   owns a block of `B` consecutive `u64` lane words (`B` one of [`BLOCK_SIZES`],
//!   default [`DEFAULT_BLOCK`] = 4, 256 vectors), and the monomorphized inner loop is
//!   shaped for SIMD autovectorization. `B = 1` is the classic 64-lane layout.
//! * [`Simulator`] — the scalar reference evaluator, one vector at a time. It is the
//!   oracle the block engine is differentially tested against at every block size
//!   (`crates/sim/tests/`), closing the oracle chain scalar → blocks.
//!
//! On top of the engines the crate provides:
//!
//! * [`check_equivalence`] — exhaustive or randomised functional comparison of a
//!   synthesized netlist against the golden [`Expr`](dpsyn_ir::Expr) model of
//!   `dpsyn-ir`, batched one block pass at a time;
//! * [`ToggleCounter`] — zero-delay transition counting over a vector sequence
//!   (block batches reduce to `count_ones` over lane-word XORs), giving a
//!   simulation-based estimate of per-net switching activity that cross-validates
//!   the analytic model of `dpsyn-power`;
//! * [`Stimulus`] — random vector generation honouring per-input signal
//!   probabilities, with batch helpers sized for block passes; [`SharedStimulus`]
//!   pre-draws one raw sample batch reusable across probability profiles (the
//!   explorer's per-group stimulus sharing).
//!
//! # Example: the block API
//!
//! ```
//! # use std::error::Error;
//! use dpsyn_netlist::{CellKind, Netlist, Word, WordMap};
//! use dpsyn_sim::{BlockSim, DEFAULT_BLOCK};
//! use std::collections::BTreeMap;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! // One full adder as a 2-bit result: out = a + b + c.
//! let mut netlist = Netlist::new("fa");
//! let a = netlist.add_input("a");
//! let b = netlist.add_input("b");
//! let c = netlist.add_input("c");
//! let outs = netlist.add_gate(CellKind::Fa, &[a, b, c])?;
//! netlist.mark_output(outs[0]);
//! netlist.mark_output(outs[1]);
//! let map = WordMap::new(
//!     vec![Word::new("a", vec![a]), Word::new("b", vec![b]), Word::new("c", vec![c])],
//!     Word::new("out", vec![outs[0], outs[1]]),
//! );
//! let simulator = BlockSim::compile(&netlist, DEFAULT_BLOCK)?;
//! // All eight input combinations in ONE evaluation pass (248 vectors to spare).
//! let batch: Vec<BTreeMap<String, u64>> = (0..8u64)
//!     .map(|pattern| {
//!         let mut assignment = BTreeMap::new();
//!         assignment.insert("a".to_string(), pattern & 1);
//!         assignment.insert("b".to_string(), (pattern >> 1) & 1);
//!         assignment.insert("c".to_string(), (pattern >> 2) & 1);
//!         assignment
//!     })
//!     .collect();
//! let sums = simulator.evaluate_word_batch(&map, &batch);
//! for (pattern, sum) in sums.iter().enumerate() {
//!     assert_eq!(*sum, (pattern as u64).count_ones() as u64);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! The scalar oracle keeps the original one-vector API; see [`Simulator`] for an
//! equivalent single-vector example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod equiv;
mod error;
mod scalar;
mod stimulus;
mod toggle;

pub use blocks::{BlockSim, BLOCK_SIZES, DEFAULT_BLOCK, LANES};
pub use equiv::check_equivalence;
pub use error::SimError;
pub use scalar::Simulator;
pub use stimulus::{SharedStimulus, Stimulus};
pub use toggle::{measure_toggles, ToggleCounter};

#[cfg(test)]
pub(crate) mod tests {
    use dpsyn_netlist::{CellKind, NetId, Netlist, Word, WordMap};

    /// Builds a 2-bit ripple adder out = a + b (a, b two bits each, out three bits).
    pub(crate) fn ripple2() -> (Netlist, WordMap) {
        let mut netlist = Netlist::new("ripple2");
        let a0 = netlist.add_input("a0");
        let a1 = netlist.add_input("a1");
        let b0 = netlist.add_input("b0");
        let b1 = netlist.add_input("b1");
        let stage0 = netlist.add_gate(CellKind::Ha, &[a0, b0]).unwrap();
        let stage1 = netlist
            .add_gate(CellKind::Fa, &[a1, b1, stage0[1]])
            .unwrap();
        for net in [stage0[0], stage1[0], stage1[1]] {
            netlist.mark_output(net);
        }
        let map = WordMap::new(
            vec![Word::new("a", vec![a0, a1]), Word::new("b", vec![b0, b1])],
            Word::new("out", vec![stage0[0], stage1[0], stage1[1]]),
        );
        (netlist, map)
    }

    /// Builds a `NetId` with the given index through a scratch netlist, because net
    /// identifier construction is private to the netlist crate.
    pub(crate) fn fake_net(index: usize) -> NetId {
        let mut scratch = Netlist::new("scratch");
        let mut last = scratch.add_net("n");
        for _ in 0..index {
            last = scratch.add_net("n");
        }
        last
    }
}
