//! The scalar reference evaluator: one input vector at a time.
//!
//! [`Simulator`] is the original interpreter of this crate, kept deliberately simple
//! (per-cell [`CellKind::evaluate`](dpsyn_netlist::CellKind::evaluate) dispatch over a
//! `Vec<bool>` net image). The production hot path is the block engine in
//! [`crate::blocks`]; this module is its oracle — the differential suites in
//! `crates/sim/tests/` require the two to agree bit-for-bit on every net.

use crate::SimError;
use dpsyn_netlist::{CellId, NetId, Netlist, WordMap};
use std::collections::BTreeMap;

/// A compiled scalar simulator: the netlist's cells in topological order, ready for
/// repeated single-vector evaluation.
///
/// This is the *reference* evaluator. It trades speed for obviousness and serves as
/// the oracle that the bit-parallel [`BlockSim`](crate::BlockSim) is differentially
/// tested against; use `BlockSim` when throughput matters.
#[derive(Debug, Clone)]
pub struct Simulator<'nl> {
    netlist: &'nl Netlist,
    order: Vec<CellId>,
}

impl<'nl> Simulator<'nl> {
    /// Compiles a netlist for simulation: the cells are evaluated in the op order
    /// of the compiled program (a topological order), computed once.
    ///
    /// # Errors
    ///
    /// Returns an error when the netlist contains a combinational cycle.
    pub fn compile(netlist: &'nl Netlist) -> Result<Self, SimError> {
        let order = netlist.compile()?.ops().iter().map(|op| op.cell).collect();
        Ok(Simulator { netlist, order })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Evaluates the netlist for the given primary-input values.
    ///
    /// Inputs missing from `inputs` are treated as logic 0. The returned vector holds
    /// the value of every net, indexed by [`NetId::index`].
    pub fn evaluate(&self, inputs: &BTreeMap<NetId, bool>) -> Vec<bool> {
        let mut values = vec![false; self.netlist.net_count()];
        for net in self.netlist.inputs() {
            values[net.index()] = inputs.get(net).copied().unwrap_or(false);
        }
        for cell_id in &self.order {
            let cell = self.netlist.cell(*cell_id);
            let input_values: Vec<bool> = cell
                .inputs()
                .iter()
                .map(|net| values[net.index()])
                .collect();
            let outputs = cell.kind().evaluate(&input_values);
            for (net, value) in cell.outputs().iter().zip(outputs) {
                values[net.index()] = value;
            }
        }
        values
    }

    /// Evaluates the netlist for a word-level assignment and packs the output word.
    pub fn evaluate_words(&self, map: &WordMap, values: &BTreeMap<String, u64>) -> u64 {
        let bit_inputs = map.assignment_to_bits(values);
        let net_values = self.evaluate(&bit_inputs);
        let output_values: BTreeMap<NetId, bool> = map
            .output()
            .bits()
            .iter()
            .map(|net| (*net, net_values[net.index()]))
            .collect();
        map.output_value(&output_values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ripple2;

    #[test]
    fn ripple_adder_simulates_correctly() {
        let (netlist, map) = ripple2();
        let simulator = Simulator::compile(&netlist).unwrap();
        for a in 0..4u64 {
            for b in 0..4u64 {
                let mut values = BTreeMap::new();
                values.insert("a".to_string(), a);
                values.insert("b".to_string(), b);
                assert_eq!(simulator.evaluate_words(&map, &values), a + b);
            }
        }
    }

    #[test]
    fn missing_inputs_default_to_zero() {
        let (netlist, map) = ripple2();
        let simulator = Simulator::compile(&netlist).unwrap();
        assert_eq!(simulator.evaluate_words(&map, &BTreeMap::new()), 0);
    }
}
