//! Property-based structural tests for the netlist graph.

use dpsyn_netlist::{CellId, CellKind, NetId, Netlist};
use proptest::prelude::*;

/// Grows the deterministic gate DAG the mutation properties start from.
fn seed_dag(choices: &[(usize, usize, usize, usize)]) -> Netlist {
    let palette = [
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
    ];
    let mut netlist = Netlist::new("random_dag");
    let mut nets = vec![
        netlist.add_input("a"),
        netlist.add_input("b"),
        netlist.add_input("c"),
    ];
    for (kind_index, i0, i1, i2) in choices {
        let kind = palette[kind_index % palette.len()];
        let pick = |index: usize| nets[index % nets.len()];
        let inputs: Vec<_> = [*i0, *i1, *i2][..kind.input_count()]
            .iter()
            .map(|index| pick(*index))
            .collect();
        let outputs = netlist.add_gate(kind, &inputs).expect("gate");
        nets.extend(outputs);
    }
    let last = *nets.last().expect("at least the inputs");
    netlist.mark_output(last);
    netlist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomly grown DAGs of gates always validate, topologically sort, and emit one
    /// assign per cell output in Verilog.
    #[test]
    fn random_dags_are_valid(choices in prop::collection::vec((0usize..10, 0usize..64, 0usize..64, 0usize..64), 1..60)) {
        let netlist = seed_dag(&choices);
        prop_assert!(netlist.validate().is_ok());
        let compiled = netlist.compile().expect("acyclic by construction");
        prop_assert_eq!(compiled.op_count(), netlist.cell_count());
        // Every cell appears after the drivers of its inputs.
        let mut position = vec![usize::MAX; netlist.cell_count()];
        for (rank, op) in compiled.ops().iter().enumerate() {
            position[op.cell.index()] = rank;
        }
        for (id, cell) in netlist.cells() {
            for input in cell.inputs() {
                if let Some((driver, _)) = netlist.net(*input).driver() {
                    prop_assert!(position[driver.index()] < position[id.index()]);
                }
            }
        }
        let verilog = netlist.to_verilog();
        let adders = netlist.count_kind(CellKind::Fa) + netlist.count_kind(CellKind::Ha);
        prop_assert_eq!(verilog.matches("assign").count(), netlist.cell_count() + adders);
    }

    /// Random mutation sequences through the local-search mutators — `rewire_input`
    /// guarded by `rewire_would_cycle`, plus arity-preserving `replace_cell_kind` —
    /// never create a combinational cycle, never orphan a primary output, and move
    /// `structural_hash` exactly when the structure moved.
    #[test]
    fn guarded_mutation_sequences_preserve_graph_invariants(
        choices in prop::collection::vec((0usize..10, 0usize..64, 0usize..64, 0usize..64), 5..40),
        moves in prop::collection::vec((any::<bool>(), 0usize..256, 0usize..4, 0usize..256), 1..40),
    ) {
        let mut netlist = seed_dag(&choices);
        let cell_ids: Vec<CellId> = netlist.cells().map(|(id, _)| id).collect();
        let net_ids: Vec<NetId> = netlist.nets().map(|(id, _)| id).collect();
        let outputs = netlist.outputs().to_vec();
        // Same input/output arity, different gate: the only legal replacements.
        let replacement = |kind: CellKind| match kind {
            CellKind::And2 => Some(CellKind::Or2),
            CellKind::Or2 => Some(CellKind::Xor2),
            CellKind::Xor2 => Some(CellKind::And2),
            CellKind::And3 => Some(CellKind::Xor3),
            CellKind::Xor3 => Some(CellKind::Mux2),
            CellKind::Mux2 => Some(CellKind::And3),
            CellKind::Not => Some(CellKind::Buf),
            CellKind::Buf => Some(CellKind::Not),
            _ => None,
        };
        for (is_rewire, cell_raw, pin_raw, net_raw) in moves {
            let cell = cell_ids[cell_raw % cell_ids.len()];
            let hash_before = netlist.structural_hash();
            let mutated = if is_rewire {
                let pin = pin_raw % netlist.cell(cell).inputs().len();
                let old = netlist.cell(cell).inputs()[pin];
                let new = net_ids[net_raw % net_ids.len()];
                if new != old && !netlist.rewire_would_cycle(cell, new) {
                    netlist.rewire_input(cell, pin, new).expect("guarded rewire succeeds");
                    true
                } else {
                    false
                }
            } else if let Some(kind) = replacement(netlist.cell(cell).kind()) {
                netlist.replace_cell_kind(cell, kind).expect("arity-preserving replace succeeds");
                true
            } else {
                // Re-stamping the current kind is legal and a structural no-op.
                let kind = netlist.cell(cell).kind();
                netlist.replace_cell_kind(cell, kind).expect("identity replace succeeds");
                false
            };
            // The hash moves exactly when the structure moved.
            prop_assert_eq!(netlist.structural_hash() != hash_before, mutated);
            // Guarded sequences keep the graph valid and acyclic at every step...
            prop_assert!(netlist.validate().is_ok());
            let compiled = netlist.compile().expect("guarded mutations never close a cycle");
            prop_assert_eq!(compiled.structural_hash(), netlist.structural_hash());
            // ...and never orphan a primary output: the output list is untouched
            // and every listed net still has a driver or is a primary input.
            prop_assert_eq!(netlist.outputs(), outputs.as_slice());
            for output in &outputs {
                prop_assert!(
                    netlist.net(*output).driver().is_some()
                        || netlist.inputs().contains(output),
                    "primary output {} lost its driver", output
                );
            }
        }
    }
}
