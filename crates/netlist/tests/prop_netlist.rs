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

    /// `CompiledNetlist::swap_inputs` over random pin-swap sequences: a patched
    /// program equals a fresh compile of the swapped netlist, a refused swap leaves
    /// the program untouched, and repeating a patched swap restores the previous
    /// program exactly. Forward-legal swaps (both new edges point forward in the
    /// current op order) are applied and the sequence continues from them; the
    /// others are only probed, so refusing every cycle-closing swap is checked too.
    #[test]
    fn swap_inputs_patches_exactly_or_refuses(
        choices in prop::collection::vec((0usize..10, 0usize..64, 0usize..64, 0usize..64), 5..60),
        swaps in prop::collection::vec((0usize..256, 0usize..3, 0usize..256, 0usize..3), 1..40),
    ) {
        let mut netlist = seed_dag(&choices);
        let cell_ids: Vec<CellId> = netlist.cells().map(|(id, _)| id).collect();
        let mut compiled = netlist.compile().expect("acyclic by construction");
        for (a_raw, pin_a_raw, b_raw, pin_b_raw) in swaps {
            let (a, b) = (cell_ids[a_raw % cell_ids.len()], cell_ids[b_raw % cell_ids.len()]);
            let pin_a = pin_a_raw % netlist.cell(a).inputs().len();
            let pin_b = pin_b_raw % netlist.cell(b).inputs().len();
            let (source_a, source_b) = (netlist.cell(a).inputs()[pin_a], netlist.cell(b).inputs()[pin_b]);
            let forward = |net: NetId, reader: CellId| match netlist.net(net).driver() {
                None => true,
                Some((driver, _)) => compiled.op_index(driver) < compiled.op_index(reader),
            };
            let legal = forward(source_b, a) && forward(source_a, b);
            let mut swapped = netlist.clone();
            swapped.rewire_input(a, pin_a, source_b).expect("pin in range");
            swapped.rewire_input(b, pin_b, source_a).expect("pin in range");
            let fresh = swapped.compile();
            prop_assert!(!legal || fresh.is_ok(), "a forward-legal swap closed a cycle");
            let before = compiled.clone();
            if compiled.swap_inputs(a, pin_a, b, pin_b) {
                let fresh = fresh.expect("a patched swap never closes a cycle");
                prop_assert_eq!(&compiled, &fresh);
                prop_assert_eq!(compiled.structural_hash(), swapped.structural_hash());
                // The same call undoes it, byte for byte.
                let mut undone = compiled.clone();
                prop_assert!(undone.swap_inputs(a, pin_a, b, pin_b));
                prop_assert_eq!(&undone, &before);
                prop_assert_eq!(undone.structural_hash(), before.structural_hash());
            } else {
                prop_assert_eq!(&compiled, &before);
                // Refused only when compiling really reorders the ops.
                if let Ok(fresh) = &fresh {
                    prop_assert!(fresh.levels() != before.levels(), "refused a swap that keeps the op order");
                }
            }
            if legal {
                netlist = swapped;
                if compiled == before {
                    compiled = netlist.compile().expect("forward-legal swaps stay acyclic");
                }
            } else {
                compiled = before;
            }
        }
    }
}

/// Two inverters feeding two AND gates: `x = AND(!a, c)` and `y = AND(!b, c)` on
/// level 1 (in that order), `z = AND(a, b)` on level 0 and `w = BUF(x)` on level 2.
/// Returns the netlist and the cells `[not_a, not_b, x, y, z, w]`.
fn levels_fixture() -> (Netlist, Vec<CellId>) {
    let mut netlist = Netlist::new("levels");
    let a = netlist.add_input("a");
    let b = netlist.add_input("b");
    let c = netlist.add_input("c");
    let not_a = netlist.add_gate(CellKind::Not, &[a]).expect("gate")[0];
    let not_b = netlist.add_gate(CellKind::Not, &[b]).expect("gate")[0];
    let x = netlist.add_gate(CellKind::And2, &[not_a, c]).expect("gate")[0];
    let y = netlist.add_gate(CellKind::And2, &[not_b, c]).expect("gate")[0];
    let z = netlist.add_gate(CellKind::And2, &[a, b]).expect("gate")[0];
    let w = netlist.add_gate(CellKind::Buf, &[x]).expect("gate")[0];
    for output in [y, z, w] {
        netlist.mark_output(output);
    }
    let cells = netlist.cells().map(|(id, _)| id).collect();
    (netlist, cells)
}

/// Applies the swap to the netlist and to its program; returns whether the
/// program was patched, after checking it against a fresh compile (patched) or
/// its pre-call value (refused).
fn swap_both(netlist: &mut Netlist, a: CellId, pin_a: usize, b: CellId, pin_b: usize) -> bool {
    let mut compiled = netlist.compile().expect("acyclic");
    let before = compiled.clone();
    let patched = compiled.swap_inputs(a, pin_a, b, pin_b);
    let (source_a, source_b) = (
        netlist.cell(a).inputs()[pin_a],
        netlist.cell(b).inputs()[pin_b],
    );
    netlist
        .rewire_input(a, pin_a, source_b)
        .expect("pin in range");
    netlist
        .rewire_input(b, pin_b, source_a)
        .expect("pin in range");
    if patched {
        assert_eq!(
            compiled,
            netlist.compile().expect("a patched swap stays acyclic")
        );
    } else {
        assert_eq!(compiled, before);
    }
    patched
}

#[test]
fn swap_inputs_patches_when_levels_and_release_order_hold() {
    // x reads `a` on pin 1 and z reads `c`: x is still released by `!a` on level
    // 1, z stays on level 0.
    let (mut netlist, cells) = levels_fixture();
    assert!(swap_both(&mut netlist, cells[2], 1, cells[4], 0));
    // Two pins of one cell trade sources too.
    assert!(swap_both(&mut netlist, cells[4], 0, cells[4], 1));
}

#[test]
fn swap_inputs_refuses_a_level_change() {
    // x reads `a` instead of `!a` (level 1 -> 0), z reads `!a` (level 0 -> 1).
    let (mut netlist, cells) = levels_fixture();
    assert!(!swap_both(&mut netlist, cells[2], 0, cells[4], 0));
}

#[test]
fn swap_inputs_refuses_a_reorder_within_a_level() {
    // x and y trade their inverters: both stay on level 1, but y is now released
    // by the first inverter, so compiling orders it before x.
    let (mut netlist, cells) = levels_fixture();
    assert!(!swap_both(&mut netlist, cells[2], 0, cells[3], 0));
    assert_eq!(
        netlist.compile().expect("acyclic").level(1)[0].cell,
        cells[3]
    );
}

#[test]
fn swap_inputs_refuses_a_cycle() {
    // `!a` reading w's source x would close !a -> x -> !a; w reads `a` instead.
    let (mut netlist, cells) = levels_fixture();
    let mut compiled = netlist.compile().expect("acyclic");
    let before = compiled.clone();
    assert!(!compiled.swap_inputs(cells[0], 0, cells[5], 0));
    assert_eq!(compiled, before);
    let (a, x) = (
        netlist.cell(cells[0]).inputs()[0],
        netlist.cell(cells[5]).inputs()[0],
    );
    netlist.rewire_input(cells[0], 0, x).expect("pin in range");
    netlist.rewire_input(cells[5], 0, a).expect("pin in range");
    assert!(netlist.compile().is_err());
}
