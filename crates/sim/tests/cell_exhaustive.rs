//! Exhaustive per-cell differential test: every [`CellKind`] is evaluated over its
//! full input cube three ways — scalar [`CellKind::evaluate`], the block engine on a
//! one-cell netlist at every supported block size, and a hand-written truth-table
//! literal — and all three must agree on every pattern and output pin.

use dpsyn_netlist::{CellKind, Netlist, Word, WordMap};
use dpsyn_sim::{BlockSim, BLOCK_SIZES};
use std::collections::BTreeMap;

/// The expected truth table of a cell kind, written out literally: row `pattern`
/// (input pin `i` = bit `i` of the pattern) lists the output pins in order.
fn truth_table(kind: CellKind) -> Vec<Vec<bool>> {
    const F: bool = false;
    const T: bool = true;
    match kind {
        // pattern = cin·2² + b·2 + a  →  [sum, cout]
        CellKind::Fa => vec![
            vec![F, F], // 0 + 0 + 0
            vec![T, F], // 1 + 0 + 0
            vec![T, F], // 0 + 1 + 0
            vec![F, T], // 1 + 1 + 0
            vec![T, F], // 0 + 0 + 1
            vec![F, T], // 1 + 0 + 1
            vec![F, T], // 0 + 1 + 1
            vec![T, T], // 1 + 1 + 1
        ],
        // pattern = b·2 + a  →  [sum, cout]
        CellKind::Ha => vec![vec![F, F], vec![T, F], vec![T, F], vec![F, T]],
        CellKind::And2 => vec![vec![F], vec![F], vec![F], vec![T]],
        CellKind::And3 => vec![
            vec![F],
            vec![F],
            vec![F],
            vec![F],
            vec![F],
            vec![F],
            vec![F],
            vec![T],
        ],
        CellKind::Or2 => vec![vec![F], vec![T], vec![T], vec![T]],
        CellKind::Xor2 => vec![vec![F], vec![T], vec![T], vec![F]],
        CellKind::Xor3 => vec![
            vec![F],
            vec![T],
            vec![T],
            vec![F],
            vec![T],
            vec![F],
            vec![F],
            vec![T],
        ],
        CellKind::Not => vec![vec![T], vec![F]],
        CellKind::Buf => vec![vec![F], vec![T]],
        // pattern = sel·4 + b·2 + a  →  [sel ? b : a]
        CellKind::Mux2 => vec![
            vec![F], // a=0 b=0 sel=0 -> a
            vec![T], // a=1 b=0 sel=0 -> a
            vec![F], // a=0 b=1 sel=0 -> a
            vec![T], // a=1 b=1 sel=0 -> a
            vec![F], // a=0 b=0 sel=1 -> b
            vec![F], // a=1 b=0 sel=1 -> b
            vec![T], // a=0 b=1 sel=1 -> b
            vec![T], // a=1 b=1 sel=1 -> b
        ],
        CellKind::Const0 => vec![vec![F]],
        CellKind::Const1 => vec![vec![T]],
    }
}

/// Builds the one-cell netlist for `kind`: one primary input per input pin, every
/// output marked, and a word map exposing the pattern/result words.
fn single_cell(kind: CellKind) -> (Netlist, WordMap) {
    let mut netlist = Netlist::new(format!("{kind}_cell"));
    let inputs: Vec<_> = (0..kind.input_count())
        .map(|pin| netlist.add_input(format!("i{pin}")))
        .collect();
    let outputs = netlist.add_gate(kind, &inputs).expect("fixed arity");
    for net in &outputs {
        netlist.mark_output(*net);
    }
    let map = WordMap::new(
        vec![Word::new("pattern", inputs)],
        Word::new("result", outputs),
    );
    (netlist, map)
}

#[test]
fn every_cell_kind_matches_scalar_and_truth_table_on_the_full_cube() {
    for kind in CellKind::all() {
        let table = truth_table(kind);
        assert_eq!(
            table.len(),
            1 << kind.input_count(),
            "{kind}: table covers the full cube"
        );
        let (netlist, map) = single_cell(kind);
        // The whole cube in one pass (at most 8 vectors used).
        let batch: Vec<BTreeMap<String, u64>> = (0..table.len() as u64)
            .map(|pattern| {
                let mut assignment = BTreeMap::new();
                assignment.insert("pattern".to_string(), pattern);
                assignment
            })
            .collect();
        let block_results: Vec<Vec<u64>> = BLOCK_SIZES
            .iter()
            .map(|&block| {
                BlockSim::compile(&netlist, block)
                    .unwrap()
                    .evaluate_word_batch(&map, &batch)
            })
            .collect();
        for (pattern, expected_outputs) in table.iter().enumerate() {
            let inputs: Vec<bool> = (0..kind.input_count())
                .map(|pin| (pattern >> pin) & 1 == 1)
                .collect();
            // Scalar `CellKind::evaluate` vs the truth-table literal.
            let scalar_outputs = kind.evaluate(&inputs);
            assert_eq!(
                &scalar_outputs, expected_outputs,
                "{kind}: scalar evaluation diverges from the truth table on {pattern:#b}"
            );
            // Block engine vs the truth-table literal, pin by pin.
            let expected_word: u64 = expected_outputs
                .iter()
                .enumerate()
                .fold(0, |acc, (pin, bit)| acc | ((*bit as u64) << pin));
            for (block, results) in BLOCK_SIZES.iter().zip(&block_results) {
                assert_eq!(
                    results[pattern], expected_word,
                    "{kind}: block-{block} evaluation diverges from the truth table on \
                     {pattern:#b}"
                );
            }
        }
    }
}
