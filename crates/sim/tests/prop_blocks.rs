//! Differential property suite: on randomly grown netlists the block engine must
//! agree bit-for-bit with the scalar oracle on every net of every vector, for every
//! supported block size, with exact toggle parity across ragged batches — the
//! scalar → blocks oracle chain.

use dpsyn_netlist::{CellKind, NetId, Netlist};
use dpsyn_sim::{BlockSim, Simulator, ToggleCounter, BLOCK_SIZES, LANES};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Grows a random DAG over the full gate palette (the same construction the netlist
/// crate's own property suite uses) and returns it with its primary inputs.
fn random_dag(choices: &[(usize, usize, usize, usize)]) -> (Netlist, Vec<NetId>) {
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
    let inputs = vec![
        netlist.add_input("a"),
        netlist.add_input("b"),
        netlist.add_input("c"),
        netlist.add_input("d"),
    ];
    let mut nets = inputs.clone();
    nets.push(netlist.constant(false));
    nets.push(netlist.constant(true));
    for (kind_index, i0, i1, i2) in choices {
        let kind = palette[kind_index % palette.len()];
        let pick = |index: usize| nets[index % nets.len()];
        let gate_inputs: Vec<_> = [*i0, *i1, *i2][..kind.input_count()]
            .iter()
            .map(|index| pick(*index))
            .collect();
        let outputs = netlist.add_gate(kind, &gate_inputs).expect("gate");
        nets.extend(outputs);
    }
    let last = *nets.last().expect("at least the inputs");
    netlist.mark_output(last);
    (netlist, inputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random netlists and random 64-vector input words, every block size
    /// evaluates every net's lane words to the scalar oracle's value recomputed
    /// vector by vector.
    #[test]
    fn block_engine_agrees_with_scalar_oracle_on_all_lanes(
        choices in prop::collection::vec((0usize..10, 0usize..96, 0usize..96, 0usize..96), 1..80),
        words in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..9),
    ) {
        let (netlist, inputs) = random_dag(&choices);
        let words: Vec<[u64; 4]> = words.iter().map(|&(a, b, c, d)| [a, b, c, d]).collect();
        let scalar = Simulator::compile(&netlist).expect("acyclic by construction");
        // The scalar oracle, one vector (word position, lane) at a time.
        let expected: Vec<Vec<Vec<bool>>> = words
            .iter()
            .map(|word| {
                (0..LANES)
                    .map(|lane| {
                        let scalar_inputs: BTreeMap<NetId, bool> = inputs
                            .iter()
                            .zip(word)
                            .map(|(net, lanes)| (*net, (lanes >> lane) & 1 == 1))
                            .collect();
                        scalar.evaluate(&scalar_inputs)
                    })
                    .collect()
            })
            .collect();
        for block in BLOCK_SIZES {
            let block_sim = BlockSim::compile(&netlist, block).expect("acyclic by construction");
            for (pass, chunk) in words.chunks(block).enumerate() {
                let mut blocks = block_sim.block_buffer();
                for (offset, word) in chunk.iter().enumerate() {
                    for (net, lanes) in inputs.iter().zip(word) {
                        blocks[net.index() * block + offset] = *lanes;
                    }
                }
                block_sim.evaluate_into(&mut blocks);
                for offset in 0..chunk.len() {
                    let position = pass * block + offset;
                    for (lane, values) in expected[position].iter().enumerate() {
                        for (net, value) in values.iter().enumerate() {
                            prop_assert_eq!(
                                (blocks[net * block + offset] >> lane) & 1 == 1,
                                *value,
                                "net {} word {} lane {} diverges at block size {}",
                                net,
                                position,
                                lane,
                                block
                            );
                        }
                    }
                }
            }
        }
    }

    /// The compiled program is levelized: it has as many levels as the netlist's
    /// structural logic depth and exactly one op per cell.
    #[test]
    fn compiled_program_mirrors_the_netlist(
        choices in prop::collection::vec((0usize..10, 0usize..96, 0usize..96, 0usize..96), 1..80),
    ) {
        let (netlist, _) = random_dag(&choices);
        let block_sim = BlockSim::compile(&netlist, 1).expect("acyclic by construction");
        prop_assert_eq!(block_sim.compiled().op_count(), netlist.cell_count());
        // Structural depth: every cell sits one level above its deepest driver.
        let mut depth = vec![0usize; netlist.net_count()];
        for op in block_sim.compiled().ops() {
            let level = 1 + op.input_nets().iter().map(|net| depth[net.index()]).max().unwrap_or(0);
            for net in op.output_nets() {
                depth[net.index()] = level;
            }
        }
        prop_assert_eq!(
            block_sim.compiled().level_count(),
            depth.iter().copied().max().unwrap_or(0)
        );
        prop_assert_eq!(block_sim.net_count(), netlist.net_count());
        prop_assert_eq!(block_sim.inputs(), netlist.inputs());
    }

    /// For random netlists and a random sequence of 64-vector input words (with a
    /// ragged tail), every supported block size must (a) reproduce the block-1
    /// (64-lane) evaluation bit for bit on every net, and (b) count exactly the
    /// toggles the scalar `record` path counts over the same vector sequence —
    /// including the word-to-word seams inside a block, the batch-to-batch seams,
    /// and partially filled final blocks.
    #[test]
    fn block_engine_agrees_with_lane_oracle_on_values_and_toggles(
        choices in prop::collection::vec((0usize..10, 0usize..96, 0usize..96, 0usize..96), 1..60),
        words in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..12),
        tail in 1usize..=LANES,
    ) {
        let (netlist, inputs) = random_dag(&choices);
        let net_count = netlist.net_count();
        let lane_sim = BlockSim::compile(&netlist, 1).expect("acyclic by construction");
        // The 64-lane layout (B = 1): evaluate the word sequence one lane pass at a
        // time, keeping every evaluated buffer for the value comparison, and feed
        // the toggle oracle vector by vector through the scalar `record` path,
        // stopping at the ragged tail of the last word.
        let mut scalar_counter = ToggleCounter::new(net_count);
        let mut lane_buffers: Vec<Vec<u64>> = Vec::with_capacity(words.len());
        for (position, (a, b, c, d)) in words.iter().enumerate() {
            let mut lanes = lane_sim.block_buffer();
            lanes[inputs[0].index()] = *a;
            lanes[inputs[1].index()] = *b;
            lanes[inputs[2].index()] = *c;
            lanes[inputs[3].index()] = *d;
            lane_sim.evaluate_into(&mut lanes);
            let count = if position + 1 == words.len() { tail } else { LANES };
            for lane in 0..count {
                let values: Vec<bool> = lanes.iter().map(|word| (word >> lane) & 1 == 1).collect();
                scalar_counter.record(&values);
            }
            lane_buffers.push(lanes);
        }
        for block in BLOCK_SIZES {
            let block_sim = BlockSim::compile(&netlist, block).expect("acyclic");
            prop_assert_eq!(block_sim.vectors_per_pass(), block * LANES);
            let mut block_counter = ToggleCounter::new(net_count);
            let mut position = 0;
            while position < words.len() {
                let take = (words.len() - position).min(block);
                let mut blocks = block_sim.block_buffer();
                for offset in 0..take {
                    let (a, b, c, d) = words[position + offset];
                    blocks[inputs[0].index() * block + offset] = a;
                    blocks[inputs[1].index() * block + offset] = b;
                    blocks[inputs[2].index() * block + offset] = c;
                    blocks[inputs[3].index() * block + offset] = d;
                }
                block_sim.evaluate_into(&mut blocks);
                // (a) value identity: every evaluated word of every net matches
                // the 64-lane evaluation of the same stimulus position.
                for offset in 0..take {
                    for net in 0..net_count {
                        prop_assert_eq!(
                            blocks[net * block + offset],
                            lane_buffers[position + offset][net],
                            "net {} word {} diverges at block size {}",
                            net,
                            position + offset,
                            block
                        );
                    }
                }
                let count = if position + take == words.len() {
                    (take - 1) * LANES + tail
                } else {
                    take * LANES
                };
                block_counter.record_blocks(&blocks, block, count);
                position += take;
            }
            // (b) exact toggle parity with the scalar record path.
            prop_assert_eq!(
                block_counter.vectors(),
                scalar_counter.vectors(),
                "vector count diverges at block size {}",
                block
            );
            for net in 0..net_count {
                prop_assert_eq!(
                    block_counter.toggles(netlist_net(&netlist, net)),
                    scalar_counter.toggles(netlist_net(&netlist, net)),
                    "toggle count diverges on net {} at block size {}",
                    net,
                    block
                );
            }
        }
    }
}

/// Recovers the `NetId` with a given index (net identifier construction is private
/// to the netlist crate).
fn netlist_net(netlist: &Netlist, index: usize) -> NetId {
    netlist
        .nets()
        .map(|(id, _)| id)
        .find(|id| id.index() == index)
        .expect("every index below net_count is a live net")
}
