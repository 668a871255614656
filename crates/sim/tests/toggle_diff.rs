//! Differential toggle counting: the block-based [`ToggleCounter`] path (and the
//! block-based [`measure_toggles`] built on it) must match the scalar record path
//! **exactly** — same toggles on every net, same vector count — on seeded biased
//! stimulus sequences, at every block size and regardless of how the sequence is
//! chunked into batches.

use dpsyn_ir::InputSpec;
use dpsyn_netlist::{CellKind, NetId, Netlist, Word, WordMap};
use dpsyn_sim::{measure_toggles, BlockSim, Simulator, Stimulus, ToggleCounter, BLOCK_SIZES};

/// Builds an 8-bit ripple-carry adder with an XOR/MUX post-stage — enough cell
/// variety and depth (FA, HA, XOR, MUX, NOT) to exercise every block path.
fn datapath() -> (Netlist, WordMap) {
    let mut netlist = Netlist::new("toggle_datapath");
    let a: Vec<_> = (0..8).map(|i| netlist.add_input(format!("a{i}"))).collect();
    let b: Vec<_> = (0..8).map(|i| netlist.add_input(format!("b{i}"))).collect();
    let sel = netlist.add_input("sel");
    let mut carry: Option<NetId> = None;
    let mut sum = Vec::new();
    for (a_bit, b_bit) in a.iter().zip(&b) {
        let outs = match carry {
            None => netlist.add_gate(CellKind::Ha, &[*a_bit, *b_bit]).unwrap(),
            Some(c) => netlist
                .add_gate(CellKind::Fa, &[*a_bit, *b_bit, c])
                .unwrap(),
        };
        sum.push(outs[0]);
        carry = Some(outs[1]);
    }
    sum.push(carry.unwrap());
    // Post-stage: out[i] = sel ? ~sum[i] : sum[i] ^ a[i%8].
    let mut outs = Vec::new();
    for (index, sum_bit) in sum.iter().enumerate() {
        let inverted = netlist.add_gate(CellKind::Not, &[*sum_bit]).unwrap()[0];
        let mixed = netlist
            .add_gate(CellKind::Xor2, &[*sum_bit, a[index % 8]])
            .unwrap()[0];
        let out = netlist
            .add_gate(CellKind::Mux2, &[mixed, inverted, sel])
            .unwrap()[0];
        netlist.mark_output(out);
        outs.push(out);
    }
    let map = WordMap::new(
        vec![
            Word::new("a", a),
            Word::new("b", b),
            Word::new("sel", vec![sel]),
        ],
        Word::new("out", outs),
    );
    (netlist, map)
}

fn biased_spec() -> InputSpec {
    InputSpec::builder()
        .var_with_probability("a", 8, 0.3)
        .var_with_probability("b", 8, 0.7)
        .var_with_probability("sel", 1, 0.5)
        .build()
        .unwrap()
}

/// Counts toggles the historical way: scalar evaluation, one vector at a time.
fn scalar_count(
    netlist: &Netlist,
    map: &WordMap,
    spec: &InputSpec,
    vectors: usize,
    seed: u64,
) -> ToggleCounter {
    let simulator = Simulator::compile(netlist).unwrap();
    let mut stimulus = Stimulus::with_seed(seed);
    let mut counter = ToggleCounter::new(netlist.net_count());
    for _ in 0..vectors {
        let assignment = stimulus.biased_assignment(spec);
        let values = simulator.evaluate(&map.assignment_to_bits(&assignment));
        counter.record(&values);
    }
    counter
}

/// Counts toggles on the block engine at `block`, one full pass at a time — the
/// loop `measure_toggles` runs at its default block size.
fn block_count(
    netlist: &Netlist,
    map: &WordMap,
    spec: &InputSpec,
    vectors: usize,
    seed: u64,
    block: usize,
) -> ToggleCounter {
    let simulator = BlockSim::compile(netlist, block).unwrap();
    let mut stimulus = Stimulus::with_seed(seed);
    let assignments = stimulus.biased_batch(spec, vectors);
    let mut counter = ToggleCounter::new(netlist.net_count());
    let mut blocks = simulator.block_buffer();
    for chunk in assignments.chunks(simulator.vectors_per_pass()) {
        simulator.pack_word_assignments(map, chunk, &mut blocks);
        simulator.evaluate_into(&mut blocks);
        counter.record_blocks(&blocks, block, chunk.len());
    }
    counter
}

fn assert_identical(lhs: &ToggleCounter, rhs: &ToggleCounter, netlist: &Netlist, context: &str) {
    assert_eq!(lhs.vectors(), rhs.vectors(), "{context}: vector counts");
    for (net, _) in netlist.nets() {
        assert_eq!(
            lhs.toggles(net),
            rhs.toggles(net),
            "{context}: toggles of net {net}"
        );
    }
}

/// `measure_toggles` (block-based internally) must reproduce the scalar loop exactly,
/// for vector counts that are multiples of 64, off-by-one around the lane width, and
/// smaller than one batch.
#[test]
fn measure_toggles_matches_the_scalar_loop_exactly() {
    let (netlist, map) = datapath();
    let spec = biased_spec();
    for (vectors, seed) in [
        (1usize, 3u64),
        (63, 5),
        (64, 7),
        (65, 11),
        (256, 13),
        (1000, 17),
    ] {
        let measured = measure_toggles(&netlist, &map, &spec, vectors, seed).unwrap();
        let scalar = scalar_count(&netlist, &map, &spec, vectors, seed);
        assert_identical(&measured, &scalar, &netlist, &format!("{vectors} vectors"));
    }
}

/// Chunking one sequence into arbitrary 64-lane (block-1) batch sizes (including
/// single-vector batches and mixing with the scalar `record` path) never changes
/// the counts.
#[test]
fn lane_batch_boundaries_are_seamless() {
    let (netlist, map) = datapath();
    let spec = biased_spec();
    let vectors = 200;
    let seed = 23;
    let scalar = scalar_count(&netlist, &map, &spec, vectors, seed);

    let lane_sim = BlockSim::compile(&netlist, 1).unwrap();
    let mut stimulus = Stimulus::with_seed(seed);
    let assignments = stimulus.biased_batch(&spec, vectors);
    let mut chunked = ToggleCounter::new(netlist.net_count());
    let mut lanes = lane_sim.block_buffer();
    let mut cursor = 0;
    // Deliberately ragged chunk sizes: 1, 17, 64, 3, 50, 1, 64, ...
    for size in [1usize, 17, 64, 3, 50, 1, 64].iter().cycle() {
        if cursor >= assignments.len() {
            break;
        }
        let size = (*size).min(assignments.len() - cursor);
        let chunk = &assignments[cursor..cursor + size];
        lane_sim.pack_word_assignments(&map, chunk, &mut lanes);
        lane_sim.evaluate_into(&mut lanes);
        chunked.record_blocks(&lanes, 1, size);
        cursor += size;
    }
    assert_identical(&chunked, &scalar, &netlist, "ragged lane batches");

    // Mixed mode: the first 100 vectors through the scalar `record` path, the rest
    // as 64-lane batches, on the same counter.
    let scalar_sim = Simulator::compile(&netlist).unwrap();
    let mut mixed = ToggleCounter::new(netlist.net_count());
    for assignment in &assignments[..100] {
        mixed.record(&scalar_sim.evaluate(&map.assignment_to_bits(assignment)));
    }
    for chunk in assignments[100..].chunks(64) {
        lane_sim.pack_word_assignments(&map, chunk, &mut lanes);
        lane_sim.evaluate_into(&mut lanes);
        mixed.record_blocks(&lanes, 1, chunk.len());
    }
    assert_identical(&mixed, &scalar, &netlist, "mixed scalar/lane recording");
}

/// The block engine's full-pass measurement must reproduce the scalar loop exactly
/// for every supported block size, on vector counts that are ragged against both
/// the lane width and the block width.
#[test]
fn block_measurement_matches_the_scalar_loop_exactly() {
    let (netlist, map) = datapath();
    let spec = biased_spec();
    for (vectors, seed) in [(1usize, 3u64), (63, 5), (257, 13), (1000, 17)] {
        let scalar = scalar_count(&netlist, &map, &spec, vectors, seed);
        for block in BLOCK_SIZES {
            let blocked = block_count(&netlist, &map, &spec, vectors, seed, block);
            assert_identical(
                &blocked,
                &scalar,
                &netlist,
                &format!("{vectors} vectors, block {block}"),
            );
        }
    }
}

/// Chunking one sequence into ragged block batches — and mixing block recording
/// with the scalar path and 64-lane batches on the same counter — never changes the
/// counts.
#[test]
fn block_batch_boundaries_are_seamless() {
    let (netlist, map) = datapath();
    let spec = biased_spec();
    let vectors = 700;
    let seed = 29;
    let scalar = scalar_count(&netlist, &map, &spec, vectors, seed);
    let mut stimulus = Stimulus::with_seed(seed);
    let assignments = stimulus.biased_batch(&spec, vectors);

    for block in BLOCK_SIZES {
        let block_sim = BlockSim::compile(&netlist, block).unwrap();
        let mut blocks = block_sim.block_buffer();
        let mut chunked = ToggleCounter::new(netlist.net_count());
        let mut cursor = 0;
        // Ragged against both the 64-lane word and the block width.
        for size in [1usize, 65, block * 64, 17, 129, 3].iter().cycle() {
            if cursor >= assignments.len() {
                break;
            }
            let size = (*size)
                .min(block_sim.vectors_per_pass())
                .min(assignments.len() - cursor);
            let chunk = &assignments[cursor..cursor + size];
            block_sim.pack_word_assignments(&map, chunk, &mut blocks);
            block_sim.evaluate_into(&mut blocks);
            chunked.record_blocks(&blocks, block, size);
            cursor += size;
        }
        assert_identical(
            &chunked,
            &scalar,
            &netlist,
            &format!("ragged block batches, block {block}"),
        );
    }

    // Mixed mode: scalar, then lanes, then blocks, on one counter.
    let scalar_sim = Simulator::compile(&netlist).unwrap();
    let lane_sim = BlockSim::compile(&netlist, 1).unwrap();
    let block_sim = BlockSim::compile(&netlist, 4).unwrap();
    let mut mixed = ToggleCounter::new(netlist.net_count());
    for assignment in &assignments[..50] {
        mixed.record(&scalar_sim.evaluate(&map.assignment_to_bits(assignment)));
    }
    let mut lanes = lane_sim.block_buffer();
    for chunk in assignments[50..178].chunks(64) {
        lane_sim.pack_word_assignments(&map, chunk, &mut lanes);
        lane_sim.evaluate_into(&mut lanes);
        mixed.record_blocks(&lanes, 1, chunk.len());
    }
    let mut blocks = block_sim.block_buffer();
    for chunk in assignments[178..].chunks(block_sim.vectors_per_pass()) {
        block_sim.pack_word_assignments(&map, chunk, &mut blocks);
        block_sim.evaluate_into(&mut blocks);
        mixed.record_blocks(&blocks, 4, chunk.len());
    }
    assert_identical(
        &mixed,
        &scalar,
        &netlist,
        "mixed scalar/lane/block recording",
    );
}
