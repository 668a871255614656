//! Criterion benchmark: simulation throughput (vectors/second) on a 16×16
//! Wallace-tree multiplier (~560 cells) — the scalar oracle one vector at a time,
//! the block engine at `B = 1` (64 vectors per pass), and at `B = 4` (256 vectors
//! per pass) — plus a speedup gate.
//!
//! Beyond the criterion timings, the harness measures the three directly and
//! **asserts two floors**: block 1 is at least 10× faster per vector than the scalar
//! oracle (bit-parallel evaluation), and block 4 is at least 1.5× faster per vector
//! than four block-1 passes over the same 256 vectors (one pass over the op stream
//! amortizes dispatch across `B` words per net). It prints a JSON line (the format
//! of the committed `BENCH_sim.json` baseline) so the perf trajectory can be
//! tracked:
//!
//! ```bash
//! cargo bench -p dpsyn-bench --bench sim_block_throughput
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpsyn_ir::InputSpec;
use dpsyn_modules::multiplier::wallace_multiply;
use dpsyn_netlist::{NetId, Netlist, Word, WordMap};
use dpsyn_sim::{BlockSim, Simulator, Stimulus, DEFAULT_BLOCK, LANES};
use std::collections::BTreeMap;
use std::time::Instant;

/// One 256-vector stimulus batch for the multiplier in three representations: per-net scalar bits (first 64 vectors), four 64-vector
/// block-1 buffers, and one 4-word block buffer.
struct Workload {
    scalar_vectors: Vec<BTreeMap<NetId, bool>>,
    lane_batches: Vec<Vec<u64>>,
    packed_blocks: Vec<u64>,
}

fn workload(lane_sim: &BlockSim, block_sim: &BlockSim, map: &WordMap) -> Workload {
    let spec = InputSpec::builder()
        .var("a", 16)
        .var("b", 16)
        .build()
        .expect("valid spec");
    let mut stimulus = Stimulus::with_seed(2024);
    let assignments = stimulus.uniform_batch(&spec, block_sim.vectors_per_pass());
    let scalar_vectors = assignments[..LANES]
        .iter()
        .map(|assignment| map.assignment_to_bits(assignment))
        .collect();
    let lane_batches = assignments
        .chunks(LANES)
        .map(|chunk| {
            let mut lanes = lane_sim.block_buffer();
            lane_sim.pack_word_assignments(map, chunk, &mut lanes);
            lanes
        })
        .collect();
    let mut packed_blocks = block_sim.block_buffer();
    block_sim.pack_word_assignments(map, &assignments, &mut packed_blocks);
    Workload {
        scalar_vectors,
        lane_batches,
        packed_blocks,
    }
}

fn multiplier() -> (Netlist, WordMap) {
    let mut netlist = Netlist::new("mult16");
    let a: Vec<_> = (0..16)
        .map(|i| netlist.add_input(format!("a{i}")))
        .collect();
    let b: Vec<_> = (0..16)
        .map(|i| netlist.add_input(format!("b{i}")))
        .collect();
    let product = wallace_multiply(&mut netlist, &a, &b).expect("multiplier generation");
    for net in &product {
        netlist.mark_output(*net);
    }
    let map = WordMap::new(
        vec![Word::new("a", a), Word::new("b", b)],
        Word::new("p", product),
    );
    (netlist, map)
}

/// One sweep of the 64 scalar vectors.
fn scalar_sweep(scalar: &Simulator, workload: &Workload) {
    for vector in &workload.scalar_vectors {
        black_box(scalar.evaluate(vector));
    }
}

/// One sweep of the 256 vectors as four block-1 passes.
fn lane_sweep(lane_sim: &BlockSim, workload: &Workload, lanes: &mut [u64]) {
    for batch in &workload.lane_batches {
        lanes.copy_from_slice(batch);
        lane_sim.evaluate_into(lanes);
        black_box(lanes[0]);
    }
}

/// One sweep of the 256 vectors as a single block pass.
fn block_sweep(block_sim: &BlockSim, workload: &Workload, blocks: &mut [u64]) {
    blocks.copy_from_slice(&workload.packed_blocks);
    block_sim.evaluate_into(blocks);
    black_box(blocks[0]);
}

/// Vectors per second of `sweep` (covering `vectors` vectors), repeated until
/// ~0.2 s have elapsed.
fn vectors_per_sec(vectors: usize, mut sweep: impl FnMut()) -> f64 {
    let mut sweeps = 0u64;
    let start = Instant::now();
    while start.elapsed().as_millis() < 200 {
        sweep();
        sweeps += 1;
    }
    (sweeps * vectors as u64) as f64 / start.elapsed().as_secs_f64()
}

fn bench_sim_block_throughput(criterion: &mut Criterion) {
    let (netlist, map) = multiplier();
    let scalar = Simulator::compile(&netlist).expect("acyclic");
    let lane_sim = BlockSim::compile(&netlist, 1).expect("acyclic");
    let block_sim = BlockSim::compile(&netlist, DEFAULT_BLOCK).expect("acyclic");
    let workload = workload(&lane_sim, &block_sim, &map);
    let mut lanes = lane_sim.block_buffer();
    let mut blocks = block_sim.block_buffer();
    let mut group = criterion.benchmark_group("sim_block_throughput");
    group.sample_size(20);
    group.bench_function("scalar_oracle_64_vectors", |bencher| {
        bencher.iter(|| scalar_sweep(&scalar, &workload))
    });
    group.bench_function("block1_engine_256_vectors", |bencher| {
        bencher.iter(|| lane_sweep(&lane_sim, &workload, &mut lanes))
    });
    group.bench_function("block_engine_256_vectors", |bencher| {
        bencher.iter(|| block_sweep(&block_sim, &workload, &mut blocks))
    });
    group.finish();

    // Speedup gate: time the three directly, print the `BENCH_sim.json` record,
    // and enforce both floors.
    let vectors = block_sim.vectors_per_pass();
    let scalar_vps = vectors_per_sec(LANES, || scalar_sweep(&scalar, &workload));
    let lane_vps = vectors_per_sec(vectors, || lane_sweep(&lane_sim, &workload, &mut lanes));
    let block_vps = vectors_per_sec(vectors, || block_sweep(&block_sim, &workload, &mut blocks));
    let lane_vs_scalar = lane_vps / scalar_vps;
    let block_vs_lane = block_vps / lane_vps;
    println!(
        "{{\"workload\": \"wallace_mult_16x16\", \"cells\": {}, \"nets\": {}, \
         \"block\": {}, \"scalar_vectors_per_sec\": {:.0}, \
         \"lane_vectors_per_sec\": {:.0}, \"block_vectors_per_sec\": {:.0}, \
         \"lane_vs_scalar_speedup\": {:.1}, \"block_vs_lane_speedup\": {:.2}}}",
        netlist.cell_count(),
        netlist.net_count(),
        DEFAULT_BLOCK,
        scalar_vps,
        lane_vps,
        block_vps,
        lane_vs_scalar,
        block_vs_lane
    );
    assert!(
        lane_vs_scalar >= 10.0,
        "the block engine at B = 1 must be at least 10x faster than the scalar oracle \
         (measured {lane_vs_scalar:.1}x: {lane_vps:.0} vs {scalar_vps:.0} vectors/sec)"
    );
    assert!(
        block_vs_lane >= 1.5,
        "the block engine at B = {DEFAULT_BLOCK} must be at least 1.5x faster than \
         repeated B = 1 passes (measured {block_vs_lane:.2}x: {block_vps:.0} vs \
         {lane_vps:.0} vectors/sec)"
    );
}

criterion_group!(benches, bench_sim_block_throughput);
criterion_main!(benches);
