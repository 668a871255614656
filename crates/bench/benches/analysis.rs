//! Criterion benchmark: static timing analysis, probability propagation and logic
//! simulation throughput over a synthesized IIR datapath.

use criterion::{criterion_group, criterion_main, Criterion};
use dpsyn_core::{Objective, Synthesizer};
use dpsyn_power::ProbabilityAnalysis;
use dpsyn_sim::{BlockSim, Simulator, Stimulus, LANES};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::TimingAnalysis;

fn bench_analysis(criterion: &mut Criterion) {
    let lib = TechLibrary::lcbg10pv_like();
    let design = dpsyn_designs::iir();
    let synthesized = Synthesizer::new(design.expr(), design.spec())
        .objective(Objective::Timing)
        .technology(&lib)
        .output_width(design.output_width())
        .run()
        .expect("iir synthesis");
    let netlist = synthesized.netlist();
    let mut group = criterion.benchmark_group("analysis");
    group.sample_size(20);
    group.bench_function("static_timing_analysis", |bencher| {
        bencher.iter(|| TimingAnalysis::new(&lib).run(netlist).unwrap())
    });
    group.bench_function("probability_propagation", |bencher| {
        bencher.iter(|| ProbabilityAnalysis::new(&lib).run(netlist).unwrap())
    });
    // The same analyses over a pre-compiled shared program (what the synthesizer,
    // the flow layer and the explorer do): levelization is paid once, outside the
    // measured loop.
    let compiled = netlist.compile().unwrap();
    group.bench_function("static_timing_analysis_compiled", |bencher| {
        bencher.iter(|| TimingAnalysis::new(&lib).run_compiled(&compiled).unwrap())
    });
    group.bench_function("probability_propagation_compiled", |bencher| {
        bencher.iter(|| {
            ProbabilityAnalysis::new(&lib)
                .run_compiled(&compiled)
                .unwrap()
        })
    });
    group.bench_function("logic_simulation_100_vectors", |bencher| {
        let simulator = Simulator::compile(netlist).unwrap();
        let mut stimulus = Stimulus::with_seed(5);
        let vectors: Vec<_> = (0..100)
            .map(|_| {
                synthesized
                    .word_map()
                    .assignment_to_bits(&stimulus.uniform_assignment(design.spec()))
            })
            .collect();
        bencher.iter(|| {
            for vector in &vectors {
                simulator.evaluate(vector);
            }
        })
    });
    // The same work on the block engine at B = 1: 100 vectors fit into two
    // 64-lane passes.
    group.bench_function("lane_simulation_100_vectors", |bencher| {
        let simulator = BlockSim::compile(netlist, 1).unwrap();
        let mut stimulus = Stimulus::with_seed(5);
        let assignments = stimulus.uniform_batch(design.spec(), 100);
        let batches: Vec<Vec<u64>> = assignments
            .chunks(LANES)
            .map(|chunk| {
                let mut lanes = simulator.block_buffer();
                simulator.pack_word_assignments(synthesized.word_map(), chunk, &mut lanes);
                lanes
            })
            .collect();
        let mut lanes = simulator.block_buffer();
        bencher.iter(|| {
            for batch in &batches {
                lanes.copy_from_slice(batch);
                simulator.evaluate_into(&mut lanes);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
