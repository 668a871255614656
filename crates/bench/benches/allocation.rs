//! Criterion benchmark: runtime of the FA-tree allocation engine (the paper's
//! polynomial-time claim) as the number of addends grows.
//!
//! After the timing group, a designs/sec gate synthesizes and analyses each
//! `fa_aot` / `fa_alp` workload end to end (`Flow::run`: lowering, leaf
//! generation, FA-tree allocation, final adder, compile, timing, power, area)
//! for a fixed time slice, prints one `BENCH_synthesis.json` record line per
//! workload and enforces a per-workload floor. The floors sit at a quarter or
//! less of the rates recorded in `BENCH_synthesis.json`, so the gate trips on a
//! synthesis slowdown of several times, not on a slow CI machine; the record
//! also holds the rates of the commit before allocation-free construction, which
//! lie above the floors:
//!
//! ```bash
//! cargo bench -p dpsyn-bench --bench allocation
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dpsyn_baselines::Flow;
use dpsyn_designs::workloads::{random_sum, SumWorkload};
use dpsyn_designs::Design;
use dpsyn_tech::TechLibrary;
use std::time::{Duration, Instant};

/// Operand counts of the random-sum workloads.
const OPERANDS: [usize; 4] = [4, 8, 16, 32];

/// Time slice each designs/sec measurement fills.
const GATE_SLICE: Duration = Duration::from_millis(300);

/// The random sum of `operands` 16-bit words with skewed arrivals and
/// probabilities, at the fixed seed every run uses.
fn workload(operands: usize) -> Design {
    let workload = SumWorkload {
        operands,
        width: 16,
        max_arrival: 2.0,
        probability_skew: 0.4,
    };
    random_sum(&workload, 11)
}

/// Minimum end-to-end designs per second of either flow on the `operands`-operand
/// workload: a quarter or less of the rates recorded in `BENCH_synthesis.json`.
fn floor(operands: usize) -> f64 {
    match operands {
        4 => 2_500.0,
        8 => 1_000.0,
        16 => 400.0,
        _ => 150.0,
    }
}

fn bench_allocation(criterion: &mut Criterion) {
    let lib = TechLibrary::lcbg10pv_like();
    let mut group = criterion.benchmark_group("fa_tree_allocation");
    group.sample_size(10);
    for operands in OPERANDS {
        let design = workload(operands);
        for flow in [Flow::FaAot, Flow::FaAlp] {
            group.bench_with_input(
                BenchmarkId::new(flow.name(), operands),
                &design,
                |bencher, design| {
                    bencher.iter(|| {
                        flow.run(design.expr(), design.spec(), design.output_width(), &lib)
                            .unwrap()
                    })
                },
            );
        }
    }
    group.finish();

    designs_per_sec_gate(&lib);
}

/// Times repeated end-to-end runs, prints the `BENCH_synthesis.json` record line
/// of every workload and enforces its designs/sec floor.
fn designs_per_sec_gate(lib: &TechLibrary) {
    let host_cores = std::thread::available_parallelism().map_or(1, |cores| cores.get());
    for operands in OPERANDS {
        let design = workload(operands);
        for flow in [Flow::FaAot, Flow::FaAlp] {
            let run = || {
                flow.run(design.expr(), design.spec(), design.output_width(), lib)
                    .expect("the FA-tree flows succeed on random sums")
            };
            let cells = run().netlist.cell_count();
            let mut designs = 0u64;
            let start = Instant::now();
            while start.elapsed() < GATE_SLICE {
                black_box(run());
                designs += 1;
            }
            let designs_per_sec = designs as f64 / start.elapsed().as_secs_f64();
            let floor = floor(operands);
            println!(
                "{{\"flow\": \"{}\", \"operands\": {operands}, \"cells\": {cells}, \
                 \"designs_per_sec\": {designs_per_sec:.0}, \"floor\": {floor:.0}, \
                 \"host_cores\": {host_cores}}}",
                flow.name()
            );
            assert!(
                designs_per_sec >= floor,
                "{} must synthesize at least {floor:.0} designs/sec end to end on the \
                 {operands}-operand sum (measured {designs_per_sec:.0})",
                flow.name()
            );
        }
    }
}

criterion_group!(benches, bench_allocation);
criterion_main!(benches);
