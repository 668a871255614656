//! Criterion benchmark: runtime of the FA-tree allocation engine (the paper's
//! polynomial-time claim) as the number of addends grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpsyn_baselines::Flow;
use dpsyn_designs::workloads::{random_sum, SumWorkload};
use dpsyn_tech::TechLibrary;

fn bench_allocation(criterion: &mut Criterion) {
    let lib = TechLibrary::lcbg10pv_like();
    let mut group = criterion.benchmark_group("fa_tree_allocation");
    group.sample_size(10);
    for operands in [4usize, 8, 16, 32] {
        let workload = SumWorkload {
            operands,
            width: 16,
            max_arrival: 2.0,
            probability_skew: 0.4,
        };
        let design = random_sum(&workload, 11);
        group.bench_with_input(
            BenchmarkId::new("fa_aot", operands),
            &design,
            |bencher, design| {
                bencher.iter(|| {
                    Flow::FaAot
                        .run(design.expr(), design.spec(), design.output_width(), &lib)
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fa_alp", operands),
            &design,
            |bencher, design| {
                bencher.iter(|| {
                    Flow::FaAlp
                        .run(design.expr(), design.spec(), design.output_width(), &lib)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_allocation);
criterion_main!(benches);
