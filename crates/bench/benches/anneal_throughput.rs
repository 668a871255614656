//! Criterion benchmark: `fa_anneal` local-search move throughput.
//!
//! The annealer's contract is that the *loop* never pays a from-scratch analysis:
//! exactly two full passes prime the `DeltaState` (the first `rerun_delta` of each
//! channel on the fresh state), and every proposal after that is scored (and, on rejection, rolled back) through
//! `IncrementalTiming::rerun_delta` / `IncrementalPower::rerun_delta` at dirty-cone
//! cost. The harness asserts that contract from the loop counters —
//! `full_passes == 2` and `delta_reruns == 2 * proposals + 2 * rejected` — and
//! cross-checks the carried result bit-for-bit against a from-scratch
//! [`FlowResult::analyze`] before timing anything.
//!
//! The gate then measures end-to-end moves/sec (settled proposals per second,
//! *including* the start synthesis and the two priming passes — a conservative
//! denominator) and enforces a per-workload floor set ≥ 10× under the measured
//! rate (~105k moves/sec on the polynomial, ~18k on IIR), so the gate trips on a
//! real scoring-path regression, not on a slow CI machine. The
//! `BENCH_anneal.json` record is printed:
//!
//! ```bash
//! cargo bench -p dpsyn-bench --bench anneal_throughput
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpsyn_baselines::{fa_anneal_with_stats, AnnealStats, FlowResult};
use dpsyn_ir::{parse_expr, Expr, InputSpec};
use dpsyn_tech::TechLibrary;
use std::time::Instant;

/// One annealing workload: the flow inputs plus the moves/sec floor the gate
/// enforces for it.
struct Workload {
    name: &'static str,
    expr: Expr,
    spec: InputSpec,
    width: u32,
    seed: u64,
    /// Minimum settled proposals per second, end to end.
    floor: f64,
}

/// The skewed-profile polynomial the baselines suite anneals: small enough that a
/// single search finishes in milliseconds, big enough to carry two safe swap
/// groups in its ripple spine.
fn poly_workload() -> Workload {
    Workload {
        name: "poly_a_mul_b_plus_c",
        expr: parse_expr("a*b + c + 7").expect("fixed expression parses"),
        spec: InputSpec::builder()
            .var_with_arrival("a", 4, 1.0)
            .var_with_probability("b", 4, 0.85)
            .var_with_probability("c", 4, 0.1)
            .build()
            .expect("fixed spec builds"),
        width: 9,
        seed: 3,
        floor: 5_000.0,
    }
}

/// The IIR filter section from the paper's Table 1/2 design set — a realistic
/// multi-multiplier netlist whose compile-per-proposal cost dominates the loop.
fn iir_workload() -> Workload {
    let design = dpsyn_designs::iir();
    Workload {
        name: "iir",
        expr: design.expr().clone(),
        spec: design.spec().clone(),
        width: design.output_width(),
        seed: 1,
        floor: 1_500.0,
    }
}

/// Runs one search and asserts the incremental-loop contract on its counters.
fn run_checked(workload: &Workload, tech: &TechLibrary) -> (FlowResult, AnnealStats) {
    let (result, stats) = fa_anneal_with_stats(
        &workload.expr,
        &workload.spec,
        workload.width,
        tech,
        workload.seed,
    )
    .expect("fa_anneal succeeds on the bench workloads");
    assert!(
        stats.swap_groups > 0,
        "{}: the ripple start must expose safe swap groups ({stats:?})",
        workload.name
    );
    assert!(
        stats.proposals > 0,
        "{}: the search must score at least one move ({stats:?})",
        workload.name
    );
    assert_eq!(
        stats.full_passes, 2,
        "{}: only the two priming passes may run a full analysis ({stats:?})",
        workload.name
    );
    assert_eq!(
        stats.delta_reruns,
        2 * stats.proposals + 2 * stats.rejected,
        "{}: every score and every rollback must go through rerun_delta ({stats:?})",
        workload.name
    );
    (result, stats)
}

/// Verifies the live delta view the annealer returns is bit-identical to a
/// from-scratch compile + full timing/power/area of its final netlist.
fn verify_bit_identity(workload: &Workload, tech: &TechLibrary) {
    let (result, _) = run_checked(workload, tech);
    let fresh = FlowResult::analyze(
        "fa_anneal",
        result.netlist.clone(),
        result.word_map.clone(),
        &workload.spec,
        tech,
    )
    .expect("from-scratch analysis of the annealed netlist");
    assert_eq!(
        result.compiled, fresh.compiled,
        "{}: carried program diverged from a fresh compile",
        workload.name
    );
    for (label, ours, theirs) in [
        ("delay", result.delay, fresh.delay),
        ("area", result.area, fresh.area),
        ("energy", result.switching_energy, fresh.switching_energy),
        ("power", result.power_mw, fresh.power_mw),
    ] {
        assert_eq!(
            ours.to_bits(),
            theirs.to_bits(),
            "{}: live {label} diverged from the from-scratch value",
            workload.name
        );
    }
}

fn bench_anneal_throughput(criterion: &mut Criterion) {
    let tech = TechLibrary::lcbg10pv_like();
    let workloads = [poly_workload(), iir_workload()];
    for workload in &workloads {
        verify_bit_identity(workload, &tech);
    }
    let mut group = criterion.benchmark_group("anneal_throughput");
    group.sample_size(10);
    for workload in &workloads {
        group.bench_function(format!("fa_anneal_{}", workload.name), |bencher| {
            bencher.iter(|| {
                black_box(run_checked(workload, &tech));
            })
        });
    }
    group.finish();

    moves_per_sec_gate(&workloads, &tech);
}

/// Times repeated searches, prints the `BENCH_anneal.json` record and enforces
/// each workload's end-to-end moves/sec floor.
fn moves_per_sec_gate(workloads: &[Workload], tech: &TechLibrary) {
    for workload in workloads {
        let mut proposals = 0u64;
        let mut last = AnnealStats::default();
        let start = Instant::now();
        while start.elapsed().as_millis() < 300 {
            let (result, stats) = run_checked(workload, tech);
            black_box(result);
            proposals += stats.proposals;
            last = stats;
        }
        let moves_per_sec = proposals as f64 / start.elapsed().as_secs_f64();
        println!(
            "{{\"workload\": \"{}\", \"width\": {}, \"proposals\": {}, \"accepted\": {}, \
             \"rejected\": {}, \"delta_reruns\": {}, \"full_passes\": {}, \
             \"moves_per_sec\": {:.0}, \"floor\": {:.0}}}",
            workload.name,
            workload.width,
            last.proposals,
            last.accepted,
            last.rejected,
            last.delta_reruns,
            last.full_passes,
            moves_per_sec,
            workload.floor
        );
        assert!(
            moves_per_sec >= workload.floor,
            "fa_anneal must settle at least {:.0} moves/sec end to end on {} \
             (measured {moves_per_sec:.0}); a from-scratch analysis inside the loop \
             would land far below this",
            workload.floor,
            workload.name
        );
    }
}

criterion_group!(benches, bench_anneal_throughput);
criterion_main!(benches);
