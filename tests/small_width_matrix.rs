//! Exhaustive small-width equivalence matrix: every `dpsyn_designs` workload
//! generator, at every operand width up to four bits, synthesized under both
//! objectives, must match the golden expression model bit-for-bit.
//!
//! At these sizes `check_equivalence` enumerates every input assignment
//! (specs stay at or below 16 total input bits), so a pass here is a proof of
//! functional correctness rather than a sampled check.

use dpsyn_core::{Objective, Synthesizer};
use dpsyn_designs::workloads::{random_sum, random_sum_of_products, single_column, SumWorkload};
use dpsyn_designs::Design;
use dpsyn_explore::{explore, BiasProfile, ExplorationSpec, Flow, SkewProfile};
use dpsyn_sim::check_equivalence;
use dpsyn_tech::TechLibrary;

/// Synthesizes `design` under `objective` and checks it against the golden model.
fn check_design(design: &Design, objective: Objective) {
    let lib = TechLibrary::lcbg10pv_like();
    let width = design.output_width();
    let synthesized = Synthesizer::new(design.expr(), design.spec())
        .objective(objective)
        .technology(&lib)
        .output_width(width)
        .name(design.name())
        .run()
        .unwrap_or_else(|error| panic!("{} under {objective:?}: {error}", design.name()));
    // At these widths every spec is ≤ 16 input bits, so the check enumerates the
    // space exhaustively and the raised random-vector count (256 → 4096, cheap on
    // the bit-parallel engine) only governs the fallback for any future wider entry.
    // New wall-clock: the whole suite runs in ~1.2 s (`cargo test -q`, debug).
    check_equivalence(
        synthesized.netlist(),
        synthesized.word_map(),
        design.expr(),
        design.spec(),
        width,
        4096,
        41,
    )
    .unwrap_or_else(|error| panic!("{} under {objective:?}: {error}", design.name()));
}

fn check_both_objectives(design: &Design) {
    check_design(design, Objective::Timing);
    check_design(design, Objective::Power);
}

#[test]
fn random_sums_at_small_widths_are_equivalent() {
    for width in 1..=4u32 {
        for operands in [2usize, 3, 4] {
            let workload = SumWorkload {
                operands,
                width,
                max_arrival: 2.0,
                probability_skew: 0.4,
            };
            // Two seeds per shape so the matrix is not tied to one profile draw.
            for seed in [1u64, 9] {
                check_both_objectives(&random_sum(&workload, seed));
            }
        }
    }
}

#[test]
fn random_sums_of_products_at_small_widths_are_equivalent() {
    for width in 1..=4u32 {
        // 2 * terms * width input bits must stay enumerable: cap terms by width.
        let max_terms = match width {
            1 => 3,
            2 => 3,
            _ => 2,
        };
        for terms in 1..=max_terms {
            check_both_objectives(&random_sum_of_products(terms, width, 23));
        }
    }
}

#[test]
fn single_columns_are_equivalent() {
    let profiles: [&[f64]; 4] = [
        &[0.0, 0.0],
        &[3.0, 1.0, 2.0],
        &[7.0, 2.0, 3.0, 2.0, 0.0],
        &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0],
    ];
    for arrivals in profiles {
        check_both_objectives(&single_column(arrivals));
    }
}

#[test]
fn fixed_small_designs_are_equivalent_under_both_objectives() {
    // The Table-1 designs whose specs are small enough to enumerate exhaustively.
    check_both_objectives(&dpsyn_designs::x_squared());
    check_both_objectives(&dpsyn_designs::x_cubed());
}

#[test]
fn every_explorer_driven_point_at_small_widths_is_equivalent() {
    // Explorer-driven configs: the exploration engine materializes the design of every
    // point itself (workload widths, skew and bias profiles applied), so this check
    // covers the engine's job materialization as well as every flow it dispatches.
    // All operand widths stay <= 4, so every point is checked exhaustively.
    let spec = ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .design(dpsyn_designs::x_cubed())
        .sum_workload(3)
        .sum_of_products_workload(2)
        .widths([2, 4])
        .skews([SkewProfile::Keep, SkewProfile::Uniform(2.0)])
        .biases([BiasProfile::Uniform(0.3)])
        .flows([
            Flow::Conventional,
            Flow::CsaOpt,
            Flow::WallaceFixed,
            Flow::FaRandom(13),
            Flow::FaAot,
            Flow::FaAlp,
            Flow::FaAnneal(13),
        ])
        .seed(29)
        .threads(4)
        .retain_artifacts(true)
        .build()
        .expect("explorer spec is well-formed");
    let results = explore(&spec).expect("exploration succeeds");
    // 2 fixed designs x 2 skews x 7 flows + 2 workloads x 2 widths x 2 skews x 7 flows.
    assert_eq!(results.points().len(), 28 + 56);
    let jobs = spec.jobs();
    for point in results.points() {
        let job = &jobs[point.job.index()];
        let design = spec.materialize(job);
        assert!(
            design.spec().total_bits() <= 16,
            "{}: widen the exhaustive budget if this grows",
            point.job
        );
        let artifact = point
            .artifact
            .as_ref()
            .expect("retain_artifacts keeps every netlist");
        check_equivalence(
            &artifact.netlist,
            &artifact.word_map,
            design.expr(),
            design.spec(),
            design.output_width(),
            4096,
            41,
        )
        .unwrap_or_else(|error| panic!("{}: {error}", point.job));
    }
}
