//! Cross-flow functional equivalence: every synthesis flow produces a netlist that
//! computes the same value as the golden expression model on every benchmark design it
//! is exercised with here.

use dpsyn_baselines::Flow;
use dpsyn_designs::Design;
use dpsyn_sim::check_equivalence;
use dpsyn_tech::TechLibrary;

fn check_all_flows(design: &Design, vectors: usize) {
    let lib = TechLibrary::lcbg10pv_like();
    let width = design.output_width();
    let flows = [
        Flow::FaAot,
        Flow::FaAlp,
        Flow::WallaceFixed,
        Flow::FaRandom(13),
        Flow::CsaOpt,
        Flow::Conventional,
    ]
    .map(|flow| {
        flow.run(design.expr(), design.spec(), width, &lib)
            .unwrap_or_else(|error| panic!("{flow} on {}: {error}", design.name()))
    });
    for flow in &flows {
        check_equivalence(
            &flow.netlist,
            &flow.word_map,
            design.expr(),
            design.spec(),
            width,
            vectors,
            97,
        )
        .unwrap_or_else(|error| panic!("{} on {}: {error}", flow.flow, design.name()));
    }
}

// Vector counts below were raised 20–50× when `check_equivalence` moved to the
// bit-parallel engine. At these counts the whole four-test suite finishes in ~2 s
// under the tier-1 profile (`cargo test -q`, debug build) — synthesis of the 6
// flows per design, not simulation, dominates.

#[test]
fn polynomial_designs_are_equivalent_across_flows() {
    // Raised from 200/200/60 vectors (x² and x³ enumerate exhaustively anyway).
    check_all_flows(&dpsyn_designs::x_squared(), 4096);
    check_all_flows(&dpsyn_designs::x_cubed(), 4096);
    check_all_flows(&dpsyn_designs::mixed_poly(), 4096);
}

#[test]
fn quadratic_designs_are_equivalent_across_flows() {
    // Raised from 60/60; both specs enumerate exhaustively at 16 input bits, so the
    // count only governs the random fallback.
    check_all_flows(&dpsyn_designs::x2_x_y(), 4096);
    check_all_flows(&dpsyn_designs::binomial_square(), 4096);
}

#[test]
fn filter_designs_are_equivalent_across_flows() {
    // Raised from 40/40 random vectors.
    check_all_flows(&dpsyn_designs::iir(), 2048);
    check_all_flows(&dpsyn_designs::serial_adapter(), 2048);
}

#[test]
fn wide_designs_are_equivalent_across_flows() {
    // Raised from 25/20 random vectors (the kalman netlists are the largest here).
    check_all_flows(&dpsyn_designs::complex_mult(), 1024);
    check_all_flows(&dpsyn_designs::kalman(), 1024);
}
