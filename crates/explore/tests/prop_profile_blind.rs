//! Pins `Flow::is_profile_blind`, the premise of the exploration engine's structure
//! reuse: a blind flow's later points in a skew/bias group are analysed on the
//! structure its first point synthesized, so redrawing a design's arrival times and
//! signal probabilities must leave a blind flow's netlist and word map equal.
//!
//! The witnesses pin the other direction: each flow outside the predicate has a
//! design whose structure follows a profile channel, so the predicate cannot be
//! widened to it without a failing test.

use dpsyn_baselines::FlowSynthesis;
use dpsyn_designs::workloads::{random_sum, random_sum_of_products, SumWorkload};
use dpsyn_designs::Design;
use dpsyn_explore::Flow;
use dpsyn_ir::{BitProfile, InputSpec};
use dpsyn_netlist::{Netlist, WordMap};
use dpsyn_tech::TechLibrary;
use proptest::prelude::*;

const BLIND: [Flow; 3] = [Flow::Conventional, Flow::WallaceFixed, Flow::FaRandom(8)];

/// Every flow the exploration engine sweeps.
const SWEPT: [Flow; 6] = [
    Flow::Conventional,
    Flow::CsaOpt,
    Flow::WallaceFixed,
    Flow::FaRandom(8),
    Flow::FaAot,
    Flow::FaAlp,
];

/// The unanalysed structure `flow` synthesizes for `design`.
fn structure(flow: Flow, design: &Design) -> (Netlist, WordMap) {
    let synthesis = flow
        .synthesize(
            design.expr(),
            design.spec(),
            design.output_width(),
            &TechLibrary::lcbg10pv_like(),
        )
        .unwrap_or_else(|error| panic!("{flow} on {}: {error}", design.name()));
    match synthesis {
        FlowSynthesis::Unanalyzed(parts) => (parts.netlist, parts.word_map),
        FlowSynthesis::Analyzed(result) => (result.netlist, result.word_map),
    }
}

/// A random design: a benchmark design, a random sum or a random sum of products.
fn design() -> impl Strategy<Value = Design> {
    prop_oneof![
        (0usize..5).prop_map(|index| match index {
            0 => dpsyn_designs::x_squared(),
            1 => dpsyn_designs::x2_x_y(),
            2 => dpsyn_designs::mixed_poly(),
            3 => dpsyn_designs::iir(),
            _ => dpsyn_designs::serial_adapter(),
        }),
        (2usize..7, 2u32..7, any::<u64>()).prop_map(|(operands, width, seed)| {
            let workload = SumWorkload {
                operands,
                width,
                max_arrival: 3.0,
                probability_skew: 0.3,
            };
            random_sum(&workload, seed)
        }),
        (1usize..3, 2u32..5, any::<u64>())
            .prop_map(|(terms, width, seed)| random_sum_of_products(terms, width, seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random arrival and probability redraws never change the structure of a
    /// flow the predicate calls blind.
    #[test]
    fn blind_flows_ignore_profile_redraws(
        design in design(),
        skew_seed in any::<u64>(),
        max_arrival in 0.0f64..6.0,
        bias_seed in any::<u64>(),
        bias in 0.0f64..=0.5,
    ) {
        let redrawn = design
            .with_uniform_arrival_skew(skew_seed, max_arrival)
            .with_probability_bias(bias_seed, bias);
        let random = design.with_random_probabilities(bias_seed);
        for flow in SWEPT.into_iter().filter(Flow::is_profile_blind) {
            let base = structure(flow, &design);
            prop_assert!(base == structure(flow, &redrawn), "{} on {}", flow, design.name());
            prop_assert!(base == structure(flow, &random), "{} on {}", flow, design.name());
        }
    }
}

/// `a + b + c + d` over 2-bit words whose bits carry `profile(word)`.
fn four_words(profile: impl Fn(usize) -> BitProfile) -> Design {
    let mut spec = InputSpec::builder();
    for (word, name) in ["a", "b", "c", "d"].into_iter().enumerate() {
        spec = spec.var_with_profiles(name, vec![profile(word); 2]);
    }
    Design::new(
        "four_words",
        "four-operand sum",
        "a + b + c + d",
        spec.build().expect("legal profiles"),
        4,
    )
}

#[test]
fn the_flows_outside_the_predicate_follow_their_profiles() {
    let flat = four_words(|_| BitProfile::new(0.0, 0.5));
    // Word `a` arrives last: the arrival channel.
    let late_a = four_words(|word| BitProfile::new(if word == 0 { 3.0 } else { 0.0 }, 0.5));
    // Word `d` is the most biased: the probability channel, arrivals all equal.
    let biased_d = four_words(|word| BitProfile::new(0.0, if word == 3 { 0.05 } else { 0.5 }));
    let changes = |flow: Flow, redrawn: &Design| structure(flow, &flat) != structure(flow, redrawn);
    // `fa_aot` selects by arrival, and breaks arrival ties on |q|.
    assert!(changes(Flow::FaAot, &late_a));
    assert!(
        changes(Flow::FaAot, &biased_d),
        "fa_aot's tie-break channel"
    );
    // `fa_alp` selects by |q|, and breaks |q| ties on arrival.
    assert!(changes(Flow::FaAlp, &biased_d));
    assert!(changes(Flow::FaAlp, &late_a), "fa_alp's tie-break channel");
    // `csa_opt` orders its operands by word-level arrival.
    assert!(changes(Flow::CsaOpt, &late_a), "csa_opt's word arrivals");
    for flow in [Flow::FaAot, Flow::FaAlp, Flow::CsaOpt, Flow::FaAnneal(1)] {
        assert!(!flow.is_profile_blind(), "{flow}");
    }
    // The blind flows, by contrast, see one structure.
    for flow in BLIND {
        assert!(flow.is_profile_blind(), "{flow}");
        assert!(
            !changes(flow, &late_a) && !changes(flow, &biased_d),
            "{flow}"
        );
    }
}
