//! Property tests for the leaf prefix: growing a design from a prefix built under
//! one draw of the input profiles gives exactly what a fresh synthesis under
//! another draw gives — the same netlist, word map and reduced rows — for every
//! selection strategy and final adder, because the prefix carries no profile and
//! the leaf estimates are derived from the design point's own profiles.

use dpsyn_core::{
    allocate_fa_tree, FinalAdderKind, LeafPrefix, SelectionStrategy, SynthesisError, Synthesizer,
};
use dpsyn_ir::{parse_expr, BitProfile, Expr, InputSpec};
use dpsyn_tech::TechLibrary;
use proptest::prelude::*;

const VARS: [&str; 3] = ["a", "b", "c"];

/// Renders a random polynomial over `a`, `b`, `c`: one term per distinct monomial
/// (a non-empty variable mask, optionally squaring its first variable) with a
/// non-zero signed coefficient, plus a constant.
fn expression(terms: &[(i64, u32, bool)], constant: i64) -> Expr {
    let mut source = constant.to_string();
    let mut seen = Vec::new();
    for &(coefficient, mask, square) in terms {
        if coefficient == 0 || seen.contains(&(mask, square)) {
            continue;
        }
        seen.push((mask, square));
        let mut factors: Vec<&str> = VARS
            .iter()
            .enumerate()
            .filter(|(index, _)| mask & (1 << index) != 0)
            .map(|(_, name)| *name)
            .collect();
        if square {
            factors.push(factors[0]);
        }
        let sign = if coefficient < 0 { '-' } else { '+' };
        source.push_str(&format!(
            " {sign} {}*{}",
            coefficient.unsigned_abs(),
            factors.join("*")
        ));
    }
    parse_expr(&source).expect("generated expressions parse")
}

/// One draw of per-bit profiles over the variables' widths (`bits` holds three
/// draws per variable; each variable takes its first `width`).
fn spec(widths: &[u32], bits: &[(f64, f64)]) -> InputSpec {
    let mut builder = InputSpec::builder();
    for (index, (name, &width)) in VARS.iter().zip(widths).enumerate() {
        let profiles: Vec<BitProfile> = bits[index * 3..index * 3 + width as usize]
            .iter()
            .map(|&(arrival, probability)| BitProfile::new(arrival, probability))
            .collect();
        builder = builder.var_with_profiles(*name, profiles);
    }
    builder.build().expect("generated specs are well-formed")
}

fn strategy(index: usize, seed: u64) -> SelectionStrategy {
    [
        SelectionStrategy::EarliestArrival,
        SelectionStrategy::LargestDeviation,
        SelectionStrategy::RowOrder,
        SelectionStrategy::Random(seed),
    ][index]
}

fn profile_bits() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..4.0, 0.05f64..0.95), 9)
}

/// One case of the property: a prefix built under `spec_a`, grown under `spec_b`,
/// equals a fresh synthesis under `spec_b` — netlist, word map, reduced rows and
/// report.
fn check_growth(
    expr: &Expr,
    (spec_a, spec_b): (&InputSpec, &InputSpec),
    output_width: u32,
    strategy: SelectionStrategy,
    kind: FinalAdderKind,
) {
    let lib = TechLibrary::lcbg10pv_like();
    let synthesizer = |spec| {
        Synthesizer::new(expr, spec)
            .technology(&lib)
            .strategy(strategy)
            .final_adder(kind)
            .output_width(output_width)
            .name("grown")
    };
    let prefix_a = match synthesizer(spec_a).leaf_prefix() {
        Ok(prefix) => prefix,
        Err(SynthesisError::EmptyExpression) => {
            // Nothing to grow; a fresh synthesis must refuse the same way.
            let fresh = synthesizer(spec_b).build_netlist();
            assert!(matches!(fresh, Err(SynthesisError::EmptyExpression)));
            return;
        }
        Err(error) => panic!("unexpected prefix failure: {error}"),
    };
    assert!(prefix_a.fits(expr, spec_b));

    let grown = synthesizer(spec_b)
        .grow_from(&prefix_a)
        .build_netlist()
        .unwrap();
    let fresh = synthesizer(spec_b).build_netlist().unwrap();
    assert_eq!(grown.0, fresh.0);
    assert_eq!(grown.1, fresh.1);
    assert_eq!(grown.0.name(), "grown");

    // The reduced rows, straight from the allocation: the estimates prefix A
    // derives under draw B feed the same tree as a prefix built under B.
    let prefix_b = synthesizer(spec_b).leaf_prefix().unwrap();
    let mut netlist_a = prefix_a.netlist().clone();
    let mut netlist_b = prefix_b.netlist().clone();
    let rows_a = allocate_fa_tree(
        &mut netlist_a,
        prefix_a.leaves(spec_b, &lib),
        strategy,
        &lib,
    )
    .unwrap();
    let rows_b = allocate_fa_tree(
        &mut netlist_b,
        prefix_b.leaves(spec_b, &lib),
        strategy,
        &lib,
    )
    .unwrap();
    assert_eq!(rows_a, rows_b);
    assert_eq!(
        rows_a.final_input_arrival.to_bits(),
        rows_b.final_input_arrival.to_bits()
    );
    assert_eq!(
        rows_a.tree_switching_energy.to_bits(),
        rows_b.tree_switching_energy.to_bits()
    );

    // And the analysed report, through `run`.
    let grown = synthesizer(spec_b).grow_from(&prefix_a).run().unwrap();
    let fresh = synthesizer(spec_b).run().unwrap();
    assert_eq!(grown.netlist(), fresh.netlist());
    let (grown, fresh) = (grown.report(), fresh.report());
    assert_eq!(
        grown.final_input_arrival.to_bits(),
        fresh.final_input_arrival.to_bits()
    );
    assert_eq!(grown.delay.to_bits(), fresh.delay.to_bits());
    assert_eq!(
        grown.switching_energy.to_bits(),
        fresh.switching_energy.to_bits()
    );
    assert_eq!(grown.tree_fa_count, fresh.tree_fa_count);
    assert_eq!(grown.tree_ha_count, fresh.tree_ha_count);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random expressions and two random profile draws, under every selection
    /// strategy and every final adder.
    #[test]
    fn growing_from_a_prefix_equals_a_fresh_synthesis(
        terms in prop::collection::vec((-5i64..6, 1u32..8, 0u32..4), 1..5),
        constant in 0i64..9,
        widths in prop::collection::vec(1u32..4, 3),
        draw_a in profile_bits(),
        draw_b in profile_bits(),
        output_width in 1u32..9,
        strategy_index in 0usize..4,
        adder_index in 0usize..3,
        seed in 0u64..50,
    ) {
        let terms: Vec<(i64, u32, bool)> = terms
            .into_iter()
            .map(|(coefficient, mask, square)| (coefficient, mask, square == 0))
            .collect();
        check_growth(
            &expression(&terms, constant),
            (&spec(&widths, &draw_a), &spec(&widths, &draw_b)),
            output_width,
            strategy(strategy_index, seed),
            FinalAdderKind::all()[adder_index],
        );
    }
}

/// Every strategy meets every final adder at least once, on a fixed expression
/// and two fixed draws (the random cases above sample the pairs).
#[test]
fn every_strategy_and_final_adder_grows_identically() {
    let expr = parse_expr("3*a*b - b*c + a*a + 5").unwrap();
    let draw = |offset: f64| -> Vec<(f64, f64)> {
        (0..9)
            .map(|bit| {
                let step = f64::from(bit) + offset;
                ((step * 0.7) % 4.0, 0.05 + (step * 0.37) % 0.9)
            })
            .collect()
    };
    let (draw_a, draw_b) = (draw(0.0), draw(2.5));
    let widths = [3, 2, 3];
    for strategy_index in 0..4 {
        for kind in FinalAdderKind::all() {
            check_growth(
                &expr,
                (&spec(&widths, &draw_a), &spec(&widths, &draw_b)),
                8,
                strategy(strategy_index, 9),
                kind,
            );
        }
    }
}

/// The witness: a prefix's leaf estimates are the design point's, not the ones it
/// was built under. Built under flat profiles and read under skewed ones, every
/// partial product reports the late operand's arrival plus the AND delay and the
/// product of the biased probabilities — and the timing-driven tree grown from it
/// differs from the one the flat profiles select.
#[test]
fn leaf_estimates_follow_the_points_profiles() {
    let expr = parse_expr("a*b + a + b + c + 3").unwrap();
    let flat = InputSpec::builder()
        .var("a", 3)
        .var("b", 3)
        .var("c", 3)
        .build()
        .unwrap();
    let skewed = InputSpec::builder()
        .var_with_profiles("a", vec![BitProfile::new(2.0, 0.5); 3])
        .var_with_profiles("b", vec![BitProfile::new(0.0, 0.9); 3])
        .var_with_profiles("c", vec![BitProfile::new(3.5, 0.2); 3])
        .build()
        .unwrap();
    let lib = TechLibrary::lcbg10pv_like();
    let synthesizer = |spec| {
        Synthesizer::new(&expr, spec)
            .technology(&lib)
            .strategy(SelectionStrategy::EarliestArrival)
            .output_width(8)
    };
    let prefix: LeafPrefix = synthesizer(&flat).leaf_prefix().unwrap();

    let products = prefix
        .leaves(&skewed, &lib)
        .into_iter()
        .flatten()
        .filter(|leaf| prefix.netlist().net(leaf.net).driver().is_some())
        .filter(|leaf| leaf.probability < 1.0)
        .collect::<Vec<_>>();
    assert_eq!(products.len(), 9, "one leaf per a_i·b_j product");
    for leaf in &products {
        assert_eq!(leaf.arrival, 2.0 + lib.and_tree_delay(2));
        assert_eq!(leaf.probability, 0.5 * 0.9);
    }
    let flat_leaves = prefix.leaves(&flat, &lib);
    assert_ne!(flat_leaves, prefix.leaves(&skewed, &lib));

    let grown = synthesizer(&skewed)
        .grow_from(&prefix)
        .build_netlist()
        .unwrap();
    assert_eq!(grown, synthesizer(&skewed).build_netlist().unwrap());
    assert_ne!(
        grown.0,
        synthesizer(&flat).build_netlist().unwrap().0,
        "the skewed profiles must steer the allocation, or the property above is vacuous"
    );
}

/// A prefix that does not fit — another expression, other widths, another output
/// width — is ignored: the synthesis builds its own and the result is unchanged.
#[test]
fn an_unfitting_prefix_is_ignored() {
    let expr = parse_expr("a*b + c").unwrap();
    let other = parse_expr("a*b - c").unwrap();
    let spec = InputSpec::builder()
        .var("a", 3)
        .var("b", 3)
        .var("c", 3)
        .build()
        .unwrap();
    let wider = InputSpec::builder()
        .var("a", 4)
        .var("b", 3)
        .var("c", 3)
        .build()
        .unwrap();
    let lib = TechLibrary::unit();
    let synthesizer = |expr, spec, width| {
        Synthesizer::new(expr, spec)
            .technology(&lib)
            .output_width(width)
    };
    let reference = synthesizer(&expr, &spec, 7).build_netlist().unwrap();
    for prefix in [
        synthesizer(&other, &spec, 7).leaf_prefix().unwrap(),
        synthesizer(&expr, &wider, 7).leaf_prefix().unwrap(),
        synthesizer(&expr, &spec, 6).leaf_prefix().unwrap(),
    ] {
        let grown = synthesizer(&expr, &spec, 7)
            .grow_from(&prefix)
            .build_netlist()
            .unwrap();
        assert_eq!(grown, reference);
    }
}
