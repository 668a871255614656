//! Property-based tests for probability propagation: closed forms match brute force and
//! probabilities never leave the unit interval.

use dpsyn_netlist::{CellKind, Netlist};
use dpsyn_power::{propagate_cell, q_transform, ProbabilityAnalysis};
use dpsyn_tech::TechLibrary;
use proptest::prelude::*;

/// Brute-force output probability of a cell under the independence assumption.
fn brute_force(kind: CellKind, probabilities: &[f64], output: usize) -> f64 {
    let inputs = kind.input_count();
    let mut total = 0.0;
    for assignment in 0..(1u32 << inputs) {
        let bits: Vec<bool> = (0..inputs)
            .map(|bit| (assignment >> bit) & 1 == 1)
            .collect();
        let weight: f64 = bits
            .iter()
            .zip(probabilities)
            .map(|(bit, p)| if *bit { *p } else { 1.0 - p })
            .product();
        if kind.evaluate(&bits)[output] {
            total += weight;
        }
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The per-cell propagation formulas are exact for every cell kind.
    #[test]
    fn propagation_matches_brute_force(p1 in 0.0f64..=1.0, p2 in 0.0f64..=1.0, p3 in 0.0f64..=1.0,
                                       kind_index in 0usize..12) {
        let kind = CellKind::all()[kind_index];
        let probabilities = [p1, p2, p3];
        let inputs = &probabilities[..kind.input_count()];
        let outputs = propagate_cell(kind, inputs);
        for (pin, computed) in outputs.iter().enumerate() {
            let expected = brute_force(kind, inputs, pin);
            prop_assert!((computed - expected).abs() < 1e-9, "{:?} pin {}", kind, pin);
        }
    }

    /// The paper's q identities hold for arbitrary probabilities.
    #[test]
    fn q_transform_identities(px in 0.0f64..=1.0, py in 0.0f64..=1.0, pz in 0.0f64..=1.0) {
        let sum = q_transform::fa_sum_p(px, py, pz);
        let carry = q_transform::fa_carry_p(px, py, pz);
        prop_assert!((sum - brute_force(CellKind::Fa, &[px, py, pz], 0)).abs() < 1e-9);
        prop_assert!((carry - brute_force(CellKind::Fa, &[px, py, pz], 1)).abs() < 1e-9);
        // Switching activity identity: p(1-p) = 0.25 - q^2.
        prop_assert!((q_transform::switching_from_q(q_transform::to_q(px)) - px * (1.0 - px)).abs() < 1e-12);
    }

    /// Propagation through a random chain of gates keeps every probability in [0, 1]
    /// and the total weighted energy non-negative.
    #[test]
    fn chained_propagation_stays_legal(kinds in prop::collection::vec(0usize..7, 1..30),
                                       p0 in 0.0f64..=1.0, p1 in 0.0f64..=1.0) {
        let palette = [
            CellKind::And2, CellKind::Or2, CellKind::Xor2, CellKind::Ha,
            CellKind::Fa, CellKind::Not, CellKind::Mux2,
        ];
        let mut netlist = Netlist::new("chain");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let mut current = a;
        for index in kinds {
            let kind = palette[index];
            let inputs: Vec<_> = match kind.input_count() {
                1 => vec![current],
                2 => vec![current, b],
                _ => vec![current, b, a],
            };
            current = netlist.add_gate(kind, &inputs).expect("gate")[0];
        }
        netlist.mark_output(current);
        let lib = TechLibrary::lcbg10pv_like();
        let compiled = netlist.compile().expect("acyclic");
        let report = ProbabilityAnalysis::new(&lib)
            .input_probability(a, p0)
            .input_probability(b, p1)
            .run_compiled(&compiled)
            .expect("propagation");
        for p in report.probabilities() {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(p));
        }
        prop_assert!(report.total_energy() >= 0.0);
    }
}
