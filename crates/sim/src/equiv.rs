//! Functional equivalence checking between a netlist and the golden expression model.

use crate::{BlockSim, SimError, Stimulus, DEFAULT_BLOCK};
use dpsyn_ir::{Expr, InputSpec};
use dpsyn_netlist::{Netlist, WordMap};

/// Checks functional equivalence between a synthesized netlist and the golden
/// expression model, exhaustively when the input space is small (≤ 16 bits) and with
/// `random_vectors` random assignments otherwise.
///
/// `width` is the output width the expression is reduced modulo.
///
/// The netlist side runs on the bit-parallel [`BlockSim`] engine at
/// [`DEFAULT_BLOCK`], `DEFAULT_BLOCK × 64` assignments per pass, checked in order;
/// the stimulus stream (exhaustive enumeration order, random draws and their
/// seeding) is unchanged from the historical scalar implementation, so the first
/// counterexample and pass/fail behaviour do not depend on the pass width.
///
/// # Errors
///
/// Returns [`SimError::Mismatch`] with a counterexample when the two models disagree,
/// or other variants when either model cannot be evaluated.
pub fn check_equivalence(
    netlist: &Netlist,
    map: &WordMap,
    expr: &Expr,
    spec: &InputSpec,
    width: u32,
    random_vectors: usize,
    seed: u64,
) -> Result<(), SimError> {
    let simulator = BlockSim::compile(netlist, DEFAULT_BLOCK)?;
    let mut stimulus = Stimulus::with_seed(seed);
    let assignments = Stimulus::exhaustive_assignments(spec, 16)
        .unwrap_or_else(|| stimulus.uniform_batch(spec, random_vectors));
    let mut blocks = simulator.block_buffer();
    for chunk in assignments.chunks(simulator.vectors_per_pass()) {
        simulator.pack_word_assignments(map, chunk, &mut blocks);
        simulator.evaluate_into(&mut blocks);
        for (vector, assignment) in chunk.iter().enumerate() {
            let expected = expr.evaluate_mod(assignment, width)?;
            let actual = simulator.unpack_output(map, &blocks, vector);
            if expected != actual {
                return Err(SimError::Mismatch {
                    assignment: assignment.clone(),
                    netlist_value: actual,
                    expected_value: expected,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ripple2;
    use crate::SimError;

    #[test]
    fn equivalence_against_expression() {
        let (netlist, map) = ripple2();
        let expr = Expr::var("a") + Expr::var("b");
        let spec = InputSpec::builder()
            .var("a", 2)
            .var("b", 2)
            .build()
            .unwrap();
        check_equivalence(&netlist, &map, &expr, &spec, 3, 64, 7).unwrap();
    }

    #[test]
    fn inequivalence_is_detected_with_counterexample() {
        let (netlist, map) = ripple2();
        let expr = Expr::var("a") * Expr::var("b");
        let spec = InputSpec::builder()
            .var("a", 2)
            .var("b", 2)
            .build()
            .unwrap();
        let result = check_equivalence(&netlist, &map, &expr, &spec, 3, 64, 7);
        match result {
            Err(SimError::Mismatch {
                assignment,
                netlist_value,
                expected_value,
            }) => {
                let a = assignment["a"];
                let b = assignment["b"];
                assert_eq!(netlist_value, (a + b) % 8);
                assert_eq!(expected_value, (a * b) % 8);
            }
            other => panic!("expected a mismatch, got {other:?}"),
        }
    }

    #[test]
    fn sim_error_display() {
        let (netlist, map) = ripple2();
        let expr = Expr::var("a") - Expr::var("b");
        let spec = InputSpec::builder()
            .var("a", 2)
            .var("b", 2)
            .build()
            .unwrap();
        let error = check_equivalence(&netlist, &map, &expr, &spec, 3, 16, 1).unwrap_err();
        assert!(error.to_string().contains("netlist computes"));
    }
}
