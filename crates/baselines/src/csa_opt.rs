//! The word-level delay-optimal carry-save allocation baseline (the authors' ICCAD'99
//! algorithm, reference [8] of the paper).
//!
//! The expression is flattened into a list of word operands (variable words, multiplier
//! partial-product rows, constant words). While more than two operands remain, the
//! three operands with the **earliest word-level arrival times** are compressed by a
//! full-width 3:2 carry-save row; the two survivors are summed by a carry-lookahead
//! adder. The essential difference to the paper's FA_AOT is granularity: a whole word
//! is characterised by a single arrival time (the latest of its bits), so per-bit
//! arrival skew cannot be exploited and the full-width compressor rows spend full
//! adders on positions that hold constant zeros.

use crate::flow::BaselineError;
use dpsyn_ir::{Expr, InputSpec, Polynomial};
use dpsyn_modules::builders::AdderKind;
use dpsyn_modules::compressor::carry_save_row;
use dpsyn_modules::zero_extend;
use dpsyn_netlist::{CellKind, NetId, Netlist, Word, WordMap};
use dpsyn_tech::TechLibrary;
use std::collections::BTreeMap;

/// One word operand awaiting carry-save compression.
#[derive(Debug, Clone)]
struct Operand {
    bits: Vec<NetId>,
    arrival: f64,
}

/// The synthesis step of [`Flow::CsaOpt`](crate::Flow::CsaOpt): builds the netlist
/// and its word-level interface **without running the timing/power analyses**.
///
/// Unlike `conventional_netlist`, the structure here *does* depend on the spec's
/// arrival profile (operands are compressed earliest-words-first using the library's
/// delays), so profile-only re-runs may or may not reproduce the same netlist —
/// callers that cache compiled programs must verify structural identity (the
/// explorer's worker cache compares netlist and word map exactly) before reusing
/// one, and fall back to a full analysis otherwise.
///
/// # Errors
///
/// Returns an error when the expression references undeclared variables, reduces to a
/// constant zero, or when netlist construction fails.
pub(crate) fn csa_opt_netlist(
    expr: &Expr,
    spec: &InputSpec,
    width: u32,
    tech: &TechLibrary,
) -> Result<(Netlist, WordMap), BaselineError> {
    for name in expr.variables() {
        if spec.var(&name).is_none() {
            return Err(BaselineError::Ir(dpsyn_ir::IrError::UnknownVariable(name)));
        }
    }
    let width_usize = width as usize;
    let mut netlist = Netlist::new("csa_opt");
    let mut input_words = Vec::new();
    let mut input_bits: BTreeMap<String, Vec<NetId>> = BTreeMap::new();
    let mut input_arrivals: BTreeMap<String, f64> = BTreeMap::new();
    for var in spec.vars() {
        let bits: Vec<NetId> = (0..var.width())
            .map(|bit| netlist.add_input(format!("{}[{}]", var.name(), bit)))
            .collect();
        input_words.push(Word::new(var.name(), bits.clone()));
        input_bits.insert(var.name().to_string(), bits);
        input_arrivals.insert(
            var.name().to_string(),
            var.bits().iter().map(|b| b.arrival).fold(0.0, f64::max),
        );
    }

    let polynomial = Polynomial::from_expr(expr);
    let and_delay = tech.output_delay(CellKind::And2, 0);
    let not_delay = tech.output_delay(CellKind::Not, 0);
    let mut operands: Vec<Operand> = Vec::new();
    let mut constant_total: i128 = 0;

    for term in polynomial.terms() {
        if term.is_constant() {
            constant_total += i128::from(term.coefficient());
            continue;
        }
        // Multiply the variable factors together row by row (the rows of a paper-and-
        // pencil long multiplication); each row stays a word operand.
        let mut factors: Vec<&str> = Vec::new();
        for (name, power) in term.factors() {
            for _ in 0..*power {
                factors.push(name.as_str());
            }
        }
        let first = factors[0];
        let mut rows: Vec<(usize, Vec<NetId>, f64)> =
            vec![(0, input_bits[first].clone(), input_arrivals[first])];
        for factor in &factors[1..] {
            let factor_bits = &input_bits[*factor];
            let factor_arrival = input_arrivals[*factor];
            let mut next_rows = Vec::with_capacity(rows.len() * factor_bits.len());
            for (shift, bits, arrival) in &rows {
                for (bit_index, factor_bit) in factor_bits.iter().enumerate() {
                    if shift + bit_index >= width_usize {
                        continue;
                    }
                    let anded: Vec<NetId> = bits
                        .iter()
                        .map(|bit| {
                            netlist
                                .add_gate(CellKind::And2, &[*bit, *factor_bit])
                                .map(|outs| outs[0])
                        })
                        .collect::<Result<_, _>>()?;
                    next_rows.push((
                        shift + bit_index,
                        anded,
                        arrival.max(factor_arrival) + and_delay,
                    ));
                }
            }
            rows = next_rows;
        }
        // Apply the coefficient: one shifted copy of every row per set bit of |c|;
        // negative coefficients complement the row and contribute a constant correction.
        let coefficient = term.coefficient();
        let magnitude = coefficient.unsigned_abs();
        for weight in 0..64 {
            if (magnitude >> weight) & 1 == 0 {
                continue;
            }
            for (shift, bits, arrival) in &rows {
                let total_shift = shift + weight as usize;
                if total_shift >= width_usize {
                    continue;
                }
                let visible = bits.len().min(width_usize - total_shift);
                let (row_bits, arrival) = if coefficient < 0 {
                    let inverted: Vec<NetId> = bits[..visible]
                        .iter()
                        .map(|bit| netlist.add_gate(CellKind::Not, &[*bit]).map(|outs| outs[0]))
                        .collect::<Result<_, _>>()?;
                    // −b·2^k = (~b)·2^k − 2^k for every visible bit position.
                    for position in 0..visible {
                        constant_total -= 1i128 << (total_shift + position);
                    }
                    (inverted, arrival + not_delay)
                } else {
                    (bits[..visible].to_vec(), *arrival)
                };
                let mut word = vec![netlist.constant(false); total_shift];
                word.extend(row_bits);
                let word = zero_extend(&mut netlist, &word, width_usize);
                operands.push(Operand {
                    bits: word,
                    arrival,
                });
            }
        }
    }

    // Fold the accumulated constant into one operand word.
    let modulus = 1i128 << width;
    let folded = constant_total.rem_euclid(modulus) as u64;
    if folded != 0 {
        let bits: Vec<NetId> = (0..width_usize)
            .map(|bit| netlist.constant((folded >> bit) & 1 == 1))
            .collect();
        operands.push(Operand { bits, arrival: 0.0 });
    }
    if operands.is_empty() {
        return Err(BaselineError::EmptyExpression);
    }

    // Word-level delay-optimal compression: always combine the three earliest words.
    let fa_sum_delay = tech.fa_sum_delay();
    let fa_carry_delay = tech.fa_carry_delay();
    while operands.len() > 2 {
        let mut picked = Vec::with_capacity(3);
        for _ in 0..3 {
            let index = operands
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.arrival.total_cmp(&b.1.arrival))
                .map(|(index, _)| index)
                .expect("loop condition guarantees three operands");
            picked.push(operands.swap_remove(index));
        }
        let latest = picked
            .iter()
            .map(|operand| operand.arrival)
            .fold(f64::NEG_INFINITY, f64::max);
        let (mut sum, mut carry) = carry_save_row(
            &mut netlist,
            &picked[0].bits,
            &picked[1].bits,
            &picked[2].bits,
        )?;
        sum.truncate(width_usize);
        carry.truncate(width_usize);
        operands.push(Operand {
            bits: zero_extend(&mut netlist, &sum, width_usize),
            arrival: latest + fa_sum_delay,
        });
        operands.push(Operand {
            bits: zero_extend(&mut netlist, &carry, width_usize),
            arrival: latest + fa_carry_delay,
        });
    }

    // Final carry-propagating adder (or a straight connection for a single operand).
    let mut result = if operands.len() == 2 {
        let mut sum = AdderKind::CarryLookahead.generate(
            &mut netlist,
            &operands[0].bits,
            &operands[1].bits,
            None,
        )?;
        sum.truncate(width_usize);
        sum
    } else {
        operands[0].bits.clone()
    };
    result = zero_extend(&mut netlist, &result, width_usize);
    for net in &result {
        netlist.mark_output(*net);
    }
    let word_map = WordMap::new(input_words, Word::new("out", result));
    Ok((netlist, word_map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Flow, FlowResult};
    use dpsyn_ir::parse_expr;
    use dpsyn_sim::check_equivalence;

    fn check(source: &str, spec: &InputSpec, width: u32) -> FlowResult {
        let expr = parse_expr(source).unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let result = Flow::CsaOpt.run(&expr, spec, width, &lib).unwrap();
        check_equivalence(
            &result.netlist,
            &result.word_map,
            &expr,
            spec,
            width,
            200,
            31,
        )
        .unwrap_or_else(|error| panic!("{source}: {error}"));
        result
    }

    #[test]
    fn additions_and_constants() {
        let spec = InputSpec::builder()
            .var("a", 4)
            .var("b", 4)
            .var("c", 4)
            .build()
            .unwrap();
        check("a + b + c", &spec, 6);
        check("a + b + c + 21", &spec, 6);
        check("a + 3", &spec, 5);
    }

    #[test]
    fn subtractions_wrap_correctly() {
        let spec = InputSpec::builder()
            .var("a", 4)
            .var("b", 4)
            .build()
            .unwrap();
        check("a - b", &spec, 5);
        check("7 - a - b", &spec, 6);
        check("a - 2*b + 40", &spec, 7);
    }

    #[test]
    fn multiplications_and_higher_order_terms() {
        let spec = InputSpec::builder()
            .var("x", 3)
            .var("y", 3)
            .var("z", 3)
            .build()
            .unwrap();
        check("x*y + z", &spec, 7);
        check("x*y - y*z + 10", &spec, 8);
        check("x*x*x", &spec, 9);
        check("5*x*y + 3*z", &spec, 9);
    }

    #[test]
    fn single_operand_needs_no_compressor() {
        let spec = InputSpec::builder().var("a", 4).build().unwrap();
        let result = check("a", &spec, 4);
        assert_eq!(result.netlist.count_kind(CellKind::Fa), 0);
    }

    #[test]
    fn empty_expression_is_rejected() {
        let spec = InputSpec::builder().var("a", 4).build().unwrap();
        let expr = parse_expr("a - a").unwrap();
        let result = Flow::CsaOpt.run(&expr, &spec, 5, &TechLibrary::unit());
        assert!(matches!(result, Err(BaselineError::EmptyExpression)));
    }

    #[test]
    fn unknown_variable_is_rejected() {
        let spec = InputSpec::builder().var("a", 4).build().unwrap();
        let expr = parse_expr("a + ghost").unwrap();
        let result = Flow::CsaOpt.run(&expr, &spec, 5, &TechLibrary::unit());
        assert!(matches!(result, Err(BaselineError::Ir(_))));
    }

    #[test]
    fn word_level_rows_cost_more_area_than_the_bit_level_tree() {
        // The defining inefficiency of word-level CSA allocation: full-width compressor
        // rows spend adders on constant-zero positions, so for the same function the
        // area is at least that of the bit-level FA-tree of `dpsyn-core`.
        let spec = InputSpec::builder()
            .var("x", 6)
            .var("y", 6)
            .var("z", 6)
            .build()
            .unwrap();
        let expr = parse_expr("x*y + y*z + x + z").unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let word_level = Flow::CsaOpt.run(&expr, &spec, 13, &lib).unwrap();
        let bit_level = Flow::FaAot.run(&expr, &spec, 13, &lib).unwrap();
        assert!(
            word_level.area >= bit_level.area,
            "csa_opt area {} vs fa_aot area {}",
            word_level.area,
            bit_level.area
        );
        assert!(
            bit_level.delay <= word_level.delay + 1e-9,
            "fa_aot delay {} vs csa_opt delay {}",
            bit_level.delay,
            word_level.delay
        );
    }
}
