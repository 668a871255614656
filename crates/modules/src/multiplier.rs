//! Word-level multiplier generators.

use crate::adder::ripple_add;
use crate::compressor::reduce_columns_wallace;
use dpsyn_netlist::{CellKind, NetId, Netlist, NetlistError};

/// Generates the partial-product matrix of `a × b`: one column per output bit weight,
/// each column holding the AND of the contributing bit pairs.
///
/// # Errors
///
/// Returns an error if the operand nets do not belong to `netlist`.
pub fn partial_products(
    netlist: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
) -> Result<Vec<Vec<NetId>>, NetlistError> {
    let width = a.len() + b.len();
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); width.max(1)];
    for (i, a_bit) in a.iter().enumerate() {
        for (j, b_bit) in b.iter().enumerate() {
            let product = netlist.add_gate(CellKind::And2, &[*a_bit, *b_bit])?[0];
            columns[i + j].push(product);
        }
    }
    Ok(columns)
}

/// Builds a carry-propagate **array multiplier**: partial products are accumulated row
/// by row with ripple-carry adders, the classic "slow but regular" structure a
/// conventional RTL flow would instantiate for small operands.
///
/// Returns the product bits (`a.len() + b.len()` wide).
///
/// # Errors
///
/// Returns an error if the operand nets do not belong to `netlist`.
///
/// # Example
/// ```
/// # use std::error::Error;
/// use dpsyn_modules::multiplier::array_multiply;
/// use dpsyn_netlist::Netlist;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut netlist = Netlist::new("mult");
/// let a: Vec<_> = (0..4).map(|i| netlist.add_input(format!("a{i}"))).collect();
/// let b: Vec<_> = (0..4).map(|i| netlist.add_input(format!("b{i}"))).collect();
/// let product = array_multiply(&mut netlist, &a, &b)?;
/// assert_eq!(product.len(), 8);
/// # Ok(())
/// # }
/// ```
pub fn array_multiply(
    netlist: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
) -> Result<Vec<NetId>, NetlistError> {
    if a.is_empty() || b.is_empty() {
        return Ok(vec![netlist.constant(false)]);
    }
    let result_width = a.len() + b.len();
    // Accumulate row by row: acc += (a AND b_j) << j.
    let mut accumulator: Vec<NetId> = Vec::new();
    for (j, b_bit) in b.iter().enumerate() {
        let mut row: Vec<NetId> = vec![netlist.constant(false); j];
        for a_bit in a {
            row.push(netlist.add_gate(CellKind::And2, &[*a_bit, *b_bit])?[0]);
        }
        accumulator = if accumulator.is_empty() {
            row
        } else {
            let mut sum = ripple_add(netlist, &accumulator, &row, None)?;
            sum.truncate(result_width);
            sum
        };
    }
    accumulator.resize(result_width, netlist.constant(false));
    Ok(accumulator)
}

/// Builds a **Wallace-tree multiplier**: the partial-product columns are compressed with
/// the classic fixed (arrival-blind, row-ordered) Wallace reduction down to two rows,
/// which a ripple-carry adder then sums.
///
/// This is exactly the "conventional application of the Wallace scheme ... assuming
/// equal signal arrival times" that the paper generalises; it serves both as a fast
/// multiplier module for the conventional baseline and as the per-operation reference
/// point against the global FA-tree of `dpsyn-core`.
///
/// Returns the product bits (`a.len() + b.len()` wide).
///
/// # Errors
///
/// Returns an error if the operand nets do not belong to `netlist`.
pub fn wallace_multiply(
    netlist: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
) -> Result<Vec<NetId>, NetlistError> {
    if a.is_empty() || b.is_empty() {
        return Ok(vec![netlist.constant(false)]);
    }
    let result_width = a.len() + b.len();
    let columns = partial_products(netlist, a, b)?;
    let (row_a, row_b) = reduce_columns_wallace(netlist, columns)?;
    let mut product = ripple_add(netlist, &row_a, &row_b, None)?;
    product.truncate(result_width);
    product.resize(result_width, netlist.constant(false));
    Ok(product)
}

/// Builds a shift-and-add **constant multiplier** `a × constant` of width `width`
/// (result wraps modulo `2^width`): one shifted copy of `a` per set bit of the constant,
/// accumulated with ripple adders.
///
/// # Errors
///
/// Returns an error if the operand nets do not belong to `netlist`.
pub fn constant_multiply(
    netlist: &mut Netlist,
    a: &[NetId],
    constant: u64,
    width: usize,
) -> Result<Vec<NetId>, NetlistError> {
    let mut accumulator: Option<Vec<NetId>> = None;
    for shift in 0..width {
        if (constant >> shift) & 1 == 0 {
            continue;
        }
        let mut shifted: Vec<NetId> = vec![netlist.constant(false); shift];
        shifted.extend(a.iter().copied());
        shifted.truncate(width);
        accumulator = Some(match accumulator {
            None => shifted,
            Some(acc) => {
                let mut sum = ripple_add(netlist, &acc, &shifted, None)?;
                sum.truncate(width);
                sum
            }
        });
    }
    let mut result = accumulator.unwrap_or_else(|| vec![netlist.constant(false)]);
    result.resize(width, netlist.constant(false));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_netlist::{Word, WordMap};
    use dpsyn_sim::Simulator;
    use std::collections::BTreeMap;

    type MultiplierFn = fn(&mut Netlist, &[NetId], &[NetId]) -> Result<Vec<NetId>, NetlistError>;

    fn build_multiplier(width_a: u32, width_b: u32, generator: MultiplierFn) -> (Netlist, WordMap) {
        let mut netlist = Netlist::new("mult");
        let a: Vec<_> = (0..width_a)
            .map(|i| netlist.add_input(format!("a{i}")))
            .collect();
        let b: Vec<_> = (0..width_b)
            .map(|i| netlist.add_input(format!("b{i}")))
            .collect();
        let product = generator(&mut netlist, &a, &b).unwrap();
        for net in &product {
            netlist.mark_output(*net);
        }
        let map = WordMap::new(
            vec![Word::new("a", a), Word::new("b", b)],
            Word::new("p", product),
        );
        (netlist, map)
    }

    fn exhaustive_multiply_check(width_a: u32, width_b: u32, generator: MultiplierFn) {
        let (netlist, map) = build_multiplier(width_a, width_b, generator);
        netlist.validate().unwrap();
        let simulator = Simulator::compile(&netlist).unwrap();
        for a in 0..(1u64 << width_a) {
            for b in 0..(1u64 << width_b) {
                let mut values = BTreeMap::new();
                values.insert("a".to_string(), a);
                values.insert("b".to_string(), b);
                assert_eq!(
                    simulator.evaluate_words(&map, &values),
                    a * b,
                    "{a} * {b} ({width_a}x{width_b})"
                );
            }
        }
    }

    #[test]
    fn array_multiplier_is_correct() {
        exhaustive_multiply_check(3, 3, array_multiply);
        exhaustive_multiply_check(4, 2, array_multiply);
    }

    #[test]
    fn wallace_multiplier_is_correct() {
        exhaustive_multiply_check(3, 3, wallace_multiply);
        exhaustive_multiply_check(4, 4, wallace_multiply);
        exhaustive_multiply_check(2, 5, wallace_multiply);
    }

    #[test]
    fn wallace_is_structurally_shallower_than_array() {
        let (array, _) = build_multiplier(8, 8, array_multiply);
        let (wallace, _) = build_multiplier(8, 8, wallace_multiply);
        let depth = |netlist: &Netlist| netlist.compile().unwrap().level_count();
        assert!(
            depth(&wallace) < depth(&array),
            "wallace depth {} vs array depth {}",
            depth(&wallace),
            depth(&array)
        );
    }

    #[test]
    fn partial_product_count_matches_widths() {
        let mut netlist = Netlist::new("pp");
        let a: Vec<_> = (0..5).map(|i| netlist.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..3).map(|i| netlist.add_input(format!("b{i}"))).collect();
        let columns = partial_products(&mut netlist, &a, &b).unwrap();
        assert_eq!(columns.len(), 8);
        let total: usize = columns.iter().map(Vec::len).sum();
        assert_eq!(total, 15);
        // The middle columns are the tallest.
        assert_eq!(columns.iter().map(Vec::len).max(), Some(3));
    }

    #[test]
    fn constant_multiplier_is_correct() {
        for constant in [0u64, 1, 2, 5, 10, 13] {
            let width = 8usize;
            let mut netlist = Netlist::new("cmul");
            let a: Vec<_> = (0..4).map(|i| netlist.add_input(format!("a{i}"))).collect();
            let product = constant_multiply(&mut netlist, &a, constant, width).unwrap();
            assert_eq!(product.len(), width);
            for net in &product {
                netlist.mark_output(*net);
            }
            let map = WordMap::new(vec![Word::new("a", a)], Word::new("p", product));
            let simulator = Simulator::compile(&netlist).unwrap();
            for a in 0..16u64 {
                let mut values = BTreeMap::new();
                values.insert("a".to_string(), a);
                assert_eq!(
                    simulator.evaluate_words(&map, &values),
                    (a * constant) & 0xFF,
                    "{a} * {constant}"
                );
            }
        }
    }

    #[test]
    fn empty_operands_produce_zero() {
        let mut netlist = Netlist::new("empty");
        let a: Vec<NetId> = Vec::new();
        let b: Vec<_> = (0..2).map(|i| netlist.add_input(format!("b{i}"))).collect();
        let product = array_multiply(&mut netlist, &a, &b).unwrap();
        assert_eq!(product.len(), 1);
        let product = wallace_multiply(&mut netlist, &b, &a).unwrap();
        assert_eq!(product.len(), 1);
    }
}
