//! Carry-save compressors: the word-level 3:2 row used by the CSA_OPT baseline and the
//! classic stage-by-stage Wallace column reduction.

use dpsyn_netlist::{CellKind, NetId, Netlist, NetlistError};

/// Builds one word-level 3:2 carry-save compressor row: three operand words are reduced
/// to a sum word and a carry word such that `a + b + c = sum + carry`.
///
/// Every bit position gets one full adder; the carry word is shifted left by one
/// position (its LSB is constant 0). Operands of different widths are zero-extended.
/// This is the building block of word-level CSA allocation (the paper's reference \[8\],
/// reproduced as the `csa_opt` baseline).
///
/// # Errors
///
/// Returns an error if the operand nets do not belong to `netlist`.
///
/// # Example
/// ```
/// # use std::error::Error;
/// use dpsyn_modules::compressor::carry_save_row;
/// use dpsyn_netlist::Netlist;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut netlist = Netlist::new("csa");
/// let a: Vec<_> = (0..4).map(|i| netlist.add_input(format!("a{i}"))).collect();
/// let b: Vec<_> = (0..4).map(|i| netlist.add_input(format!("b{i}"))).collect();
/// let c: Vec<_> = (0..4).map(|i| netlist.add_input(format!("c{i}"))).collect();
/// let (sum, carry) = carry_save_row(&mut netlist, &a, &b, &c)?;
/// assert_eq!(sum.len(), 4);
/// assert_eq!(carry.len(), 5);
/// # Ok(())
/// # }
/// ```
pub fn carry_save_row(
    netlist: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
    c: &[NetId],
) -> Result<(Vec<NetId>, Vec<NetId>), NetlistError> {
    let width = a.len().max(b.len()).max(c.len()).max(1);
    let a = crate::zero_extend(netlist, a, width);
    let b = crate::zero_extend(netlist, b, width);
    let c = crate::zero_extend(netlist, c, width);
    let mut sum = Vec::with_capacity(width);
    let mut carry = Vec::with_capacity(width + 1);
    carry.push(netlist.constant(false));
    for bit in 0..width {
        let outs = netlist.add_gate(CellKind::Fa, &[a[bit], b[bit], c[bit]])?;
        sum.push(outs[0]);
        carry.push(outs[1]);
    }
    Ok((sum, carry))
}

/// Classic stage-by-stage Wallace reduction of a column matrix down to two rows.
///
/// At every stage each column is partitioned, in row order, into groups of three
/// (full adder), a possible group of two (half adder) and a possible leftover bit;
/// sums stay in the column, carries move to the next column of the *next* stage.
/// Arrival times are deliberately ignored — this is the fixed scheme the paper's
/// Figure 2(a) illustrates and improves upon.
///
/// Returns two operand words (row A, row B) whose sum equals the sum of all input
/// column bits; both rows are `columns.len()` bits wide (missing positions are constant
/// zero).
///
/// # Errors
///
/// Returns an error if the column nets do not belong to `netlist`.
pub fn reduce_columns_wallace(
    netlist: &mut Netlist,
    columns: Vec<Vec<NetId>>,
) -> Result<(Vec<NetId>, Vec<NetId>), NetlistError> {
    let width = columns.len();
    let mut current = columns;
    // Keep compressing until every column holds at most two bits.
    while current.iter().any(|column| column.len() > 2) {
        let mut next: Vec<Vec<NetId>> = vec![Vec::new(); width];
        for (index, column) in current.iter().enumerate() {
            let mut iter = column.iter().copied().peekable();
            while iter.peek().is_some() {
                let group: Vec<NetId> = iter.by_ref().take(3).collect();
                match group.len() {
                    3 => {
                        let outs =
                            netlist.add_gate(CellKind::Fa, &[group[0], group[1], group[2]])?;
                        next[index].push(outs[0]);
                        if index + 1 < width {
                            next[index + 1].push(outs[1]);
                        }
                    }
                    2 => {
                        let outs = netlist.add_gate(CellKind::Ha, &[group[0], group[1]])?;
                        next[index].push(outs[0]);
                        if index + 1 < width {
                            next[index + 1].push(outs[1]);
                        }
                    }
                    _ => next[index].push(group[0]),
                }
            }
        }
        current = next;
    }
    let mut row_a = Vec::with_capacity(width);
    let mut row_b = Vec::with_capacity(width);
    for column in current {
        let mut bits = column.into_iter();
        row_a.push(bits.next().unwrap_or_else(|| netlist.constant(false)));
        row_b.push(bits.next().unwrap_or_else(|| netlist.constant(false)));
    }
    Ok((row_a, row_b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_netlist::{Word, WordMap};
    use dpsyn_sim::Simulator;
    use std::collections::BTreeMap;

    #[test]
    fn carry_save_row_preserves_the_sum() {
        let mut netlist = Netlist::new("csa");
        let a: Vec<_> = (0..3).map(|i| netlist.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..3).map(|i| netlist.add_input(format!("b{i}"))).collect();
        let c: Vec<_> = (0..3).map(|i| netlist.add_input(format!("c{i}"))).collect();
        let (sum, carry) = carry_save_row(&mut netlist, &a, &b, &c).unwrap();
        // Add sum + carry with a ripple adder to check the compressor's invariant.
        let total = crate::adder::ripple_add(&mut netlist, &sum, &carry, None).unwrap();
        for net in &total {
            netlist.mark_output(*net);
        }
        let map = WordMap::new(
            vec![Word::new("a", a), Word::new("b", b), Word::new("c", c)],
            Word::new("t", total),
        );
        let simulator = Simulator::compile(&netlist).unwrap();
        for a in 0..8u64 {
            for b in 0..8u64 {
                for c in 0..8u64 {
                    let mut values = BTreeMap::new();
                    values.insert("a".to_string(), a);
                    values.insert("b".to_string(), b);
                    values.insert("c".to_string(), c);
                    assert_eq!(simulator.evaluate_words(&map, &values), a + b + c);
                }
            }
        }
    }

    #[test]
    fn wallace_reduction_leaves_at_most_two_bits_per_column() {
        let mut netlist = Netlist::new("wallace");
        // Build a 6-high column matrix of 4 columns from 24 primary inputs.
        let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); 4];
        for (column, bits) in columns.iter_mut().enumerate() {
            for row in 0..6 {
                bits.push(netlist.add_input(format!("b{column}_{row}")));
            }
        }
        let inputs: Vec<Vec<NetId>> = columns.clone();
        let (row_a, row_b) = reduce_columns_wallace(&mut netlist, columns).unwrap();
        assert_eq!(row_a.len(), 4);
        assert_eq!(row_b.len(), 4);
        // Value preservation modulo 2^4 (carries out of the top column are dropped, as
        // in any fixed-width datapath).
        let mut total = crate::adder::ripple_add(&mut netlist, &row_a, &row_b, None).unwrap();
        total.truncate(4);
        for net in &total {
            netlist.mark_output(*net);
        }
        let simulator = Simulator::compile(&netlist).unwrap();
        let mut bit_values = BTreeMap::new();
        let mut expected: u64 = 0;
        for (column, bits) in inputs.iter().enumerate() {
            for (row, net) in bits.iter().enumerate() {
                let value = (column * 7 + row * 3) % 2 == 1;
                bit_values.insert(*net, value);
                if value {
                    expected += 1 << column;
                }
            }
        }
        let values = simulator.evaluate(&bit_values);
        let out_bits: Vec<bool> = total.iter().map(|net| values[net.index()]).collect();
        assert_eq!(Word::bits_to_value(&out_bits), expected % 16);
    }

    #[test]
    fn empty_columns_reduce_to_constant_zeros() {
        let mut netlist = Netlist::new("empty");
        let (row_a, row_b) = reduce_columns_wallace(&mut netlist, vec![Vec::new(); 3]).unwrap();
        assert_eq!(row_a.len(), 3);
        assert_eq!(row_b.len(), 3);
        assert_eq!(netlist.count_kind(CellKind::Fa), 0);
    }
}
