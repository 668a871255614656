//! Leaf-addend construction: primary inputs, partial-product AND networks and constant
//! addends, annotated with the arrival times and probabilities the selection strategies
//! need.

use crate::allocation::LeafAddend;
use dpsyn_ir::{Addend, AddendMatrix, BitProfile, BitRef, InputSpec};
use dpsyn_netlist::{CellKind, NetId, Netlist, NetlistError, Word};
use dpsyn_tech::TechLibrary;
use std::collections::HashMap;

/// The leaf structures of a synthesized design: the per-column leaf addends and the
/// input words created for the primary inputs.
#[derive(Debug, Clone)]
pub(crate) struct Leaves {
    pub(crate) columns: Vec<Vec<LeafAddend>>,
    pub(crate) input_words: Vec<Word>,
}

/// Every primary-input bit of a design under a dense key: bit `b` of the `v`-th
/// variable of `spec.vars()` is slot `offsets[v] + b` of the net and profile
/// tables, so a literal costs one name search instead of a string-keyed map lookup
/// per use.
struct InputBits<'s> {
    /// Variable names in `spec.vars()` order, which is name order.
    names: Vec<&'s str>,
    /// First slot of each variable, plus its width.
    offsets: Vec<(u32, u32)>,
    nets: Vec<NetId>,
    profiles: Vec<BitProfile>,
}

impl InputBits<'_> {
    /// The dense slot of `literal`.
    ///
    /// # Panics
    ///
    /// Panics when the literal names no declared bit; lowering validates every
    /// literal against the input spec.
    fn slot(&self, literal: &BitRef) -> u32 {
        let (offset, _) = self
            .names
            .binary_search(&literal.var.as_str())
            .ok()
            .map(|var| self.offsets[var])
            .filter(|&(_, width)| literal.bit < width)
            .expect("lowering validated every literal against the input spec");
        offset + literal.bit
    }
}

/// Builds the primary inputs and the addend-generation logic (partial-product AND trees,
/// inverters for complemented addends, constant sources) for every addend of `matrix`.
///
/// Identical products appearing in several columns (as happens whenever a coefficient
/// has more than one set bit) share a single generation network.
pub(crate) fn build_leaves(
    netlist: &mut Netlist,
    matrix: &AddendMatrix,
    spec: &InputSpec,
    tech: &TechLibrary,
) -> Result<Leaves, NetlistError> {
    // Primary inputs: one net per bit of every declared variable.
    let total = spec.total_bits() as usize;
    let mut bits = InputBits {
        names: Vec::with_capacity(spec.len()),
        offsets: Vec::with_capacity(spec.len()),
        nets: Vec::with_capacity(total),
        profiles: Vec::with_capacity(total),
    };
    let mut input_words = Vec::with_capacity(spec.len());
    for var in spec.vars() {
        bits.names.push(var.name());
        bits.offsets.push((bits.nets.len() as u32, var.width()));
        let first = bits.nets.len();
        for bit in 0..var.width() {
            bits.nets
                .push(netlist.add_input(format!("{}[{}]", var.name(), bit)));
        }
        bits.profiles.extend_from_slice(var.bits());
        input_words.push(Word::new(var.name(), bits.nets[first..].to_vec()));
    }

    // Shared generation networks, one map per complement flag, keyed by the slots
    // of the (sorted) literal set; `key` and `level` are reused across addends.
    let mut cache: [HashMap<Box<[u32]>, LeafAddend>; 2] = Default::default();
    let mut key: Vec<u32> = Vec::new();
    let mut level: Vec<NetId> = Vec::new();
    let mut columns: Vec<Vec<LeafAddend>> = vec![Vec::new(); matrix.width() as usize];
    for (column, addends) in matrix.columns() {
        for addend in addends {
            let leaf = match addend {
                Addend::One => LeafAddend::new(netlist.constant(true), 0.0, 1.0),
                Addend::Product {
                    literals,
                    complement,
                } => {
                    key.clear();
                    key.extend(literals.iter().map(|literal| bits.slot(literal)));
                    let products = &mut cache[usize::from(*complement)];
                    if key.len() == 1 && !*complement {
                        // A plain input bit builds no gate, so there is nothing to share.
                        build_product(netlist, &key, false, &bits, tech, &mut level)?
                    } else if let Some(existing) = products.get(key.as_slice()) {
                        existing.clone()
                    } else {
                        let leaf =
                            build_product(netlist, &key, *complement, &bits, tech, &mut level)?;
                        products.insert(key.as_slice().into(), leaf.clone());
                        leaf
                    }
                }
            };
            columns[column as usize].push(leaf);
        }
    }
    Ok(Leaves {
        columns,
        input_words,
    })
}

/// Builds the AND tree (plus optional output inverter) of one product addend over
/// the input-bit `slots` and annotates it with its estimated arrival time and
/// probability. `level` is a reused buffer.
fn build_product(
    netlist: &mut Netlist,
    slots: &[u32],
    complement: bool,
    bits: &InputBits<'_>,
    tech: &TechLibrary,
    level: &mut Vec<NetId>,
) -> Result<LeafAddend, NetlistError> {
    let mut arrival = 0.0_f64;
    let mut probability = 1.0_f64;
    for &slot in slots {
        let profile = bits.profiles[slot as usize];
        arrival = arrival.max(profile.arrival);
        probability *= profile.probability;
    }
    // Balanced AND tree over the literal nets, reduced in place: each pass pairs
    // neighbours left to right and carries an odd one over.
    level.clear();
    level.extend(slots.iter().map(|&slot| bits.nets[slot as usize]));
    while level.len() > 1 {
        let mut next = 0;
        for read in (0..level.len()).step_by(2) {
            level[next] = match level.get(read + 1) {
                Some(&right) => netlist.add_gate(CellKind::And2, &[level[read], right])?[0],
                None => level[read],
            };
            next += 1;
        }
        level.truncate(next);
    }
    arrival += tech.and_tree_delay(slots.len());
    let mut net = level[0];
    if complement {
        net = netlist.add_gate(CellKind::Not, &[net])?[0];
        arrival += tech.output_delay(CellKind::Not, 0);
        probability = 1.0 - probability;
    }
    Ok(LeafAddend::new(net, arrival, probability))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_ir::{parse_expr, LoweringOptions};

    fn lower(source: &str, spec: &InputSpec, width: u32) -> AddendMatrix {
        parse_expr(source)
            .unwrap()
            .lower(spec, &LoweringOptions::with_width(width))
            .unwrap()
    }

    #[test]
    fn plain_addition_creates_no_generation_gates() {
        let spec = InputSpec::builder()
            .var("x", 3)
            .var("y", 3)
            .build()
            .unwrap();
        let matrix = lower("x + y", &spec, 4);
        let mut netlist = Netlist::new("leaves");
        let lib = TechLibrary::unit();
        let leaves = build_leaves(&mut netlist, &matrix, &spec, &lib).unwrap();
        assert_eq!(leaves.input_words.len(), 2);
        assert_eq!(netlist.count_kind(CellKind::And2), 0);
        assert_eq!(leaves.columns[0].len(), 2);
    }

    #[test]
    fn partial_products_share_generation_logic_across_columns() {
        // 3·x·y: the same x_i·y_j product feeds two columns (coefficient bits 0 and 1)
        // but must be generated only once.
        let spec = InputSpec::builder()
            .var("x", 2)
            .var("y", 2)
            .build()
            .unwrap();
        let matrix = lower("3*x*y", &spec, 6);
        let mut netlist = Netlist::new("leaves");
        let lib = TechLibrary::unit();
        let leaves = build_leaves(&mut netlist, &matrix, &spec, &lib).unwrap();
        // Four distinct x_i·y_j products -> exactly four AND gates despite eight
        // matrix addends.
        assert_eq!(netlist.count_kind(CellKind::And2), 4);
        let total: usize = leaves.columns.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn complemented_addends_get_an_inverter_and_flipped_probability() {
        let spec = InputSpec::builder()
            .var_with_probability("x", 2, 0.9)
            .var_with_probability("y", 2, 0.9)
            .build()
            .unwrap();
        let matrix = lower("x - y", &spec, 3);
        let mut netlist = Netlist::new("leaves");
        let lib = TechLibrary::unit();
        let leaves = build_leaves(&mut netlist, &matrix, &spec, &lib).unwrap();
        assert_eq!(netlist.count_kind(CellKind::Not), 2);
        let complemented: Vec<&LeafAddend> = leaves
            .columns
            .iter()
            .flatten()
            .filter(|leaf| (leaf.probability - 0.1).abs() < 1e-9)
            .collect();
        assert_eq!(complemented.len(), 2);
    }

    #[test]
    fn arrival_estimates_include_generation_delay() {
        let spec = InputSpec::builder()
            .var_with_arrival("x", 2, 1.0)
            .var_with_arrival("y", 2, 3.0)
            .build()
            .unwrap();
        let matrix = lower("x * y", &spec, 4);
        let mut netlist = Netlist::new("leaves");
        let lib = TechLibrary::lcbg10pv_like();
        let leaves = build_leaves(&mut netlist, &matrix, &spec, &lib).unwrap();
        let and_delay = lib.and_tree_delay(2);
        for leaf in leaves.columns.iter().flatten() {
            assert!((leaf.arrival - (3.0 + and_delay)).abs() < 1e-9);
            assert!((leaf.probability - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_addends_are_constant_one_nets() {
        let spec = InputSpec::builder().var("x", 2).build().unwrap();
        let matrix = lower("x + 5", &spec, 4);
        let mut netlist = Netlist::new("leaves");
        let lib = TechLibrary::unit();
        let leaves = build_leaves(&mut netlist, &matrix, &spec, &lib).unwrap();
        let constants: usize = leaves
            .columns
            .iter()
            .flatten()
            .filter(|leaf| leaf.probability == 1.0)
            .count();
        assert_eq!(constants, 2); // bits 0 and 2 of the constant 5
        assert_eq!(netlist.count_kind(CellKind::Const1), 1);
    }
}
