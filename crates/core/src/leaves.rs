//! Leaf-addend construction, split in two: the profile-free structure of a
//! synthesis ([`LeafPrefix`]: primary inputs, partial-product AND networks,
//! inverters and constants) and the per-point estimates the selection strategies
//! read ([`LeafPrefix::leaves`]: each leaf's arrival time and probability).

use crate::allocation::LeafAddend;
use crate::error::SynthesisError;
use dpsyn_ir::{Addend, BitProfile, BitRef, Expr, InputSpec, LoweringOptions};
use dpsyn_netlist::{CellKind, NetId, Netlist, NetlistError, Word};
use dpsyn_tech::TechLibrary;
use std::collections::HashMap;

/// The profile-free half of a synthesis: everything the FA-tree allocation starts
/// from except the leaf estimates.
///
/// The addend matrix and the AND/NOT networks generating its leaves depend only on
/// the expression, the variables' names and widths and the lowering options;
/// arrival times and probabilities enter only as per-leaf estimates. So one prefix
/// serves every design point (and every FA-tree flow) of an expression at one
/// width: [`LeafPrefix::leaves`] derives a point's estimates from the leaf recipes,
/// and [`Synthesizer::grow_from`](crate::Synthesizer::grow_from) grows the FA-tree
/// and final adder on a copy of the prefix's netlist. Build one with
/// [`Synthesizer::leaf_prefix`](crate::Synthesizer::leaf_prefix).
///
/// A prefix holds:
///
/// * the lowered matrix's netlist: the primary inputs, the shared AND trees, the
///   inverters of complemented addends and the constant source;
/// * the input words and the output width;
/// * per column, each leaf's recipe: its net, the input-bit slots of its literals
///   and its complement flag;
/// * the expression, the variable `(name, width)` list and the lowering options it
///   was built for ([`LeafPrefix::fits`]).
#[derive(Debug, Clone)]
pub struct LeafPrefix {
    expr: Expr,
    vars: Vec<(String, u32)>,
    pub(crate) options: LoweringOptions,
    pub(crate) netlist: Netlist,
    pub(crate) input_words: Vec<Word>,
    pub(crate) width: u32,
    columns: Vec<Vec<Recipe>>,
    /// The literal slots of every product recipe, back to back.
    slots: Vec<u32>,
}

/// How one leaf addend is generated, minus its estimates.
#[derive(Debug, Clone, Copy)]
enum Recipe {
    /// The constant-one net.
    One(NetId),
    /// An AND tree over the input bits `slots[start..end]` of the prefix, inverted
    /// when `complement` is set.
    Product {
        net: NetId,
        start: u32,
        end: u32,
        complement: bool,
    },
}

/// Every primary-input bit of a design under a dense key: bit `b` of the `v`-th
/// variable of `spec.vars()` is slot `offsets[v] + b` of the net table (and of the
/// profile table [`LeafPrefix::leaves`] builds), so a literal costs one name search
/// instead of a string-keyed map lookup per use.
struct InputBits<'s> {
    /// Variable names in `spec.vars()` order, which is name order.
    names: Vec<&'s str>,
    /// First slot of each variable, plus its width.
    offsets: Vec<(u32, u32)>,
    nets: Vec<NetId>,
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

impl LeafPrefix {
    /// Lowers `expr` under `options` and builds the primary inputs and the
    /// addend-generation logic (partial-product AND trees, inverters for complemented
    /// addends, constant sources) for every addend of the matrix. Only the names and
    /// widths of `spec`'s variables are read.
    ///
    /// Identical products appearing in several columns (as happens whenever a
    /// coefficient has more than one set bit) share a single generation network.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] when lowering fails (unknown variable, bad
    /// width), when the expression reduces to the constant zero, or when netlist
    /// construction fails.
    pub(crate) fn new(
        expr: &Expr,
        spec: &InputSpec,
        options: &LoweringOptions,
    ) -> Result<LeafPrefix, SynthesisError> {
        let matrix = expr.lower(spec, options)?;
        if matrix.total_addends() == 0 {
            return Err(SynthesisError::EmptyExpression);
        }
        // The module is named when the prefix grows into a design.
        let mut netlist = Netlist::new(String::new());
        // Primary inputs: one net per bit of every declared variable.
        let mut bits = InputBits {
            names: Vec::with_capacity(spec.len()),
            offsets: Vec::with_capacity(spec.len()),
            nets: Vec::with_capacity(spec.total_bits() as usize),
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
            input_words.push(Word::new(var.name(), bits.nets[first..].to_vec()));
        }

        // Shared generation networks, one map per complement flag, keyed by the
        // slots of the (sorted) literal set; `key` and `level` are reused across
        // addends.
        let mut cache: [HashMap<Box<[u32]>, Recipe>; 2] = Default::default();
        let mut key: Vec<u32> = Vec::new();
        let mut level: Vec<NetId> = Vec::new();
        let mut slots: Vec<u32> = Vec::new();
        let mut columns: Vec<Vec<Recipe>> = vec![Vec::new(); matrix.width() as usize];
        for (column, addends) in matrix.columns() {
            for addend in addends {
                let recipe = match addend {
                    Addend::One => Recipe::One(netlist.constant(true)),
                    Addend::Product {
                        literals,
                        complement,
                    } => {
                        key.clear();
                        key.extend(literals.iter().map(|literal| bits.slot(literal)));
                        let products = &mut cache[usize::from(*complement)];
                        if key.len() == 1 && !*complement {
                            // A plain input bit builds no gate, so there is nothing
                            // to share.
                            product(&mut netlist, &key, false, &bits, &mut level, &mut slots)?
                        } else if let Some(existing) = products.get(key.as_slice()) {
                            *existing
                        } else {
                            let recipe = product(
                                &mut netlist,
                                &key,
                                *complement,
                                &bits,
                                &mut level,
                                &mut slots,
                            )?;
                            products.insert(key.as_slice().into(), recipe);
                            recipe
                        }
                    }
                };
                columns[column as usize].push(recipe);
            }
        }
        Ok(LeafPrefix {
            expr: expr.clone(),
            vars: spec
                .vars()
                .map(|var| (var.name().to_string(), var.width()))
                .collect(),
            options: options.clone(),
            netlist,
            input_words,
            width: matrix.width(),
            columns,
            slots,
        })
    }

    /// Whether the prefix was built for `expr` over variables with exactly the
    /// names and widths of `spec`'s, in order — the inputs the structure depends
    /// on besides the lowering options. Costs one expression comparison plus
    /// O(variables).
    pub fn fits(&self, expr: &Expr, spec: &InputSpec) -> bool {
        self.declares_vars_of(spec) && self.expr == *expr
    }

    /// Whether `spec` declares exactly the prefix's variables: same names and
    /// widths, in order.
    fn declares_vars_of(&self, spec: &InputSpec) -> bool {
        self.vars.len() == spec.len()
            && self
                .vars
                .iter()
                .zip(spec.vars())
                .all(|((name, width), var)| name == var.name() && *width == var.width())
    }

    /// The generation netlist: primary inputs, AND trees, inverters and constants.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The leaf addends of every column under `spec`'s input profiles: the one
    /// place a leaf's estimated arrival time (latest literal arrival plus the AND
    /// tree and inverter delays of `tech`) and probability (product of the literal
    /// probabilities, complemented for an inverted addend) are derived.
    ///
    /// # Panics
    ///
    /// Panics when `spec`'s variables differ in name or width from the ones the
    /// prefix was built for.
    pub fn leaves(&self, spec: &InputSpec, tech: &TechLibrary) -> Vec<Vec<LeafAddend>> {
        assert!(
            self.declares_vars_of(spec),
            "the input spec declares other variables than the leaf prefix was built for"
        );
        let profiles: Vec<BitProfile> = spec
            .vars()
            .flat_map(|var| var.bits().iter().copied())
            .collect();
        let not_delay = tech.output_delay(CellKind::Not, 0);
        self.columns
            .iter()
            .map(|column| {
                column
                    .iter()
                    .map(|recipe| match *recipe {
                        Recipe::One(net) => LeafAddend::new(net, 0.0, 1.0),
                        Recipe::Product {
                            net,
                            start,
                            end,
                            complement,
                        } => {
                            let literals = &self.slots[start as usize..end as usize];
                            let mut arrival = 0.0_f64;
                            let mut probability = 1.0_f64;
                            for &slot in literals {
                                let profile = profiles[slot as usize];
                                arrival = arrival.max(profile.arrival);
                                probability *= profile.probability;
                            }
                            arrival += tech.and_tree_delay(literals.len());
                            if complement {
                                arrival += not_delay;
                                probability = 1.0 - probability;
                            }
                            LeafAddend::new(net, arrival, probability)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Builds the AND tree (plus optional output inverter) of one product addend over
/// the input-bit `key` slots and records its recipe; the slots are appended to
/// `slots`. `level` is a reused buffer.
fn product(
    netlist: &mut Netlist,
    key: &[u32],
    complement: bool,
    bits: &InputBits<'_>,
    level: &mut Vec<NetId>,
    slots: &mut Vec<u32>,
) -> Result<Recipe, NetlistError> {
    // Balanced AND tree over the literal nets, reduced in place: each pass pairs
    // neighbours left to right and carries an odd one over.
    level.clear();
    level.extend(key.iter().map(|&slot| bits.nets[slot as usize]));
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
    let mut net = level[0];
    if complement {
        net = netlist.add_gate(CellKind::Not, &[net])?[0];
    }
    let start = slots.len() as u32;
    slots.extend_from_slice(key);
    Ok(Recipe::Product {
        net,
        start,
        end: slots.len() as u32,
        complement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_ir::parse_expr;

    fn prefix(source: &str, spec: &InputSpec, width: u32) -> LeafPrefix {
        let expr = parse_expr(source).unwrap();
        LeafPrefix::new(&expr, spec, &LoweringOptions::with_width(width)).unwrap()
    }

    #[test]
    fn plain_addition_creates_no_generation_gates() {
        let spec = InputSpec::builder()
            .var("x", 3)
            .var("y", 3)
            .build()
            .unwrap();
        let prefix = prefix("x + y", &spec, 4);
        let lib = TechLibrary::unit();
        let leaves = prefix.leaves(&spec, &lib);
        let netlist = prefix.netlist();
        assert_eq!(prefix.input_words.len(), 2);
        assert_eq!(netlist.count_kind(CellKind::And2), 0);
        assert_eq!(leaves[0].len(), 2);
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
        let prefix = prefix("3*x*y", &spec, 6);
        let lib = TechLibrary::unit();
        let leaves = prefix.leaves(&spec, &lib);
        let netlist = prefix.netlist();
        // Four distinct x_i·y_j products -> exactly four AND gates despite eight
        // matrix addends.
        assert_eq!(netlist.count_kind(CellKind::And2), 4);
        let total: usize = leaves.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn complemented_addends_get_an_inverter_and_flipped_probability() {
        let spec = InputSpec::builder()
            .var_with_probability("x", 2, 0.9)
            .var_with_probability("y", 2, 0.9)
            .build()
            .unwrap();
        let prefix = prefix("x - y", &spec, 3);
        let lib = TechLibrary::unit();
        let leaves = prefix.leaves(&spec, &lib);
        let netlist = prefix.netlist();
        assert_eq!(netlist.count_kind(CellKind::Not), 2);
        let complemented: Vec<&LeafAddend> = leaves
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
        let prefix = prefix("x * y", &spec, 4);
        let lib = TechLibrary::lcbg10pv_like();
        let leaves = prefix.leaves(&spec, &lib);
        let and_delay = lib.and_tree_delay(2);
        for leaf in leaves.iter().flatten() {
            assert!((leaf.arrival - (3.0 + and_delay)).abs() < 1e-9);
            assert!((leaf.probability - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_addends_are_constant_one_nets() {
        let spec = InputSpec::builder().var("x", 2).build().unwrap();
        let prefix = prefix("x + 5", &spec, 4);
        let lib = TechLibrary::unit();
        let leaves = prefix.leaves(&spec, &lib);
        let netlist = prefix.netlist();
        let constants: usize = leaves
            .iter()
            .flatten()
            .filter(|leaf| leaf.probability == 1.0)
            .count();
        assert_eq!(constants, 2); // bits 0 and 2 of the constant 5
        assert_eq!(netlist.count_kind(CellKind::Const1), 1);
    }
}
