//! The netlist graph: nets, cells, connectivity and validation.

use crate::cell::{Cell, CellId, CellKind, Name};
use crate::compiled::CompiledNetlist;
use crate::error::NetlistError;
use std::borrow::Cow;
use std::fmt;

/// Identifier of a net inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Index of the net in the netlist's net table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single-bit wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    pub(crate) name: Name,
    pub(crate) driver: Option<(CellId, usize)>,
    pub(crate) is_input: bool,
}

impl Net {
    /// Human-readable name of the net.
    pub fn name(&self) -> Cow<'_, str> {
        self.name.text()
    }

    /// The cell and output pin driving this net, if any.
    pub fn driver(&self) -> Option<(CellId, usize)> {
        self.driver
    }

    /// Whether the net is a primary input.
    pub fn is_input(&self) -> bool {
        self.is_input
    }
}

/// A bit-level combinational netlist.
///
/// See the [crate-level documentation](crate) for an overview and an example.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    cells: Vec<Cell>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    const_nets: [Option<NetId>; 2],
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the module (used when a copied netlist becomes another design).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds an internal net and returns its identifier.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.push_net(Name::Explicit(name.into()))
    }

    fn push_net(&mut self, name: Name) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name,
            driver: None,
            is_input: false,
        });
        id
    }

    /// Adds a primary input net and returns its identifier.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.nets[id.index()].is_input = true;
        self.inputs.push(id);
        id
    }

    /// Renames an existing net (used to give primary outputs friendly port names).
    ///
    /// # Panics
    ///
    /// Panics when the identifier does not belong to this netlist.
    pub fn set_net_name(&mut self, net: NetId, name: impl Into<String>) {
        self.nets[net.index()].name = Name::Explicit(name.into());
    }

    /// Marks an existing net as a primary output. A net may be marked at most once;
    /// marking it again is a no-op.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Returns a net that carries the constant `value`, creating the constant cell on
    /// first use.
    ///
    /// # Example
    /// ```
    /// use dpsyn_netlist::Netlist;
    /// let mut netlist = Netlist::new("demo");
    /// let one_a = netlist.constant(true);
    /// let one_b = netlist.constant(true);
    /// assert_eq!(one_a, one_b); // constants are shared
    /// ```
    pub fn constant(&mut self, value: bool) -> NetId {
        let slot = usize::from(value);
        if let Some(net) = self.const_nets[slot] {
            return net;
        }
        let (kind, net_name, cell_name) = if value {
            (CellKind::Const1, "const1", "const1_src")
        } else {
            (CellKind::Const0, "const0", "const0_src")
        };
        let net = self.add_net(net_name);
        self.add_cell(kind, cell_name, vec![], vec![net])
            .expect("constant cells have fixed arity");
        self.const_nets[slot] = Some(net);
        net
    }

    /// Instantiates a cell, connecting the given nets to its pins in order.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of connections does not match the cell kind's pin
    /// counts, if any net does not belong to this netlist, or if an output net already
    /// has a driver, is a primary input, or is connected to two output pins. A failed
    /// call leaves the netlist untouched.
    pub fn add_cell(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> Result<CellId, NetlistError> {
        self.insert(kind, Name::Explicit(name.into()), &inputs, Some(&outputs))
    }

    /// Instantiates a cell with automatically created output nets and an automatically
    /// generated instance name, returning the new output nets in pin order.
    ///
    /// This is the work-horse used by the synthesis engines. The names are derived,
    /// not stored: the cell reads as `{mnemonic}_{cell}` and its output nets as
    /// `{mnemonic}_{cell}_o{pin}`, after the kind it was created with.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of inputs does not match the kind's arity, or if
    /// an input net does not belong to this netlist. A failed call leaves the netlist
    /// untouched.
    pub fn add_gate(
        &mut self,
        kind: CellKind,
        inputs: &[NetId],
    ) -> Result<Vec<NetId>, NetlistError> {
        let name = Name::Derived {
            kind,
            cell: self.cells.len() as u32,
            pin: None,
        };
        let id = self.insert(kind, name, inputs, None)?;
        Ok(self.cells[id.index()].outputs().to_vec())
    }

    /// The one insert path of [`Netlist::add_cell`] and [`Netlist::add_gate`]: checks
    /// every pin before writing anything, so a failed call leaves the netlist
    /// untouched. `outputs: None` creates fresh output nets with derived names.
    fn insert(
        &mut self,
        kind: CellKind,
        name: Name,
        inputs: &[NetId],
        outputs: Option<&[NetId]>,
    ) -> Result<CellId, NetlistError> {
        if inputs.len() != kind.input_count() {
            return Err(NetlistError::InputArityMismatch {
                kind,
                supplied: inputs.len(),
                expected: kind.input_count(),
            });
        }
        let given = outputs.unwrap_or_default();
        if outputs.is_some() && given.len() != kind.output_count() {
            return Err(NetlistError::OutputArityMismatch {
                kind,
                supplied: given.len(),
                expected: kind.output_count(),
            });
        }
        for net in inputs.iter().chain(given) {
            if net.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(*net));
            }
        }
        let id = CellId(self.cells.len() as u32);
        for (pin, net) in given.iter().enumerate() {
            let slot = &self.nets[net.index()];
            if slot.driver.is_some() || slot.is_input || given[..pin].contains(net) {
                return Err(NetlistError::MultipleDrivers {
                    net: *net,
                    cell: id,
                });
            }
        }
        // Every check passed: from here on nothing fails.
        let mut outs = [NetId(0); 2];
        for (pin, slot) in outs.iter_mut().enumerate().take(kind.output_count()) {
            *slot = match outputs {
                Some(outputs) => outputs[pin],
                None => self.push_net(Name::Derived {
                    kind,
                    cell: id.0,
                    pin: Some(pin as u8),
                }),
            };
            self.nets[slot.index()].driver = Some((id, pin));
        }
        let mut ins = [NetId(0); 3];
        ins[..inputs.len()].copy_from_slice(inputs);
        self.cells.push(Cell {
            kind,
            name,
            ins,
            outs,
        });
        Ok(id)
    }

    /// Looks up a net.
    ///
    /// # Panics
    ///
    /// Panics when the identifier does not belong to this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Looks up a cell.
    ///
    /// # Panics
    ///
    /// Panics when the identifier does not belong to this netlist.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Iterates over all nets with their identifiers.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(index, net)| (NetId(index as u32), net))
    }

    /// Iterates over all cells with their identifiers.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(index, cell)| (CellId(index as u32), cell))
    }

    /// Primary input nets in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of cells of a particular kind.
    ///
    /// # Example
    /// ```
    /// use dpsyn_netlist::{CellKind, Netlist};
    /// let mut netlist = Netlist::new("demo");
    /// netlist.constant(true);
    /// assert_eq!(netlist.count_kind(CellKind::Const1), 1);
    /// ```
    pub fn count_kind(&self, kind: CellKind) -> usize {
        self.cells.iter().filter(|cell| cell.kind == kind).count()
    }

    /// Compiles the netlist into the shared analysis program: a levelized flat op
    /// array with the fanout CSR and kind tables every analysis consumes.
    ///
    /// Compile **once** per netlist and hand the result to the lane simulator,
    /// timing analysis, power analysis and the report path; see
    /// [`CompiledNetlist`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the netlist is cyclic.
    pub fn compile(&self) -> Result<CompiledNetlist, NetlistError> {
        CompiledNetlist::compile(self)
    }

    /// Validates the invariants that do not require a traversal: every net is driven
    /// by exactly one source (a cell output or a primary input) and every marked
    /// output exists. Callers that also compile the netlist get the remaining
    /// acyclicity check from [`Netlist::compile`] for free.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate_structure(&self) -> Result<(), NetlistError> {
        for (id, net) in self.nets() {
            if net.driver.is_none() && !net.is_input {
                return Err(NetlistError::UndrivenNet {
                    net: id,
                    name: net.name().into_owned(),
                });
            }
        }
        for net in &self.outputs {
            if net.index() >= self.nets.len() {
                return Err(NetlistError::UnknownOutput(*net));
            }
        }
        Ok(())
    }

    /// Validates structural invariants: every net is driven by exactly one source
    /// (a cell output or a primary input) and the netlist is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.validate_structure()?;
        self.compile()?;
        Ok(())
    }

    /// Reconnects one input pin of an existing cell to another net (a local rewire).
    ///
    /// Only the reader side changes: no net gains or loses its driver, so a
    /// [`crate::DeltaState`] bound to the old compiled program can be migrated to the
    /// recompile with [`crate::DeltaState::rebind`]. The caller is responsible for
    /// keeping the graph acyclic (rewiring to a net whose driver precedes the cell in
    /// the current topological order always is — [`Netlist::rewire_would_cycle`]
    /// checks an arbitrary candidate); [`Netlist::compile`] reports a
    /// [`NetlistError::CombinationalCycle`] otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] when `net` does not belong to this
    /// netlist, [`NetlistError::UnknownCell`] when `cell` does not, and
    /// [`NetlistError::PinOutOfRange`] when `pin` is not one of the cell's input
    /// pins. A failed call leaves the netlist untouched.
    pub fn rewire_input(
        &mut self,
        cell: CellId,
        pin: usize,
        net: NetId,
    ) -> Result<(), NetlistError> {
        if net.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(net));
        }
        if cell.index() >= self.cells.len() {
            return Err(NetlistError::UnknownCell(cell));
        }
        let arity = self.cells[cell.index()].inputs().len();
        if pin >= arity {
            return Err(NetlistError::PinOutOfRange { cell, pin, arity });
        }
        self.cells[cell.index()].ins[pin] = net;
        Ok(())
    }

    /// Whether reconnecting an input pin of `cell` to `net` would close a
    /// combinational cycle — i.e. whether `net`'s value (transitively, through
    /// drivers) depends on an output of `cell`.
    ///
    /// This is the acyclicity guard for [`Netlist::rewire_input`] when the caller
    /// cannot prove the candidate safe from a topological order: a rewire whose
    /// source passes this check always recompiles cleanly, one that fails it always
    /// ends in [`NetlistError::CombinationalCycle`]. Runs a backward DFS over the
    /// driver edges, `O(nets + pins)` worst case, no allocation proportional to the
    /// move count.
    ///
    /// # Panics
    ///
    /// Panics when `cell` or `net` does not belong to this netlist.
    pub fn rewire_would_cycle(&self, cell: CellId, net: NetId) -> bool {
        assert!(
            cell.index() < self.cells.len(),
            "cell {cell} does not belong to this netlist"
        );
        assert!(
            net.index() < self.nets.len(),
            "net {net} does not belong to this netlist"
        );
        let mut visited = vec![false; self.cells.len()];
        let mut stack = vec![net];
        while let Some(current) = stack.pop() {
            let Some((driver, _)) = self.nets[current.index()].driver() else {
                continue;
            };
            if driver == cell {
                return true;
            }
            if visited[driver.index()] {
                continue;
            }
            visited[driver.index()] = true;
            stack.extend_from_slice(self.cells[driver.index()].inputs());
        }
        false
    }

    /// Replaces the kind of an existing cell with another kind of identical arity
    /// (e.g. `And2` → `Or2`), keeping every pin connection and every name: a name
    /// [`Netlist::add_gate`] derived keeps the kind the cell was created with.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] when `cell` does not belong to this
    /// netlist, and an arity-mismatch error when `kind` does not have the same pin
    /// counts as the cell's current kind. A failed call leaves the netlist untouched.
    pub fn replace_cell_kind(&mut self, cell: CellId, kind: CellKind) -> Result<(), NetlistError> {
        if cell.index() >= self.cells.len() {
            return Err(NetlistError::UnknownCell(cell));
        }
        let slot = &mut self.cells[cell.index()];
        if slot.inputs().len() != kind.input_count() {
            return Err(NetlistError::InputArityMismatch {
                kind,
                supplied: slot.inputs().len(),
                expected: kind.input_count(),
            });
        }
        if slot.outputs().len() != kind.output_count() {
            return Err(NetlistError::OutputArityMismatch {
                kind,
                supplied: slot.outputs().len(),
                expected: kind.output_count(),
            });
        }
        slot.kind = kind;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder_netlist() -> Netlist {
        let mut netlist = Netlist::new("fa_test");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let outs = netlist.add_gate(CellKind::Fa, &[a, b, c]).unwrap();
        netlist.mark_output(outs[0]);
        netlist.mark_output(outs[1]);
        netlist
    }

    #[test]
    fn build_and_validate_full_adder() {
        let netlist = full_adder_netlist();
        assert!(netlist.validate().is_ok());
        assert_eq!(netlist.cell_count(), 1);
        assert_eq!(netlist.net_count(), 5);
        assert_eq!(netlist.inputs().len(), 3);
        assert_eq!(netlist.outputs().len(), 2);
        assert_eq!(netlist.compile().unwrap().level_count(), 1);
    }

    #[test]
    fn seeded_hasher_chains_diverge() {
        let words = [5u64, 3, 0, 1, 2, 2, 3, 4];
        let digest = |seed: u64| {
            let mut hasher = crate::compiled::StructuralHasher::with_seed(seed);
            for word in &words {
                hasher.write(*word);
            }
            hasher.finish()
        };
        assert_ne!(
            digest(1),
            digest(2),
            "seeds must produce independent chains"
        );
        assert_eq!(digest(7), digest(7), "chains are deterministic");
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut netlist = Netlist::new("bad");
        let a = netlist.add_input("a");
        let out = netlist.add_net("out");
        let result = netlist.add_cell(CellKind::Fa, "fa0", vec![a], vec![out]);
        assert!(matches!(
            result,
            Err(NetlistError::InputArityMismatch { .. })
        ));
        let result = netlist.add_cell(CellKind::Not, "n0", vec![a], vec![]);
        assert!(matches!(
            result,
            Err(NetlistError::OutputArityMismatch { .. })
        ));
    }

    #[test]
    fn double_driving_is_rejected() {
        let mut netlist = Netlist::new("bad");
        let a = netlist.add_input("a");
        let out = netlist.add_net("out");
        netlist
            .add_cell(CellKind::Buf, "b0", vec![a], vec![out])
            .unwrap();
        let result = netlist.add_cell(CellKind::Not, "n0", vec![a], vec![out]);
        assert!(matches!(result, Err(NetlistError::MultipleDrivers { .. })));
        // Driving a primary input is also rejected.
        let result = netlist.add_cell(CellKind::Not, "n1", vec![out], vec![a]);
        assert!(matches!(result, Err(NetlistError::MultipleDrivers { .. })));
    }

    #[test]
    fn failed_add_cell_leaves_the_netlist_untouched() {
        let mut netlist = Netlist::new("atomic");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let sum = netlist.add_net("sum");
        let carry = netlist.add_net("carry");
        netlist
            .add_cell(CellKind::Buf, "drive_carry", vec![a], vec![carry])
            .unwrap();
        // The carry is already driven: the half adder is rejected, and its sum net
        // must not keep a driver that was never pushed.
        let before = netlist.clone();
        assert_eq!(
            netlist.add_cell(CellKind::Ha, "ha0", vec![a, b], vec![sum, carry]),
            Err(NetlistError::MultipleDrivers {
                net: carry,
                cell: CellId(1),
            })
        );
        assert_eq!(netlist, before);
        assert_eq!(netlist.net(sum).driver(), None);
        // The next cell takes the id the failed call would have used; the sum net
        // still floats, and validation says so.
        netlist.add_gate(CellKind::Not, &[a]).unwrap();
        assert!(matches!(
            netlist.validate(),
            Err(NetlistError::UndrivenNet { net, .. }) if net == sum
        ));
        // One net on two output pins of the same call is rejected the same way.
        let before = netlist.clone();
        assert_eq!(
            netlist.add_cell(CellKind::Ha, "ha1", vec![a, b], vec![sum, sum]),
            Err(NetlistError::MultipleDrivers {
                net: sum,
                cell: CellId(2),
            })
        );
        assert_eq!(netlist, before);
    }

    #[test]
    fn undriven_net_is_reported() {
        let mut netlist = Netlist::new("floating");
        let a = netlist.add_input("a");
        let floating = netlist.add_net("floating");
        let out = netlist.add_net("out");
        netlist
            .add_cell(CellKind::And2, "g0", vec![a, floating], vec![out])
            .unwrap();
        assert!(matches!(
            netlist.validate(),
            Err(NetlistError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn unknown_net_is_rejected() {
        let mut netlist = Netlist::new("unknown");
        let a = netlist.add_input("a");
        let bogus = NetId(17);
        let out = netlist.add_net("out");
        let result = netlist.add_cell(CellKind::And2, "g0", vec![a, bogus], vec![out]);
        assert!(matches!(result, Err(NetlistError::UnknownNet(_))));
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let mut netlist = Netlist::new("chain");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let stage1 = netlist.add_gate(CellKind::And2, &[a, b]).unwrap()[0];
        let stage2 = netlist.add_gate(CellKind::Not, &[stage1]).unwrap()[0];
        let stage3 = netlist.add_gate(CellKind::Xor2, &[stage2, a]).unwrap()[0];
        netlist.mark_output(stage3);
        let compiled = netlist.compile().unwrap();
        let order: Vec<CellId> = compiled.ops().iter().map(|op| op.cell).collect();
        let positions: Vec<usize> = (0..netlist.cell_count())
            .map(|cell| order.iter().position(|c| c.index() == cell).unwrap())
            .collect();
        assert!(positions[0] < positions[1]);
        assert!(positions[1] < positions[2]);
        assert_eq!(compiled.level_count(), 3);
    }

    #[test]
    fn levelize_groups_independent_cells() {
        let mut netlist = Netlist::new("levels");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let and = netlist.add_gate(CellKind::And2, &[a, b]).unwrap()[0];
        let or = netlist.add_gate(CellKind::Or2, &[b, c]).unwrap()[0];
        let xor = netlist.add_gate(CellKind::Xor2, &[and, or]).unwrap()[0];
        let not = netlist.add_gate(CellKind::Not, &[xor]).unwrap()[0];
        netlist.mark_output(not);
        let levels = netlist.compile().unwrap().levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0].len(), 2);
        assert_eq!(levels[1].len(), 1);
        assert_eq!(levels[2].len(), 1);
        // Concatenating the levels yields a topological order: every cell's placement
        // is one level above its deepest driver.
        let flat: Vec<CellId> = levels.iter().flatten().copied().collect();
        assert_eq!(flat.len(), netlist.cell_count());
        let mut rank = vec![usize::MAX; netlist.cell_count()];
        for (position, cell) in flat.iter().enumerate() {
            rank[cell.index()] = position;
        }
        for (id, cell) in netlist.cells() {
            for input in cell.inputs() {
                if let Some((driver, _)) = netlist.net(*input).driver() {
                    assert!(rank[driver.index()] < rank[id.index()]);
                }
            }
        }
    }

    #[test]
    fn levelize_matches_logic_depth() {
        let netlist = full_adder_netlist();
        let compiled = netlist.compile().unwrap();
        let levels = compiled.levels();
        assert_eq!(levels.len(), compiled.level_count());
        assert!(levels.concat().len() == netlist.cell_count());
        let empty = Netlist::new("empty");
        assert!(empty.compile().unwrap().levels().is_empty());
    }

    #[test]
    fn constants_are_shared_and_drive_nets() {
        let mut netlist = Netlist::new("consts");
        let one = netlist.constant(true);
        let zero = netlist.constant(false);
        assert_ne!(one, zero);
        assert_eq!(netlist.constant(true), one);
        assert_eq!(netlist.cell_count(), 2);
        assert!(netlist.net(one).driver().is_some());
        assert!(netlist.validate().is_ok());
    }

    #[test]
    fn compiled_fanout_lists_readers() {
        let netlist = full_adder_netlist();
        let compiled = netlist.compile().unwrap();
        // Every input feeds the single FA on its corresponding pin; the outputs
        // have no readers. (This test rode on the removed allocating
        // `Netlist::fanout_map`; the CSR is now the only fanout source.)
        for (pin, net) in netlist.inputs().iter().enumerate() {
            assert_eq!(compiled.fanout(*net), &[(CellId(0), pin as u32)]);
        }
        for net in netlist.outputs() {
            assert!(compiled.fanout(*net).is_empty());
        }
        // And the CSR agrees with a straight walk over the cell table.
        let mut expected = vec![Vec::new(); netlist.net_count()];
        for (id, cell) in netlist.cells() {
            for (pin, net) in cell.inputs().iter().enumerate() {
                expected[net.index()].push((id, pin as u32));
            }
        }
        for (net, _) in netlist.nets() {
            assert_eq!(compiled.fanout(net), expected[net.index()].as_slice());
        }
    }

    #[test]
    fn compiled_program_tracks_structure_not_names() {
        let mut netlist = full_adder_netlist();
        let program = netlist.compile().unwrap();
        // Renames are invisible to the compiled program.
        netlist.set_net_name(netlist.inputs()[0], "renamed");
        assert_eq!(program, netlist.compile().unwrap());
        // A kind flip of identical arity changes the program (and stays compilable).
        let mut flipped = full_adder_netlist();
        let (a, b) = (flipped.inputs()[0], flipped.inputs()[1]);
        flipped.add_gate(CellKind::And2, &[a, b]).unwrap();
        let and_cell = CellId(1); // the FA is cell 0
        let and_program = flipped.compile().unwrap();
        assert_ne!(program, and_program);
        flipped.replace_cell_kind(and_cell, CellKind::Or2).unwrap();
        assert_ne!(and_program, flipped.compile().unwrap());
    }

    #[test]
    fn rewire_input_moves_a_reader() {
        let mut netlist = Netlist::new("rewire");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let and = netlist.add_gate(CellKind::And2, &[a, b]).unwrap()[0];
        netlist.mark_output(and);
        let cell = CellId(0);
        netlist.rewire_input(cell, 1, c).unwrap();
        assert_eq!(netlist.cell(cell).inputs(), &[a, c]);
        assert!(netlist.validate().is_ok());
        assert!(matches!(
            netlist.rewire_input(cell, 0, NetId(99)),
            Err(NetlistError::UnknownNet(_))
        ));
        // Arity-mismatched kind replacement is rejected.
        assert!(matches!(
            netlist.replace_cell_kind(cell, CellKind::Not),
            Err(NetlistError::InputArityMismatch { .. })
        ));
    }

    #[test]
    fn compiled_program_matches_levelize() {
        let mut netlist = Netlist::new("levels");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let and = netlist.add_gate(CellKind::And2, &[a, b]).unwrap()[0];
        let or = netlist.add_gate(CellKind::Or2, &[b, c]).unwrap()[0];
        let xor = netlist.add_gate(CellKind::Xor2, &[and, or]).unwrap()[0];
        netlist.mark_output(xor);
        let compiled = netlist.compile().unwrap();
        // The AND and the OR read only inputs; the XOR reads both.
        assert_eq!(
            compiled.levels(),
            vec![vec![CellId(0), CellId(1)], vec![CellId(2)]]
        );
        assert_eq!(compiled.level_count(), 2);
        assert_eq!(compiled.cell_count(), netlist.cell_count());
        assert_eq!(compiled.net_count(), netlist.net_count());
        assert_eq!(compiled.inputs(), netlist.inputs());
        assert_eq!(compiled.outputs(), netlist.outputs());
        // Ops are the levelized concatenation, and pins mirror the cells.
        let op_cells: Vec<CellId> = compiled.ops().iter().map(|op| op.cell).collect();
        assert_eq!(op_cells, compiled.levels().concat());
        for op in compiled.ops() {
            let cell = netlist.cell(op.cell);
            assert_eq!(op.kind, cell.kind());
            assert_eq!(op.input_nets(), cell.inputs());
            assert_eq!(op.output_nets(), cell.outputs());
        }
        // Kind tables: per-cell kinds in cell order, histogram in first-appearance order.
        assert_eq!(compiled.cell_kinds().len(), netlist.cell_count());
        assert_eq!(
            compiled.kind_counts(),
            &[(CellKind::And2, 1), (CellKind::Or2, 1), (CellKind::Xor2, 1)]
        );
        let total: usize = compiled.kind_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(total, netlist.cell_count());
    }

    #[test]
    fn compiled_cycle_reports_the_same_culprit() {
        let mut netlist = Netlist::new("cyclic");
        let a = netlist.add_input("a");
        let loop_net = netlist.add_net("loop");
        let out = netlist.add_net("out");
        netlist
            .add_cell(CellKind::And2, "g0", vec![a, loop_net], vec![out])
            .unwrap();
        netlist
            .add_cell(CellKind::Buf, "g1", vec![out], vec![loop_net])
            .unwrap();
        let compiled_err = netlist.compile().unwrap_err();
        assert!(matches!(
            compiled_err,
            NetlistError::CombinationalCycle { cell } if cell == CellId(0)
        ));
        assert!(netlist.validate().is_err());
    }

    #[test]
    fn compiled_empty_netlist() {
        let compiled = Netlist::new("empty").compile().unwrap();
        assert_eq!(compiled.op_count(), 0);
        assert_eq!(compiled.level_count(), 0);
        assert!(compiled.levels().is_empty());
        assert!(compiled.kind_counts().is_empty());
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut netlist = full_adder_netlist();
        let out = netlist.outputs()[0];
        netlist.mark_output(out);
        assert_eq!(netlist.outputs().len(), 2);
    }

    #[test]
    fn display_ids() {
        assert_eq!(NetId(3).to_string(), "n3");
        assert_eq!(CellId(4).to_string(), "c4");
    }

    #[test]
    fn rewire_input_rejects_bad_ids_without_mutating() {
        let mut netlist = full_adder_netlist();
        let before = netlist.clone();
        let a = netlist.inputs()[0];
        let bad_net = NetId(netlist.net_count() as u32);
        let bad_cell = CellId(netlist.cell_count() as u32);
        assert_eq!(
            netlist.rewire_input(CellId(0), 0, bad_net),
            Err(NetlistError::UnknownNet(bad_net))
        );
        assert_eq!(
            netlist.rewire_input(bad_cell, 0, a),
            Err(NetlistError::UnknownCell(bad_cell))
        );
        let arity = netlist.cell(CellId(0)).inputs().len();
        assert_eq!(
            netlist.rewire_input(CellId(0), arity, a),
            Err(NetlistError::PinOutOfRange {
                cell: CellId(0),
                pin: arity,
                arity,
            })
        );
        assert_eq!(netlist, before);
    }

    #[test]
    fn replace_cell_kind_rejects_unknown_cells() {
        let mut netlist = full_adder_netlist();
        let bad_cell = CellId(netlist.cell_count() as u32);
        assert_eq!(
            netlist.replace_cell_kind(bad_cell, CellKind::And2),
            Err(NetlistError::UnknownCell(bad_cell))
        );
    }

    #[test]
    fn rewire_would_cycle_agrees_with_compile() {
        // a -> NOT -> AND(.., b) -> BUF -> output
        let mut netlist = Netlist::new("chain");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let not = netlist.add_gate(CellKind::Not, &[a]).unwrap()[0];
        let and = netlist.add_gate(CellKind::And2, &[not, b]).unwrap()[0];
        let buf = netlist.add_gate(CellKind::Buf, &[and]).unwrap()[0];
        netlist.mark_output(buf);
        let not_cell = netlist.net(not).driver().unwrap().0;
        // Feeding the NOT from its own transitive fanout closes a cycle; the
        // guard and the compiler must agree on every candidate source.
        assert!(netlist.rewire_would_cycle(not_cell, not));
        assert!(netlist.rewire_would_cycle(not_cell, and));
        assert!(netlist.rewire_would_cycle(not_cell, buf));
        assert!(!netlist.rewire_would_cycle(not_cell, a));
        assert!(!netlist.rewire_would_cycle(not_cell, b));
        netlist.rewire_input(not_cell, 0, buf).unwrap();
        assert!(matches!(
            netlist.compile(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
        netlist.rewire_input(not_cell, 0, b).unwrap();
        assert!(netlist.compile().is_ok());
    }
}
