//! The compiled-analysis layer: a netlist flattened into a levelized three-address
//! program shared by every analysis.
//!
//! [`CompiledNetlist`] is built **once** per netlist ([`Netlist::compile`]) and then
//! reused by every downstream consumer — the 64-lane simulator, static timing
//! analysis, probability/power propagation and the design-space explorer — so the
//! Kahn levelization, the fanout map and the per-cell bookkeeping are computed a
//! single time instead of once per analysis:
//!
//! * **flat op array** ([`CompiledOp`]): one fixed-stride record per cell, holding the
//!   kind and the net indices of its pins, in levelized order (concatenating the
//!   levels yields a valid topological order);
//! * **level offsets**: `ops[level_offset(i)..level_offset(i + 1)]` are the mutually
//!   independent cells of level `i`;
//! * **fanout CSR**: the `(reader cell, input pin)` pairs of every net, in one dense
//!   arena (offsets + entries) instead of a `Vec<Vec<_>>`;
//! * **stable net-slot map**: programs index dense per-net buffers by
//!   [`NetId::index`], so one `Vec` per analysis replaces any keyed map;
//! * **cell and driver maps**: the op index of every cell
//!   ([`CompiledNetlist::op_index`]) and the driving op of every net, which let
//!   [`CompiledNetlist::swap_inputs`] patch a pin swap in place instead of
//!   recompiling;
//! * **kind tables**: the per-cell kind array (cell-index order) and the kind
//!   histogram, which analyses use to resolve technology parameters once per kind
//!   instead of once per cell.
//!
//! # Example
//!
//! ```
//! use dpsyn_netlist::{CellKind, Netlist};
//!
//! let mut netlist = Netlist::new("chain");
//! let a = netlist.add_input("a");
//! let b = netlist.add_input("b");
//! let x = netlist.add_gate(CellKind::And2, &[a, b]).unwrap()[0];
//! netlist.add_gate(CellKind::Not, &[x]).unwrap();
//! let compiled = netlist.compile().unwrap();
//! assert_eq!(compiled.op_count(), 2);
//! assert_eq!(compiled.level_count(), 2);
//! // The AND feeds the NOT: one fanout entry reading pin 0.
//! assert_eq!(compiled.fanout(x), &[(compiled.ops()[1].cell, 0)]);
//! ```

use crate::cell::{CellId, CellKind};
use crate::error::NetlistError;
use crate::graph::{NetId, Netlist};

/// An order-sensitive splitmix64 chain over the canonical structural word stream
/// shared by [`Netlist::structural_hash`] and [`CompiledNetlist::structural_hash`]:
/// the net count, the primary input/output lists, and every cell's kind and pin nets
/// in cell-index order. Names never enter the stream — two designs that differ only
/// in net or instance names hash identically, and compile to identical programs.
/// One full mix per 64-bit word (not per byte) keeps the hash cheap enough to be
/// computed eagerly inside every [`Netlist::compile`].
///
/// The hasher is public because downstream evaluation keys (the technology-library
/// identity digest, the explorer's persistent result store) chain the **same** mixing
/// function over their own word streams — [`StructuralHasher::with_seed`] starts an
/// independently-seeded chain so two digests of the same words never collide by
/// construction of the seed alone.
pub struct StructuralHasher(u64);

impl StructuralHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Starts the canonical chain used by the structural hashes.
    pub fn new() -> Self {
        StructuralHasher(Self::OFFSET)
    }

    /// Starts an independently-seeded chain (for fingerprints that must not collide
    /// with the canonical structural hash or with each other).
    pub fn with_seed(seed: u64) -> Self {
        StructuralHasher(Self::OFFSET ^ seed)
    }

    /// Mixes one 64-bit word into the chain.
    pub fn write(&mut self, value: u64) {
        let mut z = self.0 ^ value.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    /// Mixes every byte of a string (length-prefixed, so adjacent fields never
    /// alias) — used by digests that cover names or flow identifiers.
    pub fn write_str(&mut self, text: &str) {
        self.write(text.len() as u64);
        for byte in text.bytes() {
            self.write(u64::from(byte));
        }
    }

    /// Mixes a net list (length-prefixed).
    pub fn write_nets(&mut self, nets: &[NetId]) {
        self.write(nets.len() as u64);
        for net in nets {
            self.write(net.index() as u64);
        }
    }

    /// The chained digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for StructuralHasher {
    fn default() -> Self {
        StructuralHasher::new()
    }
}

/// Folds one cell's kind and pin connectivity into a single word (distinct odd
/// multipliers per pin slot, `index + 1` so net 0 still contributes), so the chained
/// hash pays **one mix per cell** — cheap enough to compute eagerly in every
/// [`Netlist::compile`]. Pin order and kind both perturb the word; cell order is
/// captured by the chaining in [`StructuralHasher::write`].
pub(crate) fn cell_word(kind: CellKind, inputs: &[NetId], outputs: &[NetId]) -> u64 {
    const PIN_SALTS: [u64; 5] = [
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0x27d4_eb2f_1656_67c5,
        0x8546_5629_1d9d_5d69,
    ];
    let mut word = (kind.table_index() as u64 + 1).wrapping_mul(0xff51_afd7_ed55_8ccd);
    for (slot, net) in inputs.iter().enumerate() {
        word ^= (net.index() as u64 + 1).wrapping_mul(PIN_SALTS[slot]);
    }
    for (slot, net) in outputs.iter().enumerate() {
        word ^= (net.index() as u64 + 1).wrapping_mul(PIN_SALTS[slot + 3]);
    }
    word
}

/// Hashes one structural identity; `cells` must yield `(kind, inputs, outputs)` in
/// cell-index order.
pub(crate) fn hash_structure<'n>(
    net_count: usize,
    inputs: &[NetId],
    outputs: &[NetId],
    cells: impl Iterator<Item = (CellKind, &'n [NetId], &'n [NetId])>,
) -> u64 {
    let mut hasher = StructuralHasher::new();
    hasher.write(net_count as u64);
    hasher.write_nets(inputs);
    hasher.write_nets(outputs);
    for (kind, cell_inputs, cell_outputs) in cells {
        hasher.write(cell_word(kind, cell_inputs, cell_outputs));
    }
    hasher.finish()
}

/// [`CompiledNetlist`]'s `net_driver` entry of a net no cell drives.
const UNDRIVEN: u32 = u32::MAX;

/// One levelized instruction of a [`CompiledNetlist`]: a cell kind plus the net
/// indices of its pins and the identity of the originating cell.
///
/// Unused pin slots stay 0 and are never read (the kind determines the arity), so the
/// program is a fixed-stride array evaluation loops stream through without touching
/// the netlist graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledOp {
    /// The cell kind (determines how many of `ins` / `outs` are live).
    pub kind: CellKind,
    /// The originating cell, for attributing per-cell results (energy, culprits).
    pub cell: CellId,
    /// Nets of the input pins, in pin order; surplus slots alias net 0 and are never
    /// read (the kind determines the arity).
    pub ins: [NetId; 3],
    /// Nets of the output pins, in pin order; surplus slots alias net 0 and are never
    /// read.
    pub outs: [NetId; 2],
}

impl CompiledOp {
    /// The live input nets, in pin order.
    #[inline]
    pub fn input_nets(&self) -> &[NetId] {
        &self.ins[..self.kind.input_count()]
    }

    /// The live output nets, in pin order.
    #[inline]
    pub fn output_nets(&self) -> &[NetId] {
        &self.outs[..self.kind.output_count()]
    }
}

/// A [`Netlist`] compiled once into a dense, levelized three-address program plus the
/// shared lookup structures every analysis needs (fanout CSR, kind tables).
///
/// The `compiled` module docs give the layout and an example; build one with
/// [`Netlist::compile`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledNetlist {
    net_count: usize,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    ops: Vec<CompiledOp>,
    level_offsets: Vec<usize>,
    fanout_offsets: Vec<u32>,
    fanout_readers: Vec<(CellId, u32)>,
    /// Op index of every cell, indexed by [`CellId::index`].
    op_of_cell: Vec<u32>,
    /// `op index << 1 | output pin` of every net's driver, [`UNDRIVEN`] for nets no
    /// cell drives.
    net_driver: Vec<u32>,
    cell_kinds: Vec<CellKind>,
    kind_counts: Vec<(CellKind, usize)>,
    structural_hash: u64,
}

impl CompiledNetlist {
    /// Compiles `netlist` into a levelized program. Prefer [`Netlist::compile`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the netlist is cyclic; the
    /// reported cell is the lowest-indexed cell left unplaced, matching the error the
    /// former per-analysis traversals produced.
    pub fn compile(netlist: &Netlist) -> Result<Self, NetlistError> {
        let net_count = netlist.net_count();
        let cell_count = netlist.cell_count();

        // Kind tables and the fanout CSR, both in cell-index order so downstream
        // consumers observe exactly the order the former allocating paths produced.
        let mut cell_kinds = Vec::with_capacity(cell_count);
        let mut kind_counts: Vec<(CellKind, usize)> = Vec::new();
        let mut fanout_offsets = vec![0u32; net_count + 1];
        for (_, cell) in netlist.cells() {
            let kind = cell.kind();
            cell_kinds.push(kind);
            match kind_counts.iter_mut().find(|(seen, _)| *seen == kind) {
                Some((_, count)) => *count += 1,
                None => kind_counts.push((kind, 1)),
            }
            for net in cell.inputs() {
                fanout_offsets[net.index() + 1] += 1;
            }
        }
        for index in 0..net_count {
            fanout_offsets[index + 1] += fanout_offsets[index];
        }
        let mut cursor: Vec<u32> = fanout_offsets[..net_count].to_vec();
        let mut fanout_readers = vec![(CellId(0), 0u32); fanout_offsets[net_count] as usize];
        for (id, cell) in netlist.cells() {
            for (pin, net) in cell.inputs().iter().enumerate() {
                let slot = &mut cursor[net.index()];
                fanout_readers[*slot as usize] = (id, pin as u32);
                *slot += 1;
            }
        }

        // Kahn levelization over the CSR — the single traversal every analysis shares.
        let mut pending: Vec<usize> = netlist
            .cells()
            .map(|(_, cell)| {
                cell.inputs()
                    .iter()
                    .filter(|net| netlist.net(**net).driver().is_some())
                    .count()
            })
            .collect();
        let mut current: Vec<CellId> = pending
            .iter()
            .enumerate()
            .filter(|(_, count)| **count == 0)
            .map(|(index, _)| CellId(index as u32))
            .collect();
        let mut ops = Vec::with_capacity(cell_count);
        let mut op_of_cell = vec![0u32; cell_count];
        let mut net_driver = vec![UNDRIVEN; net_count];
        let mut level_offsets = vec![0];
        while !current.is_empty() {
            let mut next = Vec::new();
            for cell_id in &current {
                let cell = netlist.cell(*cell_id);
                let mut ins = [NetId(0); 3];
                for (slot, net) in cell.inputs().iter().enumerate() {
                    ins[slot] = *net;
                }
                let mut outs = [NetId(0); 2];
                op_of_cell[cell_id.index()] = ops.len() as u32;
                for (slot, net) in cell.outputs().iter().enumerate() {
                    outs[slot] = *net;
                    net_driver[net.index()] = (ops.len() as u32) << 1 | slot as u32;
                    let begin = fanout_offsets[net.index()] as usize;
                    let end = fanout_offsets[net.index() + 1] as usize;
                    for (reader, _) in &fanout_readers[begin..end] {
                        pending[reader.index()] -= 1;
                        if pending[reader.index()] == 0 {
                            next.push(*reader);
                        }
                    }
                }
                ops.push(CompiledOp {
                    kind: cell.kind(),
                    cell: *cell_id,
                    ins,
                    outs,
                });
            }
            level_offsets.push(ops.len());
            current = next;
        }
        if ops.len() != cell_count {
            let culprit = pending
                .iter()
                .position(|count| *count > 0)
                .map(|index| CellId(index as u32))
                .unwrap_or(CellId(0));
            return Err(NetlistError::CombinationalCycle { cell: culprit });
        }
        Ok(CompiledNetlist {
            net_count,
            inputs: netlist.inputs().to_vec(),
            outputs: netlist.outputs().to_vec(),
            ops,
            level_offsets,
            fanout_offsets,
            fanout_readers,
            op_of_cell,
            net_driver,
            cell_kinds,
            kind_counts,
            structural_hash: netlist.structural_hash(),
        })
    }

    /// Number of nets — the length dense per-net buffers must have.
    #[inline]
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of cells (= number of ops).
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of compiled ops (one per cell).
    #[inline]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The primary input nets, in the netlist's declaration order.
    #[inline]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The primary output nets, in the netlist's declaration order.
    #[inline]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The flat program, in levelized order (a valid topological order).
    #[inline]
    pub fn ops(&self) -> &[CompiledOp] {
        &self.ops
    }

    /// Number of logic levels. Equal to the structural logic depth of the netlist
    /// (cells on the longest input-to-output path).
    #[inline]
    pub fn level_count(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// The ops of one level; all cells within a level are mutually independent.
    ///
    /// # Panics
    ///
    /// Panics when `level >= level_count()`.
    pub fn level(&self, level: usize) -> &[CompiledOp] {
        &self.ops[self.level_offsets[level]..self.level_offsets[level + 1]]
    }

    /// The `(reader cell, input pin)` pairs consuming `net`, served from the
    /// precomputed CSR (no allocation), in the same order the former
    /// `Netlist::fanout_map` listed them.
    ///
    /// # Panics
    ///
    /// Panics when `net` does not belong to the compiled netlist.
    #[inline]
    pub fn fanout(&self, net: NetId) -> &[(CellId, u32)] {
        let begin = self.fanout_offsets[net.index()] as usize;
        let end = self.fanout_offsets[net.index() + 1] as usize;
        &self.fanout_readers[begin..end]
    }

    /// The position of `cell`'s op in [`Self::ops`] (drivers always sit at lower
    /// positions than their readers).
    ///
    /// # Panics
    ///
    /// Panics when `cell` does not belong to the compiled netlist.
    #[inline]
    pub fn op_index(&self, cell: CellId) -> usize {
        self.op_of_cell[cell.index()] as usize
    }

    /// Exchanges the source nets of input pin `pin_a` of cell `a` and input pin
    /// `pin_b` of cell `b` **in place**, when the exchange keeps the op order:
    /// afterwards the program is `==` a fresh [`Netlist::compile`] of the netlist
    /// with the same two pins rewired (fanout CSR, op order and
    /// [`Self::structural_hash`] included), at the cost of the two fanout slices
    /// plus one hash pass instead of a levelization.
    ///
    /// Kahn levelization puts a cell one level above its deepest driver and orders
    /// each level by *ready event* — the `(driver op, output pin, reader cell, reader
    /// pin)` of the fanout entry that releases the cell last. The patch holds when
    /// neither swapped cell changes level and each one's new ready event still sorts
    /// between those of its level neighbours; then no other op moves either. An
    /// exchange that would close a cycle always changes a level, so it is refused
    /// too. Applying the same call again undoes an applied exchange exactly.
    ///
    /// Returns `false`, with the program untouched, when the op order would change;
    /// the caller then compiles the rewired netlist instead.
    ///
    /// # Panics
    ///
    /// Panics when a cell does not belong to the program or a pin is not one of its
    /// input pins.
    ///
    /// # Example
    /// ```
    /// use dpsyn_netlist::{CellKind, Netlist};
    /// let mut netlist = Netlist::new("swap");
    /// let a = netlist.add_input("a");
    /// let b = netlist.add_input("b");
    /// let c = netlist.add_input("c");
    /// netlist.add_gate(CellKind::And2, &[a, b]).unwrap();
    /// netlist.add_gate(CellKind::Or2, &[c, a]).unwrap();
    /// let (and, or) = (netlist.cells().next().unwrap().0, netlist.cells().nth(1).unwrap().0);
    /// let mut compiled = netlist.compile().unwrap();
    /// // AND reads `c` on pin 1 and OR reads `b` on pin 0: every cell stays on level 0.
    /// assert!(compiled.swap_inputs(and, 1, or, 0));
    /// netlist.rewire_input(and, 1, c).unwrap();
    /// netlist.rewire_input(or, 0, b).unwrap();
    /// assert_eq!(compiled, netlist.compile().unwrap());
    /// ```
    pub fn swap_inputs(&mut self, a: CellId, pin_a: usize, b: CellId, pin_b: usize) -> bool {
        let (op_a, op_b) = (self.op_index(a), self.op_index(b));
        assert!(
            pin_a < self.ops[op_a].kind.input_count() && pin_b < self.ops[op_b].kind.input_count(),
            "swap_inputs: pin out of range"
        );
        self.exchange(op_a, pin_a, op_b, pin_b);
        if self.keeps_place(op_a) && self.keeps_place(op_b) {
            self.structural_hash = hash_structure(
                self.net_count,
                &self.inputs,
                &self.outputs,
                self.op_of_cell.iter().map(|&op| {
                    let op = &self.ops[op as usize];
                    (op.kind, op.input_nets(), op.output_nets())
                }),
            );
            true
        } else {
            self.exchange(op_a, pin_a, op_b, pin_b);
            false
        }
    }

    /// Swaps the two operands and moves their fanout entries between the two source
    /// slices, keeping each slice in `(reader cell, pin)` order as compiled.
    fn exchange(&mut self, op_a: usize, pin_a: usize, op_b: usize, pin_b: usize) {
        let reader_a = (self.ops[op_a].cell, pin_a as u32);
        let reader_b = (self.ops[op_b].cell, pin_b as u32);
        let source_a = self.ops[op_a].ins[pin_a];
        let source_b = self.ops[op_b].ins[pin_b];
        self.ops[op_a].ins[pin_a] = source_b;
        self.ops[op_b].ins[pin_b] = source_a;
        for (source, old, new) in [
            (source_a, reader_a, reader_b),
            (source_b, reader_b, reader_a),
        ] {
            let begin = self.fanout_offsets[source.index()] as usize;
            let end = self.fanout_offsets[source.index() + 1] as usize;
            let slice = &mut self.fanout_readers[begin..end];
            let at = slice
                .iter()
                .position(|entry| *entry == old)
                .expect("every operand has its fanout entry");
            slice[at] = new;
            slice.sort_unstable();
        }
    }

    /// Whether a cell output drives the net with index `net`.
    pub(crate) fn is_driven(&self, net: usize) -> bool {
        self.net_driver[net] != UNDRIVEN
    }

    /// The level holding op position `op`.
    fn level_of(&self, op: usize) -> usize {
        self.level_offsets.partition_point(|&offset| offset <= op) - 1
    }

    /// The ready event of the op at `op` under the current operands: the latest
    /// `(driver op, output pin, reader cell, reader pin)` among its driven inputs,
    /// `None` when no input is driven.
    fn ready_event(&self, op: usize) -> Option<(u32, u32, CellId, usize)> {
        let op = &self.ops[op];
        op.input_nets()
            .iter()
            .enumerate()
            .filter_map(|(pin, net)| {
                let driver = self.net_driver[net.index()];
                (driver != UNDRIVEN).then_some((driver >> 1, driver & 1, op.cell, pin))
            })
            .max()
    }

    /// Whether the op at `op` keeps its level and its place within it under the
    /// current operands (see [`Self::swap_inputs`]).
    fn keeps_place(&self, op: usize) -> bool {
        let level = self.level_of(op);
        let Some(event) = self.ready_event(op) else {
            // No driven input: level 0, which is ordered by cell index.
            return level == 0;
        };
        let (first, last) = (self.level_offsets[level], self.level_offsets[level + 1] - 1);
        level > 0
            && self.level_of(event.0 as usize) + 1 == level
            && (op == first || self.ready_event(op - 1) < Some(event))
            && (op == last || Some(event) < self.ready_event(op + 1))
    }

    /// The kind of every cell, indexed by [`CellId::index`] (cell-index order, i.e.
    /// the order [`Netlist::cells`] iterates in — not op order).
    #[inline]
    pub fn cell_kinds(&self) -> &[CellKind] {
        &self.cell_kinds
    }

    /// Histogram of cell kinds, in order of first appearance in the cell table.
    /// Analyses resolve technology parameters once per entry here instead of once
    /// per cell.
    #[inline]
    pub fn kind_counts(&self) -> &[(CellKind, usize)] {
        &self.kind_counts
    }

    /// Reconstructs the level grouping as owned `Vec`s: level 0 holds the cells all
    /// of whose inputs are primary inputs (or undriven nets), and every cell sits one
    /// level above the deepest cell driving one of its inputs. Analyses should
    /// iterate [`Self::ops`] / [`Self::level`] instead; this owned copy is for
    /// inspection and tests.
    ///
    /// # Example
    /// ```
    /// use dpsyn_netlist::{CellKind, Netlist};
    /// let mut netlist = Netlist::new("chain");
    /// let a = netlist.add_input("a");
    /// let b = netlist.add_input("b");
    /// let x = netlist.add_gate(CellKind::And2, &[a, b]).unwrap()[0];
    /// netlist.add_gate(CellKind::Not, &[x]).unwrap();
    /// netlist.add_gate(CellKind::Xor2, &[a, b]).unwrap();
    /// let levels = netlist.compile().unwrap().levels();
    /// assert_eq!(levels.len(), 2);
    /// assert_eq!(levels[0].len(), 2); // the AND and the XOR are independent
    /// assert_eq!(levels[1].len(), 1); // the NOT reads the AND
    /// ```
    pub fn levels(&self) -> Vec<Vec<CellId>> {
        (0..self.level_count())
            .map(|level| self.level(level).iter().map(|op| op.cell).collect())
            .collect()
    }

    /// Reconstructs the ops in **cell-index order** (the order [`Netlist::cells`]
    /// iterates in), as opposed to the levelized op order of [`Self::ops`].
    ///
    /// Used by structural verification (comparing a freshly synthesized netlist
    /// against a cached program cell by cell).
    pub fn cell_ops(&self) -> Vec<CompiledOp> {
        let placeholder = CompiledOp {
            kind: CellKind::Const0,
            cell: CellId(0),
            ins: [NetId(0); 3],
            outs: [NetId(0); 2],
        };
        let mut by_cell = vec![placeholder; self.ops.len()];
        for op in &self.ops {
            by_cell[op.cell.index()] = *op;
        }
        by_cell
    }

    /// A 64-bit hash of the program's structural identity: net count, primary
    /// input/output lists, and every cell's kind and pin connectivity (names are
    /// excluded). Equal to [`Netlist::structural_hash`] of the originating netlist,
    /// so a freshly synthesized netlist can be matched against a cached compiled
    /// program **without recompiling it** — the key of the explorer's per-worker
    /// compiled-program cache. Cache consumers must still verify candidates
    /// structurally (hash equality is necessary, not sufficient).
    ///
    /// Memoized at compile time, so this is a free read — the incremental analyses
    /// assert it on every delta to catch state/program mix-ups.
    #[inline]
    pub fn structural_hash(&self) -> u64 {
        self.structural_hash
    }
}
