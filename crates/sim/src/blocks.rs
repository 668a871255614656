//! The bit-parallel evaluation core: `B` lane words of 64 vectors per net.
//!
//! [`BlockSim`] evaluates the shared [`CompiledNetlist`] program — the levelized
//! three-address op array `dpsyn-netlist` builds once per netlist and every analysis
//! (timing, power, this simulator) consumes — **`B × 64` stimulus vectors per pass**.
//! One vector is packed into each bit of a `u64` lane word, so every gate becomes one
//! or two bitwise machine operations per word (SIMD-within-a-register). The buffer is
//! a flat `Vec<u64>` chunked `[u64; B]`-wise: net `n` owns words `n·B .. n·B + B`, and
//! stimulus vector `v` lives in bit `v mod 64` of word `v / 64` of every net's block.
//! At `B = 1` this is the classic 64-lane layout: one word per net, bit `t` is vector
//! `t`.
//!
//! The inner loop is written for autovectorization: the block size is dispatched
//! **once** per evaluation call to a monomorphized const-generic kernel, so inside
//! the op loop every gate is a straight-line `for k in 0..B` over fixed-size
//! `[u64; B]` arrays with no per-op branching on the block size — exactly the shape
//! LLVM turns into full-width vector ops.
//!
//! Correctness is anchored to the scalar [`Simulator`](crate::Simulator): the
//! differential suite in `crates/sim/tests/prop_blocks.rs` requires bit-identical
//! values on every net of every vector and exact toggle parity for every supported
//! block size, so the oracle chain is scalar → blocks.

use crate::SimError;
use dpsyn_netlist::{CellKind, CompiledNetlist, NetId, Netlist, WordMap};
use std::collections::BTreeMap;

/// Stimulus vectors per lane word: one per bit of a `u64`.
pub const LANES: usize = 64;

/// The set of bits a partially filled word of `count ≤ 64` vectors occupies.
pub(crate) fn lane_mask(count: usize) -> u64 {
    match count {
        0 => 0,
        count if count >= LANES => u64::MAX,
        count => (1u64 << count) - 1,
    }
}

/// Default block size: 4 lane words (256 vectors) per net per pass.
pub const DEFAULT_BLOCK: usize = 4;

/// The block sizes the engine supports (each dispatches to its own monomorphized
/// kernel).
pub const BLOCK_SIZES: [usize; 4] = [1, 2, 4, 8];

/// A netlist compiled into a levelized program evaluated `B × 64` vectors per pass.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use dpsyn_netlist::{CellKind, Netlist};
/// use dpsyn_sim::{BlockSim, DEFAULT_BLOCK};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut netlist = Netlist::new("and");
/// let a = netlist.add_input("a");
/// let b = netlist.add_input("b");
/// let y = netlist.add_gate(CellKind::And2, &[a, b])?[0];
/// netlist.mark_output(y);
/// let sim = BlockSim::compile(&netlist, DEFAULT_BLOCK)?;
/// assert_eq!(sim.vectors_per_pass(), DEFAULT_BLOCK * 64);
/// let mut blocks = sim.block_buffer();
/// // Set all vectors of `a` to 1, alternate `b`: y = b.
/// for k in 0..sim.block() {
///     blocks[a.index() * sim.block() + k] = u64::MAX;
///     blocks[b.index() * sim.block() + k] = 0xAAAA_AAAA_AAAA_AAAA;
/// }
/// sim.evaluate_into(&mut blocks);
/// assert_eq!(blocks[y.index() * sim.block()], 0xAAAA_AAAA_AAAA_AAAA);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockSim {
    compiled: CompiledNetlist,
    block: usize,
}

impl BlockSim {
    /// Compiles a netlist into a levelized flat program evaluated `block` lane words
    /// per net.
    ///
    /// # Errors
    ///
    /// Returns an error when the netlist contains a combinational cycle.
    ///
    /// # Panics
    ///
    /// Panics when `block` is not one of [`BLOCK_SIZES`].
    pub fn compile(netlist: &Netlist, block: usize) -> Result<Self, SimError> {
        Ok(Self::from_compiled(netlist.compile()?, block))
    }

    /// Wraps an already-compiled program; no traversal happens here.
    ///
    /// # Panics
    ///
    /// Panics when `block` is not one of [`BLOCK_SIZES`].
    pub fn from_compiled(compiled: CompiledNetlist, block: usize) -> Self {
        assert!(
            BLOCK_SIZES.contains(&block),
            "unsupported block size {block}: must be one of {BLOCK_SIZES:?}"
        );
        BlockSim { compiled, block }
    }

    /// The shared compiled program the simulator evaluates.
    pub fn compiled(&self) -> &CompiledNetlist {
        &self.compiled
    }

    /// The block size `B`: lane words per net.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Stimulus vectors evaluated per pass: `B × 64`.
    pub fn vectors_per_pass(&self) -> usize {
        self.block * LANES
    }

    /// Number of nets of the program.
    pub fn net_count(&self) -> usize {
        self.compiled.net_count()
    }

    /// The primary input nets, in the netlist's declaration order.
    pub fn inputs(&self) -> &[NetId] {
        self.compiled.inputs()
    }

    /// Allocates a zeroed block buffer of the right length (`net_count × B`).
    pub fn block_buffer(&self) -> Vec<u64> {
        vec![0; self.compiled.net_count() * self.block]
    }

    /// Evaluates all `B × 64` lanes in place: primary-input blocks must already be
    /// set in `blocks`; every other net's block is overwritten in level order.
    ///
    /// # Panics
    ///
    /// Panics when `blocks.len()` differs from `net_count × B`.
    pub fn evaluate_into(&self, blocks: &mut [u64]) {
        assert_eq!(
            blocks.len(),
            self.compiled.net_count() * self.block,
            "block buffer must hold {} u64 words per net",
            self.block
        );
        // One dispatch per pass; the kernels are monomorphized so the op loop has
        // no block-size branching left inside it.
        match self.block {
            1 => evaluate_blocks::<1>(&self.compiled, blocks),
            2 => evaluate_blocks::<2>(&self.compiled, blocks),
            4 => evaluate_blocks::<4>(&self.compiled, blocks),
            8 => evaluate_blocks::<8>(&self.compiled, blocks),
            _ => unreachable!("constructor rejects unsupported block sizes"),
        }
    }

    /// Packs up to `B × 64` word-level assignments into the input blocks of
    /// `blocks`: assignment `v` lands in bit `v mod 64` of word `v / 64` of every
    /// input net's block. Input nets of `map` not covered by an assignment default
    /// to 0; vectors beyond `assignments.len()` stay 0.
    ///
    /// # Panics
    ///
    /// Panics when more than [`BlockSim::vectors_per_pass`] assignments are supplied
    /// or when `blocks` is shorter than an input net's block requires.
    pub fn pack_word_assignments(
        &self,
        map: &WordMap,
        assignments: &[BTreeMap<String, u64>],
        blocks: &mut [u64],
    ) {
        assert!(
            assignments.len() <= self.vectors_per_pass(),
            "at most {} assignments fit into one block pass",
            self.vectors_per_pass()
        );
        for word in map.inputs() {
            for net in word.bits() {
                blocks[net.index() * self.block..(net.index() + 1) * self.block].fill(0);
            }
        }
        for (vector, assignment) in assignments.iter().enumerate() {
            let word_index = vector / LANES;
            let bit_index = vector % LANES;
            for word in map.inputs() {
                let value = assignment.get(word.name()).copied().unwrap_or(0);
                for (bit, net) in word.bits().iter().enumerate() {
                    if (value >> bit) & 1 == 1 {
                        blocks[net.index() * self.block + word_index] |= 1 << bit_index;
                    }
                }
            }
        }
    }

    /// Unpacks the output word of stimulus vector `vector` from an evaluated block
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics when `vector` is outside the pass (`≥ B × 64`).
    pub fn unpack_output(&self, map: &WordMap, blocks: &[u64], vector: usize) -> u64 {
        assert!(
            vector < self.vectors_per_pass(),
            "vector index out of range for block size {}",
            self.block
        );
        let word_index = vector / LANES;
        let bit_index = vector % LANES;
        let mut value = 0u64;
        for (bit, net) in map.output().bits().iter().enumerate() {
            value |= ((blocks[net.index() * self.block + word_index] >> bit_index) & 1) << bit;
        }
        value
    }

    /// Evaluates up to `B × 64` word-level assignments in one pass and returns the
    /// output word value of each, in order — the batched counterpart of
    /// [`Simulator::evaluate_words`](crate::Simulator::evaluate_words).
    ///
    /// # Panics
    ///
    /// Panics when more than [`BlockSim::vectors_per_pass`] assignments are
    /// supplied.
    pub fn evaluate_word_batch(
        &self,
        map: &WordMap,
        assignments: &[BTreeMap<String, u64>],
    ) -> Vec<u64> {
        let mut blocks = self.block_buffer();
        self.pack_word_assignments(map, assignments, &mut blocks);
        self.evaluate_into(&mut blocks);
        (0..assignments.len())
            .map(|vector| self.unpack_output(map, &blocks, vector))
            .collect()
    }
}

/// Loads one net's block into a fixed-size array (the shape LLVM vectorizes).
#[inline(always)]
fn load<const B: usize>(blocks: &[u64], net: NetId) -> [u64; B] {
    let base = net.index() * B;
    let mut words = [0u64; B];
    words.copy_from_slice(&blocks[base..base + B]);
    words
}

/// Stores one net's block from a fixed-size array.
#[inline(always)]
fn store<const B: usize>(blocks: &mut [u64], net: NetId, words: [u64; B]) {
    let base = net.index() * B;
    blocks[base..base + B].copy_from_slice(&words);
}

/// The monomorphized evaluation kernel: the scalar gate semantics lifted bitwise
/// over `[u64; B]` blocks.
fn evaluate_blocks<const B: usize>(compiled: &CompiledNetlist, blocks: &mut [u64]) {
    for op in compiled.ops() {
        match op.kind {
            CellKind::Fa => {
                let a = load::<B>(blocks, op.ins[0]);
                let b = load::<B>(blocks, op.ins[1]);
                let c = load::<B>(blocks, op.ins[2]);
                let mut sum = [0u64; B];
                let mut carry = [0u64; B];
                for k in 0..B {
                    sum[k] = a[k] ^ b[k] ^ c[k];
                    carry[k] = (a[k] & b[k]) | (a[k] & c[k]) | (b[k] & c[k]);
                }
                store(blocks, op.outs[0], sum);
                store(blocks, op.outs[1], carry);
            }
            CellKind::Ha => {
                let a = load::<B>(blocks, op.ins[0]);
                let b = load::<B>(blocks, op.ins[1]);
                let mut sum = [0u64; B];
                let mut carry = [0u64; B];
                for k in 0..B {
                    sum[k] = a[k] ^ b[k];
                    carry[k] = a[k] & b[k];
                }
                store(blocks, op.outs[0], sum);
                store(blocks, op.outs[1], carry);
            }
            CellKind::And2 => {
                let a = load::<B>(blocks, op.ins[0]);
                let b = load::<B>(blocks, op.ins[1]);
                let mut out = [0u64; B];
                for k in 0..B {
                    out[k] = a[k] & b[k];
                }
                store(blocks, op.outs[0], out);
            }
            CellKind::And3 => {
                let a = load::<B>(blocks, op.ins[0]);
                let b = load::<B>(blocks, op.ins[1]);
                let c = load::<B>(blocks, op.ins[2]);
                let mut out = [0u64; B];
                for k in 0..B {
                    out[k] = a[k] & b[k] & c[k];
                }
                store(blocks, op.outs[0], out);
            }
            CellKind::Or2 => {
                let a = load::<B>(blocks, op.ins[0]);
                let b = load::<B>(blocks, op.ins[1]);
                let mut out = [0u64; B];
                for k in 0..B {
                    out[k] = a[k] | b[k];
                }
                store(blocks, op.outs[0], out);
            }
            CellKind::Xor2 => {
                let a = load::<B>(blocks, op.ins[0]);
                let b = load::<B>(blocks, op.ins[1]);
                let mut out = [0u64; B];
                for k in 0..B {
                    out[k] = a[k] ^ b[k];
                }
                store(blocks, op.outs[0], out);
            }
            CellKind::Xor3 => {
                let a = load::<B>(blocks, op.ins[0]);
                let b = load::<B>(blocks, op.ins[1]);
                let c = load::<B>(blocks, op.ins[2]);
                let mut out = [0u64; B];
                for k in 0..B {
                    out[k] = a[k] ^ b[k] ^ c[k];
                }
                store(blocks, op.outs[0], out);
            }
            CellKind::Not => {
                let a = load::<B>(blocks, op.ins[0]);
                let mut out = [0u64; B];
                for k in 0..B {
                    out[k] = !a[k];
                }
                store(blocks, op.outs[0], out);
            }
            CellKind::Buf => {
                let a = load::<B>(blocks, op.ins[0]);
                store(blocks, op.outs[0], a);
            }
            CellKind::Mux2 => {
                let a = load::<B>(blocks, op.ins[0]);
                let b = load::<B>(blocks, op.ins[1]);
                let sel = load::<B>(blocks, op.ins[2]);
                let mut out = [0u64; B];
                for k in 0..B {
                    out[k] = (sel[k] & b[k]) | (!sel[k] & a[k]);
                }
                store(blocks, op.outs[0], out);
            }
            CellKind::Const0 => {
                store(blocks, op.outs[0], [0u64; B]);
            }
            CellKind::Const1 => {
                store(blocks, op.outs[0], [u64::MAX; B]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ripple2;
    use crate::Simulator;

    fn ripple_assignments(count: usize) -> Vec<BTreeMap<String, u64>> {
        (0..count as u64)
            .map(|pattern| {
                let mut assignment = BTreeMap::new();
                assignment.insert("a".to_string(), pattern & 3);
                assignment.insert("b".to_string(), (pattern >> 2) & 3);
                assignment
            })
            .collect()
    }

    #[test]
    fn block_engine_adds_like_the_word_model() {
        let (netlist, map) = ripple2();
        for block in BLOCK_SIZES {
            let sim = BlockSim::compile(&netlist, block).unwrap();
            let assignments = ripple_assignments(sim.vectors_per_pass());
            let outputs = sim.evaluate_word_batch(&map, &assignments);
            for (assignment, value) in assignments.iter().zip(&outputs) {
                assert_eq!(
                    *value,
                    assignment["a"] + assignment["b"],
                    "block {block}: {assignment:?}"
                );
            }
        }
    }

    #[test]
    fn block_one_matches_the_lane_engine_word_for_word() {
        // B = 1 is the 64-lane layout: one word per net, bit t = vector t. Every
        // net's word must agree with the scalar oracle lane by lane.
        let (netlist, map) = ripple2();
        let sim = BlockSim::compile(&netlist, 1).unwrap();
        let scalar = Simulator::compile(&netlist).unwrap();
        let assignments = ripple_assignments(LANES);
        let mut blocks = sim.block_buffer();
        sim.pack_word_assignments(&map, &assignments, &mut blocks);
        sim.evaluate_into(&mut blocks);
        assert_eq!(blocks.len(), netlist.net_count(), "one word per net");
        for (lane, assignment) in assignments.iter().enumerate() {
            let values = scalar.evaluate(&map.assignment_to_bits(assignment));
            for (net, value) in values.iter().enumerate() {
                assert_eq!(
                    (blocks[net] >> lane) & 1 == 1,
                    *value,
                    "net {net} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn from_compiled_shares_the_program() {
        let (netlist, map) = ripple2();
        let compiled = netlist.compile().unwrap();
        let shared = BlockSim::from_compiled(compiled.clone(), DEFAULT_BLOCK);
        let fresh = BlockSim::compile(&netlist, DEFAULT_BLOCK).unwrap();
        assert_eq!(shared.compiled(), &compiled);
        let assignments = ripple_assignments(16);
        assert_eq!(
            shared.evaluate_word_batch(&map, &assignments),
            fresh.evaluate_word_batch(&map, &assignments)
        );
    }

    #[test]
    fn lane_mask_covers_partial_batches() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(63), u64::MAX >> 1);
        assert_eq!(lane_mask(64), u64::MAX);
        assert_eq!(lane_mask(65), u64::MAX);
    }

    #[test]
    fn vectors_beyond_the_batch_stay_zero() {
        let (netlist, map) = ripple2();
        let sim = BlockSim::compile(&netlist, 2).unwrap();
        // Three vectors into a 128-vector pass: only bits 0..3 of word 0 may be set.
        let assignments = vec![
            [("a".to_string(), 3u64), ("b".to_string(), 3u64)]
                .into_iter()
                .collect::<BTreeMap<String, u64>>();
            3
        ];
        let mut blocks = sim.block_buffer();
        sim.pack_word_assignments(&map, &assignments, &mut blocks);
        for word in map.inputs() {
            for net in word.bits() {
                let base = net.index() * sim.block();
                assert_eq!(blocks[base] & !0b111, 0, "surplus bits in word 0");
                assert_eq!(blocks[base + 1], 0, "word 1 untouched");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported block size")]
    fn unsupported_block_sizes_are_rejected() {
        let (netlist, _) = ripple2();
        let _ = BlockSim::compile(&netlist, 3);
    }

    #[test]
    #[should_panic(expected = "block buffer must hold")]
    fn wrong_buffer_length_is_rejected() {
        let (netlist, _) = ripple2();
        let sim = BlockSim::compile(&netlist, 4).unwrap();
        let mut blocks = vec![0u64; 1];
        sim.evaluate_into(&mut blocks);
    }
}
