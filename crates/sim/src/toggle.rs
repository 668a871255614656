//! Zero-delay toggle counting over a sequence of input vectors.

use crate::blocks::lane_mask;
use crate::{BlockSim, SimError, Stimulus, DEFAULT_BLOCK, LANES};
use dpsyn_ir::InputSpec;
use dpsyn_netlist::{NetId, Netlist, WordMap};

/// Zero-delay toggle counting over a sequence of input vectors.
///
/// Feeding `n` vectors produces `n − 1` opportunities for each net to toggle; the
/// per-net toggle rate estimates the switching activity that the analytic model of
/// `dpsyn-power` predicts as `2·p·(1 − p)` per vector pair (a toggle happens when two
/// consecutive independent samples differ).
///
/// Vectors arrive either one at a time ([`ToggleCounter::record`], the scalar path) or
/// up to `block × 64` at a time from a [`BlockSim`] buffer
/// ([`ToggleCounter::record_blocks`]); the two paths count the same sequence
/// identically, including across batch boundaries, so they may be mixed freely.
#[derive(Debug, Clone)]
pub struct ToggleCounter {
    toggles: Vec<u64>,
    vectors: u64,
    previous: Option<Vec<bool>>,
}

impl ToggleCounter {
    /// Creates a counter for a netlist with `net_count` nets.
    pub fn new(net_count: usize) -> Self {
        ToggleCounter {
            toggles: vec![0; net_count],
            vectors: 0,
            previous: None,
        }
    }

    /// Records the net values of one simulated vector.
    pub fn record(&mut self, values: &[bool]) {
        if let Some(previous) = &self.previous {
            for (index, (old, new)) in previous.iter().zip(values.iter()).enumerate() {
                if old != new {
                    self.toggles[index] += 1;
                }
            }
        }
        self.previous = Some(values.to_vec());
        self.vectors += 1;
    }

    /// Records `count ≤ block × 64` consecutive vectors at once from an evaluated
    /// [`BlockSim`] buffer: net `n` owns words `n·block .. n·block + block`, and
    /// vector `v` is bit `v mod 64` of word `v / 64` of that block.
    ///
    /// Within-word pairs reduce to `count_ones` over word XORs
    /// (`word ^ (word >> 1)` marks every adjacent pair that differs); the
    /// word-to-word seams inside a block and the seam to the previously recorded
    /// vector are handled bit-exactly, so chunking a sequence into batches of any
    /// sizes and block widths counts exactly like feeding it vector by vector.
    ///
    /// # Panics
    ///
    /// Panics when `block` is 0, `count` is 0 or exceeds `block × 64`, or `blocks`
    /// is shorter than `net count × block`.
    pub fn record_blocks(&mut self, blocks: &[u64], block: usize, count: usize) {
        assert!(block >= 1, "the block size must be at least one lane word");
        assert!(
            (1..=block * LANES).contains(&count),
            "a block batch holds between 1 and {} vectors",
            block * LANES
        );
        assert!(
            blocks.len() >= self.toggles.len() * block,
            "block buffer shorter than net count x block"
        );
        // Seam: the last previously recorded vector against bit 0 of word 0.
        if let Some(previous) = &self.previous {
            for (index, old) in previous.iter().enumerate() {
                if *old != (blocks[index * block] & 1 == 1) {
                    self.toggles[index] += 1;
                }
            }
        }
        let mut previous = self.previous.take().unwrap_or_default();
        previous.resize(self.toggles.len(), false);
        for (index, toggle) in self.toggles.iter_mut().enumerate() {
            let base = index * block;
            let mut remaining = count;
            let mut word_index = 0;
            let mut last = false;
            while remaining > 0 {
                let in_word = remaining.min(LANES);
                let word = blocks[base + word_index];
                // Seam between consecutive words of the block: the last active bit
                // of the previous word against bit 0 of this one.
                if word_index > 0 && last != (word & 1 == 1) {
                    *toggle += 1;
                }
                *toggle += u64::from(((word ^ (word >> 1)) & lane_mask(in_word - 1)).count_ones());
                last = (word >> (in_word - 1)) & 1 == 1;
                remaining -= in_word;
                word_index += 1;
            }
            previous[index] = last;
        }
        self.previous = Some(previous);
        self.vectors += count as u64;
    }

    /// Number of vectors recorded so far.
    pub fn vectors(&self) -> u64 {
        self.vectors
    }

    /// Toggle count of a net.
    pub fn toggles(&self, net: NetId) -> u64 {
        self.toggles[net.index()]
    }

    /// Toggle rate of a net: toggles per vector transition (0.0 before two vectors).
    pub fn toggle_rate(&self, net: NetId) -> f64 {
        if self.vectors < 2 {
            0.0
        } else {
            self.toggles[net.index()] as f64 / (self.vectors - 1) as f64
        }
    }

    /// Sum of toggle rates over a set of nets.
    pub fn total_toggle_rate<I: IntoIterator<Item = NetId>>(&self, nets: I) -> f64 {
        nets.into_iter().map(|net| self.toggle_rate(net)).sum()
    }
}

/// Runs a biased random simulation of `vectors` input vectors and returns the populated
/// [`ToggleCounter`].
///
/// The stimulus stream is identical to the historical scalar implementation (one
/// [`Stimulus::biased_assignment`] draw per vector, in order), but the vectors are
/// evaluated `DEFAULT_BLOCK × 64` per pass on the [`BlockSim`] engine and folded into
/// the counter with [`ToggleCounter::record_blocks`], so the counts are bit-identical
/// to the scalar path at a fraction of the cost.
///
/// # Errors
///
/// Returns an error when the netlist cannot be simulated.
pub fn measure_toggles(
    netlist: &Netlist,
    map: &WordMap,
    spec: &InputSpec,
    vectors: usize,
    seed: u64,
) -> Result<ToggleCounter, SimError> {
    let simulator = BlockSim::compile(netlist, DEFAULT_BLOCK)?;
    let mut stimulus = Stimulus::with_seed(seed);
    let mut counter = ToggleCounter::new(netlist.net_count());
    let mut blocks = simulator.block_buffer();
    let mut remaining = vectors;
    while remaining > 0 {
        let batch = remaining.min(simulator.vectors_per_pass());
        let assignments = stimulus.biased_batch(spec, batch);
        simulator.pack_word_assignments(map, &assignments, &mut blocks);
        simulator.evaluate_into(&mut blocks);
        counter.record_blocks(&blocks, simulator.block(), batch);
        remaining -= batch;
    }
    Ok(counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{fake_net, ripple2};

    #[test]
    fn toggle_counter_counts_transitions() {
        let mut counter = ToggleCounter::new(2);
        assert_eq!(counter.toggle_rate(fake_net(0)), 0.0);
        counter.record(&[false, true]);
        counter.record(&[true, true]);
        counter.record(&[false, true]);
        assert_eq!(counter.vectors(), 3);
        assert_eq!(counter.toggles(fake_net(0)), 2);
        assert_eq!(counter.toggles(fake_net(1)), 0);
        assert_eq!(counter.toggle_rate(fake_net(0)), 1.0);
        assert_eq!(counter.total_toggle_rate([fake_net(0), fake_net(1)]), 1.0);
    }

    #[test]
    fn lane_recording_matches_scalar_recording() {
        // The same 7-vector sequence, once vector by vector and once as one-word
        // lane batches of 3 + 4, must produce identical counts (including the
        // batch seam).
        let sequence: [[bool; 2]; 7] = [
            [false, true],
            [true, true],
            [false, false],
            [false, true],
            [true, true],
            [true, false],
            [false, false],
        ];
        let mut scalar = ToggleCounter::new(2);
        for vector in &sequence {
            scalar.record(vector);
        }
        let pack = |range: std::ops::Range<usize>| -> Vec<u64> {
            let mut lanes = vec![0u64; 2];
            for (lane, vector) in sequence[range].iter().enumerate() {
                for (net, value) in vector.iter().enumerate() {
                    if *value {
                        lanes[net] |= 1 << lane;
                    }
                }
            }
            lanes
        };
        let mut lanes_counter = ToggleCounter::new(2);
        lanes_counter.record_blocks(&pack(0..3), 1, 3);
        lanes_counter.record_blocks(&pack(3..7), 1, 4);
        assert_eq!(lanes_counter.vectors(), scalar.vectors());
        for net in 0..2 {
            assert_eq!(
                lanes_counter.toggles(fake_net(net)),
                scalar.toggles(fake_net(net)),
                "net {net}"
            );
        }
    }

    #[test]
    fn surplus_lane_bits_are_ignored() {
        // Garbage above the active lane count (here, bits 1..64) must not count.
        let mut counter = ToggleCounter::new(1);
        counter.record_blocks(&[u64::MAX], 1, 1);
        counter.record_blocks(&[u64::MAX << 1], 1, 1);
        assert_eq!(counter.vectors(), 2);
        assert_eq!(counter.toggles(fake_net(0)), 1);
    }

    #[test]
    fn block_recording_matches_lane_recording_across_seams() {
        // A 200-vector pseudo-random sequence over 3 nets, recorded (a) vector by
        // vector and (b) as block batches with ragged tails for every supported
        // block size (block 1 being 64-wide lane batches) — all counts must be
        // identical, covering the word-to-word seams inside a block and the batch
        // seams.
        let nets = 3;
        let total = 200usize;
        let value = |vector: usize, net: usize| (vector * 31 + net * 7).is_multiple_of(3);
        let mut scalar = ToggleCounter::new(nets);
        for vector in 0..total {
            let values: Vec<bool> = (0..nets).map(|net| value(vector, net)).collect();
            scalar.record(&values);
        }
        let pack_block = |start: usize, count: usize, block: usize| -> Vec<u64> {
            let mut blocks = vec![0u64; nets * block];
            for offset in 0..count {
                let vector = start + offset;
                for net in 0..nets {
                    if value(vector, net) {
                        blocks[net * block + offset / 64] |= 1 << (offset % 64);
                    }
                }
            }
            blocks
        };
        for block in [1, 2, 4, 8] {
            let mut counter = ToggleCounter::new(nets);
            let mut start = 0;
            // Ragged batch sizes exercise partial words and partial blocks.
            for batch in [1, 65, block * 64, 17, 3].iter().cycle() {
                if start >= total {
                    break;
                }
                let count = (*batch).min(block * 64).min(total - start);
                counter.record_blocks(&pack_block(start, count, block), block, count);
                start += count;
            }
            assert_eq!(counter.vectors(), scalar.vectors(), "block {block}");
            for net in 0..nets {
                assert_eq!(
                    counter.toggles(fake_net(net)),
                    scalar.toggles(fake_net(net)),
                    "block {block}, net {net}"
                );
            }
        }
    }

    #[test]
    fn block_and_lane_recording_mix_freely() {
        // One sequence split across record calls, a one-word lane batch and a
        // two-word block batch must count like the pure scalar path.
        let nets = 2;
        let total = 150usize;
        let value = |vector: usize, net: usize| (vector / (net + 1)) % 2 == 1;
        let mut scalar = ToggleCounter::new(nets);
        for vector in 0..total {
            let values: Vec<bool> = (0..nets).map(|net| value(vector, net)).collect();
            scalar.record(&values);
        }
        let mut mixed = ToggleCounter::new(nets);
        let mut cursor = 0;
        // 10 scalar vectors.
        for vector in 0..10 {
            let values: Vec<bool> = (0..nets).map(|net| value(vector, net)).collect();
            mixed.record(&values);
        }
        cursor += 10;
        // One 40-vector lane batch.
        let mut lanes = vec![0u64; nets];
        for offset in 0..40 {
            for (net, lane) in lanes.iter_mut().enumerate() {
                if value(cursor + offset, net) {
                    *lane |= 1 << offset;
                }
            }
        }
        mixed.record_blocks(&lanes, 1, 40);
        cursor += 40;
        // The remaining 100 vectors as one 2-word block batch.
        let block = 2;
        let mut blocks = vec![0u64; nets * block];
        for offset in 0..(total - cursor) {
            for net in 0..nets {
                if value(cursor + offset, net) {
                    blocks[net * block + offset / 64] |= 1 << (offset % 64);
                }
            }
        }
        mixed.record_blocks(&blocks, block, total - cursor);
        assert_eq!(mixed.vectors(), scalar.vectors());
        for net in 0..nets {
            assert_eq!(
                mixed.toggles(fake_net(net)),
                scalar.toggles(fake_net(net)),
                "net {net}"
            );
        }
    }

    /// Toggle rates measured by simulation should agree with the analytic model
    /// 2·p·(1 − p) for independent consecutive samples.
    #[test]
    fn toggle_rates_match_analytic_activity() {
        let (netlist, map) = ripple2();
        let spec = InputSpec::builder()
            .var_with_probability("a", 2, 0.5)
            .var_with_probability("b", 2, 0.5)
            .build()
            .unwrap();
        let counter = measure_toggles(&netlist, &map, &spec, 4000, 99).unwrap();
        // The HA sum output has p = 0.5 -> toggle rate ≈ 2·0.25 = 0.5.
        let ha_sum = map.output().bit(0).unwrap();
        let rate = counter.toggle_rate(ha_sum);
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
    }
}
