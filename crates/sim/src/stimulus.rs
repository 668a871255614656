//! Random and exhaustive stimulus generation over the words of an input spec.

use dpsyn_ir::InputSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Random or exhaustive stimulus generation over the words of a
/// [`WordMap`](dpsyn_netlist::WordMap).
#[derive(Debug, Clone)]
pub struct Stimulus {
    rng: StdRng,
}

impl Stimulus {
    /// Creates a reproducible stimulus generator from a seed.
    pub fn with_seed(seed: u64) -> Self {
        Stimulus {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws one uniformly random word-level assignment for the variables of `spec`.
    pub fn uniform_assignment(&mut self, spec: &InputSpec) -> BTreeMap<String, u64> {
        spec.vars()
            .map(|var| {
                let mask = if var.width() >= 64 {
                    u64::MAX
                } else {
                    (1u64 << var.width()) - 1
                };
                (var.name().to_string(), self.rng.gen::<u64>() & mask)
            })
            .collect()
    }

    /// Draws `count` uniformly random assignments — the natural batch size is
    /// [`BlockSim::vectors_per_pass`](crate::BlockSim::vectors_per_pass), one batch
    /// per block pass.
    pub fn uniform_batch(&mut self, spec: &InputSpec, count: usize) -> Vec<BTreeMap<String, u64>> {
        (0..count).map(|_| self.uniform_assignment(spec)).collect()
    }

    /// Draws one word-level assignment where every bit is 1 with the probability given
    /// in the spec's per-bit profile (the model used by the paper's power experiments).
    pub fn biased_assignment(&mut self, spec: &InputSpec) -> BTreeMap<String, u64> {
        spec.vars()
            .map(|var| {
                let mut value = 0u64;
                for (index, bit) in var.bits().iter().enumerate() {
                    if self.rng.gen::<f64>() < bit.probability {
                        value |= 1 << index;
                    }
                }
                (var.name().to_string(), value)
            })
            .collect()
    }

    /// Draws `count` biased assignments (see [`Stimulus::biased_assignment`]).
    pub fn biased_batch(&mut self, spec: &InputSpec, count: usize) -> Vec<BTreeMap<String, u64>> {
        (0..count).map(|_| self.biased_assignment(spec)).collect()
    }

    /// Enumerates every assignment of the variables in `spec` when the total number of
    /// input bits is at most `max_bits`; returns `None` otherwise.
    pub fn exhaustive_assignments(
        spec: &InputSpec,
        max_bits: u32,
    ) -> Option<Vec<BTreeMap<String, u64>>> {
        let total_bits = spec.total_bits();
        if total_bits > max_bits || total_bits > 24 {
            return None;
        }
        let vars: Vec<_> = spec.vars().collect();
        let mut assignments = Vec::with_capacity(1 << total_bits);
        for pattern in 0u64..(1 << total_bits) {
            let mut assignment = BTreeMap::new();
            let mut cursor = pattern;
            for var in &vars {
                let mask = (1u64 << var.width()) - 1;
                assignment.insert(var.name().to_string(), cursor & mask);
                cursor >>= var.width();
            }
            assignments.push(assignment);
        }
        Some(assignments)
    }
}

/// A pre-drawn batch of raw uniform samples, shared across evaluation points that
/// differ only in their per-bit probabilities.
///
/// [`Stimulus::biased_assignment`] draws **exactly one** uniform `f64` per input bit
/// (vector-major, then spec-variable order, then bit order) regardless of the
/// probability it is thresholded against. `SharedStimulus` exploits that: the raw
/// samples are drawn once from the seed, and [`SharedStimulus::biased_assignments`]
/// thresholds them against any probability profile — producing the bit-identical
/// stream `Stimulus::with_seed(seed).biased_batch(spec, vectors)` would, without
/// re-running the generator per profile. This is what lets an exploration group
/// generate one stimulus batch and reuse it across every skew/bias point.
#[derive(Debug, Clone)]
pub struct SharedStimulus {
    samples: Vec<f64>,
    seed: u64,
    bits_per_vector: usize,
    vectors: usize,
}

impl SharedStimulus {
    /// Draws `vectors × bits_per_vector` uniform samples from the seed, in the
    /// exact order [`Stimulus::biased_batch`] consumes them.
    pub fn generate(seed: u64, bits_per_vector: usize, vectors: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = (0..vectors * bits_per_vector)
            .map(|_| rng.gen::<f64>())
            .collect();
        SharedStimulus {
            samples,
            seed,
            bits_per_vector,
            vectors,
        }
    }

    /// The seed the samples were drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of vectors the batch holds.
    pub fn vectors(&self) -> usize {
        self.vectors
    }

    /// Input bits consumed per vector.
    pub fn bits_per_vector(&self) -> usize {
        self.bits_per_vector
    }

    /// Thresholds the shared samples against the per-bit probabilities of `spec`,
    /// producing the bit-identical assignment stream of
    /// `Stimulus::with_seed(self.seed()).biased_batch(spec, self.vectors())`.
    ///
    /// # Panics
    ///
    /// Panics when the spec's total bit count differs from the batch shape the
    /// samples were drawn for.
    pub fn biased_assignments(&self, spec: &InputSpec) -> Vec<BTreeMap<String, u64>> {
        assert_eq!(
            spec.total_bits() as usize,
            self.bits_per_vector,
            "spec bit count does not match the shared stimulus batch shape"
        );
        let mut cursor = 0;
        (0..self.vectors)
            .map(|_| {
                spec.vars()
                    .map(|var| {
                        let mut value = 0u64;
                        for (index, bit) in var.bits().iter().enumerate() {
                            if self.samples[cursor] < bit.probability {
                                value |= 1 << index;
                            }
                            cursor += 1;
                        }
                        (var.name().to_string(), value)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_assignments_cover_the_space() {
        let spec = InputSpec::builder()
            .var("a", 2)
            .var("b", 1)
            .build()
            .unwrap();
        let assignments = Stimulus::exhaustive_assignments(&spec, 16).unwrap();
        assert_eq!(assignments.len(), 8);
        let distinct: std::collections::BTreeSet<_> =
            assignments.iter().map(|a| (a["a"], a["b"])).collect();
        assert_eq!(distinct.len(), 8);
        // Too many bits -> None.
        let wide = InputSpec::builder().var("x", 30).build().unwrap();
        assert!(Stimulus::exhaustive_assignments(&wide, 16).is_none());
    }

    #[test]
    fn uniform_assignments_respect_width() {
        let spec = InputSpec::builder()
            .var("a", 3)
            .var("b", 7)
            .build()
            .unwrap();
        let mut stimulus = Stimulus::with_seed(42);
        for _ in 0..50 {
            let assignment = stimulus.uniform_assignment(&spec);
            assert!(assignment["a"] < 8);
            assert!(assignment["b"] < 128);
        }
    }

    #[test]
    fn biased_assignments_follow_probabilities() {
        let spec = InputSpec::builder()
            .var_with_probability("hot", 1, 0.95)
            .var_with_probability("cold", 1, 0.05)
            .build()
            .unwrap();
        let mut stimulus = Stimulus::with_seed(11);
        let mut hot_ones = 0;
        let mut cold_ones = 0;
        let trials = 2000;
        for _ in 0..trials {
            let assignment = stimulus.biased_assignment(&spec);
            hot_ones += assignment["hot"];
            cold_ones += assignment["cold"];
        }
        assert!(hot_ones as f64 / trials as f64 > 0.9);
        assert!((cold_ones as f64 / trials as f64) < 0.1);
    }

    #[test]
    fn stimulus_is_reproducible() {
        let spec = InputSpec::builder().var("a", 16).build().unwrap();
        let mut first = Stimulus::with_seed(3);
        let mut second = Stimulus::with_seed(3);
        for _ in 0..10 {
            assert_eq!(
                first.uniform_assignment(&spec),
                second.uniform_assignment(&spec)
            );
        }
    }

    #[test]
    fn shared_stimulus_matches_biased_batches_for_any_profile() {
        // The same seed + batch shape, thresholded against three different
        // probability profiles, must reproduce the per-profile generator streams
        // bit for bit — the invariant the explorer's group-shared batch rests on.
        let profiles = [
            InputSpec::builder()
                .var_with_probability("a", 9, 0.3)
                .var_with_probability("b", 5, 0.5)
                .build()
                .unwrap(),
            InputSpec::builder()
                .var_with_probability("a", 9, 0.05)
                .var_with_probability("b", 5, 0.95)
                .build()
                .unwrap(),
            InputSpec::builder()
                .var("a", 9)
                .var("b", 5)
                .build()
                .unwrap(),
        ];
        let shared = SharedStimulus::generate(21, 14, 10);
        assert_eq!(shared.seed(), 21);
        assert_eq!(shared.vectors(), 10);
        assert_eq!(shared.bits_per_vector(), 14);
        for spec in &profiles {
            let mut generator = Stimulus::with_seed(21);
            assert_eq!(
                shared.biased_assignments(spec),
                generator.biased_batch(spec, 10),
                "shared thresholding diverged from the generator stream"
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch shape")]
    fn shared_stimulus_rejects_a_mismatched_spec() {
        let spec = InputSpec::builder().var("a", 4).build().unwrap();
        let shared = SharedStimulus::generate(3, 9, 2);
        let _ = shared.biased_assignments(&spec);
    }

    #[test]
    fn batches_draw_from_the_same_stream_as_single_assignments() {
        let spec = InputSpec::builder()
            .var_with_probability("a", 9, 0.3)
            .var("b", 5)
            .build()
            .unwrap();
        let mut batched = Stimulus::with_seed(21);
        let mut sequential = Stimulus::with_seed(21);
        let batch = batched.uniform_batch(&spec, 10);
        for assignment in &batch {
            assert_eq!(*assignment, sequential.uniform_assignment(&spec));
        }
        let batch = batched.biased_batch(&spec, 10);
        for assignment in &batch {
            assert_eq!(*assignment, sequential.biased_assignment(&spec));
        }
    }
}
