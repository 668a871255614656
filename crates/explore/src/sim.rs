//! The simulated switching-activity metric of the exploration engine.
//!
//! When a sweep carries a [`SimActivity`](crate::SimActivity) request, every
//! evaluated point additionally runs its synthesized netlist through the SIMD
//! block-lane engine ([`BlockSim`]) on a **shared seeded stimulus batch** and folds
//! the measured per-net toggle rates through the same per-kind energy weights the
//! analytic model uses ([`dpsyn_power::simulated_energy`]). The result is
//! `simulated_switch_power` — the measured counterpart of the analytic
//! `power_mw` — and with it the analytic-vs-simulated divergence column of the
//! sweep summary.
//!
//! This module holds only that evaluation. Its [`SimContext`] (stimulus batch,
//! resolved energy tables, voltage, memo of simulated probability profiles) lives
//! in the worker's program cache ([`crate::cache`]) beside the compiled program it
//! simulates. Skew axes never perturb a simulation, so the memo collapses a whole
//! skew column to one evaluation.
//!
//! Determinism note: the stimulus batch is keyed by the **spec-level** activity
//! seed, never by worker or group identity, so two structurally identical groups
//! draw the same batch. The simulated figure is therefore a pure function of
//! `(netlist structure, word map, spec probabilities, activity)`, and so of the
//! design point and the activity request the persistent store's point key covers
//! ([`crate::store::stimulus_digest`]).

use crate::spec::SimActivity;
use dpsyn_ir::InputSpec;
use dpsyn_netlist::{Netlist, WordMap};
use dpsyn_power::{power_mw, simulated_energy};
use dpsyn_sim::{BlockSim, SharedStimulus, ToggleCounter};
use dpsyn_tech::{ResolvedTech, TechLibrary};

/// Everything one compiled program needs to be simulated under a run's activity
/// request, except the program itself.
pub(crate) struct SimContext {
    stimulus: SharedStimulus,
    resolved: ResolvedTech,
    voltage: f64,
    /// `(probability profile of the spec, simulated power)` pairs already
    /// evaluated under this program + batch. Groups enumerate only a handful of
    /// bias points, so a linear scan over exact bit patterns is both cheap and
    /// trivially deterministic.
    memo: Vec<(Vec<u64>, f64)>,
}

impl SimContext {
    /// Resolves the energy tables of `program` and draws the stimulus batch of
    /// `activity` for `spec`'s input bits.
    ///
    /// # Errors
    ///
    /// Returns the stringified technology-resolution failure.
    pub(crate) fn build(
        program: &BlockSim,
        activity: SimActivity,
        spec: &InputSpec,
        tech: &TechLibrary,
    ) -> Result<Self, String> {
        let resolved = tech
            .resolve(program.compiled())
            .map_err(|error| error.to_string())?;
        let stimulus =
            SharedStimulus::generate(activity.seed, spec.total_bits() as usize, activity.vectors);
        Ok(SimContext {
            stimulus,
            resolved,
            voltage: tech.voltage(),
            memo: Vec::new(),
        })
    }

    /// The simulated switching power of `netlist` (the structure `program` was
    /// compiled from) under `spec`'s probabilities, on the same milliwatt-like
    /// scale as the analytic `power_mw`: the program runs over the batch, and the
    /// measured toggle rates fold through the per-kind energy weights. Memoized per
    /// probability profile.
    pub(crate) fn power(
        &mut self,
        program: &BlockSim,
        word_map: &WordMap,
        netlist: &Netlist,
        spec: &InputSpec,
    ) -> f64 {
        let key = profile_key(spec);
        if let Some((_, power)) = self.memo.iter().find(|(resident, _)| *resident == key) {
            return *power;
        }
        let assignments = self.stimulus.biased_assignments(spec);
        let mut counter = ToggleCounter::new(program.net_count());
        let mut blocks = program.block_buffer();
        for chunk in assignments.chunks(program.vectors_per_pass()) {
            program.pack_word_assignments(word_map, chunk, &mut blocks);
            program.evaluate_into(&mut blocks);
            counter.record_blocks(&blocks, program.block(), chunk.len());
        }
        let mut rates = vec![0.0; program.net_count()];
        for (net, _) in netlist.nets() {
            rates[net.index()] = counter.toggle_rate(net);
        }
        let energy = simulated_energy(program.compiled(), &self.resolved, &rates);
        let power = power_mw(energy, self.voltage);
        self.memo.push((key, power));
        power
    }
}

/// The exact bit-pattern identity of the spec slice a simulation depends on:
/// variable names, widths and per-bit probabilities (arrivals are irrelevant to
/// logic simulation and deliberately excluded, which is what collapses a skew
/// column to one evaluation).
fn profile_key(spec: &InputSpec) -> Vec<u64> {
    let mut key = Vec::new();
    for var in spec.vars() {
        key.push(var.name().len() as u64);
        key.extend(var.name().bytes().map(u64::from));
        key.push(u64::from(var.width()));
        for bit in var.bits() {
            key.push(bit.probability.to_bits());
        }
    }
    key
}
