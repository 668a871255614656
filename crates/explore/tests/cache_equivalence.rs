//! Pins the engine's one-entry program cache, its delta-evaluation path and its
//! structure reuse to the plain per-job full path: every evaluated point's retained
//! artifact must equal an independent `Flow::run` of the same job, and its metrics
//! must be bit-identical to the stateless reference passes over that run's netlist
//! (`input_profiles` and `TimingAnalysis`/`ProbabilityAnalysis::run_compiled`,
//! which share no code with the analysis session behind both the cache and
//! `Flow::run`), whether the engine synthesized the point or analysed its group's
//! cached structure, and whether it took a full pass or a cached delta rerun.
//!
//! The matrix crosses profile axes with all six sweep flows: the three
//! profile-blind flows (`Conventional`, `WallaceFixed`, `FaRandom`) synthesize only
//! their group's first point and analyse the later ones on the cached structure;
//! `CsaOpt` (word-level arrivals) and the FA-tree selections `FaAot`/`FaAlp` shift
//! their structure with the profiles, exercising the structural verification that
//! replaces the one entry on a miss. A second spec has one point per group (the
//! paper-table shape), whose points go through the same cache: each verifies against
//! the entry the previous point left or replaces it. Each runs at 1, 2 and 3
//! workers, so steals and per-job chunks move groups between workers — none of which
//! may perturb a single bit.
//!
//! The simulated metric, which shares that cache, is pinned the same way against a
//! cache-free oracle: a fresh block simulation of each retained netlist.

use dpsyn_baselines::input_profiles;
use dpsyn_explore::{
    explore, explore_with_stats, BiasProfile, ExplorationSpec, Flow, SimActivity, SkewProfile,
};
use dpsyn_ir::InputSpec;
use dpsyn_netlist::{Netlist, WordMap};
use dpsyn_power::{simulated_energy, ProbabilityAnalysis};
use dpsyn_sim::{BlockSim, SharedStimulus, ToggleCounter, DEFAULT_BLOCK};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::TimingAnalysis;

/// The six flows of the `explore` sweep.
const SWEPT: [Flow; 6] = [
    Flow::Conventional,
    Flow::CsaOpt,
    Flow::WallaceFixed,
    Flow::FaRandom(8),
    Flow::FaAot,
    Flow::FaAlp,
];

/// Two fixed designs and a sum workload at two widths, crossed with three skews and
/// two biases: groups of six points.
fn grouped_spec(threads: usize) -> ExplorationSpec {
    ExplorationSpec::builder()
        .design(dpsyn_designs::iir())
        .design(dpsyn_designs::mixed_poly())
        .sum_workload(4)
        .widths([4, 5])
        .skews([
            SkewProfile::Keep,
            SkewProfile::Uniform(2.0),
            SkewProfile::Uniform(4.0),
        ])
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows(SWEPT)
        .seed(13)
        .threads(threads)
        .retain_artifacts(true)
        .build()
        .expect("spec is well-formed")
}

/// The same sources with one point per group, as the paper-table sweeps run them.
fn one_point_spec(threads: usize) -> ExplorationSpec {
    ExplorationSpec::builder()
        .design(dpsyn_designs::iir())
        .design(dpsyn_designs::mixed_poly())
        .sum_workload(4)
        .widths([4, 5])
        .flows(SWEPT)
        .seed(13)
        .threads(threads)
        .retain_artifacts(true)
        .build()
        .expect("spec is well-formed")
}

/// The reference figures of one netlist under `inputs`: compiled afresh, then the
/// stateless timing and power passes over the maps of `input_profiles`, and the
/// library area. Returns `(delay, area, switching energy, power)`.
fn oracle_figures(
    netlist: &Netlist,
    word_map: &WordMap,
    inputs: &InputSpec,
    tech: &TechLibrary,
) -> (f64, f64, f64, f64) {
    let compiled = netlist.compile().expect("netlist compiles");
    let (arrivals, probabilities) = input_profiles(word_map, inputs);
    let timing = TimingAnalysis::new(tech)
        .with_input_arrivals(arrivals)
        .run_compiled(&compiled)
        .expect("reference timing");
    let power = ProbabilityAnalysis::new(tech)
        .with_input_probabilities(probabilities)
        .run_compiled(&compiled)
        .expect("reference power");
    (
        timing.critical_delay(),
        tech.compiled_area(&compiled),
        power.total_energy(),
        power.power_mw(),
    )
}

/// Explores `spec` and holds every point to an independent `Flow::run` (structure)
/// and the stateless reference passes (figures).
fn assert_matches_independent_runs(spec: &ExplorationSpec) {
    let results = explore(spec).expect("exploration succeeds");
    assert_eq!(results.points().len(), spec.jobs().len());
    for point in results.points() {
        let design = spec.materialize(&point.job);
        let reference = point
            .job
            .flow()
            .run(
                design.expr(),
                design.spec(),
                design.output_width(),
                spec.tech(),
            )
            .expect("direct flow run succeeds");
        let (delay, area, switching_energy, power) = oracle_figures(
            &reference.netlist,
            &reference.word_map,
            design.spec(),
            spec.tech(),
        );
        let label = format!("{} ({} thread(s))", point.job.label(), spec.threads());
        assert_eq!(
            point.metrics.delay.to_bits(),
            delay.to_bits(),
            "{label}: delay"
        );
        assert_eq!(
            point.metrics.area.to_bits(),
            area.to_bits(),
            "{label}: area"
        );
        assert_eq!(
            point.metrics.switching_energy.to_bits(),
            switching_energy.to_bits(),
            "{label}: switching energy"
        );
        assert_eq!(
            point.metrics.power.to_bits(),
            power.to_bits(),
            "{label}: power"
        );
        assert_eq!(
            point.metrics.cell_count,
            reference.compiled.cell_count(),
            "{label}: cells"
        );
        assert_eq!(
            point.metrics.logic_depth,
            reference.compiled.level_count(),
            "{label}: depth"
        );
        let artifact = point
            .artifact
            .as_ref()
            .expect("retain_artifacts keeps every point's artifact");
        assert_eq!(artifact.flow, reference.flow, "{label}: flow name");
        assert_eq!(artifact.netlist, reference.netlist, "{label}: netlist");
        assert_eq!(artifact.word_map, reference.word_map, "{label}: word map");
        assert_eq!(artifact.compiled, reference.compiled, "{label}: program");
        assert_eq!(
            artifact.delay.to_bits(),
            delay.to_bits(),
            "{label}: artifact delay"
        );
        assert_eq!(
            artifact.switching_energy.to_bits(),
            switching_energy.to_bits(),
            "{label}: artifact energy"
        );
    }
}

#[test]
fn cached_delta_points_match_independent_full_runs() {
    for threads in [1, 2, 3] {
        assert_matches_independent_runs(&grouped_spec(threads));
    }
}

#[test]
fn one_point_groups_match_independent_full_runs() {
    for threads in [1, 2, 3] {
        assert_matches_independent_runs(&one_point_spec(threads));
    }
}

/// The simulated switching power of one netlist computed from scratch: compile,
/// draw the run's stimulus batch, count toggles block by block and fold the rates
/// through the energy weights at the library voltage.
fn oracle_sim_power(
    netlist: &Netlist,
    word_map: &WordMap,
    inputs: &InputSpec,
    activity: SimActivity,
    tech: &TechLibrary,
) -> f64 {
    let sim = BlockSim::compile(netlist, DEFAULT_BLOCK).expect("netlist compiles");
    let stimulus = SharedStimulus::generate(
        activity.seed,
        inputs.total_bits() as usize,
        activity.vectors,
    );
    let assignments = stimulus.biased_assignments(inputs);
    let mut counter = ToggleCounter::new(sim.net_count());
    let mut blocks = sim.block_buffer();
    for chunk in assignments.chunks(sim.vectors_per_pass()) {
        sim.pack_word_assignments(word_map, chunk, &mut blocks);
        sim.evaluate_into(&mut blocks);
        counter.record_blocks(&blocks, sim.block(), chunk.len());
    }
    let rates: Vec<f64> = netlist
        .nets()
        .map(|(net, _)| counter.toggle_rate(net))
        .collect();
    let resolved = tech
        .resolve(sim.compiled())
        .expect("library covers every cell");
    simulated_energy(sim.compiled(), &resolved, &rates) * tech.voltage() * tech.voltage()
}

#[test]
fn simulated_points_match_a_cache_free_oracle() {
    // All six explore flows: each builds its simulation context on the structure
    // its cache entry compiled, the blind flows reuse one structure per group,
    // and bias-only neighbours hit the memo; a one-point group's point simulates
    // on the entry it verified against or compiled. 300 vectors leave a partial
    // last pass.
    let activity = SimActivity {
        seed: 23,
        vectors: 300,
    };
    let grouped = (
        vec![SkewProfile::Keep, SkewProfile::Uniform(2.0)],
        vec![BiasProfile::Keep, BiasProfile::Uniform(0.3)],
    );
    let one_point = (
        vec![SkewProfile::Uniform(2.0)],
        vec![BiasProfile::Uniform(0.3)],
    );
    for ((skews, biases), threads) in [(&grouped, 1), (&grouped, 2), (&one_point, 2)] {
        let spec = ExplorationSpec::builder()
            .design(dpsyn_designs::mixed_poly())
            .sum_workload(4)
            .widths([4, 5])
            .skews(skews.iter().copied())
            .biases(biases.iter().copied())
            .flows(SWEPT)
            .seed(13)
            .sim_activity(activity)
            .retain_artifacts(true)
            .threads(threads)
            .build()
            .expect("sim spec is well-formed");
        let (results, stats) = explore_with_stats(&spec).expect("sim exploration succeeds");
        assert_eq!(results.points().len(), spec.jobs().len());
        assert_eq!(stats.total_sim_points(), spec.jobs().len());
        assert_eq!(
            stats.total_sim_builds() + stats.total_sim_reuses(),
            stats.total_sim_points(),
            "every simulated point builds or reuses its entry's context"
        );
        if skews.len() * biases.len() == 1 {
            // A one-point group's key is unique, so no structure is ever reused.
            assert_eq!(stats.total_structure_reuses(), 0);
        }
        for point in results.points() {
            let artifact = point.artifact.as_ref().expect("artifacts are retained");
            let design = spec.materialize(&point.job);
            let expected = oracle_sim_power(
                &artifact.netlist,
                &artifact.word_map,
                design.spec(),
                activity,
                spec.tech(),
            );
            let simulated = point
                .metrics
                .simulated_switch_power
                .expect("every point carries the simulated metric");
            assert_eq!(
                simulated.to_bits(),
                expected.to_bits(),
                "{} ({threads} thread(s)): {simulated} vs oracle {expected}",
                point.job.label()
            );
        }
    }
}
