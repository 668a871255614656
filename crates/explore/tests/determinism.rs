//! Thread-count determinism: an exploration's results — point ordering, metrics, the
//! Pareto front and the rendered summary bytes — are identical for 1, 2, 4 and 8
//! workers, in the spirit of the repository-level `tests/determinism.rs`.

use dpsyn_explore::{
    explore, BiasProfile, ExplorationResults, ExplorationSpec, Flow, SimActivity, SkewProfile,
};

/// Builds the reference spec of the suite with the given worker count: two fixed
/// designs plus a workload source, crossed with two widths, a skew and a bias profile,
/// over five flows (80 jobs) — including the seeded `fa_anneal` local search, whose
/// move trajectory must also be worker-count invariant.
fn spec(threads: usize) -> ExplorationSpec {
    ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .design(dpsyn_designs::mixed_poly())
        .sum_workload(4)
        .widths([3, 5])
        .skews([SkewProfile::Keep, SkewProfile::Uniform(2.0)])
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows([
            Flow::CsaOpt,
            Flow::FaAot,
            Flow::FaAlp,
            Flow::FaRandom(5),
            Flow::FaAnneal(5),
        ])
        .seed(11)
        .threads(threads)
        .build()
        .expect("reference spec is well-formed")
}

/// Flattens a result into exactly-comparable bytes/bits: job labels, metric bit
/// patterns, front indices and the rendered summary.
fn fingerprint(results: &ExplorationResults) -> (Vec<String>, Vec<[u64; 3]>, Vec<usize>, String) {
    let labels = results
        .points()
        .iter()
        .map(|point| format!("{} -> {}", point.job, point.design))
        .collect();
    let metrics = results
        .points()
        .iter()
        .map(|point| {
            [
                point.metrics.delay.to_bits(),
                point.metrics.power.to_bits(),
                point.metrics.area.to_bits(),
            ]
        })
        .collect();
    (
        labels,
        metrics,
        results.front_indices().to_vec(),
        results.render_summary(),
    )
}

#[test]
fn results_are_bit_identical_across_thread_counts() {
    let reference = explore(&spec(1)).expect("single-threaded exploration succeeds");
    let reference_fingerprint = fingerprint(&reference);
    for threads in [2, 4, 8] {
        let parallel = explore(&spec(threads)).expect("parallel exploration succeeds");
        let parallel_fingerprint = fingerprint(&parallel);
        assert_eq!(
            reference_fingerprint.0, parallel_fingerprint.0,
            "job ordering diverged at {threads} threads"
        );
        assert_eq!(
            reference_fingerprint.1, parallel_fingerprint.1,
            "metrics diverged at {threads} threads"
        );
        assert_eq!(
            reference_fingerprint.2, parallel_fingerprint.2,
            "Pareto front diverged at {threads} threads"
        );
        assert_eq!(
            reference_fingerprint.3, parallel_fingerprint.3,
            "rendered summary bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let first = explore(&spec(4)).expect("exploration succeeds");
    let second = explore(&spec(4)).expect("exploration succeeds");
    assert_eq!(fingerprint(&first), fingerprint(&second));
}

/// The adversarial-skew matrix for the work-stealing scheduler: one **dominant**
/// group (an 8-operand 10-bit sum workload whose synthesis and analysis dwarf the
/// rest) crossed with a dense 5-skew × 3-bias profile grid, plus many **tiny**
/// groups (cheap two-input fixed designs). Under the static PR-5 chunker the
/// dominant group's tail chunks would pin whichever worker claimed them last; under
/// work-stealing idle workers drain it — and either way the sweep output must stay
/// byte-identical.
fn adversarial_spec(threads: usize) -> ExplorationSpec {
    ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .design(dpsyn_designs::x2_x_y())
        .sum_workload(8)
        .widths([10])
        .skews([
            SkewProfile::Keep,
            SkewProfile::Uniform(1.0),
            SkewProfile::Uniform(2.0),
            SkewProfile::Uniform(3.0),
            SkewProfile::Uniform(4.0),
        ])
        .biases([
            BiasProfile::Keep,
            BiasProfile::Uniform(0.2),
            BiasProfile::Uniform(0.4),
        ])
        .flows([Flow::Conventional, Flow::FaAot])
        .seed(23)
        .threads(threads)
        .build()
        .expect("adversarial spec is well-formed")
}

#[test]
fn adversarial_skew_is_bit_identical_for_any_worker_count() {
    // The single-worker run is the reference: no stealing possible. The 15-job
    // groups are cut into chunks of ceil(15 / min(15, threads × 4)) jobs, so the
    // thread counts below cover chunks of 4 (the reference), 2 and 1.
    let reference = fingerprint(
        &explore(&adversarial_spec(1)).expect("single-threaded adversarial exploration succeeds"),
    );
    for threads in [2, 3, 4, 8] {
        let stolen = explore(&adversarial_spec(threads))
            .expect("work-stealing adversarial exploration succeeds");
        assert_eq!(
            reference,
            fingerprint(&stolen),
            "adversarial sweep diverged at {threads} threads"
        );
    }
}

/// A simulated-activity sweep: the stimulus batch is keyed by the spec-level sim
/// seed (never by worker or group identity), so the simulated power bits — and the
/// summary bytes that carry the `sim mW`/`div%` columns — must be identical for any
/// worker count.
fn sim_spec(threads: usize) -> ExplorationSpec {
    ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .design(dpsyn_designs::mixed_poly())
        .sum_workload(3)
        .widths([3, 4])
        .skews([SkewProfile::Keep, SkewProfile::Uniform(2.0)])
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows([Flow::Conventional, Flow::CsaOpt, Flow::FaAot])
        .seed(11)
        .sim_activity(SimActivity {
            seed: 19,
            vectors: 256,
        })
        .threads(threads)
        .build()
        .expect("sim spec is well-formed")
}

#[test]
fn simulated_activity_sweeps_are_bit_identical_across_workers() {
    let reference = explore(&sim_spec(1)).expect("single-threaded sim exploration succeeds");
    let sim_bits = |results: &ExplorationResults| -> Vec<u64> {
        results
            .points()
            .iter()
            .map(|point| {
                point
                    .metrics
                    .simulated_switch_power
                    .expect("every point of a sim sweep carries the simulated metric")
                    .to_bits()
            })
            .collect()
    };
    let reference_fingerprint = (fingerprint(&reference), sim_bits(&reference));
    assert!(reference_fingerprint.0 .3.contains("sim mW"));
    assert!(reference_fingerprint.0 .3.contains("div%"));
    for threads in [2, 3, 4] {
        let parallel = explore(&sim_spec(threads)).expect("parallel sim exploration succeeds");
        assert_eq!(
            reference_fingerprint,
            (fingerprint(&parallel), sim_bits(&parallel)),
            "sim sweep diverged at {threads} threads"
        );
    }
}

#[test]
fn more_workers_than_jobs_is_safe_and_identical() {
    let small = ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .flows([Flow::Conventional, Flow::FaAot])
        .threads(8)
        .build()
        .expect("spec builds");
    let wide = explore(&small).expect("8 workers over 2 jobs");
    assert_eq!(wide.points().len(), 2);
    let narrow = explore(
        &ExplorationSpec::builder()
            .design(dpsyn_designs::x_squared())
            .flows([Flow::Conventional, Flow::FaAot])
            .threads(1)
            .build()
            .expect("spec builds"),
    )
    .expect("1 worker over 2 jobs");
    assert_eq!(fingerprint(&wide), fingerprint(&narrow));
}
