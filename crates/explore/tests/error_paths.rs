//! Error-path unit tests: malformed specifications return typed `ExploreError`s (with
//! `Display` coverage), never panics.

use dpsyn_explore::{
    BiasProfile, ExplorationSpec, ExploreError, Flow, SimActivity, SkewProfile, MAX_JOBS,
    MAX_SIM_VECTORS, MAX_SOURCE_TERMS, MAX_WIDTH,
};
use proptest::prelude::*;
use std::error::Error as _;

#[test]
fn empty_matrix_no_sources() {
    let error = ExplorationSpec::builder()
        .flow(Flow::FaAot)
        .build()
        .expect_err("no sources must not build");
    assert!(matches!(error, ExploreError::EmptyMatrix));
    assert!(error.to_string().contains("no jobs"));
}

#[test]
fn empty_matrix_no_flows() {
    let error = ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .build()
        .expect_err("no flows must not build");
    assert!(matches!(error, ExploreError::EmptyMatrix));
}

#[test]
fn zero_workers() {
    let error = ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .flow(Flow::FaAot)
        .threads(0)
        .build()
        .expect_err("zero workers must not build");
    assert!(matches!(error, ExploreError::ZeroWorkers));
    // The message names the offending builder field, not just "worker count".
    assert!(error.to_string().contains("`threads`"));
    assert!(error.to_string().contains("is zero"));
}

#[test]
fn unset_threads_default_to_the_available_parallelism() {
    let spec = ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .flow(Flow::FaAot)
        .build()
        .expect("a spec without an explicit thread count builds");
    let expected = std::thread::available_parallelism().map_or(1, |cores| cores.get());
    assert_eq!(spec.threads(), expected);
    // An explicit non-zero count still wins over the default.
    let explicit = ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .flow(Flow::FaAot)
        .threads(3)
        .build()
        .expect("an explicit thread count builds");
    assert_eq!(explicit.threads(), 3);
}

#[test]
fn sim_vector_counts_outside_the_supported_range() {
    let build = |vectors| {
        ExplorationSpec::builder()
            .design(dpsyn_designs::x_squared())
            .flow(Flow::Conventional)
            .sim_activity(SimActivity { seed: 1, vectors })
            .build()
    };
    let error = build(1).expect_err("one vector cannot witness a toggle");
    assert!(matches!(error, ExploreError::InvalidSimVectors(1)));
    assert!(error.to_string().contains("at least 2 vectors"));
    // An oversized count is rejected before any stimulus is allocated: 1e11
    // vectors would otherwise ask for terabytes and abort the process.
    for vectors in [MAX_SIM_VECTORS + 1, 100_000_000_000, usize::MAX] {
        let error = build(vectors).expect_err("oversized counts must not build");
        assert!(matches!(error, ExploreError::InvalidSimVectors(v) if v == vectors));
        assert!(error
            .to_string()
            .contains(&format!("at most {MAX_SIM_VECTORS}")));
    }
    for vectors in [2, MAX_SIM_VECTORS] {
        build(vectors).expect("the bounds themselves are accepted");
    }
}

#[test]
fn zero_width_on_the_width_axis() {
    let error = ExplorationSpec::builder()
        .sum_workload(4)
        .widths([4, 0, 8])
        .flow(Flow::FaAot)
        .build()
        .expect_err("width 0 must not build");
    assert!(matches!(error, ExploreError::ZeroWidth));
    assert!(error.to_string().contains("at least one bit"));
}

#[test]
fn oversized_widths_and_sources_are_rejected() {
    // Each would otherwise reach the workload generator, which draws one bit
    // profile per operand bit: a failed allocation aborts the process.
    let error = ExplorationSpec::builder()
        .sum_workload(3)
        .widths([8, 4_000_000_000])
        .flow(Flow::FaAot)
        .build()
        .expect_err("a width beyond a u64 value must not build");
    assert!(matches!(error, ExploreError::WidthTooLarge(4_000_000_000)));
    assert!(error
        .to_string()
        .contains(&format!("at most {MAX_WIDTH} bits")));
    for oversized in [
        ExplorationSpec::builder().sum_workload(usize::MAX / 2),
        ExplorationSpec::builder().sum_of_products_workload(MAX_SOURCE_TERMS + 1),
    ] {
        let error = oversized
            .width(4)
            .flow(Flow::FaAot)
            .build()
            .expect_err("an oversized source must not build");
        assert!(matches!(error, ExploreError::SourceTooLarge(count) if count > MAX_SOURCE_TERMS));
        assert!(error
            .to_string()
            .contains(&format!("at most {MAX_SOURCE_TERMS}")));
    }
    ExplorationSpec::builder()
        .sum_workload(MAX_SOURCE_TERMS)
        .sum_of_products_workload(MAX_SOURCE_TERMS)
        .width(MAX_WIDTH)
        .flow(Flow::FaAot)
        .build()
        .expect("the bounds themselves are accepted");
}

#[test]
fn oversized_job_matrices_are_rejected_before_any_job_is_built() {
    // Repeated axis entries are not rejected one by one, so the count alone bounds
    // the matrix: one source and one flow across MAX_JOBS + 1 copies of a width.
    let error = ExplorationSpec::builder()
        .sum_workload(2)
        .widths(vec![8; MAX_JOBS + 1])
        .flow(Flow::FaAot)
        .build()
        .expect_err("an oversized matrix must not build");
    assert!(
        matches!(error, ExploreError::TooManyJobs(count) if count == MAX_JOBS + 1),
        "{error}"
    );
    assert!(error
        .to_string()
        .contains(&format!("at most {MAX_JOBS} jobs")));

    // A count that overflows `usize` is too many too, and is checked before the
    // pairwise skew comparisons it would otherwise make.
    let error = ExplorationSpec::builder()
        .sum_workload(2)
        .widths(vec![8; 1 << 16])
        .skews(vec![SkewProfile::Keep; 1 << 16])
        .biases(vec![BiasProfile::Keep; 1 << 16])
        .flows(vec![Flow::FaAot; 1 << 16])
        .build()
        .expect_err("an overflowing matrix must not build");
    assert!(matches!(error, ExploreError::TooManyJobs(usize::MAX)));

    // Exactly MAX_JOBS still builds, and enumerates exactly that many jobs.
    let spec = ExplorationSpec::builder()
        .sum_workload(2)
        .widths(vec![8; MAX_JOBS])
        .flow(Flow::FaAot)
        .build()
        .expect("a matrix at the bound builds");
    assert_eq!(spec.jobs().len(), MAX_JOBS);
}

#[test]
fn workload_without_widths() {
    let error = ExplorationSpec::builder()
        .sum_workload(4)
        .flow(Flow::FaAot)
        .build()
        .expect_err("a workload source needs widths");
    assert!(matches!(error, ExploreError::MissingWidths));
    assert!(error.to_string().contains("width axis"));
}

#[test]
fn workload_without_operands() {
    let error = ExplorationSpec::builder()
        .sum_workload(0)
        .width(4)
        .flow(Flow::FaAot)
        .build()
        .expect_err("zero operands must not build");
    assert!(matches!(error, ExploreError::EmptySource));
    let error = ExplorationSpec::builder()
        .sum_of_products_workload(0)
        .width(4)
        .flow(Flow::FaAot)
        .build()
        .expect_err("zero terms must not build");
    assert!(matches!(error, ExploreError::EmptySource));
    assert!(error.to_string().contains("no operands"));
}

#[test]
fn invalid_skews_are_rejected() {
    for bad in [-1.0, f64::NAN, f64::INFINITY] {
        let error = ExplorationSpec::builder()
            .design(dpsyn_designs::x_squared())
            .skew(SkewProfile::Uniform(bad))
            .flow(Flow::FaAot)
            .build()
            .expect_err("invalid skew must not build");
        assert!(matches!(error, ExploreError::InvalidSkew(_)), "{bad}");
        assert!(error.to_string().contains("finite and non-negative"));
    }
}

#[test]
fn conflicting_skews_are_rejected() {
    // Exact duplicates conflict regardless of source kinds.
    let error = ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .skews([SkewProfile::Uniform(2.0), SkewProfile::Uniform(2.0)])
        .flow(Flow::FaAot)
        .build()
        .expect_err("duplicate skews must not build");
    match error {
        ExploreError::ConflictingSkews(first, second) => {
            assert_eq!(first, SkewProfile::Uniform(2.0));
            assert_eq!(second, SkewProfile::Uniform(2.0));
        }
        other => panic!("expected ConflictingSkews, got {other:?}"),
    }
    // With a workload source, `Keep` and `Uniform(0.0)` describe the same draw.
    let error = ExplorationSpec::builder()
        .sum_workload(3)
        .width(4)
        .skews([SkewProfile::Keep, SkewProfile::Uniform(0.0)])
        .flow(Flow::FaAot)
        .build()
        .expect_err("Keep vs Uniform(0) over a workload must not build");
    assert!(matches!(error, ExploreError::ConflictingSkews(..)));
    assert!(error.to_string().contains("duplicate jobs"));
    // Without `random_sum` sources the same pair is fine: Keep preserves the
    // design's annotated arrivals while Uniform(0.0) zeroes them.
    ExplorationSpec::builder()
        .design(dpsyn_designs::x2_x_y())
        .skews([SkewProfile::Keep, SkewProfile::Uniform(0.0)])
        .flow(Flow::FaAot)
        .build()
        .expect("distinct profiles over a fixed design build");
    // Sum-of-products workloads draw their own non-zero arrivals, which Keep
    // preserves, so the pair is genuinely distinct there too.
    ExplorationSpec::builder()
        .sum_of_products_workload(2)
        .width(3)
        .skews([SkewProfile::Keep, SkewProfile::Uniform(0.0)])
        .flow(Flow::FaAot)
        .build()
        .expect("distinct profiles over a sum-of-products workload build");
}

/// The duplicate-range rule, checked pair by pair in index order: the lowest
/// first position with a conflict, then its lowest partner. `values` are the
/// profiles as `None` (`Keep`) or `Some(range)`; with a `random_sum` source a
/// `Keep` draws the zero range.
fn pairwise_conflict(values: &[Option<f64>], has_sum_workloads: bool) -> Option<(usize, usize)> {
    let range = |value: Option<f64>| value.unwrap_or(0.0);
    (0..values.len()).find_map(|first| {
        (first + 1..values.len())
            .find(|&second| {
                values[first] == values[second]
                    || (has_sum_workloads && range(values[first]) == range(values[second]))
            })
            .map(|second| (first, second))
    })
}

/// A skew or bias axis value from a pool with exact duplicates, signed zeros and
/// the `Keep`/zero-range pair.
fn profile_value() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        Just(Some(0.0)),
        Just(Some(-0.0)),
        Just(Some(0.1)),
        Just(Some(0.25)),
        Just(Some(0.5)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass duplicate check reports exactly the pair the pairwise loops
    /// report, for skews and then biases, with and without a `random_sum` source.
    #[test]
    fn conflicting_profiles_report_the_pairwise_pair(
        skews in proptest::collection::vec(profile_value(), 0..7),
        biases in proptest::collection::vec(profile_value(), 0..7),
        has_sum_workloads in any::<bool>(),
    ) {
        let skew_axis: Vec<SkewProfile> = skews
            .iter()
            .map(|value| value.map_or(SkewProfile::Keep, SkewProfile::Uniform))
            .collect();
        let bias_axis: Vec<BiasProfile> = biases
            .iter()
            .map(|value| value.map_or(BiasProfile::Keep, BiasProfile::Uniform))
            .collect();
        let builder = if has_sum_workloads {
            ExplorationSpec::builder().sum_workload(2).width(3)
        } else {
            ExplorationSpec::builder().design(dpsyn_designs::x2_x_y())
        };
        let built = builder
            .skews(skew_axis.iter().copied())
            .biases(bias_axis.iter().copied())
            .flow(Flow::FaAot)
            .build();
        // An empty axis defaults to `Keep` alone, which cannot conflict.
        match (
            pairwise_conflict(&skews, has_sum_workloads),
            pairwise_conflict(&biases, has_sum_workloads),
        ) {
            (Some((first, second)), _) => prop_assert!(
                matches!(
                    built,
                    Err(ExploreError::ConflictingSkews(a, b))
                        if a == skew_axis[first] && b == skew_axis[second]
                        && a.to_string() == skew_axis[first].to_string()
                        && b.to_string() == skew_axis[second].to_string()
                ),
                "expected skews {first} and {second}: {built:?}"
            ),
            (None, Some((first, second))) => prop_assert!(
                matches!(
                    built,
                    Err(ExploreError::ConflictingBiases(a, b))
                        if a == bias_axis[first] && b == bias_axis[second]
                        && a.to_string() == bias_axis[first].to_string()
                        && b.to_string() == bias_axis[second].to_string()
                ),
                "expected biases {first} and {second}: {built:?}"
            ),
            (None, None) => prop_assert!(built.is_ok(), "{built:?}"),
        }
    }
}

#[test]
fn many_distinct_skews_on_an_empty_matrix_are_rejected_quickly() {
    // About what a 1 MiB serve line holds. No flow means no job, so the job
    // bound does not stop the duplicate check; it must stay linear.
    let skews: Vec<SkewProfile> = (0..150_000)
        .map(|index| SkewProfile::Uniform(f64::from(index) / 16.0))
        .collect();
    let started = std::time::Instant::now();
    let error = ExplorationSpec::builder()
        .sum_workload(2)
        .width(4)
        .skews(skews)
        .build()
        .expect_err("a matrix without flows must not build");
    let elapsed = started.elapsed();
    assert!(matches!(error, ExploreError::EmptyMatrix), "{error}");
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "150,000 skews took {elapsed:?}"
    );
}

#[test]
fn invalid_and_conflicting_biases_are_rejected() {
    for bad in [-0.1, 0.6, f64::NAN] {
        let error = ExplorationSpec::builder()
            .design(dpsyn_designs::x_squared())
            .bias(BiasProfile::Uniform(bad))
            .flow(Flow::FaAlp)
            .build()
            .expect_err("invalid bias must not build");
        assert!(matches!(error, ExploreError::InvalidBias(_)), "{bad}");
        assert!(error.to_string().contains("[0, 0.5]"));
    }
    let error = ExplorationSpec::builder()
        .sum_workload(3)
        .width(4)
        .biases([BiasProfile::Uniform(0.2), BiasProfile::Uniform(0.2)])
        .flow(Flow::FaAlp)
        .build()
        .expect_err("duplicate biases must not build");
    assert!(matches!(error, ExploreError::ConflictingBiases(..)));
    assert!(error.to_string().contains("probability range"));
}

#[test]
fn flow_errors_carry_the_job_label_and_source() {
    // An output width of 0 reaches the synthesis flow and must surface as a typed
    // Flow error naming the job, not a panic.
    let broken = dpsyn_designs::Design::new(
        "w0",
        "zero output width",
        "a + b",
        dpsyn_ir::InputSpec::builder()
            .var("a", 2)
            .var("b", 2)
            .build()
            .unwrap(),
        0,
    );
    let spec = ExplorationSpec::builder()
        .design(broken)
        .flow(Flow::FaAot)
        .build()
        .expect("the spec itself is well-formed");
    let error = dpsyn_explore::explore(&spec).expect_err("width-0 synthesis fails");
    match &error {
        ExploreError::Flow { job, .. } => {
            assert!(job.contains("w0"), "{job}");
            assert!(job.contains("fa_aot"), "{job}");
        }
        other => panic!("expected a Flow error, got {other:?}"),
    }
    assert!(error.source().is_some(), "flow errors expose their cause");
    assert!(error.to_string().contains("flow failed on job"));
}

/// A width-0 design point shared by two skews and two FA-tree flows: the pair's
/// leaf prefix cannot be built, so every job of the pair synthesizes on its own
/// and fails as a typed flow error — never a panic, never a prefix mistaken for a
/// success — and the run reports the lowest-indexed job at any thread count.
#[test]
fn a_failed_leaf_prefix_fails_every_job_of_its_pair() {
    let broken = dpsyn_designs::Design::new(
        "w0",
        "zero output width",
        "a*b + b",
        dpsyn_ir::InputSpec::builder()
            .var("a", 2)
            .var("b", 2)
            .build()
            .unwrap(),
        0,
    );
    for threads in [1, 2] {
        let spec = ExplorationSpec::builder()
            .design(broken.clone())
            .skews([SkewProfile::Keep, SkewProfile::Uniform(1.0)])
            .flows([Flow::FaAlp, Flow::FaAot])
            .threads(threads)
            .build()
            .expect("the spec itself is well-formed");
        let first = spec.jobs()[0].label();
        let error = dpsyn_explore::explore(&spec).expect_err("width-0 synthesis fails");
        match &error {
            ExploreError::Flow { job, source } => {
                assert_eq!(*job, first, "{threads} threads");
                assert!(
                    source.to_string().contains("output width"),
                    "{threads} threads: {source}"
                );
            }
            other => panic!("expected a Flow error at {threads} threads, got {other:?}"),
        }
    }
}

#[test]
fn error_display_is_covered_for_every_variant() {
    let variants: Vec<ExploreError> = vec![
        ExploreError::EmptyMatrix,
        ExploreError::TooManyJobs(MAX_JOBS + 1),
        ExploreError::ZeroWorkers,
        ExploreError::ZeroWidth,
        ExploreError::WidthTooLarge(65),
        ExploreError::MissingWidths,
        ExploreError::EmptySource,
        ExploreError::SourceTooLarge(65),
        ExploreError::InvalidSkew(-2.0),
        ExploreError::ConflictingSkews(SkewProfile::Keep, SkewProfile::Uniform(0.0)),
        ExploreError::InvalidBias(0.7),
        ExploreError::ConflictingBiases(BiasProfile::Keep, BiasProfile::Uniform(0.0)),
    ];
    let mut renderings: Vec<String> = variants.iter().map(ExploreError::to_string).collect();
    assert!(renderings.iter().all(|text| !text.is_empty()));
    renderings.sort_unstable();
    renderings.dedup();
    assert_eq!(renderings.len(), variants.len(), "messages are distinct");
}
