//! Error-path unit tests: malformed specifications return typed `ExploreError`s (with
//! `Display` coverage), never panics.

use dpsyn_explore::{
    BiasProfile, ExplorationSpec, ExploreError, Flow, SimActivity, SkewProfile, MAX_SIM_VECTORS,
};
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

#[test]
fn error_display_is_covered_for_every_variant() {
    let variants: Vec<ExploreError> = vec![
        ExploreError::EmptyMatrix,
        ExploreError::ZeroWorkers,
        ExploreError::ZeroWidth,
        ExploreError::MissingWidths,
        ExploreError::EmptySource,
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
