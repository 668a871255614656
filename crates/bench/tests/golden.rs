//! Golden outputs: the paper-table binaries and the full exploration sweep must
//! print exactly the committed reference bytes in `perfbench/golden/`, and the
//! figure, ablation and smoke-sweep binaries the bytes in `tests/golden/`. Any
//! drift in synthesis, analysis, simulation or rendering fails here instead of
//! surfacing as a manual diff.

use std::process::Command;

/// Runs one of this package's binaries with `args` and returns its stdout.
fn stdout_of(binary: &str, args: &[&str]) -> String {
    let output = Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|error| panic!("cannot run {binary}: {error}"));
    assert!(
        output.status.success(),
        "{binary} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// Compares line by line first, so a mismatch names the first differing line.
fn assert_golden(binary: &str, args: &[&str], golden: &str) {
    let actual = stdout_of(binary, args);
    for (index, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "{binary}: line {} differs", index + 1);
    }
    assert_eq!(
        actual, golden,
        "{binary}: output differs from the golden file"
    );
}

#[test]
fn table1_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_table1"),
        &[],
        include_str!("../../../perfbench/golden/table1.txt"),
    );
}

#[test]
fn table2_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_table2"),
        &[],
        include_str!("../../../perfbench/golden/table2.txt"),
    );
}

#[test]
fn full_explore_sweep_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_explore"),
        &[],
        include_str!("../../../perfbench/golden/explore_full.txt"),
    );
}

#[test]
fn figure2_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_figure2"),
        &[],
        include_str!("golden/figure2.txt"),
    );
}

#[test]
fn figure4_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_figure4"),
        &[],
        include_str!("golden/figure4.txt"),
    );
}

#[test]
fn ablation_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_ablation"),
        &[],
        include_str!("golden/ablation.txt"),
    );
}

#[test]
fn smoke_explore_sweep_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_explore"),
        &["--smoke"],
        include_str!("golden/explore_smoke.txt"),
    );
}
