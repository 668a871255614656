//! The benchmark's own smoke test: one op of every workload, traced and untraced,
//! with the printed metric names checked against `BENCHMARK.json`.
//!
//! ```bash
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

#[test]
fn every_workload_runs_once_and_prints_the_listed_metrics() {
    // The benchmark runs from the repository root, where BENCHMARK.json lives.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .current_dir(root)
        .output()
        .expect("the benchmark binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "smoke run failed:\n{stderr}");
    assert_eq!(String::from_utf8_lossy(&output.stdout).trim(), "smoke OK");
}
