//! Golden outputs: the paper-table binaries and the full exploration sweep must
//! print exactly the committed reference bytes in `perfbench/golden/`, and the
//! figure, ablation and smoke-sweep binaries the bytes in `tests/golden/`, where
//! the memo file a cold full sweep flushes into its store also lives. Any
//! drift in synthesis, analysis, simulation or rendering fails here instead of
//! surfacing as a manual diff. A scripted session against an in-process
//! exploration server is held to `tests/golden/serve_session.txt` the same way,
//! and the memo file it leaves after every response to
//! `tests/golden/serve_session_store.txt`. The Verilog of every Table-1 design
//! under every flow is pinned by length and digest in
//! `tests/golden/verilog_table1.txt`.
//!
//! Run with `DPSYN_BLESS=1` to rewrite every golden file whose bytes differ
//! instead of comparing; the rewrite then shows up in `git diff` for review.

use std::path::PathBuf;
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
fn assert_same(label: &str, actual: &str, golden: &str) {
    for (index, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "{label}: line {} differs", index + 1);
    }
    assert_eq!(
        actual, golden,
        "{label}: output differs from the golden file"
    );
}

/// Holds `actual` to the golden file at `path` (relative to this package). With
/// `DPSYN_BLESS=1` the file is rewritten instead, and only when its bytes differ.
fn check_golden(label: &str, actual: &str, path: &str) {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path);
    let golden = std::fs::read_to_string(&file);
    if std::env::var_os("DPSYN_BLESS").is_some_and(|value| value == "1") {
        if golden.as_deref().ok() != Some(actual) {
            std::fs::write(&file, actual)
                .unwrap_or_else(|error| panic!("cannot bless {}: {error}", file.display()));
        }
        return;
    }
    let golden = golden.unwrap_or_else(|error| panic!("cannot read {}: {error}", file.display()));
    assert_same(label, actual, &golden);
}

/// Runs `binary` with `args` and holds its stdout to the golden file at `path`.
fn assert_golden(binary: &str, args: &[&str], path: &str) {
    check_golden(binary, &stdout_of(binary, args), path);
}

/// The 64-bit FNV-1a digest of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn table1_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_table1"),
        &[],
        "../../perfbench/golden/table1.txt",
    );
}

#[test]
fn table2_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_table2"),
        &[],
        "../../perfbench/golden/table2.txt",
    );
}

#[test]
fn full_explore_sweep_matches_golden() {
    let summary = "../../perfbench/golden/explore_full.txt";
    assert_golden(env!("CARGO_BIN_EXE_explore"), &[], summary);
    // A cold store changes no stdout byte, and the memo file the sweep flushes
    // into it is a contract of its own (the same bytes at any thread count).
    let store = std::env::temp_dir().join(format!(
        "dpsyn-golden-explore-store-{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let path = store.to_str().expect("temporary path is UTF-8");
    assert_golden(env!("CARGO_BIN_EXE_explore"), &["--store", path], summary);
    let flushed = std::fs::read_to_string(&store).expect("the sweep flushed its store");
    std::fs::remove_file(&store).expect("remove the temporary store");
    let _ = std::fs::remove_file(dpsyn_explore::lock_path(&store));
    check_golden(
        "explore --store",
        &flushed,
        "tests/golden/explore_full_store.txt",
    );
}

#[test]
fn figure2_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_figure2"),
        &[],
        "tests/golden/figure2.txt",
    );
}

#[test]
fn figure4_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_figure4"),
        &[],
        "tests/golden/figure4.txt",
    );
}

#[test]
fn ablation_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_ablation"),
        &[],
        "tests/golden/ablation.txt",
    );
}

#[test]
fn smoke_explore_sweep_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_explore"),
        &["--smoke"],
        "tests/golden/explore_smoke.txt",
    );
}

/// The scripted serve session: an analytic sweep and its warm repeat, a
/// `sim_activity` sweep, an `fa_anneal` sweep, then typed rejects — among them
/// the retired scheduler fields `steal` and `overpartition` — and the shutdown
/// acknowledgement. `{"status":{}}` is left out: it carries request latencies.
#[cfg(unix)]
const SERVE_SCRIPT: [&str; 10] = [
    ANALYTIC_REQUEST,
    ANALYTIC_REQUEST,
    concat!(
        r#"{"sources":[{"design":"x_cubed"}],"skews":["keep",1.5],"#,
        r#""flows":["conventional","fa_alp"],"seed":5,"threads":1,"#,
        r#""sim_activity":{"seed":11,"vectors":256}}"#
    ),
    concat!(
        r#"{"sources":[{"design":"x2_x_y"}],"biases":["keep",0.2],"#,
        r#""flows":[{"fa_anneal":3},"fa_alp"],"seed":9,"threads":2}"#
    ),
    r#"{"steal":"busiest"}"#,
    r#"{"overpartition":4}"#,
    r#"{"sources":[{"design":"x_squared"}],"flows":["conventional"],"tech":"lcbg10pv"}"#,
    r#"{"sources":[{"design":"x_squared"}],"flows":["warp_speed"]}"#,
    r#"{"sources":[{"design":"x_squared"}],"flows":["conventional"],"threads":0}"#,
    r#"{"shutdown":true}"#,
];

#[cfg(unix)]
const ANALYTIC_REQUEST: &str = concat!(
    r#"{"sources":[{"design":"x_squared"},{"sum":3}],"widths":[4],"#,
    r#""skews":["keep",2.0],"biases":["keep",0.3],"#,
    r#""flows":["conventional","csa_opt","fa_aot"],"seed":7,"threads":2,"#,
    r#""tech":"lcbg10pv_like"}"#
);

#[cfg(unix)]
#[test]
fn serve_session_matches_golden() {
    use dpsyn_explore::{serve, ServeConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    let scratch = |name: &str| {
        let path =
            std::env::temp_dir().join(format!("dpsyn-golden-serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    };
    let socket = scratch("session.sock");
    let store = scratch("store.txt");
    let mut config = ServeConfig::new(socket.clone());
    config.store_path = Some(store.clone());
    let server = std::thread::spawn(move || serve(&config));

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match UnixStream::connect(&socket) {
            Ok(stream) => break stream,
            Err(error) if Instant::now() >= deadline => {
                panic!("cannot connect to the serve socket: {error}")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    let mut responses = BufReader::new(stream.try_clone().expect("clone the stream"));
    let mut session = String::new();
    let mut memo = String::new();
    for (index, request) in SERVE_SCRIPT.iter().enumerate() {
        stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("request sends");
        responses
            .read_line(&mut session)
            .expect("response line arrives");
        memo.push_str(&memo_line(&format!("request {}", index + 1), &store));
    }
    drop((stream, responses));
    server
        .join()
        .expect("server thread joins")
        .expect("server exits cleanly");
    memo.push_str(&memo_line("shutdown", &store));
    std::fs::remove_file(&store).expect("remove the temporary store");
    let _ = std::fs::remove_file(dpsyn_explore::lock_path(&store));
    check_golden("serve session", &session, "tests/golden/serve_session.txt");
    check_golden(
        "serve session memo file",
        &memo,
        "tests/golden/serve_session_store.txt",
    );
}

/// One line of the serve session's memo-file record: the file's byte length and
/// the 64-bit FNV-1a digest of its bytes (`missing` before the first flush).
#[cfg(unix)]
fn memo_line(label: &str, path: &std::path::Path) -> String {
    match std::fs::read(path) {
        Ok(bytes) => format!(
            "{label}: {} bytes, fnv1a64 {:016x}\n",
            bytes.len(),
            fnv1a64(&bytes)
        ),
        Err(_) => format!("{label}: missing\n"),
    }
}

/// Every Table-1 design under every flow — the five named flows, `fa_random` at
/// the Table-2 seeds 1 to 5 and `fa_anneal` at its Table-2 seed 1 — emits the
/// same Verilog bytes: one line per pair with the `to_verilog()` byte length and
/// its FNV-1a digest.
#[test]
fn table1_verilog_matches_golden() {
    use dpsyn_baselines::Flow;
    use std::fmt::Write as _;

    let lib = dpsyn_tech::TechLibrary::lcbg10pv_like();
    let mut flows = Flow::NAMED.to_vec();
    flows.extend((1..=5).map(Flow::FaRandom));
    flows.push(Flow::FaAnneal(1));
    let mut record = String::new();
    for design in dpsyn_designs::table1_designs() {
        for flow in &flows {
            let result = flow
                .run(design.expr(), design.spec(), design.output_width(), &lib)
                .unwrap_or_else(|error| panic!("{} {flow}: {error}", design.name()));
            let verilog = result.netlist.to_verilog();
            let _ = writeln!(
                record,
                "{} {flow}: {} bytes, fnv1a64 {:016x}",
                design.name(),
                verilog.len(),
                fnv1a64(verilog.as_bytes())
            );
        }
    }
    check_golden("table1 verilog", &record, "tests/golden/verilog_table1.txt");
}
