//! Golden outputs: the paper-table binaries and the full exploration sweep must
//! print exactly the committed reference bytes in `perfbench/golden/`, and the
//! figure, ablation and smoke-sweep binaries the bytes in `tests/golden/`, where
//! the memo file a cold full sweep flushes into its store also lives. Any
//! drift in synthesis, analysis, simulation or rendering fails here instead of
//! surfacing as a manual diff. A scripted session against an in-process
//! exploration server is held to `tests/golden/serve_session.txt` the same way,
//! and the memo file it leaves after every response to
//! `tests/golden/serve_session_store.txt`.

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

/// Runs `binary` with `args` and compares its stdout with `golden`.
fn assert_golden(binary: &str, args: &[&str], golden: &str) {
    assert_same(binary, &stdout_of(binary, args), golden);
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
    let summary = include_str!("../../../perfbench/golden/explore_full.txt");
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
    assert_same(
        "explore --store",
        &flushed,
        include_str!("golden/explore_full_store.txt"),
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
    assert_same(
        "serve session",
        &session,
        include_str!("golden/serve_session.txt"),
    );
    assert_same(
        "serve session memo file",
        &memo,
        include_str!("golden/serve_session_store.txt"),
    );
}

/// One line of the serve session's memo-file record: the file's byte length and
/// the 64-bit FNV-1a digest of its bytes (`missing` before the first flush).
#[cfg(unix)]
fn memo_line(label: &str, path: &std::path::Path) -> String {
    match std::fs::read(path) {
        Ok(bytes) => {
            let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            format!("{label}: {} bytes, fnv1a64 {digest:016x}\n", bytes.len())
        }
        Err(_) => format!("{label}: missing\n"),
    }
}
