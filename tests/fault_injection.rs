//! Deterministic fault-injection wall: crash-safety and graceful degradation,
//! pinned by *byte identity*, not by "it didn't crash".
//!
//! Every test builds a [`FaultPlan`](dpsyn_explore::faults::FaultPlan) naming the
//! exact store operation or job attempt that fails, replays it, and asserts the
//! recovered state — memo file bytes, rendered summaries, server responses — is
//! identical to a run that never saw the fault:
//!
//! * **Store**: a flush killed mid-write (torn file, or temp written but never
//!   renamed) recovers on reload — the torn tail is quarantined to a sidecar,
//!   counted, and a warm rerun restores the byte-identical memo file.
//! * **Engine**: a job whose evaluation panics is retried from clean caches and
//!   quarantined after [`JOB_ATTEMPT_LIMIT`] attempts; the sweep *completes*,
//!   reports the quarantine, and is byte-identical for every thread count.
//! * **Serve**: a healthy server answers byte-identically to batch mode (cold,
//!   warm and simulated), a server whose store is unavailable keeps answering
//!   (flagged `degraded`), and both shed malformed/oversized/stalled/excess
//!   requests with typed rejects and report admission metrics on
//!   `{"status":{}}`.

use dpsyn_explore::faults::{FaultPlan, WriteFault};
use dpsyn_explore::{
    explore, explore_with_stats, quarantine_path, ExplorationSpec, ExplorationSpecBuilder,
    ExploreError, Flow, ResultStore, SkewProfile, JOB_ATTEMPT_LIMIT,
};
use std::path::PathBuf;

/// A fresh scratch path per test; the process id keeps parallel `cargo test`
/// processes apart.
fn scratch(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "dpsyn-fault-injection-{}-{test}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(quarantine_path(&path));
    path
}

/// The small matrix the wall sweeps: 2 sources x 2 skews x 3 flows = 12 jobs,
/// covering both synthesis outcomes (`conventional`/`csa_opt` are analysed
/// through the cache, `fa_aot` returns an analysed result).
fn wall_spec() -> ExplorationSpecBuilder {
    ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .sum_workload(3)
        .width(4)
        .skews([SkewProfile::Keep, SkewProfile::Uniform(2.0)])
        .flows([Flow::Conventional, Flow::CsaOpt, Flow::FaAot])
        .seed(7)
}

/// Reference memo-file bytes of an uninterrupted cold run of the wall matrix.
fn baseline_file(test: &str) -> Vec<u8> {
    let path = scratch(&format!("{test}-baseline"));
    let spec = wall_spec()
        .store(path.clone())
        .threads(2)
        .build()
        .expect("baseline spec");
    explore_with_stats(&spec).expect("baseline run succeeds");
    let bytes = std::fs::read(&path).expect("baseline memo file exists");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn torn_flush_recovers_byte_identically_on_the_warm_rerun() {
    let baseline = baseline_file("torn");
    let path = scratch("torn");

    // Cold run whose first flush write tears mid-file: a truncated prefix lands
    // in the memo file (the kill happened after the data loss), and the flush
    // reports the injected error.
    let keep_bytes = baseline.len() * 2 / 3;
    let plan = FaultPlan::builder()
        .store_write_fault(1, WriteFault::Torn { keep_bytes })
        .build();
    let spec = wall_spec()
        .store(path.clone())
        .threads(2)
        .faults(plan)
        .build()
        .expect("faulted spec");
    let error = explore_with_stats(&spec).expect_err("the torn flush must surface");
    assert!(
        matches!(&error, ExploreError::Store { message, .. } if message.contains("torn write")),
        "unexpected error: {error}"
    );
    let torn = std::fs::read(&path).expect("the torn prefix was renamed into place");
    assert_eq!(torn.len(), keep_bytes, "exactly the torn prefix survives");
    assert_eq!(torn, &baseline[..keep_bytes], "the tear is a strict prefix");

    // Reopen: the cut line is detected as a torn tail, quarantined and counted —
    // never an error, never a wrong record.
    let reloaded = ResultStore::load(&path).expect("a torn file loads");
    let health = reloaded.health();
    assert!(
        health.torn_tail,
        "the mid-record cut is recognized as a tear"
    );
    assert_eq!(health.damaged_lines, 1, "only the cut line is damaged");
    assert_eq!(health.quarantined, 1, "the cut line is quarantined");
    assert!(
        quarantine_path(&path).exists(),
        "the quarantine sidecar holds the evidence"
    );
    assert!(
        health.records > 0 && health.records < baseline.lines_estimate(),
        "the surviving prefix records loaded ({} of ~{})",
        health.records,
        baseline.lines_estimate()
    );

    // Warm rerun without faults: recomputes the missing records and flushes the
    // memo file back to the exact bytes the uninterrupted run produces.
    let recovery = wall_spec()
        .store(path.clone())
        .threads(2)
        .build()
        .expect("recovery spec");
    let (_, stats) = explore_with_stats(&recovery).expect("recovery run succeeds");
    assert!(
        stats.total_store_hits() > 0,
        "the surviving prefix serves warm hits during recovery"
    );
    let recovered = std::fs::read(&path).expect("recovered memo file exists");
    assert_eq!(
        recovered, baseline,
        "the recovered memo file is byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(quarantine_path(&path));
}

/// `Vec<u8>` line-count helper for the assertion messages above.
trait LinesEstimate {
    fn lines_estimate(&self) -> usize;
}

impl LinesEstimate for Vec<u8> {
    fn lines_estimate(&self) -> usize {
        self.iter().filter(|&&byte| byte == b'\n').count()
    }
}

#[test]
fn crash_before_rename_preserves_prior_state_and_recovers() {
    let baseline = baseline_file("rename");
    let path = scratch("rename");

    // Phase 1: warm the store with a subset of the matrix (one flow).
    let warmup = ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .sum_workload(3)
        .width(4)
        .skews([SkewProfile::Keep, SkewProfile::Uniform(2.0)])
        .flows([Flow::Conventional])
        .seed(7)
        .store(path.clone())
        .threads(1)
        .build()
        .expect("warmup spec");
    explore_with_stats(&warmup).expect("warmup run succeeds");
    let after_warmup = std::fs::read(&path).expect("warmup memo file exists");

    // Phase 2: the full matrix, killed after the temp file is written but before
    // the atomic rename — the memo file must keep its previous bytes exactly.
    let plan = FaultPlan::builder()
        .store_write_fault(1, WriteFault::CrashBeforeRename)
        .build();
    let spec = wall_spec()
        .store(path.clone())
        .threads(2)
        .faults(plan)
        .build()
        .expect("faulted spec");
    let error = explore_with_stats(&spec).expect_err("the crash must surface");
    assert!(
        matches!(&error, ExploreError::Store { message, .. }
            if message.contains("crash before rename")),
        "unexpected error: {error}"
    );
    assert_eq!(
        std::fs::read(&path).expect("memo file still exists"),
        after_warmup,
        "a crash before the rename never touches the memo file"
    );

    // Phase 3: the rerun flushes the full matrix; byte-identical to a store that
    // never crashed.
    let recovery = wall_spec()
        .store(path.clone())
        .threads(2)
        .build()
        .expect("recovery spec");
    explore_with_stats(&recovery).expect("recovery run succeeds");
    assert_eq!(
        std::fs::read(&path).expect("recovered memo file exists"),
        baseline,
        "the recovered memo file is byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(quarantine_path(&path));
}

#[test]
fn injected_read_outage_is_a_typed_store_error() {
    let path = scratch("read-outage");
    let plan = FaultPlan::builder().store_read_outage(1, u64::MAX).build();
    let spec = wall_spec()
        .store(path.clone())
        .threads(1)
        .faults(plan)
        .build()
        .expect("faulted spec");
    let error = explore_with_stats(&spec).expect_err("the unreadable store must surface");
    assert!(
        matches!(&error, ExploreError::Store { message, .. }
            if message.contains("injected store read fault")),
        "unexpected error: {error}"
    );
}

#[test]
fn panicking_jobs_quarantine_deterministically_across_thread_counts() {
    // Jobs 2 and 7 panic on every attempt (budget >= the retry limit); the sweep
    // must complete, retry each poisoned job to the limit, quarantine both, and
    // render byte-identically for every thread count.
    let mut summaries = Vec::new();
    for threads in [1, 2, 4] {
        let plan = FaultPlan::builder()
            .panic_job(2, u64::MAX)
            .panic_job(7, u64::MAX)
            .build();
        let spec = wall_spec()
            .threads(threads)
            .faults(std::sync::Arc::clone(&plan))
            .build()
            .expect("faulted spec");
        let jobs = spec.jobs();
        let results = explore(&spec).expect("poisoned jobs must not fail the sweep");
        assert_eq!(
            results.points().len(),
            jobs.len() - 2,
            "every healthy job completes ({threads} thread(s))"
        );
        let quarantined: Vec<usize> = results.quarantined().iter().map(|j| j.index).collect();
        assert_eq!(quarantined, vec![2, 7], "canonical quarantine order");
        for job in results.quarantined() {
            assert_eq!(job.attempts, JOB_ATTEMPT_LIMIT, "full retry budget spent");
            assert!(
                job.reason.contains("injected evaluation fault"),
                "the panic message survives: {:?}",
                job.reason
            );
            assert_eq!(
                plan.job_attempts(job.index),
                JOB_ATTEMPT_LIMIT as u64,
                "the plan observed exactly the retry-limit attempts"
            );
            assert_eq!(
                job.label,
                jobs[job.index].label(),
                "the label names its job"
            );
        }
        let summary = results.render_summary();
        assert!(
            summary.contains("quarantined jobs (2):"),
            "the summary reports the quarantine"
        );
        summaries.push(summary);
    }
    assert!(
        summaries.windows(2).all(|pair| pair[0] == pair[1]),
        "quarantined sweeps are byte-identical across thread counts"
    );
}

#[test]
fn transient_panics_recover_to_the_fault_free_bytes() {
    // Job 5 panics once; the supervised retry succeeds and the summary is
    // byte-identical to a run that never panicked.
    let plan = FaultPlan::builder().panic_job(5, 1).build();
    let spec = wall_spec()
        .threads(2)
        .faults(std::sync::Arc::clone(&plan))
        .build()
        .expect("faulted spec");
    let results = explore(&spec).expect("one transient panic is retried");
    assert!(results.quarantined().is_empty(), "the retry succeeded");
    assert_eq!(plan.job_attempts(5), 2, "panicking attempt plus the retry");
    let clean = explore(&wall_spec().threads(2).build().expect("clean spec"))
        .expect("fault-free run succeeds");
    assert_eq!(
        results.render_summary(),
        clean.render_summary(),
        "the recovered sweep is byte-identical to the fault-free one"
    );
}

#[test]
fn damaged_lines_quarantine_once_across_repeated_reloads() {
    let path = scratch("sidecar");
    let spec = wall_spec()
        .store(path.clone())
        .threads(1)
        .build()
        .expect("spec");
    explore_with_stats(&spec).expect("cold run succeeds");

    // Tamper one middle record line (checksums catch it); keep the trailing
    // newline so this is damage, not a tear.
    let text = std::fs::read_to_string(&path).expect("memo file reads");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(lines.len() > 4, "the memo file holds several records");
    let target = lines.len() / 2;
    lines[target] = lines[target].replace(char::is_numeric, "9");
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("tampered file writes");

    for reload in 1..=3 {
        let health = ResultStore::load(&path)
            .expect("a damaged file loads")
            .health();
        assert_eq!(
            health.damaged_lines, 1,
            "reload {reload}: the tampered line is damaged"
        );
        assert!(!health.torn_tail, "damage in the middle is not a tear");
        assert_eq!(
            health.quarantined, 1,
            "reload {reload}: the sidecar deduplicates the same evidence"
        );
    }
    let sidecar =
        std::fs::read_to_string(quarantine_path(&path)).expect("the sidecar holds the line");
    assert_eq!(sidecar.lines().count(), 1, "exactly one quarantined line");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(quarantine_path(&path));
}

// ---------------------------------------------------------------------------
// Server-layer faults (Unix domain sockets).
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod serve_faults {
    use super::*;
    use dpsyn_explore::faults::deterministic_garbage;
    use dpsyn_explore::{serve, ServeConfig, ServeResponse, SimActivity};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    /// A tiny request the degraded-server tests sweep (2 jobs, sub-second).
    const SWEEP: &str = concat!(
        r#"{"sources":[{"design":"x_squared"}],"flows":["conventional","fa_aot"],"#,
        r#""seed":7,"threads":1}"#,
        "\n"
    );

    fn sock(test: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "dpsyn-fault-injection-{}-{test}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn connect(socket: &PathBuf) -> UnixStream {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(socket) {
                Ok(stream) => return stream,
                Err(error) if Instant::now() >= deadline => {
                    panic!("cannot connect to serve socket: {error}")
                }
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    fn read_response(stream: &mut UnixStream) -> ServeResponse {
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("response line arrives");
        ServeResponse::parse(&line).expect("response parses")
    }

    fn shutdown(socket: &PathBuf) {
        let mut closer = connect(socket);
        closer
            .write_all(b"{\"shutdown\":true}\n")
            .expect("shutdown sends");
        let ack = read_response(&mut closer);
        assert!(ack.ok && ack.shutdown, "shutdown must be acknowledged");
    }

    /// The healthy service end to end: a cold request renders exactly what batch
    /// mode renders, two overlapping warm requests are byte-identical and served
    /// from the store, a `sim_activity` request carries the simulated columns
    /// without touching the analytic records, malformed or oversized
    /// `sim_activity` requests get typed rejects while the connection keeps
    /// serving, the status is coherent with all of it, and shutdown removes the
    /// socket but keeps the store.
    #[test]
    fn healthy_server_matches_batch_mode_end_to_end() {
        let socket = sock("healthy");
        let store = scratch("healthy-store");
        let mut config = ServeConfig::new(socket.clone());
        config.store_path = Some(store.clone());
        let server = std::thread::spawn(move || serve(&config));
        // `wall_spec()` as a protocol request, single-threaded for a fixed job
        // order (determinism across thread counts is pinned elsewhere).
        let request = concat!(
            r#"{"sources":[{"design":"x_squared"},{"sum":3}],"widths":[4],"#,
            r#""skews":["keep",2.0],"flows":["conventional","csa_opt","fa_aot"],"#,
            r#""seed":7,"threads":1"#
        );
        let reference = explore(&wall_spec().threads(1).build().expect("batch spec"))
            .expect("batch run succeeds")
            .render_summary();

        let mut cold_stream = connect(&socket);
        cold_stream
            .write_all(format!("{request}}}\n").as_bytes())
            .expect("cold request sends");
        let cold = read_response(&mut cold_stream);
        assert!(cold.ok, "cold request failed: {}", cold.error);
        assert_eq!(cold.summary, reference, "cold summary matches batch mode");
        assert_eq!(cold.store_hits, 0, "nothing is warm yet");
        drop(cold_stream);

        // Two overlapping connections: both written before either is read.
        let mut second = connect(&socket);
        let mut third = connect(&socket);
        for stream in [&mut second, &mut third] {
            stream
                .write_all(format!("{request}}}\n").as_bytes())
                .expect("warm request sends");
        }
        for stream in [&mut second, &mut third] {
            let warm = read_response(stream);
            assert!(warm.ok, "warm request failed: {}", warm.error);
            assert_eq!(warm.summary, reference, "warm summary is byte-identical");
            assert_eq!(warm.store_hits, warm.jobs, "every warm job is a store hit");
        }
        drop((second, third));

        // Typed rejects on one connection, which then keeps serving.
        let mut stream = connect(&socket);
        for (sim_activity, reason) in [
            (r#"{"seed":11}"#, "requires a `vectors` count"),
            (
                r#"{"seed":11,"vectors":100000000000}"#,
                "at most 65536 vectors",
            ),
        ] {
            let line = format!("{request},\"sim_activity\":{sim_activity}}}\n");
            stream
                .write_all(line.as_bytes())
                .expect("bad request sends");
            let rejected = read_response(&mut stream);
            assert!(!rejected.ok, "{sim_activity} must be rejected");
            assert!(
                rejected.error.contains(reason),
                "{sim_activity}: unexpected reason {:?}",
                rejected.error
            );
        }
        let activity = SimActivity {
            seed: 11,
            vectors: 256,
        };
        let sim_reference = explore(
            &wall_spec()
                .threads(1)
                .sim_activity(activity)
                .build()
                .expect("batch sim spec"),
        )
        .expect("batch sim run succeeds")
        .render_summary();
        let line = format!("{request},\"sim_activity\":{{\"seed\":11,\"vectors\":256}}}}\n");
        stream
            .write_all(line.as_bytes())
            .expect("sim request sends");
        let sim = read_response(&mut stream);
        assert!(sim.ok, "sim request failed: {}", sim.error);
        assert_eq!(sim.summary, sim_reference, "sim summary matches batch mode");
        assert!(sim.summary.contains("sim mW") && sim.summary.contains("div%"));
        assert_eq!(
            sim.store_hits, 0,
            "analytic records never answer a sim request"
        );

        stream
            .write_all(b"{\"status\":{}}\n")
            .expect("status sends");
        let status = read_response(&mut stream)
            .status
            .expect("a healthy server answers status");
        assert_eq!(status.store, "ok");
        assert_eq!(status.completed, 4, "cold, two warm and the sim sweep");
        assert_eq!(status.jobs, 48);
        assert_eq!(status.store_hits, 24, "the two warm sweeps");
        assert!((status.hit_rate - 0.5).abs() < 1e-9, "{}", status.hit_rate);
        assert_eq!(status.in_flight, 0, "no sweep is executing now");
        assert!(status.records > 0, "the store holds the sweep records");
        drop(stream);

        shutdown(&socket);
        server
            .join()
            .expect("server thread joins")
            .expect("server exits cleanly");
        assert!(!socket.exists(), "shutdown removes the socket file");
        assert!(store.exists(), "the store persists across shutdown");
        let _ = std::fs::remove_file(&store);
    }

    /// Acceptance (c): a server with an *unavailable* store keeps answering,
    /// flags itself degraded, and its status reports hit-rate / in-flight /
    /// queue-depth.
    #[test]
    fn store_outage_degrades_and_status_reports_admission_metrics() {
        let socket = sock("degraded");
        let store = scratch("degraded-store");
        let mut config = ServeConfig::new(socket.clone());
        config.store_path = Some(store.clone());
        config.faults = Some(
            FaultPlan::builder()
                .store_read_outage(1, u64::MAX)
                .store_write_outage(1, u64::MAX)
                .build(),
        );
        let server = std::thread::spawn(move || serve(&config));

        let mut stream = connect(&socket);
        stream.write_all(SWEEP.as_bytes()).expect("sweep sends");
        let first = read_response(&mut stream);
        assert!(
            first.ok,
            "the outage must not fail the sweep: {}",
            first.error
        );
        assert_eq!(first.points, 2, "the sweep computed through");
        assert_eq!(first.store, "degraded", "the response flags the outage");
        assert_eq!(first.store_hits, 0, "nothing warm behind an outage");
        // A second sweep answers too (and the in-memory records now serve hits
        // even though every flush keeps failing).
        stream.write_all(SWEEP.as_bytes()).expect("sweep sends");
        let second = read_response(&mut stream);
        assert!(second.ok && second.store == "degraded");
        assert!(
            second.store_hits > 0,
            "the in-memory store still accelerates repeat sweeps"
        );
        drop(stream);

        let mut statusline = connect(&socket);
        statusline
            .write_all(b"{\"status\":{}}\n")
            .expect("status sends");
        let status = read_response(&mut statusline)
            .status
            .expect("a degraded server answers status");
        assert_eq!(status.store, "degraded");
        assert_eq!(status.completed, 2);
        assert_eq!(status.jobs, 4);
        assert!(
            (status.hit_rate - 0.5).abs() < 1e-9,
            "2 warm of 4 jobs: hit-rate 0.5 (got {})",
            status.hit_rate
        );
        assert_eq!(status.in_flight, 0, "no sweep is executing now");
        drop(statusline);

        shutdown(&socket);
        server
            .join()
            .expect("server thread joins")
            .expect("a degraded server still exits cleanly");
        assert!(
            !store.exists(),
            "every flush failed, so the outage store file never materialized"
        );
    }

    /// Satellite: the line buffer is bounded — a garbage-spewing client (no
    /// newline, ever) is cut off with a typed `oversized` reject instead of
    /// growing the buffer without limit.
    #[test]
    fn garbage_streams_are_rejected_oversized_at_the_byte_cap() {
        let socket = sock("oversized");
        let mut config = ServeConfig::new(socket.clone());
        config.max_line_bytes = 4096;
        let server = std::thread::spawn(move || serve(&config));

        let mut stream = connect(&socket);
        let garbage = deterministic_garbage(41, 16 * 1024);
        // The server closes the connection after rejecting; a late write may
        // see EPIPE, which is exactly the cutoff working.
        let _ = stream.write_all(&garbage);
        let response = read_response(&mut stream);
        assert!(!response.ok);
        assert_eq!(response.reject, "oversized");
        assert!(
            response.error.contains("4096"),
            "the reject names the cap: {}",
            response.error
        );
        drop(stream);

        // An oversized *line* (newline present, too long) is also rejected.
        let mut stream = connect(&socket);
        let mut line = deterministic_garbage(42, 8 * 1024);
        line.push(b'\n');
        let _ = stream.write_all(&line);
        let response = read_response(&mut stream);
        assert_eq!(response.reject, "oversized");
        drop(stream);

        // The server survives both and still answers a healthy request.
        let mut stream = connect(&socket);
        stream.write_all(SWEEP.as_bytes()).expect("sweep sends");
        let healthy = read_response(&mut stream);
        assert!(
            healthy.ok,
            "the server survived the garbage: {}",
            healthy.error
        );
        drop(stream);

        let mut statusline = connect(&socket);
        statusline
            .write_all(b"{\"status\":{}}\n")
            .expect("status sends");
        let status = read_response(&mut statusline)
            .status
            .expect("status answers");
        assert_eq!(status.rejected_oversized, 2);
        drop(statusline);

        shutdown(&socket);
        server.join().expect("joins").expect("exits cleanly");
    }

    /// A line nested far deeper than the protocol ever goes (100,000 `[`, well
    /// under the byte cap) gets a typed `malformed request` reject instead of
    /// overflowing the handler's stack, and the same connection keeps serving.
    #[test]
    fn deeply_nested_lines_are_rejected_and_the_connection_keeps_serving() {
        let socket = sock("nested");
        let config = ServeConfig::new(socket.clone());
        let server = std::thread::spawn(move || serve(&config));

        let mut stream = connect(&socket);
        let mut line = "[".repeat(100_000);
        line.push('\n');
        stream.write_all(line.as_bytes()).expect("deep line sends");
        let response = read_response(&mut stream);
        assert!(!response.ok);
        assert!(
            response.error.starts_with("malformed request"),
            "typed reject: {}",
            response.error
        );
        stream.write_all(SWEEP.as_bytes()).expect("sweep sends");
        let healthy = read_response(&mut stream);
        assert!(healthy.ok, "the connection kept serving: {}", healthy.error);
        drop(stream);

        shutdown(&socket);
        server.join().expect("joins").expect("exits cleanly");
    }

    /// A request's `threads` is untrusted: a count no host could spawn or allocate
    /// per-worker state for must not abort the server. The engine caps its workers
    /// at the chunk count, so the request is answered like a one-thread request
    /// and the connection keeps serving.
    #[test]
    fn an_oversized_thread_count_is_answered_and_the_connection_keeps_serving() {
        let socket = sock("threads");
        let config = ServeConfig::new(socket.clone());
        let server = std::thread::spawn(move || serve(&config));

        let mut stream = connect(&socket);
        let huge = SWEEP.replace(r#""threads":1"#, r#""threads":100000000000000000"#);
        assert_ne!(huge, SWEEP);
        stream
            .write_all(huge.as_bytes())
            .expect("huge request sends");
        let response = read_response(&mut stream);
        assert!(response.ok, "answered: {}", response.error);
        assert_eq!(response.points, 2);
        stream.write_all(SWEEP.as_bytes()).expect("sweep sends");
        let healthy = read_response(&mut stream);
        assert!(healthy.ok, "the connection kept serving: {}", healthy.error);
        assert_eq!(healthy.summary, response.summary);
        drop(stream);

        shutdown(&socket);
        server.join().expect("joins").expect("exits cleanly");
    }

    /// A request's point sizes are untrusted: a width or operand count the
    /// workload generator would allocate gigabytes of bit profiles for gets a typed
    /// reject before any job runs, and the same connection keeps serving.
    #[test]
    fn oversized_points_are_rejected_and_the_connection_keeps_serving() {
        let socket = sock("oversized");
        let config = ServeConfig::new(socket.clone());
        let server = std::thread::spawn(move || serve(&config));

        let mut stream = connect(&socket);
        for (line, reason) in [
            (
                r#"{"sources":[{"sum":3}],"widths":[4000000000],"flows":["fa_aot"]}"#,
                "at most 64 bits",
            ),
            (
                r#"{"sources":[{"sum":1000000000000}],"widths":[4],"flows":["fa_aot"]}"#,
                "at most 64 operands",
            ),
        ] {
            stream
                .write_all(format!("{line}\n").as_bytes())
                .expect("oversized request sends");
            let response = read_response(&mut stream);
            assert!(!response.ok, "{line} must be rejected");
            assert!(
                response.error.contains(reason),
                "{line} -> {}",
                response.error
            );
        }
        stream.write_all(SWEEP.as_bytes()).expect("sweep sends");
        let healthy = read_response(&mut stream);
        assert!(healthy.ok, "the connection kept serving: {}", healthy.error);
        assert_eq!(healthy.points, 2);
        drop(stream);

        shutdown(&socket);
        server.join().expect("joins").expect("exits cleanly");
    }

    /// A request's axes are untrusted too: a matrix of more than `MAX_JOBS` jobs
    /// gets a typed reject before any job is built, and the same connection keeps
    /// serving.
    #[test]
    fn oversized_job_matrices_are_rejected_and_the_connection_keeps_serving() {
        let socket = sock("matrix");
        let config = ServeConfig::new(socket.clone());
        let server = std::thread::spawn(move || serve(&config));

        let mut stream = connect(&socket);
        let widths = vec!["8"; dpsyn_explore::MAX_JOBS + 1].join(",");
        let line = format!(r#"{{"sources":[{{"sum":2}}],"widths":[{widths}],"flows":["fa_aot"]}}"#);
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("oversized request sends");
        let response = read_response(&mut stream);
        assert!(!response.ok, "an oversized matrix must be rejected");
        assert!(
            response
                .error
                .contains(&format!("at most {} jobs", dpsyn_explore::MAX_JOBS)),
            "{}",
            response.error
        );
        stream.write_all(SWEEP.as_bytes()).expect("sweep sends");
        let healthy = read_response(&mut stream);
        assert!(healthy.ok, "the connection kept serving: {}", healthy.error);
        assert_eq!(healthy.points, 2);
        drop(stream);

        shutdown(&socket);
        server.join().expect("joins").expect("exits cleanly");
    }

    /// Satellite: a slow-loris client parking a partial line is rejected with a
    /// typed `deadline` response once the read deadline passes.
    #[test]
    fn stalled_partial_lines_are_rejected_at_the_read_deadline() {
        let socket = sock("deadline");
        let mut config = ServeConfig::new(socket.clone());
        config.read_deadline = Duration::from_millis(400);
        let server = std::thread::spawn(move || serve(&config));

        let mut stream = connect(&socket);
        stream
            .write_all(br#"{"sources":[{"design""#)
            .expect("partial line sends");
        let response = read_response(&mut stream);
        assert!(!response.ok);
        assert_eq!(response.reject, "deadline");
        drop(stream);

        shutdown(&socket);
        server.join().expect("joins").expect("exits cleanly");
    }

    /// Satellite: the admission cap sheds the excess sweep with a typed
    /// `overloaded` reject instead of queueing unbounded work, and the shed
    /// client can retry successfully afterwards.
    #[test]
    fn excess_sweeps_are_shed_with_a_typed_overloaded_reject() {
        let socket = sock("overloaded");
        let mut config = ServeConfig::new(socket.clone());
        config.max_in_flight = 1;
        // Every attempt of job 0 stalls, holding the single in-flight slot long
        // enough for the second sweep to arrive deterministically.
        config.faults = Some(
            FaultPlan::builder()
                .stall_job(0, Duration::from_millis(1500))
                .build(),
        );
        let server = std::thread::spawn(move || serve(&config));

        let mut slow = connect(&socket);
        slow.write_all(SWEEP.as_bytes()).expect("slow sweep sends");
        // Give the slow sweep time to claim the slot, then oversubscribe.
        std::thread::sleep(Duration::from_millis(400));
        let mut shed = connect(&socket);
        shed.write_all(SWEEP.as_bytes())
            .expect("second sweep sends");
        let rejected = read_response(&mut shed);
        assert!(!rejected.ok);
        assert_eq!(rejected.reject, "overloaded");
        assert!(
            rejected.error.contains("1 sweeps already in flight"),
            "the reject names the cap: {}",
            rejected.error
        );
        drop(shed);

        let slow_response = read_response(&mut slow);
        assert!(slow_response.ok, "the admitted sweep completes normally");
        drop(slow);

        // With the slot free again, a retry of the shed sweep is admitted.
        let mut retry = connect(&socket);
        retry.write_all(SWEEP.as_bytes()).expect("retry sends");
        let retried = read_response(&mut retry);
        assert!(retried.ok, "the retry is admitted: {}", retried.error);
        drop(retry);

        let mut statusline = connect(&socket);
        statusline
            .write_all(b"{\"status\":{}}\n")
            .expect("status sends");
        let status = read_response(&mut statusline)
            .status
            .expect("status answers");
        assert_eq!(status.rejected_overload, 1);
        assert_eq!(status.completed, 2);
        drop(statusline);

        shutdown(&socket);
        server.join().expect("joins").expect("exits cleanly");
    }
}
