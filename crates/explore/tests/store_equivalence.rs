//! End-to-end equivalence suite for the persistent cross-run result store.
//!
//! The store's whole contract is *invisibility*: a warm-store sweep must render
//! byte-identically to a cold one, under every thread count, for partial warm-ups,
//! and with artifact retention in play — while corrupt or stale memo files degrade
//! to a rebuild, never to wrong answers, and concurrent flushes merge to one
//! deterministic file.

use dpsyn_explore::{
    explore_with_stats, quarantine_path, BiasProfile, EvalKey, EvalStage, ExplorationSpec,
    ExplorationSpecBuilder, Flow, ResultStore, SimActivity, SkewProfile, StoredEval, STORE_FORMAT,
};
use std::path::PathBuf;

/// A fresh scratch path per test; the process id keeps parallel `cargo test`
/// processes (e.g. different profiles) apart.
fn scratch(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "dpsyn-store-equivalence-{}-{test}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// The 48-job matrix the suite sweeps: a fixed design plus a sum workload across
/// widths, skews, biases and four flows — both synthesis outcomes (the FA-tree flows
/// return analysed results, `conventional`/`csa_opt` are analysed through the
/// cache), both source kinds.
fn suite_spec() -> ExplorationSpecBuilder {
    ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .sum_workload(3)
        .widths([3, 4])
        .skews([SkewProfile::Keep, SkewProfile::Uniform(2.0)])
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows([Flow::Conventional, Flow::CsaOpt, Flow::FaAot, Flow::FaAlp])
        .seed(7)
}

#[test]
fn warm_store_is_byte_identical_across_threads_and_partial_warmups() {
    let path = scratch("equivalence");
    // Cold reference run: populates the store from empty.
    let spec = suite_spec()
        .store(path.clone())
        .threads(2)
        .build()
        .expect("suite spec is well-formed");
    let jobs = spec.jobs().len();
    assert_eq!(jobs, 48, "the suite matrix is 48 jobs");
    let (cold, cold_stats) = explore_with_stats(&spec).expect("cold run succeeds");
    let cold_summary = cold.render_summary();
    assert_eq!(
        cold_stats.total_store_hits(),
        0,
        "an empty store cannot hit"
    );

    // A plain no-store run must render the same bytes (the store changes nothing).
    let (plain, _) = explore_with_stats(&suite_spec().threads(2).build().expect("plain spec"))
        .expect("plain run succeeds");
    assert_eq!(plain.render_summary(), cold_summary);

    // Warm reruns: every thread count serves all 48 jobs from the store and
    // renders byte-identically.
    for threads in [1, 2, 3, 4] {
        let warm_spec = suite_spec()
            .store(path.clone())
            .threads(threads)
            .build()
            .expect("warm spec is well-formed");
        let (warm, stats) = explore_with_stats(&warm_spec).expect("warm run succeeds");
        assert_eq!(
            warm.render_summary(),
            cold_summary,
            "warm summary diverged at {threads} thread(s)"
        );
        assert_eq!(
            stats.total_store_hits(),
            jobs,
            "a fully warmed store must serve every job ({threads} thread(s))"
        );
    }

    // Mixed run: warm only half the flow axis first, then sweep the full matrix —
    // the shared 24 jobs hit, the rest evaluate fresh, the bytes still match.
    let mixed_path = scratch("equivalence-mixed");
    let half_spec = ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .sum_workload(3)
        .widths([3, 4])
        .skews([SkewProfile::Keep, SkewProfile::Uniform(2.0)])
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows([Flow::Conventional, Flow::FaAot])
        .seed(7)
        .store(mixed_path.clone())
        .threads(2)
        .build()
        .expect("half spec is well-formed");
    let half_jobs = half_spec.jobs().len();
    assert_eq!(half_jobs, 24);
    explore_with_stats(&half_spec).expect("half warm-up succeeds");
    let mixed_spec = suite_spec()
        .store(mixed_path.clone())
        .threads(4)
        .build()
        .expect("mixed spec");
    let (mixed, stats) = explore_with_stats(&mixed_spec).expect("mixed run succeeds");
    assert_eq!(
        mixed.render_summary(),
        cold_summary,
        "a partially warmed store must not change a single byte"
    );
    assert_eq!(
        stats.total_store_hits(),
        half_jobs,
        "exactly the warmed half of the matrix is served from the store"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&mixed_path);
}

#[test]
fn retained_artifacts_bypass_lookups_and_stay_complete() {
    let path = scratch("retain");
    let retain_spec = |store: PathBuf| {
        suite_spec()
            .store(store)
            .retain_artifacts(true)
            .threads(2)
            .build()
            .expect("retain spec is well-formed")
    };
    let spec = retain_spec(path.clone());
    let (cold, _) = explore_with_stats(&spec).expect("cold retain run succeeds");
    // The cold retain run recorded its results; a warm retain run must NOT serve
    // from the store (a memoized record has no netlist to retain) ...
    let (warm, stats) = explore_with_stats(&retain_spec(path.clone())).expect("warm retain run");
    assert_eq!(
        stats.total_store_hits(),
        0,
        "artifact retention must disable store lookups"
    );
    // ... and every point still carries its full artifact, identical to cold.
    assert_eq!(warm.points().len(), cold.points().len());
    for (warm_point, cold_point) in warm.points().iter().zip(cold.points()) {
        let warm_artifact = warm_point.artifact.as_ref().expect("warm artifact kept");
        let cold_artifact = cold_point.artifact.as_ref().expect("cold artifact kept");
        assert_eq!(warm_point.metrics, cold_point.metrics);
        assert_eq!(
            warm_artifact.netlist.to_verilog(),
            cold_artifact.netlist.to_verilog(),
            "retained netlists must be identical on {}",
            warm_point.job.label()
        );
        assert_eq!(warm_artifact.delay.to_bits(), cold_artifact.delay.to_bits());
    }
    assert_eq!(warm.render_summary(), cold.render_summary());

    // The store is still warmed by retain runs: a later non-retaining sweep hits.
    let (served, stats) = explore_with_stats(
        &suite_spec()
            .store(path.clone())
            .threads(2)
            .build()
            .expect("non-retain spec"),
    )
    .expect("non-retain run succeeds");
    assert_eq!(stats.total_store_hits(), served.points().len());
    assert_eq!(served.render_summary(), cold.render_summary());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_and_stale_memo_files_rebuild_instead_of_failing() {
    let path = scratch("corrupt");
    // A foreign file: detected, rebuilt from empty, never an error.
    std::fs::write(&path, "not a store at all\nrandom bytes\n").expect("write corrupt file");
    let store = ResultStore::load(&path).expect("corrupt files load as empty");
    assert!(
        store.health().rebuilt,
        "foreign header must report a rebuild"
    );
    assert!(store.is_empty());

    // A stale version: same treatment.
    std::fs::write(&path, "dpsyn-eval-store v0\nA 0 0 0 0 0 x 0 0 0 0 0 0 0\n")
        .expect("write stale file");
    let store = ResultStore::load(&path).expect("stale files load as empty");
    assert!(
        store.health().rebuilt,
        "stale version must report a rebuild"
    );
    assert!(store.is_empty());

    // The previous live version (v1, no stimulus column) is stale too: its lines
    // cannot carry the stimulus digest, so the whole file rebuilds.
    std::fs::write(&path, "dpsyn-eval-store v1\nA 0 0 0 0 0 x 0 0 0 0 0 0 0\n")
        .expect("write v1 file");
    let store = ResultStore::load(&path).expect("v1 files load as empty");
    assert!(
        store.health().rebuilt,
        "the stimulus-less v1 format must rebuild"
    );
    assert!(store.is_empty());

    // A single tampered line: skipped and counted, the healthy records survive.
    let mut seeded = ResultStore::load(&path).expect("load for seeding");
    seeded.record(sample_key(1), sample_value(1.0));
    seeded.record(sample_key(2), sample_value(2.0));
    seeded.flush().expect("seed flush");
    let text = std::fs::read_to_string(&path).expect("read seeded store");
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "header + two records");
    let tampered = lines[1].replace(char::from(lines[1].as_bytes()[2]), "Z");
    lines[1] = &tampered;
    std::fs::write(&path, lines.join("\n")).expect("write tampered store");
    let reloaded = ResultStore::load(&path).expect("tampered store loads");
    assert!(!reloaded.health().rebuilt, "the header is fine");
    assert_eq!(
        reloaded.health().damaged_lines,
        1,
        "one line failed its checksum"
    );
    assert_eq!(reloaded.len(), 1, "the healthy record survives");

    // An exploration against the truncated store rebuilds the lost results.
    let spec = suite_spec()
        .store(path.clone())
        .threads(1)
        .build()
        .expect("rebuild spec");
    let (results, _) = explore_with_stats(&spec).expect("sweep over tampered store succeeds");
    assert_eq!(results.points().len(), 48);
    let rebuilt = ResultStore::load(&path).expect("rebuilt store loads");
    assert_eq!(
        rebuilt.health().damaged_lines,
        0,
        "the flush rewrote clean lines"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn non_utf8_bytes_cost_one_line_not_the_store() {
    let path = scratch("non-utf8");
    let sidecar = quarantine_path(&path);
    let _ = std::fs::remove_file(&sidecar);
    let mut seeded = ResultStore::load(&path).expect("load for seeding");
    seeded.record(sample_key(1), sample_value(1.0));
    seeded.record(sample_key(2), sample_value(2.0));
    seeded.flush().expect("seed flush");
    let mut damaged = std::fs::read(&path).expect("read seeded store");
    damaged.extend_from_slice(b"A 0 \xff\xfe 0\n");
    std::fs::write(&path, &damaged).expect("write the non-UTF-8 line");

    // The load counts the line as damaged, quarantines it as lossy text and keeps
    // every other record.
    let store = ResultStore::load(&path).expect("a non-UTF-8 line never fails a load");
    let health = store.health();
    assert!(!health.rebuilt, "the header is fine");
    assert_eq!(health.damaged_lines, 1);
    assert_eq!(store.len(), 2, "the healthy records survive");
    let quarantined = std::fs::read_to_string(&sidecar).expect("the sidecar is UTF-8 text");
    assert_eq!(quarantined, "A 0 \u{fffd}\u{fffd} 0\n");

    // A flush re-reads the damaged file, and a store that only knows the path
    // (the server's degraded mode) recovers through it.
    ResultStore::empty_at(&path, None)
        .flush()
        .expect("a flush over a non-UTF-8 file succeeds");
    std::fs::write(&path, &damaged).expect("restore the non-UTF-8 line");

    // A sweep over that store succeeds, and its flush leaves a clean file.
    let spec = suite_spec()
        .store(path.clone())
        .threads(1)
        .build()
        .expect("sweep spec");
    let (results, _) = explore_with_stats(&spec).expect("sweep over a non-UTF-8 store succeeds");
    assert_eq!(results.points().len(), 48);
    let text = std::fs::read_to_string(&path).expect("the flushed file is UTF-8");
    let clean = ResultStore::load(&path).expect("the flushed file loads");
    assert_eq!(
        clean.health().damaged_lines,
        0,
        "the flush rewrote clean lines"
    );
    assert_eq!(clean.lookup(&sample_key(1)), Some(sample_value(1.0)));
    assert_eq!(
        text.lines().count(),
        clean.len() + 1,
        "header + one line per record"
    );

    // A non-UTF-8 header marks a foreign file: rebuilt from empty.
    std::fs::write(&path, b"dpsyn-eval-store \xff\n").expect("write a non-UTF-8 header");
    let foreign = ResultStore::load(&path).expect("a non-UTF-8 header never fails a load");
    assert!(foreign.health().rebuilt);
    assert!(foreign.is_empty());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&sidecar);
}

#[test]
fn anneal_seeds_never_alias_one_memo_entry() {
    let path = scratch("anneal-seeds");
    let anneal_spec = |flows: Vec<Flow>| {
        ExplorationSpec::builder()
            .design(dpsyn_designs::x_squared())
            .flows(flows)
            .seed(7)
            .store(path.clone())
            .threads(2)
            .build()
            .expect("anneal spec is well-formed")
    };
    // Warm the store with seed 1 only.
    explore_with_stats(&anneal_spec(vec![Flow::FaAnneal(1)])).expect("seed-1 warm-up succeeds");
    // Sweep both seeds: only the warmed seed may be served; if the memo key
    // dropped the seed, seed 2 would (wrongly) hit seed 1's entry.
    let (both, stats) =
        explore_with_stats(&anneal_spec(vec![Flow::FaAnneal(1), Flow::FaAnneal(2)]))
            .expect("two-seed sweep succeeds");
    assert_eq!(both.points().len(), 2);
    assert_eq!(
        stats.total_store_hits(),
        1,
        "seed 2 must not alias seed 1's memo entry"
    );
    // A rerun of the full two-seed sweep now hits both distinct entries.
    let (rerun, stats) =
        explore_with_stats(&anneal_spec(vec![Flow::FaAnneal(1), Flow::FaAnneal(2)]))
            .expect("warm two-seed sweep succeeds");
    assert_eq!(stats.total_store_hits(), 2);
    assert_eq!(rerun.render_summary(), both.render_summary());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sim_stimulus_never_aliases_an_analytic_or_other_seed_entry() {
    let path = scratch("sim-stimulus");
    let sim_spec = |activity: Option<SimActivity>| {
        let mut builder = ExplorationSpec::builder()
            .design(dpsyn_designs::x_squared())
            .flows([Flow::Conventional, Flow::CsaOpt])
            .seed(7)
            .store(path.clone())
            .threads(2);
        if let Some(activity) = activity {
            builder = builder.sim_activity(activity);
        }
        builder.build().expect("sim spec is well-formed")
    };
    // Warm the store analytically. A simulated-metric sweep of the *same* matrix
    // must not be served from those entries: a memoized analytic record has no
    // simulated power to report.
    explore_with_stats(&sim_spec(None)).expect("analytic warm-up succeeds");
    let activity_a = SimActivity {
        seed: 11,
        vectors: 256,
    };
    let (cold_sim, stats) =
        explore_with_stats(&sim_spec(Some(activity_a))).expect("cold sim sweep succeeds");
    assert_eq!(
        stats.total_store_hits(),
        0,
        "a simulated sweep must not alias analytic store entries"
    );
    let cold_summary = cold_sim.render_summary();
    assert!(cold_summary.contains("sim mW"));

    // A different stimulus (seed or vector count) is a different measurement.
    for activity_b in [
        SimActivity {
            seed: 12,
            vectors: 256,
        },
        SimActivity {
            seed: 11,
            vectors: 512,
        },
    ] {
        let (_, stats) =
            explore_with_stats(&sim_spec(Some(activity_b))).expect("other-stimulus sweep");
        assert_eq!(
            stats.total_store_hits(),
            0,
            "stimulus {activity_b:?} must not alias seed 11 x 256 entries"
        );
    }

    // The exact same stimulus reruns fully warm and byte-identically.
    let (warm_sim, stats) =
        explore_with_stats(&sim_spec(Some(activity_a))).expect("warm sim sweep succeeds");
    assert_eq!(stats.total_store_hits(), 2, "exact sim rerun hits fully");
    assert_eq!(warm_sim.render_summary(), cold_summary);

    // And the analytic matrix still hits its own (stimulus-0) entries.
    let (_, stats) = explore_with_stats(&sim_spec(None)).expect("analytic rerun succeeds");
    assert_eq!(stats.total_store_hits(), 2);
    let _ = std::fs::remove_file(&path);
}

fn sample_key(salt: u64) -> EvalKey {
    EvalKey {
        stage: EvalStage::Analysis,
        structural: salt,
        fingerprint: [salt ^ 0xaaaa, salt ^ 0x5555],
        tech: 7,
        flow: "conventional".to_string(),
        profiles: salt.rotate_left(13),
        stimulus: 0,
    }
}

fn sample_value(delay: f64) -> StoredEval {
    StoredEval {
        delay,
        area: 10.0 + delay,
        switching_energy: 0.5 * delay,
        power_mw: 0.25 * delay,
        cell_count: 10,
        logic_depth: 3,
        simulated_switch_power: 0.2 * delay,
    }
}

#[test]
fn concurrent_flushes_merge_to_one_deterministic_file() {
    // Two "processes" (two store instances over one path) with overlapping and
    // disjoint records, flushed in both orders: the final file must hold the full
    // union with identical bytes either way.
    let build_stores = |path: PathBuf| {
        let mut first = ResultStore::load(&path).expect("first store loads");
        let mut second = ResultStore::load(&path).expect("second store loads");
        for salt in 0..8 {
            first.record(sample_key(salt), sample_value(salt as f64));
        }
        for salt in 4..12 {
            second.record(sample_key(salt), sample_value(salt as f64));
        }
        (first, second)
    };
    let path_ab = scratch("flush-ab");
    let (mut a, mut b) = build_stores(path_ab.clone());
    a.flush().expect("a flushes");
    b.flush().expect("b flushes over a");
    let bytes_ab = std::fs::read(&path_ab).expect("read ab");

    let path_ba = scratch("flush-ba");
    let (mut a, mut b) = build_stores(path_ba.clone());
    b.flush().expect("b flushes");
    a.flush().expect("a flushes over b");
    let bytes_ba = std::fs::read(&path_ba).expect("read ba");

    assert_eq!(
        bytes_ab, bytes_ba,
        "flush order must not change the merged file's bytes"
    );
    let merged = ResultStore::load(&path_ab).expect("merged store loads");
    assert_eq!(merged.len(), 12, "the union holds every distinct key");
    assert_eq!(merged.health().damaged_lines, 0);
    assert!(merged.lookup(&sample_key(0)).is_some());
    assert!(merged.lookup(&sample_key(11)).is_some());
    assert!(STORE_FORMAT.starts_with("dpsyn-eval-store"));
    let _ = std::fs::remove_file(&path_ab);
    let _ = std::fs::remove_file(&path_ba);
}
