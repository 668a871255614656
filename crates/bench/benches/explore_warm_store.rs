//! Criterion benchmark + gate: the persistent cross-run result store on the full
//! 216-job exploration sweep.
//!
//! The persistent store memoizes every evaluated point under its exact evaluation
//! key (design/netlist identity × flow × tech digest × input-profile digest), so a
//! *second* run of the same sweep — a new process, a re-run in CI, another client
//! of the server mode — collapses to near-lookup cost. This harness checks the
//! whole contract end to end on the same 216-job matrix the `explore` binary
//! sweeps:
//!
//! 1. **byte-identity** — the cold run (empty store), the warm rerun (fully
//!    populated store) and a plain no-store run all render the byte-identical
//!    summary;
//! 2. **full coverage** — the warm rerun serves every one of the 216 jobs from
//!    the store (store hits == jobs);
//! 3. **speedup floor** — the warm rerun, *including* loading the memo file and
//!    flushing it back, is at least **5×** faster than the cold run end to end
//!    (measured far above that — a warm sweep does no synthesis at all). The cold
//!    side is the median of three cold runs, each on a fresh empty store; the
//!    warm side is the mean over a 300 ms window.
//!
//! The `BENCH_warm_store.json` record is printed:
//!
//! ```bash
//! cargo bench -p dpsyn-bench --bench explore_warm_store
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpsyn_baselines::Flow;
use dpsyn_explore::{
    explore, explore_with_store, BiasProfile, ExplorationSpec, ResultStore, SkewProfile,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Minimum end-to-end cold/warm speedup the gate enforces.
const SPEEDUP_FLOOR: f64 = 5.0;
/// Cold sweeps timed per gate run; the gate takes their median.
const COLD_RUNS: usize = 3;

/// The same 216-job matrix the `explore` binary's full sweep runs (four benchmark
/// designs plus an 8-operand sum workload × widths × skews × biases × six flows),
/// pinned to two workers so the measurement is host-independent.
fn full_spec() -> ExplorationSpec {
    ExplorationSpec::builder()
        .designs([
            dpsyn_designs::x2_x_y(),
            dpsyn_designs::mixed_poly(),
            dpsyn_designs::iir(),
            dpsyn_designs::serial_adapter(),
        ])
        .sum_workload(8)
        .widths([8, 12])
        .skews([
            SkewProfile::Keep,
            SkewProfile::Uniform(2.0),
            SkewProfile::Uniform(4.0),
        ])
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows([
            Flow::Conventional,
            Flow::CsaOpt,
            Flow::WallaceFixed,
            Flow::FaRandom(8),
            Flow::FaAot,
            Flow::FaAlp,
        ])
        .seed(7)
        .threads(2)
        .build()
        .expect("full sweep spec is well-formed")
}

fn scratch_store_path() -> PathBuf {
    std::env::temp_dir().join(format!("dpsyn-warm-store-bench-{}.txt", std::process::id()))
}

/// One full store round-trip, exactly what `explore_with_stats` does for a spec
/// with an attached store: load the memo file, sweep against it, merge the fresh
/// records, flush atomically. Returns the summary and the run's total store hits.
fn sweep_with_store(spec: &ExplorationSpec, path: &Path) -> (String, usize) {
    let mut store = ResultStore::load(path).expect("store loads");
    let (results, stats, fresh) =
        explore_with_store(spec, Some(&store)).expect("every flow succeeds");
    let hits = stats.total_store_hits();
    store.merge(fresh);
    store.flush().expect("store flushes");
    (results.render_summary(), hits)
}

fn bench_explore_warm_store(criterion: &mut Criterion) {
    let spec = full_spec();
    let jobs = spec.jobs().len();
    let path = scratch_store_path();
    let _ = std::fs::remove_file(&path);

    // Cold runs, each against a fresh empty store, timed end to end (load + sweep
    // + flush). The last one leaves the warm memo file behind.
    let mut cold_samples = Vec::with_capacity(COLD_RUNS);
    let mut cold_summaries = Vec::with_capacity(COLD_RUNS);
    for _ in 0..COLD_RUNS {
        let _ = std::fs::remove_file(&path);
        let cold_start = Instant::now();
        let (summary, hits) = sweep_with_store(&spec, &path);
        cold_samples.push(cold_start.elapsed().as_secs_f64());
        assert_eq!(hits, 0, "an empty store cannot serve hits");
        cold_summaries.push(summary);
    }
    let cold_summary = cold_summaries.pop().expect("at least one cold run");
    assert!(
        cold_summaries
            .iter()
            .all(|summary| *summary == cold_summary),
        "every cold run must render the same summary"
    );
    cold_samples.sort_by(f64::total_cmp);
    let cold_secs = cold_samples[COLD_RUNS / 2];

    // Warm rerun: every job must be a store hit and the bytes must not move.
    let (warm_summary, warm_hits) = sweep_with_store(&spec, &path);
    assert_eq!(
        warm_hits, jobs,
        "a fully warmed store must serve every job of the sweep"
    );
    assert_eq!(
        warm_summary, cold_summary,
        "warm rerun must render byte-identically to the cold run"
    );

    // And both must match a run with no store attached at all.
    let plain_summary = explore(&spec)
        .expect("no-store sweep succeeds")
        .render_summary();
    assert_eq!(
        plain_summary, cold_summary,
        "store-attached runs must render byte-identically to the plain engine"
    );

    let mut group = criterion.benchmark_group("explore_warm_store");
    group.sample_size(10);
    group.bench_function("warm_full_sweep_216_jobs", |bencher| {
        bencher.iter(|| black_box(sweep_with_store(&spec, &path)))
    });
    group.finish();

    // Gate: average the warm round-trip over a short window (it is fast), compare
    // against the median cold run, print the committed record's fields.
    let mut warm_runs = 0u32;
    let warm_window = Instant::now();
    while warm_window.elapsed() < Duration::from_millis(300) {
        black_box(sweep_with_store(&spec, &path));
        warm_runs += 1;
    }
    let warm_secs = warm_window.elapsed().as_secs_f64() / f64::from(warm_runs);
    let speedup = cold_secs / warm_secs;
    println!(
        "{{\"bench\": \"explore_warm_store\", \"jobs\": {jobs}, \"warm_hits\": {warm_hits}, \
         \"cold_secs\": {cold_secs:.4}, \"warm_secs\": {warm_secs:.4}, \
         \"speedup\": {speedup:.1}, \"floor\": {SPEEDUP_FLOOR:.1}}}"
    );
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "a warm-store rerun of the full sweep must be at least {SPEEDUP_FLOOR:.1}x faster \
         end to end than the cold run (measured {speedup:.1}x: {cold_secs:.3}s cold vs \
         {warm_secs:.4}s warm)"
    );
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_explore_warm_store);
criterion_main!(benches);
