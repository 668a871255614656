//! Free-form design-space exploration: crosses benchmark designs and synthetic
//! workloads with arrival-skew and probability-bias profiles over every synthesis
//! flow, and prints the per-flow summary plus the delay × power × area Pareto front.
//!
//! ```bash
//! cargo run --release -p dpsyn-bench --bin explore                     # full sweep
//! cargo run --release -p dpsyn-bench --bin explore -- --smoke          # small CI matrix
//! cargo run --release -p dpsyn-bench --bin explore -- --store memo.txt # persistent store
//! cargo run --release -p dpsyn-bench --bin explore -- --serve /tmp/dpsyn.sock --store memo.txt
//! ```
//!
//! The worker count defaults to the host's available parallelism (the spec builder's
//! default), and the work-stealing scheduler's per-run stats — chunks, jobs, steals
//! and store hits per worker, plus the points analysed on a reused structure instead
//! of synthesizing — are reported on stderr. `--smoke` additionally re-runs
//! its matrix single-threaded and asserts the rendered summary is byte-identical —
//! the engine's determinism contract, checked end to end.
//!
//! `--store <path>` attaches the persistent cross-run result store: a re-run of the
//! same sweep against a warm memo file collapses to lookups (watch the store-hit
//! counters) while printing the byte-identical summary. `--serve <socket>` starts the
//! long-lived service mode on a Unix socket (newline-delimited JSON requests, one
//! exploration each, all sharing the store; see `dpsyn_explore::serve`). The service
//! is tested end to end over a real socket by the `serve_faults` module of
//! `tests/fault_injection.rs`.

use dpsyn_baselines::Flow;
use dpsyn_explore::{
    explore, explore_with_stats, BiasProfile, ExplorationSpec, ExplorationSpecBuilder, SkewProfile,
};
use std::path::PathBuf;

/// The small deterministic matrix CI smoke-runs: 24 jobs.
fn smoke_spec() -> ExplorationSpecBuilder {
    ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .design(dpsyn_designs::mixed_poly())
        .sum_workload(3)
        .width(4)
        .skews([SkewProfile::Keep, SkewProfile::Uniform(2.0)])
        .flows([Flow::Conventional, Flow::CsaOpt, Flow::FaAot, Flow::FaAlp])
        .seed(7)
}

/// The full sweep: four benchmark designs plus an 8-operand sum workload, crossed
/// with three skew and two bias profiles over all six flows (216 jobs).
fn full_spec() -> ExplorationSpecBuilder {
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
}

/// Value of `--flag <value>` in `args`, when present.
fn flag_value(args: &[String], flag: &str) -> Option<PathBuf> {
    args.iter()
        .position(|arg| arg == flag)
        .and_then(|position| args.get(position + 1))
        .map(PathBuf::from)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let store = flag_value(&args, "--store");
    if let Some(socket) = flag_value(&args, "--serve") {
        serve_mode(socket, store);
        return;
    }
    let smoke = args.iter().any(|arg| arg == "--smoke");
    let builder = if smoke { smoke_spec() } else { full_spec() };
    let builder = match &store {
        Some(path) => builder.store(path.clone()),
        None => builder,
    };
    // No explicit `.threads(..)`: the builder defaults to the available parallelism.
    let spec = builder.build().expect("exploration spec is well-formed");
    let workers = spec.threads();
    eprintln!(
        "exploring {} jobs on {} worker thread(s) ...",
        spec.jobs().len(),
        workers
    );
    let (results, stats) = explore_with_stats(&spec).expect("every flow succeeds");
    if let Some(health) = stats.store {
        eprintln!(
            "store: {} record(s) loaded, {} damaged line(s), {} quarantined line(s){}{}",
            health.records,
            health.damaged_lines,
            health.quarantined,
            if health.torn_tail {
                ", torn tail (mid-flush kill recovered)"
            } else {
                ""
            },
            if health.rebuilt {
                ", stale file rebuilt"
            } else {
                ""
            },
        );
    }
    for (worker, worker_stats) in stats.workers.iter().enumerate() {
        eprintln!(
            "worker {worker}: {} chunk(s), {} job(s), {} steal(s), {} store hit(s)",
            worker_stats.chunks, worker_stats.jobs, worker_stats.steals, worker_stats.store_hits
        );
    }
    if !results.quarantined().is_empty() {
        eprintln!(
            "WARNING: {} job(s) quarantined after repeated panics",
            results.quarantined().len()
        );
    }
    let (busiest, laziest) = stats.job_spread();
    eprintln!(
        "scheduler: {} total steal(s), {} store hit(s), {} structure reuse(s), \
         {} leaf prefix build(s), busiest/laziest worker ran {busiest}/{laziest} job(s)",
        stats.total_steals(),
        stats.total_store_hits(),
        stats.total_structure_reuses(),
        stats.total_leaf_prefix_builds()
    );
    let summary = results.render_summary();
    print!("{summary}");
    if smoke {
        // Determinism gate: the single-threaded run must render byte-identically.
        let reference = explore(&smoke_spec().threads(1).build().expect("smoke spec"))
            .expect("single-threaded smoke run succeeds");
        assert_eq!(
            summary,
            reference.render_summary(),
            "exploration summary diverged between {workers} worker(s) and 1 worker"
        );
        eprintln!("smoke OK: {workers}-thread and 1-thread summaries are byte-identical");
    }
}

#[cfg(unix)]
fn serve_mode(socket: PathBuf, store_path: Option<PathBuf>) {
    use dpsyn_explore::{serve, ServeConfig};
    eprintln!(
        "serving explorations on `{}` (store: {}) — send {{\"shutdown\":true}} to stop",
        socket.display(),
        store_path
            .as_ref()
            .map_or("in-memory".to_string(), |path| path.display().to_string())
    );
    let mut config = ServeConfig::new(socket);
    config.store_path = store_path;
    serve(&config).expect("server runs until shutdown");
}

#[cfg(not(unix))]
fn serve_mode(_socket: PathBuf, _store: Option<PathBuf>) {
    eprintln!("--serve requires Unix domain sockets and is unavailable on this platform");
    std::process::exit(1);
}
