//! `sweep_cold`: the `explore` binary's full 216-job sweep, run fresh on every op
//! with no store.

use crate::harness::{resample_set_up, Ctx, Outcome, Stopwatch};
use crate::replay;
use crate::trace::{Layer, Tracer};
use dpsyn_baselines::Flow;
use dpsyn_explore::{
    explore, explore_with_stats, BiasProfile, ExplorationSpec, ExplorationSpecBuilder, SkewProfile,
};
use std::time::Instant;

/// The seed of the `explore` binary's full sweep.
pub const DEFAULT_SEED: u64 = 7;
/// Stdout of the `explore` binary's full sweep (seed 7).
const GOLDEN: &str = include_str!("../golden/explore_full.txt");
/// Random vectors per netlist in the equivalence pass (inputs wider than 16 bits).
const EQUIVALENCE_VECTORS: usize = 256;

/// The `explore` binary's full sweep: four benchmark designs plus an 8-operand sum
/// workload, three skews × two biases, six flows (216 jobs).
fn full_sweep(seed: u64) -> ExplorationSpecBuilder {
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
        .seed(seed)
}

/// One measured sweep: its time, and its summary when it succeeded.
struct Sweep {
    ms: f64,
    run: Result<String, String>,
}

fn sweep(spec: &ExplorationSpec) -> Sweep {
    let watch = Stopwatch::start();
    let result = explore(spec);
    let ms = watch.ms();
    let run = match result {
        Ok(results) if !results.quarantined().is_empty() => Err(format!(
            "{} job(s) quarantined",
            results.quarantined().len()
        )),
        Ok(results) => Ok(results.render_summary()),
        Err(error) => Err(error.to_string()),
    };
    Sweep { ms, run }
}

pub fn cold(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed.unwrap_or(DEFAULT_SEED);
    let mut out = Outcome::default();
    let mut build = || full_sweep(seed).threads(ctx.threads).build();
    let (spec, mut setups) = ctx
        .set_up(&mut build)
        .expect("the full sweep spec is well-formed");
    // An untimed warm-up sweep gives the summary every measured op must match.
    let reference = match sweep(&spec).run {
        Ok(summary) => summary,
        Err(error) => {
            out.check(false, || format!("warm-up sweep failed: {error}"));
            return out;
        }
    };
    measure(ctx, &spec, &reference, &mut setups, &mut build, &mut out);
    checks(ctx, seed, &reference, &mut out);
    out
}

/// The measured loop. Untraced runs report the end-to-end metrics; traced runs
/// time half the budget untraced (the reference op time) and replay ops under
/// spans for the other half. Set-up is timed again between ops.
fn measure<E>(
    ctx: &Ctx,
    spec: &ExplorationSpec,
    reference: &str,
    setups: &mut Vec<f64>,
    set_up: &mut impl FnMut() -> Result<ExplorationSpec, E>,
    out: &mut Outcome,
) {
    let jobs = spec.jobs().len();
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut op_ms = Vec::new();
    let started = Instant::now();
    while ctx.keep_going(started, budget, op_ms.len()) {
        out.attempted += 1;
        let op = sweep(spec);
        match op.run {
            Ok(summary) => {
                op_ms.push(op.ms);
                out.check(summary == reference, || {
                    "a sweep summary differs from the warm-up sweep's".to_string()
                });
            }
            Err(error) => {
                out.check(false, || format!("sweep failed: {error}"));
            }
        }
        resample_set_up(setups, set_up);
        out.calibrate(1);
    }
    let busy_s = op_ms.iter().sum::<f64>() / 1e3;
    out.end_to_end(&op_ms, (jobs * op_ms.len()) as f64, busy_s, setups);
    if ctx.trace {
        crate::contract::replay(ctx, budget, 1, &op_ms, out, |tr| replay_sweep(tr, spec));
    }
}

/// One sweep, call by call: per job materialize, then the whole point replay.
fn replay_sweep(tr: &mut Tracer, spec: &ExplorationSpec) -> Result<(), String> {
    for job in spec.jobs() {
        let design = tr.time("explore.materialize", Layer::Explore, || {
            spec.materialize(&job)
        });
        replay::point(tr, &design, job.flow(), spec.tech())?;
    }
    Ok(())
}

/// The output checks, run once outside the timed section: a run on every core,
/// a cold and a warm run against a store, the `explore` binary's stdout, and the
/// equivalence of every synthesized netlist with its expression.
fn checks(ctx: &Ctx, seed: u64, reference: &str, out: &mut Outcome) {
    let summary = |spec: &ExplorationSpec| {
        explore_with_stats(spec)
            .map(|(results, stats)| (results.render_summary(), stats.total_store_hits()))
            .map_err(|error| error.to_string())
    };
    let parallel = summary(
        &full_sweep(seed)
            .threads(ctx.cores)
            .build()
            .expect("the full sweep spec is well-formed"),
    );
    out.check(
        parallel.as_ref().is_ok_and(|(text, _)| text == reference),
        || {
            format!(
                "the {}-thread summary differs from the measured one",
                ctx.cores
            )
        },
    );
    // The read side of the store: a cold run fills it, a warm rerun is served
    // whole from it, and both print the measured summary.
    let path = ctx.work.join("sweep.store");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dpsyn_explore::quarantine_path(&path));
    let stored = full_sweep(seed)
        .threads(ctx.cores)
        .store(&path)
        .build()
        .expect("the full sweep spec is well-formed");
    let jobs = stored.jobs().len();
    for (run, hits) in [("cold", 0), ("warm", jobs)] {
        let result = summary(&stored);
        out.check(result == Ok((reference.to_string(), hits)), || {
            format!("the {run} store-backed run differs from the measured one (expected {hits} store hits)")
        });
    }
    let default = if seed == DEFAULT_SEED {
        Ok(reference.to_string())
    } else {
        summary(
            &full_sweep(DEFAULT_SEED)
                .threads(ctx.cores)
                .build()
                .expect("the full sweep spec is well-formed"),
        )
        .map(|(text, _)| text)
    };
    out.check(default.as_deref() == Ok(GOLDEN), || {
        "the seed-7 sweep no longer prints what the `explore` binary printed".to_string()
    });
    let retained = full_sweep(seed)
        .threads(ctx.cores)
        .retain_artifacts(true)
        .build()
        .expect("the full sweep spec is well-formed");
    match explore(&retained) {
        Ok(results) => {
            out.check(results.render_summary() == reference, || {
                "the retained-artifact summary differs from the measured one".to_string()
            });
            for point in results.points() {
                let design = retained.materialize(&point.job);
                let verdict = match &point.artifact {
                    None => Err("no retained netlist".to_string()),
                    Some(artifact) => dpsyn_sim::check_equivalence(
                        &artifact.netlist,
                        &artifact.word_map,
                        design.expr(),
                        design.spec(),
                        design.output_width(),
                        EQUIVALENCE_VECTORS,
                        seed,
                    )
                    .map_err(|error| error.to_string()),
                };
                out.check(verdict.is_ok(), || {
                    format!("{}: {}", point.job.label(), verdict.unwrap_err())
                });
            }
        }
        Err(error) => {
            out.check(false, || format!("retained-artifact sweep failed: {error}"));
        }
    }
}
