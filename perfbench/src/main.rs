//! The repository benchmark: three workloads, end-to-end metrics with tracing
//! off, and a traced run that breaks each op down by layer.
//!
//! ```bash
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_cold --seed 7 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Run it from the repository root. The last line of stdout is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! A run whose output checks fail prints `"correct":false` and exits with 1.
//! `--smoke` runs one op of every workload in both modes and checks that the
//! printed metric names are the ones `BENCHMARK.json` lists. See `README.md`.

mod contract;
mod harness;
mod replay;
mod serve;
mod sweep;
mod tables;
mod trace;

use harness::{Ctx, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["sweep_cold", "serve_growing", "paper_tables"];

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "sweep_cold" => sweep::cold(ctx),
        "serve_growing" => serve::run(ctx),
        "paper_tables" => tables::run(ctx),
        _ => unreachable!("workload names are checked while parsing"),
    }
}

/// The JSON result line: every contract metric of the mode, in contract order;
/// a layer the workload never called reads 0.
fn result_line(out: &Outcome, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace {
        &contract::PER_LAYER
    } else {
        &contract::END_TO_END
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed.min(out.attempted.max(1)),
        metrics.join(",")
    )
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|hash| hash.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = words
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload `{value}`; one of {WORKLOADS:?}"))
            }
            "--seed" => args.seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|seconds: &f64| *seconds > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    // The scratch directory lives in the checkout, next to the build output.
    let work = PathBuf::from(".bench_work");
    if let Err(error) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {error}", work.display());
        return ExitCode::from(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |cores| cores.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        cores,
        threads: 1,
        clients: 1,
        work,
    };
    if args.smoke {
        return smoke(ctx);
    }
    let workload = args.workload.expect("checked while parsing");
    println!(
        "perfbench: workload={workload} seed={} seconds={} trace={} host_cores={cores} \
         threads={} clients={} commit={} profile={}",
        args.seed
            .map_or("default".to_string(), |seed| seed.to_string()),
        args.seconds,
        u8::from(args.trace),
        ctx.threads,
        ctx.clients,
        commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let out = run_workload(&workload, &ctx);
    for problem in &out.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", result_line(&out, args.trace));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Metric names `BENCHMARK.json` lists under `section` (`end_to_end` or
/// `per_layer`), in file order. The file is the benchmark's own, so a plain scan
/// for `"name"` keys inside the section's array suffices.
fn listed_names(json: &str, section: &str) -> Vec<String> {
    let Some(start) = json.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

/// One op of every workload in both modes; fails unless every run is correct and
/// the metric names the result line prints are exactly those `BENCHMARK.json`
/// lists, in its order.
fn smoke(ctx: Ctx) -> ExitCode {
    let Ok(json) = std::fs::read_to_string("BENCHMARK.json") else {
        eprintln!("perfbench: smoke mode runs from the repository root (no BENCHMARK.json here)");
        return ExitCode::from(2);
    };
    let mut healthy = true;
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let listed = listed_names(&json, section);
        let table: &[(&str, &str)] = if trace {
            &contract::PER_LAYER
        } else {
            &contract::END_TO_END
        };
        let printed: Vec<String> = table.iter().map(|(name, _)| name.to_string()).collect();
        if listed != printed {
            eprintln!(
                "perfbench: {section} names differ: BENCHMARK.json {listed:?}, printed {printed:?}"
            );
            healthy = false;
        }
        for workload in WORKLOADS {
            let ctx = Ctx {
                trace,
                ..ctx.clone()
            };
            let out = run_workload(workload, &ctx);
            eprintln!(
                "perfbench smoke: {workload} trace={} {}",
                u8::from(trace),
                result_line(&out, trace)
            );
            for problem in &out.problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            healthy &= out.problems.is_empty();
        }
    }
    if healthy {
        println!("smoke OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
