//! `paper_tables`: one op is Table 1 over the ten timing designs plus Table 2 over
//! the five power designs — what a reader of the paper waits for, and the only
//! workload that runs the `fa_anneal` delta search.

use crate::harness::{resample_set_up, Ctx, Outcome, Stopwatch};
use crate::replay;
use dpsyn_baselines::Flow;
use dpsyn_designs::Design;
use dpsyn_tech::TechLibrary;
use std::convert::Infallible;
use std::time::Instant;

/// The probability seed of the shipped `table2` binary.
pub const DEFAULT_SEED: u64 = 2026;
/// FA_random runs averaged per Table-2 design, as in the `table2` binary.
const RANDOM_RUNS: u64 = 5;
const GOLDEN_TABLE1: &str = include_str!("../golden/table1.txt");
const GOLDEN_TABLE2: &str = include_str!("../golden/table2.txt");
const TABLE1_FLOWS: [Flow; 3] = [Flow::Conventional, Flow::CsaOpt, Flow::FaAot];
/// `dpsyn_bench` shards both tables across every core, at most eight, as the
/// paper binaries run them.
const MAX_TABLE_THREADS: usize = 8;

struct Inputs {
    tech: TechLibrary,
    table1: Vec<Design>,
    table2: Vec<Design>,
}

/// The rendered tables and the two averages the paper reports.
struct Tables {
    text: String,
    delay_gain_pct: f64,
    power_gain_pct: f64,
}

fn tables(inputs: &Inputs, seed: u64) -> Tables {
    let rows1 = dpsyn_bench::table1(&inputs.table1, &inputs.tech);
    let rows2 = dpsyn_bench::table2(&inputs.table2, &inputs.tech, seed, RANDOM_RUNS);
    let mean = |values: Vec<f64>| 100.0 * values.iter().sum::<f64>() / values.len() as f64;
    Tables {
        text: dpsyn_bench::format_table1(&rows1) + &dpsyn_bench::format_table2(&rows2),
        delay_gain_pct: mean(
            rows1
                .iter()
                .map(|row| row.delay_improvement_vs_conventional())
                .collect(),
        ),
        power_gain_pct: mean(rows2.iter().map(|row| row.improvement()).collect()),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed.unwrap_or(DEFAULT_SEED);
    let mut out = Outcome::default();
    let mut load = || {
        Ok::<_, Infallible>(Inputs {
            tech: TechLibrary::lcbg10pv_like(),
            table1: dpsyn_designs::table1_designs(),
            table2: dpsyn_designs::table2_designs(),
        })
    };
    let Ok((inputs, mut setups)) = ctx.set_up(&mut load);
    // An untimed warm-up op gives the tables every measured op must match.
    let reference = tables(&inputs, seed);
    let jobs =
        inputs.table1.len() * TABLE1_FLOWS.len() + inputs.table2.len() * (RANDOM_RUNS as usize + 2);

    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut op_ms = Vec::new();
    let started = Instant::now();
    while ctx.keep_going(started, budget, op_ms.len()) {
        out.attempted += 1;
        let watch = Stopwatch::start_on(ctx.cores.min(MAX_TABLE_THREADS));
        let op = tables(&inputs, seed);
        op_ms.push(watch.ms());
        out.check(op.text == reference.text, || {
            "the tables differ from the warm-up op's".to_string()
        });
        resample_set_up(&mut setups, &mut load);
        out.calibrate(1);
    }
    let busy_s = op_ms.iter().sum::<f64>() / 1e3;
    out.end_to_end(&op_ms, (jobs * op_ms.len()) as f64, busy_s, &setups);

    // The paper's averages: FA_AOT beats conventional on delay by a wide margin
    // and FA_ALP beats random selection on power, at every seed.
    out.check((25.0..=55.0).contains(&reference.delay_gain_pct), || {
        format!(
            "FA_AOT delay gain {:.1}% left [25, 55]",
            reference.delay_gain_pct
        )
    });
    out.check(
        (0.0..=30.0).contains(&reference.power_gain_pct) && reference.power_gain_pct > 0.0,
        || {
            format!(
                "FA_ALP power gain {:.1}% left (0, 30]",
                reference.power_gain_pct
            )
        },
    );
    eprintln!(
        "paper_tables: FA_AOT delay gain {:.2}% over conventional (paper 37.8%), \
         FA_ALP power gain {:.2}% over FA_random (paper 11.8%)",
        reference.delay_gain_pct, reference.power_gain_pct
    );
    let shipped = if seed == DEFAULT_SEED {
        reference.text
    } else {
        tables(&inputs, DEFAULT_SEED).text
    };
    out.check(shipped == format!("{GOLDEN_TABLE1}{GOLDEN_TABLE2}"), || {
        "the seed-2026 tables no longer print what the `table1`/`table2` binaries printed"
            .to_string()
    });
    if ctx.trace {
        out.set("paper.delay_gain_pct", reference.delay_gain_pct);
        out.set("paper.power_gain_pct", reference.power_gain_pct);
        replay_phase(ctx, &inputs, seed, budget, &op_ms, &mut out);
    }
    out
}

fn replay_phase(
    ctx: &Ctx,
    inputs: &Inputs,
    seed: u64,
    budget: f64,
    op_ms: &[f64],
    out: &mut Outcome,
) {
    let table2: Vec<Design> = inputs
        .table2
        .iter()
        .map(|design| design.with_random_probabilities(seed))
        .collect();
    let mut table2_flows = vec![Flow::FaAlp];
    table2_flows.extend((1..=RANDOM_RUNS).map(Flow::FaRandom));
    table2_flows.push(Flow::FaAnneal(1));
    crate::contract::replay(ctx, budget, 1, op_ms, out, |tr| {
        for design in &inputs.table1 {
            for flow in TABLE1_FLOWS {
                replay::point(tr, design, flow, &inputs.tech)?;
            }
        }
        for design in &table2 {
            for &flow in &table2_flows {
                replay::point(tr, design, flow, &inputs.tech)?;
            }
        }
        Ok(())
    });
}
