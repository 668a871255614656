//! The metric names and units the benchmark prints, in the order of
//! `BENCHMARK.json`, and the per-layer metrics a traced run derives from its spans.

use crate::harness::{percentile, Ctx, Outcome, Stopwatch};
use crate::trace::{Layer, Tracer};
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload never calls
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("ir.lower_ms", "ms"),
    ("ir.addends", "count"),
    ("baselines.conventional_ms", "ms"),
    ("baselines.csa_opt_ms", "ms"),
    ("core.wallace_fixed_ms", "ms"),
    ("core.fa_random_ms", "ms"),
    ("core.fa_aot_ms", "ms"),
    ("core.fa_alp_ms", "ms"),
    ("netlist.compile_ms", "ms"),
    ("netlist.cells", "count"),
    ("netlist.fa_cells", "count"),
    ("netlist.ha_cells", "count"),
    ("netlist.levels", "count"),
    ("timing.sta_ms", "ms"),
    ("power.prob_ms", "ms"),
    ("anneal.ms", "ms"),
    ("anneal.proposals", "count"),
    ("anneal.accept_ratio", "ratio"),
    ("anneal.delta_reruns", "count"),
    ("sim.block_ms", "ms"),
    ("sim.vectors_per_s", "1/s"),
    ("sim.builds", "count"),
    ("sim.reuses", "count"),
    ("explore.materialize_ms", "ms"),
    ("explore.store_hits", "count"),
    ("store.load_ms", "ms"),
    ("store.snapshot_ms", "ms"),
    ("store.merge_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.records", "count"),
    ("store.file_bytes", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("store.flush_ms_per_krecord", "ms"),
    ("serve.cold_req_ms", "ms"),
    ("serve.warm_req_ms", "ms"),
    ("serve.sim_req_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.rejects", "count"),
    ("share.ir_pct", "%"),
    ("share.baselines_pct", "%"),
    ("share.core_pct", "%"),
    ("share.netlist_pct", "%"),
    ("share.timing_pct", "%"),
    ("share.power_pct", "%"),
    ("share.anneal_pct", "%"),
    ("share.sim_pct", "%"),
    ("share.explore_pct", "%"),
    ("share.store_pct", "%"),
    ("share.other_pct", "%"),
    ("trace.span_overhead_pct", "%"),
    ("trace.replay_slowdown_pct", "%"),
    ("paper.delay_gain_pct", "%"),
    ("paper.power_gain_pct", "%"),
];

/// Per-op span totals: metric name → span name.
const SPAN_MS: [(&str, &str); 17] = [
    ("ir.lower_ms", "ir.lower"),
    ("baselines.conventional_ms", "baselines.conventional"),
    ("baselines.csa_opt_ms", "baselines.csa_opt"),
    ("core.wallace_fixed_ms", "core.wallace_fixed"),
    ("core.fa_random_ms", "core.fa_random"),
    ("core.fa_aot_ms", "core.fa_aot"),
    ("core.fa_alp_ms", "core.fa_alp"),
    ("netlist.compile_ms", "netlist.compile"),
    ("timing.sta_ms", "timing.sta"),
    ("power.prob_ms", "power.prob"),
    ("anneal.ms", "anneal"),
    ("sim.block_ms", "sim.block"),
    ("explore.materialize_ms", "explore.materialize"),
    ("store.load_ms", "store.load"),
    ("store.snapshot_ms", "store.snapshot"),
    ("store.merge_ms", "store.merge"),
    ("store.flush_ms", "store.flush"),
];

/// Per-op counters recorded at layer boundaries.
const COUNTS: [&str; 7] = [
    "ir.addends",
    "netlist.cells",
    "netlist.fa_cells",
    "netlist.ha_cells",
    "netlist.levels",
    "anneal.proposals",
    "anneal.delta_reruns",
];

/// Replays ops for `budget` seconds and at least `min_ops` traced ops (outside
/// smoke mode), alternating a recorder with spans on and one with spans off, then
/// fills the per-layer metrics and writes the spans. Returns the traced recorder
/// for workload-specific counters.
pub fn replay(
    ctx: &Ctx,
    budget: f64,
    min_ops: usize,
    untraced_op_ms: &[f64],
    out: &mut Outcome,
    mut op: impl FnMut(&mut Tracer) -> Result<(), String>,
) -> Tracer {
    let mut traced = Tracer::new(true);
    let mut plain = Tracer::new(false);
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while ctx.keep_going(started, budget, traced_ms.len())
        || (!ctx.smoke && traced_ms.len() < min_ops)
    {
        for (tr, times) in [(&mut traced, &mut traced_ms), (&mut plain, &mut plain_ms)] {
            let watch = Stopwatch::start();
            let id = tr.begin_op();
            let result = op(tr);
            tr.end(id);
            times.push(watch.ms());
            if let Err(error) = result {
                out.check(false, || format!("replayed op failed: {error}"));
            }
        }
    }
    traced_metrics(&traced, &traced_ms, &plain_ms, untraced_op_ms, out);
    write_spans(ctx, &traced, out);
    traced
}

/// Fills the span-derived per-layer metrics of a traced run: per-op span times
/// and counters, self-time shares per layer, and what tracing cost.
///
/// `traced_ms` and `plain_ms` time the same replayed ops with spans on and off;
/// `untraced_op_ms` times the workload's real ops.
fn traced_metrics(
    tr: &Tracer,
    traced_ms: &[f64],
    plain_ms: &[f64],
    untraced_op_ms: &[f64],
    out: &mut Outcome,
) {
    let ops = f64::from(tr.ops().max(1));
    for (metric, span) in SPAN_MS {
        out.set(metric, tr.total_ms(span) / ops);
    }
    for name in COUNTS {
        out.set(name, tr.counter(name) / ops);
    }
    let proposals = tr.counter("anneal.proposals");
    if proposals > 0.0 {
        out.set(
            "anneal.accept_ratio",
            tr.counter("anneal.accepted") / proposals,
        );
    }
    let breakdown = tr.breakdown();
    for (layer, metric) in [
        (Layer::Ir, "share.ir_pct"),
        (Layer::Baselines, "share.baselines_pct"),
        (Layer::Core, "share.core_pct"),
        (Layer::Netlist, "share.netlist_pct"),
        (Layer::Timing, "share.timing_pct"),
        (Layer::Power, "share.power_pct"),
        (Layer::Anneal, "share.anneal_pct"),
        (Layer::Sim, "share.sim_pct"),
        (Layer::Explore, "share.explore_pct"),
        (Layer::Store, "share.store_pct"),
        (Layer::Other, "share.other_pct"),
    ] {
        // The replay's only serve-layer spans are status requests; their time is
        // reported with `other`.
        let share = if layer == Layer::Other {
            breakdown.share_pct(Layer::Other) + breakdown.share_pct(Layer::Serve)
        } else {
            breakdown.share_pct(layer)
        };
        out.set(metric, share);
    }
    let traced = percentile(traced_ms, 0.5);
    let plain = percentile(plain_ms, 0.5);
    let real = percentile(untraced_op_ms, 0.5);
    if plain > 0.0 {
        out.set("trace.span_overhead_pct", 100.0 * (traced - plain) / plain);
    }
    if real > 0.0 {
        out.set("trace.replay_slowdown_pct", 100.0 * (traced - real) / real);
    }
    eprintln!(
        "traced breakdown over {} op(s), {:.3} ms per op:",
        tr.ops(),
        breakdown.total_ms / ops
    );
    for layer in Layer::ALL {
        eprintln!(
            "  {:<10} self {:>10.3} ms/op  {:>6.2}%",
            layer.name(),
            breakdown.self_ms.get(&layer).copied().unwrap_or(0.0) / ops,
            breakdown.share_pct(layer)
        );
    }
}

/// Writes the traced run's spans to the scratch directory, once, at the end.
fn write_spans(ctx: &Ctx, tr: &Tracer, out: &mut Outcome) {
    let path = ctx.work.join("spans.jsonl");
    let written = tr.write_jsonl(&path);
    out.check(written.is_ok(), || {
        format!("cannot write spans to {}", path.display())
    });
}
