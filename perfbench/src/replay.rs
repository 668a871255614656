//! The traced replay of one design point: every public call a job makes, each in
//! its own span (materialize → lower → synthesize → compile → timing → power).

use crate::trace::{Layer, Tracer};
use dpsyn_baselines::{input_profiles, Flow, FlowSynthesis};
use dpsyn_designs::Design;
use dpsyn_ir::LoweringOptions;
use dpsyn_netlist::CellKind;
use dpsyn_power::ProbabilityAnalysis;
use dpsyn_tech::TechLibrary;
use dpsyn_timing::TimingAnalysis;
use std::collections::BTreeMap;

/// Span name of a flow's synthesis call, prefixed by the crate that implements it.
pub fn synth_span(flow: Flow) -> (&'static str, Layer) {
    match flow {
        Flow::Conventional => ("baselines.conventional", Layer::Baselines),
        Flow::CsaOpt => ("baselines.csa_opt", Layer::Baselines),
        Flow::WallaceFixed => ("core.wallace_fixed", Layer::Core),
        Flow::FaRandom(_) => ("core.fa_random", Layer::Core),
        Flow::FaAot => ("core.fa_aot", Layer::Core),
        Flow::FaAlp => ("core.fa_alp", Layer::Core),
        Flow::FaAnneal(_) => ("anneal", Layer::Anneal),
    }
}

/// Replays one design point through every layer. Returns an error message when a
/// call fails; the caller counts the op as failed.
pub fn point(
    tr: &mut Tracer,
    design: &Design,
    flow: Flow,
    tech: &TechLibrary,
) -> Result<(), String> {
    let matrix = tr
        .time("ir.lower", Layer::Ir, || {
            design.expr().lower(
                design.spec(),
                &LoweringOptions::with_width(design.output_width()),
            )
        })
        .map_err(|error| error.to_string())?;
    tr.count("ir.addends", matrix.total_addends() as f64);
    let (name, layer) = synth_span(flow);
    if let Flow::FaAnneal(seed) = flow {
        let (_, stats) = tr
            .time(name, layer, || {
                dpsyn_baselines::fa_anneal_with_stats(
                    design.expr(),
                    design.spec(),
                    design.output_width(),
                    tech,
                    seed,
                )
            })
            .map_err(|error| error.to_string())?;
        tr.count("anneal.proposals", stats.proposals as f64);
        tr.count("anneal.accepted", stats.accepted as f64);
        tr.count("anneal.delta_reruns", stats.delta_reruns as f64);
        return Ok(());
    }
    let synth = tr.begin(name, layer);
    let synthesized = flow
        .synthesize(design.expr(), design.spec(), design.output_width(), tech)
        .map_err(|error| error.to_string());
    tr.end(synth);
    // The FA-tree flows analysed inside `synthesize`; the replayed analysis below
    // stands in for that part of the synthesis span.
    let (netlist, word_map, within) = match synthesized? {
        FlowSynthesis::Unanalyzed(parts) => (parts.netlist, parts.word_map, None),
        FlowSynthesis::Analyzed(result) => (result.netlist, result.word_map, synth),
    };
    let compiled = tr
        .time_within("netlist.compile", Layer::Netlist, within, || {
            netlist.compile()
        })
        .map_err(|error| error.to_string())?;
    let kinds: BTreeMap<CellKind, usize> = compiled.kind_counts().iter().copied().collect();
    tr.count("netlist.cells", compiled.cell_count() as f64);
    tr.count(
        "netlist.fa_cells",
        kinds.get(&CellKind::Fa).copied().unwrap_or(0) as f64,
    );
    tr.count(
        "netlist.ha_cells",
        kinds.get(&CellKind::Ha).copied().unwrap_or(0) as f64,
    );
    tr.count("netlist.levels", compiled.level_count() as f64);
    let (arrivals, probabilities) = input_profiles(&word_map, design.spec());
    tr.time_within("timing.sta", Layer::Timing, within, || {
        TimingAnalysis::new(tech)
            .with_input_arrivals(arrivals)
            .run_compiled(&compiled)
    })
    .map_err(|error| error.to_string())?;
    tr.time_within("power.prob", Layer::Power, within, || {
        ProbabilityAnalysis::new(tech)
            .with_input_probabilities(probabilities)
            .run_compiled(&compiled)
    })
    .map_err(|error| error.to_string())?;
    Ok(())
}
