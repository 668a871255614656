//! Criterion benchmark: incremental delta re-analysis vs. the full compiled
//! per-point bundle on skew-sweep workloads.
//!
//! A skew sweep re-analyses one fixed netlist structure under a sequence of input
//! arrival profiles — exactly what the explorer's skew/bias axes do to every
//! profile-invariant synthesis group. The full compiled path pays
//! compile + tech-resolve + timing + power + area per point; the delta path binds a
//! `DeltaState` to the program once and re-propagates each point **only through the
//! dirty cone** (`IncrementalTiming::rerun_delta` / `IncrementalPower::rerun_delta`),
//! with the resolved tables and cell area cached. On an arrival-only sweep the
//! power cone never wakes at all.
//!
//! The harness first asserts every sweep point's delta reports are **bit-identical**
//! to fresh `run_compiled` runs, then measures points/sec over the sweep for both
//! paths and enforces per-workload speedup floors: **≥ 3×** on the explorer-style
//! skew sweep (sparse per-point arrival changes — the case the delta layer exists
//! for), and ≥ 1.8× on the adversarial full-skew sweep where every input changes at
//! once and the dirty cone degenerates to the whole netlist (the win there comes
//! from the cached compile/resolve/area and the never-woken power channel).
//!
//! The two paths are timed in short **alternating windows** and the gate compares
//! the median points/sec of each, so load drift on a shared host hits both sides
//! alike instead of landing on whichever path happened to run second. The
//! `BENCH_incremental.json` record is printed:
//!
//! ```bash
//! cargo bench -p dpsyn-bench --bench incremental_throughput
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpsyn_baselines::{input_profiles, Flow, FlowSynthesis};
use dpsyn_modules::multiplier::wallace_multiply;
use dpsyn_netlist::{CompiledNetlist, DeltaState, InputDelta, NetId, Netlist};
use dpsyn_power::{IncrementalPower, ProbabilityAnalysis};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::{IncrementalTiming, TimingAnalysis};
use std::collections::BTreeMap;
use std::time::Instant;

/// One skew-sweep workload: a fixed netlist plus the per-point input profiles the
/// sweep re-analyses it under.
struct Workload {
    name: &'static str,
    netlist: Netlist,
    /// Per sweep point: (arrival profile, probability profile).
    points: Vec<(BTreeMap<NetId, f64>, BTreeMap<NetId, f64>)>,
    /// Minimum delta-vs-full per-point speedup the gate enforces.
    floor: f64,
}

/// The figures one analysed point reports; both paths must agree bit for bit.
#[derive(PartialEq, Debug)]
struct Bundle {
    delay: f64,
    energy: f64,
    area: f64,
}

/// The 16×16 Wallace multiplier under a whole-operand arrival sweep: every `a` bit's
/// arrival changes at every point (the worst case for the timing cone — it is the
/// full netlist), while the probability profile stays fixed (the power cone never
/// wakes). This isolates what caching the compile/resolve/area and skipping the
/// clean channel buy on their own.
fn wallace_workload() -> Workload {
    let mut netlist = Netlist::new("mult16");
    let a: Vec<_> = (0..16)
        .map(|i| netlist.add_input(format!("a{i}")))
        .collect();
    let b: Vec<_> = (0..16)
        .map(|i| netlist.add_input(format!("b{i}")))
        .collect();
    let product = wallace_multiply(&mut netlist, &a, &b).expect("multiplier generation");
    for net in &product {
        netlist.mark_output(*net);
    }
    let probabilities: BTreeMap<NetId, f64> = b
        .iter()
        .enumerate()
        .map(|(bit, net)| (*net, 0.3 + bit as f64 * 0.02))
        .collect();
    let points = (0..24u32)
        .map(|step| {
            let scale = 0.05 + 0.05 * f64::from(step);
            let arrivals = a
                .iter()
                .enumerate()
                .map(|(bit, net)| (*net, bit as f64 * scale))
                .collect();
            (arrivals, probabilities.clone())
        })
        .collect();
    Workload {
        name: "wallace_mult_16x16_full_skew_sweep",
        netlist,
        points,
        floor: 1.8,
    }
}

/// An explorer-style point: the IIR benchmark synthesized once through the
/// conventional flow (profile-invariant structure — exactly the netlist a
/// `(source, width, flow)` group shares), swept by re-skewing **one input word per
/// point** on top of the design's own profile. Sparse input changes leave most of
/// the cone clean, which is where the dirty worklist's early termination pays.
fn conventional_iir_workload(tech: &TechLibrary) -> Workload {
    let design = dpsyn_designs::iir();
    let synthesis = Flow::Conventional
        .synthesize(design.expr(), design.spec(), design.output_width(), tech)
        .expect("iir synthesis");
    let FlowSynthesis::Unanalyzed(parts) = synthesis else {
        panic!("the conventional flow synthesizes without analysing");
    };
    let (netlist, word_map) = (parts.netlist, parts.word_map);
    let (base_arrivals, base_probabilities) = input_profiles(&word_map, design.spec());
    let words: Vec<Vec<NetId>> = word_map
        .inputs()
        .iter()
        .map(|word| word.bits().to_vec())
        .collect();
    let points = (0..24u32)
        .map(|step| {
            let mut arrivals = base_arrivals.clone();
            let word = &words[step as usize % words.len()];
            for (bit, net) in word.iter().enumerate() {
                arrivals.insert(*net, 0.25 * f64::from(step % 7) + 0.1 * bit as f64);
            }
            (arrivals, base_probabilities.clone())
        })
        .collect();
    Workload {
        name: "conventional_iir_word_skew_sweep",
        netlist,
        points,
        floor: 3.0,
    }
}

/// The full compiled per-point bundle, exactly as the engine's non-cached path pays
/// it: compile, resolve-and-run timing, resolve-and-run power, fold the area.
fn full_point(
    netlist: &Netlist,
    tech: &TechLibrary,
    arrivals: &BTreeMap<NetId, f64>,
    probabilities: &BTreeMap<NetId, f64>,
) -> Bundle {
    let compiled = netlist.compile().expect("acyclic");
    let timing = TimingAnalysis::new(tech)
        .with_input_arrivals(arrivals.clone())
        .run_compiled(&compiled)
        .expect("timing");
    let power = ProbabilityAnalysis::new(tech)
        .with_input_probabilities(probabilities.clone())
        .run_compiled(&compiled)
        .expect("power");
    Bundle {
        delay: timing.critical_delay(),
        energy: power.total_energy(),
        area: tech.compiled_area(&compiled),
    }
}

/// The persistent half of the delta path: program compiled once, technology resolved
/// once, area folded once; the first point primes the state with a full pass.
struct DeltaHarness {
    compiled: CompiledNetlist,
    timing: IncrementalTiming,
    power: IncrementalPower,
    state: DeltaState,
    area: f64,
    delta: InputDelta,
}

impl DeltaHarness {
    fn new(netlist: &Netlist, tech: &TechLibrary) -> Self {
        let compiled = netlist.compile().expect("acyclic");
        DeltaHarness {
            timing: IncrementalTiming::new(tech, &compiled).expect("resolve"),
            power: IncrementalPower::new(tech, &compiled).expect("resolve"),
            state: DeltaState::new(&compiled),
            area: tech.compiled_area(&compiled),
            compiled,
            delta: InputDelta::new(),
        }
    }

    /// One per-point analysis: assemble the point's full input profile and run it
    /// through `rerun_delta` — the priming full pass on the first point, a
    /// dirty-cone rerun (unchanged values skipped bit-for-bit) afterwards.
    fn point(
        &mut self,
        arrivals: &BTreeMap<NetId, f64>,
        probabilities: &BTreeMap<NetId, f64>,
    ) -> Bundle {
        self.delta.clear();
        for net in self.compiled.inputs() {
            self.delta
                .set_arrival(*net, arrivals.get(net).copied().unwrap_or(0.0));
            self.delta
                .set_probability(*net, probabilities.get(net).copied().unwrap_or(0.5));
        }
        let delay = self
            .timing
            .rerun_delta(&self.compiled, &mut self.state, &self.delta)
            .expect("delta timing")
            .critical_delay();
        let energy = self
            .power
            .rerun_delta(&self.compiled, &mut self.state, &self.delta)
            .expect("delta power")
            .total_energy();
        Bundle {
            delay,
            energy,
            area: self.area,
        }
    }
}

/// Verifies the delta path reports bit-identical figures (and full bit-identical
/// reports) to the fresh compiled path on every sweep point.
fn verify_bit_identity(workload: &Workload, tech: &TechLibrary) {
    let mut harness = DeltaHarness::new(&workload.netlist, tech);
    for (index, (arrivals, probabilities)) in workload.points.iter().enumerate() {
        let delta = harness.point(arrivals, probabilities);
        let full = full_point(&workload.netlist, tech, arrivals, probabilities);
        assert_eq!(
            delta.delay.to_bits(),
            full.delay.to_bits(),
            "{} point {index}: delay mismatch",
            workload.name
        );
        assert_eq!(
            delta.energy.to_bits(),
            full.energy.to_bits(),
            "{} point {index}: energy mismatch",
            workload.name
        );
        assert_eq!(
            delta.area.to_bits(),
            full.area.to_bits(),
            "{} point {index}: area mismatch",
            workload.name
        );
        // Whole-report identity, not just the headline figures.
        let fresh_timing = TimingAnalysis::new(tech)
            .with_input_arrivals(arrivals.clone())
            .run_compiled(&harness.compiled)
            .expect("fresh timing");
        let fresh_power = ProbabilityAnalysis::new(tech)
            .with_input_probabilities(probabilities.clone())
            .run_compiled(&harness.compiled)
            .expect("fresh power");
        let delta_timing = harness
            .timing
            .rerun_delta(&harness.compiled, &mut harness.state, &InputDelta::new())
            .expect("idempotent rerun")
            .to_report();
        let delta_power = harness
            .power
            .rerun_delta(&harness.compiled, &mut harness.state, &InputDelta::new())
            .expect("idempotent rerun")
            .to_report();
        assert_eq!(
            delta_timing, fresh_timing,
            "{} point {index}",
            workload.name
        );
        assert_eq!(delta_power, fresh_power, "{} point {index}", workload.name);
    }
}

fn bench_incremental_throughput(criterion: &mut Criterion) {
    let tech = TechLibrary::lcbg10pv_like();
    let workloads = [wallace_workload(), conventional_iir_workload(&tech)];
    for workload in &workloads {
        verify_bit_identity(workload, &tech);
    }
    let mut group = criterion.benchmark_group("incremental_throughput");
    group.sample_size(20);
    for workload in &workloads {
        group.bench_function(format!("full_{}", workload.name), |bencher| {
            bencher.iter(|| {
                for (arrivals, probabilities) in &workload.points {
                    black_box(full_point(
                        &workload.netlist,
                        &tech,
                        arrivals,
                        probabilities,
                    ));
                }
            })
        });
        let mut harness = DeltaHarness::new(&workload.netlist, &tech);
        let (arrivals0, probabilities0) = &workload.points[0];
        harness.point(arrivals0, probabilities0);
        group.bench_function(format!("delta_{}", workload.name), |bencher| {
            bencher.iter(|| {
                for (arrivals, probabilities) in &workload.points {
                    black_box(harness.point(arrivals, probabilities));
                }
            })
        });
    }
    group.finish();

    speedup_gate(&workloads, &tech);
}

/// Alternating timing windows per path and workload.
const WINDOWS: usize = 15;
/// Minimum length of one timing window, in milliseconds.
const WINDOW_MS: u128 = 40;

/// Points/sec of `sweep` (one pass over `points` sweep points), repeated for at
/// least one window.
fn window_points_per_sec(points: usize, mut sweep: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut swept = 0usize;
    while start.elapsed().as_millis() < WINDOW_MS {
        sweep();
        swept += points;
    }
    swept as f64 / start.elapsed().as_secs_f64()
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Times both paths in alternating windows, prints the `BENCH_incremental.json`
/// record, and enforces each workload's per-point speedup floor (≥ 3× on the
/// explorer-style skew sweep, ≥ 1.8× on the adversarial full-skew sweep) on the
/// ratio of the two paths' median window rates.
fn speedup_gate(workloads: &[Workload], tech: &TechLibrary) {
    for workload in workloads {
        let points = workload.points.len();
        let mut harness = DeltaHarness::new(&workload.netlist, tech);
        let (arrivals0, probabilities0) = &workload.points[0];
        harness.point(arrivals0, probabilities0);
        let mut full_rates = Vec::with_capacity(WINDOWS);
        let mut delta_rates = Vec::with_capacity(WINDOWS);
        for _ in 0..WINDOWS {
            full_rates.push(window_points_per_sec(points, || {
                for (arrivals, probabilities) in &workload.points {
                    black_box(full_point(&workload.netlist, tech, arrivals, probabilities));
                }
            }));
            delta_rates.push(window_points_per_sec(points, || {
                for (arrivals, probabilities) in &workload.points {
                    black_box(harness.point(arrivals, probabilities));
                }
            }));
        }
        let full_pps = median(full_rates);
        let delta_pps = median(delta_rates);

        let speedup = delta_pps / full_pps;
        println!(
            "{{\"workload\": \"{}\", \"cells\": {}, \"nets\": {}, \"sweep_points\": {}, \
             \"windows\": {WINDOWS}, \"full_points_per_sec\": {:.0}, \
             \"delta_points_per_sec\": {:.0}, \"speedup\": {:.1}, \"floor\": {:.1}}}",
            workload.name,
            workload.netlist.cell_count(),
            workload.netlist.net_count(),
            points,
            full_pps,
            delta_pps,
            speedup,
            workload.floor
        );
        assert!(
            speedup >= workload.floor,
            "delta re-analysis must be at least {:.1}x faster per point than the \
             full compiled bundle on {} (measured {speedup:.1}x: median {delta_pps:.0} \
             vs {full_pps:.0} points/sec over {WINDOWS} alternating windows)",
            workload.floor,
            workload.name
        );
    }
}

criterion_group!(benches, bench_incremental_throughput);
criterion_main!(benches);
