//! Bit-identity wall for the `fa_anneal` local search. After **every** settled
//! proposal the program the annealer carries — patched in place or recompiled —
//! must equal a from-scratch `compile()` of the current netlist. At every
//! checkpoint of the move loop, a full timing/power/area analysis of that program
//! must also agree **bit for bit** with the annealer's live `DeltaState` view —
//! the reports its `rerun_delta` scoring carries between proposals.
//!
//! The observer hook fires after every *settled* proposal, so the checkpoints
//! deliberately include adversarial states: moves that were scored, rejected and
//! rolled back without compiling (the rollback must land the program and the live
//! view exactly back on the pre-move bits), and long accepted/rejected
//! interleavings.

use dpsyn_baselines::{fa_anneal_observed, input_profiles, Flow};
use dpsyn_ir::{parse_expr, Expr, InputSpec};
use dpsyn_power::ProbabilityAnalysis;
use dpsyn_tech::TechLibrary;
use dpsyn_timing::TimingAnalysis;

/// Checkpoint cadence of the full-analysis cross-check: every `CHECK_EVERY`-th
/// settled proposal, plus the first `CHECK_FIRST_REJECTED` rollbacks
/// unconditionally. The carried program is compared on every proposal.
const CHECK_EVERY: u64 = 16;
const CHECK_FIRST_REJECTED: u64 = 8;

/// The skewed-profile polynomial the baselines unit suite uses.
fn poly() -> (Expr, InputSpec, u32) {
    (
        parse_expr("a*b + c + 7").expect("fixed expression parses"),
        InputSpec::builder()
            .var_with_arrival("a", 4, 1.0)
            .var_with_probability("b", 4, 0.85)
            .var_with_probability("c", 4, 0.1)
            .build()
            .expect("fixed spec builds"),
        9,
    )
}

/// Runs one observed search over `(expr, spec, width, seed)` and cross-checks the
/// live view against from-scratch analyses at every checkpoint.
fn check_search(expr: &Expr, spec: &InputSpec, width: u32, seed: u64, label: &str) {
    let tech = TechLibrary::lcbg10pv_like();
    // The move loop never touches the input words, so the final word map (and
    // therefore the input profiles) equals the start's; a plain run recovers it.
    let reference = Flow::FaAnneal(seed)
        .run(expr, spec, width, &tech)
        .expect("reference run succeeds");
    let (arrivals, probabilities) = input_profiles(&reference.word_map, spec);

    let mut checked = 0u64;
    let mut checked_rejected = 0u64;
    let mut saw_rejected = 0u64;
    let (result, stats) = fa_anneal_observed(expr, spec, width, &tech, seed, |step| {
        // The carried program is exactly what compiling the carried netlist gives.
        let fresh_compiled = step.netlist.compile().expect("settled netlist is acyclic");
        assert_eq!(
            *step.compiled, fresh_compiled,
            "{label}: carried program diverged at proposal {} (accepted: {})",
            step.stats.proposals, step.accepted
        );
        if !step.accepted {
            saw_rejected += 1;
        }
        let due = step.stats.proposals % CHECK_EVERY == 0
            || (!step.accepted && saw_rejected <= CHECK_FIRST_REJECTED);
        if !due {
            return;
        }
        checked += 1;
        if !step.accepted {
            checked_rejected += 1;
        }
        // Whole-report bit-identity against from-scratch analyses, not just the
        // headline figures: arrivals and probabilities of every net included.
        let fresh_timing = TimingAnalysis::new(&tech)
            .with_input_arrivals(arrivals.clone())
            .run_compiled(&fresh_compiled)
            .expect("from-scratch timing");
        let fresh_power = ProbabilityAnalysis::new(&tech)
            .with_input_probabilities(probabilities.clone())
            .run_compiled(&fresh_compiled)
            .expect("from-scratch power");
        assert_eq!(
            *step.timing, fresh_timing,
            "{label}: live timing diverged at proposal {} (accepted: {})",
            step.stats.proposals, step.accepted
        );
        assert_eq!(
            *step.power, fresh_power,
            "{label}: live power diverged at proposal {} (accepted: {})",
            step.stats.proposals, step.accepted
        );
        assert_eq!(
            tech.compiled_area(step.compiled).to_bits(),
            tech.compiled_area(&fresh_compiled).to_bits(),
            "{label}: area diverged at proposal {}",
            step.stats.proposals
        );
    })
    .expect("observed run succeeds");

    assert!(
        stats.proposals > 0,
        "{label}: the search never scored a move ({stats:?})"
    );
    assert!(
        checked > 0,
        "{label}: no checkpoint fired over {} proposals",
        stats.proposals
    );
    if stats.rejected > 0 {
        assert!(
            checked_rejected > 0,
            "{label}: rejected-then-rolled-back states were never cross-checked \
             ({stats:?})"
        );
    }
    assert_eq!(
        stats.patched + stats.recompiled,
        stats.proposals,
        "{label}: every proposal is either patched or recompiled ({stats:?})"
    );
    // The observed run retraces the reference run move for move.
    assert_eq!(
        result.netlist.to_verilog(),
        reference.netlist.to_verilog(),
        "{label}: observer changed the trajectory"
    );
}

#[test]
fn live_view_matches_from_scratch_analysis_on_the_polynomial() {
    let (expr, spec, width) = poly();
    // Two seeds: different trajectories, different accept/reject interleavings.
    for seed in [3, 17] {
        check_search(&expr, &spec, width, seed, "poly");
    }
}

#[test]
fn live_view_matches_from_scratch_analysis_on_table_designs() {
    // `kalman` is the 1k-cell Table-2 design.
    for design in [
        dpsyn_designs::iir(),
        dpsyn_designs::x2_x_y(),
        dpsyn_designs::kalman(),
    ] {
        check_search(
            design.expr(),
            design.spec(),
            design.output_width(),
            1,
            design.name(),
        );
    }
}

#[test]
fn rollbacks_restore_the_live_view_exactly() {
    // A rejected proposal must leave no trace: the live reports after the
    // rollback carry the same bits as before the move. Compare each rejected
    // step's view against the most recent settled (or primed) view.
    let (expr, spec, width) = poly();
    let tech = TechLibrary::lcbg10pv_like();
    let mut last_delay: Option<u64> = None;
    let mut last_energy: Option<u64> = None;
    let mut rejected_checked = 0u64;
    let (_, stats) = fa_anneal_observed(&expr, &spec, width, &tech, 3, |step| {
        let delay = step.timing.critical_delay().to_bits();
        let energy = step.power.total_energy().to_bits();
        if !step.accepted {
            if let (Some(previous_delay), Some(previous_energy)) = (last_delay, last_energy) {
                assert_eq!(delay, previous_delay, "rollback shifted the delay bits");
                assert_eq!(energy, previous_energy, "rollback shifted the energy bits");
                rejected_checked += 1;
            }
        }
        last_delay = Some(delay);
        last_energy = Some(energy);
    })
    .expect("observed run succeeds");
    assert!(
        stats.rejected == 0 || rejected_checked > 0,
        "no rollback was cross-checked ({stats:?})"
    );
}
