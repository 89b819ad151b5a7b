//! Guard rails on the paper's headline results, exercised through the
//! public facade at a reduced instruction budget. These encode the
//! *shape* claims the reproduction must preserve (EXPERIMENTS.md records
//! the full-scale numbers):
//!
//! 1. 2-cycle scheduling loses IPC, worst on gap (Figure 14);
//! 2. macro-op scheduling recovers most of the loss without queue
//!    contention, and matches/beats base under contention (Figures 14/15);
//! 3. select-free scheduling never beats base and scoreboard recovery is
//!    the weaker variant (Figure 16);
//! 4. grouping coverage sits in the paper's band and eon is lowest
//!    (Figure 13).

use mopsched::core::WakeupStyle;
use mopsched::sim::{MachineConfig, Simulator};
use mopsched::workload::spec2000;

const INSTS: u64 = 25_000;

fn ipc(bench: &str, cfg: MachineConfig) -> f64 {
    let spec = spec2000::by_name(bench).expect("known benchmark");
    Simulator::new(cfg, spec.trace(42)).run(INSTS).ipc()
}

#[test]
fn two_cycle_loses_and_gap_is_the_worst_case() {
    let gap_base = ipc("gap", MachineConfig::base_unrestricted());
    let gap_two = ipc("gap", MachineConfig::two_cycle_unrestricted());
    let gap_rel = gap_two / gap_base;
    assert!(
        gap_rel < 0.90,
        "gap must lose >10 % under 2-cycle: {gap_rel:.3}"
    );

    let vortex_base = ipc("vortex", MachineConfig::base_unrestricted());
    let vortex_two = ipc("vortex", MachineConfig::two_cycle_unrestricted());
    let vortex_rel = vortex_two / vortex_base;
    assert!(
        vortex_rel > 0.96,
        "vortex barely suffers (paper: -1.3 %): {vortex_rel:.3}"
    );
    assert!(gap_rel < vortex_rel);
}

#[test]
fn macro_op_recovers_most_of_the_two_cycle_loss() {
    for bench in ["gap", "gzip", "parser"] {
        let base = ipc(bench, MachineConfig::base_unrestricted());
        let two = ipc(bench, MachineConfig::two_cycle_unrestricted());
        let mop = ipc(
            bench,
            MachineConfig::macro_op(WakeupStyle::WiredOr, None, 0),
        );
        let recovered = (mop - two) / (base - two).max(1e-9);
        assert!(
            recovered > 0.5,
            "{bench}: MOP should recover >50 % of the loss (got {recovered:.2}; \
             base {base:.3}, 2c {two:.3}, mop {mop:.3})"
        );
    }
}

#[test]
fn contention_makes_macro_op_competitive_with_base() {
    // 32-entry queue: entry sharing closes the remaining gap (Figure 15).
    let mut wins = 0;
    let mut total_rel = 0.0;
    for bench in ["gap", "gzip", "mcf", "twolf"] {
        let base = ipc(bench, MachineConfig::base_32());
        let mop = ipc(
            bench,
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        );
        let rel = mop / base;
        total_rel += rel;
        if rel >= 1.0 {
            wins += 1;
        }
    }
    assert!(
        wins >= 2,
        "several benchmarks outperform base under contention"
    );
    assert!(total_rel / 4.0 > 0.97, "mean {:.3}", total_rel / 4.0);
}

#[test]
fn select_free_ordering_matches_figure16() {
    for bench in ["gap", "twolf"] {
        let base = ipc(bench, MachineConfig::base_32());
        let sd = ipc(bench, MachineConfig::select_free_squash_dep_32());
        let sb = ipc(bench, MachineConfig::select_free_scoreboard_32());
        assert!(
            sd <= base * 1.02,
            "{bench}: squash-dep {sd:.3} vs base {base:.3}"
        );
        assert!(
            sb <= sd * 1.02,
            "{bench}: scoreboard {sb:.3} vs squash-dep {sd:.3}"
        );
    }
}

/// Calibration regression net: for every benchmark model, macro-op
/// scheduling must recover at least what 2-cycle scheduling loses (it is
/// built on the same pipelined logic plus fusion), and no scheduler may
/// produce absurd IPC.
#[test]
fn full_suite_ordering_guard() {
    for name in spec2000::names() {
        let base = ipc(name, MachineConfig::base_unrestricted());
        let two = ipc(name, MachineConfig::two_cycle_unrestricted());
        let mop = ipc(name, MachineConfig::macro_op(WakeupStyle::WiredOr, None, 0));
        assert!(base > 0.05 && base < 4.0, "{name}: base {base:.3}");
        assert!(
            two <= base * 1.02,
            "{name}: 2-cycle {two:.3} cannot beat base {base:.3}"
        );
        assert!(
            mop >= two * 0.97,
            "{name}: macro-op {mop:.3} must not trail 2-cycle {two:.3}"
        );
    }
}

#[test]
fn grouping_band_and_eon_minimum() {
    let spec = |b: &str| {
        let s = spec2000::by_name(b).expect("known");
        Simulator::new(
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
            s.trace(42),
        )
        .run(INSTS)
    };
    let eon = spec("eon").grouped_frac();
    for b in ["gzip", "gap", "parser"] {
        let g = spec(b).grouped_frac();
        assert!(g > 0.3 && g < 0.65, "{b}: grouped {g:.2}");
        assert!(
            eon < g,
            "eon ({eon:.2}) is the paper's lowest-coverage benchmark"
        );
    }
}
