//! End-to-end differential validation of the RV32 frontend: every suite
//! program and kernel, run through every scheduler kind, must commit
//! exactly the uop stream the RV32 functional oracle predicts and
//! reproduce the oracle's final architectural state — plus the CPI-stack
//! shape claim the paper's story rests on (the 2-cycle loop pays a
//! sched_loop tax that macro-op scheduling removes).

use mopsched::core::SlotCause;
use mopsched::rv::{self, suite};
use mopsched::sim::{CpiStack, Simulator};

const MAX_STEPS: usize = 10_000_000;

#[test]
fn every_suite_program_matches_the_oracle_under_every_scheduler() {
    for p in suite::PROGRAMS.iter().chain(&suite::KERNELS) {
        let prog = p.assemble();
        for sched in rv::SCHED_KINDS {
            let cfg = rv::config_for(sched).expect("known scheduler");
            let report = rv::run_differential(&prog, sched, cfg, MAX_STEPS)
                .unwrap_or_else(|e| panic!("{}/{sched}: {e}", p.name));
            assert!(
                report.rv_retired > 0 && report.uops_committed >= report.rv_retired,
                "{}/{sched}: retired {} rv insts but committed {} uops",
                p.name,
                report.rv_retired,
                report.uops_committed
            );
        }
    }
}

#[test]
fn suite_expectations_hold_when_replayed_through_the_pipeline() {
    // run_differential already replays commits through a fresh RvState and
    // compares against the oracle; here we additionally pin the documented
    // per-program results so a semantics bug in *both* paths cannot hide.
    for p in suite::PROGRAMS.iter().chain(&suite::KERNELS) {
        let prog = p.assemble();
        let mut interp = rv::RvInterp::new(&prog);
        interp.run_collect(MAX_STEPS);
        assert!(interp.stopped_cleanly(), "{}: oracle did not halt", p.name);
        for &(reg, want) in p.expect {
            assert_eq!(interp.state().reg(reg), want, "{}: x{reg}", p.name);
        }
    }
}

fn sched_loop_share(prog: &rv::RvProgram, sched: &str) -> f64 {
    let cfg = rv::config_for(sched).expect("known scheduler");
    let width = cfg.sched.issue_width as u64;
    let trace = rv::RvTraceSource::new(prog).expect("lowers");
    let mut sim = Simulator::new(cfg, trace);
    sim.enable_slot_accounting();
    let stats = sim.run(MAX_STEPS as u64);
    let stack = CpiStack::from_stats(&prog.name, sched, width, &stats);
    stack.check_conservation().expect("slots conserve");
    stack.share(SlotCause::SchedLoop)
}

/// The acceptance-criterion ordering: on the dependent-chain program the
/// 2-cycle scheduler's sched_loop share sits strictly above both the
/// atomic baseline and macro-op scheduling (which restores back-to-back
/// issue for grouped pairs), and macro-op formation pairs a large share
/// of its issued entries.
#[test]
fn two_cycle_sched_loop_share_exceeds_base_and_mop_on_sum_loop() {
    let prog = suite::by_name("sum_loop")
        .expect("suite program")
        .assemble();
    let base = sched_loop_share(&prog, "base");
    let two = sched_loop_share(&prog, "2cycle");
    let mop = sched_loop_share(&prog, "mop-wor");
    assert!(
        two > base,
        "2cycle sched_loop share must exceed base: {two:.4} vs {base:.4}"
    );
    assert!(
        two > mop,
        "2cycle sched_loop share must exceed mop-wor: {two:.4} vs {mop:.4}"
    );
    let cfg = rv::config_for("mop-wor").expect("known scheduler");
    let pairs = rv::run_differential(&prog, "mop-wor", cfg, MAX_STEPS).expect("differential");
    assert!(
        pairs.fusion_rate > 0.3,
        "sum_loop pairs heavily under mop-wor: fusion rate {:.4}",
        pairs.fusion_rate
    );
}

/// Differential runs are deterministic: same program, same scheduler, same
/// timing, twice in a row.
#[test]
fn rv_runs_are_deterministic() {
    let prog = suite::by_name("collatz").expect("suite program").assemble();
    let cfg = rv::config_for("mop-wor").expect("known scheduler");
    let a = rv::run_differential(&prog, "mop-wor", cfg.clone(), MAX_STEPS).expect("run a");
    let b = rv::run_differential(&prog, "mop-wor", cfg, MAX_STEPS).expect("run b");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.uops_committed, b.uops_committed);
    assert!((a.fusion_rate - b.fusion_rate).abs() < 1e-12);
}

/// A flat binary round-trips: encode a suite program, decode it back, and
/// the decoded form passes the same differential check.
#[test]
fn encoded_binaries_pass_the_differential_check() {
    let prog = suite::by_name("gcd").expect("suite program").assemble();
    let bytes = rv::encode_program(&prog);
    let decoded = rv::decode_flat("gcd-bin", &bytes).expect("decodes");
    let cfg = rv::config_for("mop-2src").expect("known scheduler");
    let report = rv::run_differential(&decoded, "mop-2src", cfg, MAX_STEPS).expect("differential");
    assert!(report.rv_retired > 0);
}
