//! Cross-crate integration: the timing pipeline must commit exactly the
//! instruction stream the functional machine executes — for every kernel,
//! every RV32 program and every scheduler — and must be deterministic.
//! The functional machine is the RV32 interpreter behind `RvTraceSource`.

use mopsched::core::WakeupStyle;
use mopsched::rv::{self, suite};
use mopsched::sim::{MachineConfig, Simulator};

fn all_schedulers() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("base", MachineConfig::base_32()),
        ("two-cycle", MachineConfig::two_cycle_32()),
        (
            "mop-2src",
            MachineConfig::macro_op(WakeupStyle::CamTwoSource, Some(32), 0),
        ),
        (
            "mop-wor+1",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
        ),
        (
            "mop-wor+2",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 2),
        ),
        ("sf-squash", MachineConfig::select_free_squash_dep_32()),
        ("sf-scoreboard", MachineConfig::select_free_scoreboard_32()),
    ]
}

/// The uops the pipeline must commit for `prog`: the RV32 oracle's
/// retired instructions expanded through the lowering, minus the nops the
/// decoder filters and the halts that never retire. Returns the count and
/// the finished oracle, which need not have halted cleanly.
fn oracle_commits(prog: &rv::RvProgram) -> (u64, rv::RvInterp<'_>) {
    let lowered = rv::lower(prog).expect("program lowers");
    let mut interp = rv::RvInterp::new(prog);
    let expected = interp
        .run_collect(10_000_000)
        .iter()
        .flat_map(|s| lowered.bundle(s.idx))
        .filter(|&u| lowered.commits(u))
        .count() as u64;
    (expected, interp)
}

fn assemble(src: &str) -> rv::RvProgram {
    rv::assemble("t", src).expect("program assembles")
}

fn rv_trace(name: &str) -> rv::RvTraceSource {
    let prog = suite::by_name(name).expect("suite program").assemble();
    rv::RvTraceSource::new(&prog).expect("suite program lowers")
}

/// The commit-exactness contract on the RV32 path: the pipeline must
/// commit exactly the uop stream the RV32 oracle's lowering expands to,
/// for every given program and every scheduler (this file's scheduler
/// list, which includes off-preset variants like `mop-wor+2`), at a
/// plausible IPC.
fn assert_commits_identically_under_every_scheduler(programs: &[suite::RvTestProgram]) {
    for p in programs {
        let prog = p.assemble();
        let (expected, interp) = oracle_commits(&prog);
        assert!(interp.stopped_cleanly(), "{}: oracle must halt", p.name);
        for (label, cfg) in all_schedulers() {
            let trace = rv::RvTraceSource::new(&prog).expect("lowers");
            let stats = Simulator::new(cfg, trace).run(u64::MAX);
            assert_eq!(
                stats.committed, expected,
                "{}/{label}: committed {} != functional {}",
                p.name, stats.committed, expected
            );
            assert!(
                stats.ipc() > 0.05 && stats.ipc() < 4.0,
                "{}/{label}: ipc {:.3}",
                p.name,
                stats.ipc()
            );
        }
    }
}

/// The workload kernels (RV32 sources under `tests/programs/kernels/`).
#[test]
fn every_kernel_commits_identically_under_every_scheduler() {
    assert_commits_identically_under_every_scheduler(&suite::KERNELS);
}

/// The RV32 suite programs.
#[test]
fn every_rv_program_commits_identically_under_every_scheduler() {
    assert_commits_identically_under_every_scheduler(&suite::PROGRAMS);
}

/// Bubble sort's data-dependent compares mispredict, so wrong paths are
/// really fetched and squashed, and its swaps are reloaded on the next
/// inner iteration while the stores are still in flight.
#[test]
fn bubble_sort_squashes_wrong_paths_and_forwards_from_stores() {
    let s = Simulator::new(MachineConfig::base_32(), rv_trace("bubble_sort")).run(u64::MAX);
    assert!(s.mispredicts > 0, "data-dependent branches must mispredict");
    assert!(s.squashes > 0);
    assert!(s.wrong_path_fetched > 0, "wrong path is really fetched");
    assert!(s.load_forwards > 0, "swap/reload pattern must forward");
}

#[test]
fn runs_are_deterministic() {
    let cfg = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1);
    let a = Simulator::new(cfg.clone(), rv_trace("dot_product")).run(u64::MAX);
    let b = Simulator::new(cfg, rv_trace("dot_product")).run(u64::MAX);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.roles, b.roles);
    assert_eq!(a.mop_entries_issued, b.mop_entries_issued);
}

#[test]
fn fused_pairs_do_not_change_architectural_behaviour() {
    // A dense chain of groupable single-cycle ops around memory and
    // branches, with a no-op (`fence`, which the decoder drops) inside
    // the chain: macro-op mode must commit the same count and the
    // program's functional result must hold regardless.
    let prog = assemble(
        "    li   t0, 200
             li   a0, 0
             li   t1, 0x9000
         loop:
             addi t2, t0, 3
             sub  t3, t2, t0
             fence
             sw   t3, 0(t1)
             lw   t4, 0(t1)
             add  a0, a0, t4
             addi t1, t1, 8
             addi t0, t0, -1
             bnez t0, loop
             ebreak",
    );
    let (expected, interp) = oracle_commits(&prog);
    assert_eq!(interp.state().reg(10), 600, "a0 = 3 * 200");

    let mop = Simulator::new(
        MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 0),
        rv::RvTraceSource::new(&prog).expect("lowers"),
    )
    .run(u64::MAX);
    assert_eq!(mop.committed, expected);
    assert!(
        mop.grouped_frac() > 0.3,
        "chain program should group heavily: {:.2}",
        mop.grouped_frac()
    );
}

#[test]
fn tiny_and_degenerate_programs_drain_cleanly() {
    for src in [
        // `fence` lowers to a no-op, which the decoder drops (RV's
        // `nop` is `addi x0, x0, 0`, an ALU uop that commits).
        "ebreak",
        "fence\nebreak",
        "li a0, 1\nebreak",
        "j over\nfence\nover: ebreak",
        // Loop executed zero times.
        "li t0, 0\nbeqz t0, done\nfence\ndone: ebreak",
        // No ebreak: the program runs off the end of its code.
        "li a0, 1\nli a1, 2",
        // In the loop's last trip the `lui` heads a macro-op whose tail,
        // the `beq` at the loop top, never comes: the exit is predicted,
        // so no wrong-path group follows to expire the pending head, and
        // the correct path ends. The fences only place the fetch groups.
        "    li   t4, 2
             fence
             li   t0, 5
             fence
             fence
             fence
             fence
             fence
             li   a1, 11
             fence
         loop:
             fence
             beq  a1, zero, mid
             fence
             fence
         mid:
             beq  t0, zero, end
             fence
             bne  s0, zero, end
             fence
         end:
             fence
             fence
             fence
             fence
             lui  a1, 0xcf
             addi t4, t4, -1
             bnez t4, loop
             ebreak",
    ] {
        let prog = assemble(src);
        let (expected, _) = oracle_commits(&prog);
        for (label, cfg) in all_schedulers() {
            let trace = rv::RvTraceSource::new(&prog).expect("lowers");
            let stats = Simulator::new(cfg, trace).run(u64::MAX);
            assert_eq!(stats.committed, expected, "{label} on:\n{src}");
        }
    }
}
