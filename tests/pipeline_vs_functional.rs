//! Cross-crate integration: the timing pipeline must commit exactly the
//! instruction stream the functional machine executes — for every kernel,
//! every RV32 program and every scheduler — and must be deterministic.
//! The RV32 functional machine is the interpreter behind `RvTraceSource`;
//! small native programs run on the native interpreter.

use mopsched::asm::Interpreter;
use mopsched::core::WakeupStyle;
use mopsched::isa::{InstClass, Opcode, Program, Reg, StaticInst as I};
use mopsched::rv::{self, suite};
use mopsched::sim::{MachineConfig, Simulator};

fn all_schedulers() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("base", MachineConfig::base_32()),
        ("two-cycle", MachineConfig::two_cycle_32()),
        ("mop-2src", MachineConfig::macro_op(WakeupStyle::CamTwoSource, Some(32), 0)),
        ("mop-wor+1", MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1)),
        ("mop-wor+2", MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 2)),
        ("sf-squash", MachineConfig::select_free_squash_dep_32()),
        ("sf-scoreboard", MachineConfig::select_free_scoreboard_32()),
    ]
}

fn functional_commits(program: &Program) -> u64 {
    let (trace, _) = Interpreter::new(program).run_collect(usize::MAX);
    trace
        .iter()
        .filter(|d| program.inst(d.sidx).expect("valid").class() != InstClass::Nop)
        .count() as u64
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
        let lowered = rv::lower(&prog).expect("suite program lowers");
        let mut interp = rv::RvInterp::new(&prog);
        let steps = interp.run_collect(10_000_000);
        assert!(interp.stopped_cleanly(), "{}: oracle must halt", p.name);
        let expected: u64 = steps
            .iter()
            .map(|s| {
                lowered
                    .bundle(s.idx)
                    .filter(|&u| {
                        let class = lowered.program.inst(u).expect("valid uop").class();
                        class != InstClass::Nop
                    })
                    .count() as u64
            })
            .sum();
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
    // branches: macro-op mode must commit the same count and the
    // program's functional result must hold regardless.
    let r = Reg::int;
    let program = Program::from_insts(
        "chain",
        [
            I::li(r(1), 200),
            I::li(r(2), 0),
            I::li(r(3), 0x9000),
            I::addi(r(4), r(1), 3), // 3: loop
            I::sub(r(5), r(4), r(1)),
            I::store(r(5), 0, r(3)),
            I::load(r(6), 0, r(3)),
            I::add(r(2), r(2), r(6)),
            I::addi(r(3), r(3), 8),
            I::addi(r(1), r(1), -1),
            I::branch(Opcode::Bnez, r(1), 3),
            I::mov(r(10), r(2)),
            I::halt(),
        ],
    );
    let (_, state) = Interpreter::new(&program).run_collect(1_000_000);
    assert_eq!(state.int_reg(r(10)), 600, "3 * 200");

    let expected = functional_commits(&program);
    let mop = Simulator::new(
        MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 0),
        Interpreter::new(&program),
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
    let r1 = Reg::int(1);
    for insts in [
        vec![I::halt()],
        vec![I::nop(), I::halt()],
        vec![I::li(r1, 1), I::halt()],
        vec![I::jmp(2), I::nop(), I::halt()],
        // Loop executed zero times.
        vec![I::li(r1, 0), I::branch(Opcode::Beqz, r1, 3), I::nop(), I::halt()],
        // No halt: the program runs off the end of its code.
        vec![I::li(r1, 1), I::li(Reg::int(2), 2)],
    ] {
        let program = Program::from_insts("tiny", insts);
        let expected = functional_commits(&program);
        for (label, cfg) in all_schedulers() {
            let stats = Simulator::new(cfg, Interpreter::new(&program)).run(u64::MAX);
            assert_eq!(stats.committed, expected, "{label} on:\n{program}");
        }
    }
}
