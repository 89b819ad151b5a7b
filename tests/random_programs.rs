//! Property-based integration tests: randomly generated (but guaranteed-
//! terminating) programs must run identically through the functional
//! machine and every timing-scheduler configuration — no deadlocks, no
//! lost or duplicated commits, regardless of how macro-ops were fused,
//! replayed or squashed along the way.

use proptest::prelude::*;

use mopsched::asm::Interpreter;
use mopsched::core::WakeupStyle;
use mopsched::isa::{InstClass, Opcode, Program, Reg, StaticInst};
use mopsched::sim::MachineConfig;
use mos_testutil::run_traced;

/// One random instruction inside a loop body.
#[derive(Debug, Clone)]
enum BodyOp {
    Alu { op: u8, dst: u8, a: u8, b: u8 },
    AluImm { op: u8, dst: u8, a: u8, imm: i64 },
    Load { dst: u8, base: u8, off: i64 },
    Store { val: u8, base: u8, off: i64 },
    Mul { dst: u8, a: u8, b: u8 },
    Skip { cond: u8, dist: u8 },
    Nop,
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    // Registers r1..r8 participate; r20 is the memory base.
    let r = 1u8..9;
    prop_oneof![
        (0u8..5, r.clone(), r.clone(), r.clone()).prop_map(|(op, dst, a, b)| BodyOp::Alu {
            op,
            dst,
            a,
            b
        }),
        (0u8..4, r.clone(), r.clone(), 1i64..32).prop_map(|(op, dst, a, imm)| BodyOp::AluImm {
            op,
            dst,
            a,
            imm
        }),
        (r.clone(), 0i64..16).prop_map(|(dst, off)| BodyOp::Load {
            dst,
            base: 20,
            off: off * 8
        }),
        (r.clone(), 0i64..16).prop_map(|(val, off)| BodyOp::Store {
            val,
            base: 20,
            off: off * 8
        }),
        (r.clone(), r.clone(), r.clone()).prop_map(|(dst, a, b)| BodyOp::Mul { dst, a, b }),
        (r, 1u8..4).prop_map(|(cond, dist)| BodyOp::Skip { cond, dist }),
        Just(BodyOp::Nop),
    ]
}

/// A random, always-terminating program: a counted loop around a random
/// body (skip branches only jump forward inside the body).
fn program_strategy() -> impl Strategy<Value = Program> {
    (2u32..20, prop::collection::vec(body_op(), 1..24)).prop_map(|(trips, body)| {
        let mut p = Program::new("random");
        let alu3 = [
            Opcode::Add,
            Opcode::Sub,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
        ];
        let alui = [Opcode::Addi, Opcode::Subi, Opcode::Andi, Opcode::Slli];
        p.push(StaticInst::li(Reg::int(9), i64::from(trips))); // counter
        p.push(StaticInst::li(Reg::int(20), 0x8000)); // memory base
        for k in 1..9u8 {
            p.push(StaticInst::li(Reg::int(k), i64::from(k)));
        }
        let top = p.len() as u32;
        let body_start = top;
        let body_len = body.len() as u32;
        for (i, op) in body.iter().enumerate() {
            match *op {
                BodyOp::Alu { op, dst, a, b } => {
                    p.push(StaticInst::alu(
                        alu3[op as usize % alu3.len()],
                        Reg::int(dst),
                        Reg::int(a),
                        Reg::int(b),
                    ));
                }
                BodyOp::AluImm { op, dst, a, imm } => {
                    p.push(StaticInst::alui(
                        alui[op as usize % alui.len()],
                        Reg::int(dst),
                        Reg::int(a),
                        imm,
                    ));
                }
                BodyOp::Load { dst, base, off } => {
                    p.push(StaticInst::load(Reg::int(dst), off, Reg::int(base)));
                }
                BodyOp::Store { val, base, off } => {
                    p.push(StaticInst::store(Reg::int(val), off, Reg::int(base)));
                }
                BodyOp::Mul { dst, a, b } => {
                    p.push(StaticInst::alu(
                        Opcode::Mul,
                        Reg::int(dst),
                        Reg::int(a),
                        Reg::int(b),
                    ));
                }
                BodyOp::Skip { cond, dist } => {
                    let here = body_start + i as u32;
                    let target = (here + 1 + u32::from(dist)).min(body_start + body_len);
                    p.push(StaticInst::branch(Opcode::Bnez, Reg::int(cond), target));
                }
                BodyOp::Nop => {
                    p.push(StaticInst::nop());
                }
            }
        }
        // Decrement and loop.
        p.push(StaticInst::addi(Reg::int(9), Reg::int(9), -1));
        p.push(StaticInst::branch(Opcode::Bnez, Reg::int(9), top));
        p.push(StaticInst::halt());
        p.validate()
            .expect("generated program is structurally valid");
        p
    })
}

fn functional_commits(program: &Program) -> (u64, i64) {
    let mut interp = Interpreter::new(program);
    let n = interp
        .by_ref()
        .filter(|d| program.inst(d.sidx).expect("valid").class() != InstClass::Nop)
        .count() as u64;
    assert!(interp.stopped_cleanly(), "random program must halt");
    (n, interp.state().int_reg(Reg::int(1)))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// The timing pipeline never deadlocks, loses or duplicates commits on
    /// random programs, under every scheduler.
    #[test]
    fn schedulers_commit_the_functional_stream(program in program_strategy()) {
        let (expected, _) = functional_commits(&program);
        for (name, cfg) in [
            ("base", MachineConfig::base_32()),
            ("2cycle", MachineConfig::two_cycle_32()),
            ("mop-2src", MachineConfig::macro_op(WakeupStyle::CamTwoSource, Some(32), 1)),
            ("mop-wor-16", MachineConfig::macro_op(WakeupStyle::WiredOr, Some(16), 0)),
            ("sf-scoreboard", MachineConfig::select_free_scoreboard_32()),
        ] {
            // A mismatch fails with the trailing event window, not a bare
            // stats diff: the excerpt shows where the machine wedged.
            run_traced(cfg, Interpreter::new(&program), u64::MAX, 256)
                .assert_committed(expected, name);
        }
    }

    /// Macro-op chains (future-work sizes) are deadlock-free too: the
    /// chain-safety rule in formation must hold for arbitrary dataflow.
    #[test]
    fn mop_chains_never_deadlock(program in program_strategy()) {
        let (expected, _) = functional_commits(&program);
        for size in [3usize, 4] {
            let mut cfg = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1);
            cfg.sched.mop.max_mop_size = size;
            run_traced(cfg, Interpreter::new(&program), u64::MAX, 256)
                .assert_committed(expected, &format!("mop chain size {size}"));
        }
    }

    /// The cycle-detection ablation arm (precise in-window detection) is
    /// also deadlock-free and commit-exact.
    #[test]
    fn precise_cycle_detection_is_safe(program in program_strategy()) {
        let (expected, _) = functional_commits(&program);
        let mut cfg = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 0);
        cfg.sched.mop.cycle_detection = mopsched::core::CycleDetection::Precise;
        run_traced(cfg, Interpreter::new(&program), u64::MAX, 256)
            .assert_committed(expected, "precise cycle detection");
    }
}
