//! A generator of random RV32I(+M) programs that always terminate: a
//! counted loop wraps a random body of ALU, immediate, memory and
//! multiply/divide work, `fence` no-ops (which the decoder drops, so
//! formation meets gaps in the uop stream) and bounded forward skip
//! branches, and an `ebreak` follows the loop. The RV property suites
//! check these programs against the functional oracle under every
//! scheduler and under [`off_preset_configs`].

use mos_core::{CycleDetection, WakeupStyle};
use mos_rv::{RvInst, RvOp, RvProgram};
use mos_sim::MachineConfig;
use proptest::prelude::*;

/// Macro-op configurations beyond the seven presets, by report label:
/// chains of three and four (the formation chain-safety rule must keep
/// them deadlock-free on arbitrary dataflow), precise in-window cycle
/// detection (the ablation arm), and a 16-entry queue that installs
/// pointers with no detection delay.
pub fn off_preset_configs() -> [(&'static str, MachineConfig); 4] {
    let wired_or = |queue, delay| MachineConfig::macro_op(WakeupStyle::WiredOr, Some(queue), delay);
    let mut chain3 = wired_or(32, 1);
    chain3.sched.mop.max_mop_size = 3;
    let mut chain4 = wired_or(32, 1);
    chain4.sched.mop.max_mop_size = 4;
    let mut precise = wired_or(32, 0);
    precise.sched.mop.cycle_detection = CycleDetection::Precise;
    [
        ("mop-wor chain 3", chain3),
        ("mop-wor chain 4", chain4),
        ("mop-wor precise", precise),
        ("mop-wor-16", wired_or(16, 0)),
    ]
}

/// One random instruction inside the loop body.
#[derive(Debug, Clone)]
enum BodyOp {
    Alu { op: u8, rd: u8, rs1: u8, rs2: u8 },
    AluImm { op: u8, rd: u8, rs1: u8, imm: i32 },
    Load { op: u8, rd: u8, off: i32 },
    Store { op: u8, rs2: u8, off: i32 },
    Mul { op: u8, rd: u8, rs1: u8, rs2: u8 },
    Skip { op: u8, rs1: u8, dist: u8 },
    Lui { rd: u8, imm: i32 },
    Fence,
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    // x5..x12 (t0..t2, s0/fp, s1, a0..a2) participate; x28 holds the
    // memory base and x29 the trip counter, neither ever written by the
    // body.
    let r = 5u8..13;
    prop_oneof![
        (0u8..8, r.clone(), r.clone(), r.clone()).prop_map(|(op, rd, rs1, rs2)| BodyOp::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (0u8..6, r.clone(), r.clone(), 0i32..64).prop_map(|(op, rd, rs1, imm)| BodyOp::AluImm {
            op,
            rd,
            rs1,
            imm
        }),
        (0u8..3, r.clone(), 0i32..16).prop_map(|(op, rd, off)| BodyOp::Load {
            op,
            rd,
            off: off * 4
        }),
        (0u8..3, r.clone(), 0i32..16).prop_map(|(op, rs2, off)| BodyOp::Store {
            op,
            rs2,
            off: off * 4
        }),
        (0u8..4, r.clone(), r.clone(), r.clone()).prop_map(|(op, rd, rs1, rs2)| BodyOp::Mul {
            op,
            rd,
            rs1,
            rs2
        }),
        (0u8..4, r.clone(), 1u8..4).prop_map(|(op, rs1, dist)| BodyOp::Skip { op, rs1, dist }),
        (r, 0i32..256).prop_map(|(rd, imm)| BodyOp::Lui { rd, imm }),
        Just(BodyOp::Fence),
    ]
}

/// A random, always-terminating RV32 program: seed registers, a counted
/// loop around the body (skip branches only jump forward inside it), and
/// an `ebreak`.
pub fn program_strategy() -> impl Strategy<Value = RvProgram> {
    (2u32..16, prop::collection::vec(body_op(), 1..20)).prop_map(|(trips, body)| {
        let alu3 = [
            RvOp::Add,
            RvOp::Sub,
            RvOp::And,
            RvOp::Or,
            RvOp::Xor,
            RvOp::Slt,
            RvOp::Sltu,
            RvOp::Sll,
        ];
        let alui = [
            RvOp::Addi,
            RvOp::Andi,
            RvOp::Ori,
            RvOp::Xori,
            RvOp::Slti,
            RvOp::Srli,
        ];
        let loads = [RvOp::Lw, RvOp::Lh, RvOp::Lbu];
        let stores = [RvOp::Sw, RvOp::Sh, RvOp::Sb];
        let muls = [RvOp::Mul, RvOp::Mulhu, RvOp::Div, RvOp::Rem];
        let skips = [RvOp::Beq, RvOp::Bne, RvOp::Blt, RvOp::Bgeu];

        let mut p = RvProgram::new("rv-random");
        p.insts.push(RvInst::i(RvOp::Addi, 29, 0, trips as i32)); // counter
        p.insts.push(RvInst::u(RvOp::Lui, 28, 2)); // mem base 0x2000
        for k in 5..13u8 {
            p.insts.push(RvInst::i(RvOp::Addi, k, 0, i32::from(k)));
        }
        let top = p.insts.len() as u32;
        let body_start = top;
        let body_len = body.len() as u32;
        for (i, op) in body.iter().enumerate() {
            let inst = match *op {
                BodyOp::Alu { op, rd, rs1, rs2 } => {
                    RvInst::r(alu3[op as usize % alu3.len()], rd, rs1, rs2)
                }
                BodyOp::AluImm { op, rd, rs1, imm } => {
                    RvInst::i(alui[op as usize % alui.len()], rd, rs1, imm)
                }
                BodyOp::Load { op, rd, off } => {
                    RvInst::load(loads[op as usize % loads.len()], rd, off, 28)
                }
                BodyOp::Store { op, rs2, off } => {
                    RvInst::store(stores[op as usize % stores.len()], rs2, off, 28)
                }
                BodyOp::Mul { op, rd, rs1, rs2 } => {
                    RvInst::r(muls[op as usize % muls.len()], rd, rs1, rs2)
                }
                BodyOp::Skip { op, rs1, dist } => {
                    let here = body_start + i as u32;
                    let target = (here + 1 + u32::from(dist)).min(body_start + body_len);
                    RvInst::branch(
                        skips[op as usize % skips.len()],
                        rs1,
                        0,
                        (target as i32 - here as i32) * 4,
                    )
                }
                BodyOp::Lui { rd, imm } => RvInst::u(RvOp::Lui, rd, imm),
                BodyOp::Fence => RvInst::sys(RvOp::Fence),
            };
            p.insts.push(inst);
        }
        // Decrement and loop.
        let here = p.insts.len() as u32 + 1;
        p.insts.push(RvInst::i(RvOp::Addi, 29, 29, -1));
        p.insts.push(RvInst::branch(
            RvOp::Bne,
            29,
            0,
            (top as i32 - here as i32) * 4,
        ));
        p.insts.push(RvInst::sys(RvOp::Ebreak));
        p
    })
}
