//! Property-based differential fuzzing of the RV32 frontend: randomly
//! generated, guaranteed-terminating RV32I(+M) programs must survive the
//! full differential check — identical committed uop traces and identical
//! final architectural state between the pipeline and the functional
//! oracle — under every scheduler kind.
//!
//! The generator mirrors `tests/random_programs.rs` for the native ISA:
//! a counted loop wraps a random body of ALU/immediate/memory/multiply
//! work plus bounded forward skip-branches, so every program halts.

use proptest::prelude::*;

use mopsched::rv::{self, RvInst, RvOp, RvProgram};

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
    ]
}

/// A random, always-terminating RV32 program: seed registers, a counted
/// loop around the body (skip branches only jump forward inside it), and
/// an `ebreak`.
fn program_strategy() -> impl Strategy<Value = RvProgram> {
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// The full differential check (trace equality + state replay) passes
    /// on random programs under every scheduler kind.
    #[test]
    fn random_programs_pass_the_differential_check(prog in program_strategy()) {
        for sched in rv::SCHED_KINDS {
            let cfg = rv::config_for(sched).expect("known scheduler");
            rv::run_differential(&prog, sched, cfg, 2_000_000)
                .unwrap_or_else(|e| panic!("{sched}: {e}"));
        }
    }

    /// Random programs survive an encode→decode round-trip and the decoded
    /// form still passes the differential check.
    #[test]
    fn random_programs_roundtrip_through_the_encoder(prog in program_strategy()) {
        let bytes = rv::encode_program(&prog);
        let decoded = rv::decode_flat("rv-random-bin", &bytes).expect("decodes");
        prop_assert_eq!(decoded.insts.len(), prog.insts.len());
        let cfg = rv::config_for("mop-wor").expect("known scheduler");
        rv::run_differential(&decoded, "mop-wor", cfg, 2_000_000)
            .unwrap_or_else(|e| panic!("decoded: {e}"));
    }
}
