//! RV32 machine-code codec: encode an [`RvProgram`] to a flat
//! little-endian binary and decode such a binary back into instructions.
//! This is the loader path for running pre-assembled RISC-V images through
//! the pipeline; [`decode_word`]/[`encode_word`] round-trip exactly for
//! every instruction the frontend supports.

use std::fmt;

use crate::inst::{Format, RvInst, RvProgram, TABLE};

/// Decode failure: the word and its index in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RvDecodeError {
    /// Word index within the binary image.
    pub idx: usize,
    /// The raw 32-bit word.
    pub word: u32,
    what: &'static str,
}

impl fmt::Display for RvDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "word {} ({:#010x}): {}", self.idx, self.word, self.what)
    }
}

impl std::error::Error for RvDecodeError {}

/// Encode one instruction to its 32-bit RV32 word.
pub fn encode_word(inst: &RvInst) -> u32 {
    let row = inst.op.row();
    let rd = u32::from(inst.rd) << 7;
    let rs1 = u32::from(inst.rs1) << 15;
    let rs2 = u32::from(inst.rs2) << 20;
    let i = inst.imm as u32;
    row.fixed_bits()
        | match row.format {
            Format::R => rs2 | rs1 | rd,
            Format::I | Format::Offset => (i & 0xfff) << 20 | rs1 | rd,
            Format::Shift => (i & 0x1f) << 20 | rs1 | rd,
            Format::S => (i >> 5 & 0x7f) << 25 | rs2 | rs1 | (i & 0x1f) << 7,
            Format::B => {
                (i >> 12 & 1) << 31
                    | (i >> 5 & 0x3f) << 25
                    | rs2
                    | rs1
                    | (i >> 1 & 0xf) << 8
                    | (i >> 11 & 1) << 7
            }
            Format::U => (i & 0xf_ffff) << 12 | rd,
            Format::J => {
                (i >> 20 & 1) << 31
                    | (i >> 1 & 0x3ff) << 21
                    | (i >> 11 & 1) << 20
                    | (i >> 12 & 0xff) << 12
                    | rd
            }
            Format::Fence | Format::System => 0,
        }
}

fn sext(v: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((v << shift) as i32) >> shift
}

/// Decode one 32-bit RV32 word. `idx` is only used for error reporting.
///
/// # Errors
///
/// Returns [`RvDecodeError`] for opcodes/functs outside the supported
/// RV32I+M subset.
pub fn decode_word(word: u32, idx: usize) -> Result<RvInst, RvDecodeError> {
    let row = TABLE
        .iter()
        .find(|row| word & row.format.fixed_mask() == row.fixed_bits())
        .ok_or(RvDecodeError {
            idx,
            word,
            what: "not an RV32I/M instruction",
        })?;
    let op = row.op;
    let rd = (word >> 7 & 0x1f) as u8;
    let rs1 = (word >> 15 & 0x1f) as u8;
    let rs2 = (word >> 20 & 0x1f) as u8;
    let i_imm = sext(word >> 20, 12);
    Ok(match row.format {
        Format::R => RvInst::r(op, rd, rs1, rs2),
        Format::I | Format::Offset => RvInst::i(op, rd, rs1, i_imm),
        Format::Shift => RvInst::i(op, rd, rs1, i32::from(rs2)),
        Format::S => {
            let imm = (word >> 25) << 5 | (word >> 7 & 0x1f);
            RvInst::store(op, rs2, sext(imm, 12), rs1)
        }
        Format::B => {
            let imm = (word >> 31 & 1) << 12
                | (word >> 7 & 1) << 11
                | (word >> 25 & 0x3f) << 5
                | (word >> 8 & 0xf) << 1;
            RvInst::branch(op, rs1, rs2, sext(imm, 13))
        }
        Format::U => RvInst::u(op, rd, (word >> 12) as i32),
        Format::J => {
            let imm = (word >> 31 & 1) << 20
                | (word >> 12 & 0xff) << 12
                | (word >> 20 & 1) << 11
                | (word >> 21 & 0x3ff) << 1;
            RvInst::jal(rd, sext(imm, 21))
        }
        Format::Fence | Format::System => RvInst::sys(op),
    })
}

/// Encode a whole program to a little-endian flat binary (code only; the
/// data image and entry are not representable in a flat code stream).
pub fn encode_program(prog: &RvProgram) -> Vec<u8> {
    let mut out = Vec::with_capacity(prog.len() * 4);
    for inst in &prog.insts {
        out.extend_from_slice(&encode_word(inst).to_le_bytes());
    }
    out
}

/// Decode a little-endian flat binary into an [`RvProgram`] with entry 0.
///
/// # Errors
///
/// Returns [`RvDecodeError`] for a trailing partial word or any word
/// outside the supported RV32I+M subset.
pub fn decode_flat(name: &str, bytes: &[u8]) -> Result<RvProgram, RvDecodeError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(RvDecodeError {
            idx: bytes.len() / 4,
            word: 0,
            what: "image length is not a multiple of 4",
        });
    }
    let mut prog = RvProgram::new(name);
    for (idx, chunk) in bytes.chunks_exact(4).enumerate() {
        let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        prog.insts.push(decode_word(word, idx)?);
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::inst::RvOp;

    #[test]
    fn known_golden_words() {
        use RvOp::*;
        // One word per instruction, as the RISC-V ISA manual's field
        // layouts (and GNU `as`) encode the assembly in each comment.
        let cases = [
            (0x0001_07b7, RvInst::u(Lui, 15, 0x10)),       // lui a5, 0x10
            (0x1234_5517, RvInst::u(Auipc, 10, 0x1_2345)), // auipc a0, 0x12345
            (0x0080_00ef, RvInst::jal(1, 8)),              // jal ra, .+8
            (0xffc5_00e7, RvInst::i(Jalr, 1, 10, -4)),     // jalr ra, -4(a0)
            (0x00b5_0463, RvInst::branch(Beq, 10, 11, 8)), // beq a0, a1, .+8
            (0xfe02_9ce3, RvInst::branch(Bne, 5, 0, -8)),  // bne t0, zero, .-8
            (0x00d6_40e3, RvInst::branch(Blt, 12, 13, 2048)), // blt a2, a3, .+2048
            (0x8124_d063, RvInst::branch(Bge, 9, 18, -4096)), // bge s1, s2, .-4096
            (0x7e73_6fe3, RvInst::branch(Bltu, 6, 7, 4094)), // bltu t1, t2, .+4094
            (0xfe05_7fe3, RvInst::branch(Bgeu, 10, 0, -2)), // bgeu a0, zero, .-2
            (0xfff5_8503, RvInst::load(Lb, 10, -1, 11)),   // lb a0, -1(a1)
            (0x0025_9503, RvInst::load(Lh, 10, 2, 11)),    // lh a0, 2(a1)
            (0x00c1_2083, RvInst::load(Lw, 1, 12, 2)),     // lw ra, 12(sp)
            (0x0005_c503, RvInst::load(Lbu, 10, 0, 11)),   // lbu a0, 0(a1)
            (0x7ffd_df83, RvInst::load(Lhu, 31, 2047, 27)), // lhu t6, 2047(s11)
            (0xfea5_8fa3, RvInst::store(Sb, 10, -1, 11)),  // sb a0, -1(a1)
            (0x00a5_9123, RvInst::store(Sh, 10, 2, 11)),   // sh a0, 2(a1)
            (0x0011_2623, RvInst::store(Sw, 1, 12, 2)),    // sw ra, 12(sp)
            (0xff01_0113, RvInst::i(Addi, 2, 2, -16)),     // addi sp, sp, -16
            (0xfff5_a513, RvInst::i(Slti, 10, 11, -1)),    // slti a0, a1, -1
            (0x0015_b513, RvInst::i(Sltiu, 10, 11, 1)),    // sltiu a0, a1, 1
            (0xfff5_c513, RvInst::i(Xori, 10, 11, -1)),    // xori a0, a1, -1
            (0x0ff5_e513, RvInst::i(Ori, 10, 11, 255)),    // ori a0, a1, 255
            (0x8005_f513, RvInst::i(Andi, 10, 11, -2048)), // andi a0, a1, -2048
            (0x0035_9513, RvInst::i(Slli, 10, 11, 3)),     // slli a0, a1, 3
            (0x01f5_d513, RvInst::i(Srli, 10, 11, 31)),    // srli a0, a1, 31
            (0x4035_d513, RvInst::i(Srai, 10, 11, 3)),     // srai a0, a1, 3
            (0x00c5_8533, RvInst::r(Add, 10, 11, 12)),     // add a0, a1, a2
            (0x40c5_8533, RvInst::r(Sub, 10, 11, 12)),     // sub a0, a1, a2
            (0x00c5_9533, RvInst::r(Sll, 10, 11, 12)),     // sll a0, a1, a2
            (0x00c5_a533, RvInst::r(Slt, 10, 11, 12)),     // slt a0, a1, a2
            (0x00c5_b533, RvInst::r(Sltu, 10, 11, 12)),    // sltu a0, a1, a2
            (0x00c5_c533, RvInst::r(Xor, 10, 11, 12)),     // xor a0, a1, a2
            (0x00c5_d533, RvInst::r(Srl, 10, 11, 12)),     // srl a0, a1, a2
            (0x40c5_d533, RvInst::r(Sra, 10, 11, 12)),     // sra a0, a1, a2
            (0x00c5_e533, RvInst::r(Or, 10, 11, 12)),      // or a0, a1, a2
            (0x00c5_f533, RvInst::r(And, 10, 11, 12)),     // and a0, a1, a2
            (0x0000_0073, RvInst::sys(Ecall)),             // ecall
            (0x0010_0073, RvInst::sys(Ebreak)),            // ebreak
            (0x02c5_8533, RvInst::r(Mul, 10, 11, 12)),     // mul a0, a1, a2
            (0x02c5_9533, RvInst::r(Mulh, 10, 11, 12)),    // mulh a0, a1, a2
            (0x02c5_a533, RvInst::r(Mulhsu, 10, 11, 12)),  // mulhsu a0, a1, a2
            (0x02c5_b533, RvInst::r(Mulhu, 10, 11, 12)),   // mulhu a0, a1, a2
            (0x02c5_c533, RvInst::r(Div, 10, 11, 12)),     // div a0, a1, a2
            (0x02c5_d533, RvInst::r(Divu, 10, 11, 12)),    // divu a0, a1, a2
            (0x02c5_e533, RvInst::r(Rem, 10, 11, 12)),     // rem a0, a1, a2
            (0x02c5_f533, RvInst::r(Remu, 10, 11, 12)),    // remu a0, a1, a2
        ];
        for (word, inst) in cases {
            assert_eq!(encode_word(&inst), word, "{inst}");
            assert_eq!(decode_word(word, 0), Ok(inst), "{word:#010x}");
        }
        // GNU `as` writes `fence` as `fence iorw, iorw`; the model keeps
        // no ordering bits and encodes empty predecessor and successor sets.
        assert_eq!(decode_word(0x0ff0_000f, 0), Ok(RvInst::sys(Fence)));
        assert_eq!(encode_word(&RvInst::sys(Fence)), 0x0000_000f);
        let named: std::collections::HashSet<RvOp> = cases
            .iter()
            .map(|(_, inst)| inst.op)
            .chain([Fence])
            .collect();
        assert_eq!(named.len(), RvOp::all().count());
    }

    #[test]
    fn every_shape_round_trips() {
        let mut cases = vec![
            RvInst::u(RvOp::Lui, 7, 0xf_ffff),
            RvInst::u(RvOp::Auipc, 1, 1),
            RvInst::jal(1, -2048),
            RvInst::jal(0, 0x0f_fffe),
            RvInst::i(RvOp::Jalr, 3, 4, -5),
            RvInst::sys(RvOp::Fence),
            RvInst::sys(RvOp::Ecall),
            RvInst::sys(RvOp::Ebreak),
        ];
        for op in [
            RvOp::Beq,
            RvOp::Bne,
            RvOp::Blt,
            RvOp::Bge,
            RvOp::Bltu,
            RvOp::Bgeu,
        ] {
            cases.push(RvInst::branch(op, 5, 6, -4096));
            cases.push(RvInst::branch(op, 31, 0, 4094));
        }
        for op in [RvOp::Lb, RvOp::Lh, RvOp::Lw, RvOp::Lbu, RvOp::Lhu] {
            cases.push(RvInst::load(op, 9, -2048, 10));
        }
        for op in [RvOp::Sb, RvOp::Sh, RvOp::Sw] {
            cases.push(RvInst::store(op, 11, 2047, 12));
        }
        for op in [
            RvOp::Addi,
            RvOp::Slti,
            RvOp::Sltiu,
            RvOp::Xori,
            RvOp::Ori,
            RvOp::Andi,
        ] {
            cases.push(RvInst::i(op, 13, 14, -1));
        }
        for op in [RvOp::Slli, RvOp::Srli, RvOp::Srai] {
            cases.push(RvInst::i(op, 15, 16, 31));
        }
        for op in [
            RvOp::Add,
            RvOp::Sub,
            RvOp::Sll,
            RvOp::Slt,
            RvOp::Sltu,
            RvOp::Xor,
            RvOp::Srl,
            RvOp::Sra,
            RvOp::Or,
            RvOp::And,
            RvOp::Mul,
            RvOp::Mulh,
            RvOp::Mulhsu,
            RvOp::Mulhu,
            RvOp::Div,
            RvOp::Divu,
            RvOp::Rem,
            RvOp::Remu,
        ] {
            cases.push(RvInst::r(op, 17, 18, 19));
        }
        for inst in cases {
            let word = encode_word(&inst);
            let back = decode_word(word, 0).unwrap_or_else(|e| panic!("{inst}: {e}"));
            assert_eq!(back, inst, "word {word:#010x}");
        }
    }

    #[test]
    fn program_round_trips_through_flat_binary() {
        let p = assemble(
            "t",
            "_start:\nli t0, 100\nli a0, 0\nloop:\nadd a0, a0, t0\naddi t0, t0, -1\nbnez t0, loop\nebreak",
        )
        .unwrap();
        let bytes = encode_program(&p);
        let back = decode_flat("t", &bytes).unwrap();
        assert_eq!(back.insts, p.insts);
    }

    #[test]
    fn bad_words_are_rejected() {
        assert!(decode_word(0xffff_ffff, 3).is_err());
        assert!(decode_flat("t", &[0x13, 0x00, 0x00]).is_err());
        let err = decode_word(0x0000_0000, 7).unwrap_err();
        assert_eq!(err.idx, 7);
    }
}
