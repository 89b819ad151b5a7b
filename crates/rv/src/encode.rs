//! RV32 machine-code codec: encode an [`RvProgram`] to a flat
//! little-endian binary and decode such a binary back into instructions.
//! This is the loader path for running pre-assembled RISC-V images through
//! the pipeline; [`decode_word`]/[`encode_word`] round-trip exactly for
//! every instruction the frontend supports.

use std::fmt;

use crate::inst::{RvInst, RvOp, RvProgram};

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

const OP_LUI: u32 = 0b011_0111;
const OP_AUIPC: u32 = 0b001_0111;
const OP_JAL: u32 = 0b110_1111;
const OP_JALR: u32 = 0b110_0111;
const OP_BRANCH: u32 = 0b110_0011;
const OP_LOAD: u32 = 0b000_0011;
const OP_STORE: u32 = 0b010_0011;
const OP_IMM: u32 = 0b001_0011;
const OP_REG: u32 = 0b011_0011;
const OP_FENCE: u32 = 0b000_1111;
const OP_SYSTEM: u32 = 0b111_0011;

fn funct3(op: RvOp) -> u32 {
    use RvOp::*;
    match op {
        Beq | Lb | Sb | Addi | Add | Sub | Mul | Jalr | Fence | Ecall | Ebreak | Lui | Auipc
        | Jal => 0,
        Bne | Lh | Sh | Slli | Sll | Mulh => 1,
        Lw | Sw | Slt | Slti | Mulhsu => 2,
        Sltiu | Sltu | Mulhu => 3,
        Blt | Lbu | Xori | Xor | Div => 4,
        Bge | Lhu | Srli | Srai | Srl | Sra | Divu => 5,
        Bltu | Ori | Or | Rem => 6,
        Bgeu | Andi | And | Remu => 7,
    }
}

/// Encode one instruction to its 32-bit RV32 word.
pub fn encode_word(inst: &RvInst) -> u32 {
    use RvOp::*;
    let rd = u32::from(inst.rd) << 7;
    let rs1 = u32::from(inst.rs1) << 15;
    let rs2 = u32::from(inst.rs2) << 20;
    let f3 = funct3(inst.op) << 12;
    let imm = inst.imm as u32;
    match inst.op {
        Lui => (imm & 0xf_ffff) << 12 | rd | OP_LUI,
        Auipc => (imm & 0xf_ffff) << 12 | rd | OP_AUIPC,
        Jal => {
            let i = imm;
            let enc = (i >> 20 & 1) << 31
                | (i >> 1 & 0x3ff) << 21
                | (i >> 11 & 1) << 20
                | (i >> 12 & 0xff) << 12;
            enc | rd | OP_JAL
        }
        Jalr => (imm & 0xfff) << 20 | rs1 | f3 | rd | OP_JALR,
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            let i = imm;
            (i >> 12 & 1) << 31
                | (i >> 5 & 0x3f) << 25
                | rs2
                | rs1
                | f3
                | (i >> 1 & 0xf) << 8
                | (i >> 11 & 1) << 7
                | OP_BRANCH
        }
        Lb | Lh | Lw | Lbu | Lhu => (imm & 0xfff) << 20 | rs1 | f3 | rd | OP_LOAD,
        Sb | Sh | Sw => (imm >> 5 & 0x7f) << 25 | rs2 | rs1 | f3 | (imm & 0x1f) << 7 | OP_STORE,
        Addi | Slti | Sltiu | Xori | Ori | Andi => (imm & 0xfff) << 20 | rs1 | f3 | rd | OP_IMM,
        Slli => (imm & 0x1f) << 20 | rs1 | f3 | rd | OP_IMM,
        Srli => (imm & 0x1f) << 20 | rs1 | f3 | rd | OP_IMM,
        Srai => 0x4000_0000 | (imm & 0x1f) << 20 | rs1 | f3 | rd | OP_IMM,
        Add | Sll | Slt | Sltu | Xor | Srl | Or | And => rs2 | rs1 | f3 | rd | OP_REG,
        Sub | Sra => 0x4000_0000 | rs2 | rs1 | f3 | rd | OP_REG,
        Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu => {
            0x0200_0000 | rs2 | rs1 | f3 | rd | OP_REG
        }
        Fence => f3 | OP_FENCE,
        Ecall => OP_SYSTEM,
        Ebreak => 1 << 20 | OP_SYSTEM,
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
    use RvOp::*;
    let err = |what: &'static str| RvDecodeError { idx, word, what };
    let opcode = word & 0x7f;
    let rd = (word >> 7 & 0x1f) as u8;
    let f3 = word >> 12 & 7;
    let rs1 = (word >> 15 & 0x1f) as u8;
    let rs2 = (word >> 20 & 0x1f) as u8;
    let f7 = word >> 25;
    let i_imm = sext(word >> 20, 12);
    Ok(match opcode {
        OP_LUI => RvInst::u(Lui, rd, (word >> 12) as i32),
        OP_AUIPC => RvInst::u(Auipc, rd, (word >> 12) as i32),
        OP_JAL => {
            let imm = (word >> 31 & 1) << 20
                | (word >> 12 & 0xff) << 12
                | (word >> 20 & 1) << 11
                | (word >> 21 & 0x3ff) << 1;
            RvInst::jal(rd, sext(imm, 21))
        }
        OP_JALR if f3 == 0 => RvInst::i(Jalr, rd, rs1, i_imm),
        OP_BRANCH => {
            let op = match f3 {
                0 => Beq,
                1 => Bne,
                4 => Blt,
                5 => Bge,
                6 => Bltu,
                7 => Bgeu,
                _ => return Err(err("bad branch funct3")),
            };
            let imm = (word >> 31 & 1) << 12
                | (word >> 7 & 1) << 11
                | (word >> 25 & 0x3f) << 5
                | (word >> 8 & 0xf) << 1;
            RvInst::branch(op, rs1, rs2, sext(imm, 13))
        }
        OP_LOAD => {
            let op = match f3 {
                0 => Lb,
                1 => Lh,
                2 => Lw,
                4 => Lbu,
                5 => Lhu,
                _ => return Err(err("bad load funct3")),
            };
            RvInst::load(op, rd, i_imm, rs1)
        }
        OP_STORE => {
            let op = match f3 {
                0 => Sb,
                1 => Sh,
                2 => Sw,
                _ => return Err(err("bad store funct3")),
            };
            let imm = (word >> 25) << 5 | (word >> 7 & 0x1f);
            RvInst::store(op, rs2, sext(imm, 12), rs1)
        }
        OP_IMM => match f3 {
            0 => RvInst::i(Addi, rd, rs1, i_imm),
            2 => RvInst::i(Slti, rd, rs1, i_imm),
            3 => RvInst::i(Sltiu, rd, rs1, i_imm),
            4 => RvInst::i(Xori, rd, rs1, i_imm),
            6 => RvInst::i(Ori, rd, rs1, i_imm),
            7 => RvInst::i(Andi, rd, rs1, i_imm),
            1 if f7 == 0 => RvInst::i(Slli, rd, rs1, i32::from(rs2)),
            5 if f7 == 0 => RvInst::i(Srli, rd, rs1, i32::from(rs2)),
            5 if f7 == 0b010_0000 => RvInst::i(Srai, rd, rs1, i32::from(rs2)),
            _ => return Err(err("bad op-imm funct")),
        },
        OP_REG => {
            let op = match (f7, f3) {
                (0, 0) => Add,
                (0b010_0000, 0) => Sub,
                (0, 1) => Sll,
                (0, 2) => Slt,
                (0, 3) => Sltu,
                (0, 4) => Xor,
                (0, 5) => Srl,
                (0b010_0000, 5) => Sra,
                (0, 6) => Or,
                (0, 7) => And,
                (1, 0) => Mul,
                (1, 1) => Mulh,
                (1, 2) => Mulhsu,
                (1, 3) => Mulhu,
                (1, 4) => Div,
                (1, 5) => Divu,
                (1, 6) => Rem,
                (1, 7) => Remu,
                _ => return Err(err("bad op-reg funct")),
            };
            RvInst::r(op, rd, rs1, rs2)
        }
        OP_FENCE => RvInst::sys(Fence),
        OP_SYSTEM if word >> 7 == 0 => RvInst::sys(Ecall),
        OP_SYSTEM if word >> 7 == 1 << 13 => RvInst::sys(Ebreak),
        _ => return Err(err("unsupported opcode")),
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

    #[test]
    fn known_golden_words() {
        // Cross-checked against the RISC-V spec encodings.
        assert_eq!(encode_word(&RvInst::i(RvOp::Addi, 0, 0, 0)), 0x0000_0013); // nop
        assert_eq!(encode_word(&RvInst::sys(RvOp::Ecall)), 0x0000_0073);
        assert_eq!(encode_word(&RvInst::sys(RvOp::Ebreak)), 0x0010_0073);
        // add a0, a1, a2 = 0x00c58533
        assert_eq!(encode_word(&RvInst::r(RvOp::Add, 10, 11, 12)), 0x00c5_8533);
        // lw t0, 8(sp) = 0x00812283
        assert_eq!(encode_word(&RvInst::load(RvOp::Lw, 5, 8, 2)), 0x0081_2283);
        // jalr x0, 0(ra) (ret) = 0x00008067
        assert_eq!(encode_word(&RvInst::i(RvOp::Jalr, 0, 1, 0)), 0x0000_8067);
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
