//! RV32 instruction representation shared by the assembler, the binary
//! codec, the lowering pass and the architectural interpreter.

use std::fmt;

/// An RV32I or RV32M operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum RvOp {
    // --- RV32I ---
    Lui,
    Auipc,
    Jal,
    Jalr,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Lb,
    Lh,
    Lw,
    Lbu,
    Lhu,
    Sb,
    Sh,
    Sw,
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Fence,
    Ecall,
    Ebreak,
    // --- RV32M ---
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

impl RvOp {
    /// Canonical mnemonic.
    pub fn mnemonic(self) -> &'static str {
        self.row().mnemonic
    }

    /// All operations, in declaration order (exhaustive-test helper).
    pub fn all() -> impl Iterator<Item = RvOp> {
        TABLE.iter().map(|row| row.op)
    }

    /// This operation's row of [`TABLE`].
    pub(crate) fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }
}

/// How an instruction's operands sit in its machine word and in its
/// assembly syntax. Together with a row's opcode and functs it is all the
/// assembler, the encoder and the decoder know of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// `op rd, rs1, rs2` (R-type).
    R,
    /// `op rd, rs1, imm` with a 12-bit signed immediate (I-type).
    I,
    /// `op rd, rs1, shamt`: I-type whose top seven immediate bits are the
    /// row's funct7.
    Shift,
    /// `op rd, imm(rs1)`: I-type loads and `jalr`.
    Offset,
    /// `op rs2, imm(rs1)` (S-type).
    S,
    /// `op rs1, rs2, offset` with an even 13-bit offset (B-type).
    B,
    /// `op rd, imm20` (U-type).
    U,
    /// `op rd, offset` with an even 21-bit offset (J-type).
    J,
    /// No operands; any word with the row's opcode decodes to it (the
    /// model ignores `fence`'s ordering bits).
    Fence,
    /// No operands; the whole word is fixed.
    System,
}

impl Format {
    /// The bits a word's opcode and functs occupy in this format.
    pub(crate) const fn fixed_mask(self) -> u32 {
        use Format::*;
        match self {
            R | Shift => 0xfe00_707f,
            I | Offset | S | B => 0x0000_707f,
            U | J | Fence => 0x0000_007f,
            System => 0xffff_ffff,
        }
    }
}

/// One row of [`TABLE`].
#[derive(Debug)]
pub(crate) struct Row {
    pub(crate) op: RvOp,
    pub(crate) mnemonic: &'static str,
    pub(crate) format: Format,
    /// Major opcode, bits 0–6.
    pub(crate) opcode: u8,
    /// funct3, bits 12–14 (0 where the format has none).
    pub(crate) funct3: u8,
    /// funct7 (bits 25–31) of `R` and `Shift` rows, funct12 (bits 20–31)
    /// of `System` rows, 0 in the rest.
    pub(crate) funct: u16,
}

impl Row {
    /// The bits under [`Format::fixed_mask`] that every word of this
    /// instruction holds.
    pub(crate) const fn fixed_bits(&self) -> u32 {
        let funct_at = if matches!(self.format, Format::System) {
            20
        } else {
            25
        };
        (self.funct as u32) << funct_at | (self.funct3 as u32) << 12 | self.opcode as u32
    }
}

const fn row(
    op: RvOp,
    mnemonic: &'static str,
    format: Format,
    opcode: u8,
    funct3: u8,
    funct: u16,
) -> Row {
    Row {
        op,
        mnemonic,
        format,
        opcode,
        funct3,
        funct,
    }
}

const LUI: u8 = 0b011_0111;
const AUIPC: u8 = 0b001_0111;
const JAL: u8 = 0b110_1111;
const JALR: u8 = 0b110_0111;
const BRANCH: u8 = 0b110_0011;
const LOAD: u8 = 0b000_0011;
const STORE: u8 = 0b010_0011;
const OP_IMM: u8 = 0b001_0011;
const OP: u8 = 0b011_0011;
const MISC_MEM: u8 = 0b000_1111;
const SYSTEM: u8 = 0b111_0011;

/// Every RV32I/M instruction, one row each, in [`RvOp`] declaration order:
/// the only place an instruction's mnemonic, format, opcode and functs are
/// written. The assembler, [`Display`](fmt::Display) for [`RvInst`], the
/// encoder and the decoder all read these rows.
pub(crate) const TABLE: [Row; 48] = {
    use Format as F;
    use RvOp::*;
    [
        row(Lui, "lui", F::U, LUI, 0, 0),
        row(Auipc, "auipc", F::U, AUIPC, 0, 0),
        row(Jal, "jal", F::J, JAL, 0, 0),
        row(Jalr, "jalr", F::Offset, JALR, 0, 0),
        row(Beq, "beq", F::B, BRANCH, 0, 0),
        row(Bne, "bne", F::B, BRANCH, 1, 0),
        row(Blt, "blt", F::B, BRANCH, 4, 0),
        row(Bge, "bge", F::B, BRANCH, 5, 0),
        row(Bltu, "bltu", F::B, BRANCH, 6, 0),
        row(Bgeu, "bgeu", F::B, BRANCH, 7, 0),
        row(Lb, "lb", F::Offset, LOAD, 0, 0),
        row(Lh, "lh", F::Offset, LOAD, 1, 0),
        row(Lw, "lw", F::Offset, LOAD, 2, 0),
        row(Lbu, "lbu", F::Offset, LOAD, 4, 0),
        row(Lhu, "lhu", F::Offset, LOAD, 5, 0),
        row(Sb, "sb", F::S, STORE, 0, 0),
        row(Sh, "sh", F::S, STORE, 1, 0),
        row(Sw, "sw", F::S, STORE, 2, 0),
        row(Addi, "addi", F::I, OP_IMM, 0, 0),
        row(Slti, "slti", F::I, OP_IMM, 2, 0),
        row(Sltiu, "sltiu", F::I, OP_IMM, 3, 0),
        row(Xori, "xori", F::I, OP_IMM, 4, 0),
        row(Ori, "ori", F::I, OP_IMM, 6, 0),
        row(Andi, "andi", F::I, OP_IMM, 7, 0),
        row(Slli, "slli", F::Shift, OP_IMM, 1, 0),
        row(Srli, "srli", F::Shift, OP_IMM, 5, 0),
        row(Srai, "srai", F::Shift, OP_IMM, 5, 0b010_0000),
        row(Add, "add", F::R, OP, 0, 0),
        row(Sub, "sub", F::R, OP, 0, 0b010_0000),
        row(Sll, "sll", F::R, OP, 1, 0),
        row(Slt, "slt", F::R, OP, 2, 0),
        row(Sltu, "sltu", F::R, OP, 3, 0),
        row(Xor, "xor", F::R, OP, 4, 0),
        row(Srl, "srl", F::R, OP, 5, 0),
        row(Sra, "sra", F::R, OP, 5, 0b010_0000),
        row(Or, "or", F::R, OP, 6, 0),
        row(And, "and", F::R, OP, 7, 0),
        row(Fence, "fence", F::Fence, MISC_MEM, 0, 0),
        row(Ecall, "ecall", F::System, SYSTEM, 0, 0),
        row(Ebreak, "ebreak", F::System, SYSTEM, 0, 1),
        row(Mul, "mul", F::R, OP, 0, 1),
        row(Mulh, "mulh", F::R, OP, 1, 1),
        row(Mulhsu, "mulhsu", F::R, OP, 2, 1),
        row(Mulhu, "mulhu", F::R, OP, 3, 1),
        row(Div, "div", F::R, OP, 4, 1),
        row(Divu, "divu", F::R, OP, 5, 1),
        row(Rem, "rem", F::R, OP, 6, 1),
        row(Remu, "remu", F::R, OP, 7, 1),
    ]
};

// `RvOp::row` indexes the table by declaration order, and the decoder
// takes the row whose fixed bits a word holds: rows are in order, their
// fixed bits lie inside their format's mask, and no word matches two rows.
const _: () = {
    let mut i = 0;
    while i < TABLE.len() {
        let (a, mask_a) = (&TABLE[i], TABLE[i].format.fixed_mask());
        assert!(a.op as usize == i && a.fixed_bits() & !mask_a == 0);
        let mut j = 0;
        while j < i {
            let (b, mask_b) = (&TABLE[j], TABLE[j].format.fixed_mask());
            assert!((a.fixed_bits() ^ b.fixed_bits()) & mask_a & mask_b != 0);
            j += 1;
        }
        i += 1;
    }
};

/// The row whose mnemonic is `mnemonic`, if any.
pub(crate) fn row_named(mnemonic: &str) -> Option<&'static Row> {
    TABLE.iter().find(|row| row.mnemonic == mnemonic)
}

impl fmt::Display for RvOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// ABI name of integer register `x<n>`.
///
/// # Panics
///
/// Panics if `n >= 32`.
pub fn abi_name(n: u8) -> &'static str {
    const NAMES: [&str; 32] = [
        "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
        "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
        "t5", "t6",
    ];
    NAMES[n as usize]
}

/// One decoded RV32 instruction.
///
/// The immediate is held fully sign-extended exactly as the architecture
/// sees it: byte offsets for branches/`jal`, the *unshifted* 20-bit value
/// for `lui`/`auipc`, byte displacements for loads/stores, and the shift
/// amount for immediate shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RvInst {
    /// Operation.
    pub op: RvOp,
    /// Destination register `x<rd>` (0 where the format has none).
    pub rd: u8,
    /// First source register `x<rs1>` (0 where the format has none).
    pub rs1: u8,
    /// Second source register `x<rs2>` (0 where the format has none).
    pub rs2: u8,
    /// Sign-extended immediate (see type docs for per-format meaning).
    pub imm: i32,
}

impl RvInst {
    /// R-type `op rd, rs1, rs2`.
    pub fn r(op: RvOp, rd: u8, rs1: u8, rs2: u8) -> RvInst {
        RvInst {
            op,
            rd,
            rs1,
            rs2,
            imm: 0,
        }
    }

    /// I-type `op rd, rs1, imm` (also immediate shifts and `jalr`).
    pub fn i(op: RvOp, rd: u8, rs1: u8, imm: i32) -> RvInst {
        RvInst {
            op,
            rd,
            rs1,
            rs2: 0,
            imm,
        }
    }

    /// Load `op rd, imm(rs1)`.
    pub fn load(op: RvOp, rd: u8, imm: i32, rs1: u8) -> RvInst {
        RvInst {
            op,
            rd,
            rs1,
            rs2: 0,
            imm,
        }
    }

    /// Store `op rs2, imm(rs1)`.
    pub fn store(op: RvOp, rs2: u8, imm: i32, rs1: u8) -> RvInst {
        RvInst {
            op,
            rd: 0,
            rs1,
            rs2,
            imm,
        }
    }

    /// Branch `op rs1, rs2, byte-offset`.
    pub fn branch(op: RvOp, rs1: u8, rs2: u8, offset: i32) -> RvInst {
        RvInst {
            op,
            rd: 0,
            rs1,
            rs2,
            imm: offset,
        }
    }

    /// U-type `op rd, imm20` (`imm` is the unshifted 20-bit value).
    pub fn u(op: RvOp, rd: u8, imm: i32) -> RvInst {
        RvInst {
            op,
            rd,
            rs1: 0,
            rs2: 0,
            imm,
        }
    }

    /// `jal rd, byte-offset`.
    pub fn jal(rd: u8, offset: i32) -> RvInst {
        RvInst {
            op: RvOp::Jal,
            rd,
            rs1: 0,
            rs2: 0,
            imm: offset,
        }
    }

    /// System/fence instruction with no operands.
    pub fn sys(op: RvOp) -> RvInst {
        RvInst {
            op,
            rd: 0,
            rs1: 0,
            rs2: 0,
            imm: 0,
        }
    }
}

impl fmt::Display for RvInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = self.op.row();
        let m = row.mnemonic;
        let (rd, rs1, rs2) = (abi_name(self.rd), abi_name(self.rs1), abi_name(self.rs2));
        match row.format {
            Format::U => write!(f, "{m} {rd}, {:#x}", self.imm),
            Format::J => write!(f, "{m} {rd}, {:+}", self.imm),
            Format::Offset => write!(f, "{m} {rd}, {}({rs1})", self.imm),
            Format::B => write!(f, "{m} {rs1}, {rs2}, {:+}", self.imm),
            Format::S => write!(f, "{m} {rs2}, {}({rs1})", self.imm),
            Format::I | Format::Shift => write!(f, "{m} {rd}, {rs1}, {}", self.imm),
            Format::Fence | Format::System => f.write_str(m),
            Format::R => write!(f, "{m} {rd}, {rs1}, {rs2}"),
        }
    }
}

/// An assembled or decoded RV32 program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RvProgram {
    /// Human-readable name (file stem or suite entry).
    pub name: String,
    /// Instructions in address order; instruction `i` lives at
    /// `RvProgram::BASE_PC + 4 * i`.
    pub insts: Vec<RvInst>,
    /// Entry index.
    pub entry: u32,
    /// `(byte address, byte value)` pairs preloaded before execution.
    pub data: Vec<(u32, u8)>,
    /// Labels attached by the assembler (diagnostics only).
    pub labels: Vec<(String, u32)>,
}

impl RvProgram {
    /// Byte address of instruction index 0 in the RV32 address space.
    /// `auipc`/`jalr` arithmetic is done against this base; note it is a
    /// *different* address space from the lowered uop program's PCs, which
    /// renumber per-uop.
    pub const BASE_PC: u32 = 0x0040_0000;

    /// Empty program with a name.
    pub fn new(name: impl Into<String>) -> RvProgram {
        RvProgram {
            name: name.into(),
            insts: Vec::new(),
            entry: 0,
            data: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Byte program counter of instruction index `idx`.
    pub fn pc_of(&self, idx: u32) -> u32 {
        Self::BASE_PC + 4 * idx
    }

    /// Instruction index of a byte program counter, if in range and
    /// 4-byte aligned.
    pub fn index_of_pc(&self, pc: u32) -> Option<u32> {
        if pc < Self::BASE_PC || !(pc - Self::BASE_PC).is_multiple_of(4) {
            return None;
        }
        let idx = (pc - Self::BASE_PC) / 4;
        ((idx as usize) < self.insts.len()).then_some(idx)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` when the program holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

impl fmt::Display for RvProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# rv32 program `{}`, {} insts", self.name, self.len())?;
        for (i, inst) in self.insts.iter().enumerate() {
            for (l, idx) in &self.labels {
                if *idx == i as u32 {
                    writeln!(f, "{l}:")?;
                }
            }
            writeln!(f, "  {i:4}  {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_cover_all_registers() {
        assert_eq!(abi_name(0), "zero");
        assert_eq!(abi_name(2), "sp");
        assert_eq!(abi_name(10), "a0");
        assert_eq!(abi_name(31), "t6");
    }

    #[test]
    fn display_shapes() {
        assert_eq!(RvInst::r(RvOp::Add, 10, 5, 6).to_string(), "add a0, t0, t1");
        assert_eq!(
            RvInst::i(RvOp::Addi, 10, 10, -1).to_string(),
            "addi a0, a0, -1"
        );
        assert_eq!(RvInst::load(RvOp::Lw, 5, 8, 2).to_string(), "lw t0, 8(sp)");
        assert_eq!(
            RvInst::store(RvOp::Sw, 5, -4, 2).to_string(),
            "sw t0, -4(sp)"
        );
        assert_eq!(
            RvInst::branch(RvOp::Bne, 5, 0, -8).to_string(),
            "bne t0, zero, -8"
        );
        assert_eq!(RvInst::sys(RvOp::Ecall).to_string(), "ecall");
    }

    #[test]
    fn pc_round_trip() {
        let mut p = RvProgram::new("t");
        p.insts.push(RvInst::sys(RvOp::Ebreak));
        p.insts.push(RvInst::sys(RvOp::Ebreak));
        assert_eq!(p.index_of_pc(p.pc_of(1)), Some(1));
        assert_eq!(p.index_of_pc(RvProgram::BASE_PC + 2), None);
        assert_eq!(p.index_of_pc(RvProgram::BASE_PC + 8), None);
        assert_eq!(p.index_of_pc(0), None);
    }

    #[test]
    fn the_table_names_every_operation_once() {
        assert_eq!(RvOp::all().count(), 48);
        for op in RvOp::all() {
            assert_eq!(row_named(op.mnemonic()).map(|row| row.op), Some(op));
        }
    }
}
