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
        use RvOp::*;
        match self {
            Lui => "lui",
            Auipc => "auipc",
            Jal => "jal",
            Jalr => "jalr",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Bltu => "bltu",
            Bgeu => "bgeu",
            Lb => "lb",
            Lh => "lh",
            Lw => "lw",
            Lbu => "lbu",
            Lhu => "lhu",
            Sb => "sb",
            Sh => "sh",
            Sw => "sw",
            Addi => "addi",
            Slti => "slti",
            Sltiu => "sltiu",
            Xori => "xori",
            Ori => "ori",
            Andi => "andi",
            Slli => "slli",
            Srli => "srli",
            Srai => "srai",
            Add => "add",
            Sub => "sub",
            Sll => "sll",
            Slt => "slt",
            Sltu => "sltu",
            Xor => "xor",
            Srl => "srl",
            Sra => "sra",
            Or => "or",
            And => "and",
            Fence => "fence",
            Ecall => "ecall",
            Ebreak => "ebreak",
            Mul => "mul",
            Mulh => "mulh",
            Mulhsu => "mulhsu",
            Mulhu => "mulhu",
            Div => "div",
            Divu => "divu",
            Rem => "rem",
            Remu => "remu",
        }
    }

    /// All operations, in declaration order (exhaustive-test helper).
    pub fn all() -> impl Iterator<Item = RvOp> {
        use RvOp::*;
        [
            Lui, Auipc, Jal, Jalr, Beq, Bne, Blt, Bge, Bltu, Bgeu, Lb, Lh, Lw, Lbu, Lhu, Sb, Sh,
            Sw, Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai, Add, Sub, Sll, Slt, Sltu,
            Xor, Srl, Sra, Or, And, Fence, Ecall, Ebreak, Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem,
            Remu,
        ]
        .into_iter()
    }

    /// `true` for the six conditional branches.
    pub fn is_branch(self) -> bool {
        use RvOp::*;
        matches!(self, Beq | Bne | Blt | Bge | Bltu | Bgeu)
    }

    /// `true` for loads.
    pub fn is_load(self) -> bool {
        use RvOp::*;
        matches!(self, Lb | Lh | Lw | Lbu | Lhu)
    }

    /// `true` for stores.
    pub fn is_store(self) -> bool {
        use RvOp::*;
        matches!(self, Sb | Sh | Sw)
    }

    /// `true` for the RV32M multiply/divide extension.
    pub fn is_m_ext(self) -> bool {
        use RvOp::*;
        matches!(self, Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu)
    }
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
        use RvOp::*;
        let m = self.op.mnemonic();
        let (rd, rs1, rs2) = (abi_name(self.rd), abi_name(self.rs1), abi_name(self.rs2));
        match self.op {
            Lui | Auipc => write!(f, "{m} {rd}, {:#x}", self.imm),
            Jal => write!(f, "{m} {rd}, {:+}", self.imm),
            Jalr => write!(f, "{m} {rd}, {}({rs1})", self.imm),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                write!(f, "{m} {rs1}, {rs2}, {:+}", self.imm)
            }
            Lb | Lh | Lw | Lbu | Lhu => write!(f, "{m} {rd}, {}({rs1})", self.imm),
            Sb | Sh | Sw => write!(f, "{m} {rs2}, {}({rs1})", self.imm),
            Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai => {
                write!(f, "{m} {rd}, {rs1}, {}", self.imm)
            }
            Fence | Ecall | Ebreak => f.write_str(m),
            _ => write!(f, "{m} {rd}, {rs1}, {rs2}"),
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
    fn classification_predicates() {
        assert!(RvOp::Beq.is_branch());
        assert!(RvOp::Lbu.is_load());
        assert!(RvOp::Sh.is_store());
        assert!(RvOp::Remu.is_m_ext());
        assert!(!RvOp::Add.is_m_ext());
        assert_eq!(RvOp::all().count(), 48);
    }
}
