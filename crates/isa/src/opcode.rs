use std::fmt;

use crate::class::InstClass;

/// Operation performed by a [`StaticInst`](crate::StaticInst).
///
/// The set is deliberately small but covers every latency class of the
/// paper's machine model (Table 1) plus enough arithmetic/control variety to
/// lower real RV32 programs (`mos-rv`) and model SPEC-like code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Opcode {
    // --- single-cycle integer ALU (MOP candidates) ---
    Add,
    Addi,
    Sub,
    Subi,
    And,
    Andi,
    Or,
    Ori,
    Xor,
    Xori,
    Not,
    Sll,
    Slli,
    Srl,
    Srli,
    Sra,
    Slt,
    Sltu,
    Slti,
    Sltiu,
    Srai,
    Cmpeq,
    /// Load immediate into a register (`li rd, imm`).
    Li,
    /// Register move (`mov rd, rs`).
    Mov,
    // --- long-latency integer ---
    Mul,
    Div,
    // --- floating point ---
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
    Fneg,
    /// Convert integer register to floating point register.
    Itof,
    /// Convert floating point register to integer register.
    Ftoi,
    // --- memory ---
    /// Integer load: `ld rd, imm(rs)`.
    Ld,
    /// Integer store: `st rs2, imm(rs1)`.
    St,
    /// Floating-point load: `fld fd, imm(rs)`.
    Fld,
    /// Floating-point store: `fst fs2, imm(rs1)`.
    Fst,
    // --- control ---
    /// Branch if equal zero: `beqz rs, label`.
    Beqz,
    /// Branch if not equal zero: `bnez rs, label`.
    Bnez,
    /// Branch if less than zero: `bltz rs, label`.
    Bltz,
    /// Branch if greater or equal zero: `bgez rs, label`.
    Bgez,
    /// Two-source branch if equal: `beq rs1, rs2, label` (RV lowering target).
    Beq,
    /// Two-source branch if not equal: `bne rs1, rs2, label`.
    Bne,
    /// Two-source branch if less than (signed): `blt rs1, rs2, label`.
    Blt,
    /// Two-source branch if greater or equal (signed): `bge rs1, rs2, label`.
    Bge,
    /// Two-source branch if less than (unsigned): `bltu rs1, rs2, label`.
    Bltu,
    /// Two-source branch if greater or equal (unsigned): `bgeu rs1, rs2, label`.
    Bgeu,
    /// Unconditional direct jump: `j label`.
    Jmp,
    /// Direct call, writes return address to `ra`: `call label`.
    Call,
    /// Indirect jump through a register: `jr rs`.
    Jr,
    /// Return through the return-address register (RAS-predicted).
    Ret,
    // --- misc ---
    /// No operation; filtered by the decoder without executing (as the
    /// paper does for Alpha no-ops).
    Nop,
    /// Stop the program.
    Halt,
}

impl Opcode {
    /// Latency/resource class of this opcode.
    pub fn class(self) -> InstClass {
        use Opcode::*;
        match self {
            Add | Addi | Sub | Subi | And | Andi | Or | Ori | Xor | Xori | Not | Sll | Slli
            | Srl | Srli | Sra | Srai | Slt | Sltu | Slti | Sltiu | Cmpeq | Li | Mov => {
                InstClass::IntAlu
            }
            Mul => InstClass::IntMul,
            Div => InstClass::IntDiv,
            Fadd | Fsub | Fneg | Itof | Ftoi => InstClass::FpAlu,
            Fmul => InstClass::FpMul,
            Fdiv => InstClass::FpDiv,
            Ld | Fld => InstClass::Load,
            St | Fst => InstClass::Store,
            Beqz | Bnez | Bltz | Bgez | Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                InstClass::CondBranch
            }
            Jmp => InstClass::Jump,
            Call => InstClass::Call,
            Jr => InstClass::IndirectJump,
            Ret => InstClass::Return,
            Nop => InstClass::Nop,
            Halt => InstClass::Halt,
        }
    }

    /// Assembly mnemonic, as printed in listings and pipeline views.
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Addi => "addi",
            Sub => "sub",
            Subi => "subi",
            And => "and",
            Andi => "andi",
            Or => "or",
            Ori => "ori",
            Xor => "xor",
            Xori => "xori",
            Not => "not",
            Sll => "sll",
            Slli => "slli",
            Srl => "srl",
            Srli => "srli",
            Sra => "sra",
            Slt => "slt",
            Sltu => "sltu",
            Slti => "slti",
            Sltiu => "sltiu",
            Srai => "srai",
            Cmpeq => "cmpeq",
            Li => "li",
            Mov => "mov",
            Mul => "mul",
            Div => "div",
            Fadd => "fadd",
            Fsub => "fsub",
            Fmul => "fmul",
            Fdiv => "fdiv",
            Fneg => "fneg",
            Itof => "itof",
            Ftoi => "ftoi",
            Ld => "ld",
            St => "st",
            Fld => "fld",
            Fst => "fst",
            Beqz => "beqz",
            Bnez => "bnez",
            Bltz => "bltz",
            Bgez => "bgez",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Bltu => "bltu",
            Bgeu => "bgeu",
            Jmp => "j",
            Call => "call",
            Jr => "jr",
            Ret => "ret",
            Nop => "nop",
            Halt => "halt",
        }
    }

    /// All opcodes, in declaration order. Useful for exhaustive tests.
    pub fn all() -> impl Iterator<Item = Opcode> {
        use Opcode::*;
        [
            Add, Addi, Sub, Subi, And, Andi, Or, Ori, Xor, Xori, Not, Sll, Slli, Srl, Srli, Sra,
            Srai, Slt, Sltu, Slti, Sltiu, Cmpeq, Li, Mov, Mul, Div, Fadd, Fsub, Fmul, Fdiv, Fneg,
            Itof, Ftoi, Ld, St, Fld, Fst, Beqz, Bnez, Bltz, Bgez, Beq, Bne, Blt, Bge, Bltu, Bgeu,
            Jmp, Call, Jr, Ret, Nop, Halt,
        ]
        .into_iter()
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_are_distinct() {
        let mut seen: Vec<_> = Opcode::all().map(Opcode::mnemonic).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), Opcode::all().count());
    }

    #[test]
    fn alu_ops_are_single_cycle_classes() {
        assert_eq!(Opcode::Add.class(), InstClass::IntAlu);
        assert_eq!(Opcode::Slli.class(), InstClass::IntAlu);
        assert_eq!(Opcode::Mul.class(), InstClass::IntMul);
        assert_eq!(Opcode::Ld.class(), InstClass::Load);
        assert_eq!(Opcode::Beqz.class(), InstClass::CondBranch);
    }
}
