use std::fmt;

use crate::{InstClass, Opcode, Reg};

/// A static instruction as laid out in the program image.
///
/// Operands follow the usual three-address RISC conventions: at most one
/// destination register, at most two source registers, an immediate, and —
/// for direct control transfers — a static target (an index into the
/// owning [`Program`](crate::Program)'s code).
///
/// Reads of the hard-wired zero register are materialized in `srcs` but are
/// excluded from [`StaticInst::src_regs`], the dependence-carrying view that
/// scheduling logic uses.
///
/// ```
/// use mos_isa::{Reg, StaticInst};
/// let i = StaticInst::add(Reg::int(5), Reg::int(1), Reg::ZERO);
/// assert_eq!(i.dst(), Some(Reg::int(5)));
/// // the zero-register source carries no dependence:
/// assert_eq!(i.src_regs().count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StaticInst {
    opcode: Opcode,
    dst: Option<Reg>,
    srcs: [Option<Reg>; 2],
    imm: i64,
    target: Option<u32>,
}

impl StaticInst {
    /// General constructor; prefer the named helpers for common shapes.
    pub fn new(
        opcode: Opcode,
        dst: Option<Reg>,
        srcs: [Option<Reg>; 2],
        imm: i64,
        target: Option<u32>,
    ) -> StaticInst {
        StaticInst {
            opcode,
            dst,
            srcs,
            imm,
            target,
        }
    }

    /// Three-register ALU op `op rd, rs1, rs2`.
    pub fn alu(op: Opcode, rd: Reg, rs1: Reg, rs2: Reg) -> StaticInst {
        StaticInst::new(op, Some(rd), [Some(rs1), Some(rs2)], 0, None)
    }

    /// Register–immediate ALU op `op rd, rs, imm`.
    pub fn alui(op: Opcode, rd: Reg, rs: Reg, imm: i64) -> StaticInst {
        StaticInst::new(op, Some(rd), [Some(rs), None], imm, None)
    }

    /// `add rd, rs1, rs2`.
    pub fn add(rd: Reg, rs1: Reg, rs2: Reg) -> StaticInst {
        Self::alu(Opcode::Add, rd, rs1, rs2)
    }

    /// `sub rd, rs1, rs2`.
    pub fn sub(rd: Reg, rs1: Reg, rs2: Reg) -> StaticInst {
        Self::alu(Opcode::Sub, rd, rs1, rs2)
    }

    /// `addi rd, rs, imm`.
    pub fn addi(rd: Reg, rs: Reg, imm: i64) -> StaticInst {
        Self::alui(Opcode::Addi, rd, rs, imm)
    }

    /// `li rd, imm`.
    pub fn li(rd: Reg, imm: i64) -> StaticInst {
        StaticInst::new(Opcode::Li, Some(rd), [None, None], imm, None)
    }

    /// Load `ld rd, imm(rs)`.
    pub fn load(rd: Reg, imm: i64, rs: Reg) -> StaticInst {
        StaticInst::new(Opcode::Ld, Some(rd), [Some(rs), None], imm, None)
    }

    /// Store `st rval, imm(rbase)`.
    ///
    /// `srcs[0]` is the address base, `srcs[1]` the stored value.
    pub fn store(rval: Reg, imm: i64, rbase: Reg) -> StaticInst {
        StaticInst::new(Opcode::St, None, [Some(rbase), Some(rval)], imm, None)
    }

    /// Conditional branch `op rs, target` where `target` is a static index.
    pub fn branch(op: Opcode, rs: Reg, target: u32) -> StaticInst {
        debug_assert!(matches!(
            op,
            Opcode::Beqz | Opcode::Bnez | Opcode::Bltz | Opcode::Bgez
        ));
        StaticInst::new(op, None, [Some(rs), None], 0, Some(target))
    }

    /// Two-source conditional branch `op rs1, rs2, target` (the shape RV32
    /// branches lower to) where `target` is a static index.
    pub fn branch2(op: Opcode, rs1: Reg, rs2: Reg, target: u32) -> StaticInst {
        debug_assert!(matches!(
            op,
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge | Opcode::Bltu | Opcode::Bgeu
        ));
        StaticInst::new(op, None, [Some(rs1), Some(rs2)], 0, Some(target))
    }

    /// Unconditional direct jump to a static index.
    pub fn jmp(target: u32) -> StaticInst {
        StaticInst::new(Opcode::Jmp, None, [None, None], 0, Some(target))
    }

    /// Direct call to a static index; writes [`Reg::RA`].
    pub fn call(target: u32) -> StaticInst {
        StaticInst::new(Opcode::Call, Some(Reg::RA), [None, None], 0, Some(target))
    }

    /// Indirect jump through `rs`.
    pub fn jr(rs: Reg) -> StaticInst {
        StaticInst::new(Opcode::Jr, None, [Some(rs), None], 0, None)
    }

    /// Return through [`Reg::RA`].
    pub fn ret() -> StaticInst {
        StaticInst::new(Opcode::Ret, None, [Some(Reg::RA), None], 0, None)
    }

    /// No-op.
    pub fn nop() -> StaticInst {
        StaticInst::new(Opcode::Nop, None, [None, None], 0, None)
    }

    /// Program terminator.
    pub fn halt() -> StaticInst {
        StaticInst::new(Opcode::Halt, None, [None, None], 0, None)
    }

    /// The operation.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// Latency/resource class (shorthand for `self.opcode().class()`).
    pub fn class(&self) -> InstClass {
        self.opcode.class()
    }

    /// Destination register, if the instruction writes one. Writes to the
    /// zero register are reported as `None`.
    pub fn dst(&self) -> Option<Reg> {
        self.dst.filter(|r| !r.is_zero())
    }

    /// Raw operand slots as encoded, including zero-register reads.
    pub fn raw_srcs(&self) -> [Option<Reg>; 2] {
        self.srcs
    }

    /// Dependence-carrying source registers (zero-register reads excluded).
    pub fn src_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().copied().filter(|r| !r.is_zero())
    }

    /// Immediate operand.
    pub fn imm(&self) -> i64 {
        self.imm
    }

    /// Static target index for direct control transfers.
    pub fn target(&self) -> Option<u32> {
        self.target
    }

    /// Replace the static target (used by program builders that place a
    /// transfer before its target exists).
    pub fn with_target(mut self, target: u32) -> StaticInst {
        self.target = Some(target);
        self
    }

    /// `true` when this is a macro-op grouping candidate (Section 4.1):
    /// a single-cycle operation — integer ALU, store address generation or
    /// control instruction. No-ops are not candidates because the decoder
    /// removes them.
    pub fn is_mop_candidate(&self) -> bool {
        let class = self.class();
        class.is_single_cycle() && !matches!(class, InstClass::Nop | InstClass::Halt)
    }

    /// `true` when this candidate generates a register value and may thus
    /// have dependent instructions — a potential MOP head. (Branches and
    /// store address generations are candidates but can only be tails.)
    pub fn is_value_generating_candidate(&self) -> bool {
        self.is_mop_candidate() && self.dst().is_some()
    }

    /// `true` for any control transfer.
    pub fn is_control(&self) -> bool {
        self.class().is_control()
    }

    /// `true` for conditional branches specifically.
    pub fn is_cond_branch(&self) -> bool {
        self.class() == InstClass::CondBranch
    }
}

impl fmt::Display for StaticInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                write!(f, " ")
            } else {
                write!(f, ", ")
            }
        };
        match self.class() {
            InstClass::Load => {
                sep(f)?;
                write!(f, "{}", self.dst.expect("load has dst"))?;
                sep(f)?;
                write!(f, "{}({})", self.imm, self.srcs[0].expect("load has base"))?;
            }
            InstClass::Store => {
                sep(f)?;
                write!(f, "{}", self.srcs[1].expect("store has value"))?;
                sep(f)?;
                write!(f, "{}({})", self.imm, self.srcs[0].expect("store has base"))?;
            }
            _ => {
                if let Some(d) = self.dst {
                    sep(f)?;
                    write!(f, "{d}")?;
                }
                for s in self.srcs.iter().flatten() {
                    // `call` encodes RA implicitly; don't print implicit RA of ret.
                    if self.opcode == Opcode::Ret {
                        continue;
                    }
                    sep(f)?;
                    write!(f, "{s}")?;
                }
                if let Some(t) = self.target {
                    sep(f)?;
                    write!(f, "@{t}")?;
                } else if self.uses_imm() {
                    sep(f)?;
                    write!(f, "{}", self.imm)?;
                }
            }
        }
        Ok(())
    }
}

impl StaticInst {
    fn uses_imm(&self) -> bool {
        use Opcode::*;
        matches!(
            self.opcode,
            Addi | Subi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltiu | Li
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_writes_are_not_value_generating() {
        let i = StaticInst::add(Reg::ZERO, Reg::int(1), Reg::int(2));
        assert_eq!(i.dst(), None);
        assert!(i.is_mop_candidate());
        assert!(!i.is_value_generating_candidate());
    }

    #[test]
    fn branch_is_candidate_but_not_value_generating() {
        let b = StaticInst::branch(Opcode::Bnez, Reg::int(3), 7);
        assert!(b.is_mop_candidate());
        assert!(!b.is_value_generating_candidate());
        assert_eq!(b.target(), Some(7));
    }

    #[test]
    fn two_source_branch_carries_both_dependences() {
        let b = StaticInst::branch2(Opcode::Blt, Reg::int(3), Reg::int(4), 9);
        assert!(b.is_mop_candidate());
        assert!(!b.is_value_generating_candidate());
        assert!(b.is_cond_branch());
        assert_eq!(b.src_regs().count(), 2);
        assert_eq!(b.target(), Some(9));
        // A zero-register operand drops out of the dependence view.
        let bz = StaticInst::branch2(Opcode::Bne, Reg::int(3), Reg::ZERO, 2);
        assert_eq!(bz.src_regs().count(), 1);
    }

    #[test]
    fn store_is_candidate_address_generation() {
        let s = StaticInst::store(Reg::int(4), 8, Reg::int(5));
        assert!(s.is_mop_candidate());
        assert!(!s.is_value_generating_candidate());
        assert_eq!(s.src_regs().count(), 2);
    }

    #[test]
    fn load_and_mul_are_not_candidates() {
        assert!(!StaticInst::load(Reg::int(1), 0, Reg::int(2)).is_mop_candidate());
        assert!(
            !StaticInst::alu(Opcode::Mul, Reg::int(1), Reg::int(2), Reg::int(3)).is_mop_candidate()
        );
    }

    #[test]
    fn call_generates_a_value() {
        let c = StaticInst::call(3);
        assert!(c.is_value_generating_candidate());
        assert_eq!(c.dst(), Some(Reg::RA));
    }

    #[test]
    fn display_is_reasonable() {
        assert_eq!(
            StaticInst::addi(Reg::int(1), Reg::int(2), 4).to_string(),
            "addi r1, r2, 4"
        );
        assert_eq!(
            StaticInst::load(Reg::int(4), 0, Reg::int(1)).to_string(),
            "ld r4, 0(r1)"
        );
        assert_eq!(
            StaticInst::store(Reg::int(4), 16, Reg::SP).to_string(),
            "st r4, 16(r30)"
        );
    }
}
