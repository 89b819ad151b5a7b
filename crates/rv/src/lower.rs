//! Lowering from RV32 instructions to the custom uop ISA consumed by the
//! timing simulator.
//!
//! Most RV32I instructions lower 1:1 (the custom ISA was designed as an
//! Alpha-like superset of exactly this shape); the exceptions are the two
//! link-register jumps `jal rd` / `jalr rd` with a non-standard `rd`,
//! which expand to a `li rd, pc+4` uop followed by the jump — so a *bundle*
//! of uops per RV instruction, tracked by [`Lowered::bundle`].
//!
//! ## Register map
//!
//! RV32's 31 writable registers map injectively onto the custom ISA's 31
//! writable integer registers, preserving the three special roles:
//! `x0 → r31` (hard-wired zero), `x1/ra → r26` (the return-address register
//! the custom `call`/`ret` pair uses, so the RAS predicts RV calls), and
//! `x2/sp → r30`. The remaining registers pack in order: `x3..x28 →
//! r0..r25`, `x29..x31 → r27..r29`.

use std::fmt;

use mos_isa::{InstClass, Opcode, Program, Reg, StaticInst};

use crate::inst::{RvInst, RvOp, RvProgram};

/// Map an RV32 integer register onto the custom ISA's integer file.
///
/// # Panics
///
/// Panics if `x >= 32`.
pub fn map_reg(x: u8) -> Reg {
    match x {
        0 => Reg::ZERO,
        1 => Reg::RA,
        2 => Reg::SP,
        3..=28 => Reg::int(x - 3),
        29..=31 => Reg::int(x - 2),
        _ => panic!("RV register x{x} out of range"),
    }
}

/// Error produced by [`lower`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A branch or `jal` target is misaligned or outside the program.
    BadTarget {
        /// RV instruction index of the transfer.
        idx: u32,
        /// The byte offset it encodes.
        offset: i32,
    },
    /// The program has no instructions.
    Empty,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::BadTarget { idx, offset } => {
                write!(
                    f,
                    "rv inst {idx}: branch offset {offset} leaves the program"
                )
            }
            LowerError::Empty => write!(f, "rv program is empty"),
        }
    }
}

impl std::error::Error for LowerError {}

/// An RV32 program lowered to the custom uop ISA, with the maps needed to
/// translate between the two index spaces.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The lowered uop program (what the simulator fetches and schedules).
    pub program: Program,
    /// `start[i]` = first uop index of RV instruction `i`;
    /// `start[len]` = total uop count.
    start: Vec<u32>,
    /// Uop index → RV instruction index.
    rv_of: Vec<u32>,
    /// RV instruction index → its retiring uop (see [`Lowered::retiring`]).
    retiring: Vec<Option<u32>>,
}

impl Lowered {
    /// Uop index range occupied by RV instruction `idx`.
    pub fn bundle(&self, idx: u32) -> std::ops::Range<u32> {
        self.start[idx as usize]..self.start[idx as usize + 1]
    }

    /// First uop index of RV instruction `idx`. `idx` may be one past the
    /// last instruction, yielding the total uop count.
    pub fn start_of(&self, idx: u32) -> u32 {
        self.start[idx as usize]
    }

    /// RV instruction index owning uop `uop_idx`.
    pub fn rv_of(&self, uop_idx: u32) -> u32 {
        self.rv_of[uop_idx as usize]
    }

    /// Total number of uops.
    pub fn uops(&self) -> usize {
        self.rv_of.len()
    }

    /// The uop on whose commit RV instruction `idx` retires: the last of
    /// its bundle that the pipeline commits, i.e. neither a nop (the
    /// decoder filters those) nor a halt (never emitted). `None` for a
    /// bundle of only such uops.
    pub fn retiring(&self, idx: u32) -> Option<u32> {
        self.retiring[idx as usize]
    }

    /// `true` when the pipeline commits uop `sidx` (neither nop nor halt).
    pub fn commits(&self, sidx: u32) -> bool {
        let class = self.program.inst(sidx).expect("uop in range").class();
        !matches!(class, InstClass::Nop | InstClass::Halt)
    }
}

/// Number of uops instruction `inst` lowers to.
fn bundle_len(inst: &RvInst) -> u32 {
    match inst.op {
        RvOp::Jal if inst.rd > 1 => 2,
        RvOp::Jalr if inst.rd != 0 => 2,
        _ => 1,
    }
}

/// Branch/`jal` target as an RV instruction index.
fn target_idx(prog: &RvProgram, idx: u32, offset: i32) -> Result<u32, LowerError> {
    let bad = || LowerError::BadTarget { idx, offset };
    if offset % 4 != 0 {
        return Err(bad());
    }
    let t = i64::from(idx) + i64::from(offset / 4);
    if t < 0 || t >= prog.len() as i64 {
        return Err(bad());
    }
    Ok(t as u32)
}

/// Lower an RV32 program to the custom uop ISA.
///
/// # Errors
///
/// Returns [`LowerError`] when the program is empty or a static transfer
/// target leaves the code image.
pub fn lower(rv: &RvProgram) -> Result<Lowered, LowerError> {
    use RvOp::*;
    if rv.is_empty() {
        return Err(LowerError::Empty);
    }
    // Pass 1: bundle start offsets, so pass 2 can aim branches at the
    // lowered index of their RV target.
    let mut start = Vec::with_capacity(rv.len() + 1);
    let mut total = 0u32;
    for inst in &rv.insts {
        start.push(total);
        total += bundle_len(inst);
    }
    start.push(total);

    let mut program = Program::new(rv.name.clone());
    let mut rv_of = Vec::with_capacity(total as usize);
    for (idx, inst) in rv.insts.iter().enumerate() {
        let idx = idx as u32;
        let pc4 = i64::from(rv.pc_of(idx).wrapping_add(4));
        let (rd, rs1, rs2) = (map_reg(inst.rd), map_reg(inst.rs1), map_reg(inst.rs2));
        let imm = i64::from(inst.imm);
        let mut emit = |i: StaticInst| {
            program.push(i);
            rv_of.push(idx);
        };
        match inst.op {
            Lui => emit(StaticInst::li(rd, i64::from((inst.imm as u32) << 12))),
            Auipc => {
                let v = rv.pc_of(idx).wrapping_add((inst.imm as u32) << 12);
                emit(StaticInst::li(rd, i64::from(v)));
            }
            Add => emit(StaticInst::alu(Opcode::Add, rd, rs1, rs2)),
            Sub => emit(StaticInst::alu(Opcode::Sub, rd, rs1, rs2)),
            Sll => emit(StaticInst::alu(Opcode::Sll, rd, rs1, rs2)),
            Slt => emit(StaticInst::alu(Opcode::Slt, rd, rs1, rs2)),
            Sltu => emit(StaticInst::alu(Opcode::Sltu, rd, rs1, rs2)),
            Xor => emit(StaticInst::alu(Opcode::Xor, rd, rs1, rs2)),
            Srl => emit(StaticInst::alu(Opcode::Srl, rd, rs1, rs2)),
            Sra => emit(StaticInst::alu(Opcode::Sra, rd, rs1, rs2)),
            Or => emit(StaticInst::alu(Opcode::Or, rd, rs1, rs2)),
            And => emit(StaticInst::alu(Opcode::And, rd, rs1, rs2)),
            Mul | Mulh | Mulhsu | Mulhu => emit(StaticInst::alu(Opcode::Mul, rd, rs1, rs2)),
            Div | Divu | Rem | Remu => emit(StaticInst::alu(Opcode::Div, rd, rs1, rs2)),
            Addi => emit(StaticInst::alui(Opcode::Addi, rd, rs1, imm)),
            Slti => emit(StaticInst::alui(Opcode::Slti, rd, rs1, imm)),
            Sltiu => emit(StaticInst::alui(Opcode::Sltiu, rd, rs1, imm)),
            Xori => emit(StaticInst::alui(Opcode::Xori, rd, rs1, imm)),
            Ori => emit(StaticInst::alui(Opcode::Ori, rd, rs1, imm)),
            Andi => emit(StaticInst::alui(Opcode::Andi, rd, rs1, imm)),
            Slli => emit(StaticInst::alui(Opcode::Slli, rd, rs1, imm)),
            Srli => emit(StaticInst::alui(Opcode::Srli, rd, rs1, imm)),
            Srai => emit(StaticInst::alui(Opcode::Srai, rd, rs1, imm)),
            Lb | Lh | Lw | Lbu | Lhu => emit(StaticInst::load(rd, imm, rs1)),
            Sb | Sh | Sw => emit(StaticInst::store(rs2, imm, rs1)),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let t = start[target_idx(rv, idx, inst.imm)? as usize];
                // Compare-to-zero forms keep a single dependence, matching
                // what a native compare-to-zero ISA decoder would produce.
                let i = match (inst.op, inst.rs1, inst.rs2) {
                    (Beq, _, 0) => StaticInst::branch(Opcode::Beqz, rs1, t),
                    (Beq, 0, _) => StaticInst::branch(Opcode::Beqz, rs2, t),
                    (Bne, _, 0) => StaticInst::branch(Opcode::Bnez, rs1, t),
                    (Bne, 0, _) => StaticInst::branch(Opcode::Bnez, rs2, t),
                    (Blt, _, 0) => StaticInst::branch(Opcode::Bltz, rs1, t),
                    (Bge, _, 0) => StaticInst::branch(Opcode::Bgez, rs1, t),
                    (Beq, ..) => StaticInst::branch2(Opcode::Beq, rs1, rs2, t),
                    (Bne, ..) => StaticInst::branch2(Opcode::Bne, rs1, rs2, t),
                    (Blt, ..) => StaticInst::branch2(Opcode::Blt, rs1, rs2, t),
                    (Bge, ..) => StaticInst::branch2(Opcode::Bge, rs1, rs2, t),
                    (Bltu, ..) => StaticInst::branch2(Opcode::Bltu, rs1, rs2, t),
                    _ => StaticInst::branch2(Opcode::Bgeu, rs1, rs2, t),
                };
                emit(i);
            }
            Jal => {
                let t = start[target_idx(rv, idx, inst.imm)? as usize];
                match inst.rd {
                    0 => emit(StaticInst::jmp(t)),
                    // `jal ra` is a plain call: the custom Call writes the
                    // mapped ra (r26) and pushes the RAS.
                    1 => emit(StaticInst::call(t)),
                    _ => {
                        emit(StaticInst::li(rd, pc4));
                        emit(StaticInst::jmp(t));
                    }
                }
            }
            Jalr => match (inst.rd, inst.rs1, inst.imm) {
                // `ret`: pops the RAS.
                (0, 1, 0) => emit(StaticInst::ret()),
                (0, ..) => emit(StaticInst::jr(rs1)),
                _ => {
                    // Link then jump. When rd == rs1 the jump reads the
                    // *new* value — a false dependence the RV interpreter
                    // never sees (it resolves targets architecturally), and
                    // a pessimism the scheduler tolerates; documented in
                    // DESIGN §11. Indirect calls also bypass the RAS.
                    emit(StaticInst::li(rd, pc4));
                    emit(StaticInst::jr(rs1));
                }
            },
            Fence => emit(StaticInst::nop()),
            Ecall | Ebreak => emit(StaticInst::halt()),
        }
    }
    for (name, idx) in &rv.labels {
        program.set_label(name.clone(), start[*idx as usize]);
    }
    program.set_entry(start[rv.entry as usize]);
    program
        .validate()
        .expect("lowered program structurally valid");
    let mut low = Lowered {
        program,
        start,
        rv_of,
        retiring: Vec::new(),
    };
    low.retiring = (0..rv.len() as u32)
        .map(|idx| low.bundle(idx).rev().find(|&u| low.commits(u)))
        .collect();
    Ok(low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn register_map_is_injective_and_role_preserving() {
        let mut seen = [false; 32];
        for x in 0..32u8 {
            let r = map_reg(x);
            assert!(r.is_int());
            assert!(!seen[r.index()], "x{x} collides");
            seen[r.index()] = true;
        }
        assert_eq!(map_reg(0), Reg::ZERO);
        assert_eq!(map_reg(1), Reg::RA);
        assert_eq!(map_reg(2), Reg::SP);
    }

    #[test]
    fn one_to_one_lowering_preserves_indices() {
        let rv = assemble(
            "t",
            "_start:\naddi t0, zero, 3\nloop:\naddi t0, t0, -1\nbnez t0, loop\nebreak",
        )
        .unwrap();
        let low = lower(&rv).unwrap();
        assert_eq!(low.uops(), 4);
        assert_eq!(low.bundle(2), 2..3);
        // bnez lowers to the single-source custom bnez aimed at uop 1.
        let b = low.program.inst(2).unwrap();
        assert_eq!(b.opcode(), Opcode::Bnez);
        assert_eq!(b.target(), Some(1));
        assert_eq!(low.program.inst(3).unwrap().class(), InstClass::Halt);
    }

    #[test]
    fn linking_jumps_expand_to_bundles() {
        let rv = assemble("t", "_start:\njal t0, next\nnext:\njalr t1, 0(t0)\nebreak").unwrap();
        let low = lower(&rv).unwrap();
        assert_eq!(low.uops(), 5);
        assert_eq!(low.bundle(0), 0..2);
        assert_eq!(low.bundle(1), 2..4);
        assert_eq!(low.rv_of(3), 1);
        // jal t0: li t0, pc+4 ; j — link value is the RV byte pc.
        let li = low.program.inst(0).unwrap();
        assert_eq!(li.opcode(), Opcode::Li);
        assert_eq!(li.imm(), i64::from(RvProgram::BASE_PC) + 4);
        assert_eq!(low.program.inst(1).unwrap().target(), Some(2));
    }

    #[test]
    fn retiring_uop_is_the_last_committed_of_each_bundle() {
        let rv = assemble(
            "t",
            "_start:\njal t0, next\nnext:\nfence\naddi a0, a0, 1\nebreak",
        )
        .unwrap();
        let low = lower(&rv).unwrap();
        // jal t0 -> li + jmp retires on the jmp; fence (a nop) and ebreak
        // (a halt) never commit, so they have no retiring uop.
        assert_eq!(low.retiring(0), Some(1));
        assert_eq!(low.retiring(1), None);
        assert_eq!(low.retiring(2), Some(3));
        assert_eq!(low.retiring(3), None);
        assert!(low.commits(0) && !low.commits(2) && !low.commits(4));
    }

    #[test]
    fn call_ret_use_the_ras_opcodes() {
        let rv = assemble("t", "_start:\ncall f\nebreak\nf:\nret").unwrap();
        let low = lower(&rv).unwrap();
        assert_eq!(low.program.inst(0).unwrap().class(), InstClass::Call);
        assert_eq!(low.program.inst(2).unwrap().class(), InstClass::Return);
    }

    #[test]
    fn compare_to_zero_branches_keep_one_source() {
        let rv = assemble("t", "top:\nbeq a0, zero, top\nbeq a0, a1, top\nebreak").unwrap();
        let low = lower(&rv).unwrap();
        assert_eq!(low.program.inst(0).unwrap().src_regs().count(), 1);
        assert_eq!(low.program.inst(1).unwrap().src_regs().count(), 2);
    }

    #[test]
    fn entry_and_labels_map_through_bundles() {
        let rv = assemble("t", "jal t3, main\nmain:\nebreak").unwrap();
        let low = lower(&rv).unwrap();
        assert_eq!(low.program.label("main"), Some(2));
        // default entry is rv index 0 -> uop 0.
        assert_eq!(low.program.entry(), 0);
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        let mut rv = RvProgram::new("t");
        rv.insts.push(RvInst::branch(RvOp::Beq, 1, 2, 64));
        assert!(matches!(lower(&rv), Err(LowerError::BadTarget { .. })));
        assert!(matches!(
            lower(&RvProgram::new("e")),
            Err(LowerError::Empty)
        ));
    }
}
