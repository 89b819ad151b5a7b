//! RV32 architectural interpreter: the functional oracle.
//!
//! Executes full RV32I+M semantics — 32 × 32-bit registers and a sparse
//! byte-addressed memory — and reports, for every retired instruction,
//! where control went and which effective address it touched. The
//! differential harness compares the timing pipeline's committed state
//! against this interpreter's; the trace adapter in [`crate::trace`] turns
//! its steps into the committed-path uop stream the simulator consumes.

use std::collections::HashMap;

use crate::inst::{RvInst, RvOp, RvProgram};

/// Initial stack pointer (`x2`) — far above any program data so stacks and
/// heaps don't collide in the tests' address space.
pub const STACK_TOP: u32 = 0x7fff_0000;

/// Architectural RV32 state: register file plus sparse byte memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RvState {
    regs: [u32; 32],
    mem: HashMap<u32, u8>,
}

impl RvState {
    /// Fresh state: all registers zero except `sp`, empty memory.
    pub fn new() -> RvState {
        let mut s = RvState::default();
        s.regs[2] = STACK_TOP;
        s
    }

    /// Read register `x<n>`.
    pub fn reg(&self, n: u8) -> u32 {
        self.regs[n as usize]
    }

    /// Write register `x<n>`; writes to `x0` are discarded.
    pub fn set_reg(&mut self, n: u8, v: u32) {
        if n != 0 {
            self.regs[n as usize] = v;
        }
    }

    /// Load one byte (unwritten memory reads as 0).
    pub fn load8(&self, addr: u32) -> u8 {
        self.mem.get(&addr).copied().unwrap_or(0)
    }

    /// Load a little-endian halfword.
    pub fn load16(&self, addr: u32) -> u16 {
        u16::from(self.load8(addr)) | u16::from(self.load8(addr.wrapping_add(1))) << 8
    }

    /// Load a little-endian word.
    pub fn load32(&self, addr: u32) -> u32 {
        u32::from(self.load16(addr)) | u32::from(self.load16(addr.wrapping_add(2))) << 16
    }

    /// Store one byte.
    pub fn store8(&mut self, addr: u32, v: u8) {
        self.mem.insert(addr, v);
    }

    /// Store a little-endian halfword.
    pub fn store16(&mut self, addr: u32, v: u16) {
        self.store8(addr, v as u8);
        self.store8(addr.wrapping_add(1), (v >> 8) as u8);
    }

    /// Store a little-endian word.
    pub fn store32(&mut self, addr: u32, v: u32) {
        self.store16(addr, v as u16);
        self.store16(addr.wrapping_add(2), (v >> 16) as u16);
    }

    /// The written-memory image, as sorted `(address, byte)` pairs.
    pub fn mem_image(&self) -> Vec<(u32, u8)> {
        let mut v: Vec<(u32, u8)> = self.mem.iter().map(|(&a, &b)| (a, b)).collect();
        v.sort_unstable();
        v
    }

    /// FNV-1a digest over registers and the sorted memory image — a
    /// compact fingerprint for golden tests.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for r in &self.regs {
            for b in r.to_le_bytes() {
                eat(b);
            }
        }
        for (a, b) in self.mem_image() {
            for ab in a.to_le_bytes() {
                eat(ab);
            }
            eat(b);
        }
        h
    }
}

/// Architectural effect of executing one instruction at byte pc `pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RvEffect {
    /// Byte pc of the next instruction.
    pub next_pc: u32,
    /// A control transfer left the fall-through path.
    pub taken: bool,
    /// Effective byte address for loads/stores.
    pub eff_addr: Option<u32>,
    /// The instruction halts the program (`ecall`/`ebreak`).
    pub halt: bool,
}

/// Execute one instruction against `state`. This is the single source of
/// RV semantics: the interpreter steps with it, and the differential
/// harness replays the pipeline's committed instructions through it.
pub fn execute(state: &mut RvState, inst: &RvInst, pc: u32) -> RvEffect {
    use RvOp::*;
    let (a, b) = (state.reg(inst.rs1), state.reg(inst.rs2));
    let (sa, sb) = (a as i32, b as i32);
    let imm = inst.imm;
    let fall = pc.wrapping_add(4);
    let mut eff = RvEffect {
        next_pc: fall,
        taken: false,
        eff_addr: None,
        halt: false,
    };
    let wr = |s: &mut RvState, v: u32| s.set_reg(inst.rd, v);
    match inst.op {
        Lui => wr(state, (imm as u32) << 12),
        Auipc => wr(state, pc.wrapping_add((imm as u32) << 12)),
        Add => wr(state, a.wrapping_add(b)),
        Sub => wr(state, a.wrapping_sub(b)),
        Sll => wr(state, a.wrapping_shl(b)),
        Slt => wr(state, u32::from(sa < sb)),
        Sltu => wr(state, u32::from(a < b)),
        Xor => wr(state, a ^ b),
        Srl => wr(state, a.wrapping_shr(b)),
        Sra => wr(state, sa.wrapping_shr(b) as u32),
        Or => wr(state, a | b),
        And => wr(state, a & b),
        Addi => wr(state, a.wrapping_add(imm as u32)),
        Slti => wr(state, u32::from(sa < imm)),
        Sltiu => wr(state, u32::from(a < imm as u32)),
        Xori => wr(state, a ^ imm as u32),
        Ori => wr(state, a | imm as u32),
        Andi => wr(state, a & imm as u32),
        Slli => wr(state, a.wrapping_shl(imm as u32)),
        Srli => wr(state, a.wrapping_shr(imm as u32)),
        Srai => wr(state, sa.wrapping_shr(imm as u32) as u32),
        Mul => wr(state, a.wrapping_mul(b)),
        Mulh => wr(state, ((i64::from(sa) * i64::from(sb)) >> 32) as u32),
        Mulhsu => wr(state, ((i64::from(sa) * i64::from(b)) >> 32) as u32),
        Mulhu => wr(state, ((u64::from(a) * u64::from(b)) >> 32) as u32),
        Div => wr(
            state,
            if b == 0 {
                u32::MAX
            } else if sa == i32::MIN && sb == -1 {
                sa as u32
            } else {
                (sa / sb) as u32
            },
        ),
        Divu => wr(state, a.checked_div(b).unwrap_or(u32::MAX)),
        Rem => wr(
            state,
            if b == 0 {
                a
            } else if sa == i32::MIN && sb == -1 {
                0
            } else {
                (sa % sb) as u32
            },
        ),
        Remu => wr(state, if b == 0 { a } else { a % b }),
        Lb | Lh | Lw | Lbu | Lhu => {
            let addr = a.wrapping_add(imm as u32);
            eff.eff_addr = Some(addr);
            let v = match inst.op {
                Lb => state.load8(addr) as i8 as u32,
                Lbu => u32::from(state.load8(addr)),
                Lh => state.load16(addr) as i16 as u32,
                Lhu => u32::from(state.load16(addr)),
                _ => state.load32(addr),
            };
            wr(state, v);
        }
        Sb | Sh | Sw => {
            let addr = a.wrapping_add(imm as u32);
            eff.eff_addr = Some(addr);
            match inst.op {
                Sb => state.store8(addr, b as u8),
                Sh => state.store16(addr, b as u16),
                _ => state.store32(addr, b),
            }
        }
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            let taken = match inst.op {
                Beq => a == b,
                Bne => a != b,
                Blt => sa < sb,
                Bge => sa >= sb,
                Bltu => a < b,
                _ => a >= b,
            };
            if taken {
                eff.taken = true;
                eff.next_pc = pc.wrapping_add(imm as u32);
            }
        }
        Jal => {
            wr(state, fall);
            eff.taken = true;
            eff.next_pc = pc.wrapping_add(imm as u32);
        }
        Jalr => {
            let t = a.wrapping_add(imm as u32) & !1;
            wr(state, fall);
            eff.taken = true;
            eff.next_pc = t;
        }
        Fence => {}
        Ecall | Ebreak => eff.halt = true,
    }
    eff
}

/// One retired RV instruction, in index space: which instruction ran,
/// where control went, and the address it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RvStep {
    /// Instruction index executed.
    pub idx: u32,
    /// Index of the next instruction (may be one past the end for a
    /// program that runs off its last instruction before halting).
    pub next_idx: u32,
    /// Whether a control transfer was taken.
    pub taken: bool,
    /// Effective byte address for loads/stores.
    pub eff_addr: Option<u32>,
}

/// The RV32 functional interpreter.
///
/// Mirrors the `mos-asm` interpreter's contract: `step` retires one
/// instruction per call; `ecall`/`ebreak` stop the machine *without*
/// retiring (their halt uop is likewise filtered by the pipeline's
/// decoder), and an invalid dynamic jump target or running off the code
/// image stops the machine with `faulted` set.
#[derive(Debug, Clone)]
pub struct RvInterp {
    program: RvProgram,
    state: RvState,
    pc_idx: u32,
    halted: bool,
    faulted: bool,
    retired: u64,
}

impl RvInterp {
    /// Interpreter over a program, with `.byte`/`.word` data preloaded.
    pub fn new(program: &RvProgram) -> RvInterp {
        let mut state = RvState::new();
        for &(addr, byte) in &program.data {
            state.store8(addr, byte);
        }
        let pc_idx = program.entry;
        RvInterp {
            program: program.clone(),
            state,
            pc_idx,
            halted: false,
            faulted: false,
            retired: 0,
        }
    }

    /// Architectural state so far.
    pub fn state(&self) -> &RvState {
        &self.state
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The machine stopped on `ecall`/`ebreak` (not a fault, not still
    /// running).
    pub fn stopped_cleanly(&self) -> bool {
        self.halted && !self.faulted
    }

    /// The machine stopped on a bad dynamic jump target or by running off
    /// the code image.
    pub fn faulted(&self) -> bool {
        self.faulted
    }

    /// Retire one instruction. Returns `None` once halted or faulted.
    pub fn step(&mut self) -> Option<RvStep> {
        if self.halted {
            return None;
        }
        let idx = self.pc_idx;
        let Some(&inst) = self.program.insts.get(idx as usize) else {
            self.halted = true;
            self.faulted = true;
            return None;
        };
        let pc = self.program.pc_of(idx);
        let eff = execute(&mut self.state, &inst, pc);
        if eff.halt {
            self.halted = true;
            return None;
        }
        // Decode the next pc back to an index; one-past-the-end is legal
        // here (the *next* step faults), anything else is a fault now.
        let next_idx = if eff.next_pc == self.program.pc_of(self.program.len() as u32) {
            self.program.len() as u32
        } else {
            match self.program.index_of_pc(eff.next_pc) {
                Some(i) => i,
                None => {
                    self.halted = true;
                    self.faulted = true;
                    return None;
                }
            }
        };
        self.pc_idx = next_idx;
        self.retired += 1;
        Some(RvStep {
            idx,
            next_idx,
            taken: eff.taken,
            eff_addr: eff.eff_addr,
        })
    }

    /// Run to completion (or `max` steps), collecting every step.
    pub fn run_collect(&mut self, max: usize) -> Vec<RvStep> {
        let mut steps = Vec::new();
        while steps.len() < max {
            match self.step() {
                Some(s) => steps.push(s),
                None => break,
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> RvInterp {
        let p = assemble("t", src).unwrap();
        let mut i = RvInterp::new(&p);
        let steps = i.run_collect(1_000_000);
        assert!(i.stopped_cleanly(), "did not halt cleanly: {steps:?}");
        i
    }

    #[test]
    fn loop_sums() {
        let i = run("_start:\nli t0, 100\nli a0, 0\nloop:\nadd a0, a0, t0\naddi t0, t0, -1\nbnez t0, loop\nebreak");
        assert_eq!(i.state().reg(10), 5050);
        // 2 setup + 100 iterations * 3.
        assert_eq!(i.retired(), 302);
    }

    #[test]
    fn memory_widths_and_sign_extension() {
        let i = run("_start:
                li t0, 0x1000
                li t1, -2      # 0xfffffffe
                sw t1, 0(t0)
                lb a0, 0(t0)   # 0xfe sign-extends to -2
                lbu a1, 0(t0)  # 254
                lh a2, 0(t0)   # -2
                lhu a3, 0(t0)  # 0xfffe
                sh zero, 2(t0)
                lw a4, 0(t0)   # 0x0000fffe
                ebreak");
        assert_eq!(i.state().reg(10) as i32, -2);
        assert_eq!(i.state().reg(11), 254);
        assert_eq!(i.state().reg(12) as i32, -2);
        assert_eq!(i.state().reg(13), 0xfffe);
        assert_eq!(i.state().reg(14), 0xfffe);
    }

    #[test]
    fn m_extension_edge_cases() {
        let i = run("_start:
                li t0, -2147483648
                li t1, -1
                div a0, t0, t1    # overflow -> INT_MIN
                rem a1, t0, t1    # overflow -> 0
                li t2, 0
                div a2, t0, t2    # div by zero -> -1
                rem a3, t0, t2    # rem by zero -> dividend
                mulh a4, t0, t1   # high half of INT_MIN * -1
                li t3, 7
                li t4, 3
                divu a5, t3, t4
                ebreak");
        assert_eq!(i.state().reg(10), 0x8000_0000);
        assert_eq!(i.state().reg(11), 0);
        assert_eq!(i.state().reg(12), u32::MAX);
        assert_eq!(i.state().reg(13), 0x8000_0000);
        assert_eq!(i.state().reg(14), 0);
        assert_eq!(i.state().reg(15), 2);
    }

    #[test]
    fn call_ret_and_stack() {
        let i = run("_start:
                li a0, 5
                call double
                ebreak
             double:
                addi sp, sp, -4
                sw a0, 0(sp)
                lw t0, 0(sp)
                add a0, t0, t0
                addi sp, sp, 4
                ret");
        assert_eq!(i.state().reg(10), 10);
        assert_eq!(i.state().reg(2), STACK_TOP);
    }

    #[test]
    fn x0_is_immutable_and_faults_are_detected() {
        let p = assemble("t", "_start:\nli t0, 3\njr t0\nebreak").unwrap();
        let mut i = RvInterp::new(&p);
        i.run_collect(100);
        assert!(i.faulted(), "misaligned jr target must fault");

        let i2 = run("_start:\naddi zero, zero, 7\nmv a0, zero\nebreak");
        assert_eq!(i2.state().reg(10), 0);
    }

    #[test]
    fn digest_is_order_independent_for_memory() {
        let a = run("_start:\nli t0, 0x100\nsb t0, 0(t0)\nsb t0, 4(t0)\nebreak");
        let b = run("_start:\nli t0, 0x100\nsb t0, 4(t0)\nsb t0, 0(t0)\nebreak");
        assert_eq!(a.state().digest(), b.state().digest());
        assert_ne!(a.state().digest(), RvState::new().digest());
    }
}
