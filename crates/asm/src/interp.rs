use std::collections::HashMap;

use mos_isa::{DynInst, Opcode, Program, Reg, TraceSource};

/// Architectural state of the functional machine: 32 integer registers,
/// 32 floating-point registers, and a sparse 8-byte-word memory.
#[derive(Debug, Clone, Default)]
pub struct ArchState {
    int: [i64; Reg::NUM_INT as usize],
    fp: [f64; Reg::NUM_FP as usize],
    mem: HashMap<u64, i64>,
}

impl ArchState {
    /// Fresh state: all registers zero, memory empty, `sp` pointing at a
    /// conventional stack top.
    pub fn new() -> ArchState {
        let mut s = ArchState::default();
        s.set_int_reg(Reg::SP, 0x7fff_0000);
        s
    }

    /// Read an integer register (the zero register reads as 0).
    ///
    /// # Panics
    ///
    /// Panics if `r` is a floating-point register.
    pub fn int_reg(&self, r: Reg) -> i64 {
        assert!(r.is_int());
        if r.is_zero() {
            0
        } else {
            self.int[r.index()]
        }
    }

    /// Write an integer register (writes to the zero register are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `r` is a floating-point register.
    pub fn set_int_reg(&mut self, r: Reg, v: i64) {
        assert!(r.is_int());
        if !r.is_zero() {
            self.int[r.index()] = v;
        }
    }

    /// Read a floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `r` is an integer register.
    pub fn fp_reg(&self, r: Reg) -> f64 {
        assert!(r.is_fp());
        self.fp[r.index() - Reg::NUM_INT as usize]
    }

    /// Write a floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `r` is an integer register.
    pub fn set_fp_reg(&mut self, r: Reg, v: f64) {
        assert!(r.is_fp());
        self.fp[r.index() - Reg::NUM_INT as usize] = v;
    }

    /// Read the 8-byte memory word containing byte address `addr`
    /// (unwritten memory reads as zero).
    pub fn load(&self, addr: u64) -> i64 {
        self.mem.get(&(addr & !7)).copied().unwrap_or(0)
    }

    /// Write the 8-byte memory word containing byte address `addr`.
    pub fn store(&mut self, addr: u64, value: i64) {
        self.mem.insert(addr & !7, value);
    }
}

/// Architectural interpreter over a native [`Program`].
///
/// Yields one [`DynInst`] per executed instruction; iteration ends at
/// `halt`, on a fall-off-the-end, or on an invalid indirect-jump target
/// (check [`Interpreter::stopped_cleanly`] to distinguish).
#[derive(Debug, Clone)]
pub struct Interpreter {
    program: Program,
    state: ArchState,
    pc: u32,
    halted: bool,
    faulted: bool,
}

impl Interpreter {
    /// Start interpreting `program` at its entry point, memory empty.
    pub fn new(program: &Program) -> Interpreter {
        Interpreter {
            program: program.clone(),
            state: ArchState::new(),
            pc: program.entry(),
            halted: false,
            faulted: false,
        }
    }

    /// Current architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// `true` once a `halt` has been executed (as opposed to a fault or an
    /// exhausted step budget).
    pub fn stopped_cleanly(&self) -> bool {
        self.halted && !self.faulted
    }

    /// Run up to `max_steps` instructions, returning the trace and final
    /// architectural state.
    pub fn run_collect(mut self, max_steps: usize) -> (Vec<DynInst>, ArchState) {
        let mut trace = Vec::new();
        for d in self.by_ref().take(max_steps) {
            trace.push(d);
        }
        (trace, self.state)
    }

    fn step(&mut self) -> Option<DynInst> {
        if self.halted {
            return None;
        }
        let inst = match self.program.inst(self.pc) {
            Some(i) => *i,
            None => {
                self.halted = true;
                self.faulted = true;
                return None;
            }
        };
        let sidx = self.pc;
        let s = &mut self.state;
        let mut next = sidx + 1;
        let mut taken = false;
        let mut eff_addr = None;
        let rs = |s: &ArchState, i: usize| inst.raw_srcs()[i].map_or(0, |r| s.int_reg(r));
        let fs = |s: &ArchState, i: usize| inst.raw_srcs()[i].map_or(0.0, |r| s.fp_reg(r));

        use Opcode::*;
        match inst.opcode() {
            Add => s.set_int_reg(inst.dst_raw(), rs(s, 0).wrapping_add(rs(s, 1))),
            Addi => s.set_int_reg(inst.dst_raw(), rs(s, 0).wrapping_add(inst.imm())),
            Sub => s.set_int_reg(inst.dst_raw(), rs(s, 0).wrapping_sub(rs(s, 1))),
            Subi => s.set_int_reg(inst.dst_raw(), rs(s, 0).wrapping_sub(inst.imm())),
            And => s.set_int_reg(inst.dst_raw(), rs(s, 0) & rs(s, 1)),
            Andi => s.set_int_reg(inst.dst_raw(), rs(s, 0) & inst.imm()),
            Or => s.set_int_reg(inst.dst_raw(), rs(s, 0) | rs(s, 1)),
            Ori => s.set_int_reg(inst.dst_raw(), rs(s, 0) | inst.imm()),
            Xor => s.set_int_reg(inst.dst_raw(), rs(s, 0) ^ rs(s, 1)),
            Xori => s.set_int_reg(inst.dst_raw(), rs(s, 0) ^ inst.imm()),
            Not => s.set_int_reg(inst.dst_raw(), !rs(s, 0)),
            Sll => s.set_int_reg(inst.dst_raw(), rs(s, 0).wrapping_shl(rs(s, 1) as u32 & 63)),
            Slli => s.set_int_reg(inst.dst_raw(), rs(s, 0).wrapping_shl(inst.imm() as u32 & 63)),
            Srl => s.set_int_reg(
                inst.dst_raw(),
                ((rs(s, 0) as u64).wrapping_shr(rs(s, 1) as u32 & 63)) as i64,
            ),
            Srli => s.set_int_reg(
                inst.dst_raw(),
                ((rs(s, 0) as u64).wrapping_shr(inst.imm() as u32 & 63)) as i64,
            ),
            Sra => s.set_int_reg(inst.dst_raw(), rs(s, 0).wrapping_shr(rs(s, 1) as u32 & 63)),
            Srai => s.set_int_reg(inst.dst_raw(), rs(s, 0).wrapping_shr(inst.imm() as u32 & 63)),
            Slt => s.set_int_reg(inst.dst_raw(), i64::from(rs(s, 0) < rs(s, 1))),
            Sltu => s.set_int_reg(inst.dst_raw(), i64::from((rs(s, 0) as u64) < (rs(s, 1) as u64))),
            Slti => s.set_int_reg(inst.dst_raw(), i64::from(rs(s, 0) < inst.imm())),
            Sltiu => s.set_int_reg(
                inst.dst_raw(),
                i64::from((rs(s, 0) as u64) < (inst.imm() as u64)),
            ),
            Cmpeq => s.set_int_reg(inst.dst_raw(), i64::from(rs(s, 0) == rs(s, 1))),
            Li => s.set_int_reg(inst.dst_raw(), inst.imm()),
            Mov => s.set_int_reg(inst.dst_raw(), rs(s, 0)),
            Mul => s.set_int_reg(inst.dst_raw(), rs(s, 0).wrapping_mul(rs(s, 1))),
            Div => {
                let (a, b) = (rs(s, 0), rs(s, 1));
                s.set_int_reg(inst.dst_raw(), if b == 0 { 0 } else { a.wrapping_div(b) });
            }
            Fadd => s.set_fp_reg(inst.dst_raw(), fs(s, 0) + fs(s, 1)),
            Fsub => s.set_fp_reg(inst.dst_raw(), fs(s, 0) - fs(s, 1)),
            Fmul => s.set_fp_reg(inst.dst_raw(), fs(s, 0) * fs(s, 1)),
            Fdiv => s.set_fp_reg(inst.dst_raw(), fs(s, 0) / fs(s, 1)),
            Fneg => s.set_fp_reg(inst.dst_raw(), -fs(s, 0)),
            Itof => s.set_fp_reg(inst.dst_raw(), rs(s, 0) as f64),
            Ftoi => s.set_int_reg(inst.dst_raw(), fs(s, 0) as i64),
            Ld => {
                let addr = rs(s, 0).wrapping_add(inst.imm()) as u64;
                eff_addr = Some(addr);
                let v = s.load(addr);
                s.set_int_reg(inst.dst_raw(), v);
            }
            Fld => {
                let addr = rs(s, 0).wrapping_add(inst.imm()) as u64;
                eff_addr = Some(addr);
                let v = f64::from_bits(s.load(addr) as u64);
                s.set_fp_reg(inst.dst_raw(), v);
            }
            St => {
                let addr = rs(s, 0).wrapping_add(inst.imm()) as u64;
                eff_addr = Some(addr);
                let v = rs(s, 1);
                s.store(addr, v);
            }
            Fst => {
                let addr = rs(s, 0).wrapping_add(inst.imm()) as u64;
                eff_addr = Some(addr);
                let v = fs(s, 1).to_bits() as i64;
                s.store(addr, v);
            }
            Beqz | Bnez | Bltz | Bgez => {
                let v = rs(s, 0);
                taken = match inst.opcode() {
                    Beqz => v == 0,
                    Bnez => v != 0,
                    Bltz => v < 0,
                    _ => v >= 0,
                };
                if taken {
                    next = inst.target().expect("validated branch target");
                }
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let (a, b) = (rs(s, 0), rs(s, 1));
                taken = match inst.opcode() {
                    Beq => a == b,
                    Bne => a != b,
                    Blt => a < b,
                    Bge => a >= b,
                    Bltu => (a as u64) < (b as u64),
                    _ => (a as u64) >= (b as u64),
                };
                if taken {
                    next = inst.target().expect("validated branch target");
                }
            }
            Jmp => {
                taken = true;
                next = inst.target().expect("validated jump target");
            }
            Call => {
                taken = true;
                s.set_int_reg(Reg::RA, i64::from(sidx + 1));
                next = inst.target().expect("validated call target");
            }
            Jr | Ret => {
                taken = true;
                let t = rs(s, 0);
                if t < 0 || t as usize >= self.program.len() {
                    self.halted = true;
                    self.faulted = true;
                    return None;
                }
                next = t as u32;
            }
            Nop => {}
            Halt => {
                self.halted = true;
                return None;
            }
        }
        self.pc = next;
        Some(DynInst {
            sidx,
            next_sidx: next,
            taken,
            eff_addr,
        })
    }
}

/// Extension used internally: destination including zero-register writes
/// (the interpreter discards them via [`ArchState::set_int_reg`]).
trait DstRaw {
    fn dst_raw(&self) -> Reg;
}

impl DstRaw for mos_isa::StaticInst {
    fn dst_raw(&self) -> Reg {
        self.dst().unwrap_or(Reg::ZERO)
    }
}

impl Iterator for Interpreter {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        self.step()
    }
}

impl TraceSource for Interpreter {
    fn program(&self) -> &Program {
        &self.program
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use mos_isa::StaticInst as I;

    fn r(n: u8) -> Reg {
        Reg::int(n)
    }

    fn run(insts: impl IntoIterator<Item = I>) -> (Vec<DynInst>, ArchState) {
        Interpreter::new(&Program::from_insts("t", insts)).run_collect(100_000)
    }

    #[test]
    fn loop_sums_correctly() {
        let (trace, s) = run([
            I::li(r(1), 10), // counter
            I::li(r(2), 0),  // sum
            I::add(r(2), r(2), r(1)),
            I::addi(r(1), r(1), -1),
            I::branch(Opcode::Bnez, r(1), 2),
            I::halt(),
        ]);
        assert_eq!(s.int_reg(r(2)), 55);
        // 2 setup + 10 iterations * 3
        assert_eq!(trace.len(), 32);
        // last branch not taken
        assert!(!trace.last().unwrap().taken);
        assert!(trace[4].taken);
    }

    #[test]
    fn memory_round_trip_reports_addresses() {
        let (trace, s) = run([
            I::li(r(1), 0x100),
            I::li(r(2), 99),
            I::store(r(2), 8, r(1)),
            I::load(r(3), 8, r(1)),
            I::halt(),
        ]);
        assert_eq!(s.int_reg(r(3)), 99);
        assert_eq!(trace[2].eff_addr, Some(0x108));
        assert_eq!(trace[3].eff_addr, Some(0x108));
        assert_eq!(trace[1].eff_addr, None);
    }

    #[test]
    fn call_and_ret() {
        let (trace, s) = run([
            I::call(3),
            I::mov(r(6), r(5)),
            I::halt(),
            I::li(r(5), 123),
            I::ret(),
        ]);
        assert_eq!(s.int_reg(r(6)), 123);
        let taken: Vec<_> = trace.iter().filter(|d| d.taken).collect();
        assert_eq!(taken.len(), 2); // call + ret
    }

    #[test]
    fn fp_memory_round_trip() {
        let (_, s) = run([
            I::li(r(1), 7),
            I::alui(Opcode::Itof, Reg::fp(1), r(1), 0),
            I::li(r(9), 0x200),
            I::store(Reg::fp(1), 0, r(9)),
            I::load(Reg::fp(2), 0, r(9)),
            I::alui(Opcode::Ftoi, r(2), Reg::fp(2), 0),
            I::halt(),
        ]);
        assert_eq!(s.int_reg(r(2)), 7);
    }

    #[test]
    fn two_source_branches_and_imm_shifts() {
        let (trace, s) = run([
            I::li(r(1), -8),
            I::alui(Opcode::Srai, r(2), r(1), 1),  // -4 (arithmetic)
            I::alui(Opcode::Sltiu, r(3), r(1), 3), // -8 as unsigned is huge -> 0
            I::li(r(4), 5),
            I::li(r(5), 5),
            I::branch2(Opcode::Beq, r(4), r(5), 7), // taken
            I::li(r(6), 111),
            I::branch2(Opcode::Blt, r(1), r(4), 9), // -8 < 5, taken
            I::li(r(6), 222),
            I::branch2(Opcode::Bgeu, r(1), r(4), 11), // unsigned -8 >= 5, taken
            I::li(r(6), 333),
            I::halt(),
        ]);
        assert_eq!(s.int_reg(r(2)), -4);
        assert_eq!(s.int_reg(r(3)), 0);
        assert_eq!(s.int_reg(r(6)), 0, "all three branches taken");
        assert_eq!(trace.iter().filter(|d| d.taken).count(), 3);
    }

    #[test]
    fn bad_indirect_jump_and_falling_off_the_end_fault() {
        for (insts, ran) in [
            (vec![I::li(r(1), 9999), I::jr(r(1)), I::halt()], 1),
            (vec![I::li(r(1), 1), I::li(r(2), 2)], 2),
        ] {
            let mut i = Interpreter::new(&Program::from_insts("t", insts));
            assert_eq!(i.by_ref().count(), ran);
            assert!(!i.stopped_cleanly());
        }
    }

    #[test]
    fn halt_stops_cleanly() {
        let mut i = Interpreter::new(&Program::from_insts("t", [I::nop(), I::halt()]));
        assert_eq!(i.by_ref().count(), 1);
        assert!(i.stopped_cleanly());
    }

    #[test]
    fn next_sidx_chains() {
        let (trace, _) = run([
            I::li(r(1), 2),
            I::addi(r(1), r(1), -1),
            I::branch(Opcode::Bnez, r(1), 1),
            I::halt(),
        ]);
        for w in trace.windows(2) {
            assert_eq!(w[0].next_sidx, w[1].sidx);
        }
    }
}
